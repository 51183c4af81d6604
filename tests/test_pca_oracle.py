"""Tests for the classical spectral oracle."""

import tracemalloc
import warnings

import numpy as np
import pytest

from qpcasim import pca_oracle
from qpcasim.datasets import dataset_from_spectrum, rank_k_dataset, rank_k_plus_noise
from qpcasim.errors import InvalidInputError, OutOfRangeError
from qpcasim.pca_oracle import (
    OVERLAP_BLOCK_ROWS,
    CompressedMatrix,
    DataMatrix,
    expected_compressed_state,
    expected_row_state,
    pairwise_overlap_report,
    project,
    svd_decompose,
)
from qpcasim.qpca_pipeline import run_compression
from qpcasim.statevector import ceil_log2
from qpcasim.sv_engine import RhoSpec, _padded_eigenbasis

from oracles import jacobi_eigh


def test_data_matrix_validation():
    with pytest.raises(InvalidInputError):
        DataMatrix(np.array([1.0, 2.0]))  # not 2-D
    with pytest.raises(InvalidInputError):
        DataMatrix(np.array([[1.0, np.nan]]))
    with pytest.raises(InvalidInputError):
        DataMatrix(np.array([[1.0, 2.0], [0.0, 0.0]]))  # zero row
    m = DataMatrix(np.array([[3.0, 4.0]]))
    assert m.frobenius_norm == pytest.approx(5.0, abs=1e-12)
    assert m.n_rows == 1 and m.n_cols == 2


# The matrix's norms must stay in float64's range, as the CLI's ingest
# requires: a row of 1e-300 entries is not all-zero, and a row of 1e200
# entries is refused without a numpy warning escaping.
@pytest.mark.parametrize(
    "rows, error, message",
    [
        ([[1.0, 2.0], [0.0, 0.0]], InvalidInputError, "row 1: row is entirely zero"),
        ([[1e-300, 1e-300], [1.0, 2.0]], InvalidInputError,
         "row 0: row's sum of squares underflows to zero; rescale the data"),
        ([[1e200, 1e200], [1.0, 2.0]], InvalidInputError, "row 0: row's sum of squares overflows; rescale the data"),
        ([[1e154, 1.0], [1.0, 1e154]], OutOfRangeError,
         "the matrix's total sum of squares overflows; rescale the data"),
    ],
    ids=["zero-row", "tiny-row", "huge-row", "huge-matrix"],
)
def test_data_matrix_norm_range(rows, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            DataMatrix(np.array(rows))
    assert str(info.value) == message


def test_diagonal_matrix_decomposition():
    model = svd_decompose(DataMatrix(np.diag([2.0, 1.0])), 0.95, anchor_index=0)
    np.testing.assert_allclose(model.singular_values, [2.0, 1.0], atol=1e-12)
    # Anchor row (2, 0) fixes the first direction to +e1; the second has zero
    # anchor overlap so only its axis is determined.
    np.testing.assert_allclose(model.right_vectors[:, 0], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(model.right_vectors[:, 1]), [0.0, 1.0], atol=1e-12)


def test_two_identical_rows():
    model = svd_decompose(DataMatrix(np.array([[1.0, 0.0], [1.0, 0.0]])), 0.95, 0)
    np.testing.assert_allclose(model.singular_values, [np.sqrt(2.0), 0.0], atol=1e-12)
    np.testing.assert_allclose(model.right_vectors[:, 0], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(model.variance_proportions, [1.0, 0.0], atol=1e-12)
    assert model.rank == 1
    # Only the principal direction is kept, so it is all a projection can use.
    assert model.right_vectors.shape == (2, 1)
    with pytest.raises(OutOfRangeError, match=r"target dimension 2 out of range \[1, 1\]"):
        project(DataMatrix(np.array([[1.0, 0.0], [1.0, 0.0]])), model, 2)


def test_reconstruction_and_jacobi_cross_check_seed7():
    rng = np.random.default_rng(7)
    data = DataMatrix(rng.standard_normal((8, 8)))
    model = svd_decompose(data, 1.0, 0)
    recon = model.left_vectors @ np.diag(model.singular_values) @ model.right_vectors.T
    assert np.linalg.norm(data.values - recon) <= 1e-10 * data.frobenius_norm

    # Independent eigensolver on the Gram matrix: eigenvalues must match the
    # squared singular values.
    evals, _ = jacobi_eigh(data.values.T @ data.values)
    np.testing.assert_allclose(
        model.singular_values**2, evals, atol=1e-8 * model.singular_values[0] ** 2
    )


def test_dimension_selection_stated_spectrum():
    data = dataset_from_spectrum([0.90, 0.08, 0.02], n_rows=12, seed=2)
    model = svd_decompose(data, 0.95, 0)
    assert model.selected_dim == 2
    assert svd_decompose(data, 0.90, 0).selected_dim == 1
    assert svd_decompose(data, 0.99, 0).selected_dim == 3
    # Rank-1 spectrum selects 1 at any threshold.
    rank1 = svd_decompose(DataMatrix(np.array([[1.0, 0.0], [2.0, 0.0]])), 0.95, 0)
    assert rank1.selected_dim == 1


def test_threshold_one_selects_rank():
    data = rank_k_dataset(16, 8, 2, seed=5)
    model = svd_decompose(data, 1.0, 0)
    assert model.selected_dim == 2 == model.rank
    noisy = rank_k_plus_noise(16, 8, 2, seed=5, noise_fraction=0.01)
    noisy_model = svd_decompose(noisy, 1.0, 0)
    assert noisy_model.selected_dim == noisy_model.rank == 8


def test_selection_properties_random_spectra():
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        k = int(rng.integers(1, 6))
        lam = np.sort(rng.dirichlet(np.ones(k)))[::-1]
        theta = float(rng.uniform(0.05, 1.0))
        data = dataset_from_spectrum(lam, n_rows=10, seed=seed, n_cols=max(k, 3))
        model = svd_decompose(data, theta, 0)
        cum = model.cumulative_variance()
        d = model.selected_dim
        assert cum[d - 1] >= theta
        if d > 1:
            assert cum[d - 2] < theta
        # Raising the threshold never shrinks the selection.
        assert svd_decompose(data, min(1.0, theta + 0.04), 0).selected_dim >= d


def _random_and_rank_deficient_matrices():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        d = int(rng.integers(2, 9))
        yield DataMatrix(rng.standard_normal((n, d))), int(rng.integers(n))
    yield rank_k_dataset(256, 64, 4, seed=1), 7
    yield rank_k_dataset(5, 12, 3, seed=2), 4
    yield DataMatrix(np.ones((3, 5))), 1


def test_model_invariants_random_matrices():
    for data, anchor_index in _random_and_rank_deficient_matrices():
        n, d = data.n_rows, data.n_cols
        model = svd_decompose(data, 0.95, anchor_index=anchor_index)
        sig = model.singular_values
        assert sig.shape == (d,)
        assert np.all(np.diff(sig) <= 1e-12)
        assert abs(model.variance_proportions.sum() - 1.0) <= 1e-12
        # Only the principal directions are kept: one orthonormal column per
        # nonzero singular value, no completion past the rank.
        rank = model.rank
        assert model.right_vectors.shape == (d, rank)
        assert model.left_vectors.shape == (n, rank)
        np.testing.assert_allclose(model.right_vectors.T @ model.right_vectors, np.eye(rank), atol=1e-13)
        np.testing.assert_allclose(model.left_vectors.T @ model.left_vectors, np.eye(rank), atol=1e-10)
        # They are the SVD's own up to the anchor signs, and the same on
        # every call.
        vt = np.linalg.svd(data.values, full_matrices=False)[2]
        assert np.array_equal(np.abs(model.right_vectors), np.abs(vt[:rank].T))
        again = svd_decompose(data, 0.95, anchor_index=anchor_index)
        assert np.array_equal(again.right_vectors, model.right_vectors)
        # Sign convention: nonnegative anchor overlap on every kept direction.
        anchor = data.values[model.anchor_index]
        assert np.all(model.right_vectors.T @ anchor >= -1e-10)
        # The explicit-circuit reference completes the basis: orthogonal on
        # the padded feature register, the eigenvectors first, the identity
        # past the features, and the same on every call.
        rho = RhoSpec.from_model(model)
        padded = 1 << ceil_log2(d)
        basis = _padded_eigenbasis(rho, padded)
        np.testing.assert_allclose(basis.T @ basis, np.eye(padded), atol=1e-13)
        assert np.array_equal(basis[:d, :rank], model.right_vectors)
        assert np.array_equal(basis[d:], np.eye(padded)[d:])
        assert np.array_equal(_padded_eigenbasis(RhoSpec.from_model(again), padded), basis)


@pytest.mark.parametrize(
    "shape", [(256, 64), (1024, 8), (64, 16), (5, 12), (3, 9), (16, 8), (2048, 256)]
)
def test_with_anchor_matches_a_decomposition_anchored_there(shape):
    # Re-signing one decomposition gives the same bits as decomposing
    # with that anchor, for full-rank and rank-deficient data alike.
    n, d = shape
    rng = np.random.default_rng(n + d)
    for data in (DataMatrix(rng.standard_normal(shape)), rank_k_dataset(n, d, min(3, n, d), seed=d)):
        base = svd_decompose(data, 0.9, 0)
        for k in sorted({0, 1, n // 2, n - 1}):
            want = svd_decompose(data, 0.9, k)
            got = base.with_anchor(data, k)
            assert got.anchor_index == k
            assert np.array_equal(got.right_vectors, want.right_vectors)
            assert np.array_equal(got.left_vectors, want.left_vectors)
            assert np.array_equal(got.singular_values, want.singular_values)
            assert got.selected_dim == want.selected_dim
    with pytest.raises(OutOfRangeError, match=f"anchor index {n} out of range for {n} rows"):
        base.with_anchor(data, n)


def test_tall_decomposition_builds_no_row_by_row_matrix():
    # A full SVD of 4096 x 8 data allocates a 4096 x 4096 U (128 MiB); the
    # thin SVD keeps every allocation near the size of the data.
    data = DataMatrix(np.random.default_rng(5).standard_normal((4096, 8)))
    tracemalloc.start()
    try:
        model = svd_decompose(data, 0.95, anchor_index=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.left_vectors.shape == (4096, 8)
    assert peak < 16 * 2**20


def test_wide_decomposition_builds_no_feature_by_feature_matrix():
    # Completing the principal directions of 64 x 4096 data to a 4096 x 4096
    # basis takes 128 MiB per copy, and its QR several copies; the thin
    # decomposition keeps every allocation near the size of the data.
    data = rank_k_dataset(64, 4096, 4, seed=1)
    tracemalloc.start()
    try:
        model = svd_decompose(data, 0.95, anchor_index=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.right_vectors.shape == (4096, 4)
    assert model.left_vectors.shape == (64, 4)
    assert peak < 16 * 2**20


def test_projection_diagonal_case():
    data = DataMatrix(np.diag([2.0, 1.0]))
    model = svd_decompose(data, 0.5, 0)
    assert model.selected_dim == 1
    y = project(data, model)
    np.testing.assert_allclose(y.values, [[2.0], [0.0]], atol=1e-12)


def test_projection_rank2_product_seed3():
    rng = np.random.default_rng(3)
    data = DataMatrix(rng.standard_normal((16, 2)) @ rng.standard_normal((2, 8)))
    model = svd_decompose(data, 0.95, 0)
    assert model.selected_dim == 2
    y = project(data, model)
    assert abs(y.frobenius_norm - data.frobenius_norm) <= 1e-10
    # Row i of Y equals V_d^T x_i.
    expected = data.values @ model.right_vectors[:, :2]
    np.testing.assert_allclose(y.values, expected, atol=1e-12)


def test_projection_full_dimension_preserves_row_norms():
    rng = np.random.default_rng(21)
    data = DataMatrix(rng.standard_normal((6, 4)))
    model = svd_decompose(data, 1.0, 0)
    y = project(data, model, dim=4)
    np.testing.assert_allclose(
        np.linalg.norm(y.values, axis=1), np.linalg.norm(data.values, axis=1), atol=1e-10
    )


def test_projection_energy_identity():
    for seed in range(20):
        data = rank_k_dataset(12, 6, 3, seed=seed)
        model = svd_decompose(data, 0.7, 0)
        y = project(data, model)
        kept = np.sum(model.singular_values[: model.selected_dim] ** 2)
        assert abs(y.frobenius_norm**2 - kept) <= 1e-10 * max(kept, 1.0)


def test_projection_idempotence():
    for seed in range(20):
        data = rank_k_dataset(16, 8, 3, seed=seed)
        model = svd_decompose(data, 0.95, 0)
        y = project(data, model)
        again = project(DataMatrix(y.values), svd_decompose(DataMatrix(y.values), 0.95, 0))
        np.testing.assert_allclose(again.values, y.values, atol=1e-8)


def test_expected_state_single_entry():
    y = CompressedMatrix(values=np.array([[1.0]]), source_shape=(1, 1), selected_dim=1)
    state = expected_compressed_state(y)
    assert state.basis_amplitude({"row": 0, "index": 1}) == pytest.approx(1.0)


def test_expected_state_identity_pair():
    y = CompressedMatrix(values=np.eye(2), source_shape=(2, 2), selected_dim=2)
    state = expected_compressed_state(y)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    assert state.basis_amplitude({"row": 0, "index": 1}) == pytest.approx(inv_sqrt2)
    assert state.basis_amplitude({"row": 1, "index": 2}) == pytest.approx(inv_sqrt2)
    assert state.basis_amplitude({"row": 0, "index": 2}) == pytest.approx(0.0)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_expected_state_normalization_rank2():
    data = rank_k_dataset(16, 8, 2, seed=9)
    model = svd_decompose(data, 0.95, 0)
    y = project(data, model)
    state = expected_compressed_state(y)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    # Label 0 on the index register is unused.
    marginal = state.probabilities("index")
    assert marginal[0] == pytest.approx(0.0, abs=1e-15)


def test_expected_row_state_matches_row():
    data = rank_k_dataset(8, 4, 2, seed=4)
    model = svd_decompose(data, 0.95, 0)
    y = project(data, model)
    row = 3
    state = expected_row_state(y, row)
    want = y.values[row] / np.linalg.norm(y.values[row])
    for j, amp in enumerate(want, start=1):
        assert state.basis_amplitude({"index": j}) == pytest.approx(amp, abs=1e-12)


def test_pairwise_overlap_exact_rank_is_lossless():
    data = rank_k_dataset(12, 6, 2, seed=13)
    model = svd_decompose(data, 0.95, 0)
    report = pairwise_overlap_report(data, project(data, model), tolerance=1e-9)
    assert report.max_deviation <= 1e-10
    assert report.fraction_within == 1.0
    assert report.flagged_rows == ()


def test_pairwise_overlap_full_dimension_is_lossless():
    rng = np.random.default_rng(31)
    data = DataMatrix(rng.standard_normal((8, 4)))
    model = svd_decompose(data, 1.0, 0)
    report = pairwise_overlap_report(data, project(data, model), tolerance=1e-9)
    assert report.max_deviation <= 1e-10


def test_pairwise_overlap_noisy_data_recorded():
    # Seed 26 gives signal rows of comparable norm, so no row is swamped by
    # the 1% noise floor. Observed max deviation 2.25e-4 against residual
    # variance 5.1e-5; frozen with headroom as a regression threshold.
    data = rank_k_plus_noise(16, 8, 2, seed=26, noise_fraction=0.01)
    model = svd_decompose(data, 0.95, 0)
    assert model.selected_dim == 2
    report = pairwise_overlap_report(data, project(data, model), tolerance=1e-3)
    residual = 1.0 - model.variance_captured
    assert report.max_deviation <= 10.0 * residual
    assert report.max_deviation <= 3.0e-4
    assert report.n_pairs == 16 * 15 // 2


def test_pairwise_overlap_flags_zero_norm_rows():
    # Third row lives entirely outside the kept 2-dimensional span.
    data = DataMatrix(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 0.1]]))
    model = svd_decompose(data, 0.95, 0)
    assert model.selected_dim == 2
    report = pairwise_overlap_report(data, project(data, model), tolerance=1e-6)
    assert 2 in report.flagged_rows


def _triu_reference(data, compressed, tolerance):
    """The overlap report's fields as a gather over ``np.triu_indices``."""
    x = data.values / np.linalg.norm(data.values, axis=1, keepdims=True)
    y_norms = compressed.row_norms
    ok = y_norms > 0.0
    y = np.zeros_like(compressed.values)
    y[ok] = compressed.values[ok] / y_norms[ok, None]
    i1, i2 = np.triu_indices(data.n_rows, k=1)
    devs = np.abs((y @ y.T)[i1, i2] - (x @ x.T)[i1, i2])[ok[i1] & ok[i2]]
    return {
        "deviations": devs,
        "n_pairs": devs.size,
        "tolerance": float(tolerance),
        "fraction_within": float(np.mean(devs <= tolerance)) if devs.size else 1.0,
        "max_deviation": float(devs.max()) if devs.size else 0.0,
        "mean_deviation": float(devs.mean()) if devs.size else 0.0,
        "flagged_rows": tuple(int(i) for i in np.nonzero(y_norms == 0.0)[0]),
    }


def _projected(data, threshold):
    return data, project(data, svd_decompose(data, threshold, 0))


def _signs(n_rows, zero_rows=()):
    """Rows of +-1 in 16 columns and compressed rows of +-1 in 4 columns,
    with the compressed rows ``zero_rows`` set to zero (flagged, and left out
    of the pairs). The unit rows are +-1/4 and +-1/2, so every inner product
    is a sum of multiples of 1/16 and exact in any summation order: the
    comparison checks which pairs the blocks read and in what order, not
    how a BLAS kernel rounds."""
    rng = np.random.default_rng(n_rows)
    data = DataMatrix(rng.choice([-1.0, 1.0], size=(n_rows, 16)))
    values = rng.choice([-1.0, 1.0], size=(n_rows, 4))
    values[list(zero_rows)] = 0.0
    return data, CompressedMatrix(values, (n_rows, 16), 4)


B = OVERLAP_BLOCK_ROWS


@pytest.mark.parametrize(
    "data, compressed",
    [
        _projected(DataMatrix(np.array([[1.0, -2.0, 0.5]])), 0.95),
        _projected(DataMatrix(np.array([[1.0, 2.0], [3.0, -1.0]])), 0.5),
        _projected(rank_k_dataset(12, 6, 2, seed=13), 0.95),
        _projected(DataMatrix(np.random.default_rng(64).standard_normal((256, 64))), 0.5),
        _projected(
            DataMatrix(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 0.1], [2.0, 1.0, 0], [0, 0, 0.05]])), 0.95
        ),
        _signs(B - 1),
        _signs(B),
        _signs(B + 1),
        _signs(2 * B + 1),
        _signs(2 * B + 1, zero_rows=(0, 5)),
        _signs(2 * B + 1, zero_rows=(2 * B - 1, 2 * B)),
        _signs(2 * B + 1, zero_rows=(B - 1, B)),
        _signs(B + 1, zero_rows=(B,)),
        _signs(3, zero_rows=(0, 1, 2)),
        _signs(4, zero_rows=(0, 2, 3)),
        _signs(2 * B + 3, zero_rows=(1, 2, 3)),
    ],
    ids=[
        "1x3",
        "2x2",
        "12x6-rank2",
        "256x64",
        "zero-norm-rows",
        "block-minus-1",
        "one-block",
        "block-plus-1",
        "two-blocks-plus-1",
        "zero-rows-first-block",
        "zero-rows-last-block",
        "zero-rows-on-block-boundary",
        "zero-row-alone-in-last-block",
        "every-row-flagged",
        "one-unflagged-row",
        "flagged-rows-leave-two-whole-blocks",
    ],
)
def test_pairwise_overlap_matches_the_triu_gather(data, compressed):
    # The lazily built deviations read the upper triangle row by row, in the
    # order i1 < i2 that triu_indices gives, so they and every statistic but
    # the mean agree bit for bit. Up to OVERLAP_BLOCK_ROWS rows the audit is
    # one block, the same products as the full Gram matrices.
    report = pairwise_overlap_report(data, compressed, tolerance=1e-6)
    want = _triu_reference(data, compressed, 1e-6)
    assert report.deviations.dtype == want["deviations"].dtype
    assert np.array_equal(report.deviations, want["deviations"])
    for name in ("tolerance", "fraction_within", "max_deviation", "n_pairs", "flagged_rows"):
        assert getattr(report, name) == want[name], name
        assert type(getattr(report, name)) is type(want[name]), name
    # The mean sums the same deviations slab by slab, the reference in one
    # pass: two orders of a sum of nonnegative terms, seen at most 0.8 eps
    # apart (relative) on 129 to 1024 x 16 and 256 x 64, held to 4 eps.
    # When every deviation is a multiple of 1/16 (the +-1 cases), every
    # partial sum is exact and the two agree bit for bit.
    assert type(report.mean_deviation) is float
    if np.array_equal(want["deviations"] * 16.0, np.round(want["deviations"] * 16.0)):
        assert report.mean_deviation == want["mean_deviation"]
    else:
        assert abs(report.mean_deviation - want["mean_deviation"]) <= 4 * np.finfo(float).eps * want["mean_deviation"]


@pytest.mark.parametrize("n_rows", [B + 1, 2 * B + 1, 3 * B + 5])
def test_pairwise_overlap_blocks_round_like_the_full_product(n_rows):
    # Past one block, a block entry and the same entry of the full Gram
    # matrix are one dot product, but BLAS may sum it in another order (its
    # edge kernels for the trailing columns differ between the symmetric
    # and the general product), so on general data they agree to the
    # summation error of a unit-row dot product: d * eps per Gram entry.
    data = DataMatrix(np.random.default_rng(n_rows).standard_normal((n_rows, 16)))
    compressed = project(data, svd_decompose(data, 1.0, 0), 4)
    report = pairwise_overlap_report(data, compressed, tolerance=1e-6)
    want = _triu_reference(data, compressed, 1e-6)
    bound = (16 + 4) * np.finfo(float).eps
    assert report.deviations.size == want["deviations"].size == n_rows * (n_rows - 1) // 2
    assert np.max(np.abs(report.deviations - want["deviations"])) <= bound
    assert abs(report.mean_deviation - want["mean_deviation"]) <= bound
    assert abs(report.max_deviation - want["max_deviation"]) <= bound


def test_pairwise_overlap_memory_is_two_slabs_and_the_unit_rows():
    # 4096 rows: one block x 4096 slab takes 4 MiB, and the audit holds two
    # (the two products), reduced where they stand. Tolerance 0 counts the
    # entries over it in every block, a bool slab more. The 8.4 million
    # pairs' deviations (64 MiB) and the two full 4096 x 4096 Gram matrices
    # (256 MiB) are never built.
    data = rank_k_dataset(4096, 16, 4, 1)
    compressed = project(data, svd_decompose(data, 0.95, 0))
    unit_rows = data.values.nbytes + compressed.values.nbytes
    for tolerance in (1e-6, 0.0):
        tracemalloc.start()
        try:
            report = pairwise_overlap_report(data, compressed, tolerance)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.n_pairs == 4096 * 4095 // 2
        assert (report.fraction_within < 1.0) is (tolerance == 0.0)
        assert peak < 2.25 * B * 4096 * 8 + unit_rows, tolerance


def test_pairwise_overlap_refuses_a_negative_tolerance():
    data = rank_k_dataset(8, 4, 2, 1)
    with pytest.raises(OutOfRangeError, match="nonnegative"):
        pairwise_overlap_report(data, project(data, svd_decompose(data, 0.95, 0)), tolerance=-1e-6)


def test_run_compression_never_builds_the_pair_array(monkeypatch):
    def refuse(x, y):
        raise AssertionError("the per-pair deviations were built")

    monkeypatch.setattr(pca_oracle, "_pair_deviations", refuse)
    run = run_compression(rank_k_dataset(300, 6, 3, seed=7), seed=3)
    assert run.result.report.overlap.n_pairs == 300 * 299 // 2

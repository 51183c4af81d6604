"""Tests for the classical spectral oracle."""

import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from qpcasim import cli, pca_oracle
from qpcasim.datasets import dataset_from_spectrum, rank_k_dataset, rank_k_plus_noise
from qpcasim.errors import InvalidInputError, OutOfRangeError, QpcaError
from qpcasim.pca_oracle import (
    OVERLAP_BLOCK_ROWS,
    DataMatrix,
    expected_compressed_state,
    pairwise_overlap_report,
    project,
    svd_decompose,
)
from qpcasim.qpca_pipeline import run_compression
from qpcasim.statevector import ceil_log2
from qpcasim.sv_engine import _padded_eigenbasis

from oracles import anchor_state, jacobi_eigh, signed_left_vectors


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


@pytest.mark.parametrize(
    "values",
    [rank_k_dataset(64, 16, 4, seed=1).values, rank_k_plus_noise(37, 5, 2, seed=3).values, [[3.0, 4.0]]],
    ids=["64x16", "37x5-noisy", "1x2"],
)
def test_frobenius_norm_is_the_construction_total(monkeypatch, values):
    # The construction check's total is kept: bit for bit
    # ``np.linalg.norm(values)``, and a read takes no norm.
    data = DataMatrix(values)
    want = float(np.linalg.norm(data.values))
    monkeypatch.setattr(np.linalg, "norm", lambda *args, **kwargs: pytest.fail("frobenius_norm took a norm"))
    assert data.frobenius_norm == want
    assert type(data.frobenius_norm) is float


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
    model = svd_decompose(DataMatrix(np.diag([2.0, 1.0])), 0.95)
    np.testing.assert_allclose(model.singular_values, [2.0, 1.0], atol=1e-12)
    # Anchor row (2, 0) fixes the first direction to +e1; the second has zero
    # anchor overlap so only its axis is determined.
    np.testing.assert_allclose(model.right_vectors[:, 0], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(model.right_vectors[:, 1]), [0.0, 1.0], atol=1e-12)


def test_two_identical_rows():
    model = svd_decompose(DataMatrix(np.array([[1.0, 0.0], [1.0, 0.0]])), 0.95)
    np.testing.assert_allclose(model.singular_values, [np.sqrt(2.0), 0.0], atol=1e-12)
    np.testing.assert_allclose(model.right_vectors[:, 0], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(model.variance_proportions, [1.0, 0.0], atol=1e-12)
    assert model.rank == 1
    # Only the principal direction is kept, so it is all a projection can use.
    assert model.right_vectors.shape == (2, 1)
    assert model.selected_dim == 1


def test_reconstruction_and_jacobi_cross_check_seed7():
    rng = np.random.default_rng(7)
    data = DataMatrix(rng.standard_normal((8, 8)))
    model = svd_decompose(data, 1.0)
    u = signed_left_vectors(data.values, model.right_vectors)
    recon = u @ np.diag(model.singular_values) @ model.right_vectors.T
    assert np.linalg.norm(data.values - recon) <= 1e-10 * data.frobenius_norm

    # Independent eigensolver on the Gram matrix: eigenvalues must match the
    # squared singular values.
    evals, _ = jacobi_eigh(data.values.T @ data.values)
    np.testing.assert_allclose(
        model.singular_values**2, evals, atol=1e-8 * model.singular_values[0] ** 2
    )


def test_dimension_selection_stated_spectrum():
    data = dataset_from_spectrum([0.90, 0.08, 0.02], n_rows=12, seed=2)
    model = svd_decompose(data, 0.95)
    assert model.selected_dim == 2
    assert svd_decompose(data, 0.90).selected_dim == 1
    assert svd_decompose(data, 0.99).selected_dim == 3
    # Rank-1 spectrum selects 1 at any threshold.
    rank1 = svd_decompose(DataMatrix(np.array([[1.0, 0.0], [2.0, 0.0]])), 0.95)
    assert rank1.selected_dim == 1


def test_threshold_one_selects_rank():
    data = rank_k_dataset(16, 8, 2, seed=5)
    model = svd_decompose(data, 1.0)
    assert model.selected_dim == 2 == model.rank
    noisy = rank_k_plus_noise(16, 8, 2, seed=5, noise_fraction=0.01)
    noisy_model = svd_decompose(noisy, 1.0)
    assert noisy_model.selected_dim == noisy_model.rank == 8


def test_selection_properties_random_spectra():
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        k = int(rng.integers(1, 6))
        lam = np.sort(rng.dirichlet(np.ones(k)))[::-1]
        theta = float(rng.uniform(0.05, 1.0))
        data = dataset_from_spectrum(lam, n_rows=10, seed=seed, n_cols=max(k, 3))
        model = svd_decompose(data, theta)
        cum = model.cumulative_variance()
        d = model.selected_dim
        assert cum[d - 1] >= theta
        if d > 1:
            assert cum[d - 2] < theta
        # Raising the threshold never shrinks the selection.
        assert svd_decompose(data, min(1.0, theta + 0.04)).selected_dim >= d


def _random_and_rank_deficient_matrices():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        d = int(rng.integers(2, 9))
        yield DataMatrix(rng.standard_normal((n, d))), int(rng.integers(n))
    yield rank_k_dataset(256, 64, 4, seed=1), 7
    yield rank_k_dataset(5, 12, 3, seed=2), 4
    yield DataMatrix(np.ones((3, 5))), 1


def _unsigned_decomposition(data):
    """(singular values, right vectors as rows, certified) that
    ``svd_decompose`` starts from: the certified sketch's when it is tried
    and accepted, else LAPACK's thin SVD."""
    if pca_oracle.LOW_RANK_BLOCK <= min(data.n_rows, data.n_cols) // 4:
        leading = pca_oracle._certified_leading_svd(data.values)
        if leading is not None:
            return (*leading, True)
    _, s, vt = np.linalg.svd(data.values, full_matrices=False)
    return s, vt, False


def _full_svd_model(data, threshold, monkeypatch):
    """The model ``svd_decompose`` builds with the sketch never tried: the
    full thin SVD's, as before the certified path existed."""
    with monkeypatch.context() as patch:
        patch.setattr(pca_oracle, "LOW_RANK_BLOCK", 1 << 62)
        return svd_decompose(data, threshold)


# Certified singular values lie within this fraction of sigma_max of
# LAPACK's, and each certified direction's overlap with LAPACK's is at
# least 1 minus it (the certificate's own bounds, see
# ``pca_oracle._certified_leading_svd``).
CERTIFIED_TOL = 1e-12


def _assert_certified_matches_lapack(data, model):
    s, vt = np.linalg.svd(data.values, full_matrices=False)[1:]
    rank = model.rank
    assert np.max(np.abs(model.singular_values[: s.size] - s)) <= CERTIFIED_TOL * s[0]
    overlaps = np.abs(np.sum(model.right_vectors * vt[:rank].T, axis=0))
    assert np.all(overlaps >= 1.0 - CERTIFIED_TOL), overlaps


def test_model_invariants_random_matrices():
    for data, anchor_index in _random_and_rank_deficient_matrices():
        n, d = data.n_rows, data.n_cols
        model = svd_decompose(data, 0.95)
        assert model.n_rows == n
        sig = model.singular_values
        assert sig.shape == (d,)
        assert np.all(np.diff(sig) <= 1e-12)
        assert abs(model.variance_proportions.sum() - 1.0) <= 1e-12
        # Only the principal directions are kept: one orthonormal column per
        # nonzero singular value, no completion past the rank.
        rank = model.rank
        assert model.right_vectors.shape == (d, rank)
        np.testing.assert_allclose(model.right_vectors.T @ model.right_vectors, np.eye(rank), atol=1e-13)
        # They are the decomposition's own up to signs, and the same on
        # every call: LAPACK's bits on the full-SVD path, and within the
        # certificate's bound of them on the certified one.
        vt, certified = _unsigned_decomposition(data)[1:]
        assert np.array_equal(np.abs(model.right_vectors), np.abs(vt[:rank].T))
        if certified:
            _assert_certified_matches_lapack(data, model)
        again = svd_decompose(data, 0.95)
        assert np.array_equal(again.right_vectors, model.right_vectors)
        # Sign convention: nonnegative row-0 overlap on every kept direction,
        # and the signs of the anchor's overlaps make them nonnegative too.
        assert np.all(model.right_vectors.T @ data.values[0] >= -1e-10)
        signs = pca_oracle._overlap_signs(model.overlaps(data, anchor_index, rank))
        assert set(signs.tolist()) <= {-1.0, 1.0}
        assert np.all((model.right_vectors * signs).T @ data.values[anchor_index] >= -1e-10)
        # The explicit-circuit reference completes the basis: orthogonal on
        # the padded feature register, the eigenvectors first, the identity
        # past the features, and the same on every call.
        padded = 1 << ceil_log2(d)
        basis = _padded_eigenbasis(model, padded)
        np.testing.assert_allclose(basis.T @ basis, np.eye(padded), atol=1e-13)
        assert np.array_equal(basis[:d, :rank], model.right_vectors)
        assert np.array_equal(basis[d:], np.eye(padded)[d:])
        assert np.array_equal(_padded_eigenbasis(again, padded), basis)


@pytest.mark.parametrize(
    "shape", [(256, 64), (1024, 8), (64, 16), (5, 12), (3, 9), (16, 8), (2048, 256)]
)
def test_with_anchor_matches_a_decomposition_anchored_there(shape):
    # The row-0 decomposition flipped by the signs of row k's overlaps gives
    # the same bits as signing the decomposition's own vectors against row
    # k, for full-rank and rank-deficient data alike; for k = 0 the signs
    # are all +1. Those vectors are LAPACK's thin SVD's, or, for the
    # rank-3 data at 256x64 and 2048x256, the certified sketch's, which lie
    # within CERTIFIED_TOL of LAPACK's.
    n, d = shape
    rng = np.random.default_rng(n + d)
    for data in (DataMatrix(rng.standard_normal(shape)), rank_k_dataset(n, d, min(3, n, d), seed=d)):
        base = svd_decompose(data, 0.9)
        vt, certified = _unsigned_decomposition(data)[1:]
        assert certified == (min(shape) >= 32 and base.rank == 3)
        if certified:
            _assert_certified_matches_lapack(data, base)
        v = vt[: base.rank].T
        for k in sorted({0, 1, n // 2, n - 1}):
            want = v * np.where(data.values[k] @ v < 0.0, -1.0, 1.0)
            signs = pca_oracle._overlap_signs(base.overlaps(data, k, base.rank))
            assert np.array_equal(base.right_vectors * signs, want)
            if k == 0:
                assert np.array_equal(base.right_vectors, want)
                assert np.all(signs == 1.0)


GOLDEN_INPUTS = sorted((Path(__file__).resolve().parent / "golden" / "inputs").glob("*.csv"))


@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda path: path.name)
def test_overlaps_are_the_padded_row_state_product_bit_for_bit(path):
    # Every row of every golden input that loads, at three thresholds, at
    # the kept width and at the rank: the overlaps formed from the row and
    # its kept norm are the bits of V^T times the padded row state, the
    # product the explicit circuit's anchor state gives.
    try:
        data = cli.ingest_csv(str(path))
    except QpcaError:
        return
    for theta in (0.9, 0.95, 1.0):
        model = svd_decompose(data, theta)
        for k in sorted({model.selected_dim, model.rank}):
            vectors = model.right_vectors[:, :k].T
            for i in range(data.n_rows):
                state = anchor_state(data, i)
                want = vectors @ state.amplitudes[: data.n_cols]
                assert np.array_equal(model.overlaps(data, i, k), want), (theta, k, i)


def test_tall_decomposition_builds_no_row_by_row_matrix():
    # A full SVD of 4096 x 8 data allocates a 4096 x 4096 U (128 MiB); the
    # thin SVD keeps every allocation near the size of the data.
    data = DataMatrix(np.random.default_rng(5).standard_normal((4096, 8)))
    tracemalloc.start()
    try:
        model = svd_decompose(data, 0.95)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.n_rows == 4096
    assert model.right_vectors.shape == (8, 8)
    assert peak < 16 * 2**20


def test_wide_decomposition_builds_no_feature_by_feature_matrix():
    # Completing the principal directions of 64 x 4096 data to a 4096 x 4096
    # basis takes 128 MiB per copy, and its QR several copies; the thin
    # decomposition keeps every allocation near the size of the data.
    data = rank_k_dataset(64, 4096, 4, seed=1)
    tracemalloc.start()
    try:
        model = svd_decompose(data, 0.95)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.right_vectors.shape == (4096, 4)
    assert model.n_rows == 64
    assert peak < 16 * 2**20


def _stated_singular_values(n, d, sigma, seed):
    """An n x d DataMatrix whose singular values are ``sigma``, between
    random orthonormal bases."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((n, len(sigma))))[0]
    v = np.linalg.qr(rng.standard_normal((d, len(sigma))))[0]
    return DataMatrix((u * np.asarray(sigma)) @ v.T)


def _certified_cases():
    """Seeded rank-r data, r from 1 to 7, with min(N, D) >= 32, fewer rows
    than columns and more, integer data among it."""
    shapes = [(32, 200), (200, 32), (64, 48), (48, 64), (256, 64), (40, 1000), (1000, 40), (128, 128)]
    for seed, (n, d) in enumerate(shapes):
        rank = 1 + seed % 7
        yield f"rank{rank}-{n}x{d}", rank_k_dataset(n, d, rank, seed=seed)
    rng = np.random.default_rng(17)
    for rank, (n, d) in zip((2, 5, 7), [(96, 33), (33, 96), (64, 64)]):
        ints = rng.integers(-9, 10, (n, rank)) @ rng.integers(-9, 10, (rank, d))
        yield f"integer-rank{rank}-{n}x{d}", DataMatrix(ints.astype(np.float64))


@pytest.mark.parametrize("data", [pytest.param(data, id=name) for name, data in _certified_cases()])
def test_certified_spectrum_matches_the_full_svd(data, monkeypatch):
    # The sketch's model has the full SVD's rank, kept dimension and signs;
    # its values and directions agree to the certificate's bound.
    assert _unsigned_decomposition(data)[2]
    for theta in (0.9, 1.0):
        model = svd_decompose(data, theta)
        full = _full_svd_model(data, theta, monkeypatch)
        assert (model.rank, model.selected_dim) == (full.rank, full.selected_dim)
        _assert_certified_matches_lapack(data, model)
        # Both are signed against row 0, so matching directions overlap by +1.
        assert np.all(np.sum(model.right_vectors * full.right_vectors, axis=0) >= 1.0 - CERTIFIED_TOL)
        assert np.max(np.abs(model.variance_proportions - full.variance_proportions)) <= CERTIFIED_TOL


def _fallback_cases():
    yield "noisy", rank_k_plus_noise(64, 48, 3, seed=3, noise_fraction=0.05)
    yield "rank-at-block", rank_k_dataset(64, 48, pca_oracle.LOW_RANK_BLOCK, seed=3)
    # A relative gap of 3e-9 leaves the pair's directions unfixed.
    yield "near-degenerate-pair", _stated_singular_values(64, 48, [3.0, 2.0, 2.0 - 1e-8, 1.0], seed=3)
    # Forty values at half the cutoff: the full SVD zeroes each, but their
    # residual, over 3 cutoffs, is more than the certificate accepts.
    yield "sub-cutoff-tail", _stated_singular_values(64, 48, [3.0, 2.0, 1.0] + [1.5e-12] * 40, seed=3)


@pytest.mark.parametrize("data", [pytest.param(data, id=name) for name, data in _fallback_cases()])
def test_uncertified_data_takes_the_full_svd_bit_for_bit(data, monkeypatch):
    assert pca_oracle._certified_leading_svd(data.values) is None
    model = svd_decompose(data, 0.95)
    full = _full_svd_model(data, 0.95, monkeypatch)
    for f in fields(model):
        assert np.array_equal(getattr(model, f.name), getattr(full, f.name)), f.name


@pytest.mark.parametrize("shape", [(31, 1000), (1000, 31), (8, 4096)])
def test_data_under_four_blocks_on_a_side_never_tries_the_sketch(shape, monkeypatch):
    def refuse(x):
        raise AssertionError("the sketch was tried")

    monkeypatch.setattr(pca_oracle, "_certified_leading_svd", refuse)
    model = svd_decompose(rank_k_dataset(*shape, 3, seed=2), 0.95)
    assert model.rank == 3


def test_certified_decomposition_stays_near_the_size_of_the_data():
    # 256 x 16384 rank-4 data is 32 MiB. LAPACK's thin SVD allocates a
    # 256 x 16384 V^T and its workspace (a 33 MiB traced peak); the sketch
    # allocates D x 8 blocks and one 2 MiB residual block (4 MiB).
    data = rank_k_dataset(256, 16384, 4, seed=1)
    tracemalloc.start()
    try:
        model = svd_decompose(data, 0.95)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.rank == 4
    assert peak < data.values.nbytes / 4


def test_projection_diagonal_case():
    data = DataMatrix(np.diag([2.0, 1.0]))
    model = svd_decompose(data, 0.5)
    assert model.selected_dim == 1
    y = project(data, model)
    np.testing.assert_allclose(y, [[2.0], [0.0]], atol=1e-12)


def test_projection_rank2_product_seed3():
    rng = np.random.default_rng(3)
    data = DataMatrix(rng.standard_normal((16, 2)) @ rng.standard_normal((2, 8)))
    model = svd_decompose(data, 0.95)
    assert model.selected_dim == 2
    y = project(data, model)
    assert abs(np.linalg.norm(y) - data.frobenius_norm) <= 1e-10
    # Row i of Y equals V_d^T x_i.
    expected = data.values @ model.right_vectors[:, :2]
    np.testing.assert_allclose(y, expected, atol=1e-12)


def test_projection_full_dimension_preserves_row_norms():
    rng = np.random.default_rng(21)
    data = DataMatrix(rng.standard_normal((6, 4)))
    model = svd_decompose(data, 1.0)
    assert model.selected_dim == 4
    y = project(data, model)
    np.testing.assert_allclose(
        np.linalg.norm(y, axis=1), np.linalg.norm(data.values, axis=1), atol=1e-10
    )


def test_projection_energy_identity():
    for seed in range(20):
        data = rank_k_dataset(12, 6, 3, seed=seed)
        model = svd_decompose(data, 0.7)
        y = project(data, model)
        kept = np.sum(model.singular_values[: model.selected_dim] ** 2)
        assert abs(np.linalg.norm(y) ** 2 - kept) <= 1e-10 * max(kept, 1.0)


def test_projection_idempotence():
    for seed in range(20):
        data = rank_k_dataset(16, 8, 3, seed=seed)
        model = svd_decompose(data, 0.95)
        y = project(data, model)
        again = project(DataMatrix(y), svd_decompose(DataMatrix(y), 0.95))
        np.testing.assert_allclose(again, y, atol=1e-8)


def test_expected_state_single_entry():
    y = np.array([[1.0]])
    state = expected_compressed_state(y)
    assert state.basis_amplitude({"row": 0, "index": 1}) == pytest.approx(1.0)


def test_expected_state_identity_pair():
    y = np.eye(2)
    state = expected_compressed_state(y)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    assert state.basis_amplitude({"row": 0, "index": 1}) == pytest.approx(inv_sqrt2)
    assert state.basis_amplitude({"row": 1, "index": 2}) == pytest.approx(inv_sqrt2)
    assert state.basis_amplitude({"row": 0, "index": 2}) == pytest.approx(0.0)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_expected_state_normalization_rank2():
    data = rank_k_dataset(16, 8, 2, seed=9)
    model = svd_decompose(data, 0.95)
    y = project(data, model)
    state = expected_compressed_state(y)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    # Label 0 on the index register is unused.
    marginal = state.probabilities("index")
    assert marginal[0] == pytest.approx(0.0, abs=1e-15)


def test_expected_row_state_matches_row():
    # The reference restricted to one row, as compress restricts it for a
    # one-row subset, holds that row's projection y / |y| on tokens 1..d and
    # nothing else.
    data = rank_k_dataset(8, 4, 2, seed=4)
    model = svd_decompose(data, 0.95)
    y = project(data, model)
    row = 3
    state, _ = expected_compressed_state(y).restrict_register("row", [row])
    want = y[row] / np.linalg.norm(y[row])
    for j, amp in enumerate(want, start=1):
        assert state.basis_amplitude({"row": row, "index": j}) == pytest.approx(amp, abs=1e-12)
    assert state.probabilities("row")[row] == pytest.approx(1.0, abs=1e-12)


def test_pairwise_overlap_exact_rank_is_lossless():
    data = rank_k_dataset(12, 6, 2, seed=13)
    model = svd_decompose(data, 0.95)
    report = pairwise_overlap_report(data, project(data, model), tolerance=1e-9)
    assert report.max_deviation <= 1e-10
    assert report.fraction_within == 1.0
    assert report.flagged_rows == ()


def test_pairwise_overlap_full_dimension_is_lossless():
    rng = np.random.default_rng(31)
    data = DataMatrix(rng.standard_normal((8, 4)))
    model = svd_decompose(data, 1.0)
    report = pairwise_overlap_report(data, project(data, model), tolerance=1e-9)
    assert report.max_deviation <= 1e-10


def test_pairwise_overlap_noisy_data_recorded():
    # Seed 26 gives signal rows of comparable norm, so no row is swamped by
    # the 1% noise floor. Observed max deviation 2.25e-4 against residual
    # variance 5.1e-5; frozen with headroom as a regression threshold.
    data = rank_k_plus_noise(16, 8, 2, seed=26, noise_fraction=0.01)
    model = svd_decompose(data, 0.95)
    assert model.selected_dim == 2
    report = pairwise_overlap_report(data, project(data, model), tolerance=1e-3)
    residual = 1.0 - model.variance_captured
    assert report.max_deviation <= 10.0 * residual
    assert report.max_deviation <= 3.0e-4
    assert report.n_pairs == 16 * 15 // 2


def test_pairwise_overlap_flags_zero_norm_rows():
    # Third row lives entirely outside the kept 2-dimensional span.
    data = DataMatrix(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 0.1]]))
    model = svd_decompose(data, 0.95)
    assert model.selected_dim == 2
    report = pairwise_overlap_report(data, project(data, model), tolerance=1e-6)
    assert 2 in report.flagged_rows


def _unit_rows(data, compressed):
    """(x, y, ok): every data row and every compressed row at unit norm (a
    zero compressed row stays zero), and which compressed rows are nonzero."""
    x = data.values / np.linalg.norm(data.values, axis=1, keepdims=True)
    y_norms = np.linalg.norm(compressed, axis=1)
    ok = y_norms > 0.0
    y = np.zeros_like(compressed)
    y[ok] = compressed[ok] / y_norms[ok, None]
    return x, y, ok


def _triu_reference(data, compressed, tolerance):
    """The overlap report's fields as a gather over ``np.triu_indices`` of
    the stacked product [y | -x] [y | x]^T of the unflagged rows: the
    formula the audit's slabs use. BLAS rounds an entry by where it falls
    in the product's tiles, so the product is formed as the audit forms
    it, one block of ``OVERLAP_BLOCK_ROWS`` rows (read when called) against
    itself and every later row at a time."""
    x, y, ok = _unit_rows(data, compressed)
    left, right = np.hstack([y, -x])[ok], np.hstack([y, x])[ok]
    m, height = left.shape[0], pca_oracle.OVERLAP_BLOCK_ROWS
    gram = np.zeros((m, m))
    for i0 in range(0, m, height):
        gram[i0 : i0 + height, i0:] = left[i0 : i0 + height] @ right[i0:].T
    i1, i2 = np.triu_indices(m, k=1)
    devs = np.abs(gram[i1, i2])
    return {
        "deviations": devs,
        "n_pairs": devs.size,
        "tolerance": float(tolerance),
        "fraction_within": float(np.mean(devs <= tolerance)) if devs.size else 1.0,
        "max_deviation": float(devs.max()) if devs.size else 0.0,
        "mean_deviation": float(devs.mean()) if devs.size else 0.0,
        "flagged_rows": tuple(int(i) for i in np.nonzero(~ok)[0]),
    }


def _projected(data, threshold):
    return data, project(data, svd_decompose(data, threshold))


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
    return data, values


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
    # the mean agree bit for bit: the reference forms the audit's blocks.
    _assert_matches_triu_gather(data, compressed)


def test_pairwise_overlap_matches_the_triu_gather_at_another_block_height(monkeypatch):
    # At height 56 BLAS rounds some of the 256 x 64 deviations otherwise
    # than at 64; a reference that forms the same blocks still agrees.
    monkeypatch.setattr(pca_oracle, "OVERLAP_BLOCK_ROWS", 56)
    _assert_matches_triu_gather(*_projected(DataMatrix(np.random.default_rng(64).standard_normal((256, 64))), 0.5))


def _assert_matches_triu_gather(data, compressed):
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


@pytest.mark.parametrize("n_rows", [B - 1, B + 1, 2 * B + 1, 3 * B + 5])
def test_pairwise_overlap_stacked_product_rounds_like_two_products(n_rows):
    # An independent reference: the difference of the two full Gram
    # matrices, y y^T - x x^T. A slab entry sums the same d + D products as
    # one dot product, in blocks that may round by tile position, so on
    # general data the two agree to the summation error of unit-row dot
    # products: (d + D) * eps per entry.
    data = DataMatrix(np.random.default_rng(n_rows).standard_normal((n_rows, 16)))
    compressed = project(data, replace(svd_decompose(data, 1.0), selected_dim=4))
    report = pairwise_overlap_report(data, compressed, tolerance=1e-6)
    x, y, _ = _unit_rows(data, compressed)
    i1, i2 = np.triu_indices(n_rows, k=1)
    want = np.abs((y @ y.T)[i1, i2] - (x @ x.T)[i1, i2])
    bound = (16 + 4) * np.finfo(float).eps
    assert report.deviations.size == want.size == n_rows * (n_rows - 1) // 2
    assert np.max(np.abs(report.deviations - want)) <= bound
    assert abs(report.mean_deviation - float(want.mean())) <= bound
    assert abs(report.max_deviation - float(want.max())) <= bound


def test_pairwise_overlap_memory_is_one_slab_and_the_stacked_unit_rows():
    # 4096 rows: one block x 4096 slab takes 2 MiB, and the audit holds one
    # (the stacked product), reduced where it stands. The stacked unit rows
    # [y | x] take as much as the data and compressed rows together, and
    # the block's [y | -x] copy is B of them. Tolerance 0 counts the
    # entries over it in every block, an eighth of a slab more (a bool
    # mask). The 8.4 million pairs' deviations (64 MiB) and the two full
    # 4096 x 4096 Gram matrices (256 MiB) are never built.
    # Wide, 256 x 4096: the stacked rows (8 MiB) and the block's copy (B of
    # its 256 rows) are most of it. The data rows are divided by their norms
    # straight into the stacked rows, so no 256 x 4096 temporary (another
    # 8 MiB) is made beside them. Only the wide case is allowed the block's
    # copy on top; the tall case keeps the bound it had before.
    for n_rows, n_cols, with_block in ((4096, 16, False), (256, 4096, True)):
        data = rank_k_dataset(n_rows, n_cols, 4, 1)
        compressed = project(data, svd_decompose(data, 0.95))
        stacked_rows = data.values.nbytes + compressed.nbytes
        block = B * (n_cols + compressed.shape[1]) * 8 if with_block else 0
        for tolerance in (1e-6, 0.0):
            tracemalloc.start()
            try:
                report = pairwise_overlap_report(data, compressed, tolerance)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert report.n_pairs == n_rows * (n_rows - 1) // 2
            assert (report.fraction_within < 1.0) is (tolerance == 0.0)
            assert peak < 1.25 * B * n_rows * 8 + stacked_rows + block, (n_rows, n_cols, tolerance)


def test_pairwise_overlap_refuses_a_negative_tolerance():
    data = rank_k_dataset(8, 4, 2, 1)
    with pytest.raises(OutOfRangeError, match="nonnegative"):
        pairwise_overlap_report(data, project(data, svd_decompose(data, 0.95)), tolerance=-1e-6)


def test_run_compression_never_builds_the_pair_array(monkeypatch):
    def refuse(x, y):
        raise AssertionError("the per-pair deviations were built")

    monkeypatch.setattr(pca_oracle, "_pair_deviations", refuse)
    run = run_compression(rank_k_dataset(300, 6, 3, seed=7), seed=3)
    assert run.result.report.overlap.n_pairs == 300 * 299 // 2

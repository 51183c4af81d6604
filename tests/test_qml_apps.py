"""Tests for the downstream learners (LS-SVM and linear regression)."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qpcasim import cli
from qpcasim.datasets import gaussian_class_pair, linear_trend_dataset, rank_k_dataset
from qpcasim.errors import DegenerateRegressionError, InvalidInputError, OutOfRangeError, SingularSystemError
from qpcasim.pca_oracle import project, svd_decompose
from qpcasim.qml_apps import (
    PINV_CUTOFF,
    QlrDemoResult,
    _sampled_signed_overlap,
    lssvm_decision_values,
    lssvm_train,
    qlr_predict,
    qlr_state_demo,
    qsvm_state_demo,
)
from qpcasim.statevector import StateVector, ceil_log2

from oracles import dense_lssvm_decision_values, dense_lssvm_solve, gauss_solve


def _accuracy(model, queries, labels):
    # A query classifies as the sign of its decision value; an exact zero
    # classifies as +1.
    signs = np.where(lssvm_decision_values(model, np.asarray(queries)) >= 0.0, 1, -1)
    return float(np.mean(signs == labels))


# -- LS-SVM ---------------------------------------------------------------------


def test_lssvm_two_point_line():
    # One point per class on the line: the saddle system is small enough to
    # solve by hand-rolled elimination and compare term by term.
    points = np.array([[1.0], [-1.0]])
    model = lssvm_train(points, np.array([1.0, -1.0]), 1.0)

    system = np.array([[0.0, 1.0, 1.0], [1.0, 2.0, -1.0], [1.0, -1.0, 2.0]])
    rhs = np.array([0.0, 1.0, -1.0])
    oracle = gauss_solve(system, rhs)

    assert model.bias == pytest.approx(oracle[0], abs=1e-12)
    np.testing.assert_allclose(model.coefficients, oracle[1:], atol=1e-12)
    assert model.bias == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(model.coefficients, [1.0 / 3.0, -1.0 / 3.0], atol=1e-12)
    assert model.residual <= 1e-10

    values = lssvm_decision_values(model, np.array([[1.0], [-1.0], [0.0]]))
    np.testing.assert_allclose(values[:2], [2.0 / 3.0, -2.0 / 3.0])
    # The midpoint's decision value is the bias, zero up to round-off.
    assert values[2] == pytest.approx(0.0, abs=1e-12)


def test_lssvm_validation():
    points = np.array([[1.0], [-1.0]])
    with pytest.raises(InvalidInputError):
        lssvm_train(points, np.array([1.0]), 1.0)  # label count
    with pytest.raises(OutOfRangeError):
        lssvm_train(points, np.array([1.0, -1.0]), 0.0)
    with pytest.raises(InvalidInputError):
        lssvm_train(points, np.array([1.0, 2.0]), 1.0)
    with pytest.raises(InvalidInputError):
        lssvm_train(points, np.array([1.0, np.nan]), 1.0)


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.inf, math.nan])
def test_gamma_is_refused_as_the_cli_refuses_it(gamma):
    # The parent accepted an infinite or NaN gamma and refused 0 as
    # INVALID_INPUT, where the CLI said OUT_OF_RANGE for all three.
    points = np.array([[1.0], [-1.0]])
    with pytest.raises(OutOfRangeError) as cli_refusal:
        cli.RunConfig(input_path="x", gamma=gamma).validate()
    with pytest.raises(OutOfRangeError) as info:
        lssvm_train(points, np.array([1.0, -1.0]), gamma)
    assert info.value.payload() == cli_refusal.value.payload()


def test_lssvm_kernel_invariance_under_projection():
    # Exact rank-d data: the compressed Gram matrix equals the original one,
    # so training in either space gives the same model.
    data = rank_k_dataset(10, 6, 2, seed=15)
    rng = np.random.default_rng(15)
    labels = np.where(rng.standard_normal(10) >= 0.0, 1.0, -1.0)
    model = svd_decompose(data, 0.95)
    y = project(data, model)

    gram_gap = np.max(np.abs(y.values @ y.values.T - data.values @ data.values.T))
    assert gram_gap <= 1e-9

    full = lssvm_train(data.values, labels, 1.0)
    compressed = lssvm_train(y.values, labels, 1.0)
    assert full.bias == pytest.approx(compressed.bias, abs=1e-8)
    np.testing.assert_allclose(full.coefficients, compressed.coefficients, atol=1e-8)
    assert full.residual <= 1e-8 and compressed.residual <= 1e-8


def test_lssvm_separable_fixture_accuracies_match():
    data, labels = gaussian_class_pair(seed=29)
    spectral = svd_decompose(data, 0.95)
    y = project(data, spectral)

    full = lssvm_train(data.values, labels, 1.0)
    compressed = lssvm_train(y.values, labels, 1.0)
    acc_full = _accuracy(full, data.values, labels.astype(int))
    acc_comp = _accuracy(compressed, y.values, labels.astype(int))
    assert acc_full == 1.0
    assert acc_comp == acc_full
    assert full.residual <= 1e-8 and compressed.residual <= 1e-8


def _lssvm_reference_cases():
    """(name, points, labels, queries): the qsvm-demo shape and its
    compressed projection, a tall 2000 x 16 pair, a wide 40 x 1024 pair, and
    rank-deficient points (one column duplicated)."""
    demo, demo_labels = gaussian_class_pair(n_per_class=200, n_cols=16, seed=7)
    compressed = project(demo, svd_decompose(demo, 0.95)).values
    tall, tall_labels = gaussian_class_pair(n_per_class=1000, n_cols=16, seed=3)
    wide, wide_labels = gaussian_class_pair(n_per_class=20, n_cols=1024, seed=5)
    duplicated = np.hstack([demo.values, demo.values[:, :1]])
    rng = np.random.default_rng(11)
    cases = [
        ("400x16", demo.values, demo_labels),
        ("400x16-compressed", compressed, demo_labels),
        ("2000x16", tall.values, tall_labels),
        ("40x1024", wide.values, wide_labels),
        ("400x17-rank-deficient", duplicated, demo_labels),
    ]
    return {
        name: (points, labels, np.vstack([points, rng.normal(scale=2.0, size=(20, points.shape[1]))]))
        for name, points, labels in cases
    }


@pytest.mark.parametrize("gamma", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("case", ["400x16", "400x16-compressed", "2000x16", "40x1024", "400x17-rank-deficient"])
def test_lssvm_matches_dense_reference(case, gamma):
    # The feature-space solve against the dense (N+1)^2 saddle solve, on the
    # training points and on 20 fresh queries.
    points, labels, queries = _lssvm_reference_cases()[case]
    model = lssvm_train(points, labels, gamma)
    bias, coefficients = dense_lssvm_solve(points, labels, gamma)
    assert model.bias == pytest.approx(bias, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(model.coefficients, coefficients, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        lssvm_decision_values(model, queries),
        dense_lssvm_decision_values(points, bias, coefficients, queries),
        rtol=1e-12,
        atol=1e-12,
    )
    assert model.residual <= 1e-10


def test_lssvm_refuses_a_non_finite_solve():
    # Points near 1e154 overflow the solve: the result is not finite and its
    # residual is NaN, which no "residual > tol" test catches. It is refused,
    # and the overflow raises no warning.
    data, labels = gaussian_class_pair(n_per_class=5, n_cols=4, seed=1)
    with pytest.raises(SingularSystemError):
        lssvm_train(data.values * 1e154, labels, 1.0)


def _blobs():
    inputs = Path(__file__).resolve().parent / "golden" / "inputs"
    points = np.loadtxt(inputs / "blobs.csv", delimiter=",")
    return points, np.loadtxt(inputs / "blobs.labels").reshape(-1)


def test_lssvm_refuses_a_finite_backward_error_above_the_bound():
    # At 2^40 the solve stays finite, but the coefficients derived from the
    # weights carry an error the refinement step does not remove: the
    # backward error is of order 1e-3, well above 1e-6.
    points, labels = _blobs()
    with pytest.raises(SingularSystemError, match=r"residual [0-9.]+e-04 is not at most 1e-6"):
        lssvm_train(points * 2.0**40, labels, 1.0)


@pytest.mark.parametrize("scale", [2.0**40, 2.0**60, 1e100], ids=["2^40", "2^60", "1e100"])
def test_lssvm_on_huge_points_refuses_or_classifies(scale):
    # The exact solve (500-digit LU) classifies every blobs point correctly
    # at these scales, so a model that is not refused must too.
    points, labels = _blobs()
    points = points * scale
    try:
        model = lssvm_train(points, labels, 1.0)
    except SingularSystemError:
        return
    np.testing.assert_array_equal(np.where(lssvm_decision_values(model, points) >= 0.0, 1.0, -1.0), labels)


def test_lssvm_refuses_when_the_norm_bound_overflows():
    # gamma sqrt(N) overflows the bound on |A|_F. A finite residual over
    # an infinite scale would read as a zero backward error; it is refused.
    # The message names the overflow; a larger gamma would not help.
    points, labels = _blobs()
    with pytest.raises(SingularSystemError, match="residual inf is not at most 1e-6") as info:
        lssvm_train(points, labels, 1e308)
    assert "the bound on |A|_F overflows" in str(info.value)
    assert "gamma sqrt(N) inf" in str(info.value)
    assert "a larger gamma regularizes it" not in str(info.value)


@pytest.mark.parametrize("n_per_class, n_cols", [(5, 4), (20, 2), (200, 16)])
def test_lssvm_trains_points_scaled_by_a_million(n_per_class, n_cols):
    # Forming P (P^T coeffs) in double leaves a residual of order
    # eps |P P^T| |coeffs|, so the relative residual of these well-posed
    # problems grows with the square of the scale (1.3e-4, 7.7e-2 and 1.66
    # here). The normwise backward error does not, and they train, with the
    # signs of the dense reference solve.
    data, labels = gaussian_class_pair(n_per_class=n_per_class, n_cols=n_cols, seed=1)
    points = data.values * 1e6
    model = lssvm_train(points, labels, 1.0)
    assert model.residual > 1e-6
    bias, coefficients = dense_lssvm_solve(points, labels, 1.0)
    want = dense_lssvm_decision_values(points, bias, coefficients, points)
    assert np.all(want != 0.0)
    np.testing.assert_array_equal(np.sign(lssvm_decision_values(model, points)), np.sign(want))


def test_lssvm_builds_no_kernel_sized_array():
    # A 4000 x 4000 float64 kernel alone would be 122 MiB.
    data, labels = gaussian_class_pair(n_per_class=2000, n_cols=16, seed=3)
    tracemalloc.start()
    try:
        lssvm_train(data.values, labels, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# -- SVM state demo ----------------------------------------------------------------


def test_qsvm_demo_shot_free_identity():
    data, labels = gaussian_class_pair(seed=29)
    model = lssvm_train(data.values, labels, 1.0)
    n = data.n_rows
    queries = data.values[[0, n - 1]]
    demo = qsvm_state_demo(model, data.values, queries)
    assert demo.agrees.tolist() == [True, True]
    assert demo.sign.tolist() == demo.classical_sign.tolist()
    assert demo.estimate is None
    for query, value, classical in zip(queries, demo.value, demo.classical_value):
        # value = decision / (trained norm * probe norm), both norms known.
        trained_norm = np.sqrt(
            model.bias**2
            + np.sum(model.coefficients**2 * np.sum(data.values**2, axis=1))
        )
        probe_norm = np.sqrt(1.0 + n * float(query @ query))
        assert value * trained_norm * probe_norm == pytest.approx(classical, abs=1e-10)


def test_qsvm_demo_sampled_far_from_margin():
    data, labels = gaussian_class_pair(seed=29)
    model = lssvm_train(data.values, labels, 1.0)
    demo = qsvm_state_demo(model, data.values, data.values[:1], shots=1_000_000, rng_seeds=[31])
    assert demo.shots == 1_000_000
    [estimate], [value], [stderr] = demo.estimate, demo.value, demo.standard_error
    assert abs(estimate - value) <= 3.0 * stderr
    assert demo.agrees.tolist() == [True] and demo.inconclusive.tolist() == [False]
    # Same seed reproduces the draw.
    again = qsvm_state_demo(model, data.values, data.values[:1], shots=1_000_000, rng_seeds=[31])
    assert again.estimate.tolist() == [estimate]


def test_qsvm_demo_midpoint_is_inconclusive():
    data, labels = gaussian_class_pair(seed=29)
    model = lssvm_train(data.values, labels, 1.0)
    demo = qsvm_state_demo(model, data.values, np.zeros((1, 2)), shots=100_000, rng_seeds=[5])
    assert demo.inconclusive.tolist() == [True]


# -- linear regression ----------------------------------------------------------------


def test_qlr_one_dimensional_line():
    points = np.array([[1.0], [2.0], [3.0]])
    targets = np.array([2.0, 4.0, 6.0])
    pred = qlr_predict(points, targets, np.array([[4.0]]))
    assert pred.value == pytest.approx([8.0], abs=1e-10)
    assert pred.value_svd == pytest.approx([8.0], abs=1e-10)
    np.testing.assert_allclose(pred.weights, [2.0], atol=1e-10)


def test_qlr_exact_linear_data():
    data, targets, weights = linear_trend_dataset(12, 6, 2, seed=11)
    pred = qlr_predict(data.values, targets, data.values)
    np.testing.assert_allclose(pred.value, targets, rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(pred.value, pred.value_svd, rtol=0.0, atol=1e-8)


def test_qlr_compressed_space_agrees():
    data, targets, _ = linear_trend_dataset(12, 6, 2, seed=11)
    model = svd_decompose(data, 0.95)
    assert model.selected_dim == 2
    y = project(data, model)
    basis = model.right_vectors[:, : model.selected_dim]
    original = qlr_predict(data.values, targets, data.values).value
    compressed = qlr_predict(y.values, targets, data.values @ basis).value
    np.testing.assert_allclose(compressed, original, rtol=0.0, atol=1e-8)


def reference_qlr_predict(points, targets, query):
    """The per-query form ``qlr_predict`` replaced: one SVD and one Gram
    pseudoinverse per query, the spectral route as a sum over directions.
    Returns (normal-equation value, spectral value)."""
    u, s, vt = np.linalg.svd(points, full_matrices=False)
    support = s > PINV_CUTOFF * s[0]
    gram = points.T @ points
    weights = np.linalg.pinv(gram, rcond=PINV_CUTOFF, hermitian=True) @ (points.T @ targets)
    value_svd = sum(
        (query @ vt[j]) * (u[:, j] @ targets) / s[j] for j in range(s.size) if support[j]
    )
    return float(query @ weights), float(value_svd)


def test_qlr_batched_predictions_equal_per_query_reference():
    # Rank-2 data in 6 columns, noisy targets: the spectral route drops four
    # directions and the predictions are not the targets, so both routes do
    # real work. The compressed space keeps the two directions.
    data, targets, _ = linear_trend_dataset(12, 6, 2, seed=11)
    targets = targets + np.random.default_rng(5).normal(scale=0.3, size=targets.size)
    model = svd_decompose(data, 0.95)
    queries = np.vstack([data.values, np.random.default_rng(6).normal(size=(4, 6))])
    basis = model.right_vectors[:, : model.selected_dim]
    for points, space_queries in ((data.values, queries), (project(data, model).values, queries @ basis)):
        got = qlr_predict(points, targets, space_queries)
        want = np.array([reference_qlr_predict(points, targets, q) for q in space_queries])
        np.testing.assert_allclose(got.value, want[:, 0], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got.value_svd, want[:, 1], rtol=1e-12, atol=1e-15)


def test_qlr_validation():
    with pytest.raises(InvalidInputError):
        qlr_predict(np.ones((3, 2)), np.ones(2), np.ones((1, 2)))  # row mismatch
    with pytest.raises(InvalidInputError):
        qlr_predict(np.ones((3, 2)), np.ones(3), np.ones((1, 3)))  # query mismatch
    with pytest.raises(InvalidInputError, match="one query per row"):
        qlr_predict(np.ones((3, 2)), np.ones(3), np.ones(2))
    with pytest.raises(DegenerateRegressionError):
        qlr_predict(np.zeros((3, 2)), np.ones(3), np.ones((1, 2)))


# -- regression state demo ----------------------------------------------------------


def test_qlr_demo_identity_case():
    # Identity points, target (1, 0), query e1: every normalization factor is
    # known in closed form and the prediction comes out exactly 1.
    targets, queries = np.array([1.0, 0.0]), np.array([[1.0, 0.0]])
    demo = qlr_state_demo(qlr_predict(np.eye(2), targets, queries), targets, queries, 0)
    assert demo.prediction == pytest.approx(1.0, abs=1e-12)
    assert demo.classical_value == pytest.approx(1.0, abs=1e-12)
    assert demo.rescale_factor == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert demo.overlap == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_qlr_demo_matches_prediction():
    data, targets, _ = linear_trend_dataset(12, 6, 2, seed=11)
    fit = qlr_predict(data.values, targets, data.values)
    demo = qlr_state_demo(fit, targets, data.values, 3)
    assert demo.classical_value == fit.value[3]
    assert demo.prediction == pytest.approx(demo.classical_value, abs=1e-8)
    assert demo.estimate is None


def test_qlr_demo_compressed_space():
    data, targets, _ = linear_trend_dataset(12, 6, 2, seed=11)
    model = svd_decompose(data, 0.95)
    y = project(data, model)
    basis = model.right_vectors[:, : model.selected_dim]
    queries = data.values @ basis
    demo = qlr_state_demo(qlr_predict(y.values, targets, queries), targets, queries, 3)
    assert demo.prediction == pytest.approx(targets[3], abs=1e-6)


def test_qlr_demo_sampled():
    data, targets, _ = linear_trend_dataset(12, 6, 2, seed=11)
    fit = qlr_predict(data.values, targets, data.values)
    demo = qlr_state_demo(fit, targets, data.values, 3, shots=1_000_000, rng_seed=13)
    assert demo.shots == 1_000_000
    # The sampled estimate carries the rescaling, so it brackets the exact
    # prediction at the rescaled standard error.
    assert abs(demo.estimate - demo.prediction) <= 3.0 * demo.standard_error


def reference_qlr_state_demo(points, targets, query, shots=None, rng_seed=None):
    """The form ``qlr_state_demo`` replaced: the points scaled to unit
    Frobenius norm and decomposed a second time, the inverse spectrum
    rebuilt from that SVD at its own copy of the PINV_CUTOFF support rule,
    and the rescale divided by the data norm."""
    points = np.asarray(points, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    classical = float(qlr_predict(points, targets, query[None, :]).value[0])

    data_norm = float(np.linalg.norm(points))
    target_norm = float(np.linalg.norm(targets))
    query_norm = float(np.linalg.norm(query))
    if target_norm == 0.0 or query_norm == 0.0:
        raise InvalidInputError("targets and query must have nonzero norm")

    scaled = points / data_norm
    u, s, vt = np.linalg.svd(scaled, full_matrices=False)
    support = s > PINV_CUTOFF * s[0]
    inv_s = np.where(support, 1.0 / np.where(support, s, 1.0), 0.0)
    inv_norm = float(np.linalg.norm(inv_s))

    n, n_features = points.shape
    feat_qubits = ceil_log2(max(n_features, 2))
    row_qubits = ceil_log2(max(n, 2))
    feat_dim, row_dim = 1 << feat_qubits, 1 << row_qubits

    inverse_state = np.zeros((feat_dim, row_dim))
    inverse_state[:n_features, :n] = (vt.T * inv_s) @ u.T / inv_norm

    query_unit, target_unit = query / query_norm, targets / target_norm
    product_state = np.outer(
        np.pad(query_unit, (0, feat_dim - query_unit.size)), np.pad(target_unit, (0, row_dim - target_unit.size))
    )

    layout = [("feature", feat_qubits), ("row", row_qubits)]
    a = StateVector.from_amplitudes(layout, inverse_state)
    b = StateVector.from_amplitudes(layout, product_state)
    overlap = float(a.inner(b).real)

    rescale = inv_norm * target_norm * query_norm / data_norm
    estimate = stderr = None
    inconclusive = False
    if shots is not None:
        overlap_hat, overlap_se, _ = _sampled_signed_overlap(overlap, shots, rng_seed)
        estimate, stderr = overlap_hat * rescale, overlap_se * rescale
        inconclusive = abs(overlap_hat) < 3.0 * overlap_se
    return QlrDemoResult(
        prediction=overlap * rescale,
        classical_value=classical,
        overlap=overlap,
        rescale_factor=rescale,
        estimate=estimate,
        standard_error=stderr,
        inconclusive=inconclusive,
        shots=shots,
    )


def _qlr_demo_cases():
    """(points, targets, query): full-rank, rank-deficient (support < D),
    fewer points than features, and compressed coordinates."""
    rng = np.random.default_rng(41)
    full = rng.normal(size=(12, 6))
    data, targets, _ = linear_trend_dataset(12, 6, 2, seed=11)
    wide = rng.normal(size=(4, 8))
    model = svd_decompose(data, 0.95)
    basis = model.right_vectors[:, : model.selected_dim]
    return [
        (full, rng.normal(size=12), full[5]),
        (data.values, targets, data.values[3]),
        (wide, rng.normal(size=4), rng.normal(size=8)),
        (project(data, model).values, targets, data.values[3] @ basis),
    ]


@pytest.mark.parametrize("shots", [None, 2_000])
@pytest.mark.parametrize("case", range(4))
def test_qlr_state_demo_equals_scaled_svd_reference(case, shots):
    points, targets, query = _qlr_demo_cases()[case]
    if case == 1:
        assert np.linalg.matrix_rank(points) < points.shape[1]
    queries = query[None, :]
    fit = qlr_predict(points, targets, queries)
    got = qlr_state_demo(fit, targets, queries, 0, shots=shots, rng_seed=17)
    want = reference_qlr_state_demo(points, targets, query, shots=shots, rng_seed=17)
    for name in ("prediction", "overlap", "rescale_factor", "classical_value"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12, atol=1e-15, err_msg=name)
    assert got.inconclusive == want.inconclusive
    assert got.shots == want.shots


def _count_svd_calls(monkeypatch) -> list:
    """Record the shape of every ``np.linalg.svd`` argument from now on."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_qlr_state_demo_reuses_the_prediction_svd(monkeypatch):
    # The inverse-spectrum state is the fit's pseudoinverse, so the demo
    # decomposes nothing.
    data, targets, _ = linear_trend_dataset(12, 6, 2, seed=11)
    fit = qlr_predict(data.values, targets, data.values)
    calls = _count_svd_calls(monkeypatch)
    qlr_state_demo(fit, targets, data.values, 0)
    assert calls == []


def test_qlr_task_decomposes_each_matrix_once(monkeypatch):
    # One SVD for the spectrum block, one per learner (full and compressed);
    # the demo takes the full learner's fit.
    calls = _count_svd_calls(monkeypatch)
    inputs = Path(__file__).resolve().parent / "golden" / "inputs"
    config = cli.RunConfig(input_path=str(inputs / "lin.csv"), labels_path=str(inputs / "lin.targets"), task="qlr")
    cli.run(config)
    assert calls == [(12, 6), (12, 6), (12, 2)]


def test_qlr_state_demo_validation():
    data, targets, _ = linear_trend_dataset(12, 6, 2, seed=11)
    fit = qlr_predict(data.values, targets, data.values)
    with pytest.raises(InvalidInputError, match="out of range"):
        qlr_state_demo(fit, targets, data.values, 12)
    with pytest.raises(InvalidInputError, match="do not match"):
        qlr_state_demo(fit, targets, data.values[:3], 0)
    with pytest.raises(InvalidInputError, match="do not match"):
        qlr_state_demo(fit, targets[:5], data.values, 0)

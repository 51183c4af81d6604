"""Tests for the downstream learners (LS-SVM and linear regression)."""

from dataclasses import replace

import numpy as np
import pytest

from qpcasim.datasets import gaussian_class_pair, linear_trend_dataset, rank_k_dataset
from qpcasim.errors import DegenerateRegressionError, InvalidInputError
from qpcasim.pca_oracle import DataMatrix, project, svd_decompose
from qpcasim.qml_apps import (
    PINV_CUTOFF,
    LabeledDataset,
    QlrDemoResult,
    _pad,
    _sampled_signed_overlap,
    lssvm_classify,
    lssvm_decision_value,
    lssvm_train,
    qlr_predict,
    qlr_state_demo,
    qsvm_state_demo,
)
from qpcasim.statevector import StateVector, ceil_log2

from oracles import gauss_solve


def _accuracy(model, points, queries, labels):
    hits = [lssvm_classify(model, points, q) == l for q, l in zip(queries, labels)]
    return float(np.mean(hits))


# -- LS-SVM ---------------------------------------------------------------------


def test_lssvm_two_point_line():
    # One point per class on the line: the saddle system is small enough to
    # solve by hand-rolled elimination and compare term by term.
    points = np.array([[1.0], [-1.0]])
    dataset = LabeledDataset(DataMatrix(points), np.array([1.0, -1.0]), gamma=1.0)
    model = lssvm_train(dataset, points)

    system = np.array([[0.0, 1.0, 1.0], [1.0, 2.0, -1.0], [1.0, -1.0, 2.0]])
    rhs = np.array([0.0, 1.0, -1.0])
    oracle = gauss_solve(system, rhs)

    assert model.bias == pytest.approx(oracle[0], abs=1e-12)
    np.testing.assert_allclose(model.coefficients, oracle[1:], atol=1e-12)
    assert model.bias == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(model.coefficients, [1.0 / 3.0, -1.0 / 3.0], atol=1e-12)
    assert model.residual <= 1e-10

    assert lssvm_decision_value(model, points, np.array([1.0])) == pytest.approx(2.0 / 3.0)
    assert lssvm_decision_value(model, points, np.array([-1.0])) == pytest.approx(-2.0 / 3.0)
    # Exact zero classifies as +1.
    assert lssvm_classify(model, points, np.array([0.0])) == 1


def test_lssvm_validation():
    points = np.array([[1.0], [-1.0]])
    with pytest.raises(InvalidInputError):
        LabeledDataset(DataMatrix(points), np.array([1.0]))  # label count
    with pytest.raises(InvalidInputError):
        LabeledDataset(DataMatrix(points), np.array([1.0, -1.0]), gamma=0.0)
    bad = LabeledDataset(DataMatrix(points), np.array([1.0, 2.0]))
    with pytest.raises(InvalidInputError):
        lssvm_train(bad, points)


def test_lssvm_kernel_invariance_under_projection():
    # Exact rank-d data: the compressed Gram matrix equals the original one,
    # so training in either space gives the same model.
    data = rank_k_dataset(10, 6, 2, seed=15)
    rng = np.random.default_rng(15)
    labels = np.where(rng.standard_normal(10) >= 0.0, 1.0, -1.0)
    model = svd_decompose(data, 0.95, 0)
    y = project(data, model)

    gram_gap = np.max(np.abs(y.values @ y.values.T - data.values @ data.values.T))
    assert gram_gap <= 1e-9

    dataset = LabeledDataset(data, labels)
    full = lssvm_train(dataset, data.values)
    compressed = lssvm_train(dataset, y.values)
    assert full.bias == pytest.approx(compressed.bias, abs=1e-8)
    np.testing.assert_allclose(full.coefficients, compressed.coefficients, atol=1e-8)
    assert full.residual <= 1e-8 and compressed.residual <= 1e-8


def test_lssvm_separable_fixture_accuracies_match():
    data, labels = gaussian_class_pair(seed=29)
    dataset = LabeledDataset(data, labels)
    spectral = svd_decompose(data, 0.95, 0)
    y = project(data, spectral)

    full = lssvm_train(dataset, data.values)
    compressed = lssvm_train(dataset, y.values)
    acc_full = _accuracy(full, data.values, data.values, labels.astype(int))
    acc_comp = _accuracy(compressed, y.values, y.values, labels.astype(int))
    assert acc_full == 1.0
    assert acc_comp == acc_full
    assert full.residual <= 1e-8 and compressed.residual <= 1e-8


# -- SVM state demo ----------------------------------------------------------------


def test_qsvm_demo_shot_free_identity():
    data, labels = gaussian_class_pair(seed=29)
    dataset = LabeledDataset(data, labels)
    model = lssvm_train(dataset, data.values)
    n = data.n_rows
    queries = data.values[[0, n - 1]]
    for query, demo in zip(queries, qsvm_state_demo(model, data.values, queries)):
        assert demo.agrees
        assert demo.sign == demo.classical_sign
        assert demo.estimate is None
        # value = decision / (trained norm * probe norm), both norms known.
        trained_norm = np.sqrt(
            model.bias**2
            + np.sum(model.coefficients**2 * np.sum(data.values**2, axis=1))
        )
        probe_norm = np.sqrt(1.0 + n * float(query @ query))
        assert demo.value * trained_norm * probe_norm == pytest.approx(
            demo.classical_value, abs=1e-10
        )


def test_qsvm_demo_sampled_far_from_margin():
    data, labels = gaussian_class_pair(seed=29)
    model = lssvm_train(LabeledDataset(data, labels), data.values)
    [demo] = qsvm_state_demo(model, data.values, data.values[:1], shots=1_000_000, rng_seeds=[31])
    assert demo.shots == 1_000_000
    assert abs(demo.estimate - demo.value) <= 3.0 * demo.standard_error
    assert demo.agrees and not demo.inconclusive
    # Same seed reproduces the draw.
    [again] = qsvm_state_demo(model, data.values, data.values[:1], shots=1_000_000, rng_seeds=[31])
    assert again.estimate == demo.estimate


def test_qsvm_demo_midpoint_is_inconclusive():
    data, labels = gaussian_class_pair(seed=29)
    model = lssvm_train(LabeledDataset(data, labels), data.values)
    [demo] = qsvm_state_demo(model, data.values, np.zeros((1, 2)), shots=100_000, rng_seeds=[5])
    assert demo.inconclusive


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
    model = svd_decompose(data, 0.95, 0)
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
    model = svd_decompose(data, 0.95, 0)
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
    demo = qlr_state_demo(np.eye(2), np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert demo.prediction == pytest.approx(1.0, abs=1e-12)
    assert demo.classical_value == pytest.approx(1.0, abs=1e-12)
    assert demo.rescale_factor == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert demo.overlap == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_qlr_demo_matches_prediction():
    data, targets, _ = linear_trend_dataset(12, 6, 2, seed=11)
    demo = qlr_state_demo(data.values, targets, data.values[3])
    assert demo.prediction == pytest.approx(demo.classical_value, abs=1e-8)
    assert demo.estimate is None


def test_qlr_demo_compressed_space():
    data, targets, _ = linear_trend_dataset(12, 6, 2, seed=11)
    model = svd_decompose(data, 0.95, 0)
    y = project(data, model)
    basis = model.right_vectors[:, : model.selected_dim]
    demo = qlr_state_demo(y.values, targets, data.values[3] @ basis)
    assert demo.prediction == pytest.approx(targets[3], abs=1e-6)


def test_qlr_demo_sampled():
    data, targets, _ = linear_trend_dataset(12, 6, 2, seed=11)
    demo = qlr_state_demo(data.values, targets, data.values[3], shots=1_000_000, rng_seed=13)
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

    product_state = np.outer(
        _pad(query / query_norm, feat_dim), _pad(targets / target_norm, row_dim)
    )

    layout = [("feature", feat_qubits), ("row", row_qubits)]
    a = StateVector.from_amplitudes(layout, inverse_state)
    b = StateVector.from_amplitudes(layout, product_state)
    overlap = float(a.inner(b).real)

    rescale = inv_norm * target_norm * query_norm / data_norm
    result = QlrDemoResult(
        prediction=overlap * rescale,
        classical_value=classical,
        overlap=overlap,
        rescale_factor=rescale,
    )
    if shots is None:
        return result
    estimate, stderr = _sampled_signed_overlap(overlap, shots, rng_seed)
    return replace(
        result,
        estimate=estimate * rescale,
        standard_error=stderr * rescale,
        inconclusive=abs(estimate) < 3.0 * stderr,
        shots=shots,
    )


def _qlr_demo_cases():
    """(points, targets, query): full-rank, rank-deficient (support < D),
    fewer points than features, and compressed coordinates."""
    rng = np.random.default_rng(41)
    full = rng.normal(size=(12, 6))
    data, targets, _ = linear_trend_dataset(12, 6, 2, seed=11)
    wide = rng.normal(size=(4, 8))
    model = svd_decompose(data, 0.95, 0)
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
    got = qlr_state_demo(points, targets, query, shots=shots, rng_seed=17)
    want = reference_qlr_state_demo(points, targets, query, shots=shots, rng_seed=17)
    for name in ("prediction", "overlap", "rescale_factor", "classical_value"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12, atol=1e-15, err_msg=name)
    assert got.inconclusive == want.inconclusive
    assert got.shots == want.shots


def test_qlr_state_demo_reuses_the_prediction_svd(monkeypatch):
    # The inverse-spectrum state is qlr_predict's pseudoinverse, so the demo
    # decomposes the points once, inside qlr_predict.
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    data, targets, _ = linear_trend_dataset(12, 6, 2, seed=11)
    qlr_state_demo(data.values, targets, data.values[0])
    assert calls == [(12, 6)]

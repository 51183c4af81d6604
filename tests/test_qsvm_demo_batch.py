"""The batched SVM state demo against its per-query reference.

``qsvm_state_demo`` builds the trained state once per call, reads every
probe's overlap with it in closed form, without building the probes, and
returns one result of per-query arrays. ``reference_demo`` below is the
per-query form it replaced: it rebuilds the trained state for every query
with a row loop, builds the probe state, takes the inner product and returns
that query's fields as plain scalars. The closed form sums the same products
in another order, so the overlap and the classical decision value agree to
1e-12 relative / 1e-15 absolute; every field derived from them (signs,
sampled estimates, inconclusive flags) must be exactly equal, entry by entry.
"""

import math
from dataclasses import fields

import numpy as np
import pytest

from qpcasim import cli, qml_apps
from qpcasim.datasets import gaussian_class_pair, write_matrix_csv, write_values_file
from qpcasim.errors import InvalidInputError, NumericalFailureError, OutOfRangeError
from qpcasim.pca_oracle import DataMatrix
from qpcasim.qml_apps import (
    LabeledDataset,
    LssvmModel,
    OverlapDemoResult,
    _sampled_signed_overlap,
    lssvm_decision_values,
    lssvm_train,
    qsvm_state_demo,
)
from qpcasim.statevector import StateVector, ceil_log2


def reference_demo(
    model: LssvmModel,
    points: np.ndarray,
    query: np.ndarray,
    shots: int | None = None,
    rng_seed: int | None = None,
) -> dict:
    """Read the SVM decision value off two prepared states.

    The trained state superposes the bias on slot 0 with coefficient-weighted
    training rows on slots 1..N; the query state superposes a unit slot-0
    branch with the query vector on every slot. Their inner product is the
    decision value divided by both state norms, so the sign is preserved.
    Returns the query's ``OverlapDemoResult`` fields, by name.
    """
    points = np.asarray(points, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    n, n_features = points.shape
    if query.size != n_features:
        raise InvalidInputError("query dimension does not match the training points")

    slot_qubits = ceil_log2(n + 1)
    feat_dim = 1 << ceil_log2(max(n_features, 2))
    trained = np.zeros(((1 << slot_qubits), feat_dim))
    trained[0, 0] = model.bias
    for j in range(n):
        trained[j + 1, :n_features] = model.coefficients[j] * points[j]
    trained_norm = float(np.linalg.norm(trained))
    if trained_norm == 0.0:
        raise InvalidInputError("trained state has zero norm; the model is degenerate")

    probe = np.zeros_like(trained)
    probe[0, 0] = 1.0
    probe[1 : n + 1, :n_features] = query[None, :]
    probe_norm = float(np.linalg.norm(probe))

    layout = [("slot", slot_qubits), ("feature", int(math.log2(feat_dim)))]
    a = StateVector.from_amplitudes(layout, trained / trained_norm)
    b = StateVector.from_amplitudes(layout, probe / probe_norm)
    value = float(a.inner(b).real)

    classical = float(lssvm_decision_values(model, query[None, :])[0])
    result = dict(
        value=value,
        classical_value=classical,
        sign=1 if value >= 0.0 else -1,
        classical_sign=1 if classical >= 0.0 else -1,
        agrees=(value >= 0.0) == (classical >= 0.0),
        estimate=None,
        standard_error=None,
        inconclusive=False,
        shots=None,
    )
    if shots is None:
        return result
    estimate, stderr = _sampled_signed_overlap(value, shots, rng_seed)
    return dict(
        result,
        sign=1 if estimate >= 0.0 else -1,
        agrees=(estimate >= 0.0) == (classical >= 0.0),
        estimate=estimate,
        standard_error=stderr,
        inconclusive=abs(estimate) < 3.0 * stderr,
        shots=shots,
    )


def _cli_seeds(seed: int, n: int) -> list[int]:
    """The per-query seeds ``cli._task_qsvm`` draws for a sampled run."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**63 - 1, size=n)]


def _interleaved_pair(n_rows: int):
    """First ``n_rows`` of two 8-point classes, alternating between them."""
    data, labels = gaussian_class_pair(n_per_class=8, n_cols=3, seed=29)
    rows = np.arange(16).reshape(2, 8).T.reshape(-1)[:n_rows]
    return data.values[rows], labels[rows]


def _model(points, labels):
    return lssvm_train(LabeledDataset(DataMatrix(points), labels), points)


def _assert_matches_reference(model, points, shots, seeds):
    batched = qsvm_state_demo(model, points, points, shots=shots, rng_seeds=seeds)
    assert isinstance(batched, OverlapDemoResult)
    for field in (f.name for f in fields(batched) if f.name != "shots"):
        got = getattr(batched, field)
        if got is not None:
            assert got.shape == (len(points),), field
    assert batched.sign.dtype.kind == batched.classical_sign.dtype.kind == "i"
    assert batched.agrees.dtype == batched.inconclusive.dtype == bool
    for k, query in enumerate(points):
        want = reference_demo(
            model, points, query, shots=shots, rng_seed=None if seeds is None else seeds[k]
        )
        assert batched.shots == want["shots"]
        for field in ("value", "classical_value"):
            assert getattr(batched, field)[k] == pytest.approx(want[field], rel=1e-12, abs=1e-15), (k, field)
        for field in ("sign", "classical_sign", "agrees", "estimate", "standard_error", "inconclusive"):
            got = getattr(batched, field)
            assert (None if got is None else got[k]) == want[field], (k, field)


@pytest.mark.parametrize("shots, cli_seed", [(None, None), (20_000, 6), (100_000, 0)])
def test_batched_demo_equals_reference_on_class_pair(shots, cli_seed):
    data, labels = gaussian_class_pair(seed=29)
    model = _model(data.values, labels)
    seeds = None if shots is None else _cli_seeds(cli_seed, data.n_rows)
    _assert_matches_reference(model, data.values, shots, seeds)


# N + 1 fills the slot register exactly at N = 7 and N = 15; N = 8 needs one
# more slot qubit than N = 7 and leaves most of its slots empty.
@pytest.mark.parametrize("n_rows", [7, 8, 15])
@pytest.mark.parametrize("shots", [None, 5_000])
def test_batched_demo_equals_reference_at_slot_boundaries(n_rows, shots):
    points, labels = _interleaved_pair(n_rows)
    model = _model(points, labels)
    seeds = None if shots is None else _cli_seeds(3, n_rows)
    _assert_matches_reference(model, points, shots, seeds)


# -- cost guard and input checks ------------------------------------------------


@pytest.fixture
def constructions(monkeypatch):
    """Count StateVector constructions for the rest of the test."""
    count = [0]
    original = StateVector.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(StateVector, "__init__", counting_init)
    return count


@pytest.mark.parametrize("mode", ["ideal", "sampled"])
def test_qsvm_task_builds_the_trained_state_once(tmp_path, monkeypatch, constructions, mode):
    data, labels = gaussian_class_pair(n_per_class=6, seed=29)
    data_path, labels_path = str(tmp_path / "pts.csv"), str(tmp_path / "pts.labels")
    write_matrix_csv(data_path, data.values)
    write_values_file(labels_path, labels)
    calls = [0]
    original = qml_apps.qsvm_state_demo

    def counting_demo(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(qml_apps, "qsvm_state_demo", counting_demo)
    report = cli.run(
        cli.RunConfig(
            input_path=data_path, labels_path=labels_path, task="qsvm", mode=mode, shots=2_000
        )
    )
    assert report["qsvm"]["demo"]["queries"] == data.n_rows
    assert calls[0] == 1
    assert constructions[0] == 1


def _class_pair_model():
    data, labels = gaussian_class_pair(seed=29)
    return _model(data.values, labels), data.values


def test_query_width_mismatch_is_refused(constructions):
    model, points = _class_pair_model()
    with pytest.raises(InvalidInputError, match="features"):
        qsvm_state_demo(model, points, np.ones((3, points.shape[1] + 1)))
    with pytest.raises(InvalidInputError, match="one query per row"):
        qsvm_state_demo(model, points, points[0])
    assert constructions[0] == 0


def test_shots_below_one_is_refused(constructions):
    model, points = _class_pair_model()
    with pytest.raises(OutOfRangeError, match="shots"):
        qsvm_state_demo(model, points, points, shots=0, rng_seeds=list(range(len(points))))
    assert constructions[0] == 0


def test_seed_count_must_match_query_count(constructions):
    model, points = _class_pair_model()
    with pytest.raises(InvalidInputError, match="seeds"):
        qsvm_state_demo(model, points, points, shots=100, rng_seeds=[1, 2])
    assert constructions[0] == 0


def test_zero_norm_trained_state_is_refused(constructions):
    _, points = _class_pair_model()
    model = LssvmModel(
        bias=0.0, coefficients=np.zeros(len(points)), weights=np.zeros(points.shape[1]), gamma=1.0, residual=0.0
    )
    with pytest.raises(InvalidInputError, match="zero norm"):
        qsvm_state_demo(model, points, points)
    assert constructions[0] == 0


def test_probe_whose_norm_overflows_is_refused():
    # The query's squared norm is a finite 5e307, but N = 40 slots of it
    # overflow: the probe's norm is infinite and its normalized amplitudes
    # are all zero.
    model, points = _class_pair_model()
    queries = np.vstack([points[:2], np.full((1, points.shape[1]), 5e153)])
    assert math.isfinite(float(queries[2] @ queries[2]))
    assert math.isinf(len(points) * float(queries[2] @ queries[2]))
    with pytest.raises(NumericalFailureError, match="norm drifted to 0.0"):
        qsvm_state_demo(model, points, queries)


def test_batched_decision_values_equal_per_row_calls():
    model, points = _class_pair_model()
    queries = np.vstack([points, -points[::3] + 0.5])
    want = [float(lssvm_decision_values(model, q[None, :])[0]) for q in queries]
    np.testing.assert_allclose(lssvm_decision_values(model, queries), want, rtol=1e-12, atol=1e-15)
    with pytest.raises(InvalidInputError, match="features"):
        lssvm_decision_values(model, np.ones((2, points.shape[1] + 1)))
    with pytest.raises(InvalidInputError, match="one query per row"):
        lssvm_decision_values(model, points[0])

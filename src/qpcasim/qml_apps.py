"""Downstream learners run on original or compressed coordinates.

Two applications: a least-squares SVM whose decision values can also be read
off as inner products between two prepared states, and linear regression by
pseudoinverse whose prediction equals a rescaled overlap between an
inverse-spectrum state and the query/target product state. The state demos
build those states explicitly; with shots they sample the signed overlap
through the ancilla-interference form of the swap test (a plain swap test
only yields the magnitude), shot-free they read the exact inner product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateRegressionError,
    InvalidInputError,
    SingularSystemError,
)
from .pca_oracle import DataMatrix
from .statevector import StateVector, ceil_log2

PINV_CUTOFF = 1e-10
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class LabeledDataset:
    points: DataMatrix
    labels: np.ndarray
    gamma: float = 1.0

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.float64).reshape(-1)
        if labels.size != self.points.n_rows:
            raise InvalidInputError(
                f"{labels.size} labels for {self.points.n_rows} points"
            )
        if not np.all(np.isfinite(labels)):
            raise InvalidInputError("labels contain NaN or infinite entries")
        if self.gamma <= 0.0:
            raise InvalidInputError(f"regularization gamma must be positive, got {self.gamma}")
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class LssvmModel:
    bias: float                 # offset term
    coefficients: np.ndarray    # one dual weight per training point
    gamma: float
    residual: float             # relative residual of the saddle solve


def lssvm_train(dataset: LabeledDataset, points: np.ndarray) -> LssvmModel:
    """Solve the least-squares SVM saddle system on the given coordinates.

    ``points`` selects the space: pass the original rows or their compressed
    projections. The linear kernel is the plain Gram matrix. Labels must be
    +-1. The block system

        [[0, 1^T], [1, K + gamma * I]] (bias; coeffs) = (0; labels)

    is solved directly and the relative residual is checked.
    """
    labels = dataset.labels
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise InvalidInputError("classification labels must be exactly +1 or -1")
    points = np.asarray(points, dtype=np.float64)
    n = labels.size
    if points.shape[0] != n:
        raise InvalidInputError("points and labels disagree on the number of rows")

    kernel = points @ points.T
    system = np.zeros((n + 1, n + 1))
    system[0, 1:] = 1.0
    system[1:, 0] = 1.0
    system[1:, 1:] = kernel + dataset.gamma * np.eye(n)
    rhs = np.concatenate([[0.0], labels])
    try:
        solution = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"saddle system is singular ({exc}); a larger gamma regularizes it"
        ) from exc
    residual = float(
        np.linalg.norm(system @ solution - rhs) / max(np.linalg.norm(rhs), 1e-300)
    )
    if residual > 1e-6:
        raise SingularSystemError(
            f"saddle solve residual {residual:.3e} is too large; a larger gamma regularizes it"
        )
    return LssvmModel(
        bias=float(solution[0]),
        coefficients=solution[1:],
        gamma=dataset.gamma,
        residual=residual,
    )


def lssvm_decision_value(model: LssvmModel, points: np.ndarray, query: np.ndarray) -> float:
    points = np.asarray(points, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    if query.size != points.shape[1]:
        raise InvalidInputError(
            f"query has {query.size} features, training points have {points.shape[1]}"
        )
    return float(model.coefficients @ (points @ query) + model.bias)


def lssvm_classify(model: LssvmModel, points: np.ndarray, query: np.ndarray) -> int:
    """Sign of the decision value; an exact zero classifies as +1."""
    return 1 if lssvm_decision_value(model, points, query) >= 0.0 else -1


# -- swap-test classification demo ---------------------------------------------


@dataclass(frozen=True)
class OverlapDemoResult:
    """Signed-overlap readout between two prepared states.

    ``value`` is the exact inner product scaled by the known positive state
    norms; ``estimate`` is its sampled counterpart (None when shot-free).
    The inconclusive flag trips when the estimate is within three standard
    errors of zero.
    """

    value: float
    classical_value: float
    sign: int
    classical_sign: int
    agrees: bool
    estimate: float | None = None
    standard_error: float | None = None
    inconclusive: bool = False
    shots: int | None = None


def _sampled_signed_overlap(
    value: float, shots: int, rng_seed: int | None
) -> tuple[float, float]:
    """Sample the interference readout whose ancilla-0 probability is
    (1 + value) / 2; returns (estimate, standard error)."""
    if shots < 1:
        raise InvalidInputError("shots must be >= 1")
    p0 = 0.5 * (1.0 + min(max(value, -1.0), 1.0))
    rng = np.random.default_rng(rng_seed)
    zeros = int(rng.binomial(shots, p0))
    p0_hat = zeros / shots
    estimate = 2.0 * p0_hat - 1.0
    stderr = 2.0 * math.sqrt(max(p0_hat * (1.0 - p0_hat), 1.0 / shots) / shots)
    return estimate, stderr


def _pad(vec: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros(dim)
    out[: vec.size] = vec
    return out


def qsvm_state_demo(
    model: LssvmModel,
    points: np.ndarray,
    queries: np.ndarray,
    shots: int | None = None,
    rng_seeds: Sequence[int] | None = None,
) -> list[OverlapDemoResult]:
    """Read the SVM decision value of each query off two prepared states.

    The trained state superposes the bias on slot 0 with coefficient-weighted
    training rows on slots 1..N; it does not depend on the query, so it is
    built once. Each query (one per row of ``queries``) gets a probe state
    that superposes a unit slot-0 branch with the query vector on every slot.
    Their inner product is the decision value divided by both state norms, so
    the sign is preserved. With ``shots``, query k's readout is sampled with
    ``rng_seeds[k]``. Returns one result per query, in order.
    """
    points = np.asarray(points, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    n, n_features = points.shape
    if queries.ndim != 2 or queries.shape[1] != n_features:
        raise InvalidInputError(
            f"queries of shape {queries.shape} do not match training points "
            f"with {n_features} features; pass one query per row"
        )
    if shots is not None and shots < 1:
        raise InvalidInputError("shots must be >= 1")
    if rng_seeds is None:
        rng_seeds = [None] * len(queries)
    elif len(rng_seeds) != len(queries):
        raise InvalidInputError(f"{len(rng_seeds)} seeds for {len(queries)} queries")

    slot_qubits = ceil_log2(n + 1)
    feat_dim = 1 << ceil_log2(max(n_features, 2))
    trained = np.zeros(((1 << slot_qubits), feat_dim))
    trained[0, 0] = model.bias
    trained[1 : n + 1, :n_features] = model.coefficients[:, None] * points
    trained_norm = float(np.linalg.norm(trained))
    if trained_norm == 0.0:
        raise InvalidInputError("trained state has zero norm; the model is degenerate")
    layout = [("slot", slot_qubits), ("feature", int(math.log2(feat_dim)))]
    a = StateVector.from_amplitudes(layout, trained / trained_norm)

    results = []
    for query, rng_seed in zip(queries, rng_seeds):
        probe = np.zeros_like(trained)
        probe[0, 0] = 1.0
        probe[1 : n + 1, :n_features] = query[None, :]
        probe_norm = float(np.linalg.norm(probe))
        b = StateVector.from_amplitudes(layout, probe / probe_norm)
        value = float(a.inner(b).real)

        classical = lssvm_decision_value(model, points, query)
        readout, estimate, stderr = value, None, None
        if shots is not None:
            estimate, stderr = _sampled_signed_overlap(value, shots, rng_seed)
            readout = estimate
        results.append(
            OverlapDemoResult(
                value=value,
                classical_value=classical,
                sign=1 if readout >= 0.0 else -1,
                classical_sign=1 if classical >= 0.0 else -1,
                agrees=(readout >= 0.0) == (classical >= 0.0),
                estimate=estimate,
                standard_error=stderr,
                inconclusive=shots is not None and abs(estimate) < 3.0 * stderr,
                shots=shots,
            )
        )
    return results


# -- linear regression by pseudoinverse ------------------------------------------


@dataclass(frozen=True)
class QlrPrediction:
    value: float            # query . weights, weights from the normal equations
    value_svd: float        # spectral form of the same prediction
    weights: np.ndarray


def qlr_predict(points: np.ndarray, targets: np.ndarray, query: np.ndarray) -> QlrPrediction:
    """Least-squares prediction for the query, computed two ways.

    The normal-equation route applies the Gram pseudoinverse; the spectral
    route sums inverse singular values over the rank support at the relative
    cutoff PINV_CUTOFF. The routes must agree to RESIDUAL_TOL; data whose
    spectrum straddles either cutoff fails that check loudly instead of
    returning a silently noise-dominated prediction.
    """
    points = np.asarray(points, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    if points.ndim != 2 or points.shape[0] != targets.size:
        raise InvalidInputError("points and targets disagree on the number of rows")
    if query.size != points.shape[1]:
        raise InvalidInputError("query dimension does not match the points")

    u, s, vt = np.linalg.svd(points, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        raise DegenerateRegressionError("point matrix has an empty spectrum")
    support = s > PINV_CUTOFF * s[0]
    if not np.any(support):
        raise DegenerateRegressionError("all singular values fall below the cutoff")

    # Forming the Gram matrix squares the conditioning, so its rounding-noise
    # eigenvalues sit near sqrt(machine eps) in point-matrix units. Cutting
    # relative to the Gram's own top eigenvalue keeps the pseudoinverse on the
    # rank support instead of inverting noise directions.
    gram = points.T @ points
    weights = np.linalg.pinv(gram, rcond=PINV_CUTOFF, hermitian=True) @ (points.T @ targets)
    value = float(query @ weights)

    value_svd = float(
        sum(
            (query @ vt[j]) * (u[:, j] @ targets) / s[j]
            for j in range(s.size)
            if support[j]
        )
    )
    if abs(value - value_svd) > RESIDUAL_TOL * max(1.0, abs(value_svd)):
        raise DegenerateRegressionError(
            f"normal-equation and spectral predictions disagree: {value} vs {value_svd}"
        )
    return QlrPrediction(value=value, value_svd=value_svd, weights=weights)


@dataclass(frozen=True)
class QlrDemoResult:
    prediction: float            # overlap rescaled back to data units
    classical_value: float
    overlap: float               # exact signed overlap between the two states
    rescale_factor: float
    estimate: float | None = None
    standard_error: float | None = None
    inconclusive: bool = False
    shots: int | None = None


def qlr_state_demo(
    points: np.ndarray,
    targets: np.ndarray,
    query: np.ndarray,
    shots: int | None = None,
    rng_seed: int | None = None,
) -> QlrDemoResult:
    """Regression readout as a state overlap.

    After scaling the points, targets, and query to unit norm, the
    inverse-spectrum state (inverse singular values over matched
    singular-direction pairs) is overlapped with the query-target product
    state. Multiplying the overlap by the known normalization factor
    (the inverse-spectrum norm times target and query norms over the data
    norm) recovers the classical prediction exactly.
    """
    points = np.asarray(points, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    classical = qlr_predict(points, targets, query)

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
    for j in range(s.size):
        if support[j]:
            inverse_state[:n_features, :n] += inv_s[j] * np.outer(vt[j], u[:, j])
    inverse_state /= inv_norm

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
        classical_value=classical.value,
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

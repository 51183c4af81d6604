"""Downstream learners run on original or compressed coordinates.

Two applications: a least-squares SVM whose decision values can also be read
off as inner products between two prepared states, and linear regression by
pseudoinverse whose prediction equals a rescaled overlap between an
inverse-spectrum state and the query/target product state. The classical
routes take one query per row and solve once for all of them. The regression
demo builds both of its states explicitly. The SVM demo builds the trained
state explicitly, once, and reads every query's probe overlap with it in
closed form, since a probe holds only a unit slot-0 branch and the query
repeated over the slots. With shots the demos sample the signed overlap
through the ancilla-interference form of the swap test (a plain swap test
only yields the magnitude); shot-free they read the exact inner product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateRegressionError,
    InvalidInputError,
    NumericalFailureError,
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


def lssvm_decision_values(model: LssvmModel, points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Decision value of every query (one per row of ``queries``):
    kernel row against the training points, weighted by the dual
    coefficients, plus the bias."""
    points = np.asarray(points, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise InvalidInputError(f"queries of shape {queries.shape}; pass one query per row")
    if queries.shape[1] != points.shape[1]:
        raise InvalidInputError(
            f"queries have {queries.shape[1]} features, training points have {points.shape[1]}"
        )
    return (queries @ points.T) @ model.coefficients + model.bias


def lssvm_decision_value(model: LssvmModel, points: np.ndarray, query: np.ndarray) -> float:
    query = np.asarray(query, dtype=np.float64).reshape(1, -1)
    return float(lssvm_decision_values(model, points, query)[0])


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
    built once. Each query (one per row of ``queries``) has a probe state
    that superposes a unit slot-0 branch with the query vector on every slot.
    Their inner product is the decision value divided by both state norms, so
    the sign is preserved. The probes are never built: probe k's norm is
    sqrt(1 + N |q_k|^2), and its overlap needs only the trained state's
    slot-0 amplitude and its feature columns summed over slots 1..N, so one
    product gives every query's overlap. With ``shots``, query k's readout is
    sampled with ``rng_seeds[k]``. Returns one result per query, in order.
    """
    points = np.asarray(points, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    n, n_features = points.shape
    classical_values = lssvm_decision_values(model, points, queries)
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
    a = StateVector.from_amplitudes(layout, trained / trained_norm).amplitudes.real

    # Each probe has unit norm by construction unless its norm overflows; the
    # built probe would then be scaled to zero, which the StateVector norm
    # check refuses, so it is refused here the same way.
    with np.errstate(over="ignore"):
        probe_norms = np.sqrt(1.0 + n * np.einsum("ij,ij->i", queries, queries))
    if not np.isfinite(probe_norms).all():
        raise NumericalFailureError("probe state norm drifted to 0.0: its norm overflowed")
    scaled = queries / probe_norms[:, None]
    values = a[0, 0] / probe_norms + scaled @ a[1 : n + 1, :n_features].sum(axis=0)

    results = []
    for value, classical, rng_seed in zip(values.tolist(), classical_values.tolist(), rng_seeds):
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
    value: np.ndarray       # query . weights per query, weights from the normal equations
    value_svd: np.ndarray   # spectral form of the same predictions, query . pinv . targets
    weights: np.ndarray
    pinv: np.ndarray        # spectral pseudoinverse of the points on the rank support, (D, N)


def qlr_predict(points: np.ndarray, targets: np.ndarray, queries: np.ndarray) -> QlrPrediction:
    """Least-squares prediction for each query (one per row of ``queries``),
    computed two ways.

    The normal-equation route applies the Gram pseudoinverse; the spectral
    route applies the points' pseudoinverse ``pinv``, inverse singular values
    over the rank support at the relative cutoff PINV_CUTOFF. Both routes are
    solved once and applied to every query. They must agree to RESIDUAL_TOL
    on each query; data whose spectrum straddles either cutoff fails that
    check loudly instead of returning a silently noise-dominated prediction.
    """
    points = np.asarray(points, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    queries = np.asarray(queries, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] != targets.size:
        raise InvalidInputError("points and targets disagree on the number of rows")
    if queries.ndim != 2 or queries.shape[1] != points.shape[1]:
        raise InvalidInputError(
            f"queries of shape {queries.shape} do not match points with "
            f"{points.shape[1]} features; pass one query per row"
        )

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
    value = queries @ weights
    pinv = (vt[support].T / s[support]) @ u[:, support].T
    value_svd = queries @ (pinv @ targets)

    disagree = np.flatnonzero(np.abs(value - value_svd) > RESIDUAL_TOL * np.maximum(1.0, np.abs(value_svd)))
    if disagree.size:
        k = disagree[0]
        raise DegenerateRegressionError(
            f"normal-equation and spectral predictions disagree on query {k}: "
            f"{float(value[k])} vs {float(value_svd[k])}"
        )
    return QlrPrediction(value=value, value_svd=value_svd, weights=weights, pinv=pinv)


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

    The inverse-spectrum state is the points' pseudoinverse X+ from
    ``qlr_predict`` (inverse singular values over matched singular-direction
    pairs) scaled to unit norm, and it is overlapped with the unit
    query-target product state. Multiplying the overlap by the known
    normalization factor |X+|_F |targets| |query| recovers the classical
    prediction exactly.
    """
    points = np.asarray(points, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    fit = qlr_predict(points, targets, query[None, :])

    target_norm = float(np.linalg.norm(targets))
    query_norm = float(np.linalg.norm(query))
    if target_norm == 0.0 or query_norm == 0.0:
        raise InvalidInputError("targets and query must have nonzero norm")
    inv_norm = float(np.linalg.norm(fit.pinv))

    n, n_features = points.shape
    feat_qubits = ceil_log2(max(n_features, 2))
    row_qubits = ceil_log2(max(n, 2))
    feat_dim, row_dim = 1 << feat_qubits, 1 << row_qubits

    inverse_state = np.zeros((feat_dim, row_dim))
    inverse_state[:n_features, :n] = fit.pinv / inv_norm

    product_state = np.outer(
        _pad(query / query_norm, feat_dim), _pad(targets / target_norm, row_dim)
    )

    layout = [("feature", feat_qubits), ("row", row_qubits)]
    a = StateVector.from_amplitudes(layout, inverse_state)
    b = StateVector.from_amplitudes(layout, product_state)
    overlap = float(a.inner(b).real)

    rescale = inv_norm * target_norm * query_norm
    result = QlrDemoResult(
        prediction=overlap * rescale,
        classical_value=float(fit.value[0]),
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

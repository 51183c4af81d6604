"""Downstream learners run on original or compressed coordinates.

Two applications: a least-squares SVM whose decision values can also be read
off as inner products between two prepared states, and linear regression by
pseudoinverse whose prediction equals a rescaled overlap between an
inverse-spectrum state and the query/target product state. The classical
routes take one query per row and solve once for all of them. The SVM is
solved in the D-dimensional feature space, from one thin SVD of the centred
points, and its decision values are queries times the feature-space weights,
so no N x N kernel and no query x training-point kernel product is formed.
The regression demo builds both of its states explicitly, from the caller's
``qlr_predict`` fit. The SVM demo builds the trained state explicitly, once,
and reads every query's probe overlap with it in closed form, since a probe
holds only a unit slot-0 branch and the query repeated over the slots; it
returns one result whose fields are arrays over the queries. With shots the
demos sample the signed overlap through the ancilla-interference form of
the swap test (a plain swap test only yields the magnitude); shot-free they
read the exact inner product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateRegressionError,
    InvalidInputError,
    NumericalFailureError,
    SingularSystemError,
)
from .modes import check_gamma
from .statevector import StateVector, ceil_log2, check_shots, interference_probability, sample_outcome

PINV_CUTOFF = 1e-10
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class LssvmModel:
    bias: float                 # offset term
    coefficients: np.ndarray    # one dual weight per training point
    weights: np.ndarray         # points^T coefficients: one weight per feature
    gamma: float
    residual: float             # relative residual of the saddle system, |A x - b| / |b|


def lssvm_train(points: np.ndarray, labels: np.ndarray, gamma: float) -> LssvmModel:
    """Solve the least-squares SVM saddle system on the given coordinates.

    ``points`` (P, N x D) selects the space: pass the original rows or their
    compressed projections. This is the one check of the learner's inputs:
    ``gamma`` first, as the CLI refuses it (``modes.check_gamma``), then one
    label per row, each exactly +1 or -1 (so finite). The linear-kernel system

        [[0, 1^T], [1, P P^T + gamma * I]] (bias; coeffs) = (0; labels)

    is solved in the D-dimensional feature space; no N x N array is built.
    Centring eliminates the bias: with Pc = P - mean(P) and ybar the mean
    label, the weights w = P^T coeffs solve the ridge system
    (gamma * I + Pc^T Pc) w = Pc^T (labels - ybar), which one thin SVD
    Pc = U S V^T gives as w = V diag(s / (s^2 + gamma)) U^T (labels - ybar).
    Then bias = ybar - mean(P) . w and coeffs = (labels - P w - bias) / gamma.
    One step of iterative refinement solves the same system for the saddle
    residual and adds the correction: the weights come out accurate to
    round-off, but coefficients derived from them leave a residual that
    grows with |P|^2 / gamma, and the step brings it down to the level of
    the exact solution's. The cost is one thin SVD, O(N D min(N, D)) for
    tall and wide points alike, plus O(N D) products.

    ``residual`` is the relative residual |A x - b| / |b| of the full saddle
    system, formed with matrix-vector products (P (P^T coeffs) for the
    kernel term). That residual cannot fall below eps |P P^T| |coeffs| / |b|,
    which grows as the square of the data's scale, so the refusal reads the
    normwise backward error |A x - b| / (|A|_F |x| + |b|) instead (Higham,
    "Accuracy and Stability of Numerical Algorithms", ch. 7), which does not
    depend on the scale. |A|_F is bounded above by sqrt(2N) + |P|_F^2 +
    gamma sqrt(N), since |P P^T|_F <= tr(P P^T). A result that is not
    finite, or whose backward error is not at most 1e-6 (or cannot be
    formed because that bound overflows), is refused with
    SingularSystemError; the message prints the backward error as the
    residual, and names the overflow when there is one.
    """
    check_gamma(gamma)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise InvalidInputError("classification labels must be exactly +1 or -1")
    points = np.asarray(points, dtype=np.float64)
    n = labels.size
    if points.shape[0] != n:
        raise InvalidInputError("points and labels disagree on the number of rows")

    # Huge points overflow in here; the checks below refuse what comes out,
    # so the overflow is not also raised as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        mean_point = points.mean(axis=0)
        try:
            u, s, vt = np.linalg.svd(points - mean_point, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"feature-space solve failed ({exc}); a larger gamma regularizes it"
            ) from exc
        shrink = s / (s * s + gamma)
        # (gamma * I + Pc^T Pc)^-1 gamma mean(P): the weights' response to a
        # unit residual in the first row, which only the refinement sees.
        mean_response = mean_point - vt.T @ (s * shrink * (vt @ mean_point))

        def solve(first, rest):
            """(bias, coeffs, weights) for the right-hand side (first; rest)."""
            rest_mean = rest.mean()
            w = vt.T @ (shrink * (u.T @ (rest - rest_mean))) + first * mean_response
            b = rest_mean - mean_point @ w - gamma * first / n
            return b, (rest - points @ w - b) / gamma, w

        def saddle_residual(b, coeffs):
            kernel_part = points @ (points.T @ coeffs)
            return np.concatenate([[-coeffs.sum()], labels - kernel_part - gamma * coeffs - b])

        bias, coefficients, weights = solve(0.0, labels)
        # The weights are accurate to round-off as solved; the residual comes
        # from the coefficients derived from them, so only bias and
        # coefficients take the correction.
        correction = saddle_residual(bias, coefficients)
        d_bias, d_coefficients, _ = solve(correction[0], correction[1:])
        bias = float(bias + d_bias)
        coefficients = coefficients + d_coefficients
        residual_norm = np.linalg.norm(saddle_residual(bias, coefficients))
        label_norm = np.linalg.norm(labels)
        residual = float(residual_norm / max(label_norm, 1e-300))
        # An upper bound on |A|_F without the N x N kernel: P P^T is positive
        # semidefinite, so |P P^T|_F <= tr(P P^T) = |P|_F^2.
        points_sq = float(np.vdot(points, points))
        system_norm = math.sqrt(2.0 * n) + points_sq + gamma * math.sqrt(n)
        scale = system_norm * math.hypot(bias, np.linalg.norm(coefficients)) + label_norm
        backward_error = float(residual_norm / scale)
        overflowed = not math.isfinite(scale) and not math.isnan(backward_error)
        if overflowed:
            # An overflowed scale would read any finite residual as a zero
            # backward error; count it as unbounded instead.
            backward_error = math.inf
    if not (np.isfinite(bias) and np.isfinite(weights).all() and np.isfinite(coefficients).all()):
        raise SingularSystemError(
            f"saddle solve is not finite (bias {bias}); a larger gamma regularizes it"
        )
    if not backward_error <= 1e-6:
        advice = (
            f"the bound on |A|_F overflows (|P|_F^2 {points_sq:.3e}, gamma sqrt(N) "
            f"{gamma * math.sqrt(n):.3e}), so the backward error cannot be formed; "
            "lower gamma or rescale the points"
            if overflowed
            else "a larger gamma regularizes it"
        )
        raise SingularSystemError(f"saddle solve residual {backward_error:.3e} is not at most 1e-6; {advice}")
    return LssvmModel(
        bias=bias, coefficients=coefficients, weights=weights, gamma=gamma, residual=residual
    )


def lssvm_decision_values(model: LssvmModel, queries: np.ndarray) -> np.ndarray:
    """Decision value of every query (one per row of ``queries``): the
    query against the model's feature-space weights, plus the bias. The
    queries must live in the space the model was trained in."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise InvalidInputError(f"queries of shape {queries.shape}; pass one query per row")
    if queries.shape[1] != model.weights.size:
        raise InvalidInputError(
            f"queries have {queries.shape[1]} features, the model has {model.weights.size}"
        )
    return queries @ model.weights + model.bias


# -- swap-test classification demo ---------------------------------------------


@dataclass(frozen=True)
class OverlapDemoResult:
    """Signed-overlap readouts between two prepared states, one entry per query.

    ``value`` is each exact inner product scaled by the known positive state
    norms; ``estimate`` is its sampled counterpart and ``standard_error`` the
    estimate's (both None when shot-free, like ``shots``). ``sign`` reads the
    estimate when there is one, else the value. A query is inconclusive when
    its estimate is within three standard errors of zero; shot-free, none is.
    """

    value: np.ndarray
    classical_value: np.ndarray
    sign: np.ndarray
    classical_sign: np.ndarray
    agrees: np.ndarray
    estimate: np.ndarray | None
    standard_error: np.ndarray | None
    inconclusive: np.ndarray
    shots: int | None


def _sampled_signed_overlap(
    value: float, shots: int, rng_seed: int | None
) -> tuple[float, float, bool]:
    """Sample the interference readout whose ancilla-0 probability is
    (1 + value) / 2; returns (estimate, standard error, inconclusive), the
    last true when the estimate is within three standard errors of zero."""
    p0_hat = sample_outcome(interference_probability(value), shots, rng_seed) / shots
    estimate = 2.0 * p0_hat - 1.0
    stderr = 2.0 * math.sqrt(max(p0_hat * (1.0 - p0_hat), 1.0 / shots) / shots)
    return estimate, stderr, abs(estimate) < 3.0 * stderr


def qsvm_state_demo(
    model: LssvmModel,
    points: np.ndarray,
    queries: np.ndarray,
    shots: int | None = None,
    rng_seeds: Sequence[int] | None = None,
) -> OverlapDemoResult:
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
    sampled with ``rng_seeds[k]``, in query order. Returns one result whose
    fields are arrays over the queries, in order.
    """
    points = np.asarray(points, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    n, n_features = points.shape
    classical_values = lssvm_decision_values(model, queries)
    if shots is not None:
        check_shots(shots)
    if rng_seeds is not None and len(rng_seeds) != len(queries):
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
    a = StateVector.from_amplitudes(layout, trained / trained_norm).amplitudes

    # Each probe has unit norm by construction unless its norm overflows; the
    # built probe would then be scaled to zero, which the StateVector norm
    # check refuses, so it is refused here the same way.
    with np.errstate(over="ignore"):
        probe_norms = np.sqrt(1.0 + n * np.einsum("ij,ij->i", queries, queries))
    if not np.isfinite(probe_norms).all():
        raise NumericalFailureError("probe state norm drifted to 0.0: its norm overflowed")
    scaled = queries / probe_norms[:, None]
    values = a[0, 0] / probe_norms + scaled @ a[1 : n + 1, :n_features].sum(axis=0)

    estimate = stderr = None
    readout, inconclusive = values, np.zeros(values.shape, dtype=bool)
    if shots is not None:
        seeds = [None] * len(queries) if rng_seeds is None else rng_seeds
        draws = [_sampled_signed_overlap(value, shots, seed) for value, seed in zip(values.tolist(), seeds)]
        estimate, stderr, inconclusive = np.array(draws).reshape(-1, 3).T
        readout, inconclusive = estimate, inconclusive.astype(bool)
    positive, classical_positive = readout >= 0.0, classical_values >= 0.0
    return OverlapDemoResult(
        value=values,
        classical_value=classical_values,
        sign=np.where(positive, 1, -1),
        classical_sign=np.where(classical_positive, 1, -1),
        agrees=positive == classical_positive,
        estimate=estimate,
        standard_error=stderr,
        inconclusive=inconclusive,
        shots=shots,
    )


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
    estimate: float | None       # sampled prediction; None when shot-free, as are the next and shots
    standard_error: float | None
    inconclusive: bool           # sampled overlap within three standard errors of 0; never shot-free
    shots: int | None


def qlr_state_demo(
    fit: QlrPrediction,
    targets: np.ndarray,
    queries: np.ndarray,
    row: int,
    shots: int | None = None,
    rng_seed: int | None = None,
) -> QlrDemoResult:
    """Regression readout of query ``row`` as a state overlap.

    ``fit`` is ``qlr_predict(points, targets, queries)``: the demo reuses
    its pseudoinverse and its prediction for the query, so it decomposes
    nothing. The inverse-spectrum state is the points' pseudoinverse X+
    (inverse singular values over matched singular-direction pairs) scaled
    to unit norm, and it is overlapped with the unit query-target product
    state. Multiplying the overlap by the known normalization factor
    |X+|_F |targets| |query| recovers the classical prediction exactly.
    """
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    queries = np.asarray(queries, dtype=np.float64)
    n_features, n = fit.pinv.shape
    if targets.size != n or queries.shape != (fit.value.size, n_features):
        raise InvalidInputError(
            f"targets of size {targets.size} and queries of shape {queries.shape} "
            f"do not match a fit of {fit.value.size} queries on {n} x {n_features} points"
        )
    if not 0 <= row < fit.value.size:
        raise InvalidInputError(f"query row {row} is out of range for {fit.value.size} queries")
    query = queries[row]

    target_norm = float(np.linalg.norm(targets))
    query_norm = float(np.linalg.norm(query))
    if target_norm == 0.0 or query_norm == 0.0:
        raise InvalidInputError("targets and query must have nonzero norm")
    inv_norm = float(np.linalg.norm(fit.pinv))

    feat_qubits = ceil_log2(max(n_features, 2))
    row_qubits = ceil_log2(max(n, 2))
    feat_dim, row_dim = 1 << feat_qubits, 1 << row_qubits

    inverse_state = np.zeros((feat_dim, row_dim))
    inverse_state[:n_features, :n] = fit.pinv / inv_norm

    product_state = np.zeros((feat_dim, row_dim))
    product_state[:n_features, :n] = np.outer(query / query_norm, targets / target_norm)

    layout = [("feature", feat_qubits), ("row", row_qubits)]
    a = StateVector.from_amplitudes(layout, inverse_state)
    b = StateVector.from_amplitudes(layout, product_state)
    overlap = float(a.inner(b).real)

    rescale = inv_norm * target_norm * query_norm
    estimate = stderr = None
    inconclusive = False
    if shots is not None:
        estimate, stderr, inconclusive = _sampled_signed_overlap(overlap, shots, rng_seed)
        estimate, stderr = estimate * rescale, stderr * rescale
    return QlrDemoResult(
        prediction=overlap * rescale,
        classical_value=float(fit.value[row]),
        overlap=overlap,
        rescale_factor=rescale,
        estimate=estimate,
        standard_error=stderr,
        inconclusive=inconclusive,
        shots=shots,
    )

"""End-to-end compression pipeline and its bookkeeping.

The stages mirror the algorithm: encode the data, reveal the leading
spectrum by sampling the eigenvalue register, estimate the anchor
coefficients by swap tests, write component tokens, rotate them into an
ancilla, and post-select on recovering the anchor. Every stage reads one
eigensystem, the ``pca_oracle.SpectralModel`` its task decomposed once, with
its kept dimension and variance threshold. Each sampled step is a seeded
draw on numbers the model holds, the eigenvalues binned by label or one
squared coefficient, so only ``compress`` loads a state. An anchor is one
record, its ``AnchorProfile``, which keeps its signed overlaps with the kept
directions (``SpectralModel.overlaps``), formed once per draw; every stage
reads the anchor through them. Three run modes control where randomness enters:

  ideal      exact per-component tokens, exact coefficients, exact
             post-selection probability (isolates coefficient-error studies)
  quantized  fixed-width eigenvalue labels, exact everything else
  sampled    fixed-width labels, sampled spectrum discovery, swap-test
             coefficient estimates, and a sampled success frequency

Every stochastic point draws from a seeded generator, so a (config, seed)
pair pins the whole run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import pca_oracle, qram_store, sv_engine
from .errors import (
    InvalidInputError,
    OutOfRangeError,
    UnderSampledError,
    WeakAnchorError,
)
# The run-mode names live in ``modes``; the pipeline re-exports all of them.
from .modes import MODE_IDEAL, MODE_QUANTIZED, MODE_SAMPLED, RUN_MODES, anchor_shots, check_ledger_accuracy
from .modes import check_seed, check_shots, check_subset, read_integer
from .pca_oracle import DataMatrix, OverlapReport, SpectralModel
from .statevector import StateVector
from .sv_engine import PhaseConfig

SCOPE_FULL = "full"
SCOPE_SUBSET = "subset"

BETA_FLOOR = 1e-3
MAX_ANCHOR_ATTEMPTS = 8

# Padded data rows times seeds that the scaling sweep projects and rotates in
# one pass. A pass holds the kept branches of all its seeds over the whole
# grid at once. Past about this size, stacking more seeds saved no time, and
# with all 8 CLI seeds in one pass the peak memory of a 16384x16 scaling run
# doubled.
SWEEP_STACK_ROWS = 512


@dataclass(frozen=True)
class AnchorProfile:
    """The accepted anchor row: its (d,) signed ``overlaps`` with the kept
    directions (``SpectralModel.overlaps``), from which every later stage
    reads the anchor, and its coefficients, true and estimated."""

    anchor_index: int
    overlaps: np.ndarray     # <v_j | anchor>, signs and all, j over the kept components
    beta: np.ndarray         # exact |<v_j | anchor>|, the capped magnitudes of ``overlaps``
    beta_hat: np.ndarray     # estimates actually used by the rotation stage
    rotation_constant: float  # C = min_j beta_hat_j
    residual: float           # 1 - sum beta_j^2 (anchor mass outside the kept span)
    eps_beta: float
    shots_per_coefficient: int | None  # swap-test shots per coefficient; None when exact


def _polylog(x: float) -> float:
    return math.log2(max(x, 2.0))


@dataclass(frozen=True)
class ResourceLedger:
    """Symbolic per-stage costs for one compression run.

    The per-repetition stage costs exclude the amplitude-amplification
    factor; ``amplification_reps`` carries it separately and
    ``amplified_cost`` folds it back in for the post-preparation stages.
    """

    n_rows: int
    n_cols: int
    dim: int
    eps_lambda: float
    eps_beta: float
    success_probability: float
    spectrum_copies: float
    anchor_swap_tests: float
    label_write_cost: float
    index_write_gates: float
    label_uncompute_cost: float
    rotation_gates: float
    postselect_cost: float
    amplification_reps: int

    def amplified_cost(self) -> dict[str, float]:
        reps = float(self.amplification_reps)
        return {
            "label_write_cost": reps * self.label_write_cost,
            "index_write_gates": reps * self.index_write_gates,
            "label_uncompute_cost": reps * self.label_uncompute_cost,
            "rotation_gates": reps * self.rotation_gates,
            "postselect_cost": reps * self.postselect_cost,
        }


def ledger_predict(
    n_rows: int,
    n_cols: int,
    dim: int,
    eps_lambda: float,
    eps_beta: float,
    success_probability: float,
) -> ResourceLedger:
    """Instantiate the asymptotic cost model at concrete parameters.

    Scaling knobs: the spectrum stage pays inverse-cubically in the
    eigenvalue resolution, coefficient estimation inverse-quadratically in
    the coefficient accuracy, the token/rotation circuits are linear in the
    kept dimension up to a log(dim+1) register factor, and the repetition
    count follows the amplitude-amplification formula at the given success
    probability.
    """
    if dim < 1 or n_rows < 1 or n_cols < 1:
        raise OutOfRangeError("dimensions must be >= 1")
    if not 0.0 < eps_lambda < 1.0:
        raise OutOfRangeError(f"eps_lambda must lie in (0, 1), got {eps_lambda}")
    bits = 1.0 - math.log2(eps_lambda)
    check_ledger_accuracy(eps_beta, int(bits) if bits.is_integer() else bits)
    poly_nd = _polylog(float(n_rows) * float(n_cols))
    poly_d = _polylog(float(n_cols))
    reg_factor = math.log2(dim + 1.0)
    return ResourceLedger(
        n_rows=n_rows,
        n_cols=n_cols,
        dim=dim,
        eps_lambda=eps_lambda,
        eps_beta=eps_beta,
        success_probability=success_probability,
        spectrum_copies=dim * poly_nd / (eps_beta**2 * eps_lambda**3),
        anchor_swap_tests=dim * poly_d / eps_beta**2,
        label_write_cost=poly_nd / eps_lambda**3,
        index_write_gates=dim * math.log2(1.0 / eps_lambda) * reg_factor,
        label_uncompute_cost=poly_nd / eps_lambda**3,
        rotation_gates=dim * reg_factor,
        postselect_cost=poly_d,
        amplification_reps=sv_engine.amplification_repetitions(success_probability),
    )


# -- spectrum discovery ------------------------------------------------------


def extract_spectrum(
    model: SpectralModel,
    cfg: PhaseConfig,
    sampling_budget: int,
    rng_seed: int | None,
) -> dict[int, int]:
    """Check the model's labels (``sv_engine.check_label_distinctness``),
    then discover the leading ones by measuring the eigenvalue register
    ``sampling_budget`` times. The draws come from that register's exact
    law, the eigenvalues binned by label (``sv_engine.eigen_marginal_state``),
    so neither the data state nor the labelled state is built.

    Returns the label histogram, label -> count, once every one of the
    model's ``selected_dim`` kept labels was drawn and their cumulative
    frequency reaches its variance threshold; otherwise raises
    UnderSampledError carrying the histogram and the budget.
    """
    kept = sv_engine.check_label_distinctness(model, cfg)[: model.selected_dim]
    labels, register = sv_engine.eigen_marginal_state(model, cfg)
    sample = sv_engine.measure_register(register, "eigen", sampling_budget, rng_seed)
    histogram = {int(labels[value]): count for value, count in sample.counts.items()}
    # Coverage comes from the integer counts: a sum of per-label float
    # frequencies can round below 1.0 even when every draw hit a kept label.
    kept_counts = [histogram.get(int(label), 0) for label in kept]
    found = np.count_nonzero(kept_counts)
    covered = sum(kept_counts) / sampling_budget
    if found < model.selected_dim or covered < model.threshold:
        raise UnderSampledError(
            f"budget {sampling_budget} found {found}/{model.selected_dim} leading labels "
            f"with cumulative frequency {covered:.4f} (threshold {model.threshold})",
            histogram,
            sampling_budget,
        )
    return histogram


def default_sampling_budget(dim: int) -> int:
    return max(200, 50 * dim)


# -- anchor estimation -------------------------------------------------------


def _anchor_profile(
    overlaps: np.ndarray, anchor_index: int, beta: np.ndarray, beta_hat: np.ndarray, eps_beta: float, shots: int | None
) -> AnchorProfile:
    """The profile of exact coefficients ``beta`` and estimates ``beta_hat``:
    C = min_j beta_hat_j, residual = max(1 - sum beta_j^2, 0)."""
    return AnchorProfile(
        anchor_index=anchor_index,
        overlaps=overlaps,
        beta=beta,
        beta_hat=beta_hat,
        rotation_constant=float(beta_hat.min()),
        residual=max(1.0 - float(np.sum(beta**2)), 0.0),
        eps_beta=eps_beta,
        shots_per_coefficient=shots,
    )


def exact_anchor_profile(overlaps: np.ndarray, anchor_index: int, eps_beta: float) -> AnchorProfile:
    """Shot-free profile: the estimates equal the exact coefficients, the
    capped magnitudes (``pca_oracle.coefficients``) of row
    ``anchor_index``'s kept ``overlaps`` (``SpectralModel.overlaps``)."""
    beta = pca_oracle.coefficients(overlaps)
    if float(beta.min(initial=1.0)) < BETA_FLOOR:
        j = int(np.argmin(beta))
        raise WeakAnchorError(
            f"anchor row {anchor_index} has coefficient {beta[j]:.3e} on component {j} "
            f"below the floor {BETA_FLOOR}; redraw the anchor",
            anchor_index=anchor_index,
        )
    return _anchor_profile(overlaps, anchor_index, beta, beta.copy(), eps_beta, None)


def estimate_anchor(
    overlaps: np.ndarray, anchor_index: int, eps_beta: float, rng_seed: int | None
) -> AnchorProfile:
    """Estimate every kept anchor coefficient by a seeded swap test of row
    ``anchor_index`` against the corresponding kept principal direction,
    ``modes.anchor_shots(eps_beta)`` shots each. A swap test reads only the
    squared overlap, beta_k^2, with beta the capped magnitudes
    (``pca_oracle.coefficients``) of the row's kept ``overlaps``
    (``SpectralModel.overlaps``), so no state is built.

    Estimates are sqrt(max(0, 2 p0_hat - 1)). Any estimate below the floor
    raises WeakAnchorError so the caller can redraw the anchor row.
    """
    shots = anchor_shots(eps_beta)
    rng = np.random.default_rng(rng_seed)
    d = overlaps.size
    seeds = rng.integers(0, 2**63 - 1, size=d)

    beta = pca_oracle.coefficients(overlaps)
    beta_hat = np.empty(d)
    for k in range(d):
        result = sv_engine.swap_test(beta[k] ** 2, shots, int(seeds[k]))
        beta_hat[k] = math.sqrt(max(result.overlap_sq_raw, 0.0))
    if float(beta_hat.min(initial=1.0)) < BETA_FLOOR:
        j = int(np.argmin(beta_hat))
        raise WeakAnchorError(
            f"estimated coefficient {beta_hat[j]:.3e} on component {j} for anchor row "
            f"{anchor_index} is below the floor {BETA_FLOOR}; redraw the anchor",
            anchor_index=anchor_index,
        )
    return _anchor_profile(overlaps, anchor_index, beta, beta_hat, eps_beta, shots)


def _check_anchor_index(data: DataMatrix, anchor_index: int | None) -> None:
    """Refuse a fixed anchor row that is not an integer (``read_integer``)
    or that ``data`` does not have."""
    if anchor_index is not None and not 0 <= read_integer(anchor_index, "anchor index") < data.n_rows:
        raise OutOfRangeError(f"anchor index {anchor_index} out of range for {data.n_rows} rows")


def _subset_rows(data: DataMatrix, subset: Sequence[int] | None) -> np.ndarray:
    """The distinct rows ``subset`` names, ascending, or every row without
    one. An empty subset, a row that is not an integer (``read_integer``)
    and a row that ``data`` does not have are refused."""
    check_subset(subset)
    if subset is None:
        return np.arange(data.n_rows)
    # Distinct and ascending; np.unique would import numpy.ma.
    rows = np.sort([read_integer(row, "subset row") for row in subset])
    rows = rows[np.append(True, rows[1:] != rows[:-1])]
    if rows[0] < 0 or rows[-1] >= data.n_rows:
        raise OutOfRangeError(f"subset rows must lie in [0, {data.n_rows})")
    return rows


def select_anchor(
    data: DataMatrix,
    model: SpectralModel,
    rng: np.random.Generator,
    *,
    eps_beta: float = 0.01,
    anchor_index: int | None = None,
    beta_seed: int | None = None,
) -> tuple[AnchorProfile, tuple[int, ...]]:
    """Choose the anchor row whose coefficients scale the rotation.

    Rows are drawn uniformly from ``rng`` until one has every kept
    coefficient at or above BETA_FLOOR, for at most MAX_ANCHOR_ATTEMPTS
    draws. A fixed ``anchor_index`` is the only candidate, and its
    WeakAnchorError propagates unchanged. With a ``beta_seed`` the
    coefficients are estimated by swap tests seeded by it; without one they
    are exact. Each draw forms its row's kept overlaps once
    (``SpectralModel.overlaps``), and the candidate is judged from them
    alone: its coefficients are their magnitudes, which no eigenvector sign
    changes. Returns the accepted row's profile, which keeps its overlaps,
    signs and all, and the rows drawn; ``model`` is not copied. A fixed
    ``anchor_index`` outside the data is refused before any overlap is
    formed.
    """
    _check_anchor_index(data, anchor_index)
    attempts: list[int] = []
    last_error: WeakAnchorError | None = None
    for _ in range(1 if anchor_index is not None else MAX_ANCHOR_ATTEMPTS):
        anchor = anchor_index if anchor_index is not None else int(rng.integers(data.n_rows))
        attempts.append(anchor)
        overlaps = model.overlaps(data, anchor, model.selected_dim)
        try:
            if beta_seed is None:
                profile = exact_anchor_profile(overlaps, anchor, eps_beta)
            else:
                profile = estimate_anchor(overlaps, anchor, eps_beta, beta_seed)
        except WeakAnchorError as exc:
            if anchor_index is not None:
                raise
            last_error = exc
            continue
        return profile, tuple(attempts)
    raise WeakAnchorError(
        f"no usable anchor after {len(attempts)} draw(s) {attempts}: {last_error}",
        anchor_index=attempts[-1],
        anchors_tried=attempts,
    )


# -- compression --------------------------------------------------------------


@dataclass(frozen=True)
class CompressionReport:
    scope: str
    run_mode: str
    n_rows: int
    n_cols: int
    selected_dim: int
    threshold: float
    variance_captured: float
    fidelity: float
    success_probability: float
    success_probability_identity: float
    amplification_reps: int
    rotation_constant: float
    anchor_index: int
    eps_beta: float
    eps_lambda: float
    sampled_success_probability: float | None
    postselect_shots: int | None
    overlap: OverlapReport
    ledger: ResourceLedger


@dataclass(frozen=True)
class CompressResult:
    state: StateVector
    report: CompressionReport
    compressed: np.ndarray  # (N, d), read-only: the anchor-signed projection


def _identity_success_probability(
    compressed: np.ndarray,
    profile: AnchorProfile,
    data: DataMatrix,
    rows: np.ndarray,
) -> float:
    """Closed-form success probability: C^2 sum (y_ij beta_j / beta_hat_j)^2
    over the in-scope rows, normalized by those rows' squared data norms
    (``DataMatrix.row_norms``), capped at 1 (on rank-1 data it rounds just
    above)."""
    ratio = profile.beta / profile.beta_hat
    y = compressed[rows] * ratio[None, :]
    denom = float(np.sum(data.row_norms[rows] ** 2))
    return min(float(profile.rotation_constant**2 * np.sum(y**2) / denom), 1.0)


def compress(
    data: DataMatrix,
    model: SpectralModel,
    profile: AnchorProfile,
    cfg: PhaseConfig,
    *,
    subset: Sequence[int] | None = None,
    postselect_shots: int | None = None,
    rng_seed: int | None = None,
) -> CompressResult:
    """Run the compression circuit end to end on exact amplitudes.

    The inputs decide the scope: by default the whole dataset state is
    compressed ('full'); a ``subset`` of rows compresses its renormalized
    restriction ('subset'). Either way the output state carries component
    tokens 1..dim with label 0 unused, and the report compares it against
    the classical projection; in subset scope both are restricted to the
    subset's rows by the same ``restrict_register`` call. The data state is loaded
    from ``data``.
    The anchor enters as the profile's (d,) kept overlaps with ``model``'s
    directions (``AnchorProfile.overlaps``), the anchor as the projection
    undoes it. The circuit reads no sign of ``model``'s
    directions: it leaves token j+1 with the sign of <v_j|anchor>, so the
    classical reference, ``CompressResult.compressed``, is the projection
    onto ``model``'s directions with its columns flipped by the overlaps'
    signs (``pca_oracle._overlap_signs``). Negation is exact. It is made
    read-only after the flip, so the report's overlap audit
    (``pca_oracle.OverlapReport``), which keeps it, always rebuilds its
    deviations from the bits its statistics came from.
    """
    d = model.selected_dim
    if profile.overlaps.size != d:
        raise InvalidInputError("anchor profile and model disagree on the kept dimension")

    scope = SCOPE_FULL if subset is None else SCOPE_SUBSET
    rows = _subset_rows(data, subset)

    state = qram_store.prepare_data_state(data)
    if scope == SCOPE_SUBSET:
        state, _ = state.restrict_register("row", rows)

    [projected], p_anchor = sv_engine.project_anchor(model, cfg, state, profile.overlaps[None])
    # The rotated state is twice the projected one; no name keeps it alive
    # through the oracle comparison below, where a run's memory peaks.
    post = sv_engine.postselect(
        sv_engine.apply_cr_beta(projected, profile.beta_hat, profile.rotation_constant),
        float(p_anchor[0]),
        shots=postselect_shots,
        rng_seed=rng_seed,
    )

    # Oracle comparison.
    compressed = pca_oracle.project(data, model)
    compressed *= pca_oracle._overlap_signs(profile.overlaps)
    compressed.flags.writeable = False
    reference = pca_oracle.expected_compressed_state(compressed)
    if scope == SCOPE_SUBSET:
        reference, _ = reference.restrict_register("row", rows)
    overlap = pca_oracle.pairwise_overlap_report(data, compressed)

    fidelity = post.state.fidelity(reference)
    identity_p = _identity_success_probability(compressed, profile, data, rows)

    ledger = ledger_predict(
        n_rows=data.n_rows,
        n_cols=data.n_cols,
        dim=d,
        eps_lambda=cfg.eigenvalue_resolution,
        eps_beta=profile.eps_beta,
        success_probability=post.probability,
    )
    report = CompressionReport(
        scope=scope,
        run_mode=cfg.mode,
        n_rows=data.n_rows,
        n_cols=data.n_cols,
        selected_dim=d,
        threshold=model.threshold,
        variance_captured=model.variance_captured,
        fidelity=fidelity,
        success_probability=post.probability,
        success_probability_identity=identity_p,
        amplification_reps=ledger.amplification_reps,
        rotation_constant=profile.rotation_constant,
        anchor_index=profile.anchor_index,
        eps_beta=profile.eps_beta,
        eps_lambda=cfg.eigenvalue_resolution,
        sampled_success_probability=post.sampled_probability,
        postselect_shots=post.shots,
        overlap=overlap,
        ledger=ledger,
    )
    return CompressResult(state=post.state, report=report, compressed=compressed)


# -- run orchestration ---------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    """What ``run_compression`` built; the accepted anchor's signs show only
    in ``result.compressed``, the anchor-signed projection."""

    data: DataMatrix
    model: SpectralModel  # the run's one decomposition, with row-0 signs
    cfg: PhaseConfig
    profile: AnchorProfile
    result: CompressResult
    anchor_attempts: tuple[int, ...]


def run_compression(
    data: DataMatrix,
    *,
    threshold: float = 0.95,
    run_mode: str = MODE_IDEAL,
    bits: int = 6,
    eps_beta: float = 0.01,
    shots: int = 100_000,
    seed: int | None = 0,
    anchor_index: int | None = None,
    subset: Sequence[int] | None = None,
) -> RunResult:
    """Whole pipeline: one decomposition and its label check, with the
    spectrum drawn in sampled mode (``extract_spectrum``), then seeded
    anchor selection (see ``select_anchor``), then compression of the whole
    data state or of the rows ``subset`` names (see ``compress``). A fixed
    ``anchor_index`` disables the weak-anchor redraw. Each setting is
    refused as the CLI refuses it, by its check in ``modes``."""
    check_ledger_accuracy(eps_beta, bits)
    check_seed(seed)
    check_shots(shots)
    _subset_rows(data, subset)
    _check_anchor_index(data, anchor_index)
    cfg = PhaseConfig(run_mode, bits)
    sampled = run_mode == MODE_SAMPLED
    if sampled:
        anchor_shots(eps_beta)  # the swap tests' shot count, before the decomposition
    rng = np.random.default_rng(seed)
    anchor_seed, spectrum_seed, beta_seed, post_seed = (
        int(s) for s in rng.integers(0, 2**63 - 1, size=4)
    )
    model = pca_oracle.svd_decompose(data, threshold)
    if sampled:
        extract_spectrum(model, cfg, default_sampling_budget(model.selected_dim), spectrum_seed)
    else:
        sv_engine.check_label_distinctness(model, cfg)
    profile, attempts = select_anchor(
        data,
        model,
        np.random.default_rng(anchor_seed),
        eps_beta=eps_beta,
        anchor_index=anchor_index,
        beta_seed=beta_seed if sampled else None,
    )
    result = compress(
        data,
        model,
        profile,
        cfg,
        subset=subset,
        postselect_shots=shots if sampled else None,
        rng_seed=post_seed,
    )
    return RunResult(
        data=data,
        model=model,
        cfg=cfg,
        profile=profile,
        result=result,
        anchor_attempts=attempts,
    )


# -- coefficient-error scaling -------------------------------------------------


PERTURB_ALTERNATING = "alternating"


def perturb_beta(beta: np.ndarray, eps: float | np.ndarray) -> np.ndarray:
    """Alternating coefficient perturbations of magnitude ``eps``: +eps on
    even components, -eps on odd ones, clipped to [BETA_FLOOR, 1]. One
    magnitude gives coefficients shaped like ``beta``, and a grid (E,)
    gives one row per magnitude: (E, d) for one list (d,), (S, E, d) for a
    stack of lists shaped (S, 1, d)."""
    eps = np.asarray(eps, dtype=np.float64)[..., None]
    signs = np.where(np.arange(beta.shape[-1]) % 2 == 0, 1.0, -1.0)
    return np.clip(beta + signs * eps, BETA_FLOOR, 1.0)


@dataclass(frozen=True)
class ScalingRow:
    eps_beta: float
    mean_infidelity: float
    mean_deviation: float


@dataclass(frozen=True)
class ScalingResult:
    """Final-state error versus the coefficient perturbation magnitude.

    ``mean_deviation`` rows track |phi - <psi|phi> psi|, the part of the
    produced state phi orthogonal to the ideal state psi, which is the sine
    of the angle between them; it grows linearly in small perturbations
    where the infidelity itself is quadratic. It is computed from that
    residual vector, not as sqrt(1 - fidelity^2), which would turn a
    round-off infidelity into a deviation of its square root.
    """

    rows: tuple[ScalingRow, ...]
    slope: float                 # least-squares slope of deviation vs eps, through the origin
    slope_scaled: float          # same fit against eps / sqrt(dim)
    dims: tuple[int, ...]        # (the kept dimension,)
    perturbation: str
    n_seeds: int
    model: SpectralModel         # the dataset's decomposition (row-0 signs)


def error_scaling_experiment(
    data: DataMatrix,
    eps_grid: Sequence[float],
    seeds: Sequence[int],
    *,
    threshold: float = 0.95,
) -> ScalingResult:
    """Sweep alternating coefficient perturbations (``perturb_beta``) over
    seeded anchor draws on one dataset, ideal mode, whose exact
    per-component tokens need no label width.

    The dataset has one decomposition, data state, label check and
    reference projection. Each seed draws its anchor with the usual seeded redraw
    (``select_anchor``); its coefficients are perturbed by each grid
    magnitude, and the final-state error is averaged over the seeds per grid
    point. The seeds' anchors, as their overlaps (``AnchorProfile.overlaps``),
    are projected in one ``project_anchor`` call, and every (seed, grid
    point) rotation in one ``sv_engine.postselect_rotations``, with the
    refusals and the amplitudes of ``apply_cr_beta`` then ``postselect`` at
    each point. Past ``SWEEP_STACK_ROWS`` padded rows times seeds, the
    projection and the rotation take the seeds in several passes. Each
    pass's (seed, grid point) stack is scored in array passes
    (``pca_oracle._reference_errors``), bit for bit the per-point fidelity and
    deviation, and each row sums them over the seeds in order.
    """
    if not eps_grid:
        raise InvalidInputError("eps grid must be nonempty")
    if not seeds:
        raise InvalidInputError("seed list must be nonempty")
    for seed in seeds:
        check_seed(seed)
    grid = np.array([float(e) for e in eps_grid])
    if np.any(grid < 0.0):
        raise OutOfRangeError("perturbation magnitudes must be nonnegative")
    if not np.all(np.isfinite(grid)):
        raise OutOfRangeError(f"perturbation magnitudes must be finite, got {grid.tolist()}")

    cfg = PhaseConfig(MODE_IDEAL)
    model = pca_oracle.svd_decompose(data, threshold)
    state = qram_store.prepare_data_state(data)
    d = model.selected_dim
    sv_engine.check_label_distinctness(model, cfg)  # the spectrum stage, before any anchor is drawn
    profiles = [select_anchor(data, model, np.random.default_rng(int(seed)))[0] for seed in seeds]
    # Each seed's reference is the one reference state with that anchor's
    # signs on tokens 1..d; negating a column of the projection is exact.
    reference = pca_oracle.expected_compressed_state(pca_oracle.project(data, model)).amplitudes
    infid = np.zeros(len(grid))
    dev = np.zeros(len(grid))
    step = max(1, SWEEP_STACK_ROWS // state.register("row").dim)
    for start in range(0, len(profiles), step):
        batch = profiles[start : start + step]
        overlaps = np.array([profile.overlaps for profile in batch])
        projected, p_anchor = sv_engine.project_anchor(model, cfg, state, overlaps)
        beta_hat = perturb_beta(np.array([profile.beta for profile in batch])[:, None, :], grid)
        kept, _ = sv_engine.postselect_rotations(projected, p_anchor, beta_hat, beta_hat.min(axis=-1))
        pass_infid, pass_dev = pca_oracle._reference_errors(kept, reference, overlaps)
        # Seed by seed, so each row sums in seed order.
        for seed_infid, seed_dev in zip(pass_infid, pass_dev):
            infid += seed_infid
            dev += seed_dev

    infid /= len(seeds)
    dev /= len(seeds)
    rows = tuple(ScalingRow(float(grid[k]), float(infid[k]), float(dev[k])) for k in range(len(grid)))

    nz = grid > 0.0
    if np.any(nz):
        slope = float(np.sum(grid[nz] * dev[nz]) / np.sum(grid[nz] ** 2))
    else:
        slope = 0.0
    return ScalingResult(
        rows=rows,
        slope=slope,
        slope_scaled=slope * math.sqrt(float(d)),
        dims=(d,),
        perturbation=PERTURB_ALTERNATING,
        n_seeds=len(seeds),
        model=model,
    )

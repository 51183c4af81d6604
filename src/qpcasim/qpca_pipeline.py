"""End-to-end compression pipeline and its bookkeeping.

The stages mirror the algorithm: encode the data, reveal the leading
spectrum by sampling the eigenvalue register, estimate the anchor
coefficients by swap tests, write component tokens, rotate them into an
ancilla, and post-select on recovering the anchor. The register's law is the
eigenvalues binned by label, so sampling it loads no data state; ``compress``
loads the one state it compresses. Three run modes control where randomness
enters:

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
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from . import pca_oracle, qram_store, sv_engine
from .errors import (
    InvalidInputError,
    OutOfRangeError,
    UnderSampledError,
    WeakAnchorError,
)
# The run-mode names live in ``modes``; the pipeline re-exports all of them.
from .modes import MODE_IDEAL, MODE_QUANTIZED, MODE_SAMPLED, RUN_MODES
from .pca_oracle import CompressedMatrix, DataMatrix, SpectralModel
from .qram_store import QramTree
from .statevector import StateVector
from .sv_engine import PhaseConfig, RhoSpec

SCOPE_FULL = "full"
SCOPE_SUBSET = "subset"
SCOPE_SINGLE = "single"

BETA_FLOOR = 1e-3
MAX_ANCHOR_ATTEMPTS = 8
ANCHOR_SHOTS_CONSTANT = 4.0

# Padded data rows times seeds that the scaling sweep projects and rotates in
# one pass. A pass holds the kept branches of all its seeds over the whole
# grid at once. Past about this size, stacking more seeds saved no time, and
# with all 8 CLI seeds in one pass the peak memory of a 16384x16 scaling run
# doubled.
SWEEP_STACK_ROWS = 512


def label_mode_for(run_mode: str) -> str:
    if run_mode not in RUN_MODES:
        raise InvalidInputError(f"unknown run mode {run_mode!r}; expected one of {RUN_MODES}")
    return sv_engine.LABEL_MODE_IDEAL if run_mode == MODE_IDEAL else sv_engine.LABEL_MODE_QUANTIZED


@dataclass(frozen=True)
class SpectrumSample:
    """Leading spectrum as revealed by (or in lieu of) sampling, in spectral
    order: kept component j has label ``labels[j]`` on the eigenvalue
    register and token j+1. None of it depends on the anchor row; the
    eigenvector signs live in the ``RhoSpec``."""

    labels: np.ndarray        # (dim,) value written on the eigenvalue register
    frequencies: np.ndarray   # (dim,) observed sampling frequency, or the exact eigenvalue
    histogram: dict[int, int] | None
    budget: int | None

    @property
    def dim(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class AnchorProfile:
    """Anchor overlap coefficients, true and estimated."""

    anchor_index: int
    beta: np.ndarray         # exact <v_j | anchor>, j over the kept components
    beta_hat: np.ndarray     # estimates actually used by the rotation stage
    rotation_constant: float  # C = min_j beta_hat_j
    residual: float           # 1 - sum beta_j^2 (anchor mass outside the kept span)
    eps_beta: float
    shots_per_coefficient: int | None = None


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
    if not 0.0 < eps_lambda < 1.0 or not 0.0 < eps_beta < 1.0:
        raise OutOfRangeError("accuracy parameters must lie in (0, 1)")
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


def exact_spectrum(rho: RhoSpec, cfg: PhaseConfig, dim: int) -> SpectrumSample:
    """Leading spectrum taken straight from the oracle eigensystem, with the
    exact eigenvalues standing in for observed frequencies."""
    if not 1 <= dim <= rho.eigenvectors.shape[1]:
        raise OutOfRangeError(f"kept dimension {dim} out of range [1, {rho.eigenvectors.shape[1]}]")
    labels = sv_engine.check_label_distinctness(rho, cfg, dim)
    return SpectrumSample(labels=labels[:dim], frequencies=rho.eigenvalues[:dim], histogram=None, budget=None)


def extract_spectrum(
    rho: RhoSpec,
    cfg: PhaseConfig,
    sampling_budget: int,
    rng_seed: int | None,
    *,
    dim: int,
    threshold: float,
) -> SpectrumSample:
    """Discover the leading labels by repeatedly preparing the labeled state
    and measuring the eigenvalue register. The draws come from that
    register's exact distribution, the eigenvalues of ``rho`` binned by
    label (``sv_engine.eigen_marginal_state``), so neither the data state nor
    the labelled state is built.

    Succeeds when every one of the leading ``dim`` labels was observed and
    their cumulative empirical frequency reaches the variance threshold;
    otherwise raises UnderSampledError carrying the partial sample. The
    labels are ``exact_spectrum``'s, with the observed frequencies.
    """
    if sampling_budget < 1:
        raise InvalidInputError("sampling budget must be >= 1")
    exact = exact_spectrum(rho, cfg, dim)
    sample = sv_engine.measure_register(sv_engine.eigen_marginal_state(rho, cfg), "eigen", sampling_budget, rng_seed)
    # Coverage comes from the integer counts: a sum of per-label float
    # frequencies can round below 1.0 even when every draw hit a kept label.
    kept_counts = np.array([sample.counts.get(int(label), 0) for label in exact.labels])
    found = int(np.count_nonzero(kept_counts))
    covered = int(kept_counts.sum()) / sampling_budget
    result = replace(exact, frequencies=kept_counts / sampling_budget, histogram=sample.counts, budget=sampling_budget)
    if found < dim or covered < threshold:
        raise UnderSampledError(
            f"budget {sampling_budget} found {found}/{dim} leading labels "
            f"with cumulative frequency {covered:.4f} (threshold {threshold})",
            partial=result,
        )
    return result


def default_sampling_budget(dim: int) -> int:
    return max(200, 50 * dim)


# -- anchor estimation -------------------------------------------------------


def _true_beta(rho: RhoSpec, dim: int, anchor: StateVector) -> np.ndarray:
    """Overlaps of the prepared anchor state with the leading ``dim`` eigenvectors of ``rho``.

    Both are unit vectors, so an overlap is at most 1; one that rounds above
    it (a row on a principal direction, as in rank-1 data) is capped at 1."""
    amps = anchor.amplitudes.real
    beta = np.empty(dim)
    for k in range(dim):
        padded = np.zeros(amps.size)
        padded[: rho.dim] = rho.eigenvectors[:, k]
        beta[k] = float(padded @ amps)
    return np.minimum(beta, 1.0, out=beta)


def _vector_state(vector: np.ndarray, like: StateVector) -> StateVector:
    """``vector``, zero-padded, on the register layout of ``like``."""
    padded = np.zeros(like.amplitudes.size, dtype=np.complex128)
    padded[: vector.size] = vector
    return StateVector.from_amplitudes(like.layout(), padded)


def exact_anchor_profile(
    anchor: StateVector,
    rho: RhoSpec,
    spectrum: SpectrumSample,
    anchor_index: int,
    *,
    eps_beta: float = 0.01,
) -> AnchorProfile:
    """Shot-free profile: the estimates equal the exact coefficients, the
    overlaps of row ``anchor_index``'s state ``anchor``
    (``qram_store.prepare_row_state``) with the eigenvectors of ``rho``."""
    beta = _true_beta(rho, spectrum.dim, anchor)
    if float(beta.min(initial=1.0)) < BETA_FLOOR:
        j = int(np.argmin(beta))
        raise WeakAnchorError(
            f"anchor row {anchor_index} has coefficient {beta[j]:.3e} on component {j} "
            f"below the floor {BETA_FLOOR}; redraw the anchor",
            anchor_index=anchor_index,
        )
    return AnchorProfile(
        anchor_index=anchor_index,
        beta=beta,
        beta_hat=beta.copy(),
        rotation_constant=float(beta.min()),
        residual=max(1.0 - float(np.sum(beta**2)), 0.0),
        eps_beta=eps_beta,
    )


def estimate_anchor(
    anchor: StateVector,
    rho: RhoSpec,
    spectrum: SpectrumSample,
    eps_beta: float,
    rng_seed: int | None,
    *,
    anchor_index: int,
) -> AnchorProfile:
    """Estimate every anchor coefficient by a seeded swap test of row
    ``anchor_index``'s state ``anchor`` (``qram_store.prepare_row_state``)
    against the corresponding eigenvector state of ``rho``,
    ceil(c / eps_beta^2) shots each.

    Estimates are sqrt(max(0, 2 p0_hat - 1)). Any estimate below the floor
    raises WeakAnchorError so the caller can redraw the anchor row.
    """
    if not 0.0 < eps_beta < 1.0:
        raise OutOfRangeError(f"eps_beta must lie in (0, 1), got {eps_beta}")
    shots = int(math.ceil(ANCHOR_SHOTS_CONSTANT / eps_beta**2))
    rng = np.random.default_rng(rng_seed)
    seeds = rng.integers(0, 2**63 - 1, size=spectrum.dim)

    beta = _true_beta(rho, spectrum.dim, anchor)
    beta_hat = np.empty(spectrum.dim)
    for k in range(spectrum.dim):
        target = _vector_state(rho.eigenvectors[:, k], anchor)
        result = sv_engine.swap_test(anchor, target, shots, int(seeds[k]))
        beta_hat[k] = math.sqrt(max(result.overlap_sq_raw, 0.0))
    if float(beta_hat.min(initial=1.0)) < BETA_FLOOR:
        j = int(np.argmin(beta_hat))
        raise WeakAnchorError(
            f"estimated coefficient {beta_hat[j]:.3e} on component {j} for anchor row "
            f"{anchor_index} is below the floor {BETA_FLOOR}; redraw the anchor",
            anchor_index=anchor_index,
        )
    return AnchorProfile(
        anchor_index=anchor_index,
        beta=beta,
        beta_hat=beta_hat,
        rotation_constant=float(beta_hat.min()),
        residual=max(1.0 - float(np.sum(beta**2)), 0.0),
        eps_beta=eps_beta,
        shots_per_coefficient=shots,
    )


@dataclass(frozen=True)
class AnchorChoice:
    """The accepted anchor row and what was built around it: ``model`` and
    ``rho`` carry that row's signs, ``signs`` is its sign vector against
    the caller's model (``SpectralModel.anchor_signs``), and
    ``anchor_state`` its loaded state (``qram_store.prepare_row_state``)."""

    model: SpectralModel
    rho: RhoSpec
    profile: AnchorProfile
    attempts: tuple[int, ...]
    signs: np.ndarray
    anchor_state: StateVector


def select_anchor(
    data: DataMatrix,
    model: SpectralModel,
    rho: RhoSpec,
    spectrum: SpectrumSample,
    tree: QramTree,
    rng: np.random.Generator,
    *,
    eps_beta: float = 0.01,
    anchor_index: int | None = None,
    beta_seed: int | None = None,
) -> AnchorChoice:
    """Choose the anchor row whose coefficients scale the rotation.

    Rows are drawn uniformly from ``rng`` until one has every kept
    coefficient at or above BETA_FLOOR, for at most MAX_ANCHOR_ATTEMPTS
    draws. A fixed ``anchor_index`` is the only candidate, and its
    WeakAnchorError propagates unchanged. With a ``beta_seed`` the
    coefficients are estimated by swap tests seeded by it; without one they
    are exact. ``rho`` and ``spectrum`` are the caller's, built from its
    decomposition ``model`` (``RhoSpec.from_model``), since neither depends
    on the anchor: a candidate is judged from its sign vector
    (``SpectralModel.anchor_signs``) and its overlaps with the eigenvectors
    those signs flip, and only the accepted row gets a signed model.
    """
    attempts: list[int] = []
    last_error: WeakAnchorError | None = None
    for _ in range(1 if anchor_index is not None else MAX_ANCHOR_ATTEMPTS):
        anchor = anchor_index if anchor_index is not None else int(rng.integers(data.n_rows))
        attempts.append(anchor)
        signs = model.anchor_signs(data, anchor)
        signed = rho.with_signs(signs)
        state = qram_store.prepare_row_state(tree, anchor)
        try:
            if beta_seed is None:
                profile = exact_anchor_profile(state, signed, spectrum, anchor, eps_beta=eps_beta)
            else:
                profile = estimate_anchor(state, signed, spectrum, eps_beta, beta_seed, anchor_index=anchor)
        except WeakAnchorError as exc:
            if anchor_index is not None:
                raise
            last_error = exc
            continue
        return AnchorChoice(model.with_signs(signs, anchor), signed, profile, tuple(attempts), signs, state)
    raise WeakAnchorError(
        f"no usable anchor after {len(attempts)} draw(s) {attempts}: {last_error}",
        anchor_index=attempts[-1],
        anchors_tried=attempts,
    )


# -- compression --------------------------------------------------------------


@dataclass(frozen=True)
class OverlapSummary:
    max_deviation: float
    mean_deviation: float
    fraction_within: float
    tolerance: float
    n_pairs: int
    flagged_rows: tuple[int, ...]

    @classmethod
    def from_report(cls, report: pca_oracle.OverlapReport) -> "OverlapSummary":
        return cls(
            max_deviation=report.max_deviation,
            mean_deviation=report.mean_deviation,
            fraction_within=report.fraction_within,
            tolerance=report.tolerance,
            n_pairs=report.n_pairs,
            flagged_rows=report.flagged_rows,
        )


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
    overlap: OverlapSummary | None
    ledger: ResourceLedger


@dataclass(frozen=True)
class CompressResult:
    state: StateVector
    report: CompressionReport
    compressed: CompressedMatrix


def _identity_success_probability(
    compressed: CompressedMatrix,
    profile: AnchorProfile,
    data: DataMatrix,
    rows: np.ndarray,
) -> float:
    """Closed-form success probability: C^2 sum (y_ij beta_j / beta_hat_j)^2
    over the in-scope rows, normalized by those rows' squared data norms."""
    ratio = profile.beta / profile.beta_hat
    y = compressed.values[rows] * ratio[None, :]
    denom = float(np.sum(data.values[rows] ** 2))
    return float(profile.rotation_constant**2 * np.sum(y**2) / denom)


def compress(
    data: DataMatrix,
    model: SpectralModel,
    tree: QramTree,
    rho: RhoSpec,
    spectrum: SpectrumSample,
    profile: AnchorProfile,
    anchor: StateVector,
    cfg: PhaseConfig,
    *,
    run_mode: str = MODE_IDEAL,
    subset: Sequence[int] | None = None,
    row_index: int | None = None,
    postselect_shots: int | None = None,
    rng_seed: int | None = None,
) -> CompressResult:
    """Run the compression circuit end to end on exact amplitudes.

    The inputs decide the scope: by default the whole dataset state is
    compressed ('full'); a ``subset`` of rows compresses its renormalized
    restriction ('subset'); a ``row_index`` compresses that one row on a lone
    feature register ('single'). Either way the output state carries
    component tokens 1..dim with label 0 unused, and the report compares it
    against the classical projection. A full or subset scope loads the data
    state from ``tree``; a single scope reads only its row. ``anchor`` is
    the loaded state of the profile's anchor row
    (``AnchorChoice.anchor_state``), which the projection undoes.
    """
    d = spectrum.dim
    if subset is not None and row_index is not None:
        raise InvalidInputError("give a row subset or a single row index, not both")
    if profile.beta_hat.size != d:
        raise InvalidInputError("anchor profile and spectrum disagree on the kept dimension")

    scope = SCOPE_FULL
    rows = np.arange(data.n_rows)
    if subset is not None:
        scope = SCOPE_SUBSET
        if len(subset) == 0:
            raise InvalidInputError("subset scope needs a nonempty row subset")
        rows = np.unique(np.asarray(subset, dtype=int))
        if rows[0] < 0 or rows[-1] >= data.n_rows:
            raise OutOfRangeError(f"subset rows must lie in [0, {data.n_rows})")
    if row_index is not None:
        scope = SCOPE_SINGLE
        if not 0 <= row_index < data.n_rows:
            raise OutOfRangeError("single scope needs a valid row index")
        rows = np.array([row_index])

    # State preparation for the requested scope.
    if scope == SCOPE_SINGLE:
        state = qram_store.prepare_row_state(tree, int(row_index))
    else:
        state = qram_store.prepare_data_state(tree)
        if scope == SCOPE_SUBSET:
            state, _ = state.restrict_register("row", [int(r) for r in rows])

    [projected], p_anchor = sv_engine.project_anchor(rho, cfg, state, [anchor], distinct_top=d)
    # The rotated state is twice the projected one; no name keeps it alive
    # through the oracle comparison below, where a run's memory peaks.
    post = sv_engine.postselect(
        sv_engine.apply_cr_beta(projected, profile.beta_hat, profile.rotation_constant),
        float(p_anchor[0]),
        shots=postselect_shots,
        rng_seed=rng_seed,
    )

    # Oracle comparison.
    compressed = pca_oracle.project(data, model, d)
    if scope == SCOPE_SINGLE:
        reference = pca_oracle.expected_row_state(compressed, int(row_index))
        overlap = None
    else:
        mask = np.zeros(data.n_rows, dtype=bool)
        mask[rows] = True
        reference = pca_oracle.expected_compressed_state(compressed, row_mask=None if scope == SCOPE_FULL else mask)
        overlap = OverlapSummary.from_report(pca_oracle.pairwise_overlap_report(data, compressed))

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
        run_mode=run_mode,
        n_rows=data.n_rows,
        n_cols=data.n_cols,
        selected_dim=d,
        threshold=model.threshold,
        variance_captured=model.variance_captured,
        fidelity=fidelity,
        success_probability=post.probability,
        success_probability_identity=identity_p,
        amplification_reps=post.amplification_reps,
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
    data: DataMatrix
    model: SpectralModel
    tree: QramTree
    rho: RhoSpec
    cfg: PhaseConfig
    spectrum: SpectrumSample
    profile: AnchorProfile
    result: CompressResult
    anchor_attempts: tuple[int, ...]
    seed: int | None


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
    row_index: int | None = None,
) -> RunResult:
    """Whole pipeline: one decomposition and its spectrum, sampled in
    sampled mode and exact otherwise, then seeded anchor selection (see
    ``select_anchor``), then compression, whose scope ``subset`` or
    ``row_index`` picks (see ``compress``). A fixed ``anchor_index``
    disables the weak-anchor redraw."""
    cfg = PhaseConfig(bits=bits, label_mode=label_mode_for(run_mode))
    rng = np.random.default_rng(seed)
    anchor_seed, spectrum_seed, beta_seed, post_seed = (
        int(s) for s in rng.integers(0, 2**63 - 1, size=4)
    )
    sampled = run_mode == MODE_SAMPLED
    tree = qram_store.build_tree(data)
    model = pca_oracle.svd_decompose(data, threshold)
    if anchor_index is not None and not 0 <= anchor_index < data.n_rows:
        # Reported before the spectrum is built; ``select_anchor`` signs the
        # model against the row.
        raise OutOfRangeError(f"anchor index {anchor_index} out of range for {data.n_rows} rows")
    rho = RhoSpec.from_model(model)
    d = model.selected_dim
    if sampled:
        spectrum = extract_spectrum(
            rho, cfg, default_sampling_budget(d), spectrum_seed, dim=d, threshold=model.threshold
        )
    else:
        spectrum = exact_spectrum(rho, cfg, d)
    choice = select_anchor(
        data,
        model,
        rho,
        spectrum,
        tree,
        np.random.default_rng(anchor_seed),
        eps_beta=eps_beta,
        anchor_index=anchor_index,
        beta_seed=beta_seed if sampled else None,
    )
    result = compress(
        data,
        choice.model,
        tree,
        choice.rho,
        spectrum,
        choice.profile,
        choice.anchor_state,
        cfg,
        run_mode=run_mode,
        subset=subset,
        row_index=row_index,
        postselect_shots=shots if sampled else None,
        rng_seed=post_seed,
    )
    return RunResult(
        data=data,
        model=choice.model,
        tree=tree,
        rho=choice.rho,
        cfg=cfg,
        spectrum=spectrum,
        profile=choice.profile,
        result=result,
        anchor_attempts=choice.attempts,
        seed=seed,
    )


# -- coefficient-error scaling -------------------------------------------------


PERTURB_ALTERNATING = "alternating"
PERTURB_UNIFORM_RELATIVE = "uniform-relative"


def perturb_beta(beta: np.ndarray, eps: float | np.ndarray, kind: str) -> np.ndarray:
    """Controlled coefficient perturbations of magnitude ``eps``: one
    magnitude gives coefficients shaped like ``beta``, and a grid (E,)
    gives one row per magnitude: (E, d) for one list (d,), (S, E, d) for a
    stack of lists shaped (S, 1, d)."""
    eps = np.asarray(eps, dtype=np.float64)[..., None]
    if kind == PERTURB_ALTERNATING:
        signs = np.where(np.arange(beta.shape[-1]) % 2 == 0, 1.0, -1.0)
        out = beta + signs * eps
    elif kind == PERTURB_UNIFORM_RELATIVE:
        out = beta * (1.0 + eps)
    else:
        raise InvalidInputError(f"unknown perturbation kind {kind!r}")
    return np.clip(out, BETA_FLOOR, 1.0)


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
    dims: tuple[int, ...]
    perturbation: str
    n_seeds: int
    models: tuple[SpectralModel, ...]  # each dataset's decomposition, in sweep order (row-0 signs)


def _dataset_stacks(
    dataset_generator: Callable[[int], DataMatrix], seeds: Sequence[int]
) -> Iterator[tuple[DataMatrix, list[int]]]:
    """Runs of consecutive seeds for which the generator returns the same
    ``DataMatrix`` object, each with that object."""
    data, stack = None, []
    for seed in seeds:
        seed_data = dataset_generator(int(seed))
        if stack and seed_data is not data:
            yield data, stack
            stack = []
        data = seed_data
        stack.append(int(seed))
    yield data, stack


def _sweep_dataset(
    data: DataMatrix,
    seeds: list[int],
    grid: np.ndarray,
    perturbation: str,
    threshold: float,
    cfg: PhaseConfig,
) -> tuple[SpectralModel, np.ndarray, np.ndarray]:
    """The scaling sweep's seeds that share ``data``: one spectrum and
    reference for all of them, and their anchors projected and rotated in
    passes of at most ``SWEEP_STACK_ROWS`` padded rows' worth of seeds.

    Returns the decomposition and, per seed and grid point, (seeds, grid),
    the infidelity and the deviation."""
    tree = qram_store.build_tree(data)
    model = pca_oracle.svd_decompose(data, threshold)
    state = qram_store.prepare_data_state(tree)
    rho = RhoSpec.from_model(model)
    d = model.selected_dim
    spectrum = exact_spectrum(rho, cfg, d)
    choices = [select_anchor(data, model, rho, spectrum, tree, np.random.default_rng(seed)) for seed in seeds]
    # Each seed's reference is the one reference state with that anchor's
    # signs on tokens 1..d; negating a column of the projection is exact.
    reference = pca_oracle.expected_compressed_state(pca_oracle.project(data, model, d)).amplitudes
    infid = np.empty((len(seeds), len(grid)))
    dev = np.empty((len(seeds), len(grid)))
    step = max(1, SWEEP_STACK_ROWS // state.register("row").dim)
    for start in range(0, len(choices), step):
        batch = choices[start : start + step]
        anchors = [choice.anchor_state for choice in batch]
        projected, p_anchor = sv_engine.project_anchor(rho, cfg, state, anchors, distinct_top=d)
        beta_hat = perturb_beta(np.array([choice.profile.beta for choice in batch])[:, None, :], grid, perturbation)
        kept, _ = sv_engine.postselect_rotations(projected, p_anchor, beta_hat, beta_hat.min(axis=-1))
        for s, (choice, branches) in enumerate(zip(batch, kept), start):
            flips = np.ones(reference.shape[-1])
            flips[1 : d + 1] = choice.signs[:d]
            psi = reference * flips
            for k, phi in enumerate(branches):
                infid[s, k] = max(1.0 - min(abs(complex(np.vdot(phi, psi))), 1.0), 0.0)
                dev[s, k] = float(np.linalg.norm(phi - np.vdot(psi, phi) * psi))
    return model, infid, dev


def error_scaling_experiment(
    dataset_generator: Callable[[int], DataMatrix],
    eps_grid: Sequence[float],
    seeds: Sequence[int],
    *,
    threshold: float = 0.95,
    perturbation: str = PERTURB_ALTERNATING,
    bits: int = 6,
) -> ScalingResult:
    """Sweep coefficient perturbations across seeded datasets, ideal mode.

    For each seed the generator supplies a dataset; the anchor is drawn with
    the usual seeded redraw; the coefficients are perturbed by each grid
    magnitude and the resulting final-state deviation is averaged per grid
    point. Consecutive seeds for which the generator returns the same
    ``DataMatrix`` object run as one stack: one tree, decomposition, data
    state, spectrum and reference projection; one ``select_anchor`` per
    seed against that spectrum; one ``project_anchor`` of all the seeds'
    anchors; and one ``sv_engine.postselect_rotations`` of every (seed,
    grid point) rotation, with the refusals and the amplitudes of
    ``apply_cr_beta`` then ``postselect`` at each point. Past
    ``SWEEP_STACK_ROWS`` padded rows times seeds, the projection and the
    rotation take the seeds in several passes. The fidelity and the
    deviation are taken per point, and each row sums them over the seeds in
    order.
    """
    if not eps_grid:
        raise InvalidInputError("eps grid must be nonempty")
    if not seeds:
        raise InvalidInputError("seed list must be nonempty")
    grid = [float(e) for e in eps_grid]
    if any(e < 0.0 for e in grid):
        raise OutOfRangeError("perturbation magnitudes must be nonnegative")

    cfg = PhaseConfig(bits=bits, label_mode=sv_engine.LABEL_MODE_IDEAL)
    infid = np.zeros(len(grid))
    dev = np.zeros(len(grid))
    models = []
    for data, stack in _dataset_stacks(dataset_generator, seeds):
        model, stack_infid, stack_dev = _sweep_dataset(data, stack, np.array(grid), perturbation, threshold, cfg)
        models.append(model)
        # Seed by seed, so each row sums in seed order.
        for seed_infid, seed_dev in zip(stack_infid, stack_dev):
            infid += seed_infid
            dev += seed_dev

    infid /= len(seeds)
    dev /= len(seeds)
    rows = tuple(ScalingRow(grid[k], float(infid[k]), float(dev[k])) for k in range(len(grid)))

    e = np.array(grid)
    nz = e > 0.0
    if np.any(nz):
        slope = float(np.sum(e[nz] * dev[nz]) / np.sum(e[nz] ** 2))
    else:
        slope = 0.0
    dims = sorted({model.selected_dim for model in models})
    return ScalingResult(
        rows=rows,
        slope=slope,
        slope_scaled=slope * math.sqrt(float(np.mean(dims))),
        dims=tuple(dims),
        perturbation=perturbation,
        n_seeds=len(seeds),
        models=tuple(models),
    )

"""Quantum-side primitives, simulated exactly on dense statevectors.

Phase estimation is modeled as an exact projection onto the eigenbasis of
the density operator rho = X^T X / Tr(X^T X): the engine changes basis,
XORs a per-eigenvector label into the eigenvalue register, and changes back.
Every stage reads that eigensystem, and the kept dimension, from the one
``pca_oracle.SpectralModel``: its variance proportions are the eigenvalues,
its right vectors the eigenvectors (signed against row 0), and its
``selected_dim`` leading components are kept. The run mode
(``PhaseConfig.mode``) picks the labels: exact per-component tokens in ideal
mode, the fixed-width rounding of half the eigenvalue in every other (the
half keeps the top of the spectrum from wrapping). The XOR makes the walk an
involution, so the un-compute pass is the same unitary.

The label write, token write and label un-compute leave the eigenvalue
register in |0> again, and the ancilla rotation commutes with them, so
compression runs all three and the anchor half of postselection first, as
one features x tokens matrix per anchor, built from the anchor's overlaps
with the kept directions, any number of anchors in one product
(``project_anchor``); the rotation and the ancilla half
(``postselect``) then act on rows x tokens x 2 amplitudes. A sweep over
coefficient estimates forms only each rotation's kept branch, the whole
grid of every projected state as one array (``postselect_rotations``), from
the sines that ``apply_cr_beta`` uses (``rotation_sines``).
Kept component j gets token j+1 by position. Spectrum sampling reads the
register's law off the eigenvalues binned by label, over the labels
present, with no data state (``eigen_marginal_state``), and the swap test
reads only the squared overlap. ``phase_estimate``, ``apply_cu_lambda`` and
``inverse_phase_estimate`` are the explicit circuit that the tests hold
both against. Every stage acts on the fixed registers "row", "feature",
"eigen", "index" and "ancilla".

Everything downstream of state preparation is deterministic; sampling only
happens where a real device would measure, and always through a seeded
generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ContractViolationError,
    DegenerateSpectrumError,
    InvalidInputError,
    InvalidRotationError,
    VanishingSuccessError,
)
from .modes import MODE_IDEAL, check_label_bits, check_run_mode
from .pca_oracle import SpectralModel
from .statevector import Register, StateVector, ceil_log2, check_shots, check_unit_norm, token_qubits
from .statevector import interference_probability, sample_outcome

# Written phases encode eigenvalue/2 so that an eigenvalue of 1 does not
# wrap around the fixed-width register.
PHASE_SCALE = 0.5

# Post-selection probability below which the kept branch counts as lost.
POSTSELECT_FLOOR = 1e-12


@dataclass(frozen=True)
class PhaseConfig:
    """How eigenvalue labels are written, which the run mode decides.

    mode: the run mode (``modes.RUN_MODES``). Ideal writes the per-component
        token j+1 on a register wide enough for all tokens; every other mode
        writes round(PHASE_SCALE * eigenvalue * 2**bits) on a bits-wide
        register.
    bits: width of the quantized eigenvalue register (at most
        ``modes.MAX_LABEL_BITS``); ideal labels read it only as a resolution.
    """

    mode: str
    bits: int = 6

    def __post_init__(self):
        check_run_mode(self.mode)
        check_label_bits(self.bits, self.mode)

    @property
    def eigenvalue_resolution(self) -> float:
        """Smallest eigenvalue gap the quantized labels can resolve."""
        return 2.0 ** (1 - self.bits)


def eigen_labels(model: SpectralModel, cfg: PhaseConfig) -> np.ndarray:
    """Label written for each eigen-component, in spectral order."""
    if cfg.mode == MODE_IDEAL:
        return np.arange(1, model.n_cols + 1, dtype=np.int64)
    scale = float(1 << cfg.bits)
    return np.floor(PHASE_SCALE * model.variance_proportions * scale + 0.5).astype(np.int64)


def check_label_distinctness(model: SpectralModel, cfg: PhaseConfig) -> np.ndarray:
    """Quantized labels for the model's kept components (the leading
    ``selected_dim``) must be pairwise distinct, otherwise the index write
    becomes ambiguous. They must also be nonzero, because label 0 is what an
    unwritten register holds, and no tail component may share one, because
    its variance would then receive that kept component's token; that error
    carries the leaked tail mass. Returns every component's label.

    Quantized labels are nonincreasing in spectral order, so equal kept
    labels are adjacent, and a tail label can equal a kept one only by
    equalling the last. Two comparisons check both, without ``np.unique``,
    which imports ``numpy.ma``."""
    labels = eigen_labels(model, cfg)
    if cfg.mode != MODE_IDEAL:
        top = model.selected_dim
        head = labels[:top]
        if np.any(head[1:] == head[:-1]):
            pairs = [
                (j, k)
                for j in range(top)
                for k in range(j + 1, top)
                if head[j] == head[k]
            ]
            raise DegenerateSpectrumError(
                f"eigenvalue labels collide at {cfg.bits} bits for component pairs {pairs}; "
                f"raise the label width or lower the variance threshold"
            )
        zero = np.flatnonzero(head == 0).tolist()
        leaked = (top + np.flatnonzero(labels[top:] == head[-1])).tolist()
        if zero or leaked:
            mass = float(model.variance_proportions[leaked].sum())
            faults = []
            if zero:
                faults.append(f"kept components {zero} have label 0, the value of an unwritten register")
            if leaked:
                faults.append(
                    f"tail components {leaked} share a kept label, leaking tail mass {mass:.6g} into kept tokens"
                )
            raise DegenerateSpectrumError(
                f"eigenvalue labels at {cfg.bits} bits: {'; '.join(faults)}; "
                f"raise the label width or lower the variance threshold",
                leaked_tail_mass=mass,
            )
    return labels


def _refuse_below_floor(probs: float | np.ndarray) -> None:
    """Refuse a probability, or the first of an array in C order, below
    ``POSTSELECT_FLOOR``."""
    low = np.asarray(probs) < POSTSELECT_FLOOR
    if low.any():
        prob = float(np.ravel(probs)[np.argmax(low)])
        raise VanishingSuccessError(f"post-selection probability {prob:.3e} below floor {POSTSELECT_FLOOR:.3e}")


def _padded_eigenbasis(model: SpectralModel, padded_dim: int) -> np.ndarray:
    """The principal directions, completed by the trailing columns of one QR
    of [directions | identity], then the identity past the eigensystem."""
    if padded_dim < model.n_cols:
        raise InvalidInputError("feature register smaller than the eigensystem")
    v = model.right_vectors
    d, k = v.shape
    basis = np.eye(padded_dim)
    basis[:d, :k] = v
    basis[:d, k:d] = np.linalg.qr(np.hstack([v, np.eye(d)]))[0][:, k:]
    return basis


def _padded_labels(model: SpectralModel, cfg: PhaseConfig, padded_dim: int, register_dim: int) -> np.ndarray:
    """Label of every padded eigenbasis direction (0 past the eigensystem),
    checked to fit an eigenvalue register of ``register_dim`` values."""
    labels = np.zeros(padded_dim, dtype=np.int64)
    labels[: model.n_cols] = eigen_labels(model, cfg)
    if int(labels.max(initial=0)) >= register_dim:
        raise InvalidInputError(
            f"label {int(labels.max())} does not fit the eigenvalue register of dim {register_dim}"
        )
    return labels


def _label_walk(state: StateVector, model: SpectralModel, cfg: PhaseConfig) -> StateVector:
    dim = state.register("feature").dim
    basis = _padded_eigenbasis(model, dim)
    labels = _padded_labels(model, cfg, dim, state.register("eigen").dim)
    out = state.apply_register_unitary("feature", basis.T)
    out = out.apply_controlled_xor("feature", "eigen", {j: int(label) for j, label in enumerate(labels) if label})
    return out.apply_register_unitary("feature", basis)


def _require_zero(state: StateVector, name: str, message: str) -> None:
    if 1.0 - float(state.probabilities(name)[0]) > 1e-9:
        raise ContractViolationError(message)


def phase_estimate(model: SpectralModel, cfg: PhaseConfig, state: StateVector) -> StateVector:
    """Write eigenvalue labels: each eigenbasis component of the "feature"
    register tags the "eigen" register with its label.

    The eigenvalue register must be zeroed. The labels are written as they
    are, colliding or 0 included; a circuit that maps them to tokens checks
    them first (``check_label_distinctness``), as ``project_anchor`` does.
    """
    _require_zero(state, "eigen", "eigenvalue register 'eigen' must be |0> before label writing")
    return _label_walk(state, model, cfg)


def inverse_phase_estimate(model: SpectralModel, cfg: PhaseConfig, state: StateVector) -> StateVector:
    """Un-compute the labels. The XOR walk is an involution, so this is the
    same unitary as the forward pass without the zero-register precondition."""
    return _label_walk(state, model, cfg)


def apply_cu_lambda(
    state: StateVector,
    labels: Sequence[tuple[int, int]],
    *,
    strict: bool = True,
) -> StateVector:
    """For each (label, component) pair, XOR ``component`` into the "index"
    register wherever the "eigen" register holds ``label``.

    With the index register zeroed this writes |component> outright; the XOR
    semantics match the gate-level construction (X-conjugated multi-controlled
    NOTs) on every basis input, which the tests exercise exhaustively.
    """
    tokens: dict[int, int] = {}
    for label, component in labels:
        if not 0 <= label < state.register("eigen").dim:
            raise InvalidInputError(f"label {label} out of range for register 'eigen'")
        if not 1 <= component < state.register("index").dim:
            raise InvalidInputError(f"component token {component} out of range for register 'index'")
        if label in tokens:
            raise DegenerateSpectrumError(f"label {label} is claimed by components {tokens[label]} and {component}")
        tokens[label] = component
    if strict:
        _require_zero(state, "index", "index register must be |0> before component writing")
    return state.apply_controlled_xor("eigen", "index", tokens)


def project_anchor(
    model: SpectralModel,
    cfg: PhaseConfig,
    state: StateVector,
    overlaps: np.ndarray,
) -> tuple[list[StateVector], np.ndarray]:
    """Label write, token write, label un-compute and the anchor half of
    postselection as one product on the "feature" register, for S anchors
    at once, each given by its (d,) overlaps with the model's kept
    directions: ``overlaps`` is (S, d), d the model's ``selected_dim``.

    For each anchor this equals ``phase_estimate``, ``apply_cu_lambda`` of
    token j+1 on kept component j's label onto a fresh "index" register of
    ``token_qubits(d)`` qubits and ``inverse_phase_estimate``, then undoing
    the preparation of that anchor (a unit vector on the feature register)
    and keeping feature |0>. Eigenvector k gets token k+1 for k < d and no
    other direction gets one; the label checks
    (``check_label_distinctness``, run first) refuse every spectrum where
    the label write would map otherwise. With V those eigenvectors, anchor
    s's product is the feature axis times G_s[j, k+1] = V[j, k] c_s[k],
    with c_s = V^T a_s its overlaps (``SpectralModel.overlaps``), so the
    anchor enters through them alone; negating v_k negates c_s[k] exactly,
    so G_s does not depend on the eigenvectors' signs. The G_s are stacked
    (features, anchors, tokens) and applied as one product, real when the
    state is. Returns one renormalised state per anchor, "index" in place
    of "feature", and the probabilities of the anchor outcomes, (S,).
    """
    check_label_distinctness(model, cfg)
    d = model.selected_dim
    if np.ndim(overlaps) != 2 or np.shape(overlaps)[1] != d:
        raise InvalidInputError(f"overlaps must be (anchors, {d}), got shape {np.shape(overlaps)}")
    width = state.register("feature").qubits
    index_qubits = token_qubits(d)
    dtype = np.result_type(overlaps, state.amplitudes)
    g = np.zeros((1 << width, len(overlaps), 1 << index_qubits), dtype=dtype)
    g[: model.n_cols, :, 1 : d + 1] = model.right_vectors[:, None, :d] * overlaps
    block = np.tensordot(state.amplitudes, g, axes=([state.axis("feature")], [0]))
    # One contiguous block per anchor, so that each probability is summed
    # as it would be for that anchor alone.
    blocks = np.ascontiguousarray(np.moveaxis(block, -2, 0))
    probs = _squared_norms(blocks, 1)
    _refuse_below_floor(probs)
    blocks /= np.sqrt(probs).reshape((-1,) + (1,) * (blocks.ndim - 1))
    registers = tuple(r for r in state.registers if r.name != "feature") + (Register("index", index_qubits),)
    return [StateVector(registers, b) for b in blocks], probs


def eigen_marginal_state(model: SpectralModel, cfg: PhaseConfig) -> tuple[np.ndarray, StateVector]:
    """The "eigen" register that ``phase_estimate`` would write from the
    "feature" register of the loaded data state, over the labels present:
    the distinct labels, ascending, and a state whose value i is ``labels[i]``.

    Distinct labels tag orthogonal eigenspaces, so that register's reduced
    state is diagonal: label L weighs the data state's feature marginal,
    X^T X / ||X||_F^2, on the eigencomponents labelled L, which is the sum
    of their eigenvalues. The amplitudes are the square roots of those
    weights, so measuring this state follows the same law as measuring the
    labelled register, and no state is rotated or labelled.
    """
    labels, which = np.unique(eigen_labels(model, cfg), return_inverse=True)
    width = ceil_log2(labels.size)
    weights = np.bincount(which, weights=model.variance_proportions, minlength=1 << width)
    return labels, StateVector.from_amplitudes([("eigen", width)], np.sqrt(np.clip(weights, 0.0, None)))


def rotation_sines(beta_hat: np.ndarray, rotation_constant: float | np.ndarray, index_dim: int) -> np.ndarray:
    """|1> amplitude of the controlled ancilla rotation on each "index"
    value: C / beta_hat[j-1] on value j (1-based over the estimated
    coefficients), 0 on index 0 and past the coefficient list.

    ``beta_hat`` is one coefficient list (d,) with one constant, giving
    (index_dim,) sines, or a stack (..., d) with one constant per list,
    giving (..., index_dim); each list is checked as ``apply_cr_beta``
    checks its own, and the first refused in row-major order is reported.
    """
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    c = np.asarray(rotation_constant, dtype=np.float64)
    if beta_hat.ndim < 1 or beta_hat.shape[-1] < 1 or c.shape != beta_hat.shape[:-1]:
        raise InvalidInputError("beta_hat must be a nonempty 1-D array, or a stack of them with one constant each")
    if np.any(beta_hat <= 0.0) or np.any(beta_hat > 1.0):
        raise InvalidInputError("estimated anchor coefficients must lie in (0, 1]")
    if not np.all(c > 0.0):
        raise InvalidInputError(f"rotation constant must be positive, got {float(np.min(c))}")
    smallest = beta_hat.min(axis=-1)
    over = c > smallest * (1.0 + 1e-12)
    if np.any(over):
        k = int(np.argmax(over))
        raise InvalidRotationError(
            f"rotation constant {float(c.flat[k])} exceeds the smallest estimated coefficient {float(smallest.flat[k])}"
        )
    if beta_hat.shape[-1] + 1 > index_dim:
        raise InvalidInputError("index register too small for the coefficient list")
    s = np.zeros(beta_hat.shape[:-1] + (index_dim,))
    s[..., 1 : beta_hat.shape[-1] + 1] = np.minimum(c[..., None] / beta_hat, 1.0)
    return s


def apply_cr_beta(state: StateVector, beta_hat: np.ndarray, rotation_constant: float) -> StateVector:
    """Controlled ancilla rotation: append a one-qubit "ancilla" in |0> and,
    on "index" value j (1-based over the estimated coefficients), rotate it
    so |1> carries amplitude C / beta_hat[j-1]. Index 0 leaves the ancilla
    alone."""
    # Rotation of |0> by [[q, -s], [s, q]] per index value: q on ancilla 0, s on
    # ancilla 1.
    s = rotation_sines(beta_hat, float(rotation_constant), state.register("index").dim)
    q = np.sqrt(np.maximum(1.0 - s * s, 0.0))
    shape = [1] * state.amplitudes.ndim + [2]
    shape[state.axis("index")] = -1
    amps = state.amplitudes[..., None] * np.stack([q, s], axis=-1).reshape(shape)
    return StateVector(state.registers + (Register("ancilla", 1),), amps)


@dataclass(frozen=True)
class PostselectResult:
    state: StateVector
    probability: float
    sampled_probability: float | None  # the three are None without shots
    success_count: int | None
    shots: int | None


def amplification_repetitions(probability: float) -> int:
    """ceil(pi / (4 theta)) amplitude-amplification rounds, theta =
    asin(sqrt(p)): the count the ledger charges. It does not make the
    flagged branch dominant. k rounds leave sin^2((2k+1) theta), so
    p = 0.25 gets 2 rounds and ends at 0.25, and every p between 1/2 and 1
    gets 1 round, which lowers it. The floor of pi / (4 theta), which keeps
    at least max(p, 1 - p), is ROADMAP item 3."""
    p = min(max(probability, 0.0), 1.0)
    if p <= 0.0:
        raise VanishingSuccessError("success probability is zero; cannot amplify")
    return int(math.ceil(math.pi / (4.0 * math.asin(math.sqrt(p)))))


def postselect(
    state: StateVector,
    anchor_probability: float,
    *,
    shots: int | None = None,
    rng_seed: int | None = None,
) -> PostselectResult:
    """Keep the branch with ancilla |1> of a state that ``project_anchor``
    already projected onto the anchor outcome with ``anchor_probability``,
    and drop the ancilla.

    The returned probability is that of both outcomes together, the exact
    squared norm of the kept branch of the whole circuit, capped at 1 (on
    rank-1 data it rounds just above). When ``shots`` is
    given, a seeded binomial draw simulates repeating the bare
    (unamplified) experiment that many times.
    """
    kept, flagged = state.project_and_remove({"ancilla": 1})
    prob = min(anchor_probability * flagged, 1.0)
    _refuse_below_floor(prob)
    sampled = successes = None
    if shots is not None:
        successes = sample_outcome(prob, shots, rng_seed)
        sampled = successes / shots
    return PostselectResult(
        state=kept,
        probability=prob,
        sampled_probability=sampled,
        success_count=successes,
        shots=shots,
    )


def _squared_norms(stack: np.ndarray, lead: int) -> np.ndarray:
    """Summed squared magnitudes of each state in a C-contiguous stack whose
    first ``lead`` axes index the states: one pairwise sum per state over
    its squared magnitudes, in C order."""
    mass = np.abs(stack)
    np.square(mass, out=mass)
    return mass.reshape(stack.shape[:lead] + (-1,)).sum(axis=-1)


def postselect_rotations(
    states: Sequence[StateVector],
    anchor_probabilities: np.ndarray,
    beta_hat: np.ndarray,
    rotation_constants: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``apply_cr_beta`` then ``postselect`` without shots, as one array
    pass over S states that ``project_anchor`` kept with
    ``anchor_probabilities`` (S,), each with its own stack of coefficient
    estimates: ``beta_hat`` is (S, E, d), with one rotation constant per
    row, (S, E).

    Only each rotation's ancilla-|1> branch is formed: the state's
    amplitudes times that rotation's ``rotation_sines`` along "index".
    Returns the kept branches, renormalised, (S, E, *state dims), and each
    one's probability of both outcomes together, (S, E). The per-point
    path's refusals hold: every state's norm (the rotated state's) and every
    kept branch's must be 1 within ``NORM_TOL``, and a probability below
    ``POSTSELECT_FLOOR`` is refused, the first in (state, row) order.
    """
    if np.ndim(beta_hat) != 3 or len(beta_hat) != len(states) or len(anchor_probabilities) != len(states):
        raise InvalidInputError("postselect_rotations takes one stack (E, d) of coefficient lists per state")
    layout = states[0].layout()
    if any(state.layout() != layout for state in states):
        raise InvalidInputError("the states must share one register layout")
    sines = rotation_sines(beta_hat, rotation_constants, states[0].register("index").dim)
    amps = np.stack([state.amplitudes for state in states])
    check_unit_norm(np.sqrt(_squared_norms(amps, 1)))
    trailing = (1,) * (amps.ndim - 1)
    shape = list(sines.shape[:2] + trailing)
    shape[2 + states[0].axis("index")] = -1
    kept = amps[:, None] * sines.reshape(shape)
    flagged = _squared_norms(kept, 2)
    probs = np.minimum(np.asarray(anchor_probabilities)[:, None] * flagged, 1.0)
    _refuse_below_floor(probs)
    kept /= np.sqrt(flagged).reshape(flagged.shape + trailing)
    check_unit_norm(np.sqrt(_squared_norms(kept, 2)))
    return kept, probs


@dataclass(frozen=True)
class SwapTestResult:
    """Outcome of a seeded swap-test run.

    overlap_sq_raw = 2 * p0_hat - 1 is the unbiased estimator of the squared
    overlap; overlap_sq is the same value clamped to [0, 1] for downstream
    consumers that need a probability.
    """

    p0_hat: float
    p0_exact: float
    overlap_sq_raw: float
    overlap_sq: float
    shots: int


def swap_test(overlap_sq: float, shots: int, rng_seed: int | None = None) -> SwapTestResult:
    """Estimate ``overlap_sq`` = |<a|b>|^2 from the ancilla-0 frequency of
    the swap test of a and b, which reads only that number: P(0) =
    (1 + |<a|b>|^2) / 2, drawn once from its binomial law
    (``statevector.sample_outcome``)."""
    p0 = interference_probability(overlap_sq)
    p0_hat = sample_outcome(p0, shots, rng_seed) / shots
    raw = 2.0 * p0_hat - 1.0
    return SwapTestResult(
        p0_hat=p0_hat,
        p0_exact=p0,
        overlap_sq_raw=raw,
        overlap_sq=min(max(raw, 0.0), 1.0),
        shots=shots,
    )


@dataclass(frozen=True)
class RegisterSample:
    counts: dict[int, int]
    marginal: np.ndarray
    shots: int


def measure_register(
    state: StateVector, name: str, shots: int, rng_seed: int | None = None
) -> RegisterSample:
    """Sample basis outcomes of one register from its exact marginal."""
    check_shots(shots)
    marginal = state.probabilities(name)
    weights = np.clip(marginal, 0.0, None)
    weights = weights / weights.sum()
    rng = np.random.default_rng(rng_seed)
    draws = rng.multinomial(shots, weights)
    counts = {int(v): int(c) for v, c in enumerate(draws) if c > 0}
    return RegisterSample(counts=counts, marginal=marginal, shots=shots)

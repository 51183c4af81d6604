"""Quantum-side primitives, simulated exactly on dense statevectors.

Phase estimation is modeled as an exact projection onto the eigenbasis of
the (unnormalized-covariance) density operator: the engine changes basis,
XORs a per-eigenvector label into the eigenvalue register, and changes back.
Labels are either exact per-component tokens (ideal mode) or the fixed-width
rounding of half the eigenvalue (quantized mode; the half keeps the top of
the spectrum from wrapping). The XOR makes the walk an involution, so the
un-compute pass is the same unitary.

The label write, token write and label un-compute leave the eigenvalue
register in |0> again, and the ancilla rotation commutes with them, so
compression runs all three and the anchor half of postselection first, as
one features x tokens matrix (``project_anchor``); the rotation and the
ancilla half (``postselect``) then act on rows x tokens x 2 amplitudes.
Spectrum sampling reads the register's distribution without building it
(``eigen_marginal_state``). ``phase_estimate``, ``apply_cu_lambda`` and
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
    OutOfRangeError,
    VanishingSuccessError,
)
from .statevector import Register, StateVector, token_qubits

LABEL_MODE_IDEAL = "ideal"
LABEL_MODE_QUANTIZED = "quantized"

# Written phases encode eigenvalue/2 so that an eigenvalue of 1 does not
# wrap around the fixed-width register.
PHASE_SCALE = 0.5

# Post-selection probability below which the kept branch counts as lost.
POSTSELECT_FLOOR = 1e-12


@dataclass(frozen=True)
class RhoSpec:
    """Eigensystem of X^T X / Tr(X^T X): proportions of captured variance
    and the matching orthonormal directions (columns, sign-fixed)."""

    eigenvalues: np.ndarray      # (D,), descending, sums to 1
    eigenvectors: np.ndarray     # (D, D) columns

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        vec = np.asarray(self.eigenvectors, dtype=np.float64)
        if lam.ndim != 1 or vec.shape != (lam.size, lam.size):
            raise InvalidInputError("eigenvalues must be (D,) and eigenvectors (D, D)")
        if np.any(lam < -1e-12) or abs(float(lam.sum()) - 1.0) > 1e-9:
            raise InvalidInputError("eigenvalues must be nonnegative and sum to 1")
        if np.any(np.diff(lam) > 1e-12):
            raise InvalidInputError("eigenvalues must be sorted in descending order")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vec)

    @classmethod
    def from_model(cls, model) -> "RhoSpec":
        return cls(eigenvalues=model.variance_proportions, eigenvectors=model.right_vectors)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class PhaseConfig:
    """How eigenvalue labels are written.

    bits: width of the quantized eigenvalue register.
    label_mode: 'ideal' writes the per-component token j+1 on a register
        wide enough for all tokens; 'quantized' writes
        round(PHASE_SCALE * eigenvalue * 2**bits) on a bits-wide register.
    """

    bits: int = 6
    label_mode: str = LABEL_MODE_QUANTIZED

    def __post_init__(self):
        if self.bits < 1:
            raise OutOfRangeError(f"label width must be >= 1 bit, got {self.bits}")
        if self.label_mode not in (LABEL_MODE_IDEAL, LABEL_MODE_QUANTIZED):
            raise InvalidInputError(f"unknown label mode {self.label_mode!r}")

    @property
    def eigenvalue_resolution(self) -> float:
        """Smallest eigenvalue gap the quantized labels can resolve."""
        return 2.0 ** (1 - self.bits)

    def register_width(self, n_components: int) -> int:
        if self.label_mode == LABEL_MODE_IDEAL:
            return token_qubits(n_components)
        return self.bits


def eigen_labels(rho: RhoSpec, cfg: PhaseConfig) -> np.ndarray:
    """Label written for each eigen-component, in spectral order."""
    if cfg.label_mode == LABEL_MODE_IDEAL:
        return np.arange(1, rho.dim + 1, dtype=np.int64)
    scale = float(1 << cfg.bits)
    return np.floor(PHASE_SCALE * rho.eigenvalues * scale + 0.5).astype(np.int64)


def decode_label(label: int, cfg: PhaseConfig) -> float:
    """Eigenvalue represented by a quantized label (doubling undoes the
    half-phase encoding)."""
    if cfg.label_mode != LABEL_MODE_QUANTIZED:
        raise InvalidInputError("only quantized labels decode to eigenvalues")
    return 2.0 * label / float(1 << cfg.bits)


def check_label_distinctness(rho: RhoSpec, cfg: PhaseConfig, top: int) -> np.ndarray:
    """Quantized labels for the leading ``top`` components must be pairwise
    distinct, otherwise the index write becomes ambiguous. They must also be
    nonzero, because label 0 is what an unwritten register holds, and no tail
    component may share one, because its variance would then receive that
    kept component's token; that error carries the leaked tail mass."""
    labels = eigen_labels(rho, cfg)
    if cfg.label_mode == LABEL_MODE_QUANTIZED:
        head = labels[:top]
        if np.unique(head).size != head.size:
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
        zero = [j for j in range(top) if head[j] == 0]
        leaked = [k for k in range(top, rho.dim) if labels[k] in head]
        if zero or leaked:
            mass = float(rho.eigenvalues[leaked].sum())
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


def _padded_eigenbasis(rho: RhoSpec, padded_dim: int) -> np.ndarray:
    if padded_dim < rho.dim:
        raise InvalidInputError("feature register smaller than the eigensystem")
    basis = np.eye(padded_dim)
    basis[: rho.dim, : rho.dim] = rho.eigenvectors
    return basis


def _padded_labels(rho: RhoSpec, cfg: PhaseConfig, padded_dim: int, register_dim: int) -> np.ndarray:
    """Label of every padded eigenbasis direction (0 past the eigensystem),
    checked to fit an eigenvalue register of ``register_dim`` values."""
    labels = np.zeros(padded_dim, dtype=np.int64)
    labels[: rho.dim] = eigen_labels(rho, cfg)
    if int(labels.max(initial=0)) >= register_dim:
        raise InvalidInputError(
            f"label {int(labels.max())} does not fit the eigenvalue register of dim {register_dim}"
        )
    return labels


def _label_walk(state: StateVector, rho: RhoSpec, cfg: PhaseConfig) -> StateVector:
    dim = state.register("feature").dim
    basis = _padded_eigenbasis(rho, dim)
    labels = _padded_labels(rho, cfg, dim, state.register("eigen").dim)
    out = state.apply_register_unitary("feature", basis.T)
    out = out.apply_controlled_xor("feature", "eigen", {j: int(label) for j, label in enumerate(labels) if label})
    return out.apply_register_unitary("feature", basis)


def _require_zero(state: StateVector, name: str, message: str) -> None:
    if 1.0 - float(state.probabilities(name)[0]) > 1e-9:
        raise ContractViolationError(message)


def phase_estimate(
    rho: RhoSpec,
    cfg: PhaseConfig,
    state: StateVector,
    *,
    distinct_top: int | None = None,
) -> StateVector:
    """Write eigenvalue labels: each eigenbasis component of the "feature"
    register tags the "eigen" register with its label.

    The eigenvalue register must be zeroed. ``distinct_top`` enables the
    collision check over the leading components being targeted downstream.
    """
    _require_zero(state, "eigen", "eigenvalue register 'eigen' must be |0> before label writing")
    if distinct_top is not None:
        check_label_distinctness(rho, cfg, distinct_top)
    return _label_walk(state, rho, cfg)


def inverse_phase_estimate(rho: RhoSpec, cfg: PhaseConfig, state: StateVector) -> StateVector:
    """Un-compute the labels. The XOR walk is an involution, so this is the
    same unitary as the forward pass without the zero-register precondition."""
    return _label_walk(state, rho, cfg)


def _token_map(labels: Sequence[tuple[int, int]], e_dim: int, i_dim: int) -> dict[int, int]:
    """Checked label -> token map of a token write from the "eigen" into the
    "index" register."""
    seen: dict[int, int] = {}
    for label, component in labels:
        if not 0 <= label < e_dim:
            raise InvalidInputError(f"label {label} out of range for register 'eigen'")
        if not 1 <= component < i_dim:
            raise InvalidInputError(f"component token {component} out of range for register 'index'")
        if label in seen:
            raise DegenerateSpectrumError(
                f"label {label} is claimed by components {seen[label]} and {component}"
            )
        seen[label] = component
    return seen


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
    tokens = _token_map(labels, state.register("eigen").dim, state.register("index").dim)
    if strict:
        _require_zero(state, "index", "index register must be |0> before component writing")
    return state.apply_controlled_xor("eigen", "index", tokens)


def project_anchor(
    rho: RhoSpec,
    cfg: PhaseConfig,
    state: StateVector,
    anchor: StateVector,
    labels: Sequence[tuple[int, int]],
    *,
    distinct_top: int,
) -> tuple[StateVector, float]:
    """Label write, token write, label un-compute and the anchor half of
    postselection as one product on the "feature" register.

    Equals ``phase_estimate`` (with ``distinct_top``), ``apply_cu_lambda``
    with these (label, component) pairs onto a fresh "index" register of
    ``token_qubits(distinct_top)`` qubits and ``inverse_phase_estimate``,
    then undoing the preparation of ``anchor`` (a state on the feature
    register alone) and keeping feature |0>. Direction k of the padded
    eigenbasis B gets token tok(k) (0 for padded directions and labels
    without a token), so the product is the feature axis times the matrix
    G[j, t] = sum_{k: tok(k) = t} B[j, k] (B^T conj(anchor))[k]. Returns the
    renormalised state, "index" in place of "feature", and the probability
    of the anchor outcome; the label checks are the explicit circuit's.
    """
    check_label_distinctness(rho, cfg, distinct_top)
    width = state.register("feature").qubits
    if anchor.layout() != (("feature", width),):
        raise InvalidInputError(
            f"anchor layout {anchor.layout()} must be the state's feature register alone ({width} qubits)"
        )
    dim = 1 << width
    e_dim = 1 << cfg.register_width(rho.dim)
    index_qubits = token_qubits(distinct_top)
    basis = _padded_eigenbasis(rho, dim)
    padded = _padded_labels(rho, cfg, dim, e_dim)
    tokens = _token_map(labels, e_dim, 1 << index_qubits)
    to_token = np.zeros((dim, 1 << index_qubits))
    to_token[np.arange(dim), [tokens.get(int(label), 0) for label in padded]] = 1.0
    weights = basis.T @ anchor.amplitudes.conj()
    block = np.tensordot(state.amplitudes, (basis * weights) @ to_token, axes=([state.axis("feature")], [0]))
    prob = float(np.sum(np.abs(block) ** 2))
    if prob < POSTSELECT_FLOOR:
        raise VanishingSuccessError(f"post-selection probability {prob:.3e} below floor {POSTSELECT_FLOOR:.3e}")
    registers = tuple(r for r in state.registers if r.name != "feature") + (Register("index", index_qubits),)
    return StateVector(registers, block / np.sqrt(prob)), prob


def eigen_marginal_state(rho: RhoSpec, cfg: PhaseConfig, state: StateVector) -> StateVector:
    """The "eigen" register that ``phase_estimate`` would write from the
    "feature" register onto a fresh register of ``cfg.register_width(rho.dim)``
    qubits, as a state of its own.

    Distinct labels tag orthogonal eigenspaces, so that register's reduced
    state is diagonal: label L weighs the data state's mass on the
    eigencomponents labelled L, which is its feature marginal in the padded
    eigenbasis binned by label. The returned amplitudes are the square roots
    of those weights, so measuring this state follows the same law as
    measuring the labelled register, and no labelled tensor is built.
    """
    width = cfg.register_width(rho.dim)
    dim = state.register("feature").dim
    basis = _padded_eigenbasis(rho, dim)
    labels = _padded_labels(rho, cfg, dim, 1 << width)
    rotated = state.apply_register_unitary("feature", basis.T)
    weights = np.bincount(labels, weights=rotated.probabilities("feature"), minlength=1 << width)
    return StateVector.from_amplitudes([("eigen", width)], np.sqrt(weights))


def apply_cr_beta(state: StateVector, beta_hat: np.ndarray, rotation_constant: float) -> StateVector:
    """Controlled ancilla rotation: append a one-qubit "ancilla" in |0> and,
    on "index" value j (1-based over the estimated coefficients), rotate it
    so |1> carries amplitude C / beta_hat[j-1]. Index 0 leaves the ancilla
    alone."""
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    c = float(rotation_constant)
    if beta_hat.ndim != 1 or beta_hat.size < 1:
        raise InvalidInputError("beta_hat must be a nonempty 1-D array")
    if np.any(beta_hat <= 0.0) or np.any(beta_hat > 1.0):
        raise InvalidInputError("estimated anchor coefficients must lie in (0, 1]")
    if not c > 0.0:
        raise InvalidInputError(f"rotation constant must be positive, got {c}")
    if c > float(beta_hat.min()) * (1.0 + 1e-12):
        raise InvalidRotationError(
            f"rotation constant {c} exceeds the smallest estimated coefficient {float(beta_hat.min())}"
        )
    if beta_hat.size + 1 > state.register("index").dim:
        raise InvalidInputError("index register too small for the coefficient list")

    # Rotation of |0> by [[q, -s], [s, q]] per index value: q on ancilla 0, s on
    # ancilla 1; s = 0 on index 0 and past the coefficient list.
    s = np.zeros(state.register("index").dim)
    s[1 : beta_hat.size + 1] = np.minimum(c / beta_hat, 1.0)
    q = np.sqrt(np.maximum(1.0 - s * s, 0.0))
    shape = [1] * state.amplitudes.ndim + [2]
    shape[state.axis("index")] = -1
    amps = state.amplitudes[..., None] * np.stack([q, s], axis=-1).reshape(shape)
    return StateVector(state.registers + (Register("ancilla", 1),), amps)


@dataclass(frozen=True)
class PostselectResult:
    state: StateVector
    probability: float
    amplification_reps: int
    sampled_probability: float | None = None
    success_count: int | None = None
    shots: int | None = None


def amplification_repetitions(probability: float) -> int:
    """Amplitude-amplification rounds needed to make the flagged branch
    dominant: ceil(pi / (4 * asin(sqrt(p))))."""
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
    squared norm of the kept branch of the whole circuit. When ``shots`` is
    given, a seeded binomial draw simulates repeating the bare
    (unamplified) experiment that many times.
    """
    kept, flagged = state.project_and_remove({"ancilla": 1})
    prob = anchor_probability * flagged
    if prob < POSTSELECT_FLOOR:
        raise VanishingSuccessError(f"post-selection probability {prob:.3e} below floor {POSTSELECT_FLOOR:.3e}")
    sampled = successes = None
    if shots is not None:
        if shots < 1:
            raise InvalidInputError("shots must be >= 1")
        rng = np.random.default_rng(rng_seed)
        successes = int(rng.binomial(shots, min(prob, 1.0)))
        sampled = successes / shots
    return PostselectResult(
        state=kept,
        probability=prob,
        amplification_reps=amplification_repetitions(prob),
        sampled_probability=sampled,
        success_count=successes,
        shots=shots,
    )


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

    @property
    def standard_error(self) -> float:
        return 2.0 * math.sqrt(max(self.p0_exact * (1.0 - self.p0_exact), 0.0) / self.shots)


def swap_test(a: StateVector, b: StateVector, shots: int, rng_seed: int | None = None) -> SwapTestResult:
    """Estimate |<a|b>|^2 from the ancilla-0 frequency of the swap test.

    P(0) = (1 + |<a|b>|^2) / 2; the shot count is drawn from the exact
    binomial law, which is distribution-identical to per-shot sampling.
    """
    if shots < 1:
        raise InvalidInputError("shots must be >= 1")
    overlap_sq = abs(a.inner(b)) ** 2
    p0 = 0.5 * (1.0 + min(overlap_sq, 1.0))
    rng = np.random.default_rng(rng_seed)
    zeros = int(rng.binomial(shots, p0))
    p0_hat = zeros / shots
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

    def frequency(self, value: int) -> float:
        return self.counts.get(value, 0) / self.shots


def measure_register(
    state: StateVector, name: str, shots: int, rng_seed: int | None = None
) -> RegisterSample:
    """Sample basis outcomes of one register from its exact marginal."""
    if shots < 1:
        raise InvalidInputError("shots must be >= 1")
    marginal = state.probabilities(name)
    weights = np.clip(marginal, 0.0, None)
    weights = weights / weights.sum()
    rng = np.random.default_rng(rng_seed)
    draws = rng.multinomial(shots, weights)
    counts = {int(v): int(c) for v, c in enumerate(draws) if c > 0}
    return RegisterSample(counts=counts, marginal=marginal, shots=shots)

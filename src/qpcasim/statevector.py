"""Dense statevector over named qubit registers.

The amplitude tensor carries one axis per register, so register-level
operations are axis operations and never touch raw bit positions. Bit-level
gates (X, multi-controlled X) are still available for building reference
circuits; bits are indexed MSB-first within a register, matching the way a
register value prints in binary.

Amplitudes keep their type: float64 input stays float64, and anything else
becomes complex128. Real data loads as a real state and every production
stage is real, so the production path runs in float64 at one float per
amplitude; the reference circuit's helpers (``zero``, ``append_register``,
``apply_register_unitary``, ``apply_controlled_unitary``) build complex
states, as a general circuit needs.

Every sampled readout is one seeded draw, ``sample_outcome``, behind one
shot-count check (``modes.check_shots``); ``interference_probability`` is an interference test's P(0).

All transformations return new StateVector instances; nothing is mutated in
place, so callers can keep intermediate states around for comparison. A
float64 or complex128 array given to the constructor or ``from_amplitudes``
is kept, not copied (a copy would double the data state's memory), so the
caller must not mutate it afterwards.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ContractViolationError,
    InvalidInputError,
    NumericalFailureError,
    UnknownRegisterError,
)
from .modes import check_shots

NORM_TOL = 1e-10


def ceil_log2(n: int) -> int:
    """Qubits a register needs to hold ``n`` basis states."""
    return int(math.ceil(math.log2(n))) if n > 1 else 0


def token_qubits(n_tokens: int) -> int:
    """Width of a register holding tokens 1..n_tokens, with 0 for no token."""
    return ceil_log2(n_tokens + 1)


def check_unit_norm(norms: float | np.ndarray) -> None:
    """Raise ``NumericalFailureError`` for a state norm, or the first of an
    array in C order, off 1 by more than ``NORM_TOL``. Python's ``abs`` and
    ``>`` take either, so a single norm, checked at every state's
    construction, skips numpy's per-call overhead (a few microseconds)."""
    off = abs(norms - 1.0) > NORM_TOL
    if off.any() if isinstance(off, np.ndarray) else off:
        norm = float(np.ravel(norms)[np.argmax(off)])
        raise NumericalFailureError(f"state norm drifted to {norm!r}")


def sample_outcome(probability: float, shots: int, rng_seed: int | None) -> int:
    """How often an outcome of ``probability`` occurs in ``shots`` seeded
    repetitions: one binomial draw, the law of counting shot by shot."""
    check_shots(shots)
    return int(np.random.default_rng(rng_seed).binomial(shots, probability))


def interference_probability(x: float) -> float:
    """P(0) = (1 + x) / 2, x clipped to [-1, 1], of the ancilla that reads
    x = |<a|b>|^2 in a swap test and x = Re <a|b> in a signed-overlap test."""
    return 0.5 * (1.0 + min(max(x, -1.0), 1.0))


def _amplitude_array(amplitudes) -> np.ndarray:
    """``amplitudes`` as an array: float64 as it is, anything else as
    complex128 (without a copy when it already is)."""
    amplitudes = np.asarray(amplitudes)
    if amplitudes.dtype == np.float64:
        return amplitudes
    return amplitudes.astype(np.complex128, copy=False)


@dataclass(frozen=True)
class Register:
    name: str
    qubits: int

    @property
    def dim(self) -> int:
        return 1 << self.qubits


class StateVector:
    """Pure state on an ordered tuple of named registers.

    Every state is norm-checked exactly once, when it is built: the
    constructor refuses amplitudes whose norm is off 1 by more than
    ``NORM_TOL`` (``check_unit_norm``), and no state is built without that
    check, so no stage checks again a state it is handed.

    The amplitudes are the caller's array when it is already float64 or
    complex128, not a copy: do not mutate it after building the state."""

    def __init__(self, registers: Sequence[Register], amplitudes: np.ndarray):
        self.registers = tuple(registers)
        names = [r.name for r in self.registers]
        if len(set(names)) != len(names):
            raise InvalidInputError(f"duplicate register names: {names}")
        expected = tuple(r.dim for r in self.registers)
        amplitudes = _amplitude_array(amplitudes)
        if amplitudes.shape != expected:
            raise InvalidInputError(
                f"amplitude tensor shape {amplitudes.shape} does not match register dims {expected}"
            )
        self.amplitudes = amplitudes
        self._assert_normalized()

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, layout: Sequence[tuple[str, int]]) -> "StateVector":
        regs = [Register(name, qubits) for name, qubits in layout]
        shape = tuple(r.dim for r in regs)
        amps = np.zeros(shape, dtype=np.complex128)
        amps[(0,) * len(shape)] = 1.0
        return cls(regs, amps)

    @classmethod
    def from_amplitudes(cls, layout: Sequence[tuple[str, int]], amplitudes: np.ndarray) -> "StateVector":
        regs = [Register(name, qubits) for name, qubits in layout]
        shape = tuple(r.dim for r in regs)
        amps = _amplitude_array(amplitudes).reshape(shape)
        return cls(regs, amps)

    # -- bookkeeping -------------------------------------------------------

    def axis(self, name: str) -> int:
        for i, reg in enumerate(self.registers):
            if reg.name == name:
                return i
        raise UnknownRegisterError(f"no register named {name!r} (have {[r.name for r in self.registers]})")

    def register(self, name: str) -> Register:
        return self.registers[self.axis(name)]

    def layout(self) -> tuple[tuple[str, int], ...]:
        return tuple((r.name, r.qubits) for r in self.registers)

    def norm(self) -> float:
        """sqrt(<a|a>), one dot product over the amplitudes in memory order:
        no temporary of the state's size."""
        flat = self.amplitudes.ravel(order="K")
        return math.sqrt(np.vdot(flat, flat).real)

    def _assert_normalized(self) -> None:
        check_unit_norm(self.norm())

    # -- register-level unitaries -----------------------------------------

    def apply_register_unitary(self, name: str, matrix: np.ndarray) -> "StateVector":
        """Apply a dim x dim unitary to one register, identity elsewhere."""
        ax = self.axis(name)
        dim = self.registers[ax].dim
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape != (dim, dim):
            raise InvalidInputError(f"matrix shape {matrix.shape} does not fit register {name!r} of dim {dim}")
        moved = np.moveaxis(self.amplitudes, ax, 0)
        out = np.tensordot(matrix, moved, axes=([1], [0]))
        out = np.moveaxis(out, 0, ax)
        return StateVector(self.registers, out)

    def apply_controlled_unitary(
        self, control: str, target: str, unitaries: Mapping[int, np.ndarray]
    ) -> "StateVector":
        """For each control basis value v in ``unitaries``, apply that matrix
        to the target register on the v-slice; other slices are untouched."""
        c_ax = self.axis(control)
        t_ax = self.axis(target)
        if c_ax == t_ax:
            raise InvalidInputError("control and target registers must differ")
        t_dim = self.registers[t_ax].dim
        out = self.amplitudes.astype(np.complex128)
        view = np.moveaxis(out, (c_ax, t_ax), (0, 1))
        for value, matrix in unitaries.items():
            if not 0 <= value < self.registers[c_ax].dim:
                raise InvalidInputError(f"control value {value} out of range for register {control!r}")
            matrix = np.asarray(matrix, dtype=np.complex128)
            if matrix.shape != (t_dim, t_dim):
                raise InvalidInputError(f"matrix shape {matrix.shape} does not fit register {target!r}")
            view[value] = np.tensordot(matrix, view[value], axes=([1], [0]))
        return StateVector(self.registers, out)

    def apply_controlled_xor(self, control: str, target: str, xor_by_value: Mapping[int, int]) -> "StateVector":
        """Classical reversible map: when the control register holds value v,
        XOR ``xor_by_value[v]`` into the target register's basis label."""
        c_ax = self.axis(control)
        t_ax = self.axis(target)
        if c_ax == t_ax:
            raise InvalidInputError("control and target registers must differ")
        t_dim = self.registers[t_ax].dim
        out = self.amplitudes.copy()
        view = np.moveaxis(out, (c_ax, t_ax), (0, 1))
        base = np.arange(t_dim)
        for value, word in xor_by_value.items():
            if not 0 <= value < self.registers[c_ax].dim:
                raise InvalidInputError(f"control value {value} out of range for register {control!r}")
            if not 0 <= word < t_dim:
                raise InvalidInputError(f"xor word {word} out of range for register {target!r}")
            # new[t] = old[t ^ word]; XOR is an involution so this is unitary
            view[value] = view[value][base ^ word]
        return StateVector(self.registers, out)

    # -- bit-level gates (for reference circuits) ---------------------------

    def _bit_shift(self, name: str, bit: int) -> int:
        """Shift (from the flat-index LSB) of a register bit, MSB-first."""
        reg = self.register(name)
        if not 0 <= bit < reg.qubits:
            raise InvalidInputError(f"bit {bit} out of range for register {name!r} ({reg.qubits} qubits)")
        trailing = 0
        seen = False
        for r in self.registers:
            if r.name == name:
                trailing += reg.qubits - 1 - bit
                seen = True
            elif seen:
                trailing += r.qubits
        return trailing

    def apply_mcx(self, controls: Iterable[tuple[str, int]], target: tuple[str, int]) -> "StateVector":
        """Multi-controlled X: flip the target bit where all control bits are 1."""
        flat = self.amplitudes.reshape(-1).copy()
        idx = np.arange(flat.size)
        mask = np.ones(flat.size, dtype=bool)
        t_shift = self._bit_shift(*target)
        for name, bit in controls:
            shift = self._bit_shift(name, bit)
            if shift == t_shift:
                raise InvalidInputError("control and target bits must differ")
            mask &= ((idx >> shift) & 1) == 1
        lower = idx[mask & (((idx >> t_shift) & 1) == 0)]
        upper = lower | (1 << t_shift)
        flat[lower], flat[upper] = flat[upper].copy(), flat[lower].copy()
        return StateVector(self.registers, flat.reshape(self.amplitudes.shape))

    def apply_x(self, name: str, bit: int) -> "StateVector":
        return self.apply_mcx([], (name, bit))

    # -- register management -------------------------------------------------

    def append_register(self, name: str, qubits: int) -> "StateVector":
        """Tensor a fresh register in |0...0> onto the end of the layout."""
        new_reg = Register(name, qubits)
        if any(r.name == name for r in self.registers):
            raise InvalidInputError(f"register {name!r} already present")
        shape = self.amplitudes.shape + (new_reg.dim,)
        amps = np.zeros(shape, dtype=np.complex128)
        amps[..., 0] = self.amplitudes
        return StateVector(self.registers + (new_reg,), amps)

    def remove_register(self, name: str) -> "StateVector":
        """Drop a register that is disentangled in |0>. Errors if any
        amplitude mass sits outside the |0> slice."""
        ax = self.axis(name)
        moved = np.moveaxis(self.amplitudes, ax, 0)
        residual = float(np.sum(np.abs(moved[1:]) ** 2))
        if residual > 1e-9:
            raise ContractViolationError(
                f"register {name!r} is not |0> (residual probability {residual:.3e})"
            )
        regs = tuple(r for r in self.registers if r.name != name)
        amps = moved[0] / np.sqrt(max(1.0 - residual, 1e-300))
        return StateVector(regs, amps)

    # -- measurement-side helpers ---------------------------------------------

    def probabilities(self, name: str) -> np.ndarray:
        """Exact marginal distribution over one register's basis values."""
        ax = self.axis(name)
        probs = np.abs(self.amplitudes) ** 2
        axes = tuple(i for i in range(probs.ndim) if i != ax)
        return probs.sum(axis=axes)

    def project_and_remove(self, assignments: Mapping[str, int]) -> tuple["StateVector", float]:
        """Project the named registers onto fixed basis values, renormalize,
        and drop those registers. Returns (state, probability). A projection
        of zero mass is refused, as ``restrict_register`` refuses one: there
        is no state to renormalize, and every state is built checked."""
        indexer: list = [slice(None)] * self.amplitudes.ndim
        for name, value in assignments.items():
            ax = self.axis(name)
            if not 0 <= value < self.registers[ax].dim:
                raise InvalidInputError(f"basis value {value} out of range for register {name!r}")
            indexer[ax] = value
        block = self.amplitudes[tuple(indexer)]
        prob = float(np.sum(np.abs(block) ** 2))
        regs = tuple(r for r in self.registers if r.name not in assignments)
        if prob <= 0.0:
            raise InvalidInputError(f"projection onto {dict(assignments)} has zero mass")
        return StateVector(regs, block / np.sqrt(prob)), prob

    def restrict_register(self, name: str, allowed: Iterable[int]) -> tuple["StateVector", float]:
        """Project one register onto a subset of basis values and renormalize,
        keeping the register in place. Returns (state, probability). A
        projection of zero mass is refused."""
        ax = self.axis(name)
        dim = self.registers[ax].dim
        values = np.fromiter(map(operator.index, allowed), dtype=np.intp)  # a float is no basis value
        outside = (values < 0) | (values >= dim)
        if outside.any():
            raise InvalidInputError(f"basis value {values[outside.argmax()]} out of range for register {name!r}")
        keep = np.zeros(dim, dtype=bool)
        keep[values] = True
        moved = np.moveaxis(self.amplitudes.copy(), ax, 0)
        moved[~keep] = 0.0
        prob = float(np.sum(np.abs(moved) ** 2))
        if prob <= 0.0:
            kept = np.flatnonzero(keep).tolist()
            raise InvalidInputError(f"projection of register {name!r} onto {kept} has zero mass")
        out = np.moveaxis(moved, 0, ax) / np.sqrt(prob)
        return StateVector(self.registers, out), prob

    def basis_amplitude(self, assignment: Mapping[str, int]) -> complex:
        indexer = []
        for reg in self.registers:
            if reg.name not in assignment:
                raise InvalidInputError(f"assignment missing register {reg.name!r}")
            indexer.append(assignment[reg.name])
        return complex(self.amplitudes[tuple(indexer)])

    # -- comparison ---------------------------------------------------------

    def inner(self, other: "StateVector") -> complex:
        if self.layout() != other.layout():
            raise InvalidInputError(f"layout mismatch: {self.layout()} vs {other.layout()}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "StateVector") -> float:
        return min(abs(self.inner(other)), 1.0)

    def __repr__(self) -> str:
        regs = ", ".join(f"{r.name}:{r.qubits}" for r in self.registers)
        return f"StateVector({regs})"

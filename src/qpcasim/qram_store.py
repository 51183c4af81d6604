"""Amplitude encoding of a data matrix.

Production loads one state straight from the matrix: the data state, the
padded X / |X|_F over (row, feature), divided by the norm ``DataMatrix``
kept. That is the state the binary-tree QRAM of Kerenidis and Prakash
(arXiv:1603.08675) prepares. The anchor row is never loaded as a state:
the circuit reads it only through its overlaps with the kept principal
directions (``SpectralModel.overlaps``), formed from the unit row
x_i / |x_i|, the vector column 0 of ``row_prep_unitary`` prepares.

The tree is the reference circuit's. One tree per row stores partial sums
of squared entries with signs kept at the leaves; one more tree stores the
row norms. Walking a tree level by level yields the controlled-rotation
cascade that prepares the encoded vector from |0...0>. That cascade is
built as an exact orthogonal matrix, whose inverse is its transpose, with
the register-level preparations built from it; the tests hold the data
state and the unit rows against those. Rows and columns are zero-padded
to powers of two; padded rows carry zero weight and are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, InvalidInputError, OutOfRangeError
from .pca_oracle import DataMatrix
from .statevector import StateVector, ceil_log2

STRICT_TOL = 1e-9


def _build_levels(leaves: np.ndarray) -> list[np.ndarray]:
    """Partial-sum levels from the root down; leaves are the last entry.
    Internal nodes are the exact float sum of their two children."""
    levels = [leaves]
    while levels[0].shape[-1] > 1:
        levels.insert(0, levels[0][..., 0::2] + levels[0][..., 1::2])
    return levels


@dataclass(frozen=True)
class QramTree:
    """Partial-sum trees for one data matrix."""

    n_rows: int
    n_cols: int
    padded_rows: int
    padded_cols: int
    row_qubits: int
    feature_qubits: int
    row_levels: list[np.ndarray]     # level l: (n_rows, 2**l), squared entries
    row_signs: np.ndarray            # (n_rows, padded_cols), +-1
    norm_levels: list[np.ndarray]    # level l: (2**l,), squared row norms
    frobenius_sq: float              # the norm tree's root


def build_tree(data: DataMatrix) -> QramTree:
    """Build the per-row and norm trees, padded to the next powers of two."""
    x = data.values
    n, d = x.shape
    row_qubits, feature_qubits = ceil_log2(n), ceil_log2(d)
    padded_rows, padded_cols = 1 << row_qubits, 1 << feature_qubits

    leaves = np.zeros((n, padded_cols))
    leaves[:, :d] = x ** 2
    signs = np.ones((n, padded_cols))
    signs[:, :d] = np.where(x < 0.0, -1.0, 1.0)
    row_levels = _build_levels(leaves)

    # Each row tree's root is that row's squared norm; reuse it verbatim so
    # the two trees agree bit for bit.
    norm_leaves = np.zeros(padded_rows)
    norm_leaves[:n] = row_levels[0][:, 0]
    norm_levels = _build_levels(norm_leaves)

    return QramTree(
        n_rows=n,
        n_cols=d,
        padded_rows=padded_rows,
        padded_cols=padded_cols,
        row_qubits=row_qubits,
        feature_qubits=feature_qubits,
        row_levels=row_levels,
        row_signs=signs,
        norm_levels=norm_levels,
        frobenius_sq=float(norm_levels[0][0]),
    )


def _prep_unitary(levels: list[np.ndarray], signs: np.ndarray | None) -> np.ndarray:
    """Exact preparation matrix from a partial-sum tree.

    Column 0 is the encoded unit vector; the remaining columns are the
    deterministic completion induced by the rotation cascade. Zero subtrees
    contribute identity rotations. Signs, when given, fold into the last
    level so leaf amplitudes come out signed.
    """
    depth = len(levels) - 1
    dim = 1 << depth
    if depth == 0:
        sign = 1.0 if signs is None else float(signs[0])
        return np.array([[sign]])

    unitary = np.eye(dim)
    for level in range(depth):
        step = np.zeros((dim, dim))
        block = 1 << (depth - level)       # span of one node at this level
        half = block >> 1
        last = level == depth - 1
        for node in range(1 << level):
            parent = float(levels[level][node])
            left = float(levels[level + 1][2 * node])
            right = float(levels[level + 1][2 * node + 1])
            if parent <= 0.0:
                rot = np.eye(2)
            else:
                c = math.sqrt(max(left, 0.0) / parent)
                s = math.sqrt(max(right, 0.0) / parent)
                if last and signs is not None:
                    sl = float(signs[2 * node])
                    sr = float(signs[2 * node + 1])
                    rot = np.array([[sl * c, -sr * s], [sr * s, sl * c]])
                else:
                    rot = np.array([[c, -s], [s, c]])
            lo = node * block
            step[lo : lo + block, lo : lo + block] = np.kron(rot, np.eye(half))
        unitary = step @ unitary
    return unitary


def norm_prep_unitary(tree: QramTree) -> np.ndarray:
    """Prepares sum_i (|x_i| / |X|_F) |i> from |0> on the row register."""
    return _prep_unitary(tree.norm_levels, None)


def row_prep_unitary(tree: QramTree, row_index: int) -> np.ndarray:
    """Prepares the unit-normalized row ``row_index`` on the feature register."""
    if not 0 <= row_index < tree.n_rows:
        raise OutOfRangeError(f"row index {row_index} out of range for {tree.n_rows} rows")
    levels = [lvl[row_index] for lvl in tree.row_levels]
    return _prep_unitary(levels, tree.row_signs[row_index])


def _check_register_zero(state: StateVector, name: str) -> None:
    probs = state.probabilities(name)
    if 1.0 - float(probs[0]) > STRICT_TOL:
        raise ContractViolationError(
            f"register {name!r} must be |0> before this preparation (P0={float(probs[0]):.12f})"
        )


def apply_norm_prep(state: StateVector, tree: QramTree) -> StateVector:
    """Load row-norm amplitudes onto the "row" register (any feature content)."""
    _check_register_zero(state, "row")
    if state.register("row").dim != tree.padded_rows:
        raise InvalidInputError("row register size does not match the tree padding")
    return state.apply_register_unitary("row", norm_prep_unitary(tree))


def apply_row_prep(state: StateVector, tree: QramTree) -> StateVector:
    """Conditioned on each physical "row" label, load that row's unit vector
    onto the "feature" register. Padded row labels are left untouched."""
    _check_register_zero(state, "feature")
    if state.register("feature").dim != tree.padded_cols:
        raise InvalidInputError("feature register size does not match the tree padding")
    if state.register("row").dim != tree.padded_rows:
        raise InvalidInputError("row register size does not match the tree padding")
    unitaries = {i: row_prep_unitary(tree, i) for i in range(tree.n_rows)}
    return state.apply_controlled_unitary("row", "feature", unitaries)


def prepare_data_state(data: DataMatrix) -> StateVector:
    """Full encoded state: amplitudes X_ij / |X|_F over (row, feature).

    The state ``apply_norm_prep`` then ``apply_row_prep`` prepare from
    |0>|0>, up to round-off."""
    n, d = data.values.shape
    row_qubits, feature_qubits = ceil_log2(n), ceil_log2(d)
    amps = np.zeros((1 << row_qubits, 1 << feature_qubits))
    np.divide(data.values, data.frobenius_norm, out=amps[:n, :d])
    return StateVector.from_amplitudes([("row", row_qubits), ("feature", feature_qubits)], amps)

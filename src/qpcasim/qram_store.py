"""Binary-tree amplitude encoding of a data matrix.

One tree per row stores partial sums of squared entries with signs kept at
the leaves; one more tree stores the row norms. Walking a tree level by
level yields the controlled-rotation cascade that prepares the encoded
vector from |0...0>. ``build_tree`` runs that cascade once, on amplitude
vectors for all rows at once in O(N*D), and keeps every row's unit vector
on the tree; the data-state loader scales those by the norm tree's cascade,
and a row state is a read of its row. The full cascade is also available as
an exact orthogonal matrix, whose inverse is its transpose, with the
register-level preparations built from it; the tests hold the loaders
against those. Rows and columns are zero-padded to powers of two; padded
rows carry zero weight and are skipped.
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
    """Partial-sum trees for one data matrix, and the unit row vectors that
    the row trees' cascade prepares."""

    n_rows: int
    n_cols: int
    padded_rows: int
    padded_cols: int
    row_levels: list[np.ndarray]     # level l: (n_rows, 2**l), squared entries
    row_signs: np.ndarray            # (n_rows, padded_cols), +-1
    norm_levels: list[np.ndarray]    # level l: (2**l,), squared row norms
    row_amplitudes: np.ndarray       # (n_rows, padded_cols), read-only: each row's unit vector

    @property
    def row_qubits(self) -> int:
        return int(math.log2(self.padded_rows)) if self.padded_rows > 1 else 0

    @property
    def feature_qubits(self) -> int:
        return int(math.log2(self.padded_cols)) if self.padded_cols > 1 else 0

    @property
    def frobenius_sq(self) -> float:
        return float(self.norm_levels[0][0])


def build_tree(data: DataMatrix) -> QramTree:
    """Build the per-row and norm trees, padded to the next powers of two."""
    x = data.values
    n, d = x.shape
    padded_rows = 1 << ceil_log2(n)
    padded_cols = 1 << ceil_log2(d)

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

    rows = _cascade(row_levels, signs)
    rows.flags.writeable = False

    return QramTree(
        n_rows=n,
        n_cols=d,
        padded_rows=padded_rows,
        padded_cols=padded_cols,
        row_levels=row_levels,
        row_signs=signs,
        norm_levels=norm_levels,
        row_amplitudes=rows,
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


def _cascade(levels: list[np.ndarray], signs: np.ndarray | None) -> np.ndarray:
    """Column 0 of ``_prep_unitary`` for a batch of trees: the rotation
    cascade run level by level on the amplitude vectors themselves.

    ``levels[l]`` has shape (..., 2**l) and ``signs``, when given, the
    leaves' shape. Each node's amplitude a becomes (c a, s a) on its
    children, with the rotation, sign and zero-subtree rules of
    ``_prep_unitary`` and the same products, so the result is bit-identical
    to that matrix's first column. A level's (c, s) pairs are one array,
    sqrt(children / parent); the entries are sums of squares, so a parent
    is 0 exactly when both its children are, and there the 0 / 0 is
    replaced by the dead subtree's unsigned (1, 0).
    """
    depth = len(levels) - 1
    amps = np.ones(levels[0].shape)
    if depth == 0:
        return amps if signs is None else amps * signs
    for level in range(depth):
        parent = levels[level]
        with np.errstate(invalid="ignore"):
            ratio = levels[level + 1].reshape(*parent.shape, 2) / parent[..., None]
        np.sqrt(ratio, out=ratio)
        if level == depth - 1 and signs is not None:
            ratio *= signs.reshape(ratio.shape)
        ratio[parent == 0.0] = (1.0, 0.0)
        ratio *= amps[..., None]
        amps = ratio.reshape(*parent.shape[:-1], -1)
    return amps


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


def prepare_data_state(tree: QramTree) -> StateVector:
    """Full encoded state: amplitudes X_ij / |X|_F over (row, feature).

    Equals ``apply_norm_prep`` then ``apply_row_prep`` on |0>|0>, with the
    cascades run on vectors instead of matrices: the tree's row vectors
    times the norm cascade."""
    norms = _cascade(tree.norm_levels, None)
    amps = np.zeros((tree.padded_rows, tree.padded_cols))
    amps[: tree.n_rows] = tree.row_amplitudes * norms[: tree.n_rows, None]
    return StateVector.from_amplitudes([("row", tree.row_qubits), ("feature", tree.feature_qubits)], amps)


def prepare_row_state(tree: QramTree, row_index: int) -> StateVector:
    """One row's unit vector on a lone feature register: column 0 of
    ``row_prep_unitary``, read from the cascade ``build_tree`` ran."""
    if not 0 <= row_index < tree.n_rows:
        raise OutOfRangeError(f"row index {row_index} out of range for {tree.n_rows} rows")
    return StateVector.from_amplitudes([("feature", tree.feature_qubits)], tree.row_amplitudes[row_index])

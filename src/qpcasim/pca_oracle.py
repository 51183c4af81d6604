"""Classical SVD/PCA ground truth.

Everything downstream is checked against this module: the data matrix,
whose row norms and Frobenius norm the pipeline divides by and so must be
nonzero and finite (``norm_range_fault``), the singular value
decomposition with a deterministic sign convention, the variance-threshold
rule that picks the compressed dimension, the projected data matrix, and the
ideal compressed statevector the quantum pipeline is supposed to reproduce.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, replace
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, OutOfRangeError
from .statevector import StateVector, ceil_log2, token_qubits

# Relative cutoff below which a singular value is treated as exactly zero.
RANK_CUTOFF = 1e-12

# Rows per block of the pairwise overlap audit: its working memory is two
# block x N slabs, each reduced where it stands. BLAS rounds a Gram entry
# according to where it falls in the product's tiles, so the block height
# decides the last bit of some deviations: on the 300x6 `compress_tall`
# golden, with OpenBLAS 0.3.31, every other multiple of 8 up to 296 rows
# moves its mean.
OVERLAP_BLOCK_ROWS = 128


def norm_range_fault(values: np.ndarray) -> tuple[int | None, str] | None:
    """Why the pipeline could not divide by the norms of ``values``, or None.

    The pipeline divides by every row norm and by the Frobenius norm, so it
    refuses a row that is exactly zero, a row whose sum of squares underflows
    to zero or overflows, and a matrix whose total sum of squares overflows.
    Returns (index of the first bad row, problem) for a row, and (None,
    problem) for the total.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(values, axis=1)
        total = np.linalg.norm(values)
    bad = np.flatnonzero((norms == 0.0) | np.isinf(norms))
    if bad.size:
        row = int(bad[0])
        if not values[row].any():
            return row, "row is entirely zero"
        if norms[row] == 0.0:
            return row, "row's sum of squares underflows to zero; rescale the data"
        return row, "row's sum of squares overflows; rescale the data"
    if np.isinf(total):
        return None, "the matrix's total sum of squares overflows; rescale the data"
    return None


@dataclass(frozen=True)
class DataMatrix:
    """Validated real data matrix, rows are points, columns features.

    Its norms must be in range (``norm_range_fault``): a bad row raises
    ``InvalidInputError`` naming it, an overflowing total
    ``OutOfRangeError``.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise InvalidInputError(f"expected a 2-D matrix, got ndim={arr.ndim}")
        n, d = arr.shape
        if n < 1 or d < 1:
            raise InvalidInputError(f"matrix must be at least 1x1, got {n}x{d}")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("matrix contains NaN or infinite entries")
        fault = norm_range_fault(arr)
        if fault is not None:
            row, problem = fault
            if row is None:
                raise OutOfRangeError(problem)
            raise InvalidInputError(f"row {row}: {problem}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class SpectralModel:
    """SVD of a data matrix plus the variance-threshold selection.

    singular_values has one entry per feature column (zero-padded past the
    rank), variance_proportions are their squares normalized to sum 1, and
    right_vectors and left_vectors hold the principal directions alone, one
    column per nonzero singular value, with signs fixed against the anchor
    row.
    """

    singular_values: np.ndarray          # (D,), descending, zero-padded
    variance_proportions: np.ndarray     # (D,), sums to 1
    right_vectors: np.ndarray            # (D, rank), columns
    left_vectors: np.ndarray             # (N, rank), columns
    threshold: float
    selected_dim: int
    anchor_index: int

    @property
    def n_rows(self) -> int:
        return self.left_vectors.shape[0]

    @property
    def n_cols(self) -> int:
        return self.singular_values.size

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.singular_values))

    def cumulative_variance(self) -> np.ndarray:
        """Running variance fractions, built so the entry at the rank is
        exactly 1.0 (the tail singular values are stored as exact zeros)."""
        sq = np.cumsum(self.singular_values ** 2)
        return sq / sq[-1]

    @property
    def variance_captured(self) -> float:
        return float(self.cumulative_variance()[self.selected_dim - 1])

    def anchor_signs(self, data: DataMatrix, anchor_index: int) -> np.ndarray:
        """-1 for each principal direction whose overlap with row
        ``anchor_index`` of ``data`` is negative, +1 for the others (a
        direction orthogonal to the row included), one per column of
        ``right_vectors``."""
        if not 0 <= anchor_index < self.n_rows:
            raise OutOfRangeError(f"anchor index {anchor_index} out of range for {self.n_rows} rows")
        return np.where(data.values[anchor_index] @ self.right_vectors < 0.0, -1.0, 1.0)

    def with_anchor(self, data: DataMatrix, anchor_index: int) -> "SpectralModel":
        """The same decomposition with its signs fixed against row
        ``anchor_index`` of ``data`` (``anchor_signs``): each flipped
        principal direction's left vector flips in tandem, keeping the
        reconstruction identity intact."""
        return self.with_signs(self.anchor_signs(data, anchor_index), anchor_index)

    def with_signs(self, signs: np.ndarray, anchor_index: int) -> "SpectralModel":
        """``with_anchor`` for a row whose ``anchor_signs`` the caller
        already holds."""
        v, u = self.right_vectors * signs, self.left_vectors * signs
        return replace(self, right_vectors=v, left_vectors=u, anchor_index=int(anchor_index))


@dataclass(frozen=True)
class CompressedMatrix:
    values: np.ndarray      # (N, d)
    source_shape: tuple[int, int]
    selected_dim: int

    @property
    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.values))

    @property
    def row_norms(self) -> np.ndarray:
        return np.linalg.norm(self.values, axis=1)


@dataclass(frozen=True)
class OverlapReport:
    """Pairwise-geometry check: how well unit-row overlaps survive compression.

    The statistics run over the ``n_pairs`` pairs i1 < i2 of unflagged rows
    (``pairwise_overlap_report``); no per-pair array is kept. ``unit_rows``
    are the unflagged unit rows (x, y) before and after compression, from
    which ``deviations`` is rebuilt on first read.
    """

    tolerance: float
    fraction_within: float
    max_deviation: float
    mean_deviation: float
    n_pairs: int
    unit_rows: InitVar[tuple[np.ndarray, np.ndarray]]
    flagged_rows: tuple[int, ...] = field(default_factory=tuple)  # zero-norm compressed rows

    def __post_init__(self, unit_rows):
        object.__setattr__(self, "_unit_rows", unit_rows)

    @cached_property
    def deviations(self) -> np.ndarray:
        """(n_pairs,) |<y1|y2> - <x1|x2>| in row-major pair order, the same
        bits the statistics were taken from. Built on first read, at one
        float per pair. No code under ``src/`` reads it; it stays because
        the benchmark tracer counts the audit's pairs from its size."""
        return _pair_deviations(*self._unit_rows)


def svd_decompose(data: DataMatrix, threshold: float = 0.95, anchor_index: int = 0) -> SpectralModel:
    """Thin SVD truncated at the rank, with anchor-fixed signs.

    Singular values below RANK_CUTOFF * sigma_max are stored as exact zeros,
    and only the singular vectors of the nonzero ones are kept: no array is
    D x D. The selected dimension is the smallest s whose leading variance
    fraction reaches ``threshold`` (an exact >= on float64). The signs of
    the principal directions follow row ``anchor_index`` (see
    ``SpectralModel.with_anchor``).
    """
    if not 0.0 < threshold <= 1.0:
        raise OutOfRangeError(f"variance threshold must be in (0, 1], got {threshold}")
    n, d = data.n_rows, data.n_cols

    try:
        u, s, vt = np.linalg.svd(data.values, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD did not converge: {exc}") from exc

    p = min(n, d)
    sigma = np.zeros(d)
    sigma[:p] = s
    cutoff = sigma[0] * RANK_CUTOFF
    sigma[sigma <= cutoff] = 0.0
    rank = int(np.count_nonzero(sigma))

    cum = np.cumsum(sigma ** 2)
    selected = int(np.count_nonzero(cum / cum[-1] < threshold)) + 1
    return SpectralModel(
        singular_values=sigma,
        variance_proportions=sigma ** 2 / cum[-1],
        right_vectors=vt[:rank].T,
        left_vectors=u[:, :rank],
        threshold=float(threshold),
        selected_dim=selected,
        anchor_index=0,
    ).with_anchor(data, anchor_index)


def project(data: DataMatrix, model: SpectralModel, dim: int | None = None) -> CompressedMatrix:
    """Coordinates of every row in the leading principal directions."""
    d = model.selected_dim if dim is None else dim
    if not 1 <= d <= model.rank:
        raise OutOfRangeError(f"target dimension {d} out of range [1, {model.rank}]")
    if data.n_cols != model.n_cols:
        raise InvalidInputError(
            f"data has {data.n_cols} columns but the model was built for {model.n_cols}"
        )
    y = data.values @ model.right_vectors[:, :d]
    return CompressedMatrix(values=y, source_shape=(data.n_rows, data.n_cols), selected_dim=d)


def expected_compressed_state(compressed: CompressedMatrix, row_mask: np.ndarray | None = None) -> StateVector:
    """Ideal output state: row i, component register holding label j+1 with
    amplitude y_ij, normalized by the Frobenius norm. Label 0 stays empty.

    ``row_mask`` restricts to a subset of rows (subset-mode reference)."""
    y = compressed.values
    if row_mask is not None:
        y = np.where(np.asarray(row_mask, dtype=bool)[:, None], y, 0.0)
    norm = float(np.linalg.norm(y))
    if norm == 0.0:
        raise InvalidInputError("compressed matrix has zero Frobenius norm; nothing to encode")
    n, d = y.shape
    row_qubits = ceil_log2(n)
    index_qubits = token_qubits(d)
    amps = np.zeros((1 << row_qubits, 1 << index_qubits), dtype=np.complex128)
    amps[:n, 1 : d + 1] = y / norm
    return StateVector.from_amplitudes([("row", row_qubits), ("index", index_qubits)], amps)


def expected_row_state(compressed: CompressedMatrix, row_index: int) -> StateVector:
    """Single-row reference state on the component register alone."""
    if not 0 <= row_index < compressed.values.shape[0]:
        raise OutOfRangeError(f"row index {row_index} out of range")
    y = compressed.values[row_index]
    norm = float(np.linalg.norm(y))
    if norm == 0.0:
        raise InvalidInputError(f"row {row_index} compresses to the zero vector")
    d = y.size
    index_qubits = token_qubits(d)
    amps = np.zeros(1 << index_qubits, dtype=np.complex128)
    amps[1 : d + 1] = y / norm
    return StateVector.from_amplitudes([("index", index_qubits)], amps)


def _overlap_slabs(x: np.ndarray, y: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """The audit's blocks: for rows i0:i1 (OVERLAP_BLOCK_ROWS of them) of
    the m unit rows, (i0, the block x (m - i0) slab |y y^T - x x^T| of those
    rows against rows i0:). A slab's strict upper triangle holds its rows'
    pairs. The last row pairs with no later row, so every slab has a pair.
    Up to OVERLAP_BLOCK_ROWS rows the slab is one symmetric product,
    y @ y.T; past it, BLAS may sum an entry in another order than the full
    product would (a last-bit difference).

    The two products are written into two buffers of the first slab's size,
    allocated once: each slab is a view that the next one overwrites."""
    m = x.shape[0]
    size = min(OVERLAP_BLOCK_ROWS, m) * m
    gram, temp = np.empty(size), np.empty(size)
    for i0 in range(0, m - 1, OVERLAP_BLOCK_ROWS):
        i1 = min(i0 + OVERLAP_BLOCK_ROWS, m)
        b, w = i1 - i0, m - i0
        g = np.matmul(y[i0:i1], y[i0:].T, out=gram[: b * w].reshape(b, w))
        g -= np.matmul(x[i0:i1], x[i0:].T, out=temp[: b * w].reshape(b, w))
        np.abs(g, out=g)
        yield i0, g


def _pair_deviations(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Every slab's strict upper triangle gathered in row-major pair order:
    the array ``OverlapReport.deviations`` builds on first read."""
    m = x.shape[0]
    devs = np.empty(m * (m - 1) // 2)
    upper = np.triu(np.ones((OVERLAP_BLOCK_ROWS, m), dtype=bool), 1)
    for i0, g in _overlap_slabs(x, y):
        i1 = i0 + g.shape[0]
        # The rows before row r have r * (2m - r - 1) / 2 pairs.
        devs[i0 * (2 * m - i0 - 1) // 2 : i1 * (2 * m - i1 - 1) // 2] = g[upper[: i1 - i0, : m - i0]]
    return devs


def pairwise_overlap_report(
    data: DataMatrix, compressed: CompressedMatrix, tolerance: float = 1e-6
) -> OverlapReport:
    """Compare unit-row overlaps before and after compression, all pairs.

    The deviations are |<y1|y2> - <x1|x2>| for every pair of rows i1 < i2
    whose compressed rows are nonzero. The flagged rows (zero compressed
    norm) are dropped first, so the m rows left pair with each other only.
    The audit then reduces one slab at a time (``_overlap_slabs``) where it
    stands: the diagonal and lower triangle of the slab's leading square are
    zeroed, and the slab adds its sum and its maximum; its entries above
    ``tolerance`` are counted only when that maximum exceeds it. The memory
    is two slabs, not the n_pairs deviations nor two m x m Gram matrices.
    The mean is the sum of the slab sums over n_pairs, so it may differ in
    its last bit from one mean over the gathered deviations.
    """
    if compressed.values.shape[0] != data.n_rows:
        raise InvalidInputError("compressed matrix row count does not match the data")
    if not tolerance >= 0.0:
        raise OutOfRangeError(f"overlap tolerance must be nonnegative, got {tolerance}")
    y_norms = compressed.row_norms
    flagged = tuple(np.flatnonzero(y_norms == 0.0).tolist())
    ok = y_norms > 0.0
    x = data.values[ok]
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y = compressed.values[ok] / y_norms[ok, None]

    m = x.shape[0]
    n_pairs = m * (m - 1) // 2
    lower = np.tril(np.ones((OVERLAP_BLOCK_ROWS, OVERLAP_BLOCK_ROWS), dtype=bool))
    total = 0.0
    top = 0.0
    over = 0
    for _, g in _overlap_slabs(x, y):
        b = g.shape[0]
        g[:, :b][lower[:b, :b]] = 0.0
        total += float(g.sum())
        block_top = float(g.max())
        top = max(top, block_top)
        if block_top > tolerance:
            over += int(np.count_nonzero(g > tolerance))
    return OverlapReport(
        tolerance=float(tolerance),
        fraction_within=(n_pairs - over) / n_pairs if n_pairs else 1.0,
        max_deviation=top,
        mean_deviation=total / n_pairs if n_pairs else 0.0,
        n_pairs=n_pairs,
        unit_rows=(x, y),
        flagged_rows=flagged,
    )

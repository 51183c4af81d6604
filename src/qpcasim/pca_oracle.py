"""Classical SVD/PCA ground truth.

Everything downstream is checked against this module: the singular value
decomposition with a deterministic sign convention, the variance-threshold
rule that picks the compressed dimension, the projected data matrix, and the
ideal compressed statevector the quantum pipeline is supposed to reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, OutOfRangeError
from .statevector import StateVector, ceil_log2, token_qubits

# Relative cutoff below which a singular value is treated as exactly zero.
RANK_CUTOFF = 1e-12


@dataclass(frozen=True)
class DataMatrix:
    """Validated real data matrix, rows are points, columns features."""

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
        row_norms = np.linalg.norm(arr, axis=1)
        zero_rows = np.nonzero(row_norms == 0.0)[0]
        if zero_rows.size:
            raise InvalidInputError(f"row {int(zero_rows[0])} is all-zero; every point must have nonzero norm")
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
    right_vectors holds a full orthonormal basis whose first columns are the
    principal directions with signs fixed against the anchor row.
    """

    singular_values: np.ndarray          # (D,), descending, zero-padded
    variance_proportions: np.ndarray     # (D,), sums to 1
    right_vectors: np.ndarray            # (D, D), columns
    left_vectors: np.ndarray             # (N, min(N, D)), columns
    threshold: float
    selected_dim: int
    anchor_index: int

    @property
    def n_rows(self) -> int:
        return self.left_vectors.shape[0]

    @property
    def n_cols(self) -> int:
        return self.right_vectors.shape[0]

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
    """Pairwise-geometry check: how well unit-row overlaps survive compression."""

    deviations: np.ndarray        # (P,) |<y1|y2> - <x1|x2>| on unit rows, pairs i1 < i2
    tolerance: float
    fraction_within: float
    max_deviation: float
    mean_deviation: float
    flagged_rows: tuple[int, ...] = field(default_factory=tuple)  # zero-norm compressed rows


def svd_decompose(data: DataMatrix, threshold: float = 0.95, anchor_index: int = 0) -> SpectralModel:
    """Thin SVD with deterministic completion and anchor-fixed signs.

    Singular values below RANK_CUTOFF * sigma_max are stored as exact zeros;
    the corresponding right-vector columns are rebuilt by Gram-Schmidt over
    canonical axes so the basis stays orthonormal and reproducible. Principal
    directions with nonzero singular value are flipped so their overlap with
    the anchor row is nonnegative (the left vectors flip in tandem, keeping
    the reconstruction identity intact).
    """
    if not 0.0 < threshold <= 1.0:
        raise OutOfRangeError(f"variance threshold must be in (0, 1], got {threshold}")
    n, d = data.n_rows, data.n_cols
    if not 0 <= anchor_index < n:
        raise OutOfRangeError(f"anchor index {anchor_index} out of range for {n} rows")

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

    # Columns past p lie past the rank; the completion below fills them.
    v = np.zeros((d, d))
    v[:, :p] = vt.T

    # Deterministic completion of the null-space columns.
    if rank < d:
        basis = _gram_schmidt_completion(v[:, :rank])
        v[:, rank:] = basis

    # Sign convention: principal directions point toward the anchor row.
    anchor = data.values[anchor_index]
    for j in range(rank):
        if float(v[:, j] @ anchor) < 0.0:
            v[:, j] = -v[:, j]
            u[:, j] = -u[:, j]

    total = np.cumsum(sigma ** 2)[-1]
    proportions = sigma ** 2 / total
    selected = _select_from_sigma(sigma, threshold)
    return SpectralModel(
        singular_values=sigma,
        variance_proportions=proportions,
        right_vectors=v,
        left_vectors=u,
        threshold=float(threshold),
        selected_dim=selected,
        anchor_index=int(anchor_index),
    )


def _gram_schmidt_completion(basis: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full basis using canonical axes."""
    d, r = basis.shape
    cols = [basis[:, j] for j in range(r)]
    extra = []
    for k in range(d):
        if len(cols) + len(extra) == d:
            break
        cand = np.zeros(d)
        cand[k] = 1.0
        for col in cols + extra:
            cand = cand - (col @ cand) * col
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            extra.append(cand / norm)
    if len(cols) + len(extra) != d:
        raise NumericalFailureError("could not complete an orthonormal basis")
    return np.column_stack(extra) if extra else np.empty((d, 0))


def _select_from_sigma(sigma: np.ndarray, threshold: float) -> int:
    cum = np.cumsum(sigma ** 2)
    fractions = cum / cum[-1]
    hits = np.nonzero(fractions >= threshold)[0]
    if hits.size == 0:
        # Cannot occur: the final fraction is exactly 1.0 by construction.
        return sigma.size
    return int(hits[0]) + 1


def select_dimension(model: SpectralModel, threshold: float | None = None) -> int:
    """Smallest s whose leading variance fractions reach the threshold.

    The comparison is an exact >= on float64; no tolerance slack is applied.
    """
    theta = model.threshold if threshold is None else threshold
    if not 0.0 < theta <= 1.0:
        raise OutOfRangeError(f"variance threshold must be in (0, 1], got {theta}")
    return _select_from_sigma(model.singular_values, theta)


def project(data: DataMatrix, model: SpectralModel, dim: int | None = None) -> CompressedMatrix:
    """Coordinates of every row in the leading principal directions."""
    d = model.selected_dim if dim is None else dim
    if not 1 <= d <= model.n_cols:
        raise OutOfRangeError(f"target dimension {d} out of range [1, {model.n_cols}]")
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


def pairwise_overlap_report(
    data: DataMatrix, compressed: CompressedMatrix, tolerance: float = 1e-6
) -> OverlapReport:
    """Compare unit-row overlaps before and after compression, all pairs."""
    if compressed.values.shape[0] != data.n_rows:
        raise InvalidInputError("compressed matrix row count does not match the data")
    x = data.values / np.linalg.norm(data.values, axis=1, keepdims=True)
    y_norms = compressed.row_norms
    flagged = tuple(int(i) for i in np.nonzero(y_norms == 0.0)[0])
    ok = y_norms > 0.0
    y = np.zeros_like(compressed.values)
    y[ok] = compressed.values[ok] / y_norms[ok, None]

    n = data.n_rows
    i1, i2 = np.triu_indices(n, k=1)
    gx = (x @ x.T)[i1, i2]
    gy = (y @ y.T)[i1, i2]
    devs = np.abs(gy - gx)[ok[i1] & ok[i2]]
    if devs.size == 0:
        return OverlapReport(
            deviations=devs,
            tolerance=float(tolerance),
            fraction_within=1.0,
            max_deviation=0.0,
            mean_deviation=0.0,
            flagged_rows=flagged,
        )
    return OverlapReport(
        deviations=devs,
        tolerance=float(tolerance),
        fraction_within=float(np.mean(devs <= tolerance)),
        max_deviation=float(devs.max()),
        mean_deviation=float(devs.mean()),
        flagged_rows=flagged,
    )

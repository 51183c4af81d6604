"""Classical SVD/PCA ground truth.

Everything downstream is checked against this module: the data matrix,
whose row norms and Frobenius norm the pipeline divides by and so must be
nonzero and finite (``norm_range_fault``), the singular value
decomposition with a deterministic sign convention, the variance-threshold
rule that picks the compressed dimension, the projected data matrix, and the
ideal compressed statevector the quantum pipeline is supposed to reproduce,
and how far a produced state lies from it.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, OutOfRangeError
from .modes import check_theta
from .statevector import StateVector, ceil_log2, token_qubits

# Relative cutoff below which a singular value is treated as exactly zero.
RANK_CUTOFF = 1e-12

# Columns of the Gaussian sketch that ``svd_decompose`` tries before a full
# SVD, on data at least 4 times as long on each side: a rank below it is
# found from the sketch alone (``_certified_leading_svd``). The sketch is
# drawn from a fixed seed, so a model never depends on a run's --seed.
LOW_RANK_BLOCK = 8
_LOW_RANK_SEED = 20090929
# Rows per block of the certificate's residual, sized to keep its one
# temporary near 2^18 floats (2 MiB) at any width.
_RESIDUAL_BLOCK_FLOATS = 1 << 18

# Rows per block of the pairwise overlap audit: its working memory is one
# block x N slab, reduced where it stands. 64 was the fastest of 32, 64 and
# 128 at 256x64 and 1024x8 (one BLAS thread). BLAS rounds an entry
# according to where it falls in the product's tiles, so the block height
# decides the last bit of some deviations: on the 300x6 `compress_tall`
# golden, with OpenBLAS 0.3.31, every other multiple of 8 up to 296 rows
# moves its mean.
OVERLAP_BLOCK_ROWS = 64


def norm_range_fault(values: np.ndarray) -> tuple[int | None, str] | None:
    """Why the pipeline could not divide by the norms of ``values``, or None.

    The pipeline divides by every row norm and by the Frobenius norm, so it
    refuses a row that is exactly zero, a row whose sum of squares underflows
    to zero or overflows, and a matrix whose total sum of squares overflows.
    Returns (index of the first bad row, problem) for a row, and (None,
    problem) for the total.
    """
    return _norms_and_fault(values)[2]


def _norms_and_fault(values: np.ndarray) -> tuple[np.ndarray, float, tuple[int | None, str] | None]:
    """The row norms of ``values``, its Frobenius norm, and the fault
    ``norm_range_fault`` reports from them."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(values, axis=1)
        total = np.linalg.norm(values)
    bad = np.flatnonzero((norms == 0.0) | np.isinf(norms))
    if bad.size:
        row = int(bad[0])
        if not values[row].any():
            return norms, total, (row, "row is entirely zero")
        if norms[row] == 0.0:
            return norms, total, (row, "row's sum of squares underflows to zero; rescale the data")
        return norms, total, (row, "row's sum of squares overflows; rescale the data")
    if np.isinf(total):
        return norms, total, (None, "the matrix's total sum of squares overflows; rescale the data")
    return norms, total, None


@dataclass(frozen=True)
class DataMatrix:
    """Validated real data matrix, rows are points, columns features.

    Its norms must be in range (``norm_range_fault``): a bad row raises
    ``InvalidInputError`` naming it, an overflowing total
    ``OutOfRangeError``. The row norms and the Frobenius norm that check
    takes are kept (``row_norms``, ``frobenius_norm``).
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
        norms, total, fault = _norms_and_fault(arr)
        if fault is not None:
            row, problem = fault
            if row is None:
                raise OutOfRangeError(problem)
            raise InvalidInputError(f"row {row}: {problem}")
        arr.flags.writeable = False
        norms.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_row_norms", norms)
        object.__setattr__(self, "_frobenius_norm", float(total))

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def frobenius_norm(self) -> float:
        """``np.linalg.norm(values)``, as the construction check took it."""
        return self._frobenius_norm

    @property
    def row_norms(self) -> np.ndarray:
        """(N,) read-only: ``np.linalg.norm(values, axis=1)``, as the
        construction check took it."""
        return self._row_norms


@dataclass(frozen=True)
class SpectralModel:
    """SVD of a data matrix plus the variance-threshold selection: the one
    eigensystem of rho = X^T X / Tr(X^T X) that every stage reads.

    singular_values has one entry per feature column (zero-padded past the
    rank), variance_proportions are their squares normalized to sum 1 (the
    eigenvalues of rho, descending), and right_vectors holds the principal
    directions alone (the eigenvectors of rho), one column per nonzero
    singular value, with signs fixed against row 0 of the data
    (``svd_decompose``). selected_dim is the kept dimension the spectrum,
    anchor and compression stages take. An anchor is carried as its
    overlaps with the model's directions (``overlaps``), which hold its
    signs too; the model is never re-signed or copied for it.
    """

    singular_values: np.ndarray          # (D,), descending, zero-padded
    variance_proportions: np.ndarray     # (D,), sums to 1
    right_vectors: np.ndarray            # (D, rank), columns
    n_rows: int
    threshold: float
    selected_dim: int

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

    def overlaps(self, data: DataMatrix, row_index: int, k: int) -> np.ndarray:
        """(k,) signed overlaps <v_j|x_i> / |x_i| of row ``row_index`` of
        ``data`` with the leading ``k`` principal directions: V[:, :k]^T
        times the unit row, divided by the norm ``DataMatrix`` kept. These
        are the numbers the circuit reads the anchor through, as the
        rotation's coefficients (their magnitudes, ``coefficients``), as
        the reference's column signs (``_overlap_signs``) and as the anchor
        half of postselection. Negating v_j negates its overlap exactly.
        The caller checks the index."""
        return self.right_vectors[:, :k].T @ (data.values[row_index] / data.row_norms[row_index])


def coefficients(overlaps: np.ndarray) -> np.ndarray:
    """|overlaps|, what a swap test estimates, so no sign enters. One that
    rounds above 1 (a row on a principal direction, as in rank-1 data) is
    capped at 1."""
    return np.minimum(np.abs(overlaps), 1.0)


def _overlap_signs(overlaps: np.ndarray) -> np.ndarray:
    """-1 for each overlap that is negative, +1 for the others (an
    orthogonal direction's included): the signs that turn the directions
    into ones signed against the row the overlaps were taken with."""
    return np.where(overlaps < 0.0, -1.0, 1.0)


@dataclass(frozen=True)
class OverlapReport:
    """Pairwise-geometry check: how well unit-row overlaps survive compression.

    The statistics run over the ``n_pairs`` pairs i1 < i2 of unflagged rows
    (``pairwise_overlap_report``); no per-pair array is kept. ``audited``
    is the (data, y) the audit read, kept by reference, from which
    ``deviations`` is rebuilt on first read through the same unit rows
    (``_unit_rows``) and slabs.
    """

    tolerance: float
    fraction_within: float
    max_deviation: float
    mean_deviation: float
    n_pairs: int
    audited: InitVar[tuple[DataMatrix, np.ndarray]]
    flagged_rows: tuple[int, ...] = field(default_factory=tuple)  # zero-norm compressed rows

    def __post_init__(self, audited):
        object.__setattr__(self, "_audited", audited)

    @cached_property
    def deviations(self) -> np.ndarray:
        """(n_pairs,) |<y1|y2> - <x1|x2>| in row-major pair order, the same
        bits the statistics were taken from, as long as y was not changed
        since (``compress`` makes its projection read-only). Built on first
        read, at one float per pair. No code under ``src/`` reads it; it
        stays because the benchmark tracer counts the audit's pairs from its
        size."""
        data, y = self._audited
        return _pair_deviations(_unit_rows(data, y)[0], y.shape[1])


def svd_decompose(data: DataMatrix, threshold: float = 0.95) -> SpectralModel:
    """Thin SVD truncated at the rank, with signs fixed against row 0.

    Singular values below RANK_CUTOFF * sigma_max are stored as exact zeros,
    and only the singular vectors of the nonzero ones are kept: no array is
    D x D. The selected dimension is the smallest s whose leading variance
    fraction reaches ``threshold`` (an exact >= on float64). The signs of
    the principal directions follow row 0 (``_overlap_signs`` of its
    overlaps); they are signed here and nowhere else.

    Data at least 4 * LOW_RANK_BLOCK long on each side is first tried from
    a fixed-seed Gaussian sketch of LOW_RANK_BLOCK columns
    (``_certified_leading_svd``). Its values and directions are taken only
    when a residual certificate shows the rank is below the block, bounds
    every value the sketch did not find by the cutoff (which zeroes them
    here anyway) and fixes each kept direction by its gap. The rank, the
    selected dimension and the signs are then the full SVD's, and the
    values and directions agree with it to round-off (within 1e-12 of
    sigma_max, overlaps above 1 - 1e-12). Any other data, noisy, of rank
    at or above the block, with a near-degenerate kept pair or too small,
    takes LAPACK's thin SVD, as before; a rejected sketch costs two thin
    N x D x 8 products. With one BLAS thread, the certified path takes
    9.6 ms at 256x4096 rank 4, where the full path took 242 ms, and a
    256x65536 rank-4 ``run_compression`` takes 0.6 s, where it took 10.0 s.
    """
    check_theta(threshold)
    n, d = data.n_rows, data.n_cols

    leading = _certified_leading_svd(data.values) if LOW_RANK_BLOCK <= min(n, d) // 4 else None
    if leading is not None:
        s, vt = leading
    else:
        try:
            _, s, vt = np.linalg.svd(data.values, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"SVD did not converge: {exc}") from exc

    sigma = np.zeros(d)
    sigma[: s.size] = s
    cutoff = sigma[0] * RANK_CUTOFF
    sigma[sigma <= cutoff] = 0.0
    rank = int(np.count_nonzero(sigma))

    cum = np.cumsum(sigma ** 2)
    selected = int(np.count_nonzero(cum / cum[-1] < threshold)) + 1
    v = vt[:rank].T
    return SpectralModel(
        singular_values=sigma,
        variance_proportions=sigma ** 2 / cum[-1],
        right_vectors=v * _overlap_signs(data.values[0] @ v),
        n_rows=n,
        threshold=float(threshold),
        selected_dim=selected,
    )


def _certified_leading_svd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Singular values and right vectors (as rows) of ``x`` from a Gaussian
    sketch of LOW_RANK_BLOCK columns, or None unless a certificate shows
    they are the full SVD's up to round-off.

    Q = orth(x G), with G drawn from _LOW_RANK_SEED and no power step, and
    B = Q^T x = U S V^T, one small thin SVD. With the cutoff RANK_CUTOFF
    times s_max, the r values above it are accepted only when
      (1) the block's smallest value is at or below the cutoff, so the
          sketch saw past the rank (checked first: noisy data stops here,
          after two thin products and one k x D SVD);
      (2) every kept value, and every gap between two kept values, exceeds
          sqrt(RANK_CUTOFF) s_max;
      (3) ||x - (Q U_r S_r) V_r^T||_F <= cutoff, summed over row blocks of
          _RESIDUAL_BLOCK_FLOATS floats, so no N x D temporary is made.
    Q U_r S_r V_r^T is a rank-r matrix whose SVD is (Q U_r, S_r, V_r), so
    by Weyl's inequality (3) puts every kept value within the cutoff of
    x's own, and every value the block did not find at or below it, where
    the full path zeroes it too. By Wedin's theorem a kept direction then
    leans at most cutoff / gap <= 1e-6 rad from x's, a cosine above
    1 - 1e-12, and the full SVD's own direction is fixed to round-off by the
    same gap. Residual (3) is ||x - x V_r V_r^T||_F^2 plus ||(I - QQ^T) x
    V_r||_F^2, two parts in orthogonal row spaces, so it is the stricter
    residual, and forming it needs no N x D x r product x V_r.
    """
    n, d = x.shape
    sketch = np.random.default_rng(_LOW_RANK_SEED).standard_normal((d, LOW_RANK_BLOCK))
    q = np.linalg.qr(x @ sketch)[0]
    try:
        u, s, vt = np.linalg.svd(q.T @ x, full_matrices=False)
    except np.linalg.LinAlgError:
        return None
    cutoff = s[0] * RANK_CUTOFF
    if s[-1] > cutoff:
        return None
    r = int(np.count_nonzero(s > cutoff))
    if np.any(s[:r] - np.append(s[1:r], 0.0) <= np.sqrt(RANK_CUTOFF) * s[0]):
        return None
    # Each residual block is scaled by 1 / s_max before it is squared, so
    # that neither tiny nor huge data underflows or overflows the sum.
    c = q @ (u[:, :r] * s[:r])
    v = vt[:r]
    step = max(1, _RESIDUAL_BLOCK_FLOATS // d)
    block = np.empty(min(step, n) * d)
    total = 0.0
    for i0 in range(0, n, step):
        rows = x[i0 : i0 + step]
        flat = block[: rows.size]
        res = np.matmul(c[i0 : i0 + step], v, out=flat.reshape(rows.shape))
        res -= rows
        res *= 1.0 / s[0]
        total += float(flat @ flat)
    if total > RANK_CUTOFF**2:
        return None
    return s, vt


def project(data: DataMatrix, model: SpectralModel) -> np.ndarray:
    """(N, d): the coordinates of every row in the model's ``selected_dim``
    leading principal directions."""
    if data.n_cols != model.n_cols:
        raise InvalidInputError(
            f"data has {data.n_cols} columns but the model was built for {model.n_cols}"
        )
    return data.values @ model.right_vectors[:, : model.selected_dim]


def expected_compressed_state(y: np.ndarray) -> StateVector:
    """Ideal output state of the (N, d) projection ``y``: row i, component
    register holding label j+1 with amplitude y_ij, normalized by the
    Frobenius norm. Label 0 stays empty.

    A subset's reference is this state restricted as the data state is,
    with ``StateVector.restrict_register`` on "row": restricting rows has
    that one home."""
    norm = float(np.linalg.norm(y))
    if norm == 0.0:
        raise InvalidInputError("compressed matrix has zero Frobenius norm; nothing to encode")
    n, d = y.shape
    row_qubits = ceil_log2(n)
    index_qubits = token_qubits(d)
    amps = np.zeros((1 << row_qubits, 1 << index_qubits))
    amps[:n, 1 : d + 1] = y / norm
    return StateVector.from_amplitudes([("row", row_qubits), ("index", index_qubits)], amps)


def _reference_errors(
    kept: np.ndarray, reference: np.ndarray, overlaps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The infidelity and the deviation, each (S, E), of the scaling sweep's
    kept branches ``kept`` (S, E, *state dims) against the reference state's
    amplitudes ``reference`` signed for each seed's anchor ``overlaps``
    (S, d) (``_overlap_signs``).

    The S signed references are one stack, and every overlap is a
    ``np.vecdot`` over the flattened state: the same BLAS dot, with the same
    conjugated first argument, as ``np.vdot`` of one point, and the residual
    norm the same sqrt of a dot as ``np.linalg.norm`` of a real vector. So
    each entry is the per-point value bit for bit. The residual
    phi - <psi|phi> psi is formed one grid point at a time into one buffer;
    the references and that buffer die with the call.
    """
    n_seeds, n_points = kept.shape[:2]
    d = overlaps.shape[1]
    psi = np.repeat(reference[None], n_seeds, axis=0)
    psi[..., 1 : d + 1] *= _overlap_signs(overlaps)[:, None, :]
    psi = psi.reshape(n_seeds, -1)
    phi = kept.reshape(n_seeds, n_points, -1)
    infid = np.maximum(1.0 - np.minimum(np.abs(np.vecdot(phi, psi[:, None])), 1.0), 0.0)
    dev = np.empty((n_seeds, n_points))
    residual = np.empty_like(psi)
    for k in range(n_points):
        np.multiply(np.vecdot(psi, phi[:, k])[:, None], psi, out=residual)
        np.subtract(phi[:, k], residual, out=residual)
        dev[:, k] = np.sqrt(np.vecdot(residual, residual))
    return infid, dev


def _overlap_slabs(rows: np.ndarray, d: int) -> Iterator[tuple[int, np.ndarray]]:
    """The audit's blocks: for rows i0:i1 (OVERLAP_BLOCK_ROWS of them) of
    the m unit rows, stacked as ``rows`` = [y | x] with y's ``d`` columns
    first, (i0, the block x (m - i0) slab |y y^T - x x^T| of those rows
    against rows i0:). A slab's strict upper triangle holds its rows'
    pairs. The last row pairs with no later row, so every slab has a pair.

    Each slab is one product, [y | -x] of the block's rows times [y | x]^T
    of rows i0:, written into one buffer of the first slab's size allocated
    once (each slab is a view that the next one overwrites), then made
    absolute in place. An entry is one dot product over d + D terms, so it
    may differ in its last bit from the difference of the two Gram entries
    y1.y2 - x1.x2, and BLAS may sum it in another order past the first
    block than one product of all rows would."""
    m, width = rows.shape
    height = min(OVERLAP_BLOCK_ROWS, m)
    slab = np.empty(height * m)
    block = np.empty((height, width))
    for i0 in range(0, m - 1, OVERLAP_BLOCK_ROWS):
        i1 = min(i0 + OVERLAP_BLOCK_ROWS, m)
        b, w = i1 - i0, m - i0
        block[:b, :d] = rows[i0:i1, :d]
        np.negative(rows[i0:i1, d:], out=block[:b, d:])
        g = np.matmul(block[:b], rows[i0:].T, out=slab[: b * w].reshape(b, w))
        np.abs(g, out=g)
        yield i0, g


def _unit_rows(data: DataMatrix, y: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """(rows, flagged): the unit rows of the projection ``y`` and of
    ``data``, stacked as [y | x] with y's columns first, and the rows
    whose projection is zero (flagged), which are left out. Each run of
    unflagged rows is divided by its norms straight into its place in the
    stacked rows, so no N x D temporary is made."""
    y_norms = np.linalg.norm(y, axis=1)
    flagged = tuple(np.flatnonzero(y_norms == 0.0).tolist())
    d = y.shape[1]
    rows = np.empty((data.n_rows - len(flagged), d + data.n_cols))
    at = start = 0
    for stop in flagged + (data.n_rows,):
        k = stop - start
        np.divide(y[start:stop], y_norms[start:stop, None], out=rows[at : at + k, :d])
        np.divide(data.values[start:stop], data.row_norms[start:stop, None], out=rows[at : at + k, d:])
        at, start = at + k, stop + 1
    return rows, flagged


def _pair_deviations(rows: np.ndarray, d: int) -> np.ndarray:
    """Every slab's strict upper triangle gathered in row-major pair order:
    the array ``OverlapReport.deviations`` builds on first read."""
    m = rows.shape[0]
    devs = np.empty(m * (m - 1) // 2)
    upper = np.triu(np.ones((OVERLAP_BLOCK_ROWS, m), dtype=bool), 1)
    for i0, g in _overlap_slabs(rows, d):
        i1 = i0 + g.shape[0]
        # The rows before row r have r * (2m - r - 1) / 2 pairs.
        devs[i0 * (2 * m - i0 - 1) // 2 : i1 * (2 * m - i1 - 1) // 2] = g[upper[: i1 - i0, : m - i0]]
    return devs


def pairwise_overlap_report(data: DataMatrix, y: np.ndarray, tolerance: float = 1e-6) -> OverlapReport:
    """Compare unit-row overlaps before and after compression, all pairs,
    of ``data`` and its (N, d) projection ``y``.

    The deviations are |<y1|y2> - <x1|x2>| for every pair of rows i1 < i2
    whose compressed rows are nonzero. The flagged rows (zero compressed
    norm) are dropped first, so the m rows left pair with each other only.
    The unit rows are stacked once as [y | x] (``_unit_rows``), and the
    audit reduces one slab of one stacked product at a time
    (``_overlap_slabs``) where it stands: the diagonal and lower triangle of
    the slab's leading square are zeroed, and the slab adds its sum and its
    maximum; its entries above ``tolerance`` are counted only when that
    maximum exceeds it. The memory is the stacked rows, one block of them
    and one slab, not the n_pairs deviations nor two m x m Gram matrices.
    The mean is the sum of the slab sums over n_pairs, so it may differ in
    its last bit from one mean over the gathered deviations.

    A deviation is one dot product over d + D terms rather than the
    difference of two Gram entries, and the blocks are OVERLAP_BLOCK_ROWS
    = 64 rows rather than 128, so the maximum and mean moved in their last
    bits (by at most 6e-17 on the golden reports) when the audit took this
    form.
    """
    if y.shape[0] != data.n_rows:
        raise InvalidInputError("compressed matrix row count does not match the data")
    if not tolerance >= 0.0:
        raise OutOfRangeError(f"overlap tolerance must be nonnegative, got {tolerance}")
    rows, flagged = _unit_rows(data, y)
    m = rows.shape[0]
    n_pairs = m * (m - 1) // 2
    lower = np.tril(np.ones((OVERLAP_BLOCK_ROWS, OVERLAP_BLOCK_ROWS), dtype=bool))
    total = 0.0
    top = 0.0
    over = 0
    for _, g in _overlap_slabs(rows, y.shape[1]):
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
        audited=(data, y),
        flagged_rows=flagged,
    )

"""Reproducible synthetic datasets for tests, benchmarks, and the CLI.

Every generator takes an explicit integer seed and returns plain numpy
arrays wrapped in DataMatrix, so fixtures are identical across runs and
machines. Nothing here is random at import time.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .pca_oracle import DataMatrix

DEFAULT_SIGMA_RANGE = (1.0, 2.0)
_MIN_ROW_NORM = 1e-9
_MAX_REDRAWS = 16


def _orthonormal_columns(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Draw an n-by-k matrix with orthonormal columns, deterministically.

    The QR sign ambiguity is fixed by forcing the diagonal of R positive,
    so the result depends only on the rng stream.
    """
    if k > n:
        raise InvalidInputError(f"cannot build {k} orthonormal columns in dimension {n}")
    mat = rng.standard_normal((n, k))
    q, r = np.linalg.qr(mat)
    signs = np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    return q[:, :k] * signs


def _rank_k(
    rng: np.random.Generator,
    n_rows: int,
    n_cols: int,
    rank: int,
    sigma_range: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build U diag(sigma) V^T with orthonormal U, V and no near-zero rows."""
    if rank < 1 or rank > min(n_rows, n_cols):
        raise InvalidInputError(
            f"rank {rank} out of range for a {n_rows}x{n_cols} matrix"
        )
    low, high = sigma_range
    if not (0.0 < low <= high):
        raise InvalidInputError(f"bad sigma range {sigma_range!r}")
    if rank == 1:
        sigmas = np.array([high])
    else:
        sigmas = np.linspace(high, low, rank)
    right = _orthonormal_columns(rng, n_cols, rank)
    for _ in range(_MAX_REDRAWS):
        left = _orthonormal_columns(rng, n_rows, rank)
        data = (left * sigmas) @ right.T
        row_norms = np.linalg.norm(data, axis=1)
        if row_norms.min() > _MIN_ROW_NORM:
            return data, left, sigmas, right
    raise InvalidInputError(
        "could not draw a factor without a near-zero row; "
        f"try another seed (rank={rank}, shape={n_rows}x{n_cols})"
    )


def rank_k_dataset(
    n_rows: int,
    n_cols: int,
    rank: int,
    seed: int,
    sigma_range: tuple[float, float] = DEFAULT_SIGMA_RANGE,
) -> DataMatrix:
    """Exact rank-k matrix with singular values spread over sigma_range.

    With the default range the spectrum is flat enough that a variance
    threshold of 0.95 keeps all k components (checked in the tests for
    the ranks the fixtures actually use).
    """
    rng = np.random.default_rng(seed)
    data, _, _, _ = _rank_k(rng, n_rows, n_cols, rank, sigma_range)
    return DataMatrix(data)


def rank_k_plus_noise(
    n_rows: int,
    n_cols: int,
    rank: int,
    seed: int,
    noise_fraction: float = 0.01,
    sigma_range: tuple[float, float] = DEFAULT_SIGMA_RANGE,
) -> DataMatrix:
    """Rank-k signal plus dense Gaussian noise of fixed relative Frobenius size."""
    if noise_fraction < 0.0:
        raise InvalidInputError(f"noise fraction must be >= 0, got {noise_fraction}")
    rng = np.random.default_rng(seed)
    signal, _, _, _ = _rank_k(rng, n_rows, n_cols, rank, sigma_range)
    if noise_fraction == 0.0:
        return DataMatrix(signal)
    noise = rng.standard_normal((n_rows, n_cols))
    noise *= noise_fraction * np.linalg.norm(signal) / np.linalg.norm(noise)
    return DataMatrix(signal + noise)


def dataset_from_spectrum(
    variance_proportions: np.ndarray | list[float],
    n_rows: int,
    seed: int,
    n_cols: int | None = None,
) -> DataMatrix:
    """Matrix whose normalized squared singular values match the given list.

    The proportions must be positive and are normalized internally; the
    returned matrix has exact rank len(variance_proportions).
    """
    props = np.asarray(variance_proportions, dtype=np.float64)
    if props.ndim != 1 or props.size == 0:
        raise InvalidInputError("variance proportions must be a non-empty 1-D list")
    if np.any(props <= 0.0):
        raise InvalidInputError("variance proportions must all be positive")
    if np.any(np.diff(props) > 0.0):
        raise InvalidInputError("variance proportions must be non-increasing")
    rank = props.size
    if n_cols is None:
        n_cols = rank
    rng = np.random.default_rng(seed)
    sigmas = np.sqrt(props / props.sum())
    right = _orthonormal_columns(rng, n_cols, rank)
    for _ in range(_MAX_REDRAWS):
        left = _orthonormal_columns(rng, n_rows, rank)
        data = (left * sigmas) @ right.T
        if np.linalg.norm(data, axis=1).min() > _MIN_ROW_NORM:
            return DataMatrix(data)
    raise InvalidInputError("could not avoid a near-zero row; try another seed")


def gaussian_class_pair(
    n_per_class: int = 20,
    separation: float = 6.0,
    spread: float = 0.5,
    n_cols: int = 2,
    seed: int = 29,
) -> tuple[DataMatrix, np.ndarray]:
    """Two spherical Gaussian blobs on the first axis, labeled +1 and -1.

    The defaults give 40 well-separated points whose dominant variance
    direction is the axis joining the class means, so compressing to one
    component preserves the labeling.
    """
    if n_per_class < 1:
        raise InvalidInputError("need at least one point per class")
    if separation <= 0.0 or spread <= 0.0:
        raise InvalidInputError("separation and spread must be positive")
    rng = np.random.default_rng(seed)
    offset = np.zeros(n_cols)
    offset[0] = separation / 2.0
    plus = rng.normal(size=(n_per_class, n_cols)) * spread + offset
    minus = rng.normal(size=(n_per_class, n_cols)) * spread - offset
    points = np.vstack([plus, minus])
    labels = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    return DataMatrix(points), labels


def linear_trend_dataset(
    n_rows: int,
    n_cols: int,
    rank: int,
    seed: int,
    sigma_range: tuple[float, float] = DEFAULT_SIGMA_RANGE,
) -> tuple[DataMatrix, np.ndarray, np.ndarray]:
    """Noiseless regression fixture: targets are an exact linear map of the rows.

    Returns (data, targets, weights). The weight vector lies in the row
    space of the data, so an unregularized least-squares fit reproduces
    the targets exactly and the compressed-space fit agrees with it.
    """
    rng = np.random.default_rng(seed)
    data, _, _, right = _rank_k(rng, n_rows, n_cols, rank, sigma_range)
    raw = rng.standard_normal(n_cols)
    weights = right @ (right.T @ raw)
    targets = data @ weights
    return DataMatrix(data), targets, weights


def write_matrix_csv(path: str, matrix: np.ndarray) -> None:
    """Write a matrix as comma-separated rows, full float64 precision."""
    arr = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        for row in arr:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def write_values_file(path: str, values: np.ndarray) -> None:
    """Write a 1-D value list, one number per line (labels or targets)."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    with open(path, "w", encoding="utf-8") as fh:
        for v in arr:
            fh.write("%.17g\n" % v)

"""Independent reference computations used by the tests.

Everything here is deliberately written from scratch so it shares no code
path with the package: a cyclic Jacobi eigensolver, Gaussian elimination,
direct summation helpers, left singular vectors signed to match given
principal directions, a gate-by-gate simulation of the token-writing
circuit (wire flips plus multi-controlled NOTs), and the least-squares SVM
solved densely through its N x N kernel. One builder, ``spectral_model``,
makes the package's own eigensystem type from a stated spectrum, so tests
can hand the pipeline spectra no data matrix is needed for. Another,
``anchor_state``, loads an anchor row as the padded state the explicit
circuit prepares, which production never builds.
"""

from __future__ import annotations

import numpy as np

from qpcasim.pca_oracle import SpectralModel
from qpcasim.statevector import StateVector


def spectral_model(eigenvalues, vectors, dim: int) -> SpectralModel:
    """The ``SpectralModel`` of a stated eigensystem: ``eigenvalues`` (D,),
    descending and summing to 1, are its variance proportions, the columns
    of ``vectors`` (D, k) its principal directions, and ``dim`` of them are
    kept. Its singular values are the eigenvalues' square roots, its
    threshold the variance the kept components carry, and it has one row
    per direction."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    vectors = np.asarray(vectors, dtype=np.float64)
    return SpectralModel(
        singular_values=np.sqrt(lam),
        variance_proportions=lam,
        right_vectors=vectors,
        n_rows=vectors.shape[1],
        threshold=float(lam[:dim].sum()),
        selected_dim=dim,
    )


def anchor_state(data, row_index: int) -> StateVector:
    """Row ``row_index`` of ``data`` as the state the QRAM row loader
    prepares: the unit row x_i / |x_i|, divided by the norm ``DataMatrix``
    kept, zero-padded on a lone "feature" register of ceil(log2 D) qubits.
    Column 0 of ``row_prep_unitary`` is this state up to round-off."""
    qubits = (data.n_cols - 1).bit_length()
    amps = np.zeros(1 << qubits)
    amps[: data.n_cols] = data.values[row_index] / data.row_norms[row_index]
    return StateVector.from_amplitudes([("feature", qubits)], amps)


def eigen_register_width(cfg, n_components: int) -> int:
    """Qubits of the eigenvalue register that the explicit label write
    appends: enough for the tokens 1..n_components in ideal mode, the label
    width ``cfg.bits`` when labels are quantized."""
    return n_components.bit_length() if cfg.mode == "ideal" else cfg.bits


def jacobi_eigh(sym: np.ndarray, sweeps: int = 100, tol: float = 1e-13):
    """Eigenvalues and eigenvectors of a symmetric matrix by cyclic Jacobi
    rotations. Returns (values descending, column eigenvectors)."""
    a = np.array(sym, dtype=np.float64, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    v = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += a[p, q] ** 2
        if off <= tol**2:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= tol * 1e-3:
                    continue
                # Classical 2x2 rotation that zeroes a[p, q].
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    values = np.diag(a).copy()
    order = np.argsort(values)[::-1]
    return values[order], v[:, order]


def gauss_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting, plain loops."""
    a = np.array(a, dtype=np.float64, copy=True)
    b = np.array(b, dtype=np.float64, copy=True).reshape(-1)
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot, col]) == 0.0:
            raise ZeroDivisionError("singular system")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def signed_left_vectors(matrix: np.ndarray, right_vectors: np.ndarray) -> np.ndarray:
    """numpy's thin-SVD left singular vectors of ``matrix``, one per column
    of ``right_vectors`` (its leading principal directions, in order, with
    any signs), each flipped as that column is against numpy's own right
    vector, so sigma_j u_j v_j^T sums to ``matrix``."""
    u, _, vt = np.linalg.svd(matrix, full_matrices=False)
    k = right_vectors.shape[1]
    return u[:, :k] * np.sign(np.sum(vt[:k].T * right_vectors, axis=0))


def frobenius_sq_direct(matrix: np.ndarray) -> float:
    """Sum of squared entries by explicit nested loops."""
    total = 0.0
    n, d = matrix.shape
    for i in range(n):
        for j in range(d):
            total += float(matrix[i, j]) * float(matrix[i, j])
    return total


def direct_data_state(matrix: np.ndarray, padded_rows: int, padded_cols: int) -> np.ndarray:
    """Entrywise amplitude table X_ij / ||X||_F, zero-padded, by loops."""
    n, d = matrix.shape
    norm = np.sqrt(frobenius_sq_direct(matrix))
    amps = np.zeros((padded_rows, padded_cols), dtype=np.complex128)
    for i in range(n):
        for j in range(d):
            amps[i, j] = matrix[i, j] / norm
    return amps


# -- gate-level reference for the token-writing circuit ---------------------------
#
# The circuit under test writes, for each (label, token) pair, the token into
# the index register whenever the eigenvalue register holds the label. The
# reference builds it literally from wire flips and multi-controlled NOTs:
# flip every eigenvalue wire whose label bit is 0, apply one NOT per set token
# bit controlled on all eigenvalue wires, then undo the flips.


def _flip_wire(vec: np.ndarray, n_wires: int, wire: int) -> np.ndarray:
    shift = 1 << (n_wires - 1 - wire)
    out = np.empty_like(vec)
    for s in range(vec.size):
        out[s] = vec[s ^ shift]
    return out


def _mcx(vec: np.ndarray, n_wires: int, controls: list[int], target: int) -> np.ndarray:
    tshift = 1 << (n_wires - 1 - target)
    out = vec.copy()
    for s in range(vec.size):
        if all((s >> (n_wires - 1 - c)) & 1 for c in controls):
            out[s] = vec[s ^ tshift]
    return out


def reference_token_circuit(
    vec: np.ndarray, eigen_qubits: int, index_qubits: int, labels: list[tuple[int, int]]
) -> np.ndarray:
    """Apply the gate-level construction to a flat statevector.

    Wire order: eigenvalue wires first (most significant), index wires after,
    matching a flat index of eigen_value * 2**index_qubits + index_value.
    """
    n_wires = eigen_qubits + index_qubits
    eigen_wires = list(range(eigen_qubits))
    out = np.array(vec, dtype=np.complex128, copy=True)
    for label, token in labels:
        zero_bits = [
            w for w in eigen_wires if not (label >> (eigen_qubits - 1 - w)) & 1
        ]
        for w in zero_bits:
            out = _flip_wire(out, n_wires, w)
        for b in range(index_qubits):
            if (token >> (index_qubits - 1 - b)) & 1:
                out = _mcx(out, n_wires, eigen_wires, eigen_qubits + b)
        for w in zero_bits:
            out = _flip_wire(out, n_wires, w)
    return out


def dense_lssvm_solve(points: np.ndarray, labels: np.ndarray, gamma: float):
    """The least-squares SVM saddle system solved densely: the N x N linear
    kernel, the (N+1)^2 block system [[0, 1^T], [1, K + gamma I]] and LU
    solves. Returns (bias, coefficients).

    An LU solve alone is accurate only to about cond(system) * eps, which
    reaches 1e-10 at gamma = 0.01 on 400 x 16 class pairs. Two steps of
    iterative refinement, with the residual accumulated in extended
    precision (``np.longdouble``), bring the reference down to round-off.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n = points.shape[0]
    system = np.zeros((n + 1, n + 1))
    system[0, 1:] = 1.0
    system[1:, 0] = 1.0
    system[1:, 1:] = points @ points.T + gamma * np.eye(n)
    solution = np.linalg.solve(system, np.concatenate([[0.0], labels]))
    extended = points.astype(np.longdouble)
    for _ in range(2):
        x = solution.astype(np.longdouble)
        kernel_part = extended @ (extended.T @ x[1:])
        residual = np.concatenate([[-x[1:].sum()], labels - kernel_part - gamma * x[1:] - x[0]])
        solution = solution + np.linalg.solve(system, residual.astype(np.float64))
    return float(solution[0]), solution[1:]


def dense_lssvm_decision_values(points, bias, coefficients, queries) -> np.ndarray:
    """Each query's kernel row against the training points, weighted by the
    coefficients, plus the bias; accumulated in extended precision."""
    extended = np.asarray(points, dtype=np.longdouble)
    weights = extended.T @ np.asarray(coefficients, dtype=np.longdouble)
    return (np.asarray(queries, dtype=np.longdouble) @ weights + bias).astype(np.float64)

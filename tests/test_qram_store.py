"""Tests for the amplitude encoding: the data-state loader that production
runs, the unit rows its anchor overlaps read, and the binary-tree
preparation circuit that the tests hold both against."""

import numpy as np
import pytest

from qpcasim.errors import ContractViolationError, InvalidInputError, OutOfRangeError
from qpcasim.pca_oracle import DataMatrix, svd_decompose
from qpcasim.qram_store import (
    apply_norm_prep,
    apply_row_prep,
    build_tree,
    norm_prep_unitary,
    prepare_data_state,
    row_prep_unitary,
)
from qpcasim.statevector import StateVector

from oracles import direct_data_state, frobenius_sq_direct, signed_left_vectors


def test_tree_partial_sums_single_row():
    tree = build_tree(DataMatrix(np.array([[3.0, 4.0]])))
    np.testing.assert_allclose(tree.row_levels[-1][0], [9.0, 16.0], atol=0.0)
    assert tree.row_levels[0][0, 0] == 25.0
    assert tree.frobenius_sq == 25.0
    np.testing.assert_allclose(tree.row_signs[0], [1.0, 1.0], atol=0.0)


def test_tree_identity_norm_leaves():
    tree = build_tree(DataMatrix(np.eye(2)))
    np.testing.assert_allclose(tree.norm_levels[-1], [1.0, 1.0], atol=0.0)
    assert tree.frobenius_sq == 2.0
    assert tree.row_qubits == 1 and tree.feature_qubits == 1


def test_tree_root_matches_direct_frobenius():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((8, 8))
    tree = build_tree(DataMatrix(x))
    assert abs(tree.frobenius_sq - frobenius_sq_direct(x)) <= 1e-12 * tree.frobenius_sq


def test_tree_padding_and_signs():
    x = np.array([[1.0, -2.0, 3.0]])
    tree = build_tree(DataMatrix(x))
    assert tree.padded_cols == 4
    np.testing.assert_allclose(tree.row_levels[-1][0], [1.0, 4.0, 9.0, 0.0], atol=0.0)
    np.testing.assert_allclose(tree.row_signs[0], [1.0, -1.0, 1.0, 1.0], atol=0.0)


def test_norm_prep_equal_rows():
    tree = build_tree(DataMatrix(np.eye(2)))
    state = StateVector.zero([("row", 1)])
    state = apply_norm_prep(state, tree)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(
        [state.basis_amplitude({"row": 0}), state.basis_amplitude({"row": 1})],
        [inv_sqrt2, inv_sqrt2],
        atol=1e-12,
    )


def test_norm_prep_unequal_rows():
    tree = build_tree(DataMatrix(np.array([[1.0, 0.0], [0.0, 2.0]])))
    state = apply_norm_prep(StateVector.zero([("row", 1)]), tree)
    np.testing.assert_allclose(
        [state.basis_amplitude({"row": 0}), state.basis_amplitude({"row": 1})],
        [1.0 / np.sqrt(5.0), 2.0 / np.sqrt(5.0)],
        atol=1e-12,
    )


def test_norm_prep_marginal_matches_row_norms():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 4))
    tree = build_tree(DataMatrix(x))
    state = apply_norm_prep(StateVector.zero([("row", 2)]), tree)
    want = np.linalg.norm(x, axis=1) ** 2 / np.linalg.norm(x) ** 2
    np.testing.assert_allclose(state.probabilities("row"), want, atol=1e-10)


def _prepared_row(data, row_index):
    """Column 0 of row ``row_index``'s preparation matrix: the state it
    prepares from |0> on the feature register."""
    return row_prep_unitary(build_tree(data), row_index)[:, 0]


def test_row_prep_single_row():
    np.testing.assert_allclose(_prepared_row(DataMatrix(np.array([[3.0, 4.0]])), 0), [0.6, 0.8], atol=1e-12)


def test_row_prep_keeps_signs():
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(
        _prepared_row(DataMatrix(np.array([[1.0, -1.0]])), 0), [inv_sqrt2, -inv_sqrt2], atol=1e-12
    )


def test_data_state_trivial_matrix():
    state = prepare_data_state(DataMatrix(np.array([[1.0]])))
    assert state.basis_amplitude({"row": 0, "feature": 0}) == pytest.approx(1.0)


def test_data_state_identity_is_maximally_correlated():
    state = prepare_data_state(DataMatrix(np.eye(2)))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    assert state.basis_amplitude({"row": 0, "feature": 0}) == pytest.approx(inv_sqrt2)
    assert state.basis_amplitude({"row": 1, "feature": 1}) == pytest.approx(inv_sqrt2)
    assert state.basis_amplitude({"row": 0, "feature": 1}) == pytest.approx(0.0)
    assert state.basis_amplitude({"row": 1, "feature": 0}) == pytest.approx(0.0)


def test_data_state_entries_match_direct_table():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((8, 8))
    state = prepare_data_state(DataMatrix(x))
    table = direct_data_state(x, 8, 8)
    for i in range(8):
        for j in range(8):
            got = state.basis_amplitude({"row": i, "feature": j})
            assert got == pytest.approx(table[i, j], abs=1e-10)


def test_data_state_entries_random_shapes():
    # Non-square and non-power-of-two shapes, checked entrywise.
    for seed in range(50):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 7))
        x = rng.standard_normal((n, d))
        while np.any(np.linalg.norm(x, axis=1) < 1e-6):
            x = rng.standard_normal((n, d))
        state = prepare_data_state(DataMatrix(x))
        padded_rows, padded_cols = state.amplitudes.shape
        table = direct_data_state(x, padded_rows, padded_cols)
        for i in range(padded_rows):
            for j in range(padded_cols):
                got = state.basis_amplitude({"row": i, "feature": j})
                assert got == pytest.approx(table[i, j], abs=1e-10)


def test_data_state_equals_schmidt_form():
    # The encoded state is sum_j sqrt(lambda_j) |u_j>|v_j| up to padding.
    data = DataMatrix(np.random.default_rng(17).standard_normal((6, 4)))
    model = svd_decompose(data, 1.0)
    state = prepare_data_state(data)
    u = signed_left_vectors(data.values, model.right_vectors)
    table = np.zeros(state.amplitudes.shape)
    for j in range(model.rank):
        amp = model.singular_values[j] / data.frobenius_norm
        table[: data.n_rows, : data.n_cols] += amp * np.outer(u[:, j], model.right_vectors[:, j])
    overlap = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            overlap += table[i, j] * state.basis_amplitude({"row": i, "feature": j})
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_prep_matrices_are_orthogonal():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((8, 8))
    tree = build_tree(DataMatrix(x))
    mats = [norm_prep_unitary(tree)] + [row_prep_unitary(tree, i) for i in range(8)]
    for u in mats:
        dev = np.max(np.abs(u.T @ u - np.eye(u.shape[0])))
        assert dev <= 1e-10


def test_anchor_preparation_and_inverse():
    data = DataMatrix(np.array([[0.0, 1.0], [3.0, 4.0]]))
    tree = build_tree(data)
    assert _prepared_row(data, 0)[1] == pytest.approx(1.0)
    second = StateVector.from_amplitudes([("feature", 1)], _prepared_row(data, 1))
    np.testing.assert_allclose(second.amplitudes, [0.6, 0.8], atol=1e-12)
    # The transpose of the preparation matrix returns the state to |0>.
    undone = second.apply_register_unitary("feature", row_prep_unitary(tree, 1).T)
    assert undone.basis_amplitude({"feature": 0}) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(OutOfRangeError):
        row_prep_unitary(tree, 2)


def test_strict_mode_rejects_dirty_registers():
    tree = build_tree(DataMatrix(np.eye(2)))
    state = apply_norm_prep(StateVector.zero([("row", 1), ("feature", 1)]), tree)
    with pytest.raises(ContractViolationError):
        apply_norm_prep(state, tree)  # row register already loaded
    loaded = apply_row_prep(state, tree)
    with pytest.raises(ContractViolationError):
        apply_row_prep(loaded, tree)  # feature register already loaded


def test_register_size_mismatch_rejected():
    tree = build_tree(DataMatrix(np.eye(2)))
    with pytest.raises(InvalidInputError):
        apply_norm_prep(StateVector.zero([("row", 2)]), tree)
    with pytest.raises(InvalidInputError):
        apply_row_prep(StateVector.zero([("row", 1), ("feature", 2)]), tree)


# The loader and the unit rows divide by the norms in one step, and the
# preparation matrices take square roots of partial-sum ratios level by
# level, so the two agree to round-off: at most 2.3e-16 on the inputs below.
LOADER_TOL = 1e-15


def test_loaders_are_column_zero_of_the_prep_matrices():
    # The unit rows are what the anchor overlaps read
    # (``SpectralModel.overlaps``), so each row's preparation matrix, which
    # the explicit circuit undoes, has a production counterpart.
    # Zero entries leave dead subtrees (a 0 / 0 node) on the row trees and
    # zero-padded rows on the norm tree; their rotations are the identity.
    rng = np.random.default_rng(29)
    for _ in range(40):
        n, d = (int(k) for k in rng.integers(1, 12, size=2))
        x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-4, 5)
        x[rng.random((n, d)) < 0.5] = 0.0
        x[~x.any(axis=1), 0] = -1.0
        data = DataMatrix(x)
        tree = build_tree(data)
        rows = np.array([row_prep_unitary(tree, i)[:, 0] for i in range(n)])
        for i in range(n):
            assert np.max(np.abs(data.values[i] / data.row_norms[i] - rows[i, :d])) <= LOADER_TOL
            assert not rows[i, d:].any()
        norms = norm_prep_unitary(tree)[:, 0]
        want = np.zeros((tree.padded_rows, tree.padded_cols))
        want[:n] = rows * norms[:n, None]
        assert np.max(np.abs(prepare_data_state(data).amplitudes - want)) <= LOADER_TOL

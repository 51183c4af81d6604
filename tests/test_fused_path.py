"""The production compression path against the explicit circuit.

``compress`` loads the data state straight from the matrix and then runs
the label write, token write, label un-compute and the anchor half of
postselection as one product (``project_anchor``): the feature register
contracted with one features x tokens matrix, without an eigenvalue
register. The coefficient rotation and the ancilla half of postselection
follow on rows x tokens x 2 amplitudes. These tests rebuild the explicit
circuit from the reference primitives (preparation matrices,
``phase_estimate``, ``apply_cu_lambda``, ``inverse_phase_estimate``) and
hold the production amplitudes to it.
"""

import numpy as np
import pytest

from qpcasim.datasets import rank_k_dataset, rank_k_plus_noise
from qpcasim.errors import DegenerateSpectrumError
from qpcasim.pca_oracle import DataMatrix, svd_decompose
from qpcasim.qpca_pipeline import (
    MODE_IDEAL,
    MODE_QUANTIZED,
    SCOPE_FULL,
    SCOPE_SUBSET,
    extract_spectrum,
    run_compression,
)
from qpcasim.qram_store import (
    apply_norm_prep,
    apply_row_prep,
    build_tree,
    prepare_data_state,
    row_prep_unitary,
)
from qpcasim.statevector import StateVector, ceil_log2, token_qubits
from qpcasim.sv_engine import (
    PhaseConfig,
    apply_cr_beta,
    apply_cu_lambda,
    check_label_distinctness,
    eigen_labels,
    eigen_marginal_state,
    inverse_phase_estimate,
    phase_estimate,
    project_anchor,
)

from oracles import anchor_state, eigen_register_width
from test_acceptance import EXACTNESS_SHAPES

TOL = 1e-12


def _explicit_data_state(tree):
    state = StateVector.zero([("row", tree.row_qubits), ("feature", tree.feature_qubits)])
    return apply_row_prep(apply_norm_prep(state, tree), tree)


def _explicit_compress(run, scope, rows):
    """The compression circuit as the paper writes it: matrix state load,
    label write on an eigenvalue register, token write, label un-compute,
    and the anchor undone with its whole preparation matrix."""
    tree, model, cfg, profile = build_tree(run.data), run.model, run.cfg, run.profile
    state = _explicit_data_state(tree)
    if scope == SCOPE_SUBSET:
        state, _ = state.restrict_register("row", rows)
    labels = check_label_distinctness(model, cfg)[: model.selected_dim]
    state = state.append_register("eigen", eigen_register_width(cfg, model.n_cols))
    state = phase_estimate(model, cfg, state)
    state = state.append_register("index", token_qubits(model.selected_dim))
    state = apply_cu_lambda(state, [(int(label), j + 1) for j, label in enumerate(labels)])
    state = inverse_phase_estimate(model, cfg, state)
    state = state.remove_register("eigen")
    state = apply_cr_beta(state, profile.beta_hat, profile.rotation_constant)
    state = state.apply_register_unitary("feature", row_prep_unitary(tree, profile.anchor_index).T)
    kept, _ = state.project_and_remove({"feature": 0, "ancilla": 1})
    return kept


def _assert_matches_explicit(data, mode, seed, scope=SCOPE_FULL, rows=None):
    run = run_compression(
        data,
        threshold=0.95,
        run_mode=mode,
        seed=seed,
        subset=rows if scope == SCOPE_SUBSET else None,
    )
    assert run.result.report.scope == scope
    want = _explicit_compress(run, scope, rows)
    got = run.result.state
    assert got.layout() == want.layout()
    assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= TOL


# Fewer rows than features and rank below both: production keeps three
# eigenvectors of 32 features, and the reference completes them to a basis.
WIDE_SHAPE = (8, 32, 3)


@pytest.mark.parametrize("mode", [MODE_IDEAL, MODE_QUANTIZED])
@pytest.mark.parametrize("k", range(len(EXACTNESS_SHAPES) + 1))
def test_compress_matches_explicit_circuit(k, mode):
    n_rows, n_cols, rank = (EXACTNESS_SHAPES + [WIDE_SHAPE])[k]
    _assert_matches_explicit(rank_k_dataset(n_rows, n_cols, rank, seed=40 + k), mode, k)


@pytest.mark.parametrize("mode", [MODE_IDEAL, MODE_QUANTIZED])
def test_compress_scopes_match_explicit_circuit(mode):
    data = rank_k_dataset(24, 12, 3, seed=46)
    _assert_matches_explicit(data, mode, 6, SCOPE_SUBSET, [0, 3, 5, 9, 17])
    # One row: its projection y / |y| alone, as the CLI's one-row --subset.
    _assert_matches_explicit(data, mode, 6, SCOPE_SUBSET, [7])


def test_fused_map_keeps_the_explicit_circuit_checks():
    run = run_compression(rank_k_dataset(16, 8, 2, seed=4), run_mode=MODE_QUANTIZED, seed=0)
    state = prepare_data_state(run.data)
    overlaps = run.model.overlaps(run.data, run.profile.anchor_index, run.model.selected_dim)
    with pytest.raises(DegenerateSpectrumError):
        project_anchor(run.model, PhaseConfig(MODE_QUANTIZED, 1), state, overlaps[None])


@pytest.mark.parametrize("shape", [(24, 12), (5, 3), (1, 4), (4, 1)])
def test_vector_load_matches_matrix_load(shape):
    # Shapes that need padding, with entries of both signs.
    x = np.random.default_rng(sum(shape)).standard_normal(shape)
    assert (x < 0.0).any() and (x > 0.0).any()
    data = DataMatrix(x)
    tree = build_tree(data)
    got = prepare_data_state(data)
    want = _explicit_data_state(tree)
    assert got.layout() == want.layout()
    assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= TOL
    # The anchor's preparation, which the explicit circuit undoes, prepares
    # the unit row that production's overlaps read.
    for i in range(shape[0]):
        column = row_prep_unitary(tree, i)[:, 0]
        assert np.max(np.abs(anchor_state(data, i).amplitudes - column)) <= TOL


def test_eigen_marginal_matches_labelled_register():
    # The closed form (eigenvalues binned by label, over the labels present)
    # against the register that phase estimation writes on the
    # matrix-loaded data state, which holds no mass on any other label.
    shapes = [
        rank_k_dataset(24, 12, 4, seed=8),
        # Three features padded to four, rank 2: one exactly-zero eigenvalue.
        rank_k_dataset(5, 3, 2, seed=8),
        # Dense noise: every tail eigenvalue is nonzero, and they share label 0.
        rank_k_plus_noise(24, 12, 3, seed=8, noise_fraction=0.3),
    ]
    for data in shapes:
        tree = build_tree(data)
        model = svd_decompose(data, 0.95)
        for cfg in (PhaseConfig(MODE_QUANTIZED, 6), PhaseConfig(MODE_IDEAL, 6)):
            width = eigen_register_width(cfg, model.n_cols)
            labelled = phase_estimate(model, cfg, _explicit_data_state(tree).append_register("eigen", width))
            labels, marginal = eigen_marginal_state(model, cfg)
            np.testing.assert_array_equal(labels, np.unique(eigen_labels(model, cfg)))
            assert marginal.layout() == (("eigen", ceil_log2(labels.size)),)
            want = labelled.probabilities("eigen")
            got = marginal.probabilities("eigen")
            np.testing.assert_allclose(got[: labels.size], want[labels], atol=TOL)
            assert np.all(got[labels.size :] == 0.0)
            assert np.delete(want, labels).sum() <= TOL


def _record_peak_amplitudes(monkeypatch):
    peak = [0]
    init = StateVector.__init__

    def counting_init(self, registers, amplitudes, **kwargs):
        init(self, registers, amplitudes, **kwargs)
        peak[0] = max(peak[0], self.amplitudes.size)

    monkeypatch.setattr(StateVector, "__init__", counting_init)
    return peak


def test_wide_ideal_run_fits_without_an_eigen_register(monkeypatch):
    # With an eigenvalue register, 512 x 128 in ideal mode builds
    # 2**9 x 2**7 x 2**8 x 2**3 amplitudes (2 GiB per copy). No state may
    # exceed the loaded data state, rows x features.
    peak = _record_peak_amplitudes(monkeypatch)
    run = run_compression(rank_k_dataset(512, 128, 4, seed=1), seed=0)
    assert run.result.report.fidelity >= 1.0 - 1e-9
    assert 0 < peak[0] <= 512 * 128


def test_spectrum_sampling_builds_no_labelled_tensor(monkeypatch):
    # Sampling reads the eigenvalues: no state may exceed the eigen register.
    data = rank_k_dataset(64, 16, 4, seed=3)
    run = run_compression(data, run_mode=MODE_QUANTIZED, seed=0)
    peak = _record_peak_amplitudes(monkeypatch)
    extract_spectrum(run.model, run.cfg, 400, 5)
    assert 0 < peak[0] <= 1 << eigen_register_width(run.cfg, run.model.n_cols)

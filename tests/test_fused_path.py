"""The production compression path against the explicit circuit.

``compress`` loads the data state with vector cascades and then runs the
label write, token write, label un-compute and the anchor half of
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

from qpcasim.datasets import rank_k_dataset
from qpcasim.errors import DegenerateSpectrumError, InvalidInputError
from qpcasim.pca_oracle import DataMatrix
from qpcasim.qpca_pipeline import (
    MODE_IDEAL,
    MODE_QUANTIZED,
    SCOPE_FULL,
    SCOPE_SINGLE,
    SCOPE_SUBSET,
    extract_spectrum,
    run_compression,
)
from qpcasim.qram_store import (
    apply_norm_prep,
    apply_row_prep,
    build_tree,
    prepare_data_state,
    prepare_row_state,
    row_prep_unitary,
)
from qpcasim.statevector import StateVector, token_qubits
from qpcasim.sv_engine import (
    LABEL_MODE_IDEAL,
    PhaseConfig,
    apply_cr_beta,
    apply_cu_lambda,
    eigen_marginal_state,
    inverse_phase_estimate,
    phase_estimate,
    project_anchor,
)

from test_acceptance import EXACTNESS_SHAPES

TOL = 1e-12


def _explicit_data_state(tree):
    state = StateVector.zero([("row", tree.row_qubits), ("feature", tree.feature_qubits)])
    return apply_row_prep(apply_norm_prep(state, tree), tree)


def _explicit_compress(run, scope, rows):
    """The compression circuit as the paper writes it: matrix state load,
    label write on an eigenvalue register, token write, label un-compute,
    and the anchor undone with its whole preparation matrix."""
    tree, rho, cfg, spectrum, profile = run.tree, run.rho, run.cfg, run.spectrum, run.profile
    if scope == SCOPE_SINGLE:
        feature = StateVector.zero([("feature", tree.feature_qubits)])
        state = feature.apply_register_unitary("feature", row_prep_unitary(tree, rows[0]))
    else:
        state = _explicit_data_state(tree)
        if scope == SCOPE_SUBSET:
            state, _ = state.restrict_register("row", rows)
    state = state.append_register("eigen", cfg.register_width(rho.dim))
    state = phase_estimate(rho, cfg, state, distinct_top=spectrum.dim)
    state = state.append_register("index", token_qubits(spectrum.dim))
    state = apply_cu_lambda(state, spectrum.cu_labels())
    state = inverse_phase_estimate(rho, cfg, state)
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
        row_index=rows[0] if scope == SCOPE_SINGLE else None,
    )
    assert run.result.report.scope == scope
    want = _explicit_compress(run, scope, rows)
    got = run.result.state
    assert got.layout() == want.layout()
    assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= TOL


@pytest.mark.parametrize("mode", [MODE_IDEAL, MODE_QUANTIZED])
@pytest.mark.parametrize("k", range(len(EXACTNESS_SHAPES)))
def test_compress_matches_explicit_circuit(k, mode):
    n_rows, n_cols, rank = EXACTNESS_SHAPES[k]
    _assert_matches_explicit(rank_k_dataset(n_rows, n_cols, rank, seed=40 + k), mode, k)


@pytest.mark.parametrize("mode", [MODE_IDEAL, MODE_QUANTIZED])
def test_compress_scopes_match_explicit_circuit(mode):
    data = rank_k_dataset(24, 12, 3, seed=46)
    _assert_matches_explicit(data, mode, 6, SCOPE_SUBSET, [0, 3, 5, 9, 17])
    _assert_matches_explicit(data, mode, 6, SCOPE_SINGLE, [7])


def test_fused_map_keeps_the_explicit_circuit_checks():
    run = run_compression(rank_k_dataset(16, 8, 2, seed=4), run_mode=MODE_QUANTIZED, seed=0)
    rho, cfg, labels = run.rho, run.cfg, run.spectrum.cu_labels()
    state = prepare_data_state(run.tree)
    anchor = prepare_row_state(run.tree, run.profile.anchor_index)
    with pytest.raises(DegenerateSpectrumError):
        project_anchor(rho, cfg, state, anchor, [(labels[0][0], 1), (labels[0][0], 2)], distinct_top=2)
    with pytest.raises(InvalidInputError):
        project_anchor(rho, cfg, state, anchor, [(labels[0][0], 4)], distinct_top=2)
    with pytest.raises(DegenerateSpectrumError):
        project_anchor(rho, PhaseConfig(bits=1), state, anchor, labels, distinct_top=2)


@pytest.mark.parametrize("shape", [(24, 12), (5, 3), (1, 4), (4, 1)])
def test_vector_load_matches_matrix_load(shape):
    # Shapes that need padding, with entries of both signs.
    x = np.random.default_rng(sum(shape)).standard_normal(shape)
    assert (x < 0.0).any() and (x > 0.0).any()
    tree = build_tree(DataMatrix(x))
    got = prepare_data_state(tree)
    want = _explicit_data_state(tree)
    assert got.layout() == want.layout()
    assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= TOL
    for i in range(shape[0]):
        column = row_prep_unitary(tree, i)[:, 0]
        assert np.max(np.abs(prepare_row_state(tree, i).amplitudes - column)) <= TOL


def test_eigen_marginal_matches_labelled_register():
    data = rank_k_dataset(24, 12, 4, seed=8)
    run = run_compression(data, run_mode=MODE_QUANTIZED, seed=1)
    for cfg in (run.cfg, PhaseConfig(bits=6, label_mode=LABEL_MODE_IDEAL)):
        state = _explicit_data_state(run.tree).append_register("eigen", cfg.register_width(run.rho.dim))
        labelled = phase_estimate(run.rho, cfg, state)
        marginal = eigen_marginal_state(run.rho, cfg, prepare_data_state(run.tree))
        assert marginal.layout() == (("eigen", cfg.register_width(run.rho.dim)),)
        np.testing.assert_allclose(marginal.probabilities("eigen"), labelled.probabilities("eigen"), atol=TOL)


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
    assert 0 < peak[0] <= run.tree.padded_rows * run.tree.padded_cols


def test_spectrum_sampling_builds_no_labelled_tensor(monkeypatch):
    data = rank_k_dataset(64, 16, 4, seed=3)
    run = run_compression(data, run_mode=MODE_QUANTIZED, seed=0)
    peak = _record_peak_amplitudes(monkeypatch)
    extract_spectrum(run.tree, run.rho, run.cfg, 400, 5, dim=run.spectrum.dim, threshold=0.9)
    assert 0 < peak[0] <= run.tree.padded_rows * run.tree.padded_cols

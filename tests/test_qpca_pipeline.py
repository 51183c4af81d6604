"""Tests for the end-to-end compression pipeline."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qpcasim.datasets import dataset_from_spectrum, rank_k_dataset, rank_k_plus_noise
from qpcasim import cli, pca_oracle, qpca_pipeline, qram_store, sv_engine
from qpcasim.errors import (
    DegenerateSpectrumError,
    InvalidInputError,
    NumericalFailureError,
    OutOfRangeError,
    UnderSampledError,
    VanishingSuccessError,
    WeakAnchorError,
)
from qpcasim.pca_oracle import DataMatrix, SpectralModel, expected_row_state, svd_decompose
from qpcasim.qram_store import build_tree, prepare_row_state
from qpcasim.qpca_pipeline import (
    MODE_IDEAL,
    MODE_QUANTIZED,
    MODE_SAMPLED,
    PERTURB_ALTERNATING,
    PERTURB_UNIFORM_RELATIVE,
    default_sampling_budget,
    error_scaling_experiment,
    estimate_anchor,
    exact_anchor_profile,
    exact_spectrum,
    extract_spectrum,
    ledger_predict,
    perturb_beta,
    run_compression,
)
from qpcasim.statevector import StateVector
from qpcasim.sv_engine import LABEL_MODE_IDEAL, LABEL_MODE_QUANTIZED, POSTSELECT_FLOOR, PhaseConfig, RhoSpec

RANK3 = str(Path(__file__).resolve().parent / "golden" / "inputs" / "rank3.csv")
TRI_ROWS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def _stated_spectrum_setup():
    data = dataset_from_spectrum([0.90, 0.08, 0.02], n_rows=12, seed=2)
    model = svd_decompose(data, 0.95, 0)
    return data, model, RhoSpec.from_model(model), build_tree(data)


# -- spectrum discovery --------------------------------------------------------


def test_exact_spectrum_entries():
    _, model, rho, _ = _stated_spectrum_setup()
    cfg = PhaseConfig(bits=6, label_mode=LABEL_MODE_QUANTIZED)
    spectrum = exact_spectrum(rho, cfg, 2)
    assert spectrum.dim == 2
    assert spectrum.labels.tolist() == [29, 3]
    np.testing.assert_allclose(spectrum.frequencies, [0.90, 0.08], atol=1e-12)
    with pytest.raises(OutOfRangeError):
        exact_spectrum(rho, cfg, 0)
    # Past the principal directions there is no eigenvector to keep.
    thin = RhoSpec(eigenvalues=np.array([0.75, 0.25, 0.0]), eigenvectors=np.eye(3)[:, :2])
    with pytest.raises(OutOfRangeError, match=r"kept dimension 3 out of range \[1, 2\]"):
        exact_spectrum(thin, PhaseConfig(bits=6, label_mode=LABEL_MODE_IDEAL), 3)


def test_extract_spectrum_balanced_pair():
    data = DataMatrix(np.eye(2))
    model = svd_decompose(data, 1.0, 0)
    rho = RhoSpec.from_model(model)
    cfg = PhaseConfig(bits=6, label_mode=LABEL_MODE_IDEAL)
    spectrum = extract_spectrum(rho, cfg, 50, 3, dim=2, threshold=0.95)
    sigma = math.sqrt(0.25 / 50)
    for frequency in spectrum.frequencies:
        assert abs(frequency - 0.5) <= 3.0 * sigma
    assert sum(spectrum.histogram.values()) == 50
    assert spectrum.budget == 50


def test_extract_spectrum_rank_one_is_deterministic():
    data = DataMatrix(np.array([[3.0, 4.0]]))
    model = svd_decompose(data, 0.95, 0)
    rho = RhoSpec.from_model(model)
    cfg = PhaseConfig(bits=6, label_mode=LABEL_MODE_QUANTIZED)
    spectrum = extract_spectrum(rho, cfg, 50, 11, dim=1, threshold=0.95)
    assert spectrum.labels[0] == 32  # half-phase encoding of eigenvalue 1
    assert spectrum.frequencies[0] == 1.0


def test_extract_spectrum_budget_sweep():
    # 99 of 100 fixed seeds cover 95% of the variance within 200 draws.
    _, model, rho, tree = _stated_spectrum_setup()
    cfg = PhaseConfig(bits=6, label_mode=LABEL_MODE_QUANTIZED)
    ok = 0
    for seed in range(100):
        try:
            extract_spectrum(rho, cfg, 200, seed, dim=2, threshold=0.95)
            ok += 1
        except UnderSampledError:
            pass
    assert ok >= 99


def test_extract_spectrum_undersampled_carries_partial():
    _, model, rho, tree = _stated_spectrum_setup()
    cfg = PhaseConfig(bits=6, label_mode=LABEL_MODE_QUANTIZED)
    with pytest.raises(UnderSampledError) as info:
        extract_spectrum(rho, cfg, 2, 0, dim=2, threshold=0.95)
    partial = info.value.partial
    assert partial.dim == 2
    assert partial.histogram == {29: 2}  # second label never observed
    assert partial.budget == 2


@pytest.mark.parametrize(
    "run_mode, row_index, loads",
    [(MODE_SAMPLED, None, 1), (MODE_SAMPLED, 3, 0), (MODE_IDEAL, None, 1), (MODE_IDEAL, 3, 0)],
)
def test_run_compression_loads_the_data_state_at_most_once(monkeypatch, run_mode, row_index, loads):
    # A full-scope compress loads the data state once; the sampled spectrum
    # reads the eigenvalues, so a single-row compress loads none in any mode.
    calls = [0]
    original = qram_store.prepare_data_state

    def counting_load(tree):
        calls[0] += 1
        return original(tree)

    monkeypatch.setattr(qram_store, "prepare_data_state", counting_load)
    run = run_compression(rank_k_dataset(32, 8, 3, seed=4), run_mode=run_mode, row_index=row_index, seed=2)
    assert run.result.report.fidelity >= 0.9
    assert calls[0] == loads


def test_extract_spectrum_full_coverage_meets_threshold_one():
    # Every draw lands on one of the eight kept labels, so coverage is
    # exactly 1; summed float frequencies used to round it below 1.0.
    data = rank_k_dataset(16, 8, 8, 1)
    run = run_compression(data, run_mode=MODE_SAMPLED, threshold=1.0, bits=10, seed=0)
    assert run.spectrum.dim == 8
    assert sum(run.spectrum.histogram.values()) == run.spectrum.budget


def test_extract_spectrum_rejects_a_kept_dimension_out_of_range():
    data = rank_k_dataset(16, 8, 8, 1)
    model = svd_decompose(data, 1.0, 0)
    cfg = PhaseConfig(bits=10, label_mode=LABEL_MODE_QUANTIZED)
    for dim in (0, 9):
        with pytest.raises(OutOfRangeError):
            extract_spectrum(RhoSpec.from_model(model), cfg, 400, 0, dim=dim, threshold=0.95)


def test_default_sampling_budget():
    assert default_sampling_budget(2) == 200
    assert default_sampling_budget(10) == 500


# -- anchor estimation -----------------------------------------------------------


def test_exact_anchor_profile_three_rows():
    data = DataMatrix(TRI_ROWS)
    model = svd_decompose(data, 0.95, 0)
    tree = build_tree(data)
    cfg = PhaseConfig(bits=6, label_mode=LABEL_MODE_IDEAL)
    rho = RhoSpec.from_model(model)
    spectrum = exact_spectrum(rho, cfg, 2)
    profile = exact_anchor_profile(prepare_row_state(tree, 0), rho, spectrum, 0)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(profile.beta, [inv_sqrt2, inv_sqrt2], atol=1e-12)
    np.testing.assert_allclose(profile.beta_hat, profile.beta, atol=0.0)
    assert profile.rotation_constant == pytest.approx(inv_sqrt2, abs=1e-12)
    assert profile.residual <= 1e-12


def test_exact_anchor_profile_weak_anchor():
    # Row 2 = (1, 1) lies entirely on the first component, so its second
    # coefficient vanishes.
    data = DataMatrix(TRI_ROWS)
    model = svd_decompose(data, 0.95, 2)
    tree = build_tree(data)
    cfg = PhaseConfig(bits=6, label_mode=LABEL_MODE_IDEAL)
    rho = RhoSpec.from_model(model)
    spectrum = exact_spectrum(rho, cfg, 2)
    with pytest.raises(WeakAnchorError) as info:
        exact_anchor_profile(prepare_row_state(tree, 2), rho, spectrum, 2)
    assert info.value.anchor_index == 2


def test_estimate_anchor_concentrates():
    data = DataMatrix(TRI_ROWS)
    model = svd_decompose(data, 0.95, 0)
    tree = build_tree(data)
    cfg = PhaseConfig(bits=6, label_mode=LABEL_MODE_IDEAL)
    rho = RhoSpec.from_model(model)
    spectrum = exact_spectrum(rho, cfg, 2)
    anchor = prepare_row_state(tree, 0)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    hits = 0
    for seed in range(200):
        profile = estimate_anchor(anchor, rho, spectrum, 0.01, seed, anchor_index=0)
        assert profile.shots_per_coefficient == 40_000  # ceil(4 / 0.01^2)
        if np.all(np.abs(profile.beta_hat - inv_sqrt2) <= 0.05):
            hits += 1
    assert hits >= 198
    # Halving the target accuracy quadruples the per-coefficient shots.
    finer = estimate_anchor(anchor, rho, spectrum, 0.005, 0, anchor_index=0)
    assert finer.shots_per_coefficient == 160_000


def test_estimate_anchor_is_seeded():
    data = DataMatrix(TRI_ROWS)
    model = svd_decompose(data, 0.95, 0)
    tree = build_tree(data)
    cfg = PhaseConfig(bits=6, label_mode=LABEL_MODE_IDEAL)
    rho = RhoSpec.from_model(model)
    spectrum = exact_spectrum(rho, cfg, 2)
    anchor = prepare_row_state(tree, 0)
    a = estimate_anchor(anchor, rho, spectrum, 0.02, 7, anchor_index=0)
    b = estimate_anchor(anchor, rho, spectrum, 0.02, 7, anchor_index=0)
    np.testing.assert_array_equal(a.beta_hat, b.beta_hat)


# -- compression -----------------------------------------------------------------


def test_compress_exact_rank_is_lossless():
    data = rank_k_dataset(16, 8, 3, seed=1)
    run = run_compression(data, threshold=0.95, run_mode=MODE_IDEAL, seed=0)
    report = run.result.report
    assert report.selected_dim == 3
    assert report.variance_captured == pytest.approx(1.0, abs=1e-12)
    assert report.fidelity >= 1.0 - 1e-9
    # With exact coefficients the success probability is exactly C^2.
    assert report.success_probability == pytest.approx(
        report.rotation_constant**2, abs=1e-12
    )
    assert report.success_probability_identity == pytest.approx(
        report.success_probability, abs=1e-12
    )


def test_compress_quantized_mode_matches_ideal():
    data = rank_k_dataset(16, 8, 2, seed=8)
    ideal = run_compression(data, run_mode=MODE_IDEAL, seed=4)
    quant = run_compression(data, run_mode=MODE_QUANTIZED, bits=6, seed=4)
    assert quant.result.report.fidelity >= 1.0 - 1e-9
    assert quant.result.report.eps_lambda == pytest.approx(2.0 ** -5)
    assert ideal.result.report.fidelity >= 1.0 - 1e-9


def test_compress_sampled_mode_statistics():
    data = rank_k_dataset(16, 8, 2, seed=12)
    run = run_compression(
        data, run_mode=MODE_SAMPLED, eps_beta=0.01, shots=100_000, seed=5
    )
    report = run.result.report
    p = report.success_probability
    sigma = math.sqrt(p * (1.0 - p) / 100_000)
    assert abs(report.sampled_success_probability - p) <= 3.0 * sigma
    assert report.postselect_shots == 100_000
    # Estimated coefficients differ from the exact ones but stay close.
    assert np.max(np.abs(run.profile.beta_hat - run.profile.beta)) <= 0.05
    assert report.fidelity >= 0.999


def test_compress_single_row_state():
    data = rank_k_dataset(8, 4, 2, seed=6)
    run = run_compression(data, row_index=3, seed=2)
    report = run.result.report
    assert report.scope == "single"
    assert report.fidelity >= 1.0 - 1e-9
    assert report.overlap is None
    state = run.result.state
    assert state.layout() == (("index", 2),)
    y = run.result.compressed.values[3]
    want = y / np.linalg.norm(y)
    for j, amp in enumerate(want, start=1):
        assert state.basis_amplitude({"index": j}) == pytest.approx(amp, abs=1e-9)


def test_compress_rejects_a_subset_with_a_row_index():
    with pytest.raises(InvalidInputError):
        run_compression(rank_k_dataset(8, 4, 2, seed=6), subset=[1, 4], row_index=1, seed=2)


def test_compress_subset_matches_restricted_full_run():
    data = rank_k_dataset(12, 6, 2, seed=14)
    subset = [2, 5, 7, 8]
    full = run_compression(data, seed=9)
    part = run_compression(data, subset=subset, seed=9)
    assert part.result.report.scope == "subset"
    assert part.result.report.fidelity >= 1.0 - 1e-9
    restricted, _ = full.result.state.restrict_register("row", subset)
    assert restricted.fidelity(part.result.state) >= 1.0 - 1e-9


def test_success_probability_identity_with_perturbed_estimates():
    from qpcasim.qpca_pipeline import compress

    data = rank_k_dataset(16, 8, 2, seed=18)
    run = run_compression(data, seed=3)
    beta_hat = perturb_beta(run.profile.beta, 0.05, PERTURB_ALTERNATING)
    profile = replace(
        run.profile, beta_hat=beta_hat, rotation_constant=float(beta_hat.min())
    )
    anchor = prepare_row_state(run.tree, profile.anchor_index)
    res = compress(data, run.model, run.tree, run.rho, run.spectrum, profile, anchor, run.cfg)
    report = res.report
    assert report.fidelity < 1.0 - 1e-6  # perturbation visibly moves the state
    assert report.success_probability == pytest.approx(
        report.success_probability_identity, abs=1e-12
    )


def test_compress_full_scope_needs_the_data_state():
    from qpcasim.qpca_pipeline import compress

    data = rank_k_dataset(16, 8, 2, seed=18)
    run = run_compression(data, seed=3)
    anchor = prepare_row_state(run.tree, run.profile.anchor_index)
    args = (data, run.model, run.tree, run.rho, run.spectrum, run.profile, anchor, run.cfg)
    single = compress(*args, row_index=2)
    assert single.report.scope == "single"


def test_compress_noisy_data_projects_cleanly():
    # Residual components carry token 0 and are removed by post-selection,
    # so the output matches the classical projection almost exactly.
    data = rank_k_plus_noise(16, 8, 2, seed=26, noise_fraction=0.01)
    run = run_compression(data, threshold=0.95, run_mode=MODE_QUANTIZED, seed=7)
    report = run.result.report
    assert report.selected_dim == 2
    assert report.fidelity >= 1.0 - 1e-9
    assert report.variance_captured < 1.0
    assert report.overlap.max_deviation <= 1e-3


def test_run_compression_is_deterministic():
    data = rank_k_dataset(16, 8, 2, seed=20)
    a = run_compression(data, run_mode=MODE_SAMPLED, seed=11)
    b = run_compression(data, run_mode=MODE_SAMPLED, seed=11)
    assert a.result.report == b.result.report
    np.testing.assert_array_equal(a.profile.beta_hat, b.profile.beta_hat)
    assert a.anchor_attempts == b.anchor_attempts


def test_rank_one_data_compresses_in_ideal_mode():
    # Every row lies on the one principal direction, so each exact
    # coefficient is an overlap of two equal unit vectors. It rounded to
    # 1.0000000000000002 here, above the (0, 1] the rotation accepts.
    run = run_compression(DataMatrix(np.array([[3.0, 4.0], [6.0, 8.0], [9.0, 12.0]])), seed=0)
    assert run.profile.beta.tolist() == run.profile.beta_hat.tolist() == [1.0]
    assert run.result.report.fidelity >= 1.0 - 1e-12


def test_weak_anchor_fixed_index_raises():
    data = DataMatrix(TRI_ROWS)
    with pytest.raises(WeakAnchorError) as info:
        run_compression(data, anchor_index=2, seed=0)
    assert info.value.anchor_index == 2


def test_weak_anchor_redraw_succeeds():
    # Seed 0 draws the weak row 2 first, then recovers with row 1.
    data = DataMatrix(TRI_ROWS)
    run = run_compression(data, seed=0)
    assert run.anchor_attempts == (2, 1)
    assert run.result.report.fidelity >= 1.0 - 1e-9


def test_sampled_redraw_samples_the_spectrum_once(monkeypatch):
    # Three anchors are tried; the label histogram, which does not depend
    # on the anchor, is drawn once and each candidate gets its own signs.
    calls = []
    measure = sv_engine.measure_register
    monkeypatch.setattr(sv_engine, "measure_register", lambda *a, **k: calls.append(a) or measure(*a, **k))
    data = rank_k_dataset(16, 8, 8, 1)
    run = run_compression(data, run_mode=MODE_SAMPLED, threshold=1.0, bits=10, seed=2)
    assert run.anchor_attempts == (13, 8, 6)
    assert len(calls) == 1
    own = svd_decompose(data, 1.0, 6).right_vectors
    np.testing.assert_array_equal(run.rho.eigenvectors, own)


def test_anchor_selection_decomposes_once(monkeypatch):
    # However many anchors are drawn, the data are decomposed once; each
    # candidate only re-signs that decomposition.
    calls = []
    decompose = pca_oracle.svd_decompose
    monkeypatch.setattr(pca_oracle, "svd_decompose", lambda *a, **k: calls.append(a) or decompose(*a, **k))
    run = run_compression(DataMatrix(TRI_ROWS), seed=0)
    assert run.anchor_attempts == (2, 1)
    assert len(calls) == 1
    calls.clear()
    run = run_compression(rank_k_dataset(16, 8, 8, 1), run_mode=MODE_SAMPLED, threshold=1.0, bits=10, seed=2)
    assert run.anchor_attempts == (13, 8, 6)
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(WeakAnchorError) as info:
        run_compression(DataMatrix(np.eye(4)), seed=1)
    assert len(info.value.anchors_tried) == qpca_pipeline.MAX_ANCHOR_ATTEMPTS
    assert len(calls) == 1


def test_sampled_fixed_anchor_loads_the_anchor_row_once(monkeypatch):
    # The state built for the swap tests is the one compress undoes.
    loaded = []
    prepare = qram_store.prepare_row_state
    monkeypatch.setattr(qram_store, "prepare_row_state", lambda tree, row: loaded.append(row) or prepare(tree, row))
    run_compression(rank_k_dataset(16, 8, 3, seed=1), run_mode=MODE_SAMPLED, anchor_index=5, seed=0)
    assert loaded == [5]


@pytest.mark.parametrize("anchor_index, attempts", [(5, (5,)), (None, (13,))])
def test_a_run_signs_the_decomposition_twice(monkeypatch, anchor_index, attempts):
    # Once against row 0 in svd_decompose and once against the accepted
    # anchor in select_anchor, whether the anchor is fixed or drawn.
    signed = []
    signs = SpectralModel.anchor_signs
    monkeypatch.setattr(SpectralModel, "anchor_signs", lambda *a: signed.append(a[-1]) or signs(*a))
    run = run_compression(rank_k_dataset(16, 8, 3, seed=1), anchor_index=anchor_index, seed=0)
    assert run.anchor_attempts == attempts
    assert signed == [0, attempts[0]]


def test_under_sampled_is_raised_before_any_anchor_is_judged(monkeypatch):
    judged = []
    monkeypatch.setattr(qpca_pipeline, "estimate_anchor", lambda *a, **k: judged.append(a))
    data = rank_k_dataset(16, 8, 8, 1, sigma_range=(0.12, 2.0))
    with pytest.raises(UnderSampledError):
        run_compression(data, run_mode=MODE_SAMPLED, threshold=1.0, bits=10, seed=0)
    assert judged == []


def test_quantized_label_collision_with_tail_is_refused():
    # 6-bit labels [31, 1, 0, 0]: the third kept component has label 0 and
    # shares it with the tail component, which compressed with fidelity
    # 0.998 and no error before the check covered the tail.
    data = dataset_from_spectrum([0.97, 0.02, 0.008, 0.002], n_rows=16, seed=3)
    with pytest.raises(DegenerateSpectrumError) as info:
        run_compression(data, run_mode=MODE_QUANTIZED, threshold=0.995, bits=6, seed=0)
    assert info.value.leaked_tail_mass == pytest.approx(0.002, rel=1e-9)


def test_fixed_anchor_out_of_range_is_reported_before_the_spectrum():
    # The spectrum of this dataset is refused at 6 bits (see above), but a
    # row that does not exist is the first fault to report.
    data = dataset_from_spectrum([0.97, 0.02, 0.008, 0.002], n_rows=16, seed=3)
    with pytest.raises(OutOfRangeError, match="anchor index 16 out of range for 16 rows"):
        run_compression(data, run_mode=MODE_QUANTIZED, threshold=0.995, bits=6, seed=0, anchor_index=16)


def test_kept_label_zero_is_refused():
    # The eighth kept eigenvalue (7.8e-5) rounds to label 0 at 10 bits, the
    # value of an unwritten label register; no tail component shares it.
    data = rank_k_dataset(16, 8, 8, 1, sigma_range=(0.03, 2.0))
    with pytest.raises(DegenerateSpectrumError) as info:
        run_compression(data, run_mode=MODE_SAMPLED, threshold=1.0, bits=10, seed=0)
    assert info.value.leaked_tail_mass == 0.0


def test_weak_anchor_exhausts_redraws():
    # Every row of the identity is orthogonal to all but one component, so
    # no anchor can overlap every kept direction.
    with pytest.raises(WeakAnchorError):
        run_compression(DataMatrix(np.eye(4)), seed=1)


# -- resource ledger ---------------------------------------------------------------


def test_ledger_scaling_ratios():
    eps_grid = (0.25, 0.125, 0.0625)
    for eps_lambda in eps_grid:
        for eps_beta in eps_grid:
            base = ledger_predict(16, 8, 2, eps_lambda, eps_beta, 0.25)
            # Halving the eigenvalue resolution costs 8x on both label walks
            # and the spectrum stage.
            finer = ledger_predict(16, 8, 2, eps_lambda / 2, eps_beta, 0.25)
            np.testing.assert_allclose(
                finer.label_write_cost, 8.0 * base.label_write_cost, rtol=1e-12
            )
            np.testing.assert_allclose(
                finer.label_uncompute_cost, 8.0 * base.label_uncompute_cost, rtol=1e-12
            )
            np.testing.assert_allclose(
                finer.spectrum_copies, 8.0 * base.spectrum_copies, rtol=1e-12
            )
            # Halving the coefficient accuracy costs 4x on the swap tests.
            sharper = ledger_predict(16, 8, 2, eps_lambda, eps_beta / 2, 0.25)
            np.testing.assert_allclose(
                sharper.anchor_swap_tests, 4.0 * base.anchor_swap_tests, rtol=1e-12
            )
            np.testing.assert_allclose(
                sharper.spectrum_copies, 4.0 * base.spectrum_copies, rtol=1e-12
            )
            # Doubling the kept dimension doubles the linear stages up to the
            # register-width factor.
            wider = ledger_predict(16, 8, 4, eps_lambda, eps_beta, 0.25)
            reg = math.log2(5.0) / math.log2(3.0)
            np.testing.assert_allclose(
                wider.anchor_swap_tests, 2.0 * base.anchor_swap_tests, rtol=1e-12
            )
            np.testing.assert_allclose(
                wider.index_write_gates, 2.0 * reg * base.index_write_gates, rtol=1e-12
            )
            np.testing.assert_allclose(
                wider.rotation_gates, 2.0 * reg * base.rotation_gates, rtol=1e-12
            )


def test_ledger_amplification():
    ledger = ledger_predict(16, 8, 2, 0.03125, 0.01, 0.25)
    assert ledger.amplification_reps == 2
    amplified = ledger.amplified_cost()
    assert amplified["rotation_gates"] == pytest.approx(2.0 * ledger.rotation_gates)
    assert amplified["postselect_cost"] == pytest.approx(2.0 * ledger.postselect_cost)
    assert set(amplified) == {
        "label_write_cost",
        "index_write_gates",
        "label_uncompute_cost",
        "rotation_gates",
        "postselect_cost",
    }
    assert ledger_predict(16, 8, 2, 0.03125, 0.01, 1.0).amplification_reps == 1


def test_ledger_validation():
    with pytest.raises(OutOfRangeError):
        ledger_predict(16, 8, 0, 0.1, 0.1, 0.5)
    with pytest.raises(OutOfRangeError):
        ledger_predict(16, 8, 2, 0.0, 0.1, 0.5)
    with pytest.raises(OutOfRangeError):
        ledger_predict(16, 8, 2, 0.1, 1.5, 0.5)


# -- coefficient-error scaling -------------------------------------------------------


def test_perturb_beta_kinds():
    beta = np.array([0.5, 0.5, 0.5])
    alt = perturb_beta(beta, 0.1, PERTURB_ALTERNATING)
    np.testing.assert_allclose(alt, [0.6, 0.4, 0.6], atol=1e-12)
    rel = perturb_beta(beta, 0.1, PERTURB_UNIFORM_RELATIVE)
    np.testing.assert_allclose(rel, [0.55, 0.55, 0.55], atol=1e-12)
    # Perturbations clip into the usable coefficient range.
    assert perturb_beta(np.array([0.9, 0.9]), 0.3, PERTURB_UNIFORM_RELATIVE).max() == 1.0
    # A grid of magnitudes gives one row per magnitude, each the point's own.
    grid = np.array([0.0, 0.1, 0.3])
    for kind in (PERTURB_ALTERNATING, PERTURB_UNIFORM_RELATIVE):
        rows = perturb_beta(beta, grid, kind)
        assert rows.shape == (3, 3)
        for k, eps in enumerate(grid):
            assert np.array_equal(rows[k], perturb_beta(beta, float(eps), kind))


def test_scaling_zero_perturbation_is_exact():
    datasets = {s: rank_k_dataset(16, 8, 2, seed=100 + s) for s in range(4)}
    result = error_scaling_experiment(
        lambda s: datasets[s], [0.0], list(range(4))
    )
    assert result.rows[0].mean_infidelity <= 1e-9
    # The deviation is the norm of the part of the produced state orthogonal
    # to the reference; sqrt(1 - f^2) would turn a round-off infidelity of
    # ~1e-17 into ~1e-9.
    assert result.rows[0].mean_deviation <= 1e-12
    assert result.slope == 0.0


def test_scaling_uniform_relative_cancels():
    # A common relative factor on every estimate rescales numerator and
    # denominator identically, so the final state never moves. The seeds are
    # chosen so no coefficient clips at 1.0, which would break uniformity.
    datasets = {s: rank_k_dataset(16, 8, 2, seed=700 + s) for s in range(4)}
    result = error_scaling_experiment(
        lambda s: datasets[s],
        [0.0, 0.05, 0.1],
        list(range(4)),
        perturbation=PERTURB_UNIFORM_RELATIVE,
    )
    for row in result.rows:
        assert row.mean_infidelity <= 1e-9


def test_scaling_alternating_grows_with_eps():
    datasets = {s: rank_k_dataset(16, 8, 2, seed=300 + s) for s in range(6)}
    result = error_scaling_experiment(
        lambda s: datasets[s], [0.0, 0.02, 0.04, 0.08], list(range(6))
    )
    devs = [row.mean_deviation for row in result.rows]
    assert devs == sorted(devs)
    assert devs[-1] > devs[1] > 0.0
    assert result.slope > 0.0
    assert result.n_seeds == 6
    assert result.dims == (2,)
    assert result.slope_scaled == pytest.approx(result.slope * math.sqrt(2.0))


def _count_calls(monkeypatch, *targets):
    """Wrap each (module, name) so that its calls are counted by name."""
    calls = {name: 0 for _, name in targets}
    for module, name in targets:
        original = getattr(module, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_scaling_builds_the_rotation_free_prefix_once_per_seed(monkeypatch):
    # Only the coefficient rotation depends on eps: each seed's anchor is
    # projected once, in one call per dataset (two here), and no grid point
    # runs a whole compress or its pairwise-overlap audit.
    calls = _count_calls(
        monkeypatch,
        (sv_engine, "project_anchor"),
        (qpca_pipeline, "compress"),
        (pca_oracle, "pairwise_overlap_report"),
    )
    datasets = {s: rank_k_dataset(16, 8, 2, seed=300 + s) for s in range(2)}
    result = error_scaling_experiment(lambda s: datasets[s], [0.0, 0.02, 0.04, 0.08], [0, 1])
    assert len(result.rows) == 4
    assert calls == {"project_anchor": 2, "compress": 0, "pairwise_overlap_report": 0}


def test_scaling_builds_the_dataset_prefix_once_per_dataset_object(monkeypatch):
    # A generator that keeps returning one DataMatrix gets one tree, one
    # decomposition and one data state; one that returns an equal copy per
    # seed gets them per seed. The sweep's numbers are the same either way.
    calls = _count_calls(
        monkeypatch,
        (qram_store, "build_tree"),
        (pca_oracle, "svd_decompose"),
        (qram_store, "prepare_data_state"),
    )
    data = rank_k_dataset(16, 8, 2, seed=300)
    grid, seeds = [0.0, 0.02, 0.04, 0.08], list(range(5))
    same = error_scaling_experiment(lambda s: data, grid, seeds)
    assert calls == {"build_tree": 1, "svd_decompose": 1, "prepare_data_state": 1}
    copies = error_scaling_experiment(lambda s: DataMatrix(data.values), grid, seeds)
    assert calls == {"build_tree": 6, "svd_decompose": 6, "prepare_data_state": 6}
    assert _numbers(copies) == _numbers(same)
    assert len(same.models) == 1 and len(copies.models) == 5


def _numbers(result):
    """What a scaling result reports, without its decompositions."""
    return result.rows, result.slope, result.slope_scaled, result.dims, result.perturbation, result.n_seeds


def _record_calls(monkeypatch, module, name):
    """Wrap module.name so that each call's positional arguments and result
    are appended, as a pair, to the returned list."""
    seen = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append((args, result))
        return result

    monkeypatch.setattr(module, name, wrapper)
    return seen


@pytest.mark.parametrize("perturbation", [PERTURB_ALTERNATING, PERTURB_UNIFORM_RELATIVE])
@pytest.mark.parametrize("source", ["rank3", "rank4-64x16"])
def test_scaling_grid_matches_the_per_point_path(monkeypatch, source, perturbation):
    # The sweep rotates and post-selects its whole eps grid as one array.
    # Each point's kept state, fidelity and deviation must be those of the
    # per-point path (apply_cr_beta, postselect, StateVector.fidelity) bit
    # for bit; with one seed the sweep's means are those values.
    data = cli.ingest_csv(RANK3) if source == "rank3" else rank_k_dataset(64, 16, 4, seed=5)
    grid = [0.0, 0.02, 0.04, 0.08, 0.3]
    choices = _record_calls(monkeypatch, qpca_pipeline, "select_anchor")
    batches = _record_calls(monkeypatch, sv_engine, "postselect_rotations")
    result = error_scaling_experiment(lambda s: data, grid, [11], perturbation=perturbation)
    [(_, choice)] = choices
    [(([projected], [p_anchor], [beta_hat], _), ([kept], [probs]))] = batches
    reference = pca_oracle.expected_compressed_state(pca_oracle.project(data, choice.model, choice.model.selected_dim))
    assert kept.shape == (len(grid),) + projected.amplitudes.shape
    for k, eps in enumerate(grid):
        want = perturb_beta(choice.profile.beta, eps, perturbation)
        assert np.array_equal(beta_hat[k], want)
        post = sv_engine.postselect(sv_engine.apply_cr_beta(projected, want, float(want.min())), p_anchor)
        assert np.array_equal(kept[k], post.state.amplitudes)
        assert probs[k] == post.probability
        assert result.rows[k].mean_infidelity == max(1.0 - post.state.fidelity(reference), 0.0)
        psi, phi = reference.amplitudes, post.state.amplitudes
        assert result.rows[k].mean_deviation == float(np.linalg.norm(phi - np.vdot(psi, phi) * psi))


def test_scaling_grid_refuses_a_point_below_the_postselect_floor():
    # Index 1 holds mass 1e-7. The second point's sine there is 1e-3, so its
    # kept mass of 1e-13 falls below the floor: the grid refuses it as the
    # per-point path does, with the same message.
    amps = np.zeros((2, 4))
    amps[0, 0], amps[0, 1] = math.sqrt(1.0 - 1e-7), math.sqrt(1e-7)
    state = StateVector.from_amplitudes([("row", 1), ("index", 2)], amps)
    beta_hat = np.array([[[0.5, 0.5], [1.0, 1e-3]]])
    _, probs = sv_engine.postselect_rotations([state], [1.0], beta_hat[:, :1], beta_hat[:, :1].min(axis=-1))
    assert probs[0, 0] == pytest.approx(1e-7) and probs[0, 0] > POSTSELECT_FLOOR
    with pytest.raises(VanishingSuccessError) as per_point:
        sv_engine.postselect(sv_engine.apply_cr_beta(state, beta_hat[0, 1], 1e-3), 1.0)
    with pytest.raises(VanishingSuccessError) as grid:
        sv_engine.postselect_rotations([state], [1.0], beta_hat, beta_hat.min(axis=-1))
    assert str(grid.value) == str(per_point.value)


def _weak_row_dataset():
    # Eight extra rows along the first principal direction of a rank-3
    # dataset leave its principal directions in place, and have no overlap
    # with the other two: a draw of one of them is weak.
    x = rank_k_dataset(24, 8, 3, seed=5).values
    v1 = np.linalg.svd(x)[2][0]
    return DataMatrix(np.vstack([x, np.outer([0.3, -0.2, 0.25, -0.35, 0.15, 0.3, -0.1, 0.2], v1)]))


def _per_seed_sweep(data, seed, grid, perturbation):
    """One seed of the scaling sweep on its own: a spectrum and an anchor
    of its own, a signed model and eigensystem, ``project_anchor`` of that
    anchor alone, then ``apply_cr_beta`` and ``postselect`` per grid point.
    Returns the anchor draws, the kept amplitudes, and the infidelity and
    deviation per point."""
    cfg = PhaseConfig(bits=6, label_mode=LABEL_MODE_IDEAL)
    tree = build_tree(data)
    model = svd_decompose(data, 0.95)
    rho = RhoSpec.from_model(model)
    spectrum = exact_spectrum(rho, cfg, model.selected_dim)
    choice = qpca_pipeline.select_anchor(data, model, rho, spectrum, tree, np.random.default_rng(seed))
    d = spectrum.dim
    signed = RhoSpec.from_model(choice.model)
    anchor = qram_store.prepare_row_state(tree, choice.profile.anchor_index)
    [projected], [p_anchor] = sv_engine.project_anchor(
        signed, cfg, qram_store.prepare_data_state(tree), [anchor], distinct_top=d
    )
    reference = pca_oracle.expected_compressed_state(pca_oracle.project(data, choice.model, d))
    kept, infid, dev = [], [], []
    for eps in grid:
        beta_hat = perturb_beta(choice.profile.beta, eps, perturbation)
        post = sv_engine.postselect(sv_engine.apply_cr_beta(projected, beta_hat, float(beta_hat.min())), p_anchor)
        psi, phi = reference.amplitudes, post.state.amplitudes
        kept.append(phi)
        infid.append(max(1.0 - post.state.fidelity(reference), 0.0))
        dev.append(float(np.linalg.norm(phi - np.vdot(psi, phi) * psi)))
    return choice.attempts, kept, infid, dev


@pytest.mark.parametrize("stack_rows, passes", [(qpca_pipeline.SWEEP_STACK_ROWS, 1), (64, 3)])
@pytest.mark.parametrize("perturbation", [PERTURB_ALTERNATING, PERTURB_UNIFORM_RELATIVE])
def test_stacked_seeds_match_the_per_seed_path(monkeypatch, perturbation, stack_rows, passes):
    # The sweep runs the seeds of one dataset as one stack: one spectrum,
    # one unsigned eigensystem and one reference for them all, and their
    # anchors projected and rotated in one pass, or in passes of two seeds
    # when a pass may hold 64 of these 32-row states. Seeds 0, 10 and 13
    # draw a weak row first. Every (seed, eps) point must be the per-seed
    # path's bit for bit, and each row the sum over the seeds, in order,
    # over the seed count.
    monkeypatch.setattr(qpca_pipeline, "SWEEP_STACK_ROWS", stack_rows)
    data = _weak_row_dataset()
    grid, seeds = [0.0, 0.02, 0.04, 0.08, 0.3], [0, 1, 10, 13, 5]
    batches = _record_calls(monkeypatch, sv_engine, "postselect_rotations")
    stacks = _record_calls(monkeypatch, qpca_pipeline, "_sweep_dataset")
    result = error_scaling_experiment(lambda s: data, grid, seeds, perturbation=perturbation)
    assert len(batches) == passes
    kept = np.concatenate([branches for _, (branches, _) in batches])
    [(_, (_, infid, dev))] = stacks
    sum_infid, sum_dev = [0.0] * len(grid), [0.0] * len(grid)
    for s, seed in enumerate(seeds):
        attempts, want_kept, want_infid, want_dev = _per_seed_sweep(data, seed, grid, perturbation)
        assert (len(attempts) > 1) == (seed in (0, 10, 13))
        for k in range(len(grid)):
            assert np.array_equal(kept[s, k], want_kept[k])
            assert infid[s, k] == want_infid[k]
            assert dev[s, k] == want_dev[k]
            sum_infid[k] += want_infid[k]
            sum_dev[k] += want_dev[k]
    for k, row in enumerate(result.rows):
        assert row.mean_infidelity == sum_infid[k] / len(seeds)
        assert row.mean_deviation == sum_dev[k] / len(seeds)


def test_stacks_follow_the_dataset_objects_the_generator_returns(monkeypatch):
    # Seeds that get A, B, then A again make three stacks; fresh copies make
    # one per seed. The rows are the same either way.
    calls = _count_calls(monkeypatch, (qpca_pipeline, "_sweep_dataset"))
    a, b = _weak_row_dataset(), rank_k_dataset(16, 8, 2, seed=300)
    sources = {0: a, 1: a, 2: b, 3: a, 4: a}
    grid, seeds = [0.0, 0.02, 0.08], list(sources)
    same = error_scaling_experiment(lambda s: sources[s], grid, seeds)
    assert calls == {"_sweep_dataset": 3}
    copies = error_scaling_experiment(lambda s: DataMatrix(sources[s].values), grid, seeds)
    assert calls == {"_sweep_dataset": 3 + len(seeds)}
    assert _numbers(copies) == _numbers(same)
    assert same.dims == (2, 3)


def test_a_corrupted_projection_is_refused(monkeypatch):
    # A stage output whose norm drifted must still raise: the sweep checks
    # the rotated state's norm before it renormalises each kept branch,
    # which would hide the drift.
    project = sv_engine.project_anchor

    def drifted(*args, **kwargs):
        states, probs = project(*args, **kwargs)
        return [StateVector(s.registers, s.amplitudes * 1.01, _normalize_check=False) for s in states], probs

    monkeypatch.setattr(sv_engine, "project_anchor", drifted)
    data = rank_k_dataset(16, 8, 2, seed=300)
    with pytest.raises(NumericalFailureError, match="state norm drifted"):
        error_scaling_experiment(lambda s: data, [0.0, 0.02], [0])
    with pytest.raises(NumericalFailureError, match="state norm drifted"):
        run_compression(data, seed=0)


@pytest.mark.parametrize("task", ["compress", "scaling"])
def test_each_tree_is_cascaded_once(monkeypatch, task):
    # build_tree runs the cascade over every row and prepare_data_state over
    # the norms; a row state reads its row off the tree.
    calls = _count_calls(monkeypatch, (qram_store, "_cascade"))
    cli.run(cli.RunConfig(input_path=RANK3, task=task, seed=3))
    assert calls == {"_cascade": 2}
    tree = build_tree(cli.ingest_csv(RANK3))
    calls["_cascade"] = 0
    for row in range(tree.n_rows):
        qram_store.prepare_row_state(tree, row)
    assert calls == {"_cascade": 0}
    with pytest.raises(ValueError):
        tree.row_amplitudes[0, 0] = 0.0

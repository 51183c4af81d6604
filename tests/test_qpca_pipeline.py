"""Tests for the end-to-end compression pipeline."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qpcasim.datasets import dataset_from_spectrum, rank_k_dataset, rank_k_plus_noise
from qpcasim import pca_oracle, qpca_pipeline, qram_store, sv_engine
from qpcasim.errors import (
    DegenerateSpectrumError,
    InvalidInputError,
    OutOfRangeError,
    UnderSampledError,
    WeakAnchorError,
)
from qpcasim.pca_oracle import DataMatrix, expected_row_state, svd_decompose
from qpcasim.qram_store import build_tree
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
from qpcasim.sv_engine import LABEL_MODE_IDEAL, LABEL_MODE_QUANTIZED, PhaseConfig, RhoSpec

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
    assert [e.label for e in spectrum.entries] == [29, 3]
    assert spectrum.cu_labels() == [(29, 1), (3, 2)]
    np.testing.assert_allclose(
        [e.frequency for e in spectrum.entries], [0.90, 0.08], atol=1e-12
    )
    with pytest.raises(OutOfRangeError):
        exact_spectrum(rho, cfg, 0)


def test_extract_spectrum_balanced_pair():
    data = DataMatrix(np.eye(2))
    model = svd_decompose(data, 1.0, 0)
    rho = RhoSpec.from_model(model)
    tree = build_tree(data)
    cfg = PhaseConfig(bits=6, label_mode=LABEL_MODE_IDEAL)
    spectrum = extract_spectrum(tree, rho, cfg, 50, 3, dim=2, threshold=0.95)
    sigma = math.sqrt(0.25 / 50)
    for entry in spectrum.entries:
        assert abs(entry.frequency - 0.5) <= 3.0 * sigma
    assert sum(spectrum.histogram.values()) == 50
    assert spectrum.budget == 50


def test_extract_spectrum_rank_one_is_deterministic():
    data = DataMatrix(np.array([[3.0, 4.0]]))
    model = svd_decompose(data, 0.95, 0)
    rho = RhoSpec.from_model(model)
    cfg = PhaseConfig(bits=6, label_mode=LABEL_MODE_QUANTIZED)
    spectrum = extract_spectrum(build_tree(data), rho, cfg, 50, 11, dim=1, threshold=0.95)
    assert spectrum.entries[0].label == 32  # half-phase encoding of eigenvalue 1
    assert spectrum.entries[0].frequency == 1.0


def test_extract_spectrum_budget_sweep():
    # 99 of 100 fixed seeds cover 95% of the variance within 200 draws.
    _, model, rho, tree = _stated_spectrum_setup()
    cfg = PhaseConfig(bits=6, label_mode=LABEL_MODE_QUANTIZED)
    ok = 0
    for seed in range(100):
        try:
            extract_spectrum(tree, rho, cfg, 200, seed, dim=2, threshold=0.95)
            ok += 1
        except UnderSampledError:
            pass
    assert ok >= 99


def test_extract_spectrum_undersampled_carries_partial():
    _, model, rho, tree = _stated_spectrum_setup()
    cfg = PhaseConfig(bits=6, label_mode=LABEL_MODE_QUANTIZED)
    with pytest.raises(UnderSampledError) as info:
        extract_spectrum(tree, rho, cfg, 2, 0, dim=2, threshold=0.95)
    partial = info.value.partial
    assert partial.dim == 2
    assert partial.histogram == {29: 2}  # second label never observed
    assert partial.budget == 2


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
    tree = build_tree(data)
    cfg = PhaseConfig(bits=10, label_mode=LABEL_MODE_QUANTIZED)
    for dim in (0, 9):
        with pytest.raises(OutOfRangeError):
            extract_spectrum(tree, RhoSpec.from_model(model), cfg, 400, 0, dim=dim, threshold=0.95)


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
    profile = exact_anchor_profile(tree, rho, spectrum, 0)
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
        exact_anchor_profile(tree, rho, spectrum, 2)
    assert info.value.anchor_index == 2


def test_estimate_anchor_concentrates():
    data = DataMatrix(TRI_ROWS)
    model = svd_decompose(data, 0.95, 0)
    tree = build_tree(data)
    cfg = PhaseConfig(bits=6, label_mode=LABEL_MODE_IDEAL)
    rho = RhoSpec.from_model(model)
    spectrum = exact_spectrum(rho, cfg, 2)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    hits = 0
    for seed in range(200):
        profile = estimate_anchor(tree, rho, spectrum, 0.01, seed, anchor_index=0)
        assert profile.shots_per_coefficient == 40_000  # ceil(4 / 0.01^2)
        if np.all(np.abs(profile.beta_hat - inv_sqrt2) <= 0.05):
            hits += 1
    assert hits >= 198
    # Halving the target accuracy quadruples the per-coefficient shots.
    finer = estimate_anchor(tree, rho, spectrum, 0.005, 0, anchor_index=0)
    assert finer.shots_per_coefficient == 160_000


def test_estimate_anchor_is_seeded():
    data = DataMatrix(TRI_ROWS)
    model = svd_decompose(data, 0.95, 0)
    tree = build_tree(data)
    cfg = PhaseConfig(bits=6, label_mode=LABEL_MODE_IDEAL)
    rho = RhoSpec.from_model(model)
    spectrum = exact_spectrum(rho, cfg, 2)
    a = estimate_anchor(tree, rho, spectrum, 0.02, 7, anchor_index=0)
    b = estimate_anchor(tree, rho, spectrum, 0.02, 7, anchor_index=0)
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
    res = compress(
        data, run.model, run.tree, run.rho, run.spectrum, profile, run.cfg
    )
    report = res.report
    assert report.fidelity < 1.0 - 1e-6  # perturbation visibly moves the state
    assert report.success_probability == pytest.approx(
        report.success_probability_identity, abs=1e-12
    )


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


def test_sampled_fixed_anchor_loads_the_anchor_row_twice(monkeypatch):
    # Once for the swap tests and the exact coefficients, once to undo the
    # anchor in compress.
    loaded = []
    prepare = qram_store.prepare_row_state
    monkeypatch.setattr(qram_store, "prepare_row_state", lambda tree, row: loaded.append(row) or prepare(tree, row))
    run_compression(rank_k_dataset(16, 8, 3, seed=1), run_mode=MODE_SAMPLED, anchor_index=5, seed=0)
    assert loaded == [5, 5]


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


def test_scaling_builds_the_rotation_free_prefix_once_per_seed(monkeypatch):
    # Only the coefficient rotation depends on eps: each seed projects onto
    # the anchor once, and no grid point runs a whole compress or its
    # pairwise-overlap audit.
    calls = {"project_anchor": 0, "compress": 0, "pairwise_overlap_report": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(sv_engine, "project_anchor")
    counting(qpca_pipeline, "compress")
    counting(pca_oracle, "pairwise_overlap_report")
    datasets = {s: rank_k_dataset(16, 8, 2, seed=300 + s) for s in range(2)}
    result = error_scaling_experiment(lambda s: datasets[s], [0.0, 0.02, 0.04, 0.08], [0, 1])
    assert len(result.rows) == 4
    assert calls == {"project_anchor": 2, "compress": 0, "pairwise_overlap_report": 0}

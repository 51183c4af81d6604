"""Tests for the end-to-end compression pipeline."""

import math
import sys
import tracemalloc
from collections import Counter
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
from qpcasim.pca_oracle import DataMatrix, SpectralModel, coefficients, svd_decompose
from qpcasim.qpca_pipeline import (
    MODE_IDEAL,
    MODE_QUANTIZED,
    MODE_SAMPLED,
    default_sampling_budget,
    error_scaling_experiment,
    estimate_anchor,
    exact_anchor_profile,
    extract_spectrum,
    ledger_predict,
    perturb_beta,
    run_compression,
)
from qpcasim.statevector import StateVector
from qpcasim.sv_engine import (
    POSTSELECT_FLOOR,
    PhaseConfig,
    check_label_distinctness,
)

from oracles import spectral_model
from test_acceptance import anchor_signed_projection, uniform_relative_infidelities

RANK3 = str(Path(__file__).resolve().parent / "golden" / "inputs" / "rank3.csv")
TRI_ROWS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def _stated_spectrum_setup():
    data = dataset_from_spectrum([0.90, 0.08, 0.02], n_rows=12, seed=2)
    return data, svd_decompose(data, 0.95)


# -- spectrum discovery --------------------------------------------------------


def test_label_check_returns_the_kept_labels():
    _, model = _stated_spectrum_setup()
    cfg = PhaseConfig(MODE_QUANTIZED, 6)
    labels = check_label_distinctness(model, cfg)
    assert model.selected_dim == 2
    assert labels[: model.selected_dim].tolist() == [29, 3]
    np.testing.assert_allclose(model.variance_proportions[: model.selected_dim], [0.90, 0.08], atol=1e-12)
    # A thin eigensystem (two directions of three features) keeps its
    # directions and nothing past them.
    thin = spectral_model([0.75, 0.25, 0.0], np.eye(3)[:, :2], 2)
    labels = check_label_distinctness(thin, PhaseConfig(MODE_IDEAL, 6))
    assert labels[: thin.selected_dim].tolist() == [1, 2]


def test_extract_spectrum_balanced_pair():
    data = DataMatrix(np.eye(2))
    model = svd_decompose(data, 0.95)
    assert model.selected_dim == 2
    cfg = PhaseConfig(MODE_IDEAL, 6)
    histogram = extract_spectrum(model, cfg, 50, 3)
    sigma = math.sqrt(0.25 / 50)
    assert sorted(histogram) == [1, 2]
    for count in histogram.values():
        assert abs(count / 50 - 0.5) <= 3.0 * sigma
    assert sum(histogram.values()) == 50


def test_extract_spectrum_rank_one_is_deterministic():
    data = DataMatrix(np.array([[3.0, 4.0]]))
    model = svd_decompose(data, 0.95)
    cfg = PhaseConfig(MODE_QUANTIZED, 6)
    # Half-phase encoding of eigenvalue 1; the tail's label 0 has no mass.
    assert extract_spectrum(model, cfg, 50, 11) == {32: 50}


def test_extract_spectrum_budget_sweep():
    # 99 of 100 fixed seeds cover 95% of the variance within 200 draws.
    _, model = _stated_spectrum_setup()
    cfg = PhaseConfig(MODE_QUANTIZED, 6)
    ok = 0
    for seed in range(100):
        try:
            extract_spectrum(model, cfg, 200, seed)
            ok += 1
        except UnderSampledError:
            pass
    assert ok >= 99


def test_extract_spectrum_undersampled_carries_the_histogram():
    _, model = _stated_spectrum_setup()
    cfg = PhaseConfig(MODE_QUANTIZED, 6)
    with pytest.raises(UnderSampledError) as info:
        extract_spectrum(model, cfg, 2, 0)
    assert info.value.histogram == {29: 2}  # second label never observed
    assert info.value.budget == 2
    assert info.value.payload()["histogram"] == {29: 2}
    assert info.value.payload()["budget"] == 2


@pytest.mark.parametrize(
    "run_mode, subset, loads",
    [(MODE_SAMPLED, None, 1), (MODE_SAMPLED, [3], 1), (MODE_IDEAL, None, 1), (MODE_IDEAL, [3], 1)],
)
def test_run_compression_loads_the_data_state_at_most_once(monkeypatch, run_mode, subset, loads):
    # Compress loads the data state once, for the whole dataset or a subset
    # of its rows; the sampled spectrum reads the eigenvalues, so no other
    # stage loads it in any mode.
    calls = [0]
    original = qram_store.prepare_data_state

    def counting_load(data):
        calls[0] += 1
        return original(data)

    monkeypatch.setattr(qram_store, "prepare_data_state", counting_load)
    run = run_compression(rank_k_dataset(32, 8, 3, seed=4), run_mode=run_mode, subset=subset, seed=2)
    assert run.result.report.fidelity >= 0.9
    assert calls[0] == loads


def test_extract_spectrum_full_coverage_meets_threshold_one():
    # Every draw lands on one of the eight kept labels, so coverage is
    # exactly 1; summed float frequencies used to round it below 1.0.
    data = rank_k_dataset(16, 8, 8, 1)
    run = run_compression(data, run_mode=MODE_SAMPLED, threshold=1.0, bits=10, seed=0)
    assert run.model.selected_dim == 8
    budget = qpca_pipeline.default_sampling_budget(8)
    histogram = extract_spectrum(run.model, run.cfg, budget, 0)
    assert len(histogram) == 8 and sum(histogram.values()) == budget


def test_default_sampling_budget():
    assert default_sampling_budget(2) == 200
    assert default_sampling_budget(10) == 500


# -- anchor estimation -----------------------------------------------------------


def test_exact_anchor_profile_three_rows():
    data = DataMatrix(TRI_ROWS)
    model = svd_decompose(data, 0.95)
    profile = exact_anchor_profile(model.overlaps(data, 0, model.selected_dim), 0, 0.01)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(profile.beta, [inv_sqrt2, inv_sqrt2], atol=1e-12)
    np.testing.assert_allclose(profile.beta_hat, profile.beta, atol=0.0)
    assert profile.rotation_constant == pytest.approx(inv_sqrt2, abs=1e-12)
    assert profile.residual <= 1e-12


def test_exact_anchor_profile_weak_anchor():
    # Row 2 = (1, 1) lies entirely on the first component, so its second
    # coefficient vanishes.
    data = DataMatrix(TRI_ROWS)
    model = svd_decompose(data, 0.95)
    with pytest.raises(WeakAnchorError) as info:
        exact_anchor_profile(model.overlaps(data, 2, model.selected_dim), 2, 0.01)
    assert info.value.anchor_index == 2


def test_estimate_anchor_concentrates():
    data = DataMatrix(TRI_ROWS)
    model = svd_decompose(data, 0.95)
    anchor = model.overlaps(data, 0, model.selected_dim)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    hits = 0
    for seed in range(200):
        profile = estimate_anchor(anchor, 0, 0.01, seed)
        assert profile.shots_per_coefficient == 40_000  # ceil(4 / 0.01^2)
        if np.all(np.abs(profile.beta_hat - inv_sqrt2) <= 0.05):
            hits += 1
    assert hits >= 198
    # Halving the target accuracy quadruples the per-coefficient shots.
    finer = estimate_anchor(anchor, 0, 0.005, 0)
    assert finer.shots_per_coefficient == 160_000


def test_estimate_anchor_is_seeded():
    data = DataMatrix(TRI_ROWS)
    model = svd_decompose(data, 0.95)
    anchor = model.overlaps(data, 0, model.selected_dim)
    a = estimate_anchor(anchor, 0, 0.02, 7)
    b = estimate_anchor(anchor, 0, 0.02, 7)
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


def test_the_compress_report_holds_the_audit_itself():
    # The report's overlap block is the audit's own record, which rebuilds
    # its deviations from the data and the projection it read: the pairs it
    # counted, with the maximum it reported, bit for bit. 150 noisy rows
    # take three audit blocks.
    data = rank_k_plus_noise(150, 8, 3, seed=4, noise_fraction=0.01)
    run = run_compression(data, seed=1)
    overlap = run.result.report.overlap
    assert type(overlap) is pca_oracle.OverlapReport
    assert overlap.n_pairs == 150 * 149 // 2
    assert overlap.deviations.size == overlap.n_pairs
    assert overlap.max_deviation > 0.0
    assert float(overlap.deviations.max()) == overlap.max_deviation


def test_the_compressed_projection_is_read_only():
    # The overlap audit keeps the projection; nothing may change the bits
    # its statistics came from.
    run = run_compression(rank_k_dataset(16, 8, 3, seed=1), seed=0)
    compressed = run.result.compressed
    assert isinstance(compressed, np.ndarray) and compressed.shape == (16, 3)
    assert not compressed.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        compressed[0, 0] = 1.0


def test_compress_single_row_state():
    # A one-row subset compresses that row alone: the kept row holds its
    # projection y / |y| on tokens 1..d, and every other row holds nothing.
    data = rank_k_dataset(8, 4, 2, seed=6)
    run = run_compression(data, subset=[3], seed=2)
    report = run.result.report
    assert report.scope == "subset"
    assert report.fidelity >= 1.0 - 1e-9
    amps = run.result.state.amplitudes
    assert run.result.state.layout() == (("row", 3), ("index", 2))
    y = run.result.compressed[3]
    np.testing.assert_allclose(amps[3, 1:3], y / np.linalg.norm(y), atol=1e-9)
    assert amps[3, 0] == 0.0 and not np.any(np.delete(amps, 3, axis=0))


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
    beta_hat = perturb_beta(run.profile.beta, 0.05)
    profile = replace(
        run.profile, beta_hat=beta_hat, rotation_constant=float(beta_hat.min())
    )
    res = compress(data, run.model, profile, run.cfg)
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


def test_rank_one_data_compresses_in_ideal_mode():
    # Every row lies on the one principal direction, so each exact
    # coefficient is an overlap of two equal unit vectors. It rounded to
    # 1.0000000000000002 here, above the (0, 1] the rotation accepts.
    run = run_compression(DataMatrix(np.array([[3.0, 4.0], [6.0, 8.0], [9.0, 12.0]])), seed=0)
    overlaps = run.model.overlaps(run.data, run.profile.anchor_index, 1)
    assert abs(overlaps[0]) > 1.0
    assert coefficients(overlaps).tolist() == [1.0]
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
    # on the anchor, is drawn once. The model keeps the row-0 signs, and
    # the classical reference takes the accepted row's.
    calls = []
    measure = sv_engine.measure_register
    monkeypatch.setattr(sv_engine, "measure_register", lambda *a, **k: calls.append(a) or measure(*a, **k))
    data = rank_k_dataset(16, 8, 8, 1)
    run = run_compression(data, run_mode=MODE_SAMPLED, threshold=1.0, bits=10, seed=2)
    assert run.anchor_attempts == (13, 8, 6)
    assert len(calls) == 1
    own = svd_decompose(data, 1.0)
    np.testing.assert_array_equal(run.model.right_vectors, own.right_vectors)
    want = anchor_signed_projection(data, own, own.overlaps(data, 6, own.selected_dim))
    np.testing.assert_array_equal(run.result.compressed, want)


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
    # The anchor row is read once, as its kept overlaps, and the swap tests
    # and compress read that one vector.
    formed = _record_calls(monkeypatch, SpectralModel, "overlaps")
    judged = _record_calls(monkeypatch, qpca_pipeline, "estimate_anchor")
    projected = _record_calls(monkeypatch, sv_engine, "project_anchor")
    run = run_compression(rank_k_dataset(16, 8, 3, seed=1), run_mode=MODE_SAMPLED, anchor_index=5, seed=0)
    [((_, data, row, k), overlaps)] = formed
    assert (row, k) == (5, run.model.selected_dim) and data is run.data
    [((judged_overlaps, *_), _)] = judged
    assert judged_overlaps is overlaps
    [((*_, stack), _)] = projected
    assert stack.base is overlaps


@pytest.mark.parametrize("anchor_index, attempts", [(5, (5,)), (None, (13,)), (None, (2, 1))])
def test_a_run_signs_the_decomposition_twice(monkeypatch, anchor_index, attempts):
    # The sign rule runs twice: once in svd_decompose, the only place the
    # decomposition is signed (against row 0's overlaps), and once in
    # compress, on the accepted anchor's overlaps, whether the anchor is
    # fixed, drawn, or redrawn. A rejected candidate is judged without
    # signs. The redraw case is the compress_sampled_redraw golden's input,
    # whose first draw is weak.
    signed = _record_calls(monkeypatch, pca_oracle, "_overlap_signs")
    formed = _record_calls(monkeypatch, SpectralModel, "overlaps")
    redraw = len(attempts) > 1
    data = DataMatrix(TRI_ROWS) if redraw else rank_k_dataset(16, 8, 3, seed=1)
    mode = MODE_SAMPLED if redraw else MODE_IDEAL
    run = run_compression(data, run_mode=mode, anchor_index=anchor_index, seed=0)
    assert run.anchor_attempts == attempts
    [((row_zero,), _), ((anchor,), _)] = signed
    v = np.linalg.svd(data.values, full_matrices=False)[2][: run.model.rank].T
    assert np.array_equal(row_zero, data.values[0] @ v)
    assert anchor is formed[-1][1]


@pytest.mark.parametrize(
    "source, run_mode, anchor_index, seed, attempts",
    [
        ("rank3", MODE_IDEAL, None, 3, (23,)),
        ("rank3", MODE_QUANTIZED, 4, 0, (4,)),
        ("rank3", MODE_SAMPLED, None, 3, (23,)),
        # The compress_sampled_redraw golden: the weak row 2, then row 1.
        ("tri", MODE_SAMPLED, None, 0, (2, 1)),
    ],
)
def test_each_draw_forms_its_overlaps_once_and_every_stage_reads_them(
    monkeypatch, source, run_mode, anchor_index, seed, attempts
):
    # The compress goldens' runs. One product per drawn row, at the kept
    # width, and nothing else forms one during the run: the profile takes
    # its coefficients from that vector, the reference its column signs,
    # project_anchor its matrix, and the report's anchor block the profile.
    # The CLI's success sweep then forms the accepted row's overlaps once
    # more, at the rank.
    formed = _record_calls(monkeypatch, SpectralModel, "overlaps")
    judged = []
    name = "estimate_anchor" if run_mode == MODE_SAMPLED else "exact_anchor_profile"
    judge = getattr(qpca_pipeline, name)
    monkeypatch.setattr(
        qpca_pipeline, name, lambda overlaps, *a, **k: judged.append(overlaps) or judge(overlaps, *a, **k)
    )
    signed = _record_calls(monkeypatch, pca_oracle, "_overlap_signs")
    projected = _record_calls(monkeypatch, sv_engine, "project_anchor")
    path = RANK3 if source == "rank3" else str(Path(RANK3).with_name("tri.csv"))
    report = cli.run(cli.RunConfig(input_path=path, mode=run_mode, anchor_index=anchor_index, seed=seed))
    d = len(report["anchor"]["beta"])
    assert report["anchor_attempts"] == list(attempts)
    assert [(args[2], args[3]) for args, _ in formed] == [(row, d) for row in attempts] + [
        (attempts[-1], report["spectrum"]["rank"])
    ]
    # Each candidate is judged from its own vector.
    vectors = [out for _, out in formed[: len(attempts)]]
    assert len(judged) == len(vectors) and all(a is b for a, b in zip(judged, vectors))
    overlaps = vectors[-1]
    assert report["anchor"]["beta"] == coefficients(overlaps).tolist()
    # svd_decompose signs against row 0; compress against the anchor.
    assert signed[-1][0][0] is overlaps and len(signed) == 2
    [((*_, stack), _)] = projected
    assert stack.shape == (1, d) and stack.base is overlaps
    # The sweep's first d coefficients are the anchor's, to round-off: a
    # rank-width product may round its kept entries in another last bit.
    sweep = formed[-1][1]
    np.testing.assert_allclose(np.abs(sweep[:d]), np.abs(overlaps), rtol=0.0, atol=1e-15)


def test_a_run_keeps_one_decomposition(monkeypatch):
    # The run's model is the decomposition every stage reads (the spectrum,
    # the anchor, the circuit and the projection), not a copy signed for the
    # anchor, while its reference follows the anchor's signs: the accepted
    # anchor's coefficients are at least BETA_FLOOR, so its own compressed
    # coordinates are all positive.
    checks = _record_calls(monkeypatch, sv_engine, "check_label_distinctness")
    circuits = _record_calls(monkeypatch, sv_engine, "project_anchor")
    projections = _record_calls(monkeypatch, pca_oracle, "project")
    run = run_compression(rank_k_dataset(16, 8, 3, seed=1), seed=0)
    read = [args[0] for args, _ in checks + circuits] + [args[1] for args, _ in projections]
    # The spectrum's checks and the circuit's, the circuit, the projection.
    assert len(read) == 4 and all(model is run.model for model in read)
    assert np.all(run.result.compressed[run.profile.anchor_index] > 0.0)


def test_select_anchor_peaks_far_below_the_eigenvectors():
    # Forming each drawn row's overlaps reads the 4096 x 256 eigenvectors
    # (8 MiB) without copying them; a signed copy of the model would
    # allocate at least that much.
    data = rank_k_plus_noise(256, 4096, 4, seed=3, noise_fraction=0.05)
    model = svd_decompose(data, 0.95)
    assert model.right_vectors.nbytes == 8 * 2**20
    tracemalloc.start()
    try:
        profile, _ = qpca_pipeline.select_anchor(data, model, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile.overlaps.shape == (model.selected_dim,)
    assert peak < 2**20


@pytest.mark.parametrize("beta_seed", [None, 4])
def test_the_anchor_profile_keeps_the_accepted_rows_overlaps(beta_seed):
    # Seed 0 draws a weak row first. The accepted row's profile carries the
    # overlaps its coefficients were taken from, bit for bit those the model
    # forms for that row, exact or estimated.
    data = _weak_row_dataset()
    model = svd_decompose(data, 0.95)
    profile, attempts = qpca_pipeline.select_anchor(data, model, np.random.default_rng(0), beta_seed=beta_seed)
    assert len(attempts) > 1 and attempts[-1] == profile.anchor_index
    want = model.overlaps(data, profile.anchor_index, model.selected_dim)
    assert np.array_equal(profile.overlaps, want)
    assert np.array_equal(profile.beta, coefficients(want))


def test_compress_refuses_overlaps_of_another_kept_dimension():
    run = run_compression(rank_k_dataset(16, 8, 3, seed=1), seed=0)
    profile = replace(run.profile, overlaps=run.profile.overlaps[:-1])
    with pytest.raises(InvalidInputError, match="anchor profile and model disagree on the kept dimension"):
        qpca_pipeline.compress(run.data, run.model, profile, run.cfg)


def test_an_out_of_range_anchor_is_refused_in_one_wording():
    # Compress (in run_compression) and the ledger task (in select_anchor)
    # refuse it through one check, in the same words.
    data = rank_k_dataset(16, 8, 3, seed=1)
    message = "anchor index 16 out of range for 16 rows"
    with pytest.raises(OutOfRangeError, match=message):
        run_compression(data, anchor_index=16, seed=0)
    model = svd_decompose(data, 0.95)
    for index in (-1, 16):
        with pytest.raises(OutOfRangeError, match=f"anchor index {index} out of range for 16 rows"):
            qpca_pipeline.select_anchor(data, model, np.random.default_rng(0), anchor_index=index)


@pytest.mark.parametrize(
    "entry",
    [
        lambda data: run_compression(data, seed=-1),
        lambda data: error_scaling_experiment(data, [0.0, 0.02], [3, -1]),
    ],
    ids=["run_compression", "error_scaling_experiment"],
)
def test_a_negative_seed_is_refused_as_the_cli_refuses_it(entry):
    # The parent handed the seed to numpy, which raised a bare ValueError.
    with pytest.raises(OutOfRangeError) as info:
        entry(cli.ingest_csv(RANK3))
    assert info.value.payload() == {"code": "OUT_OF_RANGE", "message": "seed must be >= 0, got -1"}


@pytest.mark.parametrize(
    "entry, name, value",
    [
        (lambda data: run_compression(data, subset=[1.7, 3]), "subset row", 1.7),
        (lambda data: run_compression(data, subset=[True, 3]), "subset row", True),
        (lambda data: run_compression(data, anchor_index=1.5), "anchor index", 1.5),
        (lambda data: run_compression(data, anchor_index=True), "anchor index", True),
        (lambda data: run_compression(data, seed=1.5), "seed", 1.5),
        (lambda data: error_scaling_experiment(data, [0.0], [1.5]), "seed", 1.5),
        (lambda data: run_compression(data, run_mode=MODE_SAMPLED, shots=1000.5), "shots", 1000.5),
        (lambda data: run_compression(data, run_mode=MODE_SAMPLED, shots=True), "shots", True),
        (lambda data: run_compression(data, run_mode=MODE_QUANTIZED, bits=6.5), "bits", 6.5),
        (lambda data: run_compression(data, run_mode=MODE_IDEAL, bits=6.5), "bits", 6.5),
        (lambda data: run_compression(data, run_mode=MODE_QUANTIZED, bits=True), "bits", True),
    ],
    ids=[
        "subset-float", "subset-bool", "anchor-float", "anchor-bool", "seed", "sweep-seed",
        "shots-float", "shots-bool", "bits-float-quantized", "bits-float-ideal", "bits-bool-quantized",
    ],
)
def test_an_integer_setting_refuses_a_bool_or_a_non_integer(entry, name, value):
    # The parent cast a subset to int (rows 1 and 3 ran), let numpy refuse
    # an anchor or a seed with its own error, and truncated a sweep seed.
    # It ran 1000.5 shots and reported them, ran True as one shot, raised a
    # bare TypeError from a 6.5-bit label shift, ran 6.5 bits in ideal
    # mode, and refused True bits as a degenerate spectrum.
    with pytest.raises(InvalidInputError) as info:
        entry(rank_k_dataset(16, 8, 3, seed=1))
    assert info.value.payload() == {"code": "INVALID_INPUT", "message": f"{name} must be an integer, got {value!r}"}


@pytest.mark.parametrize("run_mode", [MODE_IDEAL, MODE_SAMPLED])
@pytest.mark.parametrize("shots", [0, -5])
def test_a_shot_count_is_refused_before_the_decomposition(monkeypatch, run_mode, shots):
    # The parent ran shots=0 and shots=-5 in ideal mode, which the CLI
    # refuses in every mode, and refused them in sampled mode only inside
    # postselect, after the decomposition, the anchor draw and the circuit.
    calls = []
    decompose = pca_oracle.svd_decompose
    monkeypatch.setattr(pca_oracle, "svd_decompose", lambda *a, **k: calls.append(a) or decompose(*a, **k))
    with pytest.raises(OutOfRangeError) as info:
        run_compression(rank_k_dataset(16, 8, 3, seed=1), run_mode=run_mode, shots=shots)
    assert calls == []
    assert info.value.payload() == {"code": "OUT_OF_RANGE", "message": f"shots must be >= 1, got {shots}"}


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_the_sweep_refuses_a_non_finite_magnitude(bad):
    # The parent swept inf into a NaN slope with a RuntimeWarning, and
    # refused nan as a rotation constant.
    with pytest.raises(OutOfRangeError) as info:
        error_scaling_experiment(rank_k_dataset(16, 8, 3, seed=1), [0.0, bad], [1])
    assert info.value.payload() == {
        "code": "OUT_OF_RANGE",
        "message": f"perturbation magnitudes must be finite, got [0.0, {bad}]",
    }


@pytest.mark.parametrize(
    "source, run_mode, seeds",
    [
        ("rank3", MODE_IDEAL, [3, 4]),
        ("rank3", MODE_QUANTIZED, [3]),
        ("rank3", MODE_SAMPLED, [3, 5]),
        # Seeds 0 and 10 draw a weak row first.
        ("weak-rows", MODE_IDEAL, [0, 10, 1]),
    ],
)
def test_anchor_choice_and_compression_ignore_eigenvector_signs(source, run_mode, seeds):
    # A swap test sees |<v_j|a>|^2 alone, and the circuit uses each
    # eigenvector twice, so negating any columns of the model's eigenvectors
    # moves nothing but the signs of the anchor's overlaps, which flip with
    # them: the same draws and choice, the same beta and beta_hat bits, and
    # the same report, reference and state from compress.
    data = cli.ingest_csv(RANK3) if source == "rank3" else _weak_row_dataset()
    model = svd_decompose(data, 0.95)
    cfg = PhaseConfig(run_mode)
    sampled = run_mode == MODE_SAMPLED
    columns = model.right_vectors.shape[1]
    # Every nonempty set of columns to negate.
    patterns = [np.array([-1.0 if (m >> j) & 1 else 1.0 for j in range(columns)]) for m in range(1, 1 << columns)]

    def run(model, seed):
        profile, attempts = qpca_pipeline.select_anchor(
            data, model, np.random.default_rng(seed), beta_seed=seed + 1 if sampled else None
        )
        result = qpca_pipeline.compress(
            data, model, profile, cfg, postselect_shots=20_000 if sampled else None, rng_seed=seed + 2
        )
        return profile, attempts, result

    redrawn = []
    for seed in seeds:
        want_profile, want_attempts, want = run(model, seed)
        redrawn.append(len(want_attempts) > 1)
        for flips in patterns:
            profile, attempts, got = run(replace(model, right_vectors=model.right_vectors * flips), seed)
            assert attempts == want_attempts
            assert np.array_equal(profile.overlaps, want_profile.overlaps * flips[: model.selected_dim])
            assert np.array_equal(profile.beta, want_profile.beta)
            assert np.array_equal(profile.beta_hat, want_profile.beta_hat)
            assert profile.residual == want_profile.residual
            assert got.report == want.report
            assert np.array_equal(got.compressed, want.compressed)
            assert np.array_equal(got.state.amplitudes, want.state.amplitudes)
    assert redrawn == [source == "weak-rows" and seed in (0, 10) for seed in seeds]


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
    # The sweep's one kind alternates the sign of the perturbation by
    # component.
    beta = np.array([0.5, 0.5, 0.5])
    alt = perturb_beta(beta, 0.1)
    np.testing.assert_allclose(alt, [0.6, 0.4, 0.6], atol=1e-12)
    # Perturbations clip into the usable coefficient range.
    np.testing.assert_array_equal(perturb_beta(np.array([0.9, 0.0005]), 0.3), [1.0, qpca_pipeline.BETA_FLOOR])
    # A grid of magnitudes gives one row per magnitude, each the point's own.
    grid = np.array([0.0, 0.1, 0.3])
    rows = perturb_beta(beta, grid)
    assert rows.shape == (3, 3)
    for k, eps in enumerate(grid):
        assert np.array_equal(rows[k], perturb_beta(beta, float(eps)))


def _mean_rows(results):
    """Each grid point's infidelity and deviation averaged over several
    sweeps, as (infidelities, deviations)."""
    infid = np.mean([[row.mean_infidelity for row in r.rows] for r in results], axis=0)
    dev = np.mean([[row.mean_deviation for row in r.rows] for r in results], axis=0)
    return infid, dev


def test_scaling_zero_perturbation_is_exact():
    results = [error_scaling_experiment(rank_k_dataset(16, 8, 2, seed=100 + s), [0.0], [s]) for s in range(4)]
    infid, dev = _mean_rows(results)
    assert infid[0] <= 1e-9
    # The deviation is the norm of the part of the produced state orthogonal
    # to the reference; sqrt(1 - f^2) would turn a round-off infidelity of
    # ~1e-17 into ~1e-9.
    assert dev[0] <= 1e-12
    assert all(result.slope == 0.0 for result in results)


def test_scaling_uniform_relative_cancels():
    # A common relative factor on every estimate rescales numerator and
    # denominator identically, so the final state never moves. The sweep
    # perturbs by alternating signs only, so the factor is applied on the
    # test side, to each seed's anchor coefficients. The seeds are chosen so
    # no coefficient clips at 1.0, which would break uniformity.
    for s in range(4):
        infid = uniform_relative_infidelities(rank_k_dataset(16, 8, 2, seed=700 + s), s, [0.0, 0.05, 0.1])
        assert infid is not None and max(infid) <= 1e-9


def test_scaling_alternating_grows_with_eps():
    grid = [0.0, 0.02, 0.04, 0.08]
    results = [error_scaling_experiment(rank_k_dataset(16, 8, 2, seed=300 + s), grid, [s]) for s in range(6)]
    _, devs = _mean_rows(results)
    assert list(devs) == sorted(devs)
    assert devs[-1] > devs[1] > 0.0
    for result in results:
        assert result.slope > 0.0
        assert result.n_seeds == 1
        assert result.dims == (2,)
        assert result.model.selected_dim == 2
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
    # Only the coefficient rotation depends on eps: the dataset is decomposed
    # and loaded once, each seed's anchor is projected once, all in one
    # call, and no grid point runs a whole compress or its pairwise-overlap
    # audit.
    calls = _count_calls(
        monkeypatch,
        (pca_oracle, "svd_decompose"),
        (qram_store, "prepare_data_state"),
        (sv_engine, "project_anchor"),
        (qpca_pipeline, "compress"),
        (pca_oracle, "pairwise_overlap_report"),
    )
    data = rank_k_dataset(16, 8, 2, seed=300)
    result = error_scaling_experiment(data, [0.0, 0.02, 0.04, 0.08], [0, 1, 2, 3, 4])
    assert len(result.rows) == 4
    assert calls == {
        "svd_decompose": 1,
        "prepare_data_state": 1,
        "project_anchor": 1,
        "compress": 0,
        "pairwise_overlap_report": 0,
    }


def test_scaling_scores_its_grid_without_per_point_calls(monkeypatch):
    # Each pass's (seed, eps) stack is scored in array passes. np.vdot and
    # np.linalg.norm are counted by the module that calls them. The whole
    # run makes as many calls for 5 points as for one, and apart from the
    # norm check of each projected anchor's state (statevector), as many
    # for 5 seeds x 5 points as for one seed at one point.
    calls = Counter()
    for module, name in ((np, "vdot"), (np.linalg, "norm")):
        original = getattr(module, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name, sys._getframe(1).f_globals["__name__"]] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    data = rank_k_dataset(16, 8, 2, seed=300)
    seen = {}
    for key, seeds, grid in (
        ("1x1", [0], [0.0]),
        ("5x1", [0, 1, 2, 3, 4], [0.02]),
        ("5x5", [0, 1, 2, 3, 4], [0.0, 0.02, 0.04, 0.08, 0.3]),
    ):
        calls.clear()
        error_scaling_experiment(data, grid, seeds)
        seen[key] = dict(calls)

    def beside_the_norm_checks(counts):
        return {key: n for key, n in counts.items() if key[1] != "qpcasim.statevector"}

    assert beside_the_norm_checks(seen["1x1"]) == beside_the_norm_checks(seen["5x5"])
    assert seen["5x1"] == seen["5x5"]


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


@pytest.mark.parametrize("source", ["rank3", "rank4-64x16"])
def test_scaling_grid_matches_the_per_point_path(monkeypatch, source):
    # The sweep rotates and post-selects its whole eps grid as one array.
    # Each point's kept state, fidelity and deviation must be those of the
    # per-point path (apply_cr_beta, postselect, StateVector.fidelity) bit
    # for bit; with one seed the sweep's means are those values.
    data = cli.ingest_csv(RANK3) if source == "rank3" else rank_k_dataset(64, 16, 4, seed=5)
    grid = [0.0, 0.02, 0.04, 0.08, 0.3]
    choices = _record_calls(monkeypatch, qpca_pipeline, "select_anchor")
    batches = _record_calls(monkeypatch, sv_engine, "postselect_rotations")
    result = error_scaling_experiment(data, grid, [11])
    [((_, model, *_), (profile, _))] = choices
    [(([projected], [p_anchor], [beta_hat], _), ([kept], [probs]))] = batches
    reference = pca_oracle.expected_compressed_state(
        anchor_signed_projection(data, model, profile.overlaps)
    )
    assert kept.shape == (len(grid),) + projected.amplitudes.shape
    for k, eps in enumerate(grid):
        want = perturb_beta(profile.beta, eps)
        assert np.array_equal(beta_hat[k], want)
        post = sv_engine.postselect(sv_engine.apply_cr_beta(projected, want, float(want.min())), p_anchor)
        assert np.array_equal(kept[k], post.state.amplitudes)
        assert probs[k] == post.probability
        assert result.rows[k].mean_infidelity == max(1.0 - post.state.fidelity(reference), 0.0)
        psi, phi = reference.amplitudes, post.state.amplitudes
        assert result.rows[k].mean_deviation == float(np.linalg.norm(phi - np.vdot(psi, phi) * psi))


def _index_one_state(mass: float) -> StateVector:
    """Row 0 of a (row, index) state, with ``mass`` on index 1 and the rest
    on index 0."""
    amps = np.zeros((2, 4))
    amps[0, 0], amps[0, 1] = math.sqrt(1.0 - mass), math.sqrt(mass)
    return StateVector.from_amplitudes([("row", 1), ("index", 2)], amps)


def test_the_scaling_grid_norm_checks_only_the_kept_branches(monkeypatch):
    # The projected states were checked when they were built, so the grid
    # checks one stack: the kept branches it forms, (states, points).
    checked = []
    check = sv_engine.check_unit_norm

    def record(norms):
        checked.append(np.shape(norms))
        check(norms)

    monkeypatch.setattr(sv_engine, "check_unit_norm", record)
    states = [_index_one_state(0.5), _index_one_state(0.25)]
    beta_hat = np.array([[[0.5, 0.5], [1.0, 0.5], [0.5, 1.0]]] * 2)
    sv_engine.postselect_rotations(states, [1.0, 1.0], beta_hat, beta_hat.min(axis=-1))
    assert checked == [(2, 3)]


def test_scaling_grid_refuses_a_point_below_the_postselect_floor():
    # Index 1 holds mass 1e-7. The second point's sine there is 1e-3, so its
    # kept mass of 1e-13 falls below the floor: the grid refuses it as the
    # per-point path does, with the same message.
    state = _index_one_state(1e-7)
    beta_hat = np.array([[[0.5, 0.5], [1.0, 1e-3]]])
    _, probs = sv_engine.postselect_rotations([state], [1.0], beta_hat[:, :1], beta_hat[:, :1].min(axis=-1))
    assert probs[0, 0] == pytest.approx(1e-7) and probs[0, 0] > POSTSELECT_FLOOR
    with pytest.raises(VanishingSuccessError) as per_point:
        sv_engine.postselect(sv_engine.apply_cr_beta(state, beta_hat[0, 1], 1e-3), 1.0)
    with pytest.raises(VanishingSuccessError) as grid:
        sv_engine.postselect_rotations([state], [1.0], beta_hat, beta_hat.min(axis=-1))
    assert str(grid.value) == str(per_point.value)
    # Two offenders: (state 0, row 1) at 1e-13, then (state 1, row 0) at
    # 1e-15. The first in (state, row) order is refused, not the smallest.
    stack = np.array([[[0.5, 0.5], [1.0, 1e-3]], [[1.0, 1e-3], [0.5, 0.5]]])
    with pytest.raises(VanishingSuccessError) as grid:
        sv_engine.postselect_rotations([state, _index_one_state(1e-9)], [1.0, 1.0], stack, stack.min(axis=-1))
    assert str(grid.value) == str(per_point.value)


def _weak_row_dataset():
    # Eight extra rows along the first principal direction of a rank-3
    # dataset leave its principal directions in place, and have no overlap
    # with the other two: a draw of one of them is weak.
    x = rank_k_dataset(24, 8, 3, seed=5).values
    v1 = np.linalg.svd(x)[2][0]
    return DataMatrix(np.vstack([x, np.outer([0.3, -0.2, 0.25, -0.35, 0.15, 0.3, -0.1, 0.2], v1)]))


def _per_seed_sweep(data, seed, grid):
    """One seed of the scaling sweep on its own: a decomposition and an
    anchor of its own, a reference signed for that anchor, ``project_anchor`` of
    that anchor alone, then ``apply_cr_beta`` and ``postselect`` per grid
    point.
    Returns the anchor draws, the kept amplitudes, and the infidelity and
    deviation per point."""
    cfg = PhaseConfig(MODE_IDEAL, 6)
    model = svd_decompose(data, 0.95)
    profile, attempts = qpca_pipeline.select_anchor(data, model, np.random.default_rng(seed))
    overlaps = model.overlaps(data, profile.anchor_index, model.selected_dim)
    [projected], [p_anchor] = sv_engine.project_anchor(model, cfg, qram_store.prepare_data_state(data), overlaps[None])
    reference = pca_oracle.expected_compressed_state(anchor_signed_projection(data, model, overlaps))
    kept, infid, dev = [], [], []
    for eps in grid:
        beta_hat = perturb_beta(profile.beta, eps)
        post = sv_engine.postselect(sv_engine.apply_cr_beta(projected, beta_hat, float(beta_hat.min())), p_anchor)
        psi, phi = reference.amplitudes, post.state.amplitudes
        kept.append(phi)
        infid.append(max(1.0 - post.state.fidelity(reference), 0.0))
        dev.append(float(np.linalg.norm(phi - np.vdot(psi, phi) * psi)))
    return attempts, kept, infid, dev


@pytest.mark.parametrize("stack_rows, passes", [(qpca_pipeline.SWEEP_STACK_ROWS, 1), (64, 3)])
def test_stacked_seeds_match_the_per_seed_path(monkeypatch, stack_rows, passes):
    # The sweep runs all its seeds as one stack: one spectrum, one model
    # and one reference for them all, and their anchors
    # projected and rotated in one pass, or in passes of two seeds when a
    # pass may hold 64 of these 32-row states. Seeds 0, 10 and 13 draw a
    # weak row first. Every (seed, eps) point must be the per-seed path's
    # bit for bit, a one-seed sweep's rows must be that seed's points, and
    # each row the sum over the seeds, in order, over the seed count.
    monkeypatch.setattr(qpca_pipeline, "SWEEP_STACK_ROWS", stack_rows)
    data = _weak_row_dataset()
    grid, seeds = [0.0, 0.02, 0.04, 0.08, 0.3], [0, 1, 10, 13, 5]
    batches = _record_calls(monkeypatch, sv_engine, "postselect_rotations")
    result = error_scaling_experiment(data, grid, seeds)
    assert len(batches) == passes
    kept = np.concatenate([branches for _, (branches, _) in batches])
    sum_infid, sum_dev = [0.0] * len(grid), [0.0] * len(grid)
    for s, seed in enumerate(seeds):
        attempts, want_kept, want_infid, want_dev = _per_seed_sweep(data, seed, grid)
        assert (len(attempts) > 1) == (seed in (0, 10, 13))
        alone = error_scaling_experiment(data, grid, [seed])
        for k in range(len(grid)):
            assert np.array_equal(kept[s, k], want_kept[k])
            assert alone.rows[k].mean_infidelity == want_infid[k]
            assert alone.rows[k].mean_deviation == want_dev[k]
            sum_infid[k] += want_infid[k]
            sum_dev[k] += want_dev[k]
    for k, row in enumerate(result.rows):
        assert row.mean_infidelity == sum_infid[k] / len(seeds)
        assert row.mean_deviation == sum_dev[k] / len(seeds)


def test_a_corrupted_projection_is_refused(monkeypatch):
    # A stage output whose norm drifted must still raise, before the sweep
    # renormalises each kept branch, which would hide the drift: every state
    # is norm-checked when it is built, so the drifted states are refused
    # there.
    project = sv_engine.project_anchor

    def drifted(*args, **kwargs):
        states, probs = project(*args, **kwargs)
        return [StateVector(s.registers, s.amplitudes * 1.01) for s in states], probs

    monkeypatch.setattr(sv_engine, "project_anchor", drifted)
    data = rank_k_dataset(16, 8, 2, seed=300)
    with pytest.raises(NumericalFailureError, match="state norm drifted"):
        error_scaling_experiment(data, [0.0, 0.02], [0])
    with pytest.raises(NumericalFailureError, match="state norm drifted"):
        run_compression(data, seed=0)


@pytest.mark.parametrize("task", ["compress", "scaling", "ledger"])
def test_no_task_builds_a_tree(monkeypatch, task):
    # The states are loaded straight from the matrix; the tree belongs to
    # the reference circuit alone.
    calls = _count_calls(monkeypatch, (qram_store, "build_tree"), (qram_store, "prepare_data_state"))
    cli.run(cli.RunConfig(input_path=RANK3, task=task, seed=3))
    assert calls == {"build_tree": 0, "prepare_data_state": 0 if task == "ledger" else 1}


def test_production_states_are_real_and_complex_input_stays_complex(monkeypatch):
    # Real data gives real amplitudes at every production stage, in every
    # run mode and scope and in the scaling sweep: the data state (after a
    # subset's restriction too), the anchor overlaps, the projected, rotated
    # and kept states, and the reference.
    built = {}

    def record(module, name, states):
        seen = _record_calls(monkeypatch, module, name)
        built[name] = lambda: [amps for args, result in seen for amps in states(args, result)]

    record(qram_store, "prepare_data_state", lambda args, out: [out.amplitudes])
    record(
        sv_engine,
        "project_anchor",
        lambda args, out: [args[2].amplitudes, args[3]] + [s.amplitudes for s in out[0]],
    )
    record(sv_engine, "apply_cr_beta", lambda args, out: [out.amplitudes])
    record(sv_engine, "postselect", lambda args, out: [out.state.amplitudes])
    record(sv_engine, "postselect_rotations", lambda args, out: [out[0]])
    record(pca_oracle, "expected_compressed_state", lambda args, out: [out.amplitudes])
    data = rank_k_dataset(16, 8, 3, seed=5)
    for mode in (MODE_IDEAL, MODE_QUANTIZED, MODE_SAMPLED):
        run_compression(data, run_mode=mode, seed=3)
    run = run_compression(data, subset=[0, 3, 5, 9], seed=3)
    error_scaling_experiment(data, [0.0, 0.02], [0, 1])
    for name, arrays in built.items():
        assert arrays(), name
        assert {a.dtype for a in arrays()} == {np.dtype(np.float64)}, name

    # A complex data state stays complex through the same stages, and so do
    # the reference circuit's helpers on a real state.
    complex128 = np.dtype(np.complex128)
    state = qram_store.prepare_data_state(run.data)
    promoted = StateVector.from_amplitudes(state.layout(), state.amplitudes.astype(complex))
    overlaps = run.model.overlaps(run.data, run.profile.anchor_index, run.model.selected_dim)
    [projected], [p_anchor] = sv_engine.project_anchor(run.model, run.cfg, promoted, overlaps[None])
    rotated = sv_engine.apply_cr_beta(projected, run.profile.beta_hat, run.profile.rotation_constant)
    kept = sv_engine.postselect(rotated, float(p_anchor)).state
    assert promoted.amplitudes.dtype == projected.amplitudes.dtype == complex128
    assert rotated.amplitudes.dtype == kept.amplitudes.dtype == complex128
    assert StateVector.from_amplitudes([("q", 1)], [1, 0]).amplitudes.dtype == complex128
    assert StateVector.zero([("q", 1)]).amplitudes.dtype == complex128
    assert state.append_register("q", 1).amplitudes.dtype == complex128
    feature_dim = state.register("feature").dim
    assert state.apply_register_unitary("feature", np.eye(feature_dim)).amplitudes.dtype == complex128

"""Acceptance gate: eleven end-to-end checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Each test collects its failures into a list and prints a single
"criterion N: PASS/FAIL" summary before asserting.
"""

import json
import math
import time

import numpy as np

from qpcasim import cli
from qpcasim.datasets import (
    dataset_from_spectrum,
    gaussian_class_pair,
    linear_trend_dataset,
    rank_k_dataset,
    rank_k_plus_noise,
    write_matrix_csv,
    write_values_file,
)
from qpcasim.pca_oracle import expected_compressed_state, project, svd_decompose
from qpcasim.qml_apps import (
    lssvm_decision_values,
    lssvm_train,
    qlr_predict,
    qlr_state_demo,
    qsvm_state_demo,
)
from qpcasim.qpca_pipeline import (
    MODE_IDEAL,
    MODE_SAMPLED,
    error_scaling_experiment,
    ledger_predict,
    run_compression,
    select_anchor,
)
from qpcasim.qram_store import prepare_data_state
from qpcasim.statevector import StateVector
from qpcasim.sv_engine import (
    PhaseConfig,
    apply_cu_lambda,
    postselect_rotations,
    project_anchor,
    swap_test,
)

from oracles import reference_token_circuit


def _verdict(number: int, title: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number:2d} [{title}]: {status}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


# Shapes for the exactness sweep: mostly small, two at the size cap.
EXACTNESS_SHAPES = [
    (16, 8, 2), (16, 8, 3), (16, 8, 4), (32, 16, 2), (32, 16, 3),
    (32, 16, 4), (24, 12, 3), (24, 12, 4), (16, 8, 2), (16, 8, 3),
    (32, 16, 4), (24, 12, 2), (16, 8, 4), (32, 16, 3), (16, 8, 2),
    (24, 12, 3), (16, 8, 3), (32, 16, 2), (64, 32, 4), (64, 32, 3),
]


def test_criterion_01_compression_exactness():
    failures = []
    started = time.perf_counter()
    for k, (n_rows, n_cols, rank) in enumerate(EXACTNESS_SHAPES):
        data = rank_k_dataset(n_rows, n_cols, rank, seed=40 + k)
        run = run_compression(data, threshold=0.95, seed=k)
        fid = run.result.report.fidelity
        if fid < 1.0 - 1e-9:
            failures.append(f"dataset {k} ({n_rows}x{n_cols} rank {rank}) fidelity {fid}")
        if run.result.report.selected_dim != rank:
            failures.append(f"dataset {k} kept {run.result.report.selected_dim} != {rank}")
    elapsed = time.perf_counter() - started
    if elapsed > 10.0:
        failures.append(f"sweep took {elapsed:.1f}s (limit 10s)")
    _verdict(1, "compression exactness", failures)


def test_criterion_02_success_probability():
    failures = []
    for k, (n_rows, n_cols, rank) in enumerate(EXACTNESS_SHAPES[:8]):
        data = rank_k_dataset(n_rows, n_cols, rank, seed=40 + k)
        run = run_compression(data, threshold=0.95, seed=k)
        report = run.result.report
        y = run.result.compressed
        closed_form = (
            report.rotation_constant**2 * np.linalg.norm(y) ** 2 / data.frobenius_norm**2
        )
        if abs(report.success_probability - closed_form) > 1e-12:
            failures.append(
                f"dataset {k}: p {report.success_probability} vs closed form {closed_form}"
            )
        # Exact rank-d: the norms cancel, leaving C^2 on the nose.
        if abs(report.success_probability - report.rotation_constant**2) > 1e-12:
            failures.append(f"dataset {k}: p deviates from C^2")
    sampled = run_compression(
        rank_k_dataset(16, 8, 2, seed=44),
        run_mode=MODE_SAMPLED,
        shots=100_000,
        seed=4,
    ).result.report
    p = sampled.success_probability
    sigma = math.sqrt(p * (1.0 - p) / 100_000)
    if abs(sampled.sampled_success_probability - p) > 3.0 * sigma:
        failures.append(
            f"sampled frequency {sampled.sampled_success_probability} outside 3 sigma of {p}"
        )
    _verdict(2, "success probability", failures)


def test_criterion_03_dimension_selection():
    failures = []
    data = dataset_from_spectrum([0.90, 0.08, 0.02], n_rows=12, seed=2)
    model = svd_decompose(data, 0.95)
    if model.selected_dim != 2:
        failures.append(f"stated spectrum selected {model.selected_dim}, wanted 2")
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        k = int(rng.integers(1, 6))
        lam = np.sort(rng.dirichlet(np.ones(k)))[::-1]
        theta = float(rng.uniform(0.05, 1.0))
        spectra = dataset_from_spectrum(lam, n_rows=10, seed=seed, n_cols=max(k, 3))
        m = svd_decompose(spectra, theta)
        cum = m.cumulative_variance()
        d = m.selected_dim
        if cum[d - 1] < theta - 1e-12:
            failures.append(f"seed {seed}: captured {cum[d - 1]} < theta {theta}")
        if d > 1 and cum[d - 2] >= theta:
            failures.append(f"seed {seed}: dimension {d} is not minimal")
    _verdict(3, "dimension selection", failures)


def test_criterion_04_token_circuit_equivalence():
    failures = []
    cases = 0
    mismatches = 0
    for eigen_qubits in range(1, 5):
        e_dim = 1 << eigen_qubits
        for dim in range(1, min(4, e_dim - 1) + 1):
            index_qubits = max(int(math.ceil(math.log2(dim + 1))), 1)
            i_dim = 1 << index_qubits
            # Two label assignments per size: the densest packing and a
            # spread across the top of the register.
            assignments = [[(j + 1, j + 1) for j in range(dim)]]
            spread = [(e_dim - 1 - 2 * j, j + 1) for j in range(dim)]
            if all(lab >= 1 for lab, _ in spread):
                assignments.append(spread)
            for labels in assignments:
                layout = [("eigen", eigen_qubits), ("index", index_qubits)]
                for e in range(e_dim):
                    for i in range(i_dim):
                        amps = np.zeros((e_dim, i_dim))
                        amps[e, i] = 1.0
                        state = StateVector.from_amplitudes(layout, amps)
                        got = apply_cu_lambda(state, labels, strict=False)
                        vec = np.zeros(e_dim * i_dim)
                        vec[e * i_dim + i] = 1.0
                        want = reference_token_circuit(vec, eigen_qubits, index_qubits, labels)
                        cases += 1
                        if not np.allclose(got.amplitudes.reshape(-1).real, want, atol=1e-12):
                            mismatches += 1
    if cases > 4096:
        failures.append(f"case count {cases} exceeded the stated bound")
    if mismatches:
        failures.append(f"{mismatches} of {cases} basis inputs disagree with the gate circuit")
    _verdict(4, "token circuit equivalence", failures)


def test_criterion_05_swap_test_calibration():
    failures = []
    shots = 1_000_000
    zero = StateVector.from_amplitudes([("q", 1)], np.array([1.0, 0.0]))
    one = StateVector.from_amplitudes([("q", 1)], np.array([0.0, 1.0]))
    tilted = StateVector.from_amplitudes([("q", 1)], np.array([0.5, math.sqrt(3.0) / 2.0]))
    cases = [("overlap 0", zero, one, 0.0), ("overlap 0.25", zero, tilted, 0.25),
             ("overlap 1", zero, zero, 1.0)]
    for name, a, b, truth in cases:
        raws = np.array(
            [swap_test(abs(a.inner(b)) ** 2, shots, seed).overlap_sq_raw for seed in range(200)]
        )
        p0 = 0.5 * (1.0 + truth)
        stderr = 2.0 * math.sqrt(p0 * (1.0 - p0) / shots)
        combined = stderr / math.sqrt(200)
        if abs(raws.mean() - truth) > max(3.0 * combined, 1e-15):
            failures.append(f"{name}: mean {raws.mean()} biased away from {truth}")
        if stderr > 0.0:
            empirical = raws.std(ddof=1)
            if abs(empirical - stderr) > 0.1 * stderr:
                failures.append(
                    f"{name}: empirical std {empirical} vs formula {stderr}"
                )
        elif raws.std(ddof=1) != 0.0:
            failures.append(f"{name}: deterministic case shows spread")
    _verdict(5, "swap test calibration", failures)


def anchor_signed_projection(data, model, overlaps):
    """The projection onto ``model``'s kept directions with each column
    negated where the anchor's kept ``overlaps`` with ``model`` are
    negative: the classical reference for that anchor, as ``compress``
    forms it."""
    return project(data, model) * np.where(overlaps < 0.0, -1.0, 1.0)


def uniform_relative_infidelities(data, seed, eps_grid):
    """Infidelity against the classical reference when every exact anchor
    coefficient beta, from the scaling sweep's seeded anchor draw, is
    scaled by (1 + eps), one value per eps. The rotations run as one
    ``postselect_rotations`` stack of beta (1 + eps) against the projection
    that beta's own anchor left. Returns None if a coefficient would clip
    at 1."""
    cfg = PhaseConfig(MODE_IDEAL)
    model = svd_decompose(data, 0.95)
    profile, _ = select_anchor(data, model, np.random.default_rng(seed))
    beta_hat = np.array([profile.beta * (1.0 + eps) for eps in eps_grid])
    if beta_hat.max() >= 1.0:
        return None
    [projected], p_anchor = project_anchor(model, cfg, prepare_data_state(data), profile.overlaps[None])
    [kept], _ = postselect_rotations([projected], p_anchor, beta_hat[None], beta_hat.min(axis=-1)[None])
    psi = expected_compressed_state(anchor_signed_projection(data, model, profile.overlaps)).amplitudes
    return [max(1.0 - min(abs(complex(np.vdot(phi, psi))), 1.0), 0.0) for phi in kept]


def test_criterion_06_beta_error_scaling():
    failures = []
    # Cancellation case: one shared relative factor moves nothing. Seeds are
    # chosen so no coefficient clips at the upper bound.
    uniform_grid = [0.0, 0.05, 0.1]
    uniform_sum = np.zeros(len(uniform_grid))
    for s in range(12):
        infid = uniform_relative_infidelities(rank_k_dataset(16, 8, 4, seed=700 + s), s, uniform_grid)
        if infid is None:
            failures.append(f"uniform dataset {s}: a coefficient clips at 1")
            continue
        uniform_sum += infid
    for eps, total in zip(uniform_grid, uniform_sum):
        if total / 12 > 1e-9:
            failures.append(f"uniform eps {eps}: infidelity {total / 12}")
    # Sign-alternating perturbations: deviation grows at most linearly, so
    # successive secant slopes must not steepen by more than 1.5x.
    # Each of the 50 datasets is swept with one seed, and the deviations are
    # averaged over the datasets here.
    grid = [0.02, 0.04, 0.08]
    alt = [error_scaling_experiment(rank_k_dataset(16, 8, 4, seed=400 + s), grid, [s]) for s in range(50)]
    devs = [sum(result.rows[k].mean_deviation for result in alt) / 50 for k in range(len(grid))]
    slopes = [devs[0] / grid[0]]
    for k in range(1, len(grid)):
        slopes.append((devs[k] - devs[k - 1]) / (grid[k] - grid[k - 1]))
    for k in range(1, len(slopes)):
        ratio = slopes[k] / slopes[k - 1]
        if ratio > 1.5:
            failures.append(f"slope ratio {ratio:.3f} > 1.5 at grid step {k}")
    if any(d <= 0.0 for d in devs):
        failures.append("alternating perturbation produced no deviation")
    _verdict(6, "coefficient error scaling", failures)


def test_criterion_07_resource_ledger():
    failures = []

    def close(a, b, what):
        if not math.isclose(a, b, rel_tol=1e-12):
            failures.append(f"{what}: {a} vs {b}")

    grid = (0.25, 0.125, 0.0625)
    for eps_lambda in grid:
        for eps_beta in grid:
            base = ledger_predict(32, 16, 2, eps_lambda, eps_beta, 0.25)
            finer = ledger_predict(32, 16, 2, eps_lambda / 2.0, eps_beta, 0.25)
            close(finer.label_write_cost, 8.0 * base.label_write_cost,
                  f"label write x8 at ({eps_lambda},{eps_beta})")
            close(finer.label_uncompute_cost, 8.0 * base.label_uncompute_cost,
                  f"label uncompute x8 at ({eps_lambda},{eps_beta})")
            sharper = ledger_predict(32, 16, 2, eps_lambda, eps_beta / 2.0, 0.25)
            close(sharper.anchor_swap_tests, 4.0 * base.anchor_swap_tests,
                  f"anchor tests x4 at ({eps_lambda},{eps_beta})")
            wider = ledger_predict(32, 16, 4, eps_lambda, eps_beta, 0.25)
            reg = math.log2(5.0) / math.log2(3.0)
            close(wider.index_write_gates, 2.0 * reg * base.index_write_gates,
                  f"index write linear-in-d at ({eps_lambda},{eps_beta})")
            close(wider.rotation_gates, 2.0 * reg * base.rotation_gates,
                  f"rotations linear-in-d at ({eps_lambda},{eps_beta})")
    _verdict(7, "resource ledger scalings", failures)


def test_criterion_08_pairwise_overlap():
    failures = []
    for seed in range(5):
        data = rank_k_dataset(16, 8, 3, seed=60 + seed)
        run = run_compression(data, seed=seed)
        dev = run.result.report.overlap.max_deviation
        if dev > 1e-9:
            failures.append(f"exact rank-3 seed {60 + seed}: max deviation {dev}")
    noisy = rank_k_plus_noise(16, 8, 2, seed=26, noise_fraction=0.01)
    model = svd_decompose(noisy, 0.95)
    from qpcasim.pca_oracle import pairwise_overlap_report

    report = pairwise_overlap_report(noisy, project(noisy, model), tolerance=1e-3)
    residual = 1.0 - model.variance_captured
    if report.max_deviation > 10.0 * residual:
        failures.append(
            f"noisy fixture: max deviation {report.max_deviation} > 10x residual {residual}"
        )
    # Frozen regression threshold, recorded from the oracle run (2.25e-4).
    if report.max_deviation > 3.0e-4:
        failures.append(f"noisy fixture: deviation {report.max_deviation} drifted past 3e-4")
    _verdict(8, "pairwise overlap preservation", failures)


def test_criterion_09_qsvm_adaptation():
    failures = []
    data, labels = gaussian_class_pair(seed=29)
    model = svd_decompose(data, 0.95)
    compressed = project(data, model)

    full = lssvm_train(data.values, labels, 1.0)
    comp = lssvm_train(compressed, labels, 1.0)
    if full.residual > 1e-8 or comp.residual > 1e-8:
        failures.append(f"saddle residuals {full.residual}, {comp.residual}")

    # A query classifies as the sign of its decision value; an exact zero
    # classifies as +1.
    decisions = lssvm_decision_values(full, data.values)
    acc_full = np.mean(np.where(decisions >= 0.0, 1, -1) == labels)
    acc_comp = np.mean(np.where(lssvm_decision_values(comp, compressed) >= 0.0, 1, -1) == labels)
    if acc_full != acc_comp:
        failures.append(f"training accuracy {acc_comp} != full-space {acc_full}")

    checked = 0
    demo = qsvm_state_demo(full, data.values, data.values)
    for decision, agrees in zip(decisions, demo.agrees):
        if abs(decision) <= 1e-9:
            continue  # marginal query, sign undefined at working precision
        checked += 1
        if not agrees:
            failures.append(f"demo sign disagrees at decision value {decision}")
    if checked == 0:
        failures.append("no non-marginal queries to check")
    _verdict(9, "classifier adaptation", failures)


def test_criterion_10_qlr_adaptation():
    failures = []
    data, targets, _ = linear_trend_dataset(12, 6, 2, seed=11)
    model = svd_decompose(data, 0.95)
    compressed = project(data, model)
    basis = model.right_vectors[:, : model.selected_dim]
    pred = qlr_predict(data.values, targets, data.values)
    comp = qlr_predict(compressed, targets, data.values @ basis)
    for i in range(data.n_rows):
        if abs(pred.value[i] - targets[i]) > 1e-8:
            failures.append(f"row {i}: original-space prediction off by "
                            f"{abs(pred.value[i] - targets[i])}")
        if abs(pred.value[i] - pred.value_svd[i]) > 1e-8:
            failures.append(f"row {i}: spectral and normal-equation routes disagree")
        if abs(comp.value[i] - targets[i]) > 1e-8:
            failures.append(f"row {i}: compressed-space prediction off by "
                            f"{abs(comp.value[i] - targets[i])}")
    demo = qlr_state_demo(pred, targets, data.values, 0)
    if abs(demo.prediction - demo.classical_value) > 1e-8:
        failures.append(
            f"state demo {demo.prediction} vs classical {demo.classical_value}"
        )
    _verdict(10, "regression adaptation", failures)


def test_criterion_11_determinism(tmp_path):
    failures = []
    csv_path = str(tmp_path / "data.csv")
    write_matrix_csv(csv_path, rank_k_dataset(16, 8, 2, seed=7).values)
    blob_path = str(tmp_path / "blobs.csv")
    label_path = str(tmp_path / "labels.txt")
    blobs, labels = gaussian_class_pair(seed=29)
    write_matrix_csv(blob_path, blobs.values)
    write_values_file(label_path, labels)

    runs = {
        "compress sampled": ["--input", csv_path, "--mode", "sampled", "--seed", "9"],
        "scaling": ["--input", csv_path, "--task", "scaling", "--seed", "3"],
        "qsvm sampled": ["--input", blob_path, "--labels", label_path, "--task",
                          "qsvm", "--mode", "sampled", "--shots", "20000", "--seed", "6"],
    }
    for name, argv in runs.items():
        out = str(tmp_path / "report.json")
        blobs_bytes = []
        for _ in range(2):
            code = cli.main(argv + ["--out", out])
            if code != 0:
                failures.append(f"{name}: exit code {code}")
                break
            with open(out, "rb") as fh:
                blobs_bytes.append(fh.read())
        if len(blobs_bytes) == 2 and blobs_bytes[0] != blobs_bytes[1]:
            failures.append(f"{name}: repeated run changed the report bytes")
        if blobs_bytes:
            json.loads(blobs_bytes[0].decode("utf-8"))
    _verdict(11, "report determinism", failures)

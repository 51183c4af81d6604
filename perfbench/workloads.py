"""Benchmark workloads and the closed-form correctness gate.

A workload is one in-process ``qpcasim.cli.run(RunConfig)`` task followed by
``qpcasim.cli.render_report``, on a CSV that ``write_inputs`` generates from
the benchmark seed with ``qpcasim.datasets``. Every workload runs at
theta=0.95 with the CLI defaults; the seed picks both the generated data and
the task's own ``--seed``.

``check_report`` audits a finished report against closed-form oracles that
the benchmark computes itself, so a speed-up that changes the answer fails
the run instead of being counted.

qpcasim is imported inside the functions that need it, so ``run.py`` can
import this module before it has checked that the checkout holds the
program's sources.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

RANK = 4
THETA = 0.95
EXACT_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    mode: str
    shape: tuple[int, int]  # rows x columns of the generated data matrix


WORKLOADS = {
    w.name: w
    for w in (
        # Shapes are sized so that one run takes at most about 4 s on one
        # core, and a timed run holds at least four warm runs.
        Workload("wide-ideal", "compress", "ideal", (256, 64)),
        Workload("tall-sampled", "compress", "sampled", (1024, 8)),
        Workload("scaling-sweep", "scaling", "ideal", (64, 16)),
        # Two Gaussian classes of 200 points each in 16 dimensions: the
        # control that never touches qram_store or sv_engine. Its cost grows
        # as rows squared; at 400 rows one run takes about 0.3-0.6 s.
        Workload("qsvm-demo", "qsvm", "ideal", (400, 16)),
    )
}


@dataclass(frozen=True)
class Inputs:
    data: np.ndarray
    labels: np.ndarray | None


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate the workload's data (and labels, for qsvm) from the seed."""
    from qpcasim import datasets

    n_rows, n_cols = workload.shape
    if workload.task == "qsvm":
        data, labels = datasets.gaussian_class_pair(
            n_per_class=n_rows // 2, n_cols=n_cols, seed=seed
        )
        return Inputs(data.values, labels)
    return Inputs(datasets.rank_k_dataset(n_rows, n_cols, RANK, seed).values, None)


def strongest_anchor(data: np.ndarray) -> int:
    """Row whose smallest overlap with the top-RANK principal directions is
    largest, from a numpy SVD of the data."""
    _, _, vt = np.linalg.svd(data, full_matrices=False)
    units = data / np.linalg.norm(data, axis=1, keepdims=True)
    return int(np.argmax(np.abs(units @ vt[:RANK].T).min(axis=1)))


def write_inputs(workload: Workload, inputs: Inputs, seed: int, directory: str, stem: str):
    """Write the inputs as CSV files and return the matching ``RunConfig``.

    Sampled compression gets a fixed anchor (the CLI's ``--anchor``): a weak
    seeded draw there repeats the whole spectrum extraction, so which seeds
    happen to redraw would set the run-to-run spread of the workload.
    """
    from qpcasim import cli, datasets

    input_path = os.path.join(directory, stem + ".csv")
    datasets.write_matrix_csv(input_path, inputs.data)
    labels_path = None
    if inputs.labels is not None:
        labels_path = os.path.join(directory, stem + ".labels")
        datasets.write_values_file(labels_path, inputs.labels)
    return cli.RunConfig(
        input_path=input_path,
        labels_path=labels_path,
        theta=THETA,
        mode=workload.mode,
        seed=seed,
        task=workload.task,
        anchor_index=strongest_anchor(inputs.data) if workload.mode == "sampled" else None,
    )


def input_paths(config) -> list[str]:
    return [p for p in (config.input_path, config.labels_path) if p is not None]


def exactness(workload: Workload, report: dict, inputs: Inputs) -> tuple[str, float, float]:
    """The workload's exactness figure as the report states it, and that
    figure over the value the closed-form oracle predicts for it.

    Returns (figure name, figure, ratio). The figure is the fidelity for
    compress, 1 - infidelity of the eps=0 row for scaling, and the fraction
    of demo queries whose sign agrees with the classical decision for qsvm.
    The oracle predicts 1 everywhere except sampled compression, whose
    fidelity is set by the estimated anchor coefficients; the ratio makes
    that workload's figure independent of how well one seed estimated."""
    if workload.task == "compress":
        name, figure = "fidelity", float(report["compression"]["fidelity"])
    elif workload.task == "scaling":
        name, figure = "fidelity", 1.0 - float(_scaling_rows(report)[0]["mean_infidelity"])
    else:
        demo = report["qsvm"]["demo"]
        name, figure = "sign_agreement", demo["sign_agreements"] / demo["queries"]
    predicted = 1.0
    if workload.task == "compress" and workload.mode == "sampled":
        anchor = report["anchor"]
        predicted, _ = projected_fidelity(inputs.data, anchor["anchor_index"], np.asarray(anchor["beta_hat"]))
    return name, figure, figure / predicted


def _scaling_rows(report: dict) -> list[dict]:
    return sorted(report["scaling"]["rows"], key=lambda r: r["eps_beta"])


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(b), 1e-300)


def projected_fidelity(data: np.ndarray, anchor_index: int, beta_hat: np.ndarray) -> tuple[float, np.ndarray]:
    """Fidelity the pipeline must reach with estimated coefficients, and the
    exact anchor coefficients, from a numpy SVD of the data.

    Projecting onto the top-d right singular vectors gives Y = X V_d. The
    rotation scales component j by beta_j / beta_hat_j, so the post-selected
    state is proportional to Y diag(r) with r = beta / beta_hat, and its
    overlap with the ideal state Y / |Y| is sum(Y^2 r) / (|Y| |Y diag(r)|).
    """
    d = beta_hat.size
    _, _, vt = np.linalg.svd(data, full_matrices=False)
    y = data @ vt[:d].T
    anchor = data[anchor_index] / np.linalg.norm(data[anchor_index])
    beta = np.abs(vt[:d] @ anchor)
    r = beta / beta_hat
    overlap = float(np.sum(y**2 * r)) / (float(np.linalg.norm(y)) * float(np.linalg.norm(y * r)))
    return min(abs(overlap), 1.0), beta


def check_report(workload: Workload, report: dict, inputs: Inputs) -> list[str]:
    """Return every way the report disagrees with the closed-form oracles;
    an empty list means the report passes."""
    problems: list[str] = []
    if workload.task == "compress":
        comp = report["compression"]
        if comp["selected_dim"] != RANK:
            problems.append(f"selected_dim {comp['selected_dim']} != {RANK}")
        p, p_id = comp["success_probability"], comp["success_probability_identity"]
        if not _close(p, p_id, EXACT_TOL):
            problems.append(f"success_probability {p!r} != identity {p_id!r}")
        if workload.mode == "ideal":
            if not comp["fidelity"] >= 1.0 - EXACT_TOL:
                problems.append(f"ideal fidelity {comp['fidelity']!r} < 1 - {EXACT_TOL}")
        else:
            anchor = report["anchor"]
            beta_hat = np.asarray(anchor["beta_hat"], dtype=np.float64)
            if beta_hat.size != comp["selected_dim"]:
                problems.append(f"{beta_hat.size} beta_hat entries for dim {comp['selected_dim']}")
                return problems
            expected, beta = projected_fidelity(inputs.data, anchor["anchor_index"], beta_hat)
            if not np.allclose(anchor["beta"], beta, rtol=0.0, atol=EXACT_TOL):
                problems.append(f"anchor beta {anchor['beta']} != SVD overlaps {beta.tolist()}")
            if not abs(comp["fidelity"] - expected) <= EXACT_TOL:
                problems.append(f"fidelity {comp['fidelity']!r} != projected {expected!r}")
    elif workload.task == "scaling":
        rows = _scaling_rows(report)
        if rows[0]["eps_beta"] != 0.0 or not rows[0]["mean_infidelity"] <= EXACT_TOL:
            problems.append(f"eps=0 row is not exact: {rows[0]}")
        devs = [r["mean_deviation"] for r in rows]
        if any(b < a for a, b in zip(devs, devs[1:])):
            problems.append(f"mean_deviation decreases as eps grows: {devs}")
    elif workload.task == "qsvm":
        qsvm = report["qsvm"]
        demo = qsvm["demo"]
        if demo["sign_agreements"] != demo["queries"]:
            problems.append(f"{demo['sign_agreements']}/{demo['queries']} demo signs agree")
        if qsvm["accuracy_match"] is not True:
            problems.append("compressed training accuracy differs from the full one")
    else:
        problems.append(f"no correctness check for task {workload.task!r}")
    return problems

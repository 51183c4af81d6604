"""Self-test of the benchmark's correctness gate, at tiny shapes.

Runs every workload's task in-process on a small matrix, checks that the
clean report passes ``workloads.check_report``, and that each deliberately
corrupted copy of it is rejected. From the repository root:

    python3 -m pytest -q perfbench/test_gate.py
"""

from __future__ import annotations

import copy
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

from qpcasim import cli  # noqa: E402

import workloads  # noqa: E402

SEED = 7
TINY_SHAPES = {
    "wide-ideal": (16, 8),
    "tall-sampled": (64, 8),
    "scaling-sweep": (16, 8),
    "qsvm-demo": (40, 4),
}


@pytest.fixture(scope="module")
def runs():
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out = {}
    for name, shape in TINY_SHAPES.items():
        workload = replace(workloads.WORKLOADS[name], shape=shape)
        inputs = workloads.make_inputs(workload, SEED)
        config = workloads.write_inputs(workload, inputs, SEED, str(out_dir), f"selftest-{name}")
        try:
            out[name] = (workload, cli.run(config), inputs)
        finally:
            for path in workloads.input_paths(config):
                os.remove(path)
    return out


@pytest.mark.parametrize("name", TINY_SHAPES)
def test_clean_report_passes(runs, name):
    workload, report, inputs = runs[name]
    assert workloads.check_report(workload, report, inputs) == []


def _shift(section: dict, key: str, delta: float) -> None:
    section[key] += delta


CORRUPTIONS = {
    "wide-ideal perturbed fidelity": ("wide-ideal", lambda r: _shift(r["compression"], "fidelity", -1e-6)),
    "wide-ideal wrong selected_dim": ("wide-ideal", lambda r: _shift(r["compression"], "selected_dim", -1)),
    "wide-ideal success probability off its identity": (
        "wide-ideal",
        lambda r: _shift(r["compression"], "success_probability", 1e-6 * r["compression"]["success_probability"]),
    ),
    "tall-sampled perturbed fidelity": ("tall-sampled", lambda r: _shift(r["compression"], "fidelity", 1e-6)),
    "tall-sampled wrong anchor beta": ("tall-sampled", lambda r: _shift(r["anchor"]["beta"], 0, 1e-6)),
    "tall-sampled wrong selected_dim": ("tall-sampled", lambda r: _shift(r["compression"], "selected_dim", 1)),
    "scaling-sweep inexact eps=0 row": ("scaling-sweep", lambda r: _shift(r["scaling"]["rows"][0], "mean_infidelity", 1e-6)),
    "scaling-sweep deviation falls as eps grows": (
        "scaling-sweep",
        lambda r: r["scaling"]["rows"][-1].update(mean_deviation=0.0),
    ),
    "qsvm-demo sign disagreement": ("qsvm-demo", lambda r: _shift(r["qsvm"]["demo"], "sign_agreements", -1)),
    "qsvm-demo accuracy mismatch": ("qsvm-demo", lambda r: r["qsvm"].update(accuracy_match=False)),
}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_corrupted_report_is_rejected(runs, corruption):
    name, corrupt = CORRUPTIONS[corruption]
    workload, report, inputs = runs[name]
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert workloads.check_report(workload, bad, inputs), corruption

"""One benchmark child process: set up one workload, run it, report.

``run.py`` starts a fresh child per sample so that peak RSS and set-up time
belong to one workload. Set-up (interpreter start, ``import qpcasim``, data
generation and the CSV write) ends at the first timed call, whose
``time.monotonic()`` stamp the child reports for the parent to subtract
from its spawn time. With ``--setup-only`` the child stops there, so the
parent can take set-up samples more often than whole runs.

Untraced (``--trace 0``), the child makes one cold run, reads its peak RSS,
then alternates a pass of the reference kernel (``refkernel.py``) and a warm
run until the ``--until`` deadline (at least one warm run), ending on a
kernel pass, so every warm run has a kernel pass on each side. A set-up-only
child makes one kernel pass right after set-up. Traced (``--trace 1``),
it makes one warm-up run, then alternates an untraced run and a traced run
until ``--seconds`` have passed, so each traced run has an untraced twin to
measure the overhead against, and writes every span to ``.perfbench_out/``.

The last line of standard output is one JSON object. To debug one
workload by hand, from the repository root:

    python3 perfbench/child.py --workload wide-ideal --seed 1 --trace 1 --seconds 1
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# Run on one CPU: on a shared host each vCPU slows on its own, so the
# reference kernel only tracks the workload if both run on the same one.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import qpcasim  # noqa: E402
from qpcasim import cli, errors  # noqa: E402

import refkernel  # noqa: E402
import workloads  # noqa: E402


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def run_once(workload, config, inputs) -> tuple[dict, dict | None]:
    """Time ``cli.run`` plus ``render_report`` and check the report.

    Returns the sample and the report (None when the run raised)."""
    start = time.perf_counter()
    try:
        report = cli.run(config)
        cli.render_report(report)
    except errors.QpcaError as exc:
        wall = time.perf_counter() - start
        return {"wall_s": wall, "problems": [f"{exc.code}: {exc}"], "figure": None, "exactness": None}, None
    wall = time.perf_counter() - start
    name, figure, ratio = workloads.exactness(workload, report, inputs)
    sample = {
        "wall_s": wall,
        "problems": workloads.check_report(workload, report, inputs),
        "figure": [name, figure],
        "exactness": ratio,
    }
    return sample, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--until", type=float, default=0.0, help="time.monotonic() deadline of warm runs")
    parser.add_argument("--setup-only", action="store_true", help="stop at the first timed call")
    args = parser.parse_args(argv)
    if not Path(qpcasim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"qpcasim was imported from {qpcasim.__file__}, not from {SRC}")

    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    config = workloads.write_inputs(workload, inputs, args.seed, str(OUT_DIR), stem)
    try:
        first_call = time.monotonic()
        if args.setup_only:
            out = {"samples": [], "setup_ref_s": refkernel.one_pass()}
        elif not args.trace:
            out = timed_runs(workload, config, inputs, args.until)
        else:
            out = traced_runs(workload, config, inputs, first_call + args.seconds)
            out["spans_file"] = str(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl")
            with open(out["spans_file"], "w", encoding="utf-8") as fh:
                for t in out.pop("tracers"):
                    t.write_spans(fh)
    finally:
        for path in workloads.input_paths(config):
            os.remove(path)

    out.setdefault("peak_rss_mib", _peak_rss_mib())
    out.update(
        {
            "first_call": first_call,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas_name(),
        }
    )
    print(json.dumps(out))
    return 0


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_runs(workload, config, inputs, deadline: float) -> dict:
    """A cold run, then warm runs between reference-kernel passes until the
    deadline (at least one), each warm run predicted to end by it.

    Peak RSS is read after the cold run, before the kernel allocates its
    arrays. Each warm sample carries ``ref_s``, the mean of the kernel
    passes on either side of it."""
    cold, _ = run_once(workload, config, inputs)
    cold["cold"] = True
    peak = _peak_rss_mib()
    samples = [cold]
    ref = refkernel.one_pass()
    setup_ref = ref
    while True:
        sample, _ = run_once(workload, config, inputs)
        after = refkernel.one_pass()
        sample.update(cold=False, ref_s=(ref + after) / 2)
        samples.append(sample)
        ref = after
        if time.monotonic() + sample["wall_s"] + ref > deadline:
            break
    return {"samples": samples, "peak_rss_mib": peak, "setup_ref_s": setup_ref}


def traced_runs(workload, config, inputs, deadline: float) -> dict:
    """A warm-up run, then untraced/traced run pairs until the deadline (at
    least one pair), so both runs of a pair start from a warm process.

    Per-layer values are medians over the traced runs; counts repeat
    exactly, so their median is the count itself."""
    import tracer

    warmup, _ = run_once(workload, config, inputs)
    samples, tracers, overheads, per_run, ledgers = [warmup], [], [], [], []
    while True:
        pair_start = time.monotonic()
        base, _ = run_once(workload, config, inputs)
        with tracer.Tracer(run_id=len(tracers)) as t:
            traced, report = run_once(workload, config, inputs)
        samples += [base, traced]
        tracers.append(t)
        overheads.append(traced["wall_s"] - base["wall_s"])
        per_run.append(t.metrics())
        if report is not None and "ledger" in report:
            ledgers.append(t.ledger_rows(report["ledger"]))
        if time.monotonic() + (time.monotonic() - pair_start) > deadline:
            break
    metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return {
        "samples": samples,
        "metrics": metrics,
        "ledger": ledgers[-1] if ledgers else None,
        "stages": tracers[-1].stage_times(),
        "tracers": tracers,
    }


if __name__ == "__main__":
    sys.exit(main())

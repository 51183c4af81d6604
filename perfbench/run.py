"""qpcasim benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports qpcasim from ``src/`` there
and writes only under ``.perfbench_out/``. Metrics, bounds and the gated
workloads are declared in ``BENCHMARK.json``; every workload's shape and the
correctness gate live in ``perfbench/workloads.py``.

``--trace 0`` starts ``SETUPS_EACH_SIDE`` set-up-only children, then one
full child that makes a cold run and then warm runs until the rest of
``--seconds`` is as long as those set-ups took, then ``SETUPS_EACH_SIDE``
set-up-only children again. Every child is a fresh process running one
workload, one at a time, with one BLAS/OpenMP thread. Between warm runs,
and right after set-up in a set-up-only child, the child times a pass of a
fixed reference kernel (``refkernel.py``): on a shared host, other tenants'
load slows every process on a core by up to 2x in stretches of seconds to a
minute, and the kernel slows with it. So the timings are normalised to the
seconds they would take on a host where one kernel pass takes
``refkernel.REF_PASS_S``. ``norm_wall_s`` is the total time of the warm
runs (``cli.run`` + ``render_report``) over the total time of the kernel
passes beside them, times ``REF_PASS_S``: a ratio of totals weighs each
stretch of host speed by how long it lasted, where a median of per-run
ratios would rest on single kernel passes much shorter than a run.
``setup_s`` is the median over the set-up samples of set-up time over the
kernel pass that follows it, times ``REF_PASS_S``. The raw medians, and the
cold run, are printed beside them. ``peak_rss_mib`` is the
full child's peak RSS after its cold run, and ``exactness`` the median over
all runs.

``--trace 1`` starts one child that pairs untraced and traced runs and
reports the per-layer metrics.

Each sample's report is checked against closed-form oracles; a run that
raises a ``QpcaError`` or fails the check counts as failed, and any failure
makes the command exit 1. The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refkernel
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = ROOT / ".perfbench_out"

# Set-up-only children before and after the full child.
SETUPS_EACH_SIDE = 4
# Every child must end within this many seconds of the command's start,
# so the command exits within three minutes.
BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict[str, str]:
    """Environment for children: one BLAS and OpenMP thread, so a child
    never waits on a second core that another tenant holds."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args, env: dict[str, str], timeout: float, *extra: str) -> tuple[dict | None, float, float]:
    """Run one child; returns (its JSON output or None, spawn time, duration)."""
    cmd = [
        sys.executable, str(CHILD),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace), *extra,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: child timed out after {timeout:.0f} s", file=sys.stderr)
        return None, spawned, time.monotonic() - spawned
    duration = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: child exited with code {proc.returncode}", file=sys.stderr)
        return None, spawned, duration
    return json.loads(lines[-1]), spawned, duration


def _failed_sample(wall: float) -> dict:
    return {"wall_s": wall, "problems": ["child process failed"], "figure": None, "exactness": None}


def _failures(samples: list[dict]) -> int:
    return sum(1 for s in samples if s["problems"])


def timed(args, env) -> tuple[dict, list[str], dict]:
    """End-to-end run: set-up-only children, one full child whose warm runs
    fill the rest of --seconds, then as many set-up-only children again."""
    start = time.monotonic()
    samples, setups, rss, raw = [], [], [], []

    def setup_children() -> bool:
        for _ in range(SETUPS_EACH_SIDE):
            out, spawned, took = run_child(args, env, BUDGET_S - (time.monotonic() - start), "--setup-only")
            if out is None:
                samples.append(_failed_sample(took))
                return False
            setups.append((out["first_call"] - spawned, out["setup_ref_s"]))
        return True

    if setup_children():
        # Leave as long for the set-up-only children after as those before took.
        until = start + args.seconds - (time.monotonic() - start)
        out, spawned, duration = run_child(args, env, BUDGET_S - (time.monotonic() - start), "--until", repr(until))
        if out is None:
            samples.append(_failed_sample(duration))
        else:
            samples += out["samples"]
            setups.append((out["first_call"] - spawned, out["setup_ref_s"]))
            rss.append(out["peak_rss_mib"])
            raw.append(out)
            setup_children()

    ok = [s for s in samples if not s["problems"]] or samples
    warm = [s for s in ok if not s.get("cold", True)]
    ref = refkernel.REF_PASS_S
    cold = [s["wall_s"] for s in ok if s.get("cold")]
    exact = [s["exactness"] for s in ok if s["exactness"] is not None]
    values = {
        "norm_wall_s": ref * sum(s["wall_s"] for s in warm) / sum(s["ref_s"] for s in warm) if warm else 0.0,
        "peak_rss_mib": statistics.median(rss) if rss else 0.0,
        "setup_s": _median([t * ref / k for t, k in setups]),
        "exactness": statistics.median(exact) if exact else 0.0,
    }
    failed = _failures(samples)
    figures = [s["figure"] for s in ok if s["figure"] is not None]
    label = figures[0][0] if figures else "figure"
    refs = [s["ref_s"] for s in warm] + [k for _, k in setups]
    n = len(samples)
    lines = [
        f"  norm_wall_s   {values['norm_wall_s']:.4f} s    total over {len(warm)} warm runs, normalised"
        f" (raw wall_s median {_median([s['wall_s'] for s in warm]):.4f} s, cold run {_median(cold):.4f} s)",
        f"  peak_rss_mib  {values['peak_rss_mib']:.1f} MiB  after the cold run",
        f"  setup_s       {values['setup_s']:.4f} s    median of {len(setups)} fresh processes, normalised"
        f" (raw median {_median([t for t, _ in setups]):.4f} s)",
        f"  kernel        {_median(refs):.4f} s    median of {len(refs)} reference-kernel passes"
        f" (nominal {ref} s)",
        f"  {label:<13} {_median([f[1] for f in figures]):.12f} ratio",
        f"  exactness     {values['exactness']:.12f} ratio  ({label} over its closed-form prediction)",
        f"  fail_frac     {failed / n:.4f} ratio  ({failed} of {n} runs failed)",
    ]
    return values, lines, {"samples": samples, "setups": setups, "children": raw}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def traced(args, env) -> tuple[dict, list[str], dict]:
    """Per-layer run: one child pairing untraced and traced runs."""
    out, _, _ = run_child(args, env, BUDGET_S, "--seconds", str(args.seconds))
    if out is None:
        return {}, [], {"samples": [_failed_sample(0.0)]}
    metrics = out["metrics"]
    lines = []
    total = sum(metrics[layer + ".self_s"] for layer in _layers(metrics))
    lines.append("  self time by layer (share of traced cli.run + render_report):")
    for layer in _layers(metrics):
        own = metrics[layer + ".self_s"]
        lines.append(f"    {layer:<15} {own:9.4f} s  {own / total:6.1%}  {metrics[layer + '.calls']:>7} calls")
    stages = sorted(out["stages"].items(), key=lambda kv: -kv[1])
    lines.append("  largest stages (statevector self time charged to its caller):")
    for name, own in stages[:8]:
        lines.append(f"    {name:<40} {own:9.4f} s  {own / total:6.1%}")
    if out["ledger"] is not None and args.workload in ("wide-ideal", "tall-sampled"):
        lines.append("  ledger symbolic cost vs traced host time, per stage:")
        for row in out["ledger"]:
            lines.append(
                f"    {row['stage']:<22} cost {row['ledger_cost']:12.4g}   host self {row['host_s']:8.4f} s"
                f"  inclusive {row['inclusive_s']:8.4f} s  in {row['calls']} call(s) of {row['span']}"
            )
    lines.append(
        f"  computed from array shapes: {metrics['qram_store.prep_matrix_bytes']} B of preparation matrices,"
        f" {metrics['statevector.amp_bytes_built']} B of amplitude tensors,"
        f" peak {metrics['statevector.peak_amplitudes']} amplitudes"
    )
    lines.append(f"  trace.overhead_s {metrics['trace.overhead_s']:.4f} s; spans in {out['spans_file']}")
    return metrics, lines, out


def _layers(metrics: dict) -> list[str]:
    return [name[: -len(".self_s")] for name in metrics if name.endswith(".self_s")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "qpcasim" / "__init__.py").is_file():
        print(f"perfbench: no qpcasim sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    if args.trace:
        values, lines, raw = traced(args, env)
        declared = spec["per_layer"]
    else:
        values, lines, raw = timed(args, env)
        declared = spec["end_to_end"]

    samples = raw["samples"]
    failed = _failures(samples)
    first = (raw.get("children") or [raw])[0]
    env_line = (
        f"nproc={nproc} python={first.get('python')} numpy={first.get('numpy')} blas={first.get('blas')}"
    )
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {env_line}")
    for s in samples:
        for problem in s["problems"]:
            print(f"  FAILED: {problem}")
    print("\n".join(lines))

    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env_line, "values": values, "raw": raw}, indent=1, default=str))

    result = {
        "correct": failed == 0 and bool(values),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]] if values else 0.0, "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

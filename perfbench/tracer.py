"""Layer tracing from outside the program, for the benchmark's traced run.

``Tracer`` swaps the public functions of the qpcasim layers for timing
wrappers at the points where callers look them up: module attributes for
``qpca_pipeline``, ``qram_store``, ``sv_engine``, ``pca_oracle`` and
``qml_apps``, class attributes for ``StateVector`` methods, and the names
``cli`` imported into ``qpcasim.cli``. Leaving the ``with`` block restores
every original, so untraced runs in the same process pay nothing.

Each wrapper call records a span (name, start, end, parent span, run id) in
memory, plus counts at the same boundary. Byte counts are computed from
array shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter

LAYERS = ("cli", "qpca_pipeline", "qram_store", "sv_engine", "statevector", "pca_oracle", "qml_apps")

# StateVector methods that touch the amplitude tensor. The bookkeeping
# accessors (axis, register, layout) run thousands of times per stage and
# would mostly measure the wrapper; ``norm`` runs only inside the norm
# check, which has its own span.
STATEVECTOR_METHODS = (
    "apply_register_unitary",
    "apply_controlled_unitary",
    "apply_controlled_xor",
    "apply_mcx",
    "apply_x",
    "append_register",
    "remove_register",
    "probabilities",
    "project_and_remove",
    "restrict_register",
    "basis_amplitude",
    "inner",
    "fidelity",
)
NORM_CHECK = "statevector.norm_check"
ANCHOR_STAGES = ("qpca_pipeline.exact_anchor_profile", "qpca_pipeline.estimate_anchor")
PREP_MATRICES = ("qram_store.norm_prep_unitary", "qram_store.row_prep_unitary")

# Ledger cost entries of a compress report and the span of the stage each
# one prices.
LEDGER_STAGES = (
    ("spectrum_copies", "qpca_pipeline.extract_spectrum"),
    ("anchor_swap_tests", "qpca_pipeline.estimate_anchor"),
    ("label_write_cost", "sv_engine.phase_estimate"),
    ("index_write_gates", "sv_engine.apply_cu_lambda"),
    ("label_uncompute_cost", "sv_engine.inverse_phase_estimate"),
    ("rotation_gates", "sv_engine.apply_cr_beta"),
    ("postselect_cost", "sv_engine.postselect"),
)


def _targets():
    """(owner, attribute, span name) for every lookup point to wrap."""
    for layer in LAYERS:
        module = importlib.import_module(f"qpcasim.{layer}")
        if layer == "statevector":
            owner = module.StateVector
            for attr in STATEVECTOR_METHODS:
                yield owner, attr, f"statevector.{attr}"
            yield owner, "_assert_normalized", NORM_CHECK
            continue
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__.rpartition(".")[2]
            if obj.__module__.startswith("qpcasim.") and home in LAYERS:
                yield module, attr, f"{home}.{attr}"


class Tracer:
    """Spans and counts of one traced run; use as a context manager."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id]
        self.counts: Counter = Counter()
        self.postselect_mass = 0.0
        self.peak_amplitudes = 0
        self.span_names: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        from qpcasim.statevector import StateVector

        for owner, attr, name in _targets():
            self._patch(owner, attr, self._span(name, vars(owner)[attr]))
            self.span_names.add(name)
        self._patch(StateVector, "__init__", self._count_amplitudes(StateVector.__init__))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [name, time.perf_counter(), 0.0, parent, tracer.run_id]
            tracer.spans.append(record)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            tracer._observe(name, result)
            return result

        return wrapper

    def _observe(self, name: str, result) -> None:
        """Counts taken from a call that returned normally."""
        if name == "cli.render_report":
            self.counts["cli.report_bytes"] += len(result.encode("utf-8"))
        elif name in PREP_MATRICES:
            self.counts["qram_store.prep_matrix_bytes"] += math.prod(result.shape) * result.dtype.itemsize
        elif name in ANCHOR_STAGES:
            self.counts["anchors_accepted"] += 1
        elif name == "sv_engine.postselect":
            self.postselect_mass += result.probability
        elif name == "pca_oracle.pairwise_overlap_report":
            self.counts["pca_oracle.overlap_pairs"] += result.deviations.size

    def _count_amplitudes(self, init):
        tracer = self

        @functools.wraps(init)
        def wrapper(state, *args, **kwargs):
            init(state, *args, **kwargs)
            size = math.prod(state.amplitudes.shape)
            tracer.peak_amplitudes = max(tracer.peak_amplitudes, size)
            tracer.counts["statevector.amp_bytes_built"] += size * state.amplitudes.dtype.itemsize

        return wrapper

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover.

        Spans come from one thread and nest, so a span's children lie inside
        it and do not overlap each other: the covered part is their sum.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def stage_times(self) -> dict[str, float]:
        """Self time with each statevector span charged to its nearest
        caller outside statevector, so a stage owns the tensor operations it
        issued. This is the host time compared with the ledger's cost."""
        owner = []
        charged: Counter = Counter()
        for (name, _, _, parent, _), own in zip(self.spans, self.self_times()):
            stage = name
            if name.startswith("statevector.") and parent >= 0:
                stage = owner[parent]
            owner.append(stage)
            charged[stage] += own
        return charged

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this run: ``<span>.s`` self time and
        ``<span>.calls`` for every wrapped name, per-layer totals, and the
        counts and ratios taken at the wrappers."""
        out: dict[str, float] = {}
        for name in self.span_names:
            out[name + ".s"] = 0.0
            out[name + ".calls"] = 0
        for layer in LAYERS:
            out[layer + ".self_s"] = 0.0
            out[layer + ".calls"] = 0
        for (name, *_), own in zip(self.spans, self.self_times()):
            layer = name.partition(".")[0]
            out[name + ".s"] += own
            out[name + ".calls"] += 1
            out[layer + ".self_s"] += own
            out[layer + ".calls"] += 1

        attempts = sum(out[name + ".calls"] for name in ANCHOR_STAGES)
        postselects = out["sv_engine.postselect.calls"]
        out.update(
            {
                "cli.report_bytes": self.counts["cli.report_bytes"],
                "qpca_pipeline.anchor_attempts": attempts,
                "qpca_pipeline.anchor_useful_ratio": self.counts["anchors_accepted"] / attempts if attempts else 0.0,
                "qram_store.prep_matrix_bytes": self.counts["qram_store.prep_matrix_bytes"],
                "sv_engine.postselect.success_prob": self.postselect_mass / postselects if postselects else 0.0,
                "statevector.constructions": out[NORM_CHECK + ".calls"],
                "statevector.peak_amplitudes": self.peak_amplitudes,
                "statevector.amp_bytes_built": self.counts["statevector.amp_bytes_built"],
                "pca_oracle.overlap_pairs": self.counts["pca_oracle.overlap_pairs"],
            }
        )
        return out

    def ledger_rows(self, ledger: dict) -> list[dict]:
        """The report ledger's symbolic cost per stage next to the traced
        host time of the same stage: its self time with statevector work
        charged to it, and its inclusive time (which also holds nested
        stages, such as the data-state load inside spectrum extraction)."""
        stage = self.stage_times()
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        for name, start, end, _, _ in self.spans:
            calls[name] += 1
            inclusive[name] += end - start
        return [
            {
                "stage": key,
                "span": span,
                "ledger_cost": ledger[key],
                "calls": calls[span],
                "host_s": stage[span],
                "inclusive_s": inclusive[span],
            }
            for key, span in LEDGER_STAGES
        ]

    def write_spans(self, fh) -> None:
        for index, (name, start, end, parent, run_id) in enumerate(self.spans):
            fh.write(
                json.dumps({"run": run_id, "id": index, "parent": parent, "name": name, "start": start, "end": end})
                + "\n"
            )

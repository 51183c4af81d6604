"""The benchmark's per-layer metric names against traced compress, qsvm and
scaling runs, and the call counts that keep each task to one decomposition.

``perfbench/tracer.py`` wraps the public qpcasim functions by name, and
``BENCHMARK.json`` lists the per-layer metrics that its traced run reports.
A refactor that removes or renames a function the tracer reads would make
``perfbench/run.py --trace 1`` fail; this test fails first. So would a
production path that stops calling the stages the ledger rows time. The
tracer is loaded from its file without writing bytecode next to it.
"""

import importlib.util
import json
import sys
from pathlib import Path

from qpcasim import cli
from qpcasim.datasets import gaussian_class_pair, write_matrix_csv, write_values_file

ROOT = Path(__file__).resolve().parent.parent
RANK3 = str(ROOT / "tests" / "golden" / "inputs" / "rank3.csv")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _per_layer_names() -> list[str]:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # The overhead is measured by the benchmark runner against an untraced twin run.
    return [m["name"] for m in benchmark["per_layer"] if m["name"] != "trace.overhead_s"]


def test_traced_compress_reports_every_benchmark_per_layer_metric():
    names = _per_layer_names()
    config = cli.RunConfig(input_path=RANK3, seed=3)
    with _load_tracer().Tracer(0) as tracer:
        report = cli.run(config)
        cli.render_report(report)
    metrics = tracer.metrics()
    assert [name for name in names if name not in metrics] == []
    assert metrics["qpca_pipeline.compress.calls"] == 1
    # The ledger's rotation and postselection rows read these spans, so
    # production must still reach both stages by these names, once each.
    assert metrics["sv_engine.apply_cr_beta.calls"] == 1
    assert metrics["sv_engine.postselect.calls"] == 1
    assert metrics["sv_engine.postselect.success_prob"] == report["compression"]["success_probability"]
    # The tracer counts the audit's pairs from ``deviations.size``; the
    # report's ``n_pairs`` must be the same count.
    assert metrics["pca_oracle.overlap_pairs"] == report["compression"]["overlap"]["n_pairs"]


def test_traced_sampled_compress_rotates_no_data_state():
    # The ``compress_sampled`` golden's flags. The sampled spectrum is read
    # off the eigenvalues, so the one data-state load is compress's own and
    # no stage rotates a loaded state into the eigenbasis.
    config = cli.RunConfig(input_path=RANK3, mode="sampled", shots=20000, seed=3)
    with _load_tracer().Tracer(0) as tracer:
        cli.render_report(cli.run(config))
    metrics = tracer.metrics()
    assert metrics["qram_store.prepare_data_state.calls"] == 1
    assert metrics["sv_engine.measure_register.calls"] == 1
    assert metrics["statevector.apply_register_unitary.calls"] == 0


def test_traced_qsvm_run_reports_the_qml_apps_metrics(tmp_path):
    # Only the qsvm task reaches qml_apps; the compress run above leaves its
    # names at zero calls.
    data, labels = gaussian_class_pair(n_per_class=6, n_cols=3, seed=29)
    data_path, labels_path = str(tmp_path / "pts.csv"), str(tmp_path / "pts.labels")
    write_matrix_csv(data_path, data.values)
    write_values_file(labels_path, labels)
    config = cli.RunConfig(input_path=data_path, labels_path=labels_path, task="qsvm")
    with _load_tracer().Tracer(0) as tracer:
        cli.render_report(cli.run(config))
    metrics = tracer.metrics()
    names = [name for name in _per_layer_names() if name.startswith("qml_apps.")]
    assert names and [name for name in names if name not in metrics] == []
    assert metrics["qml_apps.lssvm_train.calls"] == 2
    assert metrics["qml_apps.qsvm_state_demo.calls"] == 1
    # The demo's call gives the full-space training decision values too;
    # the compressed learner makes the other.
    assert metrics["qml_apps.lssvm_decision_values.calls"] == 2
    # The trained state is the one state the task builds; the probes are read
    # off it in closed form.
    assert metrics["statevector.constructions"] == 1


def test_traced_scaling_run_decomposes_and_loads_its_dataset_once():
    # Every seed of the sweep reads the same dataset, so the data state and
    # the decomposition (which the report's spectrum block reuses) are
    # built once, its labels are checked before any anchor is drawn and in
    # the one call that projects all the seeds' anchors. No tree is built:
    # it belongs to the reference circuit.
    config = cli.RunConfig(input_path=RANK3, task="scaling", seed=3)
    with _load_tracer().Tracer(0) as tracer:
        cli.render_report(cli.run(config))
    metrics = tracer.metrics()
    assert metrics["pca_oracle.svd_decompose.calls"] == 1
    assert metrics["qram_store.build_tree.calls"] == 0
    assert metrics["qram_store.prepare_data_state.calls"] == 1
    assert metrics["sv_engine.check_label_distinctness.calls"] == 2
    assert metrics["qpca_pipeline.select_anchor.calls"] == cli.SCALING_SEED_COUNT
    assert metrics["sv_engine.project_anchor.calls"] == 1
    assert metrics["sv_engine.postselect_rotations.calls"] == 1

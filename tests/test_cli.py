"""Tests for CSV ingestion, the report pipeline, and the CLI entry point."""

import json
import os

import numpy as np
import pytest

from qpcasim import cli
from qpcasim.datasets import (
    gaussian_class_pair,
    linear_trend_dataset,
    rank_k_dataset,
    write_matrix_csv,
    write_values_file,
)
from qpcasim.errors import InvalidInputError, OutOfRangeError, ParseError


@pytest.fixture
def rank2_csv(tmp_path):
    path = tmp_path / "rank2.csv"
    write_matrix_csv(path, rank_k_dataset(16, 8, 2, seed=7).values)
    return str(path)


@pytest.fixture
def blobs_files(tmp_path):
    data, labels = gaussian_class_pair(seed=29)
    data_path = tmp_path / "blobs.csv"
    labels_path = tmp_path / "blobs_labels.txt"
    write_matrix_csv(data_path, data.values)
    write_values_file(labels_path, labels)
    return str(data_path), str(labels_path)


@pytest.fixture
def linear_files(tmp_path):
    data, targets, _ = linear_trend_dataset(12, 6, 2, seed=11)
    data_path = tmp_path / "lin.csv"
    targets_path = tmp_path / "lin_targets.txt"
    write_matrix_csv(data_path, data.values)
    write_values_file(targets_path, targets)
    return str(data_path), str(targets_path)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- ingestion --------------------------------------------------------------------


def test_ingest_small_matrix(tmp_path):
    path = _write(tmp_path, "id.csv", "# identity\n1,0\n\n0,1\n")
    data = cli.ingest_csv(path)
    np.testing.assert_array_equal(data.values, np.eye(2))


def test_ingest_non_numeric_field(tmp_path):
    path = _write(tmp_path, "bad.csv", "1,a\n")
    with pytest.raises(ParseError) as info:
        cli.ingest_csv(path)
    assert info.value.line == 1
    assert info.value.column == 2


def test_ingest_ragged_rows(tmp_path):
    path = _write(tmp_path, "ragged.csv", "1,2\n3,4,5\n")
    with pytest.raises(ParseError) as info:
        cli.ingest_csv(path)
    assert info.value.line == 2


def test_ingest_non_finite(tmp_path):
    path = _write(tmp_path, "inf.csv", "1,2\n3,inf\n")
    with pytest.raises(ParseError) as info:
        cli.ingest_csv(path)
    assert info.value.line == 2
    assert info.value.column == 2


def test_ingest_zero_row(tmp_path):
    path = _write(tmp_path, "zero.csv", "# header\n1,2\n0,0\n")
    with pytest.raises(ParseError) as info:
        cli.ingest_csv(path)
    assert info.value.line == 3


def test_ingest_empty_file(tmp_path):
    path = _write(tmp_path, "empty.csv", "# only a comment\n\n")
    with pytest.raises(ParseError):
        cli.ingest_csv(path)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(InvalidInputError):
        cli.ingest_csv(str(tmp_path / "nope.csv"))


def test_read_values(tmp_path):
    path = _write(tmp_path, "vals.txt", "# targets\n1.5\n-2\n")
    np.testing.assert_allclose(cli.read_values(path, 2), [1.5, -2.0])
    with pytest.raises(ParseError):
        cli.read_values(path, 3)  # length mismatch
    bad = _write(tmp_path, "badvals.txt", "1\nx\n")
    with pytest.raises(ParseError) as info:
        cli.read_values(bad, 2)
    assert info.value.line == 2


def test_config_validation():
    with pytest.raises(OutOfRangeError):
        cli.RunConfig(input_path="x", theta=0.0).validate()
    with pytest.raises(OutOfRangeError):
        cli.RunConfig(input_path="x", eps_beta=1.0).validate()
    with pytest.raises(InvalidInputError):
        cli.RunConfig(input_path="x", task="dance").validate()
    with pytest.raises(InvalidInputError):
        cli.RunConfig(input_path="x", mode="loud").validate()
    with pytest.raises(InvalidInputError):
        cli.RunConfig(input_path="x", subset=()).validate()
    cli.RunConfig(input_path="x").validate()


def test_parse_subset():
    assert cli._parse_subset("0,2,3") == (0, 2, 3)
    with pytest.raises(InvalidInputError):
        cli._parse_subset("0,two")


# -- task reports -----------------------------------------------------------------


def test_compress_report_contents(rank2_csv):
    report = cli.run(cli.RunConfig(input_path=rank2_csv, seed=4))
    assert report["task"] == "compress"
    assert report["spectrum"]["selected_dim"] == 2
    assert report["compression"]["fidelity"] >= 1.0 - 1e-9
    assert report["compression"]["scope"] == "full"
    ledger = report["ledger"]
    assert set(ledger["amplified_cost"]) == {
        "label_write_cost",
        "index_write_gates",
        "label_uncompute_cost",
        "rotation_gates",
        "postselect_cost",
    }
    sweep = report["success_probability_sweep"]
    assert [row["dim"] for row in sweep] == [1, 2]
    assert report["config"]["input_path"] == rank2_csv


def test_compress_subset_report(rank2_csv):
    report = cli.run(cli.RunConfig(input_path=rank2_csv, subset=(0, 2, 5), seed=4))
    assert report["compression"]["scope"] == "subset"
    assert report["config"]["subset"] == [0, 2, 5]
    assert report["compression"]["fidelity"] >= 1.0 - 1e-9


def test_qsvm_report(blobs_files):
    data_path, labels_path = blobs_files
    report = cli.run(
        cli.RunConfig(input_path=data_path, labels_path=labels_path, task="qsvm", seed=1)
    )
    body = report["qsvm"]
    assert body["full"]["training_accuracy"] == 1.0
    assert body["accuracy_match"] is True
    assert body["full"]["residual"] <= 1e-8
    assert body["compressed"]["residual"] <= 1e-8
    assert body["demo"]["sign_agreements"] == body["demo"]["queries"]
    assert body["demo"]["inconclusive"] == 0  # shot-free demos are never inconclusive
    assert body["demo"]["shots"] is None


def test_qsvm_needs_labels(rank2_csv):
    with pytest.raises(InvalidInputError):
        cli.run(cli.RunConfig(input_path=rank2_csv, task="qsvm"))


def test_qlr_report(linear_files):
    data_path, targets_path = linear_files
    report = cli.run(
        cli.RunConfig(input_path=data_path, labels_path=targets_path, task="qlr", seed=1)
    )
    body = report["qlr"]
    assert body["max_abs_error_original"] <= 1e-8
    assert body["max_abs_error_compressed"] <= 1e-8
    assert body["max_original_vs_compressed_gap"] <= 1e-8
    demo = body["demo"]
    assert demo["prediction"] == pytest.approx(demo["classical_value"], abs=1e-8)


def test_scaling_report(rank2_csv):
    report = cli.run(cli.RunConfig(input_path=rank2_csv, task="scaling", seed=3))
    rows = report["scaling"]["rows"]
    assert [r["eps_beta"] for r in rows] == [0.0, 0.02, 0.04, 0.08]
    assert rows[0]["mean_infidelity"] <= 1e-9
    devs = [r["mean_deviation"] for r in rows]
    assert devs == sorted(devs)
    assert report["scaling"]["n_seeds"] == cli.SCALING_SEED_COUNT


def test_ledger_report(rank2_csv):
    report = cli.run(cli.RunConfig(input_path=rank2_csv, task="ledger", seed=2))
    ledger = report["ledger"]
    assert ledger["dim"] == 2
    assert ledger["amplification_reps"] >= 1
    assert ledger["spectrum_copies"] > 0.0
    assert report["anchor"]["rotation_constant"] > 0.0


# -- determinism ------------------------------------------------------------------


def _main_bytes(argv, out_path):
    code = cli.main(argv)
    assert code == 0
    with open(out_path, "rb") as fh:
        return fh.read()


def test_reports_byte_identical(rank2_csv, tmp_path):
    out = str(tmp_path / "report.json")
    argv = ["--input", rank2_csv, "--mode", "sampled", "--seed", "9", "--out", out]
    first = _main_bytes(argv, out)
    second = _main_bytes(argv, out)
    assert first == second
    json.loads(first.decode("utf-8"))  # well-formed JSON


def test_qsvm_reports_byte_identical(blobs_files, tmp_path):
    data_path, labels_path = blobs_files
    out = str(tmp_path / "qsvm.json")
    argv = [
        "--input", data_path, "--labels", labels_path, "--task", "qsvm",
        "--mode", "sampled", "--shots", "20000", "--seed", "6", "--out", out,
    ]
    assert _main_bytes(argv, out) == _main_bytes(argv, out)


# -- plot data ---------------------------------------------------------------------


def test_plot_data_round_trip(rank2_csv, tmp_path):
    out = str(tmp_path / "report.json")
    plot_dir = str(tmp_path / "plots")
    code = cli.main(["--input", rank2_csv, "--seed", "4", "--out", out, "--plot-dir", plot_dir])
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)

    scree = np.loadtxt(os.path.join(plot_dir, "scree.dat"))
    assert scree.shape == (8, 2)
    np.testing.assert_array_equal(
        scree[:, 1], np.array(report["spectrum"]["variance_proportions"])
    )

    sweep = np.loadtxt(os.path.join(plot_dir, "success_probability.dat"))
    sweep = np.atleast_2d(sweep)
    want = [r["success_probability"] for r in report["success_probability_sweep"]]
    np.testing.assert_array_equal(sweep[:, 1], np.array(want))


def test_plot_data_scaling_table(rank2_csv, tmp_path):
    out = str(tmp_path / "report.json")
    plot_dir = str(tmp_path / "plots")
    code = cli.main(
        ["--input", rank2_csv, "--task", "scaling", "--seed", "3", "--out", out,
         "--plot-dir", plot_dir]
    )
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    table = np.loadtxt(os.path.join(plot_dir, "infidelity_vs_eps_beta.dat"))
    assert table.shape == (4, 3)
    # %.17g output re-parses to the report's floats exactly.
    for row, rep in zip(table, report["scaling"]["rows"]):
        assert row[0] == rep["eps_beta"]
        assert row[1] == rep["mean_infidelity"]
        assert row[2] == rep["mean_deviation"]
    assert table[0, 1] <= 1e-9


# -- error reporting ----------------------------------------------------------------


def _error_payload(capsys, argv):
    code = cli.main(argv)
    assert code == 1
    return json.loads(capsys.readouterr().out)["error"]


def test_main_reports_parse_errors(capsys, tmp_path):
    path = _write(tmp_path, "bad.csv", "1,a\n")
    payload = _error_payload(capsys, ["--input", path])
    assert payload["code"] == "PARSE_ERROR"
    assert payload["line"] == 1
    assert payload["column"] == 2


def test_main_reports_missing_input(capsys, tmp_path):
    payload = _error_payload(capsys, ["--input", str(tmp_path / "nope.csv")])
    assert payload["code"] == "INVALID_INPUT"


def test_main_reports_out_of_range(capsys, rank2_csv):
    payload = _error_payload(capsys, ["--input", rank2_csv, "--theta", "1.5"])
    assert payload["code"] == "OUT_OF_RANGE"


def test_main_reports_weak_anchor_on_identity(capsys, tmp_path):
    # Identity rows sit on single principal axes, so every anchor draw has a
    # vanishing coefficient and compression is honestly refused.
    path = _write(tmp_path, "identity.csv", "1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n")
    payload = _error_payload(capsys, ["--input", path])
    assert payload["code"] == "WEAK_ANCHOR"


@pytest.mark.parametrize("task", ["compress", "ledger", "scaling"])
def test_weak_anchor_payload_lists_anchors_tried(capsys, tmp_path, task):
    path = _write(tmp_path, "identity.csv", "1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n")
    payload = _error_payload(capsys, ["--input", path, "--task", task])
    assert payload["code"] == "WEAK_ANCHOR"
    tried = payload["anchors_tried"]
    assert len(tried) == 8
    assert payload["message"].startswith(f"no usable anchor after 8 draw(s) {tried}: ")


def test_under_sampled_payload_carries_histogram(capsys, tmp_path):
    # The smallest of the eight kept labels is 1 (a smaller spread gives it
    # label 0, which is DEGENERATE_SPECTRUM); 400 draws miss it.
    path = str(tmp_path / "under.csv")
    write_matrix_csv(path, rank_k_dataset(16, 8, 8, 1, sigma_range=(0.12, 2.0)).values)
    payload = _error_payload(
        capsys, ["--input", path, "--mode", "sampled", "--theta", "1.0", "--bits", "10"]
    )
    assert payload["code"] == "UNDER_SAMPLED"
    assert payload["budget"] == 400
    assert sum(payload["histogram"].values()) == 400


@pytest.mark.parametrize("task", ["qsvm", "qlr", "scaling", "ledger"])
def test_subset_rejected_outside_compress(capsys, rank2_csv, task):
    payload = _error_payload(capsys, ["--input", rank2_csv, "--task", task, "--subset", "0,1"])
    assert payload["code"] == "INVALID_INPUT"
    assert "compress task only" in payload["message"]


@pytest.mark.parametrize(
    "task,mode", [("scaling", "sampled"), ("scaling", "quantized"), ("ledger", "sampled"), ("ledger", "quantized")]
)
def test_mode_rejected_for_ideal_only_tasks(capsys, rank2_csv, task, mode):
    payload = _error_payload(capsys, ["--input", rank2_csv, "--task", task, "--mode", mode])
    assert payload["code"] == "INVALID_INPUT"
    assert "ideal mode only" in payload["message"]


def test_main_success_exit_code(rank2_csv, tmp_path, capsys):
    out = str(tmp_path / "r.json")
    assert cli.main(["--input", rank2_csv, "--out", out]) == 0
    assert os.path.exists(out)

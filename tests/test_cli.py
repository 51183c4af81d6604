"""Tests for CSV ingestion, the report pipeline, and the CLI entry point."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from qpcasim import cli, pca_oracle
from qpcasim.datasets import (
    gaussian_class_pair,
    linear_trend_dataset,
    rank_k_dataset,
    write_matrix_csv,
    write_values_file,
)
from qpcasim.errors import InvalidInputError, NumericalFailureError, OutOfRangeError, ParseError
from qpcasim.modes import MODE_QUANTIZED, RUN_MODES, check_run_mode, check_shots
from qpcasim.qml_apps import lssvm_train, qsvm_state_demo
from qpcasim.qpca_pipeline import compress, error_scaling_experiment, estimate_anchor, ledger_predict, run_compression
from qpcasim.statevector import sample_outcome
from qpcasim.sv_engine import PhaseConfig


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
    assert str(info.value) == "line 3: row is entirely zero"


# Rows whose sum of squares leaves float64's range. Each body is read once
# through the one-pass parse and once with a '1_000' field that only the
# per-field loop accepts: both paths share the row checks.
@pytest.mark.parametrize("fallback", [False, True], ids=["one-pass", "per-field"])
@pytest.mark.parametrize(
    "body, error, line, message",
    [
        ("1,2\n1e-170,1e-170\n", ParseError, 2, "line 2: row's sum of squares underflows to zero; rescale the data"),
        ("1,2\n\n1e200,1e200\n", ParseError, 3, "line 3: row's sum of squares overflows; rescale the data"),
        ("1e154,1\n1,1e154\n", OutOfRangeError, None, "the matrix's total sum of squares overflows; rescale the data"),
    ],
    ids=["tiny-row", "huge-row", "huge-matrix"],
)
def test_ingest_row_norm_range(tmp_path, body, error, line, message, fallback):
    if fallback:
        body = body.replace("1,", "1_000,", 1)
    path = _write(tmp_path, "range.csv", body)
    with pytest.raises(error) as info:
        cli.ingest_csv(path)
    assert str(info.value) == message
    assert getattr(info.value, "line", None) == line


def test_ingest_takes_the_norms_once(tmp_path, monkeypatch):
    # ``DataMatrix`` is the one check of a good file; a refused row's norms
    # are taken a second time only to name its line.
    taken = []
    norms = pca_oracle._norms_and_fault
    monkeypatch.setattr(pca_oracle, "_norms_and_fault", lambda values: taken.append(1) or norms(values))
    cli.ingest_csv(_write(tmp_path, "good.csv", "1,2\n3,4\n"))
    assert len(taken) == 1
    with pytest.raises(ParseError):
        cli.ingest_csv(_write(tmp_path, "zero.csv", "1,2\n0,0\n"))
    assert len(taken) == 3


def _text_lines(path):
    """The file's lines as the CLI reads them: universal newlines end a line
    only at \\n, \\r\\n and \\r, and utf-8-sig drops a leading BOM."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return fh.read().split("\n")


def _per_field_ingest(path):
    """The ingest before the one-pass parse: ``float(token.strip())`` on every
    field of every kept line, then the zero-row check."""
    lines = _text_lines(path)
    rows, row_lines, width = [], [], None
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = [f.strip() for f in stripped.split(",")]
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ParseError(f"line {lineno}: expected {width} fields, found {len(fields)}", line=lineno)
        values = []
        for col, token in enumerate(fields, start=1):
            try:
                value = float(token)
            except ValueError:
                raise ParseError(
                    f"line {lineno}, column {col}: not a number: {token!r}", line=lineno, column=col
                ) from None
            if not math.isfinite(value):
                raise ParseError(
                    f"line {lineno}, column {col}: non-finite value {token!r}", line=lineno, column=col
                )
            values.append(value)
        rows.append(values)
        row_lines.append(lineno)
    arr = np.array(rows, dtype=np.float64)
    zero = np.nonzero(np.linalg.norm(arr, axis=1) == 0.0)[0]
    if zero.size:
        line = row_lines[int(zero[0])]
        raise ParseError(f"line {line}: row is entirely zero", line=line)
    return arr


def _outcome(read, path):
    try:
        return ("ok", read(path).tobytes())
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)


# Tokens where numpy's parser and float() may disagree: underscores,
# non-ASCII digits and whitespace, signs, bare dots, extremes, specials.
TOKEN_ZOO = [
    "1_000", "\u0661", "\xa01", " 1", "\x0b1", "+.5", "1.", "-0",
    "4.9406564584124654e-324", "1e-400", "0.12345678901234567890",
    "inf", "nan", "1e400", "0x1p3", "1e", "2#x", "1E2", "\t-2.5e-3\t", "\u20001", "\ufeff1",
]


@pytest.mark.parametrize(
    "body",
    [f"{tok},1\n2,3\n" for tok in TOKEN_ZOO]
    + [f"1,2\n3,{tok}\n" for tok in TOKEN_ZOO]
    + ["1,2#x\n3,4\n", "1,2,\n3,4,\n", "1,2\n3,4,5\n", "1,2\n3\n", "# c\r\n\r\n 1 , 2 \r\n3,4\r\n"],
)
def test_ingest_matches_the_per_field_parse(tmp_path, body):
    path = tmp_path / "zoo.csv"
    path.write_bytes(body.encode("utf-8"))
    assert _outcome(lambda p: cli.ingest_csv(p).values, str(path)) == _outcome(_per_field_ingest, str(path))


def test_clean_csv_skips_the_per_field_loop(tmp_path, monkeypatch):
    values = rank_k_dataset(256, 64, 4, seed=3).values
    path = tmp_path / "clean.csv"
    write_matrix_csv(path, values)

    def refuse(*args):
        raise AssertionError("a clean CSV entered the per-field loop")

    monkeypatch.setattr(cli, "_parse_fields", refuse)
    np.testing.assert_array_equal(cli.ingest_csv(str(path)).values, values)


def test_ingest_empty_file(tmp_path):
    path = _write(tmp_path, "empty.csv", "# only a comment\n\n")
    with pytest.raises(ParseError):
        cli.ingest_csv(path)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(InvalidInputError):
        cli.ingest_csv(str(tmp_path / "nope.csv"))


@pytest.mark.parametrize(
    "body, line, byte",
    [
        (b"1.0,2.0\n\xff\xfe,3.0\n", 2, 0xFF),
        # CRLF, comment and blank lines count; a truncated sequence ends the line.
        (b"# c\r\n\r\n1,2\r\n3,\xc3\n", 4, 0xC3),
        (b"\xff", 1, 0xFF),
        # A bad byte right after a line break starts the next line.
        (b"1,2\n\x801,2\n", 2, 0x80),
        # A lone CR ends a line, a form feed does not; a leading BOM is no line.
        (b"\xef\xbb\xbf1,2\r3,4\x0c\xff\n", 2, 0xFF),
    ],
    ids=["second-line", "crlf-truncated", "first-byte", "line-start", "cr-form-feed-bom"],
)
def test_non_utf8_input_is_a_parse_error_naming_its_line(tmp_path, body, line, byte):
    path = tmp_path / "bytes.csv"
    path.write_bytes(body)
    message = f"line {line}: byte 0x{byte:02x} is not UTF-8 text"
    for read in (cli.ingest_csv, lambda p: cli.read_values(p, 2)):
        with pytest.raises(ParseError) as info:
            read(str(path))
        assert (str(info.value), info.value.line, info.value.column) == (message, line, None)


@pytest.mark.parametrize(
    "body, outcome",
    [
        # A comment that holds U+2028 is one line, and so is a row that holds a form feed.
        ("# note\u2028more text\n1,2\n3,4\n", ("ok", np.array([[1.0, 2.0], [3.0, 4.0]]).tobytes())),
        ("# note\u2028more text\n1,2\n3,x\n", ("error", "line 3, column 2: not a number: 'x'", 3, 2)),
        ("1,2\n3,4\f5,6\n7,8\n", ("error", "line 2: expected 2 fields, found 3", 2, None)),
    ],
    ids=["u2028-comment", "u2028-comment-then-bad-token", "form-feed-row"],
)
def test_only_newline_characters_end_a_csv_line(tmp_path, body, outcome):
    path = tmp_path / "lines.csv"
    path.write_bytes(body.encode("utf-8"))
    assert _outcome(lambda p: cli.ingest_csv(p).values, str(path)) == outcome


def test_only_newline_characters_end_a_values_line(tmp_path):
    # U+0085 (NEL) ends no line: "-1\x851" is one token, and not a number.
    path = _write(tmp_path, "nel.labels", "1\n-1\x851\n")
    with pytest.raises(ParseError) as info:
        cli.read_values(path, 2)
    assert (str(info.value), info.value.line) == ("line 2, column 1: not a number: '-1\\x851'", 2)


def test_a_byte_order_mark_is_dropped_at_the_start_only(tmp_path):
    bom = "\ufeff"
    path = _write(tmp_path, "bom.csv", bom + "1,2\r\n3,4\r\n")
    np.testing.assert_array_equal(cli.ingest_csv(path).values, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(cli.read_values(_write(tmp_path, "bom.labels", bom + "1\n-1\n"), 2), [1.0, -1.0])
    refused = [
        (cli.ingest_csv, "1,2\n" + bom + "3,4\n", "line 2, column 1: not a number: '\\ufeff3'"),
        (cli.ingest_csv, bom + bom + "1,2\n", "line 1, column 1: not a number: '\\ufeff1'"),
        (lambda p: cli.read_values(p, 2), "1\n" + bom + "-1\n", "line 2, column 1: not a number: '\\ufeff-1'"),
    ]
    for read, body, message in refused:
        with pytest.raises(ParseError) as info:
            read(_write(tmp_path, "late_bom.txt", body))
        assert str(info.value) == message


@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["no-bom", "bom"])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_values_of_every_line_end_take_the_one_pass_parse(tmp_path, monkeypatch, end, bom):
    # The end of the last line starts no empty line that would fail float().
    values = [1.0, -1.0, 0.25]
    path = _write(tmp_path, "vals.txt", bom + end.join(map(repr, values)) + end)

    def refuse(*args):
        raise AssertionError("a clean values file entered the per-line loop")

    monkeypatch.setattr(cli, "_parse_number", refuse)
    np.testing.assert_array_equal(cli.read_values(path, 3), values)


def test_read_values(tmp_path):
    path = _write(tmp_path, "vals.txt", "# targets\n1.5\n-2\n")
    np.testing.assert_allclose(cli.read_values(path, 2), [1.5, -2.0])
    with pytest.raises(ParseError):
        cli.read_values(path, 3)  # length mismatch
    bad = _write(tmp_path, "badvals.txt", "1\nx\n")
    with pytest.raises(ParseError) as info:
        cli.read_values(bad, 2)
    assert info.value.line == 2


def _per_line_values(path, expected_rows):
    """``read_values`` before the one-pass parse: ``float(line.strip())`` on
    every line that is not blank or a comment."""
    lines = _text_lines(path)
    values = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            value = float(stripped)
        except ValueError:
            raise ParseError(f"line {lineno}, column 1: not a number: {stripped!r}", line=lineno, column=1) from None
        if not math.isfinite(value):
            raise ParseError(f"line {lineno}, column 1: non-finite value {stripped!r}", line=lineno, column=1)
        values.append(value)
    if len(values) != expected_rows:
        raise ParseError(f"{path}: expected {expected_rows} values, found {len(values)}")
    return np.array(values, dtype=np.float64)


@pytest.mark.parametrize(
    "body",
    [
        "1\n\n-1\n",
        "# labels\n1\n-1\n",
        " +1 \n-1\n",
        "1_000\n-1\n",
        "1\nnan\n",
        "x\n-1\n",
        "1\n-1\ninf\n",
        "1\r\n-1\r\n",
        "\t1\n\xa0-1\n",
        "1\n-1\n1\n",
        "1\n",
    ],
)
def test_read_values_matches_the_per_line_parse(tmp_path, body):
    path = tmp_path / "values.txt"
    path.write_bytes(body.encode("utf-8"))
    assert _outcome(lambda p: cli.read_values(p, 2), str(path)) == _outcome(lambda p: _per_line_values(p, 2), str(path))


def test_clean_values_skip_the_per_line_loop(tmp_path, monkeypatch):
    _, labels = gaussian_class_pair(seed=3)
    path = tmp_path / "clean.labels"
    write_values_file(path, labels)

    def refuse(*args):
        raise AssertionError("a clean values file entered the per-line loop")

    monkeypatch.setattr(cli, "_parse_number", refuse)
    np.testing.assert_array_equal(cli.read_values(str(path), labels.size), labels)


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


def test_accuracies_whose_ledger_leaves_the_float_range_are_refused():
    # Where the parent run divided by an eps_beta^2 or eps_lambda^3 that
    # underflowed to 0, or printed an infinite cost, compress and ledger
    # refuse the flags by name. The tasks that read neither flag do not.
    for flags in ({"bits": 400}, {"bits": 1100}, {"eps_beta": 1e-200}, {"eps_beta": 1e-154}, {"bits": 10**400}):
        for task in ("compress", "ledger"):
            with pytest.raises(OutOfRangeError, match="raise --eps-beta or lower --bits"):
                cli.RunConfig(input_path="x", task=task, **flags).validate()
        cli.RunConfig(input_path="x", task="scaling", **flags).validate()
    # The last accepted exponent keeps every ledger cost finite even at
    # dimensions past any matrix numpy can hold.
    bits, eps_beta = 300, 0.5  # 3 * 299 + 2 = 899
    cli.RunConfig(input_path="x", bits=bits, eps_beta=eps_beta).validate()
    with pytest.raises(OutOfRangeError):
        cli.RunConfig(input_path="x", bits=bits + 1, eps_beta=eps_beta).validate()
    ledger = ledger_predict(2**62, 2**62, 2**62, 2.0 ** (1 - bits), eps_beta, 0.5)
    costs = [getattr(ledger, name) for name in ("spectrum_copies", "anchor_swap_tests", "label_write_cost")]
    assert all(math.isfinite(cost) for cost in costs)
    assert math.isfinite(math.ceil(4.0 / eps_beta**2))


GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SRC = Path(__file__).resolve().parent.parent / "src" / "qpcasim"
RANK3 = os.path.join(GOLDEN_DIR, "inputs", "rank3.csv")


# Golden case -> the flags of the CLI run it records, as RunConfig fields.
RANGE_GOLDENS = {
    "error_eps_beta_underflow": {"eps_beta": 1e-200},
    "error_eps_beta_underflow_sampled": {"eps_beta": 1e-200, "mode": "sampled"},
    "error_eps_beta_overflow_compress": {"eps_beta": 1e-154},
    "error_eps_beta_overflow_ledger": {"eps_beta": 1e-154},
    "error_bits_cost_underflow": {"bits": 400},
    "error_out_of_range": {"theta": 1.5},
    "error_negative_seed": {"seed": -1},
    "error_shots_overflow": {"mode": "sampled", "shots": 10**20, "seed": 3},
    "error_swap_test_shots": {"mode": "sampled", "eps_beta": 1e-10, "seed": 3},
    "error_quantized_bits": {"mode": "quantized", "bits": 100},
}

def _golden_error(case: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, case + ".json"), encoding="utf-8") as fh:
        return json.load(fh)["error"]


# RunConfig field -> the run_compression parameter that takes it.
LIBRARY_NAMES = {"theta": "threshold", "mode": "run_mode"}


def _library_entry_points(case: str, data) -> dict:
    """Name -> call of each library entry point that takes the case's flags."""
    flags = RANGE_GOLDENS[case]
    calls = {"run_compression": lambda: run_compression(data, **{LIBRARY_NAMES.get(k, k): v for k, v in flags.items()})}
    if case.startswith(("error_eps_beta_", "error_bits_")):
        eps_lambda, eps_beta = 2.0 ** (1 - flags.get("bits", 6)), flags.get("eps_beta", 0.01)
        calls["ledger_predict"] = lambda: ledger_predict(32, 8, 3, eps_lambda, eps_beta, 0.5)
    elif case == "error_out_of_range":
        calls["svd_decompose"] = lambda: pca_oracle.svd_decompose(data, 1.5)
    elif case == "error_negative_seed":
        calls["error_scaling_experiment"] = lambda: error_scaling_experiment(data, [0.0], [-1])
    elif case == "error_shots_overflow":
        calls["sample_outcome"] = lambda: sample_outcome(0.5, 10**20, 3)
    elif case == "error_swap_test_shots":
        calls["estimate_anchor"] = lambda: estimate_anchor(np.array([0.6, 0.8]), 0, 1e-10, 3)
    else:
        calls["PhaseConfig"] = lambda: PhaseConfig(MODE_QUANTIZED, bits=100)
    return calls


@pytest.mark.parametrize("case", sorted(RANGE_GOLDENS))
def test_library_entry_points_refuse_what_the_cli_refuses(case):
    # The parent library divided by an eps_beta^2 that underflowed to 0
    # (ZeroDivisionError) where the CLI refused the flags, passed a negative
    # seed to numpy (ValueError), and worded theta and the label width its
    # own way. Every entry point now refuses through one check, with the CLI
    # golden's payload.
    want = _golden_error(case)
    data = cli.ingest_csv(os.path.join(GOLDEN_DIR, "inputs", "rank3.csv"))
    entry_points = {
        "RunConfig.validate": lambda: cli.RunConfig(input_path="x", **RANGE_GOLDENS[case]).validate(),
        **_library_entry_points(case, data),
    }
    for name, call in entry_points.items():
        with pytest.raises(OutOfRangeError) as info:
            call()
        assert info.value.payload() == want, name


# The fixed text of every setting refusal, which its one check writes.
REFUSAL_TEXTS = (
    "theta must lie in (0, 1], got ",
    "bits must be >= 1, got ",
    "quantized label width must be at most ",
    "shots must be >= 1, got ",
    "shots must be at most ",
    "seed must be >= 0, got ",
    "eps-beta must lie in (0, 1), got ",
    " / eps_beta^2) swap-test shots per ",
    "gamma must be positive and finite, got ",
    "unknown mode ",
    "), too large for the ledger's ",
    "subset, when given, must name at least one row",
    "subset rows must lie in [0, ",
    "anchor index ",
)


def test_each_setting_refusal_is_written_once():
    sources = [path.read_text(encoding="utf-8") for path in SRC.glob("*.py")]
    for text in REFUSAL_TEXTS:
        assert sum(source.count(text) for source in sources) == 1, text


def _refusal(call) -> dict:
    with pytest.raises(InvalidInputError) as info:
        call()
    return info.value.payload()


def test_an_empty_subset_gets_one_refusal():
    # The CLI and compress refused an empty subset with two wordings; every
    # entry point now refuses it through one check.
    run = run_compression(cli.ingest_csv(RANK3), seed=0)
    payloads = [
        _refusal(lambda: cli.RunConfig(input_path="x", subset=()).validate()),
        _refusal(lambda: run_compression(run.data, subset=[])),
        _refusal(lambda: compress(run.data, run.model, run.profile, run.cfg, subset=[])),
    ]
    assert payloads[0]["message"] == "subset, when given, must name at least one row"
    assert payloads[1:] == payloads[:1] * 2


def test_one_run_mode_from_the_cli_to_the_labels():
    # The run mode is checked once, wherever it enters, and the report names
    # the mode its labels were written in.
    data = cli.ingest_csv(RANK3)
    want = _refusal(lambda: check_run_mode("bogus"))
    assert _refusal(lambda: PhaseConfig("bogus")) == want
    assert _refusal(lambda: run_compression(data, run_mode="bogus")) == want
    assert _refusal(lambda: cli.RunConfig(input_path="x", mode="bogus").validate()) == want
    for mode in RUN_MODES:
        run = run_compression(data, run_mode=mode, seed=0)
        assert run.result.report.run_mode == run.cfg.mode == mode


def test_a_sampled_eps_beta_is_refused_before_the_decomposition(monkeypatch):
    # The parent decomposed the input before the swap tests refused a shot
    # count past one seeded draw.
    calls = []
    decompose = pca_oracle.svd_decompose
    monkeypatch.setattr(pca_oracle, "svd_decompose", lambda *a, **k: calls.append(a) or decompose(*a, **k))
    data = cli.ingest_csv(RANK3)
    with pytest.raises(OutOfRangeError) as info:
        run_compression(data, **{LIBRARY_NAMES.get(k, k): v for k, v in RANGE_GOLDENS["error_swap_test_shots"].items()})
    assert calls == []
    assert info.value.payload() == _golden_error("error_swap_test_shots")


def test_row_ranges_are_refused_before_the_decomposition(monkeypatch):
    # The parent decomposed the input before it refused a fixed anchor past
    # the last row, and a subset row only inside compress.
    calls = []
    decompose = pca_oracle.svd_decompose
    monkeypatch.setattr(pca_oracle, "svd_decompose", lambda *a, **k: calls.append(a) or decompose(*a, **k))
    data = cli.ingest_csv(RANK3)
    with pytest.raises(OutOfRangeError) as anchor:
        run_compression(data, anchor_index=99)
    with pytest.raises(OutOfRangeError) as subset:
        run_compression(data, subset=[0, 10**6])
    assert calls == []
    assert anchor.value.payload() == _golden_error("error_anchor_range_compress")
    assert subset.value.payload() == {"code": "OUT_OF_RANGE", "message": "subset rows must lie in [0, 32)"}
    run = run_compression(data, seed=0)
    with pytest.raises(OutOfRangeError) as inside:
        compress(run.data, run.model, run.profile, run.cfg, subset=[-1, 3])
    assert inside.value.payload() == subset.value.payload()


@pytest.mark.parametrize("case", sorted(RANGE_GOLDENS))
def test_settings_are_refused_before_the_input_is_read(capsys, tmp_path, case):
    # The parent read and decomposed the input before it refused
    # --mode quantized --bits 100 (in PhaseConfig), and its shot counts
    # only at their draws.
    argv = ["--input", str(tmp_path / "absent.csv")]
    for field, value in RANGE_GOLDENS[case].items():
        argv += ["--" + field.replace("_", "-"), str(value)]
    assert _error_payload(capsys, argv) == _golden_error(case)


def test_a_report_with_a_non_finite_number_is_refused():
    with pytest.raises(NumericalFailureError, match="cannot be written as JSON"):
        cli.render_report({"ledger": {"spectrum_copies": math.inf}})


def test_main_defaults_are_the_config_defaults(monkeypatch):
    # The parser reads every default from RunConfig, so ``--input`` alone
    # gives the config that names only the input.
    seen = []

    def record(config):
        seen.append(config)
        raise InvalidInputError("stop")

    monkeypatch.setattr(cli, "run", record)
    assert cli.main(["--input", "X"]) == 1
    assert seen == [cli.RunConfig(input_path="X")]


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


def test_rank_one_success_probabilities_are_at_most_one(tmp_path):
    # Every row lies on one direction, so each success probability is 1 in
    # exact arithmetic; round-off lifted the postselection's, the closed
    # form's and the sweep's (and the sweep's coefficient) just above it.
    path = _write(tmp_path, "rank1.csv", "3,4\n6,8\n9,12\n")
    report = cli.run(cli.RunConfig(input_path=path, seed=0))
    compression, sweep = report["compression"], report["success_probability_sweep"]
    values = {
        "success_probability": compression["success_probability"],
        "success_probability_identity": compression["success_probability_identity"],
        "ledger": report["ledger"]["success_probability"],
        "sweep": sweep[0]["success_probability"],
        "sweep rotation_constant": sweep[0]["rotation_constant"],
    }
    for name, value in values.items():
        assert 1.0 - 1e-12 <= value <= 1.0, name


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


@pytest.mark.parametrize(
    "task, message",
    [
        ("qsvm", "task qsvm needs --labels with one +-1 label per row"),
        ("qlr", "task qlr needs --labels with one target value per row"),
    ],
    ids=["qsvm", "qlr"],
)
@pytest.mark.parametrize("source", ["missing", "bad.csv"])
def test_a_missing_labels_flag_is_refused_before_the_input_is_read(capsys, tmp_path, task, message, source):
    # The parent read the input first, so it answered with the input's
    # refusal ("cannot read", or a PARSE_ERROR).
    path = str(tmp_path / "nope.csv") if source == "missing" else os.path.join(GOLDEN_DIR, "inputs", source)
    payload = _error_payload(capsys, ["--input", path, "--task", task])
    assert payload == {"code": "INVALID_INPUT", "message": message}


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


def test_out_at_a_directory_leaves_no_temp_file(capsys, rank2_csv, tmp_path):
    # The temp file is written, then cannot replace a directory; it is removed.
    target = tmp_path / "outdir"
    target.mkdir()
    payload = _error_payload(capsys, ["--input", rank2_csv, "--out", str(target)])
    assert payload["code"] == "INVALID_INPUT"
    assert payload["message"].startswith(f"cannot write report to {target}")
    assert not os.path.exists(str(target) + ".tmp")
    assert target.is_dir() and not any(target.iterdir())


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


def test_main_reports_non_utf8_labels(capsys, tmp_path):
    data = _write(tmp_path, "pts.csv", "1,0\n0,1\n")
    labels = tmp_path / "pts.labels"
    labels.write_bytes(b"1\n-\xff1\n")
    payload = _error_payload(capsys, ["--input", data, "--labels", str(labels), "--task", "qsvm"])
    assert payload == {"code": "PARSE_ERROR", "line": 2, "message": "line 2: byte 0xff is not UTF-8 text"}


def test_main_reports_missing_input(capsys, tmp_path):
    payload = _error_payload(capsys, ["--input", str(tmp_path / "nope.csv")])
    assert payload["code"] == "INVALID_INPUT"


def test_main_reports_out_of_range(capsys, rank2_csv):
    payload = _error_payload(capsys, ["--input", rank2_csv, "--theta", "1.5"])
    assert payload["code"] == "OUT_OF_RANGE"


def test_shots_below_one_is_out_of_range_everywhere(capsys, rank2_csv):
    # The shared readout check, a sampled QSVM demo and the CLI refuse a
    # shot count below 1 with one code.
    with pytest.raises(OutOfRangeError, match="shots must be >= 1, got 0"):
        check_shots(0)
    data, labels = gaussian_class_pair(seed=29)
    model = lssvm_train(data.values, labels, 1.0)
    with pytest.raises(OutOfRangeError, match="shots must be >= 1, got 0"):
        qsvm_state_demo(model, data.values, data.values, shots=0, rng_seeds=list(range(data.n_rows)))
    payload = _error_payload(capsys, ["--input", rank2_csv, "--mode", "sampled", "--shots", "0"])
    assert payload == {"code": "OUT_OF_RANGE", "message": "shots must be >= 1, got 0"}


@pytest.mark.parametrize("task", ["compress", "qsvm", "qlr"])
def test_negative_seed_is_out_of_range(capsys, rank2_csv, blobs_files, linear_files, task):
    # numpy refuses a negative seed with a traceback; every task refuses it
    # first, qsvm and qlr in ideal mode too, though they draw nothing from it.
    files = {"compress": (rank2_csv,), "qsvm": blobs_files, "qlr": linear_files}[task]
    argv = ["--input", files[0], "--task", task, "--seed", "-1"]
    if len(files) > 1:
        argv += ["--labels", files[1]]
    payload = _error_payload(capsys, argv)
    assert payload == {"code": "OUT_OF_RANGE", "message": "seed must be >= 0, got -1"}


@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_non_finite_gamma_is_out_of_range(capsys, blobs_files, gamma):
    # Refused before the solve, whose SINGULAR_SYSTEM advice ("a larger
    # gamma regularizes it") would be wrong for this input.
    data_path, labels_path = blobs_files
    payload = _error_payload(
        capsys, ["--input", data_path, "--labels", labels_path, "--task", "qsvm", "--gamma", gamma]
    )
    assert payload["code"] == "OUT_OF_RANGE"
    assert "gamma" in payload["message"]


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


@pytest.mark.parametrize("task", ["compress", "scaling", "ledger"])
def test_labels_rejected_outside_qsvm_and_qlr(capsys, tmp_path, task):
    # Neither file exists: the task's labels check comes before any read.
    missing = str(tmp_path / "missing")
    payload = _error_payload(capsys, ["--input", missing + ".csv", "--labels", missing + ".labels", "--task", task])
    assert payload["code"] == "INVALID_INPUT"
    assert "qsvm and qlr tasks only" in payload["message"]


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


UNKNOWN_MODE = "unknown mode 'bogus'; expected one of ('ideal', 'quantized', 'sampled')"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--mode", "bogus"], UNKNOWN_MODE),
        # The mode is refused before the label width it would quantize.
        (["--mode", "bogus", "--bits", "100"], UNKNOWN_MODE),
        (["--task", "bogus"], "unknown task 'bogus'; expected one of ('compress', 'qsvm', 'qlr', 'scaling', 'ledger')"),
        (["--bits", "6.5"], "argument --bits: invalid int value: '6.5'"),
        (["--theta", "abc"], "argument --theta: invalid float value: 'abc'"),
        (["--seed", "x"], "argument --seed: invalid int value: 'x'"),
    ],
)
def test_usage_errors_are_json_payloads(capsys, rank2_csv, flags, message):
    # The parent let argparse print its usage on stderr and exit 2, with
    # nothing on stdout. An unknown mode or task now gets the library's
    # words, from the one check each vocabulary has.
    payload = _error_payload(capsys, ["--input", rank2_csv] + flags)
    assert payload == {"code": "INVALID_INPUT", "message": message}
    assert capsys.readouterr().err == ""


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: qpcasim") and "one of ideal, quantized, sampled" in out

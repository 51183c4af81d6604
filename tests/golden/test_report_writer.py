"""``cli.render_report`` writes the bytes of ``json.dumps(report,
sort_keys=True, indent=2, allow_nan=False) + "\\n"``.

Both writers are run on the same report, so this holds under every BLAS
kernel: on every golden case's report, as ``cli.run`` builds it from the
case's command line, on every error case's payload, as ``cli.main`` prints
it, and on the edge structures below.
"""

import json
import math

import numpy as np
import pytest

import make_golden
from qpcasim import cli
from qpcasim.errors import NumericalFailureError, QpcaError

REPORT_CASES = sorted(name for name in make_golden.CASES if not name.startswith("error_"))
ERROR_CASES = sorted(name for name in make_golden.CASES if name.startswith("error_"))


def _json_dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _case_report(name: str) -> dict:
    args = cli.build_parser().parse_args(make_golden.case_argv(name))
    if args.subset is not None:
        args.subset = cli._parse_subset(args.subset)
    return cli.run(cli.RunConfig(**vars(args)))


def _error_payload(name: str) -> dict:
    """What ``cli.main`` prints for an error case, before it is written."""
    with pytest.raises(QpcaError) as info:
        _case_report(name)
    return {"error": info.value.payload()}


@pytest.mark.parametrize("case", REPORT_CASES)
def test_golden_reports_render_as_json_dumps(case):
    report = _case_report(case)
    assert cli.render_report(report) == _json_dumps(report)


@pytest.mark.parametrize("case", ERROR_CASES)
def test_error_payloads_render_as_json_dumps(case):
    payload = _error_payload(case)
    assert cli.render_report(payload) == _json_dumps(payload)


def test_the_under_sampled_histogram_keeps_int_keys():
    # Its keys are ints, which both writers sort as numbers before they
    # write them as strings; sorted as strings they would come out in
    # another order.
    histogram = _error_payload("error_under_sampled")["error"]["histogram"]
    assert histogram and all(type(key) is int for key in histogram)
    assert [str(key) for key in sorted(histogram)] != sorted(map(str, histogram))


EDGE_STRUCTURES = {
    "empty": {"dict": {}, "list": [], "tuple": (), "nested": [{}, []]},
    "nested_tuples": {"t": (1, (2.0, "x", (None, ())), [(), (3,)])},
    # The under-sampled payload's histogram: int keys sort as numbers.
    "int_keys": {"histogram": {6: 4, 128: 1, 18: 2}, "neg": {-1: "a", 0: "b"}},
    "scalar_keys": {"f": {2.5: 0, 0.5: 1}, "t": {True: 1}, "f0": {False: 0}, "n": {None: 2}},
    "mixed_float_lists": {
        "bool": [1.0, True, 2.0, False],
        "int": [1.0, 2, 3.5],
        "none": [None, 1.0],
        "str": [0.5, "0.5"],
        "nested": [[1.0, 2.0], [], [3.0]],
    },
    "numpy_floats": {"items": [np.float64(0.1), np.float64(-2.5), 1.0], "scalar": np.float64(1e-300)},
    "float_spellings": {"v": [-0.0, 0.0, 1e16, 1e15, 5e-324, 1.7976931348623157e308, 1e-5, 0.1, -123.456]},
    "strings": {
        "non_ascii": "é ü 漢字 \U0001f600 \ud83d",
        "control": "tab\there\nnew\x00nul\x1f\x7f",
        "quotes": "\"quoted\" \\ back/slash",
        "é": "non-ASCII key",
        "\x01": "control key",
    },
    "scalars": {"true": True, "false": False, "null": None, "int": -7, "big": 2**70, "float": 2.5},
}


@pytest.mark.parametrize("name", sorted(EDGE_STRUCTURES))
def test_edge_structures_render_as_json_dumps(name):
    value = EDGE_STRUCTURES[name]
    assert cli.render_report(value) == _json_dumps(value)


@pytest.mark.parametrize(
    "report",
    [
        {"a": math.inf},
        {"a": -math.inf},
        {"a": math.nan},
        {"a": [1.0, 2.0, math.nan]},
        {"a": [1, -math.inf]},
        {"a": np.float64(math.inf)},
        {math.inf: 1},
        # The first non-finite value in sorted-key order is the one named.
        {"b": math.nan, "a": [0.5, -math.inf, math.inf]},
        {"b": {"y": math.inf, "x": [1.0, math.nan]}, "c": -math.inf},
    ],
)
def test_non_finite_floats_are_refused_as_json_refuses_them(report):
    with pytest.raises(ValueError) as want:
        _json_dumps(report)
    with pytest.raises(NumericalFailureError) as got:
        cli.render_report(report)
    assert str(got.value) == f"the report cannot be written as JSON: {want.value}"


@pytest.mark.parametrize(
    "report",
    [{"a": np.int64(1)}, {"a": [1.0, np.int64(2)]}, {"a": {1, 2}}, {(1, 2): 0}, {"a": object()}],
)
def test_other_types_are_refused_as_json_refuses_them(report):
    with pytest.raises(TypeError) as want:
        _json_dumps(report)
    with pytest.raises(TypeError) as got:
        cli.render_report(report)
    assert str(got.value) == str(want.value)

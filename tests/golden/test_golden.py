"""Live CLI runs against the committed golden reports.

Keys, strings, integers, booleans and nulls must match exactly; floats must
agree to 1e-12 relative. Values that are zero up to round-off (an exact
fidelity's infidelity, say) have no relative precision, so floats also pass
within 1e-15 absolute.
"""

import json
import math

import pytest

import make_golden

REL_TOL = 1e-12
ABS_TOL = 1e-15


def _mismatches(got, want, path="$"):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            keys = sorted(got) if isinstance(got, dict) else type(got).__name__
            return [f"{path}: keys {keys} != {sorted(want)}"]
        return [m for key in want for m in _mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for k, (g, w) in enumerate(zip(got, want)) for m in _mismatches(g, w, f"{path}[{k}]")]
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("case", sorted(make_golden.CASES))
def test_golden_report(case):
    with open(make_golden.golden_path(case), encoding="utf-8") as fh:
        want = json.load(fh)
    got = json.loads(make_golden.run_case(case))
    assert _mismatches(got, want) == []


def test_comparison_is_strict():
    assert _mismatches({"a": 1.0}, {"a": 1.0 + 1e-13}) == []
    assert _mismatches({"a": 1.0}, {"a": 1.0 + 1e-9}) != []
    assert _mismatches({"a": 1}, {"a": 1.0}) != []
    assert _mismatches({"a": 1, "b": 2}, {"a": 1}) != []
    assert _mismatches([1, 2], [1, 2, 3]) != []

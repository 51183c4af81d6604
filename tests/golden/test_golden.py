"""Live CLI runs against the committed golden reports.

Keys, strings, integers, booleans and nulls must match exactly; floats must
agree to 1e-12 relative. Values that are zero up to round-off (an exact
fidelity's infidelity, say) have no relative precision, so floats also pass
within 1e-15 absolute.

Every golden file was written under OpenBLAS's SkylakeX kernel, and BLAS
rounding depends on the kernel. Under that kernel a live run must also
reproduce its golden file byte for byte, which is what a behaviour-preserving
refactor claims; under any other kernel that check is skipped.
"""

import functools
import json
import math

import pytest

import make_golden

REL_TOL = 1e-12
ABS_TOL = 1e-15
# The OpenBLAS kernel the golden files were written under.
GOLDEN_KERNEL = "SkylakeX"

# Each case runs once, for both comparisons.
_run_case = functools.lru_cache(maxsize=None)(make_golden.run_case)


def _mismatches(got, want):
    return [
        f"{path}: {new!r} != {old!r}"
        for path, old, new in make_golden.changed_fields(got, want)
        if not (
            isinstance(old, float)
            and isinstance(new, float)
            and math.isclose(new, old, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        )
    ]


@pytest.mark.parametrize("case", sorted(make_golden.CASES))
def test_golden_report(case):
    with open(make_golden.golden_path(case), encoding="utf-8") as fh:
        want = json.load(fh)
    got = json.loads(_run_case(case))
    assert _mismatches(got, want) == []


@pytest.mark.parametrize("case", sorted(make_golden.CASES))
def test_golden_bytes(case):
    kernel = make_golden.blas_kernel()
    if kernel != GOLDEN_KERNEL:
        pytest.skip(f"goldens were written under the {GOLDEN_KERNEL} kernel; this run uses {kernel}")
    with open(make_golden.golden_path(case), "rb") as fh:
        want = fh.read()
    assert _run_case(case).encode("utf-8") == want


def test_comparison_is_strict():
    assert _mismatches({"a": 1.0}, {"a": 1.0 + 1e-13}) == []
    assert _mismatches({"a": 1.0}, {"a": 1.0 + 1e-9}) != []
    assert _mismatches({"a": 1}, {"a": 1.0}) != []
    assert _mismatches({"a": 1, "b": 2}, {"a": 1}) != []
    assert _mismatches({"a": 1}, {"a": 1, "b": 2}) != []
    assert _mismatches([1, 2], [1, 2, 3]) != []


def test_check_names_the_changed_fields():
    want = {"a": {"b": 1.0, "c": [1, 2.0]}, "d": "x", "e": [1]}
    got = {"a": {"b": 1.5, "c": [1, 2.0]}, "d": "x", "e": [1, 2]}
    assert make_golden.changed_fields(got, want) == [("$.a.b", 1.0, 1.5), ("$.e", [1], [1, 2])]
    assert make_golden.changed_fields(want, want) == []
    assert make_golden.changed_fields({"a": 1}, {"a": 1.0}) == [("$.a", 1.0, 1)]
    # A key one side lacks is named by its own path; the shared keys are
    # still compared one by one.
    before = {"c": {"k": 1, "out": None, "z": 2.0}}
    after = {"c": {"k": 1, "z": 2.5, "new": [1]}}
    missing = make_golden.MISSING
    assert make_golden.changed_fields(after, before) == [
        ("$.c.out", None, missing), ("$.c.z", 2.0, 2.5), ("$.c.new", missing, [1])
    ]
    assert make_golden.max_float_change(after, before) is None
    assert make_golden.max_float_change(got, want) is None
    assert make_golden.max_float_change({"a": [2.0, 1.5]}, {"a": [2.0, 1.0]}) == 0.5
    assert make_golden.max_float_change({"a": 1e-17}, {"a": 0.0}) == math.inf
    assert make_golden.max_float_abs_change(got, want) is None
    assert make_golden.max_float_abs_change({"a": [2.0, 1.5, 1e-17]}, {"a": [2.0, 1.0, 0.0]}) == 0.5
    assert make_golden.max_float_abs_change({"a": 1e-17}, {"a": 0.0}) == 1e-17
    assert make_golden.max_float_abs_change(want, want) == 0.0

"""Golden CLI reports: the fixed cases, and the script that regenerates them.

Each case is one ``qpcasim`` command line over a committed input under
``inputs/``. Its golden file ``<case>.json`` holds exactly what the CLI
printed on stdout (a report, or an error payload), except that the echoed
input and label paths are cut to their base names so the files do not
depend on where the repository lives.

Regenerate every input and golden file with

    PYTHONPATH=src python3 tests/golden/make_golden.py

or only the named cases' golden files (inputs are always rewritten) with

    PYTHONPATH=src python3 tests/golden/make_golden.py scaling error_parse

and review the diff: a refactor that preserves behaviour leaves every
success-path golden byte-identical. To see that without touching the
committed files, run

    PYTHONPATH=src python3 tests/golden/make_golden.py --check [case ...]

It prints the OpenBLAS kernel numpy's BLAS ran under (``blas_kernel``;
BLAS rounding, and so the last bits of some floats, depends on it), then
regenerates the reports into a temporary directory from the committed
inputs and prints, for each case, whether the bytes match the golden file
and, when they do not, the largest relative change of any float; it exits 1
when any case differs. ``test_golden.py`` compares live runs against these
files.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from qpcasim import cli
from qpcasim.datasets import (
    dataset_from_spectrum,
    gaussian_class_pair,
    linear_trend_dataset,
    rank_k_dataset,
    write_matrix_csv,
    write_values_file,
)

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))
INPUT_DIR = os.path.join(GOLDEN_DIR, "inputs")

# case name -> (input file, labels file or None, extra CLI arguments)
CASES = {
    "compress_ideal": ("rank3.csv", None, ["--seed", "3"]),
    "compress_quantized": ("rank3.csv", None, ["--mode", "quantized", "--seed", "3"]),
    "compress_sampled": ("rank3.csv", None, ["--mode", "sampled", "--shots", "20000", "--seed", "3"]),
    "compress_subset": ("rank3.csv", None, ["--subset", "0,3,5,9", "--seed", "3"]),
    "compress_fixed_anchor": ("rank3.csv", None, ["--mode", "quantized", "--anchor", "4"]),
    # 300 rows: the overlap audit crosses three 128-row blocks, and its fields
    # pin the rounding of that block height.
    "compress_tall": ("tall.csv", None, ["--seed", "3"]),
    # Comment and blank lines, CRLF endings, padded fields, '+.5' / '3.' / '30E-1' tokens.
    "compress_decorated": ("decorated.csv", None, []),
    # Seed 0 draws the weak row (1, 1) first, so the report lists two anchors.
    "compress_sampled_redraw": ("tri.csv", None, ["--mode", "sampled", "--seed", "0"]),
    # Every row lies on one direction, so the anchor's exact coefficient is 1;
    # it rounds to just above 1 unless capped.
    "compress_rank1": ("rank1.csv", None, ["--seed", "0"]),
    "qsvm_ideal": ("blobs.csv", "blobs.labels", ["--task", "qsvm", "--seed", "1"]),
    "qsvm_sampled": (
        "blobs.csv", "blobs.labels",
        ["--task", "qsvm", "--mode", "sampled", "--shots", "20000", "--seed", "6"],
    ),
    "qlr_ideal": ("lin.csv", "lin.targets", ["--task", "qlr", "--seed", "1"]),
    "qlr_sampled": ("lin.csv", "lin.targets", ["--task", "qlr", "--mode", "sampled", "--seed", "2"]),
    "scaling": ("rank3.csv", None, ["--task", "scaling", "--seed", "3"]),
    "ledger": ("rank3.csv", None, ["--task", "ledger", "--seed", "2"]),
    "error_parse": ("bad.csv", None, []),
    # Nonzero rows whose sums of squares underflow to 0 and overflow.
    "error_tiny_row": ("tiny.csv", None, []),
    "error_huge_row": ("huge.csv", None, []),
    "error_invalid_input": ("rank3.csv", None, ["--task", "qsvm"]),
    "error_out_of_range": ("rank3.csv", None, ["--theta", "1.5"]),
    # Every identity row lies on one principal axis, so every draw is weak.
    "error_weak_anchor_compress": ("identity.csv", None, []),
    "error_weak_anchor_ledger": ("identity.csv", None, ["--task", "ledger"]),
    "error_weak_anchor_scaling": ("identity.csv", None, ["--task", "scaling"]),
    "error_weak_anchor_fixed": ("identity.csv", None, ["--anchor", "0"]),
    "error_degenerate_spectrum": ("rank3.csv", None, ["--mode", "quantized", "--bits", "2", "--theta", "0.99"]),
    # Labels [31, 1, 0, 0]: the third kept component has label 0 and shares it
    # with the tail component, whose variance would receive its token.
    "error_label_collision": ("collision.csv", None, ["--mode", "quantized", "--theta", "0.995", "--bits", "6"]),
    "error_under_sampled": ("undersampled.csv", None, ["--mode", "sampled", "--theta", "1.0", "--bits", "10"]),
    "error_mode_scaling": ("rank3.csv", None, ["--task", "scaling", "--mode", "sampled"]),
    "error_mode_ledger": ("rank3.csv", None, ["--task", "ledger", "--mode", "quantized"]),
    "error_anchor_scaling": ("rank3.csv", None, ["--task", "scaling", "--anchor", "4"]),
    "error_anchor_qsvm": ("blobs.csv", "blobs.labels", ["--task", "qsvm", "--anchor", "5"]),
    "error_anchor_qlr": ("lin.csv", "lin.targets", ["--task", "qlr", "--anchor", "5"]),
    # Kernel entries near 1e300: the saddle residual and the system's norm
    # overflow, so the backward error is NaN and never under the tolerance.
    "error_singular_qsvm": ("blobs_huge.csv", "blobs.labels", ["--task", "qsvm"]),
    # Only qsvm and qlr read --labels; the check runs before any file is read.
    "error_labels_compress": ("rank3.csv", "blobs.labels", []),
}


def _decorated_token(value: float, k: int) -> str:
    """One matrix entry in a spelling ``float()`` accepts but ``%.17g`` never
    writes: integers as '3.', '3E0' or '30E-1', fractions with an explicit
    sign and no leading zero ('+.75', '-2.25')."""
    if value == int(value):
        n = int(value)
        return (f"{n}.", f"{n}E0", f"{10 * n}E-1")[k % 3]
    text = repr(float(value))
    if abs(value) < 1:
        text = text.replace("0.", ".", 1)
    return text if text.startswith("-") else "+" + text


def write_decorated_csv(path: str) -> None:
    """A 12x6 rank-3 matrix of quarter-integers, written with comment lines,
    blank and whitespace-only lines, CRLF line endings, fields padded with
    spaces and tabs, and the token spellings of ``_decorated_token``."""
    rng = np.random.default_rng(0)
    matrix = rng.integers(-4, 5, (12, 3)) @ rng.integers(-4, 5, (3, 6)) / 4.0
    lines = ["# decorated rank-3 matrix", ""]
    k = 0
    for i, row in enumerate(matrix):
        if i == 4:
            lines += ["   ", "  # indented comment"]
        fields = []
        for value in row:
            fields.append(" " * (k % 3) + _decorated_token(value, k) + ("\t" if k % 10 == 0 else ""))
            k += 1
        lines.append(",".join(fields))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def write_inputs(directory: str = INPUT_DIR) -> None:
    """Write every input file the cases read."""
    os.makedirs(directory, exist_ok=True)

    def path(name):
        return os.path.join(directory, name)

    write_matrix_csv(path("rank3.csv"), rank_k_dataset(32, 8, 3, seed=5).values)
    write_matrix_csv(path("tall.csv"), rank_k_dataset(300, 6, 3, seed=7).values)
    write_matrix_csv(path("tri.csv"), np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    write_matrix_csv(path("rank1.csv"), np.array([[3.0, 4.0], [6.0, 8.0], [9.0, 12.0]]))
    write_matrix_csv(path("identity.csv"), np.eye(4))
    # The smallest kept label is 1; 400 draws miss it.
    write_matrix_csv(
        path("undersampled.csv"), rank_k_dataset(16, 8, 8, 1, sigma_range=(0.12, 2.0)).values
    )
    write_matrix_csv(
        path("collision.csv"), dataset_from_spectrum([0.97, 0.02, 0.008, 0.002], n_rows=16, seed=3).values
    )
    points, labels = gaussian_class_pair(seed=29)
    write_matrix_csv(path("blobs.csv"), points.values)
    write_values_file(path("blobs.labels"), labels)
    write_matrix_csv(path("blobs_huge.csv"), points.values * 1e150)
    data, targets, _ = linear_trend_dataset(12, 6, 2, seed=11)
    write_matrix_csv(path("lin.csv"), data.values)
    write_values_file(path("lin.targets"), targets)
    with open(path("bad.csv"), "w", encoding="utf-8") as fh:
        fh.write("1,2\n3,x\n")
    with open(path("tiny.csv"), "w", encoding="utf-8") as fh:
        fh.write("1,2\n1e-170,1e-170\n3,1\n")
    with open(path("huge.csv"), "w", encoding="utf-8") as fh:
        fh.write("1,2\n1e200,1e200\n3,1\n")
    write_decorated_csv(path("decorated.csv"))


def run_case(name: str) -> str:
    """Run one case through ``cli.main`` and return its normalized stdout."""
    input_name, labels_name, extra = CASES[name]
    argv = ["--input", os.path.join(INPUT_DIR, input_name)]
    if labels_name is not None:
        argv += ["--labels", os.path.join(INPUT_DIR, labels_name)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv + extra)
    doc = json.loads(out.getvalue())
    config = doc.get("config")
    if config is None:
        return out.getvalue()
    for key in ("input_path", "labels_path"):
        if config[key] is not None:
            config[key] = os.path.basename(config[key])
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, name + ".json")


def max_float_change(got, want) -> float | None:
    """Largest relative change between matching floats of two JSON documents,
    or None when anything other than a float differs (keys, lengths, types,
    strings, integers)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return None
        pairs = [(got[key], want[key]) for key in want]
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return None
        pairs = list(zip(got, want))
    elif isinstance(want, float) and isinstance(got, float):
        if got == want:
            return 0.0
        return abs(got - want) / abs(want) if want != 0.0 else math.inf
    else:
        return 0.0 if type(got) is type(want) and got == want else None
    changes = [max_float_change(g, w) for g, w in pairs]
    return None if None in changes else max(changes, default=0.0)


def blas_kernel() -> str:
    """The kernel (core type) of the OpenBLAS bundled with numpy, as its
    ``scipy_openblas_get_corename64_`` names it (``OPENBLAS_CORETYPE``
    selects it), or "unknown" when numpy's BLAS is not that OpenBLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
    for lib in sorted(glob.glob(libs)):
        try:
            corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def check(names: list[str]) -> int:
    """Regenerate the named cases (default: all) into a temporary directory
    and compare each with its golden file; returns the number that differ."""
    print(f"BLAS kernel: {blas_kernel()}")
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or CASES:
            fresh = os.path.join(tmp, name + ".json")
            with open(fresh, "w", encoding="utf-8") as fh:
                fh.write(run_case(name))
            with open(fresh, "rb") as fh:
                got = fh.read()
            with open(golden_path(name), "rb") as fh:
                want = fh.read()
            if got == want:
                print(f"{name}: identical")
                continue
            differ += 1
            change = max_float_change(json.loads(got), json.loads(want))
            if change is None:
                print(f"{name}: DIFFERS beyond floats")
            else:
                print(f"{name}: DIFFERS, largest relative float change {change:.3g}")
    return differ


def main(names: list[str]) -> None:
    unknown = sorted(set(names) - set(CASES) - {"--check"})
    if unknown:
        raise SystemExit(f"unknown cases {unknown}; known: {sorted(CASES)}")
    if "--check" in names:
        raise SystemExit(1 if check([n for n in names if n != "--check"]) else 0)
    write_inputs()
    for name in names or CASES:
        with open(golden_path(name), "w", encoding="utf-8") as fh:
            fh.write(run_case(name))
        print(f"wrote {golden_path(name)}")


if __name__ == "__main__":
    main(sys.argv[1:])

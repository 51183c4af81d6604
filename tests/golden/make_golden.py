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
and, when they do not, the largest relative and the largest absolute
change of any float and the first few changed JSON paths with their old
and new values (``<missing>`` on the side that lacks a key); it exits 1
when any case differs. ``test_golden.py``
compares live runs against these files.
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
# Changed JSON paths that ``--check`` prints per differing case.
SHOWN_FIELDS = 5

# case name -> (input file, labels file or None, extra CLI arguments)
CASES = {
    "compress_ideal": ("rank3.csv", None, ["--seed", "3"]),
    "compress_quantized": ("rank3.csv", None, ["--mode", "quantized", "--seed", "3"]),
    "compress_sampled": ("rank3.csv", None, ["--mode", "sampled", "--shots", "20000", "--seed", "3"]),
    "compress_subset": ("rank3.csv", None, ["--subset", "0,3,5,9", "--seed", "3"]),
    "compress_fixed_anchor": ("rank3.csv", None, ["--mode", "quantized", "--anchor", "4"]),
    # 300 rows: the overlap audit crosses five 64-row blocks, and its fields
    # pin the rounding of that block height.
    "compress_tall": ("tall.csv", None, ["--seed", "3"]),
    # Comment and blank lines, CRLF endings, padded fields, '+.5' / '3.' / '30E-1' tokens.
    "compress_decorated": ("decorated.csv", None, []),
    # Seed 0 draws the weak row (1, 1) first, so the report lists two anchors.
    "compress_sampled_redraw": ("tri.csv", None, ["--mode", "sampled", "--seed", "0"]),
    # Every row lies on one direction, so the anchor's exact coefficient is 1;
    # it rounds to just above 1 unless capped.
    "compress_rank1": ("rank1.csv", None, ["--seed", "0"]),
    # 40-bit labels: the sampled spectrum is drawn over the labels present,
    # not over a register of 2^40 values.
    "compress_sampled_wide_labels": (
        "rank3.csv", None, ["--mode", "sampled", "--bits", "40", "--shots", "20000", "--seed", "3"],
    ),
    # Fewer rows than features (8x32, rank 3): both axes are padded, and the
    # spectrum lists carry a zero tail past the rank.
    "compress_wide": ("wide.csv", None, ["--seed", "3"]),
    # 64x48 rank 3: the smaller side holds LOW_RANK_BLOCK four times over,
    # so the decomposition is tried from the certified sketch first.
    "compress_lowrank": ("lowrank.csv", None, ["--seed", "5"]),
    "compress_lowrank_quantized": ("lowrank.csv", None, ["--mode", "quantized", "--seed", "5"]),
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
    # A byte that is not UTF-8 (Latin-1 text, say), in the matrix and in a
    # labels file: each is refused naming its line.
    "error_not_utf8": ("latin1.csv", None, []),
    "error_not_utf8_labels": ("blobs.csv", "latin1.labels", ["--task", "qsvm"]),
    # Nonzero rows whose sums of squares underflow to 0 and overflow.
    "error_tiny_row": ("tiny.csv", None, []),
    "error_huge_row": ("huge.csv", None, []),
    "error_invalid_input": ("rank3.csv", None, ["--task", "qsvm"]),
    "error_out_of_range": ("rank3.csv", None, ["--theta", "1.5"]),
    # numpy refuses a negative seed; the config check refuses it first.
    "error_negative_seed": ("rank3.csv", None, ["--seed", "-1"]),
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
    # A fixed anchor past the last row: compress and ledger refuse it in
    # the same words, compress before it samples the spectrum.
    "error_anchor_range_compress": ("rank3.csv", None, ["--anchor", "99"]),
    "error_anchor_range_ledger": ("rank3.csv", None, ["--task", "ledger", "--anchor", "99"]),
    # Kernel entries near 1e300: the saddle residual and the system's norm
    # overflow, so the backward error is NaN and never under the tolerance.
    "error_singular_qsvm": ("blobs_huge.csv", "blobs.labels", ["--task", "qsvm"]),
    # Only qsvm and qlr read --labels; the check runs before any file is read.
    "error_labels_compress": ("rank3.csv", "blobs.labels", []),
    # Shot counts past 2^63 - 1, which one seeded draw cannot take: the
    # postselection readout's, and the swap tests' ceil(4 / eps_beta^2).
    "error_shots_overflow": (
        "rank3.csv", None, ["--mode", "sampled", "--shots", "100000000000000000000", "--seed", "3"],
    ),
    "error_swap_test_shots": ("rank3.csv", None, ["--mode", "sampled", "--eps-beta", "1e-10", "--seed", "3"]),
    # Quantized labels up to 2^62 fit int64; a wider register is refused.
    "error_quantized_bits": ("rank3.csv", None, ["--mode", "quantized", "--bits", "100"]),
    # Accuracies whose ledger costs, 1 / (eps_beta^2 eps_lambda^3) and its
    # kin, leave the float range: eps_lambda^3 or eps_beta^2 underflows to
    # 0, a cost overflows to infinity, or eps_lambda = 2^(1 - bits) is 0
    # itself; in sampled mode the swap tests' ceil(4 / eps_beta^2) too.
    "error_bits_cost_underflow": ("rank3.csv", None, ["--bits", "400"]),
    "error_bits_resolution_zero": ("rank3.csv", None, ["--bits", "1100"]),
    "error_eps_beta_underflow": ("rank3.csv", None, ["--eps-beta", "1e-200"]),
    "error_eps_beta_underflow_sampled": ("rank3.csv", None, ["--mode", "sampled", "--eps-beta", "1e-200"]),
    "error_eps_beta_overflow_compress": ("rank3.csv", None, ["--eps-beta", "1e-154"]),
    "error_eps_beta_overflow_ledger": ("rank3.csv", None, ["--task", "ledger", "--eps-beta", "1e-154"]),
    # Usage errors are payloads too: an unknown mode gets the library's
    # words, a value its flag's type refuses argparse's.
    "error_unknown_mode": ("rank3.csv", None, ["--mode", "bogus"]),
    "error_bits_not_integer": ("rank3.csv", None, ["--bits", "6.5"]),
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
    write_matrix_csv(path("wide.csv"), rank_k_dataset(8, 32, 3, seed=1).values)
    write_matrix_csv(path("lowrank.csv"), rank_k_dataset(64, 48, 3, seed=4).values)
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
    with open(path("latin1.csv"), "wb") as fh:
        fh.write(b"1.0,2.0\n\xff\xfe,3.0\n")
    with open(path("latin1.labels"), "wb") as fh:
        fh.write(b"# labels\n1\n-1\n\xb11\n")
    with open(path("tiny.csv"), "w", encoding="utf-8") as fh:
        fh.write("1,2\n1e-170,1e-170\n3,1\n")
    with open(path("huge.csv"), "w", encoding="utf-8") as fh:
        fh.write("1,2\n1e200,1e200\n3,1\n")
    write_decorated_csv(path("decorated.csv"))


def case_argv(name: str) -> list[str]:
    """The case's ``qpcasim`` command line, with its inputs under ``INPUT_DIR``."""
    input_name, labels_name, extra = CASES[name]
    argv = ["--input", os.path.join(INPUT_DIR, input_name)]
    if labels_name is not None:
        argv += ["--labels", os.path.join(INPUT_DIR, labels_name)]
    return argv + extra


def run_case(name: str) -> str:
    """Run one case through ``cli.main`` and return its normalized stdout:
    an error payload as printed, a report rendered again by
    ``cli.render_report`` once its paths are cut to base names."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(case_argv(name))
    doc = json.loads(out.getvalue())
    config = doc.get("config")
    if config is None:
        return out.getvalue()
    for key in ("input_path", "labels_path"):
        if config[key] is not None:
            config[key] = os.path.basename(config[key])
    return cli.render_report(doc)


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, name + ".json")


class _Missing:
    """The side of a changed field on which its key is absent."""

    def __repr__(self) -> str:
        return "<missing>"


MISSING = _Missing()


def changed_fields(got, want, path: str = "$") -> list[tuple[str, object, object]]:
    """(JSON path, old value, new value) for every place where ``got``
    differs from ``want``: a leaf value, a whole list whose length differs,
    or a key that one side lacks, with ``MISSING`` for the lacking side."""
    if isinstance(want, dict) and isinstance(got, dict):
        keys = list(want) + [key for key in got if key not in want]
        return [
            c for key in keys for c in changed_fields(got.get(key, MISSING), want.get(key, MISSING), f"{path}.{key}")
        ]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [c for k, (g, w) in enumerate(zip(got, want)) for c in changed_fields(g, w, f"{path}[{k}]")]
    if type(got) is type(want) and got == want:
        return []
    return [(path, want, got)]


def _float_changes(got, want) -> list[tuple[float, float]] | None:
    """(old, new) for every changed float of two JSON documents, or None
    when anything other than a float differs (keys, lengths, types, strings,
    integers)."""
    pairs = []
    for _, old, new in changed_fields(got, want):
        if not (isinstance(old, float) and isinstance(new, float)):
            return None
        pairs.append((old, new))
    return pairs


def max_float_change(got, want) -> float | None:
    """Largest relative change between matching floats of two JSON documents,
    or None when anything other than a float differs."""
    pairs = _float_changes(got, want)
    if pairs is None:
        return None
    return max((abs(new - old) / abs(old) if old != 0.0 else math.inf for old, new in pairs), default=0.0)


def max_float_abs_change(got, want) -> float | None:
    """Largest absolute change between matching floats of two JSON
    documents, or None when anything other than a float differs. A float
    that moves off or onto 0.0 has an infinite relative change; its
    absolute change shows whether the move is round-off."""
    pairs = _float_changes(got, want)
    if pairs is None:
        return None
    return max((abs(new - old) for old, new in pairs), default=0.0)


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
            got, want = json.loads(got), json.loads(want)
            change = max_float_change(got, want)
            if change is None:
                print(f"{name}: DIFFERS beyond floats")
            else:
                print(
                    f"{name}: DIFFERS, largest float change {change:.3g} relative, "
                    f"{max_float_abs_change(got, want):.3g} absolute"
                )
            changed = changed_fields(got, want)
            for path, old, new in changed[:SHOWN_FIELDS]:
                print(f"  {path}: {_short(old)} -> {_short(new)}")
            if len(changed) > SHOWN_FIELDS:
                print(f"  ... and {len(changed) - SHOWN_FIELDS} more")
    return differ


def _short(value, limit: int = 60) -> str:
    """``value`` as JSON, cut to ``limit`` characters."""
    text = repr(value) if value is MISSING else json.dumps(value, sort_keys=True)
    return text if len(text) <= limit else text[: limit - 3] + "..."


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

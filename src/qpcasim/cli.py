"""Command-line interface: CSV ingestion, task orchestration, JSON reports.

One process runs one task (compress, qsvm, qlr, scaling, or ledger) on one
dataset and writes a single JSON report. Reports are byte-identical for
identical config and seed: keys are sorted, values are plain Python types,
and anything nondeterministic (wall-clock timings) goes to stderr instead.

Importing this module loads only what every task needs: ``errors``,
``modes``, ``statevector`` and ``pca_oracle``. A task imports the rest of
its stack when it runs: compress, scaling and ledger the compression
pipeline (``qpca_pipeline``, ``sv_engine``, ``qram_store``), qsvm and qlr
``qml_apps``. The README's Layout section gives the measured cost of each
import.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import math
import os
import sys
import time
from dataclasses import dataclass, fields, is_dataclass
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, ParseError, QpcaError
from .modes import MODE_IDEAL, MODE_SAMPLED, RUN_MODES, anchor_shots, check_eps_beta, check_gamma, check_label_bits
from .modes import check_ledger_accuracy, check_run_mode, check_seed, check_shots, check_subset, check_theta
from .pca_oracle import DataMatrix, SpectralModel, coefficients, norm_range_fault, project, svd_decompose

if TYPE_CHECKING:
    from .qpca_pipeline import RunResult

TASKS = ("compress", "qsvm", "qlr", "scaling", "ledger")

SCALING_EPS_GRID = (0.0, 0.02, 0.04, 0.08)
SCALING_SEED_COUNT = 8


@dataclass
class RunConfig:
    """Everything one invocation needs; mirrors the CLI flags one-to-one."""

    input_path: str
    labels_path: str | None = None
    theta: float = 0.95
    bits: int = 6
    mode: str = MODE_IDEAL
    eps_beta: float = 0.01
    shots: int = 100_000
    seed: int = 0
    task: str = "compress"
    subset: tuple[int, ...] | None = None
    anchor_index: int | None = None
    gamma: float = 1.0
    output_path: str | None = None

    def validate(self) -> None:
        # The task and the mode first: the other checks read them.
        if self.task not in TASKS:
            raise InvalidInputError(f"unknown task {self.task!r}; expected one of {TASKS}")
        check_run_mode(self.mode)
        check_theta(self.theta)
        check_label_bits(self.bits, self.mode)
        check_shots(self.shots)
        check_seed(self.seed)
        check_eps_beta(self.eps_beta)
        check_gamma(self.gamma)
        if self.labels_path is not None and self.task not in ("qsvm", "qlr"):
            raise InvalidInputError(f"labels apply to the qsvm and qlr tasks only, not {self.task!r}")
        if self.subset is not None and self.task != "compress":
            raise InvalidInputError(f"subset applies to the compress task only, not {self.task!r}")
        if self.anchor_index is not None and self.task == "scaling":
            raise InvalidInputError("the 'scaling' task draws its own anchors and takes no fixed anchor")
        if self.anchor_index is not None and self.task in ("qsvm", "qlr"):
            raise InvalidInputError(
                f"the {self.task!r} task takes no anchor: none of its reported values depends on eigenvector signs"
            )
        if self.mode != MODE_IDEAL and self.task in ("scaling", "ledger"):
            raise InvalidInputError(f"the {self.task!r} task runs in ideal mode only, not {self.mode!r}")
        check_subset(self.subset)
        if self.task in ("compress", "ledger"):
            check_ledger_accuracy(self.eps_beta, self.bits)
        if self.task == "compress" and self.mode == MODE_SAMPLED:
            anchor_shots(self.eps_beta)  # the swap tests' shot count
        if self.labels_path is None and self.task == "qsvm":
            raise InvalidInputError("task qsvm needs --labels with one +-1 label per row")
        if self.labels_path is None and self.task == "qlr":
            raise InvalidInputError("task qlr needs --labels with one target value per row")

    def echo(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["subset"] = list(self.subset) if self.subset is not None else None
        return out


# -- ingestion -------------------------------------------------------------------


def _read_lines(path: str) -> list[str]:
    """The lines of the UTF-8 text file at ``path``, with a byte-order mark
    at its start dropped. Only ``\\n``, ``\\r\\n`` and ``\\r`` end a line,
    not the other Unicode line boundaries (form feed, U+2028 and the like).
    A file that cannot be read is refused as ``INVALID_INPUT``, and a byte
    that is not UTF-8 as a ``ParseError`` naming the 1-based line that
    holds it."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from None
    raw = raw.removeprefix(codecs.BOM_UTF8)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bad byte ends the last line of the bytes before it, or starts
        # a new one after a line break; bytes.splitlines breaks at the same
        # three line ends as the split below.
        line = len((raw[: exc.start] + b"x").splitlines())
        raise ParseError(f"line {line}: byte 0x{raw[exc.start]:02x} is not UTF-8 text", line=line) from None
    if "\r" in text:  # a scan for "\r\n" costs more than the split itself
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the end of the last line starts no line
    return lines


def ingest_csv(path: str) -> DataMatrix:
    """Read a comma-separated numeric matrix.

    Lines starting with '#' and blank lines are skipped. Every remaining
    line must have the same number of fields, each a token that ``float()``
    accepts once stripped of whitespace ('+.5', '1E2', '1_000') and that is
    finite. The kept lines are parsed in one ``np.loadtxt`` pass; where it
    refuses a token (``1_000``, non-ASCII digits, a ragged row) or reads a
    non-finite value, ``_parse_fields`` parses them again with ``float()``
    and either accepts them or raises the ``ParseError`` with the offending
    1-based line and column. Both paths end in ``DataMatrix``'s one norm
    check; only when it refuses a row is that row found again
    (``norm_range_fault``) and the refusal raised as a ``ParseError`` that
    names its line.
    """
    lines = _read_lines(path)
    kept: list[str] = []
    row_lines: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            kept.append(stripped)
            row_lines.append(lineno)
    if not kept:
        raise ParseError(f"{path}: no data rows")

    try:
        arr = np.loadtxt(kept, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        arr = None
    if arr is None or not np.isfinite(arr).all():
        arr = _parse_fields(kept, row_lines)
    try:
        return DataMatrix(arr)
    except InvalidInputError:
        # Both parses rule out every other refusal, so this one names a row.
        row, problem = norm_range_fault(arr)
        line = row_lines[row]
        raise ParseError(f"line {line}: {problem}", line=line) from None


def _parse_fields(kept: list[str], row_lines: list[int]) -> np.ndarray:
    """Parse the kept lines field by field with ``float()``, raising a
    ``ParseError`` at the first ragged row, unparsable token or non-finite
    value."""
    rows: list[list[float]] = []
    width: int | None = None
    for lineno, stripped in zip(row_lines, kept):
        fields = [f.strip() for f in stripped.split(",")]
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ParseError(f"line {lineno}: expected {width} fields, found {len(fields)}", line=lineno)
        rows.append([_parse_number(token, lineno, col) for col, token in enumerate(fields, start=1)])
    return np.array(rows, dtype=np.float64)


def _parse_number(token: str, line: int, column: int) -> float:
    """``float(token)``, or a ``ParseError`` at (line, column) for a token
    that is not a number or not finite."""
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"line {line}, column {column}: not a number: {token!r}", line=line, column=column) from None
    if not math.isfinite(value):
        raise ParseError(f"line {line}, column {column}: non-finite value {token!r}", line=line, column=column)
    return value


def read_values(path: str, expected_rows: int) -> np.ndarray:
    """Read one number per line (labels or regression targets).

    Blank lines and lines starting with '#' are skipped; every other line
    must hold one finite number that ``float()`` reads. A file of numbers
    alone is parsed in one ``float()`` pass. Any other file is read again
    line by line, which skips the blank and comment lines and raises the
    ``ParseError`` of the first bad line."""
    lines = _read_lines(path)
    try:
        values = np.array([float(line) for line in lines], dtype=np.float64)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        values = []
        for lineno, raw in enumerate(lines, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            values.append(_parse_number(stripped, lineno, 1))
    if len(values) != expected_rows:
        raise ParseError(f"{path}: expected {expected_rows} values, found {len(values)}")
    return np.asarray(values, dtype=np.float64)


# -- report assembly ---------------------------------------------------------------


# Report fields left out of a dataclass's JSON form, and derived values
# (properties or zero-argument methods) added to it, keyed by class name so
# that the encoder imports none of the classes. The package's class names
# are unique.
_OMIT = {
    "SpectralModel": ("right_vectors",),
    "AnchorProfile": ("overlaps",),
    "CompressionReport": ("ledger",),
    "ScalingResult": ("model",),
}
_DERIVED = {
    "SpectralModel": ("n_cols", "rank", "cumulative_variance", "variance_captured"),
    "ResourceLedger": ("amplified_cost",),
}


def _plain(value):
    """JSON form of a report value: dataclasses become dicts (see _OMIT and
    _DERIVED), numpy arrays and scalars become Python lists and numbers, and
    tuples become lists."""
    if is_dataclass(value):
        kind = type(value).__name__
        out = {
            f.name: _plain(getattr(value, f.name))
            for f in fields(value)
            if f.name not in _OMIT.get(kind, ())
        }
        for name in _DERIVED.get(kind, ()):
            derived = getattr(value, name)
            out[name] = _plain(derived() if callable(derived) else derived)
        return out
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def _spectrum(model: SpectralModel, anchor_index: int) -> dict:
    """The report's spectrum block: ``model``, and the row whose signs the
    task's output follows (the accepted anchor, or row 0 without one)."""
    return {**_plain(model), "anchor_index": anchor_index}


def _success_sweep(run: RunResult) -> list[dict]:
    """Closed-form success probability versus kept dimension, exact
    coefficients, for scree-style plots. The coefficients are the capped
    magnitudes (``coefficients``) of the anchor row's overlaps with every
    principal direction (``SpectralModel.overlaps`` at the rank), as the
    pipeline's are of its kept ones, so no probability exceeds 1 either."""
    model = run.model
    beta_all = coefficients(model.overlaps(run.data, run.profile.anchor_index, model.rank))
    cum = model.cumulative_variance()
    sweep = []
    for dim in range(1, model.rank + 1):
        c = float(np.min(beta_all[:dim]))
        if c <= 1e-12:
            sweep.append({"dim": dim, "rotation_constant": 0.0, "success_probability": 0.0})
        else:
            sweep.append(
                {
                    "dim": dim,
                    "rotation_constant": c,
                    "success_probability": float(c * c * cum[dim - 1]),
                }
            )
    return sweep


# -- tasks -----------------------------------------------------------------------
#
# Each task imports the layers it runs when it runs (see the module docstring).


def _task_compress(config: RunConfig, data: DataMatrix) -> dict:
    from .qpca_pipeline import run_compression

    run = run_compression(
        data,
        threshold=config.theta,
        run_mode=config.mode,
        bits=config.bits,
        eps_beta=config.eps_beta,
        shots=config.shots,
        seed=config.seed,
        anchor_index=config.anchor_index,
        subset=config.subset,
    )
    return {
        "spectrum": _spectrum(run.model, run.profile.anchor_index),
        "anchor": _plain(run.profile),
        "compression": _plain(run.result.report),
        "ledger": _plain(run.result.report.ledger),
        "success_probability_sweep": _success_sweep(run),
        "anchor_attempts": _plain(run.anchor_attempts),
    }


def _task_qsvm(config: RunConfig, data: DataMatrix, labels: np.ndarray) -> dict:
    from . import qml_apps

    model = svd_decompose(data, config.theta)
    compressed = project(data, model)

    full = qml_apps.lssvm_train(data.values, labels, config.gamma)
    comp = qml_apps.lssvm_train(compressed, labels, config.gamma)

    # Only a sampled demo reads the per-query seeds, so only it draws them.
    shots = demo_seeds = None
    if config.mode == MODE_SAMPLED:
        shots = config.shots
        demo_seeds = np.random.default_rng(config.seed).integers(0, 2**63 - 1, size=data.n_rows).tolist()
    demo = qml_apps.qsvm_state_demo(full, data.values, data.values, shots=shots, rng_seeds=demo_seeds)
    # The demo's queries are the training points: its classical values are the full decision values.
    full_dec = demo.classical_value
    comp_dec = qml_apps.lssvm_decision_values(comp, compressed)
    full_acc, comp_acc = (float(np.mean(np.where(v >= 0.0, 1, -1) == labels)) for v in (full_dec, comp_dec))

    return {
        "spectrum": _spectrum(model, 0),
        "qsvm": {
            "gamma": float(config.gamma),
            "full": {
                "bias": float(full.bias),
                "residual": float(full.residual),
                "training_accuracy": full_acc,
                "decision_values": full_dec.tolist(),
            },
            "compressed": {
                "dim": compressed.shape[1],
                "bias": float(comp.bias),
                "residual": float(comp.residual),
                "training_accuracy": comp_acc,
                "decision_values": comp_dec.tolist(),
            },
            "accuracy_match": bool(full_acc == comp_acc),
            "demo": {
                "queries": int(data.n_rows),
                "sign_agreements": int(np.count_nonzero(demo.agrees)),
                "inconclusive": int(np.count_nonzero(demo.inconclusive)),
                "shots": shots,
            },
        },
    }


def _task_qlr(config: RunConfig, data: DataMatrix, targets: np.ndarray) -> dict:
    from . import qml_apps

    model = svd_decompose(data, config.theta)
    compressed = project(data, model)

    fit = qml_apps.qlr_predict(data.values, targets, data.values)
    preds_orig = fit.value
    preds_comp = qml_apps.qlr_predict(compressed, targets, compressed).value
    err_orig = float(np.max(np.abs(preds_orig - targets)))
    err_comp = float(np.max(np.abs(preds_comp - targets)))
    gap = float(np.max(np.abs(preds_orig - preds_comp)))

    sampled = config.mode == MODE_SAMPLED
    demo = qml_apps.qlr_state_demo(
        fit,
        targets,
        data.values,
        0,
        shots=config.shots if sampled else None,
        rng_seed=config.seed if sampled else None,
    )

    return {
        "spectrum": _spectrum(model, 0),
        "qlr": {
            "predictions_original": [float(v) for v in preds_orig],
            "predictions_compressed": [float(v) for v in preds_comp],
            "targets": [float(v) for v in targets],
            "max_abs_error_original": err_orig,
            "max_abs_error_compressed": err_comp,
            "max_original_vs_compressed_gap": gap,
            "demo": {
                "query_row": 0,
                "prediction": float(demo.prediction),
                "classical_value": float(demo.classical_value),
                "rescale_factor": float(demo.rescale_factor),
                "inconclusive": bool(demo.inconclusive),
                "shots": demo.shots,
            },
        },
    }


def _task_scaling(config: RunConfig, data: DataMatrix) -> dict:
    from .qpca_pipeline import error_scaling_experiment

    rng = np.random.default_rng(config.seed)
    seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=SCALING_SEED_COUNT)]
    result = error_scaling_experiment(data, SCALING_EPS_GRID, seeds, threshold=config.theta)
    # The sweep's one decomposition is the report's spectrum block.
    return {
        "spectrum": _spectrum(result.model, 0),
        "scaling": _plain(result),
    }


def _task_ledger(config: RunConfig, data: DataMatrix) -> dict:
    from .qpca_pipeline import ledger_predict, select_anchor
    from .sv_engine import PhaseConfig, check_label_distinctness

    cfg = PhaseConfig(MODE_IDEAL, config.bits)
    model = svd_decompose(data, config.theta)
    check_label_distinctness(model, cfg)  # the spectrum stage, before any anchor is drawn
    profile, _ = select_anchor(
        data,
        model,
        np.random.default_rng(config.seed),
        eps_beta=config.eps_beta,
        anchor_index=config.anchor_index,
    )
    p = float(profile.rotation_constant**2 * model.variance_captured)
    ledger = ledger_predict(
        n_rows=data.n_rows,
        n_cols=data.n_cols,
        dim=model.selected_dim,
        eps_lambda=cfg.eigenvalue_resolution,
        eps_beta=config.eps_beta,
        success_probability=p,
    )
    return {"spectrum": _spectrum(model, profile.anchor_index), "anchor": _plain(profile), "ledger": _plain(ledger)}


# -- output ----------------------------------------------------------------------


def _float_json(value: float) -> str:
    text = float.__repr__(value)
    if "n" in text:  # inf, -inf or nan
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return text


def _json(value, pad: str) -> str:
    """``value`` written exactly as ``json.dumps(value, sort_keys=True,
    indent=2, allow_nan=False)`` writes it at indent ``pad``. With an indent
    Python 3.11's json runs its pure-Python encoder; this writer skips its
    per-item generators and joins a list of floats in one pass."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_json(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {float}:
            body = sep.join(map(float.__repr__, value))
            if "n" in body:
                list(map(_float_json, value))  # raises at the first non-finite item
        else:
            body = sep.join([_json(v, inner) for v in value])
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, v in sorted(value.items()):
            if not isinstance(key, (str, int, float)) and key is not None:
                raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
            key = encode_basestring_ascii(key if isinstance(key, str) else _json(key, ""))
            items.append(key + ": " + _json(v, inner))
        return "{\n" + inner + sep.join(items) + "\n" + pad + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_report(report: dict) -> str:
    """The report as sorted, indented JSON, byte for byte as ``json.dumps``
    with ``sort_keys=True, indent=2`` writes it (see ``_json``). A
    non-finite number, which JSON cannot hold, is refused
    (``NUMERICAL_FAILURE``)."""
    try:
        return _json(report, "") + "\n"
    except ValueError as exc:
        raise NumericalFailureError(f"the report cannot be written as JSON: {exc}") from None


def write_report(report: dict, output_path: str | None) -> None:
    """Serialize the report; file writes go through a temp-and-rename so a
    failed run never leaves a partial report behind: the temp file this
    call opened is removed when the write or the rename fails."""
    text = render_report(report)
    if output_path is None:
        sys.stdout.write(text)
        return
    tmp_path = output_path + ".tmp"
    opened = False
    try:
        with open(tmp_path, "w", encoding="utf-8") as fh:
            opened = True
            fh.write(text)
        os.replace(tmp_path, output_path)
    except OSError as exc:
        if opened:
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
        raise InvalidInputError(f"cannot write report to {output_path}: {exc}") from None


# -- entry point -------------------------------------------------------------------


def run(config: RunConfig) -> dict:
    """Execute one task and return the report dictionary."""
    config.validate()
    data = ingest_csv(config.input_path)

    labels = None
    if config.labels_path is not None:
        labels = read_values(config.labels_path, data.n_rows)

    if config.task == "compress":
        body = _task_compress(config, data)
    elif config.task == "qsvm":
        body = _task_qsvm(config, data, labels)
    elif config.task == "qlr":
        body = _task_qlr(config, data, labels)
    elif config.task == "scaling":
        body = _task_scaling(config, data)
    else:
        body = _task_ledger(config, data)

    report = {"config": config.echo(), "seed": config.seed, "task": config.task}
    report.update(body)
    return report


def _parse_subset(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise InvalidInputError(f"subset must be comma-separated integers, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Raises a usage error (an unknown flag, a value its type refuses) as
    ``INVALID_INPUT``, which ``main`` prints as a JSON payload with exit
    code 1, as it prints every other failure."""

    def error(self, message: str):
        raise InvalidInputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qpcasim",
        description="Simulated spectral compression of a data matrix, with "
        "classifier and regression demos on the compressed representation.",
    )
    parser.add_argument("--input", required=True, dest="input_path", metavar="INPUT",
                        help="CSV data matrix, rows are points")
    parser.add_argument("--labels", dest="labels_path", metavar="LABELS",
                        help="one value per line: +-1 labels (qsvm) or targets (qlr); others reject it")
    parser.add_argument("--theta", type=float, default=RunConfig.theta, help="variance threshold in (0, 1]")
    parser.add_argument("--bits", type=int, default=RunConfig.bits,
                        help="eigenvalue label register width, at most 63 for quantized labels, also setting "
                        "the ledger's eps_lambda (read by compress and ledger; ignored by the other tasks)")
    parser.add_argument("--mode", default=RunConfig.mode,
                        help=f"run mode, one of {', '.join(RUN_MODES)} (scaling and ledger: ideal only)")
    parser.add_argument("--eps-beta", type=float, default=RunConfig.eps_beta, dest="eps_beta",
                        help="target accuracy for anchor coefficient estimates "
                        "(read by compress and ledger; ignored by the other tasks)")
    parser.add_argument("--shots", type=int, default=RunConfig.shots,
                        help="shots per sampled readout (read by compress, qsvm and qlr "
                        "in sampled mode; ignored otherwise)")
    parser.add_argument("--seed", type=int, default=RunConfig.seed)
    parser.add_argument("--task", default=RunConfig.task, help=f"one of {', '.join(TASKS)}")
    parser.add_argument("--subset", help="comma-separated row indices (compress task only)")
    parser.add_argument("--anchor", type=int, dest="anchor_index",
                        help="fixed anchor row (default: seeded draw with redraw on weak "
                        "anchors; read by compress and ledger; qsvm, qlr and scaling reject it)")
    parser.add_argument("--gamma", type=float, default=RunConfig.gamma, help="LS-SVM regularization weight")
    parser.add_argument("--out", dest="output_path", help="report file (default: stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.subset is not None:
            args.subset = _parse_subset(args.subset)
        config = RunConfig(**vars(args))
        started = time.perf_counter()
        report = run(config)
        elapsed = time.perf_counter() - started
        write_report(report, config.output_path)
        print(f"task {config.task} finished in {elapsed:.3f}s", file=sys.stderr)
        return 0
    except QpcaError as exc:
        sys.stdout.write(render_report({"error": exc.payload()}))
        return 1


if __name__ == "__main__":
    sys.exit(main())

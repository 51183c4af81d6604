"""The settable values in the package, pinned by name.

A settable value is a function parameter with a default (keyword-only ones
included) or a dataclass field with a default, anywhere in
``src/qpcasim/*.py``. Each one is a knob a caller can turn and a reader has
to know about, so a change that adds or removes one has to edit
``SETTABLE_VALUES`` below, in the same diff. The names are pinned, not only
their count, so a change that trades one setting for another shows in that
diff too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qpcasim"

# file:function:parameter or file:Class.field, sorted.
SETTABLE_VALUES = (
    "cli.py:RunConfig.anchor_index",
    "cli.py:RunConfig.bits",
    "cli.py:RunConfig.eps_beta",
    "cli.py:RunConfig.gamma",
    "cli.py:RunConfig.labels_path",
    "cli.py:RunConfig.mode",
    "cli.py:RunConfig.output_path",
    "cli.py:RunConfig.seed",
    "cli.py:RunConfig.shots",
    "cli.py:RunConfig.subset",
    "cli.py:RunConfig.task",
    "cli.py:RunConfig.theta",
    "cli.py:main:argv",
    "datasets.py:dataset_from_spectrum:n_cols",
    "datasets.py:gaussian_class_pair:n_cols",
    "datasets.py:gaussian_class_pair:n_per_class",
    "datasets.py:gaussian_class_pair:seed",
    "datasets.py:gaussian_class_pair:separation",
    "datasets.py:gaussian_class_pair:spread",
    "datasets.py:linear_trend_dataset:sigma_range",
    "datasets.py:rank_k_dataset:sigma_range",
    "datasets.py:rank_k_plus_noise:noise_fraction",
    "datasets.py:rank_k_plus_noise:sigma_range",
    "errors.py:__init__:anchor_index",
    "errors.py:__init__:anchors_tried",
    "errors.py:__init__:column",
    "errors.py:__init__:leaked_tail_mass",
    "errors.py:__init__:line",
    "pca_oracle.py:OverlapReport.flagged_rows",
    "pca_oracle.py:pairwise_overlap_report:tolerance",
    "pca_oracle.py:svd_decompose:threshold",
    "qml_apps.py:qlr_state_demo:rng_seed",
    "qml_apps.py:qlr_state_demo:shots",
    "qml_apps.py:qsvm_state_demo:rng_seeds",
    "qml_apps.py:qsvm_state_demo:shots",
    "qpca_pipeline.py:compress:postselect_shots",
    "qpca_pipeline.py:compress:rng_seed",
    "qpca_pipeline.py:compress:subset",
    "qpca_pipeline.py:error_scaling_experiment:threshold",
    "qpca_pipeline.py:run_compression:anchor_index",
    "qpca_pipeline.py:run_compression:bits",
    "qpca_pipeline.py:run_compression:eps_beta",
    "qpca_pipeline.py:run_compression:run_mode",
    "qpca_pipeline.py:run_compression:seed",
    "qpca_pipeline.py:run_compression:shots",
    "qpca_pipeline.py:run_compression:subset",
    "qpca_pipeline.py:run_compression:threshold",
    "qpca_pipeline.py:select_anchor:anchor_index",
    "qpca_pipeline.py:select_anchor:beta_seed",
    "qpca_pipeline.py:select_anchor:eps_beta",
    "sv_engine.py:PhaseConfig.bits",
    "sv_engine.py:apply_cu_lambda:strict",
    "sv_engine.py:measure_register:rng_seed",
    "sv_engine.py:postselect:rng_seed",
    "sv_engine.py:postselect:shots",
    "sv_engine.py:swap_test:rng_seed",
)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> list[str]:
    """``function:parameter`` and ``Class.field`` for every settable value."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            owner = getattr(node, "name", "<lambda>")
            found += [f"{owner}:{a.arg}" for a in defaulted]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [
                f"{node.name}.{stmt.target.id}"
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and stmt.value is not None and isinstance(stmt.target, ast.Name)
            ]
    return found


def test_counter_reads_defaults_and_dataclass_fields():
    source = """
from dataclasses import dataclass, field

def f(a, b=1, *, c, d=2, **kw):
    pass

@dataclass(frozen=True)
class C:
    x: int
    y: int = 0
    z: list = field(default_factory=list)
    w = 3

class Plain:
    v: int = 1
"""
    assert settable_values(ast.parse(source)) == ["f:b", "f:d", "C.y", "C.z"]


def test_settable_value_count_is_pinned():
    found = sorted(
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in settable_values(ast.parse(path.read_text(encoding="utf-8")))
    )
    added = sorted(set(found) - set(SETTABLE_VALUES))
    removed = sorted(set(SETTABLE_VALUES) - set(found))
    assert found == list(SETTABLE_VALUES), f"added {added}, removed {removed}"
    assert len(SETTABLE_VALUES) == 56

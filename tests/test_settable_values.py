"""The number of settable values in the package, pinned.

A settable value is a function parameter with a default (keyword-only ones
included) or a dataclass field with a default, anywhere in
``src/qpcasim/*.py``. Each one is a knob a caller can turn and a reader has
to know about, so a change that adds or removes one has to edit
``SETTABLE_VALUES`` below, in the same diff.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qpcasim"

SETTABLE_VALUES = 79


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
    found = [
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in settable_values(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert len(found) == SETTABLE_VALUES, "\n".join(found)

"""Every function in ``src/qpcasim`` runs in some golden CLI case.

The converse of ``test_reference_only.py``. Every golden case runs here in
process under a profiler (``sys.setprofile``, ``call`` events) that
records each code object of a ``src/qpcasim`` file that starts. Every
function and method defined in those files, property and cached-property
getters included, must be among them, unless ``test_reference_only.py``
lists it as part of the reference circuit, or ``ALLOWED`` below names it
with its reason. Code that no CLI task runs belongs under ``tests/``, or
goes.
"""

import ast
import sys
from pathlib import Path

import make_golden
import qpcasim
from test_reference_only import REFERENCE_ONLY, STATEVECTOR_REFERENCE_ONLY

SRC = Path(qpcasim.__file__).resolve().parent

# Modules whose functions no golden case needs to run, with the reason.
ALLOWED_MODULES = {
    "datasets.py": "the benchmark's workload data source; it moves to tests/ once the benchmark stops importing it",
}
# ``file:qualname`` of functions no golden case needs to run, with the reason.
ALLOWED = {
    "pca_oracle.py:_pair_deviations": "builds OverlapReport.deviations, which the benchmark tracer reads",
    "pca_oracle.py:OverlapReport.deviations": "the benchmark tracer counts overlap pairs from its size",
    "cli.py:emit_plot_data": "serves --plot-dir, which no golden case passes",
    "cli.py:_write_table": "serves --plot-dir, which no golden case passes",
    "qram_store.py:QramTree.row_qubits": "a QRAM tree property; only the reference circuit builds a tree",
    "qram_store.py:QramTree.feature_qubits": "a QRAM tree property; only the reference circuit builds a tree",
    "qram_store.py:QramTree.frobenius_sq": "a QRAM tree property; only the reference circuit builds a tree",
    "__init__.py:__getattr__": "resolves the package's lazy public names; the CLI imports its modules directly",
}
# Method names no golden case needs to run, wherever they are defined.
ALLOWED_NAMES = {
    "__repr__": "for interactive use; no report prints an object",
    "__dir__": "for interactive use; no task lists the package",
}


def defined_functions(source: str) -> dict[str, int]:
    """Every function and method defined in ``source``, by qualified name
    (nested ones as ``outer.<locals>.inner``, methods as ``Class.method``),
    with the first line of its code object: its first decorator's, or its
    ``def``'s."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                found[name] = min([child.lineno] + [d.lineno for d in child.decorator_list])
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def _reference_only() -> set[str]:
    names = {f"{home}.py:{name}" for home, names in REFERENCE_ONLY.items() for name in names}
    return names | {f"statevector.py:StateVector.{name}" for name in STATEVECTOR_REFERENCE_ONLY}


def _allowed(name: str) -> bool:
    file, _, qualname = name.partition(":")
    return (
        file in ALLOWED_MODULES
        or name in ALLOWED
        or name in _reference_only()
        or qualname.rpartition(".")[2] in ALLOWED_NAMES
    )


def _run_golden_cases() -> set[tuple[str, int]]:
    """(file name, first line) of the code object of every ``src/qpcasim``
    function that starts while the golden cases run."""
    src = str(SRC) + "/"
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(src):
                called.add((Path(code.co_filename).name, code.co_firstlineno))

    # Load every module a task may import, so no function runs only while
    # its module is first imported under the profiler.
    import qpcasim.qml_apps  # noqa: F401
    import qpcasim.qpca_pipeline  # noqa: F401

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for case in sorted(make_golden.CASES):
            make_golden.run_case(case)
    finally:
        sys.setprofile(previous)
    return called


def test_every_src_function_runs_in_a_golden_case():
    started = _run_golden_cases()
    never = []
    for path in sorted(SRC.glob("*.py")):
        for name, line in defined_functions(path.read_text(encoding="utf-8")).items():
            if (path.name, line) not in started:
                never.append(f"{path.name}:{name}")
    unexplained = [name for name in never if not _allowed(name)]
    assert unexplained == [], f"no golden case calls {unexplained}"
    # Every allowance still names a function that no case calls; one the
    # golden cases reach, or one that is gone, leaves the list.
    assert [name for name in ALLOWED if name not in never] == []


def test_defined_functions_reads_methods_properties_and_nested_functions():
    source = """
class A:
    @property
    def p(self):
        def inner():
            pass

    def m(self):
        pass

def f():
    class B:
        def g(self):
            pass
"""
    assert defined_functions(source) == {"A.p": 3, "A.p.<locals>.inner": 5, "A.m": 8, "f": 11, "f.<locals>.B.g": 13}

"""What ``import qpcasim`` and each CLI task load, and the lazy package names.

``qpcasim`` resolves its public names on first use, and the CLI imports a
task's layers when the task runs. The load checks run in a fresh
interpreter, since this test process has already imported every module.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpcasim
from qpcasim.datasets import gaussian_class_pair, write_matrix_csv, write_values_file

ROOT = Path(__file__).resolve().parent.parent
RANK3 = str(ROOT / "tests" / "golden" / "inputs" / "rank3.csv")

# Every task loads these; the pipeline and the learners are loaded per task.
CLI_MODULES = {"qpcasim.cli", "qpcasim.errors", "qpcasim.modes", "qpcasim.pca_oracle", "qpcasim.statevector"}
PIPELINE = {"qpcasim.qpca_pipeline", "qpcasim.sv_engine", "qpcasim.qram_store"}
LEARNERS = {"qpcasim.qml_apps"}

# Prints the qpcasim modules loaded after ``import qpcasim``, after
# ``from qpcasim import cli``, and after one ``cli.run`` of the config given
# as JSON in argv[1], then whether that run loaded ``numpy.ma``.
SCRIPT = """
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m.startswith("qpcasim."))
import qpcasim
steps = [loaded()]
from qpcasim import cli
steps.append(loaded())
cli.render_report(cli.run(cli.RunConfig(**json.loads(sys.argv[1]))))
steps.append(loaded())
print(json.dumps(steps))
print(json.dumps("numpy.ma" in sys.modules))
"""


def _run_script(config: dict) -> list:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, json.dumps(config)],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    return [json.loads(line) for line in out.splitlines()[-2:]]


def _loaded_modules(config: dict) -> list[set[str]]:
    return [set(step) for step in _run_script(config)[0]]


@pytest.fixture(scope="module")
def labelled_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lazy")
    data, labels = gaussian_class_pair(n_per_class=6, n_cols=3, seed=29)
    data_path, labels_path = str(tmp / "pts.csv"), str(tmp / "pts.labels")
    write_matrix_csv(data_path, data.values)
    write_values_file(labels_path, labels)
    return data_path, labels_path


@pytest.mark.parametrize(
    "task,stack",
    [("compress", PIPELINE), ("scaling", PIPELINE), ("ledger", PIPELINE), ("qsvm", LEARNERS), ("qlr", LEARNERS)],
)
def test_each_task_loads_only_its_own_stack(labelled_files, task, stack):
    if task in ("qsvm", "qlr"):
        data_path, labels_path = labelled_files
        config = {"input_path": data_path, "labels_path": labels_path, "task": task}
    else:
        config = {"input_path": RANK3, "task": task, "seed": 3}
    package, cli, ran = _loaded_modules(config)
    assert package == set()
    assert cli == CLI_MODULES
    assert ran == CLI_MODULES | stack


@pytest.mark.parametrize(
    "task,flags",
    [
        ("compress", {}),
        ("compress", {"mode": "quantized"}),
        ("compress", {"mode": "sampled", "shots": 2000}),
        ("compress", {"subset": [3, 0, 3, 5]}),
        ("scaling", {}),
        ("ledger", {}),
        ("qsvm", {"mode": "sampled", "shots": 200}),
        ("qlr", {"mode": "sampled", "shots": 200}),
    ],
)
def test_no_task_loads_numpy_ma(labelled_files, task, flags):
    # np.unique of a plain array imports numpy.ma (numpy 2.4, through
    # np.ma.is_masked): about 1.2 MiB and 10 ms on the first run that
    # reached it, paid by every quantized and sampled run.
    if task in ("qsvm", "qlr"):
        data_path, labels_path = labelled_files
        config = {"input_path": data_path, "labels_path": labels_path, "task": task, **flags}
    else:
        config = {"input_path": RANK3, "task": task, "seed": 3, **flags}
    assert _run_script(config)[1] is False


def test_every_public_name_is_its_home_module_object():
    assert qpcasim.__all__ == list(qpcasim._HOMES)
    for name, home in qpcasim._HOMES.items():
        module = importlib.import_module(f"qpcasim.{home}")
        assert getattr(qpcasim, name) is getattr(module, name), name


def test_dir_lists_every_public_name():
    assert set(qpcasim.__all__) <= set(dir(qpcasim))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from qpcasim import *", namespace)
    for name in qpcasim.__all__:
        assert namespace[name] is getattr(qpcasim, name), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        qpcasim.not_a_name
    assert not hasattr(qpcasim, "compress_everything")

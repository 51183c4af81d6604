"""Production reaches none of the reference circuit.

The explicit circuit stays in ``src/`` as the reference the tests hold
production against: the QRAM tree and its preparation matrices, phase
estimation and its inverse, the token write, and the ``StateVector``
methods that only they use. Every golden case runs here in process with
each of those names made to raise and to record the call. A name that
production starts to use again fails here; a name that leaves ``src/``
for ``tests/`` leaves this list with it.
"""

import json
import sys

import pytest

import make_golden
from qpcasim.statevector import StateVector

REFERENCE_ONLY = {
    "qram_store": (
        "build_tree",
        "_build_levels",
        "_prep_unitary",
        "norm_prep_unitary",
        "row_prep_unitary",
        "apply_norm_prep",
        "apply_row_prep",
        "_check_register_zero",
    ),
    "sv_engine": (
        "phase_estimate",
        "apply_cu_lambda",
        "inverse_phase_estimate",
        "_label_walk",
        "_padded_labels",
        "_require_zero",
        "_padded_eigenbasis",
    ),
}
STATEVECTOR_REFERENCE_ONLY = (
    "zero",
    "append_register",
    "remove_register",
    "basis_amplitude",
    "apply_register_unitary",
    "apply_controlled_unitary",
    "apply_controlled_xor",
    "apply_mcx",
    "apply_x",
    "_bit_shift",
)


def _refuse(name, called):
    def refuse(*args, **kwargs):
        called.append(name)
        raise AssertionError(f"production called the reference-only {name}")

    return refuse


def _patch_reference(monkeypatch, called):
    """Make every reference-only name raise, under each name a loaded
    qpcasim module binds it to."""
    for home, names in REFERENCE_ONLY.items():
        module = sys.modules[f"qpcasim.{home}"]
        for name in names:
            original = getattr(module, name)
            refuse = _refuse(f"{home}.{name}", called)
            for loaded_name, loaded in list(sys.modules.items()):
                if not loaded_name.startswith("qpcasim"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        monkeypatch.setattr(loaded, attr, refuse)
    for name in STATEVECTOR_REFERENCE_ONLY:
        monkeypatch.setattr(StateVector, name, _refuse(f"StateVector.{name}", called))


@pytest.mark.parametrize("case", sorted(make_golden.CASES))
def test_golden_case_calls_no_reference_only_name(monkeypatch, case):
    # Load every module a task may import, so the patch reaches each one.
    import qpcasim.qml_apps  # noqa: F401
    import qpcasim.qpca_pipeline  # noqa: F401

    called = []
    _patch_reference(monkeypatch, called)
    got = json.loads(make_golden.run_case(case))
    assert called == []
    with open(make_golden.golden_path(case), encoding="utf-8") as fh:
        want = json.load(fh)
    assert sorted(got) == sorted(want)
    assert got.get("error", {}).get("code") == want.get("error", {}).get("code")

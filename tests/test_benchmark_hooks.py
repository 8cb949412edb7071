"""The benchmark's per-layer trace wraps fedpriv functions by module and name.

`perfbench/layertrace.py` lists them in `SPANS` and `FORWARDS`. These tests
only read that module: they fail when a rename or deletion in the package
would break `perfbench/run.py --trace 1`.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layertrace  # noqa: E402
from fedpriv import models  # noqa: E402
from fedpriv.federation import SnapshotStore  # noqa: E402


@pytest.mark.parametrize("module, attr", layertrace.SPANS, ids=lambda v: str(v))
def test_every_span_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("attr", layertrace.FORWARDS)
def test_every_forward_counter_target_resolves(attr):
    assert callable(getattr(models, attr))


def _fedpriv_namespaces():
    """Every loaded fedpriv module's attributes, copied."""
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if mod is not None and name.partition(".")[0] == "fedpriv"
    }


def _class_hooks():
    """The class attributes LayerTrace replaces besides module functions."""
    return (
        SnapshotStore.__dict__["save"],
        SnapshotStore.__dict__["load"],
        np.lib.npyio.NpzFile.__dict__["__getitem__"],
    )


def test_layer_trace_installs_and_restores_every_attribute():
    for module, _ in layertrace.SPANS:
        importlib.import_module(module)
    before, classes = _fedpriv_namespaces(), _class_hooks()
    with layertrace.LayerTrace() as tracer:
        assert tracer.installed > len(layertrace.SPANS)
        for module, attr in layertrace.SPANS:
            wrapped = getattr(sys.modules[module], attr)
            assert wrapped.__wrapped__ is before[module][attr]
        for attr in layertrace.FORWARDS:
            assert getattr(models, attr).__wrapped__ is before["fedpriv.models"][attr]
        assert all(a is not b for a, b in zip(_class_hooks(), classes))
    assert tracer.installed == 0
    after = _fedpriv_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert after[name].keys() == namespace.keys(), name
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr}"
    assert all(a is b for a, b in zip(_class_hooks(), classes))

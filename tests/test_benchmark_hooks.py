"""The benchmark reaches into fedpriv by module, name and config key.

`perfbench/layertrace.py` wraps the functions listed in `SPANS` and
`FORWARDS`, `perfbench/setup_probe.py` calls the set-up functions in a fresh
interpreter, and `perfbench/workloads.py` holds config texts. These tests
fail when a rename or deletion in the package would break
`perfbench/run.py`, with or without `--trace 1`, and when a change of
arithmetic moves a workload's outputs off `perfbench/reference.json` or
makes its reruns differ.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layertrace  # noqa: E402
import workloads  # noqa: E402
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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_config_parses(name):
    cfg = workloads.parse(workloads.WORKLOADS[name], 0)
    assert cfg.seed == 0 and cfg.threads == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_setup_probe_runs_every_workload(name):
    # on the import path perfbench/run.py gives its probes
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), name, "0"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    phases = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(phases) == {"import", "parse", "prepare", "pools", "init", "total"}
    assert all(seconds >= 0 for seconds in phases.values())


def test_every_workload_pipeline_passes_the_reference_check(tmp_path):
    """Two train -> attack -> report pipelines per workload at seed 0, as
    `perfbench/run.py` runs them: each passes the checks against
    `perfbench/reference.json`, and both write the same artefact bytes."""
    reference = workloads.load_reference()
    for name, workload in sorted(workloads.WORKLOADS.items()):
        cfg = workloads.parse(workload, 0)
        runs = [workloads.run_pipeline(workload, cfg, str(tmp_path / f"{name}{i}")) for i in (0, 1)]
        for it in runs:
            assert workloads.check_outputs(cfg, it.outputs, reference[name]["0"]) == [], name
        assert runs[0].digest == runs[1].digest, name

"""The package as its users meet it: each name has one import path (the
module that defines it), the README's library example runs, and the records
that hold arrays compare by identity."""

import copy
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import fedpriv
from fedpriv import attacks, compensation, data, perturbation
from fedpriv import experiment as ex
from fedpriv.assignment import ClassAssignmentSchedule
from fedpriv.compensation import Telemetry
from fedpriv.config import ExperimentConfig
from fedpriv.federation import RoundReport
from fedpriv.models import ModelSpec
from harness import make_config, run_from_config

SRC = os.path.dirname(os.path.dirname(fedpriv.__file__))
README = os.path.join(os.path.dirname(SRC), "README.md")
MODULES = sorted(m.name for m in pkgutil.iter_modules(fedpriv.__path__))


def _fresh_python(code):
    """stdout of `code` run in a new interpreter that finds the package."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def test_the_package_root_loads_no_module():
    code = "import sys, fedpriv; print([m for m in sys.modules if m.startswith('fedpriv.')])"
    assert _fresh_python(code).strip() == "[]"


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_on_its_own(name):
    # a fresh interpreter per module, so no import cycle hides behind the
    # order in which another module happens to load them
    assert _fresh_python(f"import fedpriv.{name}; print('ok')").strip() == "ok"


# a small defended run, written as the file that the README's example reads
OVERFIT_CFG = """
data.source = synthetic
data.num_classes = 5
data.samples_per_class = 40
data.input_dim = 6
model.hidden_dim = 8
fl.K = 5
fl.T = 8
fl.snapshot_every = 4
eval.members = 10
eval.ifl = 12
eval.ofl = 8
defense.kind = coalition
defense.coalition = 0,1
defense.t0 = 4
"""


def test_the_readmes_library_example_runs(tmp_path, monkeypatch):
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "overfit.cfg").write_text(OVERFIT_CFG, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(block, README, "exec"), scope)
    result = scope["result"]
    assert result.attack == "fedmia_i"
    assert 0.0 <= result.auc <= 1.0
    assert len(result.scores) == len(result.labels) == 10 + 12 + 8


def _prepared():
    return ex.prepare_data(make_config(clients=3, rounds=2, samples_per_class=20))


def _training_state():
    return run_from_config(make_config(clients=3, rounds=2, samples_per_class=20))[1]


ARRAY_RECORDS = {
    "LabeledDataset": lambda: data.LabeledDataset(np.ones((3, 2)), np.array([0, 1, 0]), 2),
    "PartitionPlan": lambda: data.PartitionPlan([np.arange(3), np.arange(3, 5)], np.arange(5, 8)),
    "EvalPools": lambda: data.EvalPools(np.arange(3), np.arange(3, 6), np.arange(6, 9)),
    "ClientDataset": lambda: _prepared().clients[0],
    "PreparedData": _prepared,
    "SampleIntervals": lambda: compensation.init_intervals(np.array([0.3, 0.1, 0.2, 0.4]), 2),
    "BanditState": lambda: compensation.BanditState.fresh(3, 0.1),
    "NoisePlan": lambda: perturbation.NoisePlan(np.ones(3), np.zeros((2, 3))),
    "TrainingState": _training_state,
    "AttackResult": lambda: attacks.AttackResult(
        "loss_series", "global", np.array([0.2, 0.7]), np.array([0, 1]), 1.0, {0.1: 1.0}
    ),
}


@pytest.mark.parametrize("name", sorted(ARRAY_RECORDS))
def test_records_that_hold_arrays_compare_by_identity(name):
    first = ARRAY_RECORDS[name]()
    second = copy.deepcopy(first)
    assert type(first).__name__ == name
    assert first == first
    assert first != second
    assert not first == second
    hash(first)


def test_scalar_records_compare_by_value():
    records = [
        ModelSpec(6, 8, 5),
        ExperimentConfig(
            num_classes=5, num_clients=2, rounds=3, defense="coalition", coalition=(0, 1),
            m_max=4, m_min=2, decay="linear",
        ),
        Telemetry(1, 0, -1, 0.0, 0.0, 4, 0),
        RoundReport(1, 0.5, 0.25),
        ClassAssignmentSchedule([[frozenset({0, 1})]], [0]),
    ]
    for record in records:
        assert record == copy.deepcopy(record), type(record).__name__

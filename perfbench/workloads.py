"""The benchmark's workloads and the pipeline that runs one iteration of each.

A workload is a fedpriv config (synthetic data, 10 classes) plus the stage
path it takes; why each was chosen is in BENCHMARK.json and README.md. The
seed is the only input that varies between runs; it is written into the
config as `fl.seed`, so every artefact derives from it.

Two stage paths exist, matching the two ways fedpriv is used:

* ``library``: `stage_attack` receives the in-memory snapshot store, as
  `experiment.run_experiment` passes it; `snapshots.npz` is written but never
  read back.
* ``cli``: `stage_attack` loads `snapshots.npz` from disk, as
  `fedpriv attack` does after `fedpriv train`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

ALL_ATTACKS = "loss_series,avg_cosine,fta_l,fta_c,fedmia_i,fedmia_ii"

# Files whose bytes are a pure function of (config, seed). Their joint
# SHA-256 is the iteration's digest; timing never enters these files.
ARTEFACTS = (
    "config.txt",
    "rounds.csv",
    "assignments.csv",
    "compensation.csv",
    "attacks.csv",
    "summary.csv",
    "snapshots.npz",
)

# Tolerances for the comparison against reference.json. A change that only
# reorders floating-point sums moves these values by far less; a change that
# alters what is computed moves them by more.
TOLERANCE = {"test_acc": 0.01, "auc": 0.01, "tpr": 0.05}
FPR_COLUMNS = ("tpr_at_fpr_0.001", "tpr_at_fpr_0.01", "tpr_at_fpr_0.1")


@dataclass(frozen=True)
class Workload:
    name: str
    path: str  # "library" or "cli"
    config: str  # config text without fl.seed


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="overfit_coalition",
            path="library",
            config=f"""
data.source = synthetic
data.num_classes = 10
data.samples_per_class = 120
data.input_dim = 12
data.cluster_spread = 5.5
model.hidden_dim = 64
fl.K = 10
fl.T = 60
fl.lr = 0.3
fl.local_epochs = 3
fl.threads = 1
defense.kind = coalition
defense.coalition = 0,1
attack.target_client = 0
attack.list = {ALL_ATTACKS}
eval.members = 60
eval.ifl = 90
eval.ofl = 60
""",
        ),
        Workload(
            name="scale_k40",
            path="cli",
            config=f"""
data.source = synthetic
data.num_classes = 10
data.samples_per_class = 400
data.input_dim = 12
data.cluster_spread = 5.5
model.hidden_dim = 64
fl.K = 40
fl.T = 60
fl.lr = 0.3
fl.local_epochs = 3
fl.threads = 1
defense.kind = none
attack.target_client = 0
attack.list = {ALL_ATTACKS}
eval.members = 50
eval.ifl = 300
eval.ofl = 200
""",
        ),
        Workload(
            name="dirichlet_logreg",
            path="cli",
            config="""
data.source = synthetic
data.num_classes = 10
data.samples_per_class = 500
data.input_dim = 20
data.cluster_spread = 3.0
data.partition = dirichlet
data.beta = 0.5
model.hidden_dim = 0
fl.K = 20
fl.T = 100
fl.lr = 0.2
fl.local_epochs = 2
fl.snapshot_every = 5
fl.threads = 1
defense.kind = grad_noise
defense.coalition = 0,1,2,3
attack.target = global
attack.list = loss_series,fta_l,fta_c,fedmia_i
eval.members = 20
eval.ifl = 190
eval.ofl = 200
""",
        ),
    )
}


def config_text(workload: Workload, seed: int) -> str:
    return workload.config + f"fl.seed = {int(seed)}\n"


def parse(workload: Workload, seed: int):
    from fedpriv.config import parse_config_text

    return parse_config_text(config_text(workload, seed), origin=workload.name)


@dataclass
class Iteration:
    """Wall times and outputs of one train -> attack -> report pipeline."""

    train_s: float
    attack_s: float
    digest: str
    outputs: dict
    recycled_samples: int


def run_pipeline(workload: Workload, cfg, out_dir: str) -> Iteration:
    """One pass through the stage API: train, attack, report."""
    from fedpriv import experiment as ex

    t0 = time.perf_counter()
    state = ex.stage_train(cfg, out_dir)
    t1 = time.perf_counter()
    ex.stage_attack(cfg, out_dir, store=state.store if workload.path == "library" else None)
    t2 = time.perf_counter()
    ex.stage_report(cfg, out_dir)
    return Iteration(
        train_s=t1 - t0,
        attack_s=t2 - t1,
        digest=artefact_digest(out_dir),
        outputs=read_outputs(out_dir),
        recycled_samples=sum(tele.n_recycled for tele in state.telemetry),
    )


def artefact_digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in ARTEFACTS:
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def read_outputs(out_dir: str) -> dict:
    """Final test accuracy and each attack's AUC and TPR@FPR, as written."""
    with open(os.path.join(out_dir, "rounds.csv"), newline="", encoding="utf-8") as fh:
        rounds = list(csv.DictReader(fh))
    with open(os.path.join(out_dir, "summary.csv"), newline="", encoding="utf-8") as fh:
        summary = list(csv.DictReader(fh))
    with open(os.path.join(out_dir, "attacks.csv"), newline="", encoding="utf-8") as fh:
        attacks = {
            row["attack"]: [float(row["auc"])] + [float(row[c]) for c in FPR_COLUMNS]
            for row in csv.DictReader(fh)
        }
    return {
        "rounds": len(rounds),
        "test_acc": float(rounds[-1]["test_acc"]) if rounds else float("nan"),
        "summary_test_acc": float(summary[0]["final_test_acc"]) if summary else float("nan"),
        "attacks": attacks,
    }


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(cfg, outputs: dict, reference: dict | None) -> list[str]:
    """Problems with one iteration's outputs; an empty list means correct.

    Checks that hold for every seed come first; values are then compared
    with the recorded reference when one exists for this workload and seed.
    """
    problems = []
    if outputs["rounds"] != cfg.rounds:
        problems.append(f"rounds.csv has {outputs['rounds']} rows, expected {cfg.rounds}")
    acc = outputs["test_acc"]
    if not 0.0 <= acc <= 1.0:
        problems.append(f"final test_acc {acc} outside [0, 1]")
    if outputs["summary_test_acc"] != acc:
        problems.append("summary.csv final_test_acc differs from rounds.csv")
    if sorted(outputs["attacks"]) != sorted(cfg.attack_list):
        problems.append(f"attacks.csv lists {sorted(outputs['attacks'])}")
    for name, values in outputs["attacks"].items():
        if not all(0.0 <= v <= 1.0 for v in values):
            problems.append(f"{name}: AUC/TPR {values} outside [0, 1]")
    if reference is None:
        return problems
    if abs(acc - reference["test_acc"]) > TOLERANCE["test_acc"]:
        problems.append(f"test_acc {acc} vs reference {reference['test_acc']}")
    for name, ref in reference["attacks"].items():
        got = outputs["attacks"].get(name)
        if got is None:
            continue
        if abs(got[0] - ref[0]) > TOLERANCE["auc"]:
            problems.append(f"{name} AUC {got[0]} vs reference {ref[0]}")
        for col, g, r in zip(FPR_COLUMNS, got[1:], ref[1:]):
            if abs(g - r) > TOLERANCE["tpr"]:
                problems.append(f"{name} {col} {g} vs reference {r}")
    return problems

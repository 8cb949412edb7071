"""Self-checks of the benchmark itself: seed feasibility, trace fidelity, result checks.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layertrace  # noqa: E402
import workloads  # noqa: E402
from fedpriv import experiment as ex  # noqa: E402
from fedpriv.federation import SnapshotStore  # noqa: E402

NAMES = list(workloads.WORKLOADS)
DEFENSE_ONLY = (
    "assignment.schedule_s",
    "assignment.select_s",
    "compensation.update_self_s",
    "compensation.cr_sgd_s",
    "compensation.loss_eval_s",
    "compensation.recycled_samples",
    "perturbation.plan_s",
    "perturbation.apply_s",
)
# Reported by run.py from outside one traced pipeline.
RUN_LEVEL = (
    "cli.import_s",
    "federation.round_ms.p50",
    "federation.round_ms.p90",
    "trace.overhead_ratio",
    "error_rate",
)


@pytest.mark.parametrize("name", NAMES)
def test_seeds_0_to_99_build_valid_pools(name):
    """prepare_data + build_pools succeed without training on every seed checked."""
    workload = workloads.WORKLOADS[name]
    for seed in range(100):
        cfg = workloads.parse(workload, seed)
        pools = ex.build_pools(cfg, ex.prepare_data(cfg))
        assert len(pools.member_ids) == cfg.members_n, seed
        assert len(pools.ifl_ids) == cfg.ifl_n, seed
        assert len(pools.ofl_ids) == cfg.ofl_n, seed


def _patchable_identities() -> dict:
    """Identity of every attribute the trace may replace."""
    ids = {}
    for module_name, module in list(sys.modules.items()):
        if module is not None and module_name.partition(".")[0] == "fedpriv":
            ids.update({(module_name, k): id(v) for k, v in vars(module).items()})
    for attr in ("save", "load"):
        ids[("SnapshotStore", attr)] = id(SnapshotStore.__dict__[attr])
    ids[("NpzFile", "__getitem__")] = id(np.lib.npyio.NpzFile.__dict__["__getitem__"])
    return ids


@pytest.fixture(scope="module", params=NAMES)
def traced_runs(request):
    """One untraced and two traced pipelines of a workload at seed 0."""
    workload = workloads.WORKLOADS[request.param]
    cfg = workloads.parse(workload, 0)
    out = HERE.parent / ".perfbench_work" / f"test-{request.param}-{os.getpid()}"
    try:
        yield _traced_runs(request.param, workload, cfg, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _traced_runs(name, workload, cfg, out: Path) -> dict:
    before = _patchable_identities()
    plain = workloads.run_pipeline(workload, cfg, str(out / "plain"))
    traced, layers, installed = [], [], []
    for i in range(2):
        tracer = layertrace.LayerTrace()
        with tracer:
            installed.append(tracer.installed)
            it = workloads.run_pipeline(workload, cfg, str(out / f"traced{i}"))
        traced.append((it, tracer.recording))
        npz = str(out / f"traced{i}" / "snapshots.npz")
        layers.append(layertrace.layer_metrics(tracer.recording, npz, it.recycled_samples))
    return {
        "name": name,
        "cfg": cfg,
        "plain": plain,
        "traced": traced,
        "layers": layers,
        "installed": installed,
        "restored": _patchable_identities() == before,
    }


def test_traced_and_untraced_digests_match(traced_runs):
    digests = {traced_runs["plain"].digest} | {it.digest for it, _ in traced_runs["traced"]}
    assert len(digests) == 1


def test_every_wrapper_is_removed(traced_runs):
    assert all(n > len(layertrace.SPANS) for n in traced_runs["installed"])
    assert traced_runs["restored"]


def test_count_metrics_repeat_exactly(traced_runs):
    first, second = traced_runs["layers"]
    for key in layertrace.COUNT_METRICS:
        assert first[key] == second[key], key


def test_outputs_pass_checks_and_reference(traced_runs):
    cfg, plain = traced_runs["cfg"], traced_runs["plain"]
    reference = workloads.load_reference()[traced_runs["name"]]["0"]
    assert workloads.check_outputs(cfg, plain.outputs, reference) == []
    moved = json.loads(json.dumps(reference))
    name = next(iter(moved["attacks"]))
    moved["attacks"][name][0] += 2 * workloads.TOLERANCE["auc"]
    assert any(name in p for p in workloads.check_outputs(cfg, plain.outputs, moved))
    moved = dict(reference, test_acc=reference["test_acc"] + 2 * workloads.TOLERANCE["test_acc"])
    assert workloads.check_outputs(cfg, plain.outputs, moved)


def test_attributions_follow_code_structure(traced_runs):
    name, layer = traced_runs["name"], traced_runs["layers"][0]
    rec = traced_runs["traced"][0][1]
    if name == "overfit_coalition":
        assert all(layer[key] > 0 for key in DEFENSE_ONLY)
        assert layer["federation.snapshot_load_s"] == 0
        assert layer["federation.snapshot_read_amplification"] == 0
    else:
        assert all(layer[key] == 0 for key in DEFENSE_ONLY)
        assert layer["federation.snapshot_load_s"] > 0
    if name == "dirichlet_logreg":
        assert layer["attacks.per_sample_grads"] == 0
        assert layer["attacks.per_sample_grad_s"] == 0
    else:
        assert layer["attacks.per_sample_grads"] > 0
    if name == "scale_k40":
        self_times = layertrace.attack_self_times(rec)
        assert max(self_times, key=self_times.get) == "SnapshotStore.load"
    assert layer["data.prepare_calls"] == 2
    assert layer["models.sgd_steps"] > 0


def test_benchmark_json_names_every_metric(traced_runs):
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == NAMES
    produced = set(traced_runs["layers"][0]) | set(RUN_LEVEL)
    assert {m["name"] for m in spec["per_layer"]} == produced
    end_to_end = {"setup_s", "train_s", "attack_s", "peak_rss_mb"}
    assert {m["name"] for m in spec["end_to_end"]} == end_to_end

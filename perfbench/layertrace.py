"""Outside-in per-layer trace of fedpriv.

`LayerTrace` replaces the public functions of fedpriv's layers with timing
wrappers for the duration of a `with` block and puts the originals back on
exit. A function is replaced in every loaded `fedpriv` module that holds it
(for example `aggregate_weighted` in both `federation` and `attacks`), so
calls are seen whichever module makes them. Nothing in the package itself
changes.

Each wrapped call is a span. A span's self time is its duration minus the
time of the spans it directly encloses. Counts are taken at the same
boundaries; the wrappers that only count (forward passes, npz reads) take
no span, so their time stays in the enclosing span's self time.
"""

from __future__ import annotations

import inspect
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

ATTACK_NAMES = ("loss_series", "avg_cosine", "fta_l", "fta_c", "fedmia_i", "fedmia_ii")

# (module, attribute) of every function timed as a span. The span takes the
# attribute's name; `SnapshotStore.save` and `.load` keep the class prefix.
SPANS = (
    ("fedpriv.experiment", "stage_train"),
    ("fedpriv.experiment", "stage_attack"),
    ("fedpriv.experiment", "prepare_data"),
    ("fedpriv.experiment", "write_rounds_csv"),
    ("fedpriv.experiment", "write_assignments_csv"),
    ("fedpriv.experiment", "write_compensation_csv"),
    ("fedpriv.experiment", "write_attacks_csv"),
    ("fedpriv.federation", "init_training"),
    ("fedpriv.federation", "run_round"),
    ("fedpriv.federation", "aggregate_weighted"),
    ("fedpriv.assignment", "build_schedule"),
    ("fedpriv.assignment", "select_assigned_subset"),
    ("fedpriv.perturbation", "build_noise_plan"),
    ("fedpriv.perturbation", "apply_perturbation"),
    ("fedpriv.compensation", "compensated_local_update"),
    ("fedpriv.compensation", "combined_sgd_epochs"),
    ("fedpriv.models", "sgd_epochs"),
    ("fedpriv.models", "per_sample_losses"),
    ("fedpriv.models", "accuracy"),
    ("fedpriv.attacks", "run_attack"),
    ("fedpriv.attacks", "trajectory_matrix"),
    ("fedpriv.attacks", "attack_fedmia"),
    ("fedpriv.attacks", "_grad_matrix"),
    ("fedpriv.metrics", "auc_score"),
    ("fedpriv.metrics", "tpr_at_fpr"),
)

# Forward-pass entry points counted while the innermost span is sgd_epochs.
FORWARDS = ("loss_and_grad", "grad_from_dlogits", "predict_proba")

# Metrics that count work rather than time it: they must repeat exactly
# between runs of the same code and seed.
COUNT_METRICS = (
    "models.sgd_steps",
    "models.forwards_per_step",
    "attacks.per_sample_grads",
    "attacks.grad_reuse_ratio",
    "federation.snapshot_read_amplification",
    "federation.snapshot_bytes",
    "compensation.recycled_samples",
    "data.prepare_calls",
)

CSV_WRITERS = (
    "write_rounds_csv",
    "write_assignments_csv",
    "write_compensation_csv",
    "write_attacks_csv",
)


@dataclass
class Span:
    name: str
    ancestors: tuple[str, ...]  # names of the enclosing spans, outermost first
    duration: float
    self_time: float
    label: str = ""


@dataclass
class _Frame:
    name: str
    start: float
    child: float = 0.0


@dataclass
class Recording:
    """Spans and counts of one traced pipeline."""

    spans: list[Span] = field(default_factory=list)
    sgd_steps: int = 0
    sgd_samples: int = 0
    sgd_forwards: int = 0
    grad_rows: int = 0
    grad_keys: set = field(default_factory=set)
    npz_bytes_read: int = 0


class LayerTrace:
    """Context manager that installs the wrappers and records into `recording`."""

    def __init__(self) -> None:
        self.recording = Recording()
        self._stack: list[_Frame] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        try:
            for module_name, attr in SPANS:
                original = getattr(sys.modules[module_name], attr)
                self._replace_everywhere(original, self._span_wrapper(attr, original))
            models = sys.modules["fedpriv.models"]
            for attr in FORWARDS:
                original = getattr(models, attr)
                self._replace_everywhere(original, self._forward_counter(original))
            from fedpriv.federation import SnapshotStore

            save = SnapshotStore.__dict__["save"]
            load = SnapshotStore.__dict__["load"]
            self._set(SnapshotStore, "save", self._span_wrapper("SnapshotStore.save", save))
            self._set(
                SnapshotStore,
                "load",
                classmethod(self._span_wrapper("SnapshotStore.load", load.__func__)),
            )
            npz_getitem = np.lib.npyio.NpzFile.__getitem__
            self._set(np.lib.npyio.NpzFile, "__getitem__", self._npz_counter(npz_getitem))
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.partition(".")[0] != "fedpriv":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @property
    def installed(self) -> int:
        return len(self._restore)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        stack = self._stack
        rec = self.recording
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = self._on_enter(name, fn, args, kwargs)
            frame = _Frame(name, clock())
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame.start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent.child += duration
                rec.spans.append(
                    Span(
                        name=name,
                        ancestors=tuple(f.name for f in stack),
                        duration=duration,
                        self_time=duration - frame.child,
                        label=label,
                    )
                )

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_enter(self, name: str, fn, args, kwargs) -> str:
        """Counts taken from a span's arguments; returns the span's label."""
        if name not in ("sgd_epochs", "_grad_matrix", "run_attack"):
            return ""
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        rec = self.recording
        if name == "sgd_epochs":
            n = len(bound["x"])
            rec.sgd_steps += bound["epochs"] * math.ceil(n / bound["batch_size"])
            rec.sgd_samples += bound["epochs"] * n
        elif name == "_grad_matrix":
            x, y = np.asarray(bound["x"]), np.asarray(bound["y"])
            rec.grad_rows += len(y)
            key = hash(np.asarray(bound["params"]).tobytes())
            rec.grad_keys.update((key, x[i].tobytes(), int(y[i])) for i in range(len(y)))
        else:
            return bound["name"]
        return ""

    def _forward_counter(self, fn):
        stack = self._stack
        rec = self.recording

        def wrapper(*args, **kwargs):
            if stack and stack[-1].name == "sgd_epochs":
                rec.sgd_forwards += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _npz_counter(self, fn):
        stack = self._stack
        rec = self.recording

        def wrapper(npz, key):
            value = fn(npz, key)
            if stack and stack[-1].name == "SnapshotStore.load":
                rec.npz_bytes_read += value.nbytes
            return value

        wrapper.__wrapped__ = fn
        return wrapper


# -- per-layer metrics ----------------------------------------------------


def _total(spans, name, parent=None, self_time=False) -> float:
    return sum(
        s.self_time if self_time else s.duration
        for s in spans
        if s.name == name and (parent is None or s.ancestors[-1:] == (parent,))
    )


def layer_metrics(rec: Recording, snapshots_path: str, recycled: int) -> dict:
    """Per-layer figures of one traced pipeline.

    `snapshots_path` is the snapshots.npz the pipeline wrote; `recycled` is
    the recycled-sample total from the compensation telemetry. Read
    amplification divides the bytes `SnapshotStore.load` materialised by the
    uncompressed bytes of the arrays stored.
    """
    with np.load(snapshots_path) as blob:
        stored_bytes = sum(blob[key].nbytes for key in blob.files)
    file_bytes = os.path.getsize(snapshots_path)
    spans = rec.spans
    sgd_s = _total(spans, "sgd_epochs", self_time=True)
    out = {
        "data.prepare_s": _total(spans, "prepare_data"),
        "data.prepare_calls": sum(s.name == "prepare_data" for s in spans),
        "assignment.schedule_s": _total(spans, "build_schedule"),
        "assignment.select_s": _total(spans, "select_assigned_subset"),
        "models.sgd_s": sgd_s,
        "models.sgd_steps": rec.sgd_steps,
        "models.sgd_samples_per_s": rec.sgd_samples / sgd_s if sgd_s > 0 else 0.0,
        "models.forwards_per_step": rec.sgd_forwards / rec.sgd_steps if rec.sgd_steps else 0.0,
        "compensation.update_self_s": _total(spans, "compensated_local_update", self_time=True),
        "compensation.cr_sgd_s": _total(spans, "combined_sgd_epochs"),
        "compensation.loss_eval_s": _total(
            spans, "per_sample_losses", parent="compensated_local_update"
        ),
        "compensation.recycled_samples": recycled,
        "perturbation.plan_s": _total(spans, "build_noise_plan"),
        "perturbation.apply_s": _total(spans, "apply_perturbation"),
        "federation.aggregate_s": _total(spans, "aggregate_weighted", parent="run_round"),
        "federation.eval_s": _total(spans, "per_sample_losses", parent="run_round")
        + _total(spans, "accuracy", parent="run_round"),
        "federation.init_s": _total(spans, "init_training", self_time=True),
        "federation.snapshot_save_s": _total(spans, "SnapshotStore.save"),
        "federation.snapshot_load_s": _total(spans, "SnapshotStore.load"),
        "federation.snapshot_bytes": file_bytes,
        "federation.snapshot_read_amplification": (
            rec.npz_bytes_read / stored_bytes if rec.npz_bytes_read else 0.0
        ),
        "attacks.trajectory_s": _total(spans, "trajectory_matrix", self_time=True),
        "attacks.out_stats_s": _total(spans, "attack_fedmia", self_time=True),
        "attacks.target_aggregate_s": sum(
            s.duration
            for s in spans
            if s.name == "aggregate_weighted" and "stage_attack" in s.ancestors
        ),
        "attacks.per_sample_grad_s": _total(spans, "_grad_matrix"),
        "attacks.per_sample_grads": rec.grad_rows,
        "attacks.grad_reuse_ratio": len(rec.grad_keys) / rec.grad_rows if rec.grad_rows else 0.0,
        "metrics.score_s": _total(spans, "auc_score") + _total(spans, "tpr_at_fpr"),
        "experiment.csv_write_s": sum(_total(spans, w) for w in CSV_WRITERS),
    }
    for attack in ATTACK_NAMES:
        out[f"attacks.{attack}_s"] = sum(
            s.duration for s in spans if s.name == "run_attack" and s.label == attack
        )
    return out


def round_ms(rec: Recording) -> list[float]:
    return [1000.0 * s.duration for s in rec.spans if s.name == "run_round"]


def attack_self_times(rec: Recording) -> dict[str, float]:
    """Self time of every span inside stage_attack, by span name."""
    out: dict[str, float] = {}
    for s in rec.spans:
        if "stage_attack" in s.ancestors:
            out[s.name] = out.get(s.name, 0.0) + s.self_time
    return out


def percentile(values, q: float) -> float:
    """q-th percentile (0-100) by linear interpolation, as numpy's default."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0

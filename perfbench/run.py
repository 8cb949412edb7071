"""fedpriv benchmark: train -> attack -> report on named workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

With --trace 0 a run measures the end-to-end metrics: setup_s (median of
fresh-interpreter probes), train_s and attack_s (fastest pipeline of the
run) and peak_rss_mb. With --trace 1 it alternates untraced and traced
iterations and reports the per-layer metrics of the traced ones. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the environment, the artefact
digest and every metric by name and unit.

One process generates the load: fedpriv runs with fl.threads = 1 and BLAS
pinned to one thread, set before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 5
MIN_ITERATIONS = 3  # untraced; a --trace 1 run takes at least 2 of each kind
PROBE_TIMEOUT_S = 60
HARD_STOP_S = 120  # no new iteration after this, so a run ends well within 180 s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, "")
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }


def git_commit() -> str | None:
    """HEAD of the repository the benchmark runs in, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text(encoding="utf-8").strip()
        packed = (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8")
        return next((ln.split()[0] for ln in packed.splitlines() if ln.endswith(ref[5:])), None)
    except OSError:
        return None


def probe_setup(name: str, seed: int) -> dict:
    """One fresh-interpreter measurement of the pre-training set-up."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


class Measurement:
    """Everything one run collects: pipelines, traces, failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.first_digest: str | None = None
        self.untraced: list = []  # workloads.Iteration
        self.traced: list = []
        self.layers: list[dict] = []
        self.rounds_ms: list[float] = []

    def enough(self, traced: bool) -> bool:
        if traced:
            return len(self.untraced) >= 2 and len(self.traced) >= 2
        return len(self.untraced) >= MIN_ITERATIONS

    def fail(self, problems) -> None:
        self.failed += 1
        self.problems.extend(f"iteration {self.attempted}: {p}" for p in problems)


def measure(workload, cfg, reference, seconds: float, traced: bool, out_dir: Path) -> Measurement:
    """Pipelines until `seconds` have passed and enough have completed."""
    import layertrace
    import workloads

    m = Measurement()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (m.enough(traced) or m.failed or elapsed >= HARD_STOP_S):
            return m
        m.attempted += 1
        shutil.rmtree(out_dir, ignore_errors=True)
        tracer = layertrace.LayerTrace() if traced and len(m.traced) < len(m.untraced) else None
        try:
            if tracer is None:
                it = workloads.run_pipeline(workload, cfg, str(out_dir))
            else:
                with tracer:
                    it = workloads.run_pipeline(workload, cfg, str(out_dir))
        except Exception as exc:  # a failed pipeline is counted, not fatal
            m.fail([f"{type(exc).__name__}: {exc}"])
            continue
        problems = workloads.check_outputs(cfg, it.outputs, reference)
        m.first_digest = m.first_digest or it.digest
        if it.digest != m.first_digest:
            problems.append(f"artefact digest {it.digest} != first {m.first_digest}")
        if tracer is None:
            m.untraced.append(it)
        else:
            npz = str(out_dir / "snapshots.npz")
            layer = layertrace.layer_metrics(tracer.recording, npz, it.recycled_samples)
            counts = layertrace.COUNT_METRICS
            if m.layers and any(layer[k] != m.layers[0][k] for k in counts):
                problems.append("count metrics differ between traced pipelines")
            m.layers.append(layer)
            m.rounds_ms.extend(layertrace.round_ms(tracer.recording))
            m.traced.append(it)
        if problems:
            m.fail(problems)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    import layertrace
    import workloads

    workload = workloads.WORKLOADS[name]
    cfg = workloads.parse(workload, seed)
    reference = workloads.load_reference().get(name, {}).get(str(seed))
    print(json.dumps({"environment": environment()}), flush=True)

    probes = [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    out_dir = WORK / f"{name}-{os.getpid()}"
    try:
        m = measure(workload, cfg, reference, seconds, traced, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass

    for line in m.problems:
        print(f"problem: {line}", flush=True)
    if not m.untraced or (traced and not m.traced):
        print(f"{name}: no pipeline completed", file=sys.stderr)
        return 1
    print(json.dumps({"digest": m.first_digest, "reference_checked": reference is not None}))
    samples = {
        "setup_s": [p["total"] for p in probes],
        "train_s": [it.train_s for it in m.untraced],
        "attack_s": [it.attack_s for it in m.untraced],
    }
    print(json.dumps({"samples": samples}))

    med = layertrace.median
    if traced:
        metrics = {"cli.import_s": med([p["import"] for p in probes])}
        for key in m.layers[0]:
            if key in layertrace.COUNT_METRICS:
                metrics[key] = m.layers[0][key]
            else:
                metrics[key] = med([layer[key] for layer in m.layers])
        metrics["federation.round_ms.p50"] = layertrace.percentile(m.rounds_ms, 50)
        metrics["federation.round_ms.p90"] = layertrace.percentile(m.rounds_ms, 90)
        traced_wall = med([it.train_s + it.attack_s for it in m.traced])
        untraced_wall = med([it.train_s + it.attack_s for it in m.untraced])
        metrics["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
        metrics["error_rate"] = m.failed / m.attempted
    else:
        import resource

        # Interference from other tenants only ever adds time, and slow periods
        # cover several pipelines; the fastest pipeline of the run is the
        # steadiest estimate of the code's own cost (see README.md, "Noise").
        metrics = {
            "setup_s": med(samples["setup_s"]),
            "train_s": min(samples["train_s"]),
            "attack_s": min(samples["attack_s"]),
        }
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = metric_units("per_layer" if traced else "end_to_end")
    for key, value in metrics.items():
        print(f"{name}  {key} = {value:.6g} {units[key]}")
    print(
        f"{name}  pipelines = {len(m.untraced) + len(m.traced)}, attempted = {m.attempted}, "
        f"failed = {m.failed}, error_rate = {m.failed / m.attempted:.6g}"
    )
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_all(args) -> int:
    """Run every workload in its own interpreter, one after another."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fedpriv" / "__init__.py").is_file():
        print(f"fedpriv sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        choices = sorted(workloads.WORKLOADS)
        print(f"unknown workload {args.workload!r}; choose from {choices}", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

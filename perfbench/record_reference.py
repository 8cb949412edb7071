"""Record the reference outputs that run.py compares every iteration against.

Usage, from the repository root:

    python3 perfbench/record_reference.py --seeds 0-29 [--workload NAME ...]

Runs one pipeline per workload and seed and writes final test accuracy and
each attack's [AUC, TPR@0.1%, TPR@1%, TPR@10%] into perfbench/reference.json,
keyed by workload and seed. Entries for other workloads or seeds are kept.
Re-record only when a change is meant to alter what fedpriv computes, and
say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)

    reference = workloads.load_reference()
    out_dir = ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    try:
        for name in args.workload or list(workloads.WORKLOADS):
            workload = workloads.WORKLOADS[name]
            for seed in args.seeds:
                cfg = workloads.parse(workload, seed)
                it = workloads.run_pipeline(workload, cfg, str(out_dir))
                problems = workloads.check_outputs(cfg, it.outputs, None)
                if problems:
                    raise RuntimeError(f"{name} seed {seed}: {problems}")
                entry = {"test_acc": it.outputs["test_acc"], "attacks": it.outputs["attacks"]}
                reference.setdefault(name, {})[str(seed)] = entry
                print(f"{name} seed {seed}: test_acc {entry['test_acc']}", flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    blocks = []
    for name, by_seed in sorted(reference.items()):
        rows = [
            f'  "{seed}": {json.dumps(by_seed[seed])}'
            for seed in sorted(by_seed, key=int)
        ]
        blocks.append(f' "{name}": {{\n' + ",\n".join(rows) + "\n }")
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

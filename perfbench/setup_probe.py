"""Time what a `fedpriv train` invocation pays before round 1, in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>   (with src on PYTHONPATH)

Prints one JSON object of phase durations in seconds: import (of
`fedpriv.cli`), parse, prepare, pools, init and their total.
"""

import json
import sys
import time

import workloads  # standard library only; fedpriv is imported below, timed


def main() -> None:
    workload, seed = workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2])
    marks = [time.perf_counter()]
    import fedpriv.cli  # noqa: F401

    marks.append(time.perf_counter())
    from fedpriv import experiment as ex
    from fedpriv.federation import init_training

    cfg = workloads.parse(workload, seed)
    marks.append(time.perf_counter())
    prep = ex.prepare_data(cfg)
    marks.append(time.perf_counter())
    ex.build_pools(cfg, prep)
    marks.append(time.perf_counter())
    init_training(
        ex.build_fl_config(cfg),
        prep.spec,
        prep.clients,
        prep.test.X,
        prep.test.y,
        defense_cfg=ex.build_defense_config(cfg, prep.spec.num_classes),
    )
    marks.append(time.perf_counter())
    names = ("import", "parse", "prepare", "pools", "init")
    phases = {n: b - a for n, a, b in zip(names, marks, marks[1:])}
    phases["total"] = marks[-1] - marks[0]
    print(json.dumps(phases))


if __name__ == "__main__":
    main()

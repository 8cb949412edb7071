"""Shared builders for integration-style tests: tiny federated runs."""

import csv
from dataclasses import replace

from fedpriv import experiment as ex
from fedpriv.config import parse_config_text
from fedpriv.federation import run_training

BASE_TEMPLATE = """
data.source = synthetic
data.num_classes = {num_classes}
data.samples_per_class = {samples_per_class}
data.input_dim = {input_dim}
data.cluster_spread = {spread}
model.hidden_dim = {hidden}
fl.K = {clients}
fl.T = {rounds}
fl.lr = {lr}
fl.local_epochs = {epochs}
fl.batch_size = 32
fl.snapshot_every = {snapshot_every}
fl.seed = {seed}
eval.members = {members}
eval.ifl = {ifl}
eval.ofl = {ofl}
{extra}
"""


def make_config(
    clients=6,
    rounds=12,
    num_classes=5,
    samples_per_class=60,
    input_dim=8,
    spread=2.0,
    hidden=16,
    lr=0.2,
    epochs=1,
    snapshot_every=5,
    seed=0,
    members=20,
    ifl=20,
    ofl=15,
    extra="",
):
    return parse_config_text(
        BASE_TEMPLATE.format(
            clients=clients,
            rounds=rounds,
            num_classes=num_classes,
            samples_per_class=samples_per_class,
            input_dim=input_dim,
            spread=spread,
            hidden=hidden,
            lr=lr,
            epochs=epochs,
            snapshot_every=snapshot_every,
            seed=seed,
            members=members,
            ifl=ifl,
            ofl=ofl,
            extra=extra,
        )
    )


# the least config that validates, without attacks, for `library_configs`
LIBRARY_BASE = "data.source = synthetic\nfl.K = 2\nfl.T = 1\nattack.list =\n"


def library_configs(**fields):
    """(config, defense config or None) that the builders, which validate
    it, make of LIBRARY_BASE with `fields` replaced; the class bounds are
    resolved for its data.num_classes."""
    cfg = replace(parse_config_text(LIBRARY_BASE), **fields)
    return ex.build_fl_config(cfg), ex.build_defense_config(cfg, cfg.num_classes)


def run_from_config(cfg):
    """prepare_data + run_training for a parsed config; the store carries the
    training rows and their plan, as `experiment.stage_train`'s does."""
    prep = ex.prepare_data(cfg)
    state = run_training(
        ex.build_fl_config(cfg),
        prep.spec,
        prep.clients,
        prep.test.X,
        prep.test.y,
        defense_cfg=ex.build_defense_config(cfg, prep.spec.num_classes),
    )
    state.store.train, state.store.plan = prep.train, prep.plan
    return prep, state


def overfit_run(seed=0, defended=False, rounds=60, clients=10):
    """The deliberately-overfit synthetic setting used for attack checks."""
    extra = "defense.kind = coalition\ndefense.coalition = 0,1\n" if defended else ""
    cfg = make_config(
        clients=clients,
        rounds=rounds,
        num_classes=10,
        samples_per_class=120,
        input_dim=12,
        spread=5.5,
        hidden=64,
        lr=0.3,
        epochs=3,
        snapshot_every=10,
        seed=seed,
        members=60,
        ifl=90,
        ofl=60,
        extra=extra,
    )
    prep, state = run_from_config(cfg)
    pools = ex.build_pools(cfg, prep)
    return cfg, prep, state, pools


def save_csv(dataset, path):
    """Write a dataset in the CSV format accepted by `fedpriv.data.load_csv`."""
    d = dataset.input_dim
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(d)] + ["label"])
        for row, label in zip(dataset.X, dataset.y):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])

"""The attack stage reads its rows from the snapshots and builds no data.

`snapshots.npz` (format 3) stores the training rows, their labels and their
owners. `experiment.stage_attack` takes the rows and the partition only from
the store: the one `stage_train` returned, or the one it loads from that
file, which it opens once, reading the stamp before any model or row field.
So a data file edited or deleted after training changes no attack, and a
config whose data cannot be prepared is refused by `train`.
"""

import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from fedpriv import attacks as atk
from fedpriv import cli, data
from fedpriv import experiment as ex
from fedpriv.config import ConfigError, parse_config_text
from fedpriv.data import generate_synthetic
from fedpriv.federation import MODEL_FIELDS, ROW_FIELDS, SNAPSHOT_FIELDS, SnapshotStore
from harness import save_csv

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

SMALL = """
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
attack.list = loss_series,avg_cosine,fta_l,fta_c,fedmia_i,fedmia_ii
"""

DATA_BUILDERS = (
    "generate_synthetic",
    "load_csv",
    "split_train_test",
    "partition_iid",
    "partition_dirichlet",
    "make_client_datasets",
)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small") / "run"
    cfg = parse_config_text(SMALL)
    state = ex.stage_train(cfg, str(out))
    return cfg, out, state


def _rewrite(path, **changes):
    """Rewrite a snapshot file with some members replaced (None drops one)."""
    with np.load(path) as blob:
        fields = {name: blob[name] for name in blob.files}
    fields.update(changes)
    np.savez(path, **{name: value for name, value in fields.items() if value is not None})


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pools_only_data_give_the_attacks_of_prepared_data(tmp_path, name, seed):
    """The stored rows give the attacks.csv of `run_attacks` on the rows and
    pools of `prepare_data(cfg)`."""
    cfg = workloads.parse(workloads.WORKLOADS[name], seed)
    state = ex.stage_train(cfg, str(tmp_path))
    ex.stage_attack(cfg, str(tmp_path))
    stored = (tmp_path / ex.ATTACKS_CSV).read_bytes()
    prep = ex.prepare_data(cfg)
    selector = atk.attack_selector(cfg.attack_target, cfg.target_client, cfg.coalition)
    results = atk.run_attacks(
        state.store,
        prep.train,
        ex.build_pools(cfg, prep),
        cfg.target_client,
        cfg.attack_list,
        selector=selector,
    )
    ex.write_attacks_csv(str(tmp_path / "prepared.csv"), results)
    assert (tmp_path / "prepared.csv").read_bytes() == stored


def test_the_attack_stage_builds_no_client_dataset(small_run, tmp_path, monkeypatch):
    """Nor any other data: every builder of rows, split or partition raises."""
    cfg, trained, state = small_run
    out = shutil.copytree(trained, tmp_path / "run")
    ex.stage_attack(cfg, str(out))
    want = (out / ex.ATTACKS_CSV).read_bytes()

    def refuse(*args, **kwargs):
        raise AssertionError("data built")

    for module in (data, ex):
        for name in DATA_BUILDERS:
            monkeypatch.setattr(module, name, refuse)
    for store in (None, state.store):
        (out / ex.ATTACKS_CSV).unlink()
        ex.stage_attack(cfg, str(out), store=store)
        assert (out / ex.ATTACKS_CSV).read_bytes() == want


def test_a_store_without_rows_is_refused(small_run, tmp_path):
    cfg, trained, state = small_run
    out = shutil.copytree(trained, tmp_path / "run")
    bare = SnapshotStore(state.store.spec, state.store.client_sizes)
    for t, g, local in zip(state.store.rounds, state.store.globals, state.store.locals):
        bare.record(t, g, local)
    with pytest.raises(ValueError, match="no training rows .'rows', 'labels', 'owners'."):
        ex.stage_attack(cfg, str(out), store=bare)
    assert not (out / ex.ATTACKS_CSV).exists()


def test_the_cli_attack_opens_the_snapshots_once(small_run, tmp_path, monkeypatch):
    out = shutil.copytree(small_run[1], tmp_path / "run")
    opened = []
    load = np.load
    monkeypatch.setattr(np, "load", lambda *a, **k: opened.append(a[0]) or load(*a, **k))
    assert cli.main(["attack", "--out", str(out)]) == 0
    assert opened == [str(out / ex.SNAPSHOTS_NPZ)]


def test_a_stamp_of_another_run_is_refused_before_any_model_field(
    small_run, tmp_path, monkeypatch
):
    cfg, trained, _ = small_run
    out = shutil.copytree(trained, tmp_path / "run")
    read = []
    getitem = np.lib.npyio.NpzFile.__getitem__
    monkeypatch.setattr(
        np.lib.npyio.NpzFile, "__getitem__", lambda npz, key: read.append(key) or getitem(npz, key)
    )
    other = parse_config_text(SMALL + "fl.seed = 5\n")
    with pytest.raises(ConfigError, match="'fl.seed': 5 differs from seed 0"):
        ex.stage_attack(other, str(out))
    assert read and not set(read) & set(MODEL_FIELDS + ROW_FIELDS)
    read.clear()
    ex.stage_attack(cfg, str(out))
    assert sorted(read) == sorted(SNAPSHOT_FIELDS)


def test_a_format_2_file_is_refused(small_run, tmp_path, capsys):
    out = shutil.copytree(small_run[1], tmp_path / "run")
    _rewrite(out / ex.SNAPSHOTS_NPZ, format=np.int64(2), **dict.fromkeys(ROW_FIELDS))
    assert cli.main(["attack", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "'format'" in err and "not 3" in err and "re-run `fedpriv train`" in err
    assert not (out / ex.ATTACKS_CSV).exists()


@pytest.mark.parametrize(
    "name, message",
    [("owners", "gives client 0 "), ("labels", "must lie in [0, 5), got 0 to 5")],
)
def test_rows_that_do_not_fit_the_run_are_refused_naming_the_field(
    small_run, tmp_path, capsys, name, message
):
    out = shutil.copytree(small_run[1], tmp_path / "run")
    path = out / ex.SNAPSHOTS_NPZ
    with np.load(path) as blob:
        ids = blob[name]
    # a row of client 0 moves to client 1, or takes a label past the last class
    ids[np.flatnonzero(ids == 0)[0]] = 1 if name == "owners" else 5
    _rewrite(path, **{name: ids})
    assert cli.main(["attack", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"snapshot field '{name}' {message}" in err
    assert not (out / ex.ATTACKS_CSV).exists()


@pytest.mark.parametrize(
    "change",
    [
        ("fl.T = 8", "fl.T = 8\ndata.cluster_spread = 1e308"),
        ("fl.T = 8", "fl.T = 8\ndata.test_fraction = 0"),
        ("fl.K = 5", "fl.K = 150"),
    ],
    ids=["non_finite_features", "empty_test_split", "unsplittable_fl_k"],
)
def test_train_refuses_data_as_preparation_does(tmp_path, capsys, change):
    """A config whose data cannot be prepared: train refuses it with
    `prepare_data`'s message and writes no snapshots."""
    text = SMALL.replace(*change)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as refused:
        ex.prepare_data(parse_config_text(text))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"fedpriv train: error: {refused.value}\n"
    assert not (out / ex.SNAPSHOTS_NPZ).exists()


def test_the_attack_reads_no_data_file_after_training(tmp_path):
    """A CSV edited after train, keeping its shape and header, or deleted,
    leaves attacks.csv as it was."""
    csv_path = tmp_path / "data.csv"
    save_csv(generate_synthetic(4, 60, 5, 1.5, seed=3, mean_scale=4.0), str(csv_path))
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        f"data.source = csv\ndata.csv_path = {csv_path}\nfl.K = 4\nfl.T = 4\n"
        "fl.snapshot_every = 2\neval.members = 8\neval.ifl = 9\neval.ofl = 6\n",
        encoding="utf-8",
    )
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert cli.main(["attack", "--out", str(out)]) == 0
    want = (out / ex.ATTACKS_CSV).read_bytes()
    save_csv(generate_synthetic(4, 60, 5, 1.5, seed=4, mean_scale=4.0), str(csv_path))
    assert cli.main(["attack", "--out", str(out)]) == 0
    assert (out / ex.ATTACKS_CSV).read_bytes() == want
    csv_path.unlink()
    assert cli.main(["attack", "--out", str(out)]) == 0
    assert (out / ex.ATTACKS_CSV).read_bytes() == want

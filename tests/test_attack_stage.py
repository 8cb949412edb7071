"""The attack stage builds only the data that its pools and attacks read.

Without `prep`, `experiment.stage_attack` builds the rows, the test split,
the partition and the target's validation carve, but no client dataset,
and reads `snapshots.npz` in one opening, its stamp before any model field.
"""

import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from fedpriv import cli, data
from fedpriv import experiment as ex
from fedpriv.config import ConfigError, parse_config_text, training_fingerprint
from fedpriv.federation import MODEL_FIELDS, SnapshotStore
from fedpriv.models import ModelSpec

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


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small") / "run"
    cfg = parse_config_text(SMALL)
    ex.stage_train(cfg, str(out))
    return cfg, out


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pools_only_data_give_the_attacks_of_prepared_data(tmp_path, name, seed):
    cfg = workloads.parse(workloads.WORKLOADS[name], seed)
    state = ex.stage_train(cfg, str(tmp_path))
    ex.stage_attack(cfg, str(tmp_path))
    pools_only = (tmp_path / ex.ATTACKS_CSV).read_bytes()
    ex.stage_attack(cfg, str(tmp_path), store=state.store, prep=ex.prepare_data(cfg))
    assert (tmp_path / ex.ATTACKS_CSV).read_bytes() == pools_only


def test_the_attack_stage_builds_no_client_dataset(small_run, tmp_path, monkeypatch):
    cfg, trained = small_run
    out = shutil.copytree(trained, tmp_path / "run")
    ex.stage_attack(cfg, str(out))
    want = (out / ex.ATTACKS_CSV).read_bytes()

    def refuse(*args, **kwargs):
        raise AssertionError("client datasets built")

    for module in (data, ex):
        monkeypatch.setattr(module, "make_client_datasets", refuse)
    (out / ex.ATTACKS_CSV).unlink()
    ex.stage_attack(cfg, str(out))
    assert (out / ex.ATTACKS_CSV).read_bytes() == want


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
    cfg, trained = small_run
    out = shutil.copytree(trained, tmp_path / "run")
    read = []
    getitem = np.lib.npyio.NpzFile.__getitem__
    monkeypatch.setattr(
        np.lib.npyio.NpzFile, "__getitem__", lambda npz, key: read.append(key) or getitem(npz, key)
    )
    other = parse_config_text(SMALL + "fl.seed = 5\n")
    with pytest.raises(ConfigError, match="'fl.seed': 5 differs from seed 0"):
        ex.stage_attack(other, str(out))
    assert read and not set(read) & set(MODEL_FIELDS)
    read.clear()
    ex.stage_attack(cfg, str(out))
    assert sorted(read) == sorted(("format", "config_sha256", "seed") + MODEL_FIELDS)


@pytest.mark.parametrize(
    "change",
    [
        ("fl.T = 8", "fl.T = 8\ndata.cluster_spread = 1e308"),
        ("fl.T = 8", "fl.T = 8\ndata.test_fraction = 0"),
        ("fl.K = 5", "fl.K = 150"),
    ],
    ids=["non_finite_features", "empty_test_split", "unsplittable_fl_k"],
)
def test_the_attack_stage_refuses_data_as_preparation_does(tmp_path, capsys, change):
    """Snapshots stamped with a config whose data cannot be prepared: the
    attack refuses them with `prepare_data`'s message."""
    text = SMALL.replace(*change)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    cfg = parse_config_text(text)
    with pytest.raises(ConfigError) as refused:
        ex.prepare_data(cfg)
    out = tmp_path / "run"
    out.mkdir()
    spec = ModelSpec(cfg.input_dim, cfg.hidden_dim, cfg.num_classes)
    store = SnapshotStore(spec, np.ones(cfg.num_clients, dtype=np.int64))
    for t in (4, 8):
        store.record(t, np.zeros(spec.param_count), np.zeros((cfg.num_clients, spec.param_count)))
    store.save(str(out / ex.SNAPSHOTS_NPZ), training_fingerprint(cfg), cfg.seed)
    assert cli.main(["attack", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"fedpriv attack: error: {refused.value}\n"
    assert not (out / ex.ATTACKS_CSV).exists()

"""The attack stage reads its rows from the snapshots and builds no data.

`snapshots.npz` (format 3) stores the training rows, their labels and their
owners. `experiment.stage_attack` takes the rows and the partition only from
the store: the one `stage_train` returned, or the one it loads from that
file, which it opens once, reading the stamp before any model or row field.
So a data file edited or deleted after training changes no attack, and a
config whose data cannot be prepared is refused by `train`.
"""

import shutil
import struct
import sys
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest

from fedpriv import attacks as atk
from fedpriv import cli, data
from fedpriv import experiment as ex
from fedpriv.config import ConfigError, parse_config_text, training_fingerprint
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
    pools of `prepare_data(cfg)`, attached to the trained store."""
    cfg = workloads.parse(workloads.WORKLOADS[name], seed)
    state = ex.stage_train(cfg, str(tmp_path))
    ex.stage_attack(cfg, str(tmp_path))
    stored = (tmp_path / ex.ATTACKS_CSV).read_bytes()
    prep = ex.prepare_data(cfg)
    state.store.train, state.store.plan = prep.train, prep.plan
    selector = atk.attack_selector(cfg.attack_target, cfg.target_client, cfg.coalition)
    results = atk.run_attacks(
        state.store,
        ex.build_pools(cfg, prep),
        cfg.target_client,
        cfg.attack_list,
        selector=selector,
    )
    ex.write_attacks_csv(str(tmp_path / "prepared.csv"), results)
    assert (tmp_path / "prepared.csv").read_bytes() == stored


def test_a_run_from_the_library_call_saves_and_attacks_as_the_cli_does(small_run, tmp_path):
    """`run_training`'s store needs no rows set by hand: it saves the CLI
    run's snapshots.npz and gives the CLI attack's attacks.csv."""
    cfg, trained, _ = small_run
    cli_run = shutil.copytree(trained, tmp_path / "cli")
    assert cli.main(["attack", "--out", str(cli_run)]) == 0
    state = ex.run_training(cfg, ex.prepare_data(cfg))
    out = tmp_path / "library"
    out.mkdir()
    state.store.save(str(out / ex.SNAPSHOTS_NPZ), training_fingerprint(cfg), cfg.seed)
    assert (out / ex.SNAPSHOTS_NPZ).read_bytes() == (cli_run / ex.SNAPSHOTS_NPZ).read_bytes()
    ex.stage_attack(cfg, str(out), store=state.store)
    assert (out / ex.ATTACKS_CSV).read_bytes() == (cli_run / ex.ATTACKS_CSV).read_bytes()


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


DAMAGES = {
    "empty": lambda raw: b"",
    "not_a_zip": lambda raw: b"PK\x03\x04garbage",
    "truncated": lambda raw: raw[: len(raw) // 2],
    "one_byte": lambda raw: b"x",
}


def _refused_in_one_line(capsys, argv, path):
    """Run the CLI: exit status 1 and one error line naming the snapshot file."""
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"fedpriv {argv[0]}: error: snapshot file {path} cannot be read (")
    assert err.endswith("; re-run `fedpriv train` to rewrite it\n")
    return err


@pytest.mark.parametrize("command", ["attack", "report"])
@pytest.mark.parametrize("damage", sorted(DAMAGES))
def test_a_damaged_snapshot_file_is_one_error_line(small_run, tmp_path, capsys, command, damage):
    out = shutil.copytree(small_run[1], tmp_path / "run")
    path = out / ex.SNAPSHOTS_NPZ
    path.write_bytes(DAMAGES[damage](path.read_bytes()))
    err = _refused_in_one_line(capsys, [command, "--out", str(out)], path)
    assert "pickled" not in err
    assert not (out / ex.ATTACKS_CSV).exists() and not (out / ex.SUMMARY_CSV).exists()


def _flip_a_byte_of(path, member):
    """Flip one byte in the middle of a stored member's data, so that the
    member no longer matches its CRC-32."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member + ".npy")
    raw = bytearray(path.read_bytes())
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    raw[info.header_offset + 30 + name_len + extra_len + info.file_size // 2] ^= 0xFF
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize(
    "argv, member",
    [
        (["attack", "--out", "{damaged}"], "globals"),
        (["report", "--out", "{run}", "--baseline", "{damaged}"], "rows"),
    ],
    ids=["attack-globals", "report-baseline-rows"],
)
def test_a_member_that_fails_its_checksum_is_one_error_line(
    small_run, tmp_path, capsys, argv, member
):
    """attack reads every member; report --baseline reads the rows of both runs."""
    paths = {name: shutil.copytree(small_run[1], tmp_path / name) for name in ("run", "damaged")}
    damaged = paths["damaged"] / ex.SNAPSHOTS_NPZ
    _flip_a_byte_of(damaged, member)
    err = _refused_in_one_line(capsys, [arg.format(**paths) for arg in argv], damaged)
    assert f"Bad CRC-32 for file '{member}.npy'" in err
    assert not any((out / name).exists() for out in paths.values() for name in ex.DOWNSTREAM_CSVS)


def _damage_the_header_of(path, member):
    """Flip byte 20 of a stored member, inside its `.npy` header, and write
    the member's new CRC-32 into its local and central zip headers, so that
    the archive checks out and only the header is damaged."""
    name = (member + ".npy").encode()
    with zipfile.ZipFile(path) as archive:
        info, central = archive.getinfo(member + ".npy"), archive.start_dir
    raw = bytearray(path.read_bytes())
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    start = info.header_offset + 30 + name_len + extra_len
    raw[start + 20] ^= 0xFF
    crc = zlib.crc32(raw[start : start + info.compress_size])
    struct.pack_into("<I", raw, info.header_offset + 14, crc)
    while raw[central : central + 4] == b"PK\x01\x02":  # the central directory's entries
        name_len, extra_len, comment_len = struct.unpack_from("<HHH", raw, central + 28)
        if raw[central + 46 : central + 46 + name_len] == name:
            struct.pack_into("<I", raw, central + 16, crc)
        central += 46 + name_len + extra_len + comment_len
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("member", ["globals", "format"])
def test_a_member_whose_header_cannot_be_parsed_is_one_error_line(
    small_run, tmp_path, capsys, member
):
    """The checksums hold, so numpy's header parser is what refuses it."""
    out = shutil.copytree(small_run[1], tmp_path / "run")
    path = out / ex.SNAPSHOTS_NPZ
    _damage_the_header_of(path, member)
    with zipfile.ZipFile(path) as archive:
        assert archive.testzip() is None
    err = _refused_in_one_line(capsys, ["attack", "--out", str(out)], path)
    assert "Cannot parse header" in err
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

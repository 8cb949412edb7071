"""End-to-end tests for the experiment stages and the CLI."""

import csv
import gc
import os
import shutil
import subprocess
import sys
import weakref
import zipfile

import numpy as np
import pytest

from fedpriv import attacks as atk
from fedpriv import cli, experiment as ex
from fedpriv import federation as fed
from fedpriv import models
from fedpriv.config import ConfigError, parse_config_text
from fedpriv.federation import MODEL_FIELDS, SNAPSHOT_FIELDS
from oracles import recorded_lockstep_inputs, sequential_sgd_lockstep

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
"""

DEFENDED = SMALL + """
defense.kind = coalition
defense.coalition = 0,1
defense.t0 = 4
"""


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _lines(path):
    return _read(path).decode().strip().splitlines()


def test_run_experiment_writes_all_outputs(tmp_path):
    cfg = parse_config_text(DEFENDED)
    out = tmp_path / "run"
    assert ex.run_experiment(cfg, str(out)) == 0
    for name in (
        ex.ROUNDS_CSV,
        ex.ASSIGNMENTS_CSV,
        ex.COMPENSATION_CSV,
        ex.ATTACKS_CSV,
        ex.SUMMARY_CSV,
        ex.SNAPSHOTS_NPZ,
        ex.CONFIG_TXT,
    ):
        assert (out / name).exists()
    assert len(_lines(out / ex.ROUNDS_CSV)) == 1 + 8  # header + T rows
    assert len(_lines(out / ex.ASSIGNMENTS_CSV)) == 1 + 8 * 2  # T * coalition size
    assert len(_lines(out / ex.ATTACKS_CSV)) == 1 + 3  # default attack list
    assert _lines(out / ex.ATTACKS_CSV)[0] == (
        "attack,target,auc,tpr_at_fpr_0.001,tpr_at_fpr_0.01,tpr_at_fpr_0.1,"
        "n_members,n_nonmembers"
    )
    assert _lines(out / ex.ROUNDS_CSV)[0] == "round,test_acc,mean_train_loss"
    summary = _lines(out / ex.SUMMARY_CSV)
    assert summary[0] == "defense,final_test_acc,acc_delta_vs_undefended,mean_attack_auc"
    assert summary[1].startswith("coalition,")


ALL_CSVS = (
    ex.ROUNDS_CSV,
    ex.ASSIGNMENTS_CSV,
    ex.COMPENSATION_CSV,
    ex.ATTACKS_CSV,
    ex.SUMMARY_CSV,
)


def test_rerun_is_byte_identical(tmp_path):
    cfg = parse_config_text(DEFENDED)
    a, b = tmp_path / "a", tmp_path / "b"
    ex.run_experiment(cfg, str(a))
    ex.run_experiment(cfg, str(b))
    for name in (
        ex.ROUNDS_CSV,
        ex.ASSIGNMENTS_CSV,
        ex.COMPENSATION_CSV,
        ex.ATTACKS_CSV,
        ex.SUMMARY_CSV,
        ex.SNAPSHOTS_NPZ,
    ):
        assert _read(a / name) == _read(b / name), name


def test_run_experiment_prepares_the_data_once_for_the_artefacts_of_the_stages(
    tmp_path, monkeypatch
):
    cfg = parse_config_text(DEFENDED)
    staged, together = tmp_path / "staged", tmp_path / "together"
    ex.stage_train(cfg, str(staged))
    ex.stage_attack(cfg, str(staged))
    ex.stage_report(cfg, str(staged))
    calls = []
    prepare = ex.prepare_data

    def counting(*args, **kwargs):
        calls.append(args)
        return prepare(*args, **kwargs)

    monkeypatch.setattr(ex, "prepare_data", counting)
    ex.run_experiment(cfg, str(together))
    assert len(calls) == 1
    for name in (ex.CONFIG_TXT,) + ALL_CSVS + (ex.SNAPSHOTS_NPZ,):
        assert _read(staged / name) == _read(together / name), name


def test_snapshot_members_are_stored_uncompressed(tmp_path):
    out = tmp_path / "run"
    ex.stage_train(parse_config_text(SMALL), str(out))
    with zipfile.ZipFile(out / ex.SNAPSHOTS_NPZ) as archive:
        members = archive.infolist()
    assert sorted(m.filename for m in members) == sorted(f"{n}.npy" for n in SNAPSHOT_FIELDS)
    assert all(m.compress_type == zipfile.ZIP_STORED for m in members)


def test_lockstep_outputs_match_sequential_oracle(tmp_path, monkeypatch):
    cfg = parse_config_text(DEFENDED)
    a, b = tmp_path / "lockstep", tmp_path / "oracle"
    ex.run_experiment(cfg, str(a))
    monkeypatch.setattr(models, "prepare_lockstep", recorded_lockstep_inputs)
    monkeypatch.setattr(models, "sgd_lockstep", sequential_sgd_lockstep)
    ex.run_experiment(cfg, str(b))
    for name in (ex.ROUNDS_CSV, ex.COMPENSATION_CSV, ex.ATTACKS_CSV, ex.SNAPSHOTS_NPZ):
        assert _read(a / name) == _read(b / name), name


def test_a_dropped_training_state_frees_its_client_arrays(tmp_path, monkeypatch):
    # nothing keeps a finished run's rows alive: the prepared lock-step inputs,
    # the generators, the workspace, the evaluation's stacked rows and the
    # clients' arrays are gone with the run, while its state is still held
    rows = []
    prepare_data = ex.prepare_data

    def preparing(cfg):
        prep = prepare_data(cfg)
        arrays = [(c.train_X, c.train_y, c.val_X, c.val_y) for c in prep.clients]
        rows.extend(weakref.ref(a) for client in arrays for a in client)
        return prep

    prepared = []
    prepare = models.prepare_lockstep

    def recording(*args, **kwargs):
        inputs = prepare(*args, **kwargs)
        prepared.append(weakref.ref(inputs))
        return inputs

    made = []
    make = fed._buffers

    def keeping(state):
        buffers = make(state)
        if not made:  # the same buffers serve every round
            parts = [buffers, buffers.workspace, buffers.evaluation, buffers.uploads]
            parts += [buffers.evaluation.stacks[0], *buffers.streams.values()]
            made.extend(weakref.ref(part) for part in parts)
        return buffers

    monkeypatch.setattr(ex, "prepare_data", preparing)
    monkeypatch.setattr(models, "prepare_lockstep", recording)
    monkeypatch.setattr(fed, "_buffers", keeping)
    text = SMALL + "defense.kind = grad_noise\ndefense.coalition = 0,1\n"
    state = ex.stage_train(parse_config_text(text), str(tmp_path / "t"))
    assert state.buffers is None and state.clients == []
    gc.collect()
    assert len(prepared) == 1 and prepared[0]() is None
    assert len(made) == 7 and [ref() for ref in made] == [None] * 7
    assert len(rows) == 4 * 5 and [ref() for ref in rows] == [None] * len(rows)


def test_undefended_run_has_header_only_side_csvs(tmp_path):
    cfg = parse_config_text(SMALL)
    out = tmp_path / "plain"
    ex.run_experiment(cfg, str(out))
    assert _lines(out / ex.ASSIGNMENTS_CSV) == ["round,client,classes,lambda"]
    assert _lines(out / ex.COMPENSATION_CSV) == [
        "round,client,arm,raw_reward,norm_reward,n_assigned,n_recycled"
    ]
    assert _lines(out / ex.SUMMARY_CSV)[1].startswith("none,")


def test_empty_attack_list_gives_header_only(tmp_path):
    cfg = parse_config_text(SMALL + "attack.list =\n")
    out = tmp_path / "noattack"
    ex.run_experiment(cfg, str(out))
    assert len(_lines(out / ex.ATTACKS_CSV)) == 1
    summary = _lines(out / ex.SUMMARY_CSV)[1]
    assert summary.endswith(",")  # mean_attack_auc left blank


def test_compensation_telemetry_matches_schedule(tmp_path):
    cfg = parse_config_text(DEFENDED)
    out = tmp_path / "tele"
    ex.run_experiment(cfg, str(out))
    rows = _lines(out / ex.COMPENSATION_CSV)[1:]
    assert len(rows) == 8 * 2  # every round, every coalition client
    pre_t0 = [r for r in rows if int(r.split(",")[0]) < 4]
    assert all(r.split(",")[2] == "-1" for r in pre_t0)  # no arm before t0
    # recycle cap: clients hold <= 30 training samples here, r_l = 0.1
    for r in rows:
        parts = r.split(",")
        assert int(parts[6]) <= 3


def test_assignments_lambda_is_the_max_pairwise_overlap_of_the_listed_classes(tmp_path):
    text = SMALL.replace("fl.K = 5", "fl.K = 6") + (
        "defense.kind = coalition\ndefense.coalition = 0,2,3,5\ndefense.t0 = 4\n"
    )
    out = tmp_path / "assign"
    ex.stage_train(parse_config_text(text), str(out))
    rounds = {}
    for row in _lines(out / ex.ASSIGNMENTS_CSV)[1:]:
        t, client, classes, lam = row.split(",")
        rounds.setdefault(int(t), []).append((int(client), set(map(int, classes.split(";"))), lam))
    assert sorted(rounds) == list(range(1, 9))
    lambdas = set()
    for rows in rounds.values():
        assert [client for client, *_ in rows] == [0, 2, 3, 5]
        subsets = [classes for _, classes, _ in rows]
        worst = max(len(a & b) for i, a in enumerate(subsets) for b in subsets[i + 1 :])
        assert {lam for *_, lam in rows} == {str(worst)}
        lambdas.add(worst)
    assert len(lambdas) >= 3  # subsets shrink from 5 classes to 1 over the rounds


def test_defended_and_undefended_summaries_comparable(tmp_path):
    base, defended = tmp_path / "none", tmp_path / "coal"
    ex.run_experiment(parse_config_text(SMALL), str(base))
    ex.run_experiment(parse_config_text(DEFENDED), str(defended), baseline_dir=str(base))
    row = _lines(defended / ex.SUMMARY_CSV)[1].split(",")
    assert row[0] == "coalition"
    assert row[2] != ""  # acc delta filled from the baseline


def test_grad_baseline_defenses_run_end_to_end(tmp_path):
    for kind in ("grad_sparse", "grad_noise"):
        cfg = parse_config_text(SMALL + f"defense.kind = {kind}\ndefense.coalition = 0,1\n")
        out = tmp_path / kind
        assert ex.run_experiment(cfg, str(out)) == 0
        assert _lines(out / ex.SUMMARY_CSV)[1].startswith(kind)


# --- CLI --------------------------------------------------------------------


def test_cli_train_attack_report_pipeline(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(DEFENDED, encoding="utf-8")
    out = tmp_path / "cli_run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / ex.SNAPSHOTS_NPZ).exists()
    # later stages pick the config echo up from the run directory
    assert cli.main(["attack", "--out", str(out)]) == 0
    assert cli.main(["report", "--out", str(out)]) == 0
    assert (out / ex.SUMMARY_CSV).exists()


def test_cli_seed_override_changes_run(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL, encoding="utf-8")
    a, b = tmp_path / "s0", tmp_path / "s1"
    cli.main(["train", "--config", str(cfg_path), "--out", str(a)])
    cli.main(["train", "--config", str(cfg_path), "--out", str(b), "--seed", "123"])
    assert _read(a / ex.ROUNDS_CSV) != _read(b / ex.ROUNDS_CSV)
    assert "fl.seed = 123" in (b / ex.CONFIG_TXT).read_text(encoding="utf-8")


def test_cli_overhead_prints_estimate(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "data.source = synthetic\ndata.num_classes = 200\nfl.K = 4\nfl.T = 100\n",
        encoding="utf-8",
    )
    assert cli.main(["overhead", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.strip() == "20200"


def test_cli_bad_config_exits_nonzero(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(SMALL + "defense.kind = coalition\ndefense.coalition = 0,9\n", encoding="utf-8")
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "defense.coalition" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_cli_diverging_train_reports_round_and_client(tmp_path, capsys):
    cfg_path = tmp_path / "diverge.cfg"
    text = DEFENDED.replace("fl.T = 8", "fl.T = 40") + "fl.lr = 1e6\n"
    cfg_path.write_text(text, encoding="utf-8")
    out = tmp_path / "diverged"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "training diverged at round 25" in err[0] and "client(s) [0]" in err[0]
    assert not out.exists()  # made only once training has succeeded


def test_cli_infeasible_pools_fail_before_training(tmp_path, capsys):
    cfg_path = tmp_path / "pools.cfg"
    cfg_path.write_text(SMALL.replace("eval.members = 10", "eval.members = 500"), encoding="utf-8")
    out = tmp_path / "pools"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "eval.members = 500" in capsys.readouterr().err
    assert not (out / ex.SNAPSHOTS_NPZ).exists()


@pytest.mark.parametrize(
    "change, detail",
    [
        (("fl.K = 5", "fl.K = 150"), "144 samples cannot cover 150 clients"),
        (("data.samples_per_class = 40", "data.samples_per_class = 1"), "4 samples cannot cover"),
        (("fl.K = 5", "fl.K = 150\ndata.partition = dirichlet"), "no non-empty Dirichlet split"),
    ],
    ids=["more_clients_than_rows", "one_sample_per_class", "dirichlet"],
)
def test_a_partition_without_a_row_for_every_client_names_fl_k(change, detail):
    cfg = parse_config_text(SMALL.replace(*change) + "attack.list =\n")
    with pytest.raises(ConfigError, match=r"^config field 'fl.K': .*" + detail):
        ex.prepare_data(cfg)


def test_intervals_beyond_a_members_samples_fail_before_training(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(models, "sgd_lockstep", lambda *args, **kwargs: calls.append(args))
    cfg = parse_config_text(DEFENDED + "defense.intervals = 40\n")
    with pytest.raises(ConfigError, match=r"'defense.intervals': 40 intervals .* client 0$"):
        ex.stage_train(cfg, str(tmp_path / "t"))
    assert calls == []


def test_an_empty_perturbation_tail_fails_by_key_before_training(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(models, "sgd_lockstep", lambda *args, **kwargs: calls.append(args))
    cfg = parse_config_text(DEFENDED + "defense.r_p = 0.005\n")  # floor(0.005 * 101) = 0
    with pytest.raises(ConfigError, match=r"'defense.r_p': 0.005 of the model's 101 parameters"):
        ex.stage_train(cfg, str(tmp_path / "t"))
    assert calls == []
    monkeypatch.undo()  # without perturbation the tail is never used
    cfg = parse_config_text(DEFENDED + "defense.r_p = 0.005\ndefense.sigma = 0\n")
    ex.stage_train(cfg, str(tmp_path / "u"))


def test_out_override_that_config_text_cannot_keep_is_refused(tmp_path, capsys, monkeypatch):
    # `--out` replaces output.dir after the config file was validated
    calls = []
    monkeypatch.setattr(models, "sgd_lockstep", lambda *args, **kwargs: calls.append(args))
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL, encoding="utf-8")
    out = tmp_path / "x #y"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "'output.dir'" in err[0]
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize(
    "config_seed, cli_seed",
    [(2**63, None), (-(2**63) - 1, None), (0, 2**63)],
    ids=["config_above", "config_below", "cli_above"],
)
def test_seed_outside_int64_fails_before_anything_is_written(
    tmp_path, capsys, monkeypatch, config_seed, cli_seed
):
    # the snapshot stamp stores the seed as an int64
    calls = []
    monkeypatch.setattr(models, "sgd_lockstep", lambda *args, **kwargs: calls.append(args))
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL + f"fl.seed = {config_seed}\n", encoding="utf-8")
    out = tmp_path / "run"
    argv = ["train", "--config", str(cfg_path), "--out", str(out)]
    err = _refused(capsys, argv + ([] if cli_seed is None else ["--seed", str(cli_seed)]))
    assert "'fl.seed'" in err
    assert calls == []
    assert not out.exists()


def _with(text, key, value):
    """Config text with `key = value` in place of any line the key has."""
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
    return "\n".join([*lines, f"{key} = {value}"]) + "\n"


@pytest.mark.parametrize(
    "source, key, value, extra",
    [
        ("csv", "defense.m_min", 3, "defense.m_max = 2\n"),
        ("csv", "defense.m_min", 0, ""),
        ("csv", "defense.m_max", 0, ""),
        ("csv", "defense.m_max", -1, ""),
        ("csv", "defense.m_max", 5, ""),
        ("synthetic", "defense.m_max", 0, ""),
        ("synthetic", "defense.m_min", 3, "defense.m_max = 2\n"),
        ("synthetic", "model.hidden_dim", -1, ""),
        ("synthetic", "data.num_classes", 1, ""),
        ("synthetic", "data.samples_per_class", 0, ""),
        ("synthetic", "data.input_dim", 0, ""),
    ],
    ids=lambda v: str(v).strip().replace("\n", ""),
)
def test_bad_sizes_are_refused_by_key_before_training(
    tmp_path, capsys, monkeypatch, source, key, value, extra
):
    # csv data have 4 classes; the synthetic source fixes its own count
    text = DEFENDED
    if source == "csv":
        from fedpriv.data import generate_synthetic
        from harness import save_csv

        ds = generate_synthetic(4, 60, 5, 1.5, seed=3, mean_scale=4.0)
        save_csv(ds, str(tmp_path / "data.csv"))
        text = _with(text, "data.source", f"csv\ndata.csv_path = {tmp_path / 'data.csv'}")
    calls = []
    monkeypatch.setattr(models, "sgd_lockstep", lambda *args, **kwargs: calls.append(args))
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_with(text + extra, key, value), encoding="utf-8")
    err = _refused(capsys, ["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert f"'{key}'" in err
    assert calls == []


def test_an_attack_that_needs_two_rounds_is_refused_after_one(tmp_path, capsys, monkeypatch):
    # fl.T = 3 with snapshots every 4 rounds records round 1 only
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_with(SMALL, "fl.T", 3), encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    calls = []  # the two measurement kernels: no attack measures anything
    monkeypatch.setattr(models, "measure_models", lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(atk, "_grad_cosines", lambda *args, **kwargs: calls.append(args))
    err = _refused(capsys, ["attack", "--out", str(out)])
    assert "'attack.list'" in err and "fta_l" in err and "recorded 1" in err
    assert calls == []
    assert not (out / ex.ATTACKS_CSV).exists()


def test_cli_has_no_threads_option(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL, encoding="utf-8")
    argv = ["train", "--config", str(cfg_path), "--out", str(tmp_path / "t"), "--threads", "1"]
    with pytest.raises(SystemExit):
        cli.main(argv)


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, fedpriv.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# The modules that `import fedpriv.cli` adds to numpy's: the standard
# library's and fedpriv's own. Every run pays for their import (most of the
# benchmark's setup_s), so a change that adds or defers one updates its list
# and states the change in setup_s.
CLI_IMPORTS = [
    "__future__", "_blake2", "_csv", "_hashlib", "argparse", "copy", "csv", "dataclasses",
    "gettext", "hashlib",
]
CLI_FEDPRIV_MODULES = [
    "assignment", "attacks", "cli", "compensation", "config", "data", "experiment",
    "federation", "metrics", "models", "perturbation", "rng",
]


def test_cli_import_adds_only_the_listed_modules_to_numpys():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, numpy; numpys = set(sys.modules); import fedpriv.cli; "
        "print(' '.join(sorted(set(sys.modules) - numpys)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    added = out.stdout.split()
    assert [m for m in added if m.split(".")[0] != "fedpriv"] == CLI_IMPORTS
    fedpriv_modules = [m for m in added if m.startswith("fedpriv.")]
    assert fedpriv_modules == [f"fedpriv.{name}" for name in CLI_FEDPRIV_MODULES]


# `_grad_cosines` at scale_k40's OUT shape (550 rows, 39 directions, 64
# hidden units), whose bits move with the BLAS thread count
COSINE_DIGEST = """
import hashlib
import numpy as np
from fedpriv import attacks, models
spec = models.ModelSpec(12, 64, 10)
rng = np.random.default_rng(0)
params, directions = rng.normal(size=spec.param_count), rng.normal(size=(39, spec.param_count))
x, y = rng.normal(size=(550, 12)), rng.integers(0, 10, 550)
digest = hashlib.sha256(attacks._grad_cosines(spec, params, x, y, directions)).hexdigest()
"""


def test_the_cli_pins_one_blas_thread(tmp_path):
    # a fresh process without the tests' thread settings: OpenBLAS starts
    # with a thread a core, and `fedpriv` leaves one
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL, encoding="utf-8")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import ctypes, glob, os, sys, numpy\n"
        "from fedpriv import cli\n"
        "assert cli.main(['overhead', '--config', sys.argv[1]]) == 0\n"
        + COSINE_DIGEST
        + "lib = glob.glob(os.path.dirname(numpy.__file__) + '.libs/libscipy_openblas64_*.so')\n"
        "print(ctypes.CDLL(lib[0]).scipy_openblas_get_num_threads64_(), digest)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(cfg_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stderr == ""
    scope = {}
    exec(COSINE_DIGEST, scope)  # this process runs one thread (tests/conftest.py)
    assert out.stdout.split()[-2:] == ["1", scope["digest"]]


def test_a_missing_openblas_is_a_note_on_stderr(tmp_path, capsys, monkeypatch):
    import ctypes

    def missing(name):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", missing)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL, encoding="utf-8")
    assert cli.main(["overhead", "--config", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == str(ex.comm_overhead_estimate(5, 8))
    assert captured.err.startswith("fedpriv: note: numpy's bundled OpenBLAS not found")
    assert len(captured.err.splitlines()) == 1


def test_runs_of_other_shapes_in_one_process_train_as_in_a_fresh_process(tmp_path):
    # a run's buffers belong to it: neither run sees the other's sizes
    texts = {
        "mlp": DEFENDED,
        "logistic": SMALL.replace("model.hidden_dim = 8", "model.hidden_dim = 0").replace(
            "fl.K = 5", "fl.K = 7"
        )
        + "defense.kind = grad_noise\ndefense.coalition = 1,2\nfl.batch_size = 8\n",
    }
    for name, text in texts.items():
        ex.stage_train(parse_config_text(text), str(tmp_path / "together" / name))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for name, text in texts.items():
        out = tmp_path / "alone" / name
        code = (
            "from fedpriv import experiment as ex\n"
            "from fedpriv.config import parse_config_text\n"
            f"ex.stage_train(parse_config_text({text!r}), {str(out)!r})\n"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        for artefact in (ex.ROUNDS_CSV, ex.COMPENSATION_CSV, ex.SNAPSHOTS_NPZ):
            assert _read(out / artefact) == _read(tmp_path / "together" / name / artefact)


def test_building_pools_imports_no_numpy_ma():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys\n"
        "from fedpriv import experiment as ex\n"
        "from fedpriv.config import parse_config_text\n"
        f"cfg = parse_config_text({SMALL!r})\n"
        "prep = ex.prepare_data(cfg)\n"
        "assert len(prep.clients[cfg.target_client].val_indices)\n"
        "ex.build_pools(cfg, prep)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv, why",
    [
        (["train", "--config", "{cfg}", "--out", "{file}"], "File exists"),
        (["train", "--config", "{dir}", "--out", "{run}"], "Is a directory"),
        (["report", "--out", "{run}", "--baseline", "{file}"], "Not a directory"),
    ],
    ids=["train-out-is-a-file", "train-config-is-a-directory", "report-baseline-is-a-file"],
)
def test_a_path_of_the_wrong_kind_is_one_error_line(tmp_path, capsys, argv, why):
    paths = {"cfg": tmp_path / "exp.cfg", "file": tmp_path / "a_file", "dir": tmp_path}
    paths["run"] = tmp_path / "run"
    paths["cfg"].write_text(SMALL, encoding="utf-8")
    paths["file"].write_text("", encoding="utf-8")
    if argv[0] == "report":  # a finished run, whose baseline is a file
        assert cli.main(["train", "--config", str(paths["cfg"]), "--out", str(paths["run"])]) == 0
        assert cli.main(["attack", "--out", str(paths["run"])]) == 0
        capsys.readouterr()
    assert cli.main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"fedpriv {argv[0]}: error: ") and why in err
    assert err.count("\n") == 1


def test_cli_attack_without_train_errors(tmp_path, capsys):
    rc = cli.main(["attack", "--out", str(tmp_path / "missing")])
    assert rc == 1


def test_cli_baseline_delta(tmp_path):
    """A baseline that differs only in defense.kind is accepted."""
    cfg_path, defended_path = tmp_path / "exp.cfg", tmp_path / "defended.cfg"
    cfg_path.write_text(SMALL, encoding="utf-8")
    defended_path.write_text(DEFENDED, encoding="utf-8")
    base = tmp_path / "base"
    run = tmp_path / "run"
    cli.main(["train", "--config", str(cfg_path), "--out", str(base)])
    cli.main(["attack", "--out", str(base)])
    cli.main(["report", "--out", str(base)])
    cli.main(["train", "--config", str(defended_path), "--out", str(run)])
    cli.main(["attack", "--out", str(run)])
    assert cli.main(["report", "--out", str(run), "--baseline", str(base)]) == 0
    row = _lines(run / ex.SUMMARY_CSV)[1].split(",")
    acc_run = ex._read_final_test_acc(str(run))
    acc_base = ex._read_final_test_acc(str(base))
    assert float(row[2]) == pytest.approx(acc_run - acc_base, abs=1e-9)


def test_comm_overhead_estimate_formula():
    assert ex.comm_overhead_estimate(200, 100) == 20_200
    assert ex.comm_overhead_estimate(10, 100) == 1_200
    assert ex.comm_overhead_estimate(50, 0) == 0


def test_csv_dataset_source_runs(tmp_path):
    from fedpriv.data import generate_synthetic
    from harness import save_csv

    ds = generate_synthetic(4, 60, 5, 1.5, seed=3, mean_scale=4.0)
    csv_path = tmp_path / "data.csv"
    save_csv(ds, str(csv_path))
    cfg = parse_config_text(
        f"data.source = csv\ndata.csv_path = {csv_path}\nfl.K = 4\nfl.T = 4\n"
        "fl.snapshot_every = 2\neval.members = 8\neval.ifl = 9\neval.ofl = 6\n"
    )
    out = tmp_path / "csvrun"
    assert ex.run_experiment(cfg, str(out)) == 0
    assert os.path.exists(out / ex.SUMMARY_CSV)


def test_csv_data_of_one_class_are_refused_by_key_before_training(tmp_path, capsys, monkeypatch):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("f0,f1,label\n" + "1.0,2.0,0\n" * 5, encoding="utf-8")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"data.source = csv\ndata.csv_path = {csv_path}\nfl.K = 3\nfl.T = 2\n")
    calls = []
    monkeypatch.setattr(models, "sgd_lockstep", lambda *args, **kwargs: calls.append(args))
    err = _refused(capsys, ["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert "'data.csv_path'" in err and str(csv_path) in err and "1 class" in err
    assert calls == []


def test_attack_from_disk_equals_attack_from_memory(tmp_path):
    cfg = parse_config_text(
        SMALL + "attack.list = loss_series,avg_cosine,fta_l,fta_c,fedmia_i,fedmia_ii\n"
    )
    out = str(tmp_path / "run")
    state = ex.stage_train(cfg, out)
    ex.stage_attack(cfg, out, store=state.store)
    in_memory = _read(os.path.join(out, ex.ATTACKS_CSV))
    ex.stage_attack(cfg, out)
    assert _read(os.path.join(out, ex.ATTACKS_CSV)) == in_memory
    assert len(_lines(os.path.join(out, ex.ATTACKS_CSV))) == 7


# --- snapshot stamp: attack and report refuse another run's config or seed ---


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A seed-0 run of SMALL, trained and attacked once through the CLI."""
    root = tmp_path_factory.mktemp("stamped")
    cfg_path = root / "exp.cfg"
    cfg_path.write_text(SMALL, encoding="utf-8")
    out = root / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert cli.main(["attack", "--out", str(out)]) == 0
    return out


def _refused(capsys, argv):
    """Run the CLI, require exit status 1, return its one stderr line."""
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return err[0]


def test_attack_with_another_seed_is_refused(trained_run, tmp_path, capsys):
    out = shutil.copytree(trained_run, tmp_path / "run")
    before = _read(out / ex.ATTACKS_CSV)
    err = _refused(capsys, ["attack", "--out", str(out), "--seed", "5"])
    assert "'fl.seed'" in err and "5" in err and "seed 0" in err
    assert _read(out / ex.ATTACKS_CSV) == before


def test_report_with_another_seed_is_refused(trained_run, tmp_path, capsys):
    out = shutil.copytree(trained_run, tmp_path / "run")
    err = _refused(capsys, ["report", "--out", str(out), "--seed", "5"])
    assert "'fl.seed'" in err
    assert not (out / ex.SUMMARY_CSV).exists()


def test_attack_with_another_training_config_is_refused(trained_run, tmp_path, capsys):
    out = shutil.copytree(trained_run, tmp_path / "run")
    cfg_path = tmp_path / "lr.cfg"
    cfg_path.write_text(SMALL + "fl.lr = 0.25\n", encoding="utf-8")
    err = _refused(capsys, ["attack", "--out", str(out), "--config", str(cfg_path)])
    assert "differ from the ones that trained" in err


def test_attack_with_another_attack_list_is_accepted(trained_run, tmp_path):
    out = shutil.copytree(trained_run, tmp_path / "run")
    cfg_path = tmp_path / "attacks.cfg"
    cfg_path.write_text(SMALL + "attack.list = avg_cosine,fedmia_ii\n", encoding="utf-8")
    assert cli.main(["attack", "--out", str(out), "--config", str(cfg_path)]) == 0
    assert [line.split(",")[0] for line in _lines(out / ex.ATTACKS_CSV)[1:]] == [
        "avg_cosine",
        "fedmia_ii",
    ]


def test_copied_run_directory_is_accepted(trained_run, tmp_path):
    out = shutil.copytree(trained_run, tmp_path / "moved")
    os.remove(out / ex.ATTACKS_CSV)
    assert "output.dir" in (out / ex.CONFIG_TXT).read_text(encoding="utf-8")
    assert cli.main(["attack", "--out", str(out)]) == 0
    assert cli.main(["report", "--out", str(out)]) == 0
    assert _read(out / ex.ATTACKS_CSV) == _read(trained_run / ex.ATTACKS_CSV)


def _rewrite_as_format_1(path):
    """Replace a snapshot file by the five members the first format wrote."""
    with np.load(path) as blob:
        models_only = {name: blob[name] for name in MODEL_FIELDS}
    np.savez_compressed(path, **models_only)


@pytest.mark.parametrize("command", ["attack", "report"])
def test_format_1_snapshots_are_refused(trained_run, tmp_path, capsys, command):
    out = shutil.copytree(trained_run, tmp_path / "v1")
    _rewrite_as_format_1(out / ex.SNAPSHOTS_NPZ)
    err = _refused(capsys, [command, "--out", str(out)])
    assert "'format'" in err and "re-run `fedpriv train`" in err


@pytest.mark.parametrize(
    "field, index, at",
    [("globals", (1, 5), "row 1"), ("locals", (1, 3, 5), "row 1, client 3")],
)
def test_snapshots_with_a_non_finite_weight_are_refused(
    trained_run, tmp_path, capsys, field, index, at
):
    out = shutil.copytree(trained_run, tmp_path / "nan")
    path = out / ex.SNAPSHOTS_NPZ
    with np.load(path) as blob:
        fields = {name: blob[name] for name in blob.files}
    fields[field][index] = np.nan
    np.savez(path, **fields)
    before = _read(out / ex.ATTACKS_CSV)
    err = _refused(capsys, ["attack", "--out", str(out)])
    assert f"'{field}'" in err and f"non-finite weight at {at}" in err
    assert _read(out / ex.ATTACKS_CSV) == before


# --- report reads the artefacts of one training run only ---------------------


def test_retraining_removes_the_earlier_runs_attacks_and_summary(trained_run, tmp_path, capsys):
    out = shutil.copytree(trained_run, tmp_path / "run")
    assert cli.main(["report", "--out", str(out)]) == 0
    b_path = tmp_path / "b.cfg"
    b_path.write_text(SMALL + "fl.lr = 0.25\n", encoding="utf-8")
    assert cli.main(["train", "--config", str(b_path), "--out", str(out)]) == 0
    assert not (out / ex.ATTACKS_CSV).exists() and not (out / ex.SUMMARY_CSV).exists()
    err = _refused(capsys, ["report", "--out", str(out)])
    assert ex.ATTACKS_CSV in err
    assert not (out / ex.SUMMARY_CSV).exists()

    fresh = tmp_path / "fresh"
    assert cli.main(["train", "--config", str(b_path), "--out", str(fresh)]) == 0
    for out_dir in (out, fresh):
        assert cli.main(["attack", "--out", str(out_dir)]) == 0
        assert cli.main(["report", "--out", str(out_dir)]) == 0
    for name in (ex.ATTACKS_CSV, ex.SUMMARY_CSV, ex.ROUNDS_CSV, ex.SNAPSHOTS_NPZ):
        assert _read(out / name) == _read(fresh / name), name


def _train_baseline(tmp_path, name, text):
    cfg_path = tmp_path / f"{name}.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    out = tmp_path / name
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize(
    "text, key",
    [
        (SMALL + "fl.seed = 3\n", "'fl.seed'"),
        (SMALL + "fl.lr = 0.25\n", "'fl.lr'"),
        # every client carves its validation rows, so the runs train on other rows
        (SMALL + "defense.val_fraction = 0.5\n", "'defense.val_fraction'"),
    ],
    ids=["seed", "lr", "val_fraction"],
)
def test_report_refuses_a_baseline_with_other_training_settings(
    trained_run, tmp_path, capsys, text, key
):
    out = shutil.copytree(trained_run, tmp_path / "run")
    base = _train_baseline(tmp_path, "base", text)
    err = _refused(capsys, ["report", "--out", str(out), "--baseline", str(base)])
    assert key in err and str(base) in err
    assert not (out / ex.SUMMARY_CSV).exists()


def test_report_refuses_a_baseline_whose_config_is_not_the_one_that_trained_it(
    trained_run, tmp_path, capsys
):
    out = shutil.copytree(trained_run, tmp_path / "run")
    base = shutil.copytree(trained_run, tmp_path / "base")
    (base / ex.CONFIG_TXT).write_text(
        (base / ex.CONFIG_TXT).read_text(encoding="utf-8") + "defense.kind = grad_noise\n"
        "defense.coalition = 0\n",
        encoding="utf-8",
    )
    err = _refused(capsys, ["report", "--out", str(out), "--baseline", str(base)])
    assert "differ from the ones that trained" in err


def test_report_refuses_a_baseline_trained_on_other_rows_of_the_data_file(
    tmp_path, capsys, monkeypatch
):
    from fedpriv.data import generate_synthetic
    from harness import save_csv

    csv_path = tmp_path / "data.csv"
    save_csv(generate_synthetic(4, 60, 5, 1.5, seed=3, mean_scale=4.0), str(csv_path))
    text = (
        f"data.source = csv\ndata.csv_path = {csv_path}\nfl.K = 4\nfl.T = 4\n"
        "fl.snapshot_every = 2\neval.members = 8\neval.ifl = 9\neval.ofl = 6\n"
    )
    base = _train_baseline(tmp_path, "base", text)
    defended = text + "defense.kind = grad_noise\ndefense.coalition = 0\n"
    run = _train_baseline(tmp_path, "run", defended)
    assert cli.main(["attack", "--out", str(run)]) == 0
    read = []
    getitem = np.lib.npyio.NpzFile.__getitem__
    monkeypatch.setattr(
        np.lib.npyio.NpzFile, "__getitem__", lambda npz, key: read.append(key) or getitem(npz, key)
    )
    assert cli.main(["report", "--out", str(run), "--baseline", str(base)]) == 0
    assert read and not set(read) & set(MODEL_FIELDS)  # only stamps and rows
    acc_run, acc_base = (ex._read_final_test_acc(str(d)) for d in (run, base))
    auc = ex._read_mean_attack_auc(str(run))
    assert _lines(run / ex.SUMMARY_CSV)[1] == (
        f"grad_noise,{ex._fmt(acc_run)},{ex._fmt(acc_run - acc_base)},{ex._fmt(auc)}"
    )

    # the same shape and header, other values: the run retrains on other rows
    save_csv(generate_synthetic(4, 60, 5, 1.5, seed=4, mean_scale=4.0), str(csv_path))
    assert cli.main(["train", "--config", str(tmp_path / "run.cfg"), "--out", str(run)]) == 0
    assert cli.main(["attack", "--out", str(run)]) == 0
    err = _refused(capsys, ["report", "--out", str(run), "--baseline", str(base)])
    assert "'data.csv_path'" in err and str(csv_path) in err and str(base) in err
    assert "snapshot field 'rows' differs" in err
    assert not (run / ex.SUMMARY_CSV).exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text, message",
    [
        (
            SMALL + "defense.kind = grad_noise\ndefense.coalition = 0\n"
            "defense.noise_sigma = 1e308\n",
            "training diverged at round 1: the aggregated global model is not finite",
        ),
        (
            DEFENDED + "defense.sigma = 1e308\n",
            "training diverged at round 1: the noise of sigma 1e+308 fails to cancel; "
            "coalition client(s) [0, 1]",
        ),
        (SMALL + "data.cluster_spread = 1e308\n", "config field 'data.cluster_spread': 1e+308"),
    ],
    ids=["noise_sigma", "sigma", "cluster_spread"],
)
def test_huge_finite_values_fail_in_one_line_without_numpy_warnings(
    tmp_path, capsys, text, message
):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    out = tmp_path / "run"
    assert message in _refused(capsys, ["train", "--config", str(cfg_path), "--out", str(out)])
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_a_huge_finite_sigma_that_cancels_is_attacked_in_silence(tmp_path, capsys):
    """Noise of 1e306 on the misuse sweep's base config trains; its huge
    local models give huge losses and update directions, which the attacks
    measure without overflowing."""
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        f"""
data.source = synthetic
data.num_classes = 5
data.samples_per_class = 40
data.input_dim = 4
model.hidden_dim = 8
fl.K = 5
fl.T = 4
fl.snapshot_every = 2
fl.batch_size = 16
defense.kind = coalition
defense.coalition = 0,1
defense.t0 = 1
defense.intervals = 4
defense.sigma = 1e306
attack.list = {",".join(atk.ATTACK_NAMES)}
eval.members = 10
eval.ifl = 10
eval.ofl = 5
""",
        encoding="utf-8",
    )
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert cli.main(["attack", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = {row["attack"]: row for row in csv.DictReader(_lines(out / ex.ATTACKS_CSV))}
    assert sorted(rows) == sorted(atk.ATTACK_NAMES)
    # a cosine does not depend on scale: the update directions still rank the pool
    assert float(rows["avg_cosine"]["auc"]) != 0.5


@pytest.mark.parametrize("fraction", ["0", "0.001"])
def test_a_split_without_a_test_row_names_test_fraction(tmp_path, capsys, fraction):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL + f"data.test_fraction = {fraction}\n", encoding="utf-8")
    out = tmp_path / "run"
    err = _refused(capsys, ["train", "--config", str(cfg_path), "--out", str(out)])
    assert f"'data.test_fraction': {float(fraction)} of 200 rows leaves no test row" in err
    assert not (out / ex.SNAPSHOTS_NPZ).exists()

"""End-to-end tests for the experiment stages and the CLI."""

import os

import numpy as np
import pytest

from fedpriv import cli, experiment as ex
from fedpriv import models
from fedpriv.config import parse_config_text
from oracles import sequential_sgd_clients

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


def test_rerun_is_byte_identical(tmp_path):
    cfg = parse_config_text(DEFENDED)
    a, b = tmp_path / "a", tmp_path / "b"
    ex.run_experiment(cfg, str(a))
    ex.run_experiment(cfg, str(b))
    for name in (ex.ROUNDS_CSV, ex.ASSIGNMENTS_CSV, ex.COMPENSATION_CSV, ex.ATTACKS_CSV, ex.SUMMARY_CSV):
        assert _read(a / name) == _read(b / name), name


def test_lockstep_outputs_match_sequential_oracle(tmp_path, monkeypatch):
    cfg = parse_config_text(DEFENDED)
    a, b = tmp_path / "lockstep", tmp_path / "oracle"
    ex.run_experiment(cfg, str(a))
    monkeypatch.setattr(models, "sgd_clients", sequential_sgd_clients)
    ex.run_experiment(cfg, str(b))
    for name in (ex.ROUNDS_CSV, ex.COMPENSATION_CSV, ex.ATTACKS_CSV, ex.SNAPSHOTS_NPZ):
        assert _read(a / name) == _read(b / name), name


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
    assert not (out / ex.SNAPSHOTS_NPZ).exists()


def test_cli_infeasible_pools_fail_before_training(tmp_path, capsys):
    cfg_path = tmp_path / "pools.cfg"
    cfg_path.write_text(SMALL.replace("eval.members = 10", "eval.members = 500"), encoding="utf-8")
    out = tmp_path / "pools"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "eval.members = 500" in capsys.readouterr().err
    assert not (out / ex.SNAPSHOTS_NPZ).exists()


def test_cli_has_no_threads_option(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL, encoding="utf-8")
    argv = ["train", "--config", str(cfg_path), "--out", str(tmp_path / "t"), "--threads", "1"]
    with pytest.raises(SystemExit):
        cli.main(argv)


def test_cli_attack_without_train_errors(tmp_path, capsys):
    rc = cli.main(["attack", "--out", str(tmp_path / "missing")])
    assert rc == 1


def test_cli_baseline_delta(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL, encoding="utf-8")
    base = tmp_path / "base"
    run = tmp_path / "run"
    cli.main(["train", "--config", str(cfg_path), "--out", str(base)])
    cli.main(["attack", "--out", str(base)])
    cli.main(["report", "--out", str(base)])
    cli.main(["train", "--config", str(cfg_path), "--out", str(run), "--seed", "9"])
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
    from fedpriv.data import generate_synthetic, save_csv

    ds = generate_synthetic(4, 60, 5, 1.5, seed=3)
    csv_path = tmp_path / "data.csv"
    save_csv(ds, str(csv_path))
    cfg = parse_config_text(
        f"data.source = csv\ndata.csv_path = {csv_path}\nfl.K = 4\nfl.T = 4\n"
        "fl.snapshot_every = 2\neval.members = 8\neval.ifl = 9\neval.ofl = 6\n"
    )
    out = tmp_path / "csvrun"
    assert ex.run_experiment(cfg, str(out)) == 0
    assert os.path.exists(out / ex.SUMMARY_CSV)


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

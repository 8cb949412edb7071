"""Tests for config parsing, validation, and serialization."""

import math
import re
from dataclasses import fields, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedpriv.assignment import DECAY_KINDS
from fedpriv.attacks import ATTACK_NAMES, attack_selector, fedmia_excluded
from fedpriv.config import (
    SCHEMA,
    ConfigError,
    ExperimentConfig,
    parse_config,
    parse_config_text,
    resolved_class_bounds,
    serialize_config,
    training_fingerprint,
    validate_config,
)
from fedpriv.experiment import build_defense_config, build_fl_config
from fedpriv.federation import DEFENSE_KINDS

MINIMAL = """
# minimal experiment
data.source = synthetic
fl.K = 10
fl.T = 60
"""


def test_minimal_config_gets_reference_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.num_clients == 10
    assert cfg.rounds == 60
    assert cfg.intervals == 10
    assert cfg.t0 == 10
    assert cfg.mu == 0.005
    assert cfg.sigma == 0.1 and cfg.r_p == 0.2
    assert cfg.defense == "none"


def test_comments_and_inline_comments():
    cfg = parse_config_text(MINIMAL + "fl.lr = 0.5  # higher step\n")
    assert cfg.lr == 0.5


def test_comment_starts_only_at_line_start_or_after_whitespace():
    cfg = parse_config_text(
        "data.source = csv\ndata.csv_path = runs/data#1.csv  # the #1 run\nfl.K = 4\nfl.T = 5\n"
    )
    assert cfg.csv_path == "runs/data#1.csv"
    with pytest.raises(ConfigError, match=re.escape("'fl.lr'")):
        parse_config_text(MINIMAL + "fl.lr = 0.5#x\n")


def test_path_with_hash_round_trips():
    cfg = replace(parse_config_text(MINIMAL), out_dir="runs/a#b")
    assert parse_config_text(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("key, attr", [("data.csv_path", "csv_path"), ("output.dir", "out_dir")])
@pytest.mark.parametrize(
    "value",
    [
        "runs/a #b",
        "runs/a\t#b",
        "#b",
        # config text strips a value and splits lines wherever str.splitlines does
        "runs/a ",
        " runs/a",
        "runs/a\nfl.K = 9",
        "runs/a\rb",
        "runs/a\x0bb",
        "runs/a\x85b",
        "runs/a\u2028b",
    ],
)
def test_path_that_would_read_as_a_comment_is_rejected(key, attr, value):
    cfg = replace(parse_config_text(MINIMAL), source="csv", csv_path="runs/d.csv")
    with pytest.raises(ConfigError, match=re.escape(repr(key))):
        validate_config(replace(cfg, **{attr: value}))


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + "fl.decay = 0.5\n")
    assert "fl.decay" in str(err.value)
    assert ":6" in str(err.value)


def test_missing_required_key_named():
    with pytest.raises(ConfigError) as err:
        parse_config_text("data.source = synthetic\nfl.K = 4\n")
    assert "fl.T" in str(err.value)


def test_bad_value_reports_key_and_line():
    with pytest.raises(ConfigError) as err:
        parse_config_text("data.source = synthetic\nfl.K = ten\nfl.T = 5\n")
    assert "fl.K" in str(err.value) and ":2" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + "fl.K = 3\n")
    assert "duplicate" in str(err.value)


def test_coalition_id_out_of_range_names_field():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + "defense.kind = coalition\ndefense.coalition = 0,10\n")
    assert "defense.coalition" in str(err.value)


def test_repeated_coalition_id_names_field():
    # a duplicate id used to be dropped, leaving a one-client coalition that
    # was then refused under defense.sigma
    with pytest.raises(ConfigError, match=r"'defense.coalition': client id 0 is repeated"):
        parse_config_text(MINIMAL + "defense.kind = coalition\ndefense.coalition = 0,0\n")
    with pytest.raises(ConfigError, match=r"'defense.coalition': client id 3 is repeated"):
        parse_config_text(MINIMAL + "defense.kind = grad_noise\ndefense.coalition = 3,1,3\n")


def test_repeated_attack_names_field():
    # a repeated attack used to be scored twice, and counted twice in
    # summary.csv's mean_attack_auc
    with pytest.raises(ConfigError, match=r"^config field 'attack.list': attack 'loss_series' is"):
        parse_config_text(MINIMAL + "attack.list = loss_series,loss_series,fta_l\n")


def test_threads_key_accepts_only_one():
    assert parse_config_text(MINIMAL + "fl.threads = 1\n").threads == 1
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + "fl.threads = 4\n")
    assert "fl.threads" in str(err.value)


def test_defense_needs_coalition():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + "defense.kind = grad_noise\n")
    assert "defense.coalition" in str(err.value)


def test_t0_after_last_round_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text(
            "data.source = synthetic\nfl.K = 4\nfl.T = 5\n"
            "defense.kind = coalition\ndefense.coalition = 0,1\ndefense.t0 = 9\n"
        )
    assert "defense.t0" in str(err.value)


def test_single_client_coalition_with_noise_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + "defense.kind = coalition\ndefense.coalition = 2\n")
    assert "defense.sigma" in str(err.value)
    cfg = parse_config_text(
        MINIMAL + "defense.kind = coalition\ndefense.coalition = 2\ndefense.sigma = 0\n"
    )
    assert cfg.sigma == 0.0


COALITION = "defense.kind = coalition\ndefense.coalition = 0,1\n"


@pytest.mark.parametrize(
    "key, value, extra",
    [
        ("defense.t0", "0", COALITION),
        ("defense.intervals", "0", COALITION),
        ("defense.eta", "1.5", COALITION),
        ("defense.decay", "step", COALITION),
        ("defense.sigma", "-0.1", COALITION),
        ("defense.keep_rate", "0", "defense.kind = grad_sparse\ndefense.coalition = 0\n"),
        ("defense.noise_sigma", "-1", "defense.kind = grad_noise\ndefense.coalition = 0\n"),
        ("data.cluster_spread", "-1", ""),
        ("fl.lr", "-0.1", ""),
        ("fl.lr", "nan", ""),
        ("fl.lr", "inf", ""),
        ("fl.local_epochs", "0", ""),
        ("fl.batch_size", "0", ""),
        ("fl.snapshot_every", "0", ""),
        ("data.beta", "nan", "data.partition = dirichlet\n"),
        ("defense.mu", "nan", COALITION),
        ("defense.mu", "inf", COALITION),
        ("defense.sigma", "inf", COALITION),
        ("defense.noise_sigma", "inf", "defense.kind = grad_noise\ndefense.coalition = 0\n"),
        ("data.beta", "inf", "data.partition = dirichlet\n"),
        ("data.cluster_spread", "inf", ""),
        ("data.mean_scale", "nan", ""),
        ("data.mean_scale", "-1", ""),
        ("eval.members", "0", ""),
        ("eval.ifl", "0", "eval.ofl = 0\n"),
    ],
)
def test_out_of_range_value_names_its_key(key, value, extra):
    with pytest.raises(ConfigError, match=re.escape(repr(key))):
        parse_config_text(MINIMAL + extra + f"{key} = {value}\n")


@pytest.mark.parametrize("seed", [-(2**63) - 1, 2**63, 2**64])
def test_seed_outside_a_signed_64_bit_integer_is_rejected(seed):
    with pytest.raises(ConfigError, match=re.escape("'fl.seed'")):
        parse_config_text(MINIMAL + f"fl.seed = {seed}\n")


@pytest.mark.parametrize("seed", [-(2**63), -1, 2**63 - 1])
def test_seed_at_the_ends_of_a_signed_64_bit_integer_is_accepted(seed):
    assert parse_config_text(MINIMAL + f"fl.seed = {seed}\n").seed == seed


def test_empty_pools_are_accepted_without_attacks():
    cfg = parse_config_text(MINIMAL + "attack.list =\neval.members = 0\neval.ifl = 0\neval.ofl = 0\n")
    assert cfg.attack_list == () and cfg.members_n == 0
    assert parse_config_text(MINIMAL + "eval.ifl = 0\n").ifl_n == 0


@pytest.mark.parametrize("attack", ["fedmia_i", "fedmia_ii"])
@pytest.mark.parametrize(
    "extra, leaves",
    [
        ("fl.K = 2\n", "fl.K = 2 leaves 1"),
        ("fl.K = 2\nattack.target = global\n", "fl.K = 2 leaves 1"),
        (
            "fl.K = 5\ndefense.kind = coalition\ndefense.coalition = 0,1,2,3\n"
            "attack.target = coalition\n",
            "defense.coalition = 0,1,2,3 leaves 1",
        ),
    ],
    ids=["local", "global", "coalition"],
)
def test_fedmia_without_two_clients_outside_its_target_names_the_keys(attack, extra, leaves):
    text = f"data.source = synthetic\nfl.T = 10\nattack.list = loss_series,{attack}\n" + extra
    with pytest.raises(ConfigError, match=re.escape(f"'attack.list': {attack} ") + ".*" + leaves):
        parse_config_text(text)
    # one more client outside the target is enough
    more = text.replace("fl.K = 2", "fl.K = 3").replace("fl.K = 5", "fl.K = 6")
    assert parse_config_text(more).attack_list == ("loss_series", attack)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(2, 8), data=st.data())
def test_fedmia_is_accepted_exactly_when_two_clients_stay_outside_its_target(k, data):
    target = data.draw(st.sampled_from(("local", "global", "coalition")), label="target")
    coalition = data.draw(
        st.lists(st.integers(0, k - 1), unique=True, min_size=1, max_size=k).map(tuple),
        label="coalition",
    )
    target_client = data.draw(st.integers(0, k - 1), label="target_client")
    cfg = replace(
        parse_config_text(MINIMAL),
        num_clients=k,
        defense="grad_noise",
        coalition=coalition,
        target_client=target_client,
        attack_target=target,
        attack_list=(data.draw(st.sampled_from(("fedmia_i", "fedmia_ii")), label="attack"),),
    )
    selector = attack_selector(target, target_client, coalition)
    outside = k - len(fedmia_excluded(selector, target_client))
    assert _is_valid(cfg) == (outside >= 2)


def test_defense_keys_are_checked_only_under_their_defense():
    cfg = parse_config_text(MINIMAL + "defense.keep_rate = 0\ndefense.decay = step\n")
    assert cfg.keep_rate == 0.0 and cfg.decay == "step"


def test_m_max_beyond_classes_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + "defense.m_max = 11\n")
    assert "defense.m_max" in str(err.value)


def test_unknown_attack_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL + "attack.list = loss_series,gradient_inversion\n")
    assert "attack.list" in str(err.value)


def test_round_trip_parse_serialize_parse():
    text = MINIMAL + (
        "defense.kind = coalition\n"
        "defense.coalition = 1,3\n"
        "defense.sigma = 0.05\n"
        "attack.list = loss_series,fedmia_ii\n"
        "fl.lr = 0.35\n"
        "data.cluster_spread = 4.5\n"
    )
    cfg = parse_config_text(text)
    again = parse_config_text(serialize_config(cfg))
    assert again == cfg


def test_round_trip_of_defaults():
    cfg = parse_config_text(MINIMAL)
    assert parse_config_text(serialize_config(cfg)) == cfg


def test_parse_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(MINIMAL, encoding="utf-8")
    assert parse_config(str(path)) == parse_config_text(MINIMAL)


def test_malformed_line_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("data.source synthetic\n")
    assert ":1" in str(err.value)


def test_csv_source_requires_path():
    with pytest.raises(ConfigError) as err:
        parse_config_text("data.source = csv\nfl.K = 4\nfl.T = 5\n")
    assert "data.csv_path" in str(err.value)


def test_config_equality_is_field_wise():
    a = parse_config_text(MINIMAL)
    b = parse_config_text(MINIMAL)
    assert a == b and isinstance(a, ExperimentConfig)


# Every key but fl.threads set to a value other than its default (fl.threads
# accepts only its default, 1, which serialize_config leaves out).
EVERY_KEY = ExperimentConfig(
    source="csv",
    csv_path="runs/data.csv",
    num_classes=6,
    samples_per_class=50,
    input_dim=5,
    cluster_spread=1.5,
    mean_scale=3.0,
    test_fraction=0.25,
    partition="dirichlet",
    beta=0.3,
    ofl_fraction=0.15,
    hidden_dim=16,
    num_clients=5,
    rounds=20,
    lr=0.05,
    local_epochs=2,
    batch_size=16,
    snapshot_every=5,
    seed=7,
    threads=1,
    defense="coalition",
    coalition=(1, 3),
    m_max=5,
    m_min=2,
    decay="cosine",
    t0=4,
    intervals=5,
    r_l=0.2,
    mu=0.01,
    eta=0.2,
    val_fraction=0.2,
    sigma=0.05,
    r_p=0.3,
    keep_rate=0.5,
    noise_sigma=0.02,
    target_client=3,
    attack_list=("fta_c", "fedmia_ii"),
    attack_target="coalition",
    members_n=30,
    ifl_n=40,
    ofl_n=20,
    out_dir="runs/pinned",
)

# config.txt of EVERY_KEY: a reordered, renamed or re-rendered key changes it.
EVERY_KEY_TEXT = """\
data.source = csv
data.csv_path = runs/data.csv
data.num_classes = 6
data.samples_per_class = 50
data.input_dim = 5
data.cluster_spread = 1.5
data.mean_scale = 3.0
data.test_fraction = 0.25
data.partition = dirichlet
data.beta = 0.3
data.ofl_fraction = 0.15
model.hidden_dim = 16
fl.K = 5
fl.T = 20
fl.lr = 0.05
fl.local_epochs = 2
fl.batch_size = 16
fl.snapshot_every = 5
fl.seed = 7
defense.kind = coalition
defense.coalition = 1,3
defense.m_max = 5
defense.m_min = 2
defense.decay = cosine
defense.t0 = 4
defense.intervals = 5
defense.r_l = 0.2
defense.mu = 0.01
defense.eta = 0.2
defense.val_fraction = 0.2
defense.sigma = 0.05
defense.r_p = 0.3
defense.keep_rate = 0.5
defense.noise_sigma = 0.02
attack.target_client = 3
attack.list = fta_c,fedmia_ii
attack.target = coalition
eval.members = 30
eval.ifl = 40
eval.ofl = 20
output.dir = runs/pinned
"""


def test_serialized_bytes_of_every_key_are_pinned():
    defaults = ExperimentConfig()
    same = [
        f.name
        for f in fields(ExperimentConfig)
        if getattr(EVERY_KEY, f.name) == getattr(defaults, f.name)
    ]
    assert same == ["threads"]
    validate_config(EVERY_KEY)
    assert serialize_config(EVERY_KEY) == EVERY_KEY_TEXT
    assert parse_config_text(EVERY_KEY_TEXT) == EVERY_KEY


@pytest.mark.parametrize(
    "name, value",
    [("t0", 0), ("intervals", 0), ("r_l", 1.5), ("mu", -1), ("mu", math.nan), ("eta", 2)]
    + [("r_p", 0.0), ("r_p", 1.5), ("sigma", -1.0), ("sigma", math.inf), ("decay", "bogus")],
)
def test_defense_config_refuses_a_recycling_value_out_of_range(name, value):
    cfg = replace(parse_config_text(MINIMAL + COALITION), **{name: value})
    refused = f"^config field 'defense.{name}': must be"
    with pytest.raises(ConfigError, match=refused):
        build_fl_config(cfg)
    with pytest.raises(ConfigError, match=refused):
        build_defense_config(cfg, cfg.num_classes)


# --- property tests of the canonical form -----------------------------------

# '#' but no spaces: a '#' at the start of a value or after whitespace starts
# a comment (validate_config rejects such paths), and parsing strips
# surrounding whitespace.
PATH_TEXT = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_./-#", min_size=1, max_size=12)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _field_strategies(num_clients, num_classes, rounds):
    """One strategy per ExperimentConfig attribute, drawing values that are
    valid on their own for the given fl.K, data.num_classes and fl.T."""
    client_id = st.integers(0, num_clients - 1)
    return {
        "source": st.sampled_from(("synthetic", "csv")),
        "csv_path": PATH_TEXT,
        "num_classes": st.integers(2, 30),
        "samples_per_class": st.integers(1, 500),
        "input_dim": st.integers(1, 40),
        "cluster_spread": _finite(0, 10),
        "mean_scale": _finite(0, 10),
        "test_fraction": _finite(0, 0.9),
        "partition": st.sampled_from(("iid", "dirichlet")),
        "beta": _finite(0.01, 10),
        "ofl_fraction": _finite(0, 0.9),
        "hidden_dim": st.integers(0, 64),
        "num_clients": st.integers(2, 20),
        "rounds": st.integers(1, 100),
        "lr": _finite(0, 5),
        "local_epochs": st.integers(1, 5),
        "batch_size": st.integers(1, 64),
        "snapshot_every": st.integers(1, 20),
        "seed": st.integers(0, 2**31 - 1),
        "threads": st.just(1),
        "defense": st.sampled_from(DEFENSE_KINDS),
        "coalition": st.lists(client_id, unique=True, max_size=num_clients).map(tuple),
        "m_max": st.none() | st.integers(1, num_classes),
        "m_min": st.none() | st.integers(1, num_classes),
        "decay": st.sampled_from(DECAY_KINDS),
        "t0": st.integers(1, rounds),
        "intervals": st.integers(1, 20),
        "r_l": _finite(0, 1),
        "mu": _finite(0, 1),
        "eta": _finite(0, 1),
        "val_fraction": _finite(0, 0.9),
        "sigma": _finite(0, 1),
        "r_p": _finite(0.01, 1),
        "keep_rate": _finite(0.01, 1),
        "noise_sigma": _finite(0, 1),
        "target_client": client_id,
        "attack_list": st.lists(st.sampled_from(ATTACK_NAMES), unique=True).map(tuple),
        "attack_target": st.sampled_from(("local", "global", "coalition")),
        "members_n": st.integers(0, 200),
        "ifl_n": st.integers(0, 200),
        "ofl_n": st.integers(0, 200),
        "out_dir": PATH_TEXT,
    }


def _is_valid(cfg):
    try:
        validate_config(cfg)
    except ConfigError:
        return False
    return True


@st.composite
def valid_configs(draw):
    k = draw(st.integers(2, 20))
    classes = draw(st.integers(2, 30))
    rounds = draw(st.integers(1, 100))
    values = {attr: draw(s) for attr, s in _field_strategies(k, classes, rounds).items()}
    values.update(num_clients=k, num_classes=classes, rounds=rounds)
    cfg = ExperimentConfig(**values)
    assume(_is_valid(cfg))
    return cfg


def test_field_strategies_cover_every_config_field():
    assert set(_field_strategies(2, 2, 1)) == {f.name for f in fields(ExperimentConfig)}


@settings(max_examples=150, deadline=None)
@given(cfg=valid_configs())
def test_serialize_then_parse_is_identity(cfg):
    assert parse_config_text(serialize_config(cfg)) == cfg


@settings(max_examples=200, deadline=None)
@given(cfg=valid_configs(), data=st.data())
def test_fingerprint_changes_exactly_with_training_keys(cfg, data):
    key = data.draw(st.sampled_from(sorted(SCHEMA)), label="key")
    attr = SCHEMA[key][0]
    strategy = _field_strategies(cfg.num_clients, cfg.num_classes, cfg.rounds)[attr]
    value = data.draw(strategy, label="value")
    assume(value != getattr(cfg, attr))
    changed = replace(cfg, **{attr: value})
    assume(_is_valid(changed))
    differs = training_fingerprint(changed) != training_fingerprint(cfg)
    trains = key.split(".", 1)[0] in ("data", "model", "fl", "defense")
    assert differs == trains, key


@settings(max_examples=150, deadline=None)
@given(cfg=valid_configs())
def test_library_configs_copy_the_config_attributes_of_their_field_names(cfg):
    # the builders sort the coalition ids and resolve the class bounds, and
    # change nothing else
    assert build_fl_config(cfg) == replace(cfg, coalition=tuple(sorted(cfg.coalition)))
    if cfg.defense != "coalition":
        assert build_defense_config(cfg, cfg.num_classes) is None
    # synthetic data, whose class count validate_config checks m_max and m_min against
    defended = replace(cfg, source="synthetic", defense="coalition")
    assume(_is_valid(defended))
    m_max, m_min = resolved_class_bounds(defended, defended.num_classes)
    assert build_defense_config(defended, defended.num_classes) == replace(
        defended, coalition=tuple(sorted(defended.coalition)), m_max=m_max, m_min=m_min
    )

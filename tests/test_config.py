"""Tests for config parsing, validation, and serialization."""

import re
from dataclasses import fields, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedpriv.assignment import DECAY_KINDS
from fedpriv.attacks import ATTACK_NAMES
from fedpriv.config import (
    SCHEMA,
    ConfigError,
    ExperimentConfig,
    parse_config,
    parse_config_text,
    serialize_config,
    training_fingerprint,
    validate_config,
)
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
        ("data.cluster_spread", "inf", ""),
        ("data.mean_scale", "nan", ""),
    ],
)
def test_out_of_range_value_names_its_key(key, value, extra):
    with pytest.raises(ConfigError, match=re.escape(repr(key))):
        parse_config_text(MINIMAL + extra + f"{key} = {value}\n")


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


# --- property tests of the canonical form -----------------------------------

# No '#' or spaces: a value cannot hold '#' (it starts a comment), and parsing
# strips surrounding whitespace.
PATH_TEXT = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_./-", min_size=1, max_size=12)


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
        "mean_scale": _finite(-10, 10),
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

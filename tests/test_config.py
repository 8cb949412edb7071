"""Tests for config parsing, validation, and serialization."""

import pytest

from fedpriv.config import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    parse_config_text,
    serialize_config,
)

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

"""Experiment configuration: flat `key = value` files with dotted sections.

Format: UTF-8 text, one `section.key = value` per line, `#` starts a
comment, unknown keys are rejected. Lists (coalition ids, attack names)
are comma-separated. Defaults follow the reference setup: 10 loss
intervals, compensation from round 10, entropy weight 0.005.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from .assignment import DECAY_KINDS
from .attacks import ATTACK_NAMES
from .federation import DEFENSE_KINDS


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configs."""


@dataclass
class ExperimentConfig:
    # data
    source: str = ""  # required: synthetic | csv
    csv_path: str = ""
    num_classes: int = 10
    samples_per_class: int = 120
    input_dim: int = 12
    cluster_spread: float = 2.0
    mean_scale: float = 4.0
    test_fraction: float = 0.2
    partition: str = "iid"  # iid | dirichlet
    beta: float = 0.5
    ofl_fraction: float = 0.1
    # model
    hidden_dim: int = 32
    # federation
    num_clients: int = 0  # required
    rounds: int = 0  # required
    lr: float = 0.2
    local_epochs: int = 1
    batch_size: int = 32
    snapshot_every: int = 10
    seed: int = 0
    threads: int = 1  # accepted only as 1: clients train in lock-step in one thread
    # defense
    defense: str = "none"
    coalition: tuple[int, ...] = ()
    m_max: int | None = None  # default: num_classes
    m_min: int | None = None  # default: ceil(0.2 * num_classes)
    decay: str = "linear"
    t0: int = 10
    intervals: int = 10
    r_l: float = 0.1
    mu: float = 0.005
    eta: float = 0.1
    val_fraction: float = 0.1
    sigma: float = 0.1
    r_p: float = 0.2
    keep_rate: float = 0.1
    noise_sigma: float = 0.01
    # attacks / evaluation
    target_client: int = 0
    attack_list: tuple[str, ...] = ("loss_series", "fta_l", "fedmia_i")
    attack_target: str = "local"  # local | global | coalition
    members_n: int = 60
    ifl_n: int = 90
    ofl_n: int = 60
    # output
    out_dir: str = ""


def _parse_int(v: str) -> int:
    return int(v)


def _parse_float(v: str) -> float:
    return float(v)


def _parse_str(v: str) -> str:
    return v


def _parse_ints(v: str) -> tuple[int, ...]:
    v = v.strip()
    if not v:
        return ()
    return tuple(int(part.strip()) for part in v.split(","))


def _parse_strs(v: str) -> tuple[str, ...]:
    v = v.strip()
    if not v:
        return ()
    return tuple(part.strip() for part in v.split(","))


# dotted config key -> (attribute, parser)
SCHEMA: dict[str, tuple[str, object]] = {
    "data.source": ("source", _parse_str),
    "data.csv_path": ("csv_path", _parse_str),
    "data.num_classes": ("num_classes", _parse_int),
    "data.samples_per_class": ("samples_per_class", _parse_int),
    "data.input_dim": ("input_dim", _parse_int),
    "data.cluster_spread": ("cluster_spread", _parse_float),
    "data.mean_scale": ("mean_scale", _parse_float),
    "data.test_fraction": ("test_fraction", _parse_float),
    "data.partition": ("partition", _parse_str),
    "data.beta": ("beta", _parse_float),
    "data.ofl_fraction": ("ofl_fraction", _parse_float),
    "model.hidden_dim": ("hidden_dim", _parse_int),
    "fl.K": ("num_clients", _parse_int),
    "fl.T": ("rounds", _parse_int),
    "fl.lr": ("lr", _parse_float),
    "fl.local_epochs": ("local_epochs", _parse_int),
    "fl.batch_size": ("batch_size", _parse_int),
    "fl.snapshot_every": ("snapshot_every", _parse_int),
    "fl.seed": ("seed", _parse_int),
    "fl.threads": ("threads", _parse_int),
    "defense.kind": ("defense", _parse_str),
    "defense.coalition": ("coalition", _parse_ints),
    "defense.m_max": ("m_max", _parse_int),
    "defense.m_min": ("m_min", _parse_int),
    "defense.decay": ("decay", _parse_str),
    "defense.t0": ("t0", _parse_int),
    "defense.intervals": ("intervals", _parse_int),
    "defense.r_l": ("r_l", _parse_float),
    "defense.mu": ("mu", _parse_float),
    "defense.eta": ("eta", _parse_float),
    "defense.val_fraction": ("val_fraction", _parse_float),
    "defense.sigma": ("sigma", _parse_float),
    "defense.r_p": ("r_p", _parse_float),
    "defense.keep_rate": ("keep_rate", _parse_float),
    "defense.noise_sigma": ("noise_sigma", _parse_float),
    "attack.target_client": ("target_client", _parse_int),
    "attack.list": ("attack_list", _parse_strs),
    "attack.target": ("attack_target", _parse_str),
    "eval.members": ("members_n", _parse_int),
    "eval.ifl": ("ifl_n", _parse_int),
    "eval.ofl": ("ofl_n", _parse_int),
    "output.dir": ("out_dir", _parse_str),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _) in SCHEMA.items()}
_REQUIRED = ("data.source", "fl.K", "fl.T")


def parse_config_text(text: str, origin: str = "<config>") -> ExperimentConfig:
    """Parse and validate config text; errors name the offending key and line."""
    cfg = ExperimentConfig()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        attr, parser = SCHEMA[key]
        try:
            setattr(cfg, attr, parser(value))
        except ValueError as exc:
            raise ConfigError(f"{origin}:{lineno}: bad value for {key!r}: {exc}") from exc
    for key in _REQUIRED:
        if key not in seen:
            raise ConfigError(f"{origin}: missing required key {key!r}")
    validate_config(cfg)
    return cfg


def parse_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), origin=path)


def validate_config(cfg: ExperimentConfig) -> None:
    """Cross-field validation; raises ConfigError naming the field."""

    def bad(key: str, msg: str):
        raise ConfigError(f"config field {key!r}: {msg}")

    if cfg.source not in ("synthetic", "csv"):
        bad("data.source", f"must be synthetic or csv, got {cfg.source!r}")
    if cfg.source == "csv" and not cfg.csv_path:
        bad("data.csv_path", "required when data.source = csv")
    if cfg.partition not in ("iid", "dirichlet"):
        bad("data.partition", f"must be iid or dirichlet, got {cfg.partition!r}")
    if not 0.0 <= cfg.test_fraction < 1.0:
        bad("data.test_fraction", "must be in [0, 1)")
    if not 0.0 <= cfg.ofl_fraction < 1.0:
        bad("data.ofl_fraction", "must be in [0, 1)")
    if not cfg.beta > 0:
        bad("data.beta", "must be > 0")
    if cfg.num_clients < 2:
        bad("fl.K", "need at least 2 clients")
    if cfg.rounds < 1:
        bad("fl.T", "must be >= 1")
    if cfg.threads != 1:
        bad("fl.threads", f"must be 1 (clients train in lock-step), got {cfg.threads}")
    if not (math.isfinite(cfg.lr) and cfg.lr >= 0):
        bad("fl.lr", f"must be a finite number >= 0, got {cfg.lr}")
    for key, value in (
        ("fl.local_epochs", cfg.local_epochs),
        ("fl.batch_size", cfg.batch_size),
        ("fl.snapshot_every", cfg.snapshot_every),
    ):
        if value < 1:
            bad(key, f"must be >= 1, got {value}")
    if cfg.defense not in DEFENSE_KINDS:
        bad("defense.kind", f"must be one of {DEFENSE_KINDS}")
    for cid in cfg.coalition:
        if not 0 <= cid < cfg.num_clients:
            bad("defense.coalition", f"client id {cid} outside [0, {cfg.num_clients})")
    if cfg.defense != "none" and not cfg.coalition:
        bad("defense.coalition", f"must be non-empty for defense {cfg.defense!r}")
    if cfg.defense == "grad_sparse" and not 0.0 < cfg.keep_rate <= 1.0:
        bad("defense.keep_rate", "must be in (0, 1]")
    if cfg.defense == "grad_noise" and not cfg.noise_sigma >= 0:
        bad("defense.noise_sigma", "must be >= 0")
    if cfg.defense == "coalition":
        if cfg.t0 < 1:
            bad("defense.t0", "must be >= 1")
        if cfg.t0 > cfg.rounds:
            bad("defense.t0", f"t0={cfg.t0} exceeds fl.T={cfg.rounds}")
        if cfg.intervals < 1:
            bad("defense.intervals", "must be >= 1")
        if not 0.0 <= cfg.eta <= 1.0:
            bad("defense.eta", "must be in [0, 1]")
        if cfg.decay not in DECAY_KINDS:
            bad("defense.decay", f"must be one of {DECAY_KINDS}, got {cfg.decay!r}")
        if not cfg.sigma >= 0:
            bad("defense.sigma", "must be >= 0")
        if cfg.sigma > 0 and len(set(cfg.coalition)) < 2:
            bad("defense.sigma", "perturbation needs a coalition of >= 2 (or sigma = 0)")
        if not 0.0 < cfg.r_p <= 1.0:
            bad("defense.r_p", "must be in (0, 1]")
        if not 0.0 <= cfg.r_l <= 1.0:
            bad("defense.r_l", "must be in [0, 1]")
        if not cfg.mu >= 0:
            bad("defense.mu", "must be >= 0")
    if cfg.source == "synthetic":
        if not (math.isfinite(cfg.cluster_spread) and cfg.cluster_spread >= 0):
            bad("data.cluster_spread", f"must be a finite number >= 0, got {cfg.cluster_spread}")
        if not math.isfinite(cfg.mean_scale):
            bad("data.mean_scale", f"must be a finite number, got {cfg.mean_scale}")
        n = cfg.num_classes
        if cfg.m_max is not None and cfg.m_max > n:
            bad("defense.m_max", f"m_max={cfg.m_max} exceeds data.num_classes={n}")
        mm = cfg.m_max if cfg.m_max is not None else n
        if cfg.m_min is not None and not 1 <= cfg.m_min <= mm:
            bad("defense.m_min", f"need 1 <= m_min <= m_max ({mm})")
    if not 0 <= cfg.target_client < cfg.num_clients:
        bad("attack.target_client", f"client id outside [0, {cfg.num_clients})")
    for name in cfg.attack_list:
        if name not in ATTACK_NAMES:
            bad("attack.list", f"unknown attack {name!r}; choose from {ATTACK_NAMES}")
    if cfg.attack_target not in ("local", "global", "coalition"):
        bad("attack.target", "must be local, global, or coalition")
    if cfg.attack_target == "coalition" and not cfg.coalition:
        bad("attack.target", "coalition target needs a non-empty defense.coalition")
    if min(cfg.members_n, cfg.ifl_n, cfg.ofl_n) < 0:
        bad("eval.*", "pool sizes must be >= 0")
    if not 0.0 <= cfg.val_fraction < 1.0:
        bad("defense.val_fraction", "must be in [0, 1)")


def resolved_class_bounds(cfg: ExperimentConfig, num_classes: int) -> tuple[int, int]:
    """Fill m_max/m_min defaults once the class count is known."""
    m_max = cfg.m_max if cfg.m_max is not None else num_classes
    m_min = cfg.m_min if cfg.m_min is not None else max(1, math.ceil(0.2 * num_classes))
    m_min = min(m_min, m_max)
    if m_max > num_classes:
        raise ConfigError(f"config field 'defense.m_max': {m_max} exceeds {num_classes} classes")
    return m_max, m_min


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    lines = []
    defaults = ExperimentConfig()
    for f in fields(ExperimentConfig):
        key = _ATTR_TO_KEY[f.name]
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if key not in _REQUIRED and value == getattr(defaults, f.name):
            continue
        if isinstance(value, tuple):
            rendered = ",".join(str(v) for v in value)
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def training_fingerprint(cfg: ExperimentConfig) -> str:
    """SHA-256 (hex) of the lines of `serialize_config(cfg)` that shape the
    trained models: the data., model., fl. and defense. keys.

    attack.*, eval.* and output.dir are left out: only the attack stage
    reads the first two, and a run directory may be copied elsewhere.
    """
    lines = serialize_config(cfg).splitlines(keepends=True)
    sections = ("data.", "model.", "fl.", "defense.")
    training = "".join(line for line in lines if line.startswith(sections))
    return hashlib.sha256(training.encode("utf-8")).hexdigest()

"""Experiment configuration: flat `key = value` files with dotted sections.

Format: UTF-8 text, one `section.key = value` per line, a `#` that begins
the line or follows whitespace starts a comment, unknown keys are rejected.
Lists (coalition ids, attack names) are comma-separated. Defaults follow the
reference setup: 10 loss intervals, compensation from round 10, entropy
weight 0.005.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field, fields

from .assignment import DECAY_KINDS
from .attacks import ATTACK_NAMES, attack_selector, fedmia_excluded
from .federation import DEFENSE_KINDS


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configs."""


def _key(key: str, default):
    """A config field read from and written to the dotted `key`."""
    return field(default=default, metadata={"key": key})


@dataclass
class ExperimentConfig:
    # data
    source: str = _key("data.source", "")  # required: synthetic | csv
    csv_path: str = _key("data.csv_path", "")
    num_classes: int = _key("data.num_classes", 10)
    samples_per_class: int = _key("data.samples_per_class", 120)
    input_dim: int = _key("data.input_dim", 12)
    cluster_spread: float = _key("data.cluster_spread", 2.0)
    mean_scale: float = _key("data.mean_scale", 4.0)
    test_fraction: float = _key("data.test_fraction", 0.2)
    partition: str = _key("data.partition", "iid")  # iid | dirichlet
    beta: float = _key("data.beta", 0.5)
    ofl_fraction: float = _key("data.ofl_fraction", 0.1)
    # model
    hidden_dim: int = _key("model.hidden_dim", 32)
    # federation
    num_clients: int = _key("fl.K", 0)  # required
    rounds: int = _key("fl.T", 0)  # required
    lr: float = _key("fl.lr", 0.2)
    local_epochs: int = _key("fl.local_epochs", 1)
    batch_size: int = _key("fl.batch_size", 32)
    snapshot_every: int = _key("fl.snapshot_every", 10)
    seed: int = _key("fl.seed", 0)
    threads: int = _key("fl.threads", 1)  # only 1: clients train in lock-step
    # defense
    defense: str = _key("defense.kind", "none")
    coalition: tuple[int, ...] = _key("defense.coalition", ())
    m_max: int | None = _key("defense.m_max", None)  # default: num_classes
    m_min: int | None = _key("defense.m_min", None)  # default: ceil(0.2 * num_classes)
    decay: str = _key("defense.decay", "linear")
    t0: int = _key("defense.t0", 10)
    intervals: int = _key("defense.intervals", 10)
    r_l: float = _key("defense.r_l", 0.1)
    mu: float = _key("defense.mu", 0.005)
    eta: float = _key("defense.eta", 0.1)
    val_fraction: float = _key("defense.val_fraction", 0.1)
    sigma: float = _key("defense.sigma", 0.1)
    r_p: float = _key("defense.r_p", 0.2)
    keep_rate: float = _key("defense.keep_rate", 0.1)
    noise_sigma: float = _key("defense.noise_sigma", 0.01)
    # attacks / evaluation
    target_client: int = _key("attack.target_client", 0)
    attack_list: tuple[str, ...] = _key("attack.list", ("loss_series", "fta_l", "fedmia_i"))
    attack_target: str = _key("attack.target", "local")  # local | global | coalition
    members_n: int = _key("eval.members", 60)
    ifl_n: int = _key("eval.ifl", 90)
    ofl_n: int = _key("eval.ofl", 60)
    # output
    out_dir: str = _key("output.dir", "")


def _tuple_of(parse):
    """Parser of a comma-separated list; empty text is the empty tuple."""
    return lambda v: tuple(parse(part.strip()) for part in v.split(",")) if v.strip() else ()


# field annotation -> parser of the value text
_PARSERS = {
    "int": int,
    "int | None": int,
    "float": float,
    "str": str,
    "tuple[int, ...]": _tuple_of(int),
    "tuple[str, ...]": _tuple_of(str),
}

# dotted config key -> (attribute, parser), in field order
SCHEMA = {f.metadata["key"]: (f.name, _PARSERS[f.type]) for f in fields(ExperimentConfig)}
_REQUIRED = ("data.source", "fl.K", "fl.T")
# a '#' at the start of a line or after whitespace starts a comment
_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config_text(text: str, origin: str = "<config>") -> ExperimentConfig:
    """Parse and validate config text; errors name the offending key and line."""
    cfg = ExperimentConfig()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
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
    for key, path in (("data.csv_path", cfg.csv_path), ("output.dir", cfg.out_dir)):
        if _COMMENT.search(path):
            bad(key, f"{path!r} would be cut at a '#' that begins it or follows whitespace")
        if path != path.strip() or "".join(path.splitlines()) != path:
            bad(key, f"{path!r} has surrounding whitespace or a line break: config text loses both")
    if cfg.partition not in ("iid", "dirichlet"):
        bad("data.partition", f"must be iid or dirichlet, got {cfg.partition!r}")
    if not 0.0 <= cfg.test_fraction < 1.0:
        bad("data.test_fraction", "must be in [0, 1)")
    if not 0.0 <= cfg.ofl_fraction < 1.0:
        bad("data.ofl_fraction", "must be in [0, 1)")
    if not (math.isfinite(cfg.beta) and cfg.beta > 0):
        bad("data.beta", f"must be a finite number > 0, got {cfg.beta}")
    if cfg.num_clients < 2:
        bad("fl.K", "need at least 2 clients")
    if cfg.rounds < 1:
        bad("fl.T", "must be >= 1")
    if cfg.threads != 1:
        bad("fl.threads", f"must be 1 (clients train in lock-step), got {cfg.threads}")
    if not -(2**63) <= cfg.seed < 2**63:
        bad("fl.seed", f"must fit a signed 64-bit integer (the snapshot stamp), got {cfg.seed}")
    if not (math.isfinite(cfg.lr) and cfg.lr >= 0):
        bad("fl.lr", f"must be a finite number >= 0, got {cfg.lr}")
    sizes = [
        ("model.hidden_dim", cfg.hidden_dim, 0),
        ("fl.local_epochs", cfg.local_epochs, 1),
        ("fl.batch_size", cfg.batch_size, 1),
        ("fl.snapshot_every", cfg.snapshot_every, 1),
        ("eval.members", cfg.members_n, 0),
        ("eval.ifl", cfg.ifl_n, 0),
        ("eval.ofl", cfg.ofl_n, 0),
    ]
    if cfg.source == "synthetic":
        sizes += [
            ("data.num_classes", cfg.num_classes, 2),
            ("data.samples_per_class", cfg.samples_per_class, 1),
            ("data.input_dim", cfg.input_dim, 1),
        ]
    for key, value, least in sizes:
        if value < least:
            bad(key, f"must be >= {least}, got {value}")
    if cfg.defense not in DEFENSE_KINDS:
        bad("defense.kind", f"must be one of {DEFENSE_KINDS}")
    for i, cid in enumerate(cfg.coalition):
        if not 0 <= cid < cfg.num_clients:
            bad("defense.coalition", f"client id {cid} outside [0, {cfg.num_clients})")
        if cid in cfg.coalition[:i]:
            bad("defense.coalition", f"client id {cid} is repeated")
    if cfg.defense != "none" and not cfg.coalition:
        bad("defense.coalition", f"must be non-empty for defense {cfg.defense!r}")
    if cfg.defense == "grad_sparse" and not 0.0 < cfg.keep_rate <= 1.0:
        bad("defense.keep_rate", "must be in (0, 1]")
    noise_sigma = cfg.noise_sigma
    if cfg.defense == "grad_noise" and not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        bad("defense.noise_sigma", f"must be a finite number >= 0, got {noise_sigma}")
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
        if not (math.isfinite(cfg.sigma) and cfg.sigma >= 0):
            bad("defense.sigma", f"must be a finite number >= 0, got {cfg.sigma}")
        if cfg.sigma > 0 and len(cfg.coalition) < 2:
            bad("defense.sigma", "perturbation needs a coalition of >= 2 (or sigma = 0)")
        if not 0.0 < cfg.r_p <= 1.0:
            bad("defense.r_p", "must be in (0, 1]")
        if not 0.0 <= cfg.r_l <= 1.0:
            bad("defense.r_l", "must be in [0, 1]")
        if not (math.isfinite(cfg.mu) and cfg.mu >= 0):
            bad("defense.mu", f"must be a finite number >= 0, got {cfg.mu}")
    if cfg.source == "synthetic":
        if not (math.isfinite(cfg.cluster_spread) and cfg.cluster_spread >= 0):
            bad("data.cluster_spread", f"must be a finite number >= 0, got {cfg.cluster_spread}")
        if not (math.isfinite(cfg.mean_scale) and cfg.mean_scale >= 0):
            bad("data.mean_scale", f"must be a finite number >= 0, got {cfg.mean_scale}")
        resolved_class_bounds(cfg, cfg.num_classes)
    if not 0 <= cfg.target_client < cfg.num_clients:
        bad("attack.target_client", f"client id outside [0, {cfg.num_clients})")
    for i, name in enumerate(cfg.attack_list):
        if name not in ATTACK_NAMES:
            bad("attack.list", f"unknown attack {name!r}; choose from {ATTACK_NAMES}")
        if name in cfg.attack_list[:i]:
            bad("attack.list", f"attack {name!r} is repeated")
    if cfg.attack_target not in ("local", "global", "coalition"):
        bad("attack.target", "must be local, global, or coalition")
    if cfg.attack_target == "coalition" and not cfg.coalition:
        bad("attack.target", "coalition target needs a non-empty defense.coalition")
    # the attacks score members against non-members
    if cfg.attack_list and cfg.members_n == 0:
        bad("eval.members", "must be >= 1 when attack.list is not empty")
    if cfg.attack_list and cfg.ifl_n + cfg.ofl_n == 0:
        bad("eval.ifl", "eval.ifl + eval.ofl must be >= 1 when attack.list is not empty")
    fedmia = [name for name in cfg.attack_list if name in ("fedmia_i", "fedmia_ii")]
    selector = attack_selector(cfg.attack_target, cfg.target_client, cfg.coalition)
    outside = cfg.num_clients - len(fedmia_excluded(selector, cfg.target_client))
    if fedmia and outside < 2:
        if cfg.attack_target == "coalition":
            leaves = "defense.coalition = " + ",".join(str(k) for k in cfg.coalition)
        else:
            leaves = f"fl.K = {cfg.num_clients}"
        bad(
            "attack.list",
            f"{fedmia[0]} estimates its OUT statistic from the clients outside its target "
            f"and needs >= 2 of them; {leaves} leaves {outside}",
        )
    if not 0.0 <= cfg.val_fraction < 1.0:
        bad("defense.val_fraction", "must be in [0, 1)")


def resolved_class_bounds(cfg: ExperimentConfig, num_classes: int) -> tuple[int, int]:
    """(m_max, m_min) with their defaults filled in once the class count is
    known; raises ConfigError naming the key that does not fit it. Only the
    default m_min is clamped to m_max."""
    m_max = cfg.m_max if cfg.m_max is not None else num_classes
    if not 1 <= m_max <= num_classes:
        raise ConfigError(f"config field 'defense.m_max': {m_max} outside [1, {num_classes} classes]")
    if cfg.m_min is None:
        return m_max, min(max(1, math.ceil(0.2 * num_classes)), m_max)
    if not 1 <= cfg.m_min <= m_max:
        raise ConfigError(f"config field 'defense.m_min': {cfg.m_min} outside [1, m_max = {m_max}]")
    return m_max, cfg.m_min


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    lines = []
    defaults = ExperimentConfig()
    for f in fields(ExperimentConfig):
        key = f.metadata["key"]
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

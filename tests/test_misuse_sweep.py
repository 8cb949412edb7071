"""Misuse sweep: one config key at a time set to an edge value, run through
`fedpriv train` and then `fedpriv attack`.

Each stage either succeeds in silence, or exits 1 with one stderr line that
names a `section.key`, or with a divergence error that names its round and
client(s). A failed `train` leaves no snapshots, and a failed `attack` no
attack results. Numpy warnings count as stderr lines.
"""

import contextlib
import io
import os
import re
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from fedpriv import cli
from fedpriv import experiment as ex
from fedpriv.config import SCHEMA

# 5 classes of 40 samples, K = 5, the coalition defense from round 1 and all
# six attacks
BASE = {
    "data.source": "synthetic",
    "data.num_classes": "5",
    "data.samples_per_class": "40",
    "data.input_dim": "4",
    "model.hidden_dim": "8",
    "fl.K": "5",
    "fl.T": "4",
    "fl.snapshot_every": "2",
    "fl.batch_size": "16",
    "defense.kind": "coalition",
    "defense.coalition": "0,1",
    "defense.t0": "1",
    "defense.intervals": "4",
    "attack.list": "loss_series,avg_cosine,fta_l,fta_c,fedmia_i,fedmia_ii",
    "eval.members": "10",
    "eval.ifl": "10",
    "eval.ofl": "5",
}
# numbers (huge finite ones too), then duplicate and out-of-range client ids
# (K = 5) and a repeated attack; any key may get any of them
EDGES = (
    "0", "-1", "1", "1e308", "-1e308", "nan", "inf", "-inf", "", "0,0", "1,5", "-1,0",
    "fta_l,fta_l",
)
KEY = re.compile("|".join(re.escape(key) for key in SCHEMA))
DIVERGED = re.compile(r"diverged at round \d+: .*client\(s\) \[\d")


def _stage(argv):
    """Exit status and stderr lines of one CLI call, warnings included."""
    err = io.StringIO()
    with (
        warnings.catch_warnings(record=True) as caught,
        contextlib.redirect_stderr(err),
        contextlib.redirect_stdout(io.StringIO()),
    ):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


def _check(code, lines):
    if code == 0:
        assert lines == []
    else:
        assert code == 1 and len(lines) == 1, lines
        assert KEY.search(lines[0]) or DIVERGED.search(lines[0]), lines[0]


def _sweep(config):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "exp.cfg"), os.path.join(tmp, "run")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{k} = {v}\n" for k, v in config.items()))
        code, lines = _stage(["train", "--config", path, "--out", out])
        _check(code, lines)
        if code != 0:
            assert not os.path.exists(os.path.join(out, ex.SNAPSHOTS_NPZ))
            return
        code, lines = _stage(["attack", "--out", out])
        _check(code, lines)
        if code != 0:
            assert not os.path.exists(os.path.join(out, ex.ATTACKS_CSV))


# each example tries every edge value of one key, in BASE's run and in a
# one-round run; hypothesis stops once it has drawn every key
@settings(derandomize=True, max_examples=100, deadline=None)
@given(key=st.sampled_from(sorted(SCHEMA)))
def test_every_bad_config_fails_by_key_before_its_outputs(key):
    for value in EDGES:
        for rounds in (BASE["fl.T"], "1"):
            _sweep(dict(BASE, **{"fl.T": rounds, key: value}))

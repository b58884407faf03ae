"""The command line's contract over every config key, as a property.

`simulate` runs in-process on a small grid with a few config keys drawn
from each key's valid range, its boundaries, extreme finite floats and
malformed text.  Whatever is drawn, it exits 0, 2 or 3; no exception and
no warning escapes; an exit 2 names the key or the section at fault; an
exit 3 comes from a stepper whose linear tables are finite; after an exit
0 or 3, `metadata.txt` names the run's status and every table left is
whole, its header and then rows of its column count; and no temporary
`*.part` file is left.

The step count is bounded by the strategy, not filtered: stepper.dt and
run.t_end are drawn together, t_end as one to ten steps of dt or as a
value that is no whole step count, and grid.n as a power of two at most
128 or a size `Grid` refuses.  A longer run is a legitimate run, only a
slower one.  --out is always a fresh directory: the contract covers
the config, not a disk that refuses a write (exit 4).
"""

import logging
import math
import re
import tempfile
import warnings
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
    HAS_HYPOTHESIS = True
except ImportError:
    HAS_HYPOTHESIS = False

from bonls import cli, solver

pytestmark = pytest.mark.skipif(not HAS_HYPOTHESIS, reason="needs hypothesis")

# the bench stratification on a 64-point grid, 10 steps: each key's value
# when it is not drawn
BASE = {
    "physical.g": "1.0", "physical.h1": "1.0", "physical.rho": "2.0",
    "physical.rho1": "1.0", "model.epsilon": "0.35", "grid.n": "64",
    "run.t_end": "0.01", "run.diagnostics_every": "5", "run.snapshot_every": "5",
}

EXTREME = ("0", "-0.0", "-1", "1e-300", "5e-324", "2.2250738585072014e-308", "1e300",
           "-1e300", "1.7976931348623157e308")
MALFORMED = ("nan", "inf", "-inf", "1e309", "abc", "", "1,5", "0x10")
INT_TEXT = ("0", "1", "-1", "2", "3", "9223372036854775808", "1.5", "1e3", "abc", "",
            "9" * 5000)

# the keys a message may name: every key, and each section ("ic.r", "grid")
_NAMES = set(cli._DEFAULTS) | {key.rsplit(".", i)[0]
                               for key in cli._DEFAULTS for i in (1, 2)}
# a config error's message opens with what it is about, then ": " or the
# rule it breaks ("model.epsilon must ...", "ic.q.carrier_mode = 33 lies
# ..."): a name, a section with ".*" or its rows' prefix, or several names
# joined by ", "
_SUBJECT = re.compile(r"([\w.*]+(?:, [\w.*]+)*)[: ]")


if HAS_HYPOTHESIS:
    def _mostly(valid, outside):
        """valid three draws in four, else outside: most examples then run."""
        return st.sampled_from((valid, valid, valid, outside)).flatmap(lambda s: s)

    _OUTSIDE = st.one_of(st.sampled_from(EXTREME), st.sampled_from(MALFORMED),
                         st.floats(allow_nan=False, allow_infinity=False).map(repr))

    def _floats(low, high):
        """Text of a float in [low, high], or of an extreme float, or malformed text."""
        return _mostly(st.floats(low, high).map(repr), _OUTSIDE)

    def _ints(*valid):
        return _mostly(st.sampled_from(valid).map(str),
                       st.one_of(st.sampled_from(INT_TEXT),
                                 st.integers(-2 ** 70, 2 ** 70).map(str)))

    def _choices(*valid):
        return _mostly(st.sampled_from(valid), st.sampled_from(("bogus", "", " ON ")))

    _TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc"),
                                  blacklist_characters="#"), max_size=12)

    # each key's strategy; stepper.dt and run.t_end are drawn together below,
    # and --out is a fresh directory
    _POOLS = {
        "physical.g": _floats(1e-3, 1e3), "physical.h1": _floats(1e-3, 1e3),
        "physical.rho": _floats(1e-3, 1e3), "physical.rho1": _floats(1e-3, 1e3),
        "model.epsilon": _floats(0.0, 1.0), "model.delta": _floats(0.0, 0.5),
        "grid.n": _mostly(st.sampled_from(("8", "16", "32", "64", "128")),
                          st.sampled_from(("0", "1", "4", "7", "12", "100", "-64", "64.0",
                                           str(2 ** 62 + 1), "abc", ""))),
        "grid.length": _floats(1e-3, 1e3),
        "stepper.scheme": _choices("strang-split", "etdrk4"),
        "stepper.cfl_guard": _floats(1e-3, 1e3),
        "run.diagnostics_every": _ints(1, 2, 10),
        "run.snapshot_every": _ints(0, 1, 3),
        "run.system": _choices("reduced", "full"),
        "run.gauge_diagnostics": _choices("on", "off", "true", "no", "1", "0"),
        "ic.r.kind": _choices("gaussian", "soliton", "noise", "zero"),
        "ic.r.amplitude": _floats(0.0, 1.0), "ic.r.width": _floats(1e-2, 10.0),
        "ic.r.center": _floats(-20.0, 20.0),
        "ic.q.kind": _choices("gaussian", "zero"),
        "ic.q.amplitude": _floats(0.0, 1.0), "ic.q.width": _floats(1e-2, 10.0),
        "ic.q.center": _floats(-20.0, 20.0), "ic.q.carrier_mode": _ints(0, 3, 31, 32, 33),
        "sweep.key": _TEXT, "sweep.values": _TEXT,
        "seed": _ints(0, 7),
    }
    _DRAWN = sorted(_POOLS)

    def _number(text):
        try:
            return float(text)
        except ValueError:
            return math.nan

    @st.composite
    def _run_length(draw):
        """stepper.dt and run.t_end, each drawn or left as BASE has it (None)."""
        dt_text = draw(st.one_of(st.none(), _mostly(
            st.sampled_from(("1e-3", "2e-3", "0.01", "0.5")),
            st.sampled_from(EXTREME + MALFORMED))))
        dt = _number(dt_text or "1e-3")
        whole = st.integers(1, 10).map(lambda k: repr(k * dt))
        t_end_text = draw(st.one_of(st.none(), _mostly(
            whole, st.sampled_from((repr(1.5 * dt),) + EXTREME + MALFORMED))))
        if dt and 10 < _number(t_end_text or BASE["run.t_end"]) / dt <= 2 ** 53:
            # a legitimate run of more than ten steps is drawn as ten at most
            t_end_text = draw(whole)
        return {key: text for key, text in (("stepper.dt", dt_text), ("run.t_end", t_end_text))
                if text is not None}

    _OVERRIDES = st.builds(
        lambda keys, length: {**keys, **length},
        st.lists(st.sampled_from(_DRAWN), min_size=1, max_size=4, unique=True).flatmap(
            lambda keys: st.fixed_dictionaries({k: _POOLS[k] for k in keys})),
        _run_length())


def check_simulate_contract(overrides: dict) -> int:
    """Run simulate in-process on BASE with overrides; assert the contract, return the exit code."""
    settings_text = {**BASE, **overrides}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        conf = tmp / "run.conf"
        conf.write_text("".join(f"{key} = {value}\n" for key, value in settings_text.items()))
        records = []
        handler = logging.Handler(logging.ERROR)
        handler.emit = records.append
        log = logging.getLogger("bonls")
        log.addHandler(handler)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(["--config", str(conf), "--out", str(tmp / "out"),
                                 "simulate"])
        finally:
            log.removeHandler(handler)
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_BLOWUP), (code, overrides)
        if code == cli.EXIT_CONFIG:
            message = records[-1].getMessage()
            subject = _SUBJECT.match(message)
            named = subject and all(name.removesuffix(".*").rstrip(".") in _NAMES
                                    for name in subject.group(1).split(", "))
            assert named, (message, overrides)
        if code == cli.EXIT_BLOWUP:
            cfg = cli.RunConfig.from_settings(cli.load_settings(str(conf)))
            stepper = solver._build_stepper(cfg.grid, cfg.stepper.dt, cfg.stepper.scheme,
                                            cfg.coeffs, cfg.system)
            for part in (stepper.rhs, stepper):
                for name, value in vars(part).items():
                    if isinstance(value, np.ndarray):
                        assert np.all(np.isfinite(value)), (name, overrides)
        if code in (cli.EXIT_OK, cli.EXIT_BLOWUP):
            status = "ok" if code == cli.EXIT_OK else "blow-up"
            meta = (tmp / "out" / "metadata.txt").read_text()
            assert f"\nstatus = {status}\n" in meta, overrides
            for table in (tmp / "out").glob("*.tsv"):
                assert _whole_table(table.read_text()), (table.name, overrides)
        assert not list(tmp.rglob("*.part")), overrides
    return code


def _whole_table(text: str) -> bool:
    """Whether text is `#` lines, a column header, then rows of that many floats."""
    lines = text.split("\n")
    if lines.pop() != "":
        return False  # the last line is cut short
    while lines and lines[0].startswith("#"):
        lines.pop(0)
    if not lines:
        return False
    columns = len(lines[0].split("\t"))
    try:
        return all(len([float(v) for v in row.split("\t")]) == columns for row in lines[1:])
    except ValueError:
        return False


if HAS_HYPOTHESIS:
    @settings(max_examples=150, deadline=timedelta(seconds=5))
    @given(_OVERRIDES)
    def test_simulate_exits_0_2_or_3_with_a_named_key_and_no_warning(overrides):
        check_simulate_contract(overrides)


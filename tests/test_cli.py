"""Command-line layer: config parsing, exit codes, artifacts on disk.

Everything goes through main(argv) in process; the only subprocesses are
the table writer that simulate starts past its in-process budget and the
fresh interpreters that record simulate's imports, the CLI's BLAS
threads, its frozen import graph and its page faults, and every test must
have reaped them.
"""

import dataclasses
import io
import logging
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bonls import _tsv, cli, solver
from bonls.cli import (
    _DEFAULTS,
    ConfigError,
    RunConfig,
    _fmt,
    load_settings,
    main,
)
from bonls.coeffs import ModelCoefficients
from bonls.solver import StepperConfig


@pytest.fixture(autouse=True, scope="module")
def _quiet_logging():
    # main() wires the root logger to stderr on first use; a NullHandler keeps
    # log records out of captured output without touching global config
    root = logging.getLogger()
    handler = logging.NullHandler()
    root.addHandler(handler)
    yield
    root.removeHandler(handler)


@pytest.fixture(autouse=True)
def _no_child_left():
    yield
    # ChildProcessError: no child at all, neither running nor unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


BENCH_LINES = """
physical.g = 1.0
physical.h1 = 1.0
physical.rho = 2.0
physical.rho1 = 1.0
model.epsilon = 0.35
"""

QUICK_RUN = BENCH_LINES + """
grid.n = 128
run.t_end = 0.05
stepper.dt = 1e-3
run.diagnostics_every = 10
run.snapshot_every = 25
"""


def overlaid(*texts):
    """One config text of `texts`, where a key set again replaces its earlier
    line (a config file may set each key only once)."""
    lines = {}
    for text in texts:
        for line in text.strip().splitlines():
            lines[line.split("=", 1)[0].strip()] = line
    return "\n".join(lines.values()) + "\n"


def write_config(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def resolved(overrides=None):
    settings = load_settings(None)
    if overrides:
        settings.update(overrides)
    return RunConfig.from_settings(settings)


# ---------------------------------------------------------------- settings files

def test_defaults_resolve_without_a_file():
    settings = load_settings(None)
    assert settings == _DEFAULTS
    settings["grid.n"] = "64"
    assert _DEFAULTS["grid.n"] == "512"


def test_the_config_key_count_only_falls():
    # a budget, as CI's transform budgets are: lower it when a key goes,
    # and let no change raise it without a measurement that needs the key
    assert len(_DEFAULTS) == 28


def test_config_overlay_comments_and_blanks(tmp_path):
    path = write_config(tmp_path, """
# a comment line
grid.n = 256   # trailing comment

run.t_end = 2.5
""")
    settings = load_settings(path)
    assert settings["grid.n"] == "256"
    assert settings["run.t_end"] == "2.5"
    assert settings["grid.length"] == _DEFAULTS["grid.length"]


def test_unknown_key_reports_file_and_line(tmp_path):
    path = write_config(tmp_path, "grid.n = 128\ngrid.m = 3\n", name="bad.conf")
    with pytest.raises(ConfigError, match=r"bad\.conf:2: unknown config key"):
        load_settings(path)


def test_a_key_set_twice_is_a_config_error(tmp_path, caplog):
    # the later line used to win in silence: this run stepped at 5e-3 and exited 0
    path = write_config(tmp_path, "grid.n = 64\nrun.t_end = 0.05\nstepper.dt = 1e-3\n"
                        "stepper.dt = 5e-3\n", name="twice.conf")
    out_dir = tmp_path / "never"
    assert main(["--config", path, "--out", str(out_dir), "simulate"]) == cli.EXIT_CONFIG
    assert ("twice.conf:4: config key 'stepper.dt' also set on line 3"
            in caplog.records[-1].getMessage())
    assert not out_dir.exists()


def test_garbled_line_reports_location(tmp_path):
    path = write_config(tmp_path, "grid.n 128\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        load_settings(path)


def test_value_may_contain_equals(tmp_path):
    path = write_config(tmp_path, "sweep.values = a=b, c\n")
    assert load_settings(path)["sweep.values"] == "a=b, c"


def test_missing_config_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_settings("/nonexistent/path.conf")


# ---------------------------------------------------------------- eager validation

def test_defaults_build_a_run_config():
    cfg = resolved()
    assert cfg.grid.n == 512
    assert cfg.snapshot_every == 0  # the ends only
    assert cfg.sweep_values == ()
    assert cfg.stepper.scheme == "strang-split"


def test_sweep_values_are_split_and_stripped():
    cfg = resolved({"sweep.key": "ic.r.amplitude", "sweep.values": " 0.1, 0.2 ,"})
    assert cfg.sweep_values == ("0.1", "0.2")


@pytest.mark.parametrize("settings, match", [
    ({"physical.rho1": "3000.0"}, "stable configuration"),
    ({"model.epsilon": "1.5"}, "model.epsilon"),
    ({"model.epsilon": "0"}, "model.epsilon"),
    ({"model.delta": "0.6"}, "model.delta"),
    ({"grid.n": "100"}, "grid"),
    ({"stepper.scheme": "leapfrog"}, "stepper"),
    ({"stepper.dt": "0"}, "stepper"),
    ({"run.t_end": "-1"}, "run.t_end"),
    ({"run.diagnostics_every": "0"}, "diagnostics_every"),
    ({"run.snapshot_every": "-1"}, "snapshot_every"),
    ({"run.system": "both"}, "run.system"),
    ({"ic.r.kind": "square"}, "ic.r.kind"),
    ({"grid.length": "nonsense"}, "grid.length"),
    ({"stepper.dt": "3e-3"}, "multiple of dt"),
    ({"ic.q.amplitude": "nan"}, "ic.q.amplitude"),
    ({"run.t_end": "inf"}, "run.t_end"),
    ({"ic.r.width": "0"}, "ic.r.width must be positive"),
    ({"ic.q.width": "0"}, "ic.q.width must be positive"),
    ({"ic.r.kind": "soliton", "ic.r.width": "0"}, "ic.r.width must be positive"),
    ({"run.gauge_diagnostics": "maybe"}, "run.gauge_diagnostics"),
    ({"grid.n": "5.5"}, "grid.n: expected an integer"),
    # ids as key-value-match, so each row keeps its name when a second setting is added
], ids=lambda v: "-".join(f"{k}-{x}" for k, x in v.items()) if isinstance(v, dict) else None)
def test_bad_settings_are_rejected_eagerly(settings, match):
    with pytest.raises(ConfigError, match=match):
        resolved(settings)


# ---------------------------------------------------------------- initial states

def bench_settings(extra=None):
    overrides = {"physical.g": "1.0", "physical.h1": "1.0", "physical.rho": "2.0",
                 "physical.rho1": "1.0", "model.epsilon": "0.35",
                 "grid.n": "64", "grid.length": "20.0"}
    if extra:
        overrides.update(extra)
    return resolved(overrides)


def test_initial_state_gaussian_rescaled_to_amplitude():
    s = bench_settings().initial
    assert float(np.max(np.abs(s.r.values))) == pytest.approx(0.1, rel=1e-12)
    assert abs(float(np.mean(s.r.values))) <= 1e-15
    assert float(np.max(np.abs(s.q.values))) == pytest.approx(0.05, rel=1e-10)


def test_initial_state_zero_kinds():
    s = bench_settings({"ic.r.kind": "zero", "ic.q.kind": "zero"}).initial
    assert np.max(np.abs(s.r.values)) == 0.0
    assert np.max(np.abs(s.q.values)) == 0.0


def test_initial_state_soliton_peak():
    s = bench_settings({"ic.r.kind": "soliton", "ic.r.width": "1.25",
                        "ic.r.amplitude": "0.2"}).initial
    assert float(np.max(np.abs(s.r.values))) == pytest.approx(0.2, rel=1e-12)


def test_initial_state_noise_is_seeded():
    one = bench_settings({"ic.r.kind": "noise", "seed": "11"}).initial
    two = bench_settings({"ic.r.kind": "noise", "seed": "11"}).initial
    assert np.array_equal(one.r.values, two.r.values)
    other = bench_settings({"ic.r.kind": "noise", "seed": "12"}).initial
    assert not np.array_equal(one.r.values, other.r.values)


@pytest.mark.parametrize("extra, r_args, q_args", [
    ({}, ("gaussian", 0.1, 2.0, 0.0, 0), ("gaussian", 0.05, 3.0, 0.0, 3)),
    ({"ic.r.kind": "soliton", "ic.r.width": "1.25", "ic.r.center": "-1.5",
      "ic.q.center": "2.5", "ic.q.carrier_mode": "-2"},
     ("soliton", 0.1, 1.25, -1.5, 0), ("gaussian", 0.05, 3.0, 2.5, -2)),
    ({"ic.r.kind": "noise", "seed": "11"},
     ("noise", 0.1, 2.0, 0.0, 11), ("gaussian", 0.05, 3.0, 0.0, 3)),
    ({"ic.r.kind": "noise", "seed": "12", "ic.r.amplitude": "0.5", "ic.q.kind": "zero"},
     ("noise", 0.5, 2.0, 0.0, 12), ("zero", 0.05, 3.0, 0.0, 3)),
    ({"ic.r.kind": "zero", "ic.q.kind": "zero"},
     ("zero", 0.1, 2.0, 0.0, 0), ("zero", 0.05, 3.0, 0.0, 3)),
], ids=["gaussian", "soliton", "noise-seed-11", "noise-seed-12", "zero"])
def test_library_builders_make_the_configs_initial_state(extra, r_args, q_args):
    cfg = bench_settings(extra)
    r = solver.initial_profile(cfg.grid, *r_args)
    q = solver.initial_envelope(cfg.grid, *q_args)
    built = solver.initial_state(r, q)
    for mine, theirs in ((built.r, cfg.initial.r), (built.q, cfg.initial.q)):
        assert mine.values.tobytes() == theirs.values.tobytes()
        assert mine.spectrum.tobytes() == theirs.spectrum.tobytes()


def test_the_seed_flag_is_gone(capsys):
    # the seed config key is the one way to set it
    with pytest.raises(SystemExit) as exit_:
        main(["coeffs", "--seed", "1"])
    assert exit_.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


# ---------------------------------------------------------------- coeffs / dispersion

def test_coeffs_reports_every_coefficient(capsys):
    assert main(["coeffs"]) == 0
    out = capsys.readouterr().out
    for field in dataclasses.fields(ModelCoefficients):
        assert field.name in out
    # the default stratification is sharp, so the small-gamma columns appear
    assert "small-gamma" in out
    assert "resonant wavenumber k0" in out
    assert "resonance residual" in out


def test_coeffs_skips_asymptotics_away_from_small_gamma(tmp_path, capsys):
    path = write_config(tmp_path, BENCH_LINES)
    assert main(["--config", path, "coeffs"]) == 0
    out = capsys.readouterr().out
    assert "small-gamma" not in out


def test_small_density_contrast_runs(tmp_path, capsys):
    # rho1 / rho = 0.9999: csch(h1 k0) underflows, and NaN coefficients
    # would print as nan and stop the run at its first step
    path = write_config(tmp_path, "physical.rho = 1000\nphysical.rho1 = 999.9\n"
                                  "run.t_end = 0.1\n")
    assert main(["--config", path, "coeffs"]) == 0
    assert "nan" not in capsys.readouterr().out.split()
    assert main(["--config", path, "--out", str(tmp_path / "run"), "simulate"]) == 0


def test_preset_flag_selects_parameters(capsys):
    assert main(["--preset", "oregon", "coeffs"]) == 0
    out = capsys.readouterr().out
    assert "k0 = 0.25" in out
    # the flag is accepted after the subcommand as well
    assert main(["coeffs", "--preset", "oregon"]) == 0
    assert "k0 = 0.25" in capsys.readouterr().out


def test_dispersion_writes_table(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "dispersion"]) == 0
    rows = np.loadtxt(tmp_path / "dispersion.tsv", skiprows=1)
    assert rows.shape == (100, 5)
    # %.17g output round-trips doubles exactly
    assert np.array_equal(rows[:, 0], np.geomspace(1e-3, 10.0, 100))
    assert float(np.max(rows[:, 3:])) <= 1e-10
    assert "max quartic residual" in capsys.readouterr().out


# ---------------------------------------------------------------- verify

def test_verify_all_checks_pass(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l.rstrip().endswith("pass")]
    assert len(rows) == 23
    for name in ("dispersion-quartic", "symbol-b4-b1", "symbol-b5-b2", "small-gamma-limit",
                 "h3-equivalence", "gauge-ode", "absd-factorization"):
        assert name in out
    assert "failing" not in out


def test_symbol_identity_row_catches_its_symbol(capsys):
    assert main(["verify", "--perturb", "B4", "--checks", "symbol-b4-b1"]) == 1
    assert "failing checks: symbol-b4-b1" in capsys.readouterr().out


HAMILTONIAN_ROWS = "h2-equivalence,h3-equivalence,cubic-decomposition,transform-roundtrip"
GAUGE_ROWS = "gauge-unimodular,gauge-ode,gauge-reconstruction"


def test_verify_group_selections(capsys):
    assert main(["verify", "--checks", HAMILTONIAN_ROWS]) == 0
    out = capsys.readouterr().out
    assert "h2-equivalence" in out
    assert "gauge-unimodular" not in out
    assert main(["verify", "--checks", GAUGE_ROWS]) == 0
    assert "gauge-unimodular" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["verify-hamiltonian", "verify-gauge"])
def test_removed_verify_subcommands_are_usage_errors(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_verify_checks_selection(capsys):
    assert main(["verify", "--checks", "resonance, kappa8-zero"]) == 0
    out = capsys.readouterr().out
    assert "resonance" in out and "kappa8-zero" in out
    assert "dispersion-quartic" not in out


def test_verify_checks_rejects_empty_and_unknown(monkeypatch, caplog):
    from bonls import verify

    def no_group(*args):
        raise AssertionError("a check group ran")

    for group in ("_checks_symbols", "_checks_hamiltonian", "_checks_gauge",
                  "_checks_projection"):
        monkeypatch.setattr(verify, group, no_group)
    assert main(["verify", "--checks", ","]) == 2
    assert main(["verify", "--checks", "bogus"]) == 2
    assert main(["verify", "--checks", "gauge-ode,bogus"]) == 2
    # the message names the bad check and lists the valid ones
    assert "'bogus'" in caplog.text
    assert "choose from dispersion-quartic, eigen-decoupling," in caplog.text


def test_perturbed_symbol_fails_the_matching_check(capsys):
    assert main(["verify", "--perturb", "qb"]) == 1
    out = capsys.readouterr().out
    assert "eigen-decoupling" in out and "FAIL" in out
    assert main(["verify", "--checks", HAMILTONIAN_ROWS, "--perturb", "A3"]) == 1
    out = capsys.readouterr().out
    assert "h3-equivalence" in out and "FAIL" in out
    # the patch is scoped: a clean run right after must pass
    assert main(["verify", "--checks", "eigen-decoupling,h3-equivalence"]) == 0


def test_perturb_unknown_symbol():
    assert main(["verify", "--perturb", "nosuch"]) == 2


def test_verify_sample_ignores_the_dispersion_range_and_seed(tmp_path, capsys):
    # the checks run on bonls.verify's own sample, whatever the config says
    assert main(["verify"]) == 0
    plain = capsys.readouterr().out
    path = write_config(tmp_path, "seed = 9\n")
    assert main(["--config", path, "verify"]) == 0
    assert capsys.readouterr().out == plain
    # and the dispersion table's range is verify's sample, not a setting
    range_keys = write_config(tmp_path, "dispersion.k_min = 0.5\n", "range.conf")
    assert main(["--config", range_keys, "--out", str(tmp_path), "dispersion"]) == 2


# ---------------------------------------------------------------- simulate

@pytest.mark.parametrize("command, builds", [("simulate", 1), ("sweep", 3)])
def test_coefficients_and_initial_state_are_built_once_per_config(tmp_path, monkeypatch,
                                                                  command, builds):
    # a sweep of two members builds three configs: its own and one per member
    calls = []

    def counted(name):
        make = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a: calls.append(name) or make(*a))

    for name in ("derive_coefficients", "initial_profile", "initial_envelope"):
        counted(name)
    path = write_config(tmp_path, QUICK_RUN + "sweep.key = ic.r.amplitude\n"
                                              "sweep.values = 0.02, 0.04\n")
    assert main(["--config", path, "--out", str(tmp_path / "once"), command]) == 0
    assert sorted(calls) == builds * ["derive_coefficients"] + builds * ["initial_envelope"] \
        + builds * ["initial_profile"]


@pytest.mark.parametrize("system, kept", [("reduced", ("E1", "E2", "E3")),
                                          ("full", ("E2", "E3"))])
def test_closing_log_reports_the_drifts_the_system_conserves(tmp_path, caplog, system,
                                                             kept):
    path = write_config(tmp_path, QUICK_RUN + f"run.system = {system}\n")
    with caplog.at_level(logging.INFO, logger="bonls"):
        assert main(["--config", path, "--out", str(tmp_path / system), "simulate"]) == 0
    done = caplog.records[-1].getMessage()
    assert done.startswith("done: 6 diagnostics rows, relative drifts E")
    parts = [part.split() for part in done.split("drifts ")[1].split(", ")]
    assert [name for name, _ in parts] == list(kept)
    # each drift is that of its column in diagnostics.tsv
    header, *rows = (tmp_path / system / "diagnostics.tsv").read_text().splitlines()
    first, last = (dict(zip(header.split("\t"), map(float, row.split("\t"))))
                   for row in (rows[0], rows[-1]))
    assert [drift for _, drift in parts] == [
        f"{abs(last[name] - first[name]) / abs(first[name]):.3e}" for name in kept]
    # the library's summary of the rows written is the one the log prints
    table = [solver.DiagnosticsRow(*map(float, row.split("\t"))) for row in rows]
    assert [f"{name} {d:.3e}" for name, d in solver.relative_drifts(table, system).items()] \
        == [" ".join(part) for part in parts]


def test_andaman_preset_writes_the_default_metadata(tmp_path):
    path = write_config(tmp_path, "run.t_end = 0.05\n")  # 50 steps, not the default 10,000
    assert main(["--config", path, "--out", str(tmp_path / "default"), "simulate"]) == 0
    assert main(["--config", path, "--preset", "andaman", "--out", str(tmp_path / "preset"),
                 "simulate"]) == 0
    meta = [(tmp_path / name / "metadata.txt").read_text().splitlines()
            for name in ("default", "preset")]
    differ = [(a, b) for a, b in zip(*meta) if a != b]
    assert len(meta[0]) == len(meta[1])
    assert differ == []

def test_simulate_writes_artifacts(tmp_path, capsys):
    path = write_config(tmp_path, QUICK_RUN)
    out_dir = tmp_path / "runA"
    assert main(["--config", path, "--out", str(out_dir), "simulate"]) == 0
    diag = (out_dir / "diagnostics.tsv").read_text().splitlines()
    assert diag[0] == "t\tE1\tE2\tE3\tmean_r\tmax_r\tgauge_residual"
    assert len(diag) == 1 + 6
    snaps = sorted(p.name for p in out_dir.glob("snapshot_*.tsv"))
    assert snaps == ["snapshot_0000.tsv", "snapshot_0001.tsv", "snapshot_0002.tsv"]
    first = (out_dir / "snapshot_0000.tsv").read_text().splitlines()
    assert first[0] == "# t = 0"
    assert first[1] == "x\tr\tre_q\tim_q"
    last = (out_dir / "snapshot_0002.tsv").read_text().splitlines()
    assert float(last[0].split("=")[1]) == pytest.approx(0.05)
    meta = (out_dir / "metadata.txt").read_text()
    assert "status = ok" in meta
    assert "snapshots = 3" in meta
    assert "diagnostics_rows = 6" in meta
    assert "coefficient.a = " in meta
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("system", ["reduced", "full"])
@pytest.mark.parametrize("scheme", ["strang-split", "etdrk4"])
def test_simulate_is_deterministic(tmp_path, scheme, system):
    path = write_config(tmp_path, QUICK_RUN + f"stepper.scheme = {scheme}\n"
                        f"run.system = {system}\n")
    for name in ("one", "two"):
        solver._build_stepper.cache_clear()  # the second run builds its own stepper
        assert main(["--config", path, "--out", str(tmp_path / name), "simulate"]) == 0
    a, b = tmp_path / "one", tmp_path / "two"
    names = sorted(p.name for p in a.glob("*.tsv"))
    assert names == sorted(p.name for p in b.glob("*.tsv"))
    assert "diagnostics.tsv" in names and "snapshot_0002.tsv" in names
    for name in [*names, "metadata.txt"]:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_seed_feeds_noise_runs(tmp_path):
    config = BENCH_LINES + """
grid.n = 64
run.t_end = 0.01
stepper.dt = 1e-3
run.diagnostics_every = 5
ic.r.kind = noise
"""

    def diag_bytes(name, seed):
        path = write_config(tmp_path, config + f"seed = {seed}\n", name=f"{name}.conf")
        out = tmp_path / name
        assert main(["--config", path, "--out", str(out), "simulate"]) == 0
        return (out / "diagnostics.tsv").read_bytes()

    assert diag_bytes("s7a", "7") == diag_bytes("s7b", "7")
    assert diag_bytes("s7a", "7") != diag_bytes("s8", "8")


def test_negative_seed_flag_exits_2_before_writing(tmp_path, caplog):
    # numpy's generator would reject it only once the noise profile is drawn
    path = write_config(tmp_path, QUICK_RUN + "ic.r.kind = noise\nseed = -1\n")
    out_dir = tmp_path / "never"
    assert main(["--config", path, "--out", str(out_dir), "simulate"]) == cli.EXIT_CONFIG
    assert "seed: must be at least 0" in caplog.records[-1].getMessage()
    assert not out_dir.exists()


@pytest.mark.parametrize("sweep, message", [
    ("ic.r.kind = noise\nsweep.key = seed\nsweep.values = 1, -1\n",
     "seed: must be at least 0"),
    # the second member's soliton overflows only when its state is built
    ("ic.r.kind = soliton\nsweep.key = ic.r.width\nsweep.values = 1.0, 1e-308\n",
     "the initial state is not finite"),
    ("sweep.key = run.snapshot_every\nsweep.values = 10, -1\n",
     "run.snapshot_every must be zero (the ends only) or positive, got -1"),
    ("sweep.key = physical.h1\nsweep.values = 1.0, 1e308\n",
     "physical.*: the model coefficients of"),
], ids=["negative-seed", "infinite-soliton", "negative-cadence", "overflowing-coefficients"])
def test_negative_seed_sweep_member_exits_2_before_any_run(tmp_path, caplog, sweep, message):
    path = write_config(tmp_path, QUICK_RUN + sweep)
    out_dir = tmp_path / "never"
    assert main(["--config", path, "--out", str(out_dir), "sweep"]) == cli.EXIT_CONFIG
    assert message in caplog.records[-1].getMessage()
    assert not out_dir.exists()


def test_tsv_writer_matches_fmt_on_special_values(tmp_path):
    table = np.array([[0.0, -0.0, np.nan], [np.inf, -np.inf, 5e-324],
                      [1.0 / 3.0, -1e300, 2.0]])
    path = tmp_path / "t.tsv"
    _tsv.write_file(path, _tsv.write_table, "# note\na\tb\tc", 3, table)
    want = "# note\na\tb\tc\n" + "".join(
        "\t".join(_fmt(v) for v in row) + "\n" for row in table)
    assert path.read_text() == want


@pytest.mark.parametrize("rows", [1, 511, 512, 513, 8193])
def test_tsv_writer_matches_savetxt_bytes(tmp_path, monkeypatch, rows):
    # blocks of rows, the last one short, give savetxt's bytes, written by
    # write_file, by a Writer within its budget, or by the writer process
    table = np.random.default_rng(rows).standard_normal((rows, 7)) * 1e3
    specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
    table[0, :5] = specials
    table[-1, 2:] = specials[::-1]
    header = "# t = 0.5\nt\tE1\tE2\tE3\tmean_r\tmax_r\tgauge_residual"
    _tsv.write_file(tmp_path / "blocked.tsv", _tsv.write_table, header, 7, table)
    for name, budget in (("here.tsv", table.nbytes), ("streamed.tsv", 0)):
        monkeypatch.setattr(_tsv, "_HERE_BYTES", budget)
        with _tsv.Writer() as writer:
            writer.send(tmp_path / name, header, table)
    np.savetxt(tmp_path / "savetxt.tsv", table, fmt="%.17g", delimiter="\t",
               header=header, comments="")
    want = (tmp_path / "savetxt.tsv").read_bytes()
    for name in ("blocked.tsv", "here.tsv", "streamed.tsv"):
        assert (tmp_path / name).read_bytes() == want, name


@pytest.mark.parametrize("table", [np.zeros((4, 3), np.float32), np.zeros((4, 6))[:, ::2],
                                   np.zeros(12)], ids=["float32", "strided", "1-D"])
@pytest.mark.parametrize("budget", [1 << 20, 0], ids=["here", "child"])
def test_a_writer_refuses_a_table_it_would_misread(tmp_path, monkeypatch, table, budget):
    monkeypatch.setattr(_tsv, "_HERE_BYTES", budget)
    with _tsv.Writer() as writer:
        with pytest.raises(TypeError, match="C-contiguous 2-D float64"):
            writer.send(tmp_path / "t.tsv", "a\tb\tc", table)
    assert list(tmp_path.iterdir()) == []


def _frame(path, header, table):
    """One frame of the writer process's input (see `_tsv`)."""
    raw_path, raw_header = os.fsencode(path), header.encode()
    return (_tsv._FRAME.pack(len(raw_path), len(raw_header), table.shape[1], table.nbytes)
            + raw_path + raw_header + table.tobytes())


def test_the_writer_process_leaves_no_partial_table(tmp_path, monkeypatch, capsys):
    # the child's loop, run here on two frames: the second table fails after
    # its header and first row are written
    first, second = tmp_path / "first.tsv", tmp_path / "second.tsv"
    table = np.random.default_rng(3).standard_normal((600, 3))
    real_write = _tsv.write_table

    def write_part_then_fail(target, header, columns, data):
        if header.startswith("# second"):
            real_write(target, header, columns, data[:8 * columns])
            raise OSError("disk full")
        real_write(target, header, columns, data)

    monkeypatch.setattr(_tsv, "write_table", write_part_then_fail)
    stream = io.BytesIO(_frame(first, "# first\na\tb\tc", table)
                        + _frame(second, "# second\na\tb\tc", table))
    status_r, status_w = os.pipe()
    try:
        assert _tsv._serve(stream, status_w) == 1
        os.close(status_w)
        assert os.read(status_r, 1 << 16) == os.fsencode(second)
    finally:
        os.close(status_r)
    np.savetxt(tmp_path / "savetxt.tsv", table, fmt="%.17g", delimiter="\t",
               header="# first\na\tb\tc", comments="")
    assert first.read_bytes() == (tmp_path / "savetxt.tsv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.tsv", "savetxt.tsv"]
    assert f"{second}: not written, disk full" in capsys.readouterr().err


def test_simulate_blow_up_leaves_evidence(tmp_path, capsys):
    path = write_config(tmp_path, QUICK_RUN + """
ic.r.amplitude = 0.5
stepper.cfl_guard = 0.4
""")
    out_dir = tmp_path / "boom"
    assert main(["--config", path, "--out", str(out_dir), "simulate"]) == 3
    assert (out_dir / "snapshot_last_good.tsv").exists()
    meta = (out_dir / "metadata.txt").read_text()
    assert "status = blow-up" in meta
    assert "failing_time = 0.001" in meta
    assert "failing_sup_norm = " in meta
    assert not (out_dir / "diagnostics.tsv").exists()
    assert "blow-up at t = 0.001" in capsys.readouterr().out
    # the initial state was streamed before the step that blew up
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "metadata.txt", "snapshot_0000.tsv", "snapshot_last_good.tsv"]
    first = (out_dir / "snapshot_0000.tsv").read_text()
    assert first.startswith("# t = 0\nx\tr\tre_q\tim_q\n")
    # the last good state is the first snapshot itself
    assert ((out_dir / "snapshot_last_good.tsv").read_bytes()
            == (out_dir / "snapshot_0000.tsv").read_bytes())


def test_simulate_writes_each_time_as_its_step_times_dt(tmp_path):
    # every time written is the step index times dt, the last one included
    path = write_config(tmp_path, QUICK_RUN)
    out_dir = tmp_path / "times"
    assert main(["--config", path, "--out", str(out_dir), "simulate"]) == 0
    rows = (out_dir / "diagnostics.tsv").read_text().splitlines()[1:]
    assert [row.split("\t")[0] for row in rows] == [_fmt(i * 1e-3) for i in range(0, 51, 10)]
    for k, i in enumerate((0, 25, 50)):
        header = (out_dir / f"snapshot_{k:04d}.tsv").read_text().split("\n", 1)[0]
        assert header == f"# t = {_fmt(i * 1e-3)}"


def test_run_time_counts_its_steps(tmp_path):
    # 500 steps of 1e-3 lie within step_count's 1e-9 of 0.5000000008, and
    # the last time written is 500 dt, not t_end
    path = write_config(tmp_path, """
grid.n = 64
run.system = full
stepper.dt = 1e-3
run.t_end = 0.5000000008
""")
    out_dir = tmp_path / "steps"
    assert main(["--config", path, "--out", str(out_dir), "simulate"]) == 0
    last = (out_dir / "diagnostics.tsv").read_text().splitlines()[-1]
    assert last.split("\t")[0] == _fmt(500 * 1e-3)


@pytest.mark.parametrize("scheme", ["strang-split", "etdrk4"])
def test_simulate_writes_the_library_run(tmp_path, scheme):
    path = write_config(tmp_path, QUICK_RUN + f"run.system = full\nstepper.scheme = {scheme}\n")
    out_dir = tmp_path / "full"
    assert main(["--config", path, "--out", str(out_dir), "simulate"]) == 0
    cfg = RunConfig.from_settings(load_settings(path))
    traj = solver.run(cfg.initial, StepperConfig(dt=1e-3, scheme=scheme),
                      cfg.coeffs, 0.05, diagnostics_every=10,
                      snapshot_every=25, system="full")
    for k, snap in enumerate(traj.snapshots):
        table = np.loadtxt(out_dir / f"snapshot_{k:04d}.tsv", skiprows=2)
        q = snap.q.values
        assert np.array_equal(table, np.column_stack((snap.grid.x, snap.r.values,
                                                      q.real, q.imag)))
    rows = np.loadtxt(out_dir / "diagnostics.tsv", skiprows=1)
    assert np.array_equal(rows, [dataclasses.astuple(r) for r in traj.diagnostics])


def _run_with_hook(monkeypatch, hook):
    """Make cmd_simulate's run call hook(on_snapshot, state) for each snapshot."""
    real_run = cli.run

    def hooked(*args, on_snapshot, **kwargs):
        return real_run(*args, on_snapshot=lambda st: hook(on_snapshot, st), **kwargs)

    monkeypatch.setattr(cli, "run", hooked)


def test_writer_failure_names_the_snapshot_path(tmp_path, monkeypatch, caplog):
    out_dir = tmp_path / "run"

    def clobber(send, state):
        if state.t == 0.0:
            # the output directory becomes a regular file under the writer
            out_dir.rmdir()
            out_dir.write_text("")
        send(state)

    _run_with_hook(monkeypatch, clobber)
    path = write_config(tmp_path, QUICK_RUN)
    assert main(["--config", path, "--out", str(out_dir), "simulate"]) == cli.EXIT_IO
    assert str(out_dir / "snapshot_0000.tsv") in caplog.records[-1].getMessage()
    assert out_dir.read_text() == ""
    assert not (out_dir / "metadata.txt").exists()


def test_killed_writer_raises_instead_of_hanging(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(_tsv, "_HERE_BYTES", 0)  # every table goes to the child
    real_send = _tsv.Writer.send

    def send_then_kill(self, *args):
        real_send(self, *args)
        os.kill(self._pid, signal.SIGKILL)
        # wait for the child's death but leave it to close() to reap
        os.waitid(os.P_PID, self._pid, os.WEXITED | os.WNOWAIT)

    monkeypatch.setattr(_tsv.Writer, "send", send_then_kill)
    path = write_config(tmp_path, QUICK_RUN)
    out_dir = tmp_path / "run"
    assert main(["--config", path, "--out", str(out_dir), "simulate"]) == cli.EXIT_IO
    assert str(out_dir / "snapshot_0001.tsv") in caplog.records[-1].getMessage()
    assert not (out_dir / "metadata.txt").exists()


def _spawns(monkeypatch):
    """A list of the argv of each os.posix_spawn call from now on."""
    spawned = []
    real_spawn = os.posix_spawn

    def counted(path, argv, *args, **kwargs):
        spawned.append(argv)
        return real_spawn(path, argv, *args, **kwargs)

    monkeypatch.setattr(os, "posix_spawn", counted)
    return spawned


def _same_tables(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        if name.endswith(".tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
    return names


def test_readme_example_is_as_accurate_as_the_strang_run_it_replaced(tmp_path):
    # the README's config, its one ini block, stepped strang-split at
    # dt = 1e-3; the sup error of (r, q) at t = 10 was 1.19e-11 of their sup
    # against etdrk4 at dt = 0.0025, and the example may be no less accurate
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = RunConfig.from_settings(load_settings(write_config(tmp_path, text)))
    assert (cfg.stepper.scheme, cfg.t_end) == ("etdrk4", 10.0)
    ends = []
    for stepper in (cfg.stepper, StepperConfig(dt=0.0025, scheme="etdrk4")):
        end = solver.run(cfg.initial, stepper, cfg.coeffs, cfg.t_end,
                         diagnostics_every=10 ** 6).snapshots[-1]
        ends.append(np.concatenate((end.r.values, end.q.values)))
    error = np.max(np.abs(ends[0] - ends[1])) / np.max(np.abs(ends[1]))
    assert error <= 1.19e-11


# the benchmark's simulate-n512 run: the bench stratification, reduced,
# strang-split, n = 512, a row every 100 steps and a snapshot every 1000,
# over 1000 steps
N512 = BENCH_LINES + """
model.delta = 0.25
grid.n = 512
run.t_end = 1.0
run.diagnostics_every = 100
run.snapshot_every = 1000
ic.r.center = 1.3
ic.q.center = -2.1
"""


@pytest.mark.parametrize("text", [QUICK_RUN, N512], ids=["quick", "simulate-n512"])
def test_a_run_under_the_budget_writes_its_tables_here(tmp_path, monkeypatch, text):
    path = write_config(tmp_path, text)
    spawned = _spawns(monkeypatch)
    assert main(["--config", path, "--out", str(tmp_path / "here"), "simulate"]) == 0
    assert spawned == []
    monkeypatch.setattr(_tsv, "_HERE_BYTES", 0)
    assert main(["--config", path, "--out", str(tmp_path / "child"), "simulate"]) == 0
    assert len(spawned) == 1
    assert "diagnostics.tsv" in _same_tables(tmp_path / "here", tmp_path / "child")
    assert not list(tmp_path.rglob("*.part"))


def test_a_run_past_the_budget_spawns_once_and_writes_every_table(tmp_path, monkeypatch):
    # 11 snapshots of 32 KiB of values: the first ones are written here, the
    # one that passes the budget starts the child, and it writes the rest
    path = write_config(tmp_path, BENCH_LINES + """
grid.n = 1024
run.t_end = 0.01
run.diagnostics_every = 5
run.snapshot_every = 1
""")
    snapshot_bytes = 1024 * 4 * 8
    assert snapshot_bytes <= _tsv._HERE_BYTES < 10 * snapshot_bytes
    spawned = _spawns(monkeypatch)
    assert main(["--config", path, "--out", str(tmp_path / "mixed"), "simulate"]) == 0
    assert len(spawned) == 1
    monkeypatch.setattr(_tsv, "_HERE_BYTES", 0)
    assert main(["--config", path, "--out", str(tmp_path / "child"), "simulate"]) == 0
    names = _same_tables(tmp_path / "mixed", tmp_path / "child")
    assert names == ["diagnostics.tsv", "metadata.txt"] + [
        f"snapshot_{k:04d}.tsv" for k in range(11)]
    assert not list(tmp_path.rglob("*.part"))


@pytest.mark.parametrize("error, code", [(KeyboardInterrupt, cli.EXIT_INTERRUPTED),
                                         (OSError, cli.EXIT_IO)],
                         ids=["interrupt", "write-error"])
def test_a_table_cut_short_here_leaves_no_partial_file(tmp_path, monkeypatch, caplog,
                                                       error, code):
    real_write = _tsv.write_table

    def write_part_then_fail(fh, header, columns, data):
        if fh.name.endswith("snapshot_0001.tsv.part"):
            fh.write(header + "\n")
            raise error("cut short")
        real_write(fh, header, columns, data)

    monkeypatch.setattr(_tsv, "write_table", write_part_then_fail)
    spawned = _spawns(monkeypatch)
    path = write_config(tmp_path, QUICK_RUN)
    out_dir = tmp_path / "run"
    assert main(["--config", path, "--out", str(out_dir), "simulate"]) == code
    assert spawned == []
    names = sorted(p.name for p in out_dir.iterdir())
    if error is KeyboardInterrupt:
        assert names == ["metadata.txt", "snapshot_0000.tsv"]
        assert "status = interrupted" in (out_dir / "metadata.txt").read_text()
        assert caplog.records[-1].getMessage() == "interrupted"
    else:
        assert names == ["snapshot_0000.tsv"]
        assert caplog.records[-1].getMessage().startswith(
            f"{out_dir / 'snapshot_0001.tsv'}: not written, cut short")


@pytest.mark.parametrize("error, code", [(KeyboardInterrupt, cli.EXIT_INTERRUPTED),
                                         (OSError, cli.EXIT_IO)],
                         ids=["interrupt", "write-error"])
def test_a_metadata_file_cut_short_is_absent(tmp_path, monkeypatch, error, code):
    path = write_config(tmp_path, QUICK_RUN)
    whole, out_dir = tmp_path / "whole", tmp_path / "cut"
    assert main(["--config", path, "--out", str(whole), "simulate"]) == 0
    seen = []

    def fail_after_the_first_lines(coeffs):
        # the version, status and settings lines of metadata.txt are written
        seen.extend(p.name for p in out_dir.iterdir())
        raise error("cut short")

    monkeypatch.setattr(cli, "coefficient_rows", fail_after_the_first_lines)
    assert main(["--config", path, "--out", str(out_dir), "simulate"]) == code
    assert any(name.startswith("metadata.txt") for name in seen)
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == sorted(p.name for p in whole.iterdir() if p.name != "metadata.txt")
    for name in names:
        assert (out_dir / name).read_bytes() == (whole / name).read_bytes(), name


def test_interrupt_propagates_and_keeps_the_snapshots_sent(tmp_path, monkeypatch):
    path = write_config(tmp_path, QUICK_RUN)
    assert main(["--config", path, "--out", str(tmp_path / "whole"), "simulate"]) == 0

    def interrupt(send, state):
        send(state)
        if state.t > 0.0:
            raise KeyboardInterrupt

    _run_with_hook(monkeypatch, interrupt)
    out_dir = tmp_path / "cut"
    # the interrupt ends simulate with its own code, not a traceback
    assert main(["--config", path, "--out", str(out_dir), "simulate"]) == \
        cli.EXIT_INTERRUPTED
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "metadata.txt", "snapshot_0000.tsv", "snapshot_0001.tsv"]
    for name in ("snapshot_0000.tsv", "snapshot_0001.tsv"):
        assert (out_dir / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()
    assert "status = interrupted" in (out_dir / "metadata.txt").read_text()


def test_interrupt_outside_the_run_exits_130(monkeypatch, caplog):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "derive_coefficients", interrupt)
    with caplog.at_level(logging.ERROR, logger="bonls"):
        assert main(["coeffs"]) == cli.EXIT_INTERRUPTED
    assert caplog.records[-1].getMessage() == "interrupted"


def test_simulate_memory_does_not_grow_with_the_snapshot_count(tmp_path):
    # each snapshot is freed once sent, so ten times the snapshots must not
    # raise the traced peak by the arrays of one
    def peak(steps):
        path = write_config(tmp_path, BENCH_LINES + f"""
grid.n = 1024
stepper.dt = 1e-3
run.t_end = {steps * 1e-3!r}
run.diagnostics_every = 1000
run.snapshot_every = 1
""", name=f"{steps}.conf")
        solver._build_stepper.cache_clear()
        tracemalloc.start()
        try:
            assert main(["--config", path, "--out", str(tmp_path / str(steps)),
                         "simulate"]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # first-call costs (imports, caches) land here
    st = bench_settings({"grid.n": "1024"}).initial
    one_snapshot = sum(a.nbytes for a in (st.r.values, st.r.spectrum,
                                          st.q.values, st.q.spectrum))
    assert peak(200) - peak(20) < one_snapshot


def _fresh_interpreter_env(**overrides):
    """os.environ with this checkout's package first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))), **overrides)


def test_gaussian_simulate_never_imports_numpy_random(tmp_path):
    # a fresh interpreter, so no other test has imported numpy.random yet;
    # the noise run afterwards shows the check can see the import
    path = write_config(tmp_path, QUICK_RUN)
    noise = write_config(tmp_path, QUICK_RUN + "ic.r.kind = noise\n", name="noise.conf")
    env = _fresh_interpreter_env()
    child = subprocess.run(
        [sys.executable, "-c", "import sys\n"
         "from bonls.cli import main\n"
         "for conf, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
         "    assert main(['--config', conf, '--out', out, 'simulate']) == 0\n"
         "    print('numpy.random' in sys.modules)\n",
         path, str(tmp_path / "gaussian"), noise, str(tmp_path / "noise")],
        env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    seen = [line for line in child.stdout.splitlines() if line in ("False", "True")]
    assert seen == ["False", "True"]


def test_simulate_never_imports_subprocess(tmp_path):
    # the writer process is spawned without the subprocess module, whose
    # import costs a few ms, and the coefficients are floats throughout,
    # with no decimal arithmetic; a fresh interpreter, since this one has both
    path = write_config(tmp_path, QUICK_RUN)
    child = subprocess.run(
        [sys.executable, "-c", "import sys\n"
         "from bonls.cli import main\n"
         "assert main(['--config', sys.argv[1], '--out', sys.argv[2], 'simulate']) == 0\n"
         "print('subprocess' in sys.modules, 'decimal' in sys.modules)\n",
         path, str(tmp_path / "run")],
        env=_fresh_interpreter_env(), capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "False False"
    assert (tmp_path / "run" / "snapshot_0002.tsv").exists()


def test_simulate_imports_neither_the_verify_suite_nor_hamiltonian(tmp_path):
    # only `verify` pays for bonls.verify and bonls.hamiltonian at start-up;
    # a fresh interpreter, and the verify run afterwards shows the check
    # can see the imports
    path = write_config(tmp_path, QUICK_RUN)
    child = subprocess.run(
        [sys.executable, "-c", "import sys\n"
         "from bonls.cli import main\n"
         "def imported():\n"
         "    print('imported', [m for m in ('bonls.verify', 'bonls.hamiltonian')\n"
         "                       if m in sys.modules])\n"
         "assert main(['--config', sys.argv[1], '--out', sys.argv[2], 'simulate']) == 0\n"
         "imported()\n"
         "assert main(['verify', '--checks', 'gauge-ode']) == 0\n"
         "imported()\n",
         path, str(tmp_path / "run")],
        env=_fresh_interpreter_env(), capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    seen = [line for line in child.stdout.splitlines() if line.startswith("imported")]
    assert seen == ["imported []", "imported ['bonls.verify', 'bonls.hamiltonian']"]


class _Mallopt:
    """A mallopt that records its calls and returns `status`."""

    def __init__(self, status=1):
        self.status = status
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.status


def test_heap_policy_sets_both_thresholds_unless_the_user_set_malloc():
    mallopt = _Mallopt()
    assert cli._fix_heap_policy({"OPENBLAS_NUM_THREADS": "1"}, mallopt)
    assert mallopt.calls == [(cli._M_MMAP_THRESHOLD, cli._MMAP_THRESHOLD),
                             (cli._M_TRIM_THRESHOLD, cli._TRIM_THRESHOLD)]
    # any MALLOC_* variable, not only the two thresholds, leaves glibc's policy
    for key in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_ARENA_MAX"):
        mallopt = _Mallopt()
        assert not cli._fix_heap_policy({key: "65536"}, mallopt)
        assert mallopt.calls == []
    # a mallopt that refuses (returns 0) is reported, not raised
    assert not cli._fix_heap_policy({}, _Mallopt(status=0))


def test_heap_policy_leaves_a_libc_without_mallopt_alone(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    assert cli._libc_mallopt() is None
    assert not cli._fix_heap_policy({}, None)


# the benchmark's simulate-io-n8192 run: full system, etdrk4, n = 8192, a row
# every step and a snapshot every ten, over 50 steps
IO_N8192 = BENCH_LINES + """
model.delta = 0.25
grid.n = 8192
stepper.scheme = etdrk4
stepper.dt = 1e-3
run.system = full
run.t_end = 0.05
run.diagnostics_every = 1
run.snapshot_every = 10
ic.r.center = 1.3
ic.q.center = -2.1
"""


@pytest.mark.skipif(cli._libc_mallopt() is None, reason="libc has no mallopt")
def test_simulate_page_faults_follow_neither_stdout_nor_the_output_path(tmp_path):
    # under glibc's dynamic mmap threshold the run's minor faults moved with
    # the heap's history, from 8.5k to 23k with the stdout target and the
    # length of the output path; under the CLI's fixed thresholds all take
    # the same
    path = write_config(tmp_path, IO_N8192)
    env = {k: v for k, v in _fresh_interpreter_env().items() if not k.startswith("MALLOC_")}
    faults = {}
    for target in (str(tmp_path / "stdout.txt"), os.devnull):
        for out_dir in ("run", "a-longer-output-directory-name-for-the-same-run"):
            out = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
            err = os.open(tmp_path / "stderr.txt", os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
            argv = [sys.executable, "-m", "bonls.cli", "--config", path,
                    "--out", str(tmp_path / out_dir), "simulate"]
            try:
                pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
                    (os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)])
            finally:
                os.close(out)
                os.close(err)
            _, status, usage = os.wait4(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0, (tmp_path / "stderr.txt").read_text()
            faults[target, out_dir] = usage.ru_minflt
    assert max(faults.values()) <= 1.05 * min(faults.values()), faults


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="threads are counted in /proc/self/task")
def test_cli_runs_openblas_on_one_thread_unless_the_user_sets_it():
    # importing numpy starts an OpenBLAS worker thread that only spins;
    # the CLI asks for one thread before that import, and keeps a preset value
    code = ("import os\nimport bonls.cli\n"
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n")

    def threads_and_setting(env):
        child = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        return child.stdout.split()

    unset = _fresh_interpreter_env()
    unset.pop("OPENBLAS_NUM_THREADS", None)
    assert threads_and_setting(unset) == ["1", "1"]
    assert threads_and_setting(_fresh_interpreter_env(OPENBLAS_NUM_THREADS="2"))[1] == "2"


@pytest.mark.parametrize("module, frozen", [("bonls.cli", True), ("bonls.solver", False)])
def test_only_the_cli_freezes_its_import_graph(module, frozen):
    # fresh interpreters: this one has imported bonls.cli already
    child = subprocess.run(
        [sys.executable, "-c", f"import gc\nimport {module}\nprint(gc.get_freeze_count())\n"],
        env=_fresh_interpreter_env(), capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert (int(child.stdout) > 0) is frozen


# ---------------------------------------------------------------- sweep

def test_sweep_runs_one_directory_per_value(tmp_path, capsys):
    path = write_config(tmp_path, BENCH_LINES + """
grid.n = 64
run.t_end = 0.02
stepper.dt = 1e-3
run.diagnostics_every = 10
sweep.key = ic.r.amplitude
sweep.values = 0.02, 0.04
""")
    out_dir = tmp_path / "sweep"
    assert main(["--config", path, "--out", str(out_dir), "sweep"]) == 0
    for value in ("0.02", "0.04"):
        sub = out_dir / f"ic.r.amplitude={value}"
        assert (sub / "diagnostics.tsv").exists()
        assert f"ic.r.amplitude = {value}" in (sub / "metadata.txt").read_text()
    assert "2 runs, 2 ok" in capsys.readouterr().out


def test_sweep_members_match_standalone_runs(tmp_path):
    member = BENCH_LINES + """
grid.n = 64
run.t_end = 0.02
stepper.dt = 1e-3
run.diagnostics_every = 5
run.snapshot_every = 10
"""
    path = write_config(tmp_path, member + "sweep.key = ic.r.amplitude\n"
                        "sweep.values = 0.02, 0.04\n")
    assert main(["--config", path, "--out", str(tmp_path / "sweep"), "sweep"]) == 0
    for value in ("0.02", "0.04"):
        alone = write_config(tmp_path, member + f"ic.r.amplitude = {value}\n",
                             f"alone{value}.conf")
        assert main(["--config", alone, "--out", str(tmp_path / value), "simulate"]) == 0
        for name in ("diagnostics.tsv", "snapshot_0002.tsv"):
            swept = tmp_path / "sweep" / f"ic.r.amplitude={value}" / name
            assert swept.read_bytes() == (tmp_path / value / name).read_bytes()


@pytest.mark.parametrize("key, values, steppers", [
    ("ic.q.amplitude", "0.01, 0.02, 0.03", 1),  # members share one stepper
    ("stepper.cfl_guard", "5, 6, 7", 1),  # the guard is not part of the stepper
    ("stepper.dt", "1e-3, 2e-3, 5e-3", 3),
])
def test_sweep_builds_etd_tables_once_per_stepper(tmp_path, monkeypatch, key, values,
                                                   steppers):
    calls = {"n": 0}
    original = solver._etd_tables

    def counted(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "_etd_tables", counted)
    solver._build_stepper.cache_clear()
    path = write_config(tmp_path, BENCH_LINES + f"""
grid.n = 64
run.t_end = 0.02
stepper.dt = 1e-3
stepper.scheme = etdrk4
run.diagnostics_every = 10
sweep.key = {key}
sweep.values = {values}
""")
    assert main(["--config", path, "--out", str(tmp_path / "sweep"), "sweep"]) == 0
    assert calls["n"] == steppers  # one table set over [r_hat | q_spec]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("extra, message", [
    # z^3 of the ETD tables overflows: no step can be taken
    ("stepper.scheme = etdrk4\ngrid.length = 1e-60\n",
     "grid, stepper: the ETD tables of dt = 0.001 are not finite"),
    # k * k of the symbols overflows under either scheme
    ("grid.length = 1e-300\n", "grid, stepper: the spectral symbols of n = 64 modes"),
    ("stepper.scheme = etdrk4\ngrid.length = 1e-300\n",
     "grid, stepper: the spectral symbols of n = 64 modes"),
    # about 1e299 steps, past the 2**53 at which i dt stops being exact
    ("stepper.dt = 1e-300\nrun.t_end = 0.1\n", "run.t_end: (t_end - t0) / dt = 1e+299"),
    # one step of dt, whose Strang half-step flow overflows
    ("stepper.dt = 1.7976931348623157e308\nrun.t_end = 1.7976931348623157e308\n",
     "grid, stepper: the half-step flow of dt = 1.79769e+308 is not finite"),
])
def test_stepper_or_step_count_past_the_floats_exits_2(tmp_path, caplog, capsys, extra,
                                                      message):
    out_dir = tmp_path / "never"
    path = write_config(tmp_path, overlaid(QUICK_RUN, "grid.n = 64", extra))
    assert main(["--config", path, "--out", str(out_dir), "simulate"]) == cli.EXIT_CONFIG
    assert caplog.records[-1].getMessage().startswith(message)
    # the output directory may exist, but no artifact is written into it
    assert capsys.readouterr().out == ""
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("extra", [
    # the symbols are finite, but the step's products overflow
    "stepper.scheme = strang-split\ngrid.length = 1e-60\n",
    # the first diagnostics row overflows (r^3), and so does the first step
    "ic.r.amplitude = 1e200\n",
])
def test_overflowing_step_is_a_blow_up(tmp_path, capsys, caplog, extra):
    out_dir = tmp_path / "boom"
    path = write_config(tmp_path, overlaid(QUICK_RUN, "grid.n = 64", extra))
    assert main(["--config", path, "--out", str(out_dir), "simulate"]) == cli.EXIT_BLOWUP
    # a window too short for the step's products trips the guard too
    spacing = RunConfig.from_settings(load_settings(path)).grid.dx
    assert caplog.records[-1].getMessage().endswith(
        "; reduce dt or the data amplitude, or widen the grid spacing "
        f"grid.length / grid.n = {spacing:.6g}")
    assert "status = blow-up" in (out_dir / "metadata.txt").read_text()
    assert (out_dir / "snapshot_last_good.tsv").read_bytes() == (
        out_dir / "snapshot_0000.tsv").read_bytes()
    assert "blow-up at t = 0.001" in capsys.readouterr().out


def test_sweep_blow_up_exits_3_and_keeps_other_members(tmp_path, capsys):
    path = write_config(tmp_path, QUICK_RUN + """
stepper.cfl_guard = 0.4
sweep.key = ic.r.amplitude
sweep.values = 0.5, 0.02
""")
    out_dir = tmp_path / "sweep"
    assert main(["--config", path, "--out", str(out_dir), "sweep"]) == 3
    boom = out_dir / "ic.r.amplitude=0.5"
    assert "status = blow-up" in (boom / "metadata.txt").read_text()
    assert (boom / "snapshot_last_good.tsv").exists()
    ok = out_dir / "ic.r.amplitude=0.02"
    assert "status = ok" in (ok / "metadata.txt").read_text()
    # t = 0, 0.01, ..., 0.05 at diagnostics_every = 10 steps
    assert len((ok / "diagnostics.tsv").read_text().splitlines()) == 1 + 6
    assert sorted(f.name for f in ok.glob("snapshot_*.tsv")) == [
        "snapshot_0000.tsv", "snapshot_0001.tsv", "snapshot_0002.tsv"]
    assert "2 runs, 1 ok" in capsys.readouterr().out


def test_sweep_stops_at_the_first_interrupted_member(tmp_path, monkeypatch, capsys):
    def interrupt(send, state):
        send(state)
        if state.t > 0.0:
            raise KeyboardInterrupt

    _run_with_hook(monkeypatch, interrupt)
    path = write_config(tmp_path, QUICK_RUN + """
sweep.key = ic.r.amplitude
sweep.values = 0.02, 0.04
""")
    out_dir = tmp_path / "sweep"
    assert main(["--config", path, "--out", str(out_dir), "sweep"]) == \
        cli.EXIT_INTERRUPTED
    cut = out_dir / "ic.r.amplitude=0.02"
    assert "status = interrupted" in (cut / "metadata.txt").read_text()
    assert not (out_dir / "ic.r.amplitude=0.04").exists()
    assert "1 of 2 runs, 0 ok" in capsys.readouterr().out


def test_sweep_rejects_bad_keys(tmp_path):
    base = BENCH_LINES + "sweep.values = 1,2\n"
    assert main(["--config", write_config(tmp_path, BENCH_LINES, "a.conf"),
                 "sweep"]) == 2
    assert main(["--config", write_config(tmp_path, base + "sweep.key = sweep.values\n",
                                          "b.conf"), "sweep"]) == 2
    assert main(["--config", write_config(tmp_path, base + "sweep.key = nope.key\n",
                                          "c.conf"), "sweep"]) == 2
    # two values naming one member directory: refused before any run
    out_dir = tmp_path / "dup"
    dup = BENCH_LINES + "sweep.key = ic.r.amplitude\nsweep.values = 0.05, 0.05, 0.1\n"
    assert main(["--config", write_config(tmp_path, dup, "d.conf"), "--out", str(out_dir),
                 "sweep"]) == 2
    assert not out_dir.exists()


# ---------------------------------------------------------------- exit codes

@pytest.mark.parametrize("command", ["coeffs", "verify", "simulate"])
@pytest.mark.parametrize("physical", [
    "physical.h1 = 1e308\n",  # Omega1 overflows
    "physical.rho = 1e308\n",
    "physical.h1 = 1e-308\n",  # k0 = 1 / (4 h1 gamma) leaves the floats
    "physical.h1 = 1e103\nphysical.rho = 1e50\n",  # Omega2 = -3.3e309
    # Omega1, Omega2 and a underflow to 0 (twin values -0.250, -0.0538 and
    # 3.7e-4): coeffs exited 0, simulate ran with a = 0, and verify failed
    # dispersion-constants and read NaN on the gauge rows
    "physical.g = 5.3335340131086795e-132\nphysical.h1 = 9.557322778828774e-154\n"
    "physical.rho = 1.2364138527146085e-119\nphysical.rho1 = 5.929223369727459e-120\n",
], ids=["h1-huge", "rho-huge", "h1-tiny", "omega2-infinite", "underflow"])
@pytest.mark.filterwarnings("error")
def test_coefficients_outside_the_floats_exit_2_before_writing(tmp_path, caplog, capsys,
                                                                command, physical):
    out_dir = tmp_path / "never"
    path = write_config(tmp_path, physical)
    assert main(["--config", path, "--out", str(out_dir), command]) == cli.EXIT_CONFIG
    message = caplog.records[-1].getMessage()
    assert message.startswith("physical.*: the model coefficients of PhysicalParams(")
    assert capsys.readouterr().out == "" and not out_dir.exists()


@pytest.mark.filterwarnings("error")
def test_dispersion_residuals_are_scale_free(tmp_path, capsys):
    # omega^2 and the quartic's terms leave the floats in the given units
    # here; the k and omega^2 columns keep them, and the residuals are roundoff
    path = write_config(tmp_path, "physical.g = 1.744444879287265e+178\n"
                                  "physical.h1 = 5.767288889690032e-20\n"
                                  "physical.rho = 6.598665165024179e-119\n"
                                  "physical.rho1 = 1.8372373876199075e-119\n")
    assert main(["--config", path, "--out", str(tmp_path / "d"), "dispersion"]) == cli.EXIT_OK
    table = np.loadtxt(tmp_path / "d" / "dispersion.tsv", skiprows=1)
    assert np.all(np.isfinite(table)) and np.max(table[:, 3:]) <= 1e-15
    assert table[0, 2] == pytest.approx(1.744444879287265e+178 * 1e-3, rel=1e-15)


def test_config_errors_exit_2(tmp_path):
    bad = write_config(tmp_path, "grid.m = 3\n", name="unknown.conf")
    assert main(["--config", bad, "coeffs"]) == 2
    unstable = write_config(tmp_path, "physical.rho1 = 3000\n", name="dense.conf")
    assert main(["--config", unstable, "coeffs"]) == 2
    assert main(["--config", "/nonexistent.conf", "coeffs"]) == 2


@pytest.mark.parametrize("extra, message", [
    # initial profiles are always mean-free, so the key is gone
    ("ic.r.mean_zero = on\n", "unknown config key 'ic.r.mean_zero'"),
    # bonls.verify owns the sample its checks run on, so these keys are gone
    ("verify.n = 512\n", "unknown config key 'verify.n'"),
    ("verify.length = 80.0\n", "unknown config key 'verify.length'"),
    ("verify.fields = 0\n", "unknown config key 'verify.fields'"),
    # bonls dispersion tabulates verify's sample, so these keys are gone too
    ("dispersion.k_min = -1\n", "unknown config key 'dispersion.k_min'"),
    ("dispersion.count = 1\n", "unknown config key 'dispersion.count'"),
    # a tau1 run was the tau run at dt / epsilon, and nu is 1 / ic.r.width
    ("run.time_scale = tau\n", "unknown config key 'run.time_scale'"),
    ("ic.r.nu = 1.0\n", "unknown config key 'ic.r.nu'"),
    # --out names the directory, and the noise kind keeps solver.NOISE_KEEP
    ("output.dir = elsewhere\n", "unknown config key 'output.dir'"),
    ("ic.r.keep = 0.5\n", "unknown config key 'ic.r.keep'"),
    # each kind is checked by its library builder
    ("ic.r.kind = square\n",
     "ic.r.kind must be one of gaussian, soliton, noise, zero, got 'square'"),
    ("ic.q.kind = soliton\n", "ic.q.kind must be one of gaussian, zero, got 'soliton'"),
    # past the Nyquist mode the carrier would alias (to mode -24 at n = 128)
    ("ic.q.carrier_mode = 1000\n", "ic.q.carrier_mode = 1000 lies past the Nyquist mode"),
    ("seed = -1\n", "seed: must be at least 0"),
    ("run.t_end = 1e300\nstepper.dt = 1e-300\n", "not a finite step count"),
    # the soliton's 4 nu = 4 / width overflows: bad input, not a blow-up
    ("ic.r.kind = soliton\nic.r.width = 1e-308\n", "ic.*: the initial state is not finite"),
    # finite samples whose spectrum overflows
    ("ic.q.amplitude = 1.7976931348623157e308\n", "ic.*: the initial state is not finite"),
    # the library's cadence rule, checked before anything is written
    ("run.diagnostics_every = 0\n", "run.diagnostics_every must be at least 1, got 0"),
    ("run.snapshot_every = -1\n", "run.snapshot_every must be zero (the ends only) or positive"),
])
def test_simulate_config_errors_exit_2_before_writing(tmp_path, caplog, extra, message):
    out_dir = tmp_path / "never"
    path = write_config(tmp_path, overlaid(QUICK_RUN, extra))
    assert main(["--config", path, "--out", str(out_dir), "simulate"]) == cli.EXIT_CONFIG
    assert message in caplog.records[-1].getMessage()
    assert not out_dir.exists()

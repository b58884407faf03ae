"""Configuration-driven command line: tables, curves, checks, simulations.

Subcommands
    coeffs              coefficient report for one parameter set
    dispersion          tabulated dispersion branches and quartic residuals
    verify              every cross-module identity check (bonls.verify)
    verify-hamiltonian  the coordinate-equivalence subset
    verify-gauge        the gauge-transformation subset
    simulate            time integration with snapshot/diagnostic artifacts
    sweep               one simulation per value of one config key, in order

Configs are flat ``key = value`` text files with dotted keys.  Every key,
with its parser, default and check, is one row of the RunConfig table;
unknown keys are errors, so a typo fails fast instead of silently running
defaults.  Exit codes: 0 ok, 1 verification failure, 2 config error
(including a non-finite number, or a run time that is not a whole number
of steps), 3 blow-up, 4 an artifact that could not be written, 130 a
simulation stopped by Ctrl-C.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import logging
import math
import os
import sys
from pathlib import Path

# bonls's only BLAS calls are vector norms, so the worker thread OpenBLAS
# starts on numpy's import only spins.  A value the user sets wins, and
# the package's other modules leave BLAS threading as it was.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__, _tsv
from .coeffs import (
    DomainError,
    PhysicalParams,
    PRESETS,
    asymptotic_coefficients,
    coefficient_rows,
    derive_coefficients,
    dispersion_internal,
    dispersion_surface,
    quartic_residual,
    resonance_residual,
    symbol_table,
)
from .solver import (
    SYSTEMS,
    TIME_SCALES,
    BlowUp,
    StepperConfig,
    SystemState,
    bo_soliton,
    _integrate as run,
    gaussian_envelope,
    step_count,
)
from .spectral import ComplexField, Grid, RealField, band_limited_noise, gaussian_bump
from .verify import perturbed, run_suite

log = logging.getLogger("bonls")

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_IO = 4
EXIT_INTERRUPTED = 130  # the shell's code for a process ended by SIGINT


class ConfigError(ValueError):
    """A config key is unknown, malformed, or violates a precondition."""


def _fmt(x) -> str:
    """Round-trip-safe text for one number (17 significant digits)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_tsv(path: Path, header: str, table: np.ndarray,
               write=_tsv.write_table) -> None:
    """Rows of floats under a header, tab-separated, in `_fmt`'s digits.

    The bytes are those of np.savetxt with fmt="%.17g" (see
    `_tsv.write_table`); write=writer.send hands the table to a
    `_tsv.Writer` process instead of writing it here.
    """
    table = np.asarray(table, dtype=np.float64)
    write(path, header, table.shape[1], table.tobytes())


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

def _to_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("on", "true", "yes", "1"):
        return True
    if low in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected on/off, got {text!r}")


def _to_float(text: str) -> float:
    # a nan or inf would only surface later, as a blow-up or a failed check
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _to_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _to_list(text: str) -> tuple[str, ...]:
    """Comma-separated values; blanks are dropped."""
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _to_cadence(text: str) -> int | None:
    """A step count where 0 means none (only the ends of the run)."""
    return _to_int(text) or None


_POSITIVE = (lambda v: v > 0.0, "must be positive")


def _at_least(n: int):
    return (lambda v: v >= n, f"must be at least {n}")


def _strictly_between(lo: float, hi: float):
    return (lambda v: lo < v < hi, f"must lie strictly between {lo:g} and {hi:g}")


def _one_of(*choices: str):
    return (lambda v: v in choices, f"must be one of {', '.join(choices)}")


def _key(key: str, parse, default: str, check=None):
    """One row of the config table: a RunConfig field read from `key`.

    parse turns the setting's text into the field value or raises
    ValueError; check is an optional (predicate, requirement) pair that
    the parsed value must satisfy.
    """
    return dataclasses.field(metadata={"key": key, "parse": parse,
                                       "default": default, "check": check})


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully validated settings for one invocation.

    Every field built with `_key` is one row of the config table.  The
    rules that tie keys together run on construction, which also builds
    the library objects (params, grid, stepper, verify_grid), so a bad
    configuration never starts computing.
    """

    settings: dict[str, str]
    g: float = _key("physical.g", _to_float, "9.81")
    h1: float = _key("physical.h1", _to_float, "500.0")
    rho: float = _key("physical.rho", _to_float, "1000.0")
    rho1: float = _key("physical.rho1", _to_float, "997.0")
    epsilon: float = _key("model.epsilon", _to_float, "0.1", _strictly_between(0.0, 1.0))
    delta: float = _key("model.delta", _to_float, "0.25", _strictly_between(0.0, 0.5))
    grid_n: int = _key("grid.n", _to_int, "512")
    grid_length: float = _key("grid.length", _to_float, "40.0")
    scheme: str = _key("stepper.scheme", str.strip, "strang-split")
    dt: float = _key("stepper.dt", _to_float, "1e-3")
    cfl_guard: float = _key("stepper.cfl_guard", _to_float, "10.0")
    t_end: float = _key("run.t_end", _to_float, "10.0", _POSITIVE)
    diagnostics_every: int = _key("run.diagnostics_every", _to_int, "100", _at_least(1))
    snapshot_every: int | None = _key(
        "run.snapshot_every", _to_cadence, "0",
        (lambda v: v is None or v > 0, "must be zero (ends only) or positive"))
    system: str = _key("run.system", str.strip, "reduced", _one_of(*SYSTEMS))
    time_scale: str = _key("run.time_scale", str.strip, "tau", _one_of(*TIME_SCALES))
    gauge_diagnostics: bool = _key("run.gauge_diagnostics", _to_bool, "on")
    ic_r_kind: str = _key("ic.r.kind", str.strip, "gaussian",
                          _one_of("gaussian", "soliton", "noise", "zero"))
    ic_r_amplitude: float = _key("ic.r.amplitude", _to_float, "0.1")
    ic_r_width: float = _key("ic.r.width", _to_float, "2.0")
    ic_r_center: float = _key("ic.r.center", _to_float, "0.0")
    ic_r_nu: float = _key("ic.r.nu", _to_float, "1.0")
    ic_r_keep: float = _key("ic.r.keep", _to_float, "0.16666666666666666",
                            (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"))
    ic_r_mean_zero: bool = _key("ic.r.mean_zero", _to_bool, "on")
    ic_q_kind: str = _key("ic.q.kind", str.strip, "gaussian", _one_of("gaussian", "zero"))
    ic_q_amplitude: float = _key("ic.q.amplitude", _to_float, "0.05")
    ic_q_width: float = _key("ic.q.width", _to_float, "3.0")
    ic_q_center: float = _key("ic.q.center", _to_float, "0.0")
    ic_q_carrier: int = _key("ic.q.carrier_mode", _to_int, "3")
    k_min: float = _key("dispersion.k_min", _to_float, "1e-3")
    k_max: float = _key("dispersion.k_max", _to_float, "10.0")
    k_count: int = _key("dispersion.count", _to_int, "100", _at_least(2))
    verify_n: int = _key("verify.n", _to_int, "256")
    verify_length: float = _key("verify.length", _to_float, "40.0")
    verify_fields: int = _key("verify.fields", _to_int, "5", _at_least(1))
    sweep_key: str = _key("sweep.key", str.strip, "")
    sweep_values: tuple[str, ...] = _key("sweep.values", _to_list, "")
    out_dir: str = _key("output.dir", str.strip, "out")
    seed: int = _key("seed", _to_int, "0")
    params: PhysicalParams = dataclasses.field(init=False)
    grid: Grid = dataclasses.field(init=False)
    stepper: StepperConfig = dataclasses.field(init=False)
    verify_grid: Grid = dataclasses.field(init=False)

    @classmethod
    def from_settings(cls, settings: dict[str, str]) -> "RunConfig":
        values = {}
        for row in _ROWS:
            key, check = row.metadata["key"], row.metadata["check"]
            text = settings[key]
            try:
                values[row.name] = row.metadata["parse"](text)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
            if check is not None and not check[0](values[row.name]):
                raise ConfigError(f"{key}: {check[1]}, got {text.strip()!r}")
        return cls(settings=dict(settings), **values)

    def __post_init__(self):
        if self.time_scale == "tau1" and self.system != "full":
            raise ConfigError(f"{_KEY['time_scale']}: tau1 needs the full system")
        if self.ic_r_kind == "gaussian" and not self.ic_r_width > 0.0:
            raise ConfigError(f"{_KEY['ic_r_width']}: must be positive for a gaussian")
        if self.ic_r_kind == "soliton" and not self.ic_r_nu > 0.0:
            raise ConfigError(f"{_KEY['ic_r_nu']}: must be positive for a soliton")
        if self.ic_q_kind == "gaussian" and not self.ic_q_width > 0.0:
            raise ConfigError(f"{_KEY['ic_q_width']}: must be positive for a gaussian")
        if not 0.0 < self.k_min < self.k_max:
            raise ConfigError("dispersion range must satisfy 0 < k_min < k_max")
        # DomainError is a ValueError, so each constructor's own check reports here
        built = {
            "params": _build("physical", PhysicalParams,
                             self.g, self.h1, self.rho, self.rho1),
            "grid": _build("grid", Grid, self.grid_n, self.grid_length),
            "stepper": _build("stepper", StepperConfig, self.dt, self.scheme,
                              self.cfl_guard),
            "verify_grid": _build("verify grid", Grid, self.verify_n, self.verify_length),
        }
        # the rule run() applies, checked before any output is written
        _build(_KEY["t_end"], step_count, self.t_end, self.dt)
        for name, value in built.items():
            object.__setattr__(self, name, value)

    def coefficients(self):
        return derive_coefficients(self.params, self.epsilon, self.delta)


_ROWS = tuple(f for f in dataclasses.fields(RunConfig) if "key" in f.metadata)
_DEFAULTS = {row.metadata["key"]: row.metadata["default"] for row in _ROWS}
_KEY = {row.name: row.metadata["key"] for row in _ROWS}


def _build(what: str, make, *args):
    """make(*args), its ValueError reported as a config error about `what`."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def load_settings(path: str | None) -> dict[str, str]:
    """Defaults overlaid with one config file; unknown keys are errors."""
    settings = dict(_DEFAULTS)
    if path is None:
        return settings
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in settings:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        settings[key] = value
    return settings


def build_initial_state(cfg: RunConfig) -> SystemState:
    """Initial (r, q) from the ic.* settings; only noise kinds draw on the seed."""
    grid = cfg.grid
    kind = cfg.ic_r_kind
    if kind == "zero":
        r_vals = np.zeros(grid.n)
    elif kind == "noise":
        rng = np.random.default_rng(cfg.seed)
        r_vals = band_limited_noise(grid, rng, amplitude=cfg.ic_r_amplitude,
                                    keep=cfg.ic_r_keep,
                                    mean_zero=cfg.ic_r_mean_zero).values
    else:
        if kind == "gaussian":
            r_vals = gaussian_bump(grid, cfg.ic_r_width, cfg.ic_r_center).values
        else:
            r_vals = bo_soliton(grid, cfg.ic_r_nu, cfg.ic_r_center).values
        if cfg.ic_r_mean_zero:
            r_vals = r_vals - r_vals.mean()
        peak = float(np.max(np.abs(r_vals)))
        if peak > 0.0:
            r_vals = r_vals * (cfg.ic_r_amplitude / peak)
    if cfg.ic_q_kind == "zero":
        q = ComplexField(grid, np.zeros(grid.n, dtype=complex))
    else:
        q = gaussian_envelope(grid, cfg.ic_q_amplitude, cfg.ic_q_width,
                              cfg.ic_q_center, cfg.ic_q_carrier)
    return SystemState(RealField(grid, r_vals), q)


# --------------------------------------------------------------------------
# coeffs / dispersion reports
# --------------------------------------------------------------------------

def cmd_coeffs(cfg: RunConfig, args) -> int:
    co = cfg.coefficients()
    rows = coefficient_rows(co)
    asy = {}
    if cfg.params.gamma < 0.1:
        a = asymptotic_coefficients(cfg.params)
        asy = {name: getattr(a, name) for name in ("kt", "kt1", "kt2", "kt3", "kt4")}
    header = ["coefficient", "value", "formula"]
    if asy:
        header += ["small-gamma", "rel-deviation"]
    table = []
    for name, value, tag in rows:
        line = [name, _fmt(value), tag]
        if asy:
            if name in asy:
                dev = abs(value - asy[name]) / max(abs(asy[name]), 1e-300)
                line += [_fmt(asy[name]), _fmt(dev)]
            else:
                line += ["", ""]
        table.append(line)
    _print_table(header, table)
    print()
    print(f"resonance residual |w1'(k0) - c0| / c0 = {_fmt(resonance_residual(cfg.params))}")
    print(f"resonant wavenumber k0 = {_fmt(co.k0)} = 1 / (4 h1 gamma)")
    return EXIT_OK


def _print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header))
    print(fmt.format(*["-" * w for w in widths]))
    for row in rows:
        print(fmt.format(*row))


def cmd_dispersion(cfg: RunConfig, args) -> int:
    k = np.geomspace(cfg.k_min, cfg.k_max, cfg.k_count)
    w2_int = dispersion_internal(cfg.params, k)
    w2_sur = dispersion_surface(cfg.params, k)
    res_int = quartic_residual(cfg.params, k, w2_int)
    res_sur = quartic_residual(cfg.params, k, w2_sur)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "dispersion.tsv"
    _write_tsv(path, "k\tomega2_internal\tomega2_surface\tresidual_internal\tresidual_surface",
               np.column_stack((k, w2_int, w2_sur, res_int, res_sur)))
    worst = max(float(np.max(res_int)), float(np.max(res_sur)))
    print(f"wrote {path} ({k.size} wavenumbers)")
    print(f"max quartic residual = {_fmt(worst)}")
    return EXIT_OK if worst <= 1e-10 else EXIT_VERIFY


# --------------------------------------------------------------------------
# verification suites
# --------------------------------------------------------------------------

def cmd_verify(cfg: RunConfig, args) -> int:
    selection = None
    if getattr(args, "checks", None) is not None:
        selection = tuple(c.strip() for c in args.checks.split(",") if c.strip())
        if not selection:
            raise ConfigError("--checks selected an empty suite")
    symbols = symbol_table
    if getattr(args, "perturb", None) is not None:
        try:
            symbols = perturbed(args.perturb)
        except ValueError as exc:
            raise ConfigError(f"--perturb {exc}") from None
    # "verify" runs every suite, "verify-NAME" the suite NAME
    suite = args.command.partition("-")[2] or "all"
    k = np.geomspace(cfg.k_min, cfg.k_max, cfg.k_count)
    results = run_suite(suite, cfg.params, cfg.coefficients(), k, cfg.verify_grid,
                        cfg.verify_fields, cfg.seed, symbols)
    if selection is not None:
        known = {r.name for r in results}
        missing = [c for c in selection if c not in known]
        if missing:
            raise ConfigError(f"unknown checks: {', '.join(missing)}")
        results = [r for r in results if r.name in selection]
    if not results:
        raise ConfigError("no checks selected")
    table = [[r.name, _fmt(r.residual), _fmt(r.tol), "pass" if r.ok else "FAIL"]
             for r in results]
    _print_table(["check", "residual", "tolerance", "status"], table)
    failing = [r.name for r in results if not r.ok]
    if failing:
        print()
        print("failing checks: " + ", ".join(failing))
        return EXIT_VERIFY
    return EXIT_OK


# --------------------------------------------------------------------------
# simulate / sweep
# --------------------------------------------------------------------------

def _write_snapshot(path: Path, state: SystemState, write=_tsv.write_table) -> None:
    q = state.q.values
    _write_tsv(path, f"# t = {_fmt(state.t)}\nx\tr\tre_q\tim_q",
               np.column_stack((state.grid.x, state.r.values, q.real, q.imag)), write)


def _write_metadata(path: Path, cfg: RunConfig, co, status: str,
                    extra: dict[str, str]) -> None:
    with path.open("w") as fh:
        fh.write(f"bonls_version = {__version__}\n")
        fh.write(f"status = {status}\n")
        for key, value in extra.items():
            fh.write(f"{key} = {value}\n")
        for key in sorted(cfg.settings):
            fh.write(f"{key} = {cfg.settings[key]}\n")
        for name, value, _tag in coefficient_rows(co):
            fh.write(f"coefficient.{name} = {_fmt(value)}\n")


def cmd_simulate(cfg: RunConfig, args) -> int:
    co = cfg.coefficients()
    initial = build_initial_state(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log.info("simulate: %s system, %s, n=%d, dt=%s, t_end=%s",
             cfg.system, cfg.stepper.scheme, cfg.grid.n,
             _fmt(cfg.stepper.dt), _fmt(cfg.t_end))
    sent = itertools.count()
    # each table goes to a writer process, in order, and run keeps no snapshot;
    # the writer is reaped, and its failure raised, before metadata.txt.  It
    # runs in a session of its own, so Ctrl-C reaches only this process, and
    # an interrupted run still has every snapshot it sent written
    with _tsv.Writer() as writer:
        try:
            rows = run(initial, cfg.stepper, co, cfg.t_end,
                       diagnostics_every=cfg.diagnostics_every,
                       snapshot_every=cfg.snapshot_every,
                       system=cfg.system, time_scale=cfg.time_scale,
                       gauge_diagnostics=cfg.gauge_diagnostics,
                       on_snapshot=lambda st: _write_snapshot(
                           out / f"snapshot_{next(sent):04d}.tsv", st, writer.send))
        except BlowUp as exc:
            log.error("blow-up: %s", exc)
            _write_snapshot(out / "snapshot_last_good.tsv", exc.state, writer.send)
            writer.close()
            _write_metadata(out / "metadata.txt", cfg, co, "blow-up", {
                "failing_time": _fmt(exc.time),
                "failing_sup_norm": _fmt(exc.sup),
            })
            print(f"blow-up at t = {_fmt(exc.time)}; "
                  f"last good snapshot written to {out / 'snapshot_last_good.tsv'}")
            return EXIT_BLOWUP
        except KeyboardInterrupt:
            log.error("interrupted")
            writer.close()
            _write_metadata(out / "metadata.txt", cfg, co, "interrupted", {})
            print(f"interrupted; the snapshots taken so far are in {out}")
            return EXIT_INTERRUPTED
        diag_path = out / "diagnostics.tsv"
        _write_tsv(diag_path, "t\tE1\tE2\tE3\tmean_r\tmax_r\tgauge_residual",
                   np.array([(row.t, row.e1, row.e2, row.e3, row.mean_r, row.max_r,
                              row.gauge_residual) for row in rows]),
                   writer.send)
    snapshots = next(sent)  # the count of snapshots sent
    _write_metadata(out / "metadata.txt", cfg, co, "ok", {
        "snapshots": str(snapshots),
        "diagnostics_rows": str(len(rows)),
    })
    first, last = rows[0], rows[-1]
    drift = abs(last.e1 - first.e1) / max(abs(first.e1), 1e-300)
    log.info("done: %d diagnostics rows, E1 relative drift %.3e", len(rows), drift)
    print(f"wrote {diag_path} and {snapshots} snapshots to {out}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, args) -> int:
    if not cfg.sweep_key or not cfg.sweep_values:
        raise ConfigError(f"sweep requires {_KEY['sweep_key']} and a comma-separated "
                          f"{_KEY['sweep_values']}")
    if cfg.sweep_key not in _DEFAULTS:
        raise ConfigError(f"{_KEY['sweep_key']}: {cfg.sweep_key!r} is not a config key")
    if cfg.sweep_key in ("output.dir", "sweep.key", "sweep.values"):
        raise ConfigError(f"{_KEY['sweep_key']}: {cfg.sweep_key!r} cannot be swept")
    base = Path(cfg.out_dir)
    jobs: list[tuple[str, RunConfig]] = []
    for value in cfg.sweep_values:
        settings = dict(cfg.settings)
        settings[cfg.sweep_key] = value
        tag = f"{cfg.sweep_key}={value}".replace("/", "_")
        if any(tag == done for done, _ in jobs):
            # a second member would overwrite the first one's directory
            raise ConfigError(f"{_KEY['sweep_values']}: {value!r} gives the member "
                              f"directory {tag!r} twice")
        settings[_KEY["out_dir"]] = str(base / tag)
        jobs.append((tag, RunConfig.from_settings(settings)))
    # every member is checked above before the first one runs
    codes = []
    for tag, sub in jobs:
        codes.append(cmd_simulate(sub, args))
        log.info("sweep %s -> exit %d", tag, codes[-1])
        if codes[-1] == EXIT_INTERRUPTED:
            break
    print(f"sweep over {cfg.sweep_key}: {len(codes)} of {len(jobs)} runs, "
          f"{sum(1 for c in codes if c == EXIT_OK)} ok")
    if EXIT_INTERRUPTED in codes:
        return EXIT_INTERRUPTED
    return EXIT_BLOWUP if any(c == EXIT_BLOWUP for c in codes) else EXIT_OK


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

_HANDLERS = {
    "coeffs": cmd_coeffs,
    "dispersion": cmd_dispersion,
    "verify": cmd_verify,
    "verify-hamiltonian": cmd_verify,
    "verify-gauge": cmd_verify,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="flat key = value config file")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help=f"output directory (overrides {_KEY['out_dir']})")
    common.add_argument("--preset", choices=sorted(PRESETS),
                        default=argparse.SUPPRESS,
                        help="named physical parameter set")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help=f"random seed (overrides {_KEY['seed']})")
    parser = argparse.ArgumentParser(
        prog="bonls", parents=[common],
        description="two-layer wave model: coefficients, identities, simulation")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "coeffs": "print the derived coefficient table",
        "dispersion": "tabulate dispersion branches and quartic residuals",
        "verify": "run every identity check",
        "verify-hamiltonian": "run the coordinate-equivalence checks",
        "verify-gauge": "run the gauge-transformation checks",
        "simulate": "integrate the system and write artifacts",
        "sweep": "run simulate once per value of one config key",
    }
    for name, text in descriptions.items():
        sp = sub.add_parser(name, parents=[common], help=text)
        if name.startswith("verify"):
            sp.add_argument("--checks", default=None,
                            help="comma-separated check names to keep")
            sp.add_argument("--perturb", default=None, metavar="SYMBOL",
                            help="scale one symbol by 1.001 (the suite must fail)")
    return parser


def main(argv: list[str] | None = None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                            format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = load_settings(getattr(args, "config", None))
        if hasattr(args, "preset"):
            preset = PRESETS[args.preset]
            for name in ("g", "h1", "rho", "rho1"):
                settings[_KEY[name]] = _fmt(getattr(preset, name))
        if hasattr(args, "seed"):
            settings["seed"] = str(args.seed)
        if hasattr(args, "out"):
            settings["output.dir"] = args.out
        cfg = RunConfig.from_settings(settings)
        return _HANDLERS[args.command](cfg, args)
    except (ConfigError, DomainError) as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    except OSError as exc:
        log.error("%s", exc)  # names the artifact that was not written
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

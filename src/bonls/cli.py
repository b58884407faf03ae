"""Configuration-driven command line: tables, curves, checks, simulations.

Subcommands
    coeffs              coefficient report for one parameter set
    dispersion          tabulated dispersion branches and quartic residuals
    verify              the cross-module identity checks (bonls.verify), all
                        of them or the rows named by --checks
    simulate            time integration with snapshot/diagnostic artifacts
    sweep               one simulation per value of one config key, in order

Configs are flat ``key = value`` text files with dotted keys.  Every key,
with its parser, default and check, is one row of the RunConfig table;
unknown keys are errors, so a typo fails fast instead of silently running
defaults.  A RunConfig builds the library objects a run needs (physical
parameters, grid, stepper, model coefficients, step count and initial
state), so each rule on the input is the check of the object that owns
it.  Exit codes: 0 ok, 1 verification failure, 2 config error
(including a non-finite number, a negative seed, or a run time that is
not a whole number of steps), 3 blow-up, 4 an artifact that could not be
written, 130 Ctrl-C (a simulation stopped by it keeps the snapshots it
took).

The CLI fixes three process-wide policies on import, and the library
modules set none: OpenBLAS runs on one thread, glibc's heap keeps blocks
below `_MMAP_THRESHOLD` (see `_fix_heap_policy`), and the objects of the
import graph are frozen out of the cyclic garbage collector
(`gc.freeze`).  A value the user sets, an ``OPENBLAS_NUM_THREADS`` or any
``MALLOC_*`` variable, wins.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import gc
import itertools
import logging
import math
import os
import sys
from pathlib import Path

# bonls's only BLAS or LAPACK call is verify's polyfit, so the worker thread
# OpenBLAS starts on numpy's import only spins.  A value the user sets wins,
# and the package's other modules leave BLAS threading as it was.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__, _tsv
from .coeffs import (
    ANDAMAN,
    DomainError,
    ModelCoefficients,
    PhysicalParams,
    PRESETS,
    SMALL_GAMMA_MAX,
    asymptotic_coefficients,
    check_scaling,
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
    BlowUp,
    DiagnosticsRow,
    StepperConfig,
    SystemState,
    check_cadences,
    initial_envelope,
    initial_profile,
    initial_state,
    relative_drifts,
    run,
    step_count,
)
from .spectral import Grid

# glibc serves a request at or above its mmap threshold from a fresh
# mapping, moves that threshold up to the largest such block freed, and
# returns the heap's free top to the system past a trim threshold tied to
# it.  At n = 8192 the stage arrays (192 KiB) and numpy.fft's per-call
# scratch (2 x 256 KiB on the multi-row path) sit near those thresholds,
# so how often they fault in fresh pages followed the heap's history: a
# simulate-io-n8192 run took 8.5k to 23k minor faults as its stdout
# target and the length of its output path changed.  These fixed values
# hold every such run at 7.8k-8.2k.  A 256 KiB mmap threshold brings the
# churn back (29k), and so does a 2 MiB trim threshold (9.3k in 2 of 14
# layouts).
_MMAP_THRESHOLD = 512 * 1024
_TRIM_THRESHOLD = 8 * _MMAP_THRESHOLD
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, <malloc.h>


def _libc_mallopt():
    """libc's mallopt(int, int) -> int, or None where libc has none (macOS, Windows)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def _fix_heap_policy(environ, mallopt) -> bool:
    """Set glibc's mmap and trim thresholds for this process; True if both took.

    Nothing is set without a mallopt, or when the user set any MALLOC_*
    variable, which glibc reads at start-up.
    """
    if mallopt is None or any(key.startswith("MALLOC_") for key in environ):
        return False
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1)


_fix_heap_policy(os.environ, _libc_mallopt())

# The objects of the modules imported above live until exit, so the
# cyclic collector gains nothing by walking them again; frozen, they are
# left out of every collection, the interpreter's exit-time ones included.
# On a 2-vCPU host this took about 15 ms of wall and CPU time off a
# `simulate` of the n = 512 benchmark config (16 runs each way).
gc.freeze()

log = logging.getLogger("bonls")

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_IO = 4
EXIT_INTERRUPTED = 130  # the shell's code for a process ended by SIGINT


class ConfigError(ValueError):
    """A config key is unknown, malformed, or violates a precondition."""


def _fmt(x: float) -> str:
    """Round-trip-safe text for one number (17 significant digits)."""
    return format(float(x), ".17g")


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


def _at_least(n: int):
    return (lambda v: v >= n, f"must be at least {n}")


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

    Every field built with `_key` is one row of the config table.
    Construction builds the library objects a run needs: params, grid,
    stepper, the model coefficients and the initial state, and checks the
    step count.  Each object checks its own arguments, so a bad
    configuration fails here, before any command computes or writes.
    """

    settings: dict[str, str]
    g: float = _key("physical.g", _to_float, repr(ANDAMAN.g))
    h1: float = _key("physical.h1", _to_float, repr(ANDAMAN.h1))
    rho: float = _key("physical.rho", _to_float, repr(ANDAMAN.rho))
    rho1: float = _key("physical.rho1", _to_float, repr(ANDAMAN.rho1))
    epsilon: float = _key("model.epsilon", _to_float, "0.1")
    delta: float = _key("model.delta", _to_float, "0.25")
    grid_n: int = _key("grid.n", _to_int, "512")
    grid_length: float = _key("grid.length", _to_float, "40.0")
    scheme: str = _key("stepper.scheme", str.strip, "strang-split")
    dt: float = _key("stepper.dt", _to_float, "1e-3")
    cfl_guard: float = _key("stepper.cfl_guard", _to_float, "10.0")
    t_end: float = _key("run.t_end", _to_float, "10.0")
    diagnostics_every: int = _key("run.diagnostics_every", _to_int, "100")
    snapshot_every: int = _key("run.snapshot_every", _to_int, "0")
    system: str = _key("run.system", str.strip, "reduced", _one_of(*SYSTEMS))
    gauge_diagnostics: bool = _key("run.gauge_diagnostics", _to_bool, "on")
    ic_r_kind: str = _key("ic.r.kind", str.strip, "gaussian")
    ic_r_amplitude: float = _key("ic.r.amplitude", _to_float, "0.1")
    ic_r_width: float = _key("ic.r.width", _to_float, "2.0")
    ic_r_center: float = _key("ic.r.center", _to_float, "0.0")
    ic_q_kind: str = _key("ic.q.kind", str.strip, "gaussian")
    ic_q_amplitude: float = _key("ic.q.amplitude", _to_float, "0.05")
    ic_q_width: float = _key("ic.q.width", _to_float, "3.0")
    ic_q_center: float = _key("ic.q.center", _to_float, "0.0")
    ic_q_carrier: int = _key("ic.q.carrier_mode", _to_int, "3")
    sweep_key: str = _key("sweep.key", str.strip, "")
    sweep_values: tuple[str, ...] = _key("sweep.values", _to_list, "")
    seed: int = _key("seed", _to_int, "0", _at_least(0))
    params: PhysicalParams = dataclasses.field(init=False)
    grid: Grid = dataclasses.field(init=False)
    stepper: StepperConfig = dataclasses.field(init=False)
    coeffs: ModelCoefficients = dataclasses.field(init=False)
    initial: SystemState = dataclasses.field(init=False)

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
        def put(name, value):
            object.__setattr__(self, name, value)

        # DomainError is a ValueError, so each constructor's own check reports
        # here; with epsilon and delta in range the derivation fails on
        # physical.* alone
        _build("run.", check_cadences, self.diagnostics_every, self.snapshot_every)
        put("params", _build("physical", PhysicalParams, self.g, self.h1, self.rho, self.rho1))
        _build("model.", check_scaling, self.epsilon, self.delta)
        put("coeffs", _build("physical.*", derive_coefficients,
                             self.params, self.epsilon, self.delta))
        put("grid", _build("grid", Grid, self.grid_n, self.grid_length))
        put("stepper", _build("stepper", StepperConfig, self.dt, self.scheme, self.cfl_guard))
        # run()'s step-count rule, checked before anything is written
        _build(_KEY["t_end"], step_count, self.t_end, self.dt)
        r = _build("ic.r.", initial_profile, self.grid, self.ic_r_kind, self.ic_r_amplitude,
                   self.ic_r_width, self.ic_r_center, self.seed)
        q = _build("ic.q.", initial_envelope, self.grid, self.ic_q_kind, self.ic_q_amplitude,
                   self.ic_q_width, self.ic_q_center, self.ic_q_carrier)
        put("initial", _build("ic.*", initial_state, r, q))


_ROWS = tuple(f for f in dataclasses.fields(RunConfig) if "key" in f.metadata)
_DEFAULTS = {row.metadata["key"]: row.metadata["default"] for row in _ROWS}
_KEY = {row.name: row.metadata["key"] for row in _ROWS}


def _build(what: str, make, *args):
    """make(*args), its ValueError reported as a config error about `what`,
    a key or a section.  The message of a builder starts with the argument
    at fault, so a section given as "model." reads "model.epsilon must ..."."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"{what}{'' if what.endswith('.') else ': '}{exc}") from None


def load_settings(path: str | None) -> dict[str, str]:
    """Defaults overlaid with one config file; unknown keys and keys set twice
    are errors."""
    settings, first = dict(_DEFAULTS), {}  # first: the line that set each key
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
        if first.setdefault(key, lineno) != lineno:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} also set on line {first[key]}")
        settings[key] = value
    return settings


# --------------------------------------------------------------------------
# coeffs / dispersion reports
# --------------------------------------------------------------------------

def cmd_coeffs(cfg: RunConfig, args) -> int:
    co = cfg.coeffs
    rows = coefficient_rows(co)
    asy = {}
    if cfg.params.gamma < SMALL_GAMMA_MAX:
        asy = dataclasses.asdict(asymptotic_coefficients(cfg.params))
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
    # the sample (verify's in the unit twin's units) and tolerance of verify's
    # dispersion-quartic row, whose scale-free residual is computed alike
    from .verify import CHECKS, K as k

    w2 = np.stack((dispersion_internal(cfg.params, k), dispersion_surface(cfg.params, k)))
    residual = quartic_residual(cfg.params, k, w2)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "dispersion.tsv"
    table = np.column_stack((k, *w2, *residual))
    _tsv.write_file(path, _tsv.write_table,
                    "k\tomega2_internal\tomega2_surface\tresidual_internal\tresidual_surface",
                    table.shape[1], table)
    worst = float(np.max(residual))
    print(f"wrote {path} ({k.size} wavenumbers)")
    print(f"max quartic residual = {_fmt(worst)}")
    return EXIT_OK if worst <= CHECKS["dispersion-quartic"][1] else EXIT_VERIFY


# --------------------------------------------------------------------------
# identity checks
# --------------------------------------------------------------------------

def cmd_verify(cfg: RunConfig, args) -> int:
    # the suite and bonls.hamiltonian are imported here only: no other
    # command pays for them at start-up
    from .verify import perturbed, run_suite

    try:
        symbols = symbol_table if args.perturb is None else perturbed(args.perturb)
        results = run_suite(cfg.params, cfg.coeffs, symbols, args.checks)
    except ValueError as exc:  # an unknown symbol, or a bad selection before any check
        raise ConfigError(str(exc)) from None
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

def _write_snapshot(path: Path, state: SystemState, write) -> None:
    q = state.q.values
    write(path, f"# t = {_fmt(state.t)}\nx\tr\tre_q\tim_q",
          np.column_stack((state.grid.x, state.r.values, q.real, q.imag)))


def _write_metadata(fh, cfg: RunConfig, status: str, extra: dict[str, str]) -> None:
    """metadata.txt's lines to the text file fh (see `_tsv.write_file`)."""
    fh.write(f"bonls_version = {__version__}\n")
    fh.write(f"status = {status}\n")
    for key, value in extra.items():
        fh.write(f"{key} = {value}\n")
    for key in sorted(cfg.settings):
        fh.write(f"{key} = {cfg.settings[key]}\n")
    for name, value, _tag in coefficient_rows(cfg.coeffs):
        fh.write(f"coefficient.{name} = {_fmt(value)}\n")


def cmd_simulate(cfg: RunConfig, args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log.info("simulate: %s system, %s, n=%d, dt=%s, t_end=%s",
             cfg.system, cfg.stepper.scheme, cfg.grid.n,
             _fmt(cfg.dt), _fmt(cfg.t_end))
    sent = itertools.count()
    # each table goes to the writer, in order, and run keeps no snapshot.  The
    # writer writes small tables here and the rest in a child process, each
    # whole or not at all, like every file (`_tsv.write_file`); the child is
    # reaped, and its failure raised, before metadata.txt.  It runs in a
    # session of its own, so Ctrl-C reaches only this process, and an
    # interrupted run still has every snapshot it sent written
    with _tsv.Writer() as writer:
        try:
            rows = run(cfg.initial, cfg.stepper, cfg.coeffs, cfg.t_end,
                       diagnostics_every=cfg.diagnostics_every,
                       snapshot_every=cfg.snapshot_every, system=cfg.system,
                       gauge_diagnostics=cfg.gauge_diagnostics,
                       on_snapshot=lambda st: _write_snapshot(
                           out / f"snapshot_{next(sent):04d}.tsv", st, writer.send)
                       ).diagnostics
        except ValueError as exc:  # raised before the first snapshot is sent
            raise ConfigError(f"grid, stepper: {exc}") from None
        except BlowUp as exc:
            log.error("blow-up: %s", exc)
            last_good = out / "snapshot_last_good.tsv"
            _write_snapshot(last_good, exc.state, writer.send)
            status, code = "blow-up", EXIT_BLOWUP
            extra = {"failing_time": _fmt(exc.time), "failing_sup_norm": _fmt(exc.sup)}
            message = (f"blow-up at t = {_fmt(exc.time)}; "
                       f"last good snapshot written to {last_good}")
        except KeyboardInterrupt:
            log.error("interrupted")
            status, code, extra = "interrupted", EXIT_INTERRUPTED, {}
            message = f"interrupted; the snapshots taken so far are in {out}"
        else:
            diag_path = out / "diagnostics.tsv"
            table = np.array([dataclasses.astuple(row) for row in rows])
            writer.send(diag_path, "\t".join(DiagnosticsRow.COLUMNS), table)
            snapshots = next(sent)  # the count of snapshots sent
            status, code = "ok", EXIT_OK
            extra = {"snapshots": str(snapshots), "diagnostics_rows": str(len(rows))}
            message = f"wrote {diag_path} and {snapshots} snapshots to {out}"
            log.info("done: %d diagnostics rows, relative drifts %s", len(rows), ", ".join(
                f"{name} {d:.3e}" for name, d in relative_drifts(rows, cfg.system).items()))
    _tsv.write_file(out / "metadata.txt", _write_metadata, cfg, status, extra)
    print(message)
    return code


def cmd_sweep(cfg: RunConfig, args) -> int:
    if not cfg.sweep_key or not cfg.sweep_values:
        raise ConfigError(f"sweep requires {_KEY['sweep_key']} and a comma-separated "
                          f"{_KEY['sweep_values']}")
    if cfg.sweep_key not in _DEFAULTS:
        raise ConfigError(f"{_KEY['sweep_key']}: {cfg.sweep_key!r} is not a config key")
    if cfg.sweep_key in ("sweep.key", "sweep.values"):
        raise ConfigError(f"{_KEY['sweep_key']}: {cfg.sweep_key!r} cannot be swept")
    base = Path(args.out)
    jobs: list[tuple[str, RunConfig]] = []
    for value in cfg.sweep_values:
        settings = dict(cfg.settings)
        settings[cfg.sweep_key] = value
        tag = f"{cfg.sweep_key}={value}".replace("/", "_")
        if any(tag == done for done, _ in jobs):
            # a second member would overwrite the first one's directory
            raise ConfigError(f"{_KEY['sweep_values']}: {value!r} gives the member "
                              f"directory {tag!r} twice")
        jobs.append((tag, RunConfig.from_settings(settings)))
    # every member's config, coefficients and initial state are built
    # above before the first one runs
    codes = []
    for tag, sub in jobs:
        codes.append(cmd_simulate(sub, argparse.Namespace(out=base / tag)))
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
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="flat key = value config file")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="output directory (default: out)")
    common.add_argument("--preset", choices=sorted(PRESETS),
                        default=argparse.SUPPRESS,
                        help="named physical parameter set")
    parser = argparse.ArgumentParser(
        prog="bonls", parents=[common],
        description="two-layer wave model: coefficients, identities, simulation")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "coeffs": "print the derived coefficient table",
        "dispersion": "tabulate dispersion branches and quartic residuals",
        "verify": "run the identity checks",
        "simulate": "integrate the system and write artifacts",
        "sweep": "run simulate once per value of one config key",
    }
    for name, text in descriptions.items():
        sp = sub.add_parser(name, parents=[common], help=text)
        if name == "verify":
            sp.add_argument("--checks", default=None, metavar="NAMES",
                            type=lambda text: [c.strip() for c in text.split(",") if c.strip()],
                            help="comma-separated check names to run (default: all)")
            sp.add_argument("--perturb", default=None, metavar="SYMBOL",
                            help="scale one symbol by 1.001 (the suite must fail)")
    return parser


def main(argv: list[str] | None = None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                            format="%(levelname)s %(message)s")
    parser = build_parser()
    # "out" unless --out is given, before or after the subcommand
    args = parser.parse_args(argv, argparse.Namespace(out="out"))
    try:
        settings = load_settings(getattr(args, "config", None))
        if hasattr(args, "preset"):
            preset = PRESETS[args.preset]
            settings.update({_KEY[f.name]: repr(getattr(preset, f.name))
                             for f in dataclasses.fields(preset)})
        cfg = RunConfig.from_settings(settings)
        return _HANDLERS[args.command](cfg, args)
    except (ConfigError, DomainError) as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    except OSError as exc:
        log.error("%s", exc)  # names the artifact that was not written
        return EXIT_IO
    except KeyboardInterrupt:  # outside a run, which handles its own
        log.error("interrupted")
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())

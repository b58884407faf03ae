"""Layer tracing for one benchmark child, and the per-layer metrics read from it.

The tracer wraps, from outside the program, the module-level names
through which the bonls layers call each other.  Each wrapped call
records a span (id, name, start, end, parent span, run id); the numpy.fft
entry points are counted and timed in totals per run id instead, since a
step makes dozens of them.  Everything stays in memory until the child
writes it out at exit.

`layer_metrics` runs in the load generator and turns one child's dump
into the per-layer metrics.  A metric whose boundary the program no
longer has is left out and named in `missing`, never reported as zero.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import time

FFT_ENTRY_POINTS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
                    "fft2", "ifft2", "rfft2", "irfft2",
                    "fftn", "ifftn", "rfftn", "irfftn")

# span names (module path of the wrapped binding)
LOAD = "bonls.cli.load_settings"
FROM_SETTINGS = "bonls.cli.RunConfig.from_settings"
CLI_DERIVE = "bonls.cli.derive_coefficients"
API_DERIVE = "bonls.coeffs.derive_coefficients"
CMD_SIMULATE = "bonls.cli.cmd_simulate"
CLI_RUN = "bonls.cli.run"
API_RUN = "bonls.solver.run"
STEP = "bonls.solver.step"
CONSERVED = "bonls.solver.conserved"
GAUGE = ("bonls.solver.gauge", "bonls.solver.gauge_ode_residual",
         "bonls.gauge.gauge", "bonls.gauge.gauge_ode_residual")
NUMPY_FFT = "numpy.fft"

COUNTS = ("spectral.fft_calls_per_step", "coeffs.derive_calls",
          "solver.conserved_calls", "gauge.calls",
          "cli.bytes_written", "cli.files_written")


def first_call_hook(owner, attr: str, stamp: list) -> bool:
    """Record time.monotonic() of the first call through owner.attr."""
    orig = getattr(owner, attr, None)
    if orig is None:
        return False

    @functools.wraps(orig)
    def hooked(*args, **kwargs):
        if not stamp:
            stamp.append(time.monotonic())
        return orig(*args, **kwargs)

    setattr(owner, attr, hooked)
    return True


class Tracer:
    def __init__(self):
        self.run_id = "workload"
        self.spans: list[tuple] = []
        self.fft: dict[str, list] = {}  # run id -> [calls, seconds, bytes]
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr by a span-recording wrapper."""
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(name)
            return
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((idx, name, t0, t1, parent, self.run_id))

        if isinstance(owner, type):
            setattr(owner, attr, staticmethod(traced))
            return
        setattr(owner, attr, traced)
        # dispatch tables such as the CLI's handler map hold the function too
        for value in vars(owner).values():
            if isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is orig:
                        value[key] = traced

    def wrap_fft(self, module) -> None:
        """Count calls, seconds and in+out bytes of every numpy.fft transform."""
        wrapped = 0
        for fname in FFT_ENTRY_POINTS:
            orig = getattr(module, fname, None)
            if orig is None:
                continue
            setattr(module, fname, self._counted(orig))
            wrapped += 1
        if not wrapped:
            self.missing.append(NUMPY_FFT)

    def _counted(self, orig):
        @functools.wraps(orig)
        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            out = orig(*args, **kwargs)
            t1 = time.perf_counter()
            rec = self.fft.get(self.run_id)
            if rec is None:
                rec = self.fft[self.run_id] = [0, 0.0, 0]
            data = args[0] if args else kwargs.get("a")
            rec[0] += 1
            rec[1] += t1 - t0
            rec[2] += getattr(data, "nbytes", 0) + out.nbytes
            return out
        return counted

    def dump(self) -> dict:
        return {"spans": self.spans, "fft": self.fft, "missing": self.missing}


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def layer_metrics(w, child: dict, written: tuple[int, int]) -> dict[str, float]:
    """Per-layer metrics of one traced child (see the README for definitions)."""
    missing = set(child["missing"])
    spans = [tuple(s) for s in child["spans"]]
    work = [s for s in spans if s[5] == "workload"]
    child_time: dict[int, float] = {}
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])

    def named(names, pool=work):
        return [s for s in pool if s[1] in names]

    def busy_ms(names):
        return 1e3 * sum(s[3] - s[2] for s in named(names))

    def self_s(s):
        return (s[3] - s[2]) - child_time.get(s[0], 0.0)

    def have(*names):
        return not missing.intersection(names)

    m: dict[str, float] = {}
    cli = w.command != "api"
    if cli:
        if have(LOAD, FROM_SETTINGS):
            m["cli.config_ms"] = busy_ms((LOAD, FROM_SETTINGS))
        if have(CMD_SIMULATE, CLI_RUN, CLI_DERIVE):
            m["cli.write_ms"] = 1e3 * sum(self_s(s) for s in named((CMD_SIMULATE,)))
    else:
        # the Python API path never enters the cli layer
        m.update({"cli.config_ms": 0.0, "cli.write_ms": 0.0})
    m["cli.bytes_written"], m["cli.files_written"] = written

    derive = CLI_DERIVE if cli else API_DERIVE
    if have(derive):
        m["coeffs.derive_ms"] = busy_ms((derive,))
        m["coeffs.derive_calls"] = len(named((derive,)))

    run_name = CLI_RUN if cli else API_RUN
    # the API loop never calls run(); its probe times run() over the same steps
    runs = named((run_name,), work if cli else [s for s in spans if s[5] == "probe"])
    run_ms = None
    if have(run_name, CONSERVED, *GAUGE) and runs:
        run_ms = 1e3 * sum(self_s(s) for s in runs) / (w.steps * len(runs))
        m["solver.run_ms_per_step"] = run_ms
    step_ms = [1e3 * (s[3] - s[2]) for s in named((STEP,), spans)]
    if have(STEP) and step_ms:
        m["solver.step_ms_p50"] = statistics.median(step_ms)
        worst = tail(step_ms)
        if worst is not None:
            m["solver.step_ms_tail"] = worst[1]
        if run_ms:
            m["solver.step_over_run"] = m["solver.step_ms_p50"] / run_ms
    if have(CONSERVED):
        m["solver.conserved_ms"] = busy_ms((CONSERVED,))
        m["solver.conserved_calls"] = len(named((CONSERVED,)))
    for key in ("E1", "E2", "E3"):
        if key in child["drift"]:
            m[f"solver.{key.lower()}_rel_drift"] = child["drift"][key]

    fft = child["fft"].get("workload")
    if have(NUMPY_FFT) and fft:
        calls, secs, nbytes = fft
        m["spectral.fft_calls_per_step"] = calls / w.steps
        m["spectral.fft_ms_per_step"] = 1e3 * secs / w.steps
        m["spectral.fft_bytes_per_step"] = nbytes / w.steps
        m["spectral.fft_share"] = secs / (child["t_done"] - child["t_start"])
    if have(*GAUGE):
        m["gauge.residual_ms"] = busy_ms(GAUGE)
        m["gauge.calls"] = len(named(GAUGE))
    return m

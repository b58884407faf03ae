"""One benchmark operation, run in a fresh process by perfbench/run.py.

    python3 perfbench/child.py SPEC.json

SPEC names the workload command ("simulate" or "api"), the CLI
arguments or the API parameters, whether to trace, and where to write the
result.  The child hooks the first call into the integrator (`run` for the
CLI, `step` for the API) so the load generator can read the set-up time.
Traced, it also wraps the layer boundaries (see spans.py) and, after the
workload, runs a probe under its own run id: step() on the same config for
the CLI workloads, run() over the same steps for the API loop.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import spans

PROBE_STEP_CALLS = 30


def readme_state(p: dict):
    """The README's Python API initial state, centred where the seed put it."""
    import numpy as np
    from bonls.solver import SystemState, gaussian_envelope
    from bonls.spectral import Grid, RealField, gaussian_bump

    grid = Grid(p["n"], p["length"])
    r = gaussian_bump(grid, 2.0, p["r_center"]).values
    r -= r.mean()
    r *= p["r_amplitude"] / np.max(np.abs(r))
    q = gaussian_envelope(grid, p["q_amplitude"], 3.0, p["q_center"], carrier_mode=3)
    return SystemState(RealField(grid, r), q)


def coefficients(p: dict):
    from bonls import coeffs
    params = coeffs.PhysicalParams(g=p["g"], h1=p["h1"], rho=p["rho"], rho1=p["rho1"])
    return coeffs.derive_coefficients(params, epsilon=p["epsilon"], delta=p["delta"])


def api_loop(p: dict) -> dict:
    """Loop solver.step, calling solver.conserved every conserved_every steps."""
    import numpy as np
    from bonls import gauge, solver
    from bonls.spectral import RealField

    co = coefficients(p)
    state = readme_state(p)
    cfg = solver.StepperConfig(dt=p["dt"], scheme=p["scheme"])

    def row(s) -> dict:
        tri = solver.conserved(s, co)
        return {"t": s.t, "E1": tri.e1, "E2": tri.e2, "E3": tri.e3,
                "mean_r": float(np.mean(s.r.values))}

    def gauge_residual(s) -> float:
        spec = s.r.spectrum.copy()
        spec[0] = 0.0
        gs = gauge.gauge(RealField.from_spectrum(s.grid, spec), co)
        return gauge.gauge_ode_residual(gs, co)

    rows = [row(state)]
    rows[0]["gauge_residual"] = gauge_residual(state)
    for i in range(1, p["steps"] + 1):
        state = solver.step(state, cfg, co, system=p["system"])
        if i % p["conserved_every"] == 0 or i == p["steps"]:
            rows.append(row(state))
    rows[-1]["gauge_residual"] = gauge_residual(state)
    return {"rows": rows}


def probe(spec: dict) -> None:
    from bonls import solver

    p = spec["api"]
    co = coefficients(p)
    state = readme_state(p)
    cfg = solver.StepperConfig(dt=p["dt"], scheme=p["scheme"])
    if spec["command"] == "api":
        solver.run(state, cfg, co, t_end=p["steps"] * p["dt"],
                   diagnostics_every=p["steps"], system=p["system"],
                   gauge_diagnostics=False)
        return
    for _ in range(PROBE_STEP_CALLS):
        state = solver.step(state, cfg, co, system=p["system"])


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    api = spec["command"] == "api"
    tracer = spans.Tracer() if spec["trace"] else None
    if tracer is not None:
        import numpy.fft
        tracer.wrap_fft(numpy.fft)  # before bonls binds any transform

    from bonls import coeffs, gauge, solver
    first: list[float] = []
    if api:
        hooked = spans.first_call_hook(solver, "step", first)
    else:
        from bonls import cli
        hooked = spans.first_call_hook(cli, "run", first)
    if not hooked:
        print("integrator entry point not found", file=sys.stderr)
        return 70

    if tracer is not None:
        boundaries = [(solver, "step", spans.STEP),
                      (solver, "conserved", spans.CONSERVED),
                      (solver, "gauge", spans.GAUGE[0]),
                      (solver, "gauge_ode_residual", spans.GAUGE[1]),
                      (coeffs, "derive_coefficients", spans.API_DERIVE)]
        if api:
            boundaries += [(solver, "run", spans.API_RUN),
                           (gauge, "gauge", spans.GAUGE[2]),
                           (gauge, "gauge_ode_residual", spans.GAUGE[3])]
        else:
            boundaries += [(cli, "load_settings", spans.LOAD),
                           (cli.RunConfig, "from_settings", spans.FROM_SETTINGS),
                           (cli, "derive_coefficients", spans.CLI_DERIVE),
                           (cli, "cmd_simulate", spans.CMD_SIMULATE),
                           (cli, "run", spans.CLI_RUN)]
        for owner, attr, name in boundaries:
            tracer.wrap(owner, attr, name)

    result: dict = {}
    t_start = time.monotonic()
    if api:
        result.update(api_loop(spec["api"]))
        code = 0
    else:
        code = cli.main(spec["argv"])
    t_done = time.monotonic()
    result.update({"code": code, "t_first": first[0] if first else None,
                   "t_start": t_start, "t_done": t_done})
    if tracer is not None and code == 0:
        tracer.run_id = "probe"
        probe(spec)
        result.update(tracer.dump())
    Path(spec["result"]).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())

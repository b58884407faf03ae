"""The benchmark's workloads, the inputs each draws from a seed, and their
correctness gate.

Every workload uses the bench stratification of the README and the
acceptance suite.  The seed moves the bump and envelope centres; the
step count, and so the work done, does not depend on it.  The gate reads only what the program hands back: exit code,
artifact set, and the conserved quantities in its diagnostics.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

DT = 1e-3
LENGTH = 40.0
STRATIFICATION = {"g": 1.0, "h1": 1.0, "rho": 2.0, "rho1": 1.0,
                  "epsilon": 0.35, "delta": 0.25}
R_AMPLITUDE = 0.1
Q_AMPLITUDE = 0.05
CENTRE_RANGE = (-5.0, 5.0)

# Gate bounds: criterion 08's drift budget.  E1 is an invariant of the
# reduced system only, so its bound applies there alone.
E2_E3_TOL = 1e-9
E1_TOL = 1e-7
MEAN_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # "simulate" or "api"
    system: str
    scheme: str
    n: int
    steps: int              # per member
    diagnostics_every: int  # conserved-quantity cadence, in steps
    snapshot_every: int     # 0: only the first and the last state

    @property
    def ops_per_child(self) -> int:
        """One operation is a simulate run or a step() call."""
        return self.steps if self.command == "api" else 1


WORKLOADS = {w.name: w for w in (
    Workload("simulate-n512", "simulate", "reduced", "strang-split", 512,
             steps=1000, diagnostics_every=100, snapshot_every=1000),
    Workload("simulate-io-n8192", "simulate", "full", "etdrk4", 8192,
             steps=50, diagnostics_every=1, snapshot_every=10),
    Workload("api-step-loop-n512", "api", "reduced", "etdrk4", 512,
             steps=80, diagnostics_every=10, snapshot_every=0),
)}


def inputs(w: Workload, seed: int) -> dict:
    """The seed-dependent values handed to the program."""
    rng = random.Random(f"{w.name}:{seed}")
    return {"r_center": rng.uniform(*CENTRE_RANGE),
            "q_center": rng.uniform(*CENTRE_RANGE)}


def config_text(w: Workload, inp: dict) -> str:
    """The flat config file of a simulate workload."""
    settings = {
        "physical.g": STRATIFICATION["g"],
        "physical.h1": STRATIFICATION["h1"],
        "physical.rho": STRATIFICATION["rho"],
        "physical.rho1": STRATIFICATION["rho1"],
        "model.epsilon": STRATIFICATION["epsilon"],
        "model.delta": STRATIFICATION["delta"],
        "grid.n": w.n,
        "grid.length": LENGTH,
        "stepper.scheme": w.scheme,
        "stepper.dt": DT,
        "run.t_end": w.steps * DT,
        "run.system": w.system,
        "run.diagnostics_every": w.diagnostics_every,
        "run.snapshot_every": w.snapshot_every,
        "run.gauge_diagnostics": "on",
        "ic.r.kind": "gaussian",
        "ic.r.amplitude": R_AMPLITUDE,
        "ic.r.center": inp["r_center"],
        "ic.q.kind": "gaussian",
        "ic.q.amplitude": Q_AMPLITUDE,
        "ic.q.center": inp["q_center"],
        "ic.q.carrier_mode": 3,
    }
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in settings.items())


def api_params(w: Workload, inp: dict) -> dict:
    """What the API child needs to build the README state and loop step()."""
    return {"n": w.n, "length": LENGTH, "dt": DT, "scheme": w.scheme,
            "system": w.system, "steps": w.steps,
            "conserved_every": w.diagnostics_every,
            "r_amplitude": R_AMPLITUDE, "q_amplitude": Q_AMPLITUDE,
            "r_center": inp["r_center"], "q_center": inp["q_center"],
            **STRATIFICATION}


def _marks(steps: int, every: int) -> int:
    """Rows a run records: the start, every `every` steps, and the end."""
    hits = set(range(every, steps + 1, every)) if every > 0 else set()
    return 1 + len(hits | {steps})


def check_rows(w: Workload, rows: list[dict]) -> tuple[list[str], dict]:
    """Drift gate over diagnostics rows (keys t, E1, E2, E3, mean_r, gauge_residual)."""
    reasons: list[str] = []
    first = rows[0]
    drift = {}
    for key in ("E1", "E2", "E3"):
        ref = abs(first[key])
        drift[key] = max(abs(r[key] - first[key]) for r in rows) / max(ref, 1e-300)
    mean_shift = max(abs(r["mean_r"] - first["mean_r"]) for r in rows)
    if not drift["E2"] <= E2_E3_TOL:
        reasons.append(f"E2 drift {drift['E2']:.3e} > {E2_E3_TOL:g}")
    if not drift["E3"] <= E2_E3_TOL:
        reasons.append(f"E3 drift {drift['E3']:.3e} > {E2_E3_TOL:g}")
    if w.system == "reduced" and not drift["E1"] <= E1_TOL:
        reasons.append(f"E1 drift {drift['E1']:.3e} > {E1_TOL:g}")
    if not mean_shift <= MEAN_TOL:
        reasons.append(f"mean r moved {mean_shift:.3e} > {MEAN_TOL:g}")
    gauges = [r["gauge_residual"] for r in rows if "gauge_residual" in r]
    if not gauges or not all(math.isfinite(g) for g in gauges):
        reasons.append("gauge residual missing or not finite")
    return reasons, drift


def _read_diagnostics(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, map(float, line.split("\t")))) for line in lines[1:]]


def check_simulate(w: Workload, out: Path) -> tuple[list[str], dict]:
    """Gate one simulate output directory: artifact set, status, drifts."""
    snaps = _marks(w.steps, w.snapshot_every)
    expected = {"diagnostics.tsv", "metadata.txt"}
    expected |= {f"snapshot_{i:04d}.tsv" for i in range(snaps)}
    found = {p.name for p in out.iterdir()} if out.is_dir() else set()
    if found != expected:
        return [f"artifacts {sorted(found ^ expected)} differ from the expected set"], {}
    if "status = ok\n" not in (out / "metadata.txt").read_text():
        return ["metadata status is not ok"], {}
    rows = _read_diagnostics(out / "diagnostics.tsv")
    if len(rows) != _marks(w.steps, w.diagnostics_every):
        return [f"{len(rows)} diagnostics rows"], {}
    return check_rows(w, rows)


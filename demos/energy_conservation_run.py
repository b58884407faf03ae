# %%
"""Integrate the coupled system and watch the conserved triple sit still.

The interface profile r rides a Benjamin-Ono-type equation, the surface
envelope q a Schrodinger equation, coupled through beta.  Three functionals
should stay put along the flow: the energy E1, the envelope mass E2, and
the mixed momentum E3.  A split stepper with exact linear phases keeps
their drifts near roundoff over thousands of steps; this script runs one
medium-length simulation and tabulates the drifts, then saves a waterfall
of the interface if matplotlib is around.
"""

from bonls.coeffs import PhysicalParams, derive_coefficients
from bonls.solver import (
    StepperConfig,
    initial_envelope,
    initial_profile,
    initial_state,
    run,
)
from bonls.spectral import Grid

co = derive_coefficients(PhysicalParams(g=1.0, h1=1.0, rho=2.0, rho1=1.0),
                         epsilon=0.35, delta=0.25)
grid = Grid(256, 40.0)

# %%
# smooth mean-zero data: a bump for the interface, a modulated packet on top
# (simulate's default ic.r.* and ic.q.* values)
r = initial_profile(grid, "gaussian", amplitude=0.1, width=2.0, center=0.0, seed=0)
q = initial_envelope(grid, "gaussian", amplitude=0.05, width=3.0, center=0.0, carrier_mode=3)
state = initial_state(r, q)

traj = run(state, StepperConfig(dt=1e-3), co, t_end=5.0,
           diagnostics_every=500, snapshot_every=500)

# %%
# drift table: relative to the initial values, column by column
rows = traj.diagnostics
e1_0, e2_0, e3_0 = rows[0].e1, rows[0].e2, rows[0].e3
print(f"{'t':>6}  {'dE1/E1':>10}  {'dE2/E2':>10}  {'dE3/E3':>10}  "
      f"{'mean r':>10}  {'gauge ode':>10}")
for row in rows:
    print(f"{row.t:6.2f}  {abs(row.e1 - e1_0) / abs(e1_0):10.3e}  "
          f"{abs(row.e2 - e2_0) / abs(e2_0):10.3e}  "
          f"{abs(row.e3 - e3_0) / abs(e3_0):10.3e}  "
          f"{row.mean_r:10.3e}  {row.gauge_residual:10.3e}")

# %%
# the same run, pictured; skipped silently on a box without matplotlib
try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(11, 4))
    for snap in traj.snapshots:
        ax1.plot(grid.x, snap.r.values + 0.05 * snap.t, lw=0.8)
    ax1.set_xlabel("x")
    ax1.set_title("interface r, snapshots offset by time")
    ts = [row.t for row in rows]
    ax2.semilogy(ts[1:], [max(abs(row.e1 - e1_0) / abs(e1_0), 1e-18)
                          for row in rows[1:]], "o-", label="E1")
    ax2.semilogy(ts[1:], [max(abs(row.e2 - e2_0) / abs(e2_0), 1e-18)
                          for row in rows[1:]], "s-", label="E2")
    ax2.semilogy(ts[1:], [max(abs(row.e3 - e3_0) / abs(e3_0), 1e-18)
                          for row in rows[1:]], "^-", label="E3")
    ax2.set_xlabel("t")
    ax2.set_title("relative drifts")
    ax2.legend()
    fig.tight_layout()
    fig.savefig("energy_conservation_run.png", dpi=120)
    print("wrote energy_conservation_run.png")

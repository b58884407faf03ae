"""Time stepping: right-hand sides, linear exactness, conservation, convergence."""

import dataclasses
import gc
import sys
import threading
import types
import weakref

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAS_HYPOTHESIS = True
except ImportError:
    HAS_HYPOTHESIS = False

from bonls import solver
from bonls.coeffs import ANDAMAN, OREGON, PhysicalParams, derive_coefficients
from bonls.gauge import gauge, gauge_ode_residual
from bonls.solver import (
    BlowUp,
    StepperConfig,
    SystemState,
    bo_soliton,
    conserved,
    gaussian_envelope,
    initial_envelope,
    initial_profile,
    rhs,
    run,
    step,
)
from bonls.spectral import (
    ComplexField,
    Grid,
    RealField,
    _mean_free,
    _mult_deriv,
    absd,
    band_limited_noise,
    deriv,
    gaussian_bump,
    propagator,
)

BENCH = derive_coefficients(PhysicalParams(g=1.0, h1=1.0, rho=2.0, rho1=1.0),
                            epsilon=0.35, delta=0.25)

RNG = np.random.default_rng(6021)


def zero_state(grid):
    return SystemState(RealField(grid, np.zeros(grid.n)),
                       ComplexField(grid, np.zeros(grid.n, dtype=complex)))


def bump_state(grid, r_sup=0.1, q_amp=0.05, q_width=3.0, carrier=2, r_width=2.0):
    return SystemState(initial_profile(grid, "gaussian", r_sup, r_width, 0.0, 1.0, 0),
                       initial_envelope(grid, "gaussian", q_amp, q_width, 0.0, carrier))


# ---------------------------------------------------------------- right-hand sides

def test_rhs_zero_state():
    grid = Grid(128, 40.0)
    dr, dq = rhs(zero_state(grid), BENCH)
    assert np.max(np.abs(dr.values)) == 0.0
    assert np.max(np.abs(dq.values)) == 0.0


def test_rhs_rejects_an_unknown_system():
    with pytest.raises(ValueError, match="unknown system 'both'"):
        rhs(zero_state(Grid(64, 10.0)), BENCH, "both")


def test_rhs_linear_part_matches_propagator_derivative():
    # central difference of the exact flows approximates the generator to O(h^2),
    # a cross check that does not reuse the rhs's own linear symbols
    grid = Grid(128, 40.0)
    lin = dataclasses.replace(BENCH, c=0.0, d=0.0, beta=0.0)
    s = bump_state(grid)
    dr, dq = rhs(s, lin)
    h = 1e-4
    for field, kind, got in ((s.r, "V", dr), (s.q, "U", dq)):
        fwd = propagator(kind, lin, h, field).values
        bwd = propagator(kind, lin, -h, field).values
        quotient = (fwd - bwd) / (2.0 * h)
        scale = max(1.0, float(np.max(np.abs(got.values))))
        assert np.max(np.abs(quotient - got.values)) <= 1e-6 * scale


def test_rhs_single_mode_coupling():
    # bookkeeping oracle on r = R cos(m x), q = A exp(i k x) with modes small
    # enough that the two-thirds cut clips nothing
    grid = Grid(64, 2.0 * np.pi)
    R, A = 0.3, 0.2 + 0.1j
    m, k = 2.0, 3.0
    co = dataclasses.replace(BENCH, a=0.0, b=0.0, c=0.0, d=0.0)
    r = RealField(grid, R * np.cos(m * grid.x))
    q = ComplexField(grid, A * np.exp(1j * k * grid.x))
    dr, dq = rhs(SystemState(r, q), co)
    # |q|^2 is spatially constant, so the envelope forcing of r vanishes
    assert np.max(np.abs(dr.values)) <= 1e-14
    want = (1j * co.alpha * k * k * A * np.exp(1j * k * grid.x)
            + 0.5j * co.beta * R * A * (np.exp(1j * (k + m) * grid.x)
                                        + np.exp(1j * (k - m) * grid.x)))
    assert np.max(np.abs(dq.values - want)) <= 1e-13


def test_rhs_single_mode_nonlinear_oracle():
    # closed forms of the c, d, kt3 and kt4 terms on r = R cos(m x),
    # q = A exp(i k x); without dispersion only the products remain
    grid = Grid(64, 2.0 * np.pi)
    R, A = 0.3, 0.2 + 0.1j
    m, k = 2.0, 3.0
    x = grid.x
    co = dataclasses.replace(BENCH, a=0.0, b=0.0, alpha=0.0)
    s = SystemState(RealField(grid, R * np.cos(m * x)),
                    ComplexField(grid, A * np.exp(1j * k * x)))
    # c r r_x = -(c m / 2) R^2 sin 2mx; (r H r_x)_x and |D|(r r_x) each give
    # -m^2 R^2 sin 2mx; |q|^2 and the kt3 flux are constant, so drop out
    want_r = (2.0 * co.d * m * m - 0.5 * co.c * m) * R * R * np.sin(2.0 * m * x)
    e3, e4 = co.epsilon * co.kt3, co.epsilon * co.kt4
    want_q = 0.5 * R * A * sum(
        1j * (co.beta - e3 * (2.0 * k + sgn * m) - e4 * m) * np.exp(1j * (k + sgn * m) * x)
        for sgn in (1.0, -1.0))
    dr_red, _ = rhs(s, co)
    dr_full, dq_full = rhs(s, co, "full")
    assert np.max(np.abs(dr_red.values - want_r)) <= 1e-13
    assert np.max(np.abs(dr_full.values - want_r)) <= 1e-13
    assert np.max(np.abs(dq_full.values - want_q)) <= 1e-13


def lower_third_state(grid, rng):
    # every mode in the lower third of the spectrum: products of two fields
    # stay inside the two-thirds band, and quadratures of products of three
    # or four fields are exact
    keep = np.abs(grid.k) <= np.max(np.abs(grid.k)) / 3.0

    def band(values):
        return np.fft.ifft(np.where(keep, np.fft.fft(values), 0.0))

    r = band(rng.standard_normal(grid.n)).real
    q = band(rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    return SystemState(RealField(grid, (0.1 / np.max(np.abs(r))) * r),
                       ComplexField(grid, (0.05 / np.max(np.abs(q))) * q))


def energy_rate_defect(s, co, rhs_co, system):
    """|dE/dt| relative to the sum of the absolute values of its terms.

    dE/dt = int dE/dr r_t + 2 Re int conj(dE/dq*) q_t, with the gradients
    of E1 (reduced) or of E1 + eps kt4 int r|D|(|q|^2)
    + 2 eps kt3 int r Im(conj(q) q_x) (full) taken at co, and (r_t, q_t)
    from the right-hand side at rhs_co.
    """
    grid = s.grid
    rv, qv = s.r.values, s.q.values
    adr = absd(s.r).values
    qsq = (qv * np.conj(qv)).real
    g_r = (-co.b * adr + co.a * deriv(s.r, 2).values - 0.5 * co.c * rv * rv
           - co.beta * qsq + co.d * rv * adr
           + 0.5 * co.d * absd(RealField(grid, rv * rv)).values)
    g_q = co.alpha * deriv(s.q, 2).values - co.beta * rv * qv
    if system == "full":
        e3, e4 = co.epsilon * co.kt3, co.epsilon * co.kt4
        dqv = deriv(s.q).values
        g_r = (g_r + e4 * absd(RealField(grid, qsq)).values
               + 2.0 * e3 * np.imag(np.conj(qv) * dqv))
        g_q = g_q + e4 * adr * qv - 1j * e3 * (2.0 * rv * dqv + deriv(s.r).values * qv)
    dr, dq = rhs(s, rhs_co, system)
    terms = np.concatenate([g_r * dr.values, 2.0 * np.real(np.conj(g_q) * dq.values)])
    return abs(float(np.sum(terms))) / float(np.sum(np.abs(terms)))


@pytest.mark.parametrize("system", ["reduced", "full"])
def test_rhs_is_the_energy_vector_field(system):
    # r_t = -d/dx dE/dr and q_t = -i dE/dq*, so E does not move along the
    # right-hand side: this pins every product weight against the energy
    s = lower_third_state(Grid(256, 40.0), np.random.default_rng(11))
    defect = energy_rate_defect(s, BENCH, BENCH, system)
    print(f"{system} relative dE/dt: {defect:.3e}")
    assert defect <= 1e-12


@pytest.mark.parametrize("system, symbol", [
    *[(system, symbol) for system in ("reduced", "full")
      for symbol in ("a", "b", "c", "d", "alpha", "beta")],
    ("full", "kt3"), ("full", "kt4")])
def test_energy_vector_field_catches_a_mistuned_weight(system, symbol):
    # one coefficient off by 0.1% in the right-hand side alone breaks the identity
    s = lower_third_state(Grid(256, 40.0), np.random.default_rng(11))
    mistuned = dataclasses.replace(BENCH, **{symbol: 1.001 * getattr(BENCH, symbol)})
    assert energy_rate_defect(s, BENCH, mistuned, system) > 1e-10


def count_transforms(monkeypatch):
    """Count every call of the four numpy.fft transforms the solver may use."""
    calls = {"n": 0}
    for name in ("fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls["n"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_rhs_transform_budget(monkeypatch):
    # the nonlinear part makes one ifft of the packed factor rows and one
    # fft of the packed product rows, and the full system one rfft of
    # |q|^2; add the half-spectrum of the incoming r and one inverse
    # transform for each returned field
    grid = Grid(128, 40.0)
    s = bump_state(grid)
    _ = s.q.spectrum  # cache the input spectrum of q
    calls = count_transforms(monkeypatch)
    for system, budget in (("reduced", 5), ("full", 6)):
        calls["n"] = 0
        rhs(s, BENCH, system)
        assert calls["n"] <= budget, system


def test_rhs_full_reduces_when_kt_vanishes():
    grid = Grid(128, 40.0)
    s = bump_state(grid)
    co = dataclasses.replace(BENCH, kt3=0.0, kt4=0.0)
    dr_r, dq_r = rhs(s, BENCH)
    dr_f, dq_f = rhs(s, co, "full")
    assert np.max(np.abs(dr_f.values - dr_r.values)) <= 1e-12
    assert np.max(np.abs(dq_f.values - dq_r.values)) <= 1e-12


def test_rhs_full_matches_reduced_without_envelope():
    grid = Grid(128, 40.0)
    r = band_limited_noise(grid, RNG, amplitude=0.1, keep=1.0 / 3.0)
    s = SystemState(r, ComplexField(grid, np.zeros(grid.n, dtype=complex)))
    dr_r, _ = rhs(s, BENCH)
    dr_f, dq_f = rhs(s, BENCH, "full")
    assert np.array_equal(dr_f.values, dr_r.values)
    assert np.max(np.abs(dq_f.values)) == 0.0


def test_rhs_full_keeps_r_real():
    # the kt3 flux bracket is a real density; its contribution must stay
    # Hermitian in spectrum space
    grid = Grid(128, 40.0)
    s = bump_state(grid, r_sup=0.2, q_amp=0.15)
    dr, _ = rhs(s, BENCH, "full")
    spec = dr.spectrum
    mirrored = np.conj(spec[(-np.arange(grid.n)) % grid.n])
    scale = max(1.0, float(np.max(np.abs(spec))))
    assert np.max(np.abs(spec - mirrored)) <= 1e-12 * scale


def test_rhs_slow_time_rescaling():
    # tau1 = epsilon tau, so d/dtau1 = (1/epsilon) d/dtau: a step of
    # dt / epsilon in tau, the CLI's step of dt in tau1, moves r and q by
    # dt rhs(s, coeffs, "full") / epsilon to first order in dt
    grid = Grid(128, 40.0)
    s = bump_state(grid)
    dt = 1e-6
    moved = step(s, StepperConfig(dt=dt / BENCH.epsilon), BENCH, system="full")
    for before, after, slow in zip((s.r, s.q), (moved.r, moved.q), rhs(s, BENCH, "full"),
                                   strict=True):
        want = slow.values / BENCH.epsilon
        got = (after.values - before.values) / dt
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


def _stacked_rows_nonlinear(grid, co, full, scale, r_hat, q_spec):
    # oracle for `_Rhs.nonlinear`: one transformed row per product, each
    # under its own weight, with nothing summed in physical space
    n = grid.n
    half = slice(0, n // 2 + 1)
    ik = _mult_deriv(grid, 1)
    absk = np.abs(grid.k)
    mask = solver.dealias_mask(grid).astype(float)
    w = scale * mask
    w_r = [(0.5 * w) * ik * (co.c - co.d * absk), (-co.d * w) * ik]
    r, adr = np.fft.irfft(np.stack([mask[half], (mask * absk)[half]]) * r_hat, n)
    if full:
        e3, e4 = co.epsilon * co.kt3, co.epsilon * co.kt4
        w_r += [w * (co.beta * ik - e4 * (ik * absk)), (-e3 * w) * ik]
        w_q = np.stack([w * (1j * co.beta - e3 * ik), -e3 * w, (-1j * e4) * w])
        q, dq = np.fft.ifft(np.stack([mask, mask * ik]) * q_spec)
        real = (r * r, r * adr, (q * np.conj(q)).real, 2.0 * np.imag(np.conj(q) * dq))
        nq = (w_q * np.fft.fft(np.array((r * q, r * dq, q * adr)))).sum(0)
    else:
        w_r.append(w * co.beta * ik)
        q = np.fft.ifft(mask * q_spec)
        real = (r * r, r * adr, (q * np.conj(q)).real)
        nq = (w * 1j * co.beta) * np.fft.fft(r * q)
    w_r = np.stack([row[half] for row in w_r])
    return (w_r * np.fft.rfft(np.array(real))).sum(0), nq


@pytest.mark.parametrize("kind", ["bump", "noise"])
@pytest.mark.parametrize("system, time_scale",
                         [("reduced", "tau"), ("full", "tau"), ("full", "tau1")])
@pytest.mark.parametrize("n", [128, 512])
def test_folded_rows_match_one_row_per_product(n, system, time_scale, kind):
    # summing the products that share a multiplier, and the product rule
    # ik cut(r q) = cut(r_x q + r q_x), change the kernel at roundoff only
    grid = Grid(n, 40.0)
    if kind == "bump":
        s = bump_state(grid, r_sup=0.2, q_amp=0.15)
    else:
        s = lower_third_state(grid, np.random.default_rng(n))
    rhs = solver._Rhs(grid, BENCH, system)
    # in tau1 = epsilon tau the derivative is the one in tau over epsilon:
    # the oracle's weights carry 1/epsilon
    scale = 1.0 / BENCH.epsilon if time_scale == "tau1" else 1.0
    r_hat = np.fft.rfft(s.r.values)
    got = scale * rhs.nonlinear(np.concatenate((r_hat, s.q.spectrum)))
    want = _stacked_rows_nonlinear(grid, BENCH, system == "full", scale, r_hat,
                                   s.q.spectrum)
    for g, w in zip(np.split(got, [n // 2 + 1]), want, strict=True):
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


@pytest.mark.parametrize("system, budget", [("reduced", 2633), ("full", 3917)])
@pytest.mark.parametrize("scheme", ["strang-split", "etdrk4"])
def test_guarded_step_transform_volume(monkeypatch, scheme, system, budget):
    # samples passed to numpy.fft by one guarded step at n = 128: four
    # evaluations of the packed factor rows (r + i d|D|r and q, on the full
    # system also s and q_x), the two packed product rows and, on the full
    # system, |q|^2: 2048 and 3584; the guard, whose bound holds here,
    # passes none.  One row per product passed 3145 and 5193
    grid = Grid(128, 40.0)
    s = bump_state(grid)
    cfg = StepperConfig(dt=1e-3, scheme=scheme)
    solver._build_stepper(grid, cfg.dt, cfg.scheme, BENCH, system)
    # the stepper's vector joined up front, so the step makes no start-up transform
    s = solver._state_of(grid, solver._spectra(s), s.t, s.r.values, s.q.values)
    passed = {"samples": 0}
    for name in ("fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def sized(a, *args, _original=original, **kwargs):
            passed["samples"] += np.asarray(a).size
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, sized)
    next(solver._steps(s, cfg, BENCH, system))
    assert passed["samples"] <= budget


# ---------------------------------------------------------------- stepping

def test_stepper_config_validation():
    for dt in (0.0, np.inf):
        with pytest.raises(ValueError, match="dt"):
            StepperConfig(dt=dt)
    # no guard at all is a valid choice
    assert StepperConfig(dt=1e-3, cfl_guard=np.inf).cfl_guard == np.inf
    with pytest.raises(ValueError, match="scheme"):
        StepperConfig(dt=1e-3, scheme="leapfrog")
    with pytest.raises(ValueError, match="cfl_guard"):
        StepperConfig(dt=1e-3, cfl_guard=-1.0)


def test_state_grids_must_match():
    r = RealField(Grid(64, 20.0), np.zeros(64))
    q = ComplexField(Grid(128, 20.0), np.zeros(128, dtype=complex))
    with pytest.raises(ValueError, match="one grid"):
        SystemState(r, q)


def test_step_advances_time():
    grid = Grid(64, 20.0)
    out = step(bump_state(grid, r_sup=0.05), StepperConfig(dt=1e-2), BENCH)
    assert out.t == pytest.approx(1e-2)
    assert out.grid == grid


def test_step_blow_up_guard():
    grid = Grid(64, 20.0)
    s = bump_state(grid, r_sup=0.5)
    with pytest.raises(BlowUp) as info:
        step(s, StepperConfig(dt=1e-3, cfl_guard=0.25), BENCH)
    err = info.value
    assert err.time == pytest.approx(1e-3)
    assert err.sup > 0.25
    assert err.state is s


def test_step_loop_frees_its_input_state():
    # a long run holds no copy of its first state, nor its cached spectra
    grid = Grid(64, 20.0)
    s = bump_state(grid, r_sup=0.05)
    held = weakref.ref(s)
    steps = solver._steps(s, StepperConfig(dt=1e-2), BENCH, "reduced")
    next(steps)
    next(steps)
    del s
    gc.collect()
    assert held() is None


def test_blow_up_after_the_first_step_carries_the_step_before():
    grid = Grid(64, 20.0)
    s0 = bump_state(grid, r_sup=3.0)
    # at this step size the sup norm of r creeps up, step by step
    free = run(s0, StepperConfig(dt=0.3), BENCH, t_end=6.0, snapshot_every=1,
               gauge_diagnostics=False)
    sups = [float(np.max(np.abs(st.r.values))) for st in free.snapshots]
    guard = 0.5 * (max(sups[:5]) + max(sups))
    failing = next(i for i, sup in enumerate(sups) if sup > guard)
    assert failing > 5
    with pytest.raises(BlowUp) as info:
        run(s0, StepperConfig(dt=0.3, cfl_guard=guard), BENCH, t_end=6.0,
            gauge_diagnostics=False)
    err = info.value
    before = free.snapshots[failing - 1]
    assert err.time == free.snapshots[failing].t
    assert err.state.t == before.t
    assert np.array_equal(err.state.r.values, before.r.values)
    assert np.array_equal(err.state.q.spectrum, before.q.spectrum)


def test_zero_state_is_a_fixed_point():
    grid = Grid(64, 20.0)
    cfg = StepperConfig(dt=1e-2)
    s = zero_state(grid)
    for _ in range(1000):
        s = step(s, cfg, BENCH)
    assert np.max(np.abs(s.r.values)) == 0.0
    assert np.max(np.abs(s.q.values)) == 0.0
    assert s.t == pytest.approx(10.0)


@pytest.mark.parametrize("scheme", ["strang-split", "etdrk4"])
def test_linear_flow_is_stepped_exactly(scheme):
    # with c = d = beta = 0 both schemes collapse onto the exact phase flows
    grid = Grid(128, 40.0)
    lin = dataclasses.replace(BENCH, c=0.0, d=0.0, beta=0.0)
    s0 = bump_state(grid)
    cfg = StepperConfig(dt=1e-3, scheme=scheme)
    traj = run(s0, cfg, lin, t_end=1.0, diagnostics_every=10 ** 6,
               gauge_diagnostics=False)
    end = traj.snapshots[-1]
    want_r = propagator("V", lin, 1.0, s0.r).values
    want_q = propagator("U", lin, 1.0, s0.q).values
    l2_r = float(np.sqrt(grid.dx * np.sum((end.r.values - want_r) ** 2)))
    l2_q = float(np.sqrt(grid.dx * np.sum(np.abs(end.q.values - want_q) ** 2)))
    print(f"{scheme} linear-flow L2 defects: r {l2_r:.3e}, q {l2_q:.3e}")
    assert l2_r <= 1e-9
    assert l2_q <= 1e-9


# ---------------------------------------------------------------- conserved quantities

def test_conserved_zero_state():
    tri = conserved(zero_state(Grid(64, 20.0)), BENCH)
    assert (tri.e1, tri.e2, tri.e3) == (0.0, 0.0, 0.0)


def test_conserved_closed_forms_on_single_modes():
    grid = Grid(256, 16.0)
    L = grid.length
    R, A = 0.3, 0.25
    k_r = 2.0 * np.pi * 5 / L
    k_q = 2.0 * np.pi * 7 / L
    r = RealField(grid, R * np.cos(k_r * grid.x))
    q = ComplexField(grid, A * np.exp(1j * k_q * grid.x))
    tri = conserved(SystemState(r, q), BENCH)
    # odd powers of the cosine integrate to zero, so only the quadratic terms
    # and the envelope kinetic term survive in e1
    want_e1 = (-(BENCH.b / 2.0) * k_r * R * R * L / 2.0
               - (BENCH.a / 2.0) * k_r * k_r * R * R * L / 2.0
               - BENCH.alpha * k_q * k_q * A * A * L)
    assert tri.e1 == pytest.approx(want_e1, rel=1e-12)
    assert tri.e2 == pytest.approx(A * A * L, rel=1e-12)
    assert tri.e3 == pytest.approx(R * R * L / 4.0 + k_q * A * A * L, rel=1e-12)


def sample_space_conserved(s, co):
    # the quadrature over samples that `conserved` replaced, kept as its oracle
    dx = s.grid.dx
    rv = s.r.values
    qv = s.q.values
    adr = absd(s.r).values
    drv = deriv(s.r).values
    dqv = deriv(s.q).values
    qsq = (qv * np.conj(qv)).real
    e1 = dx * float(np.sum(
        -0.5 * co.b * rv * adr
        - 0.5 * co.a * drv * drv
        - co.alpha * (dqv * np.conj(dqv)).real
        - (co.c / 6.0) * rv * rv * rv
        - co.beta * rv * qsq
        + 0.5 * co.d * rv * rv * adr))
    e2 = dx * float(np.sum(qsq))
    e3 = dx * (0.5 * float(np.sum(rv * rv))
               + float(np.sum(np.imag(np.conj(qv) * dqv))))
    return e1, e2, e3


@pytest.mark.parametrize("system", ["reduced", "full"])
@pytest.mark.parametrize("kind", ["bump", "noise"])
@pytest.mark.parametrize("n", [128, 2048])
def test_spectral_conserved_matches_sample_quadrature(n, kind, system):
    # Parseval sums for the quadratic terms, samples for the cubic ones: the
    # same triple to roundoff, on a freshly sampled state (spectra computed
    # on demand) and on the states run records (spectra from the stepper)
    grid = Grid(n, 40.0)
    s0 = bump_state(grid) if kind == "bump" else lower_third_state(grid, np.random.default_rng(n))
    traj = run(s0, StepperConfig(dt=1e-3, scheme="etdrk4"), BENCH, t_end=5e-3,
               diagnostics_every=5, snapshot_every=5, system=system,
               gauge_diagnostics=False)
    fresh = SystemState(RealField(grid, s0.r.values), ComplexField(grid, s0.q.values))
    for s in (fresh, *traj.snapshots):
        tri = conserved(s, BENCH)
        for got, want in zip((tri.e1, tri.e2, tri.e3), sample_space_conserved(s, BENCH)):
            assert abs(got - want) <= 1e-13 * abs(want)


def test_conserved_on_a_stepped_state_costs_at_most_two_transforms(monkeypatch):
    # once its samples are read: their inverse transforms are the first
    # read's (see test_step_and_conserved_transform_no_more_than_eager_samples)
    s = step(bump_state(Grid(128, 40.0)), StepperConfig(dt=1e-3, scheme="etdrk4"),
             BENCH, system="full")
    _ = s.r.values, s.q.values
    calls = count_transforms(monkeypatch)
    conserved(s, BENCH)
    assert calls["n"] <= 2


def test_step_and_conserved_transform_no_more_than_eager_samples(monkeypatch):
    # 12 calls for the full step, then conserved's irfft of r, ifft of q and
    # irfft of |D| r: the 15 a step() made when it built both samples
    cfg = StepperConfig(dt=1e-3, scheme="etdrk4")
    s = step(bump_state(Grid(128, 40.0)), cfg, BENCH, system="full")
    calls = count_transforms(monkeypatch)
    conserved(step(s, cfg, BENCH, system="full"), BENCH)
    assert calls["n"] <= 15


def test_gauge_residual_from_cached_spectra_matches_fresh_samples():
    # the run's residual reads r's cached (mirrored) spectrum and removes
    # the mean without a transform; it must agree with the gauge layer fed
    # freshly sampled mean-free fields.  The noise is offset to a nonzero mean.
    grid = Grid(512, 40.0)
    rng = np.random.default_rng(3)
    fields = [bump_state(grid).r,
              RealField(grid, band_limited_noise(grid, rng, amplitude=0.2, keep=0.5).values
                        + 0.03),
              bo_soliton(grid, nu=1.0, center=2.0)]
    for r in fields:
        want = gauge_ode_residual(
            gauge(RealField(grid, r.values - np.mean(r.values)), BENCH), BENCH)
        got = solver._gauge_residual(RealField(grid, r.values), BENCH)
        assert abs(got - want) <= 1e-12
        s = SystemState(r, gaussian_envelope(grid, 0.05, 3.0, carrier_mode=3))
        end = run(s, StepperConfig(dt=1e-3), BENCH, t_end=2e-3,
                  diagnostics_every=2).snapshots[-1]
        want = gauge_ode_residual(
            gauge(RealField(grid, end.r.values - np.mean(end.r.values)), BENCH), BENCH)
        assert abs(solver._gauge_residual(end.r, BENCH) - want) <= 1e-12
    assert np.isnan(solver._gauge_residual(fields[0], dataclasses.replace(BENCH, a=0.0)))


@pytest.mark.parametrize("system", ["reduced", "full"])
@pytest.mark.parametrize("n", [128, 512, 8192])
def test_rows_on_real_transforms_match_the_sample_oracles(n, system):
    # a row takes |D| r and the gauge's antiderivative from one irfft of r's
    # half spectrum each.  On a caller's state whose r has a mean of 0.03,
    # and in the rows of the states run hands out, the triple matches the
    # sample quadrature, and the residual the gauge layer fed fresh samples
    grid = Grid(n, 40.0)
    base = bump_state(grid)
    s0 = SystemState(RealField(grid, base.r.values + 0.03), base.q)
    traj = run(s0, StepperConfig(dt=1e-3, scheme="etdrk4"), BENCH, t_end=4e-3,
               diagnostics_every=2, snapshot_every=2, system=system)
    assert len(traj.diagnostics) == len(traj.snapshots) == 3
    tri = conserved(s0, BENCH)
    rows = [(s0, (tri.e1, tri.e2, tri.e3), solver._gauge_residual(s0.r, BENCH))]
    rows += [(s, (row.e1, row.e2, row.e3), row.gauge_residual)
             for s, row in zip(traj.snapshots, traj.diagnostics)]
    for s, triple, residual in rows:
        for got, want in zip(triple, sample_space_conserved(s, BENCH)):
            assert abs(got - want) <= 1e-13 * abs(want)
        fresh = _mean_free(RealField(grid, s.r.values))
        assert abs(residual - gauge_ode_residual(gauge(fresh, BENCH), BENCH)) <= 1e-12


def test_run_conservation_properties():
    grid = Grid(256, 40.0)
    s0 = bump_state(grid, r_sup=0.1)
    traj = run(s0, StepperConfig(dt=1e-3), BENCH, t_end=1.0, diagnostics_every=250)
    first, last = traj.diagnostics[0], traj.diagnostics[-1]
    print(f"drifts over t=1: e1 {abs(last.e1 - first.e1):.3e}, "
          f"e2 {abs(last.e2 - first.e2):.3e}, e3 {abs(last.e3 - first.e3):.3e}")
    assert abs(last.e2 - first.e2) <= 1e-10
    assert abs(last.e3 - first.e3) <= 1e-10
    assert abs(last.e1 - first.e1) <= 1e-8
    assert abs(last.mean_r - first.mean_r) <= 1e-13
    # r is carried as a real half-spectrum, so every snapshot is real by construction
    assert all(snap.r.values.dtype == np.float64 and snap.r.values.shape == (grid.n,)
               for snap in traj.snapshots)
    assert all(row.gauge_residual < 1e-6 for row in traj.diagnostics)


def test_envelope_decouples_without_back_reaction():
    # beta = 0 leaves q under the free flow (mode magnitudes preserved) and
    # removes the envelope forcing from r entirely
    grid = Grid(128, 40.0)
    co = dataclasses.replace(BENCH, beta=0.0)
    cfg = StepperConfig(dt=2e-3)
    s0 = bump_state(grid, r_sup=0.1, q_amp=0.2)
    traj = run(s0, cfg, co, t_end=1.0, diagnostics_every=500,
               gauge_diagnostics=False)
    end = traj.snapshots[-1]
    mag0 = np.abs(s0.q.spectrum)
    mag1 = np.abs(end.q.spectrum)
    assert np.max(np.abs(mag1 - mag0)) <= 1e-10 * max(1.0, float(np.max(mag0)))
    bare = SystemState(s0.r, ComplexField(grid, np.zeros(grid.n, dtype=complex)))
    ref = run(bare, cfg, co, t_end=1.0, diagnostics_every=500,
              gauge_diagnostics=False)
    assert np.max(np.abs(end.r.values - ref.snapshots[-1].r.values)) <= 1e-12


# ---------------------------------------------------------------- run bookkeeping

def test_run_cadence_and_snapshots():
    grid = Grid(64, 20.0)
    s0 = bump_state(grid, r_sup=0.05)
    traj = run(s0, StepperConfig(dt=1e-2), BENCH, t_end=1.0,
               diagnostics_every=10, snapshot_every=50, gauge_diagnostics=False)
    assert len(traj.diagnostics) == 11
    assert len(traj.snapshots) == 3
    assert traj.diagnostics[1].t == pytest.approx(0.1)
    assert traj.snapshots[1].t == pytest.approx(0.5)
    assert traj.snapshots[-1].t == pytest.approx(1.0)
    assert all(np.isnan(row.gauge_residual) for row in traj.diagnostics)


def test_run_hands_each_snapshot_over_before_the_next_step(monkeypatch):
    # run's one loop fills the Trajectory and the CLI's snapshot stream alike
    grid = Grid(64, 20.0)
    steps = []
    real_advance = solver._StrangStepper.advance

    def counted(self, *args):
        steps.append(None)
        return real_advance(self, *args)

    monkeypatch.setattr(solver._StrangStepper, "advance", counted)
    args = (bump_state(grid, r_sup=0.05), StepperConfig(dt=1e-2), BENCH)
    kwargs = dict(t_end=1.0, diagnostics_every=10, snapshot_every=30,
                  gauge_diagnostics=False)
    seen = []
    streamed = run(*args, **kwargs, on_snapshot=lambda st: seen.append((st, len(steps))))
    assert [taken for _, taken in seen] == [0, 30, 60, 90, 100]
    # a run with a sink keeps no snapshot, only the rows
    assert streamed.snapshots == ()
    traj = run(*args, **kwargs)
    rows = [np.array([dataclasses.astuple(row) for row in t.diagnostics])
            for t in (streamed, traj)]
    assert np.array_equal(*rows, equal_nan=True)
    # the states handed over are those of the trajectory, in order
    for (got, _), want in zip(seen, traj.snapshots, strict=True):
        assert got.t == want.t
        assert np.array_equal(got.r.values, want.r.values)
        assert np.array_equal(got.q.values, want.q.values)

    class Refused(Exception):
        pass

    def refuse(st):
        if st.t > 0.0:
            raise Refused

    steps.clear()
    with pytest.raises(Refused):
        run(*args, t_end=1.0, snapshot_every=30, gauge_diagnostics=False,
            on_snapshot=refuse)
    assert len(steps) == 30


def test_run_validates_cadence_arguments():
    grid = Grid(64, 20.0)
    s = zero_state(grid)
    with pytest.raises(ValueError, match="multiple"):
        run(s, StepperConfig(dt=0.3), BENCH, t_end=1.0)
    # a step count that overflows a float is bad input too
    with pytest.raises(ValueError, match="finite step count"):
        run(s, StepperConfig(dt=1e-300), BENCH, t_end=1e300)
    with pytest.raises(ValueError, match="t_end - t0 = 0 holds no step of dt = 0.1"):
        run(s, StepperConfig(dt=0.1), BENCH, t_end=0.0)
    with pytest.raises(ValueError, match="t_end - t0 = -1 holds no step"):
        run(s, StepperConfig(dt=0.1), BENCH, t_end=-1.0)
    with pytest.raises(ValueError, match="diagnostics_every"):
        run(s, StepperConfig(dt=0.1), BENCH, t_end=1.0, diagnostics_every=0)
    with pytest.raises(ValueError, match="snapshot_every"):
        run(s, StepperConfig(dt=0.1), BENCH, t_end=1.0, snapshot_every=-1)


def test_step_count_refuses_more_than_2_to_the_53_steps():
    # past 2**53 steps the step index times dt is not exact
    assert solver.step_count(2.0 ** 53, 1.0) == 2 ** 53
    with pytest.raises(ValueError, match=r"is more than 2\*\*53"):
        solver.step_count(2.0 ** 54, 1.0)
    with pytest.raises(ValueError, match=r"= 1e\+299 steps is more than 2\*\*53"):
        run(zero_state(Grid(64, 20.0)), StepperConfig(dt=1e-300), BENCH, t_end=0.1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("length, scheme, message", [
    (1e-300, "strang-split", "the spectral symbols of n = 64 modes"),
    (1e-300, "etdrk4", "the spectral symbols of n = 64 modes"),
    (1e-60, "etdrk4", "the ETD tables of dt = 0.001 are not finite"),
    # dt L overflows in Strang's half-step flow, on any window
    (None, "strang-split", "the half-step flow of dt = 1.79769e[+]308 is not finite"),
])
def test_stepper_with_non_finite_symbols_or_tables_is_refused(length, scheme, message):
    dt = 1e-3 if length else np.finfo(float).max
    s = zero_state(Grid(64, length or 40.0))
    cfg = StepperConfig(dt=dt, scheme=scheme)
    seen = []
    with pytest.raises(ValueError, match=message):
        run(s, cfg, BENCH, t_end=dt if length is None else 0.01, on_snapshot=seen.append)
    assert seen == []  # refused before the first snapshot
    with pytest.raises(ValueError, match=message):
        step(s, cfg, BENCH)
    if length == 1e-300:  # rhs builds the symbols, and no tables
        with pytest.raises(ValueError, match=message):
            rhs(s, BENCH)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("length, r_sup", [(1e-60, 0.1), (40.0, 1e200)])
def test_overflow_in_a_step_or_row_reaches_only_the_guard(length, r_sup):
    # the step's products (a short window) or the row's r^3 (a large r)
    # overflow; neither warns, and the error state the caller and its
    # snapshot sink see is their own
    s = bump_state(Grid(64, length), r_sup=r_sup, r_width=length / 20,
                   q_width=0.075 * length)
    before = np.geterr()
    seen = []

    def sink(st):
        seen.append(np.geterr())

    with pytest.raises(BlowUp) as info:
        run(s, StepperConfig(dt=1e-3), BENCH, t_end=0.01, on_snapshot=sink)
    assert info.value.time == 1e-3 and not np.isfinite(info.value.sup)
    assert seen == [before] and np.geterr() == before
    with pytest.raises(BlowUp):
        step(s, StepperConfig(dt=1e-3), BENCH)
    assert np.geterr() == before
    # a sink called between steps sees the caller's own state too
    seen.clear()
    with np.errstate(divide="ignore"):
        mine = np.geterr()
        run(bump_state(Grid(64, 40.0)), StepperConfig(dt=1e-3), BENCH, t_end=3e-3,
            snapshot_every=1, on_snapshot=sink)
    assert seen == 4 * [mine]


def test_diagnostics_columns_name_the_row_fields_in_order():
    names = [f.name for f in dataclasses.fields(solver.DiagnosticsRow)]
    assert [c.lower() for c in solver.DiagnosticsRow.COLUMNS] == names
    # each system's invariants are columns; the full system does not conserve E1
    assert solver.CONSERVED == {"reduced": ("E1", "E2", "E3"), "full": ("E2", "E3")}
    assert solver.SYSTEMS == ("reduced", "full")


@pytest.mark.parametrize("kwargs", [{}, {"snapshot_every": 0}], ids=["default", "zero"])
def test_run_snapshot_every_zero_takes_the_ends_only(kwargs):
    # 0 means the ends only, as run.snapshot_every = 0 does in the CLI
    grid = Grid(64, 20.0)
    s0 = bump_state(grid)
    cfg = StepperConfig(dt=0.1)
    every = run(s0, cfg, BENCH, t_end=1.0, snapshot_every=1, gauge_diagnostics=False)
    traj = run(s0, cfg, BENCH, t_end=1.0, diagnostics_every=3, gauge_diagnostics=False,
               **kwargs)
    assert len(traj.snapshots) == 2
    for got, want in zip(traj.snapshots, every.snapshots[::10], strict=True):
        assert got.t == want.t
        assert np.array_equal(got.r.values, want.r.values)
        assert np.array_equal(got.q.values, want.q.values)
    handed = []
    run(s0, cfg, BENCH, t_end=1.0, gauge_diagnostics=False, on_snapshot=handed.append,
        **kwargs)
    assert [st.t for st in handed] == [st.t for st in traj.snapshots]


def test_run_blow_up_reports_last_finite_state():
    grid = Grid(64, 20.0)
    s0 = bump_state(grid, r_sup=0.3)
    cfg = StepperConfig(dt=1e-2, cfl_guard=0.29)
    with pytest.raises(BlowUp) as info:
        run(s0, cfg, BENCH, t_end=1.0, gauge_diagnostics=False)
    err = info.value
    assert err.time == pytest.approx(1e-2)
    assert err.sup > 0.29
    assert err.state is not None
    assert err.state.t == 0.0
    assert np.max(np.abs(err.state.r.values - s0.r.values)) <= 1e-14


def test_every_state_handed_out_mirrors_the_stepper_half_spectrum():
    # one constructor builds run's first and later snapshots, step's result
    # and the BlowUp states: r's cached spectrum is the stepper's rfft
    # half-spectrum mirrored, with no transform
    grid = Grid(64, 20.0)
    h = grid.n // 2 + 1
    s0 = bump_state(grid, r_sup=3.0)
    cfg = StepperConfig(dt=0.3)
    free = run(s0, cfg, BENCH, t_end=6.0, snapshot_every=1, gauge_diagnostics=False)
    first = free.snapshots[0]
    # so snapshot_0000.tsv holds the caller's samples to the last bit
    assert np.array_equal(first.r.values, s0.r.values)
    assert np.array_equal(first.q.values, s0.q.values)
    sups = [float(np.max(np.abs(st.r.values))) for st in free.snapshots]
    blown = []
    # the first step trips (its state is run's first snapshot), then a later one
    for guard in (0.5 * sups[0], 0.5 * (max(sups[:5]) + max(sups))):
        with pytest.raises(BlowUp) as info:
            run(s0, dataclasses.replace(cfg, cfl_guard=guard), BENCH, t_end=6.0,
                gauge_diagnostics=False)
        blown.append(info.value.state)
    assert blown[0].t == 0.0 < blown[1].t
    for st in (*free.snapshots, step(s0, cfg, BENCH), *blown):
        assert np.array_equal(st.r.spectrum[:h], st._y[:h])
        want = np.fft.fft(st.r.values)
        assert np.max(np.abs(st.r.spectrum - want)) <= 1e-13 * np.max(np.abs(want))


def test_stepped_states_are_read_only_and_the_callers_arrays_are_not():
    # a step from a stepped state reads its vector alone, so an in-place
    # edit of its samples or spectra, which that step would ignore, raises
    grid = Grid(64, 20.0)
    s0 = bump_state(grid)
    cfg = StepperConfig(dt=1e-2)
    traj = run(s0, cfg, BENCH, t_end=0.1, snapshot_every=5, gauge_diagnostics=False)
    stepped = step(s0, cfg, BENCH)
    for st in (stepped, *traj.snapshots):
        for a in (st.r.values, st.q.values, st.r.spectrum, st.q.spectrum):
            with pytest.raises(ValueError, match="read-only"):
                a *= 2.0
    # the first snapshot holds copies, so the caller's arrays stay writeable
    first = traj.snapshots[0]
    assert first.r.values is not s0.r.values and first.q.values is not s0.q.values
    assert s0.r.values.flags.writeable and s0.q.values.flags.writeable
    # a state the caller builds from stepped fields is checked again
    bad = SystemState(RealField(grid, np.where(grid.x == 0.0, np.nan, stepped.r.values)),
                      stepped.q)
    with pytest.raises(ValueError, match="finite"):
        step(bad, cfg, BENCH)
    with pytest.raises(ValueError, match="finite"):
        run(bad, cfg, BENCH, t_end=0.1)


def test_editing_the_first_snapshot_raises_instead_of_desyncing_its_vector():
    # conserved() reads the samples and step() reads the vector; an edit of
    # the first snapshot's q would split the two, so it raises, and the
    # caller's arrays are neither frozen nor changed
    grid = Grid(64, 20.0)
    s0 = bump_state(grid)
    r0, q0 = s0.r.values.copy(), s0.q.values.copy()
    traj = run(s0, StepperConfig(dt=1e-2), BENCH, t_end=0.1, gauge_diagnostics=False)
    first = traj.snapshots[0]
    with pytest.raises(ValueError, match="read-only"):
        first.q.values[:] *= 2
    assert conserved(first, BENCH).e2 == conserved(s0, BENCH).e2
    s0.q.values[:] *= 2
    assert np.array_equal(first.q.values, q0) and np.array_equal(s0.r.values, r0)


@pytest.mark.parametrize("system, time_scale",
                         [("reduced", "tau"), ("full", "tau"), ("full", "tau1")])
@pytest.mark.parametrize("scheme", ["strang-split", "etdrk4"])
def test_step_loop_and_run_are_one_integrator(scheme, system, time_scale):
    # tau1 = epsilon tau: the CLI's steps of dt in tau1 are steps of
    # dt / epsilon in tau, to n of them
    grid = Grid(128, 40.0)
    s0 = bump_state(grid)
    dt = 1e-3 / BENCH.epsilon if time_scale == "tau1" else 1e-3
    cfg = StepperConfig(dt=dt, scheme=scheme)
    s = s0
    for _ in range(200):
        s = step(s, cfg, BENCH, system=system)
    end = run(s0, cfg, BENCH, t_end=200 * dt, diagnostics_every=200, system=system,
              gauge_diagnostics=False).snapshots[-1]
    assert s.t == pytest.approx(end.t)
    for got, want in ((s.r.values, end.r.values), (s.q.values, end.q.values)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("system", ["reduced", "full"])
@pytest.mark.parametrize("scheme", ["strang-split", "etdrk4"])
def test_step_loop_gives_the_fields_of_run_bit_for_bit(scheme, system):
    # a state from step() carries the stepper's half-spectrum of r, so the
    # loop takes no transform of r that run() does not (the times may differ)
    grid = Grid(128, 40.0)
    s0 = bump_state(grid)
    cfg = StepperConfig(dt=1e-3, scheme=scheme)
    s = s0
    for _ in range(20):
        s = step(s, cfg, BENCH, system=system)
    end = run(s0, cfg, BENCH, t_end=2e-2, diagnostics_every=20, system=system,
              gauge_diagnostics=False).snapshots[-1]
    assert np.array_equal(s.r.values, end.r.values)
    assert np.array_equal(s.q.values, end.q.values)


# transform calls of one guarded step whose bound (2/n) sum|r_hat| stays
# under the guard: three (Strang) or four (etdrk4) nonlinear evaluations of
# 2 (reduced) or 3 (full) calls, and no inverse transform of r
GUARDED_STEP_CALLS = {"strang-split": {"reduced": 6, "full": 9},
                      "etdrk4": {"reduced": 8, "full": 12}}


@pytest.mark.parametrize("system", ["reduced", "full"])
@pytest.mark.parametrize("scheme", ["strang-split", "etdrk4"])
def test_later_step_transforms_what_run_does_and_the_q_samples(monkeypatch, scheme,
                                                               system):
    grid = Grid(128, 40.0)
    cfg = StepperConfig(dt=1e-3, scheme=scheme)
    s = step(bump_state(grid), cfg, BENCH, system=system)
    calls = count_transforms(monkeypatch)
    s = step(s, cfg, BENCH, system=system)
    assert calls["n"] == GUARDED_STEP_CALLS[scheme][system]
    # the returned state's q samples take one inverse transform, on first read
    _ = s.q.values
    assert calls["n"] == GUARDED_STEP_CALLS[scheme][system] + 1


@pytest.mark.parametrize("system", ["reduced", "full"])
def test_a_stepped_state_builds_its_samples_on_first_read(monkeypatch, system):
    # the first read of each gives what the eager samples were bit for bit:
    # r's irfft of y's half spectrum, that half mirrored, and q's ifft;
    # all three are read-only, and a second read transforms nothing
    n, h = 128, 65
    s = step(bump_state(Grid(n, 40.0)), StepperConfig(dt=1e-3, scheme="etdrk4"),
             BENCH, system=system)
    y = s._y
    want = {"r.values": np.fft.irfft(y[:h], n),
            "r.spectrum": np.concatenate((y[:h], np.conj(y[h - 2:0:-1]))),
            "q.values": np.fft.ifft(y[h:])}
    calls = count_transforms(monkeypatch)
    got = {"r.values": s.r.values, "r.spectrum": s.r.spectrum, "q.values": s.q.values}
    assert calls["n"] == 2  # the mirror takes none
    for name, arr in got.items():
        assert np.array_equal(arr, want[name]), name
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    again = {"r.values": s.r.values, "r.spectrum": s.r.spectrum, "q.values": s.q.values,
             "q.spectrum": s.q.spectrum}
    assert calls["n"] == 2
    assert all(again[name] is got[name] for name in got)
    assert np.shares_memory(again["q.spectrum"], y)


def test_a_blow_up_state_carrying_the_guards_r_makes_no_transform_for_r(monkeypatch):
    # a stepper that doubles y: on the first step the bound (2/n) sum|r_hat|
    # exceeds the guard but sup|r| stays under it, so the guard takes r's
    # samples; the second step trips, and its BlowUp state carries them
    grid = Grid(64, 20.0)
    kx = 2.0 * np.pi * grid.x / grid.length
    s = SystemState(RealField(grid, 0.1 * (np.sin(kx) + np.sin(2.0 * kx))),
                    gaussian_envelope(grid, 0.02, 3.0, carrier_mode=2))
    sup0 = float(np.max(np.abs(s.r.values)))
    cfg = StepperConfig(dt=1e-3, cfl_guard=2.1 * sup0)
    doubling = types.SimpleNamespace(advance=lambda y: 2.0 * y)
    steps = solver._stepping(doubling, cfg, s, solver._spectra(s))
    _, _, guard_r = next(steps)
    assert guard_r is not None
    calls = count_transforms(monkeypatch)
    with pytest.raises(BlowUp) as info:
        next(steps)
    assert calls["n"] == 1  # the guard's irfft of the failing step's r
    last = info.value.state
    assert last.r.values is guard_r
    assert calls["n"] == 1


def guard_bound(r_hat, n):
    # the guard's transform-free bound on sup|r|
    return (2.0 / n) * float(np.sum(np.abs(r_hat)))


def test_bound_over_the_guard_with_the_sup_under_it_does_not_trip():
    # two modes whose peaks never line up: sup|r| stays under the guard
    # while the bound (2/n) sum|r_hat| exceeds it on every step
    grid = Grid(128, 40.0)
    kx = 2.0 * np.pi * grid.x / grid.length
    s0 = SystemState(RealField(grid, 0.1 * (np.sin(kx) + np.sin(2.0 * kx))),
                     gaussian_envelope(grid, 0.02, 3.0, carrier_mode=2))
    cfg = StepperConfig(dt=1e-2, cfl_guard=1e3)
    free = run(s0, cfg, BENCH, t_end=0.5, snapshot_every=1, gauge_diagnostics=False)
    later = free.snapshots[1:]
    sup = max(float(np.max(np.abs(st.r.values))) for st in later)
    bound = min(guard_bound(st._y[:grid.n // 2 + 1], grid.n) for st in later)
    assert sup < bound
    guarded = run(s0, dataclasses.replace(cfg, cfl_guard=0.5 * (sup + bound)), BENCH,
                  t_end=0.5, snapshot_every=1, gauge_diagnostics=False)
    for got, want in zip(guarded.snapshots, free.snapshots, strict=True):
        assert np.array_equal(got.r.values, want.r.values)
        assert np.array_equal(got.q.spectrum, want.q.spectrum)


def test_guard_equal_to_the_sup_of_a_single_mode_trips_as_the_exact_check_does():
    grid = Grid(64, 20.0)
    kx = 2.0 * np.pi * 3 * grid.x / grid.length
    s = SystemState(RealField(grid, 0.2 * np.cos(kx)),
                    ComplexField(grid, np.zeros(grid.n, dtype=complex)))
    cfg = StepperConfig(dt=1e-3)
    sup = float(np.max(np.abs(step(s, cfg, BENCH).r.values)))
    # a guard equal to the sup to the last bit: the bound cannot clear it,
    # so the exact check runs (it hands over r's samples) and passes
    _, y, r = next(solver._steps(s, dataclasses.replace(cfg, cfl_guard=sup), BENCH,
                                 "reduced"))
    assert r is not None
    assert guard_bound(y[:grid.n // 2 + 1], grid.n) > sup * (1.0 - 1e-12)
    # one ulp below it, the step trips with that sup and the input state
    with pytest.raises(BlowUp) as info:
        step(s, dataclasses.replace(cfg, cfl_guard=np.nextafter(sup, 0.0)), BENCH)
    assert info.value.sup == sup
    assert info.value.time == cfg.dt
    assert info.value.state is s


def test_run_makes_six_transform_calls_per_plain_reduced_step(monkeypatch):
    # 200 reduced Strang steps at n = 128 with rows at steps 0, 100 and 200.
    # Each step makes 3 iffts of the factor rows and 3 ffts of the product
    # rows, and the guard's bound needs no transform.  Each row makes an
    # irfft for |D| r in `conserved`, and for the gauge residual an irfft
    # (the antiderivative), an fft and an ifft (psi+'s derivative).  The
    # states of the two later rows take an irfft for their r samples and an
    # ifft for their q samples; the first takes the start-up rfft of r
    grid = Grid(128, 40.0)
    s0 = bump_state(grid)
    _ = s0.q.spectrum  # cache the input spectrum of q
    solver._build_stepper(grid, 1e-3, "strang-split", BENCH, "reduced")
    calls = dict.fromkeys(("fft", "ifft", "rfft", "irfft"), 0)
    for name in calls:
        original = getattr(np.fft, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    traj = run(s0, StepperConfig(dt=1e-3), BENCH, t_end=0.2, diagnostics_every=100)
    assert len(traj.diagnostics) == 3
    assert calls == {"fft": 3 * 200 + 3, "ifft": 3 * 200 + 3 + 2, "rfft": 1,
                     "irfft": 3 * 2 + 2}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("field, bad", [("r", np.nan), ("q", np.inf), ("q", "all")])
def test_non_finite_input_is_rejected_not_a_blow_up(field, bad):
    grid = Grid(64, 20.0)
    s = bump_state(grid)
    if field == "r":
        s = SystemState(RealField(grid, np.where(grid.x == 0.0, bad, s.r.values)), s.q)
    elif bad == "all":  # finite samples whose spectrum overflows
        s = SystemState(s.r, ComplexField(grid, np.full(grid.n, np.finfo(float).max)))
    else:
        s = SystemState(s.r, ComplexField(grid, np.where(grid.x == 0.0, bad, s.q.values)))
    cfg = StepperConfig(dt=1e-2)
    with pytest.raises(ValueError, match="finite"):
        step(s, cfg, BENCH)
    with pytest.raises(ValueError, match="finite"):
        run(s, cfg, BENCH, t_end=0.1)


# ---------------------------------------------------------------- stepper memo

@pytest.fixture
def builds(monkeypatch):
    """Counts of right-hand sides and ETD tables built (a build that raises
    is not counted), from an empty memo."""
    counts = {"rhs": 0, "tables": 0}
    for name, key in (("_Rhs", "rhs"), ("_etd_tables", "tables")):
        original = getattr(solver, name)

        def counted(*args, _original=original, _key=key, **kwargs):
            built = _original(*args, **kwargs)
            counts[_key] += 1
            return built

        monkeypatch.setattr(solver, name, counted)
    solver._build_stepper.cache_clear()
    yield counts
    solver._build_stepper.cache_clear()


def test_equal_arguments_share_one_stepper(builds):
    cfg = StepperConfig(dt=1e-3, scheme="etdrk4")
    s = bump_state(Grid(512, 40.0))
    step(s, cfg, BENCH)
    # equal but not identical: a fresh grid, config and coefficient derivation
    fresh = derive_coefficients(PhysicalParams(g=1.0, h1=1.0, rho=2.0, rho1=1.0),
                                epsilon=0.35, delta=0.25)
    assert fresh == BENCH and fresh is not BENCH
    s = bump_state(Grid(512, 40.0))
    step(s, StepperConfig(dt=1e-3, scheme="etdrk4"), fresh)
    run(s, StepperConfig(dt=1e-3, scheme="etdrk4"), fresh, t_end=2e-3,
        gauge_diagnostics=False)
    assert builds == {"rhs": 1, "tables": 1}  # one table set over [r_hat | q_spec]
    # the blow-up guard is checked outside the stepper: no rebuild
    step(s, StepperConfig(dt=1e-3, scheme="etdrk4", cfl_guard=5.0), BENCH)
    assert builds == {"rhs": 1, "tables": 1}
    variants = [
        (StepperConfig(dt=2e-3, scheme="etdrk4"), BENCH, "reduced"),
        (StepperConfig(dt=1e-3), BENCH, "reduced"),  # strang: no tables
        (cfg, BENCH, "full"),
        # the CLI's tau1 step: dt / epsilon in tau
        (StepperConfig(dt=1e-3 / BENCH.epsilon, scheme="etdrk4"), BENCH, "full"),
        (cfg, dataclasses.replace(BENCH, beta=0.5 * BENCH.beta), "reduced"),
    ]
    for built, (c, co, system) in enumerate(variants, start=2):
        for _ in range(2):
            step(s, c, co, system=system)
        assert builds["rhs"] == built
    assert builds["tables"] == 5
    step(s, cfg, BENCH)  # only the latest configuration is kept
    assert builds["rhs"] == 2 + len(variants)


def test_stepper_memo_is_bounded(builds):
    s = bump_state(Grid(64, 20.0))
    dts = [1e-3 * (i + 1) for i in range(solver._STEPPER_MEMO_SIZE + 1)]
    for dt in dts:
        step(s, StepperConfig(dt=dt), BENCH)
    assert builds["rhs"] == len(dts)
    step(s, StepperConfig(dt=dts[-1]), BENCH)
    assert builds["rhs"] == len(dts)
    step(s, StepperConfig(dt=dts[0]), BENCH)  # the oldest entry was dropped
    assert builds["rhs"] == len(dts) + 1


def test_stepper_errors_are_raised_on_every_call(builds):
    s = zero_state(Grid(64, 10.0))
    cfg = StepperConfig(dt=1e-3)
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown system"):
            step(s, cfg, BENCH, system="both")
    # no right-hand side is completed, and the check runs on each call
    assert builds["rhs"] == 0
    info = solver._build_stepper.cache_info()
    assert (info.misses, info.currsize) == (2, 0)


@pytest.mark.parametrize("system", ["reduced", "full"])
@pytest.mark.parametrize("scheme", ["strang-split", "etdrk4"])
def test_later_steps_build_nothing(builds, monkeypatch, scheme, system):
    # after the first call a step() builds no right-hand side and no table,
    # and transforms only what the guarded step does: the samples of states
    # nobody reads are never made
    grid = Grid(128, 40.0)
    cfg = StepperConfig(dt=1e-3, scheme=scheme)
    s = step(bump_state(grid), cfg, BENCH, system=system)
    built = dict(builds)
    calls = count_transforms(monkeypatch)
    n_calls = 5
    for _ in range(n_calls):
        s = step(s, cfg, BENCH, system=system)
    assert builds == built
    assert calls["n"] == n_calls * GUARDED_STEP_CALLS[scheme][system]


def test_diagnostics_row_transform_budget(monkeypatch):
    # a diagnostics row takes its spectra from the stepper: one inverse
    # transform each for the r and q samples, one for |D| r in `conserved`,
    # and three for the gauge residual (the antiderivative and psi'); the
    # first row takes the caller's r, q and q's cached spectrum
    grid = Grid(128, 40.0)
    s0 = bump_state(grid)
    _ = s0.q.spectrum  # cache the input spectrum of q
    cfg = StepperConfig(dt=1e-3, scheme="etdrk4")
    solver._build_stepper(grid, cfg.dt, cfg.scheme, BENCH, "full")
    calls = count_transforms(monkeypatch)
    traj = run(s0, cfg, BENCH, t_end=1e-2, diagnostics_every=1, system="full")
    assert len(traj.diagnostics) == 11
    # the start-up rfft of r, ten guarded steps, the first row and ten more
    assert calls["n"] <= 1 + 10 * GUARDED_STEP_CALLS["etdrk4"]["full"] + 4 + 10 * 6
    assert np.array_equal(traj.snapshots[0].q.values, s0.q.values)


@pytest.mark.parametrize("scheme", ["strang-split", "etdrk4"])
def test_memoised_stepper_arrays_are_read_only(scheme):
    grid = Grid(128, 40.0)
    cfg = StepperConfig(dt=1e-3, scheme=scheme)
    s = bump_state(grid)
    before = step(s, cfg, BENCH, system="full")
    stepper = solver._build_stepper(grid, cfg.dt, cfg.scheme, BENCH, "full")
    arrays = [v for part in (stepper, stepper.rhs) for v in vars(part).values()
              if isinstance(v, np.ndarray)]
    # the 6 ETD tables or the half-step phases, and the full system's 5
    # right-hand side arrays (the linear symbol, the stacked operators
    # making the product factors, scaled by 1/n, and the product weights on
    # r's and on q's modes)
    assert len(arrays) == (6 if scheme == "etdrk4" else 1) + 5
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[1] = 0.0
    after = step(s, cfg, BENCH, system="full")
    assert np.array_equal(after.r.values, before.r.values)
    assert np.array_equal(after.q.values, before.q.values)


def _one_shot_etd_tables(h, lin, m=64):
    # Kassam & Trefethen's contour means over the whole (n, m) array at
    # once: an independent construction of the tables
    z = h * lin
    angles = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    zc = z[:, None] + np.exp(1j * angles)[None, :]
    ez = np.exp(zc)
    zc3 = zc * zc * zc
    return (np.exp(z), np.exp(0.5 * z),
            h * np.mean((np.exp(0.5 * zc) - 1.0) / zc, axis=1),
            h * np.mean((-4.0 - zc + ez * (4.0 - 3.0 * zc + zc * zc)) / zc3, axis=1),
            h * np.mean((2.0 + zc + ez * (zc - 2.0)) / zc3, axis=1),
            h * np.mean((-4.0 - 3.0 * zc - zc * zc + ez * (4.0 - zc)) / zc3, axis=1))


def test_etd_tables_match_40_digit_references():
    # on the imaginary axis (the symbols of both fields are imaginary),
    # both sides of the switch from series to closed form, and one ulp
    # either side of it
    mpmath = pytest.importorskip("mpmath")
    switch = solver._SERIES_RADIUS
    y = np.concatenate([np.geomspace(1e-8, 1e3, 400),
                        [np.nextafter(switch, 0.0), switch, np.nextafter(switch, 2.0)]])
    z = 1j * np.concatenate([y, -y])
    got = solver._etd_tables(1.0, z)
    want = []
    # 64 working digits keep 40 after the closed forms cancel at |z| = 1e-8
    with mpmath.workdps(64):
        for v in z:
            zz = mpmath.mpc(v)
            e = mpmath.exp(zz)
            z3 = zz ** 3
            want.append([complex(t) for t in (
                e, mpmath.exp(zz / 2), (mpmath.exp(zz / 2) - 1) / zz,
                (-4 - zz + e * (4 - 3 * zz + zz * zz)) / z3,
                (2 + zz + e * (zz - 2)) / z3,
                (-4 - 3 * zz - zz * zz + e * (4 - zz)) / z3)])
    for g, w in zip(got, np.array(want).T, strict=True):
        assert np.all(np.abs(g - w) <= 1e-14 * np.abs(w))


@pytest.mark.parametrize("time_scale", ["tau", "tau1"])
@pytest.mark.parametrize("symbol", ["lin_r", "lin_q"])  # r's part of lin, or q's
@pytest.mark.parametrize("n", [8, 512, 4096, 8192])
def test_etd_tables_match_contour_means(n, symbol, time_scale):
    # the contour means lose digits where the unit circle passes near 0,
    # at |h L| ~ 1: there they are off by up to 1.2e-12 of the table
    # (f1 at n = 512, against 40-digit references).  A step h in
    # tau1 = epsilon tau is h / epsilon in tau
    h = 1e-2 / BENCH.epsilon if time_scale == "tau1" else 1e-2
    lin = solver._Rhs(Grid(n, 40.0), BENCH, "full").lin
    lin = lin[:n // 2 + 1] if symbol == "lin_r" else lin[n // 2 + 1:]
    for got, want in zip(solver._etd_tables(h, lin),
                         _one_shot_etd_tables(h, lin), strict=True):
        assert np.max(np.abs(got - want)) <= 2e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("time_scale", ["tau", "tau1"])
@pytest.mark.parametrize("n", [8, 512, 4096])
def test_etdrk4_q_tables_built_on_the_half_grid_match_the_full_grid(n, time_scale):
    # the q symbol is even, so the tables built on n//2 + 1 modes and
    # mirrored equal the tables over all n modes bit for bit; each table
    # of the one build holds them after r's own n//2 + 1 modes, f2's
    # doubled (exactly)
    h = 1e-2 / BENCH.epsilon if time_scale == "tau1" else 1e-2  # tau1 = epsilon tau
    rhs = solver._Rhs(Grid(n, 40.0), BENCH, "full")
    stepper = solver._EtdStepper(h, rhs)
    got = (stepper.e, stepper.e2, stepper.q, stepper.f1, stepper.two_f2, stepper.f3)
    for part in (slice(None, n // 2 + 1), slice(n // 2 + 1, None)):
        e, e2, q, f1, f2, f3 = solver._etd_tables(h, rhs.lin[part])
        want = (e, e2, q, f1, 2.0 * f2, f3)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g[part], w)


# ---------------------------------------------------------------- work arrays

@pytest.mark.parametrize("system", ["reduced", "full"])
@pytest.mark.parametrize("scheme", ["strang-split", "etdrk4"])
def test_returned_spectra_share_no_memory_with_work_arrays(scheme, system):
    grid = Grid(128, 40.0)
    s = bump_state(grid)
    stepper = solver._build_stepper(grid, 1e-3, scheme, BENCH, system)
    y = np.concatenate((np.fft.rfft(s.r.values), s.q.spectrum))
    first = stepper.rhs.nonlinear(y)
    kept = first.copy()
    advanced = stepper.advance(y)
    second = stepper.rhs.nonlinear(advanced)
    stepped = step(s, StepperConfig(dt=1e-3, scheme=scheme), BENCH, system=system)
    work = list(stepper.rhs._local.work.values())
    assert work
    for out in (first, advanced, second, stepped.r.spectrum, stepped._y,
                stepped.q.spectrum):
        assert not any(np.shares_memory(out, a) for a in work)
    # a second evaluation leaves the first one's outputs as they were
    assert np.array_equal(first, kept)


@pytest.mark.parametrize("n", [8, 512, 8192])
def test_inverse_transform_scale_folded_into_its_input_is_exact(n):
    # n is a power of two, so scaling by 1/n before an unscaled inverse
    # transform gives the scaled one bit for bit: the right-hand side keeps
    # 1/n in its factor operators
    rng = np.random.default_rng(n)
    x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    x[0] *= 1e-6
    want = np.fft.ifft(x)
    assert np.fft.ifft(x * (1.0 / n), norm="forward").tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [128, 512, 8192])
def test_reduced_nonlinear_matches_one_row_per_product_unpacked_bit_for_bit(n):
    # the reduced assembly multiplies both factor rows by r at once (r^2 and
    # r d|D|r from r + i d|D|r, times r + 0i) and reads G0(-k) through a
    # reversed view; products formed one by one and unpacked by an index
    # array give the same bits
    grid = Grid(n, 40.0)
    h = n // 2 + 1
    s = bump_state(grid)
    y = np.concatenate((np.fft.rfft(s.r.values), s.q.spectrum))
    rhs = solver._Rhs(grid, BENCH, "reduced")
    spec = np.concatenate((y[:h], np.conj(y[h - 2:0:-1])))
    fac = np.fft.ifft(np.stack((n * rhs.in_r[0] * spec, n * rhs.in_q[0] * y[h:])))
    r, dadr, q = fac[0].real, fac[0].imag, fac[1]
    prod = np.empty((2, n), complex)
    prod[0].real = r * r
    prod[0].imag = rhs.beta * (q * np.conj(q)).real - r * dadr
    prod[1] = r * q
    g = np.fft.fft(prod)
    flip = -np.arange(h) % n
    want = np.concatenate((rhs.w_r[0] * g[0, :h] + rhs.w_r[1] * np.conj(g[0, flip]),
                           rhs.w_q * g[1]))
    assert rhs.nonlinear(y).tobytes() == want.tobytes()


@pytest.mark.parametrize("system", ["reduced", "full"])
@pytest.mark.parametrize("scheme", ["strang-split", "etdrk4"])
@pytest.mark.parametrize("n", [128, 8192])
def test_batch_members_match_their_unbatched_results_bit_for_bit(n, scheme, system):
    # a leading batch axis carries through the right-hand side and both
    # steppers without changing any member's arithmetic (with one row per
    # product, full-system members at n = 8192 differed by 1e-16)
    grid = Grid(n, 40.0)
    states = [bump_state(grid, r_sup=0.05 * (i + 1), q_amp=0.02 * (i + 1), carrier=i)
              for i in range(3)]
    y = np.stack([np.concatenate((np.fft.rfft(s.r.values), s.q.spectrum))
                  for s in states])
    assert y.shape == (len(states), n // 2 + 1 + n)
    stepper = solver._build_stepper(grid, 1e-3, scheme, BENCH, system)
    for apply in (stepper.rhs.nonlinear, stepper.advance):
        batched = apply(y)
        for i in range(len(states)):
            want = apply(y[i])
            assert batched.shape[1:] == want.shape
            assert np.array_equal(batched[i], want)


@pytest.mark.parametrize("batch", [(), (3,)], ids=["unbatched", "batched"])
@pytest.mark.parametrize("system", ["reduced", "full"])
def test_strang_stages_in_place_match_the_out_of_place_formula_bit_for_bit(system, batch):
    # advance works in place on the arrays nonlinear returns, never on its input
    grid = Grid(128, 40.0)
    states = [bump_state(grid, r_sup=0.05 * (i + 1), q_amp=0.02 * (i + 1), carrier=i)
              for i in range(3)]
    y = np.stack([np.concatenate((np.fft.rfft(s.r.values), s.q.spectrum))
                  for s in states])[(0,) if batch == () else slice(None)]
    assert y.shape == batch + (grid.n // 2 + 1 + grid.n,)
    y.flags.writeable = False
    kept = y.copy()
    stepper = solver._build_stepper(grid, 1e-3, "strang-split", BENCH, system)
    f, half, h = stepper.rhs.nonlinear, stepper.half, stepper.dt
    x = half * y
    a = f(x)
    b = f(x + h * a)
    ab = a + b
    c = f(x + (0.25 * h) * ab)
    want = half * (x + (h / 6.0) * (ab + 4.0 * c))
    assert stepper.advance(y).tobytes() == want.tobytes()
    assert y.tobytes() == kept.tobytes()


def test_threads_stepping_one_memoised_stepper_match_sequential_steps():
    grid = Grid(512, 40.0)
    cfg = StepperConfig(dt=1e-3, scheme="etdrk4")
    starts = [bump_state(grid, r_sup=0.05 * (i + 1), q_amp=0.02 * (i + 1), carrier=i)
              for i in range(4)]

    def loop(s):
        for _ in range(20):
            s = step(s, cfg, BENCH, system="full")
        return s

    want = [loop(s) for s in starts]
    got = [None] * len(starts)

    def worker(i):
        got[i] = loop(starts[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(starts))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g.r.values, w.r.values)
        assert np.array_equal(g.q.values, w.q.values)


# ---------------------------------------------------------------- convergence

def _self_convergence_order(scheme, dts):
    grid = Grid(128, 40.0)
    s0 = bump_state(grid, r_sup=0.5, q_amp=0.3)
    ends = []
    for dt in dts:
        traj = run(s0, StepperConfig(dt=dt, scheme=scheme), BENCH, t_end=2.0,
                   diagnostics_every=10 ** 6, gauge_diagnostics=False)
        end = traj.snapshots[-1]
        ends.append(np.concatenate([end.r.values, end.q.values.view(float)]))
    e01 = float(np.linalg.norm(ends[0] - ends[1]))
    e12 = float(np.linalg.norm(ends[1] - ends[2]))
    return np.log2(e01 / e12)


def test_strang_order_two():
    order = _self_convergence_order("strang-split", (4e-2, 2e-2, 1e-2))
    print(f"strang-split self-convergence order: {order:.3f}")
    assert 1.9 <= order <= 2.1


class _FourStageStrang(solver._StrangStepper):
    """The classical RK4 substep the three-stage one replaced, as an oracle."""

    def advance(self, y):
        y = self.half * y
        h = self.dt
        a = self.rhs.nonlinear(y)
        b = self.rhs.nonlinear(y + (0.5 * h) * a)
        c = self.rhs.nonlinear(y + (0.5 * h) * b)
        d = self.rhs.nonlinear(y + h * c)
        return self.half * (y + (h / 6.0) * (a + 2.0 * (b + c) + d))


def _strang_errors(coeffs, system, n, amplitude, dt, steps=50):
    """Relative sup error of the four- and three-stage Strang steps at the
    end, against etdrk4 at dt / 16."""
    s = bump_state(Grid(n, 40.0), r_sup=amplitude)

    def end(stepper_class, h):
        stepper = stepper_class(h, solver._Rhs(s.grid, coeffs, system))
        steps_of = solver._stepping(stepper, StepperConfig(dt=h), s, solver._spectra(s))
        for _, (_, y, _) in zip(range(steps * round(dt / h)), steps_of):
            pass
        return y

    ref = end(solver._EtdStepper, dt / 16)
    scale = float(np.max(np.abs(ref)))
    return tuple(float(np.max(np.abs(end(c, dt) - ref))) / scale
                 for c in (_FourStageStrang, solver._StrangStepper))


ANDAMAN_MODEL = derive_coefficients(ANDAMAN, epsilon=0.1, delta=0.25)
OREGON_MODEL = derive_coefficients(OREGON, epsilon=0.1, delta=0.25)


@pytest.mark.parametrize("coeffs, system, n, amplitude, dt", [
    (BENCH, "reduced", 512, 0.1, 1e-3),
    (BENCH, "reduced", 256, 1.0, 1e-2),
    (BENCH, "reduced", 128, 3.0, 1e-3),
    (BENCH, "full", 512, 0.1, 1e-3),
    (BENCH, "full", 512, 0.1, 1e-3 / BENCH.epsilon),  # tau1
    (ANDAMAN_MODEL, "reduced", 512, 0.1, 1e-3),
    (ANDAMAN_MODEL, "full", 512, 0.1, 1e-3),
    (ANDAMAN_MODEL, "full", 512, 0.1, 1e-3 / ANDAMAN_MODEL.epsilon),
    (OREGON_MODEL, "reduced", 512, 0.1, 1e-3),
    (OREGON_MODEL, "full", 512, 0.1, 1e-3 / OREGON_MODEL.epsilon),
], ids=["bench-reduced-512", "bench-reduced-256-amp1", "bench-reduced-128-amp3",
        "bench-full", "bench-full-tau1", "andaman-reduced", "andaman-full",
        "andaman-full-tau1", "oregon-reduced", "oregon-full-tau1"])
def test_three_stage_strang_step_keeps_the_four_stage_error(coeffs, system, n,
                                                            amplitude, dt):
    # Strang splitting is second order, so its splitting error, not the
    # substep's, sets the accuracy where the dispersion dominates
    four, three = _strang_errors(coeffs, system, n, amplitude, dt)
    print(f"four-stage {four:.4e}, three-stage {three:.4e}")
    assert abs(three - four) <= 0.01 * four


def test_three_stage_strang_error_where_the_dispersion_nearly_vanishes():
    # reported, not bounded: with a, b and alpha scaled by 1e-4 the
    # substep's third-order error is no longer below the splitting error
    weak = dataclasses.replace(BENCH, a=1e-4 * BENCH.a, b=1e-4 * BENCH.b,
                               alpha=1e-4 * BENCH.alpha)
    four, three = _strang_errors(weak, "reduced", 256, 1.0, 1e-2)
    print(f"weak dispersion: four-stage {four:.4e}, three-stage {three:.4e}")
    assert np.isfinite(three) and np.isfinite(four)


def test_etdrk4_order_four():
    order = _self_convergence_order("etdrk4", (0.2, 0.1, 0.05))
    print(f"etdrk4 self-convergence order: {order:.3f}")
    assert order >= 3.8


def test_spatial_self_convergence():
    # fixed smooth data and dt; the n = 2048 solution serves as the reference,
    # and collocation points of the coarse grids are a subset of its points
    dt, t_end = 1e-3, 0.5

    def final_r(n):
        grid = Grid(n, 40.0)
        r = gaussian_bump(grid, 0.5).values
        r = r - r.mean()
        r = (0.1 / np.max(np.abs(r))) * r
        q = gaussian_envelope(grid, 0.05, 3.0, carrier_mode=2)
        traj = run(SystemState(RealField(grid, r), q),
                   StepperConfig(dt=dt, scheme="etdrk4"), BENCH, t_end=t_end,
                   diagnostics_every=10 ** 6, gauge_diagnostics=False)
        return traj.snapshots[-1].r.values

    ref = final_r(2048)
    errs = {}
    for n in (64, 128, 256):
        errs[n] = float(np.max(np.abs(final_r(n) - ref[:: 2048 // n])))
    print("spatial errors:", {n: f"{e:.3e}" for n, e in errs.items()})
    assert errs[64] / errs[128] >= 10.0
    assert errs[128] / errs[256] >= 10.0


# ---------------------------------------------------------------- profile factories

def test_bo_soliton_profile():
    grid = Grid(512, 200.0)
    f = bo_soliton(grid, nu=0.5, center=3.0)
    assert abs(float(np.mean(f.values))) <= 1e-15
    peak_at = grid.x[np.argmax(f.values)]
    assert abs(peak_at - 3.0) <= grid.dx
    # peak height 4 nu shifted down by the removed mean, which is 4 pi / L
    assert np.max(f.values) == pytest.approx(2.0 - 4.0 * np.pi / 200.0, abs=1e-2)
    with pytest.raises(ValueError, match="nu"):
        bo_soliton(grid, nu=0.0)


def test_gaussian_envelope_carrier():
    grid = Grid(256, 32.0)
    q = gaussian_envelope(grid, amplitude=0.5 + 0.25j, width=2.0, carrier_mode=5)
    assert np.argmax(np.abs(q.spectrum)) == 5
    at_center = q.values[np.argmin(np.abs(grid.x))]
    assert abs(at_center) == pytest.approx(abs(0.5 + 0.25j), rel=1e-12)
    with pytest.raises(ValueError, match="width"):
        gaussian_envelope(grid, 0.1, width=-1.0)
    # the Nyquist mode n/2 is the last one a carrier may take: past it
    # mode 1000 would alias to mode -24
    assert np.argmax(np.abs(gaussian_envelope(grid, 1.0, 2.0, carrier_mode=-128).spectrum)) == 128
    for mode in (129, -129, 1000):
        with pytest.raises(ValueError, match=f"carrier_mode = {mode} lies past the Nyquist"):
            gaussian_envelope(grid, 0.1, 2.0, carrier_mode=mode)


def test_initial_profile_is_the_mean_free_bump_scaled_to_its_peak():
    # the recipe the README's example once spelled out by hand
    grid = Grid(256, 40.0)
    r = gaussian_bump(grid, 2.0, 1.5).values
    r = r - r.mean()
    r = (0.1 / np.max(np.abs(r))) * r
    built = initial_profile(grid, "gaussian", 0.1, 2.0, 1.5, 1.0, 0)
    assert built.values.tobytes() == r.tobytes()


@pytest.mark.parametrize("make, args", [
    (initial_profile, ("square", 0.1, 1.0, 0.0, 0.5, 0)),
    (initial_envelope, ("soliton", 0.1, 1.0, 0.0, 0)),
])
def test_initial_builders_reject_an_unknown_kind(make, args):
    with pytest.raises(ValueError, match=f"kind must be one of .*, got '{args[0]}'"):
        make(Grid(64, 10.0), *args)


if HAS_HYPOTHESIS:

    @given(n=st.sampled_from([8, 64, 512]), kind=st.sampled_from(["random", "single",
                                                                   "nyquist"]),
           scale=st.floats(1e-6, 1e6), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_guard_bound_is_at_least_the_sup(n, kind, scale, seed):
        # sup|r| <= (1/n) sum over all n modes of |r_hat| <= (2/n) sum over
        # the half-spectrum; the guard trusts the bound only below
        # cfl_guard (1 - 1e-12), which leaves room for transform roundoff
        rng = np.random.default_rng(seed)
        h = n // 2 + 1
        r_hat = scale * (rng.standard_normal(h) + 1j * rng.standard_normal(h))
        if kind == "single":
            r_hat = np.where(np.arange(h) == rng.integers(h), r_hat, 0.0)
        elif kind == "nyquist":
            r_hat = np.where(np.arange(h) == h - 1, r_hat.real, 0.0)
        sup = float(np.max(np.abs(np.fft.irfft(r_hat, n))))
        assert sup * (1.0 - 1e-12) <= guard_bound(r_hat, n)

    @given(amplitude=st.floats(0.01, 0.3), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=15, deadline=None)
    def test_mean_of_r_is_invariant(amplitude, seed):
        # every r term carries an outer derivative, so the mean never moves,
        # zero or not
        grid = Grid(64, 20.0)
        rng = np.random.default_rng(seed)
        noise = band_limited_noise(grid, rng, amplitude=amplitude, keep=0.5)
        r = RealField(grid, noise.values + 0.1 * amplitude)
        q = gaussian_envelope(grid, 0.3 * amplitude, 2.0, carrier_mode=1)
        s = SystemState(r, q)
        cfg = StepperConfig(dt=5e-3)
        for _ in range(10):
            s = step(s, cfg, BENCH)
        assert abs(float(np.mean(s.r.values)) - float(np.mean(r.values))) <= 1e-12

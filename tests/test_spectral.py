"""Fourier-multiplier machinery: operators, projections, propagators.

The propagator phase test integrates the literal operator composition on
a single mode with classical RK4 and compares endpoints; everything else
is identity algebra that must hold to roundoff.
"""

import numpy as np
import pytest

from bonls.coeffs import PhysicalParams, derive_coefficients
from bonls.spectral import (
    ComplexField,
    Grid,
    RealField,
    SupportViolation,
    absd,
    band_limited_noise,
    boundary_mass_fraction,
    commutativity_check,
    commutator_apply,
    dealias,
    dealias_mask,
    deriv,
    gaussian_bump,
    hilbert,
    inner,
    project,
    propagator,
    _mean_free,
)

try:
    from hypothesis import given, settings, strategies as st
    HAS_HYPOTHESIS = True
except ImportError:
    HAS_HYPOTHESIS = False

BENCH = derive_coefficients(PhysicalParams(g=1.0, h1=1.0, rho=2.0, rho1=1.0),
                            epsilon=0.35, delta=0.25)
# long-wave coefficient set used by the moment-identity checks: small a, b
LONGWAVE = derive_coefficients(PhysicalParams(g=1.0, h1=1.0, rho=2.0, rho1=1.0),
                               epsilon=0.05, delta=0.25)

RNG = np.random.default_rng(1905)


def noise(grid, amplitude=1.0, keep=2.0 / 3.0):
    return band_limited_noise(grid, RNG, amplitude=amplitude, keep=keep)


# --------------------------------------------------------------------------
# oracle: single-mode ODE integration of the dispersive flow
# --------------------------------------------------------------------------

def rk4_mode_phase(coeffs, k, t, n_steps=4000):
    """Integrate d/dt u = -(a d^3 - b H d^2) u on the mode e^{ikx} with RK4.

    The operator acts on e^{ikx} through literal composition: each
    derivative multiplies by ik, the Hilbert transform by -i sgn(k).
    """
    third = (1j * k) ** 3
    second = (-1j * np.sign(k)) * (1j * k) ** 2

    def rhs(u):
        return -(coeffs.a * third * u - coeffs.b * second * u)

    u = 1.0 + 0.0j
    h = t / n_steps
    for _ in range(n_steps):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * h * k1)
        k3 = rhs(u + 0.5 * h * k2)
        k4 = rhs(u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


# --------------------------------------------------------------------------
# grid and fields
# --------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(100, 10.0)  # not a power of two
    with pytest.raises(ValueError):
        Grid(4, 10.0)  # too small
    with pytest.raises(ValueError):
        Grid(64, -1.0)


@pytest.mark.parametrize("length", [float("inf"), float("nan")])
def test_grid_length_must_be_finite(length):
    # an infinite length gave x all NaN and k all 0, with only a RuntimeWarning
    with pytest.raises(ValueError, match="grid length must be positive and finite"):
        Grid(64, length)


def test_grid_layout():
    grid = Grid(64, 32.0)
    assert grid.dx == pytest.approx(0.5)
    assert grid.x[0] == pytest.approx(-16.0)
    assert grid.k[1] == pytest.approx(2.0 * np.pi / 32.0)
    assert grid.k[grid.nyquist] == pytest.approx(-np.pi / grid.dx)


def test_field_round_trip():
    grid = Grid(128, 20.0)
    f = noise(grid)
    back = RealField.from_spectrum(grid, f.spectrum)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))


@pytest.mark.parametrize("n", [8, 128, 4096])
def test_private_constructors_cache_the_fft_of_their_samples(n):
    # the mean-free copy caches its input's spectrum with the mean mode
    # zeroed, with no transform (the stepper's states, which cache the
    # mirrored rfft half-spectrum, are tested in test_solver.py)
    grid = Grid(n, 20.0)
    v = noise(grid).values + 0.3
    f = RealField(grid, v)
    g = _mean_free(f)
    want = np.fft.fft(g.values)
    assert np.max(np.abs(g.spectrum - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(g.values, v - np.mean(v))
    assert g.spectrum[0] == 0.0
    assert np.array_equal(g.spectrum[1:], f.spectrum[1:])
    assert f.spectrum[0] != 0.0  # the input keeps its own spectrum


def test_real_field_rejects_complex_spectrum_content():
    grid = Grid(64, 10.0)
    spec = np.zeros(64, dtype=complex)
    spec[3] = 1.0  # no Hermitian partner
    with pytest.raises(ValueError):
        RealField.from_spectrum(grid, spec).values


def test_parseval():
    grid = Grid(256, 17.0)
    f = noise(grid)
    phys = float(inner(f, f).real)
    spec = grid.dx / grid.n * float(np.sum(np.abs(f.spectrum) ** 2))
    assert phys == pytest.approx(spec, rel=1e-12)


# --------------------------------------------------------------------------
# hilbert transform, |D|, projections
# --------------------------------------------------------------------------

def test_hilbert_cos_to_sin():
    grid = Grid(128, 40.0)
    k = 2.0 * np.pi / grid.length
    f = RealField(grid, np.cos(k * grid.x))
    want = np.sin(k * grid.x)
    assert np.max(np.abs(hilbert(f).values - want)) <= 1e-12


def test_hilbert_squared_is_minus_identity_off_mean():
    grid = Grid(256, 40.0)
    f = RealField(grid, noise(grid).values + 0.7)
    hh = hilbert(hilbert(f)).values
    centered = f.values - np.mean(f.values)
    assert np.max(np.abs(hh + centered)) <= 1e-12


def test_absd_equals_dx_hilbert():
    grid = Grid(256, 40.0)
    f = noise(grid)
    lhs = absd(f).values
    rhs = deriv(hilbert(f)).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_projection_single_modes():
    grid = Grid(64, 16.0)
    k = 2.0 * np.pi / grid.length
    plus_mode = ComplexField(grid, np.exp(1j * k * grid.x))
    assert np.max(np.abs(project(plus_mode, 1).values - plus_mode.values)) <= 1e-12
    assert np.max(np.abs(project(plus_mode, -1).values)) <= 1e-12


def test_projection_partition_and_hilbert_split():
    grid = Grid(256, 40.0)
    f = noise(grid)
    total = project(f, 1).values + project(f, -1).values
    assert np.max(np.abs(total - f.values)) <= 1e-12
    split = -1j * (project(f, 1).values - project(f, -1).values)
    assert np.max(np.abs(split - hilbert(f).values)) <= 1e-12


def test_projection_sign_validation():
    grid = Grid(64, 16.0)
    with pytest.raises(ValueError):
        project(noise(grid), 2)


# --------------------------------------------------------------------------
# commutators
# --------------------------------------------------------------------------

def test_commutator_with_constant_weight_vanishes():
    grid = Grid(128, 20.0)
    h = RealField(grid, np.full(grid.n, 3.25))
    f = noise(grid)
    out = commutator_apply(h, f, 1, l=1, m=1)
    assert np.max(np.abs(out.values)) <= 1e-12


def test_commutator_sign_antisymmetry():
    grid = Grid(128, 20.0)
    h = noise(grid, amplitude=0.5)
    f = noise(grid)
    plus = commutator_apply(h, f, 1).values
    minus = commutator_apply(h, f, -1).values
    assert np.max(np.abs(plus + minus)) <= 1e-12 * max(1.0, np.max(np.abs(plus)))


def test_commutator_norm_bound_reported():
    # Lemma-style bound: measure C in ||d[P+,h]d f|| <= C ||h''||_inf ||f||,
    # report the worst ratio over a small sweep; only finiteness is asserted.
    grid = Grid(256, 40.0)
    worst = 0.0
    for _ in range(5):
        h = noise(grid, amplitude=1.0, keep=0.25)
        f = noise(grid)
        out = commutator_apply(h, f, 1, l=1, m=1)
        num = float(np.sqrt(inner(out, out).real))
        den = float(np.max(np.abs(deriv(h, 2).values))) * float(
            np.sqrt(inner(f, f).real))
        worst = max(worst, num / den)
    print(f"measured commutator constant C = {worst:.3f}")
    assert np.isfinite(worst) and worst > 0.0


# --------------------------------------------------------------------------
# propagators
# --------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["V", "W+", "W-", "U"])
def test_propagator_identity_at_zero(kind):
    grid = Grid(128, 20.0)
    f = noise(grid) if kind in ("V",) else ComplexField(
        grid, noise(grid).values + 1j * noise(grid).values)
    out = propagator(kind, BENCH, 0.0, f)
    assert np.max(np.abs(out.values - f.values)) <= 1e-14


@pytest.mark.parametrize("kind", ["V", "W+", "W-", "U"])
def test_propagator_unitary(kind):
    grid = Grid(256, 40.0)
    f = ComplexField(grid, noise(grid).values + 1j * noise(grid).values)
    out = propagator(kind, BENCH, 1.7, f)
    n0 = float(inner(f, f).real)
    n1 = float(inner(out, out).real)
    assert abs(n1 - n0) / n0 <= 1e-12


@pytest.mark.parametrize("kind", ["V", "W+", "W-", "U"])
def test_propagator_group_law(kind):
    grid = Grid(256, 40.0)
    f = ComplexField(grid, noise(grid).values + 1j * noise(grid).values)
    one = propagator(kind, BENCH, 1.7 + 0.6, f)
    two = propagator(kind, BENCH, 0.6, propagator(kind, BENCH, 1.7, f))
    scale = float(np.max(np.abs(one.values)))
    assert np.max(np.abs(one.values - two.values)) <= 1e-11 * max(scale, 1.0)


def test_propagator_adjointness():
    grid = Grid(256, 40.0)
    f = ComplexField(grid, noise(grid).values + 1j * noise(grid).values)
    g = ComplexField(grid, noise(grid).values + 1j * noise(grid).values)
    lhs = inner(propagator("V", BENCH, 1.3, f), g)
    rhs = inner(f, propagator("V", BENCH, -1.3, g))
    assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)


def test_propagator_keeps_real_fields_real():
    grid = Grid(256, 40.0)
    f = noise(grid)
    out = propagator("V", BENCH, 2.1, f)
    assert isinstance(out, RealField)
    spec = out.spectrum
    sym = np.conj(spec[np.ravel([0] + list(range(grid.n - 1, 0, -1)))])
    assert np.max(np.abs(spec - sym)) <= 1e-9 * max(1.0, np.max(np.abs(spec)))


def test_propagator_phase_against_mode_ode():
    grid = Grid(64, 16.0)
    for mode in (1, 3, 7):
        k = 2.0 * np.pi * mode / grid.length
        f = ComplexField(grid, np.exp(1j * k * grid.x))
        stepped = propagator("V", BENCH, 1.0, f)
        numeric = rk4_mode_phase(BENCH, k, 1.0)
        got = stepped.values / f.values
        assert np.max(np.abs(got - numeric)) <= 1e-8, f"mode {mode}"


def test_propagator_commutes_with_translation():
    grid = Grid(128, 20.0)
    f = noise(grid)
    shift = 17
    rolled = RealField(grid, np.roll(f.values, shift))
    a = propagator("V", BENCH, 0.9, rolled).values
    b = np.roll(propagator("V", BENCH, 0.9, f).values, shift)
    assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(a)))


def test_multipliers_commute_with_translation():
    grid = Grid(128, 20.0)
    f = noise(grid)
    shift = 5
    rolled = RealField(grid, np.roll(f.values, shift))
    for op in (hilbert, absd, lambda g: project(g, 1)):
        a = op(rolled).values
        b = np.roll(op(f).values, shift)
        assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(a)))


def test_propagator_rejects_nonfinite_time():
    grid = Grid(64, 16.0)
    with pytest.raises(ValueError):
        propagator("V", BENCH, np.inf, noise(grid))
    with pytest.raises(ValueError):
        propagator("X", BENCH, 1.0, noise(grid))


# --------------------------------------------------------------------------
# dealiasing and field factories
# --------------------------------------------------------------------------

def test_dealias_mask_band():
    grid = Grid(64, 16.0)
    mask = dealias_mask(grid)
    j = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    assert np.all(mask == (np.abs(j) <= 21))


def test_dealias_zeroes_top_third():
    grid = Grid(64, 16.0)
    f = noise(grid, keep=1.0)
    cut = dealias(f)
    spec = cut.spectrum
    j = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    assert np.max(np.abs(spec[np.abs(j) > grid.n // 3])) == 0.0


def test_gaussian_bump_and_noise_factories():
    grid = Grid(256, 40.0)
    bump = gaussian_bump(grid, width=2.0, amplitude=0.3)
    assert np.max(bump.values) == pytest.approx(0.3, rel=1e-12)
    nz = band_limited_noise(grid, np.random.default_rng(3), amplitude=0.2, keep=0.5)
    assert abs(np.mean(nz.values)) <= 1e-15
    assert np.max(np.abs(nz.values)) == pytest.approx(0.2, rel=1e-12)
    every = band_limited_noise(grid, np.random.default_rng(3), keep=1.0).spectrum
    assert np.count_nonzero(np.abs(every[1:]) > 1e-12) == grid.n - 1  # keep = 1 cuts none
    for width in (0.0, -1.0):  # width 0 would sample exp(-0.5 (0/0)^2), a NaN
        with pytest.raises(ValueError, match="width must be positive"):
            gaussian_bump(grid, width)


@pytest.mark.parametrize("keep", [0.0, -1.0, 1.5, float("nan")])
def test_noise_keep_must_lie_in_the_unit_interval(keep):
    # keep <= 0 zeroed every mode and returned an all-zero field
    with pytest.raises(ValueError, match=r"keep must lie in \(0, 1\]"):
        band_limited_noise(Grid(64, 10.0), np.random.default_rng(0), keep=keep)


# --------------------------------------------------------------------------
# moment identity of the linear flow
# --------------------------------------------------------------------------

def test_moment_identity_zero_field():
    grid = Grid(1024, 10000.0)
    assert commutativity_check(LONGWAVE, RealField(grid, np.zeros(grid.n))) == 0.0


def test_moment_identity_gaussian():
    grid = Grid(1024, 10000.0)
    h = gaussian_bump(grid, width=grid.length / 20.0)
    res = commutativity_check(LONGWAVE, h)
    assert res <= 1e-6, f"moment-identity residual {res:.3e}"


def test_moment_identity_improves_with_resolution():
    # same bump function, window and point count doubled at fixed dx
    res = {}
    for n, length in ((1024, 10000.0), (2048, 20000.0)):
        grid = Grid(n, length)
        h = gaussian_bump(grid, width=500.0)
        res[n] = commutativity_check(LONGWAVE, h)
    assert res[2048] <= res[1024] / 2.0, f"{res}"


def test_moment_identity_rejects_wide_support():
    grid = Grid(1024, 10000.0)
    h = gaussian_bump(grid, width=grid.length / 4.0)
    with pytest.raises(SupportViolation):
        commutativity_check(LONGWAVE, h)
    assert boundary_mass_fraction(h, interior=0.5) > 1e-10


# --------------------------------------------------------------------------
# randomized properties
# --------------------------------------------------------------------------

if HAS_HYPOTHESIS:

    @given(st.integers(min_value=-63, max_value=63))
    @settings(max_examples=40, deadline=None)
    def test_translation_equivariance_random_shift(shift):
        grid = Grid(128, 20.0)
        f = band_limited_noise(grid, np.random.default_rng(11), amplitude=1.0)
        rolled = RealField(grid, np.roll(f.values, shift))
        a = hilbert(rolled).values
        b = np.roll(hilbert(f).values, shift)
        assert np.max(np.abs(a - b)) <= 1e-13

    @given(st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=25, deadline=None)
    def test_group_law_random_times(t, s):
        grid = Grid(64, 16.0)
        f = band_limited_noise(grid, np.random.default_rng(12), amplitude=1.0)
        one = propagator("V", BENCH, t + s, f).values
        two = propagator("V", BENCH, s, propagator("V", BENCH, t, f)).values
        assert np.max(np.abs(one - two)) <= 1e-11

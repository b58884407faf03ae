"""Energy functionals, the normal-mode transform, and first-order DNO checks.

The transform oracle builds the per-mode coupling matrix from SymbolTable
entries and inverts it densely, so the closed-form forward map is checked
against plain linear algebra.
"""

import numpy as np
import pytest

from bonls.coeffs import ANDAMAN, PhysicalParams, symbol_table
from bonls.hamiltonian import (
    CoordinateMismatch,
    DnoFirstOrder,
    Normal,
    Original,
    dno_first_order,
    eval_H2,
    eval_H3,
    h3_terms,
    inverse_transform,
    normal_transform,
)
from bonls.spectral import Grid, RealField, band_limited_noise, dealias_mask, inner
from bonls.verify import perturbed

try:
    from hypothesis import given, settings, strategies as st
    HAS_HYPOTHESIS = True
except ImportError:
    HAS_HYPOTHESIS = False

BENCH = PhysicalParams(g=1.0, h1=1.0, rho=2.0, rho1=1.0)

RNG = np.random.default_rng(424)


def random_four(grid, params, rng=None):
    """Band-limited four-field state inside the DNO convergence regime."""
    rng = RNG if rng is None else rng
    amp = 0.05 * params.h1

    def one():
        return band_limited_noise(grid, rng, amplitude=amp)

    return Original(one(), one(), one(), one())


def zeros(grid):
    return RealField(grid, np.zeros(grid.n))


# --------------------------------------------------------------------------
# normal-mode transform
# --------------------------------------------------------------------------

def test_transform_zero_is_zero():
    grid = Grid(64, 16.0)
    f = Original(zeros(grid), zeros(grid), zeros(grid), zeros(grid))
    out = normal_transform(f, BENCH)
    for name in ("mu", "zeta", "mu1", "zeta1"):
        assert np.max(np.abs(getattr(out, name).values)) == 0.0


@pytest.mark.parametrize("params", [BENCH, ANDAMAN])
def test_transform_round_trip(params):
    grid = Grid(128, 40.0)
    f = random_four(grid, params)
    back = inverse_transform(normal_transform(f, params), params)
    for name in ("eta", "xi", "eta1", "xi1"):
        orig = getattr(f, name).values
        got = getattr(back, name).values
        scale = max(np.max(np.abs(orig)), 1e-30)
        assert np.max(np.abs(got - orig)) / scale <= 1e-11, name


def test_transform_single_mode_against_dense_solve():
    """Forward transform on one cosine equals a dense 2x2 solve per block.

    The inverse map couples (eta, eta1) to (mu, mu1) and (xi, xi1) to
    (zeta, zeta1) through per-wavenumber matrices; solving those linear
    systems is an oracle independent of the implemented forward formulas.
    """
    grid = Grid(64, 16.0)
    k = 2.0 * np.pi * 8 / grid.length  # mode 8: k = pi, comfortably interior
    st_ = symbol_table(BENCH, np.asarray([k]))
    sq_d = np.sqrt(BENCH.g * (BENCH.rho - BENCH.rho1))
    sq_1 = np.sqrt(BENCH.g * BENCH.rho1)
    elevation_matrix = np.array([
        [st_.b_plus[0] / sq_d, -st_.b_minus[0] / sq_d],
        [-st_.a_plus[0] / sq_1, st_.a_minus[0] / sq_1],
    ])
    potential_matrix = np.array([
        [sq_d * st_.b_plus[0], -sq_d * st_.b_minus[0]],
        [-sq_1 * st_.a_plus[0], sq_1 * st_.a_minus[0]],
    ])
    amps = {"eta": 0.31, "xi": -0.12, "eta1": 0.07, "xi1": 0.23}
    cos = np.cos(k * grid.x)
    f = Original(*(RealField(grid, amps[n] * cos)
                   for n in ("eta", "xi", "eta1", "xi1")))
    out = normal_transform(f, BENCH)
    mu_amp, mu1_amp = np.linalg.solve(elevation_matrix,
                                      [amps["eta"], amps["eta1"]])
    zeta_amp, zeta1_amp = np.linalg.solve(potential_matrix,
                                          [amps["xi"], amps["xi1"]])
    for name, amp in (("mu", mu_amp), ("zeta", zeta_amp),
                      ("mu1", mu1_amp), ("zeta1", zeta1_amp)):
        got = getattr(out, name).values
        assert np.max(np.abs(got - amp * cos)) <= 1e-11 * max(abs(amp), 1.0), name


def test_transforms_reject_the_other_coordinates():
    grid = Grid(64, 16.0)
    f = Original(zeros(grid), zeros(grid), zeros(grid), zeros(grid))
    g = normal_transform(f, BENCH)
    assert isinstance(g, Normal)
    with pytest.raises(CoordinateMismatch):
        inverse_transform(f, BENCH)
    with pytest.raises(CoordinateMismatch):
        normal_transform(g, BENCH)


def test_each_field_is_transformed_once(monkeypatch):
    """The transforms and energies read each field's cached spectrum."""
    calls = []

    def counted(transform):
        def call(*args, **kwargs):
            calls.append(1)
            return transform(*args, **kwargs)
        return call

    grid = Grid(64, 16.0)
    rng = np.random.default_rng(5)
    f = Original(*(RealField(grid, rng.standard_normal(grid.n)) for _ in range(4)))
    for name in ("fft", "rfft"):  # a real field's spectrum is one rfft
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    g = normal_transform(f, BENCH)
    eval_H2(f, BENCH), eval_H3(f, BENCH), h3_terms(f, BENCH)
    eval_H2(g, BENCH), eval_H3(g, BENCH)
    inverse_transform(g, BENCH)
    assert len(calls) == 8  # one per field of f and of g


def test_four_field_requires_shared_grid():
    a, b = Grid(64, 16.0), Grid(128, 16.0)
    with pytest.raises(ValueError):
        Original(zeros(a), zeros(a), zeros(a), zeros(b))


# --------------------------------------------------------------------------
# quadratic energy
# --------------------------------------------------------------------------

def test_h2_zero_field():
    grid = Grid(64, 16.0)
    f = Original(zeros(grid), zeros(grid), zeros(grid), zeros(grid))
    assert eval_H2(f, BENCH) == 0.0


def test_h2_pure_mu_is_half_l2():
    grid = Grid(128, 20.0)
    mu = band_limited_noise(grid, RNG, amplitude=0.4)
    f = Normal(mu, zeros(grid), zeros(grid), zeros(grid))
    want = 0.5 * float(inner(mu, mu).real)
    assert eval_H2(f, BENCH) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("params", [BENCH, ANDAMAN])
@pytest.mark.parametrize("n", [128, 256])
def test_h2_coordinate_equivalence(params, n):
    grid = Grid(n, 40.0)
    for _ in range(5):
        f = random_four(grid, params)
        h2_orig = eval_H2(f, params)
        h2_norm = eval_H2(normal_transform(f, params), params)
        assert abs(h2_orig - h2_norm) / abs(h2_orig) <= 1e-10


# --------------------------------------------------------------------------
# cubic energy
# --------------------------------------------------------------------------

def test_h3_vanishes_without_elevation():
    grid = Grid(128, 20.0)
    f = Original(zeros(grid), band_limited_noise(grid, RNG),
                           zeros(grid), band_limited_noise(grid, RNG))
    assert abs(eval_H3(f, BENCH)) <= 1e-14


@pytest.mark.parametrize("params", [BENCH, ANDAMAN])
def test_h3_coordinate_equivalence(params):
    grid = Grid(128, 40.0)
    for _ in range(5):
        f = random_four(grid, params)
        h3_orig = eval_H3(f, params)
        h3_norm = eval_H3(normal_transform(f, params), params)
        assert abs(h3_orig - h3_norm) / abs(h3_orig) <= 1e-10


def test_kinetic_split_signed_sum(params=BENCH):
    grid = Grid(128, 40.0)
    for _ in range(5):
        f = random_four(grid, params)
        parts = h3_terms(f, params)
        assert set(parts) == {"I", "II", "III"}
        total = parts["I"] - parts["II"] + parts["III"]
        want = eval_H3(f, params)
        assert abs(total - want) / abs(want) <= 1e-10


def test_normal_mode_terms_partition_h3():
    grid = Grid(128, 40.0)
    f = normal_transform(random_four(grid, BENCH), BENCH)
    parts = h3_terms(f, BENCH)
    assert set(parts) == {"R1", "R2", "R3", "R4", "R5"}
    assert sum(parts.values()) == pytest.approx(eval_H3(f, BENCH), rel=1e-12)


def test_homogeneity():
    grid = Grid(128, 40.0)
    f = random_four(grid, BENCH)
    lam = 1.7

    def scale(g):
        return Original(*(RealField(grid, lam * getattr(g, n).values)
                          for n in ("eta", "xi", "eta1", "xi1")))

    h2, h3 = eval_H2(f, BENCH), eval_H3(f, BENCH)
    assert eval_H2(scale(f), BENCH) == pytest.approx(lam ** 2 * h2, rel=1e-12)
    assert eval_H3(scale(f), BENCH) == pytest.approx(lam ** 3 * h3, rel=1e-12)


# --------------------------------------------------------------------------
# first-order DNO operators
# --------------------------------------------------------------------------

def test_dno_zero_elevation_gives_zero_operators():
    grid = Grid(128, 20.0)
    ops = dno_first_order(BENCH, zeros(grid), zeros(grid))
    phi = band_limited_noise(grid, RNG)
    assert isinstance(ops, DnoFirstOrder)
    for name in ("g1", "g11_10", "g12_10", "g21_10", "g22_10",
                 "g11_01", "g12_01", "g21_01", "g22_01"):
        out = getattr(ops, name)(phi)
        assert np.max(np.abs(out.values)) == 0.0, name


def test_dno_linearity_in_elevation():
    grid = Grid(128, 20.0)
    eta = band_limited_noise(grid, RNG, amplitude=0.05)
    eta2 = RealField(grid, 2.0 * eta.values)
    phi = band_limited_noise(grid, RNG)
    one = dno_first_order(BENCH, eta, zeros(grid)).g1(phi).values
    two = dno_first_order(BENCH, eta2, zeros(grid)).g1(phi).values
    assert np.max(np.abs(two - 2.0 * one)) <= 1e-12 * max(1.0, np.max(np.abs(two)))


def test_dno_g1_self_adjoint():
    grid = Grid(128, 20.0)
    eta = band_limited_noise(grid, RNG, amplitude=0.05)
    ops = dno_first_order(BENCH, eta, zeros(grid))
    phi = band_limited_noise(grid, RNG)
    psi = band_limited_noise(grid, RNG)
    lhs = inner(ops.g1(phi), psi)
    rhs = inner(phi, ops.g1(psi))
    assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)


def _multiplier(symbol, values):
    # keep the product complex: the symbol k stands for -i d/dx, which maps
    # real samples to imaginary ones, so realness only returns at the end
    return np.fft.ifft(symbol * np.fft.fft(values))


def test_dno_g11_01_identity():
    """First-order-in-eta1 entry equals -G12 (eta1 . (G12 phi)) rebuilt by hand."""
    grid = Grid(128, 20.0)
    eta1 = band_limited_noise(grid, RNG, amplitude=0.05)
    phi = band_limited_noise(grid, RNG)
    ops = dno_first_order(BENCH, zeros(grid), eta1)
    st_ = symbol_table(BENCH, grid.k)
    mask = dealias_mask(grid)
    inner_app = _multiplier(st_.g12, phi.values)
    product = np.fft.ifft(np.where(mask, np.fft.fft(eta1.values * inner_app), 0.0))
    want = -_multiplier(st_.g12, product).real
    got = ops.g11_01(phi).values
    assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))


def test_dno_g11_10_identity():
    """g11_10 equals G11 eta G11 - D eta D assembled from bare multipliers."""
    grid = Grid(128, 20.0)
    eta = band_limited_noise(grid, RNG, amplitude=0.05)
    phi = band_limited_noise(grid, RNG)
    ops = dno_first_order(BENCH, eta, zeros(grid))
    st_ = symbol_table(BENCH, grid.k)
    mask = dealias_mask(grid)

    def sandwich(sym):
        v = _multiplier(sym, phi.values)
        cut = np.fft.ifft(np.where(mask, np.fft.fft(eta.values * v), 0.0))
        return _multiplier(sym, cut)

    want = (sandwich(st_.g11) - sandwich(grid.k)).real
    got = ops.g11_10(phi).values
    assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))


def test_dno_takes_the_symbol_evaluator_by_argument():
    """A perturbed g11 reaches g11_10 through the symbols argument."""
    grid = Grid(128, 20.0)
    eta = band_limited_noise(grid, RNG, amplitude=0.05)
    phi = band_limited_noise(grid, RNG)
    plain = dno_first_order(BENCH, eta, zeros(grid)).g11_10(phi).values
    bent = dno_first_order(BENCH, eta, zeros(grid), perturbed("g11")).g11_10(phi).values
    assert np.max(np.abs(bent - plain)) > 1e-6 * np.max(np.abs(plain))


def test_dno_requires_shared_grid():
    with pytest.raises(ValueError):
        dno_first_order(BENCH, zeros(Grid(64, 16.0)), zeros(Grid(128, 16.0)))


# --------------------------------------------------------------------------
# randomized properties
# --------------------------------------------------------------------------

if HAS_HYPOTHESIS:

    @given(st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity_random_lambda(lam):
        grid = Grid(64, 16.0)
        f = random_four(grid, BENCH, rng=np.random.default_rng(77))
        scaled = Original(*(RealField(grid, lam * getattr(f, n).values)
                            for n in ("eta", "xi", "eta1", "xi1")))
        h3 = eval_H3(f, BENCH)
        assert eval_H3(scaled, BENCH) == pytest.approx(lam ** 3 * h3, rel=1e-11)

"""Numerical identity checks behind every algebraic step of the model.

CHECKS names every row once, in report order, with the group that
computes it and its tolerance.  `run_suite` runs only the groups of the
rows it is asked for.  The four groups:

    symbols      dispersion quartic, eigen-decoupling of the kinetic block,
                 the mixing-multiplier identities, resonance, the dispersion
                 constants (omega1'' and Omega0,1,2 from the dispersion
                 relations), kappa8's two terms cancelling, B4^2 = B1^2 and
                 B5^2 = rho1^2 B2^2 (so kappa1,4,6 = 0), kt..kt4 against
                 their small-gamma limits (so kappa, kappa2,3,5,7)
    hamiltonian  H2/H3 equal in original and normal coordinates, the
                 I - II + III split of H3, the transform round trip
    gauge        unimodularity, the phase ODE, derivative reconstruction
    projection   Hilbert transform and wavenumber-projection identities

The symbols and hamiltonian groups run at the given parameters and again
at the bench stratification BENCH, and report the worse residual of the
two per identity.  The sample is fixed: the symbol identities hold at the
wavenumbers K, the small-k expansion is fitted at h1 k = EXPANSION_X,
and the others run on FIELDS random fields on GRID drawn from SEED.  The
symbol-table evaluator is an argument: `perturbed` builds one that
scales a single symbol by 1.001, and a suite that still passes with it
would not constrain that symbol.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Collection

import numpy as np

from .coeffs import (
    ModelCoefficients,
    PhysicalParams,
    SymbolTable,
    asymptotic_coefficients,
    derive_coefficients,
    dispersion_internal,
    dispersion_surface,
    expansion_constants,
    omega1_prime,
    quartic_residual,
    resonance_residual,
    symbol_table,
)
from .gauge import gauge, gauge_ode_residual, reconstruct_dr
from .hamiltonian import (
    Original,
    Symbols,
    eval_H2,
    eval_H3,
    h3_terms,
    inverse_transform,
    normal_transform,
)
from .spectral import Grid, RealField, absd, band_limited_noise, deriv, hilbert, project

__all__ = ["BENCH", "CHECKS", "EXPANSION_X", "FIELDS", "GRID", "K", "SEED", "CheckResult",
           "SYMBOL_NAMES", "kappa8_gap", "perturbed", "run_suite"]

#: The bench stratification, where h1 k is of order one on the check grid.
#: With h1 = 500 m (the presets) every wavenumber of the 40-m GRID
#: gives h1 k >= 78.5, so csch(h1 k) <= 1.6e-34 and the layer-coupling
#: symbols (g12, A2, A5, B1, B3, B4) leave every identity untouched; here
#: the layers couple and the H2/H3 equivalences pin them.
BENCH = PhysicalParams(g=1.0, h1=1.0, rho=2.0, rho1=1.0)

#: The check sample: wavenumbers for the symbol identities, and the grid,
#: count and seed of the random fields the other identities are evaluated on.
K = np.geomspace(1e-3, 10.0, 100)
GRID = Grid(256, 40.0)
FIELDS = 5
SEED = 0
#: h1 k at which omega^2 / k^2 is fitted by a polynomial of degree
#: EXPANSION_DEGREE: 24 Chebyshev points on (0, 0.3).  Its first three
#: coefficients come out within 1e-10 of Omega0 over the validated domain.
EXPANSION_X = 0.15 * (1.0 - np.cos(np.pi * (np.arange(24) + 0.5) / 24))
EXPANSION_DEGREE = 12


#: Every check in report order: its name, the group that computes it and
#: its tolerance.  A group returns its residuals in the order of its rows.
CHECKS = {
    "dispersion-quartic": ("symbols", 1e-10),
    "eigen-decoupling": ("symbols", 1e-10),
    "mixing-unit-plus": ("symbols", 1e-12),
    "mixing-unit-minus": ("symbols", 1e-12),
    "mixing-symplectic": ("symbols", 1e-12),
    "mixing-orthogonal": ("symbols", 1e-12),
    "resonance": ("symbols", 1e-12),
    "dispersion-constants": ("symbols", 1e-7),
    "kappa8-zero": ("symbols", 1e-12),
    "symbol-b4-b1": ("symbols", 1e-12),
    "symbol-b5-b2": ("symbols", 1e-12),
    "small-gamma-limit": ("symbols", 1e-10),
    "h2-equivalence": ("hamiltonian", 1e-10),
    "h3-equivalence": ("hamiltonian", 1e-10),
    "cubic-decomposition": ("hamiltonian", 1e-10),
    "transform-roundtrip": ("hamiltonian", 1e-12),
    "gauge-unimodular": ("gauge", 1e-12),
    "gauge-ode": ("gauge", 1e-8),
    "gauge-reconstruction": ("gauge", 1e-10),
    "hilbert-squared": ("projection", 1e-12),
    "projection-partition": ("projection", 1e-12),
    "hilbert-projection-split": ("projection", 1e-12),
    "absd-factorization": ("projection", 1e-12),
}


@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return np.isfinite(self.residual) and self.residual <= self.tol


def _rows(group: str, *residuals: float) -> list[CheckResult]:
    """The CHECKS rows of `group` with their residuals, given in table order."""
    rows = [(name, tol) for name, (of, tol) in CHECKS.items() if of == group]
    return [CheckResult(name, res, tol) for (name, tol), res in zip(rows, residuals, strict=True)]


# theta is consumed while the table is built, so perturbing it afterwards
# would change nothing; k is the abscissa, not a symbol
SYMBOL_NAMES = tuple(f.name for f in dataclasses.fields(SymbolTable)
                     if f.name not in ("k", "theta"))


def perturbed(name: str) -> Symbols:
    """symbol_table with the one entry `name` scaled by 1.001 (a mutation test)."""
    if name not in SYMBOL_NAMES:
        raise ValueError(
            f"{name!r} is not a symbol; choose from {', '.join(SYMBOL_NAMES)}")

    def scaled(params: PhysicalParams, k) -> SymbolTable:
        st = symbol_table(params, k)
        return dataclasses.replace(st, **{name: getattr(st, name) * 1.001})

    return scaled


def _random_four(rng: np.random.Generator, scale: float) -> Original:
    def one() -> RealField:
        return band_limited_noise(GRID, rng, amplitude=scale)
    return Original(one(), one(), one(), one())


def _square_gap(x: np.ndarray, y: np.ndarray) -> float:
    """Largest |x^2 - y^2| / max(x^2, y^2) over the samples where either is nonzero."""
    x2, y2 = x * x, y * y
    top = np.maximum(x2, y2)
    return float(np.max(np.abs(x2 - y2) / np.where(top > 0.0, top, 1.0)))


def _dispersion_constants(params: PhysicalParams, coeffs: ModelCoefficients) -> float:
    """Worst relative error of omega1_pp and of Omega0, Omega1, Omega2.

    omega1_pp is checked against a central difference of omega1_prime at
    k0 (step 1e-4 k0, truncation error 6e-9).  The Omegas are the small-k
    expansion omega^2 / k^2 = Omega0 + Omega1 k + Omega2 k^2 + O(k^3) of
    `dispersion_internal`, whose coefficients in x = h1 k are Omega0,
    Omega1 / h1 and Omega2 / h1^2; each is checked against the fitted one
    relative to Omega0, so an Omega2 near zero stays checked.
    """
    k0, dk = coeffs.k0, 1e-4 * coeffs.k0
    central = (omega1_prime(params, k0 + dk) - omega1_prime(params, k0 - dk)) / (2.0 * dk)
    k = EXPANSION_X / params.h1
    fit = np.polynomial.polynomial.polyfit(
        EXPANSION_X, dispersion_internal(params, k) / (k * k), EXPANSION_DEGREE)
    model = (coeffs.Omega0, coeffs.Omega1 / params.h1, coeffs.Omega2 / params.h1 ** 2)
    return max(abs(central - coeffs.omega1_pp) / abs(coeffs.omega1_pp),
               *(abs(f - m) / coeffs.Omega0 for f, m in zip(fit, model)))


def kappa8_gap(params: PhysicalParams) -> float:
    """|t1 + t2| / max(|t1|, |t2|) for kappa8's two terms, which cancel
    identically but are each of size h1 sqrt(g), from `expansion_constants`."""
    g, rho1, ec = params.g, params.rho1, expansion_constants(params)
    t1 = rho1 / (2.0 * math.sqrt(g * (params.rho - rho1))) * ec.b_plus_1 * ec.A4_0 ** 2
    t2 = ec.a_plus_1 * ec.A5_0 ** 2 / (2.0 * rho1 * math.sqrt(g * rho1))
    return abs(t1 + t2) / max(abs(t1), abs(t2))


def _small_gamma_gap(params: PhysicalParams, coeffs: ModelCoefficients) -> float:
    """Worst relative gap of kt..kt4 to their small-gamma limits at the gamma
    = 0.01 twin (rho1 = 0.99 rho), where the limits hold to about 1e-20."""
    twin = PhysicalParams(params.g, params.h1, params.rho, 0.99 * params.rho)
    exact = derive_coefficients(twin, coeffs.epsilon, coeffs.delta)
    limit = asymptotic_coefficients(twin)
    return float(np.max([abs(getattr(exact, n) - v) / abs(v)
                         for n, v in dataclasses.asdict(limit).items()]))


def _checks_symbols(params: PhysicalParams, coeffs: ModelCoefficients,
                    k: np.ndarray, symbols: Symbols) -> list[CheckResult]:
    st = symbols(params, k)
    w2_int = dispersion_internal(params, k)
    w2_sur = dispersion_surface(params, k)
    quartic = max(float(np.max(quartic_residual(params, k, w2_int))),
                  float(np.max(quartic_residual(params, k, w2_sur))))
    # closed-form eigenvalues of [[qa, qb], [qb, qc]] against the two branches
    half_tr = 0.5 * (st.qa + st.qc)
    disc = np.sqrt(np.maximum(half_tr * half_tr - (st.qa * st.qc - st.qb * st.qb), 0.0))
    lo, hi = half_tr - disc, half_tr + disc
    scale = np.maximum(np.abs(hi), 1e-300)
    eigen = max(float(np.max(np.abs(lo - st.omega2) / scale)),
                float(np.max(np.abs(hi - st.omega1_sq) / scale)))
    unit_p = float(np.max(np.abs(st.a_plus ** 2 + st.b_plus ** 2 - 1.0)))
    unit_m = float(np.max(np.abs(st.a_minus ** 2 + st.b_minus ** 2 - 1.0)))
    sympl = float(np.max(np.abs(st.a_minus * st.b_plus - st.a_plus * st.b_minus - 1.0)))
    ortho = float(np.max(np.abs(st.a_plus * st.a_minus + st.b_plus * st.b_minus)))
    return _rows("symbols", quartic, eigen, unit_p, unit_m, sympl, ortho,
                 resonance_residual(params), _dispersion_constants(params, coeffs),
                 kappa8_gap(params), _square_gap(st.B4, st.B1),
                 _square_gap(st.B5, params.rho1 * st.B2), _small_gamma_gap(params, coeffs))


def _checks_hamiltonian(params: PhysicalParams, symbols: Symbols) -> list[CheckResult]:
    rng = np.random.default_rng(SEED)
    worst_h2 = worst_h3 = worst_split = worst_round = 0.0
    for _ in range(FIELDS):
        f = _random_four(rng, scale=0.05 * params.h1)
        fn = normal_transform(f, params, symbols)
        h2_o, h2_n = eval_H2(f, params, symbols), eval_H2(fn, params, symbols)
        h3_o, h3_n = eval_H3(f, params, symbols), eval_H3(fn, params, symbols)
        worst_h2 = max(worst_h2, abs(h2_o - h2_n) / max(abs(h2_o), 1e-300))
        worst_h3 = max(worst_h3, abs(h3_o - h3_n) / max(abs(h3_o), 1e-300))
        parts = h3_terms(f, params, symbols)
        split = parts["I"] - parts["II"] + parts["III"]
        worst_split = max(worst_split, abs(split - h3_o) / max(abs(h3_o), 1e-300))
        back = inverse_transform(fn, params, symbols)
        for field in dataclasses.fields(f):
            orig = getattr(f, field.name).values
            got = getattr(back, field.name).values
            ref = max(float(np.max(np.abs(orig))), 1e-300)
            worst_round = max(worst_round, float(np.max(np.abs(got - orig))) / ref)
    return _rows("hamiltonian", worst_h2, worst_h3, worst_split, worst_round)


def _checks_gauge(coeffs: ModelCoefficients) -> list[CheckResult]:
    rng = np.random.default_rng(SEED + 1)
    worst_mod = worst_ode = worst_rec = 0.0
    for _ in range(FIELDS):
        # narrow band keeps the oscillatory gauge phase resolved on the grid
        r = band_limited_noise(GRID, rng, amplitude=0.1, keep=1.0 / 6.0)
        gs = gauge(r, coeffs)
        sup = float(np.max(np.abs(r.values)))
        worst_mod = max(worst_mod, float(np.max(np.abs(np.abs(gs.psi_plus.values) - 1.0))))
        # divide out the stiff phase-equation coefficient so the residual
        # measures cancellation quality, not the magnitude of 3a
        worst_ode = max(worst_ode,
                        gauge_ode_residual(gs, coeffs) / (3.0 * abs(coeffs.a) * sup))
        dr = deriv(r).values
        rec = reconstruct_dr(gs).values
        ref = max(float(np.max(np.abs(dr))), 1e-300)
        worst_rec = max(worst_rec, float(np.max(np.abs(rec - dr))) / ref)
    return _rows("gauge", worst_mod, worst_ode, worst_rec)


def _checks_projection() -> list[CheckResult]:
    rng = np.random.default_rng(SEED + 2)
    worst_h2id = worst_partition = worst_hsplit = worst_absd = 0.0
    for _ in range(FIELDS):
        f = band_limited_noise(GRID, rng, amplitude=1.0)
        hh = hilbert(hilbert(f)).values
        worst_h2id = max(worst_h2id, float(np.max(np.abs(hh + f.values))))
        both = project(f, 1).values + project(f, -1).values
        worst_partition = max(worst_partition, float(np.max(np.abs(both - f.values))))
        split = -1j * (project(f, 1).values - project(f, -1).values)
        worst_hsplit = max(worst_hsplit, float(np.max(np.abs(split - hilbert(f).values))))
        lhs = absd(f).values
        rhs = deriv(hilbert(f)).values
        worst_absd = max(worst_absd, float(np.max(np.abs(lhs - rhs))))
    return _rows("projection", worst_h2id, worst_partition, worst_hsplit, worst_absd)


def _worse(rows: list[CheckResult], bench_rows: list[CheckResult]) -> list[CheckResult]:
    # NaN-propagating, so a non-finite residual at either set fails the row
    return [CheckResult(a.name, float(np.maximum(a.residual, b.residual)), a.tol)
            for a, b in zip(rows, bench_rows, strict=True)]


def run_suite(params: PhysicalParams, coeffs: ModelCoefficients,
              symbols: Symbols = symbol_table,
              checks: Collection[str] | None = None) -> list[CheckResult]:
    """The CHECKS rows named in `checks` (all by default) on the fixed
    sample, in report order.  Only their groups run, and an empty or
    unknown selection raises ValueError before any does.  The symbols and
    hamiltonian rows carry the worse residual of params and BENCH.
    """
    checks = CHECKS.keys() if checks is None else checks
    unknown = [name for name in checks if name not in CHECKS]
    if unknown or not checks:
        what = f"unknown checks {', '.join(map(repr, unknown))}" if unknown else "empty selection"
        raise ValueError(f"{what}; choose from {', '.join(CHECKS)}")
    groups = {
        "symbols": lambda: _worse(
            _checks_symbols(params, coeffs, K, symbols),
            _checks_symbols(BENCH, derive_coefficients(BENCH, coeffs.epsilon, coeffs.delta),
                            K, symbols)),
        "hamiltonian": lambda: _worse(
            _checks_hamiltonian(params, symbols),
            _checks_hamiltonian(BENCH, symbols)),
        "gauge": lambda: _checks_gauge(coeffs),
        "projection": _checks_projection,
    }
    selected = dict.fromkeys(CHECKS[name][0] for name in CHECKS if name in checks)
    return [result for group in selected for result in groups[group]()
            if result.name in checks]

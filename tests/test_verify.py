"""The identity checks as a library: every constrained symbol must be caught.

Runs bonls.verify directly, at the parameters `bonls verify` uses by
default; the sample the checks run on is the module's own (K, GRID,
FIELDS, SEED), as it is for the command.
"""

import dataclasses

import numpy as np
import pytest

from bonls import coeffs, verify
from bonls.coeffs import PhysicalParams, derive_coefficients, symbol_table
from bonls.spectral import RealField
from bonls.verify import (
    CHECKS,
    K,
    SYMBOL_NAMES,
    _checks_symbols,
    perturbed,
    run_suite,
)

try:
    from hypothesis import given, settings, strategies as st
    HAS_HYPOTHESIS = True
except ImportError:
    HAS_HYPOTHESIS = False

PARAMS = PhysicalParams(g=9.81, h1=500.0, rho=1000.0, rho1=997.0)
COEFFS = derive_coefficients(PARAMS, epsilon=0.1, delta=0.25)


def failing(symbols=symbol_table):
    results = run_suite(PARAMS, COEFFS, symbols)
    return [r.name for r in results if not r.ok]


@pytest.mark.parametrize("name", SYMBOL_NAMES)
def test_perturbed_symbol_fails_a_check(name):
    # the layer-coupling symbols (g12, A2, A5, B1, B3, B4) are caught because
    # the symbol and Hamiltonian rows run at the unit twin, where h1 k is of
    # order one on the check grid and the layers couple
    assert failing(perturbed(name))
    # the perturbation lives in the argument only: a plain run right after passes
    assert failing() == []


@pytest.mark.parametrize("which", ["c0", "k0"])
def test_resonance_row_checks_the_model_carrier(monkeypatch, which):
    # one formula gives (c0, k0) to the coefficients (at the unit twin, then
    # in the given units) and to the resonance row, so a 1% error in either
    # fails the suite
    carrier = coeffs._carrier

    def off(params):
        c0, k0 = carrier(params)
        return (1.01 * c0, k0) if which == "c0" else (c0, 1.01 * k0)

    monkeypatch.setattr(coeffs, "_carrier", off)
    model = derive_coefficients(PARAMS, epsilon=0.1, delta=0.25)
    assert (model.c0, model.k0) == pytest.approx(off(PARAMS), rel=1e-15)
    rows = {r.name: r for r in run_suite(PARAMS, model)}
    assert not rows["resonance"].ok


@pytest.mark.parametrize("name", ["Omega0", "Omega1", "Omega2", "omega1_pp"])
def test_dispersion_constants_row_checks_the_model(name):
    # the row ties omega1_pp to omega1_prime and the Omegas to the small-k
    # expansion of dispersion_internal, so a 1% error in any one fails it
    model = dataclasses.replace(COEFFS, **{name: 1.01 * getattr(COEFFS, name)})
    rows = {r.name: r for r in run_suite(PARAMS, model)}
    assert not rows["dispersion-constants"].ok
    assert [r.name for r in rows.values() if not r.ok] == ["dispersion-constants"]


@pytest.mark.parametrize("name", ["kt", "kt1", "kt2", "kt3", "kt4"])
def test_small_gamma_row_checks_every_kt(monkeypatch, name):
    # the row compares the derivation's kt..kt4 at the gamma = 0.01 twin
    # with their small-gamma limits, so a 1% error in any one fails it
    def off(params, epsilon, delta):
        model = derive_coefficients(params, epsilon, delta)
        return dataclasses.replace(model, **{name: 1.01 * getattr(model, name)})

    monkeypatch.setattr(verify, "derive_coefficients", off)
    rows = {r.name: r for r in run_suite(PARAMS, COEFFS)}
    assert [r.name for r in rows.values() if not r.ok] == ["small-gamma-limit"]


@pytest.mark.parametrize("name, nan_of, row", [
    ("eval_H2", lambda h2: np.nan, "h2-equivalence"),
    ("gauge_ode_residual", lambda residual: np.nan, "gauge-ode"),
    ("absd", lambda f: RealField(f.grid, np.full(f.grid.n, np.nan)), "absd-factorization"),
], ids=["hamiltonian", "gauge", "projection"])
def test_a_nan_on_one_sample_fails_its_row(monkeypatch, name, nan_of, row):
    # each row of a field group is the largest residual over FIELDS samples;
    # a NaN on the third call (the second sample) must not be dropped
    real, calls = getattr(verify, name), []

    def third_nan(*args):
        calls.append(name)
        return nan_of(real(*args)) if len(calls) == 3 else real(*args)

    monkeypatch.setattr(verify, name, third_nan)
    rows = {r.name: r for r in run_suite(PARAMS, COEFFS)}
    assert np.isnan(rows[row].residual), rows[row]
    assert [r.name for r in rows.values() if not r.ok] == [row]


@pytest.mark.filterwarnings("error")
def test_a_nan_in_a_later_term_fails_dispersion_constants(monkeypatch):
    # the Omega2 term of the fit comes after omega1_pp's, Omega0's and Omega1's
    polyfit = np.polynomial.polynomial.polyfit

    def nan_omega2(*args):
        fit = polyfit(*args)
        fit[2] = np.nan
        return fit

    monkeypatch.setattr(np.polynomial.polynomial, "polyfit", nan_omega2)
    [row] = run_suite(PARAMS, COEFFS, checks=["dispersion-constants"])
    assert np.isnan(row.residual) and not row.ok


@pytest.mark.filterwarnings("error")
def test_a_nan_in_a_later_term_fails_eigen_decoupling():
    # the surface branch's term comes after the internal one's
    def nan_surface(params, k):
        st = symbol_table(params, k)
        return dataclasses.replace(st, omega1_sq=np.where(k == k[50], np.nan, st.omega1_sq))

    [row] = run_suite(PARAMS, COEFFS, nan_surface, checks=["eigen-decoupling"])
    assert np.isnan(row.residual) and not row.ok


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_gauge_rows_are_nan_and_fail_on_the_a_zero_line():
    # the gauge is undefined at a = 0 (rho1/rho = 1/sqrt 3), so each of its
    # rows reads NaN, which no tolerance passes
    names = [name for name, (group, _tol) in CHECKS.items() if group == "gauge"]
    rows = run_suite(PARAMS, dataclasses.replace(COEFFS, a=0.0), checks=names)
    assert [r.name for r in rows] == names and len(rows) == 3
    assert all(np.isnan(r.residual) and not r.ok for r in rows)


def test_a_selection_runs_only_its_groups(monkeypatch):
    def no_group(*args):
        raise AssertionError("a group outside the selection ran")

    monkeypatch.setattr(verify, "_checks_symbols", no_group)
    monkeypatch.setattr(verify, "_checks_hamiltonian", no_group)
    rows = run_suite(PARAMS, COEFFS, checks=["gauge-ode"])
    assert [r.name for r in rows] == ["gauge-ode"] and rows[0].ok


def test_a_selection_across_groups_keeps_report_order_and_residuals():
    full = run_suite(PARAMS, COEFFS)
    assert [r.name for r in full] == list(CHECKS)
    checks = ["absd-factorization", "gauge-ode", "h3-equivalence", "resonance",
              "transform-roundtrip"]
    rows = run_suite(PARAMS, COEFFS, checks=checks)
    assert rows == [r for r in full if r.name in checks]
    assert [r.name for r in rows] == ["resonance", "h3-equivalence", "transform-roundtrip",
                                      "gauge-ode", "absd-factorization"]


def test_the_symbol_and_hamiltonian_groups_run_once_at_the_twin(monkeypatch):
    calls = {"_checks_symbols": [], "_checks_hamiltonian": []}
    for name, seen in calls.items():
        def counted(params, *args, _group=getattr(verify, name), _seen=seen):
            _seen.append(params)
            return _group(params, *args)
        monkeypatch.setattr(verify, name, counted)
    assert all(r.ok for r in run_suite(PARAMS, COEFFS))
    assert calls == {name: [coeffs.unit_twin(PARAMS)] for name in calls}


@pytest.mark.filterwarnings("error")
def test_symbol_rows_stay_finite_at_extreme_finite_parameters():
    # at this scale w^2 and the quartic's terms leave the floats in the
    # given units; at the twin every symbol row is a roundoff residual
    params = PhysicalParams(g=1.744444879287265e+178, h1=5.767288889690032e-20,
                            rho=6.598665165024179e-119, rho1=1.8372373876199075e-119)
    rows = {r.name: r for r in run_suite(params, derive_coefficients(params, 0.1, 0.25))}
    assert [name for name, r in rows.items() if not r.ok] in ([], ["gauge-ode"])
    for name in ("dispersion-quartic", "eigen-decoupling"):
        assert np.isfinite(rows[name].residual) and rows[name].ok, rows[name]


if HAS_HYPOTHESIS:

    # the validated domain: any g and h1 over several decades, density
    # ratios from 1e-6, log-uniform to 1e-2, to within 1e-8 of 1
    domain = st.builds(
        lambda g, h1, rho, ratio: PhysicalParams(g=g, h1=h1, rho=rho, rho1=ratio * rho),
        g=st.floats(min_value=0.1, max_value=100.0),
        h1=st.floats(min_value=0.01, max_value=1e4),
        rho=st.floats(min_value=1.0, max_value=1000.0),
        ratio=st.one_of(
            st.floats(min_value=-6.0, max_value=-2.0).map(lambda e: 10.0 ** e),
            st.floats(min_value=0.01, max_value=0.999),
            st.floats(min_value=-8.0, max_value=-2.0).map(lambda e: 1.0 - 10.0 ** e)),
    )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(domain)
    @settings(max_examples=60, deadline=None)
    def test_symbol_square_identities_hold_on_the_domain(params):
        # B4^2 = B1^2 and B5^2 = rho1^2 B2^2 make kappa1, kappa4, kappa6 zero;
        # the eigenvalues of the kinetic block give A1, A2, B1 and B2
        k = np.geomspace(1e-3, 1e3, 50) / params.h1
        coeffs = derive_coefficients(params, epsilon=0.1, delta=0.25)
        rows = {r.name: r for r in _checks_symbols(params, coeffs, k, symbol_table)}
        for name in ("symbol-b4-b1", "symbol-b5-b2", "eigen-decoupling"):
            assert rows[name].ok, rows[name]

    @given(domain)
    @settings(max_examples=60, deadline=None)
    def test_dispersion_constants_hold_on_the_domain(params):
        coeffs = derive_coefficients(params, epsilon=0.1, delta=0.25)
        rows = {r.name: r for r in _checks_symbols(params, coeffs, K, symbol_table)}
        assert rows["dispersion-constants"].ok, rows["dispersion-constants"]

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
from bonls.verify import (
    CHECKS,
    K,
    SYMBOL_NAMES,
    CheckResult,
    _checks_symbols,
    _worse,
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
    # the layer-coupling symbols (g12, A2, A5, B1, B3, B4) are caught only
    # through the suite's second parameter set, the bench stratification
    assert failing(perturbed(name))
    # the perturbation lives in the argument only: a plain run right after passes
    assert failing() == []


@pytest.mark.parametrize("which", ["c0", "k0"])
def test_resonance_row_checks_the_model_carrier(monkeypatch, which):
    # one formula gives (c0, k0) to the coefficients and to the resonance
    # row, so a 1% error in either fails the suite
    carrier = coeffs._carrier

    def off(params):
        c0, k0 = carrier(params)
        return (1.01 * c0, k0) if which == "c0" else (c0, 1.01 * k0)

    monkeypatch.setattr(coeffs, "_carrier", off)
    model = derive_coefficients(PARAMS, epsilon=0.1, delta=0.25)
    assert (model.c0, model.k0) == off(PARAMS)
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


def test_rows_carry_the_worse_residual_of_both_sets():
    # a NaN at either parameter set fails the row, whichever side it is on
    small, nan = CheckResult("x", 1e-20, 1e-12), CheckResult("x", float("nan"), 1e-12)
    assert not _worse([small], [nan])[0].ok
    assert not _worse([nan], [small])[0].ok
    assert _worse([small], [CheckResult("x", 3e-13, 1e-12)])[0].residual == 3e-13


if HAS_HYPOTHESIS:

    # the validated domain: any g and h1 over several decades, density
    # ratios from strong contrast to within 1e-8 of 1
    domain = st.builds(
        lambda g, h1, rho, ratio: PhysicalParams(g=g, h1=h1, rho=rho, rho1=ratio * rho),
        g=st.floats(min_value=0.1, max_value=100.0),
        h1=st.floats(min_value=0.01, max_value=1e4),
        rho=st.floats(min_value=1.0, max_value=1000.0),
        ratio=st.one_of(
            st.floats(min_value=0.01, max_value=0.999),
            st.floats(min_value=-8.0, max_value=-2.0).map(lambda e: 1.0 - 10.0 ** e)),
    )

    @given(domain)
    @settings(max_examples=60, deadline=None)
    def test_symbol_square_identities_hold_on_the_domain(params):
        # B4^2 = B1^2 and B5^2 = rho1^2 B2^2 make kappa1, kappa4, kappa6 zero
        k = np.geomspace(1e-3, 1e3, 50) / params.h1
        coeffs = derive_coefficients(params, epsilon=0.1, delta=0.25)
        rows = {r.name: r for r in _checks_symbols(params, coeffs, k, symbol_table)}
        for name in ("symbol-b4-b1", "symbol-b5-b2"):
            assert rows[name].residual <= 1e-12, (name, rows[name].residual)

    @given(domain)
    @settings(max_examples=60, deadline=None)
    def test_dispersion_constants_hold_on_the_domain(params):
        coeffs = derive_coefficients(params, epsilon=0.1, delta=0.25)
        rows = {r.name: r for r in _checks_symbols(params, coeffs, K, symbol_table)}
        assert rows["dispersion-constants"].ok, rows["dispersion-constants"]

"""The identity checks as a library: every constrained symbol must be caught.

Runs bonls.verify directly, with the parameters and sample sizes the
`bonls verify` command uses by default.
"""

import numpy as np
import pytest

from bonls.coeffs import PhysicalParams, derive_coefficients, symbol_table
from bonls.spectral import Grid
from bonls.verify import SYMBOL_NAMES, perturbed, run_suite

PARAMS = PhysicalParams(g=9.81, h1=500.0, rho=1000.0, rho1=997.0)
COEFFS = derive_coefficients(PARAMS, epsilon=0.1, delta=0.25)
K = np.geomspace(1e-3, 10.0, 100)
GRID = Grid(256, 40.0)
FIELDS = 5
SEED = 0

# g12, A2, A5, B1, B3 and B4 are not caught at this deep-water stratification
# (see test_layer_coupling_symbols_fail_at_bench_stratification)
CAUGHT = ("g0", "g11", "b0", "qa", "qb", "qc", "a_plus", "a_minus", "b_plus",
          "b_minus", "A1", "A3", "A4", "B2", "B5", "omega2", "omega1_sq")


# the bench stratification: h1 k stays of order one on the window
BENCH_PARAMS = PhysicalParams(g=1.0, h1=1.0, rho=2.0, rho1=1.0)
BENCH_COEFFS = derive_coefficients(BENCH_PARAMS, epsilon=0.35, delta=0.25)
COUPLING = ("g12", "A2", "A5", "B1", "B3", "B4")


def failing(symbols=symbol_table, params=PARAMS, coeffs=COEFFS):
    results = run_suite("all", params, coeffs, K, GRID, FIELDS, SEED, symbols)
    return [r.name for r in results if not r.ok]


@pytest.mark.parametrize("name", CAUGHT)
def test_perturbed_symbol_fails_a_check(name):
    assert name in SYMBOL_NAMES
    assert failing(perturbed(name))
    # the perturbation lives in the argument only: a plain run right after passes
    assert failing() == []


@pytest.mark.parametrize("name", COUPLING)
def test_layer_coupling_symbols_fail_at_bench_stratification(name):
    # at h1 = 500 m the window's wavenumbers give h1 k >= 78.5, so
    # csch(h1 k) <= 1.6e-34 and these symbols leave every check untouched;
    # with h1 = 1 the layers couple and the H2/H3 equivalences pin them
    assert failing(perturbed(name), BENCH_PARAMS, BENCH_COEFFS)
    assert failing(symbol_table, BENCH_PARAMS, BENCH_COEFFS) == []

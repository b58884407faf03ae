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

# g12, A2, A5, B1, B3 and B4 are not constrained by any check yet
CAUGHT = ("g0", "g11", "b0", "qa", "qb", "qc", "a_plus", "a_minus", "b_plus",
          "b_minus", "A1", "A3", "A4", "B2", "B5", "omega2", "omega1_sq")


def failing(symbols=symbol_table):
    results = run_suite("all", PARAMS, COEFFS, K, GRID, FIELDS, SEED, symbols)
    return [r.name for r in results if not r.ok]


@pytest.mark.parametrize("name", CAUGHT)
def test_perturbed_symbol_fails_a_check(name):
    assert name in SYMBOL_NAMES
    assert failing(perturbed(name))
    # the perturbation lives in the argument only: a plain run right after passes
    assert failing() == []

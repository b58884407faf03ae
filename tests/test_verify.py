"""The identity checks as a library: every constrained symbol must be caught.

Runs bonls.verify directly, with the parameters and sample sizes the
`bonls verify` command uses by default.
"""

import numpy as np
import pytest

from bonls.coeffs import PhysicalParams, derive_coefficients, symbol_table
from bonls.spectral import Grid
from bonls.verify import SYMBOL_NAMES, CheckResult, _worse, perturbed, run_suite

PARAMS = PhysicalParams(g=9.81, h1=500.0, rho=1000.0, rho1=997.0)
COEFFS = derive_coefficients(PARAMS, epsilon=0.1, delta=0.25)
K = np.geomspace(1e-3, 10.0, 100)
GRID = Grid(256, 40.0)
FIELDS = 5
SEED = 0


def failing(symbols=symbol_table):
    results = run_suite("all", PARAMS, COEFFS, K, GRID, FIELDS, SEED, symbols)
    return [r.name for r in results if not r.ok]


@pytest.mark.parametrize("name", SYMBOL_NAMES)
def test_perturbed_symbol_fails_a_check(name):
    # the layer-coupling symbols (g12, A2, A5, B1, B3, B4) are caught only
    # through the suite's second parameter set, the bench stratification
    assert failing(perturbed(name))
    # the perturbation lives in the argument only: a plain run right after passes
    assert failing() == []


def test_rows_carry_the_worse_residual_of_both_sets():
    # a NaN at either parameter set fails the row, whichever side it is on
    small, nan = CheckResult("x", 1e-20, 1e-12), CheckResult("x", float("nan"), 1e-12)
    assert not _worse([small], [nan])[0].ok
    assert not _worse([nan], [small])[0].ok
    assert _worse([small], [CheckResult("x", 3e-13, 1e-12)])[0].residual == 3e-13

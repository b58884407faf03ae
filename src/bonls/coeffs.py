"""Model coefficients for a two-layer deep-water wave system.

The lower fluid layer is infinitely deep with density ``rho``; the upper
layer has finite depth ``h1`` and lighter density ``rho1``.  Everything in
this module is a function of the four physical parameters (g, h1, rho,
rho1): linear dispersion relations, the per-wavenumber symbol table that
diagonalises the quadratic energy, and the scalar coefficients of the
long-wave / modulation model (a coupled Benjamin-Ono and Schrodinger
system).  SI units throughout.
"""

from __future__ import annotations

import decimal
import math
import warnings
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """A physical parameter or scaling parameter is out of range."""


class LimitUndefined(ArithmeticError):
    """A symbol evaluation produced NaN after limit substitution."""


# --------------------------------------------------------------------------
# physical parameters
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PhysicalParams:
    """Physical configuration: gravity, upper-layer depth, densities.

    Requires the stable configuration rho > rho1 > 0 (heavy fluid below),
    g > 0 and h1 > 0.
    """

    g: float
    h1: float
    rho: float
    rho1: float

    def __post_init__(self):
        if not self.g > 0:
            raise DomainError(f"g must be positive, got {self.g}")
        if not self.h1 > 0:
            raise DomainError(f"h1 must be positive, got {self.h1}")
        if not (self.rho > self.rho1 > 0):
            raise DomainError(
                "stable configuration requires rho > rho1 > 0, got "
                f"rho={self.rho}, rho1={self.rho1}"
            )

    @property
    def gamma(self) -> float:
        """Relative density jump 1 - rho1/rho, in (0, 1)."""
        return (self.rho - self.rho1) / self.rho


#: Andaman-sea-like configuration (density ratio 0.997, 500 m upper layer).
ANDAMAN = PhysicalParams(g=9.81, h1=500.0, rho=1000.0, rho1=997.0)

#: Oregon-shelf-like configuration (density ratio 0.998).
OREGON = PhysicalParams(g=9.81, h1=500.0, rho=1000.0, rho1=998.0)

PRESETS = {"andaman": ANDAMAN, "oregon": OREGON}


# --------------------------------------------------------------------------
# stable hyperbolic helpers
# --------------------------------------------------------------------------

def _x_coth(x):
    """x*coth(x) for real arrays, even in x, finite at 0 (value 1)."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    small = ax < 0.05
    xs = np.where(small, ax, 1.0)
    x2 = xs * xs
    series = 1.0 + x2 / 3.0 - x2 * x2 / 45.0 + 2.0 * x2 ** 3 / 945.0
    xl = np.where(small, 1.0, ax)
    e = np.exp(-2.0 * xl)
    direct = xl * (1.0 + e) / (1.0 - e)
    return np.where(small, series, direct)


def _x_csch(x):
    """x*csch(x) = x/sinh(x) for real arrays, even in x, 1 at x=0."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    small = ax < 0.05
    xs = np.where(small, ax, 1.0)
    x2 = xs * xs
    series = 1.0 - x2 / 6.0 + 7.0 * x2 * x2 / 360.0 - 31.0 * x2 ** 3 / 15120.0
    xl = np.where(small, 1.0, ax)
    e = np.exp(-2.0 * xl)
    direct = xl * 2.0 * np.exp(-xl) / (1.0 - e)
    return np.where(small, series, direct)


def k_coth(k, h1):
    """Multiplier k*coth(h1*k); even, tends to 1/h1 as k -> 0."""
    return _x_coth(np.asarray(k, dtype=float) * h1) / h1


def k_csch(k, h1):
    """Multiplier k*csch(h1*k); even, tends to 1/h1 as k -> 0."""
    return _x_csch(np.asarray(k, dtype=float) * h1) / h1


def _coth_c(z):
    # analytic coth for scalar z with Re z > 0
    e = np.exp(-2.0 * z)
    return (1.0 + e) / (1.0 - e)


def _csch_c(z):
    # analytic 1/sinh for scalar z with Re z > 0
    e = np.exp(-z)
    return 2.0 * e / (1.0 - e * e)


# --------------------------------------------------------------------------
# dispersion relations
# --------------------------------------------------------------------------

def dispersion_internal(params: PhysicalParams, k):
    """Squared frequency of the internal (interface) mode.

    omega^2(k) = g (rho - rho1) |k| / (rho coth(h1 |k|) + rho1),
    computed in the equivalent form g (rho - rho1) k^2 / B0(k) which is
    finite for every k and vanishes at k = 0.
    """
    k = np.asarray(k, dtype=float)
    b0 = params.rho * k_coth(k, params.h1) + params.rho1 * np.abs(k)
    return params.g * (params.rho - params.rho1) * k * k / b0


def dispersion_surface(params: PhysicalParams, k):
    """Squared frequency of the surface mode: omega1^2(k) = g |k|."""
    return params.g * np.abs(np.asarray(k, dtype=float))


def quartic_coefficients(params: PhysicalParams, k):
    """Coefficients (T, P) of the dispersion quartic w^4 - T w^2 + P = 0.

    T and P are the trace and determinant of the coupled quadratic form,
    written with the printed coth weight for |k| > 0.
    """
    k = np.asarray(k, dtype=float)
    g, rho, rho1 = params.g, params.rho, params.rho1
    ak = np.abs(k)
    g11 = k_coth(k, params.h1)
    b0 = rho * g11 + rho1 * ak  # >= rho/h1, so k = 0 stays finite
    T = g * rho * ak * (ak + g11) / b0
    P = g * g * (rho - rho1) * k * k * ak / b0
    return T, P


def quartic_residual(params: PhysicalParams, k, w2):
    """Relative residual of w2 against the dispersion quartic at k != 0."""
    T, P = quartic_coefficients(params, k)
    w2 = np.asarray(w2, dtype=float)
    num = np.abs(w2 * w2 - T * w2 + P)
    scale = np.maximum(np.abs(w2 * w2), np.maximum(np.abs(T * w2), np.abs(P)))
    return num / np.where(scale == 0.0, 1.0, scale)


def omega1_prime(params: PhysicalParams, k):
    """Group velocity of the surface mode, (1/2) sqrt(g/k) for k > 0."""
    return 0.5 * math.sqrt(params.g / k)


def omega1_second(params: PhysicalParams, k):
    """Second derivative of omega1(k) = sqrt(g k): -(1/4) sqrt(g) k^(-3/2)."""
    return -0.25 * math.sqrt(params.g) * k ** -1.5


# --------------------------------------------------------------------------
# mode-mixing coefficients from theta
# --------------------------------------------------------------------------

_THETA_HUGE = 1e100


def _mixing_from_theta(theta):
    """(a+, a-, b+, b-) from theta, stable for all magnitudes of theta.

    Uses cancellation-free forms of 2 + theta^2/2 +- (theta/2) s with
    s = sqrt(4 + theta^2), and closed asymptotic values once theta^2 would
    overflow.
    """
    theta = np.asarray(theta, dtype=float)
    huge = np.abs(theta) > _THETA_HUGE
    th = np.where(huge, 1.0, theta)
    s = np.hypot(2.0, th)
    pos = th >= 0.0
    denom = s + np.abs(th)  # stable form of s +- th on the shrinking side
    inner_p = np.where(pos, 2.0 + 0.5 * th * (th + s), 2.0 * s / denom)
    inner_m = np.where(pos, 2.0 * s / denom, 2.0 + 0.5 * th * (th - s))
    a_p = inner_p ** -0.5
    a_m = inner_m ** -0.5
    b_p = np.where(pos, 0.5 * a_p * (th + s), 2.0 * a_p / denom)
    b_m = np.where(pos, -2.0 * a_m / denom, 0.5 * a_m * (th - s))
    if np.any(huge):
        with np.errstate(divide="ignore"):
            inv = np.where(huge, 1.0 / theta, 0.0)
        hp = huge & (theta > 0)
        hm = huge & (theta < 0)
        a_p = np.where(hp, inv, np.where(hm, 1.0, a_p))
        a_m = np.where(hp, 1.0, np.where(hm, -inv, a_m))
        b_p = np.where(hp, 1.0, np.where(hm, -inv, b_p))
        b_m = np.where(hp, -inv, np.where(hm, -1.0, b_m))
    return a_p, a_m, b_p, b_m


def _mixing_scalar(theta):
    # complex scalar variant of _mixing_from_theta (analytic near real axis)
    if abs(theta.real) > _THETA_HUGE:
        inv = 1.0 / theta
        if theta.real > 0:
            return inv, 1.0 + 0j, 1.0 + 0j, -inv
        return 1.0 + 0j, -inv, -inv, -1.0 + 0j
    s = np.sqrt(4.0 + theta * theta)
    if theta.real >= 0:
        inner_p = 2.0 + 0.5 * theta * (theta + s)
        inner_m = 2.0 * s / (s + theta)
    else:
        inner_p = 2.0 * s / (s - theta)
        inner_m = 2.0 + 0.5 * theta * (theta - s)
    a_p = inner_p ** -0.5
    a_m = inner_m ** -0.5
    if theta.real >= 0:
        b_p = 0.5 * a_p * (theta + s)
        b_m = -2.0 * a_m / (theta + s)
    else:
        b_p = 2.0 * a_p / (s - theta)
        b_m = 0.5 * a_m * (theta - s)
    return a_p, a_m, b_p, b_m


# --------------------------------------------------------------------------
# symbol table
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolTable:
    """Per-wavenumber evaluation of every multiplier entering the model.

    All arrays share the shape of ``k``.  Entries are finite at k = 0,
    where removable singularities are replaced by their limits.  A1..A5
    and B1..B5 are the cubic-energy operator symbols attached to the two
    normal modes (B* to the oscillatory surface mode).
    """

    k: np.ndarray
    g0: np.ndarray          # |k|
    g11: np.ndarray         # k coth(h1 k)
    g12: np.ndarray         # -k csch(h1 k)
    b0: np.ndarray          # rho g11 + rho1 g0
    qa: np.ndarray
    qb: np.ndarray
    qc: np.ndarray
    theta: np.ndarray
    a_plus: np.ndarray
    a_minus: np.ndarray
    b_plus: np.ndarray
    b_minus: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    A3: np.ndarray
    A4: np.ndarray
    A5: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    B3: np.ndarray
    B4: np.ndarray
    B5: np.ndarray
    omega2: np.ndarray      # internal-mode squared frequency
    omega1_sq: np.ndarray   # surface-mode squared frequency g|k|


def symbol_table(params: PhysicalParams, k) -> SymbolTable:
    """Evaluate the full symbol table at the wavenumbers ``k``.

    Raises LimitUndefined if any entry is NaN after the k = 0 limit
    substitutions (which would indicate an implementation bug, not bad
    input).
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    g, h1, rho, rho1 = params.g, params.h1, params.rho, params.rho1
    drho = rho - rho1

    g0 = np.abs(k)
    g11 = k_coth(k, h1)
    g12 = -k_csch(k, h1)
    b0 = rho * g11 + rho1 * g0

    qa = g * drho * g0 * g11 / b0
    qb = -g * math.sqrt(rho1 * drho) * g0 * g12 / b0
    qc = g * g0 * (rho1 * g11 + rho * g0) / b0

    theta0 = (2.0 * rho1 - rho) / math.sqrt(rho1 * drho)
    zero = k == 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        theta = np.where(zero, theta0, (qc - qa) / np.where(zero, 1.0, qb))
    a_p, a_m, b_p, b_m = _mixing_from_theta(theta)

    sq_d = math.sqrt(g * drho)
    sq_1 = math.sqrt(g * rho1)
    sgn = np.sign(k)
    d_g0_b0 = k * g0 / b0  # symbol of D B0^{-1} G^{(0)}

    A1 = (b_p * qa - a_p * qb) / sq_d
    B1 = (b_m * qa - a_m * qb) / sq_d
    A2 = (a_p * qc - b_p * qb) / sq_1
    B2 = (a_m * qc - b_m * qb) / sq_1
    A3 = sgn * A1
    B3 = sgn * B1
    A4 = b_p * sq_d * d_g0_b0 + rho * sgn / (rho1 * sq_d) * a_p * qb
    B4 = b_m * sq_d * d_g0_b0 + rho * sgn / (rho1 * sq_d) * a_m * qb
    A5 = -sq_1 * k * a_p
    B5 = -sq_1 * k * a_m

    omega2 = g * drho * k * k / b0
    omega1_sq = g * g0

    table = SymbolTable(
        k=k, g0=g0, g11=g11, g12=g12, b0=b0, qa=qa, qb=qb, qc=qc,
        theta=theta, a_plus=a_p, a_minus=a_m, b_plus=b_p, b_minus=b_m,
        A1=A1, A2=A2, A3=A3, A4=A4, A5=A5,
        B1=B1, B2=B2, B3=B3, B4=B4, B5=B5,
        omega2=omega2, omega1_sq=omega1_sq,
    )
    for name in ("g11", "g12", "b0", "qa", "qb", "qc", "theta", "a_plus",
                 "a_minus", "b_plus", "b_minus", "A1", "A2", "A3", "A4",
                 "A5", "B1", "B2", "B3", "B4", "B5", "omega2", "omega1_sq"):
        if np.any(np.isnan(getattr(table, name))):
            raise LimitUndefined(f"NaN survived limit substitution in {name}")
    return table


# --------------------------------------------------------------------------
# scalar analytic symbol path (k > 0 branch, complex-step safe)
# --------------------------------------------------------------------------

class _ScalarSymbols:
    """Symbols at a single wavenumber with Re k > 0, no abs/sign used.

    Safe for complex-step differentiation: every operation is analytic in
    k near the positive real axis.
    """

    __slots__ = ("qa", "qb", "qc", "a_p", "a_m", "b_p", "b_m",
                 "B1", "B2", "B3", "B4", "B5", "omega1")

    def __init__(self, params: PhysicalParams, k):
        g, h1, rho, rho1 = params.g, params.h1, params.rho, params.rho1
        drho = rho - rho1
        k = k + 0j
        g0 = k
        g11 = k * _coth_c(h1 * k)
        g12 = -k * _csch_c(h1 * k)
        b0 = rho * g11 + rho1 * g0
        self.qa = g * drho * g0 * g11 / b0
        self.qb = -g * math.sqrt(rho1 * drho) * g0 * g12 / b0
        self.qc = g * g0 * (rho1 * g11 + rho * g0) / b0
        theta = (self.qc - self.qa) / self.qb
        self.a_p, self.a_m, self.b_p, self.b_m = _mixing_scalar(theta)
        sq_d = math.sqrt(g * drho)
        sq_1 = math.sqrt(g * rho1)
        self.B1 = (self.b_m * self.qa - self.a_m * self.qb) / sq_d
        self.B2 = (self.a_m * self.qc - self.b_m * self.qb) / sq_1
        self.B3 = self.B1  # sgn(k) = 1 on this branch
        self.B4 = (self.b_m * sq_d * k * g0 / b0
                   + rho / (rho1 * sq_d) * self.a_m * self.qb)
        self.B5 = -sq_1 * k * self.a_m
        self.omega1 = np.sqrt(g * k)


def _fd_derivative(f, k0, h):
    # central difference with one Richardson step
    d1 = (f(k0 + h) - f(k0 - h)) / (2.0 * h)
    d2 = (f(k0 + 0.5 * h) - f(k0 - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


# --------------------------------------------------------------------------
# expansion constants of the long-wave symbols
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionConstants:
    """Leading and first-order constants of the long-wave symbol expansions.

    a_plus(k) = a0 + a1 |k| + O(k^2), b_plus likewise; A4(k)/k and A5(k)/k
    expand as c0 + c1 |k| + O(k^2); A3(k) = A3_0 |k| k + O(k^3).
    """

    a_plus_0: float
    a_plus_1: float
    b_plus_0: float
    b_plus_1: float
    A3_0: float
    A4_0: float
    A4_1: float
    A5_0: float
    A5_1: float


def _small_k_constants(g, h1, rho, rho1, sqrt):
    # Generic over the number type (float with math.sqrt, Decimal with
    # Decimal.sqrt); returns the fields of ExpansionConstants in order.
    gamma = (rho - rho1) / rho
    a0 = sqrt(gamma)
    b0 = sqrt(rho1 / rho)
    A4_0 = sqrt(g * (rho - rho1) / (rho1 * rho))
    A5_0 = -sqrt(g * rho1 * (rho - rho1) / rho)
    return (a0, -(rho1 / rho) * a0 * h1,
            b0, gamma * b0 * h1,
            (h1 / rho) * sqrt(g * rho1 * (rho - rho1) / rho),
            A4_0, -(rho1 / rho) * h1 * A4_0,
            A5_0, -(rho1 / rho) * h1 * A5_0)


def _kappa8(params: PhysicalParams) -> float:
    # The two terms of kappa8 cancel in exact arithmetic, but each is of
    # size ~h1 sqrt(g), so a float evaluation leaves a residue of about
    # eps |term| (above 1e-12 once h1 reaches a few thousand metres).
    # Evaluating the same constants and formula in 40 digits from the
    # exactly representable parameters leaves only the formula's own error.
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        g, h1, rho, rho1 = (decimal.Decimal(v) for v in
                            (params.g, params.h1, params.rho, params.rho1))
        sqrt = decimal.Decimal.sqrt
        (_, ap1, _, bp1, _, A4_0, _, A5_0, _) = _small_k_constants(
            g, h1, rho, rho1, sqrt)
        sq_d = sqrt(g * (rho - rho1))
        sq_1 = sqrt(g * rho1)
        kappa8 = (rho1 / (2 * sq_d)) * bp1 * A4_0 ** 2 \
            + (1 / (2 * rho1 * sq_1)) * ap1 * A5_0 ** 2
        return float(kappa8)


def expansion_constants(params: PhysicalParams) -> ExpansionConstants:
    """Closed-form small-k expansion constants of a+, b+, A3, A4, A5."""
    return ExpansionConstants(*_small_k_constants(
        params.g, params.h1, params.rho, params.rho1, math.sqrt))


# --------------------------------------------------------------------------
# model coefficients
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelCoefficients:
    """Every scalar constant of the long-wave / modulation model.

    kappa..kappa8 are the cubic-energy constants, kt..kt4 their
    combinations entering the evolution equations, and (a, b, c, d,
    alpha, beta) the coefficients of the reduced system

        r_t + a r_xxx - b H r_xx = c r r_x - d (r H r_x + H(r r_x))_x
                                   + beta (|q|^2)_x,
        i q_t - alpha q_xx = -beta q r,

    with the scaling powers of epsilon absorbed multiplicatively:
    a = -eps^2 Omega2/(2 c0), b = -eps Omega1/(2 c0), c = 6 eps kt,
    d = -eps^2 kt2, alpha = -eps omega1_pp/2, beta = -kt1.  The envelope
    variable is normalised as q_hat = eps^(1/2 + delta) q so that a single
    beta appears in both equations.  The full system's time variable is
    tau = eps t.
    """

    c0: float
    k0: float
    gamma: float
    Omega0: float
    Omega1: float
    Omega2: float
    omega1_pp: float
    kappa: float
    kappa1: float
    kappa2: float
    kappa3: float
    kappa4: float
    kappa5: float
    kappa6: float
    kappa7: float
    kappa8: float
    kt: float
    kt1: float
    kt2: float
    kt3: float
    kt4: float
    a: float
    b: float
    c: float
    d: float
    alpha: float
    beta: float
    epsilon: float
    delta: float


def derive_coefficients(params: PhysicalParams, epsilon: float,
                        delta: float) -> ModelCoefficients:
    """Derive every model coefficient from the physical parameters.

    Parameters
    ----------
    params : PhysicalParams
        Physical configuration (validated on construction).
    epsilon : float
        Long-wave scaling parameter, in (0, 1).
    delta : float
        Envelope scaling exponent, in (0, 1/2).

    Returns
    -------
    ModelCoefficients

    Notes
    -----
    Values at the resonant wavenumber k0 use the analytic k > 0 branch of
    the symbols; the two derivative quantities feeding kt3 use central
    differences with one Richardson step at h = 1e-5 k0.
    """
    if not (0.0 < delta < 0.5):
        raise DomainError(f"delta must lie in (0, 1/2), got {delta}")
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")

    g, h1, rho, rho1 = params.g, params.h1, params.rho, params.rho1
    gamma = params.gamma
    drho = rho - rho1

    c0 = math.sqrt(g * gamma * h1)
    k0 = rho / (4.0 * h1 * drho)
    Omega0 = g * h1 * drho / rho
    Omega1 = -g * drho * rho1 * h1 ** 2 / rho ** 2
    Omega2 = (g * drho * h1 ** 3 / rho) * (rho1 ** 2 / rho ** 2 - 1.0 / 3.0)
    omega1_pp = omega1_second(params, k0)

    ec = expansion_constants(params)
    ap0, ap1 = ec.a_plus_0, ec.a_plus_1
    bp0, bp1 = ec.b_plus_0, ec.b_plus_1

    sq_d = math.sqrt(g * drho)
    sq_1 = math.sqrt(g * rho1)

    def f_sq(j):
        # k -> B_j(k)^2 / omega1(k)
        def f(k):
            s = _ScalarSymbols(params, k)
            bj = getattr(s, f"B{j}")
            return bj * bj / s.omega1
        return f

    def f_bm_b4(k):
        s = _ScalarSymbols(params, k)
        return s.b_m * s.B4

    def f_am_b5(k):
        s = _ScalarSymbols(params, k)
        return s.a_m * s.B5

    h = 1e-5 * k0
    F = {j: f_sq(j)(k0).real for j in range(1, 6)}
    Fp = {j: _fd_derivative(f_sq(j), k0, h).real for j in range(1, 6)}
    at_k0 = _ScalarSymbols(params, k0)
    G3 = (at_k0.b_m * at_k0.B3).real
    G4 = f_bm_b4(k0).real
    G5 = f_am_b5(k0).real
    G4p = _fd_derivative(f_bm_b4, k0, h).real
    G5p = _fd_derivative(f_am_b5, k0, h).real

    kappa = (rho1 / (2.0 * sq_d)) * bp0 * ec.A4_0 ** 2 \
        + (1.0 / (2.0 * rho1 * sq_1)) * ap0 * ec.A5_0 ** 2
    kappa1 = (-0.5 * math.sqrt(drho / g) * bp0 * F[1]
              + 0.5 * math.sqrt(rho1 / g) * ap0 * F[2]
              + rho / (2.0 * sq_d) * bp0 * F[3]
              - rho1 / (2.0 * sq_d) * bp0 * F[4]
              - 1.0 / (2.0 * rho1 * sq_1) * ap0 * F[5])
    kappa2 = (-rho1 / sq_d * ec.A4_0 * G4
              - 1.0 / (rho1 * sq_1) * ec.A5_0 * G5)
    kappa3 = (rho1 / sq_d * bp0 * ec.A4_0 * ec.A4_1
              + 1.0 / (rho1 * sq_1) * ap0 * ec.A5_0 * ec.A5_1)
    kappa4 = (-0.25 * math.sqrt(drho / g) * bp0 * Fp[1]
              + 0.25 * math.sqrt(rho1 / g) * ap0 * Fp[2]
              + rho / (4.0 * sq_d) * bp0 * Fp[3]
              - rho1 / (4.0 * sq_d) * bp0 * Fp[4]
              - 1.0 / (4.0 * rho1 * sq_1) * ap0 * Fp[5])
    kappa5 = (-rho1 / (2.0 * sq_d) * ec.A4_0 * G4p
              - 1.0 / (2.0 * rho1 * sq_1) * ec.A5_0 * G5p)
    kappa6 = (-0.5 * math.sqrt(drho / g) * bp1 * F[1]
              + 0.5 * math.sqrt(rho1 / g) * ap1 * F[2]
              + rho / (2.0 * sq_d) * bp1 * F[3]
              - rho1 / (2.0 * sq_d) * bp1 * F[4]
              - 1.0 / (2.0 * rho1 * sq_1) * ap1 * F[5])
    kappa7 = (rho / sq_d * ec.A3_0 * G3
              - rho1 / sq_d * ec.A4_1 * G4
              - 1.0 / (rho1 * sq_1) * ec.A5_1 * G5)
    kappa8 = _kappa8(params)

    s2c0 = math.sqrt(2.0 * c0)
    sc02 = math.sqrt(c0 / 2.0)
    kt = kappa / (2.0 * s2c0)
    kt1 = kappa1 * sc02 + kappa2 / s2c0
    kt2 = (kappa3 + kappa8) / (2.0 * s2c0)
    kt3 = kappa4 * sc02 + kappa5 / s2c0
    kt4 = kappa6 * sc02 + kappa7 / s2c0

    return ModelCoefficients(
        c0=c0, k0=k0, gamma=gamma,
        Omega0=Omega0, Omega1=Omega1, Omega2=Omega2, omega1_pp=omega1_pp,
        kappa=kappa, kappa1=kappa1, kappa2=kappa2, kappa3=kappa3,
        kappa4=kappa4, kappa5=kappa5, kappa6=kappa6, kappa7=kappa7,
        kappa8=kappa8,
        kt=kt, kt1=kt1, kt2=kt2, kt3=kt3, kt4=kt4,
        a=-epsilon ** 2 * Omega2 / (2.0 * c0),
        b=-epsilon * Omega1 / (2.0 * c0),
        c=6.0 * epsilon * kt,
        d=-epsilon ** 2 * kt2,
        alpha=-epsilon * omega1_pp / 2.0,
        beta=-kt1,
        epsilon=epsilon, delta=delta,
    )


def resonance_residual(params: PhysicalParams) -> float:
    """Relative mismatch |omega1'(k0) - c0| / c0 (should vanish)."""
    gamma = params.gamma
    c0 = math.sqrt(params.g * gamma * params.h1)
    k0 = params.rho / (4.0 * params.h1 * (params.rho - params.rho1))
    return abs(omega1_prime(params, k0) - c0) / c0


# --------------------------------------------------------------------------
# small-gamma asymptotics
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticCoefficients:
    """Leading small-gamma forms of kt..kt4 (corrections are
    exponentially small in 1/gamma)."""

    kt: float
    kt1: float
    kt2: float
    kt3: float
    kt4: float


def asymptotic_coefficients(params: PhysicalParams) -> AsymptoticCoefficients:
    """Closed-form small-gamma asymptotics of the kt coefficients.

    Warns when gamma >= 0.1, where the expansion is not expected to be
    accurate.
    """
    gamma = params.gamma
    if gamma >= 0.1:
        warnings.warn(
            f"gamma = {gamma:.3g} is outside the small-gamma regime; "
            "asymptotic coefficients may be inaccurate",
            stacklevel=2,
        )
    g, h1, rho1 = params.g, params.h1, params.rho1
    g4 = g ** 0.25
    r2r1 = math.sqrt(2.0 * rho1)
    return AsymptoticCoefficients(
        kt=g4 * gamma ** 0.25 / (4.0 * h1 ** 0.25 * r2r1),
        kt1=-g4 / (4.0 * h1 ** 1.25 * gamma ** 0.75 * r2r1),
        kt2=-g4 * gamma ** 0.25 * h1 ** 0.75 * (1.0 - gamma) / (2.0 * r2r1),
        kt3=-g4 * gamma ** 0.25 / (2.0 * h1 ** 0.25 * r2r1),
        kt4=(1.0 - gamma) * g4 / (4.0 * h1 ** 0.25 * gamma ** 0.75 * r2r1),
    )


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------

#: formula identifier attached to each coefficient in reports
_FORMULA_TAGS = {
    "c0": "c0",
    "k0": "k0",
    "gamma": "gamma-defn",
    "Omega0": "Omega-defn",
    "Omega1": "Omega-defn",
    "Omega2": "Omega-defn",
    "omega1_pp": "dispersion-relations:d2",
    "kappa": "kappa",
    "kappa1": "kappa-1",
    "kappa2": "kappa-2",
    "kappa3": "kappa-3",
    "kappa4": "kappa-4",
    "kappa5": "kappa-5",
    "kappa6": "kappa-6",
    "kappa7": "kappa-7",
    "kappa8": "kappa-8",
    "kt": "kappa-tilde-defn",
    "kt1": "kappa-tilde-defn",
    "kt2": "kappa-tilde-defn",
    "kt3": "kappa-tilde-defn",
    "kt4": "kappa-tilde-defn",
    "a": "reduced-system:convention",
    "b": "reduced-system:convention",
    "c": "reduced-system:convention",
    "d": "reduced-system:convention",
    "alpha": "reduced-system:convention",
    "beta": "reduced-system:convention",
    "epsilon": "long-wave-scaling",
    "delta": "mono-waves-scaling",
}


def coefficient_rows(coeffs: ModelCoefficients):
    """(name, value, formula tag) rows for every coefficient field."""
    return [(name, getattr(coeffs, name), _FORMULA_TAGS[name])
            for name in _FORMULA_TAGS]

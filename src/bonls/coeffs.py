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

import math
import warnings
from dataclasses import asdict, dataclass, field, fields

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
    g > 0 and h1 > 0, all finite.
    """

    g: float
    h1: float
    rho: float
    rho1: float

    def __post_init__(self):
        if not 0 < self.g < math.inf:
            raise DomainError(f"g must be positive and finite, got {self.g}")
        if not 0 < self.h1 < math.inf:
            raise DomainError(f"h1 must be positive and finite, got {self.h1}")
        if not (math.inf > self.rho > self.rho1 > 0):
            raise DomainError(
                "stable configuration requires finite rho > rho1 > 0, got "
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
    """x*coth(x) = x/tanh(x) for real arrays, even in x, 1 at x=0."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0.0, 1.0, x / np.tanh(x))


def _x_csch(x):
    """x*csch(x) = x/sinh(x) for real arrays, even in x, 1 at x=0 and 0
    past |x| = 710, where sinh overflows and x*csch(x) < 6.4e-306."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.where(x == 0.0, 1.0, x / np.sinh(x))


def k_coth(k, h1):
    """Multiplier k*coth(h1*k); even, tends to 1/h1 as k -> 0."""
    return _x_coth(np.asarray(k, dtype=float) * h1) / h1


def k_csch(k, h1):
    """Multiplier k*csch(h1*k); even, tends to 1/h1 as k -> 0."""
    return _x_csch(np.asarray(k, dtype=float) * h1) / h1


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


def quartic_residual(params: PhysicalParams, k, w2):
    """Relative residual of w2 against the dispersion quartic at k != 0.

    The quartic w^4 - T w^2 + P = 0, with T and P the trace and determinant
    of the coupled quadratic form, reads u^2 - t u + p = 0 in u = w2/(g |k|),
    with t = (1 + T)/(1 + r T), p = gamma T/(1 + r T), T = tanh(h1 |k|)
    and r = rho1/rho: scale-free, so no term leaves the floats.
    """
    tau = np.tanh(params.h1 * np.abs(np.asarray(k, dtype=float)))
    den = 1.0 + params.rho1 / params.rho * tau
    t, p = (1.0 + tau) / den, params.gamma * tau / den
    u = np.asarray(w2, dtype=float) / params.g / np.abs(k)
    scale = np.maximum(u * u, np.maximum(np.abs(t * u), p))
    return np.abs(u * u - t * u + p) / np.where(scale == 0.0, 1.0, scale)


def omega1_prime(params: PhysicalParams, k):
    """Group velocity of the surface mode, (1/2) sqrt(g/k) for k > 0."""
    return 0.5 * math.sqrt(params.g / k)



# --------------------------------------------------------------------------
# mode-mixing coefficients from theta
# --------------------------------------------------------------------------

def _mixing_from_theta(theta):
    """(a+, a-, b+, b-) from theta, for every theta including +-inf.

    With s = sqrt(4 + theta^2), u = 2 / (s + |theta|) lies in [0, 1] and
    h = sqrt(1 + u^2); each multiplier is 1/h or u/h, so nothing cancels
    or overflows, and a+ a- + b+ b- = 0 exactly.
    """
    theta = np.asarray(theta, dtype=float)
    u = 1.0 / (0.5 * np.hypot(2.0, theta) + 0.5 * np.abs(theta))
    h = np.hypot(1.0, u)
    one, small, pos = 1.0 / h, u / h, theta >= 0.0
    return (np.where(pos, small, one), np.where(pos, one, small),
            np.where(pos, one, small), -np.where(pos, small, one))


# --------------------------------------------------------------------------
# symbol table
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolTable:
    """Per-wavenumber evaluation of every multiplier entering the model.

    All arrays share the shape of ``k``.  Entries are finite at k = 0,
    where removable singularities are replaced by their limits.  A1..A5
    and B1..B5 are the cubic-energy operator symbols attached to the two
    normal modes (B* to the oscillatory surface mode).  (b+, -a+) and (b-,
    -a-) are eigenvectors of [[qa, qb], [qb, qc]] for omega2 and omega1_sq, so
    A1 = (b+ qa - a+ qb)/sqrt(g drho) = omega2 b+/sqrt(g drho); A2, B1, B2 alike.
    """

    k: np.ndarray
    g0: np.ndarray          # |k|
    g11: np.ndarray         # k coth(h1 k)
    g12: np.ndarray         # -k csch(h1 k)
    b0: np.ndarray          # rho g11 + rho1 g0
    qa: np.ndarray
    qb: np.ndarray
    qc: np.ndarray
    qd: np.ndarray          # qc - qa
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
    substitutions: an implementation bug inside the float range, reached by
    extreme parameters at extreme k (at h1 = 1e-308, k0 is infinite).
    No entry subtracts nearly equal terms: A1, A2, B1, B2 are eigenvalue times
    mixing coefficient, and theta, qd round to hypot(theta, 2), hypot(qd, 2 qb).
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    g, h1, rho, rho1 = params.g, params.h1, params.rho, params.rho1
    drho = rho - rho1

    g0 = np.abs(k)
    g11 = k_coth(k, h1)
    g12 = -k_csch(k, h1)
    b0 = rho * g11 + rho1 * g0
    omega2, omega1_sq = dispersion_internal(params, k), dispersion_surface(params, k)

    qa = g * drho * g0 * g11 / b0
    qb = -g * math.sqrt(rho1 * drho) * g0 * g12 / b0
    qc = g * g0 * (rho1 * g11 + rho * g0) / b0
    # qd = qc - qa by |k| - k coth(h1 k) = e^-x g12, and theta = qd / qb =
    # (rho1 e^x - drho e^-x) / sqrt(rho1 drho), at x = h1 |k|
    r = math.sqrt(rho1 / drho)
    with np.errstate(over="ignore"):  # theta = inf where r e^x leaves the floats
        ex = np.exp(h1 * g0)
        theta = r * ex - 1.0 / (r * ex)
    qd = g * g0 * (2.0 * rho1 * g11 + rho * g12 / ex) / b0
    a_p, a_m, b_p, b_m = _mixing_from_theta(theta)

    sq_d, sq_1 = math.sqrt(g * drho), math.sqrt(g * rho1)
    sgn = np.sign(k)
    d_g0_b0 = k * g0 / b0  # symbol of D B0^{-1} G^{(0)}

    A1, A2 = omega2 * b_p / sq_d, omega2 * a_p / sq_1
    B1, B2 = omega1_sq * b_m / sq_d, omega1_sq * a_m / sq_1
    A3, B3 = sgn * A1, sgn * B1
    A4 = b_p * sq_d * d_g0_b0 + rho * sgn / (rho1 * sq_d) * a_p * qb
    B4 = b_m * sq_d * d_g0_b0 + rho * sgn / (rho1 * sq_d) * a_m * qb
    A5, B5 = -sq_1 * k * a_p, -sq_1 * k * a_m

    table = SymbolTable(
        k=k, g0=g0, g11=g11, g12=g12, b0=b0, qa=qa, qb=qb, qc=qc, qd=qd,
        theta=theta, a_plus=a_p, a_minus=a_m, b_plus=b_p, b_minus=b_m,
        A1=A1, A2=A2, A3=A3, A4=A4, A5=A5,
        B1=B1, B2=B2, B3=B3, B4=B4, B5=B5,
        omega2=omega2, omega1_sq=omega1_sq,
    )
    for f in fields(table):
        if np.any(np.isnan(getattr(table, f.name))):
            raise LimitUndefined(f"NaN survived limit substitution in {f.name}")
    return table


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


def expansion_constants(params: PhysicalParams) -> ExpansionConstants:
    """Closed-form small-k expansion constants of a+, b+, A3, A4, A5."""
    g, h1, rho, rho1 = params.g, params.h1, params.rho, params.rho1
    gamma, ratio = params.gamma, rho1 / rho
    a0, b0 = math.sqrt(gamma), math.sqrt(ratio)
    A4_0 = math.sqrt(g * (rho - rho1) / (rho1 * rho))
    A5_0 = -math.sqrt(g * rho1 * (rho - rho1) / rho)
    return ExpansionConstants(a0, -ratio * a0 * h1, b0, gamma * b0 * h1,
                              (h1 / rho) * math.sqrt(g * rho1 * (rho - rho1) / rho),
                              A4_0, -ratio * h1 * A4_0, A5_0, -ratio * h1 * A5_0)


# --------------------------------------------------------------------------
# model coefficients
# --------------------------------------------------------------------------

def _formula(tag: str, g: float, h1: float, rho: float):
    """A ModelCoefficients field, the formula tag reports print beside it and
    its units: the exponents (p, q, s) of its monomial g^p h1^q rho^s."""
    return field(metadata={"formula": tag, "units": (g, h1, rho)})


@dataclass(frozen=True)
class ModelCoefficients:
    """Every scalar constant of the long-wave / modulation model.

    kappa..kappa8 are the cubic-energy constants (kappa1,4,6,8 are zeros
    that `bonls.verify` checks), kt..kt4 their combinations, and (a, b, c,
    d, alpha, beta) the coefficients of the reduced system

        r_t + a r_xxx - b H r_xx = c r r_x - d (r H r_x + H(r r_x))_x
                                   + beta (|q|^2)_x,
        i q_t - alpha q_xx = -beta q r,

    with the scaling powers of epsilon absorbed multiplicatively:
    a = -eps^2 Omega2/(2 c0), b = -eps Omega1/(2 c0), c = 6 eps kt,
    d = -eps^2 kt2, alpha = -eps omega1_pp/2, beta = -kt1.  The envelope
    variable is normalised as q_hat = eps^(1/2 + delta) q so that a single
    beta appears in both equations.  The full system's time variable is
    tau = eps t.

    Each field is its value at `unit_twin` times its units' monomial (the
    zeros kappa1,4,6,8 take those of the kt term they enter).
    """

    c0: float = _formula("c0", 0.5, 0.5, 0.0)
    k0: float = _formula("k0", 0.0, -1.0, 0.0)
    gamma: float = _formula("gamma-defn", 0.0, 0.0, 0.0)
    Omega0: float = _formula("Omega-defn", 1.0, 1.0, 0.0)
    Omega1: float = _formula("Omega-defn", 1.0, 2.0, 0.0)
    Omega2: float = _formula("Omega-defn", 1.0, 3.0, 0.0)
    omega1_pp: float = _formula("dispersion-relations:d2", 0.5, 1.5, 0.0)
    kappa: float = _formula("kappa", 0.5, 0.0, -0.5)
    kappa1: float = _formula("kappa-1", 0.0, -1.5, -0.5)
    kappa2: float = _formula("kappa-2", 0.5, -1.0, -0.5)
    kappa3: float = _formula("kappa-3", 0.5, 1.0, -0.5)
    kappa4: float = _formula("kappa-4", 0.0, -0.5, -0.5)
    kappa5: float = _formula("kappa-5", 0.5, 0.0, -0.5)
    kappa6: float = _formula("kappa-6", 0.0, -0.5, -0.5)
    kappa7: float = _formula("kappa-7", 0.5, 0.0, -0.5)
    kappa8: float = _formula("kappa-8", 0.5, 1.0, -0.5)
    kt: float = _formula("kappa-tilde-defn", 0.25, -0.25, -0.5)
    kt1: float = _formula("kappa-tilde-defn", 0.25, -1.25, -0.5)
    kt2: float = _formula("kappa-tilde-defn", 0.25, 0.75, -0.5)
    kt3: float = _formula("kappa-tilde-defn", 0.25, -0.25, -0.5)
    kt4: float = _formula("kappa-tilde-defn", 0.25, -0.25, -0.5)
    a: float = _formula("reduced-system:convention", 0.5, 2.5, 0.0)
    b: float = _formula("reduced-system:convention", 0.5, 1.5, 0.0)
    c: float = _formula("reduced-system:convention", 0.25, -0.25, -0.5)
    d: float = _formula("reduced-system:convention", 0.25, 0.75, -0.5)
    alpha: float = _formula("reduced-system:convention", 0.5, 1.5, 0.0)
    beta: float = _formula("reduced-system:convention", 0.25, -1.25, -0.5)
    epsilon: float = _formula("long-wave-scaling", 0.0, 0.0, 0.0)
    delta: float = _formula("mono-waves-scaling", 0.0, 0.0, 0.0)


def unit_twin(params: PhysicalParams) -> PhysicalParams:
    """params at unit scale: g = h1 = 1, and both densities divided by the
    power of two that puts rho in [1/2, 1), so gamma is params' own to the
    bit.  Raises DomainError where rho1 / rho underflows to zero."""
    m, e = math.frexp(params.rho)
    return PhysicalParams(1.0, 1.0, m, math.ldexp(params.rho1, -e))


@np.errstate(over="ignore")  # a result past the floats is inf
def in_units(values: dict[str, float], params: PhysicalParams,
             power: int = 1) -> dict[str, float]:
    """ModelCoefficients values times their units' monomials at params (with
    rho / rho of the twin, a power of two) to the power 1, from `unit_twin`,
    or -1, back to it.  Only a result that leaves the floats does, as inf or 0."""
    bases = (math.frexp(params.g), math.frexp(params.h1), (1.0, math.frexp(params.rho)[1]))
    units = {f.name: f.metadata["units"] for f in fields(ModelCoefficients)}
    out = {}
    for name, value in values.items():
        mantissa, exponent = math.frexp(value)
        quarters = 4 * exponent  # of a binary order of magnitude
        for (m, e), unit in zip(bases, units[name]):
            mantissa *= m ** (power * unit)
            quarters += round(4 * power * unit) * e
        out[name] = float(np.ldexp(mantissa * 2.0 ** (quarters % 4 / 4), quarters // 4))
    return out


def _carrier(params: PhysicalParams) -> tuple[float, float]:
    """(c0, k0): the long internal wave's speed sqrt(g gamma h1) and the
    resonant carrier wavenumber, where omega1'(k0) = c0."""
    c0 = math.sqrt(params.g * params.gamma * params.h1)
    k0 = params.rho / (4.0 * params.h1 * (params.rho - params.rho1))
    return c0, k0


def check_scaling(epsilon: float, delta: float) -> None:
    """Raise DomainError unless epsilon lies in (0, 1) and delta in (0, 1/2)."""
    if not (0.0 < delta < 0.5):
        raise DomainError(f"delta must lie in (0, 1/2), got {delta}")
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")


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
        Every field finite and normal (neither 0 nor subnormal), or 0 where its
        `unit_twin` value is 0 (kappa1, kappa4, kappa6, kappa8).
        Otherwise DomainError is raised, as for epsilon or delta out of range,
        and no other exception or warning escapes.

    Notes
    -----
    The derivation runs once, at `unit_twin(params)`, and `in_units` takes
    each field to params' units.  The symbols come from one `symbol_table`
    call at k0, so the derivation reads only symbols that the `bonls.verify`
    identities check.  For
    k > 0, B3 = B1, B4^2 = B1^2 and B5^2 = rho1^2 B2^2 (verify rows
    symbol-b4-b1, symbol-b5-b2), so the B_j^2 sum shared by kappa1, kappa4
    and kappa6 vanishes at every k: the three are 0 exactly, as is kappa8,
    whose two terms cancel (verify row kappa8-zero).  kappa5 takes the
    k-derivatives of
        G4 = b- B4 = sqrt(g drho) k^2 b-^2/b0 + rho/(rho1 sqrt(g drho)) a- b- qb,
        G5 = a- B5 = -sqrt(g rho1) k a-^2
    in closed form: with s = sqrt(4 + theta^2), a- b- = -1/s and
    a-^2 = 1 - b-^2 = (1 + theta/s)/2, so (a-^2)' = 2 theta'/s^3 and
    (a- b-)' = theta theta'/s^3, with
    theta = e^x (rho1 - drho e^-2x)/sqrt(rho1 drho) and x = h1 k.
    """
    check_scaling(epsilon, delta)
    # where rho1 / rho is extreme the twin's derivation overflows or divides
    # by an underflowed zero, and the monomials can leave the floats
    try:
        twin = asdict(_derive(unit_twin(params), epsilon, delta))
        values = in_units(twin, params)
    except (ArithmeticError, DomainError):  # DomainError: rho1 / rho underflows in the twin
        values = None
    if values is None or not all(
            math.isfinite(v) and (abs(v) >= np.finfo(float).tiny or twin[name] == 0.0)
            for name, v in values.items()):
        raise DomainError(f"the model coefficients of {params} are not all finite floats "
                          "in the normal range")
    return ModelCoefficients(**values)


@np.errstate(all="ignore")  # a non-finite result is reported by the caller
def _derive(params: PhysicalParams, epsilon: float, delta: float) -> ModelCoefficients:
    """The derivation of `derive_coefficients`, which runs it at the unit
    twin and checks what goes in and out; at any params it gives their own."""
    g, h1, rho, rho1 = params.g, params.h1, params.rho, params.rho1
    gamma = params.gamma
    drho = rho - rho1

    c0, k0 = _carrier(params)
    Omega0 = g * h1 * drho / rho
    Omega1 = -g * drho * rho1 * h1 ** 2 / rho ** 2
    Omega2 = (g * drho * h1 ** 3 / rho) * (rho1 ** 2 / rho ** 2 - 1.0 / 3.0)
    omega1_pp = -0.25 * math.sqrt(g) * k0 ** -1.5  # omega1'' of omega1 = sqrt(g k)

    ec = expansion_constants(params)
    ap0, bp0 = ec.a_plus_0, ec.b_plus_0

    sq_d = math.sqrt(g * drho)
    sq_1 = math.sqrt(g * rho1)

    st = symbol_table(params, k0)
    G3, G4, G5, a2, b2, ab, g11, g12, b0, qb = (float(v[0]) for v in (
        st.b_minus * st.B3, st.b_minus * st.B4, st.a_minus * st.B5,
        st.a_minus ** 2, st.b_minus ** 2, st.a_minus * st.b_minus,
        st.g11, st.g12, st.b0, st.qb))
    # theta'/s^3 and theta theta'/s^3 from e^-x theta, e^-x theta' and
    # e^-x s, which stay finite where e^x overflows (x = 2500 at gamma = 1e-4)
    x = h1 * k0
    e = math.exp(-x)
    u = (rho1 - drho * e * e) / math.sqrt(rho1 * drho)
    v = h1 * (rho1 + drho * e * e) / math.sqrt(rho1 * drho)
    s3 = math.hypot(2.0 * e, u) ** 3
    dth, th_dth = v * e * e / s3, u * v * e / s3
    # b0' and qb' from (k coth(h1 k))' = (g11 - h1 g12^2)/k and
    # (k^2 csch(h1 k))' / (k^2 csch(h1 k)) = (2 - h1 g11)/k
    b0p = rho * (g11 - h1 * g12 * g12) / k0 + rho1
    qbp = qb * ((2.0 - h1 * g11) / k0 - b0p / b0)
    G4p = (sq_d * k0 * (2.0 * b2 - 2.0 * k0 * dth - k0 * b2 * b0p / b0) / b0
           + rho / (rho1 * sq_d) * (th_dth * qb + ab * qbp))
    G5p = -sq_1 * (a2 + 2.0 * k0 * dth)

    kappa = (rho1 / (2.0 * sq_d)) * bp0 * ec.A4_0 ** 2 \
        + (1.0 / (2.0 * rho1 * sq_1)) * ap0 * ec.A5_0 ** 2
    kappa1 = kappa4 = kappa6 = kappa8 = 0.0
    kappa2 = (-rho1 / sq_d * ec.A4_0 * G4
              - 1.0 / (rho1 * sq_1) * ec.A5_0 * G5)
    kappa3 = (rho1 / sq_d * bp0 * ec.A4_0 * ec.A4_1
              + 1.0 / (rho1 * sq_1) * ap0 * ec.A5_0 * ec.A5_1)
    kappa5 = (-rho1 / (2.0 * sq_d) * ec.A4_0 * G4p
              - 1.0 / (2.0 * rho1 * sq_1) * ec.A5_0 * G5p)
    kappa7 = (rho / sq_d * ec.A3_0 * G3
              - rho1 / sq_d * ec.A4_1 * G4
              - 1.0 / (rho1 * sq_1) * ec.A5_1 * G5)

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
        a=-epsilon ** 2 * Omega2 / (2.0 * c0), b=-epsilon * Omega1 / (2.0 * c0),
        c=6.0 * epsilon * kt, d=-epsilon ** 2 * kt2,
        alpha=-epsilon * omega1_pp / 2.0, beta=-kt1,
        epsilon=epsilon, delta=delta,
    )


def resonance_residual(params: PhysicalParams) -> float:
    """Relative mismatch |omega1'(k0) - c0| / c0 of the carrier that
    `derive_coefficients` uses (should vanish)."""
    c0, k0 = _carrier(params)
    return abs(omega1_prime(params, k0) - c0) / c0


# --------------------------------------------------------------------------
# small-gamma asymptotics
# --------------------------------------------------------------------------

#: gamma below which the small-gamma forms are expected to be accurate
SMALL_GAMMA_MAX = 0.1


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
    """Closed-form small-gamma asymptotics of the kt coefficients: their
    gamma-forms at `unit_twin`, times the monomials of their units.

    Warns when gamma >= SMALL_GAMMA_MAX, where the expansion is not
    expected to be accurate.
    """
    gamma = params.gamma
    if gamma >= SMALL_GAMMA_MAX:
        warnings.warn(f"gamma = {gamma:.3g} is outside the small-gamma regime; "
                      "asymptotic coefficients may be inaccurate", stacklevel=2)
    r2r1 = math.sqrt(2.0 * unit_twin(params).rho1)
    gam4, gam34 = gamma ** 0.25, gamma ** 0.75
    return AsymptoticCoefficients(**in_units({
        "kt": gam4 / (4.0 * r2r1),
        "kt1": -1.0 / (4.0 * gam34 * r2r1),
        "kt2": -gam4 * (1.0 - gamma) / (2.0 * r2r1),
        "kt3": -gam4 / (2.0 * r2r1),
        "kt4": (1.0 - gamma) / (4.0 * gam34 * r2r1),
    }, params))


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------

def coefficient_rows(coeffs: ModelCoefficients):
    """(name, value, formula tag) rows for every coefficient field, in order."""
    return [(f.name, getattr(coeffs, f.name), f.metadata["formula"]) for f in fields(coeffs)]

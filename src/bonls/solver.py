"""Time integration of the coupled interface/envelope system.

The reduced system couples a real interface profile r to a complex
envelope q:

    r_t = -a r_xxx + b H r_xx + c r r_x
          - d [ (r H r_x)_x + |D| (r r_x) ] + beta (|q|^2)_x
    q_t = -i alpha q_xx + i beta r q

The full variant adds the next-order coupling carried by the kt3 and kt4
coefficients (see `rhs`).  Both are integrated in the slow time tau
the coefficients were derived in.  Both hand the dispersive part to
the exact multipliers from `spectral`, so the stiff third-derivative
term never restricts the step size.

The steppers carry one complex vector y = [r_hat | q_spec], r's `rfft`
half-spectrum (n//2 + 1 modes) then q's spectrum, from the entry of `run`
or `step` to the blow-up guard, so r stays real by construction and each
stage is one array operation against diagonal tables made from one linear
symbol over y, `_Rhs.lin` (Kassam & Trefethen 2005), the ETD tables by one
`_etd_tables` call.  A nonlinear evaluation makes 2 transform calls
(reduced) or 3 (full), which move 4 or 6.5 n-point complex transforms'
worth of data (see `_Rhs`).  A symbol or table that is not finite raises
ValueError when the stepper is built; an overflow in a step or a
diagnostics row warns of nothing, and shows as the guard's BlowUp or as
the row's inf or nan.

The guard bounds sup|r| <= (2/n) sum|r_hat| with no transform and takes
r's samples for the exact check only when that bound reaches the guard
(less 1e-12 of it), so a step makes the transform calls of its nonlinear
evaluations alone: 6 (reduced) or 9 (full) for strang-split's three, 8
or 12 for etdrk4's four.  The states `run` and `step` hand out hold y
and make their samples on first read (`_state_of`).  A diagnostics row costs 6
transforms: irffts of r's half spectrum for the r samples, |D| r and
the gauge's antiderivative, the q samples' ifft, and psi+'s fft and
the ifft of its derivative.

Conserved quantities tracked along a run:

    E1 = int( -(b/2) r|D|r - (a/2) r_x^2 - alpha |q_x|^2
              - (c/6) r^3 - beta r |q|^2 + (d/2) r^2 |D|r ) dx
    E2 = int |q|^2 dx
    E3 = (1/2) int r^2 dx + Im int conj(q) q_x dx
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from collections.abc import Callable, Sequence
from dataclasses import astuple, dataclass, field

import numpy as np

from .coeffs import ModelCoefficients
from .gauge import gauge, gauge_ode_residual
from .spectral import (
    ComplexField,
    Grid,
    RealField,
    band_limited_noise,
    dealias_mask,
    gaussian_bump,
    _mean_free,
    _phase,
    _read_only,
    _real_samples,
    _scaled_to_peak,
)

__all__ = [
    "SystemState",
    "StepperConfig",
    "ConservedTriple",
    "DiagnosticsRow",
    "Trajectory",
    "BlowUp",
    "rhs",
    "step",
    "step_count",
    "check_cadences",
    "conserved",
    "run",
    "relative_drifts",
    "bo_soliton",
    "gaussian_envelope",
    "initial_profile",
    "initial_envelope",
    "initial_state",
]

CONSERVED = {"reduced": ("E1", "E2", "E3"), "full": ("E2", "E3")}  # kt3/kt4 break E1
SYSTEMS = tuple(CONSERVED)
PROFILES = ("gaussian", "soliton", "noise", "zero")  # the kinds of `initial_profile`
ENVELOPES = ("gaussian", "zero")  # and of `initial_envelope`

# Steppers kept for reuse, one per distinct (grid, dt, scheme, coefficients,
# system).  Every measured use (a step() loop, run() after step(), an
# ic.*/seed sweep) reuses the latest one only, and each holds up to 11
# arrays (some stacked) of length n, n//2 + 1 or n//2 + 1 + n, so the
# memo keeps one.
_STEPPER_MEMO_SIZE = 1
# |h L| below which `_etd_tables` sums Taylor series in place of the closed
# forms, and the number of terms summed: the terms dropped there come to
# less than 1e-18 of each table.
_SERIES_RADIUS = 1.0
_SERIES_TERMS = 20
# Taylor coefficients of (exp(z/2) - 1)/z, phi1 - 3 phi2 + 4 phi3,
# phi2 - 2 phi3 and -phi2 + 4 phi3, from phi_k(z) = sum_j z^j / (j + k)!
_TAYLOR = (
    tuple(1 / (2 ** (j + 1) * math.factorial(j + 1)) for j in range(_SERIES_TERMS)),
    tuple((j + 1) ** 2 / math.factorial(j + 3) for j in range(_SERIES_TERMS)),
    tuple((j + 1) / math.factorial(j + 3) for j in range(_SERIES_TERMS)),
    tuple((1 - j) / math.factorial(j + 3) for j in range(_SERIES_TERMS)),
)


class BlowUp(RuntimeError):
    """Sup-norm guard tripped: the step size (or the data) is too large.

    Carries the failing time, the offending sup norm, and the last state
    that was still finite, the one the failing step started from: the
    state given to `step`, the first snapshot of `run` when its first step
    fails, else the state of the step before.  With a state, its advice
    names the grid spacing too: a window too short for the step's products
    trips the guard as a step too long does.
    """

    def __init__(self, time: float, sup: float, state: "SystemState | None" = None):
        advice = "reduce dt or the data amplitude"
        if state is not None:
            advice += (", or widen the grid spacing grid.length / grid.n = "
                       f"{state.grid.dx:.6g}")
        super().__init__(f"|r| reached {sup:.6g} at t = {time:.6g}; {advice}")
        self.time = time
        self.sup = sup
        self.state = state


@dataclass(frozen=True)
class SystemState:
    """Interface profile r, envelope q, and the current time."""

    r: RealField
    q: ComplexField
    t: float = 0.0
    # the stepper's vector [r_hat | q_spec] of a state `step` or `run` built
    _y: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.r.grid != self.q.grid:
            raise ValueError("r and q must live on one grid")

    @property
    def grid(self) -> Grid:
        return self.r.grid


@dataclass(frozen=True)
class StepperConfig:
    """Step size, scheme selection, and the blow-up guard.

    scheme is one of "strang-split" (exact linear propagators around a
    three-stage Runge-Kutta substep for the nonlinearity: 6 transform
    calls per step on the reduced system, 9 on the full one) or "etdrk4"
    (exponential integrator whose phi-function coefficients are evaluated
    in closed form, or from Taylor series near zero: 8 or 12).  Both apply
    the two-thirds rule to every pointwise product.  cfl_guard is the
    sup-norm of r beyond which the step raises BlowUp.
    """

    dt: float
    scheme: str = "strang-split"
    cfl_guard: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if not self.cfl_guard > 0.0:
            raise ValueError("cfl_guard must be positive")


@dataclass(frozen=True)
class ConservedTriple:
    """Energy, envelope mass, and mixed momentum of one state."""

    e1: float
    e2: float
    e3: float


@dataclass(frozen=True)
class DiagnosticsRow:
    t: float
    e1: float
    e2: float
    e3: float
    mean_r: float
    max_r: float
    gauge_residual: float
    # the header of each field's column in a diagnostics table, in field order
    COLUMNS = ("t", "E1", "E2", "E3", "mean_r", "max_r", "gauge_residual")


@dataclass(frozen=True)
class Trajectory:
    """Snapshots plus the diagnostics series of one run."""

    snapshots: tuple[SystemState, ...]
    diagnostics: tuple[DiagnosticsRow, ...]


class _Rhs:
    """Right-hand side in spectrum space, split into linear and nonlinear parts.

    It acts on y = [r_hat | q_spec], r's `rfft` half-spectrum (n//2 + 1
    modes) and q's spectrum.  Its linear symbol `lin` over y is i times
    the propagator phases from `spectral` (V on r, U on q), so a stepper
    built on it matches the exact flows bit for bit on the linear terms;
    a symbol or weight that is not finite raises ValueError.  Both
    product factors are cut to the two-thirds band; the cut is folded into
    the operators that make the factors (`in_r` and `in_q`), so one
    inverse transform yields them all.

    Two real fields share each complex transform as its real and
    imaginary parts.  One `ifft` of stacked rows gives r + i d|D|r (r's
    half-spectrum mirrored, with no transform, times mask (1 + i d|k|))
    and q, and on the full system also s = i beta r - i e4 |D|r - e3 r_x,
    the whole multiplier of q in dq, and q_x.  One `fft` takes
    r^2 + i flux, with flux = beta |q|^2 - r d|D|r (full: minus the kt3
    flux), and the product with q.  With G0 the first row's spectrum,
    dr = A G0 + B conj(G0(-k)), where A = (w0 - i w1)/2 and
    B = (w0 + i w1)/2 hold the weights of r^2 and of the flux; both
    vanish at k = 0 and at the Nyquist mode, so dr has exact zero mean.
    G0(-k) = G0(n - k) for k >= 1 is a reversed view of G0, so the B term
    gathers nothing.  The full system adds one `rfft` of |q|^2 for the kt4
    term: an evaluation makes 2 (reduced) or 3 (full) transform calls.
    `in_r` and `in_q` carry the inverse transform's 1/n, which is exact
    (n is a power of two), so the `ifft` runs unscaled (norm "forward")
    and skips numpy's per-call scale.  On the reduced system one multiply
    of both factor rows by r (as r + 0i, exactly) gives r^2 + i r d|D|r
    and r q, and the flux then takes the imaginary part of the first row.
    The packing couples the roundoff of a row's two fields: against one
    row per product the worst mode moves by up to 1e-14 of max|N| at
    n = 512 and 8e-13 at n = 8192 (3e-15 and 6e-14 unpacked).  Each weight
    holds the multipliers of the terms a row feeds, times the two-thirds
    cut.

    Two identities hold under the cut, because a product of two cut
    factors is alias-free inside the band.  cut(r r_x) = (ik/2) cut(r^2)
    and H r_x = |D| r, so the advection term and |D|(r r_x) share the
    weight on r^2.  The product rule ik cut(r q) = cut(r_x q + r q_x) turns
    the kt3 term of dq into products with no multiplier of their own, so
    on the full system dq = w (q s - 2 e3 r q_x), and at q = 0 the full
    system equals the reduced one bit for bit.
    """

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite array is reported
    def __init__(self, grid: Grid, coeffs: ModelCoefficients, system: str):
        if system not in SYSTEMS:
            raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")
        co = coeffs
        self.n = n = grid.n
        self.full = full = system == "full"
        self.beta = co.beta
        self.e3 = co.epsilon * co.kt3
        e4 = co.epsilon * co.kt4
        h = n // 2 + 1
        ik = grid.ik
        absk = grid.abs_k
        mask = dealias_mask(grid).astype(float)
        self.lin = 1j * np.concatenate((_phase("V", co, grid)[:h], _phase("U", co, grid)))
        w0 = ((0.5 * mask) * ik * (co.c - co.d * absk))[:h]  # on r^2
        w1 = (mask * ik)[:h]  # on the flux
        w_r = [0.5 * (w0 - 1j * w1), 0.5 * (w0 + 1j * w1)]
        in_r = [mask * (1.0 + 1j * co.d * absk)]
        in_q = [mask.astype(complex)]
        if full:
            in_r.append(mask * (1j * co.beta - 1j * e4 * absk - self.e3 * ik))
            in_q.append(mask * ik)
            w_r.append(((-e4 * mask) * ik * absk)[:h])  # on |q|^2
            self.w_q = mask.astype(complex)
        else:
            self.w_q = mask * (1j * co.beta)
        # the inverse transform's 1/n, a power of two, so scaling is exact
        self.in_r, self.in_q = (np.stack(ops) * (1.0 / n) for ops in (in_r, in_q))
        self.w_r = np.stack(w_r)
        if not all(np.all(np.isfinite(a))
                   for a in (self.lin, self.in_r, self.in_q, self.w_r, self.w_q)):
            raise ValueError(f"the spectral symbols of n = {n} modes on a window of "
                             f"length {grid.length:g} are not finite; lengthen the window")
        self._local = threading.local()

    def _work(self, batch: tuple) -> dict:
        """This thread's transform work arrays for inputs with these leading axes.

        They are built on first use and rebuilt when the leading axes
        change, and each thread has its own, so threads may share one
        memoised stepper.  `nonlinear` reads and writes them through the
        views kept here, which cost no indexing per evaluation, and never
        returns one.  Both transforms run in place (numpy's ufuncs give
        overlapping operands the result of separate ones), so the factor
        spectra turn into the factors and the products into their spectra.
        """
        local = self._local
        if getattr(local, "batch", None) != batch:
            n, m = self.n, self.in_r.shape[0]
            h = n // 2 + 1
            spec = np.empty(batch + (n,), complex)  # r's full spectrum
            fac = np.empty(batch + (m + self.in_q.shape[0], n), complex)
            prod = np.empty(batch + (2, n), complex)
            local.work = {
                "spec_lo": spec[..., :h], "spec_hi": spec[..., h:],
                "spec_row": spec[..., None, :], "fac": fac, "fac_r": fac[..., :m, :],
                "fac_q": fac[..., m:, :], "r": fac[..., 0, :].real,
                "r_row": fac[..., :1, :].real, "dadr": fac[..., 0, :].imag,
                "q": fac[..., m, :], "prod": prod, "rr": prod[..., 0, :].real,
                "flux": prod[..., 0, :].imag, "prod_q": prod[..., 1, :],
                "g0_half": prod[..., 0, :h], "g0_flip": prod[..., 0, n - 1:n - h:-1],
                "g1": prod[..., 1, :], "qsq_hat": np.empty(batch + (h,), complex),
            }
            local.batch = batch
        return local.work

    def nonlinear(self, y: np.ndarray) -> np.ndarray:
        """Fresh spectrum of the non-dispersive terms of y = [r_hat | q_spec].

        Its r part has exact zero mean; a leading batch axis is carried through.
        """
        h = self.n // 2 + 1
        w = self._work(y.shape[:-1])
        np.copyto(w["spec_lo"], y[..., :h])
        np.conj(y[..., h - 2:0:-1], out=w["spec_hi"])
        np.multiply(self.in_r, w["spec_row"], out=w["fac_r"])
        np.multiply(self.in_q, y[..., None, h:], out=w["fac_q"])
        np.fft.ifft(w["fac"], norm="forward", out=w["fac"])
        q = w["q"]
        qsq = (q * np.conj(q)).real
        if self.full:
            r, dadr = w["r"], w["dadr"]  # d |D| r, and |D| r is H r_x
            np.multiply(r, r, out=w["rr"])
            flux = np.subtract(self.beta * qsq, r * dadr, out=w["flux"])
            s, dq = w["fac"][..., 1, :], w["fac"][..., -1, :]
            # with D = -i d/dx the bracket q conj(Dq) + conj(q) Dq is the
            # real density 2 Im(conj(q) q_x)
            flux -= (2.0 * self.e3) * np.imag(np.conj(q) * dq)
            np.subtract(q * s, (2.0 * self.e3) * r * dq, out=w["prod_q"])
        else:
            # the rows [r + i d|D|r, q] times r (as r + 0i, exactly) give
            # r^2 + i r d|D|r and r q; the flux then takes the imaginary part
            np.multiply(w["fac"], w["r_row"], out=w["prod"])
            np.subtract(self.beta * qsq, w["flux"], out=w["flux"])
        np.fft.fft(w["prod"], out=w["prod"])
        out = np.empty_like(y)
        nr = np.multiply(self.w_r[0], w["g0_half"], out=out[..., :h])
        # B is exactly 0 at k = 0; for k >= 1, G0(-k) = G0(n - k) runs backwards
        nr[..., 1:] += self.w_r[1, 1:] * np.conj(w["g0_flip"])
        if self.full:
            nr += self.w_r[2] * np.fft.rfft(qsq, out=w["qsq_hat"])
        np.multiply(self.w_q, w["g1"], out=out[..., h:])
        return out


def rhs(s: SystemState, coeffs: ModelCoefficients,
        system: str = "reduced") -> tuple[RealField, ComplexField]:
    """Slow-time derivative (dr/dtau, dq/dtau) of the reduced or the full system.

    Products are evaluated pseudospectrally under the two-thirds rule, which
    makes every quadratic product alias-free.  Every r term carries an outer
    derivative, so dr/dtau has exactly zero mean.  The full system adds the
    kt3 and kt4 coupling terms, one factor of epsilon each in the normalized
    envelope variables, and is the reduced one when kt3 = kt4 = 0.  In
    tau1 = epsilon tau the derivative is this one over epsilon.  An unknown
    system, a non-finite r or q, or symbols that are not finite on the
    grid raise ValueError.
    """
    f = _Rhs(s.grid, coeffs, system)
    h, y = s.grid.n // 2 + 1, _spectra(s)
    dy = f.lin * y + f.nonlinear(y)
    return (RealField(s.grid, np.fft.irfft(dy[:h], s.grid.n)),
            ComplexField.from_spectrum(s.grid, dy[h:]))


class _StrangStepper:
    """Half linear flow, SSP-RK3 on the nonlinearity, half linear flow.

    The substep is Shu & Osher's (1988) three-stage, third-order scheme
    (nodes 0, 1, 1/2; weights 1/6, 1/6, 2/3): three nonlinear evaluations,
    so 6 transform calls per step on the reduced system and 9 on the full
    one.  Strang splitting is second order, so where the dispersion
    dominates (every preset and the bench stratification) its splitting
    error sets the accuracy, and classical RK4's fourth evaluation left
    the error at t_end within 0.2% of this one's.

    `advance` leaves its input as it is.  Its stage arithmetic runs in
    place, on the fresh arrays `nonlinear` returns and one stage buffer.
    Only sums and products by a real scalar have their operands swapped,
    which changes no bit; the product by the complex `half` keeps its
    order, since numpy's complex product is not symmetric to the bit.  So
    it gives the out-of-place formula

        y = half y;  a = N(y);  b = N(y + h a);  c = N(y + (h/4)(a + b))
        half (y + (h/6)((a + b) + 4 c))

    bit for bit, with 5 arrays allocated a step in place of 14.
    """

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite flow is reported
    def __init__(self, dt: float, rhs: _Rhs):
        self.rhs = rhs
        self.dt = dt
        self.half = np.exp(0.5 * dt * rhs.lin)
        if not np.all(np.isfinite(self.half)):
            raise ValueError(f"the half-step flow of dt = {dt:g} is not finite on this "
                             f"window (|dt L| reaches {dt * np.max(np.abs(rhs.lin)):.3g})")

    def advance(self, y: np.ndarray) -> np.ndarray:
        y = self.half * y
        h = self.dt
        a = self.rhs.nonlinear(y)
        stage = a * h
        stage += y
        ab = self.rhs.nonlinear(stage)
        ab += a
        np.multiply(ab, 0.25 * h, out=stage)
        stage += y
        out = self.rhs.nonlinear(stage)
        out *= 4.0
        out += ab
        out *= h / 6.0
        out += y
        return np.multiply(self.half, out, out=out)


def _horner(coefficients, z: np.ndarray) -> np.ndarray:
    out = np.full_like(z, coefficients[-1])
    for c in coefficients[-2::-1]:
        out = out * z + c
    return out


def _etd_tables(h: float, lin: np.ndarray):
    """Exponential-integrator coefficients, the exact phi-function combinations.

    With z = h L the tables are exp(z), exp(z/2) and h times
    (exp(z/2) - 1)/z, phi1 - 3 phi2 + 4 phi3, phi2 - 2 phi3 and
    -phi2 + 4 phi3 (Cox & Matthews 2002).  Their closed forms cancel
    catastrophically as z -> 0, so below |z| = `_SERIES_RADIUS` the last
    four are summed from their Taylor series instead.  On the imaginary
    axis, |z| from 1e-8 to 1e3, both ways agree with 40-digit references
    to 4e-15 relative.  Every operation is elementwise, as `_EtdStepper`
    needs; where z^3 overflows, the tables are not finite.
    """
    z = h * lin
    e_full = np.exp(z)
    e_half = np.exp(0.5 * z)
    big = np.abs(z) >= _SERIES_RADIUS
    zb = z[big]
    eb = e_full[big]
    zb2 = zb * zb
    zb3 = zb2 * zb
    closed = ((e_half[big] - 1.0) / zb,
              (-4.0 - zb + eb * (4.0 - 3.0 * zb + zb2)) / zb3,
              (2.0 + zb + eb * (zb - 2.0)) / zb3,
              (-4.0 - 3.0 * zb - zb2 + eb * (4.0 - zb)) / zb3)
    small = ~big
    zs = z[small]
    tables = []
    for form, coefficients in zip(closed, _TAYLOR):
        table = np.empty_like(z)
        table[big] = form
        table[small] = _horner(coefficients, zs)
        tables.append(h * table)
    return (e_full, e_half, *tables)


class _EtdStepper:
    """Fourth-order exponential time differencing with RK staging.

    The coefficient tables are the exact phi-function combinations over
    [r_hat | q_spec], built by one `_etd_tables` call over both half grids
    of `lin` (q's part is even in k, bit for bit) and one gather; e, e2
    and q are Kassam & Trefethen's E, E2 and Q.  Tables that are not
    finite raise ValueError.
    """

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite table is reported
    def __init__(self, dt: float, rhs: _Rhs):
        self.rhs = rhs
        h = rhs.n // 2 + 1
        tables = _etd_tables(dt, rhs.lin[:2 * h])
        if not all(np.all(np.isfinite(t)) for t in tables):
            raise ValueError(f"the ETD tables of dt = {dt:g} are not finite on this window "
                             f"(|dt L| reaches {dt * np.max(np.abs(rhs.lin)):.3g})")
        mirror = np.r_[:2 * h, 2 * h - 2:h:-1]
        (self.e, self.e2, self.q, self.f1, f2, self.f3) = (t[mirror] for t in tables)
        self.two_f2 = 2.0 * f2  # the weight of na + nb, doubled once here

    def advance(self, y: np.ndarray) -> np.ndarray:
        n0 = self.rhs.nonlinear(y)
        e2y = self.e2 * y  # a and b both start from it
        a = e2y + self.q * n0
        na = self.rhs.nonlinear(a)
        b = e2y + self.q * na
        nb = self.rhs.nonlinear(b)
        c = self.e2 * a + self.q * (2.0 * nb - n0)
        nc = self.rhs.nonlinear(c)
        return (self.e * y + self.f1 * n0
                + self.two_f2 * (na + nb) + self.f3 * nc)


# the stepper class of each scheme, and so the names StepperConfig accepts
_STEPPERS = {"strang-split": _StrangStepper, "etdrk4": _EtdStepper}
SCHEMES = tuple(_STEPPERS)


@functools.lru_cache(maxsize=_STEPPER_MEMO_SIZE)
def _build_stepper(grid: Grid, dt: float, scheme: str, coeffs: ModelCoefficients,
                   system: str):
    """The stepper of one configuration, memoised on its frozen arguments.

    `step` and `run` share it, so equal arguments build the right-hand
    side and the ETD tables once.  It takes dt and scheme rather than the
    whole StepperConfig: the blow-up guard plays no part in it, so runs
    that differ only in cfl_guard share one stepper.  Every array the
    stepper holds is made read-only, because every caller gets the same
    instance; the transform work arrays are not its attributes but held
    per thread (`_Rhs._work`).  A bad system raises (`_Rhs`) on every
    call: only results are memoised.
    """
    stepper = _STEPPERS[scheme](dt, _Rhs(grid, coeffs, system))
    for part in (stepper.rhs, stepper):
        for value in vars(part).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
    return stepper


def _spectra(s: SystemState) -> np.ndarray:
    """The stepper's vector [r_hat | q_spec] of s: the one s keeps, else joined.

    A state keeps one only when `_state_of` built it, from a vector that
    passed the guard or, for `run`'s first snapshot, from one joined here.
    Any other state is the caller's, and a non-finite r or q in it, or
    samples so large that their spectrum overflows, raise ValueError: bad
    data, not a blow-up, with no last good state.
    """
    if s._y is not None:
        return s._y
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.concatenate((s.r.half, s.q.spectrum))
    if not np.all(np.isfinite(y)):
        raise ValueError("r and q must be finite, and so must their spectra")
    return y


def _state_of(grid: Grid, y: np.ndarray, t: float, r: np.ndarray | None = None,
              q: np.ndarray | None = None) -> SystemState:
    """The state at time t from the stepper's vector y = [r_hat | q_spec].

    Every state `step` and `run` hand out, a BlowUp's included, is built
    here with no transform: r is held by y's half spectrum and q by a view
    of the rest (`Field._of_spectrum`), and each makes its samples on
    first read unless they are given (read-only copies of the caller's,
    or the guard's r).  y is made read-only: a step reads it alone.
    """
    h = grid.n // 2 + 1
    y.flags.writeable = False
    st = SystemState(RealField._of_spectrum(grid, y[:h], r),
                     ComplexField._of_spectrum(grid, y[h:], q), t)
    object.__setattr__(st, "_y", y)
    return st


def _steps(s: SystemState, cfg: StepperConfig, coeffs: ModelCoefficients, system: str):
    """The steps of s by cfg.dt, without end: every integrator path runs this loop.

    s and the system are checked here, before any step is asked for: a
    caller's state with a non-finite r or q (see `_spectra`), or a bad
    system, raises ValueError.  The generator returned
    yields (t, y, r) after each step: the new time, the vector
    [r_hat | q_spec] and r's samples (read-only) if the guard took them,
    else None.  A step raises BlowUp at its time when the sup norm of r
    stops being finite or exceeds the guard, carrying the last finite
    state: s itself on the first step, else the state of the step before.
    Its callers (`step`, `run`) drive it with over and invalid ignored, so
    a step that overflows shows as that BlowUp alone, with no warning.
    """
    y = _spectra(s)
    stepper = _build_stepper(s.grid, cfg.dt, cfg.scheme, coeffs, system)
    return _stepping(stepper, cfg, s, y)


def _stepping(stepper, cfg: StepperConfig, s: SystemState, y: np.ndarray):
    # s is dropped once the first step succeeds, so a run keeps no input
    # state alive; the margin on the bound keeps transform roundoff from
    # flipping a trip
    grid, t0, dt = s.grid, s.t, cfg.dt
    h, limit = grid.n // 2 + 1, cfg.cfl_guard * (1.0 - 1e-12)
    t, r = t0, None
    for i in itertools.count(1):
        next_y, next_r = stepper.advance(y), None
        if not (2.0 / grid.n) * float(np.abs(next_y[:h]).sum()) <= limit:
            next_r = _read_only(np.fft.irfft(next_y[:h], grid.n))
            sup = float(np.max(np.abs(next_r)))
            if not np.isfinite(sup) or sup > cfg.cfl_guard:
                raise BlowUp(t0 + i * dt, sup, s or _state_of(grid, y, t, r))
        s = None
        t, y, r = t0 + i * dt, next_y, next_r
        yield t, y, r


def step_count(span: float, dt: float) -> int:
    """Number of steps of size dt that cover span exactly.

    Raises ValueError when span is not a positive integer multiple of dt,
    a count too large for a float (1e300 / 1e-300) included, or when the
    count passes 2**53, where the step index times dt stops being exact.
    """
    ratio = span / dt
    if not math.isfinite(ratio):
        raise ValueError(f"(t_end - t0) / dt = {ratio:g} is not a finite step count")
    if ratio > 2 ** 53:
        raise ValueError(f"(t_end - t0) / dt = {ratio:g} steps is more than 2**53, "
                         "past which the step index times dt is not exact")
    n_steps = int(round(ratio))
    if n_steps < 1:
        raise ValueError(f"t_end - t0 = {span:g} holds no step of dt = {dt:g}")
    if abs(n_steps * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError("t_end - t0 must be an integer multiple of dt")
    return n_steps


def check_cadences(diagnostics_every: int, snapshot_every: int) -> None:
    """Raise ValueError unless diagnostics_every >= 1 and snapshot_every >= 0,
    the step counts between `run`'s rows and snapshots (0: the ends only)."""
    if not diagnostics_every >= 1:
        raise ValueError(f"diagnostics_every must be at least 1, got {diagnostics_every}")
    if not snapshot_every >= 0:
        raise ValueError("snapshot_every must be zero (the ends only) or positive, "
                         f"got {snapshot_every}")


def step(s: SystemState, cfg: StepperConfig, coeffs: ModelCoefficients,
         system: str = "reduced") -> SystemState:
    """Advance one state by cfg.dt with the configured scheme.

    This is the one-step case of the loop `run` runs (`_steps`), and it
    reuses the stepper `run` builds for equal arguments.  A state that
    `step` or `run` returned keeps the stepper's vector, so a loop of
    step() calls gives the fields `run` does bit for bit and makes the
    transforms of `run`'s steps; the new state's r and q samples take one
    inverse transform each when first read.

    Raises ValueError when r or q of a state the caller built is not
    finite, and BlowUp (carrying the input state as the last good one)
    when the sup norm of r leaves the guard interval or stops being
    finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # see `_steps`
        t, y, r = next(_steps(s, cfg, coeffs, system))
    return _state_of(s.grid, y, t, r)


def conserved(s: SystemState, coeffs: ModelCoefficients) -> ConservedTriple:
    """Evaluate (E1, E2, E3) by spectrally accurate quadrature.

    The quadratic terms (r|D|r, r_x^2, |q_x|^2, r^2/2 and Im conj(q) q_x)
    are sums over the spectra by Parseval, with the multipliers of
    `absd` and `deriv`; the cubic terms and E2 are sums over samples.
    On a state `run` or `step` returned this costs one irfft of r's half
    spectrum for |D| r, plus the r and q samples' first read.
    """
    grid = s.grid
    r_spec, q_spec = s.r.spectrum, s.q.spectrum
    absk = grid.abs_k
    k1 = grid.ik.imag  # k, with deriv's Nyquist mode dropped
    r2 = (r_spec * np.conj(r_spec)).real
    q2 = (q_spec * np.conj(q_spec)).real
    rv, qv = s.r.values, s.q.values
    adr = _real_samples(s.r, absk)
    qsq = (qv * np.conj(qv)).real
    parseval = grid.dx / grid.n
    quadratic = parseval * float(np.sum(
        (-0.5 * coeffs.b * absk - 0.5 * coeffs.a * k1 * k1) * r2
        - coeffs.alpha * k1 * k1 * q2))
    cubic = grid.dx * float(np.sum(
        rv * (-(coeffs.c / 6.0) * rv * rv - coeffs.beta * qsq
              + 0.5 * coeffs.d * rv * adr)))
    e2 = grid.dx * float(np.sum(qsq))
    e3 = parseval * float(np.sum(0.5 * r2 + k1 * q2))
    return ConservedTriple(quadratic + cubic, e2, e3)


def _gauge_residual(r: RealField, coeffs: ModelCoefficients) -> float:
    # The gauge phase integrates r, which requires a periodic primitive;
    # project out the conserved mean and gauge the oscillatory part.  With
    # r's samples and half cached this makes three transforms: the
    # antiderivative's irfft, and psi+'s fft and the ifft of its derivative
    # (psi- and the w+- pair are never read).  a is 0 only where the twin's
    # a is exactly 0 (rho1/rho = 1/sqrt 3), and there the phase is undefined.
    if coeffs.a == 0.0:
        return float("nan")
    return gauge_ode_residual(gauge(_mean_free(r), coeffs), coeffs)


def run(initial: SystemState, cfg: StepperConfig, coeffs: ModelCoefficients,
        t_end: float, diagnostics_every: int = 100,
        snapshot_every: int = 0, system: str = "reduced",
        gauge_diagnostics: bool = True, *,
        on_snapshot: Callable[[SystemState], None] | None = None) -> Trajectory:
    """Integrate to t_end, collecting diagnostics and snapshots.

    Diagnostics rows (conserved triple, mean and sup of r, gauge ODE
    residual) are recorded every diagnostics_every steps and at both ends.
    Snapshots are taken at the same ends plus every snapshot_every steps,
    none between them at the default 0 (`check_cadences` states both
    rules).  With on_snapshot each snapshot, the first included, is
    handed to it before the next step and not kept, so the Trajectory
    holds only the rows; without it the Trajectory keeps every snapshot.
    The first snapshot holds read-only copies of the caller's r and q
    samples, so the caller's arrays stay as they are.  BlowUp
    propagates with the failing time and the last finite state attached,
    and a row that overflows holds inf or nan, neither with a
    RuntimeWarning; a non-finite initial state, or a stepper whose
    symbols or tables are not finite, raises ValueError before the first
    snapshot is handed out.
    """
    check_cadences(diagnostics_every, snapshot_every)
    n_steps = step_count(t_end - initial.t, cfg.dt)
    grid, caller = initial.grid, np.geterr()
    snapshots = []
    if on_snapshot is None:
        on_snapshot = snapshots.append

    def diag_row(st: SystemState) -> DiagnosticsRow:
        tri = conserved(st, coeffs)
        residual = _gauge_residual(st.r, coeffs) if gauge_diagnostics else float("nan")
        return DiagnosticsRow(st.t, tri.e1, tri.e2, tri.e3,
                              float(np.mean(st.r.values)),
                              float(np.max(np.abs(st.r.values))),
                              residual)

    # the first step starts from the first snapshot, whose vector is
    # checked (`_spectra`) before it is handed over
    st = _state_of(grid, _spectra(initial), initial.t,
                   *(_read_only(f.values.copy()) for f in (initial.r, initial.q)))
    steps = _steps(st, cfg, coeffs, system)
    on_snapshot(st)
    # the steps and rows run with over and invalid ignored (see `_steps`), so
    # an overflowing row holds inf or nan; the sink runs in the caller's state
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [diag_row(st)]
        for i, (t, y, r) in zip(range(1, n_steps + 1), steps):
            at_end = i == n_steps
            want_diag = at_end or i % diagnostics_every == 0
            want_snap = at_end or (snapshot_every > 0 and i % snapshot_every == 0)
            if want_diag or want_snap:
                st = _state_of(grid, y, t, r)
                # a sink that hands the snapshot to another process (simulate's
                # writer) lets it format the snapshot while the row is computed
                if want_snap:
                    with np.errstate(**caller):
                        on_snapshot(st)
                if want_diag:
                    rows.append(diag_row(st))
    return Trajectory(tuple(snapshots), tuple(rows))


def relative_drifts(rows: Sequence[DiagnosticsRow], system: str) -> dict[str, float]:
    """|last - first| / |first| over rows of each quantity `CONSERVED[system]`
    names, keyed by its column (a first value of 0 counts as 1e-300)."""
    first, last = astuple(rows[0]), astuple(rows[-1])
    return {name: abs(last[i] - first[i]) / max(abs(first[i]), 1e-300)
            for i, name in enumerate(DiagnosticsRow.COLUMNS) if name in CONSERVED[system]}


def bo_soliton(grid: Grid, nu: float, center: float = 0.0) -> RealField:
    """Algebraic soliton profile 4 nu / (1 + nu^2 (x - center)^2), mean-removed.

    r is a displacement about the undisturbed interface; a mean m, which
    the system conserves, would act as linear terms (c m r_x advects r,
    beta m q shifts q's frequency).  The k = 0 mode is left at roundoff
    (1.6e-14 at n = 512); on a long window the correction is O(1/(nu L)).
    """
    if not nu > 0.0:
        raise ValueError("nu must be positive")
    z = grid.x - center
    vals = 4.0 * nu / (1.0 + (nu * z) ** 2)
    vals = vals - vals.mean()
    return RealField(grid, vals)


def gaussian_envelope(grid: Grid, amplitude: complex, width: float,
                      center: float = 0.0, carrier_mode: int = 0) -> ComplexField:
    """Gaussian envelope riding an integer-mode carrier wave, |carrier_mode| <= n/2."""
    if not width > 0.0:
        raise ValueError("width must be positive")
    if abs(carrier_mode) > grid.n // 2:
        raise ValueError(f"carrier_mode = {carrier_mode} lies past the Nyquist mode "
                         f"n/2 = {grid.n // 2}")
    z = (grid.x - center) / width
    carrier = 2.0 * np.pi * carrier_mode / grid.length
    vals = amplitude * np.exp(-0.5 * z * z) * np.exp(1j * carrier * grid.x)
    return ComplexField(grid, vals)


# a field that overflows is no error here: `initial_state` reports it
@np.errstate(over="ignore", invalid="ignore")
def initial_profile(grid: Grid, kind: str, amplitude: float, width: float, center: float,
                    keep: float, seed: int) -> RealField:
    """Mean-free r of a `PROFILES` kind with peak |r| = amplitude: a gaussian bump
    or a soliton (nu = 1 / width) about center, `band_limited_noise` drawn from
    default_rng(seed), the one kind that reads keep and seed, or r = 0."""
    if kind not in PROFILES:
        raise ValueError(f"kind must be one of {', '.join(PROFILES)}, got {kind!r}")
    if kind == "zero":
        return RealField(grid, np.zeros(grid.n))
    if kind == "noise":
        return band_limited_noise(grid, np.random.default_rng(seed), amplitude, keep)
    if not width > 0.0:  # a soliton's nu is 1 / width
        raise ValueError("width must be positive")
    r = (gaussian_bump(grid, width, center) if kind == "gaussian"
         else bo_soliton(grid, 1.0 / width, center)).values
    return RealField(grid, _scaled_to_peak(r - r.mean(), amplitude))


@np.errstate(over="ignore", invalid="ignore")  # as for `initial_profile`
def initial_envelope(grid: Grid, kind: str, amplitude: complex, width: float, center: float,
                     carrier_mode: int) -> ComplexField:
    """q of an `ENVELOPES` kind: `gaussian_envelope`, or q = 0."""
    if kind not in ENVELOPES:
        raise ValueError(f"kind must be one of {', '.join(ENVELOPES)}, got {kind!r}")
    if kind == "zero":
        return ComplexField(grid, np.zeros(grid.n, dtype=complex))
    return gaussian_envelope(grid, amplitude, width, center, carrier_mode)


@np.errstate(over="ignore", invalid="ignore")
def initial_state(r: RealField, q: ComplexField) -> SystemState:
    """The state (r, q) at t = 0; ValueError unless r, q and their spectra, which
    `run` reuses, are finite (a soliton's 4 nu at width 1e-308, or the spectrum
    of samples near the largest float, is not)."""
    if not (np.all(np.isfinite(r.half)) and np.all(np.isfinite(q.spectrum))):
        raise ValueError("the initial state is not finite")
    return SystemState(r, q)

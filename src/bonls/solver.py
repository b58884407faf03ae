"""Time integration of the coupled interface/envelope system.

The reduced system couples a real interface profile r to a complex
envelope q:

    r_t = -a r_xxx + b H r_xx + c r r_x
          - d [ (r H r_x)_x + |D| (r r_x) ] + beta (|q|^2)_x
    q_t = -i alpha q_xx + i beta r q

The full variant adds the next-order coupling carried by the kt3 and kt4
coefficients (see `rhs_full`) and is integrated over the slow time the
coefficients were derived in.  Both hand the dispersive part to the exact
multipliers from `spectral`, so the stiff third-derivative term never
restricts the step size.

The steppers carry r as its `rfft` half-spectrum (n//2 + 1 modes) from
the entry of `run` or `step` to the blow-up guard, so r stays real by
construction.  Each nonlinear evaluation makes four stacked transforms,
and a guarded step of either scheme on either system makes 17.  Products
that share a Fourier multiplier are summed before their transform, and
the product rule folds the full system's three products with q into one
(see `_Rhs`), so an evaluation moves 4 (reduced) or 6 (full) n-point
complex transforms' worth of data.  Each thread keeps one set of
transform work arrays per right-hand side and reuses it across
evaluations, so a nonlinear evaluation allocates no transform buffers.
The ETD tables are the phi functions in closed form, or from their
Taylor series near zero; both fields' tables are built on the half grid,
and the q symbol is even, so its tables are mirrored onto the full grid.

The states `run` records carry the stepper's spectra: r's is its
half-spectrum mirrored, with no transform, and q's is the one its samples
come from.  `conserved` sums the quadratic terms over those spectra
(Parseval) and uses samples only for the cubic ones, and the gauge
residual reads only the gauge factor psi+ (`gauge` builds the w+- pair
when it is read), so a diagnostics row costs 5 transforms, the inverse
transform for the q samples included.

Conserved quantities tracked along a run:

    E1 = int( -(b/2) r|D|r - (a/2) r_x^2 - alpha |q_x|^2
              - (c/6) r^3 - beta r |q|^2 + (d/2) r^2 |D|r ) dx
    E2 = int |q|^2 dx
    E3 = (1/2) int r^2 dx + Im int conj(q) q_x dx
"""

from __future__ import annotations

import functools
import math
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .coeffs import ModelCoefficients
from .gauge import gauge, gauge_ode_residual
from .spectral import (
    ComplexField,
    Grid,
    RealField,
    absd,
    dealias_mask,
    _mean_free,
    _phase,
)

__all__ = [
    "SystemState",
    "StepperConfig",
    "ConservedTriple",
    "DiagnosticsRow",
    "Trajectory",
    "BlowUp",
    "rhs_reduced",
    "rhs_full",
    "step",
    "step_count",
    "conserved",
    "run",
    "bo_soliton",
    "gaussian_envelope",
]

SCHEMES = ("strang-split", "etdrk4")
SYSTEMS = ("reduced", "full")
TIME_SCALES = ("tau", "tau1")

# Steppers kept for reuse, one per distinct (grid, dt, scheme, coefficients,
# system, time scale).  Every measured use (a step() loop, run() after
# step(), an ic.*/seed sweep) reuses the latest one only, and each holds
# up to 18 arrays (some stacked) of length n or n//2 + 1, so the memo
# keeps one.
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
    that was still finite (None when the very first step failed before a
    snapshot existed).
    """

    def __init__(self, time: float, sup: float, state: "SystemState | None" = None):
        super().__init__(
            f"|r| reached {sup:.6g} at t = {time:.6g}; reduce dt or the data amplitude")
        self.time = time
        self.sup = sup
        self.state = state


@dataclass(frozen=True)
class SystemState:
    """Interface profile r, envelope q, and the current time."""

    r: RealField
    q: ComplexField
    t: float = 0.0

    def __post_init__(self):
        if self.r.grid != self.q.grid:
            raise ValueError("r and q must live on one grid")

    @property
    def grid(self) -> Grid:
        return self.r.grid


@dataclass(frozen=True)
class StepperConfig:
    """Step size, scheme selection, and the blow-up guard.

    scheme is one of "strang-split" (exact linear propagators around an
    RK4 substep for the nonlinearity) or "etdrk4" (exponential
    integrator whose phi-function coefficients are evaluated in closed
    form, or from Taylor series near zero).  Both apply the
    two-thirds rule to every pointwise product.  cfl_guard is the sup-norm
    of r beyond which the step raises BlowUp.
    """

    dt: float
    scheme: str = "strang-split"
    cfl_guard: float = 10.0

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
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


@dataclass(frozen=True)
class Trajectory:
    """Snapshots plus the diagnostics series of one run."""

    snapshots: tuple[SystemState, ...]
    diagnostics: tuple[DiagnosticsRow, ...]


class _Rhs:
    """Right-hand side in spectrum space, split into linear and nonlinear parts.

    r is carried as its `rfft` half-spectrum (n//2 + 1 modes) and q as its
    full spectrum.  The linear symbols reuse the propagator phases from
    `spectral`, so a stepper built on them matches the exact flows bit for
    bit on the linear terms.  Both product factors are cut to the
    two-thirds band; the cut is folded into the operators that make the
    factors (`in_r`, the stacked r and |D|r, plus r_x on the full system,
    and `in_q`, q or the stacked q and q_x), so one inverse transform
    yields each stack.

    Products that share a Fourier multiplier are summed in physical space
    and transformed once.  The real products go through one `rfft` of the
    rows r^2, beta |q|^2 - d r|D|r (full: minus the kt3 flux) and, on the
    full system, |q|^2 for the kt4 term; they enter dr through one
    (rows, modes) weight.  The products with q go through one `fft` of a
    single row.  Each weight holds the multipliers of the terms a row
    feeds, times the two-thirds cut, times `scale`, which converts between
    the two slow-time normalizations of the full system.

    Two identities hold under the cut, because a product of two cut
    factors is alias-free inside the band.  cut(r r_x) = (ik/2) cut(r^2)
    and H r_x = |D| r, so the advection term and |D|(r r_x) share the
    weight on r^2.  The product rule ik cut(r q) = cut(r_x q + r q_x) turns
    the kt3 term of dq into products with no multiplier of their own, so
    on the full system
    dq = w (q (i beta r - e3 r_x - i e4 |D|r) - 2 e3 r q_x), and at q = 0
    the full system equals the reduced one bit for bit.
    """

    def __init__(self, grid: Grid, coeffs: ModelCoefficients, full: bool,
                 scale: float = 1.0):
        co = coeffs
        self.n = grid.n
        self.full = full
        self.beta = co.beta
        self.d = co.d
        self.e3 = co.epsilon * co.kt3
        self.e4 = co.epsilon * co.kt4
        half = slice(0, grid.n // 2 + 1)
        ik = grid.ik
        absk = grid.abs_k
        mask = dealias_mask(grid).astype(float)
        self.lin_r = 1j * scale * _phase("V", co, grid)[half]
        self.lin_q = 1j * scale * _phase("U", co, grid)
        w = scale * mask
        in_r = [mask, mask * absk]
        w_r = [(0.5 * w) * ik * (co.c - co.d * absk), w * ik]
        if full:
            in_r.append(mask * ik)
            w_r.append((-self.e4 * w) * ik * absk)
            self.in_q = np.stack([mask, mask * ik])
            self.w_q = w
        else:
            self.in_q = mask
            self.w_q = w * (1j * co.beta)
        self.in_r = np.stack([row[half] for row in in_r])
        self.w_r = np.stack([row[half] for row in w_r])
        self._local = threading.local()

    def _work(self, batch: tuple) -> dict:
        """This thread's transform work arrays for inputs with these leading axes.

        They are built on first use and rebuilt when the leading axes
        change, and each thread has its own, so threads may share one
        memoised stepper.  `nonlinear` writes the factor inputs, the
        inverse transforms, the real product rows and the forward
        transforms into them, and never returns one.
        """
        local = self._local
        if getattr(local, "batch", None) != batch:
            n = self.n
            fq_shape = batch + self.in_q.shape
            local.work = {
                "fr": np.empty(batch + self.in_r.shape, complex),
                "fq": np.empty(fq_shape, complex),
                "rows": np.empty(batch + (self.in_r.shape[0], n)),
                "qs": np.empty(fq_shape, complex),
                "real": np.empty(batch + (self.w_r.shape[0], n)),
                "real_hat": np.empty(batch + self.w_r.shape, complex),
                "prod_hat": np.empty(batch + (n,), complex),
            }
            local.batch = batch
        return local.work

    def nonlinear(self, r_hat: np.ndarray, q_spec: np.ndarray):
        """Spectra of the non-dispersive terms; the r part has exact zero mean.

        Both are fresh arrays.  A leading batch axis on r_hat and q_spec is
        carried through.
        """
        w = self._work(r_hat.shape[:-1])
        rows = np.fft.irfft(np.multiply(self.in_r, r_hat[..., None, :], out=w["fr"]),
                            self.n, out=w["rows"])
        r, adr = rows[..., 0, :], rows[..., 1, :]  # |D| r is H r_x
        if self.full:
            rx = rows[..., 2, :]
            qs = np.fft.ifft(np.multiply(self.in_q, q_spec[..., None, :], out=w["fq"]),
                             out=w["qs"])
            q, dq = qs[..., 0, :], qs[..., 1, :]
        else:
            q = np.fft.ifft(np.multiply(self.in_q, q_spec, out=w["fq"]), out=w["qs"])
        real = w["real"]
        np.multiply(r, r, out=real[..., 0, :])
        qsq = (q * np.conj(q)).real
        flux = self.beta * qsq - self.d * (r * adr)
        if self.full:
            # with D = -i d/dx the bracket q conj(Dq) + conj(q) Dq is the
            # real density 2 Im(conj(q) q_x)
            flux = flux - (2.0 * self.e3) * np.imag(np.conj(q) * dq)
            real[..., 2, :] = qsq
            prod = (q * (1j * (self.beta * r - self.e4 * adr) - self.e3 * rx)
                    - (2.0 * self.e3) * r * dq)
        else:
            prod = r * q
        real[..., 1, :] = flux
        nr = (self.w_r * np.fft.rfft(real, out=w["real_hat"])).sum(-2)
        return nr, self.w_q * np.fft.fft(prod, out=w["prod_hat"])

    def total(self, r_hat: np.ndarray, q_spec: np.ndarray):
        nr, nq = self.nonlinear(r_hat, q_spec)
        return self.lin_r * r_hat + nr, self.lin_q * q_spec + nq


def _make_rhs(grid: Grid, coeffs: ModelCoefficients, system: str,
              time_scale: str) -> _Rhs:
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    if time_scale not in TIME_SCALES:
        raise ValueError(f"unknown time scale {time_scale!r}; expected one of {TIME_SCALES}")
    scale = 1.0
    if time_scale == "tau1":
        if system != "full":
            raise ValueError("the alternative slow time applies to the full system only")
        scale = 1.0 / coeffs.epsilon
    return _Rhs(grid, coeffs, full=(system == "full"), scale=scale)


def rhs_reduced(s: SystemState, coeffs: ModelCoefficients) -> tuple[RealField, ComplexField]:
    """Time derivative (dr/dt, dq/dt) of the reduced system.

    Products are evaluated pseudospectrally under the two-thirds rule, which
    makes every quadratic product alias-free.  Every r term carries an outer
    derivative, so the mean of dr/dt vanishes identically (the k = 0
    coefficient is exactly zero).
    """
    return _rhs_fields(s, _make_rhs(s.grid, coeffs, "reduced", "tau"))


def rhs_full(s: SystemState, coeffs: ModelCoefficients,
             time_scale: str = "tau") -> tuple[RealField, ComplexField]:
    """Slow-time derivative (dr/dtau, dq/dtau) of the full system.

    Extends the reduced right-hand side by the kt3 and kt4 coupling terms,
    each carrying one factor of epsilon in the normalized envelope
    variables; it coincides with `rhs_reduced` when kt3 = kt4 = 0.  With
    time_scale "tau1" the derivative is taken with respect to the
    alternative slow time (one power of epsilon slower), which rescales
    the whole right-hand side by 1/epsilon.
    """
    return _rhs_fields(s, _make_rhs(s.grid, coeffs, "full", time_scale))


def _rhs_fields(s: SystemState, rhs: _Rhs) -> tuple[RealField, ComplexField]:
    dr, dq = rhs.total(s.r._rfft(), s.q.spectrum)
    return (RealField(s.grid, np.fft.irfft(dr, s.grid.n)),
            ComplexField.from_spectrum(s.grid, dq))


class _StrangStepper:
    """Half linear flow, RK4 on the nonlinearity, half linear flow."""

    def __init__(self, dt: float, rhs: _Rhs):
        self.rhs = rhs
        self.dt = dt
        self.half_r = np.exp(0.5 * dt * rhs.lin_r)
        self.half_q = np.exp(0.5 * dt * rhs.lin_q)

    def advance(self, r_spec: np.ndarray, q_spec: np.ndarray):
        r = self.half_r * r_spec
        q = self.half_q * q_spec
        h = self.dt
        ar, aq = self.rhs.nonlinear(r, q)
        br, bq = self.rhs.nonlinear(r + (0.5 * h) * ar, q + (0.5 * h) * aq)
        cr, cq = self.rhs.nonlinear(r + (0.5 * h) * br, q + (0.5 * h) * bq)
        dr, dq = self.rhs.nonlinear(r + h * cr, q + h * cq)
        r = r + (h / 6.0) * (ar + 2.0 * (br + cr) + dr)
        q = q + (h / 6.0) * (aq + 2.0 * (bq + cq) + dq)
        return self.half_r * r, self.half_q * q


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
    to 4e-15 relative.  Every operation is elementwise, so
    `_EtdStepper` builds the tables of q's even symbol on the half grid
    and its mirrored tables equal those over all n modes bit for bit
    (`test_etdrk4_q_tables_built_on_the_half_grid_match_the_full_grid`).
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

    The coefficient tables (`_etd_tables`) are the exact phi-function
    combinations, built once per stepper with no temporaries wider than
    the grid.
    """

    def __init__(self, dt: float, rhs: _Rhs):
        self.rhs = rhs
        (self.er, self.e2r, self.qr,
         self.f1r, self.f2r, self.f3r) = _etd_tables(dt, rhs.lin_r)
        # the q symbol is even in k (bit for bit), so its tables are built
        # on the half grid and mode j takes the row of mode n - j
        h = rhs.n // 2 + 1
        mirror = np.concatenate((np.arange(h), np.arange(h - 2, 0, -1)))
        (self.eq, self.e2q, self.qq,
         self.f1q, self.f2q, self.f3q) = (
            table[mirror] for table in _etd_tables(dt, rhs.lin_q[:h]))

    def advance(self, r_spec: np.ndarray, q_spec: np.ndarray):
        n0r, n0q = self.rhs.nonlinear(r_spec, q_spec)
        ar = self.e2r * r_spec + self.qr * n0r
        aq = self.e2q * q_spec + self.qq * n0q
        nar, naq = self.rhs.nonlinear(ar, aq)
        br = self.e2r * r_spec + self.qr * nar
        bq = self.e2q * q_spec + self.qq * naq
        nbr, nbq = self.rhs.nonlinear(br, bq)
        cr = self.e2r * ar + self.qr * (2.0 * nbr - n0r)
        cq = self.e2q * aq + self.qq * (2.0 * nbq - n0q)
        ncr, ncq = self.rhs.nonlinear(cr, cq)
        r = (self.er * r_spec + self.f1r * n0r
             + 2.0 * self.f2r * (nar + nbr) + self.f3r * ncr)
        q = (self.eq * q_spec + self.f1q * n0q
             + 2.0 * self.f2q * (naq + nbq) + self.f3q * ncq)
        return r, q


@functools.lru_cache(maxsize=_STEPPER_MEMO_SIZE)
def _build_stepper(grid: Grid, dt: float, scheme: str, coeffs: ModelCoefficients,
                   system: str, time_scale: str):
    """The stepper of one configuration, memoised on its frozen arguments.

    `step` and `run` share it, so equal arguments build the right-hand
    side and the ETD tables once.  It takes dt and scheme rather than the
    whole StepperConfig: the blow-up guard plays no part in it, so runs
    that differ only in cfl_guard share one stepper.  Every array the
    stepper holds is made read-only, because every caller gets the same
    instance; the transform work arrays are not its attributes but held
    per thread (`_Rhs._work`).  A bad system or time scale raises on every
    call: only results are memoised.
    """
    rhs = _make_rhs(grid, coeffs, system, time_scale)
    if scheme == "strang-split":
        stepper = _StrangStepper(dt, rhs)
    else:
        stepper = _EtdStepper(dt, rhs)
    for part in (rhs, stepper):
        for value in vars(part).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
    return stepper


def _guarded_step(stepper, cfg: StepperConfig, r_hat: np.ndarray,
                  q_spec: np.ndarray, t: float, last_good):
    """Advance the spectra by one step and check the sup norm of r.

    r_hat is the `rfft` half-spectrum of r.  Returns the new spectra and
    the samples of the new r.  Raises BlowUp at time t, carrying
    last_good() as the last finite state, when the sup norm of r stops
    being finite or exceeds the guard.
    """
    r_hat, q_spec = stepper.advance(r_hat, q_spec)
    r = np.fft.irfft(r_hat, stepper.rhs.n)
    sup = float(np.max(np.abs(r)))
    if not np.isfinite(sup) or sup > cfg.cfl_guard:
        raise BlowUp(t, sup, state=last_good())
    return r_hat, q_spec, r


def _state_of(grid: Grid, r: np.ndarray, r_hat: np.ndarray, q_spec: np.ndarray,
              t: float) -> SystemState:
    """The state at time t from the samples of r and the stepper's spectra.

    r's full spectrum is its half-spectrum r_hat mirrored, with no
    transform; the q samples take one inverse transform.  Both spectra are
    cached on the fields, so `conserved` and the gauge residual start from
    them.
    """
    return SystemState(RealField._from_rfft(grid, r, r_hat),
                       ComplexField.from_spectrum(grid, q_spec), t)


def _require_finite(s: SystemState) -> None:
    # a non-finite input is bad data, not a blow-up: there is no last good state
    if not (np.all(np.isfinite(s.r.values)) and np.all(np.isfinite(s.q.values))):
        raise ValueError("r and q must be finite")


def step_count(span: float, dt: float) -> int:
    """Number of steps of size dt that cover span exactly.

    Raises ValueError when span is not a positive integer multiple of dt.
    """
    n_steps = int(round(span / dt))
    if n_steps < 1 or abs(n_steps * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError("t_end - t0 must be an integer multiple of dt")
    return n_steps


def step(s: SystemState, cfg: StepperConfig, coeffs: ModelCoefficients,
         system: str = "reduced", time_scale: str = "tau") -> SystemState:
    """Advance one state by cfg.dt with the configured scheme.

    The stepper (right-hand side weights and, for etdrk4, the
    phi-function tables) is reused across calls with equal arguments, the
    one `run` builds included.  On a state that `step` or `run` returned, r's
    half-spectrum is the stepper's own, so a loop of step() calls gives
    the fields `run` does bit for bit and makes one transform per step
    more than `run`: the inverse transform for the new q samples.

    Raises ValueError when r or q is not finite on entry, and BlowUp
    (carrying the input state as the last good one) when the sup norm of
    r leaves the guard interval or stops being finite.
    """
    _require_finite(s)
    stepper = _build_stepper(s.grid, cfg.dt, cfg.scheme, coeffs, system,
                             time_scale)
    t = s.t + cfg.dt
    r_hat, q_spec, r = _guarded_step(stepper, cfg, s.r._rfft(), s.q.spectrum,
                                     t, lambda: s)
    return _state_of(s.grid, r, r_hat, q_spec, t)


def conserved(s: SystemState, coeffs: ModelCoefficients) -> ConservedTriple:
    """Evaluate (E1, E2, E3) by spectrally accurate quadrature.

    The quadratic terms (r|D|r, r_x^2, |q_x|^2, r^2/2 and Im conj(q) q_x)
    are sums over the spectra by Parseval, with the multipliers of
    `absd` and `deriv`; the cubic terms and E2 are sums over samples.
    On a state whose spectra are cached, as every state `run` and `step`
    return, this costs one inverse transform, for the samples of |D| r.
    """
    grid = s.grid
    r_spec = s.r.spectrum
    q_spec = s.q.spectrum
    absk = grid.abs_k
    k1 = grid.ik.imag  # k, with deriv's Nyquist mode dropped
    r2 = (r_spec * np.conj(r_spec)).real
    q2 = (q_spec * np.conj(q_spec)).real
    rv = s.r.values
    qv = s.q.values
    adr = absd(s.r).values
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
    # r's spectrum cached this makes three transforms: the antiderivative
    # and psi+'s derivative (the w+- pair is never read).
    if coeffs.a == 0.0:
        return float("nan")
    return gauge_ode_residual(gauge(_mean_free(r), coeffs), coeffs)


def run(initial: SystemState, cfg: StepperConfig, coeffs: ModelCoefficients,
        t_end: float, diagnostics_every: int = 100,
        snapshot_every: int | None = None, system: str = "reduced",
        time_scale: str = "tau", gauge_diagnostics: bool = True,
        on_snapshot: Callable[[SystemState], None] | None = None) -> Trajectory:
    """Integrate to t_end, collecting diagnostics and snapshots.

    Diagnostics rows (conserved triple, mean and sup of r, gauge ODE
    residual) are recorded every diagnostics_every steps and at both ends.
    Snapshots are kept at the same ends plus every snapshot_every steps
    when given; on_snapshot, if given, is called with each snapshot as it
    is kept, before the next step.  BlowUp propagates with the failing time
    and the last finite state attached; a non-finite initial state raises
    ValueError.
    """
    if not t_end > initial.t:
        raise ValueError("t_end must lie beyond the initial time")
    if diagnostics_every < 1:
        raise ValueError("diagnostics_every must be a positive step count")
    if snapshot_every is not None and snapshot_every < 1:
        raise ValueError("snapshot_every must be a positive step count")
    _require_finite(initial)
    n_steps = step_count(t_end - initial.t, cfg.dt)

    grid = initial.grid
    stepper = _build_stepper(grid, cfg.dt, cfg.scheme, coeffs, system, time_scale)
    r_hat = initial.r._rfft()
    q_spec = initial.q.spectrum
    r_vals = initial.r.values

    def diag_row(st: SystemState) -> DiagnosticsRow:
        tri = conserved(st, coeffs)
        residual = _gauge_residual(st.r, coeffs) if gauge_diagnostics else float("nan")
        return DiagnosticsRow(st.t, tri.e1, tri.e2, tri.e3,
                              float(np.mean(st.r.values)),
                              float(np.max(np.abs(st.r.values))),
                              residual)

    # the first state keeps the caller's q, whose spectrum q_spec is cached
    snapshots = [SystemState(RealField._from_rfft(grid, r_vals, r_hat), initial.q,
                             initial.t)]
    if on_snapshot is not None:
        on_snapshot(snapshots[0])
    rows = [diag_row(snapshots[0])]
    t = initial.t
    for i in range(1, n_steps + 1):
        prev = r_vals, r_hat, q_spec, t
        t = initial.t + i * cfg.dt
        r_hat, q_spec, r_vals = _guarded_step(
            stepper, cfg, r_hat, q_spec, t, lambda: _state_of(grid, *prev))
        at_end = i == n_steps
        want_diag = at_end or i % diagnostics_every == 0
        want_snap = at_end or (snapshot_every is not None and i % snapshot_every == 0)
        if want_diag or want_snap:
            st = _state_of(grid, r_vals, r_hat, q_spec, t)
            if want_diag:
                rows.append(diag_row(st))
            if want_snap:
                snapshots.append(st)
                if on_snapshot is not None:
                    on_snapshot(st)
    return Trajectory(tuple(snapshots), tuple(rows))


def bo_soliton(grid: Grid, nu: float, center: float = 0.0) -> RealField:
    """Algebraic soliton profile 4 nu / (1 + nu^2 (x - center)^2), mean-removed.

    The removal keeps the k = 0 coefficient exactly zero, which the gauge
    diagnostics assume; on a long window the correction is O(1/(nu L)).
    """
    if not nu > 0.0:
        raise ValueError("nu must be positive")
    z = grid.x - center
    vals = 4.0 * nu / (1.0 + (nu * z) ** 2)
    vals = vals - vals.mean()
    return RealField(grid, vals)


def gaussian_envelope(grid: Grid, amplitude: complex, width: float,
                      center: float = 0.0, carrier_mode: int = 0) -> ComplexField:
    """Gaussian envelope riding an integer-mode carrier wave."""
    if not width > 0.0:
        raise ValueError("width must be positive")
    z = (grid.x - center) / width
    carrier = 2.0 * np.pi * carrier_mode / grid.length
    vals = amplitude * np.exp(-0.5 * z * z) * np.exp(1j * carrier * grid.x)
    return ComplexField(grid, vals)

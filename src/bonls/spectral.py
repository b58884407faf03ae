"""Periodic pseudospectral operators: multipliers, projections, propagators.

Everything here acts on uniform samples of period-L functions through the
discrete Fourier transform.  Odd multipliers (odd-order derivatives, the
Hilbert transform) zero the Nyquist mode so that real input stays real;
even multipliers keep it.  The half-line projections split the mean and
Nyquist modes evenly so that P+ + P- = 1 and H = -i(P+ - P-) hold exactly
on the grid.  A RealField holds its rfft half, a ComplexField all n modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "RealField",
    "ComplexField",
    "SupportViolation",
    "deriv",
    "hilbert",
    "absd",
    "project",
    "commutator_apply",
    "propagator",
    "commutativity_check",
    "boundary_mass_fraction",
    "gaussian_bump",
    "band_limited_noise",
    "inner",
    "dealias",
    "dealias_mask",
]


class SupportViolation(ValueError):
    """Input field carries mass outside the window an operation assumes."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: n points covering [-length/2, length/2).

    n must be a power of two (at least 8) so that transforms are cheap and
    the two-thirds dealiasing cut used by the time steppers is exact for
    quadratic products (see `dealias_mask`).
    """

    n: int
    length: float

    def __post_init__(self):
        if self.n < 8 or self.n & (self.n - 1) != 0:
            raise ValueError("grid size must be a power of two, at least 8")
        if not 0.0 < self.length < np.inf:
            raise ValueError(f"grid length must be positive and finite, got {self.length}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @cached_property
    def x(self) -> np.ndarray:
        """Sample points, centered so x[0] = -length/2."""
        return -0.5 * self.length + self.dx * np.arange(self.n)

    @cached_property
    def k(self) -> np.ndarray:
        """Wavenumbers 2*pi*j/length in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @cached_property
    def abs_k(self) -> np.ndarray:
        """|k|, the multiplier of |D| (read-only)."""
        return _read_only(np.abs(self.k))

    @cached_property
    def ik(self) -> np.ndarray:
        """ik, the first-derivative multiplier, Nyquist mode dropped (read-only)."""
        return _read_only(_mult_deriv(self, 1))

    @cached_property
    def inv_ik(self) -> np.ndarray:
        """1/(ik) where ik is nonzero, else 0: the antiderivative's multiplier (read-only)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(self.k != 0.0, 1.0 / (1j * self.k), 0.0)
        inv[self.nyquist] = 0.0
        return _read_only(inv)

    @property
    def nyquist(self) -> int:
        """Index of the unpaired (Nyquist) mode in FFT order."""
        return self.n // 2


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Field:
    """Periodic samples on a Grid with a lazily cached spectrum.

    A field built from samples transforms them on the first read of its
    spectrum; one held by its spectrum (`_of_spectrum`) makes its samples
    on first read, read-only.  Fields are cheap value objects; operators
    return new instances and never mutate their input.
    """

    _dtype: type = complex
    _hold = staticmethod(np.copy)  # what from_spectrum keeps: all n modes

    __slots__ = ("grid", "_values", "_spec")

    def __init__(self, grid: Grid, values):
        arr = np.asarray(values, dtype=self._dtype)
        if arr.shape != (grid.n,):
            raise ValueError(f"expected {grid.n} samples, got shape {arr.shape}")
        self.grid = grid
        self._values = arr
        self._spec = None

    @classmethod
    def _of_spectrum(cls, grid: Grid, spec: np.ndarray, values=None) -> "Field":
        """The field held by spec (a RealField's is its `rfft` half) and values, as given."""
        out = cls.__new__(cls)
        out.grid, out._spec, out._values = grid, spec, values
        return out

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = _read_only(self._held_samples())
        return self._values

    def _held_samples(self) -> np.ndarray:
        return np.fft.ifft(self._spec)

    @property
    def spectrum(self) -> np.ndarray:
        if self._spec is None:
            self._spec = np.fft.fft(self.values)
        return self._spec

    @classmethod
    def from_spectrum(cls, grid: Grid, spectrum) -> "Field":
        spec = np.asarray(spectrum, dtype=complex)
        if spec.shape != (grid.n,):
            raise ValueError(f"expected {grid.n} modes, got shape {spec.shape}")
        return cls._of_spectrum(grid, cls._hold(spec))

    def norm(self) -> float:
        """L2 norm of the samples, dx-weighted."""
        return float(np.sqrt(self.grid.dx * np.sum(np.abs(self.values) ** 2)))


class RealField(Field):
    """Field with real samples, held by its `rfft` half (n//2 + 1 modes).

    Its samples are one irfft of the half, the half of its samples is one
    rfft, and `spectrum` mirrors the half into all n modes once, read-only.
    """

    _dtype = float

    __slots__ = ("_mirror",)  # set on the first read of `spectrum`

    def _held_samples(self) -> np.ndarray:
        return np.fft.irfft(self._spec, self.grid.n)

    @property
    def half(self) -> np.ndarray:
        """The rfft half of the spectrum, modes 0 to n//2: the modes the field holds."""
        if self._spec is None:
            self._spec = np.fft.rfft(self.values)
        return self._spec

    @property
    def spectrum(self) -> np.ndarray:
        if not hasattr(self, "_mirror"):
            half = self.half
            self._mirror = _read_only(np.concatenate((half, np.conj(half[-2:0:-1]))))
        return self._mirror

    @staticmethod
    def _hold(spec: np.ndarray) -> np.ndarray:
        # the half of spec's Hermitian part; by Parseval the bound is an imaginary
        # share of 1e-7 in the samples, above the roundoff derivatives amplify
        partner = np.conj(spec[-np.arange(spec.shape[0])])  # conj S(-k)
        if np.sum(np.abs(spec - partner) ** 2) > 4e-14 * np.sum(np.abs(spec) ** 2):
            raise ValueError("spectrum is not Hermitian-symmetric; "
                             "use ComplexField for genuinely complex data")
        return 0.5 * (spec + partner)[:spec.shape[0] // 2 + 1]


class ComplexField(Field):
    """Field with complex samples (envelopes, projected quantities)."""

    __slots__ = ()


def inner(f: Field, g: Field) -> complex:
    """L2 inner product dx * sum(conj(f) g)."""
    _same_grid(f, g)
    return complex(f.grid.dx * np.sum(np.conj(f.values) * g.values))


def dealias_mask(grid: Grid) -> np.ndarray:
    """Two-thirds-rule mode mask: True where |mode index| <= n//3.

    Restricting both factors of a pointwise product to this band makes
    the product alias-free inside the band on a power-of-two grid.  A
    product of three such factors is not: its aliases reach the band, and
    only its mean (hence a quadrature of it) is exact.
    """
    j = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    return np.abs(j) <= grid.n // 3


def dealias(f: Field) -> Field:
    """Zero every mode outside the two-thirds band."""
    return _apply(f, dealias_mask(f.grid).astype(float))


def _same_grid(f: Field, g: Field) -> None:
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")


def _int_power(k: np.ndarray, order: int) -> np.ndarray:
    # Repeated multiplication keeps k -> -k sign symmetry bit-exact, which
    # the pow ufunc does not guarantee; exactness matters for realness.
    out = np.ones_like(k)
    for _ in range(order):
        out = out * k
    return out


def _mult_deriv(grid: Grid, order: int) -> np.ndarray:
    m = (1.0, 1j, -1.0, -1j)[order % 4] * _int_power(grid.k, order)
    if order % 2:
        m[grid.nyquist] = 0.0
    return m


def _mult_hilbert(grid: Grid) -> np.ndarray:
    m = -1j * np.sign(grid.k)
    m[grid.nyquist] = 0.0
    return m


def _mult_project(grid: Grid, sign: int) -> np.ndarray:
    m = np.where(np.sign(grid.k) == sign, 1.0, 0.0)
    m[0] = 0.5
    m[grid.nyquist] = 0.5
    return m


def _mean_free(f: RealField) -> RealField:
    """f minus its mean; the held half is f's with the mean mode zeroed.

    Once f's samples and half are cached this makes no transform.
    """
    half = f.half.copy()
    half[0] = 0.0
    return RealField._of_spectrum(f.grid, half, f.values - np.mean(f.values))


def _real_samples(f: RealField, mult: np.ndarray) -> np.ndarray:
    """Samples of the real field whose spectrum is f's times mult: one irfft.

    mult must keep real fields real (an even real multiplier, or an odd
    imaginary one with the Nyquist mode dropped), so only its first
    n//2 + 1 modes are read.  No spectrum is kept, and nothing is checked.
    """
    return np.fft.irfft(f.half * mult[:f.grid.n // 2 + 1], f.grid.n)


def _apply(f: Field, mult: np.ndarray, cls: type | None = None) -> Field:
    out = type(f) if cls is None else cls
    return out.from_spectrum(f.grid, f.spectrum * mult)


def deriv(f: Field, order: int = 1) -> Field:
    """Spectral derivative of the given order; odd orders drop the Nyquist mode."""
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    return _apply(f, f.grid.ik if order == 1 else _mult_deriv(f.grid, order))


def hilbert(f: Field) -> Field:
    """Hilbert transform: spectrum times -i*sgn(k), with sgn(0) = 0."""
    return _apply(f, _mult_hilbert(f.grid))


def absd(f: Field) -> Field:
    """|D| f: spectrum times |k| (even multiplier, Nyquist kept)."""
    return _apply(f, f.grid.abs_k)


def project(f: Field, sign: int) -> ComplexField:
    """Half-line frequency projection P+ (sign=+1) or P- (sign=-1).

    The mean and Nyquist modes carry weight 1/2 in each projection, which
    keeps both P+ + P- = 1 and H = -i(P+ - P-) exact.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _apply(f, _mult_project(f.grid, sign), ComplexField)


def commutator_apply(h: Field, f: Field, sign: int, l: int = 0, m: int = 0) -> ComplexField:
    """Apply the (derivative-dressed) projection commutator to f.

    Returns d^l [P, h] d^m f with [P, h] f = P(h f) - h P(f), each factor
    evaluated literally with the grid operators.
    """
    _same_grid(h, f)
    inner_f = deriv(f, m) if m else f
    hv = h.values
    mixed = project(ComplexField(h.grid, hv * inner_f.values), sign)
    direct = hv * project(inner_f, sign).values
    out = ComplexField(h.grid, mixed.values - direct)
    return deriv(out, l) if l else out


_PHASE_KINDS = ("V", "W+", "W-", "U")


def _phase(kind: str, coeffs, grid: Grid) -> np.ndarray:
    """Frequency-space phase s(k) such that the propagator multiplies by e^{i t s}."""
    k = grid.k
    k2 = k * k
    k3 = k2 * k
    odd = np.zeros_like(k)
    even = np.zeros_like(k)
    if kind == "V":
        odd = coeffs.a * k3 + coeffs.b * k * np.abs(k)
    elif kind == "W+":
        odd = coeffs.a * k3
        even = coeffs.b * k2
    elif kind == "W-":
        odd = coeffs.a * k3
        even = -coeffs.b * k2
    elif kind == "U":
        even = coeffs.alpha * k2
    else:
        raise ValueError(f"unknown propagator kind {kind!r}; expected one of {_PHASE_KINDS}")
    odd[grid.nyquist] = 0.0
    return odd + even


def propagator(kind: str, coeffs, t: float, f: Field) -> Field:
    """Exact solution operator of one linear flow, as a unit-modulus multiplier.

    kind "V":  flow of  r_t + a r_xxx - b H r_xx = 0,   phase exp(i t (a k^3 + b k|k|))
    kind "W+"/"W-": gauge-split variants with +-i b d^2, phase exp(i t (a k^3 +- b k^2))
    kind "U":  free Schrodinger flow i q_t = alpha q_xx, phase exp(i t alpha k^2)

    Odd symbol parts drop the Nyquist mode (matching the bare multipliers),
    so "V" maps real fields to real fields.
    """
    if not np.isfinite(t):
        raise ValueError("propagation time must be finite")
    phase = _phase(kind, coeffs, f.grid)
    return _apply(f, np.exp(1j * t * phase))


def boundary_mass_fraction(f: Field, interior: float = 0.5) -> float:
    """Fraction of squared mass outside the central `interior` of the window."""
    if not 0.0 < interior <= 1.0:
        raise ValueError("interior fraction must lie in (0, 1]")
    cut = 0.5 * interior * f.grid.length
    w = np.abs(f.values) ** 2
    total = float(np.sum(w))
    if total == 0.0:
        return 0.0
    return float(np.sum(w[np.abs(f.grid.x) >= cut]) / total)


def commutativity_check(coeffs, h: RealField) -> float:
    """Max-norm residual of the first-moment identity of the linear flow.

    Compares (a d^3 - b H d^2)(x h) with (3a d^2 - 2b H d)h + x (a d^3 - b H d^2)h
    on the centered coordinate.  The identity is exact on the line; on a
    periodic window it only makes sense for h supported well inside, so
    mass beyond the central half raises SupportViolation.
    """
    frac = boundary_mass_fraction(h, interior=0.5)
    if frac > 1e-10:
        raise SupportViolation(
            f"field has mass fraction {frac:.3e} outside the central half window")
    grid = h.grid
    a, b = coeffs.a, coeffs.b

    def flow(g: Field) -> np.ndarray:
        return a * deriv(g, 3).values - b * hilbert(deriv(g, 2)).values

    xh = RealField(grid, grid.x * h.values)
    lhs = flow(xh)
    rhs = (3.0 * a * deriv(h, 2).values
           - 2.0 * b * hilbert(deriv(h, 1)).values
           + grid.x * flow(h))
    return float(np.max(np.abs(lhs - rhs)))


def gaussian_bump(grid: Grid, width: float, center: float = 0.0,
                  amplitude: float = 1.0) -> RealField:
    """amplitude * exp(-(x - center)^2 / (2 width^2)) sampled on the grid."""
    if not width > 0.0:
        raise ValueError("width must be positive")
    z = (grid.x - center) / width
    return RealField(grid, amplitude * np.exp(-0.5 * z * z))


def band_limited_noise(grid: Grid, rng: np.random.Generator,
                       amplitude: float = 1.0, keep: float = 2.0 / 3.0) -> RealField:
    """Random mean-free real field with the top (1 - keep) of the spectrum zeroed.

    keep must lie in (0, 1].  Peak amplitude is normalized to `amplitude`.
    The k = 0 coefficient is removed, which most operator identities assume.
    """
    if not 0.0 < keep <= 1.0:
        raise ValueError(f"keep must lie in (0, 1], got {keep}")
    spec = np.fft.fft(rng.standard_normal(grid.n))
    spec[np.abs(grid.k) > keep * np.max(np.abs(grid.k))] = 0.0
    spec[0] = 0.0
    return RealField(grid, _scaled_to_peak(np.fft.ifft(spec).real, amplitude))


def _scaled_to_peak(values: np.ndarray, amplitude: float) -> np.ndarray:
    """values times amplitude / max|values|; all-zero values are returned as they are."""
    peak = float(np.max(np.abs(values)))
    return values * (amplitude / peak) if peak > 0.0 else values

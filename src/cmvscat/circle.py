"""Fourier analysis on the unit circle.

Equispaced power-of-two grids, finite Laurent series, contractive
boundary data with its Fourier tails, the Szego integrability check and
the one guard that refuses inputs failing it or too close to |R| = 1,
and harmonic extension into the disk.

All integrals over the circle use normalized Lebesgue measure, so the
trapezoidal rule on an equispaced grid is a plain mean over the nodes.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConditioningError, DomainError, InputError, ResolutionError


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CircleGrid:
    """Equispaced grid of the M-th roots of unity.

    Parameters
    ----------
    size : int
        Number of nodes M. Must be a power of two, at least 8, so FFT
        round trips are exact and aliasing arithmetic stays simple.
    """

    size: int

    def __post_init__(self):
        if self.size < 8 or not _is_power_of_two(self.size):
            raise InputError(
                f"grid size must be a power of two >= 8, got {self.size}"
            )

    @cached_property
    def theta(self):
        return 2.0 * np.pi * np.arange(self.size) / self.size

    @cached_property
    def nodes(self):
        return np.exp(1j * self.theta)

    @property
    def coeff_lo(self):
        return -self.size // 2 + 1

    @property
    def coeff_hi(self):
        return self.size // 2


@dataclass
class LaurentSeries:
    """Finite Laurent series c_lo t^lo + ... + c_hi t^hi."""

    lo: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise InputError("coefficient list must be nonempty and one-dimensional")

    @property
    def hi(self):
        return self.lo + len(self.coeffs) - 1

    def coefficient(self, j):
        """Coefficient at index j, zero outside the stored window."""
        if self.lo <= j <= self.hi:
            return complex(self.coeffs[j - self.lo])
        return 0j

    def indices(self):
        return np.arange(self.lo, self.hi + 1)


def analyze(samples, grid):
    """Fourier coefficients of grid samples on the symmetric index window.

    Parameters
    ----------
    samples : array_like
        Complex samples, one per grid node.
    grid : CircleGrid

    Returns
    -------
    LaurentSeries
        Coefficients c_j = (1/M) sum_k samples_k exp(-2 pi i j k / M)
        for j in [-M/2 + 1, M/2]; `synthesize` inverts this exactly.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.shape != (grid.size,):
        raise InputError(
            f"sample count {samples.shape} does not match grid size {grid.size}"
        )
    bins = np.fft.fft(samples) / grid.size
    window = np.arange(grid.coeff_lo, grid.coeff_hi + 1)
    return LaurentSeries(grid.coeff_lo, bins[window % grid.size])


def synthesize(series, grid):
    """Evaluate a Laurent series on the grid. Inverse of `analyze`.

    The window must satisfy hi - lo < M, otherwise distinct indices
    alias onto the same FFT bin.
    """
    if series.hi - series.lo >= grid.size:
        raise ResolutionError(
            f"Laurent window [{series.lo}, {series.hi}] does not fit a grid of "
            f"size {grid.size}; increase M"
        )
    bins = np.zeros(grid.size, dtype=complex)
    bins[series.indices() % grid.size] = series.coeffs
    return np.fft.ifft(bins) * grid.size


def _tail_sums(k, mass):
    # tails[J] = sum of mass over k >= J, J = 0 .. max(k) + 1 (k >= 0)
    return np.append(np.cumsum(np.bincount(k, weights=mass, minlength=1)[::-1])[::-1], 0.0)


@dataclass
class ScatteringFunction:
    """Contractive boundary function R with samples and coefficients in sync.

    `exact_coeffs` records whether R was defined by a finite coefficient
    list (so coefficients outside the stored window are exactly zero)
    or sampled (so they are unresolved at this grid size). `szego`, the
    Szego report of the samples, `fourier_tails` and `lower_tails` are
    computed once, like `margin`.
    """

    grid: CircleGrid
    samples: np.ndarray
    coeffs: LaurentSeries
    margin: float
    exact_coeffs: bool = False

    @classmethod
    def from_samples(cls, samples, grid):
        samples = np.asarray(samples, dtype=complex)
        if samples.shape != (grid.size,):
            raise InputError(
                f"sample count {samples.shape} does not match grid size {grid.size}"
            )
        if not np.all(np.isfinite(samples)):
            raise InputError("samples must be finite (got NaN or inf)")
        sup = float(np.max(np.abs(samples)))
        if sup > 1.0 + 1e-12:
            raise InputError(f"|R| must not exceed 1; got sup |R| = {sup:.6g}")
        return cls(grid, samples, analyze(samples, grid), 1.0 - sup)

    @classmethod
    def from_coeffs(cls, series, grid):
        samples = synthesize(series, grid)  # ResolutionError if wider than M
        if series.lo < grid.coeff_lo or series.hi > grid.coeff_hi:
            raise InputError(
                f"coefficient indices [{series.lo}, {series.hi}] outside the window "
                f"[{grid.coeff_lo}, {grid.coeff_hi}] of a grid of size {grid.size}"
            )
        sup = float(np.max(np.abs(samples)))
        if sup > 1.0 + 1e-12:
            raise InputError(
                f"coefficients synthesize to sup |R| = {sup:.6g} > 1 on the grid"
            )
        return cls(grid, samples, series, 1.0 - sup, exact_coeffs=True)

    @cached_property
    def szego(self):
        return szego_check(self)

    @cached_property
    def fourier_tails(self):
        """tails[J] = sum_{|k| >= J} |R_k| over the coefficients R holds, J = 0 .. K + 1.

        K is the largest |k| held, so the last entry is 0. The array is
        nonincreasing: it sums nonnegative terms from the top down.
        """
        return _tail_sums(np.abs(self.coeffs.indices()), np.abs(self.coeffs.coeffs))

    @cached_property
    def lower_tails(self):
        """tails[k] = sum_{i <= -k} |R_i| over the coefficients R holds, k = 0 .. K + 1.

        K is the largest -i held (0 when R holds no negative index), so the
        last entry is 0; nonincreasing like `fourier_tails`. Level j's
        sections read only the c_i with i <= -(j + 1).
        """
        idx = self.coeffs.indices()
        keep = idx <= 0
        return _tail_sums(-idx[keep], np.abs(self.coeffs.coeffs[keep]))

    def fourier_tail(self, J):
        """sum_{|k| >= J} |R_k|, 0 past the coefficients R holds (`fourier_tails`)."""
        tails = self.fourier_tails
        return float(tails[min(max(J, 0), len(tails) - 1)])

    def coefficient(self, j):
        if self.coeffs.lo <= j <= self.coeffs.hi:
            return complex(self.coeffs.coeffs[j - self.coeffs.lo])
        if self.exact_coeffs:
            return 0j
        raise ResolutionError(
            f"coefficient index {j} outside the resolved window "
            f"[{self.coeffs.lo}, {self.coeffs.hi}]; increase the grid size M"
        )

    def coeff_range(self, lo, hi):
        """Coefficients for the contiguous index range lo..hi as an array."""
        if lo > hi:
            raise InputError("empty coefficient range")
        if not self.exact_coeffs and (lo < self.coeffs.lo or hi > self.coeffs.hi):
            raise ResolutionError(
                f"coefficient range [{lo}, {hi}] outside the resolved window "
                f"[{self.coeffs.lo}, {self.coeffs.hi}]; increase the grid size M"
            )
        out = np.zeros(hi - lo + 1, dtype=complex)
        a = max(lo, self.coeffs.lo)
        b = min(hi, self.coeffs.hi)
        if a <= b:
            out[a - lo : b - lo + 1] = self.coeffs.coeffs[
                a - self.coeffs.lo : b - self.coeffs.lo + 1
            ]
        return out


@dataclass(frozen=True)
class SzegoReport:
    sup_modulus: float
    log_integral: float
    passes: bool
    margin: float


def szego_check(R):
    """Check integrability of log(1 - |R|) at grid resolution.

    Always returns a report; `passes` is False exactly when some sample
    has |R| = 1 (the log diverges at a node) or the contraction bound
    fails.
    """
    a = np.abs(R.samples)
    sup = float(np.max(a))
    with np.errstate(divide="ignore"):
        log_integral = float(np.mean(np.log1p(-np.minimum(a, 1.0))))
    passes = bool(sup <= 1.0 and np.isfinite(log_integral))
    return SzegoReport(sup, log_integral, passes, 1.0 - sup)


def require_szego(R, margin_min=0.0):
    """The Szego check as a guard: R's report (`R.szego`), or an error.

    Refuses R with DomainError when the Szego condition fails on the grid
    or when the contractivity margin 1 - sup |R| is below `margin_min`,
    and with ConditioningError when 1 - sup |R|^2 < 1e-12. That floor
    keeps the 2x2 weight (1 / (1 - |R|^2)) [[1, -conj R], [-R, 1]]
    finite, and every section Schur complement S = I - B B^H, whose cross
    block B has norm at most sup |R|, within cond_2(S) <= 1 / (1 - sup |R|^2)
    <= 1e12.
    """
    rep = R.szego
    if not rep.passes:
        raise DomainError(
            f"Szego condition fails: sup |R| = {rep.sup_modulus:.6g}, "
            f"log-integral = {rep.log_integral:.6g}"
        )
    if rep.margin < margin_min:
        raise DomainError(
            f"contractivity margin {rep.margin:.3e} below margin_min "
            f"{margin_min:.1e}"
        )
    gap = 1.0 - rep.sup_modulus**2
    if gap < 1e-12:
        raise ConditioningError(
            f"1 - sup |R|^2 = {gap:.3e} < 1e-12: the 2x2 weight is numerically "
            "singular and the section condition bound 1 / (1 - sup |R|^2) exceeds 1e12"
        )
    return rep


def harmonic_extension(f, z):
    """Harmonic extension of a Laurent series at points of the open disk.

    Analytic indices contribute c_j z^j, anti-analytic ones c_j zbar^{-j},
    both summed by Horner's rule. A scalar z gives a complex, an array
    gives an array of its shape; any |z| >= 1 (or NaN) raises DomainError.
    """
    z = np.asarray(z, dtype=complex)
    r = np.abs(z)
    if not np.all(r < 1.0):
        raise DomainError(f"|z| must be < 1, got |z| = {np.max(r):.6g}")
    lo, hi = min(f.lo, 0), max(f.hi, 0)
    c = np.zeros(hi - lo + 1, dtype=complex)
    c[f.lo - lo : f.hi - lo + 1] = f.coeffs
    zbar = np.conj(z)
    # polyval takes the highest power first: c_hi..c_0, then c_lo..c_{-1}
    val = np.polyval(c[-lo:][::-1], z) + zbar * np.polyval(c[:-lo], zbar)
    return complex(val) if z.ndim == 0 else val

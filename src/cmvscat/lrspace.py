"""Finite sections of the weighted two-component space attached to R.

The space is spanned by two generator families,

    analytic      g'_k  = [1; R] t^k,
    anti-analytic g''_l = [Rbar; 1] tbar^l,

which are orthonormal within each family; the only coupling is the
cross Gram <g'_k, g''_l> = c_{-(k+l)}, a Hankel form in the Fourier
coefficients c_j of R. Everything here works in generator coordinates
over a finite index window. A section's frame Gram G = [[I, B], [B^H, I]],
B the conjugate of its cross block, has the Schur complement
S = I - B B^H, half its size. Per section, one Cholesky factorization
of S gives both defect vectors and both residuals; an S that does not
factor means aliased coefficients (ResolutionError). The union frame of
a level window (`verblunsky.union_factor`) factors the same kind of
Schur complement, I - C^H C of a Hankel window C; both routes factor it
in `hankel_schur_factor`, and no module but this one imports BLAS or
LAPACK. The Szego guard (`circle.require_szego`) bounds
cond_2(S) <= 1 / (1 - sup |R|^2) <= 1e12 before any factorization.
`_converge_section` alone decides the section size, for a level's
section (`converged_defect_pair`) and for the union frame of a level
window (`verblunsky.union_verblunsky`) alike: it starts at R's lower
reach, doubles to the section tolerance and refuses at the cap of the
RunConfig it is given, and it keeps nothing between calls: a caller that
reads a section twice holds on to it (`checks.run_full_suite` solves each
level once and hands the pairs to its checks). The frame Gram depends on
the level n + m alone, so another split of a solved level is its pair
moved by `shift` (`at_split`), bit for bit a fresh solve there.
`generator_products` reads inner products off the FFT of an evaluated
element instead of a Gram, the second route of the suite's defect and
CMV-entry certificates.

Gram orientation used throughout: G[a, b] = <s_b, s_a>, so that for
coordinate vectors u, v the inner product <u, v> is v^H G u.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import zgemm, zherk, ztrsm
from scipy.linalg.lapack import zpotrf

from .circle import LaurentSeries, require_szego, synthesize
from .errors import ConvergenceError, DegeneracyError, InputError, ResolutionError

DEGENERACY_FLOOR = 1e-12


@dataclass(frozen=True)
class GeneratorFrame:
    """Index window of a finite section at offsets (n, m) with N members per family.

    Analytic indices run n..n+N-1, anti-analytic m+1..m+N. Frames at
    (n, m) and (n+1, m) share all generators except g'_n.
    """

    n: int
    m: int
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise InputError(f"section size must be positive, got {self.N}")


@dataclass
class LrElement:
    """Element in generator coordinates: sum x_k g'_k + sum y_l g''_l."""

    frame: GeneratorFrame
    x: np.ndarray
    y: np.ndarray
    scattering: object

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=complex)
        self.y = np.asarray(self.y, dtype=complex)
        if self.x.shape != (self.frame.N,) or self.y.shape != (self.frame.N,):
            raise InputError("coordinate lengths must equal the frame size")

    def coords(self):
        return np.concatenate([self.x, self.y])

    def __mul__(self, scalar):
        return LrElement(self.frame, self.x * scalar, self.y * scalar, self.scattering)

    __rmul__ = __mul__

    def __add__(self, other):
        return _combine(self, other, 1.0)

    def __sub__(self, other):
        return _combine(self, other, -1.0)

    def norm(self):
        return float(np.sqrt(max(inner_product(self, self).real, 0.0)))


def generator(R, kind, index, frame):
    """Unit coordinate element g'_index or g''_index over the given frame."""
    x = np.zeros(frame.N, dtype=complex)
    y = np.zeros(frame.N, dtype=complex)
    if kind == "analytic":
        offset = index - frame.n
        if not 0 <= offset < frame.N:
            raise InputError(f"analytic index {index} not in frame {frame}")
        x[offset] = 1.0
    elif kind == "antianalytic":
        offset = index - frame.m - 1
        if not 0 <= offset < frame.N:
            raise InputError(f"anti-analytic index {index} not in frame {frame}")
        y[offset] = 1.0
    else:
        raise InputError(f"unknown generator kind {kind!r}")
    return LrElement(frame, x, y, R)


def _cross_block(R, frame):
    # cross[i, j] = <g'_{n+i}, g''_{m+1+j}> = c_{-(n+m+1+i+j)}; Hankel in i + j,
    # read as one read-only window view of c_{-(n+m+1)} .. c_{-(n+m+2N-1)}
    s0 = frame.n + frame.m + 1
    carr = R.coeff_range(-(s0 + 2 * frame.N - 2), -s0)[::-1]
    return np.lib.stride_tricks.sliding_window_view(carr, frame.N)


def frame_gram(R, frame):
    """Full Gram [[I, conj(cross)], [cross^T, I]] of a frame's generators."""
    # G[a, b] = <s_b, s_a> over the ordered set [g'_k, g''_l]
    cross = _cross_block(R, frame)
    N = frame.N
    G = np.eye(2 * N, dtype=complex)
    G[:N, N:] = np.conj(cross)
    G[N:, :N] = cross.T
    return G


def _hull_frame(a, b):
    n = min(a.n, b.n)
    m = min(a.m, b.m)
    k_hi = max(a.n + a.N - 1, b.n + b.N - 1)
    l_hi = max(a.m + a.N, b.m + b.N)
    return GeneratorFrame(n, m, max(k_hi - n + 1, l_hi - m))


def embed(u, frame):
    """Re-express u over a containing frame (zero padding on new generators)."""
    src = u.frame
    if (
        frame.n > src.n
        or frame.n + frame.N < src.n + src.N
        or frame.m > src.m
        or frame.m + frame.N < src.m + src.N
    ):
        raise InputError(f"frame {frame} does not contain {src}")
    x = np.zeros(frame.N, dtype=complex)
    y = np.zeros(frame.N, dtype=complex)
    x[src.n - frame.n : src.n - frame.n + src.N] = u.x
    y[src.m - frame.m : src.m - frame.m + src.N] = u.y
    return LrElement(frame, x, y, u.scattering)


def _combine(u, v, sign):
    if u.scattering is not v.scattering:
        raise InputError("elements belong to different scattering functions")
    if u.frame == v.frame:
        return LrElement(u.frame, u.x + sign * v.x, u.y + sign * v.y, u.scattering)
    hull = _hull_frame(u.frame, v.frame)
    ue, ve = embed(u, hull), embed(v, hull)
    return LrElement(hull, ue.x + sign * ve.x, ue.y + sign * ve.y, u.scattering)


def inner_product(u, v):
    """Weighted inner product <u, v>, rebasing to a common frame if needed."""
    if u.scattering is not v.scattering:
        raise InputError("elements belong to different scattering functions")
    if u.frame != v.frame:
        hull = _hull_frame(u.frame, v.frame)
        u, v = embed(u, hull), embed(v, hull)
    G = frame_gram(u.scattering, u.frame)
    return complex(np.conj(v.coords()) @ (G @ u.coords()))


def shift(u, p):
    """Exact action of multiplication by t^p: g'_k -> g'_{k+p}, g''_l -> g''_{l-p}."""
    f = u.frame
    return LrElement(
        GeneratorFrame(f.n + p, f.m - p, f.N), u.x.copy(), u.y.copy(), u.scattering
    )


def evaluate(u):
    """Sample the two component functions of u on the grid of its R.

    Components are (sum x_k t^k + Rbar sum y_l tbar^l,
                    R sum x_k t^k + sum y_l tbar^l).
    """
    f, grid = u.frame, u.scattering.grid
    lo, hi = min(f.n, -(f.m + f.N)), max(f.n + f.N - 1, -(f.m + 1))
    if lo < grid.coeff_lo or hi > grid.coeff_hi:
        raise ResolutionError(
            f"frame monomial indices [{lo}, {hi}] alias on a grid of size {grid.size}"
        )
    Rs = u.scattering.samples
    ana = synthesize(LaurentSeries(f.n, u.x), grid)
    anti = synthesize(LaurentSeries(-(f.m + f.N), u.y[::-1]), grid)
    comp1 = ana + np.conj(Rs) * anti
    comp2 = Rs * ana + anti
    return comp1, comp2


def generator_products(u):
    """Inner products of t^p u with generators, off one FFT per component of `evaluate(u)`.

    The weight W = (1 - |R|^2)^-1 [[1, -Rbar], [-R, 1]] has [1, R] W = [1, 0]
    and [Rbar, 1] W = [0, 1] pointwise, so <u, g'_k> is the Fourier
    coefficient u1^(k) of u's first component and <u, g''_l> is u2^(-l);
    multiplying by t^p moves both p indices up. On R's grid these are the
    Hankel Gram's numbers, its c_j being the DFT of the same samples.

    Returns `products(frame, p=0)`, the 2N vector [<t^p u, g'_k>; <t^p u, g''_l>]
    over the frame's generators, so <t^p u, v> = vdot(v.coords(), products(v.frame, p)).
    Raises ResolutionError where a bin aliases: a frame wider than the grid
    (`evaluate`), or a Hankel index -(k + l) of the frames' hull off the
    grid's window whose bin holds a coefficient R holds. The frame Gram
    reads 0 there for exact coefficients and refuses sampled ones.
    """
    grid, c, M = u.scattering.grid, u.scattering.coeffs, u.scattering.grid.size
    a, b = (np.fft.fft(comp) / M for comp in evaluate(u))

    def products(frame, p=0):
        # <t^p u, g'_k> = <u, g'_{k-p}> and <t^p u, g''_l> = <u, g''_{l+p}>
        h = _hull_frame(u.frame, GeneratorFrame(frame.n - p, frame.m + p, frame.N))
        j = -np.arange(h.n + h.m + 1, h.n + h.m + 2 * h.N)  # the hull's Hankel indices
        bin_j = (j - grid.coeff_lo) % M + grid.coeff_lo  # the index j's bin holds
        if h.N > M or np.any((bin_j != j) & (bin_j >= c.lo) & (bin_j <= c.hi)):
            raise ResolutionError(f"products of {u.frame} over {frame} at t^{p} alias on "
                                  f"a grid of size {M}; increase the grid size M")
        i = np.arange(frame.N)
        return np.concatenate([a[(frame.n - p + i) % M], b[-(frame.m + p + 1 + i) % M]])

    return products


@dataclass
class DefectPair:
    """Unit vectors spanning the two one-dimensional defect gaps at (n, m).

    K spans the gap obtained by dropping g'_n, Ktilde the one obtained
    by dropping g''_{m+1}; both are normalized so the inner product with
    the dropped generator is the positive residual norm. With H = G^-1
    for the frame Gram G, K = H e_0 a0 and Ktilde = H e_N a0_tilde, with
    residuals a0 = H_00^(-1/2) and a0_tilde = H_NN^(-1/2), which agree
    in exact arithmetic; `defect_pair` reads both columns off the Schur
    complement S = I - B B^H of G, whose spectrum lies in
    [1 - sup |R|^2, 1] (B is the cross block, of norm at most sup |R|).
    Since H G = I, <K, Ktilde> = a0_tilde e_N^T K: the coefficient alpha
    is a0_tilde times K.y[0], K's coordinate on g''_{m+1}. `diagnostics`
    holds the doubling that chose N (`converged_defect_pair`).
    """

    K: LrElement
    Ktilde: LrElement
    a0: float
    a0_tilde: float
    diagnostics: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def frame(self):
        return self.K.frame


def aliased(detail):
    """The ResolutionError of a frame Gram that does not factor, `detail` saying where."""
    return ResolutionError(f"frame Gram not positive definite ({detail}); the Hankel window "
                           "norm reaches 1, so coefficients are aliased: increase the grid size M")


def hankel_schur_factor(C, b):
    """Lower Cholesky factor L of S = I - C^H C, and L^-1 b, for a Hankel window C.

    C holds coefficients c_{-(k+l)} of R, its rows over generators of one
    family and its columns over the other's. S is then the Schur
    complement of the identity block in the Gram [[I, C], [C^H, I]] of
    those generators; both fast routes factor it, `defect_pair` for one
    level's section and `verblunsky.union_factor` for a window's union
    frame. S is positive definite exactly when ||C|| < 1, its spectrum
    lying in [1 - ||C||^2, 1], and under the Szego condition ||C|| <=
    sup |R| < 1 for resolved coefficients, so a failed factorization
    means aliased ones and raises ResolutionError ("increase the grid
    size M"). L's strict upper triangle is 0; b is a 2-D array of
    right-hand sides.
    """
    C = np.asfortranarray(C)
    S = np.eye(C.shape[1], dtype=complex, order="F")
    if len(C):  # zherk refuses an empty window, for which S = I
        # only S's lower triangle is written, the strict upper one stays 0
        S = zherk(-1.0, C, 1.0, S, trans=2, lower=1, overwrite_c=1)
    L, info = zpotrf(S, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise aliased(f"Schur complement zpotrf info {info}")
    # BLAS ztrsm rather than LAPACK ztrtrs, which OpenBLAS threads at every
    # size: it would wake scipy's thread pool on each section
    return L, ztrsm(1.0, L, b, lower=1)


def defect_pair(R, n, m, N):
    """Defect vectors of the finite section at (n, m) with N generators per family.

    The frame Gram is G = [[I, B], [B^H, I]] with B = conj(cross), and
    everything read off G^-1 lives in the Schur complement S = I - B B^H,
    half G's size. One Cholesky factorization of S (`hankel_schur_factor`;
    the cross block is Hankel, hence symmetric, so B B^H = cross^H cross)
    and one solve with the right-hand sides e_0 and B e_0 give
    x = S^-1 e_0 and z = S^-1 B e_0; then H e_0 = [x; -B^H x] and
    H e_N = [-z; e_0 + B^H z] give both defect vectors and both residuals
    (see DefectPair). Raises what the Szego guard raises (`require_szego`:
    DomainError, or ConditioningError when 1 - sup |R|^2 < 1e-12);
    ResolutionError ("increase the grid size M") when coefficients are
    unresolved or S does not factor; DegeneracyError when a residual falls
    below DEGENERACY_FLOOR.

    Parameters
    ----------
    R : ScatteringFunction
    n, m : int
        Subspace offsets; the level is n + m.
    N : int
        Section size.

    Returns
    -------
    DefectPair
        Unit vectors with <K, g'_n> = a0 > 0 and <Ktilde, g''_{m+1}> > 0,
        orthogonal to every other generator of their reduced frames.
    """
    frame = GeneratorFrame(n, m, N)
    require_szego(R)  # it refuses non-finite samples, so S is finite
    C = np.asfortranarray(_cross_block(R, frame))
    rhs = np.zeros((N, 2), dtype=complex, order="F")
    rhs[0, 0], rhs[:, 1] = 1.0, np.conj(C[:, 0])  # [e_0, B e_0]
    L, W = hankel_schur_factor(C, rhs)
    X = ztrsm(1.0, L, W, lower=1, trans_a=2, overwrite_b=1)  # [x, z]
    Y = zgemm(1.0, C, X)
    Y[0, 1] += 1.0  # [B^H x, e_0 + B^H z]: H e_0 = [x; -B^H x], H e_N = [-z; e_0 + B^H z]
    a0, a0t = float(X[0, 0].real) ** -0.5, float(Y[0, 1].real) ** -0.5
    if min(a0, a0t) < DEGENERACY_FLOOR:
        raise DegeneracyError(
            "defect residual below 1e-12; impossible under the Szego condition, "
            "the input data is inconsistent"
        )
    K = LrElement(frame, X[:, 0] * a0, Y[:, 0] * -a0, R)
    Kt = LrElement(frame, X[:, 1] * -a0t, Y[:, 1] * a0t, R)
    return DefectPair(K, Kt, a0, a0t)


def _converge_section(R, lo, readout, change, cfg, what):
    """`readout(N)` at the section size the doubling certifies, with {"N", "d", "N0"}.

    The one section-size policy: sections of the levels lo and up read the
    Hankel coefficients c_i with i <= -(lo + 1), and d, R's lower reach, is
    the largest k >= 0 with sum_{i <= -k} |R_i| >= cfg.section_tol
    (`lower_tails`). N doubles from N0 = max(cfg.section_start, d - lo),
    where the first cross-block row c_{-(lo+1)} .. c_{-(lo+N)} of level lo
    already holds every coefficient a larger N could show it: a section
    that decouples there (K = g'_n, a0 = 1, alpha = 0 exactly) decouples
    at every N, and a smaller start could stop on two decoupled sections
    of a level that couples. An R whose whole coefficient mass
    (`fourier_tails[0]`) is below section_tol has no reach to cover and
    starts at N0 = cfg.section_start. The doubling ends when every entry of
    `change(prev, cur)`, one per level from lo up, is below section_tol.

    Raises ConvergenceError, the message starting with `level j:`, when
    2 N0 > cfg.section_cap, before any readout, and when no size up to
    the cap converges, j then the level of the largest last change.
    """
    tol, cap = cfg.section_tol, cfg.section_cap
    d = max(int(np.count_nonzero(R.lower_tails >= tol)) - 1, 0)
    N0 = N = cfg.section_start if R.fourier_tails[0] < tol else max(cfg.section_start, d - lo)
    if 2 * N0 > cap:
        hint = "" if R.exact_coeffs else (
            "; R is sampled, so the samples' rounding noise counts toward d: a "
            "larger section_tol shortens it at the cost of accuracy")
        raise ConvergenceError(
            f"level {lo}: {what} needs section size {2 * N0} > section_cap {cap}: "
            f"R's lower Fourier reach d = {d} (tail >= {tol:.1e}) starts the doubling "
            f"at N0 = d - ({lo}) = {N0}{hint}")
    prev = readout(N)
    while 2 * N <= cap:
        N *= 2
        cur = readout(N)
        delta = np.atleast_1d(change(prev, cur))
        if np.max(delta) < tol:
            return cur, {"N": N, "d": d, "N0": N0}
        prev = cur
    worst = int(np.argmax(delta))
    raise ConvergenceError(
        f"level {lo + worst}: {what} did not converge by section size {cap} "
        f"(last change {delta[worst]:.3e} > {tol:.1e})")


def converged_defect_pair(R, n, m, cfg):
    """Defect pair of the section at (n, m), at the size `_converge_section` certifies.

    Both defect vectors' coordinates change by less than cfg.section_tol
    between the last two sizes; the pair's `diagnostics` carry N, d and N0.
    """
    pair, diag = _converge_section(R, n + m, lambda N: defect_pair(R, n, m, N), _pair_delta,
                                   cfg, f"section at (n, m) = ({n}, {m})")
    pair.diagnostics = diag
    return pair


def at_split(pair, n):
    """The pair of the same level at the split (n, level - n), both vectors moved by `shift`.

    The frame Gram depends on the level alone, so its vectors and residuals
    are bit for bit the ones `defect_pair` solves at that split; it keeps
    the level's diagnostics.
    """
    p = n - pair.frame.n
    return DefectPair(shift(pair.K, p), shift(pair.Ktilde, p), pair.a0, pair.a0_tilde,
                      pair.diagnostics)


def _pair_delta(a, b):
    # a's frame is the leading block of b's (same offsets, b larger): a's
    # coordinates meet b's in place, b's further ones meet zero
    N = a.frame.N
    return float(max(max(np.max(np.abs(s - t[:N])), np.max(np.abs(t[N:])))
                     for u, v in ((a.K, b.K), (a.Ktilde, b.Ktilde))
                     for s, t in ((u.x, v.x), (u.y, v.y))))

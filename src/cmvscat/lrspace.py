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
of S gives both defect vectors, both residuals and `cond`, the
condition estimate of S; an S that does not factor means aliased
coefficients (ResolutionError), a `cond` above COND_CAP raises
ConditioningError. `converged_defect_pair` alone decides the section
size, from the doubling policy of the RunConfig it is given. Inside a
`section_memo()` block each level's section is solved once, any split
of it served as a shift that shares the values read off the section,
and `_memoized` serves other solves, such as the union-frame factors of
`verblunsky.union_verblunsky`, the same way; the invariant suite opens
one for its checks.

Gram orientation used throughout: G[a, b] = <s_b, s_a>, so that for
coordinate vectors u, v the inner product <u, v> is v^H G u.
"""

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import zgemm, zherk
from scipy.linalg.lapack import zpocon, zpotrf, zpotrs

from .circle import LaurentSeries, require_szego, synthesize
from .errors import (
    ConditioningError,
    ConvergenceError,
    DegeneracyError,
    InputError,
    ResolutionError,
)

COND_CAP = 1e12
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


@dataclass
class DefectPair:
    """Unit vectors spanning the two one-dimensional defect gaps at (n, m).

    K spans the gap obtained by dropping g'_n, Ktilde the one obtained
    by dropping g''_{m+1}; both are normalized so the inner product with
    the dropped generator is the positive residual norm. With H = G^-1
    for the frame Gram G, K = H e_0 a0 and Ktilde = H e_N a0_tilde, with
    residuals a0 = H_00^(-1/2) and a0_tilde = H_NN^(-1/2), which agree
    in exact arithmetic; `defect_pair` reads both columns off the Schur
    complement S = I - B B^H of G. `cond` is LAPACK's 1-norm estimate for
    S, whose spectrum lies in [margin (2 - margin), 1] (B is the cross
    block, of norm at most sup |R|), so cond_2(S) <= 1 / (margin (2 - margin)).
    `shared` holds values read off the section, such as alpha, for every
    split a `section_memo()` block serves.
    """

    K: LrElement
    Ktilde: LrElement
    a0: float
    a0_tilde: float
    cond: float
    shared: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def frame(self):
        return self.K.frame


def defect_pair(R, n, m, N):
    """Defect vectors of the finite section at (n, m) with N generators per family.

    The frame Gram is G = [[I, B], [B^H, I]] with B = conj(cross), and
    everything read off G^-1 lives in the Schur complement S = I - B B^H,
    half G's size. One Cholesky factorization of S and one solve with the
    right-hand sides e_0 and B e_0 give x = S^-1 e_0 and z = S^-1 B e_0;
    then H e_0 = [x; -B^H x] and H e_N = [-z; e_0 + B^H z] give both
    defect vectors and both residuals (see DefectPair). G is positive
    definite exactly when S is, that is when the cross block norm is below
    1, so the factorization also certifies that the coefficients are not
    aliased. Raises DomainError when R fails the Szego condition;
    ResolutionError ("increase the grid size M") when coefficients are
    unresolved or S does not factor; ConditioningError when `cond`
    exceeds COND_CAP; DegeneracyError when a residual falls below
    DEGENERACY_FLOOR.

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
    require_szego(R)
    # the cross block is Hankel, hence symmetric: B^H = cross and B B^H = cross^H cross
    C = np.asfortranarray(_cross_block(R, frame))
    # require_szego has refused non-finite samples, so S is finite; only its
    # lower triangle is written, the strict upper one stays 0
    S = zherk(-1.0, C, 1.0, np.eye(N, dtype=complex, order="F"), trans=2, lower=1,
              overwrite_c=1)
    absS = np.abs(S)  # 1-norm of the Hermitian S: lower column sums plus row sums
    anorm = float(np.max(absS.sum(axis=0) + absS.sum(axis=1) - absS.diagonal()))
    L, info = zpotrf(S, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise ResolutionError(
            f"frame Gram not positive definite (Schur complement zpotrf info {info}); the "
            "cross block norm reaches 1, so coefficients are aliased: increase the grid size M"
        )
    rcond, info = zpocon(L, anorm, uplo="L")
    cond = float(1.0 / max(rcond, 1e-300)) if info == 0 else np.inf
    if cond > COND_CAP:
        raise ConditioningError(
            f"Gram condition estimate {cond:.3e} exceeds cap {COND_CAP:.0e}; "
            "the margin of R is too small for this section"
        )
    rhs = np.zeros((N, 2), dtype=complex, order="F")
    rhs[0, 0], rhs[:, 1] = 1.0, np.conj(C[:, 0])  # [e_0, B e_0]
    X, _ = zpotrs(L, rhs, lower=1, overwrite_b=1)  # [x, z]
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
    return DefectPair(K, Kt, a0, a0t, cond)


# values solved in the open `section_memo` block, keyed (id(R), *key) and
# stored with R; None outside any block. An entry holds R, so the id cannot
# be reused while the entry lives, and nothing points back from R.
_SECTIONS = ContextVar("cmvscat_sections", default=None)


@contextmanager
def section_memo():
    """Solve each level's section, and each union frame, at most once inside the block.

    `section_pair` and `_memoized` serve repeated solves from the block's
    memo, which is released when the block exits, normally or by an exception.
    """
    token = _SECTIONS.set({})
    try:
        yield
    finally:
        _SECTIONS.reset(token)


def _memoized(R, key, solve):
    """`solve()`, taken from the open section memo under (id(R), *key) if solved there.

    Outside a `section_memo()` block this is a plain `solve()` call.
    """
    memo = _SECTIONS.get()
    if memo is None:
        return solve()
    key = (id(R),) + key
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = (R, solve())
    return entry[1]


def section_pair(R, n, m, N):
    """`defect_pair(R, n, m, N)`, taken from the open section memo if solved there.

    Outside a `section_memo()` block this is a plain `defect_pair` call.
    Inside one, sections are keyed by the level n + m, on which alone the
    frame Gram depends: any split gets the solved pair moved by `shift`,
    bit for bit a fresh solve, as a new DefectPair sharing the solved
    pair's `shared` values.
    """
    pair = _memoized(R, (n + m, N), lambda: defect_pair(R, n, m, N))
    p = n - pair.frame.n
    return DefectPair(shift(pair.K, p), shift(pair.Ktilde, p), pair.a0,
                      pair.a0_tilde, pair.cond, pair.shared)


def converged_defect_pair(R, n, m, cfg):
    """Defect pair with a section-doubling convergence certificate.

    Starts at N = cfg.section_start and doubles N until the coordinates
    of both defect vectors change by less than cfg.section_tol between
    consecutive sizes; returns the larger section's pair. No convergence
    by N = cfg.section_cap raises ConvergenceError. Sections come from
    `section_pair`, so an open `section_memo()` block solves each level once.
    """
    N, cap, tol = cfg.section_start, cfg.section_cap, cfg.section_tol
    delta = np.inf
    prev = section_pair(R, n, m, N)
    while 2 * N <= cap:
        cur = section_pair(R, n, m, 2 * N)
        delta = _pair_delta(prev, cur)
        if delta < tol:
            return cur
        prev, N = cur, 2 * N
    raise ConvergenceError(
        f"defect pair at (n, m) = ({n}, {m}) did not converge by section size "
        f"{cap} (last change {delta:.3e} > {tol:.1e})"
    )


def _pair_delta(a, b):
    # a's frame is the leading block of b's (same offsets, b larger): a's
    # coordinates meet b's in place, b's further ones meet zero
    N = a.frame.N
    return float(max(max(np.max(np.abs(s - t[:N])), np.max(np.abs(t[N:])))
                     for u, v in ((a.K, b.K), (a.Ktilde, b.Ktilde))
                     for s, t in ((u.x, v.x), (u.y, v.y))))

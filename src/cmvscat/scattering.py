"""Direct scattering: reconstruct boundary data from the banded operator.

The two wandering vectors are reached by running the operator powers on
far-out basis vectors. The reconstruction expands a resolvent bilinear
form inside the disk in Krylov moments of the banded operator, taken in
one certified sweep of matvecs for all points (or, where that sweep
would cost more, by two banded LU solves per point), and recovers
boundary values from two near-boundary rings by Richardson extrapolation.
"""

from dataclasses import dataclass

import numpy as np

from . import cmv
from .errors import DomainError, InputError, SolverError
from .lrspace import converged_defect_pair, generator, inner_product
from .verblunsky import inverse_scattering

RICHARDSON_EPS = (1e-2, 5e-3)
MOMENT_TOL = 1e-16
# sweep steps that cost about as much as the two LU solves of one point
# (6.8 to 8.9 measured at W = 128 and 512, both boundary policies)
MOMENTS_PER_POINT = 6


@dataclass
class WanderingApprox:
    """Finite-window approximations of the two wandering unit vectors."""

    e0: np.ndarray
    d0: np.ndarray
    depth: int
    residual: float


def wandering_vectors(U, depth):
    """Approximate the wandering pair by operator powers.

    e0 = U^{-depth} applied to basis vector 2*depth, d0 = U^{depth}
    applied to basis vector 2*depth + 1. The squared distance to the
    true vectors is 2 - 2 prod(rho over the tail of levels >= 2*depth),
    reported as `residual`.
    """
    if depth < 0 or 2 * depth + 2 > U.window:
        raise DomainError(
            f"depth {depth} needs basis index {2 * depth + 2} inside window {U.window}"
        )
    e0 = U.basis_vector(2 * depth)
    d0 = U.basis_vector(2 * depth + 1)
    for _ in range(depth):
        e0 = cmv.apply_adjoint(U, e0)
        d0 = cmv.apply(U, d0)
    tail = 1.0
    if U.seq is not None:
        for j in range(max(2 * depth, U.seq.lo), U.seq.hi + 1):
            tail *= U.seq.rho(j)
    return WanderingApprox(e0, d0, depth, 2.0 - 2.0 * tail)


def _moment_count(e0, d, radius):
    """Moments that certify the tail at |z| <= radius without any decay.

    The window matrix is a contraction, so ||U*^k e0|| and ||U^k e0|| stay
    at most ||e0|| and the bound in `_moments` is at most
    2 ||d|| ||e0|| r^k / (1 - r). This returns the first k where that
    falls below MOMENT_TOL, plus one spare step against rounding in the
    norms. On an exactly unitary window (the decoupled policy) it is also
    the count the sweep needs.
    """
    top = 2.0 * float(np.linalg.norm(e0) * np.linalg.norm(d)) / (1.0 - radius)
    if top < MOMENT_TOL:
        return 1
    if radius == 0.0:
        return 2
    return int(np.log(MOMENT_TOL / top) / np.log(radius)) + 2


def _moments(U, e0, d, radius, count):
    """Krylov moments a_k = <U*^k e0, d> and b_k = <U^k e0, d> for k < K.

    The window matrix is a contraction, so ||U*^k e0|| and ||U^k e0||
    cannot grow past k = K and the series dropped at K differ from the
    full ones by at most ||d|| (||U*^K e0|| + ||U^K e0||) r^K / (1 - r)
    at every |z| <= r. K is the first index where that bound falls
    below MOMENT_TOL; a non-finite bound, or none below it within
    `count` moments, raises SolverError.
    """
    scale = float(np.linalg.norm(d)) / (1.0 - radius)
    star, plain = e0, e0
    a, b = [], []
    for k in range(count + 1):
        bound = scale * radius**k * float(np.linalg.norm(star) + np.linalg.norm(plain))
        if not np.isfinite(bound):
            raise SolverError(f"moment tail bound is {bound} at k = {k}")
        if bound < MOMENT_TOL:
            return np.array(a, dtype=complex), np.array(b, dtype=complex)
        a.append(np.vdot(d, star))
        b.append(np.vdot(d, plain))
        star = cmv.apply_adjoint(U, star)
        plain = cmv.apply(U, plain)
    raise SolverError(
        f"moment tail bound {bound:.3e} still above {MOMENT_TOL:.0e} after "
        f"{count} moments at |z| = {radius:.8f}"
    )


def _horner(coeffs, x):
    """sum_k coeffs[k] x^k at every point of x."""
    acc = np.zeros_like(x)
    for c in coeffs[::-1]:
        acc = acc * x + c
    return acc


def _resolvent_form(U, e0, d, zs):
    """The form at each point from two banded LU solves (residual-checked)."""

    def eval_one(z):
        x1 = cmv.resolvent_solve(U, z, e0, "star")
        x2 = cmv.resolvent_solve(U, z, e0, "plain")
        return complex(np.vdot(d, x1 + x2 - e0))

    return np.array([eval_one(z) for z in zs], dtype=complex)


def direct_scattering(seq, zs, W, depth, boundary="zero-tail"):
    """Harmonic continuation of the scattering function at points of the disk.

    Evaluates d*{(I - z U*)^{-1} + (I - conj(z) U)^{-1} - I} e0 where d
    is the wandering vector shifted once by the operator; the unshifted
    pairing reproduces the continuation of t R(t) instead of R. The form
    equals sum_k z^k <U*^k e0, d> + sum_{k>=1} conj(z)^k <U^k e0, d>.

    Two routes give the same values. One moment sweep (`_moments`,
    certified at r = max |z|) serves all points, each evaluated by
    Horner's rule; its length is at most `_moment_count`. Two banded LU
    solves per point cost about as much as MOMENTS_PER_POINT sweep steps,
    so the sweep is taken when `_moment_count` is at most
    MOMENTS_PER_POINT times the number of points, and the solves
    otherwise: few points, or a window that cannot certify short of the
    circle (the decoupled policy near |z| = 1).

    Parameters
    ----------
    seq : VerblunskySequence
    zs : iterable of complex
        Finite points with |z| <= 1 - 1e-6.
    W, depth : int
        Window half-width and wandering-vector depth.

    Returns
    -------
    ndarray of complex values, one per point.

    Raises
    ------
    InputError
        A point is not finite.
    DomainError
        A point lies too close to the unit circle.
    SolverError
        The tail bound or a solve residual cannot be certified.
    """
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(zs)):
        raise InputError("evaluation points must be finite")
    radius = float(np.max(np.abs(zs))) if zs.size else 0.0
    if radius > 1.0 - 1e-6:
        raise DomainError(f"|z| = {radius:.8f} exceeds 1 - 1e-6")
    U = cmv.build_cmv(seq, W, boundary)
    wa = wandering_vectors(U, depth)
    d = cmv.apply(U, wa.d0)
    count = _moment_count(wa.e0, d, radius)
    if count > MOMENTS_PER_POINT * zs.size:
        return _resolvent_form(U, wa.e0, d, zs)
    a, b = _moments(U, wa.e0, d, radius, count)
    zbar = np.conj(zs)
    return _horner(a, zs) + zbar * _horner(b[1:], zbar)


def boundary_reconstruction(seq, grid, W, depth, boundary="zero-tail"):
    """Boundary samples of the reconstructed scattering function.

    Evaluates the continuation on the rings 1 - eps for the two ladder
    radii in one `direct_scattering` call, with the window's edge policy
    `boundary`, and extrapolates the O(eps) term away.
    """
    e1, e2 = RICHARDSON_EPS
    rings = np.concatenate(((1.0 - e1) * grid.nodes, (1.0 - e2) * grid.nodes))
    ring1, ring2 = np.split(direct_scattering(seq, rings, W, depth, boundary), 2)
    # eps1 = 2 eps2, so the linear term cancels in 2 f(eps2) - f(eps1)
    return 2.0 * ring2 - ring1


def roundtrip(R, cfg, ladder=0):
    """Inverse scattering followed by reconstruction, with error metrics.

    With ladder > 0, repeats with (J, W, depth, N) doubled that many
    times and reports the error trend. Each rung's inverse skips the
    shifted-split recomputation (`check_splits`): only the boundary
    errors are reported here. The reconstruction uses the window edge
    policy cfg.boundary.

    Returns
    -------
    dict with sup/L2 boundary errors per rung.

    Raises
    ------
    InputError
        A negative ladder, or one whose last rung starts its sections
        above half of cfg.section_cap, where they cannot double.
    """
    if ladder < 0:
        raise InputError(f"ladder must be >= 0, got {ladder}")
    J, W, depth, start = cfg.levels, cfg.cmv_window, cfg.depth, cfg.section_start
    # the largest k with 2 * start * 2**k <= cap
    top = (cfg.section_cap // (2 * start)).bit_length() - 1
    if ladder > top:
        raise InputError(
            f"ladder {ladder} exceeds {top}: rung {top + 1} would start its "
            f"sections at {start * 2 ** (top + 1)}, which cannot double within "
            f"section_cap {cfg.section_cap}"
        )
    rungs = []
    for rung in range(ladder + 1):
        sub = cfg.replace(
            levels=J * 2**rung,
            cmv_window=W * 2**rung,
            depth=depth * 2**rung,
            section_start=start * 2**rung,
            check_splits=False,
        )
        seq = inverse_scattering(R, sub.levels, sub)
        rec = boundary_reconstruction(seq, R.grid, sub.cmv_window, sub.depth,
                                     sub.boundary)
        err = rec - R.samples
        rungs.append(
            {
                "levels": sub.levels,
                "window": sub.cmv_window,
                "depth": sub.depth,
                "section_start": sub.section_start,
                "sup_error": float(np.max(np.abs(err))),
                "l2_error": float(np.sqrt(np.mean(np.abs(err) ** 2))),
            }
        )
    return {"rungs": rungs, "sup_error": rungs[0]["sup_error"],
            "l2_error": rungs[0]["l2_error"]}


def asymptotics_check(R, n, ms, cfg):
    """Distance identity between a shift generator and the defect vectors.

    For each m, computes ||g'_n - K_{n,m}||^2 exactly in the section
    frame and compares with 2 - 2 a0; reports the worst deviation and
    whether the distances decay monotonically in m.
    """
    rows = []
    for m in ms:
        pair = converged_defect_pair(R, n, m, cfg)
        g = generator(R, "analytic", n, pair.frame)
        diff = g - pair.K
        lhs = float(inner_product(diff, diff).real)
        rhs = 2.0 - 2.0 * pair.a0
        rows.append({"m": int(m), "distance_sq": lhs, "two_minus_2a0": rhs,
                     "a0": pair.a0})
    max_dev = max(abs(r["distance_sq"] - r["two_minus_2a0"]) for r in rows)
    dists = [r["distance_sq"] for r in rows]
    monotone = all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
    return {"rows": rows, "max_identity_dev": float(max_dev),
            "monotone_decay": bool(monotone)}

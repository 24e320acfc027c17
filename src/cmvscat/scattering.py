"""Direct scattering: reconstruct boundary data from the banded operator.

The Fourier coefficients of R are the Krylov moments of the CMV matrix
on its wandering vectors: R_k = <U*^k e0, d> and R_{-k} = <U^k e0, d>.
`moment_series` sweeps the moments that the coefficient window fixes
(the moment horizon K), by default at the smallest basis window and
wandering depth that fix all of them (`minimal_window`), and returns
them as one Laurent series; the boundary reconstruction is its inverse
FFT onto the grid, and points of the disk take its harmonic extension.
Coefficients outside the window are unknown, not zero, so no moment
past the horizon is used.
"""

import numpy as np

from . import circle, cmv
from .errors import ConvergenceError, DomainError, InputError, ResolutionError
from .verblunsky import union_verblunsky


def wandering_vectors(U, depth):
    """Approximate the wandering pair (e0, d0) by operator powers.

    e0 = U^{-depth} applied to basis vector 2*depth, d0 = U^{depth}
    applied to basis vector 2*depth + 1. The squared distance to the
    true vectors is 2 - 2 prod(rho over the tail of levels >= 2*depth),
    so the pair is exact when no coefficient sits at those levels.
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
    return e0, d0


def moment_horizon(seq, W, depth):
    """Moment pairs K that the coefficient window [lo, hi] fixes exactly.

    The series of `moment_series` holds a_k = <U*^k e0, d> = R_k and
    b_k = <U^k e0, d> = R_{-k} for k < K, from the zero-tail window of
    half-width W and the wandering pair of the given depth. K rests on
    two facts.

    Finite propagation: U has band 2, so a step moves support by at most
    2 indices, and where all coefficients vanish U is the free shift
    (U moves even indices up by 2 and odd ones down by 2, U* the
    reverse). The window holds the levels -W-1..W, so the matrix is the
    infinite one with the coefficients of [lo', hi], lo' = max(lo,
    -W-1), and zeros elsewhere, as long as no wave that would come back
    crosses an edge:
      - e0 = U*^depth delta_{2 depth} is the wandering vector exactly
        when no coefficient sits at a level >= 2 depth, i.e.
        2 depth > hi (its distance to the true vector is then 0);
      - that sweep reaches level hi after depth - hi/2 steps and sends
        odd components up for the remaining hi/2 steps, to index
        2 hi + 1; U brings them back, so the window must hold them:
        W >= 2 hi + 2 (d and U^{depth+1} likewise). Below lo' the free
        shift carries everything that leaves away for good.
    Both are tight: depth = hi/2 or W = 2 hi + 1 already spoils moments.
    The window must also hold the pair's start, 2 depth + 2 <= W
    (`wandering_vectors`), or no moment can be swept at all.

    Verblunsky's theorem, two-sided: given the positive levels, the
    first n moments a_0..a_{n-1} and the first n negative levels
    alpha_{-1}..alpha_{-n} determine each other, and the b_k do not
    depend on negative levels. So a_k is R_k for k < -lo' and a_{-lo'}
    already needs alpha_{lo'-1}, which is unknown. Hence

        K = max(0, min(-lo, W + 1))  if 2 depth > hi
                                     and W >= 2 max(hi, depth, 0) + 2,
        K = 0                        otherwise,

    which is J for a window [-J, J] from `minimal_window` on: (34, 9) for
    J = 16, (130, 33) for J = 64.

    Levels above hi are taken as zero, and nothing here can check that:
    a window that cuts nonzero positive levels (the README `check`
    example cut to [-16, 2], whose alpha_3 is not 0) spoils every moment
    from k = 0.
    """
    if 2 * depth <= seq.hi or W < 2 * max(seq.hi, depth, 0) + 2:
        return 0
    return max(0, min(-seq.lo, W + 1))


def minimal_window(seq, depth=0):
    """The least (W, depth'), depth' >= depth, whose `moment_horizon` is -lo.

    depth' is the least depth' >= max(depth, 0) with 2 depth' > hi, and W the
    least window that holds the wandering pair (2 depth' + 2 <= W, so
    W >= 2), the waves that come back (W >= 2 hi + 2) and the -lo moment
    pairs (W + 1 >= -lo): (34, 9) for the window [-16, 16], (130, 33) for
    [-64, 64], and (82, 40) for [-16, 16] from depth 40 on. Either one
    less fixes fewer than -lo pairs.
    """
    depth = max(depth, seq.hi // 2 + 1, 0)
    return max(2 * max(seq.hi, depth) + 2, -seq.lo - 1), depth


def moment_series(seq, W=None, depth=None):
    """The Laurent series of R on [-(K-1), K-1] from K = -lo moment pairs.

    depth defaults to the least of `minimal_window` and W to the least
    at that depth. One sweep of K banded apply/apply_adjoint pairs on
    the zero-tail window gives a_k = <U*^k e0, d> (index k) and
    b_k = <U^k e0, d> (index -k), with d the wandering vector d0 shifted
    once by the operator; the unshifted pairing gives t R(t) instead.

    Raises
    ------
    InputError
        The window fixes no moment (lo >= 0), or W and depth fix fewer
        than its -lo moment pairs (`moment_horizon`); the message names
        the least pair at or above the depth.
    """
    least = minimal_window(seq, depth or 0)
    W = least[0] if W is None else W
    depth = least[1] if depth is None else depth
    K = moment_horizon(seq, W, depth)
    if K < max(-seq.lo, 1):
        raise InputError(
            f"coefficient window [{seq.lo}, {seq.hi}] fixes K = {K} of its {max(-seq.lo, 0)} "
            f"moment pairs at window {W} and depth {depth}; direct scattering needs lo < 0, "
            f"and the minimum with depth >= {depth} is window {least[0]} and depth {least[1]}"
        )
    U = cmv.build_cmv(seq, W, "zero-tail")
    e0, d0 = wandering_vectors(U, depth)
    d = cmv.apply(U, d0)
    star = plain = e0
    a = np.empty(K, dtype=complex)
    b = np.empty(K, dtype=complex)
    for k in range(K):
        a[k], b[k] = np.vdot(d, star), np.vdot(d, plain)
        star, plain = cmv.apply_adjoint(U, star), cmv.apply(U, plain)
    return circle.LaurentSeries(1 - K, np.concatenate((b[:0:-1], a)))


def direct_scattering(seq, zs, W=None, depth=None):
    """Harmonic extension of the scattering function at points of the disk.

    The `moment_series` evaluated by `circle.harmonic_extension`.

    Parameters
    ----------
    seq : VerblunskySequence
    zs : iterable of complex
        Finite points with |z| <= 1 - 1e-6.
    W, depth : int, optional
        Window half-width and wandering-vector depth; `minimal_window`
        by default.

    Returns
    -------
    ndarray of complex values, one per point.

    Raises
    ------
    InputError
        A point is not finite, or W and depth do not fix the window's
        moments (`moment_series`).
    DomainError
        A point lies too close to the unit circle.
    """
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(zs)):
        raise InputError("evaluation points must be finite")
    radius = float(np.max(np.abs(zs))) if zs.size else 0.0
    if radius > 1.0 - 1e-6:
        raise DomainError(f"|z| = {radius:.8f} exceeds 1 - 1e-6")
    return circle.harmonic_extension(moment_series(seq, W, depth), zs)


def boundary_reconstruction(seq, grid, W=None, depth=None):
    """Boundary samples of the reconstructed scattering function.

    The inverse FFT of the `moment_series` onto the grid, that is
    S_{K-1}R, the Fourier truncation of R to |k| < K. A series wider
    than the grid raises ResolutionError rather than alias.
    """
    return circle.synthesize(moment_series(seq, W, depth), grid)


def rung_sequences(R, cfg):
    """Union-frame coefficients (J, seq) of every roundtrip rung, top rung first.

    J doubles from cfg.levels until R's Fourier tail sum_{|k| >= J} |R_k|
    (`fourier_tail`) falls below cfg.tol_roundtrip, since rung J
    reconstructs S_{J-1}R, whose sup error is at most that tail. Every
    coefficient R holds lies inside the grid window, so the loop ends by
    J = M/2 + 1. The top rung is factored first: it is the likeliest to
    exceed section_cap, and its refusal then comes before any other rung
    runs. A ResolutionError or ConvergenceError names the rung's J and tail.
    """
    levels = [cfg.levels]
    while R.fourier_tail(levels[-1]) >= cfg.tol_roundtrip:
        levels.append(min(2 * levels[-1], R.grid.coeff_hi + 1))
    out = []
    for J in reversed(levels):
        try:
            out.append((J, union_verblunsky(R, -J, J, cfg)))
        except (ResolutionError, ConvergenceError) as exc:
            raise type(exc)(f"roundtrip rung J = {J} (Fourier tail "
                            f"{R.fourier_tail(J):.3e}): {exc}") from exc
    return out


def roundtrip(R, rungs):
    """Reconstruction of every rung against R's samples, with error metrics.

    rungs is `rung_sequences(R, cfg)`, (J, coefficients) top rung first;
    each rung is reconstructed at its `minimal_window`, which its J fixes.
    Only the boundary errors are reported.

    Returns
    -------
    dict
        "rungs", one {levels, fourier_tail, sup_error, l2_error} per rung,
        J ascending; "levels", "sup_error" and "l2_error" of the top rung,
        the one whose Fourier tail is below cfg.tol_roundtrip.
    """
    out = []
    for J, seq in rungs:
        err = boundary_reconstruction(seq, R.grid) - R.samples
        out.append({"levels": J, "fourier_tail": R.fourier_tail(J),
                    "sup_error": float(np.max(np.abs(err))),
                    "l2_error": float(np.sqrt(np.mean(np.abs(err) ** 2)))})
    out.reverse()
    top = out[-1]
    return {"rungs": out, "levels": top["levels"], "sup_error": top["sup_error"],
            "l2_error": top["l2_error"]}

"""Brute-force validator on an oversampled quadrature grid.

Everything here goes through trapezoidal quadrature of the 2x2 weight
on the oversampled grid and re-orthogonalized classical Gram-Schmidt
(CGS2), sharing nothing with the Hankel fast path beyond grid
construction and the outer factorization used to express the weight.
A generator is t^e times one of two pointwise forms, so the sum behind
each Gram entry is the sum over nodes of t^(e_b - e_a) times a form
product: one FFT of each of the four products evaluates every such sum
at once. These are the same node sums the dense rule adds, read from R's
samples alone; the Hankel route reads R's Fourier coefficients instead.
A level's two defects drop g'_n and g''_{m+1} from one frame, so one
CGS2 basis of the 2N - 2 generators they share, extended by g''_{m+1}
for K and by g'_n for Ktilde, gives both in 2N + 2 projections, and one
sweep takes every level's frame at once. Slow on purpose; it exists to
certify the fast path, not to compete with it.
"""

from dataclasses import dataclass

import numpy as np

from .circle import CircleGrid, outer_factor, require_szego, synthesize
from .errors import DomainError, InputError, ResolutionError
from .verblunsky import VerblunskySequence, level_split


@dataclass
class QuadratureSpace:
    """Oversampled grid together with pointwise 2x2 weight samples.

    The weight is (1/|T|^2) [[1, -Rbar], [-R, 1]] with T the outer
    factor of 1 - |R|^2, Hermitian positive definite at every node for
    contractive R. spectra[p, q] is fft(phi_p^H W phi_q) / Mq for the
    forms phi_0 = [1; R] of g'_k = t^k phi_0 and phi_1 = [Rbar; 1] of
    g''_l = t^-l phi_1.
    """

    grid: CircleGrid
    weight: np.ndarray
    r_samples: np.ndarray
    spectra: np.ndarray


def quadrature_space(R, oversample=4, weight_via="outer"):
    """Build the dense quadrature realization of the weighted space.

    Parameters
    ----------
    R : ScatteringFunction
    oversample : int
        Quadrature grid size relative to R's own grid.
    weight_via : str
        "outer" evaluates 1/(1 - |R|^2) through the outer factor so the
        formula path differs from pointwise algebra; "inverse" inverts
        the 2x2 matrix [[1, Rbar], [R, 1]] directly (cross-check path).
    """
    require_szego(R)
    qgrid = CircleGrid(R.grid.size * oversample)
    rq = synthesize(R.coeffs, qgrid)
    density = 1.0 - np.abs(rq) ** 2
    if np.min(density) <= 0.0:
        raise DomainError("1 - |R|^2 is not strictly positive on the quadrature grid")
    if weight_via == "outer":
        T = outer_factor(density, qgrid)
        scale = 1.0 / np.abs(T.boundary_samples) ** 2
    elif weight_via == "inverse":
        scale = 1.0 / density
    else:
        raise InputError(f"unknown weight path {weight_via!r}")
    weight = np.empty((qgrid.size, 2, 2), dtype=complex)
    weight[:, 0, 0] = scale
    weight[:, 0, 1] = -scale * np.conj(rq)
    weight[:, 1, 0] = -scale * rq
    weight[:, 1, 1] = scale
    ones = np.ones_like(rq)
    phi = np.array([[ones, rq], [np.conj(rq), ones]])
    forms = np.einsum("pcx,xcd,qdx->pqx", np.conj(phi), weight, phi)
    np.fft.fft(forms, norm="forward", out=forms)
    return QuadratureSpace(qgrid, weight, rq, forms)


def quadrature_gram(Q, ks, ls):
    """Quadrature Gram of g'_k for k in ks, then g''_l for l in ls.

    G[a, b] = <v_b, v_a>, the orientation of `lrspace.frame_gram`: with
    v_a = t^e_a phi_p (e = k for g'_k, -l for g''_l) it is the node mean
    of t^(e_b - e_a) phi_p^H W phi_q, that is spectra[p, q] at e_a - e_b.
    """
    e = np.concatenate([np.asarray(ks, dtype=int), -np.asarray(ls, dtype=int)])
    form = np.repeat([0, 1], [len(ks), len(ls)])
    return Q.spectra[form[:, None], form, (e[:, None] - e) % Q.grid.size]


def _project_out(w, basis, g_rows):
    # w less its G-projection on the basis columns, taken twice ("twice is
    # enough"); the coefficient on column q is <w, q> = q^H G w = (G q)^H w,
    # and g_rows holds the rows (G q)^H. Leading axes run over levels
    for _ in range(2):
        w = w - basis @ (g_rows @ w)
    return w


def _cgs2_defects(G, a, b, levels):
    """Defect coordinates of generators a and b by CGS2 in each Gram of G.

    G stacks one Gram per entry of `levels` and one sweep runs them all.
    The generators other than a and b are orthonormalized once, in order;
    that basis extended by b takes a's residual, extended by a, b's.
    Returns [(r_a, norm_a), (r_b, norm_b)], r of shape (L, dim) and
    normalized, norm of shape (L,). A refusal names the first failing level.
    """
    count, dim, _ = G.shape
    basis = np.zeros((count, dim, dim - 1), dtype=complex)  # G-orthonormal columns
    g_rows = np.zeros((count, dim - 1, dim), dtype=complex)  # (G q)^H per column q
    unit = np.eye(dim, dtype=complex)

    def refuse(failed, what):
        if np.any(failed):
            level = levels[int(np.argmax(failed))]
            raise ResolutionError(
                f"{what} at level {level}; raise the oversampling factor"
            )

    def extend(k, i):
        w = _project_out(unit[:, i:i + 1], basis[:, :, :k], g_rows[:, :k])
        gw = G @ w
        nrm2 = np.real(np.sum(np.conj(w) * gw, axis=(1, 2)))
        refuse(nrm2 <= -1e-8, "quadrature Gram indefinite")
        refuse(nrm2 <= 0.0, "quadrature Gram numerically singular")
        scale = 1.0 / np.sqrt(nrm2)[:, None]
        basis[:, :, k] = w[:, :, 0] * scale
        g_rows[:, k] = np.conj(gw[:, :, 0]) * scale

    for k, i in enumerate(i for i in range(dim) if i not in (a, b)):
        extend(k, i)
    out = []
    for drop, keep in ((a, b), (b, a)):
        extend(dim - 2, keep)
        r = _project_out(unit[:, drop:drop + 1], basis, g_rows)
        nrm2 = np.real(np.sum(np.conj(r) * (G @ r), axis=(1, 2)))
        a0 = np.sqrt(np.maximum(nrm2, 0.0))
        refuse(a0 == 0.0, "defect residual vanished in quadrature")
        out.append((r[:, :, 0] / a0[:, None], a0))
    return out


def oracle_verblunsky(R, J, N, Q):
    """Coefficients over [-J, J] by dense quadrature and Gram-Schmidt.

    Same mathematics as the fast path, independent numerics: the Gram
    comes from trapezoidal quadrature of the weight's samples (no Hankel
    lookups), the defect vectors from classical Gram-Schmidt run twice
    (no Cholesky solves), both of a level from one basis of the
    generators they share.

    The frames of all levels lie in one window of generator indices, so
    one quadrature Gram over that window serves every level, and one
    CGS2 sweep takes the stack of their frame Grams.

    Returns
    -------
    VerblunskySequence with residual norms attached.
    """
    # n and m = j - n both grow with j, so the end levels bound every frame
    n0, m0 = level_split(-J)
    n1, m1 = level_split(J + 1)
    ks = np.arange(n0, n1 + N)
    ls = np.arange(m0 + 1, m1 + N + 1)
    G_all = quadrature_gram(Q, ks, ls)
    levels = np.arange(-J, J + 2)
    n, m = level_split(levels)
    span = np.arange(N)
    idx = np.concatenate([(n - n0)[:, None] + span,
                          len(ks) + (m - m0)[:, None] + span], axis=1)
    G = G_all[idx[:, :, None], idx[:, None, :]]
    (ck, a0s), (ct, _) = _cgs2_defects(G, 0, N, levels)
    alphas = (np.conj(ct[:-1, None, :]) @ (G[:-1] @ ck[:-1, :, None]))[:, 0, 0]
    return VerblunskySequence(-J, alphas, a0s)


def compare_with_fast_path(R, Q, J, N, cfg, fast_seq):
    """Per-level agreement report between oracle and fast-path coefficients.

    Q is R's quadrature space at cfg.oversample. Reruns the oracle at
    doubled oversampling when the first pass disagrees beyond tol_fun
    (Richardson-style escalation).
    """
    osec = oracle_verblunsky(R, J, N, Q)
    devs = [abs(osec.alpha(j) - fast_seq.alpha(j)) for j in range(-J, J + 1)]
    max_dev = float(max(devs))
    escalated = False
    if max_dev > cfg.tol_fun:
        Q8 = quadrature_space(R, 2 * cfg.oversample)
        osec = oracle_verblunsky(R, J, N, Q8)
        devs = [abs(osec.alpha(j) - fast_seq.alpha(j)) for j in range(-J, J + 1)]
        max_dev = float(max(devs))
        escalated = True
    return {
        "max_alpha_dev": max_dev,
        "per_level": {j: float(d) for j, d in zip(range(-J, J + 1), devs)},
        "escalated_oversampling": escalated,
        "oracle_alphas": osec.alphas.tolist(),
    }

"""Brute-force validator on an oversampled quadrature grid.

Everything here goes through dense trapezoidal quadrature of the 2x2
weight and re-orthogonalized classical Gram-Schmidt (CGS2), sharing
nothing with the Hankel fast path beyond grid construction and the
outer factorization used to express the weight. A level's two defects
drop g'_n and g''_{m+1} from one frame, so one CGS2 basis of the 2N - 2
generators they share, extended by g''_{m+1} for K and by g'_n for
Ktilde, gives both in 2N + 2 projections. Slow on purpose; it exists to
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
    contractive R.
    """

    grid: CircleGrid
    weight: np.ndarray
    r_samples: np.ndarray


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
    return QuadratureSpace(qgrid, weight, rq)


def quadrature_gram(Q, ks, ls):
    """Quadrature Gram of g'_k for k in ks, then g''_l for l in ls.

    G[a, b] = <v_b, v_a>, the orientation of `lrspace.frame_gram`: the 2x2
    weight applied node by node, then one product summing over nodes and
    components together.
    """
    t = Q.grid.nodes
    vecs = np.empty((len(ks) + len(ls), 2, Q.grid.size), dtype=complex)
    for i, k in enumerate(ks):
        base = t**k
        vecs[i, 0] = base
        vecs[i, 1] = Q.r_samples * base
    for i, l in enumerate(ls, start=len(ks)):
        base = t ** (-l)
        vecs[i, 0] = np.conj(Q.r_samples) * base
        vecs[i, 1] = base
    # taken as conj(V conj(WV)^T) with WV built and conjugated in place, so
    # that the samples are never copied whole
    w = Q.weight
    wv = np.empty_like(vecs)
    for c in (0, 1):
        np.multiply(w[:, c, 0], vecs[:, 0], out=wv[:, c])
        wv[:, c] += w[:, c, 1] * vecs[:, 1]
    np.conjugate(wv, out=wv)
    dim = vecs.shape[0]
    return np.conj(vecs.reshape(dim, -1) @ wv.reshape(dim, -1).T) / Q.grid.size


def _project_out(w, basis, g_basis):
    # w less its G-projection on the basis columns, taken twice ("twice is
    # enough"); the coefficient on column q is <w, q> = q^H G w = (G q)^H w
    for _ in range(2):
        w = w - basis @ (np.conj(g_basis.T) @ w)
    return w


def _cgs2_defects(G, a, b):
    """Defect coordinates of generators a and b by CGS2 in the Gram G.

    The generators other than a and b are orthonormalized once, in order;
    that basis extended by b takes a's residual, extended by a, b's.
    Returns [(r_a, norm_a), (r_b, norm_b)], each r normalized.
    """
    dim = G.shape[0]
    basis = np.zeros((dim, dim - 1), dtype=complex)  # G-orthonormal columns
    g_basis = np.zeros_like(basis)  # G times each basis column
    unit = np.eye(dim, dtype=complex)

    def extend(k, i):
        w = _project_out(unit[i], basis[:, :k], g_basis[:, :k])
        gw = G @ w
        nrm2 = float(np.real(np.conj(w) @ gw))
        if nrm2 <= -1e-8:
            raise ResolutionError(
                "quadrature Gram indefinite; raise the oversampling factor"
            )
        if nrm2 <= 0.0:
            raise ResolutionError(
                "quadrature Gram numerically singular; raise the oversampling factor"
            )
        basis[:, k] = w / np.sqrt(nrm2)
        g_basis[:, k] = gw / np.sqrt(nrm2)

    for k, i in enumerate(i for i in range(dim) if i not in (a, b)):
        extend(k, i)
    out = []
    for drop, keep in ((a, b), (b, a)):
        extend(dim - 2, keep)
        r = _project_out(unit[drop], basis, g_basis)
        a0 = np.sqrt(max(float(np.real(np.conj(r) @ (G @ r))), 0.0))
        if a0 == 0.0:
            raise ResolutionError(
                "defect residual vanished in quadrature; raise the oversampling factor"
            )
        out.append((r / a0, float(a0)))
    return out


def oracle_verblunsky(R, J, N, Q):
    """Coefficients over [-J, J] by dense quadrature and Gram-Schmidt.

    Same mathematics as the fast path, independent numerics: the Gram
    comes from pointwise quadrature of the weight (no Hankel lookups),
    the defect vectors from classical Gram-Schmidt run twice (no Cholesky
    solves), both of a level from one basis of the generators they share.

    The frames of all levels lie in one window of generator indices, so
    one quadrature Gram over that window serves every level.

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
    span = np.arange(N)
    alphas = []
    a0s = []
    for j in range(-J, J + 2):
        n, m = level_split(j)
        idx = np.concatenate([n - n0 + span, len(ks) + m - m0 + span])
        G = G_all[np.ix_(idx, idx)]
        (ck, a0), (ct, _) = _cgs2_defects(G, 0, N)
        a0s.append(a0)
        if j <= J:
            alphas.append(complex(np.conj(ct) @ (G @ ck)))
    return VerblunskySequence(-J, np.array(alphas), np.array(a0s))


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

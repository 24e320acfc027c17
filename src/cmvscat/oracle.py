"""Brute-force validator on an oversampled quadrature grid.

Everything here goes through dense trapezoidal quadrature of the 2x2
weight and classical modified Gram-Schmidt, sharing nothing with the
Hankel fast path beyond grid construction and the outer factorization
used to express the weight. Slow on purpose; it exists to certify the
fast path, not to compete with it.
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


def oracle_inner(u, v, Q):
    """Trapezoidal quadrature of <W u, v> for two-component samples.

    Parameters
    ----------
    u, v : (2, Mq) arrays
        Component samples on the quadrature grid.
    Q : QuadratureSpace
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != (2, Q.grid.size) or v.shape != (2, Q.grid.size):
        raise InputError("sample arrays must have shape (2, quadrature size)")
    wu0 = Q.weight[:, 0, 0] * u[0] + Q.weight[:, 0, 1] * u[1]
    wu1 = Q.weight[:, 1, 0] * u[0] + Q.weight[:, 1, 1] * u[1]
    return complex(np.mean(np.conj(v[0]) * wu0 + np.conj(v[1]) * wu1))


def generator_samples(Q, kind, index):
    """Samples of a single generator on the quadrature grid."""
    t = Q.grid.nodes
    if kind == "analytic":
        base = t ** index
        return np.stack([base, Q.r_samples * base])
    if kind == "antianalytic":
        base = t ** (-index)
        return np.stack([np.conj(Q.r_samples) * base, base])
    raise InputError(f"unknown generator kind {kind!r}")


def _frame_samples(Q, n, m, N):
    ks = np.arange(n, n + N)
    ls = np.arange(m + 1, m + N + 1)
    t = Q.grid.nodes
    vecs = np.empty((2 * N, 2, Q.grid.size), dtype=complex)
    for i, k in enumerate(ks):
        base = t**k
        vecs[i, 0] = base
        vecs[i, 1] = Q.r_samples * base
    for i, l in enumerate(ls):
        base = t ** (-l)
        vecs[N + i, 0] = np.conj(Q.r_samples) * base
        vecs[N + i, 1] = base
    return vecs


def _quadrature_gram(vecs, Q):
    # G[a, b] = <v_b, v_a>: the 2x2 weight applied node by node, then one
    # product summing over nodes and components together
    w = Q.weight
    wv = np.empty_like(vecs)
    wv[:, 0] = w[:, 0, 0] * vecs[:, 0] + w[:, 0, 1] * vecs[:, 1]
    wv[:, 1] = w[:, 1, 0] * vecs[:, 0] + w[:, 1, 1] * vecs[:, 1]
    dim = vecs.shape[0]
    return np.conj(vecs.reshape(dim, -1)) @ wv.reshape(dim, -1).T / Q.grid.size


def _mgs_defect(G, drop):
    """Defect coordinates by modified Gram-Schmidt in the quadrature Gram.

    Orthonormalizes the generators other than `drop`, projects the
    dropped one out twice (classical re-orthogonalization), and returns
    the normalized residual coordinates and its norm.
    """
    dim = G.shape[0]
    order = [i for i in range(dim) if i != drop]

    def ip(c, d):
        return complex(np.conj(d) @ (G @ c))

    basis = []
    for i in order:
        w = np.zeros(dim, dtype=complex)
        w[i] = 1.0
        for q in basis:
            w -= ip(w, q) * q
        nrm2 = ip(w, w).real
        if nrm2 <= -1e-8:
            raise ResolutionError(
                "quadrature Gram indefinite; raise the oversampling factor"
            )
        if nrm2 <= 0.0:
            raise ResolutionError(
                "quadrature Gram numerically singular; raise the oversampling factor"
            )
        basis.append(w / np.sqrt(nrm2))
    r = np.zeros(dim, dtype=complex)
    r[drop] = 1.0
    for _ in range(2):
        for q in basis:
            r -= ip(r, q) * q
    a0 = np.sqrt(max(ip(r, r).real, 0.0))
    if a0 == 0.0:
        raise ResolutionError(
            "defect residual vanished in quadrature; raise the oversampling factor"
        )
    return r / a0, float(a0)


def oracle_verblunsky(R, J, N, Q):
    """Coefficients over [-J, J] by dense quadrature and Gram-Schmidt.

    Same mathematics as the fast path, independent numerics: the Gram
    comes from pointwise quadrature of the weight (no Hankel lookups),
    the defect vectors from modified Gram-Schmidt (no Cholesky solves).

    Returns
    -------
    VerblunskySequence with residual norms attached.
    """
    alphas = []
    a0s = []
    for j in range(-J, J + 2):
        n, m = level_split(j)
        vecs = _frame_samples(Q, n, m, N)
        G = _quadrature_gram(vecs, Q)
        ck, a0 = _mgs_defect(G, 0)
        ct, _ = _mgs_defect(G, N)
        a0s.append(a0)
        if j <= J:
            alphas.append(complex(np.conj(ct) @ (G @ ck)))
    return VerblunskySequence(-J, np.array(alphas), np.array(a0s))


def compare_with_fast_path(R, J, N, cfg, fast_seq):
    """Per-level agreement report between oracle and fast-path coefficients.

    Reruns the oracle at doubled oversampling when the first pass
    disagrees beyond tol_fun (Richardson-style escalation).
    """
    Q = quadrature_space(R, cfg.oversample)
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

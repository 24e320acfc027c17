"""Brute-force validator on an oversampled quadrature grid.

Everything here goes through trapezoidal quadrature of the 2x2 weight
on the oversampled grid and re-orthogonalized classical Gram-Schmidt
(CGS2). Its independence from the Hankel fast path lies in what each
route computes and how it factors: the oracle samples R on the
oversampled grid, sets the weight node by node there and orthogonalizes
by CGS2, while the fast path never forms the weight, reads R's Fourier
coefficients into Hankel blocks and factors them by Cholesky. The two
share R's coefficients and grid construction, nothing else.
A generator is t^e times one of two pointwise forms, so the sum behind
each Gram entry is the sum over nodes of t^(e_b - e_a) times a form
product: one FFT of each of the four products evaluates every such sum
at once. These are the same node sums the dense rule adds.
The union frame of a level window holds every level's section, so one
CGS2 sweep over its generators, in order, gives one triangular factor of
its Gram, and every coefficient of the window is read off that factor.
Slow on purpose; it exists to certify the fast path, not to compete
with it.
"""

from dataclasses import dataclass

import numpy as np

from .circle import CircleGrid, require_szego, synthesize
from .errors import DomainError, ResolutionError
from .verblunsky import VerblunskySequence


@dataclass
class QuadratureSpace:
    """Oversampled grid together with pointwise 2x2 weight samples.

    The weight is (1/(1 - |R|^2)) [[1, -Rbar], [-R, 1]], the inverse of
    [[1, Rbar], [R, 1]], Hermitian positive definite at every node for
    contractive R. spectra[p, q] is fft(phi_p^H W phi_q) / Mq for the
    forms phi_0 = [1; R] of g'_k = t^k phi_0 and phi_1 = [Rbar; 1] of
    g''_l = t^-l phi_1.
    """

    grid: CircleGrid
    weight: np.ndarray
    r_samples: np.ndarray
    spectra: np.ndarray


def quadrature_space(R, oversample=4):
    """Build the dense quadrature realization of the weighted space.

    The weight is set node by node, 1/(1 - |R|^2) times [[1, -Rbar],
    [-R, 1]] at each sample of R on the oversampled grid. This is where
    the oracle parts from the fast path, which never forms the weight and
    reads R's Fourier coefficients straight into Hankel blocks.

    Parameters
    ----------
    R : ScatteringFunction
    oversample : int
        Quadrature grid size relative to R's own grid.
    """
    require_szego(R)
    qgrid = CircleGrid(R.grid.size * oversample)
    rq = synthesize(R.coeffs, qgrid)
    density = 1.0 - np.abs(rq) ** 2
    if np.min(density) <= 0.0:
        raise DomainError("1 - |R|^2 is not strictly positive on the quadrature grid")
    scale = 1.0 / density
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


def _project_out(w, basis, L):
    # w less its G-projection on the basis columns q_k, taken twice ("twice is
    # enough"); the coefficient on q_k is <w, q_k> = q_k^H G w = (G q_k)^H w,
    # and G q_k is column k of L
    for _ in range(2):
        w = w - basis @ np.conj(np.conj(w) @ L)
    return w


def _gram_schmidt(G, names):
    """Lower-triangular L with G = L L^H, by CGS2 over G's generators in order.

    Generator i is orthogonalized against the G-orthonormal basis q_0 ..
    q_{i-1} of those before it. Column i of L is G q_i, so row i holds
    generator i's projection coefficients <e_i, q_k>, conjugated, and
    L_ii is its distance from the generators before it. A refusal names
    the generator, names[i], at which the sweep failed.
    """
    n = len(G)
    basis = np.zeros((n, n), dtype=complex)  # q_k in generator coordinates
    L = np.zeros((n, n), dtype=complex)
    for i in range(n):
        # generators past i do not enter q_0 .. q_i: work in the first i + 1
        w = np.zeros(i + 1, dtype=complex)
        w[i] = 1.0
        w = _project_out(w, basis[:i + 1, :i], L[:i + 1, :i])
        gw = G[:, :i + 1] @ w
        nrm2 = np.vdot(w, gw[:i + 1]).real
        if nrm2 <= 0.0:
            what = "indefinite" if nrm2 <= -1e-8 else "numerically singular"
            raise ResolutionError(
                f"quadrature Gram {what} at {names[i]}; raise the oversampling factor")
        norm = np.sqrt(nrm2)
        basis[:i + 1, i] = w / norm
        L[i + 1:, i] = gw[i + 1:] / norm  # rows above i are 0 by orthogonality
        L[i, i] = norm
    return L


def oracle_verblunsky(R, J, N, Q):
    """Coefficients over [-J, J] by dense quadrature and Gram-Schmidt.

    Q, R's quadrature space, holds everything the oracle reads. R is not
    read; it stays a parameter for callers that pass it (the benchmark's
    oracle reference).

    Same mathematics as the fast path, independent numerics: the Gram
    comes from trapezoidal quadrature of the weight's samples (no Hankel
    lookups), the triangular factor from classical Gram-Schmidt run
    twice (no Cholesky).

    The union frame [g''_N .. g''_2, g'_{J+1+N} .. g'_{-J}, g''_1] holds
    the section of every level j of the window: g''_1 .. g''_N and the
    analytic generators down to g'_{j+1}. One sweep over it in that order
    gives G = L L^H. With l the last row of L off its diagonal and
    s_p = sum_{i<p} |l_i|^2, the level whose g'_j sits at position p reads

        alpha_j = -l_p / sqrt(1 - s_p),  a0_j = L_pp sqrt(1 - |alpha_j|^2).

    Returns
    -------
    VerblunskySequence with residual norms attached, a0s on -J..J+1.

    Raises
    ------
    ResolutionError
        The sweep meets an indefinite or singular Gram, or a level's
        residual vanishes; the message names the generator.
    """
    ks = np.arange(J + 1 + N, -J - 1, -1)
    ls = np.arange(N, 0, -1)
    G = quadrature_gram(Q, ks, ls)  # [g'_ks, g''_ls]: move g''_N .. g''_2 first
    P = len(ks)
    order = np.concatenate([np.arange(P, P + N - 1), np.arange(P), [P + N - 1]])
    names = [f"g''_{l}" for l in ls[:-1]] + [f"g'_{k}" for k in ks] + ["g''_1"]
    L = _gram_schmidt(G[np.ix_(order, order)], names)
    ell = L[-1, :-1]
    s = np.concatenate(([0.0], np.cumsum(np.abs(ell) ** 2)))
    pos = N - 1 + (J + 1 + N) - np.arange(-J, J + 2)  # g'_j's position
    # a0_j vanishes when g''_1 lies in the span of g'_j and those before it;
    # the refusal names the first such g'_j of the sweep
    vanished = pos[s[pos + 1] >= 1.0]
    if vanished.size:
        raise ResolutionError(f"defect residual vanished in quadrature at "
                              f"{names[vanished.min()]}; raise the oversampling factor")
    alphas = -ell[pos] / np.sqrt(1.0 - s[pos])
    a0s = L[pos, pos].real * np.sqrt(1.0 - np.abs(alphas) ** 2)
    return VerblunskySequence(-J, alphas[:-1], a0s)


def compare_with_fast_path(Q, J, N, fast_seq):
    """Agreement report between oracle and fast-path coefficients on [-J, J].

    Q is R's quadrature space (`quadrature_space`) and N the oracle's
    union frame size. Compares alpha_j over -J..J and the residual norms
    a0_j over -J..J+1, once: the weighted forms behind every Gram entry
    are 1, R, conj(R) and 1 node by node ([1, R] W = [1, 0]), trigonometric
    polynomials within R's band, so any grid that holds the frame's
    indices sums them exactly, and a finer grid would read the same Gram.
    """
    osec = oracle_verblunsky(None, J, N, Q)
    a0s = fast_seq.a0s[np.arange(-J, J + 2) - fast_seq.lo]
    return {"max_alpha_dev": float(max(abs(osec.alpha(j) - fast_seq.alpha(j))
                                       for j in range(-J, J + 1))),
            "max_a0_dev": float(np.max(np.abs(osec.a0s - a0s)))}

"""Pointwise 2x2 spectral data of the shift in the defect basis.

All blocks are grid-sampled (M, 2, 2) arrays. One evaluation of a
defect pair's K gives its cross block V (`defect_samples`), and the
density with respect to the diagonal-level pair is Sigma = V^H W V, with
W = (1 / (1 - |R|^2)) [[1, -conj R], [-R, 1]] the two-component weight.
So it is Hermitian nonnegative by construction up to rounding, and
det Sigma = |det V|^2 det W = 1 - |R|^2 pointwise. Its exact moments are
entries of powers of the CMV matrix built from the alpha_j
(`moment_check`), which ties the spectral representation to the
coefficients: the density comes from one level's defect pair, the
coefficients from the caller's route, usually the union frame. Every
function here takes the pairs and coefficients it reads and solves no
section itself.
"""

from dataclasses import dataclass

import numpy as np

from . import cmv
from .errors import DomainError, InconsistencyError, InputError
from .lrspace import evaluate
from .verblunsky import VerblunskySequence

PAIR_DIAGONAL = "K-and-tKtilde"
PAIR_NEXT = "K-and-Ktilde-next"


def _mat2(grid, a, b, c, d):
    out = np.empty((grid.size, 2, 2), dtype=complex)
    out[:, 0, 0] = a
    out[:, 0, 1] = b
    out[:, 1, 0] = c
    out[:, 1, 1] = d
    return out


def _hermitian_min_eig(block):
    a = block[:, 0, 0].real
    c = block[:, 1, 1].real
    b = block[:, 0, 1]
    half = 0.5 * (a + c)
    rad = np.sqrt((0.5 * (a - c)) ** 2 + np.abs(b) ** 2)
    return half - rad


@dataclass
class SpectralDensity:
    """Hermitian nonnegative 2x2 density samples for a tagged vector pair."""

    grid: object
    values: np.ndarray
    pair_tag: str
    level: int


def defect_samples(pair):
    """Cross block V = [K, t^(n-m) (conj k2, conj k1)] of a defect pair, (M, 2, 2).

    (k1, k2) are the components of K on R's grid and (n, m) the pair's
    split. In terms of the Schur function omega of level n + m and
    A = t^n conj(k1), V = diag(t^n, t^-m) [[conj A, conj(A omega)], [A omega, A]].
    """
    f, grid = pair.frame, pair.K.scattering.grid
    k1, k2 = evaluate(pair.K)
    tw = grid.nodes ** (f.n - f.m)
    return _mat2(grid, k1, tw * np.conj(k2), k2, tw * np.conj(k1))


def spectral_density(R, pair):
    """Density V^H W V of the shift with respect to the diagonal-level pair at n.

    V = `defect_samples` of R's defect pair at offsets (n, n) and W the 2x2
    weight (1 / (1 - |R|^2)) [[1, -conj R], [-R, 1]]; tagged `K-and-tKtilde`,
    level n. Hermitian nonnegativity is verified pointwise (eigenvalues
    above -1e-9). Solving the pair passed the Szego guard
    (`require_szego`), which keeps 1 - |R|^2 >= 1e-12 at every node, so W
    is finite. A pair off the diagonal split raises InputError.
    """
    n = pair.frame.n
    if pair.frame.m != n:
        raise InputError(f"the density reads the pair at offsets (n, n), got {pair.frame}")
    V = defect_samples(pair)
    Rs = R.samples
    W = _mat2(R.grid, 1.0, -np.conj(Rs), -Rs, 1.0) / (1.0 - np.abs(Rs) ** 2)[:, None, None]
    values = np.matmul(np.conj(np.swapaxes(V, 1, 2)), np.matmul(W, V))
    dens = SpectralDensity(R.grid, values, PAIR_DIAGONAL, n)
    _check_nonnegative(dens)
    return dens


def _check_nonnegative(density):
    low = float(np.min(_hermitian_min_eig(density.values)))
    if low < -1e-9:
        raise InconsistencyError(
            f"density eigenvalue {low:.3e} below the -1e-9 floor"
        )


def change_basis_density(density, alpha2n):
    """Density for the off-diagonal partner pair at the same level.

    Conjugates pointwise by [[1, 0], [-alpha/rho, t/rho]] and its
    adjoint, where alpha is the even-level coefficient.
    """
    if abs(alpha2n) >= 1.0:
        raise DomainError(f"|alpha| must be < 1, got {abs(alpha2n):.6g}")
    rho = float(np.sqrt(1.0 - abs(alpha2n) ** 2))
    grid = density.grid
    t = grid.nodes
    S = _mat2(
        grid,
        np.ones(grid.size),
        np.zeros(grid.size),
        np.full(grid.size, -alpha2n / rho),
        t / rho,
    )
    vals = np.matmul(S, np.matmul(density.values, np.conj(np.swapaxes(S, 1, 2))))
    out = SpectralDensity(grid, vals, PAIR_NEXT, density.level)
    _check_nonnegative(out)
    return out


def density_moments(density, kmax):
    """Quadrature moments int t^k dSigma for k = -kmax..kmax."""
    t = density.grid.nodes
    out = {}
    for k in range(-kmax, kmax + 1):
        out[k] = np.mean((t**k)[:, None, None] * density.values, axis=0)
    return out


def moment_check(density, seq, kmax):
    """Quadrature moments of a density against V^H U^k V, |k| <= kmax.

    Multiplication by t is the CMV matrix U of the alpha_j in the defect
    basis (Simon, OPUC vol. 1, ch. 4): <t^k v_q, v_p> = (V^H U^k V)[p, q].
    With n = density.level, V is (e_{2n}, e_{2n+1}) for
    `K-and-Ktilde-next` and, by the rotation relation at level 2n - 1,
    (e_{2n}, rho e_{2n-1} - conj(alpha) e_{2n}) with alpha = alpha_{2n-1}
    for `K-and-tKtilde`. Each factor of U = L M moves support by one index
    and reads the levels l of the blocks (l, l + 1) it meets, so, splitting
    its 2|k| factors in the middle, U^k on V over [a, a + 1] reads the
    levels a - |k| .. a + |k|. Those are sliced out of seq, which the
    caller computes, so this solves no section; the zero-tail window
    holds the sweep's indices a - 2 kmax .. a + 1 + 2 kmax.

    Returns
    -------
    dict with the worst entrywise deviation and the per-k table of both
    sides ("quadrature", "cmv").

    Raises
    ------
    DomainError
        The density carries an unknown pair tag.
    InputError
        seq does not cover the levels a - kmax .. a + kmax.
    """
    n, tag = density.level, density.pair_tag
    if tag not in (PAIR_DIAGONAL, PAIR_NEXT):
        raise DomainError(f"unknown pair tag {tag!r}")
    a = 2 * n - 1 if tag == PAIR_DIAGONAL else 2 * n
    if seq.lo > a - kmax or seq.hi < a + kmax:
        raise InputError(f"moments up to order {kmax} at level {n} read levels "
                         f"[{a - kmax}, {a + kmax}]; the coefficients cover "
                         f"[{seq.lo}, {seq.hi}]")
    start = a - kmax - seq.lo
    window = VerblunskySequence(a - kmax, seq.alphas[start:start + 2 * kmax + 1])
    U = cmv.build_cmv(window, max(2, 2 * kmax - a, a + 1 + 2 * kmax), "zero-tail")
    V = np.zeros((U.dim, 2), dtype=complex)
    V[U.pos(2 * n), 0] = 1.0
    if tag == PAIR_DIAGONAL:
        V[U.pos(a), 1], V[U.pos(2 * n), 1] = window.rho(a), -np.conj(window.alpha(a))
    else:
        V[U.pos(a + 1), 1] = 1.0
    exact = {0: V.conj().T @ V}
    up = down = V
    for k in range(1, kmax + 1):
        up = np.column_stack([cmv.apply(U, v) for v in up.T])
        down = np.column_stack([cmv.apply_adjoint(U, v) for v in down.T])
        exact[k], exact[-k] = V.conj().T @ up, V.conj().T @ down
    quad = density_moments(density, kmax)
    table = {}
    worst = 0.0
    for k in range(-kmax, kmax + 1):
        dev = float(np.max(np.abs(quad[k] - exact[k])))
        worst = max(worst, dev)
        table[k] = {"quadrature": quad[k].tolist(), "cmv": exact[k].tolist(),
                    "max_abs_dev": dev}
    return {"max_abs_dev": worst, "per_k": table}


def _renormalized(pair):
    """S'_j = diag(t^-n, t^m) V_j of the pair of level j at the split (n, m)."""
    f, t = pair.frame, pair.K.scattering.grid.nodes
    return np.stack([t**-f.n, t**f.m], axis=1)[:, :, None] * defect_samples(pair)


def sigma_recursion_check(pair_j, pair_next, alpha_j):
    """Sup-norm residual of the one-step recursion between renormalized blocks.

    pair_j and pair_next are the pairs of levels j and j + 1, alpha_j the
    coefficient of level j. Evaluates rho_j diag(1, tbar) S'_{j+1} -
    S'_j diag(1, tbar) [[1, -conj(alpha_j)], [-alpha_j, 1]] over the grid.
    """
    s0, s1 = _renormalized(pair_j), _renormalized(pair_next)
    rho = float(np.sqrt(1.0 - abs(alpha_j) ** 2))
    tbar = np.conj(pair_j.K.scattering.grid.nodes)
    s1[:, 1, :] *= tbar[:, None]
    s1 *= rho
    mix = np.array([[1.0, -np.conj(alpha_j)], [-alpha_j, 1.0]], dtype=complex)
    s0[:, :, 1] *= tbar[:, None]
    return float(np.max(np.abs(s1 - np.matmul(s0, mix))))


def log_det_diagnostic(density):
    """Quadrature of log det of the density (finite when strictly positive)."""
    det = (
        density.values[:, 0, 0] * density.values[:, 1, 1]
        - density.values[:, 0, 1] * density.values[:, 1, 0]
    ).real
    if np.min(det) <= 0.0:
        return {"min_det": float(np.min(det)), "log_det_integral": float("-inf")}
    return {
        "min_det": float(np.min(det)),
        "log_det_integral": float(np.mean(np.log(det))),
    }

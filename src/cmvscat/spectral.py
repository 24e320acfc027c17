"""Pointwise 2x2 spectral data of the shift in the defect basis.

All blocks are grid-sampled (M, 2, 2) arrays. The density with respect
to the diagonal-level pair comes out of the cross blocks through a
Schur-complement identity, so it is Hermitian nonnegative by
construction up to rounding. Its exact moments are entries of powers of
the CMV matrix built from the alpha_j (`moment_check`), which ties the
spectral representation to the coefficients.
"""

from dataclasses import dataclass

import numpy as np

from . import cmv
from .circle import require_szego
from .errors import ConditioningError, DomainError, InconsistencyError
from .lrspace import converged_defect_pair, evaluate
from .verblunsky import VerblunskySequence, alpha_from_defects, level_split, recover_omega

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
class SigmaBlocks:
    """Sampled block data of the scattering density at offsets (n, m)."""

    grid: object
    n: int
    m: int
    A: np.ndarray
    omega: object
    s21_prime: np.ndarray
    s21: np.ndarray
    s12: np.ndarray
    s22: np.ndarray
    s11: np.ndarray


@dataclass
class SpectralDensity:
    """Hermitian nonnegative 2x2 density samples for a tagged vector pair."""

    grid: object
    values: np.ndarray
    pair_tag: str
    level: int


def sigma21_prime(pair, n, m):
    """Renormalized cross block diag(Abar, A) [[1, wbar], [w, 1]] and its pieces."""
    R = pair.K.scattering
    grid = R.grid
    k1, _ = evaluate(pair.K)
    A = np.conj(grid.nodes ** (-n) * k1)
    omega = recover_omega(pair, n, m)
    w = omega.samples
    block = _mat2(grid, np.conj(A), np.conj(A) * np.conj(w), A * w, A)
    return A, omega, block


def sigma_blocks(pair, R, n, m):
    """All sampled blocks at offsets (n, m).

    The diagonal-corner block follows from the cross blocks by the
    Schur-complement identity s11 = s12 s22^{-1} s21, which keeps it
    Hermitian nonnegative pointwise.
    """
    grid = R.grid
    A, omega, s21p = sigma21_prime(pair, n, m)
    tn = grid.nodes**n
    tmb = grid.nodes ** (-m)
    s21 = s21p.copy()
    s21[:, 0, :] *= tn[:, None]
    s21[:, 1, :] *= tmb[:, None]
    s12 = np.conj(np.swapaxes(s21, 1, 2))
    Rs = R.samples
    s22 = _mat2(grid, np.ones(grid.size), np.conj(Rs), Rs, np.ones(grid.size))
    det = 1.0 - np.abs(Rs) ** 2
    if np.min(det) < 1e-12:
        k = int(np.argmin(det))
        raise ConditioningError(
            f"1 - |R|^2 = {det[k]:.3e} at node {k}; the 2x2 weight is numerically "
            "singular there"
        )
    s22inv = _mat2(grid, np.ones(grid.size), -np.conj(Rs), -Rs, np.ones(grid.size))
    s22inv /= det[:, None, None]
    s11 = np.matmul(s12, np.matmul(s22inv, s21))
    return SigmaBlocks(grid, n, m, A, omega, s21p, s21, s12, s22, s11)


def spectral_density(R, n, cfg):
    """Density of the shift with respect to the diagonal-level pair at n.

    Returns the corner block at offsets (n, n), tagged `K-and-tKtilde`;
    Hermitian nonnegativity is verified pointwise (eigenvalues above
    -1e-9). R must pass the Szego guard at cfg.margin_min
    (`require_szego`, DomainError otherwise).
    """
    require_szego(R, cfg.margin_min)
    pair = converged_defect_pair(R, n, n, cfg)
    blocks = sigma_blocks(pair, R, n, n)
    dens = SpectralDensity(R.grid, blocks.s11, PAIR_DIAGONAL, n)
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


def moment_check(density, R, kmax, cfg):
    """Quadrature moments of a density against V^H U^k V, |k| <= kmax.

    Multiplication by t is the CMV matrix U of the alpha_j in the defect
    basis (Simon, OPUC vol. 1, ch. 4): <t^k v_q, v_p> = (V^H U^k V)[p, q].
    With n = density.level, V is (e_{2n}, e_{2n+1}) for
    `K-and-Ktilde-next` and, by the rotation relation at level 2n - 1,
    (e_{2n}, rho e_{2n-1} - conj(alpha) e_{2n}) with alpha = alpha_{2n-1}
    for `K-and-tKtilde`. Each factor of U = L M moves support by one index
    and reads the levels l of the blocks (l, l + 1) it meets, so, splitting
    its 2|k| factors in the middle, U^k on V over [a, a + 1] reads the
    levels a - |k| .. a + |k|. Those levels are solved in one pass before
    any alpha is read, and the zero-tail window holds the sweep's indices
    a - 2 kmax .. a + 1 + 2 kmax.

    Returns
    -------
    dict with the worst entrywise deviation and the per-k table of both
    sides ("quadrature", "cmv").

    Raises
    ------
    DomainError
        The density carries an unknown pair tag.
    """
    n, tag = density.level, density.pair_tag
    if tag not in (PAIR_DIAGONAL, PAIR_NEXT):
        raise DomainError(f"unknown pair tag {tag!r}")
    a = 2 * n - 1 if tag == PAIR_DIAGONAL else 2 * n
    pairs = [converged_defect_pair(R, *level_split(j), cfg)
             for j in range(a - kmax, a + kmax + 1)]
    seq = VerblunskySequence(a - kmax, [alpha_from_defects(p) for p in pairs])
    U = cmv.build_cmv(seq, max(2, 2 * kmax - a, a + 1 + 2 * kmax), "zero-tail")
    V = np.zeros((U.dim, 2), dtype=complex)
    V[U.pos(2 * n), 0] = 1.0
    if tag == PAIR_DIAGONAL:
        V[U.pos(a), 1], V[U.pos(2 * n), 1] = seq.rho(a), -np.conj(seq.alpha(a))
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


def sigma_recursion_check(R, j, cfg):
    """Sup-norm residual of the one-step recursion between renormalized blocks.

    Evaluates rho_j diag(1, tbar) S'_{j+1} - S'_j diag(1, tbar)
    [[1, -conj(alpha_j)], [-alpha_j, 1]] over the grid.
    """
    n0, m0 = level_split(j)
    n1, m1 = level_split(j + 1)
    pair0 = converged_defect_pair(R, n0, m0, cfg)
    pair1 = converged_defect_pair(R, n1, m1, cfg)
    _, _, s0 = sigma21_prime(pair0, n0, m0)
    _, _, s1 = sigma21_prime(pair1, n1, m1)
    alpha = alpha_from_defects(pair0)
    rho = float(np.sqrt(1.0 - abs(alpha) ** 2))
    tbar = np.conj(R.grid.nodes)
    dleft = s1.copy()
    dleft[:, 1, :] *= tbar[:, None]
    dleft *= rho
    mix = np.array([[1.0, -np.conj(alpha)], [-alpha, 1.0]], dtype=complex)
    dright = s0.copy()
    dright[:, :, 1] *= tbar[:, None]
    dright = np.matmul(dright, mix)
    return float(np.max(np.abs(dleft - dright)))


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

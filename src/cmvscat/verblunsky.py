"""Verblunsky coefficients from defect pairs, and the Schur-step chain.

The coefficient at level j = n + m is the inner product of the two
defect vectors of that level; the associated Schur functions are read
off pointwise from the defect vector components and obey a Moebius
recursion that links consecutive levels. A second route,
`union_verblunsky`, reads every level of a window off one Cholesky
factor of the union of the levels' frames.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.lapack import zpotrf

from .circle import require_szego
from .errors import (
    CmvScatError, ConvergenceError, DegeneracyError, DomainError, EvaluationError,
    InconsistencyError, InputError, ResolutionError,
)
from .lrspace import (
    DEGENERACY_FLOOR, _memoized, converged_defect_pair, evaluate, inner_product,
)


def level_split(j):
    """Balanced (n, m) with n + m = j: n = ceil(j / 2)."""
    n = -((-j) // 2)
    return n, j - n


@dataclass
class VerblunskySequence:
    """Coefficients alpha_j for levels lo..lo+len-1, all of modulus < 1.

    When produced by inverse scattering, `a0s` holds the residual norms
    for levels lo..hi+1 (one more entry than `alphas`), so consecutive
    ratios give an independent reading of rho_j.
    """

    lo: int
    alphas: np.ndarray
    a0s: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.alphas = np.atleast_1d(np.asarray(self.alphas, dtype=complex))
        if not np.all(np.isfinite(self.alphas)):
            raise InputError("coefficients must be finite (got NaN or inf)")
        if np.any(np.abs(self.alphas) >= 1.0):
            worst = float(np.max(np.abs(self.alphas)))
            raise DomainError(f"|alpha| must be < 1 everywhere, got {worst:.6g}")
        if self.a0s is not None:
            self.a0s = np.asarray(self.a0s, dtype=float)

    @property
    def hi(self):
        return self.lo + len(self.alphas) - 1

    @property
    def rhos(self):
        return np.sqrt(1.0 - np.abs(self.alphas) ** 2)

    def alpha(self, j):
        """alpha_j, zero outside the computed window."""
        if self.lo <= j <= self.hi:
            return complex(self.alphas[j - self.lo])
        return 0j

    def rho(self, j):
        return float(np.sqrt(1.0 - abs(self.alpha(j)) ** 2))


@dataclass
class SchurFunction:
    """Grid samples of a contractive analytic function at a given level."""

    grid: object
    samples: np.ndarray
    level: int

    @property
    def value_at_zero(self):
        # grid mean = 0th Fourier coefficient, exact for band-limited data
        return complex(np.mean(self.samples))

    @property
    def sup(self):
        return float(np.max(np.abs(self.samples)))


def alpha_from_defects(pair):
    """Verblunsky coefficient <K, Ktilde> of a defect pair, once per solved
    section: every split a `section_memo()` block serves reads that complex."""
    a = pair.shared.get("alpha")
    if a is None:
        a = pair.shared["alpha"] = inner_product(pair.K, pair.Ktilde)
    if abs(a) >= 1.0:
        raise InconsistencyError(
            f"|alpha| = {abs(a):.6g} >= 1; section not converged or input invalid"
        )
    return a


def solve_levels(R, J, cfg):
    """Converged defect pairs {j: pair} of levels -J..J+1, errors prefixed `level j:`."""
    pairs = {}
    for j in range(-J, J + 2):
        try:
            pairs[j] = converged_defect_pair(R, *level_split(j), cfg)
        except CmvScatError as exc:
            raise type(exc)(f"level {j}: {exc}") from exc
    return pairs


def inverse_scattering(R, J, cfg):
    """Verblunsky coefficients of R over the level window [-J, J].

    Solves levels -J..J+1 (`solve_levels`; the extra level supplies
    the last residual ratio), extracts alpha_j = <K_j, Ktilde_j> at the
    balanced split, and records the residual norms. Coefficients only:
    the residual-ratio reading of rho_j is `convergence_report`, and
    another split gives the same alpha_j exactly (`split_deviation`).

    Returns
    -------
    VerblunskySequence
        `diagnostics` carries "cond", the a priori bound 1 / (1 - sup |R|^2)
        on the condition number of every section (`require_szego`), and
        "sections": one {level, N, a0} per level -J..J+1, N converged.

    Raises
    ------
    DomainError, ConditioningError
        R fails the Szego guard at cfg.margin_min (`require_szego`).
    """
    rep = require_szego(R, cfg.margin_min)
    pairs = solve_levels(R, J, cfg)
    alphas = np.array([alpha_from_defects(pairs[j]) for j in range(-J, J + 1)])
    a0s = np.array([p.a0 for p in pairs.values()])
    seq = VerblunskySequence(-J, alphas, a0s)

    seq.diagnostics["cond"] = 1.0 / (1.0 - rep.sup_modulus**2)
    seq.diagnostics["sections"] = [
        {"level": j, "N": p.frame.N, "a0": p.a0} for j, p in pairs.items()
    ]
    return seq


def union_factor(R, J, N):
    """alpha_j and a0_j of levels -J..J+1 off one Cholesky factor of the union frame.

    The frame [g''_N .. g''_2, g'_{J+1+N} .. g'_{-J}, g''_1] holds the
    split-(j, 0) section of every level j, with N anti-analytic and at
    least N + 1 analytic generators. Its Gram G = L L^H: the diagonal
    entry L_pp at g'_j's position p is the distance from g'_j to the
    generators before it. With l the last row of L off its diagonal and
    s_p = sum_{i<p} |l_i|^2, adding g''_1, the last generator, gives

        alpha_j = -l_p / sqrt(1 - s_p),  a0_j = L_pp sqrt(1 - |alpha_j|^2).

    Only the lower triangle of G is written, in Fortran order, and LAPACK
    factors it in place. Raises ResolutionError when a Hankel index lies
    outside R's resolved window or G does not factor, DegeneracyError
    when a residual falls below DEGENERACY_FLOOR.
    """
    P = 2 * J + 2 + N  # analytic members
    n = P + N
    # c_{-(k+l)} over every pair: -(J+1+2N) .. J-1
    carr = R.coeff_range(-(J + 1 + 2 * N), J - 1)
    G = np.zeros((n, n), dtype=complex, order="F")
    np.fill_diagonal(G, 1.0)
    # row g'_k, column g''_l (at position N - l): <g''_l, g'_k> = conj(c_{-(k+l)});
    # with k descending, column l reads carr from offset N - l on
    np.conjugate(sliding_window_view(carr, P)[:N - 1].T, out=G[N - 1:n - 1, :N - 1])
    G[n - 1, N - 1:n - 1] = carr[N - 1:N - 1 + P]  # <g'_k, g''_1> = c_{-(k+1)}
    L, info = zpotrf(G, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise ResolutionError(
            f"union frame Gram not positive definite (zpotrf info {info}); the cross "
            "block norm reaches 1, so coefficients are aliased: increase the grid size M"
        )
    ell = L[n - 1, :n - 1]
    s = np.concatenate(([0.0], np.cumsum(np.abs(ell) ** 2)))
    pos = N - 1 + (J + 1 + N) - np.arange(-J, J + 2)  # g'_j's position
    alphas = -ell[pos] / np.sqrt(1.0 - s[pos])
    a0s = L[pos, pos].real * np.sqrt(1.0 - np.abs(alphas) ** 2)
    if np.min(a0s) < DEGENERACY_FLOOR:
        raise DegeneracyError(
            "defect residual below 1e-12; impossible under the Szego condition, "
            "the input data is inconsistent"
        )
    return alphas, a0s


def union_verblunsky(R, J, cfg):
    """Verblunsky coefficients of R over [-J, J] by the union frame (`union_factor`).

    Doubles N from N0 = max(cfg.section_start, J + d) until every alpha_j
    (levels -J..J) and a0_j (levels -J..J+1) changes by less than
    cfg.section_tol, and returns the larger frame's readout. d, R's
    Fourier reach, is the largest |k| with sum_{|i| >= |k|} |R_i| >=
    cfg.section_tol (`fourier_tails`): level -J pairs with g''_l up to
    about l = J + d, so a smaller frame misses the coupling, decouples
    and reads an exact alpha = 0 that the doubling cannot tell from a
    converged one. Inside a `section_memo()` block each (J, N) frame is
    factored once.

    Returns
    -------
    VerblunskySequence
        a0s on -J..J+1; `diagnostics` carries "N", the frame size reached,
        next to "d" and "N0".

    Raises
    ------
    DomainError, ConditioningError
        R fails the Szego guard at cfg.margin_min (`require_szego`).
    ConvergenceError
        2 N0 > cfg.section_cap, before any factorization; or no convergence
        by N = cfg.section_cap, and the message starts with `level j:`,
        the level of the largest last change.
    """
    require_szego(R, cfg.margin_min)

    def readout(N):
        return _memoized(R, ("union", J, N), lambda: union_factor(R, J, N))

    cap, tol = cfg.section_cap, cfg.section_tol
    d = max(int(np.count_nonzero(R.fourier_tails >= tol)) - 1, 0)
    N0 = N = max(cfg.section_start, J + d)
    if 2 * N0 > cap:
        raise ConvergenceError(
            f"union frame over [{-J}, {J}] needs section size {2 * N0} > section_cap "
            f"{cap}: R's Fourier reach d = {d} (tail >= {tol:.1e}) starts the "
            f"doubling at N0 = J + d = {N0}"
        )
    change = np.full(2 * J + 2, np.inf)
    prev = readout(N)
    while 2 * N <= cap:
        N *= 2
        cur = readout(N)
        change = np.abs(cur[1] - prev[1])
        change[:-1] = np.maximum(change[:-1], np.abs(cur[0][:-1] - prev[0][:-1]))
        if np.max(change) < tol:
            return VerblunskySequence(-J, cur[0][:-1], cur[1], {"N": N, "d": d, "N0": N0})
        prev = cur
    worst = int(np.argmax(change))
    raise ConvergenceError(
        f"level {worst - J}: union frame over [{-J}, {J}] did not converge by "
        f"section size {cap} (last change {change[worst]:.3e} > {tol:.1e})"
    )


def split_deviation(R, seq, cfg):
    """Largest |alpha_j(n+1, m-1) - alpha_j| over the levels of seq.

    Re-solves each level at the shifted split (n+1, m-1). The frame Gram
    is the Hankel block c_{-(j+1+i+k)}, which depends on j = n + m alone,
    so this reads 0.0 by construction and is no independent reading of
    alpha_j; only `inverse --report` runs it, as `split_dev`.
    """
    devs = []
    for j in range(seq.lo, seq.hi + 1):
        n, m = level_split(j)
        alt = converged_defect_pair(R, n + 1, m - 1, cfg)
        devs.append(abs(alpha_from_defects(alt) - seq.alpha(j)))
    return float(max(devs))


def recover_omega(pair):
    """Schur function of level n + m read off the defect vector K, (n, m) its split.

    The first component of K is t^n times a function bounded away from
    zero; the ratio t^m K2 / conj(tbar^n K1) gives the Schur samples.
    """
    n, m = pair.frame.n, pair.frame.m
    grid = pair.K.scattering.grid
    k1, k2 = evaluate(pair.K)
    nodes = grid.nodes
    denom = np.conj(nodes ** (-n) * k1)
    small = np.flatnonzero(np.abs(denom) < 1e-8)
    if small.size:
        raise EvaluationError(
            f"first defect component vanishes near nodes {small[:8].tolist()}"
        )
    samples = nodes**m * k2 / denom
    om = SchurFunction(grid, samples, n + m)
    if om.sup > 1.0 + 1e-8:
        raise InconsistencyError(
            f"recovered function has sup modulus {om.sup:.8f} > 1"
        )
    return om


def schur_step(omega, alpha):
    """One Schur step: omega' = (t omega - alpha) / (1 - t omega conj(alpha))."""
    if abs(alpha) >= 1.0:
        raise DomainError(f"|alpha| must be < 1, got {abs(alpha):.6g}")
    t = omega.grid.nodes
    top = t * omega.samples - alpha
    bot = 1.0 - t * omega.samples * np.conj(alpha)
    return SchurFunction(omega.grid, top / bot, omega.level + 1)


def convergence_report(seq):
    """Consistency report tying residual norms to the coefficient window.

    Checks the ratio identity rho_j = a0_j / a0_{j+1}, the telescoped
    products a0_n = a0_{hi+1} prod rho_j, the square-summability proxy
    (tail of sum |alpha|^2 over the top quarter of the window), and the
    approach of the residuals to 1.
    """
    if seq.a0s is None:
        raise DomainError("sequence carries no residual norms (a0s)")
    rhos = seq.rhos
    a0s = seq.a0s
    ratio_dev = float(np.max(np.abs(rhos - a0s[:-1] / a0s[1:])))
    # telescoped partial products, accumulated from the top level down
    prods = np.multiply.accumulate(rhos[::-1])[::-1]
    tele_dev = float(np.max(np.abs(a0s[:-1] - a0s[-1] * prods)))
    asq = np.abs(seq.alphas) ** 2
    tail_len = max(1, len(asq) // 4)
    return {
        "rho_ratio_max_dev": ratio_dev,
        "telescoping_max_dev": tele_dev,
        "sum_alpha_sq": float(np.sum(asq)),
        "tail_sum_alpha_sq": float(np.sum(asq[-tail_len:])),
        "a0_final_gap": float(abs(1.0 - a0s[-1])),
        "a0_monotone": bool(np.all(np.diff(a0s) >= -1e-6)),
        "a0s": a0s.tolist(),
    }


def schur_chain(R, seq, cfg, levels=None):
    """Recover the Schur functions along a level range and verify the chain.

    Returns the largest sup-norm defect between the recovered function
    at level j+1 and the Schur step applied to level j, and the largest
    deviation of omega_{j+1}(0) from -alpha_j.
    """
    if levels is None:
        levels = range(seq.lo, seq.hi)
    omegas = {}
    for j in list(levels) + [max(levels) + 1]:
        omegas[j] = recover_omega(converged_defect_pair(R, *level_split(j), cfg))
    step_dev = 0.0
    zero_dev = 0.0
    for j in levels:
        stepped = schur_step(omegas[j], seq.alpha(j))
        step_dev = max(
            step_dev, float(np.max(np.abs(stepped.samples - omegas[j + 1].samples)))
        )
        zero_dev = max(zero_dev, abs(omegas[j + 1].value_at_zero + seq.alpha(j)))
    return {"step_sup_dev": step_dev, "omega_zero_dev": zero_dev}


def rotation_relation_residual(R, n, m, cfg):
    """Residual of the unitary rotation linking defect pairs around level j = n + m.

    Measures || [K_{n,m}, Kt_{n+1,m}] - [Kt_{n,m}, K_{n,m+1}] Theta_j ||
    column by column in the weighted norm, with
    Theta_j = [[alpha_j, rho_j], [rho_j, -conj(alpha_j)]].
    """
    base = converged_defect_pair(R, n, m, cfg)
    right = converged_defect_pair(R, n + 1, m, cfg)
    up = converged_defect_pair(R, n, m + 1, cfg)
    alpha = alpha_from_defects(base)
    rho = float(np.sqrt(1.0 - abs(alpha) ** 2))
    r1 = base.K - (alpha * base.Ktilde + rho * up.K)
    r2 = right.Ktilde - (rho * base.Ktilde - np.conj(alpha) * up.K)
    return max(r1.norm(), r2.norm())

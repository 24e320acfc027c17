"""Verblunsky coefficients from defect pairs, and the Schur-step chain.

The coefficient at level j = n + m is the inner product of the two
defect vectors of that level; the associated Schur functions are read
off pointwise from the defect vector components and obey a Moebius
recursion that links consecutive levels. A second route,
`union_verblunsky`, reads every level of a window off one Cholesky
factor of the union of the levels' frames, whose only block to factor
is the Schur complement I - C^H C of a Hankel window C
(`lrspace.hankel_schur_factor`, as for a level's section).
`inverse_scattering` solves the levels (`solve_levels`) and reads the
coefficients off them (`read_sequence`); the certificates here
(`schur_chain`, `rotation_relation_residual`) take solved pairs and
coefficients and solve nothing themselves.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .circle import require_szego
from .errors import (
    DegeneracyError, DomainError, EvaluationError,
    InconsistencyError, InputError, ResolutionError,
)
from .lrspace import (
    _converge_section, aliased, converged_defect_pair, evaluate, generator_products,
    hankel_schur_factor, inner_product,
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

    def restricted(self, lo, hi):
        """The coefficients of [lo, hi], a window inside this one, with a0s on lo..hi+1.

        A union frame's level does not depend on the window around it, so
        this is the union readout over [lo, hi] up to rounding; it keeps
        this sequence's diagnostics.
        """
        i, k = lo - self.lo, hi + 1 - self.lo
        if i < 0 or k > len(self.alphas):
            raise DomainError(f"[{lo}, {hi}] is not inside [{self.lo}, {self.hi}]")
        return VerblunskySequence(lo, self.alphas[i:k], self.a0s[i:k + 1], self.diagnostics)


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
    """Verblunsky coefficient <K, Ktilde> of a defect pair."""
    a = inner_product(pair.K, pair.Ktilde)
    if abs(a) >= 1.0:
        raise InconsistencyError(
            f"|alpha| = {abs(a):.6g} >= 1; section not converged or input invalid"
        )
    return a


def solve_levels(R, lo, hi, cfg):
    """Converged defect pairs {j: pair} of levels lo..hi at their balanced splits.

    Errors are prefixed `level j:`; the doubling's own ConvergenceError
    names its level already.
    """
    pairs = {}
    for j in range(lo, hi + 1):
        try:
            pairs[j] = converged_defect_pair(R, *level_split(j), cfg)
        except (DegeneracyError, ResolutionError) as exc:
            raise type(exc)(f"level {j}: {exc}") from exc
    return pairs


def inverse_scattering(R, J, cfg):
    """Verblunsky coefficients of R over the level window [-J, J].

    Solves levels -J..J+1 (`solve_levels`; the extra level supplies
    the last residual ratio) and reads the coefficients off them
    (`read_sequence`). Coefficients only: the residual-ratio reading of
    rho_j is `convergence_report`, and another split gives the same
    alpha_j exactly (`split_deviation`).

    Raises
    ------
    DomainError, ConditioningError
        R fails the Szego guard at cfg.margin_min (`require_szego`).
    """
    require_szego(R, cfg.margin_min)
    return read_sequence(R, solve_levels(R, -J, J + 1, cfg), J)


def read_sequence(R, pairs, J):
    """The coefficients of [-J, J] off solved pairs {j: pair} covering -J..J+1.

    alpha_j = <K_j, Ktilde_j> (`alpha_from_defects`) and the residual
    norms a0_j of levels -J..J+1.

    Returns
    -------
    VerblunskySequence
        `diagnostics` carries "cond", the a priori bound 1 / (1 - sup |R|^2)
        on the condition number of every section (`require_szego`), "d",
        R's lower Fourier reach, and "sections": one {level, N0, N, a0} per
        level -J..J+1, N converged from the start N0.
    """
    levels = range(-J, J + 2)
    alphas = np.array([alpha_from_defects(pairs[j]) for j in levels[:-1]])
    seq = VerblunskySequence(-J, alphas, np.array([pairs[j].a0 for j in levels]))
    seq.diagnostics["cond"] = 1.0 / (1.0 - R.szego.sup_modulus**2)
    seq.diagnostics["d"] = pairs[-J].diagnostics["d"]
    seq.diagnostics["sections"] = [
        {"level": j, "N0": pairs[j].diagnostics["N0"], "N": pairs[j].frame.N,
         "a0": pairs[j].a0} for j in levels
    ]
    return seq


def union_factor(R, lo, hi, N):
    """alpha_j and a0_j of levels lo..hi+1 off one Cholesky factor of the union frame.

    The frame [g''_N .. g''_2, g'_{hi+1+N} .. g'_{lo}, g''_1] holds the
    split-(j, 0) section of every level j, with N anti-analytic and
    P = hi - lo + 2 + N analytic generators. Its first N - 1 members are
    orthonormal and orthogonal to g''_1, so its Gram G = L L^H factors in
    blocks. With C the (N-1) x P Hankel window <g'_k, g''_l> = c_{-(k+l)}
    (row g''_l, column g'_k) and w the row <g'_k, g''_1>,

        G = [[I, C, 0], [C^H, I, w^H], [0, w, 1]],
        L = [[I, 0, 0], [C^H, L22, 0], [0, l, *]],

    where L22 L22^H = I - C^H C and l = conj(L22^-1 conj(w)), both from
    `lrspace.hankel_schur_factor`. L22's diagonal entry at g'_j's position
    p is the distance from g'_j to the generators before it. With
    s_p = sum_{i<p} |l_i|^2, adding g''_1 gives

        alpha_j = -l_p / sqrt(1 - s_p),  a0_j = L22_pp sqrt(1 - |alpha_j|^2).

    G is positive definite exactly when I - C^H C is and |l| < 1, that is
    when the whole window [C; w] has norm below 1. Raises ResolutionError
    when a Hankel index lies outside R's resolved window or either fails.
    No residual floor is needed: a0_j, the distance from g'_j to the rest
    of its section, is at least sqrt(1 - ||[C; w]||) > 0, and
    sqrt(1 - sup |R|) for resolved coefficients.
    """
    P = hi - lo + 2 + N  # analytic members
    # c_{-(k+l)} over every pair: -(hi+1+2N) .. -(lo+1); with k descending,
    # row g''_l of the window reads carr from offset N - l on
    carr = R.coeff_range(-(hi + 1 + 2 * N), -(lo + 1))
    L, y = hankel_schur_factor(sliding_window_view(carr, P)[:N - 1],
                               np.conj(carr[N - 1:N - 1 + P, None]))
    ell = np.conj(y[:, 0])
    s = np.concatenate(([0.0], np.cumsum(np.abs(ell) ** 2)))
    if not s[-1] < 1.0:  # g''_1's pivot: with its row w the window reaches norm 1
        raise aliased(f"union frame's last pivot 1 - |l|^2 = {1.0 - s[-1]:.3e}")
    pos = hi + 1 + N - np.arange(lo, hi + 2)  # g'_j's position among the analytic members
    alphas = -ell[pos] / np.sqrt(1.0 - s[pos])
    a0s = L[pos, pos].real * np.sqrt(1.0 - np.abs(alphas) ** 2)
    return alphas, a0s


def union_verblunsky(R, lo, hi, cfg):
    """Verblunsky coefficients of R over [lo, hi] by the union frame (`union_factor`).

    The frame size N comes from `lrspace._converge_section`: it doubles
    from N0 = max(cfg.section_start, d - lo), d R's lower Fourier reach,
    until every alpha_j (levels lo..hi) and a0_j (levels lo..hi+1) changes
    by less than cfg.section_tol.

    Returns
    -------
    VerblunskySequence
        a0s on lo..hi+1; `diagnostics` carries "N", the frame size reached,
        next to "d" and "N0".

    Raises
    ------
    DomainError, ConditioningError
        R fails the Szego guard at cfg.margin_min (`require_szego`).
    ConvergenceError
        2 N0 > cfg.section_cap, before any factorization, or no convergence
        by N = cfg.section_cap; the message starts with `level j:`.
    """
    require_szego(R, cfg.margin_min)

    def change(prev, cur):
        out = np.abs(cur[1] - prev[1])
        out[:-1] = np.maximum(out[:-1], np.abs(cur[0][:-1] - prev[0][:-1]))
        return out

    (alphas, a0s), diag = _converge_section(
        R, lo, lambda N: union_factor(R, lo, hi, N), change, cfg,
        f"union frame over [{lo}, {hi}]")
    return VerblunskySequence(lo, alphas[:-1], a0s, diag)


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
    (tail of sum |alpha|^2 over the top quarter of the window), the
    approach of the residuals to 1, and the largest drop a0_j - a0_{j+1}
    from one level to the next (0 when a0 never decreases).
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
        "a0_max_decrease": float(np.max(a0s[:-1] - a0s[1:], initial=0.0)),
        "a0s": a0s.tolist(),
    }


def schur_chain(pairs, seq, levels):
    """Verify the Schur chain of the functions recovered from pairs {j: pair}.

    For each j of levels, pairs holds levels j and j + 1, and seq alpha_j.
    Returns the largest sup-norm defect between the recovered function
    at level j+1 and the Schur step applied to level j, and the largest
    deviation of omega_{j+1}(0) from -alpha_j.
    """
    omegas = {j: recover_omega(pairs[j]) for j in list(levels) + [max(levels) + 1]}
    step_dev = 0.0
    zero_dev = 0.0
    for j in levels:
        stepped = schur_step(omegas[j], seq.alpha(j))
        step_dev = max(
            step_dev, float(np.max(np.abs(stepped.samples - omegas[j + 1].samples)))
        )
        zero_dev = max(zero_dev, abs(omegas[j + 1].value_at_zero + seq.alpha(j)))
    return {"step_sup_dev": step_dev, "omega_zero_dev": zero_dev}


def rotation_relation_residual(base, right, up, alpha):
    """Residual of the unitary rotation linking defect pairs around level j = n + m.

    base is the pair at (n, m), right and up the pairs of level j + 1 at
    (n+1, m) and (n, m+1), and alpha is alpha_j. Measures
    || [K_{n,m}, Kt_{n+1,m}] - [Kt_{n,m}, K_{n,m+1}] Theta_j ||
    column by column in the weighted norm, with
    Theta_j = [[alpha_j, rho_j], [rho_j, -conj(alpha_j)]]; each norm comes off
    the FFT of the residual's samples (`generator_products`), not the Gram.
    """
    rho = float(np.sqrt(1.0 - abs(alpha) ** 2))
    r1 = base.K - (alpha * base.Ktilde + rho * up.K)
    r2 = right.Ktilde - (rho * base.Ktilde - np.conj(alpha) * up.K)
    squares = (np.vdot(r.coords(), generator_products(r)(r.frame)).real for r in (r1, r2))
    return float(np.sqrt(max(0.0, *squares)))

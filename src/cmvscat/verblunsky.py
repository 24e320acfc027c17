"""Verblunsky coefficients from defect pairs, and the Schur-step chain.

The coefficient at level j = n + m is the inner product of the two
defect vectors of that level; the associated Schur functions are read
off pointwise from the defect vector components and obey a Moebius
recursion that links consecutive levels.
"""

from dataclasses import dataclass, field

import numpy as np

from .circle import require_szego
from .errors import (
    CmvScatError, DomainError, EvaluationError, InconsistencyError, InputError,
)
from .lrspace import converged_defect_pair, evaluate, inner_product


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
        `diagnostics` carries "cond" (the largest frame Gram estimate)
        and "sections": one {level, N, cond, a0} per level -J..J+1,
        N converged.

    Raises
    ------
    DomainError
        R fails the Szego guard at cfg.margin_min (`require_szego`).
    """
    require_szego(R, cfg.margin_min)
    pairs = solve_levels(R, J, cfg)
    alphas = np.array([alpha_from_defects(pairs[j]) for j in range(-J, J + 1)])
    a0s = np.array([p.a0 for p in pairs.values()])
    seq = VerblunskySequence(-J, alphas, a0s)

    seq.diagnostics["cond"] = max(p.cond for p in pairs.values())
    seq.diagnostics["sections"] = [
        {"level": j, "N": p.frame.N, "cond": p.cond, "a0": p.a0}
        for j, p in pairs.items()
    ]
    return seq


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


def recover_omega(pair, n, m):
    """Schur function of level n + m read off the defect vector K.

    The first component of K is t^n times a function bounded away from
    zero; the ratio t^m K2 / conj(tbar^n K1) gives the Schur samples.
    """
    R = pair.K.scattering
    grid = R.grid
    k1, k2 = evaluate(pair.K, grid)
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
        n, m = level_split(j)
        pair = converged_defect_pair(R, n, m, cfg)
        omegas[j] = recover_omega(pair, n, m)
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

"""Invariant-verification harness.

Each check returns a CheckResult with the measured value and the bound
it is held to; `run_full_suite` strings them together for one input,
inside one `section_memo()` block that solves each level's section
once, and at J >= 5 all of them before the first check. Every entry
compares two routes or bounds a quantity; none reads a number against
itself, such as a section against its relabelling (a split is only an
index label). The CLI `check` command and the acceptance tests both
run these.
"""

from dataclasses import dataclass

import numpy as np

from . import cmv, oracle, scattering, spectral
from .circle import analyze, szego_check
from .errors import DomainError
from .lrspace import (
    GeneratorFrame,
    converged_defect_pair,
    frame_gram,
    inner_product,
    section_memo,
    section_pair,
    shift,
)
from .verblunsky import (
    VerblunskySequence,
    alpha_from_defects,
    convergence_report,
    inverse_scattering,
    level_split,
    rotation_relation_residual,
    schur_chain,
    solve_levels,
)

ROUNDTRIP_LADDER = 1  # doublings `check_roundtrip` runs in the heavy suite


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    bound: float
    detail: str = ""

    def as_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": float(self.value),
            "bound": float(self.bound),
            "detail": self.detail,
        }


def _leq(name, value, bound, detail=""):
    return CheckResult(name, value <= bound, float(value), float(bound), detail)


def check_gram_structure(R, cfg, levels=(-2, 0, 3)):
    """Contractivity of the cross norm and the defect geometry of a section.

    Row 0 of the solve residual G K is <K, g'_n> = a0, which with ||K|| = 1
    gives ||g'_n - K||^2 = 2 - 2 a0; Ktilde likewise with g''_{m+1}.
    """
    norm_excess = ortho = unit = 0.0
    N = cfg.section_start
    for j in levels:
        n, m = level_split(j)
        G = frame_gram(R, GeneratorFrame(n, m, N))
        c = G[N:, :N].T  # cross block <g'_k, g''_l>
        norm_excess = max(norm_excess, float(np.linalg.norm(c, 2)) - (1.0 - R.margin))
        pair = section_pair(R, n, m, N)
        vk = G @ pair.K.coords()
        vt = G @ pair.Ktilde.coords()
        # orthogonality against every generator of the reduced frames
        ortho = max(ortho, float(np.max(np.abs(vk[1:]))))
        keep = np.arange(len(vt)) != pair.frame.N
        ortho = max(ortho, float(np.max(np.abs(vt[keep]))))
        unit = max(unit, abs(pair.K.norm() - 1.0), abs(pair.Ktilde.norm() - 1.0),
                   abs(vk[0] - pair.a0), abs(vt[N] - pair.a0_tilde))
    return [
        _leq("gram_cross_contractive", norm_excess, 1e-10, "||cross|| - sup|R|"),
        _leq("defect_orthogonality", ortho, 1e-8),
        _leq("defect_unit_norm", unit, 1e-10),
    ]


def check_verblunsky(R, seq, cfg):
    """Coefficient-window consistency: bounds, ratios, telescoping."""
    rep = convergence_report(seq)
    a0s = seq.a0s
    return [
        _leq("alpha_modulus", float(np.max(np.abs(seq.alphas))
                                    if len(seq.alphas) else 0.0), 1.0 - 1e-15),
        _leq("rho_two_ways", rep["rho_ratio_max_dev"], 1e-7),
        _leq("telescoped_products", rep["telescoping_max_dev"], cfg.tol_alg),
        _leq("alpha_tail_square_sum", rep["tail_sum_alpha_sq"], cfg.tail_tol),
        _leq("a0_nondecreasing_in_level",
             float(np.max(np.maximum(a0s[:-1] - a0s[1:], 0.0))), 5e-13),
    ]


def check_rotation(R, cfg, levels=(-1, 0, 1)):
    worst = max(
        rotation_relation_residual(R, *level_split(j), cfg) for j in levels
    )
    return [_leq("rotation_relation", worst, 1e-7)]


def check_schur(R, seq, cfg, levels=None):
    if levels is None:
        j0 = max(seq.lo, -4)
        j1 = min(seq.hi - 1, 4)
        levels = range(j0, j1)
    rep = schur_chain(R, seq, cfg, levels=list(levels))
    return [
        _leq("schur_chain_step", rep["step_sup_dev"], cfg.tol_fun),
        _leq("schur_omega_at_zero", rep["omega_zero_dev"], cfg.tol_alg),
    ]


def check_cmv(R, seq, cfg, ns=(0, 1)):
    """Unitarity of both boundary policies plus Gram/CMV entry agreement.

    Unitarity puts the spectrum on the circle: E = U*U - I has bandwidth
    4, so ||E||_2 <= 9 max|E_ij| <= 9e-12, and an eigenpair U x = lambda x,
    ||x|| = 1, has ||lambda| - 1| <= ||lambda|^2 - 1| = |x* E x| <= 9e-12.
    """
    U0 = cmv.build_cmv(seq, cfg.cmv_window, "zero-tail")
    U1 = cmv.build_cmv(seq, cfg.cmv_window, "decoupled")
    out = [_leq("cmv_unitarity_zero_tail_interior", cmv.unitarity_defect(U0), 1e-12),
           _leq("cmv_unitarity_decoupled", cmv.unitarity_defect(U1), 1e-12)]

    def basis_vector(index):
        kind, bn, bm = cmv.basis_label(index)
        pair = converged_defect_pair(R, bn, bm, cfg)
        return pair.K if kind == "K" else pair.Ktilde

    entry_dev = 0.0
    for n in ns:
        basis = {idx: basis_vector(idx) for idx in range(2 * n - 1, 2 * n + 3)}
        for col in (2 * n, 2 * n + 1):
            moved = shift(basis[col], 1)
            entry_dev = max(entry_dev, *(abs(inner_product(moved, vec) - U0.entry(row, col))
                                         for row, vec in basis.items()))
    out.append(_leq("cmv_entries_match_gram", entry_dev, cfg.tol_fun))
    return out


def check_roundtrip(R, cfg, ladder=ROUNDTRIP_LADDER):
    """Roundtrip sup error, and its excess over the Fourier tail on every rung.

    Level window J reconstructs S_{J-1}R: sup error <= sum_{|k|>=J} |R_k| + M eps.
    """
    rep = scattering.roundtrip(R, cfg, ladder=ladder)
    c = analyze(R.samples, R.grid)
    mag, far = np.abs(c.coeffs), np.abs(c.indices())
    excess = max(r["sup_error"] - float(np.sum(mag[far >= r["levels"]]))
                 for r in rep["rungs"])
    return [
        _leq("roundtrip_sup_error", rep["sup_error"], cfg.tol_roundtrip),
        _leq("roundtrip_within_fourier_tail", excess,
             R.grid.size * np.finfo(float).eps, "sup error - Fourier tail, worst rung"),
    ]


def cmv_moments(R, seq, n, tag, kmax, cfg):
    """V^H U^k V, |k| <= kmax, for the vector pair of a density tagged `tag`.

    Multiplication by t is the CMV matrix U of the alpha_j in the defect
    basis (Simon, OPUC vol. 1, ch. 4): <t^k v_q, v_p> = (V^H U^k V)[p, q].
    V is (e_{2n}, e_{2n+1}) for `K-and-Ktilde-next` and, by the rotation
    relation at level 2n - 1, (e_{2n}, rho e_{2n-1} - conj(alpha) e_{2n})
    with alpha = alpha_{2n-1} for `K-and-tKtilde`. Each factor of U = L M
    moves support by one index and reads the levels l of the blocks
    (l, l + 1) it meets, so, splitting its 2|k| factors in the middle, U^k
    on V over [a, a + 1] reads the levels a - |k| .. a + |k|. Levels seq
    lacks are solved (from the memo in the suite), and the zero-tail window
    holds the sweep's indices a - 2 kmax .. a + 1 + 2 kmax.
    """
    if tag not in (spectral.PAIR_DIAGONAL, spectral.PAIR_NEXT):
        raise DomainError(f"unknown pair tag {tag!r}")
    a = 2 * n - 1 if tag == spectral.PAIR_DIAGONAL else 2 * n
    lo, hi = min(a - kmax, seq.lo), max(a + kmax, seq.hi)
    seq = VerblunskySequence(lo, [
        seq.alpha(j) if seq.lo <= j <= seq.hi
        else alpha_from_defects(converged_defect_pair(R, *level_split(j), cfg))
        for j in range(lo, hi + 1)])
    U = cmv.build_cmv(seq, max(2, 2 * kmax - a, a + 1 + 2 * kmax), "zero-tail")
    V = np.zeros((U.dim, 2), dtype=complex)
    V[U.pos(2 * n), 0] = 1.0
    if tag == spectral.PAIR_DIAGONAL:
        V[U.pos(a), 1], V[U.pos(2 * n), 1] = seq.rho(a), -np.conj(seq.alpha(a))
    else:
        V[U.pos(a + 1), 1] = 1.0
    out = {0: V.conj().T @ V}
    up = down = V
    for k in range(1, kmax + 1):
        up = np.column_stack([cmv.apply(U, v) for v in up.T])
        down = np.column_stack([cmv.apply_adjoint(U, v) for v in down.T])
        out[k], out[-k] = V.conj().T @ up, V.conj().T @ down
    return out


def check_spectral(R, seq, cfg, ns=(0, 1), kmax=4):
    """Quadrature moments of the densities against `cmv_moments`; sigma recursion."""
    moment_dev = 0.0
    for n in ns:
        dens = spectral.spectral_density(R, n, cfg)
        tagged = [dens]
        if n == ns[0]:
            alpha = alpha_from_defects(converged_defect_pair(R, n, n, cfg))
            tagged.append(spectral.change_basis_density(dens, alpha))
        for d in tagged:
            quad = spectral.density_moments(d, kmax)
            exact = cmv_moments(R, seq, n, d.pair_tag, kmax, cfg)
            moment_dev = max(moment_dev, max(float(np.max(np.abs(quad[k] - exact[k])))
                                             for k in quad))
    rec_dev = max(spectral.sigma_recursion_check(R, j, cfg) for j in (0, 1))
    return [
        _leq("spectral_moments_match_cmv", moment_dev, cfg.tol_fun),
        _leq("sigma_recursion", rec_dev, cfg.tol_fun),
    ]


def check_oracle(R, seq, cfg, J=4, N=None):
    """Oracle agreement of seq on [-J, J] and of generator inner products."""
    N = N or cfg.section_start
    J = min(J, -seq.lo, seq.hi)
    Q = oracle.quadrature_space(R, cfg.oversample)
    rep = oracle.compare_with_fast_path(R, Q, J, N, cfg, seq)
    out = [_leq("oracle_alpha_agreement", rep["max_alpha_dev"], cfg.tol_fun)]
    worst = 0.0
    frame_pairs = [("analytic", 0), ("analytic", 2), ("antianalytic", 1),
                   ("antianalytic", 3)]
    for kind_a, ia in frame_pairs:
        for kind_b, ib in frame_pairs:
            ua = oracle.generator_samples(Q, kind_a, ia)
            ub = oracle.generator_samples(Q, kind_b, ib)
            quad = oracle.oracle_inner(ua, ub, Q)
            if kind_a == kind_b:
                exact = 1.0 if ia == ib else 0.0
            elif kind_a == "analytic":
                exact = R.coefficient(-(ia + ib))
            else:
                exact = np.conj(R.coefficient(-(ia + ib)))
            worst = max(worst, abs(quad - exact))
    out.append(_leq("oracle_inner_products", worst, 1e-7))
    return out


def run_full_suite(R, cfg, heavy=True):
    """All invariant checks for one input; returns a list of CheckResult.

    The checks share one `section_memo()` block, released on return or
    raise, so each level's section (n + m, N) is solved once per suite.
    """
    rep = szego_check(R)
    results = [CheckResult("szego_condition", rep.passes and rep.margin >= cfg.margin_min,
                           rep.margin, cfg.margin_min, "margin vs margin_min")]
    if not results[0].passed:
        return results
    with section_memo():
        # solve the sections the suite reads (all of them at J >= 5) first: each
        # later read is a memo hit, so the scipy LAPACK solves and the numpy
        # reads each run in one block instead of alternating BLAS builds
        for sub in scattering.ladder_configs(cfg, ROUNDTRIP_LADDER if heavy else 0):
            solve_levels(R, sub.levels, sub)
        results += check_gram_structure(R, cfg)
        seq = inverse_scattering(R, cfg.levels, cfg)
        results += check_verblunsky(R, seq, cfg)
        results += check_rotation(R, cfg)
        results += check_schur(R, seq, cfg)
        results += check_cmv(R, seq, cfg)
        results += check_spectral(R, seq, cfg)
        if heavy:
            results += check_roundtrip(R, cfg)
            results += check_oracle(R, seq, cfg)
    return results

"""Invariant-verification harness.

Each check returns a CheckResult with the measured value and the bound
it is held to; `run_full_suite` strings them together for one input,
inside one `section_memo()` block that factors each union frame and
solves each level's section once, and at J >= 5 all of them before the
first check. Every entry compares two routes or bounds a quantity; none
reads a number against itself, such as a section against its
relabelling (a split is only an index label). The second routes are
library calls: the window's coefficients from one union-frame Cholesky
factor (`verblunsky.union_verblunsky`, which also serves the roundtrip),
density moments from `spectral.moment_check` (the CMV matrix of the
alpha_j), generator inner products from `oracle.quadrature_gram`. The
CLI `check` command and the acceptance tests both run these.
"""

from dataclasses import dataclass

import numpy as np

from . import cmv, oracle, scattering, spectral
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
    alpha_from_defects,
    convergence_report,
    inverse_scattering,
    level_split,
    rotation_relation_residual,
    schur_chain,
    solve_levels,
    union_verblunsky,
)


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
        # ||K||^2 = K^H (G K), from the residual already in hand
        norms = [np.sqrt(max((np.conj(v.coords()) @ gv).real, 0.0))
                 for v, gv in ((pair.K, vk), (pair.Ktilde, vt))]
        unit = max(unit, *(abs(x - 1.0) for x in norms),
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


def check_union(R, seq, cfg):
    """The per-level coefficients of seq against the union-frame route on its window."""
    union = union_verblunsky(R, seq.hi, cfg)
    dev = max(np.max(np.abs(union.alphas - seq.alphas)),
              np.max(np.abs(union.a0s - seq.a0s)))
    return [_leq("alpha_union_matches_per_level", dev, cfg.tol_alg,
                 "max |d alpha|, |d a0| over [-J, J]")]


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
    U0 = cmv.build_cmv(seq, scattering.minimal_window(seq)[0], "zero-tail")
    U1 = cmv.build_cmv(seq, U0.window, "decoupled")
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


def check_roundtrip(R, cfg):
    """Roundtrip sup error of the top rung, and its excess over the Fourier tail on every rung.

    Level window J reconstructs S_{J-1}R: sup error <= sum_{|k|>=J} |R_k| + M eps,
    the tail each rung records (`ScatteringFunction.fourier_tail`).
    """
    rep = scattering.roundtrip(R, cfg)
    excess = max(r["sup_error"] - r["fourier_tail"] for r in rep["rungs"])
    return [
        _leq("roundtrip_sup_error", rep["sup_error"], cfg.tol_roundtrip),
        _leq("roundtrip_within_fourier_tail", excess,
             R.grid.size * np.finfo(float).eps, "sup error - Fourier tail, worst rung"),
    ]


def check_spectral(R, cfg, ns=(0, 1), kmax=4):
    """Density moments by `spectral.moment_check`; sigma recursion."""
    moment_dev = 0.0
    for n in ns:
        dens = spectral.spectral_density(R, n, cfg)
        tagged = [dens]
        if n == ns[0]:
            alpha = alpha_from_defects(converged_defect_pair(R, n, n, cfg))
            tagged.append(spectral.change_basis_density(dens, alpha))
        for d in tagged:
            moment_dev = max(moment_dev,
                             spectral.moment_check(d, R, kmax, cfg)["max_abs_dev"])
    rec_dev = max(spectral.sigma_recursion_check(R, j, cfg) for j in (0, 1))
    return [
        _leq("spectral_moments_match_cmv", moment_dev, cfg.tol_fun),
        _leq("sigma_recursion", rec_dev, cfg.tol_fun),
    ]


def check_oracle(R, seq, cfg):
    """Oracle agreement of seq on its whole window [-J, J] and of generator inner products."""
    J = min(-seq.lo, seq.hi)
    Q = oracle.quadrature_space(R, cfg.oversample)
    rep = oracle.compare_with_fast_path(R, Q, J, cfg.section_start, cfg, seq)
    out = [_leq("oracle_alpha_agreement", rep["max_alpha_dev"], cfg.tol_fun)]
    # quadrature Gram of g'_0, g'_2, g''_1, g''_3: identity within each family,
    # cross entries <g'_k, g''_l> = c_{-(k+l)}
    ks, ls = (0, 2), (1, 3)
    cross = np.array([[R.coefficient(-(k + l)) for l in ls] for k in ks])
    exact = np.eye(4, dtype=complex)
    exact[2:, :2], exact[:2, 2:] = cross.T, np.conj(cross)
    worst = float(np.max(np.abs(oracle.quadrature_gram(Q, ks, ls) - exact)))
    out.append(_leq("oracle_inner_products", worst, 1e-7))
    return out


def run_full_suite(R, cfg, heavy=True):
    """All invariant checks for one input; returns a list of CheckResult.

    The checks share one `section_memo()` block, released on return or
    raise, so each union frame (J, N) is factored and each level's
    section (n + m, N) solved once per suite. Both are done before the
    first check: the union frames of every roundtrip rung that R's
    Fourier tail picks (`scattering.rung_sequences`), top rung first, or
    of cfg.levels alone in the light suite, then the per-level sections
    of cfg.levels' window only, since the roundtrip reads its rungs off
    the union frames.
    """
    rep = R.szego
    results = [CheckResult("szego_condition", rep.passes and rep.margin >= cfg.margin_min,
                           rep.margin, cfg.margin_min, "margin vs margin_min")]
    if not results[0].passed:
        return results
    with section_memo():
        # solve everything the suite reads first: each later read is a memo hit,
        # so the scipy LAPACK factorizations and the numpy reads each run in
        # one block instead of alternating BLAS builds. The union frames of
        # every roundtrip rung go top rung first, so a rung that cannot
        # converge fails at once; the per-level sections only for cfg.levels'
        # window, which check_verblunsky and the checks near level 0 read
        if heavy:
            scattering.rung_sequences(R, cfg)
        else:
            union_verblunsky(R, cfg.levels, cfg)
        solve_levels(R, cfg.levels, cfg)
        results += check_gram_structure(R, cfg)
        seq = inverse_scattering(R, cfg.levels, cfg)
        results += check_verblunsky(R, seq, cfg)
        results += check_union(R, seq, cfg)
        results += check_rotation(R, cfg)
        results += check_schur(R, seq, cfg)
        results += check_cmv(R, seq, cfg)
        results += check_spectral(R, cfg)
        if heavy:
            results += check_roundtrip(R, cfg)
            results += check_oracle(R, seq, cfg)
    return results

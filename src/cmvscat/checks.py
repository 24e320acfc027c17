"""Invariant-verification harness.

Each check returns a CheckResult with the measured value and the bound
it is held to; `run_full_suite` strings them together for one input,
inside one `section_memo()` block so that the checks solve each
level's section once between them (a split is only an index label, so
no check compares a section with its relabelling). The CLI `check`
command and the acceptance tests both run these.
"""

from dataclasses import dataclass

import numpy as np

from . import cmv, oracle, scattering, spectral
from .circle import szego_check
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
    """Hankel exactness, contractivity of the cross norm, defect geometry."""
    out = []
    hankel = 0.0
    norm_excess = 0.0
    ortho = 0.0
    unit = 0.0
    N = cfg.section_start
    for j in levels:
        n, m = level_split(j)
        G = frame_gram(R, GeneratorFrame(n, m, N))
        c = G[N:, :N].T  # cross block <g'_k, g''_l>
        hankel = max(hankel, float(np.max(np.abs(c[1:, :-1] - c[:-1, 1:]))))
        norm_excess = max(norm_excess, float(np.linalg.norm(c, 2)) - (1.0 - R.margin))
        pair = section_pair(R, n, m, N)
        vk = G @ pair.K.coords()
        vt = G @ pair.Ktilde.coords()
        # orthogonality against every generator of the reduced frames
        ortho = max(ortho, float(np.max(np.abs(vk[1:]))))
        keep = np.arange(len(vt)) != pair.frame.N
        ortho = max(ortho, float(np.max(np.abs(vt[keep]))))
        unit = max(unit, abs(pair.K.norm() - 1.0), abs(pair.Ktilde.norm() - 1.0))
    out.append(_leq("gram_hankel_exact", hankel, 0.0))
    out.append(_leq("gram_cross_contractive", norm_excess, 1e-10,
                    "||cross|| - sup|R|"))
    out.append(_leq("defect_orthogonality", ortho, 1e-8))
    out.append(_leq("defect_unit_norm", unit, 1e-10))
    return out


def check_verblunsky(R, seq, cfg):
    """Coefficient-window consistency: bounds, ratios, telescoping."""
    out = []
    out.append(_leq("alpha_modulus", float(np.max(np.abs(seq.alphas))
                                           if len(seq.alphas) else 0.0), 1.0 - 1e-15))
    rep = convergence_report(seq)
    out.append(_leq("rho_two_ways", rep["rho_ratio_max_dev"], 1e-7))
    out.append(_leq("telescoped_products", rep["telescoping_max_dev"], cfg.tol_alg))
    out.append(_leq("alpha_tail_square_sum", rep["tail_sum_alpha_sq"], cfg.tail_tol))
    a0s = seq.a0s
    worst_drop = float(np.max(np.maximum(a0s[:-1] - a0s[1:], 0.0)))
    out.append(_leq("a0_nondecreasing_in_level", worst_drop, 1e-6))
    return out


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
    """Unitarity of both boundary policies plus Gram/CMV entry agreement."""
    out = []
    W = cfg.cmv_window
    U0 = cmv.build_cmv(seq, W, "zero-tail")
    U1 = cmv.build_cmv(seq, W, "decoupled")
    out.append(_leq("cmv_unitarity_zero_tail_interior", cmv.unitarity_defect(U0),
                    1e-12))
    out.append(_leq("cmv_unitarity_decoupled", cmv.unitarity_defect(U1), 1e-12))
    eig = np.linalg.eigvals(U1.dense())
    out.append(_leq("cmv_spectrum_on_circle", float(np.max(np.abs(np.abs(eig) - 1.0))),
                    1e-10))

    def basis_vector(index):
        kind, bn, bm = cmv.basis_label(index)
        pair = converged_defect_pair(R, bn, bm, cfg)
        return pair.K if kind == "K" else pair.Ktilde

    entry_dev = 0.0
    for n in ns:
        basis = {idx: basis_vector(idx) for idx in range(2 * n - 1, 2 * n + 3)}
        shifted_k = shift(basis_vector(2 * n), 1)
        shifted_t = shift(basis_vector(2 * n + 1), 1)
        for row, vec in basis.items():
            entry_dev = max(
                entry_dev, abs(inner_product(shifted_k, vec) - U0.entry(row, 2 * n))
            )
            entry_dev = max(
                entry_dev,
                abs(inner_product(shifted_t, vec) - U0.entry(row, 2 * n + 1)),
            )
    out.append(_leq("cmv_entries_match_gram", entry_dev, cfg.tol_fun))
    return out


def check_roundtrip(R, cfg, ladder=1):
    rep = scattering.roundtrip(R, cfg, ladder=ladder)
    out = [_leq("roundtrip_sup_error", rep["sup_error"], cfg.tol_roundtrip)]
    if ladder > 0:
        sups = [r["sup_error"] for r in rep["rungs"]]
        worst_ratio = max(
            (b / a if a > 0 else 1.0) for a, b in zip(sups, sups[1:])
        )
        out.append(_leq("roundtrip_error_nonincreasing", worst_ratio, 1.1,
                        "ratio under parameter doubling"))
    return out


def check_asymptotics(R, cfg, n=0, ms=(0, 1, 2, 4, 8)):
    rep = scattering.asymptotics_check(R, n, ms, cfg)
    out = [_leq("asymptotics_distance_identity", rep["max_identity_dev"], 1e-10)]
    out.append(
        CheckResult(
            "asymptotics_monotone_decay",
            rep["monotone_decay"],
            0.0 if rep["monotone_decay"] else 1.0,
            0.0,
        )
    )
    return out


def check_spectral(R, cfg, ns=(0, 1), kmax=4):
    out = []
    moment_dev = 0.0
    for n in ns:
        dens = spectral.spectral_density(R, n, cfg)
        rep = spectral.moment_check(dens, R, n, kmax, cfg)
        moment_dev = max(moment_dev, rep["max_abs_dev"])
        if n == ns[0]:
            pair = converged_defect_pair(R, n, n, cfg)
            alpha = alpha_from_defects(pair)
            changed = spectral.change_basis_density(dens, alpha)
            rep2 = spectral.moment_check(changed, R, n, kmax, cfg)
            moment_dev = max(moment_dev, rep2["max_abs_dev"])
    out.append(_leq("spectral_moments_match_gram", moment_dev, cfg.tol_fun))
    rec_dev = max(
        spectral.sigma_recursion_check(R, j, cfg) for j in (0, 1)
    )
    out.append(_leq("sigma_recursion", rec_dev, cfg.tol_fun))
    return out


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
    with section_memo():
        return _suite(R, cfg, heavy)


def _suite(R, cfg, heavy):
    results = []
    rep = szego_check(R)
    results.append(
        CheckResult("szego_condition", rep.passes and rep.margin >= cfg.margin_min,
                    rep.margin, cfg.margin_min, "margin vs margin_min")
    )
    if not results[-1].passed:
        return results
    results += check_gram_structure(R, cfg)
    seq = inverse_scattering(R, cfg.levels, cfg)
    results += check_verblunsky(R, seq, cfg)
    results += check_rotation(R, cfg)
    results += check_schur(R, seq, cfg)
    results += check_cmv(R, seq, cfg)
    results += check_asymptotics(R, cfg)
    results += check_spectral(R, cfg)
    if heavy:
        results += check_roundtrip(R, cfg)
        results += check_oracle(R, seq, cfg)
    return results

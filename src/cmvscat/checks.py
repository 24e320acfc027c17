"""Invariant-verification harness.

Each check returns a CheckResult with the measured value and the bound
it is held to; `run_full_suite` strings them together for one input. It
solves first, once: the union frame of every roundtrip rung, the defect
pair of every level the checks read, and the coefficients read off
those pairs. It then hands each check the pairs, coefficients and rungs
it certifies, so no check solves a section; another split of a level is
the level's pair moved by t^p (`lrspace.at_split`). Every entry compares
two routes or bounds a quantity; none reads a number against itself,
such as a section against its relabelling (a split is only an index
label). The second routes are library calls: the window's coefficients
from one union-frame Cholesky factor (`verblunsky.union_verblunsky`,
which also serves the roundtrip), density moments from
`spectral.moment_check` (the CMV matrix of the union frame's alpha_j),
generator inner products from `oracle.quadrature_gram`, and the window's
coefficients again from the oracle's own union frame, which starts where
the union route's does. The defect geometry (`defect_orthogonality`,
`defect_unit_norm`), the rotation Theta_j (`rotation_relation`) and the
CMV entries (`cmv_entries_match_gram`) set the Schur-complement solve of
each section against the FFT of its evaluated vectors
(`lrspace.generator_products`): <u, g'_k> and <u, g''_l> are Fourier
coefficients of u's components, so no entry multiplies by a frame Gram.
The CLI `check` command and the acceptance tests both run these.

The bounds are fixed: `config.TOL_ALG`, `TOL_FUN` and `TAIL_TOL`, or a
literal where an entry has a bound of its own; so are the levels each
check samples. Of the run configuration only the roundtrip target
`tol_roundtrip` and the input guard `margin_min` serve as bounds, so no
setting switches an entry off or loosens it.
"""

from dataclasses import dataclass

import numpy as np

from . import cmv, oracle, scattering, spectral
from .config import TAIL_TOL, TOL_ALG, TOL_FUN
from .lrspace import _cross_block, at_split, generator_products
from .verblunsky import (
    convergence_report,
    level_split,
    read_sequence,
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


def check_gram_structure(R, pairs):
    """Contractivity of the cross norm and the defect geometry of R's pairs at levels -2, 0, 3.

    Each defect vector's products with the generators of its frame come
    off the FFT of its samples (`generator_products`): row 0 for K is
    <K, g'_n> = a0, which with ||K|| = 1 gives ||g'_n - K||^2 = 2 - 2 a0;
    Ktilde likewise with g''_{m+1}.
    """
    norm_excess = ortho = unit = 0.0
    for j in (-2, 0, 3):
        pair = pairs[j]
        f = pair.frame
        norm_excess = max(norm_excess,
                          float(np.linalg.norm(_cross_block(R, f), 2)) - (1.0 - R.margin))
        vk = generator_products(pair.K)(f)
        vt = generator_products(pair.Ktilde)(f)
        # orthogonality against every generator of the reduced frames
        ortho = max(ortho, np.max(np.abs(vk[1:])), np.max(np.abs(np.delete(vt, f.N))))
        # ||K||^2 = K^H (G K), G K being the products already in hand
        norms = [np.sqrt(max(np.vdot(v.coords(), gv).real, 0.0))
                 for v, gv in ((pair.K, vk), (pair.Ktilde, vt))]
        unit = max(unit, *(abs(x - 1.0) for x in norms),
                   abs(vk[0] - pair.a0), abs(vt[f.N] - pair.a0_tilde))
    return [
        _leq("gram_cross_contractive", norm_excess, 1e-10, "||cross|| - sup|R|"),
        _leq("defect_orthogonality", ortho, 1e-8),
        _leq("defect_unit_norm", unit, 1e-10),
    ]


def check_verblunsky(seq):
    """Coefficient-window consistency: bounds, ratios, telescoping."""
    rep = convergence_report(seq)
    a0s = seq.a0s
    return [
        _leq("alpha_modulus", float(np.max(np.abs(seq.alphas))
                                    if len(seq.alphas) else 0.0), 1.0 - 1e-15),
        _leq("rho_two_ways", rep["rho_ratio_max_dev"], 1e-7),
        _leq("telescoped_products", rep["telescoping_max_dev"], TOL_ALG),
        _leq("alpha_tail_square_sum", rep["tail_sum_alpha_sq"], TAIL_TOL),
        _leq("a0_nondecreasing_in_level",
             float(np.max(np.maximum(a0s[:-1] - a0s[1:], 0.0))), 5e-13),
    ]


def check_union(seq, union):
    """The per-level coefficients of seq against the union frame's on the same window."""
    dev = max(np.max(np.abs(union.alphas - seq.alphas)),
              np.max(np.abs(union.a0s - seq.a0s)))
    return [_leq("alpha_union_matches_per_level", dev, TOL_ALG,
                 "max |d alpha|, |d a0| over [-J, J]")]


def check_rotation(pairs, seq):
    """Theta_j between the pairs of levels j and j + 1, j = -1, 0, 1, at alpha_j of seq."""
    worst = 0.0
    for j in (-1, 0, 1):
        n = level_split(j)[0]
        base, after = pairs[j], pairs[j + 1]
        worst = max(worst, rotation_relation_residual(
            base, at_split(after, n + 1), at_split(after, n), seq.alpha(j)))
    return [_leq("rotation_relation", worst, 1e-7)]


def check_schur(pairs, seq):
    levels = range(max(seq.lo, -4), min(seq.hi - 1, 4))
    rep = schur_chain(pairs, seq, list(levels))
    return [
        _leq("schur_chain_step", rep["step_sup_dev"], TOL_FUN),
        _leq("schur_omega_at_zero", rep["omega_zero_dev"], TOL_ALG),
    ]


def check_cmv(pairs, seq):
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
        pair = at_split(pairs[bn + bm], bn)
        return pair.K if kind == "K" else pair.Ktilde

    entry_dev = 0.0
    for n in (0, 1):
        basis = {idx: basis_vector(idx) for idx in range(2 * n - 1, 2 * n + 3)}
        for col in (2 * n, 2 * n + 1):
            products = generator_products(basis[col])  # <t b_col, b_row> at p = 1
            entry_dev = max(entry_dev, *(
                abs(np.vdot(vec.coords(), products(vec.frame, 1)) - U0.entry(row, col))
                for row, vec in basis.items()))
    out.append(_leq("cmv_entries_match_gram", entry_dev, TOL_FUN))
    return out


def check_roundtrip(R, rungs, cfg):
    """Roundtrip sup error of the top rung, and its excess over the Fourier tail on every rung.

    rungs is `scattering.rung_sequences(R, cfg)`. Level window J reconstructs
    S_{J-1}R: sup error <= sum_{|k|>=J} |R_k| + M eps, the tail each rung
    records (`ScatteringFunction.fourier_tail`).
    """
    rep = scattering.roundtrip(R, rungs)
    excess = max(r["sup_error"] - r["fourier_tail"] for r in rep["rungs"])
    return [
        _leq("roundtrip_sup_error", rep["sup_error"], cfg.tol_roundtrip),
        _leq("roundtrip_within_fourier_tail", excess,
             R.grid.size * np.finfo(float).eps, "sup error - Fourier tail, worst rung"),
    ]


def check_spectral(R, pairs, seq, union):
    """Density moments by `spectral.moment_check` at levels 0 and 1; sigma recursion.

    The densities come from the pairs of levels 0 and 2, at offsets (0, 0)
    and (1, 1), with alpha_0 and the recursion's alpha_j from seq; the
    coefficients of U from the union frame, whose window must hold the
    levels -5..5 that the kmax = 4 moments read.
    """
    moment_dev = 0.0
    for n in (0, 1):
        dens = spectral.spectral_density(R, pairs[2 * n])
        tagged = [dens]
        if n == 0:
            tagged.append(spectral.change_basis_density(dens, seq.alpha(0)))
        for d in tagged:
            moment_dev = max(moment_dev, spectral.moment_check(d, union, 4)["max_abs_dev"])
    rec_dev = max(spectral.sigma_recursion_check(pairs[j], pairs[j + 1], seq.alpha(j))
                  for j in (0, 1))
    return [
        _leq("spectral_moments_match_cmv", moment_dev, TOL_FUN),
        _leq("sigma_recursion", rec_dev, TOL_FUN),
    ]


def check_oracle(R, seq, union, cfg):
    """Oracle agreement of seq on its whole window [-J, J] and of generator inner products.

    The oracle's union frame starts where that of `union`, the union route
    over [-J, J], does: at N0 = max(section_start, J + d) with d R's lower
    Fourier reach. A smaller frame can miss the coupling of level -J,
    decouple and read a0 = 1 there.
    """
    J = min(-seq.lo, seq.hi)
    N0 = union.diagnostics["N0"]
    Q = oracle.quadrature_space(R, cfg.oversample)
    rep = oracle.compare_with_fast_path(R, Q, J, N0, cfg, seq)
    out = [_leq("oracle_alpha_agreement", rep["max_alpha_dev"], TOL_FUN),
           _leq("oracle_a0_agreement", rep["max_a0_dev"], TOL_FUN, "levels -J..J+1")]
    # quadrature Gram of g'_0, g'_2, g''_1, g''_3: identity within each family,
    # cross entries <g'_k, g''_l> = c_{-(k+l)}
    ks, ls = (0, 2), (1, 3)
    cross = np.array([[R.coefficient(-(k + l)) for l in ls] for k in ks])
    exact = np.eye(4, dtype=complex)
    exact[2:, :2], exact[:2, 2:] = cross.T, np.conj(cross)
    worst = float(np.max(np.abs(oracle.quadrature_gram(Q, ks, ls) - exact)))
    out.append(_leq("oracle_inner_products", worst, 1e-7))
    return out


def run_full_suite(R, cfg):
    """All invariant checks for one input; returns a list of CheckResult.

    Solves once, before the first check, and hands the checks what they
    certify: the union frame of every roundtrip rung that R's Fourier tail
    picks (`scattering.rung_sequences`), top rung first, so a rung that
    cannot converge fails at once; the defect pairs of the levels
    [min(-J, -2), max(J + 1, 4)], J = cfg.levels, the window's and those
    the checks near level 0 read; and the coefficients of [-J, J] read off
    those pairs (`read_sequence`, as `inverse_scattering` reads them). The
    scipy factorizations then run in one block rather than alternating
    with the numpy reads, each on its own BLAS build.
    """
    rep = R.szego
    results = [CheckResult("szego_condition", rep.passes and rep.margin >= cfg.margin_min,
                           rep.margin, cfg.margin_min, "margin vs margin_min")]
    if not results[0].passed:
        return results
    J = cfg.levels
    rungs = scattering.rung_sequences(R, cfg)
    union = rungs[-1][1]  # the first rung is [-J, J]
    pairs = solve_levels(R, min(-J, -2), max(J + 1, 4), cfg)
    seq = read_sequence(R, pairs, J)
    # the kmax = 4 moments read levels -5..5, inside [-J, J] from J = 5 on
    moments = union if J >= 5 else union_verblunsky(R, -5, 5, cfg)
    results += check_gram_structure(R, pairs)
    results += check_verblunsky(seq)
    results += check_union(seq, union)
    results += check_rotation(pairs, seq)
    results += check_schur(pairs, seq)
    results += check_cmv(pairs, seq)
    results += check_spectral(R, pairs, seq, moments)
    results += check_roundtrip(R, rungs, cfg)
    results += check_oracle(R, seq, union, cfg)
    return results

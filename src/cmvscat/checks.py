"""Invariant-verification harness.

Each check returns a CheckResult with the measured value and the bound
it is held to; `run_full_suite` strings them together for one input. It
solves first, once: one union frame, whose slices are the roundtrip
rungs (`scattering.rung_sequences`), the defect pair of every level the
checks read, and the coefficients of [-J, J] read off those pairs. It
then hands each check the pairs, coefficients, frame and rungs it
certifies, so no check solves a section; another split of a level is
the level's pair moved by t^p (`lrspace.at_split`). Every entry compares
two routes or bounds a quantity; none reads a number against itself,
such as a section against its relabelling (a split is only an index
label). The second routes are library calls: the coefficients of one
union-frame Cholesky factor (`verblunsky.union_verblunsky`, which also
serves the roundtrip; the rotation, Schur, CMV-entry and spectral
entries read them at the same levels for every J), density moments
from `spectral.moment_check` (the CMV matrix of the frame's alpha_j),
generator inner products from `oracle.quadrature_gram`, and the window's
coefficients again from the oracle's own union frame, which starts where
the union route over [-J, J] does. The defect geometry (`defect_orthogonality`,
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
    return [
        _leq("alpha_modulus", float(np.max(np.abs(seq.alphas))
                                    if len(seq.alphas) else 0.0), 1.0 - 1e-15),
        _leq("rho_two_ways", rep["rho_ratio_max_dev"], 1e-7),
        _leq("telescoped_products", rep["telescoping_max_dev"], TOL_ALG),
        _leq("alpha_tail_square_sum", rep["tail_sum_alpha_sq"], TAIL_TOL),
        _leq("a0_nondecreasing_in_level", rep["a0_max_decrease"], 5e-13),
    ]


def check_union(seq, union):
    """The per-level coefficients of seq against the union frame's on the same window."""
    dev = max(np.max(np.abs(union.alphas - seq.alphas)),
              np.max(np.abs(union.a0s - seq.a0s)))
    return [_leq("alpha_union_matches_per_level", dev, TOL_ALG,
                 "max |d alpha|, |d a0| over [-J, J]")]


def check_rotation(pairs, frame):
    """Theta_j between the pairs of levels j and j + 1, j = -1, 0, 1, at alpha_j of the frame."""
    worst = 0.0
    for j in (-1, 0, 1):
        n = level_split(j)[0]
        base, after = pairs[j], pairs[j + 1]
        worst = max(worst, rotation_relation_residual(
            base, at_split(after, n + 1), at_split(after, n), frame.alpha(j)))
    return [_leq("rotation_relation", worst, 1e-7)]


def check_schur(pairs, frame):
    """The Schur chain of the pairs of levels -4..4, stepped by alpha_j of the frame."""
    rep = schur_chain(pairs, frame, list(range(-4, 4)))
    return [
        _leq("schur_chain_step", rep["step_sup_dev"], TOL_FUN),
        _leq("schur_omega_at_zero", rep["omega_zero_dev"], TOL_ALG),
    ]


def check_cmv(pairs, frame):
    """Orthonormal interior columns of the zero-tail window, and Gram/CMV entry agreement.

    U is the zero-tail window (`cmv.build_cmv`) of the frame's
    coefficients, taking alpha_j = 0 outside it, so the frame must hold
    levels -1..3, which the entries of rows -1..4 read. Its interior
    columns are those of the infinite matrix, which is unitary: E = U*U - I
    over them has bandwidth 4, so its 2-norm is at most 9 max|E_ij| <= 9e-12.
    """
    U = cmv.build_cmv(frame, scattering.minimal_window(frame)[0])
    out = [_leq("cmv_unitarity_zero_tail_interior", cmv.unitarity_defect(U), 1e-12)]

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
                abs(np.vdot(vec.coords(), products(vec.frame, 1)) - U.entry(row, col))
                for row, vec in basis.items()))
    out.append(_leq("cmv_entries_match_gram", entry_dev, TOL_FUN))
    return out


def check_roundtrip(R, rungs, cfg):
    """Roundtrip sup error of the top rung, and its excess over the Fourier tail on every rung.

    rungs is `scattering.rung_sequences(R, cfg)[1]`. Level window J reconstructs
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


def check_spectral(R, pairs, frame):
    """Density moments by `spectral.moment_check` at levels 0 and 1; sigma recursion.

    The densities come from the pairs of levels 0 and 2, at offsets (0, 0)
    and (1, 1); alpha_0, the recursion's alpha_j and the coefficients of U
    from the union frame, whose window must hold the levels -5..5 that the
    kmax = 4 moments read.
    """
    moment_dev = 0.0
    for n in (0, 1):
        dens = spectral.spectral_density(R, pairs[2 * n])
        tagged = [dens]
        if n == 0:
            tagged.append(spectral.change_basis_density(dens, frame.alpha(0)))
        for d in tagged:
            moment_dev = max(moment_dev, spectral.moment_check(d, frame, 4)["max_abs_dev"])
    rec_dev = max(spectral.sigma_recursion_check(pairs[j], pairs[j + 1], frame.alpha(j))
                  for j in (0, 1))
    return [
        _leq("spectral_moments_match_cmv", moment_dev, TOL_FUN),
        _leq("sigma_recursion", rec_dev, TOL_FUN),
    ]


def check_oracle(R, seq, cfg):
    """Oracle agreement of seq on its whole window [-J, J] and of generator inner products.

    seq is `read_sequence`'s, and the oracle's union frame starts where its
    section of level -J did: at N0 = max(section_start, J + d) with d R's
    lower Fourier reach (`lrspace._converge_section`), where the union
    route over [-J, J] starts too. A smaller frame can miss the coupling of
    level -J, decouple and read a0 = 1 there; the suite's union frame can
    reach further out and start higher, for no more certainty.
    """
    J = min(-seq.lo, seq.hi)
    N0 = seq.diagnostics["sections"][0]["N0"]
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
    certify: one union frame over the window of the top roundtrip rung
    that R's Fourier tail picks, widened to [-5, 5] (the levels the
    moments and CMV entries read), whose slices are the rungs
    (`scattering.rung_sequences`); the defect pairs of the levels
    [min(-J, -4), max(J + 1, 4)], J = cfg.levels, the window's and those
    the checks near level 0 read; and the coefficients of [-J, J] read off
    those pairs (`read_sequence`, as `inverse_scattering` reads them),
    which only the entries certifying `inverse`'s output read. The scipy
    factorizations then run in one block rather than alternating with the
    numpy reads, each on its own BLAS build.
    """
    rep = R.szego
    results = [CheckResult("szego_condition", rep.passes and rep.margin >= cfg.margin_min,
                           rep.margin, cfg.margin_min, "margin vs margin_min")]
    if not results[0].passed:
        return results
    J = cfg.levels
    frame, rungs = scattering.rung_sequences(R, cfg, reach=5)
    pairs = solve_levels(R, min(-J, -4), max(J + 1, 4), cfg)
    seq = read_sequence(R, pairs, J)
    results += check_gram_structure(R, pairs)
    results += check_verblunsky(seq)
    results += check_union(seq, rungs[-1][1])  # the bottom rung is [-J, J]
    results += check_rotation(pairs, frame)
    results += check_schur(pairs, frame)
    results += check_cmv(pairs, frame)
    results += check_spectral(R, pairs, frame)
    results += check_roundtrip(R, rungs, cfg)
    results += check_oracle(R, seq, cfg)
    return results

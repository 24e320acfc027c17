"""Invariant-verification harness.

Each check returns a CheckResult with the measured value and the bound
it is held to; `run_full_suite` strings them together for one input. It
solves first, once: one union frame, whose slices are the roundtrip
rungs (`scattering.rung_sequences`), the defect pair of every level the
checks read, and the coefficients of [-J, J] read off those pairs. It
then hands each check the pairs, coefficients, frame and rungs it
certifies, so no check solves a section; another split of a level is
the level's pair moved by t^p (`lrspace.at_split`). "The frame" below is
the union frame's coefficients (`verblunsky.union_verblunsky`), "the
pairs" the per-level Schur-complement solves, and "FFT products" a
vector's inner products with generators read off the FFT of its samples
(`lrspace.generator_products`), so no entry multiplies by a frame Gram.
Every entry compares two routes to one quantity or bounds one; none
reads a number against itself or restates an identity that holds for
any input. In report order:

- szego_condition: R's margin 1 - sup|R| on the grid, bounded below by
  `margin_min`; the suite stops here when it fails.
- gram_cross_contractive: the 2-norm of a pair's Hankel cross block
  (coefficients) against sup|R| (samples), which Nehari's bound holds.
- defect_orthogonality: the pairs against their FFT products, which
  vanish on every other generator of the reduced frames.
- defect_unit_norm: ||K|| = 1 and <K, g'_n> = a0 (Ktilde likewise), the
  solve's a0 against K's FFT products.
- rho_two_ways: rho_j from alpha_j against the residual ratio
  a0_j / a0_{j+1} of the pairs.
- telescoped_products: a0_j against a0_{J+1} times the product of the
  rho_i from alpha_i, i >= j.
- alpha_tail_square_sum: sum |alpha_j|^2 over the window's top quarter,
  bounded by `TAIL_TOL`.
- a0_nondecreasing_in_level: the largest drop a0_j - a0_{j+1}, bounded
  by 5e-13.
- alpha_union_matches_per_level: alpha_j and a0_j of the pairs against
  the frame's over [-J, J].
- rotation_relation: the pairs of levels j and j + 1 against Theta_j at
  the frame's alpha_j, through FFT products.
- schur_chain_step: omega_{j+1} read off its pair against the Schur step
  of omega_j by the frame's alpha_j.
- schur_omega_at_zero: omega_{j+1}(0) against -alpha_j of the frame.
- cmv_entries_match_gram: the band formulas of U (`cmv.build_cmv`) at
  the frame's alpha_j against <t b_col, b_row> from FFT products.
- spectral_moments_match_cmv: a density's quadrature moments against
  V^H U^k V on the frame's U (`spectral.moment_check`).
- sigma_recursion: level j + 1's density against the one-step recursion
  of level j's by the frame's alpha_j.
- roundtrip_sup_error: the top rung's reconstruction against R's
  samples, bounded by `tol_roundtrip`.
- roundtrip_within_fourier_tail: each rung's sup error against R's
  Fourier tail past its window, within M eps.
- oracle_alpha_agreement, oracle_a0_agreement: alpha_j over [-J, J] and
  a0_j over -J..J+1 of the pairs against the oracle's dense quadrature
  and CGS2 on its own union frame (`oracle.compare_with_fast_path`),
  which starts where the union route over [-J, J] does.

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
    """Coefficient-window consistency: ratios, telescoping, tail and monotone residuals."""
    rep = convergence_report(seq)
    return [
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
    """Gram/CMV entry agreement in the columns 0..3.

    U is the zero-tail window (`cmv.build_cmv`) of the frame's
    coefficients, taking alpha_j = 0 outside it, so the frame must hold
    levels -1..3, which the entries of rows -1..4 read.
    """
    U = cmv.build_cmv(frame, scattering.minimal_window(frame)[0])

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
    return [_leq("cmv_entries_match_gram", entry_dev, TOL_FUN)]


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
    """Oracle agreement of seq on its whole window [-J, J].

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
    rep = oracle.compare_with_fast_path(Q, J, N0, seq)
    return [_leq("oracle_alpha_agreement", rep["max_alpha_dev"], TOL_FUN),
            _leq("oracle_a0_agreement", rep["max_a0_dev"], TOL_FUN, "levels -J..J+1")]


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

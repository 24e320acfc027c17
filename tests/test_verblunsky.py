import numpy as np
import pytest

from cmvscat import (
    VerblunskySequence,
    alpha_from_defects,
    convergence_report,
    defect_pair,
    inverse_scattering,
    recover_omega,
    schur_step,
)
from cmvscat import CircleGrid, RunConfig, oracle_verblunsky, quadrature_space
from cmvscat.errors import ConvergenceError, DomainError, InputError, ResolutionError
from cmvscat.families import from_string
from cmvscat.lrspace import converged_defect_pair
from cmvscat.verblunsky import (
    SchurFunction,
    level_split,
    rotation_relation_residual,
    schur_chain,
    split_deviation,
    union_verblunsky,
)

RHO = np.sqrt(0.75)


def _pair(R, j, cfg):
    return converged_defect_pair(R, *level_split(j), cfg)


def test_sequence_rejects_large_alpha():
    with pytest.raises(DomainError):
        VerblunskySequence(0, np.array([1.0 + 0j]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.1, np.nan)])
def test_sequence_rejects_nonfinite_alpha(bad):
    with pytest.raises(InputError):
        VerblunskySequence(0, np.array([0.2, bad], dtype=complex))


def test_alpha_zero_function(r_zero):
    pair = defect_pair(r_zero, 0, 0, 4)
    assert abs(alpha_from_defects(pair)) < 1e-14


def test_alpha_monomial_levels(r_half, small_cfg):
    pair0 = _pair(r_half, 0, small_cfg)
    assert abs(alpha_from_defects(pair0) + 0.5) < 1e-12
    pair1 = _pair(r_half, 1, small_cfg)
    assert abs(alpha_from_defects(pair1)) < 1e-12


def test_inverse_scattering_zero(r_zero, small_cfg):
    seq = inverse_scattering(r_zero, 4, small_cfg)
    assert np.max(np.abs(seq.alphas)) < 1e-14
    assert np.max(np.abs(seq.a0s - 1.0)) < 1e-14


def test_inverse_scattering_monomial(r_half, small_cfg):
    seq = inverse_scattering(r_half, small_cfg.levels, small_cfg)
    assert abs(seq.alpha(0) + 0.5) < 1e-12
    for j in range(1, small_cfg.levels + 1):
        assert abs(seq.alpha(j)) < 1e-12
    # negative levels certified by the quadrature oracle (test_oracle)
    for j in range(-small_cfg.levels, 0):
        assert abs(seq.alpha(j)) < 1e-12
    # residual norms telescope through the single nontrivial level
    assert np.max(np.abs(seq.a0s[: small_cfg.levels + 1] - RHO)) < 1e-12
    assert np.max(np.abs(seq.a0s[small_cfg.levels + 1 :] - 1.0)) < 1e-12


def test_inverse_scattering_tail_summability(grid, small_cfg):
    # the top quarter of the window must sit past the polynomial degree
    from cmvscat.families import random_trig

    R = random_trig(grid, degree=3, margin=0.25, seed=13)
    seq = inverse_scattering(R, small_cfg.levels, small_cfg)
    asq = np.abs(seq.alphas) ** 2
    tail = np.sum(asq[-max(1, len(asq) // 4):])
    assert tail < small_cfg.tail_tol


def test_inverse_scattering_requires_margin(grid, small_cfg):
    import cmvscat as cs

    R = cs.ScatteringFunction.from_samples(
        np.full(grid.size, 1.0 - 1e-5 + 0j), grid
    )
    with pytest.raises(DomainError):
        inverse_scattering(R, 2, small_cfg)


def test_split_invariance(r_smooth, small_cfg):
    seq = inverse_scattering(r_smooth, 3, small_cfg)
    assert split_deviation(r_smooth, seq, small_cfg) <= small_cfg.tol_alg


@pytest.mark.parametrize("spec", ["random,degree=4,margin=0.2,seed=0",  # anchor
                                  "blaschke,r=0.8"])
def test_shifted_split_section_is_identical(spec):
    # the frame Gram of a split is the Hankel block c_{-(j+1+i+k)}, which
    # depends on the level j = n + m only, so the shifted split (n+1, m-1)
    # solves the same matrix and split_deviation reads 0.0 by construction
    from cmvscat import CircleGrid
    from cmvscat.config import RunConfig
    from cmvscat.families import from_string

    cfg = RunConfig()
    R = from_string(spec, CircleGrid(cfg.grid_size))
    for j in (-5, 0, 3):
        n, m = level_split(j)
        for N in (32, 128):
            a, b = defect_pair(R, n, m, N), defect_pair(R, n + 1, m - 1, N)
            assert np.array_equal(a.K.coords(), b.K.coords())
            assert np.array_equal(a.Ktilde.coords(), b.Ktilde.coords())
            assert (a.a0, a.a0_tilde) == (b.a0, b.a0_tilde)
    seq = inverse_scattering(R, 16, cfg)
    assert split_deviation(R, seq, cfg) == 0.0


def test_rho_two_computations(r_smooth, small_cfg):
    seq = inverse_scattering(r_smooth, small_cfg.levels, small_cfg)
    ratios = seq.a0s[:-1] / seq.a0s[1:]
    assert np.max(np.abs(seq.rhos - ratios)) < 1e-7


def test_rotation_relation(r_half, r_smooth, small_cfg):
    for R in (r_half, r_smooth):
        for j in (-1, 0, 1):
            n, m = level_split(j)
            assert rotation_relation_residual(R, n, m, small_cfg) < 1e-7


def test_recover_omega_zero(r_zero, small_cfg):
    pair = _pair(r_zero, 0, small_cfg)
    om = recover_omega(pair)
    assert np.max(np.abs(om.samples)) < 1e-12


def test_recover_omega_vanishing_component_raises(r_zero):
    # a vector with no analytic part has an identically zero first
    # component when R = 0
    from cmvscat.errors import EvaluationError
    from cmvscat.lrspace import DefectPair, GeneratorFrame, generator

    f = GeneratorFrame(0, 0, 4)
    g = generator(r_zero, "antianalytic", 1, f)
    fake = DefectPair(g, g, 1.0, 1.0, 1.0)
    with pytest.raises(EvaluationError):
        recover_omega(fake)


def test_alpha_from_defects_rejects_unimodular():
    # identical defect vectors give <K, Ktilde> = 1, which no converged
    # section can produce
    from cmvscat.errors import InconsistencyError
    from cmvscat.lrspace import DefectPair, GeneratorFrame, generator
    from cmvscat.families import zero as zero_family
    from cmvscat import CircleGrid

    R = zero_family(CircleGrid(64))
    f = GeneratorFrame(0, 0, 4)
    g = generator(R, "analytic", 0, f)
    with pytest.raises(InconsistencyError):
        alpha_from_defects(DefectPair(g, g, 1.0, 1.0))


def test_recover_omega_monomial_levels(r_half, small_cfg):
    nodes = r_half.grid.nodes
    for j in (1, 2, 3):
        pair = _pair(r_half, j, small_cfg)
        om = recover_omega(pair)
        assert np.max(np.abs(om.samples - 0.5 * nodes ** (j - 1))) < 1e-7
    pair0 = _pair(r_half, 0, small_cfg)
    assert np.max(np.abs(recover_omega(pair0).samples)) < 1e-12


def test_schur_step_examples(grid):
    zero = SchurFunction(grid, np.zeros(grid.size, dtype=complex), 0)
    assert np.max(np.abs(schur_step(zero, 0.0).samples)) == 0.0
    # omega_0 = 0, alpha = -gamma gives the constant gamma
    gamma = 0.5
    stepped = schur_step(zero, -gamma)
    assert np.max(np.abs(stepped.samples - gamma)) < 1e-14
    # alpha = 0 multiplies by t
    om = SchurFunction(grid, gamma * grid.nodes ** 2, 3)
    assert np.max(np.abs(schur_step(om, 0.0).samples - gamma * grid.nodes**3)) < 1e-14


def test_schur_step_contraction(grid):
    rng = np.random.default_rng(2)
    samples = 0.9 * np.exp(1j * rng.standard_normal(grid.size))
    om = SchurFunction(grid, samples, 0)
    stepped = schur_step(om, 0.3 - 0.2j)
    assert stepped.sup <= 1.0 + 1e-8
    with pytest.raises(DomainError):
        schur_step(om, 1.2)


def test_schur_chain_and_zero_values(r_smooth, small_cfg):
    seq = inverse_scattering(r_smooth, 4, small_cfg)
    rep = schur_chain(r_smooth, seq, small_cfg, levels=range(-2, 3))
    assert rep["step_sup_dev"] <= 1e-6
    assert rep["omega_zero_dev"] <= 1e-8


def test_omega_zero_equals_minus_alpha(r_half, small_cfg):
    pair = _pair(r_half, 1, small_cfg)
    om = recover_omega(pair)
    pair0 = _pair(r_half, 0, small_cfg)
    assert abs(om.value_at_zero + alpha_from_defects(pair0)) < 1e-8


def test_convergence_report_monomial(r_half, small_cfg):
    seq = inverse_scattering(r_half, small_cfg.levels, small_cfg)
    rep = convergence_report(seq)
    assert rep["rho_ratio_max_dev"] < 1e-7
    assert rep["telescoping_max_dev"] < 1e-8
    assert abs(rep["sum_alpha_sq"] - 0.25) < 1e-10
    assert rep["a0_monotone"]


def test_convergence_report_zero(r_zero, small_cfg):
    rep = convergence_report(inverse_scattering(r_zero, 4, small_cfg))
    assert rep["rho_ratio_max_dev"] < 1e-14
    assert rep["sum_alpha_sq"] < 1e-28
    assert rep["telescoping_max_dev"] < 1e-14


def test_roundtrip_consistency_random_alphas(grid, small_cfg):
    # inverse -> direct -> inverse on a polynomial of degree < J, which
    # the reconstruction S_{J-1}R returns whole
    from cmvscat import boundary_reconstruction, ScatteringFunction
    from cmvscat.families import random_trig

    R = random_trig(grid, degree=3, margin=0.3, seed=9)
    seq = inverse_scattering(R, small_cfg.levels, small_cfg)
    rec = boundary_reconstruction(seq, grid)
    assert np.max(np.abs(rec - R.samples)) < 1e-12
    back = inverse_scattering(ScatteringFunction.from_samples(rec, grid),
                              small_cfg.levels, small_cfg)
    assert np.max(np.abs(back.alphas - seq.alphas)) < 1e-10
    ratios = back.a0s[:-1] / back.a0s[1:]
    assert np.max(np.abs(back.rhos - ratios)) < 1e-6


# finding A: at section_start 8 the per-level frames of levels -24..-21
# miss R's support, decouple and certify alpha = 0, 5.0e-4 off
FINDING_A = RunConfig(grid_size=256, levels=24, section_start=8, section_cap=128)


def test_union_route_matches_the_oracle_where_per_level_decouples():
    cfg = FINDING_A
    R = from_string("random,degree=4,margin=0.2,seed=0", CircleGrid(cfg.grid_size))
    union = union_verblunsky(R, cfg.levels, cfg)
    oracle = oracle_verblunsky(R, cfg.levels, 51, quadrature_space(R, cfg.oversample))
    assert np.max(np.abs(union.alphas - oracle.alphas)) <= 1e-15
    assert np.max(np.abs(union.a0s - oracle.a0s)) <= 1e-15
    per_level = inverse_scattering(R, cfg.levels, cfg)
    assert np.max(np.abs(per_level.alphas - oracle.alphas)) > 1e-4


@pytest.mark.parametrize("spec", ["random,degree=4,margin=0.2,seed=0", "blaschke,r=0.8",
                                  "monomial,gamma=0.5,k=1",
                                  "random,degree=8,margin=0.2,seed=3"])
def test_union_route_matches_per_level(spec):
    # a level's per-level coefficient does not depend on the window, so one
    # per-level run at J = 32 serves both windows
    cfg = RunConfig()
    R = from_string(spec, CircleGrid(cfg.grid_size))
    per_level = inverse_scattering(R, 32, cfg)
    for J in (16, 32):
        union = union_verblunsky(R, J, cfg)
        assert (union.lo, union.hi, len(union.a0s)) == (-J, J, 2 * J + 2)
        inner = slice(32 - J, 32 + J + 1)
        assert np.max(np.abs(union.alphas - per_level.alphas[inner])) <= 1e-15, J
        assert np.max(np.abs(union.a0s - per_level.a0s[32 - J:32 + J + 2])) <= 1e-15, J


def test_union_route_at_the_window_edge():
    # R = 0.5 tbar couples g'_k with g''_{1-k} alone, so a0_j = sqrt(0.75) for
    # every j <= 0. The union frame reaches g''_65 and meets rho_j =
    # a0_j / a0_{j+1} to rounding; the per-level doubling at level -64
    # stops on two decoupled sections and reads a0 = 1.0 there
    cfg = RunConfig()
    R = from_string("monomial,gamma=0.5,k=1", CircleGrid(cfg.grid_size))
    union = union_verblunsky(R, 64, cfg)
    assert convergence_report(union)["rho_ratio_max_dev"] <= 1e-15
    assert np.max(np.abs(union.a0s[:65] - RHO)) <= 1e-15


def test_union_convergence_error_names_the_level(r_smooth):
    # a tolerance below rounding cannot be met: the doubling from
    # N0 = J + d = 26 to 52 ends at the cap and names the level of the
    # largest last change
    cfg = RunConfig(grid_size=256, section_start=16, section_cap=64, section_tol=1e-30)
    with pytest.raises(ConvergenceError, match=r"^level -?\d+: union frame over \[-20, 20\] "
                                               r"did not converge by section size 64 "
                                               r"\(last change .* > 1\.0e-30\)"):
        union_verblunsky(r_smooth, 20, cfg)


def test_union_start_covers_the_fourier_reach(r_half, monkeypatch):
    # R = 0.5 tbar has reach d = 1, so J = 20 starts at N0 = 21, where level
    # -20 already meets g''_21: from start 16 the doubling would read a0 at
    # N = 16 and 32 and move by 1 - sqrt(0.75). Under a cap of 32 the start
    # cannot double, and the refusal comes before any factorization
    from cmvscat import verblunsky

    seq = union_verblunsky(r_half, 20, RunConfig(grid_size=256, section_start=16))
    assert seq.diagnostics == {"N": 42, "d": 1, "N0": 21}
    assert np.max(np.abs(seq.a0s[:21] - RHO)) <= 1e-15

    def no_factor(*args):
        raise AssertionError("union_factor ran before the reach refusal")

    monkeypatch.setattr(verblunsky, "union_factor", no_factor)
    cfg = RunConfig(grid_size=256, section_start=16, section_cap=32)
    with pytest.raises(ConvergenceError, match=r"needs section size 42 > section_cap 32: "
                                               r"R's Fourier reach d = 1 .* N0 = J \+ d = 21"):
        union_verblunsky(r_half, 20, cfg)


def test_union_route_matches_the_oracle_past_the_section_start():
    # R = 0.5 tbar^100 couples level -16 only with g''_117: from section_start
    # 32 the doubling would stop at N = 64 on two decoupled frames and read
    # a0 = 1.0 at every level, 1.34e-1 off. The reach d = 100 starts it at
    # N0 = 116, and it agrees with the oracle at N = 256; the per-level route
    # still decouples
    cfg = RunConfig()
    R = from_string("monomial,gamma=0.5,k=100", CircleGrid(cfg.grid_size))
    union = union_verblunsky(R, 16, cfg)
    assert union.diagnostics == {"N": 232, "d": 100, "N0": 116}
    oracle = oracle_verblunsky(R, 16, 256, quadrature_space(R, cfg.oversample))
    assert np.max(np.abs(union.a0s - oracle.a0s)) <= 1e-15
    assert np.max(np.abs(union.alphas - oracle.alphas)) <= 1e-15
    assert np.max(np.abs(union.a0s - RHO)) <= 1e-15
    per_level = inverse_scattering(R, 16, cfg)
    assert abs(np.max(np.abs(per_level.a0s - union.a0s)) - (1 - RHO)) <= 1e-15


def test_union_route_refuses_an_index_off_the_grid():
    # a sampled R resolves [-31, 32] at M = 64; its reach is d = 30, so J = 4
    # starts at N0 = 34 and reads c_{-73}
    cfg = RunConfig(grid_size=64, section_start=16, section_cap=128)
    R = from_string("blaschke,r=0.5", CircleGrid(cfg.grid_size))
    with pytest.raises(ResolutionError, match=r"\[-73, 3\] .*increase the grid size M"):
        union_verblunsky(R, 4, cfg)


def test_union_factor_keeps_one_matrix():
    # the Gram is written once, in Fortran order, and factored in place: the
    # peak is one n x n complex matrix (n = 642 here) plus O(n) work, not the
    # copies a C-order factor or np.abs(G) would add
    import tracemalloc

    from cmvscat.verblunsky import union_factor

    R = from_string("random,degree=4,margin=0.2,seed=0", CircleGrid(1024))
    J, N = 64, 256
    union_factor(R, J, N)
    tracemalloc.start()
    try:
        union_factor(R, J, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = 2 * J + 2 + 2 * N
    assert peak <= 1.25 * 16 * n * n

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
from cmvscat.errors import DomainError, InputError
from cmvscat.lrspace import converged_defect_pair
from cmvscat.verblunsky import (
    SchurFunction,
    level_split,
    rotation_relation_residual,
    schur_chain,
    split_deviation,
)

RHO = np.sqrt(0.75)


def _pair(R, j, cfg):
    n, m = level_split(j)
    return converged_defect_pair(R, n, m, cfg), n, m


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
    pair0, _, _ = _pair(r_half, 0, small_cfg)
    assert abs(alpha_from_defects(pair0) + 0.5) < 1e-12
    pair1, _, _ = _pair(r_half, 1, small_cfg)
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
            assert (a.a0, a.a0_tilde, a.cond) == (b.a0, b.a0_tilde, b.cond)
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
    pair, n, m = _pair(r_zero, 0, small_cfg)
    om = recover_omega(pair, n, m)
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
        recover_omega(fake, 0, 0)


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
        alpha_from_defects(DefectPair(g, g, 1.0, 1.0, 1.0))


def test_recover_omega_monomial_levels(r_half, small_cfg):
    nodes = r_half.grid.nodes
    for j in (1, 2, 3):
        pair, n, m = _pair(r_half, j, small_cfg)
        om = recover_omega(pair, n, m)
        assert np.max(np.abs(om.samples - 0.5 * nodes ** (j - 1))) < 1e-7
    pair0, n, m = _pair(r_half, 0, small_cfg)
    assert np.max(np.abs(recover_omega(pair0, n, m).samples)) < 1e-12


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
    pair, n, m = _pair(r_half, 1, small_cfg)
    om = recover_omega(pair, n, m)
    pair0, _, _ = _pair(r_half, 0, small_cfg)
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
    rec = boundary_reconstruction(seq, grid, small_cfg.cmv_window, small_cfg.depth)
    assert np.max(np.abs(rec - R.samples)) < 1e-12
    back = inverse_scattering(ScatteringFunction.from_samples(rec, grid),
                              small_cfg.levels, small_cfg)
    assert np.max(np.abs(back.alphas - seq.alphas)) < 1e-10
    ratios = back.a0s[:-1] / back.a0s[1:]
    assert np.max(np.abs(back.rhos - ratios)) < 1e-6

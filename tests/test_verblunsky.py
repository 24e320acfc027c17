import numpy as np
import pytest

from conftest import README_FAMILIES
from cmvscat import (
    VerblunskySequence,
    alpha_from_defects,
    convergence_report,
    defect_pair,
    inverse_scattering,
    recover_omega,
    schur_step,
)
from cmvscat import (
    CircleGrid, LaurentSeries, RunConfig, ScatteringFunction, oracle_verblunsky,
    quadrature_space,
)
from cmvscat.config import TAIL_TOL, TOL_ALG
from cmvscat.errors import (
    CmvScatError, ConvergenceError, DomainError, InputError, ResolutionError,
)
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
    assert tail < TAIL_TOL


def test_inverse_scattering_requires_margin(grid, small_cfg):
    import cmvscat as cs

    R = cs.ScatteringFunction.from_samples(
        np.full(grid.size, 1.0 - 1e-5 + 0j), grid
    )
    with pytest.raises(DomainError):
        inverse_scattering(R, 2, small_cfg)


def test_split_invariance(r_smooth, small_cfg):
    seq = inverse_scattering(r_smooth, 3, small_cfg)
    assert split_deviation(r_smooth, seq, small_cfg) <= TOL_ALG


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
            base = converged_defect_pair(R, n, m, small_cfg)
            right, up = (converged_defect_pair(R, *split, small_cfg)
                         for split in ((n + 1, m), (n, m + 1)))
            residual = rotation_relation_residual(base, right, up, alpha_from_defects(base))
            assert residual < 1e-7


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
    pairs = {j: _pair(r_smooth, j, small_cfg) for j in range(-2, 4)}
    rep = schur_chain(pairs, seq, range(-2, 3))
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


# finding A: from section_start 8 the per-level frames of levels -24..-21
# miss R's support, decouple and certify alpha = 0, 5.0e-4 off
FINDING_A = RunConfig(grid_size=256, levels=24, section_start=8, section_cap=128)


def test_union_route_matches_the_oracle_where_per_level_decouples():
    # both routes start at R's lower reach d = 4: level j at N0 = 4 - j, the
    # union frame at 28, and both agree with the oracle
    cfg = FINDING_A
    R = from_string("random,degree=4,margin=0.2,seed=0", CircleGrid(cfg.grid_size))
    oracle = oracle_verblunsky(R, cfg.levels, 51, quadrature_space(R, cfg.oversample))
    union = union_verblunsky(R, -cfg.levels, cfg.levels, cfg)
    per_level = inverse_scattering(R, cfg.levels, cfg)
    assert union.diagnostics["N0"] == per_level.diagnostics["sections"][0]["N0"] == 28
    for seq in (union, per_level):
        assert np.max(np.abs(seq.alphas - oracle.alphas)) <= 1e-15
        assert np.max(np.abs(seq.a0s - oracle.a0s)) <= 1e-15


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
        union = union_verblunsky(R, -J, J, cfg)
        assert (union.lo, union.hi, len(union.a0s)) == (-J, J, 2 * J + 2)
        inner = slice(32 - J, 32 + J + 1)
        assert np.max(np.abs(union.alphas - per_level.alphas[inner])) <= 1e-15, J
        assert np.max(np.abs(union.a0s - per_level.a0s[32 - J:32 + J + 2])) <= 1e-15, J


@pytest.mark.parametrize("spec", ["random,degree=4,margin=0.2,seed=0",
                                  "random,degree=8,margin=0.2,seed=3", "blaschke,r=0.8"])
def test_union_window_reads_its_levels_of_the_symmetric_one(spec):
    # a level's union coefficient does not depend on the window around it:
    # windows off centre and one with lo > 0 read the [-16, 16] values, and
    # each starts at N0 = max(section_start, d - lo)
    cfg = RunConfig()
    R = from_string(spec, CircleGrid(cfg.grid_size))
    ref = union_verblunsky(R, -16, 16, cfg)
    for lo, hi in ((-5, 3), (-3, 5), (2, 10)):
        seq = union_verblunsky(R, lo, hi, cfg)
        assert (seq.lo, seq.hi, len(seq.a0s)) == (lo, hi, hi - lo + 2)
        d = seq.diagnostics["d"]
        assert seq.diagnostics["N0"] == max(cfg.section_start, d - lo)
        assert np.max(np.abs(seq.alphas - ref.alphas[lo + 16:hi + 17])) <= 1e-15, (lo, hi)
        assert np.max(np.abs(seq.a0s - ref.a0s[lo + 16:hi + 18])) <= 1e-15, (lo, hi)


def test_union_window_past_the_support():
    # levels 195..203 lie far above R's Fourier support: the frame decouples
    # there and reads alpha = 0 to rounding and a0 = 1 exactly, with no refusal
    cfg = RunConfig()
    R = from_string("blaschke,r=0.8", CircleGrid(cfg.grid_size))
    seq = union_verblunsky(R, 195, 203, cfg)
    assert np.max(np.abs(seq.alphas)) <= 1e-16
    assert np.all(seq.a0s == 1.0)


def test_union_route_at_the_window_edge():
    # R = 0.5 tbar couples g'_k with g''_{1-k} alone, so a0_j = sqrt(0.75) for
    # every j <= 0. The union frame reaches g''_65 and meets rho_j =
    # a0_j / a0_{j+1} to rounding; the per-level doubling at level -64
    # stops on two decoupled sections and reads a0 = 1.0 there
    cfg = RunConfig()
    R = from_string("monomial,gamma=0.5,k=1", CircleGrid(cfg.grid_size))
    union = union_verblunsky(R, -64, 64, cfg)
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
        union_verblunsky(r_smooth, -20, 20, cfg)


def test_union_start_covers_the_fourier_reach(r_half, monkeypatch):
    # R = 0.5 tbar has lower reach d = 1, so J = 20 starts at N0 = 21, where
    # level -20 already meets g''_21: from start 16 the doubling would read a0
    # at N = 16 and 32 and move by 1 - sqrt(0.75). Under a cap of 32 the start
    # cannot double, and the refusal comes before any factorization
    from cmvscat import verblunsky

    seq = union_verblunsky(r_half, -20, 20, RunConfig(grid_size=256, section_start=16))
    assert seq.diagnostics == {"N": 42, "d": 1, "N0": 21}
    assert np.max(np.abs(seq.a0s[:21] - RHO)) <= 1e-15

    def no_factor(*args):
        raise AssertionError("union_factor ran before the reach refusal")

    monkeypatch.setattr(verblunsky, "union_factor", no_factor)
    cfg = RunConfig(grid_size=256, section_start=16, section_cap=32)
    with pytest.raises(ConvergenceError,
                       match=r"^level -20: union frame over \[-20, 20\] needs section size "
                             r"42 > section_cap 32: R's lower Fourier reach d = 1 .* "
                             r"N0 = d - \(-20\) = 21$"):
        union_verblunsky(r_half, -20, 20, cfg)


def test_union_route_matches_the_oracle_past_the_section_start():
    # R = 0.5 tbar^100 couples level -16 only with g''_117: from section_start
    # 32 the doubling would stop at N = 64 on two decoupled frames and read
    # a0 = 1.0 at every level, 1.34e-1 off. The lower reach d = 100 starts it
    # at N0 = 116, and it agrees with the oracle at N = 256; so does the
    # per-level route, whose level j starts at 100 - j
    cfg = RunConfig()
    R = from_string("monomial,gamma=0.5,k=100", CircleGrid(cfg.grid_size))
    union = union_verblunsky(R, -16, 16, cfg)
    assert union.diagnostics == {"N": 232, "d": 100, "N0": 116}
    oracle = oracle_verblunsky(R, 16, 256, quadrature_space(R, cfg.oversample))
    assert np.max(np.abs(union.a0s - oracle.a0s)) <= 1e-15
    assert np.max(np.abs(union.alphas - oracle.alphas)) <= 1e-15
    assert np.max(np.abs(union.a0s - RHO)) <= 1e-15
    per_level = inverse_scattering(R, 16, cfg)
    assert [s["N0"] for s in per_level.diagnostics["sections"]] == list(range(116, 82, -1))
    assert np.max(np.abs(per_level.alphas - oracle.alphas)) <= 1e-15
    assert np.max(np.abs(per_level.a0s - oracle.a0s)) <= 1e-15



def test_zero_mass_starts_every_level_at_the_section_start():
    # R = 0 holds no coefficient mass, so no level couples past section_start:
    # every section starts there and stops at the first doubling, levels -64..-33
    # included, where the clamp d = 0 alone would start at N0 = -j
    cfg = RunConfig()
    R = from_string("zero", CircleGrid(cfg.grid_size))
    seq = inverse_scattering(R, 64, cfg)
    assert {(s["N0"], s["N"]) for s in seq.diagnostics["sections"]} == {(32, 64)}
    assert union_verblunsky(R, -64, 64, cfg).diagnostics["N0"] == 32


def test_mass_past_level_zero_keeps_the_reach_start():
    # R = 0.5 t^3 has no lower tail (d = 0) but mass 0.5: level -64 reads c_3
    # and still starts at N0 = -(-64) = 64, where it agrees with the oracle.
    # From section_start 8 it would stop at N = 16 on two sections that miss
    # c_3, decouple and read a0 = 1 (finding A)
    cfg = RunConfig(section_start=8)
    R = ScatteringFunction.from_coeffs(LaurentSeries(3, [0.5]), CircleGrid(cfg.grid_size))
    seq = inverse_scattering(R, 64, cfg)
    assert seq.diagnostics["d"] == 0
    assert seq.diagnostics["sections"][0]["N0"] == 64
    oracle = oracle_verblunsky(R, 64, 64, quadrature_space(R, cfg.oversample))
    assert np.max(np.abs(seq.alphas - oracle.alphas)) <= 1e-15
    assert np.max(np.abs(seq.a0s - oracle.a0s)) <= 1e-15

def _seeded_inputs(count, seed=25):
    """`count` (family string, M): monomial k <= 100, random degree <= 8, Blaschke.

    Every other Blaschke input runs at M = 256, where a sampled R cannot
    resolve the Hankel indices either route reads.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        margin = float(rng.uniform(0.2, 0.4))
        if i % 3 == 0:
            spec = f"monomial,gamma={1 - margin:.4f},k={int(rng.integers(1, 101))}"
        elif i % 3 == 1:
            spec = (f"random,degree={int(rng.integers(1, 9))},margin={margin:.4f},"
                    f"seed={int(rng.integers(0, 2**16))}")
        else:
            zs = rng.uniform(0.0, 0.5, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
            spec = f"blaschke,r={1 - margin:.4f},zeros=" + ";".join(
                f"{z.real:.4f}{z.imag:+.4f}j" for z in zs)
        out.append((spec, 256 if i % 6 == 5 else 1024))
    return out


@pytest.mark.parametrize("spec, M", _seeded_inputs(12))
def test_per_level_and_union_routes_agree(spec, M):
    # both routes size their sections by the one doubling from R's lower
    # reach, so they read the same alpha and a0 or refuse with the same error.
    # A level's per-level values do not depend on the window, so one run at
    # J = 64 serves J = 16 too unless it refused
    cfg = RunConfig(grid_size=M)
    R = from_string(spec, CircleGrid(M))

    def run(route, *args):
        try:
            return route(R, *args, cfg)
        except CmvScatError as exc:
            return type(exc)

    wide = run(inverse_scattering, 64)
    for J in (16, 64):
        union = run(union_verblunsky, -J, J)
        per_level = run(inverse_scattering, J) if isinstance(wide, type) else wide
        if isinstance(per_level, type) or isinstance(union, type):
            assert per_level == union, J
            continue
        o = -J - per_level.lo
        assert np.max(np.abs(per_level.alphas[o:o + 2 * J + 1] - union.alphas)) <= 1e-14, J
        assert np.max(np.abs(per_level.a0s[o:o + 2 * J + 2] - union.a0s)) <= 1e-14, J


def _union_doubled_from_start(R, J, cfg):
    """union_factor's readout doubled from section_start until it converges.

    The convergence test of `union_verblunsky` (alpha on -J..J, a0 on
    -J..J+1, change below section_tol) without its reach start.
    """
    from cmvscat.verblunsky import union_factor

    N = cfg.section_start
    prev = union_factor(R, -J, J, N)
    while 2 * N <= cfg.section_cap:
        N *= 2
        cur = union_factor(R, -J, J, N)
        change = max(np.max(np.abs(cur[0][:-1] - prev[0][:-1])),
                     np.max(np.abs(cur[1] - prev[1])))
        if change < cfg.section_tol:
            return cur
        prev = cur
    raise AssertionError(f"no convergence from section_start at J = {J}")


@pytest.mark.parametrize("J", [16, 64])
@pytest.mark.parametrize("spec", ["random,degree=8,margin=0.2,seed=3", "blaschke,r=0.8"])
def test_union_reach_start_matches_doubling_from_section_start(spec, J):
    # finding I at Tier-1 scale: the start J + d is a cost choice, not an
    # accuracy one. From N0 = max(section_start, J + d), d R's lower reach,
    # the doubling reads the same alpha and a0 as from section_start, within
    # 1e-15; at J = 64 it stops at N = 144 instead of 256 on the degree-8
    # input and at 128, as from section_start, on the analytic Blaschke one
    # (d = 0)
    cfg = RunConfig()
    R = from_string(spec, CircleGrid(cfg.grid_size))
    seq = union_verblunsky(R, -J, J, cfg)
    alphas, a0s = _union_doubled_from_start(R, J, cfg)
    assert seq.diagnostics["N0"] == max(cfg.section_start, J + seq.diagnostics["d"])
    assert np.max(np.abs(seq.alphas - alphas[:-1])) <= 1e-15
    assert np.max(np.abs(seq.a0s - a0s)) <= 1e-15


def test_union_route_refuses_an_index_off_the_grid():
    # a sampled R resolves [-31, 32] at M = 64; an analytic one has lower
    # reach d = 0, so J = 4 starts at N0 = section_start = 16 and reads c_{-37}
    cfg = RunConfig(grid_size=64, section_start=16, section_cap=128)
    R = from_string("blaschke,r=0.5", CircleGrid(cfg.grid_size))
    with pytest.raises(ResolutionError, match=r"\[-37, 3\] .*increase the grid size M"):
        union_verblunsky(R, -4, 4, cfg)


def test_union_factor_keeps_one_matrix():
    # the block factor holds I - C^H C (P x P) and one Fortran copy of the
    # (N-1) x P window C, never the n x n union Gram (n = P + N = 642 here)
    import tracemalloc

    from cmvscat.verblunsky import union_factor

    R = from_string("random,degree=4,margin=0.2,seed=0", CircleGrid(1024))
    J, N = 64, 256
    union_factor(R, -J, J, N)
    tracemalloc.start()
    try:
        union_factor(R, -J, J, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    P = 2 * J + 2 + N
    assert peak <= 1.25 * 16 * (P * P + N * P)


def _union_factor_full_gram(R, lo, hi, N):
    """alpha_j, a0_j of levels lo..hi+1 off the whole union Gram, the block factor's reference.

    Writes G[a, b] = <s_b, s_a> over [g''_N .. g''_2, g'_{hi+1+N} .. g'_{lo}, g''_1]
    from <g'_k, g''_l> = c_{-(k+l)} and factors all n x n of it.
    """
    ls = np.r_[np.arange(N, 1, -1), 1]
    ks = np.arange(hi + 1 + N, lo - 1, -1)
    P, n = len(ks), len(ks) + N
    carr = R.coeff_range(-(hi + 1 + 2 * N), -(lo + 1))
    cross = carr[hi + 1 + 2 * N - (ks[:, None] + ls[None, :])]  # <g'_k, g''_l>
    G = np.eye(n, dtype=complex)
    ana, anti = np.arange(N - 1, N - 1 + P), np.r_[np.arange(N - 1), n - 1]
    G[np.ix_(ana, anti)] = np.conj(cross)
    G[np.ix_(anti, ana)] = cross.T
    L = np.linalg.cholesky(G)
    ell = L[n - 1, :n - 1]
    s = np.concatenate(([0.0], np.cumsum(np.abs(ell) ** 2)))
    pos = ana[hi + 1 + N - np.arange(lo, hi + 2)]
    alphas = -ell[pos] / np.sqrt(1.0 - s[pos])
    return alphas, L[pos, pos].real * np.sqrt(1.0 - np.abs(alphas) ** 2)


# (3, 7, 1) has an empty Hankel window: g''_1 is the frame's one anti-analytic member
UNION_WINDOWS = [(-16, 16, 32), (-16, 16, 64), (-5, 3, 32), (-64, 64, 96), (-64, 64, 192),
                 (3, 7, 1)]


@pytest.mark.parametrize("spec", README_FAMILIES + ["reflected"])
def test_union_block_factor_matches_the_full_gram(spec):
    # L11 = I, L21 = C^H, L22 = chol(I - C^H C) and g''_1's row [0, l] are the
    # blocks of the full factor, so both read the same alpha_j and a0_j;
    # "reflected" is 0.8 B(tbar) for the Blaschke product B, sampled, whose
    # coefficients reach every negative index
    from cmvscat.verblunsky import union_factor

    grid = CircleGrid(1024)
    if spec == "reflected":
        B = from_string("blaschke,r=0.8", grid).samples
        R = ScatteringFunction.from_samples(np.roll(B[::-1], 1), grid)
    else:
        R = from_string(spec, grid)
    for window in UNION_WINDOWS:
        alphas, a0s = union_factor(R, *window)
        ref_alphas, ref_a0s = _union_factor_full_gram(R, *window)
        assert np.max(np.abs(alphas - ref_alphas)) <= 1e-15, window
        assert np.max(np.abs(a0s - ref_a0s)) <= 1e-15, window


def test_union_factor_refuses_a_window_of_norm_above_one(monkeypatch):
    # as for a section (`test_defect_pair_refuses_aliased_cross_block`): a
    # Hankel window of norm 1.01 leaves I - C^H C indefinite, which only
    # aliased coefficients can do under the Szego condition
    from cmvscat import verblunsky

    R = from_string("random,degree=8,margin=0.2,seed=3", CircleGrid(1024))
    monkeypatch.setattr(verblunsky, "sliding_window_view",
                        lambda carr, P: 1.01 * np.eye(len(carr) - P + 1, P, dtype=complex))
    with pytest.raises(ResolutionError, match="increase the grid size M"):
        verblunsky.union_factor(R, -4, 4, 16)


def test_union_factor_refuses_an_indefinite_last_pivot(r_half, monkeypatch):
    # R = 0.5 tbar read three times too large: the window C over g''_2.. and
    # g'_0.. holds no c_{-1} and stays 0, so I - C^H C = I factors, but g''_1's
    # row holds 3 c_{-1} = 1.5 and its pivot 1 - |l|^2 is negative
    from cmvscat.verblunsky import union_factor

    real = r_half.coeff_range
    monkeypatch.setattr(r_half, "coeff_range", lambda lo, hi: 3 * real(lo, hi))
    with pytest.raises(ResolutionError, match="last pivot .*increase the grid size M"):
        union_factor(r_half, 0, 2, 4)

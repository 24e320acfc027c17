import numpy as np
import pytest

from cmvscat import (
    CircleGrid,
    RunConfig,
    VerblunskySequence,
    analyze,
    apply,
    apply_adjoint,
    boundary_reconstruction,
    build_cmv,
    direct_scattering,
    harmonic_extension,
    inverse_scattering,
    moment_horizon,
    moment_series,
    roundtrip,
    wandering_vectors,
)
from cmvscat import scattering, verblunsky
from cmvscat.errors import ConvergenceError, DomainError, InputError, ResolutionError
from cmvscat.families import from_string
from cmvscat.scattering import minimal_window

ANCHOR = "random,degree=4,margin=0.2,seed=0"  # the README `check` example


def test_wandering_free_case_exact():
    seq = VerblunskySequence(0, np.array([0j]))
    U = build_cmv(seq, 32)
    for depth in (1, 3, 7):
        e0, d0 = wandering_vectors(U, depth)
        assert np.max(np.abs(e0 - U.basis_vector(0))) < 1e-14
        assert np.max(np.abs(d0 - U.basis_vector(1))) < 1e-14


def test_wandering_depth_zero_any_alpha():
    rng = np.random.default_rng(0)
    seq = VerblunskySequence(
        -3, 0.4 * (rng.standard_normal(7) + 1j * rng.standard_normal(7))
    )
    U = build_cmv(seq, 16)
    e0, d0 = wandering_vectors(U, 0)
    assert np.max(np.abs(e0 - U.basis_vector(0))) == 0.0
    assert np.max(np.abs(d0 - U.basis_vector(1))) == 0.0


def test_wandering_unit_norm_and_residual():
    rng = np.random.default_rng(1)
    seq = VerblunskySequence(
        -4, 0.3 * (rng.standard_normal(9) + 1j * rng.standard_normal(9))
    )
    U = build_cmv(seq, 64)
    e0, d0 = wandering_vectors(U, 8)
    assert abs(np.linalg.norm(e0) - 1.0) < 1e-10
    assert abs(np.linalg.norm(d0) - 1.0) < 1e-10


def test_wandering_increment_bounded_by_tail_product():
    rng = np.random.default_rng(2)
    moduli = 0.5 * np.sqrt(rng.uniform(0.05, 1.0, 8))
    seq = VerblunskySequence(
        -2, moduli * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 8))
    )
    U = build_cmv(seq, 64)
    for depth in (1, 2, 3):
        a, _ = wandering_vectors(U, depth)
        b, _ = wandering_vectors(U, depth + 1)
        gap2 = np.linalg.norm(a - b) ** 2
        tail = np.prod([seq.rho(j) for j in range(2 * depth, seq.hi + 1)])
        assert gap2 <= 2.0 - 2.0 * tail + 1e-12


def test_wandering_window_guard():
    seq = VerblunskySequence(0, np.array([0j]))
    U = build_cmv(seq, 8)
    with pytest.raises(DomainError):
        wandering_vectors(U, 4)


def test_direct_scattering_zero_sequence():
    seq = VerblunskySequence(-2, np.zeros(5, dtype=complex))
    zs = [0.0, 0.3, 0.5j, -0.2 + 0.4j]
    vals = direct_scattering(seq, zs, 32, 8)
    assert np.max(np.abs(vals)) < 1e-14


def test_direct_scattering_monomial_harmonic_extension(r_half, small_cfg):
    seq = inverse_scattering(r_half, small_cfg.levels, small_cfg)
    zs = [0.5, 0.25j, -0.1 + 0.2j]
    vals = direct_scattering(seq, zs)
    # extension of 0.5 tbar is 0.5 conj(z)
    expect = 0.5 * np.conj(np.array(zs))
    assert np.max(np.abs(vals - expect)) < 1e-10


def test_direct_scattering_at_zero_gives_mean_coefficient(r_smooth, small_cfg):
    seq = inverse_scattering(r_smooth, small_cfg.levels, small_cfg)
    val = direct_scattering(seq, [0.0])[0]
    assert abs(val - r_smooth.coefficient(0)) < 1e-6


def test_direct_scattering_matches_harmonic_extension(grid, small_cfg):
    # independent evaluator: the extension of R's own coefficients vs
    # the moment series of its coefficient window
    from cmvscat.families import random_trig

    R = random_trig(grid, degree=1, margin=0.3, seed=23)
    cfg = small_cfg.replace(levels=10)
    seq = inverse_scattering(R, cfg.levels, cfg)
    zs = [0.3, 0.5j, -0.4 + 0.2j, 0.7, 0.0]
    vals = direct_scattering(seq, zs)
    expect = np.array([harmonic_extension(R.coeffs, z) for z in zs])
    assert np.max(np.abs(vals - expect)) < 1e-6


def test_direct_scattering_moment_form(r_half, small_cfg):
    # d* U^k e pairs give the negative-index coefficients, shifted by one
    seq = inverse_scattering(r_half, small_cfg.levels, small_cfg)
    W, depth = minimal_window(seq)
    U = build_cmv(seq, W, "zero-tail")
    e0, d0 = wandering_vectors(U, depth)
    d = apply(U, d0)
    vec = e0.copy()
    for k in range(0, 4):
        got = np.vdot(d, vec)  # <U^k e0, d_{-1}> = c_{-k}
        assert abs(got - r_half.coefficient(-k)) < 1e-9
        vec = apply(U, vec)


def test_direct_scattering_conjugate_symmetry(small_cfg):
    # real coefficients give conjugate-symmetric reconstructions
    rng = np.random.default_rng(5)
    seq = VerblunskySequence(-2, 0.3 * rng.standard_normal(5) + 0j)
    zs = np.array([0.4 + 0.3j, 0.4 - 0.3j, 0.2, -0.5j, 0.5j])
    vals = direct_scattering(seq, zs)
    assert abs(vals[0] - np.conj(vals[1])) < 1e-9
    assert abs(vals[3] - np.conj(vals[4])) < 1e-9
    assert abs(vals[2].imag) < 1e-9


def test_direct_scattering_refuses_bad_points():
    rng = np.random.default_rng(9)
    seq = VerblunskySequence(-3, 0.3 * (rng.standard_normal(7) + 0j))
    assert np.all(np.isfinite(direct_scattering(seq, [1.0 - 1e-6, -0.5j])))
    with pytest.raises(DomainError):
        direct_scattering(seq, [0.1, 1.0 - 1e-7])
    with pytest.raises(InputError):
        direct_scattering(seq, [0.1, complex("nan")])


@pytest.fixture(scope="module")
def defaults_inputs():
    # coefficients over [-32, 32] at the defaults; a level's coefficient does
    # not depend on J, so every window inside is a cut of this one
    cfg = RunConfig()
    grid = CircleGrid(cfg.grid_size)
    out = {}
    for family in (ANCHOR, "blaschke,r=0.8"):
        R = from_string(family, grid)
        out[family] = (R, inverse_scattering(R, 32, cfg))
    return out


def _cut(seq, lo, hi):
    return VerblunskySequence(lo, seq.alphas[lo - seq.lo: hi - seq.lo + 1])


@pytest.mark.parametrize("family", [ANCHOR, "blaschke,r=0.8"])
@pytest.mark.parametrize("J", [16, 32])
def test_moment_series_is_fourier_truncation(defaults_inputs, family, J):
    # below the horizon the moments are the Fourier coefficients of R
    R, seq = defaults_inputs[family]
    series = moment_series(_cut(seq, -J, J), 8 * J, 2 * J)
    assert series.lo == 1 - J and series.hi == J - 1
    exact = analyze(R.samples, R.grid)
    ref = exact.coeffs[series.lo - exact.lo: series.hi - exact.lo + 1]
    assert np.max(np.abs(series.coeffs - ref)) <= 1e-14


def _first_inexact(R, seq, W, depth, count=61):
    # first k where <U*^k e0, d> or <U^k e0, d> leaves R_k or R_{-k} by 1e-12
    U = build_cmv(seq, W, "zero-tail")
    e0, d0 = wandering_vectors(U, depth)
    d = apply(U, d0)
    star = plain = e0
    first = [None, None]
    for k in range(count):
        for side, (vec, j) in enumerate(((star, k), (plain, -k))):
            if first[side] is None and abs(np.vdot(d, vec) - R.coefficient(j)) > 1e-12:
                first[side] = k
        star, plain = apply_adjoint(U, star), apply(U, plain)
    return [count if f is None else f for f in first]


@pytest.mark.parametrize("lo, hi, W, depth", [
    (-16, 16, 128, 32), (-16, 16, 18, 8), (-16, 16, 16, 4), (-16, 16, 14, 6),
    (-16, 16, 12, 5), (-16, 16, 10, 4), (-16, 16, 8, 3), (-16, 16, 6, 2),
    (-16, 16, 12, 1), (-8, 16, 128, 32), (-16, 8, 128, 32), (0, 16, 128, 32),
    # alpha_j = 0 for j >= 4 here, so [lo, 3] cuts no nonzero positive level
    (-16, 3, 10, 2), (-16, 3, 8, 2), (-16, 3, 7, 2), (-16, 3, 8, 1), (-6, 3, 40, 2),
])
def test_moment_horizon_never_includes_an_inexact_moment(defaults_inputs, lo, hi, W,
                                                         depth):
    R, seq = defaults_inputs[ANCHOR]
    cut = _cut(seq, lo, hi)
    K = moment_horizon(cut, W, depth)
    first_a, first_b = _first_inexact(R, cut, W, depth)
    assert K <= min(first_a, first_b)
    if K >= 1:  # and nothing is left out: a_K is already off
        assert K == first_a


@pytest.mark.parametrize("J, W, depth", [(16, 128, 32), (64, 512, 128), (4, 48, 8),
                                         (6, 64, 16)])
def test_moment_horizon_is_J_at_the_shipped_rungs(J, W, depth):
    # pairs above `minimal_window` keep K = J: the deep workload's explicit
    # `direct --window 512 --depth 128`, the CLI tests' direct flags, and
    # two more at J = 16 and J = 6
    seq = VerblunskySequence(-J, np.zeros(2 * J + 1, dtype=complex))
    assert moment_horizon(seq, W, depth) == J


def test_moment_horizon_edges():
    seq = VerblunskySequence(-16, np.zeros(33, dtype=complex))
    assert moment_horizon(seq, 20, 9) == 0        # W = 20 < 2 * 16 + 2
    assert moment_horizon(seq, 34, 9) == 16
    assert moment_horizon(seq, 128, 8) == 0       # 2 * depth = hi
    assert moment_horizon(VerblunskySequence(-40, np.zeros(47)), 14, 4) == 15  # W + 1
    assert moment_horizon(_cut(seq, 0, 4), 128, 32) == 0
    assert moment_horizon(_cut(seq, 3, 4), 128, 32) == 0
    with pytest.raises(InputError, match=r"\[0, 4\] fixes K = 0"):
        moment_series(_cut(seq, 0, 4), 128, 32)


@pytest.mark.parametrize("lo, hi, minimal", [(-16, 16, (34, 9)), (-64, 64, (130, 33)),
                                             (-80, 2, (79, 2)), (-2, 0, (4, 1))])
def test_minimal_window_is_tight(lo, hi, minimal):
    # the derived pair fixes all K = -lo moment pairs, and one less of either
    # is refused with the minimum named: (-2, 0) is held by the wandering
    # pair (2 depth + 2 <= W), (-80, 2) by W + 1 >= -lo, the others by
    # W >= 2 hi + 2 and 2 depth > hi
    seq = VerblunskySequence(lo, 0.1 * np.cos(np.arange(hi - lo + 1)) + 0.05j)
    W, depth = minimal_window(seq)
    assert (W, depth) == minimal
    assert moment_horizon(seq, W, depth) == -lo
    series = moment_series(seq)
    assert (series.lo, series.hi) == (1 + lo, -1 - lo)
    assert np.array_equal(series.coeffs, moment_series(seq, W, depth).coeffs)
    for fewer in ((W - 1, depth), (W, depth - 1)):
        with pytest.raises(InputError, match=f"is window {W} and depth {depth}$"):
            moment_series(seq, *fewer)


def test_direct_scattering_is_harmonic_extension_of_R(defaults_inputs):
    # rings and points take the extension of S_{J-1}R, which is R here
    R, seq = defaults_inputs[ANCHOR]
    ring = 0.99 * CircleGrid(64).nodes
    vals = direct_scattering(_cut(seq, -16, 16), ring, 128, 32)
    assert np.max(np.abs(vals - harmonic_extension(R.coeffs, ring))) <= 1e-13


def test_boundary_reconstruction_refuses_a_series_wider_than_the_grid(defaults_inputs):
    _, seq = defaults_inputs[ANCHOR]
    with pytest.raises(ResolutionError):
        boundary_reconstruction(_cut(seq, -16, 16), CircleGrid(16), 128, 32)


def test_boundary_reconstruction_zero(r_zero, small_cfg):
    seq = inverse_scattering(r_zero, 4, small_cfg)
    rec = boundary_reconstruction(seq, r_zero.grid)
    assert np.max(np.abs(rec)) < 1e-12


def test_roundtrip_monomial(r_half, small_cfg):
    rep = roundtrip(r_half, small_cfg)
    assert rep["sup_error"] <= 1e-3


def test_roundtrip_smooth_with_ladder(grid, small_cfg):
    # rung J reconstructs S_{J-1}R: sup error <= sum_{|k|>=J} |R_k| + M eps.
    # J doubles from cfg.levels while that tail misses tol_roundtrip, so
    # every rung but the top one misses it and the top one meets it. The
    # degree-1 input comes back to rounding at J = 2; the Blaschke product's
    # rung errors are its Fourier tails (2.0e-1, 1.8e-2, then 1.4e-4)
    for spec, J0, levels in (("random,degree=1,margin=0.3,seed=3", 1, [1, 2]),
                             ("blaschke,r=0.5,zeros=0.3", 2, [2, 4, 8]),
                             ("random,degree=6,margin=0.25,seed=7", 6, [6, 12])):
        R = from_string(spec, grid)
        cfg = small_cfg.replace(levels=J0)
        rep = roundtrip(R, cfg)
        rungs = rep["rungs"]
        assert [r["levels"] for r in rungs] == levels, spec
        assert rep["levels"] == levels[-1]
        assert (rep["sup_error"], rep["l2_error"]) == (rungs[-1]["sup_error"],
                                                      rungs[-1]["l2_error"])
        assert rep["sup_error"] <= cfg.tol_roundtrip, spec
        assert all(r["fourier_tail"] >= cfg.tol_roundtrip for r in rungs[:-1]), spec
        assert rungs[-1]["fourier_tail"] < cfg.tol_roundtrip, spec
        for r, nxt in zip(rungs, rungs[1:]):
            assert nxt["sup_error"] <= 1.1 * r["sup_error"], spec


def test_ladder_rungs_within_their_fourier_tail(r_smooth, small_cfg):
    # the check_roundtrip bound, rung by rung: sup error <= sum_{|k|>=J} |R_k| + M eps,
    # with the tail each rung records equal to the one of the analyzed samples
    c = analyze(r_smooth.samples, r_smooth.grid)
    mag, far = np.abs(c.coeffs), np.abs(c.indices())
    eps = r_smooth.grid.size * np.finfo(float).eps
    rungs = roundtrip(r_smooth, small_cfg.replace(levels=3))["rungs"]
    assert [r["levels"] for r in rungs] == [3, 6, 12]
    for r in rungs:
        tail = float(np.sum(mag[far >= r["levels"]]))
        assert abs(r["fourier_tail"] - tail) <= eps
        assert r["sup_error"] <= tail + eps


def test_ladder_configs_start_at_the_rung_window(r_smooth, small_cfg, monkeypatch):
    # every rung's union frame starts at N0 = max(section_start, J + d), with
    # d = 6 the reach of the degree-6 input, and doubles from there; the
    # rungs share cfg otherwise
    frames = []
    original = verblunsky.union_factor
    monkeypatch.setattr(verblunsky, "union_factor",
                        lambda R, J, N: frames.append((J, N)) or original(R, J, N))
    roundtrip(r_smooth, small_cfg.replace(levels=3))
    starts = {}
    for J, N in frames:
        starts.setdefault(J, N)
    assert starts == {12: 18, 6: 16, 3: 16}
    assert all(N in (starts[J], 2 * starts[J], 4 * starts[J]) for J, N in frames)


def test_roundtrip_error_tracks_level_window(r_smooth, small_cfg):
    # a degree-6 input at a level window of 6 is dominated by the
    # discarded negative-level coefficients; doubling must shrink it
    rep = roundtrip(r_smooth, small_cfg)
    sups = [r["sup_error"] for r in rep["rungs"]]
    assert len(sups) == 2
    assert sups[1] <= 0.5 * sups[0]


def test_roundtrip_skips_split_recomputation(r_half, small_cfg, monkeypatch):
    # only boundary errors are reported, so no rung re-solves shifted splits;
    # one union-frame inverse per rung, top rung first, and no per-level one.
    # R = 0.5 tbar has tail 0.5 at J = 1 and 0 at J = 2
    rungs, splits = [], []
    original = scattering.union_verblunsky

    def recording(R, J, cfg):
        rungs.append(J)
        return original(R, J, cfg)

    def per_level(*args):
        raise AssertionError("roundtrip ran the per-level route")

    monkeypatch.setattr(scattering, "union_verblunsky", recording)
    monkeypatch.setattr(verblunsky, "inverse_scattering", per_level)
    monkeypatch.setattr(verblunsky, "converged_defect_pair", per_level)
    monkeypatch.setattr(verblunsky, "split_deviation",
                        lambda *args: splits.append(args))
    roundtrip(r_half, small_cfg.replace(levels=1))
    assert rungs == [2, 1]
    assert splits == []


def test_roundtrip_ladder_limited_by_section_cap(grid, small_cfg, monkeypatch):
    # R = 0.5 tbar^100 at M = 256: the tail stays 0.5 up to J = 100, so J
    # doubles 6 .. 96 and stops at M/2 + 1 = 129, where it is 0. That top
    # rung's reach start J + d = 229 cannot double within section_cap 128,
    # and it is refused first, before any union frame is factored
    R = from_string("monomial,gamma=0.5,k=100", grid)

    def no_factor(*args):
        raise AssertionError("a union frame was factored before the refusal")

    monkeypatch.setattr(verblunsky, "union_factor", no_factor)
    with pytest.raises(ConvergenceError,
                       match=r"^roundtrip rung J = 129 \(Fourier tail 0\.000e\+00\): union "
                             r"frame over \[-129, 129\] needs section size 458 > section_cap "
                             r"128: R's Fourier reach d = 100"):
        roundtrip(R, small_cfg)


def test_roundtrip_ladder_below_cap_meets_the_section_certificate(r_smooth, small_cfg,
                                                                 monkeypatch):
    # a section tolerance below rounding cannot be met: the top rung (J = 12)
    # doubles from N0 = 18 to the cap and refuses, naming J, its tail and the
    # level; the rungs run top-down, so no rung is reconstructed before it
    built = []
    monkeypatch.setattr(scattering, "boundary_reconstruction",
                        lambda *args: built.append(args))
    with pytest.raises(ConvergenceError,
                       match=r"^roundtrip rung J = 12 \(Fourier tail 0\.000e\+00\): "
                             r"level -?\d+: union frame over \[-12, 12\] did not converge "
                             r"by section size 128"):
        roundtrip(r_smooth, small_cfg.replace(section_tol=1e-30))
    assert built == []

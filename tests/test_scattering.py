import numpy as np
import pytest

from cmvscat import (
    VerblunskySequence,
    apply,
    asymptotics_check,
    boundary_reconstruction,
    build_cmv,
    direct_scattering,
    inverse_scattering,
    resolvent_solve,
    roundtrip,
    wandering_vectors,
)
from cmvscat import cmv, scattering
from cmvscat.errors import DomainError, InputError, SolverError


def test_wandering_free_case_exact():
    seq = VerblunskySequence(0, np.array([0j]))
    U = build_cmv(seq, 32)
    for depth in (1, 3, 7):
        wa = wandering_vectors(U, depth)
        assert np.max(np.abs(wa.e0 - U.basis_vector(0))) < 1e-14
        assert np.max(np.abs(wa.d0 - U.basis_vector(1))) < 1e-14


def test_wandering_depth_zero_any_alpha():
    rng = np.random.default_rng(0)
    seq = VerblunskySequence(
        -3, 0.4 * (rng.standard_normal(7) + 1j * rng.standard_normal(7))
    )
    U = build_cmv(seq, 16)
    wa = wandering_vectors(U, 0)
    assert np.max(np.abs(wa.e0 - U.basis_vector(0))) == 0.0
    assert np.max(np.abs(wa.d0 - U.basis_vector(1))) == 0.0


def test_wandering_unit_norm_and_residual():
    rng = np.random.default_rng(1)
    seq = VerblunskySequence(
        -4, 0.3 * (rng.standard_normal(9) + 1j * rng.standard_normal(9))
    )
    U = build_cmv(seq, 64)
    wa = wandering_vectors(U, 8)
    assert abs(np.linalg.norm(wa.e0) - 1.0) < 1e-10
    assert abs(np.linalg.norm(wa.d0) - 1.0) < 1e-10
    assert wa.residual >= 0.0


def test_wandering_increment_bounded_by_tail_product():
    rng = np.random.default_rng(2)
    moduli = 0.5 * np.sqrt(rng.uniform(0.05, 1.0, 8))
    seq = VerblunskySequence(
        -2, moduli * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 8))
    )
    U = build_cmv(seq, 64)
    for depth in (1, 2, 3):
        a = wandering_vectors(U, depth)
        b = wandering_vectors(U, depth + 1)
        gap2 = np.linalg.norm(a.e0 - b.e0) ** 2
        tail = np.prod([seq.rho(j) for j in range(2 * depth, seq.hi + 1)])
        assert gap2 <= 2.0 - 2.0 * tail + 1e-12


def test_wandering_window_guard():
    seq = VerblunskySequence(0, np.array([0j]))
    U = build_cmv(seq, 8)
    with pytest.raises(DomainError):
        wandering_vectors(U, 4)


def test_direct_scattering_zero_sequence():
    seq = VerblunskySequence(0, np.array([0j]))
    zs = [0.0, 0.3, 0.5j, -0.2 + 0.4j]
    vals = direct_scattering(seq, zs, 32, 8)
    assert np.max(np.abs(vals)) < 1e-14


def test_direct_scattering_monomial_harmonic_extension(r_half, small_cfg):
    seq = inverse_scattering(r_half, small_cfg.levels, small_cfg)
    zs = [0.5, 0.25j, -0.1 + 0.2j]
    vals = direct_scattering(seq, zs, small_cfg.cmv_window, small_cfg.depth)
    # extension of 0.5 tbar is 0.5 conj(z)
    expect = 0.5 * np.conj(np.array(zs))
    assert np.max(np.abs(vals - expect)) < 1e-10


def test_direct_scattering_at_zero_gives_mean_coefficient(r_smooth, small_cfg):
    seq = inverse_scattering(r_smooth, small_cfg.levels, small_cfg)
    val = direct_scattering(seq, [0.0], small_cfg.cmv_window, small_cfg.depth)[0]
    assert abs(val - r_smooth.coefficient(0)) < 1e-6


def test_direct_scattering_matches_harmonic_extension(grid, small_cfg):
    # independent evaluator: coefficient-series extension vs the
    # resolvent bilinear form, away from the window-truncation regime
    from cmvscat import harmonic_extension
    from cmvscat.families import random_trig

    R = random_trig(grid, degree=1, margin=0.3, seed=23)
    cfg = small_cfg.replace(levels=10, depth=12)
    seq = inverse_scattering(R, cfg.levels, cfg)
    zs = [0.3, 0.5j, -0.4 + 0.2j, 0.7, 0.0]
    vals = direct_scattering(seq, zs, cfg.cmv_window, cfg.depth)
    expect = np.array([harmonic_extension(R.coeffs, z) for z in zs])
    assert np.max(np.abs(vals - expect)) < 1e-6


def test_direct_scattering_moment_form(r_half, small_cfg):
    # d* U^k e pairs give the negative-index coefficients, shifted by one
    seq = inverse_scattering(r_half, small_cfg.levels, small_cfg)
    U = build_cmv(seq, small_cfg.cmv_window, "zero-tail")
    wa = wandering_vectors(U, small_cfg.depth)
    d = apply(U, wa.d0)
    vec = wa.e0.copy()
    for k in range(0, 4):
        got = np.vdot(d, vec)  # <U^k e0, d_{-1}> = c_{-k}
        assert abs(got - r_half.coefficient(-k)) < 1e-9
        vec = apply(U, vec)


def test_direct_scattering_conjugate_symmetry(small_cfg):
    # real coefficients give conjugate-symmetric reconstructions
    rng = np.random.default_rng(5)
    seq = VerblunskySequence(-2, 0.3 * rng.standard_normal(5) + 0j)
    zs = np.array([0.4 + 0.3j, 0.4 - 0.3j, 0.2, -0.5j, 0.5j])
    vals = direct_scattering(seq, zs, small_cfg.cmv_window, small_cfg.depth)
    assert abs(vals[0] - np.conj(vals[1])) < 1e-9
    assert abs(vals[3] - np.conj(vals[4])) < 1e-9
    assert abs(vals[2].imag) < 1e-9


def _two_solve_form(seq, zs, W, depth, boundary="zero-tail"):
    # independent route: two banded LU solves per point
    U = build_cmv(seq, W, boundary)
    wa = wandering_vectors(U, depth)
    d = apply(U, wa.d0)
    return np.array([
        np.vdot(d, resolvent_solve(U, z, wa.e0, "star")
                + resolvent_solve(U, z, wa.e0, "plain") - wa.e0)
        for z in zs
    ])


@pytest.fixture
def no_solves(monkeypatch):
    # fail if direct_scattering takes the per-point LU route
    def refuse(*args, **kwargs):
        raise AssertionError("resolvent_solve called")

    monkeypatch.setattr(cmv, "resolvent_solve", refuse)


def test_direct_scattering_matches_resolvent_solves(r_smooth, small_cfg, monkeypatch,
                                                    no_solves):
    # force the moment sweep however few the points
    monkeypatch.setattr(scattering, "MOMENTS_PER_POINT", 10**12)
    seq = inverse_scattering(r_smooth, small_cfg.levels, small_cfg)
    W, depth = small_cfg.cmv_window, small_cfg.depth
    zs = [0.0, 0.5j, 0.9 * np.exp(1j), 0.999, -0.9999]
    vals = direct_scattering(seq, zs, W, depth)
    assert np.max(np.abs(vals - _two_solve_form(seq, zs, W, depth))) <= 1e-12
    zs = [0.0, 0.5j, 0.9 * np.exp(1j), -0.9, 0.3 - 0.6j]
    vals = direct_scattering(seq, zs, W, depth, "decoupled")
    ref = _two_solve_form(seq, zs, W, depth, "decoupled")
    assert np.max(np.abs(vals - ref)) <= 1e-12


def test_boundary_reconstruction_matches_resolvent_solves(no_solves):
    from cmvscat import CircleGrid, RunConfig
    from cmvscat.families import from_string
    from cmvscat.scattering import RICHARDSON_EPS

    cfg = RunConfig(check_splits=False)
    grid = CircleGrid(cfg.grid_size)
    R = from_string("random,degree=4,margin=0.2,seed=0", grid)
    seq = inverse_scattering(R, cfg.levels, cfg)
    W, depth = cfg.cmv_window, cfg.depth
    rec = boundary_reconstruction(seq, grid, W, depth)
    e1, e2 = RICHARDSON_EPS
    ring1 = _two_solve_form(seq, (1.0 - e1) * grid.nodes, W, depth)
    ring2 = _two_solve_form(seq, (1.0 - e2) * grid.nodes, W, depth)
    assert np.max(np.abs(rec - (2.0 * ring2 - ring1))) <= 1e-12


def test_direct_scattering_near_circle_uses_solves(small_cfg):
    # the decoupled window is exactly unitary, so the moments never decay
    # and a certified sweep near the circle would outcost the LU solves
    rng = np.random.default_rng(9)
    seq = VerblunskySequence(-3, 0.3 * (rng.standard_normal(7) + 0j))
    W, depth = small_cfg.cmv_window, small_cfg.depth
    for z in (0.999, 1.0 - 1e-6):
        vals = direct_scattering(seq, [z, -0.5j], W, depth, "decoupled")
        ref = _two_solve_form(seq, [z, -0.5j], W, depth, "decoupled")
        assert np.max(np.abs(vals - ref)) <= 1e-12
    with pytest.raises(DomainError):
        direct_scattering(seq, [0.1, 1.0 - 1e-7], W, depth)
    with pytest.raises(InputError):
        direct_scattering(seq, [0.1, complex("nan")], W, depth)


def test_moment_sweep_refuses_uncertified_tail():
    # a unitary window needs about 9,000 moments at r = 0.999; 100 is too few
    rng = np.random.default_rng(9)
    seq = VerblunskySequence(-3, 0.3 * (rng.standard_normal(7) + 0j))
    U = build_cmv(seq, 8, "decoupled")
    wa = wandering_vectors(U, 2)
    d = apply(U, wa.d0)
    with pytest.raises(SolverError):
        scattering._moments(U, wa.e0, d, 0.999, 100)
    count = scattering._moment_count(wa.e0, d, 0.999)
    a, _ = scattering._moments(U, wa.e0, d, 0.999, count)
    assert len(a) <= count


def test_boundary_reconstruction_zero(r_zero, small_cfg):
    seq = inverse_scattering(r_zero, 4, small_cfg)
    rec = boundary_reconstruction(
        seq, r_zero.grid, small_cfg.cmv_window, small_cfg.depth
    )
    assert np.max(np.abs(rec)) < 1e-12


def test_roundtrip_monomial(r_half, small_cfg):
    rep = roundtrip(r_half, small_cfg)
    assert rep["sup_error"] <= 1e-3


def test_roundtrip_smooth_with_ladder(grid, small_cfg):
    # low degree keeps the level-window truncation below the roundtrip
    # tolerance at the scaled-down test parameters
    from cmvscat.families import random_trig

    R = random_trig(grid, degree=1, margin=0.3, seed=3)
    cfg = small_cfg.replace(levels=8, depth=12)
    rep = roundtrip(R, cfg, ladder=1)
    sups = [r["sup_error"] for r in rep["rungs"]]
    assert sups[0] <= cfg.tol_roundtrip
    assert sups[1] <= 1.1 * sups[0]


def test_roundtrip_error_tracks_level_window(r_smooth, small_cfg):
    # a degree-6 input at a level window of 6 is dominated by the
    # discarded negative-level coefficients; doubling must shrink it
    rep = roundtrip(r_smooth, small_cfg, ladder=1)
    sups = [r["sup_error"] for r in rep["rungs"]]
    assert sups[1] <= 0.5 * sups[0]


def test_roundtrip_skips_split_recomputation(r_half, small_cfg, monkeypatch):
    # only boundary errors are reported, so no rung re-solves shifted splits
    seen = []
    original = scattering.inverse_scattering

    def recording(R, J, cfg):
        seen.append(cfg.check_splits)
        return original(R, J, cfg)

    monkeypatch.setattr(scattering, "inverse_scattering", recording)
    roundtrip(r_half, small_cfg.replace(check_splits=True), ladder=1)
    assert seen == [False, False]


def test_roundtrip_ladder_limited_by_section_cap(r_half, small_cfg):
    # start 16, cap 128: rung 2 starts at 64 and doubles to 128, rung 3 cannot
    assert len(roundtrip(r_half, small_cfg.replace(levels=2), ladder=2)["rungs"]) == 3
    with pytest.raises(InputError, match="section_cap"):
        roundtrip(r_half, small_cfg, ladder=3)


def test_asymptotics_zero(r_zero, small_cfg):
    rep = asymptotics_check(r_zero, 0, [0, 1, 2], small_cfg)
    assert rep["max_identity_dev"] < 1e-12
    assert all(abs(r["distance_sq"]) < 1e-12 for r in rep["rows"])


def test_asymptotics_monomial_values(r_half, small_cfg):
    rep = asymptotics_check(r_half, 0, [0, 1, 2], small_cfg)
    # level 0: 2 - 2 sqrt(0.75); levels >= 1 vanish
    assert abs(rep["rows"][0]["distance_sq"] - (2.0 - np.sqrt(3.0))) < 1e-10
    assert abs(rep["rows"][1]["distance_sq"]) < 1e-10
    assert abs(rep["rows"][2]["distance_sq"]) < 1e-10
    assert rep["max_identity_dev"] <= 1e-10
    assert rep["monotone_decay"]


def test_asymptotics_identity_smooth(r_smooth, small_cfg):
    rep = asymptotics_check(r_smooth, 1, [0, 1, 2, 4], small_cfg)
    assert rep["max_identity_dev"] <= 1e-10
    assert rep["monotone_decay"]

"""The invariant suite shares one section memo, keyed by level, between its checks."""

import gc
import weakref

import numpy as np
import pytest

from cmvscat import CircleGrid, checks, lrspace, oracle, spectral, verblunsky
from cmvscat.checks import run_full_suite
from cmvscat.config import RunConfig
from cmvscat.families import from_string, random_trig
from cmvscat.lrspace import converged_defect_pair
from cmvscat.verblunsky import alpha_from_defects, inverse_scattering

ANCHOR = "random,degree=4,margin=0.2,seed=0"  # the README `check` example


@pytest.fixture
def solved(monkeypatch):
    """Sections (level, N) in the order they reach defect_pair."""
    keys = []
    original = lrspace.defect_pair

    def counting(R, n, m, N):
        keys.append((n + m, N))
        return original(R, n, m, N)

    monkeypatch.setattr(lrspace, "defect_pair", counting)
    return keys


@pytest.fixture
def unions(monkeypatch):
    """Union frames (J, N) in the order they reach union_factor."""
    keys = []
    original = verblunsky.union_factor

    def counting(R, J, N):
        keys.append((J, N))
        return original(R, J, N)

    monkeypatch.setattr(verblunsky, "union_factor", counting)
    return keys


def test_suite_solves_each_section_once(r_smooth, small_cfg, solved, unions):
    # each level's section reaches defect_pair once, whatever split asks for it;
    # the union frames go first, top roundtrip rung first, then the per-level
    # pass starts at the bottom level of cfg.levels' window, the only one it
    # solves. The degree-6 input's Fourier tail at J = 6 misses tol_roundtrip,
    # so the rungs are J = 6 and 12; the top one starts at J + d = 18
    J = small_cfg.levels
    assert r_smooth.fourier_tail(J) >= small_cfg.tol_roundtrip > r_smooth.fourier_tail(2 * J)
    results = run_full_suite(r_smooth, small_cfg)
    assert unions[0] == (2 * J, 2 * J + 6)
    assert len(unions) == len(set(unions))
    assert {J for J, _ in unions} == {small_cfg.levels, 2 * small_cfg.levels}
    assert solved[0] == (-small_cfg.levels, small_cfg.section_start)
    assert {level for level, _ in solved} <= set(range(-small_cfg.levels,
                                                       small_cfg.levels + 2))
    assert {r.name for r in results} >= {"rotation_relation", "roundtrip_sup_error",
                                          "oracle_alpha_agreement"}
    assert len(solved) > 0
    assert len(solved) == len(set(solved))


@pytest.mark.parametrize("heavy", [True, False])
def test_suite_solves_before_it_reads(r_smooth, small_cfg, solved, unions, monkeypatch,
                                     heavy):
    # every section is solved and every union frame factored in the up-front
    # pass; the checks only read the memo
    at_first_check = []
    original = checks.check_gram_structure

    def marking(*args, **kwargs):
        at_first_check.append((len(solved), len(unions)))
        return original(*args, **kwargs)

    monkeypatch.setattr(checks, "check_gram_structure", marking)
    run_full_suite(r_smooth, small_cfg, heavy=heavy)
    assert at_first_check == [(len(solved), len(unions))]
    assert len(solved) > 0 and len(unions) > 0


@pytest.fixture
def alpha_reads(monkeypatch):
    """Sections (level, N) whose <K, Ktilde> alpha_from_defects computes."""
    keys = []
    original = verblunsky.inner_product

    def counting(u, v):
        keys.append((u.frame.n + u.frame.m, u.frame.N))
        return original(u, v)

    monkeypatch.setattr(verblunsky, "inner_product", counting)
    return keys


def test_suite_reads_each_alpha_once(r_smooth, small_cfg, alpha_reads):
    # every split of a solved level shares one alpha, whichever check asks
    run_full_suite(r_smooth, small_cfg)
    assert len(alpha_reads) > 2 * small_cfg.levels
    assert len(alpha_reads) == len({level for level, _ in alpha_reads})


def test_anchor_suite_solve_count(solved, unions, monkeypatch):
    # the deterministic work of the anchor suite at the defaults: sections
    # solved, union frames factored, inner products taken and oracle CGS2
    # projections (one per generator of the oracle's union frame, 2J + 2 + 2N
    # at J = 16, N = 32); a re-solve or a re-read moves a count. The per-level
    # sections cover cfg.levels' window only (68 of them, none past N = 64); the
    # anchor's Fourier tail at J = 16 is 0 (degree 4), so the roundtrip has one
    # rung, read off the union frames at N = 32 and 64, N0 = max(32, 16 + 4)
    inner, projections = [], []
    for mod in (lrspace, checks, verblunsky):
        def counting(u, v, original=mod.inner_product):
            inner.append(1)
            return original(u, v)

        monkeypatch.setattr(mod, "inner_product", counting)
    original = oracle._project_out
    monkeypatch.setattr(oracle, "_project_out",
                        lambda *a: projections.append(1) or original(*a))
    cfg = RunConfig()
    run_full_suite(from_string(ANCHOR, CircleGrid(cfg.grid_size)), cfg)
    assert len(solved) == len(set(solved)) == 68
    assert max(N for _, N in solved) == 64
    assert unions == [(16, 32), (16, 64)]
    assert (len(inner), len(projections)) == (55, 98)


def test_memo_released_after_return(r_smooth, small_cfg, solved):
    run_full_suite(r_smooth, small_cfg, heavy=False)
    del solved[:]
    converged_defect_pair(r_smooth, 0, 0, small_cfg)
    converged_defect_pair(r_smooth, 0, 0, small_cfg)
    assert len(solved) > 0
    assert len(solved) == 2 * len(set(solved))


def test_memo_released_after_raise(r_smooth, small_cfg, solved, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("check failed")

    monkeypatch.setattr(checks, "check_cmv", fail)
    with pytest.raises(RuntimeError):
        run_full_suite(r_smooth, small_cfg, heavy=False)
    del solved[:]
    converged_defect_pair(r_smooth, 0, 0, small_cfg)
    converged_defect_pair(r_smooth, 0, 0, small_cfg)
    assert len(solved) > 0
    assert len(solved) == 2 * len(set(solved))


def test_shifted_split_served_from_the_level_memo(r_smooth, solved):
    # a second split of a solved level is the cached pair moved by t^p,
    # bit for bit what a fresh solve at that split returns
    n, m, N = 1, 2, 32
    with lrspace.section_memo():
        alpha = alpha_from_defects(lrspace.section_pair(r_smooth, n, m, N))
        moved = lrspace.section_pair(r_smooth, n + 1, m - 1, N)
    assert solved == [(n + m, N)]
    fresh = lrspace.defect_pair(r_smooth, n + 1, m - 1, N)
    assert moved.frame == fresh.frame == lrspace.GeneratorFrame(n + 1, m - 1, N)
    assert moved.Ktilde.frame == fresh.frame
    assert np.array_equal(moved.K.coords(), fresh.K.coords())
    assert np.array_equal(moved.Ktilde.coords(), fresh.Ktilde.coords())
    assert (moved.a0, moved.a0_tilde) == (fresh.a0, fresh.a0_tilde)
    # its alpha is the one read off the solved split, bit for bit a fresh one
    assert moved.shared["alpha"] is alpha
    assert alpha_from_defects(moved) == alpha_from_defects(fresh)


def test_suite_values_match_checks_run_alone(r_smooth, small_cfg):
    cfg = small_cfg
    suite = run_full_suite(r_smooth, cfg)
    R = r_smooth
    seq = inverse_scattering(R, cfg.levels, cfg)
    alone = (
        checks.check_gram_structure(R, cfg)
        + checks.check_verblunsky(R, seq, cfg)
        + checks.check_union(R, seq, cfg)
        + checks.check_rotation(R, cfg)
        + checks.check_schur(R, seq, cfg)
        + checks.check_cmv(R, seq, cfg)
        + checks.check_spectral(R, cfg)
        + checks.check_roundtrip(R, cfg)
        + checks.check_oracle(R, seq, cfg)
    )
    assert suite[0].name == "szego_condition"
    assert [r.as_dict() for r in suite[1:]] == [r.as_dict() for r in alone]


def test_suite_leaves_no_cycle_through_input(small_cfg):
    # the memo holds R only through its pairs, and drops them on exit, so
    # R is freed by reference counting alone
    R = random_trig(CircleGrid(small_cfg.grid_size), degree=3, margin=0.3, seed=4)
    ref = weakref.ref(R)
    gc.disable()
    try:
        run_full_suite(R, small_cfg, heavy=False)
        del R
        assert ref() is None
    finally:
        gc.enable()


def test_oracle_compares_within_a_narrow_window(r_smooth, small_cfg):
    # the oracle reads the levels the suite computed, [-J, J], and no zeros
    # outside that window
    cfg = small_cfg.replace(levels=2)
    seq = inverse_scattering(r_smooth, cfg.levels, cfg)
    result = checks.check_oracle(r_smooth, seq, cfg)[0]
    assert result.name == "oracle_alpha_agreement"
    assert result.value <= cfg.tol_fun


def test_spectral_entry_is_the_worst_moment_check(r_smooth, small_cfg):
    # the suite's entry is moment_check's deviation, maximized over the
    # densities check_spectral reads: both tags at level 0, the diagonal at 1
    suite = {r.name: r.value for r in run_full_suite(r_smooth, small_cfg, heavy=False)}
    cfg, R = small_cfg, r_smooth
    dens0 = spectral.spectral_density(R, 0, cfg)
    alpha = alpha_from_defects(converged_defect_pair(R, 0, 0, cfg))
    densities = (dens0, spectral.change_basis_density(dens0, alpha),
                 spectral.spectral_density(R, 1, cfg))
    worst = max(spectral.moment_check(d, R, 4, cfg)["max_abs_dev"] for d in densities)
    assert suite["spectral_moments_match_cmv"] == worst

"""The invariant suite shares one section memo, keyed by level, between its checks."""

import gc
import weakref

import numpy as np
import pytest

from cmvscat import CircleGrid, checks, lrspace, spectral
from cmvscat.checks import run_full_suite
from cmvscat.config import RunConfig
from cmvscat.errors import DomainError
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


def test_suite_solves_each_section_once(r_smooth, small_cfg, solved):
    # each level's section reaches defect_pair once, whatever split asks for it
    results = run_full_suite(r_smooth, small_cfg)
    assert {r.name for r in results} >= {"rotation_relation", "roundtrip_sup_error",
                                          "oracle_alpha_agreement"}
    assert len(solved) > 0
    assert len(solved) == len(set(solved))


@pytest.mark.parametrize("heavy", [True, False])
def test_suite_solves_before_it_reads(r_smooth, small_cfg, solved, monkeypatch, heavy):
    # every section is solved in the up-front pass; the checks only read the memo
    at_first_check = []
    original = checks.check_gram_structure

    def marking(*args, **kwargs):
        at_first_check.append(len(solved))
        return original(*args, **kwargs)

    monkeypatch.setattr(checks, "check_gram_structure", marking)
    run_full_suite(r_smooth, small_cfg, heavy=heavy)
    assert at_first_check == [len(solved)] and len(solved) > 0


def test_anchor_suite_solve_count(solved):
    # rung 1 of the roundtrip ladder starts at section_start, so it shares
    # rung 0's sections; only 4 of the 136 distinct sections reach N = 128
    cfg = RunConfig()
    run_full_suite(from_string(ANCHOR, CircleGrid(cfg.grid_size)), cfg)
    assert len(solved) == len(set(solved)) == 136
    assert sum(N == 128 for _, N in solved) == 4


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
        lrspace.section_pair(r_smooth, n, m, N)
        moved = lrspace.section_pair(r_smooth, n + 1, m - 1, N)
    assert solved == [(n + m, N)]
    fresh = lrspace.defect_pair(r_smooth, n + 1, m - 1, N)
    assert moved.frame == fresh.frame == lrspace.GeneratorFrame(n + 1, m - 1, N)
    assert moved.Ktilde.frame == fresh.frame
    assert np.array_equal(moved.K.coords(), fresh.K.coords())
    assert np.array_equal(moved.Ktilde.coords(), fresh.Ktilde.coords())
    assert (moved.a0, moved.a0_tilde, moved.cond) == (fresh.a0, fresh.a0_tilde,
                                                      fresh.cond)


def test_suite_values_match_checks_run_alone(r_smooth, small_cfg):
    cfg = small_cfg
    suite = run_full_suite(r_smooth, cfg)
    R = r_smooth
    seq = inverse_scattering(R, cfg.levels, cfg)
    alone = (
        checks.check_gram_structure(R, cfg)
        + checks.check_verblunsky(R, seq, cfg)
        + checks.check_rotation(R, cfg)
        + checks.check_schur(R, seq, cfg)
        + checks.check_cmv(R, seq, cfg)
        + checks.check_spectral(R, seq, cfg)
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
    # below J = 4 the oracle reads only the levels the suite computed,
    # not the zeros outside its window
    cfg = small_cfg.replace(levels=2)
    seq = inverse_scattering(r_smooth, cfg.levels, cfg)
    result = checks.check_oracle(r_smooth, seq, cfg)[0]
    assert result.name == "oracle_alpha_agreement"
    assert result.value <= cfg.tol_fun


@pytest.mark.parametrize("case", ["anchor", "narrow"])
def test_cmv_moments_match_gram_route(r_smooth, small_cfg, case):
    # V^H U^k V on the CMV matrix built from alpha against moment_check's
    # inner products of the defect vectors, for both pair tags. The narrow
    # window [-4, 4] lacks the levels -5 and 5 that the kmax = 4 moments read,
    # so cmv_moments must solve them rather than take them as zero
    if case == "anchor":
        cfg = RunConfig()
        R = from_string(ANCHOR, CircleGrid(cfg.grid_size))
    else:
        cfg, R = small_cfg.replace(levels=4), r_smooth
    seq = inverse_scattering(R, cfg.levels, cfg)
    kmax = 4
    for n in (0, 1):
        dens = spectral.spectral_density(R, n, cfg)
        alpha = alpha_from_defects(converged_defect_pair(R, n, n, cfg))
        for d in (dens, spectral.change_basis_density(dens, alpha)):
            gram = spectral.moment_check(d, R, n, kmax, cfg)["per_k"]
            cmv_side = checks.cmv_moments(R, seq, n, d.pair_tag, kmax, cfg)
            assert sorted(cmv_side) == list(range(-kmax, kmax + 1))
            for k, row in gram.items():
                dev = np.max(np.abs(np.array(row["gram"]) - cmv_side[k]))
                assert dev <= 1e-13, (n, d.pair_tag, k, dev)


def test_cmv_moments_refuse_unknown_tag(r_smooth, small_cfg):
    seq = inverse_scattering(r_smooth, small_cfg.levels, small_cfg)
    with pytest.raises(DomainError, match="unknown pair tag"):
        checks.cmv_moments(r_smooth, seq, 0, "K-and-K", 4, small_cfg)

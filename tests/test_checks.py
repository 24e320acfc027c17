"""The invariant suite solves once and hands each check the pairs, coefficients and rungs it certifies."""

import ast
import gc
import json
import pathlib
import weakref

import numpy as np
import pytest
from conftest import README_FAMILIES

from cmvscat import (
    CircleGrid, VerblunskySequence, checks, cmv, lrspace, oracle, scattering, spectral,
    verblunsky,
)
from cmvscat.checks import run_full_suite
from cmvscat.cli import main
from cmvscat.config import TOL_ALG, TOL_FUN, RunConfig
from cmvscat.families import from_string, random_trig
from cmvscat.lrspace import converged_defect_pair
from cmvscat.verblunsky import (
    alpha_from_defects, inverse_scattering, solve_levels, union_verblunsky,
)

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
    """Union frames (lo, hi, N) in the order they reach union_factor."""
    keys = []
    original = verblunsky.union_factor

    def counting(R, lo, hi, N):
        keys.append((lo, hi, N))
        return original(R, lo, hi, N)

    monkeypatch.setattr(verblunsky, "union_factor", counting)
    return keys


def test_suite_solves_each_section_once(r_smooth, small_cfg, solved, unions):
    # each level's section reaches defect_pair once, whatever split asks for it;
    # the union frame goes first, then the per-level pass starts at the
    # bottom level of cfg.levels' window, the only one it solves. The
    # degree-6 input's Fourier tail at J = 6 misses tol_roundtrip, so the
    # rungs are J = 6 and 12, both slices of the top one's frame, which
    # starts at J + d = 18
    J = small_cfg.levels
    assert r_smooth.fourier_tail(J) >= small_cfg.tol_roundtrip > r_smooth.fourier_tail(2 * J)
    results = run_full_suite(r_smooth, small_cfg)
    assert unions[0] == (-2 * J, 2 * J, 2 * J + 6)
    assert len(unions) == len(set(unions))
    assert {(lo, hi) for lo, hi, _ in unions} == {(-2 * J, 2 * J)}
    assert solved[0] == (-small_cfg.levels, small_cfg.section_start)
    assert {level for level, _ in solved} <= set(range(-small_cfg.levels,
                                                       small_cfg.levels + 2))
    assert {r.name for r in results} >= {"rotation_relation", "roundtrip_sup_error",
                                          "oracle_alpha_agreement"}
    assert len(solved) > 0
    assert len(solved) == len(set(solved))


@pytest.mark.parametrize("two_rungs", [True, False])
def test_suite_solves_before_it_reads(r_smooth, grid, small_cfg, solved, unions,
                                      monkeypatch, two_rungs):
    # every section is solved and the union frame factored in the up-front
    # pass; the checks take what it solved. The degree-6 input needs roundtrip
    # rungs J = 6 and 12, sliced off the frame of [-12, 12], a degree-4 one
    # only J = 6
    R = r_smooth if two_rungs else random_trig(grid, degree=4, margin=0.25, seed=7)
    at_first_check = []
    original = checks.check_gram_structure

    def marking(*args, **kwargs):
        at_first_check.append((len(solved), len(unions)))
        return original(*args, **kwargs)

    monkeypatch.setattr(checks, "check_gram_structure", marking)
    run_full_suite(R, small_cfg)
    assert at_first_check == [(len(solved), len(unions))]
    assert len(solved) > 0
    windows = {(-12, 12)} if two_rungs else {(-6, 6)}
    assert {(lo, hi) for lo, hi, _ in unions} == windows


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
    # the checks take alpha_j off the one sequence read from the solved pairs
    run_full_suite(r_smooth, small_cfg)
    assert len(alpha_reads) > 2 * small_cfg.levels
    assert len(alpha_reads) == len({level for level, _ in alpha_reads})


def test_anchor_suite_solve_count(solved, unions, monkeypatch):
    # the deterministic work of the anchor suite at the defaults: sections
    # solved, union frames factored, inner products taken (the alpha reads
    # alone, one per level of [-J, J]), FFT product pairs
    # (`generator_products`: 6 for the defect geometry, 4 for the CMV entries,
    # 6 for the rotation residuals) and oracle CGS2 projections (one per
    # generator of the oracle's union frame, 2J + 2 + 2N at J = 16, N = 32);
    # a re-solve or a re-read moves a count. The per-level sections cover
    # cfg.levels' window only (68 of them, none past N = 64); the anchor's
    # Fourier tail at J = 16 is 0 (degree 4), so the roundtrip has one rung,
    # read off the union frames at N = 32 and 64, N0 = max(32, 16 + 4)
    inner, products, projections = [], [], []
    for mod in (lrspace, verblunsky):
        def counting(u, v, original=mod.inner_product):
            inner.append(1)
            return original(u, v)

        monkeypatch.setattr(mod, "inner_product", counting)
    for mod in (checks, verblunsky):
        def counting_ffts(u, original=mod.generator_products):
            products.append(1)
            return original(u)

        monkeypatch.setattr(mod, "generator_products", counting_ffts)
    original = oracle._project_out
    monkeypatch.setattr(oracle, "_project_out",
                        lambda *a: projections.append(1) or original(*a))
    cfg = RunConfig()
    run_full_suite(from_string(ANCHOR, CircleGrid(cfg.grid_size)), cfg)
    assert len(solved) == len(set(solved)) == 68
    assert max(N for _, N in solved) == 64
    assert unions == [(-16, 16, 32), (-16, 16, 64)]
    assert (len(inner), len(products), len(projections)) == (33, 16, 98)


def test_shifted_split_served_from_the_level_memo(r_smooth, solved):
    # another split of a solved level is its pair moved by t^p (`at_split`),
    # with no solve, bit for bit what a fresh solve at that split returns
    n, m, cfg = 1, 2, RunConfig(grid_size=256)
    pair = converged_defect_pair(r_smooth, n, m, cfg)
    N = pair.frame.N
    for p in (1, -2):
        moved = lrspace.at_split(pair, n + p)
        assert solved == [(n + m, N // 2), (n + m, N)]
        fresh = lrspace.defect_pair(r_smooth, n + p, m - p, N)
        del solved[2:]
        assert moved.frame == fresh.frame == lrspace.GeneratorFrame(n + p, m - p, N)
        assert moved.Ktilde.frame == fresh.frame
        assert np.array_equal(moved.K.coords(), fresh.K.coords())
        assert np.array_equal(moved.Ktilde.coords(), fresh.Ktilde.coords())
        assert (moved.a0, moved.a0_tilde) == (fresh.a0, fresh.a0_tilde)
        assert alpha_from_defects(moved) == alpha_from_defects(fresh)
        assert moved.diagnostics is pair.diagnostics


def _solved(R, cfg):
    """What the suite hands its checks, each solved here by its own library route.

    The frame is the union route over the top rung's window, [-12, 12] for
    the degree-6 input at J = 6; the rungs are slices of it.
    """
    J = cfg.levels
    frame = union_verblunsky(R, -2 * J, 2 * J, cfg)
    rungs = [(2 * J, frame), (J, frame.restricted(-J, J))]
    return solve_levels(R, -J, J + 1, cfg), inverse_scattering(R, J, cfg), frame, rungs


def test_suite_values_match_checks_run_alone(r_smooth, small_cfg):
    # each check handed inputs solved apart from the suite gives its entries
    R, cfg = r_smooth, small_cfg
    suite = run_full_suite(R, cfg)
    pairs, seq, frame, rungs = _solved(R, cfg)
    alone = (
        checks.check_gram_structure(R, pairs)
        + checks.check_verblunsky(seq)
        + checks.check_union(seq, rungs[-1][1])
        + checks.check_rotation(pairs, frame)
        + checks.check_schur(pairs, frame)
        + checks.check_cmv(pairs, frame)
        + checks.check_spectral(R, pairs, frame)
        + checks.check_roundtrip(R, rungs, cfg)
        + checks.check_oracle(R, seq, cfg)
    )
    assert suite[0].name == "szego_condition"
    assert [r.as_dict() for r in suite[1:]] == [r.as_dict() for r in alone]


def test_suite_leaves_no_cycle_through_input(small_cfg):
    # the suite keeps nothing once it returns, so R is freed by reference
    # counting alone
    R = random_trig(CircleGrid(small_cfg.grid_size), degree=3, margin=0.3, seed=4)
    ref = weakref.ref(R)
    gc.disable()
    try:
        run_full_suite(R, small_cfg)
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
    assert result.value <= TOL_FUN


def test_oracle_runs_at_the_union_start(small_cfg, monkeypatch):
    # R = 0.5 tbar^40: level -6 couples only with g''_47. The per-level
    # sections start at N0 = d - level = 46 like the union frame, and read
    # a0 = sqrt(0.75); the oracle at that start agrees at once, with no
    # escalation. An oracle frame at section_start 16 would decouple and
    # read a0 = 1.0 instead
    cfg = small_cfg
    R = from_string("monomial,gamma=0.5,k=40", CircleGrid(cfg.grid_size))
    seq = inverse_scattering(R, cfg.levels, cfg)
    assert seq.diagnostics["sections"][0]["N0"] == 46
    assert abs(seq.a0s[0] - np.sqrt(0.75)) <= 1e-15
    Q = oracle.quadrature_space(R, cfg.oversample)
    at_start = oracle.compare_with_fast_path(R, Q, cfg.levels, cfg.section_start, cfg, seq)
    assert abs(at_start["max_a0_dev"] - (1.0 - np.sqrt(0.75))) <= 1e-15
    frames = []
    original = oracle.oracle_verblunsky
    monkeypatch.setattr(oracle, "oracle_verblunsky",
                        lambda R, J, N, Q: frames.append(N) or original(R, J, N, Q))
    assert union_verblunsky(R, -cfg.levels, cfg.levels, cfg).diagnostics["N0"] == 46
    result = {r.name: r for r in checks.check_oracle(R, seq, cfg)}
    assert frames == [46]
    for name in ("oracle_a0_agreement", "oracle_alpha_agreement"):
        assert result[name].passed and result[name].value <= 1e-15, name


def test_spectral_entry_is_the_worst_moment_check(r_smooth, small_cfg):
    # the suite's entry is moment_check's deviation, maximized over the
    # densities check_spectral reads: both tags at level 0, the diagonal at 1,
    # alpha_0 and U from the suite's union frame, the top rung's [-12, 12]
    suite = {r.name: r.value for r in run_full_suite(r_smooth, small_cfg)}
    cfg, R = small_cfg, r_smooth
    frame = verblunsky.union_verblunsky(R, -2 * cfg.levels, 2 * cfg.levels, cfg)
    dens0 = spectral.spectral_density(R, converged_defect_pair(R, 0, 0, cfg))
    densities = (dens0, spectral.change_basis_density(dens0, frame.alpha(0)),
                 spectral.spectral_density(R, converged_defect_pair(R, 1, 1, cfg)))
    worst = max(spectral.moment_check(d, frame, 4)["max_abs_dev"] for d in densities)
    assert suite["spectral_moments_match_cmv"] == worst


def _entries(results):
    return {r.name: r for r in results}


def test_defect_geometry_sees_one_moved_coordinate(r_smooth, small_cfg):
    # K off by 1e-6 in its g'_n coordinate: <K, g'_n> moves off a0 and the
    # products with the coupled g''_l off 0, by far more than either bound
    R, cfg = r_smooth, small_cfg
    pairs = solve_levels(R, -2, 3, cfg)
    assert all(r.passed for r in checks.check_gram_structure(R, pairs))

    def moved(pair):
        x = pair.K.x.copy()
        x[0] += 1e-6
        K = lrspace.LrElement(pair.K.frame, x, pair.K.y, R)
        return lrspace.DefectPair(K, pair.Ktilde, pair.a0, pair.a0_tilde)

    result = _entries(checks.check_gram_structure(R, {j: moved(p) for j, p in pairs.items()}))
    for name in ("defect_orthogonality", "defect_unit_norm"):
        assert not result[name].passed, name
    assert result["gram_cross_contractive"].passed


def test_rotation_relation_sees_a_conjugated_alpha(r_smooth, small_cfg):
    pairs, _, frame, _ = _solved(r_smooth, small_cfg)
    assert checks.check_rotation(pairs, frame)[0].passed
    conjugated = VerblunskySequence(frame.lo, np.conj(frame.alphas), frame.a0s)
    assert not checks.check_rotation(pairs, conjugated)[0].passed


def test_telescoped_products_see_one_moved_alpha(r_smooth, small_cfg):
    # a0_j = a0_{J+1} prod_{i >= j} rho_i ties the residuals to the alphas:
    # one alpha_j moved by 1e-3 with the a0s untouched breaks the products at
    # every level up to j, by far more than TOL_ALG
    seq = inverse_scattering(r_smooth, small_cfg.levels, small_cfg)
    assert _entries(checks.check_verblunsky(seq))["telescoped_products"].passed
    alphas = seq.alphas.copy()
    j = int(np.argmax(np.abs(alphas)))
    alphas[j] *= 1.0 + 1e-3 / abs(alphas[j])
    entry = _entries(checks.check_verblunsky(
        VerblunskySequence(seq.lo, alphas, seq.a0s)))["telescoped_products"]
    assert entry.value > TOL_ALG and not entry.passed


def test_cmv_entries_see_a_basis_label_off_by_one(r_smooth, small_cfg, monkeypatch):
    pairs, _, frame, _ = _solved(r_smooth, small_cfg)
    assert _entries(checks.check_cmv(pairs, frame))["cmv_entries_match_gram"].passed
    original = cmv.basis_label
    monkeypatch.setattr(cmv, "basis_label", lambda index: original(index + 1))
    result = _entries(checks.check_cmv(pairs, frame))
    assert not result["cmv_entries_match_gram"].passed
    assert result["cmv_unitarity_zero_tail_interior"].passed


def test_certificates_take_no_gram_products():
    # the defect geometry, the CMV entries and the rotation residuals read
    # their inner products off `generator_products`, the FFT of the evaluated
    # vectors: checks.py imports no frame Gram route, and the rotation
    # residual calls none, nor LrElement.norm, which is one
    gram_routes = {"frame_gram", "inner_product"}
    tree = ast.parse(pathlib.Path(checks.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert not {a.name for a in node.names} & gram_routes, ast.dump(node)
        if isinstance(node, (ast.Name, ast.Attribute)):
            assert getattr(node, "id", getattr(node, "attr", None)) not in gram_routes
    tree = ast.parse(pathlib.Path(verblunsky.__file__).read_text())
    func = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                and node.name == "rotation_relation_residual")
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(func) if isinstance(node, ast.Call)}
    assert "generator_products" in called
    assert not called & (gram_routes | {"norm"}), called


def _check(tmp_path, family, levels):
    """Exit code and entries {name: value} of the CLI `check` at the defaults."""
    out = tmp_path / f"check-{levels}.json"
    code = main(["check", "--family", family, "--levels", str(levels), "--out", str(out)])
    entries = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    return code, entries


FRAME_ENTRIES = ("rotation_relation", "schur_chain_step", "schur_omega_at_zero",
                 "cmv_entries_match_gram", "spectral_moments_match_cmv", "sigma_recursion")


def test_check_below_level_5_reads_the_frame_of_every_level(tmp_path, unions):
    # the README `check` example at --levels 1..5. The entries near level 0
    # read alpha_j off the one union frame, over the top rung's window widened
    # to [-5, 5], so they read the same levels at every J and equal their
    # J = 16 values up to the rounding of the frame. The CMV entries read
    # levels -1..3: a frame cut to [-J, J] took alpha_j = 0 past it and read
    # 1.3e-1 at J = 1 and 2. The rungs double from J while the degree-4
    # tail is nonzero, to 8 (6 from J = 3), and no other window is factored.
    # alpha_tail_square_sum sums the top quarter of [-J, J], and the input's
    # coefficients reach level 4, so it fails below J = 5 by design
    code16, at16 = _check(tmp_path, ANCHOR, 16)
    assert code16 == 0
    for J, top in ((1, 8), (2, 8), (3, 6), (4, 8), (5, 5)):
        del unions[:]
        code, entries = _check(tmp_path, ANCHOR, J)
        assert entries["cmv_entries_match_gram"]["value"] <= TOL_FUN, J
        for name in FRAME_ENTRIES:
            assert entries[name]["passed"], (J, name)
            assert abs(entries[name]["value"] - at16[name]["value"]) <= 1e-14, (J, name)
        failed = {name for name, c in entries.items() if not c["passed"]}
        assert failed == ({"alpha_tail_square_sum"} if J < 5 else set()), J
        assert code == (3 if J < 5 else 0), J
        assert {(lo, hi) for lo, hi, _ in unions} == {(-top, top)}, J


def test_check_widens_a_frame_below_level_5(tmp_path, unions):
    # R = 0.5 tbar: its tail vanishes at J = 2, so the top rung is [-2, 2];
    # the moments and CMV entries read levels -5..5, and the suite factors
    # the one frame over [-5, 5] for them and the rungs alike
    code, entries = _check(tmp_path, "monomial,gamma=0.5,k=1", 1)
    assert code == 0
    assert {(lo, hi) for lo, hi, _ in unions} == {(-5, 5)}
    for name in FRAME_ENTRIES:
        assert entries[name]["value"] <= 1e-14, name


@pytest.mark.parametrize("spec", README_FAMILIES)
def test_oracle_starts_at_the_union_start_of_its_window(spec):
    # the oracle starts at level -J's section start, read_sequence's first
    # "sections" entry, which `_converge_section` sets by the rule the union
    # route over [-J, J] starts by: N0 = max(section_start, J + d). So does a
    # window with lo > 0, level 75 against the frame of [75, 83]
    cfg = RunConfig()
    R = from_string(spec, CircleGrid(cfg.grid_size))
    for J in (16, 64):
        pair = converged_defect_pair(R, *verblunsky.level_split(-J), cfg)
        union = union_verblunsky(R, -J, J, cfg)
        assert pair.diagnostics["N0"] == union.diagnostics["N0"], (spec, J)
    pair = converged_defect_pair(R, *verblunsky.level_split(75), cfg)
    assert pair.diagnostics["N0"] == union_verblunsky(R, 75, 83, cfg).diagnostics["N0"]


def test_check_runs_its_oracle_at_the_window_start(monkeypatch):
    # R = 0.5 tbar^100 at the defaults: the roundtrip rungs reach J = 128,
    # whose frame starts at N0 = 128 + 100 = 228, while the oracle over
    # [-16, 16] starts at 16 + 100 = 116, as the union route there does
    cfg = RunConfig()
    R = from_string("monomial,gamma=0.5,k=100", CircleGrid(cfg.grid_size))
    frames = []
    original = oracle.oracle_verblunsky
    monkeypatch.setattr(oracle, "oracle_verblunsky",
                        lambda R, J, N, Q: frames.append((J, N)) or original(R, J, N, Q))
    results = {r.name: r for r in run_full_suite(R, cfg)}
    assert frames == [(16, 116)]
    assert scattering.rung_sequences(R, cfg, reach=5)[0].diagnostics["N0"] == 228
    assert all(r.passed for r in results.values())

"""Acceptance criteria, one test per criterion, run at default parameters.

Each test prints a single [PASS] line when its criterion holds (run with
-s to see them); tolerances are fixed here and match the package's
shipped defaults.
"""

import time

import numpy as np

from cmvscat import (
    CircleGrid,
    alpha_from_defects,
    build_cmv,
    converged_defect_pair,
    inner_product,
    inverse_scattering,
    moment_check,
    recover_omega,
    roundtrip,
    schur_step,
    shift,
    sigma_recursion_check,
    spectral_density,
    unitarity_defect,
)
from cmvscat.config import RunConfig
from cmvscat.families import blaschke, monomial, random_trig, zero
from cmvscat.lrspace import generator
from cmvscat.oracle import oracle_verblunsky, quadrature_space
from cmvscat.scattering import minimal_window, rung_sequences
from cmvscat.spectral import density_moments
from cmvscat.verblunsky import (
    convergence_report,
    level_split,
    rotation_relation_residual,
    union_verblunsky,
)

CFG = RunConfig()  # shipped defaults: M=1024, J=16
GRID = CircleGrid(CFG.grid_size)
GAMMAS = (0.3, 0.5, 0.8j)


def _pair(R, n, m, cfg=CFG):
    return converged_defect_pair(R, n, m, cfg)


def _rotation(R, j):
    """The rotation residual around level j from fresh solves at each split it reads."""
    n, m = level_split(j)
    base = _pair(R, n, m)
    return rotation_relation_residual(base, _pair(R, n + 1, m), _pair(R, n, m + 1),
                                      alpha_from_defects(base))


def _report(name, detail):
    print(f"\n[PASS] {name}: {detail}")


def test_criterion_1_rank_one_nehari():
    elapsed = 0.0
    worst_alpha0 = worst_rest = worst_a0 = 0.0
    for gamma in GAMMAS:
        R = monomial(GRID, gamma=gamma, k=1)
        t0 = time.perf_counter()
        seq = inverse_scattering(R, CFG.levels, CFG)
        elapsed += time.perf_counter() - t0
        worst_alpha0 = max(worst_alpha0, abs(seq.alpha(0) + gamma))
        worst_rest = max(
            worst_rest, max(abs(seq.alpha(j)) for j in range(1, CFG.levels + 1))
        )
        a0_0 = seq.a0s[CFG.levels]
        worst_a0 = max(worst_a0, abs(a0_0 - np.sqrt(1.0 - abs(gamma) ** 2)))
        # independent certification of the same values by dense quadrature
        Q = quadrature_space(R, CFG.oversample)
        osec = oracle_verblunsky(R, 4, 16, Q)
        assert abs(osec.alpha(0) + gamma) < 1e-7
        assert max(abs(osec.alpha(j)) for j in (1, 2, 3, 4)) < 1e-8
        assert abs(osec.a0s[4] - np.sqrt(1.0 - abs(gamma) ** 2)) < 1e-7
    assert worst_alpha0 <= 1e-7
    assert worst_rest <= 1e-8
    assert worst_a0 <= 1e-8
    assert elapsed < 10.0
    _report(
        "criterion 1 (rank-one Nehari)",
        f"alpha_0 dev {worst_alpha0:.2e}, higher levels {worst_rest:.2e}, "
        f"a0 dev {worst_a0:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    J, N = 8, 32
    worst = 0.0
    for seed in range(20):
        degree = 1 + seed % 8
        R = random_trig(GRID, degree=degree, margin=0.2, seed=seed)
        seq = inverse_scattering(R, J, CFG)
        Q = quadrature_space(R, CFG.oversample)
        osec = oracle_verblunsky(R, J, N, Q)
        dev = max(abs(osec.alpha(j) - seq.alpha(j)) for j in range(-J, J + 1))
        worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 300.0
    _report(
        "criterion 2 (oracle equivalence)",
        f"20 inputs, levels [-{J}, {J}], max |alpha| dev {worst:.2e}, "
        f"runtime {elapsed:.1f}s",
    )


def test_criterion_3_verblunsky_consistency():
    inputs = [
        monomial(GRID, gamma=0.5, k=1),
        random_trig(GRID, degree=8, margin=0.2, seed=0),
        random_trig(GRID, degree=2, margin=0.2, seed=1),
    ]
    J = 8
    worst = {"rho": 0.0, "rot": 0.0, "mono": 0.0, "tele": 0.0}
    for R in inputs:
        seq = inverse_scattering(R, J, CFG)
        assert np.max(np.abs(seq.alphas)) < 1.0
        rep = convergence_report(seq)
        worst["rho"] = max(worst["rho"], rep["rho_ratio_max_dev"])
        worst["tele"] = max(worst["tele"], rep["telescoping_max_dev"])
        drop = float(np.max(np.maximum(seq.a0s[:-1] - seq.a0s[1:], 0.0)))
        worst["mono"] = max(worst["mono"], drop)
        for j in (-2, 0, 1):
            worst["rot"] = max(worst["rot"], _rotation(R, j))
    assert worst["rho"] <= 1e-7
    assert worst["rot"] <= 1e-7
    assert worst["mono"] <= 1e-6
    assert worst["tele"] <= 1e-8
    _report(
        "criterion 3 (Verblunsky consistency)",
        f"rho {worst['rho']:.2e}, "
        f"rotation {worst['rot']:.2e}, monotone {worst['mono']:.2e}, "
        f"telescoping {worst['tele']:.2e}",
    )


def test_criterion_4_schur_chain():
    worst_chain = worst_zero = worst_mono = 0.0
    # monomial: the recovered functions are the explicit monomial chain
    R = monomial(GRID, gamma=0.5, k=1)
    seq = inverse_scattering(R, 8, CFG)
    omegas = {}
    for j in range(-3, 9):
        omegas[j] = recover_omega(_pair(R, *level_split(j)))
        if j >= 1:
            expect = 0.5 * GRID.nodes ** (j - 1)
            worst_mono = max(worst_mono, float(np.max(np.abs(
                omegas[j].samples - expect))))
    for j in range(-3, 8):
        stepped = schur_step(omegas[j], seq.alpha(j))
        worst_chain = max(worst_chain, float(np.max(np.abs(
            stepped.samples - omegas[j + 1].samples))))
        worst_zero = max(worst_zero, abs(omegas[j + 1].value_at_zero + seq.alpha(j)))
    # smooth random input over its level window
    R2 = random_trig(GRID, degree=6, margin=0.2, seed=2)
    seq2 = inverse_scattering(R2, 5, CFG)
    om = {}
    for j in range(-5, 6):
        om[j] = recover_omega(_pair(R2, *level_split(j)))
    for j in range(-5, 5):
        stepped = schur_step(om[j], seq2.alpha(j))
        worst_chain = max(worst_chain, float(np.max(np.abs(
            stepped.samples - om[j + 1].samples))))
        worst_zero = max(worst_zero, abs(om[j + 1].value_at_zero + seq2.alpha(j)))
    assert worst_chain <= 1e-6
    assert worst_zero <= 1e-8
    assert worst_mono <= 1e-7
    _report(
        "criterion 4 (Schur chain)",
        f"chain sup {worst_chain:.2e}, value-at-zero {worst_zero:.2e}, "
        f"monomial chain {worst_mono:.2e}",
    )


def test_criterion_5_cmv_structure():
    R = random_trig(GRID, degree=8, margin=0.2, seed=3)
    seq = inverse_scattering(R, CFG.levels, CFG)
    W, _ = minimal_window(seq)
    U0 = build_cmv(seq, W, "zero-tail")
    U1 = build_cmv(seq, W, "decoupled")
    ud0 = unitarity_defect(U0)
    ud1 = unitarity_defect(U1)
    assert ud0 < 1e-12
    assert ud1 < 1e-12

    entry_dev = 0.0
    for n in (-1, 0, 1):
        mid = _pair(R, n, n)
        nxt = _pair(R, n + 1, n)
        prv = _pair(R, n, n - 1)
        diag_next = _pair(R, n + 1, n + 1)
        basis = {
            2 * n - 1: prv.Ktilde,
            2 * n: mid.K,
            2 * n + 1: nxt.Ktilde,
            2 * n + 2: diag_next.K,
        }
        shifted_k = shift(mid.K, 1)
        shifted_t = shift(nxt.Ktilde, 1)
        for row, vec in basis.items():
            entry_dev = max(
                entry_dev, abs(inner_product(shifted_k, vec) - U0.entry(row, 2 * n))
            )
            entry_dev = max(
                entry_dev,
                abs(inner_product(shifted_t, vec) - U0.entry(row, 2 * n + 1)),
            )
    assert entry_dev <= 1e-6
    _report(
        "criterion 5 (CMV structure)",
        f"unitarity {max(ud0, ud1):.2e}, Gram-entry dev {entry_dev:.2e}",
    )


def test_criterion_6_roundtrip():
    # each input starts at a level window J whose Fourier tail misses the
    # 1e-3 bound, so the roundtrip doubles J and runs at least two rungs
    inputs = {
        "monomial": (monomial(GRID, gamma=0.5, k=1), 1),
        "random": (random_trig(GRID, degree=2, margin=0.2, seed=0), 1),
        "blaschke": (blaschke(GRID, r=0.5), 8),
    }
    worst = 0.0
    for name, (R, J) in inputs.items():
        t0 = time.perf_counter()
        rep = roundtrip(R, rung_sequences(R, CFG.replace(levels=J)))
        elapsed = time.perf_counter() - t0
        sups = [r["sup_error"] for r in rep["rungs"]]
        assert len(sups) >= 2, f"{name}: one rung"
        assert rep["sup_error"] == sups[-1] <= 1e-3, f"{name}: sup error {sups[-1]:.3e}"
        assert all(b <= 1.1 * a + 1e-15 for a, b in zip(sups, sups[1:])), (
            f"{name}: not non-increasing")
        assert elapsed < 120.0, f"{name}: runtime {elapsed:.1f}s"
        worst = max(worst, sups[-1])
    _report("criterion 6 (roundtrip)", f"worst sup error {worst:.2e}")


def test_criterion_7_spectral_moments():
    # zero input: density is exactly the 2x2 identity
    R0 = zero(GRID)
    dens0 = spectral_density(R0, _pair(R0, 0, 0))
    eye = np.broadcast_to(np.eye(2), dens0.values.shape)
    dev0 = float(np.max(np.abs(dens0.values - eye)))
    assert dev0 <= 1e-10
    moments = density_moments(dens0, 2)
    for k, mat in moments.items():
        expect = np.eye(2) if k == 0 else np.zeros((2, 2))
        assert np.max(np.abs(mat - expect)) <= 1e-10

    worst_mom = 0.0
    worst_rec = 0.0
    for R in (monomial(GRID, gamma=0.5, k=1),
              random_trig(GRID, degree=4, margin=0.2, seed=5)):
        # the kmax = 8 moments at levels 0..2 read the coefficients of -9..11
        seq = union_verblunsky(R, -9, 11, CFG)
        for n in (0, 1, 2):
            dens = spectral_density(R, _pair(R, n, n))
            rep = moment_check(dens, seq, 8)
            worst_mom = max(worst_mom, rep["max_abs_dev"])
        for j in (0, 1, 2):
            pair, after = (_pair(R, *level_split(i)) for i in (j, j + 1))
            worst_rec = max(worst_rec,
                            sigma_recursion_check(pair, after, alpha_from_defects(pair)))
    assert worst_mom <= 1e-6
    assert worst_rec <= 1e-6
    _report(
        "criterion 7 (spectral moments)",
        f"identity dev {dev0:.2e}, moment dev {worst_mom:.2e}, "
        f"recursion {worst_rec:.2e}",
    )


def test_criterion_8_asymptotics():
    worst_ident = 0.0
    for R in (monomial(GRID, gamma=0.5, k=1),
              random_trig(GRID, degree=6, margin=0.2, seed=6)):
        for n in (0, 1):
            a0s = []
            for m in (0, 1, 2, 4, 8):
                pair = _pair(R, n, m)
                g = generator(R, "analytic", n, pair.frame)
                diff = g - pair.K
                lhs = inner_product(diff, diff).real
                worst_ident = max(worst_ident, abs(lhs - (2.0 - 2.0 * pair.a0)))
                a0s.append(pair.a0)
            assert all(b >= a - 1e-10 for a, b in zip(a0s, a0s[1:])), (
                f"a0 not monotone toward 1 in m: {a0s}"
            )
            assert a0s[-1] >= a0s[0]
    assert worst_ident <= 1e-10
    _report(
        "criterion 8 (asymptotics)",
        f"distance identity dev {worst_ident:.2e}, a0 monotone toward 1",
    )

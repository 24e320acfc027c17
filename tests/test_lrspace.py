import numpy as np
import pytest

from cmvscat import (
    GeneratorFrame,
    converged_defect_pair,
    defect_pair,
    evaluate,
    generator,
    inner_product,
    shift,
)
from cmvscat.config import RunConfig
from cmvscat.errors import ConvergenceError, DomainError
from cmvscat.lrspace import LrElement, embed, frame_gram

RHO = np.sqrt(0.75)


def _cross(R, frame):
    # cross[k - n, l - m - 1] = <g'_k, g''_l>, the lower-left block of G transposed
    N = frame.N
    G = frame_gram(R, frame)
    assert np.array_equal(G[:N, N:], np.conj(G[N:, :N].T))
    return G[N:, :N].T


def test_gram_zero_coupling(r_zero):
    assert np.max(np.abs(_cross(r_zero, GeneratorFrame(0, 0, 4)))) == 0.0


def test_gram_monomial_single_entry(r_half):
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 0.5  # analytic index 0 against anti-analytic index 1
    assert np.array_equal(_cross(r_half, GeneratorFrame(0, 0, 4)), expected)


def test_gram_monomial_vanishes_above_level(r_half):
    assert np.max(np.abs(_cross(r_half, GeneratorFrame(1, 0, 4)))) == 0.0


def test_gram_hankel_property(r_smooth):
    c = _cross(r_smooth, GeneratorFrame(-2, -1, 12))
    assert np.array_equal(c[1:, :-1], c[:-1, 1:])


def test_gram_positivity(r_smooth):
    frame = GeneratorFrame(0, 0, 16)
    # eigenvalues of the full two-block Gram are 1 +- singular values
    norm = np.linalg.svd(_cross(r_smooth, frame), compute_uv=False)[0]
    assert norm <= (1.0 - r_smooth.margin) + 1e-10
    assert np.min(np.linalg.eigvalsh(frame_gram(r_smooth, frame))) >= r_smooth.margin - 1e-10


def test_gram_requires_szego(grid):
    import cmvscat as cs

    samples = np.full(grid.size, 0.5 + 0j)
    samples[0] = 1.0
    bad = cs.ScatteringFunction.from_samples(samples, grid)
    with pytest.raises(DomainError):
        defect_pair(bad, 0, 0, 4)


def test_defect_pair_zero(r_zero):
    pair = defect_pair(r_zero, 2, -1, 6)
    g = generator(r_zero, "analytic", 2, pair.frame)
    assert (pair.K - g).norm() < 1e-14
    gpp = generator(r_zero, "antianalytic", 0, pair.frame)
    assert (pair.Ktilde - gpp).norm() < 1e-14
    assert abs(pair.a0 - 1.0) < 1e-14


def test_defect_pair_monomial_level0(r_half):
    pair = defect_pair(r_half, 0, 0, 8)
    assert abs(pair.a0 - RHO) < 1e-12
    assert abs(pair.a0_tilde - RHO) < 1e-12
    f = pair.frame
    expected_k = (generator(r_half, "analytic", 0, f)
                  - 0.5 * generator(r_half, "antianalytic", 1, f)) * (1 / RHO)
    assert (pair.K - expected_k).norm() < 1e-12
    expected_t = (generator(r_half, "antianalytic", 1, f)
                  - 0.5 * generator(r_half, "analytic", 0, f)) * (1 / RHO)
    assert (pair.Ktilde - expected_t).norm() < 1e-12


def test_defect_pair_monomial_level1(r_half):
    pair = defect_pair(r_half, 1, 0, 8)
    assert abs(pair.a0 - 1.0) < 1e-14
    g = generator(r_half, "analytic", 1, pair.frame)
    assert (pair.K - g).norm() < 1e-14


def test_defect_normalization_positive(r_smooth):
    pair = defect_pair(r_smooth, 0, 0, 24)
    ip_k = inner_product(pair.K, generator(r_smooth, "analytic", 0, pair.frame))
    ip_t = inner_product(
        pair.Ktilde, generator(r_smooth, "antianalytic", 1, pair.frame)
    )
    # <K, g'_n> = a0 > 0 and likewise on the other side
    assert abs(ip_k - pair.a0) < 1e-10
    assert abs(ip_t - pair.a0_tilde) < 1e-10
    assert abs(pair.a0 - pair.a0_tilde) < 1e-10


def test_defect_orthogonality_and_norm(r_smooth):
    pair = defect_pair(r_smooth, -1, 0, 24)
    G = frame_gram(r_smooth, pair.frame)
    against_k = G @ pair.K.coords()
    assert np.max(np.abs(against_k[1:])) < 1e-8
    keep = np.arange(2 * pair.frame.N) != pair.frame.N
    against_t = G @ pair.Ktilde.coords()
    assert np.max(np.abs(against_t[keep])) < 1e-8
    assert abs(pair.K.norm() - 1.0) < 1e-10
    assert abs(pair.Ktilde.norm() - 1.0) < 1e-10


def test_a0_nonincreasing_in_section_size(r_smooth):
    a0s = [defect_pair(r_smooth, 0, 0, N).a0 for N in (8, 16, 32, 64)]
    assert all(b <= a + 1e-14 for a, b in zip(a0s, a0s[1:]))


def test_a0_monotone_in_level(r_smooth, small_cfg):
    a0s = []
    for j in range(-3, 4):
        n = -((-j) // 2)
        a0s.append(converged_defect_pair(r_smooth, n, j - n, small_cfg).a0)
    assert all(b >= a - 1e-6 for a, b in zip(a0s, a0s[1:]))


def test_convergence_certificate_raises_on_cap(grid):
    # the Blaschke input has an infinite coefficient tail, so sections
    # keep changing and an impossible tolerance must refuse at the cap
    from cmvscat.families import blaschke

    R = blaschke(grid, r=0.6, zeros=(0.5,))
    with pytest.raises(ConvergenceError):
        cfg = RunConfig(section_start=4, section_cap=8, section_tol=1e-30)
        converged_defect_pair(R, 0, 0, cfg)


def test_gram_out_of_window_raises(grid, r_smooth):
    # sampled input: coefficient indices beyond M/2 are unresolved
    import cmvscat as cs
    from cmvscat.errors import ResolutionError

    sampled = cs.ScatteringFunction.from_samples(r_smooth.samples, grid)
    with pytest.raises(ResolutionError) as err:
        defect_pair(sampled, 60, 4, 48)
    assert "increase the grid size" in str(err.value)


@pytest.mark.parametrize("N", [64, 128, 256])
@pytest.mark.parametrize("spec, n, m", [
    ("random,degree=4,margin=0.2,seed=0", 0, 0),  # the README anchor
    ("blaschke,r=0.75,zeros=0.3+0.2j;-0.4j", -2, -3),  # coupled below level 0
    ("random,degree=6,margin=0.01,seed=5", -1, -1),  # the smallest margin
])
def test_defect_pair_matches_dense_inverse(spec, n, m, N):
    # dense reference: with H = inv(G), K = H e_0 / sqrt(H_00) and
    # Ktilde = H e_N / sqrt(H_NN); alpha = H[N, 0] / sqrt(H_00 H_NN).
    # S = I - B B^H has its spectrum in [1 - sup |R|^2, 1], so cond_2(S) is at
    # most 1 / (1 - sup |R|^2), the bound the Szego guard holds below 1e12
    from cmvscat import CircleGrid
    from cmvscat.families import from_string
    from cmvscat.verblunsky import alpha_from_defects

    R = from_string(spec, CircleGrid(1024))
    pair = defect_pair(R, n, m, N)
    H = np.linalg.inv(frame_gram(R, pair.frame))
    h00, hNN = H[0, 0].real, H[N, N].real
    assert np.max(np.abs(pair.K.coords() - H[:, 0] / np.sqrt(h00))) <= 1e-13
    assert np.max(np.abs(pair.Ktilde.coords() - H[:, N] / np.sqrt(hNN))) <= 1e-13
    assert abs(pair.a0 - h00**-0.5) <= 1e-13
    assert abs(pair.a0_tilde - hNN**-0.5) <= 1e-13
    alpha = alpha_from_defects(pair)
    assert abs(alpha - H[N, 0] / np.sqrt(h00 * hNN)) <= 1e-13
    assert abs(alpha) > 1e-3  # the orientation is tested on a coupled section
    G = frame_gram(R, pair.frame)
    S = np.eye(N) - G[:N, N:] @ G[N:, :N]
    assert np.linalg.cond(S) <= (1.0 + 1e-12) / (1.0 - R.szego.sup_modulus**2)


def test_defect_pair_memory_is_a_few_section_blocks():
    # only the N x N Schur complement and one copy of the cross block are
    # held, never the 2N x 2N frame Gram (8 N^2 complex with its factor)
    import tracemalloc

    from cmvscat import CircleGrid
    from cmvscat.families import from_string

    R = from_string("random,degree=4,margin=0.2,seed=0", CircleGrid(1024))
    N = 256
    defect_pair(R, -3, 0, N)
    tracemalloc.start()
    try:
        defect_pair(R, -3, 0, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 16 * N * N


def test_szego_report_computed_once_per_function(r_smooth, monkeypatch):
    from cmvscat import circle

    calls = []
    real = circle.szego_check
    monkeypatch.setattr(circle, "szego_check", lambda R: calls.append(R) or real(R))
    for N in (4, 8, 16):
        defect_pair(r_smooth, 0, 0, N)
    assert calls == [r_smooth]


def test_defect_pair_refuses_aliased_cross_block(r_smooth, monkeypatch):
    # a cross block of norm above 1 makes the frame Gram indefinite,
    # which only aliased coefficients can do under the Szego condition
    from cmvscat import lrspace
    from cmvscat.errors import ResolutionError

    monkeypatch.setattr(lrspace, "_cross_block",
                        lambda R, frame: 1.01 * np.eye(frame.N, dtype=complex))
    with pytest.raises(ResolutionError) as err:
        defect_pair(r_smooth, 0, 0, 8)
    assert "increase the grid size" in str(err.value)


def test_evaluate_aliasing_raises(grid, r_half):
    from cmvscat.errors import ResolutionError

    big = GeneratorFrame(grid.size // 2, 0, 4)
    u = generator(r_half, "analytic", grid.size // 2, big)
    with pytest.raises(ResolutionError):
        evaluate(u)


def test_inner_product_examples(r_half):
    f = GeneratorFrame(0, 0, 4)
    g0 = generator(r_half, "analytic", 0, f)
    assert abs(inner_product(g0, g0) - 1.0) < 1e-14
    gpp1 = generator(r_half, "antianalytic", 1, f)
    assert abs(inner_product(g0, gpp1) - 0.5) < 1e-14


def test_inner_product_defects_zero(r_zero):
    pair = defect_pair(r_zero, 0, 0, 4)
    assert abs(inner_product(pair.K, pair.Ktilde)) < 1e-14


def test_inner_product_rebases_across_frames(r_half):
    a = generator(r_half, "analytic", 0, GeneratorFrame(0, 0, 4))
    b = generator(r_half, "antianalytic", 1, GeneratorFrame(-1, -2, 6))
    assert abs(inner_product(a, b) - 0.5) < 1e-14


def test_shift_moves_indices(r_half):
    f = GeneratorFrame(0, 0, 4)
    s = shift(generator(r_half, "analytic", 0, f), 1)
    assert (s - generator(r_half, "analytic", 1, s.frame)).norm() < 1e-14
    s2 = shift(generator(r_half, "antianalytic", 1, f), 1)
    assert (s2 - generator(r_half, "antianalytic", 0, s2.frame)).norm() < 1e-14


def test_shift_preserves_norm(r_smooth):
    rng = np.random.default_rng(11)
    f = GeneratorFrame(-2, 1, 8)
    u = LrElement(
        f,
        rng.standard_normal(8) + 1j * rng.standard_normal(8),
        rng.standard_normal(8) + 1j * rng.standard_normal(8),
        r_smooth,
    )
    assert abs(shift(u, 5).norm() - u.norm()) < 1e-10


def test_evaluate_generator(grid, r_half):
    f = GeneratorFrame(0, 0, 4)
    c1, c2 = evaluate(generator(r_half, "analytic", 0, f))
    assert np.max(np.abs(c1 - 1.0)) < 1e-12
    assert np.max(np.abs(c2 - 0.5 * np.conj(grid.nodes))) < 1e-12


def test_evaluate_defect_constant_components(r_half):
    pair = defect_pair(r_half, 0, 0, 8)
    c1, c2 = evaluate(pair.K)
    assert np.max(np.abs(c1 - RHO)) < 1e-12
    assert np.max(np.abs(c2)) < 1e-12


def test_evaluate_zero_element(r_half):
    f = GeneratorFrame(0, 0, 4)
    z = LrElement(f, np.zeros(4), np.zeros(4), r_half)
    c1, c2 = evaluate(z)
    assert np.max(np.abs(c1)) == 0.0
    assert np.max(np.abs(c2)) == 0.0


def test_embed_preserves_vector(r_smooth):
    small = GeneratorFrame(0, 0, 4)
    big = GeneratorFrame(-2, -1, 10)
    u = generator(r_smooth, "analytic", 2, small)
    v = embed(u, big)
    assert abs(inner_product(u, v) - 1.0) < 1e-12


def test_embed_rejects_noncontaining_frame(r_smooth):
    from cmvscat.errors import InputError

    u = generator(r_smooth, "analytic", 0, GeneratorFrame(0, 0, 4))
    with pytest.raises(InputError):
        embed(u, GeneratorFrame(1, 0, 4))


def test_inner_product_agrees_with_pointwise_quadrature(r_smooth):
    # dual route for a general cross inner product: Gram coordinates vs
    # quadrature of the evaluated components against the 2x2 weight
    rng = np.random.default_rng(29)
    f1 = GeneratorFrame(-1, 0, 6)
    f2 = GeneratorFrame(0, -2, 8)
    u = LrElement(f1, rng.standard_normal(6) + 1j * rng.standard_normal(6),
                  rng.standard_normal(6) + 1j * rng.standard_normal(6), r_smooth)
    v = LrElement(f2, rng.standard_normal(8) + 1j * rng.standard_normal(8),
                  rng.standard_normal(8) + 1j * rng.standard_normal(8), r_smooth)
    u1, u2 = evaluate(u)
    v1, v2 = evaluate(v)
    rs = r_smooth.samples
    w = 1.0 - np.abs(rs) ** 2
    integrand = (
        np.conj(v1) * (u1 - np.conj(rs) * u2) + np.conj(v2) * (u2 - rs * u1)
    ) / w
    assert abs(np.mean(integrand) - inner_product(u, v)) < 1e-7


def test_evaluate_agrees_with_gram_norm(r_smooth):
    # quadrature of the two components against the pointwise weight
    # reproduces the coordinate Gram norm
    pair = defect_pair(r_smooth, 0, 0, 16)
    c1, c2 = evaluate(pair.K)
    w = 1.0 - np.abs(r_smooth.samples) ** 2
    rs = r_smooth.samples
    integrand = (
        np.abs(c1) ** 2 - np.conj(rs) * np.conj(c1) * c2
        - rs * c1 * np.conj(c2) + np.abs(c2) ** 2
    ) / w
    assert abs(np.mean(integrand) - 1.0) < 1e-8

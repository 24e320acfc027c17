import numpy as np
import pytest

from cmvscat import (
    CircleGrid,
    LaurentSeries,
    ScatteringFunction,
    analyze,
    harmonic_extension,
    require_szego,
    synthesize,
    szego_check,
)
from cmvscat.errors import ConditioningError, DomainError, InputError, ResolutionError


def test_grid_requires_power_of_two():
    CircleGrid(8)
    with pytest.raises(InputError):
        CircleGrid(6)
    with pytest.raises(InputError):
        CircleGrid(100)


def test_grid_nodes_are_roots_of_unity(grid):
    assert np.max(np.abs(grid.nodes**grid.size - 1.0)) < 1e-12


def test_analyze_constant(grid):
    series = analyze(np.ones(grid.size), grid)
    assert abs(series.coefficient(0) - 1.0) < 1e-14
    others = [series.coefficient(j) for j in range(-5, 6) if j != 0]
    assert np.max(np.abs(others)) < 1e-14


def test_analyze_conjugate_monomial(grid):
    series = analyze(np.conj(grid.nodes), grid)
    assert abs(series.coefficient(-1) - 1.0) < 1e-14
    assert abs(series.coefficient(0)) < 1e-14
    assert abs(series.coefficient(1)) < 1e-14


def test_analyze_zero(grid):
    series = analyze(np.zeros(grid.size), grid)
    assert np.max(np.abs(series.coeffs)) == 0.0


def test_analyze_length_mismatch(grid):
    with pytest.raises(InputError):
        analyze(np.ones(grid.size + 1), grid)


def test_analyze_synthesize_roundtrip(grid):
    rng = np.random.default_rng(1)
    samples = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    back = synthesize(analyze(samples, grid), grid)
    assert np.max(np.abs(back - samples)) < 1e-13 * np.max(np.abs(samples))


def test_synthesize_rejects_wide_window(grid):
    series = LaurentSeries(-grid.size, np.ones(2 * grid.size))
    with pytest.raises(ResolutionError):
        synthesize(series, grid)


def test_szego_zero(r_zero):
    rep = szego_check(r_zero)
    assert rep.passes
    assert rep.sup_modulus == 0.0
    assert rep.log_integral == 0.0
    assert rep.margin == 1.0


def test_szego_constant_half(grid):
    R = ScatteringFunction.from_samples(np.full(grid.size, 0.5 + 0j), grid)
    rep = szego_check(R)
    assert rep.passes
    assert abs(rep.log_integral - np.log(0.5)) < 1e-12


def test_szego_fails_on_unimodular_sample(grid):
    samples = np.full(grid.size, 0.3 + 0j)
    samples[5] = 1.0
    rep = szego_check(ScatteringFunction.from_samples(samples, grid))
    assert not rep.passes
    assert rep.log_integral == -np.inf


def test_scattering_function_rejects_expansive(grid):
    with pytest.raises(InputError):
        ScatteringFunction.from_samples(np.full(grid.size, 1.5 + 0j), grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_scattering_function_rejects_nonfinite_samples(grid, bad):
    # a NaN sup passes the "> 1" test, so the check must come first
    samples = np.full(grid.size, 0.5 + 0j)
    samples[3] = bad
    with pytest.raises(InputError):
        ScatteringFunction.from_samples(samples, grid)


def test_coefficient_outside_window(grid, r_half, r_smooth):
    # exact coefficient lists extend by zero; sampled ones do not resolve
    assert r_half.coefficient(300) == 0j
    sampled = ScatteringFunction.from_samples(r_smooth.samples, grid)
    with pytest.raises(ResolutionError):
        sampled.coefficient(grid.size)


def test_harmonic_extension_examples():
    gamma = 0.3 - 0.4j
    f = LaurentSeries(-1, [gamma])
    assert abs(harmonic_extension(f, 0.5) - 0.5 * gamma) < 1e-14
    const = LaurentSeries(0, [2.0 + 1.0j])
    assert abs(harmonic_extension(const, 0.1 + 0.7j) - (2.0 + 1.0j)) < 1e-14
    mono = LaurentSeries(1, [1.0])
    assert abs(harmonic_extension(mono, 0.3j) - 0.3j) < 1e-14


def test_harmonic_extension_mean_at_zero(grid):
    rng = np.random.default_rng(5)
    samples = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    series = analyze(samples, grid)
    assert abs(harmonic_extension(series, 0.0) - np.mean(samples)) < 1e-12


def test_harmonic_extension_domain():
    with pytest.raises(DomainError):
        harmonic_extension(LaurentSeries(0, [1.0]), 1.0)
    with pytest.raises(DomainError):
        harmonic_extension(LaurentSeries(0, [1.0]), np.array([0.5, -1.0j, 0.2]))
    with pytest.raises(DomainError):
        harmonic_extension(LaurentSeries(0, [1.0]), np.array([0.5, complex("nan")]))


@pytest.mark.parametrize("lo, count", [(-3, 7), (0, 4), (2, 3), (-5, 2), (-1, 1)])
def test_harmonic_extension_vectorized_matches_scalar_loop(lo, count):
    rng = np.random.default_rng(lo + 10)
    f = LaurentSeries(lo, rng.standard_normal(count) + 1j * rng.standard_normal(count))
    zs = 0.95 * rng.uniform(size=(3, 5)) * np.exp(2j * np.pi * rng.uniform(size=(3, 5)))

    def term_sum(z):
        return sum(c * (z**j if j >= 0 else np.conj(z) ** (-j))
                   for j, c in zip(f.indices(), f.coeffs))

    vals = harmonic_extension(f, zs)
    assert vals.shape == zs.shape
    assert np.max(np.abs(vals - np.vectorize(term_sum)(zs))) < 1e-14
    one = harmonic_extension(f, complex(zs[1, 2]))
    assert type(one) is complex and abs(one - vals[1, 2]) < 1e-15


def test_from_coeffs_refuses_indices_outside_the_grid_window():
    # the grid resolves [-M/2+1, M/2]; an index beyond it would alias onto
    # another bin, so samples and coefficients would describe different R
    grid = CircleGrid(256)
    for lo, coeffs in ((-127, [0.5]), (128, [0.5]), (-5, [0.1, 0.2])):
        ScatteringFunction.from_coeffs(LaurentSeries(lo, coeffs), grid)
    for lo in (-5000, -128, 129):
        with pytest.raises(InputError, match=r"outside the window \[-127, 128\]"):
            ScatteringFunction.from_coeffs(LaurentSeries(lo, [0.5]), grid)
    # a series wider than the grid is still a resolution failure
    with pytest.raises(ResolutionError, match="does not fit"):
        ScatteringFunction.from_coeffs(LaurentSeries(-200, np.zeros(401)), grid)


def test_require_szego_guard(grid):
    R = ScatteringFunction.from_coeffs(LaurentSeries(-1, [0.5]), grid)
    assert require_szego(R, 0.4).passes
    with pytest.raises(DomainError, match="below margin_min"):
        require_szego(R, 0.6)
    samples = np.full(grid.size, 0.5 + 0j)
    samples[0] = 1.0
    with pytest.raises(DomainError, match="sup \\|R\\| = 1"):
        require_szego(ScatteringFunction.from_samples(samples, grid))


def test_require_szego_conditioning_floor(grid):
    # 1 - sup |R|^2 below 1e-12 is refused a priori, whatever margin_min allows;
    # the 2x2 weight and the section condition bound 1 / (1 - sup |R|^2) would
    # pass 1e12 there
    for gamma, refused in ((1 - 1e-13, True), (1 - 4.9e-13, True), (1 - 5.1e-13, False)):
        R = ScatteringFunction.from_coeffs(LaurentSeries(-1, [gamma]), grid)
        if refused:
            with pytest.raises(ConditioningError, match=r"1 - sup \|R\|\^2 = .* < 1e-12"):
                require_szego(R, 1e-15)
        else:
            assert require_szego(R, 1e-15).margin < 1e-12


@pytest.mark.parametrize("lo, coeffs", [(-1, [0.5]), (-3, [0.1, 0.2j, 0.0, -0.3, 0.05]),
                                        (2, [0.25, 0.125]), (0, [0j])])
def test_fourier_tails_of_exact_coefficients(grid, lo, coeffs):
    # tails[J] = sum_{|k| >= J} |R_k|, J = 0 .. K + 1, and 0 past the coefficients
    R = ScatteringFunction.from_coeffs(LaurentSeries(lo, coeffs), grid)
    k = np.arange(lo, lo + len(coeffs))
    K = int(np.max(np.abs(k)))
    tails = R.fourier_tails
    assert len(tails) == K + 2 and tails[-1] == 0.0
    assert np.all(np.diff(tails) <= 0.0)
    for J in range(K + 4):
        expect = float(np.sum(np.abs(coeffs)[np.abs(k) >= J]))
        assert abs(R.fourier_tail(J) - expect) <= 1e-15
    assert R.fourier_tail(-3) == R.fourier_tail(0)
    assert R.fourier_tails is tails  # computed once per R, like R.szego


def test_fourier_tails_of_samples_span_the_grid_window(grid):
    # a sampled R holds the coefficients of [-M/2 + 1, M/2], so its tail is 0
    # from J = M/2 + 1 on
    t = grid.nodes
    R = ScatteringFunction.from_samples(0.5 * (t - 0.3) / (1 - 0.3 * t), grid)
    c = analyze(R.samples, grid)
    assert len(R.fourier_tails) == grid.size // 2 + 2
    for J in (0, 1, 5, 40, grid.size // 2):
        expect = float(np.sum(np.abs(c.coeffs)[np.abs(c.indices()) >= J]))
        assert abs(R.fourier_tail(J) - expect) <= grid.size * np.finfo(float).eps
    assert R.fourier_tail(grid.size // 2 + 1) == 0.0

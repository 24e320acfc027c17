import numpy as np
import pytest

from cmvscat import (
    alpha_from_defects,
    change_basis_density,
    converged_defect_pair,
    defect_samples,
    evaluate,
    moment_check,
    recover_omega,
    sigma_recursion_check,
    spectral_density,
)
from cmvscat.config import TOL_FUN
from cmvscat.errors import DomainError
from cmvscat.families import from_string
from cmvscat.spectral import (
    PAIR_DIAGONAL,
    PAIR_NEXT,
    SpectralDensity,
    _hermitian_min_eig,
    _mat2,
    density_moments,
    log_det_diagnostic,
)


def _det(density):
    v = density.values
    return v[:, 0, 0] * v[:, 1, 1] - v[:, 0, 1] * v[:, 1, 0]


@pytest.mark.parametrize("case, n, m, known", [
    pytest.param("r_zero", 2, 1, (1.0, 0.0), id="r_zero-2-1"),  # V = diag(t^n, t^-m)
    pytest.param("r_half", 1, 0, (1.0, 0.5), id="r_half-1-0"),
    pytest.param("r_smooth", 1, 1, None, id="r_smooth-1-1"),
    pytest.param("r_smooth", 2, 1, None, id="r_smooth-2-1"),
])
def test_defect_samples_schur_form(request, small_cfg, case, n, m, known):
    # V = diag(t^n, t^-m) [[conj A, conj(A omega)], [A omega, A]] with
    # A = t^n conj(k1) and omega the Schur function of level n + m
    R = request.getfixturevalue(case)
    pair = converged_defect_pair(R, n, m, small_cfg)
    t = R.grid.nodes
    A = t**n * np.conj(evaluate(pair.K)[0])
    w = recover_omega(pair).samples
    form = _mat2(R.grid, t**n * np.conj(A), t**n * np.conj(A * w),
                 t**-m * A * w, t**-m * A)
    assert np.max(np.abs(defect_samples(pair) - form)) < 1e-13
    if known is not None:
        assert np.max(np.abs(A - known[0])) < 1e-10
        assert np.max(np.abs(w - known[1])) < 1e-10


@pytest.mark.parametrize("spec", ["random,degree=4,margin=0.2,seed=0",  # anchor
                                  "blaschke,r=0.8", "monomial,gamma=0.5,k=1",
                                  "random,degree=8,margin=0.2,seed=3"])
@pytest.mark.parametrize("n", [-2, 0, 1])
def test_density_determinant_is_one_minus_r_squared(grid, small_cfg, spec, n):
    # det V^H W V = |det V|^2 / (1 - |R|^2) with |det V| = |k1|^2 - |k2|^2
    # = 1 - |R|^2; the basis change scales the determinant by 1 / rho_2n^2
    R = from_string(spec, grid)
    gap = 1.0 - np.abs(R.samples) ** 2
    dens = spectral_density(R, n, small_cfg)
    assert np.max(np.abs(_det(dens) - gap)) < 1e-13
    alpha = alpha_from_defects(converged_defect_pair(R, n, n, small_cfg))
    changed = change_basis_density(dens, alpha)
    assert np.max(np.abs(_det(changed) - gap / (1.0 - abs(alpha) ** 2))) < 1e-13


def test_density_zero_function_is_identity(r_zero, small_cfg):
    dens = spectral_density(r_zero, 0, small_cfg)
    eye = np.broadcast_to(np.eye(2), dens.values.shape)
    assert np.max(np.abs(dens.values - eye)) < 1e-10
    moments = density_moments(dens, 3)
    for k, mat in moments.items():
        expect = np.eye(2) if k == 0 else np.zeros((2, 2))
        assert np.max(np.abs(mat - expect)) < 1e-10


def test_density_hermitian_nonnegative(r_smooth, small_cfg):
    dens = spectral_density(r_smooth, 0, small_cfg)
    herm = np.max(np.abs(dens.values - np.conj(np.swapaxes(dens.values, 1, 2))))
    assert herm < 1e-10
    assert float(np.min(_hermitian_min_eig(dens.values))) > -1e-9
    assert dens.pair_tag == PAIR_DIAGONAL


def test_moment_check_monomial(r_half, small_cfg):
    for n in (0, 1):
        dens = spectral_density(r_half, n, small_cfg)
        rep = moment_check(dens, r_half, 4, small_cfg)
        assert rep["max_abs_dev"] <= 1e-6
        k0 = np.array(rep["per_k"][0]["cmv"])
        assert abs(k0[0, 0] - 1.0) < 1e-10
        assert abs(k0[1, 1] - 1.0) < 1e-10


def test_moment_check_smooth(r_smooth, small_cfg):
    dens = spectral_density(r_smooth, 0, small_cfg)
    rep = moment_check(dens, r_smooth, 4, small_cfg)
    assert rep["max_abs_dev"] <= 1e-6


def test_moment_check_reads_levels_outside_the_window(r_smooth, small_cfg):
    # the kmax = 4 moments read the levels a - 4 .. a + 4, a = 2n - 1 or 2n,
    # out to -5 and 6, past the level window [-4, 4]: moment_check solves
    # them rather than take them as zero
    cfg = small_cfg.replace(levels=4)
    for n in (0, 1):
        dens = spectral_density(r_smooth, n, cfg)
        alpha = alpha_from_defects(converged_defect_pair(r_smooth, n, n, cfg))
        for d in (dens, change_basis_density(dens, alpha)):
            rep = moment_check(d, r_smooth, 4, cfg)
            assert sorted(rep["per_k"]) == list(range(-4, 5))
            assert rep["max_abs_dev"] <= TOL_FUN, (n, d.pair_tag)


def test_moment_check_refuses_unknown_tag(r_smooth, small_cfg):
    dens = spectral_density(r_smooth, 0, small_cfg)
    tagged = SpectralDensity(dens.grid, dens.values, "K-and-K", dens.level)
    with pytest.raises(DomainError, match="unknown pair tag"):
        moment_check(tagged, r_smooth, 4, small_cfg)


def test_change_basis_alpha_zero_twists_offdiagonal(r_zero, small_cfg):
    dens = spectral_density(r_zero, 0, small_cfg)
    changed = change_basis_density(dens, 0.0)
    assert changed.pair_tag == PAIR_NEXT
    # identity density stays the identity under the diag(1, t) twist
    eye = np.broadcast_to(np.eye(2), changed.values.shape)
    assert np.max(np.abs(changed.values - eye)) < 1e-10


def test_change_basis_rotates_offdiagonal_entries(r_smooth, small_cfg):
    dens = spectral_density(r_smooth, 0, small_cfg)
    changed = change_basis_density(dens, 0.0)
    t = dens.grid.nodes
    assert np.max(np.abs(changed.values[:, 0, 0] - dens.values[:, 0, 0])) < 1e-12
    assert np.max(np.abs(changed.values[:, 1, 0] - t * dens.values[:, 1, 0])) < 1e-12
    assert np.max(
        np.abs(changed.values[:, 0, 1] - np.conj(t) * dens.values[:, 0, 1])
    ) < 1e-12


def test_change_basis_preserves_trace_integral(r_smooth, small_cfg):
    dens = spectral_density(r_smooth, 1, small_cfg)
    pair = converged_defect_pair(r_smooth, 1, 1, small_cfg)
    alpha = alpha_from_defects(pair)
    changed = change_basis_density(dens, alpha)
    tr = np.mean(changed.values[:, 0, 0] + changed.values[:, 1, 1]).real
    assert abs(tr - 2.0) < 1e-8


def test_change_basis_moments_against_gram(r_half, small_cfg):
    dens = spectral_density(r_half, 0, small_cfg)
    pair = converged_defect_pair(r_half, 0, 0, small_cfg)
    changed = change_basis_density(dens, alpha_from_defects(pair))
    rep = moment_check(changed, r_half, 3, small_cfg)
    assert rep["max_abs_dev"] <= 1e-6


def test_change_basis_domain():
    from cmvscat import CircleGrid

    g = CircleGrid(8)
    dens = SpectralDensity(g, np.tile(np.eye(2), (8, 1, 1)).astype(complex),
                           PAIR_DIAGONAL, 0)
    with pytest.raises(DomainError):
        change_basis_density(dens, 1.0)


def test_sigma_recursion_zero(r_zero, small_cfg):
    assert sigma_recursion_check(r_zero, 0, small_cfg) < 1e-14


def test_sigma_recursion_monomial(r_half, small_cfg):
    assert sigma_recursion_check(r_half, 0, small_cfg) <= 1e-6
    assert sigma_recursion_check(r_half, 1, small_cfg) <= 1e-6


def test_sigma_recursion_smooth_levels(r_smooth, small_cfg):
    for j in (-1, 0, 1, 2):
        assert sigma_recursion_check(r_smooth, j, small_cfg) <= 1e-6


def test_log_det_diagnostic(r_smooth, small_cfg):
    dens = spectral_density(r_smooth, 0, small_cfg)
    rep = log_det_diagnostic(dens)
    assert rep["min_det"] > 0.0
    assert np.isfinite(rep["log_det_integral"])


def test_density_requires_margin(grid, small_cfg):
    from cmvscat.families import monomial

    R = monomial(grid, gamma=0.9995, k=1)  # passes Szego, margin 5e-4 < 1e-3
    with pytest.raises(DomainError, match="below margin_min"):
        spectral_density(R, 0, small_cfg)

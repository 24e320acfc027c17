import numpy as np
import pytest

from cmvscat import (
    CircleGrid,
    alpha_from_defects,
    change_basis_density,
    converged_defect_pair,
    defect_samples,
    evaluate,
    moment_check,
    recover_omega,
    sigma_recursion_check,
    spectral_density,
    union_verblunsky,
)
from cmvscat.config import TOL_FUN, RunConfig
from cmvscat.errors import DomainError, InputError
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
from cmvscat.verblunsky import VerblunskySequence, level_split


def _density(R, n, cfg):
    return spectral_density(R, converged_defect_pair(R, n, n, cfg))


def _sigma(R, j, cfg):
    """The sigma recursion residual between levels j and j + 1 at their balanced splits."""
    pair, after = (converged_defect_pair(R, *level_split(i), cfg) for i in (j, j + 1))
    return sigma_recursion_check(pair, after, alpha_from_defects(pair))


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
    dens = _density(R, n, small_cfg)
    assert np.max(np.abs(_det(dens) - gap)) < 1e-13
    alpha = alpha_from_defects(converged_defect_pair(R, n, n, small_cfg))
    changed = change_basis_density(dens, alpha)
    assert np.max(np.abs(_det(changed) - gap / (1.0 - abs(alpha) ** 2))) < 1e-13


def test_density_zero_function_is_identity(r_zero, small_cfg):
    dens = _density(r_zero, 0, small_cfg)
    eye = np.broadcast_to(np.eye(2), dens.values.shape)
    assert np.max(np.abs(dens.values - eye)) < 1e-10
    moments = density_moments(dens, 3)
    for k, mat in moments.items():
        expect = np.eye(2) if k == 0 else np.zeros((2, 2))
        assert np.max(np.abs(mat - expect)) < 1e-10


def test_density_hermitian_nonnegative(r_smooth, small_cfg):
    dens = _density(r_smooth, 0, small_cfg)
    herm = np.max(np.abs(dens.values - np.conj(np.swapaxes(dens.values, 1, 2))))
    assert herm < 1e-10
    assert float(np.min(_hermitian_min_eig(dens.values))) > -1e-9
    assert dens.pair_tag == PAIR_DIAGONAL


def test_moment_check_monomial(r_half, small_cfg):
    seq = union_verblunsky(r_half, -6, 6, small_cfg)
    for n in (0, 1):
        dens = _density(r_half, n, small_cfg)
        rep = moment_check(dens, seq, 4)
        assert rep["max_abs_dev"] <= 1e-6
        k0 = np.array(rep["per_k"][0]["cmv"])
        assert abs(k0[0, 0] - 1.0) < 1e-10
        assert abs(k0[1, 1] - 1.0) < 1e-10


def test_moment_check_smooth(r_smooth, small_cfg):
    dens = _density(r_smooth, 0, small_cfg)
    rep = moment_check(dens, union_verblunsky(r_smooth, -5, 3, small_cfg), 4)
    assert rep["max_abs_dev"] <= 1e-6


def test_moment_check_reads_levels_outside_the_window(r_smooth, small_cfg):
    # the kmax = 4 moments read the levels a - 4 .. a + 4, a = 2n - 1 or 2n,
    # out to -5 and 6, past the level window [-4, 4]: the caller's
    # coefficients cover them rather than take them as zero
    cfg = small_cfg.replace(levels=4)
    seq = union_verblunsky(r_smooth, -5, 6, cfg)
    for n in (0, 1):
        dens = _density(r_smooth, n, cfg)
        alpha = alpha_from_defects(converged_defect_pair(r_smooth, n, n, cfg))
        for d in (dens, change_basis_density(dens, alpha)):
            rep = moment_check(d, seq, 4)
            assert sorted(rep["per_k"]) == list(range(-4, 5))
            assert rep["max_abs_dev"] <= TOL_FUN, (n, d.pair_tag)


def test_moment_check_refuses_unknown_tag(r_smooth, small_cfg):
    dens = _density(r_smooth, 0, small_cfg)
    tagged = SpectralDensity(dens.grid, dens.values, "K-and-K", dens.level)
    with pytest.raises(DomainError, match="unknown pair tag"):
        moment_check(tagged, union_verblunsky(r_smooth, -5, 3, small_cfg), 4)


def _per_level(R, lo, hi, cfg):
    """Coefficients of levels lo..hi by the per-level sections, the older route."""
    pairs = (converged_defect_pair(R, *level_split(j), cfg) for j in range(lo, hi + 1))
    return VerblunskySequence(lo, [alpha_from_defects(p) for p in pairs])


@pytest.mark.parametrize("spec", ["random,degree=4,margin=0.2,seed=0", "blaschke,r=0.8",
                                  "random,degree=8,margin=0.2,seed=3"])
def test_moment_check_union_matches_per_level_coefficients(spec):
    # the CMV side from the union frame's alphas against the same check fed
    # per-level alphas, at both tags of level 0 and the diagonal of level 1
    cfg = RunConfig()
    R = from_string(spec, CircleGrid(cfg.grid_size))
    union, per_level = (route(R, -5, 5, cfg) for route in (union_verblunsky, _per_level))
    dens0 = _density(R, 0, cfg)
    alpha = alpha_from_defects(converged_defect_pair(R, 0, 0, cfg))
    for d in (dens0, change_basis_density(dens0, alpha), _density(R, 1, cfg)):
        got, ref = moment_check(d, union, 4), moment_check(d, per_level, 4)
        assert abs(got["max_abs_dev"] - ref["max_abs_dev"]) <= 1e-15
        for k in range(-4, 5):
            cmv = np.array(got["per_k"][k]["cmv"]) - np.array(ref["per_k"][k]["cmv"])
            assert np.max(np.abs(cmv)) <= 1e-15, (d.pair_tag, d.level, k)


def test_moment_check_takes_its_coefficients_from_the_caller(r_smooth, small_cfg,
                                                             monkeypatch):
    # the diagonal density at level 0 reads levels -5..3: a sequence missing
    # level -5 is refused, and a covering one is read without any solve
    from cmvscat import lrspace, verblunsky

    dens = _density(r_smooth, 0, small_cfg)
    seq = union_verblunsky(r_smooth, -5, 3, small_cfg)
    short = VerblunskySequence(-4, seq.alphas[1:])

    def no_solve(*args):
        raise AssertionError("moment_check solved a section")

    for mod in (lrspace, verblunsky):
        monkeypatch.setattr(mod, "converged_defect_pair", no_solve)
    monkeypatch.setattr(lrspace, "defect_pair", no_solve)
    monkeypatch.setattr(verblunsky, "alpha_from_defects", no_solve)
    with pytest.raises(InputError, match=r"read levels \[-5, 3\]; the coefficients "
                                         r"cover \[-4, 3\]"):
        moment_check(dens, short, 4)
    assert moment_check(dens, seq, 4)["max_abs_dev"] <= TOL_FUN


def test_change_basis_alpha_zero_twists_offdiagonal(r_zero, small_cfg):
    dens = _density(r_zero, 0, small_cfg)
    changed = change_basis_density(dens, 0.0)
    assert changed.pair_tag == PAIR_NEXT
    # identity density stays the identity under the diag(1, t) twist
    eye = np.broadcast_to(np.eye(2), changed.values.shape)
    assert np.max(np.abs(changed.values - eye)) < 1e-10


def test_change_basis_rotates_offdiagonal_entries(r_smooth, small_cfg):
    dens = _density(r_smooth, 0, small_cfg)
    changed = change_basis_density(dens, 0.0)
    t = dens.grid.nodes
    assert np.max(np.abs(changed.values[:, 0, 0] - dens.values[:, 0, 0])) < 1e-12
    assert np.max(np.abs(changed.values[:, 1, 0] - t * dens.values[:, 1, 0])) < 1e-12
    assert np.max(
        np.abs(changed.values[:, 0, 1] - np.conj(t) * dens.values[:, 0, 1])
    ) < 1e-12


def test_change_basis_preserves_trace_integral(r_smooth, small_cfg):
    dens = _density(r_smooth, 1, small_cfg)
    pair = converged_defect_pair(r_smooth, 1, 1, small_cfg)
    alpha = alpha_from_defects(pair)
    changed = change_basis_density(dens, alpha)
    tr = np.mean(changed.values[:, 0, 0] + changed.values[:, 1, 1]).real
    assert abs(tr - 2.0) < 1e-8


def test_change_basis_moments_against_gram(r_half, small_cfg):
    dens = _density(r_half, 0, small_cfg)
    pair = converged_defect_pair(r_half, 0, 0, small_cfg)
    changed = change_basis_density(dens, alpha_from_defects(pair))
    rep = moment_check(changed, union_verblunsky(r_half, -3, 3, small_cfg), 3)
    assert rep["max_abs_dev"] <= 1e-6


def test_change_basis_domain():
    from cmvscat import CircleGrid

    g = CircleGrid(8)
    dens = SpectralDensity(g, np.tile(np.eye(2), (8, 1, 1)).astype(complex),
                           PAIR_DIAGONAL, 0)
    with pytest.raises(DomainError):
        change_basis_density(dens, 1.0)


def test_sigma_recursion_zero(r_zero, small_cfg):
    assert _sigma(r_zero, 0, small_cfg) < 1e-14


def test_sigma_recursion_monomial(r_half, small_cfg):
    assert _sigma(r_half, 0, small_cfg) <= 1e-6
    assert _sigma(r_half, 1, small_cfg) <= 1e-6


def test_sigma_recursion_smooth_levels(r_smooth, small_cfg):
    for j in (-1, 0, 1, 2):
        assert _sigma(r_smooth, j, small_cfg) <= 1e-6


def test_log_det_diagnostic(r_smooth, small_cfg):
    dens = _density(r_smooth, 0, small_cfg)
    rep = log_det_diagnostic(dens)
    assert rep["min_det"] > 0.0
    assert np.isfinite(rep["log_det_integral"])


def test_spectrum_density_matches_a_section_twice_the_converged_size(tmp_path):
    # R = 0.5 tbar^100 at the defaults: the level-0 density's K carries its
    # coupling at Fourier index about 100, past every moment the window reads
    # and invisible to det Sigma = 1 - |R|^2, so the density is held here to
    # V^H W V of the section at twice the size the doubling chose
    from cmvscat import lrspace
    from cmvscat.cli import main

    cfg, spec = RunConfig(), "monomial,gamma=0.5,k=100"
    R = from_string(spec, CircleGrid(cfg.grid_size))
    N = converged_defect_pair(R, 0, 0, cfg).frame.N
    assert N > 64
    k1, k2 = evaluate(lrspace.defect_pair(R, 0, 0, 2 * N).K)
    V = _mat2(R.grid, k1, np.conj(k2), k2, np.conj(k1))
    Rs = R.samples
    W = _mat2(R.grid, 1.0, -np.conj(Rs), -Rs, 1.0) / (1.0 - np.abs(Rs) ** 2)[:, None, None]
    expect = np.conj(np.swapaxes(V, 1, 2)) @ W @ V
    out = tmp_path / "density.csv"
    assert main(["spectrum", "--family", spec, "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    values = (rows[:, 1::2] + 1j * rows[:, 2::2]).reshape(-1, 2, 2)
    assert np.max(np.abs(values - expect)) <= TOL_FUN


def test_density_requires_margin(tmp_path, capsys):
    # the density takes a solved pair, so its input guard is its command's:
    # `spectrum` factors the moments' union frame first, whose Szego guard
    # refuses R below margin_min before any section or output
    from cmvscat.cli import main

    out = tmp_path / "density.csv"
    argv = ["spectrum", "--family", "monomial,gamma=0.9995,k=1", "--grid", "256",
            "--out", str(out)]  # passes Szego, margin 5e-4 < 1e-3
    assert main(argv) == 2
    assert "below margin_min" in capsys.readouterr().err
    assert not out.exists()


def test_density_refuses_an_off_diagonal_pair(r_smooth, small_cfg):
    with pytest.raises(InputError, match=r"offsets \(n, n\)"):
        spectral_density(r_smooth, converged_defect_pair(r_smooth, 1, 0, small_cfg))

import ast
import pathlib
import tracemalloc

import numpy as np
import pytest

from cmvscat import (
    CircleGrid,
    RunConfig,
    VerblunskySequence,
    inverse_scattering,
    oracle,
    oracle_verblunsky,
    union_verblunsky,
)
from cmvscat.errors import ResolutionError
from cmvscat.families import from_string, random_trig
from cmvscat.oracle import (
    _gram_schmidt,
    compare_with_fast_path,
    quadrature_gram,
    quadrature_space,
)

ANCHOR = "random,degree=4,margin=0.2,seed=0"  # the README `check` example


def test_weight_is_hermitian_positive(r_smooth):
    Q = quadrature_space(r_smooth)
    W = Q.weight
    assert np.max(np.abs(W - np.conj(np.swapaxes(W, 1, 2)))) < 1e-12
    tr = (W[:, 0, 0] + W[:, 1, 1]).real
    det = (W[:, 0, 0] * W[:, 1, 1] - W[:, 0, 1] * W[:, 1, 0]).real
    mineig = 0.5 * tr - np.sqrt((0.5 * tr) ** 2 - det)
    assert np.min(mineig) > 0.0


@pytest.mark.parametrize("families, ks, ls, tol", [
    (("r_smooth", "r_half", "r_zero"), (0,), (), 1e-8),
    (("r_zero",), (2,), (1,), 1e-12),
    (("r_half",), (0,), (1,), 1e-8),
    (("r_smooth",), (-1, 0, 2), (0, 1, 3), 1e-7),
], ids=["unit-norms", "cross-zero", "cross-monomial", "cross-hankel"])
def test_quadrature_gram_entries(request, families, ks, ls, tol):
    # identity within each family; the cross entries <g'_k, g''_l> = c_{-(k+l)}
    # of the Hankel fast path (0.5 for the monomial, 0 for R = 0)
    for name in families:
        R = request.getfixturevalue(name)
        cross = np.array([[R.coefficient(-(k + l)) for l in ls] for k in ks])
        exact = np.eye(len(ks) + len(ls), dtype=complex)
        exact[len(ks):, :len(ks)], exact[:len(ks), len(ks):] = cross.T, np.conj(cross)
        G = quadrature_gram(quadrature_space(R), ks, ls)
        assert np.max(np.abs(G - exact)) < tol, name


def _dense_gram(Q, ks, ls):
    # the reference: every generator sampled on the grid, the 2x2 weight
    # applied node by node, then one product summing over nodes and
    # components together, conj(V conj(WV)^T) / Mq
    t = Q.grid.nodes
    vecs = np.empty((len(ks) + len(ls), 2, Q.grid.size), dtype=complex)
    for i, k in enumerate(ks):
        vecs[i] = t**k, Q.r_samples * t**k
    for i, l in enumerate(ls, start=len(ks)):
        vecs[i] = np.conj(Q.r_samples) * t ** (-l), t ** (-l)
    wv = np.einsum("xcd,adx->acx", Q.weight, vecs)
    shape = (vecs.shape[0], 2 * Q.grid.size)
    return np.conj(vecs.reshape(shape) @ np.conj(wv.reshape(shape)).T) / Q.grid.size


@pytest.fixture(scope="module")
def readme_inputs():
    grid = CircleGrid(1024)
    return {name: from_string(name, grid)
            for name in (ANCHOR, "blaschke,r=0.8", "monomial,gamma=0.5,k=1")}


@pytest.mark.parametrize("oversample", [4, 8])
@pytest.mark.parametrize("name", [ANCHOR, "blaschke,r=0.8", "monomial,gamma=0.5,k=1"])
def test_quadrature_gram_matches_dense_product(readme_inputs, name, oversample):
    # the FFT lookup evaluates the same trapezoidal sums as the dense
    # product, over the window `check` reads (J = 4, N = 32)
    Q = quadrature_space(readme_inputs[name], oversample)
    ks, ls = np.arange(-2, 35), np.arange(-1, 35)
    dev = np.max(np.abs(quadrature_gram(Q, ks, ls) - _dense_gram(Q, ks, ls)))
    assert dev <= 1e-15


@pytest.mark.parametrize("ks, ls", [((0,), ()), ((), (1,)), ((), ()), ((-3, 2), ())],
                         ids=["no-ls", "no-ks", "neither", "two-ks"])
def test_quadrature_gram_with_one_family_empty(r_smooth, ks, ls):
    Q = quadrature_space(r_smooth)
    G = quadrature_gram(Q, ks, ls)
    assert G.shape == (len(ks) + len(ls),) * 2
    assert np.max(np.abs(G - _dense_gram(Q, ks, ls)), initial=0.0) <= 1e-15


@pytest.mark.parametrize("oversample", [4, 8])
def test_oracle_keeps_no_sample_matrix(readme_inputs, oversample):
    # a dense sample matrix of the 73 generators is 2 x 73 x Mq complex
    # values: 9.6 MB at oversample 4, plus its weighted copy
    R = readme_inputs[ANCHOR]
    Q = quadrature_space(R, oversample)
    tracemalloc.start()
    try:
        oracle_verblunsky(R, 4, 32, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def test_oracle_zero_function(r_zero):
    Q = quadrature_space(r_zero)
    seq = oracle_verblunsky(r_zero, 3, 8, Q)
    assert np.max(np.abs(seq.alphas)) < 1e-10
    assert np.max(np.abs(seq.a0s - 1.0)) < 1e-10


def test_oracle_certifies_monomial(r_half):
    # this run is the certification of the hand-derived rank-one values
    Q = quadrature_space(r_half)
    seq = oracle_verblunsky(r_half, 4, 16, Q)
    assert abs(seq.alpha(0) + 0.5) < 1e-7
    for j in list(range(-4, 0)) + list(range(1, 5)):
        assert abs(seq.alpha(j)) < 1e-7
    assert abs(seq.a0s[4] - np.sqrt(0.75)) < 1e-8  # level 0 residual
    assert abs(seq.a0s[-1] - 1.0) < 1e-8


def test_oracle_agrees_with_fast_path(small_cfg):
    from cmvscat import CircleGrid

    R = random_trig(CircleGrid(small_cfg.grid_size), degree=6, margin=0.2, seed=21)
    seq = inverse_scattering(R, 4, small_cfg)
    Q = quadrature_space(R, small_cfg.oversample)
    rep = compare_with_fast_path(R, Q, 4, small_cfg.section_start, small_cfg, seq)
    assert rep["max_alpha_dev"] <= 1e-6


def test_disagreement_escalates_oversampling(small_cfg, monkeypatch):
    # one fast alpha moved by 1e-3: the first pass disagrees beyond TOL_FUN,
    # so the oracle reruns at twice the oversampling and still reports it
    R = random_trig(CircleGrid(small_cfg.grid_size), degree=6, margin=0.2, seed=21)
    seq = inverse_scattering(R, 4, small_cfg)
    alphas = seq.alphas.copy()
    alphas[4 - seq.lo] += 1e-3
    moved = VerblunskySequence(seq.lo, alphas, seq.a0s)
    grids = []
    monkeypatch.setattr(oracle, "quadrature_space",
                        lambda R, oversample: grids.append(oversample)
                        or quadrature_space(R, oversample))
    rep = compare_with_fast_path(R, quadrature_space(R, small_cfg.oversample), 4,
                                 small_cfg.section_start, small_cfg, moved)
    assert rep["escalated_oversampling"] is True
    assert grids == [2 * small_cfg.oversample]
    assert abs(rep["max_alpha_dev"] - 1e-3) <= 1e-12
    assert rep["max_a0_dev"] <= 1e-12
    assert set(rep) == {"max_alpha_dev", "max_a0_dev", "escalated_oversampling"}


def _union_gram(R, J, N=8):
    # quadrature Gram of g'_{-J} .. g'_{J+1+N}, then g''_1 .. g''_N
    return quadrature_gram(quadrature_space(R), np.arange(-J, J + 2 + N),
                           np.arange(1, N + 1))


def _names(G):
    return [f"v{i}" for i in range(len(G))]


@pytest.mark.parametrize("J", [0, 8])
def test_gram_schmidt_residual_is_orthogonal(r_smooth, J):
    # L L^H = G says that each generator's residual is G-orthogonal to the
    # generators before it, with L lower triangular and its diagonal the norms
    G = _union_gram(r_smooth, J)
    L = _gram_schmidt(G, _names(G))
    assert np.array_equal(L, np.tril(L))
    assert np.all(np.diag(L).imag == 0.0) and np.min(np.diag(L).real) > 0.0
    assert np.max(np.abs(L @ np.conj(L.T) - G)) <= 1e-14


@pytest.mark.parametrize("J", [0, 8])
def test_gram_schmidt_residual_norm_matches_dense_solve(r_smooth, J):
    # generator i's distance from those before it is (G_i^-1)_ii^(-1/2), G_i
    # the leading (i + 1) x (i + 1) block
    G = _union_gram(r_smooth, J)
    L = _gram_schmidt(G, _names(G))
    dense = [np.linalg.solve(G[:i + 1, :i + 1], np.eye(i + 1)[i])[i].real ** -0.5
             for i in range(len(G))]
    assert np.max(np.abs(np.diag(L).real - dense)) <= 1e-12


def test_gram_schmidt_refuses_indefinite_gram():
    with pytest.raises(ResolutionError, match="indefinite at g'_5;"):
        _gram_schmidt(np.diag([1.0, -1.0, 1.0]).astype(complex), ["g'_4", "g'_5", "g''_1"])


def test_gram_schmidt_refuses_singular_gram():
    # the second generator equals the first
    G = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    with pytest.raises(ResolutionError, match="numerically singular at g'_5;"):
        _gram_schmidt(G, ["g'_4", "g'_5", "g''_1"])


def test_gram_schmidt_refuses_vanished_residual(monkeypatch):
    # at J = 0, N = 1 the oracle sweeps [g'_2, g'_1, g'_0, g''_1]. Here g''_1 has
    # squared norm 2 and <g''_1, g'_1> = 1: the sweep leaves it a residual of
    # norm 1, but the readout, which takes g''_1 at unit norm, finds it inside
    # the span of g'_2, g'_1, so levels 1 and 0 lose their residuals
    G = np.eye(4, dtype=complex)
    G[3, 3], G[1, 3], G[3, 1] = 2.0, 1.0, 1.0
    monkeypatch.setattr(oracle, "quadrature_gram", lambda Q, ks, ls: G)
    with pytest.raises(ResolutionError, match="vanished in quadrature at g'_1;"):
        oracle_verblunsky(None, 0, 1, None)


# the deep rung: the fast path's window at `inverse --levels 64`, with a
# frame large enough that the union route converges on these inputs
DEEP = [ANCHOR, "random,degree=8,margin=0.2,seed=3", "monomial,gamma=0.5,k=1",
        "blaschke,r=0.8"]


@pytest.fixture(scope="module")
def deep_oracle():
    # (R, oracle over [-64, 64] at N = 128, its tracemalloc peak) per input
    runs = {}

    def run(spec):
        if spec not in runs:
            R = from_string(spec, CircleGrid(1024))
            Q = quadrature_space(R, RunConfig().oversample)
            tracemalloc.start()
            try:
                seq = oracle_verblunsky(R, 64, 128, Q)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            runs[spec] = R, seq, peak
        return runs[spec]

    return run


@pytest.mark.parametrize("spec", DEEP)
def test_oracle_certifies_the_deep_window(deep_oracle, spec):
    # one sweep over the 386 generators of the union frame; a stack of the
    # 130 levels' 256 x 256 frame Grams would hold about 130 MiB
    R, seq, peak = deep_oracle(spec)
    union = union_verblunsky(R, -64, 64, RunConfig())
    assert np.max(np.abs(seq.alphas - union.alphas)) <= 1e-15
    assert np.max(np.abs(seq.a0s - union.a0s)) <= 1e-15
    assert peak <= 16 * 2**20


def test_per_level_route_reads_the_deep_residual(deep_oracle):
    # `inverse --levels 64` on the monomial: level -64 couples only to g''_65,
    # so a doubling from section_start 32 would stop at N = 64 on two
    # decoupled sections and write a0_{-64} = 1.0 (finding A at the deep
    # rung). Level -64 starts at N0 = d + 64 = 65 and reads sqrt(0.75)
    R, seq, _ = deep_oracle("monomial,gamma=0.5,k=1")
    assert abs(seq.a0s[0] - np.sqrt(0.75)) <= 1e-15
    per_level = inverse_scattering(R, 64, RunConfig())
    assert per_level.diagnostics["sections"][0]["N0"] == 65
    assert np.max(np.abs(per_level.alphas - seq.alphas)) <= 1e-15
    assert np.max(np.abs(per_level.a0s - seq.a0s)) <= 1e-15


def test_oracle_shares_no_numerics_with_the_fast_path():
    # the oracle certifies the fast path only while it takes nothing of it:
    # no import from lrspace, nothing from verblunsky but the result type,
    # no Hankel lookup and no Cholesky
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            names = []
        for name in names:
            assert "lrspace" not in name, name
            assert "verblunsky" not in name or name == "verblunsky.VerblunskySequence", name
        if isinstance(node, ast.Attribute):
            assert node.attr not in ("coeff_range", "coefficient", "cholesky", "cho_factor",
                                     "zpotrf"), node.attr

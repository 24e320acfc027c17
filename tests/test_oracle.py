import tracemalloc

import numpy as np
import pytest

from cmvscat import (
    CircleGrid,
    VerblunskySequence,
    inverse_scattering,
    oracle,
    oracle_verblunsky,
)
from cmvscat.errors import ResolutionError
from cmvscat.families import from_string, random_trig
from cmvscat.oracle import (
    _cgs2_defects,
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


def test_weight_outer_path_matches_pointwise_inverse(r_smooth):
    # the outer-factor route and the direct 2x2 inversion are distinct
    # formula paths for the same weight
    Qo = quadrature_space(r_smooth, weight_via="outer")
    Qi = quadrature_space(r_smooth, weight_via="inverse")
    assert np.max(np.abs(Qo.weight - Qi.weight)) < 1e-9


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
    # one fast alpha moved by 1e-3: the first pass disagrees beyond tol_fun,
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
    assert rep["per_level"][4] == rep["max_alpha_dev"]


def _frame_gram(R, n, m, N):
    # quadrature Gram of the frame at (n, m) with N generators per family
    return quadrature_gram(quadrature_space(R), np.arange(n, n + N),
                           np.arange(m + 1, m + N + 1))


def _defect(G, drop):
    # both defects of a level from one shared basis, as the oracle takes them:
    # g'_n (index 0) after extending by g''_{m+1} (index 8), then the reverse;
    # the sweep is fed a one-level stack
    r, a0 = dict(zip((0, 8), _cgs2_defects(G[None], 0, 8, [0])))[drop]
    return r[0], a0[0]


@pytest.mark.parametrize("drop", [0, 8])
def test_gram_schmidt_residual_is_orthogonal(r_smooth, drop):
    G = _frame_gram(r_smooth, 1, 0, 8)
    r, a0 = _defect(G, drop)
    Gr = G @ r
    keep = np.arange(G.shape[0]) != drop
    assert np.max(np.abs(Gr[keep])) <= 1e-12
    assert abs(np.conj(r) @ Gr - 1.0) <= 1e-12


@pytest.mark.parametrize("drop", [0, 8])
def test_gram_schmidt_residual_norm_matches_dense_solve(r_smooth, drop):
    # the residual of e_d against the other generators has norm (G^-1)_dd^(-1/2)
    G = _frame_gram(r_smooth, 0, -1, 8)
    _, a0 = _defect(G, drop)
    unit = np.zeros(G.shape[0])
    unit[drop] = 1.0
    inv_dd = np.linalg.solve(G, unit)[drop].real
    assert abs(a0 - inv_dd ** -0.5) <= 1e-12


def test_gram_schmidt_sweep_matches_one_level_at_a_time(r_smooth):
    # each level of a stack comes out as it does alone
    G = np.stack([_frame_gram(r_smooth, 1, 0, 8), _frame_gram(r_smooth, 0, -1, 8)])
    swept = _cgs2_defects(G, 0, 8, [1, -1])
    for i in range(2):
        for (r, a0), (r1, a01) in zip(swept, _cgs2_defects(G[i:i + 1], 0, 8, [0])):
            assert np.max(np.abs(r[i] - r1[0])) <= 1e-15
            assert abs(a0[i] - a01[0]) <= 1e-15


def test_gram_schmidt_refuses_indefinite_gram():
    # generator 1 extends the shared basis {0} before 2 is projected
    with pytest.raises(ResolutionError, match="indefinite"):
        _cgs2_defects(np.diag([1.0, -1.0, 1.0]).astype(complex)[None], 2, 1, [0])


def test_gram_schmidt_refusal_names_the_level():
    # one sweep over a stack: the level whose Gram fails is the one named
    good = np.eye(3, dtype=complex)
    G = np.stack([good, np.diag([1.0, -1.0, 1.0]).astype(complex), good])
    with pytest.raises(ResolutionError, match="indefinite at level 6;"):
        _cgs2_defects(G, 2, 1, [5, 6, 7])


def test_gram_schmidt_refuses_singular_gram():
    G = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    with pytest.raises(ResolutionError, match="numerically singular"):
        _cgs2_defects(G[None], 2, 1, [0])


def test_gram_schmidt_refuses_vanished_residual():
    # the dropped generator equals the first kept one in this Gram
    G = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]], dtype=complex)
    with pytest.raises(ResolutionError, match="vanished"):
        _cgs2_defects(G[None], 2, 1, [0])


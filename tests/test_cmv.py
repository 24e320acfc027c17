import numpy as np
import pytest

from cmvscat import (
    VerblunskySequence,
    apply,
    apply_adjoint,
    build_cmv,
    unitarity_defect,
)
from cmvscat.cmv import dump_entries
from cmvscat.errors import InputError


def _free_sequence():
    return VerblunskySequence(0, np.array([0j]))


def _random_sequence(lo, count, scale=0.4, seed=0):
    rng = np.random.default_rng(seed)
    moduli = scale * np.sqrt(rng.uniform(0.05, 1.0, count))
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))
    return VerblunskySequence(lo, moduli * phases)


def test_basis_label_convention():
    from cmvscat.cmv import basis_label

    assert basis_label(0) == ("K", 0, 0)
    assert basis_label(1) == ("Ktilde", 1, 0)
    assert basis_label(4) == ("K", 2, 2)
    assert basis_label(-1) == ("Ktilde", 0, -1)
    assert basis_label(-2) == ("K", -1, -1)
    # the level of the labeled vector always equals the basis index
    for idx in range(-5, 6):
        kind, n, m = basis_label(idx)
        assert n + m == idx
        assert kind == ("K" if idx % 2 == 0 else "Ktilde")


def test_free_case_is_two_shifts():
    U = build_cmv(_free_sequence(), 8)
    for n in range(-3, 3):
        assert np.max(np.abs(apply(U, U.basis_vector(2 * n))
                             - U.basis_vector(2 * n + 2))) < 1e-15
        assert np.max(np.abs(apply(U, U.basis_vector(2 * n + 1))
                             - U.basis_vector(2 * n - 1))) < 1e-15


def test_single_alpha_columns_match_closed_form():
    a = 0.3 - 0.4j
    rho1 = np.sqrt(1.0 - abs(a) ** 2)
    seq = VerblunskySequence(1, np.array([a]))
    U = build_cmv(seq, 8)
    # column at basis index 0: rows -1..2 hold (rho_{-1} a_0, -conj(a_{-1}) a_0,
    # a_1 rho_0, rho_1 rho_0) with only a_1 nonzero
    assert abs(U.entry(-1, 0)) < 1e-15
    assert abs(U.entry(0, 0)) < 1e-15
    assert abs(U.entry(1, 0) - a) < 1e-15
    assert abs(U.entry(2, 0) - rho1) < 1e-15
    # column at basis index 1: (rho_{-1} rho_0, -conj(a_{-1}) rho_0,
    # -a_1 conj(a_0), -rho_1 conj(a_0))
    assert abs(U.entry(-1, 1) - 1.0) < 1e-15
    assert abs(U.entry(0, 1)) < 1e-15
    assert abs(U.entry(1, 1)) < 1e-15
    assert abs(U.entry(2, 1)) < 1e-15
    # column at basis index 2 (n = 1): (rho_1 a_2, -conj(a_1) a_2, a_3 rho_2,
    # rho_3 rho_2) -> only the last entry survives
    assert abs(U.entry(1, 2)) < 1e-15
    assert abs(U.entry(2, 2)) < 1e-15
    assert abs(U.entry(3, 2)) < 1e-15
    assert abs(U.entry(4, 2) - 1.0) < 1e-15
    # column at basis index 3 (n = 1): (rho_1 rho_2, -conj(a_1) rho_2, ...)
    assert abs(U.entry(1, 3) - rho1) < 1e-15
    assert abs(U.entry(2, 3) + np.conj(a)) < 1e-15


def test_column_structure_random():
    seq = _random_sequence(-5, 11, seed=4)
    U = build_cmv(seq, 8)

    def al(j):
        return seq.alpha(j)

    def rh(j):
        return np.sqrt(1.0 - abs(al(j)) ** 2)

    for n in (-2, -1, 0, 1, 2):
        col_even = {
            2 * n - 1: rh(2 * n - 1) * al(2 * n),
            2 * n: -np.conj(al(2 * n - 1)) * al(2 * n),
            2 * n + 1: al(2 * n + 1) * rh(2 * n),
            2 * n + 2: rh(2 * n + 1) * rh(2 * n),
        }
        col_odd = {
            2 * n - 1: rh(2 * n - 1) * rh(2 * n),
            2 * n: -np.conj(al(2 * n - 1)) * rh(2 * n),
            2 * n + 1: -al(2 * n + 1) * np.conj(al(2 * n)),
            2 * n + 2: -rh(2 * n + 1) * np.conj(al(2 * n)),
        }
        for row, val in col_even.items():
            assert abs(U.entry(row, 2 * n) - val) < 1e-14
        for row, val in col_odd.items():
            assert abs(U.entry(row, 2 * n + 1) - val) < 1e-14
        # interior columns have unit norm
        dense = U.dense()
        assert abs(np.linalg.norm(dense[:, U.pos(2 * n)]) - 1.0) < 1e-14


def test_unitarity_defects():
    seq = _random_sequence(-6, 13, seed=7)
    assert unitarity_defect(build_cmv(seq, 16)) < 1e-12
    assert unitarity_defect(build_cmv(_free_sequence(), 16)) == 0.0


@pytest.mark.parametrize("W", [pytest.param(W, id=f"{W}-zero-tail") for W in (2, 3, 16, 128)])
def test_banded_unitarity_defect_matches_dense(W):
    # the nine diagonals read off the bands give the max-norm of the dense
    # U^H U - I over the same interior, which at W <= 3 is empty
    U = build_cmv(_random_sequence(-W - 2, 2 * W + 5, scale=0.9, seed=W), W)
    dense = U.dense()
    E = dense.conj().T @ dense - np.eye(U.dim)
    E = E[4 : U.dim - 4, 4 : U.dim - 4]
    if E.size == 0:
        assert unitarity_defect(U) == 0.0
    else:
        assert abs(unitarity_defect(U) - np.max(np.abs(E))) <= 1e-15


def test_apply_matches_dense():
    seq = _random_sequence(-4, 9, seed=5)
    U = build_cmv(seq, 12)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(U.dim) + 1j * rng.standard_normal(U.dim)
    dense = U.dense()
    assert np.max(np.abs(apply(U, v) - dense @ v)) < 1e-13
    assert np.max(np.abs(apply_adjoint(U, v) - dense.conj().T @ v)) < 1e-13


def test_apply_adjoint_inverts_on_interior():
    seq = _random_sequence(-4, 9, seed=6)
    U = build_cmv(seq, 24)
    v = np.zeros(U.dim, dtype=complex)
    v[U.pos(-3): U.pos(4)] = np.arange(1, 8)
    w = apply_adjoint(U, apply(U, v))
    assert np.max(np.abs(w - v)) < 1e-12
    assert abs(np.linalg.norm(apply(U, v)) - np.linalg.norm(v)) < 1e-12


def test_apply_zero():
    U = build_cmv(_free_sequence(), 8)
    assert np.max(np.abs(apply(U, np.zeros(U.dim, dtype=complex)))) == 0.0


def test_build_rejects_window_below_2():
    with pytest.raises(InputError, match="window must be at least 2"):
        build_cmv(_free_sequence(), 1)


def test_dump_entries_roundtrip():
    seq = _random_sequence(-3, 7, seed=12)
    U = build_cmv(seq, 6)
    dense = U.dense()
    entries = dump_entries(U)
    rebuilt = np.zeros_like(dense)
    for i, j, v in entries:
        rebuilt[U.pos(i), U.pos(j)] = v
    assert np.max(np.abs(rebuilt - dense)) == 0.0


def _dense_lm(seq, W):
    # reference build: dense L and M from the Theta blocks, then L @ M,
    # with the entries outside the window dropped
    D = 2 * W + 1
    L = np.zeros((D, D), dtype=complex)
    M = np.zeros((D, D), dtype=complex)
    for j in range(-W - 1, W + 1):
        a = seq.alpha(j)
        rho = np.sqrt(1.0 - abs(a) ** 2)
        theta = np.array([[a, rho], [rho, -np.conj(a)]], dtype=complex)
        target = L if j % 2 else M
        for r in (0, 1):
            for c in (0, 1):
                pr, pc = j + r + W, j + c + W
                if 0 <= pr < D and 0 <= pc < D:
                    target[pr, pc] = theta[r, c]
    return L @ M


@pytest.mark.parametrize("W", [pytest.param(W, id=f"zero-tail-{W}") for W in (2, 3, 16, 128)])
def test_banded_build_matches_dense_product(W):
    # coefficients reach past both window edges and include the edge levels
    seq = _random_sequence(-W - 3, 2 * W + 7, scale=0.9, seed=W)
    U = build_cmv(seq, W)
    assert np.max(np.abs(U.dense() - _dense_lm(seq, W))) <= 1e-15

"""Banded CMV matrix of the shift in the defect-vector basis.

Basis indexing: 2n holds the diagonal defect vector of level 2n, 2n+1
the off-diagonal one of level 2n+1. The matrix factors as U = L M with
L (resp. M) block diagonal over index pairs (j, j+1) for odd (resp.
even) j, each block the rotation

    Theta_j = [[alpha_j, rho_j], [rho_j, -conj(alpha_j)]].

A window [-W, W] keeps the blocks that meet it and compresses the two
that straddle its edges. This zero-tail window is the exact compression
of the infinite matrix whose coefficients vanish outside the window: its
interior columns are orthonormal, and the two column pairs at each edge
are not.

U is stored as its five diagonals and applied by banded matvecs, which
direct scattering sweeps for its moments.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError

BANDWIDTH = 2


def basis_label(index):
    """Defect-vector label of a basis index.

    Even index 2n holds the pair-K vector at offsets (n, n), odd index
    2n+1 the pair-Ktilde vector at offsets (n+1, n). Returns
    (kind, n, m) with kind in {"K", "Ktilde"}.
    """
    n, parity = divmod(index, 2)
    if parity == 0:
        return ("K", n, n)
    return ("Ktilde", n + 1, n)


@dataclass
class CmvMatrix:
    """Pentadiagonal window of the shift operator.

    `bands` is LAPACK band storage: bands[BANDWIDTH + i - j, j] = U[i, j]
    for |i - j| <= BANDWIDTH, zero where i falls outside the matrix; array
    positions map to basis indices by pos = index + window.
    """

    window: int
    bands: np.ndarray

    @property
    def dim(self):
        return 2 * self.window + 1

    def pos(self, basis_index):
        p = basis_index + self.window
        if not 0 <= p < self.dim:
            raise InputError(f"basis index {basis_index} outside window")
        return p

    def basis_vector(self, basis_index):
        v = np.zeros(self.dim, dtype=complex)
        v[self.pos(basis_index)] = 1.0
        return v

    def dense(self):
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for off, lo, hi in _diagonals(self.dim):
            js = np.arange(lo, hi)
            out[js + off, js] = self.bands[BANDWIDTH + off, lo:hi]
        return out

    def entry(self, i, j):
        if abs(i - j) > BANDWIDTH:
            return 0j
        return complex(self.bands[BANDWIDTH + self.pos(i) - self.pos(j), self.pos(j)])


def _diagonals(D):
    """(off, lo, hi) per stored diagonal: entries U[j + off, j] for lo <= j < hi."""
    for off in range(-BANDWIDTH, BANDWIDTH + 1):
        yield off, max(0, -off), D - max(0, off)


def build_cmv(seq, W):
    """Assemble the zero-tail window of half-width W from a Verblunsky sequence.

    Each entry of U = L M is one entry of L times one entry of M, because
    the blocks of L and M overlap in at most one index. Row i (level i)
    reads the levels i-2..i+1; for odd i

        U[i, i-1] = alpha_i rho_{i-1},    U[i, i] = -alpha_i conj(alpha_{i-1}),
        U[i, i+1] = rho_i alpha_{i+1},    U[i, i+2] = rho_i rho_{i+1},

    and for even i

        U[i, i-2] = rho_{i-1} rho_{i-2},  U[i, i-1] = -conj(alpha_{i-2}) rho_{i-1},
        U[i, i] = -conj(alpha_{i-1}) alpha_i,  U[i, i+1] = -conj(alpha_{i-1}) rho_i.

    The middle L M index lies between i and the column, so dropping the
    entries outside the window is exactly the zero-tail compression.

    Parameters
    ----------
    seq : VerblunskySequence
        Coefficients; levels outside its window count as zero.
    W : int
        Basis window half-width; indices -W..W.

    Returns
    -------
    CmvMatrix
    """
    if W < 2:
        raise InputError(f"window must be at least 2, got {W}")
    D = 2 * W + 1
    # alpha_j for j = -W-2..W+1 at position j + W + 2; the outer two
    # levels only feed entries that fall outside the window
    a = np.zeros(D + 3, dtype=complex)
    lo, hi = max(seq.lo, -W - 1), min(seq.hi, W)
    if lo <= hi:
        a[lo + W + 2 : hi + W + 3] = seq.alphas[lo - seq.lo : hi - seq.lo + 1]
    rho = np.sqrt(1.0 - np.abs(a) ** 2)
    am2, am1, a0, ap1 = (a[s : s + D] for s in range(4))
    rm2, rm1, r0, rp1 = (rho[s : s + D] for s in range(4))
    odd = np.arange(-W, W + 1) % 2 == 1
    rows = {  # rows[q][p] = U[p, p + q]
        -2: np.where(odd, 0.0, rm1 * rm2),
        -1: np.where(odd, a0 * rm1, -np.conj(am2) * rm1),
        0: -np.conj(am1) * a0,
        1: np.where(odd, ap1 * r0, -np.conj(am1) * r0),
        2: np.where(odd, r0 * rp1, 0.0),
    }
    bands = np.zeros((2 * BANDWIDTH + 1, D), dtype=complex)
    for off, lo, hi in _diagonals(D):
        # U[j + off, j] is row j + off at column offset q = -off
        bands[BANDWIDTH + off, lo:hi] = rows[-off][lo + off : hi + off]
    return CmvMatrix(W, bands)


def _check_vector(U, v):
    v = np.asarray(v, dtype=complex)
    if v.shape != (U.dim,):
        raise InputError(f"vector length {v.shape} does not match window dim {U.dim}")
    return v


def apply(U, v):
    """Banded matrix-vector product U v."""
    return _band_matvec(U.bands, _check_vector(U, v))


def apply_adjoint(U, v):
    """Banded matrix-vector product U* v."""
    v = _check_vector(U, v)
    y = np.zeros(U.dim, dtype=complex)
    for off, lo, hi in _diagonals(U.dim):
        # U*[j, j+off] = conj(U[j+off, j])
        y[lo:hi] += np.conj(U.bands[BANDWIDTH + off, lo:hi]) * v[lo + off : hi + off]
    return y


def _band_matvec(ab, v):
    y = np.zeros(v.shape[0], dtype=complex)
    for off, lo, hi in _diagonals(v.shape[0]):
        y[lo + off : hi + off] += ab[BANDWIDTH + off, lo:hi] * v[lo:hi]
    return y


def dump_entries(U):
    """Nonzero entries as (row_index, col_index, value) triplets."""
    out = []
    for off, lo, hi in _diagonals(U.dim):
        for j, val in zip(range(lo, hi), U.bands[BANDWIDTH + off, lo:hi]):
            if val != 0:
                out.append((int(j + off - U.window), int(j - U.window), complex(val)))
    out.sort(key=lambda t: (t[0], t[1]))
    return out

"""Hot numeric kernels: gate lists on dense arrays, Walsh-Hadamard
transforms, the 4^n table of Weyl operator expectations, and the inverse-CDF
lookup that draws indices from a cumulative table.  Gates act on reshaped
views of the amplitudes, with no index arrays: a swap of halves for X and
CNOT, a sum and difference of halves for H, and a phase on one half (S, T
and Z) or on the quarter where both qubits are 1 (CZ).

Bit conventions (used consistently across the package):
  - qubit q of a basis-state index is bit q (little-endian),
  - a Pauli label (a, b) indexes tables as ``a | (b << n)``.

With those conventions, for x = (a, b),

    <psi| W_x |psi> = i^{|a&b|} * sum_j (-1)^{|b&j|} * g_a(j),
    g_a(j) = conj(psi[j^a]) * psi[j],

so row a of the table is a Walsh-Hadamard transform of g_a.  Since
g_a(j^a) = conj(g_a(j)), Re g_a is even and Im g_a odd under j -> j^a: the
transform of Re g_a vanishes where |a&b| is odd and that of Im g_a where it
is even.  One real transform of f_a = Re g_a + Im g_a therefore carries
both, and the phase reduces to a sign, + for |a&b| = 0 or 3 (mod 4) and -
for 1 or 2.  The table is built as f[j, a] and transformed along j, which
leaves it in the ``a | (b << n)`` layout.  ``unsigned_expectations`` leaves
that sign off: a caller that squares the table drops it anyway, and the
exact oracles fold it into their phase exponents.

Every Walsh-Hadamard transform is ``wht_inplace``: a product of small
Sylvester-Hadamard factors, each applied by one BLAS matrix product over a
reshaped view, so a 2^k-point transform of a batch makes
ceil(k / _FACTOR_BITS) passes over memory instead of k butterfly stages.
"""

from __future__ import annotations

import numpy as np


def zero_state(n: int) -> np.ndarray:
    """Dense amplitudes of |0...0> on n qubits."""
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return amps


_H_SCALE = np.sqrt(0.5)
_T_PHASE = np.exp(1j * np.pi / 4)


def _gate_views(arr: np.ndarray, qs: tuple[int, ...]) -> tuple:
    """Views of ``arr`` reshaped around a gate's qubits: the block whose
    target bit the gate flips (the whole array for one qubit, the part where
    the control bit is set for a pair), that block reversed along the target
    bit, and for one qubit the halves where its bit is 0 and 1.  For a pair
    the last two are the array reshaped with the two bits as axes 1 and 3,
    and None."""
    dim, inner = arr.shape[0], arr[:1].size
    if len(qs) == 2:
        c, t = qs
        hi, lo = max(c, t), min(c, t)
        v = arr.reshape(dim >> (hi + 1), 2, 1 << (hi - lo - 1), 2, inner << lo)
        block = v[:, 1] if c > t else v[:, :, :, 1]
        return block, block[:, :, ::-1] if c > t else block[:, ::-1], v, None
    (q,) = qs
    v = arr.reshape(dim >> (q + 1), 2, inner << q)
    return v, v[:, ::-1], v[:, 0], v[:, 1]


def apply_gates(amps: np.ndarray, gates) -> np.ndarray:
    """Gates (name, qubits) from H, S, T, CZ, CNOT (control, target), X and
    Z, applied in order to the leading axis of a copy of ``amps``, whose
    length is 2^n; trailing axes are a batch.

    Each gate acts on ``_gate_views`` of the copy, built once per qubit and
    per qubit pair in a call, with no index arrays.  X and CNOT are one
    assignment from the reversed block (numpy buffers the overlap); Z and CZ
    are one in-place negation of the part where their bits are 1.  H writes
    a + b and a - b into one scratch array of the copy's size, then multiplies
    it by sqrt(1/2) into the copy: the same two roundings per amplitude as
    (a + b) * sqrt(1/2)."""
    out = np.array(amps, dtype=complex, order="C")
    scratch = None
    views, sums = {}, {}
    for name, qs in gates:
        view = views.get(qs)
        if view is None:
            view = views[qs] = _gate_views(out, qs)
        block, flipped, a, b = view
        if name == "CNOT" or name == "X":
            block[...] = flipped
        elif name == "H":
            s = sums.get(qs)
            if s is None:
                if scratch is None:
                    scratch = np.empty_like(out)
                s = sums[qs] = _gate_views(scratch, qs)
            np.add(a, b, out=s[2])
            np.subtract(a, b, out=s[3])
            np.multiply(s[0], _H_SCALE, out=block)
        elif name == "S":
            b *= 1j
        elif name == "T":
            b *= _T_PHASE
        elif name == "Z":
            np.negative(b, out=b)
        elif name == "CZ":
            both = a[:, 1, :, 1]
            np.negative(both, out=both)
        else:
            raise ValueError(f"unknown gate {name!r}")
    return out


# the largest Hadamard factor has 2^6 rows: of caps 2^4, 2^5 and 2^6, the
# fastest (2^n, 2^n) transform at n = 12 and level with 2^5 at n = 10
_FACTOR_BITS = 6


def _sylvester(k: int) -> np.ndarray:
    """The 2^k x 2^k Sylvester-Hadamard matrix, H[i, j] = (-1)^{|i&j|}."""
    r = np.arange(1 << k)
    return 1.0 - 2.0 * (np.bitwise_count(r[:, None] & r) & 1)


_HADAMARD = [_sylvester(k) for k in range(_FACTOR_BITS + 1)]


def _factor_bits(k: int) -> list[int]:
    """The split of a k-bit transform into ceil(k / _FACTOR_BITS) factors of
    near-equal bit counts, larger first: 10 -> [5, 5], 13 -> [5, 4, 4]."""
    count = -(-k // _FACTOR_BITS)
    base, extra = divmod(k, max(count, 1))
    return [base + (i < extra) for i in range(count)]


def wht_inplace(v: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the leading axis of a
    C-contiguous array, in place; that axis has a power-of-2 length and
    trailing axes are a batch.

    H_{2^k} is the Kronecker product of the Sylvester factors of
    ``_factor_bits(k)``, and each factor is one ``np.matmul`` over the view
    (left, 2^k_i, right) with its bits in the middle.  The products ping-pong
    between ``v`` and one scratch array of its size, and the result is copied
    back when the factor count is odd.  Integer-valued entries whose sums stay
    below 2^53 transform exactly, as with butterflies; other entries differ
    from a butterfly transform by rounding only."""
    m, inner = v.shape[0], v[:1].size
    src, dst = v, np.empty_like(v)
    left = 1
    for k in _factor_bits(m.bit_length() - 1):
        s = 1 << k
        right = m // (left * s) * inner
        np.matmul(_HADAMARD[k], src.reshape(left, s, right), out=dst.reshape(left, s, right))
        src, dst = dst, src
        left *= s
    if src is not v:
        v[...] = src
    return v


_CHUNK = 1 << 14  # entries per gathered block of the 4^n table


def unsigned_expectations(amps: np.ndarray, n: int) -> np.ndarray:
    """All 4^n expectations without the phase's sign: entry a | (b << n) is
    <psi|W_(a,b)|psi>, negated where |a&b| mod 4 is 1 or 2, so its square is
    <W_x>^2 bit for bit.

    With psi = x + iy, f[j, a] = Re g_a(j) + Im g_a(j)
    = x[j^a] (x[j] + y[j]) + y[j^a] (y[j] - x[j]), gathered in row blocks,
    then transformed along j."""
    amps = np.asarray(amps, dtype=np.complex128)
    x, y = amps.real.copy(), amps.imag.copy()
    plus, minus = x + y, y - x
    # rows per block: a power of two, so blocks tile the (2^n, 2^n) table
    dim, rows = 1 << n, min(1 << n, max(1, _CHUNK >> n))
    cols = np.arange(dim)
    table = np.empty((dim, dim), dtype=np.float64)
    t = np.empty((rows, dim), dtype=np.float64)
    for j0 in range(0, dim, rows):
        j = slice(j0, j0 + rows)
        idx = np.arange(j0, j0 + rows)[:, None] ^ cols
        # every index is in range; "clip" writes to ``out`` without a buffer
        np.multiply(np.take(x, idx, out=t, mode="clip"), plus[j, None], out=table[j])
        table[j] += np.multiply(np.take(y, idx, out=t, mode="clip"), minus[j, None], out=t)
    del idx, t  # freed before the transform allocates its scratch table
    return wht_inplace(table).reshape(-1)


def inverse_cdf(cum: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """For each key, the first index i with cum[i] > key, capped at the last
    index: ``minimum(searchsorted(cum, keys, side="right"), len(cum) - 1)``
    in the order of ``keys``.  The keys are searched in sorted order, so each
    search starts where the previous one ended instead of missing the cache
    across the whole table; each key's index does not depend on the order."""
    order = np.argsort(keys)
    idx = np.empty(keys.shape[0], dtype=np.intp)
    idx[order] = np.searchsorted(cum, keys[order], side="right")
    return np.minimum(idx, cum.shape[0] - 1, out=idx)

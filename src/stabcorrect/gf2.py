"""Bit-packed linear algebra over F_2^{2n}: Pauli labels, canonical (RREF)
bases, symplectic Gram-Schmidt, and mutually unbiased bases coverings of the
k-qubit label group, read off the trace form of F_{2^k}.

A label (a, b) is stored as two machine integers with bit q carrying qubit q.
As a vector in F_2^{2n} a label packs as ``a | (b << n)``; RREF pivots scan
that packing from bit 0 upward, i.e. leftmost-first over the string a||b.
The symplectic form of packed labels u and v is the parity of u & swap(v),
swap exchanging the two halves, so it costs O(1) for n <= 64.
All values here are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

_PAULI_CHARS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_CHAR_PAULIS = {v: k for k, v in _PAULI_CHARS.items()}


@dataclass(frozen=True)
class PauliLabel:
    """A point of F_2^{2n}: X exponents ``x``, Z exponents ``z``."""

    n: int
    x: int
    z: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative qubit count")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("label bits outside the declared length")

    def to_vector(self) -> int:
        return self.x | (self.z << self.n)

    @staticmethod
    def from_vector(n: int, v: int) -> "PauliLabel":
        mask = (1 << n) - 1
        return PauliLabel(n, v & mask, (v >> n) & mask)

    def to_string(self) -> str:
        return "".join(
            _PAULI_CHARS[((self.x >> q) & 1, (self.z >> q) & 1)]
            for q in range(self.n)
        )

    @staticmethod
    def from_string(s: str) -> "PauliLabel":
        """The label of a string of I, X, Y and Z (upper case), one per qubit
        and no sign."""
        x = z = 0
        for q, ch in enumerate(s):
            if ch not in _CHAR_PAULIS:
                raise ValueError(f"unknown Pauli character {ch!r} in {s!r}")
            xq, zq = _CHAR_PAULIS[ch]
            x |= xq << q
            z |= zq << q
        return PauliLabel(len(s), x, z)

    def __repr__(self):
        return f"PauliLabel({self.to_string()!r})"


# ---------------------------------------------------------------------------
# canonical bases


@dataclass(frozen=True)
class Gf2Basis:
    """Reduced row-echelon basis of a subspace of F_2^{nbits}.

    Two equal subspaces always produce bit-identical bases, so bases can be
    compared, hashed and deduplicated directly.
    """

    nbits: int
    rows: tuple[int, ...]  # row i's lowest set bit is its pivot, in increasing order

    def labels(self, n: int) -> list[PauliLabel]:
        return [PauliLabel.from_vector(n, v) for v in self.rows]


def rref_basis(vectors, nbits: int) -> Gf2Basis:
    """Canonical basis of span(vectors); empty input gives no rows.  Each
    row kept is clear at the other rows' pivots, so a new vector is reduced
    against them in any order, and its own pivot is cleared from them."""
    rows: list[int] = []
    for v in vectors:
        for row in rows:
            if v & row & -row:
                v ^= row
        if v:
            rows = [row ^ v if row & v & -v else row for row in rows] + [v]
    return Gf2Basis(nbits, tuple(sorted(rows, key=lambda row: row & -row)))


# ---------------------------------------------------------------------------
# symplectic Gram-Schmidt


def symplectic_gram_schmidt(rows, n: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """(center, pairs): a commuting center and anticommuting pairs that
    generate the span of packed label rows (``PauliLabel.to_vector``, n qubits).

    Rows are taken in order.  Each pairs with the first later row it
    anticommutes with, and the rows left are cleared of the pair's
    components.  A row with no mate joins the center if elimination against
    the center rows kept so far leaves it nonzero.  Zero rows are dropped.
    Each output row commutes with every other but its pair's mate.
    """
    mask = (1 << n) - 1
    work = [v for v in rows if v]
    center: list[int] = []
    pairs: list[tuple[int, int]] = []
    echelon: list[tuple[int, int]] = []  # (row, pivot bit): later rows clear each pivot
    while work:
        g = work.pop(0)
        # [v, g] is the parity of v & swap(g), swap exchanging the x and z halves
        g_swap = ((g & mask) << n) | (g >> n)
        i = next((i for i, h in enumerate(work) if (h & g_swap).bit_count() & 1), None)
        if i is None:
            v = g
            for row, pivot in echelon:
                if v & pivot:
                    v ^= row
            if v:
                echelon.append((v, v & -v))
                center.append(g)
            continue
        mate = work.pop(i)
        m_swap = ((mate & mask) << n) | (mate >> n)
        pairs.append((g, mate))
        cleared = []
        for v in work:
            w = v
            if (v & m_swap).bit_count() & 1:
                w ^= g
            if (v & g_swap).bit_count() & 1:
                w ^= mate
            if w:
                cleared.append(w)
        work = cleared
    return tuple(center), tuple(pairs)


# ---------------------------------------------------------------------------
# mutually unbiased bases via the field spread

_IRREDUCIBLE = {
    1: 0b10,       # x
    2: 0b111,      # x^2 + x + 1
    3: 0b1011,     # x^3 + x + 1
    4: 0b10011,    # x^4 + x + 1
    5: 0b100101,   # x^5 + x^2 + 1
    6: 0b1000011,  # x^6 + x + 1
}
MUB_MAX_QUBITS = 6


def _gf_mul(a: int, b: int, poly: int, k: int) -> int:
    res = 0
    top = 1 << k
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= poly
    return res


def _gf_trace(a: int, poly: int, k: int) -> int:
    acc = 0
    cur = a
    for _ in range(k):
        acc ^= cur
        cur = _gf_mul(cur, cur, poly, k)
    return acc & 1


@dataclass(frozen=True)
class MubCovering:
    """2^k + 1 Lagrangian bases partitioning the nonzero k-qubit labels."""

    k: int
    groups: tuple[Gf2Basis, ...]


@lru_cache(maxsize=None)
def mub_covering(k: int) -> MubCovering:
    """Field-spread construction (Bandyopadhyay, Boykin, Roychowdhury and
    Vatan, quant-ph/0103162).  In the polynomial basis 1, x, ..., x^{k-1} of
    F_{2^k}, line m is {(a, G_m a)} with (G_m)_ij = Tr(m x^{i+j}): its row j
    is X on qubit j and Z on each qubit i with Tr(m x^{i+j}) = 1.  The Z
    axis comes last.  G_m is symmetric, so each line is isotropic.  The
    trace form is nondegenerate, so G_m a = G_m' a forces m = m' or a = 0,
    and no line meets the Z axis off 0: the 2^k + 1 groups partition the
    4^k - 1 nonzero labels.  Deterministic; supported for 1 <= k <= 6.
    """
    if not 1 <= k <= MUB_MAX_QUBITS:
        raise ValueError(f"k must be in [1, {MUB_MAX_QUBITS}], got {k}")
    poly = _IRREDUCIBLE[k]
    powers = [1]  # x^0, ..., x^{2k-2}
    for _ in range(2 * k - 2):
        powers.append(_gf_mul(powers[-1], 0b10, poly, k))
    groups = []
    for m in range(1 << k):
        tr = [_gf_trace(_gf_mul(m, p, poly, k), poly, k) for p in powers]
        rows = [(1 << j) | (sum(tr[i + j] << i for i in range(k)) << k) for j in range(k)]
        groups.append(rref_basis(rows, 2 * k))
    groups.append(rref_basis([1 << (k + q) for q in range(k)], 2 * k))
    return MubCovering(k, tuple(groups))

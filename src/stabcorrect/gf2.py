"""Bit-packed linear algebra over F_2^{2n}: Pauli labels, the symplectic form,
canonical (RREF) bases, symplectic Gram-Schmidt, and mutually unbiased bases
coverings of the k-qubit label group.

A label (a, b) is stored as two machine integers with bit q carrying qubit q,
so symplectic products are AND/popcount-parity and cost O(1) for n <= 64.
As a vector in F_2^{2n} a label packs as ``a | (b << n)``; RREF pivots scan
that packing from bit 0 upward, i.e. leftmost-first over the string a||b.
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

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def add(self, other: "PauliLabel") -> "PauliLabel":
        _check_len(self, other)
        return PauliLabel(self.n, self.x ^ other.x, self.z ^ other.z)

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
        s = s.lstrip("+")
        x = z = 0
        for q, ch in enumerate(s):
            if ch.upper() not in _CHAR_PAULIS:
                raise ValueError(f"unknown Pauli character {ch!r} in {s!r}")
            xq, zq = _CHAR_PAULIS[ch.upper()]
            x |= xq << q
            z |= zq << q
        return PauliLabel(len(s), x, z)

    def __repr__(self):
        return f"PauliLabel({self.to_string()!r})"


def _check_len(a: PauliLabel, b: PauliLabel) -> None:
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")


def symplectic_product(a: PauliLabel, b: PauliLabel) -> int:
    """[a, b] = <a_x, b_z> + <a_z, b_x> mod 2; 0 iff W_a and W_b commute."""
    _check_len(a, b)
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) & 1


# ---------------------------------------------------------------------------
# canonical bases


@dataclass(frozen=True)
class Gf2Basis:
    """Reduced row-echelon basis of a subspace of F_2^{nbits}.

    Two equal subspaces always produce bit-identical bases, so bases can be
    compared, hashed and deduplicated directly.
    """

    nbits: int
    rows: tuple[int, ...]
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: int) -> int:
        """v with every pivot bit cleared by the rows: the same value for
        all of v's coset of the span, 0 for the span itself."""
        for row, piv in zip(self.rows, self.pivots):
            if (v >> piv) & 1:
                v ^= row
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def enumerate_span(self) -> list[int]:
        out = [0]
        for row in self.rows:
            out += [w ^ row for w in out]
        return out

    def labels(self, n: int) -> list[PauliLabel]:
        return [PauliLabel.from_vector(n, v) for v in self.rows]


def rref_basis(vectors, nbits: int) -> Gf2Basis:
    """Canonical basis of span(vectors); empty input gives rank 0."""
    rows: list[int] = []
    pivots: list[int] = []
    for v in vectors:
        for row, piv in zip(rows, pivots):
            if (v >> piv) & 1:
                v ^= row
        if v == 0:
            continue
        piv = (v & -v).bit_length() - 1
        pos = 0
        while pos < len(pivots) and pivots[pos] < piv:
            pos += 1
        rows.insert(pos, v)
        pivots.insert(pos, piv)
        for i in range(len(rows)):
            if i != pos and (rows[i] >> piv) & 1:
                rows[i] ^= v
    return Gf2Basis(nbits, tuple(rows), tuple(pivots))


def rref_basis_from_labels(labels) -> Gf2Basis:
    labels = list(labels)
    if not labels:
        raise ValueError("cannot infer length from an empty label list")
    n = labels[0].n
    return rref_basis([lab.to_vector() for lab in labels], 2 * n)


# ---------------------------------------------------------------------------
# symplectic Gram-Schmidt


@dataclass(frozen=True)
class SgsDecomposition:
    """Commuting center plus hyperbolic pairs generating the input span."""

    center: tuple[PauliLabel, ...]
    pairs: tuple[tuple[PauliLabel, PauliLabel], ...]


def symplectic_gram_schmidt(generators) -> SgsDecomposition:
    """Split a generating set into anticommuting pairs and a commuting center.

    Identity elements (and elements that reduce to the identity) are dropped.
    Every output element commutes with every other, except that the two
    members of a pair anticommute with each other.
    """
    work = [g for g in generators if not g.is_identity]
    center: list[PauliLabel] = []
    pairs: list[tuple[PauliLabel, PauliLabel]] = []
    nbits = 2 * work[0].n if work else 0
    while work:
        g = work.pop(0)
        mate = None
        for i, h in enumerate(work):
            if symplectic_product(g, h):
                mate = work.pop(i)
                break
        if mate is None:
            # commutes with everything left; keep only if it extends the span
            span = rref_basis([c.to_vector() for c in center], nbits)
            if not g.is_identity and not span.contains(g.to_vector()):
                center.append(g)
            continue
        pairs.append((g, mate))
        for i, v in enumerate(work):
            a = symplectic_product(v, mate)
            b = symplectic_product(v, g)
            if a:
                v = v.add(g)
            if b:
                v = v.add(mate)
            work[i] = v
        work = [v for v in work if not v.is_identity]
    return SgsDecomposition(tuple(center), tuple(pairs))


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


@lru_cache(maxsize=None)
def _self_dual_basis(k: int) -> tuple[int, ...]:
    # deterministic DFS for a trace-orthonormal basis of F_{2^k} over F_2
    poly = _IRREDUCIBLE[k]
    elems = list(range(1, 1 << k))
    unit = [e for e in elems if _gf_trace(_gf_mul(e, e, poly, k), poly, k) == 1]

    def independent(cand: int, chosen: list[int]) -> bool:
        rows = list(chosen) + [cand]
        return rref_basis(rows, k).rank == len(rows)

    def extend(chosen: list[int]) -> list[int] | None:
        if len(chosen) == k:
            return chosen
        for e in unit:
            if e <= (chosen[-1] if chosen else 0):
                continue
            if any(_gf_trace(_gf_mul(e, c, poly, k), poly, k) for c in chosen):
                continue
            if not independent(e, chosen):
                continue
            found = extend(chosen + [e])
            if found is not None:
                return found
        return None

    basis = extend([])
    if basis is None:  # pragma: no cover - self-dual bases exist for all k here
        raise RuntimeError(f"no self-dual basis found for k={k}")
    return tuple(basis)


def _coords(x: int, basis: tuple[int, ...], poly: int, k: int) -> int:
    # in a self-dual basis the q-th coordinate of x is Tr(x * b_q)
    out = 0
    for q, b in enumerate(basis):
        out |= _gf_trace(_gf_mul(x, b, poly, k), poly, k) << q
    return out


@dataclass(frozen=True)
class MubCovering:
    """2^k + 1 Lagrangian bases partitioning the nonzero k-qubit labels."""

    k: int
    groups: tuple[Gf2Basis, ...]


@lru_cache(maxsize=None)
def mub_covering(k: int) -> MubCovering:
    """Field-spread construction: the lines {(x, m x)} plus the Z axis.

    In a trace-self-dual coordinate basis the coordinate dot product equals
    the field trace form, so Tr(x1 * m * x2) symmetry makes every line
    isotropic.  Deterministic for a given k; supported for 1 <= k <= 6.
    """
    if not 1 <= k <= MUB_MAX_QUBITS:
        raise ValueError(f"k must be in [1, {MUB_MAX_QUBITS}], got {k}")
    poly = _IRREDUCIBLE[k]
    sd = _self_dual_basis(k)
    groups = []
    for m in range(1 << k):
        rows = []
        for b in sd:
            a_part = _coords(b, sd, poly, k)
            z_part = _coords(_gf_mul(m, b, poly, k), sd, poly, k)
            rows.append(a_part | (z_part << k))
        groups.append(rref_basis(rows, 2 * k))
    z_rows = [(_coords(b, sd, poly, k) << k) for b in sd]
    groups.append(rref_basis(z_rows, 2 * k))
    return MubCovering(k, tuple(groups))

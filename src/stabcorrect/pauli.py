"""Phased Pauli arithmetic, Clifford circuits with exact conjugation, subgroup
canonicalization, stabilizer states with exact inner products, and the
isotropic subspaces in RREF.

Operator convention: a ``PhasedPauli`` with label (a, b) and phase t is
i^t * W_(a,b) where W_(a,b) = i^{|a&b|} X^a Z^b.  Hermitian signed Paulis
carry phase 0 (+) or 2 (-).  Phase bookkeeping is exact: every rule below is
validated against dense matrices in the test suite.

Conjugation through a circuit, canonicalization and state preparation drive
one store of Paulis as bit columns: per qubit one int of the rows' X bits and
one of their Z bits, beside one int of sign bits.  One gate rule (Aaronson and
Gottesman's) then updates every row with a few int operations.  One
reduction maps commuting rows to Z strings a layer of the affine-phase form
at a time: the canonicalizer places its center with it, and state
preparation runs it on the n generators and reads its layers.
``signed_generators`` is the one way to sign packed label rows.

Statevector indices are little-endian in the qubit number (qubit q is bit q),
matching the label bit layout, so no bit reversal appears anywhere.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import prod

import numpy as np

from . import kernels
from .gf2 import PauliLabel, rref_basis, symplectic_gram_schmidt

GATE_NAMES = ("H", "S", "CZ", "CNOT", "X", "Z")

_SIGNS = {0: "+", 1: "+i", 2: "-", 3: "-i"}


@dataclass(frozen=True)
class PhasedPauli:
    label: PauliLabel
    phase: int  # exponent t in i^t

    def __post_init__(self):
        object.__setattr__(self, "phase", self.phase & 3)

    @property
    def n(self) -> int:
        return self.label.n

    @property
    def is_hermitian(self) -> bool:
        return self.phase in (0, 2)

    def to_string(self) -> str:
        return _SIGNS[self.phase] + self.label.to_string()

    @staticmethod
    def from_string(s: str) -> "PhasedPauli":
        """At most one sign (+, -, +i or -i), then the label's letters."""
        phase, body = 0, s
        for t, sign in ((3, "-i"), (1, "+i"), (2, "-"), (0, "+")):
            if s.startswith(sign):
                phase, body = t, s[len(sign) :]
                break
        if body.startswith(("+", "-")):
            raise ValueError(f"more than one sign in Pauli string {s!r}")
        return PhasedPauli(PauliLabel.from_string(body), phase)

    def __repr__(self):
        return f"PhasedPauli({self.to_string()!r})"


# ---------------------------------------------------------------------------
# circuits


@dataclass(frozen=True)
class CliffordCircuit:
    n: int
    gates: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        for name, qs in self.gates:
            if name not in GATE_NAMES:
                raise ValueError(f"unknown gate {name!r}")
            want = 2 if name in ("CNOT", "CZ") else 1
            if len(qs) != want or any(not 0 <= q < self.n for q in qs):
                raise ValueError(f"bad qubits {qs} for {name} on {self.n} qubits")
            if want == 2 and qs[0] == qs[1]:
                raise ValueError(f"{name} control equals target")

    @staticmethod
    def _emitted(n: int, gates) -> "CliffordCircuit":
        """A circuit of gates valid by construction (emitted by ``_PauliColumns``
        or taken from a checked circuit), built without checking them again."""
        circuit = object.__new__(CliffordCircuit)
        object.__setattr__(circuit, "n", n)
        object.__setattr__(circuit, "gates", tuple(gates))
        return circuit

    def __len__(self):
        return len(self.gates)

    def inverse(self) -> "CliffordCircuit":
        """The exact adjoint, S^dagger as S then Z; the other gates are
        self-adjoint."""
        inv = []
        for name, qs in reversed(self.gates):
            if name == "S":
                inv.append(("S", qs))
                inv.append(("Z", qs))
            else:
                inv.append((name, qs))
        return CliffordCircuit._emitted(self.n, inv)


# ---------------------------------------------------------------------------
# rows of phased Paulis as bit columns, conjugated gate by gate, exact phases,
# the reductions of canonicalization and the affine-phase form of preparation


class _PauliColumns:
    """Rows of phased Paulis packed by qubit, as Aaronson and Gottesman
    (quant-ph/0406196) keep a tableau: bit i of ``x[q]`` and ``z[q]`` is row
    i's X and Z bit at qubit q, bit i of ``sign`` the i^2 bit of its phase
    and bit i of ``ibit`` the i^1 bit, which conjugation never changes.

    ``conjugate`` is the one gate conjugation rule g P g^dagger.  Phases are
    relative to W = i^{|a&b|} X^a Z^b, which a Clifford maps to +-W', so each
    gate updates every row with a few int operations and flips only signs.
    ``reduce_pair`` emits a pair's gates one at a time and tests the bits it
    needs straight from the columns.  ``reduce_isotropic``, the one reduction
    of a commuting set to Z strings, which the canonicalizer's center and
    ``prepare`` share, conjugates and records a layer at a time and reads
    packed rows.  Rows go in and come out by a transpose over set bits."""

    def __init__(self, n: int, rows):
        self.n = n
        self.x, self.z = [0] * n, [0] * n
        self.sign = self.ibit = 0
        self.gates: list[tuple[str, tuple[int, ...]]] = []
        for i, p in enumerate(rows):
            if p.n != n:
                raise ValueError("size mismatch")
            _scatter(p.label.x, self.x, 1 << i)
            _scatter(p.label.z, self.z, 1 << i)
            self.sign |= (p.phase >> 1) << i
            self.ibit |= (p.phase & 1) << i

    def rows(self, count: int) -> list[PhasedPauli]:
        """Rows 0 .. count - 1 as phased Paulis."""
        n, mask = self.n, (1 << self.n) - 1
        return [
            PhasedPauli(PauliLabel(n, v & mask, v >> n), self.phase(i))
            for i, v in enumerate(self.packed(count))
        ]

    def packed(self, count: int, first: int = 0) -> list[int]:
        """The labels of rows first .. first + count - 1, packed as a | (b << n)."""
        out, rows = [0] * count, (1 << count) - 1
        for q in range(self.n):
            _scatter(self.x[q] >> first & rows, out, 1 << q)
            _scatter(self.z[q] >> first & rows, out, 1 << (self.n + q))
        return out

    def phase(self, i: int) -> int:
        return (((self.sign >> i) & 1) << 1) | ((self.ibit >> i) & 1)

    def conjugate(self, gates) -> None:
        """Conjugate every row by each gate of the list in turn."""
        x, z, sign = self.x, self.z, self.sign
        for name, qs in gates:
            if name == "H":
                q = qs[0]
                sign ^= x[q] & z[q]
                x[q], z[q] = z[q], x[q]
            elif name == "S":
                q = qs[0]
                sign ^= x[q] & z[q]
                z[q] ^= x[q]
            elif name == "CNOT":
                c, t = qs
                sign ^= x[c] & z[t] & ~(x[t] ^ z[c])
                x[t] ^= x[c]
                z[c] ^= z[t]
            elif name == "CZ":
                # X_a -> X_a Z_b and X_b -> Z_a X_b; the sign is H_b CNOT H_b's
                a, b = qs
                sign ^= x[a] & x[b] & (z[a] ^ z[b])
                z[a] ^= x[b]
                z[b] ^= x[a]
            elif name == "X":
                sign ^= z[qs[0]]
            elif name == "Z":
                sign ^= x[qs[0]]
            else:
                raise ValueError(f"unknown gate {name!r}")
        self.sign = sign

    def layer(self, gates: list) -> list:
        """Conjugate every row by the gates in turn, record them and return them."""
        self.conjugate(gates)
        self.gates += gates
        return gates

    def emit(self, name: str, *qs: int) -> None:
        """Conjugate every row by the gate and record it in ``gates``."""
        self.layer([(name, qs)])

    def _is_single(self, idx: int, col: list[int], q: int) -> bool:
        """Whether row idx's label is the one bit of ``col`` (``x`` or ``z``)
        at qubit q: X_q or Z_q, whatever its phase."""
        x, z, bit = self.x, self.z, 1 << idx
        other = z if col is x else x
        if not col[q] & bit or other[q] & bit:
            return False
        # each qubit the row acts on adds ``bit``: only q may
        return sum((xp | zp) & bit for xp, zp in zip(x, z)) == bit

    def _first_bit(self, col: list[int], idx: int, off: int) -> int:
        """The lowest qubit q >= off at which row idx has a bit in ``col``."""
        for q in range(off, self.n):
            if (col[q] >> idx) & 1:
                return q
        raise ValueError("no set bit above offset")

    def _make_x_at(self, idx: int, q: int) -> None:
        aq, bq = (self.x[q] >> idx) & 1, (self.z[q] >> idx) & 1
        if aq and bq:
            self.emit("S", q)
        elif bq and not aq:
            self.emit("H", q)

    def _single_to_x(self, idx: int, off: int) -> None:
        # reduce row idx (supported on qubits >= off) to +-X_off
        x, z = self.x, self.z
        if not any((x[q] >> idx) & 1 for q in range(off, self.n)):
            self.emit("H", self._first_bit(z, idx, off))
        pivot = self._first_bit(x, idx, off)
        self._make_x_at(idx, pivot)
        for q in range(off, self.n):
            if q != pivot and ((x[q] | z[q]) >> idx) & 1:
                self._make_x_at(idx, q)
                self.emit("CNOT", pivot, q)
        if pivot != off:
            self.layer([("CNOT", (off, pivot)), ("CNOT", (pivot, off)), ("CNOT", (off, pivot))])

    def reduce_pair(self, ip: int, iq: int, off: int) -> None:
        """Map the anticommuting pair to exactly (+X_off, +Z_off).

        Both operators must act trivially below ``off``; every emitted gate
        touches only qubits >= off.
        """
        if not self._is_single(ip, self.x, off):
            self._single_to_x(ip, off)
        if not self._is_single(iq, self.z, off):
            # partner anticommutes with +-X_off, so it carries Z or Y at off,
            # hence X or Y once a Hadamard swaps the roles: its reduction to
            # X_off pivots at off, and the Hadamard back leaves Z_off
            self.emit("H", off)
            self._single_to_x(iq, off)
            self.emit("H", off)
        if self.phase(ip) == 2:
            self.emit("Z", off)
        if self.phase(iq) == 2:
            self.emit("X", off)
        if not (
            self._is_single(ip, self.x, off)
            and self._is_single(iq, self.z, off)
            and self.phase(ip) == self.phase(iq) == 0
        ):
            raise AssertionError("pair reduction did not reach (+X, +Z)")

    def reduce_isotropic(self, first: int, count: int, off: int) -> tuple[list, list, list, list]:
        """Map rows first .. first + count - 1, commuting, independent and
        acting trivially below ``off``, to +-Z strings that span <Z_off, ...,
        Z_{off+count-1}>, recording each gate, a layer at a time.

        A CNOT fan-in onto the pivots of the RREF basis of the rows' X parts
        (each pivot the lowest bit of its row) leaves the element with X part
        X_p a Y at p where an S clears it and a Z at each other pivot p' where
        a CZ on (p, p') clears it; H on the pivots then leaves +-Z strings.
        Below n - off rows a CNOT fan-in onto the pivots of those strings'
        RREF basis and swaps onto off, off + 1, ... follow.  Returns the
        first four layers, the fan-in, S, CZ and H, which ``prepare`` reads."""
        n, mask = self.n, (1 << self.n) - 1
        basis = rref_basis([v & mask for v in self.packed(count, first)], n).rows
        pivots = [(v & -v).bit_length() - 1 for v in basis]
        on_pivots = sum(1 << p for p in pivots)
        fan = self.layer([("CNOT", (p, t)) for v, p in zip(basis, pivots) for t in _bits(v ^ (1 << p))])
        odd, cz = 0, []
        for v in rref_basis(self.packed(count, first), 2 * n).rows:
            if v & mask:
                p = (v & -v).bit_length() - 1
                zbits = (v >> n) & on_pivots
                odd |= zbits & (1 << p)
                cz += [("CZ", (p, t)) for t in _bits(zbits >> (p + 1) << (p + 1))]
        layers = fan, self.layer([("S", (p,)) for p in _bits(odd)]), self.layer(cz)
        layers += (self.layer([("H", (p,)) for p in pivots]),)
        if count < n - off:
            # CNOT (t, p) clears bit t of each string holding Z_p
            zs = rref_basis([v >> n for v in self.packed(count, first)], n).rows
            zp = [(v & -v).bit_length() - 1 for v in zs]
            self.layer([("CNOT", (t, p)) for v, p in zip(zs, zp) for t in _bits(v ^ (1 << p))])
            for target, p in enumerate(zp, off):
                if p != target:
                    self.layer([("CNOT", (target, p)), ("CNOT", (p, target)), ("CNOT", (target, p))])
        rows, span = ((1 << count) - 1) << first, ((1 << count) - 1) << off
        if any(self.x[q] & rows or (self.z[q] & rows and not span >> q & 1) for q in range(n)):
            raise AssertionError("isotropic reduction did not reach Z strings on the center qubits")
        return layers

    def prepare(self) -> list[tuple[str, tuple[int, ...]]]:
        """The affine-phase preparation of the state that the n rows, n
        commuting independent Hermitian generators, stabilize: H on the
        pivots of V, S and Z on them for the linear phase and CZ on pivot
        pairs for the quadratic one, a CNOT fan-out from each pivot to the
        other bits of its basis row, and X on the shift x0.

        The state is sum over x in x0 + V of i^{l(x)} (-1)^{q(x)} |x>
        (Dehaene and De Moor, quant-ph/0304125), with V spanned by the rows'
        X parts, taken in RREF (each pivot the lowest bit of its row), and
        x0 clear at the pivots.  The rows run ``reduce_isotropic``'s layers,
        whose S gates mark where l is odd and whose CZ gates are q's pairs,
        then X on the basis state y that H left.  They must end as +Z
        strings, which generate <+Z_0, ..., +Z_{n-1}>, else AssertionError."""
        n = self.n
        fan, s, cz, hs = self.reduce_isotropic(0, n, 0)
        # each row is now +-Z^w: y has parity(y & w) = the row's sign, and
        # X on y's bits clears every sign
        solved = rref_basis([v >> n | (self.sign >> i & 1) << n for i, v in enumerate(self.packed(n))], n + 1)
        y = sum((v >> n & 1) << (v & -v).bit_length() - 1 for v in solved.rows)
        self.conjugate([("X", (q,)) for q in _bits(y)])
        if any(self.x) or self.sign or self.ibit:
            raise AssertionError("preparation did not reach +Z_0, ..., +Z_{n-1}")
        # the rows ran i^(s + 2z) on each pivot, s for its S and z for its X
        # after H (a Z before it): the preparation applies i^c with
        # c = -(s + 2z) mod 4, an S for odd c and a Z for c = 2 or 3; the
        # other bits of y are the shift x0
        on_pivots, diag = 0, []
        for _, (p,) in hs:
            on_pivots |= 1 << p
            c = -((("S", (p,)) in s) + 2 * (y >> p & 1)) & 3
            diag += [("S", (p,))] * (c & 1) + [("Z", (p,))] * (c >> 1)
        xs = [("X", (q,)) for q in _bits(y & ~on_pivots)]
        return hs + diag + cz + fan + xs


def _bits(v: int):
    """The indices of the set bits of v, lowest first."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def _scatter(bits: int, out: list[int], bit: int) -> None:
    """OR ``bit`` into out[i] for each set bit i of ``bits``: applied to every
    row, or to every column, it transposes packed bits between the two."""
    while bits:
        low = bits & -bits
        out[low.bit_length() - 1] |= bit
        bits ^= low


def conjugate(
    circuit: CliffordCircuit, p: PhasedPauli | Sequence[PhasedPauli]
) -> PhasedPauli | tuple[PhasedPauli, ...]:
    """Exact U P U^dagger for the unitary U the circuit applies.  ``p`` is one
    ``PhasedPauli`` or a sequence of them; a sequence makes one pass through
    the circuit and comes back as a tuple in its order."""
    if isinstance(p, PhasedPauli):
        return conjugate(circuit, (p,))[0]
    rows = tuple(p)
    cols = _PauliColumns(circuit.n, rows)
    cols.conjugate(circuit.gates)
    return tuple(cols.rows(len(rows)))


def canonicalize_subgroup(generators) -> tuple[CliffordCircuit, int, int]:
    """Returns the emitted circuit U and (k, m), with the span of the
    conjugated generators equal, as an unsigned set, to
    <Z_0, X_0, ..., Z_{k-1}, X_{k-1}> times the center <Z_k, ..., Z_{k+m-1}>:
    the k symplectic pairs land on the first k qubits and the center on the
    m qubits after them.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].n
    if any(g.n != n for g in generators):
        raise ValueError("generators of different lengths")
    center, pairs = symplectic_gram_schmidt([g.to_vector() for g in generators], n)
    k, m = len(pairs), len(center)
    rows = [v for pair in pairs for v in pair] + list(center)
    cols = _PauliColumns(n, signed_generators(n, rows, 0))
    for i in range(k):
        cols.reduce_pair(2 * i, 2 * i + 1, i)
    cols.reduce_isotropic(2 * k, m, k)
    return CliffordCircuit._emitted(n, cols.gates), k, m


# ---------------------------------------------------------------------------
# stabilizer states


def signed_generators(n: int, rows, signs: int) -> tuple[PhasedPauli, ...]:
    """Hermitian generators from packed label rows (``PauliLabel.to_vector``
    on n qubits): bit i of ``signs`` negates row i."""
    return tuple(
        PhasedPauli(PauliLabel.from_vector(n, v), 2 * ((signs >> i) & 1))
        for i, v in enumerate(rows)
    )


@dataclass(frozen=True)
class StabilizerState:
    """n commuting, independent, Hermitian signed generators.

    The stabilized vector is unique; its global phase is fixed by making the
    amplitude of the smallest-index basis state with nonzero amplitude real
    positive.
    """

    n: int
    generators: tuple[PhasedPauli, ...]
    _cache: dict = field(default_factory=dict, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if len(self.generators) != self.n:
            raise ValueError("need exactly n generators")
        for g in self.generators:
            if g.n != self.n or not g.is_hermitian:
                raise ValueError("generators must be Hermitian n-qubit Paulis")
        # pairwise commuting labels form no pair; independent ones all join the center
        rows = [g.label.to_vector() for g in self.generators]
        center, pairs = symplectic_gram_schmidt(rows, self.n)
        if pairs:
            raise ValueError("generators must commute")
        if len(center) != self.n:
            raise ValueError("generator labels must be independent")

    def to_json(self) -> list[str]:
        return [g.to_string() for g in self.generators]

    @staticmethod
    def from_json(strings: list[str]) -> "StabilizerState":
        gens = tuple(PhasedPauli.from_string(s) for s in strings)
        if not gens:
            raise ValueError("need at least one generator")
        return StabilizerState(gens[0].n, gens)

    def sort_key(self) -> tuple[str, ...]:
        return tuple(sorted(g.to_string() for g in self.generators))

    def _prep(self) -> tuple[CliffordCircuit, np.ndarray]:
        """The affine-phase preparation circuit (``_PauliColumns.prepare``)
        and the canonical vector, from one synthesis and one dense
        preparation per state.  The circuit prepares that vector times an
        8th root of unity."""
        if "prep" not in self._cache:
            circuit = CliffordCircuit._emitted(
                self.n, _PauliColumns(self.n, self.generators).prepare()
            )
            amps = kernels.apply_gates(kernels.zero_state(self.n), circuit.gates)
            factor = _canonical_phase_factor(amps)
            if abs(factor**8 - 1) > 1e-9:
                raise AssertionError("prep phase is not an 8th root of unity")
            self._cache["prep"] = circuit, amps * factor
        return self._cache["prep"]

    def __repr__(self):
        return f"StabilizerState({self.to_json()})"


def _canonical_phase_factor(amps: np.ndarray) -> np.ndarray:
    """|lead| / lead along the last axis of ``amps``, lead being each row's
    first amplitude above 1e-9 in magnitude: its canonical-phase factor."""
    first = np.argmax(np.abs(amps) > 1e-9, axis=-1)
    lead = np.take_along_axis(amps, first[..., None], axis=-1)[..., 0]
    return np.abs(lead) / lead


def statevector_of(state: StabilizerState) -> np.ndarray:
    """Dense amplitudes under the global-phase convention."""
    return state._prep()[1]


def stab_state_prep(state: StabilizerState) -> CliffordCircuit:
    """Circuit mapping |0...0> to the stabilized state up to an 8th root of
    unity: it prepares omega^j ``statevector_of(state)`` for some j, with
    omega = exp(i pi/4).  A linear combination of such circuits absorbs the
    root into its coefficient, so no gate is spent on the global phase."""
    return state._prep()[0]


def stabilizer_inner_product(s1: StabilizerState, s2: StabilizerState) -> complex:
    """Exact overlap <s1|s2> under the global-phase convention."""
    if s1.n != s2.n:
        raise ValueError("size mismatch")
    return complex(np.vdot(statevector_of(s1), statevector_of(s2)))


# ---------------------------------------------------------------------------
# isotropic subspaces (the exact oracles' search space)

ORACLE_MAX_QUBITS = 5


@lru_cache(maxsize=None)
def isotropic_subspaces(n: int, d: int) -> np.ndarray:
    """Every d-dimensional isotropic subspace of F_2^{2n} as one row of a
    read-only (N, d) array: its RREF basis, in ``rref_basis`` order.

    For each pivot pattern p_0 < ... < p_{d-1} (a pivot is its row's lowest
    set bit), row i is set at p_i, clear below it and at the other pivots,
    and free elsewhere; a partial basis is dropped as soon as its newest row
    fails to commute with one above it.  Refused above ORACLE_MAX_QUBITS."""
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got d = {d}, n = {n}")
    if n > ORACLE_MAX_QUBITS:
        count = prod(4 ** (n - i) - 1 for i in range(d)) // prod(2 ** (i + 1) - 1 for i in range(d))
        raise ValueError(
            f"exact oracle capped at n <= {ORACLE_MAX_QUBITS}: n = {n} has "
            f"{count} isotropic subspaces of dimension {d}"
        )
    nbits, mask = 2 * n, (1 << n) - 1
    blocks = []
    for pivots in combinations(range(nbits), d):
        rows = np.zeros((1, 0), dtype=np.int64)
        for i, p in enumerate(pivots):
            free = np.array([b for b in range(p + 1, nbits) if b not in pivots], dtype=np.int64)
            fills = np.arange(1 << free.shape[0], dtype=np.int64)[:, None]
            cand = (1 << p) | (((fills >> np.arange(free.shape[0])) & 1) << free).sum(axis=1)
            # [u, v] = parity of u & swap(v), swap exchanging the x and z halves
            swapped = ((cand & mask) << n) | (cand >> n)
            ok = np.ones((rows.shape[0], cand.shape[0]), dtype=bool)
            for j in range(i):
                ok &= (np.bitwise_count(rows[:, j : j + 1] & swapped) & 1) == 0
            ri, ci = np.nonzero(ok)
            rows = np.column_stack([rows[ri], cand[ci]])
        blocks.append(rows.astype(np.int32))
    out = np.concatenate(blocks)
    out.flags.writeable = False
    return out


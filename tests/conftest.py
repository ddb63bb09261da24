from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations

import numpy as np
import pytest

from stabcorrect import kernels
from stabcorrect.gf2 import Gf2Basis, PauliLabel, rref_basis
from stabcorrect.harness import _random_clifford_gates
from stabcorrect.ledger import CostLedger
from stabcorrect.pauli import (
    CliffordCircuit,
    _PauliColumns,
    PhasedPauli,
    StabilizerState,
    canonicalize_subgroup,
    conjugate,
    isotropic_subspaces,
    stabilizer_inner_product,
    statevector_of,
)
from stabcorrect.selfcorrect import _edge_batch
from stabcorrect.statevec import (
    StateVector,
    _differences,
    _label_cdf,
    expectation_squares,
    overlap,
    sample_retained,
    statevector_of_stab,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_label(n, rng):
    return PauliLabel(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))


def random_phased(n, rng):
    return PhasedPauli(random_label(n, rng), int(rng.integers(4)))


def random_label_set(n, rng):
    """1 to 2n + 2 labels, each a zero row, a repeat of an earlier one, the
    sum of two earlier ones or a uniform label, in about equal shares."""
    labels = []
    for _ in range(int(rng.integers(1, 2 * n + 3))):
        kind = int(rng.integers(4)) if labels else 3
        if kind == 0:
            labels.append(PauliLabel(n, 0, 0))
        elif kind == 1:
            labels.append(labels[int(rng.integers(len(labels)))])
        elif kind == 2:
            a, b = (labels[int(i)] for i in rng.integers(len(labels), size=2))
            labels.append(label_sum(a, b))
        else:
            labels.append(random_label(n, rng))
    return labels


# ---------------------------------------------------------------------------
# label arithmetic and symplectic Gram-Schmidt on PauliLabel objects: the
# references the package's packed-row routine is checked against


def span_reduce(basis: Gf2Basis, v: int) -> int:
    """v with every pivot bit of ``basis`` (each row's lowest set bit)
    cleared by its rows: the same value for all of v's coset of the span, 0
    for the span itself."""
    for row in basis.rows:
        if v & row & -row:
            v ^= row
    return v


def rref_basis_from_labels(labels) -> Gf2Basis:
    """``rref_basis`` of the labels' packed rows, n read off the first."""
    labels = list(labels)
    if not labels:
        raise ValueError("cannot infer length from an empty label list")
    return rref_basis([lab.to_vector() for lab in labels], 2 * labels[0].n)


def enumerate_span(basis: Gf2Basis) -> list[int]:
    """Every vector of the span of ``basis``, 0 first."""
    out = [0]
    for row in basis.rows:
        out += [w ^ row for w in out]
    return out


def label_sum(a: PauliLabel, b: PauliLabel) -> PauliLabel:
    """a + b in F_2^{2n}: the label of W_a W_b up to phase."""
    _check_len(a, b)
    return PauliLabel(a.n, a.x ^ b.x, a.z ^ b.z)


def _check_len(a: PauliLabel, b: PauliLabel) -> None:
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")


def symplectic_product(a: PauliLabel, b: PauliLabel) -> int:
    """[a, b] = <a_x, b_z> + <a_z, b_x> mod 2; 0 iff W_a and W_b commute."""
    _check_len(a, b)
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) & 1


def pauli_product(p: PhasedPauli, q: PhasedPauli) -> PhasedPauli:
    """Exact operator product, including the i-power phase."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    ax, bx = p.label.x, p.label.z
    ay, by = q.label.x, q.label.z
    a, b = ax ^ ay, bx ^ by
    theta = (
        (ax & bx).bit_count()
        + (ay & by).bit_count()
        + 2 * (bx & ay).bit_count()
        - (a & b).bit_count()
    )
    return PhasedPauli(PauliLabel(p.n, a, b), p.phase + q.phase + theta)


@dataclass(frozen=True)
class SgsDecomposition:
    """Commuting center plus hyperbolic pairs generating the input span."""

    center: tuple[PauliLabel, ...]
    pairs: tuple[tuple[PauliLabel, PauliLabel], ...]


def symplectic_gram_schmidt_reference(generators) -> SgsDecomposition:
    """The split ``gf2.symplectic_gram_schmidt`` makes, on label objects,
    with one ``rref_basis`` of the center so far per center candidate."""
    work = [g for g in generators if g.x or g.z]
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
            if span_reduce(span, g.to_vector()):
                center.append(g)
            continue
        pairs.append((g, mate))
        for i, v in enumerate(work):
            a = symplectic_product(v, mate)
            b = symplectic_product(v, g)
            if a:
                v = label_sum(v, g)
            if b:
                v = label_sum(v, mate)
            work[i] = v
        work = [v for v in work if v.x or v.z]
    return SgsDecomposition(tuple(center), tuple(pairs))


def random_clifford_gates_reference(n, rng, length):
    """The scalar law of ``harness._random_clifford_gates``: per gate, a
    kind uniform over H, S, X, Z and (for n > 1) CNOT, then a uniform qubit,
    or a uniform control c and a uniform target among the other n - 1."""
    gates = []
    while len(gates) < length:
        kind = int(rng.integers(0, 4 if n == 1 else 5))
        if kind == 4:
            c = int(rng.integers(n))
            t = int(rng.integers(n - 1))
            t = t if t < c else t + 1
            gates.append(("CNOT", (c, t)))
        else:
            gates.append((("H", "S", "X", "Z")[kind], (int(rng.integers(n)),)))
    return gates


def random_circuit(n, rng, length=None):
    length = length if length is not None else 4 * n * n + 4
    return CliffordCircuit(n, tuple(_random_clifford_gates(n, rng, length)))


def with_cz(gates, n, rng):
    """The gate list with a CZ on a uniform ordered pair of distinct qubits
    after each gate with probability 1/4 (none for n = 1)."""
    out = []
    for gate in gates:
        out.append(gate)
        if n > 1 and rng.random() < 0.25:
            a, b = rng.choice(n, size=2, replace=False)
            out.append(("CZ", (int(a), int(b))))
    return out


def random_cz_circuit(n, rng, length=None):
    """``random_circuit`` with CZ gates mixed in by ``with_cz``."""
    return CliffordCircuit(n, tuple(with_cz(random_circuit(n, rng, length).gates, n, rng)))


def basis_state(n: int) -> StateVector:
    """|0...0> on n qubits."""
    return StateVector(n, kernels.zero_state(n))


def t_state():
    return StateVector(1, np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2))


# ---------------------------------------------------------------------------
# dense references the package is checked against


def tensor(a: StateVector, b: StateVector) -> StateVector:
    # the second factor occupies the higher qubit indices
    return StateVector(a.n + b.n, np.kron(b.amps, a.amps))


def apply_weyl(psi: StateVector, label: PauliLabel) -> StateVector:
    """Exact action of i^{|a&b|} X^a Z^b, through its dense matrix."""
    if label.n != psi.n:
        raise ValueError("size mismatch")
    return StateVector(psi.n, weyl_matrix(PhasedPauli(label, 0)) @ psi.amps)


def weyl_expectation(psi: StateVector, label: PauliLabel) -> float:
    """<psi|W_x|psi>, real for pure states, in [-1, 1]."""
    val = np.vdot(psi.amps, apply_weyl(psi, label).amps)
    return float(val.real)


GATE_MATRICES = {
    "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    "S": np.diag([1, 1j]),
    "T": np.diag([1, np.exp(1j * np.pi / 4)]),
    "X": np.array([[0, 1], [1, 0]]),
    "Z": np.diag([1, -1]),
    # basis order |control, target>
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "CZ": np.diag([1, 1, 1, -1]),
}


def gate_matrix(name: str, qs: tuple[int, ...], n: int) -> np.ndarray:
    """Dense matrix of one gate on n qubits: each entry m[r, c] of its
    explicit matrix, with qs[0] the leading bit of r and c, contributes
    m[r, c] times the Kronecker product of |r_q><c_q| on the gate's qubits
    and the identity elsewhere, qubit n - 1 first."""
    m, k = GATE_MATRICES[name], len(qs)
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for r, c in zip(*np.nonzero(m)):
        facs = []
        for q in range(n - 1, -1, -1):
            e = np.eye(2)
            if q in qs:
                bit = k - 1 - qs.index(q)
                e = np.zeros((2, 2))
                e[(r >> bit) & 1, (c >> bit) & 1] = 1.0
            facs.append(e)
        out += m[r, c] * reduce(np.kron, facs)
    return out


def apply_gates_reference(amps: np.ndarray, gates) -> np.ndarray:
    """``kernels.apply_gates`` one gate at a time: each gate reshapes the
    copy around its qubits, swaps halves through a copy of one of them, and
    applies H as (a + b) * sqrt(1/2) and (a - b) * sqrt(1/2) with a fresh
    sum array.  The package's kernel must match it byte for byte."""
    out = np.array(amps, dtype=complex, order="C")
    dim, inner = out.shape[0], out[:1].size
    scale = np.sqrt(0.5)
    for name, qs in gates:
        if name in ("CNOT", "CZ"):
            c, t = qs
            hi, lo = max(c, t), min(c, t)
            v = out.reshape(dim >> (hi + 1), 2, 1 << (hi - lo - 1), 2, inner << lo)
            if name == "CZ":
                np.negative(v[:, 1, :, 1], out=v[:, 1, :, 1])
                continue
            # the halves of the target bit where the control bit is set
            a, b = (v[:, 1, :, 0], v[:, 1, :, 1]) if c > t else (v[:, 0, :, 1], v[:, 1, :, 1])
            a[...], b[...] = b, a.copy()
            continue
        (q,) = qs
        v = out.reshape(dim >> (q + 1), 2, inner << q)
        a, b = v[:, 0], v[:, 1]
        if name == "H":
            s = a + b
            np.subtract(a, b, out=b)
            np.multiply(s, scale, out=a)
            b *= scale
        elif name == "S":
            b *= 1j
        elif name == "T":
            b *= np.exp(1j * np.pi / 4)
        elif name == "X":
            a[...], b[...] = b, a.copy()
        elif name == "Z":
            np.negative(b, out=b)
        else:
            raise ValueError(f"unknown gate {name!r}")
    return out


def weyl_matrix(p: PhasedPauli) -> np.ndarray:
    """Dense matrix of the operator, for checks at small n."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    I2 = np.eye(2, dtype=complex)
    facs = []
    for q in range(p.n - 1, -1, -1):
        aq, bq = (p.label.x >> q) & 1, (p.label.z >> q) & 1
        m = I2
        if aq:
            m = X
        if bq:
            m = m @ Z if aq else Z
        facs.append(m)
    mat = reduce(np.kron, facs) if facs else np.eye(1, dtype=complex)
    phase = 1j ** ((p.phase + (p.label.x & p.label.z).bit_count()) % 4)
    return phase * mat


def clifford_from_anticommuting_pair(p: PhasedPauli, q: PhasedPauli) -> CliffordCircuit:
    """The circuit U the package's reducer emits for one pair, with
    U p U^dagger = +X_0 and U q U^dagger = +Z_0."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    if not (p.is_hermitian and q.is_hermitian):
        raise ValueError("inputs must be Hermitian signed Paulis")
    if symplectic_product(p.label, q.label) == 0:
        raise ValueError("inputs commute")
    cols = _PauliColumns(p.n, [p, q])
    cols.reduce_pair(0, 1, 0)
    return CliffordCircuit(p.n, tuple(cols.gates))


# ---------------------------------------------------------------------------
# per-row conjugation and reduction: the references the package's bit-column
# rule and reducer are checked against, one PhasedPauli per row per gate


def _conj_bits(name: str, qs: tuple[int, ...], a: int, b: int) -> tuple[int, int, int]:
    """One gate's conjugation rule: g X^a Z^b g^dagger = i^u X^a' Z^b',
    returned as (a', b', u)."""
    u = 0
    if name == "H":
        bit = 1 << qs[0]
        aq, bq = a & bit, b & bit
        if aq and bq:
            u = 2
        a = (a & ~bit) | (bit if bq else 0)
        b = (b & ~bit) | (bit if aq else 0)
    elif name == "S":
        bit = 1 << qs[0]
        if a & bit:
            b ^= bit
            u = 1
    elif name == "CNOT":
        cbit, tbit = 1 << qs[0], 1 << qs[1]
        if a & cbit:
            a ^= tbit
        if b & tbit:
            b ^= cbit
    elif name == "CZ":
        # X_c X_t -> X_c Z_t Z_c X_t = -X_c X_t Z_c Z_t
        cbit, tbit = 1 << qs[0], 1 << qs[1]
        if a & cbit:
            b ^= tbit
        if a & tbit:
            b ^= cbit
        if a & cbit and a & tbit:
            u = 2
    elif name == "X":
        if b & (1 << qs[0]):
            u = 2
    elif name == "Z":
        if a & (1 << qs[0]):
            u = 2
    else:
        raise ValueError(f"unknown gate {name!r}")
    return a, b, u


def _conj_gate(name: str, qs: tuple[int, ...], p: PhasedPauli) -> PhasedPauli:
    a, b = p.label.x, p.label.z
    a2, b2, u = _conj_bits(name, qs, a, b)
    # through the bare form i^t X^a Z^b, with t = phase + |a&b|
    t = p.phase + (a & b).bit_count() + u
    return PhasedPauli(PauliLabel(p.n, a2, b2), t - (a2 & b2).bit_count())


def conjugate_reference(circuit: CliffordCircuit, p: PhasedPauli) -> PhasedPauli:
    """U P U^dagger, one gate at a time."""
    if circuit.n != p.n:
        raise ValueError("size mismatch")
    for name, qs in circuit.gates:
        p = _conj_gate(name, qs, p)
    return p


class RowReducer:
    """The reduction the package's ``_PauliColumns`` runs, on a list of
    PhasedPaulis: each emitted gate conjugates every tracked row in turn."""

    def __init__(self, n: int, tracked: list[PhasedPauli]):
        self.n = n
        self.tracked = tracked
        self.gates: list[tuple[str, tuple[int, ...]]] = []

    def emit(self, name: str, *qs: int) -> None:
        self.gates.append((name, qs))
        self.tracked[:] = [_conj_gate(name, qs, p) for p in self.tracked]

    def _first_bit(self, mask: int, off: int) -> int:
        m = mask >> off
        if m == 0:
            raise ValueError("no set bit above offset")
        return (m & -m).bit_length() - 1 + off

    def _make_x_at(self, idx: int, q: int) -> None:
        p = self.tracked[idx]
        aq, bq = (p.label.x >> q) & 1, (p.label.z >> q) & 1
        if aq and bq:
            self.emit("S", q)
        elif bq and not aq:
            self.emit("H", q)

    def _single_to_x(self, idx: int, off: int, target: int) -> None:
        p = self.tracked[idx]
        if p.label.x >> off == 0:
            self.emit("H", self._first_bit(p.label.z, off))
        pivot = self._first_bit(self.tracked[idx].label.x, off)
        self._make_x_at(idx, pivot)
        p = self.tracked[idx]
        for q in range(off, self.n):
            if q == pivot:
                continue
            if ((p.label.x >> q) & 1) or ((p.label.z >> q) & 1):
                self._make_x_at(idx, q)
                self.emit("CNOT", pivot, q)
        if pivot != target:
            self.emit("CNOT", target, pivot)
            self.emit("CNOT", pivot, target)
            self.emit("CNOT", target, pivot)

    def reduce_pair(self, ip: int, iq: int, off: int) -> None:
        xoff = PauliLabel(self.n, 1 << off, 0)
        zoff = PauliLabel(self.n, 0, 1 << off)
        if self.tracked[ip].label != xoff:
            self._single_to_x(ip, off, off)
        if self.tracked[iq].label != zoff:
            self.emit("H", off)
            q_op = self.tracked[iq]
            if (q_op.label.z >> off) & 1:
                self.emit("S", off)
            q_op = self.tracked[iq]
            for q in range(off + 1, self.n):
                if ((q_op.label.x >> q) & 1) or ((q_op.label.z >> q) & 1):
                    self._make_x_at(iq, q)
                    self.emit("CNOT", off, q)
            self.emit("H", off)
        if self.tracked[ip].phase == 2:
            self.emit("Z", off)
        if self.tracked[iq].phase == 2:
            self.emit("X", off)
        if (self.tracked[ip], self.tracked[iq]) != (PhasedPauli(xoff, 0), PhasedPauli(zoff, 0)):
            raise AssertionError("pair reduction did not reach (+X, +Z)")

    def reduce_isotropic(self, first: int, count: int, off: int) -> None:
        """The layered isotropic reduction, each layer read off the tracked
        rows first .. first + count - 1 as PhasedPauli objects and emitted a
        gate at a time: the CNOT fan-in onto the pivots of their X parts' RREF
        basis, S where an element with X part X_p has a Y at p, CZ (p, p')
        where it has a Z at a later pivot p', H on the pivots and, below
        n - off rows, the CNOT fan-in onto their Z strings' pivots and the
        swaps onto off, off + 1, ..."""
        n = self.n

        def low(v):
            return (v & -v).bit_length() - 1

        def rows():
            return self.tracked[first : first + count]

        xbasis = rref_basis([p.label.x for p in rows()], n).rows
        pivots = [low(v) for v in xbasis]
        for v, p in zip(xbasis, pivots):
            for t in range(n):
                if t != p and (v >> t) & 1:
                    self.emit("CNOT", p, t)
        s_gates, cz_gates = [], []
        for v in rref_basis([p.label.to_vector() for p in rows()], 2 * n).rows:
            if v & ((1 << n) - 1):
                p, zpart = low(v), v >> n
                s_gates += [p] if (zpart >> p) & 1 else []
                cz_gates += [(p, t) for t in pivots if t > p and (zpart >> t) & 1]
        for p in sorted(s_gates):
            self.emit("S", p)
        for pair in cz_gates:
            self.emit("CZ", *pair)
        for p in pivots:
            self.emit("H", p)
        if count < n - off:
            zbasis = rref_basis([p.label.z for p in rows()], n).rows
            for v in zbasis:
                for t in range(n):
                    if t != low(v) and (v >> t) & 1:
                        self.emit("CNOT", t, low(v))
            for target, v in enumerate(zbasis, off):
                if low(v) != target:
                    for c, t in ((target, low(v)), (low(v), target), (target, low(v))):
                        self.emit("CNOT", c, t)
        span = ((1 << count) - 1) << off
        if any(p.label.x or p.label.z & ~span for p in rows()):
            raise AssertionError("isotropic reduction did not reach Z strings on the center qubits")


def canonicalize_reference(generators):
    """The gates ``canonicalize_subgroup`` emits, from the per-row reducer
    on the same symplectic Gram-Schmidt output."""
    generators = list(generators)
    n = generators[0].n
    sgs = symplectic_gram_schmidt_reference(generators)
    k, m = len(sgs.pairs), len(sgs.center)
    tracked = [PhasedPauli(lab, 0) for pair in sgs.pairs for lab in pair]
    tracked += [PhasedPauli(lab, 0) for lab in sgs.center]
    red = RowReducer(n, tracked)
    for i in range(k):
        red.reduce_pair(2 * i, 2 * i + 1, i)
    red.reduce_isotropic(2 * k, m, k)
    return tuple(red.gates), k, m


def weyl_apply(p: PhasedPauli, v: np.ndarray) -> np.ndarray:
    """i^t W_(a,b) v for p = i^t W_(a,b), from
    W_(a,b)|j> = i^{|a&b|} (-1)^{|b&j|} |j ^ a>, with no dense matrix."""
    a, b = p.label.x, p.label.z
    j = np.arange(1 << p.n)
    out = np.empty_like(v)
    phase = 1j ** ((p.phase + (a & b).bit_count()) % 4)
    out[j ^ a] = phase * (1.0 - 2.0 * (np.bitwise_count(j & b) & 1)) * v
    return out


def projected_vector(state: StabilizerState) -> np.ndarray:
    """The canonical vector from the projector prod_i (1 + g_i) / 2 applied
    to a fixed random vector one generator at a time, normalized, with its
    first amplitude above 1e-9 made real positive: no preparation circuit
    and no 2^n x 2^n matrix, so it reaches n = 12."""
    rng = np.random.default_rng(0)
    v = rng.normal(size=1 << state.n) + 1j * rng.normal(size=1 << state.n)
    for g in state.generators:
        v = (v + weyl_apply(g, v)) / 2
    v /= np.linalg.norm(v)
    lead = v[np.flatnonzero(np.abs(v) > 1e-9)[0]]
    return v * abs(lead) / lead


def affine_form_counts(vec: np.ndarray) -> dict[str, int]:
    """Gates per kind of the affine-phase preparation of a stabilizer state,
    read off its amplitudes: the support is x0 + V, with V's RREF rows v_i
    (pivots p_i, their lowest bits) and x0 clear at the pivots; the phase
    relative to x0 is i^{c_i} at x0 + v_i and i^{c_i + c_j} (-1)^{q_ij} at
    x0 + v_i + v_j.  H: r = dim V; CNOT: the non-pivot bits of the v_i;
    S: odd c_i; Z: c_i = 2 or 3; CZ: q_ij = 1; X: the bits of x0."""
    support = [int(x) for x in np.flatnonzero(np.abs(vec) > 1e-9)]
    basis = rref_basis([x ^ support[0] for x in support], len(vec).bit_length() - 1)
    x0 = span_reduce(basis, support[0])

    def power(x):
        return int(np.rint(np.angle(vec[x] / vec[x0]) / (np.pi / 2))) % 4

    rows = basis.rows
    c = [power(x0 ^ v) for v in rows]
    pairs = combinations(range(len(rows)), 2)
    return {
        "H": len(rows),
        "CNOT": sum(v.bit_count() - 1 for v in rows),
        "CZ": sum((power(x0 ^ rows[i] ^ rows[j]) - c[i] - c[j]) % 4 == 2 for i, j in pairs),
        "S": sum(k & 1 for k in c),
        "Z": sum(k >> 1 for k in c),
        "X": x0.bit_count(),
    }


# ---------------------------------------------------------------------------
# Clifford tableaus: the references circuit conjugation, inversion and the
# reducer are checked against


@dataclass(frozen=True)
class CliffordTableau:
    """Images of X_q and Z_q under conjugation, as Hermitian signed Paulis."""

    n: int
    x_images: tuple[PhasedPauli, ...]
    z_images: tuple[PhasedPauli, ...]

    @staticmethod
    def identity(n: int) -> "CliffordTableau":
        xs = tuple(PhasedPauli(PauliLabel(n, 1 << q, 0), 0) for q in range(n))
        zs = tuple(PhasedPauli(PauliLabel(n, 0, 1 << q), 0) for q in range(n))
        return CliffordTableau(n, xs, zs)

    def is_valid(self) -> bool:
        imgs = self.x_images + self.z_images
        if any(not p.is_hermitian for p in imgs):
            return False
        base = CliffordTableau.identity(self.n)
        ref = base.x_images + base.z_images
        for i in range(2 * self.n):
            for j in range(i + 1, 2 * self.n):
                if symplectic_product(imgs[i].label, imgs[j].label) != symplectic_product(
                    ref[i].label, ref[j].label
                ):
                    return False
        labs = [p.label.to_vector() for p in imgs]
        return len(rref_basis(labs, 2 * self.n).rows) == 2 * self.n


def tableau_from_circuit(circuit: CliffordCircuit) -> CliffordTableau:
    base = CliffordTableau.identity(circuit.n)
    images = conjugate(circuit, base.x_images + base.z_images)
    return CliffordTableau(circuit.n, images[: circuit.n], images[circuit.n :])


def synthesize_circuit(tableau: CliffordTableau) -> CliffordCircuit:
    """Gate list whose extracted tableau reproduces the input exactly,
    including signs; O(n^2) gates, from the package's pair reducer."""
    n = tableau.n
    cols = _PauliColumns(n, list(tableau.x_images) + list(tableau.z_images))
    for j in range(n):
        cols.reduce_pair(j, n + j, j)
    # gates compose to tableau^{-1}; invert the list
    return CliffordCircuit(n, tuple(cols.gates)).inverse()


def all_rows(center, pairs) -> list[int]:
    """The center, then each pair's two members."""
    return list(center) + [v for pair in pairs for v in pair]


def is_isotropic(basis: Gf2Basis, n: int) -> bool:
    """All pairwise symplectic products among the rows vanish."""
    labels = basis.labels(n)
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if symplectic_product(labels[i], labels[j]):
                return False
    return True


def is_lagrangian(basis: Gf2Basis, n: int) -> bool:
    return len(basis.rows) == n and is_isotropic(basis, n)


# ---------------------------------------------------------------------------
# dense references for the exact stabilizer oracles


@lru_cache(maxsize=None)
def stabilizer_state_matrix(n):
    """Every n-qubit stabilizer state, sorted by ``sort_key``, plus the stacked
    matrix of their canonical statevectors: one Lagrangian subspace with
    every sign pattern at a time.  Each vector comes from its projector
    prod_i (1 + (-1)^{eps_i} W_i) / 2 = |v><v|, whose entries are exact, not
    from the package's preparation: column j, the first with a nonzero
    diagonal entry, is v conj(v_j), so over sqrt(|v_j|^2) it is v with v_j
    real positive."""
    states, vecs = [], []
    eye = np.eye(1 << n)
    for rows in isotropic_subspaces(n, n).tolist():
        labels = [PauliLabel.from_vector(n, v) for v in rows]
        weyls = [weyl_matrix(PhasedPauli(lab, 0)) for lab in labels]
        for eps in range(1 << n):
            signs = [2 * ((eps >> i) & 1) for i in range(n)]
            proj = reduce(np.matmul, [(eye + (1 - s) * w) / 2 for s, w in zip(signs, weyls)])
            j = np.flatnonzero(proj.diagonal().real > 1e-9)[0]
            vecs.append(proj[:, j] / np.sqrt(proj[j, j].real))
            states.append(StabilizerState(n, tuple(map(PhasedPauli, labels, signs))))
    order = sorted(range(len(states)), key=lambda i: states[i].sort_key())
    return tuple(states[i] for i in order), np.array([vecs[i] for i in order])


def enumerate_stabilizer_states(n):
    """The catalog as a duplicate-free list, sorted by ``sort_key``."""
    return list(stabilizer_state_matrix(n)[0])


def nearest_eighth_root(out, ref):
    """The 8th root of unity w whose w * ref is nearest ``out`` in max norm:
    a preparation circuit's output is its state's canonical vector times
    one such root."""
    roots = np.exp(1j * np.pi * np.arange(8) / 4)
    return roots[np.argmin(np.abs(out - roots[:, None] * ref).max(axis=1))]


def catalog_stab_fidelity(psi):
    """Max overlap^2 over the catalog; the first entry within 1e-12 of the
    maximum wins, so ties break by serialization order."""
    states, matrix = stabilizer_state_matrix(psi.n)
    vals = np.abs(matrix.conj() @ psi.amps) ** 2
    best = float(vals.max())
    return best, states[int(np.argmax(vals >= best - 1e-12))]


def rotation_stab_dim_fidelity(states, t):
    """Max overlap^2 with stabilizer dimension >= n - t, for each of the
    n-qubit ``states``, by rotation: the canonicalizer carries each
    (n - t)-dimensional isotropic subspace onto the Z operators of the
    first n - t qubits, where the best overlap is the heaviest branch weight.
    One rotation serves every state."""
    n = states[0].n
    if t == n:
        return np.ones(len(states))
    amps = np.stack([psi.amps for psi in states], axis=1)
    best = np.zeros(len(states))
    for rows in isotropic_subspaces(n, n - t):
        labels = [PauliLabel.from_vector(n, int(v)) for v in rows]
        circuit, _, _ = canonicalize_subgroup(labels)
        rotated = kernels.apply_gates(amps, circuit.gates)
        weights = (np.abs(rotated.reshape(1 << t, 1 << (n - t), -1)) ** 2).sum(axis=0)
        best = np.maximum(best, weights.max(axis=0))
    return best


def planted_state(n, rng, weight=0.9):
    """sqrt(w)|s> + sqrt(1-w)|junk orthogonal>, with the plant returned."""
    states = enumerate_stabilizer_states(n)
    s = states[int(rng.integers(len(states)))]
    sv = statevector_of(s)
    junk = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    junk -= np.vdot(sv, junk) * sv
    junk /= np.linalg.norm(junk)
    return s, StateVector(n, np.sqrt(weight) * sv + np.sqrt(1 - weight) * junk)


def orthogonal_stab_pair(n, rng):
    """Two stabilizer states with exactly zero overlap."""
    states = enumerate_stabilizer_states(n)
    while True:
        s1 = states[int(rng.integers(len(states)))]
        v1 = statevector_of(s1)
        order = rng.permutation(len(states))
        for j in order:
            s2 = states[int(j)]
            if abs(np.vdot(v1, statevector_of(s2))) < 1e-12:
                return s1, s2


def expectation_table(psi):
    """All 4^n signed expectations <W_x>, indexed by ``PauliLabel.to_vector``."""
    return signed_expectations(psi.amps, psi.n)


_SIGN = np.array([1.0, -1.0, -1.0, 1.0])  # the phase's sign, by |a&b| mod 4


def signed_expectations(amps, n):
    """All 4^n expectations <psi|W_(a,b)|psi>, indexed by a | (b << n):
    ``kernels.unsigned_expectations`` with the sign it leaves off put back."""
    idx = np.arange(1 << (2 * n))
    return kernels.unsigned_expectations(amps, n) * _SIGN[np.bitwise_count(idx & (idx >> n)) & 3]


def table_states(n, rng):
    """Amplitudes of a Haar state, a real-amplitude state, a random stabilizer
    state (whose q is zero off its group) and that state after a T gate."""
    haar = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    real = rng.normal(size=1 << n)
    stab = kernels.apply_gates(kernels.zero_state(n), random_circuit(n, rng).gates)
    return [haar / np.linalg.norm(haar), real / np.linalg.norm(real), stab,
            kernels.apply_gates(stab, [("T", (0,))])]


def wht_butterfly_reference(v):
    """The Walsh-Hadamard transform along the leading axis of a C-contiguous
    array, in place, by log2(len) radix-2 butterfly stages: the kernel the
    Hadamard-factor products of ``kernels.wht_inplace`` replaced."""
    m, inner = v.shape[0], v[:1].size
    h = 1
    while h < m:
        w = v.reshape(-1, 2, h * inner)
        a, b = w[:, 0, :], w[:, 1, :]
        t = a - b
        a += b
        b[...] = t
        h *= 2
    return v


def wht_rounding_bound(v):
    """A bound on |wht_inplace(v) - wht_butterfly_reference(v)| per entry of
    a (2^k, ...) float array, from the two summation orders: a butterfly
    output rounds once per stage, k times, and a factor's dot product of
    2^k_i terms rounds at most 2^k_i times, each rounding off by at most
    2^-53 of a partial sum bounded by sum |v| over the batch column; 2^-52
    covers both orders and the second-order terms."""
    k = v.shape[0].bit_length() - 1
    roundings = k + sum(1 << bits for bits in kernels._factor_bits(k))
    return roundings * 2.0**-52 * np.abs(v).sum(axis=0)


_IPOW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


def char_expectations_reference(amps, n):
    """The signed table from one complex transform per row a of
    g_a(j) = conj(psi[j^a]) psi[j], phased by i^{|a&b|} and scattered into
    the ``a | (b << n)`` layout."""
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    dim = 1 << n
    out = np.empty(dim * dim, dtype=np.float64)
    idx = np.arange(dim)
    bvals = np.arange(dim, dtype=np.uint64)
    for a in range(dim):
        g = wht_butterfly_reference(np.conj(amps[idx ^ a]) * amps)
        phase = _IPOW[np.bitwise_count(np.uint64(a) & bvals) & 3]
        out[(bvals.astype(np.int64) << n) | a] = (g * phase).real
    return out


def xor_convolve(p):
    """Fast XOR self-convolution (p * p)(x) = sum_y p(y) p(x^y), O(m log m):
    one forward butterfly transform, squared in place, then the inverse
    transform."""
    out = wht_butterfly_reference(np.array(p, dtype=np.float64))
    out *= out
    wht_butterfly_reference(out)
    out /= out.shape[0]
    return out


def xor_convolve_naive(p, q):
    """Quadratic reference convolution (p * q)(x) = sum_y p(y) q(x^y)."""
    p = np.ascontiguousarray(p, dtype=np.float64)
    q = np.ascontiguousarray(q, dtype=np.float64)
    idx = np.arange(p.shape[0])
    return np.array([np.dot(p, q[idx ^ x]) for x in range(p.shape[0])])


def q_tables_reference(psi):
    """q and the proxy E_q[<W_x>^2] = sum_x q(x) <W_x>^2 by the self-duality
    of p, with butterflies: <W_x>^4 transformed over b, transposed, then
    over a, scaled by 4^-n and clipped at zero.  The reference of
    ``statevec.exact_proxy``'s triple-correlation sum."""
    dim = 1 << psi.n
    w2 = char_expectations_reference(psi.amps, psi.n) ** 2
    half = wht_butterfly_reference(np.square(w2).reshape(dim, dim))
    q = wht_butterfly_reference(np.ascontiguousarray(half.T)).reshape(-1) / (dim * dim)
    np.clip(q, 0.0, None, out=q)
    return q, float(np.dot(q, w2))


def distribution_tables(psi):
    """The law reference: the characteristic table p(x) = <W_x>^2 / 2^n and
    its XOR self-convolution q = p * p, the law of difference sampling."""
    p = expectation_squares(psi) / (1 << psi.n)
    q = xor_convolve(p)
    np.clip(q, 0.0, None, out=q)
    return p, q


def inverse_cdf_reference(cum, keys):
    """The unsorted lookup that ``kernels.inverse_cdf`` replaced: per key, the
    first index with cum[i] > key, capped at the last index."""
    return np.minimum(np.searchsorted(cum, keys, side="right"), len(cum) - 1)


def sample_weyl_indices(psi: StateVector, size: int, rng, ledger: CostLedger) -> np.ndarray:
    """Batched difference sampling: ``size`` label indices drawn from q, 4
    copies each.  One ``rng.random((2, size))`` call gives the keys of y and
    z, and each label is y ^ z, as ``statevec.sample_retained`` proposes."""
    idx = _differences(_label_cdf(psi), rng.random((2, size)))
    ledger.charge("bell_difference", copies=4 * size)
    return idx


def retained_reference(psi, count, rng):
    """The retention protocol by rejection: draw x from q and keep it with
    probability <W_x>^2, one draw at a time, until ``count`` are kept.
    Returns the kept labels and the number of draws."""
    _, q = distribution_tables(psi)
    w2 = expectation_squares(psi)
    cum = np.cumsum(q)
    kept, trials = [], 0
    while len(kept) < count:
        x = int(inverse_cdf_reference(cum, rng.random() * cum[-1]))
        trials += 1
        if rng.random() < w2[x]:
            kept.append(x)
    return np.array(kept), trials


class RecordingGenerator:
    """A numpy Generator that records the size of every ``random`` call."""

    def __init__(self, gen):
        self.gen, self.shapes = gen, []

    def random(self, size=None):
        self.shapes.append(size)
        return self.gen.random(size)


def retained_replay(psi, shapes, rng, count):
    """``sample_retained``'s labels and proposal count rebuilt from the same
    stream: each recorded (3, size) call gives y, z and retention keys,
    looked up one proposal at a time as the unsorted reference does, until
    ``count`` labels are kept."""
    w2 = expectation_squares(psi)
    cum = np.cumsum(w2)
    kept, proposals = [], 0
    for shape in shapes:
        u = rng.random(shape)
        for uy, uz, ur in u.T:
            if len(kept) == count:
                break
            y, z = inverse_cdf_reference(cum, np.array([uy, uz]) * cum[-1])
            proposals += 1
            if ur < w2[y ^ z]:
                kept.append(int(y ^ z))
    return np.array(kept), proposals


def per_shot_averages(psi, shots, runs, rng):
    """Sampled ``gowers3_metrics``' two averages simulated shot by shot, for
    ``runs`` independent runs: each shot draws a label from the law (q for
    the proxy, p for u3pow8) and records +1 with probability
    (1 + <W_x>^2)/2.  Returns the proxy and u3pow8 estimates, one per run."""
    p, q = distribution_tables(psi)
    w2 = expectation_squares(psi)
    out = []
    for law in (q, p):
        cum = np.cumsum(law)
        xs = inverse_cdf_reference(cum, rng.random(runs * shots) * cum[-1])
        plus = rng.random(runs * shots) < 0.5 * (1.0 + w2[xs])
        out.append((2.0 * plus - 1.0).reshape(runs, shots).mean(axis=1))
    return tuple(out)


def edge_shots(params):
    """Shots per edge estimate at ``params``: N = ceil(2 ln(6/delta') /
    zeta'^2), with the slack zeta' = zeta2/2 and one edge test's failure
    budget delta' = delta / (5 (1 + r + 2 r s))."""
    delta_p = params.delta / (5.0 * (1 + params.r + 2 * params.r * params.s))
    return int(np.ceil(2.0 * np.log(6.0 / delta_p) / params.zeta_slack**2))


def exact_edges(psi, xs, ys, zeta):
    """Exact edge flags of the pairs (xs[i], ys[i]): <W_x>^2, <W_y>^2 and
    <W_{x^y}>^2 all reach zeta.  Draws nothing."""
    return (expectation_squares(psi)[np.stack((xs, ys, xs ^ ys))] >= zeta).all(axis=0)


def bsg_test(psi, u, v, params, rng, ledger, exact=False):
    """The per-pair membership test, the law reference for the pooled tests
    of ``selfcorrect._membership_rows``: each call draws its own r + r*s
    retained samples (the first r are the outer samples z, the rest the
    inner ones), runs the edge tests, and thresholds the empirical
    common-neighbor frequencies: a sample z counts against (u, v) when too
    few inner samples are joint neighbors of v and z.  ``exact`` decides
    every edge from the exact <W>^2 (``exact_edges``)."""
    shots = edge_shots(params)

    def edges(xs, ys, zeta):
        if exact:
            return exact_edges(psi, xs, ys, zeta)
        return _edge_batch(psi, xs, ys, zeta, shots, rng, ledger)

    uu = np.array([u.to_vector()])
    vv = np.array([v.to_vector()])
    if not edges(uu, vv, params.zeta1)[0]:
        return False
    r, s = params.r, params.s
    z, w = np.split(sample_retained(psi, r + r * s, rng, ledger), [r])
    xk = edges(np.repeat(uu, r), z, params.zeta2)
    yk = edges(np.repeat(vv, r * s), w, params.zeta3).reshape(r, s)
    zk = edges(np.repeat(z, s), w, params.zeta3).reshape(r, s)
    bk = (yk & zk).mean(axis=1) <= params.rho1
    return bool((xk & bk).mean() <= params.rho2)


def membership_rows_reference(psi, verts, t, params, rng, ledger):
    """``selfcorrect._membership_rows`` run in full: every ordered vertex
    pair's zeta1-edge, every zeta3-edge of the pool and one ``_edge_batch``
    of r*s zeta3-edges per neighbor, in visit order.  The law reference of
    the lazy walk, which runs only the tests its decisions read."""
    r, s, k, shots = params.r, params.s, verts.shape[0], edge_shots(params)

    def edges(xs, ys, zeta):
        return _edge_batch(psi, xs, ys, zeta, shots, rng, ledger)

    z = sample_retained(psi, r, rng, ledger)
    w = sample_retained(psi, r * s, rng, ledger)
    us, vs = np.nonzero(~np.eye(k, dtype=bool))
    pair = np.zeros((k, k), dtype=bool)
    pair[us, vs] = edges(verts[us], verts[vs], params.zeta1)
    zk = edges(np.repeat(z, s), w, params.zeta3).reshape(r, s)
    bad = {}
    for i in np.flatnonzero(pair.sum(axis=1) >= t):
        nbrs = np.flatnonzero(pair[i])
        for j in nbrs:
            if j not in bad:
                yk = edges(np.repeat(verts[j], r * s), w, params.zeta3).reshape(r, s)
                bad[j] = (yk & zk).mean(axis=1) <= params.rho1
        xk = edges(np.repeat(verts[i], r), z, params.zeta2)
        yield i, nbrs[[(xk & bad[j]).mean() <= params.rho2 for j in nbrs]]


def neighbor_bad_reference(psi, vs, need, w, zk, params, shots, rng, ledger):
    """``selfcorrect._neighbor_bad`` with plain loops and one ``_edge_batch``
    per edge test: the draw-for-draw reference of its order.  (v, i) is
    open while its count of joint edges can still both pass kmax and stay
    at most kmax.  Each round walks the open (v, i), neighbor by neighbor
    and outer sample by outer sample, and tests the next kmax + 1 inner
    samples j of z_i whose zeta3-edge zk[i, j] holds, or those left, one at
    a time.  The stage draws each round in chunks of pairs, which keeps
    this order."""
    s = params.s
    kmax = max(k for k in range(s + 1) if k / s <= params.rho1)
    todo = {
        (a, i): [[j for j in range(s) if zk[i, j]], 0]
        for a in range(len(vs)) for i in range(need.shape[1]) if need[a, i]
    }

    def is_open(left, count):
        return count <= kmax < count + len(left)

    while any(is_open(*state) for state in todo.values()):
        for (a, i), state in todo.items():
            left, count = state
            if not is_open(left, count):
                continue
            for _ in range(min(kmax + 1, len(left))):
                j = left.pop(0)
                state[1] += int(_edge_batch(
                    psi, np.array([vs[a]]), np.array([w[i, j]]), params.zeta3, shots, rng, ledger
                )[0])
    bad = np.zeros(need.shape, dtype=bool)
    for (a, i), (_, count) in todo.items():
        bad[a, i] = count <= kmax
    return bad


def lazy_membership_rows_reference(psi, verts, t, params, rng, ledger):
    """``selfcorrect._membership_rows``'s lazy walk with plain loops: the
    draw-for-draw reference of its order.  Each u's zeta1-edges, zeta2-edges
    and unread zeta3 rows take one ``_edge_batch`` each, as in the walk;
    the (v, i) the walk has not decided go to ``neighbor_bad_reference``."""
    r, s, k, shots = params.r, params.s, verts.shape[0], edge_shots(params)

    def edges(xs, ys, zeta):
        return _edge_batch(psi, xs, ys, zeta, shots, rng, ledger)

    z = sample_retained(psi, r, rng, ledger)
    w = sample_retained(psi, r * s, rng, ledger).reshape(r, s)
    zk, bad = {}, {}
    for u in range(k):
        others = [v for v in range(k) if v != u]
        flags = edges(np.repeat(verts[u], k - 1), verts[others], params.zeta1)
        nbrs = [v for v, f in zip(others, flags) if f]
        if len(nbrs) < t:
            continue
        xk = edges(np.repeat(verts[u], r), z, params.zeta2)
        new = [i for i in range(r) if xk[i] and i not in zk]
        if new:
            zk.update(zip(new, edges(np.repeat(z[new], s), w[new].ravel(), params.zeta3).reshape(-1, s)))
        zks = np.array([zk.get(i, np.zeros(s, dtype=bool)) for i in range(r)])
        fresh = [v for v in nbrs if any(xk[i] and (v, i) not in bad for i in range(r))]
        need = np.array([[xk[i] and (v, i) not in bad for i in range(r)] for v in fresh], dtype=bool)
        if fresh:
            got = neighbor_bad_reference(psi, verts[fresh], need, w, zks, params, shots, rng, ledger)
            for a, v in enumerate(fresh):
                bad.update({(v, i): bool(got[a, i]) for i in range(r) if need[a, i]})
        accepted = [v for v in nbrs if sum(xk[i] and bad[v, i] for i in range(r)) / r <= params.rho2]
        yield u, np.array(accepted, dtype=np.intp)


def pfr_subgroup_reference(samples):
    """The cover of ``selfcorrect.pfr_subgroup`` from Python ints: the set
    of pairwise sums and ``rref_basis`` of all of them.  None where fewer
    than n + 1 are distinct."""
    n = samples[0].n
    vecs = [s.to_vector() for s in samples]
    sums = {a ^ b for i, a in enumerate(vecs) for b in vecs[i:]}
    if len(sums) < n + 1:
        return None
    return rref_basis(sums, 2 * n)


def _exact_betas(psi, phis):
    """Exact running coefficients: <phi_j|psi> minus the cross-terms of the
    earlier terms, as the loop's exact estimator builds them."""
    betas = []
    for j, phi in enumerate(phis):
        val = overlap(statevector_of_stab(phi), psi)
        for i in range(j):
            val -= betas[i] * stabilizer_inner_product(phi, phis[i])
        betas.append(val)
    return betas


# ---------------------------------------------------------------------------
# block measurements: the Born-rule oracle the extractors' contractions and
# branch draws are checked against


def _block_values(n: int, block: tuple[int, ...]) -> np.ndarray:
    idx = np.arange(1 << n)
    vals = np.zeros(1 << n, dtype=np.int64)
    for i, q in enumerate(block):
        vals |= ((idx >> q) & 1) << i
    return vals


def measure_block(
    psi: StateVector,
    block,
    basis="computational",
    rng: np.random.Generator | None = None,
    ledger: CostLedger | None = None,
    force_outcome=None,
):
    """Born-rule measurement of a qubit block.

    ``basis="computational"`` returns (bitstring outcome, probability,
    renormalized post-state).  ``basis=("project", vec)`` measures the
    projector onto the 2^|block| state ``vec``; outcome 0 means "onto the
    state".  Explicitly forcing a zero-probability branch raises.
    """
    block = tuple(block)
    if ledger is not None:
        ledger.charge("measure", copies=1)
    if basis == "computational":
        vals = _block_values(psi.n, block)
        probs = np.bincount(vals, weights=np.abs(psi.amps) ** 2, minlength=1 << len(block))
        if force_outcome is not None:
            outcome = int(force_outcome)
            if probs[outcome] < 1e-15:
                raise ValueError("zero-probability branch requested")
        else:
            if rng is None:
                raise ValueError("sampling needs an rng")
            outcome = int(rng.choice(probs.shape[0], p=probs / probs.sum()))
        sel = vals == outcome
        post = np.where(sel, psi.amps, 0.0)
        post = post / np.sqrt(probs[outcome])
        return outcome, float(probs[outcome]), StateVector(psi.n, post)
    kind, vec = basis
    if kind != "project":
        raise ValueError(f"unknown basis {basis!r}")
    vec = np.asarray(vec, dtype=complex)
    vals = _block_values(psi.n, block)
    rest_qubits = tuple(q for q in range(psi.n) if q not in block)
    rest_vals = _block_values(psi.n, rest_qubits)
    # contraction amp_rest(y) = sum_x conj(vec[x]) psi[x at block, y at rest]
    contr = np.zeros(1 << len(rest_qubits), dtype=complex)
    np.add.at(contr, rest_vals, np.conj(vec[vals]) * psi.amps)
    p0 = float(np.sum(np.abs(contr) ** 2))
    if force_outcome is not None:
        outcome = int(force_outcome)
        pr = p0 if outcome == 0 else 1.0 - p0
        if pr < 1e-15:
            raise ValueError("zero-probability branch requested")
    else:
        if rng is None:
            raise ValueError("sampling needs an rng")
        outcome = 0 if rng.random() < p0 else 1
    if outcome == 0:
        # post = |vec> (x) contr / sqrt(p0), reassembled on the full register
        post = vec[vals] * contr[rest_vals] / np.sqrt(p0)
        return 0, p0, StateVector(psi.n, post)
    proj = vec[vals] * contr[rest_vals]
    post = (psi.amps - proj) / np.sqrt(1.0 - p0)
    return 1, p0, StateVector(psi.n, post)

import hashlib
import itertools
import re
from collections import Counter
from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stabcorrect import kernels
from stabcorrect.gf2 import PauliLabel, rref_basis
from stabcorrect.pauli import (
    CliffordCircuit,
    PhasedPauli,
    StabilizerState,
    canonicalize_subgroup,
    conjugate,
    isotropic_subspaces,
    signed_generators,
    stab_state_prep,
    stabilizer_inner_product,
    statevector_of,
)
from stabcorrect.pauli import _PauliColumns, _canonical_phase_factor

from conftest import (
    CliffordTableau,
    RowReducer,
    affine_form_counts,
    apply_gates_reference,
    canonicalize_reference,
    clifford_from_anticommuting_pair,
    conjugate_reference,
    enumerate_stabilizer_states,
    gate_matrix,
    is_isotropic,
    nearest_eighth_root,
    pauli_product,
    projected_vector,
    random_circuit,
    random_cz_circuit,
    random_label,
    random_label_set,
    random_phased,
    rref_basis_from_labels,
    stabilizer_state_matrix,
    symplectic_product,
    synthesize_circuit,
    tableau_from_circuit,
    weyl_matrix,
)

lab = PauliLabel.from_string
pp = PhasedPauli.from_string

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
S = np.diag([1, 1j])
X = np.array([[0, 1], [1, 0]])
Z = np.diag([1, -1])
GATES_1Q = {"H": H, "S": S, "X": X, "Z": Z}


def circuit_matrix(circ: CliffordCircuit) -> np.ndarray:
    # column j is the circuit applied to basis state j, by the kernel that
    # ``TestApplyGates`` checks gate by gate, CZ included, against
    # ``conftest.gate_matrix``
    return kernels.apply_gates(np.eye(1 << circ.n, dtype=complex), circ.gates)


class TestProduct:
    def test_x_squared(self):
        assert pauli_product(pp("X"), pp("X")) == pp("I")

    def test_x_times_z(self):
        got = pauli_product(pp("X"), pp("Z"))
        assert got == PhasedPauli(lab("Y"), 3)  # -i W_(1,1)

    def test_involution_random(self, rng):
        for _ in range(100):
            w = PhasedPauli(PauliLabel(3, int(rng.integers(8)), int(rng.integers(8))), 0)
            assert pauli_product(w, w) == PhasedPauli(PauliLabel(3, 0, 0), 0)

    def test_against_matrices_exhaustive_1q(self):
        for x1, z1, p1, x2, z2, p2 in itertools.product(range(2), range(2), range(4), range(2), range(2), range(4)):
            a = PhasedPauli(PauliLabel(1, x1, z1), p1)
            b = PhasedPauli(PauliLabel(1, x2, z2), p2)
            got = weyl_matrix(pauli_product(a, b))
            assert np.allclose(got, weyl_matrix(a) @ weyl_matrix(b))

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.just(n), *[st.integers(0, (1 << n) - 1)] * 4, st.integers(0, 3), st.integers(0, 3)
            )
        )
    )
    def test_against_matrices(self, case):
        # n <= 4 qubits and all four phases of each factor
        n, x1, z1, x2, z2, p1, p2 = case
        a = PhasedPauli(PauliLabel(n, x1, z1), p1)
        b = PhasedPauli(PauliLabel(n, x2, z2), p2)
        assert np.allclose(weyl_matrix(pauli_product(a, b)), weyl_matrix(a) @ weyl_matrix(b))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            pauli_product(pp("X"), pp("XX"))


class TestParsing:
    @pytest.mark.parametrize("text,phase", [("XZ", 0), ("+XZ", 0), ("-XZ", 2), ("+iXZ", 1), ("-iXZ", 3)])
    def test_one_sign(self, text, phase):
        assert pp(text) == PhasedPauli(lab("XZ"), phase)

    def test_string_round_trip(self, rng):
        for _ in range(30):
            p = random_phased(4, rng)
            assert pp(p.to_string()) == p

    @pytest.mark.parametrize("text", ["++XZ", "-+X", "+i+X", "+-X", "--X", "-i-X"])
    def test_second_sign_named(self, text):
        with pytest.raises(ValueError, match=f"more than one sign in Pauli string {re.escape(repr(text))}"):
            pp(text)


def one_gate(n: int, name: str, qs: tuple[int, ...]) -> CliffordCircuit:
    return CliffordCircuit(n, ((name, qs),))


class TestGateConjugation:
    """The bit-column rule through one-gate circuits, each Pauli on its own
    and all of them as rows of one pass."""

    @pytest.mark.parametrize("name", ["H", "S", "X", "Z"])
    def test_single_qubit_exhaustive(self, name):
        g = GATES_1Q[name]
        circ = one_gate(1, name, (0,))
        rows = [
            PhasedPauli(PauliLabel(1, xb, zb), ph)
            for xb, zb, ph in itertools.product(range(2), range(2), range(4))
        ]
        for p, row in zip(rows, conjugate(circ, rows)):
            got = weyl_matrix(conjugate(circ, p))
            assert np.allclose(got, g @ weyl_matrix(p) @ g.conj().T)
            assert row == conjugate(circ, p)

    def test_cnot_exhaustive(self):
        cnot = np.zeros((4, 4), dtype=complex)
        for j in range(4):
            c, t = j & 1, (j >> 1) & 1
            cnot[(c | ((t ^ c) << 1)), j] = 1.0
        circ = one_gate(2, "CNOT", (0, 1))
        rows = [
            PhasedPauli(PauliLabel(2, xb, zb), ph)
            for xb, zb, ph in itertools.product(range(4), range(4), range(4))
        ]
        for p, row in zip(rows, conjugate(circ, rows)):
            got = weyl_matrix(conjugate(circ, p))
            assert np.allclose(got, cnot @ weyl_matrix(p) @ cnot.conj().T)
            assert row == conjugate(circ, p)

    @pytest.mark.parametrize("qs", [(0, 1), (1, 0)])
    def test_cz_exhaustive(self, qs):
        # the 16 two-qubit labels with every phase, against the dense
        # U P U^dagger and the per-row rule
        u = gate_matrix("CZ", qs, 2)
        circ = one_gate(2, "CZ", qs)
        rows = [
            PhasedPauli(PauliLabel(2, xb, zb), ph)
            for xb, zb, ph in itertools.product(range(4), range(4), range(4))
        ]
        for p, row in zip(rows, conjugate(circ, rows)):
            assert np.allclose(weyl_matrix(row), u @ weyl_matrix(p) @ u.conj().T)
            assert row == conjugate(circ, p) == conjugate_reference(circ, p)

    def test_defining_relations(self):
        assert conjugate(one_gate(1, "H", (0,)), pp("X")) == pp("Z")
        assert conjugate(one_gate(1, "S", (0,)), pp("X")) == pp("Y")
        assert conjugate(one_gate(2, "CNOT", (0, 1)), pp("XI")) == pp("XX")
        assert conjugate(one_gate(2, "CZ", (0, 1)), pp("XI")) == pp("XZ")
        assert conjugate(one_gate(2, "CZ", (1, 0)), pp("XX")) == pp("YY")

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError, match="unknown gate 'T'"):
            _PauliColumns(1, [pp("X")]).conjugate([("T", (0,))])

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            conjugate(one_gate(2, "H", (0,)), [pp("XI"), pp("X")])


class TestAgainstRowReference:
    """The bit-column rule and reducer against the per-row rule and reducer
    they replaced: identical rows and identical emitted gate lists."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_multirow_conjugate(self, n):
        rng = np.random.default_rng(5000 + n)
        for _ in range(6):
            circ = random_cz_circuit(n, rng)
            rows = [random_phased(n, rng) for _ in range(int(rng.integers(1, 2 * n + 3)))]
            rows += [PhasedPauli(random_label(n, rng), t) for t in range(4)]  # every phase
            want = tuple(conjugate_reference(circ, p) for p in rows)
            assert conjugate(circ, rows) == want
            assert conjugate(circ, rows[0]) == want[0]
            # phases 1 and 3 keep their i^1 bit
            assert [p.phase & 1 for p in want] == [p.phase & 1 for p in rows]

    @pytest.mark.parametrize("framed", [False, True])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_canonicalize_gates(self, n, framed):
        rng = np.random.default_rng(5100 + n)
        if not framed:
            # on sets with zero, repeated and dependent rows too
            for _ in range(16):
                gens = random_label_set(n, rng)
                circ, k, m = canonicalize_subgroup(gens)
                assert (circ.gates, k, m) == canonicalize_reference(gens)
            return
        # on Lagrangian, center-only and mixed groups in a random frame,
        # whose gates give the per-gate kernel's amplitudes byte for byte
        for k, m in group_shapes(n, rng):
            gens = [p.label for p in framed_group(n, k, m, rng)]
            circ, kk, mm = canonicalize_subgroup(gens)
            assert (circ.gates, kk, mm) == canonicalize_reference(gens)
            assert (kk, mm) == (k, m)
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            want = apply_gates_reference(amps, circ.gates)
            assert kernels.apply_gates(amps, circ.gates).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(1, 13))
    def test_prep_gates(self, n):
        # per gate kind, the preparation has the counts of the affine-phase
        # form read off the projector-built vector, in the layer order H,
        # diagonal, CNOT fan-out, X, and prepares that vector up to an 8th
        # root of unity; the cached vector is that vector
        rng = np.random.default_rng(5200 + n)
        layer = {"H": 0, "S": 1, "Z": 1, "CZ": 1, "CNOT": 2, "X": 3}
        for _ in range(8):
            circ = random_circuit(n, rng)
            gens = tuple(
                conjugate_reference(circ, PhasedPauli(PauliLabel(n, 0, 1 << q), 2 * int(rng.integers(2))))
                for q in range(n)
            )
            state = StabilizerState(n, gens)
            prep = stab_state_prep(state)
            want = projected_vector(state)
            counts = affine_form_counts(want)
            assert Counter(name for name, _ in prep.gates) == Counter(counts)
            # the H gates are exactly the first r
            assert all(name == "H" for name, _ in prep.gates[: counts["H"]])
            kinds = [layer[name] for name, _ in prep.gates]
            assert kinds == sorted(kinds)
            out = kernels.apply_gates(kernels.zero_state(n), prep.gates)
            assert np.abs(out - nearest_eighth_root(out, want) * want).max() <= 1e-12
            assert np.abs(statevector_of(state) - want).max() <= 1e-12
            # and bit for bit the emitted gates through the per-gate kernel,
            # times the canonical phase
            amps = apply_gates_reference(kernels.zero_state(n), prep.gates)
            assert statevector_of(state).tobytes() == (amps * _canonical_phase_factor(amps)).tobytes()

    @pytest.mark.parametrize("n", range(1, 11))
    def test_isotropic_reduction_of_signed_structured_sets(self, n):
        # the isotropic reduction that canonicalization runs, on signed
        # center-only and Lagrangian sets: the same gates and the same rows
        # afterwards
        rng = np.random.default_rng(5500 + n)
        for m in [m for k, m in group_shapes(n, rng) if not k]:
            rows = framed_group(n, 0, m, rng)
            cols = _PauliColumns(n, rows)
            cols.reduce_isotropic(list(range(m)), 0)
            red = RowReducer(n, list(rows))
            red.reduce_isotropic(list(range(m)), 0)
            assert tuple(cols.gates) == tuple(red.gates)
            assert tuple(cols.rows(m)) == tuple(red.tracked)


# sha256 of repr((gates, k, m)) over 20 seeded sizes n = 4 ... 10: one
# random label set per size, recorded when preparation still inverted the
# isotropic reduction, and (framed) the Lagrangian, center-only and mixed
# groups of ``group_shapes`` in a random frame, recorded from the same
# unchanged canonicalizer before its second, center-last frame was dropped.
# The extractors' frames, and so their draws, depend on these gates gate for
# gate.
CANONICAL_DIGESTS = {
    False: "0146846cae63266e034636b90e8b8449683f78d7e885c5fffa4e34671946cb20",
    True: "dc57aa45b1fbc65bf29dab74faad74ff621445622427a76aaf77bc411f948cac",
}


@pytest.mark.parametrize("framed", [False, True])
def test_canonicalizer_gates_pinned(framed):
    digest = hashlib.sha256()
    for seed in range(20):
        rng = np.random.default_rng(6400 + seed)
        n = 4 + seed % 7
        if framed:
            groups = [[p.label for p in framed_group(n, k, m, rng)] for k, m in group_shapes(n, rng)]
        else:
            groups = [random_label_set(n, rng)]
        for gens in groups:
            circ, k, m = canonicalize_subgroup(gens)
            digest.update(repr((circ.gates, k, m)).encode())
    assert digest.hexdigest() == CANONICAL_DIGESTS[framed]


def group_shapes(n, rng):
    """(k, m) for a Lagrangian group (0, n), a center-only one (0, m < n) and
    a mixed one (k >= 1 pairs and m >= 1 center), where n allows."""
    shapes = [(0, n)]
    if n > 1:
        shapes.append((0, int(rng.integers(1, n))))
        k = int(rng.integers(1, n // 2 + 1))
        shapes.append((k, int(rng.integers(1, n - k + 1))))
    return shapes


def framed_group(n, k, m, rng):
    """X_q, Z_q for q < k and randomly signed Z_q for k <= q < k + m, carried
    through a random circuit: k symplectic pairs and an m-dimensional center."""
    canon = [PhasedPauli(PauliLabel(n, 1 << q, 0), 0) for q in range(k)]
    canon += [PhasedPauli(PauliLabel(n, 0, 1 << q), 0) for q in range(k)]
    canon += [PhasedPauli(PauliLabel(n, 0, 1 << q), 2 * int(rng.integers(2))) for q in range(k, k + m)]
    circ = random_circuit(n, rng)
    rows = [conjugate_reference(circ, p) for p in canon]
    return [rows[i] for i in rng.permutation(len(rows))]


class TestTableau:
    def test_conjugate_matches_gate_chain(self, rng):
        # U P U^dagger against the dense unitary of the circuit
        for _ in range(100):
            n = int(rng.integers(1, 5))
            circ = random_cz_circuit(n, rng, length=16)
            u = circuit_matrix(circ)
            p = random_phased(n, rng)
            assert np.allclose(weyl_matrix(conjugate(circ, p)), u @ weyl_matrix(p) @ u.conj().T)

    def test_conjugation_preserves_symplectic(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            circ = random_circuit(n, rng)
            for _ in range(100):
                a, b = random_phased(n, rng), random_phased(n, rng)
                assert symplectic_product(
                    conjugate(circ, a).label, conjugate(circ, b).label
                ) == symplectic_product(a.label, b.label)

    def test_validity(self, rng):
        tab = tableau_from_circuit(random_circuit(3, rng))
        assert tab.is_valid()

    def test_inverse(self, rng):
        n = 3
        circ = random_circuit(n, rng)
        inv = circ.inverse()
        for p in (pp("XII"), pp("IZI"), pp("-IYX")):
            assert conjugate(inv, conjugate(circ, p)) == p
        # the exact adjoint, with no global phase
        assert np.allclose(circuit_matrix(inv) @ circuit_matrix(circ), np.eye(1 << n))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_inverse_with_cz_is_the_dense_adjoint(self, n, rng):
        # dense products of the reference gate matrices, CZ self-adjoint
        for _ in range(5):
            circ = random_cz_circuit(n, rng, length=12)
            assert any(name == "CZ" for name, _ in circ.gates)

            def dense(c):
                return reduce(lambda m, g: gate_matrix(*g, n) @ m, c.gates, np.eye(1 << n))

            assert np.allclose(dense(circ.inverse()), dense(circ).conj().T, rtol=0, atol=1e-12)

    def test_inverse_is_not_checked_again(self, rng, monkeypatch):
        circ = random_circuit(4, rng)
        checked = []
        monkeypatch.setattr(CliffordCircuit, "__post_init__", lambda self: checked.append(self))
        inv = circ.inverse()
        assert checked == []
        assert inv == CliffordCircuit(4, inv.gates) and checked == [inv]
        assert hash(inv) == hash(CliffordCircuit(4, inv.gates))

    def test_emitted_circuits_are_not_checked_again(self, rng, monkeypatch):
        # canonicalization and preparation build their circuits from the
        # column store's gates without the public constructor's checks
        gens = [random_label(4, rng) for _ in range(6)]
        state = StabilizerState(4, conjugate(random_circuit(4, rng), signed_generators(
            4, [PauliLabel(4, 0, 1 << q).to_vector() for q in range(4)], 0b0101
        )))
        checked = []
        monkeypatch.setattr(CliffordCircuit, "__post_init__", lambda self: checked.append(self))
        canonicalize_subgroup(gens)
        stab_state_prep(state)
        assert checked == []

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_emitted_circuits_pass_the_public_checks(self, n, seed):
        # every circuit built unchecked is one the public constructor accepts
        # unchanged: canonicalizations of random subgroups, preparations of
        # random signed stabilizer states, and their inverses
        rng = np.random.default_rng(seed)
        gens = [random_label(n, rng) for _ in range(int(rng.integers(1, 2 * n + 2)))]
        zs = [PauliLabel(n, 0, 1 << q).to_vector() for q in range(n)]
        signs = int(rng.integers(1 << n))
        state = StabilizerState(n, conjugate(random_circuit(n, rng), signed_generators(n, zs, signs)))
        circuits = [canonicalize_subgroup(gens)[0], stab_state_prep(state)]
        for c in circuits + [c.inverse() for c in circuits]:
            assert CliffordCircuit(n, c.gates) == c

    @pytest.mark.parametrize("n,gates,message", [
        (1, (("T", (0,)),), "unknown gate 'T'"),
        (1, (("Y", (0,)),), "unknown gate 'Y'"),
        (2, (("H", (0, 1)),), r"bad qubits \(0, 1\) for H on 2 qubits"),
        (2, (("CNOT", (0,)),), r"bad qubits \(0,\) for CNOT on 2 qubits"),
        (2, (("S", (2,)),), r"bad qubits \(2,\) for S on 2 qubits"),
        (2, (("X", (-1,)),), r"bad qubits \(-1,\) for X on 2 qubits"),
        (2, (("H", (0,)), ("CNOT", (1, 1))), "CNOT control equals target"),
        (2, (("CZ", (1, 1)),), "CZ control equals target"),
        (2, (("CZ", (0,)),), r"bad qubits \(0,\) for CZ on 2 qubits"),
        (3, (("CZ", (0, 3)),), r"bad qubits \(0, 3\) for CZ on 3 qubits"),
    ])
    def test_outside_gates_rejected(self, n, gates, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CliffordCircuit(n, gates)


class TestSynthesis:
    def test_identity_empty(self):
        assert synthesize_circuit(CliffordTableau.identity(3)).gates == ()

    def test_hadamard_single(self):
        tab = tableau_from_circuit(CliffordCircuit(1, (("H", (0,)),)))
        assert synthesize_circuit(tab).gates == (("H", (0,)),)

    @pytest.mark.parametrize("trial", range(8))
    def test_round_trip_exact(self, trial):
        rng = np.random.default_rng(3000 + trial)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            tab = tableau_from_circuit(random_circuit(n, rng))
            circ = synthesize_circuit(tab)
            assert tableau_from_circuit(circ) == tab
            assert len(circ) <= 14 * n * n + 20

    def test_unitary_action_up_to_phase(self, rng):
        # applying the synthesized gates equals the original circuit's action
        # up to one global phase
        for _ in range(10):
            n = int(rng.integers(1, 4))
            orig = random_circuit(n, rng)
            tab = tableau_from_circuit(orig)
            m1 = circuit_matrix(orig)
            m2 = circuit_matrix(synthesize_circuit(tab))
            ratio = m1 @ m2.conj().T
            assert np.allclose(ratio, ratio[0, 0] * np.eye(1 << n))
            assert abs(abs(ratio[0, 0]) - 1) < 1e-9


class TestPairReduction:
    def test_xz_identity(self):
        circ = clifford_from_anticommuting_pair(pp("X"), pp("Z"))
        assert circ == CliffordCircuit(1, ())

    def test_zx_hadamard(self):
        circ = clifford_from_anticommuting_pair(pp("Z"), pp("X"))
        assert conjugate(circ, pp("Z")) == pp("X")
        assert conjugate(circ, pp("X")) == pp("Z")

    def test_commuting_rejected(self):
        with pytest.raises(ValueError):
            clifford_from_anticommuting_pair(pp("YX"), pp("ZZ"))

    def test_random_pairs(self, rng):
        done = 0
        while done < 100:
            n = int(rng.integers(1, 7))
            p = PhasedPauli(
                PauliLabel(n, int(rng.integers(1 << n)), int(rng.integers(1 << n))),
                2 * int(rng.integers(2)),
            )
            q = PhasedPauli(
                PauliLabel(n, int(rng.integers(1 << n)), int(rng.integers(1 << n))),
                2 * int(rng.integers(2)),
            )
            if symplectic_product(p.label, q.label) == 0:
                continue
            circ = clifford_from_anticommuting_pair(p, q)
            assert conjugate(circ, p) == PhasedPauli(PauliLabel(n, 1, 0), 0)
            assert conjugate(circ, q) == PhasedPauli(PauliLabel(n, 0, 1), 0)
            done += 1


class TestIsotropicReduction:
    """``canonicalize_subgroup`` on an isotropic input: with no symplectic
    pairs the whole group is center, carried onto the first d qubits' Z
    operators."""

    @staticmethod
    def center(labels):
        circ, k, m = canonicalize_subgroup(labels)
        assert k == 0
        return circ

    def test_z_line_identity_action(self):
        circ = self.center([lab("Z")])
        assert conjugate(circ, pp("Z")).label == lab("Z")

    def test_x_line(self):
        circ = self.center([lab("X")])
        assert conjugate(circ, pp("X")).label == lab("Z")

    def test_bell_pair_generators(self):
        circ = self.center([lab("XX"), lab("ZZ")])
        imgs = {conjugate(circ, pp(s)).label for s in ("XX", "ZZ")}
        target = set(rref_basis_from_labels([lab("IZ"), lab("ZI")]).labels(2))
        spanned = rref_basis([l.to_vector() for l in imgs], 4)
        assert spanned == rref_basis([l.to_vector() for l in target], 4)

    def test_rejects_non_isotropic(self):
        # an anticommuting input is a symplectic pair, never sent to the center
        _, k, m = canonicalize_subgroup([lab("X"), lab("Z")])
        assert (k, m) == (1, 0)

    def test_maps_to_leading_qubits(self, rng):
        done = 0
        while done < 50:
            n = int(rng.integers(2, 7))
            gens = [
                PauliLabel(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))
                for _ in range(int(rng.integers(1, n + 1)))
            ]
            basis = rref_basis_from_labels(gens)
            if not basis.rows or not is_isotropic(basis, n):
                continue
            d = len(basis.rows)
            circ = self.center(basis.labels(n))
            img = rref_basis(
                [conjugate(circ, PhasedPauli(l, 0)).label.to_vector() for l in basis.labels(n)],
                2 * n,
            )
            want = rref_basis([1 << (n + q) for q in range(d)], 2 * n)
            assert img == want
            done += 1


class TestCanonicalize:
    @pytest.mark.parametrize(
        "gens,km",
        [
            (["XI", "ZI", "IZ"], (1, 1)),
            (["XI", "IZ"], (0, 2)),
            (["XI", "ZI"], (1, 0)),
            (["ZZ", "XX"], (0, 2)),
        ],
    )
    def test_examples(self, gens, km):
        _, k, m = canonicalize_subgroup([lab(g) for g in gens])
        assert (k, m) == km

    def test_identity_action_when_canonical(self):
        circ, k, m = canonicalize_subgroup([lab("XI"), lab("ZI"), lab("IZ")])
        for s in ("XI", "ZI", "IZ"):
            assert conjugate(circ, pp(s)).label == lab(s)

    @pytest.mark.parametrize("trial", range(10))
    def test_exact_image_random(self, trial):
        rng = np.random.default_rng(4000 + trial)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            cnt = int(rng.integers(1, 2 * n + 2))
            gens = [
                PauliLabel(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))
                for _ in range(cnt)
            ]
            circ, k, m = canonicalize_subgroup(gens)
            img = rref_basis(
                [conjugate(circ, PhasedPauli(g, 0)).label.to_vector() for g in gens],
                2 * n,
            )
            rows = []
            for q in range(k):
                rows += [1 << q, 1 << (n + q)]
            rows += [1 << (n + q) for q in range(k, k + m)]
            assert img == rref_basis(rows, 2 * n)
            assert k + m <= n

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError, match="generators of different lengths"):
            canonicalize_subgroup([lab("XI"), lab("Z")])
        with pytest.raises(ValueError, match="generators of different lengths"):
            canonicalize_subgroup([lab("II"), lab("ZIZ")])

    @pytest.mark.parametrize("framed", [False, True])
    @pytest.mark.parametrize("trial", range(4))
    def test_matches_synthesized_path(self, trial, framed):
        # the emitted circuit against the circuit synthesized from its
        # tableau: same tableau, same unitary up to one global phase; on
        # random label lists, or on every group shape in a random frame
        rng = np.random.default_rng(4100 + trial)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            if framed:
                groups = [[p.label for p in framed_group(n, k, m, rng)] for k, m in group_shapes(n, rng)]
            else:
                groups = [[random_label(n, rng) for _ in range(int(rng.integers(1, 2 * n + 2)))]]
            for gens in groups:
                circ, _, _ = canonicalize_subgroup(gens)
                tab = tableau_from_circuit(circ)
                synth = synthesize_circuit(tab)
                assert tableau_from_circuit(synth) == tab
                ratio = circuit_matrix(circ) @ circuit_matrix(synth).conj().T
                assert abs(abs(ratio[0, 0]) - 1) < 1e-9
                assert np.allclose(ratio, ratio[0, 0] * np.eye(1 << n), atol=1e-9)


class TestSignedGenerators:
    def test_example(self):
        rows = [lab("ZI").to_vector(), lab("XX").to_vector(), lab("YZ").to_vector()]
        assert [g.to_string() for g in signed_generators(2, rows, 0b101)] == ["-ZI", "+XX", "-YZ"]

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_bit_i_negates_row_i(self, n, rng):
        rows = [int(v) for v in rng.integers(0, 4**n, size=n + 2)]
        for signs in range(1 << len(rows)):
            gens = signed_generators(n, rows, signs)
            assert [g.label for g in gens] == [PauliLabel.from_vector(n, v) for v in rows]
            assert [g.phase for g in gens] == [2 if signs & (1 << i) else 0 for i in range(len(rows))]


class TestCanonicalPhase:
    def test_row_stack_matches_each_row_bit_for_bit(self, rng):
        rows = rng.normal(size=(48, 16)) + 1j * rng.normal(size=(48, 16))
        for i, row in enumerate(rows):
            # leading entries that are zero or nonzero but below 1e-9
            row[: i % 8] = 0.0 if i % 2 else 1e-10 * (rng.normal() + 1j * rng.normal())
        got = _canonical_phase_factor(rows)
        assert got.shape == (48,)
        for row, factor in zip(rows, got):
            lead = row[np.flatnonzero(np.abs(row) > 1e-9)[0]]
            assert np.asarray(_canonical_phase_factor(row)).tobytes() == factor.tobytes()
            assert abs(factor * lead - abs(lead)) < 1e-15


class TestStabilizerStates:
    def test_validation(self):
        with pytest.raises(ValueError):
            StabilizerState(2, (pp("+XI"), pp("+ZI")))  # anticommute
        with pytest.raises(ValueError):
            StabilizerState(2, (pp("+ZI"), pp("-ZI")))  # dependent
        with pytest.raises(ValueError):
            StabilizerState(1, (PhasedPauli(lab("X"), 1),))  # not Hermitian

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError, match="Hermitian n-qubit Paulis"):
            StabilizerState(2, (pp("+ZI"), pp("+Z")))
        with pytest.raises(ValueError, match="Hermitian n-qubit Paulis"):
            StabilizerState(2, (pp("+ZII"), pp("+IZ")))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_same_message_as_the_pairwise_check(self, n):
        # the check it replaced: every pair commutes, then the labels' rank
        # is n; on sets that fail either, or both
        rng = np.random.default_rng(5300 + n)
        failed = 0
        for _ in range(300):
            labels = [
                random_label(n, rng) if rng.random() < 0.7 else PauliLabel(n, 0, 1 << int(rng.integers(n)))
                for _ in range(n)
            ]
            want = None
            if any(symplectic_product(a, b) for a, b in itertools.combinations(labels, 2)):
                want = "generators must commute"
            elif len(rref_basis([g.to_vector() for g in labels], 2 * n).rows) != n:
                want = "generator labels must be independent"
            gens = tuple(PhasedPauli(g, 2 * int(rng.integers(2))) for g in labels)
            if want is None:
                StabilizerState(n, gens)
                continue
            failed += 1
            with pytest.raises(ValueError, match=f"^{want}$"):
                StabilizerState(n, gens)
        assert failed

    def test_prep_all_zero_empty(self):
        st = StabilizerState(3, tuple(pp(s) for s in ("+ZII", "+IZI", "+IIZ")))
        assert stab_state_prep(st).gates == ()

    def test_prep_plus(self):
        st = StabilizerState(1, (pp("+X"),))
        assert stab_state_prep(st).gates == (("H", (0,)),)

    def test_prep_bell(self):
        st = StabilizerState(2, (pp("+XX"), pp("+ZZ")))
        out = kernels.apply_gates(kernels.zero_state(2), stab_state_prep(st).gates)
        assert np.allclose(out, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_prep_matches_convention_random(self, rng):
        # against the catalog's vectors, built from projectors, not by the
        # prep: the circuit prepares each up to one 8th root of unity
        states, matrix = stabilizer_state_matrix(2)
        for idx in rng.choice(len(states), size=40, replace=False):
            out = kernels.apply_gates(kernels.zero_state(2), stab_state_prep(states[idx]).gates)
            root = nearest_eighth_root(out, matrix[idx])
            assert np.allclose(out, root * matrix[idx], atol=1e-12)

    def test_synthesis_checks_its_end(self):
        # a row with an i phase is no Hermitian generator: its Z string
        # keeps the i, so the rows never reach +Z
        with pytest.raises(AssertionError, match=r"did not reach \+Z_0"):
            _PauliColumns(1, [PhasedPauli(lab("Z"), 1)]).prepare()

    def test_reduced_and_prepared_once(self, monkeypatch):
        # the vector and the circuit come from one reduction of the generators
        # (``_PauliColumns.prepare``), whatever is asked first or again
        calls = []
        prepare = _PauliColumns.prepare

        def counted(self):
            calls.append(self)
            return prepare(self)

        monkeypatch.setattr(_PauliColumns, "prepare", counted)
        st = StabilizerState(2, (pp("+XX"), pp("-ZZ")))
        vec = statevector_of(st)
        circ = stab_state_prep(st)
        statevector_of(st)
        assert len(calls) == 1
        out = kernels.apply_gates(kernels.zero_state(2), circ.gates)
        assert np.allclose(out, vec, rtol=0, atol=1e-12)

    def test_statevector_stabilized(self, rng):
        states = enumerate_stabilizer_states(2)
        for idx in rng.choice(len(states), size=30, replace=False):
            st = states[int(idx)]
            vec = statevector_of(st)
            for g in st.generators:
                assert np.allclose(weyl_matrix(g) @ vec, vec, atol=1e-12)

    def test_inner_product_examples(self):
        zero = StabilizerState(1, (pp("+Z"),))
        plus = StabilizerState(1, (pp("+X"),))
        bell = StabilizerState(2, (pp("+XX"), pp("+ZZ")))
        zz = StabilizerState(2, (pp("+ZI"), pp("+IZ")))
        assert abs(stabilizer_inner_product(zero, zero) - 1) < 1e-12
        assert abs(stabilizer_inner_product(zero, plus) - 1 / np.sqrt(2)) < 1e-12
        assert abs(stabilizer_inner_product(zz, bell) - 1 / np.sqrt(2)) < 1e-12

    def test_inner_product_against_dense(self):
        # every pair from the full two-qubit catalog
        states, matrix = stabilizer_state_matrix(2)
        gram = matrix.conj() @ matrix.T
        for i in range(len(states)):
            for j in range(len(states)):
                got = stabilizer_inner_product(states[i], states[j])
                assert abs(got - gram[i, j]) < 1e-12

    def test_from_json_empty_rejected(self):
        with pytest.raises(ValueError, match="need at least one generator"):
            StabilizerState.from_json([])

    def test_serialization_round_trip(self, rng):
        states = enumerate_stabilizer_states(2)
        st = states[int(rng.integers(len(states)))]
        assert StabilizerState.from_json(st.to_json()) == st


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 6), (2, 60), (3, 1080)])
    def test_counts(self, n, count):
        assert len(enumerate_stabilizer_states(n)) == count

    def test_duplicate_free(self):
        _, matrix = stabilizer_state_matrix(2)
        gram = np.abs(matrix.conj() @ matrix.T)
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 1 - 1e-9

    def test_cap(self):
        # the exact oracles' search space is refused above five qubits
        with pytest.raises(ValueError, match="n = 6 has 4095 isotropic subspaces of dimension 1"):
            isotropic_subspaces(6, 1)

    def test_sorted_by_serialization(self):
        states, _ = stabilizer_state_matrix(2)
        keys = [s.sort_key() for s in states]
        assert keys == sorted(keys)


class TestIsotropicSubspaces:
    @pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 6) for d in range(n + 1)])
    def test_counts(self, n, d):
        want = 1
        for i in range(d):
            want = want * (4 ** (n - i) - 1) // (2 ** (i + 1) - 1)
        subspaces = isotropic_subspaces(n, d)
        assert subspaces.shape == (want, d)
        # distinct rows (packed 2n bits apiece): with the RREF check below,
        # distinct subspaces
        keys = (subspaces << (2 * n * np.arange(d))).sum(axis=1)
        assert np.unique(keys).shape[0] == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_are_isotropic_rref_bases(self, n):
        for d in range(1, n + 1):
            for rows in isotropic_subspaces(n, d):
                rows = tuple(int(v) for v in rows)
                basis = rref_basis(rows, 2 * n)
                assert basis.rows == rows
                labels = basis.labels(n)
                assert all(
                    symplectic_product(labels[i], labels[j]) == 0
                    for i in range(d) for j in range(i)
                )

    def test_read_only_and_cached(self):
        subspaces = isotropic_subspaces(3, 2)
        assert not subspaces.flags.writeable
        assert isotropic_subspaces(3, 2) is subspaces

    def test_zero_dimensional(self):
        assert isotropic_subspaces(3, 0).shape == (1, 0)

    @pytest.mark.parametrize("d", [-1, 4])
    def test_dimension_out_of_range(self, d):
        with pytest.raises(ValueError, match="0 <= d <= n"):
            isotropic_subspaces(3, d)

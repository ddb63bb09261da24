import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stabcorrect.gf2 import (
    PauliLabel,
    mub_covering,
    rref_basis,
    symplectic_gram_schmidt,
)
from stabcorrect.pauli import PhasedPauli

from conftest import (
    all_rows,
    enumerate_span,
    span_reduce,
    is_isotropic,
    is_lagrangian,
    label_sum,
    random_label,
    random_label_set,
    rref_basis_from_labels,
    symplectic_gram_schmidt_reference,
    symplectic_product,
)

lab = PauliLabel.from_string


def vec(s):
    return lab(s).to_vector()


def gram_schmidt(labels):
    return symplectic_gram_schmidt([g.to_vector() for g in labels], labels[0].n)


def labels(n):
    return st.builds(
        lambda x, z: PauliLabel(n, x, z),
        st.integers(0, (1 << n) - 1),
        st.integers(0, (1 << n) - 1),
    )


class TestSymplecticProduct:
    def test_x_z_anticommute(self):
        assert symplectic_product(lab("X"), lab("Z")) == 1

    def test_self_commutes(self, rng):
        for _ in range(20):
            x = random_label(4, rng)
            assert symplectic_product(x, x) == 0

    def test_disjoint_supports(self):
        assert symplectic_product(lab("XI"), lab("IZ")) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            symplectic_product(lab("X"), lab("XI"))

    @given(labels(5), labels(5))
    def test_symmetric_over_f2(self, a, b):
        assert symplectic_product(a, b) == symplectic_product(b, a)

    @given(labels(5), labels(5), labels(5))
    def test_bilinear(self, a, b, c):
        lhs = symplectic_product(label_sum(a, c), b)
        rhs = symplectic_product(a, b) ^ symplectic_product(c, b)
        assert lhs == rhs


class TestRref:
    def test_rank_two_span(self):
        # 110, 011, 101 as bitmasks with bit 0 leftmost
        b = rref_basis([0b011, 0b110, 0b101], 3)
        assert len(b.rows) == 2
        assert span_reduce(b, 0b101) == 0

    def test_empty(self):
        assert rref_basis([], 4).rows == ()

    def test_duplicates(self):
        assert rref_basis([0b101, 0b101], 3).rows == (0b101,)

    def test_zero_always_contained(self, rng):
        vecs = [int(rng.integers(0, 256)) for _ in range(3)]
        assert span_reduce(rref_basis(vecs, 8), 0) == 0

    def test_not_contained(self):
        b = rref_basis([0b001], 3)
        assert span_reduce(b, 0b010)

    def test_canonical_uniqueness(self, rng):
        # two generating sets of the same subspace give bit-identical bases
        for _ in range(50):
            nbits = int(rng.integers(2, 10))
            vecs = [int(rng.integers(0, 1 << nbits)) for _ in range(4)]
            b1 = rref_basis(vecs, nbits)
            mixed = list(vecs)
            rng.shuffle(mixed)
            mixed.append(mixed[0] ^ mixed[1] if len(mixed) > 1 else mixed[0])
            assert rref_basis(mixed, nbits) == b1

    def test_membership_reduce(self, rng):
        for _ in range(50):
            b = rref_basis([int(rng.integers(0, 1 << 8)) for _ in range(4)], 8)
            span = set(enumerate_span(b))
            for v in range(64):
                assert (span_reduce(b, v) == 0) == (v in span)

    def test_reduce_is_one_value_per_coset(self, rng):
        # equal reductions exactly when the difference lies in the span
        for _ in range(50):
            b = rref_basis([int(rng.integers(0, 1 << 8)) for _ in range(3)], 8)
            span = set(enumerate_span(b))
            for u in range(32):
                for v in range(32):
                    assert (span_reduce(b, u) == span_reduce(b, v)) == ((u ^ v) in span)


class TestSgs:
    def test_already_canonical(self):
        center, pairs = gram_schmidt([lab("XI"), lab("ZI"), lab("IZ")])
        assert pairs == ((vec("XI"), vec("ZI")),)
        assert center == (vec("IZ"),)

    def test_commuting_pair_goes_to_center(self):
        center, pairs = gram_schmidt([lab("ZZ"), lab("XX")])
        assert pairs == ()
        assert set(center) == {vec("ZZ"), vec("XX")}

    def test_two_pairs(self):
        center, pairs = gram_schmidt([lab("XI"), lab("ZI"), lab("IX"), lab("IZ")])
        assert len(pairs) == 2 and not center

    def test_identity_dropped(self):
        center, pairs = gram_schmidt([lab("II"), lab("ZI")])
        assert center == (vec("ZI"),)

    def test_redundant_generators(self):
        center, pairs = gram_schmidt([lab("ZI"), lab("ZI"), lab("IZ")])
        assert len(center) == 2 and not pairs

    @pytest.mark.parametrize("trial", range(10))
    def test_invariants_random(self, trial):
        rng = np.random.default_rng(1000 + trial)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            gens = [random_label(n, rng) for _ in range(int(rng.integers(0, 2 * n + 2)))]
            center, pairs = symplectic_gram_schmidt([g.to_vector() for g in gens], n)
            out = [PauliLabel.from_vector(n, v) for v in all_rows(center, pairs)]
            # span preserved
            got = rref_basis([g.to_vector() for g in out], 2 * n)
            want = rref_basis([g.to_vector() for g in gens], 2 * n)
            assert got == want
            # output independent
            assert len(got.rows) == len(out)
            # commutation structure: pairs anticommute, everything else commutes
            mates = {}
            for g, h in pairs:
                mates[g] = h
                mates[h] = g
            for i in range(len(out)):
                for j in range(i + 1, len(out)):
                    expected = int(mates.get(out[i].to_vector()) == out[j].to_vector())
                    assert symplectic_product(out[i], out[j]) == expected

    @pytest.mark.parametrize("n", range(1, 13))
    def test_same_split_as_the_label_reference(self, n):
        # the same center and pairs in the same order, on sets with zero,
        # repeated and dependent rows: 12 x 500 sets
        rng = np.random.default_rng(1100 + n)
        for _ in range(500):
            gens = random_label_set(n, rng)
            ref = symplectic_gram_schmidt_reference(gens)
            center, pairs = symplectic_gram_schmidt([g.to_vector() for g in gens], n)
            assert center == tuple(g.to_vector() for g in ref.center)
            assert pairs == tuple((g.to_vector(), h.to_vector()) for g, h in ref.pairs)


class TestIsotropy:
    def test_z_plane(self):
        b = rref_basis_from_labels([lab("ZI"), lab("IZ")])
        assert is_isotropic(b, 2) and is_lagrangian(b, 2)

    def test_xz_not_isotropic(self):
        b = rref_basis_from_labels([lab("XI"), lab("ZI")])
        assert not is_isotropic(b, 2)

    def test_partial_not_lagrangian(self):
        b = rref_basis_from_labels([lab("ZI")])
        assert is_isotropic(b, 2) and not is_lagrangian(b, 2)


class TestMub:
    def test_single_qubit_axes(self):
        # X, Y, then the Z axis, row for row
        cov = mub_covering(1)
        groups = [tuple(PauliLabel.from_vector(1, v).to_string() for v in g.rows) for g in cov.groups]
        assert groups == [("X",), ("Y",), ("Z",)]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_invariants_exhaustive(self, k):
        cov = mub_covering(k)
        assert len(cov.groups) == 2**k + 1
        seen = set()
        for g in cov.groups:
            assert len(g.rows) == k
            assert is_lagrangian(g, k)
            span = set(enumerate_span(g)) - {0}
            assert len(span) == 2**k - 1
            assert not span & seen
            seen |= span
        assert len(seen) == 4**k - 1

    @pytest.mark.parametrize("k", range(1, 7))
    def test_lines_are_symmetric_matrices(self, k):
        # each line is {(a, G a)}: row j is X on qubit j with column j of a
        # symmetric G as its Z part; the Z axis comes last
        cov = mub_covering(k)
        low = (1 << k) - 1
        for g in cov.groups[:-1]:
            assert [v & low for v in g.rows] == [1 << j for j in range(k)]
            cols = [v >> k for v in g.rows]
            assert all((cols[j] >> i) & 1 == (cols[i] >> j) & 1 for i in range(k) for j in range(k))
        assert cov.groups[-1].rows == tuple(1 << (k + q) for q in range(k))

    def test_counting_identity_k3(self):
        cov = mub_covering(3)
        total = sum(len(set(enumerate_span(g))) - 1 for g in cov.groups)
        assert total == 9 * 7 == (2**3 + 1) * (2**3 - 1)

    def test_deterministic(self):
        assert mub_covering(4) is mub_covering(4)
        assert mub_covering(2) == mub_covering(2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mub_covering(0)
        with pytest.raises(ValueError):
            mub_covering(7)


class TestSerialization:
    def test_string_round_trip(self, rng):
        for _ in range(30):
            x = random_label(5, rng)
            assert PauliLabel.from_string(x.to_string()) == x

    @pytest.mark.parametrize("text", ["ZQ", "+XI-", "X Z", "+XZ", "++XZ", "xz", "Xz", "iX"])
    def test_unknown_character_named(self, text):
        # a label string has no sign, signs are PhasedPauli.from_string's,
        # and its letters are upper case
        bad = next(ch for ch in text if ch not in "IXYZ")
        with pytest.raises(ValueError, match=re.escape(f"unknown Pauli character {bad!r} in {text!r}")):
            PauliLabel.from_string(text)

    @pytest.mark.parametrize("text, body", [("+ix", "x"), ("-izz", "zz"), ("xz", "xz")])
    def test_lowercase_letters_refused(self, text, body):
        # a lowercase letter is no Pauli, so "+ix" is not the 1-qubit +iX
        # (nor "-izz" -iZZ): after the sign the rest must be upper case
        with pytest.raises(ValueError, match=re.escape(f"unknown Pauli character {body[0]!r} in {body!r}")):
            PhasedPauli.from_string(text)

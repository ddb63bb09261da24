import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stabcorrect import kernels
from stabcorrect.pauli import CliffordCircuit

from conftest import gate_matrix


def normalized(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


class TestWht:
    def test_matches_matrix(self, rng):
        for n in (1, 2, 3, 4):
            m = 1 << n
            had = np.array(
                [[(-1) ** bin(i & j).count("1") for j in range(m)] for i in range(m)],
                dtype=float,
            )
            v = rng.normal(size=m)
            got = kernels.wht_inplace(v.copy())
            assert np.allclose(got, had @ v)

    def test_involution_up_to_size(self, rng):
        v = rng.normal(size=64)
        w = kernels.wht_inplace(kernels.wht_inplace(v.copy()))
        assert np.allclose(w, 64 * v)


class TestCharTable:
    def test_identity_entry(self, rng):
        amps = normalized(rng, 3)
        table = kernels.char_expectations(amps, 3)
        assert abs(table[0] - 1.0) < 1e-12

    def test_squares_sum_to_dim(self, rng):
        # purity: sum_x <W_x>^2 = 2^n
        for n in (2, 3):
            amps = normalized(rng, n)
            table = kernels.char_expectations(amps, n)
            assert abs(np.sum(table**2) - (1 << n)) < 1e-8


class TestConvolve:
    def test_fast_equals_naive(self, rng):
        for nbits in (2, 4, 6):
            p = np.abs(rng.normal(size=1 << nbits))
            p /= p.sum()
            assert np.allclose(
                kernels.xor_convolve(p), kernels.xor_convolve_naive(p, p), atol=1e-12
            )

    def test_delta_convolution(self):
        p = np.zeros(8)
        p[3] = 0.5
        p[5] = 0.5
        want = np.zeros(8)
        want[0] = 0.5
        want[3 ^ 5] = 0.5
        assert np.allclose(kernels.xor_convolve(p), want)

    def test_normalization_preserved(self, rng):
        p = np.abs(rng.normal(size=64))
        p /= p.sum()
        assert abs(kernels.xor_convolve(p).sum() - 1.0) < 1e-12


def _all_gates(n):
    singles = [(name, (q,)) for name in "HSTXZ" for q in range(n)]
    return singles + [("CNOT", pair) for pair in itertools.permutations(range(n), 2)]


@st.composite
def clifford_circuits(draw):
    n = draw(st.integers(1, 6))
    single = st.tuples(st.sampled_from("HSXZ"), st.tuples(st.integers(0, n - 1)))
    gate = single
    if n > 1:
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(tuple)
        gate = st.one_of(single, st.tuples(st.just("CNOT"), pair))
    return CliffordCircuit(n, tuple(draw(st.lists(gate, max_size=40))))


class TestApplyGates:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dense_reference(self, n, rng):
        vec = normalized(rng, n)
        batch = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
        for name, qs in _all_gates(n):
            ref = gate_matrix(name, qs, n)
            for amps in (vec, batch):
                got = kernels.apply_gates(amps, [(name, qs)])
                assert np.allclose(got, ref @ amps, rtol=0, atol=1e-12), (name, qs)

    def test_applies_in_order_to_a_copy(self, rng):
        amps = normalized(rng, 3)
        before = amps.copy()
        gates = [("H", (1,)), ("CNOT", (1, 2)), ("T", (2,)), ("S", (0,))]
        want = amps
        for name, qs in gates:
            want = gate_matrix(name, qs, 3) @ want
        assert np.allclose(kernels.apply_gates(amps, gates), want, rtol=0, atol=1e-12)
        assert np.array_equal(amps, before)

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError, match="unknown gate 'Y'"):
            kernels.apply_gates(kernels.zero_state(2), [("Y", (0,))])

    @given(clifford_circuits(), st.integers(0, 2**32 - 1))
    def test_inverse_round_trip(self, circuit, seed):
        amps = normalized(np.random.default_rng(seed), circuit.n)
        there = kernels.apply_gates(amps, circuit.gates)
        back = kernels.apply_gates(there, circuit.inverse().gates)
        assert np.max(np.abs(back - amps)) <= 1e-12

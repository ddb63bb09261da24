import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stabcorrect import kernels
from stabcorrect.harness import _random_clifford_gates
from stabcorrect.pauli import CliffordCircuit
from stabcorrect.statevec import StateVector

from conftest import (
    apply_gates_reference,
    char_expectations_reference,
    distribution_tables,
    gate_matrix,
    inverse_cdf_reference,
    random_circuit,
    signed_expectations,
    table_states,
    wht_butterfly_reference,
    wht_rounding_bound,
    with_cz,
    xor_convolve,
    xor_convolve_naive,
)


def normalized(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def hadamard(k):
    m = 1 << k
    return np.array(
        [[(-1) ** bin(i & j).count("1") for j in range(m)] for i in range(m)], dtype=float
    )


class TestWht:
    def test_matches_matrix(self, rng):
        for n in (1, 2, 3, 4):
            v = rng.normal(size=1 << n)
            got = kernels.wht_inplace(v.copy())
            assert np.allclose(got, hadamard(n) @ v)

    @pytest.mark.parametrize("k, batch", [(0, (3,)), (1, (1,)), (2, (5,)), (3, (4,)), (5, (7,)), (3, (2, 3))])
    def test_leading_axis_batch_matches_matrix(self, k, batch, rng):
        v = rng.normal(size=(1 << k, *batch))
        got = kernels.wht_inplace(v.copy())
        want = np.tensordot(hadamard(k), v, axes=1)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("k", [*range(1, 14), 18])
    def test_integer_inputs_equal_the_butterflies(self, k, rng):
        # bit for bit: integer entries |v| <= 2^30 keep every partial sum
        # below 2^53, so any summation order is exact; k = 13 and 18 take a
        # three-factor split, copied back from the scratch
        for shape in [(1 << k,), (1 << k, 3)]:
            v = rng.integers(-(1 << 30), 1 << 30, size=shape, endpoint=True).astype(np.float64)
            got = kernels.wht_inplace(v.copy())
            assert np.array_equal(got, wht_butterfly_reference(v.copy()))

    @pytest.mark.parametrize("k, m", [(1, 1), (4, 1), (4, 6), (7, 33)])
    def test_same_butterflies_as_the_last_axis_layout(self, k, m, rng):
        # the transform of a (2^k, m) array is the butterfly transform of each
        # row of its (m, 2^k) transpose: bit for bit on integer entries, within
        # the rounding bound on floats
        ints = rng.integers(-(1 << 30), 1 << 30, size=(1 << k, m), endpoint=True).astype(np.float64)
        for v, exact in [(ints, True), (rng.normal(size=(1 << k, m)), False)]:
            got = kernels.wht_inplace(v.copy())
            want = np.array([wht_butterfly_reference(row.copy()) for row in v.T]).T
            tol = 0.0 * v[0] if exact else wht_rounding_bound(v)
            assert np.all(np.abs(got - want) <= tol)
            col = kernels.wht_inplace(v[:, 0].copy())
            assert np.all(np.abs(col - want[:, 0]) <= tol[0])

    @pytest.mark.parametrize("k", range(1, 13))
    def test_float_inputs_within_the_rounding_bound(self, k, rng):
        for shape in [(1 << k,), (1 << k, 5)]:
            v = rng.normal(size=shape)
            got = kernels.wht_inplace(v.copy())
            assert np.all(np.abs(got - wht_butterfly_reference(v.copy())) <= wht_rounding_bound(v))

    def test_factor_splits(self):
        # the larger factors first, each at most 2^_FACTOR_BITS rows
        assert [kernels._factor_bits(k) for k in (0, 1, 6, 7, 10, 12, 13)] == [
            [], [1], [6], [4, 3], [5, 5], [6, 6], [5, 4, 4]
        ]

    def test_involution_up_to_size(self, rng):
        v = rng.normal(size=64)
        w = kernels.wht_inplace(kernels.wht_inplace(v.copy()))
        assert np.allclose(w, 64 * v)


class TestCharTable:
    def test_identity_entry(self, rng):
        amps = normalized(rng, 3)
        table = signed_expectations(amps, 3)
        assert abs(table[0] - 1.0) < 1e-12

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_per_row_complex_reference(self, n, rng):
        for amps in table_states(n, rng):
            got = signed_expectations(amps, n)
            assert got.shape == (4**n,)
            assert np.max(np.abs(got - char_expectations_reference(amps, n))) <= 1e-13

    def test_squares_sum_to_dim(self, rng):
        # purity: sum_x <W_x>^2 = 2^n
        for n in (2, 3):
            amps = normalized(rng, n)
            table = signed_expectations(amps, n)
            assert abs(np.sum(table**2) - (1 << n)) < 1e-8


class TestConvolve:
    def test_fast_equals_naive(self, rng):
        for nbits in (2, 4, 6):
            p = np.abs(rng.normal(size=1 << nbits))
            p /= p.sum()
            assert np.allclose(
                xor_convolve(p), xor_convolve_naive(p, p), atol=1e-12
            )

    def test_delta_convolution(self):
        p = np.zeros(8)
        p[3] = 0.5
        p[5] = 0.5
        want = np.zeros(8)
        want[0] = 0.5
        want[3 ^ 5] = 0.5
        assert np.allclose(xor_convolve(p), want)

    def test_normalization_preserved(self, rng):
        p = np.abs(rng.normal(size=64))
        p /= p.sum()
        assert abs(xor_convolve(p).sum() - 1.0) < 1e-12


class TestInverseCdf:
    @staticmethod
    def check(cum, keys):
        got = kernels.inverse_cdf(cum, keys)
        want = inverse_cdf_reference(cum, keys)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_tables(self, n, rng):
        cum = np.cumsum(rng.random(4**n))
        self.check(cum, rng.random(4096) * cum[-1])

    def test_stabilizer_q_with_zero_mass_runs(self, rng):
        n = 4
        psi = StateVector(n, kernels.apply_gates(kernels.zero_state(n), random_circuit(n, rng).gates))
        _, q = distribution_tables(psi)
        cum = np.cumsum(q)
        assert np.count_nonzero(q) == 1 << n  # 240 of 256 steps add nothing
        self.check(cum, rng.random(4096) * cum[-1])
        # each key on a plateau maps past the whole run of equal entries
        self.check(cum, rng.permutation(cum))

    def test_keys_equal_to_entries_and_the_clamp(self, rng):
        cum = np.cumsum(rng.integers(0, 3, size=64).astype(float))
        keys = rng.permutation(np.concatenate([cum, cum, [0.0, cum[-1], cum[-1] + 1.0]]))
        self.check(cum, keys)
        # a key equal to the total would fall past the end; it takes the last index
        assert kernels.inverse_cdf(cum, np.array([cum[-1]]))[0] == cum.shape[0] - 1

    @pytest.mark.parametrize("size", [0, 1])
    def test_empty_and_single_key(self, size, rng):
        cum = np.cumsum(rng.random(16))
        keys = rng.random(size) * cum[-1]
        self.check(cum, keys)
        assert kernels.inverse_cdf(cum, keys).shape == (size,)

    @given(st.data())
    def test_matches_reference_on_arbitrary_steps(self, data):
        steps = st.floats(0.0, 1e6)
        cum = np.cumsum(data.draw(st.lists(steps, min_size=1, max_size=64)))
        # keys below, between, on and above the entries, in any order
        key = st.one_of(st.floats(-1.0, 2e6 * 64), st.sampled_from(list(cum)))
        self.check(cum, np.array(data.draw(st.lists(key, max_size=64)), dtype=float))


def _all_gates(n):
    singles = [(name, (q,)) for name in "HSTXZ" for q in range(n)]
    pairs = list(itertools.permutations(range(n), 2))
    return singles + [(name, pair) for name in ("CNOT", "CZ") for pair in pairs]


@st.composite
def clifford_circuits(draw):
    n = draw(st.integers(1, 6))
    single = st.tuples(st.sampled_from("HSXZ"), st.tuples(st.integers(0, n - 1)))
    gate = single
    if n > 1:
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(tuple)
        gate = st.one_of(single, st.tuples(st.sampled_from(["CNOT", "CZ"]), pair))
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

    @pytest.mark.parametrize("n", range(1, 11))
    def test_byte_identical_to_the_per_gate_reference(self, n):
        # lists as ``tdoped`` draws them, Clifford segments of 2n^2 + 4 gates
        # with a T gate between each two, on |0...0> (whose zero amplitudes
        # pick up signs), a vector with exact and negative zeros and a
        # (2^n, 3) batch; tobytes() tells -0.0 from 0.0
        rng = np.random.default_rng(7100 + n)
        for t in range(4):
            gates = _random_clifford_gates(n, rng, 2 * n * n + 4)
            for _ in range(t):
                gates.append(("T", (int(rng.integers(n)),)))
                gates += _random_clifford_gates(n, rng, 2 * n * n + 4)
            vec = normalized(rng, n)
            vec[rng.random(1 << n) < 0.25] = 0.0
            vec[rng.random(1 << n) < 0.25] = -0.0
            batch = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
            for amps in (kernels.zero_state(n), vec, batch):
                want = apply_gates_reference(amps, gates)
                assert kernels.apply_gates(amps, gates).tobytes() == want.tobytes(), (n, t)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_cz_byte_identical_to_the_per_gate_reference(self, n):
        # Clifford lists with CZ gates mixed in, on |0...0>, a vector with
        # exact and negative zeros and a (2^n, 3) batch
        rng = np.random.default_rng(7200 + n)
        for _ in range(3):
            gates = with_cz(_random_clifford_gates(n, rng, 2 * n * n + 4), n, rng)
            vec = normalized(rng, n)
            vec[rng.random(1 << n) < 0.25] = -0.0
            batch = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
            for amps in (kernels.zero_state(n), vec, batch):
                want = apply_gates_reference(amps, gates)
                assert kernels.apply_gates(amps, gates).tobytes() == want.tobytes(), n

    @given(clifford_circuits(), st.integers(0, 2**32 - 1))
    def test_arbitrary_lists_byte_identical_to_the_per_gate_reference(self, circuit, seed):
        amps = normalized(np.random.default_rng(seed), circuit.n)
        want = apply_gates_reference(amps, circuit.gates)
        assert kernels.apply_gates(amps, circuit.gates).tobytes() == want.tobytes()

    @given(clifford_circuits(), st.integers(0, 2**32 - 1))
    def test_inverse_round_trip(self, circuit, seed):
        amps = normalized(np.random.default_rng(seed), circuit.n)
        there = kernels.apply_gates(amps, circuit.gates)
        back = kernels.apply_gates(there, circuit.inverse().gates)
        assert np.max(np.abs(back - amps)) <= 1e-12

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stabcorrect import kernels, statevec
from stabcorrect.gf2 import PauliLabel, rref_basis
from stabcorrect.ledger import CostLedger
from stabcorrect.pauli import (
    PhasedPauli,
    StabilizerState,
    isotropic_subspaces,
    stab_state_prep,
    statevector_of,
)
from stabcorrect.harness import ExperimentConfig, run
from stabcorrect.statevec import (
    SAMPLER_MAX_SHOTS,
    TABLE_BUILD_PEAK,
    StateVector,
    _projection_weights,
    _label_cdf,
    _proxy_shots,
    _span_phases,
    apply_circuit,
    binomial_estimate,
    bruteforce_stab_dim_fidelity,
    bruteforce_stab_fidelity,
    exact_proxy,
    expectation_squares,
    gowers3_metrics,
    hadamard_test_estimate,
    lcu_residual,
    overlap,
    random_state,
    sample_retained,
    sampled_gowers3_metrics,
    stab_combination,
    table_build_bytes,
)
from stabcorrect.selfcorrect import sampled_tolerant_test, self_correct

from conftest import (
    RecordingGenerator,
    enumerate_span,
    sample_weyl_indices,
    basis_state,
    apply_weyl,
    catalog_stab_fidelity,
    distribution_tables,
    enumerate_stabilizer_states,
    expectation_table,
    inverse_cdf_reference,
    measure_block,
    nearest_eighth_root,
    pauli_product,
    per_shot_averages,
    q_tables_reference,
    retained_reference,
    retained_replay,
    rotation_stab_dim_fidelity,
    signed_expectations,
    stabilizer_state_matrix,
    t_state,
    table_states,
    tensor,
    weyl_expectation,
    wht_butterfly_reference,
    wht_rounding_bound,
)

lab = PauliLabel.from_string
pp = PhasedPauli.from_string

SQ2 = 1 / np.sqrt(2)


class TestApplyWeyl:
    # the dense reference that weyl_expectation, and through it the table
    # tests, read
    def test_x_flips(self):
        out = apply_weyl(basis_state(1), lab("X"))
        assert np.allclose(out.amps, [0, 1])

    def test_y_phase(self):
        out = apply_weyl(basis_state(1), lab("Y"))
        assert np.allclose(out.amps, [0, 1j])

    def test_involution(self, rng):
        psi = random_state(3, rng)
        for _ in range(20):
            x = PauliLabel(3, int(rng.integers(8)), int(rng.integers(8)))
            back = apply_weyl(apply_weyl(psi, x), x)
            assert np.allclose(back.amps, psi.amps)

    def test_against_matrix(self, rng):
        # the matrix against i^{|a&b|} times Z gates on b's qubits, then X
        # gates on a's, through the gate kernel
        psi = random_state(2, rng)
        for x in range(4):
            for z in range(4):
                gates = [("Z", (q,)) for q in range(2) if z >> q & 1]
                gates += [("X", (q,)) for q in range(2) if x >> q & 1]
                got = apply_weyl(psi, PauliLabel(2, x, z)).amps
                want = 1j ** (x & z).bit_count() * kernels.apply_gates(psi.amps, gates)
                assert np.allclose(got, want)


class TestApplyCircuit:
    def test_h_plus(self):
        from stabcorrect.pauli import CliffordCircuit

        out = apply_circuit(basis_state(1), CliffordCircuit(1, (("H", (0,)),)), CostLedger())
        assert np.allclose(out.amps, [SQ2, SQ2])

    def test_bell(self):
        from stabcorrect.pauli import CliffordCircuit

        circ = CliffordCircuit(2, (("H", (0,)), ("CNOT", (0, 1))))
        out = apply_circuit(basis_state(2), circ, CostLedger())
        assert np.allclose(out.amps, [SQ2, 0, 0, SQ2])

    def test_prep_cross_module(self, rng):
        states = enumerate_stabilizer_states(2)
        ledger = CostLedger()
        for idx in rng.choice(len(states), size=20, replace=False):
            st = states[int(idx)]
            circ = stab_state_prep(st)
            out = apply_circuit(basis_state(2), circ, ledger)
            ref = statevector_of(st)
            # the circuit prepares the canonical vector up to one 8th root of unity
            assert np.allclose(out.amps, nearest_eighth_root(out.amps, ref) * ref, atol=1e-12)
        assert ledger.totals["gate_count"] > 0


class TestExpectations:
    def test_z_on_zero(self):
        assert weyl_expectation(basis_state(1), lab("Z")) == pytest.approx(1.0)

    def test_x_on_zero(self):
        assert weyl_expectation(basis_state(1), lab("X")) == pytest.approx(0.0)

    def test_t_state_bloch(self):
        T = t_state()
        assert weyl_expectation(T, lab("X")) == pytest.approx(SQ2, abs=1e-12)
        assert weyl_expectation(T, lab("Y")) == pytest.approx(SQ2, abs=1e-12)
        assert weyl_expectation(T, lab("Z")) == pytest.approx(0.0, abs=1e-12)

    def test_requires_normalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, [2, 0])

    def test_table_matches_singles(self, rng):
        psi = random_state(3, rng)
        table = expectation_table(psi)
        for idx in rng.integers(0, 64, size=20):
            l = PauliLabel.from_vector(3, int(idx))
            assert table[int(idx)] == pytest.approx(weyl_expectation(psi, l), abs=1e-10)


class TestDistributions:
    def test_zero_state_support(self):
        p, q = distribution_tables(basis_state(2))
        for x in range(4):
            for z in range(4):
                val = p[PauliLabel(2, x, z).to_vector()]
                assert val == pytest.approx(0.25 if x == 0 else 0.0, abs=1e-12)

    def test_t_state_tables(self):
        p, q = distribution_tables(t_state())
        # index order: I, X, Z, Y
        assert np.allclose(p, [0.5, 0.25, 0.0, 0.25], atol=1e-12)
        assert np.allclose(q, [0.375, 0.25, 0.125, 0.25], atol=1e-12)

    def test_invariants_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 6))
            p, q = distribution_tables(random_state(n, rng))
            for table in (p, q):
                assert abs(table.sum() - 1) < 1e-10
                assert table.max() <= 2.0**-n + 1e-12

    def test_label_cdf_is_the_cumsum_of_the_squares(self, rng):
        for n in (1, 3, 5):
            psi = random_state(n, rng)
            sample_weyl_indices(psi, 1, rng, CostLedger())
            assert np.array_equal(psi._cache["wcum"], np.cumsum(expectation_squares(psi)))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_squares_equal_the_signed_table_squared(self, n, rng):
        # the sign pass that expectation_squares skips changes no square
        for amps in table_states(n, rng):
            got = expectation_squares(StateVector(n, amps))
            assert np.array_equal(got, signed_expectations(amps, n) ** 2)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_q_and_proxy_match_the_butterfly_build(self, n, rng):
        # the triple-correlation sum against E_q[<W_x>^2] of q built by the
        # self-duality of p with butterflies
        for amps in table_states(n, rng):
            psi = StateVector(n, amps)
            _, proxy = q_tables_reference(psi)
            assert abs(exact_proxy(psi) - proxy) <= 1e-14

    @pytest.mark.parametrize("n", range(1, 10))
    def test_one_transform_matches_the_convolution(self, n, rng):
        # q by one transform of <W_x>^4 against the law reference's XOR
        # self-convolution, also where a stabilizer state's q is zero, and
        # the proxy against E_q[<W_x>^2] of the convolution's q
        for amps in table_states(n, rng):
            psi = StateVector(n, amps)
            q1, _ = q_tables_reference(psi)
            _, q = distribution_tables(psi)
            assert np.max(np.abs(q1 - q)) <= 1e-14
            assert abs(exact_proxy(psi) - float(np.dot(q, expectation_squares(psi)))) <= 1e-14

    def test_state_caches_two_tables(self, rng):
        # after self_correct on a planted n = 6 state the cache holds <W_x>^2,
        # its cumsum and the proxy scalar, nothing else
        n = 6
        junk = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        junk[0] = 0.0
        amps = np.sqrt(0.1) * junk / np.linalg.norm(junk)
        amps[0] = np.sqrt(0.9)  # planted |0...0>, stabilized by every Z_q
        psi = StateVector(n, amps)
        self_correct(psi, 0.5, 0.05, rng, CostLedger())
        assert set(psi._cache) == {"w2", "wcum", "proxy"}
        for table in ("w2", "wcum"):
            assert psi._cache[table].shape == (4**n,)
        assert isinstance(psi._cache["proxy"], float)

    def test_first_draw_builds_the_cdf_once(self, rng):
        # the proxy alone keeps one table; the first draw of either sampler
        # adds the cdf, and later draws reuse it
        for sample in (sample_weyl_indices, sample_retained):
            psi = random_state(4, rng)
            exact_proxy(psi)
            assert set(psi._cache) == {"w2", "proxy"}
            sample(psi, 3, rng, CostLedger())
            cum = psi._cache["wcum"]
            assert set(psi._cache) == {"w2", "wcum", "proxy"}
            assert np.array_equal(cum, np.cumsum(expectation_squares(psi)))
            sample_weyl_indices(psi, 3, rng, CostLedger())
            sample_retained(psi, 3, rng, CostLedger())
            assert psi._cache["wcum"] is cum


class TestTableMemory:
    def test_build_peak_is_the_measured_constant(self, rng):
        n = 8
        psi = random_state(n, rng)
        tracemalloc.start()
        try:
            exact_proxy(psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (8 * 4**n) == pytest.approx(TABLE_BUILD_PEAK, abs=0.01)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_build_peak_within_the_requested_bytes(self, n, rng, monkeypatch):
        # below n = 8 the fixed-size buffers outweigh the tables, and the
        # request covers them as well
        requested = []
        check = statevec.require_memory

        def recorded(*args):
            requested.append(args)
            return check(*args)

        monkeypatch.setattr(statevec, "require_memory", recorded)
        psi = random_state(n, rng)
        tracemalloc.start()
        try:
            expectation_squares(psi)
            exact_proxy(psi)
            _label_cdf(psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert requested == [(n, table_build_bytes(n))]
        assert peak <= table_build_bytes(n)

    def test_oversized_build_raises_before_allocating(self):
        # n = 20: 8 TiB per table
        amps = np.zeros(1 << 20, dtype=complex)
        amps[0] = 1.0
        psi = StateVector(20, amps)
        tracemalloc.start()
        try:
            for build in (expectation_squares, exact_proxy):
                with pytest.raises(ValueError, match=r"n = 20 needs \d+ bytes, more than the \d+ bytes"):
                    build(psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert not psi._cache

    def test_sampled_metrics_need_only_the_cached_tables(self, rng, monkeypatch):
        # physical memory of the build's request and half a table: the build
        # fits, and sampled mode draws both averages from the cached table,
        # with no third table and no per-shot array
        n = 6
        psi = random_state(n, rng)
        phys = {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": (table_build_bytes(n) + 4 * 4**n) // 8}
        monkeypatch.setattr(statevec.os, "sysconf", phys.__getitem__)
        exact = gowers3_metrics(psi)
        ledger = CostLedger()
        tracemalloc.start()
        try:
            m = sampled_gowers3_metrics(psi, 0.01, rng, ledger)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (m.mode, m.shots) == ("sampled", 152019)
        assert abs(m.proxy - exact.proxy) <= 0.01 and abs(m.u3pow8 - exact.u3pow8) <= 0.01
        assert ledger.totals["copies_consumed"] == 10 * m.shots
        assert peak < 8 * 4**n
        assert table_build_bytes(n) < 8 * phys["SC_PHYS_PAGES"] < table_build_bytes(n) + 8 * 4**n

    @pytest.mark.parametrize(
        "command, params",
        [
            # ceil(2 ln(2000) / 1e-12), about 1.5e13 shots
            ("analyze", {"mode": "sampled", "delta": 1e-6}),
            # a margin of about 1.1e-4, so about 9.2e8 shots
            ("test", {"mode": "sampled", "t": 4, "eps2": 0.001}),
        ],
    )
    def test_huge_shot_counts_finish(self, command, params, monkeypatch):
        # 8 GiB of physical memory, whatever the machine has: per-shot arrays
        # of these counts would not fit in it, and no label is drawn
        phys = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}
        monkeypatch.setattr(statevec.os, "sysconf", phys.__getitem__)

        def refuse(*args):
            raise AssertionError("labels drawn")

        monkeypatch.setattr(statevec, "_differences", refuse)
        config = ExperimentConfig.from_json(
            {"command": command, "state": {"kind": "haar", "n": 3}, "params": params}
        )
        tracemalloc.start()
        try:
            rec = run(config)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        rows = rec.ledger["breakdown"]
        shots = rows["bell_difference"]["copies_consumed"] // 4
        assert shots > 9 * 10**8
        # 4 labelling and 2 measured copies per q-average shot, and analyze's
        # p-average 4 more per shot
        per_shot = {"analyze": 10, "test": 6}[command]
        assert rec.ledger["totals"]["copies_consumed"] == per_shot * shots
        assert set(rows) == {"bell_difference", "gowers_sampled"}

    def test_sampled_tolerant_test_needs_only_the_cached_tables(self, rng, monkeypatch):
        # physical memory of the build's request and half a table: the
        # sampled test reads only the q-average, the cached proxy, and a
        # third table would not fit
        n = 7
        psi = random_state(n, rng)
        phys = {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": (table_build_bytes(n) + 4 * 4**n) // 8}
        monkeypatch.setattr(statevec.os, "sysconf", phys.__getitem__)
        ledger = CostLedger()
        assert sampled_tolerant_test(psi, 0.9, 0.1, 0, 0.01, rng, ledger, 1.0) in ("yes", "no")
        rows = ledger.breakdown
        assert set(rows) == {"bell_difference", "gowers_sampled"}
        shots = rows["gowers_sampled"]["copies_consumed"] // 2
        assert rows["gowers_sampled"]["copies_consumed"] == 2 * shots > 0
        assert rows["bell_difference"]["copies_consumed"] == 4 * shots
        assert table_build_bytes(n) < 8 * phys["SC_PHYS_PAGES"] < table_build_bytes(n) + 8 * 4**n


class TestSampling:
    def test_zero_state_always_z_type(self, rng):
        idx = sample_weyl_indices(basis_state(3), 500, rng, CostLedger())
        assert np.all(idx & 0b111 == 0)  # a-part zero

    def test_stabilizer_uniform_on_group(self, rng):
        st = StabilizerState(2, (pp("+XX"), pp("+ZZ")))
        psi = StateVector(2, statevector_of(st))
        ledger = CostLedger()
        draws = 100_000
        idx = sample_weyl_indices(psi, draws, rng, ledger)
        counts = np.bincount(idx, minlength=16)
        group = [i for i in range(16) if counts[i] > 0]
        assert len(group) == 4
        expected = draws / 4
        assert np.all(np.abs(counts[group] - expected) < 3 * np.sqrt(expected))
        assert ledger.totals["copies_consumed"] == 4 * draws

    def test_t_state_frequencies(self, rng):
        draws = 100_000
        idx = sample_weyl_indices(t_state(), draws, rng, CostLedger())
        freq = np.bincount(idx, minlength=4) / draws
        want = np.array([0.375, 0.25, 0.125, 0.25])
        sig = np.sqrt(want * (1 - want) / draws)
        assert np.all(np.abs(freq - want) < 4 * sig)

    def test_draw_order_pinned(self):
        # one rng.random((2, size)) call, y from the first row and z from the
        # second, looked up as the unsorted reference does and returned as
        # y ^ z in draw order: every later draw is unchanged
        psi = random_state(6, np.random.default_rng(3))
        size = 5000
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        ledger = CostLedger()
        got = sample_weyl_indices(psi, size, a, ledger)
        cum = np.cumsum(expectation_squares(psi))
        y, z = inverse_cdf_reference(cum, b.random((2, size)) * cum[-1])
        assert np.array_equal(got, y ^ z)
        assert ledger.breakdown["bell_difference"]["copies_consumed"] == 4 * size
        assert ledger.totals["copies_consumed"] == 4 * size
        assert a.bit_generator.state == b.bit_generator.state

    def test_retained_count_zero_draws_and_charges_nothing(self):
        psi = random_state(3, np.random.default_rng(0))
        rng, before = np.random.default_rng(5), np.random.default_rng(5)
        ledger = CostLedger()
        idx = sample_retained(psi, 0, rng, ledger)
        assert idx.shape == (0,) and idx.dtype == np.intp
        assert rng.bit_generator.state == before.bit_generator.state
        assert ledger.breakdown == {}
        assert not any(ledger.totals.values())

    def test_retained_negative_count_refused(self, rng):
        with pytest.raises(ValueError, match="count must be >= 0, got -1"):
            sample_retained(random_state(2, rng), -1, rng, CostLedger())

    def test_retention_extremes(self, rng):
        # on |0> every retained label is Z-type: its a-part is zero
        idx = sample_retained(basis_state(3), 500, rng, CostLedger())
        assert idx.shape == (500,)
        assert np.all(idx & 0b111 == 0)

    def test_retention_rate(self, rng):
        # retained labels follow q(x) <W_x>^2 / E_q[<W_x>^2]
        psi = t_state()
        _, q = distribution_tables(psi)
        want = q * expectation_table(psi) ** 2 / exact_proxy(psi)
        draws = 20_000
        freq = np.bincount(sample_retained(psi, draws, rng, CostLedger()), minlength=4) / draws
        sig = np.sqrt(want * (1 - want) / draws)
        assert np.all(np.abs(freq - want) <= 4 * sig)
        assert want == pytest.approx([0.6, 0.2, 0.0, 0.2])

    @pytest.mark.parametrize("kind", ["haar", "t2"])
    def test_laws_on_three_qubits(self, kind, rng):
        # difference samples follow q and retained labels q <W_x>^2 / proxy,
        # each label's frequency within 4 sigma of the law reference's
        psi = {
            "haar": random_state(3, rng),
            "t2": tensor(tensor(t_state(), t_state()), basis_state(1)),
        }[kind]
        _, q = distribution_tables(psi)
        retained = q * expectation_squares(psi) / exact_proxy(psi)
        draws = 200_000
        for sample, want in ((sample_weyl_indices, q), (sample_retained, retained)):
            freq = np.bincount(sample(psi, draws, rng, CostLedger()), minlength=64) / draws
            sig = np.sqrt(want * (1 - want) / draws)
            assert np.all(np.abs(freq - want) <= 4 * sig)

    def test_retained_matches_rejection_reference(self, rng):
        # the kept labels, and the mean and variance of the charged trials,
        # agree with the rejection protocol within 4 sigma
        psi = tensor(t_state(), t_state())  # proxy 25/64
        count, runs = 5, 3000
        ref = [retained_reference(psi, count, rng) for _ in range(runs)]
        ours = []
        for _ in range(runs):
            ledger = CostLedger()
            labels = sample_retained(psi, count, rng, ledger)
            trials = ledger.breakdown["retention"]["copies_consumed"] // 2
            assert ledger.breakdown["bell_difference"]["copies_consumed"] == 4 * trials
            ours.append((labels, trials))
        draws = runs * count
        freqs = [np.bincount(np.concatenate([lb for lb, _ in out]), minlength=16) / draws
                 for out in (ref, ours)]
        pooled = (freqs[0] + freqs[1]) / 2
        assert np.all(np.abs(freqs[0] - freqs[1]) <= 4 * np.sqrt(2 * pooled * (1 - pooled) / draws))
        ta, tb = (np.array([t for _, t in out], dtype=float) for out in (ref, ours))

        def var_of_var(t):
            c = t - t.mean()
            return (np.mean(c**4) - np.mean(c**2) ** 2) / t.shape[0]

        assert abs(ta.mean() - tb.mean()) <= 4 * np.sqrt((ta.var() + tb.var()) / runs)
        assert abs(ta.var() - tb.var()) <= 4 * np.sqrt(var_of_var(ta) + var_of_var(tb))
        assert ta.mean() == pytest.approx(count * 64 / 25, rel=0.05)

    def test_retained_draw_stream_pinned(self):
        # batches of rng.random((3, size)) calls, the first sized from the
        # proxy, replayed one proposal at a time: the kept labels in draw
        # order, and every proposal up to the last kept one charged
        psi = random_state(5, np.random.default_rng(3))
        count = 700
        a = RecordingGenerator(np.random.default_rng(13))
        b = np.random.default_rng(13)
        ledger = CostLedger()
        got = sample_retained(psi, count, a, ledger)
        proxy = exact_proxy(psi)
        assert a.shapes[0] == (3, math.ceil((count + 3 * math.sqrt(count)) / proxy))
        want, proposals = retained_replay(psi, a.shapes, b, count)
        assert np.array_equal(got, want)
        assert ledger.breakdown["bell_difference"]["copies_consumed"] == 4 * proposals
        assert ledger.breakdown["retention"]["copies_consumed"] == 2 * proposals
        assert a.gen.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("kind", ["t2", "haar", "stabilizer"])
    def test_retained_charge_replays_the_proposals(self, kind):
        # whatever the batches, the ledger holds 6 copies per proposal made
        # on the stream up to the count-th kept label, and nothing else
        n = 4
        amps = {
            "t2": tensor(tensor(t_state(), t_state()), basis_state(2)).amps,
            "haar": random_state(n, np.random.default_rng(1)).amps,
            "stabilizer": table_states(n, np.random.default_rng(2))[2],
        }[kind]
        psi = StateVector(n, amps)
        for seed, count in enumerate((1, 7, 64, 300)):
            a = RecordingGenerator(np.random.default_rng(seed))
            ledger = CostLedger()
            got = sample_retained(psi, count, a, ledger)
            want, proposals = retained_replay(psi, a.shapes, np.random.default_rng(seed), count)
            assert np.array_equal(got, want) and got.shape == (count,)
            assert ledger.totals["copies_consumed"] == 6 * proposals
            assert set(ledger.breakdown) == {"bell_difference", "retention"}

    def test_retained_batches_are_capped(self):
        # a Haar state at n = 8 keeps about one proposal in 2^8: every call
        # asks for at most 3 * RETAINED_BATCH uniforms, and the draw loops
        psi = random_state(8, np.random.default_rng(4))
        assert exact_proxy(psi) < 0.005
        a = RecordingGenerator(np.random.default_rng(5))
        ledger = CostLedger()
        got = sample_retained(psi, 4096, a, ledger)
        assert got.shape == (4096,)
        assert len(a.shapes) > 1
        assert all(s[0] == 3 and 0 < math.prod(s) <= 3 * statevec.RETAINED_BATCH for s in a.shapes)
        proposals = ledger.breakdown["retention"]["copies_consumed"] // 2
        assert proposals <= sum(s[1] for s in a.shapes)


class TestGowersMetrics:
    def test_t_state_exact(self):
        m = gowers3_metrics(t_state())
        assert m.proxy == pytest.approx(5 / 8, abs=1e-12)
        assert m.u3pow8 == pytest.approx(3 / 4, abs=1e-12)

    def test_stabilizer_is_one(self, rng):
        st = enumerate_stabilizer_states(2)[11]
        m = gowers3_metrics(StateVector(2, statevector_of(st)))
        assert m.proxy == pytest.approx(1.0, abs=1e-10)
        assert m.u3pow8 == pytest.approx(1.0, abs=1e-10)

    def test_tensorization(self, rng):
        for _ in range(30):
            a = random_state(int(rng.integers(1, 4)), rng)
            b = random_state(int(rng.integers(1, 3)), rng)
            mab = gowers3_metrics(tensor(a, b))
            assert mab.proxy == pytest.approx(
                gowers3_metrics(a).proxy * gowers3_metrics(b).proxy, abs=1e-10
            )

    def test_double_t(self):
        m = gowers3_metrics(tensor(t_state(), t_state()))
        assert m.proxy == pytest.approx(25 / 64, abs=1e-12)

    def test_sandwich_random(self, rng):
        for _ in range(200):
            m = gowers3_metrics(random_state(int(rng.integers(1, 5)), rng))
            assert m.u3pow8 >= m.proxy >= m.u3pow8**2 - 1e-12

    def test_completeness_n4(self, rng):
        # proxy dominates the sixth power of the stabilizer fidelity
        for _ in range(40):
            psi = random_state(4, rng)
            fid, _ = bruteforce_stab_fidelity(psi)
            assert gowers3_metrics(psi).proxy >= fid**6 - 1e-12

    def test_sampled_within_band(self, rng):
        ledger = CostLedger()
        hits = 0
        runs = 60
        for _ in range(runs):
            m = sampled_gowers3_metrics(t_state(), 0.05, rng, ledger)
            hits += abs(m.proxy - 5 / 8) <= 0.05
        assert hits >= runs - 2
        assert ledger.totals["copies_consumed"] > 0

    def test_sampled_draws_pinned(self):
        # each average is one binomial draw of its exact value: replaying
        # them through binomial_estimate on a twin generator gives the same
        # estimates and leaves the generators in the same state
        psi = random_state(4, np.random.default_rng(5))
        a, b = np.random.default_rng(12), np.random.default_rng(12)
        m = sampled_gowers3_metrics(psi, 0.2, a, CostLedger())
        exact = gowers3_metrics(psi)
        replay = [float(binomial_estimate(w, m.shots, b)) for w in (exact.proxy, exact.u3pow8)]
        assert [m.proxy, m.u3pow8] == replay
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("state", ["t", "haar3"])
    def test_sampled_law_matches_the_shot_by_shot_reference(self, state):
        # 2,000 seeded runs at delta = 0.2 (381 shots): the mean and the
        # variance of each average agree within 4 sigma with the shot-by-shot
        # simulation and with the binomial law, mean w and variance
        # 4 p (1 - p) / shots = (1 - w^2) / shots
        psi = t_state() if state == "t" else random_state(3, np.random.default_rng(9))
        runs = 2000
        exact = gowers3_metrics(psi)
        ms = [sampled_gowers3_metrics(psi, 0.2, np.random.default_rng(s), CostLedger())
              for s in range(runs)]
        shots = ms[0].shots
        assert shots == 381
        ours = (np.array([m.proxy for m in ms]), np.array([m.u3pow8 for m in ms]))
        reference = per_shot_averages(psi, shots, runs, np.random.default_rng(runs))
        for got, ref, w in zip(ours, reference, (exact.proxy, exact.u3pow8)):
            var = (1.0 - w * w) / shots
            assert abs(got.mean() - w) <= 4 * np.sqrt(var / runs)
            assert abs(ref.mean() - w) <= 4 * np.sqrt(var / runs)
            assert abs(got.mean() - ref.mean()) <= 4 * np.sqrt(2 * var / runs)
            # a sample variance of near-normal draws has standard error var sqrt(2 / runs)
            assert abs(got.var() - var) <= 4 * var * np.sqrt(2 / runs)
            assert abs(ref.var() - var) <= 4 * var * np.sqrt(2 / runs)
            assert abs(got.var() - ref.var()) <= 4 * var * np.sqrt(4 / runs)

    def test_one_squares_table(self, rng):
        # the cached <W_x>^2 table is computed once and shared by the metrics
        psi = random_state(3, rng)
        w2 = expectation_squares(psi)
        assert expectation_squares(psi) is w2
        assert np.array_equal(w2, expectation_table(psi) ** 2)
        p, q = distribution_tables(psi)
        # the triple-correlation sum against the reference's convolution
        assert abs(exact_proxy(psi) - float(np.dot(q, w2))) <= 1e-15
        assert gowers3_metrics(psi).u3pow8 == float(np.dot(p, w2))
        assert expectation_squares(psi) is w2


class TestBinomialEstimate:
    def test_same_draws_as_formula(self):
        w = np.array([-1.5, -0.3, 0.0, 0.7, 1.0, 1.2])
        ours = binomial_estimate(w, 50, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        want = 2.0 * rng.binomial(50, np.clip(0.5 * (1.0 + w), 0.0, 1.0)) / 50 - 1.0
        assert np.array_equal(ours, want)
        assert ours[0] == -1.0 and ours[-1] == 1.0

    def test_normal_limit_beyond_int64(self):
        # numpy's binomial sampler takes at most int64 shots; past that the
        # estimate is the normal limit, clipped to [-1, 1]
        shots = SAMPLER_MAX_SHOTS + 1
        w = np.array([-1.5, -0.3, 0.0, 0.7, 1.0, 1.2])
        ours = binomial_estimate(w, shots, np.random.default_rng(5))
        noise = np.random.default_rng(5).standard_normal(w.shape)
        p = np.clip(0.5 * (1.0 + w), 0.0, 1.0)
        assert np.array_equal(ours, np.clip(w + 2.0 * np.sqrt(p * (1 - p) / shots) * noise, -1, 1))
        assert ours[0] == -1.0 and ours[-1] == 1.0
        assert np.max(np.abs(ours[1:-1] - w[1:-1])) <= 1e-8


class TestHadamardTest:
    def test_exact(self):
        plus = StateVector(1, np.array([SQ2, SQ2]))
        val = overlap(basis_state(1), plus)
        assert val == pytest.approx(SQ2)

    def test_self_overlap(self, rng):
        psi = random_state(2, rng)
        est = hadamard_test_estimate(psi, psi, 0.05, 1e-3, rng, CostLedger())
        assert abs(est - 1.0) < 0.1

    def test_coverage(self, rng):
        # statistical band holds over repetitions
        plus = StateVector(1, np.array([SQ2, SQ2]))
        true = overlap(basis_state(1), plus)
        misses = 0
        for _ in range(200):
            est = hadamard_test_estimate(basis_state(1), plus, 0.08, 0.01, rng, CostLedger())
            if abs(est.real - true.real) > 0.08 or abs(est.imag - true.imag) > 0.08:
                misses += 1
        assert misses <= 6

    def test_ledger_charges(self, rng):
        ledger = CostLedger()
        hadamard_test_estimate(basis_state(1), basis_state(1), 0.1, 0.1, rng, ledger)
        assert ledger.totals["queries_conU"] > 0

    def test_shot_count_beyond_int64(self, rng):
        # 2 ln(4/delta)/eps^2 = 3.04e21 shots at eps = 1e-10, delta = 1e-6:
        # beyond int64, still within eps, and charged exactly
        plus = StateVector(1, np.array([SQ2, SQ2]))
        true = overlap(basis_state(1), plus)
        ledger = CostLedger()
        est = hadamard_test_estimate(basis_state(1), plus, 1e-10, 1e-6, rng, ledger)
        assert abs(est.real - true.real) <= 1e-10 and abs(est.imag - true.imag) <= 1e-10
        shots = 3_040_360_983_816_832_548_864
        assert shots == int(np.ceil(2.0 * np.log(4.0 / 1e-6) / 1e-10**2)) > SAMPLER_MAX_SHOTS
        assert ledger.totals["queries_conU"] == 2 * shots

    def test_shot_count_is_the_proxy_count_at_half_delta(self, rng):
        # ceil(2 ln(4/delta) / eps^2) per part: the Hoeffding count of
        # _proxy_shots at failure probability delta/2
        for eps in (0.3, 0.08, 1e-3, 1e-10, 1e-150):
            for delta in (0.5, 0.01, 1e-6, 1e-300):
                ledger = CostLedger()
                hadamard_test_estimate(basis_state(1), basis_state(1), eps, delta, rng, ledger)
                shots = _proxy_shots(eps, delta / 2)
                assert shots == int(np.ceil(2.0 * np.log(4.0 / delta) / eps**2))
                assert ledger.totals["queries_conU"] == 2 * shots

    def test_refuses_an_accuracy_with_no_finite_shot_count(self, rng):
        # eps^2 underflows to 0: refused before any draw or charge
        ledger = CostLedger()
        with pytest.raises(ValueError, match="no finite shot count"):
            hadamard_test_estimate(basis_state(1), basis_state(1), 1e-200, 0.01, rng, ledger)
        assert ledger.breakdown == {}


    @pytest.mark.parametrize("delta", [0.0, 5e-324, 1e-320, 4.0, 10.0, float("nan")])
    def test_refuses_a_failure_probability_outside_the_unit_interval(self, delta):
        # delta / 2 is 0, has no finite log of 2/(delta / 2), or is not below
        # 1: refused by name before any draw or charge
        rng = np.random.default_rng(0)
        ledger = CostLedger()
        with pytest.raises(ValueError, match="failure probability"):
            hadamard_test_estimate(basis_state(1), basis_state(1), 0.1, delta, rng, ledger)
        assert ledger.breakdown == {}
        assert rng.random() == np.random.default_rng(0).random()


class TestMeasureBlock:
    def test_bell_halves(self, rng):
        bell = StateVector(2, np.array([SQ2, 0, 0, SQ2]))
        seen = set()
        for _ in range(40):
            out, prob, post = measure_block(bell, (0,), "computational", rng)
            assert prob == pytest.approx(0.5)
            seen.add(out)
            want = np.zeros(4, dtype=complex)
            want[3 if out else 0] = 1.0
            assert np.allclose(post.amps, want)
        assert seen == {0, 1}

    def test_project_prob_one(self, rng):
        zp = tensor(basis_state(1), StateVector(1, np.array([SQ2, SQ2])))
        out, prob, post = measure_block(zp, (0,), ("project", np.array([1.0, 0])), rng)
        assert out == 0 and prob == pytest.approx(1.0)

    def test_project_cos2(self, rng):
        th = np.pi / 6
        cs = StateVector(2, np.array([np.cos(th), 0, 0, np.sin(th)]))
        _, prob, _ = measure_block(
            cs, (0, 1), ("project", np.array([1.0, 0, 0, 0])), rng, force_outcome=0
        )
        assert prob == pytest.approx(np.cos(th) ** 2)

    def test_zero_probability_branch(self, rng):
        with pytest.raises(ValueError):
            measure_block(basis_state(2), (0,), "computational", rng, force_outcome=1)

    def test_projector_post_states(self, rng):
        psi = random_state(3, rng)
        vec = random_state(2, rng).amps
        out, prob, post = measure_block(psi, (0, 1), ("project", vec), rng, force_outcome=0)
        assert np.linalg.norm(post.amps) == pytest.approx(1.0)
        out1, prob1, post1 = measure_block(psi, (0, 1), ("project", vec), rng, force_outcome=1)
        assert prob1 == pytest.approx(prob)
        recon = np.sqrt(prob) * post.amps + np.sqrt(1 - prob) * post1.amps
        assert np.allclose(recon, psi.amps)


class TestLcuResidual:
    def test_gram_schmidt_step(self, rng):
        T = t_state()
        plus = StabilizerState(1, (pp("+X"),))
        c1 = overlap(StateVector(1, statevector_of(plus)), T)
        resid = T.amps - stab_combination(1, [(c1, plus)])
        assert abs(np.vdot(statevector_of(plus), resid)) < 1e-12
        ledger = CostLedger()
        success = lcu_residual(float(np.linalg.norm(resid)), [plus], [c1], ledger)
        r1 = np.sqrt(1 - abs(c1) ** 2)
        assert success == pytest.approx((r1 / (1 + abs(c1))) ** 2, abs=1e-12)
        assert ledger.totals["queries_conU"] > 0

    @staticmethod
    def _random_terms(n, rng, k):
        sts = enumerate_stabilizer_states(n)
        picks = [sts[int(rng.integers(len(sts)))] for _ in range(k)]
        betas = [0.3 * complex(rng.normal(), rng.normal()) for _ in picks]
        return picks, betas

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 3), (3, 4)])
    def test_matches_circuit_preparation(self, n, k, rng):
        # the cached vectors give the residual that re-preparing every term
        # from |0...0> with its circuit gives, once each coefficient absorbs
        # the 8th root of unity its term's circuit prepares it up to
        for _ in range(5):
            psi = random_state(n, rng)
            picks, betas = self._random_terms(n, rng, k)
            prepared = psi.amps.copy()
            for beta, st in zip(betas, picks):
                out = kernels.apply_gates(kernels.zero_state(n), stab_state_prep(st).gates)
                prepared -= beta * np.conj(nearest_eighth_root(out, statevector_of(st))) * out
            resid = psi.amps - stab_combination(n, zip(betas, picks))
            assert np.abs(resid - prepared).max() <= 1e-12
            norm = np.linalg.norm(prepared)
            success = lcu_residual(float(np.linalg.norm(resid)), picks, betas, CostLedger())
            assert abs(success - (norm / (1 + sum(abs(b) for b in betas))) ** 2) <= 1e-12

    def test_ledger_charges_the_preparation_circuits(self, rng):
        for k in (1, 2, 4):
            picks, betas = self._random_terms(3, rng, k)
            ledger = CostLedger()
            success = lcu_residual(float(rng.uniform(0.2, 1.0)), picks, betas, ledger)
            attempts = int(np.ceil(1.0 / success))
            row = ledger.breakdown["lcu"]
            assert row["gate_count"] == attempts * sum(len(stab_state_prep(st)) for st in picks)
            assert row["queries_conU"] == attempts * (1 + k)
            assert row["copies_consumed"] == 0

    def test_prepared_terms_apply_no_gate(self, rng, monkeypatch):
        # the charge reads the prepared terms' circuit lengths and runs none
        picks, betas = self._random_terms(3, rng, 3)
        for st in picks:
            statevector_of(st)
        applied = []
        monkeypatch.setattr(kernels, "apply_gates", lambda amps, gates: applied.append(gates))
        lcu_residual(0.5, picks, betas, CostLedger())
        assert applied == []


class TestBruteForce:
    def test_basis_state(self):
        val, arg = bruteforce_stab_fidelity(basis_state(3))
        assert val == pytest.approx(1.0)

    def test_t_state(self):
        val, _ = bruteforce_stab_fidelity(t_state())
        assert val == pytest.approx((2 + np.sqrt(2)) / 4, abs=1e-12)

    def test_bell(self):
        bell = StateVector(2, np.array([SQ2, 0, 0, SQ2]))
        assert bruteforce_stab_fidelity(bell)[0] == pytest.approx(1.0)

    def test_lagrangian_lower_bound(self, rng):
        # fidelity dominates the mean expectation over every Lagrangian
        for _ in range(30):
            n = int(rng.integers(1, 4))
            psi = random_state(n, rng)
            fid, _ = bruteforce_stab_fidelity(psi)
            w2 = expectation_table(psi) ** 2
            for rows in isotropic_subspaces(n, n):
                span = np.array(enumerate_span(rref_basis(rows.tolist(), 2 * n)))
                assert fid >= w2[span].mean() - 1e-10

    def test_stab_dim_fidelity_t0_matches(self, rng):
        for _ in range(10):
            psi = random_state(2, rng)
            assert bruteforce_stab_dim_fidelity(psi, 0) == pytest.approx(
                bruteforce_stab_fidelity(psi)[0], abs=1e-9
            )

    def test_stab_dim_fidelity_monotone(self, rng):
        psi = random_state(3, rng)
        vals = [bruteforce_stab_dim_fidelity(psi, t) for t in range(3)]
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12

    def test_stab_dim_product_state(self, rng):
        sigma = random_state(1, rng)
        psi = tensor(sigma, basis_state(2))
        assert bruteforce_stab_dim_fidelity(psi, 1) == pytest.approx(1.0, abs=1e-9)


def _oracle_states(n, rng):
    """Random states plus the basis, T, Bell and W families on n qubits."""
    states = [random_state(n, rng) for _ in range(3)] + [basis_state(n)]
    tn = t_state()
    for _ in range(n - 1):
        tn = tensor(tn, t_state())
    states.append(tn)
    if n >= 2:
        bell = StateVector(2, np.array([SQ2, 0, 0, SQ2]))
        states.append(tensor(bell, basis_state(n - 2)) if n > 2 else bell)
        w = np.zeros(1 << n, dtype=complex)
        w[[1 << q for q in range(n)]] = 1 / np.sqrt(n)
        states.append(StateVector(n, w))
    return states


class TestExactOracle:
    """The character-sum oracles against the dense catalog and rotation
    references they replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_catalog(self, n, rng):
        for psi in _oracle_states(n, rng):
            want, want_arg = catalog_stab_fidelity(psi)
            got, arg = bruteforce_stab_fidelity(psi)
            assert abs(got - want) <= 1e-12
            assert arg == want_arg

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_rotation_every_t(self, n, rng):
        states = _oracle_states(n, rng)
        for t in range(n + 1):
            got = np.array([bruteforce_stab_dim_fidelity(psi, t) for psi in states])
            assert np.max(np.abs(got - rotation_stab_dim_fidelity(states, t))) <= 1e-12

    def test_ties_break_by_sort_key(self):
        # optima shared by several stabilizer states: the catalog's first wins
        t2 = tensor(t_state(), t_state())
        w3 = StateVector(3, np.array([0, 1, 1, 0, 1, 0, 0, 0]) / np.sqrt(3))
        for psi in (t_state(), t2, w3, _oracle_states(4, np.random.default_rng(0))[-1]):
            states, matrix = stabilizer_state_matrix(psi.n)
            vals = np.abs(matrix.conj() @ psi.amps) ** 2
            tied = [s for s, v in zip(states, vals) if v >= vals.max() - 1e-12]
            assert len(tied) > 1
            assert bruteforce_stab_fidelity(psi)[1] == tied[0]

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 4**n - 1), max_size=5))
        )
    )
    def test_span_phases_match_pauli_product(self, case):
        n, rows = case
        g, e = _span_phases(np.array([rows], dtype=np.int64).reshape(1, -1), n)
        for c in range(1 << len(rows)):
            prod = PhasedPauli(PauliLabel(n, 0, 0), 0)
            for i, v in enumerate(rows):
                if (c >> i) & 1:
                    prod = pauli_product(prod, PhasedPauli(PauliLabel.from_vector(n, v), 0))
            # plus the sign the unsigned table leaves off
            flip = 2 * ((prod.label.x & prod.label.z).bit_count() % 4 in (1, 2))
            assert (g[0, c], e[0, c]) == (prod.label.to_vector(), prod.phase ^ flip)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_projection_weights_match_the_butterflies(self, d):
        # bit for bit on an integer-valued table, whose sums are exact in any
        # order; within the transform's rounding bound on a state's table
        n = 4
        rows = isotropic_subspaces(n, d)[:300]
        g, e = _span_phases(rows, n)
        rng = np.random.default_rng(7)
        ints = rng.integers(-(1 << 30), 1 << 30, size=4**n, endpoint=True).astype(np.float64)
        for table in (ints, kernels.unsigned_expectations(random_state(n, rng).amps, n)):
            vals = np.ascontiguousarray((table[g] * (1 - e)).T)  # (2^d, M)
            want = wht_butterfly_reference(vals.copy()).T / vals.shape[0]
            diff = np.abs(_projection_weights(table, rows, n) - want)
            if table is ints:
                assert not diff.any()
            else:
                assert np.all(diff <= wht_rounding_bound(vals)[:, None] / vals.shape[0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_same_optimum_as_the_butterflies(self, n, rng, monkeypatch):
        # the same F and argmax as with butterfly transforms, on states with
        # tied optima too
        ties = {1: [t_state()], 2: [tensor(t_state(), t_state())],
                3: [StateVector(3, np.array([0, 1, 1, 0, 1, 0, 0, 0]) / np.sqrt(3))]}
        states = _oracle_states(n, rng) + ties.get(n, [])
        got = [bruteforce_stab_fidelity(psi) for psi in states]
        monkeypatch.setattr(kernels, "wht_inplace", wht_butterfly_reference)
        for psi, (f, arg) in zip(states, got):
            want, want_arg = bruteforce_stab_fidelity(psi)
            assert abs(f - want) <= 1e-14
            assert arg == want_arg

    def test_refuses_above_cap_fast_without_allocating(self):
        psi = random_state(6, np.random.default_rng(0))
        calls = [lambda: bruteforce_stab_fidelity(psi)]
        calls += [lambda t=t: bruteforce_stab_dim_fidelity(psi, t) for t in range(6)]
        tracemalloc.start()
        t0 = time.perf_counter()
        for call in calls:
            with pytest.raises(ValueError, match=r"capped at n <= 5: n = 6 has \d+ isotropic"):
                call()
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1 << 20

    def test_full_dimension_needs_no_enumeration(self):
        # t = n allows every state, so the cap does not apply
        assert bruteforce_stab_dim_fidelity(random_state(6, np.random.default_rng(0)), 6) == 1.0

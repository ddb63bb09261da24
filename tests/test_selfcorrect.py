import math

import numpy as np
import pytest

from stabcorrect import selfcorrect
from stabcorrect.errors import (
    PfrSubgroupNotFound,
    SelfCorrectionFailed,
)
from stabcorrect.gf2 import PauliLabel, rref_basis, symplectic_gram_schmidt
from stabcorrect.harness import StateSpec, gen_state
from stabcorrect.ledger import CostLedger
from stabcorrect.pauli import (
    PhasedPauli,
    StabilizerState,
    canonicalize_subgroup,
    conjugate,
    statevector_of,
)
from stabcorrect.rng import RngStream
from stabcorrect.selfcorrect import (
    BsgParams,
    SubgroupV,
    collect_small_doubling,
    find_high_stab_dim,
    find_stabilizer,
    pfr_subgroup,
    self_correct,
    sampled_tolerant_test,
    tolerant_test,
)
from stabcorrect.selfcorrect import (
    TIE_TOL, _edge_batch, _edge_shots, _membership_rows, _neighbor_bad, _rounds,
    _shot_test,
)
from stabcorrect.statevec import (
    SAMPLER_MAX_SHOTS,
    StateVector,
    apply_circuit,
    binomial_estimate,
    bruteforce_stab_fidelity,
    expectation_squares,
    gowers3_metrics,
    overlap,
    random_state,
    sample_retained,
)

from conftest import (
    basis_state,
    bsg_test,
    distribution_tables,
    edge_shots,
    enumerate_span,
    exact_edges,
    expectation_table,
    label_sum,
    lazy_membership_rows_reference,
    membership_rows_reference,
    neighbor_bad_reference,
    pfr_subgroup_reference,
    planted_state,
    random_circuit,
    rref_basis_from_labels,
    span_reduce,
    t_state,
    tensor,
)

lab = PauliLabel.from_string
def stab_vec(strings):
    st = StabilizerState.from_json(strings)
    return st, StateVector(st.n, statevector_of(st))


def retained_mass(psi, basis):
    """E_{x in span(basis)}[<W_x>^2]: 1 exactly on a stabilizer group of psi."""
    return float(expectation_squares(psi)[np.array(enumerate_span(basis))].mean())


class TestSamplePaulis:
    def test_stabilizer_support(self, rng):
        st, psi = stab_vec(["+XX", "+ZZ"])
        basis = rref_basis_from_labels([g.label for g in st.generators])
        idx = sample_retained(psi, 64, rng, CostLedger())
        labs = [PauliLabel.from_vector(2, int(i)) for i in idx]
        assert len(labs) == 64 and all(span_reduce(basis, l.to_vector()) == 0 for l in labs)

    def test_ledger_accounting(self, rng):
        # every draw charges 4 difference-sampling and 2 retention copies
        ledger = CostLedger()
        sample_retained(tensor(t_state(), t_state()), 50, rng, ledger)
        draws = ledger.breakdown["retention"]["copies_consumed"] // 2
        assert draws >= 50
        assert ledger.breakdown["retention"]["copies_consumed"] == 2 * draws
        assert ledger.breakdown["bell_difference"]["copies_consumed"] == 4 * draws
        assert ledger.totals["copies_consumed"] == 6 * draws


def vecs(*strings):
    return np.array([lab(x).to_vector() for x in strings])


PRACTICAL = BsgParams.practical(0.5)


def practical_shots():
    """Shots per edge test at the practical preset."""
    return edge_shots(PRACTICAL)


class TestEdgeTest:
    # in the first three tests every <W>^2 is 0, 1/2 or 1, outside the band
    # around zeta, and every <W_{x^y}>^2 is 0 or 1: each flag is decided
    def test_zero_state_z_pair(self, rng):
        psi = basis_state(3)
        assert _edge_batch(
            psi, vecs("ZII"), vecs("IZI"), 0.5, practical_shots(), rng, CostLedger()
        ).all()

    def test_zero_state_x_fails(self, rng):
        psi = basis_state(3)
        assert not _edge_batch(
            psi, vecs("ZII"), vecs("XII"), 0.5, practical_shots(), rng, CostLedger()
        ).any()

    def test_t_state_self_pair(self, rng):
        # x = y = X: the sum is the identity label, in the set by convention
        psi = t_state()
        assert _edge_batch(
            psi, vecs("X"), vecs("X"), 0.4, practical_shots(), rng, CostLedger()
        ).all()

    def test_exact_monotone_in_zeta(self, rng):
        # the exact reference the membership tests are checked against
        psi = random_state(2, rng)
        xs, ys = rng.integers(16, size=50), rng.integers(16, size=50)
        flags = [exact_edges(psi, xs, ys, z) for z in (0.05, 0.2, 0.5, 0.9)]
        # raising the threshold never adds edges
        assert all((a >= b).all() for a, b in zip(flags, flags[1:]))

    def test_shot_count_at_the_practical_preset(self):
        # the collection's shot count is the reference formula's, and each
        # sampled pair is charged 6 shots + 2 copies
        assert _edge_shots(PRACTICAL) == practical_shots()
        ledger = CostLedger()
        _edge_batch(
            basis_state(1), vecs("Z"), vecs("Z"), PRACTICAL.zeta1, practical_shots(),
            np.random.default_rng(0), ledger,
        )
        assert ledger.totals["copies_consumed"] == 6 * practical_shots() + 2

    @pytest.mark.parametrize("gamma, delta", [(1e-300, 0.05), (0.5, 5e-324)])
    def test_shot_count_without_a_finite_value_is_refused(self, gamma, delta):
        with pytest.raises(ValueError, match="is not finite"):
            _edge_shots(BsgParams.practical(gamma, delta))


def band_half_width(shots):
    # Hoeffding: P[estimate - w >= h] <= exp(-shots h^2 / 2) = 2^-64
    return math.sqrt(2.0 * math.log(2.0**64) / shots)


def log_binomial_mass(shots, p, ks):
    """log P[Bin(shots, p) in ks], as a log-sum of lgamma terms."""
    logs = [
        math.lgamma(shots + 1) - math.lgamma(k + 1) - math.lgamma(shots - k + 1)
        + k * math.log(p) + (shots - k) * math.log1p(-p)
        for k in ks
    ]
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


class TestDecidedBand:
    @pytest.mark.parametrize("name", ["zeta1", "zeta2", "zeta3"])
    def test_decided_outcomes_err_below_2_to_minus_64(self, name):
        # the exact binomial tail on the wrong side of zeta, at the band's edges
        zeta, shots = getattr(PRACTICAL, name), practical_shots()
        h = band_half_width(shots)
        assert 40_000 < shots < 60_000 and 0.04 < h < 0.045
        # the fewest +1 outcomes whose estimate 2k/shots - 1 reaches zeta
        k_pass = next(
            k for k in range(math.floor(shots * (1 + zeta) / 2) - 1, shots + 1)
            if 2.0 * k / shots - 1.0 >= zeta
        )
        bound = -64 * math.log(2.0)
        fail_side = (1.0 + zeta - h) / 2.0
        assert log_binomial_mass(shots, fail_side, range(k_pass, shots + 1)) <= bound
        pass_side = (1.0 + zeta + h) / 2.0
        assert log_binomial_mass(shots, pass_side, range(k_pass)) <= bound

    def test_decided_batch_draws_only_the_last_uniforms(self):
        # every <W>^2 of |000> is 0 or 1, far outside the band: the batch
        # advances the generator exactly as rng.random(m) alone does
        psi = basis_state(3)
        gen = np.random.default_rng(11)
        xs, ys = gen.integers(64, size=200), gen.integers(64, size=200)
        ours, ref, ledger = np.random.default_rng(3), np.random.default_rng(3), CostLedger()
        flags = _edge_batch(psi, xs, ys, PRACTICAL.zeta3, practical_shots(), ours, ledger)
        w2 = expectation_squares(psi)
        exact = exact_edges(psi, xs, ys, PRACTICAL.zeta3)
        assert (flags == exact & (ref.random(200) < w2[xs ^ ys])).all()
        assert ours.bit_generator.state == ref.bit_generator.state
        # the skipped simulation is still charged in full
        assert ledger.totals["copies_consumed"] == (6 * practical_shots() + 2) * 200

    @pytest.mark.parametrize("shots", [None, SAMPLER_MAX_SHOTS + 1], ids=["binomial", "normal-limit"])
    def test_in_band_labels_draw_as_binomial_estimate(self, shots):
        shots = shots or practical_shots()
        zeta, h = PRACTICAL.zeta2, band_half_width(shots)
        w = zeta + h * np.array([-3.0, -1.0, -0.5, 0.0, 0.2, 0.9, 1.0, 1.5, 4.0, -0.1])
        band = np.abs(w - zeta) <= h
        assert 0 < band.sum() < w.shape[0]
        ours, ref = np.random.default_rng(9), np.random.default_rng(9)
        got = _shot_test(w, zeta, shots, ours)
        assert (got[band] == (binomial_estimate(w[band], shots, ref) >= zeta)).all()
        assert (got[~band] == (w[~band] > zeta)).all()
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_pass_frequencies_match_all_binomial_reference(self):
        # a real product state whose <W>^2 table puts ZI, IZ, ZX and XZ inside
        # the band around zeta3, and ZZ, XX and the rest outside it
        zeta = PRACTICAL.zeta3
        shots = practical_shots()
        za, zb = np.sqrt(zeta + 0.001), np.sqrt(zeta - 0.003)

        def qubit(z):
            theta = np.arccos(z) / 2.0
            return StateVector(1, np.array([np.cos(theta), np.sin(theta)]))

        psi = tensor(qubit(za), qubit(zb))
        w2 = expectation_squares(psi)
        in_band = np.abs(w2 - zeta) <= band_half_width(shots)
        assert 4 <= in_band.sum() < 16
        m, seeds = 50_000, range(4)
        ours = ref = 0
        for seed in seeds:
            gen = np.random.default_rng(100 + seed)
            xs, ys = gen.integers(16, size=m), gen.integers(16, size=m)
            ours += _edge_batch(psi, xs, ys, zeta, shots, gen, CostLedger()).sum()
            gen = np.random.default_rng(200 + seed)
            wx, wy, wxy = w2[xs], w2[ys], w2[xs ^ ys]
            ref += (
                (binomial_estimate(wx, shots, gen) >= zeta)
                & (binomial_estimate(wy, shots, gen) >= zeta)
                & (binomial_estimate(wxy, shots, gen) >= zeta)
                & (gen.random(m) < wxy)
            ).sum()
        total = m * len(seeds)
        freq = ref / total
        # two independent counts with the same law: their difference has
        # standard deviation sqrt(2 total f (1 - f)); allow five of them
        assert abs(ours - ref) <= 5.0 * math.sqrt(2.0 * total * freq * (1.0 - freq))


def exhaustive_t_set(psi, u, zetas, rho1, rho2):
    """Oracle for the accepted set: exhaustive evaluation of the neighborhood
    definitions under the retained-sampling distribution."""
    n = psi.n
    w2 = expectation_table(psi) ** 2
    _, q = distribution_tables(psi)
    weights = q * w2  # retained-draw law, unnormalized
    total = weights.sum()
    d = weights / total
    z1, z2, z3 = zetas

    def edge(a, b, zeta):
        return w2[a] >= zeta and w2[b] >= zeta and w2[a ^ b] >= zeta

    out = []
    labels = range(1 << (2 * n))
    for v in labels:
        if not edge(u, v, z1):
            continue
        bad_mass = 0.0
        for v1 in labels:
            if d[v1] == 0 or not edge(u, v1, z2):
                continue
            joint = sum(
                d[v2] for v2 in labels if edge(v, v2, z3) and edge(v1, v2, z3)
            )
            if joint <= rho1:
                bad_mass += d[v1]
        if bad_mass <= rho2:
            out.append(v)
    return set(out)


class TestBsgTest:
    def test_planted_group_accepted(self, rng):
        st, psi = stab_vec(["+XX", "+ZZ"])
        params = BsgParams.practical(0.5)
        group = [lab("XX"), lab("ZZ"), lab("YY")]
        for u in group:
            for v in group:
                if u != v:
                    assert bsg_test(psi, u, v, params, rng, CostLedger())

    def test_zero_expectation_rejected(self, rng):
        st, psi = stab_vec(["+ZI", "+IZ"])
        params = BsgParams.practical(0.5)
        assert not bsg_test(psi, lab("ZI"), lab("XI"), params, rng, CostLedger())

    def test_deterministic_under_seed(self):
        st, psi = stab_vec(["+XZ", "+ZX"])
        params = BsgParams.practical(0.4)
        flags = []
        for _ in range(2):
            rng = RngStream(77).child("bsg").generator()
            flags.append(bsg_test(psi, lab("XZ"), lab("ZX"), params, rng, CostLedger()))
        assert flags[0] == flags[1]

    def test_sandwich_on_planted_exact(self, rng):
        # exact-mode flags sit between the two exhaustively computed sets
        _, psi = planted_state(2, rng, weight=0.92)
        params = BsgParams.practical(0.5)
        zc = (params.zeta1 + params.zeta2) / 2.0
        mu = (params.zeta1 - params.zeta2) / 2.0
        a1 = exhaustive_t_set(
            psi, lab("II").to_vector(), (zc + mu, zc - mu, zc + mu), params.rho1, params.rho2
        )
        a2 = exhaustive_t_set(
            psi, lab("II").to_vector(), (zc, zc, zc), 10 * params.rho1 / 11, 10 * params.rho2 / 9
        )
        assert a1 <= a2
        for v in range(16):
            vl = PauliLabel.from_vector(2, v)
            flag = bsg_test(psi, lab("II"), vl, params, rng, CostLedger(), exact=True)
            if flag:
                assert v in a2
            else:
                assert v not in a1

    def test_pooled_rates_match_per_pair_reference(self):
        # one pool serves every pair of a collection, and each pair's test
        # must keep the law of a test with its own samples.  Small r and s
        # and a planted state put every rate that is not 0 near 1/3, with
        # in-band edge estimates; vertex 15 has no zeta1-edge and is skipped.
        _, psi = planted_state(2, np.random.default_rng(3), weight=0.8)
        verts = np.array([1, 10, 11, 15])
        params = BsgParams(0.3, 0.2, 0.25, 0.3, 0.3, 4, 4, 0.05)
        runs, k = 2000, verts.shape[0]
        pooled, ref = np.zeros((k, k)), np.zeros((k, k))
        for seed in range(runs):
            rows = _membership_rows(psi, verts, 1, params, np.random.default_rng(seed), CostLedger())
            for i, accepted in rows:
                pooled[i, accepted] += 1
            gen = np.random.default_rng(10_000 + seed)
            for i in range(k):
                for j in range(k):
                    if i != j:
                        u, v = (PauliLabel.from_vector(2, int(x)) for x in verts[[i, j]])
                        ref[i, j] += bsg_test(psi, u, v, params, gen, CostLedger())
        assert (pooled > 0).sum() == 6 and (ref > 0).sum() == 6
        freq = (pooled + ref) / (2 * runs)
        # two independent counts with the same law: their difference has
        # standard deviation sqrt(2 runs f (1 - f)); allow four of them
        assert (np.abs(pooled - ref) <= 4.0 * np.sqrt(2.0 * runs * freq * (1.0 - freq))).all()


def mixed_state(kind, n, seed):
    """A planted state (sqrt(0.6) random stabilizer + sqrt(0.4) Haar) or a
    T-doped one with two T gates, and a vertex set drawn as the collection
    draws it."""
    gen = np.random.default_rng(seed)
    if kind == "planted":
        plant, _ = gen_state(StateSpec("random_stabilizer", n), gen)
        amps = np.sqrt(0.6) * plant.amps + np.sqrt(0.4) * random_state(n, gen).amps
        psi = StateVector(n, amps / np.linalg.norm(amps))
    else:
        psi, _ = gen_state(StateSpec("tdoped", n, t=2), gen)
    return psi, np.unique(sample_retained(psi, 40, gen, CostLedger()))


def membership_run(rows_fn, psi, verts, params, seed):
    """Every row of a membership walk, the generator state after it and the
    ledger."""
    gen, ledger = np.random.default_rng(seed), CostLedger()
    rows = [(int(i), acc.tolist()) for i, acc in rows_fn(psi, verts, 1, params, gen, ledger)]
    # charges stay Python ints, which neither wrap nor fail to serialize
    assert all(type(v) is int for row in ledger.breakdown.values() for v in row.values())
    return rows, gen.bit_generator.state, ledger.to_json()


def value_keyed_estimates(monkeypatch):
    """Replace the shot-test draws with a fixed function of each value: w
    plus or minus 0.9 h by the parity of floor(1e6 w), so in-band values
    fall on either side of zeta and nothing is drawn.  Returns the list of
    the sizes of the estimated arrays."""
    sizes = []

    def estimate(w, shots, rng):
        sizes.append(np.size(w))
        h = selfcorrect._band_half_width(shots)
        return w + np.where(np.floor(w * 1e6) % 2 == 0, 0.9, -0.9) * h

    monkeypatch.setattr(selfcorrect, "binomial_estimate", estimate)
    return sizes


class TestNeighborStage:
    """The lazy membership walk against plain loops.  With the shot tests
    replaced by a fixed function of each value (``value_keyed_estimates``),
    the walk and ``lazy_membership_rows_reference`` take the same uniforms
    and must give the same rows and charges; the law tests compare the walk
    with ``membership_rows_reference``, which runs every test, with real
    draws."""

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("planted", PRACTICAL),
            ("tdoped", PRACTICAL),
            # about 110 shots: every <W>^2 is within the band
            ("tdoped", BsgParams(0.9, 0.9, 0.5, 0.1, 0.1, 8, 8, 0.05)),
            # r = s = 1: a pool with one label
            ("planted", BsgParams(0.1, 0.1, 0.1, 0.5, 0.5, 1, 1, 0.05)),
        ],
        ids=["planted", "tdoped", "all-in-band", "one-label-pool"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_neighbor_reference(self, kind, params, seed, monkeypatch):
        sizes = value_keyed_estimates(monkeypatch)
        psi, verts = mixed_state(kind, 4, seed)
        ours = membership_run(_membership_rows, psi, verts, params, 50 + seed)
        estimated = sum(sizes)
        ref = membership_run(lazy_membership_rows_reference, psi, verts, params, 50 + seed)
        assert ours == ref
        assert sum(len(acc) for _, acc in ours[0]) > 0
        # both estimate the same in-band values; only the split differs
        assert sum(sizes) == 2 * estimated
        assert estimated > 0 or kind == "tdoped" and params is PRACTICAL

    def test_forced_band_pairs_take_one_shot_test_per_chunk(self, monkeypatch):
        # zeta3 at a pooled label's <W>^2 and 400 shots (h about 0.47): every
        # neighbor has in-band pairs, which each chunk of a round's open
        # (v, i) estimates in one _shot_test call of its one edge batch
        psi, verts = mixed_state("planted", 3, 1)
        gen = np.random.default_rng(7)
        r = s = 64
        shots = 400
        w = sample_retained(psi, r * s, gen, CostLedger()).reshape(r, s)
        w2 = expectation_squares(psi)
        params = BsgParams(0.05, 0.05, float(np.median(w2[np.unique(w)])), 0.1, 0.1, r, s, 0.05)
        zk = gen.random((r, s)) < 0.8
        need = gen.random((verts.shape[0], r)) < 0.7

        sizes = value_keyed_estimates(monkeypatch)
        ref, ref_ledger = np.random.default_rng(8), CostLedger()
        want = neighbor_bad_reference(psi, verts, need, w, zk, params, shots, ref, ref_ledger)
        before = len(sizes)
        calls = []
        batch = selfcorrect._edge_batch

        def count_calls(*a):
            calls.append(a[1].shape[0])
            return batch(*a)

        monkeypatch.setattr(selfcorrect, "_edge_batch", count_calls)
        ours, ours_ledger = np.random.default_rng(8), CostLedger()
        got = _neighbor_bad(psi, verts, need, w, zk, params, shots, ours, ours_ledger)
        assert np.array_equal(got, want)
        assert ours.bit_generator.state == ref.bit_generator.state
        assert ours_ledger.to_json() == ref_ledger.to_json()
        # one estimate per edge batch, each of at most NEIGHBOR_CHUNK_ENTRIES
        # tests; the first is a full chunk of kmax + 1 tests per (v, i)
        assert len(sizes) - before == len(calls)
        assert calls[0] == selfcorrect.NEIGHBOR_CHUNK_ENTRIES // 7 * 7  # kmax = 6
        assert max(calls) <= selfcorrect.NEIGHBOR_CHUNK_ENTRIES
        assert 0 < got.sum() < need.sum()
        assert not got[~need].any()

    @pytest.mark.parametrize("case", ["forced-band", "mix-y-band"])
    def test_acceptance_frequencies_match_reference(self, case):
        # the batched stage and the per-neighbor reference, each with real
        # draws from its own seeds, accept each (u, v) equally often within
        # 4 sigma over 2,000 runs.  forced-band: zeta3 = 0.5, the <W>^2 of 8
        # of a T-doped state's labels; mix-y-band: the 0.6-mix at n = 4 with
        # the practical thresholds, where 99 labels lie within h of zeta3
        if case == "forced-band":
            psi, verts = mixed_state("tdoped", 3, 0)
            params = BsgParams(0.05, 0.05, 0.5, 0.3, 0.3, 8, 8, 0.05)
        else:
            gen = np.random.default_rng(4)
            plant, _ = gen_state(StateSpec("random_stabilizer", 4), gen)
            amps = np.sqrt(0.6) * plant.amps + np.sqrt(0.4) * random_state(4, gen).amps
            psi = StateVector(4, amps / np.linalg.norm(amps))
            verts = np.unique(sample_retained(psi, 12, gen, CostLedger()))
            params = BsgParams(0.075, 0.05, 0.0625, 0.1, 0.1, 8, 8, 0.05)
        runs, k = 2000, verts.shape[0]
        freq = []
        for rows_fn, offset in ((_membership_rows, 0), (membership_rows_reference, 10**6)):
            hits = np.zeros((k, k))
            for seed in range(runs):
                gen = np.random.default_rng(seed + offset)
                for i, acc in rows_fn(psi, verts, 1, params, gen, CostLedger()):
                    hits[i, acc] += 1
            freq.append(hits / runs)
        p = (freq[0] + freq[1]) / 2
        sigma = np.sqrt(p * (1 - p) * 2 / runs)
        assert np.all(np.abs(freq[0] - freq[1]) <= 4 * sigma)
        assert np.sum((p > 0.05) & (p < 0.95)) >= 10

    @pytest.mark.parametrize("one_label", [True, False], ids=["one-label", "all-labels"])
    def test_all_false_zk_and_one_label(self, one_label):
        # the stage alone, against the plain loops with real draws: an
        # all-False zk runs no test, draws nothing and leaves every outer
        # sample counting against every neighbor
        psi, verts = mixed_state("tdoped", 4, 2)
        gen = np.random.default_rng(5)
        r, s, shots = PRACTICAL.r, PRACTICAL.s, practical_shots()
        w = sample_retained(psi, r * s, gen, CostLedger()).reshape(r, s)
        if one_label:
            w[:] = w[0, 0]
        need = np.ones((verts.shape[0], r), dtype=bool)
        for zk in (np.zeros((r, s), dtype=bool), gen.random((r, s)) < 0.7):
            ours, ref = np.random.default_rng(8), np.random.default_rng(8)
            ours_ledger, ref_ledger = CostLedger(), CostLedger()
            got = _neighbor_bad(psi, verts, need, w, zk, PRACTICAL, shots, ours, ours_ledger)
            want = neighbor_bad_reference(psi, verts, need, w, zk, PRACTICAL, shots, ref, ref_ledger)
            assert np.array_equal(got, want)
            assert ours.bit_generator.state == ref.bit_generator.state
            assert ours_ledger.to_json() == ref_ledger.to_json()
            assert got.all() or zk.any()
            if not zk.any():
                assert ours_ledger.to_json() == CostLedger().to_json()
                assert ours.bit_generator.state == np.random.default_rng(8).bit_generator.state

    @pytest.mark.parametrize("kind", ["planted", "tdoped"])
    @pytest.mark.parametrize("seed", range(3))
    def test_lazy_walk_accepts_what_the_full_walk_accepts(self, kind, seed, monkeypatch):
        # the edge tests read a 0/1 table, (<W>^2 >= zeta3): no value lies in
        # the band and every last draw passes with probability 0 or 1, so
        # each edge is decided as exact_edges decides it on that table.
        # Nothing the walks draw after the pool changes an outcome, so the
        # lazy walk and the full walk read the same pool and must accept the
        # same (u, v), row for row, while the lazy walk runs fewer tests
        psi, verts = mixed_state(kind, 4, seed)
        table = (expectation_squares(psi) >= PRACTICAL.zeta3).astype(float)
        monkeypatch.setattr(selfcorrect, "expectation_squares", lambda _: table)
        lazy = membership_run(_membership_rows, psi, verts, PRACTICAL, 60 + seed)
        full = membership_run(membership_rows_reference, psi, verts, PRACTICAL, 60 + seed)
        assert lazy[0] == full[0]
        accepted = sum(len(acc) for _, acc in lazy[0])
        assert 0 < accepted < sum(len(verts) - 1 for _ in lazy[0])
        copies = [run[2]["breakdown"]["edge_test"]["copies_consumed"] for run in (lazy, full)]
        assert copies[0] < copies[1]
        # and up to the first row, as a collection reads it
        first = [
            next(rows_fn(psi, verts, 1, PRACTICAL, np.random.default_rng(60 + seed), CostLedger()))
            for rows_fn in (_membership_rows, membership_rows_reference)
        ]
        assert first[0][0] == first[1][0] and first[0][1].tolist() == first[1][1].tolist()


class TestCollect:
    def test_planted_collects_group(self, rng):
        st, psi = stab_vec(["+XZY", "+IXZ", "+ZIZ"])
        basis = rref_basis_from_labels([g.label for g in st.generators])
        ledger = CostLedger()
        accepted = collect_small_doubling(psi, 6, 0.5, 0.05, rng, ledger)
        assert len(accepted) >= 6
        assert all(span_reduce(basis, l.to_vector()) == 0 for l in accepted)

    def test_ledger_grows_with_t(self, rng):
        _, psi = stab_vec(["+XZY", "+IXZ", "+ZIZ"])
        costs = []
        for t in (3, 6):
            ledger = CostLedger()
            collect_small_doubling(psi, t, 0.5, 0.05, rng, ledger)
            costs.append(ledger.totals["copies_consumed"])
        assert costs[1] > costs[0]

    def test_haar_empty(self, rng):
        from stabcorrect.errors import CollectionEmpty

        psi = random_state(6, rng)
        with pytest.raises(CollectionEmpty):
            collect_small_doubling(psi, 10, 0.8, 0.05, rng, CostLedger())

    def test_mix_reaches_plant_overlap_in_few_edge_batches(self, monkeypatch):
        # sqrt(0.6) plant + sqrt(0.4) Haar at n = 8: with a membership test
        # per vertex pair, each with its own pool, seeds 4 and 7 took about
        # 47,000 and 51,000 edge batches (98,448 in all, 6 s each).  With one
        # pool per collection these eight calls run 330 edge batches, the
        # neighbor stage's among them.  The walk that tested every pair up
        # front ran 151 edge batches and stage draw arrays here, and read 425
        # on the count this test kept then (edge batches plus neighbors
        # passed to the stage, bound 1,000); the bound is 151 with that
        # headroom.  The lazy walk passes a neighbor to the stage again when
        # a later u reads new outer samples, so it draws more, smaller
        # batches.
        calls = []
        batch = selfcorrect._edge_batch

        def count_batch(*a):
            calls.append(1)
            return batch(*a)

        monkeypatch.setattr(selfcorrect, "_edge_batch", count_batch)
        for seed in range(8):
            gen = np.random.default_rng(seed)
            plant, _ = gen_state(StateSpec("random_stabilizer", 8), gen)
            amps = np.sqrt(0.6) * plant.amps + np.sqrt(0.4) * random_state(8, gen).amps
            psi = StateVector(8, amps / np.linalg.norm(amps))
            cand = self_correct(psi, 0.5, 0.05, np.random.default_rng(100 + seed), CostLedger())
            assert abs(cand.fidelity - abs(overlap(plant, psi)) ** 2) <= 0.05
        assert len(calls) <= 355


class TestPfrOracle:
    """The cover that stands in for the APFR step, ``pfr_subgroup`` of a
    collected set, which sees the collected labels and nothing else."""

    def test_planted_membership(self, rng):
        # on |000> the collected labels are Z-type, and their cover is the
        # planted group
        basis = rref_basis_from_labels([lab("ZII"), lab("IZI"), lab("IIZ")])
        accepted = collect_small_doubling(basis_state(3), 6, 0.5, 0.05, rng, CostLedger())
        got = pfr_subgroup(accepted).basis
        assert span_reduce(got, lab("ZZI").to_vector()) == 0 and span_reduce(got, lab("XII").to_vector())
        assert got == basis

    def test_consistency(self, rng):
        # the cover is a function of the collected set: neither the order
        # nor repeats of its labels change it
        st, psi = stab_vec(["+XZY", "+IXZ", "+ZIZ"])
        accepted = collect_small_doubling(psi, 6, 0.5, 0.05, rng, CostLedger())
        want = pfr_subgroup(accepted).basis
        for _ in range(5):
            shuffled = [accepted[int(i)] for i in rng.permutation(len(accepted))]
            assert pfr_subgroup(shuffled + shuffled[:2]).basis == want
        basis = rref_basis_from_labels([g.label for g in st.generators])
        assert all(span_reduce(basis, v) == 0 for v in want.rows)

    def test_planted_picks_group_retaining_most_mass(self, rng):
        # of two plants, the collected set and so its cover come from the
        # one whose group retains the most of the state's mass
        zs, zvec = stab_vec(["+ZII", "+IZI", "+IIZ"])
        xs, xvec = stab_vec(["+XII", "+IXI", "+IIX"])
        bases = [rref_basis_from_labels([g.label for g in s.generators]) for s in (zs, xs)]
        for cz, cx, want in ((0.95, 0.3, 0), (0.3, 0.95, 1)):
            amps = cz * zvec.amps + cx * xvec.amps
            psi = StateVector(3, amps / np.linalg.norm(amps))
            masses = [retained_mass(psi, b) for b in bases]
            assert masses[want] == max(masses) and masses[1 - want] < max(masses)
            accepted = collect_small_doubling(psi, 6, 0.5, 0.05, rng, CostLedger())
            assert pfr_subgroup(accepted).basis == bases[want]


class TestPfrSubgroup:
    def test_planted_subgroup(self, rng):
        # samples from a stabilizer state's group are covered by a subgroup
        # of it, which retains all of the state's mass
        st, psi = stab_vec(["+XZY", "+IXZ", "+ZIZ"])
        basis = rref_basis_from_labels([g.label for g in st.generators])
        samples = basis.labels(3) + [label_sum(*basis.labels(3)[:2])]
        sub = pfr_subgroup(samples)
        assert len(sub.basis.rows) <= 3
        assert all(span_reduce(basis, v) == 0 for v in sub.basis.rows)
        assert retained_mass(psi, sub.basis) == pytest.approx(1.0, abs=1e-9)

    def test_span_saturation(self, rng):
        st, psi = stab_vec(["+ZII", "+IZI", "+IIZ"])
        basis = rref_basis_from_labels([g.label for g in st.generators])
        span = [PauliLabel.from_vector(3, v) for v in enumerate_span(basis)]
        sub = pfr_subgroup(span)
        assert sub.basis == basis and retained_mass(psi, sub.basis) == pytest.approx(1.0, abs=1e-9)

    def test_a_coset_is_covered_by_its_differences(self):
        # A + A of a coset a + V is V, whichever member comes first
        basis = rref_basis_from_labels([lab("ZI"), lab("IZ")])
        coset = [label_sum(lab("XX"), PauliLabel.from_vector(2, v)) for v in enumerate_span(basis)]
        for first in range(4):
            assert pfr_subgroup(coset[first:] + coset[:first]).basis == basis

    def test_single_sample_is_the_failure_sentinel(self):
        # its only pairwise sum is 0, below the floor of n + 1 sums
        with pytest.raises(PfrSubgroupNotFound, match="1 accepted sums < floor 2"):
            pfr_subgroup([lab("Z")])
        with pytest.raises(ValueError, match="at least one sample"):
            pfr_subgroup([])

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_set_reference(self, seed):
        # samples drawn mostly from the span of random bases of every rank,
        # with some outside it: the same accepted count and the same
        # canonical basis as the per-sum reference
        gen = np.random.default_rng(seed)
        n = int(gen.integers(1, 7))
        basis = rref_basis(gen.integers(1 << (2 * n), size=int(gen.integers(0, 2 * n + 1))).tolist(), 2 * n)
        span = np.array(enumerate_span(basis))
        m = int(gen.integers(1, 3 * n + 4))
        vecs = np.where(
            gen.random(m) < 0.8, gen.choice(span, size=m), gen.integers(1 << (2 * n), size=m)
        )
        samples = [PauliLabel.from_vector(n, int(v)) for v in vecs]
        want = pfr_subgroup_reference(samples)
        if want is None:
            with pytest.raises(PfrSubgroupNotFound):
                pfr_subgroup(samples)
            return
        assert pfr_subgroup(samples).basis == want

    def test_output_is_subgroup(self, rng):
        st, psi = stab_vec(["+XZY", "+IXZ", "+ZIZ"])
        basis = rref_basis_from_labels([g.label for g in st.generators])
        sub = pfr_subgroup(basis.labels(3))
        span = set(enumerate_span(sub.basis))
        assert 0 in span
        for a in span:
            for b in span:
                assert (a ^ b) in span

    def test_floor_is_n_plus_one(self):
        # ZI, IZ give the sums {II, ZZ}: two accepted, below the floor n + 1 = 3
        basis = rref_basis_from_labels([lab("ZI"), lab("IZ")])
        with pytest.raises(PfrSubgroupNotFound, match="2 accepted sums < floor 3"):
            pfr_subgroup(basis.labels(2))
        assert len(pfr_subgroup(basis.labels(2) + [lab("ZZ")]).basis.rows) == 2


class TestFindStabilizer:
    def test_exact_recovery(self, rng):
        st, psi = stab_vec(["+XZY", "+IXZ", "+ZIZ"])
        basis = rref_basis_from_labels([g.label for g in st.generators])
        sub = pfr_subgroup([PauliLabel.from_vector(3, v) for v in enumerate_span(basis)])
        cand = find_stabilizer(psi, sub, 0.5, 0.05, rng, CostLedger())
        assert cand.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_two_qubit_planted(self, rng):
        amps = np.array([np.sqrt(0.9), 0, 0, np.sqrt(0.1)])
        psi = StateVector(2, amps)
        basis = rref_basis_from_labels([lab("ZI"), lab("IZ")])
        sub = pfr_subgroup([PauliLabel.from_vector(2, v) for v in enumerate_span(basis)])
        cand = find_stabilizer(psi, sub, 0.5, 0.05, rng, CostLedger())
        assert cand.fidelity == pytest.approx(0.9, abs=1e-9)
        opt, arg = bruteforce_stab_fidelity(psi)
        assert cand.fidelity >= opt - 1e-9

    def test_fidelity_is_exact_overlap(self, rng):
        _, psi = planted_state(2, rng)
        st, _ = stab_vec(["+ZI", "+IZ"])
        basis = rref_basis_from_labels([lab("ZI"), lab("IZ")])
        sub = pfr_subgroup([PauliLabel.from_vector(2, v) for v in enumerate_span(basis)])
        cand = find_stabilizer(psi, sub, 0.5, 0.05, rng, CostLedger())
        recomputed = abs(overlap(StateVector(2, statevector_of(cand.state)), psi)) ** 2
        assert cand.fidelity == pytest.approx(recomputed, abs=1e-12)
        # commuting generators by construction
        assert cand.state.n == 2

    def test_k_zero_branch(self, rng):
        # isotropic subgroup: candidates are frame basis states
        psi = basis_state(3)
        basis = rref_basis_from_labels([lab("ZII"), lab("IZI"), lab("IIZ")])
        sub = pfr_subgroup([PauliLabel.from_vector(3, v) for v in enumerate_span(basis)])
        cand = find_stabilizer(psi, sub, 0.5, 0.05, rng, CostLedger())
        assert cand.fidelity == pytest.approx(1.0, abs=1e-12)
        assert cand.provenance["k"] == 0


class TestFindHighStabDim:
    def test_product_recovery(self, rng):
        sigma = random_state(1, rng)
        psi = tensor(sigma, basis_state(2))  # qubits 1,2 pinned to |0>
        basis = rref_basis_from_labels([lab("IZI"), lab("IIZ")])
        sub = pfr_subgroup([PauliLabel.from_vector(3, v) for v in enumerate_span(basis)])
        res = find_high_stab_dim(psi, sub, 0.5, 0.05, rng, CostLedger())
        assert res.block_weight == pytest.approx(1.0, abs=1e-9)
        recon = res.reconstruct()
        assert abs(overlap(recon, psi)) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_branch_selection(self, rng):
        th = np.pi / 6
        s0 = random_state(1, rng)
        s1 = random_state(1, rng)
        amps = np.zeros(4, dtype=complex)
        amps[:2] = np.cos(th) * s0.amps
        amps[2:] = np.sin(th) * s1.amps
        psi = StateVector(2, amps)
        basis = rref_basis_from_labels([lab("IZ")])
        sub = SubgroupV(2, basis, None)
        res = find_high_stab_dim(psi, sub, 0.5, 0.05, rng, CostLedger())
        assert res.block_weight == pytest.approx(np.cos(th) ** 2, abs=1e-9)
        assert abs(overlap(res.reconstruct(), psi)) ** 2 == pytest.approx(
            np.cos(th) ** 2, abs=1e-9
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruct_has_no_stray_phase(self, seed):
        # reconstruct() undoes the rotation U exactly, so
        # <reconstruct|psi> = <sigma, z| U psi> = sqrt(block_weight), phase included
        rng = np.random.default_rng(seed)
        n = 3
        psi = random_state(n, rng)
        circ = random_circuit(n, rng)
        center = [conjugate(circ, PhasedPauli(PauliLabel(n, 0, 1 << q), 0)) for q in (1, 2)]
        sub = SubgroupV(n, rref_basis([g.label.to_vector() for g in center], 2 * n), None)
        res = find_high_stab_dim(psi, sub, 0.5, 0.05, rng, CostLedger())
        assert abs(overlap(res.reconstruct(), psi) - np.sqrt(res.block_weight)) <= 1e-9


class TestBasisDraws:
    """Both extractors draw their computational-basis rounds as one batched
    ``rng.choice`` would, one uniform per round through the normalized cdf;
    numpy draws the same uniforms in the same order as a loop of scalar
    calls, so outcomes and generator state match the loop."""

    def test_batched_choice_equals_scalar_loop(self):
        law = np.random.default_rng(0).dirichlet(np.ones(64))
        a, b = np.random.default_rng(31), np.random.default_rng(31)
        batched = a.choice(law.shape[0], size=40, p=law).tolist()
        assert batched == [int(b.choice(law.shape[0], p=law)) for _ in range(40)]
        assert a.bit_generator.state == b.bit_generator.state

    def test_choice_is_one_uniform_through_the_normalized_cdf(self):
        # the extractors' rounds resolve each outcome from a uniform they
        # drew in a batch, relying on choice(N, p=p) drawing exactly one
        # uniform u and returning searchsorted(cdf, u, "right") with
        # cdf = p.cumsum() / its last entry
        for seed in range(300):
            g = np.random.default_rng([seed, 3])
            size = int(g.integers(1, 65))
            w = g.random(size) ** 3
            w[g.random(size) < 0.3] = 0.0
            w[int(g.integers(size))] += 0.1
            p = w / w.sum()
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            z = int(a.choice(size, p=p))
            cdf = p.cumsum()
            cdf /= cdf[-1]
            assert z == int(np.searchsorted(cdf, b.random(), side="right"))
            assert p[z] > 0
            assert a.bit_generator.state == b.bit_generator.state

    @staticmethod
    def _subgroup(n, qubits, rng):
        circ = random_circuit(n, rng)
        center = [conjugate(circ, PhasedPauli(PauliLabel(n, 0, 1 << q), 0)) for q in qubits]
        return SubgroupV(n, rref_basis([g.label.to_vector() for g in center], 2 * n), None)

    @staticmethod
    def _loop_draws(weights, rounds, rng):
        """Per-round scalar draws of the block index from its Born weight."""
        law = weights / weights.sum()
        return [int(rng.choice(law.shape[0], p=law)) for _ in range(rounds)]

    @pytest.mark.parametrize("seed", range(3))
    def test_find_stabilizer_k0_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        psi, sub = random_state(n, rng), self._subgroup(n, range(n), rng)
        a, b = np.random.default_rng(40 + seed), np.random.default_rng(40 + seed)
        cand = find_stabilizer(psi, sub, 0.5, 0.05, a, CostLedger())
        circuit, k, _ = canonicalize_subgroup(sub.basis.labels(n))
        rotated = apply_circuit(psi, circuit, CostLedger())
        weights = np.abs(rotated.amps) ** 2
        draws = self._loop_draws(weights, _rounds(0.5), b)
        best = draws[0]
        for z in dict.fromkeys(draws):
            if weights[z] > weights[best] + TIE_TOL:
                best = z
        assert (k, cand.provenance["z"]) == (0, best)
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("seed", range(3))
    def test_find_high_stab_dim_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        psi, sub = random_state(n, rng), self._subgroup(n, (2, 3), rng)
        a, b = np.random.default_rng(50 + seed), np.random.default_rng(50 + seed)
        res = find_high_stab_dim(psi, sub, 0.5, 0.05, a, CostLedger())
        circuit, k, m = canonicalize_subgroup(sub.basis.labels(n))
        rotated = apply_circuit(psi, circuit, CostLedger())
        # the center block is qubits k..k+m-1 of the frame
        blocks = rotated.amps.reshape(1 << (n - k - m), 1 << m, 1 << k)
        weights = (np.abs(blocks) ** 2).sum(axis=(0, 2))
        draws = self._loop_draws(weights, _rounds(0.5), b)
        assert res.z == max(set(draws), key=lambda z: weights[z])
        assert a.bit_generator.state == b.bit_generator.state


class TestSelfCorrect:
    def test_exact_stabilizer(self, rng):
        _, psi = stab_vec(["+XZ", "+ZX"])
        cand = self_correct(psi, 0.5, 0.05, rng, CostLedger())
        assert cand.fidelity == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_planted_instances(self, n):
        wins = 0
        for trial in range(10):
            rng = RngStream(9000 + trial).child("sc", n).generator()
            _, psi = planted_state(n, rng, weight=0.9)
            opt, _ = bruteforce_stab_fidelity(psi)
            cand = self_correct(psi, 0.5, 0.05, rng, CostLedger())
            wins += cand.fidelity >= opt - 0.05
        assert wins >= 9

    @pytest.mark.parametrize("gens", [["+Z"], ["-X"], ["+Y"]])
    def test_one_qubit_refused_before_any_draw(self, gens, rng):
        # one qubit asks for a single collected label, which spans no cover
        # of a stabilizer state: refused before anything is drawn or charged
        _, psi = stab_vec(gens)
        ledger, before = CostLedger(), rng.bit_generator.state
        with pytest.raises(SelfCorrectionFailed, match="^self-correction needs n >= 2, got n = 1$"):
            self_correct(psi, 0.5, 0.05, rng, ledger, attempts=4)
        assert ledger.breakdown == {} and rng.bit_generator.state == before

    def test_haar_exhausts(self, rng):
        psi = random_state(6, rng)
        with pytest.raises(SelfCorrectionFailed, match="no candidate set reached"):
            self_correct(psi, 0.5, 0.05, rng, CostLedger(), attempts=3)

    # the identity and X_q, Z_q on qubits 0..6 of 8: A + A spans 7 pairs
    WIDE = [PauliLabel(8, 0, 0)] + [PauliLabel(8, 1 << q, 0) for q in range(7)] + [
        PauliLabel(8, 0, 1 << q) for q in range(7)
    ]

    def test_span_of_seven_pairs_fails_before_extraction(self, rng):
        # no MUB candidate family has 7 qubits: the sentinel, not mub_covering's
        # ValueError, and nothing is rotated, measured or drawn
        sub = pfr_subgroup(self.WIDE)
        center, pairs = symplectic_gram_schmidt(sub.basis.rows, 8)
        assert (len(pairs), len(center)) == (7, 0)
        ledger, before = CostLedger(), rng.bit_generator.state
        with pytest.raises(PfrSubgroupNotFound, match="7 symplectic pairs, more than the 6"):
            find_stabilizer(basis_state(8), sub, 0.5, 0.05, rng, ledger)
        assert ledger.breakdown == {} and rng.bit_generator.state == before

    def test_span_of_seven_pairs_is_retried(self, rng, monkeypatch):
        # the first attempt collects the wide set and fails; the second
        # collects Z-type labels and extracts |0...0>
        zs = [PauliLabel(8, 0, v) for v in (0, 1, 2, 4, 8, 16, 32, 64, 128, 3)]
        collected = iter([self.WIDE, zs])
        monkeypatch.setattr(selfcorrect, "collect_small_doubling", lambda *a: next(collected))
        cand = self_correct(basis_state(8), 0.5, 0.05, rng, CostLedger(), attempts=2)
        assert cand.fidelity == pytest.approx(1.0, abs=1e-12)
        monkeypatch.setattr(selfcorrect, "collect_small_doubling", lambda *a: self.WIDE)
        with pytest.raises(SelfCorrectionFailed, match="7 symplectic pairs"):
            self_correct(basis_state(8), 0.5, 0.05, rng, CostLedger(), attempts=3)


class TestTolerantTest:
    def test_accepts_stabilizer(self, rng):
        _, psi = stab_vec(["+XZ", "+ZX"])
        assert tolerant_test(psi, 0.9, 0.1, 0) == "yes"

    def test_rejects_t8(self):
        psi = t_state()
        for _ in range(3):
            psi = tensor(psi, tensor(t_state(), t_state()))  # n = 7
        psi = tensor(psi, t_state())  # n = 8
        m = gowers3_metrics(psi)
        assert m.proxy == pytest.approx((5 / 8) ** 8, abs=1e-10)
        assert tolerant_test(psi, 0.9, 0.1, 0) == "no"

    def test_high_dim_yes_instance(self, rng):
        # stabilizer dimension n-1 with unit block fidelity
        psi = tensor(t_state(), basis_state(2))
        assert tolerant_test(psi, 0.9, 0.01, 1) == "yes"

    def test_inseparable_config(self):
        with pytest.raises(ValueError):
            tolerant_test(t_state(), 0.5, 0.4, 0)

    def test_nan_separation_is_inseparable(self):
        # with C = NaN the no ceiling is NaN, which no yes floor clears
        _, psi = stab_vec(["+XZ", "+ZX"])
        with pytest.raises(ValueError, match="inseparable"):
            tolerant_test(psi, 0.9, 0.05, 0, separation_c=float("nan"))

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_nonpositive_separation_rejected(self, c):
        with pytest.raises(ValueError, match="separation_c must be > 0"):
            tolerant_test(t_state(), 0.9, 0.05, 0, separation_c=c)

    def test_sampled_agrees_with_exact(self):
        _, psi = stab_vec(["+ZI", "+IZ"])
        agree = 0
        runs = 50
        for i in range(runs):
            rng = RngStream(1234).child("tol", i).generator()
            v = sampled_tolerant_test(psi, 0.9, 0.1, 0, 1e-3, rng, CostLedger(), 1.0)
            agree += v == "yes"
        assert agree >= runs - 1


class TestPublishedParams:
    def test_practical_validation(self):
        with pytest.raises(ValueError):
            BsgParams(0.2, 0.4, 0.3, 0.1, 0.1, 8, 8, 0.05)  # zeta2 > zeta1

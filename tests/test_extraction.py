"""The extractors against the measurement loops they replaced:
find_stabilizer's one-contraction extraction against the per-candidate
loop, its array round draws against a scalar draw loop in the same order
and, in law, against the interleaved loop, and find_high_stab_dim's branch
draws against the per-round ``measure_block`` loop."""

import numpy as np
import pytest

from stabcorrect import selfcorrect
from stabcorrect.errors import NoCandidateFound
from stabcorrect.gf2 import PauliLabel, mub_covering, rref_basis
from stabcorrect.ledger import CostLedger
from stabcorrect.pauli import (
    PhasedPauli,
    StabilizerState,
    canonicalize_subgroup,
    conjugate,
    signed_generators,
    statevector_of,
)
from stabcorrect.selfcorrect import (
    TIE_TOL,
    SubgroupV,
    _candidate_weights,
    _measure_rounds,
    _mub_candidates,
    _rounds,
    _shadow_cost,
    find_high_stab_dim,
    find_stabilizer,
)
from stabcorrect.statevec import StateVector, apply_circuit, random_state

from conftest import measure_block, random_circuit


def reference_find_stabilizer(psi, sub, gamma, delta, rng, ledger):
    """The per-candidate loop: each round measures the projector onto every
    candidate with ``measure_block``; then, in visit order, each outcome 0
    has the rest measured computationally on its post-state; every
    collected entry is rotated back and scored by a dense n-qubit overlap
    with ``psi``.  Same draw order and tie rule as the fast path."""
    labels = sub.basis.labels(psi.n)
    circuit, k, m = canonicalize_subgroup(labels)
    rotated = apply_circuit(psi, circuit, ledger)
    n = psi.n
    rounds = _rounds(gamma)
    collected = {}
    if k == 0:
        for _ in range(rounds):
            z, _, _ = measure_block(rotated, tuple(range(n)), "computational", rng, ledger)
            collected[(-1, z)] = (None, z, -1, -1)
    else:
        candidates = []
        for gi, eps in _mub_candidates(k)[0]:
            cand = StabilizerState(k, signed_generators(k, mub_covering(k).groups[gi].rows, eps))
            candidates.append((cand, statevector_of(cand), gi, eps))
        successes = []
        for _ in range(rounds):
            for ci, (_, vec, _, _) in enumerate(candidates):
                out, _, post = measure_block(rotated, tuple(range(k)), ("project", vec), rng, ledger)
                if out == 0:
                    successes.append((ci, post))
        for ci, post in successes:
            cand, _, gi, eps = candidates[ci]
            z, _, _ = measure_block(post, tuple(range(k, n)), "computational", rng, ledger)
            collected[(ci, z)] = (cand, z, gi, eps)
    inverse = circuit.inverse()
    best = None
    for cand, z, gi, eps in collected.values():
        gens = []
        if cand is not None:
            gens = [PhasedPauli(PauliLabel(n, g.label.x, g.label.z), g.phase) for g in cand.generators]
        gens += [PhasedPauli(PauliLabel(n, 0, 1 << (k + j)), 2 * ((z >> j) & 1)) for j in range(n - k)]
        state = StabilizerState(n, tuple(conjugate(inverse, g) for g in gens))
        fid = abs(np.vdot(statevector_of(state), psi.amps)) ** 2
        if best is None or fid > best[1] + TIE_TOL:
            best = (state, fid, {"mub_index": gi, "sign_pattern": eps, "z": z, "k": k, "m": m})
    if ledger is not None:
        ledger.charge(
            "fidelity_shadows",
            copies=_shadow_cost(len(collected), max(gamma, 1e-3) / 8.0, delta),
        )
    return best


def reference_find_high_stab_dim(psi, sub, gamma, delta, rng, ledger):
    """The per-round loop: each round measures the rotated center block
    (qubits k..k+m-1 of the canonical frame) with ``measure_block``, one
    ``measure`` copy each; the heaviest sampled branch is kept with its
    normalized conditional block on the other n - m qubits.  Returns
    (z, block weight, sigma)."""
    labels = sub.basis.labels(psi.n)
    circuit, k, m = canonicalize_subgroup(labels)
    rotated = apply_circuit(psi, circuit, ledger)
    n = psi.n
    seen = set()
    for _ in range(_rounds(gamma)):
        z, _, _ = measure_block(rotated, tuple(range(k, k + m)), "computational", rng, ledger)
        seen.add(z)
    blocks = rotated.amps.reshape(1 << (n - k - m), 1 << m, 1 << k)
    weights = (np.abs(blocks) ** 2).sum(axis=(0, 2))
    best_z = max(seen, key=lambda z: weights[z])
    sigma = StateVector(n - m, blocks[:, best_z, :].reshape(-1) / np.sqrt(weights[best_z]))
    if ledger is not None:
        eps = max(gamma, 1e-3) / 8.0
        ledger.charge(
            "block_shadows",
            copies=int(np.ceil(4.0 ** (n - m) / eps**2 * np.log(max(len(seen), 2) / delta))),
        )
        ledger.charge(
            "block_tomography",
            copies=int(np.ceil(4.0 ** (n - m) / eps**2 * np.log(1.0 / delta))),
        )
    return best_z, float(weights[best_z]), sigma


def random_subgroup(n, k, m, rng):
    """Span of k symplectic pairs and an m-dimensional center, in a random
    Clifford frame."""
    circ = random_circuit(n, rng)
    canon = [PauliLabel(n, 1 << i, 0) for i in range(k)]
    canon += [PauliLabel(n, 0, 1 << i) for i in range(k + m)]
    vecs = [conjugate(circ, PhasedPauli(lab, 0)).label.to_vector() for lab in canon]
    return SubgroupV(n, rref_basis(vecs, 2 * n), None)


CASES = [
    (n, k, m, seed)
    for n in range(1, 7)
    for k in (0, 1, 2, 3, 4)
    for m in sorted({0, 1, n - k})
    if m >= 0 and 0 < k + m <= n and (k < 4 or n >= 5)
    for seed in (0, 1)
]


@pytest.mark.parametrize("n,k,m,seed", CASES)
def test_matches_per_candidate_loop(n, k, m, seed):
    rng = np.random.default_rng([n, k, m, seed])
    sub = random_subgroup(n, k, m, rng)
    psi = random_state(n, rng)
    ledger_fast, ledger_ref = CostLedger(), CostLedger()
    rng_fast = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    fast = find_stabilizer(psi, sub, 0.5, 0.05, rng_fast, ledger_fast)
    state, fid, prov = reference_find_stabilizer(psi, sub, 0.5, 0.05, rng_ref, ledger_ref)
    assert (fast.provenance["k"], fast.provenance["m"]) == (k, m)
    assert fast.state.to_json() == state.to_json()
    assert fast.provenance == prov
    assert abs(fast.fidelity - fid) <= 1e-12
    assert ledger_fast.to_json() == ledger_ref.to_json()
    # same draws: both generators end in the same state
    assert rng_fast.random() == rng_ref.random()
    exact = abs(np.vdot(statevector_of(fast.state), psi.amps)) ** 2
    assert abs(fast.fidelity - exact) <= 1e-12


def scalar_rounds(weights, rounds, rng):
    """``_measure_rounds``' projected draws one scalar call at a time, in its
    order: one ``rng.random()`` per candidate visit, round by round, then
    one ``rng.choice`` per success in visit order.  Returns the collected
    keys in first-collection order and the number of measurements."""
    p0 = weights.sum(axis=1)
    hits = [ci for _ in range(rounds) for ci, pc in enumerate(p0.tolist()) if rng.random() < pc]
    keys = [(ci, int(rng.choice(weights.shape[1], p=weights[ci] / p0[ci]))) for ci in hits]
    return list(dict.fromkeys(keys)), rounds * p0.shape[0] + len(hits)


def interleaved_rounds(weights, rounds, rng):
    """The loop a measuring device runs: each visit's projection and, on
    success, its z at once.  Same law as ``scalar_rounds``, other draw
    order."""
    p0 = weights.sum(axis=1)
    collected, measured = {}, 0
    for _ in range(rounds):
        for ci, pc in enumerate(p0.tolist()):
            measured += 1
            if rng.random() < pc:
                measured += 1
                collected[(ci, int(rng.choice(weights.shape[1], p=weights[ci] / pc)))] = None
    return list(collected), measured


def assert_same_draws(weights, rounds, seed):
    """The array draw against the scalar loop in its order: same keys in the
    same order, same measurement count, same generator state."""
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    collected, measured = _measure_rounds(weights, rounds, True, fast)
    keys, ref_measured = scalar_rounds(weights, rounds, ref)
    assert list(collected) == keys
    assert measured == ref_measured
    assert fast.bit_generator.state == ref.bit_generator.state
    return keys, measured


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_round_draws_match_scalar_loop(k):
    # candidate weights of random states, at several rest sizes and round counts
    rng = np.random.default_rng(900 + k)
    for rest in (0, 1, 3):
        weights = _candidate_weights(random_state(k + rest, rng), k)
        for rounds in (1, 8, 64):
            assert_same_draws(weights, rounds, int(rng.integers(2**31)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_round_draws_follow_the_interleaved_law(k):
    # the array order draws the same law as the interleaved loop: over 2,000
    # seeds each, the frequency of every key and the mean measurement count
    # agree within 4 sigma; a key is collected in a run with probability
    # 1 - (1 - w)^rounds, w its weight
    runs, rounds = 2000, 8
    weights = _candidate_weights(random_state(k + 1, np.random.default_rng(950 + k)), k)
    draws = {
        "array": lambda rng: _measure_rounds(weights, rounds, True, rng),
        "interleaved": lambda rng: interleaved_rounds(weights, rounds, rng),
    }
    freq = {name: np.zeros(weights.shape) for name in draws}
    counts = {name: [] for name in draws}
    for seed in range(runs):
        for i, (name, draw) in enumerate(draws.items()):
            keys, measured = draw(np.random.default_rng([seed, i]))
            for key in keys:
                freq[name][key] += 1
            counts[name].append(measured)
    law = 1.0 - (1.0 - weights) ** rounds
    sigma = np.sqrt(2.0 * law * (1.0 - law) / runs)
    assert np.all(np.abs(freq["array"] - freq["interleaved"]) / runs <= 4.0 * sigma)
    p0 = weights.sum(axis=1)
    sigma = np.sqrt(2.0 * rounds * np.sum(p0 * (1.0 - p0)) / runs)
    assert abs(np.mean(counts["array"]) - np.mean(counts["interleaved"])) <= 4.0 * sigma


@pytest.mark.parametrize("n", range(1, 11))
def test_unprojected_rounds_are_batched_choice(n):
    # k = 0 and find_high_stab_dim draw without projections: outcome for
    # outcome and uniform for uniform choice(N, size=rounds, p=law), also
    # with exact-zero weights
    g = np.random.default_rng([n, 960])
    for _ in range(30):
        w = np.abs(random_state(n, g).amps) ** 2
        w[g.random(w.shape[0]) < 0.2] = 0.0
        w[int(g.integers(w.shape[0]))] += 0.1
        rounds, seed = int(g.integers(1, 65)), int(g.integers(2**31))
        fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        collected, measured = _measure_rounds(w[None, :], rounds, False, fast)
        draws = ref.choice(w.shape[0], size=rounds, p=w / w.sum()).tolist()
        assert list(collected) == [(0, z) for z in dict.fromkeys(draws)]
        assert measured == rounds
        assert fast.bit_generator.state == ref.bit_generator.state


class FixedUniforms:
    """Stands in for a generator: ``random(size)`` hands out the given
    uniforms in order."""

    def __init__(self, *us):
        self.us = list(us)

    def random(self, size):
        out, self.us = self.us[:size], self.us[size:]
        assert len(out) == size
        return np.array(out)


def test_uniform_on_a_cdf_step_takes_the_next_outcome():
    # z is the first index whose cdf exceeds the uniform, as in choice, so
    # a zero-weight outcome is never drawn, even by a uniform of exactly 0
    # (row 1's cdf is 0, 0.5, 1, 1 and row 0's is 0.5, 0.75, 0.875, 1)
    weights = np.array([[0.5, 0.25, 0.125, 0.125], [0.0, 0.25, 0.25, 0.0]])
    # two rounds of projections: rows 0, 1, 0 succeed; then one z uniform each
    rng = FixedUniforms(0.0, 0.0, 0.0, 0.75, 0.5, 0.0, 0.875)
    collected, measured = _measure_rounds(weights, 2, True, rng)
    assert (list(collected), measured) == ([(0, 1), (1, 1), (0, 3)], 7)
    rng = FixedUniforms(0.0, 0.5, 0.75)
    collected, measured = _measure_rounds(weights[1:], 3, False, rng)
    assert (list(collected), measured) == ([(0, 1), (0, 2)], 3)
    assert not rng.us


DYADIC_ROW =[0.5, 0.25, 0.125, 0.125]  # sums to exactly 1


def forced_weights(k, case):
    """(2^k + 1) 2^k candidate rows over 4 rest outcomes, for 8 rounds.

    ``zero_and_one``: rows with p0 exactly 0, exactly 1, and in between.
    ``none``: every p0 is 0, so no round collects anything."""
    c = (2**k + 1) * 2**k
    weights = np.zeros((c, 4))
    if case == "zero_and_one":
        rng = np.random.default_rng(k)
        kind = rng.integers(3, size=c)
        weights[kind == 1] = DYADIC_ROW
        between = rng.random((int(np.sum(kind == 2)), 4))
        weights[kind == 2] = between / between.sum(axis=1, keepdims=True) * rng.random((len(between), 1))
    return weights


@pytest.mark.parametrize("case", ["zero_and_one", "none"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_forced_round_draws_match_scalar_loop(k, case, monkeypatch):
    weights = forced_weights(k, case)
    c = weights.shape[0]
    p0 = weights.sum(axis=1)
    keys, measured = assert_same_draws(weights, 8, 17)
    hit = {ci for ci, _ in keys}
    if case == "zero_and_one":
        # a p0 = 1 candidate succeeds at every visit, a p0 = 0 one never
        assert 0 < np.sum(p0 == 0.0) < c and 0 < np.sum(p0 == 1.0) < c
        assert hit >= set(np.flatnonzero(p0 == 1.0).tolist())
        assert not hit & set(np.flatnonzero(p0 == 0.0).tolist())
    else:
        assert (keys, measured) == ([], 8 * c)

    # the same draws through find_stabilizer: its measure copies, generator
    # state and winner, and NoCandidateFound when nothing is collected
    n = k + 2
    sub = random_subgroup(n, k, 0, np.random.default_rng([n, k]))
    psi = random_state(n, np.random.default_rng([n, k, 1]))
    monkeypatch.setattr(selfcorrect, "_candidate_weights", lambda rotated, kk: weights)
    rng, ledger = np.random.default_rng(17), CostLedger()
    if keys:
        cand = find_stabilizer(psi, sub, 0.5, 0.05, rng, ledger)
        best = keys[0]
        for key in keys:
            if weights[key] > weights[best] + TIE_TOL:
                best = key
        gi, eps = _mub_candidates(k)[0][best[0]]
        assert cand.provenance == {"mub_index": gi, "sign_pattern": eps, "z": best[1], "k": k, "m": 0}
        assert cand.fidelity == weights[best]
    else:
        with pytest.raises(NoCandidateFound):
            find_stabilizer(psi, sub, 0.5, 0.05, rng, ledger)
    assert ledger.breakdown["measure"]["copies_consumed"] == measured
    ref = np.random.default_rng(17)
    scalar_rounds(weights, _rounds(0.5), ref)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n,k,m,seed", CASES)
def test_high_stab_dim_matches_per_round_loop(n, k, m, seed):
    rng = np.random.default_rng([n, k, m, seed, 2])
    sub = random_subgroup(n, k, m, rng)
    psi = random_state(n, rng)
    ledger_fast, ledger_ref = CostLedger(), CostLedger()
    rng_fast = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    fast = find_high_stab_dim(psi, sub, 0.5, 0.05, rng_fast, ledger_fast)
    z, weight, sigma = reference_find_high_stab_dim(psi, sub, 0.5, 0.05, rng_ref, ledger_ref)
    assert fast.z == z
    assert fast.block_weight == weight
    assert np.array_equal(fast.sigma.amps, sigma.amps)
    assert ledger_fast.to_json() == ledger_ref.to_json()
    # same draws: both generators end in the same state
    assert rng_fast.random() == rng_ref.random()


@pytest.mark.parametrize("n,k,m,seed", [c for c in CASES if c[3] == 0 and c[0] <= 5])
def test_weights_are_measure_block_laws(n, k, m, seed):
    rng = np.random.default_rng([n, k, m, seed, 1])
    sub = random_subgroup(n, k, m, rng)
    psi = random_state(n, rng)
    circuit, _, _ = canonicalize_subgroup(sub.basis.labels(n))
    rotated = apply_circuit(psi, circuit, CostLedger())
    if k == 0:
        probs = np.abs(rotated.amps) ** 2
        for z in range(1 << n):
            _, pr, _ = measure_block(rotated, tuple(range(n)), "computational", force_outcome=z)
            assert abs(pr - probs[z]) <= 1e-12
        return
    weights = _candidate_weights(rotated, k)
    p0 = weights.sum(axis=1)
    for ci, (gi, eps) in enumerate(_mub_candidates(k)[0]):
        gens = signed_generators(k, mub_covering(k).groups[gi].rows, eps)
        vec = statevector_of(StabilizerState(k, gens))
        _, pr, post = measure_block(rotated, tuple(range(k)), ("project", vec), force_outcome=0)
        assert abs(pr - p0[ci]) <= 1e-12
        for z in range(1 << (n - k)):
            _, pz, _ = measure_block(
                post, tuple(range(k, n)), "computational", force_outcome=z
            )
            assert abs(pz - weights[ci, z] / p0[ci]) <= 1e-12


def _tie_case(gap):
    """One qubit and the subgroup <Z> (k = 0): the candidates |0> and |1>
    have fidelities 1/2 - gap/2 and 1/2 + gap/2."""
    psi = StateVector(1, np.sqrt([0.5 - gap / 2, 0.5 + gap / 2]))
    sub = SubgroupV(1, rref_basis([PauliLabel(1, 0, 1).to_vector()], 2), None)
    return psi, sub


def _draw_order(psi, seed, rounds=8):
    rng = np.random.default_rng(seed)
    law = np.abs(psi.amps) ** 2
    return [int(rng.choice(2, p=law / law.sum())) for _ in range(rounds)]


@pytest.mark.parametrize("gap", [0.0, 1e-14, -1e-14])
def test_tie_first_collected_wins(gap):
    # within TIE_TOL the first collected entry keeps the win, whichever of
    # the two is larger by rounding
    psi, sub = _tie_case(gap)
    firsts = set()
    for seed in range(6):
        order = _draw_order(psi, seed)
        assert set(order) == {0, 1}
        cand = find_stabilizer(psi, sub, 0.5, 0.05, np.random.default_rng(seed), CostLedger())
        assert cand.provenance["z"] == order[0]
        assert cand.fidelity == pytest.approx(0.5, abs=1e-12)
        firsts.add(order[0])
    assert firsts == {0, 1}


def test_gap_above_tie_tolerance_wins():
    psi, sub = _tie_case(1e-9)
    for seed in range(6):
        assert set(_draw_order(psi, seed)) == {0, 1}
        cand = find_stabilizer(psi, sub, 0.5, 0.05, np.random.default_rng(seed), CostLedger())
        assert cand.provenance["z"] == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_mub_candidates_match_direct_preparation(k):
    # rows built by one gate pass per group over the basis states equal the
    # statevector of each signed generator set prepared on its own
    keys, matrix, conj = _mub_candidates(k)
    groups = mub_covering(k).groups
    direct = np.array([
        statevector_of(StabilizerState(k, signed_generators(k, groups[gi].rows, eps)))
        for gi, eps in keys
    ])
    assert matrix.shape == ((2**k + 1) * 2**k, 2**k)
    assert np.max(np.abs(matrix - direct)) <= 1e-15
    # the cached conjugate that the contraction multiplies by, read-only like the matrix
    assert conj.tobytes() == matrix.conj().tobytes()
    assert not matrix.flags.writeable and not conj.flags.writeable

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import dataclasses
import json
import time

import numpy as np

from stabcorrect.gf2 import (
    PauliLabel,
    mub_covering,
    rref_basis,
    symplectic_gram_schmidt,
)
from stabcorrect.harness import ExperimentConfig, run
from stabcorrect.iterate import (
    ErrorSchedule,
    base_learner_bruteforce,
    base_learner_self_correct,
    iterate_error_free,
    iterate_robust,
    learn_low_extent,
    mimic_compare,
)
from stabcorrect.ledger import CostLedger
from stabcorrect.pauli import (
    PhasedPauli,
    StabilizerState,
    canonicalize_subgroup,
    conjugate,
    isotropic_subspaces,
    statevector_of,
)
from stabcorrect.rng import RngStream
from stabcorrect.selfcorrect import sampled_tolerant_test, self_correct, tolerant_test
from stabcorrect.statevec import (
    StateVector,
    bruteforce_stab_dim_fidelity,
    bruteforce_stab_fidelity,
    gowers3_metrics,
    lcu_residual,
    overlap,
    random_state,
)

from conftest import (
    _exact_betas,
    enumerate_span,
    distribution_tables,
    enumerate_stabilizer_states,
    expectation_table,
    is_lagrangian,
    orthogonal_stab_pair,
    planted_state,
    all_rows,
    random_circuit,
    synthesize_circuit,
    t_state,
    tableau_from_circuit,
    tensor,
    xor_convolve_naive,
)

pp = PhasedPauli.from_string


def report(num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_exact_metrics():
    t0 = time.time()
    m = gowers3_metrics(t_state())
    ok = abs(m.proxy - 5 / 8) <= 1e-12 and abs(m.u3pow8 - 3 / 4) <= 1e-12
    for st in enumerate_stabilizer_states(2)[::7]:
        ms = gowers3_metrics(StateVector(2, statevector_of(st)))
        ok &= abs(ms.proxy - 1.0) <= 1e-10
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        a = random_state(int(rng.integers(1, 5)), rng)
        b = random_state(int(rng.integers(1, 5)), rng)
        gap = abs(
            gowers3_metrics(tensor(a, b)).proxy
            - gowers3_metrics(a).proxy * gowers3_metrics(b).proxy
        )
        worst = max(worst, gap)
    ok &= worst <= 1e-10
    report(1, ok, f"exact metrics and tensorization (worst gap {worst:.2e}, {time.time()-t0:.1f}s)")


def test_criterion_02_distribution_laws():
    t0 = time.time()
    rng = np.random.default_rng(102)
    ok = True
    conv_checked = 0
    for i in range(1000):
        n = 1 + i % 5
        psi = random_state(n, rng)
        p, q = distribution_tables(psi)
        ok &= abs(p.sum() - 1) <= 1e-10 and abs(q.sum() - 1) <= 1e-10
        ok &= p.max() <= 2.0**-n + 1e-12 and q.max() <= 2.0**-n + 1e-12
        m = gowers3_metrics(psi)
        ok &= m.u3pow8 >= m.proxy - 1e-12 and m.proxy >= m.u3pow8**2 - 1e-12
        if n <= 3 and conv_checked < 60:
            naive = xor_convolve_naive(p, p)
            ok &= np.max(np.abs(q - naive)) <= 1e-12
            conv_checked += 1
    report(2, ok, f"1000 states: normalization, cap, sandwich, {conv_checked} convolution checks ({time.time()-t0:.1f}s)")


def test_criterion_03_fidelity_bounds():
    t0 = time.time()
    rng = np.random.default_rng(103)
    span_cache = {
        n: [np.array(enumerate_span(rref_basis(rows.tolist(), 2 * n))) for rows in isotropic_subspaces(n, n)]
        for n in (1, 2, 3)
    }
    ok = True
    for i in range(500):
        n = 1 + i % 3
        psi = random_state(n, rng)
        fid, _ = bruteforce_stab_fidelity(psi)
        w2 = expectation_table(psi) ** 2
        for span in span_cache[n]:
            ok &= fid >= w2[span].mean() - 1e-10
        ok &= gowers3_metrics(psi).proxy >= fid**6 - 1e-12
    report(3, ok, f"500 states: Lagrangian lower bound and completeness ({time.time()-t0:.1f}s)")


def test_criterion_04_structure_algebra():
    t0 = time.time()
    rng = np.random.default_rng(104)
    ok = True
    # 500 random subgroups: SGS invariants + exact canonical image
    for _ in range(500):
        n = int(rng.integers(1, 9))
        gens = [
            PauliLabel(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))
            for _ in range(int(rng.integers(1, 2 * n + 2)))
        ]
        out = all_rows(*symplectic_gram_schmidt([g.to_vector() for g in gens], n))
        got = rref_basis(out, 2 * n)
        ok &= got == rref_basis([g.to_vector() for g in gens], 2 * n)
        ok &= len(got.rows) == len(out)
        circuit, k, m = canonicalize_subgroup(gens)
        img = rref_basis(
            [conjugate(circuit, PhasedPauli(g, 0)).label.to_vector() for g in gens], 2 * n
        )
        rows = []
        for q in range(k):
            rows += [1 << q, 1 << (n + q)]
        rows += [1 << (n + q) for q in range(k, k + m)]
        ok &= img == rref_basis(rows, 2 * n)
    # MUB invariants exhaustively for k <= 4
    for k in (1, 2, 3, 4):
        cov = mub_covering(k)
        ok &= len(cov.groups) == 2**k + 1
        seen = set()
        for g in cov.groups:
            ok &= is_lagrangian(g, k)
            span = set(enumerate_span(g)) - {0}
            ok &= not span & seen
            seen |= span
        ok &= len(seen) == 4**k - 1
    # circuit/tableau round trips exact, including signs
    for _ in range(100):
        n = int(rng.integers(1, 7))
        tab = tableau_from_circuit(random_circuit(n, rng))
        ok &= tableau_from_circuit(synthesize_circuit(tab)) == tab
    report(4, ok, f"structure algebra on 500 subgroups + MUB k<=4 + 100 round trips ({time.time()-t0:.1f}s)")


def test_criterion_05_planted_self_correction():
    t0 = time.time()
    wins = 0
    trials = 100
    for i in range(trials):
        n = 2 + i % 3
        srng = RngStream(50_000 + i).child("plant").generator()
        s, psi = planted_state(n, srng, weight=0.9)
        opt, _ = bruteforce_stab_fidelity(psi)
        rng = RngStream(50_000 + i).child("run").generator()
        try:
            cand = self_correct(psi, 0.5, 0.05, rng, CostLedger())
            wins += cand.fidelity >= opt - 0.05
        except Exception:
            pass
    report(5, wins >= 90, f"planted pipeline: {wins}/{trials} within 0.05 of optimum ({time.time()-t0:.1f}s)")


def test_criterion_06_iterative_loop_contracts():
    t0 = time.time()
    ok = True
    learner = base_learner_bruteforce()
    # exact rank-2 states: <= 3 iterations, residual <= 1e-6, identities
    rng = np.random.default_rng(106)
    for i in range(30):
        n = 2 + i % 2
        s1, s2 = orthogonal_stab_pair(n, rng)
        psi = StateVector(
            n,
            np.sqrt(0.9) * statevector_of(s1) + np.sqrt(0.1) * statevector_of(s2),
        )
        dec = iterate_error_free(psi, 1e-3, learner, CostLedger(), rng)
        ok &= dec.stop_reason == "tomography_complete"
        ok &= dec.iterations <= 3
        ok &= dec.residual_norm <= 1e-6
        ok &= np.max(np.abs(dec.reconstruction() - psi.amps)) <= 1e-9
    # 500 randomized runs: k bounds never violated, reconstruction exact
    for i in range(500):
        n = 1 + i % 3
        psi = random_state(n, rng)
        eps = float(rng.uniform(0.05, 0.4))
        if i % 2 == 0:
            dec = iterate_error_free(psi, eps, learner, CostLedger(), rng)
            ok &= dec.iterations * dec.eta**2 <= 1 + 1e-9
        else:
            dec = iterate_robust(psi, eps, learner, CostLedger(), rng)
            ok &= dec.iterations * dec.eta**2 <= 9 + 1e-9
        ok &= np.max(np.abs(dec.reconstruction() - psi.amps)) <= 1e-9
    report(6, ok, f"loop contracts over 30 rank-2 plants and 500 randomized runs ({time.time()-t0:.1f}s)")


def test_criterion_07_error_schedule():
    t0 = time.time()
    ok = True
    learner = base_learner_bruteforce()
    run_count = 0
    for trial in range(40):
        rng = np.random.default_rng(7000 + trial)
        psi = random_state(2, rng)
        phase = float(rng.uniform(0, 2 * np.pi))

        def adversary(j, t, true, tol):
            return true + tol * np.exp(1j * (phase + 0.9 * j + 1.7 * t))

        dec = iterate_robust(
            psi, float(rng.uniform(0.1, 0.3)), learner, CostLedger(), rng,
            estimator=adversary,
        )
        if not dec.terms:
            continue
        run_count += 1
        exact = _exact_betas(psi, [phi for _, phi in dec.terms])
        sched = ErrorSchedule(dec.eta)
        for t, row in enumerate(dec.beta_history, start=1):
            for j, beta in enumerate(row):
                ok &= abs(beta - exact[j]) <= sched.delta / (3.0 * t**2) + 1e-12
    report(7, ok and run_count >= 30, f"beta deviation bound held in all {run_count} adversarial runs ({time.time()-t0:.1f}s)")


def test_criterion_08_application_contracts():
    t0 = time.time()
    ok = True
    # learn_low_extent on planted extent-xi states, n <= 5, 50 trials
    wins = 0
    for i in range(40):
        n = 2 + i % 3
        rng = RngStream(8000 + i).child("le").generator()
        s1, s2 = orthogonal_stab_pair(n, np.random.default_rng(880 + i))
        w = 0.5 + 0.3 * (i % 5) / 5
        amps = np.sqrt(w) * statevector_of(s1) + np.sqrt(1 - w) * statevector_of(s2)
        psi = StateVector(n, amps)
        xi = np.sqrt(w) + np.sqrt(1 - w)
        res = learn_low_extent(psi, xi, 0.25, base_learner_bruteforce(), CostLedger(), rng)
        wins += res.overlap_sq >= 0.5 - 0.25
    from stabcorrect.harness import StateSpec, gen_state

    for i in range(10):
        rng = RngStream(8100 + i).child("w5").generator()
        psi, _ = gen_state(StateSpec("w_family", 5, m=3), RngStream(1).child("s").generator())
        # the pipeline's learner, collecting 6 labels instead of n + 3
        learner = dataclasses.replace(
            base_learner_self_correct(0.4, 0.05),
            learn=lambda psi, rng, ledger: self_correct(
                psi, 0.4, 0.05, rng, ledger, collect_t=6
            ).state,
        )
        res = learn_low_extent(psi, np.sqrt(3), 0.25, learner, CostLedger(), rng)
        wins += res.overlap_sq >= 0.5 - 0.25
    ok &= wins == 50
    # mimic deviations within the exact bound
    rng = np.random.default_rng(108)
    for i in range(10):
        s1, s2 = orthogonal_stab_pair(2, rng)
        c = (np.sqrt(0.7), np.sqrt(0.3))
        psi = StateVector(2, c[0] * statevector_of(s1) + c[1] * statevector_of(s2))
        dec = iterate_robust(psi, 0.04, base_learner_bruteforce(), CostLedger(), rng)
        rep = mimic_compare(dec, [(list(c), [s1, s2]), ([1.0], [s1])], 2.0)
        ok &= rep.all_within_bounds()
        ok &= all(e["deviation"] <= rep.eps_prime + 1e-12 for e in rep.entries)
    # stabilizer-dimension decomposition residual contract at n <= 3, t <= 1
    for i in range(8):
        psi = random_state(3, np.random.default_rng(1080 + i))
        for t in (0, 1):
            eps = 0.2
            dec = iterate_robust(
                psi, eps, base_learner_bruteforce(), CostLedger(),
                np.random.default_rng(2080 + i), t=t,
            )
            if dec.residual is not None:
                f = bruteforce_stab_dim_fidelity(dec.residual, t)
                ok &= dec.residual_norm**2 * f <= eps + 1e-9
    report(8, ok, f"low-extent {wins}/50, mimic bounds, stab-dim residual contract ({time.time()-t0:.1f}s)")


def test_criterion_09_tolerant_tester():
    t0 = time.time()
    ok = True
    # accepts all 60 two-qubit stabilizer states
    for st in enumerate_stabilizer_states(2):
        psi = StateVector(2, statevector_of(st))
        ok &= tolerant_test(psi, 0.9, 0.1, 0) == "yes"
    # rejects |T>^(x)8
    t8 = t_state()
    for _ in range(7):
        t8 = tensor(t8, t_state())
    assert abs(gowers3_metrics(t8).proxy - (5 / 8) ** 8) < 1e-10
    ok &= tolerant_test(t8, 0.9, 0.1, 0) == "no"
    # sampled-mode agreement over 1000 seeded runs
    stab = StateVector(2, statevector_of(enumerate_stabilizer_states(2)[13]))
    agree = 0
    for i in range(1000):
        rng = RngStream(9_000_000 + i).child("tol").generator()
        psi, want = (stab, "yes") if i % 2 == 0 else (t8, "no")
        verdict = sampled_tolerant_test(psi, 0.9, 0.1, 0, 1e-3, rng, CostLedger(), 1.0)
        agree += verdict == want
    ok &= agree >= 990
    report(9, ok, f"60 stabilizers accepted, T^8 rejected, sampled agreement {agree}/1000 ({time.time()-t0:.1f}s)")


def test_criterion_10_reproducibility_accounting():
    t0 = time.time()
    ok = True
    cfg = ExperimentConfig.from_json(
        {
            "command": "decompose",
            "state": {"kind": "tdoped", "n": 2, "t": 1},
            "params": {"eps": 0.05},
            "trials": 3,
            "seed": 77,
        }
    )

    def stripped(records):
        out = []
        for rec in records:
            d = rec.to_json()
            d.pop("wall_time_s")
            out.append(json.dumps(d, sort_keys=True, default=float))
        return out

    ok &= stripped(run(cfg)) == stripped(run(cfg))
    # ledger totals equal subroutine sums
    rng = RngStream(10).child("acct").generator()
    ledger = CostLedger()
    _, psi = planted_state(3, np.random.default_rng(10), weight=0.9)
    self_correct(psi, 0.5, 0.05, rng, ledger)
    sums = {k: 0 for k in ledger.totals}
    for row in ledger.breakdown.values():
        for k in sums:
            sums[k] += row[k]
    ok &= sums == ledger.totals
    # combination-residual success probability matches the closed form
    T = t_state()
    plus = StabilizerState(1, (pp("+X"),))
    c1 = overlap(StateVector(1, statevector_of(plus)), T)
    rnorm = float(np.linalg.norm(T.amps - c1 * statevector_of(plus)))
    success = lcu_residual(rnorm, [plus], [c1], CostLedger())
    r1 = np.sqrt(1 - abs(c1) ** 2)
    ok &= abs(success - (r1 / (1 + abs(c1))) ** 2) <= 1e-12
    rng2 = np.random.default_rng(1010)
    for _ in range(10):
        psi = random_state(2, rng2)
        sts = enumerate_stabilizer_states(2)
        picks = [sts[int(rng2.integers(60))] for _ in range(2)]
        betas = [0.4 * (rng2.normal() + 1j * rng2.normal()) for _ in picks]
        resid = psi.amps - sum(
            b * statevector_of(s) for b, s in zip(betas, picks)
        )
        # the paper's form, with ||a||_1 = (1 + sum|beta_j|)/alpha: alpha cancels
        alpha = float(rng2.uniform(0.2, 1.0))
        success = lcu_residual(float(np.linalg.norm(resid)), picks, betas, CostLedger())
        want = (np.linalg.norm(resid) / alpha / ((1 + sum(abs(b) for b in betas)) / alpha)) ** 2
        ok &= abs(success - want) <= 1e-12
    report(10, ok, f"reproducible JSONL, ledger sums, postselection formula ({time.time()-t0:.1f}s)")

import numpy as np
import pytest

from stabcorrect import iterate, statevec
from stabcorrect.errors import SelfCorrectionFailed
from stabcorrect.ledger import CostLedger
from stabcorrect.pauli import StabilizerState, statevector_of
from stabcorrect.rng import RngStream
from stabcorrect.iterate import (
    EST_FAIL,
    PREFIX_TOL,
    BaseLearner,
    ErrorSchedule,
    base_learner_bruteforce,
    base_learner_self_correct,
    iterate_error_free,
    iterate_robust,
    learn_low_extent,
    mimic_compare,
)
from stabcorrect.statevec import (
    StateVector,
    bruteforce_stab_dim_fidelity,
    bruteforce_stab_fidelity,
    gowers3_metrics,
    overlap,
    random_state,
)

from conftest import (
    _exact_betas,
    enumerate_stabilizer_states,
    orthogonal_stab_pair,
    planted_state,
    t_state,
)

def rank2_state(n, rng, w=0.9):
    s1, s2 = orthogonal_stab_pair(n, rng)
    v = np.sqrt(w) * statevector_of(s1) + np.sqrt(1 - w) * statevector_of(s2)
    return s1, s2, StateVector(n, v)


def two_plant_state():
    """0.8|000> + 0.6|111> with its two plants."""
    zeros = StabilizerState.from_json(["+ZII", "+IZI", "+IIZ"])
    ones = StabilizerState.from_json(["-ZII", "-IZI", "-IIZ"])
    return zeros, ones, StateVector(3, 0.8 * statevector_of(zeros) + 0.6 * statevector_of(ones))


class TestErrorFree:
    def test_stabilizer_terminates_immediately(self, rng):
        s1, _, _ = rank2_state(2, rng)
        psi = StateVector(2, statevector_of(s1))
        dec = iterate_error_free(psi, 0.01, base_learner_bruteforce(), CostLedger(), rng)
        assert dec.stop_reason == "tomography_complete"
        assert dec.iterations == 1
        assert dec.residual_norm <= 1e-6

    def test_rank2_exact_decomposition(self, rng):
        for trial in range(10):
            n = int(rng.integers(2, 4))
            s1, s2, psi = rank2_state(n, rng)
            dec = iterate_error_free(psi, 1e-3, base_learner_bruteforce(), CostLedger(), rng)
            assert dec.stop_reason == "tomography_complete"
            assert dec.iterations <= 3
            assert dec.residual_norm <= 1e-6
            assert np.allclose(dec.reconstruction(), psi.amps, atol=1e-9)

    def test_degenerate_threshold(self, rng):
        dec = iterate_error_free(t_state(), 0.99, base_learner_bruteforce(), CostLedger(), rng)
        assert dec.stop_reason == "gowers_below"
        assert dec.iterations == 0

    def test_iteration_bound(self, rng):
        for _ in range(20):
            psi = random_state(2, rng)
            dec = iterate_error_free(psi, 0.05, base_learner_bruteforce(), CostLedger(), rng)
            assert dec.iterations * dec.eta**2 <= 1 + 1e-9

    def test_stop_inequalities_hold(self, rng):
        for _ in range(20):
            psi = random_state(3, rng)
            dec = iterate_error_free(psi, 0.1, base_learner_bruteforce(), CostLedger(), rng)
            if dec.stop_reason == "gowers_below":
                assert gowers3_metrics(dec.residual).proxy < 0.1**6
            elif dec.stop_reason == "alpha_below":
                assert dec.residual_norm**2 < 0.1 + 1e-9
            else:
                assert dec.residual_norm <= 1e-6


class TestRobust:
    def test_stabilizer_with_noise(self, rng):
        s1, _, _ = rank2_state(2, rng)
        psi = StateVector(2, statevector_of(s1))
        dec = iterate_robust(
            psi, 0.05, base_learner_bruteforce(), CostLedger(), rng, estimator="hadamard"
        )
        assert dec.stop_reason in ("alpha_below", "tomography_complete")
        assert dec.iterations <= 2

    def test_hadamard_estimates_past_int64_shots(self):
        # at eps = 0.02 the fourth iteration's overlap estimates need ~4e19
        # shots each, past numpy's int64 binomial sampler
        rng = np.random.default_rng(0)
        psi = random_state(3, rng)
        ledger = CostLedger()
        dec = iterate_robust(
            psi, 0.02, base_learner_bruteforce(), ledger, rng, estimator="hadamard"
        )
        assert dec.iterations >= 4
        exact = _exact_betas(psi, [phi for _, phi in dec.terms])
        sched = ErrorSchedule(dec.eta)
        for t, row in enumerate(dec.beta_history, start=1):
            for j, beta in enumerate(row):
                assert abs(beta - exact[j]) <= sched.delta / (3.0 * t**2) + 1e-12
        # iteration t makes t estimates at tolerance(t), each charged exactly
        shots = [
            int(np.ceil(2.0 * np.log(4.0 / EST_FAIL) / sched.tolerance(t) ** 2))
            for t in range(1, len(dec.beta_history) + 1)
        ]
        assert max(shots) > np.iinfo(np.int64).max
        want = sum(t * 2 * s for t, s in enumerate(shots, start=1))
        assert ledger.breakdown["hadamard_test"]["queries_conU"] == want

    def test_reconstruction_identity(self, rng):
        for _ in range(10):
            _, _, psi = rank2_state(2, rng)
            dec = iterate_robust(psi, 1e-3, base_learner_bruteforce(), CostLedger(), rng)
            assert dec.stop_reason == "tomography_complete"
            assert np.allclose(dec.reconstruction(), psi.amps, atol=1e-9)

    def test_budget_bound(self, rng):
        for _ in range(20):
            psi = random_state(2, rng)
            dec = iterate_robust(psi, 0.05, base_learner_bruteforce(), CostLedger(), rng)
            assert dec.iterations * dec.eta**2 <= 9 + 1e-9

    def test_seeded_determinism(self):
        psi = None
        outs = []
        for _ in range(2):
            rngs = RngStream(55).child("det").generator()
            psi = random_state(3, RngStream(55).child("st").generator())
            dec = iterate_robust(
                psi, 0.1, base_learner_bruteforce(), CostLedger(), rngs, estimator="hadamard"
            )
            outs.append((dec.stop_reason, dec.iterations, tuple(b for b, _ in dec.terms)))
        assert outs[0] == outs[1]

    def test_learner_failure_keeps_terms(self, rng):
        # a learner that gives up on its second call ends the loop with the
        # term it already learnt instead of losing the decomposition
        s1, _, psi = rank2_state(2, rng)
        calls = []

        def learn(residual, rng, ledger):
            calls.append(residual)
            if len(calls) > 1:
                raise SelfCorrectionFailed("attempt budget exhausted")
            return s1

        learner = BaseLearner(learn, lambda eps: eps)
        dec = iterate_robust(psi, 0.05, learner, CostLedger(), rng)
        assert len(calls) == 2
        assert dec.stop_reason == "learner_failed"
        assert [phi for _, phi in dec.terms] == [s1]
        assert np.allclose(dec.reconstruction(), psi.amps, atol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_learner_sees_the_checked_residual(self, seed):
        # each residual the learner is handed, and the one reported on exit,
        # is (psi - sum_j beta_j phi_j)/norm from the loop's own coefficients,
        # bit for bit
        psi = random_state(4, np.random.default_rng(seed))
        brute = base_learner_bruteforce()
        seen = []

        def learn(residual, rng, ledger):
            seen.append(residual.amps)
            return brute.learn(residual, rng, ledger)

        learner = BaseLearner(learn, brute.promise)
        dec = iterate_robust(psi, 0.05, learner, CostLedger(), np.random.default_rng(seed))
        phis = [phi for _, phi in dec.terms]

        def residual(t):
            betas = dec.beta_history[t - 1] if t else []
            unnorm = psi.amps - sum(b * statevector_of(phi) for b, phi in zip(betas, phis))
            return unnorm / np.linalg.norm(unnorm)

        assert len(seen) >= 3 and np.array_equal(seen[0], psi.amps)
        for t, amps in enumerate(seen[1:], start=1):
            assert np.array_equal(amps, residual(t))
        assert np.array_equal(dec.residual.amps, residual(dec.iterations))

    def test_zero_residual_stop_for_every_estimator(self):
        # 0.8|000> + 0.6|111>, learnt plant by plant: the second term leaves a
        # zero residual, and an estimator returning the exact overlaps stops
        # there exactly as the built-in exact one does
        zeros, ones, psi = two_plant_state()
        runs = []
        for estimator in ("exact", lambda j, t, true_value, tol: true_value):
            plants = iter([zeros, ones])
            learner = BaseLearner(lambda residual, rng, ledger: next(plants), lambda eps: eps)
            runs.append(iterate_robust(
                psi, 0.05, learner, CostLedger(), np.random.default_rng(0), estimator=estimator
            ))
        for dec in runs:
            assert dec.stop_reason == "tomography_complete"
            assert [phi for _, phi in dec.terms] == [zeros, ones]
            assert dec.residual is None
        exact, injected = runs
        assert [b for b, _ in injected.terms] == [b for b, _ in exact.terms]
        assert injected.residual_norm == exact.residual_norm <= 1e-12

    def test_one_residual_per_iteration(self, monkeypatch):
        # the loop forms psi - sum_j beta_j phi_j once per iteration, and the
        # combination-of-unitaries charge reuses its norm
        calls = []

        def counted(n, terms):
            calls.append(n)
            return combine(n, terms)

        combine = statevec.stab_combination
        monkeypatch.setattr(iterate, "stab_combination", counted)
        monkeypatch.setattr(statevec, "stab_combination", counted)
        rng = np.random.default_rng(0)
        psi = random_state(4, rng)
        ledger = CostLedger()
        dec = iterate_robust(psi, 0.05, base_learner_bruteforce(), ledger, rng)
        assert dec.iterations == 5
        assert len(calls) == dec.iterations
        assert ledger.breakdown["lcu"]["queries_conU"] > 0

    def test_prefix_stop(self):
        # 0.8|000> + 0.6|111>, learnt plant by plant, with an estimator that
        # reports |beta_1| = 1 at t = 2: the earlier coefficients already
        # exhaust the unit mass, so the loop stops there and keeps both terms
        zeros, ones, psi = two_plant_state()
        plants = iter([zeros, ones])
        learner = BaseLearner(lambda residual, rng, ledger: next(plants), lambda eps: eps)

        def estimator(j, t, true_value, tol):
            return 1.0 if (j, t) == (1, 2) else true_value

        dec = iterate_robust(
            psi, 0.05, learner, CostLedger(), np.random.default_rng(0), estimator=estimator
        )
        assert dec.stop_reason == "tomography_complete"
        assert [phi for _, phi in dec.terms] == [zeros, ones]

    def test_residual_contract(self, rng):
        # |alpha|^2 * F_S(residual) < eps on exit, checked exactly
        for _ in range(10):
            psi = random_state(2, rng)
            eps = 0.15
            dec = iterate_robust(psi, eps, base_learner_bruteforce(), CostLedger(), rng)
            if dec.residual is not None and dec.stop_reason in ("gowers_below", "alpha_below"):
                fid, _ = bruteforce_stab_fidelity(dec.residual)
                assert dec.residual_norm**2 * fid < eps + 1e-9


def worst_case_estimator(phase):
    def estimator(j, t, true, tol):
        return true + tol * np.exp(1j * phase * (j + t))

    return estimator


class TestErrorSchedule:
    def test_tolerances_decrease(self):
        sched = ErrorSchedule(0.3)
        tols = [sched.tolerance(t) for t in range(1, 6)]
        assert all(a > b for a, b in zip(tols, tols[1:]))
        assert sched.delta == pytest.approx(0.3**3 / 12)

    @pytest.mark.parametrize("phase", [0.0, np.pi, 1.234, 2.9])
    def test_beta_deviation_bound(self, phase, rng):
        # adversarial injections of magnitude exactly delta_t never push the
        # rebuilt coefficients past delta/(3 t^2)
        for trial in range(6):
            psi = random_state(2, np.random.default_rng(600 + trial))
            dec = iterate_robust(
                psi, 0.2, base_learner_bruteforce(), CostLedger(), rng,
                estimator=worst_case_estimator(phase),
            )
            if not dec.terms:
                continue
            exact = _exact_betas(psi, [phi for _, phi in dec.terms])
            sched = ErrorSchedule(dec.eta)
            for t, row in enumerate(dec.beta_history, start=1):
                for j, beta in enumerate(row):
                    assert abs(beta - exact[j]) <= sched.delta / (3.0 * t**2) + 1e-12

    def test_r_product_deviation(self, rng):
        # |prod r~^2 - prod r^2| <= delta / t, with prod_j r_j^2 telescoped to
        # 1 - sum_j |beta_j|^2, on the rows whose earlier coefficients leave
        # mass above PREFIX_TOL
        def exhausted(row):
            return 1.0 - sum(abs(b) ** 2 for b in row[:-1]) <= PREFIX_TOL

        for trial in range(6):
            psi = random_state(2, np.random.default_rng(700 + trial))
            dec = iterate_robust(
                psi, 0.2, base_learner_bruteforce(), CostLedger(), rng,
                estimator=worst_case_estimator(1.1),
            )
            if not dec.terms:
                continue
            exact = _exact_betas(psi, [phi for _, phi in dec.terms])
            sched = ErrorSchedule(dec.eta)
            for t, row in enumerate(dec.beta_history, start=1):
                if exhausted(row) or exhausted(exact[: len(row)]):
                    continue
                got = sum(abs(b) ** 2 for b in row)
                want = sum(abs(b) ** 2 for b in exact[: len(row)])
                assert abs(got - want) <= sched.delta / t + 1e-12


class TestLearners:
    def test_bruteforce_cap(self, rng):
        # the learner's cap is the exact oracle's: n <= 5
        learner = base_learner_bruteforce()
        with pytest.raises(ValueError, match="capped at n <= 5: n = 6 has"):
            learner.learn(random_state(6, rng), rng, CostLedger())

    def test_bruteforce_is_argmax(self, rng):
        learner = base_learner_bruteforce()
        psi = t_state()
        st = learner.learn(psi, rng, CostLedger())
        val, arg = bruteforce_stab_fidelity(psi)
        assert st == arg
        assert val == pytest.approx((2 + np.sqrt(2)) / 4, abs=1e-12)

    def test_bruteforce_fixed_point(self, rng):
        learner = base_learner_bruteforce()
        for idx in (0, 17, 42):
            st = enumerate_stabilizer_states(2)[idx]
            psi = StateVector(2, statevector_of(st))
            assert learner.learn(psi, rng, CostLedger()) == st

    def test_promise_monotone(self):
        learner = base_learner_bruteforce()
        xs = np.linspace(0.01, 0.9, 10)
        ys = [learner.promise(x) for x in xs]
        assert all(a < b for a, b in zip(ys, ys[1:]))

    def test_self_correct_learner(self, rng):
        _, psi = planted_state(2, rng, weight=0.95)
        learner = base_learner_self_correct(0.5, 0.05)
        st = learner.learn(psi, rng, CostLedger())
        fid = abs(overlap(StateVector(2, statevector_of(st)), psi)) ** 2
        assert fid >= 0.9


class TestApplications:
    def test_low_extent_stabilizer(self, rng):
        s1, _, _ = rank2_state(2, rng)
        psi = StateVector(2, statevector_of(s1))
        res = learn_low_extent(psi, 1.0, 0.2, base_learner_bruteforce(), CostLedger(), rng)
        assert res.overlap_sq == pytest.approx(1.0, abs=1e-9)

    def test_low_extent_refuses_nan_xi(self, rng):
        psi = random_state(2, rng)
        with pytest.raises(ValueError, match="xi must be >= 1"):
            learn_low_extent(psi, float("nan"), 0.2, base_learner_bruteforce(), CostLedger(), rng)

    def test_low_extent_planted_combo(self, rng):
        for _ in range(5):
            s1, s2, psi = rank2_state(3, rng, w=0.7)
            xi = 2.0
            res = learn_low_extent(psi, xi, 0.25, base_learner_bruteforce(), CostLedger(), rng)
            assert res.overlap_sq >= 0.5 - 0.25
            assert 0 < res.lcu_success <= 1 + 1e-12

    def test_mimic_self_target(self, rng):
        s1, s2, psi = rank2_state(2, rng, w=0.6)
        dec = iterate_robust(psi, 0.05, base_learner_bruteforce(), CostLedger(), rng)
        rep = mimic_compare(
            dec, [([np.sqrt(0.6), np.sqrt(0.4)], [s1, s2])], 2.0
        )
        assert rep.all_within_bounds()

    def test_mimic_single_stabilizer(self, rng):
        s1, s2, psi = rank2_state(2, rng)
        dec = iterate_robust(psi, 0.05, base_learner_bruteforce(), CostLedger(), rng)
        rep = mimic_compare(dec, [([1.0], [s1])], 1.5)
        assert rep.entries[0]["bound"] == pytest.approx(np.sqrt(dec.eps))
        assert rep.all_within_bounds()

    def test_mimic_zero_residual(self, rng):
        s1, _, _ = rank2_state(2, rng)
        psi = StateVector(2, statevector_of(s1))
        dec = iterate_error_free(psi, 0.01, base_learner_bruteforce(), CostLedger(), rng)
        rep = mimic_compare(dec, [([1.0], [s1])], 1.0)
        assert rep.entries[0]["deviation"] <= 1e-9

    def test_decompose_residual_contract(self, rng):
        # |alpha|^2 * F_{S(n-t)}(residual) <= eps, brute force at n <= 3
        for trial in range(5):
            psi = random_state(3, np.random.default_rng(800 + trial))
            eps = 0.2
            dec = iterate_robust(psi, eps, base_learner_bruteforce(), CostLedger(), rng, t=1)
            if dec.residual is None:
                continue
            f = bruteforce_stab_dim_fidelity(dec.residual, 1)
            assert dec.residual_norm**2 * f <= eps + 1e-9

    def test_decompose_near_vacuous_threshold(self, rng):
        psi = random_state(3, rng)
        dec = iterate_robust(psi, 0.6, base_learner_bruteforce(), CostLedger(), rng, t=2)
        assert dec.iterations <= 1

    @pytest.mark.parametrize("t", [-1, 3, 4])
    def test_decompose_refuses_t_outside_range(self, t, rng):
        psi = random_state(3, rng)
        with pytest.raises(ValueError, match="need 0 <= t < n"):
            iterate_robust(psi, 0.2, base_learner_bruteforce(), CostLedger(), rng, t=t)


class TestDecompositionRecord:
    def test_json_round_trip_fields(self, rng):
        _, _, psi = rank2_state(2, rng)
        dec = iterate_robust(psi, 0.05, base_learner_bruteforce(), CostLedger(), rng)
        data = dec.to_json()
        assert set(data) >= {"terms", "residual_norm", "stop_reason", "iterations", "ledger"}
        assert data["iterations"] == len(data["terms"])

    def test_invariants(self, rng):
        _, _, psi = rank2_state(2, rng)
        dec = iterate_error_free(psi, 0.01, base_learner_bruteforce(), CostLedger(), rng)
        assert all(abs(b) <= 1 + 1e-6 for b, _ in dec.terms)

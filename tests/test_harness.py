import csv
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from stabcorrect import harness
from stabcorrect.errors import SelfCorrectionFailed
from stabcorrect.harness import (
    ExperimentConfig,
    StateSpec,
    build_id,
    emit_results,
    gen_state,
    run,
)
from stabcorrect.gf2 import PauliLabel
from stabcorrect.pauli import PhasedPauli, StabilizerState, statevector_of
from stabcorrect.rng import RngStream
from stabcorrect.selfcorrect import tolerant_thresholds
from stabcorrect.statevec import bruteforce_stab_dim_fidelity, bruteforce_stab_fidelity

from conftest import random_clifford_gates_reference, weyl_matrix


def gen(seed):
    return RngStream(seed).child("g").generator()


def is_stabilizer(psi):
    return bruteforce_stab_fidelity(psi)[0] > 1 - 1e-9


def first_seed(spec, trials, keep):
    """The first seed whose trial states (``harness.run``'s "state" streams)
    all satisfy ``keep``: a test that needs such a state gets one whatever
    the draws, instead of relying on one seed's outcome."""
    return next(
        seed for seed in range(1000)
        if all(keep(gen_state(spec, RngStream(seed).child("state", i).generator())[0])
               for i in range(trials))
    )


class TestGenState:
    def test_basis(self):
        psi, meta = gen_state(StateSpec("basis", 3), gen(0))
        assert psi.amps[0] == 1.0 and meta["stab_fidelity"] == 1.0
        assert meta["stabilizer_group"] == ["+ZII", "+IZI", "+IIZ"]

    def test_basis_index(self):
        psi, meta = gen_state(StateSpec("basis", 2, index=2), gen(0))
        assert psi.amps[2] == 1.0
        assert "-" in meta["stabilizer_group"][1]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_basis_every_index(self, n):
        # exactly the unit vector, and the group strings as built by hand
        for index in range(1 << n):
            psi, meta = gen_state(StateSpec("basis", n, index=index), gen(0))
            unit = np.zeros(1 << n, dtype=complex)
            unit[index] = 1.0
            assert (psi.amps == unit).all()
            assert meta["stabilizer_group"] == [
                PhasedPauli(PauliLabel(n, 0, 1 << q), 2 * ((index >> q) & 1)).to_string()
                for q in range(n)
            ]

    def test_random_stabilizer_group_is_ground_truth(self):
        for seed in range(5):
            psi, meta = gen_state(StateSpec("random_stabilizer", 3), gen(seed))
            for s in meta["stabilizer_group"]:
                g = PhasedPauli.from_string(s)
                assert np.allclose(weyl_matrix(g) @ psi.amps, psi.amps, atol=1e-10)

    def test_tdoped_deterministic(self):
        a, meta = gen_state(StateSpec("tdoped", 4, t=2), gen(7))
        b, _ = gen_state(StateSpec("tdoped", 4, t=2), gen(7))
        assert np.allclose(a.amps, b.amps)
        assert meta["extent_bound"] == pytest.approx((1 + 2**-0.5) ** 2)

    @pytest.mark.parametrize("n,t", [(n, t) for n in (3, 4, 5) for t in (1, 2)])
    def test_tdoped_stab_dim_lower_holds(self, n, t):
        # each T gate lowers the stabilizer dimension by at most one, so the
        # state itself has stabilizer dimension >= n - t
        for seed in range(6):
            psi, meta = gen_state(StateSpec("tdoped", n, t=t), gen(seed))
            assert meta["stab_dim_lower"] == n - t
            assert bruteforce_stab_dim_fidelity(psi, t) == pytest.approx(1.0, abs=1e-12)

    def test_tdoped_zero_is_stabilizer(self):
        psi, _ = gen_state(StateSpec("tdoped", 2, t=0), gen(3))
        assert bruteforce_stab_fidelity(psi)[0] == pytest.approx(1.0, abs=1e-9)

    def test_w_family(self):
        psi, meta = gen_state(StateSpec("w_family", 4, m=3), gen(0))
        assert meta["extent"] == pytest.approx(np.sqrt(3))
        assert meta["stab_dim"] == 2
        # support on the three weight-1 strings of the last three qubits
        nz = np.flatnonzero(np.abs(psi.amps) > 1e-12)
        assert len(nz) == 3
        for g in meta["stabilizer_group"]:
            p = PhasedPauli.from_string(g)
            assert np.allclose(weyl_matrix(p) @ psi.amps, psi.amps, atol=1e-12)

    def test_combo_zero_vector_refused(self):
        gens = ("+ZI", "+IZ")
        spec = StateSpec("combo", 2, terms=((0.5, 0.0, gens), (-0.5, 0.0, gens)))
        with pytest.raises(ValueError, match="^combo coefficients produce the zero vector$"):
            gen_state(spec, gen(0))

    def test_combo_renormalized(self):
        spec = StateSpec(
            "combo", 2,
            terms=((0.8, 0.0, ("+ZI", "+IZ")), (0.6, 0.0, ("+XI", "+IX"))),
        )
        psi, meta = gen_state(spec, gen(0))
        assert np.linalg.norm(psi.amps) == pytest.approx(1.0)
        assert meta["normalization"] > 0
        assert len(meta["plant_fidelities"]) == 2

    def test_haar_seeded(self):
        a, _ = gen_state(StateSpec("haar", 3), gen(5))
        b, _ = gen_state(StateSpec("haar", 3), gen(5))
        c, _ = gen_state(StateSpec("haar", 3), gen(6))
        assert np.allclose(a.amps, b.amps)
        assert not np.allclose(a.amps, c.amps)

    def test_validation(self):
        with pytest.raises(ValueError):
            StateSpec("w_family", 2, m=5)
        with pytest.raises(ValueError):
            StateSpec("nope", 2)
        with pytest.raises(ValueError):
            StateSpec("combo", 2)

    def test_n_beyond_memory_rejected(self):
        # 2^40 amplitudes are 16 TiB; the spec is refused before any state is built
        with pytest.raises(ValueError, match=r"n = 40 needs \d+ bytes"):
            StateSpec("basis", 40)

    @pytest.mark.parametrize("index", [8, -1])
    def test_basis_index_out_of_range(self, index):
        with pytest.raises(ValueError, match=rf"basis index {index} .*n = 3"):
            StateSpec("basis", 3, index=index)


def _unit():
    return st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


# a valid value of each param, given the state's qubit count
PARAM_VALUES = {
    **{key: lambda n: _unit() for key in ("gamma", "delta", "eps", "eps1", "eps2", "eps_prime")},
    "xi": lambda n: st.floats(1.0, 1e6),
    "separation_c": lambda n: st.floats(1e-3, 1e3),
    "attempts": lambda n: st.integers(1, 64),
    "t": lambda n: st.integers(0, n - 1),
    "loop": lambda n: st.sampled_from(harness.LOOPS),
    "learner": lambda n: st.sampled_from(harness.LEARNERS),
    "mode": lambda n: st.sampled_from(harness.MODES),
    "stab_dims": lambda n: st.lists(st.integers(0, n), max_size=3),
    # bench: its own n
    "n": lambda n: st.just(8 + n),
}


@st.composite
def state_specs(draw, n):
    kind = draw(st.sampled_from(harness.STATE_KINDS))
    data = {"kind": kind, "n": n}
    if kind == "basis":
        data["index"] = draw(st.integers(0, (1 << n) - 1))
    if kind == "tdoped":
        # and t beyond the finite extent bound, which the config refuses
        data["t"] = draw(st.integers(0, 3) | st.sampled_from([10**400, 1e300, 2**63]))
    if kind == "w_family":
        data["m"] = draw(st.integers(1, n))
    if kind == "combo":
        gens = ["+" + "I" * q + "Z" + "I" * (n - q - 1) for q in range(n)]
        data["terms"] = [
            {"coeff": draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)), "generators": gens}
            for _ in range(draw(st.integers(1, 3)))
        ]
    return data


@st.composite
def config_dicts(draw):
    command = draw(st.sampled_from(harness.COMMANDS))
    # the selfcorrect command refuses n = 1
    n = draw(st.integers(2 if command == "selfcorrect" else 1, 5))
    keys = draw(st.lists(st.sampled_from(sorted(harness.PARAMS[command])), unique=True))
    params = {key: draw(PARAM_VALUES[key](n)) for key in keys}
    if params.get("learner", harness.PARAMS[command].get("learner")) == "bruteforce":
        # the bruteforce learner refuses the self-correction params
        for key in ("gamma", "delta", "attempts"):
            params.pop(key, None)
    if params.get("mode", harness.PARAMS[command].get("mode")) == "exact":
        # the exact mode refuses delta, which only the sampled mode reads
        params.pop("delta", None)
    if params.get("loop") == "error_free":
        params["t"] = 0
    if command == "test":
        # an inseparable (eps1, eps2, t, separation_c) is refused with the config
        p = {**harness.PARAMS["test"], **params}
        try:
            tolerant_thresholds(p["eps1"], p["eps2"], p["t"], p["separation_c"])
        except ValueError:
            assume(False)
    data = {
        "command": command,
        "params": params,
        "trials": draw(st.integers(1, 5)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "format": draw(st.sampled_from(harness.FORMATS)),
        "out": draw(st.none() | st.just("out.jsonl")),
    }
    if command != "bench" or draw(st.booleans()):
        data["state"] = draw(state_specs(n))
    # a gamma, delta, eps, xi, sampled test margin or tdoped t that leaves a
    # shot count, copy count or extent bound of the run without a finite
    # value is refused with the config
    try:
        ExperimentConfig.from_json(data)
    except ValueError as exc:
        assume("no finite" not in str(exc))
    return data


class TestRandomCliffordGates:
    @staticmethod
    def tallies(gates, n):
        """Counts of each kind, of each single-qubit gate's qubit and of
        each CNOT's (c, t), as one vector."""
        kinds = ("H", "S", "X", "Z", "CNOT")
        out = np.zeros(len(kinds) + n + n * n)
        for name, qs in gates:
            out[kinds.index(name)] += 1
            if name == "CNOT":
                out[len(kinds) + n + qs[0] * n + qs[1]] += 1
            else:
                out[len(kinds) + qs[0]] += 1
        return out

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_law_matches_scalar_reference(self, n):
        # kind, qubit and (c, t) frequencies of the array draws against the
        # scalar per-gate draws, within 4 sigma over 4,000 gates each
        draws = 4000
        ours = self.tallies(harness._random_clifford_gates(n, gen(1), draws), n) / draws
        ref = self.tallies(random_clifford_gates_reference(n, gen(2), draws), n) / draws
        p = (ours + ref) / 2
        assert np.all(np.abs(ours - ref) <= 4 * np.sqrt(p * (1 - p) * 2 / draws))
        cnots = ours[5 + n:].reshape(n, n)
        assert not np.diag(cnots).any()
        if n == 1:
            assert ours[4] == 0
        else:
            assert ours[4] > 0 and (cnots + np.eye(n) > 0).all()

class TestConfig:
    @given(config_dicts())
    def test_round_trip(self, data):
        # every command, random valid params and every state kind; to_json
        # does not write the output path, so it is set aside
        cfg = ExperimentConfig.from_json(data)
        again = ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert again == dataclasses.replace(cfg, out=None)

    @pytest.mark.parametrize("key", ["param", "trails"])
    def test_unknown_config_key_rejected(self, key):
        data = {"command": "analyze", "state": {"kind": "haar", "n": 2}, key: 5}
        with pytest.raises(ValueError, match=rf"unknown config key\(s\): '{key}'; allowed: command, "):
            ExperimentConfig.from_json(data)

    def test_unknown_state_key_rejected(self):
        data = {"command": "analyze", "state": {"kind": "haar", "n": 2, "tt": 4}}
        with pytest.raises(ValueError, match=r"unknown state key\(s\): 'tt'; allowed: index, kind, "):
            ExperimentConfig.from_json(data)

    @pytest.mark.parametrize(
        "value",
        ["0.5", "abc", [0.5], True, None, float("nan"), float("inf"),
         pytest.param(10**400, id="int-beyond-float")],
    )
    def test_float_param_takes_only_finite_reals(self, value):
        with pytest.raises(ValueError, match="parameter gamma must be a finite real number"):
            ExperimentConfig.from_json(
                {"command": "selfcorrect", "state": {"kind": "haar", "n": 2}, "params": {"gamma": value}}
            )

    @pytest.mark.parametrize("value", [2, "12"])
    def test_stab_dims_must_be_an_array(self, value):
        with pytest.raises(ValueError, match="parameter stab_dims must be a JSON array"):
            ExperimentConfig.from_json(
                {"command": "oracle", "state": {"kind": "haar", "n": 2}, "params": {"stab_dims": value}}
            )

    @pytest.mark.parametrize("out", [5, "", True, ["out.jsonl"]])
    def test_out_must_be_null_or_a_path(self, out):
        # refused with the config, not after every trial has run
        with pytest.raises(ValueError, match="out must be null or a non-empty path string"):
            ExperimentConfig.from_json(
                {"command": "analyze", "state": {"kind": "haar", "n": 2}, "out": out}
            )

    def test_out_in_a_missing_directory_rejected_before_any_trial(self, tmp_path, monkeypatch):
        out = str(tmp_path / "missing" / "out.jsonl")
        trials = []
        monkeypatch.setattr(harness, "_run_trial", lambda *args: trials.append(args))
        with pytest.raises(ValueError, match=f"out {re.escape(repr(out))} lies in a directory"):
            run(ExperimentConfig.from_json(
                {"command": "analyze", "state": {"kind": "haar", "n": 8}, "trials": 3, "out": out}
            ))
        assert not trials

    @pytest.mark.parametrize(
        "term, message",
        [
            pytest.param(["+Z"], r"combo term must be a JSON object, got \['\+Z'\]", id="array-term"),
            pytest.param({"coeff": ["0.5", 0.0], "generators": ["+Z"]},
                         "combo coeff must be a finite real number", id="string-coeff"),
            pytest.param({"coeff": [0.5, 0.0], "generators": ["+Z"], "weight": 2},
                         r"unknown combo term key\(s\): 'weight'; allowed: coeff, generators",
                         id="extra-key"),
            pytest.param({"coeff": [float("nan"), 0.0], "generators": ["+Z"]},
                         "combo coeff must be a finite real number", id="nan-coeff"),
            pytest.param({"coeff": [0.5], "generators": ["+Z"]},
                         "combo coeff must be a 2-entry array", id="short-coeff"),
            pytest.param({"coeff": [0.5, 0.0], "generators": "+Z"},
                         "combo generators must be an array of strings", id="string-generators"),
            pytest.param({"coeff": [1.0, 0.0], "generators": ["+ZQ", "+IZ"]},
                         r"combo term 0 generators \['\+ZQ', '\+IZ'\]: "
                         "unknown Pauli character 'Q' in 'ZQ'", id="bad-character"),
            pytest.param({"coeff": [1.0, 0.0], "generators": ["++XX", "+ZZ"]},
                         r"combo term 0 .*more than one sign in Pauli string '\+\+XX'",
                         id="double-sign"),
            pytest.param({"coeff": [1.0, 0.0], "generators": []},
                         "combo term 0 .*need exactly n generators", id="empty-generators"),
            pytest.param({"coeff": [1.0, 0.0], "generators": ["+ZZ"]},
                         "combo term 0 .*need exactly n generators", id="too-few"),
            pytest.param({"coeff": [1.0, 0.0], "generators": ["+ZZZ", "+IZI"]},
                         "combo term 0 .*Hermitian n-qubit Paulis", id="wrong-length"),
            pytest.param({"coeff": [1.0, 0.0], "generators": ["+ZZ", "+XI"]},
                         "combo term 0 .*generators must commute", id="anticommuting"),
            pytest.param({"coeff": [1.0, 0.0], "generators": ["+ZI", "-ZI"]},
                         "combo term 0 .*generator labels must be independent", id="dependent"),
        ],
    )
    def test_combo_terms_parsed_strictly(self, term, message):
        # refused with the config, before any state is built
        with pytest.raises(ValueError, match=message):
            StateSpec.from_json({"kind": "combo", "n": 2, "terms": [term]})

    @pytest.mark.parametrize(
        "terms", [5, {"coeff": [1.0, 0.0], "generators": ["+ZI", "+IZ"]}, "+ZI"]
    )
    def test_combo_terms_must_be_an_array(self, terms):
        # not iterated: an object would yield its keys, a string its characters
        with pytest.raises(ValueError, match=r"state terms must be a JSON array, got "):
            StateSpec.from_json({"kind": "combo", "n": 2, "terms": terms})

    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            ("learn-extent", "xi", 0.5, "parameter xi must be >= 1"),
            ("learn-extent", "xi", float("nan"), "parameter xi must be a finite real number"),
            ("test", "separation_c", 0.0, "parameter separation_c must be > 0"),
            ("test", "separation_c", -1.0, "parameter separation_c must be > 0"),
            ("test", "separation_c", float("nan"), "parameter separation_c must be a finite real"),
        ],
    )
    def test_xi_and_separation_c_checked(self, command, key, value, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(
                {"command": command, "state": {"kind": "haar", "n": 2}, "params": {key: value}}
            )

    @pytest.mark.parametrize(
        "command, state, params, field",
        [
            ("selfcorrect", {"kind": "basis", "n": 3}, {"gamma": 1e-300}, "gamma"),
            ("decompose", {"kind": "basis", "n": 3}, {"learner": "self_correct", "gamma": 1e-300},
             "gamma"),
            ("analyze", {"kind": "haar", "n": 3}, {"mode": "sampled", "delta": 1e-300}, "delta"),
            ("decompose", {"kind": "haar", "n": 3}, {"eps": 1e-300}, "eps"),
            ("decompose", {"kind": "haar", "n": 3}, {"eps": 1e-300, "loop": "error_free"}, "eps"),
            ("learn-extent", {"kind": "haar", "n": 3}, {"xi": 2**63}, "xi"),
            ("analyze", {"kind": "haar", "n": None}, {}, "state n"),
            ("analyze", {"kind": "basis", "n": 2, "index": None}, {}, "state index"),
            ("analyze", {"kind": "haar", "n": 2**70}, {}, "state n"),
            ("analyze", {"kind": "haar", "n": 1e300}, {}, "state n"),
            ("analyze", {"kind": "haar", "n": 10**400}, {}, "state n"),
            ("bench", None, {"n": 2**70}, "parameter n"),
            ("bench", None, {"n": 1e300}, "parameter n"),
            ("bench", None, {"n": 10**400}, "parameter n"),
            ("test", {"kind": "haar", "n": 3},
             {"mode": "sampled", "eps1": 1e-30, "eps2": 0.05, "separation_c": 1e-3},
             r"eps1 = 1e-30, eps2 = 0\.05, t = 0 and separation_c = 0\.001"),
            ("analyze", {"kind": "tdoped", "n": 3, "t": 10**400}, {}, "state t"),
            ("analyze", {"kind": "tdoped", "n": 3, "t": 1e300}, {}, "state t"),
            ("analyze", {"kind": "tdoped", "n": 3, "t": 2**63}, {}, "state t"),
        ],
    )
    def test_counts_without_a_finite_value_refused(self, command, state, params, field):
        # each would overflow, divide by zero or hang once the run computed
        # its shot count, copy count, extent bound, 16 << n or 4^n
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_json({"command": command, "state": state, "params": params})

    @pytest.mark.parametrize(
        "command, params, key",
        [
            ("selfcorrect", {"gamma": 1.5}, "gamma"),
            ("analyze", {"mode": "sampled", "delta": 0.0}, "delta"),
            ("decompose", {"eps": 1.0}, "eps"),
            ("test", {"eps1": 1.5}, "eps1"),
            ("test", {"eps2": -0.1}, "eps2"),
            ("learn-extent", {"eps_prime": 1.0}, "eps_prime"),
        ],
    )
    def test_unit_interval_params_refused(self, command, params, key):
        # each on a command that reads it, so no unknown-key refusal comes first
        with pytest.raises(ValueError, match=rf"^parameter {key} must lie in \(0, 1\)$"):
            ExperimentConfig.from_json(
                {"command": command, "state": {"kind": "haar", "n": 3}, "params": params}
            )

    @pytest.mark.parametrize("t", [None, -1])
    def test_tdoped_needs_a_nonnegative_t(self, t):
        with pytest.raises(ValueError, match=r"^tdoped needs t >= 0$"):
            StateSpec.from_json({"kind": "tdoped", "n": 3, **({} if t is None else {"t": t})})

    def test_selfcorrect_refuses_one_qubit(self):
        with pytest.raises(ValueError, match=r"^command 'selfcorrect' needs n >= 2, got n = 1$"):
            ExperimentConfig.from_json({"command": "selfcorrect", "state": {"kind": "haar", "n": 1}})
        ExperimentConfig.from_json({"command": "selfcorrect", "state": {"kind": "haar", "n": 2}})

    def test_tdoped_t_capped_where_the_extent_bound_overflows(self):
        # (1 + 2^-1/2)^t is finite up to t = 1,327, which still runs
        psi, meta = gen_state(StateSpec("tdoped", 2, t=1327), np.random.default_rng(0))
        assert np.isfinite(meta["extent_bound"])
        with pytest.raises(ValueError, match="state t = 1328 gives no finite extent bound"):
            StateSpec("tdoped", 2, t=1328)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_json({"command": "analyze", "trials": 0})
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(
                {"command": "analyze", "params": {"gamma": 1.5}}
            )
        with pytest.raises(ValueError):
            ExperimentConfig.from_json({"command": "frobnicate"})

    @pytest.mark.parametrize("attempts", [0, -3])
    def test_attempts_below_one_rejected(self, attempts):
        with pytest.raises(ValueError, match="attempts"):
            ExperimentConfig.from_json(
                {"command": "selfcorrect", "params": {"attempts": attempts}}
            )

    @pytest.mark.parametrize("command", ["selfcorrect", "decompose", "learn-extent"])
    @pytest.mark.parametrize("theta", [0.0, -0.5, 1.5, "high", None])
    def test_retired_params_accept_any_value(self, command, theta):
        # once the covering subgroup's choice, now read by nothing: any value,
        # one warning naming both, no resolved param, echoed as written
        params = {"oracle": "plantd", "theta": theta}
        data = {"command": command, "state": {"kind": "haar", "n": 2}, "params": params}
        with pytest.warns(DeprecationWarning, match="'oracle', 'theta' are retired") as caught:
            cfg = ExperimentConfig.from_json(data)
        assert len(caught) == 1
        assert not {"oracle", "theta"} & set(cfg.resolved_params())
        assert cfg.to_json()["params"] == params

    def test_retired_params_change_no_record_but_its_config(self):
        data = {"command": "selfcorrect", "state": {"kind": "basis", "n": 3, "index": 5}, "seed": 2}
        with pytest.warns(DeprecationWarning):
            retired = run(ExperimentConfig.from_json({**data, "params": {"oracle": "planted"}}))[0]
        plain = run(ExperimentConfig.from_json(data))[0]
        assert (retired.outputs, retired.ledger) == (plain.outputs, plain.ledger)
        assert retired.config["params"] == {"oracle": "planted"}

    @pytest.mark.parametrize("command", ["analyze", "test", "oracle", "bench"])
    def test_retired_params_unknown_elsewhere(self, command):
        # only the commands that took them accept them
        with pytest.raises(ValueError, match="unknown parameter.*'oracle'"):
            ExperimentConfig.from_json({"command": command, "params": {"oracle": "planted"}})

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="'gama'"):
            ExperimentConfig.from_json(
                {"command": "selfcorrect", "params": {"gama": 0.9}}
            )
        # a key another command reads is still unknown here
        with pytest.raises(ValueError, match="'stab_dims'"):
            ExperimentConfig.from_json({"command": "decompose", "params": {"stab_dims": [1]}})
        # bench no longer times the convolution, so its size is refused
        with pytest.raises(ValueError, match=r"command 'bench': 'n_naive'; allowed: n$"):
            ExperimentConfig.from_json({"command": "bench", "params": {"n": 6, "n_naive": 4}})

    @pytest.mark.parametrize(
        "data, message",
        [
            pytest.param({"state": {"kind": "basis", "n": 40}},
                         "config needs the key 'command'; allowed: analyze, ", id="no-command"),
            pytest.param({"command": "analyze", "state": {"n": 2}},
                         "state needs the key 'kind'", id="state-without-kind"),
            pytest.param({"command": "analyze", "state": {"kind": "haar"}},
                         "state needs the key 'n'", id="state-without-n"),
            pytest.param({"command": "analyze", "state": ["haar", 2]},
                         r"state must be a JSON object, got \['haar', 2\]", id="state-array"),
            pytest.param({"command": "analyze", "state": {"kind": "basis", "n": 40}, "params": [1, 2]},
                         r"params must be a JSON object, got \[1, 2\]", id="params-array"),
        ],
    )
    def test_malformed_config_rejected(self, data, message):
        # each error names its field; the n = 40 states, whose memory check
        # would fail, show that it comes before the state is read
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(data)

    def test_param_schema_accepts_what_commands_read(self):
        ExperimentConfig.from_json(
            {
                "command": "selfcorrect",
                "state": {"kind": "basis", "n": 2},
                "params": {"gamma": 0.5, "delta": 0.05},
            }
        )
        ExperimentConfig.from_json(
            {
                "command": "decompose",
                "state": {"kind": "haar", "n": 2},
                "params": {"learner": "self_correct", "eps": 0.05, "loop": "robust"},
            }
        )
        read = set(re.findall(r'\bp\["(\w+)"\]', inspect.getsource(harness)))
        assert read == {key for params in harness.PARAMS.values() for key in params}

    @pytest.mark.parametrize("kind", ["tdoped", "haar"])
    @pytest.mark.parametrize(
        "command, params",
        [
            ("selfcorrect", {}),
            ("decompose", {"learner": "self_correct"}),
            ("learn-extent", {"learner": "self_correct"}),
        ],
    )
    def test_self_correction_accepts_groupless_kinds(self, kind, command, params):
        # no stage reads a known group, so kinds that record none are
        # accepted, also with the retired planted choice
        state = {"kind": kind, "n": 3, **({"t": 1} if kind == "tdoped" else {})}
        cfg = {"command": command, "state": state, "params": params}
        ExperimentConfig.from_json(cfg)
        with pytest.warns(DeprecationWarning):
            ExperimentConfig.from_json(dict(cfg, params={**params, "oracle": "planted"}))

    @pytest.mark.parametrize("command", [c for c in harness.COMMANDS if c != "bench"])
    def test_spelled_out_defaults_change_nothing(self, command):
        state = {
            "kind": "combo",
            "n": 3,
            "terms": [
                {"coeff": [0.95, 0.0], "generators": ["+ZII", "+IZI", "+IIZ"]},
                {"coeff": [0.3, 0.0], "generators": ["+XII", "+IXI", "+IIX"]},
            ],
        }

        def outputs_and_ledger(params):
            cfg = {"command": command, "state": state, "params": params, "seed": 3}
            rec = run(ExperimentConfig.from_json(cfg))[0]
            return rec.outputs, rec.ledger

        # the bruteforce learner (the default) refuses the self-correction
        # params, and the exact mode (the default) refuses delta, so those
        # are left out where they run
        spelled = dict(harness.PARAMS[command])
        if spelled.get("learner") == "bruteforce":
            spelled = {k: v for k, v in spelled.items() if k not in ("gamma", "delta", "attempts")}
        if spelled.get("mode") == "exact":
            del spelled["delta"]
        assert outputs_and_ledger({}) == outputs_and_ledger(spelled)

    @pytest.mark.parametrize("command", ["analyze", "test"])
    def test_exact_mode_refuses_delta(self, command):
        state = {"kind": "haar", "n": 3}
        for mode in ({"mode": "exact"}, {}):
            with pytest.raises(ValueError, match="parameter delta is read only by mode 'sampled'"):
                ExperimentConfig.from_json(
                    {"command": command, "state": state, "params": {**mode, "delta": 0.1}}
                )
        ExperimentConfig.from_json(
            {"command": command, "state": state, "params": {"mode": "sampled", "delta": 0.1}}
        )

    @pytest.mark.parametrize("command", ["decompose", "learn-extent"])
    def test_bruteforce_learner_refuses_self_correction_params(self, command):
        state = {"kind": "haar", "n": 3}
        for learner in ({"learner": "bruteforce"}, {}):
            params = {**learner, "gamma": 0.3, "attempts": 7}
            with pytest.raises(ValueError, match="gamma, attempts are read only by learner 'self_correct'"):
                ExperimentConfig.from_json({"command": command, "state": state, "params": params})
        with pytest.raises(ValueError, match="parameter\\(s\\) delta are read only"):
            ExperimentConfig.from_json(
                {"command": command, "state": state, "params": {"delta": 0.1}}
            )
        ExperimentConfig.from_json(
            {"command": command, "state": state,
             "params": {"learner": "self_correct", "gamma": 0.3, "delta": 0.1, "attempts": 7}}
        )

    @pytest.mark.parametrize(
        "state, field",
        [
            ({"kind": "basis", "n": 3, "t": 5}, "t"),
            ({"kind": "random_stabilizer", "n": 2, "terms": [{"coeff": [1.0, 0.0], "generators": ["+ZI", "+IZ"]}]}, "terms"),
            ({"kind": "tdoped", "n": 3, "t": 1, "index": 4}, "index"),
            ({"kind": "w_family", "n": 3, "m": 2, "t": 0}, "t"),
            ({"kind": "combo", "n": 1, "terms": [{"coeff": [1.0, 0.0], "generators": ["+Z"]}], "m": 1}, "m"),
            ({"kind": "haar", "n": 3, "m": 2}, "m"),
        ],
        ids=lambda v: v if isinstance(v, str) else v["kind"],
    )
    def test_state_field_the_kind_never_reads_refused(self, state, field):
        owner = {"index": "basis", "t": "tdoped", "m": "w_family", "terms": "combo"}[field]
        message = f"state {field} is read only by kind '{owner}'; kind '{state['kind']}' does not read it"
        with pytest.raises(ValueError, match=re.escape(message)):
            StateSpec.from_json(state)
        # without the field the state is fine, and its JSON (which always
        # writes index 0) reads back as the same spec
        spec = StateSpec.from_json({k: v for k, v in state.items() if k != field})
        assert spec.to_json()["index"] == 0
        assert StateSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize(
        "state, field",
        [
            ({"kind": "haar", "n": 2.7}, "state n"),
            ({"kind": "tdoped", "n": 3, "t": 1.5}, "state t"),
            ({"kind": "w_family", "n": 3, "m": 2.5}, "state m"),
            ({"kind": "basis", "n": 3, "index": 1.5}, "state index"),
            ({"kind": "haar", "n": True}, "state n"),
        ],
    )
    def test_non_integral_state_field_rejected(self, state, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            StateSpec.from_json(state)

    def test_integral_float_state_fields_become_ints(self):
        spec = StateSpec.from_json({"kind": "w_family", "n": 4.0, "m": 2.0})
        assert (spec.n, spec.m) == (4, 2) and type(spec.m) is int
        psi, meta = gen_state(spec, gen(0))
        assert meta["stab_dim"] == 3
        spec = StateSpec.from_json({"kind": "tdoped", "n": 3, "t": 1.0})
        assert type(spec.t) is int
        gen_state(spec, gen(0))

    @pytest.mark.parametrize(
        "command, params, key",
        [
            ("selfcorrect", {"attempts": 2.5}, "attempts"),
            ("decompose", {"t": 1.7}, "t"),
            ("test", {"t": 0.5}, "t"),
            ("oracle", {"stab_dims": [1, 1.5]}, "stab_dims"),
            ("bench", {"n": 6.5}, "n"),
        ],
    )
    def test_non_integral_param_rejected(self, command, params, key):
        with pytest.raises(ValueError, match=f"parameter {key} must be an integer"):
            ExperimentConfig.from_json(
                {"command": command, "state": {"kind": "haar", "n": 2}, "params": params}
            )

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("trials", 2.5, "trials must be an integer"),
            ("seed", 1.5, "seed must be an integer"),
            ("seed", -1, "seed must be >= 0"),
        ],
    )
    def test_bad_trials_or_seed_rejected(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(
                {"command": "analyze", "state": {"kind": "haar", "n": 2}, key: value}
            )

    def test_integral_float_fields_run_as_ints(self):
        cfg = {"command": "decompose", "state": {"kind": "haar", "n": 2}, "seed": 3}
        base = run(ExperimentConfig.from_json({**cfg, "params": {"t": 1}}))
        cfg.update(seed=3.0, trials=1.0, params={"t": 1.0})
        again = run(ExperimentConfig.from_json(cfg))
        assert [r.outputs for r in again] == [r.outputs for r in base]

    @pytest.mark.parametrize("command", [c for c in harness.COMMANDS if c != "bench"])
    def test_missing_state_rejected(self, command):
        with pytest.raises(ValueError, match=f"command '{command}' needs a state"):
            ExperimentConfig.from_json({"command": command})

    def test_unknown_loop_rejected(self):
        with pytest.raises(ValueError, match="parameter loop .*'robustt'"):
            ExperimentConfig.from_json({"command": "decompose", "params": {"loop": "robustt"}})

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("decompose", "learner", "bruteforc"),
            ("learn-extent", "learner", "self-correct"),
            ("analyze", "mode", "exakt"),
            ("test", "mode", "sample"),
        ],
    )
    def test_unknown_choice_rejected(self, command, key, value):
        # refused by the config itself, before any state is generated
        with pytest.raises(ValueError, match=f"parameter {key} .*'{value}'"):
            ExperimentConfig.from_json(
                {"command": command, "state": {"kind": "haar", "n": 2}, "params": {key: value}}
            )

    @pytest.mark.parametrize(
        "command, params, message",
        [
            ("oracle", {"stab_dims": [-1]}, r"stab_dims entry -1 outside \[0, n = 3\]"),
            ("oracle", {"stab_dims": [1, 4]}, r"stab_dims entry 4 outside \[0, n = 3\]"),
            ("decompose", {"t": 5}, r"parameter t must lie in \[0, n = 3\), got 5"),
            ("decompose", {"t": 3, "loop": "error_free"}, r"parameter t must lie in \[0, n = 3\)"),
            ("decompose", {"t": -1}, "parameter t must be >= 0, got -1"),
            ("test", {"t": -2}, "parameter t must be >= 0, got -2"),
            # the error-free loop stops at eps^6 whatever t is
            ("decompose", {"t": 1, "loop": "error_free"}, "parameter t = 1 needs loop 'robust'"),
        ],
    )
    def test_stab_dim_params_out_of_range_rejected(self, command, params, message):
        # refused by the config itself, before any state is generated
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(
                {"command": command, "state": {"kind": "haar", "n": 3}, "params": params}
            )

    @pytest.mark.parametrize(
        "command, params",
        [
            ("oracle", {"stab_dims": [0, 3]}),
            ("decompose", {"t": 2}),
            ("test", {"t": 7, "eps2": 1e-6}),  # the test's t has no upper bound
            ("decompose", {"t": 0, "loop": "error_free"}),
        ],
    )
    def test_stab_dim_params_at_their_bounds_accepted(self, command, params):
        ExperimentConfig.from_json(
            {"command": command, "state": {"kind": "haar", "n": 3}, "params": params}
        )

    def test_inseparable_test_refused_before_the_first_trial(self, monkeypatch):
        # with the defaults eps1 = 0.9 and eps2 = 0.05, t = 2 gives a yes
        # floor 2^-4 0.9^6 = 0.0332 below the no ceiling 0.05; t = 1 clears it
        built = []
        monkeypatch.setattr(
            harness, "gen_state", lambda spec, rng: built.append(spec) or gen_state(spec, rng)
        )
        data = {"command": "test", "state": {"kind": "haar", "n": 3}, "params": {"t": 2}}
        message = (
            r"^inseparable \(eps1, eps2, t\) configuration: eps1 = 0\.9, eps2 = 0\.05, t = 2 and "
            r"separation_c = 1\.0 give a yes floor 2\^-2t eps1\^6 = 0\.0332151 that does not "
            r"clear the no ceiling eps2\^\(1/C\) = 0\.05$"
        )
        with pytest.raises(ValueError, match=message):
            run(ExperimentConfig.from_json(data))
        assert built == []
        data["params"]["t"] = 1
        assert run(ExperimentConfig.from_json(data))[0].outputs["verdict"] in ("yes", "no")
        assert len(built) == 1
        # a t whose 2^-2t no float holds has a yes floor of 0
        data["params"]["t"] = 10**400
        with pytest.raises(ValueError, match=r"^inseparable .* yes floor 2\^-2t eps1\^6 = 0 "):
            ExperimentConfig.from_json(data)

    @pytest.mark.parametrize(
        "command, params, message",
        [
            ("oracle", {}, "command 'oracle' runs the exact oracle"),
            ("oracle", {"stab_dims": [1]}, "command 'oracle' runs the exact oracle"),
            ("decompose", {}, "learner 'bruteforce' runs the exact oracle"),
            ("decompose", {"loop": "error_free"}, "learner 'bruteforce' runs the exact oracle"),
            ("learn-extent", {"learner": "bruteforce"}, "learner 'bruteforce' runs the exact oracle"),
        ],
    )
    def test_exact_oracle_configs_refused_above_the_cap(self, command, params, message):
        # refused by the config itself, before any state is built; one qubit
        # fewer is accepted
        data = {"command": command, "state": {"kind": "haar", "n": 6}, "params": params}
        hint = "; learner 'self_correct' runs above it" if "learner" in message else ""
        with pytest.raises(ValueError, match=rf"^{message}, capped at n <= 5: n = 6{hint}$"):
            ExperimentConfig.from_json(data)
        data["state"]["n"] = 5
        ExperimentConfig.from_json(data)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format 'xml'"):
            ExperimentConfig.from_json(
                {"command": "analyze", "state": {"kind": "haar", "n": 2}, "format": "xml"}
            )

    @pytest.mark.parametrize(
        "params, key",
        [
            ({"n": 0}, "n"),
            ({"n": -1}, "n"),
        ],
    )
    def test_bench_params_out_of_range_rejected(self, params, key):
        with pytest.raises(ValueError, match=f"parameter {key} must"):
            ExperimentConfig.from_json({"command": "bench", "params": params})

    def test_bench_n_beyond_memory_refused_at_once(self):
        # the 8 * 4^40-byte table is refused before anything is allocated
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"n = 40 needs \d+ bytes"):
                ExperimentConfig.from_json({"command": "bench", "params": {"n": 40}})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestRun:
    def test_analyze_t_doped(self):
        # one T gate makes a stabilizer state or, up to a Clifford, |T>|0>,
        # whose proxy is 5/8; the seed is the first whose two states are not
        # stabilizer states
        seed = first_seed(StateSpec("tdoped", 2, t=1), 2, lambda psi: not is_stabilizer(psi))
        cfg = ExperimentConfig.from_json(
            {
                "command": "analyze",
                "state": {"kind": "tdoped", "n": 2, "t": 1},
                "trials": 2,
                "seed": seed,
            }
        )
        recs = run(cfg)
        assert len(recs) == 2
        for rec in recs:
            assert rec.outputs["proxy"] == pytest.approx(5 / 8, abs=1e-9)
            assert rec.build_id == build_id()

    def test_selfcorrect_planted(self):
        cfg = ExperimentConfig.from_json(
            {
                "command": "selfcorrect",
                "state": {
                    "kind": "combo",
                    "n": 2,
                    "terms": [
                        {"coeff": [0.95, 0.0], "generators": ["+ZI", "+IZ"]},
                        {"coeff": [0.3, 0.0], "generators": ["+XI", "+IX"]},
                    ],
                },
                "params": {"gamma": 0.5, "delta": 0.05},
                "trials": 2,
                "seed": 4,
            }
        )
        for rec in run(cfg):
            assert rec.outputs["candidate"]["fidelity"] >= rec.outputs["bruteforce_optimum"] - 0.05

    def test_selfcorrect_reads_no_ground_truth(self, monkeypatch):
        # the same candidate and ledger when gen_state records no metadata
        cfg = ExperimentConfig.from_json({
            "command": "selfcorrect",
            "state": {"kind": "combo", "n": 4, "terms": [
                {"coeff": [0.9, 0.0], "generators": ["+ZIII", "+IZII", "+IIZI", "+IIIZ"]},
                {"coeff": [0.0, 0.4], "generators": ["+XXII", "+ZZII", "+IIXX", "+IIZZ"]},
            ]},
            "trials": 2,
            "seed": 5,
        })
        with_meta = run(cfg)
        state_only = harness.gen_state
        monkeypatch.setattr(harness, "gen_state", lambda spec, rng: (state_only(spec, rng)[0], {}))
        without = run(cfg)
        assert with_meta[0].outputs["meta"]["plant_groups"] and without[0].outputs["meta"] == {}
        for a, b in zip(with_meta, without):
            assert (a.outputs["candidate"], a.ledger) == (b.outputs["candidate"], b.ledger)

    def test_selfcorrect_on_a_tdoped_state(self):
        # the candidate's fidelity recomputes from its generators and the
        # state this trial generated
        cfg = ExperimentConfig.from_json(
            {"command": "selfcorrect", "state": {"kind": "tdoped", "n": 6, "t": 1}, "seed": 3}
        )
        cand = run(cfg)[0].outputs["candidate"]
        psi, _ = gen_state(cfg.state, RngStream(3).child("state", 0).generator())
        phi = statevector_of(StabilizerState.from_json(cand["generators"]))
        assert abs(np.vdot(phi, psi.amps)) ** 2 == pytest.approx(cand["fidelity"], abs=1e-9)
        assert cand["fidelity"] >= 0.5

    def test_selfcorrect_on_a_haar_state_fails_in_collection(self):
        cfg = ExperimentConfig.from_json(
            {"command": "selfcorrect", "state": {"kind": "haar", "n": 6}, "seed": 0}
        )
        with pytest.raises(SelfCorrectionFailed, match="no candidate set reached the requested size"):
            run(cfg)

    def test_ledger_totals_consistency(self):
        cfg = ExperimentConfig.from_json(
            {
                "command": "test",
                "state": {"kind": "haar", "n": 3},
                "params": {"eps1": 0.9, "eps2": 0.1, "mode": "sampled"},
                "seed": 2,
            }
        )
        rec = run(cfg)[0]
        totals = rec.ledger["totals"]
        sums = {k: 0 for k in totals}
        for row in rec.ledger["breakdown"].values():
            for k in sums:
                sums[k] += row[k]
        assert sums == totals

    def test_reproducible_modulo_walltime(self, tmp_path):
        cfg = ExperimentConfig.from_json(
            {
                "command": "decompose",
                "state": {"kind": "tdoped", "n": 2, "t": 1},
                "params": {"eps": 0.05},
                "trials": 2,
                "seed": 12,
            }
        )

        def stripped(records):
            out = []
            for rec in records:
                d = rec.to_json()
                d.pop("wall_time_s")
                out.append(json.dumps(d, sort_keys=True, default=float))
            return out

        assert stripped(run(cfg)) == stripped(run(cfg))

    def test_bench_outputs(self):
        cfg = ExperimentConfig.from_json(
            {"command": "bench", "params": {"n": 6}}
        )
        rec = run(cfg)[0]
        assert set(rec.outputs) == {
            "char_table_s", "table_build_s", "prep_s", "prep_gates", "canonicalize_s",
            "canonicalize_gates", "find_stabilizer_s", "gates_s", "collect_s",
            "collect_edge_test_copies", "n",
        }
        keys = (
            "char_table_s", "table_build_s", "prep_s", "prep_gates", "canonicalize_s",
            "canonicalize_gates", "gates_s", "collect_s", "collect_edge_test_copies",
        )
        for key in keys:
            assert rec.outputs[key] > 0
        # the collection charges whole edge tests at the practical preset's shot count
        shots = harness._edge_shots(harness.BsgParams.practical(0.5, 0.05))
        assert rec.outputs["collect_edge_test_copies"] % (6 * shots + 2) == 0
        assert type(rec.outputs["collect_edge_test_copies"]) is int
        # k = 0 ... min(5, n - 2)
        extract = rec.outputs["find_stabilizer_s"]
        assert list(extract) == ["0", "1", "2", "3", "4"]
        assert all(t > 0 for t in extract.values())

    def test_bench_draws_from_the_config_seed(self):
        # the bench draws from each trial's stream: one seed repeats its
        # inputs, so its gate counts and charged copies, and another seed
        # draws other inputs
        keys = ("prep_gates", "canonicalize_gates", "collect_edge_test_copies")

        def bench(seed):
            cfg = ExperimentConfig.from_json({"command": "bench", "params": {"n": 6}, "seed": seed})
            return {key: run(cfg)[0].outputs[key] for key in keys}

        first = bench(0)
        assert bench(0) == first
        assert bench(1)["collect_edge_test_copies"] != first["collect_edge_test_copies"]

    @pytest.mark.parametrize(
        "n,ks", [(1, []), (2, ["0"]), (3, ["0", "1"]), (7, ["0", "1", "2", "3", "4", "5"])]
    )
    def test_bench_extraction_sizes(self, n, ks):
        rec = run(ExperimentConfig.from_json({"command": "bench", "params": {"n": n}}))[0]
        assert list(rec.outputs["find_stabilizer_s"]) == ks

    def test_oracle_command(self):
        cfg = ExperimentConfig.from_json(
            {
                "command": "oracle",
                "state": {"kind": "w_family", "n": 3, "m": 3},
                "params": {"stab_dims": [1]},
                "seed": 0,
            }
        )
        rec = run(cfg)[0]
        assert rec.outputs["stab_fidelity"] == pytest.approx(0.75, abs=1e-9)
        assert rec.outputs["stab_dim_fidelity_t1"] >= rec.outputs["stab_fidelity"] - 1e-9


    def test_oracle_refused_above_cap(self):
        data = {
            "command": "oracle",
            "state": {"kind": "haar", "n": 6},
            "params": {"stab_dims": [3]},
            "seed": 0,
        }
        with pytest.raises(ValueError, match="capped at n <= 5: n = 6$"):
            ExperimentConfig.from_json(data)

    @pytest.mark.parametrize("loop", ["robust", "error_free"])
    @pytest.mark.parametrize("seed", [112, 113])
    def test_two_plant_decompose_learns_both_plants(self, seed, loop):
        # the residual after the first plant is learned holds the second;
        # a loop that stops after one term ends at residual norm 0.2727
        cfg = ExperimentConfig.from_json(
            {
                "command": "decompose",
                "state": {
                    "kind": "combo",
                    "n": 4,
                    "terms": [
                        {"coeff": [0.95, 0.0], "generators": ["+ZIII", "+IZII", "+IIZI", "+IIIZ"]},
                        {"coeff": [0.3, 0.0], "generators": ["+XIII", "+IXII", "+IIXI", "+IIIX"]},
                    ],
                },
                "params": {"learner": "self_correct", "eps": 0.05, "loop": loop},
                "seed": seed,
            }
        )
        rec = run(cfg)[0]
        dec = rec.outputs["decomposition"]
        assert dec["iterations"] >= 2
        assert dec["residual_norm"] < 0.273
        # the residual check runs up to the oracle's cap
        assert dec["residual_norm"] ** 2 * rec.outputs["residual_stab_dim_fidelity"] <= 0.05

    @pytest.mark.parametrize("kind", ["basis", "random_stabilizer", "tdoped"])
    def test_one_qubit_self_correct_learner_fails_cleanly(self, kind):
        # a 1-qubit stabilizer state ends the way other learner failures do;
        # a T gate leaves a stabilizer state when it meets a Z eigenstate,
        # and the seed is the first that gives one
        state = {"kind": kind, "n": 1, **({"t": 1} if kind == "tdoped" else {})}
        seed = first_seed(StateSpec(kind, 1, t=state.get("t")), 1, is_stabilizer)
        cfg = {"command": "decompose", "state": state, "seed": seed}
        cfg["params"] = {"learner": "self_correct", "attempts": 4}
        dec = run(ExperimentConfig.from_json(cfg))[0].outputs["decomposition"]
        assert (dec["stop_reason"], dec["iterations"]) == ("learner_failed", 0)
        cfg.update(command="learn-extent", params={"learner": "self_correct"})
        res = run(ExperimentConfig.from_json(cfg))[0].outputs["result"]
        assert (res["stop_reason"], res["iterations"]) == ("learner_failed", 0)
        # the selfcorrect command refuses n = 1 with the config
        cfg.update(command="selfcorrect", params={"attempts": 4})
        with pytest.raises(ValueError, match="command 'selfcorrect' needs n >= 2, got n = 1"):
            ExperimentConfig.from_json(cfg)

    def test_haar_self_correct_learner_stops_in_collection(self):
        # no attempt collects a set of n + 3 labels on a Haar state, so the
        # learner fails after charging its collections
        cfg = {"command": "decompose", "state": {"kind": "haar", "n": 6}, "seed": 3,
               "params": {"learner": "self_correct"}}
        rec = run(ExperimentConfig.from_json(cfg))[0]
        dec = rec.outputs["decomposition"]
        assert (dec["stop_reason"], dec["iterations"]) == ("learner_failed", 0)
        assert {"edge_test", "retention"} <= set(rec.ledger["breakdown"])
        assert not {"measure", "fidelity_shadows"} & set(rec.ledger["breakdown"])


    def test_learn_extent_that_learns_nothing_writes_records(self, tmp_path):
        # the loop stops learner_failed with no term, so the structured part
        # is zero: each trial is still a record
        out = tmp_path / "out.jsonl"
        cfg = {"command": "learn-extent", "state": {"kind": "haar", "n": 6}, "seed": 0,
               "trials": 2, "out": str(out),
               "params": {"learner": "self_correct"}}
        run(ExperimentConfig.from_json(cfg))
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(recs) == 2
        for rec in recs:
            res = rec["outputs"]["result"]
            assert (res["overlap_sq"], res["stop_reason"]) == (0.0, "learner_failed")
            assert res["recipe"] == {}
            rows = rec["ledger"]["breakdown"].values()
            assert rec["ledger"]["totals"] == {
                f: sum(row[f] for row in rows) for f in rec["ledger"]["totals"]
            }


class TestEmit:
    def test_jsonl_round_trip(self, tmp_path):
        cfg = ExperimentConfig.from_json(
            {"command": "analyze", "state": {"kind": "haar", "n": 2}, "seed": 1}
        )
        recs = run(cfg)
        path = tmp_path / "out.jsonl"
        emit_results(recs, "jsonl", str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed["schema_version"] == 1
        assert parsed["outputs"]["proxy"] == pytest.approx(recs[0].outputs["proxy"])

    def test_empty_files(self, tmp_path):
        emit_results([], "jsonl", str(tmp_path / "e.jsonl"))
        assert (tmp_path / "e.jsonl").read_text() == ""
        emit_results([], "csv", str(tmp_path / "e.csv"))
        assert (tmp_path / "e.csv").read_text().strip() == ""

    def test_csv_scalars_only(self, tmp_path):
        cfg = ExperimentConfig.from_json(
            {"command": "analyze", "state": {"kind": "haar", "n": 2}, "seed": 1}
        )
        recs = run(cfg)
        path = tmp_path / "out.csv"
        emit_results(recs, "csv", str(path))
        header = path.read_text().splitlines()[0]
        assert "outputs.proxy" in header
        assert "schema_version" in header


class TestCli:
    def test_end_to_end(self, tmp_path):
        from stabcorrect.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "command": "analyze",
                    "state": {"kind": "w_family", "n": 3, "m": 2},
                    "seed": 5,
                }
            )
        )
        out_path = tmp_path / "res.jsonl"
        code = main(["analyze", "--config", str(cfg_path), "--out", str(out_path)])
        assert code == 0
        assert out_path.exists()
        rec = json.loads(out_path.read_text().splitlines()[0])
        assert rec["command"] == "analyze"

    @pytest.mark.parametrize(
        "content,kind", [("[1, 2]", "array"), ('"x"', "string"), ("null", "null"), ("3", "number")]
    )
    def test_non_object_config_rejected(self, tmp_path, content, kind):
        from stabcorrect.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(content)
        message = f"config file {re.escape(str(cfg_path))} must hold a JSON object, got a JSON {kind}$"
        with pytest.raises(ValueError, match=message):
            main(["analyze", "--config", str(cfg_path)])

    def test_out_in_a_missing_directory_rejected(self, tmp_path):
        from stabcorrect.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"command": "analyze", "state": {"kind": "haar", "n": 2}}))
        out = str(tmp_path / "missing" / "res.jsonl")
        with pytest.raises(ValueError, match="lies in a directory that does not exist"):
            main(["analyze", "--config", str(cfg_path), "--out", out])

    def test_bench_without_config(self, tmp_path, capsys):
        # bench needs no config file: n = 10 by default, and the trial count
        # and format come from the flags; each trial draws its own inputs
        from stabcorrect.cli import main

        out_path = tmp_path / "bench.csv"
        assert main(["bench", "--trials", "2", "--format", "csv", "--out", str(out_path)]) == 0
        printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [rec["n"] for rec in printed] == [10, 10]
        assert printed[0]["collect_edge_test_copies"] != printed[1]["collect_edge_test_copies"]
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["trial"], row["config.format"], row["config.trials"]) for row in rows] == [
            ("0", "csv", "2"), ("1", "csv", "2")
        ]
        assert [float(row["outputs.canonicalize_gates"]) for row in rows] == [
            rec["canonicalize_gates"] for rec in printed
        ]

    def test_seed_override_changes_results(self, tmp_path):
        from stabcorrect.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {"command": "analyze", "state": {"kind": "haar", "n": 2}, "seed": 1}
            )
        )
        outs = []
        for seed in (1, 2):
            out_path = tmp_path / f"r{seed}.jsonl"
            main([
                "analyze", "--config", str(cfg_path),
                "--seed", str(seed), "--out", str(out_path),
            ])
            outs.append(json.loads(out_path.read_text())["outputs"]["proxy"])
        assert outs[0] != outs[1]

    def test_same_records_under_python_O(self, tmp_path):
        # invariant checks raise explicitly, so ``python -O`` strips none of
        # them and a seeded run writes the same records
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "command": "decompose",
                    "state": {"kind": "tdoped", "n": 4, "t": 1},
                    "params": {"learner": "self_correct", "t": 1},
                    "trials": 2,
                    "seed": 7,
                }
            )
        )
        src = Path(harness.__file__).resolve().parent.parent
        runs = []
        for flags in ([], ["-O"]):
            out_path = tmp_path / f"res{len(runs)}.jsonl"
            subprocess.run(
                [sys.executable, *flags, "-m", "stabcorrect", "decompose",
                 "--config", str(cfg_path), "--out", str(out_path)],
                check=True, capture_output=True, timeout=300,
                env={**os.environ, "PYTHONPATH": str(src)},
            )
            records = [json.loads(line) for line in out_path.read_text().splitlines()]
            for rec in records:
                rec.pop("wall_time_s")
            runs.append([json.dumps(rec, sort_keys=True) for rec in records])
        assert len(runs[0]) == 2
        assert runs[0] == runs[1]

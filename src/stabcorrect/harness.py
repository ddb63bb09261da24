"""Experiment harness: state generators with ground-truth metadata, seeded
batch execution, and JSONL/CSV persistence.

Identical configs produce byte-identical JSONL output modulo the wall-time
field, on the same BLAS build and thread count; trials split the master seed
hierarchically, so they may run in any order or in parallel.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import kernels
from .errors import CollectionEmpty
from .gf2 import PauliLabel, rref_basis
from .ledger import CostLedger
from .pauli import (
    ORACLE_MAX_QUBITS,
    CliffordCircuit,
    PhasedPauli,
    StabilizerState,
    canonicalize_subgroup,
    conjugate,
    signed_generators,
    stab_state_prep,
)
from .rng import RngStream
from .selfcorrect import (
    ATTEMPTS,
    BsgParams,
    SubgroupV,
    _collect_t,
    _edge_shots,
    _tolerant_margin,
    collect_small_doubling,
    find_stabilizer,
    sampled_tolerant_test,
    self_correct,
    tolerant_test,
    tolerant_thresholds,
)
from .statevec import (
    GOWERS_FAIL_PROB,
    _label_cdf,
    _proxy_shots,
    StateVector,
    bruteforce_stab_dim_fidelity,
    bruteforce_stab_fidelity,
    gowers3_metrics,
    random_state,
    require_memory,
    sampled_gowers3_metrics,
    stab_combination,
    statevector_of_stab,
    table_build_bytes,
)
from .iterate import (
    _extent_eps,
    _stop_rule,
    base_learner_bruteforce,
    base_learner_self_correct,
    iterate_error_free,
    iterate_robust,
    learn_low_extent,
)

SCHEMA_VERSION = 1

STATE_KINDS = ("basis", "random_stabilizer", "tdoped", "w_family", "combo", "haar")
LOOPS = ("robust", "error_free")
FORMATS = ("jsonl", "csv")
LEARNERS = ("bruteforce", "self_correct")
MODES = ("exact", "sampled")

# each command's params and their defaults; any other key is rejected, and a
# given value is coerced to its default's type
_SELF_CORRECT = {"gamma": 0.5, "delta": 0.05, "attempts": ATTEMPTS}
_LEARNER = {"learner": "bruteforce", **_SELF_CORRECT}
PARAMS = {
    "analyze": {"mode": "exact", "delta": 0.05},
    "test": {"eps1": 0.9, "eps2": 0.05, "t": 0, "delta": 0.01, "mode": "exact", "separation_c": 1.0},
    "selfcorrect": _SELF_CORRECT,
    "decompose": {"t": 0, "loop": "robust", "eps": 0.05, **_LEARNER},
    "learn-extent": {"xi": 1.0, "eps_prime": 0.2, **_LEARNER},
    "oracle": {"stab_dims": ()},
    "bench": {"n": 10},
}
COMMANDS = tuple(PARAMS)
# params that chose the covering subgroup before the pipeline covered the
# collected set by its own span: accepted with any value by the commands that
# take the self-correction params, echoed in the record's config, read by
# nothing
RETIRED_PARAMS = ("oracle", "theta")
# above this n the 2^n amplitudes alone (16 << n bytes) pass 2^64 bytes, more
# than a 64-bit machine addresses; checked before any shift or power of n
_MAX_N = 60


def _coerce(name: str, default, value):
    """``value`` as ``default``'s type, or ValueError naming the field.  A
    tuple field takes a JSON array; a float field only a finite real number;
    an int field, or each entry of a tuple one, only an integral value."""
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a JSON array, got {value!r}")
        return tuple(_coerce(name, 0, v) for v in value)
    real = isinstance(value, (int, np.integer, float, np.floating)) and not isinstance(value, bool)
    if isinstance(default, float):
        if real and abs(value) <= sys.float_info.max:  # NaN, inf and huge ints fail
            return float(value)
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    if not isinstance(default, int):
        return type(default)(value)
    if real and value % 1 == 0:
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _refuse_unknown(data: dict, allowed, what: str) -> None:
    """ValueError naming the keys of ``data`` outside ``allowed``, and those allowed."""
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown {what}: {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _combo_term(term: dict) -> tuple:
    """A combo term ``{"coeff": [re, im], "generators": [str, ...]}`` as
    (re, im, generators), or ValueError naming the field."""
    if not isinstance(term, dict):
        raise ValueError(f"combo term must be a JSON object, got {term!r}")
    _refuse_unknown(term, ("coeff", "generators"), "combo term key(s)")
    coeff, gens = term.get("coeff"), term.get("generators")
    if not isinstance(coeff, (list, tuple)) or len(coeff) != 2:
        raise ValueError(f"combo coeff must be a 2-entry array, got {coeff!r}")
    if not isinstance(gens, (list, tuple)) or not all(isinstance(g, str) for g in gens):
        raise ValueError(f"combo generators must be an array of strings, got {gens!r}")
    re, im = (_coerce("combo coeff", 0.0, c) for c in coeff)
    return re, im, tuple(gens)


def _extent_bound(t: int) -> float:
    """(1 + 2^-1/2)^t, the stabilizer-extent bound of t T gates; ValueError
    naming t when it has no finite value, for t above 1,327."""
    try:
        return (1.0 + 2.0**-0.5) ** t
    except OverflowError:
        raise ValueError(
            f"state t = {t} gives no finite extent bound (1 + 2^-1/2)^t for a tdoped state"
        ) from None


@dataclass(frozen=True)
class StateSpec:
    kind: str
    n: int
    t: int | None = None
    m: int | None = None
    index: int = 0
    terms: tuple | None = None  # combo: ((coeff_re, coeff_im, [gen strings]), ...)

    def __post_init__(self):
        if self.kind not in STATE_KINDS:
            raise ValueError(f"unknown state kind {self.kind!r}")
        for name in ("n", "t", "m", "index"):
            if (value := getattr(self, name)) is not None or name in ("n", "index"):
                object.__setattr__(self, name, _coerce(f"state {name}", 0, value))
        if not 1 <= self.n <= _MAX_N:
            raise ValueError(f"state n must lie in [1, {_MAX_N}], got {self.n}")
        # each optional field is read by one kind only (index 0 is the default)
        for name, owner in (("index", "basis"), ("t", "tdoped"), ("m", "w_family"), ("terms", "combo")):
            value = getattr(self, name)
            if self.kind != owner and (value if name == "index" else value is not None):
                raise ValueError(
                    f"state {name} is read only by kind {owner!r}; kind {self.kind!r} does not read it"
                )
        require_memory(self.n, 16 << self.n)  # the 2^n complex amplitudes
        if self.kind == "basis" and not 0 <= self.index < 1 << self.n:
            raise ValueError(f"basis index {self.index} outside [0, 2^{self.n}) for n = {self.n}")
        if self.kind == "tdoped":
            if self.t is None or self.t < 0:
                raise ValueError("tdoped needs t >= 0")
            _extent_bound(self.t)  # before gen_state builds (t + 1)(2n^2 + 4) gates
        if self.kind == "w_family" and (self.m is None or not 1 <= self.m <= self.n):
            raise ValueError("w_family needs 1 <= m <= n")
        if self.kind == "combo" and not self.terms:
            raise ValueError("combo needs a nonzero coefficient list")
        for i, (_, _, gens) in enumerate(self.terms or ()):
            try:  # each term must be an n-qubit stabilizer state
                StabilizerState(self.n, tuple(map(PhasedPauli.from_string, gens)))
            except ValueError as exc:
                raise ValueError(f"combo term {i} generators {list(gens)!r}: {exc}") from None

    @staticmethod
    def from_json(data: dict) -> "StateSpec":
        if not isinstance(data, dict):
            raise ValueError(f"state must be a JSON object, got {data!r}")
        _refuse_unknown(data, {f.name for f in fields(StateSpec)}, "state key(s)")
        for key in ("kind", "n"):
            if key not in data:
                raise ValueError(f"state needs the key {key!r}")
        terms = data.get("terms")
        if terms is not None and not isinstance(terms, (list, tuple)):
            raise ValueError(f"state terms must be a JSON array, got {terms!r}")
        terms = tuple(map(_combo_term, terms)) if terms else None
        return StateSpec(
            data["kind"], data["n"], data.get("t"), data.get("m"), data.get("index", 0), terms
        )

    def to_json(self) -> dict:
        out = {"kind": self.kind, "n": self.n, "index": self.index}
        if self.t is not None:
            out["t"] = self.t
        if self.m is not None:
            out["m"] = self.m
        if self.terms is not None:
            out["terms"] = [
                {"coeff": [re, im], "generators": list(gens)}
                for re, im, gens in self.terms
            ]
        return out


def _random_clifford_gates(n: int, rng: np.random.Generator, length: int):
    """``length`` gates, each uniform over H, S, X, Z and (for n > 1) CNOT,
    on a uniform qubit, or a uniform ordered pair c != t for a CNOT; drawn as
    three arrays: kinds, qubits (the CNOT controls) and CNOT targets."""
    kinds = rng.integers(0, 4 if n == 1 else 5, size=length).tolist()
    qs = rng.integers(n, size=length).tolist()
    ts = rng.integers(max(n - 1, 1), size=length).tolist()
    return [
        ("CNOT", (q, t + (t >= q))) if kind == 4 else (("H", "S", "X", "Z")[kind], (q,))
        for kind, q, t in zip(kinds, qs, ts)
    ]


def _random_stabilizer(n: int, rng: np.random.Generator) -> tuple[PhasedPauli, ...]:
    """The group that a circuit of 4n^2 + 8 random Clifford gates conjugates
    +Z_0, ..., +Z_{n-1} to: the stabilizer group of its output on |0...0>."""
    circuit = CliffordCircuit(n, tuple(_random_clifford_gates(n, rng, 4 * n * n + 8)))
    zs = [PauliLabel(n, 0, 1 << q).to_vector() for q in range(n)]
    return conjugate(circuit, signed_generators(n, zs, 0))


def gen_state(spec: StateSpec, rng: np.random.Generator) -> tuple[StateVector, dict]:
    """Build the state plus ground-truth metadata (known stabilizer group,
    extent bound, plant components, as applicable).  The metadata goes into
    the record for checking; no pipeline stage reads it."""
    n = spec.n
    zs = [PauliLabel(n, 0, 1 << q).to_vector() for q in range(n)]
    if spec.kind == "basis":
        gens = signed_generators(n, zs, spec.index)
        meta = {
            "stab_fidelity": 1.0,
            "stabilizer_group": [g.to_string() for g in gens],
        }
        return statevector_of_stab(StabilizerState(n, gens)), meta
    if spec.kind == "random_stabilizer":
        group = _random_stabilizer(n, rng)
        meta = {
            "stab_fidelity": 1.0,
            "stabilizer_group": [g.to_string() for g in group],
        }
        return statevector_of_stab(StabilizerState(n, group)), meta
    if spec.kind == "tdoped":
        # t + 1 random Clifford segments with a T gate between each two,
        # drawn in that order
        gates = _random_clifford_gates(n, rng, 2 * n * n + 4)
        for _ in range(spec.t):
            gates.append(("T", (int(rng.integers(n)),)))
            gates += _random_clifford_gates(n, rng, 2 * n * n + 4)
        amps = kernels.apply_gates(kernels.zero_state(n), gates)
        meta = {
            "t_gates": spec.t,
            "extent_bound": _extent_bound(spec.t),
            "stab_dim_lower": max(n - spec.t, 0),  # each T gate costs at most one
        }
        return StateVector(n, amps), meta
    if spec.kind == "w_family":
        m = spec.m
        amps = np.zeros(1 << n, dtype=complex)
        shift = n - m
        for i in range(m):
            amps[(1 << i) << shift] = 1.0 / np.sqrt(m)
        # Z on each of the first n - m qubits, and -Z...Z on the rest for odd m
        zall = PauliLabel(n, 0, ((1 << m) - 1) << shift).to_vector()
        group = signed_generators(n, zs[:shift] + [zall], (m % 2) << shift)
        meta = {
            "extent": float(np.sqrt(m)),
            "stab_dim": n - m + 1,
            "stabilizer_group": [g.to_string() for g in group],
        }
        return StateVector(n, amps), meta
    if spec.kind == "combo":
        coeffs = [complex(re, im) for re, im, _ in spec.terms]
        plants = [StabilizerState.from_json(list(gens)) for _, _, gens in spec.terms]
        amps = stab_combination(n, zip(coeffs, plants))
        coeff_mass = sum(abs(c) for c in coeffs)
        norm = float(np.linalg.norm(amps))
        if norm < 1e-12:
            raise ValueError("combo coefficients produce the zero vector")
        psi = StateVector(n, amps / norm)
        meta = {
            "normalization": norm,
            "extent_bound": coeff_mass / norm,
            "plant_fidelities": [
                float(abs(np.vdot(statevector_of_stab(st).amps, psi.amps)) ** 2)
                for st in plants
            ],
            "plant_groups": [st.to_json() for st in plants],
        }
        return psi, meta
    return random_state(n, rng), {}  # haar


# ---------------------------------------------------------------------------
# configuration and records


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    state: StateSpec | None
    params: dict = field(default_factory=dict)
    trials: int = 1
    seed: int = 0
    out: str | None = None
    format: str = "jsonl"

    def __post_init__(self):
        if self.command not in PARAMS:
            raise ValueError(f"unknown command {self.command!r}")
        for name in ("trials", "seed"):
            object.__setattr__(self, name, _coerce(name, 0, getattr(self, name)))
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}; allowed: {', '.join(FORMATS)}")
        if self.out is not None and not (isinstance(self.out, str) and self.out):
            raise ValueError(f"out must be null or a non-empty path string, got {self.out!r}")
        if self.out is not None and not Path(self.out).parent.is_dir():
            raise ValueError(f"out {self.out!r} lies in a directory that does not exist")
        retired = [k for k in RETIRED_PARAMS if k in self.params and "gamma" in PARAMS[self.command]]
        if retired:
            warnings.warn(
                f"parameter(s) {', '.join(map(repr, retired))} are retired and ignored: "
                "self-correction covers the collected set by its own span",
                DeprecationWarning, stacklevel=3,
            )
        _refuse_unknown(
            self.params, [*PARAMS[self.command], *retired],
            f"parameter(s) for command {self.command!r}",
        )
        p = self.resolved_params()
        for key in ("gamma", "delta", "eps", "eps1", "eps2", "eps_prime"):
            if key in p and not 0 < p[key] < 1:
                raise ValueError(f"parameter {key} must lie in (0, 1)")
        if "attempts" in p and p["attempts"] < 1:
            raise ValueError("parameter attempts must be >= 1")
        if "xi" in p and not p["xi"] >= 1:
            raise ValueError(f"parameter xi must be >= 1, got {p['xi']}")
        if "separation_c" in p and not p["separation_c"] > 0:
            raise ValueError(f"parameter separation_c must be > 0, got {p['separation_c']}")
        if "t" in p and p["t"] < 0:
            raise ValueError(f"parameter t must be >= 0, got {p['t']}")
        if self.command == "test":
            thresholds = tolerant_thresholds(p["eps1"], p["eps2"], p["t"], p["separation_c"])
            if p["mode"] == "sampled":
                try:
                    _proxy_shots(_tolerant_margin(*thresholds), p["delta"])
                except ValueError as exc:
                    raise ValueError(
                        f"parameters eps1 = {p['eps1']}, eps2 = {p['eps2']}, t = {p['t']} and "
                        f"separation_c = {p['separation_c']} leave the sampled test's margin "
                        f"with no finite shot count: {exc}"
                    ) from None
        choice_params = {"loop": LOOPS, "learner": LEARNERS, "mode": MODES}
        for key, choices in choice_params.items():
            if key in p and p[key] not in choices:
                raise ValueError(f"parameter {key} must be one of {', '.join(choices)}, got {p[key]!r}")
        if p.get("learner") == "bruteforce" and (unread := [k for k in _SELF_CORRECT if k in self.params]):
            raise ValueError(
                f"parameter(s) {', '.join(unread)} are read only by learner 'self_correct'; "
                "learner 'bruteforce' does not read them"
            )
        if p.get("mode") == "exact" and "delta" in self.params:
            raise ValueError("parameter delta is read only by mode 'sampled'; mode 'exact' does not read it")
        if self.command == "bench":
            if not 1 <= p["n"] <= _MAX_N:
                raise ValueError(f"parameter n must lie in [1, {_MAX_N}], got {p['n']}")
            require_memory(p["n"], table_build_bytes(p["n"]))
        elif self.state is None:
            raise ValueError(f"command {self.command!r} needs a state")
        else:
            # stabilizer-dimension bounds need the state's n
            n = self.state.n
            if self.command == "decompose" and p["t"] >= n:
                raise ValueError(f"parameter t must lie in [0, n = {n}), got {p['t']}")
            if self.command == "decompose" and p["loop"] == "error_free" and p["t"] > 0:
                raise ValueError(
                    f"parameter t = {p['t']} needs loop 'robust': the error_free loop has no "
                    "stabilizer-dimension threshold"
                )
            if n > ORACLE_MAX_QUBITS and self.command == "oracle":
                raise ValueError(
                    f"command 'oracle' runs the exact oracle, capped at n <= {ORACLE_MAX_QUBITS}: "
                    f"n = {n}"
                )
            if n > ORACLE_MAX_QUBITS and p.get("learner") == "bruteforce":
                raise ValueError(
                    f"learner 'bruteforce' runs the exact oracle, capped at n <= {ORACLE_MAX_QUBITS}: "
                    f"n = {n}; learner 'self_correct' runs above it"
                )
            for t in p.get("stab_dims", ()):
                if not 0 <= t <= n:
                    raise ValueError(f"parameter stab_dims entry {t} outside [0, n = {n}]")
            self_corrects = self.command == "selfcorrect" or p.get("learner") == "self_correct"
            # sample and copy counts the run will compute, each finite
            if self_corrects:
                try:
                    _edge_shots(BsgParams.practical(p["gamma"], p["delta"]))
                except ValueError as exc:
                    raise ValueError(
                        f"parameter gamma = {p['gamma']} with delta = {p['delta']} gives no "
                        f"finite edge-test shot count: {exc}"
                    ) from None
            if self.command == "analyze" and p["mode"] == "sampled":
                _proxy_shots(p["delta"], GOWERS_FAIL_PROB)
            if self.command == "decompose":
                _stop_rule(p["eps"], p["t"], p["loop"] == "robust")
            if self.command == "learn-extent":
                _extent_eps(p["xi"], p["eps_prime"])

    def resolved_params(self) -> dict:
        """The command's params with every default filled in."""
        defaults = PARAMS[self.command]
        return {k: _coerce(f"parameter {k}", d, self.params.get(k, d)) for k, d in defaults.items()}

    @staticmethod
    def from_json(data: dict) -> "ExperimentConfig":
        _refuse_unknown(data, {f.name for f in fields(ExperimentConfig)}, "config key(s)")
        if "command" not in data:
            raise ValueError(f"config needs the key 'command'; allowed: {', '.join(COMMANDS)}")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"params must be a JSON object, got {params!r}")
        state = StateSpec.from_json(data["state"]) if data.get("state") else None
        return ExperimentConfig(
            data["command"], state, dict(params),
            data.get("trials", 1), data.get("seed", 0),
            data.get("out"), data.get("format", "jsonl"),
        )

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "state": self.state.to_json() if self.state else None,
            "params": self.params,
            "trials": self.trials,
            "seed": self.seed,
            "format": self.format,
        }


@dataclass
class ResultRecord:
    schema_version: int
    command: str
    config: dict
    trial: int
    outputs: dict
    ledger: dict
    wall_time_s: float
    build_id: str

    def to_json(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "config": self.config,
            "trial": self.trial,
            "outputs": self.outputs,
            "ledger": self.ledger,
            "wall_time_s": self.wall_time_s,
            "build_id": self.build_id,
        }


_BUILD_ID: str | None = None


def build_id() -> str:
    global _BUILD_ID
    if _BUILD_ID is None:
        digest = hashlib.sha1()
        root = Path(__file__).parent
        for path in sorted(root.glob("*.py")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        _BUILD_ID = digest.hexdigest()[:12]
    return _BUILD_ID


# ---------------------------------------------------------------------------
# command implementations


def _learner_from_params(p: dict):
    if p["learner"] == "bruteforce":
        return base_learner_bruteforce()
    return base_learner_self_correct(p["gamma"], p["delta"], attempts=p["attempts"])


def _run_trial(config: ExperimentConfig, trial: int) -> tuple[dict, CostLedger]:
    p = config.resolved_params()
    rng = RngStream(config.seed).child("trial", trial).generator()
    ledger = CostLedger()
    if config.command == "bench":
        return _bench(p["n"]), ledger
    state_rng = RngStream(config.seed).child("state", trial).generator()
    psi, meta = gen_state(config.state, state_rng)
    out: dict = {"meta": meta}
    if config.command in ("analyze", "oracle") and psi.n <= ORACLE_MAX_QUBITS:
        fid, arg = bruteforce_stab_fidelity(psi)
        out.update(stab_fidelity=fid, argmax=arg.to_json())
    if config.command == "analyze":
        if p["mode"] == "sampled":
            metrics = sampled_gowers3_metrics(psi, p["delta"], rng, ledger)
        else:
            metrics = gowers3_metrics(psi)
        out.update(proxy=metrics.proxy, u3pow8=metrics.u3pow8, mode=metrics.mode)
    elif config.command == "test":
        args = psi, p["eps1"], p["eps2"], p["t"]
        if p["mode"] == "sampled":
            verdict = sampled_tolerant_test(*args, p["delta"], rng, ledger, p["separation_c"])
        else:
            verdict = tolerant_test(*args, separation_c=p["separation_c"])
        out.update(verdict=verdict)
    elif config.command == "selfcorrect":
        cand = self_correct(psi, p["gamma"], p["delta"], rng, ledger, attempts=p["attempts"])
        out.update(candidate=cand.to_json())
        # not up to ORACLE_MAX_QUBITS: at n = 5 the exact optimum (about 0.2 s)
        # costs twice the pipeline run it is compared with
        if psi.n <= 4:
            out.update(bruteforce_optimum=bruteforce_stab_fidelity(psi)[0])
    elif config.command == "decompose":
        learner = _learner_from_params(p)
        if p["loop"] == "error_free":
            dec = iterate_error_free(psi, p["eps"], learner, ledger, rng)
        else:
            dec = iterate_robust(psi, p["eps"], learner, ledger, rng, t=p["t"])
        out.update(decomposition=dec.to_json())
        if psi.n <= ORACLE_MAX_QUBITS and dec.residual is not None:
            out.update(
                residual_stab_dim_fidelity=bruteforce_stab_dim_fidelity(dec.residual, p["t"])
            )
    elif config.command == "learn-extent":
        learner = _learner_from_params(p)
        res = learn_low_extent(psi, p["xi"], p["eps_prime"], learner, ledger, rng)
        out.update(result=res.to_json())
    elif config.command == "oracle":
        for t in p["stab_dims"]:
            out[f"stab_dim_fidelity_t{t}"] = bruteforce_stab_dim_fidelity(psi, t)
    else:  # pragma: no cover
        raise ValueError(f"unhandled command {config.command}")
    return out, ledger


BENCH_STATES = 20
BENCH_REPEATS = 7
BENCH_SUBGROUPS = 5


def _bench(n: int) -> dict:
    rng = np.random.default_rng(0)
    out = {}
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    t0 = time.perf_counter()
    kernels.unsigned_expectations(amps, n)
    out["char_table_s"] = time.perf_counter() - t0
    # the build the pipeline runs: <W_x>^2, the proxy and the cumulative law
    psi = StateVector(n, amps)
    t0 = time.perf_counter()
    _label_cdf(psi)
    out["table_build_s"] = time.perf_counter() - t0
    # the Clifford layer on the groups of BENCH_STATES states gen_state's
    # random_stabilizer draws, each layer timed over all of them in one loop,
    # BENCH_REPEATS times on fresh states (a state caches its preparation):
    # the median per-state preparation (synthesis and dense gates) and
    # canonicalization times, and the median preparation length
    groups = [_random_stabilizer(n, rng) for _ in range(BENCH_STATES)]
    labels = [[g.label for g in group] for group in groups]
    prep, canon = [], []
    for _ in range(BENCH_REPEATS):
        states = [StabilizerState(n, group) for group in groups]
        t0 = time.perf_counter()
        circuits = [stab_state_prep(state) for state in states]
        prep.append((time.perf_counter() - t0) / BENCH_STATES)
        t0 = time.perf_counter()
        for group_labels in labels:
            canonicalize_subgroup(group_labels)
        canon.append((time.perf_counter() - t0) / BENCH_STATES)
    out["prep_s"] = float(np.median(prep))
    out["prep_gates"] = float(np.median([len(circuit) for circuit in circuits]))
    out["canonicalize_s"] = float(np.median(canon))
    # extraction as k grows from 0: per k, the median find_stabilizer time on
    # Haar states and fresh subgroups of k symplectic pairs and a
    # 2-dimensional center in a random Clifford frame; the median passes over
    # the first call, which builds the k-qubit candidate matrix
    extract = {}
    for k in range(min(5, n - 2) + 1):
        canon_labels = [PauliLabel(n, 1 << q, 0) for q in range(k)]
        canon_labels += [PauliLabel(n, 0, 1 << q) for q in range(k + 2)]
        times = []
        for _ in range(BENCH_SUBGROUPS):
            frame = CliffordCircuit(n, tuple(_random_clifford_gates(n, rng, 4 * n * n + 8)))
            rows = conjugate(frame, [PhasedPauli(lab, 0) for lab in canon_labels])
            sub = SubgroupV(n, rref_basis([p.label.to_vector() for p in rows], 2 * n), None)
            psi = random_state(n, rng)
            t0 = time.perf_counter()
            find_stabilizer(
                psi, sub, _SELF_CORRECT["gamma"], _SELF_CORRECT["delta"], rng, CostLedger()
            )
            times.append(time.perf_counter() - t0)
        extract[str(k)] = float(np.median(times))
    out["find_stabilizer_s"] = extract
    # dense gate application: the median apply_gates time of a fresh list of
    # 2n^2 + 4 random Clifford gates (a tdoped segment) on a random state
    gate_times = []
    for _ in range(BENCH_STATES):
        gates = _random_clifford_gates(n, rng, 2 * n * n + 4)
        amps = random_state(n, rng).amps
        t0 = time.perf_counter()
        kernels.apply_gates(amps, gates)
        gate_times.append(time.perf_counter() - t0)
    out["gates_s"] = float(np.median(gate_times))
    # one collection at self_correct's t on a seeded planted mixture,
    # sqrt(0.6) random stabilizer state + sqrt(0.4) Haar: its time, with the
    # tables built first, and the edge_test copies it charges, whether or
    # not it reaches t
    plant, _ = gen_state(StateSpec("random_stabilizer", n), rng)
    amps = np.sqrt(0.6) * plant.amps + np.sqrt(0.4) * random_state(n, rng).amps
    psi = StateVector(n, amps / np.linalg.norm(amps))
    _label_cdf(psi)  # the tables, timed above
    ledger = CostLedger()
    t0 = time.perf_counter()
    try:
        collect_small_doubling(
            psi, _collect_t(n), _SELF_CORRECT["gamma"], _SELF_CORRECT["delta"], rng, ledger
        )
    except CollectionEmpty:
        pass
    out["collect_s"] = time.perf_counter() - t0
    out["collect_edge_test_copies"] = ledger.breakdown["edge_test"]["copies_consumed"]
    out["n"] = n
    return out


def run(config: ExperimentConfig) -> list[ResultRecord]:
    """Execute all trials; when an output path is configured, the records
    are written once, after the last trial."""
    records = []
    for trial in range(config.trials):
        t0 = time.perf_counter()
        outputs, ledger = _run_trial(config, trial)
        rec = ResultRecord(
            SCHEMA_VERSION,
            config.command,
            config.to_json(),
            trial,
            outputs,
            ledger.to_json(),
            time.perf_counter() - t0,
            build_id(),
        )
        records.append(rec)
    if config.out:
        emit_results(records, config.format, config.out)
    return records


# ---------------------------------------------------------------------------
# persistence


def _flatten(prefix: str, obj, into: dict) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, into)
    elif isinstance(obj, (int, float, str, bool)) or obj is None:
        into[prefix] = obj


def emit_results(records: list[ResultRecord], fmt: str, path: str) -> None:
    """JSONL is lossless; CSV keeps scalar fields only."""
    path = Path(path)
    if fmt == "jsonl":
        lines = [
            json.dumps(rec.to_json(), sort_keys=True, default=float)
            for rec in records
        ]
        path.write_text("".join(line + "\n" for line in lines))
        return
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}; allowed: {', '.join(FORMATS)}")
    rows = []
    for rec in records:
        flat: dict = {}
        _flatten("", rec.to_json(), flat)
        rows.append(flat)
    cols = sorted({k for row in rows for k in row})
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(json.dumps(row.get(col, ""), default=float) for col in cols) + "\n")

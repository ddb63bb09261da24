"""Experiment harness: state generators with ground-truth metadata, seeded
batch execution, and JSONL/CSV persistence.

Identical configs produce byte-identical JSONL output modulo the wall-time
field; trials split the master seed hierarchically, so they may run in any
order or in parallel.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .gf2 import PauliLabel, rref_basis_from_labels
from .ledger import CostLedger
from .pauli import (
    ORACLE_MAX_QUBITS,
    CliffordCircuit,
    PhasedPauli,
    StabilizerState,
    apply_gates_dense,
    conjugate,
)
from .rng import RngStream
from .selfcorrect import (
    planted_oracle,
    self_correct,
    threshold_span_oracle,
    tolerant_test,
)
from .statevec import (
    StateVector,
    bruteforce_stab_dim_fidelity,
    bruteforce_stab_fidelity,
    gowers3_metrics,
    random_state,
    require_memory,
    statevector_of_stab,
)
from .iterate import (
    base_learner_bruteforce,
    base_learner_self_correct,
    decompose_stab_dim,
    iterate_error_free,
    learn_low_extent,
)

SCHEMA_VERSION = 1

STATE_KINDS = ("basis", "random_stabilizer", "tdoped", "w_family", "combo", "haar")
COMMANDS = ("analyze", "test", "selfcorrect", "decompose", "learn-extent", "oracle", "bench")

# the params keys each command reads; any other key is rejected
_ORACLE_KEYS = ("oracle", "theta")
_LEARNER_KEYS = ("learner", "gamma", "delta", "attempts", *_ORACLE_KEYS)
PARAM_KEYS = {
    "analyze": frozenset({"mode", "delta"}),
    "test": frozenset({"eps1", "eps2", "t", "delta", "mode", "separation_c"}),
    "selfcorrect": frozenset({"gamma", "delta", "attempts", *_ORACLE_KEYS}),
    "decompose": frozenset({"t", "loop", "eps", *_LEARNER_KEYS}),
    "learn-extent": frozenset({"xi", "eps_prime", *_LEARNER_KEYS}),
    "oracle": frozenset({"stab_dims"}),
    "bench": frozenset({"n", "n_naive"}),
}


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
        if self.n < 1:
            raise ValueError("n must be >= 1")
        require_memory(self.n, 16 << self.n)  # the 2^n complex amplitudes
        if self.kind == "basis" and not 0 <= self.index < 1 << self.n:
            raise ValueError(f"basis index {self.index} outside [0, 2^{self.n}) for n = {self.n}")
        if self.kind == "tdoped" and (self.t is None or self.t < 0):
            raise ValueError("tdoped needs t >= 0")
        if self.kind == "w_family" and (self.m is None or not 1 <= self.m <= self.n):
            raise ValueError("w_family needs 1 <= m <= n")
        if self.kind == "combo" and not self.terms:
            raise ValueError("combo needs a nonzero coefficient list")

    @staticmethod
    def from_json(data: dict) -> "StateSpec":
        terms = None
        if data.get("terms"):
            terms = tuple(
                (float(t["coeff"][0]), float(t["coeff"][1]), tuple(t["generators"]))
                for t in data["terms"]
            )
        return StateSpec(
            data["kind"], int(data["n"]), data.get("t"), data.get("m"),
            int(data.get("index", 0)), terms,
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
    gates = []
    while len(gates) < length:
        kind = int(rng.integers(0, 4 if n == 1 else 5))
        if kind == 4:
            c = int(rng.integers(n))
            t = int(rng.integers(n - 1))
            t = t if t < c else t + 1
            gates.append(("CNOT", (c, t)))
        else:
            gates.append((("H", "S", "X", "Z")[kind], (int(rng.integers(n)),)))
    return gates


def _apply_t_gate(amps: np.ndarray, q: int) -> np.ndarray:
    idx = np.arange(amps.shape[0])
    out = amps.copy()
    hot = (idx >> q) & 1 == 1
    out[idx[hot]] *= np.exp(1j * np.pi / 4)
    return out


def gen_state(spec: StateSpec, rng: np.random.Generator) -> tuple[StateVector, dict]:
    """Build the state plus ground-truth metadata (known stabilizer group,
    extent bound, plant components, as applicable)."""
    n = spec.n
    if spec.kind == "basis":
        amps = np.zeros(1 << n, dtype=complex)
        amps[spec.index] = 1.0
        gens = [
            PhasedPauli(PauliLabel(n, 0, 1 << q), 2 * ((spec.index >> q) & 1))
            for q in range(n)
        ]
        meta = {
            "stab_fidelity": 1.0,
            "stabilizer_group": [g.to_string() for g in gens],
        }
        return StateVector(n, amps), meta
    if spec.kind == "random_stabilizer":
        gates = _random_clifford_gates(n, rng, 4 * n * n + 8)
        circuit = CliffordCircuit(n, tuple(gates))
        amps = np.zeros(1 << n, dtype=complex)
        amps[0] = 1.0
        amps = apply_gates_dense(amps, n, circuit.gates)
        zs = [PhasedPauli(PauliLabel(n, 0, 1 << q), 0) for q in range(n)]
        meta = {
            "stab_fidelity": 1.0,
            "stabilizer_group": [conjugate(circuit, z).to_string() for z in zs],
        }
        return StateVector(n, amps), meta
    if spec.kind == "tdoped":
        amps = np.zeros(1 << n, dtype=complex)
        amps[0] = 1.0
        segments = spec.t + 1
        for seg in range(segments):
            gates = _random_clifford_gates(n, rng, 2 * n * n + 4)
            amps = apply_gates_dense(amps, n, gates)
            if seg < spec.t:
                amps = _apply_t_gate(amps, int(rng.integers(n)))
        meta = {
            "t_gates": spec.t,
            "extent_bound": (1.0 + 2.0 ** -0.5) ** spec.t,
            "stab_dim_lower": max(n - spec.t, 0),  # each T gate costs at most one
        }
        return StateVector(n, amps), meta
    if spec.kind == "w_family":
        m = spec.m
        amps = np.zeros(1 << n, dtype=complex)
        shift = n - m
        for i in range(m):
            amps[(1 << i) << shift] = 1.0 / np.sqrt(m)
        group = [PhasedPauli(PauliLabel(n, 0, 1 << q), 0) for q in range(shift)]
        zall = sum(1 << (shift + i) for i in range(m))
        group.append(PhasedPauli(PauliLabel(n, 0, zall), 0 if m % 2 == 0 else 2))
        meta = {
            "extent": float(np.sqrt(m)),
            "stab_dim": n - m + 1,
            "stabilizer_group": [g.to_string() for g in group],
        }
        return StateVector(n, amps), meta
    if spec.kind == "combo":
        amps = np.zeros(1 << n, dtype=complex)
        plants = []
        coeff_mass = 0.0
        for re, im, gens in spec.terms:
            st = StabilizerState.from_json(list(gens))
            if st.n != n:
                raise ValueError("combo term qubit count mismatch")
            amps += complex(re, im) * statevector_of_stab(st).amps
            plants.append(st)
            coeff_mass += abs(complex(re, im))
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
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")
        for key in ("gamma", "delta", "eps", "eps1", "eps2", "eps_prime"):
            val = self.params.get(key)
            if val is not None and not 0 < float(val) < 1:
                raise ValueError(f"parameter {key} must lie in (0, 1)")
        attempts = self.params.get("attempts")
        if attempts is not None and int(attempts) < 1:
            raise ValueError("parameter attempts must be >= 1")
        theta = self.params.get("theta")
        if theta is not None and not 0 < float(theta) <= 1:
            raise ValueError("parameter theta must lie in (0, 1]")
        unknown = sorted(set(self.params) - PARAM_KEYS[self.command])
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {', '.join(map(repr, unknown))} for command "
                f"{self.command!r}; allowed: {', '.join(sorted(PARAM_KEYS[self.command]))}"
            )

    @staticmethod
    def from_json(data: dict) -> "ExperimentConfig":
        state = StateSpec.from_json(data["state"]) if data.get("state") else None
        return ExperimentConfig(
            data["command"], state, dict(data.get("params", {})),
            int(data.get("trials", 1)), int(data.get("seed", 0)),
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


def _learner_from_params(params: dict, meta: dict):
    name = params.get("learner", "bruteforce")
    if name == "bruteforce":
        return base_learner_bruteforce()
    if name == "self_correct":
        oracle = _oracle_from_params(params, meta)
        return base_learner_self_correct(
            float(params.get("gamma", 0.5)),
            float(params.get("delta", 0.05)),
            oracle,
            attempts=int(params.get("attempts", 32)),
        )
    raise ValueError(f"unknown learner {name!r}")


def _oracle_from_params(params: dict, meta: dict):
    mode = params.get("oracle", "planted")
    if mode == "planted":
        # every plant's group; the pipeline picks one per residual
        groups = [meta["stabilizer_group"]] if "stabilizer_group" in meta else meta.get("plant_groups")
        if not groups:
            raise ValueError("planted oracle needs ground-truth group metadata")
        return planted_oracle(*(
            rref_basis_from_labels([PhasedPauli.from_string(s).label for s in group])
            for group in groups
        ))
    if mode == "threshold-span":
        return threshold_span_oracle(float(params.get("theta", 0.25)))
    raise ValueError(f"unknown oracle mode {mode!r}")


def _run_trial(config: ExperimentConfig, trial: int) -> dict:
    params = config.params
    rng = RngStream(config.seed).child("trial", trial).generator()
    ledger = CostLedger()
    if config.command == "bench":
        return _bench(params), ledger
    state_rng = RngStream(config.seed).child("state", trial).generator()
    psi, meta = gen_state(config.state, state_rng)
    out: dict = {"meta": meta}
    if config.command in ("analyze", "oracle") and psi.n <= 4:
        fid, arg = bruteforce_stab_fidelity(psi)
        out.update(stab_fidelity=fid, argmax=arg.to_json())
    if config.command == "analyze":
        metrics = gowers3_metrics(psi, params.get("mode", "exact"),
                                  float(params.get("delta", 0.05)), rng, ledger)
        out.update(
            proxy=metrics.proxy, u3pow8=metrics.u3pow8, mode=metrics.mode
        )
    elif config.command == "test":
        verdict = tolerant_test(
            psi, float(params.get("eps1", 0.9)), float(params.get("eps2", 0.05)),
            int(params.get("t", 0)), float(params.get("delta", 0.01)),
            rng, ledger, mode=params.get("mode", "exact"),
            separation_c=float(params.get("separation_c", 1.0)),
        )
        out.update(verdict=verdict)
    elif config.command == "selfcorrect":
        oracle = _oracle_from_params(params, meta)
        cand = self_correct(
            psi, float(params.get("gamma", 0.5)), float(params.get("delta", 0.05)),
            oracle, rng, ledger, attempts=int(params.get("attempts", 32)),
        )
        out.update(candidate=cand.to_json())
        if psi.n <= 4:
            out.update(bruteforce_optimum=bruteforce_stab_fidelity(psi)[0])
    elif config.command == "decompose":
        learner = _learner_from_params(params, meta)
        t = int(params.get("t", 0))
        mode = params.get("loop", "robust")
        if mode == "error_free":
            dec = iterate_error_free(psi, float(params.get("eps", 0.05)), learner, ledger, rng)
        else:
            dec = decompose_stab_dim(psi, float(params.get("eps", 0.05)), t, learner, ledger, rng)
        out.update(decomposition=dec.to_json())
        if psi.n <= ORACLE_MAX_QUBITS and dec.residual is not None:
            out.update(
                residual_stab_dim_fidelity=bruteforce_stab_dim_fidelity(dec.residual, t)
            )
    elif config.command == "learn-extent":
        learner = _learner_from_params(params, meta)
        res = learn_low_extent(
            psi, float(params.get("xi", 1.0)), float(params.get("eps_prime", 0.2)),
            learner, ledger, rng,
        )
        out.update(result=res.to_json())
    elif config.command == "oracle":
        for t in params.get("stab_dims", []):
            out[f"stab_dim_fidelity_t{t}"] = bruteforce_stab_dim_fidelity(psi, int(t))
    else:  # pragma: no cover
        raise ValueError(f"unhandled command {config.command}")
    return out, ledger


def _bench(params: dict) -> dict:
    n_fast = int(params.get("n", 10))
    n_naive = min(int(params.get("n_naive", 8)), n_fast)
    rng = np.random.default_rng(0)
    out = {}
    amps = rng.normal(size=1 << n_fast) + 1j * rng.normal(size=1 << n_fast)
    amps /= np.linalg.norm(amps)
    t0 = time.perf_counter()
    kernels.char_expectations(amps, n_fast)
    out["char_table_s"] = time.perf_counter() - t0
    p = np.abs(rng.normal(size=4 ** n_naive))
    p /= p.sum()
    t0 = time.perf_counter()
    kernels.xor_convolve(p)
    out["fast_convolve_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    kernels.xor_convolve_naive(p, p)
    out["naive_convolve_s"] = time.perf_counter() - t0
    out["convolve_speedup"] = out["naive_convolve_s"] / max(out["fast_convolve_s"], 1e-9)
    out["n"] = n_fast
    out["n_naive"] = n_naive
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
            ledger.to_json() if isinstance(ledger, CostLedger) else {},
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
        raise ValueError(f"unknown format {fmt!r}")
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

"""The three workloads: seeded inputs, one timed program call per trial, and
the checks of every output against ``oracle``.

Each workload builds its inputs in rounds.  A round is one instance per grid
point, drawn from ``numpy.random.default_rng([seed, workload, round])``, so
the same seed gives the same inputs, and every run attempts whole rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle
from oracle import require
from stabcorrect import gf2, harness, pauli, selfcorrect, statevec
from stabcorrect.ledger import CostLedger
from stabcorrect.rng import RngStream

GAMMA = 0.5
DELTA = 0.05
EPS = 0.05
PLANT_WEIGHT = 0.8
STOP_REASONS = ("gowers_below", "alpha_below", "tomography_complete", "budget")


@dataclass
class Trial:
    label: str
    run: Callable[[], object]            # the timed program call
    check: Callable[[object], dict]      # -> fidelity, copies, gates, breakdown


@dataclass(frozen=True)
class Workload:
    name: str
    index: int
    grid: tuple
    smoke_grid: tuple
    make: Callable[[np.random.Generator, tuple], Trial]
    lazy: Callable[[], object] = lambda: None

    def round(self, seed: int, r: int, smoke: bool = False) -> list[Trial]:
        rng = np.random.default_rng([seed, self.index, r])
        return [self.make(rng, point) for point in (self.smoke_grid if smoke else self.grid)]

    def warm_up(self) -> None:
        """First-call lazy set-up: one checked trial at the smallest size."""
        self.lazy()
        for trial in self.round(0, 0, smoke=True)[:1]:
            trial.check(trial.run())


def _trial_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _random_group(n: int, rng: np.random.Generator, gens) -> list[tuple[int, int, int]]:
    return oracle.random_clifford_image(gens, n, rng, 4 * n * n + 8)


def _random_stabilizer_strings(n: int, rng: np.random.Generator) -> list[str]:
    signs = rng.integers(2, size=n)
    gens = [(1 - 2 * int(signs[q]), 0, 1 << q) for q in range(n)]
    return [oracle.format_pauli(s, x, z, n) for s, x, z in _random_group(n, rng, gens)]


def _ledger_summary(ledger: dict) -> dict:
    oracle.check_ledger(ledger)
    totals = ledger["totals"]
    return {
        "copies": totals["copies_consumed"],
        "gates": totals["gate_count"],
        "breakdown": {
            f"{k}.{field}": v[field]
            for k, v in ledger["breakdown"].items()
            for field in ("copies_consumed", "queries_conU")
        },
    }


# ---------------------------------------------------------------------------
# selfcorrect-planted: the CLI path with the planted oracle


def _planted(rng: np.random.Generator, n: int) -> Trial:
    phases = rng.uniform(0.0, 2.0 * np.pi, size=2)
    coeffs = [0.9 + 0j, 0.35 * np.exp(1j * phases[0]), 0.3 * np.exp(1j * phases[1])]
    groups = [_random_stabilizer_strings(n, rng) for _ in coeffs]
    config = harness.ExperimentConfig.from_json({
        "command": "selfcorrect",
        "state": {
            "kind": "combo", "n": n,
            "terms": [
                {"coeff": [c.real, c.imag], "generators": g} for c, g in zip(coeffs, groups)
            ],
        },
        "params": {"gamma": GAMMA, "delta": DELTA, "oracle": "planted"},
        "trials": 1,
        "seed": _trial_seed(rng),
    })

    def run():
        return harness.run(config)[0]

    def check(record) -> dict:
        vecs = [oracle.stabilizer_vector(g) for g in groups]
        psi = sum(c * v for c, v in zip(coeffs, vecs))
        psi = psi / np.linalg.norm(psi)
        plant_fids = [oracle.fidelity(v, psi) for v in vecs]
        reported = record.outputs["meta"]["plant_fidelities"]
        require(
            np.allclose(plant_fids, reported, rtol=0.0, atol=oracle.TOL),
            f"plant fidelities {reported} != recomputed {plant_fids}",
        )
        cand = record.outputs["candidate"]
        fid = oracle.fidelity(oracle.stabilizer_vector(cand["generators"]), psi)
        require(abs(fid - cand["fidelity"]) <= oracle.TOL,
                f"candidate fidelity {cand['fidelity']} != recomputed {fid}")
        require(fid >= plant_fids[0] - 0.05,
                f"candidate fidelity {fid:.4f} < plant fidelity {plant_fids[0]:.4f} - 0.05")
        return {"fidelity": fid, **_ledger_summary(record.ledger)}

    return Trial(f"n={n}", run, check)


SELFCORRECT_PLANTED = Workload(
    "selfcorrect-planted", 1, (8, 9, 10), (5, 6), _planted,
)


# ---------------------------------------------------------------------------
# extract-k: find_stabilizer on subgroups with k symplectic pairs


def _extract(rng: np.random.Generator, point: tuple[int, int]) -> Trial:
    n, k = point
    m = min(2, n - k)
    canon = [(1, 1 << i, 0) for i in range(k)] + [(1, 0, 1 << i) for i in range(k + m)]
    sub_vectors = [oracle.label_vector(x, z, n) for _, x, z in _random_group(n, rng, canon)]
    sub = selfcorrect.SubgroupV(n, gf2.rref_basis(sub_vectors, 2 * n), None)

    # the plant is one member of the candidate family that find_stabilizer
    # searches: a MUB state on the k paired qubits times a basis state on the
    # rest, in the frame of the Clifford that canonicalizes the subgroup's basis
    tableau, k_found, m_found = pauli.canonicalize_subgroup(sub.basis.labels(n))
    require((k_found, m_found) == (k, m),
            f"canonicalize_subgroup found (k, m) = ({k_found}, {m_found}), built ({k}, {m})")
    groups = gf2.mub_covering(k).groups
    mub = groups[int(rng.integers(len(groups)))]
    signs = int(rng.integers(1 << k))
    tail = int(rng.integers(1 << (n - k)))
    rotated = [
        pauli.PhasedPauli(gf2.PauliLabel(n, lab.x, lab.z), 2 * ((signs >> i) & 1))
        for i, lab in enumerate(mub.labels(k))
    ] + [
        pauli.PhasedPauli(gf2.PauliLabel(n, 0, 1 << (k + j)), 2 * ((tail >> j) & 1))
        for j in range(n - k)
    ]
    inverse = tableau.inverse()
    plant = [pauli.conjugate(inverse, g).to_string() for g in rotated]
    plant_vec = oracle.stabilizer_vector(plant)
    junk = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    junk -= np.vdot(plant_vec, junk) * plant_vec
    junk /= np.linalg.norm(junk)
    psi = np.sqrt(PLANT_WEIGHT) * plant_vec + np.sqrt(1.0 - PLANT_WEIGHT) * junk
    seed = _trial_seed(rng)

    def run():
        ledger = CostLedger()
        cand = selfcorrect.find_stabilizer(
            statevec.StateVector(n, psi.copy()), sub, GAMMA, DELTA,
            np.random.default_rng(seed), ledger,
        )
        return cand, ledger

    def check(out) -> dict:
        cand, ledger = out
        gens = cand.state.to_json()
        fid = oracle.fidelity(oracle.stabilizer_vector(gens), psi)
        require(abs(fid - cand.fidelity) <= oracle.TOL,
                f"candidate fidelity {cand.fidelity} != recomputed {fid}")
        require(fid >= PLANT_WEIGHT - 0.05,
                f"candidate fidelity {fid:.4f} < plant weight {PLANT_WEIGHT} - 0.05")
        cand_vectors = [oracle.label_vector(x, z, n) for _, x, z, _ in map(oracle.parse_pauli, gens)]
        meet = oracle.intersection_dim(cand_vectors, sub_vectors)
        require(meet == k + m, f"candidate group meets the subgroup in dim {meet}, want {k + m}")
        prov = cand.provenance
        require((prov["k"], prov["m"]) == (k, m), f"provenance (k, m) = ({prov['k']}, {prov['m']})")
        return {"fidelity": fid, **_ledger_summary(ledger.to_json())}

    return Trial(f"n={n},k={k}", run, check)


_KS = (2, 3, 4, 5)

EXTRACT_K = Workload(
    "extract-k", 2,
    tuple((n, k) for n in (8, 10) for k in _KS), ((4, 1), (5, 2)),
    _extract,
    lambda: [gf2.mub_covering(k) for k in _KS],
)


# ---------------------------------------------------------------------------
# decompose-tdoped: the robust loop with the self_correct learner


def _decompose(rng: np.random.Generator, point: tuple[int, int]) -> Trial:
    n, t = point
    seed = _trial_seed(rng)
    config = harness.ExperimentConfig.from_json({
        "command": "decompose",
        "state": {"kind": "tdoped", "n": n, "t": t},
        "params": {
            "learner": "self_correct", "oracle": "threshold-span",
            "eps": EPS, "loop": "robust",
        },
        "trials": 1,
        "seed": seed,
    })

    def run():
        return harness.run(config)[0]

    def check(record) -> dict:
        # the state the harness generated for trial 0 of this config
        state, _ = harness.gen_state(config.state, RngStream(seed).child("state", 0).generator())
        psi = state.amps
        dec = record.outputs["decomposition"]
        structured = np.zeros(1 << n, dtype=complex)
        for term in dec["terms"]:
            beta = complex(*term["beta"])
            require(abs(beta) <= 1.0 + 1e-6, f"|beta| = {abs(beta)} > 1")
            structured += beta * oracle.stabilizer_vector(term["generators"])
        resid = float(np.linalg.norm(psi - structured))
        require(abs(resid - dec["residual_norm"]) <= oracle.TOL,
                f"residual norm {dec['residual_norm']} != recomputed {resid}")
        require(dec["iterations"] == len(dec["terms"]), "iteration count != term count")
        eta = min(EPS, 1.0)  # the self_correct learner's promise at eps
        require(dec["iterations"] * eta**2 <= 9.0 + 1e-9,
                f"{dec['iterations']} iterations exceed the 9/eta^2 budget")
        require(dec["stop_reason"] in STOP_REASONS, f"stop reason {dec['stop_reason']!r}")
        norm = float(np.linalg.norm(structured))
        fid = oracle.fidelity(structured / norm, psi) if norm > 0 else 0.0
        oracle.check_ledger(dec["ledger"])
        return {"fidelity": fid, **_ledger_summary(record.ledger)}

    return Trial(f"n={n},t={t}", run, check)


DECOMPOSE_TDOPED = Workload(
    "decompose-tdoped", 3,
    tuple((n, t) for n in (6, 7, 8, 9) for t in (1, 2)), ((3, 1), (4, 1)),
    _decompose,
)

WORKLOADS = {w.name: w for w in (SELFCORRECT_PLANTED, EXTRACT_K, DECOMPOSE_TDOPED)}

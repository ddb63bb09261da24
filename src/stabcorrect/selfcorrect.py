"""The self-correction pipeline: retained-label sampling, edge and
common-neighbor membership tests, small-doubling collection, covering-subgroup
construction, stabilizer extraction (proper and improper), and the tolerant
tester for high stabilizer dimension.

Every membership test of one collection reads one pool of retained samples.
The pool is drawn independently of the vertex pairs, so each test keeps the
law of a test with its own samples, and "every test answers correctly" is a
union bound over the tests, which needs no independence between them.  The
walk over the vertices is lazy: it runs an edge test only when a membership
decision reads it, the joint edges of the neighbor stage in blocks, and
charges the tests it runs (``_membership_rows``).  A skipped test cannot
change any decision, so the accepted sets keep the law of the walk that
runs every test; only the draw order differs.

The collected set A is covered by the span of A + A (``pfr_subgroup``),
where the paper covers it with the algorithmic polynomial Freiman-Ruzsa
theorem; nothing else enters, and no ground truth is read.

The published threshold constants for the common-neighbor test are
astronomically small (gamma^350-scale; the README lists them), so
``BsgParams.practical`` provides desk-scale presets that planted instances
validate end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .errors import (
    BlockWeightBelowTolerance,
    CollectionEmpty,
    NoCandidateFound,
    PfrSubgroupNotFound,
    SelfCorrectionFailed,
)
from .gf2 import MUB_MAX_QUBITS, Gf2Basis, PauliLabel, mub_covering, rref_basis
from .ledger import CostLedger
from .pauli import (
    CliffordCircuit,
    StabilizerState,
    _canonical_phase_factor,
    canonicalize_subgroup,
    conjugate,
    signed_generators,
    stab_state_prep,
)
from .statevec import (
    StateVector,
    apply_circuit,
    binomial_estimate,
    exact_proxy,
    expectation_squares,
    sample_retained,
    sampled_proxy,
)


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class BsgParams:
    zeta1: float
    zeta2: float
    zeta3: float
    rho1: float
    rho2: float
    r: int
    s: int
    delta: float

    def __post_init__(self):
        if not (0 < self.zeta2 <= self.zeta1 <= 1 and 0 < self.zeta3 <= 1):
            raise ValueError("edge thresholds out of range")
        if not (0 < self.rho1 < 1 and 0 < self.rho2 < 1):
            raise ValueError("neighbor thresholds out of range")
        if self.r < 1 or self.s < 1:
            raise ValueError("sample counts must be positive")

    @staticmethod
    def practical(gamma: float, delta: float = 0.05) -> "BsgParams":
        """Desk-scale preset: thresholds at (0.6, 0.4, 0.5) * gamma/4,
        common-neighbor cutoffs at 0.1, and 64 outer/inner samples."""
        base = gamma / 4.0
        return BsgParams(0.6 * base, 0.4 * base, 0.5 * base, 0.1, 0.1, 64, 64, delta)

    @property
    def zeta_slack(self) -> float:
        return self.zeta2 / 2.0


# attempt budget of one self_correct call: the default here, in
# iterate.base_learner_self_correct and in the harness's params table
ATTEMPTS = 32


# ---------------------------------------------------------------------------
# sampling and membership tests


def _band_half_width(shots: int) -> float:
    """h = sqrt(2 ln(2^64) / shots): a ``shots``-shot estimate of a w with
    |w - zeta| > h crosses zeta with probability < 2^-64 (Hoeffding, which
    bounds the normal limit too)."""
    return np.sqrt(2.0 * np.log(2.0**64) / shots)


def _shot_test(w: np.ndarray, zeta: float, shots: int, rng: np.random.Generator) -> np.ndarray:
    """``binomial_estimate(w, shots, rng) >= zeta``, drawn only for the
    entries within ``_band_half_width(shots)`` of zeta.  Further out the
    outcome is w > zeta, wrong with probability < 2^-64, and nothing is
    drawn."""
    passed = w > zeta
    band = np.abs(w - zeta) <= _band_half_width(shots)
    if band.any():
        passed[band] = binomial_estimate(w[band], shots, rng) >= zeta
    return passed


def _edge_shots(params: BsgParams) -> int:
    """Shots N = ceil(2 ln(6/delta') / zeta'^2) of each edge estimate: zeta'
    is the slack zeta2/2 and delta' = delta / (5 (1 + r + 2 r s)) one edge
    test's failure budget.  ValueError when N has no finite value."""
    delta_p = params.delta / (5.0 * (1 + params.r + 2 * params.r * params.s))
    slack2 = params.zeta_slack**2
    shots = 2.0 * float(np.log(6.0 / delta_p)) / slack2 if delta_p > 0 and slack2 > 0 else math.inf
    if shots == math.inf:
        raise ValueError(
            f"2 ln(6/delta') / zeta'^2 is not finite at zeta' = {params.zeta_slack:.3g} "
            f"and delta' = {delta_p:.3g}"
        )
    return math.ceil(shots)


def _edge_batch(
    psi: StateVector,
    xs: np.ndarray,
    ys: np.ndarray,
    zeta: float,
    shots: int,
    rng: np.random.Generator,
    ledger: CostLedger,
) -> np.ndarray:
    """Edge flags of the pairs (xs[i], ys[i]): <W_x>^2, <W_y>^2 and
    <W_{x^y}>^2 all reach zeta.  Each is a ``shots``-shot estimate, simulated
    only within h of zeta and otherwise decided with error below 2^-64
    (``_shot_test``), and a last draw passes with probability <W_{x^y}>^2.
    Each pair is charged all 6 shots + 2 copies it consumes."""
    w = expectation_squares(psi)[np.stack((xs, ys, xs ^ ys))]
    m = xs.shape[0]
    # the rows' in-band entries draw in order: x, then y, then x^y
    flag = _shot_test(w, zeta, shots, rng).all(axis=0) & (rng.random(m) < w[2])
    ledger.charge("edge_test", copies=(6 * shots + 2) * m)
    return flag


# Edge tests per draw call of ``_neighbor_bad``, at most: a round draws its
# open (v, i) in chunks of this many over kmax + 1, so that its temporaries
# (three label rows and their <W>^2) stay below 128 KiB each.
NEIGHBOR_CHUNK_ENTRIES = 1 << 12


def _neighbor_bad(
    psi: StateVector, vs: np.ndarray, need: np.ndarray, w: np.ndarray, zk: np.ndarray,
    params: BsgParams, shots: int, rng: np.random.Generator, ledger: CostLedger,
) -> np.ndarray:
    """Which outer samples count against each neighbor label of ``vs``, one
    row of r flags per neighbor, decided where ``need`` holds and False
    elsewhere.  z_i counts against v when at most kmax = max{k : k/s <=
    rho1} of its inner samples w[i] are joint neighbors of v and z_i: both
    the zeta3-edge (z_i, w[i, j]), already tested as ``zk[i, j]``, and the
    zeta3-edge (v, w[i, j]) hold.

    (v, w[i, j]) is tested, with the law and the charge of an
    ``_edge_batch`` pair, only where zk[i, j] holds, in j order, and in
    blocks while the count is open: testing stops once the count exceeds
    kmax or once the edges left cannot lift it past kmax.  Each round tests,
    for every open (v, i), neighbor by neighbor and i by i, its next kmax + 1
    such edges, or those left; the tests of a block after the count closes
    are run and charged too.  A round draws its tests in chunks of
    ``NEIGHBOR_CHUNK_ENTRIES // (kmax + 1)`` open (v, i), one edge batch
    each."""
    s = params.s
    kmax = max(k for k in range(s + 1) if k / s <= params.rho1)
    vi, rows = np.nonzero(need)
    xs = vs[vi]
    # row i of w with the labels whose zk[i, j] holds first, in j order;
    # pos is each (v, i)'s next label there
    cand = np.take_along_axis(w, np.argsort(~zk, axis=1, kind="stable"), axis=1).ravel()
    pos, left = rows * s, zk.sum(axis=1)[rows]
    count = np.zeros(rows.shape[0], dtype=np.intp)
    step = max(1, NEIGHBOR_CHUNK_ENTRIES // (kmax + 1))
    while True:
        live = (count <= kmax) & (count + left > kmax)
        if not live.any():
            break
        take = np.where(live, np.minimum(kmax + 1, left), 0)
        live = np.flatnonzero(live)
        for c in range(0, live.shape[0], step):
            p = live[c : c + step]
            tk = take[p]
            starts = np.cumsum(tk) - tk
            at = np.repeat(pos[p] - starts, tk) + np.arange(starts[-1] + tk[-1])
            joint = _edge_batch(psi, np.repeat(xs[p], tk), cand[at], params.zeta3, shots, rng, ledger)
            count[p] += np.add.reduceat(joint, starts, dtype=np.intp)
        pos += take
        left -= take
    bad = np.zeros(need.shape, dtype=bool)
    bad[vi, rows] = count <= kmax
    return bad


def _membership_rows(
    psi: StateVector, verts: np.ndarray, t: int, params: BsgParams,
    rng: np.random.Generator, ledger: CostLedger,
):
    """For each vertex u of ``verts``, in order, with at least t zeta1-edge
    neighbors among them: u's index and the indices of the v whose
    membership test (u, v) accepts.

    One pool of r outer samples z and r*s inner samples w (row i of
    w.reshape(r, s) belongs to z[i]) serves every test.  A z counts against
    v when at most a rho1 share of its inner samples are joint zeta3-edge
    neighbors of v and z; (u, v) is accepted when it is a zeta1-edge and at
    most a rho2 share of the z are zeta2-edge neighbors of u counting
    against v.

    The walk runs an edge test only when a decision reads it, the neighbor
    stage's in blocks.  u's zeta1-edges are tested when the walk reaches u,
    and its r zeta2-edges only when u has t neighbors.  Only the z_i that are
    u's zeta2-neighbors enter u's decisions: their s zeta3-edges with their
    inner samples are tested the first time some u reads them, and whether
    z_i counts against a neighbor the first time some u reads that
    (``_neighbor_bad``).  Each test draws fresh randomness and is charged
    when it runs, and a skipped test cannot change any decision, so the
    accepted sets keep the law of the walk that runs every test; only the
    draw order differs."""
    r, s, k, shots = params.r, params.s, verts.shape[0], _edge_shots(params)

    def edges(xs, ys, zeta):
        return _edge_batch(psi, xs, ys, zeta, shots, rng, ledger)

    z = sample_retained(psi, r, rng, ledger)
    w = sample_retained(psi, r * s, rng, ledger).reshape(r, s)
    # tested zeta3-edges (z_i, w[i, j]), and the rows i tested
    zk, zk_read = np.zeros((r, s), dtype=bool), np.zeros(r, dtype=bool)
    # _neighbor_bad's flags per vertex, and the (v, i) decided
    bad, bad_read = np.zeros((k, r), dtype=bool), np.zeros((k, r), dtype=bool)
    for u in range(k):
        others = np.flatnonzero(np.arange(k) != u)
        nbrs = others[edges(np.repeat(verts[u], k - 1), verts[others], params.zeta1)]
        if nbrs.shape[0] < t:
            continue
        xk = edges(np.repeat(verts[u], r), z, params.zeta2)
        new = np.flatnonzero(xk & ~zk_read)
        if new.shape[0]:
            zk[new] = edges(np.repeat(z[new], s), w[new].ravel(), params.zeta3).reshape(-1, s)
            zk_read[new] = True
        need = xk & ~bad_read[nbrs]
        fresh = need.any(axis=1)
        if fresh.any():
            vs, need = nbrs[fresh], need[fresh]
            bad[vs] |= _neighbor_bad(psi, verts[vs], need, w, zk, params, shots, rng, ledger)
            bad_read[vs] |= need
        yield u, nbrs[(xk & bad[nbrs]).mean(axis=1) <= params.rho2]


def _collect_t(n: int) -> int:
    """``self_correct``'s collection size at n qubits: n + 3 labels, at most
    the 2^n - 1 labels of a stabilizer group other than the identity."""
    return min(n + 3, (1 << n) - 1)


def collect_small_doubling(
    psi: StateVector,
    t: int,
    gamma: float,
    delta: float,
    rng: np.random.Generator,
    ledger: CostLedger,
) -> list[PauliLabel]:
    """The first candidate set of test-accepted labels of size >= t.

    Samples vertices and walks them through ``_membership_rows`` at
    ``BsgParams.practical(gamma, delta)``; the first u whose accepted set
    reaches t ends the search.  No such u raises so callers can retry with
    fresh randomness.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    params = BsgParams.practical(gamma, delta)
    verts = np.unique(sample_retained(psi, min(6 * t + 24, 256), rng, ledger))
    for _, accepted in _membership_rows(psi, verts, t, params, rng, ledger):
        if accepted.shape[0] >= t:
            return [PauliLabel.from_vector(psi.n, int(v)) for v in verts[accepted]]
    raise CollectionEmpty("no candidate set reached the requested size")


# ---------------------------------------------------------------------------
# covering subgroup


@dataclass(frozen=True)
class SubgroupV:
    """A label subgroup.  Nothing reads ``mass``; every caller passes None."""

    n: int
    basis: Gf2Basis
    mass: float | None


def pfr_subgroup(samples: list[PauliLabel]) -> SubgroupV:
    """The cover of the accepted set A: the span of its pairwise sums A + A,
    which is the span of every sample's difference from the first.

    Fewer than n + 1 distinct sums (one sample gives only 0) raises the
    failure sentinel.
    """
    if not samples:
        raise ValueError("need at least one sample")
    n = samples[0].n
    vecs = [s.to_vector() for s in samples]
    sums = {a ^ b for i, a in enumerate(vecs) for b in vecs[i:]}
    if len(sums) < n + 1:
        raise PfrSubgroupNotFound(f"{len(sums)} accepted sums < floor {n + 1}")
    return SubgroupV(n, rref_basis([v ^ vecs[0] for v in vecs[1:]], 2 * n), None)


# ---------------------------------------------------------------------------
# stabilizer extraction


@dataclass(frozen=True)
class CandidateStabilizer:
    state: StabilizerState
    fidelity: float
    provenance: dict

    def __post_init__(self):
        if not -1e-9 <= self.fidelity <= 1 + 1e-9:
            raise ValueError("fidelity outside [0, 1]")

    def to_json(self) -> dict:
        return {
            "generators": self.state.to_json(),
            "fidelity": self.fidelity,
            "provenance": self.provenance,
        }


@lru_cache(maxsize=None)
def _mub_candidates(k: int) -> tuple[tuple[tuple[int, int], ...], np.ndarray, np.ndarray]:
    """Every k-qubit stabilizer state over the MUB groups with every sign
    assignment, as its (group index, sign pattern), the read-only matrix
    whose rows are their statevectors, in the canonical phase, and its
    read-only complex conjugate.  Built once per k; only the winner's state
    is ever rebuilt from its key.

    With U the preparation circuit of a group's +-signed state, U|s> is the
    state whose sign pattern eps has bit i = (the phase bit of
    U^dagger W_{r_i} U = +-Z^mask) XOR parity(mask & s), for row r_i.  One
    gate pass over the 2^k basis states gives every U|s>, each up to an 8th
    root of unity that the canonical phase factor of its row removes."""
    groups = mub_covering(k).groups
    keys = tuple((gi, eps) for gi in range(len(groups)) for eps in range(1 << k))
    s = np.arange(1 << k)
    blocks = []
    for gi in range(len(groups)):
        gens = signed_generators(k, groups[gi].rows, 0)
        circuit = stab_state_prep(StabilizerState(k, gens))
        eps = np.zeros(1 << k, dtype=np.intp)
        for i, z in enumerate(conjugate(circuit.inverse(), gens)):  # each +-Z^mask
            eps |= ((z.phase >> 1) ^ (np.bitwise_count(s & z.label.z) & 1)) << i
        block = np.empty((1 << k, 1 << k), dtype=complex)
        block[eps] = kernels.apply_gates(np.eye(1 << k), circuit.gates).T
        blocks.append(block)
    matrix = np.concatenate(blocks)
    matrix *= _canonical_phase_factor(matrix)[:, None]
    conj = matrix.conj()
    matrix.flags.writeable = conj.flags.writeable = False
    return keys, matrix, conj


def _candidate_weights(rotated: StateVector, k: int) -> np.ndarray:
    """|(<c| (x) <z|) rotated|^2 for every MUB candidate c on qubits 0..k-1
    (rows) and every basis state z of qubits k..n-1 (columns).

    Row sums are the projection probabilities; a row over its sum is the
    computational law of the rest after projecting onto c.
    """
    conj = _mub_candidates(k)[2]
    block = rotated.amps.reshape(1 << (rotated.n - k), 1 << k)
    return np.abs(conj @ block.T) ** 2


def _shadow_cost(m: int, eps: float, delta: float) -> int:
    return int(np.ceil(np.log(max(m, 2) / delta) / eps**2))


def _rounds(gamma: float) -> int:
    """Measurement rounds of both extractors: ceil(4/gamma) within [8, 64]."""
    return min(max(int(np.ceil(4.0 / max(gamma, 1e-6))), 8), 64)


def _measure_rounds(
    weights: np.ndarray, rounds: int, project: bool, rng: np.random.Generator
) -> tuple[dict[tuple[int, int], None], int]:
    """``rounds`` rounds of measurements with the Born weights ``weights``,
    rows c against outcomes z.  Returns the collected (c, z) in
    first-collection order and the number of measurements.

    With ``project``, each round projects onto every row c, which succeeds
    with probability p0[c], the row sum; without, each round measures row 0
    outright.  A success draws z from its row over p0[c] with one uniform
    through the row's normalized cdf, built once per distinct row.  Each
    measurement uses a fresh copy, so the draws are independent and are
    taken as two arrays: every projection uniform, round-major, then one
    uniform per success in visit order.  Without projections that is
    ``choice(N, size=rounds, p=row / p0[0])``, uniform for uniform."""
    p0 = weights.sum(axis=1)
    if project:
        visits = rounds * p0.shape[0]
        hits = np.flatnonzero(rng.random(visits) < np.tile(p0, rounds)) % p0.shape[0]
    else:
        visits, hits = 0, np.zeros(rounds, dtype=np.intp)
    rows, at = np.unique(hits, return_inverse=True)
    cdf = np.cumsum(weights[rows] / p0[rows, None], axis=1)
    cdf /= cdf[:, -1:]
    # complex numbers order by real part, then imaginary: with the rows laid
    # end to end, one search places each uniform within its own row's cdf
    ends = (np.arange(rows.shape[0])[:, None] + 1j * cdf).ravel()
    zs = np.searchsorted(ends, at + 1j * rng.random(hits.shape[0]), "right") - at * cdf.shape[1]
    return dict.fromkeys(zip(hits.tolist(), zs.tolist())), visits + hits.shape[0]


TIE_TOL = 1e-12
BLOCK_TOL = 1e-9


def find_stabilizer(
    psi: StateVector,
    sub: SubgroupV,
    gamma: float,
    delta: float,
    rng: np.random.Generator,
    ledger: CostLedger,
) -> CandidateStabilizer:
    """Extract the best product-form stabilizer compatible with the subgroup.

    Canonicalizes the subgroup (k pairs, m center) and rotates the state into
    that frame with the circuit the canonicalizer emitted; more than
    ``MUB_MAX_QUBITS`` pairs have no candidate family and raise
    ``PfrSubgroupNotFound``, which ``self_correct`` retries.  One contraction
    with the cached k-qubit MUB candidate matrix (every group, every sign
    pattern) gives |(<c| (x) <z|) rotated|^2 for each candidate c and rest
    bitstring z.  Each of ``_rounds(gamma)`` rounds, per candidate, draws the
    projection of the first k qubits onto c from the row sum and, on
    success, the computational outcome z of the rest from the row; with
    k = 0 each round measures all qubits computationally.  Both go through
    ``_measure_rounds``, which draws every round at once.

    The rotation is unitary, so a collected entry's contraction value is its
    exact fidelity with ``psi``.  The first collected entry wins unless a
    later one exceeds it by more than ``TIE_TOL``: exact ties resolve by
    collection order, not by rounding noise.  Only the winner is mapped back,
    by conjugation with the inverse circuit.  Each simulated measurement
    charges one ``measure`` copy.
    """
    labels = sub.basis.labels(psi.n)
    circuit, k, m = canonicalize_subgroup(labels)
    if k > MUB_MAX_QUBITS:
        raise PfrSubgroupNotFound(
            f"subgroup leaves {k} symplectic pairs, more than the {MUB_MAX_QUBITS} extraction covers"
        )
    rotated = apply_circuit(psi, circuit, ledger)
    n = psi.n
    if k == 0:
        weights = (np.abs(rotated.amps) ** 2)[None, :]
    else:
        weights = _candidate_weights(rotated, k)
    # (candidate row, z) in first-collection order
    collected, measured = _measure_rounds(weights, _rounds(gamma), k > 0, rng)
    ledger.charge("measure", copies=measured)
    if not collected:
        raise NoCandidateFound("no candidate collected within the round budget")
    keys = list(collected)
    rows, zs = zip(*keys)
    fids = weights[list(rows), list(zs)].tolist()
    best = 0
    for i, fid in enumerate(fids):
        if fid > fids[best] + TIE_TOL:
            best = i
    ci, z = keys[best]
    # the winner's MUB rows on the first k qubits, repacked from k to n
    # qubits, then Z on each of the rest
    packed = [1 << (n + q) for q in range(k, n)]
    signs = z << k
    gi = eps = -1
    if k:
        gi, eps = _mub_candidates(k)[0][ci]
        low = (1 << k) - 1
        packed = [(v & low) | ((v >> k) << n) for v in mub_covering(k).groups[gi].rows] + packed
        signs |= eps
    gens = signed_generators(n, packed, signs)
    state = StabilizerState(n, conjugate(circuit.inverse(), gens))
    ledger.charge(
        "fidelity_shadows",
        copies=_shadow_cost(len(collected), max(gamma, 1e-3) / 8.0, delta),
    )
    return CandidateStabilizer(
        state,
        float(fids[best]),
        {"mub_index": gi, "sign_pattern": eps, "z": z, "k": k, "m": m},
    )


@dataclass(frozen=True)
class HighStabDimResult:
    circuit: CliffordCircuit
    sigma: StateVector  # on the frame's qubits outside the center, in their order
    z: int
    k: int  # symplectic pairs of the subgroup, on the frame's first k qubits
    block_weight: float

    def reconstruct(self) -> StateVector:
        """Dense form of the described state: |sigma> with the center qubits
        k..k+m-1 set to |z>, rotated back by the exact inverse circuit, with
        no stray global phase."""
        n, k, m = self.circuit.n, self.k, self.circuit.n - self.sigma.n
        amps = np.zeros((1 << (n - k - m), 1 << m, 1 << k), dtype=complex)
        amps[:, self.z, :] = self.sigma.amps.reshape(-1, 1 << k)
        return StateVector(n, kernels.apply_gates(amps.reshape(-1), self.circuit.inverse().gates))


def find_high_stab_dim(
    psi: StateVector,
    sub: SubgroupV,
    gamma: float,
    delta: float,
    rng: np.random.Generator,
    ledger: CostLedger,
) -> HighStabDimResult:
    """Improper extraction: only the rotated center block (qubits k..k+m-1 of
    the canonical frame) is measured computationally, once in each of
    ``_rounds(gamma)`` rounds, with the branch drawn from its exact Born
    weight; the heaviest sampled branch is kept and its exact normalized
    conditional block on the other n - m qubits is returned (the desk-scale
    stand-in for tomography of that block).  A kept branch below
    ``BLOCK_TOL`` raises.  Each measurement charges one ``measure`` copy.
    The described state has stabilizer dimension >= m by construction."""
    n = psi.n
    circuit, k, m = canonicalize_subgroup(sub.basis.labels(n))
    rotated = apply_circuit(psi, circuit, ledger)
    blocks = rotated.amps.reshape(1 << (n - k - m), 1 << m, 1 << k)
    weights = (np.abs(blocks) ** 2).sum(axis=(0, 2))
    collected, measured = _measure_rounds(weights[None, :], _rounds(gamma), False, rng)
    ledger.charge("measure", copies=measured)
    seen = {z for _, z in collected}
    best_z = max(seen, key=lambda z: weights[z])
    if weights[best_z] < BLOCK_TOL:
        raise BlockWeightBelowTolerance("all sampled branches carry negligible weight")
    sigma = StateVector(n - m, blocks[:, best_z, :].reshape(-1) / np.sqrt(weights[best_z]))
    eps = max(gamma, 1e-3) / 8.0
    ledger.charge(
        "block_shadows",
        copies=int(np.ceil(4.0 ** (n - m) / eps**2 * np.log(max(len(seen), 2) / delta))),
    )
    ledger.charge(
        "block_tomography",
        copies=int(np.ceil(4.0 ** (n - m) / eps**2 * np.log(1.0 / delta))),
    )
    return HighStabDimResult(circuit, sigma, int(best_z), k, float(weights[best_z]))


# ---------------------------------------------------------------------------
# end-to-end pipeline


def self_correct(
    psi: StateVector,
    gamma: float,
    delta: float,
    rng: np.random.Generator,
    ledger: CostLedger,
    attempts: int = ATTEMPTS,
    collect_t: int | None = None,
) -> CandidateStabilizer:
    """Chain small-doubling collection, its cover by span(A + A)
    (``pfr_subgroup``) and stabilizer extraction, retrying a failed stage
    with fresh randomness up to the attempt budget."""
    t = collect_t if collect_t is not None else _collect_t(psi.n)
    last: Exception | None = None
    for _ in range(attempts):
        try:
            accepted = collect_small_doubling(psi, t, gamma, delta, rng, ledger)
            sub = pfr_subgroup(accepted)
            return find_stabilizer(psi, sub, gamma, delta, rng, ledger)
        except (CollectionEmpty, PfrSubgroupNotFound, NoCandidateFound) as exc:
            last = exc
    raise SelfCorrectionFailed(f"attempt budget exhausted: {last}")


def tolerant_thresholds(eps1: float, eps2: float, t: int, separation_c: float) -> tuple[float, float]:
    """The tolerant test's yes floor 2^{-2t} eps1^6 and no ceiling eps2^{1/C},
    C = ``separation_c``; ValueError naming all of them when the floor does
    not clear the ceiling (a NaN C included)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if separation_c <= 0:
        raise ValueError(f"separation_c must be > 0, got {separation_c}")
    # ldexp takes any t, where 2.0 ** (-2 * t) overflows
    yes_floor, no_ceiling = math.ldexp(eps1**6, -2 * t), eps2 ** (1.0 / separation_c)
    if not yes_floor > no_ceiling:
        raise ValueError(
            f"inseparable (eps1, eps2, t) configuration: eps1 = {eps1}, eps2 = {eps2}, t = {t} and "
            f"separation_c = {separation_c} give a yes floor 2^-2t eps1^6 = {yes_floor:.6g} "
            f"that does not clear the no ceiling eps2^(1/C) = {no_ceiling:.6g}"
        )
    return yes_floor, no_ceiling


def _tolerant_margin(yes_floor: float, no_ceiling: float) -> float:
    """The tolerant test's threshold margin, a tenth of the separation; the
    sampled test estimates the q-average to within it."""
    return (yes_floor - no_ceiling) / 10.0


def tolerant_test(
    psi: StateVector, eps1: float, eps2: float, t: int, separation_c: float = 1.0
) -> str:
    """Tolerant test for closeness to stabilizer dimension >= n - t.

    Yes instances guarantee a q-average of at least 2^{-2t} eps1^6; the no
    bound eps2^{1/C} must sit strictly below it (C is configuration).  The
    exact q-average is thresholded with a tenth of the separation as margin.
    """
    yes_floor, no_ceiling = tolerant_thresholds(eps1, eps2, t, separation_c)
    return "yes" if exact_proxy(psi) >= yes_floor - _tolerant_margin(yes_floor, no_ceiling) else "no"


def sampled_tolerant_test(
    psi: StateVector,
    eps1: float,
    eps2: float,
    t: int,
    delta: float,
    rng: np.random.Generator,
    ledger: CostLedger,
    separation_c: float,
) -> str:
    """``tolerant_test`` on an estimate of the q-average alone, within the
    margin with probability >= 1 - delta (``sampled_proxy``: 6 copies per
    shot, no p-average shots)."""
    yes_floor, no_ceiling = tolerant_thresholds(eps1, eps2, t, separation_c)
    margin = _tolerant_margin(yes_floor, no_ceiling)
    proxy = sampled_proxy(psi, margin, delta, rng, ledger)[0]
    return "yes" if proxy >= yes_floor - margin else "no"

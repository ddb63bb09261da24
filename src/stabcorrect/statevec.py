"""Dense statevector oracle: circuit application, the squared Weyl
expectation table and its cumulative law, difference and retained sampling,
overlap and sampling estimators, the charge of the combination-residual
preparation, and the exact stabilizer fidelity oracles, one character sum
over isotropic subspaces.

Difference sampling draws from q = p * p, p(x) = <W_x>^2 / 2^n, without a
table of q: a draw from q is y ^ z for independent draws y and z from p,
both looked up in cumsum(<W_x>^2).  The proxy E_{x~q}[<W_x>^2] is
2^-n sum_x <W_x>^6 by the triple-correlation identity of a pure state
(Gross, Nezami and Walter, arXiv 1712.08628).

All "measurements" draw from exactly computed Born probabilities; finite-shot
behavior enters only through declared shot counts in the estimators, which
makes every statistical guarantee directly testable.  A state caches two
4^n float64 tables, <W_x>^2 and its cumulative sum (built when a label is
first drawn), and the proxy, 16 * 4^n bytes in steady state; the build
peaks at ``TABLE_BUILD_PEAK`` tables plus ``TABLE_BUILD_FIXED`` bytes of
fixed-size buffers and raises ValueError before it allocates when that peak
would exceed physical memory.  A retained label costs 1/proxy proposals,
drawn in batches of at most ``RETAINED_BATCH``.  A sampled
average over independent two-outcome shots is drawn as its +1 count, one
binomial, so it holds no per-shot array.

States are immutable values; operations return new states.  Independent
trials may run concurrently provided each owns a distinct RngStream path and
its own CostLedger.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .ledger import CostLedger
from .pauli import (
    CliffordCircuit,
    StabilizerState,
    isotropic_subspaces,
    signed_generators,
    stab_state_prep,
    statevector_of,
)

NORM_TOL = 1e-10


# Peak of one state's table build (``expectation_squares``, ``exact_proxy``,
# then ``_label_cdf``) in 4^n-entry float64 tables.  It is reached twice: while
# the unsigned table's transform holds the table and its scratch, and while
# the proxy's square or the cumulative law lies beside <W_x>^2.  The gather
# blocks of ``kernels.unsigned_expectations`` are freed before the transform,
# and the Hadamard factors are built at import.  Measured with tracemalloc:
# 2.026 at n = 8 (re-measured by test_statevec), 2.011 at n = 9, 2.005 at
# n = 10, 2.003 at n = 11 and 2.001 at n = 12; the excess is the 2^n-entry
# vectors of the gather.
TABLE_BUILD_PEAK = 2.03
# Below n = 8 a table is under 512 KiB, and fixed-size buffers outweigh it:
# the two gather blocks of 2^14 int64 indices and 2^14 float64 entries, and
# numpy's ufunc buffers of ``np.getbufsize()`` 8-byte elements.  A build
# peaks above TABLE_BUILD_PEAK tables by at most 266,524 bytes (n = 7, with
# tracemalloc; 102,561 at n = 6), under these 327,680.
TABLE_BUILD_FIXED = 2 * 8 * kernels._CHUNK + 8 * np.getbufsize()


def table_build_bytes(n: int) -> int:
    """Bytes that one n-qubit state's table build asks of physical memory."""
    return int(TABLE_BUILD_PEAK * 8 * 4**n) + TABLE_BUILD_FIXED


@dataclass(frozen=True, eq=False)
class StateVector:
    n: int
    amps: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (1 << self.n,):
            raise ValueError("amplitude table must have 2^n entries")
        object.__setattr__(self, "amps", amps)
        if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
            raise ValueError("state is not normalized")


def random_state(n: int, rng: np.random.Generator) -> StateVector:
    raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, raw / np.linalg.norm(raw))


def overlap(a: StateVector, b: StateVector) -> complex:
    return complex(np.vdot(a.amps, b.amps))


def statevector_of_stab(state: StabilizerState) -> StateVector:
    return StateVector(state.n, statevector_of(state))


def stab_combination(n: int, terms) -> np.ndarray:
    """sum_j c_j |phi_j> over (c_j, phi_j) pairs, from each state's cached vector."""
    out = np.zeros(1 << n, dtype=complex)
    for c, phi in terms:
        out += c * statevector_of(phi)
    return out


# ---------------------------------------------------------------------------
# circuits and distributions


def apply_circuit(psi: StateVector, circuit: CliffordCircuit, ledger: CostLedger) -> StateVector:
    if circuit.n != psi.n:
        raise ValueError("size mismatch")
    amps = kernels.apply_gates(psi.amps, circuit.gates)
    ledger.charge("apply_circuit", gates=len(circuit))
    return StateVector(psi.n, amps)


def require_memory(n: int, nbytes: int) -> None:
    """Raise before an n-qubit allocation that needs more than physical memory."""
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > phys:
        raise ValueError(
            f"n = {n} needs {nbytes} bytes, more than the {phys} bytes of physical memory"
        )


def expectation_squares(psi: StateVector) -> np.ndarray:
    """All 4^n squared expectations <W_x>^2, indexed by ``PauliLabel.to_vector``
    and computed once per state from the unsigned table, whose signs the
    square drops."""
    if "w2" not in psi._cache:
        require_memory(psi.n, table_build_bytes(psi.n))
        w2 = kernels.unsigned_expectations(psi.amps, psi.n)
        np.square(w2, out=w2)
        psi._cache["w2"] = w2
    return psi._cache["w2"]


def _label_cdf(psi: StateVector) -> np.ndarray:
    """cumsum(<W_x>^2), the cumulative law of p scaled by 2^n, built once per
    state after the proxy, so that the proxy's scratch square is freed
    before this table is allocated."""
    if "wcum" not in psi._cache:
        exact_proxy(psi)
        psi._cache["wcum"] = np.cumsum(expectation_squares(psi))
    return psi._cache["wcum"]


def _differences(cum: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """y ^ z for y and z looked up in ``cum`` by the two rows of uniforms
    ``keys``: with cum the cumulative law of p, a draw from q = p * p."""
    y, z = kernels.inverse_cdf(cum, keys.reshape(-1) * cum[-1]).reshape(2, -1)
    return y ^ z


# proposals per batch of ``sample_retained``, 3 uniforms each: a state with a
# small proxy (a Haar state's is about 2^-n) loops over batches of this size
# instead of allocating count / proxy proposals at once
RETAINED_BATCH = 1 << 15


def sample_retained(
    psi: StateVector, count: int, rng: np.random.Generator, ledger: CostLedger
) -> np.ndarray:
    """``count`` label indices that passed retention, in draw order, by the
    protocol itself: propose x ~ q, keep it when a uniform falls below
    <W_x>^2, until ``count`` are kept, so they follow q(x) <W_x>^2 / proxy.

    Proposals come in batches of at most ``RETAINED_BATCH``, each one
    ``rng.random((3, size))`` call (the keys of y and z, then the retention
    uniforms), sized from the cached proxy to cover the labels still
    missing.  Every proposal up to the last kept one is charged 4
    difference-sampling and 2 retention copies; the rest of the last batch
    is discarded uncharged.  A count of 0 draws and charges nothing.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return np.empty(0, dtype=np.intp)
    cum, w2, proxy = _label_cdf(psi), expectation_squares(psi), exact_proxy(psi)
    kept, proposals, need = [], 0, count
    while need:
        # the mean proposal count plus 3 standard deviations' worth
        size = min(RETAINED_BATCH, math.ceil((need + 3.0 * math.sqrt(need)) / proxy))
        u = rng.random((3, size))
        x = _differences(cum, u[:2])
        hits = np.flatnonzero(u[2] < w2[x])[:need]
        need -= hits.shape[0]
        proposals += int(hits[-1]) + 1 if need == 0 else size
        kept.append(x[hits])
    ledger.charge("bell_difference", copies=4 * proposals)
    ledger.charge("retention", copies=2 * proposals)
    return np.concatenate(kept)


# ---------------------------------------------------------------------------
# metrics and estimators


@dataclass(frozen=True)
class GowersMetrics:
    proxy: float      # E_{x~q}[<W_x>^2]
    u3pow8: float     # E_{x~p}[<W_x>^2]
    mode: str
    shots: int = 0


def exact_proxy(psi: StateVector) -> float:
    """E_{x~q}[<W_x>^2] = 2^-n sum_x <W_x>^6, computed once per state.

    For a pure state, E_{x~q}[2^n p(x)] = 2^{2n} sum_x p(x)^3 (the
    triple-correlation identity of Gross, Nezami and Walter, arXiv
    1712.08628), so the proxy needs no table of q."""
    if "proxy" not in psi._cache:
        w2 = expectation_squares(psi)
        psi._cache["proxy"] = float(np.dot(np.square(w2), w2)) / (1 << psi.n)
    return psi._cache["proxy"]


def _proxy_shots(delta: float, fail_prob: float) -> int:
    """Shots of a two-outcome estimate (a sampled proxy, one part of a
    Hadamard test) within ``delta`` with probability >= 1 - fail_prob:
    ceil(2 ln(2/fail_prob) / delta^2), by Hoeffding's bound.  A fail_prob
    outside (0, 1), or so small that 2/fail_prob overflows, raises
    ValueError naming it, and so does a delta that leaves the count without
    a finite value."""
    if not 0 < fail_prob < 1 or 2.0 / fail_prob == math.inf:
        raise ValueError(
            f"failure probability {fail_prob} must lie in (0, 1) with 2/{fail_prob} finite"
        )
    shots = 2.0 * float(np.log(2.0 / fail_prob)) / delta**2 if delta**2 > 0 else math.inf
    if shots == math.inf:
        raise ValueError(
            f"accuracy delta = {delta} gives no finite shot count 2 ln(2/{fail_prob}) / delta^2"
        )
    return math.ceil(shots)


def sampled_proxy(
    psi: StateVector, delta: float, fail_prob: float, rng: np.random.Generator, ledger: CostLedger
) -> tuple[float, int]:
    """Estimate of the q-average E_{x~q}[<W_x>^2] to within ``delta`` with
    probability >= 1 - fail_prob, and its shot count.

    Each shot draws x ~ q on 4 copies and measures W_x on two more, which
    sees +1 with probability (1 + <W_x>^2)/2.  The shots use fresh copies, so
    they are independent with Pr[+1] = (1 + proxy)/2: the estimate is
    ``binomial_estimate`` of the cached proxy, one draw whatever the shot
    count, and each shot is charged its six copies."""
    shots = _proxy_shots(delta, fail_prob)
    ledger.charge("bell_difference", copies=4 * shots)
    ledger.charge("gowers_sampled", copies=2 * shots)
    return float(binomial_estimate(exact_proxy(psi), shots, rng)), shots


GOWERS_FAIL_PROB = 1e-3  # sampled_gowers3_metrics: chance the q-average misses by delta


def gowers3_metrics(psi: StateVector) -> GowersMetrics:
    """Correlation metrics of the label distributions, both averages
    evaluated from the table of <W_x>^2 (the q-average is the cached proxy);
    draws and charges nothing."""
    w2 = expectation_squares(psi)
    # p = w2 / 2^n: scaling by a power of two commutes with every rounding,
    # so this equals the dot product of p itself, bit for bit
    return GowersMetrics(exact_proxy(psi), float(np.dot(w2, w2)) / (1 << psi.n), "exact")


def sampled_gowers3_metrics(
    psi: StateVector, delta: float, rng: np.random.Generator, ledger: CostLedger
) -> GowersMetrics:
    """``gowers3_metrics`` estimated from copies: the q-average by
    ``sampled_proxy`` at failure probability ``GOWERS_FAIL_PROB``, then the
    p-average with as many conjugate-assisted pair shots, each on four copies
    and seeing +1 with probability (1 + u3pow8)/2, so each shot costs ten
    copies."""
    exact = gowers3_metrics(psi)
    proxy, shots = sampled_proxy(psi, delta, GOWERS_FAIL_PROB, rng, ledger)
    ledger.charge("gowers_sampled", copies=4 * shots)
    return GowersMetrics(proxy, float(binomial_estimate(exact.u3pow8, shots, rng)), "sampled", shots)


SAMPLER_MAX_SHOTS = int(np.iinfo(np.int64).max)


def binomial_estimate(w, shots: int, rng: np.random.Generator):
    """Estimate of w in [-1, 1] from ``shots`` two-outcome shots with
    Pr[+1] = p = clip((1 + w)/2): 2 Binomial(shots, p) / shots - 1.  Above
    ``SAMPLER_MAX_SHOTS``, which numpy's binomial sampler cannot take, the
    draw is the normal limit w + 2 sqrt(p(1 - p)/shots) N(0, 1), clipped to
    [-1, 1]."""
    p = np.clip(0.5 * (1.0 + w), 0.0, 1.0)
    if shots > SAMPLER_MAX_SHOTS:
        spread = 2.0 * np.sqrt(p * (1.0 - p) / float(shots))
        return np.clip(w + spread * rng.standard_normal(np.shape(p)), -1.0, 1.0)
    return 2.0 * rng.binomial(shots, p) / shots - 1.0


def hadamard_test_estimate(
    prep_a: StateVector,
    prep_b: StateVector,
    eps: float,
    delta: float,
    rng: np.random.Generator,
    ledger: CostLedger,
) -> complex:
    """Estimate <a|b> within eps per real/imaginary part, w.p. >= 1 - delta.

    Each shot interferes the two controlled preparations once; the real part
    uses Pr[0] = (1 + Re<a|b>)/2, the imaginary part the S-twisted variant.
    Each part takes ``_proxy_shots(eps, delta / 2)`` shots, so a delta
    outside (0, 2), or an eps or delta with no finite count, raises
    ValueError before anything is drawn or charged.  The ledger is charged
    the exact shot count, also beyond int64.
    """
    val = overlap(prep_a, prep_b)
    shots = _proxy_shots(eps, delta / 2)
    re = binomial_estimate(val.real, shots, rng)
    im = binomial_estimate(val.imag, shots, rng)
    ledger.charge("hadamard_test", queries_conU=2 * shots)
    return complex(re, im)


def lcu_residual(
    rnorm: float,
    terms: list[StabilizerState],
    coeffs: list[complex],
    ledger: CostLedger,
) -> float:
    """Charge the combination-of-unitaries preparation of the residual
    (psi - sum_j beta_j phi_j)/rnorm, whose unnormalized norm is ``rnorm``,
    and return its success probability (||V|0>|| / ||a||_1)^2 with
    ||V|0>|| = rnorm/alpha and ||a||_1 = (1 + sum_j |beta_j|)/alpha: alpha
    cancels, leaving (rnorm / (1 + sum_j |beta_j|))^2.

    The postselection is charged, not run: ceil(1/success) attempts, each
    querying psi's and every term's controlled preparation and running every
    term's circuit.  A term's circuit prepares it up to an 8th root of unity,
    which its coefficient absorbs (Childs and Wiebe, arXiv 1202.5822), so the
    gates charged are those of the affine-phase preparations alone (H, S, Z,
    CZ, CNOT and X, CZ counted as one gate)."""
    success = (rnorm / (1.0 + sum(abs(b) for b in coeffs))) ** 2
    attempts = int(np.ceil(1.0 / success)) if success > 0 else 0
    gates = attempts * sum(len(stab_state_prep(phi)) for phi in terms)
    ledger.charge("lcu", queries_conU=attempts * (1 + len(terms)), gates=gates)
    return success


# ---------------------------------------------------------------------------
# exact stabilizer oracles: one character sum over isotropic subspaces


def _span_phases(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Group elements g_c = XOR of the rows selected by the bits of c, and the
    exponents e_c with <prod_i W_{r_i}^{c_i}> = i^{e_c} u(g_c), u the table of
    ``kernels.unsigned_expectations``, for each basis in ``rows`` (M, d)."""
    m, d = rows.shape
    mask, pc = (1 << n) - 1, np.bitwise_count
    g, e = np.zeros((2, m, 1 << d), dtype=np.int64)
    for j in range(d):
        h = 1 << j
        ax, bx = g[:, :h] & mask, g[:, :h] >> n
        ay, by = rows[:, j : j + 1] & mask, rows[:, j : j + 1] >> n
        a, b = ax ^ ay, bx ^ by
        # the counts are uint8, whose wrap-around modulo 256 keeps theta mod 4
        theta = pc(ax & bx) + pc(ay & by) + 2 * pc(bx & ay) - pc(a & b)
        g[:, h : 2 * h] = a | (b << n)
        e[:, h : 2 * h] = (e[:, :h] + theta) & 3
    # the cocycle of W_x W_y = i^theta W_{x+y}, plus 2 where u drops a minus (|a&b| = 1, 2 mod 4)
    e ^= (pc(g & (g >> n)) + 1) & 2
    return g, e


def _projection_weights(table: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(M, 2^d) array of ||Pi_{S,z} psi||^2 = 2^-d WHT_c(i^{e_c} u(g_c))(z) for the
    unsigned table u, the subspace S of each row of ``rows`` and each z (bit i negates row i)."""
    g, e = _span_phases(rows, n)
    # commuting Hermitian factors: e_c is 0 or 2; transformed as (2^d, M)
    vals = np.empty((g.shape[1], g.shape[0]))
    np.multiply(table[g].T, (1 - e).T, out=vals)
    return kernels.wht_inplace(vals).T / vals.shape[0]


def _best_per_subspace(psi: StateVector, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unsigned table, the d-dim isotropic subspaces, each one's best weight."""
    subspaces = isotropic_subspaces(psi.n, d)
    table = kernels.unsigned_expectations(psi.amps, psi.n)
    step = (1 << 18) >> d  # 2^18 entries per batched transform
    best = np.concatenate([
        _projection_weights(table, subspaces[i : i + step], psi.n).max(axis=1)
        for i in range(0, subspaces.shape[0], step)
    ])
    return table, subspaces, best


def bruteforce_stab_fidelity(psi: StateVector) -> tuple[float, StabilizerState]:
    """Exact max overlap^2 over every stabilizer state (the d = n case), with the
    argmax: the subspace's RREF rows signed by z.  Among entries within 1e-12
    of the maximum the smallest ``sort_key`` wins."""
    n = psi.n
    table, subspaces, best = _best_per_subspace(psi, n)
    top = float(best.max())
    near = subspaces[best >= top - 1e-12]
    ties = [
        StabilizerState(n, signed_generators(n, rows, z))
        for rows, weights in zip(near.tolist(), _projection_weights(table, near, n))
        for z in np.flatnonzero(weights >= top - 1e-12).tolist()
    ]
    return top, min(ties, key=StabilizerState.sort_key)


def bruteforce_stab_dim_fidelity(psi: StateVector, t: int) -> float:
    """Exact max overlap^2 with any state of stabilizer dimension >= n - t.

    Such a state lies in a joint eigenspace of a signed isotropic group of
    dimension n - t, whose best overlap with psi is the weight of psi's
    projection onto it: the maximum over every such group is exhaustive."""
    if not 0 <= t <= psi.n:
        raise ValueError("need 0 <= t <= n")
    if t == psi.n:
        return 1.0
    return float(_best_per_subspace(psi, psi.n - t)[2].max())

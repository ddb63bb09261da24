"""Dense statevector oracle: circuit application, the squared Weyl
expectation table and the difference-sampling law, overlap and sampling
estimators, the charge of the combination-residual preparation, and the
exact stabilizer fidelity oracles, one character sum over isotropic
subspaces.

The difference-sampling law q = p * p of p(x) = <W_x>^2 / 2^n is built with
one 2n-bit transform of <W_x>^4 instead of a convolution's two: a pure
state's characteristic distribution is its own symplectic Fourier transform
(Gross, Nezami and Walter, arXiv 1712.08628), so the transform of p is
<W_z>^2 and that of q is <W_z>^4.

All "measurements" draw from exactly computed Born probabilities; finite-shot
behavior enters only through declared shot counts in the estimators, which
makes every statistical guarantee directly testable.  A state caches three
4^n float64 tables, <W_x>^2, the difference-sampling law (cumulated in place
when a difference sample first needs it) and the cumulative retained law,
24 * 4^n bytes in steady state; the build peaks at
``TABLE_BUILD_PEAK`` tables and raises ValueError before it allocates when
that peak would exceed physical memory.  A sampled average over independent
two-outcome shots is drawn as its +1 count, one binomial, so it holds no
per-shot array.

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


# Peak of one state's table build (``expectation_squares`` then ``_q_tables``)
# in 4^n-entry float64 tables, plus a few KiB of numpy buffers.  It is reached
# three times: while q's b-transform holds <W_x>^2, <W_x>^4 and the
# transform's scratch table; while its a-transform holds <W_x>^2, q and the
# scratch; and when the retained law's table is allocated beside <W_x>^2 and
# q, the three tables a state keeps.  The unsigned table's transform before
# them peaks at 2 (the table and the scratch).  The Hadamard factors are built
# at import, outside the build.  Measured with tracemalloc: 3.007 at n = 8
# (re-measured by test_statevec), 3.001 at n = 9 and 3.000 at n = 10, 11
# and 12.
TABLE_BUILD_PEAK = 3.0


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
        require_memory(psi.n, int(TABLE_BUILD_PEAK * 8 * 4**psi.n))
        w2 = kernels.unsigned_expectations(psi.amps, psi.n)
        np.square(w2, out=w2)
        psi._cache["w2"] = w2
    return psi._cache["w2"]


def _q_tables(psi: StateVector) -> tuple[np.ndarray, float]:
    """The cumulative retained law and the proxy E_q[<W_x>^2], built once
    per state, which also keeps the difference-sampling law q, uncumulated.

    With p(x) = <W_x>^2 / 2^n, the law of difference sampling is the XOR
    self-convolution q = p * p, and a draw kept with probability <W_x>^2
    follows q(x) <W_x>^2 / proxy.  A pure state's p is self-dual,
    sum_x (-1)^{[x,z]} <W_x>^2 = 2^n <W_z>^2 with the symplectic form
    [x, z] = a_x.b_z + b_x.a_z, so q(x) = 4^-n sum_z (-1)^{[x,z]} <W_z>^4:
    one 2n-bit transform of <W_x>^4, taken over b, then, after a transpose
    that swaps a and b, over a.  The build checks the triple-correlation
    identity E_{x~q}[2^n p(x)] = 2^{2n} sum_x p(x)^3 = 2^-n sum_x <W_x>^6,
    which holds for pure states.  ``_difference_cdf`` cumulates q in place
    when a difference sample first needs it.
    """
    if "proxy" not in psi._cache:
        w2 = expectation_squares(psi)
        dim = 1 << psi.n
        w4 = np.square(w2)
        triple = float(np.dot(w4, w2)) / dim
        half = kernels.wht_inplace(w4.reshape(dim, dim))  # over b
        q = np.empty_like(w2)
        swapped = q.reshape(dim, dim)
        for c in range(0, dim, 64):  # a <-> b: the transpose in column tiles
            swapped[:, c : c + 64] = half[c : c + 64].T
        del w4, half  # so the retained law below is the third table, not the fourth
        kernels.wht_inplace(swapped)  # over a
        q *= 1.0 / (dim * dim)
        np.clip(q, 0.0, None, out=q)
        proxy = float(np.dot(q, w2))
        if abs(proxy - triple) > 1e-9:
            raise AssertionError("triple-correlation identity violated")
        retained = np.multiply(q, w2)
        psi._cache["rcum"] = np.cumsum(retained, out=retained)
        psi._cache["q"] = q
        psi._cache["proxy"] = proxy
    return psi._cache["rcum"], psi._cache["proxy"]


def _difference_cdf(psi: StateVector) -> np.ndarray:
    """cumsum(q), written over q's table (cache key "q" becomes "qcum") the
    first time it is asked for, so it takes no table of its own."""
    _q_tables(psi)
    if "qcum" not in psi._cache:
        q = psi._cache.pop("q")
        psi._cache["qcum"] = np.cumsum(q, out=q)
    return psi._cache["qcum"]


def sample_weyl_indices(
    psi: StateVector, size: int, rng: np.random.Generator, ledger: CostLedger
) -> np.ndarray:
    """Batched difference sampling: label indices drawn from q, in draw order,
    4 copies each."""
    cum = _difference_cdf(psi)
    idx = kernels.inverse_cdf(cum, rng.random(size) * cum[-1])
    ledger.charge("bell_difference", copies=4 * size)
    return idx


def sample_retained(
    psi: StateVector, count: int, rng: np.random.Generator, ledger: CostLedger
) -> np.ndarray:
    """``count`` label indices that passed retention, drawn directly from
    their law q(x) <W_x>^2 / proxy with ``count`` uniforms.

    The protocol draws x ~ q and keeps it with probability <W_x>^2 until
    ``count`` are kept, so its trials number ``count`` plus a
    NegativeBinomial(count, proxy) count of discarded draws; that one
    draw follows the uniforms, and each trial is charged 4
    difference-sampling and 2 retention copies.  A count of 0 draws and
    charges nothing.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return np.empty(0, dtype=np.intp)
    cum, proxy = _q_tables(psi)
    idx = kernels.inverse_cdf(cum, rng.random(count) * cum[-1])
    trials = count + int(rng.negative_binomial(count, min(proxy, 1.0)))
    ledger.charge("bell_difference", copies=4 * trials)
    ledger.charge("retention", copies=2 * trials)
    return idx


# ---------------------------------------------------------------------------
# metrics and estimators


@dataclass(frozen=True)
class GowersMetrics:
    proxy: float      # E_{x~q}[<W_x>^2]
    u3pow8: float     # E_{x~p}[<W_x>^2]
    mode: str
    shots: int = 0


def exact_proxy(psi: StateVector) -> float:
    """E_{x~q}[<W_x>^2] from the tables, computed once per state."""
    return _q_tables(psi)[1]


def _proxy_shots(delta: float, fail_prob: float) -> int:
    """Shots of a sampled proxy within ``delta`` with probability >= 1 -
    fail_prob: ceil(2 ln(2/fail_prob) / delta^2), by Hoeffding's bound.  A
    delta that leaves the count without a finite value raises ValueError."""
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
    if rng is None:
        raise ValueError("sampled mode needs an rng")
    if ledger is None:
        raise ValueError("sampled mode needs a ledger")
    shots = _proxy_shots(delta, fail_prob)
    ledger.charge("bell_difference", copies=4 * shots)
    ledger.charge("gowers_sampled", copies=2 * shots)
    return float(binomial_estimate(exact_proxy(psi), shots, rng)), shots


GOWERS_FAIL_PROB = 1e-3  # sampled gowers3_metrics: chance the q-average misses by delta


def gowers3_metrics(
    psi: StateVector,
    mode: str = "exact",
    delta: float = 0.05,
    rng: np.random.Generator | None = None,
    ledger: CostLedger | None = None,
) -> GowersMetrics:
    """Correlation metrics of the label distributions.

    Exact mode evaluates both averages from the tables (the q-average is the
    cached proxy, whose build checks the triple-correlation identity) and
    draws and charges nothing.  Sampled mode, which needs ``rng`` and
    ``ledger``, estimates the q-average with ``sampled_proxy`` at failure
    probability ``GOWERS_FAIL_PROB`` and then the p-average with as many
    conjugate-assisted pair shots, each on four copies and seeing +1 with
    probability (1 + u3pow8)/2, so each shot costs ten copies.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    w2 = expectation_squares(psi)
    # p = w2 / 2^n: scaling by a power of two commutes with every rounding,
    # so this equals the dot product of p itself, bit for bit
    u3pow8 = float(np.dot(w2, w2)) / (1 << psi.n)
    if mode == "exact":
        return GowersMetrics(exact_proxy(psi), u3pow8, "exact")
    proxy, shots = sampled_proxy(psi, delta, GOWERS_FAIL_PROB, rng, ledger)
    ledger.charge("gowers_sampled", copies=4 * shots)
    return GowersMetrics(proxy, float(binomial_estimate(u3pow8, shots, rng)), "sampled", shots)


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
    The ledger is charged the exact shot count, also beyond int64.
    """
    val = overlap(prep_a, prep_b)
    shots = int(np.ceil(2.0 * np.log(4.0 / delta) / eps**2))
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
    term's circuit.
    """
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
    # the ``pauli_product`` cocycle, plus 2 where u drops a minus (|a&b| = 1, 2 mod 4)
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

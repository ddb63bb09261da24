"""Iterative self-correction: one loop with a per-iteration error schedule
that rebuilds every coefficient beta_j each iteration, takes alpha =
sqrt(1 - sum_j |beta_j|^2) and forms the residual psi - sum_j beta_j phi_j
once per iteration, run as the error-free loop (exact estimates,
k <= 1/eta^2) or as the noise-robust loop (k <= 9/eta^2 + 8), whose ``t``
gives the high-stabilizer-dimension decomposition; pluggable base learners;
and the downstream applications (low-extent learning, mimicking-state
comparison).

The loop is inherently sequential; parallelize at the level of independent
experiment configurations with disjoint RNG paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SelfCorrectionFailed
from .ledger import CostLedger
from .pauli import StabilizerState, stabilizer_inner_product
from .selfcorrect import ATTEMPTS, self_correct
from .statevec import (
    StateVector,
    bruteforce_stab_fidelity,
    exact_proxy,
    hadamard_test_estimate,
    lcu_residual,
    overlap,
    stab_combination,
    statevector_of_stab,
)

PROGRESS_TOL = 1e-10
PREFIX_TOL = 1e-9
ZERO_RESIDUAL_TOL = 1e-7
EST_FAIL = 1e-6  # failure probability of each Hadamard-test overlap estimate


@dataclass(frozen=True)
class ErrorSchedule:
    """Inner-estimate tolerances: delta = eta^3/12, delta_t = delta/(3 t^4)."""

    eta: float

    @property
    def delta(self) -> float:
        return self.eta**3 / 12.0

    def tolerance(self, t: int) -> float:
        return self.delta / (3.0 * t**4)


@dataclass(frozen=True)
class BaseLearner:
    """A stabilizer-producing subroutine with its fidelity promise.

    ``promise`` must be monotone increasing; it maps the loop's threshold
    parameter to the per-iteration fidelity floor used for the budget bound.
    """

    learn: callable  # (StateVector, Generator, CostLedger) -> StabilizerState
    promise: callable  # float -> float


def base_learner_bruteforce() -> BaseLearner:
    def learn(psi: StateVector, rng, ledger) -> StabilizerState:
        _, state = bruteforce_stab_fidelity(psi)
        return state

    return BaseLearner(learn, lambda eps: max(eps - 1e-9, 1e-9))


def base_learner_self_correct(
    gamma: float,
    delta: float,
    attempts: int = ATTEMPTS,
) -> BaseLearner:
    """Wrap the full pipeline as a base learner.  The fidelity floor as a
    function of the threshold has no pinned universal exponent; the promise
    is the threshold itself, clipped to [1e-9, 1]."""
    def learn(psi: StateVector, rng, ledger) -> StabilizerState:
        return self_correct(psi, gamma, delta, rng, ledger, attempts=attempts).state

    return BaseLearner(learn, lambda eps: max(min(eps, 1.0), 1e-9))


# ---------------------------------------------------------------------------
# decomposition record


@dataclass
class Decomposition:
    n: int
    terms: list[tuple[complex, StabilizerState]]
    residual_norm: float
    residual: StateVector | None
    stop_reason: str
    ledger: CostLedger
    eps: float
    eta: float
    beta_history: list[list[complex]] = field(default_factory=list)

    def __post_init__(self):
        if any(abs(beta) > 1.0 + 1e-6 for beta, _ in self.terms):
            raise ValueError("coefficient magnitude above 1")

    @property
    def iterations(self) -> int:
        return len(self.terms)

    def structured_vector(self) -> np.ndarray:
        return stab_combination(self.n, self.terms)

    def reconstruction(self) -> np.ndarray:
        out = self.structured_vector()
        if self.residual is not None:
            out = out + self.residual_norm * self.residual.amps
        return out

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"beta": [beta.real, beta.imag], "generators": phi.to_json()}
                for beta, phi in self.terms
            ],
            "residual_norm": self.residual_norm,
            "stop_reason": self.stop_reason,
            "iterations": self.iterations,
            "ledger": self.ledger.to_json(),
        }


STOP_GOWERS = "gowers_below"
STOP_ALPHA = "alpha_below"
STOP_TOMOGRAPHY = "tomography_complete"
STOP_BUDGET = "budget"
STOP_LEARNER = "learner_failed"


# ---------------------------------------------------------------------------
# the iterative loop


def _iterate(
    psi: StateVector,
    eps: float,
    learner: BaseLearner,
    ledger: CostLedger,
    rng: np.random.Generator,
    budget: float,
    slack: int,
    threshold: float,
    copies: int,
    estimator="exact",
) -> Decomposition:
    """The one loop behind both entry points.

    Runs at most ceil(budget/eta^2) + slack iterations.  Each stops on alpha^2
    below eps, on an exact proxy below ``threshold`` (its estimate is charged
    ``copies``), or on a learner that raises
    ``SelfCorrectionFailed``, keeping the terms learnt so far; otherwise it
    learns phi_t from the residual, re-estimates every overlap <phi_j|psi> at
    the ``ErrorSchedule(eta)`` tolerance delta/(3 t^4) (each Hadamard test
    fails with probability ``EST_FAIL``) and rebuilds beta with exact
    stabilizer cross-overlaps.  It then forms the residual psi - sum_j
    beta_j phi_j once: its norm charges the next iteration's
    combination-of-unitaries preparation (``lcu_residual``), and its
    normalized state is checked and handed to the next learner.  The loop
    also stops, as tomography complete, once the earlier coefficients
    exhaust the unit mass (1 - sum_{j<t} |beta_j|^2 within ``PREFIX_TOL``)
    or the residual vanishes, whatever the estimator; otherwise alpha =
    sqrt(1 - sum_j |beta_j|^2).
    With the exact estimator each iteration also asserts the progress
    identity (the removed mass is |beta_t|^2) and the orthogonality of the
    new residual to phi_t.  On exit, asserts k <= budget/eta^2.
    """
    eta = learner.promise(eps)
    schedule = ErrorSchedule(eta)
    t_max = int(np.ceil(budget / eta**2)) + slack
    phis: list[StabilizerState] = []
    cross: list[list[complex]] = []  # cross[j][i] = <phi_j|phi_i>, i < j
    betas: list[complex] = []
    history: list[list[complex]] = []
    alpha = 1.0
    residual = psi
    norm = float(np.linalg.norm(psi.amps))
    stop = STOP_BUDGET
    for t in range(1, t_max + 1):
        if alpha**2 < eps:
            stop = STOP_ALPHA
            break
        if t > 1:
            lcu_residual(norm, phis, betas, ledger)
        ledger.charge("gowers_estimate", copies=copies)
        if exact_proxy(residual) < threshold:
            stop = STOP_GOWERS
            break
        try:
            phi = learner.learn(residual, rng, ledger)
        except SelfCorrectionFailed:
            stop = STOP_LEARNER
            break
        phis.append(phi)
        cross.append([stabilizer_inner_product(phi, phis[i]) for i in range(t - 1)])
        tol_t = schedule.tolerance(t)
        betas = []
        for j, vec in enumerate(map(statevector_of_stab, phis)):
            true_val = overlap(vec, psi)
            if estimator == "exact":
                zeta = true_val
            elif estimator == "hadamard":
                zeta = hadamard_test_estimate(vec, psi, tol_t, EST_FAIL, rng, ledger)
            else:
                zeta = estimator(j + 1, t, true_val, tol_t)
            for i in range(j):
                zeta = zeta - betas[i] * cross[j][i]
            betas.append(zeta)
        history.append(list(betas))
        prev_norm = norm
        unnorm = psi.amps - stab_combination(psi.n, zip(betas, phis))
        norm = float(np.linalg.norm(unnorm))
        residual = StateVector(psi.n, unnorm / norm) if norm > ZERO_RESIDUAL_TOL else None
        mass = [abs(beta) ** 2 for beta in betas]
        if 1.0 - sum(mass[:-1]) <= PREFIX_TOL:
            stop = STOP_TOMOGRAPHY
            break
        if estimator == "exact" and abs(prev_norm**2 - norm**2 - mass[-1]) > PROGRESS_TOL:
            raise AssertionError("progress identity violated")
        if residual is None:
            stop = STOP_TOMOGRAPHY
            break
        if estimator == "exact" and abs(overlap(statevector_of_stab(phi), residual)) > 1e-10:
            raise AssertionError("residual is not orthogonal to the new term")
        alpha = float(np.sqrt(max(1.0 - sum(mass), 0.0)))
    dec = Decomposition(
        psi.n, list(zip(betas, phis)), norm, residual, stop, ledger, eps, eta, history
    )
    if len(betas) * eta**2 > budget + 1e-9:
        raise AssertionError("iteration budget bound violated")
    return dec


def _stop_rule(eps: float, t: int, robust: bool) -> tuple[float, int]:
    """The loop's stop threshold on the proxy, 2^-2t eps^6, and the copies
    of each proxy estimate, ceil(16 / a^2) at the accuracy a = the threshold
    (error-free) or half of it (robust).  An eps outside (0, 1), or one that
    leaves the count without a finite value, raises ValueError."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    threshold = 2.0 ** (-2 * t) * eps**6
    accuracy = threshold / 2.0 if robust else threshold
    copies = 16.0 / accuracy**2 if accuracy**2 > 0 else math.inf
    if copies == math.inf:
        raise ValueError(
            f"parameter eps = {eps} with t = {t} gives no finite copy count 16 / a^2 for "
            f"proxy estimates at accuracy a = {accuracy:.3g}"
        )
    return threshold, math.ceil(copies)


def iterate_error_free(
    psi: StateVector,
    eps: float,
    learner: BaseLearner,
    ledger: CostLedger,
    rng: np.random.Generator,
) -> Decomposition:
    """Exact-mode loop: all estimates are exact, stopping on the two
    conditions (q-average below eps^6, or alpha^2 below eps) or on exact
    tomography, within k <= 1/eta^2 iterations."""
    threshold, copies = _stop_rule(eps, 0, False)
    return _iterate(
        psi, eps, learner, ledger, rng,
        budget=1.0, slack=0, threshold=threshold, copies=copies,
    )


def iterate_robust(
    psi: StateVector,
    eps: float,
    learner: BaseLearner,
    ledger: CostLedger,
    rng: np.random.Generator,
    estimator="exact",
    t: int = 0,
) -> Decomposition:
    """Noise-tolerant loop: iteration t re-estimates every overlap <phi_j|psi>
    at tolerance delta/(3 t^4), rebuilds the coefficient vector with exact
    stabilizer cross-overlaps, sets alpha = sqrt(1 - sum_j |beta_j|^2), and
    charges the next residual's combination-of-unitaries preparation; at
    most ceil(9/eta^2) + 8 iterations.

    ``estimator`` is "exact", "hadamard", or a callable
    (j, t, true_value, tol) -> estimate used to inject controlled errors.

    ``t`` in [0, n) relaxes the stopping threshold to 2^{-2t} eps^6, the
    stabilizer-dimension decomposition: the residual then satisfies
    |alpha|^2 * F_{S(n-t)} <= eps (t = 0 is the plain robust loop).
    """
    if not 0 <= t < psi.n:
        raise ValueError("need 0 <= t < n")
    threshold, copies = _stop_rule(eps, t, True)
    return _iterate(
        psi, eps, learner, ledger, rng,
        budget=9.0, slack=8, threshold=threshold, copies=copies, estimator=estimator,
    )


# ---------------------------------------------------------------------------
# applications


@dataclass(frozen=True)
class LowExtentResult:
    decomposition: Decomposition
    state: StateVector | None   # normalized structured part, None when it is zero
    overlap_sq: float           # exact |<state|psi>|^2
    lcu_success: float          # preparation success probability
    recipe: dict                # coefficients + generator strings

    def to_json(self) -> dict:
        return {
            "overlap_sq": self.overlap_sq,
            "lcu_success": self.lcu_success,
            "recipe": self.recipe,
            "stop_reason": self.decomposition.stop_reason,
            "iterations": self.decomposition.iterations,
        }


def _extent_eps(xi: float, eps_prime: float) -> float:
    """The robust loop's eps in ``learn_low_extent``, (eps' / (2 xi))^2.  A
    pair whose loop has no finite proxy-estimate cost raises ValueError."""
    eps = (eps_prime / (2.0 * xi)) ** 2
    try:
        _stop_rule(eps, 0, True)
    except ValueError as exc:
        raise ValueError(
            f"parameters xi = {xi} and eps_prime = {eps_prime} give no finite "
            f"proxy-estimate cost: {exc}"
        ) from None
    return eps


def learn_low_extent(
    psi: StateVector,
    xi: float,
    eps_prime: float,
    learner: BaseLearner,
    ledger: CostLedger,
    rng: np.random.Generator,
) -> LowExtentResult:
    """Run the robust loop at eps = (eps'/(2 xi))^2 and normalize the
    structured part; for extent-xi inputs the exact achieved overlap is at
    least 1/2 - eps'.  A numerically zero structured part (the loop learned
    nothing) gives overlap 0, no state and an empty recipe."""
    if not xi >= 1:
        raise ValueError(f"xi must be >= 1, got {xi}")
    dec = iterate_robust(psi, _extent_eps(xi, eps_prime), learner, ledger, rng)
    structured = dec.structured_vector()
    norm = float(np.linalg.norm(structured))
    if norm < ZERO_RESIDUAL_TOL:
        return LowExtentResult(dec, None, 0.0, 0.0, {})
    state = StateVector(psi.n, structured / norm)
    ov = float(abs(np.vdot(state.amps, psi.amps)) ** 2)
    coeff_sum = sum(abs(b) for b, _ in dec.terms)
    success = (norm / coeff_sum) ** 2
    recipe = {
        "coeffs": [[b.real, b.imag] for b, _ in dec.terms],
        "generators": [phi.to_json() for _, phi in dec.terms],
        "normalization": norm,
        "success_probability": success,
    }
    return LowExtentResult(dec, state, ov, success, recipe)


@dataclass(frozen=True)
class MimicReport:
    entries: list[dict]
    eps: float
    eps_prime: float
    fidelity_gap_bound: float

    def all_within_bounds(self) -> bool:
        return all(e["deviation"] <= e["bound"] + 1e-12 for e in self.entries)


def mimic_compare(dec: Decomposition, targets, xi: float) -> MimicReport:
    """Exact inner-product deviations between the state and its mimicking
    combination, per declared low-extent target (coeffs, stabilizer states)
    with sum |c_i| <= xi.  Each deviation obeys sum|c_i| * sqrt(eps); the
    fidelity gap over the whole class obeys 3 * xi * sqrt(eps)."""
    structured = dec.structured_vector()
    psi_amps = dec.reconstruction()
    root_eps = float(np.sqrt(dec.eps))
    entries = []
    for coeffs, stabs in targets:
        csum = sum(abs(c) for c in coeffs)
        if csum > xi + 1e-9:
            raise ValueError("target coefficient mass exceeds the declared extent")
        tvec = stab_combination(dec.n, zip(coeffs, stabs))
        deviation = abs(np.vdot(tvec, psi_amps) - np.vdot(tvec, structured))
        entries.append(
            {
                "coeff_mass": csum,
                "deviation": float(deviation),
                "bound": csum * root_eps,
            }
        )
    eps_prime = xi * root_eps
    return MimicReport(entries, dec.eps, eps_prime, 3.0 * eps_prime)

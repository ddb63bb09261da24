"""Golden ledgers: the exact charges of small seeded runs.

Each expected ledger below was recorded from the run it names.  Any dropped,
added or altered charge (a changed count, a renamed subroutine, a draw moved
so that a later count shifts) fails here; a change that means to alter the
accounting updates these literals and says why.
"""

import numpy as np
import pytest

from stabcorrect.harness import ExperimentConfig, run
from stabcorrect.iterate import base_learner_bruteforce, iterate_robust
from stabcorrect.ledger import CostLedger
from stabcorrect.statevec import random_state

FIELDS = ("copies_consumed", "queries_U", "queries_conU", "gate_count")

COMBO4 = {"kind": "combo", "n": 4, "terms": [
    {"coeff": [0.95, 0.0], "generators": ["+ZIII", "+IZII", "+IIZI", "+IIIZ"]},
    {"coeff": [0.3, 0.0], "generators": ["+XIII", "+IXII", "+IIXI", "+IIIX"]},
]}

# The two selfcorrect entries keep the names of the covering oracles they were
# first recorded with (the planted groups, and a threshold span); both now run
# the one pipeline, which covers the collected set by its own span.
CONFIGS = {
    "selfcorrect_planted": {
        "command": "selfcorrect", "state": COMBO4, "seed": 4,
    },
    "selfcorrect_threshold_span": {
        "command": "selfcorrect", "state": {"kind": "tdoped", "n": 4, "t": 1}, "seed": 0,
    },
    "decompose_robust": {
        "command": "decompose", "state": {"kind": "tdoped", "n": 5, "t": 1},
        "params": {"t": 1, "learner": "self_correct"}, "seed": 1,
    },
    "decompose_robust_bruteforce": {
        "command": "decompose", "state": {"kind": "haar", "n": 4},
        "params": {"learner": "bruteforce", "eps": 0.05}, "seed": 0,
    },
    "decompose_error_free": {
        "command": "decompose", "state": {"kind": "tdoped", "n": 3, "t": 2},
        "params": {"loop": "error_free", "learner": "bruteforce"}, "seed": 5,
    },
    "learn_extent": {
        "command": "learn-extent", "state": {"kind": "tdoped", "n": 3, "t": 1},
        "params": {"xi": 1.5}, "seed": 6,
    },
    "analyze_sampled": {
        "command": "analyze", "state": {"kind": "haar", "n": 3},
        "params": {"mode": "sampled", "delta": 0.1}, "seed": 7,
    },
    "test_sampled": {
        "command": "test", "state": {"kind": "haar", "n": 3},
        "params": {"eps1": 0.9, "eps2": 0.1, "mode": "sampled"}, "seed": 8,
    },
}

# name: (totals, {subroutine: row}), each a tuple in FIELDS order.  The lcu
# gates count each term's affine-phase preparation alone (H layer, S, Z and
# CZ, CNOT fan-out, X): its circuit prepares the term up to an 8th root of
# unity, which the term's coefficient absorbs, so no gate goes to the global
# phase.  They were recorded again when the preparation took that form, and
# only the lcu gate counts and the gate totals moved.
#
# The three self-correction entries were recorded again when the membership
# walk became lazy: it runs and charges only the edge tests its decisions
# read (the neighbor stage in blocks), so the edge_test counts fell, and the
# moved draw order changed the collected sets and with them the measure and
# fidelity_shadows counts.
#
# decompose_robust and selfcorrect_threshold_span were recorded again when
# the canonicalizer placed its center with the layered reduction that
# preparation runs: the frames' circuits are shorter, so their apply_circuit
# gates and the gate totals fell (44 to 19 and 19 to 11), and no other count
# moved.
GOLDEN = {
    "analyze_sampled": (
        (15210, 0, 0, 0),
        {
            "bell_difference": (6084, 0, 0, 0),
            "gowers_sampled": (9126, 0, 0, 0),
        },
    ),
    "decompose_error_free": (
        (131071999999999904, 0, 52, 104),
        {
            "gowers_estimate": (131071999999999904, 0, 0, 0),
            "lcu": (0, 0, 52, 104),
        },
    ),
    "decompose_robust": (
        (8388608011462196904, 0, 52, 279),
        {
            "apply_circuit": (0, 0, 0, 19),
            "bell_difference": (43696, 0, 0, 0),
            "edge_test": (11462135300, 0, 0, 0),
            "fidelity_shadows": (2124, 0, 0, 0),
            "gowers_estimate": (8388607999999993856, 0, 0, 0),
            "lcu": (0, 0, 52, 260),
            "measure": (80, 0, 0, 0),
            "retention": (21848, 0, 0, 0),
        },
    ),
    "decompose_robust_bruteforce": (
        (1048575999999999232, 0, 316, 2296),
        {
            "gowers_estimate": (1048575999999999232, 0, 0, 0),
            "lcu": (0, 0, 316, 2296),
        },
    ),
    "iterate_robust_hadamard": (
        (1048575999999999232, 0, 1424008508982023538, 2203),
        {
            "gowers_estimate": (1048575999999999232, 0, 0, 0),
            "hadamard_test": (0, 0, 1424008508982022942, 0),
            "lcu": (0, 0, 596, 2203),
        },
    ),
    "learn_extent": (
        (2154766361091613284069984436224, 0, 52, 156),
        {
            "gowers_estimate": (2154766361091613284069984436224, 0, 0, 0),
            "lcu": (0, 0, 52, 156),
        },
    ),
    "selfcorrect_planted": (
        (3262420883, 0, 0, 0),
        {
            "apply_circuit": (0, 0, 0, 0),
            "bell_difference": (26796, 0, 0, 0),
            "edge_test": (3262379736, 0, 0, 0),
            "fidelity_shadows": (945, 0, 0, 0),
            "measure": (8, 0, 0, 0),
            "retention": (13398, 0, 0, 0),
        },
    ),
    "selfcorrect_threshold_span": (
        (3224815569, 0, 0, 11),
        {
            "apply_circuit": (0, 0, 0, 11),
            "bell_difference": (16904, 0, 0, 0),
            "edge_test": (3224789260, 0, 0, 0),
            "fidelity_shadows": (945, 0, 0, 0),
            "measure": (8, 0, 0, 0),
            "retention": (8452, 0, 0, 0),
        },
    ),
    "test_sampled": (
        (34158, 0, 0, 0),
        {
            "bell_difference": (22772, 0, 0, 0),
            "gowers_sampled": (11386, 0, 0, 0),
        },
    ),
}

# name: the record outputs that a seeded run's estimates decide, pinned
# beside its ledger, so that a change of draws that leaves the charges as
# they are (a reordered or extra draw) fails here too.
OUTPUTS = {
    "analyze_sampled": {"proxy": 0.2268244575936884, "u3pow8": 0.3346482577251808, "mode": "sampled"},
    "test_sampled": {"verdict": "no"},
}


def _ledger(totals, breakdown):
    return {
        "totals": dict(zip(FIELDS, totals)),
        "breakdown": {name: dict(zip(FIELDS, row)) for name, row in breakdown.items()},
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_command_ledger_is_golden(name):
    rec = run(ExperimentConfig.from_json(CONFIGS[name]))[0]
    assert rec.ledger == _ledger(*GOLDEN[name])
    pinned = OUTPUTS.get(name, {})
    assert {key: rec.outputs[key] for key in pinned} == pinned


def test_hadamard_robust_loop_ledger_is_golden():
    rng = np.random.default_rng(0)
    psi = random_state(3, rng)
    ledger = CostLedger()
    iterate_robust(psi, 0.05, base_learner_bruteforce(), ledger, rng, estimator="hadamard")
    assert ledger.to_json() == _ledger(*GOLDEN["iterate_robust_hadamard"])

"""Simulated resource accounting.

Every sampling or query primitive charges a named subroutine; totals are a
derived view over the per-subroutine breakdown, so the bookkeeping identity
``totals == sum(breakdown)`` holds by construction.  Counters only grow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

_FIELDS = ("copies_consumed", "queries_U", "queries_conU", "gate_count")


@dataclass
class CostLedger:
    breakdown: dict[str, dict[str, int]] = field(default_factory=dict)

    def charge(
        self,
        subroutine: str,
        *,
        copies: int = 0,
        queries_U: int = 0,
        queries_conU: int = 0,
        gates: int = 0,
    ) -> None:
        if min(copies, queries_U, queries_conU, gates) < 0:
            raise ValueError("ledger charges must be nonnegative")
        row = self.breakdown.setdefault(
            subroutine, {f: 0 for f in _FIELDS}
        )
        row["copies_consumed"] += copies
        row["queries_U"] += queries_U
        row["queries_conU"] += queries_conU
        row["gate_count"] += gates

    @property
    def totals(self) -> dict[str, int]:
        out = {f: 0 for f in _FIELDS}
        for row in self.breakdown.values():
            for f in _FIELDS:
                out[f] += row[f]
        return out

    def to_json(self) -> dict:
        return {"totals": self.totals, "breakdown": self.breakdown}

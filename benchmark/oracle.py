"""Checks computed apart from the program under test.

Nothing here imports stabcorrect.  Pauli strings use the program's documented
text form: an optional sign ("+" or "-") followed by one of I, X, Y, Z per
qubit, character q acting on qubit q, and qubit q is bit q of a basis index.
A stabilizer state's vector is rebuilt by projecting a fixed start vector
onto the joint +1 eigenspace of its generators, then fixing the documented
global phase: the first nonzero amplitude is real and positive.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9

_START_SEED = 20251017


class CheckFailed(Exception):
    """An output of the program disagrees with the independent recomputation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Pauli strings


def parse_pauli(text: str) -> tuple[int, int, int, int]:
    """(sign, x bits, z bits, n) of a Hermitian signed Pauli string."""
    sign = 1
    if text[:1] in "+-":
        sign = -1 if text[0] == "-" else 1
        text = text[1:]
    x = z = 0
    for q, ch in enumerate(text):
        if ch in "XY":
            x |= 1 << q
        if ch in "ZY":
            z |= 1 << q
        if ch not in "IXYZ":
            raise CheckFailed(f"not a Hermitian Pauli string: {text!r}")
    return sign, x, z, len(text)


def format_pauli(sign: int, x: int, z: int, n: int) -> str:
    chars = "IXZY"
    body = "".join(chars[((x >> q) & 1) | (((z >> q) & 1) << 1)] for q in range(n))
    return ("-" if sign < 0 else "+") + body


def symplectic(x1: int, z1: int, x2: int, z2: int) -> int:
    return ((x1 & z2).bit_count() + (z1 & x2).bit_count()) & 1


def apply_pauli(vec: np.ndarray, sign: int, x: int, z: int) -> np.ndarray:
    """P|j> = sign * i^{|x&z|} * (-1)^{|z&j|} |j xor x>  (Y = iXZ per qubit)."""
    j = np.arange(vec.shape[0], dtype=np.uint64)
    parity = (np.bitwise_count(j & np.uint64(z)) & 1).astype(np.float64)
    factor = sign * (1j ** ((x & z).bit_count() % 4))
    out = np.empty_like(vec)
    out[(j ^ np.uint64(x)).astype(np.int64)] = factor * (1.0 - 2.0 * parity) * vec
    return out


# ---------------------------------------------------------------------------
# GF(2)


def gf2_rank(vectors) -> int:
    pivots: dict[int, int] = {}
    for v in vectors:
        v = int(v)
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def intersection_dim(a, b) -> int:
    a, b = list(a), list(b)
    return gf2_rank(a) + gf2_rank(b) - gf2_rank(a + b)


def label_vector(x: int, z: int, n: int) -> int:
    return x | (z << n)


# ---------------------------------------------------------------------------
# stabilizer vectors


def stabilizer_vector(generators: list[str]) -> np.ndarray:
    """The state fixed by n commuting, independent signed Paulis."""
    paulis = [parse_pauli(g) for g in generators]
    n = paulis[0][3]
    require(all(p[3] == n for p in paulis), "generators of mixed length")
    require(len(paulis) == n, f"{len(paulis)} generators for {n} qubits")
    for i, (_, x1, z1, _) in enumerate(paulis):
        for _, x2, z2, _ in paulis[i + 1:]:
            require(symplectic(x1, z1, x2, z2) == 0, "generators do not commute")
    require(
        gf2_rank(label_vector(x, z, n) for _, x, z, _ in paulis) == n,
        "generators are dependent",
    )
    rng = np.random.default_rng(_START_SEED)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    for sign, x, z, _ in paulis:
        vec = 0.5 * (vec + apply_pauli(vec, sign, x, z))
    norm = float(np.linalg.norm(vec))
    require(norm > 1e-8, "projection onto the stabilized space vanished")
    vec /= norm
    lead = vec[np.flatnonzero(np.abs(vec) > 1e-6)[0]]
    vec *= abs(lead) / lead
    for sign, x, z, _ in paulis:
        require(
            np.linalg.norm(apply_pauli(vec, sign, x, z) - vec) < TOL,
            "projected vector is not stabilized by its generators",
        )
    return vec


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2)


def check_ledger(ledger: dict) -> None:
    """The bookkeeping identity totals == sum(breakdown), field by field."""
    totals = ledger["totals"]
    for name in totals:
        summed = sum(row[name] for row in ledger["breakdown"].values())
        require(summed == totals[name], f"ledger {name}: total {totals[name]} != sum {summed}")


# ---------------------------------------------------------------------------
# random stabilizer groups (input generation)


def random_clifford_image(gens, n: int, rng: np.random.Generator, length: int):
    """Conjugate signed Paulis (sign, x, z) by a random H/S/CNOT circuit.

    Aaronson-Gottesman update rules for U P U^dagger with Y = iXZ.
    """
    rows = [[1 if s > 0 else -1, x, z] for s, x, z in gens]
    for _ in range(length):
        kind = int(rng.integers(3 if n > 1 else 2))
        if kind == 2:
            c = int(rng.integers(n))
            t = int(rng.integers(n - 1))
            t = t if t < c else t + 1
            cb, tb = 1 << c, 1 << t
            for row in rows:
                _, x, z = row
                xc, zt = bool(x & cb), bool(z & tb)
                xt, zc = bool(x & tb), bool(z & cb)
                if xc and zt and (xt == zc):
                    row[0] = -row[0]
                if xc:
                    x ^= tb
                if zt:
                    z ^= cb
                row[1], row[2] = x, z
        else:
            b = 1 << int(rng.integers(n))
            for row in rows:
                _, x, z = row
                if (x & b) and (z & b):
                    row[0] = -row[0]
                if kind == 0:  # H swaps X and Z on the qubit
                    xq, zq = x & b, z & b
                    x = (x & ~b) | zq
                    z = (z & ~b) | xq
                else:  # S maps X -> Y, Y -> -X
                    if x & b:
                        z ^= b
                row[1], row[2] = x, z
    return [(s, x, z) for s, x, z in rows]

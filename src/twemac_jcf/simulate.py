"""Finite-length validation on sampled extended Tanner graphs.

Variables carry pair values (x_A[n], x_B[n]); an observation assigns each
variable one of the five knowledge types.  `peel_decode` runs type-level
message passing to its fixed point (knowledge only grows, so the fixed
point is schedule-independent).  `brute_force_jcf` enumerates codeword
pairs consistent with the observation and is the exact reference decoder
for small codes.

Internally knowledge is a 3-bit mask (bit 1 = x_A, bit 2 = x_B,
bit 4 = xor): the check operator is bitwise AND, the variable operator is
OR followed by closure (two distinct known components determine all
three).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Union

import numpy as np

from .channel import ChannelFamily, puncture, sample_states, validate_dist
from .de_coupled import Ensemble

PSEUDO = -1  # pseudo-variable marker in check socket lists

# type 1..5 -> knowledge bitmask; index 0 unused
TYPE_TO_MASK = np.array([0, 0, 1, 2, 4, 7], dtype=np.int64)
# popcount over masks 0..7
_POPC = np.array([0, 1, 1, 2, 1, 2, 2, 3], dtype=np.int64)
# closed mask -> type
MASK_TO_TYPE = np.zeros(8, dtype=np.int64)
MASK_TO_TYPE[[0, 1, 2, 4, 7]] = [1, 2, 3, 4, 5]


def _closure(m: np.ndarray) -> np.ndarray:
    """Two distinct known components imply full knowledge."""
    return np.where(_POPC[m] >= 2, 7, m)


@dataclass
class EtgInstance:
    """A sampled extended Tanner graph.

    check_sockets[c] lists the variable index behind each socket of check c
    (PSEUDO for boundary sockets fixed to the known all-zero pair).
    Degrees may be irregular for graphs loaded from explicit parity
    matrices; d_v / d_c are the nominal ensemble degrees when applicable.
    """

    n_vars: int
    check_sockets: List[np.ndarray]
    d_v: Optional[int] = None
    d_c: Optional[int] = None
    var_positions: Optional[np.ndarray] = None
    check_positions: Optional[np.ndarray] = None

    @property
    def n_checks(self) -> int:
        return len(self.check_sockets)

    def edge_arrays(self):
        """(evar, echeck, socket_count, pseudo_count) for the real sockets."""
        evar, echeck, pseudo = [], [], np.zeros(self.n_checks, dtype=np.int64)
        counts = np.zeros(self.n_checks, dtype=np.int64)
        for c, sockets in enumerate(self.check_sockets):
            counts[c] = len(sockets)
            for v in sockets:
                if v == PSEUDO:
                    pseudo[c] += 1
                else:
                    evar.append(int(v))
                    echeck.append(c)
        return (
            np.asarray(evar, dtype=np.int64),
            np.asarray(echeck, dtype=np.int64),
            counts,
            pseudo,
        )

    def parity_matrix(self) -> np.ndarray:
        """Dense GF(2) parity-check matrix; multi-edges cancel mod 2."""
        h = np.zeros((self.n_checks, self.n_vars), dtype=np.int64)
        for c, sockets in enumerate(self.check_sockets):
            for v in sockets:
                if v != PSEUDO:
                    h[c, v] ^= 1
        return h

    def is_cycle_free(self) -> bool:
        """True iff the bipartite multigraph (real sockets only) is a forest."""
        n = self.n_vars + self.n_checks
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for c, sockets in enumerate(self.check_sockets):
            for v in sockets:
                if v == PSEUDO:
                    continue
                a, b = find(int(v)), find(self.n_vars + c)
                if a == b:
                    return False
                parent[a] = b
        return True


def sample_regular_graph(
    d_v: int, d_c: int, n_vars: int, rng: np.random.Generator
) -> EtgInstance:
    """Uniform configuration-model (d_v, d_c) graph; multi-edges allowed."""
    if (n_vars * d_v) % d_c != 0:
        raise ValueError(f"N*d_v = {n_vars * d_v} not divisible by d_c = {d_c}")
    sockets = rng.permutation(np.repeat(np.arange(n_vars), d_v))
    return EtgInstance(
        n_vars=n_vars,
        check_sockets=list(sockets.reshape(-1, d_c)),
        d_v=d_v,
        d_c=d_c,
    )


def sample_coupled_graph(
    e: Ensemble, m_per_pos: int, rng: np.random.Generator
) -> EtgInstance:
    """Sample a (d_v, d_c, L, w) protograph instance with M variables per position.

    Each variable position splits its M*d_v sockets evenly across the w
    check positions above it; check sockets that would reach variables
    outside -L..L are pseudo.  Requires w | M*d_v on top of the usual
    d_c | M*d_v so that degrees come out exact.
    """
    md = m_per_pos * e.d_v
    if md % e.d_c != 0:
        raise ValueError(f"M*d_v = {md} not divisible by d_c = {e.d_c}")
    if md % e.w != 0:
        raise ValueError(f"M*d_v = {md} not divisible by w = {e.w}")
    nvp, ncp = e.n_var_positions, e.n_chk_positions
    per_pair = md // e.w
    checks_per_pos = md // e.d_c

    # chunks[(p, q)] = variable sockets from position p matched to check position q
    chunks = {}
    for p in range(nvp):
        var_ids = np.arange(p * m_per_pos, (p + 1) * m_per_pos)
        order = rng.permutation(np.repeat(var_ids, e.d_v)).reshape(e.w, per_pair)
        for j in range(e.w):
            chunks[(p, p + j)] = order[j]

    check_sockets: List[np.ndarray] = []
    check_positions = []
    pseudo_chunk = np.full(per_pair, PSEUDO, dtype=np.int64)
    for q in range(ncp):
        parts = [
            chunks.get((q - j, q), pseudo_chunk) for j in range(e.w)
        ]
        socket_vars = rng.permutation(np.concatenate(parts))
        for row in socket_vars.reshape(checks_per_pos, e.d_c):
            check_sockets.append(row)
            check_positions.append(q - e.L)

    var_positions = np.repeat(np.arange(-e.L, e.L + 1), m_per_pos)
    return EtgInstance(
        n_vars=nvp * m_per_pos,
        check_sockets=check_sockets,
        d_v=e.d_v,
        d_c=e.d_c,
        var_positions=var_positions,
        check_positions=np.asarray(check_positions),
    )


@dataclass
class Observation:
    """Per-variable channel types and the values they reveal.

    Value arrays use -1 for components the type does not reveal.
    """

    types: np.ndarray
    val_a: np.ndarray
    val_b: np.ndarray
    val_xor: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.types)
        if np.any((t < 1) | (t > 5)):
            raise ValueError("types must be integers 1..5")
        rev_a = (t == 2) | (t == 5)
        rev_b = (t == 3) | (t == 5)
        rev_x = t == 4
        for rev, vals, name in (
            (rev_a, self.val_a, "val_a"),
            (rev_b, self.val_b, "val_b"),
            (rev_x, self.val_xor, "val_xor"),
        ):
            if np.any((np.asarray(vals) >= 0) != rev):
                raise ValueError(f"{name} must be revealed exactly where the type says")

    @classmethod
    def from_transmitted(cls, types, x_a, x_b) -> "Observation":
        t = np.asarray(types, dtype=np.int64)
        x_a = np.asarray(x_a, dtype=np.int64)
        x_b = np.asarray(x_b, dtype=np.int64)
        val_a = np.where((t == 2) | (t == 5), x_a, -1)
        val_b = np.where((t == 3) | (t == 5), x_b, -1)
        val_xor = np.where(t == 4, x_a ^ x_b, -1)
        return cls(t, val_a, val_b, val_xor)

    @classmethod
    def all_zero(cls, types) -> "Observation":
        t = np.asarray(types, dtype=np.int64)
        return cls.from_transmitted(t, np.zeros_like(t), np.zeros_like(t))


def peel_decode(g: EtgInstance, obs: Union[Observation, np.ndarray]) -> np.ndarray:
    """Type-level message passing to the fixed point; returns per-variable types.

    Pseudo sockets emit type 5.  The final per-variable type folds the
    channel type with all incoming check messages; x_xor is recovered at a
    variable iff its final type is 4 or 5.
    """
    types = obs.types if isinstance(obs, Observation) else np.asarray(obs)
    if len(types) != g.n_vars:
        raise ValueError("observation length does not match the graph")
    ch = TYPE_TO_MASK[np.asarray(types, dtype=np.int64)]
    evar, echeck, counts, pseudo = g.edge_arrays()
    nc = g.n_checks

    if evar.size == 0:
        return MASK_TO_TYPE[ch]

    v2c = ch[evar]
    bits = (1, 2, 4)
    while True:
        # check -> variable: bit survives iff all other sockets carry it
        c2v = np.zeros_like(v2c)
        for b in bits:
            has = (v2c & b) != 0
            cnt = np.bincount(echeck, weights=has, minlength=nc) + pseudo
            ok = (cnt[echeck] - has) == (counts[echeck] - 1)
            c2v |= b * ok
        # variable -> check: channel plus any other incoming check message
        out = np.zeros_like(v2c)
        for b in bits:
            has = (c2v & b) != 0
            cnt = np.bincount(evar, weights=has, minlength=g.n_vars)
            ok = (cnt[evar] - has) >= 1
            out |= b * ok
        out = _closure(out | ch[evar])
        if np.array_equal(out, v2c):
            break
        v2c = out

    final = ch.copy()
    for b in bits:
        has = (c2v & b) != 0
        cnt = np.bincount(evar, weights=has, minlength=g.n_vars)
        final |= b * (cnt >= 1)
    return MASK_TO_TYPE[_closure(final)]


def gf2_nullspace(h: np.ndarray) -> np.ndarray:
    """Basis of the GF(2) nullspace of h, one codeword per row."""
    h = (np.asarray(h, dtype=np.int64) % 2).copy()
    rows, cols = h.shape
    pivots = []
    r = 0
    for c in range(cols):
        sel = np.flatnonzero(h[r:, c]) + r
        if sel.size == 0:
            continue
        if sel[0] != r:
            h[[r, sel[0]]] = h[[sel[0], r]]
        for rr in range(rows):
            if rr != r and h[rr, c]:
                h[rr] ^= h[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = h[i, c]
    return basis


def enumerate_codewords(h: np.ndarray, max_dim: int = 12) -> np.ndarray:
    """All codewords of the code with parity-check matrix h."""
    basis = gf2_nullspace(h)
    k = basis.shape[0]
    if k > max_dim:
        raise ValueError(f"code dimension {k} exceeds enumeration limit {max_dim}")
    sel = (np.arange(2**k)[:, None] >> np.arange(k)) & 1
    return (sel @ basis) % 2


def brute_force_jcf(h: np.ndarray, obs: Observation) -> List[Set[int]]:
    """Per-bit sets of xor values over codeword pairs consistent with obs.

    A bit is recoverable iff its set is a singleton.  Raises ValueError
    when no pair is consistent (invalid observation).
    """
    code = enumerate_codewords(h)
    n = code.shape[1]
    t = np.asarray(obs.types)
    pos_a = np.flatnonzero((t == 2) | (t == 5))
    pos_b = np.flatnonzero((t == 3) | (t == 5))
    pos_x = np.flatnonzero(t == 4)
    ok_a = np.all(code[:, pos_a] == obs.val_a[pos_a], axis=1)
    ok_b = np.all(code[:, pos_b] == obs.val_b[pos_b], axis=1)
    ca, cb = code[ok_a], code[ok_b]
    vx = obs.val_xor[pos_x]

    seen = np.zeros((n, 2), dtype=bool)
    any_pair = False
    for a in ca:
        xs = a[None, :] ^ cb
        ok = np.all(xs[:, pos_x] == vx, axis=1)
        if not np.any(ok):
            continue
        any_pair = True
        xs = xs[ok]
        seen[:, 0] |= np.any(xs == 0, axis=0)
        seen[:, 1] |= np.any(xs == 1, axis=0)
    if not any_pair:
        raise ValueError("observation is inconsistent with every codeword pair")
    return [
        {v for v in (0, 1) if seen[i, v]} for i in range(n)
    ]


@dataclass
class FailureStats:
    """Monte Carlo failure estimates with normal-approximation half-widths."""

    bit_rate: float
    block_rate: float
    bit_halfwidth: float
    block_halfwidth: float
    trials: int
    n_vars: int


def failure_rate(
    e: Ensemble,
    family: ChannelFamily,
    eps: float,
    size: int,
    trials: int,
    seed: int,
    p_pi: float = 0.0,
) -> FailureStats:
    """Average peel-decoding failure over sampled graphs and observations.

    `size` is N for a regular ensemble and M (variables per position) for a
    coupled one.  The all-zero codeword pair is assumed; for erasure-type
    channels decodability depends only on the type pattern.
    """
    rng = np.random.default_rng(seed)
    bit_rates = np.zeros(trials)
    block_fail = np.zeros(trials)
    n_vars = 0
    for t in range(trials):
        if e.coupled:
            g = sample_coupled_graph(e, size, rng)
        else:
            g = sample_regular_graph(e.d_v, e.d_c, size, rng)
        n_vars = g.n_vars
        pch = family.eval(eps)
        if p_pi:
            pch = puncture(pch, p_pi)
        types = sample_states(pch, g.n_vars, rng)
        out = peel_decode(g, types)
        failed = ~((out == 4) | (out == 5))
        bit_rates[t] = failed.mean()
        block_fail[t] = 1.0 if failed.any() else 0.0
    z = 1.96
    return FailureStats(
        bit_rate=float(bit_rates.mean()),
        block_rate=float(block_fail.mean()),
        bit_halfwidth=float(z * bit_rates.std(ddof=1) / np.sqrt(trials)) if trials > 1 else float("nan"),
        block_halfwidth=float(z * block_fail.std(ddof=1) / np.sqrt(trials)) if trials > 1 else float("nan"),
        trials=trials,
        n_vars=n_vars,
    )


def load_parity_matrix(path: str) -> np.ndarray:
    """Read a dense 0/1 parity matrix: first line 'rows cols', then rows."""
    with open(path) as fh:
        tokens = fh.readline().split()
        rows, cols = int(tokens[0]), int(tokens[1])
        h = np.zeros((rows, cols), dtype=np.int64)
        for r in range(rows):
            line = fh.readline().strip().replace(" ", "")
            if len(line) != cols:
                raise ValueError(f"row {r} has {len(line)} entries, expected {cols}")
            h[r] = [int(ch) for ch in line]
    return h


def graph_from_parity(h: np.ndarray) -> EtgInstance:
    """Extended Tanner graph of an explicit parity matrix (simple graph)."""
    h = np.asarray(h, dtype=np.int64) % 2
    sockets = [np.flatnonzero(row) for row in h]
    return EtgInstance(n_vars=h.shape[1], check_sockets=sockets)

"""Finite-length validation on sampled extended Tanner graphs.

Variables carry pair values (x_A[n], x_B[n]).  The decoder's knowledge of
one pair is one of five types:

    1 = nothing known
    2 = x_A known
    3 = x_B known
    4 = x_A xor x_B known
    5 = everything known

Graphs of both ensembles come from `sample_coupled_graph`; the regular
ensemble is its chain of one position, whose M variables are the code's N.

A channel observation is a type array, one type per variable; the all-zero
codeword pair is assumed, since on erasure-type channels decodability
depends only on the type pattern.  `peel_decode` runs type-level message
passing to its fixed point in flooding rounds in which only the nodes whose
inputs changed recompute, so each round sends a full flooding round's
messages (knowledge only grows, so the fixed point is schedule-independent).
A round costs the edges of the nodes that changed: the nodes whose inputs
gained a bit are marked in a bool array, the graph's node->edge tables (a
check's edges are a run of the check-major list, a variable's a run of
`var_edges`) turn them into edges, and each such node turns its packed bit
counts into two masks once, from which every edge's message follows.
The exact reference decoder, which enumerates the codeword pairs consistent
with an observation of a small code, is test code (`tests/oracles.py`).

Knowledge is a 3-bit mask (bit 1 = x_A, bit 2 = x_B, bit 4 = xor), and the
types are the five closed masks 0, 1, 2, 4 and 7.  The check operator, the
lattice meet, is bitwise AND; the variable operator, the join, is OR
followed by `closure` (two distinct known components determine all three).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelFamily, sample_states
from .de_coupled import Ensemble

# type 1..5 -> knowledge bitmask; index 0 unused
TYPE_TO_MASK = np.array([0, 0, 1, 2, 4, 7], dtype=np.int64)
# popcount over masks 0..7
_POPC = np.array([0, 1, 1, 2, 1, 2, 2, 3], dtype=np.int64)
# closed mask -> type
MASK_TO_TYPE = np.zeros(8, dtype=np.int64)
MASK_TO_TYPE[[0, 1, 2, 4, 7]] = [1, 2, 3, 4, 5]


def closure(m: np.ndarray) -> np.ndarray:
    """Two distinct known components imply full knowledge."""
    return np.where(_POPC[m] >= 2, 7, m)


# _PACK[m]: bits 1, 2, 4 of mask m as counts in 21-bit fields (node degree < 2**21)
_SHIFT, _BITS = 21, TYPE_TO_MASK[2:5].tolist()
_PACK = np.array([sum(1 << (_SHIFT * i) for i, b in enumerate(_BITS) if m & b) for m in range(8)],
                 dtype=np.uint64)
# per field: its low 20 bits, and its top bit
_LOW = np.uint64(sum(((1 << (_SHIFT - 1)) - 1) << (_SHIFT * i) for i in range(3)))
_TOP = np.uint64(sum(1 << (_SHIFT * i + _SHIFT - 1) for i in range(3)))
# times _GATHER, the top bits of fields 0, 1, 2 land on bits 61, 62, 63, and no
# other product reaches those bits
_GATHER = np.uint64(sum(1 << (2 * _SHIFT - 1 - (_SHIFT - 1) * i) for i in range(3)))
_CLOSE = closure(np.arange(8)).astype(np.int8)


def _masks(q: np.ndarray):
    """Masks of the bits whose packed count in q is >= 1 and >= 2.

    A field is nonzero iff its top bit is set or its low 20 bits plus
    2**20 - 1 carry into the top bit; the sum stays within the field.  A
    field is >= 2 iff half of it, rounded down, is nonzero.
    """
    ge1 = (((q & _LOW) + _LOW) | q) & _TOP
    ge2 = (((q >> np.uint64(1)) & _LOW) + _LOW) & _TOP
    return tuple(((m * _GATHER) >> np.uint64(3 * _SHIFT - 2)).astype(np.int8) for m in (ge1, ge2))


@dataclass
class EtgInstance:
    """A sampled extended Tanner graph as one edge list.

    Edge k joins variable evar[k] to check echeck[k], and multi-edges are
    allowed.  Edges are listed check-major: echeck is non-decreasing, so
    check c's edges are the run cptr[c]..cptr[c+1] - 1 of the list.
    Boundary sockets of a coupled chain, fixed to the known all-zero pair,
    are not stored: they carry type 5, the identity of the check meet.
    var_edges lists the edges grouped by variable, variable 0's first, and
    variable v's are its entries vptr[v]..vptr[v+1] - 1; the sampler builds
    it from its socket ids, and an instance built by hand gets it from a
    stable argsort of evar.  Construction raises ValueError on a negative
    node count, on evar, echeck and var_edges that are not flat arrays of
    one length and of integers, on a node id outside 0..n - 1, on an edge
    list that is not check-major, and on a var_edges that is not a
    permutation of the edge ids grouped by variable; empty edge lists make
    a graph with no edges.
    """

    n_vars: int
    n_checks: int
    evar: np.ndarray
    echeck: np.ndarray
    var_edges: np.ndarray | None = None
    cptr: np.ndarray = field(init=False, repr=False)
    vptr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if min(self.n_vars, self.n_checks) < 0:
            raise ValueError(f"n_vars, n_checks must be >= 0, got {self.n_vars}, {self.n_checks}")
        evar, echeck = np.asarray(self.evar), np.asarray(self.echeck)
        ve = np.asarray(np.argsort(evar, kind="stable") if self.var_edges is None
                        else self.var_edges)
        if not evar.size:  # numpy reads [] as float64
            evar, echeck, ve = (a.astype(np.int64) for a in (evar, echeck, ve))
        self.evar, self.echeck, self.var_edges = evar, echeck, ve
        for name, ids, n, kind in (("evar", evar, self.n_vars, "node"),
                                   ("echeck", echeck, self.n_checks, "node"),
                                   ("var_edges", ve, evar.size, "edge")):
            if ids.shape != (evar.size,):
                raise ValueError(f"{name} has shape {ids.shape}, expected ({evar.size},)")
            if not np.issubdtype(ids.dtype, np.integer):
                raise ValueError(f"{name} must hold integer {kind} ids, got dtype {ids.dtype}")
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                raise ValueError(f"{name} must lie in 0..{n - 1}, got {ids.min()}..{ids.max()}")
        if np.any(echeck[1:] < echeck[:-1]):
            raise ValueError("echeck must be non-decreasing: edges are listed check-major")
        if ve.size and (np.bincount(ve).max() > 1 or np.any((g := evar[ve])[1:] < g[:-1])):
            raise ValueError("var_edges must list each edge once, grouped by variable")
        self.cptr, self.vptr = _offsets(echeck, self.n_checks), _offsets(evar, self.n_vars)


def _check_sockets(e: Ensemble, m_per_pos: int, rng: np.random.Generator) -> np.ndarray:
    """Variable socket ids v*d_v + j in check socket order: check c owns
    entries c*d_c .. (c+1)*d_c - 1, and -1 marks a boundary socket."""
    md = m_per_pos * e.d_v
    ncp = e.n_chk_positions
    # chunks[q, j] = sockets of variable position q - j matched to check position q
    chunks = np.full((ncp, e.w, md // e.w), -1, dtype=np.int64)
    for p in range(e.n_var_positions):
        own = np.arange(p * md, (p + 1) * md)
        if e.w > 1:  # a check row of one chunk needs only the row shuffle below
            rng.shuffle(own)
        chunks[p + np.arange(e.w), np.arange(e.w)] = own.reshape(e.w, -1)
    for row in chunks.reshape(ncp, md):
        rng.shuffle(row)
    return chunks.ravel()


def sample_coupled_graph(
    e: Ensemble, m_per_pos: int, rng: np.random.Generator
) -> EtgInstance:
    """Sample a (d_v, d_c, L, w) protograph instance with M variables per position.

    Each variable position splits its M*d_v sockets evenly across the w
    check positions above it; check sockets that would reach variables
    outside -L..L are boundary sockets.  Variable v sits at position
    v // M - L and check c at c // (M*d_v/d_c) - L.  Requires w | M*d_v on
    top of the usual d_c | M*d_v so that degrees come out exact.  The regular
    ensemble (L = 0, w = 1) is one position of N = M variables, and its
    sample is the configuration model: one shuffle of the sockets.

    The shuffles move variable socket ids v*d_v + j, so where each socket
    lands also gives the variable's edges.
    """
    md = m_per_pos * e.d_v
    for k, name in ((e.d_c, "d_c"), (e.w, "w")):
        if md % k != 0:
            raise ValueError(f"size*d_v = {md} is not divisible by {name} = {k}")
    sockets = _check_sockets(e, m_per_pos, rng)
    real = sockets >= 0
    evar = sockets[real]
    del sockets  # free it before the tables are built
    var_edges = np.empty_like(evar)  # every variable socket is an edge
    var_edges[evar] = np.arange(evar.size)
    evar //= e.d_v
    n_checks = real.size // e.d_c
    echeck = np.repeat(np.arange(n_checks), real.reshape(n_checks, e.d_c).sum(1))
    return EtgInstance(e.n_var_positions * m_per_pos, n_checks, evar, echeck, var_edges)


def _type_array(types, n: int) -> np.ndarray:
    """An observation of n variables as an int64 array of types 1..5."""
    t = np.asarray(types)
    if t.shape != (n,):
        raise ValueError(f"observation has shape {t.shape}, expected ({n},)")
    if t.dtype.kind not in "iu" or np.any((t < 1) | (t > 5)):
        raise ValueError("types must be integers 1..5")
    return t.astype(np.int64, copy=False)


def _offsets(nodes: np.ndarray, n: int) -> np.ndarray:
    """ptr[k]..ptr[k+1] - 1: where node k's edges sit in a node->edge table,
    given each edge's node."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(nodes, minlength=n), out=ptr[1:])
    return ptr


def _expand(ptr: np.ndarray, nodes: np.ndarray):
    """Table positions of the edges of `nodes`, node by node, and their degrees."""
    start = ptr[nodes]
    deg = ptr[nodes + 1] - start
    return np.arange(deg.sum()) + np.repeat(start + deg - np.cumsum(deg), deg), deg


def peel_decode(g: EtgInstance, types: np.ndarray) -> np.ndarray:
    """Type-level message passing to the fixed point; returns per-variable types.

    A check passes a knowledge bit to a socket iff no other socket lacks
    it (boundary sockets, type 5, never lack one).  The final per-variable
    type folds the channel type with all incoming check messages; x_xor is
    recovered at a variable iff its final type is 4 or 5.

    Each round equals a flooding round, but only nodes with a changed input
    recompute.  Per-node bit counts grow by the bits the changed messages
    gain, and only the edges whose message gained update them.  A
    recomputing node turns its counts into ge1 and ge2, the masks of the
    bits counted at least once and at least twice; the bits that some other
    edge counts are then ge2 | (ge1 & ~own) for the edge's own bits.  The
    nodes that gained are marked in a bool array, and the graph's tables
    give their edges: a check's are a run of the check-major edge list,
    found through g.cptr, and a variable's a run of g.var_edges, found
    through g.vptr.  So a round costs the edges of the nodes that changed,
    not the whole graph; the peeler itself sorts and counts nothing.
    """
    ch = TYPE_TO_MASK[_type_array(types, g.n_vars)].astype(np.int8)
    evar, echeck = g.evar, g.echeck
    cdeg = np.diff(g.cptr)
    if max(cdeg.max(initial=0), np.diff(g.vptr).max(initial=0)) >> _SHIFT:
        raise ValueError(f"node degrees must be below 2**{_SHIFT}")
    v2c, c2v = ch[evar], np.zeros(evar.size, np.int8)  # message masks
    lack = np.zeros(g.n_checks, np.uint64)  # per check: sockets lacking each bit
    # the sums over each check's run of edges; a check with none keeps 0
    lack[cdeg > 0] = np.add.reduceat(_PACK[7 ^ v2c], g.cptr[:-1][cdeg > 0])
    has = np.zeros(g.n_vars, np.uint64)  # per variable: incoming messages with each bit
    vmark, cmark = np.zeros(g.n_vars, bool), np.zeros(g.n_checks, bool)
    nodes, e, deg = np.arange(g.n_checks), np.arange(evar.size), cdeg  # round 1 visits every check
    while e.size:
        # check half: a socket gets the bits that no other socket lacks
        ge1, ge2 = _masks(lack[nodes])
        new = 7 ^ (np.repeat(ge2, deg) | (np.repeat(ge1, deg) & v2c[e]))
        gain = new ^ c2v[e]
        keep = gain != 0
        e, gain = e[keep], gain[keep]
        c2v[e] ^= gain
        far = evar[e]
        np.add.at(has, far, _PACK[gain])
        vmark[far] = True
        nodes = np.flatnonzero(vmark)
        vmark[nodes] = False
        i, deg = _expand(g.vptr, nodes)
        e = g.var_edges[i]
        # variable half: the channel's bits and those of some other message, closed
        ge1, ge2 = _masks(has[nodes])
        new = _CLOSE[np.repeat(ch[nodes] | ge2, deg) | (np.repeat(ge1, deg) & ~c2v[e])]
        gain = new ^ v2c[e]
        keep = gain != 0
        e, gain = e[keep], gain[keep]
        v2c[e] ^= gain
        far = echeck[e]
        np.subtract.at(lack, far, _PACK[gain])
        cmark[far] = True
        nodes = np.flatnonzero(cmark)
        cmark[nodes] = False
        e, deg = _expand(g.cptr, nodes)
    return MASK_TO_TYPE[_CLOSE[ch | _masks(has)[0]]]


def wilson_interval(failures: int, trials: int):
    """95% Wilson score interval (lo, hi) of a binomial proportion; exactly
    0 at lo when nothing failed and exactly 1 at hi when everything did."""
    z2 = 1.96 * 1.96
    p = failures / trials
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = np.sqrt(z2 * p * (1 - p) / trials + z2 * z2 / (4 * trials * trials)) / denom
    lo = 0.0 if failures == 0 else float(center - half)
    hi = 1.0 if failures == trials else float(center + half)
    return lo, hi


@dataclass
class FailureStats:
    """Monte Carlo failure estimates.

    block_lo..block_hi is the 95% Wilson score interval of the block
    failure probability.  A trial's bit failure rate never exceeds its
    block failure indicator, so E[bit rate] <= P(block failure), and
    block_hi bounds both at 95% confidence, also when no trial fails.
    """

    bit_rate: float
    block_rate: float
    block_lo: float
    block_hi: float
    trials: int
    n_vars: int


def failure_rate(
    e: Ensemble,
    family: ChannelFamily,
    eps: float,
    size: int,
    trials: int,
    seed: int,
) -> FailureStats:
    """Average peel-decoding failure over sampled graphs and observations
    of `family.eval(eps)`, punctured when the family is (its `p_pi`).

    `size` is M, the variables per position, and each trial samples its
    graph with `sample_coupled_graph`.  The regular ensemble is the chain of
    one position, so there `size` is the code length N.  The all-zero
    codeword pair is assumed; for erasure-type channels decodability depends
    only on the type pattern.
    """
    if trials < 1 or size < 1:
        raise ValueError(f"trials and size must be >= 1, got {trials} and {size}")
    rng = np.random.default_rng(seed)
    pch = family.eval(eps)
    bit_rates = np.zeros(trials)
    failures = 0
    for t in range(trials):
        g = sample_coupled_graph(e, size, rng)
        out = peel_decode(g, sample_states(pch, g.n_vars, rng))
        del g  # free the graph before the next one is sampled
        failed = out < 4  # types 4 and 5 hold the xor
        bit_rates[t] = failed.mean()
        failures += bool(failed.any())
    lo, hi = wilson_interval(failures, trials)
    return FailureStats(
        bit_rate=float(bit_rates.mean()),
        block_rate=failures / trials,
        block_lo=lo,
        block_hi=hi,
        trials=trials,
        n_vars=e.n_var_positions * size,
    )

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
The exact reference decoder, which enumerates the codeword pairs consistent
with an observation of a small code, is test code (`tests/oracles.py`).

Knowledge is a 3-bit mask (bit 1 = x_A, bit 2 = x_B, bit 4 = xor), and the
types are the five closed masks 0, 1, 2, 4 and 7.  The check operator, the
lattice meet, is bitwise AND; the variable operator, the join, is OR
followed by `closure` (two distinct known components determine all three).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelFamily, effective_channel, sample_states
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
_PACK = np.array([sum(1 << (_SHIFT * i) for i, b in enumerate(_BITS) if m & b) for m in range(8)])


def _present(q: np.ndarray) -> np.ndarray:
    """Mask of the bits whose packed count in q is nonzero."""
    return sum((((q >> (_SHIFT * i)) & ((1 << _SHIFT) - 1)) != 0) * b for i, b in enumerate(_BITS))


@dataclass
class EtgInstance:
    """A sampled extended Tanner graph as one edge list.

    Edge k joins variable evar[k] to check echeck[k]; edges are listed in
    check-major socket order and multi-edges are allowed.  Boundary sockets
    of a coupled chain, fixed to the known all-zero pair, are not stored:
    they carry type 5, the identity of the check meet.
    """

    n_vars: int
    n_checks: int
    evar: np.ndarray
    echeck: np.ndarray


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
    """
    md = m_per_pos * e.d_v
    for k, name in ((e.d_c, "d_c"), (e.w, "w")):
        if md % k != 0:
            raise ValueError(f"size*d_v = {md} is not divisible by {name} = {k}")
    nvp, ncp = e.n_var_positions, e.n_chk_positions

    # chunks[q, j] = sockets of variable position q - j matched to check position q;
    # -1 marks a boundary socket
    chunks = np.full((ncp, e.w, md // e.w), -1, dtype=np.int64)
    for p in range(nvp):
        own = np.repeat(np.arange(p * m_per_pos, (p + 1) * m_per_pos), e.d_v)
        if e.w > 1:  # a check row of one chunk needs only the row shuffle below
            rng.shuffle(own)
        chunks[p + np.arange(e.w), np.arange(e.w)] = own.reshape(e.w, -1)
    for row in chunks.reshape(ncp, md):
        rng.shuffle(row)
    sockets = chunks.ravel()  # check c owns sockets[c*d_c : (c+1)*d_c]
    edges = np.flatnonzero(sockets >= 0)
    evar = sockets[edges]
    edges //= e.d_c
    return EtgInstance(nvp * m_per_pos, sockets.size // e.d_c, evar, edges)


def _type_array(types, n: int) -> np.ndarray:
    """An observation of n variables as an int64 array of types 1..5."""
    t = np.asarray(types, dtype=np.int64)
    if t.shape != (n,):
        raise ValueError(f"observation has shape {t.shape}, expected ({n},)")
    if np.any((t < 1) | (t > 5)):
        raise ValueError("types must be integers 1..5")
    return t


def peel_decode(g: EtgInstance, types: np.ndarray) -> np.ndarray:
    """Type-level message passing to the fixed point; returns per-variable types.

    A check passes a knowledge bit to a socket iff no other socket lacks
    it (boundary sockets, type 5, never lack one).  The final per-variable
    type folds the channel type with all incoming check messages; x_xor is
    recovered at a variable iff its final type is 4 or 5.

    Each round equals a flooding round, but only nodes with a changed input
    recompute; per-node bit counts grow by the bits the changed messages gain.
    """
    ch = TYPE_TO_MASK[_type_array(types, g.n_vars)]
    evar, echeck = g.evar, g.echeck
    if max(np.bincount(evar).max(initial=0), np.bincount(echeck).max(initial=0)) >> _SHIFT:
        raise ValueError(f"node degrees must be below 2**{_SHIFT}")
    v2c, c2v = ch[evar].astype(np.int8), np.zeros(evar.size, np.int8)  # message masks
    lack = np.zeros(g.n_checks, np.int64)  # per check: sockets lacking each bit
    np.add.at(lack, echeck, _PACK[7 ^ v2c])
    has = np.zeros(g.n_vars, np.int64)  # per variable: incoming messages with each bit
    e = np.arange(evar.size)  # the edges to recompute; round 1 visits every check
    while e.size:
        new = 7 ^ _present(lack[echeck[e]] - _PACK[7 ^ v2c[e]])  # bits no other socket lacks
        gain = new ^ c2v[e]
        np.add.at(has, evar[e], _PACK[gain])
        c2v[e] = new
        e = np.flatnonzero((np.bincount(evar[e[gain != 0]], minlength=g.n_vars) > 0)[evar])
        new = closure(ch[evar[e]] | _present(has[evar[e]] - _PACK[c2v[e]]))  # channel | others
        gain = new ^ v2c[e]
        np.subtract.at(lack, echeck[e], _PACK[gain])
        v2c[e] = new
        e = np.flatnonzero((np.bincount(echeck[e[gain != 0]], minlength=g.n_checks) > 0)[echeck])
    return MASK_TO_TYPE[closure(ch | _present(has))]


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
    p_pi: float = 0.0,
) -> FailureStats:
    """Average peel-decoding failure over sampled graphs and observations.

    `size` is M, the variables per position, and each trial samples its
    graph with `sample_coupled_graph`.  The regular ensemble is the chain of
    one position, so there `size` is the code length N.  The all-zero
    codeword pair is assumed; for erasure-type channels decodability depends
    only on the type pattern.
    """
    if trials < 1 or size < 1:
        raise ValueError(f"trials and size must be >= 1, got {trials} and {size}")
    rng = np.random.default_rng(seed)
    pch = effective_channel(family, eps, p_pi)
    bit_rates = np.zeros(trials)
    failures = 0
    for t in range(trials):
        g = sample_coupled_graph(e, size, rng)
        out = peel_decode(g, sample_states(pch, g.n_vars, rng))
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

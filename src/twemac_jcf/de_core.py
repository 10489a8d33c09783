"""Closed-form node updates of the five-type density evolution.

Messages on a randomly chosen edge have one of five types, and both node
updates combine iid messages under the knowledge lattice (types as defined
in `simulate`).  Arrays are type-major: a (5, ...) array holds one
distribution per index of its other axes, each type a contiguous block.

Check node, the meet of n = d_c - 1 iid messages p: the output is type 5
iff every input is, and type t in {2, 3, 4} iff every input lies in {t, 5}
and not all are 5:

    out5 = p5^n,   out_t = (p_t + p5)^n - p5^n,   out1 = the remainder.

Variable node, the join of the channel message c with n iid messages q
(n = d_v - 1 for the outgoing message, n = d_v for the decoder output):
the output is type 1 iff every input is, and type t in {2, 3, 4} iff every
input lies in {1, t} and not all are 1:

    out1 = c1 q1^n,   out_t = (c1 + c_t)(q1 + q_t)^n - c1 q1^n,
    out5 = the remainder.

The two joins share the powers (q1 + q_t)^n, so `var_update` returns the
join with n and with n + 1 messages from one power and one multiply.

Each kernel fills one entry as the remainder 1 - (the others), so every
output sums to 1 within roundoff and an evolution uses it as written;
roundoff shows instead as an entry slightly below 0, which `check_simplex`
bounds after each half-iteration.  The kernels write into arrays the
caller passes, so an evolution allocates its arrays once for each set of
running chains rather than on every iteration.

A power x^n is the product x*x*...*x, one multiply after another: one
`np.multiply.reduce` over n copies of the bases, which `copies` stacks as
a stride-0 view that the caller cuts once with its other views.
`np.power` takes a slow scalar path on every negative or zero base, and
the remainders, the next half's bases, supply many of those.  A product
has no special case, and IEEE products round the same in SIMD and scalar
loops, so the kernels give the same bits whatever the layout of their
arrays.
"""

from __future__ import annotations

import numpy as np

from .channel import SIMPLEX_ATOL


class SimplexError(RuntimeError):
    """A distribution drifted off the probability simplex beyond tolerance."""


def copies(base: np.ndarray, n: int) -> np.ndarray:
    """n copies of base along a new first axis, all on base's memory (a
    stride-0 view): what is written to base shows in every copy, and
    np.multiply.reduce over the first axis is base^n as the product
    base*base*...*base (1 when n = 0)."""
    return np.lib.stride_tricks.as_strided(base, (n, *base.shape), (0, *base.strides))


def chk_update(p: np.ndarray, bases: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Distributions of the meet of n iid messages, one per index of p (5, ...)
    past the first, written to out.  bases is `copies(base, n)`, n >= 1, of
    (4, ...) scratch that shares no memory with p or out."""
    base = bases[0]
    np.add(p[1:4], p[4], out=base[:3])
    base[3] = p[4]
    np.multiply.reduce(bases, axis=0, out=out[1:])
    out[1:4] -= out[4]
    np.subtract(1.0, np.add.reduce(out[1:], axis=0, out=out[0]), out=out[0])
    return out


def join_weights(c: np.ndarray) -> np.ndarray:
    """The channel's weights in `var_update`: c1, then c1 + c_t for t = 2, 3, 4,
    shaped (4, 1, B) for one channel c (5,) (B = 1) or one per column of
    c (5, B), to broadcast over the (4, 2, k) powers (k = B, or any k when
    B = 1), or with an axis appended over (4, 2, B, k): B blocks of k."""
    weights = c[:4] + c[0]
    weights[0] = c[0]
    return weights.reshape(4, 1, -1)


def var_update(
    weights: np.ndarray, q: np.ndarray, bases: np.ndarray, powers: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Distributions of the join of a channel (its `join_weights`) with n and
    with n + 1 iid messages, one pair per index of q (5, ...) past the first,
    written to out (5, 2, ...): [:, 0] holds the joins with n messages and
    [:, 1] those with n + 1 (with n = d_v - 1, the outgoing message and the
    decoder output).  powers is (2, 4, ...) scratch and bases is
    `copies(powers[1], n)`, n >= 0."""
    # the bases in powers[1], (q1 + q_t)^n in powers[0], then ^(n+1) in powers[1]
    base = powers[1]
    base[0] = q[0]
    np.add(q[1:4], q[0], out=base[1:])
    np.multiply.reduce(bases, axis=0, out=powers[0])
    base *= powers[0]
    np.multiply(weights, powers.swapaxes(0, 1), out=out[:4])
    out[1:4] -= out[0]
    np.subtract(1.0, np.add.reduce(out[:4], axis=0, out=out[4]), out=out[4])
    return out


def check_simplex(entries: np.ndarray) -> None:
    """Raise SimplexError if an entry of entries, distributions in an array of
    any shape, lies below -SIMPLEX_ATOL or is NaN."""
    p_min = np.minimum.reduce(entries, axis=None)
    if not p_min >= -SIMPLEX_ATOL:
        raise SimplexError(f"distribution entry {p_min:.3e} below zero")

"""Closed-form node updates of the five-type density evolution.

Messages on a randomly chosen edge have one of five types, and both node
updates combine iid messages under the knowledge lattice (types as defined
in `simulate`).  Arrays are type-major: a (5, ...) array holds one
distribution per index of its other axes, each type a contiguous block.
The kernels treat types 2 and 3 alike, so where the two are equal a
4-row array, types 1, 2 = 3, 4, 5, gives the same bits (`_bind_remainder`).

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

The two joins share the powers (q1 + q_t)^n, so the variable kernel gives
the join with n and with n + 1 messages from one power and one multiply.

Each kernel fills one entry as the remainder 1 - (the others), so every
output sums to 1 within roundoff and an evolution uses it as written;
roundoff shows instead as an entry slightly below 0, which `check_simplex`
bounds after each half-iteration.  The kernels are bound once per batch:
a binder takes an evolution's arrays and the degree, makes its scratch,
cuts its views and picks the 4- or 5-row remainder once, and returns a
closure that only calls ufuncs on those views, on every iteration.

A power x^n is the product x*x*...*x, one multiply after another: one
`np.multiply.reduce` over n copies of the bases, which `copies` stacks as
a stride-0 view on the binder's contiguous scratch.
`np.power` takes a slow scalar path on every negative or zero base, and
the remainders, the next half's bases, supply many of those.  A product
has no special case, and IEEE products round the same in SIMD and scalar
loops, so the kernels give the same bits whatever the layout of their
arrays.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .channel import SIMPLEX_ATOL


class SimplexError(RuntimeError):
    """A distribution drifted off the probability simplex beyond tolerance."""


def copies(base: np.ndarray, n: int) -> np.ndarray:
    """n copies of base along a new first axis, all on base's memory (a
    stride-0 view): what is written to base shows in every copy, and
    np.multiply.reduce over the first axis is base^n as the product
    base*base*...*base (1 when n = 0).  base must be contiguous: numpy
    raises ValueError on any other base, never giving a wrong view."""
    return np.ndarray((n, *base.shape), base.dtype, base, 0, (0, *base.strides))


def bind_chk_update(p: np.ndarray, n: int, out: np.ndarray) -> Callable[[], None]:
    """The check kernel on these arrays: a closure that writes to out (R = 5
    or 4 rows) the distributions of the meet of n >= 1 iid messages, one per
    index of p past the first, from its last R - 1 rows (no p1) as they are
    at the call."""
    bases = copies(np.empty((len(out) - 1, *out.shape[1:])), n)
    sums, p5, base_sums, base5 = p[1 - len(out) : -1], p[-1], bases[0, :-1], bases[0, -1]
    meets, inner, out5 = out[1:], out[1:-1], out[-1]
    remainder = _bind_remainder(out[1:], 0, out[0])

    def chk_update():
        np.add(sums, p5, out=base_sums)
        base5[...] = p5
        np.multiply.reduce(bases, axis=0, out=meets)
        np.subtract(inner, out5, out=inner)
        remainder()

    return chk_update


def join_weights(c: np.ndarray) -> np.ndarray:
    """The channel's weights in the variable kernel: c1, then c1 + c_t for
    t = 2..4, shaped (R - 1, 1, B) for one channel c (R,) (B = 1) or one per
    column of c (R, B), to broadcast over the (R - 1, 2, k) powers (k = B, or
    any k when B = 1), or with an axis appended over (R - 1, 2, B, k)."""
    weights = c[:-1] + c[0]
    weights[0] = c[0]
    return weights.reshape(len(weights), 1, -1)


def bind_var_update(
    weights: np.ndarray, q: np.ndarray, n: int, out: np.ndarray
) -> Callable[[], None]:
    """The variable kernel on these arrays: a closure that writes to out
    (R, 2, ...), R = 5 or 4, the distributions of the join of a channel (its
    `join_weights`) with n >= 0 and with n + 1 iid messages, one pair per
    index of q past the first, from its first R - 1 rows (no q5) as they are
    at the call: [:, 0] holds the joins with n messages and [:, 1] those with
    n + 1 (n = d_v - 1: the outgoing message and the decoder output)."""
    powers = np.empty((2, len(out) - 1, *out.shape[2:]))
    # the bases in powers[1], (q1 + q_t)^n in powers[0], then ^(n+1) in powers[1]
    base, nth, bases = powers[1], powers[0], copies(powers[1], n)
    q1, qt, base1, base_sums = q[0], q[1 : len(out) - 1], base[0], base[1:]
    pairs, joins, inner, out1 = powers.swapaxes(0, 1), out[:-1], out[1:-1], out[0]
    remainder = _bind_remainder(out[:-1], 1, out[-1])

    def var_update():
        base1[...] = q1
        np.add(qt, q1, out=base_sums)
        np.multiply.reduce(bases, axis=0, out=nth)
        np.multiply(base, nth, out=base)
        np.multiply(weights, pairs, out=joins)
        np.subtract(inner, out1, out=inner)
        remainder()

    return var_update


def _bind_remainder(terms: np.ndarray, two: int, out: np.ndarray) -> Callable[[], None]:
    """A closure that sets out = 1 - the sum of the other four types in type
    order, one row of terms each, or 3 rows with types 2 and 3 in
    terms[two], added twice in place: ((o2 + o2) + o4) + o5 has the bits of
    ((o2 + o3) + o4) + o5."""
    if len(terms) == 4:
        def remainder():
            np.add.reduce(terms, axis=0, out=out)
            np.subtract(1.0, out, out=out)
    else:
        first, shared, t1, t2 = terms[0], terms[two], terms[1], terms[2]
        def remainder():
            np.add(first, shared, out=out)
            np.add(out, t1, out=out)
            np.add(out, t2, out=out)
            np.subtract(1.0, out, out=out)

    return remainder


def check_simplex(entries: np.ndarray) -> None:
    """Raise SimplexError if an entry of entries, distributions in an array of
    any shape, lies below -SIMPLEX_ATOL or is NaN."""
    p_min = np.minimum.reduce(entries, axis=None)
    if not p_min >= -SIMPLEX_ATOL:
        raise SimplexError(f"distribution entry {p_min:.3e} below zero")

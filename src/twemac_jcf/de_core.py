"""Closed-form node updates of the five-type density evolution.

Messages on a randomly chosen edge have one of five types, and both node
updates combine iid messages under the knowledge lattice (types as in
`message_types`).  Rows of shape (k, 5) hold one distribution each.

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
"""

from __future__ import annotations

import numpy as np

RENORM_ATOL = 1e-9


class SimplexError(RuntimeError):
    """A distribution drifted off the probability simplex beyond tolerance."""


def chk_update(p: np.ndarray, n: int) -> np.ndarray:
    """Distribution of the meet of n iid messages, one per row of p (k, 5)."""
    all5 = p[:, 4:] ** n
    out = np.empty_like(p)
    out[:, 1:4] = (p[:, 1:4] + p[:, 4:]) ** n - all5
    out[:, 4:] = all5
    out[:, 0] = 1.0 - out[:, 1:].sum(axis=1)
    return out


def var_update(c: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    """Distribution of the join of channel c (5,) with n iid messages, one
    per row of q (k, 5)."""
    none = c[0] * q[:, :1] ** n
    out = np.empty_like(q)
    out[:, :1] = none
    out[:, 1:4] = (c[0] + c[1:4]) * (q[:, :1] + q[:, 1:4]) ** n - none
    out[:, 4] = 1.0 - out[:, :4].sum(axis=1)
    return out


def renormalize(p: np.ndarray, atol: float = RENORM_ATOL) -> np.ndarray:
    """Renormalize within tolerance; raise SimplexError on real drift.

    Works on a single distribution or on rows of an (n, 5) array.  The
    kernels fill one entry per row as a remainder, so their rows always sum
    to 1; a negative entry is what shows their drift.
    """
    s = p.sum(axis=-1, keepdims=True)
    if np.any(np.abs(s - 1.0) > atol):
        raise SimplexError(f"distribution sum off by {np.max(np.abs(s - 1.0)):.3e}")
    if np.any(p < -atol):
        raise SimplexError(f"distribution entry {np.min(p):.3e} below zero")
    return p / s

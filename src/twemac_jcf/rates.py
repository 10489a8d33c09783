"""Achievable-rate bounds for relaying over the two-way erasure MAC.

Closed forms in the type probabilities (inputs independent uniform binary,
channel state observable at the relay):

    I(Y; X_A, X_B)        = p2 + p3 + p4 + 2 p5
    I(Y; X_A | X_B)       = p2 + p4 + p5
    I(Y; X_B | X_A)       = p3 + p4 + p5
    I(Y; X_xor)           = p4 + p5
    I(Y; X_A, X_B | X_xor) = p2 + p3 + p5

R_DF is the decode-and-forward bound (min of the half-sum and the two
conditionals), R'_DF additionally caps it by I(Y; X_A, X_B | X_xor)
(identical codebooks), R_CF = I(Y; X_xor), and the joint decoding target
is max(R_DF, R_CF).  `mi_enumerate` recomputes any of the mutual
informations by brute-force summation over the full joint distribution
and serves as the independent oracle for the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import validate_dist

MI_QUANTITIES = (
    "i_joint",
    "i_a_given_b",
    "i_b_given_a",
    "i_xor",
    "i_joint_given_xor",
)


@dataclass(frozen=True)
class RateBundle:
    """Rates and raw mutual informations, all in bits per channel use."""

    r_df: float
    r_df_prime: float
    r_cf: float
    r_jcf_target: float
    i_joint: float
    i_a_given_b: float
    i_b_given_a: float
    i_xor: float
    i_joint_given_xor: float


def rate_bounds(pch) -> RateBundle:
    """Closed-form rate bounds for a channel type distribution."""
    p1, p2, p3, p4, p5 = validate_dist(pch)
    i_joint = p2 + p3 + p4 + 2 * p5
    i_a_given_b = p2 + p4 + p5
    i_b_given_a = p3 + p4 + p5
    i_xor = p4 + p5
    i_joint_given_xor = p2 + p3 + p5
    r_df = min(i_joint / 2, i_a_given_b, i_b_given_a)
    r_df_prime = min(r_df, i_joint_given_xor)
    r_cf = i_xor
    return RateBundle(
        r_df=r_df,
        r_df_prime=r_df_prime,
        r_cf=r_cf,
        r_jcf_target=max(r_df, r_cf),
        i_joint=i_joint,
        i_a_given_b=i_a_given_b,
        i_b_given_a=i_b_given_a,
        i_xor=i_xor,
        i_joint_given_xor=i_joint_given_xor,
    )


def _relay_output(xa: int, xb: int, tau: int):
    """Deterministic relay observation (state, revealed values)."""
    if tau == 1:
        return (1,)
    if tau == 2:
        return (2, xa)
    if tau == 3:
        return (3, xb)
    if tau == 4:
        return (4, xa ^ xb)
    return (5, xa, xb)


def _joint_xy(pch, x_of):
    """Joint pmf over (x, y) with x = x_of(xa, xb); returns dict."""
    joint: dict = {}
    for xa in (0, 1):
        for xb in (0, 1):
            for tau in range(1, 6):
                pr = 0.25 * pch[tau - 1]
                if pr == 0.0:
                    continue
                key = (x_of(xa, xb), _relay_output(xa, xb, tau))
                joint[key] = joint.get(key, 0.0) + pr
    return joint


def _mi_from_joint(joint) -> float:
    """I(X; Y) by direct summation, log base 2, 0 log 0 := 0."""
    px: dict = {}
    py: dict = {}
    for (x, y), pr in joint.items():
        px[x] = px.get(x, 0.0) + pr
        py[y] = py.get(y, 0.0) + pr
    mi = 0.0
    for (x, y), pr in joint.items():
        if pr > 0.0:
            mi += pr * math.log2(pr / (px[x] * py[y]))
    return mi


def _mi_conditional(pch, x_of, z_of) -> float:
    """I(X; Y | Z) = sum_z P(z) I(X; Y | Z=z)."""
    # joint over (z, x, y)
    joint: dict = {}
    for xa in (0, 1):
        for xb in (0, 1):
            for tau in range(1, 6):
                pr = 0.25 * pch[tau - 1]
                if pr == 0.0:
                    continue
                key = (z_of(xa, xb), x_of(xa, xb), _relay_output(xa, xb, tau))
                joint[key] = joint.get(key, 0.0) + pr
    pz: dict = {}
    for (z, _x, _y), pr in joint.items():
        pz[z] = pz.get(z, 0.0) + pr
    total = 0.0
    for z, pzv in pz.items():
        sub = {
            (x, y): pr / pzv for (zz, x, y), pr in joint.items() if zz == z
        }
        total += pzv * _mi_from_joint(sub)
    return total


def mi_enumerate(pch, quantity: str) -> float:
    """Brute-force mutual information between the relay output and a selector.

    The relay output alphabet is (state, revealed values); the joint
    distribution over (x_A, x_B, state) is enumerated directly.
    """
    p = validate_dist(pch)
    if quantity == "i_joint":
        return _mi_from_joint(_joint_xy(p, lambda a, b: (a, b)))
    if quantity == "i_xor":
        return _mi_from_joint(_joint_xy(p, lambda a, b: a ^ b))
    if quantity == "i_a_given_b":
        return _mi_conditional(p, lambda a, b: a, lambda a, b: b)
    if quantity == "i_b_given_a":
        return _mi_conditional(p, lambda a, b: b, lambda a, b: a)
    if quantity == "i_joint_given_xor":
        return _mi_conditional(p, lambda a, b: (a, b), lambda a, b: a ^ b)
    raise ValueError(f"unknown quantity {quantity!r}; expected one of {MI_QUANTITIES}")


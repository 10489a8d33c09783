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
is max(R_DF, R_CF).  The tests check the closed forms against mutual
informations summed over the full joint distribution (`tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import validate_dist


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

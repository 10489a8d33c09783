"""References the benchmark checks the program's outputs against.

Nothing here imports twemac_jcf.  The evolutions are derived by another
route than the package's 5x5 matrix powers:

* a scalar BEC recursion, regular and coupled.  On the `xor-only` and
  `full-reveal` channels only types 1 (nothing) and 4 or 5 occur, and both
  lattice operators act on them like erasures, so the type evolution
  reduces exactly to the erasure probability x of a variable-to-check
  message;
* a closed-form five-type recursion for regular ensembles on any channel.
  A check node meets n iid messages p: out5 = p5^n and
  out_t = (p_t + p5)^n - p5^n for t = 2, 3, 4.  A variable node joins the
  channel message c with n iid messages q: out1 = c1 q1^n and
  out_t = (c1 + c_t)(q1 + q_t)^n - c1 q1^n for t = 2, 3, 4.

Every predicate uses the package's documented stopping rule: success when
the decoder-output probability of knowing the XOR reaches 1 - 1e-5, stall
when no message probability moves by 1e-12 in an iteration, otherwise the
iteration cap (5000 regular, 20000 coupled).  The thresholds bisect on
[0, 1] the same way `find_threshold` does, so with an exact reference the
two brackets coincide.
"""

from __future__ import annotations

import functools
import math

import numpy as np

SUCCESS_TARGET = 1.0 - 1e-5
STALL_TOL = 1e-12
REGULAR_LMAX = 5000
COUPLED_LMAX = 20000


def channel_dist(channel: str, eps: float) -> tuple:
    """Type distribution (p1..p5) of the three built-in channel families."""
    if channel == "primary":
        return (eps * eps, eps * (1 - eps), eps * (1 - eps), (1 - eps) ** 2, 0.0)
    if channel == "xor-only":
        return (eps, 0.0, 0.0, 1 - eps, 0.0)
    if channel == "full-reveal":
        return (eps, 0.0, 0.0, 0.0, 1 - eps)
    raise ValueError(f"no reference for channel {channel!r}")


def jcf_target_rate(channel: str, eps: float) -> float:
    """max(R_DF, R_CF) from the mutual informations of the erasure MAC."""
    p1, p2, p3, p4, p5 = channel_dist(channel, eps)
    r_df = min((p2 + p3 + p4 + 2 * p5) / 2, p2 + p4 + p5, p3 + p4 + p5)
    r_cf = p4 + p5
    return max(r_df, r_cf)


def coupled_design_rate(d_v: int, d_c: int, L: int, w: int) -> float:
    """Design rate of a (d_v, d_c, L, w) chain: 1 - checks/variables.

    Check position q (of 2L + w) has sockets from w variable positions, of
    which only those inside -L..L are real; a check whose sockets are all
    pseudo carries no constraint and one with any real socket is counted
    with probability 1 - (share of pseudo sockets)^d_c.
    """
    n_var = 2 * L + 1
    checks = 0.0
    for q in range(2 * L + w):
        real = sum(1 for j in range(w) if 0 <= q - j < n_var)
        checks += 1.0 - (1.0 - real / w) ** d_c
    return 1.0 - (d_v / d_c) * checks / n_var


# --- scalar BEC recursion -------------------------------------------------------


def bec_regular(eps: float, d_v: int, d_c: int, l_max: int = REGULAR_LMAX):
    """(status, residual) of the regular BEC recursion at eps.

    residual is the decoder-output erasure probability eps * y^d_v when the
    recursion stops.
    """
    x = eps
    for _ in range(l_max):
        y = 1.0 - (1.0 - x) ** (d_c - 1)
        new_x = eps * y ** (d_v - 1)
        residual = eps * y**d_v
        delta = abs(new_x - x)
        x = new_x
        if 1.0 - residual >= SUCCESS_TARGET:
            return "success", residual
        if delta < STALL_TOL:
            return "stall", residual
    return "cap", residual


def bec_coupled(eps: float, d_v: int, d_c: int, L: int, w: int, l_max: int = COUPLED_LMAX):
    """(status, iterations) of the coupled BEC recursion at eps.

    Variable positions -L..L, check positions -L..L+w-1; a check averages
    the w variable positions below it (outside the chain they are known),
    a variable averages the w check positions above it.
    """
    n_var = 2 * L + 1
    x = np.full(n_var, float(eps))
    padded = np.zeros(n_var + 2 * (w - 1))
    for it in range(1, l_max + 1):
        padded[w - 1 : w - 1 + n_var] = x
        xbar = np.convolve(padded, np.full(w, 1.0 / w), mode="valid")
        y = 1.0 - (1.0 - xbar) ** (d_c - 1)
        ybar = np.convolve(y, np.full(w, 1.0 / w), mode="valid")
        new_x = eps * ybar ** (d_v - 1)
        residual = float(np.max(eps * ybar**d_v))
        delta = float(np.max(np.abs(new_x - x)))
        x = new_x
        if 1.0 - residual >= SUCCESS_TARGET:
            return "success", it
        if delta < STALL_TOL:
            return "stall", it
    return "cap", l_max


# --- closed-form five-type regular recursion ---------------------------------------


def _check_out(p, n: int) -> tuple:
    p5n = p[4] ** n
    mid = tuple((p[t] + p[4]) ** n - p5n for t in (1, 2, 3))
    return (1.0 - p5n - sum(mid),) + mid + (p5n,)


def _var_out(c, q, n: int) -> tuple:
    base = c[0] * q[0] ** n
    mid = tuple((c[0] + c[t]) * (q[0] + q[t]) ** n - base for t in (1, 2, 3))
    return (base,) + mid + (1.0 - base - sum(mid),)


def five_type_regular(pch, d_v: int, d_c: int, l_max: int = REGULAR_LMAX):
    """(status, p_dec) of the regular type evolution on channel pch.

    p_dec is the decoder-output mass of types 4 and 5 (XOR known).
    """
    pvc = tuple(pch)
    for _ in range(l_max):
        pcv = _check_out(pvc, d_c - 1)
        new_pvc = _var_out(pch, pcv, d_v - 1)
        out = _var_out(pch, pcv, d_v)
        p_dec = out[3] + out[4]
        delta = max(abs(a - b) for a, b in zip(new_pvc, pvc))
        pvc = new_pvc
        if p_dec >= SUCCESS_TARGET:
            return "success", p_dec
        if delta < STALL_TOL:
            return "stall", p_dec
    return "cap", p_dec


# --- thresholds ---------------------------------------------------------------------


def bisect(decodable, tol: float) -> float:
    """Threshold by the bisection `find_threshold` uses."""
    if not decodable(0.0):
        return 0.0
    if decodable(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > 2 * tol:
        mid = 0.5 * (lo + hi)
        if decodable(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.cache
def regular_threshold(channel: str, d_v: int, d_c: int, tol: float) -> float:
    if channel == "primary":
        ok = lambda e: five_type_regular(channel_dist(channel, e), d_v, d_c)[0] == "success"
    else:
        ok = lambda e: bec_regular(e, d_v, d_c)[0] == "success"
    return bisect(ok, tol)


@functools.cache
def coupled_bec_threshold(d_v: int, d_c: int, L: int, w: int, tol: float) -> float:
    return bisect(lambda e: bec_coupled(e, d_v, d_c, L, w)[0] == "success", tol)


@functools.cache
def regular_residual(channel: str, d_v: int, d_c: int, eps: float) -> float:
    """Decoder-output probability of not knowing the XOR at the DE fixed point."""
    if channel == "primary":
        return 1.0 - five_type_regular(channel_dist(channel, eps), d_v, d_c, l_max=10**6)[1]
    return bec_regular(eps, d_v, d_c, l_max=10**6)[1]


# --- self-checks ----------------------------------------------------------------------


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"benchmark reference failed its self-check: {what}")


def self_check() -> None:
    """Check the references against each other and against known values.

    Raises RuntimeError when a reference is wrong, so that no run is judged
    by it.
    """
    for eps in (0.2, 0.42, 0.44):
        x = eps
        pvc = channel_dist("xor-only", eps)
        for _ in range(30):
            x = eps * (1.0 - (1.0 - x) ** 5) ** 2
            pvc = _var_out(channel_dist("xor-only", eps), _check_out(pvc, 5), 2)
            _expect(abs(pvc[0] - x) < 1e-12 and abs(sum(pvc) - 1.0) < 1e-12,
                    "the five-type recursion reduces to the BEC recursion on xor-only")
    p = (0.1, 0.2, 0.3, 0.15, 0.25)
    _expect(max(abs(a - b) for a, b in zip(_check_out(p, 1), p)) < 1e-15,
            "a degree-1 meet is the identity")
    _expect(max(abs(a - b) for a, b in zip(_var_out(p, (1, 0, 0, 0, 0), 0), p)) < 1e-15,
            "an empty join is the identity")
    _expect(abs(regular_threshold("xor-only", 3, 6, 1e-5) - 0.42944) < 1e-4,
            "the (3,6) BEC threshold is 0.42944 (Richardson and Urbanke)")
    _expect(regular_threshold("primary", 3, 6, 1e-3) < 0.4294,
            "the primary channel loses to xor-only at the same degrees")
    for eps in (0.40, 0.45):
        _expect(bec_coupled(eps, 3, 6, 3, 1)[0] == bec_regular(eps, 3, 6, COUPLED_LMAX)[0],
                "a w = 1 chain is L copies of the regular ensemble")
    _expect(bec_coupled(0.47, 3, 6, 30, 3)[0] == "success"
            and bec_coupled(0.50, 3, 6, 30, 3)[0] != "success",
            "coupling lifts (3,6) from 0.4294 towards its MAP threshold 0.4881, not past it")
    _expect(abs(coupled_design_rate(3, 6, 5000, 3) - 0.5) < 1e-3,
            "the design rate of a long chain approaches 1 - d_v/d_c")
    _expect(math.isclose(jcf_target_rate("xor-only", 0.3), 0.7),
            "R_CF on xor-only is 1 - eps")

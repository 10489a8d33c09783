"""Acceptance gate: one check per numbered criterion, each recording a
single PASS/FAIL line (echoed after the run by the conftest terminal
summary, so it survives output capture).

Criterion 9 is a paper-scale overnight run and is excluded from the
default selection via the `slow` marker:

    pytest -m slow tests/test_acceptance.py -k criterion_9
"""

import functools
import itertools
from dataclasses import replace

import numpy as np
import pytest

from twemac_jcf.channel import BUILTINS
from twemac_jcf.de_coupled import Caps, Ensemble, de_batch, nominal_rate
from twemac_jcf.rates import rate_bounds
from twemac_jcf.simulate import EtgInstance, failure_rate, peel_decode, sample_coupled_graph
from twemac_jcf.threshold import find_threshold

from oracles import (
    MI_QUANTITIES,
    brute_force_jcf,
    is_cycle_free,
    lattice_chk,
    lattice_var,
    mi_enumerate,
    parity_matrix,
    scalar_bec_trajectory,
    scalar_coupled_threshold,
    tanner_edges,
)
from test_message_types import chk_combine, var_combine  # the peeler's mask operators

pytestmark = pytest.mark.acceptance

RESULTS = []  # PASS/FAIL lines, echoed by the conftest terminal summary


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


ALL5 = list(range(1, 6))


def test_criterion_1_table_fidelity():
    ok = True
    for a, b in itertools.product(ALL5, repeat=2):
        ok &= var_combine(a, b) == lattice_var(a, b)
        ok &= chk_combine(a, b) == lattice_chk(a, b)
        ok &= var_combine(a, b) == var_combine(b, a)
        ok &= chk_combine(a, b) == chk_combine(b, a)
    for a in ALL5:
        ok &= var_combine(a, a) == a and chk_combine(a, a) == a
        ok &= var_combine(1, a) == a and var_combine(5, a) == 5
        ok &= chk_combine(5, a) == a and chk_combine(1, a) == 1
    for a, b, c in itertools.product(ALL5, repeat=3):
        ok &= var_combine(var_combine(a, b), c) == var_combine(a, var_combine(b, c))
        ok &= chk_combine(chk_combine(a, b), c) == chk_combine(a, chk_combine(b, c))
    for a, b in itertools.product(ALL5, repeat=2):
        ok &= var_combine(a, chk_combine(a, b)) == a
        ok &= chk_combine(a, var_combine(a, b)) == a
    _report(1, ok, "operator tables match the knowledge lattice; all laws hold")


def test_criterion_2_rate_bound_consistency():
    closed = {
        "i_joint": lambda p: p[1] + p[2] + p[3] + 2 * p[4],
        "i_a_given_b": lambda p: p[1] + p[3] + p[4],
        "i_b_given_a": lambda p: p[2] + p[3] + p[4],
        "i_xor": lambda p: p[3] + p[4],
        "i_joint_given_xor": lambda p: p[1] + p[2] + p[4],
    }
    worst = 0.0
    ok = True
    for name in ("primary", "xor-only", "full-reveal"):
        fam = BUILTINS[name]
        for eps in np.linspace(0.0, 1.0, 101):
            p = fam.eval(float(eps))
            for q in MI_QUANTITIES:
                worst = max(worst, abs(closed[q](p) - mi_enumerate(p, q)))
            rb = rate_bounds(p)
            ok &= max(rb.r_df_prime, rb.r_cf) == pytest.approx(
                max(rb.r_df, rb.r_cf), abs=1e-12
            )
            if name == "primary":
                e = float(eps)
                ok &= abs(rb.r_df - (1 - e * e) / 2) <= 1e-12
                ok &= abs(rb.r_cf - (1 - e) ** 2) <= 1e-12
    ok &= worst <= 1e-12
    _report(2, ok, f"closed forms vs enumeration, max |diff| = {worst:.2e} (tol 1e-12)")


def test_criterion_3_bec_reduction():
    ok = True
    worst = 0.0
    for d_v, d_c in ((3, 6), (4, 8)):
        eps, iters = 0.41, 60
        (res,) = de_batch(
            Ensemble(d_v, d_c),
            [[eps, 0, 0, 1 - eps, 0]],
            Caps(l_max=iters, success_target=np.nextafter(1.0, 0.0)),
            snapshot_iters=range(1, iters + 1),
        )
        traj = scalar_bec_trajectory(eps, d_v, d_c, iters)
        for (it, snap), (x_vc, x_cv) in zip(sorted(res.snapshots.items()), traj):
            worst = max(worst, abs(snap.pvc[0, 0] - x_vc), abs(snap.pcv[0, 0] - x_cv))
    ok &= worst <= 1e-12
    res = find_threshold(Ensemble(3, 6), BUILTINS["xor-only"], caps=Caps(tol=1e-4))
    ok &= abs(res.eps_thresh - 0.4294) <= 0.0005
    _report(
        3,
        ok,
        f"scalar BEC max |diff| = {worst:.2e} (tol 1e-12); "
        f"(3,6) threshold = {res.eps_thresh:.5f} (target 0.4294 +- 0.0005)",
    )


def test_criterion_4_threshold_saturation():
    sys_ = Ensemble(3, 6, 100, 5)
    res = find_threshold(sys_, BUILTINS["xor-only"], caps=Caps(tol=1e-3))
    oracle = scalar_coupled_threshold(3, 6, 100, 5, tol=1e-3)
    ok = abs(res.eps_thresh - 0.4881) <= 0.005 and abs(res.eps_thresh - oracle) <= 2e-3
    _report(
        4,
        ok,
        f"(3,6,L=100,w=5) xor-only threshold = {res.eps_thresh:.4f} "
        f"(target 0.4881 +- 0.005, scalar oracle {oracle:.4f})",
    )


def _max_curve(family, eps):
    rb = rate_bounds(family.eval(eps))
    return max(rb.r_df, rb.r_cf)


@functools.cache
def _threshold(e, family, caps):
    """find_threshold, once per set of equal arguments: criterion 5's d_v = 9
    row and criterion 6's p_pi = 0 row bisect the same chain."""
    return find_threshold(e, family, caps=caps)


def test_criterion_5_desk_scale_rate_thresholds():
    fam = BUILTINS["primary"]
    ok = True
    details = []
    for d_v in (3, 5, 7, 9):
        e = Ensemble(d_v, 10, 200, 10)
        res = _threshold(e, fam, Caps(tol=1e-3))
        rate = nominal_rate(e)
        curve = _max_curve(fam, res.eps_thresh)
        ok &= curve - 0.05 <= rate <= curve + 0.02
        if d_v == 5:
            ok &= 0.27 <= res.eps_thresh <= 0.293
        if d_v == 9:
            ok &= 0.86 <= res.eps_thresh <= 0.895
        details.append(f"dv={d_v}: R={rate:.3f}, eps={res.eps_thresh:.4f}, curve={curve:.3f}, "
                       f"cap_limited={res.cap_limited}")
    _report(5, ok, "; ".join(details) + " (R within [-0.05, +0.02] of max-rate curve)")


def test_criterion_6_puncturing_coverage():
    fam = BUILTINS["primary"]
    e = Ensemble(9, 10, 200, 10)
    # design rate of the underlying code; the O(1/L) coupling rate loss is
    # amplified by 1/(1 - p_pi) and would swamp the gap being measured here
    rate = 1.0 - e.d_v / e.d_c
    ok = True
    details = []
    for p_pi in (0.0, 0.2, 0.4, 0.6, 0.8):
        res = _threshold(e, replace(fam, p_pi=p_pi), Caps(tol=1e-3))
        r_pi = rate / (1 - p_pi)
        curve = _max_curve(fam, res.eps_thresh)
        ok &= curve - 0.05 <= r_pi <= curve + 0.02
        details.append(f"p_pi={p_pi}: R_pi={r_pi:.3f}, eps={res.eps_thresh:.4f}, "
                       f"curve={curve:.3f}, cap_limited={res.cap_limited}")
    _report(6, ok, "; ".join(details) + " (all within 0.05 below the max-rate curve)")


def test_criterion_7_oracle_agreement():
    rng = np.random.default_rng(20260823)
    sound_violations = 0
    completeness_mismatches = 0
    checked = 0

    # exhaustive patterns on every cycle-free code with N <= 4
    small_h = [
        np.array([[1, 1]]),
        np.array([[1, 1, 1]]),
        np.array([[1, 1, 0], [0, 1, 1]]),
        np.array([[1, 1, 1, 1]]),
        np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]),
    ]
    for h in small_h:
        edges = tanner_edges(h)
        g = EtgInstance(*edges)
        tree = is_cycle_free(*edges)
        n = h.shape[1]
        for types in itertools.product(ALL5, repeat=n):
            out = peel_decode(g, types)
            known = (out == 4) | (out == 5)
            rec = brute_force_jcf(h, types)
            sound_violations += int(np.any(known & ~rec))
            if tree:
                completeness_mismatches += int(np.any(known != rec))
            checked += 1

    # randomized instances, N <= 12
    for _ in range(2500):
        d_v, n = (2, 8), (3, 12)
        d_v = int(rng.choice([2, 3]))
        n = int(rng.choice([8, 12]))
        d_c = 4 if d_v == 2 else 6
        g = sample_coupled_graph(Ensemble(d_v, d_c), n, rng)
        edges = (g.n_vars, g.n_checks, g.evar, g.echeck)
        h = parity_matrix(*edges)
        tree = is_cycle_free(*edges)
        for _ in range(4):
            types = rng.integers(1, 6, size=n)
            out = peel_decode(g, types)
            known = (out == 4) | (out == 5)
            rec = brute_force_jcf(h, types)
            sound_violations += int(np.any(known & ~rec))
            if tree:
                completeness_mismatches += int(np.any(known != rec))
            checked += 1

    ok = sound_violations == 0 and completeness_mismatches == 0 and checked >= 10**4
    _report(
        7,
        ok,
        f"{checked} instances: {sound_violations} soundness violations, "
        f"{completeness_mismatches} tree-completeness mismatches",
    )


def test_criterion_8_concentration():
    fam = BUILTINS["xor-only"]
    eps = 0.40
    stats = failure_rate(Ensemble(3, 6), fam, eps, size=10**5, trials=20, seed=8)
    # peeling runs to its fixed point, so compare against the evolution's
    # own fixed-point residual
    (res,) = de_batch(Ensemble(3, 6), [fam.eval(eps)], Caps(success_target=np.nextafter(1.0, 0.0)))
    residual = 1.0 - res.min_p_dec
    ok = abs(stats.bit_rate - residual) <= 0.01
    _report(
        8,
        ok,
        f"empirical bit failure {stats.bit_rate:.5f} vs evolution residual "
        f"{residual:.2e} (tol +-0.01, N=1e5, 20 trials)",
    )


@pytest.mark.slow
def test_criterion_9_paper_scale_smoke():
    # overnight job: paper-scale chain, punctured so R_pi is about 0.5
    fam = BUILTINS["primary"]
    desk = Ensemble(9, 10, 200, 10)
    paper = Ensemble(9, 10, 10000, 100)
    p_pi_desk = 1.0 - nominal_rate(desk) / 0.5
    p_pi_paper = 1.0 - nominal_rate(paper) / 0.5
    res_desk = find_threshold(desk, replace(fam, p_pi=p_pi_desk), caps=Caps(tol=1e-3))
    res_paper = find_threshold(paper, replace(fam, p_pi=p_pi_paper),
                               caps=Caps(l_max=400000, tol=1e-3))
    ok = abs(res_paper.eps_thresh - res_desk.eps_thresh) <= 0.01
    _report(
        9,
        ok,
        f"paper-scale threshold {res_paper.eps_thresh:.4f} vs desk-scale "
        f"{res_desk.eps_thresh:.4f} at R_pi = 0.5 (tol 0.01)",
    )

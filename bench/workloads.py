"""The three workloads: the CLI commands of one round and their checks.

A round is a fixed list of operations; one operation is one
`twemac_jcf.cli.main(argv)` call plus the checks on the file it writes.
Checks compare against `reference` (which never imports the package) or
against properties the method must have; a problem marks the operation
failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import reference as ref

COUPLED_TOL = 1e-3
REGULAR_TOL = 1e-4
TRIALS = 5
# Bit-failure bounds for the finite-length points.  A regular graph with
# N = 1e5 concentrates on the DE fixed point; the coupled point sits below
# its coupled threshold, where peeling finishes.
RESIDUAL_ATOL = 0.01
COUPLED_BIT_FAILURE_MAX = 1e-3
# The coupled point lies above the uncoupled (3,6) threshold 0.4294, so the
# chain decodes only as a wave from its ends, and far enough below the
# coupled one (~0.488) that the wave does not stall at M = 1200.  At 0.46 it
# stalled in about one trial of 45, leaving ~13% of the bits; at 0.44 and
# 0.45 none of 200 trials each stalled.  What remains are stopping sets of a
# few bits, well inside COUPLED_BIT_FAILURE_MAX.
COUPLED_EPS = 0.44
# Coupling cannot lower a threshold; a desk-scale Figure 6 row sits close
# to the better of the DF and CF rates at its threshold.
RATE_GAP = (-0.05, 0.02)

REGULAR_DEGREES = [(3, 6), (4, 8), (3, 10), (5, 10), (7, 10), (9, 10)]
CHANNELS = ["primary", "xor-only", "full-reveal"]


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    check: Callable  # check(op, output record) -> list of problems
    params: tuple = ()


def _figure6(d_v: int) -> Op:
    argv = ("figure6", "--channel", "primary", "--dc", "10", "--dv", str(d_v),
            "--L", "200", "--w", "10", "--tol", str(COUPLED_TOL), "--jobs", "1")
    return Op(f"figure6 ({d_v},10,200,10) primary", argv, _check_figure6, (d_v, 10, 200, 10))


def _simulate(label, d_v, d_c, channel, eps, size_args, seed, check, params) -> Op:
    argv = ("simulate", "--dv", str(d_v), "--dc", str(d_c), *size_args, "--eps", str(eps),
            "--channel", channel, "--trials", str(TRIALS), "--seed", str(seed))
    return Op(label, argv, check, params)


def round_ops(workload: str, seed: int, round_index: int) -> list:
    """Operations of one round; only `simulate --seed` depends on the seed."""
    if workload == "coupled-thresholds":
        # figure6 --dv 3,5 run as one command per row, so that each command
        # is one threshold bisection and its wall time is a threshold time.
        return [
            _figure6(3),
            _figure6(5),
            Op("threshold (3,6,100,5) xor-only",
               ("threshold", "--coupled", "3", "6", "100", "5", "--channel", "xor-only",
                "--tol", str(COUPLED_TOL)),
               _check_coupled_threshold, (3, 6, 100, 5)),
        ]
    if workload == "regular-thresholds":
        return [
            Op(f"threshold ({d_v},{d_c}) {channel}",
               ("threshold", "--regular", str(d_v), str(d_c), "--channel", channel,
                "--tol", str(REGULAR_TOL)),
               _check_regular_threshold, (channel, d_v, d_c))
            for channel in CHANNELS
            for d_v, d_c in REGULAR_DEGREES
        ]
    if workload == "finite-length":
        base = (seed * 1000 + round_index) * 10
        n = ("--N", "100000")
        return [
            _simulate("simulate (3,6) N=1e5 xor-only eps=0.40", 3, 6, "xor-only", 0.40, n,
                      base + 1, _check_regular_residual, ("xor-only", 3, 6, 0.40, 100000)),
            _simulate("simulate (3,6) N=1e5 xor-only eps=0.45", 3, 6, "xor-only", 0.45, n,
                      base + 2, _check_regular_residual, ("xor-only", 3, 6, 0.45, 100000)),
            _simulate("simulate (3,6) N=1e5 primary eps=0.27", 3, 6, "primary", 0.27, n,
                      base + 3, _check_regular_residual, ("primary", 3, 6, 0.27, 100000)),
            _simulate("simulate (3,6,20,3) M=1200 xor-only eps=0.44", 3, 6, "xor-only", COUPLED_EPS,
                      ("--L", "20", "--w", "3", "--M", "1200"), base + 4, _check_coupled_decodes,
                      (3, 6, 20, 3, COUPLED_EPS, 1200)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("coupled-thresholds", "regular-thresholds", "finite-length")


def _one_row(out) -> dict:
    if len(out["rows"]) != 1:
        raise ValueError(f"expected one result row, got {len(out['rows'])}")
    return out["rows"][0]


def _check_regular_threshold(op, out):
    channel, d_v, d_c = op.params
    got = float(_one_row(out)["eps_thresh"])
    want = ref.regular_threshold(channel, d_v, d_c, REGULAR_TOL)
    if abs(got - want) > REGULAR_TOL:
        return [f"threshold {got} differs from the reference bisection {want} by more than {REGULAR_TOL}"]
    return []


def _check_coupled_threshold(op, out):
    got = float(_one_row(out)["eps_thresh"])
    want = ref.coupled_bec_threshold(*op.params, COUPLED_TOL)
    if abs(got - want) > COUPLED_TOL:
        return [f"threshold {got} differs from the scalar coupled recursion {want} by more than {COUPLED_TOL}"]
    return []


def _check_figure6(op, out):
    d_v, d_c, L, w = op.params
    row = _one_row(out)
    eps = float(row["eps_thresh"])
    rate = float(row["nominal_rate"])
    problems = []
    regular = ref.regular_threshold("primary", d_v, d_c, REGULAR_TOL)
    if eps < regular - REGULAR_TOL:
        problems.append(f"coupled threshold {eps} is below the regular threshold {regular}")
    design = ref.coupled_design_rate(d_v, d_c, L, w)
    if abs(rate - design) > 1e-9:
        problems.append(f"nominal rate {rate} is not the design rate {design}")
    gap = rate - ref.jcf_target_rate("primary", eps)
    if not RATE_GAP[0] <= gap <= RATE_GAP[1]:
        problems.append(f"nominal rate minus max(R_DF, R_CF) at the threshold is {gap:.4f}")
    if out["curve_rows"] != 201:
        problems.append(f"curves file has {out['curve_rows']} rows, not 201")
    return problems


def _check_sim_shape(row, n_vars):
    problems = []
    if int(row["trials"]) != TRIALS:
        problems.append(f"trials {row['trials']} != {TRIALS}")
    if int(row["n_vars"]) != n_vars:
        problems.append(f"n_vars {row['n_vars']} != {n_vars}")
    return problems


def _check_regular_residual(op, out):
    channel, d_v, d_c, eps, n = op.params
    row = _one_row(out)
    problems = _check_sim_shape(row, n)
    got = float(row["bit_rate"])
    want = ref.regular_residual(channel, d_v, d_c, eps)
    if abs(got - want) > RESIDUAL_ATOL:
        problems.append(f"bit failure rate {got} is not within {RESIDUAL_ATOL} of the DE residual {want}")
    return problems


def _check_coupled_decodes(op, out):
    d_v, d_c, L, w, eps, m = op.params
    row = _one_row(out)
    problems = _check_sim_shape(row, (2 * L + 1) * m)
    status = ref.bec_coupled(eps, d_v, d_c, L, w)[0]
    if status != "success":
        problems.append(f"the coupled recursion does not decode at eps {eps} ({status})")
    got = float(row["bit_rate"])
    if got > COUPLED_BIT_FAILURE_MAX:
        problems.append(f"bit failure rate {got} exceeds {COUPLED_BIT_FAILURE_MAX}")
    return problems


def check(op: Op, out: dict) -> list:
    """Problems found in one operation's output (empty when it is correct)."""
    if out.get("error"):
        return [out["error"]]
    try:
        return op.check(op, out)
    except (KeyError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]

"""Decodability predicate, erasure-threshold bisection, and rate sweeps.

The threshold is the largest eps at which the evolution drives the
per-position success probability past the target (1 - 1e-5 by default)
within the iteration cap.  Bisection assumes decodability is monotone in
eps; a scan mode can verify this on a grid for unfamiliar channels.

The bisection evaluates speculatively: one `de_batch` evolution holds every
midpoint of the next SPECULATIVE_DEPTH levels of the bisection tree on the
regular ensemble, or CHAIN_SPECULATIVE_DEPTH levels on a chain (and eps 0
and 1 in the first batch), and the walk down the tree reads each level's
outcome from it.  The points off the walk's path are computed and dropped.
Every point of a batch that raises is evaluated alone with `de_coupled`
when the walk reaches it, so an error surfaces only where the plain
bisection would raise it.  The result, `evals` included, is the plain
bisection's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .channel import ChannelError, ChannelFamily, effective_channel
from .de_core import SimplexError
from .de_coupled import Caps, DeOutcome, Ensemble, de_batch, de_coupled, nominal_rate

# Levels of the bisection tree that one batched evolution covers.  An
# iteration costs a fixed part plus a part per column, and most of a
# batch's iterations run with only the few points nearest the threshold
# left.  The regular ensemble's fixed part (22 numpy calls) dominates.
# Measured at 33 calls and a saturation scan per iteration, against one
# evaluation at a time (50,316 iterations), the 18 regular thresholds at
# tol 1e-4 (3 channels, 6 degree pairs) took median time ratios of 0.71 at
# d = 5, 0.77 at d = 6, 0.65 at d = 7 (30,570 iterations), 0.69 at d = 8,
# 0.80 at d = 9 and 2.7 at d = 13 (all levels in one batch of 8191), 5 runs
# each, pinned to one CPU of a shared 2-core x86-64 VM.  With the kernels'
# powers as products, depths 6, 8 and 9 took medians of 1.68, 1.59 and
# 1.83 s against 1.49 s at 7 (5 interleaved runs, pinned as above).
SPECULATIVE_DEPTH = 7
# A chain's column part is larger: one (5,10,200,10) primary iteration costs
# about 65 us alone and 25 us more per chain in the batch, and (3,6,100,5)
# xor-only 65 us and 12 us more (fastest of 15 runs of 300 iterations, 1, 3
# and 7 chains, pinned as above).  What a batch gains is
# that the last levels, whose points lie nearest the threshold and run
# longest, overlap rather than run one after another.  At tol 1e-3 the 9
# levels are three batches.  Against one evaluation at a time, the three
# bisections of the coupled-thresholds benchmark took median time ratios
# of 0.93 and 0.99 at d = 2, 0.80 and 0.89 at d = 3, 0.94 and 1.08 at d = 4,
# and 0.85 at d = 5, in two sweeps of 3 runs each, pinned as above.  With
# the powers as products, they took a median 3.34 s at d = 3, against
# 3.71 s at d = 2 and 3.76 s at d = 4 (5 interleaved runs).
# Chains whose decoded rows reach the type-5 point mass (full-reveal;
# primary with d_v >= 6) batch like the others.  figure6's default primary
# sweep (d_v 3..9) took a median 28.8 s, against 32.3 s when such chains
# froze their decoded rows and left their batches for one evaluation at a
# time; the (9,10,200,10) bisection alone took 6.73 s against 6.45 s
# (wall time, 5 interleaved runs each, pinned as above).
CHAIN_SPECULATIVE_DEPTH = 3


class MonotonicityError(RuntimeError):
    """Decodability is not monotone in eps on a verification grid."""


@dataclass
class EvalMeta:
    eps: float
    decodable: bool
    iterations: int
    status: str
    min_p_dec: float


@dataclass
class ThresholdResult:
    eps_thresh: float
    eps_lo: float
    eps_hi: float
    tol: float
    # the bisection path, in its order; speculative points off it are not listed
    evals: List[EvalMeta] = field(default_factory=list)
    degenerate: bool = False  # eps = 0 already undecodable
    cap_limited: bool = False  # the evaluation that set eps_hi ended at the cap


def _meta(eps: float, res: DeOutcome) -> EvalMeta:
    return EvalMeta(eps, res.converged == "success", res.iterations_used,
                    res.converged, res.min_p_dec)


def is_decodable(
    e: Ensemble,
    family: ChannelFamily,
    eps: float,
    caps: Caps = Caps(),
    p_pi: float = 0.0,
) -> EvalMeta:
    """Run the evolution at eps (optionally punctured) and report the outcome."""
    return _meta(eps, de_coupled(e, effective_channel(family, eps, p_pi), caps))


def _subtree(lo: float, hi: float, depth: int, width: float) -> List[float]:
    """The midpoints that the bisection of [lo, hi] can visit in its next
    depth levels, before the bracket width falls to width or below."""
    if depth == 0 or not hi - lo > width:
        return []
    mid = 0.5 * (lo + hi)
    return [mid] + _subtree(lo, mid, depth - 1, width) + _subtree(mid, hi, depth - 1, width)


def find_threshold(
    e: Ensemble,
    family: ChannelFamily,
    caps: Caps = Caps(),
    p_pi: float = 0.0,
    verify_scan: Optional[int] = None,
) -> ThresholdResult:
    """Bisect for the largest decodable eps to a bracket width <= 2*tol,
    under the settings `caps.for_ensemble(e)`.

    With verify_scan=n >= 2, an n-point grid is evaluated first and a
    non-monotone decodability pattern raises MonotonicityError; the bisection
    reuses the grid's outcomes at eps 0 and 1.  A grid of fewer than two
    points cannot show a non-monotone pattern and raises ValueError.

    The points are evaluated ahead, in batches (see the module docstring);
    the result is the plain bisection's all the same.
    """
    if verify_scan is not None and verify_scan < 2:
        raise ValueError(f"verify_scan must be >= 2 grid points, got {verify_scan}")
    caps = caps.for_ensemble(e)
    width = 2 * caps.tol
    depth = CHAIN_SPECULATIVE_DEPTH if e.coupled else SPECULATIVE_DEPTH
    evals: List[EvalMeta] = []
    # outcomes evaluated ahead; None: evaluate alone when reached (the
    # points of a batch that raised)
    ahead: Dict[float, Optional[EvalMeta]] = {}

    def speculate(points: List[float]) -> None:
        ahead.clear()
        ahead.update(dict.fromkeys(points))
        try:
            pchs = [effective_channel(family, eps, p_pi) for eps in points]
            outcomes = de_batch(e, pchs, caps)
        except (ChannelError, SimplexError):
            return  # each point is evaluated alone when reached, and raises there
        ahead.update((eps, _meta(eps, res)) for eps, res in zip(points, outcomes))

    def check(eps: float) -> EvalMeta:
        meta = ahead.get(eps)
        if meta is None:
            meta = is_decodable(e, family, eps, caps, p_pi)
        evals.append(meta)
        return meta

    ends: Dict[float, EvalMeta] = {}
    if verify_scan is not None:
        grid = [float(x) for x in np.linspace(0.0, 1.0, verify_scan)]
        speculate(grid)
        metas = [check(x) for x in grid]
        ahead.clear()
        # decodable must form a prefix of the grid
        seen_false = False
        for m in metas:
            if not m.decodable:
                seen_false = True
            elif seen_false:
                raise MonotonicityError(
                    "decodability is not monotone in eps on the scan grid; "
                    "bisection would be unsound for this channel family"
                )
        ends = {metas[0].eps: metas[0], metas[-1].eps: metas[-1]}
    else:
        speculate([0.0, 1.0] + _subtree(0.0, 1.0, depth, width))

    def check_end(eps: float) -> EvalMeta:
        return ends[eps] if eps in ends else check(eps)

    def result(lo: float, hi: float, hi_meta: EvalMeta, degenerate: bool = False):
        return ThresholdResult(0.5 * (lo + hi), lo, hi, caps.tol, evals, degenerate,
                               hi_meta.status == "cap")

    at_zero = check_end(0.0)
    if not at_zero.decodable:
        return result(0.0, 0.0, at_zero, degenerate=True)
    hi_meta = check_end(1.0)
    if hi_meta.decodable:
        return result(1.0, 1.0, hi_meta)
    lo, hi = 0.0, 1.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid not in ahead:
            speculate(_subtree(lo, hi, depth, width))
        meta = check(mid)
        if meta.decodable:
            lo = mid
        else:
            hi, hi_meta = mid, meta
    return result(lo, hi, hi_meta)


@dataclass
class SweepRow:
    d_v: int
    d_c: int
    L: int
    w: int
    p_pi: float
    nominal_rate: float
    rate_pi: float
    eps_thresh: float
    eps_lo: float
    eps_hi: float
    evals: int
    cap_limited: bool


def _sweep_point(args) -> SweepRow:
    e, family, p_pi, caps = args
    res = find_threshold(e, family, caps=caps, p_pi=p_pi)
    rate = nominal_rate(e)
    return SweepRow(
        d_v=e.d_v,
        d_c=e.d_c,
        L=e.L,
        w=e.w,
        p_pi=p_pi,
        nominal_rate=rate,
        rate_pi=rate / (1 - p_pi),
        eps_thresh=res.eps_thresh,
        eps_lo=res.eps_lo,
        eps_hi=res.eps_hi,
        evals=len(res.evals),
        cap_limited=res.cap_limited,
    )


def sweep(
    ensembles: Sequence[Ensemble],
    family: ChannelFamily,
    puncture_grid: Sequence[float] = (0.0,),
    caps: Caps = Caps(),
    jobs: int = 1,
) -> List[SweepRow]:
    """Threshold and rate for every (ensemble, p_pi) pair, in input order,
    each bisected under `caps.for_ensemble` of its ensemble.  The pairs run
    on min(jobs, pairs) worker processes, or serially when that is 1."""
    tasks = [
        (e, family, float(p_pi), caps)
        for e in ensembles
        for p_pi in puncture_grid
    ]
    workers = min(jobs, len(tasks))
    if workers > 1:
        # imported here, since only a parallel sweep needs it and every CLI start
        # would pay for the import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_point, tasks))
    return [_sweep_point(t) for t in tasks]

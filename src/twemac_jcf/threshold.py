"""Decodability predicate, erasure-threshold bisection, and rate sweeps.

The threshold is the largest eps at which the evolution drives the
per-position success probability past the target (1 - 1e-5 by default)
within the iteration cap.  Bisection assumes decodability is monotone in
eps; a scan mode can verify this on a grid for unfamiliar channels.

The bisection is one walk over one memo of outcomes.  Where the walk meets
an eps that the memo lacks, one `de_batch` evolution evaluates a new batch
in its place: first the scan grid, or else eps 0 and 1 with the first
SPECULATIVE_DEPTH levels of the bisection tree on the regular ensemble
(CHAIN_SPECULATIVE_DEPTH levels on a chain); later the next levels below
the point missed.  The points off the walk's path are computed and
dropped.  A batch that raises leaves its points unknown, and each is
evaluated alone with `de_coupled` when the walk reaches it, so an error
surfaces only where the plain bisection would raise it.  The walk stops
once the bracket is no wider than 2*tol, or once no float lies strictly
between its ends, which then are adjacent floats.  The result, `evals`
included, is the plain bisection's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .channel import ChannelError, ChannelFamily, effective_channel
from .de_core import SimplexError
from .de_coupled import Caps, DeOutcome, Ensemble, de_batch, de_coupled, nominal_rate

# Levels of the bisection tree that one batched evolution covers.  An
# iteration costs a fixed part plus a part per column, and most of a
# batch's iterations run with only the few points nearest the threshold
# left.  The regular ensemble's fixed part dominates, so a deep batch pays:
# the 18 regular thresholds at tol 1e-4 (3 channels, 6 degree pairs) took
# medians of 1.68, 1.59 and 1.83 s at depths 6, 8 and 9, against 1.49 s at
# 7 (5 interleaved runs, pinned to one CPU of a shared 2-core x86-64 VM).
SPECULATIVE_DEPTH = 7
# A chain's part per column is larger: one (5,10,200,10) primary iteration
# costs about 65 us alone and 25 us more per chain in the batch, and
# (3,6,100,5) xor-only 65 us and 12 us more (fastest of 15 runs of 300
# iterations with 1, 3 and 7 chains, pinned as above).  A batch gains by
# running the last levels, whose points lie nearest the threshold and run
# longest, side by side.  The three bisections of the coupled-thresholds
# benchmark took a median 3.34 s at depth 3, against 3.71 s at 2 and 3.76 s
# at 4 (5 interleaved runs, pinned as above).
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


def _midpoint(lo: float, hi: float, width: float) -> Optional[float]:
    """The bisection's next point in [lo, hi], or None once the bracket is no
    wider than width or no float lies strictly between lo and hi."""
    mid = 0.5 * (lo + hi)
    return mid if hi - lo > width and lo < mid < hi else None


def _subtree(lo: float, hi: float, depth: int, width: float) -> List[float]:
    """The midpoints that the bisection of [lo, hi] can visit in its next
    depth levels."""
    mid = _midpoint(lo, hi, width)
    if depth == 0 or mid is None:
        return []
    return [mid] + _subtree(lo, mid, depth - 1, width) + _subtree(mid, hi, depth - 1, width)


def find_threshold(
    e: Ensemble,
    family: ChannelFamily,
    caps: Caps = Caps(),
    p_pi: float = 0.0,
    verify_scan: Optional[int] = None,
) -> ThresholdResult:
    """Bisect for the largest decodable eps to a bracket width <= 2*tol, or
    to two adjacent floats, under the settings `caps.for_ensemble(e)`.

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
    memo: Dict[float, Optional[EvalMeta]] = {}  # the last batch; None: it raised

    def check(eps: float, batch: Callable[[], List[float]]) -> EvalMeta:
        if eps not in memo:
            points = batch()
            memo.clear()
            memo.update(dict.fromkeys(points))
            try:
                outcomes = de_batch(e, [effective_channel(family, x, p_pi) for x in points], caps)
                memo.update((x, _meta(x, res)) for x, res in zip(points, outcomes))
            except (ChannelError, SimplexError):
                pass  # each point is evaluated alone when reached, and raises there
        meta = memo[eps] or is_decodable(e, family, eps, caps, p_pi)
        evals.append(meta)
        return meta

    if verify_scan is None:
        first = [0.0, 1.0] + _subtree(0.0, 1.0, depth, width)
        metas = [check(0.0, lambda: first)]
        if metas[0].decodable:
            metas.append(check(1.0, lambda: first))
    else:
        grid = [float(x) for x in np.linspace(0.0, 1.0, verify_scan)]
        metas = [check(x, lambda: grid) for x in grid]
        memo.clear()  # the walk's batches are the plain walk's, whatever the grid
    decodable = [m.decodable for m in metas]  # must form a prefix of the grid
    if decodable != sorted(decodable, reverse=True):
        raise MonotonicityError("decodability is not monotone in eps on the scan grid; "
                                "bisection would be unsound for this channel family")
    # eps 0 undecodable leaves the bracket [0, 0], eps 1 decodable [1, 1]
    lo, hi, hi_meta = 0.0, 1.0, metas[-1]
    if not metas[0].decodable:
        hi, hi_meta = 0.0, metas[0]
    elif hi_meta.decodable:
        lo = 1.0
    while (mid := _midpoint(lo, hi, width)) is not None:
        meta = check(mid, lambda: _subtree(lo, hi, depth, width))
        if meta.decodable:
            lo = mid
        else:
            hi, hi_meta = mid, meta
    return ThresholdResult(0.5 * (lo + hi), lo, hi, caps.tol, evals,
                           not metas[0].decodable, hi_meta.status == "cap")


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

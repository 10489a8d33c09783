"""Erasure-threshold bisection and threshold sweeps.

The threshold is the largest eps at which the evolution drives the
per-position success probability past the target (1 - 1e-5 by default)
within the iteration cap.  Bisection is sound only if the decodable eps
form a prefix [0, eps*]: by degradation on xor-only, only empirically on
the other families.  `find_threshold` checks this on every outcome it
evaluated, and a family that breaks it raises MonotonicityError.

The bisection is one walk over one memo, which keeps every outcome
computed, each the engine's `DeOutcome`.  Where the walk meets an eps that
the memo lacks, one `de_batch` evolution evaluates a new batch in its
place: first the scan grid, or else eps 0 and 1 with the first
SPECULATIVE_DEPTH levels of the bisection tree on the regular ensemble
(CHAIN_SPECULATIVE_DEPTH levels on a chain); later the next levels below
the point missed.  A batch that raises leaves its points unknown, and each
is evaluated alone, as a batch of one, when the walk reaches it, and then
kept, so an error surfaces only where the plain bisection would raise it.
The walk stops once the bracket is no wider than 2*tol, or once no float
lies strictly between its ends, which then are adjacent floats.  On a
monotone family the result, `evals` included, is the plain bisection's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .channel import ChannelError, ChannelFamily
from .de_core import SimplexError
from .de_coupled import Caps, DeOutcome, Ensemble, de_batch

# Levels of the bisection tree that one batched evolution covers.  An
# iteration costs a fixed part plus a part per column, and most of a
# batch's iterations run with only the few points nearest the threshold
# left.  The regular ensemble's fixed part dominates, so a deep batch pays:
# the 18 regular thresholds at tol 1e-4 (3 channels, 6 degree pairs) took
# medians of 0.84, 0.79 and 0.86 s at depths 6, 8 and 9, against 0.75 s at
# 7 (7 interleaved runs, pinned to one CPU of a shared 2-core x86-64 VM).
SPECULATIVE_DEPTH = 7
# A chain's part per column is larger: one (5,10,200,10) primary iteration
# costs about 22 us plus 14 us per chain in the batch, and (3,6,100,5)
# xor-only 25 us plus 7 us per chain (a fit over 1, 3 and 7 chains, each
# the fastest of 15 runs of 300 iterations, median of 6 processes, pinned
# as above).  A batch gains by running the last levels, whose points lie
# nearest the threshold and run longest, side by side.  The three
# bisections of the coupled-thresholds benchmark took a median 1.68 s at
# depth 3, against 1.81 s at 2 and 1.89 s at 4 (7 interleaved runs, pinned
# as above).
CHAIN_SPECULATIVE_DEPTH = 3


class MonotonicityError(RuntimeError):
    """The decodable eps that a bisection evaluated do not form a prefix."""


@dataclass
class ThresholdResult:
    eps_thresh: float
    eps_lo: float
    eps_hi: float
    tol: float
    # the bisection path's (eps, outcome) pairs, in its order; speculative
    # points off it are not listed
    evals: List[Tuple[float, DeOutcome]] = field(default_factory=list)
    degenerate: bool = False  # eps = 0 already undecodable
    cap_limited: bool = False  # the evaluation that set eps_hi ended at the cap


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
    verify_scan: Optional[int] = None,
) -> ThresholdResult:
    """Bisect for the largest eps at which `family.eval(eps)` is decodable,
    to a bracket width <= 2*tol, or to two adjacent floats, under the
    settings `caps.for_ensemble(e)`.  A punctured family (its `p_pi`) gives
    the punctured threshold.

    Whenever the memo gains outcomes, the decodable ones, skipping points
    whose batch raised, must form a prefix in eps order, or MonotonicityError
    names the lowest undecodable eps and the highest decodable one above it.
    verify_scan=n >= 2 (else ValueError) makes an n-point grid the first
    batch, read in order; the walk reads its outcomes, its ends included,
    wherever its path meets them.

    The points are evaluated ahead, in batches (see the module docstring);
    on a monotone family the result is the plain bisection's.  Its `evals`
    lists the path's (eps, DeOutcome) pairs, and an outcome is decodable
    when its evolution ended in success.
    """
    if verify_scan is not None and verify_scan < 2:
        raise ValueError(f"verify_scan must be >= 2 grid points, got {verify_scan}")
    caps = caps.for_ensemble(e)
    width = 2 * caps.tol
    depth = CHAIN_SPECULATIVE_DEPTH if e.coupled else SPECULATIVE_DEPTH
    evals: List[Tuple[float, DeOutcome]] = []
    memo: Dict[float, Optional[DeOutcome]] = {}  # every outcome so far; None: its batch raised

    def check(eps: float, batch: Callable[[], List[float]]) -> DeOutcome:
        if memo.get(eps) is None:  # the memo gains outcomes
            if eps not in memo:
                points = batch()
                memo.update(dict.fromkeys(points))
                try:
                    memo.update(zip(points, de_batch(e, [family.eval(x) for x in points], caps)))
                except (ChannelError, SimplexError):
                    pass  # each point is evaluated alone when reached, and raises there
            memo[eps] = memo[eps] or de_batch(e, [family.eval(eps)], caps)[0]
            bad = min((x for x, out in memo.items() if out and not out.decodable), default=2.0)
            good = max((x for x, out in memo.items() if out and out.decodable), default=-1.0)
            if good > bad:
                raise MonotonicityError(f"decodability is not monotone in eps: eps {bad} does "
                                        f"not decode, but eps {good} above it does")
        evals.append((eps, memo[eps]))
        return memo[eps]

    # every point of the scan in order; else eps 0, and eps 1 if eps 0 decodes
    start = [float(x) for x in np.linspace(0.0, 1.0, verify_scan or 2)]
    first = start if verify_scan else start + _subtree(0.0, 1.0, depth, width)
    for x in start:
        if not (check(x, lambda: first).decodable or verify_scan):
            break
    # eps 0 undecodable leaves the bracket [0, 0], eps 1 decodable [1, 1]
    degenerate = not memo[0.0].decodable
    lo, hi = (0.0, 0.0) if degenerate else (1.0, 1.0) if memo[1.0].decodable else (0.0, 1.0)
    while (mid := _midpoint(lo, hi, width)) is not None:
        if check(mid, lambda: _subtree(lo, hi, depth, width)).decodable:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(0.5 * (lo + hi), lo, hi, caps.tol, evals, degenerate,
                           memo[hi].converged == "cap")


def sweep(
    pairs: Sequence[Tuple[Ensemble, ChannelFamily]],
    caps: Caps = Caps(),
    jobs: int = 1,
) -> List[ThresholdResult]:
    """`find_threshold` of every (ensemble, family) pair, in input order,
    each bisected under `caps.for_ensemble` of its ensemble; a punctured
    family gives its punctured threshold.  The pairs run on min(jobs, pairs)
    worker processes, or serially when that is 1."""
    args = ([e for e, _ in pairs], [f for _, f in pairs], [caps] * len(pairs))
    workers = min(jobs, len(pairs))
    if workers > 1:
        # imported here, since only a parallel sweep needs it and every CLI start
        # would pay for the import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(find_threshold, *args))
    return list(map(find_threshold, *args))

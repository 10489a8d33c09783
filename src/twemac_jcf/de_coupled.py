"""Type distribution evolution for (d_v, d_c, L, w) ensembles.

Variable positions occupy -L..L (rows 0..2L); check positions -L..L+w-1
(rows 0..2L+w-1).  Effective node inputs are width-w window averages of the
per-position message distributions: check row q averages variable rows
q-w+1..q, whose out-of-range rows read as the type-5 point mass (pseudo
variable nodes fixed to the known all-zero pair), and variable row i
averages check rows i..i+w-1.  Window averages use fresh prefix sums each
iteration, starting at the first row a window reads.

The chain is symmetric under the mirror map variable i <-> 2L-i, check
q <-> 2L+w-1-q, and so is every iteration, so the evolution holds only the
half chain up to the centre: variable rows 0..L (positions -L..0) and check
rows 0..L+w-1, the ones those variables read.  A check row near the centre
reads variable row j > L as its mirror 2L-j, and j > 2L as the type-5 pad;
the variable rows sit in one padded buffer with those mirror and pad
columns, so a check window is a view on it.  Message rows are type-major
(R, B, k) arrays, B blocks (one per channel; see `de_batch`) of k
columns, so that each type is one contiguous row: R = 4 where types 2
and 3 share one (`_type_rows`), else 5.  A window averages only the R - 1
rows its kernel reads, with no type 1 at checks and no type 5 at variables.
Snapshots unfold the half chain to all 2L+1 variable and 2L+w check
rows of 5 types; an outcome keeps only them, its status, its iteration
count and its smallest p_dec.

A regular (d_v, d_c) ensemble is the chain with L = 0 and w = 1: one
position, no boundary, and no mirror.  One iteration applies the
closed-form kernels of `de_core` to all rows at once:

    pcv[q]   = chk_update(window average of pvc at check q, d_c - 1)
    pvc[i]   = var_update(join_weights(pch), window average of pcv at i, d_v - 1)[0]
    p_dec[i] = types 4 + 5 of the same var_update's [1], the join with d_v

`de_batch` is the one evolution loop, and evolves the ensemble under many
channels at once: the channels' chains sit side by side as blocks of
columns, each with its own pads and mirror columns, and each block stops
by its own rules and then leaves the batch: the loop's arrays are cut
down to the running blocks, and its buffers are made and its kernels
bound once for each set of running blocks.  Every kernel acts on each
column alone and every window's prefix sums run within its block, so each
outcome is bit for bit the one a batch of that channel alone gives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Collection, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .channel import validate_dist
from .de_core import bind_chk_update, bind_var_update, check_simplex, copies, join_weights

E5 = np.array([0.0, 0.0, 0.0, 0.0, 1.0])[:, None, None]  # the type-5 point mass, (5, 1, 1)

DEFAULT_SUCCESS_TARGET = 1.0 - 1e-5
STALL_TOL = 1e-12  # an evolution stalls when every variable row changes by less
DEFAULT_REGULAR_LMAX = 5000
DEFAULT_COUPLED_LMAX = 20000
DEFAULT_REGULAR_TOL = 1e-4
DEFAULT_COUPLED_TOL = 1e-3


@dataclass(frozen=True)
class Ensemble:
    """A (d_v, d_c, L, w) spatially coupled ensemble; L = 0, w = 1 is the
    (d_v, d_c)-regular ensemble."""

    d_v: int
    d_c: int
    L: int = 0
    w: int = 1

    def __post_init__(self):
        min_dv = 2 if self.coupled else 1
        if self.d_v < min_dv:
            raise ValueError(f"d_v must be >= {min_dv} when L = {self.L}, got {self.d_v}")
        if self.d_c < 2:
            raise ValueError(f"d_c must be >= 2, got {self.d_c}")
        if self.L < 0:
            raise ValueError(f"L must be >= 0, got {self.L}")
        if self.w < 1:
            raise ValueError(f"w must be >= 1, got {self.w}")
        if not self.coupled and self.w != 1:
            raise ValueError(f"the regular ensemble (L = 0) has w = 1, got w = {self.w}")

    @property
    def coupled(self) -> bool:
        """True for a coupled chain, False for the regular ensemble."""
        return self.L > 0

    @property
    def n_var_positions(self) -> int:
        return 2 * self.L + 1

    @property
    def n_chk_positions(self) -> int:
        return 2 * self.L + self.w


@dataclass(frozen=True)
class Caps:
    """Stopping settings of a run: the iteration cap and success target of
    each evolution, and the tolerance of a threshold bisection (bracket
    width <= 2*tol).  l_max and tol left at None take the ensemble's
    defaults in `for_ensemble`."""

    l_max: Optional[int] = None
    tol: Optional[float] = None
    success_target: float = DEFAULT_SUCCESS_TARGET

    def __post_init__(self):
        if self.l_max is not None and self.l_max < 1:
            raise ValueError(f"l_max must be >= 1, got {self.l_max}")
        if self.tol is not None and not self.tol > 0:  # also NaN
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if not 0.0 < self.success_target < 1.0:
            raise ValueError(f"success_target must be in (0,1), got {self.success_target}")

    def for_ensemble(self, e: Ensemble) -> "Caps":
        """These settings with e's default cap and tolerance in place of None:
        5000 and 1e-4 for the regular ensemble, 20000 and 1e-3 for a chain."""
        return replace(
            self,
            l_max=self.l_max or (DEFAULT_COUPLED_LMAX if e.coupled else DEFAULT_REGULAR_LMAX),
            tol=self.tol or (DEFAULT_COUPLED_TOL if e.coupled else DEFAULT_REGULAR_TOL),
        )


def nominal_rate(e: Ensemble) -> float:
    """Design rate of the ensemble (may be negative for tiny L); exactly
    1 - d_v/d_c for the regular ensemble."""
    ratio = e.d_v / e.d_c
    i = np.arange(e.w + 1)
    boundary = (e.w + 1 - 2 * np.sum((i / e.w) ** e.d_c)) / (2 * e.L + 1)
    return (1 - ratio) - ratio * boundary


def _bind_window_mean(
    rows: np.ndarray, w: int, cs: np.ndarray, out: np.ndarray
) -> Tuple[Callable[[], None], np.ndarray]:
    """A closure that writes the means of w consecutive columns of rows, as
    they are at the call, into out (..., k-w+1): out[..., i] = mean of
    rows[..., i..i+w-1], from prefix sums in cs (..., k+1) whose first
    column must hold 0; and where the means are: out, or rows when w = 1.

    Prefix sums run from the first column of each block (each index of the
    leading axes), so a column's mean depends only on the columns of its
    block up to its window's end.
    """
    if w == 1:
        return lambda: None, rows
    sums, hi, lo = cs[..., 1:], cs[..., w:], cs[..., :-w]

    def window_mean():
        np.add.accumulate(rows, axis=-1, out=sums)
        np.subtract(hi, lo, out=out)
        np.divide(out, w, out=out)

    return window_mean, out


def _type_rows(e: Ensemble, pchs: np.ndarray) -> np.ndarray:
    """Each type's row in the evolution: types 2 and 3 share one when every
    channel gives them the same bits and w > 1 (at w = 1 no window averages,
    and the 4-row remainders' extra calls cost a regular iteration 5-8%)."""
    if e.w > 1 and pchs[:, 1].tobytes() == pchs[:, 2].tobytes():
        return np.array([0, 1, 1, 2, 3])
    return np.arange(5)


def _unfold(half: np.ndarray, n: int) -> np.ndarray:
    """The n full-chain rows from the rows of the half chain, which run up to
    and past the centre: row j >= len(half) is the mirror of row n-1-j."""
    return np.concatenate([half, half[: n - len(half)][::-1]])


class Snapshot(NamedTuple):
    """Copies of the message rows and per-position p_dec after one iteration."""

    pvc: np.ndarray
    pcv: np.ndarray
    p_dec: np.ndarray


@dataclass
class DeOutcome:
    """Outcome of an evolution run.  The state after iteration k is
    snapshots[k], kept for each k asked for and, when any is, for the last
    iteration, snapshots[iterations_used]."""

    min_p_dec: float
    iterations_used: int
    converged: str  # 'success' | 'stall' | 'cap'
    snapshots: Dict[int, Snapshot]

    @property
    def decodable(self) -> bool:
        """Whether the evolution reached the success target."""
        return self.converged == "success"


def de_batch(
    e: Ensemble, pchs: Sequence, caps: Caps = Caps(), snapshot_iters: Collection[int] = ()
) -> List[DeOutcome]:
    """The ensemble evolved under every channel of pchs at once until
    success, stall or cap, one outcome per channel; a channel evolves
    alone as the batch [pch].

    Each channel distribution is its chain's first variable-to-check
    message.  Success means min-over-positions p_dec >= success_target,
    where p_dec is the type-4 + type-5 mass of the decoder output; stall
    means the sup-norm change of the variable-to-check rows fell below
    STALL_TOL.  Every iteration updates every row of the half chain.  A
    snapshot is kept after each iteration in snapshot_iters and, when
    snapshot_iters is non-empty, after the last one.

    Each channel is one block of the loop, a chain of its own, and each
    block stops by its own success, stall or cap, at its own iteration
    count, and keeps its own snapshots.  Every column array is
    (..., B, width): B running blocks side by side, each with L+1 variable
    and L+w check columns, and in the padded variable buffer its own
    type-5 pads and mirror columns.  Blocks that end are recorded, the
    arrays are cut down to the others, and `bind` makes the scratch, views
    and bound kernels for those.
    """
    if not len(pchs):
        return []
    pchs = np.array([validate_dist(p) for p in pchs])
    type_rows = _type_rows(e, pchs)
    pchs = pchs[:, np.unique(type_rows, return_index=True)[1]]  # each row's first type
    l_max = caps.for_ensemble(e).l_max
    L, w = e.L, e.w
    nv, nc = e.n_var_positions, e.n_chk_positions
    kc, kv = L + w, L + 1
    m = min(w - 1, L)  # variable rows past the centre that checks read
    # vbuf holds each block's padded variable rows -w+1..L+w-1: the type-5
    # pad, rows 0..L, their mirrors L+1..L+m, and the type-5 pad again
    vbuf = np.empty((pchs.shape[1], len(pchs), L + 2 * w - 1))
    vbuf[:] = E5[-len(vbuf) :]
    vbuf[:, :, w - 1 : w + L + m] = pchs.T[:, :, None]
    pcv = np.repeat(pchs.T[:, :, None], kc, axis=2)
    p_dec = np.zeros((len(pchs), kv))
    weights = join_weights(pchs.T)[..., None]  # each block's channel, (R - 1, 1, B, 1)
    ids = np.arange(len(pchs))  # the channel of each block

    def bind():
        """One iteration over the running blocks, on scratch made, views cut
        and kernels bound once for these.  The step returns each block's
        smallest p_dec and largest change of a variable row."""
        B, R = len(ids), len(vbuf)
        vc_cs, vc_buf = np.empty((R - 1, B, kc + w)), np.empty((R - 1, B, kc))
        cv_cs, cv_buf = np.empty((R - 1, B, kv + w)), np.empty((R - 1, B, kv))
        vc_cs[..., 0] = cv_cs[..., 0] = 0.0
        powers, out = np.empty((2, R - 1, B, kv)), np.empty((R, 2, B, kv))
        # the kernels' powers: products over stride-0 copies of their bases
        chk_bases = copies(np.empty((R - 1, B, kc)), e.d_c - 1)
        var_bases = copies(powers[1], e.d_v - 1)
        new, dec4, dec5 = out[:, 0], out[-2, 1], out[-1, 1]
        change, block_min, block_change = np.empty((R, B, kv)), np.empty(B), np.empty(B)
        pvc, mirror = vbuf[:, :, w - 1 : w + L], vbuf[:, :, w + L : w + L + m]
        mirror_src = new[..., kv - 1 - m : kv - 1][..., ::-1]
        # check rows 0..L+w-1 average variable rows -w+1..L+w-1 of types 2..5
        # (vbuf, mirrors and pads included), variable rows 0..L check rows
        # 0..L+w-1 of types 1..4 (pcv)
        vc_window, vc_means = _bind_window_mean(vbuf[1:], w, vc_cs, vc_buf)
        cv_window, cv_means = _bind_window_mean(pcv[:-1], w, cv_cs, cv_buf)
        chk_update = bind_chk_update(vc_means, chk_bases, pcv)
        var_update = bind_var_update(weights, cv_means, var_bases, powers, out)

        def step():
            vc_window()
            chk_update()
            check_simplex(pcv)
            cv_window()
            var_update()
            check_simplex(out)
            np.add(dec4, dec5, out=p_dec)
            np.abs(np.subtract(new, pvc, out=change), out=change)
            pvc[...] = new
            if m:
                mirror[...] = mirror_src
            return (np.minimum.reduce(p_dec, axis=1, out=block_min),
                    np.maximum.reduce(change, axis=(0, 2), out=block_change))

        return step

    snapshots: List[Dict[int, Snapshot]] = [{} for _ in pchs]
    outcomes: List[DeOutcome] = [None] * len(pchs)

    def snapshot(s: int) -> Snapshot:
        pvc, cv = vbuf[type_rows, s, w - 1 : w + L], pcv[type_rows, s]
        return Snapshot(_unfold(pvc.T, nv), _unfold(cv.T, nc), _unfold(p_dec[s], nv))

    def finish(s: int, status: str) -> None:
        """Record the outcome of the evolution in block s."""
        i = ids[s]
        if snapshot_iters:
            snapshots[i][it] = snapshot(s)
        outcomes[i] = DeOutcome(float(p_dec[s].min()), it, status, snapshots[i])

    step = bind()
    for it in range(1, l_max + 1):
        mins, changes = step()

        if it in snapshot_iters:
            for s, i in enumerate(ids):
                snapshots[i][it] = snapshot(s)
        if max(mins.tolist()) >= caps.success_target or min(changes.tolist()) < STALL_TOL:
            reached = mins >= caps.success_target
            done = reached | (changes < STALL_TOL)
            for s in np.flatnonzero(done):
                finish(s, "success" if reached[s] else "stall")
            keep = ~done
            vbuf, pcv, p_dec, weights = (a[..., keep, :] for a in (vbuf, pcv, p_dec, weights))
            ids = ids[keep]
            if not len(ids):
                break
            step = bind()
    for s in range(len(ids)):
        finish(s, "cap")
    return outcomes

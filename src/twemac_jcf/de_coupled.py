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
(5, B, k) arrays, B blocks (one per channel; see `de_batch`) of k
columns, so that each type is one contiguous row.
`DeOutcome` and its snapshots unfold the half chain to all 2L+1 variable
and 2L+w check rows.

A regular (d_v, d_c) ensemble is the chain with L = 0 and w = 1: one
position, no boundary, and no mirror.  One iteration applies the
closed-form kernels of `de_core` to all updated rows at once:

    pcv[q]   = chk_update(window average of pvc at check q, d_c - 1)
    pvc[i]   = var_update(join_weights(pch), window average of pcv at i, d_v - 1)[0]
    p_dec[i] = types 4 + 5 of the same var_update's [1], the join with d_v

`de_batch` evolves the ensemble under many channels in the same loop: the
channels' chains sit side by side as blocks of columns, each with its own
pads and mirror columns, and each block stops by its own rules and then
leaves the batch.  Every kernel acts on each column alone and every
window's prefix sums run within its block, so each outcome is bit for bit
the one `de_coupled` gives for that channel.  The left edge stays at 0 in
a batch: a block whose edge would move leaves it without an outcome, to be
evaluated alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Collection, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from .channel import validate_dist
from .de_core import chk_update, join_weights, renormalize, var_update

E5 = np.array([0.0, 0.0, 0.0, 0.0, 1.0])[:, None, None]  # the type-5 point mass, (5, 1, 1)

DEFAULT_SUCCESS_TARGET = 1.0 - 1e-5
DEFAULT_STALL_TOL = 1e-12
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
    """Stopping settings of a run: the iteration cap, success target and
    stall tolerance of each evolution, and the tolerance of a threshold
    bisection (bracket width <= 2*tol).  l_max and tol left at None take
    the ensemble's defaults in `for_ensemble`."""

    l_max: Optional[int] = None
    tol: Optional[float] = None
    success_target: float = DEFAULT_SUCCESS_TARGET
    stall_tol: float = DEFAULT_STALL_TOL

    def __post_init__(self):
        if self.l_max is not None and self.l_max < 1:
            raise ValueError(f"l_max must be >= 1, got {self.l_max}")
        if self.tol is not None and not self.tol > 0:  # also NaN
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if not 0.0 < self.success_target < 1.0:
            raise ValueError(f"success_target must be in (0,1), got {self.success_target}")
        if not self.stall_tol >= 0:  # also NaN
            raise ValueError(f"stall_tol must be >= 0, got {self.stall_tol}")

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


def _window_mean(rows: np.ndarray, w: int, cs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Means of w consecutive columns along the last axis into out
    (..., k-w+1): out[..., i] = mean of rows[..., i..i+w-1], from prefix
    sums in cs (..., k+1), whose first column must hold 0; rows itself when
    w = 1.

    Prefix sums run from the first column of each block (each index of the
    leading axes), so a column's mean depends only on the columns of its
    block up to its window's end.
    """
    if w == 1:
        return rows
    np.add.accumulate(rows, axis=-1, out=cs[..., 1:])
    np.subtract(cs[..., w:], cs[..., :-w], out=out)
    out /= w
    return out


def eff_vc_window(padded: np.ndarray, w: int, cs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Effective check inputs (5, ..., k) for check rows lo..L+w-1, k = L+w-lo.

    padded (5, ..., k+w-1) holds variable rows lo-w+1..L+w-1: row j reads
    as its mirror 2L-j for L < j <= 2L, and as the type-5 point mass for
    j < 0 or j > 2L.  Check row q averages variable rows q-w+1..q.
    """
    return _window_mean(padded, w, cs, out)


def eff_cv_window(pcv: np.ndarray, w: int, cs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Effective variable inputs (5, ..., L+1-lo) for variable rows lo..L.

    pcv holds check rows lo..L+w-1.  Variable row i averages check rows
    i..i+w-1 (always in range).
    """
    return _window_mean(pcv, w, cs, out)


def _head(buf: np.ndarray, *shape: int) -> np.ndarray:
    """A contiguous view of the given shape on the start of buf's memory."""
    return buf.reshape(-1)[: int(np.prod(shape))].reshape(shape)


def _flat(a: np.ndarray) -> np.ndarray:
    """A view of a with its last two axes merged; raises rather than copy,
    since the kernels write into some of these views."""
    flat = a.reshape(a.shape[:-2] + (-1,))
    if not np.may_share_memory(flat, a):
        raise ValueError(f"axes of strides {a.strides[-2:]} cannot merge without a copy")
    return flat


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
    """Outcome of an evolution run."""

    p_dec: np.ndarray  # per variable position, -L..L
    min_p_dec: float
    iterations_used: int
    converged: str  # 'success' | 'stall' | 'cap'
    final_pvc: np.ndarray
    final_pcv: np.ndarray
    snapshots: Dict[int, Snapshot] = field(default_factory=dict)


def de_coupled(
    e: Ensemble,
    pch,
    caps: Caps = Caps(),
    snapshot_iters: Collection[int] = (),
) -> DeOutcome:
    """Run type distribution evolution until success, stall, or cap.

    The channel distribution is the first variable-to-check message.
    Success means min-over-positions p_dec >= success_target, where p_dec
    is the type-4 + type-5 mass of the decoder output; stall means the
    sup-norm change of the variable-to-check rows fell below stall_tol.
    Each iteration updates only the positions from w before the first
    unsaturated one, whose variable-to-check distribution is more than
    stall_tol from the type-5 point mass, to the centre and their mirrors;
    the rest stay frozen.  This left-edge pruning engages only where
    decoded rows reach the type-5 point mass: on full-reveal, a BEC on
    types 1 and 5, and on primary with d_v >= 6 the decoded wave leaves
    such rows behind, while on xor-only, and on primary with d_v <= 5,
    the decoded rows settle on type 4 or on a mixture of types 4 and 5,
    and every row stays updated.  A snapshot is
    kept after each iteration in snapshot_iters and, when snapshot_iters
    is non-empty, after the last one.

    Every array is allocated once per call, at full width, and the views
    on them that depend on the left edge are cut only when it moves.
    """
    return _evolve(e, validate_dist(pch)[None], caps, snapshot_iters)[0]


def de_batch(e: Ensemble, pchs: Sequence, caps: Caps = Caps()) -> List[Optional[DeOutcome]]:
    """The ensemble evolved under every channel of pchs at once.

    Each channel is one block of the same loop as `de_coupled`'s, a chain
    of its own, and each block stops by its own saturation, success, stall
    or cap, at its own iteration count, and then leaves the batch.  The
    kernels act on each column alone and the window sums run within each
    block, so every outcome equals `de_coupled(e, pch, caps)` bit for bit.
    While other blocks run, a block whose left edge would move leaves the
    batch without an outcome: its entry is None.  That happens only where
    decoded rows saturate to type 5 (see `de_coupled`), and never on the
    regular ensemble, whose one position has no left edge.
    """
    if not len(pchs):
        return []
    return _evolve(e, np.array([validate_dist(p) for p in pchs]), caps)


def _evolve(
    e: Ensemble, pchs: np.ndarray, caps: Caps, snapshot_iters: Collection[int] = ()
) -> List[Optional[DeOutcome]]:
    """The evolution loop: one outcome per channel, a row of pchs (B, 5).

    Every column array is (..., B, width): B blocks side by side, one chain
    per channel, each with L+1 variable and L+w check columns, and in the
    padded variable buffer its own type-5 pads and mirror columns.  A block
    that ends is recorded and dropped by moving the others to the end of
    the block axis and re-cutting the views, as a moving left edge does.
    While more than one block runs, all keep the left edge at 0, and a
    block whose left edge would move leaves without an outcome; the last
    block moves its left edge as a lone chain does.
    """
    l_max = caps.for_ensemble(e).l_max
    L, w = e.L, e.w
    nv, nc = e.n_var_positions, e.n_chk_positions
    B = len(pchs)
    m = min(w - 1, L)  # variable rows past the centre that checks read
    # vbuf[0] holds each block's padded variable rows -w+1..L+w-1: the
    # type-5 pad, rows 0..L, their mirrors L+1..L+m, and the type-5 pad
    # again.  vbuf[1] is the type-5 point mass in every column, so that one
    # subtraction gives each new row's change and its distance from type 5.
    vbuf = np.empty((2, 5, B, L + 2 * w - 1))
    vbuf[:] = E5
    vbuf[0, :, :, w - 1 : w + L + m] = pchs.T[:, :, None]
    pvc = vbuf[0, :, :, w - 1 : w + L]
    pcv = np.repeat(pchs.T[:, :, None], L + w, axis=2)
    p_dec = np.zeros((B, L + 1))
    weights = np.repeat(join_weights(pchs.T)[..., None], L + 1, axis=3)  # each column's channel
    # scratch at the widths of lo = 0; `bind` cuts contiguous views from it
    kc, kv = L + w, L + 1
    vc_cs, vc_mean, chk = np.empty((5, B, kc + w)), np.empty((5, B, kc)), np.empty((5, B * kc))
    chk_sums = np.empty(B * kc)
    cv_cs, cv_mean = np.empty((5, B, kv + w)), np.empty((5, B, kv))
    powers, out, var_sums = np.empty((2, 4, B * kv)), np.empty((5, 2, B * kv)), np.empty((2, B * kv))
    diff, dist, unsat = np.empty((5, 2, B, kv)), np.empty((B, kv)), np.empty((B, kv), dtype=bool)
    block_min, block_change = np.empty(B), np.empty(B)

    def bind(b0: int, lo: int):
        """One iteration over blocks b0.. from check and variable column lo
        on, on views cut once for these.  The step returns each block's
        smallest p_dec and largest change of a variable row, and leaves in
        the returned mask which variable rows are still unsaturated."""
        nb, kc, kv = B - b0, L + w - lo, L + 1 - lo
        padded, pcv_lo, pvc_lo = vbuf[0, :, b0:, lo:], pcv[:, b0:, lo:], pvc[:, b0:, lo:]
        p_dec_b, p_dec_lo = p_dec[b0:], p_dec[b0:, lo:]
        vc_cs_lo, vc_mean_lo = _head(vc_cs, 5, nb, kc + w), _head(vc_mean, 5, nb, kc)
        cv_cs_lo, cv_mean_lo = _head(cv_cs, 5, nb, kv + w), _head(cv_mean, 5, nb, kv)
        vc_cs_lo[..., 0] = cv_cs_lo[..., 0] = 0.0
        # the kernels see every block's columns as one axis, (5, nb*k): the
        # window means, or with w = 1 the rows themselves
        p, q = _flat(padded if w == 1 else vc_mean_lo), _flat(pcv_lo if w == 1 else cv_mean_lo)
        pcv_f, weights_f = _flat(pcv_lo), _flat(weights[..., b0:, lo:])
        chk_f, chk_sums_f = _head(chk, 5, nb * kc), _head(chk_sums, nb * kc)
        powers_f, out_f, var_sums_f = (_head(powers, 2, 4, nb * kv), _head(out, 5, 2, nb * kv),
                                       _head(var_sums, 2, nb * kv))
        out_lo = out_f.reshape(5, 2, nb, kv)
        new, dec4, dec5 = out_lo[:, 0], out_lo[3, 1], out_lo[4, 1]
        # the new rows broadcast against the old rows and type 5 side by side
        new_b = out_lo[:, :1]
        old_e5 = vbuf[:, :, b0:, w - 1 + lo : w + L].transpose(1, 0, 2, 3)
        diff_lo = _head(diff, 5, 2, nb, kv)
        change, from_e5 = diff_lo[:, 0], diff_lo[:, 1]
        dist_lo, unsat_lo = _head(dist, nb, kv), _head(unsat, nb, kv)
        min_lo, change_lo = _head(block_min, nb), _head(block_change, nb)
        mirror = vbuf[0, :, b0:, w + L : w + L + m]
        mirror_src = new[..., kv - 1 - m : kv - 1][..., ::-1]

        def step():
            # check half-iteration over check rows lo..L+w-1
            eff_vc_window(padded, w, vc_cs_lo, vc_mean_lo)
            renormalize(chk_update(p, e.d_c - 1, chk_f), pcv_f, chk_sums_f)
            # variable half-iteration and decoder output over variable rows lo..L
            eff_cv_window(pcv_lo, w, cv_cs_lo, cv_mean_lo)
            renormalize(var_update(weights_f, q, e.d_v - 1, powers_f, out_f), out_f, var_sums_f)
            np.add(dec4, dec5, out=p_dec_lo)
            np.subtract(new_b, old_e5, out=diff_lo)
            np.abs(diff_lo, out=diff_lo)
            np.greater(from_e5.max(axis=0, out=dist_lo), caps.stall_tol, out=unsat_lo)
            pvc_lo[...] = new
            mirror[...] = mirror_src
            return p_dec_b.min(axis=1, out=min_lo), change.max(axis=(0, 2), out=change_lo)

        return step, unsat_lo

    snapshots: Dict[int, Snapshot] = {}
    outcomes: List[Optional[DeOutcome]] = [None] * B
    ids = np.arange(B)  # the channel of each block

    def snapshot(s: int) -> Snapshot:
        return Snapshot(_unfold(pvc[:, s].T, nv), _unfold(pcv[:, s].T, nc), _unfold(p_dec[s], nv))

    def finish(s: int, status: str) -> None:
        """Record the outcome of the evolution in block s."""
        if snapshot_iters:
            snapshots[it] = snapshot(s)
        outcomes[ids[s]] = DeOutcome(
            p_dec=_unfold(p_dec[s], nv),
            min_p_dec=float(p_dec[s].min()),
            iterations_used=it,
            converged=status,
            final_pvc=_unfold(pvc[:, s].T, nv),
            final_pcv=_unfold(pcv[:, s].T, nc),
            snapshots=dict(snapshots),
        )

    def drop(keep: np.ndarray) -> int:
        """Move the blocks b0 + j with keep[j] to the end of the block axis,
        with their saturation masks, and return the new first block."""
        new_b0 = B - int(keep.sum())
        for a in (vbuf[0], pcv, p_dec, weights, ids[:, None]):
            a[..., new_b0:, :] = a[..., b0:, :][..., keep, :]
        _head(unsat, B - new_b0, unsat_lo.shape[1])[...] = unsat_lo[keep]
        return new_b0

    it = b0 = lo = 0
    step, unsat_lo = bind(b0, lo)
    np.greater(np.abs(pvc - E5).max(axis=0), caps.stall_tol, out=unsat_lo)
    for it in range(1, l_max + 1):
        if B - b0 > 1:
            # a block whose rows 0..w all sit at type 5 has decoded, if all
            # its rows do, or else would move its left edge: either way it
            # leaves the batch
            if not unsat_lo.all():
                stays = unsat_lo[:, : w + 1].any(axis=1)
                if not stays.all():
                    for j in np.flatnonzero(~unsat_lo.any(axis=1)):
                        p_dec[b0 + j] = 1.0
                        finish(b0 + j, "success")
                    b0 = drop(stays)
                    if b0 == B:
                        break
                    step, unsat_lo = bind(b0, lo)
        else:
            # rows before lo are saturated and have not changed since the last scan
            first = int(unsat_lo.argmax())
            if not unsat_lo[0, first]:
                p_dec[b0] = 1.0
                finish(b0, "success")
                b0 = B
                break
            if max(0, lo + first - w) != lo:
                lo = max(0, lo + first - w)
                step, unsat_lo = bind(b0, lo)
        mins, changes = step()

        if it in snapshot_iters:
            snapshots[it] = snapshot(b0)
        if max(mins.tolist()) >= caps.success_target or min(changes.tolist()) < caps.stall_tol:
            reached = mins >= caps.success_target
            done = reached | (changes < caps.stall_tol)
            for j in np.flatnonzero(done):
                finish(b0 + j, "success" if reached[j] else "stall")
            b0 = drop(~done)
            if b0 == B:
                break
            step, unsat_lo = bind(b0, lo)
    for s in range(b0, B):
        finish(s, "cap")
    return outcomes

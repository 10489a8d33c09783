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
(5, k) arrays, one contiguous row per type.
`DeOutcome` and its snapshots unfold the half chain to all 2L+1 variable
and 2L+w check rows.

A regular (d_v, d_c) ensemble is the chain with L = 0 and w = 1: one
position, no boundary, and no mirror.  One iteration applies the
closed-form kernels of `de_core` to all updated rows at once:

    pcv[q]   = chk_update(window average of pvc at check q, d_c - 1)
    pvc[i]   = var_update(join_weights(pch), window average of pcv at i, d_v - 1)[0]
    p_dec[i] = types 4 + 5 of the same var_update's [1], the join with d_v

`de_batch` evolves the regular ensemble under many channels in the same
loop: the channels sit side by side as its columns, like the positions of
a w = 1 chain, and each column stops by its own rules and then leaves the
batch.  Every kernel acts on each column alone, so each outcome is bit for
bit the one `de_coupled` gives for that channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Collection, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from .channel import validate_dist
from .de_core import chk_update, join_weights, renormalize, var_update

E5 = np.array([[0.0], [0.0], [0.0], [0.0], [1.0]])  # the type-5 point mass, one column

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
    """Means of w consecutive columns into out (5, k-w+1): out[:, i] = mean of
    rows[:, i..i+w-1], from prefix sums in cs (5, k+1), whose first column
    must hold 0; rows itself when w = 1.

    Prefix sums run from the first column, so a column's mean depends only
    on the columns up to its window's end.
    """
    if w == 1:
        return rows
    np.add.accumulate(rows, axis=1, out=cs[:, 1:])
    np.subtract(cs[:, w:], cs[:, :-w], out=out)
    out /= w
    return out


def eff_vc_window(padded: np.ndarray, w: int, cs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Effective check inputs (5, k) for check rows lo..L+w-1, k = L+w-lo.

    padded (5, k+w-1) holds variable rows lo-w+1..L+w-1: row j reads as its
    mirror 2L-j for L < j <= 2L, and as the type-5 point mass for j < 0 or
    j > 2L.  Check row q averages variable rows q-w+1..q.
    """
    return _window_mean(padded, w, cs, out)


def eff_cv_window(pcv: np.ndarray, w: int, cs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Effective variable inputs (5, L+1-lo) for variable rows lo..L.

    pcv holds check rows lo..L+w-1.  Variable row i averages check rows
    i..i+w-1 (always in range).
    """
    return _window_mean(pcv, w, cs, out)


def _head(buf: np.ndarray, *shape: int) -> np.ndarray:
    """A contiguous view of the given shape on the start of buf's memory."""
    return buf.reshape(-1)[: int(np.prod(shape))].reshape(shape)


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
    types 1 and 5, the decoded wave leaves such rows behind, while on
    primary and xor-only the decoded rows settle on a mixture of types
    4 and 5, or on type 4, and every row stays updated.  A snapshot is
    kept after each iteration in snapshot_iters and, when snapshot_iters
    is non-empty, after the last one.

    Every array is allocated once per call, at full width, and the views
    on them that depend on the left edge are cut only when it moves.
    """
    return _evolve(e, validate_dist(pch)[None], caps, snapshot_iters)[0]


def de_batch(e: Ensemble, pchs: Sequence, caps: Caps = Caps()) -> List[DeOutcome]:
    """The regular ensemble evolved under every channel of pchs at once.

    Each channel is one column of the same loop as `de_coupled`'s, and
    each column stops by its own saturation, success, stall or cap, at its
    own iteration count, and then leaves the batch.  The kernels act on
    each column alone, so every outcome equals `de_coupled(e, pch, caps)`
    bit for bit.  A chain raises ValueError: its columns are the positions
    of one evolution.
    """
    if e.coupled:
        raise ValueError(f"a batch of channels needs the regular ensemble (L = 0), got L = {e.L}")
    if not len(pchs):
        return []
    return _evolve(e, np.array([validate_dist(p) for p in pchs]), caps)


def _evolve(
    e: Ensemble, pchs: np.ndarray, caps: Caps, snapshot_iters: Collection[int] = ()
) -> List[DeOutcome]:
    """The evolution loop: one outcome per channel, a row of pchs (B, 5).

    With B = 1 the columns are the positions of one evolution, which ends
    as a whole.  With B > 1 (the regular ensemble only) they are B
    evolutions side by side, one channel each; a column that ends is
    recorded and dropped by moving the others to the end of every column
    array and re-cutting the views, as a moving left edge does.
    """
    l_max = caps.for_ensemble(e).l_max
    L, w = e.L, e.w
    nv, nc = e.n_var_positions, e.n_chk_positions
    runs = len(pchs)
    batch = runs > 1
    m = min(w - 1, L)  # variable rows past the centre that checks read
    # variable and check columns: rows 0..L and 0..L+w-1 of the chain, or
    # one of each per channel of a regular batch
    kv_all, kc_all = (L + 1) * runs, (L + w) * runs
    # vbuf[0] holds the padded variable rows -w+1..L+w-1: the type-5 pad,
    # rows 0..L, their mirrors L+1..L+m, and the type-5 pad again.
    # vbuf[1] is the type-5 point mass in every column, so that one
    # subtraction gives each new row's change and its distance from type 5.
    vbuf = np.empty((2, 5, kv_all + 2 * w - 2))
    vbuf[:] = E5
    vbuf[0, :, w - 1 : w - 1 + kv_all + m] = np.repeat(pchs.T, L + 1 + m, axis=1)
    pvc = vbuf[0, :, w - 1 : w - 1 + kv_all]
    pcv = np.repeat(pchs.T, L + w, axis=1)
    p_dec = np.zeros(kv_all)
    weights = np.repeat(join_weights(pchs.T), L + 1, axis=2)  # each variable column's channel
    # scratch at the widths of lo = 0; `bind` cuts contiguous views from it
    kc, kv = kc_all, kv_all
    vc_cs, vc_mean, chk = np.empty((5, kc + w)), np.empty((5, kc)), np.empty((5, kc))
    chk_sums = np.empty(kc)
    cv_cs, cv_mean = np.empty((5, kv + w)), np.empty((5, kv))
    powers, out, var_sums = np.empty((2, 4, kv)), np.empty((5, 2, kv)), np.empty((2, kv))
    diff, dist, unsat = np.empty((5, 2, kv)), np.empty(kv), np.empty(kv, dtype=bool)

    def bind(lo: int):
        """One iteration over check columns lo.. and variable columns lo..,
        on views cut once for this lo.  The step returns each variable
        row's change (5, k) and leaves in the returned mask which of them
        are still unsaturated."""
        kc, kv = kc_all - lo, kv_all - lo
        padded, pcv_lo, pvc_lo, p_dec_lo = vbuf[0, :, lo:], pcv[:, lo:], pvc[:, lo:], p_dec[lo:]
        weights_lo = weights[:, :, lo:]
        vc_cs_lo, vc_mean_lo = _head(vc_cs, 5, kc + w), _head(vc_mean, 5, kc)
        chk_lo, chk_sums_lo = _head(chk, 5, kc), _head(chk_sums, kc)
        cv_cs_lo, cv_mean_lo = _head(cv_cs, 5, kv + w), _head(cv_mean, 5, kv)
        vc_cs_lo[:, 0] = cv_cs_lo[:, 0] = 0.0
        powers_lo, out_lo, var_sums_lo = (_head(powers, 2, 4, kv), _head(out, 5, 2, kv),
                                          _head(var_sums, 2, kv))
        new, dec4, dec5 = out_lo[:, 0], out_lo[3, 1], out_lo[4, 1]
        # the new rows broadcast against the old rows and type 5 side by side
        new_b, old_e5 = out_lo[:, :1], vbuf[:, :, w - 1 + lo : w - 1 + kv_all].transpose(1, 0, 2)
        diff_lo = _head(diff, 5, 2, kv)
        change, from_e5 = diff_lo[:, 0], diff_lo[:, 1]
        dist_lo, unsat_lo = _head(dist, kv), _head(unsat, kv)
        mirror = vbuf[0, :, w - 1 + kv_all : w - 1 + kv_all + m]
        mirror_src = new[:, kv - 1 - m : kv - 1][:, ::-1]

        def step() -> np.ndarray:
            # check half-iteration over check rows lo..L+w-1
            p = eff_vc_window(padded, w, vc_cs_lo, vc_mean_lo)
            renormalize(chk_update(p, e.d_c - 1, chk_lo), pcv_lo, chk_sums_lo)
            # variable half-iteration and decoder output over variable rows lo..L
            q = eff_cv_window(pcv_lo, w, cv_cs_lo, cv_mean_lo)
            renormalize(var_update(weights_lo, q, e.d_v - 1, powers_lo, out_lo), out_lo,
                        var_sums_lo)
            np.add(dec4, dec5, out=p_dec_lo)
            np.subtract(new_b, old_e5, out=diff_lo)
            np.abs(diff_lo, out=diff_lo)
            np.greater(from_e5.max(axis=0, out=dist_lo), caps.stall_tol, out=unsat_lo)
            pvc_lo[...] = new
            mirror[...] = mirror_src
            return change

        return step, unsat_lo

    snapshots: Dict[int, Snapshot] = {}
    outcomes: List[Optional[DeOutcome]] = [None] * runs
    ids = np.arange(runs)  # the channel of each batch column

    def snapshot() -> Snapshot:
        return Snapshot(_unfold(pvc.T, nv), _unfold(pcv.T, nc), _unfold(p_dec, nv))

    def finish(s: int, status: str) -> None:
        """Record the outcome of the evolution in column s (the chain: 0)."""
        if snapshot_iters:
            snapshots[it] = snapshot()
        v, c = slice(s * (L + 1), (s + 1) * (L + 1)), slice(s * (L + w), (s + 1) * (L + w))
        outcomes[ids[s]] = DeOutcome(
            p_dec=_unfold(p_dec[v], nv),
            min_p_dec=float(p_dec[v].min()),
            iterations_used=it,
            converged=status,
            final_pvc=_unfold(pvc[:, v].T, nv),
            final_pcv=_unfold(pcv[:, c].T, nc),
            snapshots=dict(snapshots),
        )

    def drop(done: np.ndarray, reached: np.ndarray) -> int:
        """Record the batch columns lo + j with done[j] (success where
        reached[j], else stall), move the others to the end of the column
        arrays, and return the new first column."""
        for j in np.flatnonzero(done):
            finish(lo + j, "success" if reached[j] else "stall")
        keep = ~done
        new_lo = kv_all - int(keep.sum())
        for a in (pvc, pcv, p_dec, weights, ids):
            a[..., new_lo:] = a[..., lo:][..., keep]
        unsat[: kv_all - new_lo] = unsat_lo[keep]
        return new_lo

    status = "cap"
    it = lo = 0
    step, unsat_lo = bind(lo)
    np.greater(np.abs(pvc - E5).max(axis=0), caps.stall_tol, out=unsat_lo)
    for it in range(1, l_max + 1):
        if batch:
            # a column whose messages all sit at type 5 has decoded
            if not unsat_lo.all():
                done = ~unsat_lo
                p_dec[lo:][done] = 1.0
                lo = drop(done, done)
                if lo == kv_all:
                    break
                step, unsat_lo = bind(lo)
        else:
            # rows before lo are saturated and have not changed since the last scan
            first = int(unsat_lo.argmax())
            if not unsat_lo[first]:
                p_dec[:] = 1.0
                status = "success"
                break
            if max(0, lo + first - w) != lo:
                lo = max(0, lo + first - w)
                step, unsat_lo = bind(lo)
        change = step()

        if it in snapshot_iters:
            snapshots[it] = snapshot()
        if batch:
            p_lo, col_change = p_dec[lo:], change.max(axis=0)
            if p_lo.max() >= caps.success_target or col_change.min() < caps.stall_tol:
                reached = p_lo >= caps.success_target
                lo = drop(reached | (col_change < caps.stall_tol), reached)
                if lo == kv_all:
                    break
                step, unsat_lo = bind(lo)
        elif float(p_dec.min()) >= caps.success_target:
            status = "success"
            break
        elif float(change.max()) < caps.stall_tol:
            status = "stall"
            break
    if batch:
        for s in range(lo, kv_all):
            finish(s, "cap")
    else:
        finish(0, status)
    return outcomes

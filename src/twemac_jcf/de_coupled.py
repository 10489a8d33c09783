"""Type distribution evolution for (d_v, d_c, L, w) ensembles.

Variable positions occupy -L..L (rows 0..2L); check positions -L..L+w-1
(rows 0..2L+w-1).  Effective node inputs are width-w window averages of the
per-position message distributions: check row q averages variable rows
q-w+1..q, whose out-of-range rows read as the type-5 point mass (pseudo
variable nodes fixed to the known all-zero pair), and variable row i
averages check rows i..i+w-1.  Window averages use fresh prefix sums each
iteration.

The chain is symmetric under the mirror map variable i <-> 2L-i, check
q <-> 2L+w-1-q, and so is every iteration, so the evolution holds only the
half chain up to the centre: variable rows 0..L (positions -L..0) and check
rows 0..L+w-1, the ones those variables read.  A check row near the centre
reads variable row j > L as its mirror 2L-j, and j > 2L as the type-5 pad.
Message rows are type-major (5, k) arrays, one contiguous row per type.
`DeOutcome` and its snapshots unfold the half chain to all 2L+1 variable
and 2L+w check rows.

A regular (d_v, d_c) ensemble is the chain with L = 0 and w = 1: one
position, no boundary, and no mirror.  One iteration applies the
closed-form kernels of `de_core` to all updated rows at once:

    pcv[q]   = chk_update(window average of pvc at check q, d_c - 1)
    pvc[i]   = var_update(pch, window average of pcv at variable i, d_v - 1)[0]
    p_dec[i] = types 4 + 5 of the same var_update's [1], the join with d_v
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Collection, Dict, NamedTuple, Optional

import numpy as np

from .channel import validate_dist
from .de_core import chk_update, renormalize, var_update

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


def _window_mean(rows: np.ndarray, w: int) -> np.ndarray:
    """Means of w consecutive columns: out[:, i] = mean of rows[:, i..i+w-1].

    Prefix sums run from the first column, so a column's mean depends only
    on the columns up to its window's end.
    """
    cs = np.empty((rows.shape[0], rows.shape[1] + 1))
    cs[:, 0] = 0.0
    np.add.accumulate(rows, axis=1, out=cs[:, 1:])
    out = cs[:, w:] - cs[:, :-w]
    out /= w
    return out


def eff_vc_window(pvc: np.ndarray, L: int, w: int, lo: int) -> np.ndarray:
    """Effective check inputs (5, L+w-lo) for check rows lo..L+w-1.

    pvc holds variable rows 0..L (positions -L..0).  Check row q averages
    variable rows q-w+1..q; row j reads as its mirror 2L-j for L < j <= 2L,
    and as the type-5 point mass for j < 0 or j > 2L.
    """
    if w == 1:
        return pvc[:, lo:]
    first = lo - w + 1
    m = min(w - 1, L)
    parts = [pvc[:, max(0, first) :], pvc[:, L - m : L][:, ::-1]]
    if first < 0:
        parts.insert(0, E5.repeat(-first, axis=1))
    if m < w - 1:
        parts.append(E5.repeat(w - 1 - m, axis=1))
    return _window_mean(np.concatenate(parts, axis=1), w)


def eff_cv_window(pcv: np.ndarray, w: int, lo: int) -> np.ndarray:
    """Effective variable inputs (5, L+1-lo) for variable rows lo..L.

    pcv holds check rows 0..L+w-1.  Variable row i averages check rows
    i..i+w-1 (always in range).
    """
    if w == 1:
        return pcv[:, lo:]
    return _window_mean(pcv[:, lo:], w)


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
    the rest stay frozen (the decoded wave leaves large saturated regions
    behind).  A snapshot is kept after each iteration in snapshot_iters
    and, when snapshot_iters is non-empty, after the last one.
    """
    pch = validate_dist(pch)
    l_max = caps.for_ensemble(e).l_max
    L, w = e.L, e.w
    nv, nc = e.n_var_positions, e.n_chk_positions
    pvc = pch[:, None].repeat(L + 1, axis=1)
    pcv = pch[:, None].repeat(L + w, axis=1)
    p_dec = np.zeros(L + 1)
    snapshots: Dict[int, Snapshot] = {}

    def snapshot() -> Snapshot:
        return Snapshot(_unfold(pvc.T, nv), _unfold(pcv.T, nc), _unfold(p_dec, nv))

    status = "cap"
    it = lo = 0
    for it in range(1, l_max + 1):
        # rows before lo are saturated and have not changed since the last scan
        unsat = np.abs(pvc[:, lo:] - E5).max(axis=0) > caps.stall_tol
        first = int(unsat.argmax())
        if not unsat[first]:
            p_dec[:] = 1.0
            status = "success"
            break
        lo = max(0, lo + first - w)

        # check half-iteration over check rows lo..L+w-1
        pcv[:, lo:] = renormalize(chk_update(eff_vc_window(pvc, L, w, lo), e.d_c - 1))

        # variable half-iteration and decoder output over variable rows lo..L
        out = renormalize(var_update(pch, eff_cv_window(pcv, w, lo), e.d_v - 1))
        np.add(out[3, 1], out[4, 1], out=p_dec[lo:])
        delta = float(np.abs(out[:, 0] - pvc[:, lo:]).max())
        pvc[:, lo:] = out[:, 0]

        if it in snapshot_iters:
            snapshots[it] = snapshot()
        if float(p_dec.min()) >= caps.success_target:
            status = "success"
            break
        if delta < caps.stall_tol:
            status = "stall"
            break
    if snapshot_iters:
        snapshots[it] = snapshot()
    return DeOutcome(
        p_dec=_unfold(p_dec, nv),
        min_p_dec=float(p_dec.min()),
        iterations_used=it,
        converged=status,
        final_pvc=_unfold(pvc.T, nv),
        final_pcv=_unfold(pcv.T, nc),
        snapshots=snapshots,
    )

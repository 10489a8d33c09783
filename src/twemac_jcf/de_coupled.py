"""Type distribution evolution for (d_v, d_c, L, w) ensembles.

Variable positions occupy -L..L; check positions -L..L+w-1.  Effective
node inputs are width-w window averages of the per-position message
distributions, with out-of-range variable positions reading as the type-5
point mass (pseudo variable nodes fixed to the known all-zero pair).
Window averages use fresh prefix sums each iteration.

A regular (d_v, d_c) ensemble is the chain with L = 0 and w = 1: one
position, no boundary.  One iteration applies the closed-form kernels of
`de_core` to all position rows at once:

    pcv[q]   = chk_update(window average of pvc at check q, d_c - 1)
    pvc[i]   = var_update(pch, window average of pcv at variable i, d_v - 1)
    p_dec[i] = types 4 + 5 of var_update(pch, the same average, d_v)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, NamedTuple, Optional

import numpy as np

from .channel import validate_dist
from .de_core import chk_update, renormalize, var_update

E5 = np.array([0.0, 0.0, 0.0, 0.0, 1.0])

DEFAULT_SUCCESS_TARGET = 1.0 - 1e-5
DEFAULT_STALL_TOL = 1e-12
DEFAULT_REGULAR_LMAX = 5000
DEFAULT_COUPLED_LMAX = 20000


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
    """Termination settings of an evolution run."""

    l_max: Optional[int] = None  # DEFAULT_COUPLED_LMAX or DEFAULT_REGULAR_LMAX when None
    success_target: float = DEFAULT_SUCCESS_TARGET
    stall_tol: float = DEFAULT_STALL_TOL

    def l_max_for(self, e: Ensemble) -> int:
        if self.l_max is not None:
            return self.l_max
        return DEFAULT_COUPLED_LMAX if e.coupled else DEFAULT_REGULAR_LMAX


def nominal_rate(e: Ensemble) -> float:
    """Design rate of the ensemble (may be negative for tiny L); exactly
    1 - d_v/d_c for the regular ensemble."""
    ratio = e.d_v / e.d_c
    i = np.arange(e.w + 1)
    boundary = (e.w + 1 - 2 * np.sum((i / e.w) ** e.d_c)) / (2 * e.L + 1)
    return (1 - ratio) - ratio * boundary


def _window_sum(rows: np.ndarray, w: int) -> np.ndarray:
    """Sums of w consecutive rows: out[i] = rows[i] + ... + rows[i+w-1]."""
    cs = np.vstack([np.zeros((1, rows.shape[1])), np.cumsum(rows, axis=0)])
    return cs[w:] - cs[: rows.shape[0] - w + 1]


def eff_vc_window(pvc: np.ndarray, w: int, lo: int, hi: int) -> np.ndarray:
    """Effective check inputs for check indices lo..hi+w-1.

    Check index q averages variable rows q-w+1..q; rows outside the stored
    array read as the type-5 point mass.
    """
    if w == 1:
        return pvc[lo : hi + 1].copy()
    pad = np.tile(E5, (w - 1, 1))
    padded = np.vstack([pad, pvc, pad])  # row shift: var index i -> i + w - 1
    return _window_sum(padded[lo : hi + 2 * w - 1], w) / w


def eff_cv_window(pcv: np.ndarray, w: int, lo: int, hi: int) -> np.ndarray:
    """Effective variable inputs for variable indices lo..hi.

    Variable index i averages check rows i..i+w-1 (always in range).
    """
    if w == 1:
        return pcv[lo : hi + 1].copy()
    return _window_sum(pcv[lo : hi + w], w) / w


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
    Each iteration updates only the positions within w of the span of
    unsaturated ones, whose variable-to-check distribution is more than
    stall_tol from the type-5 point mass; the rest stay frozen (the decoded
    wave leaves large saturated regions behind).  A snapshot is kept after
    each iteration in snapshot_iters and, when snapshot_iters is non-empty,
    after the last one.
    """
    pch = validate_dist(pch)
    l_max = caps.l_max_for(e)
    if not e.coupled:  # coupled runs accept any cap and target
        if l_max < 1:
            raise ValueError(f"l_max must be >= 1, got {l_max}")
        if not 0.0 < caps.success_target < 1.0:
            raise ValueError(f"success_target must be in (0,1), got {caps.success_target}")
    nv, nc = e.n_var_positions, e.n_chk_positions
    pvc = np.tile(pch, (nv, 1))
    pcv = np.tile(pch, (nc, 1))
    p_dec = np.zeros(nv)
    snapshots: Dict[int, Snapshot] = {}

    status = "cap"
    it = 0
    for it in range(1, l_max + 1):
        unsat = np.flatnonzero(np.max(np.abs(pvc - E5), axis=1) > caps.stall_tol)
        if unsat.size == 0:
            p_dec[:] = 1.0
            status = "success"
            break
        lo = max(0, int(unsat[0]) - e.w)
        hi = min(nv - 1, int(unsat[-1]) + e.w)

        # check half-iteration over check indices lo..hi+w-1
        pcv[lo : hi + e.w] = renormalize(chk_update(eff_vc_window(pvc, e.w, lo, hi), e.d_c - 1))

        # variable half-iteration and decoder output over indices lo..hi
        eff_cv = eff_cv_window(pcv, e.w, lo, hi)
        new_rows = renormalize(var_update(pch, eff_cv, e.d_v - 1))
        p_out = renormalize(var_update(pch, eff_cv, e.d_v))
        p_dec[lo : hi + 1] = p_out[:, 3] + p_out[:, 4]
        delta = float(np.max(np.abs(new_rows - pvc[lo : hi + 1])))
        pvc[lo : hi + 1] = new_rows

        if it in snapshot_iters:
            snapshots[it] = Snapshot(pvc.copy(), pcv.copy(), p_dec.copy())
        if float(p_dec.min()) >= caps.success_target:
            status = "success"
            break
        if delta < caps.stall_tol:
            status = "stall"
            break
    if snapshot_iters:
        snapshots[it] = Snapshot(pvc.copy(), pcv.copy(), p_dec.copy())
    return DeOutcome(
        p_dec=p_dec,
        min_p_dec=float(p_dec.min()),
        iterations_used=it,
        converged=status,
        final_pvc=pvc,
        final_pcv=pcv,
        snapshots=snapshots,
    )

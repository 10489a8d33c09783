"""Two-way erasure MAC channel families and the 5-ary type distribution.

A channel family maps an erasure parameter eps in [0, 1] to a probability
vector over the five message types.  Built-in families:

    primary      [eps^2, (1-eps)eps, eps(1-eps), (1-eps)^2, 0]
                 (both inputs erased independently; p5 fixed to 0)
    xor-only     [eps, 0, 0, 1-eps, 0]
    full-reveal  [eps, 0, 0, 0, 1-eps]

Custom families come from a plain-text config file and are either a fixed
table (eps is ignored) or per-type polynomials in eps, validated on a grid
at load time.  Puncturing overlays the channel by remapping a fraction
p_pi of symbols to type 1.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

SIMPLEX_ATOL = 1e-9

BUILTIN_KINDS = ("primary", "xor-only", "full-reveal")


class ChannelError(ValueError):
    """Invalid channel family, parameter, or type distribution."""


def validate_dist(p, atol: float = SIMPLEX_ATOL) -> np.ndarray:
    """Check p is a valid 5-ary type distribution; return it as a float array."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (5,):
        raise ChannelError(f"type distribution must have 5 entries, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ChannelError(f"type distribution entries not finite: {arr}")
    if np.any(arr < -atol) or np.any(arr > 1 + atol):
        raise ChannelError(f"type distribution entries outside [0,1]: {arr}")
    s = arr.sum()
    if abs(s - 1.0) > atol:
        raise ChannelError(f"type distribution sums to {s}, not 1")
    return arr


@dataclass(frozen=True)
class ChannelFamily:
    """A named map eps -> type distribution.

    kind 'fixed-table' uses `table` and ignores eps; 'custom-polynomial'
    evaluates `coeffs[i]` (ascending polynomial coefficients) per type.
    """

    name: str
    kind: str
    coeffs: Optional[tuple[tuple[float, ...], ...]] = None
    table: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.kind not in BUILTIN_KINDS + ("fixed-table", "custom-polynomial"):
            raise ChannelError(f"unknown channel kind {self.kind!r}")
        if self.kind == "fixed-table":
            if self.table is None:
                raise ChannelError("fixed-table family needs a table")
            validate_dist(self.table)
        if self.kind == "custom-polynomial":
            if self.coeffs is None or len(self.coeffs) != 5:
                raise ChannelError("custom-polynomial family needs 5 coefficient lists")

    def eval(self, eps: float) -> np.ndarray:
        """Type distribution at erasure parameter eps."""
        if not 0.0 <= eps <= 1.0:
            raise ChannelError(f"eps must be in [0, 1], got {eps}")
        if self.kind == "primary":
            p = np.array(
                [eps * eps, (1 - eps) * eps, eps * (1 - eps), (1 - eps) ** 2, 0.0]
            )
        elif self.kind == "xor-only":
            p = np.array([eps, 0.0, 0.0, 1 - eps, 0.0])
        elif self.kind == "full-reveal":
            p = np.array([eps, 0.0, 0.0, 0.0, 1 - eps])
        elif self.kind == "fixed-table":
            p = np.array(self.table, dtype=float)
        else:  # custom-polynomial
            p = np.array([npoly.polyval(eps, c) for c in self.coeffs])
        return validate_dist(p)


PRIMARY = ChannelFamily("primary", "primary")
XOR_ONLY = ChannelFamily("xor-only", "xor-only")
FULL_REVEAL = ChannelFamily("full-reveal", "full-reveal")

BUILTINS: Mapping[str, ChannelFamily] = {
    f.name: f for f in (PRIMARY, XOR_ONLY, FULL_REVEAL)
}


def puncture(pch, p_pi: float) -> np.ndarray:
    """Effective channel after identical random puncturing at both nodes,
    with per-symbol puncture probability p_pi = |pi| / N in [0, 1).

    Punctured symbols reach the decoder as type 1 (nothing known).
    """
    if not 0.0 <= p_pi < 1.0:
        raise ChannelError(f"p_pi must be in [0, 1), got {p_pi}")
    p = validate_dist(pch)
    q = p * (1 - p_pi)
    q[0] += p_pi
    return q


def sample_states(pch, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n channel states; returned as integers 1..5.  Entries that
    `validate_dist` tolerates below 0 count as 0."""
    p = np.clip(validate_dist(pch), 0.0, None)
    return rng.choice(5, size=n, p=p / p.sum()) + 1


def validate_family(family: ChannelFamily, grid: int = 1001, atol: float = 1e-9) -> None:
    """Check the simplex invariant on an eps grid; raises ChannelError."""
    for eps in np.linspace(0.0, 1.0, grid):
        validate_dist(family.eval(float(eps)), atol=atol)


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in s.replace(",", " ").split())


def parse_channel_config(path: str) -> dict[str, ChannelFamily]:
    """Load named channel families from a key-value config file.

    Format (one section per family)::

        [myfamily]
        kind = custom-polynomial
        p1 = 0 0 1        # ascending coefficients: eps^2
        p2 = 0 1 -1
        ...

        [const]
        kind = fixed-table
        table = 0.1 0.2 0.2 0.5 0

    Custom-polynomial families are validated on a 1001-point eps grid.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = cp.read(path)
    if not read:
        raise ChannelError(f"cannot read channel config {path!r}")
    families: dict[str, ChannelFamily] = {}
    for name in cp.sections():
        sec = cp[name]
        kind = sec.get("kind", "").strip()
        if kind == "fixed-table":
            fam = ChannelFamily(name, kind, table=_parse_floats(sec["table"]))
        elif kind == "custom-polynomial":
            coeffs = tuple(_parse_floats(sec.get(f"p{i}", "0")) for i in range(1, 6))
            fam = ChannelFamily(name, kind, coeffs=coeffs)
            validate_family(fam)
        elif kind in BUILTIN_KINDS:
            fam = ChannelFamily(name, kind)
        else:
            raise ChannelError(f"family {name!r}: unknown kind {kind!r}")
        families[name] = fam
    return families


def get_family(name: str, config_path: Optional[str] = None) -> ChannelFamily:
    """Look up a family by name among builtins and an optional config file."""
    if config_path is not None:
        families = parse_channel_config(config_path)
        if name in families:
            return families[name]
    if name in BUILTINS:
        return BUILTINS[name]
    raise ChannelError(f"unknown channel family {name!r}")

"""Two-way erasure MAC channel families and the 5-ary type distribution.

A channel family maps an erasure parameter eps in [0, 1] to a probability
vector over the five message types.  Built-in families:

    primary      [eps^2, (1-eps)eps, eps(1-eps), (1-eps)^2, 0]
                 (both inputs erased independently; p5 fixed to 0)
    xor-only     [eps, 0, 0, 1-eps, 0]
    full-reveal  [eps, 0, 0, 0, 1-eps]

Custom families come from a plain-text config file and are either a fixed
table (eps is ignored) or per-type polynomials in eps, validated on a grid
at load time.  A family may be punctured: its `p_pi` field remaps that
fraction of symbols to type 1 (`puncture`) in every distribution it gives,
so the evolution and the simulation see one family however it is punctured.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

SIMPLEX_ATOL = 1e-9  # how far a distribution may stray off the simplex

BUILTIN_KINDS = ("primary", "xor-only", "full-reveal")


class ChannelError(ValueError):
    """Invalid channel family, parameter, or type distribution."""


def validate_dist(p) -> np.ndarray:
    """Check p is a valid 5-ary type distribution; return it as a float array."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (5,):
        raise ChannelError(f"type distribution must have 5 entries, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ChannelError(f"type distribution entries not finite: {arr}")
    if np.any(arr < -SIMPLEX_ATOL) or np.any(arr > 1 + SIMPLEX_ATOL):
        raise ChannelError(f"type distribution entries outside [0,1]: {arr}")
    s = arr.sum()
    if abs(s - 1.0) > SIMPLEX_ATOL:
        raise ChannelError(f"type distribution sums to {s}, not 1")
    return arr


@dataclass(frozen=True)
class ChannelFamily:
    """A named map eps -> type distribution.

    kind 'fixed-table' uses `table` and ignores eps; 'custom-polynomial'
    evaluates `coeffs[i]` (ascending polynomial coefficients) per type.
    A nonzero p_pi in [0, 1) punctures every distribution (`puncture`);
    `dataclasses.replace(family, p_pi=...)` gives the punctured family.
    """

    name: str
    kind: str
    coeffs: Optional[tuple[tuple[float, ...], ...]] = None
    table: Optional[tuple[float, ...]] = None
    p_pi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p_pi < 1.0:
            raise ChannelError(f"p_pi must be in [0, 1), got {self.p_pi}")
        if self.kind not in BUILTIN_KINDS + ("fixed-table", "custom-polynomial"):
            raise ChannelError(f"unknown channel kind {self.kind!r}")
        if self.kind == "fixed-table":
            if self.table is None:
                raise ChannelError("fixed-table family needs a table")
            validate_dist(self.table)
        if self.kind == "custom-polynomial":
            if self.coeffs is None or len(self.coeffs) != 5 or not all(map(len, self.coeffs)):
                raise ChannelError("custom-polynomial family needs 5 non-empty coefficient lists")

    def eval(self, eps: float) -> np.ndarray:
        """Type distribution at erasure parameter eps, punctured by p_pi
        unless p_pi is 0; at p_pi = 0 it is not validated, since every
        consumer validates it (`validate_dist`)."""
        if not 0.0 <= eps <= 1.0:
            raise ChannelError(f"eps must be in [0, 1], got {eps}")
        if self.kind == "primary":
            pch = np.array(
                [eps * eps, (1 - eps) * eps, eps * (1 - eps), (1 - eps) ** 2, 0.0]
            )
        elif self.kind == "xor-only":
            pch = np.array([eps, 0.0, 0.0, 1 - eps, 0.0])
        elif self.kind == "full-reveal":
            pch = np.array([eps, 0.0, 0.0, 0.0, 1 - eps])
        elif self.kind == "fixed-table":
            pch = np.array(self.table, dtype=float)
        else:  # custom-polynomial
            pch = np.array([npoly.polyval(eps, c) for c in self.coeffs])
        return puncture(pch, self.p_pi) if self.p_pi else pch


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


def validate_family(family: ChannelFamily) -> None:
    """Check the simplex invariant on a 1001-point eps grid; raises ChannelError."""
    for eps in np.linspace(0.0, 1.0, 1001):
        validate_dist(family.eval(float(eps)))


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
    try:
        read = cp.read(path)
    except configparser.Error as exc:  # syntax errors, duplicate sections or options
        raise ChannelError(f"malformed channel config: {' '.join(str(exc).split())}") from None
    if not read:
        raise ChannelError(f"cannot read channel config {path!r}")
    families: dict[str, ChannelFamily] = {}
    for name in cp.sections():
        try:
            families[name] = _section_family(name, cp[name])
        except ValueError as exc:  # ChannelError, or an entry that is not a number
            raise ChannelError(f"family {name!r} in {path!r}: {exc}") from None
    return families


def _section_family(name: str, sec: configparser.SectionProxy) -> ChannelFamily:
    """The family that config section sec defines under name."""
    kind = sec.get("kind", "").strip()
    if kind == "fixed-table":
        table = sec.get("table")
        return ChannelFamily(name, kind, table=None if table is None else _parse_floats(table))
    if kind == "custom-polynomial":
        coeffs = tuple(_parse_floats(sec.get(f"p{i}", "0")) for i in range(1, 6))
        fam = ChannelFamily(name, kind, coeffs=coeffs)
        validate_family(fam)
        return fam
    if kind in BUILTIN_KINDS:
        return ChannelFamily(name, kind)
    raise ChannelError(f"unknown kind {kind!r}")


def get_family(name: str, config_path: Optional[str] = None) -> ChannelFamily:
    """Look up a family by name among builtins and an optional config file."""
    if config_path is not None:
        families = parse_channel_config(config_path)
        if name in families:
            return families[name]
    if name in BUILTINS:
        return BUILTINS[name]
    raise ChannelError(f"unknown channel family {name!r}")

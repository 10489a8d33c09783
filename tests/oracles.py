"""Independent reference implementations used only by the tests.

Everything here is derived by a different route than the package code,
and nothing here imports the package: the operator tables come from a
component-set lattice, the node updates from powers of explicit 5x5
transition matrices and from exhaustive lattice folds, erasure-only
evolutions from scalar BEC recursions, the coupled five-type evolution from
a loop over every position of the whole chain and from a frozen copy of
the package's half-chain loop (which the package must equal bit for bit),
peeling from a slow sequential fold and from flooding rounds over every
edge, recoverability from every codeword pair of a small code, and the
mutual informations of the rate bounds from a sum over the full joint
distribution.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

PSEUDO = -1  # pseudo-variable marker in check socket lists

# --- lattice construction of the operator tables ----------------------------
# Knowledge states as closed subsets of the components {a, b, x}:
# {} < {a},{b},{x} < {a,b,x}.  Join = closed union, meet = intersection.

_SETS = [frozenset(), frozenset("a"), frozenset("b"), frozenset("x"), frozenset("abx")]


def _close(s: frozenset) -> frozenset:
    return frozenset("abx") if len(s) >= 2 else s


def lattice_var(a: int, b: int) -> int:
    return _SETS.index(_close(_SETS[a - 1] | _SETS[b - 1])) + 1


def lattice_chk(a: int, b: int) -> int:
    return _SETS.index(_SETS[a - 1] & _SETS[b - 1]) + 1


# --- explicit transition-matrix layouts -------------------------------------


def explicit_var_matrix(p) -> np.ndarray:
    p1, p2, p3, p4, p5 = p
    m = np.zeros((5, 5))
    m[:, 0] = p
    m[1, 1] = p1 + p2
    m[2, 2] = p1 + p3
    m[3, 3] = p1 + p4
    m[4, 1] = p3 + p4 + p5
    m[4, 2] = p2 + p4 + p5
    m[4, 3] = p2 + p3 + p5
    m[4, 4] = 1.0
    return m


def explicit_chk_matrix(p) -> np.ndarray:
    p1, p2, p3, p4, p5 = p
    m = np.zeros((5, 5))
    m[:, 4] = p
    m[0, 0] = 1.0
    m[0, 1] = p1 + p3 + p4
    m[0, 2] = p1 + p2 + p4
    m[0, 3] = p1 + p2 + p3
    m[1, 1] = p2 + p5
    m[2, 2] = p3 + p5
    m[3, 3] = p4 + p5
    return m


def matrix_power_update(p, n: int, c=None) -> np.ndarray:
    """Node update by matrix powers: with c None, the check update (meet of
    n >= 1 iid messages p); else the variable update (join of channel c with
    n iid messages p).  M[i, j] = P(combining type j with one message gives
    type i)."""
    p = np.asarray(p, dtype=float)
    if c is None:
        return np.linalg.matrix_power(explicit_chk_matrix(p), n - 1) @ p
    return np.linalg.matrix_power(explicit_var_matrix(p), n) @ np.asarray(c, dtype=float)


def folded_update(p, n: int, c=None) -> np.ndarray:
    """The same update by summing over all 5**n input tuples, each folded
    with the lattice operators: exact up to the summation order."""
    op = lattice_chk if c is None else lattice_var
    starts = [(None, 1.0)] if c is None else [(t, c[t - 1]) for t in range(1, 6)]
    out = np.zeros(5)
    for first, weight in starts:
        for types in itertools.product(range(1, 6), repeat=n):
            pr = weight * np.prod([p[t - 1] for t in types])
            seq = types if first is None else (first,) + types
            out[reduce(op, seq) - 1] += pr
    return out


# --- scalar BEC density evolution (xor-only channel reduction) ---------------


def scalar_bec_trajectory(eps: float, d_v: int, d_c: int, iters: int):
    """Per-iteration (x_vc, x_cv) erasure probabilities, iterations 1..iters."""
    x = eps
    out = []
    for _ in range(iters):
        x_cv = 1.0 - (1.0 - x) ** (d_c - 1)
        x = eps * x_cv ** (d_v - 1)
        out.append((x, x_cv))
    return out


def scalar_bec_decodable(eps, d_v, d_c, l_max=5000, residual=1e-5):
    """True iff the decoder-output erasure probability drops below residual."""
    x = eps
    prev = None
    for _ in range(l_max):
        x_cv = 1.0 - (1.0 - x) ** (d_c - 1)
        x = eps * x_cv ** (d_v - 1)
        if eps * x_cv**d_v < residual:
            return True
        if prev is not None and abs(x - prev) < 1e-12:
            return False
        prev = x
    return False


def scalar_bec_threshold(d_v, d_c, tol=1e-5, **kw) -> float:
    lo, hi = 0.0, 1.0
    while hi - lo > 2 * tol:
        mid = 0.5 * (lo + hi)
        if scalar_bec_decodable(mid, d_v, d_c, **kw):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- scalar coupled BEC density evolution ------------------------------------


def scalar_coupled_trajectory(eps, d_v, d_c, L, w, iters):
    """Per-iteration (x, y) arrays: x over variable positions -L..L,
    y over check positions -L..L+w-1.  Out-of-range x reads as 0."""
    nv = 2 * L + 1
    nc = 2 * L + w
    x = np.full(nv, eps)
    out = []

    def x_at(i):
        return x[i] if 0 <= i < nv else 0.0

    for _ in range(iters):
        y = np.zeros(nc)
        for q in range(nc):
            avg = sum(x_at(q - j) for j in range(w)) / w
            y[q] = 1.0 - (1.0 - avg) ** (d_c - 1)
        newx = np.zeros(nv)
        for i in range(nv):
            avg = y[i : i + w].sum() / w
            newx[i] = eps * avg ** (d_v - 1)
        x = newx
        out.append((x.copy(), y.copy()))
    return out


def scalar_coupled_decodable(eps, d_v, d_c, L, w, l_max=20000, residual=1e-5):
    nv = 2 * L + 1
    x = np.full(nv, eps)
    padded = np.zeros(nv + 2 * (w - 1)) if w > 1 else None
    prev = None
    for _ in range(l_max):
        if w == 1:
            avg_x = x
        else:
            padded[w - 1 : w - 1 + nv] = x
            cs = np.concatenate([[0.0], np.cumsum(padded)])
            avg_x = (cs[w:] - cs[:-w]) / w  # check positions 0..nv+w-2
        y = 1.0 - (1.0 - avg_x) ** (d_c - 1)
        cs = np.concatenate([[0.0], np.cumsum(y)])
        avg_y = (cs[w:] - cs[: nv]) / w if w > 1 else y
        x = eps * avg_y ** (d_v - 1)
        if np.max(eps * avg_y**d_v) < residual:
            return True
        if prev is not None and np.max(np.abs(x - prev)) < 1e-12:
            return False
        prev = x.copy()
    return False


def scalar_coupled_threshold(d_v, d_c, L, w, tol=1e-4, **kw) -> float:
    lo, hi = 0.0, 1.0
    while hi - lo > 2 * tol:
        mid = 0.5 * (lo + hi)
        if scalar_coupled_decodable(mid, d_v, d_c, L, w, **kw):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- five-type coupled density evolution on the full chain ------------------


def folded_power(x, n: int) -> np.ndarray:
    """x^n as x*x*...*x (1 when n = 0), one multiply after another: the
    product the package's kernels form for every power."""
    out = np.ones_like(x)
    for _ in range(n):
        out = out * x
    return out


def closed_form_meet(p, n: int) -> np.ndarray:
    """Meet of n iid messages p: type 5 iff all inputs are, type t in
    {2, 3, 4} iff all lie in {t, 5} and not all are 5, else type 1."""
    out = np.zeros(5)
    out[4] = p[4] ** n
    for t in (1, 2, 3):
        out[t] = (p[t] + p[4]) ** n - out[4]
    out[0] = 1.0 - out[1:].sum()
    return out


def closed_form_join(c, q, n: int) -> np.ndarray:
    """Join of channel c with n iid messages q: type 1 iff all inputs are,
    type t in {2, 3, 4} iff all lie in {1, t} and not all are 1, else 5."""
    out = np.zeros(5)
    out[0] = c[0] * q[0] ** n
    for t in (1, 2, 3):
        out[t] = (c[0] + c[t]) * (q[0] + q[t]) ** n - out[0]
    out[4] = 1.0 - out[:4].sum()
    return out


def five_type_coupled_trajectory(pch, d_v, d_c, L, w, iters):
    """Per-iteration (pvc, pcv, p_dec) of the five-type evolution of the
    whole (d_v, d_c, L, w) chain, iterations 1..iters.

    pvc is (2L+1, 5) over variable positions -L..L, pcv is (2L+w, 5) over
    check positions -L..L+w-1, and p_dec is the type-4 + type-5 mass of
    the decoder output per variable position.  Every position is updated
    in every iteration, with no use of the mirror symmetry; check q
    averages variables q-w+1..q, which read as type 5 outside the chain,
    and variable i averages checks i..i+w-1.
    """
    pch = np.asarray(pch, dtype=float)
    nv, nc = 2 * L + 1, 2 * L + w
    e5 = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    x = [pch.copy() for _ in range(nv)]
    out = []
    for _ in range(iters):
        y = []
        for q in range(nc):
            window = [x[q - j] if 0 <= q - j < nv else e5 for j in range(w)]
            y.append(closed_form_meet(sum(window) / w, d_c - 1))
        x, p_dec = [], []
        for i in range(nv):
            avg = sum(y[i : i + w]) / w
            x.append(closed_form_join(pch, avg, d_v - 1))
            dec = closed_form_join(pch, avg, d_v)
            p_dec.append(dec[3] + dec[4])
        out.append((np.array(x), np.array(y), np.array(p_dec)))
    return out


# --- frozen half-chain five-type evolution -----------------------------------
# The package's evolution loop written plainly: fresh arrays on every pass,
# concatenated check windows and an entry check after each half.  The
# package must keep its outcome bitwise: same floating-point operations, in
# the same order, on the same values.

_HALF_E5 = np.array([[0.0], [0.0], [0.0], [0.0], [1.0]])
_HALF_ATOL = 1e-9


def _half_window_mean(rows, w):
    cs = np.empty((rows.shape[0], rows.shape[1] + 1))
    cs[:, 0] = 0.0
    np.add.accumulate(rows, axis=1, out=cs[:, 1:])
    out = cs[:, w:] - cs[:, :-w]
    out /= w
    return out


def _half_eff_vc(pvc, L, w):
    if w == 1:
        return pvc
    m = min(w - 1, L)
    parts = [_HALF_E5.repeat(w - 1, axis=1), pvc, pvc[:, L - m : L][:, ::-1]]
    if m < w - 1:
        parts.append(_HALF_E5.repeat(w - 1 - m, axis=1))
    return _half_window_mean(np.concatenate(parts, axis=1), w)


def _half_eff_cv(pcv, w):
    if w == 1:
        return pcv
    return _half_window_mean(pcv, w)


def _half_chk(p, n):
    out = np.empty_like(p)
    np.add(p[1:4], p[4], out=out[1:4])
    out[4] = p[4]
    out[1:] = folded_power(out[1:], n)
    out[1:4] -= out[4]
    np.subtract(1.0, out[1:].sum(axis=0), out=out[0])
    return out


def _half_var(c, q, n):
    powers = np.empty((2, 4, q.shape[1]))
    base = powers[1]
    base[0] = q[0]
    np.add(q[1:4], q[0], out=base[1:])
    powers[0] = folded_power(base, n)
    base *= powers[0]
    weights = c[:4] + c[0]
    weights[0] = c[0]
    out = np.empty((5, 2, q.shape[1]))
    np.multiply(weights[:, None, None], powers.transpose(1, 0, 2), out=out[:4])
    out[1:4] -= out[0]
    np.subtract(1.0, out[:4].sum(axis=0), out=out[4])
    return out


def _half_checked(p):
    if not p.min() >= -_HALF_ATOL:
        raise RuntimeError(f"distribution entry {np.min(p):.3e} below zero")
    return p


def _half_unfold(half, n):
    return np.concatenate([half, half[: n - len(half)][::-1]])


def half_chain_de(pch, d_v, d_c, L, w, l_max, success_target, stall_tol, snapshot_iters=()):
    """The half-chain evolution of the (d_v, d_c, L, w) chain, L = 0 and
    w = 1 for the regular ensemble, with the package's stopping rules.

    Returns (status, iterations, p_dec, min_p_dec, pvc, pcv, snapshots):
    the state after the last iteration unfolded to the whole chain as in
    the package's `Snapshot`, snapshots as {iteration: (pvc, pcv, p_dec)}.
    """
    pch = np.asarray(pch, dtype=float)
    nv, nc = 2 * L + 1, 2 * L + w
    pvc = pch[:, None].repeat(L + 1, axis=1)
    pcv = pch[:, None].repeat(L + w, axis=1)
    p_dec = np.zeros(L + 1)
    snapshots = {}

    def snapshot():
        return (_half_unfold(pvc.T, nv), _half_unfold(pcv.T, nc), _half_unfold(p_dec, nv))

    status = "cap"
    it = 0
    for it in range(1, l_max + 1):
        pcv[:] = _half_checked(_half_chk(_half_eff_vc(pvc, L, w), d_c - 1))
        out = _half_checked(_half_var(pch, _half_eff_cv(pcv, w), d_v - 1))
        np.add(out[3, 1], out[4, 1], out=p_dec)
        delta = float(np.abs(out[:, 0] - pvc).max())
        pvc[:] = out[:, 0]
        if it in snapshot_iters:
            snapshots[it] = snapshot()
        if float(p_dec.min()) >= success_target:
            status = "success"
            break
        if delta < stall_tol:
            status = "stall"
            break
    if snapshot_iters:
        snapshots[it] = snapshot()
    return (status, it, _half_unfold(p_dec, nv), float(p_dec.min()), _half_unfold(pvc.T, nv),
            _half_unfold(pcv.T, nc), snapshots)


# --- slow sequential peeling on the extended Tanner graph --------------------


def naive_peel(g, types, rng=None, pad_to=None):
    """Sequential single-message update to the fixed point.

    Folds messages with the lattice operators above, one randomly chosen
    edge at a time, which exercises a completely different schedule from
    the flooding implementation.  Reads the graph's edge list (g.evar,
    g.echeck); with pad_to, each check's socket list is padded to that
    length with explicit PSEUDO sockets, which carry type 5.
    """

    def chk_fold(types):
        return reduce(lattice_chk, types)

    def var_fold(types):
        return reduce(lattice_var, types)

    check_sockets = [[] for _ in range(g.n_checks)]
    for v, c in zip(g.evar, g.echeck):
        check_sockets[int(c)].append(int(v))
    if pad_to is not None:
        for sockets in check_sockets:
            sockets.extend([PSEUDO] * (pad_to - len(sockets)))

    edges = []  # (check, socket_index, var)
    for c, sockets in enumerate(check_sockets):
        for s, v in enumerate(sockets):
            edges.append((c, s, v))
    v2c = {}
    c2v = {}
    for c, s, v in edges:
        v2c[(c, s)] = 5 if v == PSEUDO else int(types[v])
        c2v[(c, s)] = 1

    var_edges = {}
    for c, s, v in edges:
        if v != PSEUDO:
            var_edges.setdefault(v, []).append((c, s))

    order = list(range(len(edges)))
    if rng is not None:
        rng.shuffle(order)
    changed = True
    while changed:
        changed = False
        for idx in order:
            c, s, v = edges[idx]
            others = [v2c[(c, t)] for t in range(len(check_sockets[c])) if t != s]
            msg = chk_fold(others) if others else 5
            if msg != c2v[(c, s)]:
                c2v[(c, s)] = int(msg)
                changed = True
            if v == PSEUDO:
                continue
            incoming = [
                c2v[(cc, ss)] for cc, ss in var_edges[v] if (cc, ss) != (c, s)
            ]
            msg = var_fold([int(types[v])] + incoming)
            if msg != v2c[(c, s)]:
                v2c[(c, s)] = int(msg)
                changed = True
    final = np.zeros(g.n_vars, dtype=np.int64)
    for v in range(g.n_vars):
        incoming = [c2v[key] for key in var_edges.get(v, [])]
        final[v] = int(var_fold([int(types[v])] + incoming))
    return final


# --- flooding peeling on knowledge bitmasks ----------------------------------
# Component a is bit 1, b bit 2 and x bit 4; the tables come from _SETS.

_COMPONENT_BIT = {"a": 1, "b": 2, "x": 4}
_MASK_OF_TYPE = np.array([0] + [sum(_COMPONENT_BIT[c] for c in s) for s in _SETS])
_TYPE_OF_MASK = np.zeros(8, dtype=np.int64)
_TYPE_OF_MASK[_MASK_OF_TYPE[1:]] = np.arange(1, 6)
_CLOSED_MASK = np.array([7 if bin(m).count("1") >= 2 else m for m in range(8)])


def flooding_peel(n_vars, n_checks, evar, echeck, types):
    """Flooding message passing over every edge each round, to the fixed point.

    Every round recomputes all check-to-variable messages from the last
    variable-to-check messages, then all variable-to-check messages, with
    per-bit counts rebuilt from scratch.  Returns per-variable types 1..5.
    """
    ch = _MASK_OF_TYPE[np.asarray(types, dtype=np.int64)]
    ch_e = ch[evar]
    v2c = ch_e
    bits = (1, 2, 4)
    while True:
        # check -> variable: bit survives iff no other socket lacks it
        c2v = np.zeros_like(v2c)
        for b in bits:
            lack = (v2c & b) == 0
            cnt = np.bincount(echeck, weights=lack, minlength=n_checks)
            c2v |= b * (cnt[echeck] == lack)
        # variable -> check: channel plus any other incoming check message
        out = np.zeros_like(v2c)
        heard = np.zeros_like(ch)  # bits carried by any incoming check message
        for b in bits:
            has = (c2v & b) != 0
            cnt = np.bincount(evar, weights=has, minlength=n_vars)
            out |= b * ((cnt[evar] - has) >= 1)
            heard |= b * (cnt >= 1)
        out = _CLOSED_MASK[out | ch_e]
        if np.array_equal(out, v2c):
            break
        v2c = out
    return _TYPE_OF_MASK[_CLOSED_MASK[ch | heard]]


# --- Tanner graphs as plain edge lists (n_vars, n_checks, evar, echeck) ------


def tanner_edges(h):
    """Edge list of the Tanner graph of parity matrix h, in check-major order."""
    h = np.asarray(h, dtype=np.int64) % 2
    echeck, evar = np.nonzero(h)
    return h.shape[1], h.shape[0], evar, echeck


def parity_matrix(n_vars, n_checks, evar, echeck) -> np.ndarray:
    """Dense GF(2) parity-check matrix; multi-edges cancel mod 2."""
    h = np.zeros((n_checks, n_vars), dtype=np.int64)
    np.add.at(h, (echeck, evar), 1)
    return h % 2


def is_cycle_free(n_vars, n_checks, evar, echeck) -> bool:
    """True iff the bipartite multigraph is a forest (union-find)."""
    parent = list(range(n_vars + n_checks))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v, c in zip(np.asarray(evar).tolist(), np.asarray(echeck).tolist()):
        a, b = find(v), find(n_vars + c)
        if a == b:
            return False
        parent[a] = b
    return True


# --- exhaustive reference decoder over all codeword pairs --------------------

MAX_CODE_DIM = 12  # at most 2**12 codewords, 2**24 pairs


def gf2_nullspace(h: np.ndarray) -> np.ndarray:
    """Basis of the GF(2) nullspace of h, one codeword per row."""
    h = (np.asarray(h, dtype=np.int64) % 2).copy()
    rows, cols = h.shape
    pivots = []
    r = 0
    for c in range(cols):
        sel = np.flatnonzero(h[r:, c]) + r
        if sel.size == 0:
            continue
        if sel[0] != r:
            h[[r, sel[0]]] = h[[sel[0], r]]
        for rr in range(rows):
            if rr != r and h[rr, c]:
                h[rr] ^= h[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = h[i, c]
    return basis


def enumerate_codewords(h: np.ndarray) -> np.ndarray:
    """All codewords of the code with parity-check matrix h."""
    basis = gf2_nullspace(h)
    k = basis.shape[0]
    if k > MAX_CODE_DIM:
        raise ValueError(f"code dimension {k} exceeds enumeration limit {MAX_CODE_DIM}")
    sel = (np.arange(2**k)[:, None] >> np.arange(k)) & 1
    return (sel @ basis) % 2


def brute_force_jcf(h: np.ndarray, types) -> np.ndarray:
    """Per-bit recoverability of x_A xor x_B, by exhaustive enumeration.

    Under the all-zero codeword pair, a pair (a, b) of codewords is
    consistent with the types iff a is 0 where they reveal x_A (types 2
    and 5), b is 0 where they reveal x_B (3 and 5) and a xor b is 0 where
    they reveal the xor (4).  Returns True where a xor b is the same in
    every consistent pair, as it is in the all-zero one.
    """
    code = enumerate_codewords(h)
    t = np.asarray(types, dtype=np.int64)
    if t.shape != (code.shape[1],) or np.any((t < 1) | (t > 5)):
        raise ValueError(f"expected {code.shape[1]} types in 1..5, got {t}")
    ca = code[~np.any(code[:, (t == 2) | (t == 5)], axis=1)]
    cb = code[~np.any(code[:, (t == 3) | (t == 5)], axis=1)]
    ambiguous = np.zeros(code.shape[1], dtype=bool)
    for a in ca:
        xs = a ^ cb
        ambiguous |= np.any(xs[~np.any(xs[:, t == 4], axis=1)], axis=0)
    return ~ambiguous


# --- mutual informations by summation over the joint distribution -----------

MI_QUANTITIES = ("i_joint", "i_a_given_b", "i_b_given_a", "i_xor", "i_joint_given_xor")


def _relay_output(xa: int, xb: int, tau: int):
    """Deterministic relay observation (state, revealed values)."""
    if tau == 1:
        return (1,)
    if tau == 2:
        return (2, xa)
    if tau == 3:
        return (3, xb)
    if tau == 4:
        return (4, xa ^ xb)
    return (5, xa, xb)


def _joint_xy(pch, x_of):
    """Joint pmf over (x, y) with x = x_of(xa, xb); returns dict."""
    joint: dict = {}
    for xa in (0, 1):
        for xb in (0, 1):
            for tau in range(1, 6):
                pr = 0.25 * pch[tau - 1]
                if pr == 0.0:
                    continue
                key = (x_of(xa, xb), _relay_output(xa, xb, tau))
                joint[key] = joint.get(key, 0.0) + pr
    return joint


def _mi_from_joint(joint) -> float:
    """I(X; Y) by direct summation, log base 2, 0 log 0 := 0."""
    px: dict = {}
    py: dict = {}
    for (x, y), pr in joint.items():
        px[x] = px.get(x, 0.0) + pr
        py[y] = py.get(y, 0.0) + pr
    mi = 0.0
    for (x, y), pr in joint.items():
        if pr > 0.0:
            mi += pr * math.log2(pr / (px[x] * py[y]))
    return mi


def _mi_conditional(pch, x_of, z_of) -> float:
    """I(X; Y | Z) = sum_z P(z) I(X; Y | Z=z)."""
    # joint over (z, x, y)
    joint: dict = {}
    for xa in (0, 1):
        for xb in (0, 1):
            for tau in range(1, 6):
                pr = 0.25 * pch[tau - 1]
                if pr == 0.0:
                    continue
                key = (z_of(xa, xb), x_of(xa, xb), _relay_output(xa, xb, tau))
                joint[key] = joint.get(key, 0.0) + pr
    pz: dict = {}
    for (z, _x, _y), pr in joint.items():
        pz[z] = pz.get(z, 0.0) + pr
    total = 0.0
    for z, pzv in pz.items():
        sub = {
            (x, y): pr / pzv for (zz, x, y), pr in joint.items() if zz == z
        }
        total += pzv * _mi_from_joint(sub)
    return total


def mi_enumerate(pch, quantity: str) -> float:
    """Brute-force mutual information between the relay output and a selector.

    The relay output alphabet is (state, revealed values); the joint
    distribution over (x_A, x_B, state) is enumerated directly.
    """
    p = np.asarray(pch, dtype=float)
    if quantity == "i_joint":
        return _mi_from_joint(_joint_xy(p, lambda a, b: (a, b)))
    if quantity == "i_xor":
        return _mi_from_joint(_joint_xy(p, lambda a, b: a ^ b))
    if quantity == "i_a_given_b":
        return _mi_conditional(p, lambda a, b: a, lambda a, b: b)
    if quantity == "i_b_given_a":
        return _mi_conditional(p, lambda a, b: b, lambda a, b: a)
    if quantity == "i_joint_given_xor":
        return _mi_conditional(p, lambda a, b: (a, b), lambda a, b: a ^ b)
    raise ValueError(f"unknown quantity {quantity!r}; expected one of {MI_QUANTITIES}")


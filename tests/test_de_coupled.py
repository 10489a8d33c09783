"""Spatially coupled type distribution evolution."""

import collections
import math

import numpy as np
import pytest

import twemac_jcf.de_coupled as coupled
from twemac_jcf.channel import BUILTINS, ChannelError, ChannelFamily, puncture
from twemac_jcf.de_core import (
    SimplexError,
    _bind_remainder,
    bind_chk_update,
    bind_var_update,
    copies,
    join_weights,
)
from twemac_jcf.de_coupled import (
    STALL_TOL,
    Caps,
    Ensemble,
    _bind_window_mean,
    de_batch,
    nominal_rate,
)

from oracles import five_type_coupled_trajectory, half_chain_de, scalar_coupled_trajectory

NOT_FINAL = math.nextafter(1.0, 0.0)  # a target no finite run reaches before its cap
# the primary channel with eps_A = eps and eps_B = 3 eps / 4: types 2 and 3
# differ at every eps > 0, so the evolution keeps a row for each
RAY = ChannelFamily("ray-3/4", "custom-polynomial", coeffs=(
    (0.0, 0.0, 0.75), (0.0, 0.75, -0.75), (0.0, 1.0, -0.75), (1.0, -1.75, 0.75), (0.0,)))
FAMILIES = {**BUILTINS, RAY.name: RAY}
E5 = np.array([0, 0, 0, 0, 1.0])
EARLY = {1, 7}  # snapshots at early iterations, which keep the last one too


def _window_mean(rows, w, cs, out):
    """One call of the window mean bound to these arrays; the means."""
    mean, means = _bind_window_mean(rows, w, cs, out)
    mean()
    return means


def final(res):
    """The state after the last iteration of res, which asked for snapshots."""
    return res.snapshots[res.iterations_used]


def padded(pvc, L, w):
    """Variable rows -w+1..L+w-1 of the half chain: row j > L reads as its
    mirror 2L-j, and rows off the chain as type 5."""
    m = min(w - 1, L)
    pad = np.repeat(E5[:, None], w - 1, axis=1)
    return np.hstack([pad, pvc, pvc[:, L - m : L][:, ::-1], pad[:, : w - 1 - m]])


def eff_vc(pvc, L, w, lo):
    rows = padded(pvc, L, w)[:, lo:]
    k = rows.shape[1]
    return _window_mean(rows, w, np.zeros((5, k + 1)), np.empty((5, k - w + 1)))


def eff_cv(pcv, w, lo):
    rows = pcv[:, lo:]
    k = rows.shape[1]
    return _window_mean(rows, w, np.zeros((5, k + 1)), np.empty((5, k - w + 1)))


def test_nominal_rate_frozen_values():
    assert nominal_rate(Ensemble(3, 6, 5, 5)) == pytest.approx(
        0.3466327272727273, abs=1e-12
    )
    assert nominal_rate(Ensemble(5, 10, 200, 10)) == pytest.approx(
        0.49000357653990023, abs=1e-12
    )
    assert nominal_rate(Ensemble(9, 10, 200, 10)) == pytest.approx(
        0.08200643777182043, abs=1e-12
    )
    # the regular ensemble is the chain with L = 0, w = 1
    for d_v, d_c in ((3, 6), (4, 8), (9, 10)):
        assert nominal_rate(Ensemble(d_v, d_c)) == 1.0 - d_v / d_c


def test_nominal_rate_limits():
    # rate loss vanishes as L grows; value is monotone increasing in L
    base = 1 - 3 / 6
    rates = [nominal_rate(Ensemble(3, 6, L, 5)) for L in (5, 20, 100, 1000)]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert rates[-1] == pytest.approx(base, abs=1e-3)
    assert all(r < base for r in rates)


def test_effective_dists_w1_is_identity():
    e = Ensemble(3, 6, 2, 1)
    rng = np.random.default_rng(1)
    # type-major rows of the half chain: variables 0..L, checks 0..L+w-1
    pvc = rng.dirichlet(np.ones(5), size=e.L + 1).T
    pcv = rng.dirichlet(np.ones(5), size=e.L + e.w).T
    vc, cv = eff_vc(pvc, e.L, e.w, 0), eff_cv(pcv, e.w, 0)
    np.testing.assert_allclose(vc, pvc)
    np.testing.assert_allclose(cv, pcv)


def test_effective_dists_uniform_interior():
    # constant rows average to themselves in the interior, with type-5
    # padding bleeding in near the boundary
    e = Ensemble(3, 6, 4, 3)
    row = np.array([0.2, 0.2, 0.2, 0.4, 0.0])
    pvc = np.tile(row, (e.L + 1, 1)).T
    pcv = np.tile(row, (e.L + e.w, 1)).T
    vc, cv = eff_vc(pvc, e.L, e.w, 0), eff_cv(pcv, e.w, 0)
    for q in range(e.w - 1, e.L + e.w):
        np.testing.assert_allclose(vc[:, q], row, atol=1e-15)
    np.testing.assert_allclose(cv, np.tile(row, (e.L + 1, 1)).T, atol=1e-15)
    # leftmost check sees w-1 pseudo rows
    expect = (row + (e.w - 1) * np.array([0, 0, 0, 0, 1.0])) / e.w
    np.testing.assert_allclose(vc[:, 0], expect, atol=1e-15)


def test_effective_dists_boundary_formula():
    # the half chain against the full-chain window formula: variable j > L
    # is the mirror of 2L - j, and positions off the chain read as type 5
    for L, w in ((3, 2), (2, 5), (3, 4)):
        e = Ensemble(3, 6, L, w)
        rng = np.random.default_rng(7)
        pvc = rng.dirichlet(np.ones(5), size=L + 1).T
        pcv = rng.dirichlet(np.ones(5), size=L + w).T
        full_pvc = [pvc[:, min(j, 2 * L - j)] for j in range(e.n_var_positions)]
        e5 = np.array([0, 0, 0, 0, 1.0])
        for lo in (0, L):
            vc = eff_vc(pvc, L, w, lo)
            cv = eff_cv(pcv, w, lo)
            assert vc.shape == (5, L + w - lo) and cv.shape == (5, L + 1 - lo)
            for q in range(lo, L + w):
                rows = [full_pvc[q - j] if 0 <= q - j < e.n_var_positions else e5
                        for j in range(w)]
                np.testing.assert_allclose(vc[:, q - lo], np.mean(rows, axis=0), atol=1e-14)
            for i in range(lo, L + 1):
                np.testing.assert_allclose(cv[:, i - lo], pcv[:, i : i + w].mean(axis=1),
                                           atol=1e-14)


def oracle_outcome(e, pch, caps, iters):
    """(status, iterations, pvc, pcv, p_dec, trajectory) of the full-chain
    oracle under the stopping rules of de_batch: success when min p_dec
    reaches the target, stall when the sup-norm change of the variable rows
    falls below STALL_TOL, cap after l_max iterations."""
    traj = five_type_coupled_trajectory(pch, e.d_v, e.d_c, e.L, e.w, iters)
    pvc = np.tile(pch, (e.n_var_positions, 1))
    for it, (new_pvc, pcv, p_dec) in enumerate(traj, start=1):
        delta = np.max(np.abs(new_pvc - pvc))
        pvc = new_pvc
        if p_dec.min() >= caps.success_target:
            return "success", it, pvc, pcv, p_dec, traj
        if delta < STALL_TOL:
            return "stall", it, pvc, pcv, p_dec, traj
        if it == caps.for_ensemble(e).l_max:
            return "cap", it, pvc, pcv, p_dec, traj
    raise AssertionError(f"the oracle did not stop within {iters} iterations")


CHANNELS = {
    "primary": BUILTINS["primary"].eval(0.27),
    "punctured-primary": puncture(BUILTINS["primary"].eval(0.15), 0.25),
    "full-reveal": BUILTINS["full-reveal"].eval(0.45),
}


@pytest.mark.parametrize("channel", sorted(CHANNELS))
@pytest.mark.parametrize(
    "shape",
    [(3, 6, 2, 5), (4, 8, 3, 4), (5, 10, 4, 3), (3, 6, 5, 2), (3, 6, 4, 1)],
    ids=["L<w", "L=w-1", "odd-w", "even-w", "w=1"],
)
@pytest.mark.parametrize("target", ["default", "not-final"])
def test_half_chain_matches_full_chain_oracle(channel, shape, target):
    e, pch = Ensemble(*shape), CHANNELS[channel]
    caps = Caps() if target == "default" else Caps(l_max=40, success_target=NOT_FINAL)
    snaps = {1, 2, 7, 25}
    (res,) = de_batch(e, [pch], caps, snapshot_iters=snaps)
    status, iters, pvc, pcv, p_dec, traj = oracle_outcome(e, pch, caps, 400)
    assert (res.converged, res.iterations_used) == (status, iters)
    assert res.min_p_dec == pytest.approx(p_dec.min(), abs=1e-12)
    for got, want in zip(final(res), (pvc, pcv, p_dec)):
        np.testing.assert_allclose(got, want, atol=1e-12)
    assert sorted(res.snapshots) == sorted(k for k in snaps | {iters} if k <= iters)
    for k, snap in res.snapshots.items():
        if k < iters:
            for got, want in zip(snap, traj[k - 1]):
                np.testing.assert_allclose(got, want, atol=1e-12)


# The frozen half chain: every outcome must equal it bitwise.
FROZEN_SHAPES = {
    "L=0": (3, 6), "L<w": (3, 6, 2, 5), "w=1": (3, 6, 4, 1), "odd-w": (5, 10, 4, 3),
    "even-w": (3, 6, 5, 2),
}
FROZEN_OUTCOMES = {  # eps, caps
    "success": (0.2, Caps()),
    "stall": (0.8, Caps()),
    "cap": (0.46, Caps(l_max=5, success_target=NOT_FINAL)),
}


def assert_matches_frozen(e, pch, caps, snaps):
    """The outcome of a batch of one, after checking it bit for bit
    against the frozen half chain."""
    c = caps.for_ensemble(e)
    (res,) = de_batch(e, [pch], caps, snaps)
    status, iters, p_dec, min_p_dec, pvc, pcv, snapshots = half_chain_de(
        pch, e.d_v, e.d_c, e.L, e.w, c.l_max, c.success_target, STALL_TOL, snaps)
    assert (res.converged, res.iterations_used, res.min_p_dec) == (status, iters, min_p_dec)
    pairs = list(zip(final(res), (pvc, pcv, p_dec)))
    assert sorted(res.snapshots) == sorted(snapshots)
    for k, snap in snapshots.items():
        pairs += zip(res.snapshots[k], snap)
    for got, want in pairs:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return res


@pytest.mark.parametrize("outcome", sorted(FROZEN_OUTCOMES))
@pytest.mark.parametrize("channel", ["primary", "xor-only", "full-reveal", RAY.name])
@pytest.mark.parametrize("shape", list(FROZEN_SHAPES.values()), ids=list(FROZEN_SHAPES))
def test_matches_frozen_half_chain(shape, channel, outcome):
    eps, caps = FROZEN_OUTCOMES[outcome]
    res = assert_matches_frozen(Ensemble(*shape), FAMILIES[channel].eval(eps), caps,
                                {1, 2, 7, 25})
    assert res.converged == outcome


def test_matches_frozen_half_chain_as_left_edge_moves():
    # full-reveal decodes rows to the type-5 point mass as the wave's left
    # edge moves in, and every row keeps being updated; at eps 0 every row
    # starts there
    e = Ensemble(3, 6, 20, 3)
    res = assert_matches_frozen(e, BUILTINS["full-reveal"].eval(0.46), Caps(), {1, 60, 120})
    assert res.converged == "success"
    assert np.abs(res.snapshots[60].pvc[0] - E5).max() < STALL_TOL
    res = assert_matches_frozen(e, BUILTINS["full-reveal"].eval(0.0), Caps(), {1})
    assert (res.converged, res.iterations_used) == ("success", 1)


def _arrays(res):
    return [x for snap in res.snapshots.values() for x in snap]


@pytest.mark.parametrize("shape", [(3, 6), (3, 6, 20, 3)])
def test_outcomes_own_their_memory(shape):
    # calls A, B, A: no outcome shares memory with another array of its own
    # or of a later call, and A's second outcome repeats its first
    e, snaps = Ensemble(*shape), {1, 60}
    a, b = BUILTINS["full-reveal"].eval(0.46), BUILTINS["primary"].eval(0.3)
    (first,), (second,), (again,) = (de_batch(e, [pch], Caps(), snaps) for pch in (a, b, a))
    ours, later = _arrays(first), _arrays(second) + _arrays(again)
    for i, x in enumerate(ours):
        assert x.flags.owndata
        assert not any(np.shares_memory(x, y) for y in ours[i + 1 :] + later)
    assert (again.converged, again.iterations_used, again.min_p_dec) == (
        first.converged, first.iterations_used, first.min_p_dec)
    assert sorted(again.snapshots) == sorted(first.snapshots)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(_arrays(first), _arrays(again)))


def random_dists(rng, shape):
    """Random distributions over the first axis of shape, one per index of
    the others."""
    return np.moveaxis(rng.dirichlet(np.ones(shape[0]), size=shape[1:]), -1, 0)


def bound_as_in_a_batch(binder, w, buf, weights):
    """The closures `de_batch` would call for binder, in order, on fresh
    scratch: the window mean of buf's rows that the kernel reads (a view of
    buf at w = 1), then the kernel on those means, for a (R, B, k + w - 1)
    buf and the channels' `join_weights` (R - 1, 1, B, 1); and the array
    the last closure writes."""
    R, B, width = buf.shape
    k = width - w + 1
    rows = buf[1:] if binder == "chk_update" else buf[:-1]
    mean, means = _bind_window_mean(rows, w, np.zeros((R - 1, B, k + w)), np.empty((R - 1, B, k)))
    if binder == "window_mean":
        return [mean], means
    if binder == "remainder":
        out = np.empty((B, k))
        return [mean, _bind_remainder(means, 1, out)], out
    if binder == "chk_update":
        out = np.empty((R, B, k))
        return [mean, bind_chk_update(means, copies(np.empty((R - 1, B, k)), 3), out)], out
    powers, out = np.empty((2, R - 1, B, k)), np.empty((R, 2, B, k))
    return [mean, bind_var_update(weights, means, copies(powers[1], 2), powers, out)], out


@pytest.mark.parametrize("w", [1, 3])
@pytest.mark.parametrize("R", [4, 5])
@pytest.mark.parametrize("binder", ["window_mean", "chk_update", "var_update", "remainder"])
def test_bound_closures_read_live_views(binder, R, w):
    # a closure that kept a copy of an input or of its output would pass one
    # call: after its inputs change in place, a second call must give what
    # closures bound to fresh arrays give on the new inputs
    rng = np.random.default_rng([R, w])
    buf, weights = random_dists(rng, (R, 2, 6 + w)), join_weights(random_dists(rng, (R, 2)))
    calls, out = bound_as_in_a_batch(binder, w, buf, weights[..., None])
    for call in calls:
        call()
    first = out.copy()
    buf[...] = random_dists(rng, buf.shape)
    weights[...] = join_weights(random_dists(rng, (R, 2)))
    for call in calls:
        call()
    fresh_calls, fresh = bound_as_in_a_batch(binder, w, buf.copy(), weights[..., None].copy())
    for call in fresh_calls:
        call()
    assert first.tobytes() != out.tobytes()
    assert out.tobytes() == fresh.tobytes()


def test_iterations_call_no_array_constructor(monkeypatch):
    # numpy's concatenate, repeat and empty run per call and when blocks
    # leave the batch, not per iteration, for a lone chain and a batch of
    # chains whose third block (full-reveal at eps 0) ends after iteration 1
    calls = collections.Counter()
    for name in ("concatenate", "repeat", "empty", "empty_like", "zeros"):
        def counted(*args, _fn=getattr(np, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    e, pch = Ensemble(5, 10, 20, 4), BUILTINS["primary"].eval(0.27)
    pchs = [pch, BUILTINS["xor-only"].eval(0.45), BUILTINS["full-reveal"].eval(0.0), pch]
    for run, early in ((lambda caps: de_batch(e, [pch], caps), {}),
                       (lambda caps: de_batch(e, pchs, caps), {2: ("success", 1)})):
        counts = []
        for l_max in (5, 50):
            calls.clear()
            outcomes = run(Caps(l_max=l_max, success_target=NOT_FINAL))
            assert [(res.converged, res.iterations_used) for res in outcomes] == [
                early.get(i, ("cap", l_max)) for i in range(len(outcomes))]
            counts.append(dict(calls))
        assert counts[0] == counts[1]


def assert_same_outcome(got, want):
    # every snapshot of got, the last one included, bitwise want's
    assert (got.converged, got.iterations_used, got.min_p_dec) == (
        want.converged, want.iterations_used, want.min_p_dec)
    assert sorted(got.snapshots) == sorted(want.snapshots) == sorted(
        k for k in EARLY | {got.iterations_used} if k <= got.iterations_used)
    for x, y in zip(_arrays(got), _arrays(want)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_no_shared_memory(outcomes):
    arrays = [x for res in outcomes for x in _arrays(res)]
    for i, x in enumerate(arrays):
        assert not any(np.shares_memory(x, y) for y in arrays[i + 1 :])


BATCH_CHANNELS = {
    "primary": BUILTINS["primary"].eval,
    "xor-only": BUILTINS["xor-only"].eval,
    "full-reveal": BUILTINS["full-reveal"].eval,
    "punctured-primary": lambda eps: puncture(BUILTINS["primary"].eval(eps), 0.2),
    RAY.name: RAY.eval,
}
# eps 0 and 1, a coarse grid, and points close to the (3,6) thresholds,
# where columns run longest and end at different iterations
BATCH_EPS = sorted({0.0, 1.0, *np.linspace(0.0, 1.0, 33), 0.2453, 0.2506, 0.3347, 0.4294,
                    0.4297, 0.4828})


@pytest.mark.parametrize("caps", [Caps(), Caps(l_max=12)], ids=["default", "tight-cap"])
@pytest.mark.parametrize("degrees", [(3, 6), (4, 8), (7, 10)])
@pytest.mark.parametrize("channel", sorted(BATCH_CHANNELS))
def test_batch_equals_single_bit_for_bit(channel, degrees, caps):
    e = Ensemble(*degrees)
    pchs = [BATCH_CHANNELS[channel](eps) for eps in BATCH_EPS]
    batch = de_batch(e, pchs, caps, EARLY)
    assert len(batch) == len(pchs)
    for got, pch in zip(batch, pchs):
        (alone,) = de_batch(e, [pch], caps, EARLY)
        assert_same_outcome(got, alone)
    assert_no_shared_memory(batch)
    statuses = collections.Counter(res.converged for res in batch)
    assert statuses["success"] and statuses["stall" if caps.l_max is None else "cap"]
    if channel == "full-reveal":  # eps 0 is the type-5 point mass: decoded by iteration 1
        assert (batch[0].converged, batch[0].iterations_used) == ("success", 1)


def test_batch_ends_when_every_column_saturates_at_once():
    pchs = [BUILTINS["full-reveal"].eval(0.0)] * 3
    batch = de_batch(Ensemble(3, 6), pchs)
    assert [(r.converged, r.iterations_used, r.min_p_dec, r.snapshots) for r in batch] == [
        ("success", 1, 1.0, {})] * 3
    assert de_batch(Ensemble(3, 6), []) == []


BAD_ROWS = {
    "shape": [0.5, 0.5, 0.0, 0.0],
    "nan": [np.nan, 0.0, 0.0, 0.0, 1.0],
    "negative": [-1e-6, 0.0, 0.0, 0.5, 0.5 + 1e-6],
    "above-one": [0.0, 0.0, 0.0, 1.5, -0.5],
    "sum": [0.3, 0.3, 0.3, 0.3, 0.3],
}


@pytest.mark.parametrize("bad", list(BAD_ROWS.values()), ids=list(BAD_ROWS))
def test_batch_rejects_a_bad_channel_as_it_would_alone(bad):
    e, good = Ensemble(3, 6), BUILTINS["xor-only"].eval(0.4)
    with pytest.raises(ChannelError) as alone:
        de_batch(e, [bad])
    with pytest.raises(ChannelError) as batched:
        de_batch(e, [good, bad, good, [0.1, 0.2, 0.3, 0.4, 0.5]])
    assert str(batched.value) == str(alone.value)


# valid channels whose first check update leaves an entry below -1e-9
# (on (3,6), type 1 at -5e-9 and type 2 at -1.2e-9), and the error each evolution
# raises, the check half's: from the second channel the regular
# ensemble's variable half goes lower still
CHECK_HALF_ERRORS = [
    ([-1e-9, 0.0, 0.0, 1.0 + 1e-9, 0.0], (3, 6), "-5.000e-09"),
    ([-1e-9, 0.0, 0.0, 1.0 + 1e-9, 0.0], (3, 6, 10, 3), "-5.000e-09"),
    ([0.3, -1e-9, 0.0, 0.0, 0.7 + 1e-9], (3, 6), "-1.200e-09"),
    ([0.3, -1e-9, 0.0, 0.0, 0.7 + 1e-9], (3, 6, 10, 3), "-1.365e-09"),
]


@pytest.mark.parametrize("bad, shape, entry", CHECK_HALF_ERRORS)
def test_check_half_error_comes_first(bad, shape, entry):
    e, good = Ensemble(*shape), BUILTINS["xor-only"].eval(0.4)
    for run in (lambda: de_batch(e, [bad]), lambda: de_batch(e, [good, bad]),
                lambda: de_batch(e, [bad, good])):
        with pytest.raises(SimplexError) as err:
            run()
        assert str(err.value) == f"distribution entry {entry} below zero"


@pytest.mark.parametrize("shape, channel, eps, status, iters", [
    ((3, 6, 100, 5), "xor-only", 0.487, "success", 11140),
    ((7, 10, 30, 4), "primary", 0.64, "stall", 3708),
])
def test_long_chain_stays_on_the_simplex(shape, channel, eps, status, iters):
    # the kernels' remainders keep every distribution's sum at 1 over
    # thousands of iterations, with no renormalization
    (res,) = de_batch(Ensemble(*shape), [BUILTINS[channel].eval(eps)], Caps(), EARLY)
    assert (res.converged, res.iterations_used) == (status, iters)
    for rows in final(res)[:2]:
        assert np.abs(np.add.reduce(rows, axis=1) - 1.0).max() <= 1e-14


CHAIN_SHAPES = {"L<w": (3, 6, 2, 5), "w=1": (3, 6, 4, 1), "odd w": (3, 6, 12, 3),
                "even w": (5, 10, 8, 4)}
CHAIN_EPS = sorted({*np.linspace(0.0, 1.0, 9), 0.29, 0.3, 0.45, 0.47, 0.48, 0.49})


@pytest.mark.parametrize("caps", [Caps(), Caps(l_max=40)], ids=["default", "tight-cap"])
@pytest.mark.parametrize("channel", ["primary", "xor-only", "full-reveal", RAY.name])
@pytest.mark.parametrize("shape", list(CHAIN_SHAPES.values()), ids=list(CHAIN_SHAPES))
def test_batch_of_chains_equals_single_bit_for_bit(shape, channel, caps):
    e = Ensemble(*shape)
    pchs = [FAMILIES[channel].eval(eps) for eps in CHAIN_EPS]
    batch = de_batch(e, pchs, caps, EARLY)
    assert len(batch) == len(pchs)
    for got, pch in zip(batch, pchs):
        (alone,) = de_batch(e, [pch], caps, EARLY)
        assert_same_outcome(got, alone)
    statuses = collections.Counter(res.converged for res in batch)
    assert statuses["success"] and statuses["stall" if caps.l_max is None else "cap"]
    assert_no_shared_memory(batch)


@pytest.mark.parametrize("caps", [Caps(), Caps(l_max=1000)], ids=["default", "tight-cap"])
def test_batch_of_saturating_primary_chains_equals_single_bit_for_bit(caps):
    # primary with d_v >= 6 decodes rows to the type-5 point mass; the
    # (7,10,30,4) threshold lies near 0.6299, between 0.62 and 0.64
    e = Ensemble(7, 10, 30, 4)
    pchs = [BUILTINS["primary"].eval(eps) for eps in (0.55, 0.62, 0.64, 0.66)]
    batch = de_batch(e, pchs, caps, EARLY)
    for got, pch in zip(batch, pchs):
        (alone,) = de_batch(e, [pch], caps, EARLY)
        assert_same_outcome(got, alone)
    assert_no_shared_memory(batch)
    assert [(res.converged, res.iterations_used) for res in batch] == (
        [("success", 420), ("success", 2735), ("stall", 3708), ("stall", 266)]
        if caps.l_max is None else [("success", 420), ("cap", 1000), ("cap", 1000), ("stall", 266)])
    assert np.abs(final(batch[0]).pvc[0] - E5).max() < STALL_TOL


FIVE_ROWS, FOUR_ROWS = [0, 1, 2, 3, 4], [0, 1, 1, 2, 3]  # each type's row in the two layouts


def rows_used(monkeypatch):
    """The number of rows of each later de_batch call's arrays, in order."""
    used, choose = [], coupled._type_rows

    def spy(e, pchs):
        rows = choose(e, pchs)
        used.append(len(set(rows.tolist())))
        return rows
    monkeypatch.setattr(coupled, "_type_rows", spy)
    return used


def test_mixed_batch_keeps_five_rows_and_equals_each_alone(monkeypatch):
    # one asymmetric channel gives the whole batch a row per type; alone, the
    # symmetric chain runs 4 rows, and both layouts give the same bits
    e, caps = Ensemble(3, 6, 12, 3), Caps()
    pchs = [BUILTINS["primary"].eval(0.3), RAY.eval(0.3)]
    used = rows_used(monkeypatch)
    batch = de_batch(e, pchs, caps, EARLY)
    alone = [de_batch(e, [pch], caps, EARLY)[0] for pch in pchs]
    assert used == [5, 4, 5]
    for got, want in zip(batch, alone):
        assert_same_outcome(got, want)
    assert [res.converged for res in batch] == ["stall", "success"]
    assert_no_shared_memory(batch)


@pytest.mark.parametrize("shape, channel, eps, caps", [
    ((3, 6), "primary", BATCH_EPS, Caps()),
    ((3, 6, 2, 5), "xor-only", CHAIN_EPS, Caps()),
    ((5, 10, 4, 3), "primary", CHAIN_EPS, Caps(l_max=40)),
    ((6, 10, 200, 10), "primary", (0.3, 0.45, 0.5), Caps(l_max=400)),
], ids=["regular", "L<w", "odd-w", "saturating"])
def test_four_rows_equal_five_rows_bit_for_bit(monkeypatch, shape, channel, eps, caps):
    # on symmetric channels, types 2 and 3 sharing a row changes no bit of
    # any outcome or snapshot, whichever layout the evolution would choose
    e, pchs = Ensemble(*shape), [BUILTINS[channel].eval(x) for x in eps]
    runs = {}
    for rows in (FIVE_ROWS, FOUR_ROWS):
        monkeypatch.setattr(coupled, "_type_rows", lambda e, pchs, rows=rows: np.array(rows))
        runs[len(set(rows))] = de_batch(e, pchs, caps, EARLY)
    for got, want in zip(runs[4], runs[5]):
        assert_same_outcome(got, want)
        for snap in got.snapshots.values():
            for x in snap[:2]:
                assert x.shape[1] == 5 and x[:, 2].tobytes() == x[:, 1].tobytes()
    if shape == (6, 10, 200, 10):  # the chain that succeeds decodes to the type-5 point mass
        assert [res.converged for res in runs[4]] == ["success", "cap", "stall"]
        assert np.abs(final(runs[4][0]).pvc[0] - E5).max() < STALL_TOL


def test_saturating_chain_stays_in_its_batch():
    # full-reveal decodes rows to the type-5 point mass: beside a chain that
    # runs longer, the chain keeps its batch and its outcome is its own
    e, caps = Ensemble(3, 6, 20, 3), Caps()
    sat, xor = BUILTINS["full-reveal"].eval(0.46), BUILTINS["xor-only"].eval(0.49)
    (alone,) = de_batch(e, [sat], caps, EARLY)
    assert alone.converged == "success"
    assert np.abs(final(alone).pvc[0] - E5).max() < STALL_TOL
    batch = de_batch(e, [sat, xor, sat], caps, EARLY)
    assert batch[1].iterations_used > alone.iterations_used
    for got, pch in zip(batch, [sat, xor, sat]):
        (alone,) = de_batch(e, [pch], caps, EARLY)
        assert_same_outcome(got, alone)
    assert_no_shared_memory(batch)
    # eps 0 is the type-5 point mass: every row decoded by iteration 1
    zero = de_batch(e, [BUILTINS["full-reveal"].eval(0.0), xor], caps)[0]
    assert (zero.converged, zero.iterations_used, zero.min_p_dec) == ("success", 1, 1.0)


def test_coupled_equals_regular_at_w1():
    # w=1 decouples the chain into independent copies of the regular code
    pch = BUILTINS["primary"].eval(0.25)
    e = Ensemble(3, 6, 3, 1)
    caps = Caps(l_max=50, success_target=math.nextafter(1.0, 0.0))
    cres = final(*de_batch(e, [pch], caps, EARLY))
    (rres,) = de_batch(Ensemble(3, 6), [pch], caps, EARLY)
    assert final(rres).pvc.shape == final(rres).pcv.shape == (1, 5)
    for i in range(e.n_var_positions):
        np.testing.assert_allclose(cres.pvc[i], final(rres).pvc[0], atol=1e-12)
        assert cres.p_dec[i] == pytest.approx(rres.min_p_dec, abs=1e-12)


@pytest.mark.parametrize("L,w", [(4, 2), (6, 3)])
def test_xor_only_matches_scalar_coupled_oracle(L, w):
    eps, d_v, d_c, iters = 0.45, 3, 6, 30
    e = Ensemble(d_v, d_c, L, w)
    (res,) = de_batch(
        e,
        [[eps, 0, 0, 1 - eps, 0]],
        Caps(l_max=iters, success_target=math.nextafter(1.0, 0.0)),
        {iters},
    )
    traj = scalar_coupled_trajectory(eps, d_v, d_c, L, w, iters)
    x_final, y_final = traj[-1]
    pvc, pcv, _ = res.snapshots[iters]
    np.testing.assert_allclose(pvc[:, 0], x_final, atol=1e-12)
    np.testing.assert_allclose(pcv[:, 0], y_final, atol=1e-12)
    # boundary padding injects type-5 knowledge but never partial types
    assert np.all(pvc[:, [1, 2]] == 0.0)
    assert np.all(pcv[:, [1, 2]] == 0.0)
    np.testing.assert_allclose(pvc[:, 3] + pvc[:, 4], 1.0 - x_final, atol=1e-12)


def test_saturated_rows_match_scalar_oracle():
    # full-reveal is the BEC on types 1 and 5, so the decoded wave leaves
    # rows at the type-5 point mass; the evolution and the scalar oracle
    # both keep updating them
    eps, d_v, d_c, L, w, iters = 0.46, 3, 6, 20, 3, 120
    (res,) = de_batch(
        Ensemble(d_v, d_c, L, w),
        [BUILTINS["full-reveal"].eval(eps)],
        Caps(l_max=iters, success_target=math.nextafter(1.0, 0.0)),
        {iters},
    )
    traj = scalar_coupled_trajectory(eps, d_v, d_c, L, w, iters)
    # before the last iteration some rows were saturated and more than w
    # positions from every unsaturated row
    unsat = np.flatnonzero(traj[-2][0] > 1e-13)
    assert unsat[0] > w or unsat[-1] < 2 * L - w
    x_final, y_final = traj[-1]
    assert res.converged == "cap"
    pvc, pcv, _ = res.snapshots[iters]
    np.testing.assert_allclose(pvc[:, 0], x_final, atol=1e-12)
    np.testing.assert_allclose(pcv[:, 0], y_final, atol=1e-12)
    assert np.all(pvc[:, 1:4] == 0.0)


def test_zero_erasure_succeeds_immediately():
    (res,) = de_batch(Ensemble(3, 6, 5, 3), [[0, 0, 0, 1, 0]])
    assert res.converged == "success"
    assert res.min_p_dec == pytest.approx(1.0)


def test_profile_symmetric_about_center():
    pch = BUILTINS["xor-only"].eval(0.46)
    e = Ensemble(3, 6, 10, 3)
    (res,) = de_batch(e, [pch], Caps(l_max=40, success_target=math.nextafter(1.0, 0.0)),
                      snapshot_iters={10, 30})
    assert sorted(res.snapshots) == [10, 30, 40]
    for snap in res.snapshots.values():
        np.testing.assert_allclose(snap.p_dec, snap.p_dec[::-1], atol=1e-12)


def test_above_threshold_stalls():
    (res,) = de_batch(Ensemble(3, 6, 20, 5), [BUILTINS["xor-only"].eval(0.6)])
    assert res.converged == "stall"
    assert res.min_p_dec < 1.0


def test_wave_propagates_between_thresholds():
    # between the uncoupled and coupled thresholds the decoding wave
    # must sweep inward from the boundaries
    eps = 0.46  # above 0.4294 (uncoupled), below 0.4873 (coupled, L=100 w=5)
    e = Ensemble(3, 6, 30, 5)
    (res,) = de_batch(e, [BUILTINS["xor-only"].eval(eps)])
    assert res.converged == "success"
    (reg,) = de_batch(Ensemble(3, 6), [BUILTINS["xor-only"].eval(eps)])
    assert reg.converged == "stall"


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(1, 6, 5, 3)
    with pytest.raises(ValueError):
        Ensemble(3, 1, 5, 3)
    with pytest.raises(ValueError):
        Ensemble(3, 6, 0, 3)
    with pytest.raises(ValueError):
        Ensemble(3, 6, 5, 0)
    with pytest.raises(ValueError):
        Ensemble(3, 6, -1, 1)
    # the regular ensemble (L = 0) allows d_v = 1 but no window
    assert not Ensemble(1, 6).coupled
    assert Ensemble(3, 6, 1, 1).coupled

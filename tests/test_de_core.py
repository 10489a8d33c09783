"""Closed-form node updates and regular-ensemble type distribution evolution.

The kernels are checked against the oracle's explicit transition-matrix
powers and exhaustive lattice folds; the regular ensemble is the (d_v, d_c)
ensemble with L = 0 and w = 1.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twemac_jcf.channel import BUILTINS
from twemac_jcf.de_core import (
    SimplexError,
    bind_chk_update,
    bind_var_update,
    check_simplex,
    copies,
    join_weights,
)
from twemac_jcf.de_coupled import Caps, Ensemble, de_batch

from oracles import (
    explicit_chk_matrix,
    explicit_var_matrix,
    folded_power,
    folded_update,
    lattice_chk,
    lattice_var,
    matrix_power_update,
    scalar_bec_trajectory,
)


def on_simplex(xs):
    """xs / sum(xs) rounded to multiples of 2**-40, with the largest entry
    taking the remainder: every partial sum is then exact, so the float64
    sum is exactly 1.0 in any order."""
    p = np.round(np.array(xs) / sum(xs) * 2.0**40) / 2.0**40
    k = int(np.argmax(p))
    p[k] = 1.0 - (p.sum() - p[k])
    return p


dists = st.lists(
    st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=5
).filter(lambda xs: sum(xs) > 1e-6).map(on_simplex)
# divided by its float sum, this draw sums to 1.0000000000000002
OFF_SIMPLEX_DRAW = [0.0, 0.0, 0.0, 0.5, 1e-5]

EYE = np.eye(5)
E1, E5 = EYE[0], EYE[4]
NOT_FINAL = math.nextafter(1.0, 0.0)  # a target no finite run reaches before its cap


def chk_update(p, bases, out):
    """One call of the check kernel bound to these arrays; out."""
    bind_chk_update(p, bases, out)()
    return out


def var_update(weights, q, bases, powers, out):
    """One call of the variable kernel bound to these arrays; out."""
    bind_var_update(weights, q, bases, powers, out)()
    return out


def chk(p, n):
    p = np.asarray(p, dtype=float)[:, None]
    return chk_update(p, copies(np.empty((4, 1)), n), np.empty_like(p))[:, 0]


def var_pair(c, q, n):
    """The joins of c with n and with n + 1 messages q."""
    weights = join_weights(np.asarray(c, dtype=float))
    q = np.asarray(q, dtype=float)[:, None]
    powers = np.empty((2, 4, 1))
    out = var_update(weights, q, copies(powers[1], n), powers, np.empty((5, 2, 1)))
    return out[:, 0, 0], out[:, 1, 0]


def var(c, q, n):
    return var_pair(c, q, n)[0]


def regular(d_v, d_c, pch, l_max=None, target=None, snapshots=()):
    caps = Caps(l_max=l_max, **({} if target is None else {"success_target": target}))
    (res,) = de_batch(Ensemble(d_v, d_c), [pch], caps, snapshots)
    return res


def test_var_matrix_identity_and_absorbing():
    # type 1 is the identity of the join and type 5 absorbs it
    for t in range(5):
        for n in (1, 3):
            np.testing.assert_allclose(var(EYE[t], E1, n), EYE[t], atol=1e-15)
            np.testing.assert_allclose(var(EYE[t], E5, n), E5, atol=1e-15)
    np.testing.assert_allclose(explicit_var_matrix(E1), EYE)
    q = np.array([0.1, 0.2, 0.3, 0.4, 0.0])
    np.testing.assert_allclose(var(E5, q, 2), E5, atol=1e-15)
    np.testing.assert_allclose(var(E5, q, 2), matrix_power_update(q, 2, E5), atol=1e-15)


def test_chk_matrix_identity_and_absorbing():
    # type 5 is the identity of the meet and type 1 absorbs it
    for t in range(5):
        np.testing.assert_allclose(chk(EYE[t], 4), EYE[t], atol=1e-15)
    np.testing.assert_allclose(explicit_chk_matrix(E5), EYE)
    p = np.array([0.0, 0.2, 0.3, 0.1, 0.4])
    for n in (1, 2, 5):
        np.testing.assert_allclose(chk(p, n), matrix_power_update(p, n), atol=1e-15)
    np.testing.assert_allclose(chk([0.3, 0.2, 0.2, 0.2, 0.1], 1), [0.3, 0.2, 0.2, 0.2, 0.1],
                               atol=1e-15)
    np.testing.assert_allclose(chk([1.0, 0, 0, 0, 0], 3), E1, atol=1e-15)


def test_var_matrix_preimage_entries():
    q = np.array([0.5, 0.1, 0.1, 0.3, 0.0])
    # channel type 2 joined with one message: type 5 from types 3 and 4
    assert var(EYE[1], q, 1)[4] == pytest.approx(0.4)
    assert explicit_var_matrix(q)[4, 1] == pytest.approx(0.4)
    # channel type 4 stays 4 against types 1 and 4
    assert var(EYE[3], q, 1)[3] == pytest.approx(0.8)
    assert explicit_var_matrix(q)[3, 3] == pytest.approx(0.8)


def test_chk_matrix_preimage_entries():
    p = np.array([0.1, 0.2, 0.2, 0.5, 0.0])
    m = explicit_chk_matrix(p)
    assert m[0, 3] == pytest.approx(0.5)
    assert m[3, 3] == pytest.approx(0.5)
    # the meet of two messages: type 4 only from the pair (4, 4)
    np.testing.assert_allclose(chk(p, 2), m @ p, atol=1e-15)
    assert chk(p, 2)[3] == pytest.approx(0.25)


@given(dists)
@settings(max_examples=50)
def test_matrices_match_explicit_layouts(p):
    c = p[::-1]
    for n in (1, 2, 5, 9):
        np.testing.assert_allclose(chk(p, n), matrix_power_update(p, n), atol=1e-14)
    for n in (0, 1, 2, 3, 9):
        out, dec = var_pair(c, p, n)
        np.testing.assert_allclose(out, matrix_power_update(p, n, c), atol=1e-14)
        np.testing.assert_allclose(dec, matrix_power_update(p, n + 1, c), atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernels_match_table_folds(n):
    rng = np.random.default_rng(n)
    for p in rng.dirichlet(np.ones(5), size=4):
        c = rng.dirichlet(np.ones(5))
        np.testing.assert_allclose(chk(p, n), folded_update(p, n), atol=1e-14)
        out, dec = var_pair(c, p, n)
        np.testing.assert_allclose(out, folded_update(p, n, c), atol=1e-14)
        np.testing.assert_allclose(dec, folded_update(p, n + 1, c), atol=1e-14)


def test_dists_sum_to_exactly_one():
    p = np.array(OFF_SIMPLEX_DRAW) / sum(OFF_SIMPLEX_DRAW)
    assert p.sum() == math.nextafter(1.0, 2.0)
    assert on_simplex(OFF_SIMPLEX_DRAW).sum() == 1.0
    np.testing.assert_allclose(on_simplex(OFF_SIMPLEX_DRAW), p, rtol=0, atol=2.0**-40)


@given(dists)
@example(on_simplex(OFF_SIMPLEX_DRAW))
@settings(max_examples=50)
def test_matrices_column_stochastic(p):
    c = p[::-1]
    for out in (chk(p, 1), chk(p, 5), var(c, p, 0), var(c, p, 2), var(c, p, 9)):
        assert np.all(out >= -1e-15)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
    for m in (explicit_var_matrix(p), explicit_chk_matrix(p)):
        assert np.all(m >= 0)
        np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-9)


def test_matrix_entries_match_monte_carlo():
    # fold sampled message tuples with the lattice operators
    rng = np.random.default_rng(42)
    p = np.array([0.5, 0.1, 0.1, 0.3, 0.0])
    c = np.array([0.2, 0.3, 0.1, 0.2, 0.2])
    trials, n = 200000, 3
    ks = rng.choice(5, size=(trials, n), p=p) + 1
    chs = rng.choice(5, size=trials, p=c) + 1
    chk_table = np.array([[lattice_chk(a, b) for b in range(1, 6)] for a in range(1, 6)])
    var_table = np.array([[lattice_var(a, b) for b in range(1, 6)] for a in range(1, 6)])
    meet, join = ks[:, 0], chs
    for j in range(n):
        if j:
            meet = chk_table[meet - 1, ks[:, j] - 1]
        join = var_table[join - 1, ks[:, j] - 1]
    np.testing.assert_allclose(np.bincount(meet - 1, minlength=5) / trials, chk(p, n), atol=0.01)
    np.testing.assert_allclose(np.bincount(join - 1, minlength=5) / trials, var(c, p, n),
                               atol=0.01)


def test_var_update_examples():
    pch = np.array([0.25, 0.25, 0.25, 0.25, 0.0])
    np.testing.assert_allclose(var(pch, [0.9, 0.1, 0, 0, 0], 0), pch)
    out = var(pch, [0.5, 0.1, 0.1, 0.3, 0.0], 1)
    np.testing.assert_allclose(out, [0.125, 0.175, 0.175, 0.275, 0.25], atol=1e-12)
    np.testing.assert_allclose(var(pch, [0, 0, 0, 0, 1], 2), [0, 0, 0, 0, 1], atol=1e-12)


def test_chk_update_examples():
    p = np.array([0.1, 0.2, 0.2, 0.5, 0.0])
    np.testing.assert_allclose(chk(p, 1), p)
    np.testing.assert_allclose(chk(p, 2), [0.67, 0.04, 0.04, 0.25, 0.0], atol=1e-12)
    with pytest.raises(ValueError):
        Ensemble(3, 1)


@pytest.mark.parametrize("eps,d_c", [(0.3, 3), (0.5, 6), (0.7, 10)])
def test_chk_update_scalar_bec_identity(eps, d_c):
    out = chk([eps, 0, 0, 1 - eps, 0], d_c - 1)
    assert out[3] == pytest.approx((1 - eps) ** (d_c - 1), abs=1e-12)
    assert out[1] == out[2] == out[4] == 0.0


def rough_bases(rng, shape):
    """Random entries of which about a fifth are exactly 0 and a fifth
    -1e-14, the remainders' roundoff."""
    x = rng.random(shape)
    pick = rng.random(shape)
    x[pick < 0.2] = 0.0
    x[pick > 0.8] = -1e-14
    return x


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
def test_power_is_the_explicit_product(n):
    x = rough_bases(np.random.default_rng(n), (4, 3, 50))
    got = np.multiply.reduce(copies(x, n), axis=0)
    assert got.tobytes() == folded_power(x, n).tobytes()
    np.testing.assert_allclose(got, x**n, rtol=1e-15 * n, atol=0)
    # on a strided base, into a strided output
    wide, out = np.zeros((4, 3, 100)), np.empty((50, 3, 4)).T
    wide[..., ::2] = x
    np.multiply.reduce(copies(wide[..., ::2], n), axis=0, out=out)
    assert out.tobytes() == got.tobytes()


def strided(shape):
    """An uninitialised array of the given shape whose axes run in reverse
    order in memory, with a gap between neighbours on the last axis."""
    return np.empty((shape[-1] * 2, *shape[-2::-1]))[::2].T


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
def test_kernels_do_not_depend_on_layout(n):
    # every input, output and scratch array contiguous, then all strided
    rng = np.random.default_rng(10 + n)
    p = rough_bases(rng, (5, 3, 50))
    weights = join_weights(rng.dirichlet(np.ones(5), size=3).T)[..., None]
    var_base = np.concatenate([p[:1], p[1:4] + p[0]])  # q1, then q1 + q_t
    joins, meets = [], []
    for new in (np.empty, strided):
        q = new(p.shape)
        q[...] = p
        powers = new((2, 4, 3, 50))
        joins.append(var_update(weights, q, copies(powers[1], n), powers, new((5, 2, 3, 50))))
        assert powers[1].tobytes() == folded_power(var_base, n + 1).tobytes()
        if n:  # a meet has n = d_c - 1 >= 1
            meets.append(chk_update(q, copies(new((4, 3, 50)), n), new((5, 3, 50))))
            assert meets[-1][4].tobytes() == folded_power(p[4], n).tobytes()
    assert not joins[1].flags.forc
    assert joins[0].tobytes() == joins[1].tobytes()
    assert all(m.tobytes() == meets[0].tobytes() for m in meets)


def test_de_regular_trivial_channels():
    res = regular(3, 6, [0, 0, 0, 1, 0])
    assert res.converged == "success"
    assert res.iterations_used == 1
    assert res.min_p_dec == pytest.approx(1.0)
    res = regular(3, 6, [1, 0, 0, 0, 0])
    assert res.converged == "stall"
    assert res.iterations_used == 1
    assert res.min_p_dec == 0.0


def test_edge_exponents_through_the_loop():
    # (1,6): n = 0 at the variable node, so every variable message is the
    # channel's and the first iteration changes nothing
    eps = 0.3
    res = regular(1, 6, BUILTINS["xor-only"].eval(eps), snapshots=[1])
    assert (res.converged, res.iterations_used) == ("stall", 1)
    assert res.min_p_dec == 0.750421
    ((x_vc, x_cv),) = scalar_bec_trajectory(eps, 1, 6, 1)
    pvc, pcv = res.snapshots[1].pvc[0], res.snapshots[1].pcv[0]
    assert abs(pvc[0] - x_vc) <= 1e-12 and abs(pcv[0] - x_cv) <= 1e-12
    assert abs(res.min_p_dec - (1 - eps * x_cv)) <= 1e-12
    # (2,2): n = 1 at both nodes
    res = regular(2, 2, BUILTINS["primary"].eval(eps))
    assert (res.converged, res.iterations_used) == ("success", 5)
    assert res.min_p_dec == 0.9999964570631381


def test_de_regular_xor_only_around_threshold():
    xor = BUILTINS["xor-only"]
    good = regular(3, 6, xor.eval(0.40))
    assert good.converged == "success"
    bad = regular(3, 6, xor.eval(0.44))
    assert bad.converged == "stall"
    assert bad.min_p_dec < 1.0


@pytest.mark.parametrize("d_v,d_c", [(3, 6), (4, 8)])
def test_xor_only_reduces_to_scalar_bec(d_v, d_c):
    eps = 0.41
    iters = 60
    res = regular(d_v, d_c, [eps, 0, 0, 1 - eps, 0], iters, NOT_FINAL, range(1, iters + 1))
    scalar = scalar_bec_trajectory(eps, d_v, d_c, iters)
    for (it, snap), (x_vc, x_cv) in zip(sorted(res.snapshots.items()), scalar):
        pvc, pcv = snap.pvc[0], snap.pcv[0]
        assert pvc[1] == pvc[2] == pvc[4] == 0.0
        assert pcv[1] == pcv[2] == pcv[4] == 0.0
        assert abs(pvc[0] - x_vc) <= 1e-12
        assert abs(pcv[0] - x_cv) <= 1e-12


def test_full_reveal_reduces_to_scalar_bec_on_types_1_and_5():
    eps, d_v, d_c, iters = 0.41, 3, 6, 40
    res = regular(d_v, d_c, [eps, 0, 0, 0, 1 - eps], iters, NOT_FINAL, range(1, iters + 1))
    x = eps
    for it, snap in sorted(res.snapshots.items()):
        pvc, pcv = snap.pvc[0], snap.pcv[0]
        x_cv = 1 - (1 - x) ** (d_c - 1)
        x = eps * x_cv ** (d_v - 1)
        assert pvc[1] == pvc[2] == pvc[3] == 0.0
        assert abs(pvc[0] - x) <= 1e-12
        assert abs(pcv[0] - x_cv) <= 1e-12


def test_p_dec_nondecreasing_diagnostic():
    res = regular(3, 6, BUILTINS["primary"].eval(0.4), 200, snapshots=range(1, 201))
    decs = [snap.p_dec[0] for _, snap in sorted(res.snapshots.items())]
    assert all(a <= b + 1e-12 for a, b in zip(decs, decs[1:]))


def test_decoder_output_consistency():
    pch = BUILTINS["primary"].eval(0.3)
    res = regular(3, 6, pch, snapshots=[1])
    out = var(pch, res.snapshots[res.iterations_used].pcv[0], 3)
    assert res.min_p_dec == pytest.approx(out[3] + out[4], abs=1e-12)


def test_simplex_check_rejects_negative_entry():
    # a remainder entry keeps the sum at 1 however far the others drift;
    # arrays are type-major, one distribution per column
    with pytest.raises(SimplexError, match="entry -1.000e-06 below zero"):
        check_simplex(np.array([[0.2, 0.2, 0.2, 0.2, 0.2], [1.0 + 1e-6, 0.0, 0.0, 0.0, -1e-6]]).T)
    check_simplex(np.array([1.0 + 1e-12, 0.0, 0.0, 0.0, -1e-12]))


def test_simplex_check_rejects_nan():
    # every comparison with NaN is False, so the guard is written to pass
    # only what lies within tolerance
    with pytest.raises(SimplexError, match="entry nan below zero"):
        check_simplex(np.full((5, 3), np.nan))
    p = np.array([[0.2] * 5, [np.nan, 0.5, 0.0, 0.0, 0.5], [0.2] * 5]).T
    with pytest.raises(SimplexError):
        check_simplex(p)


def test_config_validation():
    with pytest.raises(ValueError):
        Ensemble(0, 6)
    with pytest.raises(ValueError):
        Ensemble(3, 1)
    with pytest.raises(ValueError):
        regular(3, 6, [0.5, 0, 0, 0.5, 0], l_max=0)
    with pytest.raises(ValueError):
        regular(3, 6, [0.5, 0, 0, 0.5, 0], target=1.0)
    for tol in (0.0, -1.0, float("nan")):  # a bisection to tol <= 0 never ends
        with pytest.raises(ValueError):
            Caps(tol=tol)


def test_oracles_do_not_import_the_package():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.split(".")[0] == "twemac_jcf" for name in imported), imported

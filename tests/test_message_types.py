"""The five message types as the peeler runs them: 3-bit knowledge masks,
joined by OR plus closure and met by AND, checked against the independent
component-set lattice and its laws."""

import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twemac_jcf.simulate import MASK_TO_TYPE, TYPE_TO_MASK, closure

from oracles import lattice_chk, lattice_var

ALL = list(range(1, 6))
XOR_BIT = 4


def var_combine(a: int, b: int) -> int:
    """The join, as `peel_decode` combines messages at a variable node."""
    return int(MASK_TO_TYPE[closure(TYPE_TO_MASK[a] | TYPE_TO_MASK[b])])


def chk_combine(a: int, b: int) -> int:
    """The meet, as `peel_decode` combines messages at a check node."""
    return int(MASK_TO_TYPE[TYPE_TO_MASK[a] & TYPE_TO_MASK[b]])


def var_fold(types) -> int:
    """The join of many types as the peeler forms it: OR all masks, then
    close once."""
    return int(MASK_TO_TYPE[closure(np.bitwise_or.reduce(TYPE_TO_MASK[list(types)]))])


def chk_fold(types) -> int:
    """The meet of many types: AND of all masks."""
    return int(MASK_TO_TYPE[np.bitwise_and.reduce(TYPE_TO_MASK[list(types)])])


def test_tables_match_lattice_exhaustively():
    for a, b in itertools.product(ALL, repeat=2):
        assert var_combine(a, b) == lattice_var(a, b)
        assert chk_combine(a, b) == lattice_chk(a, b)


def test_paper_table_entries():
    assert var_combine(2, 3) == 5
    assert var_combine(1, 4) == 4
    assert var_combine(4, 4) == 4
    assert chk_combine(2, 3) == 1
    assert chk_combine(5, 3) == 3
    assert chk_combine(1, 5) == 1


def test_int_roundtrip_bijection():
    # types 1..5 are the five closed masks, and closure lands on them
    closed = TYPE_TO_MASK[ALL]
    assert sorted(closed.tolist()) == [0, 1, 2, 4, 7]
    np.testing.assert_array_equal(MASK_TO_TYPE[closed], ALL)
    masks = np.arange(8)
    assert set(closure(masks).tolist()) <= set(closed.tolist())
    np.testing.assert_array_equal(closure(closure(masks)), closure(masks))
    np.testing.assert_array_equal(closure(closed), closed)


@pytest.mark.parametrize("op", [var_combine, chk_combine])
def test_commutativity_and_idempotence(op):
    for a, b in itertools.product(ALL, repeat=2):
        assert op(a, b) == op(b, a)
    for a in ALL:
        assert op(a, a) == a


@pytest.mark.parametrize("op", [var_combine, chk_combine])
def test_associativity_exhaustive(op):
    for a, b, c in itertools.product(ALL, repeat=3):
        assert op(op(a, b), c) == op(a, op(b, c))


def test_identities_and_absorbing_elements():
    for a in ALL:
        assert var_combine(1, a) == a
        assert var_combine(5, a) == 5
        assert chk_combine(5, a) == a
        assert chk_combine(1, a) == 1


def test_absorption_laws():
    for a, b in itertools.product(ALL, repeat=2):
        assert var_combine(a, chk_combine(a, b)) == a
        assert chk_combine(a, var_combine(a, b)) == a


def test_knows_xor_monotone_under_var():
    # the xor is known iff the mask has the xor bit, i.e. for types 4 and 5
    knows = [bool(TYPE_TO_MASK[t] & XOR_BIT) for t in ALL]
    assert knows == [False, False, False, True, True]
    for a, b in itertools.product(ALL, repeat=2):
        if knows[a - 1]:
            assert knows[var_combine(a, b) - 1]


def test_fold_examples():
    assert var_fold([2, 3, 1]) == 5
    assert var_fold([1, 1, 1]) == 1
    assert var_fold([4, 2]) == 5
    assert chk_fold([5, 5, 4]) == 4
    assert chk_fold([2, 2, 2]) == 2
    assert chk_fold([2, 4, 5]) == 1


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=8),
       st.randoms(use_true_random=False))
def test_folds_order_independent(types, rnd):
    # closing once after OR-ing every mask, as the peeler does, equals the
    # pairwise join in any order
    shuffled = list(types)
    rnd.shuffle(shuffled)
    assert var_fold(types) == reduce(var_combine, shuffled)
    assert chk_fold(types) == reduce(chk_combine, shuffled)


def test_tables_are_explicit_lookups():
    assert TYPE_TO_MASK.shape == (6,)
    assert MASK_TO_TYPE.shape == (8,)
    # the join and the meet of two types never leave the closed masks, so
    # MASK_TO_TYPE never reads its 0 placeholder for an unclosed mask
    for a, b in itertools.product(ALL, repeat=2):
        assert 1 <= var_combine(a, b) <= 5
        assert 1 <= chk_combine(a, b) <= 5
        assert TYPE_TO_MASK[var_combine(a, b)] == closure(TYPE_TO_MASK[a] | TYPE_TO_MASK[b])
        assert TYPE_TO_MASK[chk_combine(a, b)] == TYPE_TO_MASK[a] & TYPE_TO_MASK[b]

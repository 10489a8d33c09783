"""Closed-form rate bounds against the brute-force enumeration oracle."""

import numpy as np
import pytest

from twemac_jcf.channel import BUILTINS
from twemac_jcf.rates import rate_bounds

from oracles import MI_QUANTITIES, mi_enumerate

CLOSED_FORM = {
    "i_joint": lambda p: p[1] + p[2] + p[3] + 2 * p[4],
    "i_a_given_b": lambda p: p[1] + p[3] + p[4],
    "i_b_given_a": lambda p: p[2] + p[3] + p[4],
    "i_xor": lambda p: p[3] + p[4],
    "i_joint_given_xor": lambda p: p[1] + p[2] + p[4],
}


@pytest.mark.parametrize("family", ["primary", "xor-only", "full-reveal"])
def test_closed_forms_equal_enumeration_on_grid(family):
    fam = BUILTINS[family]
    for eps in np.linspace(0.0, 1.0, 101):
        p = fam.eval(float(eps))
        for q in MI_QUANTITIES:
            assert abs(CLOSED_FORM[q](p) - mi_enumerate(p, q)) <= 1e-12


def test_bundle_at_half_erasure():
    rb = rate_bounds(BUILTINS["primary"].eval(0.5))
    assert rb.r_cf == pytest.approx(0.25, abs=1e-12)
    assert rb.r_df == pytest.approx(0.375, abs=1e-12)
    assert rb.r_df_prime == pytest.approx(0.375, abs=1e-12)
    assert rb.r_jcf_target == pytest.approx(0.375, abs=1e-12)


def test_df_cf_crossover_at_one_third():
    rb = rate_bounds(BUILTINS["primary"].eval(1.0 / 3.0))
    assert rb.r_df == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert rb.r_cf == pytest.approx(4.0 / 9.0, abs=1e-12)


def test_uninformative_channel_gives_zero_rates():
    rb = rate_bounds([1, 0, 0, 0, 0])
    assert rb.r_df == rb.r_df_prime == rb.r_cf == rb.r_jcf_target == 0.0


def test_enumeration_point_masses():
    assert mi_enumerate([0, 0, 0, 1, 0], "i_xor") == pytest.approx(1.0, abs=1e-12)
    assert mi_enumerate([0, 0, 0, 0, 1], "i_joint") == pytest.approx(2.0, abs=1e-12)
    p = BUILTINS["primary"].eval(0.5)
    assert mi_enumerate(p, "i_joint_given_xor") == pytest.approx(0.5, abs=1e-12)


def test_primary_algebraic_identities():
    for eps in np.linspace(0.0, 1.0, 101):
        rb = rate_bounds(BUILTINS["primary"].eval(float(eps)))
        assert rb.r_df == pytest.approx((1 - eps**2) / 2, abs=1e-12)
        assert rb.r_cf == pytest.approx((1 - eps) ** 2, abs=1e-12)


def test_df_prime_matches_df_maximum():
    # the identical-codebook cap never lowers max(r_df, r_cf)
    for name, fam in BUILTINS.items():
        for eps in np.linspace(0.0, 1.0, 101):
            rb = rate_bounds(fam.eval(float(eps)))
            assert rb.r_df_prime <= rb.r_df + 1e-15
            assert max(rb.r_df_prime, rb.r_cf) == pytest.approx(
                max(rb.r_df, rb.r_cf), abs=1e-12
            )


def test_rates_nonincreasing_in_eps_for_primary():
    grid = np.linspace(0.0, 1.0, 101)
    bundles = [rate_bounds(BUILTINS["primary"].eval(float(e))) for e in grid]
    for attr in ("r_df", "r_cf", "r_jcf_target"):
        vals = [getattr(rb, attr) for rb in bundles]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_all_rates_within_bounds():
    for fam in BUILTINS.values():
        for eps in np.linspace(0.0, 1.0, 21):
            rb = rate_bounds(fam.eval(float(eps)))
            for attr in ("r_df", "r_df_prime", "r_cf", "r_jcf_target"):
                assert 0.0 <= getattr(rb, attr) <= 2.0
            assert rb.r_jcf_target == max(rb.r_df, rb.r_cf)


def test_unknown_selector_rejected():
    with pytest.raises(ValueError):
        mi_enumerate([1, 0, 0, 0, 0], "i_nonsense")

"""Channel families, puncturing, state sampling, and config parsing."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twemac_jcf.channel import (
    BUILTINS,
    ChannelError,
    ChannelFamily,
    get_family,
    parse_channel_config,
    puncture,
    sample_states,
    validate_dist,
    validate_family,
)


def test_primary_endpoints_and_midpoint():
    fam = BUILTINS["primary"]
    np.testing.assert_allclose(fam.eval(0.0), [0, 0, 0, 1, 0], atol=0)
    np.testing.assert_allclose(fam.eval(1.0), [1, 0, 0, 0, 0], atol=0)
    np.testing.assert_allclose(fam.eval(0.5), [0.25, 0.25, 0.25, 0.25, 0.0], atol=0)


def test_builtin_closed_forms():
    eps = 0.3
    np.testing.assert_allclose(
        BUILTINS["primary"].eval(eps),
        [eps**2, (1 - eps) * eps, eps * (1 - eps), (1 - eps) ** 2, 0.0],
    )
    np.testing.assert_allclose(BUILTINS["xor-only"].eval(eps), [eps, 0, 0, 1 - eps, 0])
    np.testing.assert_allclose(BUILTINS["full-reveal"].eval(eps), [eps, 0, 0, 0, 1 - eps])


def test_simplex_invariant_on_grid():
    for fam in BUILTINS.values():
        for eps in np.linspace(0.0, 1.0, 1001):
            p = fam.eval(float(eps))
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p >= 0)


def test_primary_p5_is_zero_everywhere():
    for eps in np.linspace(0.0, 1.0, 101):
        assert BUILTINS["primary"].eval(float(eps))[4] == 0.0


def test_eval_rejects_eps_out_of_range():
    with pytest.raises(ChannelError):
        BUILTINS["primary"].eval(-0.1)
    with pytest.raises(ChannelError):
        BUILTINS["primary"].eval(1.1)


def test_puncture_examples():
    np.testing.assert_allclose(
        puncture([0.25, 0.25, 0.25, 0.25, 0], 0.2),
        [0.4, 0.2, 0.2, 0.2, 0.0],
    )
    p = np.array([0.1, 0.2, 0.3, 0.4, 0.0])
    np.testing.assert_allclose(puncture(p, 0.0), p)
    np.testing.assert_allclose(puncture([0, 0, 0, 1, 0], 0.5), [0.5, 0, 0, 0.5, 0])


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=5).filter(
        lambda xs: sum(xs) > 1e-6
    ),
    st.floats(min_value=0.0, max_value=0.99),
)
def test_puncture_preserves_simplex_and_is_affine(raw, p_pi):
    p = np.array(raw) / sum(raw)
    q = puncture(p, p_pi)
    assert abs(q.sum() - 1.0) <= 1e-9
    assert np.all(q >= -1e-15)
    # affine in p_pi: midpoint of endpoints equals puncture at midpoint
    q0 = puncture(p, 0.0)
    mid = puncture(p, p_pi / 2)
    np.testing.assert_allclose((q0 + q) / 2, mid, atol=1e-12)


def test_family_eval_punctures_only_at_nonzero_p_pi(monkeypatch):
    # at p_pi = 0 the family's distribution is returned as it is, with no
    # validation; otherwise it is `puncture`'s, validated once
    from twemac_jcf import channel

    fam = BUILTINS["primary"]
    punctured = puncture(fam.eval(0.3), 0.2)
    calls = []
    monkeypatch.setattr(channel, "validate_dist", lambda p: calls.append(p) or validate_dist(p))
    assert replace(fam, p_pi=0.0).eval(0.3).tobytes() == fam.eval(0.3).tobytes()
    assert not calls
    assert replace(fam, p_pi=0.2).eval(0.3).tobytes() == punctured.tobytes()
    assert len(calls) == 1


@pytest.mark.parametrize("p_pi", [1.0, -0.1, float("nan")])
def test_family_rejects_p_pi_out_of_range(p_pi):
    with pytest.raises(ChannelError, match=r"p_pi must be in \[0, 1\)"):
        ChannelFamily("primary", "primary", p_pi=p_pi)
    with pytest.raises(ChannelError, match=r"p_pi must be in \[0, 1\)"):
        replace(BUILTINS["xor-only"], p_pi=p_pi)


def test_punctured_builtin_leaves_the_builtin_unpunctured():
    # replace builds a new family; the shared built-in stays as it was
    fam = replace(BUILTINS["primary"], p_pi=0.2)
    assert fam.eval(0.3).tobytes() == puncture(BUILTINS["primary"].eval(0.3), 0.2).tobytes()
    assert BUILTINS["primary"].p_pi == get_family("primary").p_pi == 0.0
    unpunctured = ChannelFamily("primary", "primary").eval(0.3)
    assert BUILTINS["primary"].eval(0.3).tobytes() == unpunctured.tobytes()


def test_puncture_spec_validation():
    p = [0.25, 0.25, 0.25, 0.25, 0]
    with pytest.raises(ChannelError):
        puncture(p, 1.0)
    with pytest.raises(ChannelError):
        puncture(p, -0.1)


def test_sample_state_point_masses():
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(sample_states([0, 0, 0, 1, 0], 1, rng), [4])
    np.testing.assert_array_equal(sample_states([1, 0, 0, 0, 0], 1, rng), [1])


def test_sample_state_law_of_large_numbers():
    rng = np.random.default_rng(12345)
    draws = sample_states([0.25, 0.25, 0.25, 0.25, 0.0], 10**6, rng)
    freqs = np.bincount(draws, minlength=6)[1:] / 10**6
    np.testing.assert_allclose(freqs[:4], 0.25, atol=0.005)
    assert freqs[4] == 0.0


def test_sample_determinism_per_seed():
    a = sample_states([0.2, 0.2, 0.2, 0.2, 0.2], 100, np.random.default_rng(9))
    b = sample_states([0.2, 0.2, 0.2, 0.2, 0.2], 100, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_sample_states_builtins_draw_as_before():
    # the states a seed draws on the built-in channels, as p / p.sum() drew them
    for family in BUILTINS.values():
        for eps in (0.0, 0.3, 0.5, 1.0):
            p = family.eval(eps)
            got = sample_states(p, 1000, np.random.default_rng(11))
            want = np.random.default_rng(11).choice(5, size=1000, p=p / p.sum()) + 1
            np.testing.assert_array_equal(got, want)


def test_sample_states_within_tolerance_below_zero():
    # validate_dist accepts entries down to -1e-9; they draw as 0
    p = [0.5 + 1e-12, -1e-12, 0.0, 0.5, 0.0]
    draws = sample_states(p, 1000, np.random.default_rng(3))
    assert set(np.unique(draws)) == {1, 4}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_dist_rejects_non_finite(bad):
    with pytest.raises(ChannelError, match="not finite"):
        validate_dist([bad, 0, 0, 0, 1])
    with pytest.raises(ChannelError, match="not finite"):
        ChannelFamily("t", "fixed-table", table=(0.5, 0.5, 0, 0, bad))


def test_validate_dist_rejects_bad_vectors():
    with pytest.raises(ChannelError):
        validate_dist([0.5, 0.5, 0.5, 0, 0])
    with pytest.raises(ChannelError):
        validate_dist([1, 0, 0, 0])
    with pytest.raises(ChannelError):
        validate_dist([-0.1, 0.6, 0.5, 0, 0])


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "channels.ini"
    cfg.write_text(
        "[mirror-primary]\n"
        "kind = custom-polynomial\n"
        "p1 = 0 0 1\n"
        "p2 = 0 1 -1\n"
        "p3 = 0 1 -1\n"
        "p4 = 1 -2 1\n"
        "p5 = 0\n"
        "\n"
        "[const]\n"
        "kind = fixed-table\n"
        "table = 0.1 0.2 0.2 0.5 0\n"
    )
    fams = parse_channel_config(str(cfg))
    prim = BUILTINS["primary"]
    for eps in np.linspace(0, 1, 21):
        np.testing.assert_allclose(
            fams["mirror-primary"].eval(float(eps)), prim.eval(float(eps)), atol=1e-12
        )
    # fixed-table ignores eps
    np.testing.assert_allclose(fams["const"].eval(0.1), fams["const"].eval(0.9))
    assert get_family("const", str(cfg)).kind == "fixed-table"


def test_config_rejects_invalid_family(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[broken]\nkind = fixed-table\ntable = 0.5 0.5 0.5 0 0\n")
    with pytest.raises(ChannelError):
        parse_channel_config(str(bad))
    off = tmp_path / "off.ini"
    off.write_text("[poly]\nkind = custom-polynomial\np1 = 1 1\np4 = 0\n")
    with pytest.raises(ChannelError):
        parse_channel_config(str(off))


def test_get_family_unknown_name():
    with pytest.raises(ChannelError):
        get_family("no-such-family")


def test_validate_family_builtin_grid():
    for fam in BUILTINS.values():
        validate_family(fam)
        # the built-ins lie on the simplex to roundoff, well within its 1e-9
        for eps in np.linspace(0.0, 1.0, 101):
            p = fam.eval(float(eps))
            assert p.min() >= -1e-12 and p.max() <= 1.0 + 1e-12
            assert abs(p.sum() - 1.0) <= 1e-12

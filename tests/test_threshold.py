"""Threshold bisection, monotonicity guard, and puncturing sweeps."""

import numpy as np
import pytest

from twemac_jcf.channel import BUILTINS, ChannelFamily
from twemac_jcf import threshold
from twemac_jcf.de_coupled import Caps, Ensemble
from twemac_jcf.threshold import find_threshold, is_decodable, sweep

from oracles import scalar_bec_threshold, scalar_coupled_threshold


def test_is_decodable_examples():
    sys_ = Ensemble(3, 6)
    xor = BUILTINS["xor-only"]
    assert is_decodable(sys_, xor, 0.40).decodable
    assert not is_decodable(sys_, xor, 0.44).decodable
    meta = is_decodable(sys_, xor, 0.44)
    assert meta.status == "stall"
    assert 0.0 <= meta.min_p_dec < 1.0


def test_is_decodable_with_puncturing_harder():
    sys_ = Ensemble(3, 6)
    fam = BUILTINS["primary"]
    assert is_decodable(sys_, fam, 0.2, p_pi=0.0).decodable
    # heavy puncturing at the same eps destroys decodability
    assert not is_decodable(sys_, fam, 0.2, p_pi=0.5).decodable


def test_regular_36_xor_threshold_matches_scalar_oracle():
    res = find_threshold(Ensemble(3, 6), BUILTINS["xor-only"], caps=Caps(tol=1e-4))
    oracle = scalar_bec_threshold(3, 6, tol=1e-5)
    assert res.eps_thresh == pytest.approx(oracle, abs=5e-4)
    assert res.eps_thresh == pytest.approx(0.4294, abs=5e-4)


def test_bracket_invariant():
    res = find_threshold(Ensemble(3, 6), BUILTINS["primary"], caps=Caps(tol=1e-3))
    assert res.eps_lo <= res.eps_thresh <= res.eps_hi
    assert res.eps_hi - res.eps_lo <= 2 * res.tol + 1e-15
    lo_metas = [m for m in res.evals if m.eps == res.eps_lo]
    hi_metas = [m for m in res.evals if m.eps == res.eps_hi]
    assert lo_metas and lo_metas[-1].decodable
    assert hi_metas and not hi_metas[-1].decodable


def test_coupled_36_xor_threshold():
    sys_ = Ensemble(3, 6, 100, 5)
    res = find_threshold(sys_, BUILTINS["xor-only"], caps=Caps(tol=1e-3))
    oracle = scalar_coupled_threshold(3, 6, 100, 5, tol=1e-3)
    assert res.eps_thresh == pytest.approx(oracle, abs=2e-3)


def test_degenerate_family_threshold_zero():
    never = ChannelFamily(name="never", kind="fixed-table",
                          table=(1.0, 0.0, 0.0, 0.0, 0.0))
    res = find_threshold(Ensemble(3, 6), never)
    assert res.degenerate
    assert res.eps_thresh == 0.0


def test_always_decodable_family_threshold_one():
    always = ChannelFamily(name="always", kind="fixed-table",
                           table=(0.0, 0.0, 0.0, 1.0, 0.0))
    res = find_threshold(Ensemble(3, 6), always)
    assert not res.degenerate
    assert res.eps_thresh == 1.0


def test_verify_scan_rejects_nonmonotone_family():
    # erasure worst at eps = 1/2, fine at both endpoints
    bump = ChannelFamily(
        name="bump",
        kind="custom-polynomial",
        coeffs=((0.0, 4.0, -4.0), (0.0,), (0.0,), (1.0, -4.0, 4.0), (0.0,)),
    )
    with pytest.raises(RuntimeError):
        find_threshold(Ensemble(3, 6), bump, caps=Caps(tol=1e-3), verify_scan=9)
    # monotone families pass the same scan
    res = find_threshold(Ensemble(3, 6), BUILTINS["xor-only"], caps=Caps(tol=1e-3),
                         verify_scan=9)
    assert res.eps_thresh == pytest.approx(0.4294, abs=2e-3)


@pytest.mark.parametrize("points", [0, 1, -3])
def test_verify_scan_needs_two_points(points):
    # no grid, or eps 0 alone, cannot show a non-monotone pattern
    with pytest.raises(ValueError, match="verify_scan"):
        find_threshold(Ensemble(3, 6), BUILTINS["xor-only"], caps=Caps(tol=1e-3),
                       verify_scan=points)


def test_verify_scan_reuses_endpoint_outcomes():
    # the scan grid already holds eps 0 and 1; bisection does not repeat them
    fam = BUILTINS["xor-only"]
    plain = find_threshold(Ensemble(3, 6), fam, caps=Caps(tol=1e-3))
    scanned = find_threshold(Ensemble(3, 6), fam, caps=Caps(tol=1e-3), verify_scan=9)
    assert scanned.eps_thresh == plain.eps_thresh
    assert scanned.evaluations == plain.evaluations + 9 - 2
    assert [m.eps for m in scanned.evals].count(1.0) == 1


def test_sweep_unpunctured_matches_find_threshold():
    systems = [Ensemble(3, 6)]
    fam = BUILTINS["primary"]
    rows = sweep(systems, fam, puncture_grid=(0.0,), caps=Caps(tol=1e-3))
    direct = find_threshold(Ensemble(3, 6), fam, caps=Caps(tol=1e-3))
    assert len(rows) == 1
    assert rows[0].eps_thresh == direct.eps_thresh
    assert rows[0].nominal_rate == pytest.approx(0.5)
    assert rows[0].rate_pi == pytest.approx(0.5)


def test_sweep_thresholds_decrease_with_puncturing():
    rows = sweep(
        [Ensemble(3, 6)],
        BUILTINS["primary"],
        puncture_grid=(0.0, 0.1, 0.3),
        caps=Caps(tol=1e-3),
    )
    threshs = [r.eps_thresh for r in rows]
    assert threshs[0] > threshs[1] > threshs[2]
    rates = [r.rate_pi for r in rows]
    assert rates == sorted(rates)
    assert rows[1].rate_pi == pytest.approx(0.5 / 0.9)


def test_sweep_deterministic_and_ordered():
    systems = [Ensemble(3, 6), Ensemble(4, 8)]
    a = sweep(systems, BUILTINS["xor-only"], puncture_grid=(0.0, 0.2), caps=Caps(tol=1e-3))
    b = sweep(systems, BUILTINS["xor-only"], puncture_grid=(0.0, 0.2), caps=Caps(tol=1e-3))
    assert [(r.d_v, r.p_pi, r.eps_thresh) for r in a] == [
        (r.d_v, r.p_pi, r.eps_thresh) for r in b
    ]
    assert [(r.d_v, r.d_c, r.p_pi) for r in a] == [
        (3, 6, 0.0), (3, 6, 0.2), (4, 8, 0.0), (4, 8, 0.2)
    ]


def test_sweep_coupled_row_metadata():
    e = Ensemble(3, 6, 10, 3)
    rows = sweep([e], BUILTINS["xor-only"], caps=Caps(tol=5e-3))
    r = rows[0]
    assert (r.d_v, r.d_c, r.L, r.w) == (3, 6, 10, 3)
    assert 0.0 < r.nominal_rate < 0.5


def test_caps_l_max_controls_outcome():
    # a tight iteration cap makes a decodable point look undecodable
    sys_ = Ensemble(3, 6)
    fam = BUILTINS["xor-only"]
    eps = 0.425  # close to threshold, needs many iterations
    assert is_decodable(sys_, fam, eps).decodable
    assert not is_decodable(sys_, fam, eps, caps=Caps(l_max=10)).decodable


def test_cap_limited_marks_a_bracket_set_by_the_cap():
    # in 30 iterations the decoding wave cannot cross a (3,6,10,3) chain
    # near its threshold, so the evaluation that sets eps_hi ends at the
    # cap; without the tight cap it ends in a stall
    e, fam = Ensemble(3, 6, 10, 3), BUILTINS["xor-only"]
    capped = find_threshold(e, fam, caps=Caps(l_max=30, tol=5e-3))
    full = find_threshold(e, fam, caps=Caps(tol=5e-3))
    for res, status in ((capped, "cap"), (full, "stall")):
        hi = [m for m in res.evals if m.eps == res.eps_hi][-1]
        assert hi.status == status
        assert res.cap_limited == (status == "cap")
    assert capped.eps_thresh < full.eps_thresh
    # a bracket that never needed the undecodable end is not cap limited
    always = ChannelFamily(name="always", kind="fixed-table", table=(0.0, 0.0, 0.0, 1.0, 0.0))
    assert not find_threshold(Ensemble(3, 6), always, caps=Caps(l_max=1)).cap_limited


def test_sweep_starts_no_more_workers_than_points(monkeypatch):
    # a pool forks all its workers on the first submit, so --jobs 64 for one
    # threshold would fork 64 processes; a recording fake runs in-process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(threshold, "ProcessPoolExecutor", RecordingPool)
    fam, caps = BUILTINS["xor-only"], Caps(tol=1e-2)
    one = sweep([Ensemble(3, 6)], fam, caps=caps, jobs=64)
    assert sizes == []
    systems, grid = [Ensemble(3, 6), Ensemble(4, 8)], (0.0, 0.2)
    four = sweep(systems, fam, grid, caps=caps, jobs=64)
    assert sizes == [4]
    assert sweep(systems, fam, grid, caps=caps, jobs=3) == four
    assert sizes == [4, 3]
    assert sweep(systems, fam, grid, caps=caps, jobs=1) == four
    assert sizes == [4, 3]
    assert one == four[:1]

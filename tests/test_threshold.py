"""Threshold bisection, monotonicity guard, and puncturing sweeps."""

import concurrent.futures
import traceback
from dataclasses import replace

import numpy as np
import pytest

from twemac_jcf.channel import BUILTINS, ChannelError, ChannelFamily
from twemac_jcf import threshold
from twemac_jcf.de_core import SimplexError
from twemac_jcf.de_coupled import Caps, Ensemble, de_batch
from twemac_jcf.threshold import (
    MonotonicityError,
    ThresholdResult,
    find_threshold,
    sweep,
)

from oracles import scalar_bec_threshold, scalar_coupled_threshold


def evolve(e, family, eps, caps=Caps()):
    """The outcome of one evolution of family's channel at eps."""
    (res,) = de_batch(e, [family.eval(eps)], caps)
    return res


def test_is_decodable_examples():
    sys_ = Ensemble(3, 6)
    xor = BUILTINS["xor-only"]
    assert evolve(sys_, xor, 0.40).decodable
    assert not evolve(sys_, xor, 0.44).decodable
    res = evolve(sys_, xor, 0.44)
    assert res.converged == "stall"
    assert 0.0 <= res.min_p_dec < 1.0


def test_is_decodable_with_puncturing_harder():
    sys_ = Ensemble(3, 6)
    fam = BUILTINS["primary"]
    assert evolve(sys_, replace(fam, p_pi=0.0), 0.2).decodable
    # heavy puncturing at the same eps destroys decodability
    assert not evolve(sys_, replace(fam, p_pi=0.5), 0.2).decodable


def test_regular_36_xor_threshold_matches_scalar_oracle():
    res = find_threshold(Ensemble(3, 6), BUILTINS["xor-only"], caps=Caps(tol=1e-4))
    oracle = scalar_bec_threshold(3, 6, tol=1e-5)
    assert res.eps_thresh == pytest.approx(oracle, abs=5e-4)
    assert res.eps_thresh == pytest.approx(0.4294, abs=5e-4)


def test_bracket_invariant():
    res = find_threshold(Ensemble(3, 6), BUILTINS["primary"], caps=Caps(tol=1e-3))
    assert res.eps_lo <= res.eps_thresh <= res.eps_hi
    assert res.eps_hi - res.eps_lo <= 2 * res.tol + 1e-15
    lo_outcomes = [out for eps, out in res.evals if eps == res.eps_lo]
    hi_outcomes = [out for eps, out in res.evals if eps == res.eps_hi]
    assert lo_outcomes and lo_outcomes[-1].decodable
    assert hi_outcomes and not hi_outcomes[-1].decodable


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
    assert len(scanned.evals) == len(plain.evals) + 9 - 2
    assert [eps for eps, _ in scanned.evals].count(1.0) == 1


def test_sweep_unpunctured_matches_find_threshold():
    systems = [Ensemble(3, 6)]
    fam = BUILTINS["primary"]
    results = sweep([(e, fam) for e in systems], caps=Caps(tol=1e-3))
    direct = find_threshold(Ensemble(3, 6), fam, caps=Caps(tol=1e-3))
    assert len(results) == 1
    assert results[0].eps_thresh == direct.eps_thresh
    assert results == [direct]


def test_sweep_thresholds_decrease_with_puncturing():
    # the punctured rates of these points are checked on figure6's rows
    # (tests/test_cli.py::test_figure6_rows_carry_ensemble_and_punctured_rate)
    results = sweep(
        [(Ensemble(3, 6), replace(BUILTINS["primary"], p_pi=p_pi)) for p_pi in (0.0, 0.1, 0.3)],
        caps=Caps(tol=1e-3),
    )
    threshs = [r.eps_thresh for r in results]
    assert threshs[0] > threshs[1] > threshs[2]


def test_sweep_deterministic_and_ordered():
    systems, grid, caps = [Ensemble(3, 6), Ensemble(4, 8)], (0.0, 0.2), Caps(tol=1e-3)
    pairs = [(e, replace(BUILTINS["xor-only"], p_pi=p_pi)) for e in systems for p_pi in grid]
    a = sweep(pairs, caps=caps)
    b = sweep(pairs, caps=caps)
    assert a == b
    # in input order: (3,6) at 0 and 0.2, then (4,8) at 0 and 0.2
    assert a == [find_threshold(e, f, caps) for e, f in pairs]
    assert a[0].eps_thresh > a[1].eps_thresh and a[2].eps_thresh > a[3].eps_thresh


def test_sweep_coupled_row_metadata():
    # each pair is bisected under the defaults of its own ensemble: tol 1e-4
    # on the regular ensemble, 1e-3 on a chain; the ensemble and rates of a
    # row are checked on figure6's rows
    # (tests/test_cli.py::test_figure6_rows_carry_ensemble_and_punctured_rate)
    e = Ensemble(3, 6, 10, 3)
    results = sweep([(Ensemble(3, 6), BUILTINS["xor-only"]), (e, BUILTINS["xor-only"])])
    assert [r.tol for r in results] == [1e-4, 1e-3]
    assert results[1] == find_threshold(e, BUILTINS["xor-only"])


def test_caps_l_max_controls_outcome():
    # a tight iteration cap makes a decodable point look undecodable
    sys_ = Ensemble(3, 6)
    fam = BUILTINS["xor-only"]
    eps = 0.425  # close to threshold, needs many iterations
    assert evolve(sys_, fam, eps).decodable
    assert not evolve(sys_, fam, eps, caps=Caps(l_max=10)).decodable


def test_cap_limited_marks_a_bracket_set_by_the_cap():
    # in 30 iterations the decoding wave cannot cross a (3,6,10,3) chain
    # near its threshold, so the evaluation that sets eps_hi ends at the
    # cap; without the tight cap it ends in a stall
    e, fam = Ensemble(3, 6, 10, 3), BUILTINS["xor-only"]
    capped = find_threshold(e, fam, caps=Caps(l_max=30, tol=5e-3))
    full = find_threshold(e, fam, caps=Caps(tol=5e-3))
    for res, status in ((capped, "cap"), (full, "stall")):
        hi = [out for eps, out in res.evals if eps == res.eps_hi][-1]
        assert hi.converged == status
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

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    fam, caps = BUILTINS["xor-only"], Caps(tol=1e-2)
    one = sweep([(Ensemble(3, 6), fam)], caps=caps, jobs=64)
    assert sizes == []
    pairs = [(e, replace(fam, p_pi=p_pi)) for e in (Ensemble(3, 6), Ensemble(4, 8))
             for p_pi in (0.0, 0.2)]
    four = sweep(pairs, caps=caps, jobs=64)
    assert sizes == [4]
    assert sweep(pairs, caps=caps, jobs=3) == four
    assert sizes == [4, 3]
    assert sweep(pairs, caps=caps, jobs=1) == four
    assert sizes == [4, 3]
    assert one == four[:1]


XOR = BUILTINS["xor-only"]
ALWAYS = ChannelFamily(name="always", kind="fixed-table", table=(0.0, 0.0, 0.0, 1.0, 0.0))
NEVER = ChannelFamily(name="never", kind="fixed-table", table=(1.0, 0.0, 0.0, 0.0, 0.0))
PUNCTURED = replace(BUILTINS["primary"], p_pi=0.2)


def plain_bisection(e, family, caps=Caps(), verify_scan=None):
    """The bisection one evolution, a batch of one, at a time, in the order
    it needs them."""
    caps = caps.for_ensemble(e)
    evals = []

    def check(eps):
        (res,) = de_batch(e, [family.eval(eps)], caps)
        evals.append((eps, res))
        return res

    ends = {}
    if verify_scan is not None:
        outcomes = [check(float(x)) for x in np.linspace(0.0, 1.0, verify_scan)]
        decodable = [res.decodable for res in outcomes]
        if decodable != sorted(decodable, reverse=True):
            raise MonotonicityError("not monotone")
        ends = {0.0: outcomes[0], 1.0: outcomes[-1]}

    def result(lo, hi, hi_res, degenerate=False):
        return ThresholdResult(0.5 * (lo + hi), lo, hi, caps.tol, evals, degenerate,
                               hi_res.converged == "cap")

    at_zero = ends.get(0.0) or check(0.0)
    if not at_zero.decodable:
        return result(0.0, 0.0, at_zero, degenerate=True)
    hi_res = ends.get(1.0) or check(1.0)
    if hi_res.decodable:
        return result(1.0, 1.0, hi_res)
    lo, hi = 0.0, 1.0
    while hi - lo > 2 * caps.tol:
        mid = 0.5 * (lo + hi)
        res = check(mid)
        if res.decodable:
            lo = mid
        else:
            hi, hi_res = mid, res
    return result(lo, hi, hi_res)


SPECULATIVE_CASES = {  # ensemble, family, caps, keyword arguments
    "(3,6) xor-only 1e-4": (Ensemble(3, 6), XOR, Caps(tol=1e-4), {}),
    "(4,8) primary 1e-3": (Ensemble(4, 8), BUILTINS["primary"], Caps(tol=1e-3), {}),
    "(7,10) full-reveal 1e-4": (Ensemble(7, 10), BUILTINS["full-reveal"], Caps(tol=1e-4), {}),
    "(3,6) primary punctured": (Ensemble(3, 6), PUNCTURED, Caps(tol=1e-4), {}),
    "(3,6) xor-only scan 9": (Ensemble(3, 6), XOR, Caps(tol=1e-3), {"verify_scan": 9}),
    "(4,8) full-reveal scan 4": (Ensemble(4, 8), BUILTINS["full-reveal"], Caps(tol=1e-4),
                                 {"verify_scan": 4}),
    "always decodable": (Ensemble(3, 6), ALWAYS, Caps(), {}),
    "never decodable": (Ensemble(3, 6), NEVER, Caps(), {}),
    "(3,6) xor-only l_max 30": (Ensemble(3, 6), XOR, Caps(l_max=30, tol=1e-4), {}),
    "(3,6,10,3) xor-only": (Ensemble(3, 6, 10, 3), XOR, Caps(tol=5e-3), {}),
    "(3,6,10,3) primary punctured": (Ensemble(3, 6, 10, 3), PUNCTURED, Caps(), {}),
    "(3,6,10,3) xor-only l_max 30": (Ensemble(3, 6, 10, 3), XOR, Caps(l_max=30, tol=5e-3), {}),
    "(3,6,10,3) xor-only scan 9": (Ensemble(3, 6, 10, 3), XOR, Caps(), {"verify_scan": 9}),
    "(3,6,20,3) full-reveal": (Ensemble(3, 6, 20, 3), BUILTINS["full-reveal"], Caps(), {}),
}


@pytest.mark.parametrize("case", list(SPECULATIVE_CASES))
def test_speculative_bisection_equals_plain_bisection(case):
    e, family, caps, kwargs = SPECULATIVE_CASES[case]
    got = find_threshold(e, family, caps, **kwargs)
    assert got == plain_bisection(e, family, caps, **kwargs)
    if "l_max" in case:
        assert got.cap_limited


def record_evolutions(monkeypatch):
    """Sizes of the batches that find_threshold evaluates ahead, and the
    channels it evaluates alone, one point of a batch that raised at a
    time: those calls are the ones made from its line that evolves the
    batch [family.eval(eps)]."""
    sizes, singles = [], []
    de_batch = threshold.de_batch

    def spy(e, pchs, caps):
        if "[family.eval(eps)]" in traceback.extract_stack(limit=2)[0].line:
            singles.append(pchs[0])
        else:
            sizes.append(len(pchs))
        return de_batch(e, pchs, caps)

    monkeypatch.setattr(threshold, "de_batch", spy)
    return sizes, singles


def test_regular_bisection_evaluates_levels_in_batches(monkeypatch):
    d = threshold.SPECULATIVE_DEPTH
    sizes, singles = record_evolutions(monkeypatch)
    # 13 levels at tol 1e-4: eps 0 and 1 with the first d levels, then the rest
    res = find_threshold(Ensemble(3, 6), XOR, Caps(tol=1e-4))
    assert (sizes, len(singles), len(res.evals)) == ([2 + 2**d - 1, 2 ** (13 - d) - 1], 0,
                                                     2 + 13)
    # 9 levels at tol 1e-3: the scan grid in one batch, whose eighths are
    # the first 3 levels, then the 6 levels left
    sizes.clear()
    find_threshold(Ensemble(3, 6), XOR, Caps(tol=1e-3), verify_scan=9)
    assert (sizes, len(singles)) == ([9, 2 ** (9 - 3) - 1], 0)


def test_chain_bisection_evaluates_levels_in_batches(monkeypatch):
    d = threshold.CHAIN_SPECULATIVE_DEPTH
    sizes, singles = record_evolutions(monkeypatch)
    # 9 levels at tol 1e-3: eps 0 and 1 with the first d levels, then d at a time
    res = find_threshold(Ensemble(3, 6, 10, 3), XOR, Caps())
    assert (sizes, len(singles), len(res.evals)) == ([2 + 2**d - 1] + [2**d - 1] * (9 // d - 1),
                                                     0, 2 + 9)
    # 7 levels at tol 5e-3: the last batch holds the one level left
    sizes.clear()
    find_threshold(Ensemble(3, 6, 10, 3), XOR, Caps(tol=5e-3))
    assert (sizes, len(singles)) == ([2 + 2**d - 1, 2**d - 1, 2 ** (7 - 2 * d) - 1], 0)
    # 9 levels at tol 1e-3: the scan grid holds the first 3, then d at a time
    sizes.clear()
    find_threshold(Ensemble(3, 6, 10, 3), XOR, Caps(), verify_scan=9)
    assert (sizes, len(singles)) == ([9] + [2**d - 1] * ((9 - 3) // d), 0)
    # on full-reveal decoded rows saturate to type 5, and the chains stay in
    # their batches all the same
    sizes.clear()
    res = find_threshold(Ensemble(3, 6, 20, 3), BUILTINS["full-reveal"], Caps())
    assert (sizes, len(singles), len(res.evals)) == ([2 + 2**d - 1] + [2**d - 1] * (9 // d - 1),
                                                     0, 2 + 9)


class FailsAt:
    """xor-only, except at the eps in bad: there eval raises ChannelError,
    or returns a distribution that passes validation but on which the
    evolution raises SimplexError (its first variable update leaves type 4
    at -1.00000008e-9, below `check_simplex`'s -1e-9)."""

    def __init__(self, bad, error):
        self.bad, self.error = set(bad), error

    def eval(self, eps):
        if eps not in self.bad:
            return XOR.eval(eps)
        if self.error is ChannelError:
            raise ChannelError(f"no channel at eps {eps}")
        return np.array([1.0 + 1e-9, 0.0, 0.0, -1e-9, 0.0])


@pytest.mark.parametrize("error, e, scan", [
    pytest.param(error, e, None, id=error.__name__ + suffix)
    for suffix, e in (("", Ensemble(3, 6)), ("-chain", Ensemble(3, 6, 10, 3)))
    for error in (ChannelError, SimplexError)
] + [pytest.param(error, Ensemble(3, 6), 5, id=error.__name__ + "-scan")
     for error in (ChannelError, SimplexError)])
def test_off_path_failures_do_not_surface(error, e, scan, monkeypatch):
    caps = Caps(tol=1e-3)
    plain = plain_bisection(e, XOR, caps, verify_scan=scan)
    # in the first walk batch, never on the bisection path nor on the grid
    # (0, 0.25, ..., 1); the walk reads the grid's 0.5 and 0.25 from the
    # scan, so its first batch lies below [0.25, 0.5]
    off = {0.125, 0.75} if scan is None else {0.3125, 0.46875}
    assert not off & {eps for eps, _ in plain.evals}
    sizes, singles = record_evolutions(monkeypatch)
    assert find_threshold(e, FailsAt(off, error), caps, verify_scan=scan) == plain
    # the first walk batch raised (in de_batch for SimplexError, while
    # building its channels for ChannelError), so its levels ran one point
    # at a time, with eps 0 and 1 unless the grid held them; the levels after
    # it ran in batches again.  The grid holds the first g of the 9 levels,
    # and a batch holds up to d.
    d = threshold.CHAIN_SPECULATIVE_DEPTH if e.coupled else threshold.SPECULATIVE_DEPTH
    g = 0 if scan is None else 2
    ends = 2 * (scan is None)
    first = min(d, 9 - g)
    later = [2 ** min(d, 9 - k) - 1 for k in range(g + d, 9, d)]
    grid = [] if scan is None else [scan]
    assert (sizes, len(singles)) == (
        grid + [ends + 2**first - 1] * (error is SimplexError) + later, ends + first)
    # on the path, and on the grid, the error surfaces as it does in the
    # plain bisection
    for bad in [0.375] + [0.75] * (scan is not None):
        on = FailsAt({bad}, error)
        with pytest.raises(error):
            plain_bisection(e, on, caps, verify_scan=scan)
        with pytest.raises(error):
            find_threshold(e, on, caps, verify_scan=scan)

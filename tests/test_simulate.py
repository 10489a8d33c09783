"""Graph sampling, peel decoding against the exhaustive reference decoder
of the oracles, and Monte Carlo failure rates."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from twemac_jcf.channel import BUILTINS, sample_states
from twemac_jcf.de_coupled import Caps, Ensemble, de_batch
from twemac_jcf.simulate import (
    EtgInstance,
    _masks,
    failure_rate,
    peel_decode,
    sample_coupled_graph,
    wilson_interval,
)

from oracles import (
    brute_force_jcf,
    enumerate_codewords,
    flooding_peel,
    gf2_nullspace,
    is_cycle_free,
    naive_peel,
    parity_matrix,
    tanner_edges,
)

# single parity check over 3 bits plus a repetition constraint
H_SMALL = np.array([[1, 1, 1, 0], [0, 0, 1, 1]])


def test_regular_sampling_degrees_and_determinism():
    g = sample_coupled_graph(Ensemble(3, 6), 60, np.random.default_rng(5))
    assert g.n_vars == 60
    assert g.n_checks == 30
    assert np.all(np.bincount(g.echeck, minlength=30) == 6)
    assert np.all(np.bincount(g.evar, minlength=60) == 3)
    # check-major socket order
    np.testing.assert_array_equal(g.echeck, np.repeat(np.arange(30), 6))
    h = sample_coupled_graph(Ensemble(3, 6), 60, np.random.default_rng(5))
    np.testing.assert_array_equal(g.evar, h.evar)
    np.testing.assert_array_equal(g.echeck, h.echeck)


def test_regular_sample_is_the_configuration_model():
    # one shuffle of the sockets, listed check-major, and no further draw:
    # the graph streams of regular simulations depend on it
    for d_v, d_c, n in [(3, 6, 60), (4, 8, 1000), (2, 4, 8), (5, 10, 2)]:
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        g = sample_coupled_graph(Ensemble(d_v, d_c), n, rng)
        np.testing.assert_array_equal(g.evar, ref.permutation(np.repeat(np.arange(n), d_v)))
        np.testing.assert_array_equal(g.echeck, np.repeat(np.arange(n * d_v // d_c), d_c))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_regular_sampling_divisibility():
    with pytest.raises(ValueError, match=r"size\*d_v = 21 is not divisible by d_c = 6"):
        sample_coupled_graph(Ensemble(3, 6), 7, np.random.default_rng(0))


def test_coupled_sampling_shapes_and_degrees():
    e = Ensemble(3, 6, 4, 2)
    m = 8
    g = sample_coupled_graph(e, m, np.random.default_rng(3))
    assert g.n_vars == (2 * e.L + 1) * m
    checks_per_pos = m * e.d_v // e.d_c
    assert g.n_checks == e.n_chk_positions * checks_per_pos
    assert np.all(np.diff(g.echeck) >= 0)
    assert np.all(np.bincount(g.evar, minlength=g.n_vars) == e.d_v)
    var_pos = g.evar // m - e.L
    chk_pos = np.arange(g.n_checks) // checks_per_pos - e.L
    # missing (boundary) sockets only at boundary check positions
    missing = e.d_c - np.bincount(g.echeck, minlength=g.n_checks)
    assert np.all(missing >= 0)
    q = chk_pos + e.L
    assert np.all(missing[(e.w - 1 <= q) & (q <= 2 * e.L)] == 0)
    # w(w-1) boundary chunks of M*d_v/w sockets each
    assert missing.sum() == (e.w - 1) * m * e.d_v
    # each check connects only to variables within its window
    assert np.all(chk_pos[g.echeck] - e.w + 1 <= var_pos)
    assert np.all(var_pos <= chk_pos[g.echeck])


def test_coupled_sampling_w1_is_block_diagonal():
    e = Ensemble(3, 6, 1, 1)
    m = 6
    g = sample_coupled_graph(e, m, np.random.default_rng(11))
    assert g.evar.size == g.n_checks * e.d_c
    checks_per_pos = m * e.d_v // e.d_c
    np.testing.assert_array_equal(g.evar // m, g.echeck // checks_per_pos)


def test_coupled_sampling_divisibility():
    e = Ensemble(3, 6, 2, 4)
    with pytest.raises(ValueError):
        sample_coupled_graph(e, 5, np.random.default_rng(0))  # w does not divide M*d_v
    with pytest.raises(ValueError):
        sample_coupled_graph(Ensemble(3, 7, 2, 3), 5, np.random.default_rng(0))


# sha256 of evar and echeck as little-endian int64, first 16 hex digits, for
# seeds 0, 1, 2, frozen from the sampler that shuffled repeated variable ids:
# shuffling socket ids v*d_v + j must draw the same graphs
PINNED_SAMPLES = {
    (Ensemble(3, 6), 60): [
        ("151360cd8546baf1", "88699f912ac0b3b2"),
        ("35de12a52a759b7b", "88699f912ac0b3b2"),
        ("519cd9c00e4ba793", "88699f912ac0b3b2"),
    ],
    (Ensemble(3, 6, 2, 2), 4): [
        ("53358af7f4ad7ca1", "3dd22e5caeb5674f"),
        ("7bc3ade41e3cb6cf", "f5fdce884be03456"),
        ("99f47ec7bbf4c8ef", "9b1c535b962a70e3"),
    ],
}


@pytest.mark.parametrize("e, m", list(PINNED_SAMPLES))
def test_sampled_edges_are_pinned(e, m):
    # simulate's graph streams depend on what the sampler draws; its
    # variable table must list each variable's d_v edges, variable by variable
    for seed, digests in enumerate(PINNED_SAMPLES[e, m]):
        g = sample_coupled_graph(e, m, np.random.default_rng(seed))
        assert g.evar.dtype == g.echeck.dtype == np.int64
        got = tuple(hashlib.sha256(a.astype("<i8").tobytes()).hexdigest()[:16]
                    for a in (g.evar, g.echeck))
        assert got == digests
        np.testing.assert_array_equal(np.sort(g.var_edges), np.arange(g.evar.size))
        np.testing.assert_array_equal(g.evar[g.var_edges], np.repeat(np.arange(g.n_vars), e.d_v))


def test_hand_built_variable_table_groups_edges_by_variable():
    evar = np.array([2, 0, 2, 1, 0])
    g = EtgInstance(3, 2, evar, np.array([0, 0, 1, 1, 1]))
    np.testing.assert_array_equal(g.var_edges, [1, 4, 3, 0, 2])


def test_hand_built_graph_is_checked_at_construction():
    # a graph owns its node->edge offsets; a malformed edge list is rejected
    # when it is built, not deep inside the peeler
    g = EtgInstance(3, 2, [2, 0, 2, 1, 0], [0, 0, 1, 1, 1])
    np.testing.assert_array_equal(g.cptr, [0, 2, 5])
    np.testing.assert_array_equal(g.vptr, [0, 2, 3, 5])
    for args, problem in (((2, 1, [0, 5], [0, 0]), r"evar must lie in 0\.\.1"),
                          ((2, 1, [0, -1], [0, 0]), r"evar must lie in 0\.\.1"),
                          ((2, 1, [0, 1], [0, 1]), r"echeck must lie in 0\.\.0"),
                          ((2, 1, [0, 1], [0]), "shape"),
                          ((2, 2, [0, 1], [1, 0]), "non-decreasing")):
        with pytest.raises(ValueError, match=problem):
            EtgInstance(*args)


def test_hand_built_graph_from_empty_lists_has_no_edges():
    # numpy reads [] as float64; no id means no edge, and the peel keeps
    # every variable's channel type
    g = EtgInstance(2, 3, [], [])
    assert g.evar.dtype == g.echeck.dtype == np.int64
    np.testing.assert_array_equal(g.cptr, [0, 0, 0, 0])
    np.testing.assert_array_equal(g.vptr, [0, 0, 0])
    assert list(peel_decode(g, np.array([2, 4]))) == [2, 4]


@pytest.mark.parametrize("evar, echeck, name", [
    ([0.0], [0.0], "evar"), ([0, 1], [0.0, 0.0], "echeck"), ([True], [0], "evar")])
def test_hand_built_graph_rejects_non_integer_ids(evar, echeck, name):
    with pytest.raises(ValueError, match=f"{name} must hold integer node ids"):
        EtgInstance(2, 3, evar, echeck)


def test_hand_built_graph_rejects_a_nested_edge_list():
    # the peeler reads one flat edge list; numpy would reject a nested one
    # only inside np.bincount
    with pytest.raises(ValueError, match=r"evar has shape \(1, 2\), expected \(2,\)"):
        EtgInstance(2, 1, [[0, 1]], [[0, 0]])


BAD_VAR_EDGES = {  # edges, variable table, the problem named
    "reversed": ((2, 2, [0, 1, 1], [0, 0, 1]), [2, 1, 0], "must list each edge once, grouped by"),
    "repeated": ((2, 2, [0, 1, 1], [0, 0, 1]), [1, 1, 2], "must list each edge once"),
    "twice": ((2, 1, [0, 1], [0, 0]), [1, 1], "must list each edge once"),
    "short": ((2, 1, [0, 1], [0, 0]), [0], r"has shape \(1,\), expected \(2,\)"),
    "outside": ((2, 1, [0, 1], [0, 0]), [5, 0], r"must lie in 0\.\.1"),
    "negative": ((2, 1, [0, 1], [0, 0]), [-1, 0], r"must lie in 0\.\.1"),
    "float": ((2, 1, [0, 1], [0, 0]), [0.0, 1.0], "must hold integer edge ids"),
}


@pytest.mark.parametrize("args, var_edges, problem", list(BAD_VAR_EDGES.values()),
                         ids=list(BAD_VAR_EDGES))
@pytest.mark.parametrize("kind", [list, np.array])
def test_hand_built_variable_table_is_checked(args, var_edges, problem, kind):
    # a variable table that is not the edge ids grouped by variable would
    # mis-group edges in the peeler, or fail deep inside it
    with pytest.raises(ValueError, match=f"var_edges {problem}"):
        EtgInstance(*args, var_edges=kind(var_edges))


def test_hand_given_variable_table_is_an_array():
    # any order of a variable's own edges groups them; a list is stored as
    # an array
    g = EtgInstance(2, 2, [0, 1, 1], [0, 0, 1], var_edges=[0, 2, 1])
    np.testing.assert_array_equal(g.var_edges, [0, 2, 1])
    types, sorted_table = np.array([5, 1]), EtgInstance(2, 2, [0, 1, 1], [0, 0, 1])
    assert list(peel_decode(g, types)) == list(peel_decode(sorted_table, types)) == [5, 5]
    assert EtgInstance(2, 3, [], [], var_edges=[]).var_edges.dtype == np.int64


@pytest.mark.parametrize("n_vars, n_checks", [(-1, 1), (2, -1)])
def test_negative_node_counts_are_rejected(n_vars, n_checks):
    with pytest.raises(ValueError, match="n_vars, n_checks must be >= 0"):
        EtgInstance(n_vars, n_checks, [], [])


@pytest.mark.parametrize("e, m", [(Ensemble(3, 6), 600), (Ensemble(3, 6, 6, 3), 40)])
def test_peel_same_types_for_any_edge_order(e, m):
    # the same graph with the edges of each check shuffled, built by hand so
    # that its variable table comes from an argsort, decodes to the sampled
    # instance's types; an edge list that is not check-major is rejected
    rng = np.random.default_rng(8)
    for eps in (0.3, 0.42, 0.46, 0.55):
        g = sample_coupled_graph(e, m, rng)
        types = sample_states(BUILTINS["xor-only"].eval(eps), g.n_vars, rng)
        perm = np.lexsort((rng.random(g.evar.size), g.echeck))
        h = EtgInstance(g.n_vars, g.n_checks, g.evar[perm], g.echeck[perm])
        assert np.any(perm != np.arange(perm.size))
        out = peel_decode(g, types)
        np.testing.assert_array_equal(peel_decode(h, types), out)
        np.testing.assert_array_equal(out, _flood(g, types))
        perm = rng.permutation(g.evar.size)
        with pytest.raises(ValueError, match="check-major"):
            EtgInstance(g.n_vars, g.n_checks, g.evar[perm], g.echeck[perm])


def test_peel_sorts_and_counts_nothing(monkeypatch):
    # the graph owns its node->edge tables: peeling builds none of them
    rng = np.random.default_rng(6)
    g = sample_coupled_graph(Ensemble(3, 6, 4, 2), 12, rng)
    types = rng.integers(1, 6, size=g.n_vars)
    want = _flood(g, types)
    for name in ("argsort", "bincount"):
        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"the peeler called np.{_name}")
        monkeypatch.setattr(np, name, refuse)
    np.testing.assert_array_equal(peel_decode(g, types), want)


def test_masks_match_per_field_counts():
    # each 21-bit field of a packed count at 0, 1, 2 and 2**21 - 1, the others
    # at extreme values: no carry or borrow may cross a field
    top = 2**21 - 1
    counts = np.array(list(itertools.product([0, 1, 2, 3, 2**20 - 1, 2**20, top - 1, top],
                                             repeat=3)), dtype=np.uint64)
    assert {0, 1, 2, top} <= set(counts[:, 0].tolist())
    packed = (counts << np.uint64(21) * np.arange(3, dtype=np.uint64)).sum(1, dtype=np.uint64)
    ge1, ge2 = _masks(packed)
    bits = np.array([1, 2, 4])
    np.testing.assert_array_equal(ge1, ((counts >= 1) * bits).sum(1))
    np.testing.assert_array_equal(ge2, ((counts >= 2) * bits).sum(1))


def test_peel_trivial_type_patterns():
    g = sample_coupled_graph(Ensemble(3, 6), 30, np.random.default_rng(1))
    out = peel_decode(g, np.full(30, 4))
    assert np.all(out == 4)
    out = peel_decode(g, np.full(30, 5))
    assert np.all(out == 5)
    out = peel_decode(g, np.full(30, 1))
    assert np.all(out == 1)


def test_peel_repetition_code_combines_halves():
    # two variables joined by one repetition check: one side knows x_A,
    # the other knows x_B; message passing gives both full knowledge
    g = EtgInstance(*tanner_edges([[1, 1]]))
    out = peel_decode(g, np.array([2, 3]))
    assert list(out) == [5, 5]
    # a single xor observer resolves the partner through the check
    out = peel_decode(g, np.array([4, 1]))
    assert list(out) == [4, 4]


def test_peel_single_parity_check_example():
    g = EtgInstance(*tanner_edges([[1, 1, 1]]))
    # two fully known neighbours resolve the erased third bit
    out = peel_decode(g, np.array([5, 5, 1]))
    assert list(out) == [5, 5, 5]
    # partial knowledge propagates (both neighbours know x_A) but the
    # erased bit still cannot recover the xor
    out = peel_decode(g, np.array([5, 2, 1]))
    assert out[2] == 2


def test_peel_checks_without_edges_lack_nothing():
    # checks 0, 2 and 4 have no edges, before, between and after the others
    g = EtgInstance(3, 5, [0, 1, 1, 2], [1, 1, 3, 3])
    for types, want in (([5, 1, 4], [5, 5, 5]), ([2, 1, 2], [2, 2, 2]), ([1, 4, 1], [4, 4, 4])):
        assert list(peel_decode(g, np.array(types))) == want
        np.testing.assert_array_equal(peel_decode(g, np.array(types)), _flood(g, types))
    # no edges at all: every variable keeps its channel type
    none = np.array([], dtype=np.int64)
    assert list(peel_decode(EtgInstance(2, 3, none, none), np.array([2, 4]))) == [2, 4]


def test_peel_rejects_bad_type_arrays():
    g = EtgInstance(*tanner_edges(H_SMALL))
    assert list(peel_decode(g, [5, 5, 1, 4])) == [5, 5, 5, 5]
    with pytest.raises(ValueError):
        peel_decode(g, np.array([5, 5]))
    # a type outside 1..5 must not index the mask table (-1 read as type 5,
    # 0 as type 1, 6 past its end), and a fraction must not be truncated
    g = EtgInstance(*tanner_edges([[1, 1, 0], [0, 1, 1]]))
    for bad in (-1, 0, 6, 4.7):
        with pytest.raises(ValueError):
            peel_decode(g, np.array([bad, 4, 4]))


def test_peel_rejects_degrees_past_the_packed_counts():
    # per-node bit counts are packed 21 bits each; a node of degree 2**21
    # would carry into the next bit's count
    n = 2**21
    star = np.arange(n)
    for g in (EtgInstance(n, 1, star, np.zeros(n, dtype=np.int64)),
              EtgInstance(1, n, np.zeros(n, dtype=np.int64), star)):
        with pytest.raises(ValueError):
            peel_decode(g, np.full(g.n_vars, 5))
    # one degree less is decoded: the erased bit gets everything from the rest
    g = EtgInstance(n - 1, 1, star[:-1], np.zeros(n - 1, dtype=np.int64))
    types = np.full(n - 1, 5)
    types[7] = 1
    assert np.all(peel_decode(g, types) == 5)


def test_gf2_nullspace_and_enumeration():
    np.testing.assert_array_equal(parity_matrix(*tanner_edges(H_SMALL)), H_SMALL)
    basis = gf2_nullspace(H_SMALL)
    assert basis.shape[0] == 2
    assert np.all((H_SMALL @ basis.T) % 2 == 0)
    code = enumerate_codewords(H_SMALL)
    assert code.shape == (4, 4)
    assert np.all((H_SMALL @ code.T) % 2 == 0)
    assert len({tuple(c) for c in code}) == 4
    with pytest.raises(ValueError):
        enumerate_codewords(np.zeros((1, 20), dtype=int))  # dimension 20 > 12


def test_brute_force_examples():
    # repetition pair, one side sees x_A and the other x_B: the xor is
    # pinned on both bits
    h = np.array([[1, 1]])
    assert list(brute_force_jcf(h, [2, 3])) == [True, True]
    # nothing observed: both xor values remain possible
    assert list(brute_force_jcf(h, [1, 1])) == [False, False]
    # one xor observation pins its partner through the check
    assert list(brute_force_jcf(h, [4, 1])) == [True, True]
    with pytest.raises(ValueError):
        brute_force_jcf(h, [2, 3, 1])


@pytest.mark.parametrize("seed", range(6))
def test_peel_sound_against_brute_force(seed):
    # whatever peeling recovers must be pinned by exhaustive enumeration
    rng = np.random.default_rng(seed)
    g = sample_coupled_graph(Ensemble(2, 4), 8, rng)
    h = parity_matrix(g.n_vars, g.n_checks, g.evar, g.echeck)
    types = rng.integers(1, 6, size=8)
    out = peel_decode(g, types)
    recoverable = brute_force_jcf(h, types)
    for i in range(8):
        if out[i] in (4, 5):
            assert recoverable[i], f"bit {i}: peel claims xor known, oracle disagrees"


def test_peel_complete_on_trees():
    # on cycle-free graphs peeling recovers exactly what enumeration pins
    h = np.array([
        [1, 1, 1, 0, 0],
        [0, 0, 1, 1, 1],
    ])
    edges = tanner_edges(h)
    g = EtgInstance(*edges)
    assert is_cycle_free(*edges)
    for types in itertools.product(range(1, 6), repeat=5):
        out = peel_decode(g, types)
        np.testing.assert_array_equal((out == 4) | (out == 5), brute_force_jcf(h, types))


@pytest.mark.parametrize("seed", range(4))
def test_peel_schedule_independence(seed):
    rng = np.random.default_rng(seed)
    g = sample_coupled_graph(Ensemble(3, 6), 24, rng)
    types = rng.integers(1, 6, size=24)
    flood = peel_decode(g, types)
    seq = naive_peel(g, types, rng=np.random.default_rng(seed + 100))
    np.testing.assert_array_equal(flood, seq)


def test_peel_schedule_independence_coupled():
    # the oracle gets the boundary sockets back as explicit type-5 PSEUDO
    # entries, so this also checks that dropping them loses nothing
    e = Ensemble(3, 6, 2, 2)
    rng = np.random.default_rng(2)
    g = sample_coupled_graph(e, 4, rng)
    assert g.evar.size < g.n_checks * e.d_c
    types = rng.integers(1, 6, size=g.n_vars)
    np.testing.assert_array_equal(
        peel_decode(g, types),
        naive_peel(g, types, rng=np.random.default_rng(7), pad_to=e.d_c),
    )


def _flood(g, types):
    return flooding_peel(g.n_vars, g.n_checks, g.evar, g.echeck, types)


def _small_random_graph(rng):
    """A regular or coupled graph of at most a few hundred edges, with
    multi-edges likely and chains with L < w among them, and its ensemble."""
    d_v, d_c = int(rng.integers(2, 5)), int(rng.integers(2, 7))
    if rng.random() < 0.5:
        n = d_c // math.gcd(d_v, d_c) * int(rng.integers(1, 9))
        e = Ensemble(d_v, d_c)
        return sample_coupled_graph(e, n, rng), e
    e = Ensemble(d_v, d_c, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
    step = math.lcm(d_c, e.w)
    m = step // math.gcd(step, d_v) * int(rng.integers(1, 3))  # w and d_c divide M*d_v
    return sample_coupled_graph(e, m, rng), e


def test_peel_matches_flooding_and_sequential_on_random_graphs():
    # the frontier peeler must send flooding's messages: same fixed point on
    # graphs of every shape, under type distributions that favour few types
    rng = np.random.default_rng(20)
    seen = set()
    multi_edges = short_chains = 0
    for _ in range(320):
        g, e = _small_random_graph(rng)
        probs = rng.dirichlet(np.full(5, 0.5))
        types = rng.choice(np.arange(1, 6), size=g.n_vars, p=probs)
        seen.update(types.tolist())
        multi_edges += len(set(zip(g.evar, g.echeck))) < g.evar.size
        short_chains += 0 < e.L < e.w
        out = peel_decode(g, types)
        np.testing.assert_array_equal(out, _flood(g, types))
        pad = e.d_c if e.coupled else None
        np.testing.assert_array_equal(out, naive_peel(g, types, rng=rng, pad_to=pad))
    assert seen == {1, 2, 3, 4, 5}
    assert multi_edges > 50 and short_chains > 20


@pytest.mark.parametrize("channel, below, above", [
    ("primary", 0.20, 0.30), ("xor-only", 0.38, 0.48), ("full-reveal", 0.38, 0.48),
])
def test_peel_matches_flooding_at_n_1e4(channel, below, above):
    # (3,6) at N = 1e4 on either side of its BP threshold (0.245 on primary,
    # 0.429 on the others): almost everything decodes below, much fails above
    rng = np.random.default_rng(4)
    failed = []
    for eps in (below, above):
        g = sample_coupled_graph(Ensemble(3, 6), 10**4, rng)
        types = sample_states(BUILTINS[channel].eval(eps), g.n_vars, rng)
        out = peel_decode(g, types)
        np.testing.assert_array_equal(out, _flood(g, types))
        failed.append(np.mean((out != 4) & (out != 5)))
    assert failed[0] < 0.01 < 0.1 < failed[1]


def test_peel_matches_flooding_on_coupled_stall():
    # the third trial of `simulate --dv 3 --dc 6 --L 20 --w 3 --M 1200
    # --eps 0.46 --channel xor-only --seed 5574893550004`: the wave stalls
    e = Ensemble(3, 6, 20, 3)
    pch = BUILTINS["xor-only"].eval(0.46)
    rng = np.random.default_rng(5574893550004)
    for _ in range(3):
        g = sample_coupled_graph(e, 1200, rng)
        types = sample_states(pch, g.n_vars, rng)
    out = peel_decode(g, types)
    np.testing.assert_array_equal(out, _flood(g, types))
    assert 0.1 < np.mean((out != 4) & (out != 5)) < 0.2


def test_bit_rate_concentrates_on_de_residual():
    # above the (3,6) BP threshold (0.4294) peeling stops at a residual that
    # must match the evolution's fixed point within k = 4 standard errors
    # of the mean over the trials
    pch = BUILTINS["xor-only"].eval(0.50)
    rng = np.random.default_rng(8)
    rates = []
    for _ in range(10):
        g = sample_coupled_graph(Ensemble(3, 6), 10**5, rng)
        out = peel_decode(g, sample_states(pch, g.n_vars, rng))
        rates.append(np.mean((out != 4) & (out != 5)))
    (res,) = de_batch(Ensemble(3, 6), [pch], Caps(success_target=np.nextafter(1.0, 0.0)))
    residual = 1.0 - res.min_p_dec
    stderr = np.std(rates, ddof=1) / np.sqrt(len(rates))
    assert residual > 0.4
    assert abs(np.mean(rates) - residual) <= 4 * stderr


def test_failure_rate_extremes():
    xor = BUILTINS["xor-only"]
    good = failure_rate(Ensemble(3, 6), xor, 0.0, size=120, trials=3, seed=1)
    assert good.bit_rate == 0.0
    assert good.block_rate == 0.0
    bad = failure_rate(Ensemble(3, 6), xor, 1.0, size=120, trials=3, seed=1)
    assert bad.bit_rate == 1.0
    assert bad.block_rate == 1.0


@pytest.mark.parametrize("n", [1, 5, 10, 20])
def test_failure_rate_wilson_interval(n):
    # no failure in n trials still leaves a 95% upper bound of z^2/(n+z^2);
    # the endpoints at 0 and n failures are exact
    xor, z2 = BUILTINS["xor-only"], 1.96**2
    good = failure_rate(Ensemble(3, 6), xor, 0.0, size=120, trials=n, seed=1)
    assert good.block_lo == 0.0
    assert good.block_hi == pytest.approx(z2 / (n + z2), rel=1e-12)
    if n == 5:
        assert good.block_hi == pytest.approx(0.4345, abs=1e-4)
    bad = failure_rate(Ensemble(3, 6), xor, 1.0, size=120, trials=n, seed=1)
    assert bad.block_lo == pytest.approx(n / (n + z2), rel=1e-12)
    assert bad.block_hi == 1.0
    with pytest.raises(ValueError):
        failure_rate(Ensemble(3, 6), xor, 0.0, size=120, trials=0, seed=1)
    with pytest.raises(ValueError):
        failure_rate(Ensemble(3, 6), xor, 0.0, size=0, trials=n, seed=1)


def test_wilson_interval_inside_unit_interval():
    for n in range(1, 41):
        for k in range(n + 1):
            lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0
            assert (lo == 0.0) == (k == 0)
            assert (hi == 1.0) == (k == n)


def test_failure_rate_deterministic_and_coupled():
    fam = BUILTINS["primary"]
    sys_ = Ensemble(3, 6, 2, 2)
    a = failure_rate(sys_, fam, 0.3, size=12, trials=5, seed=42)
    b = failure_rate(sys_, fam, 0.3, size=12, trials=5, seed=42)
    assert a.bit_rate == b.bit_rate
    assert a.block_rate == b.block_rate
    assert a.n_vars == 5 * 12


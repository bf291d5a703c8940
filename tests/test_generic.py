from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import draw_near_fraction
from plstab import batch, generic
from plstab.generic import (REGEN_ATTEMPTS, GenericPool, certify,
                            distinctness_transcript, regeneration_pools)

F = Fraction


def test_draw_near_within_eps():
    pool = GenericPool(1)
    v = pool.draw_near(F(0), F(1), stream=3)
    assert abs(v) < 1


@given(st.fractions(min_value=-20, max_value=20, max_denominator=50),
       st.fractions(min_value=F(1, 1000), max_value=3, max_denominator=1000),
       st.integers(min_value=0, max_value=100))
@settings(max_examples=150)
def test_draw_near_bound_property(target, eps, stream):
    pool = GenericPool(99)
    v = pool.draw_near(target, eps, stream)
    assert abs(v - target) < eps


@given(st.integers(min_value=0, max_value=2 ** 64),
       st.one_of(st.fractions(min_value=-1000, max_value=1000,
                              max_denominator=10 ** 6),
                 st.builds(F, st.integers(-2 ** 90, 2 ** 90),
                           st.integers(1, 2 ** 70))),
       st.one_of(st.integers(min_value=0, max_value=200).map(lambda k: F(1, 2 ** k)),
                 st.fractions(min_value=F(1, 10 ** 9), max_value=100,
                              max_denominator=10 ** 9)),
       st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=6))
@settings(max_examples=300, deadline=None)
def test_draw_near_matches_fraction_arithmetic(seed, target, eps, stream, earlier):
    pool = GenericPool(seed)
    for _ in range(earlier):
        pool.draw_near(F(0), F(1), stream)
    want = draw_near_fraction(target, eps, pool.offset(stream), earlier)
    assert pool.draw_near(target, eps, stream) == want


# Values drawn by the Fraction halving-and-doubling implementation that the
# integer arithmetic replaced: (target, eps, stream) -> first two draws from
# GenericPool(408), in this order.
_DRAW_NEAR_GOLDEN = [
    (F(0), F(1), 3,
     ["6278425918525628575/15692426580070004757",
      "6278425918525628575/31384853160140009514"]),
    (F(-7, 3), F(1, 2), 0,
     ["-169484236720034178251/77924436894495170792",
      "-177277387172230104441/77924436894495170792"]),
    (F(5, 2), F(1, 7), 11,
     ["193402088476149300275/75865150316752102056",
      "383064964268029555415/151730300633504204112"]),
    (F(123456789, 1000), F(1, 2 ** 200), 2,
     ["12770936463794503039578078130072121348231721671767360840467915151682730"
      "500455029694319/1034445862980812099331214432449893164500797252370411224"
      "64864327158686350818934784",
      "12770936463794503039578078130072121348231721671767360840467915151672588"
      "485480182697863/1034445862980812099331214432449893164500797252370411224"
      "64864327158686350818934784"]),
    (F(-1, 3), F(40), 5,
     ["319607926533925188/12071165510096192977",
      "159803963266962594/12071165510096192977"]),
    (F(17), F(3, 1000), 0,
     ["339131045940069081249879/19948655844990763722752",
      "678258195304912064536663/39897311689981527445504"]),
]


def test_draw_near_golden_values():
    pool = GenericPool(408)
    for target, eps, stream, want in _DRAW_NEAR_GOLDEN:
        got = [str(pool.draw_near(target, eps, stream)) for _ in want]
        assert got == want


def test_regeneration_pools_try_the_pool_then_successor_seeds():
    pool = GenericPool(41)
    pools = list(regeneration_pools(pool))
    assert len(pools) == REGEN_ATTEMPTS == 3
    assert pools[0] is pool
    assert [p.seed for p in pools] == [41, 42, 43]


def test_distinct_streams_distinct_values():
    pool = GenericPool(2)
    a = pool.draw_near(F(0), F(1), stream=0)
    b = pool.draw_near(F(0), F(1), stream=1)
    assert a != b


def test_offsets_pairwise_distinct():
    pool = GenericPool(5)
    offsets = [pool.offset(s) for s in range(60)]
    assert len(set(offsets)) == 60
    for r in offsets:
        assert r.denominator % 2 == 1


def test_determinism_across_pools():
    a = GenericPool(42)
    b = GenericPool(42)
    seq_a = [a.draw_near(F(k), F(1, 7), stream=k % 5) for k in range(20)]
    seq_b = [b.draw_near(F(k), F(1, 7), stream=k % 5) for k in range(20)]
    assert seq_a == seq_b


def test_counter_advances_and_changes_value():
    pool = GenericPool(3)
    v1 = pool.draw_near(F(0), F(1), stream=7)
    v2 = pool.draw_near(F(0), F(1), stream=7)
    assert v1 != v2
    # the counter is per stream: draws on another stream leave stream 7's
    # first draw unchanged
    other = GenericPool(3)
    other.draw_near(F(0), F(1), stream=8)
    assert other.draw_near(F(0), F(1), stream=7) == v1


def test_derived_pools_differ_but_are_stable():
    base = GenericPool(10)
    c1 = base.derive(0)
    c2 = base.derive(1)
    assert c1.seed != c2.seed
    assert GenericPool(10).derive(0).seed == c1.seed
    assert c1.offset(0) != c2.offset(0)


def _draws(pool, streams):
    """stream -> (offset, first draw near s/3) in the given stream order."""
    return {s: (pool.offset(s), pool.draw_near(F(s, 3), F(1, 5), s))
            for s in streams}


def test_pools_from_a_warm_root_draw_what_fresh_pools_draw():
    # The candidate memo a root shares with the pools it derives is
    # invisible: a derived or regenerated pool draws exactly what a fresh
    # GenericPool of its seed draws, whichever order either visits streams.
    root = GenericPool(77)
    for trial in range(2):
        for pool in regeneration_pools(root.derive(trial)):
            _draws(pool, range(12))
    for trial in range(2):
        for pool in regeneration_pools(root.derive(trial)):
            fresh = GenericPool(pool.seed)
            assert _draws(pool, reversed(range(14))) == _draws(fresh, range(14))


def _collide_stream_1_with_stream_0(monkeypatch):
    """Make stream 1's attempt-0 candidate equal stream 0's; returns the
    unpatched _u64."""
    real = generic._u64

    def u64(seed, tag, lo, hi):
        kind, stream, attempt = tag.split(":")
        if (stream, attempt) == ("1", "0"):
            tag = f"{kind}:0:0"
        return real(seed, tag, lo, hi)

    monkeypatch.setattr(generic, "_u64", u64)
    return real


def test_offset_collision_takes_the_next_attempt(monkeypatch):
    real = _collide_stream_1_with_stream_0(monkeypatch)
    seed = GenericPool(6).derive(0).seed

    def candidate(stream, attempt):
        return F(real(seed, f"num:{stream}:{attempt}", 1, 2 ** 64 - 1),
                 real(seed, f"den:{stream}:{attempt}", 2 ** 62 + 1,
                      2 ** 64 - 1) | 1)

    forward = _draws(GenericPool(6).derive(0), range(4))
    backward = _draws(GenericPool(6).derive(0), reversed(range(4)))
    assert len({offset for offset, _ in forward.values()}) == 4
    assert len({offset for offset, _ in backward.values()}) == 4
    # the stream drawn second of the colliding pair moves to attempt 1
    assert forward[0][0] == candidate(0, 0)
    assert forward[1][0] == candidate(1, 1)
    assert backward[1][0] == candidate(0, 0)
    assert backward[0][0] == candidate(0, 1)
    # a memo warmed by either order gives every later pool the cold result
    root = GenericPool(6)
    _draws(root.derive(0), reversed(range(4)))
    assert _draws(root.derive(0), range(4)) == forward
    _draws(root.derive(0), range(4))
    assert _draws(root.derive(0), reversed(range(4))) == backward


def _count_u64(monkeypatch):
    """Record the (seed, stream) of every _u64 call from here on."""
    real = generic._u64
    calls = []

    def u64(seed, tag, lo, hi):
        calls.append((seed, int(tag.split(":")[1])))
        return real(seed, tag, lo, hi)

    monkeypatch.setattr(generic, "_u64", u64)
    return calls


def test_a_second_cell_hashes_no_stream_the_first_cell_drew(monkeypatch):
    calls = _count_u64(monkeypatch)
    first, second = batch.linear_cells(4, 2)[:2]
    root = GenericPool(31)
    batch.run_linear_cell(first, 2, root)
    drawn = set(calls)
    calls.clear()
    batch.run_linear_cell(second, 2, root)
    warm = set(calls)
    calls.clear()
    batch.run_linear_cell(second, 2, GenericPool(31))
    cold = set(calls)
    assert drawn and cold & drawn
    assert warm == cold - drawn


def test_separately_built_pools_share_nothing(monkeypatch):
    calls = _count_u64(monkeypatch)
    _draws(GenericPool(9).derive(0), range(5))
    _draws(GenericPool(9), range(5))
    calls.clear()
    _draws(GenericPool(9).derive(0), range(5))
    _draws(GenericPool(9), range(5))
    assert len(calls) == 2 * 10


def test_eps_must_be_positive():
    with pytest.raises(ValueError):
        GenericPool(0).draw_near(F(0), F(0), stream=0)


def test_certify_ok():
    cert = certify([("det hull a", F(3, 7)), ("pivot r2", F(-1))])
    assert cert.ok
    assert cert.failed_index is None


def test_certify_failed_names_first_zero():
    cert = certify([("ok", F(1)), ("det", F(0)), ("also zero", F(0))])
    assert not cert.ok
    assert cert.failed_index == 1


def test_certify_soundness_rescan():
    cert = certify([(f"c{i}", F(i + 1, 3)) for i in range(10)])
    assert cert.ok
    assert all(v != 0 for _, v in cert.conditions)


def test_distinctness_transcript_neighbours_in_sorted_order():
    got = distinctness_transcript([("a", F(1)), ("b", F(0)), ("c", F(1)),
                                   ("d", F(-1, 2))])
    # stable sort: d < b < a == c, with a before c as given
    assert got == [("coord d != b", F(-1, 2)), ("coord b != a", F(-1)),
                   ("coord a != c", F(0))]
    assert certify(got).failed_index == 2
    assert distinctness_transcript([("x", F(3))]) == []
    assert distinctness_transcript([]) == []


_BELOW_KEY_RESOLUTION = F(1, 2 ** 170)  # finer than the key's 2**-160 floor


@st.composite
def _labelled_values(draw):
    value = st.one_of(st.integers(-4, 4),
                      st.fractions(min_value=-4, max_value=4,
                                   max_denominator=12))
    values = draw(st.lists(value, max_size=10))
    # copies nudged by less than 2**-160, so their sort key floors can tie
    for i, j in draw(st.lists(st.tuples(st.integers(0, 9), st.integers(-3, 3)),
                              max_size=4)):
        if i < len(values):
            values.append(values[i] + j * _BELOW_KEY_RESOLUTION)
    labels = draw(st.lists(st.sampled_from("abc"), min_size=len(values),
                           max_size=len(values)))
    return draw(st.permutations(list(zip(labels, values))))


@given(_labelled_values())
@settings(max_examples=300, deadline=None)
def test_distinctness_transcript_matches_exact_value_sort(labelled):
    # equal values under different labels, values closer than 2**-160,
    # negative values and plain integers: the integer-first sort key gives
    # the stable order of the exact values
    ordered = sorted(labelled, key=lambda item: item[1])
    expected = [(f"coord {la} != {lb}", a - b)
                for (la, a), (lb, b) in zip(ordered, ordered[1:])]
    assert distinctness_transcript(labelled) == expected

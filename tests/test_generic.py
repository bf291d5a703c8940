from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import draw_near_fraction
from plstab import batch, generic
from plstab.generic import (REGEN_ATTEMPTS, GenericityError, GenericPool,
                            certify, distinctness_transcript,
                            regeneration_pools)
from plstab.ratmath import vec
from plstab.simplicial import (PLMap, certify_map, parse_complex,
                               roberts_perturb)

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
       st.integers(min_value=0, max_value=40))
@settings(max_examples=300, deadline=None)
def test_draw_near_matches_fraction_arithmetic(seed, target, eps, stream):
    pool = GenericPool(seed)
    want = draw_near_fraction(target, eps, pool.offset(stream))
    assert pool.draw_near(target, eps, stream) == want


# Values drawn by the Fraction halving-and-doubling implementation that the
# integer arithmetic replaced: (target, eps, stream) -> draw from
# GenericPool(408).  That implementation drew the last row as stream 0's
# third draw, with its offset term r/2**j shrunk by a further 2**-2 for a
# per-stream draw counter, at v; the row holds 17 + 4 * (v - 17), the value
# with the offset term r/2**j alone.
_DRAW_NEAR_GOLDEN = [
    (F(0), F(1), 3, "6278425918525628575/15692426580070004757"),
    (F(-7, 3), F(1, 2), 0, "-169484236720034178251/77924436894495170792"),
    (F(5, 2), F(1, 7), 11, "193402088476149300275/75865150316752102056"),
    (F(123456789, 1000), F(1, 2 ** 200), 2,
     "12770936463794503039578078130072121348231721671767360840467915151682730"
     "500455029694319/1034445862980812099331214432449893164500797252370411224"
     "64864327158686350818934784"),
    (F(-1, 3), F(40), 5, "319607926533925188/12071165510096192977"),
    (F(17), F(3, 1000), 0, "84785683916436843784791/4987163961247690930688"),
]


def test_draw_near_golden_values():
    pool = GenericPool(408)
    for target, eps, stream, want in _DRAW_NEAR_GOLDEN:
        assert str(pool.draw_near(target, eps, stream)) == want


def test_repeated_draws_on_one_stream_are_equal():
    pool = GenericPool(3)
    first = pool.draw_near(F(0), F(1), stream=7)
    pool.draw_near(F(2), F(1, 3), stream=8)
    assert pool.draw_near(F(0), F(1), stream=7) == first
    assert GenericPool(3).draw_near(F(0), F(1), stream=7) == first


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
    # The offset memo a root shares with the pools it derives is
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


def _share_offset(monkeypatch, chosen, stream, other):
    """Give ``stream`` the offset of ``other`` in every pool whose seed
    ``chosen`` accepts."""
    real = generic._u64

    def u64(seed, tag, lo, hi):
        kind, drawn, index = tag.split(":")
        if chosen(seed) and drawn == str(stream):
            tag = f"{kind}:{other}:{index}"
        return real(seed, tag, lo, hi)

    monkeypatch.setattr(generic, "_u64", u64)


def test_a_shared_offset_fails_the_certificate_and_regenerates(monkeypatch):
    # Both vertices have the target (0, 0), so streams 1 (a[1]) and 3 (b[1])
    # on one offset draw equal coordinates: the map comes from seed 22.
    k = parse_complex("v a\nv b\ns a b\n")
    theta = PLMap(2, {"a": vec([0, 0]), "b": vec([0, 0])})
    want = roberts_perturb(k, theta, F(1), GenericPool(22))
    _share_offset(monkeypatch, lambda seed: seed == 21, 3, 1)
    pool = GenericPool(21)
    assert pool.offset(3) == pool.offset(1)
    got = roberts_perturb(k, theta, F(1), GenericPool(21))
    assert got.certified and got.images == want.images
    monkeypatch.undo()
    _share_offset(monkeypatch, lambda seed: True, 3, 1)
    with pytest.raises(GenericityError):
        roberts_perturb(k, theta, F(1), GenericPool(21))


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
    cert = certify([3, -1])
    assert cert.ok
    assert cert.failed_index is None


def test_certify_failed_names_first_zero():
    cert = certify([1, 0, 0])
    assert not cert.ok
    assert cert.failed_index == 1


def test_certify_soundness_rescan():
    cert = certify(range(1, 11))
    assert cert.ok
    assert all(v != 0 for v in cert.conditions)


def test_distinctness_transcript_neighbours_in_sorted_order():
    # sorted: -1/2 < 0 < 1 == 1, and the neighbours a, b give
    # a.num * b.den - b.num * a.den
    got = distinctness_transcript([F(1), F(0), F(1), F(-1, 2)])
    assert got == [-1, -1, 0]
    assert certify(got).failed_index == 2
    assert distinctness_transcript([F(3)]) == []
    assert distinctness_transcript([]) == []


def test_every_condition_is_an_int():
    k = parse_complex("v a\nv b\nv c\ns a b c\n")
    g = certify_map(k, PLMap(2, {"a": vec([F(1, 3), F(2, 5)]),
                                 "b": vec([F(3, 2), 3]),
                                 "c": vec([4, F(1, 7)])}))
    assert g.certified
    _, cert = batch.draw_point_sets(GenericPool(4), [1, 2], 3)
    for conditions in (g.certificate.conditions, cert.conditions):
        assert conditions
        assert all(type(c) is int for c in conditions)


_BELOW_KEY_RESOLUTION = F(1, 2 ** 170)  # finer than the key's 2**-160 floor


@st.composite
def _values(draw):
    value = st.one_of(st.integers(-4, 4),
                      st.fractions(min_value=-4, max_value=4,
                                   max_denominator=12))
    values = draw(st.lists(value, max_size=10))
    # copies nudged by less than 2**-160, so their sort key floors can tie
    for i, j in draw(st.lists(st.tuples(st.integers(0, 9), st.integers(-3, 3)),
                              max_size=4)):
        if i < len(values):
            values.append(values[i] + j * _BELOW_KEY_RESOLUTION)
    return draw(st.permutations([F(v) for v in values]))


@given(_values())
@settings(max_examples=300, deadline=None)
def test_distinctness_transcript_matches_exact_value_sort(values):
    # equal values, values closer than 2**-160, negative values and plain
    # integers: the integer-first sort key gives the order of the exact
    # values, and each neighbour condition is a - b over its denominators
    ordered = sorted(values)
    got = distinctness_transcript(values)
    assert len(got) == max(len(values) - 1, 0)
    for c, a, b in zip(got, ordered, ordered[1:]):
        assert type(c) is int
        assert F(c, a.denominator * b.denominator) == a - b

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import draw_near_fraction
from plstab import batch, generic, simplicial
from plstab.generic import (REGEN_ATTEMPTS, GenericityError, GenericPool,
                            certify, distinctness_transcript,
                            distinctness_transcript_of_numerators,
                            regeneration_pools)
from plstab.ratmath import vec
from plstab.simplicial import (PLMap, certify_map, parse_complex,
                               roberts_perturb)
from plstab.transversal import PointSets

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
    # the integer kernel gives the same value, in lowest terms
    assert pool.draw_integers(target, eps, stream) == (want.numerator,
                                                       want.denominator)


# Values drawn by GenericPool(408), whose offsets all share the one odd
# denominator 16439261988980331127 of seed 408: (target, eps, stream) ->
# draw.  test_draw_near_matches_fraction_arithmetic checks the arithmetic
# behind them against the Fraction oracle; these pin the offsets too.
_DRAW_NEAR_GOLDEN = [
    (F(0), F(1), 3, "6278425918525628575/16439261988980331127"),
    (F(-7, 3), F(1, 2), 0, "-281173375981842586653/131514095911842649016"),
    (F(5, 2), F(1, 7), 11, "168131832574072356405/65757047955921324508"),
    (F(123456789, 1000), F(1, 2 ** 200), 2,
     "13045370503328219610006907419326692808263689161827659254235113680030"
     "250859674520016721/10566750203853284739170486136106045013258597841733"
     "6443557066057177336045274923008"),
    (F(-1, 3), F(40), 5, "319607926533925188/16439261988980331127"),
    (F(17), F(3, 1000), 0, "71547564751268499027799/4208451069178964768512"),
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


def _denominator(values):
    """The lcm of the denominators of ``values``."""
    return math.lcm(*(v.denominator for v in values))


def test_every_offset_of_a_pool_divides_its_one_odd_denominator():
    # One odd D in (2**62, 2**64) per seed: the lcm of 40 offsets'
    # denominators lies in that range, so all of them divide one such D; two
    # trial pools and the regeneration pools of one of them have four D.
    root = GenericPool(10)
    pools = [root.derive(0), root.derive(1),
             *list(regeneration_pools(root.derive(0)))[1:]]
    dens = []
    for pool in pools:
        d = _denominator(pool.offset(s) for s in range(40))
        assert d % 2 == 1 and 2 ** 62 < d < 2 ** 64
        dens.append(d)
    assert len(set(dens)) == len(pools) == 4


def test_a_drawn_point_set_clears_to_one_small_lcm():
    # Each set clears over its pool's D times a power of two (937 bits when
    # every stream had its own denominator).
    sets, cert = batch.draw_point_sets(GenericPool(1).derive(0), (2, 2), 5)
    assert cert.ok
    for pts in sets:
        assert _denominator(x for p in pts for x in p).bit_length() < 128


def test_a_draw_is_its_integer_form_over_the_lcm_of_its_values():
    # Streams 5 and 19 of this pool have offsets that reduce by 11 and
    # stream 32 by 121, so the drawn values do not share one denominator:
    # the form's E is the lcm of all of them, and each integer point is
    # exactly E times the value draw_near gives on its stream.
    pool = GenericPool(1).derive(0)
    den = _denominator(pool.offset(s) for s in range(40))
    assert [den // pool.offset(s).denominator for s in (5, 19, 32)] == [
        11, 11, 121]
    sets, cert = batch.draw_point_sets(pool, (2, 2, 2), 4)  # streams 0..35
    stream = iter(range(36))
    want = [[tuple(pool.draw_near(F((3 * i + 5 * j + s) % 7), F(1, 2),
                                  next(stream)) for s in range(4))
             for j in range(3)] for i in range(3)]
    assert [list(ps) for ps in sets] == want
    values = [x for ps in want for p in ps for x in p]
    assert sets.scale == _denominator(values)
    assert [x for ps in sets.points for p in ps for x in p] == [
        sets.scale * x for x in values]
    assert PointSets.of(want) == sets
    # the certificate sorts the numerators over E: a positive multiple of
    # each condition of the values, so the same count and outcome
    assert cert.ok
    assert all(a * b > 0 for a, b in zip(
        cert.conditions, distinctness_transcript(values), strict=True))


def test_a_draw_builds_no_fraction(monkeypatch):
    pool = GenericPool(1).derive(0)
    batch.draw_point_sets(pool, (2, 2, 2), 4)  # the offsets, memoised
    built = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    sets, cert = batch.draw_point_sets(pool, (2, 2, 2), 4)
    assert cert.ok and len(sets.points) == 3
    assert built == []


def _count_attempts(monkeypatch, module):
    """Record how many pools each regeneration loop in ``module`` takes."""
    attempts = []

    def pools(pool):
        attempts.append(0)
        for p in regeneration_pools(pool):
            attempts[-1] += 1
            yield p

    monkeypatch.setattr(module, "regeneration_pools", pools)
    return attempts


def test_sweep_trials_are_decided_on_their_first_pool(monkeypatch):
    attempts = _count_attempts(monkeypatch, batch)
    cells = [(batch.run_linear_cell, c) for c in batch.linear_cells(5, 2)]
    cells += [(batch.run_univariate_cell, c)
              for c in batch.univariate_cells(5, 2)]
    for seed in (1, 2):
        root = GenericPool(seed)
        for run, cell in cells:
            assert run(cell, 2, root) == []
    assert attempts == [1] * (2 * 2 * len(cells))


def test_roberts_perturb_certifies_on_its_first_pool(monkeypatch):
    attempts = _count_attempts(monkeypatch, simplicial)
    rng = random.Random(3131)
    for i in range(300):
        k = batch.random_complex(rng, rng.randint(6, 9), 2,
                                 F(rng.randint(12, 30), 100))
        theta = batch.random_map(rng, k, rng.randint(3, 5))
        assert roberts_perturb(k, theta, F(1, 2), GenericPool(i)).certified
    assert attempts == [1] * 300


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


_TARGETS = st.fractions(min_value=-20, max_value=20, max_denominator=50)
_EPS = st.fractions(min_value=F(1, 1000), max_value=3, max_denominator=1000)


@given(st.integers(min_value=0, max_value=2 ** 64),
       st.integers(min_value=0, max_value=100),
       st.lists(st.tuples(_TARGETS, _EPS), min_size=1, max_size=5),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_memoised_draws_are_what_fresh_pools_draw(seed, stream, pairs, rnd):
    # The draw memo a root shares with the pools it derives is invisible:
    # warm derived and regenerated pools, asked again in a shuffled order,
    # draw what a fresh pool of their seed draws, and a nonpositive eps
    # raises on a stream and target already memoised, on every call.
    root = GenericPool(seed)

    def pools():
        return [pool for trial in range(2)
                for pool in regeneration_pools(root.derive(trial))]

    for pool in pools():
        for target, eps in pairs:
            pool.draw_integers(target, eps, stream)
    again = pairs * 2
    rnd.shuffle(again)
    for pool in pools():
        for target, eps in again:
            fresh = GenericPool(pool.seed)
            assert pool.draw_integers(target, eps, stream) == (
                fresh.draw_integers(target, eps, stream))
            assert pool.draw_near(target, eps, stream) == (
                fresh.draw_near(target, eps, stream))
            for bad in (F(0), -eps, -eps, F(0)):
                with pytest.raises(ValueError):
                    pool.draw_integers(target, bad, stream)


def _count_evaluations(monkeypatch):
    """Count draw_integers calls and kernel evaluations from here on: an
    evaluation reads its stream's offset once, and a memo hit reads none."""
    counts = {"calls": 0, "evaluations": 0}
    draw, offset = GenericPool.draw_integers, GenericPool.offset

    def counting_draw(self, target, eps, stream):
        counts["calls"] += 1
        return draw(self, target, eps, stream)

    def counting_offset(self, stream):
        counts["evaluations"] += 1
        return offset(self, stream)

    monkeypatch.setattr(GenericPool, "draw_integers", counting_draw)
    monkeypatch.setattr(GenericPool, "offset", counting_offset)
    return counts


def test_a_grid_evaluates_each_distinct_draw_once(monkeypatch):
    # Every cell derives trial t's pool from the same (seed, t) and draws
    # at one of 7 integer targets, so the grid of linear and univariate
    # cells at m_max 5, n_max 2 and 2 trials computes 418 of its 8,348
    # draws, over 2 pool seeds, and a second run on the same root none.
    grid = {"suites": [{"kind": kind, "m_max": 5, "n_max": 2}
                       for kind in ("linear", "univariate")]}
    counts = _count_evaluations(monkeypatch)
    root = GenericPool(1)
    first = batch.run_grid(grid, 2, root)
    assert counts == {"calls": 8348, "evaluations": 418}
    assert len(root._draws) == 418
    assert len({key[0] for key in root._draws}) == 2
    counts.update(calls=0, evaluations=0)
    assert batch.run_grid(grid, 2, root) == first
    assert counts == {"calls": 8348, "evaluations": 0}


def test_roberts_perturb_evaluates_each_draw_once(monkeypatch):
    # One perturbation draws each of its |V| * m coordinates once; a second
    # one on the same pool looks every draw up and gives the same map.
    rng = random.Random(3131)
    k = batch.random_complex(rng, 8, 2, F(1, 4))
    theta = batch.random_map(rng, k, 4)
    counts = _count_evaluations(monkeypatch)
    pool = GenericPool(5)
    first = roberts_perturb(k, theta, F(1, 2), pool)
    draws = len(k.vertices) * 4
    assert counts == {"calls": draws, "evaluations": draws}
    counts.update(calls=0, evaluations=0)
    again = roberts_perturb(k, theta, F(1, 2), pool)
    assert again.images == first.images
    assert counts == {"calls": draws, "evaluations": 0}


def _share_offset(monkeypatch, chosen, stream, other):
    """Give ``stream`` the offset of ``other`` in every pool whose seed
    ``chosen`` accepts: the numerator of ``other`` over the pool's one
    denominator."""
    real = generic._u64

    def u64(seed, tag, lo, hi):
        if chosen(seed) and tag == f"num:{stream}:0":
            tag = f"num:{other}:0"
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
    """Record every _u64 call from here on: (seed, stream) for a stream's
    numerator, (seed, None) for the seed's denominator."""
    real = generic._u64
    calls = []

    def u64(seed, tag, lo, hi):
        calls.append((seed, None if tag == "den" else int(tag.split(":")[1])))
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
    # two pools, each hashing five numerators and its one denominator
    assert len(calls) == 2 * (5 + 1)


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
def _values_over_one_denominator(draw):
    """Values with mixed denominators, repeats included."""
    values = draw(st.lists(st.fractions(min_value=-4, max_value=4,
                                        max_denominator=12), max_size=10))
    values += draw(st.lists(st.sampled_from(values), max_size=3)
                   if values else st.just([]))
    return draw(st.permutations(values))


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


@given(_values_over_one_denominator())
@settings(max_examples=200, deadline=None)
def test_numerator_transcript_scales_the_value_transcript(values):
    # over one denominator E, each neighbour condition A - B of the sorted
    # numerators is E / (a.den * b.den) times the value condition of a, b
    scale = _denominator(values)
    got = distinctness_transcript_of_numerators(
        x.numerator * (scale // x.denominator) for x in values)
    ordered = sorted(values)
    want = distinctness_transcript(values)
    assert len(got) == len(want)
    for c, w, a, b in zip(got, want, ordered, ordered[1:]):
        assert type(c) is int
        assert c * a.denominator * b.denominator == w * scale

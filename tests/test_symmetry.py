"""Answers that must not change under the symmetries of their input.

Each oracle in oracles.py recomputes one answer another way; these tests
instead relate the answers to two inputs that the family's symmetries carry
into each other.  A stab decision does not depend on the order of the sets,
the order of the points in a set, or where the whole configuration sits:
translating every point by one vector moves a stabbing plane of the family
to another.  A count, and the number of pieces and of components of the
image and the preimage sections, depend neither on the names of the
vertices nor on one translation or one diagonal rational scaling of the
coordinates, applied to the map and the plane together.
"""

import random
from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from plstab.batch import random_complex, sample_plane_adversarial
from plstab.sections import (compute_components, preimage_polytopes,
                             section_of_image)
from plstab.simplicial import PLMap, SimplicialComplex, certify_map
from plstab.transversal import (ConcretePlane, PlaneFamily, decide_stab,
                                max_disjoint_stabbed)

F = Fraction
_SHIFTS = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_SCALES = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(
    bool)


@st.composite
def _families(draw, m):
    s_T = sorted(draw(st.sets(st.integers(1, m), max_size=m)))
    s_t = sorted(draw(st.sets(st.sampled_from(s_T), max_size=len(s_T)))
                 if s_T else [])
    d = draw(st.integers(len(s_t), len(s_T)))
    return PlaneFamily(m, tuple(s_t), tuple(s_T), d)


@st.composite
def _stab_inputs(draw):
    """A family and at most d-t+2 point sets of small integer points, so
    most inputs take the linear or the univariate decider, half of them
    with q = d-t+2; a small range makes degenerate configurations common."""
    family = draw(st.integers(1, 4).flatmap(_families))
    free = family.d - family.t
    q = draw(st.sampled_from([free + 2, free + 2, max(1, free + 1), 1]))
    point = st.lists(st.integers(-3, 3), min_size=family.m,
                     max_size=family.m).map(lambda p: tuple(map(F, p)))
    sets = draw(st.lists(st.lists(point, min_size=1, max_size=3),
                         min_size=q, max_size=q))
    return family, sets


def _counts(k, g, plane):
    """The count, then the pieces and components of the image section and
    of the preimage section."""
    out = [max_disjoint_stabbed(k, g, plane, 2)[0]]
    for section in (section_of_image(k, g, plane),
                    preimage_polytopes(k, g, plane)):
        out += [len(section.pieces),
                len(compute_components(section).components)]
    return out


def _answer(sets, family):
    got = decide_stab(sets, family, 500, 0)
    return got["mode"], got["status"]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_stab_inputs(), st.data())
def test_stab_answer_is_invariant_under_the_family_symmetries(case, data):
    family, sets = case
    answer = _answer(sets, family)
    assume(answer[0] in ("linear", "univariate"))
    order = data.draw(st.permutations(range(len(sets))))
    assert _answer([sets[i] for i in order], family) == answer
    shuffled = [data.draw(st.permutations(ps)) for ps in sets]
    assert _answer(shuffled, family) == answer
    shift = data.draw(st.lists(_SHIFTS, min_size=family.m,
                               max_size=family.m))
    moved = [[tuple(x + s for x, s in zip(p, shift)) for p in ps]
             for ps in sets]
    assert _answer(moved, family) == answer


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.integers(2, 3).flatmap(_families), st.integers(4, 7),
       st.integers(0, 2 ** 32), st.data())
def test_count_is_invariant_under_relabelling_and_translation(
        family, nv, seed, data):
    m = family.m
    rng = random.Random(seed)
    k = random_complex(rng, nv, 2, F(1, 3))
    coords = data.draw(st.lists(st.integers(-40, 40), unique=True,
                                min_size=nv * m, max_size=nv * m))
    g = certify_map(k, PLMap(m, {
        v: tuple(map(F, coords[i * m:(i + 1) * m]))
        for i, v in enumerate(k.vertices)}))
    assume(g.certified)
    plane = sample_plane_adversarial(rng, family, k, g)
    counts = _counts(k, g, plane)

    names = data.draw(st.permutations(k.vertices))
    rename = dict(zip(k.vertices, names))
    k2 = SimplicialComplex.from_simplexes(
        [rename[v] for v in k.vertices],
        [[rename[v] for v in s] for s in k.maximal_simplexes()])
    g2 = certify_map(k2, PLMap(m, {rename[v]: p
                                   for v, p in g.images.items()}))
    assert g2.certified
    assert _counts(k2, g2, plane) == counts

    shift = data.draw(st.lists(_SHIFTS, min_size=m, max_size=m))
    g3 = certify_map(k, PLMap(m, {
        v: tuple(x + s for x, s in zip(p, shift))
        for v, p in g.images.items()}))
    assume(g3.certified)  # a shift can make two coordinates equal
    moved = ConcretePlane(family,
                          tuple(x + s for x, s in zip(plane.basepoint, shift)),
                          plane.extra_directions)
    assert _counts(k, g3, moved) == counts

    # x_j -> s_j x_j with nonzero rational s_j: a linear automorphism of
    # the family that changes the denominators of every image
    scale = data.draw(st.lists(_SCALES, min_size=m, max_size=m))
    g4 = certify_map(k, PLMap(m, {
        v: tuple(x * s for x, s in zip(p, scale))
        for v, p in g.images.items()}))
    assume(g4.certified)  # a scaling can make two coordinates equal
    scaled = ConcretePlane(
        family, tuple(x * s for x, s in zip(plane.basepoint, scale)),
        tuple(tuple(x * s for x, s in zip(e, scale))
              for e in plane.extra_directions))
    assert _counts(k, g4, scaled) == counts

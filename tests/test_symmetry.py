"""Answers that must not change under the symmetries of their input.

Each oracle in oracles.py recomputes one answer another way; these tests
instead relate the answers to two inputs that the family's symmetries carry
into each other.  A stab decision does not depend on the order of the sets,
the order of the points in a set, or where the whole configuration sits:
translating every point by one vector moves a stabbing plane of the family
to another, and leaves the univariate decider's gcd ``reduced`` as it is.
The search's path does depend on the order, so a permuted input may miss a
stab the search found, but it answers a re-checked witness or not_found,
nothing else.  A count, and the number of pieces and of components of the
image and the preimage sections, depend neither on the names of the
vertices nor on one translation or one diagonal rational scaling of the
coordinates, or one linear map that keeps span(s_t) and span(s_T),
applied to the map and the plane together.  The metric
answers of ``section`` and ``cotype`` (the eps test, the largest squared
diameter and the clusters) do not depend on an isometry that keeps the
family: a permutation of the coordinates inside s_t, inside s_T minus s_t
and outside s_T, a sign flip of one coordinate, or a translation.
"""

import random
from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from plstab.batch import (random_complex, sample_plane_adversarial,
                          sample_plane_random)
from plstab.ratmath import mat_rank
from plstab.sections import (MAX_CLUSTER_COMPONENTS, component_clusters,
                             compute_components, eps_disjoint,
                             preimage_polytopes, section_of_image)
from plstab.simplicial import PLMap, SimplicialComplex, certify_map
from plstab.transversal import (ConcretePlane, PlaneFamily, PointSets,
                                decide_stab, max_disjoint_stabbed,
                                stab_decide_univariate, stab_regime)

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


@st.composite
def _line_inputs(draw):
    """A family and d-t+2 point sets of small integer points, one point
    more in all than a point flat of lambdas takes, so that the constraint
    flat is a line unless the points are degenerate."""
    family = draw(st.integers(1, 4).flatmap(_families))
    q = family.d - family.t + 2
    sizes = [1] * q
    for _ in range(1 + (q - 1) * (family.m - family.T)):
        sizes[draw(st.integers(0, q - 1))] += 1
    point = st.lists(st.integers(-3, 3), min_size=family.m,
                     max_size=family.m).map(lambda p: tuple(map(F, p)))
    return family, [[draw(point) for _ in range(n)] for n in sizes]


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
    got = decide_stab(PointSets.of(sets), family, 500, 0)
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


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_line_inputs(), st.data())
def test_univariate_reduced_is_invariant_under_translation(case, data):
    # translating every point leaves the row space of the flat's system,
    # so the flat's parametrization, and every block difference y_i - y_1
    # at each of its lambdas; the gcd of the maximal minors is then the
    # same polynomial, whatever the denominators the shift brings in
    family, sets = case
    sets = PointSets.of(sets)
    mode, flat = stab_regime(sets, family)
    assume(mode == "univariate")
    got = stab_decide_univariate(sets, family, flat)
    shift = data.draw(st.lists(_SHIFTS, min_size=family.m,
                               max_size=family.m))
    moved = [[tuple(x + s for x, s in zip(p, shift)) for p in ps]
             for ps in sets]
    moved = PointSets.of(moved)
    mode, flat_moved = stab_regime(moved, family)
    assert (mode, flat_moved) == ("univariate", flat)
    again = stab_decide_univariate(moved, family, flat_moved)
    assert (again.status, again.reduced) == (got.status, got.reduced)


@st.composite
def _search_inputs(draw):
    """A family and d-t+3 sets of two small integer points, the first
    point of every set on one member plane, so a stab exists and the
    search decides."""
    family = draw(st.sampled_from([PlaneFamily(2, (), (1, 2), 0),
                                   PlaneFamily(3, (), (1, 2, 3), 1),
                                   PlaneFamily(3, (1,), (1, 2, 3), 1)]))
    coord = st.integers(-3, 3)
    base = [draw(coord) for _ in range(family.m)]
    dirs = [[int(j == c) for j in range(1, family.m + 1)] for c in family.s_t]
    dirs += [[draw(coord) if j in family.s_T else 0
              for j in range(1, family.m + 1)]
             for _ in range(family.d - family.t)]
    sets = []
    for _ in range(family.d - family.t + 3):
        on = list(base)
        for v in dirs:
            a = draw(coord)
            on = [x + a * y for x, y in zip(on, v)]
        off = [draw(coord) for _ in range(family.m)]
        sets.append([tuple(map(F, on)), tuple(map(F, off))])
    return family, sets


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_search_inputs(), st.data())
def test_search_witness_survives_permutation_or_is_not_found(case, data):
    # the search path depends on the order of the sets and of their
    # points, so a permuted input may miss the stab; but it is still a
    # search, and any witness it returns is re-checked
    family, sets = case
    got = decide_stab(PointSets.of(sets), family, 200, 0)
    assume(got["mode"] == "search" and got["status"] == "witness")
    assert got["certified"]
    order = data.draw(st.permutations(range(len(sets))))
    permuted = [data.draw(st.permutations(sets[i])) for i in order]
    again = decide_stab(PointSets.of(permuted), family, 200, 0)
    assert again["mode"] == "search"
    assert again["status"] in ("witness", "not_found")
    assert again["certified"] == (again["status"] == "witness")


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
    g = certify_map(k, PLMap.of(m, {
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
    g2 = certify_map(k2, PLMap.of(m, {rename[v]: p
                                      for v, p in g.images.items()}))
    assert g2.certified
    assert _counts(k2, g2, plane) == counts

    shift = data.draw(st.lists(_SHIFTS, min_size=m, max_size=m))
    g3 = certify_map(k, PLMap.of(m, {
        v: tuple(x + s for x, s in zip(p, shift))
        for v, p in g.images.items()}))
    assume(g3.certified)  # a shift can make two coordinates equal
    moved = ConcretePlane.of(
        family, tuple(x + s for x, s in zip(plane.basepoint, shift)),
        plane.extra_directions)
    assert _counts(k, g3, moved) == counts

    # x_j -> s_j x_j with nonzero rational s_j: a linear automorphism of
    # the family that changes the denominators of every image
    scale = data.draw(st.lists(_SCALES, min_size=m, max_size=m))
    g4 = certify_map(k, PLMap.of(m, {
        v: tuple(x * s for x, s in zip(p, scale))
        for v, p in g.images.items()}))
    assume(g4.certified)  # a scaling can make two coordinates equal
    scaled = ConcretePlane.of(
        family, tuple(x * s for x, s in zip(plane.basepoint, scale)),
        tuple(tuple(x * s for x, s in zip(e, scale))
                 for e in plane.extra_directions))
    assert _counts(k, g4, scaled) == counts


def _block_triangular(rng, family):
    """Rows of a random invertible rational matrix A with
    A span(s_t) = span(s_t) and A span(s_T) = span(s_T): entry (i, j) is
    nonzero only when coordinate i's class (s_t, then s_T minus s_t, then
    the rest) is at most j's, so in that order A is block upper
    triangular, and it is drawn until its rank is m."""
    m = family.m
    rank = {j: 0 if j in family.s_t else 1 if j in family.s_T else 2
            for j in range(1, m + 1)}
    while True:
        rows = [[F(rng.randint(-9, 9), rng.randint(1, 11))
                 if rank[i] <= rank[j] else F(0) for j in range(1, m + 1)]
                for i in range(1, m + 1)]
        if mat_rank(rows) == m:
            return rows


def test_counts_are_invariant_under_block_triangular_maps():
    # A linear A that keeps span(s_t) and span(s_T) carries a member
    # plane of the family, through b with directions e, to the member
    # through A b with directions A e, and the image of every simplex with
    # it: the count and the numbers of pieces and components of both
    # sections stay.  A draw whose moved map fails certification (two
    # coordinates or a simplex made degenerate) is skipped and counted.
    rng = random.Random(39)
    checked = skipped = 0
    for _ in range(60):
        m = rng.randint(2, 4)
        s_T = tuple(sorted(rng.sample(range(1, m + 1), rng.randint(0, m))))
        s_t = tuple(sorted(rng.sample(s_T, rng.randint(0, len(s_T)))))
        # extra directions wherever the family allows them, so that A moves
        # them too
        family = PlaneFamily(m, s_t, s_T, rng.randint(
            min(len(s_t) + 1, len(s_T)), len(s_T)))
        k = random_complex(rng, rng.randint(4, 7), 2, F(1, 3))
        coords = rng.sample(range(-40, 41), len(k.vertices) * m)
        g = certify_map(k, PLMap.of(m, {
            v: tuple(map(F, coords[i * m:(i + 1) * m]))
            for i, v in enumerate(k.vertices)}))
        if not g.certified:
            continue
        plane = (sample_plane_adversarial(rng, family, k, g)
                 if rng.random() < 0.7
                 else sample_plane_random(rng, family, g))
        a = _block_triangular(rng, family)

        def apply(p):
            return tuple(sum((x * y for x, y in zip(row, p)), F(0))
                         for row in a)

        moved = certify_map(k, PLMap.of(m, {v: apply(p)
                                               for v, p in g.images.items()}))
        if not moved.certified:
            skipped += 1
            continue
        moved_plane = ConcretePlane.of(
            family, apply(plane.basepoint),
            tuple(map(apply, plane.extra_directions)))
        assert _counts(k, moved, moved_plane) == _counts(k, g, plane)
        checked += 1
    assert checked >= 50 and skipped <= 5


_ANY_FAMILY = st.integers(2, 4).flatmap(_families)
# a d-plane with d >= m - 1 cuts a 2-simplex image in a segment or more
_WIDE_FAMILY = _ANY_FAMILY.filter(lambda f: f.d + 1 >= f.m)


def _fields(section):
    """The components of a section, and the report fields it shares."""
    part = compute_components(section)
    return part, {"pieces": len(section.pieces),
                  "components": len(part.components),
                  "max_diameter_sq": max(part.diameters_sq, default=0)}


def _metric_answers(k, g, plane, eps, eps_pre, q):
    """The section answer at eps and the cotype answer at eps_pre and q,
    field for field as the CLI reports them."""
    image, section = _fields(section_of_image(k, g, plane))
    section["result"] = eps_disjoint(image, eps)
    preimage, cotype = _fields(preimage_polytopes(k, g, plane))
    assume(q >= len(preimage.components)
           or len(preimage.components) <= MAX_CLUSTER_COMPONENTS)
    clusters = component_clusters(preimage, q, eps_pre)
    cotype.update(result=clusters is not None, clusters=clusters)
    return section, cotype


def _moved(k, g, plane, point_map, linear_map):
    """The map and the plane carried by one affine isometry, given by its
    action on points and on directions; None when the moved map fails
    certification."""
    g2 = certify_map(k, PLMap.of(g.m, {v: point_map(p)
                                       for v, p in g.images.items()}))
    if not g2.certified:
        return None
    return g2, ConcretePlane.of(plane.family, point_map(plane.basepoint),
                                tuple(map(linear_map, plane.extra_directions)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.one_of(_ANY_FAMILY, _WIDE_FAMILY), st.integers(4, 7),
       st.integers(0, 2 ** 32), st.data())
def test_metric_answers_are_invariant_under_the_family_isometries(
        family, nv, seed, data):
    m = family.m
    rng = random.Random(seed)
    k = random_complex(rng, nv, 2, F(1, 3))
    coords = data.draw(st.lists(st.integers(-40, 40), unique=True,
                                min_size=nv * m, max_size=nv * m))
    g = certify_map(k, PLMap.of(m, {
        v: tuple(map(F, coords[i * m:(i + 1) * m]))
        for i, v in enumerate(k.vertices)}))
    assume(g.certified)
    plane = sample_plane_adversarial(rng, family, k, g)
    # image coordinates span 80, a preimage at most sqrt(2)
    eps = data.draw(st.sampled_from([F(1, 2), F(5), F(20), F(60)]))
    eps_pre = data.draw(st.sampled_from([F(1, 4), F(3, 4), F(5, 4)]))
    q = data.draw(st.integers(1, 3))
    answers = _metric_answers(k, g, plane, eps, eps_pre, q)

    # a permutation of the coordinates inside each class of the family
    classes = [list(family.s_t),
               [c for c in family.s_T if c not in family.s_t],
               [c for c in range(1, m + 1) if c not in family.s_T]]
    target = {}
    for cls in classes:
        target.update(zip(cls, data.draw(st.permutations(cls))))

    def permute(p):
        out = [None] * m
        for c, x in enumerate(p, start=1):
            out[target[c] - 1] = x
        return tuple(out)

    flip = data.draw(st.integers(0, m - 1))

    def flip_sign(p):
        return tuple(-x if c == flip else x for c, x in enumerate(p))

    shift = data.draw(st.lists(_SHIFTS, min_size=m, max_size=m))

    def translate(p):
        return tuple(x + s for x, s in zip(p, shift))

    for point_map, linear_map in ((permute, permute), (flip_sign, flip_sign),
                                  (translate, lambda e: e)):
        moved = _moved(k, g, plane, point_map, linear_map)
        assume(moved is not None)  # two coordinates may become equal
        assert _metric_answers(k, *moved, eps, eps_pre, q) == answers

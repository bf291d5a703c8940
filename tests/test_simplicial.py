import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (coords_pairwise_distinct, det_cofactor,
                     full_position_transcript, max_minor_by_subsets)
from plstab import simplicial
from plstab.generic import GenericityError, GenericPool
from plstab.ratmath import dist_sq, lp_feasible, mat_rank, vec, vec_sub
from plstab.simplicial import (ParseError, PLMap, SimplicialComplex,
                               certify_map, format_complex, format_map,
                               generic_position_transcript, image_point,
                               parse_complex, parse_map, roberts_perturb)

F = Fraction


def test_parse_edge():
    k = parse_complex("v a\nv b\ns a b\n")
    assert k.simplexes == frozenset({("a",), ("b",), ("a", "b")})
    assert k.vertices == ("a", "b")


def test_parse_duplicate_vertex_in_simplex():
    with pytest.raises(ParseError) as err:
        parse_complex("v a\ns a a\n")
    assert err.value.line == 2


def test_parse_unknown_vertex():
    with pytest.raises(ParseError) as err:
        parse_complex("v a\ns a b\n")
    assert err.value.line == 2
    assert "b" in str(err.value)


def test_parse_malformed_line():
    with pytest.raises(ParseError) as err:
        parse_complex("q zzz\n")
    assert err.value.line == 1


def test_parse_comments_and_blank_lines():
    k = parse_complex("# header\n\nv a  # trailing\nv b\ns a b\n")
    assert k.vertices == ("a", "b")


def test_maximal_simplexes_match_the_quadratic_definition():
    cases = [
        ("abc", ["ab", "cba"]),  # a declared edge inside a declared triangle
        ("abcd", ["bcd", "dcb", "ab"]),  # a triangle declared twice
        ("abcde", ["bd"]),  # isolated vertices a, c and e
        ("", []),  # the empty complex
    ]
    rng = random.Random(41)
    for _ in range(80):
        vertices = [f"v{i}" for i in range(rng.randint(1, 9))]
        cases.append((vertices, [
            rng.sample(vertices, rng.randint(1, min(4, len(vertices))))
            for _ in range(rng.randint(0, 6))]))
    for vertices, declared in cases:
        k = SimplicialComplex.from_simplexes(list(vertices),
                                             [list(s) for s in declared])
        # unused vertices stay as isolated 0-simplexes
        want = [s for s in k.sorted_simplexes()
                if not any(set(s) < set(t) for t in k.simplexes)]
        assert k.maximal_simplexes() == want
        assert k.dim == max((len(s) for s in k.simplexes), default=0) - 1


def test_round_trip_triangle():
    text = "v a\nv b\nv c\ns a b c\n"
    k = parse_complex(text)
    again = parse_complex(format_complex(k))
    assert again == k
    assert format_complex(again) == format_complex(k)


def test_closure_by_enumeration():
    k = parse_complex("v a\nv b\nv c\nv d\ns a b c\ns c d\n")
    for s in k.simplexes:
        for size in range(1, len(s) + 1):
            for face in itertools.combinations(s, size):
                assert face in k.simplexes


@pytest.mark.parametrize("ceiling, refused", [
    (6, "a simplex on 3 vertices has more than 6 faces"),
    (15, "the complex has more than 15 simplexes"),  # after round one, 16
    (27, "the complex has more than 27 simplexes"),  # after round two, 28
    (28, None),
])
def test_closure_refuses_a_complex_past_the_ceiling(monkeypatch, ceiling,
                                                    refused):
    # four disjoint triangles: 4 + 12 simplexes after the first round of
    # the closure, 28 after the second; a triangle alone has 7 faces
    monkeypatch.setattr(simplicial, "MAX_SIMPLEXES", ceiling)
    text = "".join(f"v {v}\n" for v in "abcdefghijkl") + "".join(
        f"s {' '.join(t)}\n" for t in ("abc", "def", "ghi", "jkl"))
    if refused is None:
        assert len(parse_complex(text).simplexes) == 28
    else:
        with pytest.raises(ValueError) as info:
            parse_complex(text)
        assert str(info.value) == refused


_EDGE = SimplicialComplex.from_simplexes(["a", "b"], [["a", "b"]])


@pytest.mark.parametrize("call, error, message", [
    (lambda: SimplicialComplex.from_simplexes(["a", "a"], []), ValueError,
     "duplicate vertex id"),
    (lambda: SimplicialComplex.from_simplexes(["a"], [["a", "b"]]),
     ValueError, "unknown vertex id 'b'"),
    (lambda: SimplicialComplex.from_simplexes(["a", "b"], [["a", "b", "a"]]),
     ValueError, "duplicate vertex in a simplex"),
    (lambda: roberts_perturb(_EDGE, PLMap(1, {"a": vec([0]), "b": vec([1])}),
                             F(0), GenericPool(1)),
     ValueError, "eps must be positive"),
    (lambda: roberts_perturb(_EDGE, PLMap(1, {"a": vec([0])}), F(1),
                             GenericPool(1)),
     ValueError, "missing vertex 'b'"),
    (lambda: image_point(PLMap(1, {"a": vec([0]), "b": vec([1])}),
                         ("a", "b"), [F(1)]),
     ValueError, "barycentric length does not match simplex size"),
], ids=["duplicate-id", "unknown-id", "repeated-vertex", "eps",
        "theta-lacks-a-vertex", "weights-length"])
def test_simplicial_input_checks_raise(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_unused_vertex_becomes_singleton():
    k = parse_complex("v a\nv b\ns a\n")
    assert ("b",) in k.simplexes


def test_map_round_trip_and_errors():
    text = "m 2\np a 1/2 -3\np b 0 7/5\n"
    g = parse_map(text)
    assert g.m == 2
    assert g.images["a"] == vec([F(1, 2), -3])
    assert format_map(parse_map(format_map(g))) == format_map(g)
    with pytest.raises(ParseError):
        parse_map("p a 1 2\n")  # point before header
    with pytest.raises(ParseError):
        parse_map("m 2\np a 1\n")  # wrong arity
    with pytest.raises(ParseError) as err:
        parse_map("m 1\np a 1/0\n")
    assert err.value.line == 2


# --- perturbation -----------------------------------------------------------

def _const_map(k, m, value=F(0)):
    return PLMap(m, {v: tuple(value for _ in range(m)) for v in k.vertices})


def test_perturb_three_isolated_vertices():
    k = parse_complex("v a\nv b\nv c\n")
    g = roberts_perturb(k, _const_map(k, 2), F(1), GenericPool(0))
    assert g.certified
    coords = [x for v in k.vertices for x in g.images[v]]
    assert len(set(coords)) == 6
    for v in k.vertices:
        assert dist_sq(g.images[v], (F(0), F(0))) < 1


def test_perturb_collinear_triangle_becomes_independent():
    k = parse_complex("v a\nv b\nv c\ns a b c\n")
    theta = PLMap(3, {"a": vec([0, 0, 0]), "b": vec([1, 1, 1]),
                      "c": vec([2, 2, 2])})
    g = roberts_perturb(k, theta, F(1, 10), GenericPool(4))
    assert g.certified
    diffs = [vec_sub(g.images["b"], g.images["a"]),
             vec_sub(g.images["c"], g.images["a"])]
    assert mat_rank(diffs) == 2


def test_perturb_deterministic():
    k = parse_complex("v a\nv b\ns a b\n")
    theta = _const_map(k, 2)
    g1 = roberts_perturb(k, theta, F(1, 3), GenericPool(9))
    g2 = roberts_perturb(k, theta, F(1, 3), GenericPool(9))
    assert g1.images == g2.images
    assert format_map(g1) == format_map(g2)


def test_perturb_proximity_exact():
    k = parse_complex("v a\nv b\nv c\ns a b\ns b c\n")
    theta = PLMap(3, {"a": vec([5, 0, 0]), "b": vec([0, 5, 0]),
                      "c": vec([0, 0, 5])})
    eps = F(1, 7)
    g = roberts_perturb(k, theta, eps, GenericPool(12))
    for v in k.vertices:
        assert dist_sq(g.images[v], theta.images[v]) < eps * eps


class _DegeneratePool(GenericPool):
    """Returns the target itself, so the first attempt cannot certify."""

    def draw_near(self, target, eps, stream):
        return F(target)


def test_perturb_regenerates_after_failed_certificate():
    k = parse_complex("v a\nv b\ns a b\n")
    theta = _const_map(k, 2)
    g = roberts_perturb(k, theta, F(1), _DegeneratePool(21))
    assert g.certified
    # the successful attempt came from the successor seed
    expected = roberts_perturb(k, theta, F(1), GenericPool(22))
    assert g.images == expected.images


def test_perturbed_map_carries_certify_maps_certificate():
    # one place builds a map's certificate: a perturbed map's, first
    # attempt or regenerated, is the one certify_map gives its images
    for k, pool in ((parse_complex("v a\nv b\nv c\nv d\ns a b c\ns c d\n"),
                     GenericPool(3)),
                    (parse_complex("v a\nv b\ns a b\n"), _DegeneratePool(21))):
        g = roberts_perturb(k, _const_map(k, 3), F(1, 2), pool)
        again = certify_map(k, PLMap(g.m, g.images))
        assert g.certified and again.certificate == g.certificate


def test_perturb_impossible_dimension_exhausts():
    # a 3-simplex cannot have affinely independent images in R^2
    k = parse_complex("v a\nv b\nv c\nv d\ns a b c d\n")
    with pytest.raises(GenericityError):
        roberts_perturb(k, _const_map(k, 2), F(1), GenericPool(0))


def test_certify_map_detects_degeneracy():
    k = parse_complex("v a\nv b\ns a b\n")
    bad = PLMap(2, {"a": vec([0, 1]), "b": vec([0, 2])})  # repeated coordinate 0
    assert not certify_map(k, bad).certified
    good = PLMap(2, {"a": vec([1, 2]), "b": vec([3, 4])})
    assert certify_map(k, good).certified


def test_map_keeps_one_integer_form():
    # each image cleared once, when the map is built: certify_map hands the
    # same form on, and the map's fields cannot be rebound
    k = parse_complex("v a\nv b\nv c\ns a b c\n")
    g = PLMap(2, {"a": vec([F(1, 2), F(2, 3)]), "b": vec([3, F(5, 4)]),
                  "c": vec([F(-7, 6), F(1, 9)])})
    assert g.cleared == {"a": (6, [3, 4]), "b": (4, [12, 5]),
                         "c": (18, [-21, 2])}
    got = certify_map(k, g)
    assert got.certified and got.cleared is g.cleared
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.certificate = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.cleared = {}


def test_transcript_size_is_linear_in_coordinates():
    # N - 1 neighbour differences for N = 4 * 3 coordinates, plus one
    # condition per maximal simplex with at least three vertices: the
    # triangle a b c.  Its edges and the edge c d are implied by the
    # distinct coordinates.
    k = parse_complex("v a\nv b\nv c\nv d\ns a b c\ns c d\n")
    images = {v: vec([F(3 * i + s, 7 + i + s) for s in range(3)])
              for i, v in enumerate(k.vertices)}
    g = PLMap(3, images)
    transcript = generic_position_transcript(k, g)
    assert len(transcript) == (12 - 1) + 1
    assert certify_map(k, g).certified


def _edge_rows(images, simplex):
    base = images[simplex[0]]
    return [[x - y for x, y in zip(images[v], base)] for v in simplex[1:]]


def _oracle_gram(images, simplex):
    diffs = _edge_rows(images, simplex)
    return det_cofactor([[sum((a * b for a, b in zip(r, t)), F(0)) for t in diffs]
                         for r in diffs])


@st.composite
def _maps_with_ties(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 3))
    names = [f"v{i}" for i in range(n)]
    simplexes = []
    if n > 1:
        simplexes = draw(st.lists(st.lists(st.sampled_from(names), min_size=2,
                                           max_size=3, unique=True), max_size=4))
    value = st.one_of(
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        st.fractions(min_value=-100, max_value=100, max_denominator=10 ** 6))
    coords = [[draw(value) for _ in range(m)] for _ in names]
    # copy coordinate (a, s) onto (b, t): a tie across vertices when a != b,
    # inside one vertex when a == b and s != t
    ties = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1),
                                   st.integers(0, n - 1), st.integers(0, m - 1)),
                         max_size=2))
    for a, s, b, t in ties:
        coords[b][t] = coords[a][s]
    k = SimplicialComplex.from_simplexes(names, simplexes)
    return k, PLMap(m, {v: tuple(c) for v, c in zip(names, coords)})


def _scaled_minors(k, images):
    """Per maximal simplex with at least three vertices, by size and then
    vertex ids: the simplex and the oracle's first nonzero maximal minor
    of its edge rows times prod_i D_0 D_i, D_v the lcm of the denominators
    of p_v."""
    out = []
    for simplex in sorted(k.simplexes, key=lambda s: (len(s), s)):
        if len(simplex) < 3 or any(set(simplex) < set(t) for t in k.simplexes):
            continue
        d = [math.lcm(*(x.denominator for x in images[v])) for v in simplex]
        scale = math.prod(d[0] * di for di in d[1:])
        out.append((simplex,
                    max_minor_by_subsets(_edge_rows(images, simplex)) * scale))
    return out


@given(_maps_with_ties())
@settings(max_examples=200, deadline=None)
def test_certify_map_matches_oracles(case):
    # by position: the N-1 neighbour conditions of the N coordinates, then
    # one minor per maximal simplex with at least three vertices
    k, g = case
    transcript = generic_position_transcript(k, g)
    n = len(k.vertices) * g.m
    expected_minors = _scaled_minors(k, g.images)
    assert len(transcript) == n - 1 + len(expected_minors)
    assert all(type(c) is int for c in transcript)
    coords = [x for v in k.vertices for x in g.images[v]]
    assert all(transcript[:n - 1]) == coords_pairwise_distinct(coords)
    for value, (simplex, expected) in zip(transcript[n - 1:], expected_minors):
        # the first nonzero maximal minor of the edge rows, which vanishes
        # exactly when their Gram determinant does, cleared of denominators
        assert value == expected
        assert (value == 0) == (_oracle_gram(g.images, simplex) == 0)
    expected = (coords_pairwise_distinct(coords)
                and all(v != 0 for _, v in expected_minors))
    assert certify_map(k, g).certified == expected


def test_certify_map_records_an_exact_zero_minor():
    # a, b and c lie on y = 2x and d does not, with every coordinate
    # distinct: the triangle abc is the first zero of the transcript
    k = parse_complex("v a\nv b\nv c\nv d\ns a b c\ns b c d\n")
    g = certify_map(k, PLMap(2, {"a": vec([F(1, 3), F(2, 3)]),
                                 "b": vec([F(3, 2), 3]),
                                 "c": vec([F(5, 7), F(10, 7)]),
                                 "d": vec([4, F(1, 5)])}))
    conditions = g.certificate.conditions
    # 4 * 2 - 1 coordinate conditions, then the maximal triangles abc bcd;
    # the edges are implied by the distinct coordinates
    minors = _scaled_minors(k, g.images)
    assert [s for s, _ in minors] == [("a", "b", "c"), ("b", "c", "d")]
    assert len(conditions) == 7 + 2
    assert all(conditions[:7])
    assert list(conditions[7:]) == [v for _, v in minors]
    assert g.certificate.failed_index == 7
    assert conditions[7] == 0 and type(conditions[7]) is int
    assert not g.certified
    assert [s for s, v in minors if v == 0] == [("a", "b", "c")]


@st.composite
def _small_integer_maps(draw):
    """(complex, map, declared simplexes) with small integer coordinates,
    pairwise distinct in about half the draws, so that the neighbour
    conditions and the minors each come out zero in some draws."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 3))
    names = [f"v{i}" for i in range(n)]
    declared = draw(st.lists(st.lists(st.sampled_from(names), min_size=1,
                                      max_size=4, unique=True), max_size=4))
    flat = draw(st.lists(st.integers(-8, 8), min_size=n * m, max_size=n * m,
                         unique=draw(st.booleans())))
    images = {v: vec(flat[i * m:(i + 1) * m]) for i, v in enumerate(names)}
    return (SimplicialComplex.from_simplexes(names, declared),
            PLMap(m, images), declared)


@given(_small_integer_maps())
@example((SimplicialComplex.from_simplexes(("a", "b", "c"), [("a", "b", "c")]),
          PLMap(2, {"a": vec([1, 2]), "b": vec([3, 6]), "c": vec([4, 8])}),
          [("a", "b", "c")]))  # distinct coordinates, collinear images
@settings(max_examples=300, deadline=None)
def test_certify_map_matches_the_full_transcript(case):
    # the map certificate drops the conditions that distinct coordinates
    # and independent cofaces imply, so a map certifies exactly when the
    # oracle's transcript of every coordinate pair and every face has no
    # zero
    k, g, declared = case
    assert certify_map(k, g).certified == all(
        full_position_transcript(declared, g.images))

# --- affine extension and disjointness ---------------------------------------

def test_image_point_vertex():
    k = parse_complex("v a\nv b\ns a b\n")
    g = PLMap(2, {"a": vec([1, 2]), "b": vec([3, 5])})
    assert image_point(g, ("a", "b"), [1, 0]) == vec([1, 2])


def test_image_point_midpoint():
    g = PLMap(2, {"a": vec([1, 2]), "b": vec([3, 5])})
    assert image_point(g, ("a", "b"), [F(1, 2), F(1, 2)]) == vec([2, F(7, 2)])


def test_image_point_barycenter():
    g = PLMap(2, {"a": vec([0, 0]), "b": vec([3, 0]), "c": vec([0, 3])})
    assert image_point(g, ("a", "b", "c"),
                       [F(1, 3)] * 3) == vec([1, 1])


def test_image_point_validates():
    g = PLMap(1, {"a": vec([0]), "b": vec([1])})
    with pytest.raises(ValueError):
        image_point(g, ("a", "b"), [F(1, 2), F(1, 4)])


def _images_intersect(g, s1, s2):
    k1, k2 = len(s1), len(s2)
    rows = []
    for c in range(g.m):
        rows.append([g.images[v][c] for v in s1] +
                    [-g.images[v][c] for v in s2])
    rows.append([1] * k1 + [0] * k2)
    rows.append([0] * k1 + [1] * k2)
    rhs = [0] * g.m + [1, 1]
    return lp_feasible(rows, rhs) is not None


def test_disjointness_matches_geometry_on_random_complexes():
    rng = random.Random(31)
    for trial in range(6):
        nv = rng.randint(4, 6)
        names = [f"v{i}" for i in range(nv)]
        maximal = []
        for _ in range(rng.randint(2, 4)):
            size = rng.randint(1, 3)
            maximal.append(rng.sample(names, size))
        k = SimplicialComplex.from_simplexes(names, maximal)
        m = 2 * k.dim + 1
        theta = PLMap(m, {v: tuple(F(rng.randint(0, 8)) for _ in range(m))
                          for v in names})
        g = roberts_perturb(k, theta, F(1, 5), GenericPool(trial))
        simp = k.sorted_simplexes()
        for s1, s2 in itertools.combinations(simp, 2):
            # m = 2 dim + 1: general position keeps the images of
            # vertex-disjoint simplexes apart
            expected = not set(s1) & set(s2)
            assert (not _images_intersect(g, s1, s2)) == expected

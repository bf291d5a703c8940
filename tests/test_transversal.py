import hashlib
import inspect
import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from oracles import (basic_feasible_solutions, block_differences_naive,
                     det_cofactor, feasible_by_basic_solutions, integer_poly,
                     max_disjoint_by_subsets, membership_rows,
                     poly_det_cofactor, poly_eval_naive, poly_mul_naive,
                     primitive_gcd, rank_by_minors, sturm_count_euclid,
                     univariate_by_gram)
from plstab.batch import (random_complex, random_map, sample_plane_adversarial,
                          sample_plane_random)
from plstab import transversal
from plstab.generic import GenericPool
from plstab.ratmath import (_cleared, _sign_at, hull_rows, solve_affine,
                            square_free_part, sturm_count, unit_vec, vec)
from plstab.sections import preimage_polytopes, section_of_image
from plstab.simplicial import (PLMap, SimplicialComplex, certify_map,
                               format_complex, format_map, parse_complex,
                               parse_map, roberts_perturb)
from plstab.transversal import (SEARCH_BUDGET, BoundResult, ConcretePlane,
                                NonStabCase,
                                PlaneFamily, PointSets, StabDecision,
                                decide_stab, family_from_json_dict,
                                family_to_json_dict, max_disjoint_stabbed,
                                nonstab_case, plane_from_json_dict,
                                plane_through, plane_to_json_dict, stab_bound,
                                stab_decide_univariate, stab_exists_linear,
                                stab_regime, stab_search_general,
                                stabbed_simplexes,
                                verify_interval_certificate,
                                verify_stab_witness, _isolate)

F = Fraction


# --- plane families and concrete planes --------------------------------------

def test_family_validation():
    PlaneFamily(4, (1,), (1, 3), 2)
    with pytest.raises(ValueError):
        PlaneFamily(4, (3,), (1,), 1)  # s_t not inside s_T
    with pytest.raises(ValueError):
        PlaneFamily(4, (), (1, 5), 1)  # index out of range
    with pytest.raises(ValueError):
        PlaneFamily(4, (1, 2), (1, 2, 3), 1)  # d below t


def test_concrete_plane_validation():
    fam = PlaneFamily(3, (), (1, 2), 1)
    ConcretePlane.of(fam, vec([0, 0, 0]), (vec([1, 2, 0]),))
    with pytest.raises(ValueError):
        # leaves span(s_T)
        ConcretePlane.of(fam, vec([0, 0, 0]), (vec([1, 0, 1]),))
    with pytest.raises(ValueError):
        ConcretePlane.of(fam, vec([0, 0, 0]), ())  # wrong direction count


def test_plane_membership_via_covectors():
    fam = PlaneFamily(3, (1,), (1, 2, 3), 2)
    plane = ConcretePlane.of(fam, vec([0, 1, 1]), (vec([0, 1, 1]),))
    assert plane.contains(vec([7, 1, 1]))
    assert plane.contains(vec([7, 3, 3]))
    assert not plane.contains(vec([7, 3, 2]))
    assert len(plane.covectors()) == 1  # codimension m - d


def _rational_covectors(plane):
    """The covectors built on Fractions: a unit covector per coordinate
    outside s_T, then the solve's rational nullspace basis of the extra
    directions on the block, embedded, with the basepoint's values."""
    fam = plane.family
    base = plane.basepoint
    rows = [fam.restrict(e, "extra direction")
            for e in plane.extra_directions]
    width = len(fam.block)
    basis = (solve_affine(rows, [0] * len(rows))[1] if rows
             else [unit_vec(width, j) for j in range(1, width + 1)])
    at_block = [base[j - 1] for j in fam.block]
    return ([(unit_vec(fam.m, j), base[j - 1]) for j in fam.outside]
            + [(fam.embed(nb), sum(x * y for x, y in zip(nb, at_block)))
               for nb in basis])


def test_integer_covectors_clear_the_rational_ones():
    # the plane's integer covectors are the cleared rational covectors,
    # right-hand sides in lowest terms, and the Fraction view is them
    rng = random.Random(5)
    for _ in range(200):
        m = rng.randint(1, 5)
        s_T = tuple(sorted(rng.sample(range(1, m + 1), rng.randint(0, m))))
        s_t = tuple(sorted(rng.sample(s_T, rng.randint(0, len(s_T)))))
        fam = PlaneFamily(m, s_t, s_T, rng.randint(len(s_t), len(s_T)))
        spans = [fam.embed([F(rng.randint(-4, 4), rng.randint(1, 6))
                            for _ in fam.block])
                 for _ in range(rng.randint(0, fam.d - fam.t))]
        base = [F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(m)]
        plane = plane_through(fam, base, spans)
        want = _rational_covectors(plane)
        assert plane.covectors() == tuple(want)
        assert [(_cleared(c)[0], tuple(_cleared(c)[1]), rhs.numerator,
                 rhs.denominator) for c, rhs in want] == [
            (s, row, a, b) for row, s, a, b in plane.integer_covectors]


def test_a_load_builds_no_fraction(monkeypatch):
    # A count, section or cotype request loads its map and its plane on
    # their integer forms: parse_map, certify_map, plane_from_json_dict and
    # stabbed_simplexes build no Fraction, for planes with and without
    # extra directions, and the membership walk still finds their stabs.
    rng = random.Random(7)
    k = random_complex(rng, 7, 2, F(1, 2))
    g = roberts_perturb(k, random_map(rng, k, 3), F(1, 2), GenericPool(3))
    complex_text, map_text = format_complex(k), format_map(g)
    planes = [plane_to_json_dict(sample_plane_adversarial(
        rng, PlaneFamily(3, s_t, s_T, d), k, g))
        for s_t, s_T, d in (((), (1, 2, 3), 1), ((1,), (1, 2), 1),
                            ((), (1, 2, 3), 2))]
    assert [len(data["extra_dirs"]) for data in planes] == [1, 0, 2]
    built = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    hits = []
    for data in planes:
        k2 = parse_complex(complex_text)
        g2 = certify_map(k2, parse_map(map_text))
        plane = plane_from_json_dict(data)
        hits.append(len(stabbed_simplexes(k2, g2, plane, 2)[0]))
    monkeypatch.undo()
    assert built == []
    assert g2.certified and all(hits)


def test_plane_through_pads_dimension():
    fam = PlaneFamily(4, (), (1, 2, 3), 2)
    plane = plane_through(fam, vec([0, 0, 0, 0]), [vec([1, 1, 0, 0])])
    assert len(plane.extra_directions) == fam.d - fam.t == 2
    assert plane.contains(vec([1, 1, 0, 0]))


def test_plane_json_round_trip():
    fam = PlaneFamily(3, (2,), (1, 2), 2)
    plane = ConcretePlane.of(fam, vec([F(1, 2), 0, 3]), (vec([1, -1, 0]),))
    again = plane_from_json_dict(plane_to_json_dict(plane))
    assert again == plane
    assert family_from_json_dict(family_to_json_dict(fam)) == fam


# --- bounds and the case predicate -------------------------------------------

def test_stab_bound_line_family():
    got = stab_bound(2, 4, 1, 0, 3)
    assert got == BoundResult(F(5), 5, "N1")


def test_stab_bound_point_preimages():
    got = stab_bound(1, 3, 0, 0, 3)
    assert got.regime == "N1"
    assert got.value == F(3, 2)
    assert got.floor == 1


def test_stab_bound_second_regime():
    got = stab_bound(1, 5, 2, 0, 2)
    assert got.regime == "N2"
    assert got.value == 1 + F(1, 5 - 1 - 2)
    assert got.floor == 1


def test_stab_bound_table_n_plus_r():
    for n in (1, 2, 3):
        for r in range(1, n + 3):
            assert stab_bound(n, n + 2, 1, 0, r).floor == n + r


def test_stab_bound_invalid_parameters():
    with pytest.raises(ValueError):
        stab_bound(2, 4, 2, 0, 2)  # m - n - d = 0 in regime N1
    with pytest.raises(ValueError):
        stab_bound(1, 3, 1, 0, 4)  # T above m


def test_stab_bound_tie_selects_first_regime():
    # n = (m-n-T)(d-t) exactly
    got = stab_bound(2, 6, 1, 0, 2)
    assert got.regime == "N1"
    # both formulas coincide at the tie
    assert got.value == 1 + F(2, 6 - 2 - 2)


def test_nonstab_case_examples():
    # q = d-t+1 makes both inequalities coincide; case I is reported
    assert nonstab_case([0, 0], 3, 1, 0, 1) is NonStabCase.CASE_I
    assert nonstab_case([1, 1, 1], 5, 1, 0, 1) is NonStabCase.CASE_I
    assert nonstab_case([1, 1], 3, 1, 0, 3) is NonStabCase.INCONCLUSIVE
    # strict few-sets regime
    assert nonstab_case([0, 0], 5, 2, 0, 2) is NonStabCase.CASE_II
    assert nonstab_case([0], 3, 1, 0, 1) is NonStabCase.INCONCLUSIVE


def test_bound_floor_monotone_in_m():
    for n, d, t in itertools.product(range(0, 3), range(0, 3), range(0, 3)):
        if t > d:
            continue
        for T in range(d, 7):
            floors = []
            for m in range(max(T, n + d + 1), 9):
                if n < (m - n - T) * (d - t):
                    continue  # outside the first regime
                floors.append(stab_bound(n, m, d, t, T).floor)
            assert all(a >= b for a, b in zip(floors, floors[1:]))


def test_case_predicate_matches_bound_arithmetic():
    # exceeding the bound triggers case I, staying within never does
    for m in range(1, 9):
        for n in range(0, 4):
            for t in range(0, m + 1):
                for d in range(t, m - n):
                    for T in range(d, m + 1):
                        if n < (m - n - T) * (d - t):
                            continue
                        b = stab_bound(n, m, d, t, T)
                        for q in range(max(d - t + 1, 1), b.floor + 1):
                            assert nonstab_case([n] * q, m, d, t, T) \
                                is not NonStabCase.CASE_I
                        for q in range(b.floor + 1, b.floor + 4):
                            assert nonstab_case([n] * q, m, d, t, T) \
                                is NonStabCase.CASE_I


def test_theorem_2_floor_is_the_case_threshold_for_n_simplexes():
    # Theorem 2's floor q0 is exactly where the counting inequalities start
    # to forbid a transversal to n-simplexes: q0 of them are not forbidden
    # and q0 + 1 are, by case I or case II, in both regimes of every
    # admissible cell with n <= 4 and m <= 14.
    cells = 0
    for n, m in itertools.product(range(5), range(15)):
        for t, d, T in itertools.combinations_with_replacement(range(m + 1), 3):
            try:
                q0 = stab_bound(n, m, d, t, T).floor
            except ValueError:
                continue  # not admissible
            cells += 1
            assert nonstab_case([n] * q0, m, d, t, T) \
                is NonStabCase.INCONCLUSIVE
            assert nonstab_case([n] * (q0 + 1), m, d, t, T) \
                is not NonStabCase.INCONCLUSIVE
    assert cells == 12087


def test_theorem_2_named_cases():
    for n in range(5):
        # Noebeling-Pontryagin: generic maps into m >= 2n+1 are embeddings
        for m in range(2 * n + 1, 15):
            assert stab_bound(n, m, 0, 0, m).floor == 1
        # Hurewicz: point preimages of generic maps into n+1 <= m <= 2n
        for m in range(n + 1, 2 * n + 1):
            assert stab_bound(n, m, 0, 0, m).floor == 1 + n // (m - n)
        # Boltyanski: generic maps into m = nk+n+k are k-regular
        for k in range(1, 5):
            m = n * k + n + k
            assert stab_bound(n, m, k - 1, 0, m).floor == k
    assert [stab_bound(n, m, 0, 0, m).floor
            for n, m in ((2, 3), (2, 4), (3, 5))] == [3, 2, 2]


# --- membership decisions ----------------------------------------------------

def _vertical_line(x):
    fam = PlaneFamily(2, (2,), (2,), 1)
    return ConcretePlane.of(fam, vec([x, 0]), ())


def _one_edge(a, b):
    k = parse_complex("v a\nv b\ns a b\n")
    g = certify_map(k, PLMap.of(len(a), {"a": vec(a), "b": vec(b)}))
    assert g.certified  # every coordinate differs from every other
    return k, g


def _bary_pieces(k, g, plane):
    """The pieces of preimage_polytopes, each with its source simplex and
    its vertices read back as barycentric coordinates of that simplex."""
    section = preimage_polytopes(k, g, plane)
    at = {v: i for i, v in enumerate(k.vertices)}
    return [(s, [tuple(p[at[v]] for v in s) for p in piece])
            for s, piece in zip(section.sources, section.fractions())]


def _lambdas(g, points):
    """The Fraction view of stabbed_simplexes' points: the point (u, delta)
    of a simplex is lambda_v = D_v u_v / delta."""
    return {s: tuple(F(g.cleared[v][0] * x, delta) for v, x in zip(s, u))
            for s, (u, delta) in points.items()}


def _stabbed(k, g, plane, nmax):
    """The minimal stabbed simplexes, each with its lambda."""
    return _lambdas(g, stabbed_simplexes(k, g, plane, nmax)[0])


def test_image_membership_vertex():
    k, g = _one_edge([0, 5], [3, 1])
    plane = _vertical_line(F(0))
    assert _stabbed(k, g, plane, 1) == {("a",): (1,)}
    assert _bary_pieces(k, g, plane) == [
        (("a",), [(1,)]), (("a", "b"), [(1, 0)])]


def test_image_membership_outside_segment():
    # the line x = 5 meets the affine hull of the edge but not the edge
    k, g = _one_edge([0, 2], [1, 3])
    assert _stabbed(k, g, _vertical_line(F(5)), 1) == {}
    assert _bary_pieces(k, g, _vertical_line(F(5))) == []


def test_image_membership_midpoint():
    k, g = _one_edge([0, 2], [1, 3])
    plane = _vertical_line(F(1, 2))
    assert _stabbed(k, g, plane, 1) == {
        ("a", "b"): (F(1, 2), F(1, 2))}
    assert _bary_pieces(k, g, plane) == [(("a", "b"), [(F(1, 2), F(1, 2))])]


def test_full_space_plane_meets_everything():
    fam = PlaneFamily(2, (), (1, 2), 2)
    plane = plane_through(fam, vec([100, 100]))
    k, g = _one_edge([0, 2], [1, 3])
    assert _stabbed(k, g, plane, 1) == {
        ("a",): (1,), ("b",): (1,)}
    assert _bary_pieces(k, g, plane) == [
        (("a",), [(1,)]), (("b",), [(1,)]), (("a", "b"), [(1, 0), (0, 1)])]


def test_piece_vertices_come_by_face_size_then_lexicographically():
    # x = 0 passes through a and cuts bc at its midpoint: a and bc are the
    # minimal stabbed simplexes, and the triangle's piece lists a's point
    # before bc's, each padded into the triangle's coordinates
    k = parse_complex("v a\nv b\nv c\ns a b c\n")
    g = certify_map(k, PLMap.of(2, {"a": vec([0, 5]), "b": vec([-3, 1]),
                                    "c": vec([3, 2])}))
    assert g.certified
    plane = _vertical_line(F(0))
    half = F(1, 2)
    assert _stabbed(k, g, plane, 2) == {
        ("a",): (1,), ("b", "c"): (half, half)}
    assert _bary_pieces(k, g, plane) == [
        (("a",), [(1,)]), (("a", "b"), [(1, 0)]), (("a", "c"), [(1, 0)]),
        (("b", "c"), [(half, half)]),
        (("a", "b", "c"), [(1, 0, 0), (0, half, half)])]


def test_minimal_faces_of_a_coface_come_by_size_then_lexicographically():
    # The line through the midpoints of edges ad and bc meets the
    # tetrahedron's other edges nowhere.  Each triangle lists the one of
    # the two edges it holds; the tetrahedron's first facet, bcd, brings
    # bc, but its piece lists ad's point first.
    k = parse_complex("v a\nv b\nv c\nv d\ns a b c d\n")
    images = {"a": vec([1, 5, 9]), "b": vec([12, 2, 7]), "c": vec([4, 13, 3]),
              "d": vec([8, 6, 14])}
    g = certify_map(k, PLMap.of(3, images))
    assert g.certified
    p, q = vec([F(9, 2), F(11, 2), F(23, 2)]), vec([8, F(15, 2), 5])
    plane = ConcretePlane.of(PlaneFamily(3, (), (1, 2, 3), 1), p,
                             (tuple(y - x for x, y in zip(p, q)),))
    ad, bc = ("a", "d"), ("b", "c")
    half = (F(1, 2), F(1, 2))
    points, faces = stabbed_simplexes(k, g, plane, 3)
    assert (_lambdas(g, points), faces) == (
        {ad: half, bc: half},
        {ad: (ad,), bc: (bc,), ("a", "b", "c"): (bc,), ("a", "b", "d"): (ad,),
         ("a", "c", "d"): (ad,), ("b", "c", "d"): (bc,),
         ("a", "b", "c", "d"): (ad, bc)})
    image = section_of_image(k, g, plane)
    assert image.sources[-1] == ("a", "b", "c", "d")
    assert image.fractions()[-1] == (p, q)


_FAN = "v o\nv a\nv b\nv c\nv d\ns o a b\ns o b c\ns o d\ns a c\n"
# every image but o's has x > 1/3 and y - x > 2/7 - 1/3
_FAN_IMAGES = {"o": (F(1, 3), F(2, 7)), "a": (1, 3), "b": (2, F(5, 2)),
               "c": (F(5, 4), F(7, 3)), "d": (F(3, 2), F(11, 5))}


@pytest.mark.parametrize("side", [1, -1], ids=["others_above", "others_below"])
@pytest.mark.parametrize("fam, extras", [
    (PlaneFamily(2, (2,), (2,), 1), ()),              # covector x
    (PlaneFamily(2, (), (1, 2), 1), (vec([1, 1]),)),  # covector y - x
], ids=["unit_covector", "skew_covector"])
def test_bracket_keeps_a_vertex_on_the_plane(fam, extras, side):
    # The plane passes through o's image and every other image lies
    # strictly on one side of it, the side given (reflected through o for
    # -1).  Each simplex at o meets the plane in o alone, so o is the one
    # minimal stabbed simplex; the others miss it, and so does every
    # simplex once the plane moves off o.
    k = parse_complex(_FAN)
    o = vec(_FAN_IMAGES["o"])
    g = certify_map(k, PLMap.of(2, {
        v: tuple(c + side * (x - c) for x, c in zip(vec(p), o))
        for v, p in _FAN_IMAGES.items()}))
    assert g.certified
    at_o = [s for s in k.sorted_simplexes() if "o" in s]
    assert len(at_o) == 7
    plane = ConcretePlane.of(fam, o, extras)
    assert _stabbed(k, g, plane, 2) == {("o",): (1,)}
    assert _bary_pieces(k, g, plane) == [
        (s, [tuple(int(v == "o") for v in s)]) for s in at_o]
    nudge = F(1, 10 ** 9)
    off = ConcretePlane.of(fam, tuple(c - side * step for c, step in
                                      zip(o, (nudge, 2 * nudge))), extras)
    assert _stabbed(k, g, off, 2) == {}
    assert _bary_pieces(k, g, off) == []


def test_membership_reads_lambda_back_through_each_vertex_scale():
    # A triangle in R^3 with vertex scales D_a = 1, D_b = 2, D_c = 3, cut
    # at lambda = (1/2, 1/3, 1/6) by a line whose covectors
    # (-1/2, 1, 0) and (-2/3, 0, 1) have scales 2 and 3 and right-hand
    # sides 20/9 and 83/54.  The solve runs in mu_v = lambda_v / D_v, so
    # every vertex must be scaled back by its own D_v.
    k = parse_complex("v a\nv b\nv c\ns a b c\n")
    g = certify_map(k, PLMap.of(3, {"a": vec([1, 5, 2]),
                                    "b": vec([F(9, 2), F(3, 2), F(7, 2)]),
                                    "c": vec([F(-4, 3), F(2, 3), F(10, 3)])}))
    assert g.certified
    assert [d for d, _ in g.cleared.values()] == [1, 2, 3]
    point = vec([F(16, 9), F(28, 9), F(49, 18)])
    plane = ConcretePlane.of(PlaneFamily(3, (), (1, 2, 3), 1), point,
                             (vec([1, F(1, 2), F(2, 3)]),))
    assert [rhs for _, rhs in plane.covectors()] == [F(20, 9), F(83, 54)]
    assert _stabbed(k, g, plane, 2) == {
        ("a", "b", "c"): (F(1, 2), F(1, 3), F(1, 6))}
    assert max_disjoint_stabbed(k, g, plane, 2) == (1, (("a", "b", "c"),))


def _oracle_pieces(k, g, plane, nmax):
    """Per simplex of dimension <= nmax, the vertices of its piece by
    basic-solution scan of rows built here from the plane's covectors."""
    out = []
    for s in k.sorted_simplexes():
        if len(s) - 1 > nmax:
            continue
        rows, rhs = membership_rows(s, g.images, plane.covectors())
        if feasible_by_basic_solutions(rows, rhs):
            out.append((s, set(basic_feasible_solutions(rows, rhs))))
    return out


def test_membership_sweep_matches_basic_solution_oracle():
    # The sweep against an oracle sharing none of its code, on certified
    # complexes and random and adversarial planes of every shape of family:
    # the minimal stabbed simplexes are exactly the simplexes whose one
    # basic solution has full support, with that solution as their point,
    # and both sections list the same pieces with the same vertices.
    rng = random.Random(41)
    cases = 0
    for trial in range(36):
        m = 3 + trial % 3
        k = random_complex(rng, rng.randint(5, 8), 2,
                           F(rng.randint(20, 45), 100))
        g = roberts_perturb(k, random_map(rng, k, m, box=6), F(1, 3),
                            GenericPool(7000 + trial))
        s_T = tuple(sorted(rng.sample(range(1, m + 1), rng.randint(1, m))))
        s_t = tuple(sorted(rng.sample(s_T, rng.randint(0, len(s_T) - 1))))
        fam = PlaneFamily(m, s_t, s_T, rng.randint(len(s_t), len(s_T)))
        for plane in (sample_plane_random(rng, fam, g),
                      sample_plane_adversarial(rng, fam, k, g)):
            for nmax in range(3):
                want = {s: lam for s, verts in
                        _oracle_pieces(k, g, plane, nmax)
                        for lam in verts if len(verts) == 1 and min(lam) > 0}
                assert _stabbed(k, g, plane, nmax) == want
                cases += 1
            pieces = _oracle_pieces(k, g, plane, k.dim)
            assert [(s, set(verts)) for s, verts
                    in _bary_pieces(k, g, plane)] == pieces
            image = section_of_image(k, g, plane)
            assert [(s, set(piece)) for s, piece
                    in zip(image.sources, image.fractions())] == [
                (s, {tuple(sum(w * g.images[v][c] for w, v in zip(lam, s))
                           for c in range(m)) for lam in verts})
                for s, verts in pieces]
    assert cases == 216


@pytest.mark.parametrize("call", [
    lambda k, g, plane: stabbed_simplexes(k, g, plane, 1),
    lambda k, g, plane: max_disjoint_stabbed(k, g, plane, 1),
    section_of_image, preimage_polytopes],
    ids=["stabbed_simplexes", "max_disjoint_stabbed", "section_of_image",
         "preimage_polytopes"])
def test_membership_rejects_a_plane_of_another_dimension(call):
    # a point of R^2 at the first two coordinates of the edge's midpoint:
    # the one membership test refuses it before reading any covector
    k, g = _one_edge([0, 2, 4], [1, 3, 5])
    plane = plane_through(PlaneFamily(2, (), (1,), 0), vec([F(1, 2), F(5, 2)]))
    with pytest.raises(ValueError,
                       match="^plane lives in dimension 2, map in 3$"):
        call(k, g, plane)


@pytest.mark.parametrize("call, message", [
    (lambda: nonstab_case([1], 3, 1, 2, 3), "need 0 <= t <= d <= T <= m"),
    (lambda: nonstab_case([], 3, 1, 0, 2), "need at least one set"),
    (lambda: plane_through(PlaneFamily(3, (), (1, 2, 3), 1), vec([0, 0, 0]),
                           [vec([1, 0, 0]), vec([0, 1, 0])]),
     "span vectors have more than d - t independent block directions"),
], ids=["t-above-d", "no-sets", "span-rank-above-d-t"])
def test_transversal_input_checks_raise(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# --- the regime rule and the exact linear-regime decision ----------------------

_LINE_IN_SPAN_E1 = PlaneFamily(3, (), (1,), 1)


def _flat_in(mode, sets, family):
    """The constraint flat stab_regime solves, once it sends the input to
    the given mode."""
    got, flat = stab_regime(sets, family)
    assert got == mode
    return flat


def test_linear_single_set_always_stabbed():
    fam = PlaneFamily(3, (), (1, 2), 1)
    sets = PointSets.of([[vec([3, 4, 5]), vec([1, 1, 1])]])
    got = stab_exists_linear(sets, fam, _flat_in("linear", sets, fam))
    assert got.status == "witness"
    w = got.witness
    assert verify_stab_witness(w, [[vec([3, 4, 5]), vec([1, 1, 1])]], fam)[0]


def test_linear_infeasible_fixture():
    sets = PointSets.of([[vec([0, 0, 0])], [vec([5, 0, 1])]])
    got = stab_exists_linear(sets, _LINE_IN_SPAN_E1,
                             _flat_in("linear", sets, _LINE_IN_SPAN_E1))
    assert got == StabDecision("infeasible")


def test_linear_feasible_fixture():
    sets = PointSets.of([[vec([0, 0, 0])], [vec([5, 0, 0])]])
    got = stab_exists_linear(sets, _LINE_IN_SPAN_E1,
                             _flat_in("linear", sets, _LINE_IN_SPAN_E1))
    assert got.status == "witness"
    w = got.witness
    ok, checks = verify_stab_witness(w, sets, _LINE_IN_SPAN_E1)
    assert ok and checks >= 6
    assert w.points == (vec([0, 0, 0]), vec([5, 0, 0]))


def test_witness_recheck_rejects_each_broken_condition():
    # One certified witness broken five ways; each answer counts the
    # conditions checked up to the failure: three per set, none for the
    # family and the number of blocks.
    sets = PointSets.of([[vec([0, 0, 0]), vec([1, 2, 0])],
                         [vec([5, 2, 1]), vec([6, 0, -1])]])
    fam = _LINE_IN_SPAN_E1
    w = stab_exists_linear(sets, fam, _flat_in("linear", sets, fam)).witness
    half = (F(1, 2), F(1, 2))
    assert w.lambdas == (half, half)
    assert w.points == (vec([F(1, 2), 1, 0]), vec([F(11, 2), 1, 0]))
    assert verify_stab_witness(w, sets, fam) == (True, 6)
    off_plane = ConcretePlane.of(fam, vec([0, 1, 1]), w.plane.extra_directions)
    off_point = vec([F(11, 2), 1, 1])
    broken = {
        "another family": (w, PlaneFamily(3, (), (1, 2), 1), 0),
        "a block dropped": (replace(w, lambdas=(half,)), fam, 0),
        "a block off 1": (replace(w, lambdas=(half, (F(1, 2), F(1, 3)))),
                          fam, 4),
        "a point off its combination": (
            replace(w, points=(w.points[0], off_point)), fam, 5),
        "the plane off a point": (replace(w, plane=off_plane), fam, 3),
    }
    for why, (bad, family, checks) in broken.items():
        assert verify_stab_witness(bad, sets, family) == (False, checks), why


def test_linear_rejects_large_q():
    # q = d-t+2 on a flat of dimension one or more is not the linear
    # regime; on a point flat or an empty flat the linear decider takes
    # every q, and its answers are exact: on three points, one rank test
    fam = PlaneFamily(2, (), (1, 2), 1)
    segments = PointSets.of([[vec([0, 0]), vec([1, 0])],
                             [vec([0, 1]), vec([1, 2])],
                             [vec([3, 0]), vec([0, 3])]])
    assert stab_regime(segments, fam)[0] == "search"
    for sets, want in [([[vec([0, 0])], [vec([1, 1])], [vec([2, 2])]],
                        "witness"),
                       ([[vec([0, 0])], [vec([1, 0])], [vec([0, 1])]],
                        "no_stab")]:
        sets = PointSets.of(sets)
        got = stab_exists_linear(sets, fam, _flat_in("linear", sets, fam))
        assert got.status == want
    fam = PlaneFamily(2, (), (1,), 1)
    sets = PointSets.of([[vec([0, 0])], [vec([0, 0])], [vec([0, 1])]])
    got = stab_exists_linear(sets, fam, _flat_in("linear", sets, fam))
    assert got == StabDecision("infeasible")


from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

small_rat = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def _spanning_cases(draw):
    """A random family of R^m, m <= 5, with d = t and T = m each drawn
    half the time, a basepoint, and exactly d-t span vectors inside
    span(s_T): free ones, zero ones, ones on s_t alone (zero on the
    block), repeats and combinations of earlier ones."""
    m = draw(st.integers(1, 5))
    s_T = tuple(j for j in range(1, m + 1)
                if draw(st.booleans()) or draw(st.booleans()))
    if draw(st.booleans()):
        s_T = tuple(range(1, m + 1))
    s_t = tuple(j for j in s_T if draw(st.booleans()))
    d = len(s_t) if draw(st.booleans()) else draw(
        st.integers(len(s_t), len(s_T)))
    fam = PlaneFamily(m, s_t, s_T, d)

    def on(coords):
        return vec([draw(small_rat) if j in coords else 0
                    for j in range(1, m + 1)])

    spans = []
    for _ in range(d - len(s_t)):
        kind = draw(st.sampled_from(
            ["free", "zero", "pinned", "repeat", "combination"]))
        if kind == "zero":
            spans.append(vec([0] * m))
        elif kind == "pinned":
            spans.append(on(s_t))
        elif kind == "repeat" and spans:
            spans.append(draw(st.sampled_from(spans)))
        elif kind == "combination" and spans:
            a, b = draw(small_rat), draw(small_rat)
            u, v = draw(st.sampled_from(spans)), draw(st.sampled_from(spans))
            spans.append(tuple(a * x + b * y for x, y in zip(u, v)))
        else:
            spans.append(on(s_T))
    return fam, on(range(1, m + 1)), spans


@given(_spanning_cases())
@settings(max_examples=200, deadline=None)
def test_plane_through_takes_any_d_minus_t_span_vectors(case):
    # the samplers draw once because of this: given exactly d-t vectors
    # inside span(s_T), dependent or zero ones included, plane_through
    # returns a member plane through the basepoint that covers each of
    # them, and the s_t axes
    fam, base, spans = case
    plane = plane_through(fam, base, spans)
    assert plane.family == fam
    assert len(plane.extra_directions) == fam.d - fam.t
    assert plane.contains(base)
    axes = [[int(i == j) for i in range(1, fam.m + 1)] for j in fam.s_t]
    for v in [*spans, *axes]:
        assert plane.contains(tuple(x + y for x, y in zip(base, v)))


@given(st.lists(st.lists(st.integers(0, 1), min_size=3, max_size=3),
                min_size=1, max_size=5),
       st.sampled_from([PlaneFamily(3, (), (1, 2), 1),
                        PlaneFamily(3, (), (1, 2, 3), 1),
                        PlaneFamily(3, (1,), (1, 2, 3), 1),
                        PlaneFamily(3, (), (1, 2, 3), 0)]))
@settings(max_examples=100, deadline=None)
def test_point_flats_are_decided_exactly(points, fam):
    # one point per set fixes every lambda, so the flat is empty or a point
    # at any q: the linear decider answers, as the rank of the block
    # differences says
    sets = PointSets.of([[vec(p)] for p in points])
    got = decide_stab(sets, fam, 0, 0)
    outside = [c - 1 for c in range(1, 4) if c not in fam.s_T]
    block = [c - 1 for c in fam.block]
    if any(p[c] != points[0][c] for p in points for c in outside):
        want = "infeasible"
    elif rank_by_minors([[F(p[c] - points[0][c]) for c in block]
                         for p in points[1:]]) <= fam.d - fam.t:
        want = "witness"
    else:
        want = "no_stab"
    assert (got["mode"], got["status"], got["certified"]) == (
        "linear", want, True)


@given(st.lists(st.lists(st.lists(small_rat, min_size=3, max_size=3),
                         min_size=1, max_size=3),
                min_size=1, max_size=2))
@settings(max_examples=60, deadline=None)
def test_linear_answers_are_sound(raw_sets):
    # any witness re-verifies exactly; absence means the system is inconsistent
    fam = PlaneFamily(3, (), (1, 2), 1)
    sets = PointSets.of([[vec(p) for p in ps] for ps in raw_sets])
    got = stab_exists_linear(sets, fam, _flat_in("linear", sets, fam))
    assert got.status in ("witness", "infeasible")
    witness = got.witness
    assert (witness is not None) == (got.status == "witness")
    if witness is not None:
        ok, _ = verify_stab_witness(witness, sets, fam)
        assert ok
        for lam in witness.lambdas:
            assert sum(lam) == 1


# --- the stab test at a lambda ------------------------------------------------

@st.composite
def _stab_test_cases(draw):
    """A random family of R^m, m <= 4, and up to four sets of up to three
    points with small integer coordinates, so that ranks often drop."""
    m = draw(st.integers(1, 4))
    s_T = tuple(j for j in range(1, m + 1) if draw(st.booleans()))
    s_t = tuple(j for j in s_T if draw(st.booleans()))
    fam = PlaneFamily(m, s_t, s_T, draw(st.integers(len(s_t), len(s_T))))
    sets = draw(st.lists(st.lists(
        st.lists(st.integers(-2, 2), min_size=m, max_size=m).map(vec),
        min_size=1, max_size=3), min_size=1, max_size=4))
    return fam, sets


@given(_stab_test_cases(), st.data())
@settings(max_examples=200, deadline=None)
def test_stabs_at_is_the_rank_of_the_block_differences(case, data):
    # built at a stacked lambda and tested there, and built at the
    # constraint flat's base and basis (the base alone when it is a point)
    # and tested at a flat point u: the met points' differences on the
    # block coordinates, summed here, have rank at most d-t
    fam, sets = case
    sets = PointSets.of(sets)
    total = sum(len(ps) for ps in sets)
    lam = data.draw(st.lists(small_rat, min_size=total, max_size=total))
    cases = [(lam, transversal._block_differences(sets, fam, (lam,)), ())]
    flat = stab_regime(sets, fam)[1]
    if flat is not None:
        u = data.draw(st.lists(small_rat, min_size=len(flat[1]),
                               max_size=len(flat[1])))
        cases.append((transversal._flat_point(flat, u),
                      transversal._block_differences(
                          sets, fam, (flat[0], *flat[1])), u))
    for lam, diffs, u in cases:
        ys, start = [], 0
        for ps in sets:
            weights, start = lam[start:start + len(ps)], start + len(ps)
            ys.append([sum((w * p[c - 1] for w, p in zip(weights, ps)), F(0))
                       for c in fam.block])
        want = [[a - b for a, b in zip(y, ys[0])] for y in ys[1:]]
        assert transversal._stabs_at(diffs, u, fam) == (
            rank_by_minors(want) <= fam.d - fam.t)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(small_rat, min_size=n, max_size=n),
    st.lists(st.lists(small_rat, min_size=n, max_size=n), max_size=3))),
    st.data())
@settings(max_examples=100, deadline=None)
def test_flat_point_is_the_base_plus_the_weighted_directions(flat, data):
    base, basis = flat
    u = data.draw(st.lists(small_rat, min_size=len(basis),
                           max_size=len(basis)))
    want = list(base)
    for coeff, w in zip(u, basis):
        want = [x + coeff * y for x, y in zip(want, w)]
    assert transversal._flat_point((tuple(base), tuple(map(tuple, basis))),
                                   u) == tuple(want)


# --- univariate decision -------------------------------------------------------

_POINT_FAMILY_2D = PlaneFamily(2, (), (1, 2), 0)


def _univariate(sets, family):
    sets = PointSets.of(sets)
    return stab_decide_univariate(sets, family,
                                  _flat_in("univariate", sets, family))


def test_univariate_stab_with_rational_root():
    sets = [[vec([0, 0]), vec([2, 2])], [vec([1, 1])]]
    got = _univariate(sets, _POINT_FAMILY_2D)
    assert got.status == "witness"
    assert got.witness is not None
    assert got.witness.points == (vec([1, 1]), vec([1, 1]))


def test_univariate_no_stab():
    sets = [[vec([0, 0]), vec([2, 2])], [vec([2, 0])]]
    got = _univariate(sets, _POINT_FAMILY_2D)
    assert got.status == "no_stab"
    assert got.reduced is not None
    # the reduced polynomial must indeed be rootless
    assert sturm_count(list(got.reduced)) == 0


def test_univariate_not_applicable_wrong_q():
    # the univariate decision needs q = 2 in this family; stab_regime sends
    # q = 1 and q = 3, 4 on a flat that is a point to linear, and q = 3 on
    # a flat of dimension three to the search
    sets = [[vec([0, 0])], [vec([1, 1])], [vec([2, 0])], [vec([3, 1])]]
    assert [stab_regime(PointSets.of(sets[:q]), _POINT_FAMILY_2D)[0]
            for q in (1, 3, 4)] == ["linear", "linear", "linear"]
    segments = PointSets.of([[vec([0, 0]), vec([1, 0])],
                             [vec([0, 1]), vec([1, 2])],
                             [vec([3, 0]), vec([0, 3])]])
    mode, flat = stab_regime(segments, _POINT_FAMILY_2D)
    assert (mode, len(flat[1])) == ("search", 3)


def test_univariate_not_applicable_flat_dimension():
    # q = 2, but a plane of lambdas: the search decides
    sets = PointSets.of([[vec([0, 0]), vec([2, 0]), vec([0, 2])],
                         [vec([5, 5])]])
    mode, flat = stab_regime(sets, _POINT_FAMILY_2D)
    assert (mode, len(flat[1])) == ("search", 2)


def test_univariate_stab_with_irrational_root_reports_interval():
    # the reduced determinant is s^2 + 2s - 1 (roots -1 +- sqrt(2)), so the
    # answer is a sign-change-certified isolating interval, not a witness
    fam = PlaneFamily(3, (), (1, 2), 1)
    sets = [
        [vec([0, 0, 0]), vec([1, 0, 1])],
        [vec([0, 1, 0]), vec([0, 0, 1])],
        [vec([1, 1, 0]), vec([0, -2, 1])],
    ]
    got = _univariate(sets, fam)
    assert got.status == "witness"
    assert got.witness is None
    lo, hi = got.interval
    assert lo < hi
    sf = square_free_part(list(got.reduced))
    assert _sign_at(sf, lo) * _sign_at(sf, hi) < 0


def _count_chain_builds(monkeypatch):
    """A list that records every Sturm chain built from here on."""
    from plstab import ratmath
    builds = []
    build = ratmath._sturm_chain

    def counting(p):
        builds.append(p)
        return build(p)

    monkeypatch.setattr(ratmath, "_sturm_chain", counting)
    monkeypatch.setattr(transversal, "_sturm_chain", counting)
    return builds


def test_univariate_decision_builds_one_sturm_chain(monkeypatch):
    builds = _count_chain_builds(monkeypatch)
    cases = [
        ([[vec([0, 0]), vec([2, 2])], [vec([1, 1])]], _POINT_FAMILY_2D),
        ([[vec([0, 0]), vec([2, 2])], [vec([2, 0])]], _POINT_FAMILY_2D),
        ([[vec([0, 0, 0]), vec([1, 0, 1])], [vec([0, 1, 0]), vec([0, 0, 1])],
          [vec([1, 1, 0]), vec([0, -2, 1])]], PlaneFamily(3, (), (1, 2), 1)),
    ]
    seen = []
    for sets, family in cases:
        sets = PointSets.of(sets)
        flat = _flat_in("univariate", sets, family)
        builds.clear()
        got = stab_decide_univariate(sets, family, flat)
        seen.append((got.status, got.witness is not None, len(builds)))
    assert seen == [("witness", True, 1), ("no_stab", False, 1),
                    ("witness", False, 1)]


def test_rational_root_helper():
    assert _isolate(integer_poly([F(-2, 3), F(1, 3)])) == 2
    lo, hi = _isolate([-2, 0, 1])  # s^2 - 2
    assert _sign_at([-2, 0, 1], lo) * _sign_at([-2, 0, 1], hi) < 0
    assert _isolate([1, 0, 1]) is None
    assert _isolate([5]) is None
    assert _isolate([]) == 0  # the zero polynomial vanishes everywhere


def test_rational_root_helper_isolates_roots_closer_than_200_halvings():
    # sqrt(2) and sqrt(2 + 2^-300) lie about 2^-302 apart, past 200 halvings
    # of the Cauchy interval; bisection must go on until one root is left
    p = integer_poly(poly_mul_naive((-2, 0, 1), (-2 - F(1, 2 ** 300), 0, 1)))
    interval = _isolate(p)
    assert isinstance(interval, tuple)
    assert verify_interval_certificate(p, interval)


def test_rational_root_helper_builds_one_sturm_chain(monkeypatch):
    # every count of one isolation reads the same chain of the square-free part
    builds = _count_chain_builds(monkeypatch)
    p = integer_poly(poly_mul_naive((-2, 0, 1), (-2 - F(1, 2 ** 300), 0, 1)))
    assert isinstance(_isolate(p), tuple)
    assert len(builds) == 1


@st.composite
def isolation_cases(draw):
    """Integer polynomials made of rational linear factors (repeats allowed),
    rootless quadratics and quadratics with two irrational roots."""
    p = (draw(st.sampled_from([1, -1, 3, F(2, 5)])),)
    rational = st.fractions(min_value=-5, max_value=5, max_denominator=9)
    for r in draw(st.lists(rational, max_size=4)):
        p = poly_mul_naive(p, (-r, 1))
    for _ in range(draw(st.integers(0, 2))):
        b = draw(rational)
        c = draw(st.sampled_from([2, 3, 5, F(1, 7)]))
        sign = draw(st.sampled_from([1, -1]))  # (s - b)^2 -+ c
        p = poly_mul_naive(p, (b * b - sign * c, -2 * b, 1))
    return integer_poly(p)


@given(isolation_cases())
@settings(max_examples=200, deadline=None)
def test_isolate_matches_the_euclidean_chain(p):
    found = _isolate(p)
    roots = sturm_count_euclid(p)
    assert (found is None) == (roots == 0)
    if isinstance(found, tuple):
        assert verify_interval_certificate(p, found)
        assert sturm_count_euclid(p, *found) == 1
    elif found is not None:
        assert poly_eval_naive(p, found) == 0


def test_interval_certificate_accepts_isolating_interval():
    assert verify_interval_certificate([-2, 0, 1], (F(1), F(2)))
    # (s^2 - 2)^2 keeps its sign; the check reads the square-free part
    assert verify_interval_certificate([4, 0, -4, 0, 1], (F(1), F(2)))
    assert verify_interval_certificate([-2, 0, 1], _isolate([-2, 0, 1]))


def test_interval_certificate_rejects_two_roots():
    # (s - 1)(s - 2) on [0, 3]: both roots inside, no sign change
    assert not verify_interval_certificate([2, -3, 1], (F(0), F(3)))


def test_interval_certificate_rejects_sign_change_over_three_roots():
    # (s - 1)(s - 2)(s - 3) on [0, 4]: the signs differ but three roots lie inside
    assert not verify_interval_certificate([-6, 11, -6, 1], (F(0), F(4)))


def test_interval_certificate_rejects_root_endpoint_and_empty_interval():
    assert not verify_interval_certificate([-1, 1], (F(1), F(2)))
    assert not verify_interval_certificate([-2, 0, 1], (F(2), F(1)))
    assert not verify_interval_certificate([5], (F(0), F(1)))
    assert not verify_interval_certificate([], (F(0), F(1)))


# (m, s_t, s_T, d): the projected difference matrix has d - t + 1 rows and
# T - t columns
_UNIVARIATE_SHAPES = [
    (2, (), (1,), 0),          # 1 x 1
    (3, (), (1, 2), 1),        # 2 x 2
    (2, (), (1, 2), 0),        # 1 x 2
    (3, (1,), (1, 2, 3), 1),   # 1 x 2
    (3, (), (1, 2, 3), 1),     # 2 x 3
    (4, (), (1, 2, 3), 1),     # 2 x 3
    (2, (), (1,), 1),          # 2 x 1: no maximal minor
]


@st.composite
def univariate_cases(draw, max_denominator=2):
    """A family and point sets whose constraint flat is generically a line.

    The extra points go round-robin or to random sets; round-robin moves
    every met point with the flat parameter, so 2 x 2 minors are quadratic.
    The points are random, or moved so that the hull of every set meets one
    plane of the family (a stab at a rational parameter).  In a wide matrix
    the last block coordinate may be one value on every point, so every
    minor through that column vanishes and the gcd is the remaining minor,
    which can have irrational roots.
    """
    m, s_t, s_T, d = draw(st.sampled_from(_UNIVARIATE_SHAPES))
    q = d - len(s_t) + 2
    sizes = [1] * q
    spread = draw(st.booleans())
    for k in range(1 + (q - 1) * (m - len(s_T))):
        sizes[k % q if spread else draw(st.integers(0, q - 1))] += 1
    coord = st.fractions(min_value=-3, max_value=3,
                         max_denominator=max_denominator)
    point = st.lists(coord, min_size=m, max_size=m)
    sets = [[draw(point) for _ in range(n)] for n in sizes]
    block = [c for c in s_T if c not in s_t]
    if draw(st.booleans()):
        dirs = [[F(int(j == c)) for j in range(1, m + 1)] for c in s_t]
        dirs += [[draw(coord) if j in block else F(0) for j in range(1, m + 1)]
                 for _ in range(d - len(s_t))]
        base = draw(point)
        for pts in sets:
            y = list(base)
            for v in dirs:
                a = draw(coord)
                y = [yc + a * vc for yc, vc in zip(y, v)]
            weights = [draw(st.integers(1, 3)) for _ in pts]
            mu = [F(w, sum(weights)) for w in weights]
            pts[0] = [(y[c] - sum(mu[j] * pts[j][c] for j in range(1, len(pts))))
                      / mu[0] for c in range(m)]
    elif len(block) > q - 1 and draw(st.booleans()):
        value = draw(coord)
        for pts in sets:
            for p in pts:
                p[block[-1] - 1] = value
    return PlaneFamily(m, s_t, s_T, d), PointSets.of(
        [[vec(p) for p in pts] for pts in sets])


@given(univariate_cases())
@settings(max_examples=200, deadline=None)
def test_univariate_decision_matches_gram_oracle(case):
    family, sets = case
    want, gram = univariate_by_gram(sets, family.m, family.s_t, family.s_T,
                                    family.d)
    mode, flat = stab_regime(sets, family)
    # the oracle's not_applicable is a flat that is not a line
    assert (mode == "univariate") == (want != "not_applicable")
    if mode == "univariate":
        got = stab_decide_univariate(sets, family, flat)
        assert got.status == want
        # the gcd of the maximal minors has the real roots of the Gram
        # determinant, the sum of their squares
        assert (not got.reduced) == (not gram)
        assert sturm_count_euclid(got.reduced) == sturm_count_euclid(gram)


@given(univariate_cases())
@example((_POINT_FAMILY_2D,
          PointSets.of([[vec([0, 0]), vec([2, 2])], [vec([1, 1])]])))
@settings(max_examples=150, deadline=None)
def test_every_univariate_report_carries_its_reduced_polynomial(case):
    # a witness at a rational root reports the gcd too, and its lambda
    # base + s w on the flat has reduced(s) = 0
    family, sets = case
    mode, flat = stab_regime(sets, family)
    assume(mode == "univariate")
    got = decide_stab(sets, family, 0, 0)
    reduced = [Fraction(c) for c in got["reduced"]]
    assert reduced == list(stab_decide_univariate(sets, family, flat).reduced)
    if got["status"] == "witness" and "interval" not in got:
        lam = [Fraction(x) for block in got["lambdas"] for x in block]
        base, (w,) = flat
        j = next(j for j, x in enumerate(w) if x)
        assert poly_eval_naive(reduced, (lam[j] - base[j]) / w[j]) == 0


@given(univariate_cases(max_denominator=12), st.data())
@settings(max_examples=150, deadline=None)
def test_integer_block_differences_match_the_fraction_oracle(case, data):
    # points with mixed denominators, so the one lcm E is not each point's
    # own denominator: the builder's rows over its one scale S are the
    # term-by-term sums, its rows read at a flat point u are those of the
    # combined lambda, the search objective is the Gram determinant of
    # those sums, and the univariate gcd is the one of the oracle rows
    # cleared per row
    family, sets = case
    total = sum(len(ps) for ps in sets)
    rat = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    vectors = data.draw(st.lists(st.lists(rat, min_size=total,
                                          max_size=total),
                                 min_size=1, max_size=3))
    got = transversal._block_differences(sets, family, vectors)
    scale, rows = got
    assert scale > 0 and len(rows) == len(sets) - 1
    for k, lam in enumerate(vectors):
        assert [[F(x, scale) for x in per_set[k]] for per_set in rows] == (
            block_differences_naive(sets, family.block, lam))
    u = data.draw(st.lists(rat, min_size=len(vectors) - 1,
                           max_size=len(vectors) - 1))
    lam = list(vectors[0])
    for coeff, w in zip(u, vectors[1:]):
        lam = [x + coeff * y for x, y in zip(lam, w)]
    diffs = block_differences_naive(sets, family.block, lam)
    at_scale, at = transversal._rows_at(got, u)
    assert at_scale > 0
    assert [[F(x, at_scale) for x in row] for row in at] == diffs
    gram = [[sum((a * b for a, b in zip(r, t)), F(0)) for t in diffs]
            for r in diffs]
    assert transversal._gram_det(got, u) == det_cofactor(gram)

    mode, flat = stab_regime(sets, family)
    if mode != "univariate":
        return
    base, (direction,) = flat
    polys = []
    for at_base, along in zip(
            block_differences_naive(sets, family.block, base),
            block_differences_naive(sets, family.block, direction)):
        scale = math.lcm(*(x.denominator for x in at_base + along))
        polys.append([tuple(integer_poly([a * scale, b * scale]))
                      for a, b in zip(at_base, along)])
    minors = [poly_det_cofactor([[row[c] for c in cols] for row in polys])
              for cols in itertools.combinations(range(len(family.block)),
                                                 len(polys))]
    assert stab_decide_univariate(sets, family, flat).reduced == tuple(
        primitive_gcd(minors))


@st.composite
def _mixed_denominator_cases(draw):
    """A random family of R^m, m <= 4, up to four sets of up to three
    points whose coordinates have mixed denominators, half the time equal
    outside s_T across the sets so the flat is not empty, and up to three
    stacked lambdas."""
    m = draw(st.integers(1, 4))
    s_T = tuple(j for j in range(1, m + 1) if draw(st.booleans()))
    s_t = tuple(j for j in s_T if draw(st.booleans()))
    fam = PlaneFamily(m, s_t, s_T, draw(st.integers(len(s_t), len(s_T))))
    rat = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    point = st.lists(rat, min_size=m, max_size=m)
    sets = draw(st.lists(st.lists(point, min_size=1, max_size=3),
                         min_size=1, max_size=4))
    if draw(st.booleans()):
        shared = draw(point)
        for p in (p for ps in sets for p in ps):
            for j in fam.outside:
                p[j - 1] = shared[j - 1]
    sets = [[vec(p) for p in ps] for ps in sets]
    total = sum(len(ps) for ps in sets)
    vectors = draw(st.lists(st.lists(rat, min_size=total, max_size=total),
                            min_size=1, max_size=3))
    return fam, sets, vectors


@given(_mixed_denominator_cases())
@settings(max_examples=200, deadline=None)
def test_integer_form_decides_as_the_fraction_rows(case):
    # the deciders read the one integer form E p_ij; on it the flat, and
    # so the mode, is the solve of the Fraction hull rows, and the block
    # differences over their scale are the Fraction sums y_i - y_1
    fam, sets, vectors = case
    form = PointSets.of(sets)
    assert [list(ps) for ps in form] == sets
    assert form.scale == math.lcm(*(x.denominator for ps in sets
                                     for p in ps for x in p))
    flat = solve_affine(*hull_rows(sets, [j - 1 for j in fam.outside]))
    q, free = len(sets), fam.d - fam.t
    if flat is None or not flat[1] or q <= free + 1:
        mode = "linear"
    elif q == free + 2 and len(flat[1]) == 1:
        mode = "univariate"
    else:
        mode = "search"
    assert stab_regime(form, fam) == (mode, flat)
    scale, rows = transversal._block_differences(form, fam, vectors)
    assert scale > 0 and len(rows) == q - 1
    for k, lam in enumerate(vectors):
        assert [[F(x, scale) for x in per_set[k]] for per_set in rows] == (
            block_differences_naive(sets, fam.block, lam))


# --- heuristic search -----------------------------------------------------------

def _z_axis_fixture():
    fam = PlaneFamily(3, (), (1, 2, 3), 1)
    sets = PointSets.of([
        [vec([0, 0, 0]), vec([1, 0, 0])],
        [vec([0, 0, 1]), vec([0, 1, 1])],
        [vec([0, 0, 2]), vec([1, 1, 2])],
    ])
    return fam, sets


def _search(sets, fam, budget, seed):
    return stab_search_general(sets, fam, _flat_in("search", sets, fam),
                               budget, seed)


def test_search_finds_z_axis_transversal():
    fam, sets = _z_axis_fixture()
    got = _search(sets, fam, budget=500, seed=0)
    assert got.status == "witness"
    ok, _ = verify_stab_witness(got.witness, sets, fam)
    assert ok
    assert got.witness.points == (vec([0, 0, 0]), vec([0, 0, 1]), vec([0, 0, 2]))


def test_search_budget_zero():
    fam, sets = _z_axis_fixture()
    got = _search(sets, fam, budget=0, seed=0)
    assert got == StabDecision("not_found", evaluations=0)


@given(st.sampled_from([PlaneFamily(2, (), (1, 2), 0),
                        PlaneFamily(3, (), (1, 2, 3), 0),
                        PlaneFamily(3, (), (1, 2, 3), 1)]),
       st.integers(0, 1), st.lists(st.integers(-3, 3), min_size=30,
                                   max_size=30),
       st.integers(0, 60), st.integers(0, 2 ** 32))
@settings(max_examples=100, deadline=None)
def test_search_budget_is_an_exact_cap(fam, extra, coords, budget, seed):
    # q = d-t+2 or d-t+3 segments span a flat of dimension q >= 2, which
    # the search decides: it never evaluates past the budget, and a miss
    # comes after exactly the budget of evaluations
    q = fam.d - fam.t + 2 + extra
    values = iter(coords)
    sets = PointSets.of([[vec(next(values) for _ in range(fam.m))
                          for _ in range(2)] for _ in range(q)])
    mode, flat = stab_regime(sets, fam)
    assert mode == "search"
    got = stab_search_general(sets, fam, flat, budget, seed)
    assert got.evaluations <= budget
    if got.status == "not_found":
        assert got.evaluations == budget
    else:
        assert verify_stab_witness(got.witness, sets, fam)[0]


def test_search_path_is_pinned(monkeypatch):
    # every (u, objective) pair of a search that spends its budget of 300
    # on a three-dimensional flat, hashed: a changed descent fails this even
    # when the answer stays not_found
    sets = PointSets.of([[vec([0, 0, 0]), vec([F(1, 2), F(-1, 3), 1])],
                         [vec([20, F(1, 5), 0]), vec([F(41, 2), 0, F(-1, 7)])],
                         [vec([F(1, 3), 20, F(1, 4)]), vec([0, 21, 0])]])
    fam = PlaneFamily(3, (), (1, 2, 3), 1)
    mode, flat = stab_regime(sets, fam)
    assert (mode, len(flat[1])) == ("search", 3)
    path = []
    real = transversal._gram_det

    def recorded(rows, u):
        value = real(rows, u)
        path.append(([str(x) for x in u], str(value)))
        return value

    monkeypatch.setattr(transversal, "_gram_det", recorded)
    got = stab_search_general(sets, fam, flat, 300, 7)
    assert got == StabDecision("not_found", evaluations=300)
    assert len(path) == 300
    assert path[0] == (["0", "0", "0"], "23035921/144")
    assert hashlib.sha256(repr(path).encode()).hexdigest() == (
        "3be21ae6448fabe54d016996400e12ccf1599347b7e960b0412e41a7914d2de8")


def test_default_budget_is_not_overrun():
    # the met points are fixed and collinear: every objective is zero and
    # every rank test fails, so the search spends its whole budget, and
    # not one evaluation more
    sets = PointSets.of([[vec([0, 0]), vec([0, 0])], [vec([1, 1])],
                         [vec([2, 2]), vec([2, 2]), vec([2, 2])]])
    got = decide_stab(sets, _POINT_FAMILY_2D, SEARCH_BUDGET, 0)
    assert (got["mode"], got["status"], got["evaluations"]) == (
        "search", "not_found", SEARCH_BUDGET)


def test_search_rejects_linear_regime():
    # q <= d-t+1 is decided exactly, whatever the budget: no search runs
    fam = PlaneFamily(3, (), (1, 2), 1)
    for sets in ([[vec([0, 0, 0])]], [[vec([0, 0, 0])], [vec([1, 1, 1])]]):
        assert decide_stab(PointSets.of(sets), fam, 10, 0)["mode"] == "linear"


def test_search_never_emits_false_witness_in_nonstab_regime():
    # certified-generic draws in a case-I tuple: any witness would be a bug.
    # Their constraint flat is empty, so the exact linear decider answers
    # instead of the search, and its infeasible is certified.
    fam = PlaneFamily(5, (), (1,), 1)
    pool = GenericPool(77)
    stream = itertools.count()
    sets = []
    for i in range(3):
        pts = []
        for _ in range(2):
            pts.append(vec([pool.draw_near(F(i), F(1, 2), next(stream))
                            for _ in range(5)]))
        sets.append(pts)
    assert nonstab_case([1, 1, 1], 5, 1, 0, 1) is NonStabCase.CASE_I
    got = decide_stab(PointSets.of(sets), fam, 400, pool.seed)
    assert (got["mode"], got["status"], got["certified"]) == (
        "linear", "infeasible", True)


# --- stab reports ----------------------------------------------------------------

_PLANE_E1 = PlaneFamily(3, (), (1,), 1)
_Z_SETS = [[vec([0, 0, 0]), vec([1, 0, 0])], [vec([0, 0, 1]), vec([0, 1, 1])],
           [vec([0, 0, 2]), vec([1, 1, 2])]]
_INTERVAL_SETS = [[vec([0, 0, 0]), vec([1, 0, 1])],
                  [vec([0, 1, 0]), vec([0, 0, 1])],
                  [vec([1, 1, 0]), vec([0, -2, 1])]]

# (sets, family, budget) -> the report fields, as the JSON text the CLI
# writes (sorted keys), the mode of the decider the input selects included;
# one case per report shape
_STAB_REPORTS = [
    ([[vec([0, 0, 0])], [vec([5, 0, 0])]], _PLANE_E1, 0,
     '{"certified": true, "conditions_checked": 6, "lambdas": [["1"], ["1"]], '
     '"mode": "linear", '
     '"plane": {"ST": [1], "St": [], "basepoint": ["0", "0", "0"], "d": 1, '
     '"extra_dirs": [["5", "0", "0"]], "m": 3}, "points": [["0", "0", "0"], '
     '["5", "0", "0"]], "status": "witness"}'),
    ([[vec([0, 0, 0])], [vec([5, 0, 1])]], _PLANE_E1, 0,
     '{"certified": true, "conditions_checked": 0, "lambdas": null, '
     '"mode": "linear", "plane": null, "status": "infeasible"}'),
    (_Z_SETS, PlaneFamily(3, (), (1, 2, 3), 1), 500,
     '{"certified": true, "conditions_checked": 9, "evaluations": 1, '
     '"lambdas": [["1", "0"], ["1", "0"], ["1", "0"]], "mode": "search", '
     '"plane": {"ST": '
     '[1, 2, 3], "St": [], "basepoint": ["0", "0", "0"], "d": 1, '
     '"extra_dirs": [["0", "0", "1"]], "m": 3}, "points": [["0", "0", "0"], '
     '["0", "0", "1"], ["0", "0", "2"]], "status": "witness"}'),
    # two skew lines: no common point, after exactly the budget of 40
    # evaluations of the search
    ([[vec([0, 0, 0]), vec([1, 0, 0])], [vec([0, 1, 1]), vec([0, 2, 1])]],
     PlaneFamily(3, (), (1, 2, 3), 0), 40,
     '{"certified": false, "conditions_checked": 0, "evaluations": 40, '
     '"lambdas": null, "mode": "search", "plane": null, '
     '"status": "not_found"}'),
    ([[vec([0, 0]), vec([2, 2])], [vec([1, 1])]], _POINT_FAMILY_2D, 0,
     '{"certified": true, "conditions_checked": 6, "lambdas": [["1/2", "1/2"], '
     '["1"]], "mode": "univariate", '
     '"plane": {"ST": [1, 2], "St": [], "basepoint": ["1", "1"], '
     '"d": 0, "extra_dirs": [], "m": 2}, "points": [["1", "1"], ["1", "1"]], '
     '"reduced": ["-1", "2"], "status": "witness"}'),
    ([[vec([0, 0]), vec([2, 2])], [vec([2, 0])]], _POINT_FAMILY_2D, 0,
     '{"certified": true, "conditions_checked": 0, "lambdas": null, '
     '"mode": "univariate", "plane": null, "reduced": ["1"], '
     '"status": "no_stab"}'),
    (_INTERVAL_SETS, PlaneFamily(3, (), (1, 2), 1), 0,
     '{"certified": true, "conditions_checked": 0, "interval": '
     '["-2918605109616647604843261/1208925819614629174706176", '
     '"-1459302554808323802421629/604462909807314587353088"], '
     '"lambdas": null, "mode": "univariate", "plane": null, '
     '"reduced": ["-1", "2", "1"], '
     '"status": "witness", "witness_kind": "isolating_interval"}'),
    # three points and d = 0: q = d-t+3 on a point flat, which the linear
    # decider settles by one rank test, whatever the budget
    ([[vec([0, 0])], [vec([1, 1])], [vec([2, 0])]], _POINT_FAMILY_2D, 0,
     '{"certified": true, "conditions_checked": 0, "lambdas": null, '
     '"mode": "linear", "plane": null, "status": "no_stab"}'),
]


@pytest.mark.parametrize(
    "sets, family, budget, want", _STAB_REPORTS,
    ids=["linear-witness", "infeasible", "search-witness", "not-found",
         "univariate-root", "no-stab", "isolating-interval",
         "point-flat"])
def test_stab_report_fields_are_pinned(sets, family, budget, want):
    got = decide_stab(PointSets.of(sets), family, budget, 0)
    assert json.dumps(got, sort_keys=True) == want


# --- input errors of the stab decision ----------------------------------------

_P = vec([0, 0])
_D0 = PlaneFamily(2, (), (1,), 1)  # d - t = 1: linear up to q = 2


def _through_regime(decider, *args):
    """The decider as the stab decision runs it, on stab_regime's flat."""
    return lambda sets, fam: decider(sets, fam, stab_regime(sets, fam)[1],
                                     *args)


_LINEAR = _through_regime(stab_exists_linear)
_SEARCH = _through_regime(stab_search_general, 10, 0)
_UNIVARIATE = _through_regime(stab_decide_univariate)


# no decider checks the point sets itself: the integer form refuses empty
# ones when it is built, before any decider runs
@pytest.mark.parametrize("decide, sets", [
    (_LINEAR, []),
    (_LINEAR, [[]]),
    (_LINEAR, [[_P], []]),
    (_LINEAR, [[_P], [_P], []]),
    (_SEARCH, []),
    (_SEARCH, [[]]),
    (_SEARCH, [[_P], []]),
    (_UNIVARIATE, []),
    (_UNIVARIATE, [[]]),
    (_UNIVARIATE, [[_P], [_P], [_P], []]),
], ids=["linear-none", "linear-empty", "linear-one-empty",
        "linear-too-many-one-empty", "search-none", "search-empty",
        "search-too-few-one-empty", "univariate-none", "univariate-empty",
        "univariate-wrong-q-one-empty"])
def test_decider_input_errors(decide, sets):
    with pytest.raises(ValueError) as info:
        decide(PointSets.of(sets), _D0)
    assert str(info.value) == "need nonempty point sets"


def test_decide_stab_solves_the_constraint_flat_once(monkeypatch):
    # stab_regime solves the flat and the decider it picks runs on it: one
    # solve of integer rows per decision, on one input per mode
    calls = []
    solve = transversal._solve_augmented

    def counting(work, ncols):
        calls.append(len(work))
        return solve(work, ncols)

    monkeypatch.setattr(transversal, "_solve_augmented", counting)
    cases = [([[vec([0, 0, 0])], [vec([5, 0, 0])]], _PLANE_E1, 0),
             ([[vec([0, 0]), vec([2, 2])], [vec([1, 1])]], _POINT_FAMILY_2D, 0),
             (_Z_SETS, PlaneFamily(3, (), (1, 2, 3), 1), 500)]
    seen = []
    for sets, family, budget in cases:
        calls.clear()
        got = decide_stab(PointSets.of(sets), family, budget, 0)
        seen.append((got["mode"], got["status"], len(calls)))
    assert seen == [("linear", "witness", 1), ("univariate", "witness", 1),
                    ("search", "witness", 1)]


def test_each_decision_builds_the_block_differences_once(monkeypatch):
    # one build per decision, at the flat's base, base and direction or
    # base and basis, whatever the number of stab tests the search runs at
    # its candidates; none on an empty flat
    builds, tests = [], []
    build, stabs_at = (transversal._block_differences,
                       transversal._stabs_at)

    def counting_build(point_sets, family, vectors):
        got = build(point_sets, family, vectors)
        builds.append((len(vectors), type(got[0])))
        return got

    def counting_test(diffs, u, family):
        tests.append(len(u))
        return stabs_at(diffs, u, family)

    monkeypatch.setattr(transversal, "_block_differences", counting_build)
    monkeypatch.setattr(transversal, "_stabs_at", counting_test)
    cases = [([[vec([0, 0, 0])], [vec([5, 0, 1])]], _PLANE_E1, 0),
             ([[vec([0, 0, 0])], [vec([5, 0, 0])]], _PLANE_E1, 0),
             ([[vec([0, 0]), vec([2, 2])], [vec([1, 1])]], _POINT_FAMILY_2D, 0),
             (_Z_SETS, PlaneFamily(3, (), (1, 2, 3), 1), 500),
             ([[vec([0, 0]), vec([0, 0])], [vec([1, 1])],
               [vec([2, 2]), vec([2, 2]), vec([2, 2])]], _POINT_FAMILY_2D, 60)]
    seen = []
    for sets, family, budget in cases:
        builds.clear()
        tests.clear()
        got = decide_stab(PointSets.of(sets), family, budget, 0)
        seen.append((got["mode"], got["status"], builds[:], len(tests)))
    assert seen == [("linear", "infeasible", [], 0),
                    ("linear", "witness", [(1, int)], 1),
                    ("univariate", "witness", [(2, int)], 0),
                    ("search", "witness", [(4, int)], 1),
                    ("search", "not_found", [(4, int)], 9)]
    assert list(inspect.signature(stabs_at).parameters) == [
        "diffs", "u", "family"]


# --- counting disjoint stabbed simplexes ------------------------------------

def _two_edges():
    k = parse_complex("v a\nv b\nv c\nv d\ns a b\ns c d\n")
    g = certify_map(k, PLMap.of(2, {
        "a": vec([F(1, 101), F(1, 7)]),
        "b": vec([F(102, 101), F(1, 9)]),
        "c": vec([F(2, 101), F(8, 7)]),
        "d": vec([F(103, 101), F(9, 8)]),
    }))
    assert g.certified
    return k, g


def test_count_plane_missing_image():
    k, g = _two_edges()
    plane = _vertical_line(F(50))
    count, family = max_disjoint_stabbed(k, g, plane, nmax=2)
    assert count == 0 and family == ()


def test_count_two_disjoint_edges():
    k, g = _two_edges()
    plane = _vertical_line(F(1, 2))
    count, family = max_disjoint_stabbed(k, g, plane, nmax=1)
    assert count == 2
    assert set(family) == {("a", "b"), ("c", "d")}


def test_count_vertex_on_plane():
    k, g = _two_edges()
    plane = _vertical_line(g.images["a"][0])
    count, family = max_disjoint_stabbed(k, g, plane, nmax=0)
    assert count >= 1
    assert ("a",) in family


def _path():
    """The path a-b-c in R^2, both edges cut by the line x = 1/2 and no
    vertex on it."""
    k = parse_complex("v a\nv b\nv c\ns a b\ns b c\n")
    g = certify_map(k, PLMap.of(2, {
        "a": vec([F(1, 101), F(1, 7)]),
        "b": vec([F(102, 101), F(1, 9)]),
        "c": vec([F(2, 101), F(8, 7)]),
    }))
    assert g.certified
    return k, g


def test_count_rechecks_its_family(monkeypatch):
    k, g = _two_edges()
    real = transversal.stabbed_simplexes
    # a strictly positive point whose image is off the plane: the
    # barycentre of each edge, which keeps the edges minimal, on the
    # integer form lambda_v = D_v u_v / delta with delta = |s| lcm(D_v)
    def barycentres(k, g, *args):
        scale = {s: math.lcm(*[g.cleared[v][0] for v in s])
                 for s in real(k, g, *args)[0]}
        return {s: (tuple(d // g.cleared[v][0] for v in s), len(s) * d)
                for s, d in scale.items()}, {}

    monkeypatch.setattr(transversal, "stabbed_simplexes", barycentres)
    with pytest.raises(RuntimeError, match="re-verification"):
        max_disjoint_stabbed(k, g, _vertical_line(F(1, 2)), nmax=1)
    # a family whose members share a vertex: both edges of the path
    monkeypatch.setattr(transversal, "stabbed_simplexes", real)
    monkeypatch.setattr(transversal, "_max_independent_set",
                        lambda n, adj: list(range(n)))
    k, g = _path()
    with pytest.raises(RuntimeError, match="share a vertex"):
        max_disjoint_stabbed(k, g, _vertical_line(F(1, 2)), nmax=1)


def test_count_packs_only_minimal_stabbed_simplexes(monkeypatch):
    # The full 2-skeleton on 16 vertices in R^3 and the whole space as the
    # plane: all 696 simplexes are stabbed and only the 16 vertices are
    # minimal, so the branch and bound runs on 16 candidates, not 696, and
    # the membership test solves the 16 vertex systems alone: every other
    # simplex has a stabbed facet.
    names = [f"v{i:02d}" for i in range(16)]
    k = SimplicialComplex.from_simplexes(
        names, list(itertools.combinations(names, 3)))
    g = roberts_perturb(k, random_map(random.Random(16), k, 3), F(1, 3),
                        GenericPool(16))
    plane = plane_through(PlaneFamily(3, (), (1, 2, 3), 3), vec([0, 0, 0]))
    real = transversal._max_independent_set
    real_solve = transversal._unique_solution
    solved = []

    def packs_the_vertices(n, adj):
        if n != len(names):
            raise AssertionError(f"packing {n} simplexes, not the 16 vertices")
        return real(n, adj)

    def counted_solve(rows, ncols):
        solved.append(ncols)
        return real_solve(rows, ncols)

    monkeypatch.setattr(transversal, "_max_independent_set", packs_the_vertices)
    monkeypatch.setattr(transversal, "_unique_solution", counted_solve)
    count, family = max_disjoint_stabbed(k, g, plane, nmax=2)
    assert count == 16
    assert set(family) == {(v,) for v in names}
    assert solved == [1] * 16, f"{len(solved)} solves"


def test_count_matches_subset_enumeration():
    rng = random.Random(6)
    for trial in range(10):
        nv = rng.randint(4, 7)
        names = [f"v{i}" for i in range(nv)]
        maximal = [rng.sample(names, rng.randint(1, 3))
                   for _ in range(rng.randint(2, 5))]
        k = SimplicialComplex.from_simplexes(names, maximal)
        theta = PLMap.of(2, {v: vec([rng.randint(0, 6), rng.randint(0, 6)])
                             for v in names})
        g = roberts_perturb(k, theta, F(1, 3), GenericPool(trial + 100))
        plane = _vertical_line(F(rng.randint(0, 12), 2))
        count, family = max_disjoint_stabbed(k, g, plane, nmax=2)
        # every stabbed simplex, by the oracle: a stabbed simplex and any
        # stabbed face of it pack alike, so the count is the same
        hits = [s for s in k.sorted_simplexes() if feasible_by_basic_solutions(
            *membership_rows(s, g.images, plane.covectors()))]
        want, _ = max_disjoint_by_subsets(
            hits, lambda s1, s2: bool(set(s1) & set(s2)))
        assert count == want
        # returned family is itself valid
        assert all(not set(s1) & set(s2)
                   for s1, s2 in itertools.combinations(family, 2))


def _max_independent_set_recursive(n, adj):
    """The recursive branch and bound that _max_independent_set unrolls."""
    best = []

    def descend(cands, chosen):
        nonlocal best
        if len(chosen) > len(best):
            best = chosen[:]
        if not cands or len(chosen) + len(cands) <= len(best):
            return
        v = cands[0]
        descend([u for u in cands[1:] if u not in adj[v]], chosen + [v])
        descend(cands[1:], chosen)

    descend(sorted(range(n), key=lambda v: (-len(adj[v]), v)), [])
    return sorted(best)


def test_max_independent_set_keeps_the_recursive_search_order():
    # same set, not just same size: the witness family of a count report
    # is the first best set the search meets
    rng = random.Random(22)
    for _ in range(400):
        n = rng.randint(0, 14)
        p = rng.choice((0.1, 0.3, 0.5, 0.8))
        adj = [set() for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < p:
                adj[i].add(j)
                adj[j].add(i)
        assert (transversal._max_independent_set(n, adj)
                == _max_independent_set_recursive(n, adj))


def test_count_requires_certificate():
    k = parse_complex("v a\ns a\n")
    g = PLMap.of(2, {"a": vec([0, 0])})
    with pytest.raises(ValueError):
        max_disjoint_stabbed(k, g, _vertical_line(F(0)), 1)

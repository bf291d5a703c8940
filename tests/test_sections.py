import random
from fractions import Fraction

import pytest

from oracles import (basic_feasible_solutions, clusterable_by_partition_scan,
                     components_by_pairwise_lp, feasible_by_basic_solutions)
from plstab.batch import (random_complex, random_map, sample_plane_adversarial,
                          sample_plane_random)
from plstab import sections
from plstab.generic import GenericPool
from plstab.ratmath import dist_sq, vec
from plstab.sections import (PlanarSection, component_clusters,
                             compute_components, eps_disjoint,
                             polytopes_intersect, preimage_polytopes,
                             section_of_image)
from plstab.simplicial import PLMap, certify_map, parse_complex, roberts_perturb
from plstab.transversal import ConcretePlane, PlaneFamily, plane_through

F = Fraction


def _triangle():
    k = parse_complex("v a\nv b\nv c\ns a b c\n")
    g = certify_map(k, PLMap(2, {"a": vec([2, 3]), "b": vec([6, 5]),
                                 "c": vec([4, 9])}))
    assert g.certified
    return k, g


def _vertical_line(x):
    fam = PlaneFamily(2, (2,), (2,), 1)
    return ConcretePlane(fam, vec([x, 0]), ())


def _named(pieces):
    """A section whose pieces come from pairwise disjoint 0-simplexes, so no
    face incidence joins them."""
    pieces = tuple(pieces)
    return PlanarSection(pieces, tuple((f"p{i}",) for i in range(len(pieces))))


def test_section_empty_when_plane_misses():
    k, g = _triangle()
    got = section_of_image(k, g, _vertical_line(F(50)))
    assert got.pieces == ()


def test_section_of_empty_complex():
    k = parse_complex("")
    g = certify_map(k, PLMap(2, {}))
    assert section_of_image(k, g, _vertical_line(F(3))).pieces == ()


def test_section_triangle_slice_is_segment():
    k, g = _triangle()
    got = section_of_image(k, g, _vertical_line(F(3)))
    by_source = dict(zip(got.sources, got.pieces))
    tri = by_source[("a", "b", "c")]
    assert set(tri) == {vec([3, F(7, 2)]), vec([3, 6])}
    # the crossed edges contribute their single crossing points
    assert set(by_source[("a", "b")]) == {vec([3, F(7, 2)])}
    assert set(by_source[("a", "c")]) == {vec([3, 6])}
    assert ("b", "c") not in by_source


def test_section_contains_full_edge_on_plane():
    k, g = _triangle()
    fam = PlaneFamily(2, (), (1, 2), 1)
    plane = ConcretePlane(fam, g.images["a"], (vec([4, 2]),))  # through a and b
    got = section_of_image(k, g, plane)
    by_source = dict(zip(got.sources, got.pieces))
    assert set(by_source[("a", "b")]) == {g.images["a"], g.images["b"]}


def test_section_piece_soundness():
    k, g = _triangle()
    plane = _vertical_line(F(7, 2))
    got = section_of_image(k, g, plane)
    assert got.pieces
    for piece, source in zip(got.pieces, got.sources):
        for v in piece:
            assert plane.contains(v)
            # inside the source simplex image: solvable convex combination
            from plstab.ratmath import lp_feasible
            pts = [g.images[u] for u in source]
            rows = [[p[c] for p in pts] for c in range(2)]
            rows.append([1] * len(pts))
            got_lp = lp_feasible(rows, list(v) + [1])
            assert got_lp is not None


def _random_family(rng, m):
    d = rng.randint(0, m - 1)
    s_T = tuple(sorted(rng.sample(range(1, m + 1), rng.randint(d, m))))
    s_t = tuple(sorted(rng.sample(s_T, rng.randint(0, d))))
    return PlaneFamily(m, s_t, s_T, d)


def test_image_and_preimage_pieces_match_basic_solution_scan():
    # Each piece lists exactly the vertices of its simplex's membership
    # polytope {lambda >= 0 : sum 1, image on the plane}, found here by a
    # basic-solution scan over every simplex.  Planes pass through image
    # points and through image vertices, where pieces degenerate.
    rng = random.Random(57)
    for trial in range(8):
        m = rng.choice([2, 3, 4])
        dim = 1 if m == 2 else rng.choice([1, 2])
        k = random_complex(rng, rng.randint(4, 6), dim, F(1, 3))
        g = roberts_perturb(k, random_map(rng, k, m), F(1, 2),
                            GenericPool(300 + trial))
        index = {v: i for i, v in enumerate(k.vertices)}
        for turn in range(8):
            fam = _random_family(rng, m)
            if turn % 2:
                plane = plane_through(fam, g.images[rng.choice(k.vertices)])
            else:
                plane = sample_plane_adversarial(rng, fam, k, g)
            covs = plane.covectors()
            want_image, want_pre = {}, {}
            for s in k.sorted_simplexes():
                rows = [[1] * len(s)] + [
                    [sum(a * b for a, b in zip(c, g.images[v])) for v in s]
                    for c, _ in covs]
                rhs = [1] + [r for _, r in covs]
                bfs = basic_feasible_solutions(rows, rhs)
                if not bfs:
                    continue
                want_image[s] = {
                    tuple(sum(w * g.images[v][i] for w, v in zip(lam, s))
                          for i in range(m)) for lam in bfs}
                want_pre[s] = set()
                for lam in bfs:
                    point = [F(0)] * len(k.vertices)
                    for w, v in zip(lam, s):
                        point[index[v]] = w
                    want_pre[s].add(tuple(point))
            section = section_of_image(k, g, plane)
            preimage = preimage_polytopes(k, g, plane)
            assert list(section.sources) == list(want_image)
            assert [set(p) for p in section.pieces] == list(want_image.values())
            assert [set(p) for p in preimage.pieces] == list(want_pre.values())


# --- components and eps-disjointness ----------------------------------------

def test_eps_disjoint_empty_section():
    assert eps_disjoint(compute_components(_named(())), F(1)) is True


def test_eps_disjoint_isolated_points():
    part = compute_components(_named(_singleton_polytopes([0, 0], [2, 0])))
    assert eps_disjoint(part, F(1)) is True


def test_eps_disjoint_long_segment():
    part = compute_components(_named(((vec([0, 0]), vec([2, 0])),)))
    assert eps_disjoint(part, F(1)) is False
    assert eps_disjoint(part, F(3)) is True


def test_eps_disjoint_strictness():
    part = compute_components(_named(((vec([0, 0]), vec([1, 0])),)))
    assert eps_disjoint(part, F(1)) is False  # strict comparison
    assert eps_disjoint(part, F(101, 100)) is True


def test_components_chain_through_touching_pieces():
    a = (vec([0, 0]), vec([1, 0]))
    b = (vec([1, 0]), vec([2, 0]))  # touches a
    c = (vec([5, 5]),)
    part = compute_components(_named([a, b, c]))
    assert part.components == ((0, 1), (2,))
    assert part.diameters_sq == (F(4), F(0))


def test_crossing_images_of_disjoint_edges():
    # ab and cd share no vertex but their images cross at (20/9, 71/18); a
    # line through the crossing cuts the image in one point, whose preimage
    # is one point on each edge.
    k = parse_complex("v a\nv b\nv c\nv d\ns a b\ns c d\n")
    g = certify_map(k, PLMap(2, {"a": vec([0, 2]), "b": vec([8, 9]),
                                 "c": vec([1, 7]), "d": vec([5, -3])}))
    assert g.certified
    plane = _vertical_line(F(20, 9))
    image = compute_components(section_of_image(k, g, plane))
    assert image.components == ((0, 1),)
    assert image.points == ((vec([F(20, 9), F(71, 18)]),),)
    preimage = compute_components(preimage_polytopes(k, g, plane))
    assert preimage.components == ((0,), (1,))
    assert preimage.diameters_sq == (F(0), F(0))


def test_triangles_joined_through_a_shared_stabbed_edge():
    # abc lies above the image of ab and abd below it, so the two triangle
    # pieces meet only in the piece of ab.
    k = parse_complex("v a\nv b\nv c\nv d\ns a b c\ns a b d\n")
    g = certify_map(k, PLMap(2, {"a": vec([0, 2]), "b": vec([4, 3]),
                                 "c": vec([1, 7]), "d": vec([5, -6])}))
    assert g.certified
    plane = _vertical_line(F(2))
    section = section_of_image(k, g, plane)
    assert section.sources == (("a", "b"), ("a", "d"), ("b", "c"),
                               ("a", "b", "c"), ("a", "b", "d"))
    image = compute_components(section)
    assert image.components == ((0, 1, 2, 3, 4),)
    assert image.diameters_sq == (F(103, 15) ** 2,)
    preimage = compute_components(preimage_polytopes(k, g, plane))
    assert preimage.components == ((0, 1, 2, 3, 4),)
    assert preimage.diameters_sq == (F(242, 225),)


def test_polytopes_intersect():
    a = (vec([0, 0]), vec([2, 2]))
    b = (vec([0, 2]), vec([2, 0]))
    c = (vec([3, 3]), vec([4, 4]))
    assert polytopes_intersect(a, b) is True
    assert polytopes_intersect(a, c) is False
    assert polytopes_intersect((), a) is False


def _polytope_pairs():
    """(kind, p, q) over small integer vertex lists in R^2..R^4: a random
    pair, then a q touching p in a vertex that maximizes the first
    coordinate, a q nested in p's hull and a q beyond p's bounding box."""
    rng = random.Random(61)
    for _ in range(60):
        m = rng.randint(2, 4)

        def points(count):
            return tuple(vec([rng.randint(0, 3) for _ in range(m)])
                         for _ in range(count))

        p = points(rng.randint(1, 3))
        yield "random", p, points(rng.randint(1, 3))
        top = max(p, key=lambda v: v[0])
        away = vec([rng.randint(1, 2)] + [rng.randint(-2, 2)
                                          for _ in range(m - 1)])
        yield "touching", p, (top, tuple(x + y for x, y in zip(top, away)))
        nested = []
        for _ in range(rng.randint(1, 3)):
            w = [rng.randint(0, 3) for _ in p]
            w[rng.randrange(len(w))] += 1
            nested.append(tuple(sum(F(a, sum(w)) * v[c] for a, v in zip(w, p))
                                for c in range(m)))
        yield "nested", p, tuple(nested)
        c = rng.randrange(m)
        shift = max(v[c] for v in p) - min(v[c] for v in p) + 1
        yield "disjoint", p, tuple(tuple(x + shift * (i == c)
                                         for i, x in enumerate(v)) for v in p)


def test_polytopes_intersect_matches_basic_solution_scan():
    # Against a basic-solution scan of {lambda, mu >= 0 : sum lambda =
    # sum mu = 1, P lambda = Q mu}, with the rows built here.
    outcomes = set()
    for kind, p, q in _polytope_pairs():
        m = len(p[0])
        rows = [[F(1)] * len(p) + [F(0)] * len(q),
                [F(0)] * len(p) + [F(1)] * len(q)]
        rows += [[v[c] for v in p] + [-w[c] for w in q] for c in range(m)]
        want = feasible_by_basic_solutions(rows, [1, 1] + [0] * m)
        assert polytopes_intersect(p, q) is want
        assert want is {"touching": True, "nested": True,
                        "disjoint": False}.get(kind, want)
        boxes_meet = all(min(v[c] for v in p) <= max(w[c] for w in q)
                         and min(w[c] for w in q) <= max(v[c] for v in p)
                         for c in range(m))
        outcomes.add((kind, want, boxes_meet))
    # random pairs whose boxes meet reach the LP and come out both ways
    assert {("random", True, True), ("random", False, True)} <= outcomes


# --- preimages ----------------------------------------------------------------

def test_preimage_whole_simplex_on_plane():
    k, g = _triangle()
    fam = PlaneFamily(2, (), (1, 2), 1)
    plane = ConcretePlane(fam, g.images["a"], (vec([4, 2]),))
    polys = preimage_polytopes(k, g, plane).pieces
    # the edge ab maps onto the plane, so its whole reference edge appears
    ref_a = vec([1, 0, 0])
    ref_b = vec([0, 1, 0])
    assert any(set(p) == {ref_a, ref_b} for p in polys)


def test_preimage_point_on_edge():
    k, g = _triangle()
    polys = preimage_polytopes(k, g, _vertical_line(F(3))).pieces
    # edge ab is crossed at weight 3/4 a + 1/4 b
    assert any(set(p) == {vec([F(3, 4), F(1, 4), 0])} for p in polys)


def test_preimage_empty():
    k, g = _triangle()
    assert preimage_polytopes(k, g, _vertical_line(F(50))).pieces == ()


# --- clustering ----------------------------------------------------------------

def _singleton_polytopes(*points):
    return tuple((vec(p),) for p in points)


def _clusterable(polys, q, eps):
    return component_clusters(compute_components(_named(polys)), q, eps) is not None


def test_cluster_empty_preimage():
    assert _clusterable((), 1, F(1)) is True


def test_cluster_three_far_singletons():
    polys = _singleton_polytopes([0, 0], [10, 0], [5, 10])
    assert _clusterable(polys, 2, F(1)) is False
    assert _clusterable(polys, 3, F(1)) is True


def test_cluster_two_near_singletons():
    polys = _singleton_polytopes([0, 0], [F(1, 2), 0])
    assert _clusterable(polys, 1, F(1)) is True


def test_cluster_non_strict_boundary():
    polys = _singleton_polytopes([0, 0], [1, 0])
    assert _clusterable(polys, 1, F(1)) is True  # diameter <= eps passes


def test_cluster_component_limit():
    polys = _singleton_polytopes(*([i * 100, 0] for i in range(13)))
    with pytest.raises(ValueError):
        _clusterable(polys, 12, F(1))


def test_cluster_no_limit_when_q_covers_the_components():
    # Every component may open its own cluster, so the search never
    # backtracks and the limit does not apply.
    polys = _singleton_polytopes(*([i * 100, 0] for i in range(13)))
    part = compute_components(_named(polys))
    assert component_clusters(part, 13, F(1)) == [[i] for i in range(13)]
    near = _singleton_polytopes(*([F(i, 100), 0] for i in range(13)))
    part = compute_components(_named(near))
    assert component_clusters(part, 13, F(1)) == [list(range(13))]


def test_cluster_wide_component_answers_before_the_limit():
    polys = _singleton_polytopes(*([i * 100, 0] for i in range(12)))
    wide = ((vec([0, 50]), vec([3, 50])),)
    assert _clusterable(polys + wide, 1, F(1)) is False


def test_component_clusters_witness():
    polys = _singleton_polytopes([0, 0], [10, 0], [F(1, 3), 0])
    part = compute_components(_named(polys))
    clusters = component_clusters(part, 2, F(1))
    assert clusters is not None
    assert sorted(len(c) for c in clusters) == [1, 2]
    assert component_clusters(part, 1, F(1)) is None


def test_point_preimage_components_within_bound():
    # d = 0 planes: preimage component counts stay within the exact ceiling
    import random

    from plstab.batch import random_complex, random_map
    from plstab.generic import GenericPool
    from plstab.simplicial import image_point, roberts_perturb
    from plstab.transversal import stab_bound

    rng = random.Random(44)
    n, m = 2, 4
    ceiling = stab_bound(n, m, 0, 0, m).floor
    fam = PlaneFamily(m, (), tuple(range(1, m + 1)), 0)
    for trial in range(3):
        k = random_complex(rng, rng.randint(6, 8), n, F(1, 4))
        g = roberts_perturb(k, random_map(rng, k, m), F(1, 2),
                            GenericPool(900 + trial))
        simplexes = k.sorted_simplexes()
        for _ in range(10):
            s = simplexes[rng.randrange(len(simplexes))]
            w = [F(rng.randint(1, 3)) for _ in s]
            point = image_point(g, s, [x / sum(w) for x in w])
            plane = ConcretePlane(fam, point, ())
            part = compute_components(preimage_polytopes(k, g, plane))
            assert 1 <= len(part.components) <= ceiling


def test_cluster_matches_partition_scan():
    rng = random.Random(19)
    for _ in range(40):
        npts = rng.randint(1, 6)
        dim = rng.choice([2, 3])
        polys = _singleton_polytopes(
            *[[F(rng.randint(0, 12), 2) for _ in range(dim)]
              for _ in range(npts)])
        part = compute_components(_named(polys))
        q = rng.randint(1, 3)
        eps = F(rng.randint(1, 8), 2)
        points = [[v for i in comp for v in polys[i]]
                  for comp in part.components]

        def pair_diam_sq(i, j):
            if i == j:
                return part.diameters_sq[i]
            return max(dist_sq(a, b) for a in points[i] for b in points[j])

        want = clusterable_by_partition_scan(
            list(range(len(part.components))), q, eps * eps, pair_diam_sq)
        assert (component_clusters(part, q, eps) is not None) == want
        if want:
            clusters = component_clusters(part, q, eps)
            assert len(clusters) <= q
            members = sorted(i for cl in clusters for i in cl)
            assert members == list(range(len(part.components)))
            assert all(pair_diam_sq(i, j) <= eps * eps
                       for cl in clusters for i in cl for j in cl)


def _component_corpus():
    """(complex, map, plane) of 30 random complexes in m = 2, 3, 4 with six
    random and adversarial planes each."""
    rng = random.Random(84)
    for trial in range(30):
        m = rng.choice([2, 3, 4])
        dim = rng.choice([1, 2])
        k = random_complex(rng, rng.randint(4, 7), dim, F(1, 2))
        g = roberts_perturb(k, random_map(rng, k, m, box=4), F(1, 2),
                            GenericPool(700 + trial))
        for turn in range(6):
            fam = _random_family(rng, m)
            if turn % 2:
                plane = sample_plane_random(rng, fam, g)
            else:
                plane = sample_plane_adversarial(rng, fam, k, g)
            yield k, g, plane


def test_components_match_pairwise_lp_oracle():
    # Image and preimage components and diameters equal those of an
    # all-pairs intersection test.  With m < 2n+1 the images of
    # vertex-disjoint simplexes cross, so some image joins need an LP
    # between classes that face incidence leaves apart.
    for k, g, plane in _component_corpus():
        for section in (section_of_image(k, g, plane),
                        preimage_polytopes(k, g, plane)):
            part = compute_components(section)
            want = components_by_pairwise_lp(section.pieces)
            assert (part.components, part.diameters_sq) == want


def _incidence_classes(sources):
    """The top sources (no proper face of another source) and the classes
    that joining each source to its facets among the sources makes, as a
    class label per source."""
    index = {s: i for i, s in enumerate(sources)}
    label = list(range(len(sources)))

    def find(x):
        while label[x] != x:
            x = label[x]
        return x

    facets = set()
    for i, s in enumerate(sources):
        for j in range(len(s)):
            f = s[:j] + s[j + 1:]
            if f in index:
                facets.add(f)
                label[find(index[f])] = find(i)
    tops = [i for i, s in enumerate(sources) if s not in facets]
    return tops, [find(i) for i in range(len(sources))]


def test_no_lp_joins_two_preimage_pieces(monkeypatch):
    # In the realization piece(s) and piece(s') meet in piece(s & s'), which
    # face incidence has already joined to both: no two top preimage pieces
    # in different incidence classes intersect, so preimage components run
    # no intersection test, while image components still do.
    tested = 0
    for k, g, plane in _component_corpus():
        preimage = preimage_polytopes(k, g, plane)
        tops, classes = _incidence_classes(preimage.sources)
        for a, i in enumerate(tops):
            for j in tops[a + 1:]:
                if classes[i] != classes[j]:
                    tested += 1
                    assert not polytopes_intersect(preimage.pieces[i],
                                                   preimage.pieces[j])
    assert tested
    calls = {"preimage": 0, "image": 0}
    real = sections.polytopes_intersect
    for kind, build in (("preimage", preimage_polytopes),
                        ("image", section_of_image)):
        def counting(p, q, kind=kind):
            calls[kind] += 1
            return real(p, q)

        monkeypatch.setattr(sections, "polytopes_intersect", counting)
        for k, g, plane in _component_corpus():
            compute_components(build(k, g, plane))
    assert calls["preimage"] == 0 and calls["image"] > 0

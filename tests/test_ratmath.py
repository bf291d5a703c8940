import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (det_cofactor, feasible_by_basic_solutions,
                     rank_by_minors, root_in_interval_by_grid)
from plstab.ratmath import (AffineSubspace, Mat, affine_hull, affine_intersect,
                            cauchy_root_bound, det, format_rational,
                            independent_subset, lp_feasible, mat_rank, parse_rational, poly, poly_eval,
                            same_flat, simplest_between, solve_affine,
                            sturm_count, sturm_root_exists, vec, vec_dot)

F = Fraction

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


# --- rational text form ---------------------------------------------------

@pytest.mark.parametrize("text,value", [
    ("5", F(5)),
    ("-7/3", F(-7, 3)),
    ("+2/4", F(1, 2)),
    ("0", F(0)),
])
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["1/0", "1.5", "", "x", "1 /2", "1e3", "--1"])
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@given(small_fractions)
def test_rational_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def test_format_omits_unit_denominator():
    assert format_rational(F(5)) == "5"
    assert format_rational(F(-7, 3)) == "-7/3"


# --- rank -----------------------------------------------------------------

def test_rank_identity():
    assert mat_rank(Mat.identity(3)) == 3


def test_rank_zero_matrix():
    assert mat_rank(Mat.from_rows([[0, 0], [0, 0]])) == 0


def test_rank_dependent_rows():
    assert mat_rank(Mat.from_rows([[1, 2], [2, 4]])) == 1


def test_rank_matches_minor_enumeration():
    rng = random.Random(7)
    for _ in range(120):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        rows = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nc)]
                for _ in range(nr)]
        assert mat_rank(Mat.from_rows(rows)) == rank_by_minors(rows)


def test_independent_subset_is_greedy_by_rank():
    rng = random.Random(8)
    for _ in range(80):
        nc = rng.randint(1, 4)
        vectors = [vec(F(rng.randint(-2, 2), rng.randint(1, 2))
                       for _ in range(nc)) for _ in range(rng.randint(1, 6))]
        want = []
        for i, v in enumerate(vectors):
            rows = [vectors[j] for j in want] + [v]
            if rank_by_minors(rows) == len(rows):
                want.append(i)
        assert independent_subset(vectors) == want


# --- solve_affine ----------------------------------------------------------

def test_solve_identity():
    sol = solve_affine(Mat.identity(2), [3, -5])
    assert sol == (vec([3, -5]), ())


def test_det_keeps_the_type_of_its_entries():
    got = det([[2, 3, 0], [1, 4, 0], [7, 7, 0]])
    assert got == 0 and type(got) is int
    got = det([[2, 3], [1, 4]])
    assert got == 5 and type(got) is int
    rows = [[F(1, 2), F(3)], [F(-1), F(2, 3)]]
    got = det(rows)
    assert got == det_cofactor(rows) and type(got) is Fraction
    assert type(det([[F(0), F(1)], [F(0), F(2)]])) is Fraction


def test_solve_underdetermined():
    sol = solve_affine(Mat.from_rows([[1, 1]]), [1])
    assert sol is not None
    particular, basis = sol
    assert particular == vec([1, 0])
    assert len(basis) == 1
    v = basis[0]
    # spans the same line as (1, -1)
    assert v[0] * (-1) - v[1] * 1 == 0 and v != vec([0, 0])


def test_solve_inconsistent():
    assert solve_affine(Mat.from_rows([[1], [1]]), [0, 1]) is None


def test_solve_properties_random():
    rng = random.Random(11)
    for _ in range(100):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        a = Mat.from_rows([[F(rng.randint(-4, 4)) for _ in range(nc)]
                           for _ in range(nr)])
        b = vec([rng.randint(-4, 4) for _ in range(nr)])
        sol = solve_affine(a, b)
        if sol is None:
            continue
        particular, basis = sol
        for r in range(nr):
            assert vec_dot(a.row(r), particular) == b[r]
        for v in basis:
            for r in range(nr):
                assert vec_dot(a.row(r), v) == 0
        assert len(basis) == nc - mat_rank(a)


# --- affine hulls and intersections ----------------------------------------

def test_hull_single_point():
    h = affine_hull([[7, 7]], 2)
    assert h.basepoint == vec([7, 7])
    assert h.dim == 0


def test_hull_line():
    h = affine_hull([[0, 0], [1, 1]], 2)
    assert h.dim == 1
    d = h.directions[0]
    assert d[0] == d[1] != 0


def test_hull_collinear_triple():
    assert affine_hull([[0, 0], [1, 1], [2, 2]], 2).dim == 1


def test_hull_contains_inputs_and_dim_permutation_invariant():
    rng = random.Random(3)
    for _ in range(60):
        m = rng.randint(1, 4)
        pts = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)]
               for _ in range(rng.randint(1, 5))]
        h = affine_hull(pts, m)
        assert all(h.contains(p) for p in pts)
        shuffled = pts[:]
        rng.shuffle(shuffled)
        assert affine_hull(shuffled, m).dim == h.dim


def test_intersect_crossing_lines():
    line_diag = affine_hull([[0, 0], [1, 1]], 2)
    line_x5 = AffineSubspace(2, vec([5, 0]), (vec([0, 1]),))
    got = affine_intersect(line_diag, line_x5)
    assert got is not None
    assert got.dim == 0
    assert got.basepoint == vec([5, 5])


def test_intersect_parallel():
    a = AffineSubspace(2, vec([0, 0]), (vec([1, 0]),))
    b = AffineSubspace(2, vec([0, 1]), (vec([1, 0]),))
    assert affine_intersect(a, b) is None


def test_intersect_self():
    p = affine_hull([[0, 0, 1], [1, 2, 1]], 3)
    got = affine_intersect(p, p)
    assert got is not None
    assert same_flat(got, p)


# --- exact LP feasibility ---------------------------------------------------

def _segment_lp(point):
    # lambda1*(0,0) + lambda2*(1,1) = point, lambda >= 0, sum = 1
    eq = Mat.from_rows([[0, 1], [0, 1], [1, 1]])
    rhs = list(point) + [1]
    return lp_feasible(eq, rhs, {0, 1})


def test_lp_midpoint():
    w = _segment_lp([F(1, 2), F(1, 2)])
    assert w is not None
    assert sum(w) == 1 and all(x >= 0 for x in w)


def test_lp_outside_segment():
    assert _segment_lp([2, 2]) is None


def test_lp_triangle_slice():
    # first coordinate pinned to 1/2 on conv{(0,0),(1,0),(0,1)}
    eq = Mat.from_rows([[0, 1, 0], [1, 1, 1]])
    w = lp_feasible(eq, [F(1, 2), 1], {0, 1, 2})
    assert w is not None
    assert w[1] == F(1, 2) and sum(w) == 1 and all(x >= 0 for x in w)


def test_lp_free_variable():
    # x + y = -3 needs a free variable to be feasible
    eq = Mat.from_rows([[1, 1]])
    assert lp_feasible(eq, [-3], {1}) is not None
    assert lp_feasible(eq, [-3], {0, 1}) is None


def test_lp_matches_basic_solution_enumeration():
    rng = random.Random(23)
    for _ in range(150):
        nvars = rng.randint(1, 4)
        nrows = rng.randint(1, 3)
        rows = [[F(rng.randint(-3, 3)) for _ in range(nvars)]
                for _ in range(nrows)]
        rhs = [F(rng.randint(-3, 3)) for _ in range(nrows)]
        got = lp_feasible(Mat.from_rows(rows), rhs, set(range(nvars)))
        want = feasible_by_basic_solutions(rows, rhs)
        assert (got is not None) == want
        if got is not None:
            assert all(x >= 0 for x in got)


# --- Sturm ------------------------------------------------------------------

def test_sturm_positive_everywhere():
    assert sturm_root_exists(poly([1, 0, 1])) is False


def test_sturm_linear():
    assert sturm_root_exists(poly([0, 1])) is True


def test_sturm_bounded_interval():
    p = poly([-1, 0, 1])  # s^2 - 1
    assert sturm_root_exists(p, F(0), F(2)) is True
    assert sturm_root_exists(p, F(2), F(3)) is False
    assert sturm_root_exists(p, F(-1, 2), F(1, 2)) is False


def test_sturm_endpoint_roots():
    p = poly([-1, 0, 1])
    assert sturm_root_exists(p, F(1), F(5)) is True
    assert sturm_root_exists(p, F(-5), F(-1)) is True


def test_sturm_multiple_root():
    p = poly([1, -2, 1])  # (s-1)^2
    assert sturm_root_exists(p) is True
    assert sturm_root_exists(p, F(2), None) is False


def test_sturm_zero_polynomial():
    with pytest.raises(ValueError):
        sturm_root_exists(poly([]))
    assert sturm_root_exists(poly([]), F(0), F(1)) is True
    assert sturm_root_exists(poly([]), F(0), None) is True


def test_sturm_matches_root_construction():
    rng = random.Random(5)
    for _ in range(150):
        nroots = rng.randint(0, 4)
        roots = set()
        while len(roots) < nroots:
            roots.add(F(rng.randint(-300, 300), 100))
        # force separation >= 1/100
        roots = sorted(roots)
        if any(b - a < F(1, 100) for a, b in zip(roots, roots[1:])):
            continue
        from plstab.ratmath import poly_mul
        p = poly([1])
        for r in roots:
            p = poly_mul(p, poly([-r, 1]))
        if nroots < 4 and rng.random() < 0.5:
            p = poly_mul(p, poly([1, 0, 1]))  # rootless quadratic factor
        lo = F(rng.randint(-400, 100), 100)
        hi = lo + F(rng.randint(0, 500), 100)
        expected = any(lo <= r <= hi for r in roots)
        assert sturm_root_exists(p, lo, hi) == expected
        assert sturm_root_exists(p) == (nroots > 0)


def test_sturm_matches_grid_oracle():
    rng = random.Random(17)
    checked = 0
    while checked < 60:
        roots = sorted({F(rng.randint(-200, 200), 100)
                        for _ in range(rng.randint(1, 3))})
        if any(b - a < F(1, 50) for a, b in zip(roots, roots[1:])):
            continue
        from plstab.ratmath import poly_mul
        p = poly([1])
        for r in roots:
            p = poly_mul(p, poly([-r, 1]))
        lo, hi = F(-3), F(3)
        want = root_in_interval_by_grid(list(p), lo, hi, F(1, 128))
        assert sturm_root_exists(p, lo, hi) == want
        checked += 1


def test_sturm_count_and_bound():
    p = poly([-2, 0, 0, 1])  # s^3 - 2, one real root
    assert sturm_count(p) == 1
    b = cauchy_root_bound(p)
    assert sturm_root_exists(p, -b, b)


# --- simplest rational in an interval ---------------------------------------

@pytest.mark.parametrize("a,b,want", [
    (F(1, 3), F(1, 2), F(1, 2)),
    (F(-1, 2), F(1, 3), F(0)),
    (F(7, 5), F(8, 5), F(3, 2)),
    (F(2), F(2), F(2)),
    (F(-5, 2), F(-7, 3), F(-5, 2)),
])
def test_simplest_between(a, b, want):
    got = simplest_between(a, b)
    assert a <= got <= b
    assert got == want


@given(st.fractions(min_value=-4, max_value=4, max_denominator=40),
       st.fractions(min_value=0, max_value=2, max_denominator=40))
@settings(max_examples=200)
def test_simplest_between_minimal_denominator(a, width):
    b = a + width
    got = simplest_between(a, b)
    assert a <= got <= b
    # nothing with a smaller denominator lies in [a, b]
    for den in range(1, got.denominator):
        lo = (a * den).__ceil__()
        hi = (b * den).__floor__()
        assert lo > hi

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (det_cofactor, feasible_by_basic_solutions, integer_poly,
                     max_minor_by_subsets, poly_det_cofactor, poly_eval_naive, poly_mul_naive,
                     rank_by_minors, root_in_interval_by_grid, rref_naive,
                     simplex_witness_fraction, sturm_count_euclid)
from plstab import ratmath
from plstab.ratmath import (as_fraction, cauchy_root_bound, combination,
                            format_rational, hull_rows, independent_subset,
                            lp_feasible, mat_rank, parse_rational,
                            simplest_between, solve_affine, square_free_part,
                            sturm_count, unit_vec, vec, vec_dot)

F = Fraction


def nullspace_basis(rows, ncols):
    """The rational nullspace basis, read off the integer normals (s, N) of
    the cleared rows as N / s: 1 at each free column, 0 at the others."""
    return tuple(tuple(F(x, s) for x in normal)
                 for s, normal in ratmath._nullspace_normals(
                     [ratmath._cleared(row)[1] for row in rows], ncols))

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@pytest.mark.parametrize("call, error, message", [
    (lambda: as_fraction("1"), TypeError, "cannot coerce str to Fraction"),
    (lambda: unit_vec(3, 4), ValueError,
     "unit vector index 4 out of range 1..3"),
    (lambda: solve_affine([[F(1), F(0)], [F(0), F(1)]], [F(1)]), ValueError,
     "rhs length does not match row count"),
    (lambda: simplest_between(F(1), F(0)), ValueError, "empty interval"),
], ids=["as-fraction-of-text", "unit-vec-index", "short-rhs",
        "empty-interval"])
def test_ratmath_input_checks_raise(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


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
    assert mat_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_zero_matrix():
    assert mat_rank([[0, 0], [0, 0]]) == 0


def test_rank_dependent_rows():
    assert mat_rank([[1, 2], [2, 4]]) == 1


def test_rank_matches_minor_enumeration():
    rng = random.Random(7)
    for _ in range(120):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        rows = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nc)]
                for _ in range(nr)]
        assert mat_rank(rows) == rank_by_minors(rows)


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


# --- the integer elimination kernel against textbook Gauss-Jordan ----------

@st.composite
def matrices(draw, max_rows=6, max_cols=5):
    """Fraction matrices with dependent rows, zero rows and zero columns."""
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = [draw(st.lists(small_fractions, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    for i in range(1, nrows):
        kind = draw(st.sampled_from(["free", "zero", "combination"]))
        if kind == "zero":
            rows[i] = [F(0)] * ncols
        elif kind == "combination":
            a, b = draw(small_fractions), draw(small_fractions)
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols - 1)):
        for row in rows:
            row[c] = F(0)
    return rows


def _cleared_minor(rows):
    """(the _minor of the denominator-cleared rows, the product of their
    row scales)."""
    cleared = [ratmath._cleared([F(x) for x in r]) for r in rows]
    return (ratmath._minor([ints for _, ints in cleared]),
            math.prod(d for d, _ in cleared))


@settings(max_examples=300, deadline=None)
@given(matrices(max_rows=4))
def test_cleared_minor_matches_minors_by_column_subsets(rows):
    # rectangular either way, with dependent rows, zero rows, zero columns;
    # the integer minor is the rational one times the row scales
    minor, scale = _cleared_minor(rows)
    assert minor == max_minor_by_subsets(rows) * scale
    k = min(len(rows), len(rows[0]))
    square = [r[:k] for r in rows[:k]]
    minor, scale = _cleared_minor(square)
    assert minor == abs(det_cofactor(square)) * scale
    gram = [[sum((a * b for a, b in zip(r, t)), F(0)) for t in rows]
            for r in rows]
    minor, scale = _cleared_minor(gram)
    assert minor == det_cofactor(gram) * scale


def test_cleared_minor_small_cases():
    assert _cleared_minor([]) == (1, 1)
    assert _cleared_minor([[0, 0, 0]]) == (0, 1)
    assert _cleared_minor([[1, 2], [2, 4], [0, 1]])[0] == 0  # more rows
    # the first column set {0, 1} has minor 0; {0, 2} is the first nonzero,
    # 1/3 over Q and 1 on the rows cleared by 1 and 3
    assert _cleared_minor([[1, 2, 0], [2, 4, F(-1, 3)]]) == (1, 3)
    assert type(_cleared_minor([[2, 3], [1, 4]])[0]) is int


@example([])  # no rows
@example([[0, 1], [1, 0]])  # the first pivot needs a row swap
@example([[0, 2, 1], [0, 3, 5]])  # a zero leading column
@example([[1, 2], [3, 4], [5, 6]])  # more rows than columns
@example([[1, 2, 3], [2, 4, 6]])  # dependent rows
@settings(max_examples=300, deadline=None)
@given(matrices(max_rows=4))
def test_minor_of_cleared_rows_is_the_oracle_minor_times_the_row_scales(rows):
    cleared = [ratmath._cleared([F(x) for x in r]) for r in rows]
    want = max_minor_by_subsets(rows) * math.prod(d for d, _ in cleared)
    assert ratmath._minor([ints for _, ints in cleared]) == want


def test_minor_updates_only_the_rows_below_each_pivot(monkeypatch):
    # forward elimination: the first pivot rewrites the second row and the
    # second pivot rewrites none, where Gauss-Jordan would go back to the
    # first row
    updates = []
    real = ratmath._pivot

    def counted(work, *args):
        before = list(work)
        pv = real(work, *args)
        updates.append(sum(a is not b for a, b in zip(before, work)))
        return pv

    monkeypatch.setattr(ratmath, "_pivot", counted)
    assert ratmath._minor([[2, 3, 1], [4, 1, 5]]) == 10
    assert updates == [1, 0]


def _solution_from_rref(red, pivots, ncols):
    """Particular solution and nullspace basis read off an augmented RREF."""
    if ncols in pivots:
        return None
    particular = [F(0)] * ncols
    for r, c in enumerate(pivots):
        particular[c] = red[r][-1]
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [F(0)] * ncols
            v[f] = F(1)
            for r, c in enumerate(pivots):
                v[c] = -red[r][f]
            basis.append(tuple(v))
    return tuple(particular), tuple(basis)


def _assert_solves_read_rref(rows, red, pivots):
    """Solving for each column of the rows reads that column of their RREF,
    and the nullspace basis reads the free columns, so together the solves
    return every entry of the reduced rows."""
    ncols = len(rows[0])
    for j in range(ncols):
        column = [row[j] for row in rows]
        assert solve_affine(rows, column) == _solution_from_rref(
            [r + [r[j]] for r in red], pivots, ncols)
    assert nullspace_basis(rows, ncols) == _solution_from_rref(
        [r + [F(0)] for r in red], pivots, ncols)[1]


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_and_rank_match_naive_gauss_jordan(rows):
    want, pivots = rref_naive(rows)
    _assert_solves_read_rref(rows, want, pivots)
    assert mat_rank(rows) == len(pivots) == rank_by_minors(rows)


@settings(max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_solve_and_nullspace_match_naive_gauss_jordan(rows, data):
    ncols = len(rows[0])
    rhs = data.draw(st.lists(small_fractions, min_size=len(rows),
                             max_size=len(rows)))
    augmented = [row + [b] for row, b in zip(rows, rhs)]
    assert solve_affine(rows, rhs) == _solution_from_rref(
        *rref_naive(augmented), ncols)
    zero_rhs = [row + [F(0)] for row in rows]
    assert nullspace_basis(rows, ncols) == _solution_from_rref(
        *rref_naive(zero_rhs), ncols)[1]


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_and_rank_match_sympy(rows):
    sympy = pytest.importorskip("sympy")
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                      for row in rows])
    red, pivots = m.rref()
    assert mat_rank(rows) == m.rank()
    want = [[F(int(x.p), int(x.q)) for x in red.row(i)] for i in range(red.rows)]
    _assert_solves_read_rref(rows, want, list(pivots))
    assert nullspace_basis(rows, len(rows[0])) == tuple(
        tuple(F(int(x.p), int(x.q)) for x in v) for v in m.nullspace())


# --- solve_affine ----------------------------------------------------------

def test_solve_identity():
    sol = solve_affine([[1, 0], [0, 1]], [3, -5])
    assert sol == (vec([3, -5]), ())


def test_nullspace_of_no_rows_is_the_standard_basis():
    assert nullspace_basis([], 2) == (vec([1, 0]), vec([0, 1]))
    assert nullspace_basis([[0, 0]], 2) == (vec([1, 0]), vec([0, 1]))


def test_solve_underdetermined():
    sol = solve_affine([[1, 1]], [1])
    assert sol is not None
    particular, basis = sol
    assert particular == vec([1, 0])
    assert len(basis) == 1
    v = basis[0]
    # spans the same line as (1, -1)
    assert v[0] * (-1) - v[1] * 1 == 0 and v != vec([0, 0])


def test_solve_inconsistent():
    assert solve_affine([[1], [1]], [0, 1]) is None


def test_solve_properties_random():
    rng = random.Random(11)
    for _ in range(100):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        a = [[F(rng.randint(-4, 4)) for _ in range(nc)] for _ in range(nr)]
        b = vec([rng.randint(-4, 4) for _ in range(nr)])
        sol = solve_affine(a, b)
        if sol is None:
            continue
        particular, basis = sol
        for r in range(nr):
            assert vec_dot(a[r], particular) == b[r]
        for v in basis:
            for r in range(nr):
                assert vec_dot(a[r], v) == 0
        assert len(basis) == nc - mat_rank(a)


# --- exact LP feasibility ---------------------------------------------------

def _segment_lp(point):
    # lambda1*(0,0) + lambda2*(1,1) = point, lambda >= 0, sum = 1
    eq = [[0, 1], [0, 1], [1, 1]]
    rhs = list(point) + [1]
    return lp_feasible(eq, rhs)


def test_lp_midpoint():
    w = _segment_lp([F(1, 2), F(1, 2)])
    assert w is not None
    assert sum(w) == 1 and all(x >= 0 for x in w)


def test_lp_outside_segment():
    assert _segment_lp([2, 2]) is None


def test_lp_triangle_slice():
    # first coordinate pinned to 1/2 on conv{(0,0),(1,0),(0,1)}
    eq = [[0, 1, 0], [1, 1, 1]]
    w = lp_feasible(eq, [F(1, 2), 1])
    assert w is not None
    assert w[1] == F(1, 2) and sum(w) == 1 and all(x >= 0 for x in w)


def test_hull_rows_layout():
    # Sum-to-one rows first, then y_i[c] - y_1[c] per later set i and
    # coordinate c, over the stacked lambda (2 + 1 + 2 columns).
    sets = [[vec([1, 2, 3]), vec([4, 5, 6])], [vec([7, 8, 9])],
            [vec([0, 1, 0]), vec([2, 0, 5])]]
    rows, rhs = hull_rows(sets, [0, 2])
    assert rows == [[1, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 1],
                    [-1, -4, 7, 0, 0], [-3, -6, 9, 0, 0],
                    [-1, -4, 0, 0, 2], [-3, -6, 0, 0, 5]]
    assert rhs == [1, 1, 1, 0, 0, 0, 0]
    assert hull_rows(sets[:1], [0, 1, 2]) == ([[1, 1]], [1])


def test_hull_rows_solutions_meet_on_the_coordinates():
    # Every nonnegative solution puts the combinations of all sets at one
    # point on the chosen coordinates.
    rng = random.Random(29)
    found = 0
    for _ in range(60):
        m = rng.randint(1, 3)
        sets = [[vec([rng.randint(-2, 2) for _ in range(m)])
                 for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(1, 3))]
        coords = sorted(rng.sample(range(m), rng.randint(0, m)))
        lam = lp_feasible(*hull_rows(sets, coords))
        if lam is None:
            continue
        at, ys = 0, []
        for pts in sets:
            weights = lam[at:at + len(pts)]
            at += len(pts)
            assert sum(weights) == 1
            ys.append([sum(w * p[c] for w, p in zip(weights, pts))
                       for c in coords])
        assert all(y == ys[0] for y in ys)
        found += 1
    assert found > 20


def test_combination():
    pts = [vec([1, 2]), vec([3, -4])]
    assert combination([F(1, 4), F(3, 4)], pts, range(2)) == (F(5, 2), F(-5, 2))
    assert combination([F(1, 4), F(3, 4)], pts, [1]) == (F(-5, 2),)
    assert combination([], [], range(2)) == (0, 0)


def test_lp_matches_basic_solution_enumeration():
    rng = random.Random(23)
    for _ in range(150):
        nvars = rng.randint(1, 4)
        nrows = rng.randint(1, 3)
        rows = [[F(rng.randint(-3, 3)) for _ in range(nvars)]
                for _ in range(nrows)]
        rhs = [F(rng.randint(-3, 3)) for _ in range(nrows)]
        got = lp_feasible(rows, rhs)
        want = feasible_by_basic_solutions(rows, rhs)
        assert (got is not None) == want
        if got is not None:
            assert all(x >= 0 for x in got)


@st.composite
def count_systems(draw, case):
    """A membership LP shaped like `count`'s: a sum-to-one row over 1-3
    vertex columns and 3-5 covector rows, with the rhs built from a chosen
    lambda.  Returns (rows, rhs, lambda)."""
    k = draw(st.integers(2 if case == "negative" else 1, 3))
    ncov = draw(st.integers(3, 5))
    values = [[draw(small_fractions) for _ in range(k)] for _ in range(ncov)]
    weights = [draw(st.integers(1, 5)) for _ in range(k)]
    if case == "negative":
        weights[draw(st.integers(0, k - 1))] *= -1
        assume(sum(weights) != 0)
    lam = [F(w, sum(weights)) for w in weights]
    if case == "repeated":
        j = draw(st.integers(0, k - 1))
        values = [row + [row[j]] for row in values]
        lam = lam + [F(0)]
    rows = [[F(1)] * len(lam)] + values
    rhs = [sum(a * x for a, x in zip(row, lam)) for row in rows]
    if case == "inconsistent":
        rhs[draw(st.integers(1, ncov))] += draw(st.sampled_from([F(1), F(-1, 2)]))
    return rows, rhs, lam


@pytest.mark.parametrize("case", ["feasible", "negative", "inconsistent",
                                  "repeated"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lp_count_shaped_systems_match_oracle(case, data):
    rows, rhs, lam = data.draw(count_systems(case))
    unique = rank_by_minors(rows) == len(lam)
    assume(unique != (case == "repeated"))
    want = feasible_by_basic_solutions(rows, rhs)
    if case == "inconsistent":
        assume(rank_by_minors([r + [b] for r, b in zip(rows, rhs)]) > len(lam))
    got = lp_feasible(rows, rhs)
    assert (got is not None) == want
    assert want == (case in ("feasible", "repeated"))
    if got is not None:
        assert all(vec_dot(vec(r), got) == b for r, b in zip(rows, rhs))
        assert all(x >= 0 for x in got)
        if unique:
            assert got == tuple(lam)


def test_lp_runs_the_simplex_only_on_a_nullspace(monkeypatch):
    calls = []
    simplex = ratmath._simplex_witness

    def counting(*args):
        calls.append(args)
        return simplex(*args)

    monkeypatch.setattr(ratmath, "_simplex_witness", counting)
    # segment from (0, 0) to (2, 2) cut at x = 1: unique lambda
    unique = [[1, 1], [0, 2], [0, 2]]
    assert lp_feasible(unique, [1, 1, 1]) == vec([F(1, 2), F(1, 2)])
    assert lp_feasible(unique, [1, 3, 3]) is None  # lambda_0 < 0
    assert lp_feasible(unique, [1, 1, 2]) is None  # inconsistent
    assert calls == []
    # the endpoint (2, 2) repeated: a one-dimensional nullspace
    repeated = [[1, 1, 1], [0, 2, 2], [0, 2, 2]]
    w = lp_feasible(repeated, [1, 1, 1])
    assert w is not None and w[0] == F(1, 2) and w[1] + w[2] == F(1, 2)
    assert len(calls) == 1


@st.composite
def lp_systems(draw):
    """A standard-form LP {x >= 0 : rows . x = rhs} over 1-5 variables with
    1-4 drawn rows and up to two repeats.

    Entries are small halves, so the ratio test often ties; right-hand
    sides take either sign, and half the systems build theirs from a point
    x >= 0, so they are feasible.  Returns (rows, rhs).
    """
    ncols = draw(st.integers(1, 5))
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    if draw(st.booleans()):
        x = [abs(v) for v in draw(st.lists(entries, min_size=ncols,
                                           max_size=ncols))]
        rhs = [sum(a * v for a, v in zip(r, x)) for r in rows]
    else:
        rhs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
        rows.append(list(rows[i]))
        rhs.append(rhs[i] if draw(st.booleans()) else draw(entries))
    return rows, rhs


# Two systems whose ratio test ties between a row with a structural basic
# variable and an earlier row: only the tie-break on the smaller basis index
# reaches the reference witness (random draws hit such a tie about once in
# 8,000 systems).  Each once had a free variable; here it is split into a
# column and its negated copy right after it.
@example(([[-1, -1, 1, 1, -1, 0], [0, 2, 1, -2, 2, 0], [-1, 1, 1, 2, -2, 1]],
          [1, 1, 8]))
@example(([[-2, F(1, 2), F(-1, 2), -1, 2], [1, 0, 0, F(1, 2), 1],
           [2, 1, -1, -1, 1]], [2, 3, 4]))
@settings(max_examples=500, deadline=None)
@given(lp_systems())
def test_simplex_witness_matches_fraction_tableau(system):
    rows, rhs = system
    want = simplex_witness_fraction(rows, rhs, set(range(len(rows[0]))))
    assert ratmath._simplex_witness(rows, vec(rhs)) == want
    # a unique solution is the only point the simplex can reach, so the
    # elimination-first path gives the same witness on every system
    assert lp_feasible(rows, rhs) == want


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]]])
@pytest.mark.parametrize("call", [
    lambda rows: mat_rank(rows),
    lambda rows: solve_affine(rows, [1, 1]),
    lambda rows: lp_feasible(rows, [1, 1]),
], ids=["mat_rank", "solve_affine", "lp_feasible"])
def test_ragged_rows_raise(rows, call):
    with pytest.raises(ValueError, match="ragged rows"):
        call(rows)


# --- integer polynomials ----------------------------------------------------

@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.lists(st.integers(-3, 3), max_size=3), min_size=n, max_size=n),
    min_size=n, max_size=n)))
@settings(max_examples=200, deadline=None)
def test_poly_det_matches_cofactor_expansion(matrix):
    # small entries and short polynomials make zero pivots, so rows swap
    rows = [[integer_poly(e) for e in r] for r in matrix]
    want = poly_det_cofactor([[tuple(e) for e in r] for r in rows])
    assert tuple(ratmath._poly_det(rows)) == want


def test_exact_quotient_raises_on_a_remainder():
    assert ratmath._exact_quotient([-2, 1, 1], [-1, 1]) == [2, 1]
    with pytest.raises(ArithmeticError):
        ratmath._exact_quotient([-2, 1, 1], [1, 2])  # (s-1)(s+2) / (2s+1)
    with pytest.raises(ArithmeticError):
        ratmath._exact_quotient([1, 2], [0, 2])  # 2s+1 over Z by 2s


# --- Sturm ------------------------------------------------------------------

def root_in(p, lo=None, hi=None):
    """p has a real root in [lo, hi]: lo is a root, or sturm_count finds one
    in (lo, hi]."""
    return ((lo is not None and ratmath._sign_at(p, lo) == 0)
            or sturm_count(p, lo, hi) > 0)


def test_sturm_positive_everywhere():
    assert root_in([1, 0, 1]) is False


def test_sturm_linear():
    assert root_in([0, 1]) is True


def test_sturm_bounded_interval():
    p = [-1, 0, 1]  # s^2 - 1
    assert root_in(p, F(0), F(2)) is True
    assert root_in(p, F(2), F(3)) is False
    assert root_in(p, F(-1, 2), F(1, 2)) is False


def test_sturm_endpoint_roots():
    p = [-1, 0, 1]
    assert root_in(p, F(1), F(5)) is True
    assert root_in(p, F(-5), F(-1)) is True


def test_sturm_multiple_root():
    p = [1, -2, 1]  # (s-1)^2
    assert root_in(p) is True
    assert root_in(p, F(2), None) is False


def test_sturm_zero_polynomial():
    # [] counts no root, like any polynomial of degree below 1
    assert sturm_count([]) == 0
    assert sturm_count([], F(0), F(1)) == 0
    assert square_free_part([]) == []
    assert cauchy_root_bound([]) == 1


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
        p = (1,)
        for r in roots:
            p = poly_mul_naive(p, (-r, 1))
        if nroots < 4 and rng.random() < 0.5:
            p = poly_mul_naive(p, (1, 0, 1))  # rootless quadratic factor
        p = integer_poly(p)
        lo = F(rng.randint(-400, 100), 100)
        hi = lo + F(rng.randint(0, 500), 100)
        expected = any(lo <= r <= hi for r in roots)
        assert root_in(p, lo, hi) == expected
        assert root_in(p) == (nroots > 0)


def test_sturm_matches_grid_oracle():
    rng = random.Random(17)
    checked = 0
    while checked < 60:
        roots = sorted({F(rng.randint(-200, 200), 100)
                        for _ in range(rng.randint(1, 3))})
        if any(b - a < F(1, 50) for a, b in zip(roots, roots[1:])):
            continue
        p = (1,)
        for r in roots:
            p = poly_mul_naive(p, (-r, 1))
        p = integer_poly(p)
        lo, hi = F(-3), F(3)
        want = root_in_interval_by_grid(p, lo, hi, F(1, 128))
        assert root_in(p, lo, hi) == want
        checked += 1


def test_sturm_count_and_bound():
    p = [-2, 0, 0, 1]  # s^3 - 2, one real root
    assert sturm_count(p) == 1
    b = cauchy_root_bound(p)
    assert root_in(p, -b, b)


def test_sturm_count_rejects_an_empty_interval():
    with pytest.raises(ValueError, match="empty interval"):
        sturm_count([-1, 0, 1], F(2), F(-2))
    with pytest.raises(ValueError, match="empty interval"):
        sturm_count([], F(1), F(0))
    assert sturm_count([-1, 0, 1], F(1), F(1)) == 0  # (1, 1] is empty


def test_sturm_count_at_a_multiple_root_endpoint():
    p = integer_poly(poly_mul_naive((1, -2, 1), (-2, 1)))  # (s-1)^2 (s-2)
    assert sturm_count(p, F(1), F(3)) == 1
    assert sturm_count(p, F(0), F(1)) == 1
    assert sturm_count(p, F(0), F(3)) == 2
    assert sturm_count(p, F(2), F(5)) == 0


@st.composite
def sturm_cases(draw):
    """(integer coefficients, lo, hi): random rational or huge integer
    coefficients, or a product of repeated rational roots, an optional
    rootless quadratic factor and a scale of up to 1100 bits, with the
    denominators cleared; endpoints may be unbounded or sit on a root."""
    roots = []
    if draw(st.booleans()):
        coeff = st.one_of(st.fractions(min_value=-30, max_value=30,
                                       max_denominator=20),
                          st.integers(-2 ** 1100, 2 ** 1100).map(F))
        p = draw(st.lists(coeff, min_size=1, max_size=8))
    else:
        roots = draw(st.lists(st.fractions(min_value=-6, max_value=6,
                                           max_denominator=12), max_size=4))
        p = (1,)
        for r in roots:
            for _ in range(draw(st.integers(1, 3))):
                p = poly_mul_naive(p, (-r, 1))
        if draw(st.booleans()):
            b = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
            c = b * b / 4 + draw(st.fractions(min_value=F(1, 100), max_value=4))
            p = poly_mul_naive(p, (c, b, 1))  # no real root
        scale = F(draw(st.one_of(st.integers(1, 9),
                                 st.integers(2 ** 1000, 2 ** 1100))),
                  draw(st.integers(1, 9)))
        p = poly_mul_naive(p, (scale if draw(st.booleans()) else -scale,))
    end = st.one_of(st.none(), st.fractions(min_value=-8, max_value=8,
                                            max_denominator=8))
    if roots:
        end = st.one_of(end, st.sampled_from(roots))
    lo, hi = draw(end), draw(end)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return integer_poly(p), lo, hi


@given(sturm_cases())
@settings(max_examples=200, deadline=None)
def test_sturm_matches_euclidean_chain(case):
    p, lo, hi = case
    want = sturm_count_euclid(p, lo, hi)
    assert sturm_count(p, lo, hi) == want
    for x in (lo, hi):
        if p and x is not None:
            value = poly_eval_naive(p, x)
            assert ratmath._sign_at(p, x) == (value > 0) - (value < 0)


@given(sturm_cases())
@settings(max_examples=200, deadline=None)
def test_sturm_chain_of_a_square_free_part_ends_in_a_nonzero_constant(case):
    p = case[0]
    assume(len(p) > 1)
    ps = square_free_part(p)
    chain = ratmath._sturm_chain(ps)
    assert len(chain[-1]) == 1 and chain[-1][0] != 0
    # the last member is gcd(ps, ps'), so ps has simple roots: those of p
    assert sturm_count_euclid(ps) == sturm_count_euclid(p)


@given(sturm_cases())
@settings(max_examples=150, deadline=None)
def test_sturm_count_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    p, lo, hi = case
    assume(len(p) > 1)
    x = sympy.Symbol("x")
    rat = (lambda v: None if v is None
           else sympy.Rational(v.numerator, v.denominator))
    sp = sympy.Poly([rat(c) for c in reversed(p)], x)
    want = sp.count_roots(rat(lo), rat(hi))  # distinct roots in [lo, hi]
    if lo is not None and sp.eval(rat(lo)) == 0:
        want -= 1
    assert sturm_count(p, lo, hi) == want


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


def _simplest_between_recursive(a, b):
    """The Stern-Brocot recursion that simplest_between runs as a loop."""
    if a <= 0 <= b:
        return F(0)
    if b < 0:
        return -_simplest_between_recursive(-b, -a)
    fa = a.numerator // a.denominator
    if F(fa) == a:
        return F(fa)
    if b >= fa + 1:
        return F(fa + 1)
    return fa + 1 / _simplest_between_recursive(1 / (b - fa), 1 / (a - fa))


def test_simplest_between_past_the_recursion_limit():
    # consecutive Fibonacci ratios: about 2,000 continued-fraction terms
    fib = [0, 1]
    while len(fib) < 2004:
        fib.append(fib[-1] + fib[-2])
    a, b = F(fib[2000], fib[2001]), F(fib[2002], fib[2003])
    assert simplest_between(a, b) == a
    assert simplest_between(-b, -a) == -a


@given(st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6),
       st.fractions(min_value=0, max_value=3, max_denominator=10 ** 6))
@settings(max_examples=300)
def test_simplest_between_matches_recursive_definition(a, width):
    got = simplest_between(a, a + width)
    assert got == _simplest_between_recursive(a, a + width)
    assert type(got) is F


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

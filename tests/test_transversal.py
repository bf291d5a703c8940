import itertools
import json
import random
from fractions import Fraction

import pytest

from oracles import (basic_feasible_solutions, feasible_by_basic_solutions,
                     integer_poly, max_disjoint_by_subsets, poly_eval_naive,
                     poly_mul_naive, rank_by_minors, sturm_count_euclid,
                     univariate_by_gram)
from plstab.batch import (random_complex, random_map, sample_plane_adversarial,
                          sample_plane_random)
from plstab import transversal
from plstab.generic import GenericPool
from plstab.ratmath import _sign_at, square_free_part, sturm_count, vec
from plstab.simplicial import (PLMap, certify_map, parse_complex,
                               roberts_perturb)
from plstab.transversal import (BoundResult, ConcretePlane, NonStabCase,
                                PlaneFamily, StabDecision, decide_stab,
                                family_from_json_dict,
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
    ConcretePlane(fam, vec([0, 0, 0]), (vec([1, 2, 0]),))
    with pytest.raises(ValueError):
        ConcretePlane(fam, vec([0, 0, 0]), (vec([1, 0, 1]),))  # leaves span(s_T)
    with pytest.raises(ValueError):
        ConcretePlane(fam, vec([0, 0, 0]), ())  # wrong direction count


def test_plane_membership_via_covectors():
    fam = PlaneFamily(3, (1,), (1, 2, 3), 2)
    plane = ConcretePlane(fam, vec([0, 1, 1]), (vec([0, 1, 1]),))
    assert plane.contains(vec([7, 1, 1]))
    assert plane.contains(vec([7, 3, 3]))
    assert not plane.contains(vec([7, 3, 2]))
    assert len(plane.covectors()) == 1  # codimension m - d


def test_plane_through_pads_dimension():
    fam = PlaneFamily(4, (), (1, 2, 3), 2)
    plane = plane_through(fam, vec([0, 0, 0, 0]), [vec([1, 1, 0, 0])])
    assert len(plane.extra_directions) == fam.d - fam.t == 2
    assert plane.contains(vec([1, 1, 0, 0]))


def test_plane_json_round_trip():
    fam = PlaneFamily(3, (2,), (1, 2), 2)
    plane = ConcretePlane(fam, vec([F(1, 2), 0, 3]), (vec([1, -1, 0]),))
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


# --- membership decisions ----------------------------------------------------

def _vertical_line(x):
    fam = PlaneFamily(2, (2,), (2,), 1)
    return ConcretePlane(fam, vec([x, 0]), ())


def _one_edge(a, b):
    k = parse_complex("v a\nv b\ns a b\n")
    g = certify_map(k, PLMap(len(a), {"a": vec(a), "b": vec(b)}))
    assert g.certified  # every coordinate differs from every other
    return k, g


def test_image_membership_vertex():
    k, g = _one_edge([0, 5], [3, 1])
    hits = stabbed_simplexes(k, g, _vertical_line(F(0)), 1)
    assert hits == [(("a",), [(1,)]), (("a", "b"), [(1, 0)])]


def test_image_membership_outside_segment():
    # the line x = 5 meets the affine hull of the edge but not the edge
    k, g = _one_edge([0, 2], [1, 3])
    assert stabbed_simplexes(k, g, _vertical_line(F(5)), 1) == []


def test_image_membership_midpoint():
    k, g = _one_edge([0, 2], [1, 3])
    assert stabbed_simplexes(k, g, _vertical_line(F(1, 2)), 1) == [
        (("a", "b"), [(F(1, 2), F(1, 2))])]


def test_full_space_plane_meets_everything():
    fam = PlaneFamily(2, (), (1, 2), 2)
    plane = plane_through(fam, vec([100, 100]))
    k, g = _one_edge([0, 2], [1, 3])
    assert stabbed_simplexes(k, g, plane, 1) == [
        (("a",), [(1,)]), (("b",), [(1,)]), (("a", "b"), [(1, 0), (0, 1)])]


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
    # -1).  Each simplex at o meets the plane in o alone; the others miss
    # it, and so does every simplex once the plane moves off o.
    k = parse_complex(_FAN)
    o = vec(_FAN_IMAGES["o"])
    g = certify_map(k, PLMap(2, {
        v: tuple(c + side * (x - c) for x, c in zip(vec(p), o))
        for v, p in _FAN_IMAGES.items()}))
    assert g.certified
    at_o = [s for s in k.sorted_simplexes() if "o" in s]
    assert len(at_o) == 7
    assert stabbed_simplexes(k, g, ConcretePlane(fam, o, extras), 2) == [
        (s, [tuple(int(v == "o") for v in s)]) for s in at_o]
    nudge = F(1, 10 ** 9)
    off = tuple(c - side * step for c, step in zip(o, (nudge, 2 * nudge)))
    assert stabbed_simplexes(k, g, ConcretePlane(fam, off, extras), 2) == []


def _oracle_pieces(k, g, plane, nmax):
    """Per simplex of dimension <= nmax, the vertices of its piece by
    basic-solution scan of rows built here from the plane's covectors."""
    covs = plane.covectors()
    out = []
    for s in k.sorted_simplexes():
        if len(s) - 1 > nmax:
            continue
        rows = [[1] * len(s)] + [
            [sum(a * b for a, b in zip(c, g.images[v])) for v in s]
            for c, _ in covs]
        rhs = [1] + [r for _, r in covs]
        if feasible_by_basic_solutions(rows, rhs):
            out.append((s, set(basic_feasible_solutions(rows, rhs))))
    return out


def test_membership_sweep_matches_basic_solution_oracle():
    # The sweep against an oracle sharing none of its code: same hit list,
    # same piece vertices, on certified complexes and random and adversarial
    # planes of every shape of family.
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
                got = [(s, set(verts))
                       for s, verts in stabbed_simplexes(k, g, plane, nmax)]
                assert got == _oracle_pieces(k, g, plane, nmax)
                cases += 1
    assert cases == 216


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
    sets = [[vec([3, 4, 5]), vec([1, 1, 1])]]
    got = stab_exists_linear(sets, fam, _flat_in("linear", sets, fam))
    assert got.status == "witness"
    w = got.witness
    assert verify_stab_witness(w, [[vec([3, 4, 5]), vec([1, 1, 1])]], fam)[0]


def test_linear_infeasible_fixture():
    sets = [[vec([0, 0, 0])], [vec([5, 0, 1])]]
    got = stab_exists_linear(sets, _LINE_IN_SPAN_E1,
                             _flat_in("linear", sets, _LINE_IN_SPAN_E1))
    assert got == StabDecision("infeasible")


def test_linear_feasible_fixture():
    sets = [[vec([0, 0, 0])], [vec([5, 0, 0])]]
    got = stab_exists_linear(sets, _LINE_IN_SPAN_E1,
                             _flat_in("linear", sets, _LINE_IN_SPAN_E1))
    assert got.status == "witness"
    w = got.witness
    ok, checks = verify_stab_witness(w, sets, _LINE_IN_SPAN_E1)
    assert ok and checks >= 6
    assert w.points == (vec([0, 0, 0]), vec([5, 0, 0]))


def test_linear_rejects_large_q():
    # q = d-t+2 on a flat of dimension one or more is not the linear
    # regime; on a point flat or an empty flat the linear decider takes
    # every q, and its answers are exact: on three points, one rank test
    fam = PlaneFamily(2, (), (1, 2), 1)
    segments = [[vec([0, 0]), vec([1, 0])], [vec([0, 1]), vec([1, 2])],
                [vec([3, 0]), vec([0, 3])]]
    assert stab_regime(segments, fam)[0] == "search"
    for sets, want in [([[vec([0, 0])], [vec([1, 1])], [vec([2, 2])]],
                        "witness"),
                       ([[vec([0, 0])], [vec([1, 0])], [vec([0, 1])]],
                        "no_stab")]:
        got = stab_exists_linear(sets, fam, _flat_in("linear", sets, fam))
        assert got.status == want
    fam = PlaneFamily(2, (), (1,), 1)
    sets = [[vec([0, 0])], [vec([0, 0])], [vec([0, 1])]]
    got = stab_exists_linear(sets, fam, _flat_in("linear", sets, fam))
    assert got == StabDecision("infeasible")


from hypothesis import given, settings
from hypothesis import strategies as st

small_rat = st.fractions(min_value=-4, max_value=4, max_denominator=4)


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
    sets = [[vec(p)] for p in points]
    got = decide_stab(sets, fam, 0, GenericPool(0))
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
    sets = [[vec(p) for p in ps] for ps in raw_sets]
    got = stab_exists_linear(sets, fam, _flat_in("linear", sets, fam))
    assert got.status in ("witness", "infeasible")
    witness = got.witness
    assert (witness is not None) == (got.status == "witness")
    if witness is not None:
        ok, _ = verify_stab_witness(witness, sets, fam)
        assert ok
        for lam in witness.lambdas:
            assert sum(lam) == 1


# --- univariate decision -------------------------------------------------------

_POINT_FAMILY_2D = PlaneFamily(2, (), (1, 2), 0)


def _univariate(sets, family):
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
    assert [stab_regime(sets[:q], _POINT_FAMILY_2D)[0] for q in (1, 3, 4)] \
        == ["linear", "linear", "linear"]
    segments = [[vec([0, 0]), vec([1, 0])], [vec([0, 1]), vec([1, 2])],
                [vec([3, 0]), vec([0, 3])]]
    mode, flat = stab_regime(segments, _POINT_FAMILY_2D)
    assert (mode, len(flat[1])) == ("search", 3)


def test_univariate_not_applicable_flat_dimension():
    # q = 2, but a plane of lambdas: the search decides
    sets = [[vec([0, 0]), vec([2, 0]), vec([0, 2])], [vec([5, 5])]]
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
def univariate_cases(draw):
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
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=2)
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
    return PlaneFamily(m, s_t, s_T, d), [[vec(p) for p in pts] for pts in sets]


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


# --- heuristic search -----------------------------------------------------------

def _z_axis_fixture():
    fam = PlaneFamily(3, (), (1, 2, 3), 1)
    sets = [
        [vec([0, 0, 0]), vec([1, 0, 0])],
        [vec([0, 0, 1]), vec([0, 1, 1])],
        [vec([0, 0, 2]), vec([1, 1, 2])],
    ]
    return fam, sets


def _search(sets, fam, budget, pool):
    return stab_search_general(sets, fam, _flat_in("search", sets, fam),
                               budget, pool)


def test_search_finds_z_axis_transversal():
    fam, sets = _z_axis_fixture()
    got = _search(sets, fam, budget=500, pool=GenericPool(0))
    assert got.status == "witness"
    ok, _ = verify_stab_witness(got.witness, sets, fam)
    assert ok
    assert got.witness.points == (vec([0, 0, 0]), vec([0, 0, 1]), vec([0, 0, 2]))


def test_search_budget_zero():
    fam, sets = _z_axis_fixture()
    got = _search(sets, fam, budget=0, pool=GenericPool(0))
    assert got == StabDecision("not_found", evaluations=0)


def test_search_rejects_linear_regime():
    # q <= d-t+1 is decided exactly, whatever the budget: no search runs
    fam = PlaneFamily(3, (), (1, 2), 1)
    for sets in ([[vec([0, 0, 0])]], [[vec([0, 0, 0])], [vec([1, 1, 1])]]):
        assert decide_stab(sets, fam, 10, GenericPool(0))["mode"] == "linear"


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
    got = decide_stab(sets, fam, 400, pool)
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
    # two skew lines: no common point, after 41 evaluations of the search
    ([[vec([0, 0, 0]), vec([1, 0, 0])], [vec([0, 1, 1]), vec([0, 2, 1])]],
     PlaneFamily(3, (), (1, 2, 3), 0), 40,
     '{"certified": false, "conditions_checked": 0, "evaluations": 41, '
     '"lambdas": null, "mode": "search", "plane": null, '
     '"status": "not_found"}'),
    ([[vec([0, 0]), vec([2, 2])], [vec([1, 1])]], _POINT_FAMILY_2D, 0,
     '{"certified": true, "conditions_checked": 6, "lambdas": [["1/2", "1/2"], '
     '["1"]], "mode": "univariate", '
     '"plane": {"ST": [1, 2], "St": [], "basepoint": ["1", "1"], '
     '"d": 0, "extra_dirs": [], "m": 2}, "points": [["1", "1"], ["1", "1"]], '
     '"status": "witness"}'),
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
    got = decide_stab(sets, family, budget, GenericPool(0))
    assert json.dumps(got, sort_keys=True) == want


# --- input errors of the stab decision ----------------------------------------

_P = vec([0, 0])
_D0 = PlaneFamily(2, (), (1,), 1)  # d - t = 1: linear up to q = 2


def _through_regime(decider, *args):
    """The decider as the stab decision runs it, on stab_regime's flat."""
    return lambda sets, fam: decider(sets, fam, stab_regime(sets, fam)[1],
                                     *args)


_LINEAR = _through_regime(stab_exists_linear)
_SEARCH = _through_regime(stab_search_general, 10, GenericPool(0))
_UNIVARIATE = _through_regime(stab_decide_univariate)


# no decider checks the point sets itself: each takes its flat from
# stab_regime, whose emptiness check comes first
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
        decide(sets, _D0)
    assert str(info.value) == "need nonempty point sets"


def test_decide_stab_solves_the_constraint_flat_once(monkeypatch):
    # stab_regime solves the flat and the decider it picks runs on it: one
    # solve_affine per decision, on one input per mode
    calls = []
    solve = transversal.solve_affine

    def counting(rows, rhs):
        calls.append(len(rows))
        return solve(rows, rhs)

    monkeypatch.setattr(transversal, "solve_affine", counting)
    cases = [([[vec([0, 0, 0])], [vec([5, 0, 0])]], _PLANE_E1, 0),
             ([[vec([0, 0]), vec([2, 2])], [vec([1, 1])]], _POINT_FAMILY_2D, 0),
             (_Z_SETS, PlaneFamily(3, (), (1, 2, 3), 1), 500)]
    seen = []
    for sets, family, budget in cases:
        calls.clear()
        got = decide_stab(sets, family, budget, GenericPool(0))
        seen.append((got["mode"], got["status"], len(calls)))
    assert seen == [("linear", "witness", 1), ("univariate", "witness", 1),
                    ("search", "witness", 1)]


# --- counting disjoint stabbed simplexes ------------------------------------

def _two_edges():
    k = parse_complex("v a\nv b\nv c\nv d\ns a b\ns c d\n")
    g = certify_map(k, PLMap(2, {
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


def test_count_rechecks_its_family(monkeypatch):
    k, g = _two_edges()
    real = transversal.stabbed_simplexes
    # a piece vertex whose image is off the plane: vertex a of edge ab
    monkeypatch.setattr(transversal, "stabbed_simplexes", lambda *args: [
        (s, [(1,) + (0,) * (len(s) - 1)]) for s, _ in real(*args)])
    with pytest.raises(RuntimeError):
        max_disjoint_stabbed(k, g, _vertical_line(F(1, 2)), nmax=1)
    # a family whose members share a vertex
    monkeypatch.setattr(transversal, "stabbed_simplexes", real)
    monkeypatch.setattr(transversal, "_max_independent_set",
                        lambda n, adj: list(range(n)))
    plane = plane_through(PlaneFamily(2, (), (1, 2), 2), vec([0, 0]))
    with pytest.raises(RuntimeError):
        max_disjoint_stabbed(k, g, plane, nmax=1)


def test_count_matches_subset_enumeration():
    rng = random.Random(6)
    for trial in range(10):
        nv = rng.randint(4, 7)
        names = [f"v{i}" for i in range(nv)]
        maximal = [rng.sample(names, rng.randint(1, 3))
                   for _ in range(rng.randint(2, 5))]
        from plstab.simplicial import SimplicialComplex
        k = SimplicialComplex.from_simplexes(names, maximal)
        theta = PLMap(2, {v: vec([rng.randint(0, 6), rng.randint(0, 6)])
                          for v in names})
        g = roberts_perturb(k, theta, F(1, 3), GenericPool(trial + 100))
        plane = _vertical_line(F(rng.randint(0, 12), 2))
        count, family = max_disjoint_stabbed(k, g, plane, nmax=2)
        hits = [s for s, _ in stabbed_simplexes(k, g, plane, 2)]
        want, _ = max_disjoint_by_subsets(
            hits, lambda s1, s2: bool(set(s1) & set(s2)))
        assert count == want
        # returned family is itself valid
        assert all(not set(s1) & set(s2)
                   for s1, s2 in itertools.combinations(family, 2))


def test_count_requires_certificate():
    k = parse_complex("v a\ns a\n")
    g = PLMap(2, {"a": vec([0, 0])})
    with pytest.raises(ValueError):
        max_disjoint_stabbed(k, g, _vertical_line(F(0)), 1)

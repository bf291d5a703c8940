"""Stabbing decisions for families of d-planes parallel to nested coordinate planes.

A plane family fixes the ambient dimension m, coordinate-index sets
s_t subset of s_T, and the plane dimension d; a member plane's direction
space must contain the s_t coordinate axes and stay inside the span of the
s_T axes.  This module provides:

* the exact counting ceiling (:func:`stab_bound`) and case predicate
  (:func:`nonstab_case`);
* member planes on their integer form (:class:`ConcretePlane`): the
  basepoint and extra directions as integer vectors, read straight from
  JSON digits or cleared from Fractions by :meth:`ConcretePlane.of`, and
  integer covectors built once per plane; the Fraction views are built
  only when read;
* the one plane-membership test and face walk (:func:`stabbed_simplexes`),
  on the map's and the plane's integer forms: points, as integers over one
  pivot, and minimal stabbed faces, one exact solve per candidate, no LP;
* the one integer form of point sets (:class:`PointSets`): the lcm E of
  all their coordinates' denominators and the integer points E p_ij, which
  every decider reads; the Fraction view is built only when it is read;
* one stab decision (:func:`decide_stab`): the regime rule
  (:func:`stab_regime`) solves the constraint flat (the
  :func:`~plstab.ratmath.hull_rows` outside s_T, run on the integer
  points) once and picks the exact linear decider, the exact univariate
  decider (gcd of the maximal minors, Sturm) or the heuristic search
  (``not_found`` is never evidence); all three return a
  :class:`StabDecision`, and every witness and isolating interval is
  re-verified;
* one integer builder of the block differences of the met points, run
  once per decision (:func:`_block_differences`: the integer points, one
  scale), read at a flat point (:func:`_rows_at`) by the one stab test
  (:func:`_stabs_at`: rank at most d-t) and the search's Gram determinant
  (:func:`_gram_det`), and along a line by the univariate decider's rows;
* the exact maximum family of pairwise vertex-disjoint stabbed simplexes
  of a PL image, by branch and bound, re-checked exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .generic import _derived_seed
from .ratmath import (Vec, _cleared, _cleared_ratios, _lowest, _minor,
                      _nullspace_normals, _poly_det, _poly_gcd, _sign_at,
                      _solve_augmented, _sturm_chain, _trimmed,
                      _unique_solution, _variations,
                      cauchy_root_bound, combination, format_rational,
                      hull_rows, independent_subset, mat_rank, parse_ratio,
                      parse_rational, simplest_between, square_free_part,
                      sturm_count, unit_vec, vec, vec_sub)
from .simplicial import PLMap, Simplex, SimplicialComplex, image_point

_ZERO = Fraction(0)
_ONE = Fraction(1)
_FAMILY_KEYS = ("m", "St", "ST", "d")  # a family's JSON keys


@dataclass(frozen=True)
class PlaneFamily:
    """Pattern of d-planes parallel to coordinate planes s_t inside s_T (1-based).

    The coordinate partition is recorded once, after the checks: ``block``
    is s_T minus s_t and ``outside`` every coordinate not in s_T, both
    1-based and ascending.
    """

    m: int
    s_t: tuple[int, ...]
    s_T: tuple[int, ...]
    d: int
    block: tuple[int, ...] = field(init=False, repr=False, compare=False)
    outside: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.s_t != tuple(sorted(set(self.s_t))):
            raise ValueError("s_t must be sorted and duplicate-free")
        if self.s_T != tuple(sorted(set(self.s_T))):
            raise ValueError("s_T must be sorted and duplicate-free")
        if not set(self.s_t) <= set(self.s_T):
            raise ValueError("s_t must be a subset of s_T")
        if any(not 1 <= j <= self.m for j in self.s_T):
            raise ValueError("coordinate indices must lie in 1..m")
        if not self.t <= self.d <= self.T <= self.m:
            raise ValueError("need |s_t| <= d <= |s_T| <= m")
        object.__setattr__(self, "block", tuple(
            j for j in self.s_T if j not in self.s_t))
        object.__setattr__(self, "outside", tuple(
            j for j in range(1, self.m + 1) if j not in self.s_T))

    @property
    def t(self) -> int:
        return len(self.s_t)

    @property
    def T(self) -> int:
        return len(self.s_T)

    def embed(self, block_coords: Sequence) -> tuple:
        """The vector of R^m with the given block coordinates, 0 elsewhere."""
        full = [0] * self.m
        for value, j in zip(block_coords, self.block):
            full[j - 1] = value
        return tuple(full)

    def restrict(self, v: Sequence, what: str) -> Vec:
        """The block coordinates of v, which must lie in span(s_T); the
        error names v as ``what``."""
        if any(v[j - 1] != 0 for j in self.outside):
            raise ValueError(f"{what} leaves span(s_T)")
        return tuple(v[j - 1] for j in self.block)


# A vector on its integer form: (D, the integers D x), D > 0 the lcm of the
# denominators of x (see ratmath._cleared).
Form = tuple[int, tuple[int, ...]]
# An integer covector (C, s, a, b): x is on the plane iff C.x = s a / b,
# with C / s the rational covector, s > 0 the lcm of its denominators, and
# a / b its right-hand side in lowest terms.
IntCovector = tuple[tuple[int, ...], int, int, int]


@dataclass(frozen=True)
class ConcretePlane:
    """A member of a family: basepoint plus d-t extra directions inside
    span(s_T), on its integer form.

    ``base`` and each of ``extras`` is a vector on its integer form
    (:data:`Form`): :func:`plane_from_json_dict` reads them straight from
    the digits, and :meth:`of` clears Fraction vectors into them, for
    :func:`plane_through` and every other caller.  The integer covectors
    (:data:`IntCovector`) are built once, at construction: a unit row per
    coordinate outside s_T, its right-hand side the basepoint's coordinate,
    then per extra-direction normal on the block (the integer normals of
    :func:`~plstab.ratmath._nullspace_normals`, each N = s times the basis
    vector with 1 at its free column) the embedded N, with right-hand side
    N.B / (s D) for the basepoint's block coordinates B / D.  Each is
    exactly the cleared form of a covector of the rational nullspace basis,
    so membership (:func:`stabbed_simplexes`) reads them and clears
    nothing.  ``basepoint``, ``extra_directions`` and :meth:`covectors` are
    the Fraction views; the covectors are built the first time
    :meth:`contains` reads them.
    """

    family: PlaneFamily
    base: Form
    extras: tuple[Form, ...]
    integer_covectors: tuple[IntCovector, ...] = field(
        init=False, repr=False, compare=False)
    _covectors: Optional[tuple[tuple[Vec, Fraction], ...]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        fam = self.family
        scale, base = self.base
        if len(base) != fam.m:
            raise ValueError("basepoint has wrong length")
        if len(self.extras) != fam.d - fam.t:
            raise ValueError("need exactly d - t extra directions")
        restricted = []
        for _, v in self.extras:
            if len(v) != fam.m:
                raise ValueError("direction has wrong length")
            restricted.append(fam.restrict(v, "extra direction"))
        normals = _nullspace_normals(restricted, len(fam.block))
        if len(fam.block) - len(normals) != len(restricted):  # rank by nullity
            raise ValueError("direction space has dimension below d")
        at_block = [base[j - 1] for j in fam.block]
        object.__setattr__(self, "integer_covectors", (
            *((tuple(int(i == j) for i in range(1, fam.m + 1)), 1,
               *_lowest(base[j - 1], scale)) for j in fam.outside),
            *((fam.embed(n), s,
               *_lowest(sum(x * y for x, y in zip(n, at_block)), s * scale))
              for s, n in normals)))

    @classmethod
    def of(cls, family: PlaneFamily, basepoint: Sequence,
           extra_directions: Sequence[Sequence] = ()) -> "ConcretePlane":
        """The member through a rational basepoint with the given rational
        extra directions, each vector cleared into its integer form."""
        base, *extras = ((scale, tuple(ints)) for scale, ints in
                         map(_cleared, (basepoint, *extra_directions)))
        return cls(family, base, tuple(extras))

    @property
    def basepoint(self) -> Vec:
        scale, base = self.base
        return tuple(Fraction(x, scale) for x in base)

    @property
    def extra_directions(self) -> tuple[Vec, ...]:
        return tuple(tuple(Fraction(x, scale) for x in v)
                     for scale, v in self.extras)

    def covectors(self) -> tuple[tuple[Vec, Fraction], ...]:
        """Implicit form: x on the plane iff c.x = rhs for every (c, rhs).

        Pure coordinate equalities (indices outside s_T) come first, then
        the block equalities annihilating the extra directions: the
        Fractions of the integer covectors, built the first time they are
        read, every zero entry the one Fraction 0.
        """
        if self._covectors is None:
            object.__setattr__(self, "_covectors", tuple(
                (tuple(Fraction(x, s) if x else _ZERO for x in row),
                 Fraction(a, b))
                for row, s, a, b in self.integer_covectors))
        return self._covectors

    def contains(self, point: Sequence) -> bool:
        """Whether the point is on the plane, on the Fraction covectors;
        a zero coefficient adds nothing, so its term is skipped."""
        p = vec(point)
        return all(sum((x * y for x, y in zip(c, p, strict=True) if x),
                       _ZERO) == rhs for c, rhs in self.covectors())


def plane_through(family: PlaneFamily, basepoint: Sequence,
                  span_vectors: Sequence[Vec] = ()) -> ConcretePlane:
    """Family member through basepoint whose directions cover the given vectors.

    Every span vector must already lie in span(s_T); its s_t components are
    projected away, an independent subset is kept, and the direction space is
    padded with block coordinate axes up to dimension exactly d.  The axes
    alone have rank T-t >= d-t, so the one failure is more than d-t
    independent span vectors, which d-t of them can never be.  The plane is
    built by :meth:`ConcretePlane.of`, the one path from Fractions.
    """
    need = family.d - family.t
    spans = [family.restrict(v, "span vector") for v in span_vectors]
    width = len(family.block)
    candidates = spans + [unit_vec(width, j) for j in range(1, width + 1)]
    chosen = independent_subset(candidates)
    if sum(i < len(spans) for i in chosen) > need:
        raise ValueError("span vectors have more than d - t independent "
                         "block directions")
    extras = tuple(family.embed(candidates[i]) for i in chosen[:need])
    return ConcretePlane.of(family, vec(basepoint), extras)


# ---------------------------------------------------------------------------
# Counting bounds and the case predicate.

class NonStabCase(Enum):
    CASE_I = "case_i"
    CASE_II = "case_ii"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BoundResult:
    value: Fraction
    floor: int
    regime: str  # "N1" | "N2"


def stab_bound(n: int, m: int, d: int, t: int, T: int) -> BoundResult:
    """Exact ceiling on disjoint stabbed sets of dimension <= n, with its floor.

    Regime N1 applies when n >= (m-n-T)(d-t) and needs m-n-d >= 1; regime N2
    applies otherwise, and there m-n-T >= 1 follows from the regime test
    itself, as n >= 0 and d-t >= 0.  The tie goes to N1 (the two formulas
    agree there).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0 <= t <= d <= T <= m:
        raise ValueError("need 0 <= t <= d <= T <= m")
    if n >= (m - n - T) * (d - t):
        if m - n - d < 1:
            raise ValueError("invalid parameters: m - n - d must be at least 1")
        value = Fraction(d + 1 - t) + Fraction(n + (n + T - m) * (d - t), m - n - d)
        regime = "N1"
    else:
        value = 1 + Fraction(n, m - n - T)
        regime = "N2"
    return BoundResult(value, value.__floor__(), regime)


def nonstab_case(n_list: Sequence[int], m: int, d: int, t: int, T: int) -> NonStabCase:
    """Which counting inequality forbids a common transversal, if any.

    Case I needs q >= d-t+1, case II needs q <= d-t+1; at q = d-t+1 the two
    right-hand sides coincide and case I is reported.
    """
    if not 0 <= t <= d <= T <= m:
        raise ValueError("need 0 <= t <= d <= T <= m")
    q = len(n_list)
    if q < 1:
        raise ValueError("need at least one set")
    total = sum(n_list)
    if q >= d - t + 1 and total + 1 <= (m - d) * (q - 1) - (T - d) * (d - t):
        return NonStabCase.CASE_I
    if q <= d - t + 1 and total + 1 <= (m - T) * (q - 1):
        return NonStabCase.CASE_II
    return NonStabCase.INCONCLUSIVE


# ---------------------------------------------------------------------------
# Point sets, witnesses, the regime rule and the linear-regime exact decision.

@dataclass(frozen=True)
class PointSets:
    """q nonempty sets of points p_ij of R^m on their one integer form.

    ``scale`` is the lcm E of the denominators of all coordinates and
    ``points`` holds the integer points E p_ij, per set; the form is built
    once, by :meth:`of` from Fractions or straight from a draw, and every
    decider reads it.  Indexing and iteration give the Fraction view, one
    tuple of points per set, built the first time it is read: by a
    witness's met points, its re-check and tests.
    """

    scale: int
    points: tuple[tuple[tuple[int, ...], ...], ...]
    _view: Optional[tuple[tuple[Vec, ...], ...]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.points or not all(self.points):
            raise ValueError("need nonempty point sets")

    @classmethod
    def of(cls, point_sets: Sequence[Sequence[Vec]]) -> "PointSets":
        """The integer form of rational point sets, cleared by one lcm."""
        scale, ints = _cleared([x for ps in point_sets for p in ps for x in p])
        values = iter(ints)
        return cls(scale, tuple(tuple(tuple(itertools.islice(values, len(p)))
                                      for p in ps) for ps in point_sets))

    def _fractions(self) -> tuple[tuple[Vec, ...], ...]:
        if self._view is None:
            object.__setattr__(self, "_view", tuple(
                tuple(tuple(Fraction(x, self.scale) for x in p) for p in ps)
                for ps in self.points))
        return self._view

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i):
        return self._fractions()[i]

    def __iter__(self):
        return iter(self._fractions())


@dataclass(frozen=True)
class StabWitness:
    """A common transversal: per-set coefficients, the plane, the met points."""

    lambdas: tuple[Vec, ...]
    plane: ConcretePlane
    points: tuple[Vec, ...]


@dataclass(frozen=True)
class StabDecision:
    """The answer of one stab decider, in the report's vocabulary.

    ``status`` is ``witness`` (with a ``witness``, or an isolating
    ``interval`` of a root of ``reduced``), ``infeasible`` (linear),
    ``not_found`` (search) or ``no_stab`` (univariate, and linear on a
    point flat).  The univariate decider keeps ``reduced`` and the search
    its int ``evaluations`` on every answer; both stay None elsewhere.
    """

    status: str
    witness: Optional[StabWitness] = None
    interval: Optional[tuple[Fraction, Fraction]] = None
    reduced: Optional[tuple[int, ...]] = None
    evaluations: Optional[int] = None


def verify_stab_witness(witness: StabWitness, point_sets: Sequence[Sequence[Vec]],
                        family: PlaneFamily) -> tuple[bool, int]:
    """Re-verify a witness exactly; returns (ok, number of conditions checked)."""
    checks = 0
    if witness.plane.family != family:
        return False, checks
    if len(witness.lambdas) != len(point_sets):
        return False, checks
    for lam, pts, y in zip(witness.lambdas, point_sets, witness.points):
        checks += 1
        if len(lam) != len(pts) or sum(lam) != 1:
            return False, checks
        # its own sums, not ratmath.combination: the re-check is independent
        combo = tuple(sum((l * p[c] for l, p in zip(lam, pts)), _ZERO)
                      for c in range(family.m))
        checks += 1
        if combo != y:
            return False, checks
        checks += 1
        if not witness.plane.contains(y):
            return False, checks
    return True, checks


# A constraint flat as the solve returns it: a point and a direction basis.
Flat = Optional[tuple[Vec, tuple[Vec, ...]]]


def stab_regime(point_sets: PointSets,
                family: PlaneFamily) -> tuple[str, Flat]:
    """The decider the input selects, by name, and the constraint flat it
    runs on (the one solve of its :func:`~plstab.ratmath.hull_rows` outside
    s_T, None when empty): ``linear`` when the flat is empty (a family
    member's points agree outside s_T, so none meets every hull, whatever q
    is) or a point (one rank test decides, whatever q is) or q <= d-t+1,
    ``univariate`` when q = d-t+2 and the flat is a line, ``search`` for
    every other input.  The rows are built on the integer points E p_ij,
    E times the rows of the p_ij: a positive row scale leaves the reduced
    echelon form, so the flat, unchanged."""
    rows, rhs = hull_rows(point_sets.points, [j - 1 for j in family.outside])
    flat = _solve_augmented([row + [b] for row, b in zip(rows, rhs)],
                            len(rows[0]))
    q, free = len(point_sets), family.d - family.t
    if flat is None or not flat[1] or q <= free + 1:
        return "linear", flat
    if q == free + 2 and len(flat[1]) == 1:
        return "univariate", flat
    return "search", flat


def _flat_point(flat: Flat, u: Sequence[Fraction]) -> Vec:
    """The stacked lambda base + sum_k u_k w_k of a nonempty flat."""
    base, basis = flat
    return combination((_ONE, *u), (base, *basis), range(len(base)))


def _blocks(point_sets: PointSets, lam: Sequence) -> tuple:
    """A stacked lambda split into one block of weights per set."""
    ends = list(itertools.accumulate(len(ps) for ps in point_sets.points))
    return tuple(lam[a:b] for a, b in zip([0] + ends, ends))


def _met(point_sets: PointSets, lam: Sequence[Fraction],
         coords: Sequence[int]) -> list[Vec]:
    """The met points y_i = sum_j lam_ij p_ij of a stacked lambda, at the
    given 0-based coordinates, on the Fraction view."""
    return [combination(w, pts, coords)
            for w, pts in zip(_blocks(point_sets, lam), point_sets)]


def _block_differences(point_sets: PointSets, family, vectors
                       ) -> tuple[int, list[list[list[int]]]]:
    """The differences y_i - y_1 of the met points on the block
    coordinates, on integers: one positive integer scale S and, for each
    later set i, one integer row per stacked vector, the row over S being
    exactly y_i - y_1 at that vector.

    The points are read on their integer form, E p_ij with the one lcm E
    (:class:`PointSets`); the vectors are cleared together
    (:func:`~plstab.ratmath._cleared`), lambda = L / M.  Then
    y_i = Y_i / (M E) with the integer Y_i = sum_j L_ij E p_ij, the row is
    Y_i - Y_1 and S = M E.  As y_i is linear in lambda, the rows of a sum
    of the vectors are the same sum of their rows, over the same S.
    """
    coords = [c - 1 for c in family.block]
    lcm_m, ints = _cleared([x for v in vectors for x in v])
    size = len(vectors[0])
    cols = [[[p[c] for p in pts] for c in coords]
            for pts in point_sets.points]  # per set, its block columns times E
    sums = [[[sum(l * x for l, x in zip(block, column)) for column in c_i]
             for block, c_i in zip(_blocks(point_sets, ints[k:k + size]),
                                   cols)]
            for k in range(0, len(ints), size)]  # the Y_i, per vector
    return lcm_m * point_sets.scale, [
        [[y - y_1 for y, y_1 in zip(ys[i], ys[0])] for ys in sums]
        for i in range(1, len(cols))]


def _rows_at(diffs, u: Sequence[Fraction]) -> tuple[int, list[list[int]]]:
    """The block differences at the flat point base + sum_k u_k w_k, from
    the rows of :func:`_block_differences` at (base, w_1, ...): with B the
    lcm of the denominators of u, the positive scale B S and the integer
    rows B R_0 + sum_k B u_k R_k, which over B S are exactly y_i - y_1."""
    scale, per_set = diffs
    lcm_b, coeffs = _cleared((_ONE, *u))  # B, then B, B u_1, ...
    return lcm_b * scale, [[sum(c * x for c, x in zip(coeffs, col))
                            for col in zip(*rows)] for rows in per_set]


def _stabs_at(diffs, u: Sequence[Fraction], family) -> bool:
    """The one stab test: a family member meets every hull at the met
    points of the flat point u exactly when their block differences
    (:func:`_rows_at`) have rank <= d-t."""
    return mat_rank(_rows_at(diffs, u)[1]) <= family.d - family.t


def _witness_from_lambda(point_sets, family, flat_lambda) -> StabWitness:
    lam = vec(flat_lambda)
    points = _met(point_sets, lam, range(family.m))
    diffs = [vec_sub(y, points[0]) for y in points[1:]]
    plane = plane_through(family, points[0], diffs)
    witness = StabWitness(_blocks(point_sets, lam), plane, tuple(points))
    ok, _ = verify_stab_witness(witness, point_sets, family)
    if not ok:
        raise RuntimeError("constructed witness failed exact re-verification")
    return witness


def stab_exists_linear(point_sets: PointSets,
                       family: PlaneFamily, flat: Flat) -> StabDecision:
    """Exact decision in the linear regime of :func:`stab_regime`:
    ``infeasible`` on an empty constraint flat, ``no_stab`` unless the stab
    test (:func:`_stabs_at`) passes at its base point, else a ``witness``
    there.  For q <= d-t+1 the q-1 block differences always have rank at
    most d-t; on a point flat the met points are fixed, so the test decides."""
    if flat is None:
        return StabDecision("infeasible")
    if not _stabs_at(_block_differences(point_sets, family, flat[:1]), (),
                     family):
        return StabDecision("no_stab")
    return StabDecision("witness", _witness_from_lambda(point_sets, family,
                                                        flat[0]))


# ---------------------------------------------------------------------------
# Univariate exact decision on a one-dimensional constraint flat.

def _projected_difference_polys(point_sets, family, flat):
    """Rows (y_i - y_1)(s) on the line base + s w restricted to the block
    coordinates, as linear integer polynomials: the integer rows of
    :func:`_block_differences` at the base and at the direction are the two
    coefficients.  Each row is S times the rational one, S > 0, so every
    maximal minor is scaled by a positive integer and their primitive gcd
    is unchanged."""
    base_lambda, (direction,) = flat
    _, per_set = _block_differences(point_sets, family,
                                    (base_lambda, direction))
    return [[_trimmed([a, b]) for a, b in zip(at_base, along)]
            for at_base, along in per_set]


def _isolate(p: list[int]):
    """None when the integer polynomial p has no real root; else a rational
    root of p, or an isolating interval (lo, hi) of one of its roots.

    The zero polynomial has the root 0.  One Sturm chain of the square-free
    part serves the whole search: bisection of the Cauchy bound interval,
    with the variations at the ends carried along, first narrows it to
    exactly one root, which terminates because the roots of the square-free
    part are distinct.  Then 80 refinement steps each try the simplest
    rational in the interval and halve it, so a rational root is found only
    if it is met within those steps; otherwise the interval, which carries a
    sign change of the square-free part, is returned.
    """
    if not p:
        return _ZERO
    ps = square_free_part(p)
    chain = _sturm_chain(ps)
    vlo, vhi = _variations(chain, None, -1), _variations(chain, None, +1)
    if vlo == vhi:
        return None
    bound = cauchy_root_bound(ps)
    lo, hi = -bound, bound  # every root lies strictly inside
    refinements = 0
    while vlo - vhi > 1 or refinements < 80:
        if vlo - vhi == 1:
            refinements += 1
            cand = simplest_between(lo, hi)
            if not _sign_at(ps, cand):
                return cand
        mid = (lo + hi) / 2
        if not _sign_at(ps, mid):
            return mid
        vmid = _variations(chain, mid)
        if vlo > vmid:
            hi, vhi = mid, vmid
        else:
            lo, vlo = mid, vmid
    return lo, hi


def verify_interval_certificate(reduced: Sequence[int],
                                interval: tuple[Fraction, Fraction]) -> bool:
    """Re-check an isolating interval of the integer polynomial ``reduced``.

    Passes when the square-free part of ``reduced`` is nonzero with opposite
    signs at the two endpoints and has exactly one root between them.
    """
    lo, hi = interval
    ps = square_free_part(list(reduced))
    return (bool(ps) and lo < hi and _sign_at(ps, lo) * _sign_at(ps, hi) < 0
            and sturm_count(ps, lo, hi) == 1)


def stab_decide_univariate(point_sets: PointSets,
                           family: PlaneFamily, flat: Flat) -> StabDecision:
    """Exact decision for q = d-t+2 sets whose constraint ``flat`` is a line.

    On the flat a family member meets every affine hull exactly where the
    projected difference matrix drops rank, that is, by Cauchy-Binet, at the
    common real roots of its maximal minors: the real roots of their gcd,
    a primitive integer polynomial kept as the tuple ``reduced``.  With no
    minors (fewer columns than rows) the gcd is the zero polynomial and every
    flat point stabs.  :func:`_isolate` decides real-root existence exactly
    by Sturm's theorem, on one chain of the gcd's square-free part, and
    returns the witness root or isolating interval from the same chain.
    """
    rows = _projected_difference_polys(point_sets, family, flat)
    gcd: list[int] = []
    for cols in itertools.combinations(range(len(family.block)), len(rows)):
        gcd = _poly_gcd(gcd, _poly_det([[row[c] for c in cols] for row in rows]))
        if len(gcd) == 1:
            break  # a constant gcd: the minors have no common root
    reduced = tuple(gcd)
    found = _isolate(gcd)
    if found is None:
        return StabDecision("no_stab", reduced=reduced)
    if isinstance(found, tuple):
        return StabDecision("witness", interval=found, reduced=reduced)
    return StabDecision("witness", _witness_from_lambda(
        point_sets, family, _flat_point(flat, (found,))), reduced=reduced)


# ---------------------------------------------------------------------------
# Heuristic search outside the exact regimes.

_GOLDEN = Fraction(377, 610)  # rational golden-section ratio
_SNAP_DENOMINATORS = (8, 64, 1024, 32768)
SEARCH_BUDGET = 500  # objective evaluations, unless the request says otherwise


def _gram_det(diffs, u: Sequence[Fraction]) -> Fraction:
    """The search objective at u: the Gram determinant of the block
    differences at base + sum_k u_k w_k.  The rows of :func:`_rows_at`
    there are B S times the q-1 differences, so their integer Gram
    determinant (:func:`~plstab.ratmath._minor`) over (B S)^(2(q-1)) is the
    exact value over Q.
    """
    scale, at = _rows_at(diffs, u)
    gram = [[sum(x * y for x, y in zip(r, t)) for t in at] for r in at]
    return Fraction(_minor(gram), scale ** (2 * len(at)))


class _BudgetSpent(Exception):
    """The search objective was asked for one evaluation past the budget."""


def stab_search_general(point_sets: PointSets, family: PlaneFamily,
                        flat: Flat, budget: int, seed: int) -> StabDecision:
    """Heuristic search for q > d-t+1 sets on a constraint ``flat`` of
    dimension at least one.

    Descends on the Gram determinant of the projected differences over the
    flat (:func:`_gram_det`), using
    rational golden-section steps and random restarts drawn from ``seed``;
    candidates are snapped to small rationals by continued fractions and
    only exactly verified witnesses are returned.  ``budget`` caps the
    objective evaluations exactly: ``not_found`` comes after exactly
    ``budget`` of them, and is inconclusive, never a nonexistence
    certificate.
    """
    evaluations = 0

    def answer(witness: Optional[StabWitness]) -> StabDecision:
        return StabDecision("not_found" if witness is None else "witness",
                            witness, evaluations=evaluations)

    diffs = _block_differences(point_sets, family, (flat[0], *flat[1]))

    def objective(u) -> Fraction:  # the one place that spends the budget
        nonlocal evaluations
        if evaluations == budget:
            raise _BudgetSpent
        evaluations += 1
        return _gram_det(diffs, u)

    def try_exact(u) -> Optional[StabWitness]:
        if _stabs_at(diffs, u, family):
            return _witness_from_lambda(point_sets, family,
                                        _flat_point(flat, u))
        return None

    k = len(flat[1])
    rng = random.Random(_derived_seed(seed, "stab-search"))

    def check_candidates(u) -> Optional[StabWitness]:
        for den in _SNAP_DENOMINATORS:
            cand = tuple(x.limit_denominator(den) for x in u)
            if objective(cand) == 0:
                witness = try_exact(cand)
                if witness is not None:
                    return witness
        return None

    u = tuple(_ZERO for _ in range(k))  # then random restarts
    try:
        while True:
            witness = check_candidates(u)
            if witness is not None:
                return answer(witness)
            best = objective(u)
            step = _ONE
            for _ in range(6):  # descent rounds per restart
                for axis in range(k):
                    lo = u[axis] - step
                    hi = u[axis] + step
                    for _ in range(8):
                        width = hi - lo
                        a = lo + (1 - _GOLDEN) * width
                        b = lo + _GOLDEN * width
                        ua = u[:axis] + (a,) + u[axis + 1:]
                        ub = u[:axis] + (b,) + u[axis + 1:]
                        fa, fb = objective(ua), objective(ub)
                        if fa <= fb:
                            hi = b
                            if fa < best:
                                best, u = fa, ua
                        else:
                            lo = a
                            if fb < best:
                                best, u = fb, ub
                witness = check_candidates(u)
                if witness is None and best == 0:
                    witness = try_exact(u)
                if witness is not None:
                    return answer(witness)
                step = step * Fraction(1, 2)
            u = tuple(Fraction(rng.randint(-96, 96), 48) for _ in range(k))
    except _BudgetSpent:
        return answer(None)


# ---------------------------------------------------------------------------
# One stab decision, its decider chosen from the input, as report fields.

def decide_stab(point_sets: PointSets, family: PlaneFamily,
                budget: int, seed: int) -> dict:
    """One stab decision, by the decider :func:`stab_regime` picks (the
    search with ``budget`` and ``seed``), on the flat it solved, as report
    fields.  ``mode`` names the decider and ``status`` is its answer.  A
    witness comes with its lambdas, plane and met points, any other answer
    with empty ones and any interval it rests on; every univariate answer
    adds its ``reduced`` polynomial, a search answer its ``evaluations``.
    ``certified`` is the re-check of the witness
    (:func:`verify_stab_witness`) or the interval
    (:func:`verify_interval_certificate`); ``infeasible`` and ``no_stab``
    are exact decisions, ``not_found`` is not.
    """
    mode, flat = stab_regime(point_sets, family)
    if mode == "linear":
        got = stab_exists_linear(point_sets, family, flat)
    elif mode == "univariate":
        got = stab_decide_univariate(point_sets, family, flat)
    else:
        got = stab_search_general(point_sets, family, flat, budget, seed)
    out: dict = {"mode": mode, "status": got.status}
    if got.evaluations is not None:
        out["evaluations"] = got.evaluations
    if got.reduced is not None:
        out["reduced"] = [format_rational(c) for c in got.reduced]
    if got.witness is not None:
        ok, checks = verify_stab_witness(got.witness, point_sets, family)
        out.update(certified=ok, conditions_checked=checks,
                   lambdas=[[format_rational(x) for x in lam]
                            for lam in got.witness.lambdas],
                   plane=plane_to_json_dict(got.witness.plane),
                   points=[[format_rational(x) for x in y]
                           for y in got.witness.points])
        return out
    out.update(lambdas=None, plane=None, conditions_checked=0)
    if got.interval is not None:
        out.update(certified=verify_interval_certificate(got.reduced,
                                                         got.interval),
                   witness_kind="isolating_interval",
                   interval=[format_rational(x) for x in got.interval])
    else:
        out["certified"] = got.status in ("infeasible", "no_stab")
    return out


# ---------------------------------------------------------------------------
# Counting disjoint stabbed simplexes of a PL image.

def _max_independent_set(n: int, adj: list[set[int]]) -> list[int]:
    """A largest independent set, by branch and bound on an explicit stack:
    each branch first takes its first candidate, then skips it, so the skip
    branch waits under the whole take branch and is pruned against the best
    set that branch found."""
    best: list[int] = []
    stack = [(sorted(range(n), key=lambda v: (-len(adj[v]), v)), [])]
    while stack:
        cands, chosen = stack.pop()
        if len(chosen) > len(best):
            best = chosen
        if not cands or len(chosen) + len(cands) <= len(best):
            continue
        v, rest = cands[0], cands[1:]
        stack.append((rest, chosen))
        stack.append(([u for u in rest if u not in adj[v]], chosen + [v]))
    return sorted(best)


def stabbed_simplexes(k: SimplicialComplex, g: PLMap, plane: ConcretePlane,
                      nmax: int) -> tuple[
                          dict[Simplex, tuple[tuple[int, ...], int]],
                          dict[Simplex, tuple[Simplex, ...]]]:
    """The minimal stabbed simplexes of dimension <= nmax (images meet the
    plane, no proper face's image does), each with the one point of its
    piece {lambda in the standard simplex : image on plane}, and every
    stabbed simplex up to nmax with its minimal stabbed faces by size and
    then lexicographically, both in sorted-simplex order.  A point comes
    on integers, as (u, delta) with delta > 0 and lambda_v = D_v u_v / delta.

    This is the one plane-membership test, on the map's integer form
    ``g.cleared``: each vertex image p_v as P_v = D_v p_v, and the plane's
    integer covectors, built once with the plane: each covector c as
    C = D_c c (see :func:`~plstab.ratmath._cleared`), so nothing is cleared
    here.  With a covector's right-hand side
    a/b, a vertex's side of the plane is the sign of b C.P_v - a D_c D_v.
    A simplex whose vertices all lie on one side of some covector's
    right-hand side, none on it, cannot meet the plane and is skipped.
    Otherwise its system is written in mu_v = lambda_v / D_v, on integer
    rows: the sum-to-one row [D_v ... | 1], then [b C.P_v ... | a D_c] per
    covector, solved by :func:`~plstab.ratmath._unique_solution` as
    mu = u / delta.  As every D_v > 0, the lambda system has a unique,
    strictly positive solution exactly when this one does, and
    lambda_v = D_v mu_v.  Most systems are inconsistent, and forward
    elimination alone turns them away.  A vertex of a
    piece is the unique, strictly positive solution of its support face's
    system, and those faces are exactly the minimal stabbed ones: a stabbed
    proper face's point, padded with zeros, would solve the system too.
    Faces come before cofaces, so a simplex with a stabbed facet is skipped
    with no bracket and no solve; it lists the union of its stabbed facets'
    faces (each proper face lies in a facet), a minimal one only itself.
    """
    if not g.certified:
        raise ValueError("map must carry an ok genericity certificate")
    if plane.family.m != g.m:
        raise ValueError(f"plane lives in dimension {plane.family.m}, "
                         f"map in {g.m}")
    cleared = g.cleared
    brackets: list[tuple[dict[str, int], int, set[str], set[str]]] = []
    for row, dc, a, b in plane.integer_covectors:
        nz = [(i, x) for i, x in enumerate(row) if x]
        rhs = a * dc
        values: dict[str, int] = {}
        above: set[str] = set()
        below: set[str] = set()
        for v, (dv, pv) in cleared.items():
            value = b * sum(x * pv[i] for i, x in nz)
            values[v] = value
            side = value - rhs * dv
            if side > 0:
                above.add(v)
            elif side < 0:
                below.add(v)
        brackets.append((values, rhs, above, below))
    points: dict[Simplex, Vec] = {}
    faces: dict[Simplex, tuple[Simplex, ...]] = {}  # stabbed so far
    for s in k.sorted_simplexes():
        if len(s) - 1 > nmax:
            break
        if any(s[:i] + s[i + 1:] in faces for i in range(len(s))):
            union = {f for i in range(len(s))
                     for f in faces.get(s[:i] + s[i + 1:], ())}
            faces[s] = tuple(sorted(union, key=lambda f: (len(f), f)))
            continue
        rows = [[cleared[v][0] for v in s] + [1]]
        for values, rhs, above, below in brackets:
            if above.issuperset(s) or below.issuperset(s):
                break
            rows.append([values[v] for v in s] + [rhs])
        else:
            sol = _unique_solution(rows, len(s))
            if sol is not None and min(sol[0]) > 0:
                points[s] = sol
                faces[s] = (s,)
    return points, faces


def max_disjoint_stabbed(k: SimplicialComplex, g: PLMap, plane: ConcretePlane,
                         nmax: int) -> tuple[int, tuple[Simplex, ...]]:
    """Exact maximum family of pairwise vertex-disjoint stabbed simplexes.

    Branch and bound over the intersection graph of the minimal stabbed
    simplexes (:func:`stabbed_simplexes`), max-degree-first with
    cardinality pruning; swapping a stabbed simplex for a minimal stabbed
    face keeps the count.  Before it is returned, the family is re-checked
    exactly: each member's point, built as a Fraction lambda here and for
    the members alone, is nonnegative and sums to 1, its image lies on the
    plane, and the members share no vertex; a failure raises RuntimeError.
    """
    points, _ = stabbed_simplexes(k, g, plane, nmax)
    hits = list(points)
    vsets = [set(s) for s in hits]
    adj = [{j for j, b in enumerate(vsets) if j != i and a & b}
           for i, a in enumerate(vsets)]
    family = tuple(hits[i] for i in _max_independent_set(len(hits), adj))
    for s in family:
        u, delta = points[s]
        lam = tuple(Fraction(g.cleared[v][0] * x, delta) for v, x in zip(s, u))
        if (min(lam) < 0 or sum(lam) != 1
                or not plane.contains(image_point(g, s, lam))):
            raise RuntimeError(f"stabbed simplex {s} failed exact re-verification")
    if any(set(a) & set(b) for a, b in itertools.combinations(family, 2)):
        raise RuntimeError("stabbed simplexes of the family share a vertex")
    return len(family), family


# ---------------------------------------------------------------------------
# JSON forms of families and planes.

def family_to_json_dict(f: PlaneFamily) -> dict:
    return {"m": f.m, "St": list(f.s_t), "ST": list(f.s_T), "d": f.d}


def _typed(value, kind: type, what: str):
    """value itself when its type is exactly kind; JSON input is never coerced."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _known_keys(data, keys: Sequence[str], what: str) -> dict:
    """data, once it is a JSON object whose every key is one of keys."""
    for key in _typed(data, dict, what):
        if key not in keys:
            raise ValueError(f"unknown {what} key {key!r}")
    return data


def family_from_json_dict(data: dict) -> PlaneFamily:
    data = _known_keys(data, _FAMILY_KEYS, "family")
    m = _typed(data["m"], int, "m")
    s_t, s_T = (tuple(_typed(j, int, key) for j in _typed(data[key], list, key))
                for key in ("St", "ST"))
    return PlaneFamily(m, s_t, s_T, _typed(data["d"], int, "d"))


def _literals(data, what: str):
    """The one reader of a JSON list of rational strings: its strings, each
    checked as it is read."""
    return (_typed(x, str, f"{what} coordinate")
            for x in _typed(data, list, what))


def _form(data, what: str) -> Form:
    """A JSON list of rational strings, read straight into its integer form."""
    scale, ints = _cleared_ratios([parse_ratio(x)
                                   for x in _literals(data, what)])
    return scale, tuple(ints)


def sets_from_json(data, m: int) -> PointSets:
    """Point sets from JSON, on their integer form: a nonempty list of
    nonempty lists of points, each point a list of m rational strings."""
    sets = [[tuple(map(parse_rational, _literals(p, "point")))
             for p in _typed(ps, list, "point set")]
            for ps in _typed(data, list, "sets")]
    form = PointSets.of(sets)  # refuses empty sets first
    for p in itertools.chain.from_iterable(sets):
        if len(p) != m:
            raise ValueError(f"point of length {len(p)}, expected {m}")
    return form


def plane_to_json_dict(p: ConcretePlane) -> dict:
    out = family_to_json_dict(p.family)
    out["basepoint"] = [format_rational(x) for x in p.basepoint]
    out["extra_dirs"] = [[format_rational(x) for x in v]
                         for v in p.extra_directions]
    return out


def plane_from_json_dict(data: dict) -> ConcretePlane:
    _known_keys(data, (*_FAMILY_KEYS, "basepoint", "extra_dirs"), "plane")
    family = family_from_json_dict({key: data[key] for key in _FAMILY_KEYS})
    base = _form(data["basepoint"], "basepoint")
    extras = tuple(_form(row, "extra_dirs") for row in
                   _typed(data.get("extra_dirs", []), list, "extra_dirs"))
    return ConcretePlane(family, base, extras)

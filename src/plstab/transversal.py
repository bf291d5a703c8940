"""Stabbing decisions for families of d-planes parallel to nested coordinate planes.

A plane family fixes the ambient dimension m, coordinate-index sets
s_t subset of s_T, and the plane dimension d; a member plane's direction
space must contain the s_t coordinate axes and stay inside the span of the
s_T axes.  This module provides:

* the exact counting ceiling (:func:`stab_bound`) and case predicate
  (:func:`nonstab_case`);
* the one plane-membership test (:func:`stabbed_simplexes`): one exact
  solve per face that the covector bracket keeps, no LP;
* one stab decision (:func:`decide_stab`): the regime rule
  (:func:`stab_regime`) solves the constraint flat (the
  :func:`~plstab.ratmath.hull_rows` outside s_T) once and picks the
  exact linear decider, the exact univariate decider (gcd of the maximal
  minors, Sturm) or the heuristic search (``not_found`` is never
  evidence); all three return a :class:`StabDecision`, and every witness
  and isolating interval is re-verified;
* the exact maximum family of pairwise vertex-disjoint stabbed simplexes
  of a PL image, by branch and bound, re-checked exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .generic import GenericPool, _derived_seed
from .ratmath import (Vec, _cleared, _poly_det, _poly_gcd, _sign_at,
                      _sturm_chain, _trimmed, _variations, cauchy_root_bound,
                      combination, format_rational, hull_rows,
                      independent_subset, mat_rank, max_minor,
                      nullspace_basis, parse_rational, simplest_between,
                      solve_affine, square_free_part, sturm_count, unit_vec,
                      vec, vec_dot, vec_sub)
from .simplicial import PLMap, Simplex, SimplicialComplex, image_point

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class PlaneFamily:
    """Pattern of d-planes parallel to coordinate planes s_t inside s_T (1-based)."""

    m: int
    s_t: tuple[int, ...]
    s_T: tuple[int, ...]
    d: int

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

    @property
    def t(self) -> int:
        return len(self.s_t)

    @property
    def T(self) -> int:
        return len(self.s_T)

    @property
    def block(self) -> tuple[int, ...]:
        """Coordinates of s_T not pinned by s_t."""
        return tuple(j for j in self.s_T if j not in set(self.s_t))

    def embed(self, block_coords: Sequence) -> Vec:
        """The vector of R^m with the given block coordinates, 0 elsewhere."""
        full = [_ZERO] * self.m
        for value, j in zip(block_coords, self.block):
            full[j - 1] = value
        return tuple(full)

    def restrict(self, v: Sequence, what: str) -> Vec:
        """The block coordinates of v, which must lie in span(s_T); the
        error names v as ``what``."""
        in_T = set(self.s_T)
        if any(v[j - 1] != 0 for j in range(1, self.m + 1) if j not in in_T):
            raise ValueError(f"{what} leaves span(s_T)")
        return tuple(v[j - 1] for j in self.block)


@dataclass(frozen=True)
class ConcretePlane:
    """A member of a family: basepoint plus d-t extra directions inside span(s_T)."""

    family: PlaneFamily
    basepoint: Vec
    extra_directions: tuple[Vec, ...]

    def __post_init__(self):
        fam = self.family
        if len(self.basepoint) != fam.m:
            raise ValueError("basepoint has wrong length")
        if len(self.extra_directions) != fam.d - fam.t:
            raise ValueError("need exactly d - t extra directions")
        restricted = []
        for v in self.extra_directions:
            if len(v) != fam.m:
                raise ValueError("direction has wrong length")
            restricted.append(fam.restrict(v, "extra direction"))
        normals = nullspace_basis(restricted, len(fam.block))
        if len(fam.block) - len(normals) != len(restricted):  # rank by nullity
            raise ValueError("direction space has dimension below d")
        object.__setattr__(self, "_covectors", self._build_covectors(normals))

    def _build_covectors(self, normals: Sequence[Vec]
                         ) -> tuple[tuple[Vec, Fraction], ...]:
        fam = self.family
        out: list[tuple[Vec, Fraction]] = []
        in_T = set(fam.s_T)
        for j in range(1, fam.m + 1):
            if j not in in_T:
                c = unit_vec(fam.m, j)
                out.append((c, self.basepoint[j - 1]))
        for nb in normals:
            cv = fam.embed(nb)
            out.append((cv, vec_dot(cv, self.basepoint)))
        return tuple(out)

    def covectors(self) -> tuple[tuple[Vec, Fraction], ...]:
        """Implicit form: x on the plane iff c.x = rhs for every (c, rhs).

        Pure coordinate equalities (indices outside s_T) come first, then
        the block equalities annihilating the extra directions.  Computed
        once at construction.
        """
        return self._covectors

    def contains(self, point: Sequence) -> bool:
        p = vec(point)
        return all(vec_dot(c, p) == rhs for c, rhs in self.covectors())


def plane_through(family: PlaneFamily, basepoint: Sequence,
                  span_vectors: Sequence[Vec] = ()) -> ConcretePlane:
    """Family member through basepoint whose directions cover the given vectors.

    Every span vector must already lie in span(s_T); its s_t components are
    projected away, an independent subset is kept, and the direction space is
    padded with block coordinate axes up to dimension exactly d.
    """
    need = family.d - family.t
    spans = [family.restrict(v, "span vector") for v in span_vectors]
    width = len(family.block)
    candidates = spans + [unit_vec(width, j) for j in range(1, width + 1)]
    chosen = independent_subset(candidates)
    if sum(i < len(spans) for i in chosen) > need or len(chosen) < need:
        raise ValueError("cannot reach dimension d inside span(s_T)")
    extras = tuple(family.embed(candidates[i]) for i in chosen[:need])
    return ConcretePlane(family, vec(basepoint), extras)


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
    applies otherwise and needs m-n-T >= 1.  The tie goes to N1 (the two
    formulas agree there).
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
        if m - n - T < 1:
            raise ValueError("invalid parameters: m - n - T must be at least 1")
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
# Witnesses, the regime rule and the linear-regime exact decision.

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


# A constraint flat as solve_affine returns it: a point and a direction basis.
Flat = Optional[tuple[Vec, tuple[Vec, ...]]]


def _flat(point_sets: Sequence[Sequence[Vec]], family: PlaneFamily) -> Flat:
    """The constraint flat of the stacked lambda, or None when it is empty:
    the affine solve of its :func:`~plstab.ratmath.hull_rows` outside s_T.
    Only :func:`stab_regime` solves it, so every stab decision checks the
    point sets here first."""
    if not point_sets or any(not ps for ps in point_sets):
        raise ValueError("need nonempty point sets")
    return solve_affine(*hull_rows(point_sets, [
        c for c in range(family.m) if c + 1 not in family.s_T]))


def stab_regime(point_sets: Sequence[Sequence[Vec]],
                family: PlaneFamily) -> tuple[str, Flat]:
    """The decider the input selects, by name, and the constraint flat it
    runs on: ``linear`` when the flat is empty (a family member's points
    agree outside s_T, so none meets every hull, whatever q is) or a point
    (one rank test decides, whatever q is) or q <= d-t+1, ``univariate``
    when q = d-t+2 and the flat is a line, ``search`` for every other
    input."""
    flat = _flat(point_sets, family)
    q, free = len(point_sets), family.d - family.t
    if flat is None or not flat[1] or q <= free + 1:
        return "linear", flat
    if q == free + 2 and len(flat[1]) == 1:
        return "univariate", flat
    return "search", flat


def _blocks(point_sets: Sequence[Sequence[Vec]], lam: Sequence) -> tuple:
    """A stacked lambda split into one block of weights per set."""
    ends = list(itertools.accumulate(len(ps) for ps in point_sets))
    return tuple(lam[a:b] for a, b in zip([0] + ends, ends))


def _met(point_sets: Sequence[Sequence[Vec]], lam: Sequence[Fraction],
         coords: Sequence[int]) -> list[Vec]:
    """The met points y_i = sum_j lam_ij p_ij of a stacked lambda, at the
    given 0-based coordinates."""
    return [combination(w, pts, coords)
            for w, pts in zip(_blocks(point_sets, lam), point_sets)]


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


def stab_exists_linear(point_sets: Sequence[Sequence[Vec]],
                       family: PlaneFamily, flat: Flat) -> StabDecision:
    """Exact decision in the linear regime of :func:`stab_regime`:
    ``infeasible`` on an empty constraint flat, else a ``witness`` at its
    base point, where for q <= d-t+1 the q-1 met point differences have
    rank at most d-t.  On a point flat the met points are fixed, and that
    rank on the block coordinates decides: above d-t, ``no_stab``."""
    if flat is None:
        return StabDecision("infeasible")
    base_lambda, basis = flat
    if not basis:
        ys = _met(point_sets, base_lambda, [c - 1 for c in family.block])
        if mat_rank([vec_sub(y, ys[0]) for y in ys[1:]]) > family.d - family.t:
            return StabDecision("no_stab")
    return StabDecision("witness", _witness_from_lambda(point_sets, family,
                                                        base_lambda))


# ---------------------------------------------------------------------------
# Univariate exact decision on a one-dimensional constraint flat.

def _projected_difference_polys(point_sets, family, base_lambda, direction):
    """Rows (Y_i - Y_1)(s) restricted to the block coordinates, as linear
    integer polynomials; clearing each row's denominators once scales every
    maximal minor by the same positive integer."""
    cols = [c - 1 for c in family.block]
    ys = [at_base + along for at_base, along in zip(
        _met(point_sets, base_lambda, cols), _met(point_sets, direction, cols))]
    rows = []
    for y in ys[1:]:
        ints = _cleared([a - b for a, b in zip(y, ys[0])])[1]
        rows.append([_trimmed([ints[c], ints[len(cols) + c]])
                     for c in range(len(cols))])
    return rows


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


def stab_decide_univariate(point_sets: Sequence[Sequence[Vec]],
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
    base_lambda, (direction,) = flat
    rows = _projected_difference_polys(point_sets, family, base_lambda,
                                       direction)
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
    lam = vec(b + found * w for b, w in zip(base_lambda, direction))
    return StabDecision("witness", _witness_from_lambda(point_sets, family,
                                                        lam), reduced=reduced)


# ---------------------------------------------------------------------------
# Heuristic search outside the exact regimes.

_GOLDEN = Fraction(377, 610)  # rational golden-section ratio
_SNAP_DENOMINATORS = (8, 64, 1024, 32768)


def stab_search_general(point_sets: Sequence[Sequence[Vec]], family: PlaneFamily,
                        flat: Flat, budget: int,
                        pool: GenericPool) -> StabDecision:
    """Heuristic search for q > d-t+1 sets on a constraint ``flat`` of
    dimension at least one.

    Descends on the Gram determinant of the projected differences (read by
    :func:`~plstab.ratmath.max_minor`) over the flat, using
    rational golden-section steps and random restarts; candidates are
    snapped to small rationals by continued fractions and only exactly
    verified witnesses are returned.  A ``not_found`` answer is
    inconclusive, never a nonexistence certificate.
    """
    base_lambda, basis = flat
    cols = [c - 1 for c in family.block]
    needed_rank = family.d - family.t

    def lambda_at(u: Sequence[Fraction]) -> Vec:
        lam = list(base_lambda)
        for coeff, w in zip(u, basis):
            if coeff:
                lam = [x + coeff * y for x, y in zip(lam, w)]
        return tuple(lam)

    def diff_rows(lam: Vec) -> list[Vec]:
        ys = _met(point_sets, lam, cols)
        return [vec_sub(y, ys[0]) for y in ys[1:]]

    evaluations = 0

    def answer(witness: Optional[StabWitness]) -> StabDecision:
        return StabDecision("not_found" if witness is None else "witness",
                            witness, evaluations=evaluations)

    def objective(u) -> Fraction:
        nonlocal evaluations
        evaluations += 1
        rows = diff_rows(lambda_at(u))
        return max_minor([[vec_dot(r, t) for t in rows] for r in rows])

    def try_exact(u) -> Optional[StabWitness]:
        lam = lambda_at(u)
        if mat_rank(diff_rows(lam)) <= needed_rank:
            return _witness_from_lambda(point_sets, family, lam)
        return None

    k = len(basis)
    rng = random.Random(_derived_seed(pool.seed, "stab-search"))

    def check_candidates(u) -> Optional[StabWitness]:
        for den in _SNAP_DENOMINATORS:
            cand = tuple(x.limit_denominator(den) for x in u)
            if objective(cand) == 0:
                witness = try_exact(cand)
                if witness is not None:
                    return witness
        return None

    restarts: list[tuple[Fraction, ...]] = [tuple(_ZERO for _ in range(k))]
    while evaluations < budget:
        if restarts:
            u = restarts.pop()
        else:
            u = tuple(Fraction(rng.randint(-96, 96), 48) for _ in range(k))
        witness = check_candidates(u)
        if witness is not None:
            return answer(witness)
        best = objective(u)
        step = _ONE
        for _ in range(6):  # descent rounds per restart
            if evaluations >= budget:
                break
            for axis in range(k):
                lo = u[axis] - step
                hi = u[axis] + step
                for _ in range(8):
                    if evaluations >= budget:
                        break
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
    return answer(None)


# ---------------------------------------------------------------------------
# One stab decision, its decider chosen from the input, as report fields.

def decide_stab(point_sets: Sequence[Sequence[Vec]], family: PlaneFamily,
                budget: int, pool: GenericPool) -> dict:
    """One stab decision, by the decider :func:`stab_regime` picks (the
    search with ``budget`` and ``pool``), on the flat it solved, as report
    fields.  ``mode`` names the decider and ``status`` is its answer.  A
    witness comes with its lambdas, plane and met points, any other answer
    with empty ones and any interval and ``reduced`` polynomial it rests
    on; a search answer adds its ``evaluations``.  ``certified`` is the
    re-check of the witness (:func:`verify_stab_witness`) or the interval
    (:func:`verify_interval_certificate`); ``infeasible`` and ``no_stab``
    are exact decisions, ``not_found`` is not.
    """
    mode, flat = stab_regime(point_sets, family)
    if mode == "linear":
        got = stab_exists_linear(point_sets, family, flat)
    elif mode == "univariate":
        got = stab_decide_univariate(point_sets, family, flat)
    else:
        got = stab_search_general(point_sets, family, flat, budget, pool)
    out: dict = {"mode": mode, "status": got.status}
    if got.evaluations is not None:
        out["evaluations"] = got.evaluations
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
    if got.reduced is not None:
        out["reduced"] = [format_rational(c) for c in got.reduced]
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
                      nmax: int) -> list[tuple[Simplex, list[Vec]]]:
    """Simplexes of dimension <= nmax whose images meet the plane, each with
    the vertices of its piece {lambda in the standard simplex : image on plane}.

    This is the one plane-membership test.  A simplex's system is the
    sum-to-one row followed by one row of vertex values per plane covector.
    The bracket runs on integers cleared once per plane: each vertex image
    p_v as P_v = D_v p_v and each covector c as C = D_c c (see
    :func:`~plstab.ratmath._cleared`), so a vertex value is the one
    Fraction C.P_v / (D_c D_v) and its side of the right-hand side a/b is
    the sign of b C.P_v - a D_c D_v.  A simplex whose vertices all lie on
    one side of some covector's right-hand side, none on it, cannot meet
    the plane and is skipped.  A vertex of a piece is a basic feasible
    solution: the single point of the piece of its support face, whose
    columns are independent, so that face's system has a unique solution
    and it is strictly positive.  Conversely a face whose system has a
    unique positive solution gives, with zeros elsewhere, a vertex of the
    piece of every coface, and distinct faces give distinct vertices.
    Faces come before cofaces, so one solve per face lists every piece
    vertex once, and a simplex image meets the plane exactly when its piece
    has a vertex.
    """
    if not g.certified:
        raise ValueError("map must carry an ok genericity certificate")
    covs = plane.covectors()
    rhs_col = [_ONE] + [rhs for _, rhs in covs]
    cleared = {v: _cleared(p) for v, p in g.images.items()}
    brackets: list[tuple[dict[str, Fraction], set[str], set[str]]] = []
    for c, rhs in covs:
        dc, ints = _cleared(c)
        nz = [(i, x) for i, x in enumerate(ints) if x]
        values: dict[str, Fraction] = {}
        above: set[str] = set()
        below: set[str] = set()
        for v, (dv, pv) in cleared.items():
            dot = sum(x * pv[i] for i, x in nz)
            den = dc * dv
            values[v] = Fraction(dot, den)
            side = dot * rhs.denominator - rhs.numerator * den
            if side > 0:
                above.add(v)
            elif side < 0:
                below.add(v)
        brackets.append((values, above, below))
    points: dict[Simplex, Vec] = {}
    out = []
    for s in k.sorted_simplexes():
        if len(s) - 1 > nmax:
            continue
        rows = [[_ONE] * len(s)]
        for values, above, below in brackets:
            if above.issuperset(s) or below.issuperset(s):
                break
            rows.append([values[v] for v in s])
        else:
            sol = solve_affine(rows, rhs_col)
            if sol is not None and not sol[1] and min(sol[0]) > 0:
                points[s] = sol[0]
            verts: list[Vec] = []
            for size in range(1, len(s) + 1):
                for f in itertools.combinations(s, size):
                    lam = points.get(f)
                    if lam is not None:
                        weight = dict(zip(f, lam))
                        verts.append(tuple(weight.get(v, _ZERO) for v in s))
            if verts:
                out.append((s, verts))
    return out


def max_disjoint_stabbed(k: SimplicialComplex, g: PLMap, plane: ConcretePlane,
                         nmax: int) -> tuple[int, tuple[Simplex, ...]]:
    """Exact maximum family of pairwise vertex-disjoint stabbed simplexes.

    Branch and bound over the intersection graph of the stabbed simplexes,
    max-degree-first with cardinality pruning.  Before it is returned, the
    family is re-checked exactly: each member's first piece vertex is a
    nonnegative lambda summing to 1 whose image lies on the plane, and the
    members share no vertex; a failure raises RuntimeError.
    """
    hits = stabbed_simplexes(k, g, plane, nmax)
    n = len(hits)
    vsets = [set(s) for s, _ in hits]
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if vsets[i] & vsets[j]:
                adj[i].add(j)
                adj[j].add(i)
    chosen = _max_independent_set(n, adj)
    for s, verts in (hits[i] for i in chosen):
        lam = verts[0]
        if (min(lam) < 0 or sum(lam) != 1
                or not plane.contains(image_point(g, s, lam))):
            raise RuntimeError(f"stabbed simplex {s} failed exact re-verification")
    family = tuple(hits[i][0] for i in chosen)
    if any(set(a) & set(b) for a, b in itertools.combinations(family, 2)):
        raise RuntimeError("stabbed simplexes of the family share a vertex")
    return len(chosen), family


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
    data = _typed(data, dict, "family")
    m = _typed(data["m"], int, "m")
    s_t, s_T = (tuple(_typed(j, int, key) for j in _typed(data[key], list, key))
                for key in ("St", "ST"))
    return PlaneFamily(m, s_t, s_T, _typed(data["d"], int, "d"))


def sets_from_json(data, m: int) -> list[list[Vec]]:
    """Point sets from JSON: a nonempty list of nonempty lists of points,
    each point a list of m rational strings."""
    sets = []
    for ps in _typed(data, list, "sets"):
        pts = []
        for p in _typed(ps, list, "point set"):
            if len(_typed(p, list, "point")) != m:
                raise ValueError(f"point of length {len(p)}, expected {m}")
            pts.append(vec(parse_rational(_typed(x, str, "coordinate"))
                           for x in p))
        sets.append(pts)
    if not sets or any(not ps for ps in sets):
        raise ValueError("need nonempty point sets")
    return sets


def plane_to_json_dict(p: ConcretePlane) -> dict:
    out = family_to_json_dict(p.family)
    out["basepoint"] = [format_rational(x) for x in p.basepoint]
    out["extra_dirs"] = [[format_rational(x) for x in v]
                         for v in p.extra_directions]
    return out


def plane_from_json_dict(data: dict) -> ConcretePlane:
    family = family_from_json_dict(_typed(data, dict, "plane"))
    basepoint = vec(parse_rational(_typed(x, str, "basepoint coordinate"))
                    for x in _typed(data["basepoint"], list, "basepoint"))
    extras = tuple(vec(parse_rational(_typed(x, str, "extra_dirs coordinate"))
                       for x in _typed(row, list, "extra_dirs"))
                   for row in _typed(data.get("extra_dirs", []), list,
                                     "extra_dirs"))
    return ConcretePlane(family, basepoint, extras)

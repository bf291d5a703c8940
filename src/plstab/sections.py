"""Exact plane sections of PL images and their metric predicates.

A section is the list of convex polytopes cut out of each simplex image by a
plane, each given by its exact vertex list and named by its source simplex.
The pieces come from :func:`~plstab.transversal.stabbed_simplexes`, the one
plane-membership test and face walk: a piece's vertices are the points of
the minimal stabbed faces it lists for the simplex (each the one point of
the piece of its support face), each placed once.

Pieces have one integer form, from the membership solve to the reported
diameter.  The walk hands a face's point as integers u over one positive
pivot delta (lambda_v = D_v u_v / delta, with the map's integer form
``g.cleared`` giving P_v = D_v p_v), so an image vertex is
sum_v u_v P_v over delta and a preimage vertex holds D_v u_v over delta.
Each vertex is stored in lowest terms, as (integer vector X, positive
denominator delta), so equal points are equal tuples and components
deduplicate vertices by hashing ints.  Squared distances compare
(delta_b X_a - delta_a X_b)^2 against the other side cross-multiplied, and
a Fraction is built only for each component's ``diameters_sq`` entry;
:func:`polytopes_intersect` clears its two vertex lists by one lcm.  The
Fraction view (``fractions()``) and the ``of`` constructors from Fraction
vertex lists serve tests and callers that hold Fractions.

Components of the union (pieces chained by nonempty intersection) make the
metric predicates decidable: a compact PL set is coverable by disjoint open
sets of diameter below eps iff every component has diameter below eps, and
the preimage of a plane is coverable by at most q open sets of diameter at
most eps iff its components admit such a clustering.

Components come from face incidence first: the piece of a face lies in the
piece of each coface, so every piece joins the pieces of its facets.  On an
image, exact LPs (:func:`polytopes_intersect`, the only caller of
:func:`~plstab.ratmath.lp_feasible`, on :func:`~plstab.ratmath.hull_rows`)
then run only between pieces of maximal stabbed simplexes that face
incidence leaves in different classes.  Preimages live in the standard
geometric realization of the complex: vertex number i sits at the i-th unit
point, so a barycentric solution maps to the vector of its weights, and
piece(s) and piece(s') meet in piece(s & s'), so face incidence alone gives
their components.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .ratmath import Vec, _cleared, as_fraction, hull_rows, lp_feasible
from .simplicial import PLMap, Simplex, SimplicialComplex
from .transversal import ConcretePlane, stabbed_simplexes

Vertex = tuple[tuple[int, ...], int]  # (X, delta): X / delta, lowest terms
Polytope = tuple[Vertex, ...]  # vertex list, exact

MAX_CLUSTER_COMPONENTS = 12


def _vertex(xs: Sequence[int], delta: int) -> Vertex:
    """The point xs / delta, delta > 0, in lowest terms."""
    g = math.gcd(delta, *xs)
    if g == 1:
        return tuple(xs), delta
    return tuple(x // g for x in xs), delta // g


def _polytope(points: Sequence[Vec]) -> Polytope:
    """The integer form of a Fraction vertex list."""
    return tuple(_vertex(xs, scale)
                 for scale, xs in (_cleared(p) for p in points))


def _fractions(points: Sequence[Vertex]) -> tuple[Vec, ...]:
    return tuple(tuple(Fraction(x, delta) for x in xs) for xs, delta in points)


@dataclass(frozen=True)
class PlanarSection:
    """Per-simplex intersection polytopes of a plane with a PL image, each
    vertex on its integer form (see the module docstring)."""

    pieces: tuple[Polytope, ...]
    sources: tuple[Simplex, ...]
    meets_in_faces: bool = False  # pieces of s, s' meet only in piece(s & s')

    @classmethod
    def of(cls, pieces: Sequence[Sequence[Vec]], sources: Sequence[Simplex],
           meets_in_faces: bool = False) -> "PlanarSection":
        """The section of Fraction vertex lists."""
        return cls(tuple(map(_polytope, pieces)), tuple(sources),
                   meets_in_faces)

    def fractions(self) -> tuple[tuple[Vec, ...], ...]:
        """The Fraction view of the pieces, built when it is read."""
        return tuple(map(_fractions, self.pieces))


@dataclass(frozen=True)
class ComponentPartition:
    """Components as sorted piece indices, with each component's distinct
    vertices (on their integer form) in first-seen order and its squared
    diameter."""

    components: tuple[tuple[int, ...], ...]
    points: tuple[Polytope, ...]
    diameters_sq: tuple[Fraction, ...]

    @classmethod
    def of(cls, components: Sequence[tuple[int, ...]],
           points: Sequence[Sequence[Vec]],
           diameters_sq: Sequence[Fraction]) -> "ComponentPartition":
        """The partition of Fraction vertex lists."""
        return cls(tuple(components), tuple(map(_polytope, points)),
                   tuple(diameters_sq))

    def fractions(self) -> tuple[tuple[Vec, ...], ...]:
        """The Fraction view of each component's vertices."""
        return tuple(map(_fractions, self.points))


def _dist_sq(a: Vertex, b: Vertex) -> tuple[int, int]:
    """|a - b|^2 as (numerator, positive denominator)."""
    (xa, da), (xb, db) = a, b
    return (sum((db * x - da * y) ** 2 for x, y in zip(xa, xb, strict=True)),
            (da * db) ** 2)


def diameter_sq(points: Sequence[Vertex]) -> Fraction:
    """The largest squared distance between two of the points, compared
    cross-multiplied; its Fraction is the one built."""
    best, over = 0, 1
    for a, b in itertools.combinations(points, 2):
        num, den = _dist_sq(a, b)
        if num * over > best * den:
            best, over = num, den
    return Fraction(best, over)


def polytopes_intersect(p: Polytope, q: Polytope) -> bool:
    """Exact nonempty-intersection test between two vertex-listed polytopes:
    the LP of :func:`~plstab.ratmath.hull_rows` on every coordinate, on the
    integer points of one lcm E of the vertices' denominators."""
    if not p or not q:
        return False
    scale = math.lcm(*[delta for _, delta in p], *[delta for _, delta in q])
    p, q = ([[x * (scale // delta) for x in xs] for xs, delta in r]
            for r in (p, q))
    m = len(p[0])
    # cheap exact bounding-box rejection first
    for c in range(m):
        pc = [v[c] for v in p]
        qc = [v[c] for v in q]
        if min(pc) > max(qc) or max(pc) < min(qc):
            return False
    return lp_feasible(*hull_rows((p, q), range(m))) is not None


def _section(k: SimplicialComplex, g: PLMap, plane: ConcretePlane,
             place: Callable[[Simplex, tuple[int, ...]], list[int]],
             meets_in_faces: bool = False) -> PlanarSection:
    """Pieces with their vertices placed by place(face, u) over delta, for
    each face's point (u, delta): the piece of a simplex has one vertex per
    minimal stabbed face, faces by size and then lexicographically."""
    points, faces = stabbed_simplexes(k, g, plane, k.dim)
    placed = {f: _vertex(place(f, u), delta)
              for f, (u, delta) in points.items()}
    # distinct: a certified image and the realization are injective
    pieces = tuple(tuple(placed[f] for f in fs) for fs in faces.values())
    return PlanarSection(pieces, tuple(faces), meets_in_faces)


def section_of_image(k: SimplicialComplex, g: PLMap,
                     plane: ConcretePlane) -> PlanarSection:
    """Exact intersection of the plane with every simplex image.

    Each piece is the polytope of image points of one simplex lying on the
    plane, listed by its exact vertices; empty intersections are omitted.
    A vertex sum_v lambda_v p_v is sum_v u_v P_v over delta.
    """
    cleared = g.cleared

    def place(s: Simplex, u: tuple[int, ...]) -> list[int]:
        images = [cleared[v][1] for v in s]
        return [sum(w * p[c] for w, p in zip(u, images)) for c in range(g.m)]

    return _section(k, g, plane, place)


def compute_components(section: PlanarSection) -> ComponentPartition:
    """Connectivity classes of pieces chained by exact nonempty intersection.

    The piece of a face lies in the piece of each coface, so every piece is
    first joined to the pieces of its facets, looked up by source: every
    face between a stabbed face f and a source is stabbed, its piece holding
    piece(f), so a chain of stabbed facets reaches f, and a source is a
    proper face of another iff it is a facet of one.  A point that a face's
    piece shares with another piece then lies in the pieces of two top
    simplexes (sources that are no proper face of another source), so exact
    LPs between top pieces in different classes find every remaining join.
    On a section marked ``meets_in_faces`` (a preimage) those LPs could
    only come out empty, so face incidence alone gives the components.
    """
    pieces, sources = section.pieces, section.sources
    n = len(pieces)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    index = {s: i for i, s in enumerate(sources)}
    top = [True] * n
    for i, s in enumerate(sources):
        for f in itertools.combinations(s, len(s) - 1):
            j = index.get(f)
            if j is not None:
                top[j] = False
                parent[find(j)] = find(i)
    tops = [] if section.meets_in_faces else [i for i in range(n) if top[i]]
    for a, i in enumerate(tops):
        for j in tops[a + 1:]:
            if find(i) != find(j) and polytopes_intersect(pieces[i], pieces[j]):
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    components = tuple(map(tuple, groups.values()))  # by least index
    points = tuple(tuple(dict.fromkeys(v for i in comp for v in pieces[i]))
                   for comp in components)
    return ComponentPartition(components, points,
                              tuple(diameter_sq(p) for p in points))


def eps_disjoint(part: ComponentPartition, eps: Fraction) -> bool:
    """True iff every component of a section has diameter strictly below eps.

    part is the section's :func:`compute_components` partition.  For a
    compact PL set with finitely many pieces this is equivalent to being
    coverable by disjoint open sets of diameter below eps: the components
    are compact, finitely many and positively separated, so they can be
    fattened into such a cover, and conversely any member of a disjoint open
    cover contains whole components.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    return all(d < eps * eps for d in part.diameters_sq)


def preimage_polytopes(k: SimplicialComplex, g: PLMap,
                       plane: ConcretePlane) -> PlanarSection:
    """Per-simplex solution polytopes of "image on plane" in realization coordinates.

    The realization places vertex number i at the i-th unit point of
    R^{|V|}; a barycentric solution therefore maps to its weight vector
    spread over the positions of its simplex's vertices.  There the
    realized simplexes of s and s' meet in that of s & s', so their pieces
    meet in piece(s & s') and the section is marked ``meets_in_faces``.
    A weight lambda_v is D_v u_v over delta.
    """
    index = {v: i for i, v in enumerate(k.vertices)}
    nv = len(k.vertices)
    cleared = g.cleared

    def place(s: Simplex, u: tuple[int, ...]) -> list[int]:
        point = [0] * nv
        for w, v in zip(u, s):
            point[index[v]] = cleared[v][0] * w
        return point

    return _section(k, g, plane, place, meets_in_faces=True)


def component_clusters(part: ComponentPartition, q: int,
                       eps: Fraction) -> Optional[list[list[int]]]:
    """One split of the components into <= q clusters of diameter <= eps, or None.

    part is the preimage's :func:`compute_components` partition; clusters are
    lists of component indices.  Exact and exhaustive over component
    assignments (restricted-growth order, pruned by the monotonicity of
    cluster diameters, backtracking without recursion).  A component wider
    than eps answers None; when q covers the components, each is its own
    cluster.  Otherwise more than MAX_CLUSTER_COMPONENTS components raise.
    """
    eps = as_fraction(eps)
    if q < 1 or eps <= 0:
        raise ValueError("need q >= 1 and eps > 0")
    eps_sq = eps * eps
    top, bottom = eps_sq.numerator, eps_sq.denominator
    if any(d > eps_sq for d in part.diameters_sq):
        return None
    ncomp = len(part.components)
    if q >= ncomp:
        return [[i] for i in range(ncomp)]
    if ncomp > MAX_CLUSTER_COMPONENTS:
        raise ValueError(f"{ncomp} components exceed the exact clusterer limit "
                         f"of {MAX_CLUSTER_COMPONENTS}")
    pair_cache: dict[tuple[int, int], bool] = {}

    def fits(i: int, j: int) -> bool:
        """Whether components i and j together have diameter <= eps."""
        got = pair_cache.get((i, j))
        if got is None:
            got = all(num * bottom <= top * den
                      for num, den in (_dist_sq(a, b) for a in part.points[i]
                                       for b in part.points[j]))
            pair_cache[(i, j)] = got
        return got

    clusters: list[list[int]] = []
    chosen: list[int] = []  # the cluster of each placed component
    start = 0  # the first cluster the next component may try
    while len(chosen) < ncomp:
        idx = len(chosen)
        c = next((c for c in range(start, min(len(clusters) + 1, q))
                  if c == len(clusters)
                  or all(fits(idx, other) for other in clusters[c])), None)
        if c is not None:
            if c == len(clusters):
                clusters.append([])
            clusters[c].append(idx)
            chosen.append(c)
            start = 0
        elif not chosen:
            return None
        else:  # backtrack: the last component placed tries its next cluster
            start = chosen.pop()
            clusters[start].pop()
            if not clusters[start]:
                clusters.pop()
            start += 1
    return clusters

"""Exact plane sections of PL images and their metric predicates.

A section is the list of convex polytopes cut out of each simplex image by a
plane, each given by its exact vertex list and named by its source simplex.
The pieces come from :func:`~plstab.transversal.stabbed_simplexes`, the one
plane-membership test and face walk: a piece's vertices are the points of
the minimal stabbed faces it lists for the simplex (each the one point of
the piece of its support face), each placed once.
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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .ratmath import (Vec, as_fraction, combination, dist_sq, hull_rows,
                      lp_feasible)
from .simplicial import PLMap, Simplex, SimplicialComplex
from .transversal import ConcretePlane, stabbed_simplexes

_ZERO = Fraction(0)

Polytope = tuple[Vec, ...]  # vertex list, exact

MAX_CLUSTER_COMPONENTS = 12


@dataclass(frozen=True)
class PlanarSection:
    """Per-simplex intersection polytopes of a plane with a PL image."""

    pieces: tuple[Polytope, ...]
    sources: tuple[Simplex, ...]
    meets_in_faces: bool = False  # pieces of s, s' meet only in piece(s & s')


@dataclass(frozen=True)
class ComponentPartition:
    """Components as sorted piece indices, with each component's distinct
    vertices in first-seen order and its squared diameter."""

    components: tuple[tuple[int, ...], ...]
    points: tuple[tuple[Vec, ...], ...]
    diameters_sq: tuple[Fraction, ...]


def diameter_sq(points: Sequence[Vec]) -> Fraction:
    return max((dist_sq(a, b) for a, b in itertools.combinations(points, 2)),
               default=_ZERO)


def polytopes_intersect(p: Polytope, q: Polytope) -> bool:
    """Exact nonempty-intersection test between two vertex-listed polytopes:
    the LP of :func:`~plstab.ratmath.hull_rows` on every coordinate."""
    if not p or not q:
        return False
    m = len(p[0])
    # cheap exact bounding-box rejection first
    for c in range(m):
        pc = [v[c] for v in p]
        qc = [v[c] for v in q]
        if min(pc) > max(qc) or max(pc) < min(qc):
            return False
    return lp_feasible(*hull_rows((p, q), range(m))) is not None


def _section(k: SimplicialComplex, g: PLMap, plane: ConcretePlane,
             place: Callable[[Simplex, Vec], Vec],
             meets_in_faces: bool = False) -> PlanarSection:
    """Pieces with their vertices placed by place(face, lambda): the piece
    of a simplex has one vertex per minimal stabbed face, at that face's
    point, faces by size and then lexicographically."""
    points, faces = stabbed_simplexes(k, g, plane, k.dim)
    placed = {f: place(f, lam) for f, lam in points.items()}
    # distinct: a certified image and the realization are injective
    pieces = tuple(tuple(placed[f] for f in fs) for fs in faces.values())
    return PlanarSection(pieces, tuple(faces), meets_in_faces)


def section_of_image(k: SimplicialComplex, g: PLMap,
                     plane: ConcretePlane) -> PlanarSection:
    """Exact intersection of the plane with every simplex image.

    Each piece is the polytope of image points of one simplex lying on the
    plane, listed by its exact vertices; empty intersections are omitted.
    """
    def place(s: Simplex, lam: Vec) -> Vec:
        return combination(lam, [g.images[v] for v in s], range(g.m))

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
    """
    index = {v: i for i, v in enumerate(k.vertices)}
    nv = len(k.vertices)

    def place(s: Simplex, lam: Vec) -> Vec:
        point = [_ZERO] * nv
        for w, v in zip(lam, s):
            point[index[v]] = w
        return tuple(point)

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
            got = all(dist_sq(a, b) <= eps_sq
                      for a in part.points[i] for b in part.points[j])
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

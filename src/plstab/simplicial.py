"""Finite abstract simplicial complexes and their piecewise-linear maps.

A complex is a face-closed set of sorted vertex-id tuples; a PL map assigns
each vertex an exact rational point in R^m and is extended affinely on every
simplex.  A map is immutable and carries its one integer form, each image
cleared of denominators once, the first time it is read, which the
certificate's minors and plane membership share.  The perturbation routine
moves every vertex image into general position using per-coordinate
streams from a :class:`~plstab.generic.GenericPool` and certifies the result
(pairwise-distinct coordinates, affinely independent simplex images),
regenerating from successor seeds on failure.

File formats (both UTF-8, line oriented, '#' starts a comment):

* complex file: ``v <id>`` declares a vertex, ``s <id> <id> ...`` declares a
  simplex; the complex is the face closure of the declared simplexes.
* map file: header ``m <count>``, then ``p <vertex-id> <rat> ... <rat>`` with
  exactly m rational coordinates per line.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

from .generic import (REGEN_ATTEMPTS, GenericityCertificate, GenericityError,
                      GenericPool, certify, distinctness_transcript,
                      regeneration_pools)
from .ratmath import (Vec, _cleared, _minor, as_fraction, combination,
                      dist_sq, format_rational, parse_integer, parse_rational,
                      vec)

Simplex = tuple[str, ...]


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# The one ceiling on a complex's size, in simplexes: a complex read from a
# file or drawn by gen holds at most this many.  Measured on a 2-vCPU VM,
# gen --vertices 20 --dim 19 --density 1 (all 2^20 - 1 kept) takes 11 s and
# 540 MB peak RSS, and gen --vertices 1048576 --dim 0 takes 3 s and 413 MB.
MAX_SIMPLEXES = 2 ** 20


def _closure(simplexes) -> tuple[frozenset[Simplex], tuple[Simplex, ...]]:
    """Every nonempty face of the simplexes, as sorted tuples, and the
    maximal ones (yielded as no round's facet) by size, then vertex ids.

    A face expands its facets only in the one round it enters the closure,
    so the work is the closure's size times the largest simplex size.
    Listing all 2^k faces of each given simplex instead costs 3^n when
    every simplex on n vertices is given, as ``gen --density 1`` does.
    A given simplex whose 2^k - 1 faces alone pass :data:`MAX_SIMPLEXES`
    raises ValueError before any face is built, and so does the round in
    which the closure passes it.
    """
    closed: set[Simplex] = set()
    new = {tuple(sorted(s)) for s in simplexes} - {()}
    maximal = new  # not copied: each round rebinds ``new``
    size = max(map(len, new), default=0)
    if (1 << size) - 1 > MAX_SIMPLEXES:
        raise ValueError(f"a simplex on {size} vertices has more than "
                         f"{MAX_SIMPLEXES} faces")
    while new:
        closed |= new
        if len(closed) > MAX_SIMPLEXES:
            raise ValueError(f"the complex has more than {MAX_SIMPLEXES} "
                             "simplexes")
        facets = {s[:i] + s[i + 1:] for s in new if len(s) > 1
                  for i in range(len(s))}
        maximal -= facets
        new = facets - closed
    maximal = tuple(sorted(sorted(maximal), key=len))  # by size, then ids
    return frozenset(closed), maximal


@dataclass(frozen=True)
class SimplicialComplex:
    """Face-closed finite complex; vertex order is first-appearance order."""

    vertices: tuple[str, ...]
    simplexes: frozenset[Simplex]
    _maximal: tuple[Simplex, ...] = field(repr=False, compare=False)

    @classmethod
    def from_simplexes(cls, vertices: Sequence[str],
                       simplexes: Sequence[Sequence[str]]) -> "SimplicialComplex":
        vertices = tuple(vertices)
        known = set(vertices)
        if len(known) != len(vertices):
            raise ValueError("duplicate vertex id")
        for s in simplexes:
            for v in s:
                if v not in known:
                    raise ValueError(f"unknown vertex id {v!r}")
            if len(set(s)) != len(s):
                raise ValueError("duplicate vertex in a simplex")
        return cls(vertices,
                   *_closure(list(simplexes) + [(v,) for v in vertices]))

    @property
    def dim(self) -> int:
        return len(self._maximal[-1]) - 1 if self._maximal else -1

    def sorted_simplexes(self) -> list[Simplex]:
        return sorted(self.simplexes, key=lambda s: (len(s), s))

    def maximal_simplexes(self) -> list[Simplex]:
        """Simplexes that are no facet of another, by size and vertex ids."""
        return list(self._maximal)


def _records(text: str, kinds: tuple[str, ...]):
    """(line number, kind, arguments) of each record of a line-oriented file.

    ``#`` starts a comment and blank lines are skipped; a line whose first
    word is not one of the record kinds raises :class:`ParseError`.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *args = line.split()
        if kind not in kinds:
            raise ParseError(lineno, f"malformed line {raw!r}")
        yield lineno, kind, args


def parse_complex(text: str) -> SimplicialComplex:
    vertices: list[str] = []
    seen: set[str] = set()
    simplexes: list[tuple[str, ...]] = []
    for lineno, kind, args in _records(text, ("v", "s")):
        if kind == "v":
            if len(args) != 1:
                raise ParseError(lineno, "vertex line needs exactly one id")
            if args[0] in seen:
                raise ParseError(lineno, f"duplicate vertex {args[0]!r}")
            seen.add(args[0])
            vertices.append(args[0])
        else:
            if not args:
                raise ParseError(lineno, "empty simplex")
            if len(set(args)) != len(args):
                raise ParseError(lineno, "duplicate vertex in simplex")
            for v in args:
                if v not in seen:
                    raise ParseError(lineno, f"unknown vertex {v!r}")
            simplexes.append(tuple(args))
    return SimplicialComplex.from_simplexes(vertices, simplexes)


def format_complex(k: SimplicialComplex) -> str:
    lines = [f"v {v}" for v in k.vertices]
    lines += [f"s {' '.join(s)}" for s in sorted(k.maximal_simplexes())]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PLMap:
    """Vertex-image assignment into R^m, extended affinely on simplexes.

    ``cleared`` is the map's one integer form: each image p_v as
    (D_v, P_v) with D_v the lcm of its denominators and P_v = D_v p_v
    (:func:`~plstab.ratmath._cleared`).  It is computed once, the first
    time it is read, so a map that only moves (the input of a perturbation)
    clears nothing; the integer paths (the genericity transcript and plane
    membership) read it, and a copy made by ``dataclasses.replace`` shares
    it.  ``images`` is the Fraction view.
    """

    m: int
    images: dict[str, Vec]
    certificate: Optional[GenericityCertificate] = None
    _form: Optional[dict[str, tuple[int, list[int]]]] = field(
        default=None, repr=False, compare=False)

    @property
    def cleared(self) -> dict[str, tuple[int, list[int]]]:
        if self._form is None:
            object.__setattr__(self, "_form", {
                v: _cleared(p) for v, p in self.images.items()})
        return self._form

    @property
    def certified(self) -> bool:
        return self.certificate is not None and self.certificate.ok


def parse_map(text: str) -> PLMap:
    m: Optional[int] = None
    images: dict[str, Vec] = {}
    for lineno, kind, args in _records(text, ("m", "p")):
        if kind == "m":
            if m is not None:
                raise ParseError(lineno, "duplicate header")
            try:
                (m,) = map(parse_integer, args)
            except ValueError as exc:
                raise ParseError(lineno, "header needs one count") from exc
            if m < 1:
                raise ParseError(lineno, "ambient dimension must be positive")
        else:
            if m is None:
                raise ParseError(lineno, "point before header")
            if len(args) != m + 1:
                raise ParseError(lineno, f"expected id plus {m} coordinates")
            if args[0] in images:
                raise ParseError(lineno, f"duplicate point for {args[0]!r}")
            try:
                images[args[0]] = tuple(parse_rational(x) for x in args[1:])
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from exc
    if m is None:
        raise ParseError(1, "missing header")
    return PLMap(m, images)


def format_map(g: PLMap) -> str:
    lines = [f"m {g.m}"]
    for v, point in g.images.items():
        coords = " ".join(format_rational(x) for x in point)
        lines.append(f"p {v} {coords}")
    return "\n".join(lines) + "\n"


def generic_position_transcript(k: SimplicialComplex, g: PLMap) -> list[int]:
    """Nonvanishing conditions behind the PL map invariants, as integers.

    First the |V|*m - 1 neighbour conditions of all |V|*m coordinates in
    sorted order, which certify them pairwise distinct (see
    :func:`~plstab.generic.distinctness_transcript`).  Then one condition
    per maximal simplex with at least three vertices, in
    ``maximal_simplexes`` order, zero exactly when its image is affinely
    dependent.  The other simplexes need none: distinct coordinates make
    every edge image independent, and an independent simplex makes all of
    its faces independent.  The minors read the map's integer form
    ``g.cleared``, P_v = D_v p_v with D_v the lcm of the denominators of
    p_v, so a simplex v_0 ... v_k has the integer rows
    D_0 P_i - D_i P_0 = D_0 D_i (p_i - p_0); the condition is their integer
    minor (:func:`~plstab.ratmath._minor`, the last pivot of their
    elimination), which is prod_i D_0 D_i times the first nonzero maximal
    minor of the edge rows p_i - p_0.
    """
    transcript = distinctness_transcript(
        x for v in k.vertices for x in g.images[v])
    cleared = g.cleared
    for simplex in k.maximal_simplexes():
        if len(simplex) < 3:
            continue
        d0, p0 = cleared[simplex[0]]
        rows = [[d0 * a - di * b for a, b in zip(pi, p0)]
                for di, pi in (cleared[v] for v in simplex[1:])]
        transcript.append(_minor(rows))
    return transcript


def _certified(k: SimplicialComplex, g: PLMap) -> PLMap:
    """g with its certificate against k; shares g's images, and its integer
    form once the transcript has read it."""
    return replace(g, certificate=certify(generic_position_transcript(k, g)))


def certify_map(k: SimplicialComplex, g: PLMap) -> PLMap:
    """Recompute the genericity certificate of g against complex k."""
    for v in k.vertices:
        if v not in g.images:
            raise ValueError(f"missing vertex {v!r}")
    return _certified(k, g)


def roberts_perturb(k: SimplicialComplex, theta: PLMap, eps: Fraction,
                    pool: GenericPool) -> PLMap:
    """Move every vertex image into certified general position, within eps.

    Coordinate s of vertex number i (1-based, first-appearance order) is
    drawn from stream (i-1)*m + s.  The Euclidean distance from each old
    image to its replacement is verified below eps by exact squared
    comparison.  On certificate failure the draw is regenerated from seed+1,
    then seed+2; after that a :class:`GenericityError` is raised.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    m = theta.m
    for v in k.vertices:
        if v not in theta.images:
            raise ValueError(f"missing vertex {v!r}")
    per_coord = eps / m  # sum of m squares each < (eps/m)^2 stays < eps^2
    for attempt_pool in regeneration_pools(pool):
        images: dict[str, Vec] = {}
        for i, v in enumerate(k.vertices, start=1):
            target = theta.images[v]
            point = tuple(
                attempt_pool.draw_near(target[s - 1], per_coord, (i - 1) * m + s)
                for s in range(1, m + 1)
            )
            if dist_sq(point, target) >= eps * eps:
                raise RuntimeError("perturbation left the eps ball")
            images[v] = point
        g = _certified(k, PLMap(m, images))
        if g.certified:
            return g
    raise GenericityError(
        f"certification failed {REGEN_ATTEMPTS} times from seed {pool.seed}")


def image_point(g: PLMap, simplex: Simplex, barycentric: Sequence) -> Vec:
    """Affine extension: sum of barycentric weights times vertex images."""
    weights = vec(barycentric)
    if len(weights) != len(simplex):
        raise ValueError("barycentric length does not match simplex size")
    if sum(weights) != 1:
        raise ValueError("barycentric coordinates must sum to 1")
    return combination(weights, [g.images[v] for v in simplex], range(g.m))


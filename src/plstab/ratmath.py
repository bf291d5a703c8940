"""Exact rational linear algebra.

Everything in this package runs on `fractions.Fraction` and integers; no
floats enter any decision.  This module supplies the substrate: affine
solves with nullspace bases, exact linear-programming feasibility, and
real-root counts for univariate integer polynomials via Sturm sequences.
Matrices are plain sequences of equal-length rows; :func:`mat_rank`,
:func:`solve_affine` and :func:`lp_feasible` raise ValueError on ragged
rows.

One digit reader, :func:`parse_ratio`, reads a rational literal as its
numerator and denominator in lowest terms; :func:`parse_rational` is its
Fraction.  :func:`_cleared_ratios` clears such pairs as :func:`_cleared`
clears Fractions, so a vector read from text goes into its integer form
with no Fraction, and :func:`format_ratio` writes a value back from its
integers.

One integer pivot, :func:`_pivot` (the fraction-free update
``(pv * x - f * y) // prev``), serves both elimination and the simplex.
Rank, solves and nullspaces come from :func:`_echelon` on
denominator-cleared integer rows (:func:`_cleared`): a solve
(:func:`_solve_augmented`, the entry point for integer rows a caller
cleared itself) reads each entry it returns off those rows as that entry
over its row's pivot, and :func:`_nullspace_normals` a nullspace basis as
primitive integer normals; :func:`_unique_solution` eliminates forward
only, turning away every inconsistent or underdetermined system there, and
hands a unique solution as integers over the last pivot by back
substitution.
The one determinant is the last pivot, :func:`_minor` on integer rows by
forward elimination, which updates only
the rows below each pivot; a caller that cleared rational rows divides it
by their row scales to get the minor over Q.
``lp_feasible(rows, rhs)`` decides the standard form
{x >= 0 : rows . x = rhs}: it eliminates first and runs its phase-1
simplex (Bland's rule, on an integer tableau) only when the equality
system has a nullspace; an inconsistent system or a unique solution
decides it directly.  :func:`hull_rows` is the one system for a common
point of hulls over a stacked barycentric lambda: the section LP and the
stab constraint flat both run it on integer points cleared by one lcm, the
flat straight into :func:`_solve_augmented`.  :func:`combination` is the one
sum sum_j w_j p_j of a Fraction lambda block.

Polynomials have one type: integer coefficient lists in ascending degree,
the zero polynomial ``[]``.  One primitive pseudo-remainder sequence
(:func:`_prs`) serves Sturm chains, gcds and square-free parts, and one
Bareiss determinant over Z[s] (:func:`_poly_det`) has exact divisions that
raise on a remainder.  Every Sturm chain is built from a square-free part,
so it ends in a nonzero constant and a root at an endpoint needs no special
case.  Signs at a rational point, zero tests included, come from an integer
homogeneous Horner sum (:func:`_sign_at`).

All values are immutable after construction and every operation is a pure
function, so everything here is safe to use from concurrent tasks.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)

_INTEGER_RE = re.compile(r"[+-]?[0-9]+")  # ASCII digits only
_RATIONAL_RE = re.compile(_INTEGER_RE.pattern + r"(?:/[0-9]+)?")


def parse_integer(text: str) -> int:
    """Parse the canonical integer text form: "-7", "5"."""
    if not _INTEGER_RE.fullmatch(text):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


def parse_ratio(text: str) -> tuple[int, int]:
    """The one digit reader of the canonical rational text form ("-7/3",
    "5"): its value as (numerator, positive denominator) in lowest terms.

    The denominator part is optional and must be a positive decimal integer;
    "1/0" is rejected.  No whitespace, no decimals, no exponents.
    """
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    if not den:
        return int(num), 1
    d = int(den)
    if d == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return _lowest(int(num), d)


def parse_rational(text: str) -> Fraction:
    """The value of :func:`parse_ratio`, as a Fraction."""
    return Fraction(*parse_ratio(text))


def _lowest(num: int, den: int) -> tuple[int, int]:
    """num / den in lowest terms, for den > 0."""
    g = math.gcd(num, den)
    return num // g, den // g


def format_rational(x: Fraction) -> str:
    """Inverse of :func:`parse_rational`; omits the denominator when it is 1."""
    return str(x)


def format_ratio(num: int, den: int) -> str:
    """:func:`format_rational` of num / den, den > 0, with no Fraction."""
    num, den = _lowest(num, den)
    return str(num) if den == 1 else f"{num}/{den}"


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


def vec(items: Iterable) -> Vec:
    return tuple(as_fraction(x) for x in items)


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), _ZERO)


def unit_vec(m: int, j: int) -> Vec:
    """Standard basis vector e_j of length m, 1-based index."""
    if not 1 <= j <= m:
        raise ValueError(f"unit vector index {j} out of range 1..{m}")
    return tuple(_ONE if i == j else _ZERO for i in range(1, m + 1))


def _cleared(xs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(D, the values times D as integers), D the lcm of their denominators."""
    # a list, not a generator: CPython builds star-args from a generator by
    # resizing a tuple, so each call would leave one more tuple on its free
    # list (up to 2,000 per length)
    scale = math.lcm(*[x.denominator for x in xs])
    return scale, [x.numerator * (scale // x.denominator) for x in xs]


def _cleared_ratios(ratios: Sequence[tuple[int, int]]
                    ) -> tuple[int, list[int]]:
    """:func:`_cleared` of values given as (numerator, positive
    denominator) pairs, which no Fraction has to carry: (D, the values
    times D as integers), D the lcm of the denominators.  Pairs in lowest
    terms give exactly the form :func:`_cleared` gives their values."""
    scale = math.lcm(*[d for _, d in ratios])
    return scale, [n * (scale // d) for n, d in ratios]


def _width(rows: Sequence[Sequence]) -> int:
    """The common length of the rows, 0 for no rows; ragged rows raise."""
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged rows")
    return ncols


def _pivot(work: list[list[int]], r: int, c: int, prev: int,
           first: int = 0) -> int:
    """One fraction-free elimination step on integer rows, in place.

    Every row from row ``first`` on but row r becomes
    ``(pv * x - f * y) // prev`` with pv the pivot ``work[r][c]``, f the
    row's entry in column c and y row r; a row with f = 0 is rescaled by
    pv / prev.  Gauss-Jordan updates every row (first = 0), forward
    elimination only the rows below the pivot (first = r + 1).  When the
    updated rows are prev times a rational tableau, they come out pv times
    the tableau pivoted on (r, c), and each entry is a minor of the starting
    integer matrix (Bareiss 1968, Edmonds 1967), so the division is exact.
    Returns pv, the next prev.
    """
    top = work[r]
    pv = top[c]
    for i in range(first, len(work)):
        if i == r:
            continue
        row = work[i]
        f = row[c]
        if f:
            work[i] = [(pv * x - f * y) // prev for x, y in zip(row, top)]
        elif pv != prev:
            work[i] = [pv * x // prev for x in row]
    return pv


def _echelon(work: list[list[int]], back: bool = True
             ) -> tuple[list[list[int]], list[int]]:
    """Fraction-free elimination of integer rows, in place (Bareiss 1968).

    Callers clear each rational row of denominators first (:func:`_cleared`),
    which leaves its reduced form unchanged.  :func:`_pivot` eliminates each
    column on its first nonzero entry at or below the rank so far, which
    keeps the path deterministic.  With ``back`` (Gauss-Jordan) every pivot
    row comes out its last pivot times its reduced row; without it only the
    rows below each pivot are updated, which leaves every pivot as it is.
    Either way the rows below the rank end zero.  Returns (integer rows,
    pivot columns).
    """
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        prev = _pivot(work, r, c, prev, 0 if back else r + 1)
        pivots.append(c)
    return work, pivots


def mat_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank over the rationals of equal-length rows: the pivot count
    of :func:`_echelon`."""
    _width(rows)
    return len(_echelon([_cleared(r)[1] for r in rows])[1])


def _solve_augmented(work: list[list[int]], ncols: int
                     ) -> Optional[tuple[Vec, tuple[Vec, ...]]]:
    """(particular solution, nullspace basis) of an augmented system
    [A | b] of integer rows, which it eliminates in place.

    None when the system is inconsistent.  Free variables are set to zero in
    the particular solution; the basis is the standard one per free column.
    Both are read off the integer rows of :func:`_echelon`: a pivot row is
    its pivot times its reduced row, so each entry read is that entry over
    the row's pivot, and only the right-hand and free columns are read.
    """
    work, pivots = _echelon(work)
    if ncols in pivots:
        return None  # pivot in the augmented column: 0 = nonzero
    particular = [_ZERO] * ncols
    for r, c in enumerate(pivots):
        particular[c] = Fraction(work[r][-1], work[r][c])
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [_ZERO] * ncols
        v[f] = _ONE
        for r, c in enumerate(pivots):
            v[c] = Fraction(-work[r][f], work[r][c])
        basis.append(tuple(v))
    return tuple(particular), tuple(basis)


def _unique_solution(work: list[list[int]], ncols: int
                     ) -> Optional[tuple[tuple[int, ...], int]]:
    """(u, delta) with delta > 0 and x = u / delta the unique solution of
    an augmented system [A | b] of integer rows, which it eliminates forward
    in place, or None when the system is inconsistent or has a nullspace.

    Forward elimination decides which: the solution is unique exactly when
    the pivot columns are the ncols columns of A, so an inconsistent
    system stops there, with no row above a pivot ever updated.  The last
    pivot is then the determinant delta of the leading square system, up to
    sign (as in :func:`_minor`), and delta x is an integer vector (Cramer),
    so back substitution on the triangular rows divides exactly: pivot row i
    gives delta x_i = (delta b_i - sum_{j>i} a_ij delta x_j) / a_ii.  That
    is the augmented column Gauss-Jordan ends with over the same last pivot.
    """
    work, pivots = _echelon(work, back=False)
    if pivots != list(range(ncols)):
        return None
    delta = work[ncols - 1][ncols - 1]
    u = [0] * ncols
    for i in range(ncols - 1, -1, -1):
        row = work[i]
        u[i] = (delta * row[ncols] - sum(row[j] * u[j]
                                         for j in range(i + 1, ncols))) // row[i]
    if delta < 0:
        return tuple(-x for x in u), -delta
    return tuple(u), delta


def solve_affine(rows: Sequence[Sequence[Fraction]], b: Sequence
                 ) -> Optional[tuple[Vec, tuple[Vec, ...]]]:
    """Solve rows . x = b exactly; the rows must have equal length.

    Returns (particular solution, basis of the homogeneous solution space),
    or None when the system is inconsistent.  Free variables are set to zero
    in the particular solution; the nullspace basis is the standard one per
    free column, so the output is deterministic.
    """
    ncols = _width(rows)
    b = vec(b)
    if len(b) != len(rows):
        raise ValueError("rhs length does not match row count")
    return _solve_augmented([_cleared(list(r) + [x])[1]
                             for r, x in zip(rows, b)], ncols)


def _nullspace_normals(work: list[list[int]], ncols: int
                       ) -> list[tuple[int, list[int]]]:
    """Basis of {x : rows . x = 0} for integer rows, which it eliminates in
    place, on integers: per free column f of their echelon form, in order,
    (s, N) with N the primitive integer vector that is s > 0 times the
    basis vector with 1 at f, 0 at the other free columns (the basis of
    :func:`_solve_augmented`).

    Gauss-Jordan leaves every pivot row with the one last pivot p (1 when
    there is none) on its pivot, so p at f and -row_r[f] at each pivot
    column c_r is p times that basis vector; N divides it by its gcd, signed
    like p.  So N is the vector a :func:`_cleared` of the basis vector
    gives, and s is N[f], the lcm of its denominators.
    """
    work, pivots = _echelon(work)
    last = work[len(pivots) - 1][pivots[-1]] if pivots else 1
    normals = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = last
        for r, c in enumerate(pivots):
            v[c] = -work[r][f]
        g = math.gcd(*v) if last > 0 else -math.gcd(*v)
        normals.append((last // g, [x // g for x in v]))
    return normals


def _minor(work: list[list[int]]) -> int:
    """Absolute value of the first nonzero maximal minor of integer rows,
    which it eliminates forward in place.

    Column sets are tried in lexicographic order.  The pivot columns of
    :func:`_echelon`, chosen greedily, are the first set whose minor is
    nonzero, and its last pivot is that minor up to sign.  Forward
    elimination reaches the same pivots as Gauss-Jordan, since no row above
    a pivot feeds a row below it.  0 when the rows are dependent, 1 for no
    rows.
    """
    work, pivots = _echelon(work, back=False)
    if len(pivots) < len(work):
        return 0
    return abs(work[-1][pivots[-1]]) if work else 1


def independent_subset(vectors: Sequence[Vec]) -> list[int]:
    """Indices of a maximal independent subset, scanning left to right.

    With the vectors as columns, the pivot columns of the echelon form are
    exactly the vectors outside the span of the earlier ones.
    """
    if not vectors:
        return []
    columns = [[v[i] for v in vectors] for i in range(len(vectors[0]))]
    return _echelon([_cleared(c)[1] for c in columns])[1]


def lp_feasible(rows: Sequence[Sequence[Fraction]], rhs: Sequence) -> Optional[Vec]:
    """Exact feasibility of {x >= 0 : rows . x = rhs} (standard form).

    The rows must have equal length.  Eliminates first: an inconsistent
    system is infeasible, and a unique solution is the witness exactly when
    it is >= 0.  Only a system with a nullspace runs the phase-1 simplex
    (Bland's rule).  Returns a witness satisfying every constraint exactly,
    or None.
    """
    rhs = vec(rhs)
    sol = solve_affine(rows, rhs)
    if sol is None:
        return None
    witness, basis = sol
    if basis:
        witness = _simplex_witness(rows, rhs)
        if witness is None:
            return None
    elif any(x < 0 for x in witness):
        return None

    for row, b in zip(rows, rhs):  # exactness is cheap; fail loudly on any bug
        if vec_dot(row, witness) != b:
            raise RuntimeError("LP produced an inexact witness")
    if any(x < 0 for x in witness):
        raise RuntimeError("LP witness violates a sign constraint")
    return witness


def combination(weights: Sequence[Fraction], points: Sequence[Vec],
                coords: Iterable[int]) -> Vec:
    """sum_j weights[j] * points[j] at the given 0-based coordinates."""
    return tuple(sum((w * p[c] for w, p in zip(weights, points)), _ZERO)
                 for c in coords)


def hull_rows(point_sets: Sequence[Sequence[Sequence]], coords: Sequence[int]
              ) -> tuple[list[list], list[int]]:
    """(rows, rhs) over the stacked lambda, a block of weights per set: one
    row per set sums its weights to 1, then y_i[c] - y_1[c] = 0 for each
    later set i and each 0-based c in coords, y_i its :func:`combination`.
    Solved, they ask whether the affine hulls meet on those coordinates;
    under :func:`lp_feasible`, whether the convex hulls do.  The constants
    are ints, so integer points give integer rows: the stab flat's solve
    and the section LP pass the points E p_ij of one lcm E, whose
    difference rows are E times those of the p_ij, with the same
    solutions."""
    q = len(point_sets)
    rows = [[1 if j == i else 0 for j, ps in enumerate(point_sets)
             for _ in ps] for i in range(q)]
    rows += [[-p[c] if j == 0 else p[c] if j == i else 0
              for j, ps in enumerate(point_sets) for p in ps]
             for i in range(1, q) for c in coords]
    return rows, [1] * q + [0] * (len(rows) - q)


def _simplex_witness(rows: Sequence[Sequence[Fraction]], rhs: Vec
                     ) -> Optional[Vec]:
    """Phase-1 simplex with Bland's rule on an integer tableau.

    Rows with a negative right-hand side are negated, and every row starts
    with its artificial variable basic; the artificial columns are never
    read, so they are left out.  One common lcm clears the rows and the
    phase-1 objective row (their sum): the tableau of the same problem with
    the artificials scaled by that lcm, so every sign, ratio and tie is the
    rational tableau's.  :func:`_pivot` keeps the rows prev times that
    tableau, and every pivot is positive, so prev stays positive.  The
    entering column is the first with a positive objective entry; the ratio
    test cross-multiplies and breaks ties on the smaller basis index.  A
    basic structural variable's value is its row's last entry over prev.
    """
    ncols = len(rows[0])
    nrows = len(rows)

    tab: list[Fraction] = []
    for row, b in zip(rows, rhs):
        sign = -1 if b < 0 else 1
        tab.extend(sign * x for x in row)
        tab.append(sign * b)
    flat = _cleared(tab)[1]
    width = ncols + 1
    work = [flat[k:k + width] for k in range(0, len(flat), width)]
    work.append([sum(col) for col in zip(*work)])  # phase-1 objective row
    basis = [ncols + r for r in range(nrows)]  # the artificials
    prev = 1

    while True:
        obj = work[-1]
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            break
        pivot_row = None
        for r in range(nrows):
            coeff = work[r][enter]
            if coeff <= 0:
                continue
            if pivot_row is None:
                pivot_row = r
                continue
            here = work[r][-1] * work[pivot_row][enter]
            best = work[pivot_row][-1] * coeff
            if here < best or (here == best and basis[r] < basis[pivot_row]):
                pivot_row = r
        if pivot_row is None:
            # Phase-1 objective is bounded below by 0, so this cannot happen.
            raise RuntimeError("unbounded phase-1 simplex")
        prev = _pivot(work, pivot_row, enter, prev)
        basis[pivot_row] = enter

    if work[-1][-1] != 0:
        return None

    witness = [_ZERO] * ncols
    for r, k in enumerate(basis):
        if k < ncols:
            witness[k] = Fraction(work[r][-1], prev)
    return tuple(witness)


# ---------------------------------------------------------------------------
# Univariate polynomials (integer coefficient lists, ascending degree) and
# Sturm.

def _trimmed(c: list) -> list:
    """A coefficient list without trailing zeros."""
    while c and c[-1] == 0:
        c.pop()
    return c


def _primitive(c: list[int]) -> list[int]:
    """An integer polynomial divided by its positive content."""
    g = math.gcd(*c)
    return c if g == 1 else [x // g for x in c]


def _derivative(c: list[int]) -> list[int]:
    return [i * c[i] for i in range(1, len(c))]


def _cross(a: list[int], x: list[int], b: list[int], y: list[int]) -> list[int]:
    """a * x - b * y for integer polynomials."""
    out = [0] * max(len(a) + len(x), len(b) + len(y))
    for u, v in ((a, x), ([-c for c in b], y)):
        for i, c in enumerate(u):
            for j, e in enumerate(v):
                out[i + j] += c * e
    return _trimmed(out)


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials, b nonzero.

    Raises ArithmeticError unless b divides a exactly in Z[s].
    """
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(quot) - 1, -1, -1):
        q, r = divmod(rem[shift + len(b) - 1], b[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        quot[shift] = q
        for i, c in enumerate(b):
            rem[shift + i] -= q * c
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return quot


def _poly_det(rows: list[list[list[int]]]) -> list[int]:
    """Determinant of a nonempty square matrix over Z[s] (Bareiss 1968).

    Each pivot step replaces the rows below it by ``(pv * x - f * y) / prev``,
    the update of :func:`_pivot`, and drops the pivot row and column.
    Every entry stays a minor of the matrix, so each division is exact; the
    last entry is the determinant of the row-swapped matrix.
    """
    work = list(rows)
    sign, prev = 1, [1]
    while len(work) > 1:
        pr = next((i for i, r in enumerate(work) if r[0]), None)
        if pr is None:
            return []
        if pr:
            work[0], work[pr] = work[pr], work[0]
            sign = -sign
        top, *rest = work
        pv = top[0]
        work = [[_exact_quotient(_cross(pv, x, r[0], y), prev)
                 for x, y in zip(r[1:], top[1:])] for r in rest]
        prev = pv
    det = work[0][0]
    return det if sign > 0 else [-x for x in det]


def _negated_prem(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of minus the pseudo-remainder of a by b.

    Each reduction step scales the dividend by ``|lc(b)|``, never by a
    signed factor, so the result is a positive multiple of ``-(a mod b)``.
    The zero polynomial comes back as ``[]``.
    """
    rem = list(a)
    db = len(b) - 1
    mag = abs(b[-1])
    sgn = 1 if b[-1] > 0 else -1
    while len(rem) > db:
        top = rem.pop()
        if top:
            shift = len(rem) - db
            f = sgn * top
            if mag != 1:
                rem = [mag * x for x in rem]
            for i in range(db):
                rem[shift + i] -= f * b[i]
    return _primitive([-x for x in _trimmed(rem)])


def _prs(a: list[int], b: list[int]) -> list[list[int]]:
    """Primitive pseudo-remainder sequence of nonzero integer polynomials.

    Starts a, b; each next member is the primitive part of the negated
    pseudo-remainder of the two before it (Collins 1967, Brown-Traub 1971),
    a positive multiple of the Euclidean member -rem.  It stops before the
    first zero remainder, so its last member is a gcd of a and b.
    """
    chain = [a, b]
    while len(chain[-1]) > 1:
        rem = _negated_prem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(rem)
    return chain


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two integer polynomials, leading coefficient > 0.

    The zero polynomial ``[]`` when both are zero.
    """
    if len(a) < len(b):
        a, b = b, a
    g = _primitive(_prs(a, b)[-1] if b else a)
    return [-x for x in g] if g and g[-1] < 0 else g


def square_free_part(p: list[int]) -> list[int]:
    """head / gcd(head, head'), head the primitive part of the integer
    polynomial p.

    It is primitive and has the distinct roots of p, each simple; p itself
    when its degree is below 1.
    """
    if len(p) < 2:
        return p
    head = _primitive(p)
    return _exact_quotient(head, _poly_gcd(head, _derivative(head)))


def _sturm_chain(ps: list[int]) -> list[list[int]]:
    """Sturm chain of a nonzero square-free primitive ps: the :func:`_prs`
    of ps and its derivative.  Every member is a positive multiple of the
    member of the Euclidean chain ps, ps', -rem(ps, ps'), ..., so every sign
    and variation count is the same, while the coefficients stay small.  The
    last member is the gcd of ps and ps', a nonzero constant.
    """
    if len(ps) == 1:
        return [ps]
    return _prs(ps, _primitive(_derivative(ps)))


def _sign_at(c: list[int], x: Optional[Fraction], end: int = 1) -> int:
    """Sign of a nonzero integer polynomial at x, or at -inf/+inf when x is
    None (end = -1 or +1).

    At x = a/b with b > 0 the sign is that of the homogeneous Horner sum
    ``sum c_i a^i b^(n-i) = b^n c(x)``, computed on integers.
    """
    if x is None:
        lead = 1 if c[-1] > 0 else -1
        return lead if end > 0 or len(c) % 2 else -lead
    a, b = x.numerator, x.denominator
    acc = c[-1]
    bpow = 1
    for coeff in reversed(c[:-1]):
        bpow *= b
        acc = acc * a + coeff * bpow
    return (acc > 0) - (acc < 0)


def _variations(chain: list[list[int]], x: Optional[Fraction], end: int = 1) -> int:
    """Sign variations of a Sturm chain at x, zeros skipped.

    The chain of a square-free part ends in a nonzero constant, so at a
    root of its head the variations equal those just right of the root.
    """
    signs = [s for s in (_sign_at(c, x, end) for c in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(p: list[int], lo: Optional[Fraction] = None,
                hi: Optional[Fraction] = None) -> int:
    """Number of distinct real roots of the integer polynomial p in
    (lo, hi]; endpoints None = unbounded.  Raises ValueError when lo > hi.

    Counts sign variations of the chain of its square-free part.
    """
    if lo is not None and hi is not None and lo > hi:
        raise ValueError("empty interval")
    if len(p) < 2:
        return 0
    chain = _sturm_chain(square_free_part(p))
    return _variations(chain, lo, -1) - _variations(chain, hi, +1)


def cauchy_root_bound(p: list[int]) -> Fraction:
    """B with every real root of the integer polynomial p in (-B, B)."""
    if len(p) < 2:
        return _ONE
    return 1 + Fraction(max(abs(c) for c in p[:-1]), abs(p[-1]))


def simplest_between(a: Fraction, b: Fraction) -> Fraction:
    """The rational with smallest denominator in [a, b] (Stern-Brocot walk).

    On 0 < a <= b: a's integer part fa, when a is that integer or fa + 1 is
    at most b; else fa + 1/x for x the simplest rational in
    [1/(b - fa), 1/(a - fa)].  The walk collects those integer parts, one
    continued-fraction term per step, and folds them back from the last.
    """
    if a > b:
        raise ValueError("empty interval")
    if a <= 0 <= b:
        return _ZERO
    sign = 1
    if b < 0:
        a, b, sign = -b, -a, -1
    terms = []
    while True:
        fa = a.numerator // a.denominator
        if fa == a:
            x = Fraction(fa)
            break
        if b >= fa + 1:
            x = Fraction(fa + 1)
            break
        terms.append(fa)
        a, b = 1 / (b - fa), 1 / (a - fa)
    for fa in reversed(terms):
        x = fa + 1 / x
    return sign * x

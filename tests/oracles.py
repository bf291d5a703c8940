"""Brute-force oracles used to cross-check the fast implementations.

Everything here is deliberately naive: cofactor determinants (over every
column subset, for maximal minors), all-pairs comparison for
distinctness, the full genericity transcript of a PL map (every face
checked, implied conditions included), minor enumeration for rank,
textbook Fraction Gauss-Jordan for reduced row echelon forms, Cramer's
rule and basic-solution enumeration for LP feasibility and polytope
vertices, a Fraction simplex tableau for LP witnesses, schoolbook
polynomial products, Euclidean Sturm chains and gcds, term-by-term sums
for the block differences of met points, the Gram determinant for the
univariate stabbing decision, subset scans for maximum disjoint families,
all-pairs intersection tests for section components, Bell-number partition
scans for clustering, and grid sampling for component diameters.  None
of it shares code with the paths it checks, and none of it imports
``plstab``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def det_cofactor(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * det_cofactor(minor)
    return total


def max_minor_by_subsets(rows):
    """|det| of the first nonzero maximal minor, trying column sets in
    lexicographic order; 0 when every one vanishes (or rows outnumber
    columns), 1 for no rows."""
    ncols = len(rows[0]) if rows else 0
    for cols in itertools.combinations(range(ncols), len(rows)):
        minor = det_cofactor([[r[j] for j in cols] for r in rows])
        if minor != 0:
            return abs(minor)
    return Fraction(0)


def coords_pairwise_distinct(values):
    """True iff no two of the values are equal, comparing every pair."""
    values = list(values)
    return all(a != b for a, b in itertools.combinations(values, 2))


def full_position_transcript(simplexes, images):
    """Every genericity condition of a PL map, the implied ones included.

    The difference of every pair of the map's coordinates, then, for every
    face with at least two vertices of the given simplexes (each face
    listed once), the first nonzero maximal minor of its edge vectors
    p_i - p_0.  The map is in general position exactly when none is zero.
    """
    coords = [Fraction(x) for point in images.values() for x in point]
    out = [a - b for a, b in itertools.combinations(coords, 2)]
    faces = {face for s in simplexes for size in range(2, len(s) + 1)
             for face in itertools.combinations(sorted(s), size)}
    for face in sorted(faces):
        base = images[face[0]]
        out.append(max_minor_by_subsets(
            [[Fraction(a) - Fraction(b) for a, b in zip(images[v], base)]
             for v in face[1:]]))
    return out


def rank_by_minors(rows):
    """Largest k with a nonzero k x k minor."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    for k in range(min(nrows, ncols), 0, -1):
        for ri in itertools.combinations(range(nrows), k):
            for ci in itertools.combinations(range(ncols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det_cofactor(sub) != 0:
                    return k
    return 0


def rref_naive(rows):
    """Reduced row echelon form by textbook Fraction Gauss-Jordan.

    First-nonzero pivoting, every row kept (zero rows last); returns
    (rows, pivot columns).
    """
    rows = [[Fraction(x) for x in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def solve_by_cramer(rows, rhs):
    """The unique solution of rows . x = rhs, or None when there is none.

    Needs full column rank; picks the first set of rows with a nonzero
    maximal minor, solves those by Cramer's rule and checks every row.
    """
    ncols = len(rows[0])
    if rank_by_minors(rows) < ncols:
        return None
    for ri in itertools.combinations(range(len(rows)), ncols):
        square = [rows[i] for i in ri]
        d = det_cofactor(square)
        if d != 0:
            break
    sub_rhs = [rhs[i] for i in ri]
    x = [det_cofactor([r[:j] + [b] + r[j + 1:] for r, b in zip(square, sub_rhs)]) / d
         for j in range(ncols)]
    if any(sum(a * v for a, v in zip(r, x)) != b for r, b in zip(rows, rhs)):
        return None
    return tuple(x)


def basic_feasible_solutions(eq_rows, rhs):
    """The vertices of {x >= 0 : eq_rows . x = rhs}, by basic-solution scan.

    A basic solution sets every variable outside a support of
    rank(eq_rows) columns to zero and solves the support columns uniquely;
    the feasible ones are exactly the vertices.  Returned in support order,
    each once.
    """
    eq_rows = [[Fraction(x) for x in r] for r in eq_rows]
    rhs = [Fraction(x) for x in rhs]
    ncols = len(eq_rows[0])
    rank = rank_by_minors(eq_rows)
    if rank == 0:
        return [(Fraction(0),) * ncols] if all(r == 0 for r in rhs) else []
    found = []
    for support in itertools.combinations(range(ncols), rank):
        sub = [[row[j] for j in support] for row in eq_rows]
        point = solve_by_cramer(sub, rhs)
        if point is None or any(x < 0 for x in point):
            continue
        full = [Fraction(0)] * ncols
        for j, x in zip(support, point):
            full[j] = x
        if tuple(full) not in found:
            found.append(tuple(full))
    return found


def feasible_by_basic_solutions(eq_rows, rhs):
    """Feasibility of {x >= 0 : eq_rows . x = rhs}.

    Valid for all-nonnegative variables: such a polyhedron is pointed, so it
    is nonempty iff it has a basic feasible solution.
    """
    return bool(basic_feasible_solutions(eq_rows, rhs))


def membership_rows(simplex, images, covectors):
    """The system of "the image of lambda lies on the plane" on a simplex:
    the sum-to-one row, then for each plane covector (c, r) the row of the
    values c.p_v at the simplex's vertex images; right-hand sides 1, r."""
    rows = [[1] * len(simplex)] + [
        [sum(a * b for a, b in zip(c, images[v])) for v in simplex]
        for c, _ in covectors]
    return rows, [1] + [r for _, r in covectors]


def simplex_witness_fraction(eq_rows, rhs, nonneg):
    """Phase-1 simplex with Bland's rule on a textbook Fraction tableau.

    Free variables (those not in nonneg) are split in two, a row with a
    negative right-hand side is negated, and every row gets an artificial
    variable that starts basic.  The entering column is the first
    structural one with a positive objective entry; the leaving row has the
    least ratio b_r / a_r, ties going to the smaller basis index.  Returns
    the witness, or None when the phase-1 optimum is positive.
    """
    ncols = len(eq_rows[0])
    columns = []  # (original var, sign)
    for i in range(ncols):
        columns.append((i, 1))
        if i not in nonneg:
            columns.append((i, -1))
    nstruct = len(columns)
    nrows = len(eq_rows)
    tab = []
    for r in range(nrows):
        row = [Fraction(eq_rows[r][i]) * s for (i, s) in columns]
        brow = Fraction(rhs[r])
        if brow < 0:
            row = [-x for x in row]
            brow = -brow
        art = [Fraction(int(k == r)) for k in range(nrows)]
        tab.append(row + art + [brow])
    width = nstruct + nrows + 1
    basis = [nstruct + r for r in range(nrows)]
    obj = [sum((tab[r][j] for r in range(nrows)), Fraction(0))
           for j in range(width)]
    for r in range(nrows):
        obj[nstruct + r] = Fraction(0)
    while True:
        enter = next((j for j in range(nstruct) if obj[j] > 0), None)
        if enter is None:
            break
        pivot_row = None
        best_ratio = None
        for r in range(nrows):
            coeff = tab[r][enter]
            if coeff > 0:
                ratio = tab[r][-1] / coeff
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio
                            and basis[r] < basis[pivot_row])):
                    best_ratio = ratio
                    pivot_row = r
        pv = tab[pivot_row][enter]
        tab[pivot_row] = [x / pv for x in tab[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and tab[r][enter] != 0:
                f = tab[r][enter]
                tab[r] = [x - f * y for x, y in zip(tab[r], tab[pivot_row])]
        f = obj[enter]
        obj = [x - f * y for x, y in zip(obj, tab[pivot_row])]
        basis[pivot_row] = enter
    if obj[-1] != 0:
        return None
    values = [Fraction(0)] * nstruct
    for r in range(nrows):
        if basis[r] < nstruct:
            values[basis[r]] = tab[r][-1]
    witness = [Fraction(0)] * ncols
    for k, (i, s) in enumerate(columns):
        witness[i] += s * values[k]
    return tuple(witness)


def poly_eval_naive(coeffs, x):
    return sum(c * x ** i for i, c in enumerate(coeffs))


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _euclid_divmod(f, g):
    quot = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    rem = list(f)
    while len(rem) >= len(g):
        factor = rem[-1] / g[-1]
        shift = len(rem) - len(g)
        quot[shift] = factor
        for i, c in enumerate(g):
            rem[shift + i] -= factor * c
        rem = _trim(rem[:-1])
    return quot, rem


def poly_mul_naive(p, q):
    """Product of two coefficient sequences (ascending degree), trimmed."""
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(_trim(out))


def integer_poly(coeffs):
    """The coefficients times the lcm of their denominators, trimmed, as a
    list of ints: an integer polynomial with the same roots."""
    coeffs = _trim(Fraction(c) for c in coeffs)
    scale = math.lcm(*(c.denominator for c in coeffs))
    return [int(c * scale) for c in coeffs]


def _poly_add(p, q):
    n = max(len(p), len(q))
    return tuple(_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                        for i in range(n)]))


def poly_det_cofactor(rows):
    """Determinant of a square matrix of polynomials by cofactor expansion."""
    if len(rows) == 1:
        return rows[0][0]
    total = ()
    for j, head in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = poly_mul_naive(head, poly_det_cofactor(minor))
        total = _poly_add(total, tuple(-c for c in term) if j % 2 else term)
    return total


def sturm_count_euclid(coeffs, lo=None, hi=None):
    """Distinct real roots in (lo, hi] (None = unbounded) by the Euclidean
    Sturm chain p, p', -rem(p, p'), ... on Fraction polynomials.

    The chain ends at gcd(p, p'); every member is divided by it, which gives
    a Sturm chain of the square-free part, so an endpoint that is a multiple
    root of p is handled too.  Coefficients ascend by degree; a polynomial
    of degree below 1 counts 0.
    """
    p = _trim(Fraction(c) for c in coeffs)
    if len(p) < 2:
        return 0
    chain = [p, [i * p[i] for i in range(1, len(p))]]
    while len(chain[-1]) > 1:
        rem = _euclid_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    gcd = chain[-1]
    chain = [_euclid_divmod(c, gcd)[0] for c in chain]

    def variations(x, end):
        signs = []
        for c in chain:
            if x is None:
                s = 1 if c[-1] > 0 else -1
                if end < 0 and len(c) % 2 == 0:
                    s = -s
            else:
                v = poly_eval_naive(c, x)
                s = (v > 0) - (v < 0)
            if s:
                signs.append(s)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(lo, -1) - variations(hi, +1)


def root_in_interval_by_grid(coeffs, lo, hi, step):
    """Root existence in [lo, hi] for polynomials with simple roots.

    Exhaustive sign evaluation on a rational grid of the given step, plus
    bisection confirmation of every sign change.  Sound whenever consecutive
    roots are separated by more than the step.
    """
    values = []
    x = lo
    while x <= hi:
        values.append((x, poly_eval_naive(coeffs, x)))
        x += step
    if values and values[-1][0] != hi:
        values.append((hi, poly_eval_naive(coeffs, hi)))
    for _, v in values:
        if v == 0:
            return True
    for (xa, va), (xb, vb) in zip(values, values[1:]):
        if va * vb < 0:
            # bisect to confirm the sign change persists at finer scale
            a, fa, b = xa, va, xb
            for _ in range(20):
                mid = (a + b) / 2
                fm = poly_eval_naive(coeffs, mid)
                if fm == 0:
                    return True
                if fa * fm < 0:
                    b = mid
                else:
                    a, fa = mid, fm
            return True
    return False


def draw_near_fraction(target, eps, offset):
    """The value of ``GenericPool.draw_near`` by Fraction halving and doubling.

    ``offset`` is the stream's offset r: rho is halved and doubled to the
    largest power of two at most eps/4, q = floor(target/rho + 1/2) * rho,
    the offset is halved until it is below eps/2, and the value is
    q + scale * r.
    """
    target, eps = Fraction(target), Fraction(eps)
    rho = Fraction(1)
    while rho > eps / 4:
        rho /= 2
    while rho * 2 <= eps / 4:
        rho *= 2
    q = (target / rho + Fraction(1, 2)).__floor__() * rho
    scale = Fraction(1)
    while scale * offset >= eps / 2:
        scale /= 2
    return q + scale * offset


def max_independent_bitmask(conflict_masks):
    """Size of the largest conflict-free subset by full bitmask scan."""
    n = len(conflict_masks)
    best = 0
    for mask in range(1 << n):
        size = bin(mask).count("1")
        if size <= best:
            continue
        ok = True
        probe = mask
        while probe:
            low = probe & -probe
            i = low.bit_length() - 1
            if conflict_masks[i] & mask:
                ok = False
                break
            probe ^= low
        if ok:
            best = size
    return best


def max_disjoint_by_subsets(items, conflict):
    """Maximum subset of indices with no conflicting pair, by full scan."""
    n = len(items)
    best = 0
    best_set = ()
    for mask in range(1 << n):
        chosen = [i for i in range(n) if mask >> i & 1]
        if len(chosen) <= best:
            continue
        if all(not conflict(items[a], items[b])
               for a, b in itertools.combinations(chosen, 2)):
            best = len(chosen)
            best_set = tuple(chosen)
    return best, best_set


def set_partitions(items):
    """All partitions of a list (Bell-number enumeration)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        yield [[first]] + smaller


def clusterable_by_partition_scan(components, q, eps_sq, pair_diam_sq):
    """True iff components split into <= q clusters of squared diameter <= eps_sq.

    pair_diam_sq(i, j) gives the max squared distance between components i, j
    (i == j allowed).  Full Bell-number scan.
    """
    idx = list(range(len(components)))
    for partition in set_partitions(idx):
        if len(partition) > q:
            continue
        ok = True
        for cluster in partition:
            for a in cluster:
                for b in cluster:
                    if pair_diam_sq(a, b) > eps_sq:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def components_by_pairwise_lp(pieces):
    """Components of vertex-listed polytopes chained by nonempty intersection.

    Every pair of pieces is tested for a common convex combination,
    {lambda, mu >= 0 : sum lambda = sum mu = 1, P lambda = Q mu}, by
    basic-solution scan (coordinate rows that are zero in both pieces are
    dropped); a union-find joins the pairs that meet.  Returns the
    components as sorted index tuples ordered by their least index, and the
    largest squared distance between any two vertices of each component.
    """
    n = len(pieces)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in itertools.combinations(range(n), 2):
        if find(i) == find(j):
            continue
        p, q = pieces[i], pieces[j]
        rows = []
        for c in range(len(p[0])):
            row = [Fraction(v[c]) for v in p] + [-Fraction(w[c]) for w in q]
            if any(row):
                rows.append(row)
        rows.append([Fraction(1)] * len(p) + [Fraction(0)] * len(q))
        rows.append([Fraction(0)] * len(p) + [Fraction(1)] * len(q))
        rhs = [0] * (len(rows) - 2) + [1, 1]
        if feasible_by_basic_solutions(rows, rhs):
            parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    components = sorted(tuple(g) for g in groups.values())
    diameters = []
    for comp in components:
        points = [v for i in comp for v in pieces[i]]
        diameters.append(max(
            (sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(u, w))
             for u, w in itertools.combinations(points, 2)),
            default=Fraction(0)))
    return tuple(components), tuple(diameters)


def block_differences_naive(point_sets, block, lam):
    """The differences y_i - y_1 of the met points y_i = sum_j lam_ij p_ij
    of a stacked lambda on the given 1-based coordinates, one row per later
    set, each sum taken term by term in Fraction."""
    ys, start = [], 0
    for ps in point_sets:
        weights = lam[start:start + len(ps)]
        start += len(ps)
        ys.append([sum((Fraction(w) * Fraction(p[c - 1])
                        for w, p in zip(weights, ps)), Fraction(0))
                   for c in block])
    return [[a - b for a, b in zip(y, ys[0])] for y in ys[1:]]


def primitive_gcd(polys):
    """The gcd of integer polynomials (ascending degree) by the Euclidean
    algorithm over Q, as a primitive integer polynomial with a positive
    leading coefficient; [] when every one is zero."""
    gcd = []
    for p in polys:
        a, b = _trim(Fraction(c) for c in p), gcd
        while b:
            a, b = b, _euclid_divmod(a, b)[1]
        gcd = a
    if not gcd:
        return []
    ints = integer_poly(gcd)
    content = math.gcd(*ints)
    return [c // content * (1 if ints[-1] > 0 else -1) for c in ints]


def univariate_by_gram(point_sets, m, s_t, s_T, d):
    """The univariate stabbing decision by the Gram determinant.

    Returns (status, polynomial).  The decision applies when there are
    q = d - |s_t| + 2 sets and the coefficient vectors lambda (each set's
    summing to 1, the met points' differences Y_i - Y_1 vanishing outside
    s_T) form a line base + s w; otherwise it is ("not_applicable", None).
    On the line the rows (Y_i - Y_1)(s), restricted to the coordinates of
    s_T outside s_t, are dependent exactly where the determinant of their
    Gram matrix vanishes: the status is "witness" when that determinant is
    the zero polynomial or has a real root, else "no_stab".
    """
    q = len(point_sets)
    if q != d - len(s_t) + 2:
        return "not_applicable", None
    sizes = [len(ps) for ps in point_sets]
    offsets = [sum(sizes[:i]) for i in range(q)]
    nvars = sum(sizes)
    system = [[Fraction(int(offsets[i] <= k < offsets[i] + sizes[i]))
               for k in range(nvars)] + [Fraction(1)] for i in range(q)]
    for i in range(1, q):
        for c in range(1, m + 1):
            if c in s_T:
                continue
            row = [Fraction(0)] * (nvars + 1)
            for j, p in enumerate(point_sets[i]):
                row[offsets[i] + j] += Fraction(p[c - 1])
            for j, p in enumerate(point_sets[0]):
                row[offsets[0] + j] -= Fraction(p[c - 1])
            system.append(row)
    reduced, pivots = rref_naive(system)
    free = [k for k in range(nvars) if k not in pivots]
    if nvars in pivots or len(free) != 1:
        return "not_applicable", None
    base = [Fraction(0)] * nvars
    w = [Fraction(0)] * nvars
    w[free[0]] = Fraction(1)
    for r, c in enumerate(pivots):
        base[c] = reduced[r][-1]
        w[c] = -reduced[r][free[0]]

    def met(i, c):  # coordinate c of Y_i(s) as a linear polynomial
        return [sum(lam[offsets[i] + j] * Fraction(p[c - 1])
                    for j, p in enumerate(point_sets[i])) for lam in (base, w)]

    block = [c for c in s_T if c not in s_t]
    diffs = [[tuple(_trim(a - b for a, b in zip(met(i, c), met(0, c))))
              for c in block] for i in range(1, q)]
    gram = []
    for ri in diffs:
        grow = []
        for rj in diffs:
            acc = ()
            for a, b in zip(ri, rj):
                acc = _poly_add(acc, poly_mul_naive(a, b))
            grow.append(acc)
        gram.append(grow)
    det = poly_det_cofactor(gram)
    return ("witness" if not det or sturm_count_euclid(det) > 0
            else "no_stab"), det

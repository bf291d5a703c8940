"""Batch verification sweeps and deterministic fixture generation.

The parametric suites enumerate counting-regime tuples, draw certified
configurations from per-trial pools, run the exact deciders, and collect
violations; every violation carries the seeds needed to reproduce it.  The
samplers build the random complexes, maps and planes of the benchmark and
the test corpus; the command-line front end uses only random_complex.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .generic import (GenericityError, GenericPool, _derived_seed, certify,
                      distinctness_transcript_of_numerators,
                      regeneration_pools)
from .ratmath import Vec, vec
from .simplicial import PLMap, SimplicialComplex, image_point
from .transversal import (SEARCH_BUDGET, ConcretePlane, NonStabCase,
                          PlaneFamily, PointSets, _known_keys, _typed,
                          decide_stab, family_from_json_dict, nonstab_case,
                          plane_through, sets_from_json,
                          stab_decide_univariate, stab_exists_linear,
                          stab_regime)

_ONE = Fraction(1)

# Largest suite bounds a grid may ask for: enumeration is exponential in
# them (m_max 6 / n_max 3 has 470 linear and 342 univariate cells).
SUITE_M_MAX = 6
SUITE_N_MAX = 3


@dataclass(frozen=True)
class SweepCell:
    suite: str
    m: int
    d: int
    t: int
    T: int
    n_list: tuple[int, ...]

    def key(self) -> str:
        ns = ",".join(str(n) for n in self.n_list)
        return f"{self.suite}:m{self.m}:d{self.d}:t{self.t}:T{self.T}:n[{ns}]"


def _compositions(q: int, max_each: int, total_exact: Optional[int] = None):
    for n_list in itertools.product(range(max_each + 1), repeat=q):
        if total_exact is None or sum(n_list) == total_exact:
            yield n_list


def _regime_tuples(m_max: int):
    """Every (m, d, t, T) with 0 <= t <= d <= T <= m <= m_max, in sweep order."""
    for m in range(1, m_max + 1):
        for T in range(0, m + 1):
            for t in range(0, T + 1):
                for d in range(t, T + 1):
                    yield m, d, t, T


def linear_cells(m_max: int, n_max: int) -> list[SweepCell]:
    """All tuples where the few-sets counting inequality labels the cell."""
    return [SweepCell("linear", m, d, t, T, n_list)
            for m, d, t, T in _regime_tuples(m_max)
            for q in range(1, d - t + 2)
            for n_list in _compositions(q, n_max)
            if nonstab_case(n_list, m, d, t, T) is NonStabCase.CASE_II]


def univariate_cells(m_max: int, n_max: int) -> list[SweepCell]:
    """Tuples with q = d-t+2 whose constraint flat is generically a line.

    A dimension count, with no draw: with k = m-T coordinates outside s_T,
    set i's hull projects onto a generic affine subspace of R^k of
    codimension max(0, k-n_i).  These meet exactly when their codimensions
    sum to at most k, and the flat then has dimension sum n_i - (q-1)k,
    which the candidates fix at 1.
    """
    return [SweepCell("univariate", m, d, t, T, n_list)
            for m, d, t, T in _regime_tuples(m_max)
            for n_list in _compositions(d - t + 2, n_max,
                                        1 + (d - t + 1) * (m - T))
            if sum(max(0, m - T - n) for n in n_list) <= m - T
            and nonstab_case(n_list, m, d, t, T) is not NonStabCase.INCONCLUSIVE]


def _cell_family(cell: SweepCell) -> PlaneFamily:
    """Deterministic coordinate-index sets of the required sizes."""
    rng = random.Random(_derived_seed("family", cell.key()))
    s_T = tuple(sorted(rng.sample(range(1, cell.m + 1), cell.T)))
    s_t = tuple(sorted(rng.sample(s_T, cell.t)))
    return PlaneFamily(cell.m, s_t, s_T, cell.d)


_DRAW_TARGETS = tuple(Fraction(k) for k in range(7))
_DRAW_EPS = Fraction(1, 2)


def draw_point_sets(pool: GenericPool, n_list: Sequence[int], m: int
                    ) -> tuple[PointSets, "GenericityCertificate"]:
    """One point set of n_i + 1 points per entry, every coordinate on its own
    stream, on its integer form.

    The integer kernel (:meth:`~plstab.generic.GenericPool.draw_integers`)
    gives each coordinate as a numerator over its denominator, and the
    points are built straight over their lcm E, with no Fraction.  The
    returned certificate records pairwise distinctness of all drawn
    coordinates as one integer per neighbour pair of their sorted
    numerators over E (see
    :func:`~plstab.generic.distinctness_transcript_of_numerators`).
    """
    stream = itertools.count()
    drawn = [[[pool.draw_integers(_DRAW_TARGETS[(3 * i + 5 * j + s) % 7],
                                  _DRAW_EPS, next(stream))
               for s in range(m)]
              for j in range(n + 1)]
             for i, n in enumerate(n_list)]
    scale = math.lcm(*[den for pts in drawn for p in pts for _, den in p])
    points = tuple(tuple(tuple(num * (scale // den) for num, den in p)
                         for p in pts) for pts in drawn)
    return PointSets(scale, points), certify(
        distinctness_transcript_of_numerators(
            x for pts in points for p in pts for x in p))


def _run_cell(cell: SweepCell, trials: int, base_pool: GenericPool, decide,
              negative: str, kind: str) -> list[dict]:
    """Decide each trial on its first certified draw, in regeneration order,
    that :func:`~plstab.transversal.stab_regime` sends to the cell's suite,
    on the flat it solved; a status other than the exact negative one is a
    violation of the given kind."""
    family = _cell_family(cell)
    violations = []
    for trial in range(trials):
        for pool in regeneration_pools(base_pool.derive(trial)):
            sets, cert = draw_point_sets(pool, cell.n_list, cell.m)
            if cert.ok:
                mode, flat = stab_regime(sets, family)
                if mode == cell.suite:
                    break
        else:
            raise GenericityError(
                f"no applicable certified draw for {cell.key()} trial {trial}")
        if decide(sets, family, flat).status != negative:
            violations.append({"cell": cell.key(), "trial": trial,
                               "seed": pool.seed, "kind": kind})
    return violations


def run_linear_cell(cell: SweepCell, trials: int,
                    base_pool: GenericPool) -> list[dict]:
    """Exact nonstab check: any witness in this regime is a violation."""
    return _run_cell(cell, trials, base_pool, stab_exists_linear, "infeasible",
                     "unexpected witness in the exact linear regime")


def run_univariate_cell(cell: SweepCell, trials: int,
                        base_pool: GenericPool) -> list[dict]:
    """Exact univariate nonstab check; draws whose constraint flat is not a
    line are regenerated."""
    return _run_cell(cell, trials, base_pool, stab_decide_univariate,
                     "no_stab", "unexpected stab in the exact univariate regime")


# ---------------------------------------------------------------------------
# Random fixtures: complexes, maps, planes.

def random_complex(rng: random.Random, vertices: int, dim: int,
                   density: Fraction) -> SimplicialComplex:
    """Random complex on the given vertex count, maximal simplexes of size dim+1.

    Every vertex is declared, so isolated ones stay as 0-simplexes; the
    density is an exact rational inclusion probability.  A candidate is
    kept when its draw r / 10**6 is below the density a/b, decided on
    integers as r * b < a * 10**6.
    """
    names = [f"v{i}" for i in range(1, vertices + 1)]
    maximal: list[tuple[str, ...]] = []
    bar = density.numerator * 10 ** 6
    for size in range(2, dim + 2):
        for combo in itertools.combinations(names, size):
            if rng.randrange(10 ** 6) * density.denominator < bar:
                maximal.append(combo)
    return SimplicialComplex.from_simplexes(names, maximal)


def random_map(rng: random.Random, k: SimplicialComplex, m: int,
               box: int = 8) -> PLMap:
    return PLMap(m, {v: vec([rng.randint(0, box) for _ in range(m)])
                     for v in k.vertices})


def _random_extras(rng: random.Random, family: PlaneFamily) -> list[Vec]:
    return [family.embed([Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                          for _ in family.block])
            for _ in range(family.d - family.t)]


def sample_plane_random(rng: random.Random, family: PlaneFamily,
                        g: PLMap) -> ConcretePlane:
    """Family member with a basepoint near the image and random directions;
    one draw, never retried: :func:`~plstab.transversal.plane_through` gets
    exactly d-t span vectors inside span(s_T), so it cannot fail."""
    lo = [min(p[c] for p in g.images.values()) for c in range(g.m)]
    hi = [max(p[c] for p in g.images.values()) for c in range(g.m)]
    base = [lo[c] - 1 + Fraction(rng.randrange(10 ** 6), 10 ** 6)
            * (hi[c] - lo[c] + 2) for c in range(g.m)]
    return plane_through(family, vec(base), _random_extras(rng, family))


def sample_plane_adversarial(rng: random.Random, family: PlaneFamily,
                             k: SimplicialComplex, g: PLMap) -> ConcretePlane:
    """Family member anchored on an image point, directions from image
    differences; one draw, never retried, as in :func:`sample_plane_random`."""
    simplexes = k.sorted_simplexes()
    s = simplexes[rng.randrange(len(simplexes))]
    weights = [Fraction(rng.randint(0, 3)) for _ in s]
    if sum(weights) == 0:
        weights[0] = _ONE
    total = sum(weights)
    base = image_point(g, s, [w / total for w in weights])
    images = list(g.images.values())
    # a one-vertex map has only zero differences, and draws none
    pairs = (rng.sample(images, 2) if len(images) > 1 else images * 2
             for _ in range(family.d - family.t))
    return plane_through(family, base, [
        family.embed([pa[j - 1] - pb[j - 1] for j in family.block])
        for pa, pb in pairs])


# ---------------------------------------------------------------------------
# Fixtures for stab expectations (used by the verify grid file).

_FIXTURE_KEYS = ("name", "family", "sets", "budget", "expect", "mode")
_FIXTURE_EXPECTS = ("witness", "infeasible", "no_stab", "not_found")
_SUITE_KEYS = ("kind", "m_max", "n_max")
_GRID_KEYS = ("suites", "fixtures")


def _checked_fixture(fixture) -> tuple[PlaneFamily, PointSets, int]:
    """The family, sets and budget of the fixture, once it is a JSON object
    with no unknown key, a string ``name`` if any, an ``expect`` that some
    decider answers, a valid ``budget`` and a ``family`` and ``sets`` that
    parse."""
    _known_keys(fixture, _FIXTURE_KEYS, "fixture")
    if "name" in fixture:
        _typed(fixture["name"], str, "fixture name")
    expect = fixture.get("expect")
    if expect is not None and expect not in _FIXTURE_EXPECTS:
        raise ValueError(f"fixture expect must be one of "
                         f"{', '.join(_FIXTURE_EXPECTS)}, got {expect!r}")
    budget = _json_count(fixture, "budget", SEARCH_BUDGET, least=0)
    family = family_from_json_dict(fixture["family"])
    return family, sets_from_json(fixture["sets"], family.m), budget


def run_stab_fixture(fixture: dict, base_pool: GenericPool) -> dict:
    """Run one stab fixture and compare with its expectation.

    Keys: family (JSON dict), sets (list of point lists of rational text),
    optional name (a JSON string), expect (witness | infeasible | no_stab |
    not_found) and budget (a JSON integer >= 0, default
    :data:`~plstab.transversal.SEARCH_BUDGET`, read when the search runs,
    on the pool's seed); any other key but ``mode`` is an input error.  The
    result's ``mode`` names the decider that
    :func:`~plstab.transversal.stab_regime` picked, and a fixture's own
    ``mode`` must name it too.  A witness or isolating interval that fails
    its exact re-check reads invalid_witness.
    """
    return _run_checked(fixture, base_pool.seed, *_checked_fixture(fixture))


def _run_checked(fixture: dict, seed: int, family: PlaneFamily,
                 sets: PointSets, budget: int) -> dict:
    """:func:`run_stab_fixture` on what :func:`_checked_fixture` parsed."""
    got = decide_stab(sets, family, budget, seed)
    if "mode" in fixture and fixture["mode"] != got["mode"]:
        raise ValueError(f"fixture mode {fixture['mode']!r}, but the input "
                         f"is decided by {got['mode']!r}")
    status = got["status"]
    if status == "witness" and not got["certified"]:
        status = "invalid_witness"
    expect = fixture.get("expect")
    return {
        "name": fixture.get("name", "fixture"),
        "mode": got["mode"],
        "status": status,
        "expect": expect,
        "ok": expect is None or status == expect,
    }


def _json_count(data: dict, key: str, default: int, least: int,
                most: Optional[int] = None) -> int:
    """data[key] (or default) as a JSON integer >= least (and <= most when
    given); a float, a string, a bool or an out-of-range value is an error."""
    value = data.get(key, default)
    if type(value) is not int or value < least:
        raise ValueError(f"{key} must be an integer >= {least}, got {value!r}")
    if most is not None and value > most:
        raise ValueError(f"{key} must be an integer <= {most}, got {value!r}")
    return value


def run_grid(grid: dict, trials: int, base_pool: GenericPool) -> dict:
    """Run every suite cell and fixture of a verification grid.

    The grid's keys, every suite's keys, kind and bounds, the type of every
    suite and fixture entry, each fixture's keys, name, expect, budget,
    family and sets, and that there is a suite or a fixture at all, are
    checked before any cell is enumerated.
    Returns a report dict with per-cell summaries and the flat violation
    list; the caller maps a nonempty violation list to exit code 1.
    """
    runners = {"linear": (linear_cells, run_linear_cell),
               "univariate": (univariate_cells, run_univariate_cell)}
    _known_keys(grid, _GRID_KEYS, "grid")
    suites = []
    for suite in _typed(grid.get("suites", []), list, "suites"):
        kind = _known_keys(suite, _SUITE_KEYS, "suite")["kind"]
        m_max = _json_count(suite, "m_max", 4, least=1, most=SUITE_M_MAX)
        n_max = _json_count(suite, "n_max", 2, least=0, most=SUITE_N_MAX)
        if kind not in runners:
            raise ValueError(f"unknown suite kind {kind!r}")
        suites.append((runners[kind], m_max, n_max))
    fixtures = _typed(grid.get("fixtures", []), list, "fixtures")
    checked = [_checked_fixture(fixture) for fixture in fixtures]
    if not suites and not fixtures:
        raise ValueError("grid needs a nonempty suites or fixtures list")
    violations: list[dict] = []
    cells_run = []
    for (enumerate_cells, runner), m_max, n_max in suites:
        for cell in enumerate_cells(m_max, n_max):
            if trials > 0:
                violations.extend(runner(cell, trials, base_pool))
            cells_run.append(cell.key())
    fixture_results = []
    for fixture, parsed in zip(fixtures, checked):
        result = _run_checked(fixture, base_pool.seed, *parsed)
        fixture_results.append(result)
        if not result["ok"]:
            violations.append({
                "cell": result["name"], "trial": None, "seed": base_pool.seed,
                "kind": f"fixture expected {result['expect']} "
                        f"but got {result['status']}",
            })
    return {
        "cells": cells_run,
        "trials_per_cell": trials,
        "fixtures": fixture_results,
        "violations": violations,
    }

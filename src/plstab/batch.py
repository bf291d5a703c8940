"""Batch verification sweeps and deterministic fixture generation.

The parametric suites enumerate counting-regime tuples, draw certified
configurations from per-trial pools, run the exact deciders, and collect
violations; every violation carries the seeds needed to reproduce it.  The
samplers here also build the random complexes, maps, and planes used by the
command-line front end and the test corpus.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .generic import (GenericityError, GenericPool, _derived_seed, certify,
                      distinctness_transcript, regeneration_pools)
from .ratmath import Vec, vec
from .simplicial import PLMap, SimplicialComplex, image_point
from .transversal import (ConcretePlane, NonStabCase, PlaneFamily, _known_keys,
                          _typed, decide_stab, family_from_json_dict,
                          nonstab_case, plane_through, sets_from_json,
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

    The variable count predicts a one-dimensional flat only when the
    constraint rows are generically independent (singleton-heavy tuples can
    make them inconsistent instead), so each candidate is probed with one
    draw and kept only if it is certified and
    :func:`~plstab.transversal.stab_regime` selects ``univariate`` there.
    """
    out = []
    for m, d, t, T in _regime_tuples(m_max):
        q = d - t + 2
        total = 1 + (q - 1) * (m - T)
        if total > q * n_max:
            continue
        for n_list in _compositions(q, n_max, total_exact=total):
            if nonstab_case(n_list, m, d, t, T) is NonStabCase.INCONCLUSIVE:
                continue
            cell = SweepCell("univariate", m, d, t, T, n_list)
            pool = GenericPool(_derived_seed("probe", cell.key()))
            sets, cert = draw_point_sets(pool, n_list, m)
            if cert.ok and (stab_regime(sets, _cell_family(cell))[0]
                            == "univariate"):
                out.append(cell)
    return out


def _cell_family(cell: SweepCell) -> PlaneFamily:
    """Deterministic coordinate-index sets of the required sizes."""
    rng = random.Random(_derived_seed("family", cell.key()))
    s_T = tuple(sorted(rng.sample(range(1, cell.m + 1), cell.T)))
    s_t = tuple(sorted(rng.sample(s_T, cell.t)))
    return PlaneFamily(cell.m, s_t, s_T, cell.d)


def draw_point_sets(pool: GenericPool, n_list: Sequence[int], m: int
                    ) -> tuple[list[list[Vec]], "GenericityCertificate"]:
    """One point set of n_i + 1 points per entry, every coordinate on its own stream.

    The returned certificate records pairwise distinctness of all drawn
    coordinates as one integer per neighbour pair of their sorted order (see
    :func:`~plstab.generic.distinctness_transcript`).
    """
    stream = itertools.count()
    sets = [[tuple(pool.draw_near(Fraction((3 * i + 5 * j + s) % 7),
                                  Fraction(1, 2), next(stream))
                   for s in range(m))
             for j in range(n + 1)]
            for i, n in enumerate(n_list)]
    return sets, certify(distinctness_transcript(
        x for pts in sets for p in pts for x in p))


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
    """Family member with a basepoint near the image and random directions."""
    lo = [min(p[c] for p in g.images.values()) for c in range(g.m)]
    hi = [max(p[c] for p in g.images.values()) for c in range(g.m)]
    for _ in range(32):
        base = []
        for c in range(g.m):
            span = hi[c] - lo[c] + 2
            base.append(lo[c] - 1 + Fraction(rng.randrange(10 ** 6), 10 ** 6) * span)
        try:
            return plane_through(family, vec(base), _random_extras(rng, family))
        except ValueError:
            continue
    raise RuntimeError("could not sample an admissible plane")


def sample_plane_adversarial(rng: random.Random, family: PlaneFamily,
                             k: SimplicialComplex, g: PLMap) -> ConcretePlane:
    """Family member anchored on an image point, directions from image differences."""
    simplexes = k.sorted_simplexes()
    for _ in range(32):
        s = simplexes[rng.randrange(len(simplexes))]
        weights = [Fraction(rng.randint(0, 3)) for _ in s]
        if sum(weights) == 0:
            weights[0] = _ONE
        total = sum(weights)
        base = image_point(g, s, [w / total for w in weights])
        span_vectors = []
        verts = list(g.images)
        for _ in range(family.d - family.t):
            pa, pb = (g.images[v] for v in rng.sample(verts, 2))
            span_vectors.append(
                family.embed([pa[j - 1] - pb[j - 1] for j in family.block]))
        try:
            return plane_through(family, base, span_vectors)
        except ValueError:
            continue
    raise RuntimeError("could not sample an adversarial plane")


# ---------------------------------------------------------------------------
# Fixtures for stab expectations (used by the verify grid file).

_FIXTURE_KEYS = ("name", "family", "sets", "budget", "expect", "mode")
_FIXTURE_EXPECTS = ("witness", "infeasible", "no_stab", "not_found")
_SUITE_KEYS = ("kind", "m_max", "n_max")
_GRID_KEYS = ("suites", "fixtures")


def _checked_fixture(fixture) -> tuple[PlaneFamily, list[list[Vec]]]:
    """The family and sets of the fixture, once it is a JSON object with no
    unknown key, a string ``name`` if any, an ``expect`` that some decider
    answers, a valid ``budget`` and a ``family`` and ``sets`` that parse."""
    _known_keys(fixture, _FIXTURE_KEYS, "fixture")
    if "name" in fixture:
        _typed(fixture["name"], str, "fixture name")
    expect = fixture.get("expect")
    if expect is not None and expect not in _FIXTURE_EXPECTS:
        raise ValueError(f"fixture expect must be one of "
                         f"{', '.join(_FIXTURE_EXPECTS)}, got {expect!r}")
    _json_count(fixture, "budget", 500, least=0)
    family = family_from_json_dict(fixture["family"])
    return family, sets_from_json(fixture["sets"], family.m)


def run_stab_fixture(fixture: dict, base_pool: GenericPool) -> dict:
    """Run one stab fixture and compare with its expectation.

    Keys: family (JSON dict), sets (list of point lists of rational text),
    optional name (a JSON string), expect (witness | infeasible | no_stab |
    not_found) and budget (a JSON integer >= 0, default 500, read when the
    search runs); any other key but ``mode`` is an input error.  The
    result's ``mode`` names the decider that
    :func:`~plstab.transversal.stab_regime` picked, and a fixture's own
    ``mode`` must name it too.  A witness or isolating interval that fails
    its exact re-check reads invalid_witness.
    """
    family, sets = _checked_fixture(fixture)
    got = decide_stab(sets, family, fixture.get("budget", 500), base_pool)
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
    for fixture in fixtures:
        _checked_fixture(fixture)
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
    for fixture in fixtures:
        result = run_stab_fixture(fixture, base_pool)
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

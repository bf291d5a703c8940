import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import coords_pairwise_distinct
from plstab import batch, transversal
from plstab.batch import (_cell_family, _regime_tuples, draw_point_sets,
                          linear_cells, random_complex, run_grid,
                          run_linear_cell, run_stab_fixture,
                          sample_plane_adversarial, sample_plane_random,
                          univariate_cells)
from plstab.generic import (GenericityError, GenericPool, _derived_seed,
                            regeneration_pools)
from plstab.ratmath import vec
from plstab.simplicial import PLMap, SimplicialComplex, roberts_perturb
from plstab.transversal import (NonStabCase, PlaneFamily, _flat, decide_stab,
                                nonstab_case, stab_decide_univariate,
                                stab_exists_linear, stab_regime,
                                stab_search_general, stabbed_simplexes)

F = Fraction


def test_linear_cells_all_in_regime():
    cells = linear_cells(4, 1)
    assert cells
    for c in cells:
        assert nonstab_case(c.n_list, c.m, c.d, c.t, c.T) is NonStabCase.CASE_II
        assert len(c.n_list) <= c.d - c.t + 1


def test_univariate_cells_probe_applicability():
    cells = univariate_cells(3, 2)
    assert cells
    for c in cells:
        assert len(c.n_list) == c.d - c.t + 2
        assert sum(c.n_list) == 1 + (len(c.n_list) - 1) * (c.m - c.T)


def test_draw_point_sets_certified_and_deterministic():
    pool_a = GenericPool(8)
    pool_b = GenericPool(8)
    sets_a, cert_a = draw_point_sets(pool_a, (1, 0, 2), 3)
    sets_b, _ = draw_point_sets(pool_b, (1, 0, 2), 3)
    assert sets_a == sets_b
    assert cert_a.ok
    assert [len(ps) for ps in sets_a] == [2, 1, 3]


def test_verify_draws_are_pinned():
    # The values verify draws for trials 0 and 1 of seeds 1 and 7, on every
    # regeneration pool: a verify report shows only violations, so it stays
    # the same when these values change.
    digest = hashlib.sha256()
    for seed in (1, 7):
        for trial in range(2):
            for n_list, m in (((1, 0, 2), 3), ((2, 2), 5), ((0, 1, 2, 1), 4)):
                for pool in regeneration_pools(GenericPool(seed).derive(trial)):
                    sets, _ = draw_point_sets(pool, n_list, m)
                    digest.update(json.dumps([[[str(x) for x in p] for p in pts]
                                              for pts in sets]).encode())
    assert digest.hexdigest() == (
        "e959a2ab1a046328ffc158de0c4e7465142732bd6d9de5cbbc47fd54770ddc9f")


class _RepeatingPool(GenericPool):
    """Draws target + (stream mod period) / 16, so values repeat across streams."""

    def __init__(self, seed, period):
        super().__init__(seed)
        self.period = period

    def draw_near(self, target, eps, stream):
        return F(target) + F(stream % self.period, 16)


@given(st.lists(st.integers(0, 2), min_size=1, max_size=3),
       st.integers(1, 3), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_draw_point_sets_certificate_matches_oracle(n_list, m, period):
    sets, cert = draw_point_sets(_RepeatingPool(0, period), n_list, m)
    coords = [x for pts in sets for p in pts for x in p]
    assert len(cert.conditions) == len(coords) - 1
    assert cert.ok == coords_pairwise_distinct(coords)


def test_run_linear_cell_clean():
    cell = linear_cells(4, 1)[0]
    assert run_linear_cell(cell, 5, GenericPool(3)) == []


def test_run_stab_fixture_modes():
    fixture = {
        "name": "aligned",
        "family": {"m": 3, "St": [], "ST": [1], "d": 1},
        "sets": [[["0", "0", "0"]], [["5", "0", "0"]]],
        "expect": "witness",
    }
    got = run_stab_fixture(fixture, GenericPool(0))
    assert got["ok"] and (got["mode"], got["status"]) == ("linear", "witness")
    fixture["sets"] = [[["0", "0", "0"]], [["5", "0", "1"]]]
    got = run_stab_fixture(fixture, GenericPool(0))
    assert not got["ok"] and got["status"] == "infeasible"
    # a mode key is read as a check on the decider the input selects
    assert run_stab_fixture(dict(fixture, mode="linear"), GenericPool(0)) == got
    with pytest.raises(ValueError, match="decided by 'linear'"):
        run_stab_fixture(dict(fixture, mode="search"), GenericPool(0))


def test_univariate_fixture_interval_answer_is_rechecked(monkeypatch):
    fixture = {
        "family": {"m": 3, "St": [], "ST": [1, 2], "d": 1},
        "sets": [[["0", "0", "0"], ["1", "0", "1"]],
                 [["0", "1", "0"], ["0", "0", "1"]],
                 [["1", "1", "0"], ["0", "-2", "1"]]],
        "expect": "witness",
    }
    got = run_stab_fixture(fixture, GenericPool(0))
    assert got["ok"] and got["status"] == "witness"
    assert got["mode"] == "univariate"
    monkeypatch.setattr(transversal, "verify_interval_certificate",
                        lambda reduced, interval: False)
    got = run_stab_fixture(fixture, GenericPool(0))
    assert not got["ok"] and got["status"] == "invalid_witness"


def test_run_grid_reports_fixture_violations():
    grid = {"fixtures": [{
        "name": "bad-expectation",
        "family": {"m": 3, "St": [], "ST": [1], "d": 1},
        "sets": [[["0", "0", "0"]], [["5", "0", "0"]]],
        "expect": "infeasible",
    }]}
    report = run_grid(grid, 1, GenericPool(0))
    assert len(report["violations"]) == 1


@pytest.mark.parametrize("change", [{"budgte": 3}, {"expect": "witnes"},
                                    {"budget": -1}])
def test_run_grid_checks_every_fixture_before_any_cell(monkeypatch, change):
    def no_cells(m_max, n_max):
        raise AssertionError("cells enumerated before the fixtures' check")

    monkeypatch.setattr(batch, "linear_cells", no_cells)
    fixture = {"family": {"m": 3, "St": [], "ST": [1], "d": 1},
               "sets": [[["0", "0", "0"]], [["5", "0", "0"]]], **change}
    with pytest.raises(ValueError):
        run_grid({"suites": [{"kind": "linear"}], "fixtures": [fixture]}, 1,
                 GenericPool(0))


def _first_certified_draw(key: str, n_list, m: int):
    for pool in regeneration_pools(GenericPool(_derived_seed("regime", key))):
        sets, cert = draw_point_sets(pool, n_list, m)
        if cert.ok:
            return sets
    raise GenericityError(f"no certified draw for {key}")


def test_decide_stab_picks_the_decider_from_the_input():
    # Every linear and univariate sweep cell at m <= 4, n <= 2 on one
    # certified draw, q = d-t+3 segments for every (m, d, t, T) with
    # m <= 3, and two points that differ outside span(s_T): linear answers
    # an empty or point constraint flat and q <= d-t+1, univariate answers
    # q = d-t+2
    # on a flat that is a line, the search answers everything else, and
    # the report's status is that decider's.
    cases = [(c.key(), c.n_list, _cell_family(c))
             for c in linear_cells(4, 2) + univariate_cells(4, 2)]
    cases += [(f"q=d-t+3:{m}:{d}:{t}:{T}", (1,) * (d - t + 3),
               PlaneFamily(m, tuple(range(1, t + 1)), tuple(range(1, T + 1)),
                           d))
              for m, d, t, T in _regime_tuples(3)]
    cases = [(key, _first_certified_draw(key, n_list, family.m), family)
             for key, n_list, family in cases]
    cases.append(("empty-flat", [[vec([0, 0, 0])], [vec([1, 0, 1])]],
                  PlaneFamily(3, (), (1,), 0)))
    seen = set()
    for key, sets, family in cases:
        pool = GenericPool(_derived_seed("search", key))
        q, free = len(sets), family.d - family.t
        flat = _flat(sets, family)
        got = decide_stab(sets, family, 20, pool)
        if flat is None or not flat[1] or q <= free + 1:
            mode, want = "linear", stab_exists_linear(sets, family, flat)
        elif q == free + 2 and len(flat[1]) == 1:
            mode, want = "univariate", stab_decide_univariate(sets, family,
                                                              flat)
        else:
            mode, want = "search", stab_search_general(sets, family, flat, 20,
                                                       pool)
        assert (got["mode"], got["status"]) == (mode, want.status), key
        assert stab_regime(sets, family) == (mode, flat)
        seen.add(mode)
    assert seen == {"linear", "univariate", "search"}
    # the last case has q = 2 = d-t+2, and no family member meets both
    # points: an exact, certified infeasible, where the search once
    # answered not_found
    assert (got["mode"], got["status"], got["certified"], q) == (
        "linear", "infeasible", True, free + 2)


def test_plane_samplers_return_family_members():
    rng = random.Random(2)
    k = random_complex(rng, 6, 2, F(1, 3))
    theta = PLMap(4, {v: vec([rng.randint(0, 6) for _ in range(4)])
                      for v in k.vertices})
    g = roberts_perturb(k, theta, F(1, 2), GenericPool(5))
    fam = PlaneFamily(4, (1,), (1, 2, 3), 2)
    for _ in range(5):
        p1 = sample_plane_random(rng, fam, g)
        assert p1.family == fam
        p2 = sample_plane_adversarial(rng, fam, k, g)
        assert p2.family == fam
        # adversarial planes pass through a convex combination of one
        # simplex's vertex images, so they stab at least that simplex
        assert stabbed_simplexes(k, g, p2, k.dim)


def test_random_complex_covers_all_vertices():
    rng = random.Random(0)
    k = random_complex(rng, 8, 2, F(1, 5))
    assert len(k.vertices) == 8
    for v in k.vertices:
        assert (v,) in k.simplexes


def _complex_by_fraction_draws(rng, vertices, dim, density):
    """random_complex's candidates kept by comparing one Fraction per draw."""
    names = [f"v{i}" for i in range(1, vertices + 1)]
    kept = [combo for size in range(2, dim + 2)
            for combo in itertools.combinations(names, size)
            if Fraction(rng.randrange(10 ** 6), 10 ** 6) < density]
    return SimplicialComplex.from_simplexes(names, kept)


class _Draws:
    """A stand-in rng whose randrange replays the given draws."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def randrange(self, n):
        return next(self.draws)


_DENSITIES = [F(0), F(1, 10 ** 6), F(7, 100), F(1, 2), F(1)]


@pytest.mark.parametrize("density", _DENSITIES, ids=str)
def test_random_complex_density_test_matches_fraction_comparison(density):
    # the same draws and the same complexes as the Fraction comparison
    for seed in range(6):
        rng, ref = random.Random(seed), random.Random(seed)
        assert (random_complex(rng, 7, 2, density)
                == _complex_by_fraction_draws(ref, 7, 2, density))
        assert rng.getstate() == ref.getstate()
    # and the same decision at the draws around the threshold: 4 vertices
    # and dim 1 give exactly 6 candidates, one per draw
    edge = density.numerator * 10 ** 6 // density.denominator
    draws = [max(0, min(10 ** 6 - 1, edge + d)) for d in (-2, -1, 0, 1, 2, 3)]
    assert (random_complex(_Draws(draws), 4, 1, density)
            == _complex_by_fraction_draws(_Draws(draws), 4, 1, density))

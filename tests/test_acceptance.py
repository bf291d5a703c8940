"""Acceptance suite.

End-to-end verification at fixed corpus scales, exact comparisons only:
every assertion is a rational equality or inequality, no tolerances
anywhere.  Each test prints a single pass line so a verbose run reads as a
checklist.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from oracles import (clusterable_by_partition_scan,
                     feasible_by_basic_solutions, max_independent_bitmask,
                     membership_rows, rank_by_minors)
from plstab.batch import (linear_cells, random_complex, random_map,
                          run_linear_cell, run_univariate_cell,
                          sample_plane_adversarial, sample_plane_random,
                          univariate_cells)
from plstab.cli import main
from plstab.generic import GenericPool
from plstab.ratmath import dist_sq, mat_rank, vec
from plstab.sections import (PlanarSection, component_clusters,
                             compute_components, eps_disjoint,
                             polytopes_intersect, preimage_polytopes,
                             section_of_image)
from plstab.simplicial import (PLMap, certify_map, image_point,
                               parse_complex, roberts_perturb)
from plstab.transversal import (ConcretePlane, PlaneFamily, PointSets,
                                max_disjoint_stabbed, stab_bound,
                                stab_regime, stab_search_general,
                                verify_stab_witness)

F = Fraction


def _passed(name: str):
    print(f"[acceptance] {name}: PASS")


# -- 1: exact bound table for line families ----------------------------------

def test_bound_table_for_line_families():
    for n in (1, 2, 3):
        for r in range(1, n + 3):
            got = stab_bound(n, n + 2, 1, 0, r)
            assert got.floor == n + r, (n, r, got)
    _passed("line-family bound table is exactly n + r")


# -- 2: exact nonstab, linear regime ------------------------------------------

def test_linear_regime_exact_nonstab():
    cells = linear_cells(m_max=5, n_max=2)
    assert len(cells) >= 50
    pool = GenericPool(20260811)
    violations = []
    for cell in cells:
        violations.extend(run_linear_cell(cell, trials=50, base_pool=pool))
    assert violations == []
    _passed(f"linear-regime nonstab: {len(cells)} tuples x 50 certified trials, "
            f"0 witnesses")


# -- 3: exact nonstab, univariate regime, plus the transversal fixture ---------

def test_univariate_regime_exact():
    cells = univariate_cells(m_max=5, n_max=2)
    assert len(cells) >= 40
    pool = GenericPool(408)
    violations = []
    for cell in cells:
        violations.extend(run_univariate_cell(cell, trials=25, base_pool=pool))
    assert violations == []

    # handcrafted common transversal: three skew segments met by the z-axis
    fam = PlaneFamily(3, (), (1, 2, 3), 1)
    sets = PointSets.of([
        [vec([0, 0, 0]), vec([1, 0, 0])],
        [vec([0, 0, 1]), vec([0, 1, 1])],
        [vec([0, 0, 2]), vec([1, 1, 2])],
    ])
    mode, flat = stab_regime(sets, fam)
    assert mode == "search"
    got = stab_search_general(sets, fam, flat, budget=500, seed=0)
    assert got.status == "witness"
    ok, checks = verify_stab_witness(got.witness, sets, fam)
    assert ok and checks >= 9
    _passed(f"univariate-regime nonstab: {len(cells)} tuples x 25 certified "
            f"trials, 0 stabs; transversal fixture verified exactly")


# -- 4: bound compliance on random and adversarial planes ----------------------

def _perturbed_corpus(base_seed, count, m, dims, vertex_range):
    rng = random.Random(base_seed)
    out = []
    for i in range(count):
        while True:
            k = random_complex(rng, rng.randint(*vertex_range), dims,
                               F(rng.randint(12, 30), 100))
            if k.dim >= min(1, dims):
                break
        theta = random_map(rng, k, m, box=8)
        g = roberts_perturb(k, theta, F(1, 2), GenericPool(base_seed + i))
        out.append((k, g))
    return out


def _admissible_families(m, n):
    out = []
    for d in range(0, m - n):
        for t in range(0, d + 1):
            for T in range(d, m + 1):
                out.append((d, t, T))
    return out


@pytest.mark.slow
def test_bound_compliance_random_and_adversarial_planes():
    n = 2
    planes_per_complex = 100  # 10 complexes per m: 1000 planes per family
    total = 0
    for m, corpus_seed in ((4, 41000), (5, 51000)):
        corpus = _perturbed_corpus(corpus_seed, 10, m, 2, (6, 9))
        families = _admissible_families(m, n)
        for ci, (k, g) in enumerate(corpus):
            for (d, t, T) in families:
                bound = stab_bound(n, m, d, t, T).floor
                rng = random.Random(corpus_seed + 7919 * ci
                                    + 101 * d + 11 * t + T)
                for p in range(planes_per_complex):
                    s_T = tuple(sorted(rng.sample(range(1, m + 1), T)))
                    s_t = tuple(sorted(rng.sample(s_T, t)))
                    fam = PlaneFamily(m, s_t, s_T, d)
                    if p % 10 < 3:
                        plane = sample_plane_adversarial(rng, fam, k, g)
                    else:
                        plane = sample_plane_random(rng, fam, g)
                    count, _ = max_disjoint_stabbed(k, g, plane, n)
                    assert count <= bound, (m, d, t, T, ci, p, count, bound)
                    total += 1
    _passed(f"bound compliance: {total} plane counts within the exact ceiling")


# -- 5: embedding regime (d = 0, m = 2n + 1) -----------------------------------

def _on_image_point(rng, k, g):
    simplexes = k.sorted_simplexes()
    s = simplexes[rng.randrange(len(simplexes))]
    weights = [F(rng.randint(0, 4)) for _ in s]
    if sum(weights) == 0:
        weights[0] = F(1)
    total = sum(weights)
    return image_point(g, s, [w / total for w in weights])


@pytest.mark.slow
def test_embedding_regime_injectivity():
    cases = [(1, 3, 15000), (2, 5, 25000)]
    complexes_checked = 0
    for n, m, seed in cases:
        corpus = _perturbed_corpus(seed, 10, m, n, (5, 7))
        assert stab_bound(n, m, 0, 0, m).floor == 1
        point_family = PlaneFamily(m, (), tuple(range(1, m + 1)), 0)
        for ci, (k, g) in enumerate(corpus):
            simplexes = k.sorted_simplexes()
            for s1, s2 in itertools.combinations(simplexes, 2):
                if set(s1) & set(s2):
                    continue
                img1, img2 = PlanarSection.of(
                    [[g.images[v] for v in s] for s in (s1, s2)],
                    [s1, s2]).pieces
                assert not polytopes_intersect(img1, img2), (n, m, ci, s1, s2)
            rng = random.Random(seed + 31 * ci)
            for _ in range(25):
                point = _on_image_point(rng, k, g)
                plane = ConcretePlane(point_family, point, ())
                part = compute_components(preimage_polytopes(k, g, plane))
                assert len(part.components) == 1
            complexes_checked += 1
    _passed(f"embedding regime: {complexes_checked} perturbed complexes "
            f"injective with singleton point preimages")


# -- 6: oracle equivalences -----------------------------------------------------

def _rank_oracle_pass(rng):
    for _ in range(500):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)]
                for _ in range(nr)]
        assert mat_rank(rows) == rank_by_minors(rows)


def _counting_oracle_pass(rng):
    fam = PlaneFamily(2, (2,), (2,), 1)
    done = 0
    attempt = 0
    while done < 100:
        attempt += 1
        k = random_complex(rng, rng.randint(5, 8), 2,
                           F(rng.randint(20, 45), 100))
        theta = random_map(rng, k, 2, box=6)
        g = roberts_perturb(k, theta, F(1, 3), GenericPool(60000 + attempt))
        plane = ConcretePlane(fam, vec([F(rng.randint(2, 10), 2), 0]), ())
        # every stabbed simplex, by the oracle: packing them gives the count
        hits = [s for s in k.sorted_simplexes() if feasible_by_basic_solutions(
            *membership_rows(s, g.images, plane.covectors()))]
        if not 1 <= len(hits) <= 15:
            continue
        masks = []
        for i, s in enumerate(hits):
            mask = 0
            for j, u in enumerate(hits):
                if i != j and set(s) & set(u):
                    mask |= 1 << j
            masks.append(mask)
        want = max_independent_bitmask(masks)
        got, family = max_disjoint_stabbed(k, g, plane, 2)
        assert got == want
        assert len(family) == got
        done += 1


def _named(pieces):
    """A section whose pieces come from pairwise disjoint 0-simplexes, so no
    face incidence joins them."""
    pieces = tuple(pieces)
    return PlanarSection.of(pieces, [(f"p{i}",) for i in range(len(pieces))])


def _cluster_oracle_pass(rng):
    for _ in range(200):
        npolys = rng.randint(1, 7)
        dim = rng.choice([2, 3])
        polys = []
        for _ in range(npolys):
            base = [F(rng.randint(0, 10), 2) for _ in range(dim)]
            if rng.random() < 0.5:
                polys.append((vec(base),))
            else:
                off = [F(rng.randint(-2, 2), 4) for _ in range(dim)]
                polys.append((vec(base),
                              vec([b + o for b, o in zip(base, off)])))
        part = compute_components(_named(polys))
        if len(part.components) > 8:
            continue
        q = rng.randint(1, 3)
        eps = F(rng.randint(1, 10), 3)
        points = [[v for i in comp for v in polys[i]]
                  for comp in part.components]

        def pair_diam_sq(i, j, _pts=points, _part=part):
            if i == j:
                return _part.diameters_sq[i]
            return max(dist_sq(a, b) for a in _pts[i] for b in _pts[j])

        want = clusterable_by_partition_scan(
            list(range(len(part.components))), q, eps * eps, pair_diam_sq)
        assert (component_clusters(part, q, eps) is not None) == want


def _sampling_grid_oracle(pieces, eps):
    """Union-find over a rational grid of samples at resolution eps/100."""
    step_cap = eps / 100
    samples = []  # (piece index, point)
    for pi, piece in enumerate(pieces):
        if len(piece) == 1:
            samples.append((pi, piece[0]))
            continue
        a, b = piece
        l1 = sum(abs(x - y) for x, y in zip(a, b))
        nsteps = max(1, (l1 / step_cap).__ceil__())
        for t in range(nsteps + 1):
            w = F(t, nsteps)
            samples.append((pi, tuple(x + w * (y - x)
                                      for x, y in zip(a, b))))
    parent = list(range(len(samples)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    link_sq = step_cap * step_cap
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            if find(i) != find(j):
                if dist_sq(samples[i][1], samples[j][1]) <= link_sq:
                    parent[find(i)] = find(j)
    groups = {}
    for i in range(len(samples)):
        groups.setdefault(find(i), []).append(i)
    eps_sq = eps * eps
    for members in groups.values():
        for i, j in itertools.combinations(members, 2):
            if dist_sq(samples[i][1], samples[j][1]) >= eps_sq:
                return False
    return True


def _eps_disjoint_oracle_pass(rng):
    eps = F(1)
    window_lo = eps * eps * F(99, 100) ** 2
    window_hi = eps * eps * F(101, 100) ** 2
    done = 0
    while done < 200:
        dim = rng.choice([2, 3])
        pieces = []
        # each chain lives in its own cell: chains of <= 3 pieces reach less
        # than 3/4 from their anchor, so distinct chains stay >= 2 apart
        nchains = rng.randint(1, 3)
        for chain in range(nchains):
            anchor = [F(3 * chain) + F(rng.randint(0, 2), 4)]
            anchor += [F(rng.randint(0, 2), 4) for _ in range(dim - 1)]
            cursor = vec(anchor)
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.3:
                    pieces.append((cursor,))
                    break
                delta = [F(rng.randint(-2, 2), 16) for _ in range(dim)]
                nxt = vec([c + d for c, d in zip(cursor, delta)])
                if nxt == cursor:
                    pieces.append((cursor,))
                    break
                pieces.append((cursor, nxt))  # chains share endpoints exactly
                cursor = nxt
        part = compute_components(_named(pieces))
        if any(window_lo < d < window_hi for d in part.diameters_sq):
            continue  # stay outside the resolution window of the oracle
        want = _sampling_grid_oracle(pieces, eps)
        assert eps_disjoint(part, eps) == want
        done += 1


@pytest.mark.slow
def test_oracle_equivalences():
    _rank_oracle_pass(random.Random(600))
    _counting_oracle_pass(random.Random(601))
    _cluster_oracle_pass(random.Random(602))
    _eps_disjoint_oracle_pass(random.Random(603))
    _passed("oracle equivalences: rank minors 500/500, disjoint counts "
            "100/100, clusterings 200/200, grid disjointness 200/200")


# -- 7: sections of codimension-n planes stay below the mesh budget -------------

@pytest.mark.slow
def test_section_scale_bound():
    cases = [(1, 3, 71000, 3), (2, 4, 72000, 4)]
    planes_each = 30
    checked = 0
    for n, m, seed, ncomplexes in cases:
        corpus = _perturbed_corpus(seed, ncomplexes, m, n, (6, 8))
        r = n * (m + 1 - n)
        d = m - n
        family = PlaneFamily(m, (), tuple(range(1, m + 1)), d)
        for ci, (k, g) in enumerate(corpus):
            mesh_sq = max(
                (dist_sq(g.images[a], g.images[b])
                 for s in k.simplexes if len(s) > 1
                 for a, b in itertools.combinations(s, 2)),
                default=F(0))
            budget_sq = 324 * (r + 1) ** 2 * mesh_sq  # (2 * 9 eta (r+1))^2
            rng = random.Random(seed + 17 * ci)
            for _ in range(planes_each):
                plane = sample_plane_random(rng, family, g)
                section = section_of_image(k, g, plane)
                part = compute_components(section)
                for diam_sq in part.diameters_sq:
                    assert diam_sq < budget_sq
                checked += 1
    assert checked >= 200
    _passed(f"section scale: {checked} codimension-n sections within twice "
            f"the mesh budget")


# -- 8: determinism and the exit-code contract ----------------------------------

def test_determinism_and_exit_codes(capsys, tmp_path):
    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    grid_ok = tmp_path / "ok.json"
    grid_ok.write_text(json.dumps(
        {"suites": [{"kind": "linear", "m_max": 3, "n_max": 1}]}))
    grid_bad = tmp_path / "bad.json"
    grid_bad.write_text(json.dumps({"fixtures": [{
        "name": "expected-miss",
        "family": {"m": 3, "St": [], "ST": [1], "d": 1},
        "sets": [[["0", "0", "0"]], [["5", "0", "0"]]],
        "expect": "infeasible"}]}))
    cx = tmp_path / "k.cx"
    cx.write_text("v a\nv b\nv c\nv d\ns a b c d\n")
    theta = tmp_path / "theta.map"
    theta.write_text("m 2\np a 0 0\np b 0 0\np c 0 0\np d 0 0\n")
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"m": 3, "St": [], "ST": [1, 2, 3], "d": 1}))
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({"sets": [
        [["0", "0", "0"], ["1", "0", "0"]],
        [["0", "0", "1"], ["0", "1", "1"]],
        [["0", "0", "2"], ["1", "1", "2"]]]}))

    goldens = [
        ["bounds", "--n", "2", "--m", "4", "--d", "1", "--t", "0", "--T", "3"],
        ["stab", "--family", str(fam), "--sets", str(sets),
         "--budget", "400", "--seed", "9"],
        ["verify", "--grid", str(grid_ok), "--trials", "2", "--seed", "4"],
    ]
    for argv in goldens:
        code_a, out_a = run(argv)
        code_b, out_b = run(argv)
        assert code_a == code_b
        assert out_a == out_b, f"report for {argv[0]} not byte-identical"

    code, out = run(goldens[0])
    assert code == 0
    assert json.loads(out)["result"]["value"] == "5"
    code, _ = run(["verify", "--grid", str(grid_bad), "--trials", "1",
                   "--seed", "0"])
    assert code == 1
    code, _ = run(["bounds", "--n", "x", "--m", "4", "--d", "1",
                   "--t", "0", "--T", "3"])
    assert code == 2
    code, _ = run(["perturb", "--complex", str(cx), "--map", str(theta),
                   "--eps", "1", "--seed", "0",
                   "--out", str(tmp_path / "g.map")])
    assert code == 3
    _passed("determinism and exit codes 0/1/2/3 verified on golden commands")


# -- 9: a certified map outside Theorem 1's bound --------------------------------

def test_a_certified_triangle_cuts_a_piece_above_theorem_1s_bound():
    # Theorem 1 bounds dim(g(X) ∩ Π^d) by n + d - m.  The map certificate
    # (distinct coordinates, independent simplex images) passes this
    # triangle in R^3, but its plane contains the x1 direction, so the
    # coordinate line through its centroid in the family m = 3,
    # St = ST = [1], d = 1 cuts a segment: a piece of dimension 1 against
    # the bound 2 + 1 - 3 = 0.
    k = parse_complex("v a\nv b\nv c\ns a b c\n")
    g = certify_map(k, PLMap(3, {"a": vec([0, 1, 2]), "b": vec([5, 3, 7]),
                                 "c": vec([11, 9, 22])}))
    assert g.certified
    family = PlaneFamily(3, (1,), (1,), 1)
    centroid = vec([F(16, 3), F(13, 3), F(31, 3)])
    section = section_of_image(k, g, ConcretePlane(family, centroid, ()))
    pieces = dict(zip(section.sources, section.fractions()))
    assert len(pieces) == 3
    segment = pieces["a", "b", "c"]
    assert segment == (vec([F(55, 12), F(13, 3), F(31, 3)]),
                       vec([F(19, 3), F(13, 3), F(31, 3)]))
    n, d, m = k.dim, family.d, family.m
    piece_dim = mat_rank([[x - y for x, y in zip(p, segment[0])]
                          for p in segment[1:]])
    assert piece_dim == 1 > n + d - m == 0
    _passed("a certified triangle cuts a segment where Theorem 1 allows a "
            "point")

"""Seeded request streams for the benchmark's three workloads.

Inputs come from the library's public samplers (``batch.random_complex``,
``batch.random_map``, ``batch.sample_plane_*``) and are written to files in
the current directory; the program sees only those files and argv.  The
seed drives every generic draw (map perturbations, sweep trial pools); the
combinatorial corpus is fixed per workload.  A request is either one
in-process ``plstab.cli.main(argv)`` call with stdout captured, or (for
``sweep``) one public ``batch`` call per verify-grid cell or fixture.

* ``count``: sessions shaped like the acceptance bound-compliance corpus
  (n = 2, m in {4, 5}, 2-complexes on 6-9 vertices, every admissible
  (d, t, T), 30% adversarial planes).  Each session issues one ``perturb``
  and then ``count --nmax 2`` requests against the perturbed map.
* ``sweep``: the cells ``verify`` runs for {linear, univariate} x
  m_max = 5, n_max = 2 at a fixed trial count, plus a search fixture that
  finds a witness and one that exhausts its budget.
* ``cotype``: alternating ``section`` and ``cotype`` requests (q = 2, one
  eps) on perturbed 2-complexes on 8-10 vertices in m in {3, 4}, planes
  from d = 2 and d = 1 families, two thirds adversarial.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import checks

# Sizes fixed per workload; one pass over a stream takes 4-8 s on one core of
# a 2-vCPU x86 VM, so a 30 s run repeats every request 3-7 times.
COUNT_SESSIONS = 24
COUNT_PLANES = 14           # count requests per session
COUNT_N = 2                 # n of the counting bound, and --nmax
SWEEP_TRIALS = 2            # trials per verify-grid cell
COTYPE_SESSIONS = 24
COTYPE_PLANES = 6           # planes per session, each asked section + cotype
COTYPE_Q = 2
COTYPE_EPS = Fraction(1)
COTYPE_DENSITY = Fraction(7, 100)
COTYPE_MAX_MAXIMAL = 12     # the clustering limit documented in sections
PERTURB_EPS = Fraction(1, 2)

MODULES = ("ratmath", "generic", "simplicial", "transversal", "sections",
           "batch", "cli")


@dataclass
class Op:
    """One request: ``call`` runs it, ``check`` judges its reply."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    loads_map: bool = False     # the request loads and recertifies a map


@dataclass
class Stream:
    ops: list[Op]
    inputs: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def write(self, path: str, text: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        self.note(path, text)
        return path

    def note(self, *parts) -> None:
        """Fold one generated input into the input fingerprint."""
        self.inputs.update(json.dumps(parts).encode() + b"\n")


def import_plstab():
    """Import the library afresh (set-up time includes its imports)."""
    for name in [n for n in sys.modules if n == "plstab" or n.startswith("plstab.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"plstab.{name}") for name in MODULES}


def reply_bytes(reply) -> bytes:
    """Canonical bytes of a reply, for the determinism digest."""
    if isinstance(reply, tuple):  # (exit code, stdout) of a CLI call
        return f"{reply[0]}\n{reply[1]}".encode()
    return json.dumps(reply, sort_keys=True).encode()


def _cli_call(cli, argv: list[str]):
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()
    return call


def _plane_file(stream, lib, path, plane):
    text = json.dumps(lib["transversal"].plane_to_json_dict(plane), sort_keys=True)
    return stream.write(path, text)


def _random_family(rng, lib, m, d, t, T):
    s_T = tuple(sorted(rng.sample(range(1, m + 1), T)))
    s_t = tuple(sorted(rng.sample(s_T, t)))
    return lib["transversal"].PlaneFamily(m, s_t, s_T, d)


def _plane(rng, lib, family, k, g, adversarial: bool):
    batch = lib["batch"]
    if adversarial:
        return batch.sample_plane_adversarial(rng, family, k, g)
    return batch.sample_plane_random(rng, family, g)


def _perturbed_session(stream, lib, rng, tag, m, complex_fn, seed):
    """Complex, seed map and its certified perturbation, written to files."""
    batch, simplicial = lib["batch"], lib["simplicial"]
    k = complex_fn()
    theta = batch.random_map(rng, k, m, box=8)
    g = simplicial.roberts_perturb(k, theta, PERTURB_EPS,
                                   lib["generic"].GenericPool(seed))
    cx = stream.write(f"{tag}.cx", simplicial.format_complex(k))
    theta_path = stream.write(f"{tag}.theta.map", simplicial.format_map(theta))
    return k, g, cx, theta_path


def build_count(lib, seed: int) -> Stream:
    batch, cli, transversal = lib["batch"], lib["cli"], lib["transversal"]
    rng = random.Random("count corpus")  # fixed corpus, see build_cotype
    pool_seeds = random.Random(f"count:{seed}")
    stream = Stream([])
    planes = 0
    for s in range(COUNT_SESSIONS):
        # m, vertex count and density are spread evenly over the sessions
        m = 4 + s % 2
        vertices = 6 + (s // 2) % 4
        density = Fraction(12 + (7 * s) % 19, 100)
        tag = f"count{s:02d}"

        def complex_fn():
            while True:
                k = batch.random_complex(rng, vertices, 2, density)
                if k.dim >= 1:
                    return k

        pseed = pool_seeds.randrange(2 ** 31)
        k, g, cx, theta = _perturbed_session(stream, lib, rng, tag, m,
                                             complex_fn, pseed)
        g_path = f"{tag}.g.map"
        expected = lib["simplicial"].format_map(g)
        argv = ["perturb", "--complex", cx, "--map", theta, "--eps",
                str(PERTURB_EPS), "--seed", str(pseed), "--out", g_path]
        stream.note(argv)
        stream.ops.append(Op(
            f"{tag} perturb", _cli_call(cli, argv),
            lambda r, p=g_path, e=expected: checks.check_perturb(r, p, e)))
        simplexes = frozenset(k.simplexes)
        families = [(d, t, T) for d in range(0, m - COUNT_N)
                    for t in range(d + 1) for T in range(d, m + 1)]
        for j in range(COUNT_PLANES):
            # every admissible family in turn across the sessions of this m
            d, t, T = families[((s // 2) * COUNT_PLANES + j) % len(families)]
            family = _random_family(rng, lib, m, d, t, T)
            plane = _plane(rng, lib, family, k, g, adversarial=planes % 10 < 3)
            planes += 1
            plane_path = _plane_file(stream, lib, f"{tag}.p{j:02d}.json", plane)
            ceiling = transversal.stab_bound(COUNT_N, m, d, t, T).floor
            argv = ["count", "--complex", cx, "--map", g_path,
                    "--plane", plane_path, "--nmax", str(COUNT_N)]
            stream.note(argv)
            stream.ops.append(Op(
                f"{tag} count p{j:02d}", _cli_call(cli, argv),
                lambda r, c=ceiling, ks=simplexes:
                    checks.check_count(r, c, COUNT_N, ks),
                loads_map=True))
    return stream


def _fixtures(rng) -> list[dict]:
    """A search fixture with a witness and one that exhausts its budget.

    The first has three segments whose first endpoints lie on one line, so
    a transversal exists; the second has three short segments near three
    far-apart non-collinear points, so none exists and the search runs out.
    """
    lines = {"m": 3, "St": [], "ST": [1, 2, 3], "d": 1}
    base = [rng.randint(-4, 4) for _ in range(3)]
    step = [rng.randint(-3, 3) for _ in range(3)]
    if not any(step):
        step[0] = 1
    hit_sets = []
    for i in range(3):
        a = [b + i * s for b, s in zip(base, step)]
        e = [rng.randint(-3, 3) for _ in range(3)]
        if not any(e):
            e[0] = 1
        hit_sets.append([[str(x) for x in a], [str(x + y) for x, y in zip(a, e)]])
    miss_sets = []
    for corner in ([0, 0, 0], [20, 0, 0], [0, 20, 0]):
        a = [c + rng.randint(-2, 2) for c in corner]
        e = [rng.randint(-1, 1) for _ in range(3)]
        if not any(e):
            e[2] = 1
        miss_sets.append([[str(x) for x in a], [str(x + y) for x, y in zip(a, e)]])
    return [
        {"name": "transversal-exists", "mode": "search", "family": lines,
         "sets": hit_sets, "budget": 500, "expect": "witness"},
        {"name": "budget-exhausted", "mode": "search", "family": lines,
         "sets": miss_sets, "budget": 300, "expect": "not_found"},
    ]


def build_sweep(lib, seed: int) -> Stream:
    batch, generic = lib["batch"], lib["generic"]
    rng = random.Random(f"sweep:{seed}")
    pool = generic.GenericPool(rng.randrange(2 ** 63))
    stream = Stream([])
    stream.note("pool", pool.seed, "trials", SWEEP_TRIALS)
    for suite in ("linear", "univariate"):
        runner = f"run_{suite}_cell"  # looked up per call, so tracing sees it
        for cell in getattr(batch, f"{suite}_cells")(5, 2):
            stream.note(cell.key())
            stream.ops.append(Op(
                cell.key(),
                lambda c=cell, r=runner: getattr(batch, r)(c, SWEEP_TRIALS, pool),
                checks.check_cell))
    for fixture in _fixtures(rng):
        stream.note(fixture)
        stream.ops.append(Op(
            f"fixture {fixture['name']}",
            lambda f=fixture: batch.run_stab_fixture(f, pool),
            lambda r, e=fixture["expect"]: checks.check_fixture(r, e)))
    return stream


def build_cotype(lib, seed: int) -> Stream:
    batch, cli = lib["batch"], lib["cli"]
    # Cotype costs spread over a decade from plane to plane, so a corpus
    # drawn afresh per seed moves the median request by +-15%.  The corpus
    # (complexes, seed maps, plane choices) is therefore fixed, and --seed
    # picks the certified perturbation of every map, which changes every
    # coordinate the program reads.
    rng = random.Random("cotype corpus")
    pool_seeds = random.Random(f"cotype:{seed}")
    stream = Stream([])
    eps = str(COTYPE_EPS)
    planes = 0
    for s in range(COTYPE_SESSIONS):
        m = 3 + s % 2
        vertices = 8 + (s // 2) % 3
        tag = f"cotype{s:02d}"

        def complex_fn():
            # Every preimage component holds the piece of a maximal simplex,
            # so capping maximal simplexes keeps every request inside the
            # clustering limit without running the code under test.
            while True:
                k = batch.random_complex(rng, vertices, 2, COTYPE_DENSITY)
                if k.dim == 2 and len(k.maximal_simplexes()) <= COTYPE_MAX_MAXIMAL:
                    return k

        k, g, cx, _ = _perturbed_session(stream, lib, rng, tag, m, complex_fn,
                                         pool_seeds.randrange(2 ** 31))
        g_path = stream.write(f"{tag}.g.map", lib["simplicial"].format_map(g))
        # d = 2 and d = 1 families alternate; (t, T) take every admissible
        # value in turn across the sessions of this m
        pairs = [(t, T) for T in range(1, m + 1) for t in range(0, 3)]
        for j in range(COTYPE_PLANES):
            d = 2 if j % 2 == 0 else 1
            fits = [(t, T) for t, T in pairs if t <= d <= T]
            t, T = fits[((s // 2) * COTYPE_PLANES + j) // 2 % len(fits)]
            family = _random_family(rng, lib, m, d, t, T)
            plane = _plane(rng, lib, family, k, g, adversarial=planes % 3 < 2)
            planes += 1
            plane_path = _plane_file(stream, lib, f"{tag}.p{j:02d}.json", plane)
            common = ["--complex", cx, "--map", g_path, "--plane", plane_path]
            section = ["section", *common, "--eps", eps]
            cotype = ["cotype", *common, "--q", str(COTYPE_Q), "--eps", eps]
            stream.note(section, cotype)
            stream.ops.append(Op(
                f"{tag} section p{j:02d}", _cli_call(cli, section),
                lambda r: checks.check_section(r, COTYPE_EPS), loads_map=True))
            stream.ops.append(Op(
                f"{tag} cotype p{j:02d}", _cli_call(cli, cotype),
                lambda r: checks.check_cotype(r, COTYPE_Q), loads_map=True))
    return stream


BUILDERS = {"count": build_count, "sweep": build_sweep, "cotype": build_cotype}

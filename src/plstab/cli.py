"""Deterministic command-line front end.

Verbs: gen, perturb, bounds, stab, count, section, cotype, verify.  Every
run prints exactly one JSON report to stdout (sorted keys, fixed layout) and
returns one of the contract exit codes:

* 0: success
* 1: mathematical violation found by a verify sweep
* 2: input error (bad flag, unreadable file, malformed data)
* 3: genericity certification exhausted

All randomness flows from the --seed option; identical argv, files and seeds
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import batch
from .generic import GenericityError, GenericPool, _derived_seed
from .ratmath import format_rational, parse_rational
from .sections import (component_clusters, compute_components, eps_disjoint,
                       preimage_polytopes, section_of_image)
from .simplicial import (ParseError, certify_map, format_complex, format_map,
                         parse_complex, parse_map, roberts_perturb)
from .transversal import (family_from_json_dict, max_disjoint_stabbed,
                          plane_from_json_dict, plane_to_json_dict,
                          sets_from_json, stab_bound, stab_decide_univariate,
                          stab_exists_linear, stab_search_general,
                          verify_interval_certificate, verify_stab_witness)


class CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


class _Parser(argparse.ArgumentParser):
    """argparse whose errors become a CliError, so they get a JSON report."""

    def error(self, message: str):
        raise CliError(2, f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="plstab",
        description="exact stabbing-bound verification for PL maps")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="generate a random complex and map file")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--density", type=str, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("perturb", help="move a map into certified general position")
    p.add_argument("--complex", type=str, required=True)
    p.add_argument("--map", type=str, required=True)
    p.add_argument("--eps", type=str, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("bounds", help="exact stabbing ceiling and its floor")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--T", type=int, required=True)

    p = sub.add_parser("stab", help="decide or search a common transversal")
    p.add_argument("--family", type=str, required=True)
    p.add_argument("--sets", type=str, required=True)
    p.add_argument("--mode", choices=("linear", "search", "univariate"),
                   required=True)
    p.add_argument("--budget", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("count", help="max disjoint simplexes stabbed by a plane")
    p.add_argument("--complex", type=str, required=True)
    p.add_argument("--map", type=str, required=True)
    p.add_argument("--plane", type=str, required=True)
    p.add_argument("--nmax", type=int, required=True)

    p = sub.add_parser("section", help="plane section and its disjointness scale")
    p.add_argument("--complex", type=str, required=True)
    p.add_argument("--map", type=str, required=True)
    p.add_argument("--plane", type=str, required=True)
    p.add_argument("--eps", type=str, required=True)

    p = sub.add_parser("cotype", help="cluster the plane preimage in the domain")
    p.add_argument("--complex", type=str, required=True)
    p.add_argument("--map", type=str, required=True)
    p.add_argument("--plane", type=str, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--eps", type=str, required=True)

    p = sub.add_parser("verify", help="run a batch verification grid")
    p.add_argument("--grid", type=str, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _read_text(path: str, inputs: dict) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CliError(2, f"cannot read {path}: {exc}") from exc
    inputs[path] = "sha256:" + hashlib.sha256(data).hexdigest()
    return data.decode("utf-8")


def _read_json(path: str, inputs: dict):
    text = _read_text(path, inputs)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(2, f"{path}: invalid JSON: {exc}") from exc


def _rational_arg(text: str, flag: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise CliError(2, f"{flag}: {exc}") from exc


def _cert_summary(cert) -> dict:
    if cert is None:
        return None
    return {
        "status": "ok" if cert.ok else "failed",
        "conditions": len(cert.conditions),
        "failed_index": cert.failed_index,
    }


def _witness_json(witness) -> dict:
    return {
        "lambdas": [[format_rational(x) for x in lam] for lam in witness.lambdas],
        "plane": plane_to_json_dict(witness.plane),
        "points": [[format_rational(x) for x in y] for y in witness.points],
    }


def _require_vertices(k, g, map_path: str) -> None:
    for v in k.vertices:
        if v not in g.images:
            raise CliError(2, f"{map_path}: missing vertex {v!r}")


def _load_certified_map(complex_path: str, map_path: str, inputs: dict):
    k = parse_complex(_read_text(complex_path, inputs))
    g = parse_map(_read_text(map_path, inputs))
    _require_vertices(k, g, map_path)
    g = certify_map(k, g)
    if not g.certified:
        raise GenericityError(
            "map fails genericity certification; regenerate with perturb")
    return k, g


def _load_sets(path: str, inputs: dict, m: int):
    data = _read_json(path, inputs)
    try:
        return sets_from_json(data["sets"], m)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(2, f"{path}: malformed point sets: {exc}") from exc


def _run_gen(args, inputs) -> tuple[dict, dict, int]:
    if args.vertices < 1 or args.dim < 0:
        raise CliError(2, "--vertices must be >= 1 and --dim >= 0")
    density = _rational_arg(args.density, "--density")
    if not 0 <= density <= 1:
        raise CliError(2, "--density must lie in [0, 1]")
    rng = random.Random(_derived_seed(args.seed, "gen"))
    k = batch.random_complex(rng, args.vertices, args.dim, density)
    text = format_complex(k)
    Path(args.out).write_text(text, encoding="utf-8")
    result = {
        "out": args.out,
        "out_digest": "sha256:" + hashlib.sha256(text.encode()).hexdigest(),
        "vertices": len(k.vertices),
        "simplexes": len(k.simplexes),
        "dim": k.dim,
    }
    return result, None, 0


def _run_perturb(args, inputs):
    k = parse_complex(_read_text(args.complex, inputs))
    theta = parse_map(_read_text(args.map, inputs))
    eps = _rational_arg(args.eps, "--eps")
    if eps <= 0:
        raise CliError(2, "--eps must be positive")
    _require_vertices(k, theta, args.map)
    g = roberts_perturb(k, theta, eps, GenericPool(args.seed))
    text = format_map(g)
    Path(args.out).write_text(text, encoding="utf-8")
    result = {
        "out": args.out,
        "out_digest": "sha256:" + hashlib.sha256(text.encode()).hexdigest(),
        "eps": format_rational(eps),
        "vertices": len(k.vertices),
    }
    return result, _cert_summary(g.certificate), 0


def _run_bounds(args, inputs):
    try:
        got = stab_bound(args.n, args.m, args.d, args.t, args.T)
    except ValueError as exc:
        raise CliError(2, str(exc)) from exc
    result = {
        "value": format_rational(got.value),
        "floor": got.floor,
        "regime": got.regime,
    }
    return result, None, 0


def _run_stab(args, inputs):
    family_data = _read_json(args.family, inputs)
    try:
        family = family_from_json_dict(family_data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(2, f"{args.family}: {exc}") from exc
    sets = _load_sets(args.sets, inputs, family.m)
    if args.budget < 0:
        raise CliError(2, "--budget must be >= 0")
    result: dict = {"mode": args.mode, "q": len(sets)}
    if args.mode == "linear":
        try:
            witness = stab_exists_linear(sets, family)
        except ValueError as exc:
            raise CliError(2, str(exc)) from exc
        if witness is None:
            result.update(status="infeasible", certified=True,
                          lambdas=None, plane=None, conditions_checked=0)
        else:
            ok, checks = verify_stab_witness(witness, sets, family)
            result.update(status="witness", certified=ok,
                          conditions_checked=checks, **_witness_json(witness))
    elif args.mode == "search":
        try:
            got = stab_search_general(sets, family, args.budget,
                                      GenericPool(args.seed))
        except ValueError as exc:
            raise CliError(2, str(exc)) from exc
        if got.found:
            ok, checks = verify_stab_witness(got.witness, sets, family)
            result.update(status="witness", certified=ok,
                          conditions_checked=checks,
                          evaluations=got.evaluations,
                          **_witness_json(got.witness))
        else:
            result.update(status="not_found", certified=False,
                          lambdas=None, plane=None, conditions_checked=0,
                          evaluations=got.evaluations)
    else:
        got = stab_decide_univariate(sets, family)
        if got.status == "no_stab":
            result.update(status="no_stab", certified=True,
                          lambdas=None, plane=None, conditions_checked=0,
                          reduced=[format_rational(c) for c in got.reduced])
        elif got.status == "not_applicable":
            result.update(status="not_applicable", certified=False,
                          lambdas=None, plane=None, conditions_checked=0)
        elif got.witness is not None:
            ok, checks = verify_stab_witness(got.witness, sets, family)
            result.update(status="witness", certified=ok,
                          conditions_checked=checks, **_witness_json(got.witness))
        else:
            lo, hi = got.interval
            result.update(status="witness",
                          certified=verify_interval_certificate(
                              got.reduced, got.interval),
                          lambdas=None, plane=None, conditions_checked=0,
                          witness_kind="isolating_interval",
                          interval=[format_rational(lo), format_rational(hi)],
                          reduced=[format_rational(c) for c in got.reduced])
    return result, None, 0


def _load_plane(path: str, inputs: dict, m: int):
    data = _read_json(path, inputs)
    try:
        plane = plane_from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(2, f"{path}: {exc}") from exc
    if plane.family.m != m:
        raise CliError(2, f"{path}: plane lives in dimension {plane.family.m}, "
                          f"map in {m}")
    return plane


def _run_count(args, inputs):
    k, g = _load_certified_map(args.complex, args.map, inputs)
    plane = _load_plane(args.plane, inputs, g.m)
    if args.nmax < 0:
        raise CliError(2, "--nmax must be >= 0")
    count, family = max_disjoint_stabbed(k, g, plane, args.nmax)
    result = {
        "count": count,
        "witness_family": [list(s) for s in family],
        "nmax": args.nmax,
    }
    return result, _cert_summary(g.certificate), 0


def _run_section(args, inputs):
    k, g = _load_certified_map(args.complex, args.map, inputs)
    plane = _load_plane(args.plane, inputs, g.m)
    eps = _rational_arg(args.eps, "--eps")
    if eps <= 0:
        raise CliError(2, "--eps must be positive")
    section = section_of_image(k, g, plane)
    part = compute_components(section)
    max_diam = max(part.diameters_sq, default=Fraction(0))
    result = {
        "pieces": len(section.pieces),
        "components": len(part.components),
        "max_diameter_sq": format_rational(max_diam),
        "eps_sq": format_rational(eps * eps),
        "result": eps_disjoint(part, eps),
    }
    return result, _cert_summary(g.certificate), 0


def _run_cotype(args, inputs):
    k, g = _load_certified_map(args.complex, args.map, inputs)
    plane = _load_plane(args.plane, inputs, g.m)
    eps = _rational_arg(args.eps, "--eps")
    if eps <= 0 or args.q < 1:
        raise CliError(2, "need --eps > 0 and --q >= 1")
    preimage = preimage_polytopes(k, g, plane)
    part = compute_components(preimage)
    try:
        clusters = component_clusters(part, args.q, eps)
    except ValueError as exc:
        raise CliError(2, str(exc)) from exc
    max_diam = max(part.diameters_sq, default=Fraction(0))
    result = {
        "pieces": len(preimage.pieces),
        "components": len(part.components),
        "max_diameter_sq": format_rational(max_diam),
        "eps_sq": format_rational(eps * eps),
        "result": clusters is not None,
    }
    if clusters is not None:
        result["clusters"] = clusters
    return result, _cert_summary(g.certificate), 0


def _run_verify(args, inputs):
    grid = _read_json(args.grid, inputs)
    if not isinstance(grid, dict) or not any(
            isinstance(grid.get(key), list) and grid[key]
            for key in ("suites", "fixtures")):
        raise CliError(2, f"{args.grid}: grid needs a nonempty suites or "
                          "fixtures list")
    if args.trials < 0:
        raise CliError(2, "--trials must be >= 0")
    try:
        report = batch.run_grid(grid, args.trials, GenericPool(args.seed))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(2, f"{args.grid}: {exc}") from exc
    code = 1 if report["violations"] else 0
    return report, None, code


_HANDLERS = {
    "gen": _run_gen,
    "perturb": _run_perturb,
    "bounds": _run_bounds,
    "stab": _run_stab,
    "count": _run_count,
    "section": _run_section,
    "cotype": _run_cotype,
    "verify": _run_verify,
}


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def main(argv=None) -> int:
    inputs: dict = {}
    echo = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = _build_parser().parse_args(argv)
        result, certificate, code = _HANDLERS[args.verb](args, inputs)
    except SystemExit:  # only --help exits; every parse error raises CliError
        return 0
    except CliError as exc:
        _emit({"command": echo, "inputs": inputs, "error": str(exc),
               "exit_code": exc.exit_code})
        return exc.exit_code
    except ParseError as exc:
        _emit({"command": echo, "inputs": inputs, "error": str(exc),
               "exit_code": 2})
        return 2
    except GenericityError as exc:
        _emit({"command": echo, "inputs": inputs, "error": str(exc),
               "exit_code": 3})
        return 3
    _emit({"command": echo, "inputs": inputs, "result": result,
           "certificate": certificate, "exit_code": code})
    return code


if __name__ == "__main__":
    sys.exit(main())

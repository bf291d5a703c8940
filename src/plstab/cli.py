"""Deterministic command-line front end.

Verbs: gen, perturb, bounds, stab, count, section, cotype, verify.  argv is
read straight off the verb table _VERBS, which also gives the --help text:
each flag is spelled in full and followed by its value.  Every run prints
exactly one JSON report to stdout (sorted keys, fixed layout) and returns
one of the contract exit codes:

* 0: success
* 1: mathematical violation found by a verify sweep
* 2: input error (an unknown, repeated, missing or bad flag, an unreadable
  file, malformed data or an unknown JSON key): a CliError or any ValueError
* 3: genericity certification exhausted: a GenericityError

main alone maps an exception to its exit code.

All randomness flows from the --seed option; identical argv, files and seeds
produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import batch
from .generic import GenericityError, GenericPool, _derived_seed
from .ratmath import format_rational, parse_integer, parse_rational
from .sections import (component_clusters, compute_components, eps_disjoint,
                       preimage_polytopes, section_of_image)
from .simplicial import (MAX_SIMPLEXES, certify_map, format_complex,
                         format_map, parse_complex, parse_map, roberts_perturb)
from .transversal import (SEARCH_BUDGET, _known_keys, decide_stab,
                          family_from_json_dict, max_disjoint_stabbed,
                          plane_from_json_dict, sets_from_json, stab_bound)


class CliError(Exception):
    """An input error whose message already names the flag or file at fault."""


def _read_text(path: str, inputs: dict) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    inputs[path] = "sha256:" + hashlib.sha256(data).hexdigest()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text") from exc


def _read_json(path: str, inputs: dict):
    text = _read_text(path, inputs)
    try:
        return json.loads(text)
    # ValueError: bad syntax, or an integer literal too long to convert;
    # RecursionError: nesting too deep
    except (ValueError, RecursionError) as exc:
        raise CliError(f"{path}: invalid JSON: {exc}") from exc


@contextmanager
def _fields_of(path: str):
    """Turn a malformed file's error into one naming the file."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise CliError(f"{path}: {detail}") from exc


def _write_text(path: str, text: str) -> str:
    """Write text to path and return its digest."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _cert_summary(cert) -> dict:
    return {
        "status": "ok" if cert.ok else "failed",
        "conditions": len(cert.conditions),
        "failed_index": cert.failed_index,
    }


# gen draws once per simplex of the full complex on its vertices up to its
# dimension, so it counts those against the ceiling before it draws.
def _run_gen(args, inputs) -> tuple[dict, dict, int]:
    if not 0 <= args.density <= 1:
        raise CliError("--density must lie in [0, 1]")
    simplexes = 0
    for size in range(1, min(args.dim + 1, args.vertices) + 1):
        simplexes += math.comb(args.vertices, size)
        if simplexes > MAX_SIMPLEXES:
            raise CliError(f"--vertices {args.vertices} --dim {args.dim} "
                           f"allow more than {MAX_SIMPLEXES} simplexes")
    rng = random.Random(_derived_seed(args.seed, "gen"))
    k = batch.random_complex(rng, args.vertices, args.dim, args.density)
    result = {
        "out": args.out,
        "out_digest": _write_text(args.out, format_complex(k)),
        "vertices": len(k.vertices),
        "simplexes": len(k.simplexes),
        "dim": k.dim,
    }
    return result, None, 0


def _run_perturb(args, inputs):
    with _fields_of(args.complex):
        k = parse_complex(_read_text(args.complex, inputs))
    with _fields_of(args.map):
        theta = parse_map(_read_text(args.map, inputs))
        g = roberts_perturb(k, theta, args.eps, GenericPool(args.seed))
    result = {
        "out": args.out,
        "out_digest": _write_text(args.out, format_map(g)),
        "eps": format_rational(args.eps),
        "vertices": len(k.vertices),
    }
    return result, _cert_summary(g.certificate), 0


def _run_bounds(args, inputs):
    got = stab_bound(args.n, args.m, args.d, args.t, args.T)
    result = {
        "value": format_rational(got.value),
        "floor": got.floor,
        "regime": got.regime,
    }
    return result, None, 0


def _run_stab(args, inputs):
    family_data = _read_json(args.family, inputs)
    with _fields_of(args.family):
        family = family_from_json_dict(family_data)
    sets_data = _read_json(args.sets, inputs)
    with _fields_of(args.sets):
        _known_keys(sets_data, ("sets",), "sets file")
        sets = sets_from_json(sets_data["sets"], family.m)
    got = decide_stab(sets, family, args.budget, args.seed)
    return {"q": len(sets), **got}, None, 0


def _load_request(args, inputs):
    """The complex, certified map and plane of a count, section or cotype
    request, read in that order."""
    with _fields_of(args.complex):
        k = parse_complex(_read_text(args.complex, inputs))
    with _fields_of(args.map):
        g = certify_map(k, parse_map(_read_text(args.map, inputs)))
    if not g.certified:
        raise GenericityError(
            "map fails genericity certification; regenerate with perturb")
    data = _read_json(args.plane, inputs)
    with _fields_of(args.plane):
        plane = plane_from_json_dict(data)
    if plane.family.m != g.m:
        raise CliError(f"{args.plane}: plane lives in dimension "
                       f"{plane.family.m}, map in {g.m}")
    return k, g, plane


def _run_count(args, inputs):
    k, g, plane = _load_request(args, inputs)
    count, family = max_disjoint_stabbed(k, g, plane, args.nmax)
    result = {
        "count": count,
        "witness_family": [list(s) for s in family],
        "nmax": args.nmax,
    }
    return result, _cert_summary(g.certificate), 0


def _components_of(args, inputs, build):
    """The components of the polytopes that build (the section or the
    preimage) makes of a request, with the report fields they share."""
    k, g, plane = _load_request(args, inputs)
    polytopes = build(k, g, plane)
    part = compute_components(polytopes)
    result = {
        "pieces": len(polytopes.pieces),
        "components": len(part.components),
        "max_diameter_sq": format_rational(max(part.diameters_sq, default=0)),
        "eps_sq": format_rational(args.eps * args.eps),
    }
    return part, result, _cert_summary(g.certificate)


def _run_section(args, inputs):
    part, result, certificate = _components_of(args, inputs, section_of_image)
    result["result"] = eps_disjoint(part, args.eps)
    return result, certificate, 0


def _run_cotype(args, inputs):
    part, result, certificate = _components_of(args, inputs,
                                               preimage_polytopes)
    clusters = component_clusters(part, args.q, args.eps)
    result["result"] = clusters is not None
    if clusters is not None:
        result["clusters"] = clusters
    return result, certificate, 0


def _run_verify(args, inputs):
    grid = _read_json(args.grid, inputs)
    with _fields_of(args.grid):
        report = batch.run_grid(grid, args.trials, GenericPool(args.seed))
    return report, None, 1 if report["violations"] else 0


class _Flag(NamedTuple):
    name: str
    kind: Callable[[str], object]  # parse_integer, parse_rational or str
    default: object = None         # None: the flag is required
    bound: str = ""                # ">= n" or "> n"


_SEED = _Flag("--seed", parse_integer, 0)
_EPS = _Flag("--eps", parse_rational, bound="> 0")
_COMPLEX, _MAP, _PLANE = (_Flag(name, str)
                          for name in ("--complex", "--map", "--plane"))

# verb -> (help, handler, flags); _USAGE lists the flags in this order
_VERBS = {
    "gen": ("generate a random complex file", _run_gen, (
        _Flag("--vertices", parse_integer, bound=">= 1"),
        _Flag("--dim", parse_integer, bound=">= 0"),
        _Flag("--density", parse_rational), _SEED, _Flag("--out", str))),
    "perturb": ("move a map into certified general position", _run_perturb, (
        _COMPLEX, _MAP, _EPS, _SEED, _Flag("--out", str))),
    "bounds": ("exact stabbing ceiling and its floor", _run_bounds,
               tuple(_Flag(name, parse_integer)
                     for name in ("--n", "--m", "--d", "--t", "--T"))),
    "stab": ("decide or search a common transversal", _run_stab, (
        _Flag("--family", str), _Flag("--sets", str),
        _Flag("--budget", parse_integer, SEARCH_BUDGET, ">= 0"), _SEED)),
    "count": ("max disjoint simplexes stabbed by a plane", _run_count, (
        _COMPLEX, _MAP, _PLANE, _Flag("--nmax", parse_integer, bound=">= 0"))),
    "section": ("plane section and its disjointness scale", _run_section, (
        _COMPLEX, _MAP, _PLANE, _EPS)),
    "cotype": ("cluster the plane preimage in the domain", _run_cotype, (
        _COMPLEX, _MAP, _PLANE, _Flag("--q", parse_integer, bound=">= 1"),
        _EPS)),
    "verify": ("run a batch verification grid", _run_verify, (
        _Flag("--grid", str), _Flag("--trials", parse_integer, bound=">= 0"),
        _SEED)),
}
_USAGE = "usage: plstab <verb> --flag value ...\n" + "".join(
    f"    {verb} " + " ".join(f.name if f.default is None else f"[{f.name}]"
                          for f in flags) + f"\n        {text}\n"
    for verb, (text, _, flags) in _VERBS.items())


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """argv read straight off its verb's flags in _VERBS: each flag takes
    the argument after it, converted by its kind and checked against its
    bound in argv order; an absent flag takes its default.  None when argv
    asks for help."""
    if {"-h", "--help"} & {*argv[:1], *argv[1::2]}:
        return None
    if not argv or argv[0] not in _VERBS:
        raise CliError(f"a verb is required, one of {', '.join(_VERBS)}; "
                       f"got {' '.join(argv[:1]) or 'none'}")
    flags = {f.name: f for f in _VERBS[argv[0]][2]}
    values = {name[2:]: f.default for name, f in flags.items()}
    for i in range(1, len(argv), 2):
        f = flags.get(argv[i])
        if f is None:
            raise CliError("unrecognized arguments: " + " ".join(argv[i:i + 2]))
        if i + 1 == len(argv) or f.name in argv[1:i:2]:
            raise CliError(f"{f.name} takes exactly one value")
        try:
            value = f.kind(argv[i + 1])
        except ValueError as exc:
            raise CliError(f"{f.name}: {exc}") from exc
        op, _, low = f.bound.partition(" ")
        if f.bound and not (value > int(low) if op == ">" else value >= int(low)):
            raise CliError(f"{f.name} must be {f.bound}")
        values[f.name[2:]] = value
    missing = [f"--{key}" for key, value in values.items() if value is None]
    if missing:
        raise CliError("these flags are required: " + ", ".join(missing))
    return SimpleNamespace(verb=argv[0], **values)


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def main(argv=None) -> int:
    inputs: dict = {}
    echo = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = _parse(echo)
        if args is None:
            sys.stdout.write(_USAGE)
            return 0
        result, certificate, code = _VERBS[args.verb][1](args, inputs)
        report = {"result": result, "certificate": certificate}
    # The one map from error to exit code.  RuntimeError (GenericityError
    # aside) and ArithmeticError are faults of the program and propagate.
    except (CliError, ValueError, GenericityError) as exc:
        code = 3 if isinstance(exc, GenericityError) else 2
        report = {"error": str(exc)}
    _emit({"command": echo, "inputs": inputs, **report, "exit_code": code})
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Reply checks that back the benchmark's failure count, and their self-test.

Each check takes one reply and the expectation the set-up recorded for it,
and returns None when the reply is right or a one-line reason when it is
wrong.  CLI replies arrive as ``(exit_code, stdout_text)``.  The checks read
only the reply and plain set-up data, never the library's internals, so a
wrong answer cannot be hidden by the code it checks.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def _report(reply):
    """Exit code 0 and one JSON report whose certificate (if any) is ok."""
    code, out = reply
    if code != 0:
        return None, f"exit code {code}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return None, f"reply is not one JSON report: {exc}"
    if report.get("exit_code") != 0 or "result" not in report:
        return None, f"report carries no result: {report.get('error')}"
    cert = report.get("certificate")
    if cert is not None and cert.get("status") != "ok":
        return None, f"certificate status {cert.get('status')}"
    return report, None


def check_count(reply, ceiling: int, nmax: int, simplexes: frozenset):
    """count <= the exact ceiling, backed by a disjoint witness family."""
    report, why = _report(reply)
    if why:
        return why
    if report["certificate"] is None:
        return "count reply without a map certificate"
    result = report["result"]
    count, family = result["count"], result["witness_family"]
    if count > ceiling:
        return f"count {count} above the ceiling {ceiling}"
    if len(family) != count:
        return f"witness family of {len(family)} simplexes for count {count}"
    seen: set = set()
    for simplex in family:
        if tuple(simplex) not in simplexes:
            return f"witness {simplex} is not a simplex of the complex"
        if len(simplex) - 1 > nmax:
            return f"witness {simplex} has dimension above {nmax}"
        if seen & set(simplex):
            return f"witness {simplex} shares a vertex with another witness"
        seen |= set(simplex)
    return None


def check_section(reply, eps: Fraction):
    """result is exactly max_diameter_sq < eps^2."""
    report, why = _report(reply)
    if why:
        return why
    result = report["result"]
    eps_sq = Fraction(result["eps_sq"])
    if eps_sq != eps * eps:
        return f"eps_sq {result['eps_sq']} is not {eps}^2"
    if result["result"] != (Fraction(result["max_diameter_sq"]) < eps_sq):
        return "result disagrees with max_diameter_sq < eps_sq"
    return None


def check_cotype(reply, q: int):
    """A true result comes with <= q clusters partitioning the components."""
    report, why = _report(reply)
    if why:
        return why
    result = report["result"]
    if not result["result"]:
        return "clusters given for a false result" if "clusters" in result else None
    clusters = result.get("clusters")
    if clusters is None:
        return "true result without clusters"
    if len(clusters) > q:
        return f"{len(clusters)} clusters for q = {q}"
    members = sorted(i for cluster in clusters for i in cluster)
    if members != list(range(result["components"])):
        return "clusters do not partition the components"
    return None


def check_perturb(reply, out_path: str, expected_text: str):
    """Certified output, byte-identical to the map the set-up drew planes on."""
    report, why = _report(reply)
    if why:
        return why
    digest = "sha256:" + hashlib.sha256(expected_text.encode()).hexdigest()
    if report["result"]["out_digest"] != digest:
        return "perturb output digest differs from the set-up map"
    with open(out_path, encoding="utf-8") as handle:
        if handle.read() != expected_text:
            return "perturb output file differs from the set-up map"
    return None


def check_cell(violations):
    """A sweep cell is clean when it reports no violations."""
    if violations:
        return f"{len(violations)} violations, first {violations[0]['kind']}"
    return None


def check_fixture(result, expect: str):
    """A stab fixture meets the expectation the set-up wrote for it."""
    if result["expect"] != expect:
        return f"fixture echoes expect {result['expect']!r}, wrote {expect!r}"
    if not result["ok"] or result["status"] != expect:
        return f"fixture expected {expect} but got {result['status']}"
    return None


# ---------------------------------------------------------------------------
# Self-test: deliberately wrong replies must each count as a failure.

def _cli_reply(result, certificate=None, code=0):
    report = {"command": [], "inputs": {}, "result": result,
              "certificate": certificate, "exit_code": code}
    return code, json.dumps(report, sort_keys=True, indent=2) + "\n"


def self_test() -> list[str]:
    """Run every check on one right and several wrong replies.

    Returns the names of the cases the checks judged wrongly; an empty list
    means each wrong reply was caught and each right one passed.
    """
    ok_cert = {"status": "ok", "conditions": 3, "failed_index": None}
    simplexes = frozenset({("a",), ("b",), ("c",), ("d",), ("a", "b"),
                           ("c", "d"), ("b", "c")})

    def count(n, family, cert=ok_cert, code=0):
        return _cli_reply({"count": n, "witness_family": family, "nmax": 2},
                          cert, code)

    def cotype(components, clusters):
        result = {"pieces": components, "components": components,
                  "max_diameter_sq": "0", "eps_sq": "1", "result": True,
                  "clusters": clusters}
        return _cli_reply(result, ok_cert)

    def fixture(status, expect):
        return {"name": "f", "mode": "search", "status": status,
                "expect": expect, "ok": status == expect}

    cases = [
        ("count right", True,
         check_count(count(2, [["a", "b"], ["c", "d"]]), 2, 2, simplexes)),
        ("count above the ceiling", False,
         check_count(count(3, [["a"], ["b"], ["c"]]), 2, 2, simplexes)),
        ("overlapping witness simplexes", False,
         check_count(count(2, [["a", "b"], ["b", "c"]]), 2, 2, simplexes)),
        ("witness family shorter than count", False,
         check_count(count(2, [["a", "b"]]), 2, 2, simplexes)),
        ("failed certificate", False,
         check_count(count(1, [["a"]], {"status": "failed"}), 2, 2, simplexes)),
        ("wrong exit code", False,
         check_count(count(1, [["a"]], code=3), 2, 2, simplexes)),
        ("section right", True,
         check_section(_cli_reply({"max_diameter_sq": "1/4", "eps_sq": "1",
                                   "result": True}, ok_cert), Fraction(1))),
        ("section result contradicts its diameter", False,
         check_section(_cli_reply({"max_diameter_sq": "2", "eps_sq": "1",
                                   "result": True}, ok_cert), Fraction(1))),
        ("cotype right", True, check_cotype(cotype(3, [[0, 2], [1]]), 2)),
        ("cluster list missing a component", False,
         check_cotype(cotype(3, [[0], [2]]), 2)),
        ("more clusters than q", False,
         check_cotype(cotype(3, [[0], [1], [2]]), 2)),
        ("sweep cell right", True, check_cell([])),
        ("sweep cell with a violation", False,
         check_cell([{"kind": "unexpected witness"}])),
        ("fixture right", True,
         check_fixture(fixture("witness", "witness"), "witness")),
        ("fixture with the wrong expect", False,
         check_fixture(fixture("not_found", "witness"), "witness")),
        ("fixture echoing another expect", False,
         check_fixture(fixture("not_found", "not_found"), "witness")),
    ]
    return [name for name, should_pass, why in cases
            if (why is None) != should_pass]

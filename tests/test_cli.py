import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plstab import batch
from plstab.cli import _VERBS, CliError, _parse, main
from plstab.ratmath import format_rational

TWO_EDGES_COMPLEX = "v a\nv b\nv c\nv d\ns a b\ns c d\n"
TWO_EDGES_MAP = ("m 2\n"
                 "p a 1/101 1/7\n"
                 "p b 102/101 1/9\n"
                 "p c 2/101 8/7\n"
                 "p d 103/101 9/8\n")
VERTICAL_HALF = {"m": 2, "St": [2], "ST": [2], "d": 1,
                 "basepoint": ["1/2", "0"], "extra_dirs": []}

Z_AXIS_FAMILY = {"m": 3, "St": [], "ST": [1, 2, 3], "d": 1}
Z_AXIS_SETS = {"m": 3, "sets": [
    [["0", "0", "0"], ["1", "0", "0"]],
    [["0", "0", "1"], ["0", "1", "1"]],
    [["0", "0", "2"], ["1", "1", "2"]],
]}
E1_LINE_FAMILY = {"m": 3, "St": [], "ST": [1], "d": 1}


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, content):
    path = tmp_path / name
    if isinstance(content, (dict, list)):
        path.write_text(json.dumps(content), encoding="utf-8")
    else:
        path.write_text(content, encoding="utf-8")
    return str(path)


def test_bounds_golden(capsys):
    code, out = run_cli(capsys, ["bounds", "--n", "2", "--m", "4",
                                 "--d", "1", "--t", "0", "--T", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["result"] == {"value": "5", "floor": 5, "regime": "N1"}
    assert report["exit_code"] == 0


def test_bounds_invalid_parameters_exit_2(capsys):
    code, out = run_cli(capsys, ["bounds", "--n", "2", "--m", "4",
                                 "--d", "2", "--t", "0", "--T", "2"])
    assert code == 2
    assert "error" in json.loads(out)


def _one_parse_error_report(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)  # exactly one JSON document
    assert report == {"command": argv, "inputs": {}, "error": report["error"],
                      "exit_code": 2}
    assert captured.err == ""
    return report["error"]


def test_unparsable_flag_exit_2(capsys):
    for argv in (["bounds", "--n", "x", "--m", "4", "--d", "1",
                  "--t", "0", "--T", "3"],
                 ["count", "--nmax", "x"]):
        error = _one_parse_error_report(capsys, argv)
        assert "invalid int value: 'x'" in error


def test_unknown_verb_exit_2(capsys):
    assert "frobnicate" in _one_parse_error_report(capsys, ["frobnicate"])


@pytest.mark.parametrize("argv", [["stab"], []])
def test_missing_required_flag_exit_2(capsys, argv):
    assert "required" in _one_parse_error_report(capsys, argv)


def test_stab_mode_flag_is_unrecognized_exit_2(capsys):
    error = _one_parse_error_report(capsys, [
        "stab", "--family", "f.json", "--sets", "s.json", "--mode", "linear"])
    assert "unrecognized arguments: --mode linear" in error


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for verb in ("gen", "perturb", "bounds", "stab", "count", "section",
                 "cotype", "verify"):
        assert f"\n    {verb} " in out


def test_readme_flags_match_the_verb_table():
    # The README's verb table lists each verb's flags in the order of
    # cli._VERBS, and a usage line of a verb passes only that verb's flags.
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", text, re.M))
    assert list(rows) == list(_VERBS)
    usage = re.findall(r"^plstab (\w+) (.*)$", text, re.M)
    assert {verb for verb, _ in usage} == set(_VERBS)
    for verb, (_, _, flags) in _VERBS.items():
        names = [f.name for f in flags]
        assert re.findall(r"`(--\w+)`", rows[verb]) == names, verb
        for used, line in usage:
            if used == verb:
                assert set(re.findall(r"--\w+", line)) <= set(names), line


def test_requests_reuse_the_parser_built_at_import(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    stab = _parse(["stab", "--family", "f.json", "--sets", "s.json"])
    bounds = _parse(["bounds", "--n", "2", "--m", "4", "--d", "1", "--t", "0",
                     "--T", "3"])
    with pytest.raises(CliError):
        _parse(["frobnicate"])
    assert built == []
    # a reused parser keeps no flag of an earlier request
    assert vars(stab) == {"verb": "stab", "family": "f.json",
                          "sets": "s.json", "budget": 500, "seed": 0}
    assert vars(bounds) == {"verb": "bounds", "n": 2, "m": 4, "d": 1, "t": 0,
                            "T": 3}


# the error of each flag out of its range: a bound declared in the verb
# table reads "<flag> must be <bound>"; gen checks --density itself
_OUT_OF_RANGE = {"--nmax": "must be >= 0", "--budget": "must be >= 0",
                 "--trials": "must be >= 0", "--vertices": "must be >= 1",
                 "--dim": "must be >= 0", "--density": "must lie in [0, 1]",
                 "--eps": "must be > 0", "--q": "must be >= 1"}


# each flag out of its range, with the rest of the argv valid; the range is
# checked before any file is read, so the paths need not exist
@pytest.mark.parametrize("argv, flag", [
    (["count", "--complex", "k.cx", "--map", "g.map", "--plane", "p.json",
      "--nmax", "-1"], "--nmax"),
    (["stab", "--family", "f.json", "--sets", "s.json", "--budget", "-1"],
     "--budget"),
    (["verify", "--grid", "grid.json", "--trials", "-1"], "--trials"),
    (["gen", "--vertices", "0", "--dim", "1", "--density", "1/2",
      "--out", "k.cx"], "--vertices"),
    (["gen", "--vertices", "3", "--dim", "-1", "--density", "1/2",
      "--out", "k.cx"], "--dim"),
    (["gen", "--vertices", "3", "--dim", "1", "--density", "5",
      "--out", "k.cx"], "--density"),
    (["perturb", "--complex", "k.cx", "--map", "t.map", "--eps", "0",
      "--out", "g.map"], "--eps"),
    (["section", "--complex", "k.cx", "--map", "g.map", "--plane", "p.json",
      "--eps", "0"], "--eps"),
    (["cotype", "--complex", "k.cx", "--map", "g.map", "--plane", "p.json",
      "--q", "2", "--eps", "0"], "--eps"),
    (["cotype", "--complex", "k.cx", "--map", "g.map", "--plane", "p.json",
      "--q", "0", "--eps", "1"], "--q"),
    # both out of range: flags are checked in the table's order
    (["cotype", "--complex", "k.cx", "--map", "g.map", "--plane", "p.json",
      "--q", "0", "--eps", "-1"], "--q"),
])
def test_flag_out_of_range_exit_2_naming_the_flag(capsys, tmp_path,
                                                   monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    error = _one_parse_error_report(capsys, argv)
    assert error == f"{flag} {_OUT_OF_RANGE[flag]}"
    assert list(tmp_path.iterdir()) == []


def test_missing_file_exit_2(capsys, tmp_path):
    code, out = run_cli(capsys, ["count", "--complex", str(tmp_path / "no.cx"),
                                 "--map", str(tmp_path / "no.map"),
                                 "--plane", str(tmp_path / "no.json"),
                                 "--nmax", "1"])
    assert code == 2
    assert "cannot read" in json.loads(out)["error"]


@pytest.mark.parametrize("verb_args", [
    ["gen", "--vertices", "4", "--dim", "1", "--density", "1/2"],
    ["perturb", "--complex", "COMPLEX", "--map", "MAP", "--eps", "1/10"],
])
def test_unwritable_out_exit_2(capsys, tmp_path, verb_args):
    paths = {"COMPLEX": write(tmp_path, "k.cx", TWO_EDGES_COMPLEX),
             "MAP": write(tmp_path, "theta.map", TWO_EDGES_MAP)}
    out_path = str(tmp_path / "missing" / "out")
    argv = [paths.get(x, x) for x in verb_args] + ["--out", out_path]
    code, out = run_cli(capsys, argv)
    assert code == 2
    assert json.loads(out)["error"].startswith(f"cannot write {out_path}: ")


def test_non_utf8_input_exit_2_with_its_digest(capsys, tmp_path):
    cx = tmp_path / "bad.cx"
    cx.write_bytes(b"\xff\xfe")
    mp = write(tmp_path, "g.map", TWO_EDGES_MAP)
    pl = write(tmp_path, "p.json", VERTICAL_HALF)
    code, out = run_cli(capsys, ["count", "--complex", str(cx), "--map", mp,
                                 "--plane", pl, "--nmax", "1"])
    assert code == 2
    report = json.loads(out)
    assert report["error"] == f"{cx}: not UTF-8 text"
    assert report["inputs"] == {str(cx): "sha256:" + hashlib.sha256(
        b"\xff\xfe").hexdigest()}


def test_gen_writes_complex(capsys, tmp_path):
    out_path = tmp_path / "k.cx"
    code, out = run_cli(capsys, ["gen", "--vertices", "6", "--dim", "2",
                                 "--density", "1/4", "--seed", "5",
                                 "--out", str(out_path)])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["vertices"] == 6
    from plstab.simplicial import parse_complex
    k = parse_complex(out_path.read_text())
    assert len(k.vertices) == 6


@pytest.mark.parametrize("density", ["-1", "5"])
def test_gen_density_outside_unit_interval_exit_2(capsys, tmp_path, density):
    out_path = tmp_path / "k.cx"
    code, out = run_cli(capsys, ["gen", "--vertices", "4", "--dim", "1",
                                 "--density", density, "--seed", "5",
                                 "--out", str(out_path)])
    assert code == 2
    assert "--density" in json.loads(out)["error"]
    assert not out_path.exists()


@pytest.mark.parametrize("vertices,dim,admitted", [
    (30, 4, True),            # 174,436 simplexes
    (2 ** 20, 0, True),       # exactly the ceiling
    (2 ** 20 + 1, 0, False),
    (22, 21, False),          # 2^22 - 1
    (10 ** 12, 10 ** 12, False),
])
def test_gen_refuses_more_simplexes_than_its_ceiling(capsys, tmp_path,
                                                     monkeypatch, vertices,
                                                     dim, admitted):
    # the ceiling is checked before any simplex is drawn, so a stub stands
    # in for the enumeration of the admitted requests
    from plstab import batch
    from plstab.cli import GEN_MAX_SIMPLEXES
    from plstab.simplicial import parse_complex
    drawn = []
    monkeypatch.setattr(batch, "random_complex",
                        lambda rng, v, d, density: drawn.append((v, d))
                        or parse_complex("v a\n"))
    out_path = tmp_path / "k.cx"
    code, out = run_cli(capsys, ["gen", "--vertices", str(vertices), "--dim",
                                 str(dim), "--density", "1/2",
                                 "--out", str(out_path)])
    assert GEN_MAX_SIMPLEXES == 2 ** 20
    if admitted:
        assert (code, drawn) == (0, [(vertices, dim)])
    else:
        assert (code, drawn) == (2, [])
        assert json.loads(out)["error"] == (
            f"--vertices {vertices} --dim {dim} allow more than 1048576 "
            "simplexes")
        assert not out_path.exists()


def test_perturb_round_trip(capsys, tmp_path):
    cx = write(tmp_path, "k.cx", "v a\nv b\nv c\ns a b c\n")
    mp = write(tmp_path, "theta.map", "m 3\np a 0 0 0\np b 1 1 1\np c 2 2 2\n")
    out_path = tmp_path / "g.map"
    code, out = run_cli(capsys, ["perturb", "--complex", cx, "--map", mp,
                                 "--eps", "1/10", "--seed", "3",
                                 "--out", str(out_path)])
    assert code == 0
    report = json.loads(out)
    # N - 1 + S conditions: 3 * 3 coordinates, the triangle and its edges
    assert report["certificate"] == {"status": "ok", "conditions": 8 + 4,
                                     "failed_index": None}
    from plstab.simplicial import parse_map
    g = parse_map(out_path.read_text())
    assert g.m == 3


def test_perturb_impossible_dimension_exit_3(capsys, tmp_path):
    cx = write(tmp_path, "k.cx", "v a\nv b\nv c\nv d\ns a b c d\n")
    mp = write(tmp_path, "theta.map",
               "m 2\np a 0 0\np b 0 0\np c 0 0\np d 0 0\n")
    code, out = run_cli(capsys, ["perturb", "--complex", cx, "--map", mp,
                                 "--eps", "1", "--seed", "0",
                                 "--out", str(tmp_path / "g.map")])
    assert code == 3
    assert json.loads(out)["exit_code"] == 3


def test_perturb_zero_dimensional_map_exit_2(capsys, tmp_path):
    cx = write(tmp_path, "k.cx", "v a\n")
    mp = write(tmp_path, "theta.map", "m 0\np a\n")
    code, out = run_cli(capsys, ["perturb", "--complex", cx, "--map", mp,
                                 "--eps", "1", "--seed", "0",
                                 "--out", str(tmp_path / "g.map")])
    assert code == 2
    assert "ambient dimension must be positive" in json.loads(out)["error"]


def test_stab_linear_infeasible_certified(capsys, tmp_path):
    fam = write(tmp_path, "f.json", E1_LINE_FAMILY)
    sets = write(tmp_path, "s.json",
                 {"m": 3, "sets": [[["0", "0", "0"]], [["5", "0", "1"]]]})
    code, out = run_cli(capsys, ["stab", "--family", fam, "--sets", sets])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["mode"] == "linear"
    assert result["status"] == "infeasible"
    assert result["certified"] is True


def test_stab_linear_witness(capsys, tmp_path):
    fam = write(tmp_path, "f.json", E1_LINE_FAMILY)
    sets = write(tmp_path, "s.json",
                 {"m": 3, "sets": [[["0", "0", "0"]], [["5", "0", "0"]]]})
    code, out = run_cli(capsys, ["stab", "--family", fam, "--sets", sets])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["status"] == "witness"
    assert result["certified"] is True
    assert result["conditions_checked"] > 0
    assert result["plane"]["d"] == 1


def test_stab_search_finds_fixture(capsys, tmp_path):
    fam = write(tmp_path, "f.json", Z_AXIS_FAMILY)
    sets = write(tmp_path, "s.json", Z_AXIS_SETS)
    code, out = run_cli(capsys, ["stab", "--family", fam, "--sets", sets,
                                 "--budget", "500"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["mode"] == "search"
    assert result["status"] == "witness"
    assert result["certified"] is True


def test_stab_empty_flat_is_a_certified_linear_infeasible(capsys, tmp_path):
    # q = 2 = d-t+2, but the two points differ outside span(s_T), so the
    # constraint flat is empty and no family member meets both
    fam = write(tmp_path, "f.json", {"m": 3, "St": [], "ST": [1], "d": 0})
    sets = write(tmp_path, "s.json",
                 {"m": 3, "sets": [[["0", "0", "0"]], [["1", "0", "1"]]]})
    code, out = run_cli(capsys, ["stab", "--family", fam, "--sets", sets])
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["mode"], result["status"], result["certified"]) == (
        "linear", "infeasible", True)
    assert "evaluations" not in result


def test_stab_negative_budget_exit_2(capsys, tmp_path):
    fam = write(tmp_path, "f.json", Z_AXIS_FAMILY)
    sets = write(tmp_path, "s.json", Z_AXIS_SETS)
    code, out = run_cli(capsys, ["stab", "--family", fam, "--sets", sets,
                                 "--budget", "-5"])
    assert code == 2
    assert json.loads(out)["exit_code"] == 2


def test_stab_univariate_no_stab(capsys, tmp_path):
    fam = write(tmp_path, "f.json", {"m": 2, "St": [], "ST": [1, 2], "d": 0})
    sets = write(tmp_path, "s.json",
                 {"m": 2, "sets": [[["0", "0"], ["2", "2"]], [["2", "0"]]]})
    code, out = run_cli(capsys, ["stab", "--family", fam, "--sets", sets])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["mode"] == "univariate"
    assert result["status"] == "no_stab"
    assert result["certified"] is True
    assert result["reduced"] == ["1"]  # the two 1 x 1 minors are coprime


def test_stab_univariate_interval_answer(capsys, tmp_path):
    fam = write(tmp_path, "f.json", {"m": 3, "St": [], "ST": [1, 2], "d": 1})
    sets = write(tmp_path, "s.json", {"m": 3, "sets": [
        [["0", "0", "0"], ["1", "0", "1"]],
        [["0", "1", "0"], ["0", "0", "1"]],
        [["1", "1", "0"], ["0", "-2", "1"]],
    ]})
    code, out = run_cli(capsys, ["stab", "--family", fam, "--sets", sets])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["status"] == "witness"
    assert result["witness_kind"] == "isolating_interval"
    assert result["certified"] is True
    assert len(result["interval"]) == 2
    assert result["reduced"] == ["-1", "2", "1"]  # the single minor


def test_verify_univariate_suite(capsys, tmp_path):
    grid = write(tmp_path, "grid.json",
                 {"suites": [{"kind": "univariate", "m_max": 3, "n_max": 2}]})
    code, out = run_cli(capsys, ["verify", "--grid", grid,
                                 "--trials", "2", "--seed", "6"])
    assert code == 0
    report = json.loads(out)["result"]
    assert report["cells"] and report["violations"] == []


def test_count_plane_missing_image(capsys, tmp_path):
    cx = write(tmp_path, "k.cx", TWO_EDGES_COMPLEX)
    mp = write(tmp_path, "g.map", TWO_EDGES_MAP)
    plane = dict(VERTICAL_HALF, basepoint=["50", "0"])
    pl = write(tmp_path, "p.json", plane)
    code, out = run_cli(capsys, ["count", "--complex", cx, "--map", mp,
                                 "--plane", pl, "--nmax", "1"])
    assert code == 0
    assert json.loads(out)["result"]["count"] == 0


def test_count_two_edges(capsys, tmp_path):
    cx = write(tmp_path, "k.cx", TWO_EDGES_COMPLEX)
    mp = write(tmp_path, "g.map", TWO_EDGES_MAP)
    pl = write(tmp_path, "p.json", VERTICAL_HALF)
    code, out = run_cli(capsys, ["count", "--complex", cx, "--map", mp,
                                 "--plane", pl, "--nmax", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["count"] == 2
    # N - 1 + S conditions: 4 * 2 coordinates and the two edges
    assert report["certificate"] == {"status": "ok", "conditions": 7 + 2,
                                     "failed_index": None}


@pytest.mark.parametrize("verb_args", [
    ["count", "--nmax", "1"],
    ["section", "--eps", "1"],
    ["cotype", "--q", "2", "--eps", "1"],
])
def test_map_missing_vertex_exit_2(capsys, tmp_path, verb_args):
    cx = write(tmp_path, "k.cx", "v a\nv b\ns a b\n")
    mp = write(tmp_path, "g.map", "m 2\np a 1/3 2/5\n")
    pl = write(tmp_path, "p.json", VERTICAL_HALF)
    verb, *rest = verb_args
    code, out = run_cli(capsys, [verb, "--complex", cx, "--map", mp,
                                 "--plane", pl, *rest])
    assert code == 2
    report = json.loads(out)
    assert report["exit_code"] == 2
    assert "missing vertex 'b'" in report["error"]


@pytest.mark.parametrize("verb_args", [
    ["count", "--plane", "PLANE", "--nmax", "1"],
    ["section", "--plane", "PLANE", "--eps", "1"],
    ["cotype", "--plane", "PLANE", "--q", "2", "--eps", "1"],
    ["perturb", "--eps", "1", "--out", "OUT"],
])
def test_map_header_with_non_ascii_digit_exit_2(capsys, tmp_path, verb_args):
    # "²".isdigit() holds but int("²") raises: the header is a parse error
    cx = write(tmp_path, "k.cx", TWO_EDGES_COMPLEX)
    mp = write(tmp_path, "g.map", "m \u00b2\n")
    pl = write(tmp_path, "p.json", VERTICAL_HALF)
    verb, *rest = verb_args
    rest = [pl if x == "PLANE" else str(tmp_path / "out.map") if x == "OUT"
            else x for x in rest]
    code, out = run_cli(capsys, [verb, "--complex", cx, "--map", mp, *rest])
    assert code == 2
    report = json.loads(out)  # exactly one JSON document
    assert report["exit_code"] == 2
    assert "header needs one count" in report["error"]


# JSON values that int() or iteration used to coerce into a valid family
PLANE_FAMILY = {"m": 3, "St": [], "ST": [1, 2], "d": 2}
_BAD_FAMILY_FIELDS = [{"m": 3.0}, {"m": 3.9}, {"d": True}, {"d": "2"},
                      {"ST": "12"}, {"St": [1.0]}]


@pytest.mark.parametrize("bad", _BAD_FAMILY_FIELDS)
def test_stab_family_needs_json_integers_and_lists_exit_2(capsys, tmp_path, bad):
    fam = write(tmp_path, "f.json", dict(PLANE_FAMILY, **bad))
    sets = write(tmp_path, "s.json",
                 {"m": 3, "sets": [[["0", "0", "0"]], [["5", "0", "0"]]]})
    code, out = run_cli(capsys, ["stab", "--family", fam, "--sets", sets])
    assert code == 2
    assert json.loads(out)["exit_code"] == 2


@pytest.mark.parametrize("bad", [{"m": 2.0}, {"d": True}, {"St": "2"},
                                 {"basepoint": "10"}, {"extra_dirs": ""},
                                 {"St": [], "extra_dirs": ["01"]}])
def test_count_plane_needs_json_integers_and_lists_exit_2(capsys, tmp_path, bad):
    cx = write(tmp_path, "k.cx", TWO_EDGES_COMPLEX)
    mp = write(tmp_path, "g.map", TWO_EDGES_MAP)
    pl = write(tmp_path, "p.json", dict(VERTICAL_HALF, **bad))
    code, out = run_cli(capsys, ["count", "--complex", cx, "--map", mp,
                                 "--plane", pl, "--nmax", "1"])
    assert code == 2
    assert json.loads(out)["exit_code"] == 2


@pytest.mark.parametrize("verb_args", [
    ["count", "--nmax", "1"],
    ["section", "--eps", "1"],
    ["cotype", "--q", "2", "--eps", "1"],
])
@pytest.mark.parametrize("plane, message", [
    ([VERTICAL_HALF], "plane must be a JSON dict, got [{"),
    (dict(VERTICAL_HALF, basepoint=[1, 1, 1]),
     "basepoint coordinate must be a JSON str, got 1"),
    (dict(VERTICAL_HALF, St=[], extra_dirs=[["0", 1]]),
     "extra_dirs coordinate must be a JSON str, got 1"),
])
def test_plane_json_errors_name_the_field_exit_2(capsys, tmp_path, verb_args,
                                                 plane, message):
    cx = write(tmp_path, "k.cx", TWO_EDGES_COMPLEX)
    mp = write(tmp_path, "g.map", TWO_EDGES_MAP)
    pl = write(tmp_path, "p.json", plane)
    verb, *rest = verb_args
    code, out = run_cli(capsys, [verb, "--complex", cx, "--map", mp,
                                 "--plane", pl, *rest])
    assert code == 2
    report = json.loads(out)
    assert report["exit_code"] == 2
    assert report["error"].startswith(f"{pl}: {message}")


def test_stab_family_must_be_a_json_object_exit_2(capsys, tmp_path):
    fam = write(tmp_path, "f.json", [PLANE_FAMILY])
    sets = write(tmp_path, "s.json",
                 {"m": 3, "sets": [[["0", "0", "0"]], [["5", "0", "0"]]]})
    code, out = run_cli(capsys, ["stab", "--family", fam, "--sets", sets])
    assert code == 2
    report = json.loads(out)
    assert report["exit_code"] == 2
    assert report["error"].startswith(f"{fam}: family must be a JSON dict")


def _without(data, key):
    return {k: v for k, v in data.items() if k != key}


_WITNESS_FIXTURE = {"name": "hand-aligned", "family": E1_LINE_FAMILY,
                    "sets": [[["0", "0", "0"]], [["5", "0", "0"]]],
                    "expect": "witness"}


@pytest.mark.parametrize("files, argv, error", [
    ({"p.json": _without(VERTICAL_HALF, "basepoint")},
     ["section", "--complex", "k.cx", "--map", "g.map", "--plane", "p.json",
      "--eps", "1"], "p.json: missing field 'basepoint'"),
    ({"f.json": _without(Z_AXIS_FAMILY, "d"), "s.json": Z_AXIS_SETS},
     ["stab", "--family", "f.json", "--sets", "s.json"],
     "f.json: missing field 'd'"),
    ({"f.json": Z_AXIS_FAMILY, "s.json": [1]},
     ["stab", "--family", "f.json", "--sets", "s.json"],
     "s.json: sets file must be a JSON dict, got [1]"),
    ({"grid.json": {"suites": [{"m_max": 2}]}},
     ["verify", "--grid", "grid.json", "--trials", "1"],
     "grid.json: missing field 'kind'"),
    ({"grid.json": {"fixtures": [_without(_WITNESS_FIXTURE, "family")]}},
     ["verify", "--grid", "grid.json", "--trials", "1"],
     "grid.json: missing field 'family'"),
])
def test_missing_json_field_is_named_exit_2(capsys, tmp_path, monkeypatch,
                                            files, argv, error):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "k.cx", TWO_EDGES_COMPLEX)
    write(tmp_path, "g.map", TWO_EDGES_MAP)
    for name, content in files.items():
        write(tmp_path, name, content)
    code, out = run_cli(capsys, argv)
    assert code == 2
    assert json.loads(out)["error"] == error


@pytest.mark.parametrize("bad", _BAD_FAMILY_FIELDS)
def test_verify_fixture_family_needs_json_integers_and_lists_exit_2(
        capsys, tmp_path, bad):
    grid = write(tmp_path, "grid.json", {"fixtures": [{
        "name": "coerced", "family": dict(PLANE_FAMILY, **bad),
        "sets": [[["0", "0", "0"]], [["5", "0", "0"]]],
        "expect": "witness",
    }]})
    code, out = run_cli(capsys, ["verify", "--grid", grid,
                                 "--trials", "1", "--seed", "0"])
    assert code == 2
    assert json.loads(out)["exit_code"] == 2


@pytest.mark.parametrize("sets", [
    [["00"], ["50"]],                   # string points were split into digits
    [[["0", "0", "0"]], [["1", "1"]]],  # a point of the wrong length
    [[[0, 0]], [[1, 1]]],               # coordinates must be rational strings
    [], [[], [["1", "1"]]], "00",
])
def test_stab_point_sets_need_lists_of_m_rational_strings_exit_2(
        capsys, tmp_path, sets):
    fam = write(tmp_path, "f.json", {"m": 2, "St": [], "ST": [1], "d": 1})
    path = write(tmp_path, "s.json", {"m": 2, "sets": sets})
    code, out = run_cli(capsys, ["stab", "--family", fam, "--sets", path])
    assert code == 2
    assert json.loads(out)["exit_code"] == 2


@pytest.mark.parametrize("change, error", [
    ({"extra": 1}, "unknown sets file key 'extra'"),
    ({"m": 7}, "m must be the family's m, 3, got 7"),
    ({"m": 3.0}, "m must be the family's m, 3, got 3.0"),
    ({"m": "3"}, "m must be the family's m, 3, got '3'"),
], ids=["key", "m", "float-m", "string-m"])
def test_stab_sets_file_keys_and_m_exit_2(capsys, tmp_path, change, error):
    fam = write(tmp_path, "f.json", Z_AXIS_FAMILY)
    sets = write(tmp_path, "s.json", dict(Z_AXIS_SETS, **change))
    code, report = _report(capsys, ["stab", "--family", fam, "--sets", sets])
    assert (code, report["error"]) == (2, f"{sets}: {error}")


def test_stab_sets_file_m_may_be_left_out(capsys, tmp_path):
    fam = write(tmp_path, "f.json", Z_AXIS_FAMILY)
    sets = write(tmp_path, "s.json", _without(Z_AXIS_SETS, "m"))
    code, report = _report(capsys, ["stab", "--family", fam, "--sets", sets])
    assert code == 0


@pytest.mark.parametrize("sets", [[[["0", "0", "0"]], [["1", "1"]]],
                                  [["00"], ["11"]]])
def test_verify_fixture_point_sets_need_m_coordinates_exit_2(capsys, tmp_path,
                                                             sets):
    grid = write(tmp_path, "grid.json", {"fixtures": [{
        "name": "malformed", "family": {"m": 2, "St": [], "ST": [1, 2], "d": 1},
        "sets": sets, "expect": "witness",
    }]})
    code, out = run_cli(capsys, ["verify", "--grid", grid,
                                 "--trials", "1", "--seed", "0"])
    assert code == 2
    assert json.loads(out)["exit_code"] == 2


@pytest.mark.parametrize("budget", ["300", 2.9, True, -1])
def test_verify_fixture_budget_must_be_a_counting_integer_exit_2(
        capsys, tmp_path, budget):
    fixture = {"name": "search", "family": Z_AXIS_FAMILY,
               "sets": Z_AXIS_SETS["sets"], "budget": budget,
               "expect": "witness"}
    grid = write(tmp_path, "grid.json", {"fixtures": [fixture]})
    code, out = run_cli(capsys, ["verify", "--grid", grid,
                                 "--trials", "1", "--seed", "0"])
    assert code == 2
    report = json.loads(out)
    assert report["exit_code"] == 2
    assert "budget must be an integer >= 0" in report["error"]


# a fixture's input errors are exit 2, never a violation (exit 1): an
# expectation no decider answers, a key outside the fixture format, and a
# mode key naming another decider than the one the input selects
@pytest.mark.parametrize("change, error", [
    ({"expect": "witnes"}, "fixture expect must be one of witness, "
                           "infeasible, no_stab, not_found, got 'witnes'"),
    ({"budgte": 3}, "unknown fixture key 'budgte'"),
    ({"mode": "search"},
     "fixture mode 'search', but the input is decided by 'linear'"),
    ({"name": {"a": 1}}, "fixture name must be a JSON str, got {'a': 1}"),
], ids=["expect", "key", "mode", "name"])
def test_verify_fixture_input_errors_exit_2(capsys, tmp_path, change, error):
    grid = write(tmp_path, "grid.json",
                 {"fixtures": [dict(_WITNESS_FIXTURE, **change)]})
    code = main(["verify", "--grid", grid, "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    report = json.loads(captured.out)  # exactly one JSON document
    assert (report["exit_code"], report["error"]) == (2, f"{grid}: {error}")


def test_section_report(capsys, tmp_path):
    cx = write(tmp_path, "k.cx", TWO_EDGES_COMPLEX)
    mp = write(tmp_path, "g.map", TWO_EDGES_MAP)
    pl = write(tmp_path, "p.json", VERTICAL_HALF)
    code, out = run_cli(capsys, ["section", "--complex", cx, "--map", mp,
                                 "--plane", pl, "--eps", "1"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["pieces"] == 2
    assert result["components"] == 2
    assert result["result"] is True
    assert result["max_diameter_sq"] == "0"


def test_cotype_report(capsys, tmp_path):
    cx = write(tmp_path, "k.cx", TWO_EDGES_COMPLEX)
    mp = write(tmp_path, "g.map", TWO_EDGES_MAP)
    pl = write(tmp_path, "p.json", VERTICAL_HALF)
    code, out = run_cli(capsys, ["cotype", "--complex", cx, "--map", mp,
                                 "--plane", pl, "--q", "2", "--eps", "1"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["result"] is True
    assert len(result["clusters"]) <= 2
    code, out = run_cli(capsys, ["cotype", "--complex", cx, "--map", mp,
                                 "--plane", pl, "--q", "1", "--eps", "1"])
    assert json.loads(out)["result"]["result"] is False


def test_section_and_cotype_share_the_component_fields(capsys, tmp_path):
    cx = write(tmp_path, "k.cx", TWO_EDGES_COMPLEX)
    mp = write(tmp_path, "g.map", TWO_EDGES_MAP)
    pl = write(tmp_path, "p.json", VERTICAL_HALF)
    shared = {"pieces": 2, "components": 2, "max_diameter_sq": "0",
              "eps_sq": "1/4", "result": True}
    request = ["--complex", cx, "--map", mp, "--plane", pl, "--eps", "1/2"]
    code, out = run_cli(capsys, ["section", *request])
    assert (code, json.loads(out)["result"]) == (0, shared)
    code, out = run_cli(capsys, ["cotype", *request, "--q", "2"])
    assert (code, json.loads(out)["result"]) == (
        0, {**shared, "clusters": [[0], [1]]})


def test_verify_clean_grid_exit_0(capsys, tmp_path):
    grid = write(tmp_path, "grid.json",
                 {"suites": [{"kind": "linear", "m_max": 3, "n_max": 1}]})
    code, out = run_cli(capsys, ["verify", "--grid", grid,
                                 "--trials", "3", "--seed", "1"])
    assert code == 0
    assert json.loads(out)["result"]["violations"] == []


def test_verify_zero_trials_empty_report(capsys, tmp_path):
    grid = write(tmp_path, "grid.json",
                 {"suites": [{"kind": "linear", "m_max": 3, "n_max": 1}]})
    code, out = run_cli(capsys, ["verify", "--grid", grid,
                                 "--trials", "0", "--seed", "1"])
    assert code == 0


_NO_WORK = "grid needs a nonempty suites or fixtures list"


@pytest.mark.parametrize("grid,error", [
    pytest.param({}, _NO_WORK, id="grid0"),
    pytest.param([], "grid must be a JSON dict, got []", id="grid1"),
    pytest.param({"suites": [], "fixtures": []}, _NO_WORK, id="grid2"),
    pytest.param({"suites": {"kind": "linear"}},
                 "suites must be a JSON list, got {'kind': 'linear'}",
                 id="grid3"),
    pytest.param({"fixture": []}, "unknown grid key 'fixture'",
                 id="unknown-key"),
])
def test_verify_grid_without_work_exit_2(capsys, tmp_path, grid, error):
    # batch.run_grid checks the grid's type, keys and lists before it asks
    # for a suite or a fixture
    path = write(tmp_path, "grid.json", grid)
    code, out = run_cli(capsys, ["verify", "--grid", path,
                                 "--trials", "1", "--seed", "0"])
    report = json.loads(out)
    assert (code, report["exit_code"]) == (2, 2)
    assert report["error"] == f"{path}: {error}"


@pytest.mark.parametrize("suite", [{"kind": "linear", "m_max": -3},
                                   {"kind": "linear", "m_max": 0},
                                   {"kind": "univariate", "n_max": -1},
                                   {"kind": "linear", "m_max": 2.5},
                                   {"kind": "linear", "n_max": 1.0},
                                   {"kind": "linear", "m_max": "2"},
                                   {"kind": "linear", "m_max": True}])
def test_verify_suite_bounds_must_be_counting_integers_exit_2(capsys, tmp_path,
                                                               suite):
    path = write(tmp_path, "grid.json", {"suites": [suite]})
    code, out = run_cli(capsys, ["verify", "--grid", path,
                                 "--trials", "1", "--seed", "0"])
    assert code == 2
    report = json.loads(out)
    assert report["exit_code"] == 2
    assert "must be an integer" in report["error"]


@pytest.mark.parametrize("suites,error", [
    ([{"kind": "linear", "m_max": 7}], "m_max must be an integer <= 6, got 7"),
    ([{"kind": "linear", "m_max": 2, "n_max": 4}],
     "n_max must be an integer <= 3, got 4"),
    ([{"kind": "linear", "m_max": 2}, {"kind": "linear", "n_max": 9}],
     "n_max must be an integer <= 3, got 9"),
])
def test_verify_suite_bounds_have_a_ceiling_exit_2(capsys, tmp_path, suites,
                                                   error):
    # enumeration is exponential in m_max and n_max; with --trials 0 an
    # unbounded grid still only enumerates
    path = write(tmp_path, "grid.json", {"suites": suites})
    code, out = run_cli(capsys, ["verify", "--grid", path,
                                 "--trials", "0", "--seed", "0"])
    assert code == 2
    report = json.loads(out)
    assert report["exit_code"] == 2
    assert report["error"] == f"{path}: {error}"


@pytest.mark.parametrize("grid,error", [
    ({"suites": [1]}, "suite must be a JSON dict, got 1"),
    ({"suites": [{"kind": "linear"}], "fixtures": [3]},
     "fixture must be a JSON dict, got 3"),
    ({"fixtures": ["x"]}, "fixture must be a JSON dict, got 'x'"),
])
def test_verify_grid_entries_must_be_json_objects_exit_2(capsys, tmp_path,
                                                         grid, error):
    path = write(tmp_path, "grid.json", grid)
    code, out = run_cli(capsys, ["verify", "--grid", path,
                                 "--trials", "0", "--seed", "0"])
    assert code == 2
    assert json.loads(out)["error"] == f"{path}: {error}"


@pytest.mark.parametrize("grid,error", [
    ({"suites": [{"kind": "linear", "m_mx": 6, "n_max": 0}]},
     "unknown suite key 'm_mx'"),
    ({"suites": [{"kind": "linear", "m_max": 2}],
      "fixture": [_WITNESS_FIXTURE]}, "unknown grid key 'fixture'"),
    ({"suites": [{"kind": "linear", "m_max": 2}],
      "fixtures": [_without(_WITNESS_FIXTURE, "family")]},
     "missing field 'family'"),
    ({"suites": [{"kind": "linear", "m_max": 2}],
      "fixtures": [dict(_WITNESS_FIXTURE, sets=[])]},
     "need nonempty point sets"),
], ids=["suite", "grid", "fixture-family", "fixture-sets"])
def test_verify_unknown_grid_and_suite_keys_exit_2(capsys, tmp_path,
                                                   monkeypatch, grid, error):
    # checked before any cell is enumerated, let alone run
    def no_cells(m_max, n_max):
        raise AssertionError("cells enumerated before the grid's check")

    monkeypatch.setattr(batch, "linear_cells", no_cells)
    path = write(tmp_path, "grid.json", grid)
    code, out = run_cli(capsys, ["verify", "--grid", path,
                                 "--trials", "1", "--seed", "0"])
    assert code == 2
    assert json.loads(out)["error"] == f"{path}: {error}"


def test_verify_suite_ceiling_is_inclusive(capsys, tmp_path):
    path = write(tmp_path, "grid.json",
                 {"suites": [{"kind": "linear", "m_max": 6, "n_max": 3}]})
    code, out = run_cli(capsys, ["verify", "--grid", path,
                                 "--trials", "0", "--seed", "0"])
    assert code == 0
    assert len(json.loads(out)["result"]["cells"]) == 470


def test_verify_expected_witness_fixture_exit_0(capsys, tmp_path):
    grid = write(tmp_path, "grid.json", {"fixtures": [_WITNESS_FIXTURE]})
    code, out = run_cli(capsys, ["verify", "--grid", grid,
                                 "--trials", "1", "--seed", "0"])
    assert code == 0
    report = json.loads(out)["result"]
    assert report["fixtures"][0]["status"] == "witness"


def test_verify_violation_exit_1(capsys, tmp_path):
    grid = write(tmp_path, "grid.json", {"fixtures": [{
        "name": "should-miss-but-hits", "family": E1_LINE_FAMILY,
        "sets": [[["0", "0", "0"]], [["5", "0", "0"]]],
        "expect": "infeasible",
    }]})
    code, out = run_cli(capsys, ["verify", "--grid", grid,
                                 "--trials", "1", "--seed", "0"])
    assert code == 1
    report = json.loads(out)
    assert report["exit_code"] == 1
    assert report["result"]["violations"]


def test_reports_byte_identical(capsys, tmp_path):
    fam = write(tmp_path, "f.json", Z_AXIS_FAMILY)
    sets = write(tmp_path, "s.json", Z_AXIS_SETS)
    argv = ["stab", "--family", fam, "--sets", sets, "--budget", "300",
            "--seed", "7"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second


def test_reports_byte_identical_across_processes(tmp_path):
    env_a = dict(os.environ, PYTHONHASHSEED="1")
    env_b = dict(os.environ, PYTHONHASHSEED="97")
    cx = tmp_path / "k.cx"
    argv = [sys.executable, "-m", "plstab.cli", "gen", "--vertices", "7",
            "--dim", "2", "--density", "1/3", "--seed", "11",
            "--out", str(cx)]
    first = subprocess.run(argv, capture_output=True, env=env_a)
    out_first = cx.read_bytes()
    second = subprocess.run(argv, capture_output=True, env=env_b)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert cx.read_bytes() == out_first


# Small valid input files, one per file flag; the fuzz mutates their bytes.
_FUZZ_FILES = {
    "--complex": TWO_EDGES_COMPLEX, "--map": TWO_EDGES_MAP,
    "--plane": VERTICAL_HALF, "--family": Z_AXIS_FAMILY, "--sets": Z_AXIS_SETS,
    "--grid": {"suites": [{"kind": "linear", "m_max": 2, "n_max": 1}],
               "fixtures": [_WITNESS_FIXTURE]},
}
# drawn sizes stay small: runs are exponential in some of these flags
_FUZZ_INT_MAX = {"--vertices": 6, "--trials": 1, "--budget": 20, "--nmax": 3}
_FUZZ_RATIONALS = ("1/3", "1/2", "1", "2", "0", "-1/2")
_FUZZ_GARBAGE = ("", "x", "-1", "1.5", "1/0", "-", "--", "²", "0x1", "{}")


def _fuzz_file(data, tmp_path, flag) -> str:
    content = _FUZZ_FILES[flag]
    raw = (json.dumps(content) if isinstance(content, dict)
           else content).encode()
    how = data.draw(st.sampled_from(
        ("keep",) * 6 + ("truncate", "flip", "non-utf8")))
    at = data.draw(st.integers(0, len(raw) - 1))
    if how == "truncate":
        raw = raw[:at]
    elif how == "flip":  # one bit: a digit of m_max = 2 becomes at most 6
        bit = 1 << data.draw(st.integers(0, 7))
        raw = raw[:at] + bytes([raw[at] ^ bit]) + raw[at + 1:]
    elif how == "non-utf8":
        raw = raw[:at] + b"\xff\xfe" + raw[at:]
    path = tmp_path / flag[2:]
    path.write_bytes(raw)
    return str(path)


def _fuzz_value(data, tmp_path, flag) -> str:
    if flag.name in _FUZZ_FILES:
        return _fuzz_file(data, tmp_path, flag.name)
    if flag.name == "--out":
        return data.draw(st.sampled_from(
            (str(tmp_path / "out"), str(tmp_path / "missing" / "out"))))
    if flag.kind is int:
        top = _FUZZ_INT_MAX.get(flag.name, 6)
        return str(data.draw(st.integers(0, top)))
    return data.draw(st.sampled_from(_FUZZ_RATIONALS))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_argv_and_files_give_one_json_report(capsys, monkeypatch,
                                                    tmp_path, data):
    # Flags of a verb from the table, each kept, dropped, given twice or given
    # a garbage value, and mutated input files: whatever goes in, the run
    # exits 0-3 with exactly one JSON report and nothing on stderr.  A garbage
    # value is a relative path, so the run works in tmp_path.
    monkeypatch.chdir(tmp_path)
    verb = data.draw(st.sampled_from((*_VERBS, "frobnicate", "")))
    flags = _VERBS[data.draw(st.sampled_from(tuple(_VERBS)))
                   if verb not in _VERBS else verb][2]
    argv = [verb] if verb else []
    for flag in flags:
        how = data.draw(st.sampled_from(
            ("keep",) * 12 + ("drop", "twice", "garbage")))
        for _ in range({"drop": 0, "twice": 2}.get(how, 1)):
            argv += [flag.name, data.draw(st.sampled_from(_FUZZ_GARBAGE))
                     if how == "garbage" else _fuzz_value(data, tmp_path, flag)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code in {0, 1, 2, 3}
    report = json.loads(captured.out)  # exactly one JSON document
    assert report["command"] == argv and report["exit_code"] == code
    assert captured.err == ""


# --- error paths and inputs past Python's recursion limit --------------------

def _report(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)  # exactly one JSON document
    assert report["exit_code"] == code
    return code, report


def test_count_packs_more_simplexes_than_the_recursion_limit(capsys,
                                                             tmp_path):
    # 1,100 isolated vertices on the line, all stabbed by the whole line
    n = 1100
    cx = write(tmp_path, "k.cx", "".join(f"v x{i}\n" for i in range(n)))
    mp = write(tmp_path, "g.map",
               "m 1\n" + "".join(f"p x{i} {i}\n" for i in range(n)))
    pl = write(tmp_path, "p.json", {"m": 1, "St": [], "ST": [1], "d": 1,
                                    "basepoint": ["0"], "extra_dirs": [["1"]]})
    code, report = _report(capsys, ["count", "--complex", cx, "--map", mp,
                                    "--plane", pl, "--nmax", "0"])
    assert code == 0
    assert report["result"]["count"] == n
    assert len(report["result"]["witness_family"]) == n


_DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("verb", ["verify", "stab"])
def test_too_deeply_nested_json_exit_2(capsys, tmp_path, verb):
    deep = write(tmp_path, "deep.json", _DEEP_JSON)
    if verb == "verify":
        argv = ["verify", "--grid", deep, "--trials", "1"]
    else:
        argv = ["stab", "--family", deep,
                "--sets", write(tmp_path, "s.json", Z_AXIS_SETS)]
    code, report = _report(capsys, argv)
    assert code == 2
    assert report["error"].startswith(f"{deep}: invalid JSON: ")


@pytest.mark.parametrize("verb_args", [
    ["count", "--plane", "PLANE", "--nmax", "1"],
    ["perturb", "--eps", "1", "--out", "OUT"],
], ids=["count", "perturb"])
@pytest.mark.parametrize("complex_text, map_text, at_fault, error", [
    ("v a\nq\n", TWO_EDGES_MAP, "k.cx", "line 2: malformed line 'q'"),
    (TWO_EDGES_COMPLEX, "m 2\np a 1\n", "g.map",
     "line 2: expected id plus 2 coordinates"),
], ids=["complex", "map"])
def test_complex_and_map_parse_errors_name_the_file_exit_2(
        capsys, tmp_path, monkeypatch, verb_args, complex_text, map_text,
        at_fault, error):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "k.cx", complex_text)
    write(tmp_path, "g.map", map_text)
    write(tmp_path, "p.json", VERTICAL_HALF)
    verb, *rest = verb_args
    rest = [{"PLANE": "p.json", "OUT": "out.map"}.get(x, x) for x in rest]
    code, report = _report(capsys, [verb, "--complex", "k.cx", "--map", "g.map",
                                    *rest])
    assert (code, report["error"]) == (2, f"{at_fault}: {error}")


def test_json_integer_past_the_conversion_limit_names_the_file_exit_2(
        capsys, tmp_path):
    # Python refuses to convert an integer literal of over 4,300 digits
    cx = write(tmp_path, "k.cx", TWO_EDGES_COMPLEX)
    mp = write(tmp_path, "g.map", TWO_EDGES_MAP)
    pl = write(tmp_path, "p.json",
               json.dumps(VERTICAL_HALF).replace('"d": 1', '"d": 1' + "0" * 5000))
    code, report = _report(capsys, ["count", "--complex", cx, "--map", mp,
                                    "--plane", pl, "--nmax", "1"])
    assert code == 2
    assert report["error"].startswith(f"{pl}: invalid JSON: ")


def _edges_crossing_one_line(n):
    """n disjoint edges of R^2 in generic position, each crossing x = 1/2."""
    cx = "".join(f"v a{i}\nv b{i}\n" for i in range(n))
    cx += "".join(f"s a{i} b{i}\n" for i in range(n))
    point = "p {} {} {}\n".format
    mp = "m 2\n" + "".join(
        point(f"a{i}", format_rational(Fraction(1, 101) + Fraction(i, 1000)),
              format_rational(2 * i + 1 + Fraction(1, 7)))
        + point(f"b{i}", format_rational(Fraction(102, 101) + Fraction(i, 999)),
                format_rational(2 * i + 1 + Fraction(1, 9)))
        for i in range(n))
    return cx, mp


def test_cotype_component_limit_exit_2(capsys, tmp_path):
    cx, mp = _edges_crossing_one_line(13)
    cx, mp = write(tmp_path, "k.cx", cx), write(tmp_path, "g.map", mp)
    pl = write(tmp_path, "p.json", VERTICAL_HALF)
    code, report = _report(capsys, ["cotype", "--complex", cx, "--map", mp,
                                    "--plane", pl, "--q", "2",
                                    "--eps", "1/2"])
    assert (code, report["error"]) == (
        2, "13 components exceed the exact clusterer limit of 12")


def test_count_uncertified_map_exit_3(capsys, tmp_path):
    cx = write(tmp_path, "k.cx", TWO_EDGES_COMPLEX)
    # a and b share their first coordinate
    mp = write(tmp_path, "g.map", TWO_EDGES_MAP.replace("102/101 1/9",
                                                         "1/101 1/9"))
    pl = write(tmp_path, "p.json", VERTICAL_HALF)
    code, report = _report(capsys, ["count", "--complex", cx, "--map", mp,
                                    "--plane", pl, "--nmax", "1"])
    assert (code, report["error"]) == (
        3, "map fails genericity certification; regenerate with perturb")


def test_plane_and_map_dimensions_differ_exit_2(capsys, tmp_path):
    cx = write(tmp_path, "k.cx", TWO_EDGES_COMPLEX)
    mp = write(tmp_path, "g.map", TWO_EDGES_MAP)
    pl = write(tmp_path, "p.json", {"m": 3, "St": [3], "ST": [3], "d": 1,
                                    "basepoint": ["1/2", "0", "0"]})
    code, report = _report(capsys, ["count", "--complex", cx, "--map", mp,
                                    "--plane", pl, "--nmax", "1"])
    assert (code, report["error"]) == (
        2, f"{pl}: plane lives in dimension 3, map in 2")


def test_cli_error_carries_no_exit_code():
    # main alone picks the exit code, from the type of the error
    assert not hasattr(CliError("x"), "exit_code")

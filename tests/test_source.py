import ast
import sys
from pathlib import Path

import pytest

import plstab
from plstab.cli import _VERBS
from plstab.ratmath import parse_integer, parse_rational


def test_no_correctness_check_relies_on_assert():
    # `python -O` strips assert statements, so checks must raise explicitly.
    found = []
    for path in sorted(Path(plstab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_oracles_import_nothing_from_plstab():
    # The oracles check plstab, so none of them may run plstab code.
    path = Path(__file__).with_name("oracles.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"oracles.py:{node.lineno}" for alias in node.names
                      if alias.name.split(".")[0] == "plstab"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "plstab":
                found.append(f"oracles.py:{node.lineno}")
    assert found == []


def test_no_library_module_imports_argparse():
    # The CLI reads argv straight off its verb table: no second parser.
    found = []
    for path in sorted(Path(plstab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module or ""]
                     if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "argparse"]
    assert found == []


def test_only_ratmath_reads_digits():
    # One number grammar: argv, map files and JSON read their digits
    # through ratmath.parse_integer and parse_rational alone, so only
    # ratmath holds a regular expression, no other module names its
    # patterns, and no module asks Python's Unicode digit predicates,
    # which admit other scripts' digits.
    patterns = {"_INTEGER_RE", "_RATIONAL_RE"}
    regex, borrowed, predicates = [], [], []
    for path in sorted(Path(plstab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = ([alias.name for alias in node.names]
                           if isinstance(node, ast.Import)
                           else [node.module or ""])
                regex += [path.name for module in modules
                          if module.split(".")[0] == "re"]
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
                if node.attr in {"isdigit", "isdecimal", "isnumeric"}:
                    predicates.append(f"{path.name}:{node.lineno} {node.attr}")
            else:
                continue
            if path.name != "ratmath.py":
                borrowed += [f"{path.name}:{node.lineno} {name}"
                             for name in names if name in patterns]
    assert regex == ["ratmath.py"]
    assert borrowed == []
    assert predicates == []


def test_every_flag_is_read_by_the_number_grammar():
    # A flag's kind is the parser of its value: text, or a ratmath literal.
    kinds = {f.kind for _, _, flags in _VERBS.values() for f in flags}
    assert kinds <= {str, parse_integer, parse_rational}
    assert {parse_integer, parse_rational} <= kinds


def test_only_ascii_digits_are_digits():
    # Every other character that Python calls a decimal digit is rejected
    # by both parsers, alone and inside a literal.
    others = [chr(c) for c in range(sys.maxunicode + 1)
              if chr(c).isdecimal() and not "0" <= chr(c) <= "9"]
    assert len(others) > 600
    for ch in others:
        for text in (ch, "1" + ch, "-" + ch):
            with pytest.raises(ValueError):
                parse_integer(text)
        for text in (ch, "1" + ch, ch + "/2", "1/" + ch):
            with pytest.raises(ValueError):
                parse_rational(text)


# math functions that take and return integers; every other one returns a float
_INTEGER_MATH = {"gcd", "lcm", "isqrt", "comb", "prod"}


def test_no_float_in_library():
    # Every decision is exact: no float literal, no float() call and no
    # float-valued math function anywhere in the library.
    found = []
    for path in sorted(Path(plstab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{where} literal {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append(f"{where} float()")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "math" and node.attr not in _INTEGER_MATH):
                found.append(f"{where} math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [f"{where} from math import {alias.name}"
                          for alias in node.names if alias.name not in _INTEGER_MATH]
    assert found == []


# Entry points README documents; the benchmark and the tests call them.  A
# method is named with its class: the Fraction constructors and views of
# the section's integer form.
_ENTRY_POINTS = {"image_point", "random_map", "sample_plane_random",
                 "sample_plane_adversarial", "run_stab_fixture",
                 "PlanarSection.of", "PlanarSection.fractions",
                 "ComponentPartition.of", "ComponentPartition.fractions"}


def test_every_public_library_function_has_a_caller():
    # Code that nothing runs is deleted: every module-level public def or
    # class, and every public method of a public class, must be named
    # somewhere in the library outside its own body.  Imports do not count,
    # and __init__.py only re-exports.  Private classes are skipped, since
    # their methods may override a base class's.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(plstab.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"}
    uses = [(name, node.lineno,
             node.id if isinstance(node, ast.Name) else node.attr)
            for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in _ENTRY_POINTS):
                continue
            defs = [node]
            if isinstance(node, ast.ClassDef):
                defs += [d for d in node.body if isinstance(d, ast.FunctionDef)
                         and not d.name.startswith("_")
                         and f"{node.name}.{d.name}" not in _ENTRY_POINTS]
            found += [f"{name}:{d.lineno} {d.name}" for d in defs
                      if not any(used == d.name and not (
                          where == name and d.lineno <= line <= d.end_lineno)
                          for where, line, used in uses)]
    assert found == []


def test_only_ratmath_runs_the_integer_elimination():
    # One elimination kernel and one determinant: any other module reaches
    # _echelon and _pivot only through a ratmath entry point, never by
    # calling or importing them itself.
    kernel = {"_echelon", "_pivot"}
    found = []
    for path in sorted(Path(plstab.__file__).parent.glob("*.py")):
        if path.name == "ratmath.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}"
                      for name in names if name in kernel]
    assert found == []


def _truthy_constant(node):
    return isinstance(node, ast.Constant) and bool(node.value)


def test_no_vacuous_assert_in_tests():
    # An assert whose test is a truthy constant, or an `or` with a truthy
    # constant operand, holds whatever the code under test does.
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assert):
                continue
            test = node.test
            if _truthy_constant(test) or (
                    isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or)
                    and any(_truthy_constant(v) for v in test.values)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _transversal_calls():
    """Each module-level transversal function, by name, with the names it
    calls (nested functions included)."""
    path = Path(plstab.__file__).with_name("transversal.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {body.name: {node.func.id for node in ast.walk(body)
                        if isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)}
            for body in tree.body if isinstance(body, ast.FunctionDef)}


def _callers(callee):
    """The transversal functions that call callee."""
    return {name for name, called in _transversal_calls().items()
            if callee in called}


def test_witness_recheck_shares_no_helper_with_the_deciders():
    # verify_stab_witness re-checks what the deciders build from the
    # constraint flat and the met points, so it computes its own sums.
    calls = _transversal_calls()
    helpers = {"stab_regime", "_met", "_block_differences", "_rows_at",
               "_stabs_at", "_flat_point"}
    assert calls["verify_stab_witness"] & helpers == set()
    assert helpers <= calls.keys()


def test_interval_recheck_does_not_run_the_isolation():
    # verify_interval_certificate re-checks the interval _isolate returns,
    # so it takes its own square-free part and root count.
    calls = _transversal_calls()
    assert "_isolate" not in calls["verify_interval_certificate"]
    assert "_isolate" in calls
    assert "_isolate" in calls["stab_decide_univariate"]


def test_only_stab_regime_solves_the_constraint_flat():
    # One regime rule: stab_regime alone builds and solves the flat's
    # rows, batch asks it instead of solving its own, and no decider
    # answers "not applicable".
    assert _callers("hull_rows") == {"stab_regime"}
    path = Path(plstab.__file__).with_name("batch.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "stab_regime" in imported and "hull_rows" not in imported
    assert [path.name for path in Path(plstab.__file__).parent.glob("*.py")
            if "not_applicable" in path.read_text(encoding="utf-8")] == []


def test_the_deciders_read_one_integer_form_of_the_point_sets():
    # Point sets are cleared once, into a PointSets, by PointSets.of or
    # straight from a draw: stab_regime solves the flat's integer rows,
    # no transversal function solves Fraction rows, the deciders clear
    # only lambdas, flat points and covectors, never the points again, and
    # a draw reads the integer kernel, not draw_near's Fraction.
    calls = _transversal_calls()
    assert "_solve_augmented" in calls["stab_regime"]
    assert _callers("solve_affine") == set()
    assert _callers("_cleared") == {"_block_differences", "_rows_at",
                                    "stabbed_simplexes"}
    path = Path(plstab.__file__).with_name("batch.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    draw = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "draw_point_sets")
    named = {node.attr for node in ast.walk(draw)
             if isinstance(node, ast.Attribute)}
    assert "draw_integers" in named and "draw_near" not in named


def test_one_stab_test_at_a_lambda():
    # The deciders share one integer difference builder, one reading of its
    # rows at a flat point, one rank test and one flat point: each decider
    # runs _block_differences once, at the flat's base (linear), base and
    # direction (univariate) or base and basis (search); _rows_at alone
    # reads those rows at a flat point, for the rank test and the search
    # objective; only _stabs_at takes a rank and only the search objective
    # a determinant; the Fraction met points serve the witness alone; and
    # the search and the univariate decider reach the witness's lambda on
    # the flat through _flat_point.
    assert _callers("_block_differences") == {
        "stab_exists_linear", "_projected_difference_polys",
        "stab_search_general"}
    assert "_cleared" in _transversal_calls()["_block_differences"]
    assert _callers("_rows_at") == {"_stabs_at", "_gram_det"}
    assert _callers("mat_rank") == {"_stabs_at"}
    assert _callers("_minor") == {"_gram_det"}
    assert _callers("_gram_det") == {"stab_search_general"}
    assert _callers("_met") == {"_witness_from_lambda"}
    assert _callers("_stabs_at") == {"stab_exists_linear",
                                     "stab_search_general"}
    assert _callers("_flat_point") == {"stab_decide_univariate",
                                       "stab_search_general"}


def test_no_process_wide_cache_in_library():
    # Memoized state lives in objects that callers create and pass (a
    # GenericPool's candidate memo), never in a functools cache that every
    # call in the process shares.
    caches = {"lru_cache", "cache"}
    found = []
    for path in sorted(Path(plstab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "functools"}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{where} from functools import {alias.name}"
                          for alias in node.names if alias.name in caches]
            elif (isinstance(node, ast.Attribute) and node.attr in caches
                  and isinstance(node.value, ast.Name) and node.value.id in aliases):
                found.append(f"{where} functools.{node.attr}")
    assert found == []


def test_no_library_function_calls_itself():
    # Recursion depth grows with the input (a continued fraction's length,
    # the number of stabbed simplexes), and Python's recursion limit would
    # turn a large input into a RecursionError; every search is a loop.
    found = []
    for path in sorted(Path(plstab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                if (isinstance(callee, ast.Name) and callee.id == func.name) or (
                        isinstance(callee, ast.Attribute)
                        and callee.attr == func.name
                        and isinstance(callee.value, ast.Name)
                        and callee.value.id in {"self", "cls"}):
                    found.append(f"{path.name}:{node.lineno} {func.name}")
    assert found == []


def test_the_decision_layer_takes_no_pool():
    # The stab search reads only an int seed, so transversal.py names no
    # GenericPool: a pool must not creep back into the decision layer.
    path = Path(plstab.__file__).with_name("transversal.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [f"transversal.py:{node.lineno}" for name in names
                  if name == "GenericPool"]
    assert found == []


def test_sections_walk_no_faces():
    # stabbed_simplexes is the one walk over the faces: it hands each
    # stabbed simplex its minimal stabbed faces, so sections never sorts
    # the complex and _section enumerates no subsets of a simplex.
    path = Path(plstab.__file__).with_name("sections.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def names(root):
        return [(node.lineno, node.id if isinstance(node, ast.Name)
                 else node.attr) for node in ast.walk(root)
                if isinstance(node, (ast.Name, ast.Attribute))]

    assert [line for line, name in names(tree)
            if name == "sorted_simplexes"] == []
    section = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "_section")
    subsets = {"itertools", "combinations", "product", "powerset"}
    assert [line for line, name in names(section) if name in subsets] == []
    assert [name for _, name in names(section)].count("stabbed_simplexes") == 1


def test_one_closure_walk_and_one_map_certificate():
    # The closure walk records the maximal simplexes, so neither
    # maximal_simplexes nor dim reads the faces again, and the walk's is
    # the one facet comprehension; certify_map and roberts_perturb build a
    # map's certificate through one helper, which nothing else duplicates.
    path = Path(plstab.__file__).with_name("simplicial.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bodies = {node.name: node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)}

    def names(body):
        return {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(body)
                if isinstance(node, (ast.Name, ast.Attribute))}

    def callers(callee):
        return {name for name, body in bodies.items()
                for node in ast.walk(body) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == callee}

    assert "simplexes" not in names(bodies["maximal_simplexes"])
    assert "simplexes" not in names(bodies["dim"])
    facets = [name for name, body in bodies.items()
              for node in ast.walk(body) if isinstance(node, ast.BinOp)
              and all(isinstance(side, ast.Subscript)
                      and isinstance(side.slice, ast.Slice)
                      for side in (node.left, node.right))]
    assert facets == ["_closure"]
    assert callers("certify") == {"_certified"}
    assert callers("generic_position_transcript") == {"_certified"}
    assert callers("_certified") == {"certify_map", "roberts_perturb"}


def test_only_the_family_splits_its_coordinates():
    # A family records its coordinate partition (block and outside) once:
    # outside PlaneFamily's class body, only family_to_json_dict reads
    # s_t or s_T, and every other reader takes the recorded partition.
    found = []
    for path in sorted(Path(plstab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = [(node.lineno, node.end_lineno) for node in tree.body
                   if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                   and node.name in {"PlaneFamily", "family_to_json_dict"}]
        found += [f"{path.name}:{node.lineno} {node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in {"s_t", "s_T"}
                  and not any(a <= node.lineno <= b for a, b in allowed)]
    assert found == []

"""Per-layer tracing from outside the program.

The tracer wraps public functions of each plstab module with timing
wrappers, rebinding every module attribute that refers to the original
function so that calls between modules are caught as well.  Nothing under
``src/`` changes: the wrappers live only in the benchmark process and are
removed again by :meth:`Tracer.uninstall`.

``time_s`` is inclusive wall time; ``self_s`` subtracts the time spent in
wrapped callees.  Counts (``calls`` and the per-layer counters a result hook
adds) depend only on the inputs, so two traced passes over one request
stream must report them identically.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict


def _len_result(stat, args, result):
    stat["hits"] += len(result)


def _not_applicable(stat, args, result):
    stat["not_applicable"] += result.status == "not_applicable"


def _evaluations(stat, args, result):
    stat["evaluations"] += result.evaluations


def _certificate(stat, args, result):
    stat["conditions"] += len(result.conditions)
    stat["failed"] += not result.ok


def _feasible(stat, args, result):
    stat["true"] += result is not None


def _intersects(stat, args, result):
    stat["true"] += bool(result)


def _trials(stat, args, result):
    stat["trials"] += args[1]


# layer -> (wrapped functions as "module.attr" or "module.Class.method", hook)
LAYERS = {
    "cli.main": (["cli.main"], None),
    "batch.cells": (["batch.linear_cells", "batch.univariate_cells"], None),
    "batch.run_cell": (["batch.run_linear_cell", "batch.run_univariate_cell"],
                       _trials),
    "batch.draw_point_sets": (["batch.draw_point_sets"], None),
    "transversal.stabbed_simplexes": (["transversal.stabbed_simplexes"],
                                      _len_result),
    "transversal.max_disjoint_stabbed": (["transversal.max_disjoint_stabbed"],
                                         None),
    "transversal.stab_exists_linear": (["transversal.stab_exists_linear"], None),
    "transversal.stab_decide_univariate": (
        ["transversal.stab_decide_univariate"], _not_applicable),
    "transversal.stab_search_general": (["transversal.stab_search_general"],
                                        _evaluations),
    "sections.section_of_image": (["sections.section_of_image"], None),
    "sections.preimage_polytopes": (["sections.preimage_polytopes"], None),
    "sections.compute_components": (["sections.compute_components"], None),
    "sections.polytopes_intersect": (["sections.polytopes_intersect"],
                                     _intersects),
    "sections.diameter_sq": (["sections.diameter_sq"], None),
    "sections.polytope_vertices": (["sections.polytope_vertices"], None),
    "sections.cluster_check": (["sections.cluster_check"], None),
    "sections.component_clusters": (["sections.component_clusters"], None),
    "simplicial.parse": (["simplicial.parse_complex", "simplicial.parse_map"],
                         None),
    "simplicial.certify_map": (["simplicial.certify_map"], None),
    "simplicial.roberts_perturb": (["simplicial.roberts_perturb"], None),
    "simplicial.generic_position_transcript": (
        ["simplicial.generic_position_transcript"], None),
    "generic.draw_near": (["generic.GenericPool.draw_near"], None),
    "generic.certify": (["generic.certify"], _certificate),
    "ratmath.lp_feasible": (["ratmath.lp_feasible"], _feasible),
    "ratmath.solve_affine": (["ratmath.solve_affine"], None),
    "ratmath.mat_rank": (["ratmath.mat_rank"], None),
    "ratmath.sturm": (["ratmath.sturm_root_exists", "ratmath.sturm_count"],
                      None),
}


# Reported per-layer metrics, named <layer>.<stat>.  A plain stat is one
# counter of its layer; a ratio divides two counters (0 when the layer was
# never called).  ``batch.cells.setup_s`` comes from a traced set-up, every
# other metric from a traced pass over the request stream.
COUNTS = [
    "ratmath.lp_feasible.calls", "ratmath.solve_affine.calls",
    "ratmath.mat_rank.calls", "ratmath.sturm.calls",
    "generic.draw_near.calls", "generic.certify.calls",
    "generic.certify.conditions", "batch.draw_point_sets.calls",
    "simplicial.certify_map.calls", "simplicial.roberts_perturb.calls",
    "transversal.stabbed_simplexes.calls", "transversal.stabbed_simplexes.hits",
    "transversal.stab_exists_linear.calls",
    "transversal.stab_decide_univariate.calls",
    "transversal.stab_search_general.calls",
    "transversal.stab_search_general.evaluations",
    "sections.compute_components.calls", "sections.polytopes_intersect.calls",
    "sections.diameter_sq.calls", "sections.polytope_vertices.calls",
    "cli.main.calls",
]
SECONDS = [
    "ratmath.lp_feasible.time_s", "ratmath.solve_affine.time_s",
    "ratmath.mat_rank.time_s", "ratmath.sturm.time_s",
    "generic.draw_near.time_s", "generic.certify.time_s",
    "batch.draw_point_sets.time_s", "batch.draw_point_sets.self_s",
    "batch.run_cell.time_s", "batch.cells.setup_s",
    "simplicial.certify_map.time_s", "simplicial.parse.time_s",
    "simplicial.roberts_perturb.time_s",
    "simplicial.generic_position_transcript.time_s",
    "transversal.stabbed_simplexes.time_s",
    "transversal.max_disjoint_stabbed.self_s",
    "transversal.stab_exists_linear.time_s",
    "transversal.stab_decide_univariate.time_s",
    "transversal.stab_search_general.time_s",
    "sections.compute_components.time_s", "sections.polytopes_intersect.time_s",
    "sections.diameter_sq.time_s", "sections.polytope_vertices.time_s",
    "sections.section_of_image.time_s", "sections.preimage_polytopes.time_s",
    "sections.cluster_check.time_s", "sections.component_clusters.time_s",
    "cli.main.time_s", "cli.main.self_s",
]
RATIOS = {
    "ratmath.lp_feasible.feasible_ratio": ("ratmath.lp_feasible.true",
                                           "ratmath.lp_feasible.calls"),
    "generic.certify.failed_ratio": ("generic.certify.failed",
                                     "generic.certify.calls"),
    "batch.draw_point_sets.draws_per_trial": ("batch.draw_point_sets.calls",
                                              "batch.run_cell.trials"),
    "transversal.stab_decide_univariate.not_applicable_ratio": (
        "transversal.stab_decide_univariate.not_applicable",
        "transversal.stab_decide_univariate.calls"),
    "sections.polytopes_intersect.true_ratio": (
        "sections.polytopes_intersect.true", "sections.polytopes_intersect.calls"),
}


class Tracer:
    """Timing wrappers around the functions named in LAYERS.

    Stats are kept per layer as a Counter of ``calls``, ``time_s``,
    ``self_s`` and the hook counters; :meth:`take` hands them over and
    starts a fresh set, so one install can measure several passes.
    """

    def __init__(self):
        self.stats: dict[str, Counter] = defaultdict(Counter)
        self._children: list[list[float]] = []  # callee time per open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer, fn, hook):
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = [0.0]
            children.append(inner)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children.pop()
                if children:
                    children[-1][0] += elapsed
                stat = self.stats[layer]
                stat["calls"] += 1
                stat["time_s"] += elapsed
                stat["self_s"] += elapsed - inner[0]
            if hook is not None:
                hook(self.stats[layer], args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "plstab" or name.startswith("plstab.")]
        for layer, (targets, hook) in LAYERS.items():
            for target in targets:
                module_name, *path = target.split(".")
                owner = importlib.import_module(f"plstab.{module_name}")
                for part in path[:-1]:  # a method: patch its class only
                    owner = getattr(owner, part)
                original = getattr(owner, path[-1], None)
                if original is None:  # gone from the library: reads as 0
                    continue
                wrapper = self._wrap(layer, original, hook)
                for namespace in (modules if len(path) == 1 else [owner]):
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patch(namespace, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def take(self) -> dict[str, Counter]:
        got, self.stats = self.stats, defaultdict(Counter)
        return got


def exact_counts(stats: dict[str, Counter]) -> dict[str, int]:
    """Every machine-independent count of a pass, keyed layer.counter."""
    return {f"{layer}.{key}": value for layer, counter in stats.items()
            for key, value in counter.items() if key not in ("time_s", "self_s")}


def per_layer_metrics(stats: dict[str, Counter]) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every COUNTS, SECONDS and RATIOS metric."""
    def get(name):
        layer, key = name.rsplit(".", 1)
        return stats.get(layer, Counter())[key]

    out = {name: (get(name), "count") for name in COUNTS}
    out.update((name, (get(name), "s")) for name in SECONDS)
    for name, (num, den) in RATIOS.items():
        out[name] = (get(num) / get(den) if get(den) else 0.0, "ratio")
    return out

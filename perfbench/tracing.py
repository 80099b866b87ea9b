"""Span recorder for the traced in-process replay.

The recorder wraps the public functions of each sbbd module in every module
namespace that binds them (the package, `cli`, and each layer), so calls
from one layer into another are seen.  Spans carry a name, start, end,
parent and run id, stay in memory, and are written out as JSON lines when
the benchmark ends.  Nothing under src/ is modified: the wrappers are
installed for a traced pass and removed afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = (
    "design_core", "rl_designs", "ordered_designs", "composer", "analyzer", "estimator", "masks",
)

# edge_column runs once per edge inside blocks_to_matrix; a span per call
# would cost more than the work it wraps, so its time stays in the caller.
UNTRACED = {"design_core.edge_column"}


def _gram(a, _):
    x = a["x"]
    return {"gram_macs": x.n_rows * (x.v1 * x.v2) ** 2}


def _out_len(key):
    return lambda a, out: {key: len(out) if out is not None else 0}


def _in_len(key):
    return lambda a, out: {key: len(a["text"])}


# Counts derived from argument shapes ("computed") or output sizes.
COUNTERS = {
    "design_core.matrix_to_csv": _out_len("csv_bytes"),
    "design_core.matrix_from_csv": _in_len("csv_bytes"),
    "design_core.blocks_to_json": _out_len("json_bytes"),
    "design_core.blocks_from_json": _in_len("json_bytes"),
    "ordered_designs.verify_od": lambda a, _: {"pair_cells": a["s"] * (a["s"] - 1) * a["n"] ** 2},
    "analyzer.information_matrix": _gram,
    "analyzer.check_sbbd": _gram,
    "analyzer.generalized_inverse": lambda a, _: {"ginv_entries": (a["info"].v1 * a["info"].v2) ** 2},
    "estimator.simulate": lambda a, _: {
        "noise_draws": a["runs"] * a["x"].n_rows,
        "projection_macs": a["runs"] * a["x"].n_rows * (a["x"].v1 - 1) * (a["x"].v2 - 1),
    },
    "masks.schedule_to_bytes": _out_len("bytes_out"),
    "masks.schedule_to_json": _out_len("bytes_out"),
}

# (span name, metric) for the self times reported per function.
SELF_TIMES = [
    ("design_core.matrix_to_csv", "design_core.matrix_to_csv_s"),
    ("design_core.matrix_from_csv", "design_core.matrix_from_csv_s"),
    ("design_core.matrix_to_blocks", "design_core.matrix_to_blocks_s"),
    ("design_core.blocks_to_json", "design_core.blocks_to_json_s"),
    ("design_core.blocks_from_json", "design_core.blocks_from_json_s"),
    ("design_core.blocks_to_matrix", "design_core.blocks_to_matrix_s"),
    ("rl_designs.catalog_by_id", "rl_designs.catalog_by_id_s"),
    ("rl_designs.incidence_matrix", "rl_designs.incidence_matrix_s"),
    ("ordered_designs.gf", "ordered_designs.gf_s"),
    ("ordered_designs.construct_od1", "ordered_designs.construct_od1_s"),
    ("ordered_designs.verify_od", "ordered_designs.verify_od_s"),
    ("composer.compose", "composer.compose_s"),
    ("analyzer.a_optimality", "analyzer.a_optimality_s"),
    ("analyzer.information_matrix", "analyzer.information_matrix_s"),
    ("analyzer.check_sbbd", "analyzer.check_sbbd_s"),
    ("analyzer.is_spanning", "analyzer.is_spanning_s"),
    ("analyzer.classify_blocks", "analyzer.classify_blocks_s"),
    ("analyzer.spectrum", "analyzer.spectrum_s"),
    ("analyzer.generalized_inverse", "analyzer.generalized_inverse_s"),
    ("estimator.simulate", "estimator.simulate_self_s"),
    ("estimator.contrast_basis", "estimator.contrast_basis_s"),
    ("estimator.random_effects", "estimator.random_effects_s"),
    ("masks.export_masks", "masks.export_masks_s"),
    ("masks.schedule_to_bytes", "masks.schedule_to_bytes_s"),
    ("masks.schedule_to_json", "masks.schedule_to_json_s"),
]

COUNTS = [
    "design_core.csv_bytes", "design_core.json_bytes", "ordered_designs.pair_cells",
    "analyzer.information_matrix_calls", "analyzer.check_sbbd_calls", "analyzer.violations",
    "analyzer.gram_macs", "analyzer.ginv_entries", "estimator.noise_draws",
    "estimator.projection_macs", "masks.bytes_out", "masks.refusals",
]

# Every per-layer metric with its unit, in report order.
PER_LAYER = (
    [("cli.import_s", "s"), ("cli.main_self_s", "s")]
    + [(metric, "s") for _, metric in SELF_TIMES]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(name, "bytes" if "bytes" in name else "count") for name in COUNTS]
    + [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_ratio", "ratio"),
       ("trace.spans", "count")]
)


class Recorder:
    """In-memory spans; `run` is the id of the CLI invocation being replayed."""

    def __init__(self):
        self.spans: list = []
        self.run = 0
        self._stack: list = []

    def wrap(self, name: str, fn, counter=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None, "run": self.run}
            self.spans.append(span)
            self._stack.append(span["id"])
            result = None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if counter is not None:
                    span["counts"] = counter(sig.bind(*args, **kwargs).arguments, result)

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def instrument(rec: Recorder):
    """Wrap every public layer function wherever it is bound; returns the undo."""
    modules = {layer: importlib.import_module(f"sbbd.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            qual = f"{layer}.{name}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and qual not in UNTRACED):
                wrapped[obj] = rec.wrap(qual, obj, COUNTERS.get(qual))
    namespaces = [importlib.import_module("sbbd"), importlib.import_module("sbbd.cli"),
                  *modules.values()]
    patched = []
    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(ns, name, wrapped[obj])
                patched.append((ns, name, obj))

    def undo():
        for ns, name, obj in patched:
            setattr(ns, name, obj)

    return undo


def aggregate(spans: list) -> dict:
    """Per-layer metrics of one traced pass; self time = duration minus children."""
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += s["end"] - s["start"]
    metric_of = dict(SELF_TIMES)
    out = {name: 0.0 for name, _ in PER_LAYER if not name.startswith(("trace.", "cli.import"))}
    for name in COUNTS:
        out[name] = 0
    for s in spans:
        own = (s["end"] - s["start"]) - children[s["id"]]
        layer = s["name"].split(".", 1)[0]
        out["cli.main_self_s" if layer == "cli" else f"{layer}.self_s"] += own
        if s["name"] in metric_of:
            out[metric_of[s["name"]]] += own
        for key, val in s.get("counts", {}).items():
            out[f"{layer}.{key}"] += val
        if s["name"] in ("analyzer.information_matrix", "analyzer.check_sbbd"):
            out[s["name"] + "_calls"] += 1
        if s["name"] == "analyzer.check_sbbd" and s.get("error") == "ConditionViolation":
            out["analyzer.violations"] += 1
        if s["name"] == "masks.export_masks" and "error" in s:
            out["masks.refusals"] += 1
    out["trace.wall_s"] = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    out["trace.spans"] = len(spans)
    return out


def layer_sum(metrics: dict) -> float:
    """Self time summed over all layers; equals trace.wall_s by construction."""
    return metrics["cli.main_self_s"] + sum(metrics[f"{layer}.self_s"] for layer in LAYERS)

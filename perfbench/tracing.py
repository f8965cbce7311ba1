"""Per-layer figures from a cProfile of the benchmark's public calls.

The traced run profiles the same calls as the timed run (the parent
process only) and reads three kinds of number out of the profile:

* self time per layer — every profiled function is assigned to a layer
  with :func:`repro.checks.layers.layer_of`, ``sim`` split by submodule;
  a builtin (C) function's time goes to the layer of the Python
  function that called it, so ``list.append`` inside the MAC counts as
  MAC time;
* call counts of a few public functions (``TdmaMac.enqueue``,
  ``Channel.set_position``, ``shortest_path_tree`` ...);
* cumulative time at the harness boundaries ``run_paper`` crosses
  (planners, aggregators, ``save_run``/``CellStore.put``, the trace
  figures' ``*_rows`` adapters).
"""

from __future__ import annotations

import cProfile
import pstats
from collections import defaultdict
from pathlib import Path
from typing import Dict, Optional, Tuple

FuncKey = Tuple[str, int, str]

#: Call counts reported per layer: metric name -> (file under repro/, function name).
CALL_COUNTS = {
    "mac.enqueues": ("mac/tdma.py", "enqueue"),
    "sim.channel.position_updates": ("sim/channel.py", "set_position"),
    "sim.channel.neighbor_queries": ("sim/channel.py", "neighbors_of"),
    "routing.spt_runs": ("routing/dijkstra.py", "shortest_path_tree"),
}

#: Self-time layers reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "mac",
    "transport",
    "core",
    "util",
    "routing",
    "sim.engine",
    "sim.spatial",
    "sim.channel",
    "sim.topology",
    "sim.mobility",
    "sim.faults",
)


class LayerMap:
    """Maps profiled code files to layer names."""

    def __init__(self, repro_root: Path) -> None:
        from repro.checks.layers import layer_of

        self._layer_of = layer_of
        self.root = repro_root.resolve()
        self._cache: Dict[str, str] = {}

    def relative(self, filename: str) -> Optional[str]:
        """``filename`` relative to the repro package, or None outside it."""
        try:
            return Path(filename).resolve().relative_to(self.root).as_posix()
        except ValueError:
            return None

    def layer(self, filename: str) -> str:
        cached = self._cache.get(filename)
        if cached is not None:
            return cached
        if filename == "~":
            layer = "builtin"
        else:
            rel = self.relative(filename)
            if rel is None:
                layer = "stdlib"
            else:
                parts = rel[: -len(".py")].split("/")
                if parts[-1] == "__init__":
                    parts = parts[:-1]
                layer = self._layer_of(".".join(["repro", *parts])) or "repro"
                if layer == "sim" and len(parts) > 1:
                    layer = f"sim.{parts[1]}"
        self._cache[filename] = layer
        return layer


def self_time_by_layer(stats: Dict[FuncKey, tuple], layers: LayerMap) -> Dict[str, float]:
    """Self seconds per layer; builtin time is charged to the calling layer."""
    totals: Dict[str, float] = defaultdict(float)
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layers.layer(filename)
        if layer != "builtin":
            totals[layer] += tt
            continue
        charged = 0.0
        for caller, edge in callers.items():
            caller_layer = layers.layer(caller[0])
            totals["stdlib" if caller_layer == "builtin" else caller_layer] += edge[2]
            charged += edge[2]
        totals["stdlib"] += max(0.0, tt - charged)
    return dict(totals)


class ProfileReader:
    """Queries over one ``pstats`` table, keyed by repro-relative file."""

    def __init__(self, profile: cProfile.Profile, layers: LayerMap) -> None:
        self.stats: Dict[FuncKey, tuple] = pstats.Stats(profile).stats  # type: ignore[attr-defined]
        self.layers = layers
        self._rel = {key: layers.relative(key[0]) for key in self.stats if key[0] != "~"}

    def calls(self, rel_file: str, name: str) -> int:
        return sum(v[1] for k, v in self.stats.items() if k[2] == name and self._rel.get(k) == rel_file)

    def cumulative(self, rel_file: str, name: str) -> float:
        return sum(v[3] for k, v in self.stats.items() if k[2] == name and self._rel.get(k) == rel_file)

    def cumulative_from(self, callee, caller_rel_file: str) -> float:
        """Cumulative time of functions matching ``callee(rel_file, name)``
        along the call edges whose caller lives in ``caller_rel_file``."""
        total = 0.0
        for key, (_cc, _nc, _tt, _ct, callers) in self.stats.items():
            rel = self._rel.get(key)
            if rel is None or not callee(rel, key[2]):
                continue
            for caller, edge in callers.items():
                if self._rel.get(caller) == caller_rel_file:
                    total += edge[3]
        return total

    def self_times(self) -> Dict[str, float]:
        return self_time_by_layer(self.stats, self.layers)


def _figure_module(rel: str) -> bool:
    return rel in ("experiments/figures.py", "experiments/workloads.py")


def layer_metrics(reader: ProfileReader) -> Dict[str, float]:
    """Every per-layer figure the profile yields, by metric name."""
    selfs = reader.self_times()
    out: Dict[str, float] = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in SELF_TIME_LAYERS}
    out["profiled_s"] = sum(selfs.values())
    for metric, (rel_file, name) in CALL_COUNTS.items():
        out[metric] = float(reader.calls(rel_file, name))
    presets = "experiments/presets.py"
    out["experiments.plan_s"] = reader.cumulative_from(
        lambda rel, name: _figure_module(rel) and name.endswith("_plan"), presets
    )
    out["experiments.aggregate_s"] = reader.cumulative_from(
        lambda rel, name: _figure_module(rel) and "aggregate" in name, presets
    )
    out["experiments.trace_figures_s"] = reader.cumulative_from(
        lambda rel, name: _figure_module(rel) and name.endswith("_rows"), presets
    )
    out["experiments.results.persist_s"] = reader.cumulative("experiments/results.py", "save_run") + reader.cumulative(
        "experiments/results.py", "put"
    )
    return out

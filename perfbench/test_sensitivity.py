"""Sensitivity self-test of the benchmark's wall_s gate.

A synthetic delay is wrapped around one layer's public function, sized
so that it adds about 30% to the wall time of the workload that loads
the layer.  The test shows that ``wall_s`` on that workload moves past
the bound ``BENCHMARK.json`` fixes for it, and that on the workload
that bypasses the layer it stays within the bound:

* ``repro.routing.dijkstra.shortest_path_tree`` — loaded by
  ``sim_mobile`` (thousands of Dijkstra runs per repetition), bypassed
  by ``sim_linear`` (a few hundred);
* ``TdmaMac.enqueue`` — loaded by ``sim_linear``, where the MAC is the
  largest layer; ``sim_mobile`` calls it about three times less often
  per second.

The delay is CPU work, not sleep, so that it slows down with the host
like the program does: every k-th call runs one pass of the calibration
loop, whose cost in reference seconds is known (calibration.py).
Unmodified and delayed repetitions alternate, so host drift hits both.

Run from the repository root (takes about five minutes)::

    python3 -m pytest perfbench/test_sensitivity.py -q -s
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from calibration import REFERENCE_COMPUTE_S, REFERENCE_MEMORY_S, Calibrator  # noqa: E402
from workloads import make_workload  # noqa: E402

#: Share of the loaded workload's wall time the synthetic delay adds.
SLOWDOWN = 0.30
#: Unmodified/delayed repetition pairs per workload.
PAIRS = 2


def _wall_bound() -> float:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(metric["bound"] for metric in spec["end_to_end"] if metric["name"] == "wall_s")


class Hook:
    """Replaces one public function everywhere it is bound, and restores it."""

    def __init__(self, module: str, qualname: str) -> None:
        self.module = module
        self.qualname = qualname

    def install(self, make_wrapper):
        owner = sys.modules[self.module]
        *path, name = self.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, name)
        wrapper = functools.wraps(original)(make_wrapper(original))
        # A module-level function may also be bound by ``from ... import``
        # in other modules; replace every such binding.
        owners = [owner]
        if not path:
            owners += [m for m in list(sys.modules.values()) if m is not owner and getattr(m, name, None) is original]
        for target in owners:
            setattr(target, name, wrapper)

        def restore() -> None:
            for target in owners:
                setattr(target, name, original)

        return restore


HOOKS = {
    "routing": (Hook("repro.routing.dijkstra", "shortest_path_tree"), "sim_mobile", "sim_linear"),
    "mac": (Hook("repro.mac.tdma", "TdmaMac.enqueue"), "sim_linear", "sim_mobile"),
}


@pytest.fixture(scope="module")
def calibrator():
    return Calibrator()


@pytest.fixture(scope="module")
def workloads(tmp_path_factory, calibrator):
    """Per workload: the set-up workload, its wall_s and its calls per hook."""
    import repro.mac.tdma  # noqa: F401 - the hooked modules must be loaded
    import repro.routing.dijkstra  # noqa: F401

    result = {}
    for name in ("sim_linear", "sim_mobile"):
        workload = make_workload(name, 0, tmp_path_factory.mktemp(name))
        workload.warm_up()
        counts = dict.fromkeys(HOOKS, 0)
        restores = []
        for layer, (hook, _, _) in HOOKS.items():

            def counting(original, layer=layer):
                def wrapper(*args, **kwargs):
                    counts[layer] += 1
                    return original(*args, **kwargs)

                return wrapper

            restores.append(hook.install(counting))
        try:
            workload.run_rep()
        finally:
            for restore in restores:
                restore()
        result[name] = (workload, workload.run_rep(calibrator).wall_s, counts)
    return result


@pytest.mark.parametrize("layer", sorted(HOOKS))
def test_delay_moves_only_the_loading_workload(layer, workloads, calibrator):
    hook, loaded, bypassed = HOOKS[layer]
    _, loaded_wall, loaded_counts = workloads[loaded]
    unit = REFERENCE_COMPUTE_S + REFERENCE_MEMORY_S
    every = max(1, round(loaded_counts[layer] * unit / (SLOWDOWN * loaded_wall)))

    def delayed(original):
        calls = itertools.count(1)

        def wrapper(*args, **kwargs):
            if next(calls) % every == 0:
                calibrator.sample()
            return original(*args, **kwargs)

        return wrapper

    bound = _wall_bound()
    shifts = {}
    for name in (loaded, bypassed):
        workload = workloads[name][0]
        plain, slowed = [], []
        for _ in range(PAIRS):
            plain.append(workload.run_rep(calibrator).wall_s)
            restore = hook.install(delayed)
            try:
                slowed.append(workload.run_rep(calibrator).wall_s)
            finally:
                restore()
        shifts[name] = statistics.median(slowed) / statistics.median(plain) - 1.0
    print(f"\n{layer}: one calibration pass every {every} calls; wall_s shift {shifts}; bound {bound}")
    assert shifts[loaded] > bound, f"{loaded} wall_s moved only {shifts[loaded]:.1%}"
    assert shifts[bypassed] < bound, f"{bypassed} wall_s moved {shifts[bypassed]:.1%}"

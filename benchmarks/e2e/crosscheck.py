"""``--profile``: a second, independent decomposition of a stimulus.

The span ledger charges a layer with the wall time between its entry points;
``cProfile`` charges a *function* with the time spent in its own frames.
Here the same stimuli run once more on the untraced engine under
``cProfile``, every function's ``tottime`` goes to the ``repro`` package
that defines it (time in the standard library and in built-ins goes to the
packages that called it, in proportion), and the two rankings are printed
side by side.  They measure different things — the profiler adds cost per
call and none to native code — so the shares differ; the *top three layers*
should not.  When they do, the lines say so.

Only the caller's thread is profiled, so the span side is restricted to the
same thread.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Any, Dict, List, Optional, Tuple

PROFILE_BLOCKS = 8

#: ``repro`` sub-package (or module) -> ledger layer.  The SAA programs and
#: the application interface are what the stimulus call itself runs.
_LAYER_OF = {
    "core": "core", "saa": "core", "apps/interface.py": "core",
    "apps": "apps", "objstore": "objstore", "txn": "txn",
    "events": "events", "rules": "rules", "conditions": "conditions",
    "recovery": "recovery", "storage": "storage", "obs": "obs",
}
_OTHER = "(unattributed)"
Func = Tuple[str, int, str]


def _layer_of(func: Func, actions: Tuple[str, ...]) -> Optional[str]:
    filename, _, name = func
    filename = filename.replace("\\", "/")
    if "/benchmarks/e2e/" in filename:
        return "apps" if name in actions else "core"
    if "/repro/" not in filename:
        if name == "<built-in method posix.fsync>":
            return "storage"
        return None
    inside = filename.split("/repro/", 1)[1]
    return _LAYER_OF.get(inside) or _LAYER_OF.get(inside.split("/", 1)[0])


def by_layer(stats: Dict[Func, tuple], actions: Tuple[str, ...]
             ) -> Dict[str, float]:
    """Seconds of ``tottime`` per layer."""
    memo: Dict[Func, Dict[str, float]] = {}

    def shares(func: Func, seen: frozenset) -> Dict[str, float]:
        if func in memo:
            return memo[func]
        layer = _layer_of(func, actions)
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        callers = stats.get(func, (0, 0, 0, 0, {}))[4]
        weight = sum(entry[2] for entry in callers.values())
        if func in seen or not callers or weight <= 0:
            return {_OTHER: 1.0}
        out: Dict[str, float] = {}
        for caller, entry in callers.items():
            for name, share in shares(caller, seen | {func}).items():
                out[name] = out.get(name, 0.0) + share * entry[2] / weight
        memo[func] = out
        return out

    totals: Dict[str, float] = {}
    for func, (_, _, tottime, _, _) in stats.items():
        for layer, share in shares(func, frozenset()).items():
            totals[layer] = totals.get(layer, 0.0) + tottime * share
    return totals


def cross_check(wl: Any, recorder: Any) -> List[str]:
    """Profile ``PROFILE_BLOCKS`` more blocks; return the report lines."""
    profiler = cProfile.Profile()
    batches = [wl.generate(wl.block) for _ in range(PROFILE_BLOCKS)]
    profiler.enable()
    try:
        for items in batches:
            for item in items:
                wl.issue(item)
            wl.end_block()
    finally:
        profiler.disable()
    profiled = by_layer(pstats.Stats(profiler).stats,     # type: ignore
                        tuple(wl.traced_actions))
    spans: Dict[str, float] = {}
    for name, (_, _, own) in recorder.totals(main_only=True).items():
        layer = name.split(".", 1)[0]
        spans[layer] = spans.get(layer, 0.0) + own
    span_sum = sum(spans.values()) or 1.0
    prof_sum = sum(profiled.values()) or 1.0
    lines = ["profile: %-16s %10s %12s" % ("layer", "spans %", "cProfile %")]
    for layer in sorted(set(spans) | set(profiled),
                        key=lambda name: -spans.get(name, 0.0)):
        lines.append("profile: %-16s %10.1f %12.1f" % (
            layer, 100.0 * spans.get(layer, 0.0) / span_sum,
            100.0 * profiled.get(layer, 0.0) / prof_sum))
    top_spans = sorted(spans, key=lambda name: -spans[name])[:3]
    top_prof = sorted((name for name in profiled if name != _OTHER),
                      key=lambda name: -profiled[name])[:3]
    verdict = ("same top three" if top_spans == top_prof else
               "same set, different order" if set(top_spans) == set(top_prof)
               else "MISMATCH")
    lines.append("profile: top three by spans %s; by cProfile %s: %s"
                 % (", ".join(top_spans), ", ".join(top_prof), verdict))
    return lines

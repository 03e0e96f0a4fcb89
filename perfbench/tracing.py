"""Spans around the program's public functions, recorded from the benchmark's side.

`Tracer.install` replaces every public module-level function of the six
program modules with a wrapper that records a span (name, start, end,
parent span, operation).  Every module-level name bound to such a function
is rebound too, so calls made through `from .x import f` and calls through
module attributes (`confocal.tangency_parameters` inside `run_orbit`) both
become child spans of their caller.  `uninstall` restores the originals, so
untraced rounds run the unmodified program in the same process.

Spans stay in memory until the run ends.  Counters are kept at the same
boundaries: tangency roots and near-pole discards from the returned
`TangencySet`, bounces and quarantines from the returned `OrbitRecord`,
coordinate-extrema scans (cache misses), `RayState` constructions, and the
bytes of the gradient tensors a bracket sweep builds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import Counter
from pathlib import Path

MODULES = ("cli", "billiard", "confocal", "lorentz_oval", "verify", "pecore")


class Tracer:
    def __init__(self):
        self.mods = {m: importlib.import_module(f"pebilliards.{m}") for m in MODULES}
        self.package = importlib.import_module("pebilliards")
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn, on_result=None, before=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            if before is not None:
                before(args)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _hooks(self) -> dict:
        counts = self.counts

        def tangency(ts):
            counts["confocal.roots"] += ts.count
            counts["confocal.near_pole_discards"] += len(ts.near_pole)

        def orbit(record):
            counts["billiard.bounces"] += record.bounce_count
            counts["billiard.quarantines"] += int(record.aborted)

        def gradients(pair):
            nbytes = pair[0].nbytes + pair[1].nbytes
            counts["verify.gradient_bytes"] = max(counts["verify.gradient_bytes"], nbytes)

        def sweep(reports):
            counts["verify.bracket_samples"] += reports[0].samples

        return {
            "confocal.tangency_parameters": tangency,
            "billiard.run_orbit": orbit,
            "verify.moser_gradients_batch": gradients,
            "verify.commutation_sweep": sweep,
        }

    def install(self) -> None:
        hooks = self._hooks()
        wrapped = {}
        for short, mod in self.mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped[obj] = self._wrap(name, obj, on_result=hooks.get(name))
        for mod in (*self.mods.values(), self.package):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

        oval_curve = self.mods["lorentz_oval"].OvalCurve
        counts = self.counts

        def extrema_scan(args):
            curve, axis = args[0], args[1]
            if axis not in getattr(curve, "_extrema_cache", {}):
                counts["lorentz_oval.coordinate_extrema.scans"] += 1

        self._patch(
            oval_curve,
            "coordinate_extrema",
            self._wrap("lorentz_oval.coordinate_extrema", oval_curve.coordinate_extrema, before=extrema_scan),
        )

        ray_state = self.mods["pecore"].RayState
        post_init = ray_state.__post_init__

        def counted_post_init(state):
            counts["pecore.raystates"] += 1
            post_init(state)

        self._patch(ray_state, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(meta, fields=["name", "start_s", "end_s", "parent", "op"])
        doc["spans"] = [[n, s - t0, e - t0, p, op] for n, s, e, p, op in self.spans]
        path.write_text(json.dumps(doc), encoding="utf-8")


# --------------------------------------------------------------- metrics


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class LayerReport:
    """Turns the spans of traced rounds into the benchmark's per-layer metrics."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.rounds: list[tuple[int, int, Counter]] = []
        self._start = 0

    def begin_round(self) -> None:
        self.tracer.counts.clear()
        self._start = len(self.tracer.spans)
        self.tracer.install()

    def end_round(self) -> None:
        self.tracer.uninstall()
        self.rounds.append((self._start, len(self.tracer.spans), Counter(self.tracer.counts)))

    def _round_figures(self, lo: int, hi: int, counts: Counter) -> tuple[dict, dict, dict]:
        spans = self.tracer.spans
        dur = {i: spans[i][2] - spans[i][1] for i in range(lo, hi)}
        child = Counter()
        for i in range(lo, hi):
            parent = spans[i][3]
            if parent >= 0:
                child[parent] += dur[i]
        module_self = Counter()
        name_self = Counter()
        durations: dict[str, list[float]] = {}
        calls = Counter()
        for i in range(lo, hi):
            name = spans[i][0]
            own = dur[i] - child[i]
            module_self[name.split(".")[0]] += own
            name_self[name] += own
            calls[name] += 1
            durations.setdefault(name, []).append(dur[i])

        def steps_under(ancestor: str) -> float:
            steps = 0
            for i in range(lo, hi):
                if spans[i][0] != "lorentz_oval.chord_step":
                    continue
                parent = spans[i][3]
                while parent >= 0 and spans[parent][0] != ancestor:
                    parent = spans[parent][3]
                steps += parent >= 0
            return steps / calls[ancestor] if calls[ancestor] else 0.0

        bounces = counts["billiard.bounces"]
        sweep_s = sum(durations.get("verify.commutation_sweep", []))
        times = {
            "confocal.self_ms": 1e3 * module_self["confocal"],
            "billiard.us_per_bounce": 1e6 * name_self["billiard.run_orbit"] / bounces if bounces else 0.0,
            "billiard.self_ms": 1e3 * module_self["billiard"],
            "cli.self_ms": 1e3 * module_self["cli"],
            "lorentz_oval.self_ms": 1e3 * module_self["lorentz_oval"],
            "verify.commutation_sweep.self_ms": 1e3 * name_self["verify.commutation_sweep"],
            "verify.bracket_samples_per_s": counts["verify.bracket_samples"] / sweep_s if sweep_s else 0.0,
            "verify.drift_report.self_ms": 1e3 * name_self["verify.drift_report"],
        }
        figures = {
            "confocal.tangency_parameters.calls": calls["confocal.tangency_parameters"],
            "confocal.roots": counts["confocal.roots"],
            "confocal.near_pole_discards": counts["confocal.near_pole_discards"],
            "confocal.cleared_polynomial.calls": calls["confocal.cleared_polynomial"],
            "billiard.bounces": bounces,
            "billiard.quarantines": counts["billiard.quarantines"],
            "pecore.raystates": counts["pecore.raystates"],
            "lorentz_oval.chord_step.calls": calls["lorentz_oval.chord_step"],
            "lorentz_oval.chord_steps_per_periodic": steps_under("lorentz_oval.find_periodic_orbit"),
            "lorentz_oval.chord_steps_per_derivative": steps_under("lorentz_oval.return_map_derivative"),
            "lorentz_oval.coordinate_extrema.scans": counts["lorentz_oval.coordinate_extrema.scans"],
            "verify.gradient_bytes": counts["verify.gradient_bytes"],
        }
        return times, figures, durations

    def metrics(self) -> dict[str, float]:
        """Counts from the first traced round (every round has the same inputs),
        each time as its best value over the traced rounds, p50s over every call."""
        per_round = [self._round_figures(lo, hi, counts) for lo, hi, counts in self.rounds]
        out = dict(per_round[0][1])
        for key in per_round[0][0]:
            best = max if key.endswith("_per_s") else min
            out[key] = best(times[key] for times, _, _ in per_round)
        merged: dict[str, list[float]] = {}
        for _, _, durations in per_round:
            for name, values in durations.items():
                merged.setdefault(name, []).extend(values)
        out["confocal.tangency_parameters.p50_us"] = 1e6 * _median(merged.get("confocal.tangency_parameters", []))
        out["lorentz_oval.chord_step.p50_us"] = 1e6 * _median(merged.get("lorentz_oval.chord_step", []))
        out["lorentz_oval.build_accelerating_table.p50_ms"] = 1e3 * _median(
            merged.get("lorentz_oval.build_accelerating_table", [])
        )
        return out

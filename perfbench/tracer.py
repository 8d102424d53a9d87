"""Spans around the public calls of each moebiusband module, recorded from
outside the package by replacing module attributes in a traced run.

A span holds its name, start, end, the index of the span that called it
and the job it belongs to, plus the work counts of its call.  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

MB = 1024 * 1024   # MiB, the unit of ru_maxrss / 1024 in peak_rss_mb


def _points(args, kw, out):
    return {"points": len(out)}


def _pairs(args, kw, out):
    pts, tris = args[0], args[1]
    return {"points": len(pts), "triangles": len(tris), "pairs": len(pts) * len(tris)}


def _candidates(args, kw, out):
    return {"candidates": 1 + len(out.alternates)}


# (module, function, span name, work counts, measure peak allocation)
TRACED = [
    ("geom", "winding_number", "geom.winding_number", None, False),
    ("band", "build_wrinkle", "band.build_wrinkle", None, False),
    ("band", "read_json", "band.read_json", None, False),
    ("band", "validate", "band.validate", None, False),
    ("band", "sample_surface", "band.sample_surface", _points, False),
    ("band", "points_to_triangles_distance", "band.points_to_triangles_distance", _pairs, True),
    ("tpattern", "find_tpattern", "tpattern.find_tpattern", _candidates, False),
    ("tpattern", "normalize_pose", "tpattern.normalize_pose", None, False),
    ("tpattern", "develop_for", "tpattern.develop_for", None, False),
    ("verify", "prepare", "verify.prepare", None, False),
    ("verify", "verify_eff", "verify.eff", None, False),
    ("verify", "boundary_deviation", "verify.boundary_deviation", None, False),
    ("verify", "verify_eff2", "verify.eff2", None, True),
    ("verify", "verify_corollary", "verify.corollary", None, True),
    ("bounds", "hd_grid_certificate", "bounds.hd_grid_certificate", None, False),
    ("bounds", "random_perturbed_triangle", "bounds.random_perturbed_triangle", None, False),
    ("bounds", "offset1_check", "bounds.offset1_check", None, False),
    ("bounds", "curve_with_forced_deviation", "bounds.curve_with_forced_deviation", None, False),
    ("bounds", "wiggle_check", "bounds.wiggle_check", None, False),
    ("bounds", "graph_check", "bounds.graph_check", None, False),
]

# the two property sweeps of `bounds-sweep` are loops in the CLI; each is
# timed as the sum of its public calls within one job
SWEEPS = {
    "bounds.offset_sweep_s": ("bounds.random_perturbed_triangle", "bounds.offset1_check"),
    "bounds.curve_sweep_s": ("bounds.curve_with_forced_deviation", "bounds.wiggle_check",
                             "bounds.graph_check"),
}

# per-layer metric -> (span name, span field, unit, only calls against many triangles)
LAYER_METRICS = {
    "geom.winding_number_s": ("geom.winding_number", "seconds", "s", False),
    "band.build_wrinkle_s": ("band.build_wrinkle", "seconds", "s", False),
    "band.read_json_s": ("band.read_json", "seconds", "s", False),
    "band.validate_s": ("band.validate", "seconds", "s", False),
    "band.sample_surface_s": ("band.sample_surface", "seconds", "s", False),
    "band.sample_surface.points": ("band.sample_surface", "points", "count", False),
    "band.points_to_triangles_distance_s": ("band.points_to_triangles_distance", "seconds", "s", True),
    "band.points_to_triangles_distance.pairs": ("band.points_to_triangles_distance", "pairs", "count", True),
    "band.points_to_triangles_distance.peak_alloc_mb": ("band.points_to_triangles_distance", "peak_alloc_mb", "MB", True),
    "tpattern.find_tpattern_s": ("tpattern.find_tpattern", "seconds", "s", False),
    "tpattern.candidates": ("tpattern.find_tpattern", "candidates", "count", False),
    "tpattern.normalize_pose_s": ("tpattern.normalize_pose", "seconds", "s", False),
    "tpattern.develop_for_s": ("tpattern.develop_for", "seconds", "s", False),
    "verify.prepare_s": ("verify.prepare", "seconds", "s", False),
    "verify.eff_s": ("verify.eff", "seconds", "s", False),
    "verify.boundary_deviation_s": ("verify.boundary_deviation", "seconds", "s", False),
    "verify.eff2_s": ("verify.eff2", "seconds", "s", False),
    "verify.corollary_s": ("verify.corollary", "seconds", "s", False),
    "verify.eff2.peak_alloc_mb": ("verify.eff2", "peak_alloc_mb", "MB", False),
    "verify.corollary.peak_alloc_mb": ("verify.corollary", "peak_alloc_mb", "MB", False),
    "bounds.curve_with_forced_deviation_s": ("bounds.curve_with_forced_deviation", "seconds", "s", False),
    "bounds.hd_grid_certificate_s": ("bounds.hd_grid_certificate", "seconds", "s", False),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._mem = []       # per open allocation span: [traced bytes at entry, peak seen]
        self._job = None

    @contextmanager
    def span(self, name, alloc=False):
        rec = {"name": name, "job": self._job,
               "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        if alloc:
            self._mem_enter()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if alloc:
                rec["peak_alloc_mb"] = self._mem_exit() / MB
            self._stack.pop()

    @contextmanager
    def job(self, job_id):
        self._job = job_id
        try:
            with self.span("cli.main"):
                yield
        finally:
            self._job = None

    def _mem_enter(self):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, current])

    def _mem_exit(self) -> float:
        base, seen = self._mem.pop()
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        else:
            tracemalloc.stop()
        return peak - base

    def wrap(self, fn, name, counts, alloc):
        def traced(*args, **kw):
            with self.span(name, alloc=alloc) as rec:
                out = fn(*args, **kw)
            if counts:
                rec.update(counts(args, kw, out))
            return out
        return traced

    def install(self):
        """Replace every reference to a traced function in the loaded
        moebiusband modules, so calls between modules are traced too."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "moebiusband"]
        for mod, fname, name, counts, alloc in TRACED:
            orig = getattr(sys.modules[f"moebiusband.{mod}"], fname)
            traced = self.wrap(orig, name, counts, alloc)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, traced)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def layer_metrics(self) -> dict:
        """Median over the run's calls of each layer metric; a layer the
        workload never calls reads 0."""
        for s in self.spans:
            s["seconds"] = s["end"] - s["start"]
        out = {}
        for metric, (name, key, unit, dense) in LAYER_METRICS.items():
            values = [s[key] for s in self.spans
                      if s["name"] == name and (not dense or s["triangles"] > 1)]
            out[metric] = (statistics.median(values) if values else 0.0, unit)
        for metric, names in SWEEPS.items():
            per_job = {}
            for s in self.spans:
                if s["name"] in names:
                    per_job[s["job"]] = per_job.get(s["job"], 0.0) + s["seconds"]
            out[metric] = (statistics.median(per_job.values()) if per_job else 0.0, "s")
        return out

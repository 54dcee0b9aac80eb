"""Per-layer tracing of ``uaris`` from outside the program.

:class:`Tracer` wraps public functions of each ``uaris`` module at their
definition and at every import site (``cli`` does ``from .beam import
array_factor``, so both ``uaris.beam.array_factor`` and
``uaris.cli.array_factor`` are replaced) and restores them on
:meth:`Tracer.uninstall`. Spans (name, start, end, parent span, job id) stay
in memory in flat arrays until :meth:`Tracer.write_spans`.

A span's self time is its duration minus the part of it that its child spans
cover. Every ``*_s`` layer metric is a self time, so the layer times of one
job add up to at most the job time and never count a call twice. ``core`` is
too thin to time on its own; its calls count toward the caller's self time.
Functions that are only counted (``solve_pair``, ``quantize_gamma``,
``catalog_gammas``) open no span, so their time is their caller's.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

JOB_SPAN = "job"

# Spans, by "module:qualname". The layer is the module's last name part.
SPAN_TARGETS = (
    ("uaris.scenario", "load_scenario"),
    ("uaris.geometry", "ArrayGeometry.from_json"),
    ("uaris.geometry", "ArrayGeometry.position_of"),
    ("uaris.geometry", "pair_reflectors"),
    ("uaris.synthesis", "configure_synthetic"),
    ("uaris.synthesis", "configure_coded"),
    ("uaris.synthesis", "quantize_assignment"),
    ("uaris.beam", "array_factor"),
    ("uaris.beam", "beam_metrics"),
    ("uaris.beam", "compare_schemes"),
    ("uaris.beam", "BeamPattern.write_csv"),
    ("uaris.channel", "simulate_received"),
    ("uaris.channel", "Waveform.write_csv"),
    ("uaris.channel", "Waveform.write_wav"),
    ("uaris.channel", "range_extension"),
    ("uaris.channel", "absorption_fg"),
    ("uaris.power", "reference_deviation_report"),
    ("uaris.power", "write_reference_csv"),
    ("uaris.cli", "main"),
)
COUNT_TARGETS = (
    ("uaris.synthesis", "solve_pair"),
    ("uaris.hardware", "quantize_gamma"),
    ("uaris.hardware", "catalog_gammas"),
)

# Per-layer metrics: name -> (unit, the end-to-end metric it should move and
# on which workload). Times and counts are per pass over the job list.
METRICS = {
    "scenario.load_s": ("s", "job_p50_s on small_batch"),
    "scenario.load_calls": ("count", "job_p50_s on small_batch"),
    "geometry.build_s": ("s", "job_p50_s on small_batch, jobs_per_s on large_array"),
    "geometry.build_calls": ("count", "job_p50_s on small_batch, jobs_per_s on large_array"),
    "geometry.builds_per_job": ("count/job", "job_p50_s on small_batch, jobs_per_s on large_array"),
    "geometry.pair_s": ("s", "job_p50_s on large_array"),
    "geometry.position_of_s": ("s", "jobs_per_s on large_array"),
    "geometry.position_of_calls": ("count", "jobs_per_s on large_array"),
    "synthesis.configure_self_s": ("s", "jobs_per_s on large_array"),
    "synthesis.solve_pair_calls": ("count", "jobs_per_s on large_array"),
    "synthesis.quantize_s": ("s", "job_p90_s on large_array and small_batch"),
    "hardware.quantize_gamma_calls": ("count", "job_p90_s on large_array and small_batch"),
    "hardware.catalog_builds": ("count", "job_p90_s on large_array and small_batch"),
    "hardware.catalog_builds_per_quantize": ("count/call", "job_p90_s on large_array and small_batch"),
    "beam.array_factor_s": ("s", "jobs_per_s and peak_rss_mb on large_array"),
    "beam.array_factor_calls": ("count", "jobs_per_s and peak_rss_mb on large_array"),
    "beam.element_probes": ("count", "jobs_per_s and peak_rss_mb on large_array"),
    "beam.element_probes_per_s": ("1/s", "jobs_per_s and peak_rss_mb on large_array"),
    "beam.metrics_s": ("s", "job_p50_s on large_array"),
    "beam.compare_self_s": ("s", "job_p50_s on large_array"),
    "beam.pattern_csv_s": ("s", "job_p50_s on small_batch"),
    "channel.render_s": ("s", "jobs_per_s on small_batch"),
    "channel.samples_rendered": ("count", "jobs_per_s on small_batch"),
    "channel.waveform_csv_s": ("s", "jobs_per_s on small_batch"),
    "channel.waveform_wav_s": ("s", "jobs_per_s on small_batch"),
    "channel.link_s": ("s", "job_p50_s on small_batch"),
    "power.report_s": ("s", "job_p50_s on small_batch"),
    "cli.self_s": ("s", "jobs_per_s on small_batch"),
    "cli.artifact_bytes": ("B/job", "jobs_per_s on small_batch"),
    "trace.overhead_ratio": ("ratio", "none: traced over untraced job time"),
    "trace.uncovered_share": ("ratio", "none: share of traced job time outside every span"),
}

_SELF_TIME = {
    "scenario.load_s": ("uaris.scenario:load_scenario",),
    "geometry.build_s": ("uaris.geometry:ArrayGeometry.from_json",),
    "geometry.pair_s": ("uaris.geometry:pair_reflectors",),
    "geometry.position_of_s": ("uaris.geometry:ArrayGeometry.position_of",),
    "synthesis.configure_self_s": ("uaris.synthesis:configure_synthetic", "uaris.synthesis:configure_coded"),
    "synthesis.quantize_s": ("uaris.synthesis:quantize_assignment",),
    "beam.array_factor_s": ("uaris.beam:array_factor",),
    "beam.metrics_s": ("uaris.beam:beam_metrics",),
    "beam.compare_self_s": ("uaris.beam:compare_schemes",),
    "beam.pattern_csv_s": ("uaris.beam:BeamPattern.write_csv",),
    "channel.render_s": ("uaris.channel:simulate_received",),
    "channel.waveform_csv_s": ("uaris.channel:Waveform.write_csv",),
    "channel.waveform_wav_s": ("uaris.channel:Waveform.write_wav",),
    "channel.link_s": ("uaris.channel:range_extension", "uaris.channel:absorption_fg"),
    "power.report_s": ("uaris.power:reference_deviation_report", "uaris.power:write_reference_csv"),
    "cli.self_s": ("uaris.cli:main",),
}
_SPAN_COUNTS = {
    "scenario.load_calls": "uaris.scenario:load_scenario",
    "geometry.build_calls": "uaris.geometry:ArrayGeometry.from_json",
    "geometry.position_of_calls": "uaris.geometry:ArrayGeometry.position_of",
    "beam.array_factor_calls": "uaris.beam:array_factor",
}
_QUANTIZE_SPAN = "uaris.synthesis:quantize_assignment"


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._job_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def job_span(self, job_id: int):
        """Root span of one job; the spans opened inside carry ``job_id``."""
        self._job_id = job_id
        idx = self.open(self.name_id(JOB_SPAN))
        try:
            yield
        finally:
            self.close(idx)
            self._job_id = -1

    def _inside(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and any(self.span_name[i] == nid for i in self._stack)

    # -- patching -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        nid = self.name_id(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        inside_quantize = name == "uaris.hardware:catalog_gammas"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            if inside_quantize and self._inside(_QUANTIZE_SPAN):
                self.counts["catalog_builds_in_quantize"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target; the ``uaris`` modules must already be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for targets, make in ((SPAN_TARGETS, self._span_wrapper), (COUNT_TARGETS, self._count_wrapper)):
            for module_name, qualname in targets:
                self._patch(module_name, qualname, make)

    def _patch(self, module_name: str, qualname: str, make) -> None:
        name = f"{module_name}:{qualname}"
        module = sys.modules[module_name]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(name, raw.__func__))
            else:
                new = make(name, raw)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)
            return
        original = getattr(module, qualname)
        wrapped = make(name, original)
        sites = [m for n, m in list(sys.modules.items()) if n == "uaris" or n.startswith("uaris.")]
        for site in sites:
            for attr, value in list(vars(site).items()):
                if value is original:
                    self._patches.append((site, attr, original))
                    setattr(site, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write gzipped ``span,name,start_s,end_s,parent,job`` rows (times
        relative to the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("span,name,start_s,end_s,parent,job\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.span_name[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.job[i]}\n"
                )


def _after_array_factor(tracer: Tracer, args, kwargs, result) -> None:
    geometry = args[0] if args else kwargs["geometry"]
    tracer.counts["beam.element_probes"] += len(geometry.elements) * result.angles_deg.size


def _after_simulate_received(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["channel.samples_rendered"] += result.samples.size


_AFTER = {
    "uaris.beam:array_factor": _after_array_factor,
    "uaris.channel:simulate_received": _after_simulate_received,
}


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its children's intervals
    (clipped to the span), so overlapping children are not counted twice."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    result = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        intervals = sorted((max(start[k], lo_p), min(end[k], hi_p)) for k in kids)
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        result[p] -= covered
    return result


def layer_metrics(
    tracer: Tracer,
    passes: int,
    jobs_per_pass: int,
    untraced_job_s: float,
    artifact_bytes: int,
) -> dict[str, float]:
    """Every metric of :data:`METRICS`, per traced pass."""
    own = self_times(tracer.start, tracer.end, tracer.parent)
    self_by_name: Counter = Counter()
    calls: Counter = Counter()
    job_total = 0.0
    for i, nid in enumerate(tracer.span_name):
        name = tracer.names[nid]
        self_by_name[name] += own[i]
        calls[name] += 1
        if name == JOB_SPAN:
            job_total += tracer.end[i] - tracer.start[i]
    counts = tracer.counts
    jobs = passes * jobs_per_pass
    out: dict[str, float] = {}
    for metric, names in _SELF_TIME.items():
        out[metric] = sum(self_by_name[n] for n in names) / passes
    for metric, name in _SPAN_COUNTS.items():
        out[metric] = calls[name] / passes
    out["geometry.builds_per_job"] = calls["uaris.geometry:ArrayGeometry.from_json"] / jobs
    out["synthesis.solve_pair_calls"] = counts["uaris.synthesis:solve_pair"] / passes
    out["hardware.quantize_gamma_calls"] = counts["uaris.hardware:quantize_gamma"] / passes
    out["hardware.catalog_builds"] = counts["uaris.hardware:catalog_gammas"] / passes
    quantize_calls = calls[_QUANTIZE_SPAN]
    out["hardware.catalog_builds_per_quantize"] = (
        counts["catalog_builds_in_quantize"] / quantize_calls if quantize_calls else 0.0
    )
    out["beam.element_probes"] = counts["beam.element_probes"] / passes
    af_s = self_by_name["uaris.beam:array_factor"]
    out["beam.element_probes_per_s"] = counts["beam.element_probes"] / af_s if af_s > 0 else 0.0
    out["channel.samples_rendered"] = counts["channel.samples_rendered"] / passes
    out["cli.artifact_bytes"] = artifact_bytes / jobs
    out["trace.overhead_ratio"] = job_total / untraced_job_s if untraced_job_s > 0 else 0.0
    out["trace.uncovered_share"] = self_by_name[JOB_SPAN] / job_total if job_total > 0 else 0.0
    return {name: out[name] for name in METRICS}

"""In-process span tracer for one spcelab CLI command.

``Tracer.install()`` wraps every public function of each spcelab module (and
``RngStream.random``) and rebinds every module-level reference to the wrapped
object, so calls made through ``from .randkit import substream`` style
imports are traced too.  Each call records a span ``(name, start, end,
parent)`` in memory; a few spans also add to work counters (uniforms drawn,
pairs sampled, records written, ...).  ``dump`` writes everything out once
the command has finished.

``layer_metrics`` turns the spans of one command into per-layer numbers: a
span's self time is its duration minus the time its direct children cover,
and each layer metric sums the self time of a set of spans.  The entry of a
layer in ``TIME_METRICS`` with no span set takes every span of that layer
that no other entry names, so a function added later still lands in its
layer.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter

LAYERS = ("randkit", "coin_lab", "spce", "purity", "bertrand", "qkd", "cli")

#: Span sets per time metric, in layer order; a ``None`` set is the layer's catch-all.
TIME_METRICS = {
    "randkit.substream_s": {"randkit.substream"},
    "randkit.draw_s": None,
    "coin_lab.write_s": {"coin_lab.write_timeseries_jsonl"},
    "coin_lab.read_s": {"coin_lab.read_timeseries_jsonl"},
    "coin_lab.sample_s": None,
    "spce.write_s": {"spce.write_run_jsonl"},
    "spce.stats_s": {"spce.empirical_correlator", "spce.correlator_stderr", "spce.chsh"},
    "spce.sample_s": None,
    "purity.verdict_s": None,
    "bertrand.estimate_s": None,
    "qkd.test_s": {"qkd.ekert_test_statistic"},
    "qkd.serialize_s": {"qkd.keys_to_json", "qkd.key_to_hex", "qkd.keys_from_json", "qkd.hex_to_key"},
    "qkd.keys_s": None,
    "cli.self_s": None,
}

#: Work counters and the span names whose calls feed them (see ``_COUNTERS``).
COUNT_METRICS = (
    "randkit.substream_calls",
    "randkit.uniforms",
    "coin_lab.series",
    "coin_lab.records_written",
    "coin_lab.records_read",
    "spce.pairs",
    "spce.records_written",
    "purity.members",
    "bertrand.chords",
    "cli.commands",
)


def _uniforms(args, kwargs, result):
    size = args[1] if len(args) > 1 else kwargs.get("size")
    return 1 if size is None else math.prod(size) if isinstance(size, tuple) else int(size)


def _series_lines(series_list):
    series_list = [series_list] if hasattr(series_list, "values") else series_list
    return sum(len(s) + 1 for s in series_list)


def _run_lines(args, kwargs, result):
    runs = args[0]
    runs = [runs] if hasattr(runs, "s1") else runs
    limit = args[2] if len(args) > 2 else kwargs.get("record_limit")
    return sum((len(r) if limit is None else min(len(r), limit)) + 1 for r in runs)


def _one(args, kwargs, result):
    return 1


#: span name -> (counter, amount(args, kwargs, result))
_COUNTERS = {
    "randkit.substream": ("randkit.substream_calls", _one),
    "randkit.RngStream.random": ("randkit.uniforms", _uniforms),
    "coin_lab.run_device": ("coin_lab.series", _one),
    "coin_lab.draw_urn": ("coin_lab.series", _one),
    "coin_lab.run_box_experiment": ("coin_lab.series", _one),
    "coin_lab.write_timeseries_jsonl": ("coin_lab.records_written",
                                        lambda a, k, r: _series_lines(a[0])),
    "coin_lab.read_timeseries_jsonl": ("coin_lab.records_read", lambda a, k, r: _series_lines(r)),
    "spce.run_experiment": ("spce.pairs", lambda a, k, r: len(r)),
    "spce.sample_pair": ("spce.pairs", _one),
    "spce.run_shared_lambda_model": ("spce.pairs", lambda a, k, r: len(r[0])),
    "spce.write_run_jsonl": ("spce.records_written", _run_lines),
    "purity.purity_verdict": ("purity.members", lambda a, k, r: len(r.reports) - 1),
    "bertrand.estimate_probability": ("bertrand.chords", lambda a, k, r: r.n),
    "cli.main": ("cli.commands", _one),
}


class Tracer:
    """Spans and counters of the traced calls made in this process."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn):
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = start, end
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @classmethod
    def install(cls):
        """Wrap the public functions of every spcelab layer module; return the tracer."""
        tracer = cls()
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"spcelab.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    wrapped[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)
        randkit = sys.modules["spcelab.randkit"]
        randkit.RngStream.random = tracer.wrap("randkit.RngStream.random", randkit.RngStream.random)
        for name, module in list(sys.modules.items()):
            if name == "spcelab" or name.startswith("spcelab."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrapped:
                        setattr(module, attr, wrapped[id(obj)])
        return tracer

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counts": dict(self.counts), "spans": self.spans}, fh, separators=(",", ":"))


def _time_metric_of(name):
    layer = name.split(".", 1)[0]
    fallback = None
    for metric, names in TIME_METRICS.items():
        if metric.split(".", 1)[0] != layer:
            continue
        if names is None:
            fallback = metric
        elif name in names:
            return metric
    return fallback


def layer_metrics(spans):
    """Self time per time metric (seconds) over the spans of one command."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = dict.fromkeys(TIME_METRICS, 0.0)
    for (name, start, end, parent), covered in zip(spans, child_time):
        metric = _time_metric_of(name)
        if metric is not None:
            totals[metric] += end - start - covered
    return totals


def import_times(stderr_text):
    """Cumulative import seconds per module from ``-X importtime`` output (first entry wins)."""
    found = {}
    for line in stderr_text.splitlines():
        if line.startswith("import time:"):
            parts = line[len("import time:"):].split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                found.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return found

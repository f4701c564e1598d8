"""Span tracing of the blamekit modules, from outside the package.

`Tracer.install()` replaces public functions with timing wrappers at the
names their callers look them up under (for example `cli.explain`, which
`cmd_explain` and the evaluate IG method both call, and
`network.input_gradient_batch`, which `attribution` reaches through the
module). Each call records one span: name, start, end, parent span and
the counts taken at that boundary (rows, pairs, points, gap). Spans stay
in memory until the run ends. `uninstall()` puts the originals back.

`layer_metrics()` turns the spans of one pipeline pass into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE / 2**20


class _RssSampler:
    """Polls the resident set from a thread while a call runs."""

    def __init__(self, period_s: float = 0.002):
        self.period_s = period_s
        self.start = self.peak = rss_mb()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _poll(self):
        while not self._stop.wait(self.period_s):
            self.peak = max(self.peak, rss_mb())

    def growth_mb(self) -> float:
        self._stop.set()
        self._thread.join()
        return max(self.peak, rss_mb()) - self.start


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, counts dict]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counts=None, sample_rss=False):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            sampler = _RssSampler() if sample_rss else None
            try:
                result = fn(*args, **kwargs)
                if counts is not None:
                    tracer.spans[idx][4].update(counts(args, result))
                return result
            finally:
                if sampler is not None:
                    tracer.spans[idx][4]["rss_growth_mb"] = sampler.growth_mb()
                tracer.close(idx)

        traced.__wrapped__ = fn
        return traced

    def _patch(self, module, attr, name, **how):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self._wrap(name, original, **how))

    def install(self) -> None:
        from blamekit import (attribution, benchmark, cli, clustering, detector,
                              evaluation, network)

        rows = lambda args, result: {"rows": len(result)}  # noqa: E731
        for cmd in ("benchmark", "train", "baseline", "explain", "evaluate"):
            self._patch(cli, f"cmd_{cmd}", f"cli.{cmd}")
        self._patch(benchmark, "generate_fault_benchmark", "benchmark.generate")
        self._patch(cli, "load_telemetry", "dataio.load", counts=rows)
        self._patch(benchmark, "load_telemetry", "dataio.load", counts=rows)
        self._patch(cli, "fit_detector", "detector.fit")
        self._patch(detector, "sample_negatives", "detector.sample_negatives")
        self._patch(detector, "rank_auc", "detector.rank_auc",
                    counts=lambda a, r: {"pairs": len(a[0]) * len(a[1])})
        self._patch(network, "train", "network.train")
        self._patch(network, "_sgd_step", "network.sgd_step")
        self._patch(network, "mean_bce", "network.mean_bce")
        self._patch(network, "forward_batch", "network.forward", counts=rows)
        self._patch(network, "input_gradient_batch", "network.grad", counts=rows)
        self._patch(cli, "select_baseline", "exemplar.select",
                    counts=lambda a, ex: {"candidates": ex.params["n_candidates"]})
        self._patch(clustering, "dbscan", "clustering.dbscan", sample_rss=True,
                    counts=lambda a, labels: {
                        "points": len(labels),
                        "clusters": len(set(labels.tolist()) - {clustering.NOISE})})
        self._patch(attribution, "nearest_exemplar", "exemplar.nearest")
        self._patch(cli, "explain", "attribution.explain")
        self._patch(attribution, "integrated_gradients", "attribution.ig")
        self._patch(attribution, "completeness_gap", "attribution.gap",
                    counts=lambda a, gap: {"gap": gap})
        self._patch(cli, "surrogate_attribution", "surrogate.attribution")
        self._patch(cli, "evaluate_methods", "evaluation.evaluate")
        self._patch(evaluation, "mann_whitney_u", "evaluation.mann_whitney")

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class _Tree:
    """The spans under one root span (a setup or a pipeline pass)."""

    def __init__(self, spans: list[list], root: int):
        self.spans = spans
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        inside = {root}
        for i in range(root + 1, len(spans)):
            if spans[i][3] not in inside:
                break
            inside.add(i)
            self.by_name[spans[i][0]].append(i)
            self.children[spans[i][3]].append(i)

    def dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def total(self, name: str, where=None) -> float:
        return sum(self.dur(i) for i in self.by_name[name] if where is None or where(i))

    def count(self, name: str, key: str, where=None, agg=sum):
        return agg([self.spans[i][4][key] for i in self.by_name[name]
                    if where is None or where(i)] or [0])

    def self_time(self, name: str) -> float:
        return sum(self.dur(i) - sum(self.dur(c) for c in self.children[i])
                   for i in self.by_name[name])

    def under(self, ancestor: str):
        def test(i: int) -> bool:
            parent = self.spans[i][3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    return True
                parent = self.spans[parent][3]
            return False
        return test


def setup_metrics(spans: list[list], root: int) -> dict:
    return {"benchmark.generate_s": _Tree(spans, root).total("benchmark.generate")}


def layer_metrics(spans: list[list], root: int) -> dict:
    """Per-layer metrics of the pipeline pass whose root span is `root`."""
    t = _Tree(spans, root)
    sgd = t.calls("network.sgd_step")
    explain_rows = t.calls("attribution.explain")
    outside_train = lambda i: not t.under("network.train")(i)  # noqa: E731
    return {
        "dataio.load_s": t.total("dataio.load"),
        "dataio.load_rows": t.count("dataio.load", "rows"),
        "network.train_s": t.total("network.train"),
        "network.sgd_steps": sgd,
        "network.sgd_step_us": 1e6 * t.total("network.sgd_step") / max(sgd, 1),
        "network.mean_bce_calls": t.calls("network.mean_bce"),
        "network.mean_bce_s": t.total("network.mean_bce"),
        "network.grad_calls": t.calls("network.grad"),
        "network.grad_rows": t.count("network.grad", "rows"),
        "network.grad_s": t.total("network.grad"),
        "network.forward_calls": len([i for i in t.by_name["network.forward"]
                                      if outside_train(i)]),
        "network.forward_s": t.total("network.forward", outside_train),
        "detector.fit_self_s": t.self_time("detector.fit"),
        "detector.sample_negatives_s": t.total("detector.sample_negatives"),
        "detector.rank_auc_s": t.total("detector.rank_auc"),
        "detector.rank_auc_pairs": t.count("detector.rank_auc", "pairs"),
        "clustering.dbscan_s": t.total("clustering.dbscan"),
        "clustering.dbscan_points": t.count("clustering.dbscan", "points"),
        "clustering.dbscan_clusters": t.count("clustering.dbscan", "clusters"),
        "clustering.dbscan_rss_growth_mb": t.count("clustering.dbscan", "rss_growth_mb",
                                                   agg=max),
        "exemplar.select_self_s": t.self_time("exemplar.select"),
        "exemplar.candidates": t.count("exemplar.select", "candidates"),
        "exemplar.nearest_calls": t.calls("exemplar.nearest"),
        "exemplar.nearest_s": t.total("exemplar.nearest"),
        "attribution.explain_rows": explain_rows,
        "attribution.explain_self_s": t.self_time("attribution.explain"),
        "attribution.ig_calls": t.calls("attribution.ig"),
        "attribution.ig_self_s": t.self_time("attribution.ig"),
        "attribution.grad_evals_per_row": t.count(
            "network.grad", "rows", t.under("attribution.explain")) / max(explain_rows, 1),
        "attribution.gap_calls": t.calls("attribution.gap"),
        "attribution.gap_s": t.total("attribution.gap"),
        "attribution.max_gap": t.count("attribution.gap", "gap", agg=max),
        "surrogate.rows": t.calls("surrogate.attribution"),
        "surrogate.s": t.total("surrogate.attribution"),
        "evaluation.evaluate_self_s": t.self_time("evaluation.evaluate"),
        "evaluation.mann_whitney_s": t.total("evaluation.mann_whitney"),
        "cli.train_self_s": t.self_time("cli.train"),
        "cli.baseline_self_s": t.self_time("cli.baseline"),
        "cli.explain_self_s": t.self_time("cli.explain"),
        "cli.evaluate_self_s": t.self_time("cli.evaluate"),
    }


def layer_self_times(spans: list[list], root: int) -> dict:
    """Self time summed per module (the span name before the first dot)."""
    t = _Tree(spans, root)
    out = defaultdict(float)
    for name in t.by_name:
        out[name.split(".")[0]] += t.self_time(name)
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def unit_of(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("max_gap"):
        return "1"
    return "count"

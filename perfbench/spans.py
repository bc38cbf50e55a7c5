"""Span records for the traced benchmark run, and their per-layer aggregation.

A span record has the shape the in-program tracer is planned to emit:
name, parent, duration in ns, counters, and ``ru_maxrss`` at close.  It also
keeps its start time (for self-time computation) and ``ru_maxrss`` at open
(for the RSS rise).  The layer of a span is the first dotted component of
its name, which is an ``ilab`` module name (``padic.is_intersective``) or
``cli`` (``cli.intersect_check``); the root span of a round is ``round``.
"""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import contextmanager

SPAN_FIELDS = ("id", "name", "parent", "start_ns", "dur_ns", "counters",
               "maxrss_open_kb", "maxrss_kb")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Keeps span records in memory; nothing is written while spans run."""

    def __init__(self):
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.records),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start_ns": 0,
            "dur_ns": 0,
            "counters": {},
            "maxrss_open_kb": _maxrss_kb(),
            "maxrss_kb": 0,
        }
        self.records.append(rec)
        self._stack.append(rec["id"])
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["dur_ns"] = time.perf_counter_ns() - rec["start_ns"]
            rec["maxrss_kb"] = _maxrss_kb()
            self._stack.pop()


class NullTracer:
    """Tracing off: a span costs one generator frame and records nothing."""

    @contextmanager
    def span(self, name: str):
        yield None


def self_times_ns(records: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for r in records:
        if r["parent"] is not None:
            children.setdefault(r["parent"], []).append(
                (r["start_ns"], r["start_ns"] + r["dur_ns"]))
    out = {}
    for r in records:
        lo, hi = r["start_ns"], r["start_ns"] + r["dur_ns"]
        covered, cur_lo, cur_hi = 0, None, None
        for a, b in sorted(children.get(r["id"], [])):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[r["id"]] = r["dur_ns"] - covered
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    s = sorted(values)
    k = max(0, min(len(s) - 1, int(-(-pct * len(s) // 100)) - 1))
    return s[k]


# Per-layer metrics in report order.  A name in RATES is a ratio of two
# summed values; cli.calls and the cli percentiles come from the cli spans;
# every other name is a sum over the round's spans: ``<layer>.busy_s`` and
# ``<layer>.rss_rise_mb`` of the layer's spans, anything else of the span
# counters of that name.
LAYER_METRICS = [
    "padic.busy_s", "padic.calls", "padic.primes_certified", "padic.primes_per_s",
    "padic.errors",
    "auxiliary.busy_s", "auxiliary.d_audited", "auxiliary.d_per_s", "auxiliary.errors",
    "sieve.build_s", "sieve.count_s", "sieve.ie_leaves", "sieve.errors",
    "expsum.busy_s", "expsum.audit_s", "expsum.audit_rows", "expsum.major_s",
    "expsum.major_beta_s", "expsum.moment_s", "expsum.rss_rise_mb", "expsum.errors",
    "circle.busy_s", "circle.dft_s", "circle.increment_s", "circle.fft_points",
    "circle.rss_rise_mb", "circle.errors",
    "setio.busy_s", "setio.bytes", "setio.errors",
    "diffsets.busy_s", "diffsets.search_s", "diffsets.nodes", "diffsets.nodes_per_s",
    "diffsets.bound_gap", "diffsets.verify_s", "diffsets.construct_s", "diffsets.errors",
    "cli.calls", "cli.busy_s", "cli.call_ms_p50", "cli.call_ms_p98", "cli.errors",
]
RATES = {
    "padic.primes_per_s": ("padic.primes_certified", "padic.busy_s"),
    "auxiliary.d_per_s": ("auxiliary.d_audited", "auxiliary.busy_s"),
    "diffsets.nodes_per_s": ("diffsets.nodes", "diffsets.search_s"),
}


def layer_metrics(records: list[dict], cli_subs: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced round, plus ``cli.<sub>.busy_s`` for
    each CLI subcommand.  Busy time is self time summed over a layer's spans."""
    selfs = self_times_ns(records)
    sums: dict[str, float] = {}

    def add(key: str, v: float) -> None:
        sums[key] = sums.get(key, 0.0) + v

    call_ms = []
    for r in records:
        layer = layer_of(r["name"])
        if layer == "round":
            continue
        sec = selfs[r["id"]] / 1e9
        add(f"{layer}.busy_s", sec)
        add(f"{layer}.rss_rise_mb", (r["maxrss_kb"] - r["maxrss_open_kb"]) / 1024)
        for key, v in r["counters"].items():
            add(key, v)
        if layer == "cli":
            call_ms.append(r["dur_ns"] / 1e6)
            add(f"{r['name']}.busy_s", sec)

    def value(name: str) -> float:
        if name in RATES:
            num, den = RATES[name]
            return sums.get(num, 0.0) / sums[den] if sums.get(den) else 0.0
        return sums.get(name, 0.0)

    m = {name: value(name) for name in LAYER_METRICS}
    m["cli.calls"] = float(len(call_ms))
    m["cli.call_ms_p50"] = _percentile(call_ms, 50)
    m["cli.call_ms_p98"] = _percentile(call_ms, 98)
    for sub in cli_subs:
        m[f"cli.{sub}.busy_s"] = value(f"cli.{sub}.busy_s")
    return m


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over rounds (all rounds carry the same keys)."""
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}

"""Metrics derived from one run's measurements and trace.

*m* below is the run's ``workloads.Measurements``; *outcome* is what
``run_ingest`` / ``run_query_mix`` return.
"""

from __future__ import annotations

import math
import resource
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence

PROC_STATUS = Path("/proc/self/status")
PROC_CLEAR_REFS = Path("/proc/self/clear_refs")


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (*share* in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def tail(values: Sequence[float], share: float) -> Dict[str, object]:
    """A percentile with its sample count; ``valid`` when >= 10 samples lie beyond it."""
    return {
        "value": percentile(values, share) if values else None,
        "samples": len(values),
        "valid": len(values) * (1 - share) >= 10,
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    """Peak resident memory (MB) since the last :func:`reset_peak_rss`.

    Read from the kernel's high-water mark (``VmHWM``); where there is none,
    the process's lifetime peak.
    """
    try:
        for line in PROC_STATUS.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reset_peak_rss() -> Optional[float]:
    """Restart the peak-memory mark at the current resident size.

    Returns the peak before the reset, or None where the kernel cannot
    reset it (writing 5 to ``clear_refs`` resets ``VmHWM``).
    """
    before = peak_rss_mb()
    try:
        PROC_CLEAR_REFS.write_text("5")
    except OSError:
        return None
    return before


def end_to_end(m, setup_s: List[float]) -> Dict[str, Dict[str, object]]:
    """The gated metrics, each as a median."""
    ops = [count / wall for count, wall in zip(m.round_ops, m.round_s)]
    return {
        "ops_per_s": metric(statistics.median(ops), "1/s"),
        "query_ms_p50": metric(statistics.median(m.query_ms), "ms"),
        "window_latency_ms_p50": metric(statistics.median(m.window_ms), "ms"),
        "commit_ms_p50": metric(statistics.median(m.commit_ms), "ms"),
        "setup_s": metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def workload_figures(workload: str, m, outcome: Dict[str, object]) -> Dict[str, object]:
    """Workload-specific figures of the report line, with sample counts."""
    rates = [count / wall for count, wall in zip(m.round_ops, m.round_s)]
    figures: Dict[str, object] = {
        "rounds": len(m.round_s),
        "setup_peak_rss_mb": m.setup_peak_rss_mb,
        "failed_ratio": m.failed / max(1, m.attempted),
        "query_ms_p99": tail(m.query_ms, 0.99),
        "window_latency_ms_p90": tail(m.window_ms, 0.90),
        "samples": {
            "query_ms": len(m.query_ms),
            "window_latency_ms": len(m.window_ms),
            "commit_ms": len(m.commit_ms),
        },
    }
    if workload == "query_mix":
        figures["queries_per_s"] = statistics.median(rates)
    else:
        figures["events_per_s"] = statistics.median(rates)
        distinct = outcome["properties"]["distinct_tuples"]
        figures["tuples_per_s"] = statistics.median(
            distinct / wall for wall in m.round_s
        )
    return figures


def layer_metrics(tracer, m, outcome: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """Per-layer metrics averaged over the traced rounds."""
    traced_from = outcome["traced_from"]
    rounds = len(m.round_s) - traced_from
    totals = tracer.totals()
    counts = outcome["counts"]

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0) / rounds

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0) / rounds

    def count(name: str) -> float:
        return counts.get(name, 0) / rounds

    events = counts.get("events", 0)
    requests = counts.get("requests", calls("service.server.handle") * rounds)
    hits = counts.get("cache_hits", 0)
    untraced = statistics.median(m.round_s[:traced_from])
    traced = statistics.median(m.round_s[traced_from:])
    return {
        "mrt.busy_s": metric(self_s("mrt"), "s"),
        "mrt.blocks": metric(count("mrt_blocks"), "count"),
        "mrt.bytes": metric(count("mrt_bytes"), "bytes"),
        "stream.window.busy_s": metric(self_s("stream.window"), "s"),
        "stream.window.late_events": metric(count("late_events"), "count"),
        "stream.window.windows_closed": metric(count("windows_closed"), "count"),
        "stream.sharding.busy_s": metric(self_s("stream.sharding"), "s"),
        # New tuples the engine hands the classifier (not the re-adds the
        # classifier makes itself while evicting), over events.
        "stream.sharding.new_ratio": metric(
            tracer.calls_from("stream.incremental.add", "stream.engine") / events
            if events
            else 0.0,
            "ratio",
        ),
        "stream.sharding.evict_s": metric(self_s("stream.sharding.evict"), "s"),
        "sanitize.dropped": metric(count("dropped"), "count"),
        "stream.incremental.add_s": metric(self_s("stream.incremental.add"), "s"),
        "stream.incremental.evict_s": metric(self_s("stream.incremental.evict"), "s"),
        "stream.incremental.update_s": metric(self_s("stream.incremental.update"), "s"),
        "stream.incremental.update_calls": metric(calls("stream.incremental.update"), "count"),
        "stream.engine.self_s": metric(self_s("stream.engine"), "s"),
        "service.backends.append_s": metric(self_s("service.backends.append"), "s"),
        "service.backends.ingest_stats_s": metric(
            self_s("service.backends.ingest_stats"), "s"
        ),
        "service.backends.read_s": metric(self_s("service.backends.read"), "s"),
        "service.server.handle_s": metric(self_s("service.server.handle"), "s"),
        "service.server.cache_hit_ratio": metric(hits / requests if requests else 0.0, "ratio"),
        "service.http.overhead_s": metric(self_s("service.http.client"), "s"),
        "trace.round_s": metric(traced, "s"),
        "trace.overhead_s": metric(traced - untraced, "s"),
    }

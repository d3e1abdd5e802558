"""End-to-end benchmark: MRT bytes or a decoded feed in, a per-AS
tagger/cleaner classification out, committed to a SQLite store and
readable over HTTP.

Usage, from the repository root::

    python3 perfbench/run.py --workload mrt_replay --seed 1 --seconds 30 --trace 0

The path under test is the production public API: a source
(``repro.stream.sources``) feeds ``repro.stream.StreamEngine`` (built with
``StreamConfig`` defaults apart from the window spec), ``attach_store``
commits every closed window to a ``repro.service.backends.SnapshotStore``,
and an in-process ``repro.service.server.ClassificationServer`` serves it to
one keep-alive ``ServiceClient``.  Client and producer share the main
thread; the server answers on its own thread.

Workloads (inputs from ``SyntheticInternet``; ``--seed`` drives the
collector archives over one fixed topology and community-role assignment,
so every seed carries the same volume):

* ``mrt_replay`` -- per-collector RIB and update MRT blobs of one day of
  RIPE's seven collectors, replayed by ``MRTReplaySource`` in ``archive`` order
  through 1 h cumulative windows, one ``GET /v1/snapshot/latest`` per
  committed window.  Why: the north-star path; decode dominates it, and RIB
  dumps repeat one attribute blob across many prefixes, so a decode or memo
  change shows here and nowhere else.  It takes the cumulative
  ``process_block_new`` router path.
* ``live_feed`` -- two days of RIPE observations, decoded during set-up and
  time-ordered, fed by ``MemorySource`` through 15 min sliding windows (one
  HTTP read per window, 192 windows).  Why: it bypasses decode, so a decode
  change should leave it unchanged; its time goes to sanitize/dedup/intern,
  classifier add/evict, window flush and snapshot commit on the sliding
  ``process_block`` + eviction path.
* ``query_mix`` -- a store warmed in set-up with precomputed window
  snapshots; one closed-loop keep-alive client makes passes over
  ``/v1/snapshot/latest``, ``/v1/diff`` and ``/v1/as/{asn}`` for 32 hot ASes
  (the targets and hot-AS choice of ``benchmarks/test_bench_service.py``),
  and before every second pass the producer appends the next snapshot on
  the same thread: one commit per 68 reads, half of them cache misses, an
  assumed ratio that no traffic data backs.  Why: serving and store reads dominate while every ingest layer is
  idle, and the appends invalidate the generation-keyed response cache and
  take the SQLite write lock, so a change trading read speed for commit cost
  shows (at this ratio).

End-to-end metrics (``--trace 0``; every workload reports every one):

* ``ops_per_s`` -- median over rounds of operations per second of round wall
  time: route events (first source block to last window readable over HTTP)
  on the ingest workloads, HTTP queries on ``query_mix``.
* ``query_ms_p50`` -- client-side HTTP latency: the per-window snapshot read
  on the ingest workloads, the query mix on ``query_mix``.
* ``window_latency_ms_p50`` -- from the start of the window's
  ``classifier.update()`` (ingest) or of its ``append_snapshot``
  (``query_mix``) until an HTTP read returns that ``window_end``.
* ``commit_ms_p50`` -- ``append_snapshot`` latency.
* ``setup_s`` -- median of three set-ups: input generation, pre-decode and
  store warm-up.
* ``peak_rss_mb`` -- peak resident memory over the measured rounds (the
  kernel's high-water mark, reset after set-up); the set-up's own peak is
  ``setup_peak_rss_mb`` on the report line.

The three per-window metrics sample every window on ``live_feed`` and
``query_mix``.  On ``mrt_replay`` they sample the final window of each round
only: archive order closes a few windows of under a hundred events early in
the first collector, and the final close carries the whole replay's
classification.

The report line printed before the result adds the workload-specific
figures with their sample counts (``events_per_s``, ``tuples_per_s``,
``queries_per_s``, ``window_latency_ms_p90``, ``query_ms_p99``,
``failed_ratio``), the input properties, and the CPU count, Python and
numpy versions.

Per-layer metrics (``--trace 1``), averaged per traced round: what each
times or counts, and the end-to-end metric it should move.

* ``mrt.busy_s``, ``mrt.blocks``, ``mrt.bytes`` -- ``next()`` of the
  source's ``iter_blocks`` (``repro.mrt`` decode + ``repro.collectors.archive``).
  Moves ``ops_per_s`` on mrt_replay; zero on live_feed and query_mix.
* ``stream.window.busy_s``, ``stream.window.late_events``,
  ``stream.window.windows_closed`` -- ``clock.advance_block``.  Under 1%
  everywhere, so no movement predicted; archive order marks nearly every
  event late.
* ``stream.sharding.busy_s``, ``stream.sharding.new_ratio`` (new tuples over
  events), ``stream.sharding.evict_s``, ``sanitize.dropped`` --
  ``router.process_block_new`` / ``process_block`` / ``evict``, sanitize and
  intern included.  Moves ``ops_per_s`` on live_feed (largest share) and on
  mrt_replay.
* ``stream.incremental.add_s``, ``stream.incremental.evict_s`` -- classifier
  ``add_*`` and ``evict*``.  Moves ``ops_per_s`` on live_feed.
* ``stream.incremental.update_s``, ``stream.incremental.update_calls`` --
  classifier ``update()`` on every window flush.  Moves
  ``window_latency_ms_p50`` on live_feed.
* ``stream.engine.self_s`` -- ``ingest_block`` + ``finish`` minus the traced
  calls inside them.  Moves ``ops_per_s`` on both ingest workloads.
* ``service.backends.append_s``, ``service.backends.ingest_stats_s`` -- store
  ``append_snapshot`` / ``set_ingest_stats``.  Moves
  ``window_latency_ms_p50`` on live_feed and ``commit_ms_p50`` on query_mix.
* ``service.backends.read_s`` -- store reads made by the server.  Moves
  ``query_ms_p50`` on query_mix.
* ``service.server.handle_s`` (``handle()`` minus store reads),
  ``service.server.cache_hit_ratio`` -- move ``query_ms_p50`` and
  ``ops_per_s`` on query_mix.
* ``service.http.overhead_s`` -- client ``get`` minus ``handle``: sockets,
  HTTP framing and JSON decode.  Moves ``query_ms_p50``.
* ``trace.round_s``, ``trace.overhead_s`` -- traced round wall time, and that
  minus the median untraced round of the same run: the cost of tracing.

All ``_s`` layer metrics are self times: a span's duration minus its traced
children.  A traced run measures untraced rounds for the first half of
``--seconds`` and traced rounds after; spans are written to
``.perfbench_out/`` when the run ends.

Every run checks its outputs: every HTTP read must return the window just
committed, byte-equal to the engine's snapshot; ``mrt_replay``'s final
served classification must equal the batch ``InferencePipeline``;
``live_feed``'s final served digest must be identical in every round; on
``query_mix`` every response must be 200 and sampled bodies must equal the
snapshot committed at the time.  Any failure exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from typing import List, Optional

from report import end_to_end, layer_metrics, workload_figures

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mrt_replay", "live_feed", "query_mix")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from tracing import Tracer
    from workloads import Measurements, run_ingest, run_query_mix

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    m = Measurements()
    try:
        if args.workload == "query_mix":
            outcome = run_query_mix(args.seed, args.seconds, workdir, m, tracer)
        else:
            outcome = run_ingest(args.workload, args.seed, args.seconds, workdir, m, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        metrics = layer_metrics(tracer, m, outcome)
        tracer.write_csv(
            ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.csv"
        )
    else:
        metrics = end_to_end(m, outcome["setup_s"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "input": outcome["properties"],
        "setup_s_samples": outcome["setup_s"],
        "figures": workload_figures(args.workload, m, outcome),
        "failures": m.failures,
    }
    print(json.dumps(report, sort_keys=True))
    correct = m.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": m.attempted,
                "failed": m.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

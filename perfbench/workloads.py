"""Inputs, measured rounds and correctness checks of the three workloads.

Every workload builds its input from a :class:`SyntheticInternet` at the
run's seed, then repeats *rounds* until the measuring time is used up.  An
ingest round (``mrt_replay``, ``live_feed``) is one full drain of the feed
through a fresh engine, SQLite store and in-process HTTP server; a
``query_mix`` round is :data:`ROUND_PASSES` passes over the query targets
against the one warm store of the run.  The program only ever sees the
generated bytes or events, and is driven through its public API with production defaults:
``StreamConfig`` gets a window spec and nothing else.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.bgp.announcement import RouteObservation
from repro.collectors.archive import ArchiveConfig
from repro.core.pipeline import InferencePipeline
from repro.datasets.synthetic import SyntheticConfig, SyntheticInternet
from repro.service.backends import SnapshotStore, snapshot_payload
from repro.service.client import ServiceClient, ServiceError
from repro.service.publish import attach_store
from repro.service.server import ClassificationServer
from repro.stream import (
    MemorySource,
    MRTReplaySource,
    StreamConfig,
    StreamEngine,
    WindowPolicy,
    WindowSnapshot,
    WindowSpec,
)
from repro.topology.generator import TopologyConfig
from report import reset_peak_rss
from tracing import Tracer, wrap_method

#: Topology scale of the synthetic Internet (~200 ASes).  Chosen for run
#: time, not taken from any measurement: one ingest round takes one to three
#: seconds and a set-up a few, so a 30 s run holds a dozen rounds or more.
#: The benchmark therefore supports claims about relative speed on this
#: input, not about speed at the scale of the real Internet.
SCALE = 0.1
#: The topology and the community-role assignment are the same for every
#: seed, so runs at different seeds carry the same volume and the run-to-run
#: spread measures the program, not the input size.  Roles decide how many
#: communities each route carries: drawn from the seed, they put one RIPE
#: day's communities anywhere from 25k to 46k and moved its MRT bytes by 10%
#: over ten seeds; fixed, events, communities and bytes vary by under 1%.
STRUCTURE_SEED = 1
#: Share of ASes peering with the RIPE-like project (as in SyntheticConfig.small).
PEER_FRACTION = 0.08
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: live_feed: 15-minute sliding windows over two days of RIPE data (192 windows).
LIVE_PROJECTS = ("ripe",)
LIVE_DAYS = 2
LIVE_WINDOW = WindowSpec(size=900, policy=WindowPolicy.SLIDING)
#: mrt_replay: one day of RIPE's seven collectors through 1-hour cumulative
#: windows.  Archive order closes one substantial window per replay (the
#: final one), so a small replay (~15k events, about a second) buys the
#: per-window metrics a sample per second instead of one per four seconds.
REPLAY_PROJECTS = ("ripe",)
REPLAY_WINDOW = WindowSpec(size=3600)

#: query_mix: snapshots precomputed from one RIPE day in 15-minute cumulative
#: windows; the first WARM_SNAPSHOTS are in the store before measuring.
QUERY_WINDOW = WindowSpec(size=900)
WARM_SNAPSHOTS = 32
#: The query targets and the hot-AS choice follow the repository's service
#: benchmark (``benchmarks/test_bench_service.py``: replica fan-out targets,
#: ``hot_ases``): one pass reads ``/v1/snapshot/latest``, ``/v1/diff`` and
#: ``/v1/as/{asn}`` for HOT_ASES ASes spread evenly over the sorted observed
#: ASes, in that order.
HOT_ASES = 32
#: The producer appends one window every PASSES_PER_APPEND passes, just
#: before a pass's first read (``latest``, which so also measures how soon
#: the commit is visible).  The first pass after a commit misses the
#: generation-keyed response cache, the second hits it, so the miss path
#: (store reads) and the hit path weigh alike.  No traffic data exists for
#: the service, so this read-to-commit ratio (1 commit per 68 reads) is an
#: assumption: query_mix shows whether a change trading read cost for commit
#: cost pays off at this ratio, and cannot say whether it does under real
#: traffic.
PASSES_PER_APPEND = 2
#: Passes per query_mix round.  Every SAMPLE_EVERY-th body is checked after
#: its round (7 is coprime with the pass length, so every target is sampled).
ROUND_PASSES = 8
SAMPLE_EVERY = 7

#: Store methods the server reads through (timed as service.backends.read).
STORE_READS = (
    "generation",
    "latest",
    "get",
    "by_window_end",
    "load_snapshot",
    "changes",
    "as_latest",
    "as_history",
)


# -- measurements ---------------------------------------------------------------------
class Measurements:
    """Samples and outcome counts collected over one run."""

    def __init__(self) -> None:
        self.round_s: List[float] = []
        self.round_ops: List[int] = []
        self.query_ms: List[float] = []
        self.commit_ms: List[float] = []
        self.window_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Peak resident memory of the set-ups (MB), or None where the kernel
        #: cannot reset the peak (``peak_rss_mb`` then covers them too).
        self.setup_peak_rss_mb: Optional[float] = None

    def discard_samples(self) -> None:
        """Forget the timing samples taken so far (outcome counts stay)."""
        for samples in (
            self.round_s, self.round_ops, self.query_ms, self.commit_ms, self.window_ms
        ):
            samples.clear()

    def check(self, ok: bool, message: str) -> None:
        """Count one checked operation; record *message* when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(message)


def trace_engine(tracer: Tracer, engine: StreamEngine) -> None:
    """Span every engine-layer call the benchmark can reach from outside."""
    tracer.wrap(engine, "ingest_block", "stream.engine")
    tracer.wrap(engine, "finish", "stream.engine")
    tracer.wrap(engine.clock, "advance_block", "stream.window")
    tracer.wrap(engine.router, "process_block", "stream.sharding")
    tracer.wrap(engine.router, "process_block_new", "stream.sharding")
    tracer.wrap(engine.router, "evict", "stream.sharding.evict")
    classifier = engine.classifier
    # Which of these the engine calls depends on the window policy and the
    # production representation default; wrapping all keeps either measured.
    for name in ("add_tuple", "add_key", "add_ref"):
        if hasattr(classifier, name):
            tracer.wrap(classifier, name, "stream.incremental.add")
    for name in ("evict", "evict_refs"):
        if hasattr(classifier, name):
            tracer.wrap(classifier, name, "stream.incremental.evict")
    tracer.wrap(classifier, "update", "stream.incremental.update")


def trace_service(
    tracer: Tracer, store: SnapshotStore, server: ClassificationServer, client: ServiceClient
) -> None:
    """Span the store, the request handler and the client of one service."""
    tracer.wrap(store, "append_snapshot", "service.backends.append")
    tracer.wrap(store, "set_ingest_stats", "service.backends.ingest_stats")
    for name in STORE_READS:
        tracer.wrap(store, name, "service.backends.read")
    tracer.wrap(server.service, "handle", "service.server.handle")
    tracer.wrap(client, "get", "service.http.client", parents_other_threads=True)


# -- inputs ---------------------------------------------------------------------------
def build_internet(seed: int) -> SyntheticInternet:
    """The synthetic Internet every workload draws its input from.

    *seed* drives the collector archives: which routes re-announce and
    when, missing routes, and realism noise.
    """
    return SyntheticInternet.build(
        SyntheticConfig(
            topology=TopologyConfig.scaled(SCALE, seed=STRUCTURE_SEED),
            peer_fraction=PEER_FRACTION,
            archive=ArchiveConfig(seed=seed),
            roles_seed=STRUCTURE_SEED,
        )
    )


def mrt_days(
    internet: SyntheticInternet, projects: Sequence[str], days: int
) -> Tuple[Dict[str, bytes], List[RouteObservation]]:
    """Per-collector MRT bytes (RIB dump + updates, consecutive days appended)
    and the generated observations they encode."""
    parts: Dict[str, List[bytes]] = {}
    observations: List[RouteObservation] = []
    for name in projects:
        archive = internet.archive_for(name)
        for day in range(days):
            generated = archive.generate_day(day)
            observations.extend(generated.observations)
            for collector, blob in archive.day_to_mrt(generated).items():
                parts.setdefault(collector, []).append(blob)
    blobs = {collector: b"".join(chunks) for collector, chunks in parts.items()}
    return blobs, observations


def input_properties(observations: Sequence[RouteObservation]) -> Dict[str, object]:
    """The feed properties the system's speed depends on."""
    distinct = set()
    seen_on_collector = set()
    repeats = 0
    rib = 0
    for observation in observations:
        pair = (observation.path, observation.communities)
        distinct.add(pair)
        key = (observation.collector, pair)
        if key in seen_on_collector:
            repeats += 1
        else:
            seen_on_collector.add(key)
        rib += observation.from_rib
    events = len(observations)
    return {
        "events": events,
        "distinct_tuples": len(distinct),
        "repeat_ratio": events / max(1, len(distinct)),
        "rib_share": rib / max(1, events),
        # Events whose (AS_PATH, COMMUNITIES) pair already appeared on the same
        # collector: the share a decode memo or dedup change can exploit.
        "same_collector_repeat_share": repeats / max(1, events),
    }


def schedule(seconds: float, m: Measurements, traced_run: bool) -> Iterator[bool]:
    """Yield once per round whether to trace it, until *seconds* are used.

    An untraced run measures every round untraced.  A traced run measures
    untraced rounds for the first half of the time (the baseline of the
    tracing overhead) and traced rounds after, at least one of each.

    Only the first round starts from a collected heap.  Every round
    allocates alike, so collecting before each would put the collector's
    full passes at the same points of every round of a run: a pass that
    lands in the final window's update or read then lands there in every
    round, and the run's medians carry it (a fixed 40-90 ms on two seeds
    in ten).  Left alone, the passes drift from round to round, and each
    round frees the reference cycles the previous one left behind, as a
    long-running process does.  The first round is a warm-up: its outputs
    are checked, its samples dropped (it runs measurably faster than the
    rounds after it, which a long-running process never sees again).
    """
    gc.collect()
    yield False
    m.discard_samples()
    began = time.perf_counter()
    traced = False
    while True:
        elapsed = time.perf_counter() - began
        if m.round_s and elapsed >= seconds and (traced or not traced_run):
            return
        if traced_run and m.round_s and elapsed >= seconds / 2:
            traced = True
        yield traced


def timed_setups(setup: Callable[[int], object]) -> Tuple[object, List[float]]:
    """Run *setup* SETUP_REPEATS times; returns the last result and all timings."""
    timings: List[float] = []
    result = None
    for attempt in range(SETUP_REPEATS):
        result = None  # so that one set-up's inputs never coexist with the next's
        gc.collect()
        began = time.perf_counter()
        result = setup(attempt)
        timings.append(time.perf_counter() - began)
    return result, timings


def settle(m: Measurements) -> None:
    """Collect set-up garbage, exempt the run's inputs from later collections
    and start the peak-memory measurement.

    The inputs live for the whole run; frozen, they are not rescanned by the
    collector passes the measured rounds trigger, so those passes cost what
    the program's own objects cost.  ``peak_rss_mb`` is the peak from here
    on; the set-up's own peak goes to the report line.
    """
    gc.collect()
    gc.freeze()
    m.setup_peak_rss_mb = reset_peak_rss()


# -- ingest workloads -----------------------------------------------------------------
class WindowRead(NamedTuple):
    """One committed window and the HTTP read that followed it."""

    snapshot: WindowSnapshot
    #: The served payload, or the error text of a failed read.
    payload: object
    query_ms: float
    window_ms: float
    commit_ms: float


def ingest_round(
    source: object,
    window: WindowSpec,
    db_path: Path,
    tracer: Optional[Tracer],
) -> Tuple[StreamEngine, List[WindowRead], float]:
    """Drain *source* into a fresh engine + store, reading every window over HTTP.

    Returns the engine, one :class:`WindowRead` per window, and the wall time
    from the first source block to the last window readable over HTTP.
    """
    store = SnapshotStore(db_path)
    server = ClassificationServer(store).start()
    client = ServiceClient(server.url)
    reads: List[WindowRead] = []
    commits: List[float] = []
    try:
        engine = StreamEngine(StreamConfig(window=window))
        update_started = [0.0]

        def read_window(snapshot: WindowSnapshot) -> None:
            began = time.perf_counter()
            try:
                payload: object = client.latest_snapshot()
            except (ServiceError, OSError) as error:
                payload = f"{type(error).__name__}: {error}"
            done = time.perf_counter()
            reads.append(
                WindowRead(
                    snapshot,
                    payload,
                    (done - began) * 1e3,
                    (done - update_started[0]) * 1e3,
                    commits[-1],
                )
            )

        def mark_update() -> None:
            update_started[0] = time.perf_counter()

        engine.on_window = read_window
        attach_store(engine, store)
        wrap_method(engine.classifier, "update", mark_update, lambda _: None)
        wrap_method(
            store,
            "append_snapshot",
            time.perf_counter,
            lambda began: commits.append((time.perf_counter() - began) * 1e3),
        )
        if tracer is not None:
            if isinstance(source, MRTReplaySource):
                tracer.wrap_iterator_factory(source, "iter_blocks", "mrt")
            trace_engine(tracer, engine)
            trace_service(tracer, store, server, client)
        began = time.perf_counter()
        engine.run(source)
        wall = time.perf_counter() - began
    finally:
        client.close()
        server.close()
        store.close()
        for suffix in ("", "-wal", "-shm"):
            Path(f"{db_path}{suffix}").unlink(missing_ok=True)
    return engine, reads, wall


def check_served(m: Measurements, reads: List[WindowRead]) -> None:
    """Each HTTP read must return exactly the engine's snapshot of its window."""
    for read in reads:
        snapshot, payload = read.snapshot, read.payload
        if not isinstance(payload, dict):
            m.check(False, f"window {snapshot.window_end}: {payload}")
        elif payload.get("window_end") != snapshot.window_end:
            m.check(
                False,
                f"read returned window {payload.get('window_end')}, "
                f"expected {snapshot.window_end}",
            )
        else:
            m.check(
                payload == snapshot_payload(snapshot),
                f"window {snapshot.window_end}: served snapshot differs from the engine's",
            )


def digest(payload: object) -> str:
    """Stable digest of a served payload."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def run_ingest(
    workload: str,
    seed: int,
    seconds: float,
    workdir: Path,
    m: Measurements,
    tracer: Optional[Tracer],
) -> Dict[str, object]:
    """mrt_replay or live_feed: set up, then drain the feed round after round."""
    if workload == "mrt_replay":

        def setup(_attempt: int) -> object:
            blobs, generated = mrt_days(build_internet(seed), REPLAY_PROJECTS, 1)
            return MRTReplaySource(blobs), generated

        (source, observations), setup_s = timed_setups(setup)
        window = REPLAY_WINDOW
        blobs = source.blobs
        # The batch reference, not timed: the batch pipeline over the
        # observations the MRT bytes were encoded from, so a decode defect
        # shows as a mismatch too.
        batch = InferencePipeline().run_from_observations(observations).result
        expected_ases = {
            str(asn): {
                "code": batch.classification_of(asn).code,
                "counters": dataclasses.asdict(batch.counters_of(asn)),
            }
            for asn in batch.observed_ases
        }
        input_bytes = sum(len(blob) for blob in blobs.values())
    else:

        def setup(_attempt: int) -> object:
            blobs, _ = mrt_days(build_internet(seed), LIVE_PROJECTS, LIVE_DAYS)
            return blobs, list(MRTReplaySource(blobs, order="time"))

        (blobs, observations), setup_s = timed_setups(setup)
        window = LIVE_WINDOW
        expected_ases = None
        input_bytes = sum(len(blob) for blob in blobs.values())

    properties = input_properties(observations)
    properties["bytes"] = input_bytes
    if workload == "mrt_replay":
        del observations  # only the batch reference and the properties needed them
    settle(m)
    digests: List[str] = []
    windows: List[int] = []
    counts: Dict[str, float] = {}
    traced_from = None
    for traced in schedule(seconds, m, tracer is not None):
        if traced and traced_from is None:
            traced_from = len(m.round_s)
        if workload == "mrt_replay":
            source = MRTReplaySource(blobs)
        else:
            source = MemorySource(observations)
        engine, reads, wall = ingest_round(
            source, window, workdir / "round.db", tracer if traced else None
        )
        m.round_s.append(wall)
        m.round_ops.append(engine.stats.events_in)
        windows.append(engine.stats.windows_closed)
        # Archive order closes a handful of windows of very different sizes at
        # seed-dependent points, so mrt_replay samples only its final window:
        # the classification of the whole replay.
        for read in reads[-1:] if workload == "mrt_replay" else reads:
            m.query_ms.append(read.query_ms)
            m.window_ms.append(read.window_ms)
            m.commit_ms.append(read.commit_ms)
        check_served(m, reads)
        final = reads[-1].payload if reads else None
        if expected_ases is not None:
            served_ases = final.get("ases", {}) if isinstance(final, dict) else {}
            m.check(
                {
                    asn: {"code": entry["code"], "counters": entry["counters"]}
                    for asn, entry in served_ases.items()
                }
                == expected_ases,
                "final served classification differs from the batch pipeline",
            )
        else:
            digests.append(digest(final))
            m.check(digests[-1] == digests[0], "final served digest changed between rounds")
        if traced:
            add_engine_counts(
                counts, engine, is_mrt=workload == "mrt_replay", input_bytes=input_bytes
            )
    properties["windows"] = windows[0]
    if digests:
        properties["final_digest"] = digests[0][:16]
    return {
        "setup_s": setup_s,
        "properties": properties,
        "traced_from": traced_from,
        "counts": counts,
    }


def add_engine_counts(
    counts: Dict[str, float], engine: StreamEngine, *, is_mrt: bool, input_bytes: int
) -> None:
    """Accumulate the per-round counters a traced ingest round produced."""

    def add(name: str, value: float) -> None:
        counts[name] = counts.get(name, 0) + value

    add("events", engine.stats.events_in)
    add("late_events", engine.late_events)
    add("windows_closed", engine.stats.windows_closed)
    add("dropped", engine.sanitation_stats().dropped_total)
    if is_mrt:
        add("mrt_blocks", engine.stats.blocks_in)
        add("mrt_bytes", input_bytes)


# -- query_mix ------------------------------------------------------------------------
class QueryMix:
    """One keep-alive client and a producer sharing the main thread."""

    def __init__(
        self,
        store: SnapshotStore,
        precomputed: List[WindowSnapshot],
        hot_ases: List[int],
        m: Measurements,
    ) -> None:
        self.store = store
        self.precomputed = precomputed
        self.span = precomputed[-1].window_end - precomputed[0].window_start
        #: One pass: ``(kind, asn, path)`` per query, ``latest`` first.
        self.targets: List[Tuple[str, int, str]] = [
            ("latest", 0, "/v1/snapshot/latest"),
            ("diff", 0, "/v1/diff"),
        ] + [("as", asn, f"/v1/as/{asn}") for asn in hot_ases]
        self.m = m
        self.appended: List[WindowSnapshot] = []
        self.sent = 0
        self.pending: Optional[Tuple[int, float]] = None
        #: ``(kind, asn, payload, index into appended)`` of sampled responses.
        self.samples: List[Tuple[str, int, object, int]] = []

    def next_snapshot(self) -> WindowSnapshot:
        """The next precomputed snapshot, shifted by whole feed spans once reused."""
        count = len(self.appended)
        base = self.precomputed[count % len(self.precomputed)]
        shift = (count // len(self.precomputed)) * self.span
        if shift:
            base = dataclasses.replace(
                base, window_start=base.window_start + shift, window_end=base.window_end + shift
            )
        return base

    def append(self) -> None:
        """Producer step: commit the next snapshot (plain SQLite append)."""
        snapshot = self.next_snapshot()
        self.store.append_snapshot(snapshot)
        self.appended.append(snapshot)

    def round(self, client: ServiceClient) -> int:
        """Run ROUND_PASSES closed-loop passes, appending before every
        PASSES_PER_APPEND-th; returns the number of queries sent."""
        m = self.m
        for index in range(ROUND_PASSES):
            if index % PASSES_PER_APPEND == 0:
                began = time.perf_counter()
                self.append()
                m.commit_ms.append((time.perf_counter() - began) * 1e3)
                self.pending = (self.appended[-1].window_end, began)
            for kind, asn, target in self.targets:
                self.query(client, kind, asn, target)
        return ROUND_PASSES * len(self.targets)

    def query(self, client: ServiceClient, kind: str, asn: int, target: str) -> None:
        """One timed, checked query."""
        m = self.m
        sent = self.sent
        began = time.perf_counter()
        try:
            payload: object = client.get(target)
        except (ServiceError, OSError) as error:
            payload = f"{type(error).__name__}: {error}"
        done = time.perf_counter()
        m.query_ms.append((done - began) * 1e3)
        if not isinstance(payload, dict):
            m.check(False, f"{target}: {payload}")
        elif kind == "latest" and self.pending is not None:
            # The first snapshot read after an append must see that window.
            window_end, committed = self.pending
            self.pending = None
            m.check(
                payload.get("window_end") == window_end,
                f"read returned window {payload.get('window_end')}, expected {window_end}",
            )
            m.window_ms.append((done - committed) * 1e3)
        elif sent % SAMPLE_EVERY == 0:
            self.samples.append((kind, asn, payload, len(self.appended) - 1))
        else:
            m.check(True, "")
        self.sent += 1

    def check_samples(self) -> None:
        """Sampled bodies must equal what the producer had committed at the time."""
        expected_payloads: Dict[int, Dict[str, object]] = {}
        for kind, asn, payload, index in self.samples:
            expected = expected_payloads.get(index)
            if expected is None:
                expected = expected_payloads[index] = snapshot_payload(self.appended[index])
            if kind == "latest":
                ok = payload == expected
            elif kind == "diff":
                ok = (
                    payload.get("window_end") == expected["window_end"]
                    and payload.get("changed") == expected["changed"]
                )
            else:
                latest = payload.get("latest") or {}
                entry = expected["ases"].get(str(asn), {})
                ok = (
                    latest.get("window_end") == expected["window_end"]
                    and payload.get("code") == entry.get("code")
                    and latest.get("counters") == entry.get("counters")
                )
            self.m.check(ok, f"{kind} {asn}: body does not match committed snapshot {index}")
        self.samples = []


def run_query_mix(
    seed: int,
    seconds: float,
    workdir: Path,
    m: Measurements,
    tracer: Optional[Tracer],
) -> Dict[str, object]:
    """query_mix: warm a store with precomputed windows, then query and append."""

    stores: List[SnapshotStore] = []

    def setup(attempt: int) -> object:
        internet = build_internet(seed)
        observations = internet.observations_for_day(["ripe"], 0)
        observations.sort(key=lambda observation: (observation.timestamp, observation.collector))
        precomputed: List[WindowSnapshot] = []
        engine = StreamEngine(StreamConfig(window=QUERY_WINDOW), on_window=precomputed.append)
        engine.run(MemorySource(observations))
        store = SnapshotStore(workdir / f"setup{attempt}.db")
        stores.append(store)
        for snapshot in precomputed[:WARM_SNAPSHOTS]:
            store.append_snapshot(snapshot)
        return observations, precomputed, store

    (observations, precomputed, store), setup_s = timed_setups(setup)
    for stale in stores[:-1]:
        stale.close()
    properties = input_properties(observations)
    properties["bytes"] = sum(  # the warm store: database file and write-ahead log
        path.stat().st_size for path in workdir.glob(Path(store.path).name + "*")
    )
    properties["windows"] = len(precomputed)
    del observations
    settle(m)
    # Hot ASes as the service benchmark picks them, but from the first window:
    # the producer cycles back to it, and an AS it does not carry would be
    # served from an older window than the one just appended.
    observed = sorted(precomputed[0].result.observed_ases)
    hot_ases = observed[:: max(1, len(observed) // HOT_ASES)][:HOT_ASES]
    mix = QueryMix(store, precomputed, hot_ases, m)
    mix.appended.extend(precomputed[:WARM_SNAPSHOTS])
    server = ClassificationServer(store).start()
    client = ServiceClient(server.url)
    counts: Dict[str, float] = {}
    traced_from = None
    stats_before: Dict[str, int] = {}
    try:
        for traced in schedule(seconds, m, tracer is not None):
            if traced and traced_from is None:
                traced_from = len(m.round_s)
                trace_service(tracer, store, server, client)
                stats_before = server.service.stats.as_dict()
            began = time.perf_counter()
            queries = mix.round(client)
            m.round_s.append(time.perf_counter() - began)
            m.round_ops.append(queries)
            mix.check_samples()
        if traced_from is not None:
            stats_after = server.service.stats.as_dict()
            for name in ("requests", "cache_hits"):
                counts[name] = stats_after[name] - stats_before[name]
    finally:
        client.close()
        server.close()
        store.close()
    properties.update(
        {
            "warm_windows": WARM_SNAPSHOTS,
            "appended_windows": len(mix.appended) - WARM_SNAPSHOTS,
            "hot_ases": len(hot_ases),
            "queries_per_append": PASSES_PER_APPEND * len(mix.targets),
        }
    )
    return {
        "setup_s": setup_s,
        "properties": properties,
        "traced_from": traced_from,
        "counts": counts,
    }


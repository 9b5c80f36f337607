"""The repository's benchmark: the paper's read/update trade-off, served end to end.

    python3 perfbench/run.py --workload path_read --seed 1 --seconds 10 --trace 0

It builds the paper's schema from a fixed seed (cached under
``perfbench/out/``), serves the snapshot from ``python -m repro.server`` in
its own process, drives it from this process over at most two closed-loop
connections, checks every answer against the benchmark's own model, and
prints one JSON object as its last line.

* ``--seed`` picks the statement streams; the same seed gives the same
  statements.
* A run attempts a fixed number of whole rounds: ``--seconds`` times the
  workload's nominal round rate, so the counts never depend on timing.
* ``--trace 0`` reports the end-to-end metrics; set-up is measured on each
  of ``SETUP_RUNS`` server starts and reported as their median.
* ``--trace 1`` reports the per-layer metrics: ``stats`` deltas from an
  untraced pass, then self times from a second pass over the same
  statements against ``perfbench/traced_server.py``.
* ``--quick`` uses a tiny database and two rounds, for the smoke test.

Each run also writes a record (metrics, counts, host, git sha, date) to
``perfbench/out/runs/``; spans of traced runs go to ``perfbench/out/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import dbgen
import spantrace
import streams
from streams import CheckError, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 3
#: a statement that takes longer than this is a hung server
READ_TIMEOUT_S = 60.0
PROBE = Op("read", 0, 0)


@dataclass(frozen=True)
class Size:
    n_s: int
    f: int
    read_rows: int
    update_rows: int
    #: rounds per second of --seconds; ``None`` runs ``fixed_rounds``
    round_rate: dict | None
    #: slices a run is cut into; each metric is the median over them
    chunks: int
    fixed_rounds: int = 0
    frames: int = 64
    db_seed: int = 1989


FULL = Size(n_s=2000, f=5, read_rows=100, update_rows=10,
            round_rate={"path_read": 6.5, "join_read": 3.5,
                        "update_mix": 8.0, "cached_zipf": 4.5},
            chunks=10)
QUICK = Size(n_s=100, f=5, read_rows=20, update_rows=4, round_rate=None,
             chunks=2, fixed_rounds=2)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------


class ServerProcess:
    """``python -m repro.server`` (or the traced wrapper) as a child process."""

    def __init__(self, argv: list[str], log: Path) -> None:
        self.argv = argv
        self.log = log
        self.proc: subprocess.Popen | None = None
        self.host, self.port = "", 0

    def start(self, timeout: float = 120.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p)
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(self.argv, cwd=ROOT, env=env,
                                         stdout=subprocess.PIPE, stderr=log)
        line = self._readline(timeout)
        if not line.startswith("listening on "):
            raise BenchError(f"server did not start ({line!r}); see {self.log}")
        self.host, port = line.split()[-1].rsplit(":", 1)
        self.port = int(port)

    def _readline(self, timeout: float) -> str:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        data = b""
        while not data.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return data.decode(errors="replace")
            chunk = os.read(fd, 1)
            if not chunk:
                break
            data += chunk
        return data.decode(errors="replace").strip()

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Drain the server through the ``shutdown`` verb; kill it if that fails."""
        if self.proc is None:
            return
        from repro.server import connect

        try:
            if self.proc.poll() is None:
                connect(self.host, self.port, timeout=10.0,
                        retry=False).shutdown()
            self.proc.wait(timeout=60.0)
        except Exception:  # noqa: BLE001 - a server that will not drain is killed
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.proc = None


def ensure_snapshot(size: Size) -> Path:
    """The workload database, built once per checkout and size."""
    path = OUT / f"db-s{size.n_s}-f{size.f}-p{size.frames}-seed{size.db_seed}.frdb"
    if not path.exists():
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, str(HERE / "dbgen.py"), "--out", str(path),
                        "--n-s", str(size.n_s), "--f", str(size.f),
                        "--seed", str(size.db_seed), "--frames", str(size.frames)],
                       env=env, check=True, timeout=850)
    return path


def spawn(snapshot: Path, plan, model, tag: str,
          spans: Path | None = None) -> tuple[ServerProcess, float]:
    """Start a server; returns it and the seconds to its first answer."""
    from repro.server import connect

    args = ["--port", "0", "--snapshot", str(snapshot)]
    if plan.cache:
        args.append("--cache")
    if spans is None:
        argv = [sys.executable, "-m", "repro.server", *args]
    else:
        argv = [sys.executable, str(HERE / "traced_server.py"),
                "--spans", str(spans), "--", *args]
    server = ServerProcess(argv, OUT / f"server-{tag}.log")
    began = perf_counter()
    try:
        server.start()
        with connect(server.host, server.port, timeout=READ_TIMEOUT_S,
                     retry=False) as client:
            rows = client.execute(PROBE.text).rows
        setup_s = perf_counter() - began
        streams.check_exact(PROBE, rows, model, model.rep)
    except BaseException:
        server.stop()
        raise
    return server, setup_s


# ---------------------------------------------------------------------------
# the load generator
# ---------------------------------------------------------------------------


@dataclass
class Chunk:
    """One slice of whole rounds, measured on its own."""

    start: float = 0.0
    end: float = 0.0
    cpu_start: float = 0.0
    cpu_s: float = 0.0
    done: int = 0
    failed: int = 0
    writes: int = 0
    latencies: list = field(default_factory=list)
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)


@dataclass
class Phase:
    """What one pass over a plan measured."""

    attempted: int
    chunks: list
    rss_mb: float = 0.0
    #: seconds from the start until each connection finished its stream
    connection_wall_s: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.chunks)

    @property
    def done(self) -> int:
        return sum(c.done for c in self.chunks)

    @property
    def writes(self) -> int:
        return sum(c.writes for c in self.chunks)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.chunks)

    @property
    def wall_s(self) -> float:
        return sum(c.end - c.start for c in self.chunks)

    @property
    def windows(self) -> list:
        return [(c.start, c.end) for c in self.chunks]

    @property
    def read_latencies(self) -> list:
        return [x for c in self.chunks for x in c.latencies]

    @property
    def stats_before(self) -> dict:
        return self.chunks[0].stats_before

    @property
    def stats_after(self) -> dict:
        return self.chunks[-1].stats_after


def drive(server: ServerProcess, plan, model, final_checks: bool) -> Phase:
    """Run the plan's streams, one closed-loop connection each.

    The streams are cut into ``plan.chunks`` slices of whole rounds; the
    connections meet at a barrier between slices, where the server's CPU
    time and ``stats`` are read, so each slice is measured on its own.
    """
    from repro.errors import RemoteError
    from repro.server import connect

    phase = Phase(attempted=plan.statements,
                  chunks=[Chunk() for __ in range(plan.chunks)])
    rep = list(model.rep)
    #: S key -> every repfield value it may show (update_mix's reader)
    allowed = [{value} for value in rep]
    allowed_lock = threading.Lock()
    racing = plan.workload == "update_mix"
    clients = [connect(server.host, server.port, timeout=READ_TIMEOUT_S,
                       retry=False) for __ in plan.streams]
    boundary = iter(range(plan.chunks + 1))
    fatal: list[BaseException] = []

    def at_boundary() -> None:
        # runs in one thread while every connection waits at the barrier
        j = next(boundary)
        now, cpu = perf_counter(), server.cpu_seconds()
        stats = clients[0].stats()
        if j > 0:
            chunk = phase.chunks[j - 1]
            chunk.end, chunk.cpu_s = now, cpu - chunk.cpu_start
            chunk.stats_after = stats
        if j < plan.chunks:
            chunk = phase.chunks[j]
            chunk.stats_before = stats
            chunk.cpu_start = server.cpu_seconds()
            chunk.start = perf_counter()

    barrier = threading.Barrier(len(clients), action=at_boundary)
    outcome_lock = threading.Lock()

    def run_ops(client, ops, chunk: Chunk) -> None:
        latencies, failed, writes = [], 0, 0
        for op in ops:
            if op.kind == "update":
                with allowed_lock:
                    for key in range(op.lo, op.hi + 1):
                        allowed[key].add(op.value)
            began = perf_counter()
            try:
                result = client.execute(op.text)
            except RemoteError as exc:
                failed += 1
                phase.errors.append(f"{op.text}: {exc}")
                continue
            elapsed = perf_counter() - began
            try:
                if op.kind == "update":
                    writes += 1
                    streams.check_exact(op, result.rows, model, rep)
                    rep[op.lo:op.hi + 1] = [op.value] * (op.hi - op.lo + 1)
                elif racing:
                    streams.check_allowed(op, result.rows, model, allowed)
                else:
                    streams.check_exact(op, result.rows, model, rep)
            except CheckError as exc:
                phase.mismatches.append(str(exc))
            if op.is_read:
                latencies.append(elapsed)
        with outcome_lock:
            chunk.latencies.extend(latencies)
            chunk.failed += failed
            chunk.done += len(ops) - failed
            chunk.writes += writes

    def loop(client, ops) -> None:
        try:
            size = len(ops) // plan.chunks
            for j, chunk in enumerate(phase.chunks):
                barrier.wait()
                run_ops(client, ops[j * size:(j + 1) * size], chunk)
            finished = perf_counter()
            with outcome_lock:
                phase.connection_wall_s.append(finished - phase.chunks[0].start)
            barrier.wait()
        except threading.BrokenBarrierError:
            pass
        except Exception as exc:  # noqa: BLE001 - reported by the caller
            fatal.append(exc)
            barrier.abort()

    try:
        for client, ops in zip(clients, plan.warmup):
            for op in ops:
                streams.check_exact(op, client.execute(op.text).rows, model, rep)
        threads = [threading.Thread(target=loop, args=(c, ops), daemon=True)
                   for c, ops in zip(clients, plan.streams)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170.0)
            if thread.is_alive():
                raise BenchError("a connection did not finish its stream")
        if fatal or barrier.broken:
            raise BenchError(f"a connection failed: {fatal[:1]!r}")
        phase.rss_mb = server.peak_rss_mb()
        if final_checks and racing:
            final_check(clients[0], model, rep, phase)
    finally:
        for client in clients:
            client.close()
    return phase


def final_check(client, model, rep: list[str], phase: Phase) -> None:
    """After update_mix: the whole database equals the last-written model."""
    rows = client.execute("retrieve (R.field_r, R.sref.repfield)").rows
    want = {(r, rep[model.target[r]]) for r in range(model.n_r)}
    if len(rows) != model.n_r or set(map(tuple, rows)) != want:
        phase.mismatches.append("final R read differs from the model")
    rows = client.execute("retrieve (S.field_s, S.repfield, S.other)").rows
    want = {(s, rep[s], model.other[s]) for s in range(model.n_s)}
    if len(rows) != model.n_s or set(map(tuple, rows)) != want:
        phase.mismatches.append("final S read differs from the model")
    verdict = client.meta("verify")
    if "invariants hold" not in verdict:
        phase.mismatches.append(f"verify: {verdict}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


#: end-to-end metric -> unit; all but the last two are medians over chunks
E2E_UNITS = {
    "throughput_stmts_per_s": "1/s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "server_cpu_ms_per_stmt": "ms",
    "page_io_per_stmt": "pages",
    "server_rss_mb": "MiB",
    "setup_s": "s",
}


def chunk_values(c: Chunk) -> dict:
    """A chunk's own value of each end-to-end metric measured per chunk."""
    before, after = c.stats_before["io"], c.stats_after["io"]
    page_io = sum(after[k] - before[k] for k in ("physical_reads", "physical_writes"))
    return {
        "throughput_stmts_per_s": c.done / (c.end - c.start),
        "read_p50_ms": percentile(c.latencies, 50) * 1000.0,
        "read_p90_ms": percentile(c.latencies, 90) * 1000.0,
        "server_cpu_ms_per_stmt": c.cpu_s * 1000.0 / c.done,
        "page_io_per_stmt": page_io / c.done,
    }


def end_to_end(per_chunk: list[dict], rss_mb: float, setup_runs: list[float]) -> dict:
    values = {name: statistics.median(v[name] for v in per_chunk)
              for name in per_chunk[0]}
    values["server_rss_mb"] = rss_mb
    values["setup_s"] = statistics.median(setup_runs)
    return {name: (values[name], unit) for name, unit in E2E_UNITS.items()}


def _waits(stats: dict) -> dict:
    return {row["event"]: row["seconds"]
            for row in stats.get("waits", {}).get("events", [])}


def from_stats(phase: Phase) -> dict:
    """Per-layer counts from the server's ``stats`` verb, before and after."""
    before, after = phase.stats_before, phase.stats_after
    n = phase.done
    writes = phase.writes

    def delta(*path) -> float:
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return a - b

    def per(value: float, base: int) -> float:
        return value / base if base else 0.0

    logical = delta("io", "logical_reads")
    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    waits_a, waits_b = _waits(after), _waits(before)

    def wait_ms(event: str) -> float:
        return (waits_a.get(event, 0.0) - waits_b.get(event, 0.0)) * 1000.0

    return {
        "storage.physical_reads_per_stmt": (per(delta("io", "physical_reads"), n), "pages"),
        "storage.physical_writes_per_stmt": (per(delta("io", "physical_writes"), n), "pages"),
        "storage.logical_reads_per_stmt": (per(logical, n), "pages"),
        "storage.evictions_per_stmt": (per(delta("io", "evictions"), n), "pages"),
        "storage.hit_ratio": (per(delta("io", "buffer_hits"), logical), "ratio"),
        "locks.waits_per_stmt": (per(delta("locks", "waits_total"), n), "count"),
        "locks.wait_ms_per_stmt": (per(delta("locks", "wait_seconds_total") * 1000.0, n), "ms"),
        "admission.wait_ms_per_stmt": (per(wait_ms("admission_wait"), n), "ms"),
        "session.queue_wait_ms_per_stmt": (per(wait_ms("queue_wait"), n), "ms"),
        "waits.cpu_ms_per_stmt": (per(wait_ms("cpu"), n), "ms"),
        "wal.flushes_per_write": (per(delta("wal", "flushes"), writes), "count"),
        "wal.records_retained": (after["wal"]["records"], "count"),
        "replog.entries_retained": (after["replication"].get("retained", 0), "count"),
        "cache.hit_ratio": (per(hits, hits + misses), "ratio"),
        "cache.invalidations_per_write": (
            per(delta("cache", "invalidations", "write"), writes), "count"),
    }


#: traced metric -> (span names, what it is divided by)
TRACED = {
    "protocol.frame_ms_per_stmt": (("protocol.encode_frame", "protocol.read_frame",
                                    "protocol.write_frame"), "stmt"),
    "session.self_ms_per_stmt": (("session.run_statement",), "stmt"),
    "locks.acquire_ms_per_stmt": (("locks.footprint_for_statement", "locks.acquire"),
                                  "stmt"),
    "query.parse_ms_per_stmt": (("query.parse_statement",), "stmt"),
    "query.plan_ms_per_stmt": (("query.plan_retrieve", "query.plan_replace"), "stmt"),
    "query.execute_self_ms_per_stmt": (("query.execute_retrieve",
                                        "query.execute_update"), "stmt"),
    "batchjoin.resolve_ms_per_stmt": (("batchjoin.resolve_step_batch",), "stmt"),
    "index.range_ms_per_stmt": (("index.range",), "stmt"),
    "objects.read_ms_per_stmt": (("objects.read", "objects.read_many"), "stmt"),
    "storage.fetch_ms_per_stmt": (("storage.fetch", "storage.fetch_many"), "stmt"),
    "storage.output_ms_per_stmt": (tuple("output." + n for n in spantrace.OUTPUT),
                                   "stmt"),
    "replication.propagate_ms_per_update": (("replication.propagate_update",), "write"),
    "wal.commit_ms_per_write": (("wal.commit",), "write"),
    "cache.probe_ms_per_stmt": (("cache.get", "cache.hit"), "stmt"),
    "cache.fill_ms_per_miss": (("cache.fill",), "miss"),
}


def from_spans(server_spans: dict, client_spans: dict, traced: Phase,
               untraced: Phase) -> dict:
    """Self time per statement (or per write / per miss) in each layer."""
    times: dict[str, float] = {}
    for doc in (server_spans, client_spans):
        for name, (secs, __) in spantrace.layer_times(doc, traced.windows).items():
            times[name] = times.get(name, 0.0) + secs
    bases = {
        "stmt": traced.done,
        "write": traced.writes,
        "miss": (traced.stats_after["cache"]["misses"]
                 - traced.stats_before["cache"]["misses"]),
    }
    metrics = {}
    for metric, (names, base) in TRACED.items():
        total = sum(times.get(name, 0.0) for name in names) * 1000.0
        metrics[metric] = (total / bases[base] if bases[base] else 0.0, "ms")
    cpu = [p.cpu_s / p.done for p in (traced, untraced)]
    metrics["trace.overhead_ratio"] = (cpu[0] / cpu[1], "ratio")
    return metrics


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run(workload: str, seed: int, seconds: int, trace: bool, quick: bool) -> dict:
    size = QUICK if quick else FULL
    rounds = (size.fixed_rounds if size.round_rate is None else size.chunks
              * max(1, round(seconds * size.round_rate[workload] / size.chunks)))
    model = dbgen.Model(size.n_s, size.f, size.db_seed)
    escaped = streams.self_test(model)
    if escaped:
        raise BenchError(f"checks that let a corrupted row pass: {escaped}")
    plan = streams.make_plan(workload, model, seed, rounds, size.chunks,
                             size.read_rows, size.update_rows)
    snapshot = ensure_snapshot(size)
    tag = f"{workload}-{seed}"
    if not trace:
        setups, server = [], None
        try:
            for __ in range(SETUP_RUNS):
                if server is not None:
                    server.stop()
                server, setup_s = spawn(snapshot, plan, model, tag)
                setups.append(setup_s)
            phase = drive(server, plan, model, final_checks=True)
        finally:
            if server is not None:
                server.stop()
        per_chunk = [chunk_values(c) for c in phase.chunks]
        metrics = end_to_end(per_chunk, phase.rss_mb, setups)
        extra = {"setup_runs_s": setups, "chunks": per_chunk,
                 "read_p99_ms": percentile(phase.read_latencies, 99) * 1000.0,
                 "read_samples": len(phase.read_latencies)}
    else:
        server, __ = spawn(snapshot, plan, model, tag)
        try:
            phase = drive(server, plan, model, final_checks=True)
        finally:
            server.stop()
        (OUT / "spans").mkdir(exist_ok=True)
        server_file = OUT / "spans" / f"{tag}-server.json.gz"
        client_file = OUT / "spans" / f"{tag}-client.json.gz"
        server_file.unlink(missing_ok=True)
        server, __ = spawn(snapshot, plan, model, tag + "-traced", spans=server_file)
        recorder = spantrace.SpanRecorder(spantrace.CLIENT_ROOT)
        missing, uninstall = spantrace.install(recorder, spantrace.CLIENT_TARGETS)
        try:
            traced = drive(server, plan, model, final_checks=False)
        finally:
            uninstall()
            server.stop()
        recorder.dump(str(client_file), missing)
        if not server_file.exists():
            raise BenchError("the traced server wrote no spans")
        server_spans = spantrace.load(str(server_file))
        client_spans = spantrace.load(str(client_file))
        metrics = {**from_stats(phase),
                   **from_spans(server_spans, client_spans, traced, phase)}
        extra = {"spans": [str(server_file.relative_to(ROOT)),
                           str(client_file.relative_to(ROOT))],
                 "spans_missing": server_spans["missing"] + client_spans["missing"]}
        phase.mismatches += traced.mismatches
        phase.errors += traced.errors
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "quick": quick, "rounds": rounds,
        "attempted": phase.attempted, "failed": phase.failed,
        "mismatches": phase.mismatches[:20], "errors": phase.errors[:20],
        "wall_s": phase.wall_s, "connection_wall_s": phase.connection_wall_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
        "host": {"cores": os.cpu_count(), "python": platform.python_version(),
                 "git_sha": git_sha(),
                 "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=streams.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny database, two rounds (smoke test)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "server" / "__main__.py").is_file():
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.quick)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / "runs" / name, "w") as out:
        json.dump(record, out, indent=1)
    print("record: " + json.dumps({k: v for k, v in record.items()
                                   if k != "metrics"}))
    print(json.dumps({"correct": not record["mismatches"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

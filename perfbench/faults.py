"""Reproductions of two faults the benchmark works around.

    python3 perfbench/faults.py wal        # the WAL of a serving primary only grows
    python3 perfbench/faults.py deadlock   # a 32-frame pool hangs under two joins

``wal`` serves the benchmark database and runs the paper's update in
batches of 50, printing the server's peak RSS and retained WAL records
after each batch: nothing under ``repro.server`` checkpoints, so both grow
with every update.

``deadlock`` serves the same data with a 32-frame buffer pool and runs
200 100-row ``join_read`` statements on two connections.  Statements fail with
``all buffer frames are pinned``, and the server stops answering once
``BufferPool._evict`` (frame latch, then shard lock) meets
``drop_file_pages`` (shard lock, then frame latch).  A statement that gets
no answer within ``STALL_S`` seconds counts as a hang; the server is then
killed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import threading

import dbgen
import run
import streams

UPDATE_BATCHES = 6
JOIN_STATEMENTS = 200
STALL_S = 20.0


def serve(frames: int, tag: str) -> tuple[run.ServerProcess, dbgen.Model]:
    size = dataclasses.replace(run.FULL, frames=frames)
    model = dbgen.Model(size.n_s, size.f, size.db_seed)
    snapshot = run.ensure_snapshot(size)
    server = run.ServerProcess(
        [sys.executable, "-m", "repro.server", "--port", "0",
         "--snapshot", str(snapshot)], run.OUT / f"server-fault-{tag}.log")
    server.start()
    return server, model


def wal_growth() -> int:
    from repro.server import connect

    server, model = serve(64, "wal")
    try:
        with connect(server.host, server.port, timeout=60.0) as client:
            plan = streams.make_plan("update_mix", model, 1, 25 * UPDATE_BATCHES, 1,
                                     run.FULL.read_rows, run.FULL.update_rows)
            updates = plan.streams[0]
            print(f"idle: peak RSS {server.peak_rss_mb():.0f} MiB, "
                  f"WAL records {client.stats()['wal']['records']}")
            for batch in range(UPDATE_BATCHES):
                for op in updates[batch * 50:(batch + 1) * 50]:
                    client.execute(op.text)
                print(f"after {50 * (batch + 1)} updates: peak RSS "
                      f"{server.peak_rss_mb():.0f} MiB, WAL records "
                      f"{client.stats()['wal']['records']}")
    finally:
        server.stop()
    return 0


def pool_deadlock() -> int:
    from repro.errors import RemoteError
    from repro.server import connect

    server, model = serve(32, "deadlock")
    plan = streams.make_plan("join_read", model, 1, JOIN_STATEMENTS // 20, 1,
                             run.FULL.read_rows, run.FULL.update_rows)
    lock = threading.Lock()
    counts = {"ok": 0, "pinned": 0, "other": 0, "hung": 0}

    def loop(ops) -> None:
        try:
            with connect(server.host, server.port, timeout=STALL_S,
                         retry=False) as client:
                for op in ops:
                    try:
                        client.execute(op.text)
                        outcome = "ok"
                    except RemoteError as exc:
                        outcome = "pinned" if "pinned" in str(exc) else "other"
                    with lock:
                        counts[outcome] += 1
        except OSError:  # no answer within STALL_S seconds
            with lock:
                counts["hung"] += 1

    threads = [threading.Thread(target=loop, args=(ops,), daemon=True)
               for ops in plan.streams]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        server.proc.kill()
        server.proc.wait()
        server.proc.stdout.close()
    print(f"{JOIN_STATEMENTS} statements on 2 connections, 32 frames: "
          f"{counts['ok']} answered, {counts['pinned']} failed with pinned "
          f"frames, {counts['other']} other errors, "
          f"{counts['hung']} connection(s) got no answer for {STALL_S:.0f} s")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fault", choices=("wal", "deadlock"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    return wal_growth() if args.fault == "wal" else pool_deadlock()


if __name__ == "__main__":
    sys.exit(main())

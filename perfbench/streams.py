"""Seeded statement streams for the four workloads, and the checks on their answers.

Every stream is made of whole rounds, so the statements attempted depend
only on the workload and the round count, never on timing.  Every answer
is compared with ``dbgen.Model``: the benchmark's own arrays, computed
from the seed without the program.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

WORKLOADS = ("path_read", "join_read", "update_mix", "cached_zipf")

#: statements per round on each connection, per workload
ROUND = {
    "path_read": (10,),
    # one connection: two concurrent retrieves can deadlock the buffer pool
    "join_read": (10,),
    # connection 0 writes, connection 1 reads
    "update_mix": (2, 3),
    # 49 Zipf-skewed reads, then one update
    "cached_zipf": (50,),
}
#: cached_zipf: distinct read statements (one is the group-by), skew
ZIPF_DISTINCT = 30
ZIPF_S = 1.7


class CheckError(Exception):
    """An answer differs from the model."""


@dataclass(frozen=True)
class Op:
    """One statement: ``kind`` is read, join, group or update."""

    kind: str
    lo: int
    hi: int
    value: str = ""

    @property
    def text(self) -> str:
        if self.kind == "update":
            return (f'replace (S.repfield = "{self.value}") '
                    f"where S.field_s >= {self.lo} and S.field_s <= {self.hi}")
        where = f"where R.field_r >= {self.lo} and R.field_r <= {self.hi}"
        if self.kind == "read":
            return f"retrieve (R.field_r, R.sref.repfield) {where}"
        if self.kind == "join":
            return f"retrieve (R.field_r, R.sref.other) {where}"
        return (f"retrieve (R.sref.repfield, count(R.field_r)) {where} "
                f"group by R.sref.repfield")

    @property
    def is_read(self) -> bool:
        return self.kind != "update"


@dataclass(frozen=True)
class Plan:
    """The statements each connection runs, in order."""

    workload: str
    warmup: tuple[tuple[Op, ...], ...]
    streams: tuple[tuple[Op, ...], ...]
    cache: bool
    #: slices of whole rounds, each measured on its own
    chunks: int

    @property
    def statements(self) -> int:
        return sum(len(s) for s in self.streams)


def make_plan(workload: str, model, seed: int, rounds: int, chunks: int,
              read_rows: int, update_rows: int) -> Plan:
    """The seeded statement streams of ``rounds`` whole rounds, a multiple
    of ``chunks``."""
    if rounds % chunks:
        raise ValueError(f"{rounds} rounds do not split into {chunks} chunks")
    rng = random.Random(f"{workload}:{seed}")

    def range_op(kind: str) -> Op:
        lo = rng.randrange(model.n_r - read_rows + 1)
        return Op(kind, lo, lo + read_rows - 1)

    update_no = 0

    def update_op() -> Op:
        nonlocal update_no
        update_no += 1
        lo = rng.randrange(model.n_s - update_rows + 1)
        return Op("update", lo, lo + update_rows - 1,
                  f"u{seed % 100000}n{update_no}")

    per_round = ROUND[workload]
    kind = "join" if workload == "join_read" else "read"
    warmup = tuple(tuple(range_op(kind) for __ in range(3)) for __ in per_round)
    if workload == "update_mix":
        streams = (tuple(update_op() for __ in range(rounds * per_round[0])),
                   tuple(range_op("read") for __ in range(rounds * per_round[1])))
    elif workload == "cached_zipf":
        # distinct ranges, so that every round has the same number of misses
        los = rng.sample(range(model.n_r - read_rows + 1), ZIPF_DISTINCT)
        distinct = [Op("read" if i else "group", lo, lo + read_rows - 1)
                    for i, lo in enumerate(los)]
        stream = []
        for __ in range(rounds):
            # which statements are hot is seeded and moves each round
            rng.shuffle(distinct)
            reads = zipf_quota(distinct, per_round[0] - 1)
            rng.shuffle(reads)
            stream.extend(reads)
            stream.append(update_op())
        streams = (tuple(stream),)
    else:
        streams = tuple(tuple(range_op(kind) for __ in range(rounds * n))
                        for n in per_round)
    return Plan(workload, warmup, streams, cache=workload == "cached_zipf",
                chunks=chunks)


def zipf_quota(distinct: list[Op], k: int) -> list[Op]:
    """``k`` reads with the i-th statement ``k * w_i`` times, w_i ~ 1/i^s.

    Stratified rather than drawn: every round has the same counts, and the
    round's update invalidates every cached entry, so every run sees the
    same number of cache misses whatever the seed.
    """
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(distinct))]
    shares = [k * w / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(distinct)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[:k - sum(counts)]:
        counts[i] += 1
    return [op for op, n in zip(distinct, counts) for __ in range(n)]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def expected_rows(op: Op, model, rep: list[str]) -> Counter:
    """The answer to ``op`` as a multiset, given each S key's repfield."""
    keys = range(op.lo, op.hi + 1)
    if op.kind == "read":
        return Counter((r, rep[model.target[r]]) for r in keys)
    if op.kind == "join":
        return Counter((r, model.other[model.target[r]]) for r in keys)
    if op.kind == "group":
        counts = Counter(rep[model.target[r]] for r in keys)
        return Counter(counts.items())
    raise ValueError(f"no rows expected for {op.kind}")


def check_exact(op: Op, rows, model, rep: list[str]) -> None:
    """Rows, as a multiset, equal the model's answer at this point."""
    if op.kind == "update":
        if len(rows) != op.hi - op.lo + 1:
            raise CheckError(f"{op.text}: {len(rows)} objects updated, "
                             f"expected {op.hi - op.lo + 1}")
        return
    got = Counter(tuple(row) for row in rows)
    want = expected_rows(op, model, rep)
    if got != want:
        wrong = sorted((got - want).items())[:3]
        missing = sorted((want - got).items())[:3]
        raise CheckError(f"{op.text}: unexpected {wrong}, missing {missing}")


def check_allowed(op: Op, rows, model, allowed: list[set]) -> None:
    """A read racing the writer: the keys are exactly the range, and each
    row's value is the S key's initial value or one the writer assigned."""
    keys = Counter(row[0] for row in rows)
    if keys != Counter(range(op.lo, op.hi + 1)):
        raise CheckError(f"{op.text}: wrong R keys")
    for r, value in rows:
        if value not in allowed[model.target[r]]:
            raise CheckError(f"{op.text}: R {r} reads {value!r}, never "
                             f"assigned to S {model.target[r]}")


def self_test(model) -> list[str]:
    """Feed each check one corrupted row; returns the checks that let it pass."""
    rep = list(model.rep)
    allowed = [{v} for v in rep]
    escaped = []

    def must_fail(name, fn, rows) -> None:
        try:
            fn(rows)
        except CheckError:
            return
        escaped.append(name)

    for kind in ("read", "join", "group"):
        op = Op(kind, 0, min(9, model.n_r - 1))
        rows = sorted(expected_rows(op, model, rep).elements())
        check_exact(op, rows, model, rep)  # the right answer passes
        bad = list(rows)
        bad[0] = (bad[0][0], "corrupt") if kind != "group" else (bad[0][0], bad[0][1] + 1)
        must_fail(f"exact:{kind}", lambda r, op=op: check_exact(op, r, model, rep), bad)
        if kind == "read":
            check_allowed(op, rows, model, allowed)
            must_fail("allowed:value",
                      lambda r, op=op: check_allowed(op, r, model, allowed), bad)
            must_fail("allowed:keys",
                      lambda r, op=op: check_allowed(op, r, model, allowed),
                      [(rows[0][0] + 1000000, rows[0][1])] + rows[1:])
    update = Op("update", 0, 1, "x")
    must_fail("exact:update", lambda r: check_exact(update, r, model, rep), [("oid",)])
    return escaped

"""Seeded generator for the benchmark database and the benchmark's own model of it.

The database is the paper's two-set schema (section 6)::

    define type STYPE (field_s: int, repfield: char[20], other: char[20], pad)
    define type RTYPE (field_r: int, sref: ref STYPE, pad)
    create S: {own ref STYPE}         |S| = n_s
    create R: {own ref RTYPE}         |R| = f * n_s, f referencers per S object
    build btree on R.field_r          unclustered
    build btree on S.field_s          unclustered
    replicate R.sref.repfield         in place

``Model`` is computed from the seed alone, without the program, and is what
every answer is checked against.  ``build`` loads the same data into a
database and saves a snapshot for ``python -m repro.server --snapshot``.

    python perfbench/dbgen.py --out db.frdb --n-s 2000 --f 5 --seed 1989
"""

from __future__ import annotations

import argparse
import os
import random
import sys

#: object sizes of the paper's analysis (r = 100, s = 200 bytes)
R_PAD = 100 - 4 - 8
S_PAD = 200 - 4 - 20 - 20
#: distinct initial ``repfield`` values, so a group-by folds rows
REP_GROUPS = 40


class Model:
    """The benchmark's copy of the data: what each answer must equal."""

    def __init__(self, n_s: int, f: int, seed: int) -> None:
        rng = random.Random(seed)
        self.n_s = n_s
        self.f = f
        self.n_r = n_s * f
        #: S key -> current repfield / other value
        self.rep = [f"v{k % REP_GROUPS:02d}" for k in range(n_s)]
        self.other = [f"o{k}" for k in range(n_s)]
        #: R key -> S key; exactly f referencers per S object, shuffled so
        #: that R and S are relatively unclustered
        self.target = [k for k in range(n_s) for __ in range(f)]
        rng.shuffle(self.target)
        #: load orders: the files are not ordered by the indexed keys
        self.s_load_order = list(range(n_s))
        rng.shuffle(self.s_load_order)
        self.r_load_order = list(range(self.n_r))
        rng.shuffle(self.r_load_order)


def build(model: Model, out: str, frames: int) -> None:
    """Load the model into a WAL-backed database and snapshot it to ``out``."""
    from repro import Database, TypeDefinition, char_field, int_field, ref_field
    from repro.snapshot import save_database

    db = Database(wal=True, buffer_frames=frames)
    db.define_type(TypeDefinition("STYPE", [
        int_field("field_s"), char_field("repfield", 20),
        char_field("other", 20), char_field("pad", S_PAD)]))
    db.define_type(TypeDefinition("RTYPE", [
        int_field("field_r"), ref_field("sref", "STYPE"),
        char_field("pad", R_PAD)]))
    db.create_set("S", "STYPE")
    db.create_set("R", "RTYPE")
    s_oid = {}
    for i, key in enumerate(model.s_load_order):
        s_oid[key] = db.insert("S", {"field_s": key, "repfield": model.rep[key],
                                     "other": model.other[key], "pad": "s"})
        if i % 500 == 499:
            db.checkpoint()  # keep the build's WAL small
    for i, key in enumerate(model.r_load_order):
        db.insert("R", {"field_r": key, "sref": s_oid[model.target[key]],
                        "pad": "r"})
        if i % 500 == 499:
            db.checkpoint()
    db.build_index("R.field_r")
    db.build_index("S.field_s")
    db.replicate("R.sref.repfield")
    tmp = f"{out}.tmp{os.getpid()}"
    save_database(db, tmp)
    os.replace(tmp, out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--n-s", type=int, required=True)
    parser.add_argument("--f", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--frames", type=int, default=64)
    args = parser.parse_args(argv)
    build(Model(args.n_s, args.f, args.seed), args.out, args.frames)
    return 0


if __name__ == "__main__":
    sys.exit(main())

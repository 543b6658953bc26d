#!/usr/bin/env python3
"""Validate spp.attribution.v1 documents (written by --attribution runs).

Checks the structure of each document: required fields, rank ordering,
score consistency, and totals vs. per-entry accounting. Exits non-zero
with a message on the first violation; prints a one-line summary per
valid file. Used by the CI attribution-smoke job.

Usage:
  tools/check_attribution.py FILE...     validate attribution.json files
  tools/check_attribution.py --self-test one valid and five broken
                                         synthetic documents

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import sys

ATTR_SCHEMA = "spp.attribution.v1"
STAT_FIELDS = (
    "correct", "over", "under", "unpredicted", "wasted_bytes",
    "under_ticks", "messages", "noc_bytes", "score",
)
ENTRY_FIELDS = (
    "rank", "sync", "sync_type", "sync_static", "sync_epoch",
    "region", "core", "stats",
)


class Invalid(Exception):
    """The first schema violation found in a document."""


def fail(msg):
    raise Invalid(msg)


def check_stats(stats, where):
    for f in STAT_FIELDS:
        if f not in stats:
            fail(f"{where}: missing stats field '{f}'")
        if not isinstance(stats[f], (int, float)) or stats[f] < 0:
            fail(f"{where}: stats field '{f}' not a non-negative "
                 f"number: {stats[f]!r}")
    want = (stats["wasted_bytes"] + stats["noc_bytes"]
            + stats["under_ticks"])
    if stats["score"] != want:
        fail(f"{where}: score {stats['score']} != wasted_bytes + "
             f"noc_bytes + under_ticks = {want}")


def validate(doc):
    """Raise Invalid on the first violation; return a summary line."""
    if not isinstance(doc, dict):
        fail("document is not a JSON object")
    if doc.get("schema") != ATTR_SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, want {ATTR_SCHEMA!r}")
    opts = doc.get("options")
    if not isinstance(opts, dict):
        fail("missing 'options' object")
    for k in ("top_k", "region_bytes"):
        if not isinstance(opts.get(k), (int, float)) or opts[k] <= 0:
            fail(f"options.{k} missing or non-positive")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        fail("missing 'entries' array")
    if len(entries) > opts["top_k"]:
        fail(f"{len(entries)} entries exceed top_k={opts['top_k']}")
    prev_score = None
    for i, e in enumerate(entries):
        where = f"entries[{i}]"
        for f in ENTRY_FIELDS:
            if f not in e:
                fail(f"{where}: missing field '{f}'")
        if e["rank"] != i + 1:
            fail(f"{where}: rank {e['rank']} != {i + 1}")
        for f in ("region", "sync_static"):
            if not str(e[f]).startswith("0x"):
                fail(f"{where}: {f} not a hex string: {e[f]!r}")
        check_stats(e["stats"], where)
        score = e["stats"]["score"]
        if prev_score is not None and score > prev_score:
            fail(f"{where}: score {score} out of order "
                 f"(previous {prev_score})")
        prev_score = score
    totals = doc.get("totals")
    if not isinstance(totals, dict):
        fail("missing 'totals' object")
    check_stats(totals, "totals")
    # Entries plus overflow must account for every decision and byte.
    acc = {f: 0 for f in STAT_FIELDS}
    for e in entries:
        for f in STAT_FIELDS:
            acc[f] += e["stats"][f]
    overflow = doc.get("overflow")
    if overflow is not None:
        if not isinstance(overflow.get("keys"), (int, float)):
            fail("overflow.keys missing")
        check_stats(overflow["stats"], "overflow")
        for f in STAT_FIELDS:
            acc[f] += overflow["stats"][f]
    for f in STAT_FIELDS:
        if f == "score":
            continue
        if acc[f] != totals[f]:
            fail(f"entries+overflow {f} = {acc[f]} != totals "
                 f"{totals[f]}")
    return (f"{len(entries)} entries, {int(totals['messages'])} "
            f"messages, {int(totals['wasted_bytes'])} wasted bytes")


def stats(wasted, noc, under_ticks, messages):
    return {"correct": 3, "over": 1, "under": 1, "unpredicted": 0,
            "wasted_bytes": wasted, "under_ticks": under_ticks,
            "messages": messages, "noc_bytes": noc,
            "score": wasted + noc + under_ticks}


def valid_document():
    """Two ranked entries plus an overflow cell, totals exact."""
    entries = [
        {"rank": 1, "sync": 4, "sync_type": "barrier",
         "sync_static": "0x40", "sync_epoch": 2, "region": "0x1000",
         "core": 3, "stats": stats(64, 640, 90, 10)},
        {"rank": 2, "sync": 5, "sync_type": "lock",
         "sync_static": "0x48", "sync_epoch": 1, "region": "0x2000",
         "core": 0, "stats": stats(0, 320, 12, 5)},
    ]
    overflow = {"keys": 1, "stats": stats(8, 80, 0, 1)}
    totals = {f: sum(s["stats"][f] for s in entries + [overflow])
              for f in STAT_FIELDS}
    return {"schema": ATTR_SCHEMA,
            "options": {"top_k": 2, "region_bytes": 4096},
            "entries": entries, "overflow": overflow, "totals": totals}


def self_test():
    """The valid document must pass and each broken one must fail."""
    def broken(edit):
        doc = valid_document()
        edit(doc)
        return doc

    def swap_ranks(doc):
        e = doc["entries"]
        e[0], e[1] = e[1], e[0]
        e[0]["rank"], e[1]["rank"] = 1, 2

    cases = [
        ("valid", valid_document(), True),
        ("wrong schema",
         broken(lambda d: d.update(schema="spp.attribution.v0")), False),
        ("rank gap",
         broken(lambda d: d["entries"][1].update(rank=3)), False),
        ("score out of order", broken(swap_ranks), False),
        ("score != wasted_bytes + noc_bytes + under_ticks",
         broken(lambda d: d["entries"][0]["stats"].update(score=1)),
         False),
        ("entries + overflow != totals",
         broken(lambda d: d["totals"].update(messages=17)), False),
    ]
    ok = True
    for name, doc, want_valid in cases:
        try:
            validate(doc)
            got, why = True, "accepted"
        except Invalid as e:
            got, why = False, f"rejected: {e}"
        if got != want_valid:
            ok = False
        print(f"self-test: {'ok  ' if got == want_valid else 'FAIL'} "
              f"{name}: {why}")
    print("self-test: " + ("PASS" if ok else "FAIL"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("files", nargs="*")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(0 if self_test() else 1)
    if not args.files:
        ap.error("give at least one attribution.json, or --self-test")
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as f:
                summary = validate(json.load(f))
        except (OSError, ValueError, Invalid) as e:
            sys.exit(f"check_attribution: FAIL: {path}: {e}")
        print(f"check_attribution: OK: {path}: {summary}")


if __name__ == "__main__":
    main()

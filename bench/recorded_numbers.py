#!/usr/bin/env python3
"""Render the "Recorded numbers" table of docs/PERFORMANCE.md from
BENCH_simspeed.json, so the doc cannot drift from the data.

    python3 bench/recorded_numbers.py                 # print the block
    python3 bench/recorded_numbers.py --check docs/PERFORMANCE.md
    python3 bench/recorded_numbers.py --update docs/PERFORMANCE.md

The block sits between the BEGIN and END marker comments in the doc.
--check exits 1 (and prints a diff) when the block there differs from
what the JSON renders; --update rewrites it in place.
"""

import argparse
import difflib
import json
import sys

BEGIN = "<!-- recorded-numbers: generated by bench/recorded_numbers.py -->"
END = "<!-- recorded-numbers: end -->"


def count(n):
    return f"{n:,}".replace(",", " ")


def render(bench):
    """The generated block (markers included) for one bench JSON."""
    lines = [
        BEGIN,
        f"`BENCH_simspeed.json` (`quick`: {str(bench['quick']).lower()}, "
        f"`exit_reason`: `{bench['exit_reason']}`) was produced on a host "
        f"with {bench['host_threads']} hardware threads. Each engine cell "
        "is a single shot; the speedup is the ratio of `host_seconds`.",
        "",
        "| workload (cores) | simulated cycles | reference s | fastpath s "
        "| fastpath vs reference |",
        "|---|---:|---:|---:|---:|",
    ]
    for w in bench["workloads"]:
        by = {e["engine"]: e for e in w["engines"]}

        def secs(name):
            return ("%.4f" % by[name]["host_seconds"]) if name in by else "—"

        speedup = w["fastpath_speedup"]
        lines.append(
            f"| {w['name']} ({w['cores']}) | {count(w['sim_cycles'])} | "
            f"{secs('reference')} | {secs('fastpath')} | "
            + (f"{speedup:.3f}×" if speedup else "—") + " |")
    for key, what in (("counters", "Counter"), ("digests", "Interval-digest")):
        cost = bench.get(key)
        if cost:
            lines += [
                "",
                f"{what} overhead: {cost['overhead_pct']:.2f}% (median of "
                f"{cost['pairs']} alternating off/on pairs, median absolute "
                f"deviation {cost['overhead_pct_mad']:.2f}%; off "
                f"{cost['disabled_seconds']:.4f} s, on "
                f"{cost['enabled_seconds']:.4f} s).",
            ]
    lines.append(END)
    return "\n".join(lines) + "\n"


def split_doc(text, path):
    """(before, block, after) around the marked block of a doc."""
    start = text.find(BEGIN)
    stop = text.find(END)
    if start < 0 or stop < start:
        sys.exit(f"{path}: no '{BEGIN}' ... '{END}' block")
    stop += len(END) + 1
    return text[:start], text[start:stop], text[stop:]


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--json", default="BENCH_simspeed.json")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check", metavar="DOC")
    mode.add_argument("--update", metavar="DOC")
    args = ap.parse_args()

    with open(args.json) as f:
        block = render(json.load(f))
    doc = args.check or args.update
    if doc is None:
        sys.stdout.write(block)
        return 0
    with open(doc) as f:
        before, old, after = split_doc(f.read(), doc)
    if args.update:
        with open(doc, "w") as f:
            f.write(before + block + after)
        return 0
    if old == block:
        return 0
    sys.stdout.writelines(
        difflib.unified_diff(old.splitlines(True), block.splitlines(True),
                             doc, f"rendered from {args.json}"))
    return 1


if __name__ == "__main__":
    sys.exit(main())

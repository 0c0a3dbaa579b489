#!/usr/bin/env python3
"""Per-layer summary of traced benchmark runs.

    python3 perfbench/run.py --workload constant_ranges --seed 1 --seconds 10 --trace 1
    python3 perfbench/summary.py [.bench_build/spans/constant_ranges-seed1.jsonl ...]

With no arguments every spans file under .bench_build/spans/ is summarised.
For each workload it prints, per span name and per module: busy time (sum
of span durations), count, self time (a span minus the child spans it
covers) and, for spans of query requests, the self time's share of the
traced served queries (replayed layers are shown against the same total;
setup, update and restart spans have no share). A coverage
line shows how much of rsse.local_resolve the dprf, sse and shard self
times replayed on the same token sets account for. Where bench_micro has a
matching row in the committed baseline, that row's per-item cost is listed
next to the workload-shaped one.
"""

import collections
import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MICRO_BASELINE = os.path.join(ROOT, "bench", "baselines", "release-bench",
                              "bench_micro.json")

# span name -> (bench_micro row, what one item is)
MICRO_ROWS = {
    "dprf.expand": ("BM_DprfExpandSubtree/12", "leaf"),
    "shard.search": ("BM_ShardedEmmSearch/1000", "probe"),
    "crypto.label_prf": ("BM_PrfEvalCounters/256", "label"),
    "crypto.decrypt": ("BM_AesDecryptBatch/32", "entry"),
}
# The in-process layers replayed under each "layers" span.
COVERAGE_LAYERS = ("dprf.expand", "sse.kdf", "shard.search")


def load_micro():
    try:
        with open(MICRO_BASELINE) as f:
            rows = json.load(f)["benchmarks"]
    except (OSError, ValueError, KeyError):
        return {}
    return {r["name"]: 1e9 / r["items_per_second"]
            for r in rows if r.get("items_per_second")}


def summarise(path, micro):
    spans = [json.loads(line) for line in open(path) if line.strip()]
    by_id = {s["id"]: s for s in spans}
    child_ns = collections.Counter()
    for s in spans:
        if s["parent"]:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    query_requests = {s["request"] for s in spans
                      if s["name"] in ("query", "layers")}
    rows = collections.OrderedDict()
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        r = rows.setdefault(s["name"], {"busy": 0, "count": 0, "self": 0,
                                        "items": 0, "covered": 0,
                                        "query": False, "offpath": 0})
        r["query"] = r["query"] or s["request"] in query_requests
        r["busy"] += dur
        r["count"] += 1
        r["self"] += dur - child_ns[s["id"]]
        r["items"] += s["items"]
        parent = by_id.get(s["parent"])
        if parent is not None and parent["name"] == "layers":
            r["covered"] += dur - child_ns[s["id"]]
        elif s["name"] in ("dprf.expand", "sse.kdf"):
            r["offpath"] += 1
    query_ns = rows.get("query", {}).get("busy", 0)

    name = os.path.basename(path).rsplit(".", 1)[0]
    print("== %s: %d spans, %d requests" %
          (name, len(spans), len({s["request"] for s in spans})))
    print("%-22s %11s %7s %11s %8s" % ("span", "busy ms", "count",
                                        "self ms", "share"))
    modules = collections.OrderedDict()
    for n, r in rows.items():
        share = ("%7.1f%%" % (100 * r["self"] / query_ns)
                 if r["query"] and query_ns else "      -")
        note = ""
        if r["offpath"]:
            note = "  (%d off the served path)" % r["offpath"]
        print("%-22s %11.3f %7d %11.3f %s%s" %
              (n, r["busy"] / 1e6, r["count"], r["self"] / 1e6, share, note))
        if n in ("query", "layers"):
            continue
        m = modules.setdefault(n.split(".")[0], [0, 0, 0])
        m[0] += r["busy"]
        m[1] += r["count"]
        m[2] += r["self"]
    print("%-22s %11s %7s %11s" % ("module (all spans)", "busy ms", "count",
                                    "self ms"))
    for n, (busy, count, self_ns) in modules.items():
        print("%-22s %11.3f %7d %11.3f" % (n, busy / 1e6, count, self_ns / 1e6))
    local = rows.get("rsse.local_resolve", {}).get("busy", 0)
    covered = sum(rows.get(n, {}).get("covered", 0) for n in COVERAGE_LAYERS)
    if local:
        print("coverage: dprf+sse+shard self %.3f ms of rsse.local_resolve "
              "%.3f ms = %.1f%%" % (covered / 1e6, local / 1e6,
                                    100 * covered / local))
    for n, (row, unit) in MICRO_ROWS.items():
        r = rows.get(n)
        if r is None or not r["items"]:
            continue
        shaped = r["busy"] / r["items"]
        ref = micro.get(row)
        ref_text = "%s %.1f ns/%s" % (row, ref, unit) if ref else "no micro row"
        print("per-%-6s %-18s workload-shaped %9.1f ns | %s" %
              (unit, n, shaped, ref_text))
    print()


def main(argv):
    paths = argv or sorted(glob.glob(os.path.join(
        ROOT, ".bench_build", "spans", "*.jsonl")))
    if not paths:
        print("no spans files; run perfbench/run.py with --trace 1 first",
              file=sys.stderr)
        return 1
    micro = load_micro()
    for p in paths:
        summarise(p, micro)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

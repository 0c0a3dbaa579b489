#!/usr/bin/env python3
"""Steadiness check for the served range-search benchmark.

Run one workload N times, each with its own seed, and summarise each
end-to-end metric by its median and quartiles. The spread is
(Q3 - Q1) / median, where the quartiles come from
statistics.quantiles(values, n=4):

    python3 perfbench/steady.py run --workload src_i_skewed --runs 10 \\
        --out .bench_build/steady-a.json

Compare two such sets. A set passes when, on every workload, each metric's
second median is no worse than the first by more than the metric's bound in
BENCHMARK.json, and each spread (setup_s excepted) stays within the bound:

    python3 perfbench/steady.py compare .bench_build/steady-a.json \\
        .bench_build/steady-b.json

Run both from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd),
                                                       done.returncode))
    res = json.loads(lines[-1])
    # The "# " lines (windows, context switches, latency percentiles) let a
    # slow run be told apart from a slower program afterwards.
    res["notes"] = [l for l in lines[:-1] if l.startswith("# ")]
    return res


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def cmd_run(args):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    results = []
    for i in range(args.runs):
        seed = args.seed_base + i
        t0 = time.monotonic()
        res = run_once(spec, args.workload, seed, seconds)
        results.append(res)
        print("seed %d: correct=%s attempted=%d failed=%d wall=%.1fs" %
              (seed, res["correct"], res["attempted"], res["failed"],
               time.monotonic() - t0), file=sys.stderr)
    summary = {"workload": args.workload, "runs": args.runs,
               "failed_share": sorted({r["failed"] / r["attempted"]
                                       for r in results}),
               "notes": [r["notes"] for r in results],
               "metrics": {}}
    print("%-24s %12s %12s %12s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in bounds:
        s = summarise([r["metrics"][name]["value"] for r in results])
        s["unit"] = results[0]["metrics"][name]["unit"]
        summary["metrics"][name] = s
        flag = ""
        if name != "setup_s" and s["spread"] > bounds[name]:
            flag = "  OVER BOUND"
        elif name != "setup_s" and s["spread"] > bounds[name] / 3:
            flag = "  over bound/3"
        print("%-24s %12.5g %12.5g %12.5g %8.4f %6.2f%s" %
              (name, s["median"], s["q1"], s["q3"], s["spread"],
               bounds[name], flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    return 0


def cmd_compare(args):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    with open(args.first) as f:
        a = json.load(f)
    with open(args.second) as f:
        b = json.load(f)
    ok = a["failed_share"] == b["failed_share"]
    print("%s: failed share %s vs %s" % (a["workload"], a["failed_share"],
                                         b["failed_share"]))
    print("%-24s %12s %12s %9s %6s" % ("metric", "median A", "median B",
                                       "worse by", "bound"))
    for name, m in metrics.items():
        ma = a["metrics"][name]["median"]
        mb = b["metrics"][name]["median"]
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        bad = worse > m["bound"]
        for s in (a, b):
            if name != "setup_s" and s["metrics"][name]["spread"] > m["bound"]:
                bad = True
        ok = ok and not bad
        print("%-24s %12.5g %12.5g %+8.2f%% %6.2f%s" %
              (name, ma, mb, 100 * worse, m["bound"], "  FAIL" if bad else ""))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed-base", type=int, default=1)
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())

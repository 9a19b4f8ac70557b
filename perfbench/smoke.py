#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json at its tiny size, traced and
untraced, and checks that each named metric is emitted with its unit and
that a clean tree reports zero failed operations. Then corrupts one
output word per workload (lbp_perfbench --corrupt-output, which goes
through Machine::debugWriteWord) and checks that the run is counted as a
failed operation with correct=false and exit code 1, not reported as a
result. Last, runs the two matmul programs with a recorded result at
full size and checks that they reproduce it: matmul-tiled-c16 and
matmul-tiled-c64 (Fig. 21, about a minute; not a benchmark workload,
because its runs are too long to repeat steadily). Run from the root of
the checkout:

    python3 perfbench/smoke.py
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def invoke(binary, workload, trace, extra=("--tiny",)):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "0.2",
           "--trace", str(trace), *extra]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = r.stdout.splitlines()
    report = json.loads(lines[-2])["perfbench_report"] if len(lines) > 1 else {}
    result = json.loads(lines[-1]) if lines else {}
    return r.returncode, report, result


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build()
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)

    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, report, result = invoke(binary, name, trace)
            tag = "%s --trace %d" % (name, trace)
            expect(code == 0, "%s: exit code %d" % (tag, code))
            expect(result.get("correct") is True and result.get("failed") == 0
                   and result.get("attempted", 0) >= 1,
                   "%s: not a clean result: %s" % (tag, report.get("failures")))
            expect(report.get("status") == ("ok" if code == 0 else "failed"),
                   "%s: report status disagrees with exit code" % tag)
            metrics = result.get("metrics", {})
            expect(set(metrics) == {m["name"] for m in bench[key]},
                   "%s: metric names differ from BENCHMARK.json" % tag)
            for m in bench[key]:
                got = metrics.get(m["name"], {})
                expect(got.get("unit") == m["unit"]
                       and isinstance(got.get("value"), (int, float)),
                       "%s: metric %s missing or wrong unit" % (tag, m["name"]))
            if trace == 1:
                layers = set(report.get("spans", {}).get("layers", []))
                want = {"asm.assemble", "sim.construct", "sim.load",
                        "sim.run", "obs.report"}
                if name == "otsu-detc":
                    want |= {"frontend.parse", "analysis.lint", "dsl.codegen"}
                else:
                    want.add("workloads.build")
                expect(want <= layers, "%s: no spans for %s"
                       % (tag, sorted(want - layers)))
        code, report, result = invoke(binary, name, 0,
                                      ["--tiny", "--corrupt-output"])
        expect(code == 1 and result.get("correct") is False
               and result.get("failed", 0) >= 1
               and report.get("status") == "failed",
               "%s: a corrupted output word was not counted as a failure" % name)
        print("smoke: %s checked" % name, flush=True)

    for name in ("matmul-tiled-c16", "matmul-tiled-c64"):
        code, report, result = invoke(binary, name, 0, ())
        expect(code == 0 and result.get("correct") is True
               and report.get("model", {}).get("matches_recorded") is True,
               "%s: full size does not reproduce the recorded result: %s"
               % (name, report.get("failures")))
        print("smoke: %s recorded result checked" % name, flush=True)

    for p in problems:
        print("smoke: FAIL " + p)
    print("smoke: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

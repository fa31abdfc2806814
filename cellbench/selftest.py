#!/usr/bin/env python3
"""cellbench's own tests. Run from the root of a checkout:

    python3 cellbench/selftest.py [workload ...]

For each workload (all three by default) it checks that:
  - two runs of one seed give identical sim_* metrics and identical
    result digests (the canonical_result_json form of every result);
  - a different seed gives different inputs;
  - every metric BENCHMARK.json declares is emitted, with its declared
    unit, and no undeclared metric is emitted, untraced and traced;
  - every run reports correct with no failed request.
Exits 0 when every check passes.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise AssertionError("%s exited %d:\n%s%s" % (
            " ".join(cmd), p.returncode, p.stdout, p.stderr))
    result = json.loads(lines[-1])

    def tag(name):
        m = re.search(r"^\[%s\].*digest ([0-9a-f]+)" % name, p.stdout, re.M)
        return m.group(1) if m else None

    return result, tag("inputs"), tag("results")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    failures = []

    def check(ok, what):
        print("  [%s] %s" % ("ok" if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    for w in workloads:
        print("== %s" % w, flush=True)
        a, a_in, a_res = run(w, 7, 0)
        b, b_in, b_res = run(w, 7, 0)
        c, c_in, _ = run(w, 8, 0)
        t, _, _ = run(w, 7, 1)
        sim = lambda r: {k: v for k, v in r["metrics"].items()
                         if k.startswith("sim_")}
        check(sim(a) == sim(b) and len(sim(a)) > 0,
              "%s: two runs of seed 7 give identical sim_* metrics" % w)
        check(a_res is not None and a_res == b_res,
              "%s: two runs of seed 7 give identical result digests" % w)
        check(a_in is not None and a_in == b_in and a_in != c_in,
              "%s: seed 8 gives different inputs than seed 7" % w)
        for r, trace in ((a, 0), (c, 0), (t, 1)):
            emitted = {k: v["unit"] for k, v in r["metrics"].items()}
            check(emitted == declared[trace],
                  "%s: trace %d emits exactly the declared metrics and "
                  "units (missing %s, undeclared %s)" % (
                      w, trace,
                      sorted(set(declared[trace]) - set(emitted)),
                      sorted(set(emitted) - set(declared[trace]))))
        for r, what in ((a, "seed 7"), (c, "seed 8"), (t, "traced")):
            check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                  "%s: %s run is correct with no failed request" % (w, what))
    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Fast self-test of the Larch benchmark at tiny sizes.

    python3 perfbench/selftest.py LARCHBENCH_EXE BENCHMARK_JSON

Checks that every workload prints every metric BENCHMARK.json names, each
with its unit, untraced (end-to-end) and traced (per-layer); that the
per-layer counts repeat exactly for a fixed seed; and that a tampered
password trips the correctness gate: it counts as a failure and the
command exits nonzero.  `dune runtest` runs it.
"""

import json
import os
import subprocess
import sys

exe, spec_path = os.path.abspath(sys.argv[1]), sys.argv[2]
with open(spec_path) as f:
    spec = json.load(f)


def run(workload, trace, *extra):
    cmd = [exe, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines, json.loads(lines[-1])


def check(cond, msg):
    if not cond:
        sys.exit("selftest FAILED: " + msg)


for w in spec["workloads"]:
    name = w["name"]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        rc, lines, res = run(name, trace)
        where = "%s --trace %d" % (name, trace)
        check(rc == 0, "%s exited %d" % (where, rc))
        check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
              "%s result %s" % (where, res))
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        check(got == want, "%s metrics %s, expected %s" % (where, got, want))
        for m, unit in want.items():
            check(any(l.split()[:1] == [m] and l.split()[-1] == unit for l in lines),
                  "%s does not print %s with its unit %s" % (where, m, unit))
        print("ok  %s: %d metrics" % (where, len(want)))

# counts must repeat exactly for a fixed seed
counts = [{k: v["value"] for k, v in run("log-fleet", 1)[2]["metrics"].items()
           if v["unit"] == "count"} for _ in range(2)]
check(counts[0] == counts[1], "per-layer counts differ between runs: %s" % counts)
print("ok  per-layer counts repeat for a seed")

rc, lines, res = run("log-fleet", 0, "--tamper")
check(rc != 0, "a tampered password left the exit code 0")
check(not res["correct"] and res["failed"] >= 1,
      "a tampered password was not counted as a failure: %s" % res)
check(any("rejected" in l for l in lines), "no FAILED line names the rejection")
print("ok  tampered password: exit %d, %d of %d failed" % (rc, res["failed"], res["attempted"]))

#!/usr/bin/env python3
"""Self-tests of the Palladium benchmark.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

Builds the benchmark like run.py, then checks for each workload:
  * determinism: two runs with one seed print the same digest of every
    simulated counter and the same simulated metrics, and the untraced and
    traced runs agree with each other (each run also checks that every one
    of its rounds, traced or not, retired the same simulated state);
  * metric names: the program prints exactly the metrics BENCHMARK.json
    lists, in the units it lists;
  * character: on the given seed (by default the held-out seed) each
    workload keeps the property its "why" names.
Exits non-zero on the first failure.
"""
import argparse
import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (build helpers)

HELD_OUT_SEED = 20261017
WORKLOADS = ["filter-1cpu", "web-4cpu", "ext-compute", "upgrade-churn"]
SIMULATED = ["sim_cycles_per_item", "sim_latency_p50_us", "sim_latency_p99_us"]


def bench(binary, workload, seed, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", "0.01",
           "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    digest = re.search(r"digest ([0-9a-f]{16})", out.stdout)
    if digest is None:
        sys.exit(f"FAIL {' '.join(cmd)} printed no digest")
    return digest.group(1), json.loads(lines[-1])


def expect(cond, what):
    if not cond:
        sys.exit(f"FAIL {what}")
    print(f"ok   {what}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    args = ap.parse_args()
    workloads = args.workload or WORKLOADS

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = run.build_dir()
    run.build(out)
    binary = os.path.join(out, "palladium_bench")

    layers = {}
    for w in workloads:
        d0, plain = bench(binary, w, args.seed, 0)
        d0b, plain_b = bench(binary, w, args.seed, 0)
        d1, traced = bench(binary, w, args.seed, 1)
        expect(d0 == d0b == d1, f"{w}: one digest across runs and traced/untraced ({d0})")
        for m in SIMULATED:
            expect(plain["metrics"][m] == plain_b["metrics"][m],
                   f"{w}: {m} repeats exactly ({plain['metrics'][m]['value']})")
        for kind, result in (("end_to_end", plain), ("per_layer", traced)):
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(want == got, f"{w}: {kind} metrics and units match BENCHMARK.json")
        expect(plain["correct"] and plain["attempted"] > 0, f"{w}: outputs correct")
        layers[w] = {k: v["value"] for k, v in traced["metrics"].items()}

    if set(layers) == set(WORKLOADS):
        ins = {w: layers[w]["isa.trace.insns_per_entry"] for w in WORKLOADS}
        expect(ins["ext-compute"] > 3 * ins["filter-1cpu"],
               f"ext-compute runs long traces ({ins['ext-compute']:.1f} vs "
               f"{ins['filter-1cpu']:.1f} insns/entry on filter-1cpu)")
        steals = {w: layers[w]["kernel.sched.steals"] for w in WORKLOADS}
        expect(max(steals, key=steals.get) == "web-4cpu" and steals["filter-1cpu"] == 0,
               f"web-4cpu steals most work ({steals})")
        upgrades = {w: layers[w]["net.flow_upgrades"] for w in WORKLOADS}
        unloads = {w: layers[w]["core.kext.unloads"] for w in WORKLOADS}
        expect(all((upgrades[w] > 0) == (w == "upgrade-churn") for w in WORKLOADS) and
               all((unloads[w] > 0) == (w == "upgrade-churn") for w in WORKLOADS),
               "only upgrade-churn upgrades flows and unloads kexts in the run phase")
        expect(layers["ext-compute"]["hw.nic.rx_irqs_per_item"] == 0 and
               layers["ext-compute"]["net.filter.frames_per_crossing"] == 0,
               "ext-compute leaves the NIC and the dataplane idle")
    print("selftest passed")


if __name__ == "__main__":
    main()

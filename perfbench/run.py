#!/usr/bin/env python3
"""End-to-end benchmark of psme: the frame path and the policy path.

Run from the repository root:

    python3 perfbench/run.py --workload drive|attack|ota --seed N \
        --seconds S --trace 0|1

The script builds perfbench/ (and through it the psme library) into
.bench_build/perfbench, then starts one fresh perfbench_driver process
per repetition until S seconds have been measured, so no repetition
inherits another's heap or trace growth. Every repetition must report
the same simulation digest, equal to the pinned one in digests.json when
the seed is pinned, and no invariant violations.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json (medians over repetitions); with --trace 1 it carries the
per-layer metrics: traced and untraced repetitions alternate, the
per-layer values are medians over the traced ones, and
trace_overhead_ns_per_op is the traced minus the untraced median of
host_ns_per_op. Metrics of a layer the workload bypasses read 0.

    python3 perfbench/run.py --pin 0-99,20261016

re-pins the digests of the given seeds (after a deliberate change of
simulated behaviour).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
DIGESTS = os.path.join(HERE, "digests.json")
# Together these keep a run under 180 s whatever --seconds says.
CHILD_TIMEOUT_S = 25
HARD_LIMIT_S = 150
MIN_REPS = 3

FRAME_PATH_CAR = [
    "car.vehicle_build_us.none",
    "car.vehicle_build_us.sw_filter",
    "car.vehicle_build_us.hpe",
    "car.vehicle_build_us.hpe_content",
    "car.binding_memo_hit_ratio",
]
# Per-layer metrics each workload measures; the others read 0 on it.
LAYERS = {
    "drive": [
        "sim.events_per_frame",
        "sim.step_self_ns_per_frame",
        "sim.trace_entries_per_frame",
        "sim.trace_record_ns",
        "can.rx_fanout_ns_per_frame",
        "can.ctrl_node_ns_per_frame",
        "hpe.read_self_ns_per_frame",
        "hpe.write_filter_ns_per_frame",
        "hpe.decisions_per_frame",
        "hpe.block_ratio",
        "hpe.enforcement_share",
    ] + FRAME_PATH_CAR,
    "attack": [
        "attack.table1_ms_per_scenario",
        "attack.campaign_ms_per_scenario",
        "attack.frames_per_scenario",
        "attack.hpe_blocked_per_scenario",
        "monitor.alerts",
        "car.quarantine_actions",
        "car.vehicle_build_share",
    ] + FRAME_PATH_CAR,
    "ota": [
        "core.compile_image_us",
        "core.blob_write_us",
        "core.delta_write_us",
        "core.blob_load_untrusted_us",
        "core.delta_apply_us",
        "car.boot_apply_delta_us",
        "car.boot_apply_blob_us",
        "car.health_probe_ns_per_decision",
        "car.campaign_server_build_s",
        "car.make_fleet_s",
        "car.individual_validations_per_vehicle",
        "car.retries_per_vehicle",
        "car.blob_fallback_ratio",
        "car.wire_bytes_per_vehicle",
    ],
}
OVERHEAD = "trace_overhead_ns_per_op"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once and builds; returns False when the build fails."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j2"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed:", " ".join(step))
            return False
    return True


def run_child(workload, seed, traced, spans=None):
    """One repetition in a fresh process; returns its parsed record."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if spans:
        cmd += ["--spans", spans]
    start = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "wall_s": CHILD_TIMEOUT_S, "traced": traced,
                "error": "timed out"}
    wall = time.monotonic() - start
    if done.returncode != 0:
        log(done.stderr)
        return {"ok": False, "wall_s": wall, "traced": traced,
                "error": "exit %d" % done.returncode}
    try:
        record = json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"ok": False, "wall_s": wall, "traced": traced,
                "error": "unparsable output"}
    record.update(ok=True, wall_s=wall, traced=traced)
    return record


def load_digests():
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(args, spec):
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    os.makedirs(os.path.join(".bench_build", "spans"), exist_ok=True)
    start = time.monotonic()
    reps = []
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 1
        spans = None
        if traced and not any(r["traced"] for r in reps):
            spans = os.path.join(".bench_build", "spans", "%s-seed%d.jsonl"
                                 % (args.workload, args.seed))
        reps.append(run_child(args.workload, args.seed, traced, spans))
        if not reps[-1]["ok"]:
            break
        elapsed = time.monotonic() - start
        mean_wall = elapsed / len(reps)
        untraced = sum(1 for r in reps if not r["traced"])
        enough = untraced >= MIN_REPS and (
            args.trace == 0 or len(reps) - untraced >= MIN_REPS)
        if elapsed + mean_wall > HARD_LIMIT_S:
            break
        if enough and elapsed + mean_wall > args.seconds:
            break

    problems = []
    for r in reps:
        if not r["ok"]:
            problems.append("repetition failed: " + r["error"])
        problems.extend(r.get("problems", []))
    good = [r for r in reps if r["ok"]]
    digests = sorted({r["digest"] for r in good})
    pinned = load_digests().get(args.workload, {}).get(str(args.seed))
    if len(digests) > 1:
        problems.append("repetitions disagree on the digest: %s" % digests)
    elif pinned is not None and digests and digests[0] != pinned:
        problems.append("digest %s differs from the pinned %s"
                        % (digests[0], pinned))
    expected = set(e2e) | (set(LAYERS[args.workload]) if args.trace else set())
    for r in good:
        names = set(r["metrics"])
        want = expected if r["traced"] else set(e2e)
        if names != want:
            problems.append("metric names differ: missing %s, extra %s"
                            % (sorted(want - names), sorted(names - want)))
            break

    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]

    def samples(rows, name):
        return [r["metrics"][name] for r in rows if name in r["metrics"]]

    metrics = {}
    lines = []
    names = e2e if args.trace == 0 else per_layer
    for name in names:
        if args.trace == 0:
            values = samples(untraced, name)
        elif name == OVERHEAD:
            with_trace = samples(traced, "host_ns_per_op")
            without = samples(untraced, "host_ns_per_op")
            values = [statistics.median(with_trace) - statistics.median(without)
                      ] if with_trace and without else []
        elif name in LAYERS[args.workload]:
            values = samples(traced, name)
        else:
            values = [0.0]  # layer bypassed by this workload
        if not values:
            problems.append("no samples of " + name)
            continue
        value = statistics.median(values)
        q1, q3 = quartiles(values)
        metrics[name] = {"value": value, "unit": units[name]}
        lines.append("  %-40s %14.6g %-6s q1 %.6g q3 %.6g n %d"
                     % (name, value, units[name], q1, q3, len(values)))

    attempted = sum(r["attempted"] for r in good)
    failed = sum(r["failed"] for r in good) + (len(reps) - len(good))
    result = {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }

    print("perfbench %s seed %d trace %d: %d repetitions in %.1f s"
          % (args.workload, args.seed, args.trace, len(reps),
             time.monotonic() - start))
    print("digest %s (%s)" % (",".join(digests) or "-",
                              "pinned" if pinned else "seed not pinned"))
    for problem in problems:
        print("PROBLEM: " + problem)
    print("\n".join(lines))
    os.makedirs(os.path.join(".bench_build", "results"), exist_ok=True)
    with open(os.path.join(".bench_build", "results", "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"result": result, "repetitions": reps}, f, indent=1)
    print(json.dumps(result))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def pin(seeds):
    digests = load_digests()
    for workload in LAYERS:
        table = digests.setdefault(workload, {})
        for seed in seeds:
            record = run_child(workload, seed, False)
            if not record["ok"] or record["problems"]:
                log("perfbench: %s seed %d not pinned: %s"
                    % (workload, seed, record.get("problems") or record["error"]))
                continue
            table[str(seed)] = record["digest"]
        digests[workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        log("pinned %s" % workload)
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=1)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(LAYERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", metavar="SEEDS",
                        help="re-pin digests for seeds like 0-99,20261016")
    args = parser.parse_args()
    if not args.pin and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 2
    if args.pin:
        pin(parse_seeds(args.pin))
        return 0
    measure(args, load_spec())
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Paper-scale trace-replay benchmark for spindown.

Run from the root of the repository:

    python3 perfbench/run.py --workload financial_rf3_heuristic --seed 1 \
        --seconds 25 --trace 0

One run builds the release `spindown-cli` and the benchmark's tracer,
writes the workload's trace file from the seed, makes one traced run
(per-layer timings, simulated metrics, output and physics checks), times
the set-up in fresh processes, then times `spindown-cli simulate` on that
file, one process at a time, for at least `--seconds` seconds. Each timed
process runs between two runs of a host-speed calibration kernel, each in
a process of its own. It prints every metric by name with its unit and
every check, and as its last line one JSON object:
the end-to-end metrics with `--trace 0`, the per-layer ones with
`--trace 1`. `--workload all` runs every workload. README.md in this
directory defines the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACER_MANIFEST = os.path.join(HERE, "tracer", "Cargo.toml")

# The paper's rig: 180 disks, Zipf-1 placement and 2CPM spin-down. The
# tracer generates 45 reads/s over 30,000 data items, with 75% writes on
# top in Financial1-like traces and 240 ON/OFF sources in Cello-like ones.
DISKS = 180
ZIPF = 1
POLICY = "2cpm"

WORKLOADS = {
    "financial_rf3_heuristic": {
        "kind": "financial",
        "ext": "spc",
        "lines": 2_000_000,
        "replication": 3,
        "scheduler": "heuristic",
    },
    "cello_rf1_wsc": {
        "kind": "cello",
        "ext": "srt",
        # At 1M lines a CLI process takes ~4 s and only 6-7 fit into a
        # run; at 500k, 10-16 do, and records_per_s rests on a
        # median of that many.
        "lines": 500_000,
        "replication": 1,
        "scheduler": "wsc",
    },
    "financial_rf3_mwis": {
        "kind": "financial",
        "ext": "spc",
        # 500k lines, not 1M, for the same reason as cello_rf1_wsc.
        "lines": 500_000,
        "replication": 3,
        "scheduler": "mwis",
    },
}

# Set-ups per run, each the first work of a fresh tracer process;
# setup_s is the median of their scaled times.
SETUP_PROCESSES = 7
# Host timings behind the end-to-end metrics are scaled to a host on which
# the tracer's calibration kernel takes this long. On a shared host the
# speed drifts by +-20% over tens of seconds, and the kernel, run next to
# each timed call, tracks that drift (correlation ~0.9 over 10 s blocks).
CALIB_REF_S = 0.25
# CLI processes timed per run at the least, however short --seconds is.
MIN_CLI_RUNS = 3

# Metric names and units, in the order they are printed.
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

# Layers the CLI process runs, in order, per scheduler family.
# `system.islands_s` includes the island partition the engine computes.
EVENT_LOOP_PATH = [
    "experiment.scan_s",
    "placement.build_s",
    "experiment.decode_s",
    "system.islands_s",
]
MWIS_PATH = [
    "experiment.materialize_s",
    "placement.build_s",
    "mwis.build_s",
    "mwis.solve_s",
    "mwis.derive_s",
    "offline.eval_s",
]


class BenchError(Exception):
    """A failure that leaves no result to report."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env(target):
    env = dict(os.environ)
    # Every workload is one process on one thread.
    env.pop("SPINDOWN_JOBS", None)
    env["CARGO_TARGET_DIR"] = target
    return env


def build(target):
    """Builds the CLI and the tracer; returns their paths."""
    env = child_env(target)
    for argv in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "spindown-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", TRACER_MANIFEST],
    ):
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(argv)}")
    release = os.path.join(target, "release")
    return (os.path.join(release, "spindown-cli"),
            os.path.join(release, "perfbench-tracer"))


def run_json(argv, env):
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError(f"{os.path.basename(argv[0])} {argv[1]} failed: "
                         f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def cli_args(wl, seed, trace_path):
    return ["simulate", "--trace", trace_path,
            "--disks", str(DISKS), "--replication", str(wl["replication"]),
            "--zipf", str(ZIPF), "--policy", POLICY,
            "--scheduler", wl["scheduler"], "--seed", str(seed), "--jobs", "1"]


def time_cli(cli, args, env, out_path):
    """One CLI process: (wall seconds, user+sys CPU seconds, peak RSS KiB,
    exit code, stdout)."""
    with open(out_path, "w+b") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([cli] + args, cwd=ROOT, env=env,
                                stdout=out, stderr=subprocess.STDOUT)
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would
        # fold in every earlier child, the builds included.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode(errors="replace")
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            proc.returncode, text)


def scaled(times, calib):
    """Scales each time to CALIB_REF_S by the calibrations on either side."""
    return [t * 2 * CALIB_REF_S / (before + after)
            for t, before, after in zip(times, calib, calib[1:])]


def calibrate(tracer, env):
    return run_json([tracer, "calib"], env)["calib_s"]


def run_workload(name, seed, seconds, cli, tracer, target, work):
    wl = WORKLOADS[name]
    env = child_env(target)
    trace_path = os.path.join(work, f"{name}-{seed}.{wl['ext']}")

    # Generation: seeded, untimed, done before any run.
    gen = [tracer, "gen", "--kind", wl["kind"], "--lines", str(wl["lines"]),
           "--seed", str(seed), "--out", trace_path]
    generated = run_json(gen, env)
    args = cli_args(wl, seed, trace_path)

    checks = []
    traced = run_json([tracer, "trace", "--"] + args, env)
    checks += [(c["name"], c["ok"], c["detail"]) for c in traced["checks"]]
    checks.append(("traced_counts_match_generator",
                   traced["lines"] == generated["lines"]
                   and traced["reads"] == generated["reads"],
                   f"{traced['lines']} lines / {traced['reads']} reads traced, "
                   f"{generated['lines']} / {generated['reads']} generated"))
    traced_ok = all(ok for _, ok, _ in checks)

    # Set-ups, each in a fresh process between two calibrations.
    setups, setup_calib = [], [calibrate(tracer, env)]
    for _ in range(SETUP_PROCESSES):
        setups.append(run_json([tracer, "setup", "--"] + args, env))
        setup_calib.append(calibrate(tracer, env))

    # Timed CLI processes, each checked against the generator and the
    # traced run's metrics, each between two calibrations.
    walls, cpus, rss, cli_failed = [], [], [], 0
    calib = [calibrate(tracer, env)]
    expected = traced["report_lines"]
    start = time.perf_counter()
    while len(walls) < MIN_CLI_RUNS or time.perf_counter() - start < seconds:
        wall, cpu, maxrss, code, text = time_cli(
            cli, args, env, os.path.join(work, "cli.out"))
        calib.append(calibrate(tracer, env))
        walls.append(wall)
        cpus.append(cpu)
        rss.append(maxrss)
        got = text.splitlines()
        missing = [line for line in expected if line not in got]
        if code != 0 or missing:
            cli_failed += 1
            checks.append((f"cli_run_{len(walls)}", False,
                           f"exit {code}, lines not matching the traced run "
                           f"or generator: {missing}"))
    if cli_failed == 0:
        checks.append(("cli_output", True,
                       f"{len(walls)} runs exit 0 and print the generator's "
                       f"{generated['reads']} reads and the traced run's "
                       "energy, spins and responses"))

    wall_median = statistics.median(walls)
    layers = dict(traced["layers"])
    for phase in setups[0]["phases"]:
        layers[phase] = statistics.median(s["phases"][phase] for s in setups)
    path = EVENT_LOOP_PATH if wl["scheduler"] != "mwis" else MWIS_PATH
    layers["cli.unaccounted_s"] = wall_median - sum(layers[k] for k in path)
    layers["cli.wall_s"] = wall_median
    layers["cli.cpu_s"] = statistics.median(cpus)
    layers["host.calib_s"] = statistics.median(calib + setup_calib)
    end_to_end = {
        "records_per_s":
            generated["lines"] / statistics.median(scaled(walls, calib)),
        "setup_s": statistics.median(
            scaled([s["setup_s"] for s in setups], setup_calib)),
        "peak_rss_mb": statistics.median(rss) / 1024.0,
    }
    end_to_end.update(traced["sim"])
    return {
        "workload": name,
        "seed": seed,
        "cli_walls_s": walls,
        "cli_cpus_s": cpus,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "checks": checks,
        "attempted": len(walls) + 1,
        "failed": cli_failed + (0 if traced_ok else 1),
    }


def report(r):
    """Prints every metric by name with its unit, and every check."""
    print(f"workload {r['workload']}  seed {r['seed']}  "
          f"cli runs {len(r['cli_walls_s'])}  "
          f"walls {' '.join(f'{w:.3f}' for w in r['cli_walls_s'])} s  "
          f"cpu {' '.join(f'{c:.3f}' for c in r['cli_cpus_s'])} s")
    for title, table, values in (("end-to-end", END_TO_END, r["end_to_end"]),
                                 ("per-layer", PER_LAYER, r["per_layer"])):
        print(f"  {title}")
        for name, unit in table:
            print(f"    {name:<28} {values[name]:>18.6f}  {unit}")
    print("  checks")
    for name, ok, detail in r["checks"]:
        print(f"    {'ok  ' if ok else 'FAIL'} {name}: {detail}")


def result_line(r, trace):
    table = PER_LAYER if trace else END_TO_END
    values = r["per_layer"] if trace else r["end_to_end"]
    return {
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in table},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates", "cli"))):
        log(f"perfbench: no spindown sources under {ROOT}; nothing to build")
        return 2

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(ROOT, ".bench_build"))
    work = os.path.join(ROOT, ".bench_build", f"perfbench-{os.getpid()}")
    names = sorted(WORKLOADS) if opts.workload == "all" else [opts.workload]
    try:
        cli, tracer = build(target)
        os.makedirs(work, exist_ok=True)
        results = [run_workload(n, opts.seed, opts.seconds, cli, tracer,
                                target, work) for n in names]
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for r in results:
        report(r)
    if len(results) == 1:
        print(json.dumps(result_line(results[0], opts.trace)))
    else:
        print(json.dumps({r["workload"]: result_line(r, opts.trace)
                          for r in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

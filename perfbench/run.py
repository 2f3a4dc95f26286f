#!/usr/bin/env python3
"""The repository's benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload solve_general --seed 1 --seconds 16 --trace 0

Run from the root of a checkout. The first run builds `mc3` and the benchmark
binary `mc3_perfbench` (Release) into $CARGO_TARGET_DIR or `.bench_build`;
every input, log and trace lands under that directory too. The last line
of stdout is the result:

    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
(and writes a Chrome trace-event file Perfetto opens). See README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve_general", "solve_short", "serve_churn")

# Solve workloads measure SOLVE_INSTANCES generated instances per run and
# split the measuring time over SOLVE_PROCESSES processes. On this class of
# host a process's speed is set by where its memory lands: one process runs
# all its solves at about 60 ms on solve_short, the next at about 85 ms, and
# the share of slow processes drifts. The timing figures are therefore a
# median per process, averaged over the processes, which moves smoothly with
# that share where a pooled median would jump between the two speeds. Each
# process's load plus cold solve is one set-up sample.
SOLVE_INSTANCES = 6
SOLVE_PROCESSES = {"general": 6, "short": 24}
GEN_PARALLEL = 3
# serve_churn runs its requests SERVE_SEGMENTS times, each time against a
# fresh `mc3 serve` (its own set-up sample) and data dir, for the same
# reason: one server process is one draw of the host's memory speed.
SERVE_SEGMENTS = 6
# Measured update requests per writer per second of --seconds, over all
# segments: the phase is fixed work, sized so it lasts about --seconds at
# today's 64-80 acked requests/s over both writers.
REQUESTS_PER_WRITER_PER_S = 32

# End-to-end metrics: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("plan_cost", "cost"),
    ("peak_rss_mb", "MiB"),
    ("op_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
]

# Per-layer metrics: (name, unit, workloads it is measured on, the
# end-to-end metric it should move). Layers a workload never enters
# report 0.
SOLVE = ("solve_general", "solve_short")
SERVE = ("serve_churn",)
ALL = WORKLOADS
PER_LAYER = [
    ("data.load_ms", "ms", ALL, "setup_s"),
    ("core.preprocess_ms", "ms", SOLVE, "op_p50_ms"),
    ("core.preprocess.residual_queries", "count", SOLVE, "op_p50_ms"),
    ("core.preprocess.components", "count", SOLVE, "op_p50_ms"),
    ("core.wsc_reduce_ms", "ms", ("solve_general",), "op_p50_ms"),
    ("setcover.greedy_ms", "ms", ("solve_general",), "op_p50_ms"),
    ("setcover.primal_dual_ms", "ms", ("solve_general",), "op_p50_ms"),
    ("core.k2_component_ms", "ms", SOLVE, "op_p50_ms"),
    ("flow.dinic.augmenting_paths", "count", SOLVE, "op_p50_ms"),
    ("core.finish_ms", "ms", SOLVE, "op_p50_ms"),
    ("core.unattributed_ms", "ms", SOLVE, "op_p50_ms"),
    ("server.parse_us", "us", SERVE, "op_p50_ms"),
    ("server.coalesce_us", "us", SERVE, "op_p50_ms"),
    ("online.apply_ms", "ms", SERVE, "op_p50_ms, cpu_ms_per_op, serve.recover_s"),
    ("online.resolved_queries_per_op", "ratio", SERVE, "op_p50_ms, cpu_ms_per_op"),
    ("online.read_view_ms", "ms", SERVE, "op_p50_ms"),
    ("durability.wal_append_us", "us", SERVE, "op_p50_ms"),
    ("durability.records_per_fsync", "count", SERVE, "op_p50_ms"),
    ("durability.checkpoint_ms", "ms", SERVE, "serve.update_p99_ms, serve.recover_s"),
    ("durability.snapshot_mb", "MiB", SERVE, "serve.recover_s"),
    ("durability.snapshot_load_ms", "ms", SERVE, "serve.recover_s"),
    ("durability.wal_replay_ms", "ms", SERVE, "serve.recover_s"),
    ("concurrency.publish_us", "us", SERVE, "op_p50_ms"),
    ("serve.unattributed_ms", "ms", SERVE, "op_p50_ms"),
] + [
    ("server.stage.%s_%s_ms" % (stage, q), "ms", SERVE, "op_p50_ms, serve.update_p99_ms")
    for stage in ("queue_wait", "coalesce", "shard_apply", "wal_durable", "serialize")
    for q in ("p50", "p99")
] + [
    ("server.read.%s_%s_ms" % (stage, q), "ms", SERVE, "serve.read_p50_ms, serve.read_p99_ms")
    for stage in ("acquire", "render", "serialize")
    for q in ("p50", "p99")
] + [
    ("server.batch_ops", "count", SERVE, "op_p50_ms"),
    ("net.read_hold_ms", "ms", SERVE, "serve.read_p50_ms"),
    # The serving client's own figures beyond the end-to-end set.
    ("serve.update_tput_ops_s", "ops/s", SERVE, "(end to end; higher is better)"),
    ("serve.update_p99_ms", "ms", SERVE, "(end to end)"),
    ("serve.read_p50_ms", "ms", SERVE, "(end to end)"),
    ("serve.read_p99_ms", "ms", SERVE, "(end to end)"),
    ("serve.recover_s", "s", SERVE, "(end to end)"),
    # Tracing itself.
    ("trace.coverage", "share", ALL, "(spans cover at least 0.9, else see *.unattributed_ms)"),
    ("trace.overhead_ms", "ms", ALL, "(traced minus untraced, per solve or batch)"),
]


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def build(out):
    """Configures and builds mc3 and mc3_perfbench (a no-op when current)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("no repository sources around %s; run from a checkout" % HERE)
    out.mkdir(parents=True, exist_ok=True)
    build_log = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(build_log, "w") as sink:
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target", "mc3",
                      "mc3_perfbench", "-j", jobs])
        for step in steps:
            if subprocess.call(step, stdout=sink, stderr=subprocess.STDOUT) != 0:
                sink.flush()
                tail = build_log.read_text(errors="replace").splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    binaries = {}
    for name in ("mc3", "mc3_perfbench"):
        found = list(out.glob("**/%s" % name))
        found = [p for p in found if p.is_file() and os.access(p, os.X_OK)]
        if not found:
            raise BenchError("built tree has no %s binary" % name)
        binaries[name] = str(found[0])
    return binaries


def cpu_times():
    with open("/proc/stat") as stat:
        fields = stat.readline().split()[1:]
    return [int(v) for v in fields]


def diagnostics(out, stat_start, stat_end):
    """Noise context of the run (never gated)."""
    delta = [b - a for a, b in zip(stat_start, stat_end)]
    total = sum(delta[:8]) or 1
    user = (delta[0] + delta[1]) or 1
    steal = delta[7] if len(delta) > 7 else 0
    cache = {}
    try:
        for line in (out / "CMakeCache.txt").read_text().splitlines():
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    with open("/proc/loadavg") as loadavg:
        load = loadavg.read().split()[:3]
    return {
        "steal_share": round(steal / total, 4),
        "steal_per_user": round(steal / user, 4),
        "loadavg": [float(v) for v in load],
        "nproc": os.cpu_count(),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
    }


def run_json(cmd, timeout=170, **kwargs):
    """Runs an mc3_perfbench step and returns its result line as a dict."""
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, **kwargs)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed no result (exit %d)" % (cmd[1], proc.returncode))
    return json.loads(lines[-1])


class Tally:
    """Operations attempted and failed across the steps of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def absorb(self, step):
        self.attempted += step["attempted"]
        self.failed += step["failed"]
        self.correct = self.correct and step["correct"]

    def check(self, ok, why):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False
            log("check failed: " + why)


def read_or_none(path):
    return path.read_text() if path.exists() else None


def metric_value(step, name, default=0.0):
    return step["metrics"].get(name, {}).get("value", default)


def run_solve(kind, args, bins, work, tally):
    # Several instances per run: each benchmark seed names SOLVE_INSTANCES
    # generator draws, so one run's figures average over instance shape
    # instead of resting on a single draw.
    count = 1 if args.trace else SOLVE_INSTANCES
    csvs = [work / ("%s-%d-%d.csv" % (kind, args.seed, i)) for i in range(count)]
    # Generators run GEN_PARALLEL at a time (the solve_short source instance
    # takes about 140 MB while it is generated).
    for first in range(0, count, GEN_PARALLEL):
        gens = [subprocess.Popen([bins["mc3_perfbench"], "gen-solve", "--kind", kind,
                                  "--seed", str(args.seed * SOLVE_INSTANCES + i),
                                  "--out", str(csvs[i])], stdout=subprocess.PIPE, text=True)
                for i in range(first, min(count, first + GEN_PARALLEL))]
        try:
            for gen in gens:
                lines = gen.communicate(timeout=170)[0].strip().splitlines()
                if not lines:
                    raise BenchError("gen-solve printed no result (exit %d)" % gen.returncode)
                tally.absorb(json.loads(lines[-1]))
        finally:
            for gen in gens:
                if gen.poll() is None:
                    gen.kill()
                    gen.wait()
    if args.trace:
        trace_path = work.parent.parent / "traces" / ("solve_%s-%d.json" % (kind, args.seed))
        step = run_json([bins["mc3_perfbench"], "solve-traced", "--kind", kind,
                         "--csv", str(csvs[0]), "--trace-out", str(trace_path)])
        tally.absorb(step)
        print("trace: %s" % trace_path)
        return {name: m["value"] for name, m in step["metrics"].items()}

    steps = [[] for _ in csvs]
    processes = SOLVE_PROCESSES[kind]
    for p in range(processes):
        i = p % len(csvs)
        step = run_json([bins["mc3_perfbench"], "solve", "--kind", kind, "--csv",
                         str(csvs[i]), "--seconds", str(args.seconds / processes)])
        tally.absorb(step)
        steps[i].append(step)
    plan_cost = 0.0
    for i, runs in enumerate(steps):
        costs = {metric_value(s, "plan_cost", None) for s in runs}
        tally.check(len(costs) == 1, "instance %d: plan cost differs between processes: %s"
                    % (i, costs))
        plan_cost += metric_value(runs[0], "plan_cost")
    every = [s for runs in steps for s in runs]
    if not all(s["samples"].get("solve_s") for s in every):
        raise BenchError("a solve process completed no warm solve")

    def per_process_ms(name):
        return 1e3 * statistics.mean(statistics.median(s["samples"][name]) for s in every)

    return {
        "setup_s": statistics.median(metric_value(s, "setup_s") for s in every),
        "plan_cost": plan_cost,
        "peak_rss_mb": statistics.median(metric_value(s, "peak_rss_mb") for s in every),
        "op_p50_ms": per_process_ms("solve_s"),
        "cpu_ms_per_op": per_process_ms("cpu_s"),
    }


def supported_percentile(samples, q):
    """Nearest-rank percentile q, or None unless ten samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1] if len(ordered) - rank >= 10 else None


class Server:
    """One `mc3 serve --listen` process."""

    def __init__(self, bins, work, data_dir, tag):
        self.port_file = work / ("port-%s" % tag)
        if self.port_file.exists():
            self.port_file.unlink()
        self.log = open(work / ("serve-%s.log" % tag), "w")
        self.rusage = None
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [bins["mc3"], "serve", str(work / "catalog.csv"), "--listen", "0",
             "--port-file", str(self.port_file), "--data-dir", str(data_dir)],
            stdout=self.log, stderr=subprocess.STDOUT)

    def wait_ready(self):
        """Returns seconds from launch until the server accepted a connection."""
        deadline = self.started + 120
        while True:
            if self.proc.poll() is not None:
                raise BenchError("mc3 serve exited during start-up (see %s)" % self.log.name)
            text = self.port_file.read_text().strip() if self.port_file.exists() else ""
            if text.isdigit():
                try:
                    with socket.create_connection(("127.0.0.1", int(text)), timeout=5):
                        self.port = int(text)
                        return time.perf_counter() - self.started
                except OSError:
                    pass
            if time.perf_counter() > deadline:
                raise BenchError("mc3 serve did not accept within 120 s")
            time.sleep(0.001)

    def wait(self, timeout=60):
        """Reaps the process; returns its peak RSS in MiB."""
        deadline = time.time() + timeout
        while self.rusage is None:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid == self.proc.pid:
                self.rusage = rusage
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.time() > deadline:
                self.proc.kill()
                deadline = time.time() + 30
            time.sleep(0.01)
        self.log.close()
        return self.rusage.ru_maxrss / 1024.0

    def kill(self):
        if self.rusage is None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()
        self.log.close()


def run_serve(args, bins, work, tally):
    requests = max(20, int(round(REQUESTS_PER_WRITER_PER_S * args.seconds / SERVE_SEGMENTS)))
    tally.absorb(run_json([bins["mc3_perfbench"], "gen-serve", "--seed", str(args.seed),
                           "--requests", str(requests), "--dir", str(work)]))
    data_dir = work / "data"
    clients, setups, peak_rss = [], [], []
    served = None
    for i in range(SERVE_SEGMENTS):
        shutil.rmtree(data_dir, ignore_errors=True)
        (work / "served-plan.txt").unlink(missing_ok=True)
        server = Server(bins, work, data_dir, str(i))
        try:
            setups.append(server.wait_ready())
            client_cmd = [bins["mc3_perfbench"], "serve-client", "--port", str(server.port),
                          "--pid", str(server.proc.pid), "--dir", str(work),
                          "--seed", str(args.seed)]
            if args.trace and i == 0:
                client_cmd.append("--scrape-stages")
            client = run_json(client_cmd)
            tally.absorb(client)
            clients.append(client)
            peak_rss.append(server.wait())
            tally.check(server.proc.returncode == 0,
                        "mc3 serve exited with %s" % server.proc.returncode)
        finally:
            server.kill()
        plan = read_or_none(work / "served-plan.txt")
        if i == 0:
            served = plan
        tally.check(plan is not None and plan == served,
                    "segment %d served another plan than segment 0" % i)

    # Correctness: the served plan equals an offline OnlineEngine replay of
    # the same requests and `mc3 recover` of the last segment's data dir.
    tally.absorb(run_json([bins["mc3_perfbench"], "serve-replay", "--dir", str(work)]))
    tally.check(served is not None and served == read_or_none(work / "replay-plan.txt"),
                "served plan differs from the offline replay")
    plan_path = work / "recover-plan.txt"
    started = time.perf_counter()
    with open(work / "recover.log", "w") as sink:
        code = subprocess.call([bins["mc3"], "recover", str(work / "catalog.csv"),
                                "--data-dir", str(data_dir), "--solution-out", str(plan_path)],
                               stdout=sink, stderr=subprocess.STDOUT, timeout=120)
    recover_s = time.perf_counter() - started
    tally.check(code == 0, "mc3 recover exited with %d" % code)
    tally.check(read_or_none(plan_path) == served,
                "mc3 recover does not reproduce the served plan")

    # Figures over every segment: update and read latencies pooled, ops per
    # second of measured phase, CPU per op over all measured phases.
    update_ms = [v for c in clients for v in c["samples"].get("update_ms", [])]
    read_ms = [v for c in clients for v in c["samples"].get("read_ms", [])]
    ops = sum(c["notes"]["committed_ops"] for c in clients)
    if not update_ms or not read_ms or not ops:
        raise BenchError("serve_churn measured no acked update or read")
    serve = {
        "update_tput_ops_s": ops / sum(c["notes"]["measured_s"] for c in clients),
        "update_p99_ms": supported_percentile(update_ms, 0.99) or 0.0,
        "read_p50_ms": statistics.median(read_ms),
        "read_p99_ms": supported_percentile(read_ms, 0.99) or 0.0,
        "recover_s": recover_s,
    }
    if args.trace:
        trace_path = work.parent.parent / "traces" / ("serve_churn-%d.json" % args.seed)
        replay = run_json([bins["mc3_perfbench"], "serve-replay-traced", "--dir", str(work),
                           "--data-dir", str(work / "replay-data"),
                           "--trace-out", str(trace_path)])
        tally.absorb(replay)
        tally.check(read_or_none(work / "traced-plan.txt") == served,
                    "traced replay ends at another plan than the live run")
        print("trace: %s" % trace_path)
        values = {name: v["value"] for name, v in clients[0]["metrics"].items()}
        values.update({name: v["value"] for name, v in replay["metrics"].items()})
        values.update({"serve." + name: value for name, value in serve.items()})
        return values
    serve["notes"] = [c.get("notes", {}) for c in clients]
    print("serve: %s" % json.dumps(serve))
    return {
        "setup_s": statistics.median(setups),
        "plan_cost": metric_value(clients[0], "plan_cost"),
        "peak_rss_mb": statistics.median(peak_rss),
        # Median per server process, averaged (see SERVE_SEGMENTS).
        "op_p50_ms": statistics.mean(metric_value(c, "update_p50_ms") for c in clients),
        # Equal ops per segment, so this is total CPU over total ops.
        "cpu_ms_per_op": statistics.mean(metric_value(c, "cpu_ms_per_op") for c in clients),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        out = build_dir()
        bins = build(out)
        work = out / "work" / ("%s-%d" % (args.workload, args.seed))
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        (out / "traces").mkdir(exist_ok=True)
        stat_start = cpu_times()
        tally = Tally()
        if args.workload == "serve_churn":
            values = run_serve(args, bins, work, tally)
        else:
            values = run_solve(args.workload.split("_", 1)[1], args, bins, work, tally)
        print("diagnostics: %s" % json.dumps(diagnostics(out, stat_start, cpu_times())))
        # Inputs and data dirs are rebuilt from the seed on every run.
        shutil.rmtree(work, ignore_errors=True)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as error:
        log("benchmark failed: %s" % error)
        return 1

    if args.trace:
        metrics = {}
        print("%-40s %14s  %-8s %s" % ("per-layer metric", "value", "unit", "should move"))
        for name, unit, workloads, moves in PER_LAYER:
            value = float(values.get(name, 0.0))
            metrics[name] = {"value": value, "unit": unit}
            where = "" if args.workload in workloads else "  (layer not entered)"
            print("%-40s %14.4f  %-8s %s on %s%s" % (
                name, value, unit, moves, "/".join(workloads), where))
    else:
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print("%-16s %14.6f %s" % (name, values[name], unit))
    print(json.dumps({"correct": tally.correct and tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the vRead simulator.

    python3 perfbench/run.py                        # every workload, untraced
    python3 perfbench/run.py --workload rack_pread_open --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --write-manifest       # regenerate BENCHMARK.json

Builds perfbench/vbench from ../src with CMake (into $CARGO_TARGET_DIR, or
.bench_build), then runs whole iterations of the workload -- each in its own
process, so peak RSS belongs to it -- until --seconds have been spent.
Every iteration rebuilds the cluster (so set-up is measured several times),
runs the timed phase and verifies every byte read against
mem::Buffer::deterministic.

Two kinds of numbers come out. Simulated ("sim") metrics are what the
modeled hardware takes; they are a pure function of the seed, so every
iteration of a run must reproduce them and the dispatch digest exactly.
Host metrics are what the simulator itself takes, reported as medians over
the run's iterations. The model is not validated against hardware: accuracy
against the paper stays with the per-figure benches, and no error figure is
given here.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 iterations alternate untraced/traced (the traced ones enable
trace::tracer()), the traced run must reproduce the untraced simulated
metrics and digest, a second seed must change the digest and still verify,
and the last line reports the per-layer metrics. Exit status is 0 only when
every check passed.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = ROOT / "BENCHMARK.json"
RUN_SECONDS = 30
# An iteration normally takes under 10 s; a hung one is killed well inside
# the run's own 180 s limit.
ITERATION_TIMEOUT_S = 60

WORKLOADS = {
    "dfsio_hybrid_4vm": (
        "Fig.10 hybrid bed, 85% lookbusy, vRead RDMA, 1 MB DFSIO cold+warm read: bytes-heavy "
        "(Buffer copies, block cache, vCPU sync wait)"
    ),
    "rack_pread_open": (
        "open-loop Poisson 64 KB preads, 6 tenants, 2 racks at 4:1: event-heavy; only load "
        "on dispatch, routing, QoS, peer cache, hedging; MB/s load-pinned, latency moves"
    ),
    "ingest_readback": (
        "2-replica DFSIO write beside a vRead scan with SSD stalls, then readback: socket "
        "write path and mount refresh"
    ),
}
UNVALIDATED = "sim metrics unvalidated vs hardware"

# name -> (unit, better, bound, kind, meaning). kind: sim | host | count.
# Simulated metrics are exact per seed, so their bounds only cover the
# spread between seeds (at most 3%, p99 on rack_pread_open, over ten
# seeds). Host metrics are medians on a shared machine, where ten-seed
# spreads reached 10% (wall_s) and 21% (setup_s). On rack_pread_open the
# offered load fixes sim_read_mbps (it can only fall, if a backlog stretches
# the span); latency is that workload's gain signal.
END_TO_END = {
    "sim_read_mbps": ("MB/s", "higher", 0.05, "sim",
                      "read bytes / simulated span of the timed phase"),
    "sim_read_p50_ms": ("ms", "lower", 0.1, "sim",
                        "median per-request read latency (open loop: from due time)"),
    "sim_read_p99_ms": ("ms", "lower", 0.2, "sim",
                        "p99 per-request read latency (open loop: from due time)"),
    "sim_cycles_per_byte": ("cycles/B", "lower", 0.05, "sim",
                            "modeled CPU cycles of all non-lookbusy groups / bytes "
                            "read+written"),
    "wall_s": ("s", "lower", 0.25, "host",
               "host time of the timed phase, verification excluded (median)"),
    "setup_s": ("s", "lower", 0.25, "host",
                "host time of topology + preload + enable_vread (median)"),
    "peak_rss_mb": ("MB", "lower", 0.1, "host", "peak RSS of an iteration's process (median)"),
}
# Printed with the end-to-end metrics but not in the manifest: they are 0
# on some workloads, and a failed read is already counted in "failed".
REPORTED_ONLY = {
    "sim_write_mbps": ("MB/s", "sim", "write bytes / simulated write span "
                                      "(ingest_readback only)"),
    "read_error_ratio": ("ratio", "count", "reads with a non-ok status / reads attempted"),
}

# The layer -> end-to-end map: each group of per-layer metrics (name, unit,
# better) names the end-to-end metric it should move and on which workload.
# Layers are the src/ modules on the read and write paths.
LAYER_MAP = [
    ("setup_s", "all", [
        ("apps.setup.topology_s", "s", "lower"),
        ("apps.setup.preload_s", "s", "lower"),
        ("apps.setup.enable_vread_s", "s", "lower")]),
    ("wall_s", "rack_pread_open (little on dfsio_hybrid_4vm)", [
        ("sim.events", "count", "lower"),
        ("sim.run_s", "s", "lower"),
        ("sim.host_ns_per_event", "ns", "lower")]),
    ("wall_s, setup_s", "dfsio_hybrid_4vm, ingest_readback", [
        ("mem.verify_s", "s", "lower"),
        ("mem.verify_mb_per_s", "MB/s", "higher")]),
    ("sim_read_p99_ms, sim_write_mbps", "rack_pread_open, ingest_readback", [
        ("hw.disk.reads", "count", "lower"),
        ("hw.disk.read_mb", "MB", "lower"),
        ("hw.disk.write_mb", "MB", "lower"),
        ("hw.disk.gc_stalls", "count", "lower"),
        ("hw.disk.write_stalls", "count", "lower"),
        ("hw.cycles.disk_read", "cycles/B", "lower"),
        ("hw.cycles.disk_write", "cycles/B", "lower")]),
    ("sim_read_p50_ms", "dfsio_hybrid_4vm (lookbusy)", [
        ("hw.cpu.sync_wait_ms", "ms", "lower"),
        ("hw.disk.service_ms", "ms", "lower")]),
    ("sim_cycles_per_byte", "dfsio_hybrid_4vm (reads), ingest_readback (writes)", [
        ("virt.copies_per_byte", "copies", "lower"),
        ("virt.cycles.virtio_copy", "cycles/B", "lower"),
        ("virt.cycles.vhost_net", "cycles/B", "lower"),
        ("virt.cycles.guest_net", "cycles/B", "lower"),
        ("virt.shm.slot_waits", "count", "lower"),
        ("virt.shm.timeouts", "count", "lower"),
        ("virt.net.mb", "MB", "lower")]),
    ("sim_read_p50_ms", "ingest_readback", [
        ("fs.cycles.loop_device", "cycles/B", "lower"),
        ("fs.mount.refreshes", "count", "lower"),
        ("fs.mount.lookup_hit_ratio", "ratio", "higher")]),
    ("sim_read_mbps", "dfsio_hybrid_4vm re-read pass", [
        ("core.cache.hit_ratio", "ratio", "higher"),
        ("core.cache.evictions", "count", "lower"),
        ("core.cache.integrity_failures", "count", "lower")]),
    ("sim_read_p99_ms, read_error_ratio", "rack_pread_open", [
        ("core.coalesce.hit_ratio", "ratio", "higher"),
        ("core.coalesce.fill_mb", "MB", "lower"),
        ("core.disk_batches", "count", "lower"),
        ("core.peer.lookups", "count", "lower"),
        ("core.peer.hit_ratio", "ratio", "higher"),
        ("core.peer.fetch_mb", "MB", "higher"),
        ("core.qos.shed", "count", "lower"),
        ("core.transport_ms", "ms", "lower")]),
    ("sim_cycles_per_byte", "dfsio_hybrid_4vm", [
        ("core.remote_reads", "count", "lower"),
        ("core.remote_retries", "count", "lower"),
        ("core.rdma_failovers", "count", "lower"),
        ("core.cycles.vread_buffer_copy", "cycles/B", "lower"),
        ("core.cycles.rdma", "cycles/B", "lower"),
        ("core.cycles.vread_net", "cycles/B", "lower")]),
    ("sim_cycles_per_byte", "all", [
        ("hdfs.reads.vread_share", "ratio", "higher"),
        ("hdfs.fallback_reads", "count", "lower"),
        ("hdfs.vfd_cache.hit_ratio", "ratio", "higher"),
        ("hdfs.cycles.client_app", "cycles/B", "lower"),
        ("hdfs.cycles.datanode_app", "cycles/B", "lower"),
        ("hdfs.cycles.namenode", "cycles/B", "lower"),
        ("hw.cycles.other", "cycles/B", "lower")]),
    ("sim_read_p99_ms", "rack_pread_open", [
        ("hdfs.hedge.launched", "count", "lower"),
        ("hdfs.hedge.win_ratio", "ratio", "higher"),
        ("hdfs.hedge.wasted_ratio", "ratio", "lower"),
        ("cluster.route.cross_rack_mb", "MB", "lower"),
        ("cluster.route.overload_avoided", "count", "higher"),
        ("cluster.route.feedback_reports", "count", "lower")]),
    ("(tracing cost)", "all", [
        ("trace.spans", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower")]),
]
# name -> (unit, better, moves, on)
PER_LAYER = {name: (unit, better, moves, on)
             for moves, on, rows in LAYER_MAP for name, unit, better in rows}
# At least this many timed reads per iteration, so p99 has ten samples
# beyond it.
MIN_READ_SAMPLES = 1000
# Untraced runs set up at least this many times, so host medians (set-up
# above all) rest on several samples even when one iteration is long.
MIN_ITERATIONS = 3


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": f"{why}; {UNVALIDATED}"}
                      for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound, _, _) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b, _, _) in PER_LAYER.items()],
    }


def build():
    """Configures and builds vbench; returns its path, or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"run.py: simulator sources not found under {ROOT / 'src'}")
        return None
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = ROOT / out
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", "vbench", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("run.py: build failed:", " ".join(cmd))
            return None
    exe = out / "vbench"
    return exe if exe.is_file() else None


def iterate(exe, workload, seed, traced):
    """Runs one iteration in its own process; returns its report or None."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--trace",
           "1" if traced else "0"]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} seed {seed} timed out")
        return None
    lines = p.stdout.strip().splitlines()
    if not lines:
        log(f"run.py: {workload} seed {seed} exited {p.returncode} without a report")
        return None
    try:
        rep = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"run.py: {workload} seed {seed} printed no JSON report")
        return None
    rep["exit"] = p.returncode
    return rep


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


class Checks:
    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)
            log("CHECK FAILED:", what)
        return ok


def run_workload(exe, workload, seed, seconds, traced):
    """Iterates `workload` for about `seconds`; returns (metrics, attempted,
    failed, checks)."""
    checks = Checks()
    plain, tracedruns = [], []
    start = time.monotonic()
    attempted = failed = 0
    extra = None
    if traced:
        # A second seed must change the digest and still verify.
        extra = iterate(exe, workload, seed + 1_000_003, False)
        if checks.expect(extra is not None, "second-seed iteration produced a report"):
            attempted += int(extra["attempted"])
            failed += int(extra["failed"])
    while True:
        t0 = time.monotonic()
        for want_trace in ([False, True] if traced else [False]):
            rep = iterate(exe, workload, seed, want_trace)
            if not checks.expect(rep is not None, f"iteration of {workload} ran"):
                return None, max(attempted, 1), failed + 1, checks
            attempted += int(rep["attempted"])
            failed += int(rep["failed"])
            (tracedruns if want_trace else plain).append(rep)
        took = time.monotonic() - t0
        enough = traced or len(plain) >= MIN_ITERATIONS
        if enough and time.monotonic() - start + took > seconds:
            break

    base = plain[0]
    for rep in plain + tracedruns:
        tag = f"{workload} seed {seed}{' traced' if rep['traced'] else ''}"
        checks.expect(rep["exit"] == 0 and rep["failed"] == 0,
                      f"{tag}: every byte verified, no failed operation")
        checks.expect(rep["digest"] == base["digest"] and rep["sim"] == base["sim"],
                      f"{tag}: simulated metrics and digest equal the first iteration")
    checks.expect(base["sim"]["read_samples"] >= MIN_READ_SAMPLES,
                  f"{workload}: at least {MIN_READ_SAMPLES} timed reads")
    if workload == "rack_pread_open":
        # Below saturation latency does not grow with run length: the later
        # half of the reads keeps its p99 within the p99 metric's bound.
        first = base["sim"]["sim_read_p99_first_half_ms"]
        second = base["sim"]["sim_read_p99_second_half_ms"]
        checks.expect(second <= first * (1 + END_TO_END["sim_read_p99_ms"][2]),
                      f"{workload}: second-half p99 {second:.4f} ms within bound of "
                      f"first-half {first:.4f} ms")
    if extra is not None:
        checks.expect(extra["exit"] == 0 and extra["failed"] == 0,
                      f"{workload} seed {seed + 1_000_003}: verifies")
        checks.expect(extra["digest"] != base["digest"],
                      f"{workload}: a second seed changes the digest")

    def host_median(reps, key):
        return statistics.median(r["host"][key] for r in reps)

    values = {}
    for name in END_TO_END:
        kind = END_TO_END[name][3]
        values[name] = host_median(plain, name) if kind == "host" else base["sim"][name]
    for name in REPORTED_ONLY:
        values[name] = base["sim"][name]
    if traced:
        tbase = tracedruns[0]
        # Host-clock layer metrics are medians over the untraced iterations
        # (the benchmark's own spans cost nothing measurable); the
        # trace::aggregate ones come from the traced iteration; simulated
        # counters are equal in both.
        for name in PER_LAYER:
            if name == "trace.overhead_ratio":
                values[name] = host_median(tracedruns, "wall_s") / host_median(plain, "wall_s")
            elif name in base["host"]:
                values[name] = host_median(plain, name)
            elif name in tbase["traced_metrics"]:
                values[name] = tbase["traced_metrics"][name]
            else:
                values[name] = tbase["sim"][name]

    report(workload, seed, plain, tracedruns, values, traced)
    return values, attempted, failed, checks


def report(workload, seed, plain, tracedruns, values, traced):
    base = plain[0]
    sim = base["sim"]
    out = sys.stdout
    print(f"== {workload}  seed {seed}  iterations {len(plain)} untraced"
          f"{f' + {len(tracedruns)} traced' if traced else ''}", file=out)
    print(f"   sim.events {int(sim['sim.events'])}  dispatch digest {base['digest']}"
          f"  read samples {int(sim['read_samples'])}  simulated span "
          f"{sim['sim_span_ms']:.3f} ms", file=out)
    print(f"   p99 first/second half {sim['sim_read_p99_first_half_ms']:.4f} / "
          f"{sim['sim_read_p99_second_half_ms']:.4f} ms", file=out)
    for name, (unit, better, _, kind, _) in END_TO_END.items():
        print(f"   {name:24s} {values[name]:14.6f} {unit:9s} ({kind}, {better} is better)",
              file=out)
    for name, (unit, kind, _) in REPORTED_ONLY.items():
        print(f"   {name:24s} {values[name]:14.6f} {unit:9s} ({kind})", file=out)
    for key in ("setup_s", "apps.setup.topology_s", "apps.setup.preload_s",
                "apps.setup.enable_vread_s", "wall_s", "mem.verify_s"):
        q1, med, q3 = quartiles([r["host"][key] for r in plain])
        print(f"   host {key:26s} q1 {q1:.4f}  median {med:.4f}  q3 {q3:.4f} s", file=out)
    if traced:
        print("   per-layer (traced run):", file=out)
        for name, (unit, _, moves, on) in PER_LAYER.items():
            print(f"     {name:32s} {values[name]:16.6f} {unit:9s} -> {moves} on {on}",
                  file=out)


def main():
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the child it is waiting on before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json from this file's tables and exit")
    args = ap.parse_args()

    if args.write_manifest:
        MANIFEST.write_text(json.dumps(manifest(), indent=2) + "\n")
        print(f"wrote {MANIFEST}")
        return 0

    exe = build()
    if exe is None:
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    traced = args.trace == 1
    names = PER_LAYER if traced else END_TO_END
    metrics, attempted, failed, correct = {}, 0, 0, True
    for w in workloads:
        values, a, f, checks = run_workload(exe, w, args.seed, args.seconds, traced)
        attempted += a
        failed += f
        correct = correct and not checks.failures
        if values is None:
            continue
        for n in names:
            unit = names[n][0]
            key = n if len(workloads) == 1 else f"{w}/{n}"
            metrics[key] = {"value": values[n], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark of olclint.

Run from the repository root:

    python3 e2ebench/run.py --workload cold-corpus --seed 1 --seconds 10 --trace 0

It builds olclint and the benchmark's helper (e2ebench/olbench.ml) with
dune, generates the workload's inputs from --seed into a scratch
directory under the root (.e2ebench_work/), and then

  --trace 0  times the real olclint binary (batch runs, or -server
             requests for edit-loop) for --seconds and prints the
             end-to-end metrics;
  --trace 1  runs olclint once for the reference output and then the
             in-process layer trace (olbench trace), and prints the
             per-layer metrics.

Every olclint output is checked against the workload's known answers
(olbench verify) outside the timed region.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  See
e2ebench/README.md for the workloads and metric definitions.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORK_ROOT = ".e2ebench_work"  # everything the benchmark writes lives here
BUILD_DIR = os.path.join(WORK_ROOT, "_build")
OLCLINT = os.path.join(BUILD_DIR, "default", "bin", "olclint.exe")
OLBENCH = os.path.join(BUILD_DIR, "default", "e2ebench", "olbench.exe")
WORKLOADS = ["cold-corpus", "long-proc", "annotate", "edit-loop"]
RUN_TIMEOUT = 120.0  # one olclint run or request; beyond it the op failed
BUDGET = 150.0  # the whole benchmark stops starting new work after this
MIN_BATCH_RUNS = 10  # timed olclint runs per batch window, at least
SETUPS_PER_RUN = 10  # empty-file set-up runs after each timed run
MIN_EDIT_REQUESTS = 200  # edit requests per edit-loop window, at least


def die(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("BENCHMARK.json", "dune-project",
                 os.path.join("bin", "olclint.ml"),
                 os.path.join("e2ebench", "olbench.ml")):
        if not os.path.exists(need):
            die("not a checkout of the repository (missing %s)" % need)
    os.makedirs(WORK_ROOT, exist_ok=True)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
         "--profile", "release", "--cache", "disabled",
         "./bin/olclint.exe", "./e2ebench/olbench.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        die("build failed")


def olbench(*args):
    r = subprocess.run([os.path.abspath(OLBENCH)] + list(args),
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        die("olbench %s failed" % args[0])
    return json.loads(r.stdout.strip().splitlines()[-1])


def gc_stats(stderr):
    """The runtime's exit statistics (OCAMLRUNPARAM=v=0x400)."""
    stats = {}
    for line in stderr.splitlines():
        key, sep, val = line.partition(": ")
        if sep and key in ("allocated_words", "top_heap_words"):
            stats[key] = float(val)
    return stats


def gc_env():
    env = dict(os.environ)
    env["OCAMLRUNPARAM"] = "v=0x400"
    return env


class Work:
    """One benchmark run's inputs, counters and answer checks."""

    def __init__(self, workload, seed, root):
        self.workload = workload
        self.seed = seed
        self.dir = os.path.join(root, "%s-%d-%d" % (workload, seed, os.getpid()))
        self.src = os.path.join(self.dir, "src")
        self.attempted = 0
        self.failed = 0
        self.verdict_errors = 0
        self.mismatches = []
        self.details = []
        gen = olbench("gen", "--workload", workload, "--seed", str(seed),
                      "--dir", self.dir)
        self.lines = gen["lines"]
        with open(os.path.join(self.dir, "answers.json")) as f:
            self.answers = json.load(f)
        self.files = self.answers["files"]
        self.flags = self.answers["flags"]

    def path(self, name):
        return os.path.join(self.dir, name)

    def olclint(self, args, env=None):
        """One olclint run in the source directory: (wall s, out, err)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            r = subprocess.run([os.path.abspath(OLCLINT)] + args, cwd=self.src,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True, env=env, timeout=RUN_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.failed += 1
            return None
        wall = time.perf_counter() - t0
        # 0: no warnings, 1: warnings; 2 usage/input errors, 125 internal
        if r.returncode not in (0, 1):
            self.failed += 1
            self.details.append("olclint exited %d: %s"
                                % (r.returncode, r.stderr.strip()[:200]))
            return None
        return wall, r.stdout, r.stderr

    def verify(self, json_path, text_path=None, lib_path=None):
        args = ["verify", "--dir", self.dir, "--json", json_path]
        if text_path:
            args += ["--text", text_path]
        if lib_path:
            args += ["--lib", lib_path]
        v = olbench(*args)
        self.verdict_errors += v["verdict_errors"]
        self.mismatches += v["mismatches"]
        self.details += v["details"]

    def verify_batch(self, plain_stdout):
        """One untimed -json run, checked against the answers and against
        the plain output of the timed runs."""
        text = self.path("plain.txt")
        with open(text, "w") as f:
            f.write(plain_stdout)
        lib = self.path("inferred.lh") if self.workload == "annotate" else None
        extra = ["--dump-lib", lib] if lib else []
        r = self.olclint(self.flags + ["-json"] + extra + self.files)
        if r is None:
            return
        out = self.path("diags.ndjson")
        with open(out, "w") as f:
            f.write(r[1])
        self.verify(out, text, lib)

    def restore(self):
        for name in self.files:
            shutil.copyfile(self.path(os.path.join("orig", name)),
                            os.path.join(self.src, name))


def batch_tail(walls):
    """Batch tail: the interpolated 90th percentile of the run walls
    (batch_runs makes at least MIN_BATCH_RUNS, so it is defined)."""
    return statistics.quantiles(walls, n=10, method="inclusive")[-1], 90.0


def edit_tail(latencies):
    """Edit-loop tail: the highest percentile with at least ten requests
    beyond it, over at least MIN_EDIT_REQUESTS requests (so at or above
    p95): (value, percentile)."""
    s = sorted(latencies)
    n = len(s)
    return s[n - 11], 100.0 * (n - 10) / n


def median(xs):
    return statistics.median(xs) if xs else 0.0


def batch_runs(work, seconds, deadline):
    """Timed olclint runs over the workload until [seconds] have been
    measured, each followed by SETUPS_PER_RUN runs on an empty file (process
    start plus the annotated standard-library environment), so set-up
    samples span the same window.  Returns (walls, gc stats, first
    stdout, set-up walls)."""
    walls, stats, setup, first = [], [], [], None
    measured = 0.0
    empty = os.path.join(work.src, "empty.c")
    open(empty, "w").close()
    while (measured < seconds or len(walls) < MIN_BATCH_RUNS) \
            and time.time() < deadline:
        r = work.olclint(work.flags + work.files, env=gc_env())
        if r is None:
            if work.failed > 3:
                break
            continue
        wall, out, err = r
        walls.append(wall)
        measured += wall
        stats.append(gc_stats(err))
        if first is None:
            first = out
        elif out != first:
            work.mismatches.append("plain output differs between runs")
        for _ in range(SETUPS_PER_RUN):
            r = work.olclint(work.flags + ["empty.c"])
            if r:
                setup.append(r[0])
    os.remove(empty)
    return walls, stats, first, setup


class Server:
    """olclint -server driven by one closed-loop client."""

    def __init__(self, work):
        self.work = work
        self.proc = subprocess.Popen(
            [os.path.abspath(OLCLINT), "-server"] + work.flags, cwd=work.src,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=gc_env())

    def request(self, req):
        """Send one request; (latency s, response) or None on failure."""
        self.work.attempted += 1
        line = json.dumps(req) + "\n"
        t0 = time.perf_counter()
        try:
            self.proc.stdin.write(line)
            self.proc.stdin.flush()
            resp = self.proc.stdout.readline()
            obj = json.loads(resp)
        except (OSError, ValueError):
            resp, obj = "", None
        lat = time.perf_counter() - t0
        if not obj or obj.get("ok") is not True or lat > RUN_TIMEOUT:
            self.work.failed += 1
            self.work.details.append("server request failed: %s" % resp.strip()[:200])
            return None
        return lat, obj

    def check(self):
        return self.request({"op": "check", "files": self.work.files})

    def close(self):
        """Shut down; returns the server's exit GC statistics."""
        self.request({"op": "shutdown"})
        try:
            self.proc.stdin.close()
            err = self.proc.stderr.read()
            rc = self.proc.wait(timeout=RUN_TIMEOUT)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
            self.work.failed += 1
            return {}
        if rc != 0:
            self.work.failed += 1
        return gc_stats(err)


def edit_round(work, verify_cold):
    """One server session: cold check, then the edit script.  Returns
    (cold latency or None, edit latencies, gc stats)."""
    work.restore()
    srv = Server(work)
    cold, edits = None, []
    try:
        r = srv.check()
        if r is not None:
            cold, diags = r[0], r[1]["diagnostics"]
            if verify_cold:
                out = work.path("cold.ndjson")
                with open(out, "w") as f:
                    f.write("".join(json.dumps(d) + "\n" for d in diags))
                work.verify(out)
            for e in work.answers["edits"]:
                p = os.path.join(work.src, e["file"])
                with open(p) as f:
                    text = f.read()
                with open(p, "w") as f:
                    f.write(text.replace(e["old"], e["new"], 1))
                r = srv.check()
                if r is None:
                    break
                edits.append(r[0])
                # every edit leaves the verdicts as they were
                if r[1]["diagnostics"] != diags:
                    work.verdict_errors += 1
                    work.details.append("edit of %s changed the diagnostics" % e["file"])
    finally:
        stats = srv.close()
        work.restore()
    return cold, edits, stats


def metadata(args):
    def run(cmd):
        try:
            return subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return ""
    commit = run(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else ""
    if not commit:
        # outside git: a digest of the sources that make up the program
        h = hashlib.sha1()
        for top in ("lib", "bin", "e2ebench"):
            for d, _, fs in sorted(os.walk(top)):
                for name in sorted(fs):
                    with open(os.path.join(d, name), "rb") as f:
                        h.update(name.encode() + f.read())
        commit = "src-sha1:" + h.hexdigest()[:16]
    return {"workload": args.workload, "seed": args.seed,
            "nproc": os.cpu_count(), "ocaml": run(["ocamlc", "-version"]),
            "commit": commit, "seconds": args.seconds, "trace": args.trace}


def end_to_end(work, args, deadline):
    m = {}
    start = time.time()
    if work.workload == "edit-loop":
        colds, lats, stats = [], [], []
        while (time.time() - start < args.seconds or len(lats) < MIN_EDIT_REQUESTS) \
                and time.time() < deadline:
            cold, edits, st = edit_round(work, verify_cold=not colds)
            if cold is None:
                break
            colds.append(cold)
            lats += edits
            stats.append(st)
        # every edit's check re-validates the whole corpus, so the median
        # edit latency gives the kLOC the server keeps checked per second
        walls = lats
        setup = median(colds)
        samples = lats
        t, pct = edit_tail(lats) if len(lats) > 10 else (0.0, 100.0)
        note = "%d edit requests over %d server sessions" % (len(lats), len(colds))
    else:
        walls, stats, first, setups = batch_runs(work, args.seconds, deadline)
        if first is not None:
            work.verify_batch(first)
        setup = median(setups)
        samples = walls
        t, pct = batch_tail(walls) if len(walls) > 1 else (0.0, 100.0)
        note = "%d olclint runs, %d set-up runs" % (len(walls), len(setups))
    m["kloc_per_s"] = work.lines / 1000.0 / median(walls) if walls else 0.0
    m["p50_ms"] = 1000.0 * median(samples)
    m["tail_ms"] = 1000.0 * t
    m["setup_s"] = setup
    m["peak_heap_mb"] = median([s["top_heap_words"] * 8 / 2 ** 20
                                for s in stats if "top_heap_words" in s])
    m["alloc_mwords"] = median([s["allocated_words"] / 1e6
                                for s in stats if "allocated_words" in s])
    info = "tail_ms is p%.1f of %d samples (%s)" % (pct, len(samples), note)
    return m, info


def per_layer(work):
    # the reference output the in-process trace must reproduce, verified
    r = work.olclint(work.flags + work.files)
    expect = None
    if r is not None:
        expect = work.path("plain.txt")
        work.verify_batch(r[1])
    server_ms = []
    if work.workload == "edit-loop":
        _, edits, _ = edit_round(work, verify_cold=True)
        server_ms = [1000.0 * lat for lat in edits]
    args_ = ["trace", "--dir", work.dir] + (["--expect", expect] if expect else [])
    t = olbench(*args_)
    if not t["identical"]:
        work.mismatches.append("traced diagnostics differ from olclint's output")
    if not t["incr_identical"]:
        work.mismatches.append("in-process edit changed the diagnostics")
    metrics = dict(t["metrics"])
    metrics["incr.protocol_ms"] = (median(server_ms) - median(t["service_ms"])
                                   if server_ms and t["service_ms"] else 0.0)
    metrics["verdict_errors"] = float(work.verdict_errors)
    metrics["failed_ops"] = float(work.failed)
    return metrics, ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    start = time.time()
    deadline = start + BUDGET
    build()
    root = os.path.abspath(WORK_ROOT)
    os.makedirs(root, exist_ok=True)
    work = Work(args.workload, args.seed, root)
    try:
        shutil.copytree(work.src, work.path("orig"))
        if args.trace:
            metrics, info = per_layer(work)
        else:
            metrics, info = end_to_end(work, args, deadline)
        if args.trace:
            kept = os.path.join(root, "trace-%s-%d.json" % (args.workload, args.seed))
            shutil.copyfile(work.path("trace.json"), kept)
            info = "trace spans in %s" % os.path.relpath(kept)
    finally:
        shutil.rmtree(work.dir, ignore_errors=True)
    meta = metadata(args)
    meta["lines"] = work.lines
    meta["verdict_errors"] = work.verdict_errors
    meta["failed_ops"] = work.failed
    meta["note"] = info
    print("e2ebench: " + json.dumps(meta))
    for d in work.details[:20] + work.mismatches:
        print("e2ebench: " + d)
    # annotate's verdict errors are inference misses, recorded as its
    # baseline; every other disagreement fails the run
    baseline_ok = work.workload == "annotate" or work.verdict_errors == 0
    correct = work.failed == 0 and not work.mismatches and baseline_ok
    # names and units come from BENCHMARK.json: the end-to-end list
    # without tracing, the per-layer list with it
    with open("BENCHMARK.json") as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, work.attempted),
        "failed": work.failed,
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
                    for e in spec},
    }))


if __name__ == "__main__":
    main()

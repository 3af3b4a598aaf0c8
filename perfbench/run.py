#!/usr/bin/env python3
"""TeleKit benchmark: three workloads, their end-to-end metrics, and a traced
per-layer ledger.

    python3 perfbench/run.py --workload hot_replica|cold_replica|train \\
        --seed N --seconds S --trace 0|1

Run from the root of a TeleKit checkout. The first run builds the repository
and the probe into .bench_build/. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones. Lines before it
record the host facts and, for traced runs, the per-op layer ledger. Workload
and metric definitions are in perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(ROOT, ".bench_run")
PROBE = os.path.join(BUILD, "perfbench_probe")
SERVE = os.path.join(BUILD, "telekit", "src", "serve", "telekit_serve")

WORKLOADS = ("hot_replica", "cold_replica", "train")
# An untraced serving run replays one schedule on this many freshly started
# replicas and keeps, per request, its best latency (NOTES.md,
# "Steadiness"); setup_s and cpu_ms_per_req are medians over the replicas.
REPLAYS = 5
# Further replicas allowed for windows found invalid. The host has episodes
# of 15 s and more in which every window is late, so a run may need several.
SPARE_REPLICAS = 6
MAX_BATCH = 8           # telekit_serve's default --max-batch
# A window is invalid when the generator sent its p99 request more than
# this many mean inter-arrival gaps late: it could not keep the schedule.
LATE_GAPS = 4
# Reply texts each window keeps: the answer-check sample, the traced ones.
KEEP = {"untraced": "s", "traced": "t"}

END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "cpu_ms_per_req": "ms",
    "success_rate": "fraction",
    "answer_agreement": "fraction",
    "peak_rss_mb": "MB",
    "train_s": "s",
}

# p99_ms is an end-to-end figure, but it is printed with the traced run's
# unbounded metrics: on a shared 4-vCPU host its run-to-run spread is wider
# than any bound the benchmark may set (NOTES.md, "Steadiness").
PER_LAYER = {
    "p99_ms": "ms",
    "serve.queue_wait_us": "us",
    "serve.batch_size_mean": "requests",
    "serve.batch_fill": "fraction",
    "serve.cache_hit_rate": "fraction",
    "serve.parse_us": "us",
    "serve.render_us": "us",
    "serve.engine_us": "us",
    "serve.replica_cpu_us_per_req": "us",
    "text.build_input_us": "us",
    "text.tokens_per_input": "tokens",
    "core.encode_fp32_us": "us",
    "core.encode_fp32_batched_us": "us",
    "core.encode_int8_us": "us",
    "tensor.gemm_gflops": "GFLOP/s",
    "tensor.parallel_speedup_2t": "x",
    "tensor.parallel_speedup_4t": "x",
    "index.search_us": "us",
    "index.recall_at_5": "fraction",
    "tasks.score_us": "us",
    "obs.record_us": "us",
    "synth.build_data_ms": "ms",
    "core.build_models_ms": "ms",
    "core.calibrate_ms": "ms",
    "index.build_ms": "ms",
    "serve.load_catalog_ms": "ms",
    "train.pretrain_step_ms": "ms",
    "train.retrain_step_ms": "ms",
    "train.optimizer_us": "us",
    "tensor.parallel_regions": "regions/step",
    "loadgen.lateness_us": "us",
    "trace.overhead_ms": "ms",
}

# Per-layer metrics read from a workload's own traffic. The train workload
# serves nothing and reports 0.
TRAFFIC_LAYERS = (
    "serve.queue_wait_us", "serve.batch_size_mean", "serve.batch_fill",
    "serve.cache_hit_rate", "serve.replica_cpu_us_per_req",
    "loadgen.lateness_us", "trace.overhead_ms")


class BenchError(Exception):
    """A run that cannot produce a result."""

    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- Build -------------------------------------------------------------------

def build():
    """Configures (once) and builds the probe and telekit_serve."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no TeleKit sources next to perfbench/", code=2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_probe",
                  "telekit_serve_bin", "-j", "4"])
    with open(log_path, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, timeout=850).returncode != 0:
                with open(log_path) as failed:
                    log(failed.read()[-4000:])
                raise BenchError("build failed: " + " ".join(step), code=2)


def child_env():
    env = dict(os.environ)
    env.pop("TELEKIT_CACHE", None)
    return env


def probe(*args, timeout=170):
    """Runs one probe subcommand and returns its JSON result."""
    argv = [PROBE] + list(args)
    done = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=timeout)
    if done.returncode != 0:
        log(done.stderr[-4000:])
        raise BenchError("probe failed: " + " ".join(args[:1]))
    return json.loads(done.stdout.strip().splitlines()[-1])


# --- Daemons -----------------------------------------------------------------

LIVE = []  # every daemon started and not yet reaped


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def http_get(port, path):
    url = "http://127.0.0.1:%d%s" % (port, path)
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.read().decode()


class Daemon:
    """A child process whose stderr lines are timestamped as they arrive,
    so readiness is timed from the process's own ready line."""

    def __init__(self, argv):
        self.proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, env=child_env(),
                                     cwd=ROOT)
        LIVE.append(self)
        self.admin_port = 0
        self.lines = []
        self.eof = False
        self.cond = threading.Condition()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    @property
    def pid(self):
        return self.proc.pid

    def _read(self):
        for raw in self.proc.stderr:
            arrived = time.monotonic()
            with self.cond:
                self.lines.append((arrived, raw.decode(errors="replace")))
                self.cond.notify_all()
        with self.cond:
            self.eof = True
            self.cond.notify_all()

    def wait_for(self, needle, timeout=60.0):
        """(arrival time, line) of the first stderr line containing needle."""
        deadline = time.monotonic() + timeout
        with self.cond:
            while True:
                for arrived, line in self.lines:
                    if needle in line:
                        return arrived, line
                left = deadline - time.monotonic()
                if self.eof or left <= 0:
                    tail = "".join(line for _, line in self.lines[-5:])
                    raise BenchError("no '%s' from %s:\n%s" %
                                     (needle, self.proc.args[0], tail))
                self.cond.wait(left)

    def ready(self, needle):
        arrived, _ = self.wait_for(needle)
        _, admin = self.wait_for("admin endpoints on 127.0.0.1:")
        self.admin_port = int(admin.rsplit(":", 1)[1])
        return arrived

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for pid %d" % self.pid)

    def cpu_ms(self):
        with open("/proc/%d/stat" % self.pid) as f:
            return stats.proc_stat_cpu_ms(f.read(), os.sysconf("SC_CLK_TCK"))

    def stop(self):
        """/quitquitquit, then SIGKILL after 5 s; always reaps the child."""
        if self.proc.poll() is None and self.admin_port:
            try:
                http_get(self.admin_port, "/quitquitquit")
            except OSError:
                pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self.reader.join(timeout=5)
        self.proc.stderr.close()
        if self in LIVE:
            LIVE.remove(self)
        if os.path.exists("/proc/%d" % self.pid):
            raise BenchError("pid %d outlived its teardown" % self.pid)


def stop_all():
    for daemon in list(LIVE):
        try:
            daemon.stop()
        except (BenchError, OSError, subprocess.SubprocessError) as error:
            log("teardown: %s" % error)
            daemon.proc.kill()
            daemon.proc.wait()
            if daemon in LIVE:
                LIVE.remove(daemon)


def prometheus(text):
    """name -> value for the unlabelled samples of an exposition."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, value = line.split()[:2]
            out[name] = float(value)
    return out


class Replica:
    """One telekit_serve with one intra-op thread; every other flag keeps
    its default (4 workers, max batch 8, 2 ms coalescing wait). Set-up runs
    from launch to the replica's own listening line."""

    def __init__(self):
        self.port = free_port()
        started = time.monotonic()
        self.daemon = Daemon([SERVE, "--port=%d" % self.port,
                              "--admin-port=0", "--compute-threads=1"])
        ready = self.daemon.ready("telekit_serve listening on")
        self.setup_s = ready - started

    def stop(self):
        self.daemon.stop()

    def peak_rss_mb(self):
        return self.daemon.peak_rss_mb()

    def counters(self):
        admin = self.daemon.admin_port
        engine = json.loads(http_get(admin, "/statusz"))["engine"]
        metrics = prometheus(http_get(admin, "/metrics"))
        return {"workers": engine["workers"]["total"],
                "requests": engine["requests"],
                "hits": engine["cache"]["hits"],
                "misses": engine["cache"]["misses"],
                "batch_sum": metrics.get("telekit_serve_batch_size_sum", 0),
                "batch_count": metrics.get("telekit_serve_batch_size_count",
                                           0)}


def start_replica(attempts=3):
    """Starts a replica, retrying when its chosen port was taken meanwhile."""
    for attempt in range(attempts):
        try:
            return Replica()
        except BenchError:
            stop_all()
            if attempt + 1 == attempts:
                raise
    raise AssertionError("unreachable")


# --- Serving workloads ---------------------------------------------------------

def read_rows(path):
    rows = []
    with open(path) as f:
        for line in f:
            due, send, recv, status, tag, reply = line.rstrip("\n").split(
                "\t", 5)
            rows.append({"due": float(due), "send": float(send),
                         "recv": float(recv), "status": status, "tag": tag,
                         "reply": reply})
    return rows


def send(port, plan, out, keep):
    return probe("loadgen", "--port=%d" % port, "--plan=" + plan,
                 "--out=" + out, "--keep=" + keep)


def measure(replica, run_dir, name, keep):
    """One measured open-loop window (the plan `name`) against the replica,
    with CPU and counter readings taken right around it."""
    pid = replica.daemon.pid
    before = replica.counters()
    cpu_before = {pid: replica.daemon.cpu_ms()}
    out = os.path.join(run_dir, name + ".tsv")
    sent = send(replica.port, os.path.join(run_dir, name + ".plan"), out, keep)
    cpu_after = {pid: replica.daemon.cpu_ms()}
    after = replica.counters()
    rows = read_rows(out)
    ok = [r for r in rows if r["status"] == "o"]
    lat = stats.latency_summary([(r["recv"] - r["due"]) / 1e3 for r in ok],
                                len(rows) - len(ok))
    lateness = [r["send"] - r["due"] for r in rows if r["send"] >= 0]
    window = {
        "name": name,
        "conns": sent["conns"],
        "rows": rows,
        "sent": len(rows),
        "ok": len(ok),
        "latency": lat,
        "cpu_ms_per_req": stats.cpu_ms_per_request(cpu_before, cpu_after,
                                                   max(1, len(ok))),
        "cpu_ms": cpu_after[pid] - cpu_before[pid],
        "lateness_p99_us": stats.percentile(lateness, 99),
        "schedule_s": (max(r["recv"] for r in ok) - rows[0]["due"]) / 1e6,
        "failures": failure_messages(rows),
    }
    window.update({k: after[k] - before[k] for k in after if k != "workers"})
    window["workers"] = after["workers"]
    return window


def run_replicas(run_dir, kinds, wanted, limit_us):
    """Starts fresh replicas, warms each, and measures the windows `kinds`
    on it, until `wanted` replicas kept the schedule: on each window the
    generator sent its p99 request at most `limit_us` late. A replica with a
    late window is logged and not used, and at most SPARE_REPLICAS more are
    started. Returns the valid replicas' windows (kind -> window, plus
    "rss"), every set-up time, the invalid windows, and the requests sent
    and failed over every window."""
    valid, setups, invalid = [], [], []
    sent = failed = 0
    while len(valid) < wanted:
        if len(setups) == wanted + SPARE_REPLICAS:
            raise BenchError("run invalid: the generator kept the schedule "
                             "on %d of %d replicas" % (len(valid),
                                                       len(setups)), 3)
        replica = start_replica()
        setups.append(replica.setup_s)
        try:
            warm(replica, run_dir)
            windows = {kind: measure(replica, run_dir, kind, KEEP[kind])
                       for kind in kinds}
            sent += sum(w["sent"] for w in windows.values())
            failed += sum(w["sent"] - w["ok"] for w in windows.values())
            late = [{"window": w["name"], "replica": len(setups),
                     "lateness_p99_us": w["lateness_p99_us"]}
                    for w in windows.values()
                    if w["lateness_p99_us"] > limit_us]
            if late:
                for entry in late:
                    log("replica %d, window %s invalid: p99 send lateness "
                        "%.0f us > %.0f us" % (entry["replica"],
                                               entry["window"],
                                               entry["lateness_p99_us"],
                                               limit_us))
                invalid.extend(late)
                continue
            windows["rss"] = replica.peak_rss_mb()
            valid.append(windows)
        finally:
            replica.stop()
    return valid, setups, invalid, sent, failed


def failure_messages(rows):
    counts = {}
    for row in rows:
        if row["status"] == "o":
            continue
        message = {"l": "no reply", "b": "malformed reply"}.get(row["status"])
        if message is None:
            try:
                error = json.loads(row["reply"])["error"]
                message = "%s: %s" % (error.get("code"), error.get("message"))
            except (ValueError, KeyError, TypeError):
                message = "unparseable error reply"
        counts[message] = counts.get(message, 0) + 1
    return counts


def check_answers(rows, reference_path):
    """Sampled replies against the in-process reference: (matched,
    compared, malformed)."""
    reference = {}
    with open(reference_path) as f:
        for line in f:
            rid, reply = line.rstrip("\n").split("\t", 1)
            reference[int(rid)] = json.loads(reply)
    matched = compared = 0
    for row in rows:
        if row["tag"] != "s" or row["status"] != "o":
            continue
        served = json.loads(row["reply"])
        compared += 1
        if stats.answers_match(served, reference[int(served["id"])]):
            matched += 1
    malformed = sum(1 for r in rows if r["status"] == "b")
    return matched, compared, malformed


def warm(replica, run_dir):
    """Untimed warm-up: every planned warm line, at the measured rate. On
    hot_replica that is every (surface, precision, op), so each measured
    request is a cache hit; on cold_replica it is new texts, which leave the
    measured ones missing the cache."""
    send(replica.port, os.path.join(run_dir, "warm.plan"),
         os.path.join(run_dir, "warm.tsv"), keep="")


def run_serving(args, run_dir, facts):
    # An untraced run splits --seconds over REPLAYS replays of one window;
    # a traced run measures an untraced and a traced window on one replica.
    kinds = ("untraced", "traced") if args.trace else ("untraced",)
    window_s = args.seconds / (2 if args.trace else REPLAYS)
    plan = probe("plan", "--workload=" + args.workload,
                 "--seed=%d" % args.seed, "--seconds=%g" % window_s,
                 "--trace=%d" % args.trace, "--out=" + run_dir)
    limit_us = LATE_GAPS * 1e6 / plan["rate_rps"]
    facts.update({"simd": plan["simd"], "rate_rps": plan["rate_rps"],
                  "window_s": window_s})
    try:
        valid, setups, invalid, sent, failed = run_replicas(
            run_dir, kinds, 1 if args.trace else REPLAYS, limit_us)
    finally:
        stop_all()
    untraced = [v["untraced"] for v in valid]
    facts["conns"] = untraced[0]["conns"]
    facts["workers"] = untraced[0]["workers"]
    matched = compared = malformed = 0
    for window in untraced:
        m, c, b = check_answers(window["rows"],
                                os.path.join(run_dir, "reference.tsv"))
        matched, compared, malformed = matched + m, compared + c, malformed + b
    slots = stats.best_of([[(r["recv"] - r["due"]) / 1e3
                            if r["status"] == "o" else stats.INF
                            for r in w["rows"]] for w in untraced])
    best = stats.latency_summary([v for v in slots if v != stats.INF],
                                 slots.count(stats.INF))
    failures = {}
    for window in untraced:
        for message, count in window["failures"].items():
            failures[message] = failures.get(message, 0) + count
    notes = {"setup_trials_s": setups, "samples": best["samples"],
             "p99_ms": best["p99"], "beyond_p99": best["beyond_p99"],
             "replay_p50_ms": [w["latency"]["p50"] for w in untraced],
             "replay_cpu_ms_per_req": [w["cpu_ms_per_req"] for w in untraced],
             "lateness_p99_us": [w["lateness_p99_us"] for w in untraced],
             "lateness_limit_us": limit_us, "invalid_windows": invalid,
             "failures": failures, "answers_compared": compared}
    result = {
        "correct": compared > 0 and matched == compared and malformed == 0,
        "attempted": sent,
        "failed": failed,
    }
    if not args.trace:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "p50_ms": best["p50"],
            "cpu_ms_per_req": statistics.median(w["cpu_ms_per_req"]
                                                for w in untraced),
            "success_rate": sum(w["ok"] for w in untraced) /
            sum(w["sent"] for w in untraced),
            "answer_agreement": matched / max(1, compared),
            "peak_rss_mb": statistics.median(v["rss"] for v in valid),
            "train_s": statistics.median(w["schedule_s"] for w in untraced),
        }
        return result, notes, None
    w0, w1 = untraced[0], valid[0]["traced"]
    batch_mean = w0["batch_sum"] / max(1.0, w0["batch_count"])
    layers = probe("layers", "--plan=" + os.path.join(run_dir,
                                                      "untraced.plan"),
                   "--mean-batch=%g" % batch_mean,
                   "--spans=" + os.path.join(run_dir, "layer_spans.json"))
    traced = traced_ledger(w1["rows"])
    metrics = dict(layers["metrics"])
    metrics.update({
        "p99_ms": w0["latency"]["p99"],
        "serve.queue_wait_us": traced["queue_us"],
        "serve.batch_size_mean": batch_mean,
        "serve.batch_fill": batch_mean / MAX_BATCH,
        "serve.cache_hit_rate": w0["hits"] / max(1, w0["hits"] + w0["misses"]),
        "serve.replica_cpu_us_per_req":
            w0["cpu_ms"] * 1e3 / max(1, w0["requests"]),
        "loadgen.lateness_us": w0["lateness_p99_us"],
        "trace.overhead_ms": w1["latency"]["p50"] - w0["latency"]["p50"],
    })
    result["metrics"] = metrics
    notes["layer_requests"] = layers["requests"]
    write_spans(run_dir, traced["spans"])
    return result, notes, traced["ledger"]


def request_spans(row, reply, prefix):
    """The spans of one traced request, in us from the window start. Client
    stamps bound the request; the replica's echoed stage durations are laid
    out inside the round trip, centred (the wire is taken as symmetric)."""
    timing = reply["timing"]
    due, send_t, recv = row["due"], row["send"], row["recv"]
    total = timing["total_us"]
    start = send_t + max(0.0, (recv - send_t) - total) / 2
    queue, batch = timing["queue_us"], timing["batch_us"]
    encode, score = timing["encode_us"], timing["score_us"]
    search = timing.get("search_us", 0.0)
    b0 = start + queue
    b1 = b0 + batch
    spans = {
        prefix + "r": ("request", due, recv, None),
        prefix + "l": ("loadgen/send_wait", due, send_t, prefix + "r"),
        prefix + "c": ("client/rpc", send_t, recv, prefix + "r"),
        prefix + "s": ("serve/request", start, start + total, prefix + "c"),
        prefix + "q": ("serve/queue", start, b0, prefix + "s"),
        prefix + "b": ("serve/batch", b0, b1, prefix + "s"),
        prefix + "e": ("serve/encode", b0, b0 + encode, prefix + "b"),
        prefix + "k": ("serve/score", b1 - score, b1, prefix + "b"),
    }
    if search:
        spans[prefix + "i"] = ("index/search", b1 - score, b1 - score + search,
                               prefix + "k")
    return spans


def traced_ledger(rows):
    """Per op: the median self time of each span name, and the residual
    between their sum and the traced end-to-end median."""
    by_op = {}
    queue_us = []
    spans_out = []
    for i, row in enumerate(rows):
        if row["status"] != "o":
            continue
        reply = json.loads(row["reply"])
        spans = request_spans(row, reply, "%d." % i)
        selfs = stats.self_times(spans)
        op = reply["op"]
        entry = by_op.setdefault(op, {"e2e": [], "self": {}})
        entry["e2e"].append(row["recv"] - row["due"])
        for sid, value in selfs.items():
            entry["self"].setdefault(spans[sid][0], []).append(value)
        queue_us.append(reply["timing"]["queue_us"])
        trace_id = reply.get("trace")
        spans_out.extend({"trace": trace_id, "id": sid, "name": s[0],
                          "start_us": s[1], "end_us": s[2], "parent": s[3]}
                         for sid, s in spans.items())
    ledger = {}
    for op, entry in sorted(by_op.items()):
        layers = {name: statistics.median(values)
                  for name, values in entry["self"].items()}
        e2e = statistics.median(entry["e2e"])
        ledger[op] = {"e2e_us": e2e, "layers_us": layers,
                      "residual_us": e2e - sum(layers.values()),
                      "requests": len(entry["e2e"])}
    return {"ledger": ledger, "spans": spans_out,
            "queue_us": statistics.median(queue_us) if queue_us else 0.0}


def write_spans(run_dir, spans):
    layer_spans = os.path.join(run_dir, "layer_spans.json")
    probe_spans = []
    if os.path.exists(layer_spans):
        with open(layer_spans) as f:
            probe_spans = json.load(f)
    with open(os.path.join(run_dir, "spans.json"), "w") as f:
        json.dump({"requests": spans, "probe": probe_spans}, f)


# --- Train workload ------------------------------------------------------------

def run_train(args, run_dir, facts):
    result = probe("train", "--seed=%d" % args.seed, "--trace=%d" % args.trace)
    with open(os.path.join(HERE, "train_reference.json")) as f:
        reference = json.load(f)
    if result["steps_per_model"] != reference["steps_per_model"]:
        raise BenchError("train_reference.json holds losses after %d steps "
                         "per model; the schedule ran %d" %
                         (reference["steps_per_model"],
                          result["steps_per_model"]))
    expected = reference["final_loss"].get(str(result["zoo_seed"]), {})
    tol = reference["rel_tolerance"]
    losses = result["final_loss"]
    matched = sum(1 for name, loss in losses.items()
                  if name in expected and
                  abs(loss - expected[name]) <= tol * abs(expected[name]))
    facts.update({"simd": result["simd"], "zoo_seed": result["zoo_seed"],
                  "steps_per_model": result["steps_per_model"],
                  "schedule_passes": len(result["train_s"])})
    # Per pass, a step missing from the trainers' step counts or with a
    # non-finite re-train loss is a failed request (+inf).
    steps = result["steps_per_model"]
    planned = 6 * steps
    failed = [planned - done + nonfinite for done, nonfinite in
              zip(result["steps"], result["nonfinite_steps"])]
    # Every pass does the same work in segment k, so each segment keeps its
    # best pass (NOTES.md, "Steadiness"). A model's first segment also
    # builds the model, so each model contributes its other steps.
    wall = stats.best_of(result["segment_ms"])
    cpu = stats.best_of(result["segment_cpu_ms"])
    models = [wall[m * steps + 1:(m + 1) * steps] for m in range(6)]
    model_p50 = [statistics.median(model) for model in models]
    pooled = stats.latency_summary([ms for model in models for ms in model],
                                   sum(failed))
    notes = {"setup_trials_s": result["setup_s"],
             "train_s_passes": result["train_s"],
             "cpu_s_passes": result["cpu_s"], "steps_per_pass": planned,
             "shared_marks": result["shared_marks"],
             "model_p50_ms": model_p50, "step_samples": pooled["samples"],
             "p99_ms": pooled["p99"],
             "beyond_p99": pooled["beyond_p99"], "final_loss": losses}
    out = {"correct": matched == len(losses) == 4 and result["losses_agree"]
           and sum(failed) == 0,
           "attempted": planned * len(failed),
           "failed": sum(failed)}
    if not args.trace:
        # The six models' steps form separate groups, and the pooled median
        # falls in the gap between two of them, where it is one group's
        # slowest step. p50_ms is the mean of the models' median steps.
        out["metrics"] = {
            "setup_s": statistics.median(result["setup_s"]),
            "p50_ms": statistics.mean(model_p50),
            "cpu_ms_per_req": sum(cpu) / planned,
            "success_rate": 1.0 - sum(failed) / (planned * len(failed)),
            "answer_agreement": matched / 4,
            "peak_rss_mb": result["peak_rss_mb"],
            "train_s": sum(wall) / 1e3,
        }
        return out, notes, None
    layers = probe("layers",
                   "--spans=" + os.path.join(run_dir, "layer_spans.json"))
    metrics = dict(layers["metrics"])
    metrics.update({name: 0.0 for name in TRAFFIC_LAYERS})
    metrics["p99_ms"] = pooled["p99"]
    metrics["train.pretrain_step_ms"] = result["pretrain_step_ms"]
    metrics["train.retrain_step_ms"] = result["retrain_step_ms"]
    metrics["train.optimizer_us"] = result["optimizer_us"]
    out["metrics"] = metrics
    # The last pass's schedule, split into the self times of the zoo's own
    # spans (train/<model>, tokenize/corpus, train/pretrain, ...).
    train_us = result["train_s"][-1] * 1e6
    layers_us = result["span_self_us"]
    ledger = {"schedule": {"e2e_us": train_us, "layers_us": layers_us,
                           "residual_us": train_us - sum(layers_us.values()),
                           "requests": planned}}
    write_spans(run_dir, nest_events(result["trace_events"]))
    return out, notes, ledger


def nest_events(events):
    """Chrome trace events (ts, dur, args.depth) as spans with a parent:
    the innermost enclosing event one level up."""
    spans = [{"id": i, "name": e["name"], "start_us": e["ts"],
              "end_us": e["ts"] + e["dur"], "depth": e["args"]["depth"],
              "parent": None} for i, e in enumerate(events)]
    for span in spans:
        enclosing = [o for o in spans if o["depth"] == span["depth"] - 1 and
                     o["start_us"] <= span["start_us"] and
                     span["end_us"] <= o["end_us"]]
        if enclosing:
            span["parent"] = min(enclosing,
                                 key=lambda o: o["end_us"] - o["start_us"])["id"]
    return spans


# --- Output ---------------------------------------------------------------------

def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if commit.returncode == 0:
            return commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(path) for n in names)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def print_ledger(ledger, overhead_ms):
    print("# layer ledger: median self time per layer (us); layers + "
          "residual = traced end-to-end median")
    for op, entry in ledger.items():
        parts = ", ".join("%s %.1f" % (name, value)
                          for name, value in sorted(entry["layers_us"].items()))
        print("# %-13s e2e %.1f = %s, residual %.1f  (n=%d)" %
              (op, entry["e2e_us"], parts, entry["residual_us"],
               entry["requests"]))
    print("# tracing overhead (traced - untraced p50): %.4f ms" % overhead_ms)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in (0, 60]")
    try:
        build()
        run_dir = os.path.join(RUNS, "%s-trace%d" % (args.workload, args.trace))
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        facts = {"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace,
                 "nproc": os.cpu_count(), "intra_op_threads": 1,
                 "source": source_id()}
        runner = run_train if args.workload == "train" else run_serving
        result, notes, ledger = runner(args, run_dir, facts)
    except BenchError as error:
        log("perfbench: %s" % error)
        return error.code
    finally:
        stop_all()
    units = PER_LAYER if args.trace else END_TO_END
    missing = set(units) - set(result["metrics"])
    if missing:
        log("perfbench: metrics not measured: %s" % sorted(missing))
        return 1
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items()}
    print("# host: " + json.dumps(facts, sort_keys=True))
    print("# notes: " + json.dumps(notes, sort_keys=True))
    if ledger is not None:
        print_ledger(ledger, result["metrics"]["trace.overhead_ms"]["value"])
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump({"host": facts, "notes": notes, "ledger": ledger,
                   "result": result}, f, indent=1)
    for name in ("untraced.tsv", "traced.tsv", "warm.tsv"):
        # Raw reply rows are large; the result keeps what they showed.
        path = os.path.join(run_dir, name)
        if os.path.exists(path):
            os.remove(path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

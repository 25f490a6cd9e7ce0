#!/usr/bin/env python3
"""End-to-end resume-parse benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload batch_table --seed 1 --seconds 20 --trace 0

Builds the program from source into .bench_build/ on first use, trains the
table-scale model (or builds the paper-width model) once, outside the timed
runs, runs one workload, checks its outputs, and prints as its last line
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}:
every end-to-end metric with --trace 0, every per-layer metric with
--trace 1. Earlier lines carry the host fingerprint and per-phase detail.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "perfbench")
BENCH_BIN = os.path.join(CMAKE_DIR, "rf_perfbench")
CLI_BIN = os.path.join(CMAKE_DIR, "resuformer", "examples", "resuformer_cli")
MODELS = os.path.join(BUILD, "models")
NPROC = os.cpu_count() or 1

sys.path.insert(0, HERE)
import loadgen  # noqa: E402  (the benchmark's own module)

# Each workload's inputs. Table documents are "typical" resumegen resumes
# (about 42 sentences, 235 tokens).
TABLE_DOCS = 128
PAPER_DOCS = 48
SERVE_DOCS = 128
# Set-up is timed in fresh processes this many times at each pause of the
# measurement (after each batch round; before each serve slice), so the
# samples spread over the run, and reported as their median. Each sample
# parses the next document of the workload's corpus: set-up ends with the
# first parse, whose cost follows the document's length.
SETUPS_PER_PAUSE = {"table": 3, "paper": 1, "serve": 4}

# Serve rates, docs/s: light ~1/4 and heavy ~1/2 of the daemon's capacity
# (about 37 docs/s over nproc=4 connections on a 4-vCPU host). Fixed, so a
# faster daemon shows as lower latency.
SERVE_LIGHT_RATE = 10.0
SERVE_HEAVY_RATE = 18.0
SERVE_SLICES = 3            # light/heavy alternations per run
# Shares of the run: light gets as much as heavy although it arrives at
# about half the rate, so its pooled p90 rests on 180 samples.
SERVE_LIGHT_SHARE = 0.4
SERVE_HEAVY_SHARE = 0.4
ADMIN_POLLS_PER_S = 4.0
MAX_SEND_LAG_MS = 10.0      # generator lateness beyond this voids a run

# Output gates: a run that fails one reports failure, not numbers.
TABLE_BLOCK_ACC_FLOOR = 0.55
TABLE_ENTITY_F1_FLOOR = 0.40
# plan_test's InferencePlanInt8Test gate: >= 0.9 label agreement.
INT8_LABEL_AGREEMENT_FLOOR = 0.90
INT8_ENTITY_AGREEMENT_FLOOR = 0.85
MIN_LAYER_COVERAGE = 0.95


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def child_env():
    """Default runtime knobs: no RESUFORMER_* overrides leak in."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("RESUFORMER_")}


def run_logged(cmd, what, timeout):
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "a") as out:
        out.write(f"$ {' '.join(cmd)}\n")
        out.flush()
        r = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                           env=child_env(), timeout=timeout, check=False)
    if r.returncode != 0:
        raise RuntimeError(f"{what} failed (see .bench_build/build.log)")


def ensure_built(model):
    """Builds the program and `model` ("table" or "paper") once per
    checkout."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no program sources next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            run_logged(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       "cmake configure", 600)
        run_logged(["cmake", "--build", CMAKE_DIR, "-j", str(NPROC),
                    "--target", "perfbench_all"], "build", 900)
        final = os.path.join(MODELS, model)
        if not os.path.isdir(final):
            cmd = ([CLI_BIN, "train", "--out"] if model == "table"
                   else [BENCH_BIN, "prepare-paper", "--out"])
            tmp = final + ".tmp"
            shutil.rmtree(tmp, ignore_errors=True)
            os.makedirs(tmp)
            run_logged(cmd + [tmp], f"{model} model", 600)
            os.rename(tmp, final)


# ---------------------------------------------------------------------------
# Host fingerprint.

def cpu_ticks():
    """(steal, total) ticks of all CPUs from /proc/stat."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


def fingerprint():
    flags = set()
    model = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("flags") and not flags:
                flags = set(line.split(":", 1)[1].split())
            if line.startswith("model name") and not model:
                model = line.split(":", 1)[1].strip()
    isa = [f for f in ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw",
                       "avx512_vnni", "avx_vnni", "amx_int8") if f in flags]
    compiler, cflags = "?", ""
    try:
        with open(os.path.join(CMAKE_DIR, "compile_commands.json")) as f:
            for entry in json.load(f):
                if entry["file"].endswith("tensor/kernels.cc"):
                    argv = entry["command"].split()
                    keep = [a for a in argv[1:] if a.startswith("-") and
                            not a.startswith(("-I", "-o", "-c", "-M"))]
                    cflags = " ".join(keep)
                    ver = subprocess.run([argv[0], "--version"],
                                         capture_output=True, text=True,
                                         check=False)
                    compiler = ver.stdout.splitlines()[0] if ver.stdout else argv[0]
                    break
    except (OSError, ValueError):
        pass
    cal = json.loads(subprocess.run([BENCH_BIN, "calibrate"],
                                    capture_output=True, text=True,
                                    check=True).stdout)
    return {"nproc": NPROC, "cpu": model, "isa": isa, "compiler": compiler,
            "flags": cflags,
            "effective_parallelism": round(cal["effective_parallelism"], 2)}


# ---------------------------------------------------------------------------
# Processes.

def spawn(cmd, stdin=None):
    with open(os.path.join(BUILD, "run.log"), "a") as err:
        return subprocess.Popen(cmd, stdin=stdin, stdout=subprocess.PIPE,
                                stderr=err, text=True, env=child_env())


def wait_line(proc, prefix):
    """Reads stdout until a line starting with `prefix`; returns it."""
    for line in proc.stdout:
        if line.startswith(prefix):
            return line
    proc.wait()
    raise RuntimeError(f"process exited before printing {prefix!r}")


def stop(proc, timeout=30):
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def setup_sample(cmd):
    """Seconds from process start to its first successful parse."""
    t0 = time.monotonic()
    p = spawn(cmd)
    wait_line(p, "ready")
    t = time.monotonic() - t0
    p.stdout.read()
    stop(p)
    if p.returncode != 0:
        raise RuntimeError("setup process failed")
    return t


# ---------------------------------------------------------------------------
# Batch workloads.

def run_batch(kind, seed, seconds, trace):
    model = os.path.join(MODELS, kind)
    docs = TABLE_DOCS if kind == "table" else PAPER_DOCS
    args = ["--kind", kind, "--model", model, "--seed", str(seed)]
    cmd = [BENCH_BIN, "batch"] + args + [
        "--docs", str(docs), "--seconds", str(seconds), "--trace", str(trace)]
    cmd += (["--spans", os.path.join(BUILD, "spans.jsonl")] if trace
            else ["--pause", "1"])
    t0 = time.monotonic()
    p = spawn(cmd, stdin=subprocess.PIPE)
    try:
        wait_line(p, "ready")
        setups = [time.monotonic() - t0]
        out = []
        for line in p.stdout:
            if line.startswith("pause"):
                for _ in range(SETUPS_PER_PAUSE[kind]):
                    doc = len(setups) % docs
                    setups.append(setup_sample(
                        [BENCH_BIN, "setup", "--doc", str(doc)] + args))
                p.stdin.write("\n")
                p.stdin.flush()
            elif line.strip():
                out.append(line)
    except BaseException:
        p.kill()
        p.wait()
        raise
    p.stdin.close()
    stop(p)
    if p.returncode != 0 or not out:
        raise RuntimeError(f"rf_perfbench batch exited {p.returncode}")
    r = json.loads(out[-1])
    if kind == "table":
        r.update(table_quality(seed, via_text=False))
    r["setup_s"] = statistics.median(setups)
    r["setup_samples"] = len(setups)
    print(json.dumps({"detail": {k: v for k, v in r.items() if "." not in k}}))
    return r


def table_quality(seed, via_text):
    """block_acc and entity_f1 of the table model on the seed's quality set,
    from a process of its own (see `rf_perfbench quality`)."""
    out = subprocess.run(
        [BENCH_BIN, "quality", "--model", os.path.join(MODELS, "table"),
         "--seed", str(seed), "--text", str(int(via_text))],
        capture_output=True, text=True, env=child_env(), check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quality_gates(q):
    problems = []
    if q["block_acc"] < TABLE_BLOCK_ACC_FLOOR:
        problems.append(f"block_acc {q['block_acc']:.3f} below floor")
    if q["entity_f1"] < TABLE_ENTITY_F1_FLOOR:
        problems.append(f"entity_f1 {q['entity_f1']:.3f} below floor")
    return problems


def batch_gates(kind, r, trace):
    """Gates on one rf_perfbench batch result; table quality is gated by
    quality_gates."""
    problems = []
    if r["mismatched"]:
        problems.append(f"{r['mismatched']} outputs differ from the first pass")
    if kind == "table":
        if r["entities_per_doc"] <= 0:
            problems.append("model extracts no entities")
    else:
        if r["block_acc"] < INT8_LABEL_AGREEMENT_FLOOR:
            problems.append(f"int8 label agreement {r['block_acc']:.3f} "
                            "below the tier-1 gate")
        if r["entity_f1"] < INT8_ENTITY_AGREEMENT_FLOOR:
            problems.append(f"int8 entity agreement {r['entity_f1']:.3f} "
                            "below floor")
    if trace:
        if r["trace.composed_mismatches"]:
            problems.append("composed layer calls differ from Parse()")
        if r["trace.layer_coverage"] < MIN_LAYER_COVERAGE:
            problems.append(f"layer spans cover only "
                            f"{r['trace.layer_coverage']:.3f} of parse time")
    return problems


# ---------------------------------------------------------------------------
# The serve workload.

def proc_sample(pid):
    """Threads, VmSize (MB), VmHWM (MB) and mappings of a live process."""
    status = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            k, _, v = line.partition(":")
            status[k] = v.strip()
    with open(f"/proc/{pid}/maps") as f:
        maps = sum(1 for _ in f)
    return {"threads": len(os.listdir(f"/proc/{pid}/task")),
            "vm_mb": int(status["VmSize"].split()[0]) / 1024.0,
            "hwm_mb": int(status["VmHWM"].split()[0]) / 1024.0,
            "maps": maps}


class Daemon:
    """A `resuformer_cli serve` process on the table model."""

    def __init__(self, text0, expected0):
        t0 = time.monotonic()
        self.proc = spawn([CLI_BIN, "serve", "--model",
                           os.path.join(MODELS, "table"), "--port", "0"])
        try:
            line = wait_line(self.proc, "serving on")
            self.port = int(line.split(":")[1].split()[0])
            kind, payload = loadgen.request(self.port, loadgen.KIND_PARSE_V2,
                                            text0)
        except Exception:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = time.monotonic() - t0
        if kind != loadgen.KIND_OK_V2 or payload[8:] != expected0:
            self.shutdown()
            raise RuntimeError("daemon's first reply is wrong")

    def stats(self):
        kind, payload = loadgen.request(self.port, loadgen.KIND_STATS)
        if kind != 1:
            raise RuntimeError("kStats failed")
        return json.loads(payload)

    def shutdown(self):
        try:
            loadgen.request(self.port, loadgen.KIND_SHUTDOWN, timeout=10)
        except OSError:
            self.proc.kill()
        stop(self.proc)


def phase_summary(name, ph):
    lat = ph.latency_ms
    return {
        "phase": name, "rate": ph.rate, "seconds": ph.seconds,
        "sent": ph.sent, "succeeded": ph.succeeded, "failed": ph.failed,
        "mismatched": ph.mismatched,
        "p50_ms": loadgen.percentile(lat, 0.5),
        "p90_ms": loadgen.percentile(lat, 0.9),
        "p99_ms": loadgen.percentile(lat, 0.99),
        "samples": len(lat),
        "send_lag_p99_ms": loadgen.percentile(ph.send_lag_ms, 0.99),
        "conn_wait_p99_ms": loadgen.percentile(ph.conn_wait_ms, 0.99),
        "backlog_growth": ph.backlog_growth(), "backlog_end": ph.backlog_end,
        "inflight_max": ph.inflight_max,
        "admin_p50_ms": loadgen.percentile(ph.admin_ms, 0.5),
        "admin_p90_ms": loadgen.percentile(ph.admin_ms, 0.9),
        "admin_failed": ph.admin_failed,
    }


def windowed_percentile(slices, q):
    """q-percentile latency: the median over slices of each slice's
    percentile when every slice holds at least ten samples beyond it, so a
    host slowdown shorter than the run does not set it; otherwise the
    percentile of all samples pooled (rf_perfbench's WindowedQuantile)."""
    if all(len(ph.latency_ms) * (1 - q) >= 10 for ph in slices):
        return statistics.median(
            loadgen.percentile(ph.latency_ms, q) for ph in slices)
    return loadgen.percentile([x for ph in slices for x in ph.latency_ms], q)


def run_serve(seed, seconds, trace):
    work = os.path.join(BUILD, "work", f"serve-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _run_serve(seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_serve(seed, seconds, trace, work):
    subprocess.run(
        [BENCH_BIN, "serve-inputs", "--model", os.path.join(MODELS, "table"),
         "--seed", str(seed), "--docs", str(SERVE_DOCS), "--out", work],
        capture_output=True, text=True, env=child_env(), check=True)
    texts, expected = [], []
    for i in range(SERVE_DOCS):
        with open(os.path.join(work, f"text_{i}.txt"), "rb") as f:
            texts.append(f.read())
        with open(os.path.join(work, f"expected_{i}.json"), "rb") as f:
            expected.append(f.read())

    daemon = Daemon(texts[0], expected[0])
    setups = [daemon.setup_s]

    def sample_setups():
        """Set-up of fresh daemons while the measured one is idle."""
        for _ in range(0 if trace else SETUPS_PER_PAUSE["serve"]):
            doc = len(setups) % SERVE_DOCS
            d = Daemon(texts[doc], expected[doc])
            d.shutdown()
            setups.append(d.setup_s)
    phases = []
    try:
        before = proc_sample(daemon.proc.pid)

        # Each kind of phase keeps its own place in the corpus, so its
        # slices together send every document about equally often rather
        # than the corpus's first few documents once per slice.
        next_doc = {}

        def phase(name, rate, secs, salt):
            first = next_doc.get(name, 0)
            ph = loadgen.run_phase(daemon.port, texts, expected, first, rate,
                                   secs, seed * 101 + salt, NPROC,
                                   ADMIN_POLLS_PER_S)
            next_doc[name] = (first + ph.sent) % SERVE_DOCS
            phases.append((name, ph))
            return ph

        # Light and heavy alternate in slices, so both sample the whole run.
        # A heavy slice (108 arrivals in a 45 s run) holds ten beyond its
        # p90; a light one (60) holds ten beyond its p50 only.
        light, heavy = [], []
        for k in range(SERVE_SLICES):
            sample_setups()
            light.append(phase("light", SERVE_LIGHT_RATE,
                               seconds * SERVE_LIGHT_SHARE / SERVE_SLICES,
                               2 * k + 1))
            sample_setups()
            heavy.append(phase("heavy", SERVE_HEAVY_RATE,
                               seconds * SERVE_HEAVY_SHARE / SERVE_SLICES,
                               2 * k + 2))
        capacity = None
        if not trace:
            closed = phase("capacity", None, seconds * 0.1, 0)
            capacity = closed.succeeded / closed.last_done
        after = proc_sample(daemon.proc.pid)
        stats = daemon.stats()
    finally:
        daemon.shutdown()
    quality = table_quality(seed, via_text=True)

    sent = sum(ph.sent for _, ph in phases)
    ok = sum(ph.succeeded for _, ph in phases)
    failed = sum(ph.failed for _, ph in phases)
    mismatched = sum(ph.mismatched for _, ph in phases)
    lags = [x for _, ph in phases for x in ph.send_lag_ms]
    admin = [x for _, ph in phases for x in ph.admin_ms]
    for name, ph in phases:
        print(json.dumps(phase_summary(name, ph)))
    print(json.dumps({"daemon_before": before, "daemon_after": after,
                      "setup_samples": len(setups)}))

    problems = []
    if mismatched:
        problems.append(f"{mismatched} daemon replies differ from Parse()")
    if loadgen.percentile(lags, 0.99) > MAX_SEND_LAG_MS:
        problems.append("load generator fell behind its schedule: run invalid")
    problems += quality_gates(quality)

    r = {"attempted": sent + len(setups), "failed": failed,
         "setup_s": statistics.median(setups)}
    if not trace:
        r.update({
            "peak_rss_mb": after["hwm_mb"],
            "success_frac": ok / sent if sent else 0.0,
            "docs_per_s": capacity,
            "block_acc": quality["block_acc"],
            "entity_f1": quality["entity_f1"],
            "light_p50_ms": windowed_percentile(light, 0.5),
            "light_p90_ms": windowed_percentile(light, 0.9),
            "heavy_p50_ms": windowed_percentile(heavy, 0.5),
            "heavy_p90_ms": windowed_percentile(heavy, 0.9),
        })
        return r, problems

    # Traced run: the daemon's own counters and the composed layer calls on
    # the same wire texts, in process.
    layers = run_batch_layers(seed, seconds)
    problems += batch_gates("table", layers, True)
    # The result's request counts are the daemon's, not the in-process run's.
    for k in ("attempted", "failed", "mismatched"):
        del layers[k]
    server = stats["server"]
    counters = stats["metrics"]["counters"]
    docs = max(1, counters.get("pipeline.documents", 0))
    gemm = sum(counters.get(k, 0) for k in (
        "ops.gemm_nn.calls", "ops.gemm_nt.calls", "ops.gemm_tn.calls"))
    attention = counters.get("ops.fused_attention.calls", 0)
    flops = counters.get("ops.gemm.forward_flops", 0)
    rtt = [x for _, ph in phases for x in ph.rtt_ms]
    layers.update({
        "loadgen.send_lag_p99_ms": loadgen.percentile(lags, 0.99),
        "loadgen.inflight_max": max(ph.inflight_max for _, ph in phases),
        "serve.queue_wait_p50_ms": server["window_queue_wait_p50_us"] / 1e3,
        "serve.queue_wait_p99_ms": server["window_queue_wait_p99_us"] / 1e3,
        "serve.batch_size_mean": server["requests"] / max(1, server["batches"]),
        "serve.client_rtt_p50_ms": loadgen.percentile(rtt, 0.5),
        "serve.admin_p90_ms": loadgen.percentile(admin, 0.9),
        "serve.threads_end": after["threads"],
        "serve.vm_mb_end": after["vm_mb"],
        "serve.maps_end": after["maps"],
        "serve.rejected": server["rejected_queue_full"] +
        server["rejected_deadline"] + server["rejected_unavailable"],
        "tensor.gemm_calls_per_doc": gemm / docs,
        "tensor.gemm_gflop_per_doc": flops / docs / 1e9,
        "tensor.mflop_per_gemm_call": flops / max(1, gemm + attention) / 1e6,
        "tensor.int8_quants_per_doc":
            counters.get("quant.dynamic_quants", 0) / docs,
        "tensor.attention_calls_per_doc": attention / docs,
        "tensor.arena_hit_rate": counters.get("arena.hits", 0) / max(
            1, counters.get("arena.hits", 0) + counters.get("arena.misses", 0)),
        "common.pool_dispatches_per_doc":
            counters.get("threadpool.parallel_for.dispatches", 0) / docs,
        "common.pool_contended_inline":
            counters.get("threadpool.parallel_for.contended_inline", 0) / docs,
    })
    r.update(layers)
    return r, problems


def run_batch_layers(seed, seconds):
    """Per-layer attribution of the serve inputs (wire text documents)."""
    cmd = [BENCH_BIN, "batch", "--kind", "table", "--model",
           os.path.join(MODELS, "table"), "--seed", str(seed), "--docs",
           str(SERVE_DOCS), "--seconds", str(seconds * 0.5), "--trace", "1",
           "--text", "1", "--serve-segment", "0"]
    p = spawn(cmd)
    out = p.stdout.read().strip().splitlines()
    stop(p)
    if p.returncode != 0 or not out:
        raise RuntimeError("rf_perfbench batch (layers) failed")
    return json.loads(out[-1])


# ---------------------------------------------------------------------------

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["batch_table", "serve_open", "batch_paper_int8"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    spec = load_spec()
    try:
        ensure_built("paper" if a.workload == "batch_paper_int8" else "table")
        host = fingerprint()
        print(json.dumps({"host": host}), flush=True)
        steal0, total0 = cpu_ticks()
        if a.workload == "serve_open":
            r, problems = run_serve(a.seed, a.seconds, a.trace)
        else:
            kind = "table" if a.workload == "batch_table" else "paper"
            r = run_batch(kind, a.seed, a.seconds, a.trace)
            problems = batch_gates(kind, r, a.trace)
            if kind == "table":
                problems += quality_gates(r)
            if not a.trace:
                r["success_frac"] = 1.0 - r["failed"] / r["attempted"]
        # CPU time the hypervisor gave to other guests while this run
        # measured: a run with much of it is slow for reasons outside the
        # program.
        steal1, total1 = cpu_ticks()
        host["steal_frac"] = round((steal1 - steal0) /
                                   max(1, total1 - total0), 4)
        print(json.dumps({"run": {"steal_frac": host["steal_frac"]}}))
    except (RuntimeError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    names = spec["per_layer" if a.trace else "end_to_end"]
    metrics = {}
    for m in names:
        if m["name"] not in r:
            log(f"error: metric {m['name']} was not measured")
            return 1
        metrics[m["name"]] = {"value": r[m["name"]], "unit": m["unit"]}
    for p in problems:
        log(f"gate failed: {p}")
    if problems:
        metrics = {}  # a run that fails a gate reports failure, not numbers
    result = {"correct": not problems, "attempted": int(r["attempted"]),
              "failed": int(r["failed"]), "metrics": metrics}
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", "results.jsonl"), "a") as f:
        f.write(json.dumps({"workload": a.workload, "seed": a.seed,
                            "trace": a.trace, "host": host,
                            **result}) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

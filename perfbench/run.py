#!/usr/bin/env python3
"""ERMES benchmark: the three north-star user paths, end to end and by layer.

Usage, from the root of an ERMES source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json lists the two whose run-to-run spread fits its
bounds, with why each was chosen):

  analyze-mesh  closed loop of `ermes analyze --certify` child processes on a
                seeded 180x180 Generate.mesh_system (97,384 TMG transitions).
                Not listed: its ten-run spread exceeds the 0.25 bound on a
                shared 2-vCPU host (perfbench/README.md). Its layers are
                measured in every traced run.
  dse-mpeg2     Explore.run on the MPEG-2 system from M2 with conservative
                orders at the paper's Fig. 6 timing target, in-process.
  serve-mix     a child `ermes serve --workers 2` and two client connections in
                a closed loop of analyze requests: cache hits, cold misses and
                warm session edits, drawn by seed.

With --trace 0 the run measures one workload for --seconds seconds with all
tracing off and prints the end-to-end metrics. With --trace 1 it runs the
traced passes of every workload (one untraced pass, then two traced ones,
whose counts must repeat exactly), writes the spans as Chrome trace JSON under
.bench_build/perfbench/, and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

The program is built from source into .bench_build/ on the first run. The
benchmark reads and writes nothing outside the source tree.
"""

import argparse
import hashlib
import json
import os
import random
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

BUILD = ".bench_build"
WORK = os.path.join(BUILD, "perfbench")
ERMES = os.path.join(BUILD, "default", "bin", "ermes.exe")
DRIVER = os.path.join(BUILD, "default", "perfbench", "driver", "driver.exe")
WORKLOADS = ("analyze-mesh", "dse-mpeg2", "serve-mix")

# analyze-mesh runs one fixed design: across generator seeds the policy
# iteration count of this mesh ranges over 208-370 (seeds 1-5), which would
# swamp any bound.
MESH_SEED, MESH_ROWS, MESH_COLS = 1, 180, 180
SETUP_REPS = 15  # set-ups per run; setup_s is their median

# serve-mix traffic, a declared assumption (perfbench/README.md gives the
# reason for each share): requests of each class in every block of 20 (shuffled
# by seed, so the shares are exact), design pools, and the fixed request
# count per client of a traced pass.
BLOCK = {"hit": 12, "miss": 3, "session": 5}
HIT_POOL, MISS_POOL, SESSIONS_PER_CLIENT, WALK = 12, 16, 2, 24
CLIENTS = 2
TRACED_REQUESTS = 150

# The dse-mpeg2 area when this benchmark was defined (MPEG-2, Fig. 6 timing
# target): the exploration must meet the target without needing more area
# than this, so a speed-up that weakens the ILP fails the check.
DSE_AREA_CEILING_MM2 = 9.602285


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build


def build():
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "ermes.ml"))):
        raise BenchError("no ERMES sources here (dune-project, bin/ermes.ml); run from the source root")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD, "--cache=disabled",
           "./bin/ermes.exe", "./perfbench/driver/driver.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except FileNotFoundError:
        raise BenchError("dune is not on PATH")
    if r.returncode != 0:
        raise BenchError(f"build failed (exit {r.returncode})")
    os.makedirs(WORK, exist_ok=True)


def driver(*args, timeout=170):
    """Run the in-process driver; return its "@ k=v ..." lines as dicts."""
    r = subprocess.run([DRIVER, *map(str, args)], stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True, timeout=timeout)
    if r.returncode != 0:
        raise BenchError(f"driver {args[0]} failed (exit {r.returncode})")
    rows = []
    for line in r.stdout.splitlines():
        if line.startswith("@ "):
            rows.append(dict(kv.split("=", 1) for kv in line[2:].split()))
    return rows


class Result:
    """Operation tally and named metrics of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)

    def put(self, name, value):
        self.metrics[name] = float(value)


def tail_metrics(res, samples_ms, elapsed_s, label):
    s = stats.summary(samples_ms)
    res.put("op_p50_ms", s["p50"])
    res.put("op_p99_ms", s["tail"])
    res.put("ops_per_s", len(samples_ms) / elapsed_s)
    log(f"{label}: {s['n']} ops, p50 {s['p50']:.3f} ms, p{s['tail_p']:g} {s['tail']:.3f} ms "
        f"(highest percentile with >= {stats.MIN_BEYOND} samples beyond it)")
    if len(samples_ms) < 20:
        log(f"{label}: op times (ms) " + " ".join(f"{t:.1f}" for t in samples_ms))


# ------------------------------------------------------------ analyze-mesh


def mesh_input():
    """The mesh design and its checked verdict. The verdict is kept beside
    the build, keyed by the design's digest, so only the first run in a
    tree pays for it."""
    path = os.path.join(WORK, f"mesh-{MESH_ROWS}x{MESH_COLS}.soc")
    driver("mesh", MESH_SEED, MESH_ROWS, MESH_COLS, path)
    with open(path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    cache = path + ".verdict"
    try:
        with open(cache) as f:
            key, verdict = f.read().split()
        if key == digest:
            return path, verdict
    except (OSError, ValueError):
        pass
    verdict = driver("verdict", path)[0]["verdict"]
    with open(cache, "w") as f:
        f.write(f"{digest} {verdict}\n")
    return path, verdict


def run_child(argv, out_path):
    """Run a child process to completion; return (seconds, exit code, peak
    RSS in MiB, stdout). The peak is the kernel's high-water mark of the
    child's resident set (VmHWM), as wait4 reports it on exit."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(p.pid, 0)
        t = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    return t, p.returncode, usage.ru_maxrss / 1024.0, text


def certified_output_ok(text, verdict):
    lines = text.splitlines()
    return (bool(lines) and lines[0].startswith(f"cycle time {verdict} (")
            and any(l.startswith(f"certificate: bounded: max cycle ratio {verdict},")
                    and l.endswith("— checked") for l in lines))


def analyze_mesh(res, seed, seconds):
    del seed  # one fixed design, see MESH_SEED
    # setup_s: the CLI's fixed start-up on the paper's motivating example.
    motivating = os.path.join(WORK, "motivating.soc")
    want = driver("motivating", motivating)[0]["verdict"]
    out = os.path.join(WORK, "analyze.out")
    setups = []
    for _ in range(SETUP_REPS):
        t, code, _, text = run_child([ERMES, "analyze", motivating], out)
        res.check(code == 0 and text.startswith(f"cycle time {want} ("), "motivating analyze")
        setups.append(t)
    res.put("setup_s", statistics.median(setups))

    path, verdict = mesh_input()
    times, rss = [], []
    t0 = time.perf_counter()
    while True:
        t, code, peak, text = run_child([ERMES, "analyze", "--certify", path], out)
        ok = code == 0 and certified_output_ok(text, verdict)
        res.op(ok, f"analyze --certify exit {code}, expected cycle time {verdict}")
        times.append(t * 1000.0)
        rss.append(peak)
        # At least two operations; then another only if it should end within
        # the window.
        if len(times) >= 2 and time.perf_counter() - t0 + t > seconds:
            break
    tail_metrics(res, times, time.perf_counter() - t0, "analyze-mesh")
    res.put("peak_rss_mb", statistics.median(rss))


def analyze_mesh_traced(res, traces):
    path, verdict = mesh_input()
    prefix = os.path.join(WORK, "trace-analyze")
    rows = driver("analyze-passes", path, prefix)
    for r in rows:
        res.op(r["certified"] == r["cycle_time"] == verdict,
               f"analyze replay pass {r['pass']}: cycle time {r['cycle_time']}, "
               f"certificate {r['certified']}")
    per_pass = []
    for r in rows[1:]:
        ev = load_trace(f"{prefix}.{r['pass']}.json")
        traces.append(("analyze-mesh", ev))
        self_s, calls = stats.self_times(ev)
        tot, cnt = stats.totals(ev), stats.counters(ev)
        transitions = int(r["transitions"])
        iterations = cnt.get("csr.iterations.policy", 0)
        solve_s = tot.get("csr.solve", 0.0)
        per_pass.append({
            "soc_format.parse_s": self_s["soc_format.parse"],
            "system.validate_s": self_s["system.validate"],
            "to_tmg.build_s": tot["to_tmg.build"],
            "to_tmg.calls": calls["to_tmg.build"],
            "to_tmg.transitions": transitions,
            "to_tmg.places": int(r["places"]),
            "csr.make_solver_s": tot["csr.make_solver"],
            "csr.solve_s": solve_s,
            "csr.solve_calls": calls.get("csr.solve", 0),
            "csr.policy_iterations": iterations,
            "csr.ns_per_node_iteration": solve_s * 1e9 / max(1, transitions * iterations),
            "csr.of_tmg_s": tot["csr.of_tmg"],
            "verify.of_howard_csr_s": tot["verify.of_howard_csr"],
            "verify.check_csr_s": tot["verify.check_csr"],
            "perf.of_howard_s": tot["perf.of_howard"],
            "perf.pp_analysis_s": tot["perf.pp_analysis"],
            "analyze.unattributed_s": self_s["analyze"],
        })
    put_traced(res, "analyze-mesh", per_pass, [float(r["op_ms"]) for r in rows],
               exact=("to_tmg.transitions", "to_tmg.places", "to_tmg.calls",
                      "csr.solve_calls", "csr.policy_iterations"))


# --------------------------------------------------------------- dse-mpeg2


def dse_ok(r):
    """The checks `driver.exe dse` reports (target met, fresh analysis, summed
    area) and the area ceiling."""
    return r["ok"] == "true" and float(r["area_mm2"]) <= DSE_AREA_CEILING_MM2 * (1 + 1e-9)


def dse_mpeg2(res, seed, seconds):
    # The input is the paper's fixed MPEG-2 experiment; the seed selects
    # nothing.
    del seed
    rows = driver("dse", seconds, SETUP_REPS, timeout=175)
    res.put("setup_s", statistics.median(float(r["setup_s"]) for r in rows if "setup_s" in r))
    tct = next(r["tct"] for r in rows if "tct" in r)
    ops = [r for r in rows if "op_ms" in r]
    for r in ops:
        res.op(dse_ok(r), f"dse: check failed: {r}")
    times = [float(r["op_ms"]) for r in ops]
    tail_metrics(res, times, sum(times) / 1000.0, "dse-mpeg2")
    res.put("peak_rss_mb", float(next(r["peak_rss_mb"] for r in rows if "peak_rss_mb" in r)))
    log(f"dse-mpeg2: cycle time {ops[0]['cycle_time']}, area {ops[0]['area_mm2']} mm2, "
        f"target {tct}")


def dse_mpeg2_traced(res, traces):
    prefix = os.path.join(WORK, "trace-dse")
    rows = driver("dse-passes", prefix, timeout=175)[1:]  # after the target line
    for r in rows:
        res.op(dse_ok(r), f"dse pass {r['pass']}: check failed: {r}")
    per_pass = []
    for r in rows[1:]:
        ev = load_trace(f"{prefix}.{r['pass']}.json")
        traces.append(("dse-mpeg2", ev))
        self_s, calls = stats.self_times(ev)
        tot, cnt = stats.totals(ev), stats.counters(ev)
        per_pass.append({
            "explore.iterations": calls.get("explore.iteration", 0),
            "explore.iteration_s": tot.get("explore.iteration", 0.0),
            "ilp_select.self_s": self_s.get("explore.iteration", 0.0),
            "branch_bound.nodes": int(r["bb_nodes"]),
            "order.apply_safe_s": tot.get("order.apply_safe", 0.0),
            "csr.solve_s": tot.get("csr.solve", 0.0),
            "csr.solve_warm": cnt.get("csr.solve.warm", 0),
            "incremental.rethreads": cnt.get("incremental.rethreads", 0),
            "incremental.delay_edits": cnt.get("incremental.delay_edits", 0),
            "incremental.rebuilds": cnt.get("incremental.rebuilds", 0),
            "dse.unattributed_s": self_s["dse"],
            "dse_area_mm2": float(r["area_mm2"]),
            "dse_cycle_time": float(r["cycle_time_float"]),
        })
    put_traced(res, "dse-mpeg2", per_pass, [float(r["op_ms"]) for r in rows],
               exact=("explore.iterations", "branch_bound.nodes", "csr.solve_warm",
                      "incremental.rethreads", "incremental.delay_edits",
                      "incremental.rebuilds", "dse_area_mm2", "dse_cycle_time"))


# --------------------------------------------------------------- serve-mix


class Conn:
    """One client connection speaking the daemon's length-prefixed JSON."""

    def __init__(self, path, client=None):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""
        self.next_id = 1
        self.pending = None
        if client is not None:
            reply = self.call({"verb": "hello", "proto_version": 1, "client": client})
            if reply.get("status") != "ok":
                raise BenchError(f"hello refused: {reply}")

    def encode(self, req):
        req = {"id": self.next_id, **req}
        self.next_id += 1
        payload = json.dumps(req, separators=(",", ":")).encode()
        return req["id"], b"%d\n" % len(payload) + payload

    def frame(self):
        """A complete frame from the buffer, or None."""
        nl = self.buf.find(b"\n")
        if nl < 0:
            return None
        n = int(self.buf[:nl])
        if len(self.buf) < nl + 1 + n:
            return None
        payload = self.buf[nl + 1:nl + 1 + n]
        self.buf = self.buf[nl + 1 + n:]
        return payload

    def fill(self):
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise BenchError("daemon closed the connection")
        self.buf += chunk

    def call(self, req):
        _, data = self.encode(req)
        self.sock.sendall(data)
        while (payload := self.frame()) is None:
            self.fill()
        return json.loads(payload)

    def close(self):
        self.sock.close()


def read_designs(seed):
    d = os.path.join(WORK, "designs")
    os.makedirs(d, exist_ok=True)
    driver("serve-designs", seed, d, HIT_POOL, MISS_POOL, CLIENTS * SESSIONS_PER_CLIENT, WALK)
    pools = {"hit": {}, "miss": {}, "session": {}}
    with open(os.path.join(d, "manifest.txt")) as f:
        for line in f:
            cls, idx, step, name, verdict = line.split()
            with open(os.path.join(d, name)) as g:
                pools[cls][(int(idx), int(step))] = (g.read(), verdict)
    return pools


class Traffic:
    """The seeded request sequence of one client."""

    def __init__(self, pools, seed, client):
        self.pools = pools
        self.rng = random.Random(f"{seed}/{client}")
        self.tag = f"u{seed}c{client}"
        self.misses = 0
        self.sessions = [client * SESSIONS_PER_CLIENT + k for k in range(SESSIONS_PER_CLIENT)]
        self.step = {s: 0 for s in self.sessions}
        self.turn = 0
        self.block = []

    def next(self):
        """(class, request, expected cycle time)."""
        if not self.block:
            self.block = [c for c, k in BLOCK.items() for _ in range(k)]
            self.rng.shuffle(self.block)
        cls = self.block.pop()
        if cls == "hit":
            text, verdict = self.pools["hit"][(self.rng.randrange(HIT_POOL), 0)]
            return "hit", {"verb": "analyze", "design": text}, verdict
        if cls == "miss":
            text, verdict = self.pools["miss"][(self.rng.randrange(MISS_POOL), 0)]
            # A never-seen design: the base renamed, which changes its
            # content hash but not its cycle time.
            head, rest = text.split("\n", 1)
            self.misses += 1
            text = f"{head}_{self.tag}m{self.misses}\n{rest}"
            return "miss", {"verb": "analyze", "design": text}, verdict
        s = self.sessions[self.turn % len(self.sessions)]
        self.turn += 1
        self.step[s] = (self.step[s] + 1) % WALK
        text, verdict = self.pools["session"][(s, self.step[s])]
        return "session", {"verb": "analyze", "session": f"s{s}", "design": text}, verdict


class Daemon:
    def __init__(self, sock):
        self.sock = sock
        if os.path.exists(sock):
            os.unlink(sock)
        t0 = time.perf_counter()
        self.log = open(os.path.join(WORK, "serve.log"), "ab")
        self.proc = subprocess.Popen([ERMES, "serve", "--socket", sock, "--workers", "2"],
                                     stdout=self.log, stderr=self.log)
        LIVE.append(self.proc)
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"ermes serve exited with {self.proc.returncode}")
            if time.perf_counter() - t0 > 60:
                raise BenchError("ermes serve did not start listening")
            try:
                self.conn = Conn(sock, client="perfbench-control")
                break
            except (FileNotFoundError, ConnectionRefusedError):
                time.sleep(0.001)
        self.setup_s = time.perf_counter() - t0

    def metrics(self):
        m = self.conn.call({"verb": "metrics"})
        spans = {s["name"]: s for s in m.get("spans", [])}
        return m, spans

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def stop(self):
        self.conn.close()
        stop(self.proc)
        self.log.close()


LIVE = []


def stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc in LIVE:
        LIVE.remove(proc)


def warm_up(daemon, pools, res):
    """Connect the clients, open their sessions, and load the hit pool into
    the cache."""
    conns = [Conn(daemon.sock, client=f"perfbench-{c}") for c in range(CLIENTS)]
    for c, conn in enumerate(conns):
        for k in range(SESSIONS_PER_CLIENT):
            s = c * SESSIONS_PER_CLIENT + k
            text, verdict = pools["session"][(s, 0)]
            r = conn.call({"verb": "session-open", "session": f"s{s}", "design": text})
            res.check(r.get("status") == "ok" and r.get("cycle_time") == verdict,
                      f"session-open s{s}: {r.get('status')}")
    for i in range(HIT_POOL):
        text, verdict = pools["hit"][(i, 0)]
        r = conns[0].call({"verb": "analyze", "design": text})
        res.check(r.get("status") == "ok" and r.get("cycle_time") == verdict,
                  f"hit preload {i}: {r.get('status')}")
    return conns


def closed_loop(conns, traffic, seconds=None, count=None, events=None):
    """Each connection keeps one request in flight until the time or the
    per-client count runs out. Latency is timed from send to the complete
    reply frame. Returns the samples."""
    sel = selectors.DefaultSelector()
    samples = []
    sent = [0] * len(conns)
    t0 = time.perf_counter()

    def send(c):
        conn = conns[c]
        cls, req, verdict = traffic[c].next()
        te = time.perf_counter()
        rid, data = conn.encode(req)
        ts = time.perf_counter()
        conn.pending = (cls, rid, verdict, te, ts)
        conn.sock.sendall(data)
        sent[c] += 1

    def more(c):
        if count is not None:
            return sent[c] < count
        return time.perf_counter() - t0 < seconds

    for c, conn in enumerate(conns):
        sel.register(conn.sock, selectors.EVENT_READ, c)
        send(c)
    active = len(conns)
    while active:
        for key, _ in sel.select():
            c = key.data
            conn = conns[c]
            conn.fill()
            payload = conn.frame()
            if payload is None:
                continue
            tr = time.perf_counter()
            reply = json.loads(payload)
            td = time.perf_counter()
            cls, rid, verdict, te, ts = conn.pending
            ok = (reply.get("id") == rid and reply.get("status") == "ok"
                  and reply.get("certificate_checked") is True
                  and reply.get("cycle_time") == verdict)
            samples.append({"cls": cls, "ok": ok, "ms": (tr - ts) * 1000.0,
                            "enc_us": (ts - te) * 1e6, "dec_us": (td - tr) * 1e6,
                            "status": reply.get("status"), "path": reply.get("path"),
                            "expected": verdict, "got": reply.get("cycle_time")})
            if events is not None:
                op = len(samples)
                for name, a, b in (("serve.request", te, td), ("proto.client_encode", te, ts),
                                   ("serve.roundtrip", ts, tr), ("proto.client_decode", tr, td)):
                    events.append({"name": name, "ph": "X", "pid": op, "tid": c,
                                   "ts": (a - t0) * 1e6, "dur": (b - a) * 1e6,
                                   "args": {"class": cls}})
            if more(c):
                send(c)
            else:
                sel.unregister(conn.sock)
                active -= 1
    sel.close()
    return samples, time.perf_counter() - t0


def tally(res, samples):
    for s in samples:
        res.op(s["ok"], f"{s['cls']} request: status {s['status']}, cycle time {s['got']}, "
                        f"expected {s['expected']}")


def serve_pass(res, pools, seed, seconds=None, count=None, events=None):
    daemon = Daemon(os.path.join(WORK, "serve.sock"))
    try:
        conns = warm_up(daemon, pools, res)
        traffic = [Traffic(pools, seed, c) for c in range(CLIENTS)]
        before, spans0 = daemon.metrics()
        samples, elapsed = closed_loop(conns, traffic, seconds=seconds, count=count, events=events)
        after, spans1 = daemon.metrics()
        rss = daemon.peak_rss_mb()
        for conn in conns:
            conn.close()
    finally:
        daemon.stop()
    tally(res, samples)
    return {"daemon": daemon, "samples": samples, "elapsed": elapsed, "rss": rss,
            "before": (before, spans0), "after": (after, spans1)}


def serve_mix(res, seed, seconds):
    pools = read_designs(seed)
    # setup_s: daemon spawn until the first hello reply, median of several.
    setups = []
    for _ in range(SETUP_REPS):
        d = Daemon(os.path.join(WORK, "serve.sock"))
        setups.append(d.setup_s)
        d.stop()
    res.put("setup_s", statistics.median(setups))
    p = serve_pass(res, pools, seed, seconds=seconds)
    samples = p["samples"]
    tail_metrics(res, [s["ms"] for s in samples], p["elapsed"], "serve-mix")
    res.put("peak_rss_mb", p["rss"])
    n, busy = len(samples), sum(s["ms"] for s in samples)
    for c in BLOCK:
        ms = [s["ms"] for s in samples if s["cls"] == c]
        log(f"serve-mix {c}: share {len(ms) / n:.3f} of requests, {sum(ms) / busy:.3f} of "
            f"request time, p50 {statistics.median(ms):.3f} ms")


def span_delta(p, name):
    (_, s0), (_, s1) = p["before"], p["after"]
    a, b = s0.get(name, {}), s1.get(name, {})
    calls = b.get("calls", 0) - a.get("calls", 0)
    total = b.get("total_ms", 0.0) - a.get("total_ms", 0.0)
    return total / calls if calls else 0.0


def serve_layers(p):
    samples = p["samples"]
    n = len(samples)
    (m0, _), (m1, _) = p["before"], p["after"]
    c0, c1 = m0["cache"], m1["cache"]
    hits, misses = c1["hits"] - c0["hits"], c1["misses"] - c0["misses"]
    k0, k1 = m0.get("counters", {}), m1.get("counters", {})
    handler_ms = span_delta(p, "serve.verb.analyze")
    by = {c: [s["ms"] for s in samples if s["cls"] == c] for c in BLOCK}
    return {
        "serve.hit_p50_ms": statistics.median(by["hit"]),
        "serve.miss_p50_ms": statistics.median(by["miss"]),
        "serve.session_p50_ms": statistics.median(by["session"]),
        "serve.share.hit": len(by["hit"]) / n,
        "serve.share.miss": len(by["miss"]) / n,
        "serve.share.session": len(by["session"]) / n,
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / max(1, hits + misses),
        "cache.evictions": c1["evictions"] - c0["evictions"],
        "handler.analyze_ms": handler_ms,
        "howard.solve_ms": span_delta(p, "howard.solve"),
        "serve.wait_ms": statistics.mean(s["ms"] for s in samples) - handler_ms,
        "admission.rejected": k1.get("serve.rejected", 0) - k0.get("serve.rejected", 0),
        "session.warm": sum(s["path"] == "warm" for s in samples),
        "session.rebuilt": sum(s["path"] == "rebuilt" for s in samples),
        "proto.client_encode_us": statistics.median(s["enc_us"] for s in samples),
        "proto.client_decode_us": statistics.median(s["dec_us"] for s in samples),
    }


def serve_mix_traced(res, seed, traces):
    pools = read_designs(seed)
    passes = []
    for i in range(3):
        events = [] if i > 0 else None
        passes.append(serve_pass(res, pools, seed, count=TRACED_REQUESTS, events=events))
        if events is not None:
            traces.append(("serve-mix", events))
    op_ms = [statistics.median(s["ms"] for s in p["samples"]) for p in passes]
    put_traced(res, "serve-mix", [serve_layers(p) for p in passes[1:]], op_ms,
               exact=("cache.hits", "cache.misses", "session.warm", "session.rebuilt",
                      "serve.share.hit", "serve.share.miss", "serve.share.session"))


# ------------------------------------------------------------ traced runs


def load_trace(path):
    with open(path) as f:
        return json.load(f)["traceEvents"]


def put_traced(res, workload, per_pass, op_ms, exact):
    """Per-layer metrics of the two traced passes (their mean), after
    checking that the named counts repeat exactly; plus the traced op time
    and the tracing overhead against the untraced pass. `op_ms` holds the
    untraced pass's op time, then the traced ones'."""
    a, b = per_pass
    for k in exact:
        res.check(a[k] == b[k], f"{workload}: {k} differs across traced passes: {a[k]} vs {b[k]}")
    for k in a:
        res.put(f"{workload}.{k}", (a[k] + b[k]) / 2)
    traced = statistics.median(op_ms[1:])
    res.put(f"{workload}.trace.op_ms", traced)
    res.put(f"{workload}.trace.overhead_ms", traced - op_ms[0])


def write_trace(traces, path):
    """All traced passes in one Chrome trace file, one pid per operation.
    Within a pass, an event's own pid tells its operation apart."""
    out, ids = [], {}
    for n, (workload, events) in enumerate(traces):
        for e in events:
            op = ids.setdefault((n, e.get("pid")), len(ids) + 1)
            e = dict(e, pid=op)
            if e["ph"] == "X":
                e["args"] = {**e.get("args", {}), "op": op, "workload": workload}
            out.append(e)
    with open(path, "w") as f:
        json.dump({"traceEvents": out}, f)


# ------------------------------------------------------------------- main


def declared(kind):
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    stats.self_test()
    units = declared("per_layer" if args.trace else "end_to_end")
    build()
    res = Result()
    try:
        if args.trace:
            traces = []
            analyze_mesh_traced(res, traces)
            dse_mpeg2_traced(res, traces)
            serve_mix_traced(res, args.seed, traces)
            trace_file = os.path.join(WORK, f"trace-{args.seed}.json")
            write_trace(traces, trace_file)
            log(f"spans written to {trace_file}")
        else:
            {"analyze-mesh": analyze_mesh, "dse-mpeg2": dse_mpeg2,
             "serve-mix": serve_mix}[args.workload](res, args.seed, args.seconds)
    finally:
        for p in list(LIVE):
            stop(p)
    if args.trace:
        res.put("failure_ratio", res.failed / max(1, res.attempted))
    missing = set(units) - set(res.metrics)
    extra = set(res.metrics) - set(units)
    if missing or extra:
        raise BenchError(f"metrics disagree with BENCHMARK.json: missing {sorted(missing)}, "
                         f"undeclared {sorted(extra)}")
    for p in res.problems:
        log(f"CHECK FAILED: {p}")
    log(f"failure_ratio {res.failed / max(1, res.attempted):.4f} "
        f"({res.failed} of {res.attempted} operations)")
    for name in units:
        print(f"{name:48s} {res.metrics[name]:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": not res.problems,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": res.metrics[k], "unit": units[k]} for k in units},
    }))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        for p in list(LIVE):
            stop(p)
        log(f"perfbench: {e}")
        sys.exit(2)

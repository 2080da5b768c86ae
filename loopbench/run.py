"""Loopback benchmark of the epvr pose server, end to end and per layer.

Starts `epvr serve` as its own process (through serve.py), drives it from
this single-threaded process over at most two connections with the public
`net.Client`, checks every pose it receives against an in-process
`PipelineSession` fed the same frames, and prints one metric per line,
then a last line of JSON for the metrics that BENCHMARK.json lists:

    python3 loopbench/run.py --workload fused_closed --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1
runs the same inputs twice, untraced and then with the span tracer
installed in the server, and reports the per-layer metrics. Files the run
leaves behind (registry, server logs, spans, results) go to .loopbench_out/.
See NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".loopbench_out")

WARMUP = 40  # frames: one pipeline window; out of latency, fps and MPJPE, not the checksum
CHECKSUM_FRAMES = 120  # pose_sha256 covers this many leading frames of a closed loop
RATE = 60.0  # Hz, the rate the walk is sampled at and the open loop sends at
KEYPOINT_NOISE = 0.01  # m
ON_TIME_S = 0.050  # three 60 Hz periods
REPLY_TIMEOUT = 5.0
SERVER_START_TIMEOUT = 60.0
SERVER_STOP_TIMEOUT = 10.0
SETUP_REPEATS = 5  # server starts per untraced run; setup_s is their median
MODEL = "bench"


@dataclass(frozen=True)
class Workload:
    config: dict  # PipelineConfig fields
    sessions: int
    open_loop: bool
    keypoint_every: int  # send keypoints with every k-th frame; 0 never
    budget_fps: float  # frames generated per measured second
    tail_pct: float  # latency_tail_ms percentile; >= 10 samples beyond it at baseline


WORKLOADS = {
    # The paper's full pipeline: both streams every frame, one waiting client.
    "fused_closed": Workload({}, 1, False, 1, 150.0, 90.0),
    # HMD-only heuristic: no neural, refine or keypoint work; kpo dominates.
    "hmd_closed": Workload(
        {"predictor": "heuristic", "use_keypoints": False, "use_fusion": False},
        1, False, 0, 400.0, 99.0,
    ),
    # Two headsets at 60 Hz with a 30 Hz camera, sent on schedule.
    "fused_open": Workload({}, 2, True, 2, RATE, 98.0),
}

E2E_UNITS = {
    "fps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "on_time_share": "share",
    "drop_share": "share",
    "error_share": "share",
    "mpjpe_cm": "cm",
    "setup_s": "s",
    "server_rss_mb": "MB",
}
OPEN_LOOP_ONLY = ("on_time_share", "drop_share")

LAYER_UNITS = {
    "net.overhead_us": "us",
    "net.buffer_wait_us": "us",
    "net.dropped_frames": "count",
    "net.codec_us": "us",
    "net.bytes_per_frame": "bytes",
    "pipeline.service_us": "us",
    "pipeline.inproc_fps": "1/s",
    "neural.motion_encode_us": "us",
    "neural.visual_encode_us": "us",
    "neural.fuse_us": "us",
    "neural.decode_us": "us",
    "refine.refine_us": "us",
    "refine.calls": "count",
    "kpo.run_us": "us",
    "kpo.iterations": "count",
    "kpo.cap_share": "share",
    "kpo.energy": "m2",
    "descriptor.build_us": "us",
    "descriptor.build_calls": "count",
    "descriptor.push_us": "us",
    "descriptor.push_calls": "count",
    "kinematics.fk_us": "us",
    "kinematics.fk_calls": "count",
    "filtering.step_us": "us",
    "filtering.step_calls": "count",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_share": "share",
}

# Span names whose self time makes up net.codec_us. read_envelope is left
# out: most of its time is the handler waiting for the next message.
CODEC_SPANS = ("net.encode", "net.decode", "net.decode_hmd", "net.decode_keypoints",
               "net.encode_pose")
# Spans reported as `<name>_us`, self time per frame, and as `<name>_calls`,
# calls per frame.
SELF_TIME_SPANS = ("neural.motion_encode", "neural.visual_encode", "neural.fuse",
                   "neural.decode", "refine.refine", "kpo.run", "descriptor.build",
                   "descriptor.push", "kinematics.fk", "filtering.step")
CALL_COUNT_SPANS = ("descriptor.build", "descriptor.push", "kinematics.fk", "filtering.step")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _micros(t):
    return int(round(t * 1e6))


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Inputs:
    seq: object  # evalmod.SyntheticSequence
    z: np.ndarray
    zeta: np.ndarray
    index_of: dict  # frame timestamp in microseconds -> frame index
    pose_bytes: int  # bytes of rotations + positions at the start of a pose payload

    def keypoints(self, i, every):
        if every and i % every == 0:
            return self.z[i], self.zeta[i]
        return None


def make_inputs(seed, frames):
    from epvr import eval as evalmod

    seq = evalmod.generate_sequence("walk", frames / RATE, RATE, seed)
    z, zeta = evalmod.noisy_keypoints(seq, KEYPOINT_NOISE, seed)
    index_of = {_micros(t): i for i, t in enumerate(seq.timestamps)}
    return Inputs(seq, z, zeta, index_of, 9 * seq.tree.joint_count * 8)


# ---------------------------------------------------------------------------
# server process


class ServerProcess:
    """serve.py in its own process; the address comes from its first line."""

    def __init__(self, registry_path, tag, traced):
        self.status_path = os.path.join(OUT_DIR, f"{tag}.status.json")
        self.spans_path = os.path.join(OUT_DIR, f"{tag}.spans.jsonl") if traced else None
        for path in (self.status_path, self.spans_path):
            if path and os.path.exists(path):
                os.remove(path)
        cmd = [sys.executable, "-u", os.path.join(BENCH_DIR, "serve.py"),
               "--models", registry_path, "--status", self.status_path]
        if traced:
            cmd += ["--spans", self.spans_path]
        self.log = open(os.path.join(OUT_DIR, f"{tag}.server.log"), "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=self.log)
        self.status = None
        try:
            self.address = self._read_address()
        except BaseException:
            self.stop()
            raise

    def _read_address(self):
        deadline = time.perf_counter() + SERVER_START_TIMEOUT
        buf = b""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while b"\n" not in buf:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise BenchError("server did not report its address in time")
                if not sel.select(remaining):
                    continue
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise BenchError(f"server exited early; see {self.log.name}")
                buf += chunk
        line = buf.split(b"\n", 1)[0].decode()  # "serving ['bench'] on HOST:PORT"
        host, _, port = line.rsplit(" ", 1)[-1].rpartition(":")
        return host, int(port)

    def stop(self):
        """SIGINT, then SIGKILL if it has not exited; returns the status."""
        if self.status is not None:
            return self.status
        killed = False
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(SERVER_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                killed = True
        self.proc.stdout.close()
        self.log.close()
        status = {"exit": self.proc.returncode}
        if os.path.exists(self.status_path):
            with open(self.status_path) as fh:
                status.update(json.load(fh))
        status["killed"] = killed
        self.status = status
        return status


# ---------------------------------------------------------------------------
# load generation


@dataclass
class SessionLog:
    """What one client sent and received, plus the failures it saw."""

    sent: list = field(default_factory=list)  # (frame index, due time, send time)
    replies: dict = field(default_factory=dict)  # frame index -> (recv time, payload)
    errored: int = 0  # ERROR envelopes, disconnects, replies for no sent frame
    exhausted: bool = False  # ran out of generated frames before the time was up

    def accept(self, env, t_recv, index_of):
        """Record one received envelope; False when the session cannot go on."""
        from epvr import net

        if env is None or env.kind != net.Kind.POSE_RESULT:
            self.errored += 1
            return False
        index = index_of.get(_micros(env.timestamp))
        if index is None or index in self.replies:
            self.errored += 1
            return False
        self.replies[index] = (t_recv, env.payload)
        return True


def _send_frame(client, inputs, i, keypoint_every):
    seq = inputs.seq
    kp = inputs.keypoints(i, keypoint_every)
    if kp is not None:
        client.send_keypoints(seq.timestamps[i], *kp)
    client.send_hmd(seq.head[i], seq.left[i], seq.right[i])


def closed_loop(clients, inputs, wl, seconds):
    """Send a frame, wait for its pose, repeat; measure `seconds` after WARMUP."""
    (client,) = clients
    log = SessionLog()
    t_stop = None
    with selectors.DefaultSelector() as sel:
        sel.register(client.sock, selectors.EVENT_READ)
        for i in range(inputs.seq.frame_count):
            t_send = time.perf_counter()
            if i == WARMUP:
                t_stop = t_send + seconds
            elif t_stop is not None and t_send >= t_stop:
                break
            log.sent.append((i, t_send, t_send))
            try:
                _send_frame(client, inputs, i, wl.keypoint_every)
            except OSError:
                log.errored += 1
                break
            if not sel.select(REPLY_TIMEOUT):
                break
            env = client.recv()
            if not log.accept(env, time.perf_counter(), inputs.index_of):
                break
            if i not in log.replies:  # a pose for some other frame
                log.errored += 1
                break
        else:
            log.exhausted = True
    return [log]


def open_loop(clients, inputs, wl, seconds):
    """Each session sends frame i when it is due, whatever came back. All
    sessions are due at the same instants (see NOTES.md)."""
    n = min(WARMUP + int(round(seconds * RATE)), inputs.seq.frame_count)
    k = len(clients)
    period = 1.0 / RATE
    logs = [SessionLog() for _ in clients]
    next_i = [0] * k
    alive = [True] * k
    t0 = time.perf_counter() + period

    def due(s, i):
        return t0 + i * period

    with selectors.DefaultSelector() as sel:
        for s, client in enumerate(clients):
            sel.register(client.sock, selectors.EVENT_READ, s)

        def receive(timeout):
            for key, _ in sel.select(timeout):
                s = key.data
                env = clients[s].recv()
                if not logs[s].accept(env, time.perf_counter(), inputs.index_of):
                    alive[s] = False
                    sel.unregister(clients[s].sock)

        while True:
            pending = [due(s, next_i[s]) for s in range(k) if alive[s] and next_i[s] < n]
            if not pending:
                break
            receive(max(0.0, min(pending) - time.perf_counter()))
            for s in range(k):
                while alive[s] and next_i[s] < n and due(s, next_i[s]) <= time.perf_counter():
                    i = next_i[s]
                    t_send = time.perf_counter()
                    logs[s].sent.append((i, due(s, i), t_send))
                    next_i[s] += 1
                    try:
                        _send_frame(clients[s], inputs, i, wl.keypoint_every)
                    except OSError:
                        logs[s].errored += 1
                        alive[s] = False
                        sel.unregister(clients[s].sock)

        # The buffer keeps the newest frame, so every session's last frame is
        # answered unless something failed.
        drain_until = time.perf_counter() + REPLY_TIMEOUT
        while True:
            waiting = [s for s in range(k) if alive[s] and logs[s].sent
                       and logs[s].sent[-1][0] not in logs[s].replies]
            remaining = drain_until - time.perf_counter()
            if not waiting or remaining <= 0:
                break
            receive(remaining)
    return logs


def unanswered(log):
    """(dropped, lost): frames without a pose that the buffer overwrote, since
    a later frame was answered, and frames lost after the last answer. A
    session stops at its first error, so its lost frames are that error's;
    those of a session without errors timed out."""
    last = max(log.replies, default=-1)
    missing = [i for i, _, _ in log.sent if i not in log.replies]
    dropped = sum(1 for i in missing if i < last)
    return dropped, len(missing) - dropped


# ---------------------------------------------------------------------------
# phases


@dataclass
class Phase:
    logs: list
    setup_s: list
    status: dict  # of the measured server
    references: list = field(default_factory=list)  # per session: pose bytes per answered frame
    mismatched: int = 0
    inproc_fps: float = 0.0

    def accounting(self):
        attempted = sum(len(log.sent) for log in self.logs)
        answered = sum(len(log.replies) for log in self.logs)
        dropped = errored = timed_out = 0
        for log in self.logs:
            drops, lost = unanswered(log)
            dropped += drops
            errored += log.errored
            timed_out += 0 if log.errored else lost
        return {
            "attempted": attempted, "answered": answered, "dropped": dropped,
            "errored": errored, "timed_out": timed_out, "mismatched": self.mismatched,
            "failed": errored + timed_out + self.mismatched,
        }


@contextlib.contextmanager
def _gc_paused():
    """Keep the load generator free of collector pauses while it measures;
    the generated inputs are moved out of the collector's view first."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def run_phase(wl, registry_path, inputs, seconds, tag, traced, setups):
    """Start the server `setups` times and time each set-up; drive the last."""
    from epvr import net

    setup_s = []
    for attempt in range(setups):
        measured = attempt == setups - 1
        server = ServerProcess(registry_path, f"{tag}-{attempt}", traced and measured)
        clients = []
        try:
            for _ in range(wl.sessions):
                clients.append(net.Client(*server.address, timeout=REPLY_TIMEOUT))
                clients[-1].hello(MODEL)
            setup_s.append(time.perf_counter() - server.started)
            if measured:
                loop = open_loop if wl.open_loop else closed_loop
                with _gc_paused():
                    logs = loop(clients, inputs, wl, seconds)
        finally:
            for client in clients:
                client.close()
            status = server.stop()
        if status["killed"] or status.get("exit") != 0:
            raise BenchError(f"server {tag}-{attempt} did not stop cleanly: {status}")
    status["spans_path"] = server.spans_path
    return Phase(logs, setup_s, status)


def pose_bytes(pose):
    return np.concatenate([pose.stacked_rotations().ravel(), pose.positions.ravel()]).astype(
        "<f8").tobytes()


def reference_poses(config, inputs, indices, keypoint_every):
    """Poses of an in-process session fed the frames `indices`, and its fps."""
    from epvr import pipeline

    seq = inputs.seq
    session = pipeline.PipelineSession(config)
    out = []
    t0 = time.perf_counter()
    for i in indices:
        result = session.process_frame(
            seq.head[i], seq.left[i], seq.right[i], inputs.keypoints(i, keypoint_every)
        )
        out.append(pose_bytes(result.pose))
    elapsed = time.perf_counter() - t0
    return out, (len(out) / elapsed if elapsed > 0 else 0.0)


def check_poses(wire, reference, pose_len):
    """Correctness gate: count wire poses that differ from the reference in
    any bit, or that have no reference pose."""
    mismatched = abs(len(wire) - len(reference))
    for payload, ref in zip(wire, reference):
        if payload[:pose_len] != ref:
            mismatched += 1
    return mismatched


def wire_poses(log):
    return [log.replies[i][1] for i in sorted(log.replies)]


def verify(phase, config, inputs, wl):
    """Compare every answered pose with an in-process session fed the same
    frames in the same order; time that session on the first client's."""
    for s, log in enumerate(phase.logs):
        ref, fps = reference_poses(config, inputs, sorted(log.replies), wl.keypoint_every)
        phase.references.append(ref)
        phase.mismatched += check_poses(wire_poses(log), ref, inputs.pose_bytes)
        if s == 0:
            phase.inproc_fps = fps


def pose_sha256(log, pose_len, frames=CHECKSUM_FRAMES):
    """sha256 over the poses of the first `frames` answered frames, and the
    number of frames it covers."""
    poses = [payload[:pose_len] for payload in wire_poses(log)[:frames]]
    return hashlib.sha256(b"".join(poses)).hexdigest(), len(poses)


# ---------------------------------------------------------------------------
# metrics


def _server_total_us(payload):
    return float(np.frombuffer(payload, dtype="<f8")[-1])


def end_to_end(phase, inputs, wl):
    """End-to-end metrics of one phase; frames before WARMUP are left out of
    the timings and MPJPE."""
    from epvr import eval as evalmod

    latencies, overheads, lateness, errors = [], [], [], []
    answered = sent = dropped = on_time = 0
    for log in phase.logs:
        rows = [r for r in log.sent if r[0] >= WARMUP]
        sent += len(rows)
        dropped += unanswered(SessionLog(rows, log.replies))[0]
        prev_recv = None
        for i, t_due, t_send in rows:
            reply = log.replies.get(i)
            if wl.open_loop:
                lateness.append(t_send - t_due)
            elif prev_recv is not None:
                lateness.append(t_send - prev_recv)
            if reply is None:
                continue
            t_recv, payload = reply
            prev_recv = t_recv
            answered += 1
            latency = t_recv - t_due
            latencies.append(latency)
            on_time += latency <= ON_TIME_S
            overheads.append((t_recv - t_send) * 1e6 - _server_total_us(payload))
            positions = np.frombuffer(
                payload, dtype="<f8", count=inputs.pose_bytes // 8
            )[6 * inputs.seq.tree.joint_count:].reshape(-1, 3)
            errors.append(evalmod.mpjpe(positions, inputs.seq.positions[i]))
    if not latencies:
        raise BenchError("no frame was answered after the warm-up")
    # From the first frame sent (due, in open loop) after the warm-up to the
    # last pose received.
    first = min(r[1] for log in phase.logs for r in log.sent if r[0] >= WARMUP)
    last = max(t for log in phase.logs for t, _ in log.replies.values())
    acc = phase.accounting()
    latencies_ms = np.array(latencies) * 1e3
    tail = float(np.percentile(latencies_ms, wl.tail_pct))
    metrics = {
        "fps": answered / (last - first),
        "latency_p50_ms": float(np.median(latencies_ms)),
        "latency_tail_ms": tail,
        "error_share": acc["failed"] / acc["attempted"],
        "mpjpe_cm": float(np.mean(errors)),
        "setup_s": float(np.median(phase.setup_s)),
        "server_rss_mb": float(phase.status["max_rss_mb"]),
    }
    if wl.open_loop:
        metrics["on_time_share"] = on_time / sent
        metrics["drop_share"] = dropped / sent
    detail = {
        "latency_samples": len(latencies),
        "latency_tail_pct": wl.tail_pct,
        "latency_tail_beyond": int(np.sum(latencies_ms > tail)),
        "latency_p90_ms": float(np.percentile(latencies_ms, 90)),
        "latency_p99_ms": float(np.percentile(latencies_ms, 99)),
        "net_overhead_us": float(np.median(overheads)),
        "loadgen_late_p99_ms": float(np.percentile(np.array(lateness) * 1e3, 99)),
        "setup_samples_s": phase.setup_s,
    }
    return metrics, detail


def per_layer(phase):
    """Per-layer metrics from the spans and counters of a traced phase."""
    import tracer as tracing

    spans, counters = tracing.load(phase.status["spans_path"])
    self_ns = tracing.self_times(spans)
    total_ns, calls = {}, {}
    for s in spans:
        total_ns[s["name"]] = total_ns.get(s["name"], 0) + self_ns[s["id"]]
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    services = [s["end"] - s["start"] for s in spans if s["name"] == "pipeline.process_frame"]
    frames = len(services)
    if frames == 0:
        raise BenchError("the traced server processed no frame")
    reports = counters["kpo_reports"]
    waits = counters["buffer_waits_ns"]
    metrics = {
        "net.buffer_wait_us": float(np.mean(waits)) / 1e3 if waits else 0.0,
        "net.dropped_frames": counters["dropped_frames"],
        "net.codec_us": sum(total_ns.get(n, 0) for n in CODEC_SPANS) / frames / 1e3,
        "net.bytes_per_frame": counters["envelope_bytes"] / max(counters["hmd_frames"], 1),
        "pipeline.service_us": float(np.mean(services)) / 1e3,
        "refine.calls": calls.get("refine.refine", 0) / frames,
        "kpo.iterations": float(np.mean([r[0] for r in reports])) if reports else 0.0,
        "kpo.cap_share": float(np.mean([r[0] >= r[1] for r in reports])) if reports else 0.0,
        "kpo.energy": float(np.mean([r[2] for r in reports])) if reports else 0.0,
    }
    for name in SELF_TIME_SPANS:
        metrics[f"{name}_us"] = total_ns.get(name, 0) / frames / 1e3
    for name in CALL_COUNT_SPANS:
        metrics[f"{name}_calls"] = calls.get(name, 0) / frames
    return metrics, {"traced_frames": frames, "spans": len(spans)}


# ---------------------------------------------------------------------------
# driver


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    metrics: dict  # name -> (value, unit)
    phases: dict  # name -> Phase
    detail: dict
    correct: bool
    attempted: int
    failed: int


def execute(name, seed, seconds, trace) -> Result:
    """Run one workload; raises BenchError when it cannot produce a result."""
    from epvr import pipeline

    wl = WORKLOADS[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    config = pipeline.PipelineConfig(**wl.config)
    registry_path = os.path.join(OUT_DIR, f"{name}.registry.json")
    with open(registry_path, "w") as fh:
        json.dump({"models": {MODEL: {"config": config.to_dict()}}}, fh)

    frames = WARMUP + int(math.ceil(seconds * wl.budget_fps)) + 1
    t0 = time.perf_counter()
    inputs = make_inputs(seed, frames)
    detail = {"frames_generated": frames, "generate_s": time.perf_counter() - t0}

    phases = {"untraced": run_phase(wl, registry_path, inputs, seconds, f"{name}-untraced",
                                    False, 1 if trace else SETUP_REPEATS)}
    if trace:
        phases["traced"] = run_phase(wl, registry_path, inputs, seconds, f"{name}-traced",
                                     True, 1)
    for phase in phases.values():
        verify(phase, config, inputs, wl)

    untraced = phases["untraced"]
    e2e, e2e_detail = end_to_end(untraced, inputs, wl)
    detail.update(e2e_detail)
    metrics = {k: (v, E2E_UNITS[k]) for k, v in e2e.items()}
    metrics["pipeline.inproc_fps"] = (untraced.inproc_fps, LAYER_UNITS["pipeline.inproc_fps"])
    correct = True
    if not wl.open_loop:
        for phase_name, phase in phases.items():
            detail[f"{phase_name}_pose_sha256"], detail[f"{phase_name}_pose_sha256_frames"] = (
                pose_sha256(phase.logs[0], inputs.pose_bytes))
    if trace:
        traced = phases["traced"]
        status = traced.status
        detail["wrappers_removed"] = status.get("wrappers_removed") is True
        correct = detail["wrappers_removed"]
        if not wl.open_loop:
            frames_common = min(detail["untraced_pose_sha256_frames"],
                                detail["traced_pose_sha256_frames"])
            same = (pose_sha256(untraced.logs[0], inputs.pose_bytes, frames_common)
                    == pose_sha256(traced.logs[0], inputs.pose_bytes, frames_common))
            detail["traced_checksum_matches"] = same
            correct = correct and same
        layers, layer_detail = per_layer(traced)
        detail.update(layer_detail)
        # Taken from the untraced phase: the round trip, the generator and
        # the in-process ceiling are measured without the tracer.
        layers["net.overhead_us"] = e2e_detail["net_overhead_us"]
        layers["loadgen.late_p99_ms"] = e2e_detail["loadgen_late_p99_ms"]
        layers["trace.overhead_share"] = 1.0 - end_to_end(traced, inputs, wl)[0]["fps"] / e2e["fps"]
        metrics.update({k: (v, LAYER_UNITS[k]) for k, v in layers.items()})

    accounting = {p: ph.accounting() for p, ph in phases.items()}
    detail["phases"] = accounting
    attempted = sum(a["attempted"] for a in accounting.values())
    failed = sum(a["failed"] for a in accounting.values())
    correct = correct and failed == 0 and all(
        math.isfinite(v) for v, _ in metrics.values())
    detail["exhausted_frames"] = any(log.exhausted for ph in phases.values() for log in ph.logs)
    return Result(name, seed, trace, metrics, phases, detail, correct, attempted, failed)


def render(result: Result, listed) -> str:
    """Every metric on its own line, details as comments, then the JSON line
    holding exactly the metrics `listed` (name list from BENCHMARK.json)."""
    lines = [f"# workload {result.workload} seed {result.seed} trace {int(result.trace)}"]
    for key, value in result.detail.items():
        if key != "phases":
            lines.append(f"# {key} {value}")
    for phase, acc in result.detail["phases"].items():
        lines.append(f"# phase {phase} " + " ".join(f"{k}={v}" for k, v in acc.items()))
    for name, (value, unit) in result.metrics.items():
        lines.append(f"{name} {value!r} {unit}")
    doc = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {n: {"value": result.metrics[n][0], "unit": result.metrics[n][1]}
                    for n in listed},
    }
    lines.append(json.dumps(doc))
    return "\n".join(lines)


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="loopback benchmark of the epvr server")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "epvr")):
        print(f"error: no epvr sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        listed = listed_metrics(bool(args.trace))
        result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
        text = render(result, listed)
    except (BenchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    with open(os.path.join(
            OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.txt"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

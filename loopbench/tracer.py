"""In-memory span tracer for the server process of the loopback benchmark.

`Tracer.install` replaces the layer-boundary functions of the `epvr`
modules with wrappers that record one span per call: id, name, start and
end (perf_counter ns), parent span id (0 at a thread's top level) and frame
id (the frame's timestamp in microseconds, where the wrapper can tell).
Nothing under `src/` knows about the tracer: `serve.py` installs it before
the server accepts its first session, because `PipelineSession` binds
`refine.refine` when it is constructed.

Besides spans the tracer records what the wrapped calls return and the
benchmark needs: the `KpoReport` of each `KpoSolver.run`, the time each
frame waited in the latest-wins `FrameBuffer`, the frames that buffer
overwrote, and the bytes of the sensor and pose envelopes.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

# Envelope kinds counted in bytes per frame: the two sensor streams in, the
# pose result out.
_FRAME_KINDS = ("HMD_FRAME", "KEYPOINT_FRAME", "POSE_RESULT")


def _micros(t):
    return int(round(t * 1e6))


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start_ns, end_ns, parent_id, frame)
        self.kpo_reports = []  # (iterations, max_iterations, final_energy)
        self.buffer_waits_ns = []
        self.envelope_bytes = 0
        self.hmd_frames = 0
        self._ids = itertools.count(1)
        self._count_lock = threading.Lock()
        self._local = threading.local()
        self._pushed_ns = {}
        self._buffers = {}
        self._encoder_names = {}
        self._patched = []  # (owner, attribute, original)

    # -- span recording -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, frame_before=None, frame_after=None, on_result=None):
        """Wrap fn in a span. name is a string or a function of the call's
        arguments; frame_before(args) sets the thread's current frame for
        the span and its children, frame_after(result) names the frame once
        the call has returned it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            outer_frame = getattr(local, "frame", None)
            if frame_before is not None:
                local.frame = frame_before(args)
            stack.append(span_id)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                frame = getattr(local, "frame", None)
                if frame_after is not None and result is not None:
                    frame = frame_after(result)
                    local.frame = frame
                elif frame_before is not None:
                    local.frame = outer_frame
                label = name(args) if callable(name) else name
                tracer.spans.append((span_id, label, start, end, parent, frame))
                if on_result is not None and result is not None:
                    on_result(args, result)

        return wrapper

    def _patch(self, owner, attribute, replacement):
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap the layer-boundary functions of every traced epvr module."""
        from epvr import descriptor, filtering, kinematics, kpo, net, neural, pipeline, refine

        if self._patched:
            raise RuntimeError("tracer already installed")

        def span(owner, attribute, name, **hooks):
            self._patch(owner, attribute, self._wrap(getattr(owner, attribute), name, **hooks))

        def count_in(args, env):
            if env.kind.name in _FRAME_KINDS:
                with self._count_lock:
                    self.envelope_bytes += net.HEADER_LEN + len(env.payload) + net.CRC_LEN
                    self.hmd_frames += env.kind == net.Kind.HMD_FRAME

        def count_out(args, raw):
            if args[0].kind.name in _FRAME_KINDS:
                with self._count_lock:
                    self.envelope_bytes += len(raw)

        def env_frame(env):
            return _micros(env.timestamp)

        span(net, "read_envelope", "net.read_envelope", frame_after=env_frame,
             on_result=count_in)
        span(net, "decode", "net.decode", frame_after=env_frame)
        span(net, "encode", "net.encode", on_result=count_out)
        span(net, "decode_hmd_payload", "net.decode_hmd")
        span(net, "decode_keypoint_payload", "net.decode_keypoints")
        span(net, "encode_pose_payload", "net.encode_pose")
        self._trace_frame_buffer(net.FrameBuffer)

        span(pipeline.PipelineSession, "process_frame", "pipeline.process_frame",
             frame_before=lambda args: _micros(args[1].timestamp))
        span(pipeline.NeuralPredictor, "predict", "pipeline.predict")
        span(pipeline.HeuristicPredictor, "predict", "pipeline.predict")
        self._trace_build_predictor(pipeline)

        span(neural, "spatiotemporal_encode",
             lambda args: self._encoder_names.get(id(args[1]), "neural.encode"))
        span(neural, "cross_attention_fuse", "neural.fuse")
        span(neural, "decode_pose", "neural.decode")

        span(refine, "refine", "refine.refine")
        span(refine, "refine_normalized", "refine.refine")

        def kpo_report(args, result):
            report = result[1]
            self.kpo_reports.append(
                (report.iterations, args[0].cfg.max_iterations, report.final_energy)
            )

        span(kpo.KpoSolver, "run", "kpo.run", on_result=kpo_report)

        span(descriptor, "build_descriptor", "descriptor.build")
        span(descriptor, "push_frame", "descriptor.push")
        span(kinematics, "forward_kinematics", "kinematics.fk")
        span(filtering.VectorFilterBank, "step", "filtering.step")

    def _trace_frame_buffer(self, cls):
        """Time each frame from push to the take_latest that returns it, and
        remember every buffer so its overwrite count can be read at the end."""
        push, take_latest = cls.push, cls.take_latest
        tracer = self

        @functools.wraps(push)
        def traced_push(buf, frame):
            tracer._buffers[id(buf)] = buf
            tracer._pushed_ns[id(frame)] = time.perf_counter_ns()
            return push(buf, frame)

        @functools.wraps(take_latest)
        def traced_take_latest(buf, timeout=None):
            frame = take_latest(buf, timeout)
            if frame is not None:
                pushed = tracer._pushed_ns.pop(id(frame), None)
                if pushed is not None:
                    tracer.buffer_waits_ns.append(time.perf_counter_ns() - pushed)
            return frame

        self._patch(cls, "push", traced_push)
        self._patch(cls, "take_latest", traced_take_latest)

    def _trace_build_predictor(self, pipeline):
        """Name the two encoders by the weights object each passes to
        spatiotemporal_encode."""
        build = pipeline.build_predictor

        @functools.wraps(build)
        def traced_build(*args, **kwargs):
            predictor = build(*args, **kwargs)
            if isinstance(predictor, pipeline.NeuralPredictor):
                self._encoder_names[id(predictor.motion_w)] = "neural.motion_encode"
                self._encoder_names[id(predictor.visual_w)] = "neural.visual_encode"
            return predictor

        self._patch(pipeline, "build_predictor", traced_build)

    def uninstall(self) -> bool:
        """Restore every wrapped function; True when all originals are back."""
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        restored = all(getattr(o, a) is orig for o, a, orig in self._patched)
        self._patched = []
        return restored

    # -- output ---------------------------------------------------------

    def dropped_frames(self):
        return sum(buf.dropped for buf in self._buffers.values())

    def dump(self, path):
        """Write spans as JSON lines, then one summary line of counters."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, frame in self.spans:
                fh.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end,
                     "parent": parent, "frame": frame}
                ) + "\n")
            fh.write(json.dumps({"counters": {
                "kpo_reports": self.kpo_reports,
                "buffer_waits_ns": self.buffer_waits_ns,
                "dropped_frames": self.dropped_frames(),
                "envelope_bytes": self.envelope_bytes,
                "hmd_frames": self.hmd_frames,
            }}) + "\n")


def load(path):
    """Read a dump back: (spans as dicts, counters)."""
    spans, counters = [], {}
    with open(path) as fh:
        for line in fh:
            doc = json.loads(line)
            if "counters" in doc:
                counters = doc["counters"]
            else:
                spans.append(doc)
    return spans, counters


def self_times(spans):
    """Map span id -> self time in ns: the span's duration minus the part of
    it that its child spans cover."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0
        cursor = s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out

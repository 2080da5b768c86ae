"""Stateful model check of the server, driven through the public client only.

Hypothesis interleaves HELLO, sensor frames in either order, stale frames,
non-increasing sequences, malformed bytes, render subscriptions, PINGs and
closing connections over one loopback server per example. Each input
session is mirrored by an in-process PipelineSession fed exactly the frames
the server answered, and every pose must equal the mirror's bit for bit.
"""

import uuid
import zlib

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from epvr import core, eval as evalmod, net, pipeline

TIMEOUT = 3.0
MODEL = "fused"
CONFIG = pipeline.PipelineConfig()  # neural predictor reading the keypoint stream
FRAMES = 40
WALK = evalmod.generate_sequence("walk", FRAMES / 60.0, 60.0, seed=3)
TREE = core.default_tree()
LATENCY_BYTES = 3 * 8  # the pose payload ends with three latencies, which may differ

# frame orders: keypoints then HMD (paired), HMD then keypoints (the keypoints
# are 16.7 ms older than the next HMD frame, so never paired), HMD alone
ORDERS = ("keypoints_first", "hmd_first", "hmd_only")


def _on_the_wire(t):
    """t seconds as an envelope's timestamp field carries them."""
    return round(t * 1e6) / 1e6


def _junk(kind):
    """Bytes the server refuses before it can read an envelope from them."""
    ping = net.encode(net.Envelope(net.Kind.PING, bytes(16), 0, 0.0, b"abc"))
    if kind == "magic":
        return b"XXXX" + ping[4:]
    if kind == "crc":
        return ping[:-1] + bytes([ping[-1] ^ 0xFF])
    body = ping[:4] + bytes([99]) + ping[5:-4]  # kind byte 99 names no Kind
    return body + zlib.crc32(body).to_bytes(4, "little")


class _Input:
    """An input client and the in-process session that mirrors it."""

    def __init__(self, client, predictor):
        self.client = client
        self.mirror = pipeline.PipelineSession(CONFIG, TREE, predictor)
        self.frame = 0  # next index into WALK
        self.keypoints = None  # latest (t, z, zeta) sent
        self.sensor_sent = False
        self.results = 0
        self.renders = []


class ServerMachine(RuleBasedStateMachine):
    predictor = pipeline.build_predictor(CONFIG, TREE)

    def __init__(self):
        super().__init__()
        self.server = net.Server(("127.0.0.1", 0), {MODEL: CONFIG})
        self.inputs = []

    def _client(self):
        return net.Client(*self.server.address, timeout=TIMEOUT)

    def _pick(self, index):
        return self.inputs[index % len(self.inputs)]

    # --- expectations ---------------------------------------------------------

    def _exchange(self, inp, order):
        """Send inp's next frame in the given order and check its pose, at the
        input client and at every render client watching it."""
        i = inp.frame
        inp.frame += 1
        head, left, right = WALK.head[i], WALK.left[i], WALK.right[i]
        keypoints = (head.timestamp, WALK.keypoints_cam[i], WALK.visibility[i].astype(np.float64))
        if order == "keypoints_first":
            inp.client.send_keypoints(*keypoints)
            inp.keypoints = keypoints
        inp.client.send_hmd(head, left, right)
        paired = None
        if inp.keypoints is not None and abs(inp.keypoints[0] - head.timestamp) <= net.PAIRING_WINDOW:
            paired = inp.keypoints[1:]
        if order == "hmd_first":
            inp.client.send_keypoints(*keypoints)
            inp.keypoints = keypoints
        inp.sensor_sent = True
        pose = inp.mirror.process_frame(head, left, right, paired).pose
        want = net.encode_pose_payload(pose.rotations, pose.positions, [0.0] * 3)[:-LATENCY_BYTES]
        for receiver in [inp.client, *inp.renders]:
            env = receiver.recv()
            assert env.kind == net.Kind.POSE_RESULT
            assert (env.session_id, env.sequence, env.timestamp) == (
                inp.client.session_id, inp.results, _on_the_wire(head.timestamp))
            assert env.payload[:-LATENCY_BYTES] == want
        inp.results += 1

    def _refused(self, client, code, session_id=None):
        """client reads one ERROR with the given code, then end of stream."""
        env = client.recv()
        assert env.kind == net.Kind.ERROR
        assert net.decode_error_payload(env.payload)[0] == code
        if session_id is not None:
            assert env.session_id == session_id
        assert client.recv() is None
        client.close()

    def _end(self, inp):
        """inp's connection is gone: its render clients read end of stream,
        and every other session still answers with its mirror's poses."""
        self.inputs.remove(inp)
        for render in inp.renders:
            assert render.recv() is None
            render.close()
        for other in self.inputs:
            if other.frame < FRAMES:
                self._exchange(other, "keypoints_first")

    # --- rules ----------------------------------------------------------------

    @precondition(lambda self: len(self.inputs) < 3)
    @rule()
    def hello(self):
        client = self._client()
        reply = client.hello(MODEL)
        assert (reply.kind, reply.session_id) == (net.Kind.HELLO, client.session_id)
        self.inputs.append(_Input(client, self.predictor))

    @precondition(lambda self: self.inputs)
    @rule(index=st.integers(0, 2))
    def hello_with_an_open_session_id(self, index):
        inp = self._pick(index)
        client = self._client()
        client.session_id = inp.client.session_id
        with pytest.raises(ConnectionError, match="already open"):
            client.hello(MODEL)
        assert client.recv() is None
        client.close()

    @precondition(lambda self: any(inp.frame < FRAMES for inp in self.inputs))
    @rule(index=st.integers(0, 2), order=st.sampled_from(ORDERS))
    def frame(self, index, order):
        inp = self._pick(index)
        if inp.frame < FRAMES:
            self._exchange(inp, order)

    @precondition(lambda self: any(inp.frame > 0 for inp in self.inputs))
    @rule(index=st.integers(0, 2))
    def stale_frame(self, index):
        """The previous frame again, under a new sequence number: the pipeline
        refuses it, and the session serves on."""
        inp = self._pick(index)
        if inp.frame == 0:
            return
        head = WALK.head[inp.frame - 1]
        inp.client.send_hmd(head, WALK.left[inp.frame - 1], WALK.right[inp.frame - 1])
        env = inp.client.recv()
        assert env.kind == net.Kind.ERROR
        assert net.decode_error_payload(env.payload)[0] == net.ERR_PIPELINE
        assert (env.session_id, env.sequence, env.timestamp) == (
            inp.client.session_id, inp.results, _on_the_wire(head.timestamp))

    @precondition(lambda self: any(inp.sensor_sent for inp in self.inputs))
    @rule(index=st.integers(0, 2))
    def non_increasing_sequence(self, index):
        inp = self._pick(index)
        if not inp.sensor_sent:
            return
        i = inp.frame - 1
        head = WALK.head[i]
        payload = net.encode_hmd_payload(head, WALK.left[i], WALK.right[i])
        env = net.Envelope(net.Kind.HMD_FRAME, inp.client.session_id, 0, head.timestamp, payload)
        inp.client.sock.sendall(net.encode(env))
        self._refused(inp.client, net.ERR_PROTOCOL, inp.client.session_id)
        self._end(inp)

    @rule(index=st.integers(0, 3), kind=st.sampled_from(["magic", "crc", "kind"]))
    def malformed_bytes(self, index, kind):
        """Junk on a fresh connection (index 3) or on an input connection."""
        inp = self._pick(index) if index < 3 and self.inputs else None
        client = inp.client if inp else self._client()
        client.sock.sendall(_junk(kind))
        self._refused(client, net.ERR_PROTOCOL, net.NO_SESSION)
        if inp:
            self._end(inp)

    @rule()
    def frame_before_hello(self):
        client = self._client()
        client.send_hmd(WALK.head[0], WALK.left[0], WALK.right[0])
        self._refused(client, net.ERR_PROTOCOL, client.session_id)

    @precondition(lambda self: self.inputs)
    @rule(index=st.integers(0, 2))
    def subscribe_render(self, index):
        inp = self._pick(index)
        render = self._client()
        reply = render.subscribe(inp.client.session_id)
        assert (reply.kind, reply.session_id, reply.payload) == (
            net.Kind.PONG, inp.client.session_id, b"")
        inp.renders.append(render)

    @rule()
    def subscribe_to_a_missing_session(self):
        render = self._client()
        with pytest.raises(ConnectionError, match="no such session"):
            render.subscribe(uuid.uuid4().bytes)
        assert render.recv() is None
        render.close()

    @rule(index=st.integers(0, 5), payload=st.binary(max_size=8))
    def ping(self, index, payload):
        """PING on an input or a render connection, or a fresh one."""
        clients = [c for inp in self.inputs for c in [inp.client, *inp.renders]]
        client = clients[index % len(clients)] if clients else self._client()
        env = net.Envelope(net.Kind.PING, client.session_id, 7, 1.25, payload)
        client.sock.sendall(net.encode(env))
        pong = client.recv()
        assert pong.kind == net.Kind.PONG
        assert (pong.session_id, pong.sequence, pong.timestamp, pong.payload) == (
            env.session_id, 7, 1.25, payload)
        if not clients:
            client.close()

    @precondition(lambda self: self.inputs)
    @rule(index=st.integers(0, 2))
    def close_input(self, index):
        inp = self._pick(index)
        inp.client.close()
        self._end(inp)

    @precondition(lambda self: any(inp.renders for inp in self.inputs))
    @rule(index=st.integers(0, 2))
    def close_render(self, index):
        inp = self._pick(index)
        if inp.renders:
            inp.renders.pop().close()

    # --- invariants and teardown ------------------------------------------------

    @invariant()
    def every_open_session_is_counted(self):
        assert self.server.session_count() >= len(self.inputs)

    def teardown(self):
        clients = [c for inp in self.inputs for c in [inp.client, *inp.renders]]
        try:
            self.server.close()
            assert self.server.session_count() == 0
            for client in clients:
                assert client.recv() is None
        finally:
            for client in clients:
                client.close()


TestServerMachine = ServerMachine.TestCase
TestServerMachine.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None, derandomize=True)

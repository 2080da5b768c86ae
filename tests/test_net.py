import socket
import sys
import threading
import time

import numpy as np
import pytest

from epvr import eval as evalmod, net, neural, pipeline

TIMEOUT = 3.0
MODEL = "hmd"
# cheap per-frame work: heuristic rest pose, no keypoints, no optimizer
REGISTRY = {
    MODEL: pipeline.PipelineConfig(
        predictor="heuristic", use_keypoints=False, use_fusion=False, use_kpo=False
    )
}


@pytest.fixture(scope="module")
def walk():
    return evalmod.generate_sequence("walk", 0.1, 60.0, seed=3)


@pytest.fixture
def server():
    srv = net.Server(("127.0.0.1", 0), REGISTRY)
    yield srv
    srv.close()


def _client(server):
    return net.Client(*server.address, timeout=TIMEOUT)


def _send(client, kind, sequence, payload=b"", session_id=None, timestamp=0.0):
    env = net.Envelope(kind, session_id or client.session_id, sequence, timestamp, payload)
    client.sock.sendall(net.encode(env))


def _error_code(client):
    """Read until the server's ERROR envelope and return its code; the
    server then closes the connection."""
    while True:
        env = client.recv()
        assert env is not None, "connection closed without an ERROR envelope"
        if env.kind == net.Kind.ERROR:
            code, _ = net.decode_error_payload(env.payload)
            assert client.recv() is None
            return code


# --- pose payload ---------------------------------------------------------------


@pytest.mark.parametrize("joints", [1, 3, 22])
def test_pose_payload_round_trip_takes_joint_count_from_the_arrays(joints):
    rng = np.random.default_rng(joints)
    rots = rng.standard_normal((joints, 6))
    pos = rng.standard_normal((joints, 3))
    lat = [1.0, 2.0, 3.0]
    payload = net.encode_pose_payload(rots, pos, lat)
    assert len(payload) == 8 * (9 * joints + 3)
    got_rots, got_pos, got_lat = net.decode_pose_payload(payload)
    assert np.array_equal(got_rots, rots)
    assert np.array_equal(got_pos, pos)
    assert np.array_equal(got_lat, lat)


def test_pose_payload_rejects_lengths_that_fit_no_joint_count():
    payload = net.encode_pose_payload(np.zeros((22, 6)), np.zeros((22, 3)), [0.0] * 3)
    for bad in (payload[:-1], payload[:-8], payload + bytes(8), payload[:24], b""):
        with pytest.raises(ValueError):
            net.decode_pose_payload(bad)
    with pytest.raises(ValueError):
        net.encode_pose_payload(np.zeros((22, 6)), np.zeros((21, 3)), [0.0] * 3)
    with pytest.raises(ValueError):
        net.encode_pose_payload(np.zeros((22, 6)), np.zeros((22, 3)), [0.0] * 2)


def test_error_payload_must_hold_exactly_its_message():
    good = net.encode_error_payload(net.ERR_PROTOCOL, "no")
    assert net.decode_error_payload(good) == (net.ERR_PROTOCOL, "no")
    for bad in (b"\x01", good[:-1], good + b"x", net.encode_error_payload(1, "ab")[:4] + b"\xff\xfe"):
        with pytest.raises(ValueError):
            net.decode_error_payload(bad)


@pytest.mark.parametrize("call", [
    lambda client: client.hello(MODEL),
    lambda client: client.subscribe(bytes(16)),
], ids=["hello", "subscribe"])
def test_malformed_error_reply_is_a_connection_error(call):
    """A peer answering with a 1-byte ERROR payload fails the handshake with
    ConnectionError, not with the decoder's exception."""
    listener = socket.create_server(("127.0.0.1", 0))

    def fake_server():
        sock, _ = listener.accept()
        with sock:
            net.read_envelope(sock)
            sock.sendall(net.encode(net.Envelope(net.Kind.ERROR, net.NO_SESSION, 0, 0.0, b"\x01")))
            sock.recv(1)  # hold the connection open until the client closes it

    thread = threading.Thread(target=fake_server, daemon=True)
    thread.start()
    client = net.Client(*listener.getsockname(), timeout=TIMEOUT)
    try:
        with pytest.raises(ConnectionError, match="malformed ERROR"):
            call(client)
    finally:
        client.close()
        thread.join(TIMEOUT)
        listener.close()
    assert not thread.is_alive()


# --- frame buffer and render backlog ---------------------------------------------


def test_frame_buffer_keeps_the_newest_frame_and_counts_the_overwritten():
    buf = net.FrameBuffer()
    assert buf.take_latest(0.01) is None
    for frame in ("a", "b", "c"):
        buf.push(frame)
    assert buf.take_latest() == "c"
    assert buf.dropped == 2
    buf.push("d")
    assert buf.take_latest(0.0) == "d"
    assert buf.dropped == 2


def test_frame_buffer_close_wakes_a_blocked_take():
    buf = net.FrameBuffer()
    got = []
    reader = threading.Thread(target=lambda: got.append(buf.take_latest()), daemon=True)
    reader.start()
    time.sleep(0.05)  # let the reader block in take_latest
    assert reader.is_alive()
    buf.close()
    reader.join(TIMEOUT)
    assert not reader.is_alive() and got == [None]
    buf.push("late")
    assert buf.take_latest() is None


def test_render_subscriber_that_never_reads_is_dropped():
    ours, peer = socket.socketpair()
    ours.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    peer.settimeout(TIMEOUT)
    sub = net._Subscriber(net._Connection(ours))
    try:
        assert sub.offer(bytes(1 << 22))  # larger than the socket buffers: the drain blocks
        deadline = time.perf_counter() + TIMEOUT
        while not sub.queue.empty() and time.perf_counter() < deadline:
            time.sleep(0.01)
        assert all(sub.offer(b"result") for _ in range(net._SUBSCRIBER_BACKLOG))
        assert not sub.offer(b"result")
        assert not sub.alive
        while peer.recv(1 << 16):  # what was sent, then end of stream
            pass
    finally:
        ours.close()
        peer.close()


# --- transport ------------------------------------------------------------------


def test_both_ends_set_tcp_nodelay(server):
    client = _client(server)
    try:
        client.hello(MODEL)
        with server._lock:
            (conn,) = server._handlers
        for sock in (client.sock, conn.sock):
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
    finally:
        client.close()


def test_two_envelope_frame_is_not_held_for_a_delayed_ack(server):
    """A fused frame is KEYPOINT_FRAME then HMD_FRAME, two small writes.
    With Nagle's algorithm on, the second waits for the server's delayed ACK
    of the first, about 40 ms on Linux, on every frame."""
    seq = evalmod.generate_sequence("walk", 40 / 60.0, 60.0, seed=3)
    client = _client(server)
    try:
        client.hello(MODEL)
        round_trips = []
        for i in range(40):
            t0 = time.perf_counter()
            client.send_keypoints(seq.head[i].timestamp, seq.keypoints_cam[i],
                                  seq.visibility[i].astype(np.float64))
            client.send_hmd(seq.head[i], seq.left[i], seq.right[i])
            assert client.recv().kind == net.Kind.POSE_RESULT
            round_trips.append(time.perf_counter() - t0)
        assert np.median(round_trips[10:]) < 0.015
    finally:
        client.close()


# --- server lifecycle -----------------------------------------------------------


def test_registry_the_pipeline_rejects_is_refused_at_start():
    bad = pipeline.PipelineConfig(
        predictor="heuristic", use_keypoints=False, use_fusion=False, filter_min_cutoff=0.0,
    )
    with pytest.raises(ValueError, match="'bad'"):
        net.Server(("127.0.0.1", 0), {**REGISTRY, "bad": bad})
    srv = net.Server(("127.0.0.1", 0), REGISTRY)
    client = _client(srv)
    try:
        assert client.hello(MODEL).kind == net.Kind.HELLO
    finally:
        client.close()
        srv.close()


@pytest.mark.parametrize("field", ["joints", "keypoint_dim"])
def test_registry_with_weights_that_do_not_fit_the_tree_is_refused_at_start(tmp_path, field):
    net_cfg = neural.NetConfig(**{field: 5})
    path = tmp_path / "weights.epvr"
    neural.save_weights(path, *neural.init_weights(net_cfg, 0), net_cfg)
    bad = pipeline.PipelineConfig(weights_path=str(path))
    with pytest.raises(ValueError, match=f"'bad': weights built for {field} 5"):
        net.Server(("127.0.0.1", 0), {**REGISTRY, "bad": bad})


def test_ping_is_echoed_as_pong(server):
    client = _client(server)
    try:
        _send(client, net.Kind.PING, 5, b"abc", timestamp=1.5)
        env = client.recv()
        assert env.kind == net.Kind.PONG
        assert (env.session_id, env.sequence, env.timestamp, env.payload) == (
            client.session_id, 5, 1.5, b"abc"
        )
    finally:
        client.close()


def test_close_ends_every_session_and_wakes_clients(server, walk):
    client = _client(server)
    render = _client(server)
    try:
        client.hello(MODEL)
        render.subscribe(client.session_id)
        client.send_hmd(walk.head[0], walk.left[0], walk.right[0])
        assert client.recv().kind == net.Kind.POSE_RESULT
        assert render.recv().kind == net.Kind.POSE_RESULT
        assert server.session_count() == 1

        t0 = time.perf_counter()
        server.close()
        assert server.session_count() == 0
        assert client.recv() is None
        assert render.recv() is None
        assert time.perf_counter() - t0 < 1.0
    finally:
        client.close()
        render.close()


def test_close_is_safe_to_repeat(server):
    client = _client(server)
    try:
        client.hello(MODEL)
        server.close()
        server.close()
        assert server.session_count() == 0
    finally:
        client.close()


def test_pipeline_error_refuses_only_its_frame(server, walk):
    good, bad = _client(server), _client(server)
    try:
        good.hello(MODEL)
        bad.hello(MODEL)
        f = walk.head[0]
        bad.send_hmd(f, walk.left[0], walk.right[0])
        assert bad.recv().kind == net.Kind.POSE_RESULT
        # a new sequence number with the previous head timestamp passes the
        # wire checks but is a stale frame for the pipeline
        bad.send_hmd(f, walk.left[0], walk.right[0])
        env = bad.recv()
        assert env.kind == net.Kind.ERROR
        assert net.decode_error_payload(env.payload)[0] == net.ERR_PIPELINE
        assert env.sequence == 1 and env.timestamp == f.timestamp
        # the session that refused the frame serves the next one
        bad.send_hmd(walk.head[1], walk.left[1], walk.right[1])
        env = bad.recv()
        assert env.kind == net.Kind.POSE_RESULT and env.sequence == 1
        good.send_hmd(walk.head[1], walk.left[1], walk.right[1])
        assert good.recv().kind == net.Kind.POSE_RESULT
        assert server.session_count() == 2
    finally:
        good.close()
        bad.close()


def _read_to_end(sock):
    """Read envelopes until end of stream; fails on a read timeout."""
    while net.read_envelope(sock) is not None:
        pass


def test_close_leaves_no_server_thread(walk):
    """Concurrent close() calls each return once every connection is ended
    and every thread the server started has finished, also with threads
    switched as often as the interpreter allows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            _close_concurrently(walk)
    finally:
        sys.setswitchinterval(interval)


def _close_concurrently(walk):
    """One input session with a frame in flight, one render subscriber and
    one connection before HELLO; then eight close() calls at once."""
    before = set(threading.enumerate())
    srv = net.Server(("127.0.0.1", 0), REGISTRY)
    client, render = _client(srv), _client(srv)
    idle = socket.create_connection(srv.address, timeout=TIMEOUT)
    try:
        client.hello(MODEL)
        render.subscribe(client.session_id)
        client.send_hmd(walk.head[0], walk.left[0], walk.right[0])  # not waited for
        start = threading.Barrier(8)
        returned = []

        def close():
            start.wait(TIMEOUT)
            t0 = time.perf_counter()
            srv.close()
            returned.append(time.perf_counter() - t0)

        threads = [threading.Thread(target=close, daemon=True) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(TIMEOUT)
        assert len(returned) == 8 and max(returned) < 1.0
        assert srv.session_count() == 0
        for sock in (client.sock, render.sock, idle):
            _read_to_end(sock)
        assert [t for t in threading.enumerate() if t not in before and t not in threads] == []
    finally:
        client.close()
        render.close()
        idle.close()
        srv.close()


def test_close_ends_a_connection_whose_peer_does_not_read():
    """A handler blocked writing to a peer that never reads is ended too,
    once the grace period for the frame in hand has passed."""
    before = set(threading.enumerate())
    srv = net.Server(("127.0.0.1", 0), REGISTRY)
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(TIMEOUT)
    closer = threading.Thread(target=srv.close, daemon=True)
    try:
        sock.connect(srv.address)
        # the PONG echoing this payload outgrows the socket buffers
        sock.sendall(net.encode(net.Envelope(net.Kind.PING, bytes(16), 0, 0.0, bytes(8 << 20))))
        time.sleep(0.2)  # let the handler read the PING and block writing the PONG
        t0 = time.perf_counter()
        closer.start()
        closer.join(net._DRAIN_TIMEOUT + 3.0)
        assert not closer.is_alive()
        assert time.perf_counter() - t0 >= net._DRAIN_TIMEOUT
        assert [t for t in threading.enumerate() if t not in before and t is not closer] == []
    finally:
        sock.close()


# --- refusals -------------------------------------------------------------------


def test_sensor_frame_before_hello_is_refused(server, walk):
    client = _client(server)
    try:
        client.send_hmd(walk.head[0], walk.left[0], walk.right[0])
        assert _error_code(client) == net.ERR_PROTOCOL
    finally:
        client.close()


def test_second_hello_is_refused(server):
    client = _client(server)
    try:
        client.hello(MODEL)
        _send(client, net.Kind.HELLO, 1, net.encode_hello(MODEL))
        assert _error_code(client) == net.ERR_PROTOCOL
    finally:
        client.close()


def test_unknown_model_is_refused(server):
    client = _client(server)
    try:
        _send(client, net.Kind.HELLO, 0, net.encode_hello("no-such-model"))
        assert _error_code(client) == net.ERR_UNKNOWN_MODEL
    finally:
        client.close()


def test_non_increasing_sequence_is_refused(server, walk):
    client = _client(server)
    try:
        client.hello(MODEL)
        payload = net.encode_hmd_payload(walk.head[0], walk.left[0], walk.right[0])
        _send(client, net.Kind.HMD_FRAME, 5, payload)
        _send(client, net.Kind.HMD_FRAME, 5, payload)
        assert _error_code(client) == net.ERR_PROTOCOL
    finally:
        client.close()


def test_subscribe_to_missing_session_is_refused(server):
    client = _client(server)
    try:
        _send(client, net.Kind.SUBSCRIBE_RENDER, 0, session_id=bytes(range(16)))
        assert _error_code(client) == net.ERR_PROTOCOL
    finally:
        client.close()


def test_corrupted_crc_is_refused(server):
    client = _client(server)
    try:
        raw = bytearray(net.encode(net.Envelope(net.Kind.PING, client.session_id, 0, 0.0)))
        raw[-1] ^= 0xFF
        client.sock.sendall(bytes(raw))
        env = client.recv()
        assert env.kind == net.Kind.ERROR and env.session_id == net.NO_SESSION
        assert net.decode_error_payload(env.payload)[0] == net.ERR_PROTOCOL
        assert client.recv() is None
    finally:
        client.close()


def test_refused_connection_is_closed_by_the_server(server):
    sock = socket.create_connection(server.address, timeout=TIMEOUT)
    try:
        sock.sendall(b"XXXX" + bytes(net.HEADER_LEN))
        env = net.read_envelope(sock)
        assert env.kind == net.Kind.ERROR
        assert net.read_envelope(sock) is None
    finally:
        sock.close()


# --- malformed payloads ---------------------------------------------------------


def _hello_then(client, kind, payload):
    client.hello(MODEL)
    _send(client, kind, 1, payload)


@pytest.mark.parametrize("payload", [
    b"\x05",  # no room for the length prefix
    net.encode_hello(MODEL)[:-1],  # prefix promises one byte more
    net.encode_hello(MODEL) + b"x",  # one byte the prefix does not cover
    b"\x02\x00\xff\xfe",  # not UTF-8
])
def test_malformed_hello_is_refused(server, payload):
    client = _client(server)
    try:
        _send(client, net.Kind.HELLO, 0, payload)
        assert _error_code(client) == net.ERR_PROTOCOL
        assert server.session_count() == 0
    finally:
        client.close()


def test_malformed_hmd_frame_is_refused(server, walk):
    client = _client(server)
    try:
        _hello_then(client, net.Kind.HMD_FRAME, bytes(10))
        assert _error_code(client) == net.ERR_PROTOCOL
    finally:
        client.close()
    good = net.encode_hmd_payload(walk.head[0], walk.left[0], walk.right[0])
    for bad in (good[:-1], good + bytes(8), b""):
        with pytest.raises(ValueError):
            net.decode_hmd_payload(bad)


def test_malformed_keypoint_frame_is_refused(server):
    good = net.encode_keypoint_payload(np.zeros((22, 3)), np.ones(22))
    client = _client(server)
    try:
        _hello_then(client, net.Kind.KEYPOINT_FRAME, good[:-8])
        assert _error_code(client) == net.ERR_PROTOCOL
    finally:
        client.close()
    for bad in (good[:3], good + bytes(32), b"\xff\xff\xff\xff"):
        with pytest.raises(ValueError):
            net.decode_keypoint_payload(bad)


# --- shutdown and the client's end of stream -------------------------------------


def test_close_ends_connections_that_never_sent_hello(server):
    sock = socket.create_connection(server.address, timeout=TIMEOUT)
    try:
        time.sleep(0.05)  # let the server's handler block in its first read
        t0 = time.perf_counter()
        server.close()
        assert net.read_envelope(sock) is None
        assert time.perf_counter() - t0 < 1.0
    finally:
        sock.close()


def test_recv_tells_a_slow_server_from_a_closed_one(server):
    client = net.Client(*server.address, timeout=0.2)
    try:
        client.hello(MODEL)
        with pytest.raises(TimeoutError):
            client.recv()  # open session, no frame sent: nothing to read
        server.close()
        assert client.recv() is None
    finally:
        client.close()

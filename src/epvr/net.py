"""Cross-device transmission: framed binary protocol, latest-wins frame
buffer, and a multi-client inference server.

Envelope wire layout (little-endian, detailed byte-exactly in
docs/protocol.md):

    magic "EPN1" | kind u8 | session id (16 bytes) | sequence u64 |
    timestamp u64 (microseconds) | payload length u32 | payload |
    CRC-32 u32 over everything before it

One handler thread per connection reads its envelopes and owns what the
connection opens, an input session or a render subscription: the end of
the handler is the only place either ends, at end of stream and at
Server.close() alike. Each session holds one sequential pipeline worker.
Sensor frames land in a single-slot latest-wins buffer: a new frame
overwrites an unconsumed one (counted, not an error), so server memory
stays bounded no matter how fast a client sends. Pose results go back to
the input client and to any render subscribers of the same session; a
subscriber that cannot keep up is dropped after a bounded backlog.

Both ends set TCP_NODELAY. A fused frame is two small writes, KEYPOINT_FRAME
then HMD_FRAME; with Nagle's algorithm on, the second waits in the sender's
kernel until the peer's delayed ACK of the first (about 40 ms on Linux).
"""

from __future__ import annotations

import dataclasses
import math
import queue
import socket
import struct
import threading
import time
import uuid
import zlib
from enum import IntEnum

import numpy as np

from . import core, pipeline
from .errors import (
    BadMagic,
    BindFailure,
    CrcMismatch,
    OversizedFrame,
    TruncatedFrame,
    UnknownKind,
    UnknownModel,
)

MAGIC = b"EPN1"
HEADER_LEN = 4 + 1 + 16 + 8 + 8 + 4
CRC_LEN = 4
# largest payload a header may declare: a 22-joint POSE_RESULT is 1,608
# bytes, a hello or an error (u16-length text) at most 65,539
MAX_PAYLOAD = 1 << 20
_MAX_MICROS = (1 << 64) - 4096  # decode's cap: the seconds of the top 3,071 fields encode as 2**64

PAIRING_WINDOW = 0.008  # seconds between HMD and keypoint timestamps

ERR_UNKNOWN_MODEL = 1
ERR_PROTOCOL = 2
ERR_PIPELINE = 3

NO_SESSION = bytes(16)  # session id of errors raised before an envelope could be read


class Kind(IntEnum):
    HELLO = 1
    HMD_FRAME = 2
    KEYPOINT_FRAME = 3
    POSE_RESULT = 4
    SUBSCRIBE_RENDER = 5
    ERROR = 6
    PING = 7
    PONG = 8


@dataclasses.dataclass(frozen=True)
class Envelope:
    kind: Kind
    session_id: bytes
    sequence: int
    timestamp: float
    payload: bytes = b""

    def __post_init__(self):
        if len(self.session_id) != 16:
            raise ValueError("session id must be 16 bytes")
        if self.sequence < 0:
            raise ValueError("sequence must be nonnegative")
        if len(self.payload) > MAX_PAYLOAD:
            raise ValueError(
                f"{len(self.payload)}-byte payload exceeds the {MAX_PAYLOAD}-byte limit")
        _micros(self.timestamp)


def _micros(t: float) -> int:
    """t seconds as the u64 microseconds of the timestamp field, or ValueError."""
    scaled = float(t) * 1e6
    micros = round(scaled) if math.isfinite(scaled) else -1
    if not 0 <= micros < 1 << 64:
        raise ValueError(f"timestamp {t} s does not fit the u64-microsecond field")
    return micros


def encode(env: Envelope) -> bytes:
    micros = _micros(env.timestamp)
    body = (
        MAGIC
        + struct.pack("<B", int(env.kind))
        + env.session_id
        + struct.pack("<QQI", env.sequence, micros, len(env.payload))
        + env.payload
    )
    return body + struct.pack("<I", zlib.crc32(body))


def _payload_len(header) -> int:
    """The payload length a header declares; OversizedFrame beyond MAX_PAYLOAD."""
    (n,) = struct.unpack_from("<I", header, HEADER_LEN - 4)
    if n > MAX_PAYLOAD:
        raise OversizedFrame(f"declared {n}-byte payload exceeds the {MAX_PAYLOAD}-byte limit")
    return n


def decode(buf: bytes) -> Envelope:
    """Parse one envelope from the start of buf (trailing bytes ignored)."""
    if len(buf) < 4:
        raise TruncatedFrame(f"{len(buf)} bytes is shorter than the magic")
    if buf[:4] != MAGIC:
        raise BadMagic(f"magic bytes {buf[:4]!r}")
    if len(buf) < HEADER_LEN:
        raise TruncatedFrame(f"{len(buf)} bytes is shorter than the header")
    kind_byte = buf[4]
    session_id = bytes(buf[5:21])
    sequence, micros = struct.unpack_from("<QQ", buf, 21)
    payload_len = _payload_len(buf)
    total = HEADER_LEN + payload_len + CRC_LEN
    if len(buf) < total:
        raise TruncatedFrame(f"declared {payload_len}-byte payload exceeds buffer")
    body = buf[: HEADER_LEN + payload_len]
    (crc,) = struct.unpack_from("<I", buf, HEADER_LEN + payload_len)
    if zlib.crc32(body) != crc:
        raise CrcMismatch("envelope CRC-32 mismatch")
    try:
        kind = Kind(kind_byte)
    except ValueError:
        raise UnknownKind(f"kind byte {kind_byte}") from None
    seconds = min(micros, _MAX_MICROS) / 1e6  # seconds that encode can carry back
    return Envelope(kind, session_id, sequence, seconds, bytes(buf[HEADER_LEN:HEADER_LEN + payload_len]))


# ---------------------------------------------------------------------------
# payload bodies (all floats are 8-byte little-endian IEEE doubles)

_POSE_FIELDS = 1 + 3 + 6 + 3 + 6  # t, p, r6, v, w6
_POSE_LATENCIES = 3  # predict, kpo, total (microseconds)


def _encode_text(text: str) -> bytes:
    """u16 byte length, then the UTF-8 bytes of text."""
    raw = text.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _decode_text(payload: bytes, what: str) -> str:
    """Inverse of _encode_text; ValueError unless payload holds exactly one text."""
    if len(payload) < 2:
        raise ValueError(f"{len(payload)}-byte {what} has no length prefix")
    (n,) = struct.unpack_from("<H", payload, 0)
    if len(payload) != 2 + n:
        raise ValueError(f"{len(payload)}-byte {what} does not hold a {n}-byte text")
    return payload[2:].decode("utf-8")  # UnicodeDecodeError is a ValueError


def encode_hello(model: str) -> bytes:
    return _encode_text(model)


def decode_hello(payload: bytes) -> str:
    return _decode_text(payload, "hello payload")


def encode_hmd_payload(head, left, right) -> bytes:
    rows = [
        np.concatenate([[p.timestamp], p.position, p.orientation,
                        p.linear_velocity, p.angular_velocity])
        for p in (head, left, right)
    ]
    return np.asarray(rows, "<f8").tobytes()


def decode_hmd_payload(payload: bytes):
    """(head, left, right); ValueError on another length or on a device
    timestamp that the envelope of a reply could not carry."""
    step = _POSE_FIELDS * 8
    if len(payload) != 3 * step:
        raise ValueError(f"HMD payload must be {3 * step} bytes, got {len(payload)}")
    rows = np.frombuffer(payload, "<f8").reshape(3, _POSE_FIELDS)
    for t in rows[:, 0]:
        _micros(t)
    return tuple(
        core.DevicePose(float(r[0]), r[1:4], r[4:10], r[10:13], r[13:19]) for r in rows
    )


def encode_keypoint_payload(z, zeta) -> bytes:
    rows = np.concatenate([np.asarray(z, "<f8"), np.asarray(zeta, "<f8")[:, None]], axis=1)
    return struct.pack("<I", len(rows)) + rows.tobytes()


def decode_keypoint_payload(payload: bytes):
    if len(payload) < 4:
        raise ValueError(f"{len(payload)}-byte keypoint payload has no joint count")
    (j,) = struct.unpack_from("<I", payload, 0)
    if len(payload) != 4 + 32 * j:
        raise ValueError(f"{len(payload)}-byte keypoint payload does not hold {j} joints")
    rows = np.frombuffer(payload, "<f8", offset=4).reshape(j, 4).astype(np.float64)
    return rows[:, :3], rows[:, 3]


def encode_pose_payload(rotations, positions, latencies) -> bytes:
    rotations = np.asarray(rotations, dtype=np.float64).reshape(-1, 6)
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    latencies = np.asarray(latencies, dtype=np.float64).ravel()
    if len(rotations) != len(positions) or len(latencies) != _POSE_LATENCIES:
        raise ValueError(
            f"{len(rotations)} rotations, {len(positions)} positions and "
            f"{len(latencies)} latencies do not form a pose result"
        )
    return np.concatenate([rotations.ravel(), positions.ravel(), latencies]).astype("<f8").tobytes()


def decode_pose_payload(payload: bytes):
    """(rotations (J, 6), positions (J, 3), latencies (3,)); J follows from
    the payload length, which must be 8 * (9 J + 3) bytes with J >= 1."""
    doubles, rem = divmod(len(payload), 8)
    joints, extra = divmod(doubles - _POSE_LATENCIES, 9)
    if rem or extra or joints < 1:
        raise ValueError(f"{len(payload)}-byte pose payload fits no joint count")
    vals = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    rotations = vals[: 6 * joints].reshape(joints, 6)
    positions = vals[6 * joints: 9 * joints].reshape(joints, 3)
    return rotations, positions, vals[9 * joints:]


def encode_error_payload(code: int, message: str) -> bytes:
    return struct.pack("<H", code) + _encode_text(message)


def decode_error_payload(payload: bytes):
    """(code, message); ValueError unless the u16 code is followed by exactly one text."""
    if len(payload) < 2:
        raise ValueError(f"{len(payload)}-byte error payload has no code")
    return struct.unpack_from("<H", payload, 0)[0], _decode_text(payload[2:], "error message")


# ---------------------------------------------------------------------------
# latest-wins frame buffer


class FrameBuffer:
    """Single-slot buffer: push overwrites, take empties. One writer, one
    reader; close wakes the reader for good."""

    def __init__(self):
        self._cond = threading.Condition()
        self._frame = None
        self._dropped = 0
        self._closed = False

    @property
    def dropped(self):
        with self._cond:
            return self._dropped

    def push(self, frame):
        with self._cond:
            if self._frame is not None:
                self._dropped += 1
            self._frame = frame
            self._cond.notify()

    def close(self):
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def take_latest(self, timeout: float | None = None):
        """Newest unconsumed frame, waiting up to timeout seconds for one
        (without limit when None). None on timeout, and always once the
        buffer is closed."""
        with self._cond:
            self._cond.wait_for(lambda: self._frame is not None or self._closed, timeout)
            if self._closed:
                return None
            frame, self._frame = self._frame, None
            return frame


# ---------------------------------------------------------------------------
# server

_SUBSCRIBER_BACKLOG = 64
_DRAIN_TIMEOUT = 2.0  # seconds an ending session waits for the frame in hand


def _recv_exact(sock, n):
    """n bytes, or None at end of stream (a reset by the peer included);
    any other OSError, a socket timeout included, propagates."""
    chunks = []
    remaining = n
    while remaining > 0:
        try:
            chunk = sock.recv(remaining)  # at most MAX_PAYLOAD + CRC_LEN
        except ConnectionResetError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_envelope(sock):
    """Read exactly one framed envelope from a stream socket (None at end
    of stream; a socket timeout raises TimeoutError)."""
    header = _recv_exact(sock, HEADER_LEN)
    if header is None:
        return None
    if header[:4] != MAGIC:
        raise BadMagic(f"stream desynchronized: {header[:4]!r}")
    rest = _recv_exact(sock, _payload_len(header) + CRC_LEN)
    if rest is None:
        return None
    return decode(header + rest)


class _Connection:
    """Socket plus a send lock so worker and handler threads can both write.
    Any thread may shut it down; only its handler closes it."""

    def __init__(self, sock):
        self.sock = sock
        self._lock = threading.Lock()

    def send(self, raw: bytes) -> bool:
        with self._lock:
            try:
                self.sock.sendall(raw)
                return True
            except OSError:
                return False

    def send_error(self, code: int, message: str, session_id: bytes = NO_SESSION,
                   sequence: int = 0, timestamp: float = 0.0) -> bool:
        return self.send(encode(Envelope(
            Kind.ERROR, session_id, sequence, timestamp, encode_error_payload(code, message)
        )))

    def shutdown(self, how=socket.SHUT_RDWR):
        """Wake a blocked recv (and, with SHUT_RDWR, a blocked send); the
        handler's next read is end of stream."""
        try:
            self.sock.shutdown(how)
        except OSError:  # already shut down, or closed
            pass

    def close(self):
        self.shutdown()
        with self._lock:  # a send in flight has returned: the shutdown woke it
            self.sock.close()


class _Subscriber:
    """Render client fan-out with a bounded backlog."""

    def __init__(self, conn: _Connection):
        self.conn = conn
        self.queue = queue.Queue(maxsize=_SUBSCRIBER_BACKLOG)
        self.alive = True
        self._thread = threading.Thread(target=self._drain, daemon=True)
        self._thread.start()

    def offer(self, raw: bytes) -> bool:
        """Queue one result; a full backlog drops the subscriber."""
        try:
            self.queue.put_nowait(raw)
            return True
        except queue.Full:
            self.stop()
            return False

    def _drain(self):
        while self.alive:
            raw = self.queue.get()
            if raw is None:
                return
            if not self.conn.send(raw):
                self.alive = False

    def stop(self):
        """End the drain thread and shut the connection down, so that its
        handler reads end of stream and closes it."""
        self.alive = False
        try:
            self.queue.put_nowait(None)
        except queue.Full:  # the drain thread is not waiting on the queue
            pass
        self.conn.shutdown()
        self._thread.join()


class _ServerSession:
    """One input connection's pipeline: its handler pushes frames, and a
    worker thread answers them until the buffer is closed."""

    def __init__(self, session_id, conn, pipeline_session: pipeline.PipelineSession):
        self.session_id = session_id
        self.conn = conn
        self.pipeline = pipeline_session
        self.buffer = FrameBuffer()
        self.latest_keypoints = None  # (t, z, zeta)
        self.subscribers = []
        self.sub_lock = threading.Lock()
        self.result_seq = 0
        self.last_sensor_seq = -1
        self.worker = threading.Thread(target=self._work, daemon=True)
        self.worker.start()

    def push_sensor(self, head, left, right):
        kp = None
        latest = self.latest_keypoints
        if latest is not None and abs(latest[0] - head.timestamp) <= PAIRING_WINDOW:
            kp = (latest[1], latest[2])
        self.buffer.push((head, left, right, kp))

    def _work(self):
        while (bundle := self.buffer.take_latest()) is not None:
            head, left, right, kp = bundle
            try:
                result = self.pipeline.process_frame(head, left, right, kp)
            except Exception as e:  # refuses this frame; the session serves the next
                self.conn.send_error(ERR_PIPELINE, f"{type(e).__name__}: {e}", self.session_id,
                                     self.result_seq, head.timestamp)
                continue
            lat, pose = result.latencies, result.pose
            payload = encode_pose_payload(pose.rotations, pose.positions,
                                          [lat["predict"], lat["kpo"], lat["total"]])
            raw = encode(Envelope(Kind.POSE_RESULT, self.session_id, self.result_seq,
                                  head.timestamp, payload))
            self.result_seq += 1
            self.conn.send(raw)
            with self.sub_lock:
                self.subscribers = [s for s in self.subscribers if s.alive and s.offer(raw)]

    def add_subscriber(self, sub: _Subscriber):
        with self.sub_lock:
            self.subscribers.append(sub)


class Server:
    """Stream server hosting named models: one handler thread per
    connection, one pipeline worker per session."""

    def __init__(self, address, registry: dict):
        """registry maps model name -> PipelineConfig."""
        host, port = address
        self._tree = core.default_tree()
        self._models = {}  # name -> (config, predictor); sessions share the predictor
        for name, config in registry.items():
            # a config the pipeline rejects is refused here, not by a handler thread at HELLO
            try:
                predictor = pipeline.build_predictor(config, self._tree)
                pipeline.PipelineSession(config, self._tree, predictor)
            except ValueError as e:
                raise ValueError(f"model {name!r}: {e}") from None
            self._models[name] = (config, predictor)
        self._sessions = {}  # session id -> _ServerSession, for SUBSCRIBE_RENDER
        self._handlers = {}  # every open connection -> the handler thread that owns it
        self._lock = threading.Lock()
        try:
            self._listener = socket.create_server((host, port))
        except OSError as e:
            raise BindFailure(f"cannot bind {host}:{port}: {e}") from None
        self.address = self._listener.getsockname()
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def _accept_loop(self):
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # the listener was shut down by close()
                return
            conn = _Connection(sock)
            handler = threading.Thread(target=self._handle, args=(conn,), daemon=True)
            with self._lock:
                self._handlers[conn] = handler
            handler.start()

    def _handle(self, conn):
        """Serve one connection until end of stream or a refusal, then end
        what it opened; the finally is the only place a session ends."""
        session = None
        subscriptions = []
        env = None

        def refuse(code, message):  # answers the envelope being handled
            conn.send_error(code, message, env.session_id, timestamp=env.timestamp)

        try:
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                try:
                    env = read_envelope(conn.sock)
                except (BadMagic, CrcMismatch, TruncatedFrame, UnknownKind) as e:
                    conn.send_error(ERR_PROTOCOL, str(e))
                    return
                except OSError:  # a failed read ends the connection like end of stream
                    return
                if env is None:
                    return
                if env.kind == Kind.HELLO:
                    if session is not None:
                        refuse(ERR_PROTOCOL, "session already open")
                        return
                    try:
                        model = decode_hello(env.payload)
                    except ValueError as e:
                        refuse(ERR_PROTOCOL, str(e))
                        return
                    if model not in self._models:
                        refuse(ERR_UNKNOWN_MODEL, f"unknown model {model!r}")
                        return
                    config, predictor = self._models[model]
                    # one step under the lock: two HELLOs cannot both take an id
                    with self._lock:
                        if env.session_id not in self._sessions:
                            session = _ServerSession(
                                env.session_id, conn,
                                pipeline.PipelineSession(config, self._tree, predictor),
                            )
                            self._sessions[env.session_id] = session
                    if session is None:
                        refuse(ERR_PROTOCOL, "session id already open")
                        return
                    conn.send(encode(Envelope(Kind.HELLO, env.session_id, 0, env.timestamp)))
                elif env.kind == Kind.SUBSCRIBE_RENDER:
                    # under the lock: a session leaves the table before it
                    # stops its subscribers, so none joins an ended session
                    with self._lock:
                        target = self._sessions.get(env.session_id)
                        if target is not None:
                            subscriptions.append(_Subscriber(conn))
                            target.add_subscriber(subscriptions[-1])
                    if target is None:
                        refuse(ERR_PROTOCOL, "no such session")
                        return
                    conn.send(encode(Envelope(Kind.PONG, env.session_id, 0, env.timestamp)))
                elif env.kind == Kind.PING:
                    conn.send(encode(dataclasses.replace(env, kind=Kind.PONG)))
                elif env.kind in (Kind.HMD_FRAME, Kind.KEYPOINT_FRAME):
                    if session is None:
                        refuse(ERR_PROTOCOL, "HELLO first")
                        return
                    if env.sequence <= session.last_sensor_seq:
                        refuse(ERR_PROTOCOL, "sequence numbers must increase")
                        return
                    session.last_sensor_seq = env.sequence
                    try:
                        if env.kind == Kind.HMD_FRAME:
                            session.push_sensor(*decode_hmd_payload(env.payload))
                        else:
                            session.latest_keypoints = (
                                env.timestamp, *decode_keypoint_payload(env.payload)
                            )
                    except ValueError as e:
                        refuse(ERR_PROTOCOL, str(e))
                        return
                else:
                    return
        finally:
            if session is not None:
                session.buffer.close()
                session.worker.join(_DRAIN_TIMEOUT)  # the frame in hand is still answered
                with self._lock:
                    self._sessions.pop(session.session_id, None)
                with session.sub_lock:
                    subscriptions += session.subscribers
                    session.subscribers = []
            for sub in subscriptions:
                sub.stop()
            with self._lock:
                del self._handlers[conn]
            conn.close()

    def session_count(self):
        with self._lock:
            return len(self._sessions)

    def close(self):
        """Stop accepting, then end every connection's reads: each handler
        ends what its connection opened exactly as at end of stream. Returns
        once the accept thread and every handler have finished."""
        try:
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        except OSError:  # already closed
            pass
        self._accept_thread.join()
        self._listener.close()
        with self._lock:
            handlers = list(self._handlers.items())
            for conn, _ in handlers:
                conn.shutdown(socket.SHUT_RD)  # writes stay open for the frame in hand
        deadline = time.monotonic() + _DRAIN_TIMEOUT + 1.0
        for conn, handler in handlers:
            handler.join(max(0.0, deadline - time.monotonic()))
            if handler.is_alive():  # blocked writing to a peer that does not read
                conn.shutdown()
                handler.join()


# ---------------------------------------------------------------------------
# client


def _error_of(env):
    """(code, message) of an ERROR envelope; a malformed one is a ConnectionError."""
    try:
        return decode_error_payload(env.payload)
    except ValueError as e:
        raise ConnectionError(f"malformed ERROR from the server: {e}") from None


class Client:
    """Input or render client speaking the envelope protocol."""

    def __init__(self, host, port, timeout: float = 10.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.session_id = uuid.uuid4().bytes
        self._seq = 0

    def _send(self, kind, timestamp, payload=b"", session_id=None):
        env = Envelope(kind, session_id or self.session_id, self._seq, timestamp, payload)
        self._seq += 1
        self.sock.sendall(encode(env))
        return env

    def hello(self, model: str):
        self._send(Kind.HELLO, 0.0, encode_hello(model))
        env = self.recv()
        if env is None:
            raise ConnectionError("server closed during handshake")
        if env.kind == Kind.ERROR:
            code, msg = _error_of(env)
            if code == ERR_UNKNOWN_MODEL:
                raise UnknownModel(msg)
            raise ConnectionError(msg)
        return env

    def subscribe(self, session_id: bytes):
        self._send(Kind.SUBSCRIBE_RENDER, 0.0, session_id=session_id)
        env = self.recv()
        if env is not None and env.kind == Kind.ERROR:
            raise ConnectionError(_error_of(env)[1])
        return env

    def send_hmd(self, head, left, right):
        self._send(Kind.HMD_FRAME, head.timestamp, encode_hmd_payload(head, left, right))

    def send_keypoints(self, t, z, zeta):
        self._send(Kind.KEYPOINT_FRAME, t, encode_keypoint_payload(z, zeta))

    def recv(self):
        """Next envelope; None once the server has closed the connection.
        Raises TimeoutError when nothing arrives within the client timeout."""
        return read_envelope(self.sock)

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass

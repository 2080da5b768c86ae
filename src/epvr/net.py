"""Cross-device transmission: framed binary protocol, latest-wins frame
buffer, and a multi-client inference server.

Envelope wire layout (little-endian, detailed byte-exactly in
docs/protocol.md):

    magic "EPN1" | kind u8 | session id (16 bytes) | sequence u64 |
    timestamp u64 (microseconds) | payload length u32 | payload |
    CRC-32 u32 over everything before it

One thread serves every connection: a selectors loop owns the listener,
every connection and every session. Each turn reads every readable
connection and frames its bytes into envelopes, then runs at most one frame
per session, then ends the connections that ended or were refused during
the turn, with what they opened. Sensor frames land in a single-slot
latest-wins buffer: a new frame overwrites an unconsumed one (counted, not
an error), so server memory stays bounded no matter how fast a client
sends. Every send is tried at once and only the unsent rest is queued; a
connection with unsent output is not read until it drains. Pose results go
to the input client and to any render subscribers of the same session; a
result that would leave more than 64 envelopes unsent on a subscriber's
connection drops that subscriber. A subscribed connection's kernel send
buffer is kept small, so that limit also bounds how far behind a subscriber
may fall. An error the loop did not expect while serving one connection
ends that connection alone and is logged.

Both ends set TCP_NODELAY. A fused frame is two small writes, KEYPOINT_FRAME
then HMD_FRAME; with Nagle's algorithm on, the second waits in the sender's
kernel until the peer's delayed ACK of the first (about 40 ms on Linux).
"""

from __future__ import annotations

import collections
import dataclasses
import logging
import math
import selectors
import socket
import struct
import threading
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
MAX_ERROR_TEXT = 1024  # bytes of UTF-8 the server sends of an ERROR message at most

_log = logging.getLogger(__name__)


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
    """Single-slot buffer: push overwrites and counts the frame it replaces,
    take empties. The server's one thread owns it."""

    def __init__(self):
        self._frame = None
        self.dropped = 0

    def push(self, frame):
        if self._frame is not None:
            self.dropped += 1
        self._frame = frame

    def take_latest(self, timeout: float | None = None):
        """The newest unconsumed frame, or None; returns at once. timeout is
        unused: it stays for loopbench's tracer, which wraps this method with
        that signature until ROADMAP item 8 retires it."""
        frame, self._frame = self._frame, None
        return frame


# ---------------------------------------------------------------------------
# server

_SUBSCRIBER_BACKLOG = 64  # unsent envelopes a render subscriber may hold
# A subscriber's kernel send buffer, which Linux doubles; left to autotuning it
# grows to megabytes on loopback and holds about 1,700 results before the
# backlog above starts to fill.
_SUBSCRIBER_SNDBUF = 4096
_RECV_BYTES = 1 << 16  # what one turn reads from one connection at most


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


def _envelope_len(header) -> int:
    """Bytes of the envelope a buffered header starts; BadMagic on a wrong
    magic and OversizedFrame on a length over the limit, before any body."""
    if header[:4] != MAGIC:
        raise BadMagic(f"stream desynchronized: {bytes(header[:4])!r}")
    return HEADER_LEN + _payload_len(header) + CRC_LEN


def read_envelope(sock):
    """Read exactly one framed envelope from a blocking stream socket (None
    at end of stream; a socket timeout raises TimeoutError)."""
    header = _recv_exact(sock, HEADER_LEN)
    if header is None:
        return None
    rest = _recv_exact(sock, _envelope_len(header) - HEADER_LEN)
    if rest is None:
        return None
    return decode(header + rest)


def _error(code: int, message: str, session_id: bytes = NO_SESSION,
           sequence: int = 0, timestamp: float = 0.0) -> bytes:
    """An encoded ERROR; a message over MAX_ERROR_TEXT bytes is cut there,
    at a character boundary, so that any message fits the u16 text length."""
    raw = message.encode("utf-8", "backslashreplace")[:MAX_ERROR_TEXT]
    message = raw.decode("utf-8", "ignore")
    return encode(Envelope(Kind.ERROR, session_id, sequence, timestamp,
                           encode_error_payload(code, message)))


class _Peer:
    """One connection and what it opened: an input session after HELLO, and
    the sessions it watches as a render subscriber. Only the loop touches it."""

    def __init__(self, sock):
        self.sock = sock
        self.inbox = bytearray()  # bytes read but not yet framed
        self.outbox = collections.deque()  # unsent envelopes, the first perhaps in part
        self.ending = False  # ends at the close of the loop's turn
        self.farewell = None  # the ERROR sent as it ends
        self.watching = []  # the peers whose sessions this one subscribes to
        # the input session, opened by HELLO
        self.session_id = None
        self.pipeline = None
        self.buffer = FrameBuffer()
        self.latest_keypoints = None  # (t, z, zeta)
        self.subscribers = []
        self.result_seq = 0
        self.last_sensor_seq = -1

    def push_sensor(self, head, left, right):
        kp = None
        latest = self.latest_keypoints
        if latest is not None and abs(latest[0] - head.timestamp) <= PAIRING_WINDOW:
            kp = (latest[1], latest[2])
        self.buffer.push((head, left, right, kp))


class Server:
    """Stream server hosting named models. One thread runs a selectors loop
    that owns the listener, every connection and every session."""

    def __init__(self, address, registry: dict):
        """registry maps model name -> PipelineConfig."""
        host, port = address
        self._tree = core.default_tree()
        self._models = {}  # name -> (config, predictor); sessions share the predictor
        for name, config in registry.items():
            # a config the pipeline rejects is refused here, not at HELLO
            try:
                predictor = pipeline.build_predictor(config, self._tree)
                pipeline.PipelineSession(config, self._tree, predictor)
            except ValueError as e:
                raise ValueError(f"model {name!r}: {e}") from None
            self._models[name] = (config, predictor)
        self._sessions = {}  # session id -> the _Peer whose HELLO opened it
        self._ending = []  # peers to end at the close of the turn
        try:
            self._listener = socket.create_server((host, port))
        except OSError as e:
            raise BindFailure(f"cannot bind {host}:{port}: {e}") from None
        self.address = self._listener.getsockname()
        self._wake, self._waker = socket.socketpair()  # close() closes the waker
        self._selector = selectors.DefaultSelector()
        for sock in (self._listener, self._wake):
            sock.setblocking(False)
            self._selector.register(sock, selectors.EVENT_READ)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        """The server's one thread. Each turn reads every readable connection,
        runs at most one frame per session, then ends the connections that
        ended during the turn."""
        running = True
        try:
            while running:
                for key, events in self._selector.select():
                    peer = key.data
                    if peer is None:
                        if key.fileobj is self._listener:
                            self._accept()
                        else:  # close() closed the other end of the socket pair
                            running = False
                    else:
                        self._guard(self._service, peer, events)
                if not running:
                    for key in self._selector.get_map().values():
                        if key.data is not None:
                            self._drop(key.data)
                for peer in list(self._sessions.values()):
                    frame = peer.buffer.take_latest(0.0)
                    if frame is not None:
                        self._guard(self._answer, peer, frame)
                while self._ending:
                    self._end(self._ending.pop())
        finally:  # whatever ended the loop, it leaves no socket open
            for key in list(self._selector.get_map().values()):
                key.fileobj.close()
            self._selector.close()
            self._sessions.clear()

    def _guard(self, work, peer, *args):
        """work(peer, *args); an exception it did not expect is logged and
        ends peer's connection, and the loop serves on."""
        try:
            work(peer, *args)
        except Exception:
            _log.exception("ending a connection after an unexpected error")
            self._drop(peer)

    def _service(self, peer, events):
        if events & selectors.EVENT_WRITE:
            if self._flush(peer):
                self._selector.modify(peer.sock, selectors.EVENT_READ, peer)
        else:
            self._read(peer)

    def _accept(self):
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # none waiting, or it went away
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._selector.register(sock, selectors.EVENT_READ, _Peer(sock))

    def _drop(self, peer, farewell=None):
        """Mark peer to end at the close of the turn, with an ERROR as its
        last envelope when farewell holds one; it reads nothing more."""
        if not peer.ending:
            peer.ending, peer.farewell = True, farewell
            self._ending.append(peer)

    def _end(self, peer):
        """End a connection and what it opened, as at end of stream: its
        session and its render subscribers' connections. What the socket does
        not take at once is lost."""
        if peer.farewell is not None:
            peer.outbox.append(peer.farewell)
        self._flush(peer)
        self._selector.unregister(peer.sock)
        peer.sock.close()
        if self._sessions.get(peer.session_id) is peer:
            del self._sessions[peer.session_id]
        for sub in peer.subscribers:
            self._drop(sub)
        for target in peer.watching:
            target.subscribers.remove(peer)

    def _send(self, peer, raw):
        """Send now what the socket takes; queue the rest, and stop reading
        the peer until it is sent."""
        peer.outbox.append(raw)
        if len(peer.outbox) == 1 and not self._flush(peer):
            self._selector.modify(peer.sock, selectors.EVENT_WRITE, peer)

    def _flush(self, peer):
        """Send queued output until the socket takes no more; True once all is sent."""
        while peer.outbox:
            try:
                sent = peer.sock.send(peer.outbox[0])
            except BlockingIOError:
                return False
            except OSError:  # the peer is gone: end it like end of stream
                self._drop(peer)
                return False
            if sent < len(peer.outbox[0]):
                peer.outbox[0] = memoryview(peer.outbox[0])[sent:]
                return False
            peer.outbox.popleft()
        return True

    def _read(self, peer):
        """Read what the socket holds and handle every whole envelope in it."""
        try:
            data = peer.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:  # a failed read ends the connection like end of stream
            data = b""
        if not data:
            self._drop(peer)
            return
        inbox = peer.inbox
        inbox += data
        try:
            while not peer.ending and len(inbox) >= HEADER_LEN:
                size = _envelope_len(inbox)
                if len(inbox) < size:
                    return
                env = decode(inbox)
                del inbox[:size]
                self._handle(peer, env)
        except (BadMagic, CrcMismatch, TruncatedFrame, UnknownKind) as e:
            self._drop(peer, _error(ERR_PROTOCOL, str(e)))

    def _handle(self, peer, env):
        def refuse(code, message):  # answers env, and ends the connection
            self._drop(peer, _error(code, message, env.session_id, timestamp=env.timestamp))

        if env.kind == Kind.HELLO:
            if peer.pipeline is not None:
                return refuse(ERR_PROTOCOL, "session already open")
            try:
                model = decode_hello(env.payload)
            except ValueError as e:
                return refuse(ERR_PROTOCOL, str(e))
            if model not in self._models:
                return refuse(ERR_UNKNOWN_MODEL, f"unknown model {model!r}")
            if env.session_id in self._sessions:
                return refuse(ERR_PROTOCOL, "session id already open")
            config, predictor = self._models[model]
            peer.session_id = env.session_id
            peer.pipeline = pipeline.PipelineSession(config, self._tree, predictor)
            self._sessions[env.session_id] = peer
            self._send(peer, encode(Envelope(Kind.HELLO, env.session_id, 0, env.timestamp)))
        elif env.kind == Kind.SUBSCRIBE_RENDER:
            target = self._sessions.get(env.session_id)
            if target is None:
                return refuse(ERR_PROTOCOL, "no such session")
            target.subscribers.append(peer)
            peer.watching.append(target)
            peer.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, _SUBSCRIBER_SNDBUF)
            self._send(peer, encode(Envelope(Kind.PONG, env.session_id, 0, env.timestamp)))
        elif env.kind == Kind.PING:
            self._send(peer, encode(dataclasses.replace(env, kind=Kind.PONG)))
        elif env.kind in (Kind.HMD_FRAME, Kind.KEYPOINT_FRAME):
            if peer.pipeline is None:
                return refuse(ERR_PROTOCOL, "HELLO first")
            if env.sequence <= peer.last_sensor_seq:
                return refuse(ERR_PROTOCOL, "sequence numbers must increase")
            peer.last_sensor_seq = env.sequence
            try:
                if env.kind == Kind.HMD_FRAME:
                    peer.push_sensor(*decode_hmd_payload(env.payload))
                else:
                    peer.latest_keypoints = (env.timestamp, *decode_keypoint_payload(env.payload))
            except ValueError as e:
                refuse(ERR_PROTOCOL, str(e))
        else:
            self._drop(peer)

    def _answer(self, peer, frame):
        """Run one frame and send its result to the input connection and to
        every render subscriber; a subscriber whose backlog is full is dropped."""
        head, left, right, kp = frame
        try:
            result = peer.pipeline.process_frame(head, left, right, kp)
            lat, pose = result.latencies, result.pose
            payload = encode_pose_payload(pose.rotations, pose.positions,
                                          [lat["predict"], lat["kpo"], lat["total"]])
        except Exception as e:  # refuses this frame; the session serves the next
            self._send(peer, _error(ERR_PIPELINE, f"{type(e).__name__}: {e}", peer.session_id,
                                    peer.result_seq, head.timestamp))
            return
        raw = encode(Envelope(Kind.POSE_RESULT, peer.session_id, peer.result_seq,
                              head.timestamp, payload))
        peer.result_seq += 1
        self._send(peer, raw)
        for sub in peer.subscribers:
            if len(sub.outbox) < _SUBSCRIBER_BACKLOG:
                self._send(sub, raw)
            else:
                self._drop(sub)

    def session_count(self):
        return len(self._sessions)

    def close(self):
        """Wake the loop, which ends every connection as at end of stream and
        stops. Returns once its thread has finished; safe to repeat and to
        call from several threads."""
        self._waker.close()
        self._thread.join()


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
        """Watch session_id's results; ConnectionError unless the server
        confirms with a PONG."""
        self._send(Kind.SUBSCRIBE_RENDER, 0.0, session_id=session_id)
        env = self.recv()
        if env is None:
            raise ConnectionError("server closed before confirming the subscription")
        if env.kind == Kind.ERROR:
            raise ConnectionError(_error_of(env)[1])
        if env.kind != Kind.PONG:
            raise ConnectionError(f"server answered SUBSCRIBE_RENDER with {env.kind.name}")
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

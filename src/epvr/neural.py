"""Forward passes of the dual-stream spatiotemporal encoders and fusion head.

Desk-scale, numpy-only, inference-only: weights are loaded from file or
seeded at random, never trained. Architecture per stream:

    tokens  = linear_embed(frames) + positional_embedding
    tokens  = L x [pre-norm self-attention + feed-forward]   (frame-wise)
    summary = MLP(tokens[-1])  reshaped to one token per joint
    joints  = summary + joint_embedding
    joints  = L x [pre-norm self-attention + feed-forward]   (joint-wise)

The motion stream consumes 72-D device descriptors, the visual stream
flattened refined keypoints; both emit a (joints x model_dim) feature
map. Fusion lets motion features attend over visual features, then two
per-token MLP heads decode the root and the J - 1 local 6D rotations.
The joint count J (NetConfig.joints) and the keypoint width 3 J come from
the kinematic tree the pipeline runs on.

Inference runs a Plan built once per model from the weight dataclasses: both
encoders as one (2, T, d) array, one (d, 3d) Q|K|V matmul per attention with
the norm's gain and bias and 1/sqrt(head_dim) folded in, and one query in the
last frame layer. The pipeline's plan holds every array in float32 (folded in
float64, then cast once) and runs its activations in float32; its raw 6D
outputs stay within 1e-5 of the unfolded float64 forward pass (1.5e-6 seen).
The one-stream spatiotemporal_encode and cross_attention_fuse run a float64
plan, which matches that pass within 1e-12.

Weights file: magic "EPVR", version byte, tensor directory, float32 payload,
trailing CRC-32. Weights load, and are seeded, as float32 arrays.
"""

from __future__ import annotations

import struct
import zlib
from collections import namedtuple
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import core
from .errors import BadMagic, CrcMismatch, NonFiniteActivation, ShapeError

_LN_EPS = 1e-5


@dataclass(frozen=True)
class NetConfig:
    motion_dim: int = 72
    keypoint_dim: int = 66
    model_dim: int = 64
    heads: int = 4
    layers: int = 2
    window: int = 40
    joints: int = 22
    ff_mult: int = 2
    summary_hidden: int = 128
    decoder_hidden: int = 64

    def __post_init__(self):
        if self.model_dim % self.heads != 0:
            raise ShapeError(
                f"model_dim {self.model_dim} not divisible by {self.heads} heads"
            )
        for name in ("motion_dim", "keypoint_dim", "model_dim", "heads", "window",
                     "joints", "ff_mult", "summary_hidden", "decoder_hidden"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be >= 1")
        if self.layers < 0:
            raise ShapeError("layers must be >= 0")


@dataclass
class LayerWeights:
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    ff_w1: np.ndarray
    ff_b1: np.ndarray
    ff_w2: np.ndarray
    ff_b2: np.ndarray


@dataclass
class EncoderWeights:
    embed_w: np.ndarray
    embed_b: np.ndarray
    pos: np.ndarray
    frame_layers: list
    summary_w1: np.ndarray
    summary_b1: np.ndarray
    summary_w2: np.ndarray
    summary_b2: np.ndarray
    joint_embed: np.ndarray
    joint_layers: list


@dataclass
class FusionWeights:
    ln_q_g: np.ndarray
    ln_q_b: np.ndarray
    ln_kv_g: np.ndarray
    ln_kv_b: np.ndarray
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    ln_ff_g: np.ndarray
    ln_ff_b: np.ndarray
    ff_w1: np.ndarray
    ff_b1: np.ndarray
    ff_w2: np.ndarray
    ff_b2: np.ndarray
    dec_root_w1: np.ndarray
    dec_root_b1: np.ndarray
    dec_root_w2: np.ndarray
    dec_root_b2: np.ndarray
    dec_local_w1: np.ndarray
    dec_local_b1: np.ndarray
    dec_local_w2: np.ndarray
    dec_local_b2: np.ndarray


def softmax(scores, axis):
    """Softmax over `axis`, in place: one scores-sized array is live per attention."""
    scores -= scores.max(axis=axis, keepdims=True)
    np.exp(scores, out=scores)
    return np.divide(scores, scores.sum(axis=axis, keepdims=True), out=scores)


def attention(q, k, v):
    """Attention of q (..., n_q, h), scaled already, over k and v (..., n_k, h). The
    scores are keys by queries: numpy reduces the last axis row by row, others at once."""
    return softmax(k @ q.swapaxes(-1, -2), axis=-2).swapaxes(-1, -2) @ v


def _mlp(x, w1, b1, w2, b2):
    """Two-layer ReLU perceptron over the last axis."""
    return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2


def _check_finite(x, stage):
    if not np.isfinite(x).all():
        raise NonFiniteActivation(f"non-finite values after {stage}")


# One pre-norm block as the plan runs it, a leading stream axis on each array: the
# norms folded into qkv, bqkv (attention) and w1, b1 (feed-forward); Q carries 1/sqrt(h).
_Folded = namedtuple("_Folded", "qkv bqkv wo bo w1 b1 w2 b2")


def _fold(w, heads, norm=None, ff_norm=None):
    """One stream's _Folded arrays (biases as (1, n) rows) of block w, folded in float64;
    the norms are (gain, bias) pairs, a LayerWeights' own by default."""
    (g, b), (ff_g, ff_b) = norm or (w.ln1_g, w.ln1_b), ff_norm or (w.ln2_g, w.ln2_b)
    g, b, ff_g, ff_b = (np.asarray(a, dtype=np.float64) for a in (g, b, ff_g, ff_b))
    scale = np.repeat([1.0 / np.sqrt(len(w.wq) // heads), 1.0, 1.0], len(w.wq))
    qkv = np.concatenate([w.wq, w.wk, w.wv], axis=1) * scale
    bqkv = np.concatenate([w.bq, w.bk, w.bv]) * scale
    return (g[:, None] * qkv, (b @ qkv + bqkv)[None], w.wo, w.bo[None],
            ff_g[:, None] * w.ff_w1, (ff_b @ w.ff_w1 + w.ff_b1)[None], w.ff_w2, w.ff_b2[None])


def _normalize(x, mean):
    """x over its last axis, centred and scaled to unit variance; mean is (d, 1) of 1/d."""
    c = x - x @ mean
    return c / np.sqrt((c * c) @ mean + _LN_EPS)


def _block(x, w: _Folded, heads, mean, rows=slice(0, None), cross=False):
    """Pre-norm residual block over streams x (S, T, d): tokens `rows` attend over
    their stream's tokens (cross: stream 0's over stream 1's), then a feed-forward."""
    s, t, d = x.shape
    qkv = _normalize(x, mean) @ w.qkv
    qkv += w.bqkv
    q, k, v = qkv.reshape(s, t, 3, heads, d // heads).transpose(2, 0, 3, 1, 4)
    if cross:
        q, k, v, x = q[:1], k[1:], v[1:], x[:1]
    x = x[:, rows]
    x = x + attention(q[:, :, rows], k, v).transpose(0, 2, 1, 3).reshape(x.shape) @ w.wo + w.bo
    return x + _mlp(_normalize(x, mean), w.w1, w.b1, w.w2, w.b2)


class Plan:
    """Folded, stream-stacked encoder layers and fusion block, and the weights cast to
    `dtype` (each array the weights' own when it already is): the embeddings, summary
    MLPs and decode heads are read from those. Every array is in `dtype`, and so are
    the activations. No per-call state, so sessions may share it."""

    def __init__(self, encoders, heads, fusion: FusionWeights | None = None,
                 dtype=np.float32):
        self.heads, self.dtype = heads, dtype
        cast = lambda _, a: np.asarray(a, dtype=dtype)
        self.encoders = [_map_tensors(w, "", cast) for w in encoders]
        d = (encoders[0].embed_w if encoders else fusion.wo).shape[1]
        self._mean = np.full((d, 1), 1.0 / d, dtype=dtype)
        stack = lambda arrays: _Folded(*(np.stack(a, dtype=dtype) for a in zip(*arrays)))
        stacks = [[stack(_fold(lw, heads) for lw in group)
                   for group in zip(*(getattr(w, name) for w in encoders))]
                  for name in ("frame_layers", "joint_layers")]
        # (frame layers, joint layers) of all streams, and of each stream alone
        self._layers = {tuple(range(len(encoders))): stacks}
        for i in range(len(encoders)):
            self._layers[(i,)] = [[_Folded(*(a[i:i + 1] for a in f)) for f in part]
                                  for part in stacks]
        if fusion is not None:  # stream 0 the queries' Q|K|V, stream 1 the keys' and values'
            q, kv = (_fold(fusion, heads, norm, (fusion.ln_ff_g, fusion.ln_ff_b)) for norm in (
                (fusion.ln_q_g, fusion.ln_q_b), (fusion.ln_kv_g, fusion.ln_kv_b)))
            self._fusion = _Folded(*(np.stack(a, dtype=dtype) for a in zip(q[:2], kv[:2])),
                                   *(np.asarray(a, dtype=dtype) for a in q[2:]))
            self.fusion = _map_tensors(fusion, "", cast)

    def encode(self, windows):
        """(S, joints, d) features of one (T, D) window per encoder, each cast to the
        plan's dtype once. The streams' frame layers run together when their windows
        have one length (not while the keypoint window fills); the last computes only
        the newest token, with K and V over all."""
        windows = [np.asarray(win, dtype=self.dtype) for win in windows]
        for win, w in zip(windows, self.encoders):
            if win.ndim != 2 or win.shape[1] != len(w.embed_w) or not 1 <= len(win) <= len(w.pos):
                raise ShapeError(f"window {win.shape} does not fit {len(w.embed_w)}-D frames, "
                                 f"1..{len(w.pos)} of them")
        streams = tuple(range(len(windows)))
        tops = []
        for group in [streams] if len({len(w) for w in windows}) == 1 else [(i,) for i in streams]:
            x = np.stack([windows[i] @ self.encoders[i].embed_w + self.encoders[i].embed_b
                          + self.encoders[i].pos[:len(windows[i])] for i in group])
            _check_finite(x, "embedding")
            layers = self._layers[group][0]
            for depth, w in enumerate(layers, 1):
                x = _block(x, w, self.heads, self._mean, slice(-1 if depth == len(layers) else 0, None))
            tops.append(x[:, -1])
        tops = np.concatenate(tops)
        _check_finite(tops, "frame encoder")
        joints = np.stack([
            _mlp(top, w.summary_w1, w.summary_b1, w.summary_w2, w.summary_b2).reshape(
                w.joint_embed.shape) + w.joint_embed for top, w in zip(tops, self.encoders)])
        _check_finite(joints, "joint summary")
        for w in self._layers[streams][1]:
            joints = _block(joints, w, self.heads, self._mean)
        _check_finite(joints, "joint encoder")
        return joints

    def fuse(self, features):
        """Motion features features[0] attend over visual features[1]: (J, d)."""
        features = np.asarray(features, dtype=self.dtype)
        out = _block(features, self._fusion, self.heads, self._mean, cross=True)[0]
        _check_finite(out, "fusion")
        return out


def spatiotemporal_encode(window, w: EncoderWeights, heads: int):
    """Encode a (T, D) temporal stack into (joints, model_dim) features, in float64."""
    return Plan([w], heads, dtype=np.float64).encode([window])[0]


def cross_attention_fuse(m, n, w: FusionWeights, heads: int):
    """Let motion features m attend over visual features n, in float64; shape preserved."""
    m, n = (np.asarray(a, dtype=np.float64) for a in (m, n))
    if m.shape != n.shape or m.ndim != 2:
        raise ShapeError(f"feature maps must share (J, S) shape, got {m.shape} and {n.shape}")
    return Plan([], heads, w, np.float64).fuse(np.stack([m, n]))


def decode_pose(fused, w: FusionWeights, joints: int) -> core.FullBodyPose:
    """Per-token MLP heads: token 0 -> root rotation, tokens 1.. -> locals,
    stacked root first into the pose's (J, 6) rotations, computed in the
    dtype of fused and w.

    fused must hold one token per joint (NetConfig.joints). Outputs are raw
    6D values; orthonormalization happens in the forward kinematics layer.
    """
    fused = np.asarray(fused)
    if fused.ndim != 2 or fused.shape[0] != joints:
        raise ShapeError(f"decoder expects ({joints}, S) features, got {fused.shape}")
    root = _mlp(fused[0], w.dec_root_w1, w.dec_root_b1, w.dec_root_w2, w.dec_root_b2)
    locals_ = _mlp(fused[1:], w.dec_local_w1, w.dec_local_b1, w.dec_local_w2, w.dec_local_b2)
    return core.FullBodyPose(np.concatenate([root[None], locals_]))


# ---------------------------------------------------------------------------
# initialization


def _init_layer(draw, cfg: NetConfig) -> LayerWeights:
    s = cfg.model_dim
    ff = cfg.ff_mult * s
    w_scale = 1.0 / np.sqrt(s)
    return LayerWeights(
        ln1_g=np.ones(s, np.float32), ln1_b=np.zeros(s, np.float32),
        wq=draw((s, s), w_scale), bq=np.zeros(s, np.float32),
        wk=draw((s, s), w_scale), bk=np.zeros(s, np.float32),
        wv=draw((s, s), w_scale), bv=np.zeros(s, np.float32),
        wo=draw((s, s), w_scale), bo=np.zeros(s, np.float32),
        ln2_g=np.ones(s, np.float32), ln2_b=np.zeros(s, np.float32),
        ff_w1=draw((s, ff), w_scale), ff_b1=np.zeros(ff, np.float32),
        ff_w2=draw((ff, s), 1.0 / np.sqrt(ff)), ff_b2=np.zeros(s, np.float32),
    )


def _init_encoder(draw, cfg: NetConfig, input_dim: int) -> EncoderWeights:
    s = cfg.model_dim
    return EncoderWeights(
        embed_w=draw((input_dim, s), 1.0 / np.sqrt(input_dim)),
        embed_b=np.zeros(s, np.float32),
        pos=draw((cfg.window, s), 0.02),
        frame_layers=[_init_layer(draw, cfg) for _ in range(cfg.layers)],
        summary_w1=draw((s, cfg.summary_hidden), 1.0 / np.sqrt(s)),
        summary_b1=np.zeros(cfg.summary_hidden, np.float32),
        summary_w2=draw((cfg.summary_hidden, cfg.joints * s), 1.0 / np.sqrt(cfg.summary_hidden)),
        summary_b2=np.zeros(cfg.joints * s, np.float32),
        joint_embed=draw((cfg.joints, s), 0.02),
        joint_layers=[_init_layer(draw, cfg) for _ in range(cfg.layers)],
    )


def init_weights(cfg: NetConfig = NetConfig(), seed: int = 0):
    """Seeded random float32 weights: (motion encoder, visual encoder, fusion)."""
    rng = np.random.default_rng(seed)
    return _build_weights(
        cfg, lambda shape, scale: rng.standard_normal(shape, dtype=np.float32) * np.float32(scale))


def _build_weights(cfg: NetConfig, draw):
    """(motion, visual, fusion) float32 weights of cfg's architecture, each
    random matrix made by draw(shape, scale), in a fixed order."""
    motion = _init_encoder(draw, cfg, cfg.motion_dim)
    visual = _init_encoder(draw, cfg, cfg.keypoint_dim)
    s = cfg.model_dim
    h = cfg.decoder_hidden
    # the fusion block is a layer whose first norm applies to the queries
    block = {name.replace("ln1", "ln_q").replace("ln2", "ln_ff"): value
             for name, value in vars(_init_layer(draw, cfg)).items()}
    fusion = FusionWeights(
        **block, ln_kv_g=np.ones(s, np.float32), ln_kv_b=np.zeros(s, np.float32),
        dec_root_w1=draw((s, h), 1.0 / np.sqrt(s)),
        dec_root_b1=np.zeros(h, np.float32),
        dec_root_w2=draw((h, 6), 1.0 / np.sqrt(h)),
        dec_root_b2=core.IDENTITY_6D.astype(np.float32),
        dec_local_w1=draw((s, h), 1.0 / np.sqrt(s)),
        dec_local_b1=np.zeros(h, np.float32),
        dec_local_w2=draw((h, 6), 1.0 / np.sqrt(h)),
        dec_local_b2=core.IDENTITY_6D.astype(np.float32),
    )
    return motion, visual, fusion


# ---------------------------------------------------------------------------
# weights file

MAGIC = b"EPVR"
VERSION = 1
_DTYPE_F32 = 0
_PARTS = ("motion", "visual", "fusion")


def _map_tensors(obj, prefix, leaf):
    """Copy of a weights dataclass with leaf(name, array) in place of each
    array. The dataclass fields are the file's schema: a tensor is named by
    its field path, and a layer list field `<group>_layers` contributes
    `<group>.<index>` to the path."""
    values = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, list):
            group = f"{prefix}.{f.name.removesuffix('_layers')}"
            values[f.name] = [_map_tensors(v, f"{group}.{i}", leaf) for i, v in enumerate(value)]
        else:
            values[f.name] = leaf(f"{prefix}.{f.name}", value)
    return type(obj)(**values)


def save_weights(path, motion: EncoderWeights, visual: EncoderWeights,
                 fusion: FusionWeights, cfg: NetConfig):
    tensors = {"config": np.array(astuple(cfg), dtype=np.float64)}
    for prefix, part in zip(_PARTS, (motion, visual, fusion)):
        _map_tensors(part, prefix, tensors.setdefault)
    names = sorted(tensors)
    payload = bytearray()
    directory = bytearray()
    directory += struct.pack("<I", len(names))
    for name in names:
        arr = np.ascontiguousarray(tensors[name], dtype=np.float32)
        raw = arr.tobytes()
        encoded = name.encode("utf-8")
        directory += struct.pack("<H", len(encoded)) + encoded
        directory += struct.pack("<BB", _DTYPE_F32, arr.ndim)
        directory += struct.pack(f"<{arr.ndim}I", *arr.shape)
        directory += struct.pack("<Q", len(payload))
        payload += raw
    body = MAGIC + struct.pack("<B", VERSION) + bytes(directory)
    body += struct.pack("<Q", len(payload)) + bytes(payload)
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


def _read_directory(body):
    off = 5
    try:
        (count,) = struct.unpack_from("<I", body, off)
        off += 4
        entries = []
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", body, off)
            off += 2
            name = body[off:off + name_len].decode("utf-8")
            off += name_len
            dtype, ndim = struct.unpack_from("<BB", body, off)
            off += 2
            shape = struct.unpack_from(f"<{ndim}I", body, off)
            off += 4 * ndim
            (payload_off,) = struct.unpack_from("<Q", body, off)
            off += 8
            entries.append((name, dtype, shape, payload_off))
        (payload_len,) = struct.unpack_from("<Q", body, off)
        off += 8
        payload = body[off:off + payload_len]
        if len(payload) != payload_len or off + payload_len != len(body):
            raise ShapeError("directory and payload sizes disagree")
    except struct.error:
        raise ShapeError("malformed tensor directory") from None
    return entries, payload


def load_weights(path):
    """Load (motion, visual, fusion, config) from a weights file, each tensor
    a read-only float32 view of the file's payload.

    Raises BadMagic / CrcMismatch / ShapeError per failure mode;
    a truncated file surfaces as CrcMismatch.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 1 + 4:
        raise CrcMismatch("file too short to contain a checksum")
    if blob[:4] != MAGIC:
        raise BadMagic(f"magic bytes {blob[:4]!r}")
    body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise CrcMismatch("CRC-32 mismatch")
    if body[4] != VERSION:
        raise BadMagic(f"unsupported weights version {body[4]}")
    entries, payload = _read_directory(body)
    tensors = {}
    for name, dtype, shape, payload_off in entries:
        if dtype != _DTYPE_F32:
            raise ShapeError(f"tensor {name} has unknown dtype code {dtype}")
        size = int(np.prod(shape, dtype=np.int64)) * 4 if shape else 4
        chunk = payload[payload_off:payload_off + size]
        if len(chunk) != size:
            raise ShapeError(f"tensor {name} payload out of range")
        tensors[name] = np.frombuffer(chunk, dtype="<f4").reshape(shape)

    if "config" not in tensors:
        raise ShapeError("missing config tensor")
    cfg_vals = [int(round(v)) for v in tensors["config"]]
    if len(cfg_vals) != len(fields(NetConfig)):
        raise ShapeError("config tensor has wrong length")
    cfg = NetConfig(*cfg_vals)

    def take(name, expected):
        if name not in tensors:
            raise ShapeError(f"missing tensor {name}")
        arr = tensors[name]
        if arr.shape != expected.shape:
            raise ShapeError(f"tensor {name}: expected {expected.shape}, got {arr.shape}")
        return arr

    # the expected names and shapes are those of the weights cfg describes
    expected = _build_weights(cfg, lambda shape, scale: np.empty(shape, np.float32))
    motion, visual, fusion = (
        _map_tensors(part, prefix, take) for prefix, part in zip(_PARTS, expected)
    )
    return motion, visual, fusion, cfg

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

Weights file: magic "EPVR", version byte, tensor directory, float32
payload, trailing CRC-32.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import core
from .errors import BadMagic, ChecksumFailure, NonFiniteActivation, ShapeError, ShapeMismatch

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
            raise ShapeMismatch(
                f"model_dim {self.model_dim} not divisible by {self.heads} heads"
            )
        for name in ("motion_dim", "keypoint_dim", "model_dim", "heads", "window",
                     "joints", "ff_mult", "summary_hidden", "decoder_hidden"):
            if getattr(self, name) < 1:
                raise ShapeMismatch(f"{name} must be >= 1")
        if self.layers < 0:
            raise ShapeMismatch("layers must be >= 0")


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


def layer_norm(x, gamma, beta):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + _LN_EPS) * gamma + beta


def softmax(scores):
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def multi_head_attention(q_in, kv_in, w, heads):
    """Standard scaled dot-product attention with the projections of w (a
    LayerWeights or FusionWeights); returns (n_q, S)."""
    nq, dim = q_in.shape
    nk = kv_in.shape[0]
    head_dim = dim // heads
    q = (q_in @ w.wq + w.bq).reshape(nq, heads, head_dim).transpose(1, 0, 2)
    k = (kv_in @ w.wk + w.bk).reshape(nk, heads, head_dim).transpose(1, 0, 2)
    v = (kv_in @ w.wv + w.bv).reshape(nk, heads, head_dim).transpose(1, 0, 2)
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(head_dim)
    mixed = (softmax(scores) @ v).transpose(1, 0, 2).reshape(nq, dim)
    return mixed @ w.wo + w.bo


def _mlp(x, w1, b1, w2, b2):
    """Two-layer ReLU perceptron over the last axis."""
    return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2


def _block(x, w, heads, norm, ff_norm, context=None):
    """Pre-norm residual block: x attends over context (a normalized
    feature map; x's own normalized tokens when None), then a feed-forward.
    norm and ff_norm are the (gain, bias) pairs of the two layer norms."""
    h = layer_norm(x, *norm)
    x = x + multi_head_attention(h, h if context is None else context, w, heads)
    return x + _mlp(layer_norm(x, *ff_norm), w.ff_w1, w.ff_b1, w.ff_w2, w.ff_b2)


def _check_finite(x, stage):
    if not np.all(np.isfinite(x)):
        raise NonFiniteActivation(f"non-finite values after {stage}")


def spatiotemporal_encode(window, w: EncoderWeights, heads: int):
    """Encode a (T, D) temporal stack into (joints, model_dim) features."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2:
        raise ShapeError(f"window must be 2-D, got shape {window.shape}")
    t, d = window.shape
    if d != w.embed_w.shape[0]:
        raise ShapeError(f"window dim {d} does not match embedding dim {w.embed_w.shape[0]}")
    if t < 1 or t > w.pos.shape[0]:
        raise ShapeError(f"window length {t} outside 1..{w.pos.shape[0]}")
    x = window @ w.embed_w + w.embed_b + w.pos[:t]
    _check_finite(x, "embedding")
    for lw in w.frame_layers:
        x = _block(x, lw, heads, (lw.ln1_g, lw.ln1_b), (lw.ln2_g, lw.ln2_b))
    _check_finite(x, "frame encoder")
    summary = _mlp(x[-1], w.summary_w1, w.summary_b1, w.summary_w2, w.summary_b2)
    joints = summary.reshape(w.joint_embed.shape) + w.joint_embed
    _check_finite(joints, "joint summary")
    for lw in w.joint_layers:
        joints = _block(joints, lw, heads, (lw.ln1_g, lw.ln1_b), (lw.ln2_g, lw.ln2_b))
    _check_finite(joints, "joint encoder")
    return joints


def cross_attention_fuse(m, n, w: FusionWeights, heads: int):
    """Let motion features m attend over visual features n; shape preserved."""
    m = np.asarray(m, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    if m.shape != n.shape or m.ndim != 2:
        raise ShapeError(f"feature maps must share (J, S) shape, got {m.shape} and {n.shape}")
    out = _block(m, w, heads, (w.ln_q_g, w.ln_q_b), (w.ln_ff_g, w.ln_ff_b),
                 context=layer_norm(n, w.ln_kv_g, w.ln_kv_b))
    _check_finite(out, "fusion")
    return out


def decode_pose(fused, w: FusionWeights, joints: int) -> core.FullBodyPose:
    """Per-token MLP heads: token 0 -> root rotation, tokens 1.. -> locals.

    fused must hold one token per joint (NetConfig.joints). Outputs are raw
    6D values; orthonormalization happens in the forward kinematics layer.
    """
    fused = np.asarray(fused, dtype=np.float64)
    if fused.ndim != 2 or fused.shape[0] != joints:
        raise ShapeError(f"decoder expects ({joints}, S) features, got {fused.shape}")
    root = _mlp(fused[0], w.dec_root_w1, w.dec_root_b1, w.dec_root_w2, w.dec_root_b2)
    locals_ = _mlp(fused[1:], w.dec_local_w1, w.dec_local_b1, w.dec_local_w2, w.dec_local_b2)
    return core.FullBodyPose(root, locals_)


# ---------------------------------------------------------------------------
# initialization


def _f32(rng, shape, scale):
    """Random normal scaled in float32 so values survive the file format."""
    return (rng.standard_normal(shape, dtype=np.float32) * np.float32(scale)).astype(np.float64)


def _init_layer(rng, cfg: NetConfig) -> LayerWeights:
    s = cfg.model_dim
    ff = cfg.ff_mult * s
    w_scale = 1.0 / np.sqrt(s)
    return LayerWeights(
        ln1_g=np.ones(s), ln1_b=np.zeros(s),
        wq=_f32(rng, (s, s), w_scale), bq=np.zeros(s),
        wk=_f32(rng, (s, s), w_scale), bk=np.zeros(s),
        wv=_f32(rng, (s, s), w_scale), bv=np.zeros(s),
        wo=_f32(rng, (s, s), w_scale), bo=np.zeros(s),
        ln2_g=np.ones(s), ln2_b=np.zeros(s),
        ff_w1=_f32(rng, (s, ff), w_scale), ff_b1=np.zeros(ff),
        ff_w2=_f32(rng, (ff, s), 1.0 / np.sqrt(ff)), ff_b2=np.zeros(s),
    )


def _init_encoder(rng, cfg: NetConfig, input_dim: int) -> EncoderWeights:
    s = cfg.model_dim
    return EncoderWeights(
        embed_w=_f32(rng, (input_dim, s), 1.0 / np.sqrt(input_dim)),
        embed_b=np.zeros(s),
        pos=_f32(rng, (cfg.window, s), 0.02),
        frame_layers=[_init_layer(rng, cfg) for _ in range(cfg.layers)],
        summary_w1=_f32(rng, (s, cfg.summary_hidden), 1.0 / np.sqrt(s)),
        summary_b1=np.zeros(cfg.summary_hidden),
        summary_w2=_f32(rng, (cfg.summary_hidden, cfg.joints * s), 1.0 / np.sqrt(cfg.summary_hidden)),
        summary_b2=np.zeros(cfg.joints * s),
        joint_embed=_f32(rng, (cfg.joints, s), 0.02),
        joint_layers=[_init_layer(rng, cfg) for _ in range(cfg.layers)],
    )


def init_weights(cfg: NetConfig = NetConfig(), seed: int = 0):
    """Seeded random weights: (motion encoder, visual encoder, fusion)."""
    rng = np.random.default_rng(seed)
    motion = _init_encoder(rng, cfg, cfg.motion_dim)
    visual = _init_encoder(rng, cfg, cfg.keypoint_dim)
    s = cfg.model_dim
    h = cfg.decoder_hidden
    # the fusion block is a layer whose first norm applies to the queries
    block = {name.replace("ln1", "ln_q").replace("ln2", "ln_ff"): value
             for name, value in vars(_init_layer(rng, cfg)).items()}
    fusion = FusionWeights(
        **block, ln_kv_g=np.ones(s), ln_kv_b=np.zeros(s),
        dec_root_w1=_f32(rng, (s, h), 1.0 / np.sqrt(s)),
        dec_root_b1=np.zeros(h),
        dec_root_w2=_f32(rng, (h, 6), 1.0 / np.sqrt(h)),
        dec_root_b2=np.array(core.IDENTITY_6D),
        dec_local_w1=_f32(rng, (s, h), 1.0 / np.sqrt(s)),
        dec_local_b1=np.zeros(h),
        dec_local_w2=_f32(rng, (h, 6), 1.0 / np.sqrt(h)),
        dec_local_b2=np.array(core.IDENTITY_6D),
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
            raise ShapeMismatch("directory and payload sizes disagree")
    except struct.error:
        raise ShapeMismatch("malformed tensor directory") from None
    return entries, payload


def load_weights(path):
    """Load (motion, visual, fusion, config) from a weights file.

    Raises BadMagic / ChecksumFailure / ShapeMismatch per failure mode;
    a truncated file surfaces as ChecksumFailure.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 1 + 4:
        raise ChecksumFailure("file too short to contain a checksum")
    if blob[:4] != MAGIC:
        raise BadMagic(f"magic bytes {blob[:4]!r}")
    body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise ChecksumFailure("CRC-32 mismatch")
    if body[4] != VERSION:
        raise BadMagic(f"unsupported weights version {body[4]}")
    entries, payload = _read_directory(body)
    tensors = {}
    for name, dtype, shape, payload_off in entries:
        if dtype != _DTYPE_F32:
            raise ShapeMismatch(f"tensor {name} has unknown dtype code {dtype}")
        size = int(np.prod(shape, dtype=np.int64)) * 4 if shape else 4
        chunk = payload[payload_off:payload_off + size]
        if len(chunk) != size:
            raise ShapeMismatch(f"tensor {name} payload out of range")
        tensors[name] = np.frombuffer(chunk, dtype="<f4").reshape(shape).astype(np.float64)

    if "config" not in tensors:
        raise ShapeMismatch("missing config tensor")
    cfg_vals = [int(round(v)) for v in tensors["config"]]
    if len(cfg_vals) != len(fields(NetConfig)):
        raise ShapeMismatch("config tensor has wrong length")
    cfg = NetConfig(*cfg_vals)

    def take(name, expected):
        if name not in tensors:
            raise ShapeMismatch(f"missing tensor {name}")
        arr = tensors[name]
        if arr.shape != expected.shape:
            raise ShapeMismatch(f"tensor {name}: expected {expected.shape}, got {arr.shape}")
        return arr

    # the expected names and shapes are those of the weights cfg describes
    motion, visual, fusion = (
        _map_tensors(part, prefix, take) for prefix, part in zip(_PARTS, init_weights(cfg))
    )
    return motion, visual, fusion, cfg

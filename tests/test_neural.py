import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from epvr import core, neural, pipeline
from epvr.errors import BadMagic, CrcMismatch, NonFiniteActivation, ShapeError

import oracles


SMALL = neural.NetConfig(model_dim=16, heads=2, layers=1, window=6, joints=22,
                         summary_hidden=24, decoder_hidden=12)


def _zeroed_encoder(cfg, input_dim):
    rng = np.random.default_rng(0)
    enc = neural._init_encoder(
        lambda shape, scale: rng.standard_normal(shape, dtype=np.float32), cfg, input_dim)
    enc.embed_w[:] = 0.0
    enc.embed_b[:] = 0.0
    enc.pos[:] = 0.0
    enc.summary_w1[:] = 0.0
    enc.summary_b1[:] = 0.0
    enc.summary_w2[:] = 0.0
    enc.summary_b2[:] = 0.0
    for lw in enc.frame_layers + enc.joint_layers:
        for name in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
                     "ff_w1", "ff_b1", "ff_w2", "ff_b2"):
            getattr(lw, name)[:] = 0.0
    return enc


def test_zero_weights_pass_joint_embedding_through():
    enc = _zeroed_encoder(SMALL, SMALL.motion_dim)
    rng = np.random.default_rng(1)
    window = rng.standard_normal((SMALL.window, SMALL.motion_dim))
    out = neural.spatiotemporal_encode(window, enc, SMALL.heads)
    assert np.array_equal(out, enc.joint_embed)


def test_output_shape_is_joints_by_model_dim():
    motion, _, _ = neural.init_weights(SMALL, seed=3)
    rng = np.random.default_rng(2)
    for t in (1, 3, SMALL.window):
        out = neural.spatiotemporal_encode(
            rng.standard_normal((t, SMALL.motion_dim)), motion, SMALL.heads
        )
        assert out.shape == (SMALL.joints, SMALL.model_dim)


def test_decoder_emits_one_rotation_per_configured_joint():
    cfg = neural.NetConfig(model_dim=16, heads=2, layers=1, window=6, joints=5, keypoint_dim=15,
                           summary_hidden=24, decoder_hidden=12)
    motion, _, fusion = neural.init_weights(cfg, seed=26)
    rng = np.random.default_rng(27)
    feats = neural.spatiotemporal_encode(
        rng.standard_normal((cfg.window, cfg.motion_dim)), motion, cfg.heads
    )
    pose = neural.decode_pose(feats, fusion, cfg.joints)
    assert pose.rotations.shape == (5, 6)
    with pytest.raises(ShapeError, match=r"\(22, S\)"):
        neural.decode_pose(feats, fusion, 22)


def test_attention_rows_sum_to_one(monkeypatch):
    motion, visual, fusion = neural.init_weights(SMALL, seed=4)
    rng = np.random.default_rng(5)
    sink = []
    softmax = neural.softmax

    def recording_softmax(scores, axis=-1):
        sink.append((softmax(scores, axis), axis))
        return sink[-1][0]

    monkeypatch.setattr(neural, "softmax", recording_softmax)
    m = neural.spatiotemporal_encode(
        rng.standard_normal((SMALL.window, SMALL.motion_dim)), motion, SMALL.heads
    )
    n = neural.spatiotemporal_encode(
        rng.standard_normal((SMALL.window, SMALL.keypoint_dim)), visual, SMALL.heads
    )
    neural.cross_attention_fuse(m, n, fusion, SMALL.heads)
    assert len(sink) == 2 * (2 * SMALL.layers) + 1
    for probs, axis in sink:  # axis: the keys of each query
        assert np.max(np.abs(probs.sum(axis=axis) - 1.0)) < 1e-6
        assert np.all(probs >= 0.0)


def test_uniform_attention_is_mean_pooling():
    """Zero queries: each token's attention output is the mean of the value
    tokens."""
    s = 8
    n_tok = 5
    rng = np.random.default_rng(6)
    x = rng.standard_normal((n_tok, s))
    out = neural.attention(np.zeros((n_tok, s)), x, x)
    mean = x.mean(axis=0)
    for row in out:
        assert np.max(np.abs(row - mean)) < 1e-9


def test_final_token_summary_property():
    """With no frame layers the encoding depends only on the final frame."""
    cfg = neural.NetConfig(model_dim=16, heads=2, layers=0, window=6, joints=22,
                           summary_hidden=24, decoder_hidden=12)
    motion, _, _ = neural.init_weights(cfg, seed=7)
    rng = np.random.default_rng(8)
    window = rng.standard_normal((cfg.window, cfg.motion_dim))
    scrambled = rng.standard_normal(window.shape)
    scrambled[-1] = window[-1]
    a = neural.spatiotemporal_encode(window, motion, cfg.heads)
    b = neural.spatiotemporal_encode(scrambled, motion, cfg.heads)
    assert np.array_equal(a, b)


def test_fusion_zero_value_path_reduces_to_feed_forward():
    _, _, fusion = neural.init_weights(SMALL, seed=9)
    fusion.wv[:] = 0.0
    fusion.bv[:] = 0.0
    fusion.bo[:] = 0.0
    rng = np.random.default_rng(10)
    m = rng.standard_normal((SMALL.joints, SMALL.model_dim))
    n = np.tile(rng.standard_normal(SMALL.model_dim), (SMALL.joints, 1))
    got = neural.cross_attention_fuse(m, n, fusion, SMALL.heads)
    h = oracles.layer_norm(m, fusion.ln_ff_g, fusion.ln_ff_b)
    want = m + np.maximum(h @ fusion.ff_w1 + fusion.ff_b1, 0.0) @ fusion.ff_w2 + fusion.ff_b2
    assert np.max(np.abs(got - want)) < 1e-12


def test_fusion_key_permutation_invariance():
    motion, visual, fusion = neural.init_weights(SMALL, seed=11)
    rng = np.random.default_rng(12)
    m = rng.standard_normal((SMALL.joints, SMALL.model_dim))
    n = rng.standard_normal((SMALL.joints, SMALL.model_dim))
    base = neural.cross_attention_fuse(m, n, fusion, SMALL.heads)
    for _ in range(5):
        perm = rng.permutation(SMALL.joints)
        permuted = neural.cross_attention_fuse(m, n[perm], fusion, SMALL.heads)
        assert np.max(np.abs(permuted - base)) < 1e-9


def test_fusion_shape_preserved():
    _, _, fusion = neural.init_weights(SMALL, seed=13)
    rng = np.random.default_rng(14)
    m = rng.standard_normal((SMALL.joints, SMALL.model_dim))
    n = rng.standard_normal((SMALL.joints, SMALL.model_dim))
    assert neural.cross_attention_fuse(m, n, fusion, SMALL.heads).shape == m.shape


def test_decode_constant_head_emits_identity_rotations():
    _, _, fusion = neural.init_weights(SMALL, seed=15)
    fusion.dec_root_w2[:] = 0.0
    fusion.dec_root_b2[:] = core.IDENTITY_6D
    fusion.dec_local_w2[:] = 0.0
    fusion.dec_local_b2[:] = core.IDENTITY_6D
    rng = np.random.default_rng(16)
    pose = neural.decode_pose(rng.standard_normal((22, SMALL.model_dim)), fusion, SMALL.joints)
    assert np.all(pose.rotations == core.IDENTITY_6D)
    decoded = core.rot6d_to_matrix(pose.rotations)
    assert np.allclose(decoded, np.eye(3), atol=1e-15)


def test_decode_per_token_locality():
    _, _, fusion = neural.init_weights(SMALL, seed=17)
    rng = np.random.default_rng(18)
    feats = rng.standard_normal((22, SMALL.model_dim))
    base = neural.decode_pose(feats, fusion, SMALL.joints)
    bumped = feats.copy()
    bumped[5] += 1.0
    got = neural.decode_pose(bumped, fusion, SMALL.joints)
    assert not np.array_equal(got.rotations[5], base.rotations[5])
    mask = np.ones(22, dtype=bool)
    mask[5] = False
    assert np.array_equal(got.rotations[mask], base.rotations[mask])


def test_decode_matches_matrix_multiply_oracle():
    _, _, fusion = neural.init_weights(SMALL, seed=19)
    rng = np.random.default_rng(20)
    feats = rng.standard_normal((22, SMALL.model_dim))
    pose = neural.decode_pose(feats, fusion, SMALL.joints)
    root = np.maximum(feats[0] @ fusion.dec_root_w1 + fusion.dec_root_b1, 0.0)
    root = root @ fusion.dec_root_w2 + fusion.dec_root_b2
    assert np.max(np.abs(pose.rotations[0] - root)) < 1e-9
    for i in range(21):
        h = np.maximum(feats[i + 1] @ fusion.dec_local_w1 + fusion.dec_local_b1, 0.0)
        want = h @ fusion.dec_local_w2 + fusion.dec_local_b2
        assert np.max(np.abs(pose.rotations[i + 1] - want)) < 1e-9


_GAINS = {"ln1_g", "ln2_g", "ln_q_g", "ln_kv_g", "ln_ff_g"}


def _perturbed_weights(cfg, seed):
    """Seeded weights with non-unit layer-norm gains and non-zero biases
    (the seeded ones are 1 and 0, under which folding them shows nothing)."""
    rng = np.random.default_rng(seed)

    def perturb(name, value):
        if name.rsplit(".", 1)[-1] in _GAINS:
            return 1.0 + 0.3 * rng.standard_normal(value.shape)
        if value.ndim == 1:
            return value + 0.2 * rng.standard_normal(value.shape)
        return value

    return [neural._map_tensors(part, prefix, lambda name, a: perturb(name, a).astype(np.float32))
            for prefix, part in zip(("motion", "visual", "fusion"), neural.init_weights(cfg, seed))]


def _as(dtype, weights):
    """Copies of weight dataclasses with every tensor cast to dtype."""
    return [neural._map_tensors(part, "", lambda _, a: a.astype(dtype)) for part in weights]


@pytest.mark.parametrize("keypoint_frames,use_fusion", [(8, True), (3, True), (8, False)],
                         ids=["full-window", "short-keypoint-window", "fusion-off"])
def test_plan_matches_the_unfolded_forward_pass(keypoint_frames, use_fusion):
    cfg = neural.NetConfig(window=8)
    motion, visual, fusion = _perturbed_weights(cfg, 40)
    predictor = pipeline.NeuralPredictor(motion, visual, fusion, cfg, use_fusion)
    rng = np.random.default_rng(41)
    frames = rng.standard_normal((cfg.window, cfg.motion_dim))
    keypoints = rng.standard_normal((keypoint_frames, cfg.joints, 3))
    got = predictor.predict(SimpleNamespace(frames=frames), keypoints).rotations
    # the oracle runs in float64 on the same weights cast up; the plan in float32
    want = oracles.network_rotations(*_as(np.float64, (motion, visual, fusion)), cfg.heads, frames,
                                     keypoints.reshape(keypoint_frames, -1) if use_fusion else None)
    assert np.max(np.abs(got - want)) <= 1e-5
    # the gains and biases move the output, so a fold that dropped them would show
    plain = oracles.network_rotations(*neural.init_weights(cfg, 40), cfg.heads, frames)
    assert np.max(np.abs(got - plain)) > 1e-3


def _arrays(obj):
    """Every array in obj, through lists, tuples, dicts and weight dataclasses."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        yield from _arrays(vars(obj))
    elif isinstance(obj, (list, tuple, dict)):
        for value in obj.values() if isinstance(obj, dict) else obj:
            yield from _arrays(value)


def test_the_plan_holds_and_computes_float32_only():
    """One float64 array in the plan would make its matmuls mixed-dtype (and slow)."""
    cfg = neural.NetConfig(window=8)
    motion, visual, fusion = _as(np.float64, _perturbed_weights(cfg, 42))
    plan = neural.Plan([motion, visual], cfg.heads, fusion)
    held = {name: list(_arrays(value)) for name, value in vars(plan).items()}
    # the stacked layers and each stream's views of them, the fusion block, and the
    # weights it reads the embeddings, summary MLPs and decode heads from
    assert all(held[name] for name in ("_layers", "_fusion", "encoders", "fusion", "_mean"))
    assert len(held["_layers"]) == 3 * 2 * cfg.layers * len(neural._Folded._fields)
    assert {a.dtype for arrays in held.values() for a in arrays} == {np.dtype(np.float32)}
    rng = np.random.default_rng(43)
    features = plan.encode([rng.standard_normal((cfg.window, cfg.motion_dim)),
                            rng.standard_normal((cfg.window, cfg.keypoint_dim))])
    assert features.dtype == np.float32
    assert plan.fuse(features.astype(np.float64)).dtype == np.float32


def test_weights_are_float32_as_seeded_and_as_loaded(tmp_path):
    path = tmp_path / "weights.epvr"
    neural.save_weights(path, *neural.init_weights(SMALL, seed=44), SMALL)
    for weights in (neural.init_weights(SMALL, seed=44), neural.load_weights(path)[:3]):
        dtypes = []
        for part in weights:
            neural._map_tensors(part, "", lambda _, a: dtypes.append(a.dtype))
        assert set(dtypes) == {np.dtype(np.float32)}


def test_saving_loaded_weights_writes_the_same_bytes(tmp_path):
    first, second = tmp_path / "first.epvr", tmp_path / "second.epvr"
    neural.save_weights(first, *_perturbed_weights(SMALL, 45), SMALL)
    motion, visual, fusion, cfg = neural.load_weights(first)
    neural.save_weights(second, motion, visual, fusion, cfg)
    assert second.read_bytes() == first.read_bytes()


def test_loading_weights_draws_nothing(tmp_path, monkeypatch):
    path = tmp_path / "weights.epvr"
    motion, visual, fusion = neural.init_weights(SMALL, seed=46)
    neural.save_weights(path, motion, visual, fusion, SMALL)

    def refuse(*args, **kwargs):
        raise AssertionError("loading weights drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    loaded = neural.load_weights(path)
    assert loaded[3] == SMALL
    assert np.array_equal(loaded[0].summary_w2, motion.summary_w2)


def test_determinism():
    motion, visual, fusion = neural.init_weights(SMALL, seed=21)
    rng = np.random.default_rng(22)
    window = rng.standard_normal((SMALL.window, SMALL.motion_dim))
    a = neural.spatiotemporal_encode(window, motion, SMALL.heads)
    b = neural.spatiotemporal_encode(window, motion, SMALL.heads)
    assert np.array_equal(a, b)


def test_shape_errors():
    motion, _, fusion = neural.init_weights(SMALL, seed=23)
    with pytest.raises(ShapeError):
        neural.spatiotemporal_encode(np.zeros((3, SMALL.motion_dim + 1)), motion, SMALL.heads)
    with pytest.raises(ShapeError):
        neural.spatiotemporal_encode(
            np.zeros((SMALL.window + 1, SMALL.motion_dim)), motion, SMALL.heads
        )
    with pytest.raises(ShapeError):
        neural.decode_pose(np.zeros((21, SMALL.model_dim)), fusion, SMALL.joints)


def test_non_finite_inputs_rejected():
    motion, _, _ = neural.init_weights(SMALL, seed=24)
    window = np.zeros((SMALL.window, SMALL.motion_dim))
    window[0, 0] = np.inf
    with pytest.raises(NonFiniteActivation):
        neural.spatiotemporal_encode(window, motion, SMALL.heads)


def test_weights_round_trip_bit_exact(tmp_path):
    motion, visual, fusion = neural.init_weights(SMALL, seed=25)
    path = tmp_path / "weights.epvr"
    neural.save_weights(path, motion, visual, fusion, SMALL)
    m2, v2, f2, cfg2 = neural.load_weights(path)
    assert cfg2 == SMALL
    assert np.array_equal(m2.embed_w, motion.embed_w)
    assert np.array_equal(m2.pos, motion.pos)
    assert np.array_equal(v2.joint_embed, visual.joint_embed)
    assert np.array_equal(f2.dec_local_w2, fusion.dec_local_w2)
    for a, b in zip(m2.frame_layers, motion.frame_layers):
        assert np.array_equal(a.wq, b.wq)
        assert np.array_equal(a.ff_w2, b.ff_w2)
    # and the loaded weights produce identical forward passes
    rng = np.random.default_rng(26)
    window = rng.standard_normal((SMALL.window, SMALL.motion_dim))
    assert np.array_equal(
        neural.spatiotemporal_encode(window, motion, SMALL.heads),
        neural.spatiotemporal_encode(window, m2, SMALL.heads),
    )


def test_truncated_file_fails_checksum(tmp_path):
    motion, visual, fusion = neural.init_weights(SMALL, seed=27)
    path = tmp_path / "weights.epvr"
    neural.save_weights(path, motion, visual, fusion, SMALL)
    blob = path.read_bytes()
    truncated = tmp_path / "truncated.epvr"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CrcMismatch):
        neural.load_weights(truncated)


def test_corrupted_payload_fails_checksum(tmp_path):
    motion, visual, fusion = neural.init_weights(SMALL, seed=28)
    path = tmp_path / "weights.epvr"
    neural.save_weights(path, motion, visual, fusion, SMALL)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    bad = tmp_path / "bad.epvr"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CrcMismatch):
        neural.load_weights(bad)


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "not_weights.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(BadMagic):
        neural.load_weights(path)


def test_indivisible_heads_rejected(tmp_path):
    """A file whose config declares model_dim not divisible by heads."""
    motion, visual, fusion = neural.init_weights(SMALL, seed=29)
    path = tmp_path / "weights.epvr"
    save_cfg = SMALL
    neural.save_weights(path, motion, visual, fusion, save_cfg)
    blob = bytearray(path.read_bytes())
    # patch the config tensor's heads entry (field index 3) from 2 to 3
    # and fix up the trailing CRC
    import struct
    import zlib

    entries, payload = neural._read_directory(bytes(blob[:-4]))
    name_to_off = {name: off for name, _, _, off in entries}
    dir_end = len(blob) - 4 - len(payload)
    cfg_off = dir_end + name_to_off["config"]
    struct.pack_into("<f", blob, cfg_off + 3 * 4, 3.0)
    body = bytes(blob[:-4])
    blob[-4:] = struct.pack("<I", zlib.crc32(body))
    bad = tmp_path / "bad_heads.epvr"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ShapeError):
        neural.load_weights(bad)


def test_missing_tensor_rejected(tmp_path):
    motion, visual, fusion = neural.init_weights(SMALL, seed=30)
    # re-save without one tensor by monkey-building the file
    path = tmp_path / "weights.epvr"
    neural.save_weights(path, motion, visual, fusion, SMALL)
    import struct
    import zlib

    # declare a config with an extra layer the file does not contain
    blob = bytearray(path.read_bytes())
    entries, payload = neural._read_directory(bytes(blob[:-4]))
    dir_end = len(blob) - 4 - len(payload)
    name_to_off = {name: off for name, _, _, off in entries}
    cfg_off = dir_end + name_to_off["config"]
    struct.pack_into("<f", blob, cfg_off + 4 * 4, 2.0)  # layers: 1 -> 2
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
    bad = tmp_path / "missing.epvr"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ShapeError):
        neural.load_weights(bad)
    assert "motion.frame.0.wq" in name_to_off


def _rewrite_weights(path, edit, version=neural.VERSION):
    """Rewrite a weights file with edit(entries) applied to its directory.

    entries maps name -> [dtype code, shape, float32 bytes]; the payload
    offsets and the CRC are recomputed, so only the edit is malformed."""
    import struct
    import zlib

    blob = path.read_bytes()
    listed, payload = neural._read_directory(blob[:-4])
    entries = {}
    for name, dtype, shape, off in listed:
        entries[name] = [dtype, shape, payload[off:off + 4 * int(np.prod(shape))]]
    edit(entries)
    directory = bytearray(struct.pack("<I", len(entries)))
    data = bytearray()
    for name, (dtype, shape, raw) in entries.items():
        directory += struct.pack("<H", len(name)) + name.encode()
        directory += struct.pack(f"<BB{len(shape)}IQ", dtype, len(shape), *shape, len(data))
        data += raw
    body = neural.MAGIC + struct.pack("<B", version) + directory
    body += struct.pack("<Q", len(data)) + data
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def _set(name, index, value):
    def edit(entries):
        entries[name][index] = value
    return edit


@pytest.mark.parametrize("edit, version, error, match", [
    (lambda e: None, 2, BadMagic, "version"),
    (_set("fusion.wq", 0, 1), 1, ShapeError, "dtype"),
    (_set("visual.summary_w2", 2, b""), 1, ShapeError, "out of range"),
    (lambda e: e.pop("config"), 1, ShapeError, "missing config"),
    (_set("config", 1, (9,)), 1, ShapeError, "wrong length"),
    (lambda e: e.pop("visual.joint.0.ff_b2"), 1, ShapeError, "missing tensor"),
    (_set("fusion.ff_w1", 1, (32, 16)), 1, ShapeError, "expected"),
])
def test_malformed_weights_file_rejected(tmp_path, edit, version, error, match):
    path = tmp_path / "weights.epvr"
    neural.save_weights(path, *neural.init_weights(SMALL, seed=31), SMALL)
    _rewrite_weights(path, lambda entries: None)
    neural.load_weights(path)  # the helper alone writes a valid file
    _rewrite_weights(path, edit, version)
    with pytest.raises(error, match=match):
        neural.load_weights(path)

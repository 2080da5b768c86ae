"""Per-frame orchestration of the full pose pipeline.

Fixed stage order, each stage individually toggleable (disabled stages
are identity pass-throughs with zero latency):

    descriptor push -> keypoint refine -> predict -> FK (head-anchored)
    -> one-Euro position filter -> kinematic pose optimization

Predictor backends behind one contract: predict(window, keypoints) returns
a FullBodyPose; `window`, the number of descriptor frames it reads, sizes
the session's descriptor and keypoint windows; and `reads_keypoints` says
whether it reads the refined keypoints at all (refine runs only if so).

* neural:    the toy-scale dual-stream encoders + fusion + decoders
* replay:    ground-truth rotations looked up from an annotated motion file
* heuristic: constant rest pose whose root follows the headset's heading

One session is strictly sequential (its filters, caches and KPO warm start
are stateful); separate sessions share nothing and may run concurrently.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from . import core, descriptor, eval as evalmod, kinematics, kpo, neural, refine, replayfile
from .errors import FileFormat, FrameCountMismatch
from .filtering import VectorFilterBank


@dataclass(frozen=True)
class PipelineConfig:
    predictor: str = "neural"
    use_keypoints: bool = True
    use_refine_normalized: bool = False
    use_fusion: bool = True
    use_filter: bool = True
    use_kpo: bool = True
    weights_path: str | None = None
    replay_file: str | None = None

    def __post_init__(self):
        if self.predictor not in ("neural", "replay", "heuristic"):
            raise ValueError(f"unknown predictor {self.predictor!r}")
        if self.use_fusion and not self.use_keypoints:
            raise ValueError("fusion requires the keypoint stream")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(doc: dict) -> "PipelineConfig":
        """Inverse of to_dict; raises ValueError naming every key that names no field."""
        unknown = set(doc) - {f.name for f in dataclasses.fields(PipelineConfig)}
        if unknown:
            raise ValueError(f"unknown PipelineConfig keys: {sorted(unknown)}")
        return PipelineConfig(**doc)


@dataclass
class FrameResult:
    pose: core.FullBodyPose
    latencies: dict
    kpo: kpo.KpoReport | None  # None when KPO is off


STAGES = ("descriptor", "refine", "predict", "fk", "filter", "kpo")


class NeuralPredictor:
    """Dual-stream encode, optional fusion, MLP decode, run as one float32 neural.Plan.
    The weights stay as given; the plan reads float32 ones as they are."""

    def __init__(self, motion_w, visual_w, fusion_w, net_cfg: neural.NetConfig,
                 use_fusion: bool = True):
        self.motion_w, self.visual_w, self.fusion_w = motion_w, visual_w, fusion_w
        self.net_cfg, self.window = net_cfg, net_cfg.window
        self.reads_keypoints = use_fusion
        streams = [motion_w, visual_w] if use_fusion else [motion_w]
        self.plan = neural.Plan(streams, net_cfg.heads, fusion_w)

    def predict(self, window: descriptor.DescriptorWindow, keypoints):
        if self.reads_keypoints and keypoints is not None:
            flat = np.asarray(keypoints).reshape(len(keypoints), -1)
            features = self.plan.fuse(self.plan.encode([window.frames, flat]))
        else:
            features = self.plan.encode([window.frames])[0]
        return neural.decode_pose(features, self.plan.fusion, self.net_cfg.joints)


class ReplayPredictor:
    """Ground-truth rotations looked up by timestamp from an annotated file."""

    window = 1  # reads only the window's end timestamp
    reads_keypoints = False

    def __init__(self, records):
        self._times = np.array([t for t, _ in records])
        self._poses = [p for _, p in records]
        if len(self._times) == 0:
            raise FileFormat("replay file carries no pose annotations")

    @staticmethod
    def from_motion_file(path):
        return ReplayPredictor([
            (head.timestamp, core.FullBodyPose(gt[0]))
            for head, _, _, gt in replayfile.read_motion_file(path) if gt is not None
        ])

    def predict(self, window: descriptor.DescriptorWindow, keypoints):
        t = window.end_timestamp
        idx = int(np.searchsorted(self._times, t))
        if idx >= len(self._times):
            idx = len(self._times) - 1
        elif idx > 0 and abs(self._times[idx - 1] - t) < abs(self._times[idx] - t):
            idx -= 1
        return self._poses[idx]


class HeuristicPredictor:
    """Rest pose whose root yaw follows the headset heading."""

    window = 1  # reads only the newest frame
    reads_keypoints = False

    def __init__(self, tree: core.KinematicTree):
        self._rest = np.tile(core.IDENTITY_6D, (tree.joint_count, 1))

    def predict(self, window: descriptor.DescriptorWindow, keypoints):
        head6 = window.frames[-1, 3:9]
        rot = core.rot6d_to_matrix(head6)
        forward = rot @ np.array([0.0, 0.0, 1.0])
        horiz = math.hypot(forward[0], forward[2])
        rotations = self._rest.copy()
        if horiz >= 1e-6:
            yaw = math.atan2(forward[0], forward[2])
            rotations[0] = core.axis_angle_rot6d([0.0, 1.0, 0.0], yaw)
        rotations.flags.writeable = False  # so the pose keeps this copy as it is
        return core.FullBodyPose(rotations)


def build_predictor(config: PipelineConfig, tree: core.KinematicTree):
    if config.predictor == "neural":
        # the network shape the pipeline feeds: one token per tree joint and
        # the tree's keypoints flattened; the session takes the window from it
        shape = dict(joints=tree.joint_count, keypoint_dim=3 * tree.joint_count)
        if config.weights_path:
            motion_w, visual_w, fusion_w, net_cfg = neural.load_weights(config.weights_path)
            for name, want in shape.items():
                got = getattr(net_cfg, name)
                if got != want:
                    raise ValueError(f"weights built for {name} {got}, pipeline uses {want}")
        else:
            net_cfg = neural.NetConfig(**shape)
            motion_w, visual_w, fusion_w = neural.init_weights(net_cfg, 0)
        return NeuralPredictor(motion_w, visual_w, fusion_w, net_cfg, config.use_fusion)
    if config.predictor == "replay":
        if not config.replay_file:
            raise ValueError("replay predictor needs replay_file")
        return ReplayPredictor.from_motion_file(config.replay_file)
    return HeuristicPredictor(tree)


class PipelineSession:
    """Stateful single-stream pose pipeline; one instance per client session.

    Raises ValueError at construction when the tree lacks a joint that a
    tracked device sits on (core.TRACKED_JOINT_NAMES).
    """

    def __init__(self, config: PipelineConfig, tree: core.KinematicTree | None = None,
                 predictor=None):
        self.config = config
        self.tree = tree or core.default_tree()
        # head, left wrist, right wrist: the FK anchor and the KPO anchors
        self._tracked = core.tracked_joints(self.tree)
        self.predictor = predictor or build_predictor(config, self.tree)
        j = self.tree.joint_count
        self._window = descriptor.DescriptorWindow(self.predictor.window)
        self._keypoints = refine.KeypointStream(j, self.predictor.window)
        self._refine_fn = refine.refine_normalized if config.use_refine_normalized else refine.refine
        if not (config.use_keypoints and self.predictor.reads_keypoints):
            self._refine_fn = None  # nothing reads refined keypoints; they are still validated
        self._pos_filter = VectorFilterBank(3 * j) if config.use_filter else None
        self._kpo_solver = kpo.KpoSolver(kpo.KpoConfig(), self.tree, self._tracked)
        self._kpo_directions = None  # unit bones of the last KPO result: the next warm start

    def process_frame(self, head: core.DevicePose, left: core.DevicePose,
                      right: core.DevicePose, keypoints=None) -> FrameResult:
        cfg = self.config
        latencies = dict.fromkeys(STAGES, 0.0)
        t_start = time.perf_counter_ns()

        # every check that can refuse the frame runs before any state changes
        d = descriptor.build_descriptor(head, left, right)
        if cfg.use_keypoints and keypoints is not None:
            keypoints = self._keypoints.validated(keypoints)
        descriptor.push_frame(self._window, d, head.timestamp)
        latencies["descriptor"] = (time.perf_counter_ns() - t_start) / 1e3

        refined = None
        if self._refine_fn is not None:
            t0 = time.perf_counter_ns()
            refined = self._refine_fn(self._keypoints, head.timestamp, keypoints)
            latencies["refine"] = (time.perf_counter_ns() - t0) / 1e3

        t0 = time.perf_counter_ns()
        pose = self.predictor.predict(self._window, refined)
        latencies["predict"] = (time.perf_counter_ns() - t0) / 1e3

        t0 = time.perf_counter_ns()
        positions = kinematics.forward_kinematics(pose, self.tree, head.position, self._tracked[0])
        latencies["fk"] = (time.perf_counter_ns() - t0) / 1e3

        if cfg.use_filter:
            t0 = time.perf_counter_ns()
            positions = self._pos_filter.step(positions.ravel(), head.timestamp).reshape(-1, 3)
            latencies["filter"] = (time.perf_counter_ns() - t0) / 1e3

        report = None
        if cfg.use_kpo:
            t0 = time.perf_counter_ns()
            positions, report = self._kpo_solver.run(
                positions, np.stack([head.position, left.position, right.position]),
                self._kpo_directions)
            bones, length = kinematics.bone_vectors(positions, self.tree)
            self._kpo_directions = bones / length[:, None]
            latencies["kpo"] = (time.perf_counter_ns() - t0) / 1e3

        latencies["total"] = (time.perf_counter_ns() - t_start) / 1e3
        return FrameResult(pose.with_positions(positions), latencies, report)


# ---------------------------------------------------------------------------
# file-driven replay with metric aggregation


@dataclass
class ReplayReport:
    frames: int
    fps: float
    metrics: dict
    per_frame: dict

    def render(self) -> str:
        doc = dict(self.metrics)
        doc["fps"] = self.fps
        doc["frames"] = float(self.frames)
        return evalmod.render_report(doc)


def run_replay(motion_path, keypoint_path, config: PipelineConfig) -> ReplayReport:
    """Stream a replay file through one session and aggregate metrics.

    Ground truth comes from the gt annotations in the motion file; the
    keypoint file is optional when the keypoint stage is disabled.
    """
    session = PipelineSession(config)
    joints = session.tree.joint_count  # every gt and keypoint record must have as many
    frames = replayfile.read_motion_file(motion_path, joints)
    kp_frames = None
    if keypoint_path:
        kp_frames = replayfile.read_keypoint_file(keypoint_path, joints)
        if len(kp_frames) != len(frames):
            raise FrameCountMismatch(
                f"{len(frames)} motion frames vs {len(kp_frames)} keypoint frames"
            )

    upper, lower = evalmod.body_halves(session.tree)
    results = []
    t_wall = time.perf_counter()
    for i, (head, left, right, _) in enumerate(frames):
        kp = None
        if kp_frames is not None and config.use_keypoints:
            _, z, zeta = kp_frames[i]
            kp = (z, zeta)
        results.append(session.process_frame(head, left, right, kp))
    wall = time.perf_counter() - t_wall
    fps = len(frames) / wall if wall > 0 else float("inf")

    if any(gt is None for *_, gt in frames):
        return ReplayReport(len(frames), fps, {}, {})
    per_frame = {"mpjpe": [], "mpjpe_u": [], "mpjpe_l": [], "pa_mpjpe": [], "mpjre": []}
    for (*_, (gt_rots, gt_pos)), res in zip(frames, results):
        pred_pos = res.pose.positions
        per_frame["mpjpe"].append(evalmod.mpjpe(pred_pos, gt_pos))
        per_frame["mpjpe_u"].append(evalmod.mpjpe(pred_pos, gt_pos, upper))
        per_frame["mpjpe_l"].append(evalmod.mpjpe(pred_pos, gt_pos, lower))
        per_frame["pa_mpjpe"].append(evalmod.pa_mpjpe(pred_pos, gt_pos))
        per_frame["mpjre"].append(evalmod.mpjre(res.pose.rotations, gt_rots))
    per_frame = {k: np.array(v) for k, v in per_frame.items()}
    metrics = {k: evalmod.summarize(v) for k, v in per_frame.items()}
    return ReplayReport(len(frames), fps, metrics, per_frame)


def write_sequence_files(seq: evalmod.SyntheticSequence, motion_path, keypoint_path,
                         noise_sigma: float = 0.0, noise_seed: int = 0):
    """Serialize a synthetic sequence to replay files with gt annotations."""
    replayfile.write_replay(motion_path, replayfile.MOTION_FORMAT, (
        replayfile.motion_record(seq.head[i], seq.left[i], seq.right[i],
                                 gt=(seq.rotations[i], seq.positions[i]))
        for i in range(seq.frame_count)
    ))
    if keypoint_path:
        if noise_sigma > 0.0:
            z, zeta = evalmod.noisy_keypoints(seq, noise_sigma, noise_seed)
        else:
            z, zeta = evalmod.clean_keypoints(seq)
        replayfile.write_replay(keypoint_path, replayfile.KEYPOINT_FORMAT, (
            replayfile.keypoint_record(t, z[i], zeta[i]) for i, t in enumerate(seq.timestamps)
        ))

"""Operator entry points: serve, synth, replay, bench.

Set EPVR_LOG to DEBUG/INFO/WARNING to control log verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time

import numpy as np

from . import eval as evalmod, net, pipeline
from .kpo import KpoConfig

log = logging.getLogger("epvr")


def _load_config(path) -> pipeline.PipelineConfig:
    if path is None:
        return pipeline.PipelineConfig()
    with open(path) as fh:
        return pipeline.PipelineConfig.from_dict(json.load(fh))


_ABLATIONS = {  # stage -> the config toggles that switch it off
    "keypoints": {"use_keypoints": False, "use_fusion": False},
    "fusion": {"use_fusion": False},
    # no raw-keypoint path exists yet, so this drops the keypoint stream
    "refine": {"use_keypoints": False, "use_fusion": False},
    "filter": {"use_filter": False},
    "kpo": {"use_kpo": False},
}
ABLATABLE = tuple(_ABLATIONS)


def apply_ablation(config: pipeline.PipelineConfig, stages) -> pipeline.PipelineConfig:
    """Disable the named stages (mirrors the toggle combinations of the
    accuracy table rows)."""
    changes = {}
    for stage in stages:
        if stage not in ABLATABLE:
            raise ValueError(f"unknown stage {stage!r}; choose from {ABLATABLE}")
        changes.update(_ABLATIONS[stage])
    return dataclasses.replace(config, **changes)


def cmd_serve(args) -> int:
    if not os.path.exists(args.models):
        print(f"error: registry file not found: {args.models}", file=sys.stderr)
        return 2
    try:
        with open(args.models) as fh:
            registry_doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read registry {args.models}: {e}", file=sys.stderr)
        return 2
    models = registry_doc.get("models", {}) if isinstance(registry_doc, dict) else None
    if not isinstance(models, dict) or not all(
            isinstance(entry, dict) and isinstance(entry.get("config", {}), dict)
            for entry in models.values()):
        print(f"error: registry {args.models} must be a JSON object of the form "
              f"{{\"models\": {{name: {{...}}}}}}", file=sys.stderr)
        return 2
    default_cfg = _load_config(args.config)
    registry = {}
    for name, entry in models.items():
        if "config" in entry:
            registry[name] = pipeline.PipelineConfig.from_dict(entry["config"])
        else:
            registry[name] = default_cfg
    if not registry:
        print(f"error: registry {args.models} defines no models", file=sys.stderr)
        return 2
    host, _, port = args.addr.partition(":")
    server = net.Server((host or "127.0.0.1", int(port or 0)), registry)
    print(f"serving {sorted(registry)} on {server.address[0]}:{server.address[1]}")
    try:
        while True:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def cmd_synth(args) -> int:
    seq = evalmod.generate_sequence(args.motion, args.duration, args.rate, args.seed)
    motion_path = args.out + ".motion.jsonl"
    keypoint_path = args.out + ".keypoints.jsonl"
    pipeline.write_sequence_files(
        seq, motion_path, keypoint_path, noise_sigma=args.noise, noise_seed=args.seed
    )
    print(f"wrote {motion_path} and {keypoint_path} ({seq.frame_count} frames)")
    return 0


def cmd_replay(args) -> int:
    config = _load_config(args.config)
    if args.ablate:
        config = apply_ablation(config, [s.strip() for s in args.ablate.split(",") if s.strip()])
    if config.predictor == "replay" and not config.replay_file:
        config = dataclasses.replace(config, replay_file=args.motion)
    report = pipeline.run_replay(args.motion, args.keypoints, config)
    if args.json:
        doc = {
            "frames": report.frames,
            "fps": report.fps,
            "metrics": {k: {"mean": v[0], "std": v[1]} for k, v in report.metrics.items()},
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = report.render()
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def _bench_frames(config, frames, seq):
    """(head, left, right, keypoints) of each frame: the walk replayed past its
    end, each pass shifted by the walk's length."""
    kp = None
    n = seq.frame_count
    for i in range(frames):
        j = i % n
        ts_shift = (i // n) * (n / seq.rate)
        head, left, right = (
            dataclasses.replace(pose, timestamp=pose.timestamp + ts_shift) if ts_shift else pose
            for pose in (seq.head[j], seq.left[j], seq.right[j])
        )
        if config.use_keypoints:
            kp = (seq.keypoints_cam[j], seq.visibility[j].astype(np.float64))
        yield head, left, right, kp


def calls_per_frame(session, frames) -> float:
    """Python-level calls (call and c_call events) per frame while session
    processes frames. The count repeats exactly, so it shows a dispatch
    change that timing noise hides; the profiler it needs slows every call."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        for frame in frames:
            session.process_frame(*frame)
    finally:
        sys.setprofile(None)
    return calls / len(frames)


def _bench_once(config, frames, seq):
    """fps, and each frame's µs per stage and KPO iterations (none if KPO is off)."""
    session = pipeline.PipelineSession(config)
    stage_us = {stage: [] for stage in pipeline.STAGES}
    iterations = []
    t0 = time.perf_counter()
    for head, left, right, kp in _bench_frames(config, frames, seq):
        result = session.process_frame(head, left, right, kp)
        for stage in pipeline.STAGES:
            stage_us[stage].append(result.latencies[stage])
        if result.kpo is not None:
            iterations.append(result.kpo.iterations)
    wall = time.perf_counter() - t0
    return frames / wall, stage_us, iterations


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def cmd_bench(args) -> int:
    config = _load_config(args.config)
    seq = evalmod.generate_sequence("walk", min(args.frames, 600) / 60.0, 60.0, seed=7)
    if config.predictor == "replay" and not config.replay_file:
        print("error: replay predictor benchmarks need replay_file in the config",
              file=sys.stderr)
        return 2
    runs = [_bench_once(config, args.frames, seq) for _ in range(args.runs)]
    fps_runs = [fps for fps, _, _ in runs]
    # the median over every frame of every run: a descheduled frame moves a mean
    stage_us = {stage: float(np.median(np.concatenate([stages[stage] for _, stages, _ in runs])))
                for stage in pipeline.STAGES}
    # the spread over runs: the lowest and highest per-run median
    spread = {stage: [f(float(np.median(stages[stage])) for _, stages, _ in runs)
                      for f in (min, max)] for stage in pipeline.STAGES}
    its = np.concatenate([run[2] for run in runs])  # KPO iterations of every frame
    kpo = {"iterations": float(np.mean(its)), "cap_share": float(np.mean(
        its >= KpoConfig().max_iterations))} if config.use_kpo else None
    mean, std = evalmod.summarize(fps_runs)
    # a separate pass, so that no timing above carries the profiler's cost
    calls = calls_per_frame(pipeline.PipelineSession(config),
                            list(_bench_frames(config, args.frames, seq)))
    if args.json:
        print(json.dumps({
            "frames": args.frames,
            "fps": {"runs": fps_runs, "mean": mean, "std": std},
            "stage_us": stage_us,
            "stage_spread_us": spread,
            "kpo": kpo,
            "calls_per_frame": calls,
        }, indent=2))
        return 0
    print(f"fps {mean:.1f} ± {std:.1f}  ({args.runs} runs x {args.frames} frames)")
    for stage, (low, high) in spread.items():
        print(f"stage.{stage}_us {stage_us[stage]:.1f} (runs {low:.1f}-{high:.1f})")
    if kpo:
        print(f"kpo.iterations {kpo['iterations']:.2f}\nkpo.cap_share {kpo['cap_share']:.3f}")
    print(f"calls_per_frame {calls:.1f}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("EPVR_LOG", "WARNING"))
    parser = argparse.ArgumentParser(
        prog="epvr", description="egocentric full-body pose pipeline tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the inference server")
    p.add_argument("--addr", default="127.0.0.1:9464")
    p.add_argument("--models", required=True, help="model registry JSON file")
    p.add_argument("--config", default=None, help="default pipeline config JSON")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("synth", help="generate a synthetic replay")
    p.add_argument("--motion", default="walk", choices=evalmod.MOTION_KINDS)
    p.add_argument("--duration", type=float, default=5.0)
    p.add_argument("--rate", type=float, default=60.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0, help="keypoint noise sigma (m)")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("replay", help="replay files through the pipeline and report metrics")
    p.add_argument("--motion", required=True)
    p.add_argument("--keypoints", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--ablate", default=None, help=f"comma-separated stages {ABLATABLE}")
    p.add_argument("--report", default=None, help="also write the report to this file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("bench", help="measure pipeline throughput")
    p.add_argument("--config", default=None)
    p.add_argument("--frames", type=_positive_int, default=2000)
    p.add_argument("--runs", type=_positive_int, default=3)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:
        log.debug("command failed", exc_info=True)
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the loopback benchmark: a one-second traced run of every workload.

For each workload it checks that
  * every metric that applies to the workload is printed with its unit, and
    the last line holds exactly the metrics BENCHMARK.json lists;
  * the wire poses pass the correctness gate, and one pose with a single
    flipped bit fails it;
  * the server removed the tracer's wrappers before it exited.
It also installs and removes the tracer in this process and checks that
every attribute of the traced modules is the original object again.

    python3 loopbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402

SEED = 5
SECONDS = 1.0


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def expected_units(wl):
    units = {k: u for k, u in run.E2E_UNITS.items()
             if wl.open_loop or k not in run.OPEN_LOOP_ONLY}
    units.update(run.LAYER_UNITS)
    return units


def check_workload(name):
    wl = run.WORKLOADS[name]
    result = run.execute(name, SEED, SECONDS, trace=True)
    check(result.correct, f"{name}: run not correct: {result.detail['phases']}")

    for trace in (False, True):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            listed = {m["name"]: m["unit"]
                      for m in json.load(fh)["per_layer" if trace else "end_to_end"]}
        lines = run.render(result, list(listed)).splitlines()
        printed = {}
        for line in lines[:-1]:
            if not line.startswith("#"):
                metric, _, unit = line.split(" ")
                printed[metric] = unit
        for metric, unit in expected_units(wl).items():
            check(printed.get(metric) == unit, f"{name}: {metric} not printed in {unit}")
        last = json.loads(lines[-1])
        check(set(last) == {"correct", "attempted", "failed", "metrics"}, "last line keys")
        check({k: v["unit"] for k, v in last["metrics"].items()} == listed,
              f"{name}: last line does not hold exactly the listed metrics")

    phase = result.phases["untraced"]
    wire = run.wire_poses(phase.logs[0])
    reference = phase.references[0]
    pose_len = len(reference[0])
    check(run.check_poses(wire, reference, pose_len) == 0, f"{name}: gate rejects good poses")
    corrupted = bytearray(wire[-1])
    corrupted[pose_len // 2] ^= 1
    wire[-1] = bytes(corrupted)
    check(run.check_poses(wire, reference, pose_len) == 1,
          f"{name}: a corrupted pose passed the correctness gate")

    check(result.detail["wrappers_removed"] is True, f"{name}: server kept wrappers")
    print(f"ok {name}: {len(printed)} metrics, "
          f"{result.detail['phases']['untraced']['answered']} poses checked untraced")


def check_uninstall():
    from epvr import descriptor, filtering, kinematics, kpo, net, neural, pipeline, refine

    owners = [descriptor, filtering, kinematics, kpo, net, neural, pipeline, refine,
              net.FrameBuffer, pipeline.PipelineSession, pipeline.NeuralPredictor,
              pipeline.HeuristicPredictor, kpo.KpoSolver, filtering.VectorFilterBank]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    tracer.install()
    check(any(dict(vars(o)) != b for o, b in zip(owners, before)), "install wrapped nothing")
    check(tracer.uninstall(), "uninstall reported a wrapper left in place")
    for owner, snapshot in zip(owners, before):
        now = vars(owner)
        check(set(now) == set(snapshot) and all(now[k] is snapshot[k] for k in snapshot),
              f"{owner.__name__} differs after uninstall")
    print("ok tracer install/uninstall restores every attribute")


def main():
    check_uninstall()
    for name in run.WORKLOADS:
        check_workload(name)
    print("selftest passed")


if __name__ == "__main__":
    main()

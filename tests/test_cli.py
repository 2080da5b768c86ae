"""Golden replay through the command line: synth a walk, replay it with
the default config and with KPO ablated, and compare every metric to the
values the pipeline produced when they were recorded (fps left out)."""

import json

import pytest

from epvr import cli, eval as evalmod, kpo, net, pipeline

GOLDEN = {
    (): {
        "mpjpe": (58.172906660564436, 2.0306989312733914),
        "mpjpe_u": (21.237017458594938, 1.9889379339037174),
        "mpjpe_l": (111.52474661896484, 2.826304766990606),
        "pa_mpjpe": (40.503268271271175, 1.013622156468501),
        "mpjre": (141.10830166880012, 4.656705373256238),
    },
    ("--ablate", "kpo"): {
        "mpjpe": (75.76220014389362, 4.5643388712755515),
        "mpjpe_u": (48.17185372254742, 5.631439148875346),
        "mpjpe_l": (115.61492275250481, 3.4949395158836647),
        "pa_mpjpe": (40.23963778319432, 1.6470854240329365),
        "mpjre": (141.10830166880012, 4.656705373256238),
    },
}


@pytest.fixture(scope="module")
def walk_files(tmp_path_factory):
    prefix = str(tmp_path_factory.mktemp("golden") / "walk")
    argv = ["synth", "--motion", "walk", "--duration", "2", "--seed", "3",
            "--noise", "0.01", "--out", prefix]
    assert cli.main(argv) == 0
    return prefix + ".motion.jsonl", prefix + ".keypoints.jsonl"


@pytest.mark.parametrize("extra", list(GOLDEN), ids=["default", "ablate-kpo"])
def test_replay_metrics_match_the_golden_values(walk_files, capsys, extra):
    motion, keypoints = walk_files
    capsys.readouterr()
    argv = ["replay", "--motion", motion, "--keypoints", keypoints, "--json", *extra]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["frames"] == 120
    assert set(doc["metrics"]) == set(GOLDEN[extra])
    for name, (mean, std) in GOLDEN[extra].items():
        got = doc["metrics"][name]
        assert abs(got["mean"] - mean) <= 1e-9, name
        assert abs(got["std"] - std) <= 1e-9, name


def test_bench_replays_the_walk_past_its_end_with_shifted_timestamps():
    config = pipeline.PipelineConfig(predictor="heuristic", use_keypoints=False,
                                     use_fusion=False, use_kpo=False)
    seq = evalmod.generate_sequence("walk", 10 / 60.0, 60.0, seed=7)
    frames = 3 * seq.frame_count + 1
    fps, stages, kpo_iterations = cli._bench_once(config, frames, seq)
    assert fps > 0 and set(stages) == set(pipeline.STAGES)
    assert all(len(stages[stage]) == frames for stage in pipeline.STAGES)
    assert kpo_iterations == []


def test_bench_json_reports_every_run_and_stage(capsys):
    capsys.readouterr()
    assert cli.main(["bench", "--frames", "20", "--runs", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["fps"]["runs"]) == 1 and doc["fps"]["mean"] == doc["fps"]["runs"][0]
    assert set(doc["stage_us"]) == set(doc["stage_spread_us"]) == set(pipeline.STAGES)
    assert set(doc["kpo"]) == {"iterations", "cap_share"}
    assert 0 < doc["kpo"]["iterations"] <= kpo.KpoConfig().max_iterations
    assert 0 <= doc["kpo"]["cap_share"] <= 1
    assert doc["calls_per_frame"] > 0


def test_bench_reports_stage_medians_over_every_frame(capsys, monkeypatch):
    # per-stage µs of each frame; the median of all six is 12.5, the mean 32.7
    def three_runs():
        runs = iter([(100.0, dict.fromkeys(pipeline.STAGES, [10.0, 11.0]), [5, 30]),
                     (200.0, dict.fromkeys(pipeline.STAGES, [12.0]), [10, 10]),
                     (300.0, dict.fromkeys(pipeline.STAGES, [60.0, 90.0, 13.0]), [30, 5])])
        monkeypatch.setattr(cli, "_bench_once", lambda config, frames, seq: next(runs))
        monkeypatch.setattr(cli, "calls_per_frame", lambda session, frames: 412.5)

    argv = ["bench", "--frames", "5", "--runs", "3"]
    three_runs()
    capsys.readouterr()
    assert cli.main(argv + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fps"]["runs"] == [100.0, 200.0, 300.0] and doc["fps"]["mean"] == 200.0
    assert doc["stage_us"] == dict.fromkeys(pipeline.STAGES, 12.5)
    # per-run medians 10.5, 12 and 60
    assert doc["stage_spread_us"] == dict.fromkeys(pipeline.STAGES, [10.5, 60.0])
    assert doc["kpo"] == {"iterations": 15.0, "cap_share": 2 / 6}
    assert doc["calls_per_frame"] == 412.5
    three_runs()
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("fps 200.0 ")
    assert lines[1:] == [f"stage.{stage}_us 12.5 (runs 10.5-60.0)" for stage in pipeline.STAGES] + [
        "kpo.iterations 15.00", "kpo.cap_share 0.333", "calls_per_frame 412.5"]


@pytest.mark.parametrize("flag", ["--runs", "--frames"])
@pytest.mark.parametrize("value", ["0", "-2", "x"])
def test_bench_refuses_a_count_below_one(capsys, flag, value):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["bench", flag, value])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: epvr bench")
    assert f"argument {flag}: must be a positive integer" in err


@pytest.mark.parametrize("registry, code, why", [
    (None, 2, "registry file not found"),
    ("{not json", 2, "cannot read registry"),
    ('{"models": {}}', 2, "defines no models"),
    ("[]", 2, "must be a JSON object"),
    ('{"models": [{"config": {}}]}', 2, "must be a JSON object"),
    ('{"models": {"hmd": 5}}', 2, "must be a JSON object"),
    ('{"models": {"hmd": {"config": []}}}', 2, "must be a JSON object"),
    ('{"models": {"hmd": {"config": {"use_kalman": true}}}}', 1,
     "unknown PipelineConfig keys: ['use_kalman']"),
], ids=["missing", "not-json", "no-models", "not-an-object", "models-a-list",
        "model-not-an-object", "config-not-an-object", "unknown-config-key"])
def test_serve_refuses_a_bad_registry_before_binding(tmp_path, capsys, monkeypatch,
                                                     registry, code, why):
    def no_server(*args, **kwargs):
        raise AssertionError("serve bound a port for a registry it should refuse")

    monkeypatch.setattr(net, "Server", no_server)
    path = tmp_path / "models.json"
    if registry is not None:
        path.write_text(registry)
    capsys.readouterr()
    assert cli.main(["serve", "--addr", "127.0.0.1:0", "--models", str(path)]) == code
    err = capsys.readouterr().err
    assert why in err
    if code == 2:
        assert str(path) in err

"""Stateful model check of PipelineSession.

Hypothesis interleaves good frames, with and without keypoints, and frames
the session must refuse: a stale timestamp, skewed device timestamps, a NaN
in a device pose, and keypoints of a bad shape, a NaN or a visibility
outside [0, 1]. A shadow session, built fresh with the example and fed only
the frames the session accepted, must give every accepted frame the same
pose and KPO report bit for bit. So a refused frame changes no state the
next frame reads, the KPO warm start included.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from epvr import core, eval as evalmod, pipeline
from epvr.errors import NonFiniteInput, ShapeError, StaleFrame, TimestampSkew

FRAMES = 60
WALK = evalmod.generate_sequence("walk", FRAMES / 60.0, 60.0, seed=1)
Z, ZETA = evalmod.noisy_keypoints(WALK, 0.01, seed=2)
TREE = core.default_tree()
CONFIGS = {
    "fused": pipeline.PipelineConfig(),  # neural, refine and fusion read the keypoints
    "hmd-only": pipeline.PipelineConfig(predictor="heuristic", use_keypoints=False,
                                        use_fusion=False),
    # keypoints validated but read by nothing, normalized mask, no filter
    "heuristic-keypoints": pipeline.PipelineConfig(predictor="heuristic", use_fusion=False,
                                                   use_refine_normalized=True, use_filter=False),
}
PREDICTORS = {name: pipeline.build_predictor(cfg, TREE) for name, cfg in CONFIGS.items()}


def _bad_keypoints(kind, z, zeta):
    if kind == "rows":
        return z[:-1], zeta
    if kind == "visibility_rows":
        return z, zeta[:5]
    if kind == "nan":
        z = z.copy()
        z[3, 1] = np.nan
        return z, zeta
    zeta = zeta.copy()
    zeta[0] = 1.5 if kind == "visibility_above_one" else -0.25
    return z, zeta


class SessionMachine(RuleBasedStateMachine):
    @initialize(name=st.sampled_from(sorted(CONFIGS)))
    def open_session(self, name):
        config, predictor = CONFIGS[name], PREDICTORS[name]
        self.config = config
        self.session = pipeline.PipelineSession(config, TREE, predictor)
        self.shadow = pipeline.PipelineSession(config, TREE, predictor)
        self.accepted = 0  # frames the session took; the walk index of the next
        self.last_time = None

    def _frame(self, time=None):
        """The next walk frame's devices at time (the next tick by default)
        and its keypoints."""
        i = self.accepted % FRAMES
        if time is None:
            time = self.accepted / 60.0
        devices = [dataclasses.replace(pose, timestamp=time)
                   for pose in (WALK.head[i], WALK.left[i], WALK.right[i])]
        return devices, (Z[i], ZETA[i])

    def _accept(self, devices, keypoints):
        got = self.session.process_frame(*devices, keypoints)
        want = self.shadow.process_frame(*devices, keypoints)
        assert np.array_equal(got.pose.rotations, want.pose.rotations)
        assert np.array_equal(got.pose.positions, want.pose.positions)
        assert got.kpo == want.kpo
        self.accepted += 1
        self.last_time = devices[0].timestamp

    def _refuse(self, error, devices, keypoints):
        with pytest.raises(error):
            self.session.process_frame(*devices, keypoints)

    @rule()
    def good_frame(self):
        self._accept(*self._frame())

    @rule()
    def good_frame_without_keypoints(self):
        self._accept(self._frame()[0], None)

    @precondition(lambda self: self.last_time is not None)
    @rule(back=st.integers(0, 3))
    def stale_frame(self, back):
        self._refuse(StaleFrame, *self._frame(self.last_time - back / 60.0))

    @rule(device=st.integers(0, 2), skew=st.floats(2e-4, 0.5))
    def skewed_devices(self, device, skew):
        devices, keypoints = self._frame()
        devices[device] = dataclasses.replace(devices[device],
                                              timestamp=devices[device].timestamp + skew)
        self._refuse(TimestampSkew, devices, keypoints)

    @rule(device=st.integers(0, 2), field=st.sampled_from(["position", "orientation",
                                                           "timestamp"]))
    def nan_device(self, device, field):
        devices, keypoints = self._frame()
        value = np.nan
        if field != "timestamp":
            value = np.array(getattr(devices[device], field))
            value[0] = np.nan
        devices[device] = dataclasses.replace(devices[device], **{field: value})
        self._refuse(NonFiniteInput, devices, keypoints)

    @rule(kind=st.sampled_from(["rows", "visibility_rows", "nan", "visibility_above_one",
                                "visibility_below_zero"]))
    def bad_keypoints(self, kind):
        devices, keypoints = self._frame()
        bad = _bad_keypoints(kind, *keypoints)
        if self.config.use_keypoints:
            self._refuse(ShapeError, devices, bad)
        else:  # a session without the keypoint stage never reads them
            self._accept(devices, bad)


TestSessionMachine = SessionMachine.TestCase
TestSessionMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None, derandomize=True)

import numpy as np
import pytest

from epvr import filtering
from epvr.errors import ChannelCountMismatch, NonMonotonicTime

import oracles


def _scalar_bank(**kw):
    return filtering.VectorFilterBank(1, **kw)


def _run(bank, xs, ts):
    """Filtered values of a one-channel bank over a scalar stream."""
    return [float(bank.step([x], float(t))[0]) for x, t in zip(xs, ts)]


def test_constant_input_is_fixed_point():
    bank = _scalar_bank()
    for i in range(100):
        out = bank.step([2.5], i / 60)
        assert out[0] == 2.5


def test_beta_zero_matches_reference_recurrence():
    rng = np.random.default_rng(21)
    xs = rng.standard_normal(200)
    ts = np.cumsum(rng.uniform(0.01, 0.05, size=200))
    got = _run(_scalar_bank(min_cutoff=1.5, beta=0.0, d_cutoff=2.0), xs, ts)
    want = oracles.one_euro_reference(xs, ts, 1.5, 0.0, 2.0)
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-12


def test_nonzero_beta_matches_reference_recurrence():
    rng = np.random.default_rng(22)
    xs = rng.standard_normal(200) * 3
    ts = np.cumsum(rng.uniform(0.005, 0.03, size=200))
    got = _run(_scalar_bank(min_cutoff=1.0, beta=0.3, d_cutoff=1.0), xs, ts)
    want = oracles.one_euro_reference(xs, ts, 1.0, 0.3, 1.0)
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-12


def test_unit_step_monotone_without_overshoot():
    bank = _scalar_bank()
    xs = [0.0] * 5 + [1.0] * 200
    prev = None
    for i, x in enumerate(xs):
        out = bank.step([x], i / 60)[0]
        if prev is not None and i >= 5:
            assert out >= prev - 1e-15
        assert out <= 1.0 + 1e-15
        prev = out
    assert prev > 0.99


def test_output_bounded_by_running_extrema_for_beta_zero():
    rng = np.random.default_rng(23)
    bank = _scalar_bank(beta=0.0)
    lo, hi = np.inf, -np.inf
    for i in range(300):
        x = float(rng.uniform(-4, 4))
        lo, hi = min(lo, x), max(hi, x)
        out = bank.step([x], i / 60)[0]
        assert lo - 1e-12 <= out <= hi + 1e-12


def test_rejects_non_monotone_time():
    bank = _scalar_bank()
    bank.step([1.0], 1.0)
    with pytest.raises(NonMonotonicTime):
        bank.step([1.0], 1.0)
    with pytest.raises(NonMonotonicTime):
        bank.step([1.0], 0.5)


def test_state_validation():
    with pytest.raises(ValueError):
        filtering.VectorFilterBank(1, min_cutoff=0.0)
    with pytest.raises(ValueError):
        filtering.VectorFilterBank(1, d_cutoff=0.0)
    with pytest.raises(ValueError):
        filtering.VectorFilterBank(1, beta=-0.1)
    with pytest.raises(ValueError):
        filtering.VectorFilterBank(0)


def test_vector_bank_constant_unchanged():
    bank = filtering.VectorFilterBank(66)
    xs = np.linspace(-1, 1, 66)
    for i in range(50):
        out = bank.step(xs, i / 60)
        assert np.array_equal(out, xs)


def test_vector_bank_channel_independence():
    bank = filtering.VectorFilterBank(4)
    base = np.zeros(4)
    bank.step(base, 0.0)
    stepped = base.copy()
    stepped[2] = 1.0
    out = bank.step(stepped, 1 / 60)
    assert out[0] == 0.0 and out[1] == 0.0 and out[3] == 0.0
    assert 0.0 < out[2] < 1.0


def test_vector_bank_matches_scalar_filters_bitwise():
    """A k-channel bank equals k one-channel banks bit for bit, and each
    channel follows the reference recurrence."""
    rng = np.random.default_rng(24)
    k = 7
    xs = rng.standard_normal((100, k))
    ts = np.cumsum(rng.uniform(0.01, 0.04, size=100))
    params = dict(min_cutoff=0.8, beta=0.05, d_cutoff=1.3)
    bank = filtering.VectorFilterBank(k, **params)
    got = np.array([bank.step(row, float(t)) for row, t in zip(xs, ts)])
    for c in range(k):
        assert np.array_equal(got[:, c], _run(_scalar_bank(**params), xs[:, c], ts))
        want = oracles.one_euro_reference(xs[:, c], ts, 0.8, 0.05, 1.3)
        assert np.max(np.abs(got[:, c] - np.array(want))) < 1e-12


def test_vector_bank_rejects_wrong_width():
    bank = filtering.VectorFilterBank(3)
    with pytest.raises(ChannelCountMismatch):
        bank.step(np.zeros(4), 0.0)


def test_determinism_same_stream_same_output():
    rng = np.random.default_rng(25)
    xs = rng.standard_normal(100)
    ts = np.cumsum(rng.uniform(0.01, 0.02, size=100))
    assert _run(_scalar_bank(beta=0.02), xs, ts) == _run(_scalar_bank(beta=0.02), xs, ts)


def test_causality_prefix_invariance():
    """Output at step k only depends on inputs up to k."""
    rng = np.random.default_rng(26)
    xs = rng.standard_normal(50)
    ts = np.cumsum(rng.uniform(0.01, 0.02, size=50))
    full = _run(_scalar_bank(beta=0.1), xs, ts)
    prefix = _run(_scalar_bank(beta=0.1), xs[:20], ts[:20])
    assert full[:20] == prefix

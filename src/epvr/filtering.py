"""One-Euro low-pass filtering for vector streams.

Adaptive first-order smoother: the cutoff frequency rises with the
filtered derivative of the signal, trading lag for jitter suppression.
Timestamp-driven so irregular frame spacing is handled.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ChannelCountMismatch, NonMonotonicTime

DEFAULT_MIN_CUTOFF = 1.0  # Hz
DEFAULT_BETA = 0.007
DEFAULT_D_CUTOFF = 1.0  # Hz


def _alpha(cutoff, dt):
    tau = 1.0 / (2.0 * math.pi * cutoff)
    return 1.0 / (1.0 + tau / dt)


class VectorFilterBank:
    """Independent one-Euro filters over the channels of a fixed-width vector.

    Each channel follows the scalar recurrence of Casiez et al. ("1€
    Filter", CHI 2012) in incremental form, so a constant input is an exact
    fixed point. The first step initializes the state and returns the input
    unchanged.
    """

    def __init__(self, channels: int, min_cutoff=DEFAULT_MIN_CUTOFF, beta=DEFAULT_BETA,
                 d_cutoff=DEFAULT_D_CUTOFF):
        if channels < 1:
            raise ValueError("channel count must be >= 1")
        if min_cutoff <= 0.0 or d_cutoff <= 0.0:
            raise ValueError("cutoff frequencies must be positive")
        if beta < 0.0:
            raise ValueError("beta must be nonnegative")
        self.channels = channels
        self.min_cutoff = min_cutoff
        self.beta = beta
        self.d_cutoff = d_cutoff
        self.last_value = np.zeros(channels)
        self.last_derivative = np.zeros(channels)
        self.last_timestamp = 0.0
        self.initialized = False

    def step(self, xs, t: float):
        xs = np.asarray(xs, dtype=np.float64)
        if xs.shape != (self.channels,):
            raise ChannelCountMismatch(
                f"expected {self.channels} channels, got shape {xs.shape}"
            )
        if not self.initialized:
            self.last_value = xs.copy()
            self.last_derivative = np.zeros(self.channels)
            self.last_timestamp = t
            self.initialized = True
            return xs.copy()
        dt = t - self.last_timestamp
        if dt <= 0.0:
            raise NonMonotonicTime(f"filter time went backwards: {self.last_timestamp} -> {t}")
        dx = (xs - self.last_value) / dt
        a_d = _alpha(self.d_cutoff, dt)
        dx_hat = self.last_derivative + a_d * (dx - self.last_derivative)
        cutoff = self.min_cutoff + self.beta * np.abs(dx_hat)
        a = _alpha(cutoff, dt)
        x_hat = self.last_value + a * (xs - self.last_value)
        self.last_value = x_hat
        self.last_derivative = dx_hat
        self.last_timestamp = t
        return x_hat.copy()

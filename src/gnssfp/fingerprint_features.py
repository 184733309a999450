"""Six-dimensional high/low fingerprint features from EPL correlator epochs.

Epochs failing either lock test are dropped, then consecutive surviving
epochs are grouped into non-overlapping windows. Within a window the real
parts of each correlator are split by sign and averaged: the means of the
strictly-positive values form the "high" features, the means of the
strictly-negative values the "low" features, giving one
(e_high, e_low, p_high, p_low, l_high, l_low) vector per window — one
fully six-dimensional sample point per nav-bit-scale interval.

The pass is strictly single-scan with bounded per-window work, so the cost
per emitted sample point is constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .receiver_core import LOCK_PASS, TrackingConfig, lock_tests


@dataclass(frozen=True)
class FeatureVector:
    """One sample point: sign-split means of the EPL real parts."""

    t: float  # window end, seconds
    prn: int
    e_high: float
    e_low: float
    p_high: float
    p_low: float
    l_high: float
    l_low: float

    def as_array(self) -> np.ndarray:
        return np.array([self.e_high, self.e_low, self.p_high,
                         self.p_low, self.l_high, self.l_low])


@dataclass(frozen=True)
class FeatureWindowConfig:
    window_len: int = 20  # epochs per sample point (one nav bit at 1 ms)
    min_pos: int = 3  # required positive real-prompt epochs per window
    min_neg: int = 3

    def __post_init__(self):
        if self.window_len < self.min_pos + self.min_neg:
            raise ValueError("window_len must be >= min_pos + min_neg")


def _sign_split_mean(values: np.ndarray) -> tuple[float, float]:
    # Values exactly zero land in neither side; an empty side reports 0.0
    # ("no mass above/below zero"), keeping the sign contract intact.
    pos = values[values > 0]
    neg = values[values < 0]
    high = float(pos.mean()) if pos.size else 0.0
    low = float(neg.mean()) if neg.size else 0.0
    return high, low


def extract_features(epochs, cfg: FeatureWindowConfig = FeatureWindowConfig(),
                     trk: TrackingConfig = TrackingConfig(),
                     prn: int = 0):
    """Lock-filter epochs and emit one FeatureVector per surviving window.

    `epochs` may be any iterable of CorrelatorEpoch from a single channel in
    time order; it is consumed exactly once. Windows with fewer than
    min_pos positive or min_neg negative real-prompt epochs are skipped.
    """
    out = []
    buf_e = np.empty(cfg.window_len)
    buf_p = np.empty(cfg.window_len)
    buf_l = np.empty(cfg.window_len)
    fill = 0
    t_last = 0.0

    for ep in epochs:
        if lock_tests(ep, trk) != LOCK_PASS:
            continue
        buf_e[fill] = ep.e.real
        buf_p[fill] = ep.p.real
        buf_l[fill] = ep.l.real
        t_last = ep.t
        fill += 1
        if fill < cfg.window_len:
            continue
        fill = 0
        n_pos = int(np.count_nonzero(buf_p > 0))
        n_neg = int(np.count_nonzero(buf_p < 0))
        if n_pos < cfg.min_pos or n_neg < cfg.min_neg:
            continue
        e_high, e_low = _sign_split_mean(buf_e)
        p_high, p_low = _sign_split_mean(buf_p)
        l_high, l_low = _sign_split_mean(buf_l)
        out.append(FeatureVector(t=t_last, prn=prn, e_high=e_high, e_low=e_low,
                                 p_high=p_high, p_low=p_low,
                                 l_high=l_high, l_low=l_low))
    return out

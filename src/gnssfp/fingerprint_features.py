"""Six-dimensional high/low fingerprint features from EPL correlator epochs.

Epochs failing either lock test are dropped, then consecutive surviving
epochs are grouped into non-overlapping windows. Within a window the real
parts of each correlator are split by sign and averaged: the means of the
strictly-positive values form the "high" features, the means of the
strictly-negative values the "low" features, giving one
(e_high, e_low, p_high, p_low, l_high, l_low) vector per window — one
fully six-dimensional sample point per nav-bit-scale interval.

The lock filter is one mask over the epoch array; the survivors are reshaped
into window rows, so Python visits windows, never single epochs. The sample
points come out as one FEATURE_DTYPE array, one record per window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .receiver_core import lock_masks


# One sample point per record, laid out as the feature CSV's columns: window
# end time (s), PRN, then the sign-split means of the EPL real parts.
FEATURE_DTYPE = np.dtype([("t", np.float64), ("prn", np.int64),
                          ("e_high", np.float64), ("e_low", np.float64),
                          ("p_high", np.float64), ("p_low", np.float64),
                          ("l_high", np.float64), ("l_low", np.float64)])


def feature_matrix(features) -> np.ndarray:
    """The six feature columns of a FEATURE_DTYPE array as an (n, 6) float64
    matrix, the rows that the model is fitted to and scores."""
    return np.column_stack([features[name] for name in FEATURE_DTYPE.names[2:]])


@dataclass(frozen=True)
class FeatureWindowConfig:
    window_len: int = 40  # epochs per sample point (two nav bits at 1 ms)
    min_pos: int = 3  # required positive real-prompt epochs per window
    min_neg: int = 3

    def __post_init__(self):
        if self.window_len < 1:
            raise ValueError(f"window_len must be >= 1, got {self.window_len}")
        if self.min_pos < 0 or self.min_neg < 0:
            raise ValueError(f"min_pos and min_neg must be >= 0, got "
                             f"{self.min_pos} and {self.min_neg}")
        if self.window_len < self.min_pos + self.min_neg:
            raise ValueError(f"window_len must be >= min_pos + min_neg, got "
                             f"{self.window_len} < {self.min_pos} + {self.min_neg}")


def _sign_split_mean(values: np.ndarray) -> tuple[float, float]:
    # Values exactly zero land in neither side; an empty side reports 0.0
    # ("no mass above/below zero"), keeping the sign contract intact.
    pos = values[values > 0]
    neg = values[values < 0]
    high = float(pos.mean()) if pos.size else 0.0
    low = float(neg.mean()) if neg.size else 0.0
    return high, low


def extract_features(epochs, cfg: FeatureWindowConfig = FeatureWindowConfig(),
                     prn: int = 0) -> np.recarray:
    """Lock-filter epochs and emit one FEATURE_DTYPE record per surviving window.

    `epochs` is one channel's EPOCH_DTYPE array in time order. Windows with
    fewer than min_pos positive or min_neg negative real-prompt epochs are
    skipped.
    """
    code_ok, carrier_ok = lock_masks(epochs)
    kept = epochs[code_ok & carrier_ok]
    n_win = len(kept) // cfg.window_len
    rows = kept[:n_win * cfg.window_len].reshape(n_win, cfg.window_len)
    e, p, l = rows["e"].real, rows["p"].real, rows["l"].real
    balanced = ((np.count_nonzero(p > 0, axis=1) >= cfg.min_pos)
                & (np.count_nonzero(p < 0, axis=1) >= cfg.min_neg))
    # Means over each window's compacted values: a masked row sum would add
    # them in another order and change the features' last bits.
    return np.array([(rows["t"][i, -1], prn,
                      *(m for column in (e, p, l) for m in _sign_split_mean(column[i])))
                     for i in np.flatnonzero(balanced)], dtype=FEATURE_DTYPE).view(np.recarray)

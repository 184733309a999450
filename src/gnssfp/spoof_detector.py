"""Training, EER thresholding, real-time detection, and spoof-timing metrics.

Orientation used throughout (documented because papers rarely pin it down):
"positive" means accepted-as-authentic. FPR is the fraction of spoofed
sample points accepted; FNR is the fraction of genuine sample points
rejected. Write-ups that use the opposite convention (detected spoof as
positive) exchange fpr with fnr, and the counts (tp, fp) with (tn, fn).

All scores are log densities; a sample point is Authentic when the mean
density of its n_avg-point group (log-sum-exp mean) is strictly greater
than the trained threshold.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, replace

import numpy as np

from . import mvn_model, receiver_core
from .fingerprint_features import FeatureWindowConfig, extract_features, feature_matrix
from .mvn_model import MvnModel

logger = logging.getLogger(__name__)

DECISION_AUTHENTIC = "authentic"
DECISION_MALICIOUS = "malicious"
_FALLBACK_QUANTILE = 0.01  # held-out genuine score quantile: the threshold without spoofed data


@dataclass(frozen=True)
class DetectorProfile:
    """Deployable fingerprint: fitted model, log-space threshold, averaging depth."""

    model: MvnModel
    log_threshold: float
    n_avg: int = 1
    trained_on: tuple = ()
    train_eer: float = float("nan")
    threshold_method: str = "eer"  # "eer" | "genuine_quantile"

    def __post_init__(self):
        if self.n_avg < 1:
            raise ValueError(f"n_avg must be >= 1, got {self.n_avg}")


@dataclass(frozen=True)
class EvalReport:
    fpr: float
    fnr: float
    eer: float  # training-time EER associated with the threshold
    threshold: float  # log-space
    n_avg: int
    counts: tuple  # (tp, fp, tn, fn) with positive = accepted-as-authentic


@dataclass(frozen=True)
class Decision:
    t_start: float
    t_end: float
    prn: int
    log_score: float
    decision: str
    label: str = "unknown"


@dataclass(frozen=True)
class SpoofTimingReport:
    """Per PRN-set timing of undetected spoofing (conjunction over members)."""

    prn_sets: tuple
    max_continuous_spoof_s: tuple  # per PRN-set
    total_spoof_s: tuple  # per PRN-set, summed undetected-spoofed time
    undetected_30s_locks: tuple  # per PRN-set, disjoint full 30 s intervals
    overall_continuous_spoof_s: float  # mean of total_spoof_s over PRN-sets


def score_features(matrix, model: MvnModel) -> np.ndarray:
    """Log MVN score of each feature row."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape[0] == 0:
        return np.empty(0)
    return np.atleast_1d(mvn_model.log_density(matrix, model))


def _rates_at(threshold: float, genuine_sorted: np.ndarray,
              spoofed_sorted: np.ndarray) -> tuple[float, float]:
    # FNR: genuine scored below t (rejected); FPR: spoofed scored >= t (accepted).
    fnr = np.searchsorted(genuine_sorted, threshold, side="left") / len(genuine_sorted)
    fpr = 1.0 - np.searchsorted(spoofed_sorted, threshold, side="left") / len(spoofed_sorted)
    return float(fpr), float(fnr)


def eer_threshold(genuine_scores, spoofed_scores) -> tuple[float, float]:
    """Equal-error-rate threshold by binary search over the score union.

    FPR - FNR is non-increasing across the sorted candidate thresholds, so
    a binary search finds the sign change; the neighbor with the smaller
    |FPR - FNR| wins, ties broken toward lower FNR. The returned threshold
    sits halfway between the winning candidate and the next one below: no
    score lies in that open interval, so the rates are identical to the
    winning candidate's, and separable classes get the whole gap as margin
    instead of a threshold pinned to the lowest genuine score. Returns
    (threshold, eer) with eer = max(FPR, FNR) at the chosen point.
    """
    g = np.sort(np.asarray(genuine_scores, dtype=np.float64))
    s = np.sort(np.asarray(spoofed_scores, dtype=np.float64))
    if len(g) == 0 or len(s) == 0:
        raise ValueError("both score lists must be non-empty")
    if np.any(np.isnan(g)) or np.any(np.isnan(s)):
        raise ValueError("scores must not contain NaN")

    cand = np.unique(np.concatenate([g, s]))
    lo, hi = 0, len(cand) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        fpr, fnr = _rates_at(cand[mid], g, s)
        if fpr - fnr > 0:
            lo = mid + 1
        else:
            hi = mid
    best_idx = lo
    best_fpr, best_fnr = _rates_at(cand[lo], g, s)
    best_gap = abs(best_fpr - best_fnr)
    if lo > 0:
        fpr0, fnr0 = _rates_at(cand[lo - 1], g, s)
        gap0 = abs(fpr0 - fnr0)
        # tie toward lower FNR: the earlier candidate never has higher FNR
        if gap0 <= best_gap:
            best_idx, best_fpr, best_fnr, best_gap = lo - 1, fpr0, fnr0, gap0
    threshold = cand[best_idx]
    if best_idx > 0 and np.isfinite(cand[best_idx - 1]):
        threshold = 0.5 * (cand[best_idx] + cand[best_idx - 1])
    return float(threshold), max(best_fpr, best_fnr)


def train(genuine_features, spoofed_features=None, holdout_fraction: float = 0.3,
          seed: int = 0, n_avg: int = 1, trained_on: tuple = ()) -> DetectorProfile:
    """Fit the genuine-population MVN and set the detection threshold.

    The model is fit on (1 - holdout_fraction) of the genuine sample points
    (training is assumed spoof-free); the held-out genuine scores together
    with all spoofed scores set the EER threshold. Without spoofed scores
    the threshold falls back to the _FALLBACK_QUANTILE of the held-out
    genuine scores, flagged on the profile and logged as a warning.
    """
    x = np.asarray(genuine_features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("genuine_features must be an (n, k) matrix")
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_hold = int(round(holdout_fraction * n))
    hold_idx, fit_idx = order[:n_hold], order[n_hold:]
    if len(fit_idx) <= x.shape[1]:
        raise ValueError(f"not enough genuine samples to fit after holdout: "
                         f"{len(fit_idx)} <= k={x.shape[1]}")

    model = mvn_model.fit(x[fit_idx])
    genuine_scores = score_features(x[hold_idx], model)

    spoofed = None if spoofed_features is None else np.asarray(spoofed_features)
    if spoofed is None or spoofed.shape[0] == 0:
        logger.warning("no spoofed features supplied; falling back to genuine "
                       "quantile thresholding (EER requires both classes)")
        if len(genuine_scores) == 0:
            genuine_scores = score_features(x[fit_idx], model)
        threshold, eer = float(np.quantile(genuine_scores, _FALLBACK_QUANTILE)), float("nan")
        method = "genuine_quantile"
    else:
        threshold, eer = eer_threshold(genuine_scores, score_features(spoofed, model))
        method = "eer"
    return DetectorProfile(model=model, log_threshold=threshold, n_avg=n_avg,
                           trained_on=tuple(trained_on), train_eer=eer,
                           threshold_method=method)


def block_log_scores(log_scores, n: int) -> np.ndarray:
    """Log-sum-exp mean over disjoint consecutive blocks of n scores."""
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    scores = np.asarray(log_scores, dtype=np.float64)
    n_blocks = len(scores) // n
    return mvn_model.log_mean_of_scores(scores[:n_blocks * n].reshape(n_blocks, n))


def evaluate(genuine_scores, spoofed_scores, profile: DetectorProfile,
             n_avg: int | None = None) -> EvalReport:
    """Apply the trained threshold to scored sample points and count errors.

    Scores are grouped into disjoint n_avg blocks (leftovers dropped) and
    each block classified by its mean density. The report's `eer` is the
    profile's training EER, not an error rate of these scores.
    """
    n = profile.n_avg if n_avg is None else n_avg
    g = block_log_scores(genuine_scores, n)
    s = block_log_scores(spoofed_scores, n)
    if len(g) == 0 or len(s) == 0:
        raise ValueError(f"need at least {n} scores per class to evaluate at n_avg={n}")
    thr = profile.log_threshold
    tp = int(np.sum(g > thr))
    fn = len(g) - tp
    fp = int(np.sum(s > thr))
    tn = len(s) - fp
    return EvalReport(fpr=fp / (fp + tn), fnr=fn / (fn + tp), eer=profile.train_eer,
                      threshold=thr, n_avg=n, counts=(tp, fp, tn, fn))


def kfold_xval(datasets, holdout_fraction: float = 0.3, seed: int = 0,
               n_avg: int = 1) -> list[EvalReport]:
    """Leave-one-dataset-out cross-validation.

    For each held-out (genuine, spoofed) pair, a profile is trained on the
    union of all other datasets and evaluated on the held-out one.
    """
    if len(datasets) < 2:
        raise ValueError("k-fold cross-validation needs at least 2 datasets")
    reports = []
    for i in range(len(datasets)):
        rest = [d for j, d in enumerate(datasets) if j != i]
        genuine = np.vstack([np.asarray(g) for g, _ in rest])
        spoofed = np.vstack([np.asarray(s) for _, s in rest])
        profile = train(genuine, spoofed, holdout_fraction=holdout_fraction,
                        seed=seed, n_avg=n_avg)
        g_i = score_features(np.asarray(datasets[i][0]), profile.model)
        s_i = score_features(np.asarray(datasets[i][1]), profile.model)
        reports.append(evaluate(g_i, s_i, profile, n_avg=n_avg))
    return reports


def detect_stream(epochs: np.ndarray, profile: DetectorProfile,
                  window_cfg: FeatureWindowConfig = FeatureWindowConfig(),
                  prn: int = 0) -> list[Decision]:
    """Streaming detection over one channel's EPOCH_DTYPE correlator epochs.

    Features are extracted with the usual lock filtering, scored, and
    grouped into sliding n_avg blocks (stride one sample point) so each new
    sample point yields a decision once the block is full: Authentic iff the
    block's log-sum-exp mean score is strictly greater than the threshold.
    """
    feats = extract_features(epochs, window_cfg, prn=prn)
    n = profile.n_avg
    if len(feats) < n:
        return []
    scores = score_features(feature_matrix(feats), profile.model)
    mean_log = mvn_model.log_mean_of_scores(np.lib.stride_tricks.sliding_window_view(scores, n))
    t_start = (feats.t[:len(feats) - n + 1]
               - window_cfg.window_len * receiver_core.INTEGRATION_TIME)
    return [Decision(t_start=t0, t_end=t1, prn=prn, log_score=score,
                     decision=(DECISION_AUTHENTIC if score > profile.log_threshold
                               else DECISION_MALICIOUS))
            for t0, t1, score in zip(t_start.tolist(), feats.t[n - 1:].tolist(),
                                     mean_log.tolist())]


def annotate_decisions(decisions, label_intervals) -> list[Decision]:
    """Attach the dominant ground-truth label to each decision interval."""
    out = []
    for d in decisions:
        best_label, best_overlap = "unknown", 0.0
        for t0, t1, name in label_intervals:
            ov = min(d.t_end, t1) - max(d.t_start, t0)
            if ov > best_overlap:
                best_overlap, best_label = ov, name
        out.append(replace(d, label=best_label))
    return out


def prn_sets(available_prns) -> list[tuple]:
    """All 4-satellite combinations (the minimum for a PVT fix)."""
    prns = sorted(set(available_prns))
    if len(prns) < 4:
        raise ValueError(f"need at least 4 PRNs for a PVT fix, got {len(prns)}")
    return [tuple(c) for c in itertools.combinations(prns, 4)]


def _merge_intervals(intervals) -> list[tuple]:
    ivs = sorted((a, b) for a, b in intervals if b > a)
    merged = []
    for a, b in ivs:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def _intersect_intervals(a, b) -> list[tuple]:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def spoof_timing(decisions_by_prn: dict, label_intervals, sets) -> SpoofTimingReport:
    """Timing of undetected spoofing per PRN-set.

    A moment counts as undetected spoofing for a set only while ground
    truth is spoofed (or mixed) AND every member channel currently carries
    an Authentic decision. Reports, per set, the longest such run, the
    summed total, and the number of disjoint full 30 s runs (one nav frame
    each); the overall figure is the mean of the per-set totals.
    """
    if not label_intervals:
        raise ValueError("label intervals required")
    t_lo = min(t0 for t0, _, _ in label_intervals)
    t_hi = max(t1 for _, t1, _ in label_intervals)
    for prn, decisions in decisions_by_prn.items():
        for d in decisions:
            if d.t_end < d.t_start:
                raise ValueError(f"decision interval reversed on PRN {prn}: {d}")
            if d.t_end < t_lo - 1e-9 or d.t_start > t_hi + 1e-9:
                raise ValueError(f"decision on PRN {prn} outside labeled span "
                                 f"[{t_lo}, {t_hi}]: {d}")

    spoofed_truth = _merge_intervals(
        [(t0, t1) for t0, t1, name in label_intervals if name != "genuine"])
    authentic_cov = {
        prn: _merge_intervals([(d.t_start, d.t_end) for d in decisions
                               if d.decision == DECISION_AUTHENTIC])
        for prn, decisions in decisions_by_prn.items()
    }

    max_runs, totals, locks = [], [], []
    for prns in sets:
        undetected = spoofed_truth
        for prn in prns:
            undetected = _intersect_intervals(undetected, authentic_cov.get(prn, []))
            if not undetected:
                break
        lengths = [b - a for a, b in undetected]
        max_runs.append(max(lengths) if lengths else 0.0)
        totals.append(sum(lengths))
        locks.append(sum(int((length + 1e-9) // 30.0) for length in lengths))

    overall = float(np.mean(totals)) if totals else 0.0
    return SpoofTimingReport(prn_sets=tuple(sets),
                             max_continuous_spoof_s=tuple(max_runs),
                             total_spoof_s=tuple(totals),
                             undetected_30s_locks=tuple(locks),
                             overall_continuous_spoof_s=overall)

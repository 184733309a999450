import numpy as np
import pytest

from gnssfp import spoof_detector as sd
from gnssfp.spoof_detector import (DECISION_AUTHENTIC, DECISION_MALICIOUS,
                                   Decision, DetectorProfile)
from helpers import epoch_array, log_mean_oracle, required_n_for_zero_eer, swapped


def sweep_oracle(genuine, spoofed):
    """Exhaustive sweep over every candidate threshold in the score union.

    Works in integer count space (|#FP * ng - #FN * ns|) so equality checks
    against the production search are exact, free of float rounding noise.
    """
    g = np.sort(np.asarray(genuine, dtype=float))
    s = np.sort(np.asarray(spoofed, dtype=float))
    ng, ns = len(g), len(s)
    best = (None, None, None, None)
    for t in np.unique(np.concatenate([g, s])):
        fn = int(np.sum(g < t))
        fp = int(np.sum(s >= t))
        gap = abs(fp * ng - fn * ns)
        if best[0] is None or gap < best[0] or (gap == best[0] and fn < best[2]):
            best = (gap, fp, fn, t)
    return best  # (min cross-count gap, fp, fn, threshold)


def rates_at(t, genuine, spoofed):
    g = np.asarray(genuine, dtype=float)
    s = np.asarray(spoofed, dtype=float)
    return float(np.mean(s >= t)), float(np.mean(g < t))


def count_gap_at(t, genuine, spoofed):
    g = np.asarray(genuine, dtype=float)
    s = np.asarray(spoofed, dtype=float)
    return abs(int(np.sum(s >= t)) * len(g) - int(np.sum(g < t)) * len(s))


class TestEerThreshold:
    def test_disjoint_supports(self):
        thr, eer = sd.eer_threshold([-10.0, -11.0], [-100.0, -90.0])
        assert eer == 0.0
        assert -90.0 < thr <= -11.0

    def test_identical_sets_match_oracle(self):
        scores = [-5.0, -6.0, -7.0]
        thr, eer = sd.eer_threshold(scores, scores)
        gap, fp, fn, _ = sweep_oracle(scores, scores)
        assert count_gap_at(thr, scores, scores) == gap
        assert eer == max(fp / 3, fn / 3)

    def test_random_instances_match_exhaustive_sweep(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            ng, ns = rng.integers(1, 80, size=2)
            g = rng.normal(0, 3, ng)
            s = rng.normal(rng.uniform(-6, 2), 3, ns)
            thr, eer = sd.eer_threshold(g, s)
            assert count_gap_at(thr, g, s) == sweep_oracle(g, s)[0]
            fpr, fnr = rates_at(thr, g, s)
            assert eer == pytest.approx(max(fpr, fnr), rel=1e-12)

    def test_neg_inf_scores_supported(self):
        thr, eer = sd.eer_threshold([-10.0, -12.0], [-np.inf, -np.inf, -500.0])
        assert eer == 0.0
        assert thr > -500.0 or thr == -500.0  # separable

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            sd.eer_threshold([], [1.0])
        with pytest.raises(ValueError):
            sd.eer_threshold([1.0], [])
        with pytest.raises(ValueError):
            sd.eer_threshold([np.nan], [1.0])


class TestTrain:
    def _features(self, mean, n, rng, spread=1.0):
        return rng.normal(mean, spread, size=(n, 6))

    def test_separable_classes(self):
        rng = np.random.default_rng(0)
        genuine = self._features(0.0, 300, rng)
        spoofed = self._features(30.0, 300, rng)
        profile = sd.train(genuine, spoofed, seed=1)
        assert profile.train_eer == 0.0
        g_scores = sd.score_features(genuine, profile.model)
        s_scores = sd.score_features(spoofed, profile.model)
        report = sd.evaluate(g_scores, s_scores, profile)
        assert report.fpr == 0.0 and report.fnr == 0.0

    def test_indistinguishable_classes(self):
        rng = np.random.default_rng(1)
        genuine = self._features(0.0, 500, rng)
        spoofed = self._features(0.0, 500, rng)
        profile = sd.train(genuine, spoofed, seed=1)
        assert profile.train_eer == pytest.approx(0.5, abs=0.1)

    def test_paper_scale_400_samples(self):
        rng = np.random.default_rng(2)
        genuine = self._features(0.0, 400, rng)
        spoofed = self._features(25.0, 200, rng)
        profile = sd.train(genuine, spoofed, holdout_fraction=0.3, seed=0)
        holdout_like = self._features(0.0, 200, rng)
        scores = sd.score_features(holdout_like, profile.model)
        report = sd.evaluate(scores, sd.score_features(spoofed, profile.model), profile)
        assert report.fnr == 0.0 and report.fpr == 0.0

    def test_missing_spoofed_falls_back_to_quantile(self, caplog):
        rng = np.random.default_rng(3)
        genuine = self._features(0.0, 200, rng)
        with caplog.at_level("WARNING"):
            profile = sd.train(genuine, None, seed=0)
        assert profile.threshold_method == "genuine_quantile"
        assert np.isnan(profile.train_eer)
        assert any("quantile" in r.message for r in caplog.records)

    def test_insufficient_genuine(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            sd.train(self._features(0.0, 8, rng), self._features(1.0, 8, rng),
                     holdout_fraction=0.5)


def test_averaging_depth_below_one_rejected():
    for n in (0, -2):
        with pytest.raises(ValueError, match="n_avg must be >= 1"):
            DetectorProfile(model=None, log_threshold=0.0, n_avg=n)
        with pytest.raises(ValueError, match="block length must be >= 1"):
            sd.block_log_scores([-1.0, -2.0], n)
        with pytest.raises(ValueError):
            sd.train(np.random.default_rng(0).normal(size=(40, 2)), n_avg=n)


class TestEvaluate:
    def test_rate_count_consistency(self):
        rng = np.random.default_rng(5)
        prof = DetectorProfile(model=None, log_threshold=0.0, n_avg=1)
        g = rng.normal(0.5, 1.0, 200)
        s = rng.normal(-0.5, 1.0, 150)
        report = sd.evaluate(g, s, prof)
        tp, fp, tn, fn = report.counts
        assert tp + fn == 200 and fp + tn == 150
        assert report.fpr == fp / (fp + tn)
        assert report.fnr == fn / (fn + tp)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(6)
        g = rng.normal(0.0, 1.0, 300)
        s = rng.normal(-1.0, 1.0, 300)
        fprs, fnrs = [], []
        for thr in np.linspace(-3, 3, 13):
            prof = DetectorProfile(model=None, log_threshold=float(thr), n_avg=1)
            r = sd.evaluate(g, s, prof)
            fprs.append(r.fpr)
            fnrs.append(r.fnr)
        assert all(a >= b for a, b in zip(fprs, fprs[1:]))
        assert all(a <= b for a, b in zip(fnrs, fnrs[1:]))

    def test_swapped_orientation(self):
        prof = DetectorProfile(model=None, log_threshold=0.0, n_avg=1)
        report = sd.evaluate([1.0, -1.0], [-2.0, 2.0], prof)
        flipped = swapped(report)
        assert flipped.fpr == report.fnr and flipped.fnr == report.fpr
        tp, fp, tn, fn = report.counts
        assert flipped.counts == (tn, fn, tp, fp)

    def test_insufficient_scores(self):
        prof = DetectorProfile(model=None, log_threshold=0.0, n_avg=10)
        with pytest.raises(ValueError):
            sd.evaluate([1.0] * 5, [0.0] * 20, prof)


class TestKfold:
    def _dataset(self, rng, gen_mean=0.0, spoof_mean=25.0, n=120):
        return (rng.normal(gen_mean, 1.0, size=(n, 6)),
                rng.normal(spoof_mean, 1.0, size=(n, 6)))

    def test_well_separated_folds_all_zero(self):
        rng = np.random.default_rng(7)
        datasets = [self._dataset(rng) for _ in range(4)]
        reports = sd.kfold_xval(datasets, seed=0)
        assert len(reports) == 4
        for r in reports:
            assert r.fpr == 0.0 and r.fnr == 0.0

    def test_two_identical_datasets_symmetric(self):
        rng = np.random.default_rng(8)
        d = self._dataset(rng)
        reports = sd.kfold_xval([d, d], seed=0)
        assert reports[0] == reports[1]

    def test_needs_two_datasets(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            sd.kfold_xval([self._dataset(rng)])

    def test_mismatched_fold_reports_elevated_errors(self):
        # a validation dataset drawn far from the training days produces a
        # report with nonzero rates instead of raising
        rng = np.random.default_rng(10)
        clean = [self._dataset(rng) for _ in range(3)]
        shifted = (rng.normal(8.0, 1.0, size=(120, 6)),
                   rng.normal(9.0, 1.0, size=(120, 6)))
        reports = sd.kfold_xval(clean + [shifted], seed=0)
        assert len(reports) == 4
        assert max(reports[3].fpr, reports[3].fnr) > 0.5
        # contaminated training also degrades the other folds' thresholds;
        # every fold still reports rather than raising
        assert all(0.0 <= r.fpr <= 1.0 and 0.0 <= r.fnr <= 1.0 for r in reports)


class TestPrnSets:
    def test_counts(self):
        assert len(sd.prn_sets(range(1, 9))) == 70
        assert len(sd.prn_sets([1, 2, 3, 4])) == 1
        assert len(sd.prn_sets([1, 2, 3, 4, 5])) == 5

    def test_too_few(self):
        with pytest.raises(ValueError):
            sd.prn_sets([1, 2, 3])


def timing_oracle(decisions_by_prn, label_intervals, sets):
    """Independent interval scan: split the axis at every boundary and test
    each elementary segment's midpoint against the definitions directly."""
    points = set()
    for t0, t1, _ in label_intervals:
        points.update((t0, t1))
    for decisions in decisions_by_prn.values():
        for d in decisions:
            points.update((d.t_start, d.t_end))
    points = sorted(points)
    out = []
    for prns in sets:
        segs = []
        for a, b in zip(points, points[1:]):
            mid = (a + b) / 2
            spoofed = any(t0 <= mid < t1 and name != "genuine"
                          for t0, t1, name in label_intervals)
            undetected = all(
                any(d.t_start <= mid < d.t_end and d.decision == DECISION_AUTHENTIC
                    for d in decisions_by_prn.get(p, []))
                for p in prns)
            if spoofed and undetected:
                if segs and segs[-1][1] == a:
                    segs[-1] = (segs[-1][0], b)
                else:
                    segs.append((a, b))
        lengths = [b - a for a, b in segs]
        out.append((max(lengths) if lengths else 0.0, sum(lengths),
                    sum(int((x + 1e-9) // 30.0) for x in lengths)))
    return out


def auth(t0, t1, prn):
    return Decision(t_start=t0, t_end=t1, prn=prn, log_score=0.0,
                    decision=DECISION_AUTHENTIC)


def mal(t0, t1, prn):
    return Decision(t_start=t0, t_end=t1, prn=prn, log_score=-99.0,
                    decision=DECISION_MALICIOUS)


class TestSpoofTiming:
    def test_never_flagging_detector(self):
        prns = [1, 2, 3, 4]
        decisions = {p: [auth(0.0, 300.0, p)] for p in prns}
        labels = [(0.0, 300.0, "spoofed")]
        report = sd.spoof_timing(decisions, labels, sd.prn_sets(prns))
        assert report.max_continuous_spoof_s == (300.0,)
        assert report.undetected_30s_locks == (10,)
        assert report.overall_continuous_spoof_s == 300.0

    def test_perfect_detector(self):
        prns = [1, 2, 3, 4]
        decisions = {p: [mal(t, t + 1.0, p) for t in range(300)] for p in prns}
        labels = [(0.0, 300.0, "spoofed")]
        report = sd.spoof_timing(decisions, labels, sd.prn_sets(prns))
        assert report.max_continuous_spoof_s == (0.0,)
        assert report.undetected_30s_locks == (0,)

    def test_gappy_decisions_match_interval_oracle(self):
        rng = np.random.default_rng(10)
        prns = [1, 2, 3, 4, 5]
        decisions = {}
        for p in prns:
            out, t = [], 0.0
            while t < 200.0:
                span = float(rng.uniform(2.0, 40.0))
                verdict = auth if rng.random() < 0.7 else mal
                out.append(verdict(t, min(t + span, 200.0), p))
                t += span + float(rng.uniform(0.0, 5.0))  # gaps = no decision
            decisions[p] = out
        labels = [(0.0, 60.0, "genuine"), (60.0, 200.0, "spoofed")]
        sets = sd.prn_sets(prns)
        report = sd.spoof_timing(decisions, labels, sets)
        expected = timing_oracle(decisions, labels, sets)
        for i, (mx, total, locks) in enumerate(expected):
            assert report.max_continuous_spoof_s[i] == pytest.approx(mx)
            assert report.total_spoof_s[i] == pytest.approx(total)
            assert report.undetected_30s_locks[i] == locks

    def test_conjunction_bounded_by_members(self):
        prns = [1, 2, 3, 4]
        decisions = {p: [auth(0.0, 100.0, p)] for p in prns}
        decisions[4] = [auth(0.0, 10.0, 4)]  # weakest link
        labels = [(0.0, 100.0, "spoofed")]
        report = sd.spoof_timing(decisions, labels, sd.prn_sets(prns))
        assert report.max_continuous_spoof_s[0] == pytest.approx(10.0)

    def test_misaligned_decisions_rejected(self):
        labels = [(0.0, 10.0, "spoofed")]
        with pytest.raises(ValueError):
            sd.spoof_timing({1: [auth(50.0, 60.0, 1)]}, labels, [(1, 2, 3, 4)])
        with pytest.raises(ValueError):
            sd.spoof_timing({1: [auth(5.0, 2.0, 1)]}, labels, [(1, 2, 3, 4)])


class TestRequiredN:
    def test_disjoint_needs_one(self):
        assert required_n_for_zero_eer([-1.0, -2.0], [-50.0, -60.0], 10) == 1

    def test_identical_never_reaches_zero(self):
        scores = list(np.linspace(-10, 0, 40))
        assert required_n_for_zero_eer(scores, scores, 15) is None

    def test_matches_per_n_brute_force(self):
        rng = np.random.default_rng(11)
        g = rng.normal(0.0, 1.0, 600)
        s = rng.normal(-1.2, 1.0, 600)
        result = required_n_for_zero_eer(g, s, 50)

        expected = None
        for n in range(1, 51):
            gb = sd.block_log_scores(g, n)
            sb = sd.block_log_scores(s, n)
            if len(gb) == 0 or len(sb) == 0:
                break
            if sd.eer_threshold(gb, sb)[1] == 0.0:
                expected = n
                break
        assert result == expected is not None


class TestDetectStream:
    def test_stream_decisions_and_annotation(self):
        from gnssfp import fingerprint_features as ff
        from gnssfp import mvn_model
        rng = np.random.default_rng(12)
        v = rng.normal(0, 4, size=400)
        epochs = epoch_array(t=1e-3 * np.arange(400), e=0.75 * v, p=v, l=0.75 * v,
                             cn0_est=40.0, clt_est=0.9)
        cfg = ff.FeatureWindowConfig(window_len=20, min_pos=3, min_neg=3)
        feats = ff.extract_features(epochs, cfg)
        matrix = ff.feature_matrix(feats)
        model = mvn_model.fit(np.vstack([matrix] * 3) + rng.normal(0, 1e-3, (3 * len(matrix), 6)))
        profile = DetectorProfile(model=model, log_threshold=-1e9, n_avg=2)
        decisions = sd.detect_stream(epochs, profile, cfg, prn=4)
        assert len(decisions) == len(feats) - 1  # sliding blocks of 2
        assert all(d.decision == DECISION_AUTHENTIC for d in decisions)
        assert all(d.t_end > d.t_start for d in decisions)

        labeled = sd.annotate_decisions(decisions, [(0.0, 0.2, "genuine"),
                                                    (0.2, 0.5, "spoofed")])
        assert {d.label for d in labeled} <= {"genuine", "spoofed"}

    def test_empty_stream(self):
        profile = DetectorProfile(model=None, log_threshold=0.0, n_avg=1)
        assert sd.detect_stream(epoch_array(t=np.zeros(0)), profile) == []

    def test_decisions_deterministic(self):
        from gnssfp import fingerprint_features as ff
        from gnssfp import mvn_model
        rng = np.random.default_rng(13)
        v = rng.normal(0, 4, size=300)
        epochs = epoch_array(t=1e-3 * np.arange(300), e=0.75 * v, p=v, l=0.75 * v,
                             cn0_est=40.0, clt_est=0.9)
        cfg = ff.FeatureWindowConfig(window_len=20)
        model = mvn_model.fit(rng.normal(0, 4, size=(100, 6)))
        profile = DetectorProfile(model=model, log_threshold=-50.0, n_avg=3)
        a = sd.detect_stream(epochs, profile, cfg, prn=2)
        b = sd.detect_stream(epochs, profile, cfg, prn=2)
        assert a == b

    @staticmethod
    def _stream(seed=14, n_epochs=800):
        """Lock-passing epochs, their features (20-epoch windows) and a model
        fitted to nearby points."""
        from gnssfp import fingerprint_features as ff
        from gnssfp import mvn_model
        rng = np.random.default_rng(seed)
        v = rng.normal(0, 4, size=n_epochs)
        epochs = epoch_array(t=1e-3 * np.arange(n_epochs), e=0.75 * v, p=v, l=0.75 * v,
                             cn0_est=40.0, clt_est=0.9)
        cfg = ff.FeatureWindowConfig(window_len=20, min_pos=3, min_neg=3)
        feats = ff.extract_features(epochs, cfg, prn=5)
        matrix = ff.feature_matrix(feats)
        model = mvn_model.fit(np.vstack([matrix] * 3)
                              + rng.normal(0, 0.5, (3 * len(matrix), 6)))
        return epochs, cfg, feats, model

    def test_matches_per_block_oracle(self):
        from gnssfp import fingerprint_features as ff
        epochs, cfg, feats, model = self._stream()
        scores = sd.score_features(ff.feature_matrix(feats), model)
        threshold = float(np.median(scores))
        for n in (1, 2, 3, 7, len(feats), len(feats) + 1):
            profile = DetectorProfile(model=model, log_threshold=threshold, n_avg=n)
            decisions = sd.detect_stream(epochs, profile, cfg, prn=5)
            assert len(decisions) == max(len(feats) - n + 1, 0)
            for i, d in enumerate(decisions):
                expected = log_mean_oracle(scores[i:i + n])[0]
                assert np.float64(d.log_score).tobytes() == np.float64(expected).tobytes()
                assert d.decision == (DECISION_AUTHENTIC if expected > threshold
                                      else DECISION_MALICIOUS)
                assert d.t_end == feats[i + n - 1].t
                assert d.t_start == feats[i].t - 20 * 1e-3
                assert d.prn == 5 and d.label == "unknown"
                assert all(type(x) is float for x in (d.t_start, d.t_end, d.log_score))

    def test_threshold_at_block_mean_is_malicious(self):
        epochs, cfg, _, model = self._stream()
        reference = sd.detect_stream(
            epochs, DetectorProfile(model=model, log_threshold=0.0, n_avg=3), cfg)
        at = reference[4].log_score
        decisions = sd.detect_stream(
            epochs, DetectorProfile(model=model, log_threshold=at, n_avg=3), cfg)
        assert decisions[4].log_score == at
        assert decisions[4].decision == DECISION_MALICIOUS

    def test_threshold_one_ulp_below_is_authentic(self):
        epochs, cfg, _, model = self._stream()
        reference = sd.detect_stream(
            epochs, DetectorProfile(model=model, log_threshold=0.0, n_avg=3), cfg)
        below = float(np.nextafter(reference[4].log_score, -np.inf))
        decisions = sd.detect_stream(
            epochs, DetectorProfile(model=model, log_threshold=below, n_avg=3), cfg)
        assert decisions[4].decision == DECISION_AUTHENTIC

    def test_all_neg_inf_block_is_malicious(self):
        from gnssfp import mvn_model
        epochs, cfg, feats, _ = self._stream()
        # a mean this far away overflows every Mahalanobis distance: density 0
        far = mvn_model.from_moments(np.full(6, 1e200), np.eye(6))
        profile = DetectorProfile(model=far, log_threshold=-1e300, n_avg=3)
        with np.errstate(over="ignore", invalid="ignore"):
            decisions = sd.detect_stream(epochs, profile, cfg)
        assert len(decisions) == len(feats) - 2
        assert all(d.log_score == -np.inf for d in decisions)
        assert all(d.decision == DECISION_MALICIOUS for d in decisions)

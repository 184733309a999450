import numpy as np
import pytest

from gnssfp import fingerprint_features as ff
from gnssfp import receiver_core as rc
from gnssfp import signal_sim as ss
from helpers import epoch_array, extract_features_oracle


def epochs_from(p_reals, passing=True):
    """Epochs with real prompts p_reals, E = L = 0.75 P, 1 ms apart."""
    p = np.asarray(p_reals, dtype=float)
    return epoch_array(t=1e-3 * np.arange(len(p)), e=0.75 * p, p=p, l=0.75 * p,
                       cn0_est=40.0 if passing else 20.0,
                       clt_est=0.9 if passing else 0.1)


SMALL = ff.FeatureWindowConfig(window_len=6, min_pos=3, min_neg=3)


class TestExtractFeatures:
    def test_lock_failures_filtered_out(self):
        epochs = epochs_from([4, -4, 4, -4, 4, -4], passing=False)
        assert len(ff.extract_features(epochs, SMALL)) == 0

    def test_balanced_constant_window(self):
        epochs = epochs_from([4, 4, -4, -4, 4, -4])
        out = ff.extract_features(epochs, SMALL)
        assert len(out) == 1
        fv = out[0]
        assert fv.p_high == pytest.approx(4.0)
        assert fv.p_low == pytest.approx(-4.0)
        assert fv.e_high == pytest.approx(3.0)
        assert fv.l_low == pytest.approx(-3.0)
        assert fv.t == pytest.approx(5e-3)

    def test_empty_input_empty_output(self):
        out = ff.extract_features(epochs_from([]), SMALL)
        assert out.dtype == ff.FEATURE_DTYPE and out.shape == (0,)

    def test_window_without_sign_mix_skipped(self):
        epochs = epochs_from([4, 4, 4, 4, 4, 4])  # no negatives at all
        assert len(ff.extract_features(epochs, SMALL)) == 0
        epochs = epochs_from([4, 4, 4, 4, -4, -4])  # only 2 negatives < min_neg
        assert len(ff.extract_features(epochs, SMALL)) == 0

    def test_lock_filter_spans_windows(self):
        # 6 passing epochs interleaved with failures still form one window
        epochs = epochs_from([4, 99.0, -4, 99.0, 4, 99.0, -4, 99.0, 4, 99.0, -4, 99.0])
        epochs.cn0_est[1::2] = 20.0
        epochs.clt_est[1::2] = 0.1
        out = ff.extract_features(epochs, SMALL)
        assert len(out) == 1
        assert out[0].p_high == pytest.approx(4.0)

    def test_exact_zero_counts_neither_side(self):
        epochs = epochs_from([4, -4, 0, 4, -4, 0, 4, -4])
        cfg = ff.FeatureWindowConfig(window_len=8, min_pos=3, min_neg=3)
        out = ff.extract_features(epochs, cfg)
        assert len(out) == 1
        assert out[0].p_high == pytest.approx(4.0)
        assert out[0].p_low == pytest.approx(-4.0)

    def test_sign_contract_on_noisy_epochs(self):
        rng = np.random.default_rng(3)
        epochs = epochs_from(rng.normal(0, 5, size=400))
        out = ff.extract_features(epochs, ff.FeatureWindowConfig(window_len=20))
        assert len(out)
        matrix = ff.feature_matrix(out)
        assert matrix.shape == (len(out), 6) and matrix.dtype == np.float64
        assert (matrix[:, [0, 2, 4]] >= 0).all()
        assert (matrix[:, [1, 3, 5]] <= 0).all()
        assert matrix.tolist() == [list(row[2:]) for row in out.tolist()]

    def test_raising_thresholds_never_adds_vectors(self, monkeypatch):
        rng = np.random.default_rng(4)
        v = rng.normal(0, 5, size=600)
        epochs = epoch_array(t=1e-3 * np.arange(600), e=v, p=v, l=v,
                             cn0_est=rng.uniform(25, 45, size=600),
                             clt_est=rng.uniform(0.2, 1.0, size=600))
        cfg = ff.FeatureWindowConfig(window_len=10, min_pos=2, min_neg=2)
        counts = []
        for gamma_code, gamma_carrier in [(28.0, 0.3), (32.0, 0.5), (36.0, 0.7)]:
            monkeypatch.setattr(rc, "_GAMMA_CODE", gamma_code)
            monkeypatch.setattr(rc, "_GAMMA_CARRIER", gamma_carrier)
            counts.append(len(ff.extract_features(epochs, cfg)))
        assert counts[0] >= counts[1] >= counts[2]

    def test_matches_per_epoch_oracle(self):
        # randomized windows, sign thresholds, lock failures, exact +/-0.0
        # prompts and lock metrics sitting exactly on the thresholds
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(0, 400))
            min_pos, min_neg = rng.integers(0, 4, size=2)
            cfg = ff.FeatureWindowConfig(window_len=int(rng.integers(6, 50)),
                                         min_pos=int(min_pos), min_neg=int(min_neg))
            p = rng.normal(0, 5, size=n)
            p[rng.random(n) < 0.1] = 0.0
            p[rng.random(n) < 0.1] = -0.0
            epochs = epoch_array(
                t=1e-3 * np.arange(n), e=rng.normal(0, 4, size=n), p=p,
                l=rng.normal(0, 4, size=n),
                cn0_est=rng.choice([20.0, 31.999, 32.0, 40.0], size=n, p=[.1, .1, .2, .6]),
                clt_est=rng.choice([0.1, 0.4999, 0.5, 0.9], size=n, p=[.1, .1, .2, .6]))
            for field in ("e", "p", "l"):  # imaginary parts, keeping -0.0 reals
                epochs[field].imag = rng.normal(0, 1, size=n)
            prn = int(rng.integers(1, 33))
            out = ff.extract_features(epochs, cfg, prn)
            assert out.dtype == ff.FEATURE_DTYPE
            assert out.tobytes() == extract_features_oracle(epochs, cfg, prn).tobytes()

    def test_window_config_validation(self):
        with pytest.raises(ValueError):
            ff.FeatureWindowConfig(window_len=4, min_pos=3, min_neg=3)

    @pytest.mark.parametrize("window_len, min_pos, min_neg, field", [
        (0, 0, 0, "window_len"), (-1, 0, 0, "window_len"), (6, -1, 3, "min_pos"),
        (6, 3, -1, "min_neg"), (7, 3, 5, "min_pos \\+ min_neg")])
    def test_window_config_rejects_empty_windows_and_negative_counts(
            self, window_len, min_pos, min_neg, field):
        with pytest.raises(ValueError, match=field):
            ff.FeatureWindowConfig(window_len=window_len, min_pos=min_pos, min_neg=min_neg)
        ff.FeatureWindowConfig(window_len=1, min_pos=0, min_neg=0)


class TestAsymmetryObservable:
    @pytest.mark.parametrize("gain", [1.0, 1.1])
    def test_tracked_ratio_matches_configured_gain(self, gain):
        # bit-aligned code phase: no partial-bit epochs dilute the split means
        scen = ss.SatelliteScenario(prn=9, doppler=700.0, code_phase0=0.0,
                                    cn0=50.0, nav_seed=5,
                                    signature=ss.HardwareSignature(gain_asymmetry=gain))
        iq = ss.synthesize_genuine([scen], duration=2.0, noise_seed=1, add_noise=False)
        init = rc.AcquisitionResult(9, 0.0, 700.0, float("inf"), True)
        track = rc.track_channel(iq, init)
        feats = ff.extract_features(track.epochs[100:],
                                    ff.FeatureWindowConfig(window_len=40), prn=9)
        ratios = [abs(fv.p_high / fv.p_low) for fv in feats]
        assert np.mean(ratios) == pytest.approx(gain, abs=0.002)

import numpy as np
import pytest

from gnssfp import fingerprint_features as ff
from gnssfp import receiver_core as rc
from gnssfp import signal_sim as ss


def make_epoch(p_real, t=0.0, passing=True, e_real=None, l_real=None):
    cn0, clt = (40.0, 0.9) if passing else (20.0, 0.1)
    e_real = 0.75 * p_real if e_real is None else e_real
    l_real = 0.75 * p_real if l_real is None else l_real
    return rc.CorrelatorEpoch(t=t, e=complex(e_real, 0.0), p=complex(p_real, 0.0),
                              l=complex(l_real, 0.0), cn0_est=cn0, clt_est=clt,
                              code_phase=0.0, doppler=0.0)


def epochs_from(p_reals, passing=True):
    return [make_epoch(p, t=1e-3 * i, passing=passing)
            for i, p in enumerate(p_reals)]


SMALL = ff.FeatureWindowConfig(window_len=6, min_pos=3, min_neg=3)


class TestExtractFeatures:
    def test_lock_failures_filtered_out(self):
        epochs = epochs_from([4, -4, 4, -4, 4, -4], passing=False)
        assert ff.extract_features(epochs, SMALL) == []

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
        assert ff.extract_features([], SMALL) == []

    def test_window_without_sign_mix_skipped(self):
        epochs = epochs_from([4, 4, 4, 4, 4, 4])  # no negatives at all
        assert ff.extract_features(epochs, SMALL) == []
        epochs = epochs_from([4, 4, 4, 4, -4, -4])  # only 2 negatives < min_neg
        assert ff.extract_features(epochs, SMALL) == []

    def test_lock_filter_spans_windows(self):
        # 6 passing epochs interleaved with failures still form one window
        good = [4, -4, 4, -4, 4, -4]
        epochs = []
        for i, p in enumerate(good):
            epochs.append(make_epoch(p, t=2e-3 * i, passing=True))
            epochs.append(make_epoch(99.0, t=2e-3 * i + 1e-3, passing=False))
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
        out = ff.extract_features(epochs, ff.FeatureWindowConfig())
        assert out
        for fv in out:
            arr = fv.as_array()
            assert (arr[[0, 2, 4]] >= 0).all()
            assert (arr[[1, 3, 5]] <= 0).all()

    def test_raising_thresholds_never_adds_vectors(self):
        rng = np.random.default_rng(4)
        epochs = [rc.CorrelatorEpoch(t=1e-3 * i, e=complex(v, 0), p=complex(v, 0),
                                     l=complex(v, 0),
                                     cn0_est=float(rng.uniform(25, 45)),
                                     clt_est=float(rng.uniform(0.2, 1.0)),
                                     code_phase=0.0, doppler=0.0)
                  for i, v in enumerate(rng.normal(0, 5, size=600))]
        cfg = ff.FeatureWindowConfig(window_len=10, min_pos=2, min_neg=2)
        counts = []
        for gamma_code, gamma_carrier in [(28.0, 0.3), (32.0, 0.5), (36.0, 0.7)]:
            trk = rc.TrackingConfig(gamma_code=gamma_code, gamma_carrier=gamma_carrier)
            counts.append(len(ff.extract_features(epochs, cfg, trk)))
        assert counts[0] >= counts[1] >= counts[2]

    def test_single_pass_over_epochs(self):
        # the input iterable is consumed exactly once, one epoch at a time
        epochs = epochs_from([4, -4] * 30)
        calls = {"n": 0}

        def counting():
            for ep in epochs:
                calls["n"] += 1
                yield ep

        out = ff.extract_features(counting(), SMALL)
        assert calls["n"] == len(epochs)
        assert len(out) == len(epochs) // SMALL.window_len

    def test_window_config_validation(self):
        with pytest.raises(ValueError):
            ff.FeatureWindowConfig(window_len=4, min_pos=3, min_neg=3)


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

import math
from pathlib import Path

import numpy as np
import pytest

from gnssfp import receiver_core as rc
from gnssfp import signal_sim as ss
from gnssfp.cli import load_scenario
from gnssfp.prn_codes import generate_ca_code
from helpers import acquire_oracle, build_stream, epoch_array, track_channel_oracle

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

TRUE_DOPPLER = 1200.0
TRUE_CP0 = 345.6


def truth_init(prn, code_phase, doppler):
    return rc.AcquisitionResult(prn=prn, code_phase=code_phase, doppler=doppler,
                                peak_metric=float("inf"), acquired=True)


@pytest.fixture(scope="module")
def noiseless():
    scen = ss.SatelliteScenario(prn=7, doppler=TRUE_DOPPLER, code_phase0=TRUE_CP0,
                                carrier_phase0=0.8, cn0=50.0, nav_seed=3)
    iq = ss.synthesize_genuine([scen], duration=2.5, noise_seed=1, add_noise=False)
    acq = rc.acquire(iq, 7)
    track = rc.track_channel(iq, acq)
    return iq, acq, track


@pytest.fixture(scope="module")
def noisy45():
    scen = ss.SatelliteScenario(prn=5, doppler=-800.0, code_phase0=101.3,
                                cn0=45.0, nav_seed=9)
    iq = ss.synthesize_genuine([scen], duration=3.0, noise_seed=11)
    track = rc.track_channel(iq, truth_init(5, 101.3, -800.0))
    return scen, iq, track


def code_err(code_phase, truth=TRUE_CP0):
    return (code_phase - truth + 511.5) % 1023 - 511.5


class TestAcquisition:
    def test_recovers_code_phase_and_doppler(self, noiseless):
        iq, acq, _ = noiseless
        assert acq.acquired
        sample_chips = 1.023e6 / iq.sample_rate
        assert abs(code_err(acq.code_phase)) <= sample_chips  # within one sample
        assert abs(acq.doppler - TRUE_DOPPLER) <= 125.0  # half a default bin
        assert acq.peak_metric > 2.0

    def test_pure_noise_never_acquires(self):
        iq = ss.synthesize_genuine([], duration=0.05, noise_seed=42)
        results = [rc.acquire(iq, prn) for prn in range(1, 33)]
        assert not any(r.acquired for r in results)
        assert max(r.peak_metric for r in results) < 2.0

    def test_cross_prn_rejected_by_gold_bound(self):
        scen = ss.SatelliteScenario(prn=7, doppler=0.0, code_phase0=10.0, cn0=55.0)
        iq = ss.synthesize_genuine([scen], duration=0.05, add_noise=False)
        assert rc.acquire(iq, 7).acquired
        assert not rc.acquire(iq, 9).acquired

    def test_stream_too_short(self):
        iq = ss.IqStream(np.zeros(100, np.complex64), ss.DEFAULT_SAMPLE_RATE)
        with pytest.raises(ValueError):
            rc.acquire(iq, 1)


class TestTracking:
    def test_noiseless_steady_state(self, noiseless):
        _, _, track = noiseless
        assert track.status == rc.STATUS_COMPLETED
        steady = track.epochs[len(track.epochs) // 2:]
        errs = np.array([code_err(e.code_phase) for e in steady])
        dopp = np.array([e.doppler for e in steady])
        assert np.abs(errs).max() < 0.1
        assert np.abs(dopp - TRUE_DOPPLER).max() < 5.0

    def test_prompt_imaginary_near_zero(self, noiseless):
        _, _, track = noiseless
        steady = track.epochs[len(track.epochs) // 2:]
        ratios = [abs(e.p.imag) / abs(e.p.real) for e in steady]
        assert np.mean(ratios) < 0.05

    def test_epl_ratio_near_autocorrelation_triangle(self, noiseless):
        # replicas at +/-0.25 chip of a locked prompt: triangle value 0.75
        _, _, track = noiseless
        steady = track.epochs[len(track.epochs) // 2:]
        e_over_p = np.mean([abs(e.e) / abs(e.p) for e in steady])
        l_over_p = np.mean([abs(e.l) / abs(e.p) for e in steady])
        assert e_over_p == pytest.approx(0.75, abs=0.07)
        assert l_over_p == pytest.approx(0.75, abs=0.07)

    def test_epoch_timestamps_and_clt_range(self, noiseless):
        _, _, track = noiseless
        ts = np.array([e.t for e in track.epochs])
        assert np.allclose(np.diff(ts), 1e-3, atol=1e-12)
        clt = np.array([e.clt_est for e in track.epochs])
        assert np.all(clt >= -1.0) and np.all(clt <= 1.0)

    def test_noiseless_cn0_saturates(self, noiseless):
        _, _, track = noiseless
        assert track.epochs[-1].cn0_est > 55.0

    def test_tracking_deterministic(self, noiseless):
        iq, acq, track = noiseless
        again = rc.track_channel(iq, acq)
        assert len(again.epochs) == len(track.epochs)
        assert all(a == b for a, b in zip(again.epochs[-5:], track.epochs[-5:]))

    def test_requires_acquired_init(self, noiseless):
        iq, _, _ = noiseless
        bad = rc.AcquisitionResult(prn=7, code_phase=0.0, doppler=0.0,
                                   peak_metric=1.0, acquired=False)
        with pytest.raises(ValueError):
            rc.track_channel(iq, bad)

    @pytest.mark.parametrize("code_phase", [-0.5, 1023.0, float("nan")])
    def test_rejects_code_phase_outside_one_period(self, code_phase):
        # the replica indices assume 0 <= code phase < 1023 chips
        iq = ss.synthesize_genuine([], duration=0.01, noise_seed=42)
        with pytest.raises(ValueError, match="code phase"):
            rc.track_channel(iq, truth_init(7, code_phase, 0.0))

    def test_loss_of_lock_on_noise_only(self):
        iq = ss.synthesize_genuine([], duration=0.5, noise_seed=43)
        track = rc.track_channel(iq, truth_init(3, 0.0, 0.0))
        assert track.status == rc.STATUS_LOSS_OF_LOCK
        # 19 warm-up epochs + 50 consecutive code-test failures
        assert len(track.epochs) == 69

    def test_late_replica_just_below_chip_zero(self):
        # base - half = -1e-15 chip: np.mod(-1e-15, 1023.0) rounds to 1023.0,
        # one past the last chip; the late replica must use chip 1022
        iq = ss.synthesize_genuine([], duration=0.05, noise_seed=42)
        init = truth_init(7, 0.25 - 1e-15, 0.0)
        track = rc.track_channel(iq, init)
        assert track.status == rc.STATUS_COMPLETED
        assert len(track.epochs) == 50

        n = int(round(iq.sample_rate * 1e-3))
        chips = generate_ca_code(7).chips.astype(np.float64)
        step = 1.023e6 / iq.sample_rate
        late = np.array([chips[math.floor(init.code_phase + step * i - 0.25) % 1023]
                         for i in range(n)])
        x = iq.samples[:n]
        assert track.epochs[0].l == complex(x.real.astype(np.float64) @ late,
                                            x.imag.astype(np.float64) @ late)


def _scenario_stream(name, duration):
    cfg = load_scenario(str(SCENARIOS / f"{name}.json"))
    cfg["duration"] = duration
    return cfg, build_stream(cfg)


def _blocks(iq, size):
    """A stream as consecutive blocks of `size` samples, each with its own t0."""
    return (ss.IqStream(iq.samples[i:i + size], iq.sample_rate, iq.t0 + i / iq.sample_rate)
            for i in range(0, len(iq.samples), size))


@pytest.fixture(scope="module")
def oracle_streams():
    """Streams of the oracle cases: case -> (stream, PRNs)."""
    noiseless_cfg, noiseless = _scenario_stream("tracking_noiseless", 2.0)
    takeover_cfg, takeover = _scenario_stream("takeover_attack", 0.5)
    return {"tracking_noiseless": (noiseless, [s.prn for s in noiseless_cfg["satellites"]]),
            "takeover_attack": (takeover, [s.prn for s in takeover_cfg["satellites"]]),
            "noise_only": (ss.synthesize_genuine([], duration=0.5, noise_seed=43), [3])}


@pytest.fixture(scope="module")
def oracle_channels(oracle_streams):
    """Per-epoch oracle tracking: case -> [(stream, init, status, epochs)]."""
    cases = {}
    for case, (iq, prns) in oracle_streams.items():
        inits = ([truth_init(3, 0.0, 0.0)] if case == "noise_only"
                 else [acquire_oracle(iq, prn) for prn in prns])
        cases[case] = [(iq, init, *track_channel_oracle(iq, init)) for init in inits]
    return cases


class TestPerEpochOracle:
    """acquire and track_channel equal the per-period and per-epoch loops bit
    for bit, at any lock-estimate block size."""

    @pytest.mark.parametrize("block", [1, 7, rc._LOCK_BLOCK])
    @pytest.mark.parametrize("case", ["tracking_noiseless", "takeover_attack", "noise_only"])
    def test_track_channel(self, oracle_channels, monkeypatch, case, block):
        monkeypatch.setattr(rc, "_LOCK_BLOCK", block)
        for iq, init, status, epochs in oracle_channels[case]:
            assert init.acquired
            track = rc.track_channel(iq, init)
            assert track.status == status
            assert track.epochs.tobytes() == epochs.tobytes()

    @pytest.mark.parametrize("integration_time", [2e-3, 5e-3])
    def test_track_channel_multi_period_epochs(self, monkeypatch, integration_time):
        # an epoch of several code periods starting near chip 1022 indexes
        # past three periods of the chip table
        monkeypatch.setattr(rc, "_LOCK_BLOCK", 7)
        monkeypatch.setattr(rc, "INTEGRATION_TIME", integration_time)
        scen = ss.SatelliteScenario(prn=7, doppler=300.0, code_phase0=1022.6,
                                    cn0=50.0, nav_seed=3)
        iq = ss.synthesize_genuine([scen], duration=0.2, noise_seed=5)
        init = truth_init(7, 1022.6, 300.0)
        status, epochs = track_channel_oracle(iq, init, integration_time=integration_time)
        track = rc.track_channel(iq, init)
        assert track.status == status
        assert len(epochs) == round(0.2 / integration_time)
        assert track.epochs.tobytes() == epochs.tobytes()

    @pytest.mark.parametrize("size", [2047, 6149, ss.BLOCK_SAMPLES])
    @pytest.mark.parametrize("case", ["tracking_noiseless", "takeover_attack", "noise_only"])
    def test_track_channel_in_blocks(self, oracle_channels, case, size):
        # 2,047 and 6,149 samples put epoch edges mid-block, and a 2,047-sample
        # block can end no epoch at all; noise_only loses lock
        for iq, init, status, epochs in oracle_channels[case]:
            whole = rc.track_channel(iq, init)
            track = rc.track_channel(_blocks(iq, size), init)
            assert track.status == whole.status == status
            assert track.epochs.tobytes() == whole.epochs.tobytes() == epochs.tobytes()

    @pytest.mark.parametrize("integration_time", [1e-3, 5e-3])
    def test_track_channel_in_blocks_from_nonzero_t0(self, oracle_channels, monkeypatch,
                                                     integration_time):
        iq, init, _, _ = oracle_channels["takeover_attack"][1]
        shifted = ss.IqStream(iq.samples, iq.sample_rate, t0=1234.5678)
        monkeypatch.setattr(rc, "INTEGRATION_TIME", integration_time)
        status, epochs = track_channel_oracle(shifted, init, integration_time=integration_time)
        track = rc.track_channel(_blocks(shifted, 2047), init)
        assert track.status == status
        assert track.epochs.tobytes() == epochs.tobytes()
        assert track.epochs.t[0] == 1234.5678

    def test_track_channel_reads_blocks_only_until_loss_of_lock(self, oracle_channels):
        ((iq, init, status, epochs),) = oracle_channels["noise_only"]
        read = []
        blocks = (read.append(block) or block for block in _blocks(iq, 6149))
        track = rc.track_channel(blocks, init)
        assert track.status == status == rc.STATUS_LOSS_OF_LOCK
        assert track.epochs.tobytes() == epochs.tobytes()
        # lock is lost at epoch 68 and seen when the estimates of epochs 19..82
        # are filled, in the block that holds the last sample of epoch 82
        assert len(read) == -(-83 * 2048 // 6149) < len(iq.samples) // 6149

    def test_track_channel_takes_no_blocks_and_rejects_mixed_rates(self, oracle_channels):
        iq, init, _, _ = oracle_channels["takeover_attack"][0]
        empty = rc.track_channel([], init)
        assert empty.status == rc.STATUS_COMPLETED and len(empty.epochs) == 0
        blocks = [ss.IqStream(iq.samples[:4096], iq.sample_rate),
                  ss.IqStream(iq.samples[4096:8192], 2 * iq.sample_rate)]
        with pytest.raises(ValueError, match="share a sample rate"):
            rc.track_channel(blocks, init)

    def test_acquire_on_the_head_equals_acquire_on_the_whole(self, oracle_streams):
        iq, prns = oracle_streams["takeover_attack"]
        n = rc.acquisition_samples(iq.sample_rate)
        assert n == 17 * 2048 < len(iq.samples)
        head = ss.IqStream(iq.samples[:n], iq.sample_rate, iq.t0)
        for prn in prns + [5]:  # 5 is not in the sky
            assert rc.acquire(head, prn) == rc.acquire(iq, prn)

    def test_oracle_cases_cover_lock_and_loss_of_lock(self, oracle_channels):
        statuses = {case: [(status, len(epochs)) for _, _, status, epochs in channels]
                    for case, channels in oracle_channels.items()}
        assert statuses["tracking_noiseless"] == [(rc.STATUS_COMPLETED, 2000)]
        assert statuses["takeover_attack"] == [(rc.STATUS_COMPLETED, 500)] * 4
        assert statuses["noise_only"] == [(rc.STATUS_LOSS_OF_LOCK, 69)]

    @pytest.mark.parametrize("case,prns,grid,periods,acquired", [
        ("tracking_noiseless", [7], {}, None, [True]),
        ("takeover_attack", [3, 7, 11, 19], {}, None, [True] * 4),
        ("takeover_attack", [1, 2, 5], {}, None, [False] * 3),  # not in the sky
        ("takeover_attack", [7, 11, 4], {"doppler_range": 3100.0, "doppler_bin": 370.0},
         None, [True, True, False]),
        ("takeover_attack", [3, 19, 6], {}, 5, [True, True, False]),  # refined over 4 periods
        ("takeover_attack", [3, 19, 6], {}, 3, [True, True, False]),  # too short to refine
    ])
    def test_acquire(self, oracle_streams, case, prns, grid, periods, acquired):
        iq, _ = oracle_streams[case]
        if periods is not None:
            n = periods * int(round(iq.sample_rate * 1e-3))
            iq = ss.IqStream(iq.samples[:n], iq.sample_rate, iq.t0)
        results = [rc.acquire(iq, prn, **grid) for prn in prns]
        assert results == [acquire_oracle(iq, prn, **grid) for prn in prns]
        assert [r.acquired for r in results] == acquired


class TestMultipathTrackingBias:
    def test_half_chip_echo_biases_code_phase_by_oracle_amount(self):
        # Correlation-shape oracle: with an echo of gain g at +0.5 chip of
        # extra path delay, the distorted correlation is
        # R(e) = tri(e) + g * tri(e + 0.5) (the echo looks like a satellite
        # whose code phase is 0.5 chip earlier). The DLL settles where
        # |R(e + d/2)| = |R(e - d/2)|.
        fs = ss.DEFAULT_SAMPLE_RATE
        delay_samples = round(0.5 * fs / 1.023e6)
        delay_chips = delay_samples * 1.023e6 / fs
        gain = 0.5

        def tri(x):
            return np.maximum(0.0, 1.0 - np.abs(x))

        def distorted(e):
            return tri(e) + gain * tri(e + delay_chips)

        grid = np.linspace(-0.6, 0.3, 20001)
        imbalance = np.abs(distorted(grid + 0.25)) - np.abs(distorted(grid - 0.25))
        e_oracle = grid[int(np.argmin(np.abs(imbalance)))]
        assert -0.5 < e_oracle < 0.0  # oracle: tracked phase pulled toward the echo

        cp0 = 345.6
        scen = ss.SatelliteScenario(prn=7, doppler=900.0, code_phase0=cp0, cn0=50.0,
                                    nav_seed=3)
        iq = ss.synthesize_genuine([scen], duration=2.5, noise_seed=1, add_noise=False)
        iq = ss.apply_multipath(iq, [(0.0, 1.0), (delay_samples / fs, gain)])
        track = rc.track_channel(iq, truth_init(7, cp0, 900.0))
        steady = track.epochs[len(track.epochs) // 2:]
        e_tracked = np.mean([code_err(ep.code_phase, cp0) for ep in steady])

        # pseudorange (delay) bias is positive and bounded by the echo offset
        assert 0.0 < -e_tracked < delay_chips
        assert e_tracked == pytest.approx(e_oracle, abs=0.06)


class TestCn0Estimator:
    def test_tracks_configured_level(self, noisy45):
        _, _, track = noisy45
        est = np.mean([e.cn0_est for e in track.epochs[500:]])
        assert est == pytest.approx(45.0, abs=2.0)

    def test_standalone_interface(self, noisy45):
        _, _, track = noisy45
        prompts = np.array([e.p for e in track.epochs[1000:1020]])
        est, clt = rc._lock_estimates(prompts, 1e-3)
        assert 40.0 < est < 50.0
        # the window ending at epoch 1019 is exactly what the channel reported
        assert (est, clt) == (track.epochs[1019].cn0_est, track.epochs[1019].clt_est)
        assert rc._lock_estimates(np.zeros(20, complex), 1e-3) == (0.0, 0.0)

    def test_noise_only_below_gamma(self, monkeypatch):
        monkeypatch.setattr(rc, "_GAMMA_CODE", 0.0)  # keep the channel past 50 failures
        iq = ss.synthesize_genuine([], duration=0.5, noise_seed=44)
        track = rc.track_channel(iq, truth_init(3, 0.0, 0.0))
        est = [e.cn0_est for e in track.epochs[19:]]
        assert max(est) < 32.0


class TestCarrierLockMetric:
    @staticmethod
    def _clt(prompts):
        return rc._lock_estimates(prompts, 1e-3)[1]

    def test_perfect_lock(self):
        prompts = np.full(20, 100.0 + 0.0j)
        assert self._clt(prompts) == pytest.approx(1.0)

    def test_quadrature_error(self):
        prompts = np.full(20, 0.0 + 100.0j)
        assert self._clt(prompts) == pytest.approx(-1.0)

    def test_45_degree_boundary(self):
        prompts = np.full(20, 100.0 + 100.0j)
        assert self._clt(prompts) == pytest.approx(0.0, abs=1e-12)

    def test_no_estimate_cases(self):
        # an all-zero window carries no power: both estimates read 0.0, as
        # track_channel reports during warm-up
        assert rc._lock_estimates(np.zeros(20, complex), 1e-3) == (0.0, 0.0)


class TestLockTests:
    @staticmethod
    def _masks(cn0, clt):
        return rc.lock_masks(epoch_array(cn0_est=cn0, clt_est=clt))

    def test_all_outcomes(self):
        # pass, fail_code, fail_carrier, fail_both
        code_ok, carrier_ok = self._masks([40.0, 30.0, 40.0, 30.0], [0.9, 0.9, 0.3, 0.3])
        assert code_ok.tolist() == [True, False, True, False]
        assert carrier_ok.tolist() == [True, True, False, False]

    def test_thresholds_are_inclusive(self):
        code_ok, carrier_ok = self._masks([32.0, np.nextafter(32.0, 0)],
                                          [0.5, np.nextafter(0.5, 0)])
        assert code_ok.tolist() == [True, False]
        assert carrier_ok.tolist() == [True, False]


class TestConjugateMultiplyAlgebra:
    def test_matches_expanded_form(self):
        # (I + jQ)(I_r - jQ_r) = (I I_r + Q Q_r) + j (Q I_r - Q_r I)
        rng = np.random.default_rng(8)
        for _ in range(200):
            i, q, ir, qr = rng.normal(size=4)
            x = complex(i, q)
            r = complex(ir, qr)
            product = x * np.conj(r)
            assert product.real == pytest.approx(i * ir + q * qr, rel=1e-12, abs=1e-12)
            assert product.imag == pytest.approx(q * ir - qr * i, rel=1e-12, abs=1e-12)

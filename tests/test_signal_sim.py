import threading

import numpy as np
import pytest

from gnssfp import signal_sim as ss
from helpers import despread_cn0_oracle, synth_satellite_oracle

FS = ss.DEFAULT_SAMPLE_RATE
PREAMBLE_PM1 = np.array([-1, 1, 1, 1, -1, 1, -1, -1])


class TestNavBits:
    def test_bit_counts(self):
        assert len(ss.synthesize_nav_bits(5, 0, 30.0)) == 1500
        assert len(ss.synthesize_nav_bits(5, 0, 6.0)) == 300

    def test_values_and_preambles(self):
        bits = ss.synthesize_nav_bits(12, 7, 30.0)
        assert set(np.unique(bits)) <= {-1, 1}
        for k in range(5):
            assert np.array_equal(bits[300 * k:300 * k + 8], PREAMBLE_PM1), k

    def test_deterministic_and_prefix_stable(self):
        a = ss.synthesize_nav_bits(3, 11, 12.0)
        b = ss.synthesize_nav_bits(3, 11, 12.0)
        assert np.array_equal(a, b)
        longer = ss.synthesize_nav_bits(3, 11, 30.0)
        assert np.array_equal(longer[:len(a)], a)

    def test_distinct_seeds_differ(self):
        a = ss.synthesize_nav_bits(3, 1, 30.0)
        b = ss.synthesize_nav_bits(3, 2, 30.0)
        c = ss.synthesize_nav_bits(4, 1, 30.0)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            ss.synthesize_nav_bits(1, 0, 0.0)


class TestHardwareSignature:
    def test_validation(self):
        with pytest.raises(ValueError):
            ss.HardwareSignature(filter_taps=(0.5, 0.4))  # sums to 0.9
        with pytest.raises(ValueError):
            ss.HardwareSignature(gain_asymmetry=1.4)
        with pytest.raises(ValueError):
            ss.HardwareSignature(phase_noise_std=-0.1)
        with pytest.raises(ValueError):
            ss.HardwareSignature(filter_taps=tuple([0.1] * 10))


class TestSynthesizeGenuine:
    def test_duplicate_prns_rejected(self):
        scens = [ss.SatelliteScenario(prn=4), ss.SatelliteScenario(prn=4)]
        with pytest.raises(ValueError):
            ss.synthesize_genuine(scens, duration=0.01)

    def test_empty_scenario_is_pure_noise(self):
        iq = ss.synthesize_genuine([], duration=0.2, noise_seed=9, noise_power=1.0)
        power = np.mean(np.abs(iq.samples.astype(np.complex128)) ** 2)
        assert power == pytest.approx(1.0, rel=0.02)
        assert abs(np.mean(iq.samples)) < 0.01

    def test_signal_power_matches_cn0(self):
        scen = ss.SatelliteScenario(prn=6, doppler=400.0, code_phase0=88.25, cn0=50.0)
        iq = ss.synthesize_genuine([scen], duration=0.5, add_noise=False)
        power = np.mean(np.abs(iq.samples.astype(np.complex128)) ** 2)
        expected = 10 ** (50.0 / 10.0) / FS
        assert 10 * np.log10(power / expected) == pytest.approx(0.0, abs=0.5)

    def test_measured_cn0_within_2db_of_configured(self):
        scen = ss.SatelliteScenario(prn=6, doppler=400.0, code_phase0=0.0, cn0=45.0)
        iq = ss.synthesize_genuine([scen], duration=0.5, noise_seed=3)
        measured = despread_cn0_oracle(iq, scen)
        assert measured == pytest.approx(45.0, abs=2.0)

    def test_labels_all_genuine(self):
        iq = ss.synthesize_genuine([ss.SatelliteScenario(prn=2)], duration=0.05)
        n = len(iq.samples)
        assert ss.label_runs(None, iq.sample_rate, n) == [(0, n, ss.LABEL_GENUINE)]

    def test_deterministic(self):
        scens = [ss.SatelliteScenario(prn=5, doppler=-900.0, cn0=40.0,
                                      signature=ss.HardwareSignature(1.1, (0.2, 0.6, 0.2), 0.01))]
        a = ss.synthesize_genuine(scens, duration=0.3, noise_seed=4)
        b = ss.synthesize_genuine(scens, duration=0.3, noise_seed=4)
        assert np.array_equal(a.samples, b.samples)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            ss.SatelliteScenario(prn=2, cn0=70.0)
        with pytest.raises(ValueError):
            ss.SatelliteScenario(prn=2, doppler=20e3)
        with pytest.raises(ValueError):
            ss.SatelliteScenario(prn=0)


class TestSynthesisOracle:
    # Chosen beforehand: 1e-6 of the composite amplitude, a few float32 ulps.
    REL_TOL = 1e-6
    SATS = (
        ss.SatelliteScenario(prn=3, doppler=4999.0, code_phase0=0.0, carrier_phase0=0.3,
                             cn0=48.0, nav_seed=1,
                             signature=ss.HardwareSignature(1.15, (0.2, 0.6, 0.2), 0.02)),
        ss.SatelliteScenario(prn=11, doppler=-5000.0, code_phase0=511.5,
                             carrier_phase0=-1.0, cn0=42.0, nav_seed=2,
                             signature=ss.HardwareSignature(
                                 0.85, (0.05, 0.15, 0.6, 0.15, 0.05), 0.01)),
        ss.SatelliteScenario(prn=24, doppler=1234.5, code_phase0=1022.9, cn0=55.0,
                             nav_seed=3, signature=ss.HardwareSignature(1.0, (0.3, 0.7))),
    )

    @pytest.mark.parametrize("duration", [0.2503, 1.0007])  # partial last epoch
    @pytest.mark.parametrize("group", [(0,), (1,), (2,), (0, 1, 2)])
    def test_matches_per_sample_formula(self, group, duration):
        sats = [self.SATS[i] for i in group]
        iq = ss.synthesize_genuine(sats, FS, duration, noise_seed=7, add_noise=False)
        n = len(iq.samples)
        assert n % 2048
        ref = sum(synth_satellite_oracle(s, FS, n, phase_seed=7) for s in sats)
        amplitude = sum(np.sqrt(10 ** (s.cn0 / 10) / FS) for s in sats)
        assert np.max(np.abs(iq.samples - ref)) <= self.REL_TOL * amplitude

    def test_noise_is_the_documented_draw(self):
        # longer than one 2**20-sample noise block, so the block seam is covered
        iq = ss.synthesize_genuine([], FS, 0.6, noise_seed=13, noise_power=0.7)
        n = len(iq.samples)
        draw = np.random.default_rng([13, 0xA3]).standard_normal(2 * n) * np.sqrt(0.35)
        expected = (draw[0::2] + 1j * draw[1::2]).astype(np.complex64)
        assert n > 1 << 20
        assert np.array_equal(iq.samples.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("rate", [1e6, 2.0481e6])
    def test_rate_without_whole_samples_per_ms_rejected(self, rate):
        with pytest.raises(ValueError, match="sample_rate"):
            ss.synthesize_genuine([ss.SatelliteScenario(prn=2)], rate, 0.01)


class TestMultipath:
    def test_identity_channel(self):
        iq = ss.synthesize_genuine([ss.SatelliteScenario(prn=2)], duration=0.05,
                                   noise_seed=1)
        out = ss.apply_multipath(iq, [(0.0, 1.0 + 0j)])
        assert np.array_equal(out.samples, iq.samples)
        assert (out.sample_rate, out.t0) == (iq.sample_rate, iq.t0)

    def test_zero_taps_zero_output(self):
        iq = ss.synthesize_genuine([ss.SatelliteScenario(prn=2)], duration=0.02)
        out = ss.apply_multipath(iq, [])
        assert not out.samples.any()

    def test_delayed_tap_superposition(self):
        iq = ss.synthesize_genuine([ss.SatelliteScenario(prn=2)], duration=0.02,
                                   noise_seed=2)
        delay_s = 25 / iq.sample_rate
        out = ss.apply_multipath(iq, [(0.0, 1.0), (delay_s, 0.5 + 0.1j)])
        expected = iq.samples.copy()
        expected[25:] += np.complex64(0.5 + 0.1j) * iq.samples[:-25]
        assert np.allclose(out.samples, expected, atol=1e-6)

    def test_negative_delay_rejected(self):
        iq = ss.synthesize_genuine([], duration=0.01)
        with pytest.raises(ValueError):
            ss.apply_multipath(iq, [(-1e-3, 1.0)])


class TestSpoofOverlay:
    def _base(self, duration=0.4, seed=5):
        scens = [ss.SatelliteScenario(prn=p, doppler=300.0 * p, code_phase0=50.0 * p,
                                      cn0=45.0, nav_seed=p) for p in (3, 7)]
        return scens, ss.synthesize_genuine(scens, duration=duration, noise_seed=seed)

    def test_takeover_beyond_end_is_noop(self):
        scens, iq = self._base()
        atk = ss.AttackConfig(mode="replay", takeover_time=10.0)
        out = ss.spoof_overlay(iq, atk, scens, noise_seed=5)
        assert np.array_equal(out.samples, iq.samples)
        n = len(iq.samples)
        assert ss.label_runs(atk, iq.sample_rate, n) == [(0, n, ss.LABEL_GENUINE)]

    def test_perfect_replay_is_bit_identical(self):
        scens, iq = self._base()
        atk = ss.AttackConfig(mode="replay", power="adjusted", adjusted_db=0.0,
                              takeover_time=0.2, seamless=False)
        out = ss.spoof_overlay(iq, atk, scens, noise_seed=5)
        k0 = int(round(0.2 * iq.sample_rate))
        assert np.array_equal(out.samples[k0:], iq.samples[k0:])
        assert np.array_equal(out.samples[:k0], iq.samples[:k0])
        n = len(iq.samples)
        assert ss.label_runs(atk, iq.sample_rate, n) == [(0, k0, ss.LABEL_GENUINE),
                                                         (k0, n, ss.LABEL_SPOOFED)]

    def test_replay_requires_source(self):
        empty = ss.IqStream(np.empty(0, np.complex64), FS)
        atk = ss.AttackConfig(mode="replay", takeover_time=0.0)
        with pytest.raises(ValueError):
            ss.spoof_overlay(empty, atk, [])

    @pytest.mark.parametrize("power,expect_db", [("over", 6.0), ("matched", 0.5),
                                                 ("under", -3.0), ("adjusted", 0.0)])
    def test_power_contract(self, power, expect_db):
        # measured on noiseless streams so the ratio is the attacker's alone
        scens = [ss.SatelliteScenario(prn=3, doppler=700.0, code_phase0=31.5, cn0=45.0)]
        clean = ss.synthesize_genuine(scens, duration=0.3, add_noise=False)
        pre = np.mean(np.abs(clean.samples.astype(np.complex128)) ** 2)
        atk = ss.AttackConfig(mode="spoofing", power=power, adjusted_db=0.0,
                              takeover_time=0.0, seamless=False)
        out = ss.spoof_overlay(clean, atk, scens, noise_seed=0)
        post = np.mean(np.abs(out.samples.astype(np.complex128)) ** 2)
        assert 10 * np.log10(post / pre) == pytest.approx(expect_db, abs=0.5)

    def test_over_power_is_4x_per_channel(self):
        scens = [ss.SatelliteScenario(prn=9, doppler=-500.0, cn0=40.0)]
        clean = ss.synthesize_genuine(scens, duration=0.3, add_noise=False)
        pre = np.mean(np.abs(clean.samples.astype(np.complex128)) ** 2)
        atk = ss.AttackConfig(mode="spoofing", power="over", takeover_time=0.0,
                              seamless=False)
        out = ss.spoof_overlay(clean, atk, scens, noise_seed=0)
        post = np.mean(np.abs(out.samples.astype(np.complex128)) ** 2)
        assert post / pre == pytest.approx(4.0, rel=0.15)

    def test_under_seamless_labels_mixed(self):
        _, iq = self._base()
        atk = ss.AttackConfig(mode="spoofing", power="under", takeover_time=0.2,
                              seamless=True)
        k0, n = int(round(0.2 * iq.sample_rate)), len(iq.samples)
        assert ss.label_runs(atk, iq.sample_rate, n) == [(0, k0, ss.LABEL_GENUINE),
                                                         (k0, n, ss.LABEL_MIXED)]

    @pytest.mark.parametrize("power, seamless, code", [
        ("under", False, ss.LABEL_SPOOFED), ("matched", True, ss.LABEL_SPOOFED),
        ("over", True, ss.LABEL_SPOOFED), ("under", True, ss.LABEL_MIXED)])
    def test_takeover_at_start_labels_every_sample(self, power, seamless, code):
        atk = ss.AttackConfig(mode="replay", power=power, seamless=seamless)
        assert ss.label_runs(atk, FS, 100) == [(0, 100, code)]
        assert ss.label_runs(atk, FS, 0) == []

    def test_label_conservation_monotone_in_takeover(self):
        _, iq = self._base()
        counts = []
        for takeover in (0.3, 0.2, 0.1):
            atk = ss.AttackConfig(mode="replay", takeover_time=takeover)
            runs = ss.label_runs(atk, iq.sample_rate, len(iq.samples))
            assert runs[-1][1] == len(iq.samples)
            counts.append(sum(b - a for a, b, code in runs if code == ss.LABEL_GENUINE))
        assert counts[0] >= counts[1] >= counts[2]

    def test_overlay_deterministic(self):
        scens, iq = self._base()
        atk = ss.AttackConfig(mode="spoofing", power="matched", takeover_time=0.1,
                              seamless=True,
                              spoofer_signature=ss.HardwareSignature(0.9, (0.1, 0.8, 0.1), 0.02),
                              attack_seed=3)
        a = ss.spoof_overlay(iq, atk, scens, noise_seed=5)
        b = ss.spoof_overlay(iq, atk, scens, noise_seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_attack_config_validation(self):
        with pytest.raises(ValueError):
            ss.AttackConfig(mode="jam")
        with pytest.raises(ValueError):
            ss.AttackConfig(mode="replay", power="huge")
        with pytest.raises(ValueError):
            ss.AttackConfig(mode="replay", takeover_time=-1.0)


class TestStreamBlocks:
    SATS = TestSynthesisOracle.SATS[:2]
    SPOOFER = ss.HardwareSignature(0.9, (0.1, 0.1, 0.1, 0.1, 0.2, 0.1, 0.1, 0.1, 0.1), 0.02)
    # delays of 0, 3 and 5000 samples: the last spans many small blocks
    MULTIPATH = [(0.0, 1.0 + 0j), (3 / FS, 0.3 - 0.1j), (5000 / FS, 0.1 + 0.05j)]
    ATTACKS = {
        "none": None,
        "replay": ss.AttackConfig(mode="replay", power="under", takeover_time=0.0021,
                                  seamless=True, spoofer_signature=SPOOFER, attack_seed=4),
        "spoofing": ss.AttackConfig(mode="spoofing", power="over", takeover_time=0.0021,
                                    spoofer_signature=SPOOFER, attack_seed=4),
    }

    @pytest.mark.parametrize("block", [1, 7, 2047, 3 * 2048 + 5])
    @pytest.mark.parametrize("attack", list(ATTACKS))
    def test_blocks_join_to_the_whole_stream_calls(self, block, attack, monkeypatch):
        monkeypatch.setattr(ss, "BLOCK_SAMPLES", block)
        atk, targets, duration = self.ATTACKS[attack], self.SATS[1:], 0.0061
        whole = ss.apply_multipath(ss.synthesize_genuine(self.SATS, FS, duration, 3),
                                   self.MULTIPATH)
        if atk is not None:
            whole = ss.spoof_overlay(whole, atk, targets, noise_seed=3)
        blocks = list(ss.stream_blocks(self.SATS, FS, duration, 3, multipath=self.MULTIPATH,
                                       attack=atk, target_scenarios=targets))
        starts = np.cumsum([0] + [len(b.samples) for b in blocks[:-1]])
        assert [b.t0 for b in blocks] == [i / FS for i in starts]
        samples = np.concatenate([b.samples for b in blocks])
        assert samples.tobytes() == whole.samples.tobytes()

    def test_empty_stream_is_one_empty_block(self):
        (block,) = ss.stream_blocks(self.SATS, FS, 0.0)
        assert len(block.samples) == 0
        with pytest.raises(ValueError, match="replay"):
            list(ss.stream_blocks(self.SATS, FS, 0.0, attack=self.ATTACKS["replay"]))

    # 0.01 s in blocks of 4096 samples: five blocks, each drawn as one noise chunk
    @pytest.mark.parametrize("end", ["full pass", "close after one block", "consumer error"])
    def test_no_thread_outlives_the_stream(self, end, monkeypatch):
        monkeypatch.setattr(ss, "BLOCK_SAMPLES", 4096)
        before = threading.active_count()

        def consume(stop_after):
            for k, _ in enumerate(ss.stream_blocks(self.SATS, FS, 0.01, 3), 1):
                if k == stop_after:
                    raise RuntimeError("consumer failed")
            return k

        if end == "full pass":
            assert consume(None) == 5
        elif end == "close after one block":
            blocks = ss.stream_blocks(self.SATS, FS, 0.01, 3)
            next(blocks)
            assert threading.active_count() == before + 1  # drawing block 2's noise
            blocks.close()
        else:
            with pytest.raises(RuntimeError, match="consumer failed"):
                consume(3)
        assert threading.active_count() == before

    def test_a_failed_draw_ahead_surfaces_at_its_block(self, monkeypatch):
        monkeypatch.setattr(ss, "BLOCK_SAMPLES", 4096)
        real_draw, in_main_thread = ss._draw_noise, []

        def draw(rng, sigma, count):
            in_main_thread.append(threading.current_thread() is threading.main_thread())
            if len(in_main_thread) == 3:
                raise RuntimeError("draw failed")
            return real_draw(rng, sigma, count)

        monkeypatch.setattr(ss, "_draw_noise", draw)
        before, blocks = threading.active_count(), []
        with pytest.raises(RuntimeError, match="draw failed"):
            for block in ss.stream_blocks(self.SATS, FS, 0.01, 3):
                blocks.append(block)
        # block 1's noise is drawn in the caller, blocks 2 and 3 ahead on the helper
        assert len(blocks) == 2 and in_main_thread == [True, False, False]
        assert threading.active_count() == before


class TestLabelIntervals:
    def test_round_trip(self):
        ivs = ss.label_intervals([(0, 40, 0), (40, 100, 1)], 100.0)
        assert ivs == [(0.0, 0.4, "genuine"), (0.4, 1.0, "spoofed")]

    def test_start_time_and_every_code(self):
        runs = [(0, 2, 2), (2, 3, 0), (3, 6, 1), (6, 7, 2)]
        assert ss.label_intervals(runs, 10.0, t0=5.0) == [
            (5.0, 5.2, "mixed"), (5.2, 5.3, "genuine"), (5.3, 5.6, "spoofed"),
            (5.6, 5.7, "mixed")]

    def test_empty(self):
        assert ss.label_intervals([], 100.0) == []

import io
import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest

from gnssfp import capture_io as cio
from gnssfp import mvn_model
from gnssfp import receiver_core as rc
from gnssfp.fingerprint_features import FEATURE_DTYPE, FeatureWindowConfig
from gnssfp.signal_sim import IqStream
from gnssfp.spoof_detector import Decision, DetectorProfile, EvalReport
from helpers import epoch_array, load_manifest, read_decisions_csv


def npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def representable_samples(rng, n, fmt):
    """Random complex samples exactly representable in the given format."""
    if fmt == "float32":
        vals = rng.normal(0, 0.3, size=2 * n).astype(np.float32).astype(np.float64)
    else:
        bits = 8 if fmt == "int8" else 16
        full = 1 << (bits - 1)
        vals = rng.integers(-full, full, size=2 * n) / full
    return (vals[0::2] + 1j * vals[1::2]).astype(np.complex64)


class TestIqRoundTrip:
    @pytest.mark.parametrize("fmt", ["int8", "int16", "float32"])
    @pytest.mark.parametrize("n", [0, 1, 7, 1000])
    def test_bit_exact_round_trip(self, tmp_path, fmt, n):
        rng = np.random.default_rng(n + hash(fmt) % 1000)
        stream = IqStream(representable_samples(rng, n, fmt), 2.048e6, t0=1.5)
        meta = cio.CaptureMeta(sample_rate=2.048e6, sample_format=fmt, t0=1.5)
        path = tmp_path / f"cap_{fmt}_{n}.iq"
        cio.write_iq(stream, path, meta)
        back = cio.read_iq(path)
        assert np.array_equal(back.samples, stream.samples)
        assert back.sample_rate == 2.048e6
        assert back.t0 == 1.5

    def test_int16_known_bytes(self, tmp_path):
        # 0x4000 = 16384 = 2^15/2 -> 0.5 ; 0xC000 = -16384 -> -0.5
        path = tmp_path / "known.iq"
        path.write_bytes(bytes([0x00, 0x40, 0x00, 0xC0]))
        meta = cio.CaptureMeta(sample_rate=1e6, sample_format="int16")
        stream = cio.read_iq(path, meta)
        assert len(stream.samples) == 1
        assert stream.samples[0] == np.complex64(0.5 - 0.5j)

    def test_iq_swap_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        stream = IqStream(representable_samples(rng, 64, "int16"), 1e6)
        meta = cio.CaptureMeta(sample_rate=1e6, sample_format="int16", iq_swap=True)
        path = tmp_path / "swap.iq"
        cio.write_iq(stream, path, meta)
        assert np.array_equal(cio.read_iq(path).samples, stream.samples)
        # reading through a non-swapped view exchanges the components
        plain = cio.read_iq(path, cio.CaptureMeta(sample_rate=1e6, sample_format="int16"))
        assert np.array_equal(plain.samples.real, stream.samples.imag)

    def test_big_endian_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        stream = IqStream(representable_samples(rng, 32, "int16"), 1e6)
        meta = cio.CaptureMeta(sample_rate=1e6, sample_format="int16", byte_order="big")
        path = tmp_path / "be.iq"
        cio.write_iq(stream, path, meta)
        assert np.array_equal(cio.read_iq(path).samples, stream.samples)

    def test_out_of_range_int16_names_index(self, tmp_path):
        samples = np.array([0.1 + 0.1j, 1.0 + 0.0j], dtype=np.complex64)
        meta = cio.CaptureMeta(sample_rate=1e6, sample_format="int16")
        with pytest.raises(ValueError, match="sample 1"):
            cio.write_iq(IqStream(samples, 1e6), tmp_path / "bad.iq", meta)
        # -1.0 is representable (-2^15), +1.0 is not
        ok = np.array([-1.0 - 1.0j], dtype=np.complex64)
        cio.write_iq(IqStream(ok, 1e6), tmp_path / "ok.iq", meta)

    def test_truncated_file_reports_offset(self, tmp_path):
        path = tmp_path / "trunc.iq"
        path.write_bytes(bytes(7))  # not a whole number of int16 I,Q pairs
        meta = cio.CaptureMeta(sample_rate=1e6, sample_format="int16")
        with pytest.raises(cio.FormatError, match="byte offset 4"):
            cio.read_iq(path, meta)

    @pytest.mark.parametrize("fmt, pairs", [("int8", 9), ("int16", 4), ("float32", 2)])
    def test_capture_length_counts_whole_pairs(self, tmp_path, fmt, pairs):
        path = tmp_path / "c.iq"
        path.write_bytes(bytes(18))
        meta = cio.CaptureMeta(sample_rate=1e6, sample_format=fmt)
        if 18 % (2 * np.dtype(fmt).itemsize):
            with pytest.raises(cio.FormatError, match="byte offset 16"):
                cio.capture_length(path, meta)
        else:
            assert cio.capture_length(path, meta) == pairs

    @pytest.mark.parametrize("window, message", [
        ({"offset_samples": -5}, "offset_samples must be >= 0, got -5"),
        ({"count": -3}, "count must be >= 0, got -3"),
        ({"offset_samples": 11}, "offset 11 beyond capture of 10 samples")])
    def test_read_iq_rejects_a_window_outside_the_capture(self, tmp_path, window, message):
        meta = cio.CaptureMeta(sample_rate=1e6, sample_format="int16")
        cio.write_iq(IqStream(np.zeros(10, np.complex64), 1e6), tmp_path / "c.iq", meta)
        with pytest.raises(ValueError, match=message):
            cio.read_iq(tmp_path / "c.iq", meta, **window)

    @pytest.mark.parametrize("block", [1, 7, 100, 1 << 16])
    def test_iq_blocks_join_into_the_whole_read(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(cio, "BLOCK_SAMPLES", block)
        rng = np.random.default_rng(12)
        meta = cio.CaptureMeta(sample_rate=1e6, sample_format="int16", t0=3.5)
        cio.write_iq(IqStream(representable_samples(rng, 100, "int16"), 1e6),
                     tmp_path / "c.iq", meta)
        whole = cio.read_iq(tmp_path / "c.iq")
        blocks = list(cio.iq_blocks(tmp_path / "c.iq", meta))
        assert [len(b.samples) for b in blocks[:-1]] == [block] * (len(blocks) - 1)
        assert np.concatenate([b.samples for b in blocks]).tobytes() == whole.samples.tobytes()
        assert [b.t0 for b in blocks] == [3.5 + i * block / 1e6 for i in range(len(blocks))]

    def test_windowed_read(self, tmp_path):
        rng = np.random.default_rng(8)
        stream = IqStream(representable_samples(rng, 100, "float32"), 1e6)
        meta = cio.CaptureMeta(sample_rate=1e6, sample_format="float32")
        path = tmp_path / "win.iq"
        cio.write_iq(stream, path, meta)
        out = cio.read_iq(path, offset_samples=40, count=10)
        assert np.array_equal(out.samples, stream.samples[40:50])
        assert out.t0 == pytest.approx(40 / 1e6)

    @pytest.mark.parametrize("fmt", ["int8", "int16", "float32"])
    @pytest.mark.parametrize("byte_order", ["little", "big"])
    @pytest.mark.parametrize("iq_swap", [False, True])
    def test_chunked_read_matches_whole_payload_decode(self, tmp_path, monkeypatch, fmt,
                                                       byte_order, iq_swap):
        monkeypatch.setattr(cio, "_CHUNK", 7)
        meta = cio.CaptureMeta(sample_rate=1e6, sample_format=fmt, byte_order=byte_order,
                               iq_swap=iq_swap)
        rng = np.random.default_rng(11)
        if fmt == "float32":
            raw = rng.normal(0, 0.3, 100).astype(meta.dtype)
            raw[:4] = [-0.0, 0.0, 1e-40, -1.0]
        else:
            info = np.iinfo(meta.dtype)
            raw = rng.integers(info.min, info.max, 100, endpoint=True).astype(meta.dtype)
            raw[:2] = [info.min, info.max]
        path = tmp_path / "chunks.iq"
        raw.tofile(path)
        for offset, count in [(0, None), (3, 20), (5, None), (6, 29), (13, 14), (1, None),
                              (49, None), (50, None), (7, 7)]:
            # the whole payload at once, sliced to the window
            pairs = raw.reshape(-1, 2)[offset:][:count]
            i_part, q_part = (pairs[:, 1], pairs[:, 0]) if iq_swap else (pairs[:, 0], pairs[:, 1])
            expected = np.empty(len(pairs), dtype=np.complex64)
            expected.real, expected.imag = i_part, q_part
            if fmt != "float32":
                expected /= np.float32(1 << (8 * raw.itemsize - 1))
            out = cio.read_iq(path, meta, offset_samples=offset, count=count)
            assert out.samples.tobytes() == expected.tobytes(), (offset, count)

    @staticmethod
    def _read_past_the_end(tmp_path, monkeypatch, meta):
        cio.write_iq(IqStream(np.zeros(10, np.complex64), 1e6), tmp_path / "c.iq", meta)
        monkeypatch.setattr(cio, "capture_length", lambda path, meta: 12)  # the file shrank
        with pytest.raises(cio.FormatError, match="payload ended before sample 12"):
            cio.read_iq(tmp_path / "c.iq", meta, offset_samples=2)

    def test_payload_that_ends_early_is_a_format_error(self, tmp_path, monkeypatch):
        # a native float32 payload is read in one call
        meta = cio.CaptureMeta(sample_rate=1e6, sample_format="float32")
        self._read_past_the_end(tmp_path, monkeypatch, meta)

    @pytest.mark.parametrize("fmt, swap", [("int8", False), ("int16", False), ("float32", True)],
                             ids=["int8", "int16", "float32_swapped"])
    def test_chunked_payload_that_ends_early_is_a_format_error(self, tmp_path, monkeypatch,
                                                                fmt, swap):
        # every other payload is decoded chunk by chunk
        meta = cio.CaptureMeta(sample_rate=1e6, sample_format=fmt, iq_swap=swap)
        self._read_past_the_end(tmp_path, monkeypatch, meta)

    def test_append_names_the_index_in_the_file(self, tmp_path):
        meta = cio.CaptureMeta(sample_rate=1e6, sample_format="int16")
        path = tmp_path / "app.iq"
        first = IqStream(np.full(5, 0.5 + 0.5j, dtype=np.complex64), 1e6)
        cio.write_iq(first, path, meta)
        cio.write_iq(first, path, meta, append=True)
        bad = IqStream(np.array([0.1, 0.2 + 1.0j], dtype=np.complex64), 1e6)
        with pytest.raises(ValueError, match=r"sample 11 \(Q component"):
            cio.write_iq(bad, path, meta, append=True)
        assert np.array_equal(cio.read_iq(path).samples, np.tile(first.samples, 2))

    def test_nonfinite_rejected(self, tmp_path):
        samples = np.array([np.nan + 0j], dtype=np.complex64)
        meta = cio.CaptureMeta(sample_rate=1e6, sample_format="float32")
        with pytest.raises(ValueError):
            cio.write_iq(IqStream(samples, 1e6), tmp_path / "nan.iq", meta)

    @pytest.mark.parametrize("chunk", [1, 3, 7, 1 << 16])
    def test_labels_round_trip(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(cio, "_CHUNK", chunk)
        runs = [(0, 4, 0), (4, 5, 2), (5, 10, 1)]
        expected = np.array([0, 0, 0, 0, 2, 1, 1, 1, 1, 1], dtype=np.uint8)
        samples = np.zeros(10, np.complex64)
        meta = cio.CaptureMeta(sample_rate=1e6, sample_format="float32")
        with cio.CaptureWriter(tmp_path / "c.iq", meta, tmp_path / "labels.npy", runs) as writer:
            for part in (slice(0, 6), slice(6, 10)):  # two blocks
                writer.write(IqStream(samples[part], 1e6))
        assert (tmp_path / "labels.npy").read_bytes() == npy_bytes(expected)
        assert cio.load_label_runs(tmp_path / "labels.npy", 10) == runs
        assert sorted(os.listdir(tmp_path)) == ["c.iq", "c.iq.meta.json", "labels.npy"]

    def test_sample_count_other_than_the_runs_leaves_no_files(self, tmp_path):
        meta = cio.CaptureMeta(sample_rate=1e6, sample_format="float32")
        with pytest.raises(ValueError, match="wrote 3 samples, expected 10"):
            with cio.CaptureWriter(tmp_path / "c.iq", meta, tmp_path / "labels.npy",
                                   [(0, 10, 0)]) as writer:
                writer.write(IqStream(np.zeros(3, np.complex64), 1e6))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("labels, message", [
        (np.zeros(3, np.uint8), r"1-D uint8 array of 12 entries.*shape \(3,\)"),
        (np.zeros(12, np.float64), "got float64"),
        (np.zeros((3, 4), np.uint8), r"shape \(3, 4\)"),
        (np.array([0] * 10 + [7, 3], np.uint8), r"unknown label codes \[3, 7\]")])
    def test_load_labels_rejects_malformed_files(self, tmp_path, labels, message):
        path = tmp_path / "labels.npy"
        np.save(path, labels)
        with pytest.raises(ValueError, match=message) as exc:
            cio.load_label_runs(path, 12)
        assert str(path) in str(exc.value)

    def test_load_labels_rejects_other_files(self, tmp_path):
        np.savez(tmp_path / "labels.npz", labels=np.zeros(12, np.uint8))
        (tmp_path / "text.npy").write_text("0 1 2\n")
        np.save(tmp_path / "objects.npy", np.array([None] * 12, dtype=object), allow_pickle=True)
        for name in ("labels.npz", "text.npy", "objects.npy"):
            with pytest.raises(ValueError, match="not a labels .npy array") as exc:
                cio.load_label_runs(tmp_path / name, 12)
            assert name in str(exc.value)

    @pytest.mark.parametrize("chunk", [1, 5, 64, 1 << 16])
    def test_label_runs_match_a_whole_array_encoding(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(cio, "_CHUNK", chunk)
        rng = np.random.default_rng(5)
        labels = np.repeat(rng.integers(0, 3, 40), rng.integers(1, 30, 40)).astype(np.uint8)
        np.save(tmp_path / "labels.npy", labels)
        expected, start = [], 0
        for code, run in itertools.groupby(labels.tolist()):
            n = len(list(run))
            expected.append((start, start + n, code))
            start += n
        assert cio.load_label_runs(tmp_path / "labels.npy", len(labels)) == expected

    def test_unknown_codes_are_listed_from_every_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cio, "_CHUNK", 4)
        np.save(tmp_path / "labels.npy", np.array([0, 9, 0, 0, 1, 1, 2, 0, 0, 4, 9, 0],
                                                  np.uint8))
        with pytest.raises(ValueError, match=r"unknown label codes \[4, 9\]"):
            cio.load_label_runs(tmp_path / "labels.npy", 12)

    def test_label_file_cut_short_is_rejected(self, tmp_path):
        path = tmp_path / "labels.npy"
        path.write_bytes(npy_bytes(np.zeros(12, np.uint8))[:-5])
        with pytest.raises(ValueError, match="not a labels .npy array: the file ends "
                                             "after 7 of 12 entries"):
            cio.load_label_runs(path, 12)

    def test_label_file_in_npy_format_2(self, tmp_path):
        path = tmp_path / "labels.npy"
        with open(path, "wb") as f:
            np.lib.format.write_array(f, np.array([1, 1, 0], np.uint8), version=(2, 0))
        assert cio.load_label_runs(path, 3) == [(0, 2, 1), (2, 3, 0)]

    def test_read_iq_holds_only_the_samples(self, tmp_path):
        n = 2_000_000
        meta = cio.CaptureMeta(sample_rate=2.048e6, sample_format="int16")
        np.zeros(2 * n, dtype=np.int16).tofile(tmp_path / "big.iq")
        tracemalloc.start()
        try:
            stream = cio.read_iq(tmp_path / "big.iq", meta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stream.samples) == n
        assert peak <= n * np.dtype(np.complex64).itemsize + (1 << 20), peak


class TestManifest:
    def _spoofed(self):
        return cio.DatasetManifest(
            id="desk-s1", role="spoofed", capture_path="capture.iq",
            scenario_path="s1.json", spoofing_type="both", threat_model="replay",
            power_status="over-powered", multipath="no", duration_s=3600.0,
            location="synthetic")

    def test_round_trip(self, tmp_path):
        manifest = self._spoofed()
        cio.save_manifest(manifest, tmp_path / "m.json")
        assert load_manifest(tmp_path / "m.json") == manifest

    def test_table_style_row(self, tmp_path):
        m = cio.DatasetManifest(id="s1", role="spoofed", spoofing_type="time",
                                threat_model="replay", power_status="over-powered",
                                multipath="no", duration_s=3600.0, location="desk")
        cio.save_manifest(m, tmp_path / "row.json")
        back = load_manifest(tmp_path / "row.json")
        assert back.power_status == "over-powered"
        assert back.multipath == "no"
        assert back.duration_s == 3600.0

    def test_spoofed_requires_power_status(self, tmp_path):
        doc = {"format": cio.MANIFEST_FORMAT, "version": 1, "id": "x",
               "role": "spoofed", "spoofing_type": "both",
               "threat_model": "replay", "power_status": ""}
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="power status"):
            load_manifest(tmp_path / "bad.json")

    def test_version_mismatch(self, tmp_path):
        doc = {"format": cio.MANIFEST_FORMAT, "version": 99, "id": "x",
               "role": "genuine"}
        (tmp_path / "v.json").write_text(json.dumps(doc))
        with pytest.raises(cio.UnsupportedVersionError):
            load_manifest(tmp_path / "v.json")

    def test_genuine_needs_no_attack_fields(self, tmp_path):
        m = cio.DatasetManifest(id="g1", role="genuine")
        cio.save_manifest(m, tmp_path / "g.json")
        assert load_manifest(tmp_path / "g.json").role == "genuine"


class TestModelFile:
    def _profile(self, threshold=-441.9):
        rng = np.random.default_rng(9)
        model = mvn_model.fit(rng.normal(size=(300, 6)) * [1, 2, 3, 4, 5, 6])
        return DetectorProfile(model=model, log_threshold=threshold, n_avg=7,
                               trained_on=("a.csv", "b.csv"), train_eer=0.0125)

    def test_bit_exact_round_trip(self, tmp_path):
        profile = self._profile()
        cio.save_model(profile, tmp_path / "p.json",
                       window=FeatureWindowConfig(window_len=25))
        back = cio.load_model(tmp_path / "p.json")
        assert back.log_threshold == profile.log_threshold
        assert np.array_equal(back.model.sigma, profile.model.sigma)
        assert np.array_equal(back.model.mu, profile.model.mu)
        assert back.n_avg == 7
        assert back.trained_on == ("a.csv", "b.csv")
        assert back.train_eer == 0.0125
        assert cio.load_window_config(tmp_path / "p.json").window_len == 25

    def test_neg_inf_threshold_round_trip(self, tmp_path):
        profile = self._profile(threshold=float("-inf"))
        cio.save_model(profile, tmp_path / "inf.json")
        assert cio.load_model(tmp_path / "inf.json").log_threshold == float("-inf")

    def test_version_check(self, tmp_path):
        profile = self._profile()
        cio.save_model(profile, tmp_path / "p.json")
        doc = json.loads((tmp_path / "p.json").read_text())
        doc["version"] = 2
        (tmp_path / "p.json").write_text(json.dumps(doc))
        with pytest.raises(cio.UnsupportedVersionError):
            cio.load_model(tmp_path / "p.json")

    @pytest.mark.parametrize("field", ["k", "mu", "sigma", "log_threshold", "n_avg"])
    def test_missing_field_names_it(self, tmp_path, field):
        cio.save_model(self._profile(), tmp_path / "p.json")
        doc = json.loads((tmp_path / "p.json").read_text())
        del doc[field]
        (tmp_path / "p.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"missing required field '{field}'"):
            cio.load_model(tmp_path / "p.json")

    def test_loaded_model_scores_identically(self, tmp_path):
        profile = self._profile()
        cio.save_model(profile, tmp_path / "p.json")
        back = cio.load_model(tmp_path / "p.json")
        x = np.random.default_rng(1).normal(size=(20, 6))
        a = mvn_model.log_density(x, profile.model)
        b = mvn_model.log_density(x, back.model)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


class TestCsvFormats:
    def test_epoch_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        epochs = epoch_array(t=1e-3 * np.arange(25),
                             e=rng.normal(size=25) + 1j * rng.normal(size=25),
                             p=rng.normal(size=25) + 1j * rng.normal(size=25),
                             l=rng.normal(size=25) + 1j * rng.normal(size=25),
                             cn0_est=rng.uniform(20, 50, size=25),
                             clt_est=rng.uniform(-1, 1, size=25),
                             code_phase=rng.uniform(0, 1023, size=25),
                             doppler=rng.uniform(-5e3, 5e3, size=25))
        cio.write_epochs_csv(epochs, tmp_path / "e.csv")
        back = cio.read_epochs_csv(tmp_path / "e.csv")
        assert back.dtype.names == rc.EPOCH_DTYPE.names
        assert back.tobytes() == epochs.tobytes()

    def test_epoch_round_trip_keeps_every_bit(self, tmp_path):
        # signed zeros, a subnormal and the far end of the binary64 range
        special = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 0.1, 1 / 3])
        epochs = epoch_array(t=special, e=special, p=special[::-1], l=-special,
                             cn0_est=special[::-1], clt_est=special, code_phase=special,
                             doppler=special[::-1])
        for field in ("e", "p", "l"):
            epochs[field].imag = special[::-1]
        cio.write_epochs_csv(epochs, tmp_path / "e.csv")
        assert cio.read_epochs_csv(tmp_path / "e.csv").tobytes() == epochs.tobytes()
        rows = (tmp_path / "e.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [repr(x) for x in special.tolist()]
        cio.write_epochs_csv(epochs[:0], tmp_path / "empty.csv")
        assert cio.read_epochs_csv(tmp_path / "empty.csv").shape == (0,)

    def test_feature_round_trip_and_header(self, tmp_path):
        feats = np.array([(0.02 * i, 7, 1.5, -1.25, 2.0, -2.0, 1.5, -1.5) for i in range(10)],
                         dtype=FEATURE_DTYPE)
        cio.write_features_csv(feats, tmp_path / "f.csv")
        lines = (tmp_path / "f.csv").read_text().splitlines()
        assert lines[0] == "t,prn,e_high,e_low,p_high,p_low,l_high,l_low"
        assert lines[2] == "0.02,7,1.5,-1.25,2.0,-2.0,1.5,-1.5"
        back = cio.read_features_csv(tmp_path / "f.csv")
        assert back.dtype == FEATURE_DTYPE and back.tobytes() == feats.tobytes()
        assert back[3].t == 0.02 * 3 and back.prn.tolist() == [7] * 10

    def test_feature_round_trip_keeps_every_bit(self, tmp_path):
        # signed zeros, a subnormal and the far end of the binary64 range
        special = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 0.1, 1 / 3])
        feats = np.zeros(len(special), dtype=FEATURE_DTYPE)
        feats["prn"] = np.arange(1, 9)
        for k, name in enumerate(FEATURE_DTYPE.names):
            if name != "prn":
                feats[name] = np.roll(special, k) * (-1) ** k
        cio.write_features_csv(feats, tmp_path / "f.csv")
        assert cio.read_features_csv(tmp_path / "f.csv").tobytes() == feats.tobytes()
        rows = (tmp_path / "f.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [repr(x) for x in special.tolist()]
        cio.write_features_csv(feats[:0], tmp_path / "empty.csv")
        empty = cio.read_features_csv(tmp_path / "empty.csv")
        assert empty.dtype == FEATURE_DTYPE and empty.shape == (0,)

    def test_decision_round_trip_and_header(self, tmp_path):
        decisions = [Decision(t_start=0.0, t_end=0.8, prn=3, log_score=-12.5,
                              decision="authentic", label="genuine"),
                     Decision(t_start=0.8, t_end=1.6, prn=3, log_score=-240.0,
                              decision="malicious", label="spoofed")]
        cio.write_decisions_csv(decisions, tmp_path / "d.csv")
        header = (tmp_path / "d.csv").read_text().splitlines()[0]
        assert header == "t_start,t_end,prn,score_log,decision,label"
        assert read_decisions_csv(tmp_path / "d.csv") == decisions

    def test_wrong_header_rejected(self, tmp_path):
        (tmp_path / "x.csv").write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            cio.read_features_csv(tmp_path / "x.csv")

    def test_report_csv(self, tmp_path):
        reports = [EvalReport(fpr=0.0, fnr=0.015625, eer=0.0, threshold=-100.5,
                              n_avg=10, counts=(63, 0, 64, 1))]
        cio.write_reports_csv(reports, tmp_path / "r.csv", names=["fold0"])
        text = (tmp_path / "r.csv").read_text().splitlines()
        assert text[0] == "dataset,n_avg,fpr,fnr,eer,threshold_log,tp,fp,tn,fn"
        assert text[1].startswith("fold0,10,0.0,0.015625,")

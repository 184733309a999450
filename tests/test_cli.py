import csv
import hashlib
import io
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from gnssfp import capture_io as cio
from gnssfp import cli
from gnssfp import signal_sim as ss
from gnssfp.cli import (EXIT_ALARM, EXIT_DATA, EXIT_OK, EXIT_USAGE, ScenarioError,
                        build_parser, load_scenario, main)
from gnssfp.fingerprint_features import FeatureWindowConfig
from gnssfp.receiver_core import EPOCH_DTYPE
from helpers import build_stream, load_manifest, read_decisions_csv, stream_oracle

SCENARIO_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "scenarios")
SHIPPED = sorted(os.path.splitext(name)[0] for name in os.listdir(SCENARIO_DIR))

SIG_GEN = {"gain_asymmetry": 1.12, "filter_taps": [0.18, 0.64, 0.18],
           "phase_noise_std": 0.004}
SIG_SPOOF = {"gain_asymmetry": 0.88, "filter_taps": [0.02, 0.96, 0.02],
             "phase_noise_std": 0.03}


def tiny_scenario(attack=False, duration=4.0, prn=7, noise_seed=1):
    doc = {
        "duration": duration,
        "noise_seed": noise_seed,
        "satellites": [{"prn": prn, "doppler": 850.0, "code_phase0": 120.5,
                        "cn0": 47.0, "nav_seed": 2, "signature": SIG_GEN}],
        "pipeline": {"window_len": 40, "min_pos": 3, "min_neg": 3},
    }
    if attack:
        doc["attack"] = {"mode": "spoofing", "power": "over", "takeover_time": 0.0,
                         "seamless": False, "spoofer_signature": SIG_SPOOF,
                         "attack_seed": 9}
    return doc


def write_scenario(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def shortened_scenario(tmp_path, name, duration):
    """A shipped scenario cut to `duration`, its takeover keeping its share."""
    with open(os.path.join(SCENARIO_DIR, f"{name}.json"), encoding="utf-8") as f:
        doc = json.load(f)
    scale = duration / doc["duration"]
    doc["duration"] = duration
    if doc.get("attack"):
        doc["attack"]["takeover_time"] = doc["attack"].get("takeover_time", 0.0) * scale
    return write_scenario(tmp_path / f"{name}.json", doc)


def _save_cut_short(path, array):
    """Save `array` as .npy without its last byte."""
    np.save(path, array)
    with open(path, "r+b") as f:
        f.truncate(os.path.getsize(path) - 1)


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """simulate + track + extract for a genuine/spoofed pair, shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    paths = {}
    for name, attack, seed in [("genuine", False, 1), ("spoofed", True, 3)]:
        scen = write_scenario(root / f"{name}.json", tiny_scenario(attack, noise_seed=seed))
        out = root / name
        assert main(["simulate", "--scenario", scen, "--out", str(out)]) == EXIT_OK
        assert main(["track", "--capture", str(out / "capture.iq"), "--prn", "7",
                     "--out", str(out)]) == EXIT_OK
        assert main(["extract", "--epochs", str(out / "epochs_prn07.csv"),
                     "--out", str(out / "features.csv")]) == EXIT_OK
        paths[name] = out
    return root, paths


class TestScenarioLoading:
    def test_missing_required_field(self, tmp_path):
        path = write_scenario(tmp_path / "bad.json", {"satellites": []})
        with pytest.raises(ScenarioError, match="duration"):
            load_scenario(path)

    def test_field_path_in_error(self, tmp_path):
        doc = tiny_scenario()
        doc["satellites"][0]["cn0"] = 99.0
        path = write_scenario(tmp_path / "bad.json", doc)
        with pytest.raises(ScenarioError, match=r"satellites\[0\]"):
            load_scenario(path)

    def test_duplicate_prns(self, tmp_path):
        doc = tiny_scenario()
        doc["satellites"].append(dict(doc["satellites"][0]))
        path = write_scenario(tmp_path / "dup.json", doc)
        with pytest.raises(ScenarioError, match="duplicate"):
            load_scenario(path)

    @pytest.mark.parametrize("rate", [1e6, 2.0481e6])
    def test_bad_sample_rate_exits_before_output(self, tmp_path, rate):
        # 1 MHz is below 2 samples/chip; 2.0481 MHz gives 2048.1 samples per ms
        doc = tiny_scenario(duration=0.1)
        doc["sample_rate"] = rate
        scen = write_scenario(tmp_path / "rate.json", doc)
        with pytest.raises(ScenarioError, match="sample_rate"):
            load_scenario(scen)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", scen, "--out", str(out)]) == EXIT_USAGE
        assert not (out / "capture.iq").exists()

    @pytest.mark.parametrize("pipeline, field", [({"window_len": 2}, "window_len"),
                                                 ({"window_len": 0, "min_pos": 0,
                                                   "min_neg": 0}, "window_len"),
                                                 ({"min_neg": -1}, "min_neg")])
    def test_bad_pipeline_window_exits_before_output(self, tmp_path, capsys, pipeline, field):
        doc = tiny_scenario(duration=0.1)
        doc["pipeline"].update(pipeline)
        scen = write_scenario(tmp_path / "window.json", doc)
        with pytest.raises(ScenarioError, match=f"pipeline: .*{field}"):
            load_scenario(scen)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", scen, "--out", str(out)]) == EXIT_USAGE
        assert "pipeline" in capsys.readouterr().err
        assert not (out / "capture.iq").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: {**doc, "satellites": [5]}, r"satellites\[0\]: expected a JSON object"),
        (lambda doc: {**doc, "satellites": [{**doc["satellites"][0], "signature": None}]},
         r"satellites\[0\]\.signature: expected a JSON object"),
        (lambda doc: {**doc, "satellites": [{**doc["satellites"][0], "doppler": None}]},
         r"satellites\[0\]: float\(\) argument"),
        (lambda doc: {**doc, "multipath": [[0.5, 0.1]]}, r"multipath\[0\]: expected \[delay"),
        (lambda doc: {**doc, "multipath": [[0.5, 0.1, 0.0], 7]}, r"multipath\[1\]: expected"),
        (lambda doc: {**doc, "attack": [1]}, "attack: expected a JSON object"),
        (lambda doc: [doc], "scenario: expected a JSON object"),
        (lambda doc: {**doc, "satellites": 5}, "satellites: expected a JSON array"),
        (lambda doc: {**doc, "multipath": None}, "multipath: expected a JSON array"),
        (lambda doc: {**doc, "pipeline": None}, "pipeline: expected a JSON object"),
        (lambda doc: {**doc, "meta": None}, "meta: expected a JSON object"),
        (lambda doc: {**doc, "attack": {"mode": "spoofing", "targets": 7}},
         r"attack\.targets: expected a JSON array")],
        ids=["satellite_number", "signature_null", "doppler_null", "multipath_short",
             "multipath_number", "attack_list", "scenario_list", "satellites_number",
             "multipath_null", "pipeline_null", "meta_null", "targets_number"])
    def test_malformed_shape_exits_before_output(self, tmp_path, capsys, edit, message):
        scen = write_scenario(tmp_path / "shape.json", edit(tiny_scenario(duration=0.1)))
        with pytest.raises(ScenarioError, match=message):
            load_scenario(scen)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", scen, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "capture.iq").exists()

    def test_null_attack_is_no_attack(self, tmp_path):
        scen = write_scenario(tmp_path / "null.json", {**tiny_scenario(duration=0.1),
                                                       "attack": None})
        cfg = load_scenario(scen)
        assert cfg["attack"] is None and cfg["attack_targets"] is None
        assert main(["simulate", "--scenario", scen, "--out", str(tmp_path)]) == EXIT_OK
        assert load_manifest(tmp_path / "manifest.json").role == "genuine"

    def test_duplicate_prn_exits_before_output(self, tmp_path):
        doc = tiny_scenario()
        doc["satellites"].append(dict(doc["satellites"][0]))
        scen = write_scenario(tmp_path / "dup.json", doc)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", scen, "--out", str(out)]) == EXIT_USAGE
        assert not (out / "capture.iq").exists()


class TestSimulate:
    def test_capture_is_the_shared_stream(self, tmp_path):
        doc = tiny_scenario(attack=True, duration=0.3)
        doc["attack"].update(takeover_time=0.1, targets=[7, 12])
        doc["satellites"] += [
            {"prn": 3, "doppler": -1400.0, "code_phase0": 800.25, "cn0": 45.0,
             "nav_seed": 4, "signature": SIG_GEN},
            {"prn": 12, "doppler": 2100.0, "code_phase0": 33.0, "cn0": 46.0,
             "nav_seed": 5, "signature": SIG_GEN}]
        doc["multipath"] = [[0.0, 1.0, 0.0], [2e-6, 0.3, -0.1]]
        scen = write_scenario(tmp_path / "mix.json", doc)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", scen, "--out", str(out),
                     "--format", "float32"]) == EXIT_OK

        cfg = load_scenario(scen)
        stream = build_stream(cfg)
        explicit = ss.spoof_overlay(
            ss.apply_multipath(
                ss.synthesize_genuine(cfg["satellites"], cfg["sample_rate"], cfg["duration"],
                                      cfg["noise_seed"], cfg["noise_power"]),
                [(0.0, 1.0 + 0.0j), (2e-6, 0.3 - 0.1j)]),
            cfg["attack"], [s for s in cfg["satellites"] if s.prn in (7, 12)],
            cfg["noise_seed"], cfg["noise_power"])
        capture = cio.read_iq(out / "capture.iq")
        assert capture.samples.tobytes() == stream.samples.tobytes()
        assert explicit.samples.tobytes() == stream.samples.tobytes()
        runs = cio.load_label_runs(out / "labels.npy", len(stream.samples))
        assert ss.label_intervals(runs, cfg["sample_rate"]) == [(0.0, 0.1, "genuine"),
                                                                  (0.1, 0.3, "spoofed")]
        assert load_manifest(out / "manifest.json").multipath == "yes"

    def test_outputs_and_manifest(self, pipeline_dir):
        _, paths = pipeline_dir
        out = paths["spoofed"]
        manifest = load_manifest(out / "manifest.json")
        assert manifest.role == "spoofed"
        assert manifest.threat_model == "spoofing"
        assert manifest.power_status == "over-powered"
        assert (out / "capture.iq.meta.json").exists()
        assert (out / "labels.npy").exists()
        record = json.loads((out / "run_record_simulate.json").read_text())
        assert record["config_sha256"]

    @pytest.mark.parametrize("name", SHIPPED)
    def test_capture_matches_whole_array_oracle(self, tmp_path, monkeypatch, name):
        assert len(SHIPPED) == 20
        scen = shortened_scenario(tmp_path, name, 0.3)
        samples, labels = stream_oracle(load_scenario(scen))
        npy = io.BytesIO()
        np.save(npy, labels)
        for block in (2047, 3 * 2048 + 5, ss.BLOCK_SAMPLES):
            monkeypatch.setattr(ss, "BLOCK_SAMPLES", block)
            out = tmp_path / str(block)
            assert main(["simulate", "--scenario", scen, "--out", str(out)]) == EXIT_OK
            assert (out / "capture.iq").read_bytes() == samples.tobytes(), block
            assert (out / "labels.npy").read_bytes() == npy.getvalue(), block

    def test_overflow_in_a_later_block_leaves_no_files(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(ss, "BLOCK_SAMPLES", 4096)
        doc = tiny_scenario(attack=True, duration=8192 / 2.048e6)  # two blocks
        doc["noise_power"] = 1e-4
        doc["attack"].update(power="adjusted", adjusted_db=60.0,
                             takeover_time=5000 / 2.048e6)
        scen = write_scenario(tmp_path / "loud.json", doc)
        scaled = np.rint(build_stream(load_scenario(scen)).samples.view(np.float32)
                         * np.float32(32768))
        first = int(np.flatnonzero((scaled < -32768) | (scaled > 32767))[0]) // 2
        assert 4096 <= first < 8192  # only the second block overflows
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", scen, "--out", str(out),
                     "--format", "int16"]) == EXIT_DATA
        assert f"sample {first} (" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_memory_is_bounded_by_the_block(self, tmp_path):
        peaks = []
        for duration in (1.0, 4.0):
            scen = shortened_scenario(tmp_path, "replay_train_spoofed", duration)
            tracemalloc.start()
            try:
                assert main(["simulate", "--scenario", scen,
                             "--out", str(tmp_path / str(duration))]) == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks

    def test_track_and_detect_memory_is_bounded_by_the_block(self, tmp_path):
        peaks = {"track": [], "detect": []}
        for duration in (1.0, 4.0):
            scen = shortened_scenario(tmp_path, "replay_train_spoofed", duration)
            out = tmp_path / str(duration)
            assert main(["simulate", "--scenario", scen, "--out", str(out)]) == EXIT_OK
            capture = str(out / "capture.iq")
            track = ["track", "--capture", capture, "--prn", "13", "--out", str(out)]
            if duration == 1.0:  # a genuine-only profile from the short capture
                assert main(track) == EXIT_OK
                assert main(["extract", "--epochs", str(out / "epochs_prn13.csv"),
                             "--out", str(tmp_path / "features.csv")]) == EXIT_OK
                assert main(["train", "--genuine", str(tmp_path / "features.csv"),
                             "--out", str(tmp_path / "profile.json")]) == EXIT_OK
            detect = ["detect", "--capture", capture, "--prn", "13",
                      "--profile", str(tmp_path / "profile.json"),
                      "--labels", str(out / "labels.npy"), "--out", str(out / "detect")]
            for step, argv, codes in (("track", track, (EXIT_OK,)),
                                      ("detect", detect, (EXIT_OK, EXIT_ALARM))):
                tracemalloc.start()
                try:
                    assert main(argv) in codes
                    peaks[step].append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        # The tracker's output, one record per 1 ms epoch, is all that may grow
        # with the capture: 3,000 records more are about 9.5% of the 1 s peak
        # (2.7 MiB), where the decoded 4 s stream alone would be 62.5 MiB.
        records = 3000 * EPOCH_DTYPE.itemsize
        for step, (short, long) in peaks.items():
            assert abs(long - short) <= 0.1 * short + records, (step, peaks)

    def test_same_seed_same_bytes(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", tiny_scenario(duration=1.0))
        hashes = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["simulate", "--scenario", scen, "--out", str(out)]) == EXIT_OK
            hashes.append(hashlib.sha256((out / "capture.iq").read_bytes()).hexdigest())
        assert hashes[0] == hashes[1]


class TestTrainEvalDetect:
    def test_train_eval_separable(self, pipeline_dir, tmp_path):
        root, paths = pipeline_dir
        profile = tmp_path / "profile.json"
        assert main(["train",
                     "--genuine", str(paths["genuine"] / "features.csv"),
                     "--spoofed", str(paths["spoofed"] / "features.csv"),
                     "--out", str(profile)]) == EXIT_OK
        report_csv = tmp_path / "report.csv"
        assert main(["eval", "--profile", str(profile),
                     "--genuine", str(paths["genuine"] / "features.csv"),
                     "--spoofed", str(paths["spoofed"] / "features.csv"),
                     "--n", "1", "--out", str(report_csv)]) == EXIT_OK
        row = report_csv.read_text().splitlines()[1].split(",")
        assert float(row[2]) == 0.0 and float(row[3]) == 0.0  # fpr, fnr

    def test_detect_exit_codes(self, pipeline_dir, tmp_path):
        root, paths = pipeline_dir
        profile = tmp_path / "profile.json"
        main(["train", "--genuine", str(paths["genuine"] / "features.csv"),
              "--spoofed", str(paths["spoofed"] / "features.csv"),
              "--out", str(profile)])
        code = main(["detect", "--capture", str(paths["spoofed"] / "capture.iq"),
                     "--profile", str(profile), "--prn", "7",
                     "--labels", str(paths["spoofed"] / "labels.npy"),
                     "--out", str(tmp_path / "det_spoof")])
        assert code == EXIT_ALARM
        decisions = read_decisions_csv(tmp_path / "det_spoof" / "decisions.csv")
        assert decisions and all(d.decision == "malicious" for d in decisions)
        assert all(d.label == "spoofed" for d in decisions)

        code = main(["detect", "--capture", str(paths["genuine"] / "capture.iq"),
                     "--profile", str(profile), "--prn", "7",
                     "--out", str(tmp_path / "det_gen")])
        assert code == EXIT_OK

    def test_detect_without_labels_writes_unknown(self, pipeline_dir, tmp_path):
        _, paths = pipeline_dir
        profile = tmp_path / "profile.json"
        main(["train", "--genuine", str(paths["genuine"] / "features.csv"),
              "--out", str(profile)])
        assert main(["detect", "--capture", str(paths["spoofed"] / "capture.iq"),
                     "--profile", str(profile), "--prn", "7",
                     "--out", str(tmp_path / "det")]) == EXIT_ALARM
        decisions = read_decisions_csv(tmp_path / "det" / "decisions.csv")
        assert decisions and all(d.label == "unknown" for d in decisions)

    @pytest.mark.parametrize("labels, message", [
        (lambda n: np.zeros(n // 4, np.uint8), "uint8 array of 8192000 entries"),
        (lambda n: np.full(n, 7, np.uint8), "unknown label codes [7]"),
        (lambda n: np.zeros(n, np.float64), "got float64")],
        ids=["quarter_length", "code_7", "float64"])
    def test_bad_labels_file_is_data_error(self, pipeline_dir, tmp_path, capsys, labels,
                                           message):
        _, paths = pipeline_dir
        profile = tmp_path / "profile.json"
        main(["train", "--genuine", str(paths["genuine"] / "features.csv"),
              "--out", str(profile)])
        bad = tmp_path / "labels.npy"
        np.save(bad, labels(8192000))
        out = tmp_path / "det"
        assert main(["detect", "--capture", str(paths["spoofed"] / "capture.iq"),
                     "--profile", str(profile), "--prn", "7", "--labels", str(bad),
                     "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert message in err and str(bad) in err
        assert not (out / "decisions.csv").exists()

    @pytest.mark.parametrize("write, message", [
        (lambda path: np.save(path, np.zeros((2, 4096000), np.uint8)),
         r"got uint8 of shape (2, 4096000)"),
        (lambda path: path.write_text("0 1 2\n"), "not a labels .npy array"),
        (lambda path: _save_cut_short(path, np.zeros(8192000, np.uint8)),
         "the file ends after 8191999 of 8192000 entries")],
        ids=["two_dimensional", "text", "cut_short"])
    def test_labels_checked_without_decoding_the_capture(self, pipeline_dir, tmp_path, capsys,
                                                        write, message):
        _, paths = pipeline_dir
        profile = tmp_path / "profile.json"
        main(["train", "--genuine", str(paths["genuine"] / "features.csv"),
              "--out", str(profile)])
        bad = tmp_path / "labels.npy"
        write(bad)
        out = tmp_path / "det"
        assert main(["detect", "--capture", str(paths["spoofed"] / "capture.iq"),
                     "--profile", str(profile), "--prn", "7", "--labels", str(bad),
                     "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert message in err and str(bad) in err
        assert not (out / "decisions.csv").exists()

    def test_subcommands_do_not_mutate_inputs(self, pipeline_dir, tmp_path):
        _, paths = pipeline_dir
        capture = paths["genuine"] / "capture.iq"
        features = paths["genuine"] / "features.csv"
        before = (hashlib.sha256(capture.read_bytes()).hexdigest(),
                  hashlib.sha256(features.read_bytes()).hexdigest())
        main(["track", "--capture", str(capture), "--prn", "7",
              "--out", str(tmp_path / "retrack")])
        profile = tmp_path / "p.json"
        main(["train", "--genuine", str(features), "--out", str(profile)])
        after = (hashlib.sha256(capture.read_bytes()).hexdigest(),
                 hashlib.sha256(features.read_bytes()).hexdigest())
        assert before == after

    def test_xval_two_datasets(self, pipeline_dir, tmp_path):
        root, paths = pipeline_dir
        pair = f"{paths['genuine'] / 'features.csv'}:{paths['spoofed'] / 'features.csv'}"
        out = tmp_path / "xval.csv"
        assert main(["xval", "--dataset", pair, "--dataset", pair,
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + one row per fold

    def test_detect_from_epoch_csvs(self, pipeline_dir, tmp_path):
        root, paths = pipeline_dir
        profile = tmp_path / "profile.json"
        main(["train", "--genuine", str(paths["genuine"] / "features.csv"),
              "--spoofed", str(paths["spoofed"] / "features.csv"),
              "--out", str(profile)])
        code = main(["detect", "--epochs", str(paths["spoofed"] / "epochs_prn07.csv"),
                     "--profile", str(profile), "--out", str(tmp_path / "det_ep")])
        assert code == EXIT_ALARM
        decisions = read_decisions_csv(tmp_path / "det_ep" / "decisions.csv")
        assert decisions and all(d.prn == 7 for d in decisions)

    @pytest.mark.parametrize("command", ["track", "detect"])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, command, jobs):
        argv = [command, "--capture", str(tmp_path / "c.iq"), "--prn", "7",
                "--jobs", jobs, "--out", str(tmp_path)]
        if command == "detect":
            argv += ["--profile", str(tmp_path / "p.json")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [["eval", "--profile", "p.json", "--genuine", "g.csv",
                                       "--spoofed", "s.csv", "--n", "1", "0"],
                                      ["xval", "--dataset", "g.csv:s.csv", "--n-avg", "0"],
                                      ["train", "--genuine", "g.csv", "--out", "p.json",
                                       "--n-avg", "0"],
                                      ["train", "--genuine", "g.csv", "--out", "p.json",
                                       "--n-avg", "-2"]])
    def test_averaging_depth_below_one_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [
        ("extract", ["--window-len", "0", "--min-pos", "0", "--min-neg", "0"]),
        ("extract", ["--min-pos", "-1"]),
        ("extract", ["--window-len", "5"]),
        ("train", ["--window-len", "5"])])
    def test_bad_window_flags_are_usage_errors(self, pipeline_dir, tmp_path, capsys,
                                               command, flags):
        _, paths = pipeline_dir
        out = tmp_path / "out"
        if command == "extract":
            argv = ["extract", "--epochs", str(paths["genuine"] / "epochs_prn07.csv")]
        else:
            argv = ["train", "--genuine", str(paths["genuine"] / "features.csv")]
        assert main(argv + ["--out", str(out)] + flags) == EXIT_USAGE
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    def test_profile_missing_field_is_data_error(self, pipeline_dir, tmp_path, capsys):
        _, paths = pipeline_dir
        profile = tmp_path / "profile.json"
        main(["train", "--genuine", str(paths["genuine"] / "features.csv"),
              "--out", str(profile)])
        doc = json.loads(profile.read_text())
        del doc["sigma"]
        profile.write_text(json.dumps(doc))
        code = main(["detect", "--epochs", str(paths["genuine"] / "epochs_prn07.csv"),
                     "--profile", str(profile), "--out", str(tmp_path / "det")])
        assert code == EXIT_DATA
        assert "missing required field 'sigma'" in capsys.readouterr().err

    @pytest.mark.parametrize("window, field", [({"stride": 2}, "'stride'"),
                                               ({"window_len": "40"}, "'window_len'"),
                                               ({"min_pos": 3.0}, "'min_pos'"),
                                               ({"window_len": 0, "min_pos": 0,
                                                 "min_neg": 0}, "window_len must be >= 1"),
                                               ({"min_neg": -1}, "min_neg must be >= 0")])
    def test_bad_profile_window_is_data_error(self, pipeline_dir, tmp_path, capsys,
                                              window, field):
        _, paths = pipeline_dir
        profile = tmp_path / "profile.json"
        main(["train", "--genuine", str(paths["genuine"] / "features.csv"),
              "--out", str(profile)])
        doc = json.loads(profile.read_text())
        doc["window"].update(window)
        profile.write_text(json.dumps(doc))
        code = main(["detect", "--epochs", str(paths["genuine"] / "epochs_prn07.csv"),
                     "--profile", str(profile), "--out", str(tmp_path / "det")])
        assert code == EXIT_DATA
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [1, 2], "not a gnssfp-profile document"),
        (lambda doc: {**doc, "window": [40]}, "profile window must be a JSON object"),
        (lambda doc: {**doc, "n_avg": 0}, "n_avg must be >= 1, got 0")],
        ids=["top_level_list", "window_list", "n_avg_zero"])
    def test_malformed_profile_is_data_error(self, pipeline_dir, tmp_path, capsys, edit,
                                             message):
        _, paths = pipeline_dir
        profile = tmp_path / "profile.json"
        main(["train", "--genuine", str(paths["genuine"] / "features.csv"),
              "--out", str(profile)])
        profile.write_text(json.dumps(edit(json.loads(profile.read_text()))))
        code = main(["detect", "--epochs", str(paths["genuine"] / "epochs_prn07.csv"),
                     "--profile", str(profile), "--out", str(tmp_path / "det")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert message in err and str(profile) in err

    @pytest.mark.parametrize("extra", [["--labels", "missing.npy"], ["--capture", "c.iq"],
                                       ["--prn", "7"]])
    def test_detect_epochs_rejects_capture_flags(self, pipeline_dir, tmp_path, capsys,
                                                 extra):
        _, paths = pipeline_dir
        profile = tmp_path / "profile.json"
        main(["train", "--genuine", str(paths["genuine"] / "features.csv"),
              "--out", str(profile)])
        out = tmp_path / "det"
        code = main(["detect", "--epochs", str(paths["spoofed"] / "epochs_prn07.csv"),
                     "--profile", str(profile), "--out", str(out), *extra])
        assert code == EXIT_USAGE
        assert extra[0] in capsys.readouterr().err
        assert not (out / "decisions.csv").exists()

    def test_track_run_record_counts_lock_outcomes(self, pipeline_dir, tmp_path):
        _, paths = pipeline_dir
        assert main(["track", "--capture", str(paths["genuine"] / "capture.iq"),
                     "--prn", "7", "--prn", "8", "--out", str(tmp_path)]) == EXIT_OK
        record = json.loads((tmp_path / "run_record_track.json").read_text())
        assert record["prns"] == [7, 8]
        tracked, missing = record["channels"]
        epochs = cio.read_epochs_csv(tmp_path / "epochs_prn07.csv")
        assert tracked["prn"] == 7 and tracked["epochs"] == len(epochs) == 4000
        assert tracked["status"] == "completed" and tracked["peak_metric"] > 2.0
        outcomes = tracked["lock_outcomes"]
        assert set(outcomes) == {"pass", "fail_code", "fail_carrier", "fail_both"}
        code_ok = epochs.cn0_est >= 32.0
        carrier_ok = epochs.clt_est >= 0.5
        assert outcomes["pass"] == np.sum(code_ok & carrier_ok) > 0
        assert outcomes["fail_code"] == np.sum(~code_ok & carrier_ok)
        assert outcomes["fail_carrier"] == np.sum(code_ok & ~carrier_ok)
        assert outcomes["fail_both"] == np.sum(~code_ok & ~carrier_ok) >= 19  # warm-up
        assert missing["prn"] == 8 and missing["status"] == "not_acquired"
        assert missing["epochs"] == 0 and sum(missing["lock_outcomes"].values()) == 0
        # a noiseless acquisition's infinite metric is written as JSON null
        from gnssfp.cli import _channel_record
        from gnssfp.receiver_core import AcquisitionResult
        acq = AcquisitionResult(3, 0.0, 0.0, float("inf"), True)
        assert _channel_record(3, None, acq)["peak_metric"] is None

    def test_detect_run_record_matches_track(self, pipeline_dir, tmp_path):
        _, paths = pipeline_dir
        capture = str(paths["spoofed"] / "capture.iq")
        profile = tmp_path / "profile.json"
        main(["train", "--genuine", str(paths["genuine"] / "features.csv"),
              "--out", str(profile)])
        prns = ["--prn", "7", "--prn", "8"]
        assert main(["track", "--capture", capture, *prns,
                     "--out", str(tmp_path / "track")]) == EXIT_OK
        track = json.loads((tmp_path / "track" / "run_record_track.json").read_text())
        records = []
        for run in ("a", "b"):
            assert main(["detect", "--capture", capture, "--profile", str(profile), *prns,
                         "--out", str(tmp_path / run)]) == EXIT_ALARM
            records.append((tmp_path / run / "run_record_detect.json").read_text())
        assert records[0] == records[1]
        record = json.loads(records[0])
        assert record["subcommand"] == "detect" and record["capture"] == capture
        assert record["prns"] == [7, 8]
        assert record["channels"] == track["channels"]

        epochs = str(paths["spoofed"] / "epochs_prn07.csv")
        assert main(["detect", "--epochs", epochs, "--profile", str(profile),
                     "--out", str(tmp_path / "ep")]) == EXIT_ALARM
        record = json.loads((tmp_path / "ep" / "run_record_detect.json").read_text())
        assert record["capture"] is None and record["prns"] == [7]
        assert record["channels"] == [{**track["channels"][0], "status": "epoch_csv",
                                       "peak_metric": None}]

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == EXIT_USAGE

    def test_detect_requires_capture_or_epochs(self, tmp_path):
        rng_profile = tmp_path / "p.json"
        import numpy as np
        from gnssfp import mvn_model, spoof_detector
        model = mvn_model.fit(np.random.default_rng(0).normal(size=(40, 6)))
        cio.save_model(spoof_detector.DetectorProfile(model, -10.0), rng_profile)
        assert main(["detect", "--profile", str(rng_profile),
                     "--out", str(tmp_path)]) == EXIT_USAGE


# A data row's cells turned into a malformed row.
MALFORMED_ROWS = {"short_row": lambda cells: cells[:-1],
                  "extra_field": lambda cells: cells + ["0.0"],
                  "non_numeric": lambda cells: cells[:3] + ["abc"] + cells[4:]}


def _rewrite_csv(src, dst, edit_row=lambda cells: cells, quoting=csv.QUOTE_MINIMAL):
    """Copy the CSV `src` to `dst`, its second data row through `edit_row`."""
    with open(src, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    rows[2] = edit_row(rows[2])
    with open(dst, "w", newline="", encoding="utf-8") as f:
        csv.writer(f, quoting=quoting).writerows(rows)
    return str(dst)


class TestMalformedInputs:
    @pytest.fixture
    def profile(self, pipeline_dir, tmp_path):
        _, paths = pipeline_dir
        profile = str(tmp_path / "profile.json")
        assert main(["train", "--genuine", str(paths["genuine"] / "features.csv"),
                     "--spoofed", str(paths["spoofed"] / "features.csv"),
                     "--out", profile]) == EXIT_OK
        return profile

    @pytest.mark.parametrize("row", sorted(MALFORMED_ROWS))
    @pytest.mark.parametrize("command", ["extract", "detect", "train", "eval"])
    def test_malformed_table_row_is_data_error(self, pipeline_dir, profile, tmp_path, capsys,
                                               command, row):
        _, paths = pipeline_dir
        good = {"epoch": paths["spoofed"] / "epochs_prn07.csv",
                "feature": paths["spoofed"] / "features.csv"}
        kind = "epoch" if command in ("extract", "detect") else "feature"
        bad = _rewrite_csv(good[kind], tmp_path / f"bad_{good[kind].name}", MALFORMED_ROWS[row])
        out = str(tmp_path / "out")
        argv = {"extract": ["extract", "--epochs", bad, "--out", out],
                "detect": ["detect", "--epochs", bad, "--profile", profile, "--out", out],
                "train": ["train", "--genuine", bad, "--out", out],
                "eval": ["eval", "--profile", profile, "--genuine", str(good["feature"]),
                         "--spoofed", bad, "--n", "1", "--out", out]}[command]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{bad}: malformed {kind} CSV" in err
        # detect makes its output directory first, but writes no decisions
        assert not os.path.exists(os.path.join(out, "decisions.csv") if command == "detect"
                                  else out)

    def test_header_only_epoch_csv_reads_as_no_epochs(self, tmp_path):
        epochs = tmp_path / "epochs_prn07.csv"
        cio.write_epochs_csv(np.zeros(0, EPOCH_DTYPE), epochs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["extract", "--epochs", str(epochs),
                         "--out", str(tmp_path / "features.csv")]) == EXIT_OK
        assert cio.read_features_csv(tmp_path / "features.csv").shape == (0,)

    def test_quoted_cells_read_to_the_same_bits(self, pipeline_dir, tmp_path):
        _, paths = pipeline_dir
        (tmp_path / "quoted").mkdir()
        for name in ("epochs_prn07.csv", "features.csv"):
            _rewrite_csv(paths["genuine"] / name, tmp_path / "quoted" / name,
                         quoting=csv.QUOTE_ALL)
        quoted = cio.read_epochs_csv(tmp_path / "quoted" / "epochs_prn07.csv")
        assert quoted.tobytes() == cio.read_epochs_csv(
            paths["genuine"] / "epochs_prn07.csv").tobytes()
        quoted = cio.read_features_csv(tmp_path / "quoted" / "features.csv")
        assert quoted.tobytes() == cio.read_features_csv(
            paths["genuine"] / "features.csv").tobytes()
        assert main(["extract", "--epochs", str(tmp_path / "quoted" / "epochs_prn07.csv"),
                     "--out", str(tmp_path / "features.csv")]) == EXIT_OK
        assert ((tmp_path / "features.csv").read_bytes()
                == (paths["genuine"] / "features.csv").read_bytes())

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [doc], "capture sidecar must be a JSON object"),
        (lambda doc: {**doc, "gain": 2.0}, "unknown capture sidecar field 'gain'"),
        (lambda doc: {k: v for k, v in doc.items() if k != "sample_rate"}, "'sample_rate'"),
        (lambda doc: {**doc, "sample_rate": "2048000.0"}, "field 'sample_rate' is not float"),
        (lambda doc: {**doc, "sample_rate": True}, "field 'sample_rate' is not float"),
        (lambda doc: {**doc, "iq_swap": 0}, "field 'iq_swap' is not bool"),
        (lambda doc: {**doc, "t0": None}, "field 't0' is not float"),
        (lambda doc: {**doc, "sample_rate": -1.0}, "sample_rate must be positive"),
        (lambda doc: {**doc, "sample_rate": float("nan")}, "positive and finite"),
        (lambda doc: {**doc, "sample_rate": float("inf")}, "positive and finite")],
        ids=["list", "unknown_field", "no_sample_rate", "rate_string", "rate_bool",
             "swap_int", "t0_null", "rate_negative", "rate_nan", "rate_inf"])
    def test_malformed_sidecar_is_data_error(self, pipeline_dir, tmp_path, capsys, edit,
                                             message):
        _, paths = pipeline_dir
        capture = tmp_path / "capture.iq"
        os.symlink(paths["genuine"] / "capture.iq", capture)
        sidecar = paths["genuine"] / "capture.iq.meta.json"
        doc = edit(json.loads(sidecar.read_text()))
        (tmp_path / "capture.iq.meta.json").write_text(json.dumps(doc))
        assert main(["track", "--capture", str(capture), "--prn", "7",
                     "--out", str(tmp_path / "out")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert message in err and f"{capture}.meta.json" in err

    @pytest.mark.parametrize("command", ["track", "detect", "eval"])
    def test_truncated_json_is_data_error(self, pipeline_dir, profile, tmp_path, capsys,
                                          command):
        _, paths = pipeline_dir
        out = str(tmp_path / "out")
        features = str(paths["genuine"] / "features.csv")
        if command == "track":
            capture = tmp_path / "capture.iq"
            os.symlink(paths["genuine"] / "capture.iq", capture)
            broken, what = tmp_path / "capture.iq.meta.json", "capture sidecar"
            text = (paths["genuine"] / "capture.iq.meta.json").read_text()
        else:
            broken, what = tmp_path / "profile.json", "profile"
            text = broken.read_text()
        broken.write_text(text[:len(text) // 2])
        argv = {"track": ["track", "--capture", str(tmp_path / "capture.iq"), "--prn", "7"],
                "detect": ["detect", "--epochs", str(paths["genuine"] / "epochs_prn07.csv"),
                           "--profile", profile],
                "eval": ["eval", "--profile", profile, "--genuine", features,
                         "--spoofed", features]}[command]
        assert main(argv + ["--out", out]) == EXIT_DATA
        assert f"data error: {broken}: {what} is not valid JSON" in capsys.readouterr().err

    def test_sidecar_of_another_version_is_data_error(self, pipeline_dir, tmp_path, capsys):
        _, paths = pipeline_dir
        capture = tmp_path / "capture.iq"
        os.symlink(paths["genuine"] / "capture.iq", capture)
        doc = json.loads((paths["genuine"] / "capture.iq.meta.json").read_text())
        (tmp_path / "capture.iq.meta.json").write_text(json.dumps({**doc, "version": 2}))
        assert main(["track", "--capture", str(capture), "--prn", "7",
                     "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert "capture sidecar version 2 not supported" in capsys.readouterr().err


TAKEOVER_PRNS = ["3", "7", "11", "19"]


@pytest.fixture(scope="module")
def takeover_dir(tmp_path_factory, pipeline_dir):
    """A 0.5 s cut of the shipped 4-PRN takeover_attack and a genuine-only profile."""
    root = tmp_path_factory.mktemp("takeover")
    scen = shortened_scenario(root, "takeover_attack", 0.5)
    assert main(["simulate", "--scenario", scen, "--out", str(root)]) == EXIT_OK
    _, paths = pipeline_dir
    assert main(["train", "--genuine", str(paths["genuine"] / "features.csv"),
                 "--out", str(root / "profile.json")]) == EXIT_OK
    return root


def _prn_args(prns):
    return [arg for prn in prns for arg in ("--prn", prn)]


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made, counted in the calling process."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def _in_worker(parent_pid, prn, real, failure):
    """track_channel that fails with `failure()` for `prn`, in a worker only."""
    def track_channel(blocks, init):
        if init.prn == prn and os.getpid() != parent_pid:
            failure()
        return real(blocks, init)
    return track_channel


def _raise(exc):
    def failure():
        raise exc
    return failure


class TestParallelTracking:
    @pytest.fixture(autouse=True)
    def time_limit(self):
        """A join that never returns fails the test instead of hanging the suite."""
        def expire(signum, frame):
            raise TimeoutError("tracking did not finish within 120 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(120)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def test_jobs_give_identical_outputs(self, takeover_dir, tmp_path, monkeypatch, capsys,
                                         forks):
        # PRN 5 is not in the scenario; sorted and dealt round-robin it falls
        # in a worker's share for 2 and for 4 processes.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        capture = str(takeover_dir / "capture.iq")
        prns = _prn_args(["19", "3", "5", "11", "7"])
        outputs = {}
        out = tmp_path / "out"  # one directory, as stdout names the files
        for jobs in ("1", "2", "4"):
            shutil.rmtree(out, ignore_errors=True)
            del forks[:]
            track = main(["track", "--capture", capture, *prns, "--jobs", jobs,
                          "--out", str(out / "track")])
            detect = main(["detect", "--capture", capture, *prns, "--jobs", jobs,
                           "--profile", str(takeover_dir / "profile.json"),
                           "--labels", str(takeover_dir / "labels.npy"),
                           "--out", str(out / "detect")])
            files = {path.relative_to(out).as_posix(): path.read_bytes()
                     for path in sorted(out.rglob("*")) if path.is_file()}
            outputs[jobs] = (track, detect, files, capsys.readouterr(), len(forks))
        assert sorted(outputs["1"][2]) == [
            "detect/decisions.csv", "detect/run_record_detect.json",
            "detect/timing_report.json", "track/epochs_prn03.csv", "track/epochs_prn07.csv",
            "track/epochs_prn11.csv", "track/epochs_prn19.csv",
            "track/run_record_track.json"]
        assert outputs["1"][0] == EXIT_OK
        assert "PRN  5: not acquired" in outputs["1"][3].err
        assert [forks for *_, forks in outputs.values()] == [0, 2, 6]
        for jobs in ("2", "4"):
            assert outputs[jobs][:4] == outputs["1"][:4], jobs
        assert multiprocessing.active_children() == []

    def test_simulate_leaves_no_thread_before_track_forks(self, tmp_path, monkeypatch):
        # simulate draws noise ahead on a helper thread; a fork must not find it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        real_fork, threads_at_fork = os.fork, []

        def fork():
            threads_at_fork.append(threading.active_count())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        scen = shortened_scenario(tmp_path, "takeover_attack", 0.5)
        assert main(["simulate", "--scenario", scen, "--out", str(tmp_path)]) == EXIT_OK
        assert main(["track", "--capture", str(tmp_path / "capture.iq"),
                     *_prn_args(TAKEOVER_PRNS), "--jobs", "2",
                     "--out", str(tmp_path / "track")]) == EXIT_OK
        assert threads_at_fork == [1]

    def test_one_job_never_forks(self, takeover_dir, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        capture = str(takeover_dir / "capture.iq")
        assert main(["track", "--capture", capture, *_prn_args(TAKEOVER_PRNS), "--jobs", "1",
                     "--out", str(tmp_path / "one_job")]) == EXIT_OK
        # --jobs is capped by the usable CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(["track", "--capture", capture, *_prn_args(TAKEOVER_PRNS),
                     "--out", str(tmp_path / "one_cpu")]) == EXIT_OK
        assert len(list((tmp_path / "one_cpu").glob("epochs_prn*.csv"))) == 4

    def test_worker_error_is_a_data_error(self, takeover_dir, tmp_path, monkeypatch, capsys,
                                          forks):
        # two processes: PRNs 3 and 11 here, 7 and 19 in the worker
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(cli, "track_channel", _in_worker(
            os.getpid(), 7, cli.track_channel, _raise(ValueError("PRN 7 block is bad"))))
        code = main(["track", "--capture", str(takeover_dir / "capture.iq"),
                     *_prn_args(TAKEOVER_PRNS), "--jobs", "2", "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert "data error: PRN 7 block is bad" in capsys.readouterr().err
        assert len(forks) == 1 and multiprocessing.active_children() == []
        assert not list(tmp_path.glob("*"))

    def test_failure_in_this_process_leaves_no_worker(self, takeover_dir, tmp_path,
                                                      monkeypatch, capsys, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        real = cli.track_channel

        def failing_here(blocks, init):
            if init.prn == 3:
                raise ValueError("PRN 3 failed here")
            return real(blocks, init)

        monkeypatch.setattr(cli, "track_channel", failing_here)
        code = main(["detect", "--capture", str(takeover_dir / "capture.iq"),
                     *_prn_args(TAKEOVER_PRNS), "--jobs", "2",
                     "--profile", str(takeover_dir / "profile.json"), "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert "data error: PRN 3 failed here" in capsys.readouterr().err
        assert len(forks) == 1 and multiprocessing.active_children() == []

    def test_dead_worker_is_named_by_its_prns(self, takeover_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(cli, "track_channel", _in_worker(
            os.getpid(), 19, cli.track_channel, lambda: os._exit(9)))
        with pytest.raises(ChildProcessError, match=r"PRNs 7, 19 exited with code 9"):
            main(["track", "--capture", str(takeover_dir / "capture.iq"),
                  *_prn_args(TAKEOVER_PRNS), "--jobs", "2", "--out", str(tmp_path)])
        assert multiprocessing.active_children() == []


# subcommand -> (required flags with a sample value, full parsed namespace)
CLI_FLAGS = {
    "simulate": ({"--scenario": "s.json"},
                 {"scenario": "s.json", "out": ".", "id": None, "format": "float32"}),
    "track": ({"--capture": "c.iq", "--prn": "7"},
              {"capture": "c.iq", "prn": [7], "out": ".", "doppler_range": 5000.0,
               "doppler_bin": 250.0, "jobs": 4}),
    "extract": ({"--epochs": "e.csv", "--out": "f.csv"},
                {"epochs": ["e.csv"], "out": "f.csv", "window_len": 40, "min_pos": 3,
                 "min_neg": 3}),
    "train": ({"--genuine": "g.csv", "--out": "p.json"},
              {"genuine": ["g.csv"], "spoofed": None, "out": "p.json", "holdout": 0.3,
               "seed": 0, "n_avg": 1, "window_len": 40, "min_pos": 3, "min_neg": 3}),
    "eval": ({"--profile": "p.json", "--genuine": "g.csv", "--spoofed": "s.csv"},
             {"profile": "p.json", "genuine": ["g.csv"], "spoofed": ["s.csv"], "n": [1],
              "out": None}),
    "xval": ({"--dataset": "g.csv:s.csv"},
             {"dataset": ["g.csv:s.csv"], "holdout": 0.3, "seed": 0, "n_avg": 1,
              "out": None}),
    "detect": ({"--profile": "p.json"},
               {"capture": None, "profile": "p.json", "prn": None, "epochs": None,
                "labels": None, "out": ".", "doppler_range": 5000.0, "doppler_bin": 250.0,
                "jobs": 4}),
}


def test_parser_flags_and_defaults(monkeypatch):
    monkeypatch.delenv("GNSSFP_OUT_DIR", raising=False)
    parser = build_parser()
    for command, (required, expected) in CLI_FLAGS.items():
        argv = [command] + [arg for flag, value in required.items() for arg in (flag, value)]
        parsed = vars(parser.parse_args(argv))
        assert parsed.pop("command") == command
        assert parsed.pop("func").__name__ == f"cmd_{command}"
        assert parsed == expected, command
        for flag in required:
            partial = [arg for other, value in required.items() if other != flag
                       for arg in (other, value)]
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command] + partial)
            assert exc.value.code == EXIT_USAGE, (command, flag)


def test_window_defaults_are_the_dataclass_defaults(tmp_path):
    # the library default, a scenario without a pipeline block and the flags agree
    assert FeatureWindowConfig() == FeatureWindowConfig(window_len=40, min_pos=3, min_neg=3)
    doc = tiny_scenario(duration=0.1)
    del doc["pipeline"]
    scenario = load_scenario(write_scenario(tmp_path / "s.json", doc))
    assert scenario["window"] == FeatureWindowConfig()
    args = build_parser().parse_args(["extract", "--epochs", "e.csv", "--out", "f.csv"])
    assert cli._window_config(args) == FeatureWindowConfig()


def test_cli_imports_no_scipy():
    # The runtime needs numpy alone; scipy is a test oracle only.
    src = os.path.join(os.path.dirname(SCENARIO_DIR), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, gnssfp.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"

"""Workload definitions: seeded inputs, CLI steps and output checks.

A workload is a set-up (CLI steps whose outputs the timed part reads, run in
a process of its own and not timed as part of the workload), a timed part
(CLI steps run back to back by one closed-loop client) and verification
steps (CLI steps run once after the timed part, in a process of their own,
whose outputs only the checks read). Every step is an
argv for ``gnssfp.cli.main`` plus the exit code it must return, so the
benchmark depends only on the documented CLI flags and file formats.

Inputs are the shipped scenario files with their durations scaled down to
fit the run budget and their seeds offset by the workload seed.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

SAMPLE_RATE = 2.048e6  # the shipped scenarios' (default) sample rate
EPOCH_S = 1e-3  # tracking integration time: one epoch CSV row per ms
SEED_STRIDE = 1000  # seed offset per workload seed; shipped seeds are < 1000

TAKEOVER_PRNS = (3, 7, 11, 19)
REPLAY_PRN = 13
SUITE_PRN = 7
SUITE = [f"suite_d{d}_{role}" for d in range(1, 5) for role in ("genuine", "spoofed")]


def write_scenario(root: str, name: str, out_dir: str, duration: float, seed: int) -> str:
    """Copy scenarios/<name>.json scaled to `duration` with seeds offset by `seed`.

    The attack's takeover time keeps its share of the capture.
    """
    with open(os.path.join(root, "scenarios", f"{name}.json"), encoding="utf-8") as f:
        doc = json.load(f)
    offset = SEED_STRIDE * seed
    scale = duration / doc["duration"]
    doc["duration"] = duration
    doc["noise_seed"] = doc.get("noise_seed", 0) + offset
    for sat in doc["satellites"]:
        sat["nav_seed"] = sat.get("nav_seed", 0) + offset
    if doc.get("attack"):
        doc["attack"]["attack_seed"] = doc["attack"].get("attack_seed", 0) + offset
        doc["attack"]["takeover_time"] = doc["attack"].get("takeover_time", 0.0) * scale
    path = os.path.join(out_dir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
    return path


def stream_bytes(duration: float) -> int:
    """Bytes of one complex64 stream of `duration` seconds."""
    return int(round(duration * SAMPLE_RATE)) * 8


def _rows(path: str) -> int:
    with open(path, newline="", encoding="utf-8") as f:
        return sum(1 for _ in f) - 1


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _prn_args(prns) -> list[str]:
    return [arg for prn in prns for arg in ("--prn", str(prn))]


def _check_epochs(checks: list, path: str, duration: float) -> None:
    """The PRN was acquired and kept lock: one row per ms of capture."""
    expected = int(round(duration / EPOCH_S))
    if not os.path.exists(path):
        checks.append((f"{path}: PRN acquired", False))
        return
    rows = _rows(path)
    checks.append((f"{path}: {rows} epochs == {expected} (no loss of lock)", rows == expected))


def _quality(error: float, undetected_s: float) -> dict:
    """The per-layer detection-quality metrics, name -> (value, unit)."""
    return {"spoof_detector.detection_error": (error, "ratio"),
            "spoof_detector.undetected_spoof_s": (undetected_s, "s")}


def detection_error(decisions_csv: str) -> float:
    """Share of labelled decisions whose verdict contradicts ground truth."""
    rows = [r for r in _read_csv(decisions_csv) if r["label"] in ("genuine", "spoofed")]
    wrong = sum((r["label"] == "spoofed") == (r["decision"] == "authentic") for r in rows)
    return wrong / len(rows) if rows else 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    duration: float  # seconds of each capture
    channels: int  # captures/datasets x tracked PRNs carried through the timed part
    scenarios: tuple  # shipped scenario names the workload reads
    prns: tuple  # PRNs whose codes the timed process warms before timing
    setup: Callable[[str, str], list]  # (work dir, jobs) -> [(argv, expected exit)]
    timed: Callable[[str, str], list]
    verify: Callable[[str, str], list]  # untimed steps whose outputs the checks read
    outputs: Callable[[str], list]  # files whose bytes must repeat every iteration
    check: Callable[[str, float], list]  # (work dir, duration) -> [(what, ok)]
    quality: Callable[[str], dict]  # detection-quality metrics read from the outputs
    spans: tuple  # spans the traced run must contain


# -- takeover_4prn -----------------------------------------------------------

def _takeover_setup(w, jobs):
    g = os.path.join(w, "genuine")
    return [
        (["simulate", "--scenario", os.path.join(w, "takeover_genuine.json"), "--out", g], 0),
        (["track", "--capture", os.path.join(g, "capture.iq"), *_prn_args(TAKEOVER_PRNS),
          "--out", g, "--jobs", jobs], 0),
        (["extract", "--epochs", *[os.path.join(g, f"epochs_prn{p:02d}.csv")
                                   for p in TAKEOVER_PRNS],
          "--out", os.path.join(g, "features.csv")], 0),
        (["train", "--genuine", os.path.join(g, "features.csv"),
          "--out", os.path.join(w, "profile.json")], 0),
    ]


def _takeover_timed(w, jobs):
    a = os.path.join(w, "attack")
    return [
        (["simulate", "--scenario", os.path.join(w, "takeover_attack.json"), "--out", a], 0),
        (["detect", "--capture", os.path.join(a, "capture.iq"),
          "--profile", os.path.join(w, "profile.json"), *_prn_args(TAKEOVER_PRNS),
          "--labels", os.path.join(a, "labels.npy"), "--out", os.path.join(a, "detect"),
          "--jobs", jobs], 3),
    ]


def _takeover_verify(w, jobs):
    """Track the attack capture as detect does, to check lock from its epochs."""
    a = os.path.join(w, "attack")
    return [(["track", "--capture", os.path.join(a, "capture.iq"), *_prn_args(TAKEOVER_PRNS),
              "--out", os.path.join(a, "verify"), "--jobs", jobs], 0)]


def _takeover_outputs(w):
    a = os.path.join(w, "attack")
    return [os.path.join(a, "capture.iq"), os.path.join(a, "labels.npy"),
            os.path.join(a, "detect", "decisions.csv"),
            os.path.join(a, "detect", "timing_report.json")]


def _takeover_check(w, duration):
    checks = []
    for capture in ("genuine", os.path.join("attack", "verify")):
        for prn in TAKEOVER_PRNS:
            _check_epochs(checks, os.path.join(w, capture, f"epochs_prn{prn:02d}.csv"),
                          duration)
    det = os.path.join(w, "attack", "detect")
    decisions = _read_csv(os.path.join(det, "decisions.csv"))
    for prn in TAKEOVER_PRNS:
        t_end = max((float(r["t_end"]) for r in decisions if int(r["prn"]) == prn),
                    default=-1.0)
        # A coverage check only: about half of the feature windows are
        # dropped, so the last decision can end well before the capture does.
        checks.append((f"detect: PRN {prn} has decisions in the second half of the "
                       f"capture (last t_end {t_end:.3f} s)",
                       t_end >= duration - min(0.5, duration / 2)))
    checks.append(("detect: timing_report.json written",
                   os.path.exists(os.path.join(det, "timing_report.json"))))
    return checks


def _takeover_quality(w):
    det = os.path.join(w, "attack", "detect")
    with open(os.path.join(det, "timing_report.json"), encoding="utf-8") as f:
        undetected = float(json.load(f)["overall_continuous_spoof_s"])
    return _quality(detection_error(os.path.join(det, "decisions.csv")), undetected)


# -- replay_1prn -------------------------------------------------------------

def _replay_timed(w, jobs):
    r = os.path.join(w, "replay")
    return [
        (["simulate", "--scenario", os.path.join(w, "replay_train_spoofed.json"), "--out", r], 0),
        (["track", "--capture", os.path.join(r, "capture.iq"), "--prn", str(REPLAY_PRN),
          "--out", r, "--jobs", jobs], 0),
        (["extract", "--epochs", os.path.join(r, f"epochs_prn{REPLAY_PRN:02d}.csv"),
          "--out", os.path.join(r, "features.csv")], 0),
    ]


def _replay_outputs(w):
    r = os.path.join(w, "replay")
    return [os.path.join(r, "capture.iq"), os.path.join(r, f"epochs_prn{REPLAY_PRN:02d}.csv"),
            os.path.join(r, "features.csv")]


def _replay_check(w, duration):
    r = os.path.join(w, "replay")
    checks = []
    _check_epochs(checks, os.path.join(r, f"epochs_prn{REPLAY_PRN:02d}.csv"), duration)
    checks.append(("extract: features written", _rows(os.path.join(r, "features.csv")) > 0))
    return checks


# -- detector_sweep ----------------------------------------------------------

def _suite_epochs(w, name):
    return os.path.join(w, name, f"epochs_prn{SUITE_PRN:02d}.csv")


def _suite_features(w, name):
    return os.path.join(w, name, "features.csv")


def _sweep_setup(w, jobs):
    steps = []
    for name in SUITE:
        d = os.path.join(w, name)
        steps.append((["simulate", "--scenario", os.path.join(w, f"{name}.json"), "--out", d], 0))
        steps.append((["track", "--capture", os.path.join(d, "capture.iq"),
                       "--prn", str(SUITE_PRN), "--out", d, "--jobs", jobs], 0))
    return steps


def _sweep_timed(w, jobs):
    steps = [(["extract", "--epochs", _suite_epochs(w, name),
               "--out", _suite_features(w, name)], 0) for name in SUITE]
    train_g = [_suite_features(w, f"suite_d{d}_genuine") for d in range(1, 4)]
    train_s = [_suite_features(w, f"suite_d{d}_spoofed") for d in range(1, 4)]
    profile = os.path.join(w, "profile.json")
    steps += [
        (["train", "--genuine", *train_g, "--spoofed", *train_s, "--out", profile], 0),
        (["eval", "--profile", profile, "--genuine", _suite_features(w, "suite_d4_genuine"),
          "--spoofed", _suite_features(w, "suite_d4_spoofed"), "--n", "1", "10",
          "--out", os.path.join(w, "eval.csv")], 0),
        (["xval", *[arg for d in range(1, 5) for arg in (
            "--dataset", f"{_suite_features(w, f'suite_d{d}_genuine')}:"
                         f"{_suite_features(w, f'suite_d{d}_spoofed')}")],
          "--out", os.path.join(w, "xval.csv")], 0),
        (["detect", "--epochs", _suite_epochs(w, "suite_d4_spoofed"), "--profile", profile,
          "--out", os.path.join(w, "detect")], 3),
    ]
    return steps


def _sweep_outputs(w):
    return [_suite_features(w, name) for name in SUITE] + [
        os.path.join(w, "profile.json"), os.path.join(w, "eval.csv"),
        os.path.join(w, "xval.csv"), os.path.join(w, "detect", "decisions.csv")]


def _sweep_check(w, duration):
    checks = []
    for name in SUITE:
        _check_epochs(checks, _suite_epochs(w, name), duration)
        checks.append((f"extract: {name} features written",
                       _rows(_suite_features(w, name)) > 0))
    for fold in _read_csv(os.path.join(w, "xval.csv")):
        checks.append((f"xval fold {fold['dataset']}: FPR {fold['fpr']} FNR {fold['fnr']} == 0",
                       float(fold["fpr"]) == 0.0 and float(fold["fnr"]) == 0.0))
    return checks


def _sweep_quality(w):
    folds = _read_csv(os.path.join(w, "xval.csv"))
    wrong = sum(int(f["fp"]) + int(f["fn"]) for f in folds)
    total = sum(int(f[k]) for f in folds for k in ("tp", "fp", "tn", "fn"))
    return _quality(wrong / total if total else 0.0, 0.0)


_CAPTURE_SPANS = ("cli.cmd_simulate", "signal_sim.synthesize_genuine",
                  "signal_sim.spoof_overlay", "capture_io.write_iq", "capture_io.read_iq",
                  "receiver_core.acquire", "receiver_core.track_channel",
                  "fingerprint_features.extract_features")

WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="takeover_4prn",
        why="4-satellite synthesis with a non-seamless takeover overlay, then "
            "4-channel tracking and streaming detection with spoof timing",
        duration=1.0, channels=len(TAKEOVER_PRNS),
        scenarios=("takeover_genuine", "takeover_attack"), prns=TAKEOVER_PRNS,
        setup=_takeover_setup, timed=_takeover_timed, verify=_takeover_verify,
        outputs=_takeover_outputs,
        check=_takeover_check, quality=_takeover_quality,
        spans=_CAPTURE_SPANS + (
            "cli.cmd_detect", "capture_io.load_model", "capture_io.write_decisions_csv",
            "mvn_model.log_density", "spoof_detector.detect_stream",
            "spoof_detector.spoof_timing")),
    Workload(
        name="replay_1prn",
        why="memory-bound replay chain on one satellite plus the raw IQ and "
            "epoch CSV round trip; no multi-channel work, no re-synthesis",
        duration=5.0, channels=1,
        scenarios=("replay_train_spoofed",), prns=(REPLAY_PRN,),
        setup=lambda w, jobs: [], timed=_replay_timed, verify=lambda w, jobs: [],
        outputs=_replay_outputs,
        check=_replay_check, quality=lambda w: _quality(0.0, 0.0),
        spans=_CAPTURE_SPANS + (
            "cli.cmd_track", "cli.cmd_extract", "capture_io.write_epochs_csv",
            "capture_io.read_epochs_csv", "capture_io.write_features_csv")),
    Workload(
        name="detector_sweep",
        why="feature extraction, MVN training, evaluation, cross-validation and "
            "detection from epoch CSVs; bypasses synthesis and tracking",
        duration=1.5, channels=len(SUITE),
        scenarios=tuple(SUITE), prns=(),
        setup=_sweep_setup, timed=_sweep_timed, verify=lambda w, jobs: [],
        outputs=_sweep_outputs,
        check=_sweep_check, quality=_sweep_quality,
        spans=("cli.cmd_extract", "cli.cmd_train", "cli.cmd_eval", "cli.cmd_xval",
               "cli.cmd_detect", "capture_io.read_epochs_csv", "capture_io.write_features_csv",
               "capture_io.read_features_csv", "capture_io.write_decisions_csv",
               "fingerprint_features.extract_features", "mvn_model.fit",
               "mvn_model.log_density", "spoof_detector.train", "spoof_detector.evaluate",
               "spoof_detector.kfold_xval", "spoof_detector.detect_stream")),
)}

"""Command-line pipeline: simulate -> track -> extract -> train -> eval/detect.

Every stage reads and writes the documented file formats (raw IQ +
sidecar, epoch/feature/decision CSVs, JSON profiles and manifests), so any
step can be inspected or replaced. Runs are deterministic for a given
scenario file and seed; each output directory gets a reproducibility
record with the config hash. Exit codes: 0 success, 1 usage/config error,
2 data error, 3 detection alarm raised by `detect`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, capture_io, signal_sim, spoof_detector
from .capture_io import (CaptureMeta, DatasetManifest, FormatError,
                         load_model, load_window_config)
from .fingerprint_features import FeatureWindowConfig, extract_features, feature_matrix
from .receiver_core import (EPOCH_DTYPE, LOCK_FAIL_BOTH, LOCK_FAIL_CARRIER,
                            LOCK_FAIL_CODE, LOCK_PASS, TrackingConfig, TrackResult,
                            acquire, acquisition_samples, lock_masks, track_channel)
from .signal_sim import AttackConfig, HardwareSignature, IqStream, SatelliteScenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ALARM = 3

# Run-record status of a channel that `detect --epochs` read from an epoch CSV.
_EPOCH_CSV_STATUS = "epoch_csv"


class ScenarioError(ValueError):
    """Scenario config violates the documented schema; message carries the field path."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with EXIT_USAGE, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _get(doc: dict, key: str, path: str, required: bool = False, default=None):
    if key not in doc:
        if required:
            raise ScenarioError(f"{path}.{key}: missing required field")
        return default
    return doc[key]


def _signature_from(doc: dict, path: str) -> HardwareSignature:
    try:
        return HardwareSignature(
            gain_asymmetry=float(_get(doc, "gain_asymmetry", path, default=1.0)),
            filter_taps=tuple(_get(doc, "filter_taps", path, default=(1.0,))),
            phase_noise_std=float(_get(doc, "phase_noise_std", path, default=0.0)))
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def load_scenario(path: str) -> dict:
    """Parse and validate a scenario config file into ready-to-run objects."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)

    sats = []
    for i, sat in enumerate(_get(doc, "satellites", "scenario", required=True)):
        spath = f"satellites[{i}]"
        try:
            sats.append(SatelliteScenario(
                prn=int(_get(sat, "prn", spath, required=True)),
                doppler=float(_get(sat, "doppler", spath, default=0.0)),
                code_phase0=float(_get(sat, "code_phase0", spath, default=0.0)),
                carrier_phase0=float(_get(sat, "carrier_phase0", spath, default=0.0)),
                cn0=float(_get(sat, "cn0", spath, default=45.0)),
                nav_seed=int(_get(sat, "nav_seed", spath, default=0)),
                signature=_signature_from(sat.get("signature", {}), f"{spath}.signature")))
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"{spath}: {exc}") from exc
    prns = [s.prn for s in sats]
    if len(set(prns)) != len(prns):
        raise ScenarioError(f"satellites: duplicate PRNs {sorted(prns)}")

    attack = None
    if doc.get("attack"):
        a = doc["attack"]
        try:
            attack = AttackConfig(
                mode=_get(a, "mode", "attack", required=True),
                power=_get(a, "power", "attack", default="matched"),
                adjusted_db=float(_get(a, "adjusted_db", "attack", default=0.0)),
                takeover_time=float(_get(a, "takeover_time", "attack", default=0.0)),
                seamless=bool(_get(a, "seamless", "attack", default=False)),
                spoofer_signature=_signature_from(a.get("spoofer_signature", {}),
                                                  "attack.spoofer_signature"),
                attack_seed=int(_get(a, "attack_seed", "attack", default=0)))
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"attack: {exc}") from exc

    pipeline = doc.get("pipeline", {})
    try:
        window = FeatureWindowConfig(
            window_len=int(pipeline.get("window_len", 40)),
            min_pos=int(pipeline.get("min_pos", 3)),
            min_neg=int(pipeline.get("min_neg", 3)))
    except ValueError as exc:
        raise ScenarioError(f"pipeline: {exc}") from exc

    sample_rate = float(doc.get("sample_rate", signal_sim.DEFAULT_SAMPLE_RATE))
    try:
        signal_sim.samples_per_epoch(sample_rate)
    except ValueError as exc:
        raise ScenarioError(f"scenario.sample_rate: {exc}") from exc

    return {
        "sample_rate": sample_rate,
        "duration": float(_get(doc, "duration", "scenario", required=True)),
        "noise_seed": int(doc.get("noise_seed", 0)),
        "noise_power": float(doc.get("noise_power", 1.0)),
        "add_noise": bool(doc.get("add_noise", True)),
        "satellites": sats,
        "attack": attack,
        "attack_targets": doc.get("attack", {}).get("targets"),
        "multipath": [(float(d), complex(g_re, g_im))
                      for d, g_re, g_im in doc.get("multipath", [])],
        "window": window,
        "meta": doc.get("meta", {}),
    }


def _stream_blocks(cfg: dict):
    """A loaded scenario's stream in consecutive blocks: genuine signals, then
    multipath, then the attack on the satellites named in `attack.targets`
    (all when unnamed)."""
    targets = cfg["satellites"]
    if cfg["attack_targets"]:
        wanted = set(cfg["attack_targets"])
        targets = [s for s in targets if s.prn in wanted]
    return signal_sim.stream_blocks(cfg["satellites"], cfg["sample_rate"], cfg["duration"],
                                    cfg["noise_seed"], cfg["noise_power"], cfg["add_noise"],
                                    cfg["multipath"], cfg["attack"], targets)


def build_stream(cfg: dict) -> IqStream:
    """Synthesize a loaded scenario whole: the blocks of `simulate`, joined."""
    n = signal_sim.sample_count(cfg["sample_rate"], cfg["duration"])
    samples = np.empty(n, dtype=np.complex64)
    i = 0
    for block in _stream_blocks(cfg):
        samples[i:i + len(block.samples)] = block.samples
        i += len(block.samples)
    return IqStream(samples, cfg["sample_rate"])


def _write_run_record(out_dir: str, subcommand: str, config_bytes: bytes | None,
                      extra: dict) -> None:
    record = {
        "subcommand": subcommand,
        "package_version": __version__,
        "config_sha256": hashlib.sha256(config_bytes).hexdigest() if config_bytes else None,
        **extra,
    }
    with open(os.path.join(out_dir, f"run_record_{subcommand}.json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_simulate(args) -> int:
    with open(args.scenario, "rb") as f:
        config_bytes = f.read()
    cfg = load_scenario(args.scenario)
    os.makedirs(args.out, exist_ok=True)

    # One block in memory at a time, from synthesis to the files.
    capture_path = os.path.join(args.out, "capture.iq")
    meta = CaptureMeta(sample_rate=cfg["sample_rate"], sample_format=args.format,
                       t0=0.0, notes=f"synthesized from {os.path.basename(args.scenario)}")
    n = signal_sim.sample_count(cfg["sample_rate"], cfg["duration"])
    runs = signal_sim.label_runs(cfg["attack"], cfg["sample_rate"], n)
    with capture_io.CaptureWriter(capture_path, meta, os.path.join(args.out, "labels.npy"),
                                  runs) as writer:
        for block in _stream_blocks(cfg):
            writer.write(block)

    m = cfg["meta"]
    attack = cfg["attack"]
    manifest = DatasetManifest(
        id=args.id or os.path.splitext(os.path.basename(args.scenario))[0],
        role="spoofed" if attack is not None else "genuine",
        capture_path="capture.iq",
        scenario_path=os.path.basename(args.scenario),
        spoofing_type=m.get("spoofing_type", "both") if attack else "",
        threat_model=attack.mode if attack else "",
        power_status=(f"{attack.power}-powered" if attack and attack.power != "adjusted"
                      else "adjusted-power" if attack else ""),
        multipath="yes" if cfg["multipath"] else "no",
        duration_s=cfg["duration"],
        location=m.get("location", "synthetic"))
    capture_io.save_manifest(manifest, os.path.join(args.out, "manifest.json"))
    _write_run_record(args.out, "simulate", config_bytes,
                      {"noise_seed": cfg["noise_seed"]})
    print(f"wrote {capture_path} ({n} samples at "
          f"{cfg['sample_rate']:.0f} Hz), manifest, labels")
    return EXIT_OK


def _track_prns(capture: str, meta: CaptureMeta, args, trk_cfg: TrackingConfig) -> list:
    """Acquire and track each requested PRN of a capture, `args.jobs` processes at most.

    Every PRN is acquired on the one head of the capture that `acquire`
    reads and tracked from its own pass of block reads, so memory holds a
    block of the capture, never the whole of it. The sorted PRNs are dealt
    round-robin into one share per process, capped by the PRNs and the
    usable CPUs: this process tracks the first share and a forked worker
    each other one, sending back its results. Returns (prn, TrackResult or
    None when not acquired, AcquisitionResult) in ascending PRN order.
    """
    head = capture_io.read_iq(capture, meta, count=acquisition_samples(meta.sample_rate))
    prns = sorted(set(args.prn))
    n = min(args.jobs, len(prns), len(os.sched_getaffinity(0)))
    shares = [prns[i::n] for i in range(n)]
    workers = []
    try:
        if n > 1:
            import multiprocessing
            ctx = multiprocessing.get_context("fork")
            for share in shares[1:]:
                receiver, sender = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_share_worker, daemon=True,
                                   args=(sender, capture, meta, head, share, args, trk_cfg))
                proc.start()
                sender.close()  # so a worker that dies leaves the receiver at EOF
                workers.append((proc, receiver, share))
        results = _track_share(capture, meta, head, shares[0], args, trk_cfg)
        for proc, receiver, share in workers:
            results += _share_results(proc, receiver, share)
    except BaseException:
        for proc, _, _ in workers:
            proc.terminate()  # its results would go unread
        raise
    finally:
        for proc, receiver, _ in workers:
            proc.join()
            receiver.close()
    return sorted(results, key=lambda result: result[0])


def _track_share(capture: str, meta: CaptureMeta, head: IqStream, prns: list, args,
                 trk_cfg: TrackingConfig) -> list:
    """Acquire each PRN of one share on the head and track it from the capture."""
    results = []
    for prn in prns:
        acq = acquire(head, prn, doppler_range=args.doppler_range,
                      doppler_bin=args.doppler_bin)
        track = (track_channel(capture_io.iq_blocks(capture, meta), acq, trk_cfg)
                 if acq.acquired else None)
        results.append((prn, track, acq))
    return results


def _share_worker(sender, *track_args) -> None:
    """Body of a forked worker: `_track_share(*track_args)`, whose results,
    or the exception that stopped it, go back through `sender`."""
    try:
        reply = (True, _track_share(*track_args))
    except Exception as exc:
        reply = (False, exc)
    sender.send(reply)
    sender.close()


def _share_results(proc, receiver, share: list) -> list:
    """The results a worker sent back; re-raises the worker's exception."""
    try:
        ok, payload = receiver.recv()
    except EOFError:
        proc.join()
        raise ChildProcessError(
            f"the worker tracking PRNs {', '.join(map(str, share))} exited with code "
            f"{proc.exitcode} before sending its results") from None
    if not ok:
        raise payload
    return payload


def _channel_record(prn: int, track, acq) -> dict:
    """Run-record entry of one requested PRN. The peak metric is null when
    infinite or, for epochs read from a CSV (no `acq`), unknown."""
    epochs = track.epochs if track else np.zeros(0, dtype=EPOCH_DTYPE)
    code_ok, carrier_ok = lock_masks(epochs, TrackingConfig())
    return {"prn": prn, "epochs": len(epochs),
            "status": track.status if track else "not_acquired",
            "peak_metric": (acq.peak_metric if acq and np.isfinite(acq.peak_metric)
                            else None),
            "lock_outcomes": {LOCK_PASS: int(np.sum(code_ok & carrier_ok)),
                              LOCK_FAIL_CODE: int(np.sum(~code_ok & carrier_ok)),
                              LOCK_FAIL_CARRIER: int(np.sum(code_ok & ~carrier_ok)),
                              LOCK_FAIL_BOTH: int(np.sum(~code_ok & ~carrier_ok))}}


def _channels_record(capture, results) -> dict:
    """Run-record fields of `track` and `detect`: the capture, the requested
    PRNs and one `_channel_record` per PRN."""
    return {"capture": capture, "prns": [prn for prn, _, _ in results],
            "channels": [_channel_record(*result) for result in results]}


def cmd_track(args) -> int:
    meta = capture_io.read_meta(args.capture)
    os.makedirs(args.out, exist_ok=True)
    results = _track_prns(args.capture, meta, args, TrackingConfig())

    any_tracked = False
    for prn, track, acq_result in results:
        if track is None:
            print(f"PRN {prn:2d}: not acquired (peak metric "
                  f"{acq_result.peak_metric:.2f})", file=sys.stderr)
            continue
        path = os.path.join(args.out, f"epochs_prn{prn:02d}.csv")
        capture_io.write_epochs_csv(track.epochs, path)
        print(f"PRN {prn:2d}: {len(track.epochs)} epochs, {track.status}, "
              f"doppler {acq_result.doppler:+.1f} Hz -> {path}")
        any_tracked = True
    _write_run_record(args.out, "track", None, _channels_record(args.capture, results))
    return EXIT_OK if any_tracked else EXIT_DATA


_EPOCH_FILE_RE = re.compile(r"prn(\d+)")


def _epoch_file_prn(path: str) -> int:
    """PRN named by an epoch CSV's file name (`epochs_prn07.csv`), else 0."""
    match = _EPOCH_FILE_RE.search(os.path.basename(path))
    return int(match.group(1)) if match else 0


def _window_config(args) -> FeatureWindowConfig:
    try:
        return FeatureWindowConfig(window_len=args.window_len, min_pos=args.min_pos,
                                   min_neg=args.min_neg)
    except ValueError as exc:
        raise ScenarioError(f"--window-len {args.window_len} --min-pos {args.min_pos} "
                            f"--min-neg {args.min_neg}: {exc}") from exc


def cmd_extract(args) -> int:
    window = _window_config(args)
    trk_cfg = TrackingConfig()
    parts = []
    for path in args.epochs:
        epochs = capture_io.read_epochs_csv(path)
        feats = extract_features(epochs, window, trk_cfg, prn=_epoch_file_prn(path))
        print(f"{path}: {len(epochs)} epochs -> {len(feats)} sample points")
        parts.append(feats)
    all_features = np.concatenate(parts)
    capture_io.write_features_csv(all_features, args.out)
    print(f"wrote {len(all_features)} sample points -> {args.out}")
    return EXIT_OK


def _feature_matrix(paths) -> np.ndarray:
    return feature_matrix(np.concatenate([capture_io.read_features_csv(p) for p in paths]))


def cmd_train(args) -> int:
    window = _window_config(args)
    genuine = _feature_matrix(args.genuine)
    spoofed = _feature_matrix(args.spoofed) if args.spoofed else None
    profile = spoof_detector.train(genuine, spoofed, holdout_fraction=args.holdout,
                                   seed=args.seed, n_avg=args.n_avg,
                                   trained_on=tuple(args.genuine + (args.spoofed or [])))
    capture_io.save_model(profile, args.out, window=window,
                          provenance={"genuine": args.genuine,
                                      "spoofed": args.spoofed or []})
    print(f"trained on {genuine.shape[0]} genuine"
          + (f" / {spoofed.shape[0]} spoofed" if spoofed is not None else "")
          + f"; EER {profile.train_eer:.4f}, log threshold {profile.log_threshold:.3f}"
          + f" -> {args.out}")
    return EXIT_OK


def _report(names, reports, out) -> None:
    """Print the report table and, when `out` is set, write the report CSV."""
    print(f"{'dataset':<24} {'n':>6} {'FPR':>8} {'FNR':>8} {'EER':>8} {'threshold':>12}")
    for name, r in zip(names, reports):
        print(f"{name:<24} {r.n_avg:>6d} {r.fpr:>8.4f} {r.fnr:>8.4f} "
              f"{r.eer:>8.4f} {r.threshold:>12.3f}")
    if out:
        capture_io.write_reports_csv(reports, out, names)
        print(f"wrote {out}")


def cmd_eval(args) -> int:
    profile = load_model(args.profile)
    genuine = spoof_detector.score_features(_feature_matrix(args.genuine), profile.model)
    spoofed = spoof_detector.score_features(_feature_matrix(args.spoofed), profile.model)
    reports = [spoof_detector.evaluate(genuine, spoofed, profile, n_avg=n) for n in args.n]
    _report(["eval"] * len(reports), reports, args.out)
    return EXIT_OK


def cmd_xval(args) -> int:
    datasets, names = [], []
    for pair in args.dataset:
        try:
            g_path, s_path = pair.split(":")
        except ValueError:
            raise ScenarioError(f"--dataset expects GENUINE.csv:SPOOFED.csv, got {pair!r}")
        datasets.append((_feature_matrix([g_path]), _feature_matrix([s_path])))
        names.append(os.path.splitext(os.path.basename(g_path))[0])
    reports = spoof_detector.kfold_xval(datasets, holdout_fraction=args.holdout,
                                        seed=args.seed, n_avg=args.n_avg)
    _report(names, reports, args.out)
    return EXIT_OK


def cmd_detect(args) -> int:
    capture_flags = [flag for flag, value in (("--capture", args.capture), ("--prn", args.prn),
                                              ("--labels", args.labels)) if value]
    if args.epochs and capture_flags:
        raise ScenarioError(f"detect --epochs cannot be combined with {', '.join(capture_flags)}")
    if not args.epochs and not (args.capture and args.prn):
        raise ScenarioError("detect needs --capture with --prn, or --epochs")
    profile = load_model(args.profile)
    window = load_window_config(args.profile)
    trk_cfg = TrackingConfig()
    os.makedirs(args.out, exist_ok=True)

    label_ivs = []  # without --labels every decision's label stays "unknown"
    if args.epochs:
        results = []
        for path in args.epochs:
            prn = _epoch_file_prn(path)
            epochs = capture_io.read_epochs_csv(path)
            results.append((prn, TrackResult(prn, _EPOCH_CSV_STATUS, epochs), None))
    else:
        meta = capture_io.read_meta(args.capture)
        if args.labels:
            runs = capture_io.load_label_runs(args.labels,
                                              capture_io.capture_length(args.capture, meta))
            label_ivs = signal_sim.label_intervals(runs, meta.sample_rate, meta.t0)
        results = _track_prns(args.capture, meta, args, trk_cfg)
    _write_run_record(args.out, "detect", None, _channels_record(args.capture, results))

    decisions_by_prn = {}
    for prn, track, _ in results:
        if track is None:
            print(f"PRN {prn:2d}: not acquired", file=sys.stderr)
            continue
        decisions_by_prn[prn] = spoof_detector.annotate_decisions(
            spoof_detector.detect_stream(track.epochs, profile, window, trk_cfg, prn=prn),
            label_ivs)

    all_decisions = sorted((d for ds in decisions_by_prn.values() for d in ds),
                           key=lambda d: (d.t_start, d.prn))
    capture_io.write_decisions_csv(all_decisions, os.path.join(args.out, "decisions.csv"))
    n_mal = sum(d.decision == spoof_detector.DECISION_MALICIOUS for d in all_decisions)
    print(f"{len(all_decisions)} decisions, {n_mal} malicious "
          f"-> {os.path.join(args.out, 'decisions.csv')}")

    if label_ivs and len(decisions_by_prn) >= 4:
        sets = spoof_detector.prn_sets(list(decisions_by_prn))
        timing = spoof_detector.spoof_timing(decisions_by_prn, label_ivs, sets)
        with open(os.path.join(args.out, "timing_report.json"), "w",
                  encoding="utf-8") as f:
            json.dump(asdict(timing), f, indent=2)
            f.write("\n")
        print(f"spoof timing over {len(sets)} PRN-sets: overall "
              f"{timing.overall_continuous_spoof_s:.1f} s undetected")
    return EXIT_ALARM if n_mal else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gnssfp",
        description="GPS spoofing detection by fingerprinting EPL correlator outputs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    default_out = os.environ.get("GNSSFP_OUT_DIR", ".")

    # Flags shared by several subcommands.
    acquisition = argparse.ArgumentParser(add_help=False)
    acquisition.add_argument("--doppler-range", type=float, default=5000.0)
    acquisition.add_argument("--doppler-bin", type=float, default=250.0)
    acquisition.add_argument(
        "--jobs", type=_positive_int, default=4,
        help="processes that track the PRNs, capped by the number of PRNs and "
             "the usable CPUs; 1 tracks them all in this process")
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--window-len", type=int, default=40)
    window.add_argument("--min-pos", type=int, default=3)
    window.add_argument("--min-neg", type=int, default=3)
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--holdout", type=float, default=0.3)
    training.add_argument("--seed", type=int, default=0)
    training.add_argument("--n-avg", type=_positive_int, default=1)

    p = sub.add_parser("simulate", help="synthesize a capture from a scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=default_out)
    p.add_argument("--id", default=None, help="dataset id for the manifest")
    p.add_argument("--format", default="float32", choices=["int8", "int16", "float32"])
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("track", parents=[acquisition],
                       help="acquire and track PRNs in a capture")
    p.add_argument("--capture", required=True)
    p.add_argument("--prn", type=int, action="append", required=True)
    p.add_argument("--out", default=default_out)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("extract", parents=[window],
                       help="extract fingerprint features from epoch CSVs")
    p.add_argument("--epochs", nargs="+", required=True)
    p.add_argument("--out", required=True, help="output feature CSV")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", parents=[training, window],
                       help="fit the genuine model and EER threshold")
    p.add_argument("--genuine", nargs="+", required=True)
    p.add_argument("--spoofed", nargs="*", default=None)
    p.add_argument("--out", required=True, help="output profile JSON")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="apply a profile to labeled feature sets")
    p.add_argument("--profile", required=True)
    p.add_argument("--genuine", nargs="+", required=True)
    p.add_argument("--spoofed", nargs="+", required=True)
    p.add_argument("--n", type=_positive_int, nargs="+", default=[1])
    p.add_argument("--out", default=None, help="optional report CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("xval", parents=[training],
                       help="leave-one-dataset-out cross-validation")
    p.add_argument("--dataset", action="append", required=True,
                   metavar="GENUINE.csv:SPOOFED.csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_xval)

    p = sub.add_parser("detect", parents=[acquisition],
                       help="run streaming detection over a capture")
    p.add_argument("--capture", default=None)
    p.add_argument("--profile", required=True)
    p.add_argument("--prn", type=int, action="append", default=None)
    p.add_argument("--epochs", nargs="*", default=None,
                   help="detect from already-tracked epoch CSVs instead of a capture")
    p.add_argument("--labels", default=None, help="ground-truth labels .npy")
    p.add_argument("--out", default=default_out)
    p.set_defaults(func=cmd_detect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the heavyweight synthetic datasets are built once per session from
the shipped scenario files under scenarios/.
"""

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import helpers
from gnssfp import capture_io as cio
from gnssfp import mvn_model
from gnssfp import receiver_core as rc
from gnssfp import signal_sim as ss
from gnssfp import spoof_detector as sd
from gnssfp.cli import load_scenario
from gnssfp.prn_codes import CODE_LENGTH, generate_ca_code
from gnssfp.signal_sim import IqStream

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _ok(criterion, detail):
    print(f"\n[criterion {criterion}] PASS: {detail}")


# --------------------------------------------------------------------- 1


def test_criterion_01_gold_code_suite():
    t0 = time.perf_counter()
    codes = {prn: generate_ca_code(prn).chips.astype(np.int64) for prn in range(1, 33)}
    for prn, chips in codes.items():
        assert helpers.oracle_circcorr(chips, chips)[0] == CODE_LENGTH, prn
        assert abs(int(chips.sum())) == 1, prn
    allowed = {-65, -1, 63}
    for a in range(1, 33):
        for b in range(a + 1, 33):
            cross = helpers.oracle_circcorr(codes[a], codes[b])
            assert set(np.unique(cross)) <= allowed, (a, b)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(1, f"32 codes, 496 pairs three-valued in {elapsed:.1f} s")


# --------------------------------------------------------------------- 2


def test_criterion_02_mvn_analytics():
    k6 = mvn_model.MvnModel(mu=np.zeros(6), sigma=np.eye(6), k=6,
                            sigma_inv=np.eye(6),
                            log_norm_const=float(-3 * np.log(2 * np.pi)))
    assert helpers.density(np.zeros(6), k6) == pytest.approx((2 * np.pi) ** -3,
                                                             rel=1e-12)

    m1 = mvn_model.MvnModel(mu=np.array([0.3]), sigma=np.array([[2.2]]), k=1,
                            sigma_inv=np.array([[1 / 2.2]]),
                            log_norm_const=float(-0.5 * np.log(2 * np.pi * 2.2)))
    sd1 = np.sqrt(2.2)
    total1, _ = integrate.quad(lambda x: helpers.density([x], m1),
                               0.3 - 8 * sd1, 0.3 + 8 * sd1)
    assert total1 == pytest.approx(1.0, abs=1e-6)

    sigma2 = np.array([[1.5, 0.4], [0.4, 0.8]])
    chol = np.linalg.cholesky(sigma2)
    m2 = mvn_model.MvnModel(mu=np.zeros(2), sigma=sigma2, k=2,
                            sigma_inv=np.linalg.inv(sigma2),
                            log_norm_const=float(-0.5 * (2 * np.log(2 * np.pi)
                                                         + 2 * np.sum(np.log(np.diag(chol))))))
    lim = 8 * np.sqrt(sigma2.max())
    total2, _ = integrate.dblquad(lambda y, x: helpers.density([x, y], m2),
                                  -lim, lim, -lim, lim, epsabs=1e-9)
    assert total2 == pytest.approx(1.0, abs=1e-6)

    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(100):
        x = rng.normal(size=6) * 2
        d = helpers.density(x, k6)
        if d > 1e-300:
            assert np.exp(mvn_model.log_density(x, k6)) == pytest.approx(d, rel=1e-12)
            checked += 1
    assert checked > 50
    _ok(2, f"mode density (2pi)^-3 exact, 1-D/2-D quadrature within 1e-6, "
           f"{checked} log/linear points within 1e-12")


# --------------------------------------------------------------------- 3


def test_criterion_03_eer_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    for _ in range(1000):
        ng, ns = rng.integers(1, 120, size=2)
        g = rng.normal(0.0, 3.0, ng)
        s = rng.normal(rng.uniform(-8.0, 3.0), rng.uniform(0.5, 4.0), ns)
        thr, eer = sd.eer_threshold(g, s)
        assert helpers.count_gap_at(thr, g, s) == helpers.eer_count_oracle(g, s)
        fpr = np.mean(s >= thr)
        fnr = np.mean(g < thr)
        assert eer == pytest.approx(max(fpr, fnr), rel=1e-12, abs=1e-15)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(3, f"1000 random instances match the exhaustive sweep in {elapsed:.1f} s")


# --------------------------------------------------------------------- 4


def test_criterion_04_tracking_convergence():
    cfg = load_scenario(str(SCENARIOS / "tracking_noiseless.json"))
    scen = cfg["satellites"][0]
    assert cfg["duration"] == 10.0 and not cfg["add_noise"]

    t0 = time.perf_counter()
    iq = ss.synthesize_genuine(cfg["satellites"], cfg["sample_rate"], cfg["duration"],
                               cfg["noise_seed"], add_noise=False)
    t_synth = time.perf_counter() - t0

    t0 = time.perf_counter()
    acq = rc.acquire(iq, scen.prn)
    assert acq.acquired
    track = rc.track_channel(iq, acq)
    t_rx = time.perf_counter() - t0
    assert t_rx < 60.0

    steady = track.epochs[len(track.epochs) // 2:]
    code_err = np.array([(e.code_phase - scen.code_phase0 + 511.5) % 1023 - 511.5
                         for e in steady])
    dopp_err = np.array([e.doppler - scen.doppler for e in steady])
    im_re = np.array([abs(e.p.imag) / abs(e.p.real) for e in steady])
    assert np.abs(code_err).max() < 0.1
    assert np.abs(dopp_err).max() < 5.0
    assert im_re.mean() < 0.05
    _ok(4, f"10 s tracked in {t_rx:.1f} s (synthesis {t_synth:.1f} s); "
           f"|code err| <= {np.abs(code_err).max():.3f} chip, "
           f"|doppler err| <= {np.abs(dopp_err).max():.2f} Hz, "
           f"imag/real = {im_re.mean():.4f}")


# --------------------------------------------------------------------- 5


def test_criterion_05_lock_test_thresholds(monkeypatch):
    # keep the channel alive past code-test failures to measure the estimator
    monkeypatch.setattr(rc, "_GAMMA_CODE", 0.0)
    results = {}
    for cn0 in (28.0, 40.0):
        scen = ss.SatelliteScenario(prn=5, doppler=-800.0, code_phase0=101.3,
                                    cn0=cn0, nav_seed=9)
        iq = ss.synthesize_genuine([scen], duration=4.0, noise_seed=11)
        oracle = helpers.despread_cn0_oracle(iq, scen, n_epochs=2000)
        assert oracle == pytest.approx(cn0, abs=0.5)  # synthesis sanity
        track = rc.track_channel(iq, helpers.truth_init(5, 101.3, -800.0))
        est = np.array([e.cn0_est for e in track.epochs[100:]])
        assert est.mean() == pytest.approx(oracle, abs=2.0)  # estimator vs oracle
        results[cn0] = (oracle, est.mean(), np.mean(est >= 32.0))

    frac_pass_28 = results[28.0][2]
    frac_pass_40 = results[40.0][2]
    assert frac_pass_28 < 0.10  # code lock test fails at 28 dB-Hz
    assert frac_pass_40 > 0.99  # code lock test passes at 40 dB-Hz
    _ok(5, f"28 dB-Hz: est {results[28.0][1]:.1f} (oracle {results[28.0][0]:.1f}), "
           f"{100 * frac_pass_28:.1f}% windows pass; "
           f"40 dB-Hz: est {results[40.0][1]:.1f} (oracle {results[40.0][0]:.1f}), "
           f"{100 * frac_pass_40:.1f}% pass")


# --------------------------------------------------------------------- 6


@pytest.fixture(scope="session")
def suite_datasets():
    t0 = time.perf_counter()
    datasets = []
    for day in range(1, 5):
        genuine = helpers.scenario_features(
            load_scenario(str(SCENARIOS / f"suite_d{day}_genuine.json")))
        spoofed = helpers.scenario_features(
            load_scenario(str(SCENARIOS / f"suite_d{day}_spoofed.json")))
        datasets.append((genuine, spoofed))
    return datasets, time.perf_counter() - t0


def test_criterion_06_kfold_separability(suite_datasets):
    datasets, build_s = suite_datasets
    t0 = time.perf_counter()
    reports = sd.kfold_xval(datasets, seed=0, n_avg=1)
    elapsed = build_s + (time.perf_counter() - t0)
    assert elapsed < 300.0
    for i, r in enumerate(reports):
        assert r.fpr == 0.0, f"fold {i}: FPR {r.fpr}"
        assert r.fnr == 0.0, f"fold {i}: FNR {r.fnr}"
    sizes = [(len(g), len(s)) for g, s in datasets]
    _ok(6, f"4 folds all FPR=0%/FNR=0% at n=1 in {elapsed:.0f} s (sizes {sizes})")


# --------------------------------------------------------------------- 7


@pytest.fixture(scope="session")
def replay_scores():
    f_train = helpers.scenario_features(
        load_scenario(str(SCENARIOS / "replay_train_genuine.json")))
    f_train_spoof = helpers.scenario_features(
        load_scenario(str(SCENARIOS / "replay_train_spoofed.json")))
    profile = sd.train(f_train, f_train_spoof, seed=0)

    genuine = np.vstack([
        helpers.scenario_features(
            load_scenario(str(SCENARIOS / f"replay_eval_genuine_{i}.json")))
        for i in (1, 2, 3)])
    spoofed = np.vstack([
        helpers.scenario_features(
            load_scenario(str(SCENARIOS / f"replay_eval_spoofed_{i}.json")))
        for i in (1, 2, 3, 4)])
    g_scores = sd.score_features(genuine, profile.model)
    s_scores = sd.score_features(spoofed, profile.model)
    return g_scores, s_scores


def test_criterion_07_averaging_reaches_zero_eer(replay_scores):
    g, s = replay_scores
    assert len(g) >= 1000 and len(s) >= 1000

    eers = []
    for n in (1, 10, 100, 1000):
        gb = sd.block_log_scores(g, n)
        sb = sd.block_log_scores(s, n)
        assert len(gb) >= 1 and len(sb) >= 1
        eers.append(sd.eer_threshold(gb, sb)[1])
    assert all(a >= b for a, b in zip(eers, eers[1:])), eers
    assert eers[0] > 0.05  # genuinely overlapping at n=1
    assert eers[-1] == 0.0

    n_star = helpers.required_n_for_zero_eer(g, s, 1000)
    assert n_star is not None and n_star <= 1000

    brute = None
    for n in range(1, 1001):
        gb = sd.block_log_scores(g, n)
        sb = sd.block_log_scores(s, n)
        if len(gb) == 0 or len(sb) == 0:
            break
        if sd.eer_threshold(gb, sb)[1] == 0.0:
            brute = n
            break
    assert n_star == brute
    _ok(7, f"EER over n={{1,10,100,1000}}: {[f'{e:.3f}' for e in eers]}, "
           f"zero first reached at n={n_star} (brute force agrees)")


# --------------------------------------------------------------------- 8


def test_criterion_08_spoof_timing_oracle():
    rng = np.random.default_rng(88)
    prns = [1, 5, 9, 14, 20, 23, 27, 31]
    sets = sd.prn_sets(prns)
    assert len(sets) == 70  # C(8, 4)

    decisions = {}
    for p in prns:
        out, t = [], 0.0
        while t < 240.0:
            span = float(rng.uniform(3.0, 45.0))
            kind = sd.DECISION_AUTHENTIC if rng.random() < 0.8 else sd.DECISION_MALICIOUS
            out.append(sd.Decision(t_start=t, t_end=min(t + span, 240.0), prn=p,
                                   log_score=0.0, decision=kind))
            t += span + float(rng.uniform(0.0, 6.0))
        decisions[p] = out
    labels = [(0.0, 50.0, "genuine"), (50.0, 160.0, "spoofed"),
              (160.0, 170.0, "genuine"), (170.0, 240.0, "mixed")]

    report = sd.spoof_timing(decisions, labels, sets)
    expected = helpers.timing_scan_oracle(decisions, labels, sets)
    for i in range(len(sets)):
        mx, total, locks = expected[i]
        assert report.max_continuous_spoof_s[i] == pytest.approx(mx, abs=1e-9)
        assert report.total_spoof_s[i] == pytest.approx(total, abs=1e-9)
        assert report.undetected_30s_locks[i] == locks

    # hand-checkable extremes
    always = {p: [sd.Decision(0.0, 240.0, p, 0.0, sd.DECISION_AUTHENTIC)] for p in prns}
    full = sd.spoof_timing(always, [(0.0, 240.0, "spoofed")], sets)
    assert set(full.max_continuous_spoof_s) == {240.0}
    assert set(full.undetected_30s_locks) == {8}
    _ok(8, f"70 PRN-sets match the interval-scan oracle on randomized "
           f"decision timelines")


# --------------------------------------------------------------------- 9


def test_criterion_09_io_round_trips(tmp_path):
    rng = np.random.default_rng(99)
    checked = 0
    for fmt in ("int8", "int16", "float32"):
        for n in (0, 1, int(rng.integers(2, 500)), int(rng.integers(500, 3000))):
            if fmt == "float32":
                vals = rng.normal(0, 0.4, 2 * n).astype(np.float32).astype(np.float64)
            else:
                bits = 8 if fmt == "int8" else 16
                full = 1 << (bits - 1)
                vals = rng.integers(-full, full, 2 * n) / full
            samples = (vals[0::2] + 1j * vals[1::2]).astype(np.complex64)
            meta = cio.CaptureMeta(sample_rate=2.048e6, sample_format=fmt)
            path = tmp_path / f"{fmt}_{n}.iq"
            cio.write_iq(IqStream(samples, 2.048e6), path, meta)
            back = cio.read_iq(path)
            assert np.array_equal(back.samples, samples), (fmt, n)
            checked += 1

    model = mvn_model.fit(rng.normal(size=(200, 6)))
    profile = sd.DetectorProfile(model=model, log_threshold=-441.92173,
                                 n_avg=3, trained_on=("x",), train_eer=0.0)
    cio.save_model(profile, tmp_path / "p.json")
    back = cio.load_model(tmp_path / "p.json")
    assert back.log_threshold == profile.log_threshold
    assert np.array_equal(back.model.sigma, profile.model.sigma)
    assert np.array_equal(back.model.mu, profile.model.mu)

    manifest = cio.DatasetManifest(id="s1", role="spoofed", spoofing_type="both",
                                   threat_model="replay",
                                   power_status="matched-powered", multipath="no",
                                   duration_s=420.0, location="desk")
    cio.save_manifest(manifest, tmp_path / "m.json")
    assert helpers.load_manifest(tmp_path / "m.json") == manifest
    _ok(9, f"{checked} capture payloads ({3} formats incl. empty/single) plus "
           f"model and manifest round-trip bit-exactly")


# --------------------------------------------------------------------- 10


def _run_quickstart(out_root: Path) -> dict:
    """README quickstart: simulate/track/extract d1+d2, train on d1, eval on d2."""
    env_cmd = [sys.executable, "-m", "gnssfp.cli"]
    features = {}
    for ds in ("suite_d1_genuine", "suite_d1_spoofed",
               "suite_d2_genuine", "suite_d2_spoofed"):
        out = out_root / ds
        subprocess.run(env_cmd + ["simulate", "--scenario",
                                  str(SCENARIOS / f"{ds}.json"), "--out", str(out)],
                       check=True, capture_output=True)
        subprocess.run(env_cmd + ["track", "--capture", str(out / "capture.iq"),
                                  "--prn", "7", "--out", str(out)],
                       check=True, capture_output=True)
        subprocess.run(env_cmd + ["extract", "--epochs",
                                  str(out / "epochs_prn07.csv"),
                                  "--out", str(out / "features.csv")],
                       check=True, capture_output=True)
        features[ds] = out / "features.csv"
    profile = out_root / "profile.json"
    subprocess.run(env_cmd + ["train",
                              "--genuine", str(features["suite_d1_genuine"]),
                              "--spoofed", str(features["suite_d1_spoofed"]),
                              "--out", str(profile)],
                   check=True, capture_output=True)
    report = out_root / "report.csv"
    subprocess.run(env_cmd + ["eval", "--profile", str(profile),
                              "--genuine", str(features["suite_d2_genuine"]),
                              "--spoofed", str(features["suite_d2_spoofed"]),
                              "--n", "1", "10", "--out", str(report)],
                   check=True, capture_output=True)
    digests = {}
    for name, path in {**features, "report": report}.items():
        digests[str(name)] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    # the profile embeds caller-supplied provenance paths, so compare its
    # numeric content rather than raw bytes
    doc = json.loads(profile.read_text())
    profile_numbers = (doc["mu"], doc["sigma"], doc["log_threshold"],
                       doc["train_eer"], doc["n_avg"])
    report_rows = Path(report).read_text().splitlines()
    return {"digests": digests, "profile": profile_numbers,
            "report_rows": report_rows}


def test_criterion_10_end_to_end_determinism(tmp_path):
    run_a = _run_quickstart(tmp_path / "a")
    shutil.rmtree(tmp_path / "a", ignore_errors=True)
    run_b = _run_quickstart(tmp_path / "b")
    assert run_a["digests"] == run_b["digests"]
    assert run_a["profile"] == run_b["profile"]

    row_n1 = run_a["report_rows"][1].split(",")
    assert float(row_n1[2]) == 0.0 and float(row_n1[3]) == 0.0
    _ok(10, f"two quickstart runs byte-identical across "
            f"{len(run_a['digests'])} artifacts (profile numerics exact); "
            f"eval at n=1 is 0%/0%")

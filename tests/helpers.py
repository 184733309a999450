"""Shared oracles and pipeline helpers for the test suite.

Everything here is deliberately independent of the production paths it
checks: correlations are computed by explicit roll-and-dot sums, C/N0 by
ground-truth despreading, timing by elementary segment scans. The first
section holds what only the tests use and the package does not: a
whole-stream builder, the manifest and decision-CSV readers, and a few
small utilities.
"""

import csv
import json
from dataclasses import replace

import numpy as np
from scipy.special import logsumexp

from gnssfp import capture_io as cio
from gnssfp import fingerprint_features as ff
from gnssfp import mvn_model
from gnssfp import receiver_core as rc
from gnssfp import signal_sim as ss
from gnssfp import spoof_detector as sd
from gnssfp.cli import _stream_blocks
from gnssfp.prn_codes import CHIP_RATE, generate_ca_code, sample_code
from gnssfp.spoof_detector import DECISION_AUTHENTIC


# -- readers and utilities only the tests use -----------------------------------

def build_stream(cfg):
    """Synthesize a loaded scenario whole: the blocks of `simulate`, joined."""
    n = ss.sample_count(cfg["sample_rate"], cfg["duration"])
    samples = np.empty(n, dtype=np.complex64)
    i = 0
    for block in _stream_blocks(cfg):
        samples[i:i + len(block.samples)] = block.samples
        i += len(block.samples)
    return ss.IqStream(samples, cfg["sample_rate"])


def circular_correlate(a, b):
    """Circular correlation of two equal-length ±1 sequences.

    out[k] = sum_i a[i] * b[(i + k) mod N]. Computed in the frequency
    domain and rounded back to exact integers.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    corr = np.fft.ifft(np.conj(np.fft.fft(a)) * np.fft.fft(b)).real
    return np.rint(corr).astype(np.int64)


_MANIFEST_ATTACK_FIELDS = {"spoofing_type": "spoofing type", "threat_model": "threat model",
                           "power_status": "power status"}


def load_manifest(path):
    """Read a dataset manifest written by `capture_io.save_manifest`; a
    spoofed one must name its spoofing type, threat model and power status."""
    with open(str(path), encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("format") != cio.MANIFEST_FORMAT:
        raise ValueError(f"{path}: not a {cio.MANIFEST_FORMAT} document")
    if doc.get("version") != cio.MANIFEST_VERSION:
        raise cio.UnsupportedVersionError(
            f"{path}: manifest version {doc.get('version')} not supported")
    doc.pop("format"), doc.pop("version")
    try:
        manifest = cio.DatasetManifest(**doc)
    except TypeError as exc:
        raise ValueError(f"{path}: malformed manifest: {exc}") from exc
    if manifest.role == "spoofed":
        for key, name in _MANIFEST_ATTACK_FIELDS.items():
            if not getattr(manifest, key):
                raise ValueError(f"{path}: spoofed manifest missing required "
                                 f"field '{name}'")
    return manifest


def read_decisions_csv(path):
    """The `Decision` rows of a decision CSV, after checking its header."""
    with open(str(path), newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != cio.DECISION_CSV_HEADER:
            raise ValueError(f"{path}: unexpected decision CSV header {reader.fieldnames}")
        return [sd.Decision(t_start=float(row["t_start"]), t_end=float(row["t_end"]),
                            prn=int(row["prn"]), log_score=float(row["score_log"]),
                            decision=row["decision"], label=row["label"])
                for row in reader]


def required_n_for_zero_eer(genuine_scores, spoofed_scores, n_max):
    """Smallest averaging depth n <= n_max with zero EER over disjoint blocks.

    Returns None when no depth reaches zero (including when the score sets
    run out of full blocks).
    """
    g = np.asarray(genuine_scores, dtype=np.float64)
    s = np.asarray(spoofed_scores, dtype=np.float64)
    if len(g) == 0 or len(s) == 0:
        raise ValueError("both score lists must be non-empty")
    for n in range(1, n_max + 1):
        gb = sd.block_log_scores(g, n)
        sb = sd.block_log_scores(s, n)
        if len(gb) == 0 or len(sb) == 0:
            return None
        _, eer = sd.eer_threshold(gb, sb)
        if eer == 0.0:
            return n
    return None


def swapped(report):
    """An EvalReport with the positive class flipped (detected-spoof positive)."""
    tp, fp, tn, fn = report.counts
    return replace(report, fpr=report.fnr, fnr=report.fpr, counts=(tn, fn, tp, fp))


def density(x, model):
    """MVN density at x; underflows to 0.0 below ~1e-308 (use log_density)."""
    return np.exp(mvn_model.log_density(x, model))


def truth_init(prn, code_phase, doppler):
    """Tracking initialization from synthesis ground truth."""
    return rc.AcquisitionResult(prn=prn, code_phase=code_phase, doppler=doppler,
                                peak_metric=float("inf"), acquired=True)


def epoch_array(**columns):
    """An EPOCH_DTYPE recarray from per-field values broadcast to one
    length; fields not given are 0."""
    shape = np.broadcast_shapes(*(np.shape(v) for v in columns.values()))
    out = np.zeros(shape, dtype=rc.EPOCH_DTYPE).view(np.recarray)
    for name, values in columns.items():
        out[name] = values
    return out


def extract_features_oracle(epochs, cfg, prn=0, *, gamma_code=32.0, gamma_carrier=0.5):
    """Per-epoch feature extraction: test each epoch's lock metrics against
    the thresholds, buffer the passing ones and close a window every
    cfg.window_len of them. Returns a FEATURE_DTYPE array."""
    out = []
    buf_e, buf_p, buf_l = (np.empty(cfg.window_len) for _ in range(3))
    fill = 0
    for ep in epochs:
        if not (ep.cn0_est >= gamma_code and ep.clt_est >= gamma_carrier):
            continue
        buf_e[fill], buf_p[fill], buf_l[fill] = ep.e.real, ep.p.real, ep.l.real
        fill += 1
        if fill < cfg.window_len:
            continue
        fill = 0
        if (np.count_nonzero(buf_p > 0) < cfg.min_pos
                or np.count_nonzero(buf_p < 0) < cfg.min_neg):
            continue
        means = []
        for buf in (buf_e, buf_p, buf_l):
            pos, neg = buf[buf > 0], buf[buf < 0]
            means += [float(pos.mean()) if pos.size else 0.0,
                      float(neg.mean()) if neg.size else 0.0]
        out.append((float(ep.t), prn, *means))
    return np.array(out, dtype=ff.FEATURE_DTYPE)


def log_mean_oracle(blocks):
    """Per-block log-sum-exp mean: one scalar logsumexp per row, with an
    all -inf row giving -inf explicitly."""
    out = []
    for block in np.atleast_2d(np.asarray(blocks, dtype=np.float64)):
        if np.all(np.isneginf(block)):
            out.append(float("-inf"))
        else:
            out.append(float(logsumexp(block) - np.log(block.size)))
    return np.array(out)


def oracle_circcorr(a, b):
    """Exhaustive circular correlation: one dot product per lag."""
    return np.array([np.dot(a, np.roll(b, -k)) for k in range(len(a))])


def despread_cn0_oracle(iq, scenario, n_epochs=400):
    """Independent C/N0 measurement via ground-truth despreading.

    Solves the two-moment system exactly so the estimate is unbiased at any
    SNR: with per-epoch prompts z_k over n samples,
        mean|z|^2 / n^2 = A^2 + sigma^2 / n      (post-correlation power)
        mean|x|^2       = A^2 + sigma^2          (raw power)
    giving the carrier power A^2 and noise density sigma^2 / fs directly.
    No receiver-chain code involved.
    """
    from gnssfp.prn_codes import generate_ca_code
    fs = iq.sample_rate
    n = int(round(fs * 1e-3))
    code = generate_ca_code(scenario.prn)
    n_epochs = min(n_epochs, len(iq.samples) // n)
    x = iq.samples[:n_epochs * n].astype(np.complex128)
    z_sq = np.empty(n_epochs)
    for k in range(n_epochs):
        i = np.arange(k * n, (k + 1) * n)
        rep = code.chips[np.mod(scenario.code_phase0 + CHIP_RATE / fs * i,
                                1023.0).astype(np.int64)]
        theta = 2 * np.pi * scenario.doppler * i / fs + scenario.carrier_phase0
        z = np.sum(x[k * n:(k + 1) * n] * rep * np.exp(-1j * theta))
        z_sq[k] = np.abs(z) ** 2 / n ** 2
    post = np.mean(z_sq)
    raw = np.mean(np.abs(x) ** 2)
    carrier_power = max((post - raw / n) / (1.0 - 1.0 / n), 1e-30)
    noise_density = max(raw - carrier_power, 1e-30) / fs
    return 10 * np.log10(carrier_power / noise_density)


def synth_satellite_oracle(scenario, sample_rate, n, noise_power=1.0, phase_seed=0):
    """Direct per-sample synthesis of one satellite's clean signal (complex128).

    Every sample gets its own chip index, nav-bit index and full carrier
    phase; the FIR is an explicit tap sum over neighbouring samples' chips
    (centred as numpy's mode="same"). Nav bits and the phase walk are drawn
    from the documented seeds, and the amplitude follows from C/N0 against a
    noise density of noise_power / sample_rate.
    """
    sig = scenario.signature
    fs = sample_rate
    amplitude = np.sqrt(10.0 ** (scenario.cn0 / 10.0) * noise_power / fs)
    chips = generate_ca_code(scenario.prn).chips.astype(np.float64)
    i = np.arange(n)

    def chip_at(j):
        return chips[np.floor(np.mod(scenario.code_phase0 + CHIP_RATE / fs * j,
                                     1023.0)).astype(np.int64)]

    taps = sig.filter_taps
    centre = (len(taps) - 1) // 2
    filt = sum(tap * chip_at(i + centre - t) for t, tap in enumerate(taps))

    # nav bits are prefix-stable, so any length covering the stream will do
    bits = ss.synthesize_nav_bits(scenario.prn, scenario.nav_seed, n / fs + 1.0)
    phase_chips = scenario.code_phase0 + CHIP_RATE / fs * i
    b = bits[np.floor(phase_chips / (CHIP_RATE / 50.0)).astype(np.int64)].astype(float)
    g = sig.gain_asymmetry
    norm = np.sqrt((g * g + 1.0) / 2.0)
    amp = np.where(b > 0, amplitude * g / norm, amplitude / norm)

    epoch_len = int(round(fs * 1e-3))
    epoch = i // epoch_len
    walk = np.zeros(-(-n // epoch_len))
    if sig.phase_noise_std > 0:
        rng = np.random.default_rng([int(phase_seed) & 0xFFFFFFFF, scenario.prn, 0x51])
        walk = np.cumsum(rng.normal(0.0, sig.phase_noise_std, len(walk)))
    theta = 2 * np.pi * scenario.doppler * i / fs + scenario.carrier_phase0 + walk[epoch]
    return amp * b * filt * np.exp(1j * theta)


def eer_count_oracle(genuine, spoofed):
    """Exhaustive threshold sweep in integer count space.

    Returns the minimal |#FP * n_genuine - #FN * n_spoofed| over every
    candidate threshold in the score union (exact, no float division).
    """
    g = np.sort(np.asarray(genuine, dtype=float))
    s = np.sort(np.asarray(spoofed, dtype=float))
    ng, ns = len(g), len(s)
    best = None
    for t in np.unique(np.concatenate([g, s])):
        fn = int(np.searchsorted(g, t, side="left"))
        fp = ns - int(np.searchsorted(s, t, side="left"))
        gap = abs(fp * ng - fn * ns)
        if best is None or gap < best:
            best = gap
    return best


def count_gap_at(t, genuine, spoofed):
    g = np.asarray(genuine, dtype=float)
    s = np.asarray(spoofed, dtype=float)
    return abs(int(np.sum(s >= t)) * len(g) - int(np.sum(g < t)) * len(s))


def timing_scan_oracle(decisions_by_prn, label_intervals, sets):
    """Brute-force spoof-timing: midpoint-test every elementary segment."""
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


def scenario_features(cfg):
    """Run a loaded scenario through build_stream -> acquire -> track -> extract.

    Returns the pooled (n, 6) feature matrix over all satellites.
    """
    stream = build_stream(cfg)
    parts = []
    for scen in cfg["satellites"]:
        acq = rc.acquire(stream, scen.prn)
        assert acq.acquired, f"PRN {scen.prn} not acquired (metric {acq.peak_metric:.2f})"
        track = rc.track_channel(stream, acq)
        parts.append(ff.extract_features(track.epochs, cfg["window"], prn=scen.prn))
    return ff.feature_matrix(np.concatenate(parts))


# -- whole-array stream synthesis ----------------------------------------------
# The chain as it was before streaming: every stage on the whole stream, one
# full-length array per step. stream_oracle is its scenario -> stream path.

def _oracle_satellite(scenario, sample_rate, n, amplitude, phase_seed, out):
    sig = scenario.signature
    epoch_len = ss.samples_per_epoch(sample_rate)
    n_sim_epochs = -(-n // epoch_len)

    chips = generate_ca_code(scenario.prn).chips.astype(np.float64)
    taps = np.asarray(sig.filter_taps, dtype=np.float64)
    pad = len(taps)
    step = CHIP_RATE / sample_rate
    omega = 2.0 * np.pi * scenario.doppler / sample_rate
    r = np.arange(epoch_len, dtype=np.float64)
    phase_chips = scenario.code_phase0 + step * r
    raw = chips[np.mod(phase_chips, 1023.0).astype(np.int64)]
    filt = np.convolve(np.pad(raw, pad, mode="wrap"), taps, mode="same")[pad:pad + epoch_len]
    tile = (filt * np.exp(1j * omega * r)).astype(np.complex64)
    period = np.floor(phase_chips / 1023)
    wrap = int(np.searchsorted(period, period[0] + 1.0))

    chips_per_bit = CHIP_RATE / ss.NAV_BIT_RATE
    bits = ss.synthesize_nav_bits(scenario.prn, scenario.nav_seed,
                                  n / sample_rate + scenario.code_phase0 / CHIP_RATE
                                  + 2.0 / ss.NAV_BIT_RATE)
    g = sig.gain_asymmetry
    norm = np.sqrt((g * g + 1.0) / 2.0)
    amp_pos = amplitude * g / norm
    amp_neg = amplitude / norm

    rng = np.random.default_rng([int(phase_seed) & 0xFFFFFFFF, int(scenario.prn), 0x51])
    if sig.phase_noise_std > 0:
        walk = np.cumsum(rng.normal(0.0, sig.phase_noise_std, n_sim_epochs))
    else:
        walk = np.zeros(n_sim_epochs)
    first = np.arange(n_sim_epochs) * float(epoch_len)
    rotator = np.exp(1j * (omega * first + scenario.carrier_phase0 + walk))

    def epoch_scalars(first_sample):
        b = bits[((scenario.code_phase0 + step * first_sample)
                  / chips_per_bit).astype(np.int64)]
        return (np.where(b > 0, amp_pos, amp_neg) * b * rotator).astype(np.complex64)

    before = epoch_scalars(first)
    after = epoch_scalars(first + wrap)

    def accumulate(block, k0):
        k1 = k0 + block.shape[0]
        t = tile[:block.shape[1]]
        block[:, :wrap] += before[k0:k1, None] * t[:wrap]
        block[:, wrap:] += after[k0:k1, None] * t[wrap:]

    n_full = n // epoch_len
    for k0 in range(0, n_full, 64):
        k1 = min(k0 + 64, n_full)
        accumulate(out[k0 * epoch_len:k1 * epoch_len].reshape(k1 - k0, epoch_len), k0)
    if n_full < n_sim_epochs:
        accumulate(out[n_full * epoch_len:n].reshape(1, -1), n_full)


def _amplitude(cn0, noise_power, sample_rate):
    return float(np.sqrt(10.0 ** (cn0 / 10.0) * noise_power / sample_rate))


def _oracle_genuine(scenarios, sample_rate, duration, noise_seed, noise_power, add_noise):
    n = int(round(duration * sample_rate))
    out = np.zeros(n, dtype=np.complex64)
    for scen in scenarios:
        amp = _amplitude(scen.cn0, noise_power, sample_rate)
        _oracle_satellite(scen, sample_rate, n, amp, noise_seed, out)
    if add_noise and noise_power > 0:
        rng = np.random.default_rng([int(noise_seed) & 0xFFFFFFFF, 0xA3])
        sigma = np.sqrt(noise_power / 2.0)
        chunk = 1 << 20
        for i0 in range(0, n, chunk):
            m = min(chunk, n - i0)
            noise = rng.standard_normal(2 * m)
            noise *= sigma
            interleaved = out[i0:i0 + m].view(np.float32)
            interleaved += noise
    return out, np.full(n, ss.LABEL_GENUINE, dtype=np.uint8)


def _oracle_multipath(samples, sample_rate, taps):
    n = len(samples)
    out = np.zeros(n, dtype=np.complex64)
    for delay, gain in taps:
        d = int(round(delay * sample_rate))
        if d >= n:
            continue
        out[d:] += (np.complex64(gain) * samples[:n - d])
    return out


def _oracle_replay_chain(x, sig, sample_rate, seed):
    taps = np.asarray(sig.filter_taps, dtype=np.float32)
    re = x.real.astype(np.float32, copy=True)
    im = x.imag.astype(np.float32, copy=True)
    if len(taps) > 1:
        re = np.convolve(re, taps, mode="same")
        im = np.convolve(im, taps, mode="same")
    elif taps[0] != 1.0:
        re *= taps[0]
        im *= taps[0]
    g = sig.gain_asymmetry
    if g != 1.0:
        norm = np.sqrt((g * g + 1.0) / 2.0)
        scale = np.where(re > 0, np.float32(g / norm), np.float32(1.0 / norm))
        re *= scale
        im *= scale
    if sig.phase_noise_std > 0:
        rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, 0x9E])
        chunk = int(round(sample_rate * 1e-3))
        n_chunks = -(-len(re) // chunk)
        walk = np.repeat(np.cumsum(rng.normal(0.0, sig.phase_noise_std, n_chunks)),
                         chunk)[:len(re)].astype(np.float32)
        c, s = np.cos(walk), np.sin(walk)
        re, im = re * c - im * s, im * c + re * s
    y = np.empty(len(re), dtype=np.complex64)
    y.real = re
    y.imag = im
    return y


def _oracle_overlay(samples, labels, fs, attack, target_scenarios, noise_seed, noise_power):
    n = len(samples)
    out, out_labels = samples.copy(), labels.copy()
    k0 = int(round(attack.takeover_time * fs))
    if k0 >= n:
        return out, out_labels
    k0 = max(k0, 0)
    scale = 10.0 ** (attack.power_offset_db / 20.0)
    if attack.mode == "replay":
        att = _oracle_replay_chain(samples, attack.spoofer_signature, fs, attack.attack_seed)
        if scale != 1.0:
            att *= np.complex64(scale)
        if attack.seamless:
            out[k0:] += att[k0:]
        else:
            out[k0:] = att[k0:]
    else:
        att = np.zeros(n, dtype=np.complex64)
        for scen in target_scenarios:
            amp = _amplitude(scen.cn0, noise_power, fs)
            spoofed_scen = replace(scen, signature=attack.spoofer_signature)
            _oracle_satellite(spoofed_scen, fs, n, amp * scale, attack.attack_seed, att)
            if not attack.seamless:
                _oracle_satellite(scen, fs, n, -amp, noise_seed, att)
        out[k0:] += att[k0:]
    if attack.seamless and attack.power_offset_db < 0:
        out_labels[k0:] = ss.LABEL_MIXED
    else:
        out_labels[k0:] = ss.LABEL_SPOOFED
    return out, out_labels


def stream_oracle(cfg):
    """A loaded scenario's (samples, labels), each stage on whole arrays:
    synthesis, then multipath, then the attack on `attack.targets`."""
    fs = cfg["sample_rate"]
    samples, labels = _oracle_genuine(cfg["satellites"], fs, cfg["duration"],
                                      cfg["noise_seed"], cfg["noise_power"], cfg["add_noise"])
    if cfg["multipath"]:
        samples = _oracle_multipath(samples, fs, cfg["multipath"])
    if cfg["attack"] is not None:
        targets = cfg["satellites"]
        if cfg["attack_targets"]:
            targets = [s for s in targets if s.prn in set(cfg["attack_targets"])]
        samples, labels = _oracle_overlay(samples, labels, fs, cfg["attack"], targets,
                                          cfg["noise_seed"], cfg["noise_power"])
    return samples, labels


# -- per-period acquisition and per-epoch tracking -------------------------------
# The receiver loops as they were before batching: one FFT pair per code
# period and Doppler bin, np.mod code indices into one code period, and the
# lock estimates recomputed from a ring of prompts after every epoch.

def acquire_oracle(iq, prn, doppler_range=5000.0, doppler_bin=250.0):
    """rc.acquire with one FFT pair per code period, summed in a Python loop."""
    fs = iq.sample_rate
    period = int(round(fs * 1023 / CHIP_RATE))
    if len(iq.samples) < 2 * period:
        raise ValueError("need at least two code periods")
    num_periods = min(rc._ACQ_PERIODS, len(iq.samples) // period)
    replica = sample_code(generate_ca_code(prn), fs, CHIP_RATE, 0.0,
                             period).astype(np.float64)
    replica_fft_conj = np.conj(np.fft.fft(replica))
    dopplers = np.arange(-doppler_range, doppler_range + doppler_bin / 2, doppler_bin)
    t = np.arange(period) / fs
    n_corr = num_periods * period
    x_re = iq.samples[:n_corr].real.astype(np.float64)
    x_im = iq.samples[:n_corr].imag.astype(np.float64)

    best = (-1.0, 0, 0.0)
    best_map = None
    seg = np.empty(period, dtype=np.complex128)
    for f in dopplers:
        theta = 2.0 * np.pi * f * t
        c, s = np.cos(theta), np.sin(theta)
        acc = np.zeros(period)
        for p in range(num_periods):
            sl = slice(p * period, (p + 1) * period)
            seg.real = x_re[sl] * c + x_im[sl] * s
            seg.imag = x_im[sl] * c - x_re[sl] * s
            corr = np.fft.ifft(np.fft.fft(seg) * replica_fft_conj)
            acc += corr.real ** 2 + corr.imag ** 2
        k = int(np.argmax(acc))
        if acc[k] > best[0]:
            best = (acc[k], k, float(f))
            best_map = acc

    peak_power, k_peak, doppler_hat = best
    guard = int(np.ceil(fs / CHIP_RATE))
    mask = np.ones(period, dtype=bool)
    for off in range(-guard, guard + 1):
        mask[(k_peak + off) % period] = False
    second = best_map[mask].max()
    metric = float(np.sqrt(peak_power / second)) if second > 0 else np.inf
    code_phase = ((period - k_peak) % period) * CHIP_RATE / fs
    acquired = metric >= rc._ACQ_THRESHOLD
    if acquired:
        doppler_hat += rc._refine_doppler(iq, replica, k_peak, doppler_hat, period)
    return rc.AcquisitionResult(prn=prn, code_phase=float(code_phase % 1023),
                                doppler=doppler_hat, peak_metric=metric,
                                acquired=acquired)


def _lock_estimates_oracle(prompts, integration_time):
    """NWPR C/N0 and cos(2*dphi) of one window, in scalar arithmetic."""
    ip, qp = prompts.real, prompts.imag
    sq_i = (ip * ip).sum()
    sq_q = (qp * qp).sum()
    wide = sq_i + sq_q
    if wide <= 0.0:
        return 0.0, 0.0
    sum_abs_i = np.abs(ip).sum()
    sum_sign_q = np.where(ip >= 0, qp, -qp).sum()
    np_ratio = (sum_abs_i * sum_abs_i + sum_sign_q * sum_sign_q) / wide
    snr = max(np_ratio - 1.0, 1e-12) / max(prompts.size - np_ratio, 1e-9)
    return float(10.0 * np.log10(snr / integration_time)), float((sq_i - sq_q) / wide)


def track_channel_oracle(iq, init, *, integration_time=1e-3, el_spacing=0.5,
                         dll_bandwidth=2.0, pll_bandwidth=25.0, gamma_code=32.0):
    """rc.track_channel with np.mod code indices and a lock check per epoch,
    for the receiver settings given (the defaults are the receiver's).

    Returns (status, EPOCH_DTYPE array).
    """
    fs = iq.sample_rate
    T = integration_time
    n_epoch = int(round(fs * T))
    n_epochs_total = len(iq.samples) // n_epoch
    chips = generate_ca_code(init.prn).chips.astype(np.float64)
    half = el_spacing / 2.0
    tau1_d, tau2_d = rc._loop_coefficients(dll_bandwidth, 0.707, 1.0)
    tau1_c, tau2_c = rc._loop_coefficients(pll_bandwidth, 0.707, 0.25)

    code_phase = init.code_phase
    code_freq = CHIP_RATE
    carr_freq = init.doppler
    carr_phase = 0.0
    code_nco = code_err_old = 0.0
    carr_nco = carr_err_old = 0.0
    i_arr = np.arange(n_epoch, dtype=np.float64)
    prompts = np.zeros(rc._LOCK_WINDOW, dtype=np.complex128)
    epochs = np.zeros(n_epochs_total, dtype=rc.EPOCH_DTYPE)
    status = rc.STATUS_COMPLETED
    code_fail_run = 0

    for k in range(n_epochs_total):
        blk = iq.samples[k * n_epoch:(k + 1) * n_epoch]
        re = blk.real.astype(np.float64)
        im = blk.imag.astype(np.float64)
        base = code_phase + (code_freq / fs) * i_arr
        idx_p = np.mod(base, 1023.0).astype(np.int64)
        idx_e = np.mod(base + half, 1023.0).astype(np.int64)
        idx_l = np.mod(base - half, 1023.0).astype(np.int64)
        theta = (2.0 * np.pi * carr_freq / fs) * i_arr + carr_phase
        c, s = np.cos(theta), np.sin(theta)
        xr = re * c
        xr += im * s
        xi = im * c
        xi -= re * s
        ce, cp, cl = chips[idx_e], chips[idx_p], chips[idx_l]
        e = complex(xr @ ce, xi @ ce)
        p = complex(xr @ cp, xi @ cp)
        l = complex(xr @ cl, xi @ cl)
        t_k = iq.t0 + k * T
        epoch_code_phase = code_phase
        epoch_doppler = carr_freq

        carr_phase = float(np.mod(carr_phase + 2.0 * np.pi * carr_freq / fs * n_epoch,
                                  2.0 * np.pi))
        code_phase = float(np.mod(code_phase + code_freq / fs * n_epoch, 1023))

        ip, qp = p.real, p.imag
        carr_err = np.arctan(qp / ip) / (2.0 * np.pi) if ip != 0.0 else 0.25
        carr_nco += (tau2_c / tau1_c) * (carr_err - carr_err_old) + carr_err * (T / tau1_c)
        carr_err_old = carr_err
        carr_freq = init.doppler + carr_nco
        abs_e, abs_l = abs(e), abs(l)
        denom = abs_e + abs_l
        code_err = (abs_e - abs_l) / denom if denom > 0 else 0.0
        code_nco += (tau2_d / tau1_d) * (code_err - code_err_old) + code_err * (T / tau1_d)
        code_err_old = code_err
        code_freq = CHIP_RATE + code_nco

        prompts[k % rc._LOCK_WINDOW] = p
        cn0, clt = (_lock_estimates_oracle(prompts, T) if k >= rc._LOCK_WINDOW - 1
                    else (0.0, 0.0))
        epochs[k] = (t_k, e, p, l, cn0, clt, epoch_code_phase, epoch_doppler)

        if k >= rc._LOCK_WINDOW - 1:
            code_fail_run = code_fail_run + 1 if cn0 < gamma_code else 0
            if code_fail_run >= rc._LOSS_OF_LOCK_EPOCHS:
                status = rc.STATUS_LOSS_OF_LOCK
                epochs = epochs[:k + 1]
                break
    return status, epochs

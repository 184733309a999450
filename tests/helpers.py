"""Shared oracles and pipeline helpers for the test suite.

Everything here is deliberately independent of the production paths it
checks: correlations are computed by explicit roll-and-dot sums, C/N0 by
ground-truth despreading, timing by elementary segment scans.
"""

from dataclasses import replace

import numpy as np
from scipy.special import logsumexp

from gnssfp import fingerprint_features as ff
from gnssfp import receiver_core as rc
from gnssfp import signal_sim as ss
from gnssfp.cli import build_stream
from gnssfp.prn_codes import CHIP_RATE, generate_ca_code
from gnssfp.spoof_detector import DECISION_AUTHENTIC


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


def extract_features_oracle(epochs, cfg, trk=rc.TrackingConfig(), prn=0):
    """Per-epoch feature extraction: test each epoch's lock metrics, buffer
    the passing ones and close a window every cfg.window_len of them.
    Returns a FEATURE_DTYPE array."""
    out = []
    buf_e, buf_p, buf_l = (np.empty(cfg.window_len) for _ in range(3))
    fill = 0
    for ep in epochs:
        if not (ep.cn0_est >= trk.gamma_code and ep.clt_est >= trk.gamma_carrier):
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

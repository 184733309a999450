"""Shared oracles and pipeline helpers for the test suite.

Everything here is deliberately independent of the production paths it
checks: correlations are computed by explicit roll-and-dot sums, C/N0 by
ground-truth despreading, timing by elementary segment scans.
"""

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

"""Baseband IQ synthesis: genuine satellites, channel effects, attacker overlays.

Every stream is a pure function of (config, seeds), so identical scenarios
reproduce bit-identical sample arrays. Amplitudes are set from the configured
C/N0 against a reference noise density of noise_power/sample_rate, which makes
the despread-power oracle in the tests independent of the receiver chain.

The transmitter imperfections that make one radio distinguishable from
another are modeled explicitly by HardwareSignature: an amplitude imbalance
between the two data-bit polarities, a short bandlimiting FIR, and a
per-epoch carrier phase random walk. Each term measurably shifts the
high/low correlator feature means the detector fingerprints.

Synthesis is built on the 1 ms C/A code period. The code runs at exactly
CHIP_RATE (no code Doppler) and the sample rate must give a whole number of
samples per period (2048 at 2.048 MHz), so the filtered chip waveform is
one periodic tile. The tile also carries the carrier's advance within the
period; each epoch then scales it by one complex scalar, a per-epoch
rotator holding the Doppler phase at the epoch start, the carrier phase
offset, the phase walk and the nav bit with its polarity gain (as in
GNSS-SDR's volk_32fc_s32fc_x2_rotator_32fc kernel). A bit edge can only fall
where the code wraps, at the same in-tile sample every epoch, so an epoch
needs one scalar before that sample and one after it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .prn_codes import CHIP_RATE, CODE_LENGTH, generate_ca_code

DEFAULT_SAMPLE_RATE = 2.048e6  # ~2 samples/chip; see README on grid choice
NAV_BIT_RATE = 50.0  # bits/s
BITS_PER_SUBFRAME = 300
SUBFRAMES_PER_FRAME = 5
SUBFRAME_PREAMBLE = (1, 0, 0, 0, 1, 0, 1, 1)
# One C/A code period: the synthesis tile length and the step of the phase
# random walk and of the per-epoch carrier rotator.
SIM_EPOCH = 1e-3
_BLOCK_EPOCHS = 64  # epochs written to the output per block

LABEL_GENUINE = 0
LABEL_SPOOFED = 1
LABEL_MIXED = 2
LABEL_NAMES = {LABEL_GENUINE: "genuine", LABEL_SPOOFED: "spoofed", LABEL_MIXED: "mixed"}

POWER_OFFSETS_DB = {"over": 6.0, "matched": 0.5, "under": -3.0}


@dataclass(frozen=True)
class HardwareSignature:
    """Transmit-chain imperfections of one radio.

    gain_asymmetry is the amplitude ratio between positive and negative
    data-bit polarities (normalized so mean power is unchanged);
    filter_taps is a short unity-DC-gain FIR modeling bandlimiting;
    phase_noise_std is the per-millisecond step of a carrier phase
    random walk, in radians.
    """

    gain_asymmetry: float = 1.0
    filter_taps: tuple = (1.0,)
    phase_noise_std: float = 0.0

    def __post_init__(self):
        taps = tuple(float(t) for t in self.filter_taps)
        if not 1 <= len(taps) <= 9:
            raise ValueError("filter_taps must have 1..9 taps")
        if abs(sum(taps) - 1.0) > 1e-9:
            raise ValueError(f"filter_taps must sum to 1, got {sum(taps)}")
        if not 0.8 < self.gain_asymmetry < 1.25:
            raise ValueError(f"gain_asymmetry must be in (0.8, 1.25), got {self.gain_asymmetry}")
        if self.phase_noise_std < 0:
            raise ValueError("phase_noise_std must be >= 0")
        object.__setattr__(self, "filter_taps", taps)


@dataclass(frozen=True)
class SatelliteScenario:
    """One genuine satellite as seen at the receiver input."""

    prn: int
    doppler: float = 0.0  # Hz
    code_phase0: float = 0.0  # chips at t0
    carrier_phase0: float = 0.0  # radians at t0
    cn0: float = 45.0  # dB-Hz
    signature: HardwareSignature = HardwareSignature()
    nav_seed: int = 0

    def __post_init__(self):
        if not 1 <= self.prn <= 32:
            raise ValueError(f"prn must be in 1..32, got {self.prn}")
        if not 20.0 <= self.cn0 <= 60.0:
            raise ValueError(f"cn0 must be in [20, 60] dB-Hz, got {self.cn0}")
        if abs(self.doppler) > 10e3:
            raise ValueError(f"|doppler| must be <= 10 kHz, got {self.doppler}")


@dataclass(frozen=True)
class AttackConfig:
    """Attacker overlay: spoofing (synthesized) or replay (retransmitted).

    power selects the attacker level relative to each genuine satellite:
    "over" (+6 dB), "matched" (+0.5 dB), "under" (-3 dB) or "adjusted"
    (adjusted_db as given). seamless keeps the genuine component on air
    after takeover; otherwise the attacker replaces it outright.
    """

    mode: str  # "spoofing" | "replay"
    power: str = "matched"
    adjusted_db: float = 0.0
    takeover_time: float = 0.0  # seconds
    seamless: bool = False
    spoofer_signature: HardwareSignature = HardwareSignature()
    attack_seed: int = 0

    def __post_init__(self):
        if self.mode not in ("spoofing", "replay"):
            raise ValueError(f"mode must be 'spoofing' or 'replay', got {self.mode!r}")
        if self.power not in ("over", "matched", "under", "adjusted"):
            raise ValueError(f"unknown power mode {self.power!r}")
        if self.takeover_time < 0:
            raise ValueError("takeover_time must be >= 0")

    @property
    def power_offset_db(self) -> float:
        if self.power == "adjusted":
            return self.adjusted_db
        return POWER_OFFSETS_DB[self.power]


@dataclass
class IqStream:
    """Complex baseband samples with per-sample ground-truth labels."""

    samples: np.ndarray
    sample_rate: float
    t0: float = 0.0
    labels: np.ndarray = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex64)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.labels is None:
            self.labels = np.zeros(len(self.samples), dtype=np.uint8)
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if len(self.labels) != len(self.samples):
            raise ValueError("labels length must equal samples length")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

    def copy(self) -> "IqStream":
        return IqStream(self.samples.copy(), self.sample_rate, self.t0, self.labels.copy())


def label_intervals(iq: IqStream) -> list:
    """Run-length encode the per-sample labels into (t_start, t_end, name) spans."""
    labels = iq.labels
    if len(labels) == 0:
        return []
    edges = np.flatnonzero(np.diff(labels)) + 1
    starts = np.concatenate([[0], edges])
    ends = np.concatenate([edges, [len(labels)]])
    fs = iq.sample_rate
    return [(iq.t0 + s / fs, iq.t0 + e / fs, LABEL_NAMES[int(labels[s])])
            for s, e in zip(starts, ends)]


def synthesize_nav_bits(prn: int, nav_seed: int, duration: float) -> np.ndarray:
    """Deterministic navigation payload bits (±1) at 50 bps.

    1500-bit frames of five 300-bit subframes, each opening with the fixed
    8-bit preamble 10001011; the remaining payload is seeded pseudorandom
    (the detector never decodes it, so ephemeris realism buys nothing).
    Bit mapping 0 -> +1, 1 -> -1, matching the chip convention.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    n_bits = int(round(duration * NAV_BIT_RATE))
    rng = np.random.default_rng([int(nav_seed) & 0xFFFFFFFF, int(prn)])
    n_subframes = -(-n_bits // BITS_PER_SUBFRAME)
    chunks = []
    for _ in range(n_subframes):
        payload = rng.integers(0, 2, BITS_PER_SUBFRAME - len(SUBFRAME_PREAMBLE))
        chunks.append(np.concatenate([np.array(SUBFRAME_PREAMBLE), payload]))
    bits = np.concatenate(chunks)[:n_bits]
    return (1 - 2 * bits).astype(np.int8)


def _signature_rng(base_seed: int, prn: int) -> np.random.Generator:
    return np.random.default_rng([int(base_seed) & 0xFFFFFFFF, int(prn), 0x51])


def _satellite_amplitude(cn0: float, noise_power: float, sample_rate: float) -> float:
    # C/N0 = C / (noise_power / sample_rate)
    return float(np.sqrt(10.0 ** (cn0 / 10.0) * noise_power / sample_rate))


def samples_per_epoch(sample_rate: float) -> int:
    """Samples in one SIM_EPOCH (one C/A code period), checked to be whole.

    Synthesis repeats one 1 ms tile per epoch, which is exact only when the
    code period spans a whole number of samples (2048 at 2.048 MHz).
    """
    if sample_rate < 2 * CHIP_RATE:
        raise ValueError(f"sample_rate must be >= {2 * CHIP_RATE} Hz, got {sample_rate}")
    exact = sample_rate * SIM_EPOCH
    epoch_len = int(round(exact))
    if abs(exact - epoch_len) > 1e-9 * epoch_len:
        raise ValueError(f"sample_rate must give a whole number of samples per "
                         f"{SIM_EPOCH * 1e3:g} ms, got {sample_rate} Hz")
    return epoch_len


def _synthesize_satellite(scenario: SatelliteScenario, sample_rate: float, n: int,
                          amplitude: float, phase_seed: int,
                          out: np.ndarray) -> None:
    """Accumulate one satellite's clean signal into `out` (complex64, length n).

    Sample i = E*k + r of epoch k is tile[r] times one complex scalar of
    epoch k, amp(bit) * bit * exp(j(omega*E*k + phi0 + walk[k])). The bit
    can only change where the code wraps, at the fixed in-tile sample
    `wrap`, so each epoch has a scalar before the wrap and one after it.
    """
    sig = scenario.signature
    epoch_len = samples_per_epoch(sample_rate)
    n_sim_epochs = -(-n // epoch_len)

    # The tile: nearest-chip code, FIR applied circularly over the period,
    # and the carrier's advance within the epoch.
    chips = generate_ca_code(scenario.prn).chips.astype(np.float64)
    taps = np.asarray(sig.filter_taps, dtype=np.float64)
    pad = len(taps)
    step = CHIP_RATE / sample_rate
    omega = 2.0 * np.pi * scenario.doppler / sample_rate
    r = np.arange(epoch_len, dtype=np.float64)
    phase_chips = scenario.code_phase0 + step * r
    raw = chips[np.mod(phase_chips, float(CODE_LENGTH)).astype(np.int64)]
    filt = np.convolve(np.pad(raw, pad, mode="wrap"), taps, mode="same")[pad:pad + epoch_len]
    tile = (filt * np.exp(1j * omega * r)).astype(np.complex64)
    period = np.floor(phase_chips / CODE_LENGTH)
    wrap = int(np.searchsorted(period, period[0] + 1.0))

    # Bit edges ride the code timeline: one bit per 20 code periods of
    # elapsed chips, so edges generally fall off the receiver's epoch grid.
    chips_per_bit = CHIP_RATE / NAV_BIT_RATE
    bits = synthesize_nav_bits(scenario.prn, scenario.nav_seed,
                               n / sample_rate + scenario.code_phase0 / CHIP_RATE
                               + 2.0 / NAV_BIT_RATE)
    g = sig.gain_asymmetry
    norm = np.sqrt((g * g + 1.0) / 2.0)
    amp_pos = amplitude * g / norm
    amp_neg = amplitude / norm

    # Phase random walk advances once per SIM_EPOCH.
    rng = _signature_rng(phase_seed, scenario.prn)
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
    for k0 in range(0, n_full, _BLOCK_EPOCHS):
        k1 = min(k0 + _BLOCK_EPOCHS, n_full)
        accumulate(out[k0 * epoch_len:k1 * epoch_len].reshape(k1 - k0, epoch_len), k0)
    if n_full < n_sim_epochs:
        accumulate(out[n_full * epoch_len:n].reshape(1, -1), n_full)


def synthesize_genuine(scenarios, sample_rate: float = DEFAULT_SAMPLE_RATE,
                       duration: float = 1.0, noise_seed: int = 0,
                       noise_power: float = 1.0, add_noise: bool = True) -> IqStream:
    """Synthesize the genuine multi-satellite baseband stream.

    Each satellite contributes amp * gain(bit) * (code (*) fir) * bit *
    exp(j(2 pi doppler t + phi0 + phase_walk)); complex AWGN of total power
    noise_power per sample is added on top when add_noise is set. All labels
    are "genuine". Raises ValueError unless sample_rate is at least two
    samples per chip and a whole number of samples per SIM_EPOCH.
    """
    samples_per_epoch(sample_rate)
    prns = [s.prn for s in scenarios]
    if len(set(prns)) != len(prns):
        raise ValueError(f"duplicate PRNs in scenario list: {sorted(prns)}")
    n = int(round(duration * sample_rate))

    out = np.zeros(n, dtype=np.complex64)
    for scen in scenarios:
        amp = _satellite_amplitude(scen.cn0, noise_power, sample_rate)
        _synthesize_satellite(scen, sample_rate, n, amp, noise_seed, out)

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

    return IqStream(out, sample_rate, t0=0.0,
                    labels=np.full(n, LABEL_GENUINE, dtype=np.uint8))


def apply_multipath(iq: IqStream, taps) -> IqStream:
    """Superpose delayed, scaled copies: out = sum_k gain_k * iq(t - delay_k).

    Delays are quantized to the sample grid; labels pass through unchanged.
    An empty tap list yields an all-zero stream.
    """
    n = len(iq.samples)
    out = np.zeros(n, dtype=np.complex64)
    for delay, gain in taps:
        if delay < 0:
            raise ValueError(f"multipath delay must be >= 0, got {delay}")
        d = int(round(delay * iq.sample_rate))
        if d >= n:
            continue
        out[d:] += (np.complex64(gain) * iq.samples[:n - d])
    return IqStream(out, iq.sample_rate, iq.t0, iq.labels.copy())


def _apply_replay_chain(x: np.ndarray, sig: HardwareSignature, sample_rate: float,
                        seed: int) -> np.ndarray:
    """Pass a captured stream through the replay transmitter's chain.

    Float32 arithmetic throughout to stay within desk-scale memory; an
    identity signature skips every stage and returns the input bit-exact.
    """
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
        # polarity imbalance of the replay chain, applied by in-phase sign
        norm = np.sqrt((g * g + 1.0) / 2.0)
        scale = np.where(re > 0, np.float32(g / norm), np.float32(1.0 / norm))
        re *= scale
        im *= scale
        del scale

    if sig.phase_noise_std > 0:
        rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, 0x9E])
        chunk = int(round(sample_rate * SIM_EPOCH))
        n_chunks = -(-len(re) // chunk)
        walk = np.repeat(np.cumsum(rng.normal(0.0, sig.phase_noise_std, n_chunks)),
                         chunk)[:len(re)].astype(np.float32)
        c, s = np.cos(walk), np.sin(walk)
        del walk
        re, im = re * c - im * s, im * c + re * s

    y = np.empty(len(re), dtype=np.complex64)
    y.real = re
    y.imag = im
    return y


def spoof_overlay(genuine: IqStream, attack: AttackConfig, target_scenarios,
                  noise_seed: int = 0, noise_power: float = 1.0) -> IqStream:
    """Overlay an attacker on a genuine stream from takeover_time onward.

    Spoofing mode synthesizes the target satellites fresh through the
    spoofer's hardware signature; replay mode re-transmits the captured
    genuine stream through that signature. The attacker level sits at the
    configured offset above/below each genuine satellite's power. In
    seamless mode the genuine component stays on air underneath; otherwise
    it is removed at takeover (for spoofing, by subtracting the known clean
    signal so the noise realization is preserved).
    """
    fs = genuine.sample_rate
    n = len(genuine.samples)
    if attack.mode == "replay" and n == 0:
        raise ValueError("replay attack requires a recorded source stream")
    out = genuine.copy()
    k0 = int(round((attack.takeover_time - genuine.t0) * fs))
    if k0 >= n:
        return out
    k0 = max(k0, 0)
    scale = 10.0 ** (attack.power_offset_db / 20.0)

    if attack.mode == "replay":
        att = _apply_replay_chain(genuine.samples, attack.spoofer_signature, fs,
                                  attack.attack_seed)
        if scale != 1.0:
            att *= np.complex64(scale)
        if attack.seamless:
            out.samples[k0:] += att[k0:]
        else:
            out.samples[k0:] = att[k0:]
    else:
        # One buffer: the attacker, minus the clean genuine signal when the
        # takeover removes it.
        att = np.zeros(n, dtype=np.complex64)
        for scen in target_scenarios:
            amp = _satellite_amplitude(scen.cn0, noise_power, fs)
            spoofed_scen = replace(scen, signature=attack.spoofer_signature)
            _synthesize_satellite(spoofed_scen, fs, n, amp * scale,
                                  attack.attack_seed, att)
            if not attack.seamless:
                _synthesize_satellite(scen, fs, n, -amp, noise_seed, att)
        out.samples[k0:] += att[k0:]

    if attack.seamless and attack.power_offset_db < 0:
        out.labels[k0:] = LABEL_MIXED
    else:
        out.labels[k0:] = LABEL_SPOOFED
    return out

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

A scenario's stream is produced in blocks (stream_blocks): each block is
synthesized, passed through multipath and overlaid by the attack before
the next is started, so memory is bounded by the block, not the stream.
Each stage keeps a carry between blocks: the satellites' tiles and epoch
scalars and the noise generator (synthesize_genuine), the last max-delay
input samples (apply_multipath), and the attacker's satellites or replay
chain with the genuine samples the replay FIR still needs
(spoof_overlay). Tiles, scalars and the phase walks are computed once per
stream. Every sample depends only on its index and the draws are taken in
sample order, so the blocks join bit for bit into the stream that the
whole-stream calls give, whatever the block size; the attacker is only
synthesized or filtered from the takeover on.

The noise values do not depend on the signal, so stream_blocks draws the
next block's noise on one helper thread (numpy releases the GIL while it
fills the array) as soon as this block's noise has been added, while the
caller overlays and writes this block and adds the next block's
satellites. The draws still come from the one generator in sample order.
The thread is joined when the stream ends, is closed or fails.

Streams carry samples only. A scenario's ground truth follows from its
attack alone: label_runs gives it as (start, stop, code) sample runs,
genuine before the takeover and then spoofed, or mixed under a seamless
attack below the genuine power. label_intervals turns such runs, as
read back from a labels file, into time spans.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .prn_codes import CHIP_RATE, CODE_LENGTH, generate_ca_code

DEFAULT_SAMPLE_RATE = 2.048e6  # ~2 samples/chip; see README on grid choice
NAV_BIT_RATE = 50.0  # bits/s
BITS_PER_SUBFRAME = 300
SUBFRAME_PREAMBLE = (1, 0, 0, 0, 1, 0, 1, 1)
# One C/A code period: the synthesis tile length and the step of the phase
# random walk and of the per-epoch carrier rotator.
SIM_EPOCH = 1e-3
_BLOCK_EPOCHS = 64  # whole epochs a satellite adds per 2-D view of the output
_NOISE_CHUNK = 1 << 20  # samples of noise drawn at once
BLOCK_SAMPLES = 1 << 16  # samples per block of stream_blocks (32 ms at 2.048 MHz)

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
    """Complex baseband samples, their rate and the time of the first one."""

    samples: np.ndarray
    sample_rate: float
    t0: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex64)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")


def _takeover_index(attack: AttackConfig, sample_rate: float, n: int, t0: float = 0.0) -> int:
    """Index of the first attacked sample of an n-sample stream starting at t0."""
    return min(max(int(round((attack.takeover_time - t0) * sample_rate)), 0), n)


def label_runs(attack: AttackConfig | None, sample_rate: float, n: int) -> list:
    """Ground truth of an n-sample scenario stream as (start, stop, code) runs:
    genuine before the takeover, then spoofed, or mixed when a seamless attack
    sits below the genuine power; genuine throughout without an attack."""
    k0 = n if attack is None else _takeover_index(attack, sample_rate, n)
    mixed = attack is not None and attack.seamless and attack.power_offset_db < 0
    runs = [(0, k0, LABEL_GENUINE), (k0, n, LABEL_MIXED if mixed else LABEL_SPOOFED)]
    return [run for run in runs if run[0] < run[1]]


def label_intervals(runs, sample_rate: float, t0: float = 0.0) -> list:
    """(start, stop, code) runs of sample indices as (t_start, t_end, name) spans."""
    return [(t0 + a / sample_rate, t0 + b / sample_rate, LABEL_NAMES[code])
            for a, b, code in runs]


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


def sample_count(sample_rate: float, duration: float) -> int:
    """Samples in a stream of `duration` seconds."""
    return int(round(duration * sample_rate))


class _Satellite:
    """One satellite's clean signal over a stream of n samples.

    Sample i = E*k + r of epoch k is tile[r] times one complex scalar of
    epoch k, amp(bit) * bit * exp(j(omega*E*k + phi0 + walk[k])). The bit
    can only change where the code wraps, at the fixed in-tile sample
    `wrap`, so each epoch has a scalar before the wrap and one after it.
    The tile and every epoch's scalars are computed once; `add` then fills
    any window of the stream.
    """

    def __init__(self, scenario: SatelliteScenario, sample_rate: float, n: int,
                 amplitude: float, phase_seed: int):
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
        self.tile = (filt * np.exp(1j * omega * r)).astype(np.complex64)
        period = np.floor(phase_chips / CODE_LENGTH)
        self.wrap = int(np.searchsorted(period, period[0] + 1.0))
        self.epoch_len, self.n = epoch_len, n

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

        self.before = epoch_scalars(first)
        self.after = epoch_scalars(first + self.wrap)

    def _accumulate(self, block: np.ndarray, k0: int) -> None:
        """Add epochs k0, k0 + 1, ... into the rows of `block`."""
        k1 = k0 + block.shape[0]
        t = self.tile[:block.shape[1]]
        block[:, :self.wrap] += self.before[k0:k1, None] * t[:self.wrap]
        block[:, self.wrap:] += self.after[k0:k1, None] * t[self.wrap:]

    def add(self, out: np.ndarray, start: int) -> None:
        """Accumulate stream samples [start, start + len(out)) into `out`.

        An epoch the window cuts is computed whole, as the stream's last,
        shorter epoch is, and only its part inside the window is added, so
        each sample gets the same bits whatever the window.
        """
        epoch_len = self.epoch_len
        stop = start + len(out)
        k_lo, k_hi = -(-start // epoch_len), stop // epoch_len  # epochs wholly inside
        for k0 in range(k_lo, k_hi, _BLOCK_EPOCHS):
            k1 = min(k0 + _BLOCK_EPOCHS, k_hi)
            rows = out[k0 * epoch_len - start:k1 * epoch_len - start]
            self._accumulate(rows.reshape(k1 - k0, epoch_len), k0)
        for k in {k_lo - 1, k_hi}:
            a, b = max(k * epoch_len, start), min((k + 1) * epoch_len, stop)
            if a < b:
                row = np.zeros((1, min(epoch_len, self.n - k * epoch_len)), dtype=np.complex64)
                self._accumulate(row, k)
                out[a - start:b - start] += row[0, a - k * epoch_len:b - k * epoch_len]


def _draw_noise(rng: np.random.Generator, sigma: float, count: int) -> np.ndarray:
    """The noise of the next `count` samples: the generator's next 2 * count
    standard normal values times sigma, as interleaved float64 I,Q."""
    noise = rng.standard_normal(2 * count)
    noise *= sigma
    return noise


class _GenuineCarry:
    """What synthesize_genuine carries from one block to the next: each
    satellite's tile and epoch scalars, the noise generator with the draw
    running ahead on `pool`, and the next sample's index.

    Noise is drawn in chunks of at most _NOISE_CHUNK samples that never
    cross a block's end. With a `pool` (one worker thread), the next
    chunk's draw starts there as soon as this chunk's values have been
    added, and runs while the caller goes on.
    """

    def __init__(self, scenarios, sample_rate, duration, noise_seed, noise_power, add_noise,
                 block_samples=None, pool: ThreadPoolExecutor | None = None):
        samples_per_epoch(sample_rate)
        prns = [s.prn for s in scenarios]
        if len(set(prns)) != len(prns):
            raise ValueError(f"duplicate PRNs in scenario list: {sorted(prns)}")
        self.n = sample_count(sample_rate, duration)
        self.block = self.n if block_samples is None else block_samples
        self.satellites = [
            _Satellite(scen, sample_rate, self.n,
                       _satellite_amplitude(scen.cn0, noise_power, sample_rate), noise_seed)
            for scen in scenarios]
        self.noise = None
        if add_noise and noise_power > 0:
            self.noise = np.random.default_rng([int(noise_seed) & 0xFFFFFFFF, 0xA3])
        self.sigma = np.sqrt(noise_power / 2.0)
        self.pool, self.ahead = pool, None
        self.drawn = 0  # samples whose noise draw has been started
        self.pos = 0

    def _next_count(self) -> int:
        """Samples in the next chunk, counted as drawn."""
        count = min(_NOISE_CHUNK, self.block - self.drawn % self.block, self.n - self.drawn)
        self.drawn += count
        return count

    def next_noise(self) -> np.ndarray:
        """The next chunk's noise, waiting for the draw ahead if one runs."""
        if self.ahead is None:
            return _draw_noise(self.noise, self.sigma, self._next_count())
        ahead, self.ahead = self.ahead, None
        return ahead.result()

    def draw_ahead(self) -> None:
        """Start the draw of the chunk after the one just added, on the pool."""
        if self.pool is not None and self.drawn < self.n:
            self.ahead = self.pool.submit(_draw_noise, self.noise, self.sigma,
                                          self._next_count())


def synthesize_genuine(scenarios, sample_rate: float = DEFAULT_SAMPLE_RATE,
                       duration: float = 1.0, noise_seed: int = 0,
                       noise_power: float = 1.0, add_noise: bool = True,
                       carry: _GenuineCarry | None = None) -> IqStream:
    """Synthesize the genuine multi-satellite baseband stream.

    Each satellite contributes amp * gain(bit) * (code (*) fir) * bit *
    exp(j(2 pi doppler t + phi0 + phase_walk)); complex AWGN of total power
    noise_power per sample is added on top when add_noise is set. Raises
    ValueError unless sample_rate is at least two samples per chip and a
    whole number of samples per SIM_EPOCH.

    Without `carry` the result is the whole stream. `stream_blocks` passes
    a carry made from the same arguments, and each call then returns the
    stream's next block, its t0 the time of its first sample.
    """
    if carry is None:
        carry = _GenuineCarry(scenarios, sample_rate, duration, noise_seed, noise_power,
                              add_noise)
    start = carry.pos
    m = min(carry.block, carry.n - start)
    out = np.zeros(m, dtype=np.complex64)
    for sat in carry.satellites:
        sat.add(out, start)
    if carry.noise is not None:
        # One float64 draw per I,Q pair in sample order, so any block size
        # takes the same values from the generator.
        i = 0
        while i < m:
            noise = carry.next_noise()
            interleaved = out[i:i + len(noise) // 2].view(np.float32)
            interleaved += noise
            i += len(noise) // 2
            carry.draw_ahead()
    carry.pos += m
    return IqStream(out, sample_rate, t0=start / sample_rate)


class _MultipathCarry:
    """What apply_multipath carries from one block to the next: the last
    input samples as far back as the longest delay."""

    def __init__(self, taps, sample_rate: float, n: int):
        self.taps = []  # (delay in samples, complex64 gain), delays shorter than the stream
        for delay, gain in taps:
            if delay < 0:
                raise ValueError(f"multipath delay must be >= 0, got {delay}")
            d = int(round(delay * sample_rate))
            if d < n:
                self.taps.append((d, np.complex64(gain)))
        self.depth = max((d for d, _ in self.taps), default=0)
        self.tail = np.zeros(0, dtype=np.complex64)
        self.pos = 0


def apply_multipath(iq: IqStream, taps, carry: _MultipathCarry | None = None) -> IqStream:
    """Superpose delayed, scaled copies: out = sum_k gain_k * iq(t - delay_k).

    Delays are quantized to the sample grid. An empty tap list yields an
    all-zero stream. Without `carry`, `iq` is the whole stream; with the
    carry `stream_blocks` passes, it is the stream's next block.
    """
    if carry is None:
        carry = _MultipathCarry(taps, iq.sample_rate, len(iq.samples))
    m, start, back = len(iq.samples), carry.pos, len(carry.tail)
    # ext[j] is stream sample start - back + j
    ext = np.concatenate([carry.tail, iq.samples]) if back else iq.samples
    out = np.zeros(m, dtype=np.complex64)
    for d, gain in carry.taps:
        a = max(d - start, 0)  # first output sample this delay reaches
        if a < m:
            out[a:] += gain * ext[back + a - d:back + m - d]
    carry.tail = ext[max(len(ext) - carry.depth, 0):].copy()
    carry.pos += m
    return IqStream(out, iq.sample_rate, iq.t0)


class _ReplayChain:
    """The replay transmitter's chain: the signature's FIR, its polarity
    gain imbalance and its per-epoch phase walk, in float32 arithmetic.

    An identity signature skips every stage and returns the input bit-exact.
    """

    def __init__(self, sig: HardwareSignature, sample_rate: float, n: int, seed: int):
        self.taps = np.asarray(sig.filter_taps, dtype=np.float32)
        # A window filtered in 'same' mode matches the whole stream's output
        # when it carries a filter length of input on each side.
        self.margin = len(self.taps) if len(self.taps) > 1 else 0
        g = sig.gain_asymmetry
        norm = np.sqrt((g * g + 1.0) / 2.0)
        self.gains = None if g == 1.0 else (np.float32(g / norm), np.float32(1.0 / norm))
        self.epoch_len = int(round(sample_rate * SIM_EPOCH))
        self.cos = self.sin = None
        if sig.phase_noise_std > 0:
            # float32 cos/sin of the walk per epoch equal those of each sample.
            rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, 0x9E])
            n_epochs = -(-n // self.epoch_len)
            walk = np.cumsum(rng.normal(0.0, sig.phase_noise_std, n_epochs)).astype(np.float32)
            self.cos, self.sin = np.cos(walk), np.sin(walk)

    def apply(self, ext: np.ndarray, lo: int, start: int, stop: int) -> np.ndarray:
        """The chain's output at stream samples [start, stop), given the input
        samples [lo, lo + len(ext)): `margin` samples either side of the
        window, or up to the stream's ends."""
        re = ext.real.astype(np.float32, copy=True)
        im = ext.imag.astype(np.float32, copy=True)
        if len(self.taps) > 1:
            re = np.convolve(re, self.taps, mode="same")
            im = np.convolve(im, self.taps, mode="same")
        elif self.taps[0] != 1.0:
            re *= self.taps[0]
            im *= self.taps[0]
        re, im = re[start - lo:stop - lo], im[start - lo:stop - lo]

        if self.gains is not None:
            # polarity imbalance of the replay chain, applied by in-phase sign
            scale = np.where(re > 0, *self.gains)
            re *= scale
            im *= scale

        y = np.empty(stop - start, dtype=np.complex64)
        if self.cos is None:
            y.real, y.imag = re, im
            return y
        k0, k1 = start // self.epoch_len, -(-stop // self.epoch_len)
        window = slice(start - k0 * self.epoch_len, stop - k0 * self.epoch_len)
        c = np.repeat(self.cos[k0:k1], self.epoch_len)[window]
        s = np.repeat(self.sin[k0:k1], self.epoch_len)[window]
        # re*c - im*s and im*c + re*s, rounded as written, straight into y
        y_re, y_im = y.real, y.imag
        t = im * s
        np.multiply(re, c, out=y_re)
        y_re -= t
        np.multiply(re, s, out=t)
        np.multiply(im, c, out=y_im)
        y_im += t
        return y


class _OverlayCarry:
    """What spoof_overlay carries from one block to the next: the attacker's
    satellites or replay chain, the genuine samples the replay FIR still
    needs and the next output sample's index."""

    def __init__(self, attack: AttackConfig, target_scenarios, sample_rate: float, n: int,
                 t0: float, noise_seed: int, noise_power: float):
        if attack.mode == "replay" and n == 0:
            raise ValueError("replay attack requires a recorded source stream")
        self.n, self.t0 = n, t0
        self.k0 = _takeover_index(attack, sample_rate, n, t0)
        self.scale = 10.0 ** (attack.power_offset_db / 20.0)
        self.chain, self.satellites, self.margin = None, [], 0
        if self.k0 < n and attack.mode == "replay":
            self.chain = _ReplayChain(attack.spoofer_signature, sample_rate, n,
                                      attack.attack_seed)
            self.margin = self.chain.margin
        elif self.k0 < n:
            # The attacker, and the negated clean genuine signal when the
            # takeover removes it, summed in one buffer.
            for scen in target_scenarios:
                amp = _satellite_amplitude(scen.cn0, noise_power, sample_rate)
                self.satellites.append(
                    _Satellite(replace(scen, signature=attack.spoofer_signature),
                               sample_rate, n, amp * self.scale, attack.attack_seed))
                if not attack.seamless:
                    self.satellites.append(_Satellite(scen, sample_rate, n, -amp, noise_seed))
        self.held = np.zeros(0, dtype=np.complex64)
        self.held_from = 0  # stream index of held[0]
        self.pos = 0


def spoof_overlay(genuine: IqStream, attack: AttackConfig, target_scenarios,
                  noise_seed: int = 0, noise_power: float = 1.0,
                  carry: _OverlayCarry | None = None) -> IqStream:
    """Overlay an attacker on a genuine stream from takeover_time onward.

    Spoofing mode synthesizes the target satellites fresh through the
    spoofer's hardware signature; replay mode re-transmits the captured
    genuine stream through that signature. The attacker level sits at the
    configured offset above/below each genuine satellite's power. In
    seamless mode the genuine component stays on air underneath; otherwise
    it is removed at takeover (for spoofing, by subtracting the known clean
    signal so the noise realization is preserved). Only samples from the
    takeover on are synthesized or filtered.

    Without `carry`, `genuine` is the whole stream. With the carry
    `stream_blocks` passes, it is the stream's next block, and the result
    runs from where the previous call's ended: in replay mode the FIR needs
    input past the block, so the output lags the input by the FIR length
    until the block that ends the stream.
    """
    fs = genuine.sample_rate
    if carry is None:
        carry = _OverlayCarry(attack, target_scenarios, fs, len(genuine.samples), genuine.t0,
                              noise_seed, noise_power)
    held, h0 = genuine.samples, carry.held_from
    if len(carry.held):
        held = np.concatenate([carry.held, held])
    start, end = carry.pos, h0 + len(held)
    stop = end if end == carry.n else max(end - carry.margin, start)
    a = max(start, carry.k0)
    att = None
    if a < stop and carry.chain is not None:
        lo, hi = max(a - carry.margin, 0), min(stop + carry.margin, carry.n)
        att = carry.chain.apply(held[lo - h0:hi - h0], lo, a, stop)
        if carry.scale != 1.0:
            att *= np.complex64(carry.scale)
    elif a < stop:
        att = np.zeros(stop - a, dtype=np.complex64)
        for sat in carry.satellites:
            sat.add(att, a)

    # The genuine samples stay under a spoofer (which subtracts the clean
    # genuine signal itself when it takes over) and under a seamless replay.
    genuine_stays = carry.chain is None or attack.seamless
    if att is not None and a == start:
        # The attack covers the whole block, so the output is built in its
        # array; a sum is the same in either order.
        out = att
        if genuine_stays:
            out += held[start - h0:stop - h0]
    else:
        out = held[start - h0:stop - h0].copy()
        if att is not None:
            if genuine_stays:
                out[a - start:] += att
            else:
                out[a - start:] = att

    keep = max(stop - carry.margin, 0)
    carry.held, carry.held_from, carry.pos = held[keep - h0:].copy(), keep, stop
    return IqStream(out, fs, carry.t0 + start / fs)


def stream_blocks(scenarios, sample_rate: float = DEFAULT_SAMPLE_RATE, duration: float = 1.0,
                  noise_seed: int = 0, noise_power: float = 1.0, add_noise: bool = True,
                  multipath=(), attack: AttackConfig | None = None, target_scenarios=()):
    """Yield a scenario's stream as consecutive IqStream blocks.

    Each block of BLOCK_SAMPLES samples is synthesized
    (synthesize_genuine), passed through the `multipath` taps when there
    are any (apply_multipath) and overlaid by `attack` on target_scenarios
    when set (spoof_overlay), each stage carrying what it needs from
    earlier blocks. Concatenated, the blocks are bit for bit the stream
    those calls give on the whole stream, whatever the block size; memory
    is bounded by the block plus a few scalars per 1 ms epoch.
    """
    block = BLOCK_SAMPLES
    # The pool's one thread starts on the first draw ahead; leaving the
    # `with` (at the end, on close() or on an error) joins it.
    with ThreadPoolExecutor(1, thread_name_prefix="gnssfp-noise") as pool:
        genuine = _GenuineCarry(scenarios, sample_rate, duration, noise_seed, noise_power,
                                add_noise, block, pool)
        channel = _MultipathCarry(multipath, sample_rate, genuine.n) if multipath else None
        overlay = None
        if attack is not None:
            overlay = _OverlayCarry(attack, target_scenarios, sample_rate, genuine.n, 0.0,
                                    noise_seed, noise_power)
        for _ in range(max(1, -(-genuine.n // block))):
            iq = synthesize_genuine(scenarios, sample_rate, duration, noise_seed, noise_power,
                                    add_noise, carry=genuine)
            if channel is not None:
                iq = apply_multipath(iq, multipath, carry=channel)
            if overlay is not None:
                iq = spoof_overlay(iq, attack, target_scenarios, noise_seed, noise_power,
                                   carry=overlay)
            yield iq

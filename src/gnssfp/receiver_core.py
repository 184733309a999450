"""Software GPS channel: acquisition, EPL correlator tracking, lock detectors.

One channel is a sequential state machine over fixed integration epochs.
Per epoch the incoming block is carrier-wiped and correlated against three
code replicas (early/prompt/late at -d/2, 0, +d/2 chips); the complex
correlator output follows the conjugate-multiply form

    M = (I + jQ)(I_rep - jQ_rep)
      = (I I_rep + Q Q_rep) + j (Q I_rep - Q_rep I)

so a matched, phase-locked epoch concentrates its energy in the real part
and leaves the imaginary part near zero. Code tracking uses a normalized
non-coherent early-minus-late discriminator, carrier tracking a Costas
atan discriminator, both through first-order (PI) loop filters.

The receiver settings are module constants, read when a function is
called: INTEGRATION_TIME (1 ms epochs), _EL_SPACING (0.5 chip between the
early and late replicas) and the loop bandwidths _DLL_BANDWIDTH (2 Hz) and
_PLL_BANDWIDTH (25 Hz). Two lock tests gate every epoch: the C/N0 test
(estimate >= _GAMMA_CODE, 32 dB-Hz) and the carrier lock test on the
estimate of cos(2*dphi) (>= _GAMMA_CARRIER, 0.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prn_codes import CHIP_RATE, CODE_LENGTH, generate_ca_code, sample_code
from .signal_sim import IqStream

STATUS_COMPLETED = "completed"
STATUS_LOSS_OF_LOCK = "loss_of_lock"

LOCK_PASS = "pass"
LOCK_FAIL_CODE = "fail_code"
LOCK_FAIL_CARRIER = "fail_carrier"
LOCK_FAIL_BOTH = "fail_both"

INTEGRATION_TIME = 1e-3  # s, one epoch
_EL_SPACING = 0.5  # chips between early and late replicas
_DLL_BANDWIDTH = 2.0  # Hz
_PLL_BANDWIDTH = 25.0  # Hz
_GAMMA_CODE = 32.0  # dB-Hz, C/N0 lock threshold
_GAMMA_CARRIER = 0.5  # threshold on the cos(2*dphi) estimate
_LOSS_OF_LOCK_EPOCHS = 50  # consecutive code-test failures before giving up
_LOCK_WINDOW = 20  # epochs feeding the C/N0 and carrier-lock estimators
_LOCK_BLOCK = 64  # epochs whose lock estimates track_channel computes at once
_ACQ_THRESHOLD = 2.0  # peak-to-second-peak metric that declares a PRN acquired
_ACQ_PERIODS = 8  # code periods summed non-coherently per Doppler bin
_REFINE_PERIODS = 16  # code periods whose phase ramp refines the Doppler


@dataclass(frozen=True)
class AcquisitionResult:
    prn: int
    code_phase: float  # chips
    doppler: float  # Hz
    peak_metric: float  # peak-to-second-peak ratio
    acquired: bool


# One integration interval per record. The layout is the epoch CSV's eleven
# float64 columns in order (each complex field is its _re, _im pair).
EPOCH_DTYPE = np.dtype([
    ("t", np.float64),  # epoch start, seconds
    ("e", np.complex128), ("p", np.complex128), ("l", np.complex128),
    ("cn0_est", np.float64),  # dB-Hz; 0.0 during estimator warm-up
    ("clt_est", np.float64),  # cos(2*dphi) estimate in [-1, 1]; 0.0 during warm-up
    ("code_phase", np.float64),  # chips, replica phase used this epoch
    ("doppler", np.float64),  # Hz, carrier frequency used this epoch
])


@dataclass
class TrackResult:
    prn: int
    status: str
    epochs: np.recarray  # of EPOCH_DTYPE


def acquire(iq: IqStream, prn: int, doppler_range: float = 5000.0,
            doppler_bin: float = 250.0) -> AcquisitionResult:
    """Parallel code-phase search over a grid of Doppler bins.

    Correlates one code period per bin via FFT and sums _ACQ_PERIODS
    non-coherently (one nav-bit edge cannot wipe out both periods). The
    detection metric is the peak over the largest value outside +/-1 chip
    of the peak; acquired when it reaches _ACQ_THRESHOLD. When acquired, the
    Doppler of the arg-max cell is refined from the phase ramp of
    consecutive-period correlations (squared to shed bit flips).
    """
    fs = iq.sample_rate
    period = _code_period(fs)
    if len(iq.samples) < 2 * period:
        raise ValueError(f"need at least two code periods ({2 * period} samples), "
                         f"got {len(iq.samples)}")
    num_periods = min(_ACQ_PERIODS, len(iq.samples) // period)

    code = generate_ca_code(prn)
    replica = sample_code(code, fs, CHIP_RATE, 0.0, period).astype(np.float64)
    replica_fft_conj = np.conj(np.fft.fft(replica))

    dopplers = np.arange(-doppler_range, doppler_range + doppler_bin / 2, doppler_bin)
    t = np.arange(period) / fs
    n_corr = num_periods * period
    x_re = iq.samples[:n_corr].real.astype(np.float64).reshape(num_periods, period)
    x_im = iq.samples[:n_corr].imag.astype(np.float64).reshape(num_periods, period)

    best = (-1.0, 0, 0.0)  # (power, sample lag, doppler)
    guard = int(np.ceil(fs / CHIP_RATE))  # +/- 1 chip around the peak
    best_map = None
    seg = np.empty((num_periods, period), dtype=np.complex128)
    for f in dopplers:
        theta = 2.0 * np.pi * f * t
        c, s = np.cos(theta), np.sin(theta)
        # all periods of one bin at once: row-wise FFTs equal per-period
        # calls bit for bit, and the axis-0 sum adds the rows in order
        seg.real = x_re * c + x_im * s
        seg.imag = x_im * c - x_re * s
        corr = np.fft.ifft(np.fft.fft(seg, axis=1) * replica_fft_conj, axis=1)
        acc = (corr.real ** 2 + corr.imag ** 2).sum(axis=0)
        k = int(np.argmax(acc))
        if acc[k] > best[0]:
            best = (acc[k], k, float(f))
            best_map = acc

    peak_power, k_peak, doppler_hat = best
    mask = np.ones(period, dtype=bool)
    for off in range(-guard, guard + 1):
        mask[(k_peak + off) % period] = False
    second = best_map[mask].max()
    metric = float(np.sqrt(peak_power / second)) if second > 0 else np.inf

    code_phase = ((period - k_peak) % period) * CHIP_RATE / fs
    acquired = metric >= _ACQ_THRESHOLD

    if acquired:
        doppler_hat += _refine_doppler(iq, replica, k_peak, doppler_hat, period)

    return AcquisitionResult(prn=prn, code_phase=float(code_phase % CODE_LENGTH),
                             doppler=doppler_hat, peak_metric=metric,
                             acquired=acquired)


def _code_period(sample_rate: float) -> int:
    """Samples in one C/A code period."""
    return int(round(sample_rate * CODE_LENGTH / CHIP_RATE))


def acquisition_samples(sample_rate: float) -> int:
    """Samples from the start of a stream that `acquire` reads.

    Enough for the _ACQ_PERIODS it correlates and for the _REFINE_PERIODS
    of its Doppler refinement, which asks for one period more, so `acquire`
    on this head of a longer stream equals `acquire` on the whole stream.
    """
    return max(_ACQ_PERIODS, _REFINE_PERIODS + 1) * _code_period(sample_rate)


def _refine_doppler(iq: IqStream, replica: np.ndarray, lag: int,
                    doppler: float, period: int) -> float:
    """Residual Doppler from the phase ramp of per-period prompt sums."""
    fs = iq.sample_rate
    n_periods = min(_REFINE_PERIODS, len(iq.samples) // period - 1)
    if n_periods < 4:
        return 0.0
    aligned = np.roll(replica, lag)
    z = np.empty(n_periods, dtype=np.complex128)
    for p in range(n_periods):
        blk = iq.samples[p * period:(p + 1) * period]
        re = blk.real.astype(np.float64) * aligned
        im = blk.imag.astype(np.float64) * aligned
        theta = 2.0 * np.pi * doppler * (np.arange(period) + p * period) / fs
        c, s = np.cos(theta), np.sin(theta)
        z[p] = complex(np.sum(re * c + im * s), np.sum(im * c - re * s))
    # squaring removes BPSK sign flips; spectrum peak sits at 2*df
    nfft = 4096
    spec = np.abs(np.fft.fft(z * z, nfft))
    freqs = np.fft.fftfreq(nfft, d=period / fs)
    return float(freqs[int(np.argmax(spec))] / 2.0)


def _loop_coefficients(bandwidth: float, damping: float, gain: float):
    """Classic PI loop-filter time constants for a second-order loop."""
    wn = 8.0 * damping * bandwidth / (4.0 * damping ** 2 + 1.0)
    tau1 = gain / (wn * wn)
    tau2 = 2.0 * damping / wn
    return tau1, tau2


def track_channel(blocks, init: AcquisitionResult) -> TrackResult:
    """Run the DLL/PLL channel over a stream, one epoch per record.

    `blocks` is an IqStream, or consecutive IqStream blocks of one stream
    (the whole stream is the one-block case). The loop, NCO and lock state,
    the global epoch index and the samples of an epoch that straddles a
    block edge carry from block to block, so any split of the stream gives
    the same epochs bit for bit, and blocks are read only as far as
    tracking goes. Returns one EPOCH_DTYPE record per INTEGRATION_TIME,
    timestamped t0 + k * INTEGRATION_TIME from the first block's t0.
    Terminates early with a loss-of-lock status when the C/N0 test fails 50
    epochs in a row (after warm-up).
    """
    if not init.acquired:
        raise ValueError(f"cannot track PRN {init.prn}: acquisition failed")
    if not 0.0 <= init.code_phase < CODE_LENGTH:
        raise ValueError(f"initial code phase must be in [0, {CODE_LENGTH}) chips, "
                         f"got {init.code_phase}")
    blocks = iter((blocks,) if isinstance(blocks, IqStream) else blocks)
    block = next(blocks, None)
    if block is None:
        return TrackResult(prn=init.prn, status=STATUS_COMPLETED,
                           epochs=np.zeros(0, dtype=EPOCH_DTYPE).view(np.recarray))
    fs, t0 = block.sample_rate, block.t0
    T = INTEGRATION_TIME
    n_epoch = int(round(fs * T))

    # The initial code phase, one epoch of code and a spare period, so the
    # replica gathers index without a modulo (three periods at 1 ms).
    periods = 2 + int(np.ceil(n_epoch * CHIP_RATE / fs / CODE_LENGTH))
    chips = np.tile(generate_ca_code(init.prn).chips.astype(np.float64), periods)
    half = _EL_SPACING / 2.0

    tau1_d, tau2_d = _loop_coefficients(_DLL_BANDWIDTH, 0.707, 1.0)
    tau1_c, tau2_c = _loop_coefficients(_PLL_BANDWIDTH, 0.707, 0.25)

    code_phase = init.code_phase
    code_freq = CHIP_RATE
    carr_freq = init.doppler
    carr_phase = 0.0
    code_nco = code_err_old = 0.0
    carr_nco = carr_err_old = 0.0

    i_arr = np.arange(n_epoch, dtype=np.float64)

    epochs = np.zeros(0, dtype=EPOCH_DTYPE)
    n_epochs = 0  # epochs tracked so far; the global index of the next one
    partial = np.zeros(0, dtype=np.complex64)  # samples of an unfinished epoch
    code_fail_run = 0
    lock_from = _LOCK_WINDOW - 1  # first epoch without lock estimates yet
    lost_at = None  # the epoch at which the C/N0 test ends the channel

    while block is not None:
        if block.sample_rate != fs:
            raise ValueError(f"blocks of one stream must share a sample rate: "
                             f"{block.sample_rate} after {fs}")
        samples = np.concatenate((partial, block.samples)) if len(partial) else block.samples
        k0, n_epochs = n_epochs, n_epochs + len(samples) // n_epoch
        partial = samples[(n_epochs - k0) * n_epoch:].copy()
        if n_epochs > len(epochs):
            # Doubled in place (realloc, zero-filled) rather than copied, so
            # growing never holds the old and the new records at once; no
            # view of the records is alive here. A lone stream fits exactly.
            epochs.resize(max(n_epochs, 2 * len(epochs)), refcheck=False)

        for k in range(k0, n_epochs):
            e, p, l = _correlate(samples[(k - k0) * n_epoch:(k - k0 + 1) * n_epoch], chips,
                                 i_arr, half, code_phase, code_freq, carr_phase, carr_freq, fs)

            epochs[k] = (t0 + k * T, e, p, l, 0.0, 0.0, code_phase, carr_freq)

            carr_phase = float(np.mod(carr_phase + 2.0 * np.pi * carr_freq / fs * n_epoch,
                                      2.0 * np.pi))
            code_phase = float(np.mod(code_phase + code_freq / fs * n_epoch, CODE_LENGTH))

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

            # The loops never read the lock estimates, so they are filled in
            # _LOCK_BLOCK epochs at a time, and at the end of the stream; a
            # loss of lock inside a block truncates at the same epoch as an
            # epoch-by-epoch check.
            if k + 1 - lock_from == _LOCK_BLOCK:
                code_fail_run, lost_at = _fill_lock_estimates(epochs, lock_from, k + 1,
                                                              code_fail_run)
                if lost_at is not None:
                    break
                lock_from = k + 1
        if lost_at is not None:
            break
        # Let go of this block before the next one is decoded, so one block
        # of the stream is held at a time.
        block = samples = None
        block = next(blocks, None)
    else:
        _, lost_at = _fill_lock_estimates(epochs, lock_from, n_epochs, code_fail_run)

    status = STATUS_COMPLETED if lost_at is None else STATUS_LOSS_OF_LOCK
    epochs.resize(n_epochs if lost_at is None else lost_at + 1, refcheck=False)
    return TrackResult(prn=init.prn, status=status, epochs=epochs.view(np.recarray))


def _correlate(blk: np.ndarray, chips: np.ndarray, i_arr: np.ndarray, half: float,
               code_phase: float, code_freq: float, carr_phase: float, carr_freq: float,
               fs: float):
    """Early, prompt and late correlations of one epoch of samples.

    The carrier is wiped off from carr_phase at carr_freq and the replicas
    start at code_phase. The temporaries die on return, so none outlives
    the epoch.
    """
    re = blk.real.astype(np.float64)
    im = blk.imag.astype(np.float64)

    # base is >= 0 and stays below code_phase < 1023 plus one epoch of
    # code (about 2,047 chips at 1 ms). For x >= 0, floor(fmod(x, 1023))
    # equals floor(x) mod 1023 exactly, since fmod is exact, so indexing
    # the periodic table at floor(x) picks the chip np.mod picked. The
    # late index is -1 for base - half in [-half, 0) and wraps to chip
    # 1022, where np.mod could round up to 1023.0 and overrun.
    base = code_phase + (code_freq / fs) * i_arr
    idx_p = base.astype(np.int64)
    idx_e = (base + half).astype(np.int64)
    idx_l = np.floor(base - half).astype(np.int64)

    # carrier wipe x = blk * exp(-j theta), kept in split real arithmetic
    theta = (2.0 * np.pi * carr_freq / fs) * i_arr + carr_phase
    c, s = np.cos(theta), np.sin(theta)
    xr = re * c
    xr += im * s
    xi = im * c
    xi -= re * s

    ce, cp, cl = chips[idx_e], chips[idx_p], chips[idx_l]
    return complex(xr @ ce, xi @ ce), complex(xr @ cp, xi @ cp), complex(xr @ cl, xi @ cl)


def _fill_lock_estimates(epochs: np.ndarray, start: int, stop: int, code_fail_run: int):
    """Fill the lock estimates of epochs start..stop-1 in place and carry the
    run of C/N0 test failures through them.

    Returns the run and the epoch at which it reaches _LOSS_OF_LOCK_EPOCHS,
    or None while the channel keeps lock.
    """
    cn0, clt = _lock_estimates(epochs["p"][_ring_windows(start, stop)], INTEGRATION_TIME)
    epochs["cn0_est"][start:stop] = cn0
    epochs["clt_est"][start:stop] = clt
    for j, failed in enumerate((cn0 < _GAMMA_CODE).tolist(), start=start):
        code_fail_run = code_fail_run + 1 if failed else 0
        if code_fail_run >= _LOSS_OF_LOCK_EPOCHS:
            return code_fail_run, j
    return code_fail_run, None


def _ring_windows(start: int, stop: int) -> np.ndarray:
    """Epoch indices of the lock windows ending at epochs start..stop-1.

    Row r lists the last _LOCK_WINDOW epochs up to start + r, each in the
    slot (epoch mod _LOCK_WINDOW) of a ring buffer of prompts, so the
    estimator sums them in the order an epoch-by-epoch ring would.
    """
    ends = np.arange(start, stop)[:, None]
    return ends - (ends - np.arange(_LOCK_WINDOW)) % _LOCK_WINDOW


def _nwpr_cn0(sum_abs_i, sum_sign_q, wide_power, m: int, integration_time: float):
    """Narrowband/wideband power-ratio C/N0, in dB-Hz.

    The narrowband (coherent) sum uses per-epoch hard-decision data
    wipe-off (|I|, sign(I)*Q) so nav-bit transitions inside the window do
    not need bit synchronization. The ratio saturates when noise vanishes;
    the denominator clamp bounds the reported ceiling.
    """
    narrow = sum_abs_i * sum_abs_i + sum_sign_q * sum_sign_q
    np_ratio = narrow / wide_power
    snr = np.maximum(np_ratio - 1.0, 1e-12) / np.maximum(m - np_ratio, 1e-9)
    return 10.0 * np.log10(snr / integration_time)


def _lock_estimates(prompts: np.ndarray, integration_time: float):
    """NWPR C/N0 (dB-Hz) and cos(2*dphi) estimates over windows of prompts.

    Each window is the last axis of `prompts`, so a (20,) window gives two
    scalars and an (m, 20) stack two (m,) arrays. The carrier-lock estimate
    is (sum I^2 - sum Q^2) / (sum I^2 + sum Q^2). A window carrying no power
    reports (0.0, 0.0).
    """
    ip, qp = prompts.real, prompts.imag
    sq_i = (ip * ip).sum(axis=-1)
    sq_q = (qp * qp).sum(axis=-1)
    wide = sq_i + sq_q
    powered = wide > 0.0
    wide = np.where(powered, wide, 1.0)
    cn0 = _nwpr_cn0(np.abs(ip).sum(axis=-1), np.where(ip >= 0, qp, -qp).sum(axis=-1),
                    wide, prompts.shape[-1], integration_time)
    # [()] turns the 0-d results of a single window into scalars
    return (np.where(powered, cn0, 0.0)[()],
            np.where(powered, (sq_i - sq_q) / wide, 0.0)[()])


def lock_masks(epochs: np.ndarray):
    """Code (C/N0) and carrier (cos 2*dphi) lock tests over an epoch array.

    Returns the (code_ok, carrier_ok) boolean arrays; both thresholds are
    inclusive.
    """
    return epochs["cn0_est"] >= _GAMMA_CODE, epochs["clt_est"] >= _GAMMA_CARRIER

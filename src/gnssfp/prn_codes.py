"""GPS L1 C/A spreading codes (Gold codes) and chip-level utilities.

Each of the 32 operational satellites is identified by a 1023-chip Gold
sequence built from two 10-stage maximal LFSRs (G1, G2); the PRN selects
which pair of G2 stages is XORed into the output. Chips are mapped
0 -> +1, 1 -> -1, the convention used everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

CODE_LENGTH = 1023
CHIP_RATE = 1.023e6  # chips/s

# G2 output tap pair per PRN 1..32 (stage numbers 1..10). PRNs 33-37 are
# reserved and deliberately not included.
G2_TAPS = {
    1: (2, 6), 2: (3, 7), 3: (4, 8), 4: (5, 9), 5: (1, 9),
    6: (2, 10), 7: (1, 8), 8: (2, 9), 9: (3, 10), 10: (2, 3),
    11: (3, 4), 12: (5, 6), 13: (6, 7), 14: (7, 8), 15: (8, 9),
    16: (9, 10), 17: (1, 4), 18: (2, 5), 19: (3, 6), 20: (4, 7),
    21: (5, 8), 22: (6, 9), 23: (1, 3), 24: (4, 6), 25: (5, 7),
    26: (6, 8), 27: (7, 9), 28: (8, 10), 29: (1, 6), 30: (2, 7),
    31: (3, 8), 32: (4, 9),
}


@dataclass(frozen=True)
class CaCode:
    """A satellite's C/A spreading sequence: 1023 chips in {+1, -1}."""

    prn: int
    chips: np.ndarray = field(repr=False)

    def __post_init__(self):
        chips = np.asarray(self.chips, dtype=np.int8)
        if chips.shape != (CODE_LENGTH,):
            raise ValueError(f"C/A code must have {CODE_LENGTH} chips, got {chips.shape}")
        if not np.all(np.abs(chips) == 1):
            raise ValueError("C/A chips must be +1 or -1")
        object.__setattr__(self, "chips", chips)


def _lfsr_sequence(feedback_stages, output_stages):
    """Run a 10-stage LFSR (all-ones seed) for one full 1023-chip period.

    Output bit is the XOR over `output_stages`; feedback is the XOR over
    `feedback_stages`. Stage numbers are 1-based as in the ICD tables.
    """
    reg = np.ones(10, dtype=np.int8)
    out = np.empty(CODE_LENGTH, dtype=np.int8)
    fb_idx = [s - 1 for s in feedback_stages]
    out_idx = [s - 1 for s in output_stages]
    for i in range(CODE_LENGTH):
        bit = 0
        for j in out_idx:
            bit ^= reg[j]
        out[i] = bit
        fb = 0
        for j in fb_idx:
            fb ^= reg[j]
        reg[1:] = reg[:-1]
        reg[0] = fb
    return out


@lru_cache(maxsize=None)
def generate_ca_code(prn: int) -> CaCode:
    """Generate the C/A Gold code for a PRN in 1..32.

    G1 feedback 3,10 with output at stage 10; G2 feedback 2,3,6,8,9,10 with
    the output formed by XORing the PRN's tap pair. Bit mapping 0 -> +1,
    1 -> -1.
    """
    if not isinstance(prn, (int, np.integer)) or isinstance(prn, bool):
        raise ValueError(f"prn must be an integer in 1..32, got {prn!r}")
    if not 1 <= prn <= 32:
        raise ValueError(f"prn must be in 1..32, got {prn}")
    g1 = _lfsr_sequence([3, 10], [10])
    g2 = _lfsr_sequence([2, 3, 6, 8, 9, 10], G2_TAPS[int(prn)])
    bits = g1 ^ g2
    chips = (1 - 2 * bits).astype(np.int8)
    return CaCode(prn=int(prn), chips=chips)


def sample_code(code: CaCode, sample_rate: float, chip_rate: float = CHIP_RATE,
                code_phase: float = 0.0, length: int | None = None) -> np.ndarray:
    """Resample a C/A code onto a sample grid by nearest-chip (zero-order hold).

    out[i] = chips[floor(code_phase + i * chip_rate / sample_rate) mod 1023].
    Keeps the replica ±1-valued; no interpolation.
    """
    if sample_rate < chip_rate:
        raise ValueError(f"sample_rate {sample_rate} below chip_rate {chip_rate}")
    if length is None:
        length = int(round(sample_rate / chip_rate * CODE_LENGTH))
    step = chip_rate / sample_rate
    idx = np.floor(code_phase + step * np.arange(length)).astype(np.int64) % CODE_LENGTH
    return code.chips[idx]

import numpy as np
import pytest

from gnssfp.prn_codes import CODE_LENGTH, generate_ca_code, sample_code
from helpers import circular_correlate, oracle_circcorr

# First 10 chips of each code as an octal word, computed before the build by
# an independent two-LFSR simulation driven by the published G2 delay table
# (a different parameterization than the tap pairs used in production).
# PRN 1 = 1440 is the published anchor value.
FIRST10_OCTAL = {
    1: 0o1440, 2: 0o1620, 3: 0o1710, 4: 0o1744, 5: 0o1133, 6: 0o1455,
    7: 0o1131, 8: 0o1454, 9: 0o1626, 10: 0o1504, 11: 0o1642, 12: 0o1750,
    13: 0o1764, 14: 0o1772, 15: 0o1775, 16: 0o1776, 17: 0o1156, 18: 0o1467,
    19: 0o1633, 20: 0o1715, 21: 0o1746, 22: 0o1763, 23: 0o1063, 24: 0o1706,
    25: 0o1743, 26: 0o1761, 27: 0o1770, 28: 0o1774, 29: 0o1127, 30: 0o1453,
    31: 0o1625, 32: 0o1712,
}

# Independent oracle: G2 delayed by whole chips instead of tap selection.
G2_DELAY = [5, 6, 7, 8, 17, 18, 139, 140, 141, 251,
            252, 254, 255, 256, 257, 258, 469, 470, 471, 472,
            473, 474, 509, 512, 513, 514, 515, 516, 859, 860,
            861, 862]


def _oracle_code(prn):
    def lfsr(feedback_stages, out_stage):
        reg = [1] * 10
        out = []
        for _ in range(CODE_LENGTH):
            out.append(reg[out_stage - 1])
            fb = 0
            for stage in feedback_stages:
                fb ^= reg[stage - 1]
            reg = [fb] + reg[:-1]
        return np.array(out)

    g1 = lfsr([3, 10], 10)
    g2 = np.roll(lfsr([2, 3, 6, 8, 9, 10], 10), G2_DELAY[prn - 1])
    return 1 - 2 * (g1 ^ g2)


def test_first_chips_match_published_octal():
    for prn, expected in FIRST10_OCTAL.items():
        chips = generate_ca_code(prn).chips
        bits = (1 - chips[:10]) // 2  # invert the 0->+1, 1->-1 mapping
        word = int("".join(str(b) for b in bits), 2)
        assert word == expected, f"PRN {prn}: {oct(word)} != {oct(expected)}"


def test_codes_match_delay_table_oracle():
    for prn in range(1, 33):
        assert np.array_equal(generate_ca_code(prn).chips, _oracle_code(prn)), prn


def test_code_invariants():
    for prn in range(1, 33):
        code = generate_ca_code(prn)
        assert code.chips.shape == (CODE_LENGTH,)
        assert set(np.unique(code.chips)) <= {-1, 1}
        assert abs(int(code.chips.sum())) == 1  # 512/511 balance
        auto = circular_correlate(code.chips, code.chips)
        assert auto[0] == CODE_LENGTH


def test_generation_deterministic():
    a = generate_ca_code(17)
    b = generate_ca_code(17)
    assert np.array_equal(a.chips, b.chips)


@pytest.mark.parametrize("prn", [0, 33, -1, 100])
def test_invalid_prn_rejected(prn):
    with pytest.raises(ValueError):
        generate_ca_code(prn)


def test_circular_correlate_hand_case():
    out = circular_correlate([1, 1, -1], [1, 1, -1])
    assert out.tolist() == [3, -1, -1]


def test_circular_correlate_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 64))
        a = rng.choice([-1, 1], n)
        b = rng.choice([-1, 1], n)
        assert np.array_equal(circular_correlate(a, b), oracle_circcorr(a, b))


def test_circular_correlate_length_mismatch():
    with pytest.raises(ValueError):
        circular_correlate([1, -1], [1, -1, 1])


def test_gold_three_valued_cross_correlation_sample_pairs():
    for a, b in [(1, 2), (1, 7), (3, 19), (5, 32)]:
        ca = generate_ca_code(a).chips
        cb = generate_ca_code(b).chips
        cross = oracle_circcorr(ca.astype(np.int64), cb.astype(np.int64))
        assert set(np.unique(cross)) <= {-65, -1, 63}, (a, b)
        assert np.abs(cross).max() <= 65
        assert np.array_equal(circular_correlate(ca, cb), cross)


def test_sample_code_unit_rate_identity():
    code = generate_ca_code(4)
    out = sample_code(code, 1.023e6, 1.023e6, 0.0, CODE_LENGTH)
    assert np.array_equal(out, code.chips)


def test_sample_code_phase_wraps_at_code_length():
    code = generate_ca_code(4)
    a = sample_code(code, 2.5e6, 1.023e6, 0.0, 4000)
    b = sample_code(code, 2.5e6, 1.023e6, float(CODE_LENGTH), 4000)
    assert np.array_equal(a, b)


def test_sample_code_integer_oversampling_repeats_chips():
    code = generate_ca_code(9)
    out = sample_code(code, 2 * 1.023e6, 1.023e6, 0.0, 2 * CODE_LENGTH)
    assert np.array_equal(out[0::2], code.chips)
    assert np.array_equal(out[1::2], code.chips)


def test_sample_code_periodicity():
    code = generate_ca_code(22)
    rng = np.random.default_rng(3)
    for _ in range(5):
        fs = float(rng.uniform(1.1e6, 8e6))
        period = CODE_LENGTH * fs / 1.023e6
        n = int(period) - 1
        a = sample_code(code, fs, 1.023e6, 0.0, n)
        b = sample_code(code, fs, 1.023e6, CODE_LENGTH, n)
        assert np.array_equal(a, b)


def test_sample_code_rejects_sub_chip_rate():
    code = generate_ca_code(1)
    with pytest.raises(ValueError):
        sample_code(code, 0.5e6, 1.023e6, 0.0, 100)

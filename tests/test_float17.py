import random
from decimal import Decimal

import numpy as np
import pytest

from tdq.float17 import CHUNK, format_17g


def texts(values):
    return [bytes(row[row != 0]) for row in format_17g(values)]


def assert_formats_like_percent(values):
    values = np.asarray(values, dtype=np.float64)
    got = texts(values)
    want = [b"%.17g" % v for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert bad == []


def test_seeded_bit_patterns():
    # every class of binary64: normals, subnormals, nan payloads, +-inf
    bits = np.random.default_rng(0).integers(0, 2**64, 10**5, dtype=np.uint64)
    values = np.concatenate([bits.view(np.float64), [np.inf, -np.inf, np.nan]])
    assert np.count_nonzero(np.abs(values) < 2.2250738585072014e-308) > 10
    assert np.count_nonzero(np.isnan(values)) > 10
    assert_formats_like_percent(values)


def test_edges_powers_of_ten_and_switch_points():
    # every power of ten and the switches between fixed and scientific
    # layout, each with its 64 neighbours on either side: next to a power
    # of ten the decimal exponent may move either way
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)] + [1e-5, 1e-4, 1e16, 1e17])
    bits = powers.view(np.int64)[:, None] + np.arange(-64, 65)
    near = np.maximum(bits, 0).view(np.float64).ravel()
    assert_formats_like_percent(np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308],
        near, -near]))


@pytest.mark.parametrize("edge", [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324,
                                  -2.2250738585072009e-308, 1e-300, 1e-5, 1e-4, 1e16,
                                  1e17, 1e22, 1e308])
def test_chunk_edges(edge):
    # values go through `_format` CHUNK at a time: the first and the last
    # value of every chunk, the last chunk a short one, take the same bytes
    # as those inside a chunk
    rng = np.random.default_rng(5)
    size = 3 * CHUNK + 100
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    firsts = np.arange(0, size, CHUNK)
    values[np.concatenate([firsts, firsts[1:] - 1, [size - 1]])] = edge
    assert_formats_like_percent(values)


@pytest.mark.parametrize("bias", [-0.5, 0.5])
def test_exponent_estimate_off_by_one_is_corrected(bias, monkeypatch):
    # the digits do not rest on the accuracy of log10: with the estimate
    # of the decimal exponent one too low or too high for about half the
    # values, the text is unchanged
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + bias)
    rng = np.random.default_rng(4)
    values = rng.standard_normal(20000) * 10.0 ** rng.integers(-300, 300, 20000)
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    assert_formats_like_percent(np.concatenate([values, powers, np.nextafter(powers, 0.0)]))


def test_trailing_zeros_in_both_layouts():
    # values whose 17 digits end in exactly t zeros, t = 0..16, each in
    # fixed and in scientific layout: decimal integers m 10**j and dyadics
    rng = random.Random(3)
    values = []
    for _ in range(4000):
        length = rng.randint(1, 17)
        m = rng.randrange(10 ** (length - 1), 10 ** length)
        values += [float(m * 10 ** rng.randint(0, 30)), m / 2 ** rng.randint(1, 60)]
    kinds = set()
    for v in values:
        digits, exponent = (b"%.16e" % v).split(b"e")
        kinds.add((17 - len(digits.replace(b".", b"").rstrip(b"0")), -4 <= int(exponent) < 17))
    assert kinds == {(t, fixed) for t in range(17) for fixed in (True, False)}
    values = np.array(values)
    assert_formats_like_percent(np.concatenate([values, -values]))


def test_exact_ties_round_half_to_even():
    # dyadics m / 2**j; those with exactly 18 significant digits, the last a
    # 5, are ties at 17 digits and must round half to even
    rng = np.random.default_rng(1)
    values = np.ldexp(rng.integers(1, 2**40, 20000).astype(np.float64),
                      -rng.integers(1, 40, 20000))
    values = np.concatenate([[12345678901 / 1024], values])
    digits = [Decimal(v).as_tuple().digits for v in values.tolist()]
    ties = [d for d in digits if len(d) == 18 and d[-1] == 5]
    assert len(ties) > 100
    assert {d[16] % 2 for d in ties} == {0, 1}  # both ways to the even digit
    assert texts([12345678901 / 1024]) == [b"12056327.051757812"]
    assert_formats_like_percent(values)


def test_random_magnitudes_and_empty_input():
    rng = np.random.default_rng(2)
    values = rng.standard_normal(20000) * 10.0 ** rng.integers(-30, 30, 20000)
    assert_formats_like_percent(np.concatenate([values, np.round(values), values[:5000] * 1e270]))
    assert format_17g(np.array([])).shape == (0, 29)

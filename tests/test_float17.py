from decimal import Decimal

import numpy as np

from tdq.float17 import format_17g


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
    powers = np.array([10.0**e for e in range(-323, 309)])
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])
    centres = np.concatenate([powers, switches])
    assert_formats_like_percent(np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308],
        centres, -centres, np.nextafter(centres, np.inf), np.nextafter(centres, 0.0)]))


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

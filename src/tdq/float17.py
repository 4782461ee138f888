"""`'%.17g' % v`, byte for byte, for every element of a float64 array."""

import functools

import numpy as np

# column c: 5**(c - 292) as hi + lo, hi split in 26 + 27 bits for Dekker's
# exact product; filled on first use (0 marks an empty column)
_SCALES = np.zeros((3, 633))
_INDEX = np.arange(18, dtype=np.uint8)[:, None]
# character i of "0.000" leads a fixed field whose exponent is below _BELOW[i]
_LEADING = np.frombuffer(b"0.000", np.uint8)[:, None]
_BELOW = np.array([[0.0], [0.0], [-1.0], [-2.0], [-3.0]])


def _rounded(m: np.ndarray, e: np.ndarray, k: np.ndarray):
    """(big, whole, tie) with big + whole = round(D), D = m 2**e 10**(16-k)
    below 1e18, exact unless tie.  D = m 5**s 2**(e+s), s = 16 - k, is big +
    small to 2**-104 relative (Dekker's exact product of m and hi, Numer.
    Math. 18, 224 (1971), plus m lo), so within 1e-13, and round(small) is
    exact unless small is within 1e-9 of a tie."""
    column = (308.0 - k).astype(np.intp)
    for c in set(column[_SCALES[0, column] == 0.0].tolist()):
        num, den = (5 ** (c - 292), 1) if c >= 292 else (1, 5 ** (292 - c))
        hi = num / den  # int / int rounds correctly
        a, b = hi.as_integer_ratio()
        top = hi * 134217729.0 - (hi * 134217729.0 - hi)
        _SCALES[:, c] = top, hi - top, (num * b - a * den) / (den * b)
    top, bottom, lo = np.take(_SCALES, column, axis=1)
    m_top = m * 134217729.0 - (m * 134217729.0 - m)
    product = m * (top + bottom)
    error = (m_top * top - product) + m_top * bottom + (m - m_top) * top + (m - m_top) * bottom
    shift = (16.0 - k + e).astype(np.intp)
    small = np.ldexp(error + m * lo, shift)
    whole = np.floor(small + 0.5)
    return np.ldexp(product, shift), whole, np.abs(np.abs(small - whole) - 0.5) < 1e-9


@functools.cache
def _exponents() -> np.ndarray:
    """b"e-324" to b"e+308", NUL-padded: column k + 324 for exponent k."""
    table = np.array([b"e%+03d" % k for k in range(-324, 309)], "S5")
    table = table.view(np.uint8).reshape(-1, 5).T.copy()
    table.flags.writeable = False  # shared by every call
    return table


def format_17g(values: np.ndarray) -> np.ndarray:
    """Row i of the returned uint8 matrix, its NUL bytes dropped, is
    `b'%.17g' % values[i]`.  Values go 2048 at a time through `_format`,
    which bounds its temporaries to about 0.3 MiB."""
    x = np.asarray(values, dtype=np.float64).ravel()
    out = np.empty((29, x.size), np.uint8)
    for start in range(0, x.size, 2048):
        out[:, start:start + 2048] = _format(x[start:start + 2048])
    return out.T


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, k, fallback): the 17 significant digits of each finite
    x != 0 as ASCII rows 0-16 (row 17 is NUL), its decimal exponent k, and
    where x must take `'%.17g' % v` itself: nan, +-inf and ties (the exact
    fallback of Loitsch, PLDI 2010).

    |x| = m 2**e with m in [1/2, 1) has the decimal exponent k or k + 1 for
    k = floor((e - 1) log10 2), raised where the digits of `_rounded` reach
    1e17.  They are split at 1e9 to stay below 2**53.
    """
    finite = np.abs(x) < np.inf
    m, e = np.frexp(np.where(finite, np.abs(x), 1.0))  # 0 keeps m = 0 and no tie
    k = np.floor(e * 0.3010299956639812 - 0.3010299956639812)  # exact, |e| < 1100
    big, whole, tie = _rounded(m, e, k)
    up = np.flatnonzero((big - 1e17) + whole >= 0.0)
    k[up] += 1.0
    big[up], whole[up], tie_up = _rounded(m[up], e[up], k[up])
    tie[up] |= tie_up
    high = np.floor(big * 1e-9)
    low = big - 1e9 * high + whole
    carry = np.floor(low * 1e-9)
    pair = np.array([high + carry, low - 1e9 * carry])  # 8 and 9 digits
    digits = np.zeros((19, x.size), np.uint8)  # row 0 takes the leading 0 of pair[0]
    for j in range(8, -1, -1):
        quotient = np.floor(pair * 0.1 + 0.05)  # exact below 2**33
        digits[:18].reshape(2, 9, -1)[:, j] = pair - 10.0 * quotient + 48.0
        pair = quotient
    return digits[1:], k, np.where(finite, tie, True)


def _format(x: np.ndarray) -> np.ndarray:
    """Fields as columns: sign, "0.000", 17 digits and a point, "e+ddd",
    laid out as `%.17g` does: fixed from 1e-4 to below 1e17, else
    scientific, trailing zeros dropped; +-0 are "0" and "-0"."""
    digits, k, fallback = _digits(x)
    scientific = (k < -4) | (k > 16)
    point = np.where(scientific, 0.0, k)  # the point follows digit `point`
    last = np.zeros_like(digits)  # the last digit printed: the last non-zero one
    np.copyto(last, _INDEX, where=digits > 48)  # or, if later, the one the point follows
    last = np.maximum(last.max(axis=0), np.where(point > 0.0, point, 0.0).astype(np.uint8))
    np.copyto(digits, 0, where=_INDEX > last)
    dot = np.where((point >= 0.0) & (point < last), point, 17.0).astype(np.uint8)
    out = np.zeros((29, x.size), np.uint8)
    out[0] = np.signbit(x) * 45.0
    np.copyto(out[1:6], _LEADING, where=point < _BELOW)
    out[6:24] = digits
    np.copyto(out[6:24], ord("."), where=_INDEX > dot)
    np.copyto(out[7:24], digits[:-1], where=_INDEX[:-1] > dot)
    rows = np.flatnonzero(scientific)
    out[24:, rows] = np.take(_exponents(), (k[rows] + 324.0).astype(np.intp), axis=1)
    zero = x == 0.0
    out[1:, zero] = 0
    out[6, zero] = ord("0")
    rows = np.flatnonzero(fallback)
    text = np.array([b"%.17g" % v for v in x[rows].tolist()], "S29")
    out[:, rows] = text.view(np.uint8).reshape(-1, 29).T
    return out

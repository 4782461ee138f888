"""`'%.17g' % v`, byte for byte, for every element of a float64 array.

`format_17g` lays each value out as a column of NUL-padded ASCII: the 17
correctly rounded digits come from one double-double product per value,
and `'%.17g'` itself formats nan, +-inf and the values too close to a
rounding tie for that product to decide.
"""

import functools

import numpy as np

# column c: 5**(c - 292) as hi + lo, hi split in 26 + 27 bits for Dekker's
# exact product; filled on first use (0 marks an empty column)
_SCALES = np.zeros((3, 633))
_INDEX = np.arange(18, dtype=np.uint8)[:, None]
# character i of "0.000" leads a fixed field whose exponent is below _BELOW[i]
_LEADING = np.frombuffer(b"0.000", np.uint8)[:, None]
_BELOW = np.array([[0.0], [0.0], [-1.0], [-2.0], [-3.0]])
# entry i: the three ASCII digits of i and a NUL, as one uint32
_TRIPLES = np.frombuffer(b"".join(b"%03d\0" % i for i in range(1000)), np.uint32)


def _rounded(m: np.ndarray, e: np.ndarray, k: np.ndarray):
    """(big, small): D = m 2**e 10**(16-k) = m 5**s 2**(e+s), s = 16 - k,
    as big + small to 2**-104 relative.  big is m hi rounded, small its
    error, exact by Dekker's product (Numer. Math. 18, 224 (1971)), plus
    m lo, both scaled by 2**(e+s)."""
    column = (308.0 - k).astype(np.intp)
    filled = _SCALES[0, column.min():column.max() + 1].all()
    for c in () if filled else set(column[_SCALES[0, column] == 0.0].tolist()):
        num, den = (5 ** (c - 292), 1) if c >= 292 else (1, 5 ** (292 - c))
        hi = num / den  # int / int rounds correctly
        a, b = hi.as_integer_ratio()
        top = hi * 134217729.0 - (hi * 134217729.0 - hi)
        _SCALES[:, c] = top, hi - top, (num * b - a * den) / (den * b)
    top, bottom, lo = np.take(_SCALES, column, axis=1)
    m_top = m * 134217729.0
    m_top -= m_top - m
    m_bottom = m - m_top
    product = m * (top + bottom)
    error = (m_top * top - product) + m_top * bottom + m_bottom * top + m_bottom * bottom
    shift = (16.0 - k + e).astype(np.int32)
    return np.ldexp(product, shift), np.ldexp(error + m * lo, shift)


@functools.cache
def _exponents() -> np.ndarray:
    """b"e-324" to b"e+308", NUL-padded to 8 bytes, each read as a uint64:
    entry k + 324 for exponent k; entry 633, all NUL, is the field of a
    fixed-notation value."""
    table = np.array([b"e%+03d" % k for k in range(-324, 309)] + [b""], "S8").view(np.uint64)
    table.flags.writeable = False  # shared by every call
    return table


# values per `_format` call: it makes about 120 numpy calls whatever its
# size, so fewer, larger chunks are faster up to 4096 on a 2-vCPU Xeon
# (48 KiB L1d); 8192 was slower and raised the peak RSS by 1.1 MiB
CHUNK = 4096


def format_17g(values: np.ndarray) -> np.ndarray:
    """Row i of the returned uint8 matrix, its NUL bytes dropped, is
    `b'%.17g' % values[i]`.  Values go `CHUNK` at a time through
    `_format`, which bounds its temporaries to about 0.6 MiB."""
    x = np.asarray(values, dtype=np.float64).ravel()
    out = np.zeros((29, x.size), np.uint8)
    for start in range(0, x.size, CHUNK):
        _format(x[start:start + CHUNK], out[:, start:start + CHUNK])
    return out.T


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, k, fallback): the 17 significant digits of each finite
    x != 0 as ASCII rows 0-16 (row 17 is NUL), its decimal exponent k, and
    where x must take `'%.17g' % v` itself (see `_significand`).  The
    digits are read three at a time from the two 9-digit halves."""
    halves, k, fallback = _significand(x)
    millions = np.floor(halves * 1e-6 + 5e-7)  # exact: each half is an integer below 1e9
    thousands = np.floor(halves * 1e-3 + 5e-4)
    groups = np.array([millions, thousands - 1e3 * millions, halves - 1e3 * thousands],
                      np.intp)
    digits = np.zeros((19, x.size), np.uint8)  # row 0 takes the leading 0 of halves[0]
    triples = _TRIPLES[groups].view(np.uint8).reshape(*groups.shape, 4)
    digits[:18].reshape(2, 3, 3, -1)[...] = triples[..., :3].transpose(1, 0, 3, 2)
    return digits[1:], k, fallback


def _significand(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(halves, k, fallback): round(D), D = |x| 10**(16-k), as its two
    9-digit halves (each below 2**53); the decimal exponent k that makes
    round(D) a 17-digit integer; and where x must take `'%.17g' % v`
    itself: nan, +-inf and ties, where round(D) is not exact (the exact
    fallback of Loitsch, PLDI 2010).

    k starts at floor(log10 |x|), which a libm may get wrong by one next to
    a power of ten; the 17-digit range of D moves it.  round(D) reaching
    1e17 means k + 1.  D below 1e16 - 0.05 means k - 1, where 10 D rounds
    below 1e17; from 1e16 - 0.05 to 1e16, round(D) = 1e16 at k prints as
    round(10 D) = 1e17 at k - 1 would.  So one step either way is final.
    """
    finite = np.abs(x) < np.inf
    a = np.where(finite & (x != 0.0), np.abs(x), 1.0)  # 0, nan and inf are rewritten
    m, e = np.frexp(a)
    k = np.floor(np.log10(a))
    big, small = _rounded(m, e, k)
    up = (big - 1e17) + np.floor(small + 0.5) >= 0.0
    fix = np.flatnonzero(up | ((big - 1e16) + small < -0.05))
    if fix.size:
        k[fix] += np.where(up[fix], 1.0, -1.0)
        big[fix], small[fix] = _rounded(m[fix], e[fix], k[fix])
    whole = np.floor(small + 0.5)
    tie = np.abs(np.abs(small - whole) - 0.5) < 1e-9
    high = np.floor(big * 1e-9)
    low = big - 1e9 * high + whole
    carry = np.floor(low * 1e-9)
    return np.array([high + carry, low - 1e9 * carry]), k, np.where(finite, tie, True)


def _format(x: np.ndarray, out: np.ndarray) -> None:
    """Write into the zeros of `out` the fields of x as columns: sign,
    "0.000", 17 digits and a point, "e+ddd", laid out as `%.17g` does:
    fixed from 1e-4 to below 1e17, else scientific, trailing zeros
    dropped; +-0 are "0" and "-0"."""
    digits, k, fallback = _digits(x)
    scientific = (k < -4) | (k > 16)
    point = np.where(scientific, 0.0, k)  # the point follows digit `point`
    # the last digit printed: the last non-zero one or, if later, the one
    # the point follows; only a row whose 17th digit is 0 can end early
    last = np.full(x.size, 16.0)
    rows = np.flatnonzero(digits[16] == 48)
    if rows.size:
        nonzero = digits[16::-1, rows] > 48
        last[rows] = np.maximum(16.0 - nonzero.argmax(axis=0), point[rows])
        trimmed = digits[:, rows]
        trimmed[_INDEX > last[rows]] = 0
        digits[:, rows] = trimmed
    dot = np.where((point >= 0.0) & (point < last), point, 17.0).astype(np.uint8)
    out[0] = np.signbit(x) * 45.0
    np.copyto(out[1:6], _LEADING, where=point < _BELOW)
    out[6:24] = digits
    np.copyto(out[6:24], ord("."), where=_INDEX > dot)
    np.copyto(out[7:24], digits[:-1], where=_INDEX[:-1] > dot)
    exponents = _exponents()[np.where(scientific, k + 324.0, 633.0).astype(np.intp)]
    out[24:] = exponents.view(np.uint8).reshape(-1, 8)[:, :5].T
    zero = np.flatnonzero(x == 0.0)
    out[1:, zero] = 0
    out[6, zero] = ord("0")
    rows = np.flatnonzero(fallback)
    if rows.size:
        text = np.array([b"%.17g" % v for v in x[rows].tolist()], "S29")
        out[:, rows] = text.view(np.uint8).reshape(-1, 29).T

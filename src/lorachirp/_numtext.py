"""The text of CSV rows of numbers, each number the repr of its value,
for whole numpy arrays at once.

_csv_text(cols, lo, hi) writes a float (float16 and float32 as their
float64 value) as repr of the Python float that tolist() makes of it,
and an int as repr of the Python int, without a Python call per value:

- Digits: repr's are the shortest decimal that reads back to the
  double and, of those, the nearest (ties to an even last digit).  The
  Schubfach algorithm (R. Giulietti, "The Schubfach way to render
  doubles", 2020; cf. U. Adams, "Ryu: fast float-to-string conversion",
  PLDI 2018) finds them with fixed-width integer arithmetic, here on
  uint64 arrays: each 64 x 64-bit product is built from 32-bit halves,
  so no intermediate leaves uint64.
- Layout: repr's fixed notation for decimal exponents -4..15, else
  d.ddde+XX.  Each value's text is right-aligned in a 32-byte slot,
  built from a table of words (4-digit groups, and each exponent with
  the field separator after it) by one gather, then masked by a
  template per layout (decimal point position, digit count, sign).
  The slots are laid out row by row, so dropping their NUL padding
  leaves the rows' text.

The tables are built from Python ints on first use (_tables).
"""
from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFF_FFFF)
_M63 = _U(0x7FFF_FFFF_FFFF_FFFF)
_INF = _U(0x7FF0_0000_0000_0000)  # |x| above these bits is NaN
_ONE = _U(0x3FF0_0000_0000_0000)
_SLOT = 32  # bytes of a value's slot: 8 words
_DIGITS = 24  # the slot byte after the last digit, where the suffix starts
# word indices of the table: the 4-digit groups 0000..9999, then for each
# separator (',' and '\r\n') a two-word suffix with no exponent and one
# per exponent -324..308: 'e-05,', 'e+300\r\n', ...
_SUFFIX = 10_000
_EXPONENTS = 634
# template keys: 2 * layout + (1 for a minus sign), then NaN
_FIXED, _EXP, _INT, _INF_KEY = 0, 340, 357, 377
_NAN_KEY = 2 * (_INF_KEY + 1)


@functools.cache
def _tables():
    """(g, words, tz4, p10, templates): the halves g1 >> 32, g1 & M32,
    g0 >> 32, g0 & M32 of Schubfach's 126-bit g = g1 * 2^63 + g0 for each
    decimal exponent k = -324..292 (2^125 <= 10^-k / 2^r < 2^126 and
    g = floor(10^-k / 2^r) + 1); the word table; the trailing zeros of
    0..9999 (4 for 0); the powers of ten 10^0..10^19; and per template key
    the literal bytes, the mask of the bytes taken from the slot's words,
    and the mask of those taken from the next byte."""
    g = []
    for k in range(-324, 293):
        r = (-k * 913_124_641_741 >> 38) - 125  # floor(log2(10^-k)) - 125
        if k <= 0:
            beta = 10 ** -k >> r if r >= 0 else 10 ** -k << -r
        else:
            beta = (1 << -r) // 10 ** k
        g.append(beta + 1)
    g1 = np.array([v >> 63 for v in g], dtype=_U)
    g0 = np.array([v & ((1 << 63) - 1) for v in g], dtype=_U)
    halves = (g1 >> _U(32), g1 & _M32, g0 >> _U(32), g0 & _M32)

    # made with numpy, not as 10 000 Python strings, to keep the peak memory low
    group = np.arange(10_000, dtype=np.uint16)
    digits = group[:, None] // np.array([1000, 100, 10, 1], np.uint16) % np.uint16(10)
    suffixes = [exponent + sep for sep in (",", "\r\n")
                for exponent in [""] + [f"e{e:+03d}" for e in range(-324, 309)]]
    words = np.concatenate([
        (digits + ord("0")).astype(np.uint8).reshape(-1),
        np.frombuffer(b"".join(s.encode().ljust(8, b"\0") for s in suffixes), np.uint8)
    ]).view(np.uint32)
    tz4 = sum((group % np.uint16(10 ** i) == 0).astype(np.intp) for i in range(1, 5))  # 4 for 0
    p10 = np.array([10 ** i for i in range(20)], dtype=_U)

    # a layout is the text of a value, right-aligned at _DIGITS: "R" is a
    # byte of the slot's words, "L" the byte after it (a digit left of the
    # point), "S" a byte of the suffix, anything else a literal
    layouts = [""] * (_INF_KEY + 1)
    for dp in range(-3, 17):  # the point after dp digits
        for nd in range(1, 18):
            if dp <= 0:
                layout = "0." + "0" * -dp + "R" * nd
            else:
                layout = "L" * dp + "." + "R" * (max(nd, dp + 1) - dp)
            layouts[_FIXED + (dp + 3) * 17 + nd - 1] = layout
    for nd in range(1, 18):
        layouts[_EXP + nd - 1] = "L." + "R" * (nd - 1) if nd > 1 else "R"
    for nd in range(1, 21):
        layouts[_INT + nd - 1] = "R" * nd
    layouts[_INF_KEY] = "inf"
    signed = [s for layout in layouts for s in (layout, "-" + layout)] + ["nan"]
    raw = "".join(s.rjust(_DIGITS, "\0") + "S" * (_SLOT - _DIGITS) for s in signed).encode()
    # byte maps to the literals, the mask of the slot's bytes, the mask of the next bytes
    maps = [bytes(0 if chr(i) in "RLS" else i for i in range(256)),
            bytes(255 if chr(i) in "RS" else 0 for i in range(256)),
            bytes(255 if chr(i) == "L" else 0 for i in range(256))]
    templates = np.frombuffer(b"".join(raw.translate(m) for m in maps),
                              np.uint8).reshape(3, -1, _SLOT)
    return halves, words, tz4, p10, templates


def _round_to_odd(g1h, g1l, g0h, g0l, cp):
    """Schubfach's r_o(cp * g / 2^127): floor(cp * g / 2^127), with the
    lowest bit set when the quotient is not whole, for cp < 2^59."""
    c1, c0 = cp >> _U(32), cp & _M32  # c1 < 2^27
    low = g0l * c0
    mid = g0l * c1
    mid += g0h * c0
    mid += low >> _U(32)
    x1 = mid >> _U(32)
    x1 += g0h * c1  # the high word of g0 * cp
    low = g1l * c0
    mid = g1l * c1
    mid += g1h * c0
    mid += low >> _U(32)
    y1 = mid >> _U(32)
    y1 += g1h * c1  # the high word of g1 * cp
    low &= _M32
    mid <<= _U(32)
    mid |= low  # the low word of g1 * cp
    mid >>= _U(1)
    mid += x1
    y1 += mid >> _U(63)
    mid &= _M63
    mid += _M63
    mid >>= _U(63)
    y1 |= mid
    return y1


def _shortest(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k): f * 10^k is the shortest decimal that rounds to each
    double whose bits, without the sign, are `mag` (finite, nonzero),
    and of those the nearest, ties to an even f; f may end in zeros.
    The skeleton is figure 7 of Giulietti's paper, with no minimum
    digit count (Java's two digits)."""
    g_halves = _tables()[0]
    e2 = mag >> _U(52)
    t = mag & _U((1 << 52) - 1)
    c = np.minimum(e2, _U(1))  # the hidden bit of a normal double
    c <<= _U(52)
    c |= t
    q = e2.astype(np.int64)
    np.maximum(q, 1, out=q)
    q -= 1075  # |x| = c * 2^q
    # a power of two above the smallest normal has a narrower interval below it
    irregular = t == _U(0)
    irregular &= e2 > _U(1)
    k = q * 661_971_961_083  # floor(log10(2^q)), or of 3/4 * 2^q
    k -= irregular * 274_743_187_321
    k >>= 41
    h = k * -913_124_641_741  # floor(log2(10^-k)) ...
    h >>= 38
    h += q
    h += 2  # ... + q + 2, in 1..4
    h = h.view(_U)
    del e2, t, q
    g = [np.take(half, k + 324) for half in g_halves]
    # an odd c excludes both ends (ties to even), an even c includes them
    odd = c & _U(1)
    c <<= _U(2)  # the interval's ends, 4c - 2 (4c - 1) and 4c + 2, times 2^h
    cp = c - _U(2)
    cp += irregular
    cp <<= h
    vbl = _round_to_odd(*g, cp)
    c <<= h
    vb = _round_to_odd(*g, c)
    c += _U(2) << h
    vbr = _round_to_odd(*g, c)
    del g, c, cp
    vbl += odd
    vbr -= odd
    s = vb >> _U(2)
    # one digit fewer: at most one multiple of 10 * 10^k lies in the interval
    u40 = s // _U(10)
    u40 *= _U(40)
    upin = vbl <= u40
    w40 = u40 + _U(40)
    wpin = w40 <= vbr
    # else s or s + 1, whichever alone lies in it, or the nearer of both
    s4 = vb & ~_U(3)
    uin = vbl <= s4
    s4 += _U(4)
    win = s4 <= vbr
    s4 -= _U(2)  # 2 * (s + s + 1): vb against the midpoint
    pick_t = vb > s4
    pick_t |= (vb == s4) & (s & _U(1)).astype(bool)
    np.copyto(pick_t, win, where=uin != win)
    f = s + pick_t
    w40 -= upin * _U(40)
    w40 >>= _U(2)
    np.copyto(f, w40, where=upin != wpin)
    return f, k


def _digit_words(n: np.ndarray, idx: np.ndarray) -> None:
    """idx[:, 1:6] = the words of the 20 digits of n (< 10^20)."""
    top = n // _U(10 ** 16)
    rest = n - top * _U(10 ** 16)
    high = rest // _U(10 ** 8)
    rest -= high * _U(10 ** 8)
    idx[:, 1] = top
    for j, part in ((2, high), (4, rest)):
        words = part // _U(10_000)
        idx[:, j] = words
        idx[:, j + 1] = part - words * _U(10_000)


def _float_fields(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, suffix, key) of the float64 values x: the digits to show,
    as an integer; the suffix entry of the exponent, 0 for none; and the
    template key."""
    _, _, tz4, p10, _ = _tables()
    bits = x.view(_U)
    mag = bits & _M63
    finite = mag < _INF
    ok = finite & (mag != _U(0))
    f, k = _shortest(mag if ok.all() else np.where(ok, mag, _ONE))
    # digits of f: 16 or 17, fewer only for a subnormal
    digits = (f >= _U(10 ** 16)) + 16
    if (f < _U(10 ** 15)).any():
        digits = np.searchsorted(p10, f, "right")
    f *= ok  # 0 is written 0.0
    # its trailing zeros: 8 if its last 8 digits are 0, then 4 likewise,
    # then those of the 4 digits left, from a table
    high = f // _U(10 ** 8)
    low = f - high * _U(10 ** 8)
    zero8 = low == _U(0)
    np.copyto(low, high % _U(10 ** 8), where=zero8)
    high = low // _U(10_000)
    low -= high * _U(10_000)
    zero4 = low == _U(0)
    np.copyto(low, high, where=zero4)
    tz = tz4[low.astype(np.intp)]
    tz += zero8 * 8
    tz += zero4 * 4
    del high, low, zero8, zero4
    f //= p10[tz]
    nd = digits - tz  # the significant digits f now holds
    dp = k + digits  # the value is 0.ddd * 10^dp
    nd[~ok] = 1
    dp[~ok] = 1
    fixed = (dp >= -3) & (dp <= 16)
    # fixed notation shows at least one digit after the point: 1e5 as 100000.0
    pad = dp + 1 - nd
    pad *= fixed
    np.maximum(pad, 0, out=pad)
    f *= p10[pad]
    key = np.where(fixed, _FIXED + (dp + 3) * 17 - 1, _EXP - 1) + nd
    if not finite.all():
        key[~finite] = _INF_KEY
    key *= 2
    key += (bits >> _U(63)).astype(np.intp)
    if not finite.all():
        key[mag > _INF] = _NAN_KEY
    dp += 324  # the suffix of exponent dp - 1
    dp *= ~fixed & finite
    return f, dp, key


def _int_fields(v: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """(digits, suffix, key) of the ints v (any int or uint dtype)."""
    p10 = _tables()[3]
    if v.dtype.kind == "u":
        mag, neg = v.astype(_U), 0
    else:
        v = v.astype(np.int64)
        neg = v < 0
        mag = v.view(_U)  # -v, as uint64: -(-2^63) is 2^63
        mag = np.where(neg, -mag, mag)
    digits = np.searchsorted(p10, mag, "right")
    np.maximum(digits, 1, out=digits)  # 0 is "0"
    key = digits + _INT - 1
    key *= 2
    key += neg
    return mag, 0, key


def _csv_text(cols: list, lo: int, hi: int) -> bytes:
    """The text of rows lo..hi-1 of the columns `cols` (1-D numpy arrays
    of floats or ints, equal length): each number the repr of the Python
    float or int that tolist() makes of it, ',' between fields and '\r\n'
    after each row."""
    _, words, _, _, templates = _tables()
    rows, ncol = hi - lo, len(cols)
    kinds = [c.dtype.kind if c.dtype.itemsize <= 8 else "" for c in cols]
    if not set(kinds) <= set("fiu"):
        raise TypeError(f"cannot write columns of dtype {[str(c.dtype) for c in cols]}")
    digits = np.empty((rows, ncol), _U)
    suffix = np.empty((rows, ncol), np.intp)
    key = np.empty((rows, ncol), np.intp)
    floats = [j for j, kind in enumerate(kinds) if kind == "f"]
    if floats:  # every float column at once
        x = np.empty((rows, len(floats)))
        for i, j in enumerate(floats):
            x[:, i] = cols[j][lo:hi]
        for out, part in zip((digits, suffix, key), _float_fields(x.reshape(-1))):
            out[:, floats] = part.reshape(rows, -1)
        del x
    for j, kind in enumerate(kinds):
        if kind != "f":
            digits[:, j], suffix[:, j], key[:, j] = _int_fields(cols[j][lo:hi])
    suffix[:, -1] += _EXPONENTS  # the row ends in '\r\n', not ','
    idx = np.zeros((rows * ncol, 8), np.intp)
    _digit_words(digits.reshape(-1), idx)
    idx[:, 6] = suffix.reshape(-1)
    idx[:, 6] *= 2
    idx[:, 6] += _SUFFIX
    idx[:, 7] = idx[:, 6] + 1
    del digits, suffix
    slots = np.take(words, idx).view(np.uint8).reshape(-1)
    del idx
    key = key.reshape(-1)
    text = np.take(templates[1], key, axis=0).reshape(-1)
    text &= slots
    left = np.take(templates[2], key, axis=0).reshape(-1)[:-1]
    left &= slots[1:]
    text[:-1] |= left
    del left, slots
    text |= np.take(templates[0], key, axis=0).reshape(-1)
    return text[text != 0].tobytes()

"""Text encoding of float and int columns: the CSV trace and the summary's floats.

The encoder lays each CSV row out as a row of little-endian 32-bit words.
Every field owns a fixed run of words, its slot: the first byte holds the
comma before the field (blank for the iteration), the metric's last byte
holds the newline, the characters sit between, and the bytes a field does
not use stay 0, so dropping every 0 byte yields the CSV text. Digits come
from tables of 4-digit and 2-digit ASCII words. A value the arithmetic
cannot format exactly is formatted on its own and written into its slot.
Every float reads exactly as ``format(x, ".10e")`` writes it, and every int
as ``str(n)``. Only the commands that write a trace or a summary import
this module.
"""

from __future__ import annotations

import functools

import numpy as np


def write_segments(segments, write) -> None:
    """Each segment's rows as CSV, in chunks of whole iterations, through ``write``."""
    for seg in segments:
        n_iterations, n_users = seg.powers.shape
        # Whole iterations, the fewest that reach a chunk.
        per_chunk = max(1, -(-TRACE_CHUNK_ROWS // max(n_users, 1)))
        for start in range(0, n_iterations, per_chunk):
            write(encode_rows(seg, slice(start, start + per_chunk)))


# Rows per encoded chunk; a chunk holds whole iterations of one segment. At
# about a thousand rows the chunk's arrays fit in memory the allocator keeps
# between chunks, where much larger chunks fault in fresh pages every time
# and run slower.
TRACE_CHUNK_ROWS = 1024
_WORD = np.dtype("<u4")
_COMMA, _NEWLINE = ord(","), ord("\n")
# Exact powers of ten: every 10**n with n <= 22 is a double. The fast path
# scales |x| by one of them, so it covers exponents k in -12..32; the
# multiplier _SCALE[k + 12] is 1 where the scale is a division.
_POW10 = np.array([float(10**n) for n in range(23)])
_K_OFFSET = 12
_SCALE = np.array([float(10 ** max(10 - k, 0)) for k in range(-_K_OFFSET, 33)])
# y is |x| * 10**(10 - k) rounded once. Rounding is monotone and n + 0.5 is a
# double, so rint(y) can only differ from the correctly rounded mantissa
# when y is exactly a half; the fast path keeps this margin from any half.
_TIE_MARGIN = 1e-4
# Word masks that keep the last n bytes, n = 0..4.
_KEEP_LAST = np.array([0, 0xFF000000, 0xFFFF0000, 0xFFFFFF00, 0xFFFFFFFF], _WORD)


def _ascii_words(chars) -> np.ndarray:
    """One word per row of a (n, 4) array of byte values."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(_WORD).ravel()


@functools.cache
def _digit_tables():
    """The encoder's word tables, built on first use."""
    # The digits of 0..9999 as ASCII bytes, one row each.
    chars = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T + np.uint8(48)
    pairs = _ascii_words(np.pad(chars[:100, 2:], ((0, 0), (0, 2))))
    # A leading digit d + 10 * negative: ",-d." or ",d.".
    d = np.arange(20)
    lead = _ascii_words(np.stack([0 * d + _COMMA, np.where(d >= 10, 45, 0), 48 + d % 10, 0 * d + 46], 1))
    # The exponent k = j - _K_OFFSET: "e" and its sign, then its two digits.
    k = np.arange(len(_SCALE)) - _K_OFFSET
    exp_sign = _ascii_words(np.stack([0 * k, 0 * k, 0 * k + ord("e"), np.where(k < 0, 45, 43)], 1))
    return _ascii_words(chars), pairs, lead, exp_sign, pairs[np.abs(k)]


def encode_rows(seg, iterations: slice) -> bytes:
    """CSV rows of the given iterations of one segment, in order."""
    assignment = seg.assignment[iterations]
    n_iterations, n_users = assignment.shape
    rows = assignment.size
    # Per-row values first, then the one iteration and metric of each iteration.
    ints = np.empty(2 * rows + n_iterations, np.int64)
    ints[:rows] = np.tile(np.arange(n_users), n_iterations)
    ints[rows : 2 * rows] = assignment.ravel()
    ints[2 * rows :] = seg.iterations[iterations]
    floats = np.empty(4 * rows + n_iterations)
    for k, column in enumerate((seg.powers, seg.rates, seg.sinrs, seg.utilities)):
        floats[k * rows : (k + 1) * rows] = column[iterations].ravel()
    floats[4 * rows :] = seg.metrics[iterations]
    int_words = _int_words(ints)
    int_words[: 2 * rows, 0] |= _COMMA
    float_words = _float_words(floats)
    float_words[4 * rows :, 4] |= _NEWLINE << 24
    per_iteration = np.repeat(np.arange(n_iterations), n_users)
    columns = [int_words[2 * rows :][per_iteration], int_words[:rows], int_words[rows : 2 * rows]]
    columns += [float_words[k * rows : (k + 1) * rows] for k in range(4)]
    columns.append(float_words[4 * rows :][per_iteration])
    return np.concatenate(columns, axis=1).tobytes().translate(None, b"\0")


def _patch(slots: np.ndarray, index: int, text: str) -> None:
    """Write ASCII text into one slot after its separator byte."""
    slot = slots[index].view(np.uint8)
    slot[1:] = 0
    slot[1 : 1 + len(text)] = np.frombuffer(text.encode("ascii"), np.uint8)


def _int_words(values: np.ndarray) -> np.ndarray:
    """Slots of ``str(v)`` for int64 values, right-aligned after a blank byte."""
    width = max(len(str(values.max())), len(str(values.min())))
    n_words = width // 4 + 1
    n_digits = np.ones(values.size, np.int64)
    for i in range(1, min(width, 19)):
        n_digits += values >= 10**i
    digits4 = _digit_tables()[0]
    words = np.empty((values.size, n_words), _WORD)
    above = values
    for j in range(n_words - 1, -1, -1):
        # Word j keeps its share of the digits, so leading zeros stay blank.
        keep = _KEEP_LAST.take(n_digits - 4 * (n_words - 1 - j), mode="clip")
        words[:, j] = digits4.take(above % 10000) & keep
        above = above // 10000
    for i in np.flatnonzero(values < 0):
        _patch(words, i, str(values[i]))
    return words


def _float_words(values: np.ndarray) -> np.ndarray:
    """Five-word slots of ``"," + format(x, ".10e")``, the last byte blank.

    With k = floor(log10|x|), y = |x| * 10**(10 - k) is rounded once, so
    rint(y) is the correctly rounded 11-digit mantissa unless y sits near a
    half, y is below 1e10 or rint(y) reaches 1e11. Those values, 0, nan, inf
    and exponents beyond the exact powers of ten are formatted one by one.
    """
    with np.errstate(all="ignore"):  # 0, nan and inf pass through garbage here
        a = np.abs(values)
        k = np.floor(np.log10(a)).astype(np.intp)
        j = k + _K_OFFSET
        fast = j.view(np.uintp) < len(_SCALE)
        y = a * _SCALE.take(j, mode="clip")
        big = np.flatnonzero(k > 10)
        y[big] = a[big] / _POW10.take(k[big] - 10, mode="clip")
        m = np.rint(y)
        fast &= (np.abs(y - m) < 0.5 - _TIE_MARGIN) & (y >= 1e10) & (m < 1e11)
        digits = m.astype(np.int64)
    digits4, pairs, lead, exp_sign, exp_digits = _digit_tables()
    words = np.empty((values.size, 5), _WORD)
    words[:, 0] = lead.take(digits // 10**10 + 10 * np.signbit(values), mode="clip")
    words[:, 1] = digits4.take(digits // 10**6 % 10000)
    words[:, 2] = digits4.take(digits // 100 % 10000)
    words[:, 3] = pairs.take(digits % 100) | exp_sign.take(j, mode="clip")
    words[:, 4] = exp_digits.take(j, mode="clip")
    for i in np.flatnonzero(~fast):
        _patch(words, i, format(float(values[i]), ".10e"))
    return words


def float_texts(columns, n: int) -> list[list[str]]:
    """Each column of ``n`` values as ``format(x, ".10e")`` writes them."""
    if any(len(c) != n for c in columns):
        raise ValueError(f"a summary column does not hold one value for each of {n} users")
    values = np.concatenate([np.asarray(c, dtype=float) for c in columns])
    text = _float_words(values).tobytes().translate(None, b"\0").decode("ascii")
    fields = text.split(",")[1:]
    return [fields[k * n : (k + 1) * n] for k in range(len(columns))]

"""Exactly rounded ``%.16e`` text for float64 arrays, vectorized with numpy.

``e16_cells(x, end)`` returns one fixed-width cell per value whose bytes,
with the NUL padding removed, are ``("%.16e" % v + end).encode()``.  A
caller lays cells out side by side and deletes every NUL in one
``bytes.translate(None, b"\\0")`` pass to get the text.  Most
values are formatted by a numpy kernel; the rest fall back to Python's own
``%``, so the text always equals the reference byte for byte.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

CELL_WORDS = 7  # uint32 words per cell: sign and lead digit, 4 x 4 digits, 2 for exponent + end
CELL = np.dtype((np.void, 4 * CELL_WORDS))
_E_MIN, _E_MAX = -324, 308  # decimal exponents of the nonzero finite float64 values


@dataclass(frozen=True)
class _Tables:
    pow10: np.ndarray  # longdouble fl(10**(16 - e)), indexed by e - _E_MIN
    slack: np.ndarray | None  # float64 relative slack per e; None: no fast path
    heads: np.ndarray  # uint32 "[-]d." words, indexed by 10 * negative + d
    groups: np.ndarray  # uint32 "%04d" words, indexed by value


@functools.cache
def _tables() -> _Tables:
    """Lookup tables, built on first use and shared (all arrays read-only)."""
    ks = 16 - np.arange(_E_MIN, _E_MAX + 1)
    # strtold rounds correctly: each entry is 10**k within half an ulp.
    pow10 = np.array(["1e%d" % k for k in ks], dtype=np.longdouble)
    info = np.finfo(np.longdouble)
    slack = None
    if info.nmant >= 63 and np.isfinite(pow10).all():
        # 10**k = 5**k 2**k is exact iff 0 <= k and 5**k fits the significand
        # (k <= 27 for x87 extended precision).
        k_exact = max(k for k in range(64) if (5**k).bit_length() <= info.nmant + 1)
        rounds = np.where((ks >= 0) & (ks <= k_exact), 1, 2)
        slack = rounds * float(info.eps)
    heads = np.frombuffer(
        b"".join(s + b"%d.\0" % d for s in (b"\0", b"-") for d in range(10)), np.uint32
    )
    groups = np.frombuffer(b"".join(b"%04d" % v for v in range(10000)), np.uint32)
    for table in (pow10, slack):  # heads and groups view immutable bytes
        if table is not None:
            table.flags.writeable = False
    return _Tables(pow10, slack, heads, groups)


@functools.cache
def _exponents(end: str) -> np.ndarray:
    """(e, 2) uint32 words of ``"e%+03d" % e + end``, NUL-padded to 8 bytes."""
    text = b"".join(
        ("e%+03d%s" % (e, end)).encode().ljust(8, b"\0") for e in range(_E_MIN, _E_MAX + 1)
    )
    return np.frombuffer(text, np.uint32).reshape(-1, 2)  # read-only, as a view of bytes


def _decimal(x: np.ndarray, t: _Tables):
    """Split float64 ``x`` into 17 decimal digits and an exponent.

    Returns ``(fast, D, i)``: where ``fast`` holds, ``x`` rounds to the
    17-digit integer ``D`` (10**16 <= D < 10**17) times ``10**(e - 16)``,
    with ``e = i + _E_MIN``.  Elsewhere ``D`` is a placeholder.

    Slack derivation.  For finite nonzero x let e = floor(log10|x|) and
    k = 16 - e, and let u = eps / 2 be the unit roundoff of longdouble
    (eps = 2**-63 for x87 extended precision).  The table entry P = fl(10**k)
    is correctly rounded and y = fl(|x| * P).  When 10**k is exact that is
    one rounding, |y - Y| <= u Y for the exact Y = |x| 10**k; otherwise it is
    two, |y - Y| <= (2u + u**2) Y.  With Y <= y / (1 - 2u - u**2) that gives
    |y - Y| < (r eps / 2)(1 + 2u) y for r roundings.  The test uses
    ``slack = r * eps * floor(y)`` in float64: floor(y) > y (1 - 2**-53)
    once y >= 10**16, so the factor of two to spare covers that and the
    float64 roundings, and slack < 0.022 < 1/2.  ``d = y - floor(y) - 1/2``
    is exact in longdouble, and rounding it to float64 changes it by a
    relative 2**-53 at most, again inside the spare factor.  If |d| > slack,
    Y lies strictly on the same side of the half-way point between two
    integers as y, so round(Y) = floor(y) + (d > 0), with no tie to break.  The
    exponent e from ``log10`` may be one off; requiring floor(y) >= 10**16
    and D < 10**17 rejects that, because then 10**16 - slack < Y < 10**17,
    and for Y just below 10**16 the correct text of |x| is
    1.0000000000000000e(e) anyway (10 Y rounds up to 10**17).

    Everything else is not ``fast``: 0 and -0, nan and +-inf, the values
    within the slack of a rounding tie, and those whose log10 was one off.
    Without a longdouble of at least 64 significant bits that spans
    10**340 (``t.slack is None``) nothing is fast.
    """
    a = np.abs(x)
    finite = np.isfinite(a) & (a > 0)
    a = np.where(finite, a, 1.0)
    i = np.floor(np.log10(a)).astype(np.intp) - _E_MIN
    if t.slack is None:
        return np.zeros(x.shape, bool), np.full(x.shape, 10**16, np.int64), i
    y = a.astype(np.longdouble) * t.pow10[i]
    lo = y.astype(np.int64)  # floor, as y > 0
    d = (y - lo - 0.5).astype(np.float64)
    D = lo + (d > 0)
    fast = finite & (np.abs(d) > t.slack[i] * lo) & (lo >= 10**16) & (D < 10**17)
    return fast, np.where(fast, D, 10**16), i


def e16_cells(x, end: str) -> np.ndarray:
    """One ``CELL`` per value of ``x``: ``"%.16e" % v + end``, NUL-padded.

    ``x`` is read as a flat float64 array and ``end`` is at most three
    ASCII characters.  Values the kernel cannot decide exactly (see
    ``_decimal``) are formatted by Python's ``%``.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    t = _tables()
    fast, D, i = _decimal(x, t)
    hi, lo = np.divmod(D, 10**8)
    lead, hi = np.divmod(hi, 10**8)
    quads = np.empty((x.size, 4), np.intp)  # the 16 digits after the lead, 4 at a time
    np.divmod(hi, 10**4, out=(quads[:, 0], quads[:, 1]))
    np.divmod(lo, 10**4, out=(quads[:, 2], quads[:, 3]))
    out = np.empty((x.size, CELL_WORDS), np.uint32)
    out[:, 0] = t.heads[lead + 10 * np.signbit(x)]
    out[:, 1:5] = t.groups[quads]
    out[:, 5:] = _exponents(end).take(i, axis=0)
    cells = out.view(CELL).ravel()
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ["%.16e%s" % (v, end) for v in x[slow].tolist()]
        cells[slow] = np.array(text, dtype="S%d" % CELL.itemsize).view(CELL)
    return cells

"""The CSV tables of ``cli.run``: ``_header``, then ``_write_rows`` per chunk.

Tables are written as the bytes of %.17g (README, "Config schema"): a
chunk of an exact run (``engine._Carry``) as one block of integers, |x|
after their sign; any other in blocks of _CHUNK_ROWS rows from _fixed17,
exponent-form cells spliced in, integer cells printed as %.17g does too.
Larger blocks write faster, but each float block's _fixed17 temporaries
grow with it (variant-grid's peak RSS: +1% at 512, +3% at 1024).
"""

from __future__ import annotations

import numpy as np

_CHUNK_ROWS = 384
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _layout(table: np.ndarray, neg: np.ndarray, mag: np.ndarray,
            cols: np.ndarray | None = None, point: np.ndarray | None = None) -> str:
    """CSV rows of a table: cell j is ``-`` if neg[j], then the last cols[j]
    digits of mag[j] (all of them if mag is |x| of exact integers and no
    cols), with ``.`` over the 0 digit point[j] > 0 places from the right.
    Given point (a float block), a cell with cols[j] = 0 (and no neg[j])
    is format(x, ".17g") of its table entry x, spliced in at its offset.
    Each cell gets W + 1 bytes: digits as x - 10 (x // 10) on uint32, nine
    at a time (numpy's % is slower), right-aligned, then ``,`` or ``\n``.
    An integer block's buffer is cell-major, (C, W+1): from its narrowest
    cell up, each digit is multiplied by cols > j, so every byte left of a
    cell's width is NUL; the ``-`` goes in after that, and one
    bytes.translate drops the NULs. A float block's is (W+1, C), and a
    transpose with a mask of each cell's last width + 1 bytes joins them
    in row order; its widths are near-uniform (W ~ 18), so its strided
    cell-major writes cost more than the gather."""
    exact = cols is None
    if exact:
        top = int(mag.max())
        mag = mag.astype(np.uint32 if top < 2**32 else np.uint64)
        cols = np.ones(mag.size, np.uint8)
        for j in range(1, len(str(top))):
            cols += mag >= 10**j
        lo = int(cols.min())
    width = neg + cols
    W = int(width.max())
    buf = np.empty((mag.size, W + 1), np.uint8).T if exact else np.empty((W + 1, mag.size), np.uint8)
    for j in range(W):
        if j % 9 == 0:
            mag, limb = np.divmod(mag, 10**9) if W - j > 9 else (mag, mag)
            limb = limb.astype(np.uint32, copy=False)
        q = limb // 10
        if exact:
            digit = (limb - q * 10).astype(np.uint8)
            digit += ord("0")
            if j >= lo:
                digit *= cols > j
            buf[W - 1 - j] = digit
        else:
            buf[W - 1 - j] = limb - q * 10
        limb = q
    if not exact:
        buf[:W] += ord("0")
        at = np.flatnonzero(point)
        buf[W - 1 - point[at], at] = ord(".")
    if neg.any():
        buf[W - width[neg], np.flatnonzero(neg)] = ord("-")
    buf[W] = ord(",")
    buf[W, table.shape[1] - 1 :: table.shape[1]] = ord("\n")
    if exact:
        return buf.T.tobytes().translate(None, b"\0").decode("ascii")
    keep = np.arange(W + 1, dtype=np.uint8)[:, None] + width >= W
    text = buf.T[keep.T].tobytes().decode("ascii")
    loose = np.flatnonzero(cols == 0)
    if not len(loose):
        return text
    at = (np.cumsum(width + 1) - 1)[loose].tolist()  # each loose cell's separator
    pieces = [text[:at[0]]]
    for x, j, end in zip(table.ravel()[loose].tolist(), at, at[1:] + [len(text)]):
        pieces += [format(x, ".17g"), text[j:end]]
    return "".join(pieces)


def _fixed17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_layout's (mag, cols, point) for the %.17g text of a >= 0: where a is
    0 or 1e-4 <= a < 1e17, which %.17g prints fixed, its 17 digits are
    N = a 10**(16-E) rounded half to even, E = floor(log10 a): Dekker's
    TwoProduct splits the exact product into h + l, h >= 2**53 is even, so
    N = h + rint(l).  M is N with its trailing zeros past the point
    stripped, leaving f digits past it, and mag = M + 9 (M - M mod 10**f)
    has a 0 digit where the point goes (``0.`` leads if E < 0); elsewhere
    cols is 0."""
    window = (a >= 1e-4) & (a < 1e17)
    x = np.where(window, a, 1.0)
    scale = np.array([float(10**j) for j in range(21)])
    E = np.floor(np.log10(x))
    # floor(log10) may be one off next to a power of ten; no cell rounds up
    # to N = 10**17, as the float below each 10**j here is over 10**(j-17) off
    for _ in range(2):
        E = np.clip(E, -4, 16)  # so the index and the int64 cast stay in range
        s = scale[(16 - E).astype(np.intp)]
        h = x * s
        xh, sh = x * 134217729.0, s * 134217729.0
        xh -= xh - x
        sh -= sh - s
        l = ((xh * sh - h) + xh * (s - sh) + (x - xh) * sh) + (x - xh) * (s - sh)
        N = h.astype(np.int64) + np.rint(l).astype(np.int64)
        off = (N >= 10**17).astype(np.int8) - (N < 10**16)
        if not off.any():
            break
        E += off
    f = (16 - E).astype(np.int64)
    z = np.flatnonzero((N % 10 == 0) & (f > 0))  # the cells with a zero to strip
    M, g = N[z], f[z]
    for j in (16, 8, 4, 2, 1):
        q = M // 10**j
        cut = (q * 10**j == M) & (g >= j)
        M = np.where(cut, q, M)
        g -= j * cut
    N[z], f[z] = M, g
    N[~window] = 0
    unit = _POW10[np.where((f > 0) & (f < 17), f, 17)]  # 10**17 > M: mag = M
    cols = (np.maximum(E, 0) + 1 + f + (f > 0)).astype(np.uint8)
    cols[~window & (a != 0)] = 0
    return N + N // unit * unit * 9, cols, f


def _header(measure: str, n: int) -> str:
    """A table's first line: k, then the measure's initial and each station."""
    return f"k,{','.join(f'{measure[0]}_{i}' for i in range(1, n + 1))}\n"


def _write_rows(fh, rows: np.ndarray, k0: int, exact: bool) -> None:
    """Write rows (L x n), those of customers k0+1..k0+L, under their k
    column as CSV, each cell as ``.17g`` text (see above): one integer
    block, unchecked, if and only if exact (the rows of a chunk whose run is
    exact, ``engine._Carry``: every cell an integer below 2**53), else float
    blocks of _CHUNK_ROWS rows."""
    step = len(rows) if exact else _CHUNK_ROWS
    for j in range(0, len(rows), step):
        block = rows[j:j + step]
        table = np.column_stack((np.arange(k0 + j + 1, k0 + j + len(block) + 1), block))
        a, neg = np.abs(table.ravel()), np.signbit(table.ravel())
        if exact:
            fh.write(_layout(table, neg, a))
        else:
            mag, cols, point = _fixed17(a)
            fh.write(_layout(table, neg & (cols > 0), mag, cols, point))

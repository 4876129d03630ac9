"""Vectorized Hilbert-curve index <-> coordinate transforms.

The curve is defined on a ``2**order x 2**order`` grid. ``xy2d`` maps grid
coordinates to the 1-D Hilbert index (the basis of the s2lite cell key);
``d2xy`` is the inverse, used to recover cell bounds for coverings and
error measurement.

``xy2d`` is table-driven, as S2's ``S2CellId::FromFaceIJ`` is: the
curve's orientation below any level is one of four states (swap x/y
and/or complement both), so a table precomputed at import maps
``(state, 4 bits of x, 4 bits of y)`` to 8 bits of index plus the next
state. An order-30 index thus takes 8 table gathers per point, which is
what makes key materialization of millions of points cheap enough for
every build and for a pandas UDF. Scalar calls (one per covering cell)
run the same loop over Python ints. ``d2xy`` keeps the plain per-level
loop; it only serves cell bounds and, in the tests, as an independent
check of ``xy2d``.

The Hilbert construction is hierarchical: the top ``2*l`` bits of a
level-30 index form the level-``l`` index of the containing cell. The
cell-id algebra in :mod:`repro.s2lite.cell` relies on this property.
"""
import numpy as np

__all__ = ["xy2d", "d2xy"]


def _build_lookup():
    """Entry ``(state << 8) | (x_chunk << 4) | y_chunk`` is
    ``(digit << 10) | (next_state << 8)``: the 8-bit index digit of a
    4-level chunk and the orientation below it, kept shifted so that it
    ORs straight into the next entry's index. State bit 0 swaps x and y,
    bit 1 complements both; the two commute."""
    table = []
    for state in range(4):
        for xc in range(16):
            for yc in range(16):
                s, digit = state, 0
                for b in range(3, -1, -1):
                    rx, ry = (xc >> b) & 1, (yc >> b) & 1
                    if s & 1:
                        rx, ry = ry, rx
                    if s & 2:
                        rx, ry = rx ^ 1, ry ^ 1
                    digit = (digit << 2) | ((3 * rx) ^ ry)
                    # The lower quadrants hold the sub-curve swapped; the
                    # lower-right one also complemented.
                    if ry == 0:
                        s ^= 1 | (rx << 1)
                table.append((digit << 10) | (s << 8))
    return table


_LOOKUP = _build_lookup()  # Python ints, for the scalar path
_LOOKUP_NP = np.array(_LOOKUP, dtype=np.int64)


def xy2d(order: int, x, y):
    """Hilbert index of grid cell ``(x, y)`` on a ``2**order`` grid.

    ``x``/``y`` may be scalars or numpy integer arrays in
    ``[0, 2**order)``; the result is an int scalar or int64 array in
    ``[0, 4**order)``. ``order`` must be <= 31 so the index fits in a
    signed 64-bit integer (we use 30).
    """
    if order > 31:
        raise ValueError(f"order {order} does not fit a signed 64-bit index")
    steps = -(-order // 4)
    shift = 4 * steps
    # The chunks are aligned to multiples of 4 levels; each zero level
    # padded above the curve swaps the orientation, so start in the state
    # that the padding turns back into the identity.
    state = ((shift - order) & 1) << 8
    mask = (1 << order) - 1
    if isinstance(x, (int, np.integer)) and isinstance(y, (int, np.integer)):
        x, y, d = int(x) & mask, int(y) & mask, 0
        for _ in range(steps):
            shift -= 4
            e = _LOOKUP[state | ((x >> shift & 15) << 4) | (y >> shift & 15)]
            d = (d << 8) | (e >> 10)
            state = e & 0x300
        return d
    x = np.asarray(x, dtype=np.int64) & mask
    y = np.asarray(y, dtype=np.int64) & mask
    d = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.int64)
    for _ in range(steps):
        shift -= 4
        idx = (((x >> shift) & 15) << 4) | ((y >> shift) & 15)
        idx |= state
        e = _LOOKUP_NP[idx]
        d <<= 8
        d |= e >> 10
        state = e & 0x300
    if d.ndim == 0:
        return int(d)
    return d


def d2xy(order: int, d):
    """Grid cell ``(x, y)`` of Hilbert index ``d`` on a ``2**order`` grid.

    Inverse of :func:`xy2d`; accepts scalars or numpy int arrays.
    """
    if order > 31:
        raise ValueError(f"order {order} does not fit a signed 64-bit index")
    t = np.asarray(d, dtype=np.int64).copy()
    x = np.zeros(t.shape, dtype=np.int64)
    y = np.zeros(t.shape, dtype=np.int64)
    s = np.int64(1)
    n = np.int64(1) << order
    while s < n:
        rx = 1 & (t >> 1)
        ry = 1 & (t ^ rx)
        swap = ry == 0
        flip = swap & (rx == 1)
        x_f = np.where(flip, s - 1 - x, x)
        y_f = np.where(flip, s - 1 - y, y)
        x, y = np.where(swap, y_f, x_f), np.where(swap, x_f, y_f)
        x += s * rx
        y += s * ry
        t >>= 2
        s <<= 1
    if x.ndim == 0:
        return int(x), int(y)
    return x, y

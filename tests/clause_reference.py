"""One block pattern's clause on its fibers alone, laid out over every row
of the tensor, for comparing with the slices of the whole tensors that the
grouped clause calls fill."""

import numpy as np

from warpcurv import structured


def curvature_block(cache, kind, bx, by, bz):
    """R(X, Y)Z over blocks bx, by, bz ("base" or a fiber index) at the
    cache's points, out[p, l, x, y, z] over every row l, as the whole
    tensor holds it: the clause of the pattern called with one member, as a
    sweep plan calls a class of one block triple (`every_row`); for a
    mirrored pattern its mirror's, the X and Y axes swapped and the sign
    flipped, as the tensor fills it; then the symmetrized kind's
    dpi(X, Y) Z."""
    view, clause, sym = structured._dispatch(cache, kind, structured._curv_p_base,
                                             structured._curv_p_fiber)
    if structured._mirrored(bx, by, bz):
        out = -np.swapaxes(every_row(view, clause(view, by, bx, bz), by, bx, bz), 2, 3)
    else:
        out = every_row(view, clause(view, bx, by, bz), bx, by, bz)
    if sym:
        structured._dpi_term(out[:, cache.spec.block_slice(bz)], view.dpi(bx, by))
    return out


def nabla_block(cache, kind, bx, by):
    """nabla_X Y over blocks bx, by at the cache's points, out[p, l, x, y]
    over every row l: the clause called with one member (`every_row`)."""
    return every_row(cache, structured._covariant_block(cache, kind, bx, by), bx, by)


def every_row(cache, value, *blocks):
    """A clause value of one member over blocks `blocks`, whose rows are
    those of `_row_blocks`, with each row at its place among every row of
    the tensor and +0.0 on the rows the clause does not write."""
    rows, _, _ = cache.block(*blocks)
    out = np.zeros((len(cache.p), cache.nbar) + value.shape[2:])
    for b, sl in rows.items():
        out[:, cache.spec.block_slice(b)] = value[:, sl]
    return out


def members(*args):
    """The block pattern of each member of a clause call over `args`,
    "base", a fiber index or a member tuple."""
    size = next((len(a) for a in args if isinstance(a, tuple)), 1)
    return list(zip(*(a if isinstance(a, tuple) else (a,) * size for a in args)))

"""Exact sparse Gaussian elimination over Q(i, sqrt2).

Vectors are dicts from hashable coordinates to Scalars.  Pivoting is
deterministic.  `SpanChecker` pivots on the smallest coordinate under the
supplied sort key; its reduced rows, and so the residues it returns,
depend on that rule.  `kernel_basis` pivots on the coordinate that the
fewest images touch (Markowitz's sparsity rule, ties broken by the sort
key), which keeps fill-in low; the kernel it returns does not depend on
the pivot rule (see its docstring).
"""

from __future__ import annotations

from collections import Counter

from .scalars import ONE, add_scaled


class SpanChecker:
    """Incremental row reduction with span membership tests.

    Each row is zero at every other row's pivot (`add` reduces a new row by
    the old ones, then clears its pivot from them), so `reduce` needs only
    the rows whose pivot is a key of the vector, applied in pivot order.
    """

    def __init__(self, coord_key):
        self.coord_key = coord_key
        self.rows: dict = {}  # pivot coordinate -> (coord_key(pivot), row)

    def reduce(self, vec: dict) -> dict:
        """Residue of vec modulo the current span."""
        rows = self.rows
        vec = add_scaled({}, vec)
        for pivot in sorted((k for k in vec if k in rows), key=lambda k: rows[k][0]):
            add_scaled(vec, rows[pivot][1], -vec[pivot])
        return vec

    def add(self, vec: dict) -> dict:
        """Insert vec; returns the residue (empty when already in span)."""
        residue = self.reduce(vec)
        if not residue:
            return residue
        pivot = min(residue, key=self.coord_key)
        inv = residue[pivot].inverse()
        row = {k: inv * v for k, v in residue.items()}
        for _, old in self.rows.values():
            coef = old.get(pivot)
            if coef:
                add_scaled(old, row, -coef)
        self.rows[pivot] = (self.coord_key(pivot), row)
        return residue

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)


def kernel_basis(images: list[dict], domain_size: int, coord_key) -> list[dict]:
    """Kernel of the linear map sending domain basis vector j to images[j].

    Returns a kernel basis in row echelon form, as dicts {domain index:
    Scalar}: each vector is reduced against the span of the earlier ones
    and scaled so that its smallest domain index has coefficient 1.
    Earlier vectors are not reduced against later ones.

    Each image is reduced against the earlier pivot rows; the pivot of a
    new row is the coordinate occurring in the fewest images, ties broken
    by ``coord_key``.  The result does not depend on that choice: index j
    gets a row exactly when images[j] is independent of the earlier
    images, and otherwise yields the unique kernel vector in e_j + span{e_i
    : i < j, images[i] independent}.  Only the dicts' insertion order can
    change with the pivot rule.
    """
    count = Counter(k for img in images for k in img)
    rows: list[tuple[object, dict, dict]] = []  # (pivot, image row, preimage)
    kernel: list[dict] = []
    for j in range(domain_size):
        img = add_scaled({}, images[j])
        pre = {j: ONE}
        for pivot, row, rowpre in rows:
            coef = img.get(pivot)
            if coef:
                add_scaled(img, row, -coef)
                add_scaled(pre, rowpre, -coef)
        if img:
            pivot = min(img, key=lambda k: (count[k], coord_key(k)))
            inv = img[pivot].inverse()
            rows.append(
                (pivot, {k: inv * v for k, v in img.items()},
                 {k: inv * v for k, v in pre.items()})
            )
        else:
            kernel.append(pre)
    # echelon form on the domain: each kernel vector is reduced only against
    # the ones before it, never back-reduced
    reducer = SpanChecker(coord_key=lambda j: j)
    out: list[dict] = []
    for vec in kernel:
        residue = reducer.add(vec)
        if residue:
            # `add` stored the residue scaled at its smallest index; copied,
            # since later `add` calls back-reduce the stored rows in place
            out.append(dict(reducer.rows[min(residue)][1]))
    return out

"""Exact linear algebra over Fraction, just enough for this package.

Vectors are tuples of Fractions, and an Echelon keeps its rows as
sparse dicts of Fractions; no floats anywhere.  Echelon is the one
elimination: rref, rank, in_span, solve and nullspace read their
answers off it, and span_basis reads rref.
"""
from __future__ import annotations

from fractions import Fraction


class Echelon:
    """A span reduced once, for testing many vectors against it.

    Row k is a sparse dict {column: value} with 1 at its pivot column
    pivots[k] and 0 at the pivots of the rows before it, so one pass over
    the rows in order reduces a vector to its residue, which is zero
    exactly when the vector lies in the span.  Rows are never changed
    once added, so an echelon started from another shares its rows.
    `dependent` lists the indices of the given vectors that lay in the
    span of the ones before them (and of `start`).  Every vector must
    have the length of the first one it saw.
    """

    def __init__(self, vectors=(), start: Echelon | None = None):
        self.width: int | None = None if start is None else start.width
        self.pivots: list[int] = [] if start is None else list(start.pivots)
        self.rows: list[dict] = [] if start is None else list(start.rows)
        self.dependent = [i for i, v in enumerate(vectors) if not self.add(v)]

    def reduce(self, v) -> dict:
        """The nonzero entries of v after reduction by every row: linear
        in v, and empty exactly when v lies in the span."""
        if self.width is None:
            self.width = len(v)
        elif len(v) != self.width:
            raise ValueError(f"vector of length {len(v)} against a span of "
                             f"vectors of length {self.width}")
        r = {j: x for j, x in enumerate(v) if x}
        for p, row in zip(self.pivots, self.rows):
            c = r.get(p)
            if c:
                for j, x in row.items():
                    y = r.get(j, 0) - c * x
                    if y:
                        r[j] = y
                    else:
                        del r[j]
        return r

    def contains(self, v) -> bool:
        return not self.reduce(v)

    def add(self, v) -> bool:
        """Extend the span by v; False, with nothing added, when v is in it."""
        r = self.reduce(v)
        if not r:
            return False
        p = min(r)
        pv = Fraction(r[p])
        self.pivots.append(p)
        self.rows.append({j: x / pv for j, x in r.items()})
        return True


def rref(rows):
    """Reduced row echelon form. Returns (new_rows, pivot_columns): the
    pivot rows by ascending pivot, then zero rows up to the input count."""
    rows = list(rows)
    if not rows:
        return [], []
    ncols, zero = len(rows[0]), Fraction(0)

    def dense(row: dict) -> tuple:
        return tuple(row.get(j, zero) for j in range(ncols))

    # An echelon row is 1 at its pivot, its first nonzero column, and 0 at
    # the pivots of the rows before it.  So adding the rows last first
    # clears each at the pivots of the rows after it and keeps its pivot:
    # the reduced form.
    ech = Echelon([dense(row) for row in reversed(Echelon(rows).rows)])
    order = sorted(range(len(ech.pivots)), key=ech.pivots.__getitem__)
    out = [dense(ech.rows[k]) for k in order]
    out += [(zero,) * ncols] * (len(rows) - len(out))
    return out, [ech.pivots[k] for k in order]


def rank(rows) -> int:
    return len(Echelon(rows).rows)


def span_basis(vectors):
    """Canonical basis (rref rows) of the span of the given vectors."""
    red, pivots = rref(vectors)
    return red[:len(pivots)]


def in_span(vectors, v) -> bool:
    return Echelon(vectors).contains(v)


def solve(rows, width, targets):
    """For each target t, one exact x with rows @ x = t, or None when there
    is none.  One echelon of the rows with every target appended as a
    column: t is inconsistent exactly when a row with no entry among the
    first `width` columns has one in t's column.  Free variables are 0."""
    ech = _augmented(rows, width, targets)
    bad = {j for p, row in zip(ech.pivots, ech.rows) if p >= width for j in row}
    return [None if width + t in bad
            else _back_substitute(ech, width, [Fraction(0)] * width, width + t)
            for t in range(len(targets))]


def nullspace(rows, width):
    """Basis of {x : rows @ x = 0} for x of length `width`: one vector per
    free column f, 1 at f and 0 at the other free columns."""
    ech = _augmented(rows, width, ())
    return [tuple(_back_substitute(ech, width, [Fraction(int(j == f)) for j in range(width)]))
            for f in range(width) if f not in ech.pivots]


def _augmented(rows, width, targets) -> Echelon:
    """The echelon of [rows | targets as columns]."""
    rows = [tuple(r) for r in rows]
    if any(len(r) != width for r in rows) or any(len(t) != len(rows) for t in targets):
        raise ValueError("dimension mismatch")
    return Echelon([r + tuple(t[i] for t in targets) for i, r in enumerate(rows)])


def _back_substitute(ech: Echelon, width: int, x: list, col=None) -> list:
    """Fill in the pivot entries of x, its free entries already set, so
    that the rows map x to their column `col` (to 0 when None): each row
    with its pivot among the first `width` columns, last first."""
    for p, row in zip(reversed(ech.pivots), reversed(ech.rows)):
        if p < width:
            x[p] = row.get(col, 0) - sum((v * x[j] for j, v in row.items() if p < j < width),
                                         Fraction(0))
    return x

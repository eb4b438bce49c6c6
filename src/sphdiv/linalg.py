"""Exact linear algebra over Fraction, just enough for this package.

Vectors are tuples of Fractions, and an Echelon keeps its rows as
sparse dicts of Fractions; no floats anywhere.  Echelon is the one
elimination: rref, rank, in_span and solve_columns read their answers
off it, and span_basis and nullspace read rref.
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


def solve_columns(cols, target):
    """One exact solution x of sum_j x_j cols[j] = target, or None.  The free
    variables are 0, so the echelon rows, last first, give the pivot ones."""
    cols, target = [tuple(c) for c in cols], tuple(target)
    n, k = len(target), len(cols)
    if any(len(c) != n for c in cols):
        raise ValueError("column dimension mismatch")
    ech = Echelon([[c[r] for c in cols] + [target[r]] for r in range(n)])
    if k in ech.pivots:
        return None
    x = [Fraction(0)] * k
    for p, row in zip(reversed(ech.pivots), reversed(ech.rows)):
        x[p] = row.get(k, 0) - sum((v * x[j] for j, v in row.items() if p < j < k), Fraction(0))
    return x


def nullspace(rows):
    """Basis of {x : rows @ x = 0} via the standard free-variable trick."""
    rows = [tuple(r) for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    return basis

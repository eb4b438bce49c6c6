"""Exact arithmetic the benchmark checks sphdiv's answers against.

Nothing here imports sphdiv.  Each expected answer comes from a method
other than the program's own:

- Cartan matrices from Euclidean Gram matrices of the simple roots;
- kappa = 2 rho - 2 rho_Sp by solving the Cartan system on Sp, where the
  program enumerates the positive roots of Sp;
- positive-root counts and largest heights from the type formulas;
- ranks and solutions by plain Gaussian elimination over Fraction;
- Lie brackets of block matrices held as sparse {(row, col): value} maps.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

# --------------------------------------------------------------- root data

_E_EDGES = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]


def _gram(fam: str, n: int) -> list[list[Fraction]]:
    """Gram matrix (alpha_i, alpha_j) of the simple roots, Bourbaki order."""
    half = Fraction(1, 2)
    g = [[Fraction(0)] * n for _ in range(n)]
    if fam in ("A", "D", "E"):
        for i in range(n):
            g[i][i] = Fraction(2)
        if fam == "A":
            edges = [(i, i + 1) for i in range(n - 1)]
        elif fam == "D":
            edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
        else:
            edges = [(i, j) for i, j in _E_EDGES if j < n]
        for i, j in edges:
            g[i][j] = g[j][i] = Fraction(-1)
    elif fam == "B":  # alpha_n short
        for i in range(n):
            g[i][i] = Fraction(2 if i < n - 1 else 1)
        for i in range(n - 1):
            g[i][i + 1] = g[i + 1][i] = Fraction(-1)
    elif fam == "C":  # alpha_n long
        for i in range(n):
            g[i][i] = Fraction(1 if i < n - 1 else 2)
        for i in range(n - 2):
            g[i][i + 1] = g[i + 1][i] = -half
        g[n - 2][n - 1] = g[n - 1][n - 2] = Fraction(-1)
    elif fam == "F":  # alpha_1, alpha_2 long
        g = [[Fraction(x) for x in row] for row in
             ([2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 1, -half], [0, 0, -half, 1])]
    elif fam == "G":  # alpha_1 short
        g = [[Fraction(2), Fraction(-3)], [Fraction(-3), Fraction(6)]]
    else:
        raise ValueError(f"unknown family {fam}")
    return g


def cartan(factors) -> list[list[int]]:
    """C[i][j] = <alpha_i^vee, alpha_j> = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i)
    for a product of (family, rank) factors, block-diagonal."""
    total = sum(n for _, n in factors)
    c = [[0] * total for _ in range(total)]
    off = 0
    for fam, n in factors:
        g = _gram(fam, n)
        for i in range(n):
            for j in range(n):
                c[off + i][off + j] = int(2 * g[i][j] / g[i][i])
        off += n
    return c


_COXETER = {("E", 6): 12, ("E", 7): 18, ("E", 8): 30, ("F", 4): 12, ("G", 2): 6}
_E_ROOTS = {6: 36, 7: 63, 8: 120}


def positive_root_count(fam: str, n: int) -> int:
    if fam == "A":
        return n * (n + 1) // 2
    if fam in ("B", "C"):
        return n * n
    if fam == "D":
        return n * (n - 1)
    if fam == "E":
        return _E_ROOTS[n]
    return {"F": 24, "G": 6}[fam]


def coxeter_number(fam: str, n: int) -> int:
    if fam == "A":
        return n + 1
    if fam in ("B", "C"):
        return 2 * n
    if fam == "D":
        return 2 * n - 2
    return _COXETER[(fam, n)]


def kappa_fund(factors, sp) -> list[Fraction]:
    """kappa = 2 rho - 2 rho_Sp in fundamental coordinates, from the
    Cartan system: 2 rho_Sp = sum_{j in Sp} c_j alpha_j with
    <alpha_i^vee, 2 rho_Sp> = 2 for every i in Sp."""
    c = cartan(factors)
    sp = sorted(sp)
    coeffs = solve([[c[i][j] for j in sp] for i in sp], [2] * len(sp)) if sp else []
    return [2 - sum((x * c[k][j] for x, j in zip(coeffs, sp)), Fraction(0))
            for k in range(len(c))]


# --------------------------------------------------------------- elimination

def _echelon(rows):
    """Row-reduce a copy of rows; returns (reduced rows, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    top = 0
    width = len(m[0]) if m else 0
    for col in range(width):
        pick = next((i for i in range(top, len(m)) if m[i][col]), None)
        if pick is None:
            continue
        m[top], m[pick] = m[pick], m[top]
        inv = 1 / m[top][col]
        m[top] = [x * inv for x in m[top]]
        for i in range(len(m)):
            if i != top and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[top])]
        pivots.append(col)
        top += 1
    return m, pivots


def rank(rows) -> int:
    return len(_echelon(rows)[1]) if rows else 0


def solve(a, b) -> list[Fraction]:
    """The unique solution x of a x = b for a square nonsingular a."""
    n = len(a)
    red, pivots = _echelon([list(row) + [rhs] for row, rhs in zip(a, b)])
    if pivots != list(range(n)):
        raise ValueError("singular system")
    return [red[i][n] for i in range(n)]


def positive_solutions(chis, target, bound: int) -> list[tuple[int, ...]]:
    """Every m in [1, bound]^k with sum m_i chi_i = target, in
    lexicographic order.  The system is reduced once; the pivot
    coefficients then follow from each choice of the free ones, so only
    bound ** (number of free coefficients) candidates are tried."""
    k = len(chis)
    if k == 0:
        return [()] if not any(target) else []
    rows = [[chi[c] for chi in chis] + [t] for c, t in enumerate(target)]
    red, pivots = _echelon(rows)
    if k in pivots:
        return []
    free = [j for j in range(k) if j not in pivots]
    if bound ** len(free) > 100_000:
        raise ValueError("too many free coefficients for this search")
    out = []
    for values in product(range(1, bound + 1), repeat=len(free)):
        m = [0] * k
        for j, v in zip(free, values):
            m[j] = v
        for row, p in zip(red, pivots):
            m[p] = row[k] - sum(row[j] * m[j] for j in free)
        if all(x.denominator == 1 and 1 <= x <= bound for x in map(Fraction, m)):
            out.append(tuple(int(x) for x in m))
    return sorted(out)


# --------------------------------------------------------------- matrices

def sparse_block(flat, n: int) -> dict:
    """A flat row-major n x n array as {(row, col): Fraction}."""
    return {(i // n, i % n): Fraction(v) for i, v in enumerate(flat) if Fraction(v)}


def block_mul(a: dict, b: dict) -> dict:
    by_row = {}
    for (k, j), v in b.items():
        by_row.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), v in a.items():
        for j, w in by_row.get(k, ()):
            out[(i, j)] = out.get((i, j), 0) + v * w
    return {key: v for key, v in out.items() if v}


def block_bracket(a: dict, b: dict) -> dict:
    ab, ba = block_mul(a, b), block_mul(b, a)
    out = dict(ab)
    for key, v in ba.items():
        out[key] = out.get(key, 0) - v
    return {key: v for key, v in out.items() if v}


def element_bracket(x, y):
    """[x, y] for elements given as lists of per-block sparse maps."""
    return [block_bracket(a, b) for a, b in zip(x, y)]


def element_scale(c, x):
    return [{key: c * v for key, v in blk.items()} for blk in x]


def element_vector(x, blocks) -> list[Fraction]:
    return [blk.get((i, j), Fraction(0))
            for blk, n in zip(x, blocks) for i in range(n) for j in range(n)]


def element_from_json(raw, blocks):
    return [sparse_block(flat, n) for flat, n in zip(raw, blocks)]


def triple_relations_hold(e, h, f) -> bool:
    """[e, f] = h, [h, e] = 2e and [h, f] = -2f."""
    return (element_bracket(e, f) == h
            and element_bracket(h, e) == element_scale(2, e)
            and element_bracket(h, f) == element_scale(-2, f))


def first_unclosed_pair(h_basis, blocks):
    """The first pair (i, j), i <= j, whose bracket leaves span(h_basis),
    or None when the span is a subalgebra."""
    vecs = [element_vector(x, blocks) for x in h_basis]
    base = rank(vecs)
    for i, x in enumerate(h_basis):
        for j in range(i, len(h_basis)):
            z = element_vector(element_bracket(x, h_basis[j]), blocks)
            if any(z) and rank(vecs + [z]) > base:
                return i, j
    return None

"""Root systems with exact coroot/weight pairings.

Simple roots are numbered per factor in Bourbaki order and concatenated;
an optional central torus contributes extra character coordinates that
every pairing simply carries along.  Weights live in fundamental-weight
coordinates, coweights in the dual basis, so all pairings are coordinate
dot products over Fraction.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import linalg

MAX_TOTAL_RANK = 64

_FACTOR_RE = re.compile(r"^([A-G])(\d+)$")
_TORUS_RE = re.compile(r"^T(\d+)$")


@dataclass(frozen=True)
class RootSystemSpec:
    """A product of simple factors plus a central torus rank."""
    factors: tuple[tuple[str, int], ...]
    central_rank: int = 0

    @property
    def semisimple_rank(self) -> int:
        return sum(r for _, r in self.factors)

    def __str__(self) -> str:
        body = "x".join(f"{fam}{rk}" for fam, rk in self.factors)
        if self.central_rank and body:
            return f"{body}+T{self.central_rank}"
        if self.central_rank or not body:
            return f"T{self.central_rank}"
        return body


def parse_spec(text: str) -> RootSystemSpec:
    """Parse a spec string like "A4", "A2xA2", "A3+T1" or "T2"."""
    s = text.strip()
    if not s:
        raise ValueError("empty root-system spec")
    central = 0
    if "+" in s:
        body, _, tail = s.partition("+")
        m = _TORUS_RE.match(tail.strip())
        if not m:
            raise ValueError(f"bad central-torus suffix {tail!r} in {text!r}")
        central = int(m.group(1))
        s = body.strip()
    m = _TORUS_RE.match(s)
    if m:
        if central:
            raise ValueError(f"two torus parts in {text!r}")
        spec = RootSystemSpec((), int(m.group(1)))
    else:
        factors = []
        for part in s.split("x"):
            fm = _FACTOR_RE.match(part.strip())
            if not fm:
                raise ValueError(f"bad factor {part!r} in {text!r}")
            factors.append((fm.group(1), int(fm.group(2))))
        spec = RootSystemSpec(tuple(factors), central)
    validate_spec(spec)
    return spec


def validate_spec(spec: RootSystemSpec) -> None:
    for fam, rk in spec.factors:
        if fam == "A" and rk >= 1:
            continue
        if fam in ("B", "C") and rk >= 2:
            continue
        if fam == "D" and rk >= 3:
            continue
        if fam == "E" and rk in (6, 7, 8):
            continue
        if fam == "F" and rk == 4:
            continue
        if fam == "G" and rk == 2:
            continue
        raise ValueError(f"illegal factor {fam}{rk}")
    if spec.central_rank < 0:
        raise ValueError("negative central rank")
    if spec.semisimple_rank > MAX_TOTAL_RANK:
        raise ValueError(f"total rank {spec.semisimple_rank} exceeds cap {MAX_TOTAL_RANK}")
    if spec.central_rank > MAX_TOTAL_RANK:
        raise ValueError(f"central rank {spec.central_rank} exceeds cap {MAX_TOTAL_RANK}")


def _cartan_block(fam: str, n: int):
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j):
        c[i][j] = -1
        c[j][i] = -1

    if fam in ("A", "B", "C"):
        for i in range(n - 1):
            edge(i, i + 1)
        if fam == "B" and n >= 2:
            # short last root: <a_n^vee, a_{n-1}> = -2
            c[n - 1][n - 2] = -2
        if fam == "C" and n >= 2:
            # long last root
            c[n - 2][n - 1] = -2
    elif fam == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        if n >= 3:
            edge(n - 3, n - 1)
    elif fam == "E":
        chain = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
        for i, j in chain:
            if j < n:
                edge(i, j)
        edge(1, 3)
    elif fam == "F":
        edge(0, 1)
        edge(2, 3)
        c[1][2] = -1
        c[2][1] = -2
    elif fam == "G":
        c[0][1] = -3
        c[1][0] = -1
    return c


@dataclass(frozen=True)
class RootSystem:
    spec: RootSystemSpec
    cartan: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return self.spec.semisimple_rank

    @property
    def central_rank(self) -> int:
        return self.spec.central_rank

    def root_name(self, i: int) -> str:
        self._check_index(i)
        return f"a{i + 1}"

    def root_index(self, name: str) -> int:
        m = re.match(r"^a(\d+)$", name)
        if not m:
            raise ValueError(f"bad simple-root name {name!r}")
        i = int(m.group(1)) - 1
        self._check_index(i, name)
        return i

    def _check_index(self, i: int, label=None) -> None:
        if not 0 <= i < self.rank:
            raise ValueError(f"simple root {label or i} out of range for {self.spec}")

    def zero_weight(self) -> "Weight":
        return Weight((0,) * self.rank, (0,) * self.central_rank)

    def fundamental_weight(self, i: int) -> "Weight":
        self._check_index(i)
        fund = [0] * self.rank
        fund[i] = 1
        return Weight(tuple(fund), (0,) * self.central_rank)

    def simple_root_weight(self, i: int) -> "Weight":
        """The simple root alpha_i written in fundamental coordinates."""
        self._check_index(i)
        return Weight(tuple(row[i] for row in self.cartan), (0,) * self.central_rank)


def build_root_system(spec) -> RootSystem:
    if isinstance(spec, str):
        spec = parse_spec(spec)
    validate_spec(spec)
    n = spec.semisimple_rank
    cartan = [[0] * n for _ in range(n)]
    off = 0
    for fam, rk in spec.factors:
        block = _cartan_block(fam, rk)
        for i in range(rk):
            for j in range(rk):
                cartan[off + i][off + j] = block[i][j]
        off += rk
    return RootSystem(spec, tuple(tuple(row) for row in cartan))


def _fracs(xs):
    return tuple(Fraction(x) for x in xs)


@dataclass(frozen=True)
class Weight:
    """A character in fundamental-weight coordinates plus central part."""
    fund: tuple
    central: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "fund", _fracs(self.fund))
        object.__setattr__(self, "central", _fracs(self.central))

    def _match(self, other: "Weight"):
        if len(self.fund) != len(other.fund) or len(self.central) != len(other.central):
            raise ValueError("weight dimension mismatch")

    def __add__(self, other: "Weight") -> "Weight":
        self._match(other)
        return Weight(tuple(a + b for a, b in zip(self.fund, other.fund)),
                      tuple(a + b for a, b in zip(self.central, other.central)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._match(other)
        return Weight(tuple(a - b for a, b in zip(self.fund, other.fund)),
                      tuple(a - b for a, b in zip(self.central, other.central)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.fund), tuple(-a for a in self.central))

    def scale(self, c) -> "Weight":
        c = Fraction(c)
        return Weight(tuple(c * a for a in self.fund), tuple(c * a for a in self.central))

    __mul__ = scale
    __rmul__ = scale

    @property
    def is_zero(self) -> bool:
        return not any(self.fund) and not any(self.central)

    def coords(self) -> tuple:
        return self.fund + self.central


@dataclass(frozen=True)
class Coweight:
    """A covector in the basis dual to (fundamental weights, central basis)."""
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", _fracs(self.coords))


@dataclass(frozen=True)
class Root:
    """A root of a sub-root-system, kept both as simple-root coefficients
    over the full set S and as a weight."""
    simple_coeffs: tuple
    as_weight: Weight

    def __post_init__(self):
        object.__setattr__(self, "simple_coeffs", tuple(int(c) for c in self.simple_coeffs))

    @property
    def height(self) -> int:
        return sum(self.simple_coeffs)


def pair(cw, w: Weight) -> Fraction:
    """Exact pairing of a coweight (or a simple coroot given by index)
    against a weight."""
    if isinstance(cw, int):
        if not 0 <= cw < len(w.fund):
            raise ValueError(f"coroot index {cw} out of range")
        return w.fund[cw]
    if not isinstance(cw, Coweight):
        raise TypeError("pair() wants a Coweight or a simple-coroot index")
    coords = w.coords()
    if len(cw.coords) != len(coords):
        raise ValueError("coweight/weight dimension mismatch")
    return sum((a * b for a, b in zip(cw.coords, coords)), Fraction(0))


def _sparse_columns(rs: RootSystem) -> list[tuple]:
    """Column j of the Cartan matrix as its nonzero (k, C[k][j]) pairs,
    so that a root's weight reads only its support."""
    return [tuple((k, row[j]) for k, row in enumerate(rs.cartan) if row[j])
            for j in range(rs.rank)]


def _weight_of_coeffs(rs: RootSystem, columns, coeffs) -> Weight:
    fund = [0] * rs.rank
    for j, c in enumerate(coeffs):
        if c:
            for k, v in columns[j]:
                fund[k] += v * c
    return Weight(tuple(fund), (0,) * rs.central_rank)


def _checked_subset(rs: RootSystem, subset) -> list[int]:
    if subset is None:
        return list(range(rs.rank))
    I = sorted(set(subset))
    for i in I:
        rs._check_index(i)
    return I


def _dynkin_components(rs: RootSystem, subset) -> list[list[int]]:
    """The connected components of the Dynkin diagram on `subset`, each
    sorted, ordered by their least index."""
    left = set(subset)
    out = []
    for start in sorted(left):
        if start not in left:
            continue
        left.discard(start)
        comp, todo = [start], [start]
        while todo:
            i = todo.pop()
            for j in [j for j in left if rs.cartan[i][j]]:
                left.discard(j)
                comp.append(j)
                todo.append(j)
        out.append(sorted(comp))
    return out


def _closed_strings(block) -> set[tuple]:
    """Positive roots of one connected Cartan block, in its own rank, by
    closing root strings upward: beta + alpha_i is a root iff
    p - <alpha_i^vee, beta> > 0 where p is the largest k with
    beta - k alpha_i a root."""
    m = len(block)
    rows = [[(j, v) for j, v in enumerate(row) if v] for row in block]
    layer = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
    known = set(layer)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(m):
                down = list(beta)
                p = 0
                while True:
                    down[i] -= 1
                    if tuple(down) in known:
                        p += 1
                    else:
                        break
                if p - sum(v * beta[j] for j, v in rows[i]) > 0:
                    up = list(beta)
                    up[i] += 1
                    t = tuple(up)
                    if t not in known:
                        known.add(t)
                        nxt.append(t)
        layer = nxt
    return known


def positive_roots(rs: RootSystem, subset=None) -> list[Root]:
    """All positive roots of the sub-root-system spanned by `subset`
    (defaults to all of S).  Each Dynkin component of the subset closes
    its root strings in its own rank (_closed_strings); its roots are
    lifted back to coefficients over all of S.

    Deterministic order: by height, then lexicographic coefficients.
    """
    found = []
    for comp in _dynkin_components(rs, _checked_subset(rs, subset)):
        block = [[rs.cartan[i][j] for j in comp] for i in comp]
        for local in _closed_strings(block):
            full = [0] * rs.rank
            for i, c in zip(comp, local):
                full[i] = c
            found.append(tuple(full))
    found.sort(key=lambda t: (sum(t), t))
    columns = _sparse_columns(rs)
    return [Root(t, _weight_of_coeffs(rs, columns, t)) for t in found]


def _two_rho_coeffs(rs: RootSystem, I: list[int]) -> dict:
    """2 rho of <I> in simple-root coordinates: the solution c of
    C_I c = (2, ..., 2), unique since a finite-type Cartan matrix is
    invertible."""
    [x] = linalg.solve([[rs.cartan[i][j] for j in I] for i in I], len(I), [[2] * len(I)])
    return dict(zip(I, x))


def two_rho(rs: RootSystem, subset=None) -> Weight:
    """Sum of the positive roots of <subset>, an integral weight: C c
    for the simple-root coordinates c of _two_rho_coeffs."""
    c = _two_rho_coeffs(rs, _checked_subset(rs, subset))
    fund = [sum(row[j] * x for j, x in c.items() if row[j]) for row in rs.cartan]
    return Weight(tuple(fund), (0,) * rs.central_rank)


def kappa(rs: RootSystem, Sp=()) -> Weight:
    """2 rho_S - 2 rho_{Sp} in fundamental coordinates: coordinate i is
    2 - <alpha_i^vee, 2 rho_{Sp}>, so it vanishes exactly on Sp."""
    t = two_rho(rs, sorted(Sp))
    fund = tuple(2 - x for x in t.fund)
    return Weight(fund, (0,) * rs.central_rank)


def rho(rs: RootSystem, subset=None) -> Weight:
    """Half sum of the positive roots of <subset>."""
    return two_rho(rs, subset).scale(Fraction(1, 2))

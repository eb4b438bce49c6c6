"""Acceptance suite: eight end-to-end criteria, one test (and one
pass/fail line under pytest -v) per criterion.  Timing pins: criterion 1
must finish under 1 second, criterion 6 under 5 seconds, kappa of A64
with a Levi of rank 62 under 0.25 seconds, validate_presentation on
brion_5_1 at n = 7 under 1 second, and classify_knop on every color of
brion_5_1 at n = 10 under 1 second."""
import random
import time
from fractions import Fraction

from sphdiv.anticanon import (anticanonical_divisor, color_coefficient,
                              cone_contains, cone_generator_directions,
                              enumerate_positive_solutions, generator_order_shift,
                              kappa, uniqueness_certificate, valuation_cone,
                              verify_decomposition)
from sphdiv.catalog import builtin
from sphdiv.knoplie import (classify_knop, image_for_root, resolve_torus_like,
                             validate_presentation)
from sphdiv.lunatypes import audit_pairings, classify_luna
from sphdiv.report import all_passed
from sphdiv.rootsys import (Coweight, build_root_system, pair, parse_spec,
                            positive_roots, rho)


def _ok(label: str):
    print(f"[{label}] PASS")


def test_criterion_1_symmetric_pair_coefficients_all_two():
    t0 = time.perf_counter()
    for n in range(2, 9):
        d = builtin("brion_5_1", n).datum
        coeffs = [color_coefficient(d, c) for c in d.colors]
        assert len(coeffs) == n - 1
        assert all(m == 2 for m in coeffs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.3f}s (pinned < 1s)"
    _ok("criterion 1: coefficients 2 across the family, under 1s")


def test_criterion_2_three_color_decomposition_and_cone():
    d = builtin("brion_5_2", None).datum
    assert tuple(color_coefficient(d, c) for c in d.colors) == (1, 1, 1)
    assert verify_decomposition(d) is True

    cone = valuation_cone(d)
    assert len(cone.halfspaces) == 3
    assert cone.halfspaces == d.spherical_roots

    rng = random.Random(52)
    dim = d.rs.rank
    for _ in range(100):
        v = Coweight(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                           for _ in range(dim)))
        # independent sign check straight off the coordinates
        signs_ok = all(
            sum(a * b for a, b in zip(v.coords, s.fund)) <= 0
            for s in d.spherical_roots)
        assert cone_contains(cone, v) == signs_ok
    _ok("criterion 2: m=(1,1,1), decomposition verified, cone membership "
        "matches 100 random sign checks")


def test_criterion_3_doubled_root_colors_unit_coefficients():
    for n in range(3, 9):
        d = builtin("brion_5_3", n).datum
        assert all(color_coefficient(d, c) == 1 for c in d.colors)
        findings = audit_pairings(d)
        assert all_passed(findings)
        # the defining pairing: each color meets its own root with value 2
        for i, c in enumerate(d.colors):
            assert c.moved_by == (i,)
            assert pair(i, c.chi) == 2
    _ok("criterion 3: unit coefficients with member pairings 2 for n=3..8")


def test_criterion_4_two_color_family_kappa_and_orthogonality():
    for n in range(3, 11):
        d = builtin("brion_5_4", n).datum
        r = d.rs.rank
        assert tuple(color_coefficient(d, c) for c in d.colors) == (n - 1, n - 1)
        want_kappa = (n - 1,) + (0,) * (r - 2) + (n - 1,)
        assert kappa(d.rs, d.Sp).fund == want_kappa
        rows = [f for f in audit_pairings(d) if f.check == "sp-orthogonality"]
        assert len(rows) == len(d.Sp) * len(d.lattice_M)
        assert all(f.passed for f in rows)
    _ok("criterion 4: m=(n-1,n-1) and kappa=(n-1,0,...,0,n-1) with "
        "Sp-orthogonal lattice for n=3..10")


def test_criterion_5_presentation_vs_spherical_root_typing():
    cases = [("sl2_mod_T", None, ("a", "a")),
             ("sl2_mod_N", None, ("2a",)),
             ("sl2_mod_U", None, ("b",)),
             ("brion_5_1", 3, ("b", "b")),
             ("brion_5_1", 4, ("b", "b", "b")),
             ("brion_5_2", None, ("a", "a", "a"))]
    disagreements = 0
    for key, n, want in cases:
        entry = builtin(key, n)
        d, pres = entry.datum, entry.presentation
        got = tuple(classify_knop(pres, d, c).value for c in d.colors)
        assert got == want, (key, got, want)
        if d.spherical_roots is not None:
            for c in d.colors:
                if classify_knop(pres, d, c) is not classify_luna(d, c):
                    disagreements += 1
    assert disagreements == 0

    # the 2a case must be decided by the witness alone, before chi is consulted
    entry = builtin("sl2_mod_N", None)
    img = image_for_root(entry.presentation, 0)
    w = entry.presentation.witness_for("D1", 0)
    assert w is not None
    from sphdiv.lunatypes import ColorType
    assert resolve_torus_like(img, witness=w) is ColorType.TWO_A
    _ok("criterion 5: presentation typing matches spherical-root typing "
        "on all five families, witness splits the 2a case")


def test_criterion_6_enumeration_oracle_uniqueness():
    t0 = time.perf_counter()
    cases = ([("brion_5_1", n) for n in range(2, 9)]
             + [("brion_5_2", None)]
             + [("brion_5_3", n) for n in range(3, 9)]
             + [("brion_5_4", n) for n in range(3, 11)]
             + [("sl2_mod_T", None), ("sl2_mod_N", None), ("sl2_mod_U", None)])
    checked = 0
    for key, n in cases:
        d = builtin(key, n).datum
        if not d.colors or any(c.chi is None for c in d.colors):
            continue
        kap = kappa(d.rs, d.Sp)
        closed_form = tuple(color_coefficient(d, c) for c in d.colors)
        sols = enumerate_positive_solutions(kap, [c.chi for c in d.colors], 10)
        assert sols == [closed_form], (key, n, sols, closed_form)
        checked += 1
    assert checked == len(cases)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 6 took {elapsed:.3f}s (pinned < 5s)"
    _ok(f"criterion 6: exhaustive search to bound 10 returns exactly the "
        f"closed-form coefficients on {checked} entries, under 5s")


def test_criterion_7_root_system_core_invariants():
    counts = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
              "C": lambda n: n * n, "D": lambda n: n * (n - 1)}
    for fam, f in counts.items():
        lo = {"A": 1, "B": 2, "C": 2, "D": 3}[fam]
        for n in range(lo, 9):
            rs = build_root_system(f"{fam}{n}")
            assert len(positive_roots(rs)) == f(n), (fam, n)
            assert rho(rs).fund == (1,) * n
    for spec, count in (("G2", 6), ("F4", 24), ("E6", 36), ("E7", 63),
                        ("E8", 120)):
        rs = build_root_system(spec)
        assert len(positive_roots(rs)) == count
        assert rho(rs).fund == (1,) * rs.rank

    pool = ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5",
            "C2", "C3", "C4", "D3", "D4", "D5", "G2", "A2xA2", "A1xB3",
            "A1xA1xA2", "B2xG2", "A2+T1", "A1xC3"]
    assert all(parse_spec(s).semisimple_rank <= 6 for s in pool)
    rng = random.Random(77)
    for _ in range(200):
        rs = build_root_system(rng.choice(pool))
        sp = frozenset(i for i in range(rs.rank) if rng.random() < 0.4)
        kap = kappa(rs, sp)
        for i in range(rs.rank):
            v = pair(i, kap)
            if i in sp:
                assert v == 0
            else:
                assert v >= 2 and v.denominator == 1
    _ok("criterion 7: positive-root counts, all-ones Weyl vector, and the "
        "kappa pairing dichotomy over 200 random (system, Sp) pairs")


def test_kappa_of_rank_64_with_large_levi_is_fast():
    rs = build_root_system("A64")
    sp = frozenset(range(1, 63))  # a2..a63
    t0 = time.perf_counter()
    kap = kappa(rs, sp)
    elapsed = time.perf_counter() - t0
    assert kap.fund == (64,) + (0,) * 62 + (64,)
    assert elapsed < 0.25, f"kappa(A64, a2..a63) took {elapsed:.3f}s (pinned < 0.25s)"
    _ok("kappa(A64, a2..a63) = 64 (omega_1 + omega_64), under 0.25s")


def test_validate_presentation_of_brion_5_1_at_n_7_is_fast():
    pres = builtin("brion_5_1", 7).presentation
    t0 = time.perf_counter()
    validate_presentation(pres)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"validate_presentation(brion_5_1, n=7) took {elapsed:.3f}s (pinned < 1s)"
    _ok("validate_presentation(brion_5_1, n = 7) accepts, under 1s")


def test_classify_knop_on_every_color_of_brion_5_1_at_n_10_is_fast():
    entry = builtin("brion_5_1", 10)
    pres, datum = entry.presentation, entry.datum
    t0 = time.perf_counter()
    types = [classify_knop(pres, datum, c).value for c in datum.colors]
    elapsed = time.perf_counter() - t0
    assert types == ["b"] * 9
    assert elapsed < 1.0, f"classify_knop(brion_5_1, n=10) took {elapsed:.3f}s (pinned < 1s)"
    _ok("classify_knop on the 9 colors of brion_5_1 at n = 10 gives b, under 1s")


def test_criterion_8_order_shifts_and_cone_certificates():
    with_cone = ([("toric", r) for r in range(0, 4)]
                 + [("sl2_mod_T", None), ("sl2_mod_N", None), ("sl2_mod_U", None),
                    ("brion_5_2", None)]
                 + [("brion_5_3", n) for n in range(3, 9)])
    for key, n in with_cone:
        d = builtin(key, n).datum
        assert d.spherical_roots is not None and d.lattice_M is not None
        assert uniqueness_certificate(d) is True
        zero = d.rs.zero_weight()
        for nu in cone_generator_directions(d):
            assert generator_order_shift(d, zero, nu) == 1

    rng = random.Random(88)
    nonzero_m = [(k, n) for k, n in with_cone if builtin(k, n).datum.lattice_M]
    for _ in range(50):
        key, n = nonzero_m[rng.randrange(len(nonzero_m))]
        d = builtin(key, n).datum
        mu = None
        while mu is None:
            coeffs = [rng.randint(-3, 3) for _ in d.lattice_M]
            if any(coeffs):
                mu = d.rs.zero_weight()
                for c, w in zip(coeffs, d.lattice_M):
                    mu = mu + w.scale(c)
        shifts = [generator_order_shift(d, mu, nu)
                  for nu in cone_generator_directions(d)]
        assert any(s != 1 for s in shifts), (key, n, coeffs, shifts)
    _ok("criterion 8: cone certificates hold, zero character always shifts "
        "to order 1, and 50 random nonzero characters never vanish on "
        "every generator")

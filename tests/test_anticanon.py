"""The anticanonical weight kappa, divisor coefficients, the exhaustive
solution enumerator, and the valuation cone."""
import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sphdiv.anticanon import (AnticanonicalDivisor, ENUM_MAX_BOUND, ENUM_MAX_COLORS,
                              anticanonical_divisor, color_coefficient, cone_contains,
                              cone_generator_directions, cone_interior_witness,
                              enumerate_positive_solutions, generator_order_shift,
                              kappa, uniqueness_certificate, valuation_cone, verify)
from sphdiv.catalog import builtin
from sphdiv.datum import ColorRecord, SphericalDatum
from sphdiv.errors import InconsistencyError, InsufficientDataError
from sphdiv.rootsys import (Coweight, Weight, build_root_system, pair,
                            positive_roots, two_rho)


# ---------------------------------------------------------------- kappa

def test_kappa_a4_frozen_value():
    rs = build_root_system("A4")
    assert kappa(rs, (1, 2)).fund == (4, 0, 0, 4)


def test_kappa_empty_sp_is_all_twos():
    for spec in ("A3", "B2", "G2", "C3+T1"):
        rs = build_root_system(spec)
        assert kappa(rs).fund == (2,) * rs.rank


def test_kappa_vanishes_exactly_on_sp():
    rs = build_root_system("D4")
    sp = (0, 3)
    kap = kappa(rs, sp)
    for i in range(rs.rank):
        if i in sp:
            assert pair(i, kap) == 0
        else:
            assert pair(i, kap) >= 2


def test_kappa_against_two_rho_difference():
    # kappa = 2 rho_S - 2 rho_Sp coordinate by coordinate
    rs = build_root_system("B3")
    sp = (1, 2)
    lhs = kappa(rs, sp)
    rhs = two_rho(rs) - two_rho(rs, sp)
    assert lhs.fund == rhs.fund


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kappa_pairing_dichotomy_random(data):
    spec = data.draw(st.sampled_from(["A3", "B3", "C4", "D4", "G2", "A2xA2"]))
    rs = build_root_system(spec)
    sp = frozenset(data.draw(st.sets(st.integers(0, rs.rank - 1))))
    kap = kappa(rs, sp)
    for i in range(rs.rank):
        v = pair(i, kap)
        if i in sp:
            assert v == 0
        else:
            assert v >= 2 and v.denominator == 1


# ---------------------------------------------------------------- coefficients

@pytest.mark.parametrize("key,n,want", [
    ("sl2_mod_T", None, (1, 1)),
    ("sl2_mod_N", None, (1,)),
    ("sl2_mod_U", None, (2,)),
    ("brion_5_1", 2, (2,)), ("brion_5_1", 5, (2,) * 4),
    ("brion_5_2", None, (1, 1, 1)),
    ("brion_5_3", 3, (1, 1)), ("brion_5_3", 8, (1,) * 7),
    ("brion_5_4", 3, (2, 2)), ("brion_5_4", 10, (9, 9)),
])
def test_catalog_coefficients(key, n, want):
    d = builtin(key, n).datum
    assert tuple(color_coefficient(d, c) for c in d.colors) == want


def test_type_b_coefficient_must_agree_across_movers():
    # A3 with Sp={a3}: kappa = (2, 3, 0), so a b-color moved by both a1
    # and a2 sees two different pairings
    rs = build_root_system("A3")
    d = SphericalDatum(rs, frozenset({2}),
                       (ColorRecord("D", (0, 1), declared_type="b"),))
    assert kappa(rs, d.Sp).fund == (2, 3, 0)
    with pytest.raises(InconsistencyError, match="differs across"):
        color_coefficient(d, "D")


def test_type_b_coefficient_rejects_nonpositive():
    # mover inside Sp pairs to 0 with kappa
    rs = build_root_system("A2")
    d = SphericalDatum(rs, frozenset({0}),
                       (ColorRecord("D", (0,), declared_type="b"),))
    with pytest.raises(InconsistencyError, match="not a positive integer"):
        color_coefficient(d, "D")


def test_coefficient_accepts_name_or_record():
    d = builtin("sl2_mod_U", None).datum
    assert color_coefficient(d, "D1") == color_coefficient(d, d.colors[0]) == 2


# ---------------------------------------------------------------- divisor

def test_divisor_shape_and_boundary():
    d = builtin("toric", 3).datum
    div = anticanonical_divisor(d)
    assert div.color_coeffs == ()
    assert div.boundary_count == 3
    assert div.boundary_coeff == 1


def test_divisor_coefficient_lookup():
    div = anticanonical_divisor(builtin("brion_5_1", 3).datum)
    assert div.coefficient("D1") == 2
    with pytest.raises(KeyError):
        div.coefficient("nope")


def test_divisor_with_boundary_added():
    d = builtin("sl2_mod_N", None).datum
    bumped = dataclasses.replace(d, boundary_count=2)
    div = anticanonical_divisor(bumped)
    assert div.color_coeffs == (("D1", 1),)
    assert div.boundary_count == 2


# ---------------------------------------------------------------- decomposition

@pytest.mark.parametrize("key,n", [
    ("sl2_mod_T", None), ("sl2_mod_N", None), ("sl2_mod_U", None),
    ("brion_5_1", 4), ("brion_5_2", None), ("brion_5_3", 5), ("brion_5_4", 7),
])
def test_decomposition_holds_on_catalog(key, n):
    from sphdiv.anticanon import verify_decomposition
    assert verify_decomposition(builtin(key, n).datum) is True


def test_decomposition_fails_on_mutated_chi():
    from sphdiv.anticanon import verify_decomposition
    d = builtin("brion_5_2", None).datum
    doubled = dataclasses.replace(
        d.colors[0], chi=Weight(tuple(2 * x for x in d.colors[0].chi.fund), ()))
    bad = dataclasses.replace(d, colors=(doubled,) + d.colors[1:])
    assert verify_decomposition(bad) is False


def test_decomposition_needs_all_chi():
    from sphdiv.anticanon import verify_decomposition
    d = builtin("brion_5_2", None).datum
    stripped = dataclasses.replace(d.colors[1], chi=None)
    bad = dataclasses.replace(d, colors=(d.colors[0], stripped, d.colors[2]))
    with pytest.raises(InsufficientDataError, match="D13"):
        verify_decomposition(bad)


# ---------------------------------------------------------------- enumerator

def _naive(kap, chis, bound):
    n = len(kap.fund)
    out = []
    for combo in itertools.product(range(1, bound + 1), repeat=len(chis)):
        total = [Fraction(0)] * n
        for m, chi in zip(combo, chis):
            for i, x in enumerate(chi.fund):
                total[i] += m * x
        if tuple(total) == tuple(kap.fund):
            out.append(combo)
    return out


def _wf(*fund):
    return Weight(tuple(Fraction(x) for x in fund), ())


def test_enumerator_on_5_2_bound_6():
    d = builtin("brion_5_2", None).datum
    kap = kappa(d.rs, d.Sp)
    sols = enumerate_positive_solutions(kap, [c.chi for c in d.colors], 6)
    assert sols == [(1, 1, 1)]


def test_enumerator_matches_naive_product():
    rng = random.Random(20260815)
    for _ in range(25):
        n = rng.randint(1, 3)
        k = rng.randint(0, 4)
        bound = rng.randint(1, 5)
        chis = [_wf(*[rng.randint(-2, 3) for _ in range(n)]) for _ in range(k)]
        target = _wf(*[rng.randint(-4, 8) for _ in range(n)])
        assert enumerate_positive_solutions(target, chis, bound) == \
            _naive(target, chis, bound)


def test_enumerator_finds_multiple_solutions_in_lex_order():
    # x + y = 4 with bound 3: (1,3), (2,2), (3,1)
    sols = enumerate_positive_solutions(_wf(4), [_wf(1), _wf(1)], 3)
    assert sols == [(1, 3), (2, 2), (3, 1)]


def test_enumerator_zero_colors_edge():
    assert enumerate_positive_solutions(_wf(0, 0), [], 5) == [()]
    assert enumerate_positive_solutions(_wf(1, 0), [], 5) == []


def test_enumerator_bound_below_one():
    assert enumerate_positive_solutions(_wf(2), [_wf(1)], 0) == []


def test_enumerator_caps():
    with pytest.raises(ValueError, match="cap"):
        enumerate_positive_solutions(_wf(1), [_wf(1)] * (ENUM_MAX_COLORS + 1), 2)
    with pytest.raises(ValueError, match="cap"):
        enumerate_positive_solutions(_wf(1), [_wf(1)], ENUM_MAX_BOUND + 1)


def test_enumerator_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        enumerate_positive_solutions(_wf(1, 1), [_wf(1)], 3)


# ---------------------------------------------------------------- cone

def test_valuation_cone_needs_sigma():
    d = builtin("brion_5_1", 3).datum
    with pytest.raises(InsufficientDataError):
        valuation_cone(d)


def test_cone_halfspaces_are_the_spherical_roots():
    d = builtin("brion_5_2", None).datum
    assert valuation_cone(d).halfspaces == d.spherical_roots


def test_cone_contains_sign_logic():
    d = builtin("sl2_mod_T", None).datum
    cone = valuation_cone(d)
    assert cone_contains(cone, Coweight((Fraction(-1),)))
    assert cone_contains(cone, Coweight((Fraction(0),)))
    assert not cone_contains(cone, Coweight((Fraction(1, 3),)))


def test_interior_witness_pairs_minus_one():
    for key, n in (("sl2_mod_T", None), ("sl2_mod_N", None), ("brion_5_2", None)):
        d = builtin(key, n).datum
        w = cone_interior_witness(d)
        for s in d.spherical_roots:
            assert pair(w, s) == -1


def test_interior_witness_toric_is_origin():
    d = builtin("toric", 2).datum
    assert cone_interior_witness(d).coords == (Fraction(0), Fraction(0))


def test_generator_directions_span_and_membership():
    d = builtin("brion_5_2", None).datum
    cone = valuation_cone(d)
    gens = cone_generator_directions(d)
    assert len(gens) == 3  # full rank sigma: one ray per root, no lineality
    for g in gens:
        assert cone_contains(cone, g)
    sigma = d.spherical_roots
    # dual-basis rays: generator k pairs -1 with sigma_k and 0 elsewhere
    for k, g in enumerate(gens):
        for i, s in enumerate(sigma):
            assert pair(g, s) == (-1 if i == k else 0)


def test_generator_directions_with_lineality():
    # one spherical root in a rank-2 lattice: 1 ray + 2 lineality signs
    d = builtin("toric", 2).datum
    gens = cone_generator_directions(d)
    assert len(gens) == 4
    plus = {g.coords for g in gens}
    assert plus == {(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)),
                    (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))}


def test_generators_need_m():
    d = builtin("sl2_mod_T", None).datum
    stripped = dataclasses.replace(d, lattice_M=None)
    with pytest.raises(InsufficientDataError):
        cone_generator_directions(stripped)


# ---------------------------------------------------------------- verify

def _checks(report):
    return {f.check: f for f in report.findings}


def test_verify_passes_on_catalog():
    report = verify(builtin("brion_5_2", None).datum, 10)
    assert report.passed and report.skipped == ()
    assert {"decomposition", "enumeration", "cone-uniqueness"} <= set(_checks(report))
    assert report.to_json()["pass"] is True
    assert list(report.findings) == sorted(report.findings, key=lambda f: (f.check, f.subject))


def test_verify_skips_without_chi():
    d = builtin("brion_5_2", None).datum
    stripped = dataclasses.replace(d.colors[1], chi=None)
    report = verify(dataclasses.replace(d, colors=(d.colors[0], stripped, d.colors[2])), 10)
    assert report.skipped == ("decomposition (colors without chi: D13)",
                              "enumeration (colors without chi)")
    assert not {"decomposition", "enumeration"} & set(_checks(report))


def test_verify_skips_when_coefficients_insufficient():
    rs = build_root_system("A1")
    d = SphericalDatum(rs, frozenset(), (ColorRecord("D", (0,), chi=Weight((1,), ())),))
    report = verify(d, 10)
    assert report.passed
    assert report.skipped == (
        "decomposition (color D: no declared type and no spherical roots)",
        "enumeration (coefficients unknown)",
        "cone-uniqueness (no spherical roots given)")


def test_verify_fails_when_coefficients_inconsistent():
    rs = build_root_system("A3")
    d = SphericalDatum(rs, frozenset({2}), (
        ColorRecord("D", (0, 1), declared_type="b", chi=Weight((1, 1, 0), ())),))
    report = verify(d, 10)
    found = _checks(report)["decomposition"]
    assert not found.passed and "differs across" in found.actual
    assert "enumeration (coefficients unknown)" in report.skipped


def test_verify_enumeration_cap_and_bound():
    d = builtin("sl2_mod_U", None).datum
    report = verify(d, ENUM_MAX_BOUND + 1)
    assert report.passed
    assert report.skipped == (f"enumeration (cap: {ENUM_MAX_COLORS} colors, "
                              f"bound {ENUM_MAX_BOUND})",)
    assert "enumeration" not in _checks(report)
    short = _checks(verify(d, 1))["enumeration"]
    assert (short.expected, short.actual, short.passed) == ("[(2,)]", "[]", False)


def test_verify_cone_missing_and_failing():
    d = builtin("brion_5_2", None).datum
    report = verify(dataclasses.replace(d, lattice_M=None), 10)
    assert report.passed and report.skipped == ("cone-uniqueness (no lattice M given)",)
    dependent = dataclasses.replace(d, lattice_M=d.lattice_M + d.lattice_M[:1])
    found = _checks(verify(dependent, 10))["cone-uniqueness"]
    assert not found.passed and found.actual == "lattice M basis is dependent"


# ---------------------------------------------------------------- certificate

@pytest.mark.parametrize("key,n", [
    ("toric", 0), ("toric", 3), ("sl2_mod_T", None), ("sl2_mod_N", None),
    ("sl2_mod_U", None), ("brion_5_2", None), ("brion_5_3", 4), ("brion_5_3", 8),
])
def test_uniqueness_certificate_on_catalog(key, n):
    assert uniqueness_certificate(builtin(key, n).datum) is True


def test_certificate_needs_sigma():
    d = builtin("brion_5_2", None).datum
    stripped = dataclasses.replace(d, spherical_roots=None)
    with pytest.raises(InsufficientDataError):
        uniqueness_certificate(stripped)


# ---------------------------------------------------------------- order shift

def test_order_shift_at_zero_character_is_one():
    d = builtin("brion_5_2", None).datum
    zero = d.rs.zero_weight()
    for nu in cone_generator_directions(d):
        assert generator_order_shift(d, zero, nu) == 1


def test_order_shift_frozen_example():
    d = builtin("sl2_mod_T", None).datum
    mu = d.lattice_M[0]  # alpha, fund coord 2
    nu = cone_generator_directions(d)[0]
    assert pair(nu, mu) == -1
    assert generator_order_shift(d, mu, nu) == 0
    assert generator_order_shift(d, mu.scale(-3), nu) == 4


def test_order_shift_rejects_mu_outside_m():
    # A2 with M spanned by alpha1 alone: omega2 falls outside
    rs = build_root_system("A2")
    alpha1 = rs.simple_root_weight(0)
    d = SphericalDatum(rs, frozenset({1}), (ColorRecord("D", (0,)),),
                       (alpha1,), (alpha1,))
    nu = cone_generator_directions(d)[0]
    with pytest.raises(InsufficientDataError, match="span of M"):
        generator_order_shift(d, rs.fundamental_weight(1), nu)


def test_order_shift_linear_in_mu():
    d = builtin("brion_5_3", 4).datum
    mu1, mu2 = d.lattice_M[0], d.lattice_M[1]
    for nu in cone_generator_directions(d):
        s1 = generator_order_shift(d, mu1, nu) - 1
        s2 = generator_order_shift(d, mu2, nu) - 1
        both = generator_order_shift(d, mu1 + mu2, nu) - 1
        assert both == s1 + s2

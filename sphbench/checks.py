"""Independent checks of sphdiv's answers.

Nothing here calls sphdiv.  Each check recomputes the answer, or a
property it must have, in exact.py's own arithmetic from the datum the
benchmark built, and returns "ok", "wrong" (an answer that is not right)
or "failed" (an exception escaped instead of an answer).
"""
from __future__ import annotations

import ast
import json
from fractions import Fraction

import exact

ENUM_MAX_COLORS = 8
ENUM_MAX_BOUND = 12


class Wrong(Exception):
    pass


def need(cond, what: str) -> None:
    if not cond:
        raise Wrong(what)


def _q(v) -> Fraction:
    return Fraction(v)


def _json_out(res) -> dict:
    need(res["rc"] == 0, f"exit code {res['rc']}: {res['err'].strip()[:200]}")
    return json.loads(res["out"])


def _kappa(d) -> list[Fraction]:
    return exact.kappa_fund(d["factors"], d["sp"])


def _chis(d):
    return [c["chi"] for c in d["colors"]]


def _pair(coweight, weight) -> Fraction:
    fund, central = weight
    return sum((_q(a) * _q(b) for a, b in zip(coweight, list(fund) + list(central))),
               Fraction(0))


def _names(d, idx) -> list[str]:
    return sorted(f"a{i + 1}" for i in idx)


# --------------------------------------------------------------- datum commands

def check_kappa(chk, res):
    d = chk["datum"]
    out = _json_out(res)
    need([_q(x) for x in out["kappa"]["fund"]] == _kappa(d), "kappa differs from the Cartan solve")
    need(out["kappa"]["central"] == [0] * d["central"], "kappa has a central part")
    need(sorted(out["Sp"]) == _names(d, d["sp"]), "Sp echoed wrongly")


def check_antican(chk, res):
    d = chk["datum"]
    out = _json_out(res)
    got = [(c["name"], c["coeff"]) for c in out["colors"]]
    need(got == [(c["name"], m) for c, m in zip(d["colors"], d["coeffs"])],
         "coefficients differ from the closed forms")
    need(out["boundary_count"] == d["boundary"] and out["boundary_coeff"] == 1,
         "boundary part wrong")
    total = [Fraction(0)] * sum(n for _, n in d["factors"])
    for (_, m), chi in zip(got, _chis(d)):
        for k, x in enumerate(chi):
            total[k] += m * x
    need(total == _kappa(d), "sum of m_i chi_i is not kappa")


def expected_solutions(d, bound):
    """The enumerator's answer: unique when the chi columns are independent."""
    chis, coeffs = _chis(d), d["coeffs"]
    if exact.rank(chis) == len(chis):
        return [tuple(coeffs)] if all(1 <= m <= bound for m in coeffs) else []
    return exact.positive_solutions(chis, _kappa(d), bound)


def check_verify(chk, res):
    d = chk["datum"]
    out = _json_out(res)
    need(out["pass"] is True, "verify did not pass")
    found = {f["check"]: f for f in out["findings"]}
    need(all(f["pass"] for f in out["findings"]), "a finding failed")
    need("decomposition" in found, "no decomposition finding")
    enumerates = len(d["colors"]) <= ENUM_MAX_COLORS and chk["bound"] <= ENUM_MAX_BOUND
    need(("enumeration" in found) == enumerates, "enumeration ran against its caps")
    if enumerates:
        sols = ast.literal_eval(found["enumeration"]["actual"])
        need(sols == expected_solutions(d, chk["bound"]), "enumeration found other solutions")
    has_cone = d["sigma"] is not None and d["M"] is not None
    need(("cone-uniqueness" in found) == has_cone, "cone certificate ran without its data")
    _check_audit_counts(d, out["findings"])


def _check_audit_counts(d, findings):
    off_sp = sum(n for _, n in d["factors"]) - len(d["sp"])
    n_chi = sum(1 for c in d["colors"] if c["chi"] is not None)
    got = sum(1 for f in findings if f["check"] == "chi-pairing")
    need(got == n_chi * off_sp, f"{got} chi-pairing findings, want {n_chi * off_sp}")


def check_validate(chk, res):
    d = chk["datum"]
    out = _json_out(res)
    need(out["pass"] is True and all(f["pass"] for f in out["findings"]), "validate failed")
    checks = {f["check"] for f in out["findings"]}
    need({"sp-consistency", "delta-bound", "moved-by-disjoint-sp"} <= checks,
         "structural findings missing")
    _check_audit_counts(d, out["findings"])


def check_cone(chk, res):
    d = chk["datum"]
    out = _json_out(res)
    sigma = d["sigma"]
    need([[_q(x) for x in h["fund"]] for h in out["halfspaces"]]
         == [[_q(x) for x in fund] for fund, _ in sigma], "halfspaces are not the spherical roots")
    gens, witness = out["generators"], out["interior_witness"]
    need(all(_pair(g, s) <= 0 for g in gens for s in sigma),
         "a generator pairs positively with a spherical root")
    need(all(_pair(witness, s) == -1 for s in sigma), "witness does not pair to -1")
    if not sigma:
        need(not any(_q(x) for x in witness), "witness of a toric cone is not the origin")
    m, s = len(d["M"]), len(sigma)
    need(len(gens) == s + 2 * (m - s), f"{len(gens)} generators, want {s + 2 * (m - s)}")


def _types_want(chk):
    return chk.get("types") or {c["name"]: c["type"] for c in chk["datum"]["colors"]}


def check_types_luna(chk, res):
    out = _json_out(res)
    need(out["method"] == "luna" and out["types"] == _types_want(chk), "luna types wrong")


def check_types_knop(chk, res):
    out = _json_out(res)
    need(out["method"] == "knop" and out["types"] == _types_want(chk), "knop types wrong")


def check_types_both(chk, res):
    out = _json_out(res)
    want = _types_want(chk)
    need(out["luna"] == want and out["knop"] == want and out["agree"] is True,
         "luna and knop types disagree or differ from the known types")


# --------------------------------------------------------------- certify

def _spec_factors(spec):
    return [(part[0], int(part[1:])) for part in spec.split("x")]


def check_roots(chk, res):
    out = _json_out(res)
    factors = _spec_factors(chk["spec"])
    c = exact.cartan(factors)
    roots = [r["coeffs"] for r in out["roots"]]
    need(out["count"] == len(roots) == sum(exact.positive_root_count(*f) for f in factors),
         "positive-root count differs from the type formula")
    need(len({tuple(r) for r in roots}) == len(roots), "a root is listed twice")
    need(all(r["height"] == sum(r["coeffs"]) and min(r["coeffs"]) >= 0 for r in out["roots"]),
         "heights or coefficients wrong")
    need(max(r["height"] for r in out["roots"])
         == max(exact.coxeter_number(*f) for f in factors) - 1,
         "largest height is not the Coxeter number - 1")
    # the positive roots sum to 2 rho, which pairs to 2 with every simple coroot
    need(all(sum(c[i][j] * r[j] for r in roots for j in range(len(c))) == 2
             for i in range(len(c))), "the roots do not sum to 2 rho")


# --------------------------------------------------------------- presentations

def check_dump(chk, res):
    d = chk["datum"]
    need(res["rc"] == 0, f"exit code {res['rc']}")
    doc = json.loads(res["out"])
    need([c["name"] for c in doc["colors"]] == [c["name"] for c in d["colors"]]
         and [c["type"] for c in doc["colors"]] == [c["type"] for c in d["colors"]],
         "dumped colors differ")
    pres = doc["presentation"]
    blocks = pres["blocks"]
    need(blocks == d["blocks"], "dumped blocks differ")
    rank = sum(n for _, n in d["factors"])
    need(sorted(pres["triples"]) == _names(d, range(rank)), "a triple is missing")
    for t in pres["triples"].values():
        e, h, f = (exact.element_from_json(t[k], blocks) for k in ("e", "h", "f"))
        need(exact.triple_relations_hold(e, h, f), "a dumped triple breaks the sl2 relations")


def check_accepted(chk, res):
    need(res["error"] is None, f"rejected: {res['error']}")


def check_rejected(chk, res):
    need(res["error"] is not None and res["error"].startswith("ValueError: ")
         and "not bracket-closed" in res["error"], f"not rejected as non-closed: {res['error']}")


CHECKS = {
    "kappa": check_kappa, "antican": check_antican, "verify": check_verify,
    "validate": check_validate, "cone": check_cone, "types_luna": check_types_luna,
    "types_knop": check_types_knop, "types_both": check_types_both,
    "roots": check_roots, "dump": check_dump, "accepted": check_accepted,
    "rejected": check_rejected,
}

# library calls whose answer is the exception they raise or do not raise
_RAISING = {"accepted", "rejected"}


def verdict(chk: dict, res: dict) -> tuple[str, str]:
    """("ok" | "wrong" | "failed", detail) for one request's result."""
    if res["error"] is not None and chk["kind"] not in _RAISING:
        return "failed", res["error"]
    try:
        CHECKS[chk["kind"]](chk, res)
    except Wrong as exc:
        return "wrong", str(exc)
    except (KeyError, TypeError, ValueError, SyntaxError) as exc:
        return "wrong", f"unreadable answer: {type(exc).__name__}: {exc}"
    return "ok", ""

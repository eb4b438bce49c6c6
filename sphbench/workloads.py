"""The three workloads: request lists built from a seed.

A request is {"op": "cli", "argv": [...]} or {"op": "validate_presentation",
"source": ...}, plus a "check" telling checks.py what the right answer is.
The seed sets only what leaves the amount of work unchanged: the order
of the requests, the order of the factors in product datums, and sign
conjugations of presentation blocks.  Every seed gives the same request
count, kinds and sizes.  No input repeats within a list, so sphdiv's
lru_caches serve only reuse inside one request.
"""
from __future__ import annotations

import itertools
import json
import os
import random

import factors as F

WORKLOADS = ("datum_answers", "presentations", "certify")

# --------------------------------------------------------------- datum_answers

# every catalog family at every allowed n
CATALOG = ([("toric", r) for r in range(0, 11)]
           + [(k, None) for k in ("sl2_mod_T", "sl2_mod_N", "sl2_mod_U", "brion_5_2")]
           + [("brion_5_3", n) for n in range(3, 11)]
           + [("brion_5_4", n) for n in range(3, 11)]
           + [("brion_5_1", n) for n in range(2, 11)])

# brion_5_1 builds a presentation these commands never read, and costs
# 1.3 s at n = 10: one command per n keeps the list a few seconds long
_BRION_5_1_COMMAND = ["kappa", "antican", "verify", "validate"]

# (canonical factors, whether the document carries the presentation)
DATUM_PRODUCTS = [
    ([("sl2_mod_T",), ("brion_5_2",), ("brion_5_3", 5)], False),
    ([("sl2_mod_N",), ("sl2_mod_U",), ("brion_5_2",)], True),
    ([("brion_5_1", 3), ("sl2_mod_T",)], True),
    ([("brion_5_4", 8), ("toric", 3), ("brion_5_3", 4)], False),
    ([("brion_5_1", 4), ("brion_5_2",)], True),
    ([("brion_5_3", 6), ("brion_5_3", 3), ("sl2_mod_U",), ("toric", 2)], False),
    ([("brion_5_1", 4), ("sl2_mod_N",), ("sl2_mod_U",)], True),
    ([("brion_5_4", 10), ("brion_5_4", 5)], False),
]

# request_p90_s needs a dense tail: `verify` on this many distinct factor
# orders of one product, all of about equal work, sits at the 90th percentile
DATUM_VERIFY_VARIANTS = ([("brion_5_2",), ("sl2_mod_U",), ("brion_5_3", 5), ("toric", 2)], 12)

# --------------------------------------------------------------- presentations

CATALOG_TYPES = [("sl2_mod_T", None, "both"), ("sl2_mod_N", None, "knop"),
                 ("sl2_mod_U", None, "both"), ("brion_5_2", None, "both")] + \
                [("brion_5_1", n, "knop") for n in range(2, 5)]
CATALOG_VALIDATE = [("sl2_mod_T", None), ("sl2_mod_N", None), ("sl2_mod_U", None),
                    ("brion_5_2", None)] + [("brion_5_1", n) for n in range(2, 5)]
CATALOG_DUMP = [("sl2_mod_T", None), ("sl2_mod_N", None), ("sl2_mod_U", None),
                ("brion_5_2", None)] + [("brion_5_1", n) for n in range(2, 7)]

# (canonical factors, index of the factor whose h basis the non-closed copy breaks)
PRESENTATION_PRODUCTS = [
    ([("sl2_mod_T",), ("sl2_mod_N",), ("brion_5_2",)], 2),
    ([("brion_5_1", 3), ("sl2_mod_U",)], 0),
    ([("brion_5_1", 3), ("brion_5_2",)], 0),
    ([("brion_5_2",), ("sl2_mod_U",), ("sl2_mod_T",)], 0),
    ([("brion_5_1", 2), ("brion_5_1", 3), ("sl2_mod_N",)], 1),
]

# request_p50_s needs a dense middle: same-sized requests around the
# median keep it from jumping between requests of different sizes.
# (canonical factors, count): validate_presentation on that many distinct
# sign conjugations of one product, all of equal work
VALIDATE_VARIANTS = ([("brion_5_2",), ("sl2_mod_T",)], 8)

# --------------------------------------------------------------- certify

ROOT_SPECS = ["G2", "D4", "F4", "B5xC5", "E6", "E7", "E8",
              "B12", "C16", "D20", "A30", "E8xE7xE6", "G2xF4xA10", "B8xC8xD8", "A20xB20"]

# kappa documents up to total rank 64 with large Sp: (factors, Sp per factor)
# where Sp is given as the simple roots left out of it (1-based)
KAPPA_DOCS = [
    [(("A", 24), (1, 24)), (("D", 20), (20,)), (("E", 8), (1,)), (("B", 12), (1,))],
    [(("A", 30), (1, 30))],
    [(("A", 19), (1, 19)), (("E", 7), (7,)), (("B", 10), (1,))],
    [(("D", 16), (1,)), (("C", 16), (16,)), (("A", 16), (1, 16)), (("E", 6), (1, 6))],
    [(("A", 12), (1, 12)), (("E", 8), (8,)), (("F", 4), (1, 4)), (("G", 2), (2,))],
]

# (canonical factors, --bound); at most 8 colors, bounds up to 12
VERIFY_DOCS = [
    ([("brion_5_2",), ("sl2_mod_U",), ("sl2_mod_N",), ("brion_5_4", 10)], 12),
    ([("brion_5_3", 6), ("brion_5_4", 11), ("sl2_mod_U",)], 10),
    ([("brion_5_1", 5), ("brion_5_4", 9), ("sl2_mod_N",)], 8),
    ([("brion_5_4", 13), ("brion_5_4", 12), ("brion_5_1", 3), ("sl2_mod_U",)], 12),
    ([("brion_5_3", 9)], 6),
    ([("brion_5_1", 9)], 2),
    ([("sl2_mod_U",)] * 4 + [("sl2_mod_N",)] * 4, 11),
    ([("brion_5_3", 3), ("brion_5_4", 4)], 3),
    ([("brion_5_2",), ("brion_5_2",)], 4),
    ([("brion_5_4", 7), ("sl2_mod_N",), ("brion_5_3", 5)], 7),
]

# (canonical factors, --bound, count): verify on that many distinct factor
# orders of one product, all of about equal work (the middle of certify)
VERIFY_VARIANTS = ([("brion_5_2",), ("sl2_mod_U",), ("brion_5_3", 4), ("toric", 2)], 12, 12)


# --------------------------------------------------------------- helpers

def summary(f: F.Factor) -> dict:
    """What the checks need to know about a datum."""
    return {"label": f.label, "factors": f.cartan_factors, "central": f.central,
            "sp": f.sp, "colors": f.colors, "coeffs": f.coeffs, "M": f.M,
            "sigma": f.sigma, "boundary": f.boundary,
            "blocks": None if f.pres is None else f.pres.blocks}


def _source_args(key, n):
    return [f"catalog:{key}"] + ([] if n is None else ["--n", str(n)])


def _cli(argv, kind, f, **extra):
    return {"op": "cli", "argv": argv, "check": {"kind": kind, "datum": summary(f), **extra}}


def datum_commands(source, f: F.Factor, commands=None) -> list[dict]:
    """The datum_answers commands that apply to a datum; luna types and
    the cone need spherical roots."""
    if commands is None:
        commands = ["kappa", "antican", "verify", "validate"]
        if f.sigma is not None:
            commands += ["cone", "types"]
    out = []
    for cmd in commands:
        extra = ["--method", "luna"] if cmd == "types" else []
        check = {"types": "types_luna"}.get(cmd, cmd)
        params = {"bound": 10} if cmd == "verify" else {}
        out.append(_cli([cmd] + source + extra + ["--json"], check, f, **params))
    return out


class Plan:
    """Builds one workload's request list, writing its documents to docdir."""

    def __init__(self, workload: str, seed: int, docdir: str):
        self.rng = random.Random(f"{workload}:{seed}")
        self.docdir = docdir
        self.requests: list[dict] = []
        self._docs = 0

    def write(self, doc: dict) -> str:
        self._docs += 1
        path = os.path.join(self.docdir, f"doc{self._docs:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def product(self, canonical, order=None):
        """The product of the factors (family, n) in a seeded (or the given)
        order, its presentation sign-conjugated; returns (factor, order)."""
        if order is None:
            order = list(range(len(canonical)))
            self.rng.shuffle(order)
        f = F.product([F.family(*canonical[i]) for i in order])
        if f.pres is not None:
            f.pres = F.sign_conjugate(f.pres, self.rng)
        return f, order

    def distinct_products(self, canonical, count):
        """`count` products with distinct factor orders."""
        orders = self.rng.sample(list(itertools.permutations(range(len(canonical)))), count)
        return [self.product(canonical, list(order))[0] for order in orders]

    def sign_variants(self, canonical, count):
        """`count` products in one seeded order, with distinct sign conjugations."""
        _, order = self.product(canonical)
        out, seen = [], set()
        while len(out) < count:
            g, _ = self.product(canonical, order)
            doc = json.dumps(F.document(g, True))
            if doc not in seen:
                seen.add(doc)
                out.append(g)
        return out

    def shuffled(self) -> list[dict]:
        self.rng.shuffle(self.requests)
        return self.requests


def datum_answers(plan: Plan) -> list[dict]:
    for key, n in CATALOG:
        f = F.family(key, n)
        cmds = [_BRION_5_1_COMMAND[n % 4]] if key == "brion_5_1" else None
        plan.requests += datum_commands(_source_args(key, n), f, cmds)
    for canonical, with_pres in DATUM_PRODUCTS:
        f, _ = plan.product(canonical)
        path = plan.write(F.document(f, with_pres))
        plan.requests += datum_commands([path], f)
    canonical, count = DATUM_VERIFY_VARIANTS
    for f in plan.distinct_products(canonical, count):
        plan.requests += datum_commands([plan.write(F.document(f))], f, ["verify"])
    return plan.shuffled()


def known_fault_factor() -> F.Factor:
    """A1 in one 3x3 block with diag(1, 1, -2) in both b and h.  The
    presentation is valid and its basepoint generic; the stabilizer image
    at a1 is spanned by F, so the color is of type b."""
    t = {(0, 0): 1, (1, 1): 1, (2, 2): -2}
    e, h, f = {(0, 1): 1}, {(0, 0): 1, (1, 1): -1}, {(1, 0): 1}
    pres = F.Presentation([3], [[t], [f], [{(2, 0): 1}], [{(2, 1): 1}]],
                          [[h], [t], [e], [{(0, 2): 1}], [{(1, 2): 1}]], [([e], [h], [f])])
    colors = [{"name": "D1", "moved_by": [0], "type": None, "chi": None}]
    return F.Factor("known_fault", [("A", 1)], colors=colors, pres=pres)


def presentations(plan: Plan) -> list[dict]:
    reqs = plan.requests
    for key, n, method in CATALOG_TYPES:
        f = F.family(key, n)
        reqs.append(_cli(["types"] + _source_args(key, n) + ["--method", method, "--json"],
                         f"types_{method}", f))
    for key, n in CATALOG_VALIDATE:
        reqs.append({"op": "validate_presentation", "source": {"catalog": [key, n]},
                     "check": {"kind": "accepted"}})
    for key, n in CATALOG_DUMP:
        f = F.family(key, n)
        reqs.append(_cli(["catalog", "dump", key] + ([] if n is None else ["--n", str(n)]),
                         "dump", f))
    for canonical, breaker in PRESENTATION_PRODUCTS:
        f, order = plan.product(canonical)
        path = plan.write(F.document(f, True))
        method = "both" if f.sigma is not None else "knop"
        reqs.append(_cli(["types", path, "--method", method, "--json"], f"types_{method}", f))
        reqs.append({"op": "validate_presentation", "source": {"path": path},
                     "check": {"kind": "accepted"}})
        broken = F.Factor(**vars(f))
        broken.pres = F.unclosed_copy(f.pres, order.index(breaker))
        reqs.append({"op": "validate_presentation",
                     "source": {"path": plan.write(F.document(broken, True))},
                     "check": {"kind": "rejected"}})
    canonical, count = VALIDATE_VARIANTS
    for f in plan.sign_variants(canonical, count):
        reqs.append({"op": "validate_presentation",
                     "source": {"path": plan.write(F.document(f, True))},
                     "check": {"kind": "accepted"}})
    fault = known_fault_factor()
    reqs.append(_cli(["types", plan.write(F.document(fault, True)), "--method", "knop",
                      "--json"], "types_knop", fault, types={"D1": "b"}))
    return plan.shuffled()


def certify(plan: Plan) -> list[dict]:
    reqs = plan.requests
    for spec in ROOT_SPECS:
        reqs.append({"op": "cli", "argv": ["roots", spec, "--json"],
                     "check": {"kind": "roots", "spec": spec}})
    for parts in KAPPA_DOCS:
        f, _ = plan.product([("bare", cf, [i for i in range(cf[1]) if i + 1 not in out])
                             for cf, out in parts])
        reqs.append(_cli(["kappa", plan.write(F.document(f)), "--json"], "kappa", f))
    canonical, bound, count = VERIFY_VARIANTS
    docs = [(f, bound) for f in plan.distinct_products(canonical, count)]
    docs += [(plan.product(canonical)[0], bound) for canonical, bound in VERIFY_DOCS]
    for f, bound in docs:
        reqs.append(_cli(["verify", plan.write(F.document(f)), "--bound", str(bound),
                          "--json"], "verify", f, bound=bound))
    return plan.shuffled()


def build(workload: str, seed: int, docdir: str) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(docdir, exist_ok=True)
    return globals()[workload](Plan(workload, seed, docdir))


if __name__ == "__main__":
    import sys

    if len(sys.argv) != 4:
        sys.exit("usage: python3 sphbench/workloads.py WORKLOAD SEED OUTDIR")
    _workload, _seed, _outdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    _plan = build(_workload, _seed, os.path.join(_outdir, "docs"))
    with open(os.path.join(_outdir, "plan.json"), "w", encoding="utf-8") as _fh:
        json.dump(_plan, _fh, indent=1)
    print(f"{len(_plan)} requests; documents in {os.path.join(_outdir, 'docs')}")

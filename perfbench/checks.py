"""Output checks: references, golden files and independent invariants.

Every check returns a list of problems; an empty list means the output
passed.  The invariants use only this file's own permutation code and, for
the generic maps of a family, sympy.  None of them call symlab.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

try:
    import sympy
except ImportError:  # the map identity check is skipped without sympy
    sympy = None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- permutations --------------------------------------------------------------


def parse_perm(text: str, n: int) -> tuple:
    """1-based cycle notation ("(12)(34)", "id") -> 0-based image tuple,
    with perm[i] the position that i moves to."""
    perm = list(range(n))
    if text == "id":
        return tuple(perm)
    for body in text.strip("()").split(")("):
        cyc = [int(ch) - 1 for ch in body]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a] = b
    return tuple(perm)


def is_subgroup(perms: set, n: int) -> bool:
    """A finite set of permutations is a subgroup iff it holds the identity
    and is closed under composition."""
    if tuple(range(n)) not in perms:
        return False
    return all(tuple(p[q[i]] for i in range(n)) in perms for p in perms for q in perms)


# -- sympy identity ------------------------------------------------------------


def _sym(text: str):
    return sympy.sympify(text.replace("^", "**"), locals={"t": sympy.Symbol("t")})


def map_identity_holds(coeffs, roots, sigma, p=None) -> bool:
    """sum_k c_k * r_i^k == r_sigma(i) for every i, in Q(t) or F_p(t).

    `coeffs` are symlab's printed coefficients, `roots` integer coefficient
    lists in t.  Each coefficient is split as a_k / b_k and the identity is
    tested on the cleared numerator with sympy's univariate polynomials over
    QQ or GF(p), which over F_p is exact because the printed denominators
    are monic."""
    t = sympy.Symbol("t")
    opts = {"modulus": p} if p else {"domain": "QQ"}
    try:
        fracs = [[sympy.Poly(x, t, **opts) for x in sympy.fraction(sympy.together(_sym(c)))]
                 for c in coeffs]
        den = sympy.Poly(1, t, **opts)
        for _, b in fracs:
            den *= b
        cofactors = [den.exquo(b) for _, b in fracs]
        rs = [sympy.Poly(list(reversed(r)), t, **opts) for r in roots]
        for i, r in enumerate(rs):
            num, power = sympy.Poly(0, t, **opts), sympy.Poly(1, t, **opts)
            for (a, _), co in zip(fracs, cofactors):
                num += a * power * co
                power *= r
            if not (num - rs[sigma[i]] * den).is_zero:
                return False
    except (sympy.SympifyError, sympy.PolynomialError, TypeError, ValueError,
            ZeroDivisionError):
        return False
    return True


# -- invariants by request kind ------------------------------------------------


def _family(check, res) -> list[str]:
    probs = []
    n = len(check["roots"])
    perm = check.get("perm")
    maps = res["generic_maps"]
    if len(maps) != (1 if perm else math.factorial(n)):
        probs.append(f"{len(maps)} generic maps for n={n}")
    if check["collision"] not in res["critical_values"]:
        probs.append(f"planted collision {check['collision']} not among critical values")
    if sorted(res["critical_values"]) != check["critical"]:
        probs.append(f"critical values {res['critical_values']} != {check['critical']}")
    for entry in res["at"]:
        sts = entry["statuses"]
        if perm:
            if [s["perm"] for s in sts] != [perm]:
                probs.append(f"statuses {[s['perm'] for s in sts]} for --perm {perm}")
            continue
        perms = {parse_perm(s["perm"], n) for s in sts}
        if len(sts) != math.factorial(n) or len(perms) != len(sts):
            probs.append(f"{len(sts)} statuses at t={entry['t']}, {math.factorial(n)} wanted")
        surv = {parse_perm(s["perm"], n) for s in sts if s["status"] == "survives"}
        if surv != {parse_perm(s, n) for s in entry["surviving_subgroup"]}:
            probs.append(f"surviving set at t={entry['t']} differs from its statuses")
        if entry["surviving_order"] != len(surv) or not is_subgroup(surv, n):
            probs.append(f"survivors at t={entry['t']} are not a subgroup containing id")
    if sympy is not None:
        for m in maps:
            if not map_identity_holds(m["coefficients"], check["roots"],
                                      parse_perm(m["perm"], n), check["p"]):
                probs.append(f"generic map {m['perm']} fails sum c_k r_i^k = r_sigma(i)")
    return probs


def aut_count(q: int, mults) -> int:
    """|Aut| of k[X]/(f) for split f over F_q with the given root
    multiplicities: prod over m of c_m! * ((q-1) q^(m-2))^c_m, the bracket
    being 1 for m = 1."""
    total = 1
    for m in set(mults):
        c = list(mults).count(m)
        total *= math.factorial(c) * ((q - 1) * q ** (m - 2) if m > 1 else 1) ** c
    return total


def _aut(check, res) -> list[str]:
    bf = res["brute_force"]
    want = aut_count(check["q"], check["mults"])
    probs = []
    if bf["count"] != want:
        probs.append(f"brute force found {bf['count']} automorphisms, formula gives {want}")
    if len(bf["elements"]) != bf["count"] or sum(bf["order_profile"].values()) != bf["count"]:
        probs.append("brute-force element list or order profile disagrees with the count")
    return probs


def _chi(check, res) -> list[str]:
    q, p = check["q"], check["p"]
    probs = []
    if res.get("group_order") != q * (q - 1):
        probs.append(f"group order {res.get('group_order')} != q(q-1) = {q * (q - 1)}")
    n2 = q - 1 if p == 2 else q
    n3 = q - 1 if p == 3 else (2 * q if (q - 1) % 3 == 0 else 0)
    if (len(res["order2_elements"]), len(res["order3_elements"])) != (n2, n3):
        probs.append(f"order-2/3 element counts {len(res['order2_elements'])}/"
                     f"{len(res['order3_elements'])}, expected {n2}/{n3}")
    return probs


def _talg(check, res) -> list[str]:
    q = check["q"]
    want = (q * q - 1) * (q * q - q) if check["t"] == 0 else q * (q - 1)
    probs = []
    if res["brute_force"]["count"] != want:
        probs.append(f"talg brute force found {res['brute_force']['count']}, expected {want}")
    if "pair_map" in res and res["pair_map"]["automorphism"] is not True:
        probs.append("transported pair is not an automorphism")
    return probs


def _lines(check, res) -> list[str]:
    if "rows" in res:  # a sweep
        return []
    group = {parse_perm(p, 4) for p in res["generic_group"]}
    if res["generic_order"] != len(group) or not is_subgroup(group, 4):
        return ["line pattern stabilizer is not a subgroup of the stated order"]
    return []


def _survival(check, res) -> list[str]:
    w = res.get("witness")
    if w and w["condition_holds"] != (w["at_zero"]["status"] == "survives"):
        return ["survival condition disagrees with the limit at t = 0"]
    return []


def _verified(key):
    def check_fn(check, res):
        return [] if res.get(key) is True else [f"{key} is not true"]
    return check_fn


INVARIANTS = {
    "family": _family, "aut": _aut, "chi": _chi, "talg": _talg, "lines": _lines, "survival": _survival,
    "idem": _verified("verified"), "conj": _verified("endomorphism_identity"),
}


def invariant_problems(req: dict, output: str) -> list[str]:
    """Independent invariants of a JSON output; text outputs have none."""
    check_fn = INVARIANTS.get(req["check"]["kind"])
    if check_fn is None or "--json" not in req["argv"]:
        return []
    try:
        res = json.loads(output)["results"]
    except (ValueError, KeyError) as exc:
        return [f"output is not a symlab JSON report: {exc}"]
    return check_fn(req["check"], res)


def check_output(req: dict, code, output: str, golden_dir: Path) -> list[str]:
    """Every check of one request's output against its reference."""
    probs = []
    if code != req["exit"]:
        probs.append(f"exit code {code}, expected {req['exit']}")
    if req["check"]["kind"] == "malformed" and not any(
            line.startswith("error:") for line in output.splitlines()):
        probs.append("malformed input gave no 'error:' line")
    if digest(output) != req["sha256"]:
        probs.append("output differs from the recorded reference")
    if req["check"]["kind"] == "golden":
        golden = (golden_dir / f"{req['check']['name']}.txt").read_text()
        if output != golden:
            probs.append(f"output differs from tests/golden/{req['check']['name']}.txt")
    if not probs and code == 0:
        probs.extend(invariant_problems(req, output))
    return probs

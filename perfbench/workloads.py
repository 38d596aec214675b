"""Seeded request generator for the symlab benchmark.

Requests come in two steps.  `build_pool()` makes a fixed pool of requests
from POOL_SEED; `record.py` runs every pool request once and stores its exit
code, output digest and cost in refs/pool.json, so each request has a
reference output.  `sample()` then draws one workload's request list from that pool
with the run's own seed: a fixed number of requests from each category, in
a seeded order.  The per-category counts are fixed, so every seed gives the
same mix of request kinds and a comparable amount of work.

Each request is a dict with an `id`, a `cat` (category), the `argv` passed
to `symlab.cli.run`, and a `check` dict that the invariant checkers in
checks.py read.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

POOL_SEED = 20261017

# The fifteen invocations of the README table, by golden-file name.
README = [
    ("aut_split_modulus", ["aut", "--field", "Q", "--poly", "factored:(X)^2(X-1)",
                           "--check-map", "0,a,1-a", "--symbols", "a"]),
    ("aut_brute_force_f5", ["aut", "--field", "Fp(5)", "--poly", "factored:(X)(X-1)(X-2)",
                            "--brute-force"]),
    ("chi_f4", ["chi", "--field", "F(2,2)"]),
    ("chi_f3", ["chi", "--field", "Fp(3)"]),
    ("family_two_roots", ["family", "--roots", "t,2*t", "--field", "Q", "--at", "0"]),
    ("family_0_t_1", ["family", "--roots", "0,t,1", "--field", "Q", "--at", "0,1"]),
    ("family_0_t_t2", ["family", "--roots", "0,t,t^2", "--field", "Q", "--at", "0"]),
    ("family_scaled_132", ["family", "--roots", "t,3*t,2*t", "--field", "Q", "--at", "0"]),
    ("survival_swap", ["survival", "--perm", "(12)", "--witness", "1,3,2"]),
    ("survival_cycle_zeta3", ["survival", "--perm", "(132)", "--witness", "0,1,-zeta3",
                              "--field", "Qzeta3"]),
    ("idem_family", ["idem", "--roots", "0,t,1", "--field", "Q", "--symbols", "t"]),
    ("conj_scaling_family", ["conj", "--field", "Q", "--symbols", "a,t", "--source-roots",
                             "0,0,t", "--target-roots", "0,0,1", "--iso", "0,t", "--aut",
                             "0,a,1-a", "--limit", "0"]),
    ("talg_pairs_f5", ["talg", "--t", "1", "--field", "Fp(5)", "--pair", "5,2",
                       "--brute-force"]),
    ("lines_sweep", ["lines", "--family", "paper", "--from", "1/2", "--to", "1",
                     "--steps", "4"]),
    ("lines_rectangle", ["lines", "--config", "1 0 2; 0 1 0; 1 0 0; 0 1 4"]),
]

# Requests per pass, by category.  A category drawn in full is the same on
# every seed apart from its position in the list.  The heaviest rows (n=4
# families, n=3 families over Q without --at, degree-4 automorphisms) are
# drawn in full: an n=4 row costs as much as five to ten light requests,
# and the cost of such rows varies up to fourfold between inputs, so
# drawing them by seed would set the run-to-run spread on its own.  The
# counts also keep the percentiles inside a group of similar requests
# rather than on the edge between two: in cli_mix the 50 line
# configurations straddle the median, in family_limits p90 falls among the
# four fixed n=3 rows without --at, and in finite_enum among the five talg
# rows over F_7 and the degree-4 row over F_5, which cost about the same,
# below the two heaviest rows (degree 4 over F_7, chi over F_49).
MIX = {
    "family_limits": {
        "readme_family": 4,
        "fam3_q_at": 9, "fam3_q_noat": 4, "fam3_fp": 8,
        "fam4_q_at": 1, "fam4_fp_noat": 1, "fam5_perm": 8,
    },
    "finite_enum": {
        "chi": 6, "aut3_f5": 11, "aut3_f7": 11, "aut4_f5": 1,
        "aut4_f7": 1, "talg_f3": 3, "talg_f5": 3, "talg_f7": 5, "talg0": 1,
    },
    "cli_mix": {
        "readme_text": 15, "readme_json": 15, "lines_config": 50, "lines_sweep": 6,
        "survival": 8, "idem": 4, "conj": 4, "malformed": 12,
    },
}
WORKLOADS = tuple(MIX)


# -- formatting ----------------------------------------------------------------


def poly_str(coeffs) -> str:
    """Integer coefficient list [c0, c1, ...] in t -> symlab input syntax."""
    out = ""
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mono = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        sign = "-" if c < 0 else ("+" if out else "")
        out += sign + body
    return out or "0"


def perm_str(perm) -> str:
    """0-based permutation tuple -> 1-based cycle notation ("id" for identity)."""
    seen, cycles = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc, k = [], start
        while k not in seen:
            seen.add(k)
            cyc.append(k + 1)
            k = perm[k]
        cycles.append("(" + "".join(map(str, cyc)) + ")")
    return "".join(cycles) or "id"


# -- root families -------------------------------------------------------------


def _trim(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _rational_roots(d):
    """Rational roots of the integer polynomial d (degree <= 2)."""
    d = _trim(d)
    if len(d) == 1:
        return set()
    if len(d) == 2:
        return {Fraction(-d[0], d[1])}
    c, b, a = d
    disc = b * b - 4 * a * c
    if disc < 0:
        return set()
    s = math.isqrt(disc)
    if s * s != disc:
        return set()
    return {Fraction(-b + s, 2 * a), Fraction(-b - s, 2 * a)}


def collision_values(roots, p=None):
    """Parameter values where two roots meet: over Q the rational ones,
    over F_p every residue."""
    found = set()
    for r1, r2 in itertools.combinations(roots, 2):
        n = max(len(r1), len(r2))
        d = [(r1[k] if k < len(r1) else 0) - (r2[k] if k < len(r2) else 0) for k in range(n)]
        if p is None:
            found |= _rational_roots(d)
        else:
            found |= {t for t in range(p) if sum(c * t**k for k, c in enumerate(d)) % p == 0}
    return found


def _distinct(roots, p=None):
    keys = [tuple(_trim([c % p for c in r] if p else r)) for r in roots]
    return len(set(keys)) == len(keys)


def _family(rng, n, n_const, p=None, at=True, n_crit=None, with_perm=False):
    """A family of n roots, n_const of them constant and the rest linear in
    t, with a planted collision at t0 between a constant and a linear root.
    Without --at the number of collision values is held at n_crit."""
    slopes = [1, -1] if n > 3 else [1, 2, -1, -2]
    lo, hi = (0, p - 1) if p else (-3, 3)
    while True:
        t0 = rng.randrange(p) if p else rng.randint(-2, 2)
        c = rng.randint(lo, hi)
        k = rng.randint(1, p - 1) if p else rng.choice(slopes)
        roots = [[c], [c - k * t0, k]]
        while len(roots) < n:
            slope = 0 if len(roots) < n_const + 1 else rng.choice(slopes)
            roots.append([rng.randint(lo, hi), slope] if slope else [rng.randint(lo, hi)])
        if p:
            roots = [[x % p for x in r] for r in roots]
        roots = [_trim(r) for r in roots]
        if not _distinct(roots, p):
            continue
        crit = collision_values(roots, p)
        if not at and n_crit is not None and len(crit) != n_crit:
            continue
        rng.shuffle(roots)
        t0v = Fraction(t0 % p) if p else Fraction(t0)
        assert t0v in crit
        argv = ["family", f"--roots={','.join(poly_str(r) for r in roots)}"]
        if p:
            argv += ["--field", f"Fp({p})"]
        if at:
            argv.append(f"--at={t0v}")
        check = {"kind": "family", "p": p, "roots": roots, "collision": str(t0v),
                 "critical": sorted(str(x) for x in crit)}
        if with_perm:
            perm = tuple(range(n))
            while perm == tuple(range(n)):
                perm = tuple(rng.sample(range(n), n))
            argv.append(f"--perm={perm_str(perm)}")
            check["perm"] = perm_str(perm)
        argv.append("--json")
        return argv, check


# -- finite fields -------------------------------------------------------------

PATTERNS = {3: [(1, 1, 1), (2, 1), (3,)], 4: [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]}


def _aut(rng, p, degree):
    mults = list(rng.choice(PATTERNS[degree]))
    rng.shuffle(mults)
    roots = rng.sample(range(p), len(mults))
    factors = ""
    for r, m in zip(roots, mults):
        factors += "(X)" if r == 0 else f"(X-{r})"
        factors += f"^{m}" if m > 1 else ""
    argv = ["aut", "--field", f"Fp({p})", "--poly", f"factored:{factors}", "--brute-force",
            "--json"]
    return argv, {"kind": "aut", "q": p, "mults": sorted(mults)}


def _talg(rng, p):
    t = rng.randint(1, p - 1)
    argv = ["talg", "--t", str(t), "--field", f"Fp({p})", "--brute-force", "--json"]
    if rng.random() < 0.5:
        argv[5:5] = ["--pair", f"{rng.randrange(p)},{rng.randint(1, p - 1)}"]
    return argv, {"kind": "talg", "q": p, "t": t}


CHI_FIELDS = [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)]


# -- cli_mix -------------------------------------------------------------------


def _frac(rng):
    num = rng.randint(-6, 6)
    return str(Fraction(num, rng.choice([1, 1, 1, 2, 3])))


def _lines_config(rng):
    shape = rng.choice(["rectangle", "parallelogram", "concurrent", "trapezoid", "general"])
    while True:
        if shape == "rectangle":
            a, b = rng.choice([(1, 0), (1, 1), (1, 2), (2, -1)])
            ls = [(a, b, rng.randint(-5, 5)), (a, b, rng.randint(-5, 5)),
                  (-b, a, rng.randint(-5, 5)), (-b, a, rng.randint(-5, 5))]
        elif shape == "parallelogram":
            (a, b), (c, d) = rng.sample([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2)], 2)
            ls = [(a, b, rng.randint(-5, 5)), (a, b, rng.randint(-5, 5)),
                  (c, d, rng.randint(-5, 5)), (c, d, rng.randint(-5, 5))]
        elif shape == "concurrent":
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            dirs = rng.sample([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1)], 4)
            ls = [(a, b, a * x + b * y) for a, b in dirs]
        elif shape == "trapezoid":
            (a, b), (c, d), (e, f) = rng.sample([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2)], 3)
            ls = [(a, b, rng.randint(-5, 5)), (a, b, rng.randint(-5, 5)),
                  (c, d, rng.randint(-5, 5)), (e, f, rng.randint(-5, 5))]
        else:
            ls = [(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-5, 5)) for _ in range(4)]
        if any(a == 0 and b == 0 for a, b, _ in ls):
            continue
        norm = {(Fraction(c, a or b), Fraction(b, a) if a else None) for a, b, c in ls}
        if len(norm) < 4:
            continue
        rng.shuffle(ls)
        text = "; ".join(f"{a} {b} {c}" for a, b, c in ls)
        if shape != "concurrent" and rng.random() < 0.3:
            i = rng.randrange(4)
            a, b, c = ls[i]
            k = rng.choice([2, 3])
            ls[i] = (f"{Fraction(a, k)}", f"{Fraction(b, k)}", f"{Fraction(c, k)}")
            text = "; ".join(f"{a} {b} {c}" for a, b, c in ls)
        return ["lines", "--config", text], {"kind": "lines", "shape": shape}


def _lines_sweep(rng):
    grid = sorted(rng.sample([Fraction(k, 20) for k in range(10, 21)], 2))
    return ["lines", "--family", "paper", "--from", str(grid[0]), "--to", str(grid[1]),
            "--steps", str(rng.randint(2, 6))], {"kind": "lines"}


def _survival(rng):
    perm = rng.choice(["(12)", "(13)", "(23)", "(123)", "(132)"])
    a, s = rng.randint(-4, 4), rng.choice([1, 2, 3, -1, -2])
    if perm in ("(123)", "(132)") and rng.random() < 0.6:
        x3 = f"{a}{'-' if s > 0 else '+'}{abs(s)}*zeta3"  # x3 = x1 - (x2 - x1)*zeta3
        return (["survival", "--perm", perm, f"--witness={a},{a + s},{x3}", "--field",
                 "Qzeta3"], {"kind": "survival"})
    xs = rng.sample(range(-5, 6), 3)
    if perm == "(12)" and rng.random() < 0.5:
        xs = [a, a + 2 * s, a + s]  # 2*x3 = x1 + x2: the swap survives
    return ["survival", "--perm", perm, f"--witness={','.join(map(str, xs))}"], {"kind": "survival"}


def _idem(rng):
    c, d = rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3, -1, -2])
    roots = ["0", poly_str([0, c]), "a" if d == 1 else ("-a" if d == -1 else f"{d}*a")]
    rng.shuffle(roots)
    argv = ["idem", f"--roots={','.join(roots)}", "--symbols", rng.choice(["t,a", "a,t"])]
    if rng.random() < 0.5:
        argv += ["--field", f"Fp({rng.choice([5, 7, 11])})"]
    return argv, {"kind": "idem"}


def _conj(rng):
    c, d = rng.randint(1, 4), rng.randint(1, 3)
    src = "t" if c == 1 else f"{c}*t"
    aut = "1-a" if d == 1 else f"(1-a)/{d}"
    iso = src if d == 1 else f"{src}/{d}"
    argv = ["conj", "--field", "Q", "--symbols", rng.choice(["a,t", "t,a", "a,b,t"]),
            "--source-roots", f"0,0,{src}", "--target-roots", f"0,0,{d}",
            "--iso", f"0,{iso}", "--aut", f"0,a,{aut}", "--limit", str(rng.randint(0, 2))]
    return argv, {"kind": "conj"}


def _malformed(rng):
    """Inputs that must end with exit code 1 and an `error:` line.  The
    inputs known to hang at this commit (huge primes, exponents, integers
    or step counts, deep nesting) are left out."""
    k = rng.randint(2, 9)
    options = [
        ["family", f"--roots=0,t,{k}*t,t"],
        ["family", "--roots=" + ",".join(str(i) for i in range(5)) + f",t,{k}"],
        ["family", f"--roots=0,t,{k}", "--perm", f"(1{k + 2})"],
        ["family", f"--roots=0,t,{k}", "--at", f"{k}/0"],
        ["family", f"--roots=0,x,{k}"],
        ["family", f"--roots=0,t,{k}+"],
        ["family"],
        ["aut", "--field", f"Fp({2 * k})", "--poly", "factored:(X)(X-1)", "--brute-force"],
        ["aut", "--field", "Q", "--poly", f"(X)(X-{k})"],
        ["aut", "--field", "Q", "--poly", f"factored:(X)(X-{k})", "--brute-force"],
        ["chi", "--field", f"F({2 * k},2)"],
        ["chi", "--field", f"G({k})"],
        ["lines", "--config", f"1 0 {k}; 0 1 0"],
        ["lines", "--config", f"0 0 {k}; 1 0 0; 0 1 0; 1 1 1"],
        ["lines", "--steps", "0"],
        ["talg", "--t", "0", "--pair", f"1,{k}"],
        ["survival", "--perm", "(12)", "--witness", f"1,{k}"],
        ["idem", f"--roots=0,t,t", "--symbols", "t"],
        ["frobnicate", "--field", "Q"],
        ["conj", "--field", "Q", "--symbols", "a,t", "--source-roots", "0,0,t",
         "--target-roots", f"0,0,{k}", "--iso", "0,t", "--aut", "0,a,1-a"],
    ]
    return rng.choice(options) + (["--json"] if rng.random() < 0.3 else []), {"kind": "malformed"}


# -- pool and sampling ---------------------------------------------------------

GENERATED = {
    "fam3_q_at": (40, lambda rng: _family(rng, 3, 1)),
    "fam3_q_noat": (4, lambda rng: _family(rng, 3, 1, at=False, n_crit=2)),
    "fam3_fp": (24, lambda rng: _family(rng, 3, 1, p=rng.choice([5, 7, 11]),
                                        at=rng.random() < 0.5, n_crit=2)),
    "fam4_q_at": (1, lambda rng: _family(rng, 4, 2)),
    "fam4_fp_noat": (1, lambda rng: _family(rng, 4, 2, p=rng.choice([5, 7]), at=False,
                                             n_crit=3)),
    "fam5_perm": (40, lambda rng: _family(rng, 5, 3, with_perm=True)),
    "aut3_f5": (30, lambda rng: _aut(rng, 5, 3)),
    "aut3_f7": (30, lambda rng: _aut(rng, 7, 3)),
    "aut4_f5": (1, lambda rng: _aut(rng, 5, 4)),
    "aut4_f7": (1, lambda rng: _aut(rng, 7, 4)),
    "talg_f3": (12, lambda rng: _talg(rng, 3)),
    "talg_f5": (20, lambda rng: _talg(rng, 5)),
    "talg_f7": (20, lambda rng: _talg(rng, 7)),
    "lines_config": (80, _lines_config),
    "lines_sweep": (20, _lines_sweep),
    "survival": (30, _survival),
    "idem": (16, _idem),
    "conj": (12, _conj),
    "malformed": (40, _malformed),
}


# cli_mix categories whose requests ask for --json half of the time, so
# that both renderers run and the JSON half gets its invariants checked.
JSON_HALF = {"lines_config", "lines_sweep", "survival", "idem", "conj"}


def build_pool(seed: int = POOL_SEED) -> list[dict]:
    """The full request pool, deterministic in `seed`.  Generated requests
    are distinct within their category."""
    rng = random.Random(seed)
    pool = []
    for name, argv in README:
        pool.append({"cat": "readme_text", "argv": argv, "check": {"kind": "golden",
                                                                    "name": name}})
        pool.append({"cat": "readme_json", "argv": argv + ["--json"],
                     "check": {"kind": "readme", "name": name}})
        if name.startswith("family"):
            pool.append({"cat": "readme_family", "argv": argv, "check": {"kind": "golden",
                                                                          "name": name}})
    for p, k in CHI_FIELDS:
        pool.append({"cat": "chi", "argv": ["chi", "--field", f"F({p},{k})", "--json"],
                     "check": {"kind": "chi", "q": p**k, "p": p}})
    pool.append({"cat": "talg0", "argv": ["talg", "--t", "0", "--field", "Fp(3)",
                                          "--brute-force", "--json"],
                 "check": {"kind": "talg", "q": 3, "t": 0}})
    for cat, (size, make) in GENERATED.items():
        seen = set()
        while len(seen) < size:
            argv, check = make(rng)
            if cat in JSON_HALF and "--json" not in argv and rng.random() < 0.5:
                argv = argv + ["--json"]
            if tuple(argv) in seen:
                continue
            seen.add(tuple(argv))
            pool.append({"cat": cat, "argv": argv, "check": check})
    for i, req in enumerate(pool):
        req["id"] = f"{req['cat']}-{i:04d}"
    return pool


def sample(pool: list[dict], workload: str, seed: int) -> list[dict]:
    """One pass of `workload`: MIX[workload][cat] requests from each
    category, drawn and ordered by `seed`.

    A category's pool is sorted by the cost record.py measured (`ms`) and
    cut into as many strata as requests are wanted; one request is drawn
    from each stratum.  Every seed then gets a similar spread of cheap and
    dear requests, which keeps the latency percentiles comparable between
    seeds."""
    if workload not in MIX:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(MIX)}")
    rng = random.Random(f"{workload}/{seed}")
    by_cat: dict[str, list] = {}
    for req in pool:
        by_cat.setdefault(req["cat"], []).append(req)
    out = []
    for cat, count in MIX[workload].items():
        members = sorted(by_cat.get(cat, []), key=lambda r: (r["ms"], r["id"]))
        if len(members) < count:
            raise ValueError(f"category {cat} has {len(members)} requests, {count} wanted")
        bounds = [len(members) * k // count for k in range(count + 1)]
        out.extend(rng.choice(members[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    rng.shuffle(out)
    return out

"""Command-line front end.

Subcommands: aut, idem, family, survival, chi, talg, lines, conj.  Every
run assembles a report dictionary (schema "symlab/1") and emits it as
human-readable text or, with --json, as JSON.  Exit codes: 0 success, 1
input error, 2 internal inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from fractions import Fraction

from .chi import NO_S3_BOUND, no_s3_check, order_class
from .families import (
    InternalInconsistencyError,
    RootFamily,
    Survives,
    all_perms,
    analyze_at,
    conjugate_through_iso,
    perm_coeff_vector,
    perm_to_cycles,
    specialize_scaled,
    survival_condition,
    surviving_subgroup,
)
from .fields import MAX_POWER_DIGITS, QQ, Field, parse_field_spec
from .lines import (
    INFINITE,
    PARALLEL,
    Config4,
    Line,
    design_isometries,
    generic_symmetry,
    pair_relation,
    pivot_family,
    sweep,
)
from .parse import parse_cycles, parse_factored, parse_ratfunc, parse_ratfunc_list
from .poly import FunctionField, Pole, UniPoly
from .quotient import (
    MonogenicAlgebra,
    SubstitutionMap,
    aut_description,
    brute_force_automorphisms,
    check_idempotent_weight,
    idempotents,
    root_differences,
    verify_idempotents,
)
from . import structure

SCHEMA = "symlab/1"

TWO_PAIR_NOTE = (
    "two disjoint parallel pairs: the full pattern stabilizer also swaps the "
    "two pairs (order 8), strictly larger than the Klein four group of a "
    "rectangle's isometries"
)


# Upper bound on `lines --steps`: each grid point costs about 0.35 ms (the
# paper family, in-process CPU time on a 2-vCPU Xeon VM, Python 3.11), so a
# sweep ends within about half a second.
MAX_STEPS = 1000


class InputError(ValueError):
    pass


def _report(subcommand: str, inputs: dict, results: dict, warnings=()) -> dict:
    rep = {
        "schema": SCHEMA,
        "subcommand": subcommand,
        "inputs": inputs,
        "results": results,
    }
    if warnings:
        rep["warnings"] = list(warnings)
    return rep


def emit_report(report: dict, mode: str = "text") -> str:
    if mode == "json":
        return json.dumps(report, indent=2)
    lines = _render_text(report)
    return "\n".join(lines) + "\n"


def _render_text(report: dict) -> list[str]:
    sub = report["subcommand"]
    out = [f"symlab {sub}"]
    for k, v in report["inputs"].items():
        out.append(f"  {k}: {v}")
    out.append("")
    out.extend(_TEXT_RENDERERS[sub](report["results"]))
    for w in report.get("warnings", ()):
        out.append(f"note: {w}")
    return out


# -- input helpers -----------------------------------------------------------


def _field_and_symbols(args) -> tuple[Field, tuple]:
    base = parse_field_spec(args.field)
    symbols = tuple(s.strip() for s in getattr(args, "symbols", "").split(",") if s.strip())
    for i, s in enumerate(symbols):
        if s in symbols[:i]:
            raise InputError(f"symbol {s!r} is repeated in --symbols")
        if s == getattr(base, "generator_name", None):
            raise InputError(f"symbol {s!r} is the name of the generator of {base}")
    return base, symbols


def _parse_factored(text: str, field: Field, symbols) -> list[tuple]:
    """Parse "factored:(X)(X-1)^2(X-t)" into (root, multiplicity) pairs."""
    if not text.startswith("factored:"):
        raise InputError("polynomial must use the factored:(...) form")
    return parse_factored(text[len("factored:") :], field, symbols)


def _working_field(base: Field, symbols):
    return FunctionField(base, symbols) if symbols else base


def _as_field_values(ratfuncs, field: Field, symbols):
    """Rational functions from the parser -> elements of the working field."""
    if symbols:
        return [field.coerce(r) for r in ratfuncs]
    return [r.as_constant() for r in ratfuncs]


# -- aut ---------------------------------------------------------------------


def _cmd_aut(args) -> dict:
    base, symbols = _field_and_symbols(args)
    field = _working_field(base, symbols)
    factors = _parse_factored(args.poly, base, symbols)
    roots = _as_field_values([r for r, _ in factors], field, symbols)
    mults = [m for _, m in factors]
    flat = []
    for r, m in zip(roots, mults):
        flat.extend([r] * m)
    algebra = MonogenicAlgebra.from_roots(field, flat)
    desc = aut_description(zip(roots, mults))
    results = {
        "modulus": str(algebra.modulus),
        "decomposition": [[m, r] for m, r in desc.parts],
        "automorphisms": {
            "permutation_part": desc.permutation_part,
            "factors": [
                {
                    "multiplicity": f.multiplicity,
                    "count": f.count,
                    "connected_group": f.connected,
                    "connected_dimension": f.connected_dim,
                }
                for f in desc.factors
            ],
            "finite_order": desc.finite_order,
        },
    }
    if args.check_map:
        coeffs = parse_ratfunc_list(args.check_map, base, symbols)
        g = SubstitutionMap(algebra, UniPoly(field, _as_field_values(coeffs, field, symbols)))
        results["check_map"] = {
            "map": str(g),
            "endomorphism": g.is_endomorphism(),
            "automorphism": g.is_automorphism(),
        }
    if args.brute_force:
        if base.size() is None or symbols:
            raise InputError("--brute-force requires a finite field and no symbols")
        auts = brute_force_automorphisms(algebra)
        # the maps found are the whole group, so by Lagrange its size bounds every order
        profile = Counter(a.order(len(auts)) for a in auts)
        results["brute_force"] = {
            "count": len(auts),
            "order_profile": {str(k): v for k, v in sorted(profile.items())},
            "elements": [str(a) for a in auts],
        }
    return _report(
        "aut",
        {"field": args.field, "poly": args.poly, "symbols": ",".join(symbols)},
        results,
    )


def _text_aut(res: dict) -> list[str]:
    out = [f"algebra: k[X]/({res['modulus']})"]
    dec = ", ".join(f"(m={m}, count={r})" for m, r in res["decomposition"])
    out.append(f"root multiplicities: {dec}")
    a = res["automorphisms"]
    out.append(f"automorphism group: permutation part {a['permutation_part']}")
    for f in a["factors"]:
        out.append(
            f"  multiplicity {f['multiplicity']} (x{f['count']}): "
            f"{f['connected_group']} [dim {f['connected_dimension']}]"
        )
    if a["finite_order"] is not None:
        out.append(f"  finite group of order {a['finite_order']}")
    if "check_map" in res:
        c = res["check_map"]
        out.append(
            f"checked map {c['map']}: endomorphism={c['endomorphism']}, "
            f"automorphism={c['automorphism']}"
        )
    if "brute_force" in res:
        b = res["brute_force"]
        out.append(f"brute force: {b['count']} automorphisms")
        prof = ", ".join(f"order {k}: {v}" for k, v in b["order_profile"].items())
        out.append(f"  order profile: {prof}")
        for e in b["elements"]:
            out.append(f"  {e}")
    return out


# -- idem --------------------------------------------------------------------


def _cmd_idem(args) -> dict:
    base, symbols = _field_and_symbols(args)
    field = _working_field(base, symbols)
    ratfuncs = parse_ratfunc_list(args.roots, base, symbols)
    check_idempotent_weight(ratfuncs)
    roots = _as_field_values(ratfuncs, field, symbols)
    es = idempotents(field, roots)
    det = root_differences(roots, field.one)
    results = {
        "modulus": str(es[0].algebra.modulus),
        "idempotents": [str(e) for e in es],
        "vandermonde_det": str(det),
        "verified": verify_idempotents(roots, es),
    }
    return _report(
        "idem",
        {"field": args.field, "roots": args.roots, "symbols": ",".join(symbols)},
        results,
    )


def _text_idem(res: dict) -> list[str]:
    out = [f"algebra: k[X]/({res['modulus']})"]
    for i, e in enumerate(res["idempotents"]):
        out.append(f"  e{i + 1} = {e}")
    out.append(f"vandermonde det: {res['vandermonde_det']}")
    out.append(
        "orthogonality, idempotency, sum = 1, X*e_i = z_i*e_i: "
        + ("verified" if res["verified"] else "FAILED")
    )
    return out


# -- family ------------------------------------------------------------------


def _status_dict(sigma, st) -> dict:
    d = {"perm": perm_to_cycles(sigma)}
    if isinstance(st, Survives):
        d["status"] = "survives"
        d["map"] = str(st.limit_map)
    else:
        d["status"] = "pole"
        d["coeff_index"] = st.coeff_index
        d["order"] = st.order
    return d


def _status_text(st: dict) -> str:
    if st["status"] == "survives":
        return f"survives as {st['map']}"
    return f"pole in the X^{st['coeff_index']} coefficient (order {st['order']})"


def _cmd_family(args) -> dict:
    base, _ = _field_and_symbols(args)
    fam = RootFamily(base, parse_ratfunc_list(args.roots, base, RootFamily.symbols))
    if not 2 <= fam.n <= 5:
        raise InputError("family analysis supports 2 to 5 roots")
    crit = fam.critical_values()
    results = {
        "generic_symmetry": f"S{fam.n}",
        "critical_values": [str(c) for c in crit],
        "generic_maps": [],
        "at": [],
    }
    perms = [parse_cycles(args.perm, fam.n)] if args.perm else all_perms(fam.n)
    for sigma in perms:
        results["generic_maps"].append(
            {
                "perm": perm_to_cycles(sigma),
                "coefficients": [str(c) for c in perm_coeff_vector(fam, sigma)],
            }
        )
    at_values = [v.as_constant() for v in parse_ratfunc_list(args.at, base)] if args.at else crit
    for t0 in at_values:
        if args.perm:
            statuses = [(perms[0], analyze_at(fam, perms[0], t0))]
            surviving = None
        else:
            rep = surviving_subgroup(fam, t0)
            statuses = rep.statuses
            surviving = [perm_to_cycles(s) for s in rep.surviving]
        entry = {
            "t": str(t0),
            "statuses": [_status_dict(s, st) for s, st in statuses],
        }
        if surviving is not None:
            entry["surviving_subgroup"] = surviving
            entry["surviving_order"] = len(surviving)
        results["at"].append(entry)
    unsearched = [
        f"the roots of the critical factor {g.to_str('t')} are not searched, "
        "so they are not listed among the critical values"
        for g in fam.unsearched_factors()
    ]
    return _report(
        "family",
        {"field": args.field, "roots": args.roots, "at": args.at or "", "perm": args.perm or ""},
        results,
        warnings=unsearched,
    )


def _text_family(res: dict) -> list[str]:
    out = [f"generic symmetry: {res['generic_symmetry']}"]
    out.append("critical values: " + (", ".join(res["critical_values"]) or "none found"))
    out.append("generic maps (coefficients of 1, X, X^2, ...):")
    for g in res["generic_maps"]:
        out.append(f"  {g['perm']}: ({', '.join(g['coefficients'])})")
    for entry in res["at"]:
        out.append(f"at t = {entry['t']}:")
        for st in entry["statuses"]:
            out.append(f"  {st['perm']}: {_status_text(st)}")
        if "surviving_subgroup" in entry:
            out.append(
                f"  surviving subgroup (order {entry['surviving_order']}): "
                + ", ".join(entry["surviving_subgroup"])
            )
    return out


# -- survival ----------------------------------------------------------------


def _cmd_survival(args) -> dict:
    sigma = parse_cycles(args.perm, 3)
    base, _ = _field_and_symbols(args)
    sc = survival_condition(sigma, base)
    results = {
        "perm": perm_to_cycles(sigma),
        "condition": str(sc.condition),
        "limit_linear_coeff": str(sc.limit_linear_coeff),
    }
    if args.witness:
        xs = [r.as_constant() for r in parse_ratfunc_list(args.witness, base)]
        if len(xs) != 3:
            raise InputError("a witness needs exactly three values x1, x2, x3")
        holds = sc.holds_at(xs)
        wres = {"x": [str(x) for x in xs], "condition_holds": holds}
        fam = specialize_scaled(base, xs)
        st = analyze_at(fam, sigma, base.zero)
        wres["at_zero"] = _status_dict(sigma, st)
        results["witness"] = wres
    return _report(
        "survival",
        {"perm": args.perm, "field": args.field, "witness": args.witness or ""},
        results,
    )


def _text_survival(res: dict) -> list[str]:
    out = [
        f"permutation {res['perm']} of the root family (t*x1, t*x2, t*x3)",
        f"survives at t = 0 iff {res['condition']} = 0 (x_i pairwise distinct)",
        f"limit map on that locus: X -> ({res['limit_linear_coeff']})*X",
    ]
    if "witness" in res:
        w = res["witness"]
        out.append(
            f"witness x = ({', '.join(w['x'])}): condition "
            + ("holds" if w["condition_holds"] else "fails")
        )
        out.append(f"  at t = 0: {_status_text(w['at_zero'])}")
    return out


# -- chi ---------------------------------------------------------------------


def _cmd_chi(args) -> dict:
    base, _ = _field_and_symbols(args)
    rep = order_class(base)
    results = {
        "group": "X -> a*X + b*X^2 on k[X]/(X^3), a != 0",
        "case": rep.case_label,
        "order2": rep.order2_description,
        "order3": rep.order3_description,
    }
    if rep.order2_elements is not None:
        results["order2_elements"] = [str(c) for c in rep.order2_elements]
        results["order3_elements"] = [str(c) for c in rep.order3_elements]
    if rep.group_order is not None:
        results["group_order"] = rep.group_order
    if rep.group_order is not None and base.size() <= NO_S3_BOUND:
        ns3 = no_s3_check(base)
        results["no_s3"] = {
            "ok": ns3.ok,
            "pairs_checked": ns3.pairs_checked,
        }
        if ns3.counterexample:
            results["no_s3"]["counterexample"] = [str(c) for c in ns3.counterexample]
    return _report("chi", {"field": args.field}, results, warnings=rep.notes)


def _text_chi(res: dict) -> list[str]:
    out = [
        f"group: {res['group']}",
        f"case: {res['case']}",
        f"order 2: {res['order2']}",
    ]
    if "order2_elements" in res:
        out.append(f"  elements ({len(res['order2_elements'])}): " + ", ".join(res["order2_elements"]))
    out.append(f"order 3: {res['order3']}")
    if "order3_elements" in res:
        out.append(f"  elements ({len(res['order3_elements'])}): " + ", ".join(res["order3_elements"]))
    if "group_order" in res:
        out.append(f"group order: {res['group_order']}")
    if "no_s3" in res:
        n = res["no_s3"]
        verdict = "no such pair" if n["ok"] else f"counterexample {n['counterexample']}"
        out.append(
            f"order-2 pairs with order-3 product: {verdict} "
            f"({n['pairs_checked']} ordered pairs checked)"
        )
    return out


# -- talg --------------------------------------------------------------------


def _cmd_talg(args) -> dict:
    base, _ = _field_and_symbols(args)
    t = parse_ratfunc(args.t, base, ()).as_constant()
    algebra = structure.build_T(t)
    e2, e3 = algebra.basis(1), algebra.basis(2)
    results = {
        "t": str(t),
        "relations": {
            "e2*e2": str(e2 * e2),
            "e3*e3": str(e3 * e3),
            "e2*e3": str(e2 * e3),
            "e3*e2": str(e3 * e2),
        },
        "commutative": algebra.is_commutative(),
    }
    if args.pair:
        vals = [r.as_constant() for r in parse_ratfunc_list(args.pair, base)]
        if len(vals) != 2:
            raise InputError("--pair needs exactly two values b,b'")
        if t.is_zero():
            raise InputError("transport needs t != 0")
        pair = structure.AutPair(vals[0], vals[1])
        phi = structure.transport_aut(t, pair, algebra)
        results["pair_map"] = {
            "pair": [str(vals[0]), str(vals[1])],
            "map": str(phi),
            "automorphism": phi.is_automorphism(),
        }
    if args.brute_force:
        if base.size() is None:
            raise InputError("--brute-force requires a finite field")
        auts = structure.brute_force_automorphisms(algebra)
        results["brute_force"] = {
            "count": len(auts),
            "elements": [str(a) for a in auts],
        }
    return _report(
        "talg",
        {"field": args.field, "t": args.t, "pair": args.pair or ""},
        results,
    )


def _text_talg(res: dict) -> list[str]:
    out = [f"T(t) at t = {res['t']}: basis (1, e2, e3)"]
    r = res["relations"]
    out.append(
        f"relations: e2*e2 = {r['e2*e2']}, e3*e3 = {r['e3*e3']}, "
        f"e2*e3 = {r['e2*e3']}, e3*e2 = {r['e3*e2']}"
    )
    out.append(f"commutative: {res['commutative']}")
    if "pair_map" in res:
        p = res["pair_map"]
        out.append(f"pair (b, b') = ({p['pair'][0]}, {p['pair'][1]}): {p['map']}")
        out.append(f"  automorphism: {p['automorphism']}")
    if "brute_force" in res:
        b = res["brute_force"]
        out.append(f"brute force: {b['count']} automorphisms")
        for e in b["elements"]:
            out.append(f"  {e}")
    return out


# -- lines -------------------------------------------------------------------


def _fraction(text: str) -> Fraction:
    """Fraction(text), refused unread past MAX_POWER_DIGITS digits or 4 exponent characters."""
    if sum(map(str.isdigit, text)) > MAX_POWER_DIGITS or len(text.lower().partition("e")[2]) > 4:
        raise InputError(f"a number of more than MAX_POWER_DIGITS = {MAX_POWER_DIGITS} digits")
    return Fraction(text)


def _parse_config(text: str) -> Config4:
    rows = [r.strip() for r in text.split(";") if r.strip()]
    if len(rows) != 4:
        raise InputError("a configuration needs exactly 4 lines 'a b c'")
    lines = []
    for r in rows:
        parts = r.split()
        if len(parts) != 3:
            raise InputError(f"line {r!r} must have three rational entries")
        try:
            lines.append(Line(*map(_fraction, parts)))
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad line {r!r}: {e}") from None
    return Config4(lines)


def _two_parallel_pairs(config: Config4) -> bool:
    parallel = [
        frozenset((i, j))
        for i in range(4)
        for j in range(i + 1, 4)
        if pair_relation(config[i], config[j]) == PARALLEL
    ]
    return len(parallel) == 2 and not (parallel[0] & parallel[1])


def _iso_str(iso) -> str:
    m = iso.matrix
    v = iso.translation
    fmt = lambda x: f"{x:.6g}" if abs(x) > 5e-7 else "0"
    return (
        f"{iso.kind}: [[{fmt(m[0][0])}, {fmt(m[0][1])}], [{fmt(m[1][0])}, {fmt(m[1][1])}]] "
        f"+ ({fmt(v[0])}, {fmt(v[1])})"
    )


def _cmd_lines(args) -> dict:
    warnings = []
    if args.tol <= 0:
        raise InputError("tolerance must be positive")
    if args.config:
        config = _parse_config(args.config)
        g = generic_symmetry(config)
        iso = design_isometries(config)
        results = {
            "generic_order": g.order,
            "generic_group": [perm_to_cycles(p) for p in g.group],
            "fine_order": len(g.fine_group),
        }
        if iso == INFINITE:
            results["design"] = "infinite"
        else:
            results["design_order"] = len(iso)
            try:
                results["design_isometries"] = [_iso_str(i) for i in iso]
            except OverflowError:
                raise InputError("an isometry is too large to print in floating point") from None
        if _two_parallel_pairs(config):
            warnings.append(TWO_PAIR_NOTE)
        inputs = {"config": args.config, "tol": repr(args.tol)}
    else:
        if args.family != "paper":
            raise InputError("only the built-in 'paper' family is available")
        lo, hi = _fraction(args.start), _fraction(args.stop)
        steps = args.steps
        if steps < 1:
            raise InputError("--steps must be at least 1")
        if steps > MAX_STEPS:
            raise InputError(f"--steps must be at most MAX_STEPS = {MAX_STEPS}")
        grid = [lo + (hi - lo) * Fraction(i, max(steps - 1, 1)) for i in range(steps)]
        rep = sweep(pivot_family, grid)
        ts = [str(QQ.coerce(r.t)) for r in rep.rows]  # refused past MAX_POWER_DIGITS
        results = {
            "grid": ts,
            "rows": [
                {
                    "t": t,
                    "generic_order": r.generic_order,
                    "design_order": r.design_order
                    if r.design_order != INFINITE
                    else "infinite",
                }
                for t, r in zip(ts, rep.rows)
            ],
            "transitions_at": [ts[i] for i in rep.transitions],
        }
        inputs = {
            "family": args.family,
            "from": str(lo),
            "to": str(hi),
            "steps": str(steps),
            "tol": repr(args.tol),
        }
    return _report("lines", inputs, results, warnings=warnings)


def _text_lines(res: dict) -> list[str]:
    out = []
    if "rows" in res:
        for r in res["rows"]:
            out.append(
                f"t = {r['t']}: generic order {r['generic_order']}, "
                f"design order {r['design_order']}"
            )
        out.append(
            "transitions at: " + (", ".join(res["transitions_at"]) or "none")
        )
        return out
    out.append(f"generic symmetry order: {res['generic_order']}")
    out.append("  " + ", ".join(res["generic_group"]))
    out.append(f"fine (three-valued) stabilizer order: {res['fine_order']}")
    if res.get("design") == "infinite":
        out.append("design symmetry: infinite (all lines parallel)")
    else:
        out.append(f"design symmetry order: {res['design_order']}")
        for i in res["design_isometries"]:
            out.append(f"  {i}")
    return out


# -- conj --------------------------------------------------------------------


def _cmd_conj(args) -> dict:
    base, symbols = _field_and_symbols(args)
    field = _working_field(base, symbols)
    src_roots = _as_field_values(parse_ratfunc_list(args.source_roots, base, symbols), field, symbols)
    tgt_roots = _as_field_values(parse_ratfunc_list(args.target_roots, base, symbols), field, symbols)
    source = MonogenicAlgebra.from_roots(field, src_roots)
    target = MonogenicAlgebra.from_roots(field, tgt_roots)
    iso_coeffs = parse_ratfunc_list(args.iso, base, symbols)
    aut_coeffs = parse_ratfunc_list(args.aut, base, symbols)
    result_map = conjugate_through_iso(
        source,
        target,
        UniPoly(field, _as_field_values(iso_coeffs, field, symbols)),
        UniPoly(field, _as_field_values(aut_coeffs, field, symbols)),
    )
    results = {
        "source": f"k[X]/({source.modulus})",
        "target": f"k[X]/({target.modulus})",
        "conjugated_map": str(result_map),
        "endomorphism_identity": result_map.is_endomorphism(),
    }
    if args.limit is not None:
        if "t" not in symbols:
            raise InputError("--limit needs the symbol t")
        t0 = parse_ratfunc(args.limit, base, ()).as_constant()
        statuses = []
        for k in range(source.dim):
            lim = result_map.image.coeff(k).value.limit_at("t", t0)
            if isinstance(lim, Pole):
                statuses.append({"coeff": k, "pole_order": lim.order})
            else:
                statuses.append({"coeff": k, "limit": str(lim)})
        results["limit_at"] = {"t": str(t0), "coefficients": statuses}
    return _report(
        "conj",
        {
            "field": args.field,
            "symbols": ",".join(symbols),
            "source_roots": args.source_roots,
            "target_roots": args.target_roots,
            "iso": args.iso,
            "aut": args.aut,
        },
        results,
    )


def _text_conj(res: dict) -> list[str]:
    out = [
        f"source: {res['source']}",
        f"target: {res['target']}",
        f"conjugated automorphism: {res['conjugated_map']}",
        f"endomorphism identity verified: {res['endomorphism_identity']}",
    ]
    if "limit_at" in res:
        la = res["limit_at"]
        out.append(f"limit of the coefficients at t = {la['t']}:")
        for c in la["coefficients"]:
            if "pole_order" in c:
                out.append(f"  X^{c['coeff']}: pole (order {c['pole_order']})")
            else:
                out.append(f"  X^{c['coeff']}: {c['limit']}")
    return out


_TEXT_RENDERERS = {
    "aut": _text_aut,
    "idem": _text_idem,
    "family": _text_family,
    "survival": _text_survival,
    "chi": _text_chi,
    "talg": _text_talg,
    "lines": _text_lines,
    "conj": _text_conj,
}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


# the options that take no value; every other "--" option takes one
_FLAGS = frozenset({"--json", "--brute-force", "--help"})


def _join_dash_values(argv) -> list:
    """Rewrite "--opt VALUE" as "--opt=VALUE" when VALUE starts with a single
    "-", as in "--roots -2,t,1": argparse reads such a VALUE as another
    option, but takes whatever follows "=" as the value."""
    out = []
    for a in argv:
        prev = out[-1] if out else ""
        if (
            a.startswith("-") and not a.startswith("--")
            and prev.startswith("--") and "=" not in prev and prev not in _FLAGS
        ):
            out[-1] = f"{prev}={a}"
        else:
            out.append(a)
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later `run`: building it costs far more than a parse, and parsing
    leaves it unchanged."""
    parser = _ArgumentParser(prog="symlab", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, symbols=False):
        p.add_argument("--field", default="Q", help="Q, Fp(p), F(p,k), or Qzeta3")
        if symbols:
            p.add_argument("--symbols", default="", help="comma-separated symbol names")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("aut", help="automorphism structure of k[X]/(f)")
    p.add_argument("--poly", required=True, help='e.g. "factored:(X)(X-1)^2"')
    p.add_argument("--check-map", default="", help="comma-separated image coefficients")
    p.add_argument("--brute-force", action="store_true")
    common(p, symbols=True)

    p = sub.add_parser("idem", help="idempotent basis for distinct roots")
    p.add_argument("--roots", required=True, help='e.g. "0,t,1"')
    common(p, symbols=True)

    p = sub.add_parser("family", help="survival analysis of a root family in t")
    p.add_argument("--roots", required=True, help='e.g. "0,t,1"')
    p.add_argument("--at", default="", help="comma-separated parameter values")
    p.add_argument("--perm", default="", help="restrict to one permutation")
    common(p)

    p = sub.add_parser("survival", help="symbolic survival condition for (t*x1, t*x2, t*x3)")
    p.add_argument("--perm", required=True, help='e.g. "(12)" or "(123)"')
    p.add_argument("--witness", default="", help='e.g. "1,3,2"')
    common(p)

    p = sub.add_parser("chi", help="order-2/order-3 classification for X -> aX + bX^2")
    common(p)

    p = sub.add_parser("talg", help="triangular family member T(t)")
    p.add_argument("--t", required=True)
    p.add_argument("--pair", default="", help="b,b' to transport onto T(t)")
    p.add_argument("--brute-force", action="store_true")
    common(p)

    p = sub.add_parser("lines", help="four-line configuration symmetry")
    p.add_argument("--family", default="paper")
    p.add_argument("--from", dest="start", default="1/2")
    p.add_argument("--to", dest="stop", default="1")
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--config", default="", help='4 lines "a b c" separated by ";"')
    p.add_argument("--tol", type=float, default=1e-9, help="echoed; no effect (exact analysis)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("conj", help="conjugate an automorphism through an isomorphism")
    p.add_argument("--source-roots", required=True)
    p.add_argument("--target-roots", required=True)
    p.add_argument("--iso", required=True, help="image coefficients of X, ascending")
    p.add_argument("--aut", required=True, help="image coefficients of X, ascending")
    p.add_argument("--limit", default=None, help="parameter value for coefficient limits")
    common(p, symbols=True)

    return parser


_COMMANDS = {
    "aut": _cmd_aut,
    "idem": _cmd_idem,
    "family": _cmd_family,
    "survival": _cmd_survival,
    "chi": _cmd_chi,
    "talg": _cmd_talg,
    "lines": _cmd_lines,
    "conj": _cmd_conj,
}


def run(argv) -> tuple[int, str]:
    """Run one invocation; returns (exit code, output text)."""
    try:
        args = build_parser().parse_args(_join_dash_values(argv))
        report = _COMMANDS[args.subcommand](args)
    except InternalInconsistencyError as e:
        return 2, f"internal inconsistency: {e}\n"
    except (ValueError, ZeroDivisionError) as e:
        return 1, f"error: {e}\n"
    mode = "json" if getattr(args, "json", False) else "text"
    return 0, emit_report(report, mode)


def main(argv=None) -> int:
    code, text = run(sys.argv[1:] if argv is None else argv)
    out = sys.stdout if code == 0 else sys.stderr
    out.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

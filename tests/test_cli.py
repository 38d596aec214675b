import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from symlab import chi, cli, fields, linalg, parse, quotient
from symlab.cli import build_parser, emit_report, main, run
from symlab.fields import parse_field_spec
from symlab.linalg import Matrix
from symlab.parse import parse_ratfunc
from symlab.poly import FunctionField, UniPoly
from symlab.quotient import MonogenicAlgebra, idempotents, vandermonde_adjugate

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = [
    (
        "aut_split_modulus",
        ["aut", "--field", "Q", "--poly", "factored:(X)^2(X-1)",
         "--check-map", "0,a,1-a", "--symbols", "a"],
    ),
    (
        "aut_brute_force_f5",
        ["aut", "--field", "Fp(5)", "--poly", "factored:(X)(X-1)(X-2)", "--brute-force"],
    ),
    ("family_0_t_1", ["family", "--roots", "0,t,1", "--field", "Q", "--at", "0,1"]),
    ("family_0_t_t2", ["family", "--roots", "0,t,t^2", "--field", "Q", "--at", "0"]),
    ("family_scaled_132", ["family", "--roots", "t,3*t,2*t", "--field", "Q", "--at", "0"]),
    ("family_two_roots", ["family", "--roots", "t,2*t", "--field", "Q", "--at", "0"]),
    # t = zeta3 and t = 1 are collisions found from linear factors over Q(zeta3)
    ("family_qzeta3_collisions", ["family", "--field", "Qzeta3", "--roots", "0,t,1,zeta3"]),
    ("survival_swap", ["survival", "--perm", "(12)", "--witness", "1,3,2"]),
    (
        "survival_cycle_zeta3",
        ["survival", "--perm", "(132)", "--witness", "0,1,-zeta3", "--field", "Qzeta3"],
    ),
    (
        "conj_scaling_family",
        ["conj", "--field", "Q", "--symbols", "a,t", "--source-roots", "0,0,t",
         "--target-roots", "0,0,1", "--iso", "0,t", "--aut", "0,a,1-a", "--limit", "0"],
    ),
    ("talg_pairs_f5", ["talg", "--t", "1", "--field", "Fp(5)", "--pair", "5,2", "--brute-force"]),
    # structure elements and maps with coordinates in an extension field
    ("talg_brute_force_f4", ["talg", "--t", "1", "--field", "F(2,2)", "--brute-force"]),
    ("idem_qzeta3", ["idem", "--roots", "0,1,zeta3", "--field", "Qzeta3"]),
    ("chi_f4", ["chi", "--field", "F(2,2)"]),
    ("chi_f3", ["chi", "--field", "Fp(3)"]),
    ("idem_family", ["idem", "--roots", "0,t,1", "--field", "Q", "--symbols", "t"]),
    ("lines_sweep", ["lines", "--family", "paper", "--from", "1/2", "--to", "1", "--steps", "4"]),
    ("lines_rectangle", ["lines", "--config", "1 0 2; 0 1 0; 1 0 0; 0 1 4"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(name, argv):
    code, text = run(argv)
    assert code == 0
    expected = (GOLDEN_DIR / f"{name}.txt").read_text()
    assert text == expected


def run_subprocess(argv, timeout):
    """`python -m symlab.cli argv` as a fresh process under a time bound."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "symlab.cli", *argv],
        capture_output=True, env=env, timeout=timeout, check=False,
    )


def test_five_root_family_golden_in_subprocess():
    # the full S5 survival table of a 5-root family; the golden is the JSON
    # report, byte for byte
    proc = run_subprocess(["family", "--roots", "0,t,1,2*t,3", "--at", "0", "--json"], 10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN_DIR / "family_five_roots.json").read_bytes()


def test_huge_integer_root_in_subprocess():
    # the collision t = 123456789012345678901 comes from a linear factor,
    # so no divisor of the 21-digit integer is searched for
    proc = run_subprocess(["family", "--roots", "0,t,123456789012345678901", "--at", "0"], 10)
    assert proc.returncode == 0, proc.stderr
    assert b"critical values: 0, 123456789012345678901\n" in proc.stdout


@pytest.mark.parametrize(
    "constant,critical",
    [
        # t^2 - c has no rational root; no divisor of c is searched for
        ("123456789012345678901", "0"),
        ("15241578753238836750437433565526596567801",
         "0, 123456789012345678901, -123456789012345678901"),
    ],
)
def test_huge_constant_quadratic_collision_in_subprocess(constant, critical):
    # the roots of the factor t^2 - c come from its discriminant
    proc = run_subprocess(["family", "--roots", f"0,t^2,{constant}", "--at", "0"], 10)
    assert proc.returncode == 0, proc.stderr
    assert f"critical values: {critical}\n".encode() in proc.stdout


def test_divisor_search_stops_at_its_bound_in_subprocess():
    # t^3 - 123456789012345678901 is a critical factor of degree 3 whose
    # constant has about 10^10 trial divisors below its square root
    argv = ["family", "--roots", "0,t^3,123456789012345678901", "--at", "0"]
    proc = run_subprocess(argv, 10)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: the rational root search")
    assert b"DIVISOR_SEARCH_BOUND = 1000000 steps" in proc.stderr


def test_brute_force_stops_at_its_budget_in_subprocess():
    # the budget counts all 101^3 images of X, as many as a cubic without a
    # root in F_101 would have checked in full; the count is checked before
    # the first image is tried
    argv = ["aut", "--field", "Fp(101)", "--poly", "factored:(X)^3", "--brute-force"]
    proc = run_subprocess(argv, 10)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: enumeration budget exceeded: 1030301 ")
    assert b"ENUMERATION_BUDGET = 50000" in proc.stderr


def test_largest_admitted_brute_force_in_subprocess():
    # 223^2 = 49,729 candidate images, just under the budget; only the 223
    # with g(0) = 0 move the root 0 onto a root, and only they are enumerated
    argv = ["aut", "--field", "Fp(223)", "--poly", "factored:(X)^2", "--brute-force", "--json"]
    proc = run_subprocess(argv, 10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["brute_force"]["count"] == 222


def test_largest_admitted_talg_brute_force_in_subprocess():
    # T(0) keeps the 13^2 columns (0, a, b) with square 0 for each of e2
    # and e3: 28,561 combinations, just under the budget; |GL2(F_13)| of
    # them are automorphisms
    assert 13**4 == 28561 <= fields.ENUMERATION_BUDGET
    argv = ["talg", "--t", "0", "--field", "Fp(13)", "--brute-force", "--json"]
    proc = run_subprocess(argv, 10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["brute_force"]["count"] == 26208 == (13**2 - 1) * (13**2 - 13)


def test_brute_force_budget_weighs_the_degree_in_subprocess():
    # both elements of F_2 are roots, so all 2^14 images are checked in
    # full, each weighing 14^2 // 16 = 12: 196,608 past the budget
    argv = ["aut", "--field", "Fp(2)", "--poly", "factored:(X)^7(X-1)^7", "--brute-force"]
    proc = run_subprocess(argv, 10)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: enumeration budget exceeded: 16384 candidate images of weight 12,")
    assert b"ENUMERATION_BUDGET = 50000" in proc.stderr


def test_largest_admitted_degree_in_subprocess():
    # 2^12 images weighing 12^2 // 16 = 9 each, 36,864 within the budget;
    # the group is S2 times two jet groups of order (2 - 1) * 2^4
    argv = ["aut", "--field", "Fp(2)", "--poly", "factored:(X)^6(X-1)^6", "--brute-force", "--json"]
    proc = run_subprocess(argv, 10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["brute_force"]["count"] == 2 * 16**2


@pytest.mark.parametrize("p,code", [(1000000009, 0), (1000000007, 1)])
def test_zeta3_over_a_large_prime_field_in_subprocess(p, code):
    # the cube root of unity comes from an exponentiation, not a scan of
    # the field; 3 divides p - 1 only for the first prime
    argv = ["family", "--field", f"Fp({p})", "--roots", "0,t,zeta3", "--at", "0"]
    proc = run_subprocess(argv, 10)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr == f"error: F{p} has no primitive cube root of unity (at position 0)\n".encode()
    else:
        assert b"critical values: 0, 115381398\n" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [["family", "--roots", "0,t^100000000,1"], ["aut", "--poly", "factored:(X)^100000"]],
    ids=["family", "aut"],
)
def test_degree_past_the_bound_in_subprocess(argv):
    # the degree is refused before the power is formed
    proc = run_subprocess(argv, 10)
    assert proc.returncode == 1
    assert f"MAX_DEGREE = {parse.MAX_DEGREE}".encode() in proc.stderr


@pytest.mark.parametrize("constant", ["9^100000000", "2^100000"])
def test_constant_power_past_the_bound_in_subprocess(constant):
    # the size of a constant power is estimated before the power is formed
    proc = run_subprocess(["family", "--roots", f"0,t,{constant}"], 10)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert f"MAX_POWER_DIGITS = {parse.MAX_POWER_DIGITS}".encode() in proc.stderr


NINES = "9" * 4400  # past the 4300 digits Python converts by default
# two values of 2,500-digit denominators in [1/2, 1]: the sweep's grid
# points have denominators of about 5,000 digits
WIDE_FROM, WIDE_TO = "7" * 2500 + "/" + "9" * 2500, "8" * 2500 + "/" + "9" * 2499 + "1"


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "--roots", "0,t,2^13000"],
        ["family", "--roots", "0,t,2^13000", "--json"],
        ["idem", "--roots", "0,2^13000,1"],
        ["lines", "--to", NINES],
        ["lines", "--config", f"{NINES} 1 0; 0 1 0; 1 0 0; 1 1 4"],
        ["lines", "--from", WIDE_FROM, "--to", WIDE_TO, "--steps", "3"],
    ],
    ids=["family", "family_json", "idem", "lines_to", "lines_config", "lines_sweep"],
)
def test_digits_past_the_bound_in_subprocess(argv):
    # an admitted power whose products outgrow the bound, a literal past it,
    # and sweep points past it, each refused before Python's own limit
    proc = run_subprocess(argv, 10)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert f"MAX_POWER_DIGITS = {fields.MAX_POWER_DIGITS}".encode() in proc.stderr


def test_determinant_past_the_bound_in_subprocess():
    # checking X -> X on k[X]/(X^16) needs a 16 x 16 determinant
    proc = run_subprocess(["aut", "--poly", "factored:(X)^16", "--check-map", "0,1"], 10)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert f"MAX_DIMENSION = {linalg.MAX_DIMENSION}".encode() in proc.stderr


def test_triangular_function_field_determinant_in_subprocess():
    # the map's matrix on k[X]/(X^14) is lower triangular, so the
    # shared-minor table over Q(a,t) keeps few nonzero minors
    image = "0,1+t" + ",a+t" * 12
    argv = ["aut", "--field", "Q", "--poly", "factored:(X)^14", "--check-map", image, "--symbols", "a,t"]
    proc = run_subprocess(argv, 10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(b": endomorphism=True, automorphism=True\n")


@pytest.mark.parametrize("field,q", [("F(7,2)", 49), ("Fp(53)", 53)])
def test_chi_checks_involution_pairs_up_to_the_bound(field, q):
    code, text = run(["chi", "--field", field, "--json"])
    assert code == 0
    results = json.loads(text)["results"]
    assert results["group_order"] == q * (q - 1)
    if q <= chi.NO_S3_BOUND:
        # 49 involutions chi(-1, b), so 49 * 48 ordered pairs
        assert results["no_s3"] == {"ok": True, "pairs_checked": 49 * 48}
    else:
        assert "no_s3" not in results


def test_chi_over_a_large_prime_field_in_subprocess():
    # past LISTING_BOUND the element lists are omitted, not enumerated
    proc = run_subprocess(["chi", "--field", "Fp(1000000009)"], 10)
    assert proc.returncode == 0, proc.stderr
    assert b"group order: 1000000017000000072\n" in proc.stdout
    assert b"elements (" not in proc.stdout
    assert f"LISTING_BOUND = {chi.LISTING_BOUND}".encode() in proc.stdout


@pytest.mark.parametrize(
    "roots",
    ["0,a,t,1", "0,a,t,1,a+t", "1/(a-t),a,t,0", "1/(a-t),a,t,0,(a+2)/(t+3)"],
    ids=["four", "five", "fractional", "five_fractional"],
)
def test_two_symbol_idempotents_verified_in_subprocess(roots):
    # the idempotents are checked by their values at the roots over
    # Q[a,t], not by products in the algebra over Q(a,t)
    proc = run_subprocess(["idem", "--roots", roots, "--symbols", "a,t"], 10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(b"X*e_i = z_i*e_i: verified\n")


def test_nine_dense_roots_verified_in_subprocess():
    # nine roots t/(t+i) weigh 5,913: the slowest admitted run measured
    roots = ",".join(f"t/(t+{i})" for i in range(1, 10))
    proc = run_subprocess(["idem", "--roots", roots, "--symbols", "t"], 5)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(b"X*e_i = z_i*e_i: verified\n")


@pytest.mark.parametrize(
    "roots, symbols, bound",
    [
        (",".join(map(str, range(60))), "t", f"MAX_DIMENSION = {linalg.MAX_DIMENSION}"),
        (
            "1/(t+1),t/(a+1),1/(a-t),(a+2)/(t+3),1/(a+2*t),a/(t-2),(t+1)/(a+3)",
            "a,t",
            f"IDEMPOTENT_BUDGET = {quotient.IDEMPOTENT_BUDGET}",
        ),
    ],
    ids=["sixty_integers", "seven_fractional"],
)
def test_idem_past_its_bound_exits_1_in_subprocess(roots, symbols, bound):
    proc = run_subprocess(["idem", "--roots", roots, "--symbols", symbols], 10)
    assert proc.returncode == 1 and proc.stdout == b""
    assert proc.stderr.startswith(b"error: ") and bound.encode() in proc.stderr


def test_nesting_beyond_the_bound_exits_1_in_subprocess():
    nested = "(" * 3000 + "1" + ")" * 3000
    proc = run_subprocess(["family", "--roots", f"0,t,{nested}"], 10)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: parentheses nested deeper than MAX_NESTING = 100")


def test_steps_beyond_the_bound_exit_1_in_subprocess():
    argv = ["lines", "--family", "paper", "--from", "1/2", "--to", "1", "--steps", "100000000"]
    proc = run_subprocess(argv, 10)
    assert proc.returncode == 1
    assert proc.stderr == b"error: --steps must be at most MAX_STEPS = 1000\n"


def test_steps_at_the_bound():
    code, text = run(["lines", "--family", "paper", "--from", "1/2", "--to", "1",
                      "--steps", str(cli.MAX_STEPS), "--json"])
    assert code == 0, text
    assert len(json.loads(text)["results"]["grid"]) == cli.MAX_STEPS


def test_extension_generator_is_accepted_as_input():
    code, text = run(["talg", "--t", "Y", "--field", "F(3,2)", "--brute-force"])
    assert code == 0, text
    assert "  t: Y\n" in text


RECTANGLE = "1 0 2; 0 1 0; 1 0 0; 0 1 4"


def test_lines_tol_is_echoed_and_decides_nothing():
    for tol in ("nan", "inf", "1e-300", "1000"):
        code, text = run(["lines", "--config", RECTANGLE, "--tol", tol])
        assert code == 0, text
        assert f"  tol: {float(tol)!r}\n" in text
        assert "design symmetry order: 4\n" in text
    for tol in ("0", "-1", "-inf"):
        code, text = run(["lines", "--config", RECTANGLE, "--tol", tol])
        assert (code, text) == (1, "error: tolerance must be positive\n")


def test_nearly_parallel_line_is_not_parallel():
    # three lines x = 0, 2, 3 and one tilted by 10^-10: only the identity
    config = "1 0 0; 1 1/10000000000 1; 1 0 2; 1 0 3"
    code, text = run(["lines", "--config", config])
    assert code == 0, text
    assert "design symmetry order: 1\n  rotation: [[1, 0], [0, 1]] + (0, 0)\n" in text
    code, text = run(["lines", "--config", config, "--json"])
    results = json.loads(text)["results"]
    assert "design" not in results
    assert results["design_order"] == 1
    assert results["design_isometries"] == ["rotation: [[1, 0], [0, 1]] + (0, 0)"]


def test_lines_listing_order():
    # four lines through (1, 2) at 45 degree steps: rotations by angle mod
    # pi, each before its half-turn composite, then reflections by axis angle
    code, text = run(["lines", "--config", "1 0 1; 0 1 2; 1 1 3; 1 -1 -1"])
    assert code == 0, text
    assert text.endswith(
        "design symmetry order: 16\n"
        "  rotation: [[1, 0], [0, 1]] + (0, 0)\n"
        "  rotation: [[-1, 0], [0, -1]] + (2, 4)\n"
        "  rotation: [[0.707107, -0.707107], [0.707107, 0.707107]] + (1.70711, -0.12132)\n"
        "  rotation: [[-0.707107, 0.707107], [-0.707107, -0.707107]] + (0.292893, 4.12132)\n"
        "  rotation: [[0, -1], [1, 0]] + (3, 1)\n"
        "  rotation: [[0, 1], [-1, 0]] + (-1, 3)\n"
        "  rotation: [[-0.707107, -0.707107], [0.707107, -0.707107]] + (3.12132, 2.70711)\n"
        "  rotation: [[0.707107, 0.707107], [-0.707107, 0.707107]] + (-1.12132, 1.29289)\n"
        "  reflection: [[1, 0], [0, -1]] + (0, 4)\n"
        "  reflection: [[0.707107, 0.707107], [0.707107, -0.707107]] + (-1.12132, 2.70711)\n"
        "  reflection: [[0, 1], [1, 0]] + (-1, 1)\n"
        "  reflection: [[-0.707107, 0.707107], [0.707107, 0.707107]] + (0.292893, -0.12132)\n"
        "  reflection: [[-1, 0], [0, 1]] + (2, 0)\n"
        "  reflection: [[-0.707107, -0.707107], [-0.707107, 0.707107]] + (3.12132, 1.29289)\n"
        "  reflection: [[0, -1], [-1, 0]] + (3, 3)\n"
        "  reflection: [[0.707107, -0.707107], [-0.707107, -0.707107]] + (1.70711, 4.12132)\n"
    )


def test_large_prime_modulus_in_subprocess():
    proc = run_subprocess(["aut", "--field", "Fp(1000000000000000003)", "--poly",
                           "factored:(X)(X-1)"], 2)
    assert proc.returncode == 0, proc.stderr
    proc = run_subprocess(["aut", "--field", "Fp(1000000000000000001)", "--poly",
                           "factored:(X)(X-1)"], 2)
    assert proc.returncode == 1
    assert b"is not prime" in proc.stderr


def test_primality_past_the_bound_exits_1():
    # the least composite passing Miller-Rabin to the bases 2..37 is refused
    code, text = run(["aut", "--field", "Fp(318665857834031151167461)", "--poly", "factored:(X)"])
    assert (code, text) == (1, "error: 318665857834031151167461 is not prime\n")
    code, text = run(["aut", "--field", f"Fp({fields.PRIMALITY_BOUND})", "--poly", "factored:(X)"])
    assert code == 1
    assert text == f"error: p must be below PRIMALITY_BOUND = {fields.PRIMALITY_BOUND}\n"


def test_quadratic_critical_factor_over_qzeta3():
    # t^2 + t + 1 vanishes at zeta3 and zeta3^2 = -zeta3 - 1
    code, text = run(["family", "--field", "Qzeta3", "--roots", "0,t^2+t+1"])
    assert code == 0, text
    assert "critical values: -zeta3 - 1, zeta3\n" in text
    # t^2 + 3 from -D/3 = 4, with sqrt(-3) = 1 + 2*zeta3
    code, text = run(["family", "--field", "Qzeta3", "--roots", "0,t^2+3"])
    assert "critical values: -2*zeta3 - 1, 2*zeta3 + 1\n" in text
    code, text = run(["family", "--field", "Qzeta3", "--roots", "0,t^2-2"])
    assert "critical values: none found\n" in text


def test_cubic_critical_factor_below_the_bound():
    # t^3 - (2t + 1) = (t + 1)(t^2 - t - 1) has the one rational root -1,
    # found by the rational root theorem
    code, text = run(["family", "--roots", "0,t^3,2*t+1"])
    assert code == 0, text
    assert "critical values: 0, -1, -1/2\n" in text


def test_aut_order_profile_past_64():
    # Aut(F_67[X]/(X^2)) is cyclic of order 66; orders above the default
    # search bound of 64 are found by bounding each by the group's size
    code, text = run(["aut", "--field", "Fp(67)", "--poly", "factored:(X)^2",
                      "--brute-force", "--json"])
    assert code == 0, text
    bf = json.loads(text)["results"]["brute_force"]
    assert bf["count"] == 66
    assert bf["order_profile"] == {
        "1": 1, "2": 1, "3": 2, "6": 2, "11": 10, "22": 10, "33": 20, "66": 20,
    }


def test_shared_parser_matches_fresh_parser(monkeypatch):
    # run() builds its parser once per process; a sequence of requests,
    # argparse errors included, must give what a fresh parser gives each time
    sequence = [
        ["family", "--roots", "0,t,1", "--json"],
        ["family"],
        ["lines"],
        ["idem", "--roots", "-2,t,1", "--symbols", "t"],
        ["nosuch"],
        ["chi", "--field", "Fp(5)", "--json"],
        ["lines", "--steps", "two"],
        ["lines", "--json"],
        ["family", "--roots", "-2,t,1", "--at", "0"],
        ["family", "--roots", "0,t,1", "--json"],
    ]
    shared = [run(argv) for argv in sequence]
    assert build_parser() is build_parser()
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    fresh = [run(argv) for argv in sequence]
    assert shared == fresh
    assert [code for code, _ in shared] == [0, 1, 0, 0, 1, 0, 1, 0, 0, 0]


@pytest.mark.parametrize(
    "option,argv",
    [
        ("--roots", ["idem", "--roots", "-2,t,1", "--symbols", "t"]),
        ("--roots", ["family", "--roots", "-1,t,1"]),
        ("--at", ["family", "--roots", "0,t,1", "--at", "-1,1"]),
    ],
)
def test_option_value_with_leading_minus(option, argv):
    # "--opt -2,t,1" reads like "--opt=-2,t,1", not like a second option
    i = argv.index(option)
    joined = argv[:i] + [f"{option}={argv[i + 1]}"] + argv[i + 2:]
    code, text = run(argv)
    assert code == 0, text
    assert (code, text) == run(joined)
    assert f"{option[2:]}: {argv[i + 1]}\n" in text


def test_output_is_deterministic():
    argv = GOLDEN[2][1]
    assert run(argv) == run(argv)


class TestJson:
    @pytest.mark.parametrize("name,argv", GOLDEN, ids=[g[0] for g in GOLDEN])
    def test_round_trip(self, name, argv):
        code, text = run(argv + ["--json"])
        assert code == 0
        report = json.loads(text)
        assert report["schema"] == "symlab/1"
        assert report["subcommand"] == argv[0]
        assert emit_report(report, "json") == text

    def test_no_warnings_key_when_empty(self):
        code, text = run(["chi", "--field", "Fp(5)", "--json"])
        assert code == 0
        assert "warnings" not in json.loads(text)

    def test_warnings_key_present_for_char3(self):
        code, text = run(["chi", "--field", "Fp(3)", "--json"])
        assert code == 0
        report = json.loads(text)
        assert any("unreachable" in w for w in report["warnings"])

    def test_two_parallel_pairs_note(self):
        code, text = run(["lines", "--config", "1 0 2; 0 1 0; 1 0 0; 0 1 4", "--json"])
        report = json.loads(text)
        assert any("order 8" in w for w in report["warnings"])


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["family", "--roots", "t,t", "--at", "0"],  # indistinct roots
            ["family", "--roots", "0,t,1", "--field", "R"],  # unknown field
            ["aut", "--field", "Q", "--poly", "X^3"],  # not factored form
            ["idem", "--roots", "0,1,oops"],  # parse error
            ["survival", "--perm", "(14)"],  # out-of-range cycle
            ["talg", "--t", "0", "--field", "Fp(5)", "--pair", "1,2"],  # t = 0
            ["talg", "--t", "1", "--field", "Fp(5)", "--pair", "1,2,3"],  # bad pair
            ["aut", "--field", "Q", "--poly", "factored:(X)", "--brute-force"],
            ["lines", "--config", "0 0 1; 0 1 0; 1 0 0; 0 1 4"],  # degenerate line
            ["nonsense"],  # unknown subcommand
            ["lines", "--config", "1 0 1e400; 0 1 0; 1 0 0; 0 1 4"],  # past float range
        ],
    )
    def test_input_errors_exit_1(self, argv, capsys):
        assert main(argv) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["idem", "--roots", "0,t,1", "--symbols", "t,t"],
            ["aut", "--field", "Q", "--poly", "factored:(X)(X-a)", "--symbols", "a, b,a"],
            ["conj", "--field", "Q", "--symbols", "a,t,t", "--source-roots", "0,0,t",
             "--target-roots", "0,0,1", "--iso", "0,t", "--aut", "0,a,1-a"],
        ],
    )
    def test_repeated_symbols_exit_1(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "repeated" in err
        repeated = argv[argv.index("--symbols") + 1].split(",")[-1].strip()
        assert f"'{repeated}'" in err

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["idem", "--roots", "0,zeta3,Y", "--field", "F(2,2)", "--symbols", "Y"], "Y"),
            (["idem", "--roots", "0,zeta3,t", "--field", "Qzeta3", "--symbols", "zeta3,t"], "zeta3"),
            (["aut", "--field", "F(3,2)", "--poly", "factored:(X)(X-a)", "--symbols", "a,Y"], "Y"),
        ],
    )
    def test_symbol_named_like_the_generator_exit_1(self, argv, name, capsys):
        # it would print exactly as the generator: (Y + Y)*X^2 over F(2,2),
        # an unreduced zeta3^3*t^2 over Q(zeta3)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and f"symbol '{name}'" in captured.err
        assert "generator" in captured.err

    def test_generator_name_is_a_symbol_over_other_fields(self, capsys):
        # Y names no generator over Q or F_5, and zeta3 none over F(2,2)
        for argv in (
            ["idem", "--roots", "0,Y,1", "--symbols", "Y"],
            ["idem", "--roots", "0,Y,1", "--field", "Fp(5)", "--symbols", "Y"],
            ["idem", "--roots", "0,zeta3,t", "--field", "F(2,2)", "--symbols", "zeta3,t"],
        ):
            assert main(argv) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("perm", [[], ["--perm", "(13)"]], ids=["all", "one_perm"])
    def test_root_pole_at_critical_value_exit_1(self, perm, capsys):
        # 1/(t+1) has a pole at the critical value t = -1; the verdict must
        # not depend on whether one permutation or all of them are analyzed
        assert main(["family", "--roots", "1/(t+1),0,t+1", *perm]) == 1
        assert capsys.readouterr().err == "error: root has a pole at t = -1\n"

    def test_success_exit_0(self, capsys):
        assert main(["chi", "--field", "Fp(5)"]) == 0
        assert "order 2" in capsys.readouterr().out

    def test_internal_inconsistency_exit_2(self, monkeypatch, capsys):
        from symlab import cli
        from symlab.families import InternalInconsistencyError

        def boom(args):
            raise InternalInconsistencyError("verification failed")

        monkeypatch.setitem(cli._COMMANDS, "chi", boom)
        assert main(["chi", "--field", "Fp(5)"]) == 2
        assert "internal inconsistency" in capsys.readouterr().err


def test_factored_polynomial_parsing():
    from fractions import Fraction

    from symlab.cli import InputError, _parse_factored
    from symlab.fields import QQ

    cases = [
        ("factored:(X)(X-1)(X-2)", [(0, 1), (1, 1), (2, 1)]),
        ("factored:(X-1-1)", [(2, 1)]),  # root is the whole tail, negated
        ("factored:(X-1+2)", [(-1, 1)]),
        ("factored:(X+3)^2", [(-3, 2)]),
        ("factored:(X - 1/2)", [(Fraction(1, 2), 1)]),
    ]
    for text, expected in cases:
        got = [(r.as_constant().value, m) for r, m in _parse_factored(text, QQ, ())]
        assert got == [(Fraction(v), m) for v, m in expected]
    for bad in ("X^3", "factored:", "factored:(Y-1)", "factored:(X-1", "factored:(X-1)^"):
        with pytest.raises((InputError, ValueError)):
            _parse_factored(bad, QQ, ())


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for sub in ("aut", "idem", "family", "survival", "chi", "talg", "lines", "conj"):
        assert sub in text


# Roots pairwise distinct over Q and over F_7, in one and in two symbols.
IDEM_ROOTS = {
    ("t",): ["0", "1", "-2", "1/2", "t", "2*t", "t^2", "t+1", "1/(t+1)", "t/(t+2)",
             "(t-1)/(t^2+3)", "2/t"],
    ("a", "t"): ["0", "1", "-2", "t", "a", "2*t", "a*t", "a+t", "1/(t+1)", "t/(a+1)",
                 "1/(a-t)", "(a+2)/(t+3)"],
}


def _idem_cases(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        symbols = rng.choice(list(IDEM_ROOTS))
        spec = rng.choice(["Q", "Fp(7)"])
        n = rng.choice([2, 3] if len(symbols) == 2 else [2, 3, 4])
        yield spec, symbols, rng.sample(IDEM_ROOTS[symbols], n)


def _product_idempotent_strings(algebra, zs):
    """The idempotents as products of the linear factors X - z_j, each
    divided by prod_{j != i} (z_i - z_j): the construction that the shared
    Lagrange numerator replaced."""
    field = algebra.field
    out = []
    for i, zi in enumerate(zs):
        num, den = UniPoly.constant(field, 1), field.one
        for j, zj in enumerate(zs):
            if j != i:
                num = num * UniPoly(field, [-zj, field.one])
                den = den * (zi - zj)
        out.append(str(algebra.from_poly(num * den.inverse())))
    return out


def test_idem_adjugate_determinant_against_laplace():
    # idem prints det = prod_{j<l} (z_l - z_j) from the Vandermonde
    # adjugate; the oracle expands the Vandermonde matrix by cofactors.  A
    # function field in one symbol reduces every fraction, and polynomial
    # roots give polynomial determinants, so there the printed strings
    # agree too; two symbols with fractional roots leave fractions
    # unreduced, and only the values must agree.  The CLI runs every case,
    # up to four roots and in two symbols, and must print the same
    # idempotents, verified.
    printed = 0
    for spec, symbols, roots in _idem_cases(60, seed=7):
        base = parse_field_spec(spec)
        field = FunctionField(base, symbols)
        rfs = [parse_ratfunc(r, base, symbols) for r in roots]
        zs = [field.coerce(r) for r in rfs]
        _, det = vandermonde_adjugate(zs, field.one)
        laplace = Matrix(field, [[z**k for k in range(len(zs))] for z in zs]).det()
        assert det == laplace, (spec, roots)
        algebra = MonogenicAlgebra.from_roots(field, zs)
        es = [str(e) for e in idempotents(algebra.field, zs)]
        assert es == _product_idempotent_strings(algebra, zs), (spec, roots)
        polynomial = all(list(r.den.terms) == [(0,) * len(symbols)] for r in rfs)
        canonical = len(symbols) == 1 or polynomial
        argv = ["idem", "--field", spec, "--symbols", ",".join(symbols),
                f"--roots={','.join(roots)}", "--json"]
        code, text = run(argv)
        assert code == 0, text
        res = json.loads(text)["results"]
        assert res["idempotents"] == es and res["verified"] is True, argv
        if canonical:
            assert str(det) == str(laplace), (spec, roots)
            assert res["vandermonde_det"] == str(laplace), argv
            printed += 1
        else:
            assert res["vandermonde_det"] == str(det), argv
    assert printed >= 30

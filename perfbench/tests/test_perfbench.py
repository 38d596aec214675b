"""Tests of the benchmark's own code: generator, checkers, statistics.

    python3 -m pytest perfbench/tests -q
"""

import bisect
import copy
import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import refspeed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent


@pytest.fixture(scope="module")
def pool():
    return json.loads((HERE / "refs" / "pool.json").read_text())["requests"]


# -- generator -----------------------------------------------------------------


def test_pool_matches_generator(pool):
    fresh = workloads.build_pool()
    assert [(r["id"], r["argv"], r["check"]) for r in pool] == [
        (r["id"], r["argv"], r["check"]) for r in fresh]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(pool, workload):
    a = workloads.sample(pool, workload, 7)
    assert a == workloads.sample(pool, workload, 7)
    assert [r["id"] for r in a] != [r["id"] for r in workloads.sample(pool, workload, 8)]
    assert len(a) == sum(workloads.MIX[workload].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_mix_is_fixed_per_category(pool, workload):
    for seed in range(5):
        cats = [r["cat"] for r in workloads.sample(pool, workload, seed)]
        assert {c: cats.count(c) for c in set(cats)} == {
            c: n for c, n in workloads.MIX[workload].items()}


def test_one_request_per_cost_stratum(pool):
    reqs = workloads.sample(pool, "family_limits", 3)
    members = sorted((r for r in pool if r["cat"] == "fam3_q_at"),
                     key=lambda r: (r["ms"], r["id"]))
    k = workloads.MIX["family_limits"]["fam3_q_at"]
    bounds = [len(members) * j // k for j in range(k + 1)]
    rank = {r["id"]: i for i, r in enumerate(members)}
    strata = sorted(bisect.bisect_right(bounds, rank[r["id"]]) - 1
                    for r in reqs if r["cat"] == "fam3_q_at")
    assert strata == list(range(k))


def test_unknown_workload(pool):
    with pytest.raises(ValueError):
        workloads.sample(pool, "nope", 1)


def test_families_distinct_with_planted_collision(pool):
    fams = [r for r in pool if r["check"]["kind"] == "family"]
    assert len(fams) > 100
    for r in fams:
        roots, p = r["check"]["roots"], r["check"]["p"]
        keys = [tuple(workloads._trim([c % p for c in x] if p else x)) for x in roots]
        assert len(set(keys)) == len(keys)
        crit = workloads.collision_values(roots, p)
        assert Fraction(r["check"]["collision"]) in crit
        at = [a for a in r["argv"] if a.startswith("--at=")]
        assert not at or at[0] == f"--at={r['check']['collision']}"


def test_readme_rows_match_cli_tests():
    text = (ROOT / "tests" / "test_cli.py").read_text()
    for name, argv in workloads.README:
        assert (ROOT / "tests" / "golden" / f"{name}.txt").exists()
        assert f'"{name}"' in text


def test_poly_and_perm_formatting():
    assert workloads.poly_str([3, -2]) == "-2*t+3"
    assert workloads.poly_str([0, 1]) == "t"
    assert workloads.poly_str([-1, 0, 1]) == "t^2-1"
    assert workloads.poly_str([0]) == "0"
    assert workloads.perm_str((1, 2, 0, 3)) == "(123)"
    assert workloads.perm_str((1, 0, 3, 2)) == "(12)(34)"
    assert workloads.perm_str((0, 1)) == "id"
    for perm in [(1, 2, 0, 3), (1, 0, 3, 2), (0, 1, 2), (4, 3, 2, 1, 0)]:
        assert checks.parse_perm(workloads.perm_str(perm), len(perm)) == perm


# -- checkers ------------------------------------------------------------------


def _output(req):
    sys.path.insert(0, str(ROOT / "src"))
    from symlab.cli import run

    return run(req["argv"])


def _first(pool, pred):
    return next(r for r in pool if pred(r))


def test_family_checker_rejects_extra_survivor(pool):
    req = _first(pool, lambda r: r["cat"] == "fam3_q_at")
    code, out = _output(req)
    assert checks.check_output(req, code, out, ROOT / "tests" / "golden") == []
    doc = json.loads(out)
    entry = doc["results"]["at"][0]
    dead = next(s for s in entry["statuses"] if s["status"] == "pole")
    dead.update(status="survives", map="X -> X")
    entry["surviving_subgroup"].append(dead["perm"])
    entry["surviving_order"] += 1
    assert checks.invariant_problems(req, json.dumps(doc))


def test_family_checker_rejects_wrong_coefficient(pool):
    req = _first(pool, lambda r: r["cat"] == "fam3_fp")
    code, out = _output(req)
    assert checks.invariant_problems(req, out) == []
    doc = json.loads(out)
    gm = next(m for m in doc["results"]["generic_maps"] if m["perm"] != "id")
    gm["coefficients"][0] = f"({gm['coefficients'][0]}) + 1"
    assert any("fails" in p for p in checks.invariant_problems(req, json.dumps(doc)))


def test_aut_checker_rejects_wrong_count(pool):
    req = _first(pool, lambda r: r["cat"] == "aut3_f5")
    code, out = _output(req)
    assert checks.invariant_problems(req, out) == []
    doc = json.loads(out)
    doc["results"]["brute_force"]["count"] += 1
    assert checks.invariant_problems(req, json.dumps(doc))


def test_aut_count_formula():
    # the four counts checked by hand at the recording commit
    assert checks.aut_count(5, [2, 2]) == 32
    assert checks.aut_count(7, [1, 3]) == 42
    assert checks.aut_count(5, [1, 1, 2]) == 8
    assert checks.aut_count(5, [1, 1, 1, 1]) == 24


def test_chi_checker_rejects_wrong_order(pool):
    req = _first(pool, lambda r: r["cat"] == "chi")
    code, out = _output(req)
    assert checks.invariant_problems(req, out) == []
    doc = json.loads(out)
    doc["results"]["group_order"] += 1
    assert checks.invariant_problems(req, json.dumps(doc))


def test_corrupted_reference_fails(pool):
    req = copy.deepcopy(_first(pool, lambda r: r["cat"] == "lines_config"))
    code, out = _output(req)
    assert checks.check_output(req, code, out, ROOT / "tests" / "golden") == []
    req["sha256"] = "0" * 64
    assert checks.check_output(req, code, out, ROOT / "tests" / "golden")


def test_malformed_needs_error_line(pool):
    req = _first(pool, lambda r: r["cat"] == "malformed")
    assert checks.check_output(req, 1, "Traceback\n", ROOT / "tests" / "golden")
    assert checks.check_output(req, 2, "error: x\n", ROOT / "tests" / "golden")


def test_subgroup_check():
    assert checks.is_subgroup({(0, 1, 2), (1, 0, 2)}, 3)
    assert not checks.is_subgroup({(0, 1, 2), (1, 2, 0)}, 3)
    assert not checks.is_subgroup({(1, 0, 2)}, 3)


# -- statistics ----------------------------------------------------------------


def test_percentile_matches_statistics_inclusive():
    xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.9, 7.0, 0.2]
    qs = statistics.quantiles(xs, n=10, method="inclusive")
    assert stats.percentile(xs, 50) == pytest.approx(qs[4])
    assert stats.percentile(xs, 90) == pytest.approx(qs[8])
    assert stats.percentile([5.0], 90) == 5.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_sample_count_rule():
    assert stats.beyond(100, 90) == 10
    assert stats.beyond(91, 90) == 9
    assert stats.min_samples(90) == 92
    for n in range(1, 300):
        assert stats.beyond(n, 90) == sum(1 for i in range(n) if i > Fraction(9, 10) * (n - 1))


def test_iqr_share():
    assert stats.iqr_share([1, 2, 3, 4, 5]) == pytest.approx(
        (statistics.quantiles([1, 2, 3, 4, 5], n=4)[2]
         - statistics.quantiles([1, 2, 3, 4, 5], n=4)[0]) / 3)


def test_speed_factors_use_the_nearby_blocks():
    nominal = refspeed.NOMINAL_S
    # the machine runs at full speed, then at half speed for a while
    blocks = [nominal] * 20 + [2 * nominal] * 20
    f = refspeed.factors(blocks, half=2)
    assert f[:18] == [1.0] * 18
    assert f[-18:] == pytest.approx([0.5 ** refspeed.SENSITIVITY] * 18)
    # one slow block among fast ones does not move its neighbours
    assert refspeed.factors([nominal] * 5 + [9 * nominal] + [nominal] * 5, half=2) == [1.0] * 11


def test_slow_machine_cancels_out():
    import run

    fast = [[10.0, 30.0], [10.0, 30.0]]
    # the block takes 2 x longer; symlab, which waits on memory more, 2^0.7 x
    slow_wall = [[x * 2 ** refspeed.SENSITIVITY for x in ps] for ps in fast]
    slow_blocks = [refspeed.NOMINAL_S * 2] * 4
    factors = refspeed.factors(slow_blocks)
    slow = [[x * f for x, f in zip(ps, factors[2 * i:])] for i, ps in enumerate(slow_wall)]
    assert run._timings(slow) == pytest.approx(run._timings(fast))


def test_requests_per_s_does_not_depend_on_pass_count():
    import run

    one = run._timings([[10.0, 30.0]])
    assert one["requests_per_s"] == pytest.approx(50.0)
    assert run._timings([[10.0, 30.0]] * 7)["requests_per_s"] == pytest.approx(50.0)
    # a slow pass lowers the rate by its share of the time, however many passes
    assert run._timings([[10.0, 30.0], [20.0, 60.0]])["requests_per_s"] == pytest.approx(
        4 * 1000 / 120)


def test_peak_rss_belongs_to_the_child():
    import subprocess

    import worker

    ballast = bytearray(64 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])
    parent = worker.peak_rss_mb()
    child = subprocess.run([sys.executable, "-c", "import worker; print(worker.peak_rss_mb())"],
                           cwd=HERE, capture_output=True, text=True, check=True)
    del ballast
    assert parent >= 64
    assert float(child.stdout) < parent - 48


# -- tracing -------------------------------------------------------------------


def test_tracer_restores_and_keeps_outputs(pool):
    sys.path.insert(0, str(ROOT / "src"))
    import symlab.cli as cli
    import symlab.families as families
    import symlab.linalg as linalg

    req = _first(pool, lambda r: r["cat"] == "fam3_q_at")
    before = cli.run(req["argv"])
    originals = (cli.perm_coeff_vector, families.vandermonde_pair, linalg.Matrix.inverse,
                 cli.run, dict(cli._COMMANDS))
    tr = tracing.Tracer()
    tr.install()
    try:
        assert cli.perm_coeff_vector is not originals[0]
        traced = cli.run(req["argv"])
    finally:
        assert tr.remove()
    assert traced == before
    assert (cli.perm_coeff_vector, families.vandermonde_pair, linalg.Matrix.inverse,
            cli.run, dict(cli._COMMANDS)) == originals
    m = tr.metrics(1.0)
    assert [k for k, _ in tracing.PER_LAYER] == list(m)
    assert m["linalg.inverse.calls"]["value"] > 0
    assert m["families.perm_coeff_vector.calls"]["value"] == 12
    # self times partition the root spans
    total_self = sum(m[f"layer.{l}.self_ms"]["value"] for l in tracing.LAYERS)
    assert total_self == pytest.approx(m["layer.cli.busy_ms"]["value"])


def test_benchmark_json_lists_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tracing.PER_LAYER
    import run

    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)

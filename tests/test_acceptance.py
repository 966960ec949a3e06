"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavy sweeps are shared module-scoped fixtures.
"""
import math
import statistics
import time
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np
import pytest

from bnmatch import (
    GenSpec,
    Matching,
    build_subproblem_table,
    cascade_decomposition,
    cubic_solve,
    enumerate_candidates,
    gen_circle,
    generate,
    oracle_solve,
    solve,
    verify_matching,
)
from bnmatch.cli import main
from bnmatch.formats import parse_instance
from conftest import PolarityRegion, interior_polarity, oracle_enumerate, turning_angle

MODES = ("circle", "valtr", "cluster3")
REL = 1e-9


def _ok(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


@pytest.fixture(scope="module")
def sweep_small():
    """Criteria 1/3/4/5/9 data: 500 seeds per n in {4..16} per mode."""
    data = {
        "instances": 0,
        "max_rel_err": 0.0,
        "candidate_bound_violations": 0,
        "pole_collisions": 0,
        "polarity_failures": 0,
        "polarity_examples": [],
        "polarity_classes": Counter(),
        "validity_failures": 0,
        "three_cascade_confirmed": 0,
        "elapsed": 0.0,
    }
    t0 = time.perf_counter()
    for mode in MODES:
        for n in (4, 6, 8, 10, 12, 14, 16):
            for seed in range(500):
                P = generate(GenSpec(n, mode, seed))
                rep = solve(P)
                value, optimal = oracle_solve(P)

                rel = abs(rep.value - value) / value
                if rel > data["max_rel_err"]:
                    data["max_rel_err"] = rel

                check = verify_matching(P, rep.matching)
                if not (check.perfect and check.non_crossing and check.value == rep.value):
                    data["validity_failures"] += 1
                first = verify_matching(P, optimal[0])
                if not (first.perfect and first.non_crossing and first.value == value):
                    data["validity_failures"] += 1
                for m in optimal[1:]:
                    r = verify_matching(P, m)
                    if not (r.perfect and r.non_crossing):
                        data["validity_failures"] += 1

                cands = enumerate_candidates(P, build_subproblem_table(P))
                if len(cands) > 2 * n:
                    data["candidate_bound_violations"] += 1
                polarities = [interior_polarity(P, c.i, c.j) for c in cands]
                data["polarity_classes"].update(polarities)
                # a NEGATIVE diagonal's pole is i, a POSITIVE one's j
                negative = [c.i for c, p in zip(cands, polarities) if p is PolarityRegion.NEGATIVE]
                positive = [c.j for c, p in zip(cands, polarities) if p is PolarityRegion.POSITIVE]
                for poles in (negative, positive):
                    if len(poles) != len(set(poles)):
                        data["pole_collisions"] += 1
                for c, p in zip(cands, polarities):
                    if p is None:
                        data["polarity_failures"] += 1
                        if len(data["polarity_examples"]) < 5:
                            data["polarity_examples"].append(
                                (mode, n, seed, c.i, c.j, c.tau)
                            )

                if mode == "cluster3" and rep.structure == "three-cascade":
                    if all(
                        cascade_decomposition(P, m).cascade_count == 3
                        for m in optimal
                    ):
                        data["three_cascade_confirmed"] += 1
                data["instances"] += 1
    data["elapsed"] = time.perf_counter() - t0
    return data


@pytest.fixture(scope="module")
def sweep_medium():
    """Criteria 2/3 data: 50 seeds per n in {20, 40, 80, 160}."""
    data = {"instances": 0, "max_rel_err": 0.0, "validity_failures": 0, "elapsed": 0.0}
    t0 = time.perf_counter()
    for n in (20, 40, 80, 160):
        for seed in range(50):
            P = gen_circle(n, seed)
            rep = solve(P)
            cv, cm = cubic_solve(P)
            rel = abs(rep.value - cv) / cv
            if rel > data["max_rel_err"]:
                data["max_rel_err"] = rel
            for matching, value in ((rep.matching, rep.value), (cm, cv)):
                check = verify_matching(P, matching)
                if not (check.perfect and check.non_crossing and check.value == value):
                    data["validity_failures"] += 1
            data["instances"] += 1
    data["elapsed"] = time.perf_counter() - t0
    return data


def test_c01_oracle_equivalence(sweep_small):
    assert sweep_small["max_rel_err"] <= REL
    _ok(
        "C1",
        f"{sweep_small['instances']} instances, max rel err "
        f"{sweep_small['max_rel_err']:.3e} <= 1e-9 "
        f"({sweep_small['elapsed']:.1f}s)",
    )


def test_c02_baseline_equivalence(sweep_medium):
    assert sweep_medium["max_rel_err"] <= REL
    _ok(
        "C2",
        f"{sweep_medium['instances']} instances, max rel err "
        f"{sweep_medium['max_rel_err']:.3e} <= 1e-9 "
        f"({sweep_medium['elapsed']:.1f}s)",
    )


def test_c03_validity(sweep_small, sweep_medium):
    assert sweep_small["validity_failures"] == 0
    assert sweep_medium["validity_failures"] == 0
    _ok("C3", "every emitted matching perfect, non-crossing, value exact")


def test_c04_candidate_bound_and_poles(sweep_small):
    assert sweep_small["candidate_bound_violations"] == 0
    assert sweep_small["pole_collisions"] == 0
    _ok("C4", "candidateCount <= 2n everywhere; equal-polarity poles distinct")


def test_c05_polarity_class_counts(sweep_small):
    # the sweep's candidates by interior polarity, pinned so that a change
    # to the classifier or to the candidates shows here, not only in C05
    classes = sweep_small["polarity_classes"]
    assert classes == {PolarityRegion.NEGATIVE: 7125, PolarityRegion.POSITIVE: 633, None: 22}
    _ok("C5 counts", f"{sum(classes.values())} candidates: 7125 negative, 633 positive, 22 neither")


def test_c05_polarity_trichotomy(sweep_small):
    # Known red: rare candidates have a strictly neutral interior point, so
    # uniform polarity does not hold universally; the counterexample is
    # pinned and verified in test_solver.py.
    assert sweep_small["polarity_failures"] == 0, (
        f"{sweep_small['polarity_failures']} non-uniform candidate interiors, "
        f"e.g. (mode, n, seed, i, j, tau): {sweep_small['polarity_examples']}"
    )
    _ok("C5", "all candidate interiors uniformly negative or positive")


def _cascade_profile(n):
    """Cascade counts per enumerated matching; combinatorial, so computed
    on one reference polygon per n."""
    P = gen_circle(n, 0)
    out = []
    for pairs in oracle_enumerate(n):
        d = cascade_decomposition(P, Matching.of(n, pairs))
        out.append((pairs, d.cascade_count, d.three_bounded_count))
    return out


def test_c06_structural_existence():
    for n in (6, 8, 10, 12):
        profile = _cascade_profile(n)
        assert all(c != 2 for _, c, _ in profile), f"2-cascade matching at n={n}"
        shape = {pairs: (c, t) for pairs, c, t in profile}
        for seed in range(100):
            P = gen_circle(n, seed) if seed % 2 else generate(GenSpec(n, "valtr", seed))
            _, optimal = oracle_solve(P)
            assert any(
                shape[m.pairs][0] <= 3 and shape[m.pairs][1] <= 1 for m in optimal
            ), (n, seed)
            found_wide = False
            for m in optimal:
                diagonals = [
                    (a, b)
                    for a, b in m.pairs
                    if (b - a) % n != 1 and (a - b) % n != 1
                ]
                if all(
                    min(turning_angle(P, a, b), turning_angle(P, b, a)) > math.pi / 2
                    for a, b in diagonals
                ):
                    found_wide = True
                    break
            assert found_wide, (n, seed)
    _ok("C6", "tame optimum exists for 100 seeds x n in {6,8,10,12}; no 2-cascade matchings")


def test_c07_catalan_counts():
    expect = [1, 2, 5, 14, 42, 132, 429, 1430]
    got = [sum(1 for _ in oracle_enumerate(n)) for n in range(2, 17, 2)]
    assert got == expect
    _ok("C7", f"enumeration counts {got}")


def _interleaved_medians(fn, sizes, reps=3):
    """Median wall time of fn(gen_circle(n, rep)) per size n, over ``reps``
    rounds that each time every size once: a change of CPU speed during the
    run then hits every size alike rather than bending the slope."""
    times = {n: [] for n in sizes}
    for rep in range(reps):
        for n in sizes:
            P = gen_circle(n, rep)
            t0 = time.perf_counter()
            fn(P)
            times[n].append(time.perf_counter() - t0)
    return [statistics.median(times[n]) for n in sizes]


def test_c08_complexity_separation():
    solve(gen_circle(256, 0))  # warm-up

    solve_sizes = (512, 1024, 2048, 4096)
    solve_medians = _interleaved_medians(solve, solve_sizes)
    solve_slope = float(np.polyfit(np.log(solve_sizes), np.log(solve_medians), 1)[0])

    cubic_sizes = (128, 256, 512)
    cubic_medians = _interleaved_medians(cubic_solve, cubic_sizes)
    cubic_slope = float(np.polyfit(np.log(cubic_sizes), np.log(cubic_medians), 1)[0])

    assert solve_slope <= 2.5, (solve_slope, solve_medians)
    assert cubic_slope >= 2.6, (cubic_slope, cubic_medians)
    assert solve_medians[-1] < 10.0
    _ok(
        "C8",
        f"solve slope {solve_slope:.2f} <= 2.5 (n=4096 in "
        f"{solve_medians[-1]:.2f}s < 10s); cubic slope {cubic_slope:.2f} >= 2.6",
    )


def test_c09_three_cascade_coverage(sweep_small):
    assert sweep_small["three_cascade_confirmed"] > 0
    _ok(
        "C9",
        f"{sweep_small['three_cascade_confirmed']} cluster3 instances solved "
        "three-cascade with oracle confirming every optimum has 3 cascades",
    )


def test_c10_cli_round_trip(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    match = tmp_path / "match.json"
    svg = tmp_path / "out.svg"
    checked = 0
    for mode in MODES:
        for n in (4, 8, 12, 16):
            for seed in (0, 1, 2):
                assert main([
                    "gen", "--n", str(n), "--mode", mode, "--seed", str(seed),
                    "--output", str(inst),
                ]) == 0
                assert main(["solve", str(inst), "--output", str(match)]) == 0
                assert main(["verify", str(inst), str(match)]) == 0
                checked += 1
        # one render per mode: well-formed SVG, n points and n/2 segments
        assert main(["render", str(inst), str(match), "--out", str(svg)]) == 0
        root = ET.fromstring(svg.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        n_pts = len(parse_instance(inst.read_text()))
        assert len(root.findall(f"{ns}circle")) == n_pts
        assert len(root.findall(f"{ns}line")) == n_pts // 2
    capsys.readouterr()
    _ok("C10", f"gen->solve->verify exit 0 on {checked} cells; SVG well-formed")

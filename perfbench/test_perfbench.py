"""Tests for the benchmark's own code: schema, names, digests, checks.

No timing value is asserted.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import refclock
import run
import workloads
from bnmatch import Matching, gen_circle, verify_matching

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_and_units_match_benchmark_json():
    b = spec()
    assert {m["name"]: m["unit"] for m in b["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in b["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in b["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_tail_keeps_ten_samples_beyond():
    times = list(range(100, 130))  # 30 samples
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail([5, 1, 3]) == (5, 100.0)


def test_ref_clock_scales_program_time_by_the_probe(monkeypatch):
    # a probe that reads twice the reference halves every stretch of program time
    monkeypatch.setattr(refclock, "probe", lambda: 2 * refclock.REF_PROBE_NS)
    def work():
        sum(i * i for i in range(300_000))
        return "done"

    clock = refclock.RefClock()
    out, err, wall, ref = clock.call(work)
    assert (out, err) == ("done", None)
    assert wall > 0 and ref == pytest.approx(wall / 2)
    assert len(clock.probe_ns) >= 2


def test_ref_clock_reports_a_raising_call_and_restores_the_handler():
    before = refclock.signal.getsignal(refclock.signal.SIGALRM)
    clock = refclock.RefClock()
    assert clock.call(lambda: 1 / 0) == (None, "ZeroDivisionError: division by zero", 0, 0)
    assert refclock.signal.getsignal(refclock.signal.SIGALRM) is before
    assert refclock.signal.getitimer(refclock.signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("n", [4, 16, 1024])
def test_random_matchings_cross_only_when_asked(n):
    rng = workloads.np.random.default_rng(n)
    P = gen_circle(n, seed=1)
    pairs = workloads.random_noncrossing_pairs(n, rng)
    rep = verify_matching(P, Matching.of(n, pairs))
    assert rep.perfect and rep.non_crossing
    assert workloads.bottleneck(P.coords(), pairs) == rep.value
    rep = verify_matching(P, Matching.of(n, workloads.make_crossing(pairs, rng)))
    assert rep.perfect and not rep.non_crossing


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_input_digest_is_stable_for_a_fixed_seed(name, tmp_path):
    def digest(seed):
        wl = workloads.WORKLOADS[name]()
        wl.setup(seed, str(tmp_path))
        return workloads.input_digest(wl.instances)

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


@pytest.mark.parametrize("name", ["small-mixed", "cli-verify"])
def test_result_digest_is_stable_and_checks_pass(name, tmp_path):
    def digest():
        wl = workloads.WORKLOADS[name]()
        wl.setup(3, str(tmp_path))
        results = run.Results(wl)
        results.add(0, wl.op(0), None)
        results.add(1, wl.op(1), None)
        failed, digest, messages = results.check()
        assert (failed, messages) == (0, [])
        return digest

    assert digest() == digest()


def test_check_counts_a_wrong_result(tmp_path):
    wl = workloads.CliVerify()
    wl.setup(3, str(tmp_path))
    out = wl.op(0)
    idx, (code, text) = out[0]
    wrong = [(idx, (1 - code, text))] + out[1:]
    results = run.Results(wl)
    results.add(0, out, None)
    results.add(1, wrong, None)
    results.add(2, None, "boom")
    failed, _, messages = results.check()
    assert failed == 2 and len(messages) == 2


def bench(cwd, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_schema(trace):
    p = bench(ROOT, "--workload", "small-mixed", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert p.returncode == 0, p.stderr
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    for v in res["metrics"].values():
        assert set(v) == {"value", "unit"}
        assert isinstance(v["value"], (int, float)) and not isinstance(v["value"], bool)
    assert any(line.startswith("# input_digest ") for line in p.stdout.splitlines())
    assert any(line.startswith("# result_digest ") for line in p.stdout.splitlines())


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = bench(tmp_path, "--workload", "small-mixed", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert "{" not in p.stdout


class RaisingOps(workloads.SmallMixed):
    """Every timed op raises, after a short wait."""

    def op(self, k):
        run.time.sleep(0.01)
        raise RuntimeError("boom")

    traced_op = op


@pytest.mark.parametrize("trace", [False, True])
def test_raising_ops_fail_the_run_and_are_not_timed(trace, tmp_path):
    wl = RaisingOps()
    metrics, attempted, failed, notes = run.measure(wl, 1, 1, trace, str(tmp_path))
    # each input no op reached is solved once more, untimed, and passes
    assert failed == attempted - len(wl.instances) >= 1
    want = run.PER_LAYER if trace else run.END_TO_END
    assert set(want) <= set(metrics)
    if not trace:
        assert metrics["op_p50_ref_ms"] == 0.0

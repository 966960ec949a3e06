"""bnmatch benchmark: runs one workload in this process and prints its metrics.

    python3 perfbench/run.py --workload small-mixed --seed 1 --seconds 20 --trace 0

Run it from a checkout: it imports bnmatch from the checkout's ``src``
and exits with code 2 if there is none. Set-up makes the inputs from
``--seed`` and runs SETUP_REPS times back to back before the timed loop;
``setup_s`` is the median. After one warm-up op, ops run back to back for
``--seconds``. Only ops that return count towards the times. Every result
is checked (see Results).

``--trace 0`` times set-ups and ops with a RefClock (refclock.py): program
time scaled to a reference speed by a probe that runs every 10 ms, so that
the host's switches between a fast and a slow state do not read as changes
of the program. The ``*_ref_*`` metrics and ``setup_s`` are such times; the
wall times are printed on the lines before the last.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
plain ops with traced ones, replays each op's stages as child spans and
prints the per-layer metrics; the spans go to
``.perfbench-out/spans-<workload>-<seed>.jsonl``. Lines before the last
give digests, sample counts and the checks; the last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPS = 21
# a traced run checks that the replayed stages sum to solve's time within this share
COVERAGE_BOUND = 0.15

END_TO_END = {
    "op_p50_ref_ms": "ms",
    "op_tail_ref_ms": "ms",
    "op_peak_mb": "MB",
    "rss_peak_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "dp_core.fill_ms": "ms",
    "dp_core.fill_share": "ratio",
    "dp_core.fill_sys_ms": "ms",
    "dp_core.fill_minflt": "count",
    "dp_core.table_bytes": "B_computed",
    "dp_core.optimum_ms": "ms",
    "dp_core.reconstruct_ms": "ms",
    "geometry.validate_ms": "ms",
    "structure.verify_ms": "ms",
    "structure.decompose_ms": "ms",
    "solver.solve_ms": "ms",
    "solver.candidates_ms": "ms",
    "solver.candidates": "count",
    "solver.three_cascade_share": "ratio",
    "solver.residual_ms": "ms",
    "formats.parse_ms": "ms",
    "generators.generate_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.stage_coverage": "ratio",
}


def tail(times: list[int]) -> tuple[int, float]:
    """Highest sample with at least ten samples beyond it, and its percentile.

    With ten samples or fewer no sample qualifies; the maximum is returned.
    With none (every op raised, so the run is failed) it is (0, 0.0).
    """
    s = sorted(times)
    if not s:
        return 0, 0.0
    if len(s) <= 10:
        return s[-1], 100.0
    r = len(s) - 11
    return s[r], 100.0 * (r + 1) / len(s)


class Results:
    """Takes each op's results as it completes; checks them after the loop.

    Only the first result on each input is kept. A later result on that
    input is compared with it at once and dropped, so memory does not grow
    with the number of ops. The kept results get the full checks.
    """

    def __init__(self, wl) -> None:
        self.wl = wl
        self.first: dict = {}  # input -> (exact key, result)
        self.ops: list = []    # (op, inputs, problems)

    def add(self, k, out, err) -> None:
        problems = [err] if err else []
        idxs = []
        for idx, raw in out or ():
            idxs.append(idx)
            key = self.wl.key(raw)
            if idx not in self.first:
                self.first[idx] = (key, raw)
            elif key != self.first[idx][0]:
                problems.append(f"input {idx}: result differs from the first op on it")
        self.ops.append((k, idxs, problems))

    def check(self) -> tuple[int, str, list[str]]:
        """(failed ops, result digest, messages)."""
        bad = {idx: self.wl.check_item(idx, raw) for idx, (_, raw) in self.first.items()}
        failed, messages = 0, []
        for k, idxs, problems in self.ops:
            problems = problems + [p for idx in idxs for p in bad[idx]]
            if problems:
                failed += 1
                messages.append(f"op {k}: {'; '.join(problems)}")
        h = hashlib.sha256()
        for idx in sorted(self.first):
            h.update(repr((idx, self.wl.canonical(self.first[idx][1]))).encode())
        return failed, h.hexdigest(), messages


def median(xs) -> float:
    """Median, or 0.0 when there is no sample (every op raised, so the run is failed)."""
    return statistics.median(xs) if xs else 0.0


def attempt(fn, *args):
    """(fn's result, None), or (None, the error) if it raised."""
    try:
        return fn(*args), None
    except Exception as e:  # a raising op counts as failed; the loop goes on
        return None, f"{type(e).__name__}: {e}"


def measure(wl, seed: int, seconds: int, trace: bool, workdir: str) -> tuple[dict, int, int, list[str]]:
    from refclock import REF_PROBE_NS, RefClock
    from tracing import Tracer
    from workloads import input_digest

    tracer = Tracer() if trace else None
    clock = RefClock(wl.ref_exponent)
    notes: list[str] = []
    setup_wall, setup_ref, gen_ms, digests = [], [], [], []
    for r in range(SETUP_REPS):
        if tracer is None:
            _, err, wall, ref = clock.call(wl.setup, seed, workdir)
            if err:
                raise RuntimeError(f"set-up failed: {err}")
            setup_wall.append(wall)
            setup_ref.append(ref)
        else:
            wl.setup(seed, workdir, tracer, f"setup-{r}")
            gen_ms.append(sum(
                s.ns for s in tracer.spans
                if s.trace == f"setup-{r}" and s.name == "generators.generate"
            ) / 1e6)
        digests.append(input_digest(wl.instances))
    notes.append(f"input_digest {digests[-1]} ({len(wl.instances)} inputs)")
    setup_ok = len(set(digests)) == 1
    if not setup_ok:
        notes.append("FAIL set-up made different inputs from the same seed")

    clock.call(wl.op, 0)  # warm-up, not counted
    gc.collect()
    results = Results(wl)
    plain_ns, ref_ns, traced_ns, layers = [], [], [], []  # of the ops that returned
    start = time.perf_counter_ns()
    k = 0
    while True:
        if trace and k % 2 == 1:
            got, err = attempt(wl.traced_op, k, tracer, f"op-{k}")
            out = None
            if got is not None:
                out, op_ns, rec = got
                traced_ns.append(op_ns)
                layers.append(rec)
        elif trace:
            t0 = time.perf_counter_ns()
            out, err = attempt(wl.op, k)
            if err is None:
                plain_ns.append(time.perf_counter_ns() - t0)
        else:
            out, err, wall, ref = clock.call(wl.op, k)
            if err is None:
                plain_ns.append(wall)
                ref_ns.append(ref)
        results.add(k, out, err)
        k += 1
        loop_ns = time.perf_counter_ns() - start
        if loop_ns >= seconds * 1_000_000_000 and (k >= 2 or not trace):
            break

    metrics: dict = {}
    if not trace:
        # read before tracemalloc, whose own bookkeeping would count
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tracemalloc.start()
        try:
            attempt(wl.op, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tail_ns, tail_pct = tail(ref_ns)
        notes.append(f"op_tail_ref_ms is p{tail_pct:.1f} of {len(ref_ns)} ops")
        notes.append(
            f"wall: op p50 {median(plain_ns) / 1e6:.1f} ms, tail {tail(plain_ns)[0] / 1e6:.1f} ms, "
            f"{len(plain_ns) / (loop_ns / 1e9):.3f} ops/s, set-up median {median(setup_wall) / 1e9:.4f} s"
        )
        notes.append(
            f"host speed: median probe {median(clock.probe_ns) / 1e3:.0f} us "
            f"({median(clock.probe_ns) / REF_PROBE_NS:.2f} x the reference {REF_PROBE_NS / 1e3:.0f} us)"
        )
        metrics = {
            "op_p50_ref_ms": median(ref_ns) / 1e6,
            "op_tail_ref_ms": tail_ns / 1e6,
            "op_peak_mb": peak / 1e6,
            "rss_peak_mb": rss_kib * 1024 / 1e6,
            "setup_s": median(setup_ref) / 1e9,
        }

    # an input no timed op reached (only in very short runs) is run once
    # more, untimed, so that every input is checked and in the digest
    for idx in range(len(wl.instances)):
        if idx not in results.first:
            got, err = attempt(wl.run_item, idx)
            results.add(f"extra-{idx}", None if err else [(idx, got)], err)
    failed, digest, messages = results.check()
    failed += not setup_ok
    attempted = len(results.ops)
    notes.append(f"result_digest {digest} ({len(results.first)} inputs)")
    notes.append(f"checks: {attempted} ops, {failed} failed")
    notes += messages[:20]
    if not trace:
        metrics["ok_frac"] = (attempted - failed) / attempted
        return metrics, attempted, failed, notes

    if not layers:  # every traced op raised, so failed > 0 and the run is failed
        notes.append("FAIL no traced op returned; per-layer values read 0")
        layers = [dict.fromkeys(PER_LAYER, 0.0)]
    for name in layers[0]:
        metrics[name] = median([r[name] for r in layers])
    metrics["generators.generate_ms"] = median(gen_ms)
    metrics["trace.overhead_ms"] = (median(traced_ns) - median(plain_ns)) / 1e6
    cov = metrics["trace.stage_coverage"]
    verdict = "ok" if abs(cov - 1.0) <= COVERAGE_BOUND else "OUT OF BOUND"
    notes.append(
        f"stage coverage {cov:.3f}: replayed stages / solve, bound 1 +- {COVERAGE_BOUND}: {verdict}"
    )
    notes.append(f"{len(traced_ns)} traced and {len(plain_ns)} plain ops; per-layer values are medians over traced ops")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-{seed}.jsonl"
    tracer.dump(spans_path)
    notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    src = ROOT / "src"
    if not (src / "bnmatch" / "__init__.py").is_file():
        print(f"perfbench: no bnmatch source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads  # needs the checkout's src on sys.path

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        metrics, attempted, failed, notes = measure(wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    print(f"# workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for line in notes:
        print(f"# {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

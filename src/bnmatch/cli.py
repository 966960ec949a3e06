"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 parse/read error,
3 input validation error (the message names the violated invariant;
also a bottleneck whose squared length overflows or underflows float64), 4 size guard
(oracle refuses n > 20), 5 the compiled row kernel could not be built
(KernelBuild: no C compiler, or the compiler's error).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

from . import baselines, dp_core, formats, generators, render, solver, structure
from .errors import BnmatchError, InvalidMatchingError, KernelBuildError, TooLargeError
from .geometry import ConvexPointSet, check_finite, validate_convex_ccw

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_VALIDATE = 3
EXIT_SIZE = 4
EXIT_BUILD = 5


def _read(path: str) -> str:
    """The file's text; ParseError if it is not UTF-8 (a UnicodeDecodeError
    is a ValueError, which ``main`` would report as invalid input)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise formats.ParseError(f"{path} is not UTF-8 text: {e}") from e


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _sort_ccw(points: list[list[float]]) -> list[list[float]]:
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    return sorted(points, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


def _load_instance(args) -> ConvexPointSet:
    points = formats.parse_instance(_read(args.instance))
    if getattr(args, "sort_ccw", False) and len(points):  # no centroid: validation names it
        points = _sort_ccw(points.tolist())
    return validate_convex_ccw(points)


def cmd_solve(args) -> int:
    P = _load_instance(args)
    rep = solver.solve(P)
    _write(
        args.output,
        formats.matching_to_json(
            P.n, rep.value, rep.matching.pairs, rep.structure,
            rep.cascades, rep.candidate_count,
        ),
    )
    return EXIT_OK


def cmd_reference(args) -> int:
    """baseline and oracle: a reference solver's matching, in solve's format,
    once it passes the checks ``verify`` makes (else InvalidMatching, exit 3)."""
    P = _load_instance(args)
    value, matching = args.reference(P)
    report = structure.verify_matching(P, matching)
    failed = report.failed_check(value)
    if failed:
        raise InvalidMatchingError(f"the reference's matching fails {failed}")
    d = report.decomposition
    _write(
        args.output,
        formats.matching_to_json(
            P.n, value, matching.pairs, d.structure, d.cascade_count, None
        ),
    )
    return EXIT_OK


def _oracle_first(P: ConvexPointSet):
    """oracle_solve's value and the first of its optimal matchings."""
    value, optimal = baselines.oracle_solve(P)
    return value, optimal[0]


def cmd_verify(args) -> int:
    """OK and the matching's cascades, or FAIL and the first check it fails:
    "n", then ``MatchingReport.failed_check``'s, whose value check is exact."""
    P = _load_instance(args)
    md = formats.parse_matching(_read(args.matching))
    # the parse made every index an int
    rep = structure.verify_matching(P, structure.Matching(md["n"], tuple(md["pairs"])))
    failed = "n" if md["n"] != P.n else rep.failed_check(md["value"])
    if failed:
        print(f"FAIL {failed}")
        return EXIT_VERIFY
    print(
        f"OK perfect nonCrossing value={formats.fmt17(rep.value)} "
        f"cascades={rep.decomposition.cascade_count} "
        f"threeBounded={rep.decomposition.three_bounded_count}"
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = generators.GenSpec(args.n, args.mode, args.seed, args.spread)
    to_text = formats.instance_to_csv if args.format == "csv" else formats.instance_to_json
    _write(args.output, to_text(generators.generate(spec).coords()))
    return EXIT_OK


def cmd_render(args) -> int:
    points = formats.parse_instance(_read(args.instance))
    check_finite(*points.T)  # an inf or nan coordinate would be drawn as one
    md = formats.parse_matching(_read(args.matching))
    if not md["pairs"]:
        raise formats.ParseError("matching file has no pairs")
    n = len(points)
    for a, b in md["pairs"]:
        if not (0 <= a < n and 0 <= b < n):
            raise formats.ParseError(f"pair ({a}, {b}) outside [0, {n})")
    svg = render.render_svg(points.tolist(), md["pairs"], md["value"])
    _write(args.out, svg)
    return EXIT_OK


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    if not sizes:
        raise BnmatchError("bench needs at least one size")
    if len(set(sizes)) < len(sizes):
        raise BnmatchError("bench sizes must be distinct: the slope fit needs one median per size")
    if args.reps < 1:
        raise BnmatchError(f"bench needs --reps >= 1, got {args.reps}")
    run = (
        (lambda P: baselines.cubic_solve(P)[0])
        if args.algo == "cubic"
        else (lambda P: solver.solve(P).value)
    )
    # a bad size, seed, spread or --json file fails before any output; only
    # the smallest instance is made here, so that with --json the children's
    # peak RSS, which counts this process's peak at their start, is their own
    for n in sizes:
        generators.check_n(n)
    generators.generate(generators.GenSpec(min(sizes), args.mode, args.seed, args.spread))
    runs = None if args.json is None else _bench_runs(args.json)
    if args.algo == "solve":  # a first build is no rep's time and no child's peak RSS
        dp_core._kernel()
    print("n,rep,seed,elapsed_ns,value,rep_cpu_ns")
    cells = []
    for n in sizes:
        if args.json is None:
            row = [generators.generate(generators.GenSpec(n, args.mode, args.seed + r, args.spread))
                   for r in range(args.reps)]
            cells.append(_time_size(run, n, row, args.seed))
        else:
            cells.append(_time_size_in_child(args, n))
    medians = [statistics.median(c["elapsed_ns"]) for c in cells]
    slope = None
    if len(sizes) >= 2:
        slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
        print(f"# slope {slope:.3f}")
    if args.json is not None:
        for c, median in zip(cells, medians):
            q1, q3 = np.percentile(c["elapsed_ns"], [25, 75])
            # per entry of the table's n/2 rows of n: the fill's cost, at large n
            c.update(median_ns=median, iqr_ns=float(q3 - q1), ns_per_entry=median / (c["n"] ** 2 / 2))
        runs.append({
            "algo": args.algo, "mode": args.mode, "seed": args.seed, "spread": args.spread,
            "reps": args.reps, "cells": cells, "slope": slope,
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "cpus": dp_core.usable_cpus(),
        })
        _write(args.json, json.dumps(runs, indent=1) + "\n")
    return EXIT_OK


def _time_size(run, n: int, row, seed: int) -> dict:
    """The timing loop: the wall ns and the process's CPU ns (all threads)
    of ``run`` on each instance, a CSV row each."""
    elapsed, cpu = [], []
    for rep, P in enumerate(row):
        c0, t0 = time.process_time_ns(), time.perf_counter_ns()
        value = run(P)
        dt, dc = time.perf_counter_ns() - t0, time.process_time_ns() - c0
        elapsed.append(dt)
        cpu.append(dc)
        print(f"{n},{rep},{seed + rep},{dt},{formats.fmt17(value)},{dc}")
    return {"n": n, "elapsed_ns": elapsed, "rep_cpu_ns": cpu}


def _time_size_in_child(args, n: int) -> dict:
    """One size timed by ``bnmatch bench`` in a fresh process, whose peak
    RSS then belongs to that size alone; its CSV rows are passed on. It has
    one BLAS thread: a second, started by NumPy's import, added to rep_cpu_ns."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    cmd = [sys.executable, "-m", "bnmatch.cli", "bench", "--sizes", str(n), "--mode", args.mode,
           "--seed", str(args.seed), "--spread", repr(args.spread), "--reps", str(args.reps),
           "--algo", args.algo]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
        rows = proc.stdout.read().splitlines()[1:]
        _, status, usage = os.wait4(proc.pid, 0)  # the child's own rusage
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != EXIT_OK:
        raise BnmatchError(f"bench child for n = {n} exited {proc.returncode}")
    print("\n".join(rows), flush=True)
    kib = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes there, KiB elsewhere
    cols = [r.split(",") for r in rows]
    # cpu_ns: the child's CPU time in all its threads, its start and set-up included
    return {"n": n, "elapsed_ns": [int(c[3]) for c in cols], "rep_cpu_ns": [int(c[5]) for c in cols],
            "cpu_ns": round((usage.ru_utime + usage.ru_stime) * 1e9),
            "peak_rss_bytes": usage.ru_maxrss * kib}


def _bench_runs(path: str) -> list:
    """The JSON list of bench runs in ``path``; empty if there is no file.
    An unwritable ``path`` fails here, before any timing: it is opened for
    appending, and removed again if that created it."""
    existed = os.path.exists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)
        return []
    try:
        runs = json.loads(_read(path))
    except json.JSONDecodeError as e:
        raise formats.ParseError(f"{path}: {e}") from None
    if not isinstance(runs, list):
        raise formats.ParseError(f"{path} holds no JSON list of bench runs")
    return runs


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="bnmatch",
        description="Bottleneck non-crossing matchings of points in convex position.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_instance(p):
        p.add_argument("instance", help="instance file (JSON points or CSV x,y lines)")
        p.add_argument("--sort-ccw", action="store_true",
                       help="sort input points ccw around their centroid first")

    p = sub.add_parser("solve", help="quadratic solver")
    add_instance(p)
    p.add_argument("--output", help="matching JSON path (default stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("baseline", help="cubic dynamic-programming baseline")
    add_instance(p)
    p.add_argument("--output")
    p.set_defaults(func=cmd_reference, reference=baselines.cubic_solve)

    p = sub.add_parser("oracle", help="exhaustive oracle (n <= 20)")
    add_instance(p)
    p.add_argument("--output")
    p.set_defaults(func=cmd_reference, reference=_oracle_first)

    p = sub.add_parser("verify", help="check a matching file against an instance")
    add_instance(p)
    p.add_argument("matching", help="matching JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=generators.MODES, default="circle")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spread", type=float, default=0.05)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("render", help="render instance + matching to SVG")
    p.add_argument("instance")
    p.add_argument("matching")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("bench", help="timing harness, CSV to stdout")
    p.add_argument("--sizes", required=True, help="comma-separated even sizes")
    p.add_argument("--mode", choices=generators.MODES, default="circle")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spread", type=float, default=0.05)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--algo", choices=("solve", "cubic"), default="solve")
    p.add_argument("--json", metavar="PATH",
                   help="time each size in a fresh process and append the run's medians, "
                        "IQRs, peak RSS and slope to the JSON list in PATH")
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except formats.ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except TooLargeError as e:
        print(str(e), file=sys.stderr)
        return EXIT_SIZE
    except KernelBuildError as e:
        print(str(e), file=sys.stderr)
        return EXIT_BUILD
    except ValueError as e:  # a BnmatchError, or e.g. a bad generator parameter
        print(str(e), file=sys.stderr)
        return EXIT_VALIDATE


if __name__ == "__main__":
    sys.exit(main())

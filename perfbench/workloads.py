"""The three workloads of the bnmatch benchmark.

Each workload makes its inputs from the workload seed in ``setup``, runs
one op through the package's public functions, and checks results after
the timed loop. The program sees only the generated coordinates, or, for
cli-verify, the files written from them. All three are closed loops with
one client: the next op starts when the previous one returns.

large-valtr  one op = validate_convex_ccw + solve on one of three valtr
             n=8192 instances, in turn. The table fill is about 90% of the
             op and the table dominates memory. There are no candidates,
             so the 3-chain search and multi-arc reconstruction are skipped.
small-mixed  one op = one pass of validate_convex_ccw + solve over 30
             instances: n in {16, 32, 64, 128, 256} x {circle, valtr,
             cluster3} x 2 seeds. The fill is bound by numpy call overhead,
             not bandwidth. n <= 64 takes structure's pairwise crossing test
             and the cluster3 third takes the three-cascade branch.
cli-verify   one op = one pass of ``bnmatch verify`` (cli.main, in-process)
             over 8 instance/matching file pairs with n in {1024, 4096}.
             Every fourth matching crosses and must give exit 1 with
             ``FAIL nonCrossing``. Neither dp_core nor solver runs in the op.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from bnmatch import (
    GenSpec,
    Matching,
    build_subproblem_table,
    cascade_decomposition,
    cli,
    cubic_solve,
    enumerate_candidates,
    formats,
    generate,
    one_cascade_optimum,
    reconstruct,
    solve,
    validate_convex_ccw,
    verify_matching,
)

from tracing import Span, Tracer

CUBIC_MAX_N = 128  # small-mixed values up to this n must equal cubic_solve's


@dataclass(frozen=True)
class Instance:
    label: str
    coords: tuple[tuple[float, float], ...]


def instance_seeds(seed: int, name: str, k: int) -> list[int]:
    """k generator seeds drawn from the workload seed and workload name."""
    ss = np.random.SeedSequence([seed, zlib.crc32(name.encode())])
    return [int(s) for s in ss.generate_state(k)]


def _generate(n: int, mode: str, seed: int, tracer: Tracer | None, trace: str) -> Instance:
    spec = GenSpec(n, mode, seed)
    if tracer is None:
        P = generate(spec)
    else:
        with tracer.span(trace, "generators.generate"):
            P = generate(spec)
    return Instance(f"{mode}/{n}/{seed}", tuple(P.coords()))


def input_digest(instances: list[Instance]) -> str:
    """sha256 over every instance's label and exact coordinate bits."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(inst.label.encode())
        h.update(np.asarray(inst.coords, dtype="<f8").tobytes())
    return h.hexdigest()


def canonical(pairs) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((min(a, b), max(a, b)) for a, b in pairs))


def replay_solve(
    tracer: Tracer, trace: str, parent: Span, P, rep
) -> tuple[dict[str, int], Counter]:
    """Re-run each stage of ``solve`` on P as a child span of ``parent``.

    Returns the ns of each stage and the counts taken at the fill and the
    candidate scan. reconstruct is replayed on the full circle at the
    one-cascade optimum: it walks n/2 choice tags, the same work as the
    three arcs of a three-cascade answer.
    """
    ns: dict[str, int] = {}
    counts: Counter = Counter()

    def stage(name, fn, *args, **kw):
        with tracer.span(trace, name, parent) as s:
            out = fn(*args, **kw)
        ns[name] = s.ns
        return out

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    T = stage("dp_core.fill", build_subproblem_table, P)
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    counts["fill_sys_ns"] = round((ru1.ru_stime - ru0.ru_stime) * 1e9)
    counts["fill_minflt"] = ru1.ru_minflt - ru0.ru_minflt
    counts["table_bytes"] = T.S.nbytes + T.choice.nbytes + T.necessary.nbytes
    _, start = stage("dp_core.optimum", one_cascade_optimum, T)
    cands = stage("solver.candidates", enumerate_candidates, P, T, annotate=False)
    counts["candidates"] = len(cands)
    stage("dp_core.reconstruct", reconstruct, T, start, P.n)
    del T
    stage("structure.verify", verify_matching, P, rep.matching)
    stage("structure.decompose", cascade_decomposition, P, rep.matching)
    return ns, counts


def add_solve(acc: Counter, solve_ns: int, ns, counts, rep, own_structure: bool) -> None:
    """Fold one solve and its replayed stages into an op's sums.

    ``own_structure`` is False where the op runs its own structure checks
    (cli-verify): the replayed solve's checks then count towards the stage
    coverage only, not towards the structure metrics.
    """
    acc["solver.solve"] += solve_ns
    for name, v in ns.items():
        if own_structure or not name.startswith("structure."):
            acc[name] += v
    acc["replayed"] += sum(ns.values())
    acc.update(counts)
    acc["solved"] += 1
    acc["three_cascade"] += rep.structure == "three-cascade"


def layer_record(acc: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced op, from its summed spans and counts."""
    def ms(key):
        return acc[key] / 1e6

    return {
        "dp_core.fill_ms": ms("dp_core.fill"),
        "dp_core.fill_share": acc["dp_core.fill"] / acc["solver.solve"],
        "dp_core.fill_sys_ms": ms("fill_sys_ns"),
        "dp_core.fill_minflt": acc["fill_minflt"],
        "dp_core.table_bytes": acc["table_bytes"],
        "dp_core.optimum_ms": ms("dp_core.optimum"),
        "dp_core.reconstruct_ms": ms("dp_core.reconstruct"),
        "geometry.validate_ms": ms("geometry.validate"),
        "structure.verify_ms": ms("structure.verify"),
        "structure.decompose_ms": ms("structure.decompose"),
        "solver.solve_ms": ms("solver.solve"),
        "solver.candidates_ms": ms("solver.candidates"),
        "solver.candidates": acc["candidates"],
        "solver.three_cascade_share": acc["three_cascade"] / acc["solved"],
        "solver.residual_ms": (acc["solver.solve"] - acc["replayed"]) / 1e6,
        "formats.parse_ms": ms("formats.parse"),
        "trace.stage_coverage": acc["replayed"] / acc["solver.solve"],
    }


class SolveWorkload:
    """validate_convex_ccw + solve over generated instances."""

    name = ""
    cubic_check = False
    ref_exponent = 1.0  # see refclock.py

    def specs(self, seed: int) -> list[tuple[int, str, int]]:
        raise NotImplementedError

    def op_items(self, k: int) -> list[int]:
        raise NotImplementedError

    def setup(self, seed: int, workdir: str, tracer: Tracer | None = None, trace: str = "setup") -> None:
        self.instances = [_generate(n, mode, s, tracer, trace) for n, mode, s in self.specs(seed)]
        self._texts: list[str] | None = None

    def run_item(self, idx: int):
        return solve(validate_convex_ccw(self.instances[idx].coords))

    def op(self, k: int) -> list:
        return [(idx, self.run_item(idx)) for idx in self.op_items(k)]

    def traced_op(self, k: int, tracer: Tracer, trace: str):
        """The op under spans, then its stages replayed; (results, op ns, layers)."""
        done = []
        with tracer.span(trace, "op") as op_span:
            for idx in self.op_items(k):
                with tracer.span(trace, "geometry.validate", op_span) as sv:
                    P = validate_convex_ccw(self.instances[idx].coords)
                with tracer.span(trace, "solver.solve", op_span) as ss:
                    rep = solve(P)
                done.append((idx, P, rep, sv, ss))
        if self._texts is None:
            self._texts = [formats.instance_to_json(i.coords) for i in self.instances]
        acc: Counter = Counter()
        for idx, P, rep, sv, ss in done:
            acc["geometry.validate"] += sv.ns
            ns, counts = replay_solve(tracer, trace, ss, P, rep)
            add_solve(acc, ss.ns, ns, counts, rep, own_structure=True)
            # the op takes coordinates; this is what reading them from a file would add
            with tracer.span(trace, "formats.parse", op_span) as sp:
                formats.parse_instance(self._texts[idx])
            acc["formats.parse"] += sp.ns
        return [(idx, rep) for idx, _, rep, _, _ in done], op_span.ns, layer_record(acc)

    def key(self, rep) -> tuple:
        return (rep.value.hex(), rep.matching.pairs, rep.structure)

    def canonical(self, rep) -> tuple:
        return (rep.value.hex(), canonical(rep.matching.pairs), rep.structure)

    def check_item(self, idx: int, rep) -> list[str]:
        P = validate_convex_ccw(self.instances[idx].coords)
        vr = verify_matching(P, rep.matching)
        problems = []
        if not (vr.perfect and vr.non_crossing):
            problems.append("matching is not perfect and non-crossing")
        if vr.value.hex() != rep.value.hex():
            problems.append(f"bottleneck {vr.value!r} != value {rep.value!r}")
        if self.cubic_check and P.n <= CUBIC_MAX_N:
            cv, _ = cubic_solve(P)
            if cv.hex() != rep.value.hex():
                problems.append(f"cubic_solve {cv!r} != value {rep.value!r}")
        return problems


class LargeValtr(SolveWorkload):
    name = "large-valtr"
    N = 8192
    COUNT = 3

    def specs(self, seed):
        return [(self.N, "valtr", s) for s in instance_seeds(seed, self.name, self.COUNT)]

    def op_items(self, k):
        return [k % self.COUNT]


class SmallMixed(SolveWorkload):
    name = "small-mixed"
    ref_exponent = 1.2
    SIZES = (16, 32, 64, 128, 256)
    MODES = ("circle", "valtr", "cluster3")
    SEEDS_PER_CELL = 2
    cubic_check = True

    def specs(self, seed):
        cells = [(n, m) for n in self.SIZES for m in self.MODES] * self.SEEDS_PER_CELL
        seeds = instance_seeds(seed, self.name, len(cells))
        return [(n, m, s) for (n, m), s in zip(cells, seeds)]

    def op_items(self, k):
        return list(range(len(self.instances)))


def random_noncrossing_pairs(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """A random non-crossing perfect matching of n points in convex position.

    A shuffled sequence of n/2 openers and n/2 closers, read from just after
    its lowest prefix sum, is balanced; matching brackets then never cross.
    """
    steps = rng.permutation(np.repeat(np.array([1, -1], dtype=np.int8), n // 2))
    shift = (int(np.argmin(np.cumsum(steps))) + 1) % n
    stack: list[int] = []
    pairs = []
    for p in range(n):
        v = (p + shift) % n
        if steps[v] == 1:
            stack.append(v)
        else:
            pairs.append((stack.pop(), v))
    return pairs


def make_crossing(pairs: list[tuple[int, int]], rng: np.random.Generator) -> list[tuple[int, int]]:
    """Re-pair the four endpoints of two pairs so that they cross."""
    a, b = sorted(int(x) for x in rng.choice(len(pairs), 2, replace=False))
    p, q, r, s = sorted(pairs[a] + pairs[b])
    out = list(pairs)
    out[a], out[b] = (p, r), (q, s)
    return out


def bottleneck(coords, pairs) -> float:
    """Longest pair length, with the arithmetic of structure.verify_matching."""
    best = -1.0
    for a, b in pairs:
        dx = coords[b][0] - coords[a][0]
        dy = coords[b][1] - coords[a][1]
        best = max(best, dx * dx + dy * dy)
    return math.sqrt(best)


class CliVerify:
    name = "cli-verify"
    ref_exponent = 1.3
    SPECS = (
        (1024, "circle"), (1024, "valtr"), (1024, "cluster3"), (1024, "valtr"),
        (4096, "valtr"), (4096, "cluster3"), (4096, "valtr"), (4096, "cluster3"),
    )

    @staticmethod
    def crossing(idx: int) -> bool:
        return idx % 4 == 3

    def setup(self, seed: int, workdir: str, tracer: Tracer | None = None, trace: str = "setup") -> None:
        self.instances, self.paths, self.expected = [], [], []
        seeds = instance_seeds(seed, self.name, len(self.SPECS))
        for idx, ((n, mode), s) in enumerate(zip(self.SPECS, seeds)):
            inst = _generate(n, mode, s, tracer, trace)
            rng = np.random.default_rng(s)
            pairs = random_noncrossing_pairs(n, rng)
            if self.crossing(idx):
                pairs = make_crossing(pairs, rng)
            value = bottleneck(inst.coords, pairs)
            ipath = os.path.join(workdir, f"instance{idx}.json")
            mpath = os.path.join(workdir, f"matching{idx}.json")
            with open(ipath, "w", encoding="utf-8") as fh:
                fh.write(formats.instance_to_json(inst.coords))
            with open(mpath, "w", encoding="utf-8") as fh:
                json.dump({"n": n, "value": value, "pairs": pairs}, fh)
            self.instances.append(inst)
            self.paths.append((ipath, mpath))
            if self.crossing(idx):
                self.expected.append((1, "FAIL nonCrossing\n"))
            else:
                self.expected.append((0, f"OK perfect nonCrossing value={formats.fmt17(value)} "))

    def op_items(self, k: int) -> list[int]:
        return list(range(len(self.paths)))

    def run_item(self, idx: int) -> tuple[int, str]:
        ipath, mpath = self.paths[idx]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", ipath, mpath])
        return code, buf.getvalue()

    def op(self, k: int) -> list:
        return [(idx, self.run_item(idx)) for idx in self.op_items(k)]

    def traced_op(self, k: int, tracer: Tracer, trace: str):
        """The op under spans, then its stages replayed; (results, op ns, layers).

        The op calls neither dp_core nor solver. Their metrics here come from
        solving each instance after the op, so that a change to them can be
        seen to run on these inputs while the op's own time stays put.
        """
        done = []
        with tracer.span(trace, "op") as op_span:
            for idx in self.op_items(k):
                with tracer.span(trace, "cli.verify", op_span) as sc:
                    out = self.run_item(idx)
                done.append((idx, out, sc))
        acc: Counter = Counter()
        for idx, _, sc in done:
            texts = []
            for path in self.paths[idx]:
                with open(path, encoding="utf-8") as fh:
                    texts.append(fh.read())

            def stage(name, fn, *args):
                with tracer.span(trace, name, sc) as s:
                    out = fn(*args)
                acc[name] += s.ns
                return out

            points, md = stage(
                "formats.parse",
                lambda: (formats.parse_instance(texts[0]), formats.parse_matching(texts[1])),
            )
            P = stage("geometry.validate", validate_convex_ccw, points)
            M = Matching.of(P.n, md["pairs"])
            vr = stage("structure.verify", verify_matching, P, M)
            if vr.perfect and vr.non_crossing:
                stage("structure.decompose", cascade_decomposition, P, M)
            with tracer.span(f"{trace}/solve", "solver.solve") as ss:
                rep = solve(P)
            ns, counts = replay_solve(tracer, f"{trace}/solve", ss, P, rep)
            add_solve(acc, ss.ns, ns, counts, rep, own_structure=False)
        return [(idx, out) for idx, out, _ in done], op_span.ns, layer_record(acc)

    def key(self, out: tuple[int, str]) -> tuple[int, str]:
        return out

    canonical = key

    def check_item(self, idx: int, out: tuple[int, str]) -> list[str]:
        code, text = out
        want_code, want = self.expected[idx]
        if self.crossing(idx):
            ok = text == want
        else:
            ok = text.startswith(want) and text.count("\n") == 1 and text.endswith("\n")
        if code != want_code or not ok:
            return [f"got exit {code} {text!r}, expected exit {want_code} {want!r}"]
        return []


WORKLOADS = {w.name: w for w in (LargeValtr, SmallMixed, CliVerify)}

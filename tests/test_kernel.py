"""The compiled row kernel as a file of the package: where its source
lives, how its build fails or races, that it compiles without warnings and
that it runs clean under the address, undefined-behaviour and thread
sanitizers. The kernel's results are checked in test_dp_core.py."""
import os
import shutil
import struct
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import bnmatch
from bnmatch import dp_core, formats, gen_circle, solve, validate_convex_ccw
from bnmatch.cli import EXIT_BUILD, EXIT_OK
from conftest import forced_tile, parabola_cap

SOLVE = "import bnmatch; print(bnmatch.solve(bnmatch.gen_circle(64, 1)).value.hex())"


def test_package_holds_the_kernel_source():
    source = resources.files("bnmatch").joinpath("_rowkernel.c")
    assert source.is_file()
    assert b"bn_fill" in source.read_bytes()


def _fresh_copy(tmp_path: Path) -> Path:
    """A copy of the package with an empty cache; returns its __pycache__."""
    shutil.copytree(Path(bnmatch.__file__).parent, tmp_path / "bnmatch",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "bnmatch" / "__pycache__"


def _run(tmp_path: Path, args, **env) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(tmp_path), **env}, cwd=tmp_path)


def _libraries(cache: Path) -> list[str]:
    return sorted(p.name for p in cache.glob("_rowkernel.*")) if cache.exists() else []


def test_no_compiler_is_a_named_error(tmp_path):
    cache = _fresh_copy(tmp_path)
    P = gen_circle(16, 3)
    (tmp_path / "inst.json").write_text(formats.instance_to_json(P.coords()))
    rep = solve(P)
    (tmp_path / "match.json").write_text(formats.matching_to_json(
        P.n, rep.value, rep.matching.pairs, rep.structure, rep.cascades, rep.candidate_count))

    lib = _run(tmp_path, ["-c", "from bnmatch import errors, gen_circle, solve\n"
                                "try:\n    solve(gen_circle(8, 0))\n"
                                "except errors.KernelBuildError as e:\n    print(e.code, e)\n"],
               PATH="")
    assert lib.returncode == 0, lib.stderr
    assert lib.stdout.startswith("KernelBuild KernelBuild: cannot run cc:"), lib.stdout

    cli = _run(tmp_path, ["-m", "bnmatch.cli", "solve", "inst.json"], PATH="")
    assert cli.returncode == EXIT_BUILD == 5
    assert cli.stderr.startswith("KernelBuild: cannot run cc:") and cli.stdout == ""

    # verify needs no compiler: it neither builds nor loads the kernel
    ok = _run(tmp_path, ["-m", "bnmatch.cli", "verify", "inst.json", "match.json"], PATH="")
    assert ok.returncode == EXIT_OK, ok.stderr
    assert ok.stdout.startswith("OK perfect nonCrossing")
    assert _libraries(cache) == []


def test_bench_builds_the_kernel_before_its_header(tmp_path):
    # bench builds the kernel before it times anything, so a failed build is
    # a named error before any output, in the process or through its children
    cache = _fresh_copy(tmp_path)
    bench = ["-m", "bnmatch.cli", "bench", "--sizes", "8", "--reps", "1"]
    for extra in ([], ["--json", "out.json"]):
        run = _run(tmp_path, bench + extra, PATH="")
        assert run.returncode == EXIT_BUILD, (extra, run.stderr)
        assert run.stderr.startswith("KernelBuild: cannot run cc:") and run.stdout == "", extra
        # the cubic baseline needs no compiler
        cubic = _run(tmp_path, bench + extra + ["--algo", "cubic"], PATH="")
        assert cubic.returncode == EXIT_OK, (extra, cubic.stderr)
        assert cubic.stdout.startswith("n,rep,seed,elapsed_ns,value,rep_cpu_ns\n8,0,0,")
    assert _libraries(cache) == []


def test_parallel_first_builds_leave_one_library(tmp_path):
    cache = _fresh_copy(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    procs = [subprocess.Popen([sys.executable, "-c", SOLVE], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path)
             for _ in range(2)]
    outs = [p.communicate() for p in procs]
    assert [p.returncode for p in procs] == [0, 0], [err for _, err in outs]
    assert outs[0][0] == outs[1][0] == solve(gen_circle(64, 1)).value.hex() + "\n"
    libs = _libraries(cache)
    assert len(libs) == 1 and libs[0].endswith(".so"), libs
    # the library is used as built from then on
    again = _run(tmp_path, ["-c", SOLVE], PATH="")
    assert again.returncode == 0 and again.stdout == outs[0][0], again.stderr
    assert _libraries(cache) == libs


def test_build_removes_stale_libraries(tmp_path):
    # a build removes the libraries of earlier sources from the cache, and
    # leaves the temporary file of a build under way alone
    cache = _fresh_copy(tmp_path)
    cache.mkdir()
    stale, building = "_rowkernel.0123456789abcdef.so", "_rowkernel.fedcba9876543210.x1y2z3.tmp"
    for name in (stale, building):
        (cache / name).write_bytes(b"")
    run = _run(tmp_path, ["-c", SOLVE])
    assert run.returncode == 0, run.stderr
    assert run.stdout == solve(gen_circle(64, 1)).value.hex() + "\n"
    libs = _libraries(cache)
    built = [name for name in libs if name.endswith(".so")]
    assert len(built) == 1 and built[0] != stale and libs == sorted(built + [building]), libs


# removes the library after the check that it exists, as a build of another
# source sweeping the cache may: once (RACES = 1) or at every load
RACING_LOAD = """
from bnmatch import dp_core, errors, gen_circle, solve
load, races = dp_core._load, {races}
def racing(path):
    global races
    if races:
        races -= 1
        path.unlink()
    return load(path)
dp_core._load = racing
try:
    print(solve(gen_circle(64, 1)).value.hex())
except errors.KernelBuildError as e:
    print(e)
"""


def test_library_removed_before_its_load_is_built_again(tmp_path):
    cache = _fresh_copy(tmp_path)
    first = _run(tmp_path, ["-c", SOLVE])
    assert first.returncode == 0, first.stderr
    libs = _libraries(cache)
    assert len(libs) == 1, libs

    run = _run(tmp_path, ["-c", RACING_LOAD.format(races=1)])
    assert run.returncode == 0, run.stderr
    assert run.stdout == first.stdout
    assert _libraries(cache) == libs

    # removed again after the rebuild: a named error, not a bare OSError
    run = _run(tmp_path, ["-c", RACING_LOAD.format(races=2)])
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("KernelBuild: cannot load "), run.stdout


def _kernel_source() -> Path:
    return Path(str(resources.files("bnmatch").joinpath("_rowkernel.c")))


def test_kernel_compiles_without_warnings():
    done = subprocess.run(["cc", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                           "-ffp-contract=off", str(_kernel_source())],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _gcc_runtime(name: str) -> str | None:
    """gcc's path to the sanitizer runtime ``name``, or None where it names
    no existing file."""
    try:
        path = subprocess.run(["gcc", f"-print-file-name={name}"], capture_output=True,
                              text=True).stdout.strip()
    except OSError:
        return None
    return path if os.path.isabs(path) and os.path.isfile(path) else None


# the tile-seam sweep, solved at every forced tile and the default, at strides
# 1 and 3 and the default, through the kernel at the path in argv[1]; at each
# stride, the 3-chain search against a +inf incumbent, every arc to n/2 from
# and to the anchors 0, 1, n/2 and n - 1 (blocks of stride - 1 rows, the last
# window wrapping) and a full-circle walk from each (blocks of stride rows)
SANITIZED_SWEEP = """
import math
import sys
from unittest import mock
from bnmatch import dp_core, solve, solver
from conftest import TILES, forced_stride, forced_tile, tile_seam_inputs
lib = dp_core._load(sys.argv[1])
with mock.patch.object(dp_core, "_kernel", lambda: lib):
    for _, P in tile_seam_inputs():
        n = P.n
        for stride in (1, 3, None):
            with forced_stride(stride or dp_core.checkpoint_stride(n)):
                for tile in TILES + [None]:
                    with forced_tile(*(tile or dp_core.fill_tile(n))):
                        solve(P)
                T = dp_core.build_subproblem_table(P)
            solver._three_chain(T, math.inf)
            for a in (0, 1, n // 2, n - 1):
                T.arc_values(a, a - 1, n // 2)
                dp_core.reconstruct(T, a, n)
print("swept")
"""


def test_kernel_runs_clean_under_sanitizers(tmp_path):
    asan, ubsan = _gcc_runtime("libasan.so"), _gcc_runtime("libubsan.so")
    if not (asan and ubsan):
        pytest.skip("gcc names no sanitizer runtime")
    lib = tmp_path / "rowkernel-asan.so"
    built = subprocess.run(["gcc", "-O1", "-g", "-ffp-contract=off", "-fPIC", "-shared", "-pthread",
                            "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
                            "-x", "c", str(_kernel_source()), "-o", str(lib)],
                           capture_output=True, text=True)
    assert built.returncode == 0, built.stderr
    package = Path(bnmatch.__file__).parent.parent
    tests = Path(__file__).parent
    run = subprocess.run(
        [sys.executable, "-c", SANITIZED_SWEEP, str(lib)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(package), str(tests)]),
             "LD_PRELOAD": f"{asan}:{ubsan}", "ASAN_OPTIONS": "detect_leaks=0"})
    assert run.returncode == 0 and run.stdout == "swept\n", run.stderr[-4000:]
    assert "Sanitizer" not in run.stderr and "runtime error" not in run.stderr, run.stderr[-4000:]


# runs bn_fill with one thread and with two on each case read from stdin (n,
# stride, h, w, then the n xs and the n ys), growing the candidates' arrays as
# build_subproblem_table does, but from empty arrays, not its room for 16, on
# purpose: so every case grows. It compares S, the edges and the candidates
# with their bases, in (i, j) order, bit for bit; prints each case's count
# of candidates and growths with one thread and with two. Built with
# NO_THREAD, its pthread_create fails, so bn_fill runs the two-thread call alone
TSAN_DRIVER = r"""
#ifdef NO_THREAD
#define _GNU_SOURCE
#include <errno.h>
#include <pthread.h>
#define pthread_create(id, attr, entry, arg) ((void)(id), (void)(attr), (void)(entry), (void)(arg), EAGAIN)
#endif
#include "rowkernel.c"
#include <stdio.h>
#include <stdlib.h>

typedef struct {
    idx i, j;
    double base;
} arc;

typedef struct {
    double *S, *e;
    arc *arcs;
    idx count, grows;
} result;

static int by_arc(const void *p, const void *q)
{
    const arc *a = p, *b = q;
    return a->i != b->i ? (a->i > b->i) - (a->i < b->i) : (a->j > b->j) - (a->j < b->j);
}

static result run(const double *x, const double *y, idx n, idx stride, idx h, idx w, idx threads)
{
    idx half = n / 2, rows = half / stride + 1 + (half % stride != 0), kmax = 0, cap = 0;
    idx *reach = malloc(n * sizeof *reach), st[3] = {1, 0, 0}, *ij = NULL;
    bn_reach(x, y, n, reach);
    for (idx s = 0; s < n; s++)
        kmax = reach[s] > kmax ? reach[s] : kmax;
    idx tn = w + 2 * h < n ? w + 2 * h : n;
    double *pp = malloc(2 * n * sizeof *pp), *tile = malloc(threads * 2 * tn * sizeof *tile);
    double *bases = NULL;
    result r = {calloc(rows * n, sizeof(double)), malloc(n * sizeof(double)), NULL, 0, 0};
    while (bn_fill(x, y, r.e, n, r.S, stride, reach, kmax, h, w, pp, tile, threads, st, ij, bases,
                   cap)) {
        cap = 2 * cap > st[1] + st[2] ? 2 * cap : st[1] + st[2];
        cap = cap > 16 ? cap : 16;
        ij = realloc(ij, 2 * cap * sizeof *ij);
        bases = realloc(bases, cap * sizeof *bases);
        r.grows++;
    }
    r.count = st[1];
    r.arcs = malloc((r.count + 1) * sizeof *r.arcs);
    for (idx c = 0; c < r.count; c++)
        r.arcs[c] = (arc){ij[2 * c], ij[2 * c + 1], bases[c]};
    qsort(r.arcs, r.count, sizeof *r.arcs, by_arc);
    free(reach), free(pp), free(tile), free(ij), free(bases);
    return r;
}

int main(void)
{
    idx head[4];
    while (fread(head, sizeof(idx), 4, stdin) == 4) {
        idx n = head[0], stride = head[1], h = head[2], w = head[3];
        double *x = malloc(2 * n * sizeof *x), *y = x + n;
        if (fread(x, sizeof *x, 2 * n, stdin) != (size_t)(2 * n))
            return 2;
        result one = run(x, y, n, stride, h, w, 1), two = run(x, y, n, stride, h, w, 2);
        idx rows = n / 2 / stride + 1 + (n / 2 % stride != 0);
        if (one.count != two.count || memcmp(one.S, two.S, rows * n * sizeof(double)) ||
            memcmp(one.e, two.e, n * sizeof(double)) ||
            memcmp(one.arcs, two.arcs, one.count * sizeof(arc))) {
            printf("differ %td %td %td\n", n, h, w);
            return 1;
        }
        printf("%td %td %td %td %td %td\n", n, h, w, one.count, one.grows, two.grows);
        for (int i = 0; i < 2; i++) {
            result r = i ? two : one;
            free(r.S), free(r.e), free(r.arcs);
        }
        free(x);
    }
    return 0;
}
"""

# tiles under which the candidates of parabola caps of n = 30 ... 512 outgrow
# the arrays 1 to 3 times
TSAN_TILES = [(2, 3), (5, 7), (5, 64), (16, 96)]


def test_threaded_fill_runs_clean_under_thread_sanitizer(tmp_path):
    # a C driver: Python itself does not start under a preloaded libtsan on
    # every host. The target clones are cut out as in the scalar build, since
    # the sanitizer faults in the clones' resolvers
    if not _gcc_runtime("libtsan.so"):
        pytest.skip("gcc names no thread sanitizer runtime")
    source = _kernel_source().read_bytes()
    clones = b'__attribute__((target_clones("avx512f", "avx2", "default")))'
    assert source.count(clones) == 1
    (tmp_path / "rowkernel.c").write_bytes(source.replace(clones, b""))
    (tmp_path / "driver.c").write_text(TSAN_DRIVER)
    cases, expected = b"", []
    for n in (30, 64, 250, 512):
        P = validate_convex_ccw(parabola_cap(n))
        for h, w in TSAN_TILES:
            cases += struct.pack(f"4n{2 * n}d", n, dp_core.checkpoint_stride(n), h, w,
                                 *P.xs, *P.ys)
            with forced_tile(h, w):
                expected.append((n, h, w, len(dp_core.build_subproblem_table(P).necessary)))

    def driven(name, *defines):
        built = subprocess.run(["gcc", "-O1", "-g", "-ffp-contract=off", "-pthread",
                                "-fsanitize=thread", *defines, "driver.c", "-o", name],
                               capture_output=True, text=True, cwd=tmp_path)
        assert built.returncode == 0, built.stderr
        run = subprocess.run([str(tmp_path / name)], input=cases, capture_output=True,
                             env={**os.environ, "TSAN_OPTIONS": "halt_on_error=1"}, timeout=600)
        out, err = run.stdout.decode(), run.stderr.decode(errors="replace")
        assert run.returncode == 0 and "ThreadSanitizer" not in err, (name, out, err[-4000:])
        return [tuple(map(int, line.split())) for line in out.splitlines()]

    got = driven("driver")
    assert [case[:4] for case in got] == expected
    # a block overflows by its own count, whichever thread ran which strip:
    # one and two threads grow the arrays the same number of times
    assert {case[4] for case in got} == {1, 2, 3} and all(case[4] == case[5] for case in got)
    # where no worker starts, the two-thread call runs alone, bit for bit
    assert driven("driver-nothread", "-DNO_THREAD") == got

"""The compiled row kernel as a file of the package: where its source
lives, how its build fails or races, that it compiles without warnings and
that it runs clean under the address and undefined-behaviour sanitizers.
The kernel's results are checked in test_dp_core.py."""
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import bnmatch
from bnmatch import formats, gen_circle, solve
from bnmatch.cli import EXIT_BUILD, EXIT_OK

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
# 1 and 3 and the default, through the kernel at the path in argv[1]
SANITIZED_SWEEP = """
import sys
from unittest import mock
from bnmatch import dp_core, solve
from conftest import TILES, forced_stride, forced_tile, tile_seam_inputs
lib = dp_core._load(sys.argv[1])
with mock.patch.object(dp_core, "_kernel", lambda: lib):
    for _, P in tile_seam_inputs():
        for stride in (1, 3, None):
            for tile in TILES + [None]:
                with forced_stride(stride or dp_core.checkpoint_stride(P.n)):
                    with forced_tile(*(tile or dp_core.fill_tile(P.n))):
                        solve(P)
print("swept")
"""


def test_kernel_runs_clean_under_sanitizers(tmp_path):
    asan, ubsan = _gcc_runtime("libasan.so"), _gcc_runtime("libubsan.so")
    if not (asan and ubsan):
        pytest.skip("gcc names no sanitizer runtime")
    lib = tmp_path / "rowkernel-asan.so"
    built = subprocess.run(["gcc", "-O1", "-g", "-ffp-contract=off", "-fPIC", "-shared",
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

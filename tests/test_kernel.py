"""The compiled row kernel as a file of the package: where its source
lives, and how its build fails or races. The kernel's results are checked
in test_dp_core.py."""
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

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

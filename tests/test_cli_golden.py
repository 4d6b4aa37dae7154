"""Same outputs: every recorded CLI run repeats byte for byte.

`cli_golden.jsonl` holds one run per line: its argv, exit code, stdout,
stderr and, for `erase -o`, the file it wrote.  The runs cover every
command on every corpus file, text and `--json`, the error paths, and a
non-left-linear system this file writes itself.  Paths are relative to
a scratch directory holding a copy of `corpus/`.

Regenerate after an intended change of output with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of the golden file.
"""

import io
import json
import os
import random
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.jsonl"

NONLINEAR = "nonlinear.trs"
NONLINEAR_TEXT = (
    "# eq binds x twice: the one system here that fails left-linearity\n"
    "sort Nat\n"
    "cons Z : Nat\n"
    "cons S : Nat -> Nat\n"
    "fun eq : Nat Nat -> Nat\n"
    "fun k : Nat Nat -> Nat\n"
    "pragma terminating\n"
    "rule eq(x, x) -> S(Z)\n"
    "rule eq(x, y) -> Z\n"
    "rule k(x, y) -> x\n"
)
OUTPUT = "erased_out.trs"


def _setup(workdir: Path) -> None:
    shutil.copytree(ROOT / "corpus", workdir / "corpus")
    (workdir / NONLINEAR).write_text(NONLINEAR_TEXT)


def _run(argv: list[str]) -> dict:
    from redarg.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    record = {"argv": argv, "exit": code, "stdout": out.getvalue(),
              "stderr": err.getvalue()}
    if Path(OUTPUT).exists():
        record["output"] = Path(OUTPUT).read_text()
        os.remove(OUTPUT)
    return record


def _argvs() -> list[list[str]]:
    """The recorded runs; run in a directory prepared by _setup."""
    from redarg.oracle import random_ground_term
    from redarg.terms import format_term
    from redarg.trs import parse_trs

    files = sorted(str(p) for p in Path("corpus").rglob("*.trs")) + [NONLINEAR]
    runs: list[list[str]] = []
    for f in files:
        trs = parse_trs(Path(f).read_text())
        positions = [(g.name, i) for g in trs.defined for i in range(1, g.arity + 1)]
        for json_flag in ([], ["--json"]):
            runs += [
                ["check", f, *json_flag],
                ["analyze", f, *json_flag],
                ["erase", f, *json_flag],
                ["erase", f, "--reduced", "--suffix", "'", *json_flag],
                ["verify", f, "--seed", "7", "--trials", "50", *json_flag],
            ]
        runs += [["erase", f, "--reduced", "--rho", f"{g}:{i}"] for g, i in positions]
        for g, i in positions:
            for json_flag in ([], ["--json"]):
                runs.append(["oracle", f, "-f", g, "-i", str(i), "--ctx-depth", "2",
                             "--term-depth", "2", "--max-cases", "300", *json_flag])
        rng = random.Random(f)
        for sort in trs.sorts:
            if sort not in trs.least_ground_terms:
                continue
            goal = format_term(random_ground_term(trs, sort, 4, rng))
            runs += [
                ["eval", f, "-e", goal, "--trace", "--count-steps"],
                ["eval", f, "-e", goal, "--strategy", "lo", "--json"],
                ["eval", f, "-e", goal, "--fuel", "1"],
            ]
    runs += [
        ["bench", "corpus"],
        ["bench", "corpus", "--json"],
        ["erase", "corpus/applast.trs", "--reduced", "--suffix", "'", "-o", OUTPUT],
        ["erase", "corpus/applast.trs", "--json", "-o", OUTPUT],
        # error paths
        ["oracle", "corpus/applast.trs", "-f", "nosuch", "-i", "1"],
        ["oracle", "corpus/applast.trs", "-f", "applast", "-i", "5", "--json"],
        ["erase", "corpus/applast.trs", "--rho", "nosuch:1"],
        ["erase", "corpus/applast.trs", "--rho", "applast"],
        ["erase", "corpus/applast.trs", "--rho", "applast:one"],
        ["erase", "corpus/applast.trs", "--rho", "applast:3", "--json"],
        ["eval", "corpus/bogus.trs", "-e", "loop(x, Z, Z)"],
        ["eval", "corpus/bogus.trs", "-e", "loop(Z, Z, Z) )"],
        ["eval", "corpus/bogus.trs", "-e", "nosuch(Z)"],
        ["analyze", "corpus/does_not_exist.trs", "--json"],
        ["bench", "corpus/negative"],
        ["verify", "corpus/bogus.trs", "--trials", "0"],
    ]
    return runs


def _load() -> list[dict]:
    return [json.loads(line) for line in GOLDEN.read_text().splitlines()]


COMMANDS = ("analyze", "bench", "check", "erase", "eval", "oracle", "verify")


@pytest.fixture(scope="module")
def replayed(tmp_path_factory) -> list[tuple[dict, dict]]:
    workdir = tmp_path_factory.mktemp("golden")
    _setup(workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return [(rec, _run(rec["argv"])) for rec in _load()]
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_outputs_match_golden(replayed, command):
    mismatches = [
        (want, got) for want, got in replayed
        if want["argv"][0] == command and want != got
    ]
    if mismatches:
        want, got = mismatches[0]
        pytest.fail(
            f"{len(mismatches)} run(s) of {command} differ; first: "
            f"{' '.join(want['argv'])}\nwant: {json.dumps(want, indent=1)}\n"
            f"got:  {json.dumps(got, indent=1)}"
        )


def test_golden_covers_every_corpus_file():
    recorded = {r["argv"][1] for r in _load() if r["argv"][0] == "check"}
    corpus = {str(p.relative_to(ROOT)) for p in (ROOT / "corpus").rglob("*.trs")}
    assert recorded == corpus | {NONLINEAR}


def _regenerate() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _setup(Path(tmp))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            records = [_run(argv) for argv in _argvs()]
        finally:
            os.chdir(cwd)
    GOLDEN.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    print(f"wrote {len(records)} runs to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()

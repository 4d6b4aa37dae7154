"""The three workloads: how each operation drives the redarg CLI and how
its output is checked against the answer gen.py built in.

An operation is one oracle probe, one system through its four pipeline
commands, or one eval goal.  Its outcome is "ok", "incomplete" (a sound
answer that misses something the input is built to have, such as the
positions past the analysis round cap), "wrong" (an answer that
contradicts the known one) or "error" (an exception or an exit code the
command documents for failures).  Every outcome but "ok" counts as a
failed operation; "wrong" also makes the run incorrect.
"""

from __future__ import annotations

import io
import json
import re
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field


@dataclass
class OpResult:
    name: str
    outcome: str = "ok"
    detail: str = ""
    seconds: float = 0.0  # all of the operation's commands
    latency: float = 0.0  # the command whose latency the workload reports
    work: int = 0  # cases checked, verify trials or rewrite steps
    work_seconds: float = 0.0  # time of the commands that did that work
    pinned: dict = field(default_factory=dict)  # counts that must repeat exactly

    def fail(self, outcome: str, detail: str) -> None:
        # the first finding decides; "wrong" outranks the others
        if self.outcome == "ok" or (outcome == "wrong" and self.outcome != "wrong"):
            self.outcome, self.detail = outcome, detail


def run_cli(cli, argv: list[str]) -> tuple[object, str, float]:
    """Run redarg.cli.main in-process; returns (exit code or the exception
    raised, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # counted as a failed operation, never fatal
        rc = exc
    return rc, out.getvalue(), time.perf_counter() - t0


def _command(op: OpResult, cli, argv: list[str], ok_codes=(0,)):
    """Run one command; the parsed JSON document, or None after recording
    the failure."""
    rc, out, seconds = run_cli(cli, argv)
    op.seconds += seconds
    if isinstance(rc, BaseException):
        op.fail("error", f"{argv[0]}: {type(rc).__name__}: {rc}")
        return None, seconds
    if rc not in ok_codes:
        op.fail("error", f"{argv[0]}: exit code {rc}")
        return None, seconds
    try:
        return json.loads(out), seconds
    except ValueError:
        op.fail("wrong", f"{argv[0]}: output is not JSON")
        return None, seconds


# ---------------------------------------------------------------------------
# oracle-probes


def oracle_op(cli, probe: dict, max_cases: int, depth: int) -> OpResult:
    op = OpResult(probe["name"])
    refutation = probe["refutation"]
    argv = ["oracle", probe["file"], "-f", probe["symbol"], "-i", str(probe["index"]),
            "--ctx-depth", str(depth), "--term-depth", str(depth),
            "--max-cases", str(max_cases), "--json"]
    doc, seconds = _command(op, cli, argv, ok_codes=(1,) if refutation else (0,))
    op.latency = op.work_seconds = seconds
    if doc is None:
        return op
    if refutation is None:
        if doc["verdict"] != "no-counterexample":
            op.fail("wrong", f"refuted a redundant position: {doc['counterexample']}")
        elif doc["cases_checked"] != probe["cases"]:
            op.fail("wrong", f"checked {doc['cases_checked']} cases, expected {probe['cases']}")
        op.work = doc.get("cases_checked") or 0
        op.pinned = {"cases_checked": doc.get("cases_checked"),
                     "skipped_truncated": doc.get("skipped_truncated")}
    else:
        got = doc.get("counterexample") or {}
        found = {k: got.get(k) for k in refutation}
        if doc["verdict"] != "counterexample" or found != refutation:
            op.fail("wrong", f"expected counterexample {refutation}, got {found}")
        op.pinned = found
    return op


# ---------------------------------------------------------------------------
# pipeline

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|->|[(),]")


def _canonical_rules(rules: list[str], symbols: set[str]) -> Counter:
    """Rules up to variable renaming: identifiers that are not declared
    symbols are numbered by first occurrence."""
    out: Counter = Counter()
    for rule in rules:
        names: dict[str, str] = {}
        toks = [
            names.setdefault(t, f"v{len(names)}")
            if (t[0].isalpha() or t[0] == "_") and t not in symbols
            else t
            for t in _TOKEN.findall(rule)
        ]
        out[" ".join(toks)] += 1
    return out


def _symbols(sig: list[str]) -> set[str]:
    return {ln.split()[1] for ln in sig if ln.split()[0] in ("cons", "fun")}


def _same_system(text: str, sig: list[str], rules: list[str]) -> bool:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    got_sig = [ln for ln in lines if ln.split()[0] in ("sort", "cons", "fun")]
    got_rules = [ln[len("rule "):] for ln in lines if ln.startswith("rule ")]
    symbols = _symbols(sig)
    return (sorted(got_sig) == sorted(sig)
            and _canonical_rules(got_rules, symbols) == _canonical_rules(rules, symbols))


def pipeline_op(cli, system: dict, suffix: str, trials: int, depth: int,
                verify_seed: int) -> OpResult:
    op = OpResult(system["name"], work=trials)
    path = system["file"]

    doc, _ = _command(op, cli, ["check", path, "--json"])
    if doc is not None:
        props = {k: doc["properties"][k] for k in system["check"]}
        if props != system["check"]:
            op.fail("wrong", f"check: {props} != {system['check']}")

    doc, op.latency = _command(op, cli, ["analyze", path, "--json"])
    found = None
    if doc is not None:
        found = doc["redundant"]
        expected = system["redundant"]
        if found != expected:
            sound = all(set(v) <= set(expected.get(f, ())) for f, v in found.items())
            op.fail("incomplete" if sound else "wrong",
                    f"analyze found {sum(map(len, found.values()))} of "
                    f"{sum(map(len, expected.values()))} redundant positions "
                    f"in {doc['rounds']} rounds")

    doc, _ = _command(op, cli, ["erase", path, "--reduced", "--suffix", suffix, "--json"])
    if doc is not None:
        if found is not None and doc["redundant"] != found:
            op.fail("wrong", "erase and analyze disagree on the redundant positions")
        if bool(doc["warnings"]) != system["warns"]:
            op.fail("wrong", f"erase warnings: {doc['warnings']}")
        if doc["redundant"] == system["redundant"] and not _same_system(
                doc["trs"], system["erased_sig"], system["erased_rules"]):
            op.fail("wrong", "reduced erasure differs from the expected system")

    doc, op.work_seconds = _command(
        op, cli, ["verify", path, "--trials", str(trials), "--depth", str(depth),
                  "--seed", str(verify_seed), "--suffix", suffix, "--json"],
        ok_codes=(0, 1))
    if doc is not None:
        tally = doc["agree"] + doc["disagree"] + doc["indeterminate"] + doc["nonvalue"]
        if doc["disagree"] or doc["trials"] != trials or tally != trials:
            op.fail("wrong", f"verify: {doc['disagree']} disagreements, {tally} trials")
    return op


# ---------------------------------------------------------------------------
# eval-deep


def eval_op(cli, goal: dict) -> OpResult:
    op = OpResult(goal["name"])
    doc, seconds = _command(op, cli, ["eval", goal["file"], "-e", goal["expr"],
                                      "--count-steps", "--json"])
    op.latency = op.work_seconds = seconds
    if doc is None:
        return op
    op.work = doc["steps"]
    got = (doc["kind"], doc["result"], doc["steps"])
    want = ("value", goal["result"], goal["steps"])
    if got != want:
        op.fail("wrong", f"eval gave {got}, expected {want}")
    return op

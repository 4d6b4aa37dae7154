"""Command-line interface.

Exit codes: 0 success or informational report; 1 negative finding
(counterexample, disagreement, bench mismatch); 2 parse or
well-formedness error; 3 fatal fuel exhaustion; 4 precondition unmet.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Iterable, Optional

from .analysis import analyze
from .erasure import erase_trs, reduced_erasure
from .errors import RedargError, WellFormednessError
from .oracle import Counterexample, EnumBounds, brute_force_redundant, differential_verify
from .rewrite import DEFAULT_FUEL, normalize
from .terms import format_term, is_ground
from .trs import Trs, build_property_report, format_trs, parse_term, parse_trs, rules_alpha_equal

STRATEGY_ALIASES = {
    "leftmost-innermost": "leftmost-innermost",
    "innermost": "leftmost-innermost",
    "li": "leftmost-innermost",
    "leftmost-outermost": "leftmost-outermost",
    "outermost": "leftmost-outermost",
    "lo": "leftmost-outermost",
}


def _count(text: str) -> int:
    """A non-negative integer: the type of every numeric option."""
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not an integer >= 0: {text!r}")


def _default_fuel() -> int:
    env = os.environ.get("REDARG_FUEL")
    if env is None:
        return DEFAULT_FUEL
    try:
        return _count(env)
    except argparse.ArgumentTypeError as exc:
        raise WellFormednessError(f"REDARG_FUEL is {exc}")


def _load(path: str) -> Trs:
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise WellFormednessError(f"cannot read {path}: {exc}")
    return parse_trs(text)


def _index_sets(entries: dict[str, frozenset[int]]) -> dict[str, list[int]]:
    """The non-empty index sets, by symbol name: how JSON shows a
    redundancy set or an erasure."""
    return {name: sorted(v) for name, v in sorted(entries.items()) if v}


def _checked_indices(
    trs: Trs, name: str, indices: Iterable[int], option: str = ""
) -> frozenset[int]:
    """The argument indices of a symbol named on the command line.  Fails
    on an unknown symbol first, then on a parse error that reading the
    indices raises, then on an index the symbol does not have."""
    sym = trs.symbol_map.get(name)
    if sym is None:
        raise WellFormednessError(f"unknown symbol {name}" + (f" in {option}" if option else ""))
    indices = frozenset(indices)
    for i in indices:
        if not 1 <= i <= sym.arity:
            where = f"{option} " if option else ""
            raise WellFormednessError(f"{where}index {i} out of range for {name}/{sym.arity}")
    return indices


# Every command returns its exit code, its JSON document without the
# command and input fields, and its text lines; main prints one of them.
Report = tuple[int, dict, list[str]]


# ---------------------------------------------------------------------------
# check

def cmd_check(args) -> Report:
    report = build_property_report(_load(args.file), fuel=args.fuel)
    failed = report.failed_gates

    def gate(label: str, name: str) -> str:
        return f"{label}: " + (f"no ({failed[name]})" if name in failed else "yes")

    if report.completely_defined:
        defined = "yes"
    elif report.cd_witness is not None:
        defined = f"no (witness {format_term(report.cd_witness)})"
    else:
        defined = f"no ({report.cd_reason})"
    lines = [
        gate("left-linear", "left-linear"),
        gate("constructor system", "constructor-system"),
        f"completely defined: {defined}",
        f"confluent: {failed.get('confluent', report.confluent)}",
        gate("seval-defined", "seval-defined"),
        "terminating attested: " + ("yes" if report.terminating_attested else "no"),
    ]
    witness = report.confluence_witness
    properties = {
        k: getattr(report, k)
        for k in ("left_linear", "constructor_system", "completely_defined", "cd_reason",
                  "confluent", "seval_defined", "seval_reason", "terminating_attested")
    }
    properties["cd_witness"] = format_term(report.cd_witness) if report.cd_witness else None
    properties["confluence_witness"] = (
        {"left": format_term(witness.left), "right": format_term(witness.right)}
        if witness
        else None
    )
    return 0, {"properties": properties}, lines


# ---------------------------------------------------------------------------
# analyze

def cmd_analyze(args) -> Report:
    trs = _load(args.file)
    result = analyze(trs, args.fuel)
    lines: list[str] = []
    for f in trs.defined:
        indices = sorted(result.redundant.get(f.name, ()))
        if not indices:
            continue
        parts = [(j.method, j.round) for j in (result.justifications[(f.name, i)] for i in indices)]
        if len(set(parts)) == 1:
            just = "{}, round {}".format(*parts[0])
        else:
            just = "; ".join(f"{m} r{r}" for m, r in parts)
        lines.append(f"{f.name}: {{{','.join(map(str, indices))}}} ({just})")
    if not lines:
        lines.append("no redundant arguments found")
    lines += [f"note: {note}" for note in result.notes]
    lines += [f"indeterminate: ({f},{i}) ran out of fuel" for f, i in result.indeterminate]
    doc = {
        "redundant": _index_sets(result.redundant),
        "justifications": [
            {
                "symbol": name,
                "index": i,
                "method": j.method,
                "round": j.round,
                "triples": [
                    {
                        "left": format_term(ev.left),
                        "right": format_term(ev.right),
                        "joinable": ev.joinable,
                        "common": format_term(ev.common) if ev.common else None,
                    }
                    for ev in j.triples
                ],
            }
            for (name, i), j in sorted(result.justifications.items())
        ],
        "notes": list(result.notes),
        "indeterminate": [list(x) for x in result.indeterminate],
        "rounds": result.rounds,
    }
    return 0, doc, lines


# ---------------------------------------------------------------------------
# erase

def _parse_rho(specs: list[str], trs: Trs) -> dict[str, frozenset[int]]:
    rho: dict[str, frozenset[int]] = {}
    for spec in specs:
        name, colon, idx_text = spec.partition(":")
        if not colon:
            raise WellFormednessError(f"bad --rho value {spec!r}, expected SYM:I[,J..]")
        try:
            indices = _checked_indices(
                trs, name, (int(p) for p in idx_text.split(",")), "--rho"
            )
        except ValueError:
            raise WellFormednessError(f"bad indices in --rho value {spec!r}")
        rho[name] = rho.get(name, frozenset()) | indices
    return rho


def cmd_erase(args) -> Report:
    trs = _load(args.file)
    rho = _parse_rho(args.rho, trs) if args.rho else analyze(trs, args.fuel).redundant
    erased, warnings = erase_trs(trs, rho, args.suffix), []
    if args.reduced:
        erased, warnings = reduced_erasure(erased)
    text = format_trs(erased)
    doc = {"reduced": bool(args.reduced), "suffix": args.suffix,
           "redundant": _index_sets(rho), "trs": text, "warnings": warnings}
    return 0, doc, text.splitlines()


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args) -> Report:
    trs = _load(args.file)
    term = parse_term(args.expr, trs)
    if not is_ground(term):
        raise WellFormednessError(f"eval goal must be ground, got {format_term(term)}")
    strategy = STRATEGY_ALIASES[args.strategy]
    outcome = normalize(term, trs, strategy, args.fuel, args.trace)
    doc = {
        "term": args.expr,
        "strategy": strategy,
        "kind": outcome.kind,
        "result": format_term(outcome.term),
        "steps": outcome.steps,
        "fuel": args.fuel,
        "trace": [str(s) for s in outcome.trace] if outcome.trace else None,
    }
    lines = [*(doc["trace"] or ()), f"{outcome.kind} {doc['result']}"]
    if args.count_steps:
        lines.append(f"steps: {outcome.steps}")
    return (3 if outcome.exhausted else 0), doc, lines


# ---------------------------------------------------------------------------
# verify

COUNTS = ("agree", "disagree", "indeterminate", "nonvalue")


def cmd_verify(args) -> Report:
    trs = _load(args.file)
    rho = analyze(trs, args.fuel).redundant
    report = differential_verify(trs, rho, trials=args.trials, depth=args.depth,
                                 seed=args.seed, fuel=args.fuel, suffix=args.suffix)
    doc = {
        "trials": report.trials,
        "depth": report.depth,
        "seed": report.seed,
        **{k: getattr(report, k) for k in COUNTS},
        "witnesses": [
            {k: format_term(getattr(w, k)) for k in ("term", "original", "erased")}
            for w in report.witnesses
        ],
    }
    lines = [
        f"trials: {doc['trials']} (depth {doc['depth']}, seed {doc['seed']})",
        *(f"{k}: {doc[k]}" for k in COUNTS),
        *(
            f"disagreement: {w['term']} ~> {w['original']} vs {w['erased']}"
            for w in doc["witnesses"]
        ),
    ]
    if report.agree + report.disagree == 0:
        doc["warnings"] = ["no trial compared two values, so agreement is vacuous"]
    return (0 if report.ok else 1), doc, lines


# ---------------------------------------------------------------------------
# oracle

def cmd_oracle(args) -> Report:
    trs = _load(args.file)
    _checked_indices(trs, args.symbol, (args.index,))
    bounds = EnumBounds(args.ctx_depth, args.term_depth, args.max_cases)
    verdict = brute_force_redundant(trs, args.symbol, args.index, bounds)
    doc = {"symbol": args.symbol, "index": args.index,
           "ctx_depth": args.ctx_depth, "term_depth": args.term_depth}
    if isinstance(verdict, Counterexample):
        cx = {
            "context": format_term(verdict.context),
            "term": format_term(verdict.term),
            "replacement": format_term(verdict.replacement),
            "seval_before": sorted(format_term(t) for t in verdict.before),
            "seval_after": sorted(format_term(t) for t in verdict.after),
        }
        doc.update(verdict="counterexample", counterexample=cx)
        lines = [
            "counterexample found",
            *(f"{k}: {cx[k]}" for k in ("context", "term", "replacement")),
            *(f"seval {w}: {{{', '.join(cx['seval_' + w])}}}" for w in ("before", "after")),
        ]
        return 1, doc, lines
    doc.update(
        verdict="no-counterexample",
        cases_checked=verdict.cases_checked,
        skipped_truncated=verdict.skipped_truncated,
        capped=verdict.capped,
        counterexample=None,
    )
    depths = f"context depth {doc['ctx_depth']}, term depth {doc['term_depth']}"
    counts = f"{doc['cases_checked']} cases, {doc['skipped_truncated']} skipped"
    if verdict.capped:
        return 0, doc, [f"no counterexample in the first {counts}; stopped at "
                        f"--max-cases, so {depths} were not fully checked"]
    return 0, doc, [f"no counterexample up to {depths} ({counts})"]


# ---------------------------------------------------------------------------
# bench

# what each key of a benchmark entry must hold
ENTRY_SHAPES = {"file": "a file name", "expected_erased": "a file name",
                "expected_redundant": "an object of lists of argument indices"}


def _fits(key: str, value: object) -> bool:
    if key != "expected_redundant":
        return isinstance(value, str)
    return isinstance(value, dict) and all(
        isinstance(v, list) and all(type(i) is int for i in v) for v in value.values())


def cmd_bench(args) -> Report:
    root = Path(args.dir)
    spec_path = root / "expectations.json"
    try:
        expectations = json.loads(spec_path.read_text())
    except OSError as exc:
        raise WellFormednessError(f"cannot read {spec_path}: {exc}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WellFormednessError(f"{spec_path} is not JSON: {exc}")
    if not isinstance(expectations, dict) or not isinstance(expectations.get("benchmarks"), list):
        raise WellFormednessError(f'{spec_path} has no "benchmarks" list')
    suffix = expectations.get("suffix", "")
    if not isinstance(suffix, str):
        raise WellFormednessError(f'{spec_path}: "suffix" {json.dumps(suffix)} is not a string')
    rows = []
    lines = []
    for entry in expectations["benchmarks"]:
        if not isinstance(entry, dict) or not ENTRY_SHAPES.keys() <= entry.keys():
            raise WellFormednessError(
                f'{spec_path}: benchmark entry {json.dumps(entry)} is not an object '
                'with "file", "expected_redundant" and "expected_erased"')
        for key, shape in ENTRY_SHAPES.items():
            if not _fits(key, entry[key]):
                raise WellFormednessError(
                    f'{spec_path}: benchmark entry {json.dumps(entry)}: "{key}" is not {shape}')
        file = entry["file"]
        trs = _load(str(root / file))
        result = analyze(trs, args.fuel)
        expected = {k: sorted(v) for k, v in entry["expected_redundant"].items()}
        redundant_ok = _index_sets(result.redundant) == expected

        erased, _warnings = reduced_erasure(erase_trs(trs, result.redundant, suffix))
        expected_trs = _load(str(root / entry["expected_erased"]))
        erased_ok = rules_alpha_equal(erased.rules, expected_trs.rules) and (
            set(erased.symbols) == set(expected_trs.symbols))

        count = sum(map(len, result.redundant.values()))
        row = {
            "file": file,
            "status": "PASS" if redundant_ok and erased_ok else "FAIL",
            "redundant_ok": redundant_ok,
            "erased_ok": erased_ok,
            "rarg": f"{count}/{count}",
            "published_rarg": entry.get("published_rarg"),
            "note": entry.get("note"),
        }
        rows.append(row)
        line = f"{Path(file).stem:<14} {row['status']}  rarg {row['rarg']}"
        if row["published_rarg"] and row["published_rarg"] != row["rarg"]:
            line += f" (published: {row['published_rarg']})"
        if row["note"]:
            line += f"  note: {row['note']}"
        lines.append(line)
    passed = sum(row["status"] == "PASS" for row in rows)
    lines.append(f"{passed}/{len(rows)} benchmarks pass")
    doc = {"rows": rows, "passed": passed, "failed": len(rows) - passed}
    return (1 if passed < len(rows) else 0), doc, lines


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redarg",
        description="Detect, remove, and verify redundant function arguments "
        "in term rewriting systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, target: str = "file"):
        p = sub.add_parser(name, help=summary)
        p.add_argument(target)
        return p

    def finish(p, fn, fuel: bool = True) -> None:
        if fuel:
            p.add_argument(
                "--fuel",
                type=_count,
                default=None,
                help="rewrite step budget (default 10000; env REDARG_FUEL)",
            )
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(fn=fn)

    finish(command("check", "structural property report"), cmd_check)
    finish(command("analyze", "find redundant arguments"), cmd_analyze)

    p = command("erase", "remove redundant arguments")
    p.add_argument("--reduced", action="store_true", help="compress the result")
    p.add_argument("--suffix", default="", help="rename erased symbols with a suffix")
    p.add_argument(
        "--rho",
        action="append",
        default=None,
        metavar="SYM:I[,J..]",
        help="erase exactly these argument positions instead of running "
        "the analysis (soundness is then the caller's responsibility)",
    )
    p.add_argument("-o", "--output", default=None, help="write to a file")
    finish(p, cmd_erase)

    p = command("eval", "evaluate a ground term")
    p.add_argument("-e", "--expr", required=True, help="ground goal term")
    p.add_argument(
        "--strategy",
        default="leftmost-innermost",
        choices=sorted(STRATEGY_ALIASES),
        help="redex selection order",
    )
    p.add_argument("--count-steps", action="store_true")
    p.add_argument("--trace", action="store_true")
    finish(p, cmd_eval)

    p = command("verify", "differentially test the erasure")
    p.add_argument("--trials", type=_count, default=200)
    p.add_argument("--depth", type=_count, default=6)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--suffix", default="")
    finish(p, cmd_verify)

    p = command("oracle", "brute-force redundancy check for one argument")
    p.add_argument("-f", "--symbol", required=True)
    p.add_argument("-i", "--index", type=int, required=True)
    p.add_argument("--ctx-depth", type=_count, default=3)
    p.add_argument("--term-depth", type=_count, default=3)
    p.add_argument("--max-cases", type=_count, default=50_000)
    finish(p, cmd_oracle, fuel=False)

    finish(command("bench", "run the benchmark corpus", "dir"), cmd_bench)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "fuel") and args.fuel is None:
            args.fuel = _default_fuel()
        code, doc, lines = args.fn(args)
    except RedargError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    for warning in doc.get("warnings", ()):
        print(f"warning: {warning}", file=sys.stderr)
    if args.json:
        where = {"dir": args.dir} if args.command == "bench" else {"file": args.file}
        out = json.dumps({"command": args.command, **where, **doc}, indent=2, sort_keys=True)
    else:
        out = "\n".join(lines)
    if getattr(args, "output", None):
        try:
            Path(args.output).write_text(out + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Exit codes: 0 success or informational report; 1 negative finding
(counterexample, disagreement, bench mismatch); 2 parse or
well-formedness error; 3 fatal fuel exhaustion; 4 precondition unmet.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .analysis import AnalysisConfig, AnalysisResult, analyze
from .erasure import erasure_from_analysis, erase_trs, reduced_erasure
from .errors import RedargError, WellFormednessError
from .oracle import (
    Counterexample,
    EnumBounds,
    brute_force_redundant,
    differential_verify,
)
from .rewrite import DEFAULT_FUEL, evaluate
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
    except OSError as exc:
        raise WellFormednessError(f"cannot read {path}: {exc}")
    return parse_trs(text)


def _emit(doc: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# check

def _property_doc(report) -> dict:
    witness = report.confluence_witness
    return {
        "left_linear": report.left_linear,
        "constructor_system": report.constructor_system,
        "completely_defined": report.completely_defined,
        "cd_witness": format_term(report.cd_witness) if report.cd_witness else None,
        "cd_reason": report.cd_reason,
        "confluent": report.confluent,
        "confluence_witness": (
            {"left": format_term(witness.left), "right": format_term(witness.right)}
            if witness
            else None
        ),
        "seval_defined": report.seval_defined,
        "seval_reason": report.seval_reason,
        "terminating_attested": report.terminating_attested,
    }


def cmd_check(args) -> int:
    trs = _load(args.file)
    report = build_property_report(trs, fuel=args.fuel)
    lines = []
    if report.left_linear:
        lines.append("left-linear: yes")
    else:
        rule, name = report.ll_witness
        lines.append(f"left-linear: no (variable {name} repeats in {rule})")
    if report.constructor_system:
        lines.append("constructor system: yes")
    else:
        lines.append(f"constructor system: no (rule: {report.cs_witness})")
    if report.completely_defined:
        lines.append("completely defined: yes")
    elif report.cd_witness is not None:
        lines.append(f"completely defined: no (witness {format_term(report.cd_witness)})")
    else:
        lines.append(f"completely defined: no ({report.cd_reason})")
    if report.confluence_witness is not None:
        lines.append(
            f"confluent: {report.confluent} (critical pair {report.confluence_witness})"
        )
    else:
        lines.append(f"confluent: {report.confluent}")
    if report.seval_defined:
        lines.append("seval-defined: yes")
    else:
        lines.append(f"seval-defined: no ({report.seval_reason})")
    lines.append(
        "terminating attested: " + ("yes" if report.terminating_attested else "no")
    )
    _emit(
        {"command": "check", "file": args.file, "properties": _property_doc(report)},
        args.json,
        lines,
    )
    return 0


# ---------------------------------------------------------------------------
# analyze

def _format_redundancy(trs: Trs, result: AnalysisResult) -> list[str]:
    lines: list[str] = []
    red = result.redundancy
    for f in trs.defined:
        indices = sorted(red.get(f.name))
        if not indices:
            continue
        parts = [
            (j.method, j.round)
            for j in (red.justifications[(f.name, i)] for i in indices)
        ]
        if len(set(parts)) == 1:
            method, rnd = parts[0]
            just = f"{method}, round {rnd}"
        else:
            just = "; ".join(f"{m} r{r}" for m, r in parts)
        body = ",".join(str(i) for i in indices)
        lines.append(f"{f.name}: {{{body}}} ({just})")
    if not lines:
        lines.append("no redundant arguments found")
    for note in result.notes:
        lines.append(f"note: {note}")
    for fname, i in result.indeterminate:
        lines.append(f"indeterminate: ({fname},{i}) ran out of fuel")
    return lines


def _analysis_doc(args, result: AnalysisResult) -> dict:
    red = result.redundancy
    return {
        "command": "analyze",
        "file": args.file,
        "redundant": {
            name: sorted(v) for name, v in sorted(red.entries.items()) if v
        },
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
            for (name, i), j in sorted(red.justifications.items())
        ],
        "notes": list(result.notes),
        "indeterminate": [list(x) for x in result.indeterminate],
        "rounds": result.rounds,
    }


def cmd_analyze(args) -> int:
    trs = _load(args.file)
    result = analyze(trs, AnalysisConfig(fuel=args.fuel))
    _emit(_analysis_doc(args, result), args.json, _format_redundancy(trs, result))
    return 0


# ---------------------------------------------------------------------------
# erase

def _parse_rho(specs: list[str], trs: Trs):
    from .erasure import SyntacticErasure

    rho = {f.name: frozenset() for f in trs.symbols}
    for spec in specs:
        if ":" not in spec:
            raise WellFormednessError(f"bad --rho value {spec!r}, expected SYM:I[,J..]")
        name, idx_text = spec.split(":", 1)
        sym = trs.symbol_map.get(name)
        if sym is None:
            raise WellFormednessError(f"unknown symbol {name} in --rho")
        try:
            indices = frozenset(int(p) for p in idx_text.split(","))
        except ValueError:
            raise WellFormednessError(f"bad indices in --rho value {spec!r}")
        bad = [i for i in indices if not 1 <= i <= sym.arity]
        if bad:
            raise WellFormednessError(
                f"--rho index {bad[0]} out of range for {name}/{sym.arity}"
            )
        rho[name] = rho[name] | indices
    return SyntacticErasure(rho)


def cmd_erase(args) -> int:
    trs = _load(args.file)
    if args.rho:
        rho = _parse_rho(args.rho, trs)
        redundant_doc: dict[str, list[int]] = {
            name: sorted(v) for name, v in sorted(rho.rho.items()) if v
        }
    else:
        result = analyze(trs, AnalysisConfig(fuel=args.fuel))
        rho = erasure_from_analysis(result.redundancy, trs)
        redundant_doc = {
            name: sorted(v)
            for name, v in sorted(result.redundancy.entries.items())
            if v
        }
    erased = erase_trs(trs, rho, args.suffix)
    warnings: list[str] = []
    if args.reduced:
        erased, warnings = reduced_erasure(erased)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    text = format_trs(erased.trs)
    if args.json:
        doc = {
            "command": "erase",
            "file": args.file,
            "reduced": bool(args.reduced),
            "suffix": args.suffix,
            "redundant": redundant_doc,
            "trs": text,
            "warnings": warnings,
        }
        out_text = json.dumps(doc, indent=2, sort_keys=True)
    else:
        out_text = text
    if args.output:
        Path(args.output).write_text(
            out_text if out_text.endswith("\n") else out_text + "\n"
        )
    else:
        print(out_text, end="" if out_text.endswith("\n") else "\n")
    return 0


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args) -> int:
    trs = _load(args.file)
    term = parse_term(args.expr, trs)
    if not is_ground(term):
        raise WellFormednessError(
            f"eval goal must be ground, got {format_term(term)}"
        )
    strategy = STRATEGY_ALIASES[args.strategy]
    outcome = evaluate(term, trs, fuel=args.fuel, strategy=strategy,
                       want_trace=args.trace)
    lines = []
    if args.trace and outcome.trace:
        lines.extend(str(step) for step in outcome.trace)
    lines.append(f"{outcome.kind} {format_term(outcome.term)}")
    if args.count_steps:
        lines.append(f"steps: {outcome.steps}")
    doc = {
        "command": "eval",
        "file": args.file,
        "term": args.expr,
        "strategy": strategy,
        "kind": outcome.kind,
        "result": format_term(outcome.term),
        "steps": outcome.steps,
        "fuel": args.fuel,
        "trace": [str(s) for s in outcome.trace] if outcome.trace else None,
    }
    _emit(doc, args.json, lines)
    return 3 if outcome.exhausted else 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    trs = _load(args.file)
    result = analyze(trs, AnalysisConfig(fuel=args.fuel))
    rho = erasure_from_analysis(result.redundancy, trs)
    report = differential_verify(
        trs,
        rho,
        trials=args.trials,
        depth=args.depth,
        seed=args.seed,
        fuel=args.fuel,
        suffix=args.suffix,
    )
    lines = [
        f"trials: {report.trials} (depth {report.depth}, seed {report.seed})",
        f"agree: {report.agree}",
        f"disagree: {report.disagree}",
        f"indeterminate: {report.indeterminate}",
        f"nonvalue: {report.nonvalue}",
    ]
    for w in report.witnesses:
        lines.append(
            f"disagreement: {format_term(w.term)} ~> "
            f"{format_term(w.original)} vs {format_term(w.erased)}"
        )
    doc = {
        "command": "verify",
        "file": args.file,
        "trials": report.trials,
        "depth": report.depth,
        "seed": report.seed,
        "agree": report.agree,
        "disagree": report.disagree,
        "indeterminate": report.indeterminate,
        "nonvalue": report.nonvalue,
        "witnesses": [
            {
                "term": format_term(w.term),
                "original": format_term(w.original),
                "erased": format_term(w.erased),
            }
            for w in report.witnesses
        ],
    }
    _emit(doc, args.json, lines)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# oracle

def cmd_oracle(args) -> int:
    trs = _load(args.file)
    if args.symbol not in trs.symbol_map:
        raise WellFormednessError(f"unknown symbol {args.symbol}")
    sym = trs.symbol_map[args.symbol]
    if not 1 <= args.index <= sym.arity:
        raise WellFormednessError(
            f"index {args.index} out of range for {sym.name}/{sym.arity}"
        )
    bounds = EnumBounds(
        ctx_depth=args.ctx_depth,
        term_depth=args.term_depth,
        max_cases=args.max_cases,
    )
    verdict = brute_force_redundant(trs, args.symbol, args.index, bounds)
    if isinstance(verdict, Counterexample):
        seval_before = sorted(format_term(t) for t in verdict.before)
        seval_after = sorted(format_term(t) for t in verdict.after)
        lines = [
            "counterexample found",
            f"context: {format_term(verdict.context)}",
            f"term: {format_term(verdict.term)}",
            f"replacement: {format_term(verdict.replacement)}",
            f"seval before: {{{', '.join(seval_before)}}}",
            f"seval after: {{{', '.join(seval_after)}}}",
        ]
        doc = {
            "command": "oracle",
            "file": args.file,
            "symbol": args.symbol,
            "index": args.index,
            "verdict": "counterexample",
            "ctx_depth": args.ctx_depth,
            "term_depth": args.term_depth,
            "counterexample": {
                "context": format_term(verdict.context),
                "term": format_term(verdict.term),
                "replacement": format_term(verdict.replacement),
                "seval_before": seval_before,
                "seval_after": seval_after,
            },
        }
        _emit(doc, args.json, lines)
        return 1
    lines = [
        f"no counterexample up to context depth {verdict.ctx_depth}, "
        f"term depth {verdict.term_depth} "
        f"({verdict.cases_checked} cases, {verdict.skipped_truncated} skipped)"
    ]
    doc = {
        "command": "oracle",
        "file": args.file,
        "symbol": args.symbol,
        "index": args.index,
        "verdict": "no-counterexample",
        "ctx_depth": verdict.ctx_depth,
        "term_depth": verdict.term_depth,
        "cases_checked": verdict.cases_checked,
        "skipped_truncated": verdict.skipped_truncated,
        "counterexample": None,
    }
    _emit(doc, args.json, lines)
    return 0


# ---------------------------------------------------------------------------
# bench

def cmd_bench(args) -> int:
    root = Path(args.dir)
    spec_path = root / "expectations.json"
    try:
        expectations = json.loads(spec_path.read_text())
    except OSError as exc:
        raise WellFormednessError(f"cannot read {spec_path}: {exc}")
    suffix = expectations.get("suffix", "")
    rows = []
    failed = 0
    for entry in expectations["benchmarks"]:
        file = entry["file"]
        trs = _load(str(root / file))
        result = analyze(trs, AnalysisConfig(fuel=args.fuel))
        found = {name: sorted(v) for name, v in result.redundancy.entries.items() if v}
        expected = {k: sorted(v) for k, v in entry["expected_redundant"].items()}
        redundant_ok = found == expected

        rho = erasure_from_analysis(result.redundancy, trs)
        erased, _warnings = reduced_erasure(erase_trs(trs, rho, suffix))
        expected_trs = parse_trs((root / entry["expected_erased"]).read_text())
        erased_ok = rules_alpha_equal(erased.trs.rules, expected_trs.rules) and set(
            f for f in erased.trs.symbols
        ) == set(f for f in expected_trs.symbols)

        ok = redundant_ok and erased_ok
        if not ok:
            failed += 1
        count = result.redundancy.total_indices()
        rarg = f"{count}/{count}"
        published = entry.get("published_rarg")
        note = entry.get("note")
        rows.append(
            {
                "file": file,
                "status": "PASS" if ok else "FAIL",
                "redundant_ok": redundant_ok,
                "erased_ok": erased_ok,
                "rarg": rarg,
                "published_rarg": published,
                "note": note,
            }
        )
    lines = []
    for row in rows:
        line = f"{Path(row['file']).stem:<14} {row['status']}  rarg {row['rarg']}"
        if row["published_rarg"] and row["published_rarg"] != row["rarg"]:
            line += f" (published: {row['published_rarg']})"
        if row["note"]:
            line += f"  note: {row['note']}"
        lines.append(line)
    lines.append(f"{len(rows) - failed}/{len(rows)} benchmarks pass")
    doc = {
        "command": "bench",
        "dir": args.dir,
        "rows": rows,
        "passed": len(rows) - failed,
        "failed": failed,
    }
    _emit(doc, args.json, lines)
    return 1 if failed else 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redarg",
        description="Detect, remove, and verify redundant function arguments "
        "in term rewriting systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fuel(p):
        p.add_argument(
            "--fuel",
            type=_count,
            default=None,
            help="rewrite step budget (default 10000; env REDARG_FUEL)",
        )

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="structural property report")
    p.add_argument("file")
    add_fuel(p)
    add_json(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("analyze", help="find redundant arguments")
    p.add_argument("file")
    add_fuel(p)
    add_json(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("erase", help="remove redundant arguments")
    p.add_argument("file")
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
    add_fuel(p)
    add_json(p)
    p.set_defaults(fn=cmd_erase)

    p = sub.add_parser("eval", help="evaluate a ground term")
    p.add_argument("file")
    p.add_argument("-e", "--expr", required=True, help="ground goal term")
    p.add_argument(
        "--strategy",
        default="leftmost-innermost",
        choices=sorted(STRATEGY_ALIASES),
        help="redex selection order",
    )
    p.add_argument("--count-steps", action="store_true")
    p.add_argument("--trace", action="store_true")
    add_fuel(p)
    add_json(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="differentially test the erasure")
    p.add_argument("file")
    p.add_argument("--trials", type=_count, default=200)
    p.add_argument("--depth", type=_count, default=6)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--suffix", default="")
    add_fuel(p)
    add_json(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force redundancy check for one argument")
    p.add_argument("file")
    p.add_argument("-f", "--symbol", required=True)
    p.add_argument("-i", "--index", type=int, required=True)
    p.add_argument("--ctx-depth", type=_count, default=3)
    p.add_argument("--term-depth", type=_count, default=3)
    p.add_argument("--max-cases", type=_count, default=50_000)
    add_json(p)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("bench", help="run the benchmark corpus")
    p.add_argument("dir")
    add_fuel(p)
    add_json(p)
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "fuel") and args.fuel is None:
            args.fuel = _default_fuel()
        return args.fn(args)
    except RedargError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

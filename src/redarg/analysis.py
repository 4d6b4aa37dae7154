"""Redundant-argument analysis.

Two detection methods over left-linear constructor systems:

  variable case: every rule binds the argument to a variable that the
  right-hand side only uses in already-redundant places.

  pattern case: additionally demands confluence and Seval-definedness,
  and checks that every pair of rules that unify up to the argument
  have joinable right-hand sides once argument-dependent subterms are
  plugged with designated constants.

analyze() runs both to a fixpoint.  Candidates are always evaluated
against the knowledge at the start of the round and merged at a round
barrier, so the result is independent of candidate order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import NoGroundConstant, PreconditionUnmet
from .rewrite import DEFAULT_FUEL, join
from .terms import (
    App,
    FuncSymbol,
    Position,
    Substitution,
    Term,
    Var,
    is_prefix,
    iter_positions,
    pos_fi,
    sort_of,
    subterm,
    replace,
    unify_up_to_arg,
    vars_of,
)
from .trs import (
    PropertyReport,
    Rule,
    Trs,
    _rename_apart,
    build_property_report,
    designated_constants,
)

KnownMap = dict[str, frozenset[int]]


@dataclass(frozen=True)
class FITriple:
    """Two distinct rules of f whose lhss unify after deleting the i-th
    argument; rule2 is renamed apart from rule1."""

    rule1: Rule
    rule2: Rule
    sigma: Substitution
    f: FuncSymbol
    i: int


@dataclass(frozen=True)
class TripleEvidence:
    triple: FITriple
    left: Term
    right: Term
    joinable: Optional[bool]
    common: Optional[Term]


@dataclass(frozen=True)
class Justification:
    method: str  # variable-case | pattern-case
    round: int
    triples: tuple[TripleEvidence, ...] = ()


@dataclass(frozen=True)
class RedundancySet:
    entries: dict[str, frozenset[int]]
    justifications: dict[tuple[str, int], Justification]

    def get(self, f: FuncSymbol | str) -> frozenset[int]:
        name = f if isinstance(f, str) else f.name
        return self.entries.get(name, frozenset())

    def total_indices(self) -> int:
        return sum(len(v) for v in self.entries.values())

    def __contains__(self, fi: tuple[str, int]) -> bool:
        name, i = fi
        return i in self.entries.get(name, frozenset())


@dataclass(frozen=True)
class AnalysisConfig:
    fuel: int = DEFAULT_FUEL
    # None runs to the fixpoint: every round but the last adds a
    # position, so there are at most len(candidates) + 1 rounds
    max_rounds: Optional[int] = None
    methods: tuple[str, ...] = ("variable", "pattern")
    strategy: str = "leftmost-innermost"


@dataclass(frozen=True)
class AnalysisResult:
    redundancy: RedundancySet
    report: PropertyReport
    notes: tuple[str, ...]
    indeterminate: tuple[tuple[str, int], ...]
    rounds: int


def redundant_positions(t: Term, known: KnownMap) -> set[Position]:
    """Positions of t at or below an argument index already known
    redundant: {p | p = q.i.p', root(t|_q) = f, i in known(f)}.

    An under-approximation of the redundant positions of t; growing
    `known` only grows it.
    """
    roots: list[tuple[Position, int]] = []
    for q in iter_positions(t):
        s = subterm(t, q)
        if isinstance(s, App):
            for i in known.get(s.symbol.name, frozenset()):
                roots.append((q, i))
    if not roots:
        return set()
    out: set[Position] = set()
    for p in iter_positions(t):
        for q, i in roots:
            base = q + (i,)
            if is_prefix(base, p):
                out.add(p)
                break
    return out


def _var_positions(r: Term, name: str) -> list[Position]:
    return [
        p
        for p in iter_positions(r)
        if isinstance(subterm(r, p), Var) and subterm(r, p).name == name
    ]


def is_fi_redundant_var(
    x: Var | str, r: Term, f: FuncSymbol | str, i: int, known: KnownMap
) -> bool:
    """Whether every occurrence of x in r is invisible to evaluation:
    at an already-redundant position, or under the i-th argument of an
    f-rooted subterm.  Vacuously true when x does not occur."""
    name = x if isinstance(x, str) else x.name
    fname = f if isinstance(f, str) else f.name
    occurrences = _var_positions(r, name)
    if not occurrences:
        return True
    rpos = redundant_positions(r, known)
    for p in occurrences:
        if p in rpos:
            continue
        if any(
            k < len(p)
            and p[k] == i
            and isinstance(subterm(r, p[:k]), App)
            and subterm(r, p[:k]).symbol.name == fname
            for k in range(len(p))
        ):
            continue
        return False
    return True


def _require(trs: Trs, report: PropertyReport, gates: Iterable[str]) -> None:
    for gate in gates:
        if gate == "left-linear" and not report.left_linear:
            rule, name = report.ll_witness
            raise PreconditionUnmet(
                "left-linear", f"variable {name} repeats in lhs of {rule}"
            )
        if gate == "constructor-system" and not report.constructor_system:
            raise PreconditionUnmet(
                "constructor-system", f"offending rule: {report.cs_witness}"
            )
        if gate == "confluent" and not report.confluent.startswith("yes"):
            detail = f"confluence = {report.confluent}"
            if report.confluence_witness is not None:
                detail += f" (critical pair {report.confluence_witness})"
            raise PreconditionUnmet("confluent", detail)
        if gate == "seval-defined" and not report.seval_defined:
            raise PreconditionUnmet("seval-defined", report.seval_reason or "")


def variable_case(
    trs: Trs,
    f: FuncSymbol | str,
    i: int,
    known: Optional[KnownMap] = None,
    report: Optional[PropertyReport] = None,
) -> bool:
    """True iff every rule of f binds argument i to a variable that is
    (f,i)-redundant in the rule's rhs.  Performs no rewriting."""
    if report is None:
        report = build_property_report(trs)
    _require(trs, report, ("left-linear", "constructor-system"))
    known = known or {}
    fname = f if isinstance(f, str) else f.name
    for rule in trs.rules_for(fname):
        arg = rule.lhs.args[i - 1]
        if not isinstance(arg, Var):
            return False
        if not is_fi_redundant_var(arg, rule.rhs, fname, i, known):
            return False
    return True


def fi_triples(trs: Trs, f: FuncSymbol | str, i: int) -> list[FITriple]:
    """All unordered pairs of distinct rules of f whose lhss unify up
    to argument i, in rule-index order; the second rule is renamed
    apart (clashing variables get primes)."""
    fname = f if isinstance(f, str) else f.name
    rules = trs.rules_for(fname)
    sym = trs.symbol_map[fname]
    triples: list[FITriple] = []
    for j in range(len(rules)):
        vars1 = {v.name for v in vars_of(rules[j].lhs) | vars_of(rules[j].rhs)}
        for k in range(j + 1, len(rules)):
            renamed = _rename_apart(rules[k], vars1)
            sigma = unify_up_to_arg(rules[j].lhs, renamed.lhs, i)
            if sigma is not None:
                triples.append(FITriple(rules[j], renamed, sigma, sym, i))
    return triples


def minimal_positions(ps: Iterable[Position]) -> list[Position]:
    ps = sorted(set(ps))
    out: list[Position] = []
    for p in ps:
        if not any(is_prefix(q, p) and q != p for q in out):
            out.append(p)
    return out


def tau_transform(
    r: Term,
    l: Term,
    f: FuncSymbol | str,
    i: int,
    constants: dict[str, Term],
) -> Term:
    """Plug the designated constant into the outermost i-th-argument
    positions of r that share variables with l's i-th argument.

    Identity when l's i-th argument is a variable.
    """
    fname = f if isinstance(f, str) else f.name
    arg = l.args[i - 1]
    if isinstance(arg, Var):
        return r
    pattern_vars = vars_of(arg)
    if not pattern_vars:
        q_positions: list[Position] = []
    else:
        q_positions = [
            p
            for p in pos_fi(r, fname, i)
            if vars_of(subterm(r, p)) & pattern_vars
        ]
    out = r
    for p in minimal_positions(q_positions):
        sort = sort_of(subterm(out, p))
        if sort not in constants:
            raise NoGroundConstant(sort)
        out = replace(out, p, constants[sort])
    return out


def sigma_c(triple: FITriple, constants: dict[str, Term]) -> Substitution:
    """The triple's unifier, overridden to send every variable of
    either i-th lhs argument to its sort's designated constant."""
    extra: dict[str, Term] = {}
    for lhs in (triple.rule1.lhs, triple.rule2.lhs):
        for v in vars_of(lhs.args[triple.i - 1]):
            if v.sort not in constants:
                raise NoGroundConstant(v.sort)
            extra[v.name] = constants[v.sort]
    return triple.sigma.extended(extra)


def check_triple(
    trs: Trs,
    triple: FITriple,
    constants: dict[str, Term],
    fuel: int = DEFAULT_FUEL,
    strategy: str = "leftmost-innermost",
) -> TripleEvidence:
    sc = sigma_c(triple, constants)
    left = sc.apply(
        tau_transform(triple.rule1.rhs, triple.rule1.lhs, triple.f, triple.i, constants)
    )
    right = sc.apply(
        tau_transform(triple.rule2.rhs, triple.rule2.lhs, triple.f, triple.i, constants)
    )
    j, common = join(left, right, trs, fuel=fuel, strategy=strategy)
    return TripleEvidence(triple=triple, left=left, right=right, joinable=j, common=common)


def pattern_case(
    trs: Trs,
    f: FuncSymbol | str,
    i: int,
    known: Optional[KnownMap] = None,
    fuel: int = DEFAULT_FUEL,
    report: Optional[PropertyReport] = None,
    strategy: str = "leftmost-innermost",
) -> tuple[Optional[bool], tuple[TripleEvidence, ...]]:
    """Pattern-case verdict for (f,i): True, False, or None when fuel
    ran out while joining a triple.  Also returns the checked triples.
    """
    if report is None:
        report = build_property_report(trs, fuel=fuel)
    _require(
        trs,
        report,
        ("left-linear", "constructor-system", "confluent", "seval-defined"),
    )
    known = known or {}
    fname = f if isinstance(f, str) else f.name
    constants = designated_constants(trs)
    for rule in trs.rules_for(fname):
        for v in sorted(vars_of(rule.lhs.args[i - 1]), key=lambda v: v.name):
            if not is_fi_redundant_var(v, rule.rhs, fname, i, known):
                return False, ()
    evidence: list[TripleEvidence] = []
    verdict: Optional[bool] = True
    for triple in fi_triples(trs, fname, i):
        ev = check_triple(trs, triple, constants, fuel=fuel, strategy=strategy)
        evidence.append(ev)
        if ev.joinable is False:
            return False, tuple(evidence)
        if ev.joinable is None:
            verdict = None
    return verdict, tuple(evidence)


def _gating_notes(report: PropertyReport) -> tuple[list[str], bool, bool]:
    """Human-readable notes plus whether each method may run."""
    notes: list[str] = []
    var_ok = True
    pat_ok = True
    if not report.left_linear:
        rule, name = report.ll_witness
        notes.append(
            f"variable and pattern case disabled: not left-linear "
            f"(variable {name} repeats in {rule})"
        )
        var_ok = pat_ok = False
    if not report.constructor_system:
        notes.append(
            f"variable and pattern case disabled: not a constructor system "
            f"(rule: {report.cs_witness})"
        )
        var_ok = pat_ok = False
    if pat_ok and not report.confluent.startswith("yes"):
        note = f"pattern case disabled: confluence = {report.confluent}"
        if report.confluence_witness is not None:
            note += f" (critical pair {report.confluence_witness})"
        notes.append(note)
        pat_ok = False
    if pat_ok and not report.seval_defined:
        notes.append(f"pattern case disabled: {report.seval_reason}")
        pat_ok = False
    return notes, var_ok, pat_ok


def analyze(
    trs: Trs,
    cfg: Optional[AnalysisConfig] = None,
    candidate_order: Optional[Sequence[tuple[str, int]]] = None,
    report: Optional[PropertyReport] = None,
) -> AnalysisResult:
    """Fixpoint of both detection methods over all (symbol, index)
    candidates.

    Methods unavailable on this system are recorded as notes and
    skipped; they never raise here.  Within a round every candidate is
    judged against the round-start result, so candidate order cannot
    change the outcome.
    """
    cfg = cfg or AnalysisConfig()
    if report is None:
        report = build_property_report(trs, fuel=cfg.fuel)
    notes, var_ok, pat_ok = _gating_notes(report)
    var_ok = var_ok and "variable" in cfg.methods
    pat_ok = pat_ok and "pattern" in cfg.methods

    candidates: list[tuple[str, int]] = []
    if candidate_order is not None:
        candidates = list(candidate_order)
    else:
        for f in trs.defined:
            candidates.extend((f.name, i) for i in range(1, f.arity + 1))

    known: KnownMap = {}
    justifications: dict[tuple[str, int], Justification] = {}
    indeterminate: set[tuple[str, int]] = set()
    rounds = 0
    while cfg.max_rounds is None or rounds < cfg.max_rounds:
        rounds += 1
        additions: list[tuple[str, int, Justification]] = []
        indeterminate_this_round: set[tuple[str, int]] = set()
        for fname, i in candidates:
            if i in known.get(fname, frozenset()):
                continue
            if var_ok and variable_case(trs, fname, i, known, report=report):
                additions.append((fname, i, Justification("variable-case", rounds)))
                continue
            if pat_ok:
                try:
                    verdict, evidence = pattern_case(
                        trs,
                        fname,
                        i,
                        known,
                        fuel=cfg.fuel,
                        report=report,
                        strategy=cfg.strategy,
                    )
                except NoGroundConstant as exc:
                    note = f"pattern case skipped for ({fname},{i}): {exc}"
                    if note not in notes:
                        notes.append(note)
                    continue
                if verdict is True:
                    additions.append(
                        (fname, i, Justification("pattern-case", rounds, evidence))
                    )
                elif verdict is None:
                    indeterminate_this_round.add((fname, i))
        indeterminate = indeterminate_this_round
        if not additions:
            break
        for fname, i, just in additions:
            known[fname] = known.get(fname, frozenset()) | {i}
            justifications[(fname, i)] = just
    else:
        notes.append(f"stopped after {rounds} rounds, before the fixpoint")

    assert all(
        trs.symbol_map[name].kind == "defined" for name in known
    ), "constructor symbol reported redundant"

    redundancy = RedundancySet(entries=dict(known), justifications=justifications)
    return AnalysisResult(
        redundancy=redundancy,
        report=report,
        notes=tuple(notes),
        indeterminate=tuple(sorted(indeterminate)),
        rounds=rounds,
    )

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
from typing import Iterable, Iterator, Optional, Sequence

from .errors import NoGroundConstant, PreconditionUnmet
from .rewrite import DEFAULT_FUEL, join
from .terms import (
    App,
    FuncSymbol,
    Substitution,
    Term,
    Var,
    clash,
    fold,
    instantiate,
    unify_up_to_arg,
    var_names,
    vars_of,
)
from .trs import (
    PropertyReport,
    Rule,
    Trs,
    _rename_apart,
    build_property_report,
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
class AnalysisResult:
    # the argument indices proved redundant, by symbol name
    redundant: KnownMap
    justifications: dict[tuple[str, int], Justification]
    notes: tuple[str, ...]
    indeterminate: tuple[tuple[str, int], ...]
    rounds: int


def _visible_vars(r: Term, fname: str, i: int, known: KnownMap) -> set[str]:
    """The names of the variables at a visible position of r: one not
    at or below an index known redundant, nor under the i-th argument
    of an f-rooted subterm.  Iterative; a hidden subterm is not
    entered."""
    out: set[str] = set()
    stack = [r]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            out.add(u.name)
            continue
        name = u.symbol.name
        hidden = known.get(name, ())
        stack += (a for k, a in enumerate(u.args, 1)
                  if k not in hidden and not (k == i and name == fname))
    return out


VARIABLE_GATES = ("left-linear", "constructor-system")
PATTERN_GATES = VARIABLE_GATES + ("confluent", "seval-defined")


def _require(report: PropertyReport, gates: Iterable[str]) -> None:
    failed = report.failed_gates
    for gate in gates:
        if gate in failed:
            raise PreconditionUnmet(gate, failed[gate])


def _arg_vars_redundant(trs: Trs, fname: str, i: int, known: KnownMap) -> bool:
    """Whether every variable of each rule's i-th lhs argument is
    (f,i)-redundant in its rhs: all that the variable case asks of a
    variable argument, and the part of the pattern case that depends
    on `known`."""
    return all(
        var_names(rule.lhs.args[i - 1]).isdisjoint(_visible_vars(rule.rhs, fname, i, known))
        for rule in trs.rules_by_root.get(fname, ())
    )


def _variable_bound(trs: Trs, fname: str, i: int) -> bool:
    """Whether every rule of f binds argument i to a variable: with
    _arg_vars_redundant, all that the variable case asks."""
    return all(isinstance(r.lhs.args[i - 1], Var) for r in trs.rules_by_root.get(fname, ()))


def variable_case(
    trs: Trs,
    fname: str,
    i: int,
    known: Optional[KnownMap] = None,
) -> bool:
    """True iff every rule of f binds argument i to a variable that is
    (f,i)-redundant in the rule's rhs.  Performs no rewriting."""
    _require(build_property_report(trs), VARIABLE_GATES)
    return _variable_bound(trs, fname, i) and _arg_vars_redundant(trs, fname, i, known or {})


def fi_triples(trs: Trs, fname: str, i: int) -> Iterator[FITriple]:
    """Lazily, the unordered pairs of distinct rules of f whose lhss
    unify up to argument i, in rule-index order; the second rule is
    renamed apart (clashing variables get primes) unless the other
    arguments clash, when the pair is skipped."""
    rules = trs.rules_by_root.get(fname, ())
    sym = trs.symbol_map[fname]
    for j, rule1 in enumerate(rules):
        vars1 = var_names(rule1.lhs) | var_names(rule1.rhs)
        for rule2 in rules[j + 1:]:
            pairs = zip(rule1.lhs.args, rule2.lhs.args)
            if any(k != i and clash(a, b) for k, (a, b) in enumerate(pairs, 1)):
                continue
            renamed = _rename_apart(rule2, vars1)
            sigma = unify_up_to_arg(rule1.lhs, renamed.lhs, i)
            if sigma is not None:
                yield FITriple(rule1, renamed, sigma, sym, i)


def tau_transform(
    r: Term,
    l: Term,
    fname: str,
    i: int,
    constants: dict[str, Term],
) -> Term:
    """Plug the designated constant into the outermost i-th-argument
    positions of r that share variables with l's i-th argument.

    Identity when l's i-th argument is a variable.  One bottom-up pass:
    each node carries its rebuilt term and whether the original subterm
    holds a variable of l's i-th argument.  An f-node plugs on its
    original argument, since an inner plug may have removed the
    variable from the rebuilt one.
    """
    arg = l.args[i - 1]
    if isinstance(arg, Var):
        return r
    pattern = var_names(arg)

    def app(u: App, folded: tuple) -> tuple[Term, bool]:
        args = [t for t, _ in folded]
        if u.symbol.name == fname and folded[i - 1][1]:
            sort = u.symbol.arg_sorts[i - 1]
            if sort not in constants:
                raise NoGroundConstant(sort)
            args[i - 1] = constants[sort]
        return App(u.symbol, tuple(args)), any(has for _, has in folded)

    return fold(r, lambda v: (v, v.name in pattern), app)[0]


def sigma_c(triple: FITriple, constants: dict[str, Term]) -> Substitution:
    """The triple's unifier, overridden to send every variable of
    either i-th lhs argument to its sort's designated constant."""
    extra: dict[str, Term] = {}
    for lhs in (triple.rule1.lhs, triple.rule2.lhs):
        for v in vars_of(lhs.args[triple.i - 1]):
            if v.sort not in constants:
                raise NoGroundConstant(v.sort)
            extra[v.name] = constants[v.sort]
    return {**triple.sigma, **extra}


def check_triple(
    trs: Trs,
    triple: FITriple,
    constants: dict[str, Term],
    fuel: int = DEFAULT_FUEL,
) -> TripleEvidence:
    sc = sigma_c(triple, constants)
    left, right = (
        instantiate(tau_transform(r.rhs, r.lhs, triple.f.name, triple.i, constants), sc)
        for r in (triple.rule1, triple.rule2)
    )
    j, common = join(left, right, trs, fuel=fuel)
    return TripleEvidence(left=left, right=right, joinable=j, common=common)


PatternVerdict = tuple[Optional[bool], tuple[TripleEvidence, ...]]


def _triple_verdict(trs: Trs, fname: str, i: int, fuel: int) -> PatternVerdict:
    """The part of the pattern case that does not depend on `known`:
    whether every (f,i)-triple joins, with the checked triples."""
    evidence: list[TripleEvidence] = []
    verdict: Optional[bool] = True
    for triple in fi_triples(trs, fname, i):
        ev = check_triple(trs, triple, trs.designated_constants, fuel=fuel)
        evidence.append(ev)
        if ev.joinable is False:
            return False, tuple(evidence)
        if ev.joinable is None:
            verdict = None
    return verdict, tuple(evidence)


def pattern_case(
    trs: Trs,
    fname: str,
    i: int,
    known: Optional[KnownMap] = None,
    fuel: int = DEFAULT_FUEL,
) -> PatternVerdict:
    """Pattern-case verdict for (f,i): True, False, or None when fuel
    ran out while joining a triple.  Also returns the checked triples.
    """
    _require(build_property_report(trs, fuel=fuel), PATTERN_GATES)
    if not _arg_vars_redundant(trs, fname, i, known or {}):
        return False, ()
    return _triple_verdict(trs, fname, i, fuel)


def _gating_notes(report: PropertyReport) -> tuple[list[str], bool, bool]:
    """Notes on the methods the failed gates disable, plus whether each
    method may run.  Every failed variable-case gate is noted, else the
    first failed pattern-case gate."""
    failed = report.failed_gates
    phrase = {"left-linear": "not left-linear ({})",
              "constructor-system": "not a constructor system ({})",
              "confluent": "confluence = {}",
              "seval-defined": "{}"}
    notes = [
        f"variable and pattern case disabled: {phrase[g].format(failed[g])}"
        for g in VARIABLE_GATES
        if g in failed
    ]
    if notes:
        return notes, False, False
    for g in failed:  # in gate order
        return [f"pattern case disabled: {phrase[g].format(failed[g])}"], True, False
    return [], True, True


def analyze(
    trs: Trs,
    fuel: int = DEFAULT_FUEL,
    candidate_order: Optional[Sequence[tuple[str, int]]] = None,
) -> AnalysisResult:
    """Fixpoint of both detection methods over all (symbol, index)
    candidates.

    Methods unavailable on this system are recorded as notes and
    skipped; they never raise here.  Within a round every candidate is
    judged against the round-start result, so candidate order cannot
    change the outcome.  After round 1, a round judges only candidates
    whose rules' rhss hold a symbol that gained a position in the round
    before (a worklist; Kildall, POPL 1973).  The triple verdict of a
    candidate does not depend on that result, so it is computed at most
    once, up to the first triple that does not join.  Every round but
    the last adds a position, so there are at most len(candidates) + 1 rounds.
    """
    report = build_property_report(trs, fuel=fuel)
    notes, var_ok, pat_ok = _gating_notes(report)

    candidates: list[tuple[str, int]] = []
    if candidate_order is not None:
        candidates = list(candidate_order)
    else:
        for f in trs.defined:
            candidates.extend((f.name, i) for i in range(1, f.arity + 1))

    verdicts: dict[tuple[str, int], PatternVerdict | NoGroundConstant] = {}
    known: KnownMap = {}
    justifications: dict[tuple[str, int], Justification] = {}
    # once indeterminate, always: a larger `known` hides more, and the verdict is kept
    indeterminate: set[tuple[str, int]] = set()
    # each symbol -> the indices of the candidates whose rules' rhss hold it
    watchers: dict[str, list[int]] = {}
    for n, (fname, _) in enumerate(candidates):
        names, stack = set(), [r.rhs for r in trs.rules_by_root.get(fname, ())]
        while stack:
            u = stack.pop()
            if isinstance(u, App):
                names.add(u.symbol.name)
                stack.extend(u.args)
        for name in names:
            watchers.setdefault(name, []).append(n)
    todo: Iterable[int] = range(len(candidates))
    rounds = 0
    while True:
        rounds += 1
        additions: list[tuple[str, int, Justification]] = []
        for n in todo:
            fname, i = candidates[n]
            if i in known.get(fname, frozenset()):
                continue
            variable = var_ok and _variable_bound(trs, fname, i)
            if not (variable or pat_ok) or not _arg_vars_redundant(trs, fname, i, known):
                continue
            if variable:
                additions.append((fname, i, Justification("variable-case", rounds)))
                continue
            # here pat_ok holds: the report passes every gate pattern_case requires
            cached = verdicts.get((fname, i))
            if cached is None:
                try:
                    cached = _triple_verdict(trs, fname, i, fuel)
                except NoGroundConstant as exc:
                    cached = exc
                verdicts[(fname, i)] = cached
            if isinstance(cached, NoGroundConstant):
                note = f"pattern case skipped for ({fname},{i}): {cached}"
                if note not in notes:
                    notes.append(note)
                continue
            verdict, evidence = cached
            if verdict is True:
                additions.append(
                    (fname, i, Justification("pattern-case", rounds, evidence))
                )
            elif verdict is None:
                indeterminate.add((fname, i))
        if not additions:
            break
        for fname, i, just in additions:
            known[fname] = known.get(fname, frozenset()) | {i}
            justifications[(fname, i)] = just
        todo = sorted({n for fname, _, _ in additions for n in watchers.get(fname, ())})

    assert all(
        trs.symbol_map[name].kind == "defined" for name in known
    ), "constructor symbol reported redundant"

    return AnalysisResult(
        redundant=known,
        justifications=justifications,
        notes=tuple(notes),
        indeterminate=tuple(sorted(indeterminate)),
        rounds=rounds,
    )

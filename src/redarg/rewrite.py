"""Rewriting engine: single steps, normalization, joinability, and
bounded reachable-set semantics.

Strategies fix a deterministic redex order (leftmost-innermost is the
default everywhere).  Fuel exhaustion is always a reported outcome,
never an exception, so callers can stay tri-state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import is_
from typing import TYPE_CHECKING, Optional

from .errors import WellFormednessError
from .terms import (
    App,
    Position,
    Substitution,
    Term,
    Var,
    format_position,
    format_term,
    is_ground,
    match,
)

if TYPE_CHECKING:
    from .trs import Rule, Trs

DEFAULT_FUEL = 10_000
DEFAULT_MAX_TERMS = 5_000
DEFAULT_MAX_STEPS = 20_000

STRATEGIES = ("leftmost-innermost", "leftmost-outermost")


@dataclass(frozen=True)
class TraceStep:
    position: Position
    rule: "Rule"
    before: Term
    after: Term

    def __str__(self) -> str:
        return (
            f"{format_position(self.position)}: {format_term(self.before)} -> "
            f"{format_term(self.after)} [{self.rule.label}]"
        )


@dataclass(frozen=True)
class EvalOutcome:
    kind: str  # value | normal-form | fuel-exhausted
    term: Term
    steps: int
    trace: Optional[tuple[TraceStep, ...]] = None

    @property
    def is_value(self) -> bool:
        return self.kind == "value"

    @property
    def exhausted(self) -> bool:
        return self.kind == "fuel-exhausted"


@dataclass(frozen=True)
class SemanticsResult:
    sred: frozenset[Term]
    seval: frozenset[Term]
    snf: frozenset[Term]
    shnf: frozenset[Term]
    sempty: frozenset[Term]
    truncated: bool


@lru_cache(maxsize=128)
def _root_index(rules: tuple["Rule", ...]) -> dict[str, tuple["Rule", ...]]:
    index: dict[str, list["Rule"]] = {}
    for rule in rules:
        assert isinstance(rule.lhs, App)
        index.setdefault(rule.lhs.symbol.name, []).append(rule)
    return {name: tuple(rs) for name, rs in index.items()}


def _match_at(t: Term, rules: tuple["Rule", ...]) -> Optional[tuple["Rule", Substitution]]:
    """First rule (file order) whose lhs matches t at the root."""
    for rule in rules:
        sigma = match(rule.lhs, t)
        if sigma is not None:
            return rule, sigma
    return None


def rewrite_step(
    t: Term, trs: "Trs", strategy: str = "leftmost-innermost"
) -> Optional[tuple[Term, Position, "Rule"]]:
    """The unique step the strategy takes from t, or None on a normal form.

    Redex positions are ordered by the strategy (postorder for
    innermost, preorder for outermost); rules apply in file order.
    Single tree walk; only the path to the redex is rebuilt.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    innermost = strategy == "leftmost-innermost"
    index = _root_index(trs.rules)

    def at_root(s: Term) -> Optional[tuple[Term, Position, "Rule"]]:
        hit = _match_at(s, index.get(s.symbol.name, ()))
        if hit is None:
            return None
        rule, sigma = hit
        return sigma.apply(rule.rhs), (), rule

    def in_args(s: Term) -> Optional[tuple[Term, Position, "Rule"]]:
        for i, a in enumerate(s.args, start=1):
            got = walk(a)
            if got is not None:
                nxt, p, rule = got
                args = list(s.args)
                args[i - 1] = nxt
                return App(s.symbol, tuple(args)), (i,) + p, rule
        return None

    def walk(s: Term) -> Optional[tuple[Term, Position, "Rule"]]:
        if isinstance(s, Var):
            return None
        if innermost:
            return in_args(s) or at_root(s)
        return at_root(s) or in_args(s)

    return walk(t)


def is_constructor_ground(t: Term) -> bool:
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var) or u.symbol.kind != "constructor":
            return False
        stack.extend(u.args)
    return True


def is_normal_form(t: Term, trs: "Trs") -> bool:
    return rewrite_step(t, trs) is None


def _outcome(
    term: Term, steps: int, trace: Optional[list[TraceStep]], exhausted: bool = False
) -> EvalOutcome:
    if exhausted:
        kind = "fuel-exhausted"
    else:
        kind = "value" if is_constructor_ground(term) else "normal-form"
    return EvalOutcome(kind, term, steps, None if trace is None else tuple(trace))


# A frame of the innermost machine is [template, bindings, args]; args
# holds the normal forms of the template's first len(args) arguments.
_NO_BINDINGS = Substitution()


def _rebuild(stack: list[list], term: Term) -> Term:
    """The whole term, with term at the position of the top frame."""
    for tmpl, sigma, args in reversed(stack[:-1]):
        rest = tuple(sigma.apply(a) for a in tmpl.args[len(args) + 1 :])
        term = App(tmpl.symbol, (*args, term, *rest))
    return term


def _innermost(t: Term, trs: "Trs", fuel: int, want_trace: bool) -> EvalOutcome:
    """Leftmost-innermost normalization in one bottom-up pass.

    A frame's template is a subterm of the goal (no bindings) or of the
    rhs of the rule that fired last, whose variables are bound to normal
    forms.  Arguments are normalized left to right, then the root rules
    are tried in file order; a firing rule re-points the frame at its
    rhs.  That is the redex rewrite_step would pick from the root, but
    the bound normal forms are never scanned again.
    """
    trace: Optional[list[TraceStep]] = [] if want_trace else None
    if isinstance(t, Var):
        return _outcome(t, 0, trace)
    index = _root_index(trs.rules)
    last = t  # the whole term after the last step, for the trace
    steps = 0
    stack: list[list] = [[t, _NO_BINDINGS, []]]
    while True:
        tmpl, sigma, args = stack[-1]
        targs = tmpl.args
        if len(args) < len(targs):
            a = targs[len(args)]
            if isinstance(a, Var):
                bound = sigma.get(a.name)
                args.append(a if bound is None else bound)
            else:
                stack.append([a, sigma, []])
            continue
        if all(map(is_, args, targs)):
            node = tmpl
        else:
            node = App(tmpl.symbol, tuple(args))
        rules = index.get(tmpl.symbol.name)
        hit = _match_at(node, rules) if rules else None
        if hit is not None and steps >= fuel:
            return _outcome(_rebuild(stack, node), steps, trace, exhausted=True)
        if hit is None:
            value = node
        else:
            rule, s = hit
            steps += 1
            if trace is not None:
                after = _rebuild(stack, s.apply(rule.rhs))
                position = tuple(len(f[2]) + 1 for f in stack[:-1])
                trace.append(TraceStep(position, rule, last, after))
                last = after
            if isinstance(rule.rhs, App):
                stack[-1] = [rule.rhs, s, []]
                continue
            value = s.apply(rule.rhs)
        stack.pop()
        if not stack:
            return _outcome(value, steps, trace)
        stack[-1][2].append(value)


def normalize(
    t: Term,
    trs: "Trs",
    strategy: str = "leftmost-innermost",
    fuel: int = DEFAULT_FUEL,
    want_trace: bool = False,
) -> EvalOutcome:
    """Rewrite t under the strategy to a normal form or until fuel runs out.

    A step is taken only while steps < fuel, so the step count is exact;
    with want_trace the outcome carries one TraceStep per step,
    replayable to the final term.  Leftmost-innermost runs in one
    bottom-up pass; leftmost-outermost calls rewrite_step from the root
    on every step, since a step there can create a redex above itself.
    """
    if strategy == "leftmost-innermost":
        return _innermost(t, trs, fuel, want_trace)
    current = t
    steps = 0
    trace: Optional[list[TraceStep]] = [] if want_trace else None
    while (hit := rewrite_step(current, trs, strategy)) is not None:
        if steps >= fuel:
            return _outcome(current, steps, trace, exhausted=True)
        nxt, p, rule = hit
        if trace is not None:
            trace.append(TraceStep(p, rule, current, nxt))
        current = nxt
        steps += 1
    return _outcome(current, steps, trace)


def join(
    t: Term,
    s: Term,
    trs: "Trs",
    fuel: int = DEFAULT_FUEL,
    strategy: str = "leftmost-innermost",
) -> tuple[Optional[bool], Optional[Term]]:
    """Normalize each side once: (joinable, common reduct).

    joinable is tri-state, None when either side runs out of fuel; the
    common reduct is the shared normal form, or None when not joinable.
    """
    a = normalize(t, trs, strategy, fuel)
    b = normalize(s, trs, strategy, fuel)
    if a.exhausted or b.exhausted:
        return None, None
    if a.term != b.term:
        return False, None
    return True, a.term


def joinable(
    t: Term,
    s: Term,
    trs: "Trs",
    fuel: int = DEFAULT_FUEL,
    strategy: str = "leftmost-innermost",
) -> Optional[bool]:
    """Whether t and s normalize to the same term.

    Tri-state: None when either side runs out of fuel.  Complete only
    on confluent, terminating systems; callers gate on those checks.
    """
    return join(t, s, trs, fuel, strategy)[0]


def common_reduct(
    t: Term,
    s: Term,
    trs: "Trs",
    fuel: int = DEFAULT_FUEL,
    strategy: str = "leftmost-innermost",
) -> Optional[Term]:
    """The shared normal form when joinable, else None."""
    return join(t, s, trs, fuel, strategy)[1]


def evaluate(
    t: Term,
    trs: "Trs",
    fuel: int = DEFAULT_FUEL,
    strategy: str = "leftmost-innermost",
    want_trace: bool = False,
) -> EvalOutcome:
    """Normalize a ground term; Value iff the result is constructor-only."""
    if not is_ground(t):
        raise WellFormednessError(f"eval requires a ground term, got {format_term(t)}")
    return normalize(t, trs, strategy, fuel, want_trace)


def _reducts(s: Term, index: dict[str, tuple["Rule", ...]]) -> list[Term]:
    """One-step reducts of s in position-preorder, rule order within a
    position.  Siblings of the rewritten path are shared, not copied."""
    if isinstance(s, Var):
        return []
    res: list[Term] = []
    for rule in index.get(s.symbol.name, ()):
        sigma = match(rule.lhs, s)
        if sigma is not None:
            res.append(sigma.apply(rule.rhs))
    for i, a in enumerate(s.args):
        for red in _reducts(a, index):
            args = list(s.args)
            args[i] = red
            res.append(App(s.symbol, tuple(args)))
    return res


def successors(t: Term, trs: "Trs") -> list[Term]:
    """All one-step reducts of t, deduplicated, in deterministic order
    (position preorder, then rule order)."""
    return list(dict.fromkeys(_reducts(t, _root_index(trs.rules))))


def _has_root_redex(t: Term, trs: "Trs") -> bool:
    if isinstance(t, Var):
        return False
    rules = _root_index(trs.rules).get(t.symbol.name, ())
    return _match_at(t, rules) is not None


def bounded_semantics(
    t: Term,
    trs: "Trs",
    max_terms: int = DEFAULT_MAX_TERMS,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> SemanticsResult:
    """Breadth-first closure of the rewrite relation, with the
    derived term sets.

    sred: every reachable term discovered within the caps.
    seval: sred restricted to constructor-ground terms.
    snf: expanded terms with no reduct.
    shnf: terms whose (bounded) closure contains no root redex.
    sempty: always empty.

    truncated is set iff a cap was hit; membership in snf/shnf is then
    an approximation and callers should skip comparisons.
    """
    if not is_ground(t):
        raise WellFormednessError(
            f"bounded_semantics requires a ground term, got {format_term(t)}"
        )
    discovered: dict[Term, None] = {t: None}
    edges: list[tuple[Term, Term]] = []
    expanded: set[Term] = set()
    queue: deque[Term] = deque([t])
    truncated = False
    step_budget = max_steps
    while queue:
        u = queue.popleft()
        succs = successors(u, trs)
        if step_budget - len(succs) < 0:
            truncated = True
            break
        step_budget -= len(succs)
        expanded.add(u)
        for v in succs:
            edges.append((u, v))
            if v in discovered:
                continue
            if len(discovered) >= max_terms:
                truncated = True
                continue
            discovered[v] = None
            queue.append(v)
    if queue:
        truncated = True

    sred = frozenset(discovered)
    seval = frozenset(u for u in sred if is_constructor_ground(u))
    succ_map: dict[Term, list[Term]] = {u: [] for u in sred}
    pred_map: dict[Term, list[Term]] = {u: [] for u in sred}
    for u, v in edges:
        succ_map[u].append(v)
        if v in pred_map:
            pred_map[v].append(u)
    snf = frozenset(u for u in expanded if not succ_map[u])

    # backward closure of root-redex terms: anything that can reach one
    # is not a head normal form
    bad: set[Term] = set()
    stack = [u for u in sred if _has_root_redex(u, trs)]
    bad.update(stack)
    while stack:
        v = stack.pop()
        for u in pred_map[v]:
            if u not in bad:
                bad.add(u)
                stack.append(u)
    shnf = frozenset(u for u in sred if u not in bad)

    return SemanticsResult(
        sred=sred,
        seval=seval,
        snf=snf,
        shnf=shnf,
        sempty=frozenset(),
        truncated=truncated,
    )

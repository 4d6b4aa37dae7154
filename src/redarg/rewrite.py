"""Rewriting engine: single steps, normalization, joinability, and
bounded reachable-set semantics.

Strategies fix a deterministic redex order (leftmost-innermost is the
default everywhere).  Fuel exhaustion is always a reported outcome,
never an exception, so callers can stay tri-state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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
    instantiate,
    is_ground,
    match,
    replace,
)

if TYPE_CHECKING:
    from .trs import Rule, Trs

DEFAULT_FUEL = 10_000
DEFAULT_MAX_TERMS = 5_000
DEFAULT_MAX_STEPS = 20_000
# entries of a system's memo of one-step reducts (Trs.reducts_memo) or of
# normal forms (Trs.normal_form_memo) past which it is cleared; the
# largest oracle probe of the corpus needs about 280k reducts entries
MEMO_CAP = 500_000

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
    truncated: bool


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
    One tree walk finds the redex; replace rebuilds only the path to it.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    innermost = strategy == "leftmost-innermost"
    index = trs.rules_by_root
    # the path from the root: each node with the number of its
    # arguments entered so far
    path: list[list] = [[t, 0]]
    while path:
        frame = path[-1]
        s, k = frame
        if isinstance(s, App) and k == (len(s.args) if innermost else 0):
            hit = _match_at(s, index.get(s.symbol.name, ()))
            if hit is not None:
                rule, sigma = hit
                p = tuple(i for _, i in path[:-1])
                return replace(t, p, instantiate(rule.rhs, sigma)), p, rule
        if isinstance(s, App) and k < len(s.args):
            frame[1] = k + 1
            path.append([s.args[k], 0])
        else:
            path.pop()
    return None


def is_constructor_ground(t: Term) -> bool:
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var) or u.symbol.kind != "constructor":
            return False
        stack.extend(u.args)
    return True


def _outcome(
    term: Term, steps: int, trace: Optional[list[TraceStep]], exhausted: bool = False
) -> EvalOutcome:
    if exhausted:
        kind = "fuel-exhausted"
    else:
        kind = "value" if is_constructor_ground(term) else "normal-form"
    return EvalOutcome(kind, term, steps, None if trace is None else tuple(trace))


# A frame of the innermost machine is [template, bindings, args, seen];
# args holds the normal forms of the template's first len(args)
# arguments, and seen each node the frame tried the root rules on, with
# the step count at that point.
_NO_BINDINGS: Substitution = {}  # never mutated


def _rebuild(stack: list[list], term: Term) -> Term:
    """The whole term, with term at the position of the top frame."""
    for tmpl, sigma, args, _ in reversed(stack[:-1]):
        rest = tuple(instantiate(a, sigma) for a in tmpl.args[len(args) + 1 :])
        term = App(tmpl.symbol, (*args, term, *rest))
    return term


def _innermost(t: Term, trs: "Trs", fuel: int) -> EvalOutcome:
    """Leftmost-innermost normalization in one bottom-up pass.

    A frame's template is a subterm of the goal (no bindings) or of the
    rhs of the rule that fired last, whose variables are bound to normal
    forms.  Arguments are normalized left to right, then the root rules
    are tried in file order; a firing rule re-points the frame at its
    rhs.  That is the redex rewrite_step would pick from the root, but
    the bound normal forms are never scanned again.

    The normalization of a node whose arguments are normal forms does
    not depend on its context, so trs.normal_form_memo maps such nodes
    to (normal form, steps).  A hit stands for its steps only when they
    all fit in the fuel left; otherwise the node is rewritten as usual.
    When a frame's normal form is known, each node it built is stored.
    The goal and its subterms are looked up before they are walked,
    since a key's arguments take no step.  The memo is cleared once it
    holds more than MEMO_CAP entries.
    """
    if isinstance(t, Var):
        return _outcome(t, 0, None)
    index = trs.rules_by_root
    memo = trs.normal_form_memo
    if len(memo) > MEMO_CAP:
        memo.clear()
    found = memo.get(t)
    if found is not None and found[1] <= fuel:
        return _outcome(found[0], found[1], None)
    steps = 0
    stack: list[list] = [[t, _NO_BINDINGS, [], []]]
    while True:
        tmpl, sigma, args, seen = stack[-1]
        targs = tmpl.args
        if len(args) < len(targs):
            a = targs[len(args)]
            if isinstance(a, Var):
                args.append(sigma.get(a.name, a))
                continue
            found = memo.get(a) if sigma is _NO_BINDINGS else None
            if found is not None and steps + found[1] <= fuel:
                args.append(found[0])
                steps += found[1]
            else:
                stack.append([a, sigma, [], []])
            continue
        if all(map(is_, args, targs)):
            node = tmpl
        else:
            node = App(tmpl.symbol, tuple(args))
        value = node
        rules = index.get(tmpl.symbol.name)
        found = memo.get(node) if rules else None
        if found is not None and steps + found[1] <= fuel:
            value, k = found
            steps += k
        elif rules:
            seen.append((node, steps))
            hit = _match_at(node, rules)
            if hit is not None:
                if steps >= fuel:
                    return _outcome(_rebuild(stack, node), steps, None, exhausted=True)
                rule, s = hit
                steps += 1
                if isinstance(rule.rhs, App):
                    stack[-1] = [rule.rhs, s, [], seen]
                    continue
                value = instantiate(rule.rhs, s)
        for n, k in seen:
            memo[n] = (value, steps - k)
        stack.pop()
        if not stack:
            return _outcome(value, steps, None)
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
    replayable to the final term.  An untraced leftmost-innermost run
    takes one bottom-up pass; every other run calls rewrite_step from
    the root on every step, since an outermost step can create a redex
    above itself, and each trace step prints the whole term anyway.
    """
    if strategy == "leftmost-innermost" and not want_trace:
        return _innermost(t, trs, fuel)
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
    t: Term, s: Term, trs: "Trs", fuel: int = DEFAULT_FUEL
) -> tuple[Optional[bool], Optional[Term]]:
    """Normalize each side once, leftmost-innermost: (joinable, common
    reduct).

    joinable is tri-state, None when either side runs out of fuel; the
    common reduct is the shared normal form, or None when not joinable.
    The strategy is fixed: on the confluent, terminating systems where
    callers rely on the answer, every strategy reaches the same normal
    form.
    """
    a = normalize(t, trs, fuel=fuel)
    b = normalize(s, trs, fuel=fuel)
    if a.exhausted or b.exhausted:
        return None, None
    if a.term != b.term:
        return False, None
    return True, a.term


def successors(s: Term, trs: "Trs") -> tuple[Term, ...]:
    """All one-step reducts of s, deduplicated, in position preorder and
    rule order within a position.  Siblings of the rewritten path are
    shared, not copied.

    Memoized per subterm in trs.reducts_memo: terms are immutable and
    interned, so an entry stays valid and a lookup never walks a term.
    Iterative: a subterm is expanded once the memo has its arguments.
    The memo is cleared, but for s, after an expansion that takes it
    past MEMO_CAP entries.
    """
    if isinstance(s, Var):
        return ()
    memo = trs.reducts_memo
    found = memo.get(s)
    if found is not None:
        return found
    stack = [s]
    while stack:
        u = stack[-1]
        args = u.args
        ready = True
        for a in args:
            if a.__class__ is App and a not in memo:
                stack.append(a)
                ready = False
        if not ready:
            continue
        stack.pop()
        res: list[Term] = []
        for rule in trs.rules_by_root.get(u.symbol.name, ()):
            sigma = match(rule.lhs, u)
            if sigma is not None:
                res.append(instantiate(rule.rhs, sigma))
        for i, a in enumerate(args):
            if a.__class__ is App:
                for red in memo[a]:
                    res.append(App(u.symbol, args[:i] + (red,) + args[i + 1 :]))
        memo[u] = found = tuple(dict.fromkeys(res))
    # s is expanded last, so found is its reducts
    if len(memo) > MEMO_CAP:
        memo.clear()
        memo[s] = found
    return found


Reached = dict[Term, Optional[tuple[Term, ...]]]


def explore(t: Term, trs: "Trs") -> tuple[Reached, bool]:
    """Breadth-first closure of the rewrite relation from t, which may
    be an open term.

    Returns (reached, truncated).  reached holds every discovered term
    in discovery order, mapped to its successors (see successors) once
    it is expanded, or to None when a cap left it unexpanded.  A term
    costs one step per successor.  At most DEFAULT_MAX_TERMS terms are
    discovered; the search stops before an expansion that would take
    the total over DEFAULT_MAX_STEPS.  truncated is set iff a cap was hit.
    """
    reached: Reached = {t: None}
    queue: deque[Term] = deque([t])
    truncated = False
    max_terms, step_budget = DEFAULT_MAX_TERMS, DEFAULT_MAX_STEPS
    while queue:
        u = queue.popleft()
        succs = successors(u, trs)
        if step_budget - len(succs) < 0:
            truncated = True
            break
        step_budget -= len(succs)
        reached[u] = succs
        for v in succs:
            if v in reached:
                continue
            if len(reached) >= max_terms:
                truncated = True
                continue
            reached[v] = None
            queue.append(v)
    return reached, truncated


def bounded_semantics(t: Term, trs: "Trs") -> SemanticsResult:
    """The derived term sets of the breadth-first closure (explore) of
    a ground term.

    sred: every reachable term discovered within the caps.
    seval: sred restricted to constructor-ground terms.
    snf: expanded terms with no reduct.

    truncated is set iff a cap was hit; membership in snf is then an
    approximation and callers should skip comparisons.
    """
    if not is_ground(t):
        raise WellFormednessError(
            f"bounded_semantics requires a ground term, got {format_term(t)}"
        )
    reached, truncated = explore(t, trs)
    sred = frozenset(reached)
    return SemanticsResult(
        sred=sred,
        seval=frozenset(u for u in sred if is_constructor_ground(u)),
        snf=frozenset(u for u, succs in reached.items() if succs == ()),
        truncated=truncated,
    )

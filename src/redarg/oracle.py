"""Ground truth by brute force.

Independent of the analyzer: enumerate bounded contexts and terms,
compare bounded evaluation semantics directly against the definition
of argument redundancy, and differentially test erasures on random
ground terms.  The oracle can only refute or bound, never prove.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from itertools import islice, product
from typing import Iterator, Optional, Union

from .errors import EmptySort
from .erasure import erase_term, erase_trs, erasure_table
from .rewrite import DEFAULT_FUEL, bounded_semantics, normalize
from .terms import App, FuncSymbol, Sort, Term, Var, instantiate, replace
from .trs import Trs

HOLE_NAME = "[]"


def hole(sort: Sort) -> Var:
    return Var(HOLE_NAME, sort)


def plug(context: Term, t: Term) -> Term:
    """Fill the single hole of a context."""
    return instantiate(context, {HOLE_NAME: t})


# a symbol, and the pool that each of its arguments is drawn from
Shape = tuple[FuncSymbol, list[list[Term]]]


def _level(
    d: int, shapes: list[Shape], depth_of: dict[Term, int], pools: dict[Sort, list[Term]],
) -> Iterator[Term]:
    """Yield every f(args) with args drawn from f's pools, shape by
    shape, whose deepest argument has depth d - 1, and record each in
    depth_of at depth d; once the level is complete, add its terms to
    the pools of their sorts."""
    level: list[Term] = []
    for f, arg_pools in shapes:
        for args in product(*arg_pools):
            if max((depth_of[a] for a in args), default=0) == d - 1:
                t = App(f, args)
                level.append(t)
                depth_of[t] = d
                yield t
    for t in level:
        pools[t.symbol.result_sort].append(t)


def _check_inhabited(trs: Trs, sort: Sort, depth: int) -> None:
    least = trs.least_ground_terms
    if sort not in least or least[sort][0] > depth:
        raise EmptySort(f"sort {sort} has no ground terms of depth <= {depth}")


def _ground_shapes(trs: Trs, sorts: set[Sort]) -> tuple[dict[Sort, list[Term]], list[Shape]]:
    """Empty pools for the sorts and every sort that a term of one of
    them can contain, and the symbols of those sorts over the pools."""
    pools: dict[Sort, list[Term]] = {}
    more = sorts
    while more:
        pools.update((s, []) for s in more)
        more = {a for f in trs.symbols if f.result_sort in more for a in f.arg_sorts} - pools.keys()
    return pools, [(f, [pools[s] for s in f.arg_sorts]) for f in trs.symbols if f.result_sort in pools]


def enumerate_ground_terms(trs: Trs, sort: Sort, depth: int) -> Iterator[Term]:
    """An iterator over all ground terms of the sort (over the full
    signature, defined symbols included) with depth <= the bound,
    ordered by depth first and declaration order within a depth level.
    Each level is built only once the one before it has been read, and
    only over the sorts that a term of the sort can contain."""
    _check_inhabited(trs, sort, depth)
    pools, shapes = _ground_shapes(trs, {sort})
    depth_of: dict[Term, int] = {}
    return (t for d in range(1, depth + 1) for t in _level(d, shapes, depth_of, pools)
            if t.symbol.result_sort == sort)


def enumerate_contexts(trs: Trs, hole_sort: Sort, depth: int) -> Iterator[Term]:
    """An iterator over all one-hole contexts of depth <= the bound
    whose hole has the given sort, the empty context first; the hole
    contributes zero to depth.  Same canonical (depth, declaration)
    order as terms, and built as lazily: contexts only over the
    argument slots that can hold the hole, ground terms only of the
    sorts that the other slots of those can contain."""
    empty = hole(hole_sort)
    # the sorts of the terms that can contain the hole
    contexts: dict[Sort, list[Term]] = {}
    more = {hole_sort}
    while more:
        contexts.update((s, []) for s in more)
        more = {f.result_sort for f in trs.symbols if more & set(f.arg_sorts)} - contexts.keys()
    contexts[hole_sort] = [empty]
    slots = [(f, slot) for f in trs.symbols for slot, s in enumerate(f.arg_sorts) if s in contexts]
    ground, ground_shapes = _ground_shapes(
        trs, {s for f, slot in slots for k, s in enumerate(f.arg_sorts) if k != slot})
    context_shapes = [
        (f, [contexts[s] if k == slot else ground[s] for k, s in enumerate(f.arg_sorts)])
        for f, slot in slots]
    depth_of: dict[Term, int] = {empty: 0}
    yield empty
    for d in range(1, depth + 1):
        yield from _level(d, context_shapes, depth_of, contexts)
        # context level d + 1 takes ground arguments of depth <= d
        if d < depth:
            for _ in _level(d, ground_shapes, depth_of, ground):
                pass


@dataclass(frozen=True)
class EnumBounds:
    ctx_depth: int = 3
    term_depth: int = 3
    max_cases: int = 50_000


@dataclass(frozen=True)
class NoCounterexampleUpTo:
    cases_checked: int
    skipped_truncated: int
    # max_cases stopped the search before it covered the depths
    capped: bool = False


@dataclass(frozen=True)
class Counterexample:
    context: Term
    term: Term
    replacement: Term
    before: frozenset[Term]
    after: frozenset[Term]


Verdict = Union[NoCounterexampleUpTo, Counterexample]


def brute_force_redundant(
    trs: Trs, fname: str, i: int, bounds: Optional[EnumBounds] = None
) -> Verdict:
    """Search for a context C, an f-rooted term t, and a replacement s
    whose bounded evaluation semantics differ between C[t] and
    C[t[s]_i].  First counterexample in enumeration order wins;
    truncated comparisons are skipped and counted."""
    bounds = bounds or EnumBounds()
    sym = trs.symbol_map[fname]
    # the subjects' arguments are one level below the term depth
    least = trs.least_ground_terms
    for k, s in enumerate(sym.arg_sorts, 1):
        if s not in least or least[s][0] >= bounds.term_depth:
            why = (f"whose shallowest ground term has depth {least[s][0]}"
                   if s in least else "which has no ground terms")
            raise EmptySort(f"--term-depth {bounds.term_depth} admits no {sym.name} "
                            f"term: argument {k} has sort {s}, {why}")
    # A subject meets a case by its first or second replacement, and a
    # context by its first subject, so max_cases cases read at most
    # n = max_cases + 1 contexts, n subjects (none with an argument past
    # the n-th of its pool) and n + 1 replacements.
    n = bounds.max_cases + 1
    replacements = list(islice(
        enumerate_ground_terms(trs, sym.arg_sorts[i - 1], bounds.term_depth), n + 1))
    if len(replacements) < 2:  # the one replacement is every subject's argument i
        return NoCounterexampleUpTo(0, 0)
    arg_pools = [list(islice(enumerate_ground_terms(trs, s, bounds.term_depth - 1), n))
                 for s in sym.arg_sorts]

    @functools.cache
    def seval_of(t: Term) -> tuple[frozenset[Term], bool]:
        sem = bounded_semantics(t, trs)
        return sem.seval, sem.truncated

    cases = 0
    skipped = 0
    for context in islice(enumerate_contexts(trs, sym.result_sort, bounds.ctx_depth), n):
        for args in product(*arg_pools):
            t = App(sym, args)
            for s in replacements:
                if s == t.args[i - 1]:
                    continue
                if cases >= bounds.max_cases:
                    return NoCounterexampleUpTo(cases, skipped, capped=True)
                cases += 1
                before_term = plug(context, t)
                after_term = plug(context, replace(t, (i,), s))
                before, tr1 = seval_of(before_term)
                after, tr2 = seval_of(after_term)
                if tr1 or tr2:
                    skipped += 1
                    continue
                if before != after:
                    return Counterexample(context, t, s, before, after)
    return NoCounterexampleUpTo(cases, skipped)


# ---------------------------------------------------------------------------
# Differential verification of an erasure

MAX_RANDOM_TERM_SYMBOLS = 100_000


class _Compound:
    """A draw option of positive arity: the symbol, and the entries its
    arguments are drawn from, last argument first (None until the
    option is first drawn)."""

    __slots__ = ("symbol", "links")

    def __init__(self, symbol: FuncSymbol) -> None:
        self.symbol = symbol
        self.links: Optional[list[DrawEntry]] = None


class DrawEntry:
    """What random_ground_term draws from for one (sort, depth budget):
    the options, in declaration order, of the symbols of that result
    sort that root a ground term of depth <= the budget (a constant's
    option is its node); the sort's least ground term; and the budget."""

    __slots__ = ("options", "least", "budget")

    def __init__(self, trs: Trs, sort: Sort, budget: int) -> None:
        least = trs.least_ground_terms
        self.options: list[Union[App, _Compound]] = [
            _Compound(f) if f.arg_sorts else App(f, ())
            for f in trs.symbols if f.result_sort == sort
            and all(a in least and least[a][0] < budget for a in f.arg_sorts)]
        self.least = least[sort][1]
        self.budget = budget


def _draw_entry(trs: Trs, sort: Sort, budget: int) -> DrawEntry:
    entry = trs.ground_roots.get((sort, budget))
    if entry is None:
        entry = trs.ground_roots[sort, budget] = DrawEntry(trs, sort, budget)
    return entry


def random_ground_term(
    trs: Trs, sort: Sort, depth: int, rng: random.Random
) -> Term:
    """A random ground term of the sort within the depth budget, over
    the full signature.

    Symbols are drawn in preorder, uniformly among those that fit the
    budget.  Where that draw branches more often than it stops, the
    term can grow without end; after MAX_RANDOM_TERM_SYMBOLS draws,
    every open argument gets its sort's least ground term instead.

    The options come from the system's DrawEntry tables: a drawn
    option's links to the entries of its arguments are made the first
    time it is drawn, so the tables hold only the levels draws reach.
    """
    _check_inhabited(trs, sort, depth)
    # draw the options in preorder; past the cap, a least ground term
    # stands for a whole argument
    drawn: list = []
    stack = [_draw_entry(trs, sort, depth)]
    while stack:
        entry = stack.pop()
        if len(drawn) >= MAX_RANDOM_TERM_SYMBOLS:
            drawn.append(entry.least)
            continue
        option = rng.choice(entry.options)
        drawn.append(option)
        if option.__class__ is _Compound:
            links = option.links
            if links is None:
                budget = entry.budget - 1
                links = option.links = [
                    _draw_entry(trs, a, budget) for a in reversed(option.symbol.arg_sorts)]
            stack += links
    # in reverse preorder an option's arguments are the last results
    # built, its first argument on top
    done: list[Term] = []
    for option in reversed(drawn):
        if option.__class__ is _Compound:
            n = len(option.links)
            args = tuple(done[: -n - 1 : -1])
            del done[-n:]
            done.append(App(option.symbol, args))
        else:
            done.append(option)
    return done[0]


@dataclass(frozen=True)
class Disagreement:
    term: Term
    original: Term
    erased: Term


@dataclass(frozen=True)
class VerifyReport:
    agree: int
    disagree: int
    indeterminate: int
    nonvalue: int
    witnesses: tuple[Disagreement, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return self.disagree == 0


def differential_verify(
    trs: Trs,
    rho: dict[str, frozenset[int]],
    trials: int = 200,
    depth: int = 6,
    seed: int = 42,
    fuel: int = DEFAULT_FUEL,
    suffix: str = "",
) -> VerifyReport:
    """Evaluate random ground terms under the original system and
    their erasures under the erased system, and compare values.

    Classification per trial: agree (both values, erased original
    value equals erased-system value), disagree (both values,
    different), indeterminate (either ran out of fuel), nonvalue
    (either normalized to a non-value normal form).  Reproducible for
    a fixed seed.
    """
    table = erasure_table(trs, rho, suffix)
    erased = erase_trs(trs, rho, suffix)
    rng = random.Random(seed)
    least = trs.least_ground_terms
    sorts = [s for s in trs.sorts if s in least and least[s][0] <= depth]
    if not sorts:
        why = (f"the shallowest ground term of any sort has depth "
               f"{min(d for d, _ in least.values())}" if least
               else "the system has no ground terms")
        raise EmptySort(f"--depth {depth} admits no ground term: {why}")
    agree = disagree = indeterminate = nonvalue = 0
    witnesses: list[Disagreement] = []
    for k in range(trials):
        sort = sorts[k % len(sorts)]
        t = random_ground_term(trs, sort, depth, rng)
        # t is ground, and so is its erasure
        o1 = normalize(t, trs, fuel=fuel)
        o2 = normalize(erase_term(t, table), erased, fuel=fuel)
        if o1.exhausted or o2.exhausted:
            indeterminate += 1
            continue
        if not (o1.is_value and o2.is_value):
            nonvalue += 1
            continue
        if erase_term(o1.term, table) == o2.term:
            agree += 1
        else:
            disagree += 1
            if len(witnesses) < 5:
                witnesses.append(Disagreement(t, o1.term, o2.term))
    return VerifyReport(
        agree=agree,
        disagree=disagree,
        indeterminate=indeterminate,
        nonvalue=nonvalue,
        witnesses=tuple(witnesses),
    )

"""Ground truth by brute force.

Independent of the analyzer: enumerate bounded contexts and terms,
compare bounded evaluation semantics directly against the definition
of argument redundancy, and differentially test erasures on random
ground terms.  The oracle can only refute or bound, never prove.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from typing import Optional, Union

from .errors import EmptySort
from .erasure import erase_term, erase_trs, erasure_table
from .rewrite import DEFAULT_FUEL, bounded_semantics, normalize
from .terms import App, FuncSymbol, Sort, Substitution, Term, Var, fold, replace
from .trs import Trs

HOLE_NAME = "[]"


def hole(sort: Sort) -> Var:
    return Var(HOLE_NAME, sort)


def plug(context: Term, t: Term) -> Term:
    """Fill the single hole of a context."""
    return Substitution({HOLE_NAME: t}).apply(context)


def term_depth(t: Term) -> int:
    """Tree depth in node levels; the context hole counts as zero."""
    return fold(t, lambda v: int(v.name != HOLE_NAME), lambda u, ds: 1 + max(ds, default=0))


def _ground_terms_by_sort(
    trs: Trs, depth: int
) -> tuple[dict[Sort, list[Term]], dict[Term, int]]:
    """Every ground term (over the full signature) with depth <= the
    bound, per sort in (depth, declaration) order, and the depth of
    each."""
    by_sort: dict[Sort, list[Term]] = {s: [] for s in trs.sorts}
    depth_of: dict[Term, int] = {}
    for d in range(1, depth + 1):
        level: list[Term] = []
        for f in trs.symbols:
            if f.arity == 0:
                if d == 1:
                    t = App(f, ())
                    level.append(t)
                    depth_of[t] = 1
                continue
            for args in product(*(by_sort.get(s, []) for s in f.arg_sorts)):
                if max(depth_of[a] for a in args) != d - 1:
                    continue
                t = App(f, args)
                level.append(t)
                depth_of[t] = d
        for t in level:
            by_sort[t.symbol.result_sort].append(t)
    return by_sort, depth_of


def enumerate_ground_terms(trs: Trs, sort: Sort, depth: int) -> list[Term]:
    """All ground terms of the sort (over the full signature, defined
    symbols included) with depth <= the bound, ordered by depth first
    and declaration order within a depth level."""
    result = _ground_terms_by_sort(trs, depth)[0].get(sort)
    if not result:
        raise EmptySort(f"sort {sort} has no ground terms of depth <= {depth}")
    return result


def enumerate_contexts(trs: Trs, hole_sort: Sort, depth: int) -> list[Term]:
    """All one-hole contexts of depth <= the bound whose hole has the
    given sort, the empty context first; the hole contributes zero to
    depth.  Same canonical (depth, declaration) order as terms."""
    ground, depth_of = _ground_terms_by_sort(trs, depth - 1)
    empty = hole(hole_sort)
    depth_of[empty] = 0
    ctx_by_sort: dict[Sort, list[Term]] = {s: [] for s in trs.sorts}
    ctx_by_sort[hole_sort] = [empty]
    all_contexts: list[Term] = [empty]
    for d in range(1, depth + 1):
        # contexts known so far are all shallower than d; ground terms
        # are filtered to the same bound
        shallower = {s: [t for t in ts if depth_of[t] < d] for s, ts in ground.items()}
        level: list[Term] = []
        for f in trs.symbols:
            for slot in range(f.arity):
                pools = [shallower.get(s, []) for s in f.arg_sorts]
                pools[slot] = ctx_by_sort.get(f.arg_sorts[slot], [])
                for args in product(*pools):
                    if max(depth_of[a] for a in args) == d - 1:
                        c = App(f, args)
                        level.append(c)
                        depth_of[c] = d
        for c in level:
            ctx_by_sort.setdefault(c.symbol.result_sort, []).append(c)
        all_contexts.extend(level)
    return all_contexts


@dataclass(frozen=True)
class EnumBounds:
    ctx_depth: int = 3
    term_depth: int = 3
    max_cases: int = 50_000


@dataclass(frozen=True)
class NoCounterexampleUpTo:
    ctx_depth: int
    term_depth: int
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
    contexts = enumerate_contexts(trs, sym.result_sort, bounds.ctx_depth)
    arg_pools = [
        enumerate_ground_terms(trs, s, bounds.term_depth - 1) for s in sym.arg_sorts
    ]
    subjects = [App(sym, args) for args in product(*arg_pools)]
    replacements = enumerate_ground_terms(
        trs, sym.arg_sorts[i - 1], bounds.term_depth
    )

    seval_cache: dict[Term, tuple[frozenset[Term], bool]] = {}

    def seval_of(t: Term) -> tuple[frozenset[Term], bool]:
        hit = seval_cache.get(t)
        if hit is None:
            sem = bounded_semantics(t, trs)
            hit = (sem.seval, sem.truncated)
            seval_cache[t] = hit
        return hit

    cases = 0
    skipped = 0
    for context in contexts:
        for t in subjects:
            for s in replacements:
                if s == t.args[i - 1]:
                    continue
                if cases >= bounds.max_cases:
                    return NoCounterexampleUpTo(
                        bounds.ctx_depth, bounds.term_depth, cases, skipped, capped=True
                    )
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
    return NoCounterexampleUpTo(bounds.ctx_depth, bounds.term_depth, cases, skipped)


# ---------------------------------------------------------------------------
# Differential verification of an erasure

MAX_RANDOM_TERM_SYMBOLS = 100_000


def random_ground_term(
    trs: Trs, sort: Sort, depth: int, rng: random.Random
) -> Term:
    """A random ground term of the sort within the depth budget, over
    the full signature.

    Symbols are drawn in preorder, uniformly among those that fit the
    budget.  Where that draw branches more often than it stops, the
    term can grow without end; after MAX_RANDOM_TERM_SYMBOLS draws,
    every open argument gets its sort's least ground term instead.
    """
    least = trs.least_ground_terms
    if sort not in least or least[sort][0] > depth:
        raise EmptySort(f"sort {sort} has no ground terms of depth <= {depth}")
    roots = trs.ground_roots
    fits: dict[tuple[Sort, int], list[FuncSymbol]] = {}
    # draw the symbols in preorder; past the cap, a least ground term
    # stands for a whole argument
    drawn: list = []
    stack = [(sort, depth)]
    while stack:
        task = stack.pop()
        if len(drawn) >= MAX_RANDOM_TERM_SYMBOLS:
            drawn.append(least[task[0]][1])
            continue
        if (candidates := fits.get(task)) is None:
            s, budget = task
            candidates = fits[task] = [f for f, d in roots[s] if d <= budget]
        f = rng.choice(candidates)
        drawn.append(f)
        if f.arg_sorts:
            budget = task[1] - 1
            stack.extend([(a, budget) for a in reversed(f.arg_sorts)])
    # in reverse preorder a symbol's arguments are the last results built,
    # its first argument on top
    done: list[Term] = []
    for f in reversed(drawn):
        if f.__class__ is not FuncSymbol:
            done.append(f)
        elif n := f.arity:
            args = tuple(done[: -n - 1 : -1])
            del done[-n:]
            done.append(App(f, args))
        else:
            done.append(App(f, ()))
    return done[0]


@dataclass(frozen=True)
class Disagreement:
    term: Term
    original: Term
    erased: Term


@dataclass(frozen=True)
class VerifyReport:
    trials: int
    depth: int
    seed: int
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
        trials=trials,
        depth=depth,
        seed=seed,
        agree=agree,
        disagree=disagree,
        indeterminate=indeterminate,
        nonvalue=nonvalue,
        witnesses=tuple(witnesses),
    )

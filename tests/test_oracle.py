"""Brute-force ground truth: enumeration, the redundancy oracle, and
differential verification of erasures."""

import json
import os
import random
import resource
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import redarg
from redarg import (
    Counterexample,
    EmptySort,
    EnumBounds,
    NoCounterexampleUpTo,
    analyze,
    brute_force_redundant,
    differential_verify,
    enumerate_contexts,
    enumerate_ground_terms,
    parse_trs,
)
from redarg import oracle
from redarg.oracle import HOLE_NAME, hole, plug, random_ground_term
from redarg.rewrite import bounded_semantics
from redarg.terms import App, FuncSymbol, Var, fold, replace, vars_of

from conftest import CORPUS_FILES, GENERATED, corpus_path, load_corpus, run_cli

SMALL = EnumBounds(ctx_depth=2, term_depth=2)


def term_depth(t):
    """Tree depth in node levels; the context hole counts as zero."""
    return fold(t, lambda v: int(v.name != HOLE_NAME), lambda u, ds: 1 + max(ds, default=0))


# --- enumeration ------------------------------------------------------------

def test_enumerate_ground_terms_order(plus_minus):
    terms = list(enumerate_ground_terms(plus_minus, "Nat", 3))
    assert len(terms) == 13
    assert [str(t) for t in terms[:8]] == [
        "Z",
        "S(Z)",
        "minus_pe(Z, Z)",
        "S(S(Z))",
        "S(minus_pe(Z, Z))",
        "minus_pe(Z, S(Z))",
        "minus_pe(Z, minus_pe(Z, Z))",
        "minus_pe(S(Z), Z)",
    ]


def test_enumerate_ground_terms_covers_defined_symbols(applast):
    assert [str(t) for t in enumerate_ground_terms(applast, "Nat", 2)] == [
        "Z", "S(Z)", "applast(nil, Z)", "lastnew(Z, nil, Z)"
    ]
    assert [str(t) for t in enumerate_ground_terms(applast, "List", 2)] == [
        "nil", "cons(Z, nil)"
    ]


def test_enumerate_ground_terms_empty(plus_minus):
    with pytest.raises(EmptySort, match=r"^sort Nat has no ground terms of depth <= 0$"):
        enumerate_ground_terms(plus_minus, "Nat", 0)
    with pytest.raises(EmptySort, match=r"^sort Missing has no ground terms of depth <= 3$"):
        enumerate_ground_terms(plus_minus, "Missing", 3)


def test_enumerate_contexts(plus_minus):
    ctxs = list(enumerate_contexts(plus_minus, "Nat", 2))
    assert [str(c) for c in ctxs] == [
        "[]",
        "S([])",
        "S(S([]))",
        "minus_pe([], Z)",
        "minus_pe(S([]), Z)",
        "minus_pe(Z, [])",
        "minus_pe(Z, S([]))",
    ]
    for c in ctxs:
        holes = [v for v in vars_of(c) if v.name == HOLE_NAME]
        assert holes == [Var(HOLE_NAME, "Nat")]


def test_plug_and_depth(plus_minus):
    c = list(enumerate_contexts(plus_minus, "Nat", 2))[1]  # S([])
    t = list(enumerate_ground_terms(plus_minus, "Nat", 1))[0]  # Z
    assert str(plug(c, t)) == "S(Z)"
    assert term_depth(hole("Nat")) == 0
    assert term_depth(c) == 1
    assert term_depth(plug(c, t)) == 2


# The level loops that enumeration used before terms and contexts shared
# one level builder, kept as the reference for its order.

def reference_ground_terms_by_sort(trs, depth):
    by_sort = {s: [] for s in trs.sorts}
    depth_of = {}
    for d in range(1, depth + 1):
        level = []
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


def reference_enumerate_contexts(trs, hole_sort, depth):
    ground, depth_of = reference_ground_terms_by_sort(trs, depth - 1)
    empty = hole(hole_sort)
    depth_of[empty] = 0
    ctx_by_sort = {s: [] for s in trs.sorts}
    ctx_by_sort[hole_sort] = [empty]
    all_contexts = [empty]
    for d in range(1, depth + 1):
        shallower = {s: [t for t in ts if depth_of[t] < d] for s, ts in ground.items()}
        level = []
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


# bogus's Nat next to a sort U that holds no Nat: no context of a U hole
# takes a Nat argument
U_AND_NAT = ("sort U\nsort Nat\ncons u : U\ncons k : U -> U\ncons Z : Nat\n"
             "cons S : Nat -> Nat\ncons t : Nat Nat Nat -> Nat\nfun f : U -> U\n"
             "pragma terminating\nrule f(x) -> u\n")
ENUMERATED = {**{relpath: lambda relpath=relpath: load_corpus(relpath)
                 for relpath in CORPUS_FILES}, "u_and_nat": lambda: parse_trs(U_AND_NAT)}


@pytest.mark.parametrize("relpath", sorted(ENUMERATED))
def test_enumeration_agrees_with_the_separate_level_loops(relpath):
    trs = ENUMERATED[relpath]()
    for depth in range(4):
        by_sort = reference_ground_terms_by_sort(trs, depth)[0]
        for sort in trs.sorts:
            if by_sort[sort]:
                assert list(enumerate_ground_terms(trs, sort, depth)) == by_sort[sort]
            else:
                with pytest.raises(EmptySort):
                    enumerate_ground_terms(trs, sort, depth)
            assert list(enumerate_contexts(trs, sort, depth)) == \
                reference_enumerate_contexts(trs, sort, depth)


# --- the oracle -------------------------------------------------------------

@pytest.mark.parametrize(
    "path, symbol, index, context, term, replacement",
    [
        ("negative/four_rules.trs", "f", 1, "[]", "f(a, b)", "b"),
        ("applast.trs", "lastnew", 3, "[]", "lastnew(Z, nil, Z)", "S(Z)"),
        ("plus_minus.trs", "minus_pe", 2, "[]", "minus_pe(Z, Z)", "S(Z)"),
    ],
)
def test_oracle_finds_counterexample(path, symbol, index, context, term,
                                     replacement):
    trs = load_corpus(path)
    verdict = brute_force_redundant(trs, symbol, index, SMALL)
    assert isinstance(verdict, Counterexample)
    assert str(verdict.context) == context
    assert str(verdict.term) == term
    assert str(verdict.replacement) == replacement
    assert verdict.before != verdict.after


def test_oracle_counterexample_values(plus_minus):
    verdict = brute_force_redundant(plus_minus, "minus_pe", 2, SMALL)
    assert sorted(map(str, verdict.before)) == ["Z"]
    assert sorted(map(str, verdict.after)) == ["S(Z)"]


@pytest.mark.parametrize(
    "path, symbol, index, cases",
    [
        ("applast.trs", "applast", 1, 11),
        ("bogus.trs", "loop", 2, 18),
    ],
)
def test_oracle_clears_redundant_positions(path, symbol, index, cases):
    trs = load_corpus(path)
    verdict = brute_force_redundant(trs, symbol, index, SMALL)
    assert isinstance(verdict, NoCounterexampleUpTo)
    assert verdict.cases_checked == cases
    assert verdict.skipped_truncated == 0


def test_oracle_respects_case_cap(applast):
    bounds = EnumBounds(ctx_depth=2, term_depth=2, max_cases=5)
    verdict = brute_force_redundant(applast, "applast", 1, bounds)
    assert isinstance(verdict, NoCounterexampleUpTo)
    assert verdict.cases_checked == 5
    assert verdict.capped


def test_oracle_is_capped_only_when_cases_remain(applast):
    # (applast, 1) has exactly 11 cases at depths 2/2
    exact = brute_force_redundant(applast, "applast", 1, EnumBounds(2, 2, max_cases=11))
    assert (exact.cases_checked, exact.capped) == (11, False)
    short = brute_force_redundant(applast, "applast", 1, EnumBounds(2, 2, max_cases=10))
    assert (short.cases_checked, short.capped) == (10, True)


# `redarg oracle` in a child process whose address space is capped at
# 1.5 GB: a search that builds more than the case cap can reach ends in
# a MemoryError or the timeout, not in an answer.
ADDRESS_SPACE = 1_500_000_000


def limit_address_space():
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def oracle_in_a_child(*argv):
    paths = [str(Path(redarg.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    run = subprocess.run(
        [sys.executable, "-m", "redarg.cli", "oracle", *argv, "--json"],
        capture_output=True, text=True, timeout=60, preexec_fn=limit_address_space,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths))))
    return run.returncode, run.stdout, run.stderr


@pytest.mark.parametrize("bound", [["--term-depth", "9"], ["--ctx-depth", "6"]])
def test_the_case_cap_bounds_what_the_oracle_builds(bound):
    # bogus has 26,524,914,094,591 Nat terms of depth <= 5
    code, out, err = oracle_in_a_child(corpus_path("bogus.trs"), "-f", "loop", "-i", "2",
                                       *bound, "--max-cases", "5")
    assert code == 0, err
    report = json.loads(out)
    assert (report["cases_checked"], report["capped"]) == (5, True)


def test_a_deep_context_bound_finds_the_same_counterexample():
    # four_rules has 13,410,205 AB contexts of depth <= 5
    argv = [corpus_path("negative/four_rules.trs"), "-f", "f", "-i", "1"]
    code, out, err = oracle_in_a_child(*argv, "--ctx-depth", "5")
    assert code == 1, err
    shallow = run_cli("oracle", *argv, "--json")
    assert shallow[0] == 1
    assert json.loads(out)["counterexample"] == json.loads(shallow[1])["counterexample"]


def test_contexts_build_only_the_ground_sorts_they_take(tmp_path):
    # a U context of depth 6 takes no Nat, of which there are
    # 26,524,914,094,591 of depth <= 5
    trs = parse_trs(U_AND_NAT)
    assert list(enumerate_contexts(trs, "U", 5)) == reference_enumerate_contexts(trs, "U", 5)
    path = tmp_path / "u_and_nat.trs"
    path.write_text(U_AND_NAT)
    code, out, err = oracle_in_a_child(str(path), "-f", "f", "-i", "1", "--ctx-depth", "6")
    assert code == 0, err
    report = json.loads(out)
    assert (report["cases_checked"], report["capped"], report["verdict"]) == \
        (2286, False, "no-counterexample")


def test_a_single_replacement_checks_no_case(tmp_path):
    # u is the only U term, and so every subject's first argument; the
    # second argument's pool, Nat of depth <= 7, holds about 1.3e18 terms
    path = tmp_path / "one_u.trs"
    path.write_text("sort U\nsort Nat\ncons u : U\ncons z : Nat\ncons c : Nat Nat -> Nat\n"
                    "fun f : U Nat -> Nat\npragma terminating\nrule f(x, y) -> y\n")
    code, out, err = oracle_in_a_child(str(path), "-f", "f", "-i", "1", "--term-depth", "8")
    assert code == 0, err
    report = json.loads(out)
    assert (report["cases_checked"], report["skipped_truncated"], report["capped"]) == (0, 0, False)


# The oracle as it was before its pools were read lazily: every context,
# subject and replacement listed before the case cap applies.  Its
# bounded semantics are cached across calls on one system.

def reference_brute_force_redundant(trs, fname, i, bounds, seval_cache):
    sym = trs.symbol_map[fname]
    least = trs.least_ground_terms
    for k, s in enumerate(sym.arg_sorts, 1):
        if s not in least or least[s][0] >= bounds.term_depth:
            why = (f"whose shallowest ground term has depth {least[s][0]}"
                   if s in least else "which has no ground terms")
            raise EmptySort(f"--term-depth {bounds.term_depth} admits no {sym.name} "
                            f"term: argument {k} has sort {s}, {why}")
    contexts = reference_enumerate_contexts(trs, sym.result_sort, bounds.ctx_depth)
    pools = reference_ground_terms_by_sort(trs, bounds.term_depth - 1)[0]
    subjects = [App(sym, args) for args in product(*(pools[s] for s in sym.arg_sorts))]
    replacements = reference_ground_terms_by_sort(trs, bounds.term_depth)[0][sym.arg_sorts[i - 1]]

    def seval_of(t):
        if t not in seval_cache:
            sem = bounded_semantics(t, trs)
            seval_cache[t] = (sem.seval, sem.truncated)
        return seval_cache[t]

    cases = skipped = 0
    for context in contexts:
        for t in subjects:
            for s in replacements:
                if s == t.args[i - 1]:
                    continue
                if cases >= bounds.max_cases:
                    return NoCounterexampleUpTo(cases, skipped, capped=True)
                cases += 1
                before, tr1 = seval_of(plug(context, t))
                after, tr2 = seval_of(plug(context, replace(t, (i,), s)))
                if tr1 or tr2:
                    skipped += 1
                    continue
                if before != after:
                    return Counterexample(context, t, s, before, after)
    return NoCounterexampleUpTo(cases, skipped)


def verdict_or_error(search, *args):
    try:
        return search(*args)
    except EmptySort as e:
        return str(e)


@pytest.mark.parametrize("relpath", CORPUS_FILES)
def test_oracle_agrees_with_the_listing_oracle(relpath):
    # the case cap cuts every pool short: an off-by-one cut shows as a
    # verdict that is capped one case early or late
    trs = load_corpus(relpath)
    seval_cache = {}
    for f in trs.symbols:
        if f.kind != "defined":
            continue
        for i in range(1, f.arity + 1):
            for ctx_depth, term_depth in [(0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 2)]:
                for max_cases in [*range(13), 50_000]:
                    bounds = EnumBounds(ctx_depth, term_depth, max_cases)
                    assert verdict_or_error(brute_force_redundant, trs, f.name, i, bounds) == \
                        verdict_or_error(reference_brute_force_redundant, trs, f.name, i, bounds,
                                         seval_cache)


def test_oracle_evaluates_each_plugged_term_once(monkeypatch):
    # a plugged term recurs across cases (a subject meets many
    # replacements); within one search its semantics is computed once
    evaluated = []

    def counted(t, trs, *args, **kwargs):
        evaluated.append(t)
        return bounded_semantics(t, trs, *args, **kwargs)

    monkeypatch.setattr(oracle, "bounded_semantics", counted)
    recurring = False
    for relpath in CORPUS_FILES:
        trs = load_corpus(relpath)
        for f in trs.symbols:
            if f.kind != "defined":
                continue
            for i in range(1, f.arity + 1):
                evaluated.clear()
                verdict = verdict_or_error(brute_force_redundant, trs, f.name, i, SMALL)
                assert len(evaluated) == len(set(evaluated)), (relpath, f.name, i)
                if isinstance(verdict, NoCounterexampleUpTo):
                    # two terms per case, so fewer evaluations show a reuse
                    recurring |= len(evaluated) < 2 * verdict.cases_checked
    assert recurring


# --- random ground terms ----------------------------------------------------

def test_random_ground_term_deterministic(plus_minus):
    a = [str(random_ground_term(plus_minus, "Nat", 4, random.Random(7)))
         for _ in range(1)]
    b = [str(random_ground_term(plus_minus, "Nat", 4, random.Random(7)))
         for _ in range(1)]
    assert a == b == ["S(Z)"]


@pytest.mark.parametrize("relpath, sort, depth, seed, draws", [
    ("applast.trs", "List", 4, 3, [
        "nil", "nil",
        "cons(lastnew(Z, nil, lastnew(Z, nil, Z)), cons(lastnew(Z, nil, Z), nil))",
        "cons(Z, nil)"]),
    ("negative/four_rules.trs", "AB", 3, 5, ["f(b, f(b, a))", "b", "a", "f(a, a)"]),
    ("mutrec2.trs", "Nat", 4, 9, ["S(f(S(Z)))", "Z", "Z", "f(Z)"]),
])
def test_random_ground_term_pinned_draws(relpath, sort, depth, seed, draws):
    # seeded draws, and so verify's output, depend on the order of the
    # candidate symbols; these were drawn before candidates were cached
    trs = load_corpus(relpath)
    rng = random.Random(seed)
    assert [str(random_ground_term(trs, sort, depth, rng)) for _ in draws] == draws


def reference_ground_roots(trs):
    """Per sort, the symbols that root a ground term, each with the
    least depth of one: the table random_ground_term filtered by budget
    before it kept one candidate list per (sort, budget)."""
    least = trs.least_ground_terms
    roots = {}
    for f in trs.symbols:
        if all(s in least for s in f.arg_sorts):
            d = 1 + max((least[s][0] for s in f.arg_sorts), default=0)
            roots.setdefault(f.result_sort, []).append((f, d))
    return roots


@pytest.mark.parametrize("relpath", CORPUS_FILES)
def test_ground_roots_agree_with_the_least_depth_filter(relpath):
    trs = load_corpus(relpath)
    roots = reference_ground_roots(trs)
    rng = random.Random(1)
    asked = set()
    for sort in roots:
        for budget in range(trs.least_ground_terms[sort][0], 9):
            for _ in range(5):
                random_ground_term(trs, sort, budget, rng)
            asked.add((sort, budget))
    assert asked <= trs.ground_roots.keys()
    for (sort, budget), entry in trs.ground_roots.items():
        assert [o.symbol for o in entry.options] == [f for f, d in roots[sort] if d <= budget]


def test_a_second_verify_adds_no_ground_roots_entry():
    trs = load_corpus("applast.trs")
    rho = sound_rho(trs)
    differential_verify(trs, rho, trials=40, depth=6, seed=3)
    first = dict(trs.ground_roots)
    assert {("Nat", 6), ("List", 6)} <= first.keys()
    differential_verify(trs, rho, trials=40, depth=6, seed=4)
    assert trs.ground_roots.keys() == first.keys()
    assert all(trs.ground_roots[k] is v for k, v in first.items())


def test_random_ground_term_bounds(applast):
    rng = random.Random(3)
    for _ in range(50):
        t = random_ground_term(applast, "List", 5, rng)
        assert t.sort == "List"
        assert term_depth(t) <= 5
        assert not vars_of(t)


def test_random_ground_term_stops_drawing_at_the_cap(bogus, monkeypatch):
    # past the cap every open argument gets its sort's least ground term
    monkeypatch.setattr("redarg.oracle.MAX_RANDOM_TERM_SYMBOLS", 1)
    least = bogus.least_ground_terms["Nat"][1]
    for seed in range(10):
        t = random_ground_term(bogus, "Nat", 50, random.Random(seed))
        assert all(a == least for a in t.args)


def reference_random_ground_term(trs, sort, depth, rng, roots):
    """random_ground_term as it was before its table held linked draw
    entries: one candidate symbol list per (sort, budget) in roots,
    looked up for every drawn symbol."""
    oracle._check_inhabited(trs, sort, depth)
    least = trs.least_ground_terms
    drawn = []
    stack = [(sort, depth)]
    while stack:
        task = stack.pop()
        if len(drawn) >= oracle.MAX_RANDOM_TERM_SYMBOLS:
            drawn.append(least[task[0]][1])
            continue
        if (candidates := roots.get(task)) is None:
            s, budget = task
            candidates = roots[task] = [f for f in trs.symbols if f.result_sort == s and all(
                a in least and least[a][0] < budget for a in f.arg_sorts)]
        f = rng.choice(candidates)
        drawn.append(f)
        if f.arg_sorts:
            budget = task[1] - 1
            stack.extend([(a, budget) for a in reversed(f.arg_sorts)])
    done = []
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


def assert_draws_agree(trs, sort, budget, seed, draws, roots):
    """The same nodes, and the random stream left in the same state
    after each draw, from the draw and from the reference."""
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        t = random_ground_term(trs, sort, budget, rng)
        assert t is reference_random_ground_term(trs, sort, budget, ref_rng, roots)
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("name", [*CORPUS_FILES, *GENERATED])
def test_draws_agree_with_the_parent_draw(name):
    trs = GENERATED[name]() if name in GENERATED else load_corpus(name)
    least = trs.least_ground_terms
    roots = {}
    for sort in trs.sorts:
        if sort in least:
            for budget in range(least[sort][0], 9):
                for seed in range(3):
                    assert_draws_agree(trs, sort, budget, seed, 4, roots)


@pytest.mark.parametrize("cap", [1, 7])
def test_draws_agree_with_the_parent_draw_past_the_cap(cap, monkeypatch):
    monkeypatch.setattr("redarg.oracle.MAX_RANDOM_TERM_SYMBOLS", cap)
    trs = load_corpus("bogus.trs")
    for seed in range(10):
        assert_draws_agree(trs, "Nat", 50, seed, 3, {})


def test_draw_tables_hold_only_the_levels_draws_reach(monkeypatch):
    # built eagerly, the table would hold 100,000 levels; filled by
    # recursion, its links would overflow the stack
    monkeypatch.setattr("redarg.oracle.MAX_RANDOM_TERM_SYMBOLS", 50)
    trs = load_corpus("bogus.trs")
    for seed in range(3):
        random_ground_term(trs, "Nat", 100_000, random.Random(seed))
    assert len(trs.ground_roots) <= 51 * len(trs.sorts)


def test_random_ground_term_empty_sort():
    trs = load_corpus("negative/four_rules.trs")
    with pytest.raises(EmptySort, match=r"^sort AB has no ground terms of depth <= 0$"):
        random_ground_term(trs, "AB", 0, random.Random(0))


# --- differential verification ----------------------------------------------

def sound_rho(trs):
    return analyze(trs).redundant


def test_differential_agrees_on_sound_erasure(applast):
    rep = differential_verify(applast, sound_rho(applast), trials=100,
                              depth=5, seed=11, suffix="'")
    assert rep.disagree == 0 and rep.witnesses == ()
    assert rep.agree + rep.indeterminate + rep.nonvalue == 100
    assert rep.ok


def test_differential_catches_unsound_erasure(plus_minus):
    rho = {"minus_pe": frozenset({2})}  # the live argument
    rep = differential_verify(plus_minus, rho, trials=200,
                              depth=6, seed=42, suffix="'")
    assert rep.disagree >= 1
    assert not rep.ok
    assert rep.witnesses
    w = rep.witnesses[0]
    assert w.original != w.erased


def test_differential_is_seeded(applast):
    rho = sound_rho(applast)
    a = differential_verify(applast, rho, trials=60, depth=5, seed=9, suffix="'")
    b = differential_verify(applast, rho, trials=60, depth=5, seed=9, suffix="'")
    assert a == b


def test_differential_counts_nonvalues(partial):
    rep = differential_verify(partial, {}, trials=50,
                              depth=5, seed=1)
    # g sticks on everything but S(Z), and the identity erasure changes
    # nothing, so runs split between agreement and stuck normal forms
    assert rep.agree == 25 and rep.nonvalue == 25
    assert rep.disagree == 0 and rep.indeterminate == 0


def test_differential_counts_indeterminate(applast):
    rep = differential_verify(applast, sound_rho(applast), trials=40,
                              depth=6, seed=2, suffix="'", fuel=1)
    assert rep.indeterminate > 0
    assert 40 == rep.agree + rep.disagree + rep.indeterminate + rep.nonvalue

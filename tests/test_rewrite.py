"""Rewrite engine: strategies, normalization, joinability, semantics."""

import random

import pytest

from redarg import (
    App,
    Var,
    WellFormednessError,
    analyze,
    bounded_semantics,
    erase_trs,
    instantiate,
    match,
    normalize,
    parse_term,
    parse_trs,
    rewrite_step,
)
from redarg.oracle import differential_verify, random_ground_term
from redarg.rewrite import (
    DEFAULT_FUEL,
    DEFAULT_MAX_TERMS,
    TraceStep,
    explore,
    is_constructor_ground,
    join,
    successors,
)

from conftest import CORPUS, GENERATED, load_corpus

STRATEGY_DEMO = parse_trs(
    "sort N\n"
    "cons Z : N\ncons S : N -> N\n"
    "fun f : N -> N\nfun g : N -> N\n"
    "rule f(x) -> Z\n"
    "rule g(Z) -> S(Z)\n"
)

LOOP = parse_trs(
    "sort N\ncons Z : N\ncons S : N -> N\n"
    "fun w : N -> N\n"
    "rule w(x) -> w(S(x))\n"
)


def t(text, trs=STRATEGY_DEMO):
    return parse_term(text, trs)


# --- single steps -----------------------------------------------------------

def test_strategies_pick_different_redexes():
    start = t("f(g(Z))")
    inner = rewrite_step(start, STRATEGY_DEMO, "leftmost-innermost")
    outer = rewrite_step(start, STRATEGY_DEMO, "leftmost-outermost")
    assert inner is not None and outer is not None
    nxt, pos, rule = inner
    assert (str(nxt), pos, rule.label) == ("f(S(Z))", (1,), "r2")
    nxt, pos, rule = outer
    assert (str(nxt), pos, rule.label) == ("Z", (), "r1")


def test_rewrite_step_is_leftmost():
    trs = parse_trs(
        "sort N\ncons Z : N\nfun h : N N -> N\nfun k : N -> N\n"
        "rule k(Z) -> Z\n"
    )
    start = parse_term("h(k(Z), k(Z))", trs)
    got = rewrite_step(start, trs)
    assert got is not None and got[1] == (1,)


def test_rewrite_step_none_on_normal_form():
    assert rewrite_step(t("S(Z)"), STRATEGY_DEMO) is None
    assert rewrite_step(t("g(S(Z))"), STRATEGY_DEMO) is None  # stuck, no rule


def test_rewrite_step_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        rewrite_step(t("Z"), STRATEGY_DEMO, "random")


def test_rule_order_breaks_ties():
    trs = parse_trs(
        "sort N\ncons Z : N\ncons S : N -> N\nfun p : N -> N\n"
        "rule p(x) -> Z\n"
        "rule p(x) -> S(Z)\n"
    )
    got = rewrite_step(parse_term("p(Z)", trs), trs)
    assert str(got[0]) == "Z" and got[2].label == "r1"


# --- normalization ----------------------------------------------------------

def test_normalize_value_vs_normal_form():
    out = normalize(t("f(g(Z))"), STRATEGY_DEMO)
    assert out.kind == "value" and str(out.term) == "Z" and out.steps == 2
    stuck = normalize(t("g(S(Z))"), STRATEGY_DEMO)
    assert stuck.kind == "normal-form" and stuck.steps == 0


def test_normalize_exact_step_count(plus_minus):
    goal = parse_term("minus_pe(S(S(S(S(S(Z))))), Z)", plus_minus)
    out = normalize(goal, plus_minus)
    assert out.kind == "value" and str(out.term) == "Z" and out.steps == 6


def test_normalize_fuel_exhaustion():
    out = normalize(parse_term("w(Z)", LOOP), LOOP, fuel=7)
    assert out.exhausted and out.steps == 7
    assert str(out.term) == "w(S(S(S(S(S(S(S(Z))))))))"


def test_normalize_zero_fuel_on_normal_form_is_fine():
    out = normalize(t("S(Z)"), STRATEGY_DEMO, fuel=0)
    assert out.kind == "value" and out.steps == 0


def test_trace_replays():
    out = normalize(t("f(g(Z))"), STRATEGY_DEMO, want_trace=True)
    assert len(out.trace) == 2
    assert out.trace[0].after == out.trace[1].before
    assert out.trace[-1].after == out.term
    assert str(out.trace[0]) == "1: f(g(Z)) -> f(S(Z)) [r2]"
    assert str(out.trace[1]) == "e: f(S(Z)) -> Z [r1]"


# --- the bottom-up innermost machine against the step-by-step loop ----------

def reference_normalize(t, trs, fuel):
    """Leftmost-innermost normalization by iterating rewrite_step from
    the root: (kind, term, steps, trace strings)."""
    current, steps, trace = t, 0, []
    while steps < fuel:
        hit = rewrite_step(current, trs)
        if hit is None:
            break
        nxt, p, rule = hit
        trace.append(str(TraceStep(p, rule, current, nxt)))
        current, steps = nxt, steps + 1
    if rewrite_step(current, trs) is not None:
        kind = "fuel-exhausted"
    elif is_constructor_ground(current):
        kind = "value"
    else:
        kind = "normal-form"
    return kind, current, steps, trace


def random_term(trs, rng, open_term):
    """A defined symbol applied to random ground terms of depth at most
    6; with open_term, some proper subterms become variables, some
    named like rule variables."""
    f = rng.choice(trs.defined)
    t = App(f, tuple(
        random_ground_term(trs, s, rng.randint(1, 6), rng) for s in f.arg_sorts
    ))
    if not open_term:
        return t

    def holes(u, top):
        if not top and rng.random() < 0.2:
            return Var(rng.choice(["x", "y", "v"]), u.sort)
        return App(u.symbol, tuple(holes(a, False) for a in u.args))

    return holes(t, True)


CORPUS_SYSTEMS = sorted(str(p.relative_to(CORPUS)) for p in CORPUS.glob("**/*.trs"))


@pytest.mark.parametrize("open_term", [False, True], ids=["ground", "open"])
@pytest.mark.parametrize("relpath", CORPUS_SYSTEMS)
def test_normalize_agrees_with_step_loop(relpath, open_term):
    trs = load_corpus(relpath)
    rng = random.Random(relpath)
    for _ in range(25):
        goal = random_term(trs, rng, open_term)
        for fuel in (0, 1, 3, DEFAULT_FUEL):
            kind, term, steps, trace = reference_normalize(goal, trs, fuel)
            plain = normalize(goal, trs, fuel=fuel)
            assert (plain.kind, plain.term, plain.steps) == (kind, term, steps)
            assert plain.trace is None
            traced = normalize(goal, trs, fuel=fuel, want_trace=True)
            assert (traced.kind, traced.term, traced.steps) == (kind, term, steps)
            assert [str(step) for step in traced.trace] == trace


def test_innermost_normalize_never_rescans(plus_minus, monkeypatch):
    def no_rescan(*args, **kwargs):
        raise AssertionError("rewrite_step called")

    monkeypatch.setattr("redarg.rewrite.rewrite_step", no_rescan)
    goal = parse_term("minus_pe(S(S(Z)), minus_pe(S(Z), Z))", plus_minus)
    assert normalize(goal, plus_minus, fuel=2).exhausted


# --- the normal-form memo -----------------------------------------------------

def outcome_key(out):
    return out.kind, out.term, out.steps


def cold(goal, trs, **kwargs):
    """normalize with an empty normal-form memo."""
    trs.normal_form_memo.clear()
    return normalize(goal, trs, **kwargs)


@pytest.mark.parametrize("relpath", CORPUS_SYSTEMS)
def test_normal_form_memo_is_exact(relpath):
    warm, fresh = load_corpus(relpath), load_corpus(relpath)
    rng = random.Random(relpath)
    goals = [random_term(warm, rng, open_term=False) for _ in range(25)]
    full = [outcome_key(normalize(goal, warm)) for goal in goals]
    assert warm.normal_form_memo
    for goal, want in zip(goals, full):
        assert outcome_key(cold(goal, fresh)) == want
        # below, at and just above the step count: exhausted terms and
        # hits that do not fit in the fuel left
        for fuel in range(want[2] + 2):
            expected = outcome_key(cold(goal, fresh, fuel=fuel))
            assert outcome_key(normalize(goal, warm, fuel=fuel)) == expected


@pytest.mark.parametrize("relpath", CORPUS_SYSTEMS)
def test_trace_and_outermost_bypass_the_memo(relpath):
    warm, fresh = load_corpus(relpath), load_corpus(relpath)
    rng = random.Random(relpath)
    goals = [random_term(warm, rng, open_term=False) for _ in range(25)]
    for goal in goals:
        normalize(goal, warm)
    memo = dict(warm.normal_form_memo)
    for goal in goals:
        traced = normalize(goal, warm, want_trace=True)
        expected = cold(goal, fresh, want_trace=True)
        assert outcome_key(traced) == outcome_key(expected)
        assert [str(s) for s in traced.trace] == [str(s) for s in expected.trace]
        outer = normalize(goal, warm, strategy="leftmost-outermost")
        expected = cold(goal, fresh, strategy="leftmost-outermost")
        assert outcome_key(outer) == outcome_key(expected)
    assert warm.normal_form_memo == memo


def test_second_evaluation_matches_nothing(monkeypatch):
    calls = []

    def counted(pattern, t):
        calls.append(t)
        return match(pattern, t)

    monkeypatch.setattr("redarg.rewrite.match", counted)
    trs = load_corpus("plus_minus.trs")
    goal = parse_term("minus_pe(minus_pe(S(S(S(Z))), S(Z)), minus_pe(S(Z), Z))", trs)
    first = normalize(goal, trs)
    assert calls and first.kind == "value"
    calls.clear()
    assert normalize(goal, trs) == first
    assert calls == []


def test_normal_form_memo_is_cleared_at_its_cap(monkeypatch):
    trs, fresh = load_corpus("applast.trs"), load_corpus("applast.trs")
    monkeypatch.setattr("redarg.rewrite.MEMO_CAP", 3)
    rng = random.Random(7)
    sizes = []
    for _ in range(40):
        goal = random_term(trs, rng, open_term=False)
        assert outcome_key(normalize(goal, trs)) == outcome_key(cold(goal, fresh))
        sizes.append(len(trs.normal_form_memo))
    assert max(sizes) > 3
    assert any(b < a for a, b in zip(sizes, sizes[1:]))


def stored_goals(trs, rng):
    """Goals built from the nodes trs.normal_form_memo holds: some stored
    nodes themselves, and each symbol over stored nodes and random
    ground terms of its argument sorts."""
    stored = list(trs.normal_form_memo)
    least = trs.least_ground_terms
    goals = rng.sample(stored, min(10, len(stored)))
    for f in [f for f in trs.symbols if f.arity] * 3:
        args = []
        for sort in f.arg_sorts:
            pool = [u for u in stored if u.sort == sort]
            if pool and rng.random() < 0.7:
                args.append(rng.choice(pool))
            else:
                budget = max(least[sort][0], rng.randint(1, 4))
                args.append(random_ground_term(trs, sort, budget, rng))
        goals.append(App(f, tuple(args)))
    return goals


@pytest.mark.parametrize("relpath", CORPUS_SYSTEMS)
def test_goal_subterm_lookups_are_exact(relpath):
    warm, fresh = load_corpus(relpath), load_corpus(relpath)
    rng = random.Random(relpath)
    for _ in range(25):
        normalize(random_term(warm, rng, open_term=False), warm)
    memo = warm.normal_form_memo
    goals = stored_goals(warm, rng)
    assert any(goal in memo for goal in goals)
    # a stored argument that takes steps: at a fuel below them its hit
    # does not fit, and the run must stop where it would without the memo
    taken = {sort for f in warm.symbols for sort in f.arg_sorts}
    if any(k for key, (_, k) in memo.items() if key.sort in taken):
        assert any(a in memo and memo[a][1] for goal in goals for a in goal.args)
    for goal in goals:
        want = outcome_key(cold(goal, fresh))
        for fuel in range(want[2] + 2):
            expected = outcome_key(cold(goal, fresh, fuel=fuel))
            assert reference_normalize(goal, warm, fuel)[:3] == expected
            assert outcome_key(normalize(goal, warm, fuel=fuel)) == expected


VERIFIED = {**{relpath: lambda relpath=relpath: load_corpus(relpath)
               for relpath in CORPUS_SYSTEMS}, **GENERATED}


@pytest.mark.parametrize("name", sorted(VERIFIED))
def test_memo_keys_have_normal_form_arguments(name, monkeypatch):
    """After verify, every key of either system's memo is a node whose
    arguments have no redex.  Storing goal subterms as keys too would
    keep every trial term alive."""
    trs = VERIFIED[name]()
    systems = [trs]

    def kept(*args, **kwargs):
        systems.append(erase_trs(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr("redarg.oracle.erase_trs", kept)
    differential_verify(trs, analyze(trs).redundant)
    assert len(systems) == 2 and trs.normal_form_memo
    for system in systems:
        for key in system.normal_form_memo:
            for a in key.args:
                assert rewrite_step(a, system) is None, (key, a)


def nest(symbol, n, leaf):
    t = leaf
    for _ in range(n):
        t = App(symbol, (t,))
    return t


def depth(t):
    best, stack = 0, [(t, 1)]
    while stack:
        u, d = stack.pop()
        best = max(best, d)
        stack.extend((a, d + 1) for a in u.args)
    return best


def test_normalize_deep_goal(plus_minus):
    sym = plus_minus.symbol_map
    zero = App(sym["Z"])
    big = nest(sym["S"], 3000, zero)
    goal = App(sym["minus_pe"], (big, big))
    out = normalize(goal, plus_minus)
    assert (out.kind, out.steps) == ("value", 3001)
    assert depth(out.term) == 3001
    cut = normalize(goal, plus_minus, fuel=1000)
    assert (cut.kind, cut.steps) == ("fuel-exhausted", 1000)
    assert cut.term.symbol.name == "minus_pe"
    assert depth(cut.term.args[0]) == 2001 and cut.term.args[1] is big


def test_a_stored_goal_walks_none_of_its_arguments(monkeypatch):
    trs = load_corpus("plus_minus.trs")
    sym = trs.symbol_map
    zero = App(sym["Z"])
    goal = App(sym["minus_pe"], (nest(sym["S"], 500, zero), nest(sym["S"], 200, zero)))
    first = normalize(goal, trs)
    assert (first.kind, first.steps, depth(first.term)) == ("value", 501, 201)
    visits = [0]

    class Counting(type):
        """Counts the isinstance checks of the rewrite module, one per
        argument it visits; a million of them fail here."""

        def __instancecheck__(cls, obj):
            visits[0] += 1
            if visits[0] > 1_000_000:
                raise AssertionError("normalization does not terminate")
            return isinstance(obj, Var)

    class CountedVar(metaclass=Counting):
        pass

    monkeypatch.setattr("redarg.rewrite.Var", CountedVar)
    assert normalize(goal, trs) == first
    # one check of the goal and one per node of the value (its kind);
    # walking the arguments again would add their 702 nodes
    assert visits[0] <= 1 + 201


# --- joinability ------------------------------------------------------------

def test_joinable_tri_state(nonconfluent):
    a = parse_term("Z", nonconfluent)
    b = parse_term("S(Z)", nonconfluent)
    assert join(a, b, nonconfluent)[0] is False
    assert join(a, a, nonconfluent)[0] is True
    assert join(parse_term("w(Z)", LOOP), parse_term("Z", LOOP), LOOP,
                fuel=5)[0] is None


def test_common_reduct(plus_minus):
    a = parse_term("minus_pe(S(Z), Z)", plus_minus)
    b = parse_term("minus_pe(Z, Z)", plus_minus)
    assert str(join(a, b, plus_minus)[1]) == "Z"
    c = parse_term("S(Z)", plus_minus)
    assert join(a, c, plus_minus)[1] is None


# --- one-step reducts -------------------------------------------------------

def test_successors_order_and_dedup(nonconfluent):
    g_of_z = parse_term("g(Z)", nonconfluent)
    assert [str(u) for u in successors(g_of_z, nonconfluent)] == ["Z", "S(Z)"]
    # root redexes come before argument redexes, argument positions
    # left to right
    nested = parse_term("g(g(Z))", nonconfluent)
    assert [str(u) for u in successors(nested, nonconfluent)] == [
        "Z",
        "S(Z)",
        "g(Z)",
        "g(S(Z))",
    ]


def test_successors_empty_on_normal_form(applast):
    assert successors(parse_term("S(Z)", applast), applast) == ()


def reference_reducts(u, trs):
    """One-step reducts of u with duplicates, unmemoized: root rules in
    file order, then the reducts of each argument, left to right."""
    if isinstance(u, Var):
        return []
    res = []
    for rule in trs.rules_by_root.get(u.symbol.name, ()):
        sigma = match(rule.lhs, u)
        if sigma is not None:
            res.append(instantiate(rule.rhs, sigma))
    for i, a in enumerate(u.args):
        for red in reference_reducts(a, trs):
            res.append(App(u.symbol, u.args[:i] + (red,) + u.args[i + 1 :]))
    return res


@pytest.mark.parametrize("relpath", CORPUS_SYSTEMS)
def test_successors_agree_with_unmemoized_reducts(relpath, monkeypatch):
    monkeypatch.setattr("redarg.rewrite.DEFAULT_MAX_TERMS", 200)
    trs = load_corpus(relpath)
    rng = random.Random(relpath)
    checked = 0
    for k in range(12):
        goal = random_term(trs, rng, open_term=k % 3 == 2)
        reached, _ = explore(goal, trs)
        for u, succs in reached.items():
            want = tuple(dict.fromkeys(reference_reducts(u, trs)))
            assert successors(u, trs) == want
            assert succs is None or succs == want
            checked += 1
    assert checked >= 12 and trs.reducts_memo


def test_reducts_memo_is_cleared_at_its_cap(monkeypatch):
    trs = load_corpus("applast.trs")
    monkeypatch.setattr("redarg.rewrite.MEMO_CAP", 5)
    goal = parse_term("applast(cons(S(Z), cons(Z, nil)), applast(nil, S(Z)))", trs)
    reached, truncated = explore(goal, trs)
    assert not truncated
    assert 0 < len(trs.reducts_memo) <= 5
    for u, succs in reached.items():
        assert succs == tuple(dict.fromkeys(reference_reducts(u, trs)))


# --- bounded semantics ------------------------------------------------------

def test_bounded_semantics_small_closure(collapse):
    sem = bounded_semantics(parse_term("h(a, a)", collapse), collapse)
    assert not sem.truncated
    names = {str(u) for u in sem.sred}
    assert names == {"h(a, a)", "a"}
    assert {str(u) for u in sem.seval} == {"a"}
    assert {str(u) for u in sem.snf} == {"a"}


def test_bounded_semantics_filtration(applast):
    goal = parse_term("applast(cons(S(Z), cons(Z, nil)), S(S(Z)))", applast)
    sem = bounded_semantics(goal, applast)
    assert not sem.truncated
    cg = frozenset(u for u in sem.sred if is_constructor_ground(u))
    nf = frozenset(u for u in sem.sred if rewrite_step(u, applast) is None)
    assert sem.seval == cg
    assert sem.snf == nf
    assert sem.seval <= sem.snf <= sem.sred


def test_bounded_semantics_truncation():
    sem = bounded_semantics(parse_term("w(Z)", LOOP), LOOP)
    assert sem.truncated
    assert len(sem.sred) == DEFAULT_MAX_TERMS


def test_explore_open_terms_and_caps(monkeypatch):
    # every discovered term maps to its successors once expanded, or to
    # None when a cap left it unexpanded; variables stay as they are
    reached, truncated = explore(t("f(g(x))"), STRATEGY_DEMO)
    assert not truncated
    assert {str(u): [str(v) for v in s] for u, s in reached.items()} == {
        "f(g(x))": ["Z"], "Z": []}
    monkeypatch.setattr("redarg.rewrite.DEFAULT_MAX_STEPS", 2)
    reached, truncated = explore(t("w(x)", LOOP), LOOP)
    assert truncated
    assert [(str(u), s and [str(v) for v in s]) for u, s in reached.items()] == [
        ("w(x)", ["w(S(x))"]), ("w(S(x))", ["w(S(S(x)))"]), ("w(S(S(x)))", None)]


def test_bounded_semantics_requires_ground():
    with pytest.raises(WellFormednessError):
        bounded_semantics(t("f(x)"), STRATEGY_DEMO)



# --- deep terms -------------------------------------------------------------

def test_steps_and_reducts_of_deep_terms(plus_minus):
    depth = 1500
    goal = parse_term("S(" * depth + "minus_pe(S(Z), Z)" + ")" * depth, plus_minus)
    expected = parse_term("S(" * depth + "minus_pe(Z, Z)" + ")" * depth, plus_minus)
    for strategy in ("leftmost-innermost", "leftmost-outermost"):
        nxt, p, rule = rewrite_step(goal, plus_minus, strategy)
        assert (nxt, p, rule.label) == (expected, (1,) * depth, "r2")
    assert successors(goal, plus_minus) == (expected,)
    outcome = normalize(goal, plus_minus, strategy="leftmost-outermost")
    assert outcome.kind == "value" and outcome.steps == 2

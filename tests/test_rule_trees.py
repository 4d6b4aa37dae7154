"""The rule trees against a linear scan of a root symbol's rules.

Rewriting and overlap search read candidate rules from Trs.rule_trees
through rewrite.reach.  Here every candidate list is compared, order
included, with the rules that a scan in file order selects by a
test-local test of their head symbols, and every first match and full
match list with the scan's.  Critical pairs and (f,i)-triples are
compared with pairwise references.
"""

import random

import pytest

from redarg import (
    App,
    Var,
    critical_pairs,
    fi_triples,
    match,
    normalize,
    parse_term,
    parse_trs,
)
from redarg.rewrite import RuleSplit, _match_at, explore, reach
from redarg.terms import iter_positions

from conftest import CORPUS_FILES, GENERATED, load_corpus, table
from test_analysis import reference_fi_triples
from test_rewrite import random_term
from test_trs import reference_critical_pairs

# rules that repeat variables, overlap, and mix variables and
# applications in one column, some of them below the argument heads
MIXED = {
    "nonlinear": parse_trs(
        "sort N\ncons Z : N\ncons S : N -> N\nfun f : N N -> N\nfun g : N N N -> N\n"
        "rule f(x, x) -> Z\n"
        "rule f(S(x), x) -> S(Z)\n"
        "rule f(x, S(x)) -> x\n"
        "rule f(S(Z), y) -> y\n"
        "rule g(x, Z, S(y)) -> x\n"
        "rule g(S(S(x)), y, z) -> g(x, y, z)\n"
        "rule g(x, y, Z) -> y\n"
        "rule g(S(x), S(Z), x) -> x\n"
        "rule g(x, y, z) -> Z\n"
    ),
    "nested": parse_trs(
        "sort N\nsort L\ncons Z : N\ncons S : N -> N\ncons nil : L\ncons cons : N L -> L\n"
        "fun h : L N -> N\n"
        "rule h(cons(Z, cons(S(x), xs)), y) -> x\n"
        "rule h(cons(x, nil), S(y)) -> y\n"
        "rule h(xs, Z) -> Z\n"
        "rule h(cons(S(x), xs), y) -> h(xs, x)\n"
        "rule h(cons(Z, xs), S(S(y))) -> h(xs, y)\n"
        "rule h(nil, y) -> y\n"
    ),
}

SYSTEMS = {
    **{path: (lambda path=path: load_corpus(path)) for path in CORPUS_FILES},
    **GENERATED,
    **{f"{n}x{n}": (lambda n=n: table(n, seed=n)) for n in range(2, 13)},
    **{name: (lambda trs=trs: trs) for name, trs in MIXED.items()},
}


def fits(pattern, t, overlap):
    """Whether t has the pattern's head symbol names wherever the
    pattern has an application.  A variable of t fits nothing there,
    or with overlap, where it stands for any term, everything."""
    stack = [(pattern, t)]
    while stack:
        p, u = stack.pop()
        if isinstance(p, Var):
            continue
        if isinstance(u, Var):
            if overlap:
                continue
            return False
        if u.symbol.name != p.symbol.name:
            return False
        stack.extend(zip(p.args, u.args))
    return True


def scanned(u, trs, overlap=False):
    """The rules of u's root, with their indices, in file order, whose
    argument patterns fit u's arguments."""
    return [(k, rule) for k, rule in trs.rules_by_root.get(u.symbol.name, ())
            if all(fits(p, a, overlap) for p, a in zip(rule.lhs.args, u.args))]


def visited(trs, rng, goals=8):
    """Every application that is a subterm of a term on a normalization
    trace, or of a term that explore reaches, from random ground and
    open goals: every node that normalize or successors tries the
    rules on."""
    nodes = {}
    for k in range(goals):
        goal = random_term(trs, rng, open_term=k % 2 == 1)
        trace = normalize(goal, trs, fuel=200, want_trace=True).trace
        reached, _ = explore(goal, trs)
        for term in [goal, *(step.after for step in trace), *reached]:
            for _, u in iter_positions(term):
                if isinstance(u, App) and u.symbol.name in trs.rule_trees:
                    nodes[u] = None
    return list(nodes)


@pytest.mark.parametrize("name", SYSTEMS)
def test_trees_agree_with_the_linear_scan(name, monkeypatch):
    monkeypatch.setattr("redarg.rewrite.DEFAULT_MAX_TERMS", 200)
    trs = SYSTEMS[name]()
    nodes = visited(trs, random.Random(name))
    assert nodes
    for u in nodes:
        tree = trs.rule_trees[u.symbol.name]
        for overlap in (False, True):
            assert list(reach(tree, u.args, overlap)) == scanned(u, trs, overlap), (u, overlap)
        rules = [rule for _, rule in trs.rules_by_root[u.symbol.name]]
        matches = [rule for rule in rules if match(rule.lhs, u) is not None]
        assert [rule for _, rule in reach(tree, u.args) if match(rule.lhs, u) is not None] == matches
        first = _match_at(u, tree)
        assert (first and first[0]) == (matches[0] if matches else None)


@pytest.mark.parametrize("name", SYSTEMS)
def test_overlaps_agree_with_pairwise_references(name):
    trs = SYSTEMS[name]()
    assert critical_pairs(trs) == reference_critical_pairs(trs)
    for f in trs.defined:
        for i in range(1, f.arity + 1):
            assert list(fi_triples(trs, f.name, i)) == reference_fi_triples(trs, f.name, i)


def test_a_term_variable_reaches_only_variable_patterns_when_matching():
    trs = MIXED["nonlinear"]
    u = parse_term("g(v, y, Z)", trs)
    labels = [rule.label for _, rule in reach(trs.rule_trees["g"], u.args)]
    assert labels == ["r7", "r9"]
    # with overlap the variables stand for any term
    labels = [rule.label for _, rule in reach(trs.rule_trees["g"], u.args, overlap=True)]
    assert labels == ["r6", "r7", "r8", "r9"]


def test_each_rule_sits_in_one_leaf():
    for trs in (*MIXED.values(), table(12), load_corpus("mutrec2.trs")):
        for name, tree in trs.rule_trees.items():
            leaves, stack = [], [tree]
            while stack:
                node = stack.pop()
                if isinstance(node, RuleSplit):
                    stack += node.children.values()
                else:
                    leaves += node
            assert sorted(leaves) == list(trs.rules_by_root[name])


# --- scaling, by counts ------------------------------------------------------

def test_table_overlaps_and_steps_do_not_scan_rules(monkeypatch):
    import redarg.rewrite as rewrite_module
    import redarg.trs as trs_module

    trs = table(40)
    unified = []
    real_unify = trs_module.unify
    monkeypatch.setattr(trs_module, "unify", lambda t, s: unified.append(t) or real_unify(t, s))
    assert critical_pairs(trs) == []
    assert len(unified) <= len(trs.rules)

    matched = []
    real_match = rewrite_module.match
    monkeypatch.setattr(rewrite_module, "match", lambda p, t: matched.append(t) or real_match(p, t))
    rng = random.Random(40)
    goal = "a0"
    for _ in range(300):
        goal = f"f({goal}, a{rng.randrange(40)})"
    outcome = normalize(parse_term(goal, trs), trs)
    assert outcome.steps == 300 and outcome.is_value
    assert len(matched) <= outcome.steps

"""Erasure of argument positions and the compression pass."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from redarg import (
    App,
    Var,
    WellFormednessError,
    analyze,
    check_confluence,
    check_left_linear,
    erase_term,
    erase_trs,
    erasure_table,
    format_term,
    format_trs,
    parse_term,
    parse_trs,
    reduced_erasure,
    rules_alpha_equal,
)
from redarg.erasure import _embeds_lhs
from redarg.oracle import differential_verify, random_ground_term
from redarg.rewrite import explore
from conftest import CORPUS_FILES, GENERATED, NAT, corpus_path, load_corpus


# --- the erasure map --------------------------------------------------------

def test_surviving_and_identity(applast):
    table = erasure_table(applast, {"lastnew": {1, 2}})
    assert table["lastnew"][1] == (2,)
    assert table.keys() == applast.symbol_map.keys()
    # with nothing to drop, every symbol is its own image and keeps every argument
    for name, (g, keep) in erasure_table(applast, {}).items():
        f = applast.symbol_map[name]
        assert g is f and keep == tuple(range(f.arity))


def test_erase_symbol(applast):
    table = erasure_table(applast, {"lastnew": {1, 2}}, "'")
    g = table["lastnew"][0]
    assert (g.name, g.arg_sorts, g.result_sort, g.kind) == (
        "lastnew'", ("Nat",), "Nat", "defined"
    )
    # untouched symbols keep their identity, suffix included
    assert table["S"] == (applast.symbol_map["S"], (0,))
    assert table["S"][0] is applast.symbol_map["S"]


def test_erase_term(applast):
    table = erasure_table(applast, {"lastnew": {1, 2}}, "'")
    t = parse_term("lastnew(S(x), cons(Z, nil), lastnew(y, nil, z))", applast)
    assert format_term(erase_term(t, table)) == "lastnew'(lastnew'(z))"
    assert erase_term(Var("q", "Nat"), table) == Var("q", "Nat")


def reference_erase_term(t, table):
    """erase_term building every image with arguments through App, as it
    did before it handed back unchanged nodes."""
    done = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, tuple):
            symbol, keep = u
            n = len(keep)
            args = tuple(done[len(done) - n :])
            del done[len(done) - n :]
            done.append(App(symbol, args))
        elif isinstance(u, Var) or not u.args:
            done.append(u)
        else:
            entry = table[u.symbol.name]
            stack.append(entry)
            stack.extend(u.args[k] for k in reversed(entry[1]))
    return done[0]


def single_position_rhos(trs):
    """The empty erasure, then each one-argument erasure of trs."""
    yield {}
    for f in trs.symbols:
        for i in range(1, f.arity + 1):
            yield {f.name: frozenset({i})}


def sample_terms(trs, rng):
    """Every rule side, and ten random ground terms of each inhabited
    sort at depth 6."""
    terms = [side for rule in trs.rules for side in (rule.lhs, rule.rhs)]
    for sort, (least, _) in trs.least_ground_terms.items():
        if least <= 6:
            terms += [random_ground_term(trs, sort, 6, rng) for _ in range(10)]
    return terms


@pytest.mark.parametrize("relpath", CORPUS_FILES)
def test_erase_term_agrees_with_rebuilding_every_node(relpath):
    trs = load_corpus(relpath)
    terms = sample_terms(trs, random.Random(relpath))
    for rho in single_position_rhos(trs):
        table = erasure_table(trs, rho, "'")
        for t in terms:
            assert erase_term(t, table) == reference_erase_term(t, table)


def test_erasing_what_loses_nothing_builds_no_node(applast, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return App(*args)

    table = erasure_table(applast, {"lastnew": {1, 2}}, "'")
    kept = parse_term("applast(cons(S(x), cons(Z, nil)), S(S(y)))", applast)
    cut = parse_term("S(S(lastnew(Z, nil, S(Z))))", applast)
    everything = {}
    for relpath in CORPUS_FILES:
        trs = load_corpus(relpath)
        everything[relpath] = (sample_terms(trs, random.Random(relpath)),
                               erasure_table(trs, {}))
    monkeypatch.setattr("redarg.erasure.App", counted)
    assert erase_term(kept, table) is kept
    for terms, identity in everything.values():
        for t in terms:
            assert erase_term(t, identity) is t
    assert calls == []
    # only the nodes on the path to a lost argument are built
    assert format_term(erase_term(cut, table)) == "S(S(lastnew'(S(Z))))"
    assert [symbol.name for symbol, _ in calls] == ["lastnew'", "S", "S"]


@pytest.mark.parametrize("relpath", CORPUS_FILES)
def test_verify_reports_do_not_depend_on_handing_back_nodes(relpath, monkeypatch):
    trs = load_corpus(relpath)
    rhos = [analyze(trs).redundant, *single_position_rhos(trs)]
    # a small fuel, since an unsound erasure can loop on every trial
    got = [differential_verify(trs, rho, trials=40, fuel=200) for rho in rhos]
    monkeypatch.setattr("redarg.oracle.erase_term", reference_erase_term)
    monkeypatch.setattr("redarg.erasure.erase_term", reference_erase_term)
    trs = load_corpus(relpath)
    assert [differential_verify(trs, rho, trials=40, fuel=200) for rho in rhos] == got


def test_erasure_table_rejects_bad_index(applast):
    with pytest.raises(WellFormednessError, match="erasure index 9 out of range for applast"):
        erasure_table(applast, {"applast": {9}})


# --- whole-system erasure ---------------------------------------------------

def test_erase_trs_applast(applast):
    rho = {"applast": {1}, "lastnew": {1, 2}}
    erased = erase_trs(applast, rho, "'")
    assert [str(r) for r in erased.rules] == [
        "applast'(z) -> z",
        "applast'(z) -> lastnew'(z)",
        "lastnew'(z) -> z",
        "lastnew'(z) -> lastnew'(z)",
    ]
    # termination is not preserved by erasure, so the pragma is gone
    assert not erased.terminating_attested


def test_erase_trs_plugs_unbound_variables():
    trs = parse_trs(
        "sort N\ncons Z : N\ncons S : N -> N\n"
        "fun f : N N -> N\nfun g : N N -> N\n"
        "rule f(x, y) -> g(x, y)\n"
        "rule g(x, y) -> y\n"
    )
    rho = {"f": {1}}
    erased = erase_trs(trs, rho, "'")
    # x vanished from the lhs but g still wants it: designated constant
    assert str(erased.rules[0]) == "f'(y) -> g(Z, y)"
    assert str(erased.rules[1]) == "g(x, y) -> y"


def test_erase_trs_name_collision():
    trs = parse_trs(
        "sort N\ncons Z : N\nfun f : N -> N\nfun f' : N\n"
        "rule f(x) -> Z\n"
    )
    with pytest.raises(WellFormednessError, match="erased symbol name f' collides"):
        erase_trs(trs, {"f": {1}}, "'")


def test_erased_output_reparses(applast):
    rho = {"applast": {1}, "lastnew": {1, 2}}
    erased = erase_trs(applast, rho, "'")
    again = parse_trs(format_trs(erased))
    assert again.rules == erased.rules


# --- compression ------------------------------------------------------------

def test_reduced_erasure_applast(applast):
    rho = {"applast": {1}, "lastnew": {1, 2}}
    erased = erase_trs(applast, rho, "'")
    compressed, warnings = reduced_erasure(erased)
    assert warnings == []
    # trivial rule dropped, applast'(z) -> lastnew'(z) normalized to a
    # duplicate of rule 1 and removed
    assert [str(r) for r in compressed.rules] == [
        "applast'(z) -> z",
        "lastnew'(z) -> z",
    ]
    assert [r.label for r in compressed.rules] == ["r1", "r3"]


def test_reduced_erasure_identity_rho_keeps_rules(plus_minus):
    erased = erase_trs(plus_minus, {})
    compressed, warnings = reduced_erasure(erased)
    assert warnings == []
    # rhs y and minus_pe(x, y) are already in normal form
    assert compressed.rules == plus_minus.rules


def test_reduced_erasure_aborts_on_loop(collapse):
    rho = {"h": {1}}
    erased = erase_trs(collapse, rho, "'")
    compressed, warnings = reduced_erasure(erased)
    assert len(warnings) == 1
    assert warnings[0].startswith(
        "fuel exhausted while normalizing rhs of rule r2"
    )
    assert "returning the erasure uncompressed" in warnings[0]
    # wholesale abort: the unreduced rules come back, trivial ones included
    assert compressed.rules == erased.rules
    assert [str(r) for r in compressed.rules] == [
        "h'(y) -> a",
        "h'(y) -> h'(c(y))",
    ]


def test_reduced_erasure_aborts_without_reachable_normal_form():
    trs = parse_trs(
        "sort U\ncons u : U\n"
        "fun p : U\nfun q : U\nfun top : U -> U\n"
        "rule p -> q\n"
        "rule q -> p\n"
        "rule top(x) -> p\n"
    )
    erased = erase_trs(trs, {})
    compressed, warnings = reduced_erasure(erased)
    assert len(warnings) == 1
    assert warnings[0].startswith("no normal form reachable")
    assert compressed.rules == erased.rules


def test_reduced_erasure_aborts_on_ambiguous_normal_form():
    trs = parse_trs(
        "sort U\ncons Z : U\ncons S : U -> U\n"
        "fun pick : U\nfun use : U -> U\n"
        "rule pick -> Z\n"
        "rule pick -> S(Z)\n"
        "rule use(x) -> pick\n"
    )
    erased = erase_trs(trs, {})
    compressed, warnings = reduced_erasure(erased)
    assert len(warnings) == 1
    assert warnings[0].startswith("normal form not unique")
    assert compressed.rules == erased.rules


@pytest.mark.parametrize(
    "name",
    ["bogus", "applast", "plus_minus", "plus_leq", "double_even",
     "sum_allzeros", "mutrec1", "mutrec2"],
)
def test_reduced_erasure_matches_expected(name):
    trs = load_corpus(f"{name}.trs")
    expected = load_corpus(f"expected/{name}_reduced.trs")
    rho = analyze(trs).redundant
    compressed, warnings = reduced_erasure(erase_trs(trs, rho, "'"))
    assert warnings == []
    assert rules_alpha_equal(compressed.rules, expected.rules)
    assert set(compressed.symbols) == set(expected.symbols)


@pytest.mark.parametrize(
    "name",
    ["bogus", "applast", "plus_minus", "plus_leq", "double_even",
     "sum_allzeros", "mutrec1", "mutrec2"],
)
def test_erasure_preserves_left_linearity_and_confluence(name):
    trs = load_corpus(f"{name}.trs")
    rho = analyze(trs).redundant
    erased = erase_trs(trs, rho, "'")
    compressed, _ = reduced_erasure(erased)
    for system in (erased, compressed):
        ok, _ = check_left_linear(system)
        assert ok
    assert check_confluence(trs)[0].startswith("yes")
    assert check_confluence(compressed)[0].startswith("yes")


# --- a rhs that embeds its lhs -----------------------------------------------

def compression_inputs():
    """Each single-position erasure of a defined symbol and the analyzed
    erasure of every corpus file, then the analyzed erasure of every
    GENERATED system."""
    systems = [load_corpus(relpath) for relpath in CORPUS_FILES]
    for trs in systems:
        for f in trs.defined:
            for i in range(1, f.arity + 1):
                yield erase_trs(trs, {f.name: frozenset({i})})
    for trs in systems + [make() for make in GENERATED.values()]:
        yield erase_trs(trs, analyze(trs).redundant)


def test_a_rhs_that_embeds_its_lhs_has_a_truncated_search():
    flagged = []
    for erased in compression_inputs():
        working = replace(erased, rules=tuple(r for r in erased.rules if r.lhs != r.rhs))
        for rule in working.rules:
            if _embeds_lhs(rule):
                flagged.append(str(rule))
                assert explore(rule.rhs, working)[1], rule
    assert sorted(flagged) == [
        "allzeros -> cons(Z, allzeros)", "double -> S(S(double))", "f -> g(f)",
        "f(x) -> g(f(x))", "h(y) -> h(c(y))", "loop(a, bogus) -> loop(S(a), S(bogus))",
        "plus(y) -> S(plus(y))", "plus(y) -> S(plus(y))", "sum -> plus(Z, sum)"]


@pytest.mark.parametrize("rule", [
    "f(x, y) -> f(y, x)", "f(x, y) -> f(x, x)", "f(x, y) -> f(Z, y)",
    "f(S(x), y) -> f(x, S(y))"])
def test_a_rhs_that_only_resembles_its_lhs_is_searched_to_the_end(rule):
    trs = parse_trs("\n".join(NAT + ["fun f : Nat Nat -> Nat", f"rule {rule}"]) + "\n")
    assert not _embeds_lhs(trs.rules[0])
    assert not explore(trs.rules[0].rhs, trs)[1]


def test_compression_gives_up_on_a_rhs_that_embeds_its_lhs_without_searching_it(
        cli, tmp_path, monkeypatch):
    starts = []
    monkeypatch.setattr("redarg.erasure.explore",
                        lambda t, trs: starts.append(t) or explore(t, trs))
    # f's second rule nests 500 calls of f, each passing y on
    path = tmp_path / "nested.trs"
    nested = "f(" * 500 + "x" + ", y)" * 500
    path.write_text("\n".join(NAT + ["fun f : Nat Nat -> Nat", "pragma terminating",
                                     "rule f(x, Z) -> x", f"rule f(x, S(y)) -> {nested}"]) + "\n")
    # each case: the arguments, rule r1's rhs, which is searched, and rule r2
    cases = [
        ([str(path)], "x", "f(x) -> " + "f(" * 500 + "x" + ")" * 500),
        ([corpus_path("negative/collapse.trs"), "--rho", "h:1"], "a", "h(y) -> h(c(y))"),
        ([corpus_path("negative/nonconfluent.trs"), "--rho", "f:1"], "Z", "f -> g(f)"),
    ]
    for argv, searched, rule in cases:
        starts.clear()
        rc, _, err = cli("erase", *argv, "--reduced")
        assert (rc, err) == (0, f"warning: fuel exhausted while normalizing rhs of rule r2 "
                                f"({rule}); returning the erasure uncompressed\n")
        assert [format_term(u) for u in starts] == [searched]


# --- the substitution homomorphism ------------------------------------------

APPLAST = load_corpus("applast.trs")


def applast_terms(with_vars):
    """One strategy per sort for applast terms up to depth 3, so that
    every argument is drawn at its own sort and no draw is filtered."""
    leaves = {"Nat": [parse_term("Z", APPLAST)], "List": [parse_term("nil", APPLAST)]}
    if with_vars:
        leaves["Nat"].append(Var("v1", "Nat"))
        leaves["List"].append(Var("v2", "List"))
    level = {sort: st.sampled_from(pool) for sort, pool in leaves.items()}
    for _ in range(3):
        level = {
            sort: st.one_of(st.sampled_from(pool), *(
                st.tuples(*(level[a] for a in f.arg_sorts)).map(
                    lambda args, f=f: App(f, args)
                )
                for f in APPLAST.symbols
                if f.result_sort == sort and f.arity
            ))
            for sort, pool in leaves.items()
        }
    return level


def random_table(draw_booleans):
    rho = {}
    for f, flags in zip(APPLAST.symbols, draw_booleans):
        rho[f.name] = frozenset(
            i for i, keep in zip(range(1, f.arity + 1), flags) if keep
        )
    return erasure_table(APPLAST, rho, "'")


@given(
    st.one_of(*applast_terms(with_vars=True).values()),
    applast_terms(with_vars=False)["Nat"],
    applast_terms(with_vars=False)["List"],
    st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()),
             min_size=6, max_size=6),
)
def test_erase_term_is_a_homomorphism(t, nat_binding, list_binding, flags):
    from redarg import instantiate

    table = random_table(flags)
    sigma = {"v1": nat_binding, "v2": list_binding}
    erased_sigma = {name: erase_term(b, table) for name, b in sigma.items()}
    assert erase_term(instantiate(t, sigma), table) == instantiate(
        erase_term(t, table), erased_sigma
    )

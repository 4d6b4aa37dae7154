"""Erasure of argument positions and the compression pass."""

import pytest
from hypothesis import given, strategies as st

from redarg import (
    App,
    SyntacticErasure,
    Var,
    WellFormednessError,
    analyze,
    check_confluence,
    check_left_linear,
    erase_term,
    erase_trs,
    erasure_from_analysis,
    format_term,
    format_trs,
    identity_erasure,
    parse_term,
    parse_trs,
    reduced_erasure,
    rules_alpha_equal,
)
from redarg.erasure import erase_symbol

from conftest import load_corpus


def rho_of(trs, **kwargs):
    rho = {f.name: frozenset() for f in trs.symbols}
    for name, indices in kwargs.items():
        rho[name] = frozenset(indices)
    return SyntacticErasure(rho)


# --- the erasure map --------------------------------------------------------

def test_surviving_and_identity(applast):
    rho = rho_of(applast, lastnew={1, 2})
    sym = applast.symbol_map["lastnew"]
    assert rho.of("lastnew") == frozenset({1, 2})
    assert rho.surviving(sym) == (3,)
    assert not rho.is_identity()
    assert identity_erasure(applast).is_identity()


def test_erase_symbol(applast):
    rho = rho_of(applast, lastnew={1, 2})
    sym = applast.symbol_map["lastnew"]
    g = erase_symbol(sym, rho, "'")
    assert (g.name, g.arg_sorts, g.result_sort, g.kind) == (
        "lastnew'", ("Nat",), "Nat", "defined"
    )
    # untouched symbols keep their identity, suffix included
    assert erase_symbol(applast.symbol_map["S"], rho, "'") is applast.symbol_map["S"]


def test_erase_term(applast):
    rho = rho_of(applast, lastnew={1, 2})
    t = parse_term("lastnew(S(x), cons(Z, nil), lastnew(y, nil, z))", applast)
    assert format_term(erase_term(t, rho, "'")) == "lastnew'(lastnew'(z))"
    assert erase_term(Var("q", "Nat"), rho, "'") == Var("q", "Nat")


def test_erasure_from_analysis(applast):
    result = analyze(applast)
    rho = erasure_from_analysis(result.redundancy, applast)
    assert rho.of("applast") == frozenset({1})
    assert rho.of("lastnew") == frozenset({1, 2})
    assert rho.of("cons") == frozenset()


def test_erasure_from_analysis_rejects_bad_index(applast):
    class Fake:
        def get(self, name):
            return frozenset({9}) if name == "applast" else frozenset()

    with pytest.raises(WellFormednessError):
        erasure_from_analysis(Fake(), applast)


# --- whole-system erasure ---------------------------------------------------

def test_erase_trs_applast(applast):
    rho = rho_of(applast, applast={1}, lastnew={1, 2})
    erased = erase_trs(applast, rho, "'")
    assert [str(r) for r in erased.trs.rules] == [
        "applast'(z) -> z",
        "applast'(z) -> lastnew'(z)",
        "lastnew'(z) -> z",
        "lastnew'(z) -> lastnew'(z)",
    ]
    assert erased.origin["applast'"] == ("applast", (2,))
    assert erased.origin["lastnew'"] == ("lastnew", (3,))
    assert erased.origin["S"] == ("S", (1,))
    # termination is not preserved by erasure, so the pragma is gone
    assert erased.trs.attestations == frozenset()


def test_erase_trs_plugs_unbound_variables():
    trs = parse_trs(
        "sort N\ncons Z : N\ncons S : N -> N\n"
        "fun f : N N -> N\nfun g : N N -> N\n"
        "rule f(x, y) -> g(x, y)\n"
        "rule g(x, y) -> y\n"
    )
    rho = rho_of(trs, f={1})
    erased = erase_trs(trs, rho, "'")
    # x vanished from the lhs but g still wants it: designated constant
    assert str(erased.trs.rules[0]) == "f'(y) -> g(Z, y)"
    assert str(erased.trs.rules[1]) == "g(x, y) -> y"


def test_erase_trs_name_collision():
    trs = parse_trs(
        "sort N\ncons Z : N\nfun f : N -> N\nfun f' : N\n"
        "rule f(x) -> Z\n"
    )
    with pytest.raises(WellFormednessError):
        erase_trs(trs, rho_of(trs, f={1}), "'")


def test_erased_output_reparses(applast):
    rho = rho_of(applast, applast={1}, lastnew={1, 2})
    erased = erase_trs(applast, rho, "'")
    again = parse_trs(format_trs(erased.trs))
    assert again.rules == erased.trs.rules


# --- compression ------------------------------------------------------------

def test_reduced_erasure_applast(applast):
    rho = rho_of(applast, applast={1}, lastnew={1, 2})
    erased = erase_trs(applast, rho, "'")
    compressed, warnings = reduced_erasure(erased)
    assert warnings == []
    # trivial rule dropped, applast'(z) -> lastnew'(z) normalized to a
    # duplicate of rule 1 and removed
    assert [str(r) for r in compressed.trs.rules] == [
        "applast'(z) -> z",
        "lastnew'(z) -> z",
    ]
    assert [r.label for r in compressed.trs.rules] == ["r1", "r3"]


def test_reduced_erasure_identity_rho_keeps_rules(plus_minus):
    erased = erase_trs(plus_minus, identity_erasure(plus_minus))
    compressed, warnings = reduced_erasure(erased)
    assert warnings == []
    # rhs y and minus_pe(x, y) are already in normal form
    assert compressed.trs.rules == plus_minus.rules


def test_reduced_erasure_aborts_on_loop(collapse):
    rho = rho_of(collapse, h={1})
    erased = erase_trs(collapse, rho, "'")
    compressed, warnings = reduced_erasure(erased)
    assert len(warnings) == 1
    assert warnings[0].startswith(
        "fuel exhausted while normalizing rhs of rule r2"
    )
    assert "returning the erasure uncompressed" in warnings[0]
    # wholesale abort: the unreduced rules come back, trivial ones included
    assert compressed.trs.rules == erased.trs.rules
    assert [str(r) for r in compressed.trs.rules] == [
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
    erased = erase_trs(trs, identity_erasure(trs))
    compressed, warnings = reduced_erasure(erased)
    assert len(warnings) == 1
    assert warnings[0].startswith("no normal form reachable")
    assert compressed.trs.rules == erased.trs.rules


def test_reduced_erasure_aborts_on_ambiguous_normal_form():
    trs = parse_trs(
        "sort U\ncons Z : U\ncons S : U -> U\n"
        "fun pick : U\nfun use : U -> U\n"
        "rule pick -> Z\n"
        "rule pick -> S(Z)\n"
        "rule use(x) -> pick\n"
    )
    erased = erase_trs(trs, identity_erasure(trs))
    compressed, warnings = reduced_erasure(erased)
    assert len(warnings) == 1
    assert warnings[0].startswith("normal form not unique")
    assert compressed.trs.rules == erased.trs.rules


@pytest.mark.parametrize(
    "name",
    ["bogus", "applast", "plus_minus", "plus_leq", "double_even",
     "sum_allzeros", "mutrec1", "mutrec2"],
)
def test_reduced_erasure_matches_expected(name):
    trs = load_corpus(f"{name}.trs")
    expected = load_corpus(f"expected/{name}_reduced.trs")
    rho = erasure_from_analysis(analyze(trs).redundancy, trs)
    compressed, warnings = reduced_erasure(erase_trs(trs, rho, "'"))
    assert warnings == []
    assert rules_alpha_equal(compressed.trs.rules, expected.rules)
    assert set(compressed.trs.symbols) == set(expected.symbols)


@pytest.mark.parametrize(
    "name",
    ["bogus", "applast", "plus_minus", "plus_leq", "double_even",
     "sum_allzeros", "mutrec1", "mutrec2"],
)
def test_erasure_preserves_left_linearity_and_confluence(name):
    trs = load_corpus(f"{name}.trs")
    rho = erasure_from_analysis(analyze(trs).redundancy, trs)
    erased = erase_trs(trs, rho, "'")
    compressed, _ = reduced_erasure(erased)
    for system in (erased.trs, compressed.trs):
        ok, _ = check_left_linear(system)
        assert ok
    assert check_confluence(trs)[0].startswith("yes")
    assert check_confluence(compressed.trs)[0].startswith("yes")


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


def random_rho(draw_booleans):
    rho = {}
    for f, flags in zip(APPLAST.symbols, draw_booleans):
        rho[f.name] = frozenset(
            i for i, keep in zip(range(1, f.arity + 1), flags) if keep
        )
    return SyntacticErasure(rho)


@given(
    st.one_of(*applast_terms(with_vars=True).values()),
    applast_terms(with_vars=False)["Nat"],
    applast_terms(with_vars=False)["List"],
    st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()),
             min_size=6, max_size=6),
)
def test_erase_term_is_a_homomorphism(t, nat_binding, list_binding, flags):
    from redarg import Substitution

    rho = random_rho(flags)
    sigma = Substitution({"v1": nat_binding, "v2": list_binding})
    erased_sigma = Substitution(
        {name: erase_term(b, rho, "'") for name, b in sigma.items()}
    )
    assert erase_term(sigma.apply(t), rho, "'") == erased_sigma.apply(
        erase_term(t, rho, "'")
    )

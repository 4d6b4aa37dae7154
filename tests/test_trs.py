"""Parser, formatter, and the structural property checks."""

import pytest

from redarg import (
    NotAConstructorSystem,
    ParseError,
    RedargError,
    Trs,
    Var,
    WellFormednessError,
    build_property_report,
    check_completely_defined,
    check_confluence,
    check_constructor_system,
    check_left_linear,
    critical_pairs,
    format_term,
    format_trs,
    parse_term,
    parse_trs,
    rules_alpha_equal,
)
from redarg.terms import instantiate, iter_positions, replace, unify, var_names
from redarg.trs import CriticalPair, _read_term, _rename_apart, canonical_rule

from conftest import CORPUS, GENERATED, load_corpus, table

CORPUS_SYSTEMS = sorted(str(p.relative_to(CORPUS)) for p in CORPUS.glob("**/*.trs"))

NAT_SYSTEM = """\
sort Nat
cons Z : Nat
cons S : Nat -> Nat
fun plus : Nat Nat -> Nat
pragma terminating
rule plus(Z, y) -> y
rule plus(S(x), y) -> S(plus(x, y))
"""


# --- parsing ----------------------------------------------------------------

def test_parse_basic():
    trs = parse_trs(NAT_SYSTEM)
    assert trs.sorts == ("Nat",)
    assert [f.name for f in trs.symbols] == ["Z", "S", "plus"]
    assert [f.name for f in trs.constructors] == ["Z", "S"]
    assert [f.name for f in trs.defined] == ["plus"]
    assert trs.terminating_attested
    assert len(trs.rules) == 2
    assert trs.rules[0].label == "r1"
    assert trs.rules[1].label == "r2"
    assert str(trs.rules[1]) == "plus(S(x), y) -> S(plus(x, y))"


def test_parse_comments_and_trailing_dot():
    trs = parse_trs(
        "# a comment\n"
        "sort N   # end of line\n"
        "cons a : N.\n"
        "fun f : N -> N\n"
        "rule f(x) -> x.\n"
    )
    assert trs.sorts == ("N",)
    assert len(trs.rules) == 1


def test_parse_arrowless_signature():
    # `cons c : A B -> C` and `cons c : A B C` mean the same thing
    a = parse_trs("sort A\nsort B\ncons c : A -> B\n")
    b = parse_trs("sort A\nsort B\ncons c : A B\n")
    assert a.symbol_map["c"].arg_sorts == b.symbol_map["c"].arg_sorts == ("A",)


@pytest.mark.parametrize(
    "text, exc",
    [
        ("bogus directive\n", ParseError),
        ("pragma confluent\n", ParseError),
        ("sort N\nfun f : N -> N\nrule f(x) = x\n", ParseError),
        ("sort N\ncons a : N\nfun f : N -> N\nrule f(a -> a\n", ParseError),
        ("sort 1N\n", ParseError),
        ("sort N\nsort N\n", WellFormednessError),
        ("sort N\ncons a : N\ncons a : N\n", WellFormednessError),
        ("cons a : Missing\n", WellFormednessError),
        ("sort N\nfun f : N -> N\nrule x -> x\n", WellFormednessError),
        ("sort N\ncons a : N\nfun f : N -> N\nrule f(x) -> y\n", WellFormednessError),
        ("sort N\ncons a : N\nrule a -> a\n", WellFormednessError),
        ("sort N\ncons a : N\nfun f : N N -> N\nrule f(x, g(x)) -> x\n",
         WellFormednessError),
        ("sort N\ncons a : N\nfun f : N -> N\nrule f(a, a) -> a\n",
         WellFormednessError),
    ],
)
def test_parse_rejects(text, exc):
    with pytest.raises(exc):
        parse_trs(text)


def test_variable_cannot_take_two_sorts():
    with pytest.raises(WellFormednessError):
        parse_trs(
            "sort A\nsort B\ncons a : A\ncons b : B\n"
            "fun f : A B -> A\n"
            "rule f(x, x) -> x\n"
        )


def test_parse_term_in_signature():
    trs = parse_trs(NAT_SYSTEM)
    t = parse_term("plus(S(Z), y)", trs)
    assert format_term(t) == "plus(S(Z), y)"
    assert vars_sorts(t) == {"y": "Nat"}


def vars_sorts(t):
    from redarg import vars_of

    return {v.name: v.sort for v in vars_of(t)}


def test_parse_term_whitespace_and_bad_characters():
    trs = parse_trs(NAT_SYSTEM)
    assert format_term(parse_term(" \t plus( S(Z) ,Z )  \n", trs)) == "plus(S(Z), Z)"
    for text, bad in [("plus(Z, $)", "'$'"), ("  1", "'1'"), ("S(Z) ;", "';'")]:
        with pytest.raises(ParseError) as exc:
            parse_term(text, trs)
        assert exc.value.message == f"unexpected character {bad} in term"


def test_parse_term_needs_inferable_sort():
    trs = parse_trs(NAT_SYSTEM)
    with pytest.raises(WellFormednessError):
        parse_term("x", trs)  # bare variable, no expected sort


@pytest.mark.parametrize(
    "text, sort, exc, message",
    [
        # a bad character first, then the first syntax error
        ("S(Z)$", None, ParseError, "unexpected character '$' in term"),
        ("applast(S, nil Z) $", None, ParseError, "unexpected character '$' in term"),
        ("", None, ParseError, "unexpected end of term"),
        ("S(Z,", None, ParseError, "unexpected end of term"),
        ("S(y(", None, ParseError, "unexpected end of term"),
        ("S(,Z)", None, ParseError, "expected identifier, got ','"),
        ("(", None, ParseError, "expected identifier, got '('"),
        ("S(Z", None, ParseError, "unclosed parenthesis in term"),
        ("x(Z", None, ParseError, "unclosed parenthesis in term"),
        ("applast(S(nil), Z, Z", None, ParseError, "unclosed parenthesis in term"),
        ("applast(S, nil Z)", None, ParseError, "expected ',' or ')', got 'Z'"),
        ("S(Z))", None, ParseError, "trailing tokens after term: ')'"),
        ("S(x) x", None, ParseError, "trailing tokens after term: 'x'"),
        ("S(Z),", None, ParseError, "trailing tokens after term: ','"),
        # then the first well-formedness error in preorder; at one node,
        # the arity error before the sort error
        ("applast(lastnew(Z), Z, Z)", None, WellFormednessError,
         "applast expects 2 arguments, got 3"),
        ("S(applast(nil, Z), x)", None, WellFormednessError, "S expects 1 arguments, got 2"),
        ("S()", None, WellFormednessError, "S expects 1 arguments, got 0"),
        ("applast(nil)", "List", WellFormednessError, "applast expects 2 arguments, got 1"),
        ("S(nil(Z))", None, WellFormednessError, "nil expects 0 arguments, got 1"),
        ("S(nil)", None, WellFormednessError, "nil has sort List, expected Nat"),
        ("nil", "Nat", WellFormednessError, "nil has sort List, expected Nat"),
        ("applast(cons(S(nil), x), lastnew(Z))", None, WellFormednessError,
         "nil has sort List, expected Nat"),
        ("applast(x, x)", None, WellFormednessError, "variable x used at sorts List and Nat"),
        ("x(Z)", None, WellFormednessError, "undeclared symbol x used with arguments"),
        ("x()", None, WellFormednessError, "undeclared symbol x used with arguments"),
        ("cons(x, x(Z))", None, WellFormednessError, "undeclared symbol x used with arguments"),
        ("x", None, WellFormednessError, "cannot infer sort of variable x"),
        # accepted
        ("Z()", None, None, "Z"),
        ("x", "Nat", None, "x"),
        ("lastnew(x, cons(x, nil), Z)", None, None, "lastnew(x, cons(x, nil), Z)"),
    ],
)
def test_parse_term_messages(applast, text, sort, exc, message):
    def parse():
        # with an expected sort, read as a rule's right-hand side is
        if sort is None:
            return parse_term(text, applast)
        return _read_term(text, 0, applast.symbol_map, {}, sort)

    if exc is None:
        assert format_term(parse()) == message
        return
    with pytest.raises(RedargError) as info:
        parse()
    assert (type(info.value), str(info.value)) == (exc, f"line 0: {message}")


@pytest.mark.parametrize(
    "rules, exc, message",
    [
        ("rule x( -> a", ParseError, "unexpected end of term"),
        ("rule (x) -> a", ParseError, "expected identifier, got '('"),
        ("rule f(x -> a", ParseError, "unclosed parenthesis in term"),
        ("rule f(x) -> $", ParseError, "unexpected character '$' in term"),
        ("rule x(a) -> a", WellFormednessError, "rule left-hand side is a variable"),
        ("rule x(y(z)) -> a", WellFormednessError, "rule left-hand side is a variable"),
        ("rule x -> a", WellFormednessError, "rule left-hand side is a variable"),
        # the left-hand side is resolved before the right-hand side is read
        ("rule f(a, a) -> a(", WellFormednessError, "f expects 1 arguments, got 2"),
        ("rule f(x) -> f(a, x)", WellFormednessError, "f expects 1 arguments, got 2"),
        ("rule f(x) -> b", WellFormednessError, "b has sort M, expected N"),
        ("rule f(x) -> g(x)", WellFormednessError, "variable x used at sorts N and M"),
        ("rule f(x) -> y", WellFormednessError, "right-hand side has extra variables y"),
        ("rule a -> a", WellFormednessError, "constructor a roots a rule"),
    ],
)
def test_parse_trs_rule_messages(rules, exc, message):
    text = ("sort N\nsort M\ncons a : N\ncons b : M\n"
            "fun f : N -> N\nfun g : M -> N\n" + rules + "\n")
    with pytest.raises(RedargError) as info:
        parse_trs(text)
    assert (type(info.value), str(info.value)) == (exc, f"line 7: {message}")


def test_format_round_trip():
    trs = parse_trs(NAT_SYSTEM)
    again = parse_trs(format_trs(trs))
    assert again.sorts == trs.sorts
    assert again.symbols == trs.symbols
    assert again.rules == trs.rules
    assert again.terminating_attested == trs.terminating_attested


def test_fun_without_rules_is_fine():
    # erased specialized programs may be bare constants
    trs = parse_trs("sort N\ncons a : N\nfun k : N\n")
    assert trs.rules_by_root.get("k", ()) == ()


# --- structural checks ------------------------------------------------------

def test_left_linear_check(applast, noncs):
    assert check_left_linear(applast) == (True, None)
    bad = parse_trs(
        "sort N\ncons a : N\nfun f : N N -> N\nrule f(x, x) -> x\n"
    )
    ok, witness = check_left_linear(bad)
    assert not ok
    rule, name = witness
    assert name == "x" and rule is bad.rules[0]


def test_constructor_system_check(applast, noncs):
    assert check_constructor_system(applast) == (True, None)
    ok, witness = check_constructor_system(noncs)
    assert not ok
    assert str(witness) == "g(f(b, x)) -> x"


def test_critical_pairs_none_on_disjoint_patterns(applast, bogus):
    assert critical_pairs(applast) == []
    assert critical_pairs(bogus) == []


def test_critical_pairs_overlay(nonconfluent):
    cps = critical_pairs(nonconfluent)
    assert len(cps) == 1
    cp = cps[0]
    assert cp.position == () and cp.left != cp.right
    assert cp.position == ()
    assert {format_term(cp.left), format_term(cp.right)} == {"Z", "S(Z)"}


def test_critical_pairs_rename_apart():
    # nested overlap: the inner rule's x must not be captured by the
    # outer rule's x
    trs = parse_trs(
        "sort N\ncons a : N\ncons w : N -> N\n"
        "fun f : N -> N\nfun g : N -> N\n"
        "rule f(x) -> a\n"
        "rule g(w(x)) -> g(x)\n"
    )
    # no lhs contains a defined symbol below the root, so no overlaps
    assert critical_pairs(trs) == []


def reference_critical_pairs(trs):
    """critical_pairs without the root-symbol filter: unify at every
    non-variable lhs position of every rule pair."""
    pairs = []
    for outer_idx, outer in enumerate(trs.rules):
        outer_vars = var_names(outer.lhs) | var_names(outer.rhs)
        for inner_idx, inner in enumerate(trs.rules):
            renamed = _rename_apart(inner, outer_vars)
            for p, sub in sorted(iter_positions(outer.lhs), key=lambda ps: ps[0]):
                if isinstance(sub, Var) or (p == () and inner_idx >= outer_idx):
                    continue
                sigma = unify(sub, renamed.lhs)
                if sigma is None:
                    continue
                left = instantiate(replace(outer.lhs, p, renamed.rhs), sigma)
                right = instantiate(outer.rhs, sigma)
                pairs.append(CriticalPair(left, right, p))
    return pairs


@pytest.mark.parametrize("relpath", CORPUS_SYSTEMS)
def test_critical_pairs_agree_with_unfiltered_loop(relpath):
    trs = load_corpus(relpath)
    assert critical_pairs(trs) == reference_critical_pairs(trs)


def test_critical_pairs_agree_with_unfiltered_loop_on_nested_overlaps():
    trs = parse_trs(
        "sort N\ncons Z : N\ncons S : N -> N\n"
        "fun f : N -> N\nfun g : N N -> N\n"
        "rule f(S(x)) -> f(x)\n"
        "rule f(y) -> Z\n"
        "rule g(f(x), y) -> g(x, f(y))\n"
        "rule g(x, f(S(y))) -> x\n"
    )
    cps = critical_pairs(trs)
    assert cps == reference_critical_pairs(trs)
    assert sorted({cp.position for cp in cps}) == [(), (1,), (2,)]


@pytest.mark.parametrize("name", GENERATED)
def test_critical_pairs_agree_with_unfiltered_loop_on_generated_systems(name):
    trs = GENERATED[name]()
    assert critical_pairs(trs) == reference_critical_pairs(trs)


def test_critical_pairs_of_rules_equal_but_for_their_labels():
    trs = parse_trs(NAT_SYSTEM + "rule plus(Z, y) -> y\n")
    cps = critical_pairs(trs)
    assert cps == reference_critical_pairs(trs)
    # the third rule overlaps the first at the root, and only that way round
    assert [(format_term(cp.left), format_term(cp.right), cp.position)
            for cp in cps] == [("y'", "y'", ())]
    # the same rule twice: the pair comes from the indices, not from equality
    twice = Trs(trs.sorts, trs.symbols, (trs.rules[0], trs.rules[0]), True)
    assert critical_pairs(twice) == reference_critical_pairs(twice)
    assert len(critical_pairs(twice)) == 1


def test_critical_pairs_skip_rules_that_clash(monkeypatch):
    import redarg.trs as trs_module

    def fail(*args):
        raise AssertionError("called")

    monkeypatch.setattr(trs_module, "unify", fail)
    monkeypatch.setattr(trs_module, "_rename_apart", fail)
    assert critical_pairs(table(6)) == []


def test_confluence_orthogonal(applast, noncs):
    assert check_confluence(applast) == ("yes-orthogonal", None)
    # noncs is left-linear with no overlaps; orthogonality does not
    # need the constructor discipline
    assert check_confluence(noncs) == ("yes-orthogonal", None)


def test_confluence_no(nonconfluent):
    verdict, witness = check_confluence(nonconfluent)
    assert verdict == "no"
    assert str(witness) in ("<Z, S(Z)>", "<S(Z), Z>")


OVERLAPPING = (
    "sort N\ncons Z : N\ncons S : N -> N\n"
    "fun f : N -> N\n"
    "{pragma}"
    "rule f(S(x)) -> f(x)\n"
    "rule f(y) -> Z\n"
)


def test_confluence_knuth_bendix():
    trs = parse_trs(OVERLAPPING.format(pragma="pragma terminating\n"))
    cps = critical_pairs(trs)
    assert len(cps) == 1 and cps[0].position == () and cps[0].left != cps[0].right
    assert check_confluence(trs) == ("yes-knuth-bendix", None)


def test_confluence_unknown_without_attestation():
    trs = parse_trs(OVERLAPPING.format(pragma=""))
    assert check_confluence(trs) == ("unknown", None)


def test_completely_defined(applast, partial):
    assert check_completely_defined(applast) == (True, None, None)
    ok, witness, reason = check_completely_defined(partial)
    assert not ok
    assert format_term(witness) == "g(Z)"
    assert "g is not reducible" in reason


def test_completely_defined_requires_cs(noncs):
    with pytest.raises(NotAConstructorSystem):
        check_completely_defined(noncs)


def test_completely_defined_wildcard_row_terminates():
    # a column of bare variables must not be case-split forever on a
    # recursive constructor
    trs = parse_trs(
        "sort N\nsort L\n"
        "cons Z : N\ncons S : N -> N\ncons nil : L\ncons cons : N L -> L\n"
        "fun g : N L -> N\n"
        "rule g(x, nil) -> x\n"
        "rule g(x, cons(y, ys)) -> y\n"
    )
    assert check_completely_defined(trs) == (True, None, None)


def test_completely_defined_empty_arg_sort():
    # no ground constructor term of sort A exists at all
    trs = parse_trs(
        "sort A\nsort N\ncons Z : N\ncons box : A -> A\n"
        "fun f : A -> N\n"
        "rule f(x) -> Z\n"
    )
    ok, witness, reason = check_completely_defined(trs)
    assert not ok and witness is None
    assert "no ground constructor terms" in reason


def test_seval_defined(applast, partial, bogus):
    def seval(trs):
        report = build_property_report(trs)
        return report.seval_defined, report.seval_reason

    assert seval(applast) == (True, None)
    ok, reason = seval(partial)
    assert not ok and reason == "not completely defined (witness g(Z))"
    no_pragma = parse_trs("sort N\ncons a : N\nfun f : N -> N\nrule f(x) -> a\n")
    assert seval(no_pragma) == (False, "termination not attested")
    noncs = parse_trs((CORPUS / "negative/noncs.trs").read_text() + "pragma terminating\n")
    assert seval(noncs) == (False, "not a constructor system (rule: g(f(b, x)) -> x)")


def test_property_report_checks_complete_definedness_once(applast, monkeypatch):
    calls = []
    real = check_completely_defined

    def counted(trs):
        calls.append(trs)
        return real(trs)

    monkeypatch.setattr("redarg.trs.check_completely_defined", counted)
    rep = build_property_report(applast)
    assert len(calls) == 1
    assert rep.completely_defined and rep.seval_defined


def test_property_report(applast):
    rep = build_property_report(applast)
    assert rep.left_linear and rep.constructor_system
    assert rep.completely_defined and rep.seval_defined
    assert rep.confluent == "yes-orthogonal"
    assert applast.terminating_attested


# --- designated constants ---------------------------------------------------

def test_designated_constant_prefers_nullary(applast):
    assert format_term(applast.designated_constants["Nat"]) == "Z"
    assert format_term(applast.designated_constants["List"]) == "nil"


def test_designated_constant_composite():
    trs = parse_trs(
        "sort E\nsort P\ncons mk : P\ncons pair : P E\n"  # no nullary E
    )
    # smallest ground E term is pair(mk)
    assert format_term(trs.designated_constants["E"]) == "pair(mk)"


def test_designated_constant_keeps_first_found_at_least_depth():
    trs = parse_trs(
        "sort T\nsort U\nsort V\n"
        "cons c1 : T -> U\ncons v0 : V\ncons c2 : V -> U\ncons t0 : T\n"
    )
    # the first pass reaches c2 knowing v0 but not yet t0
    assert format_term(trs.designated_constants["U"]) == "c2(v0)"


CORPUS_CONSTANTS = {
    "applast.trs": {"Nat": "Z", "List": "nil"},
    "bogus.trs": {"Nat": "Z"},
    "double_even.trs": {"Nat": "Z", "Bool": "True"},
    "expected/applast_reduced.trs": {"Nat": "Z", "List": "nil"},
    "expected/bogus_reduced.trs": {"Nat": "Z"},
    "expected/double_even_reduced.trs": {"Nat": "Z", "Bool": "True"},
    "expected/mutrec1_reduced.trs": {"Nat": "Z"},
    "expected/mutrec2_reduced.trs": {"Nat": "Z"},
    "expected/plus_leq_reduced.trs": {"Nat": "Z", "Bool": "True"},
    "expected/plus_minus_reduced.trs": {"Nat": "Z"},
    "expected/sum_allzeros_reduced.trs": {"Nat": "Z", "List": "nil"},
    "mutrec1.trs": {"Nat": "Z"},
    "mutrec2.trs": {"Nat": "Z"},
    "negative/collapse.trs": {"U": "a"},
    "negative/four_rules.trs": {"AB": "a"},
    "negative/nonconfluent.trs": {"Nat": "Z"},
    "negative/noncs.trs": {"AB": "a"},
    "negative/partial.trs": {"Nat": "Z"},
    "originals/double_even.trs": {"Nat": "Z", "Bool": "True"},
    "originals/plus_leq.trs": {"Nat": "Z", "Bool": "True"},
    "originals/sum_allzeros.trs": {"Nat": "Z", "List": "nil"},
    "plus_leq.trs": {"Nat": "Z", "Bool": "True"},
    "plus_minus.trs": {"Nat": "Z"},
    "sum_allzeros.trs": {"Nat": "Z", "List": "nil"},
}


def test_designated_constants_of_the_corpus(corpus_dir):
    files = sorted(str(p.relative_to(corpus_dir)) for p in corpus_dir.rglob("*.trs"))
    assert files == sorted(CORPUS_CONSTANTS)
    for relpath, expected in CORPUS_CONSTANTS.items():
        trs = load_corpus(relpath)
        got = {s: format_term(trs.designated_constants[s]) for s in trs.sorts}
        assert got == expected, relpath


def test_designated_constant_missing():
    trs = parse_trs("sort A\ncons box : A -> A\n")
    assert trs.designated_constants == {}


# --- alpha-equivalence ------------------------------------------------------

def test_canonical_rule_ignores_names():
    a = parse_trs("sort N\ncons c : N\nfun f : N N -> N\nrule f(x, y) -> x\n")
    b = parse_trs("sort N\ncons c : N\nfun f : N N -> N\nrule f(p, q) -> p\n")
    assert canonical_rule(a.rules[0]) == canonical_rule(b.rules[0])
    c = parse_trs("sort N\ncons c : N\nfun f : N N -> N\nrule f(x, y) -> y\n")
    assert canonical_rule(a.rules[0]) != canonical_rule(c.rules[0])


def test_rules_alpha_equal_is_order_insensitive():
    a = parse_trs(NAT_SYSTEM)
    b = parse_trs(NAT_SYSTEM.replace("x", "u").replace("y", "v"))
    assert rules_alpha_equal(a.rules, b.rules)
    assert rules_alpha_equal(a.rules, tuple(reversed(b.rules)))
    assert not rules_alpha_equal(a.rules, a.rules[:1])


def test_failed_gates_name_their_witnesses_in_gate_order(applast, noncs, nonconfluent,
                                                        partial):
    assert build_property_report(applast).failed_gates == {}
    assert build_property_report(nonconfluent).failed_gates == {
        "confluent": "no (critical pair <Z, S(Z)>)"
    }
    assert build_property_report(partial).failed_gates == {
        "seval-defined": "not completely defined (witness g(Z))"
    }
    assert list(build_property_report(noncs).failed_gates.items()) == [
        ("constructor-system", "rule: g(f(b, x)) -> x"),
        ("seval-defined", "termination not attested"),
    ]
    nonlinear = parse_trs(
        "sort Nat\ncons Z : Nat\ncons S : Nat -> Nat\nfun eq : Nat Nat -> Nat\n"
        "pragma terminating\nrule eq(x, x) -> S(Z)\nrule eq(x, y) -> Z\n"
    )
    assert list(build_property_report(nonlinear).failed_gates.items()) == [
        ("left-linear", "variable x repeats in eq(x, x) -> S(Z)"),
        ("confluent", "no (critical pair <S(Z), Z>)"),
    ]

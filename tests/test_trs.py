"""Parser, formatter, and the structural property checks."""

from itertools import combinations, product

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
from redarg.terms import (
    App,
    FuncSymbol,
    instantiate,
    is_ground,
    iter_positions,
    match,
    replace,
    unify,
    var_names,
)
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


# The coverage search as it was before it was one depth-first stack: a
# stack of split-case generators, kept as the reference for its
# witnesses.  It counts every row as cover, repeated variables as
# wildcards, so it is compared on left-linear systems only.

def reference_find_uncovered(sorts, rows, constructors_by_sort, ground_rep):
    def cases(sorts, rows):
        sort = sorts[0]
        if all(isinstance(row[0], Var) for row in rows):
            yield sort, sorts[1:], [row[1:] for row in rows]
            return
        for c in constructors_by_sort.get(sort, []):
            if any(s not in ground_rep for s in c.arg_sorts):
                continue
            specialized = []
            for row in rows:
                p = row[0]
                if isinstance(p, Var):
                    specialized.append(tuple(Var("_", s) for s in c.arg_sorts) + row[1:])
                elif p.symbol == c:
                    specialized.append(p.args + row[1:])
            yield c, list(c.arg_sorts) + sorts[1:], specialized

    splits = []
    while True:
        if not rows:
            found = [ground_rep[s] for s in sorts]
            break
        if not any(all(isinstance(p, Var) for p in row) for row in rows):
            splits.append([cases(sorts, rows), None])
        while splits and (case := next(splits[-1][0], None)) is None:
            splits.pop()
        if not splits:
            return None
        splits[-1][1], sorts, rows = case
    for _, wrap in reversed(splits):
        if isinstance(wrap, FuncSymbol):
            k = wrap.arity
            found[:k] = [App(wrap, tuple(found[:k]))]
        else:
            found.insert(0, ground_rep[wrap])
    return found


def reference_check_completely_defined(trs):
    cs, cs_witness = check_constructor_system(trs)
    if not cs:
        raise NotAConstructorSystem(f"not a constructor system (rule: {cs_witness})")
    ground_rep = trs.designated_constants
    constructors_by_sort = {}
    for c in trs.constructors:
        constructors_by_sort.setdefault(c.result_sort, []).append(c)
    for f in trs.defined:
        bad = [s for s in f.arg_sorts if s not in ground_rep]
        if bad:
            return False, None, f"{f.name}: argument sort {bad[0]} has no ground constructor terms"
        rows = [r.lhs.args for r in trs.rules_by_root.get(f.name, ())]
        witness_args = reference_find_uncovered(list(f.arg_sorts), rows, constructors_by_sort,
                                                ground_rep)
        if witness_args is not None:
            witness = App(f, tuple(witness_args))
            return False, witness, f"{f.name} is not reducible on {witness}"
    return True, None, None


LEFT_LINEAR = {**{relpath: lambda relpath=relpath: load_corpus(relpath)
                  for relpath in CORPUS_SYSTEMS if check_left_linear(load_corpus(relpath))[0]},
               **GENERATED}


def with_rules_dropped(trs):
    """The system and each of its variants with one or two rules dropped."""
    n = len(trs.rules)
    for drop in [(), *combinations(range(n), 1), *combinations(range(n), 2)]:
        rules = tuple(r for k, r in enumerate(trs.rules) if k not in drop)
        yield Trs(trs.sorts, trs.symbols, rules, trs.terminating_attested)


def coverage_or_error(check, trs):
    try:
        return check(trs)
    except NotAConstructorSystem as e:
        return str(e)


@pytest.mark.parametrize("name", sorted(LEFT_LINEAR))
def test_coverage_agrees_with_the_split_generators(name):
    for trs in with_rules_dropped(LEFT_LINEAR[name]()):
        assert coverage_or_error(check_completely_defined, trs) == \
            coverage_or_error(reference_check_completely_defined, trs)


def constructor_terms(trs, depth):
    """Per sort, the constructor-ground terms of depth <= the bound."""
    by_sort = {s: [] for s in trs.sorts}
    for _ in range(depth):
        by_sort = {s: [App(c, args) for c in trs.constructors if c.result_sort == s
                       for args in product(*(by_sort[a] for a in c.arg_sorts))]
                   for s in trs.sorts}
    return by_sort


@pytest.mark.parametrize("name", sorted(LEFT_LINEAR))
def test_coverage_agrees_with_brute_force(name):
    # a witness is an uncovered constructor-ground tuple, and a "yes"
    # leaves no tuple of depth <= 2 uncovered
    for trs in with_rules_dropped(LEFT_LINEAR[name]()):
        if not check_constructor_system(trs)[0]:
            continue
        ok, witness, _ = check_completely_defined(trs)
        if witness is not None:
            assert witness.symbol.kind == "defined" and is_ground(witness)
            assert all(g.symbol.kind == "constructor"
                       for a in witness.args for _, g in iter_positions(a))
            assert all(match(r.lhs, witness) is None
                       for r in trs.rules_by_root.get(witness.symbol.name, ()))
        if ok:
            terms = constructor_terms(trs, 2)
            for f in trs.defined:
                for args in product(*(terms[s] for s in f.arg_sorts)):
                    assert any(match(r.lhs, App(f, args)) is not None
                               for r in trs.rules_by_root.get(f.name, ())), App(f, args)


REPEATED = ("sort Nat\ncons Z : Nat\ncons S : Nat -> Nat\nfun f : Nat Nat -> Nat\n"
            "pragma terminating\nrule f(x, x) -> Z\n")


def test_a_rule_that_is_not_left_linear_is_no_cover():
    # f(Z, S(Z)) is stuck, and f(x, x) matches the first tuple the
    # search finds, f(Z, Z)
    assert check_completely_defined(parse_trs(REPEATED)) == (
        False, None, "f: coverage not decided, as rule f(x, x) -> Z is not left-linear")
    # f(x, x) does not match f(S(Z), Z), which no rule covers
    ok, witness, _ = check_completely_defined(parse_trs(REPEATED + "rule f(Z, y) -> Z\n"))
    assert not ok and format_term(witness) == "f(S(Z), Z)"
    # the left-linear rules cover every tuple
    trs = parse_trs(REPEATED + "rule f(Z, y) -> Z\nrule f(S(y), z) -> Z\n")
    assert check_completely_defined(trs) == (True, None, None)


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


def test_canonical_rule_tells_a_constant_from_a_variable():
    # the constant v1 is not the first variable of a rule
    trs = parse_trs("sort N\ncons v1 : N\nfun f : N -> N\nrule f(v1) -> v1\nrule f(x) -> x\n")
    assert canonical_rule(trs.rules[0]) != canonical_rule(trs.rules[1])
    assert not rules_alpha_equal(trs.rules[:1], trs.rules[1:])


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

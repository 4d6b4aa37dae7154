"""Detection methods: the variable case, the pattern case, and the
fixpoint driver."""

import json
import random
from pathlib import Path

import pytest

from redarg import (
    PreconditionUnmet,
    Var,
    analyze,
    fi_triples,
    format_term,
    parse_term,
    parse_trs,
    pattern_case,
    variable_case,
)
from redarg.analysis import (
    AnalysisResult,
    FITriple,
    Justification,
    _arg_vars_redundant,
    _gating_notes,
    _visible_vars,
    check_triple,
    sigma_c,
    tau_transform,
)
from redarg.errors import NoGroundConstant
from redarg.rewrite import DEFAULT_FUEL
from redarg.terms import unify_up_to_arg, var_names
from redarg.trs import _rename_apart, build_property_report

from conftest import CORPUS, CORPUS_FILES, GENERATED, load_corpus, symbol_chain, table


# --- per-variable test ------------------------------------------------------
# a variable is (f,i)-redundant in r iff it is not among r's visible variables

def test_is_fi_redundant_var_under_own_argument(bogus):
    # loop(a, bogus, Z) -> loop(S(a), S(bogus), S(Z)): the second
    # argument's variable occurs only inside argument 2 of loop
    rhs = bogus.rules[0].rhs
    assert "bogus" not in _visible_vars(rhs, "loop", 2, {})
    assert "a" in _visible_vars(rhs, "loop", 2, {})


def test_is_fi_redundant_var_vacuous(bogus):
    rhs = bogus.rules[1].rhs  # just `a`
    assert "bogus" not in _visible_vars(rhs, "loop", 2, {})


@pytest.mark.parametrize("term, index, hidden, visible", [
    # index 1: x at 1.1 and u at 3.1 are hidden, y at 2.1 is not
    pytest.param("lastnew(S(x), cons(y, ys), lastnew(u, nil, z))", 1, ("x", "u"), "y",
                 id="closure"),
    # index 2: xs at 2 and ys at 3.2 are hidden, z at 3.3 is not
    pytest.param("lastnew(Z, xs, lastnew(Z, ys, z))", 2, ("xs", "ys"), "z", id="nested"),
])
def test_is_fi_redundant_var_hidden_positions(applast, term, index, hidden, visible):
    t = parse_term(term, applast)
    # hidden alike when (lastnew, index) is known redundant and when it is (f,i)
    for f, known in (("applast", {"lastnew": frozenset({index})}), ("lastnew", {})):
        for name in hidden:
            assert name not in _visible_vars(t, f, index, known)
        assert visible in _visible_vars(t, f, index, known)
    assert all(name in _visible_vars(t, "applast", 1, {}) for name in hidden)


def test_is_fi_redundant_var_known_positions(applast):
    rhs = parse_term("lastnew(x, xs, z)", applast)
    # without knowledge, x at argument 1 of lastnew blocks (applast, 1)
    assert "x" in _visible_vars(rhs, "applast", 1, {})
    # once (lastnew, 1) is known redundant the occurrence is invisible
    assert "x" not in _visible_vars(rhs, "applast", 1, {"lastnew": frozenset({1})})


# --- variable case ----------------------------------------------------------

def test_variable_case_bogus(bogus):
    assert variable_case(bogus, "loop", 2)
    assert not variable_case(bogus, "loop", 1)
    assert not variable_case(bogus, "loop", 3)  # argument 3 is a pattern


def test_variable_case_gates(noncs):
    with pytest.raises(PreconditionUnmet) as exc:
        variable_case(noncs, "f", 1)
    assert exc.value.gate == "constructor-system"
    # in the words of `check` and of analyze's notes
    assert exc.value.detail == "rule: g(f(b, x)) -> x"


# --- triples ----------------------------------------------------------------

def test_fi_triples_lastnew(applast):
    triples = list(fi_triples(applast, "lastnew", 2))
    assert len(triples) == 1
    tr = triples[0]
    assert str(tr.rule1) == "lastnew(x, nil, z) -> z"
    # only the clashing variables of the second rule are primed
    assert str(tr.rule2) == "lastnew(x', cons(y, ys), z') -> lastnew(y, ys, z')"
    assert dict(tr.sigma.items()) == {
        "x": Var("x'", "Nat"),
        "z": Var("z'", "Nat"),
    }


def test_fi_triples_clash_on_other_argument(applast):
    # deleting argument 3 leaves nil against cons(y, ys): no triple
    assert list(fi_triples(applast, "lastnew", 3)) == []


def test_fi_triples_all_pairs(mutrec2=None):
    trs = load_corpus("mutrec2.trs")
    triples = list(fi_triples(trs, "f", 1))
    assert len(triples) == 3  # all three rule pairs unify up to arg 1
    pairs = [(t.rule1.label, t.rule2.label) for t in triples]
    assert pairs == [("r1", "r2"), ("r1", "r3"), ("r2", "r3")]


# --- the tau transformation and sigma_C -------------------------------------

def test_tau_transform_identity_on_variable_argument(applast):
    constants = applast.designated_constants
    rule = applast.rules[2]  # lastnew(x, nil, z) -> z with respect to arg 1
    assert tau_transform(rule.rhs, rule.lhs, "lastnew", 1, constants) is rule.rhs


def test_tau_transform_plugs_dependent_subterm(applast):
    constants = applast.designated_constants
    lhs = parse_term("lastnew(x, cons(y, ys), z)", applast)
    rhs = parse_term("lastnew(y, ys, z)", applast)
    out = tau_transform(rhs, lhs, "lastnew", 2, constants)
    assert format_term(out) == "lastnew(y, nil, z)"


def test_tau_transform_outermost_only(applast):
    constants = applast.designated_constants
    lhs = parse_term("lastnew(x, cons(y, ys), z)", applast)
    # nested lastnew: only the outermost dependent argument-2 position
    # is plugged, the inner one disappears with it
    rhs = parse_term("lastnew(y, cons(y, ys), lastnew(x, ys, z))", applast)
    out = tau_transform(rhs, lhs, "lastnew", 2, constants)
    assert format_term(out) == "lastnew(y, nil, lastnew(x, nil, z))"


NESTED = parse_trs("""
sort Nat
cons Z : Nat
cons S : Nat -> Nat
fun f : Nat Nat -> Nat
rule f(x, Z) -> x
rule f(x, S(y)) -> f(x, f(S(y), y))
""")


@pytest.mark.parametrize("rhs, expected", [
    pytest.param("f(x, f(S(y), y))", "f(x, Z)", id="rule"),
    pytest.param("f(f(x, f(x, y)), S(f(y, y)))", "f(f(x, Z), Z)", id="two-levels"),
])
def test_tau_transform_nested_positions(rhs, expected):
    # the argument-2 positions nest: only the outermost is plugged
    lhs = NESTED.rules[1].lhs
    out = tau_transform(parse_term(rhs, NESTED), lhs, "f", 2, NESTED.designated_constants)
    assert format_term(out) == expected


def test_sigma_c_frozen_example(applast):
    constants = applast.designated_constants
    (triple,) = fi_triples(applast, "lastnew", 2)
    sc = sigma_c(triple, constants)
    assert dict(sc.items()) == {
        "x": Var("x'", "Nat"),
        "z": Var("z'", "Nat"),
        "y": parse_term("Z", applast),
        "ys": parse_term("nil", applast),
    }


def test_check_triple_joins(applast):
    constants = applast.designated_constants
    (triple,) = fi_triples(applast, "lastnew", 2)
    ev = check_triple(applast, triple, constants)
    assert format_term(ev.left) == "z'"
    assert format_term(ev.right) == "lastnew(Z, nil, z')"
    assert ev.joinable is True
    assert format_term(ev.common) == "z'"


# --- pattern case -----------------------------------------------------------

def test_pattern_case_minus(plus_minus):
    verdict, evidence = pattern_case(plus_minus, "minus_pe", 1)
    assert verdict is True
    assert len(evidence) == 1
    # the unifier binds y to the renamed copy y', so the reduct is primed
    assert format_term(evidence[0].common) == "y'"


def test_pattern_case_rejects_visible_variable(applast):
    # (lastnew, 3): z is the result in rule 3, so replacing it shows
    verdict, evidence = pattern_case(applast, "lastnew", 3)
    assert verdict is False
    assert evidence == ()


def test_pattern_case_gates(nonconfluent, partial):
    with pytest.raises(PreconditionUnmet) as exc:
        pattern_case(nonconfluent, "f", 1)
    assert exc.value.gate == "confluent"
    assert exc.value.detail == "no (critical pair <Z, S(Z)>)"
    with pytest.raises(PreconditionUnmet) as exc:
        pattern_case(partial, "f", 1)
    assert exc.value.gate == "seval-defined"


def test_pattern_case_fuel_returns_none(plus_minus):
    verdict, _ = pattern_case(plus_minus, "minus_pe", 1, fuel=0)
    assert verdict is None


# --- the fixpoint driver ----------------------------------------------------

EXPECTATIONS = json.loads((CORPUS / "expectations.json").read_text())


@pytest.mark.parametrize(
    "entry", EXPECTATIONS["benchmarks"], ids=lambda e: Path(e["file"]).stem
)
def test_analyze_corpus(entry):
    trs = load_corpus(entry["file"])
    result = analyze(trs)
    found = {k: sorted(v) for k, v in result.redundant.items() if v}
    assert found == {k: sorted(v) for k, v in entry["expected_redundant"].items()}


def test_analyze_justifications(applast):
    result = analyze(applast)
    j = result.justifications
    assert (j[("lastnew", 1)].method, j[("lastnew", 1)].round) == ("variable-case", 1)
    assert (j[("lastnew", 2)].method, j[("lastnew", 2)].round) == ("pattern-case", 2)
    assert (j[("applast", 1)].method, j[("applast", 1)].round) == ("pattern-case", 3)
    assert result.rounds == 4  # three growing rounds plus the fixpoint round
    # the pattern-case justification carries its triple evidence
    assert len(j[("lastnew", 2)].triples) == 1


def test_analyze_needs_knowledge_chain(applast):
    # (applast, 1) is only provable after (lastnew, 1) and (lastnew, 2);
    # test_analyze_justifications pins the rounds of the chain
    full = analyze(applast)
    assert 1 in full.redundant["applast"]


def accumulator_chain(m):
    """c1 .. cm pass an accumulator that nobody reads down a chain; the
    variable case finds it one function per round, from cm back to c1."""
    lines = ["sort Nat", "cons Z : Nat", "cons S : Nat -> Nat"]
    lines += [f"fun c{j} : Nat Nat -> Nat" for j in range(1, m + 1)]
    lines.append("pragma terminating")
    for j in range(1, m + 1):
        nxt = f"c{j + 1}(x, acc)" if j < m else "x"
        lines += [f"rule c{j}(Z, acc) -> Z", f"rule c{j}(S(x), acc) -> {nxt}"]
    return parse_trs("\n".join(lines) + "\n")


def test_analyze_runs_to_the_fixpoint():
    trs = accumulator_chain(55)
    result = analyze(trs)
    assert result.redundant == {f"c{j}": {2} for j in range(1, 56)}
    assert result.rounds == 56  # one round per function plus the fixpoint round


def test_analyze_notes_on_negatives(nonconfluent, partial, noncs):
    r1 = analyze(nonconfluent)
    assert {k: sorted(v) for k, v in r1.redundant.items()} == {"g": [1]}
    assert all(j.method == "variable-case"
               for j in r1.justifications.values())
    assert any("confluence = no (critical pair <Z, S(Z)>)" in n for n in r1.notes)

    r2 = analyze(partial)
    assert r2.redundant == {}
    assert any("not completely defined (witness g(Z))" in n for n in r2.notes)

    r3 = analyze(noncs)
    assert r3.redundant == {}
    assert any("not a constructor system (rule: g(f(b, x)) -> x)" in n
               for n in r3.notes)


def test_analyze_indeterminate_with_tiny_fuel(plus_minus):
    result = analyze(plus_minus, fuel=0)
    assert ("minus_pe", 1) in result.indeterminate
    assert 1 not in result.redundant.get("minus_pe", ())


def test_analyze_respects_candidate_order_without_changing_result(applast):
    base = analyze(applast).redundant
    reordered = analyze(
        applast,
        candidate_order=[("applast", 1), ("lastnew", 2), ("lastnew", 1),
                         ("applast", 2), ("lastnew", 3)],
    )
    assert reordered.redundant == base


def test_analyze_checks_the_triples_of_a_candidate_once(bogus, monkeypatch):
    # (loop, 3) passes the variable check in both rounds, but its triple
    # verdict does not depend on the round, so it is not redone
    import redarg.analysis as analysis

    calls = []
    real = analysis.fi_triples

    def counted(trs, f, i):
        calls.append((f, i))
        return real(trs, f, i)

    monkeypatch.setattr(analysis, "fi_triples", counted)
    assert analyze(bogus).rounds == 2
    assert calls == [("loop", 3)]


@pytest.mark.parametrize("relpath", CORPUS_FILES)
def test_analyze_agrees_with_variable_case(relpath):
    # analyze decides the variable case inline; the library function
    # must agree with it in the round of each variable-case position
    # and at the fixpoint for every position left over
    trs = load_corpus(relpath)
    result = analyze(trs)
    if result.notes and "variable and pattern case disabled" in result.notes[0]:
        return
    justifications = result.justifications
    for (fname, i), just in justifications.items():
        if just.method == "variable-case":
            before = {}
            for (g, j), other in justifications.items():
                if other.round < just.round:
                    before[g] = before.get(g, frozenset()) | {j}
            assert variable_case(trs, fname, i, before)
    for f in trs.defined:
        for i in range(1, f.arity + 1):
            if (f.name, i) not in justifications:
                assert not variable_case(trs, f.name, i, result.redundant)


def test_analyze_does_not_call_the_library_cases(bogus, plus_minus, monkeypatch):
    import redarg.analysis as analysis

    def fail(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(analysis, "variable_case", fail)
    monkeypatch.setattr(analysis, "pattern_case", fail)
    assert analyze(bogus).redundant == {"loop": frozenset({2})}
    assert analyze(plus_minus).redundant == {"minus_pe": frozenset({1})}


# --- the worklist fixpoint against the round-by-round one ------------------

def reference_fi_triples(trs, fname, i):
    """Every triple of (f,i), built before any is checked: each pair of
    rules is renamed apart and unified, with no clash test."""
    rules = [r for _, r in trs.rules_by_root.get(fname, ())]
    triples = []
    for j, rule1 in enumerate(rules):
        vars1 = var_names(rule1.lhs) | var_names(rule1.rhs)
        for rule2 in rules[j + 1:]:
            renamed = _rename_apart(rule2, vars1)
            sigma = unify_up_to_arg(rule1.lhs, renamed.lhs, i)
            if sigma is not None:
                triples.append(FITriple(rule1, renamed, sigma, trs.symbol_map[fname], i))
    return triples


def reference_triple_verdict(trs, fname, i, fuel):
    evidence, verdict = [], True
    for triple in reference_fi_triples(trs, fname, i):
        evidence.append(check_triple(trs, triple, trs.designated_constants, fuel=fuel))
        if evidence[-1].joinable is False:
            return False, tuple(evidence)
        if evidence[-1].joinable is None:
            verdict = None
    return verdict, tuple(evidence)


def reference_analyze(trs, fuel=DEFAULT_FUEL, candidate_order=None):
    """The fixpoint that judges every candidate in every round."""
    notes, var_ok, pat_ok = _gating_notes(build_property_report(trs, fuel=fuel))
    candidates = list(candidate_order) if candidate_order is not None else [
        (f.name, i) for f in trs.defined for i in range(1, f.arity + 1)]
    verdicts, known, justifications = {}, {}, {}
    rounds = 0
    while True:
        rounds += 1
        additions, indeterminate = [], set()
        for fname, i in candidates:
            if i in known.get(fname, frozenset()):
                continue
            variable = var_ok and all(isinstance(r.lhs.args[i - 1], Var)
                                      for _, r in trs.rules_by_root.get(fname, ()))
            if not (variable or pat_ok) or not _arg_vars_redundant(trs, fname, i, known):
                continue
            if variable:
                additions.append((fname, i, Justification("variable-case", rounds)))
                continue
            if (fname, i) not in verdicts:
                try:
                    verdicts[(fname, i)] = reference_triple_verdict(trs, fname, i, fuel)
                except NoGroundConstant as exc:
                    verdicts[(fname, i)] = exc
            cached = verdicts[(fname, i)]
            if isinstance(cached, NoGroundConstant):
                note = f"pattern case skipped for ({fname},{i}): {cached}"
                if note not in notes:
                    notes.append(note)
                continue
            verdict, evidence = cached
            if verdict is True:
                additions.append((fname, i, Justification("pattern-case", rounds, evidence)))
            elif verdict is None:
                indeterminate.add((fname, i))
        if not additions:
            break
        for fname, i, just in additions:
            known[fname] = known.get(fname, frozenset()) | {i}
            justifications[(fname, i)] = just
    return AnalysisResult(known, justifications, tuple(notes),
                          tuple(sorted(indeterminate)), rounds)


def assert_same_analysis(trs, **kwargs):
    result, reference = analyze(trs, **kwargs), reference_analyze(trs, **kwargs)
    assert result == reference
    # the same justifications in the same order, rounds and evidence included
    assert list(result.justifications.items()) == list(reference.justifications.items())
    return result


SYSTEMS = {**{relpath: (lambda relpath=relpath: load_corpus(relpath)) for relpath in CORPUS_FILES},
           **GENERATED, "accumulator_chain9": lambda: accumulator_chain(9)}


@pytest.mark.parametrize("name", SYSTEMS)
def test_analyze_agrees_with_the_round_by_round_fixpoint(name):
    trs = SYSTEMS[name]()
    assert_same_analysis(trs)
    candidates = [(f.name, i) for f in trs.defined for i in range(1, f.arity + 1)]
    random.Random(name).shuffle(candidates)
    assert_same_analysis(trs, candidate_order=candidates)


def test_analyze_agrees_with_the_round_by_round_fixpoint_without_fuel(applast):
    # (lastnew, 2) stays indeterminate from its first round to the last
    result = assert_same_analysis(applast, fuel=0)
    assert ("lastnew", 2) in result.indeterminate


# --- the work of a round and of a candidate, counted ------------------------

@pytest.fixture
def calls(monkeypatch):
    """Count the calls of module functions: calls(module, name) patches
    the function and returns the counter it adds to."""
    def count(module, name):
        counter = [0]
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counter[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return counter
    return count


def test_analyze_rejudges_only_the_candidates_a_round_can_change(calls):
    import redarg.analysis as analysis

    judged = calls(analysis, "_arg_vars_redundant")
    counts = []
    for m in (200, 400):
        judged[0] = 0
        assert analyze(symbol_chain(m)).rounds == m + 2
        counts.append(judged[0])
    assert counts[1] / counts[0] <= 2.2


def test_analyze_checks_triples_up_to_the_first_that_does_not_join(calls):
    import redarg.analysis as analysis

    unified = calls(analysis, "unify_up_to_arg")
    assert analyze(table(6)).redundant == {}
    # the first pair of rows whose other argument agrees does not join
    assert unified[0] <= 2

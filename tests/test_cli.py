"""Command-line behavior: output text, exit codes, and JSON shape."""

import json
import os
import subprocess
import sys
import time
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

import redarg
from conftest import corpus_path

SCHEMA = json.loads(files("redarg").joinpath("report_schema.json").read_text())


def expected_text(stem: str) -> str:
    return Path(corpus_path(f"expected/{stem}_reduced.trs")).read_text()


def write_system(tmp_path, text: str) -> str:
    path = tmp_path / "system.trs"
    path.write_text(text)
    return str(path)


NAT = "sort Nat\ncons Z : Nat\ncons S : Nat -> Nat\n"
# lists of E, a sort with no constructor: cons has no ground instance
LIST_OF_E = "sort E\nsort L\ncons nil : L\ncons cons : E L -> L\nfun h : L Nat -> Nat\n"


# --- analyze ----------------------------------------------------------------

ANALYZE_GOLDEN = {
    "bogus": ["loop: {2} (variable-case, round 1)"],
    "applast": [
        "applast: {1} (pattern-case, round 3)",
        "lastnew: {1,2} (variable-case r1; pattern-case r2)",
    ],
    "plus_minus": ["minus_pe: {1} (pattern-case, round 1)"],
    "plus_leq": ["leq_pe: {1,2} (pattern-case r1; variable-case r1)"],
    "double_even": ["even_pe: {1} (pattern-case, round 1)"],
    "sum_allzeros": ["sum_pe: {1} (pattern-case, round 1)"],
    "mutrec1": ["f: {1,2} (pattern-case r1; variable-case r1)"],
    "mutrec2": ["f: {1} (pattern-case, round 1)"],
}


@pytest.mark.parametrize("stem", sorted(ANALYZE_GOLDEN))
def test_analyze_golden(cli, stem):
    rc, out, err = cli("analyze", str(corpus_path(f"{stem}.trs")))
    assert rc == 0 and err == ""
    assert out.splitlines() == ANALYZE_GOLDEN[stem]


NEGATIVE_GOLDEN = {
    "nonconfluent": [
        "g: {1} (variable-case, round 1)",
        "note: pattern case disabled: confluence = no (critical pair <Z, S(Z)>)",
    ],
    "partial": [
        "no redundant arguments found",
        "note: pattern case disabled: not completely defined (witness g(Z))",
    ],
    "noncs": [
        "no redundant arguments found",
        "note: variable and pattern case disabled: not a constructor system "
        "(rule: g(f(b, x)) -> x)",
    ],
    "four_rules": ["no redundant arguments found"],
}


@pytest.mark.parametrize("stem", sorted(NEGATIVE_GOLDEN))
def test_analyze_negatives(cli, stem):
    rc, out, _ = cli("analyze", str(corpus_path(f"negative/{stem}.trs")))
    assert rc == 0
    assert out.splitlines() == NEGATIVE_GOLDEN[stem]


def test_analyze_notes_a_skipped_pattern_case(cli, tmp_path):
    path = write_system(tmp_path, NAT + LIST_OF_E + "pragma terminating\n"
                        "rule h(nil, n) -> n\nrule h(cons(e, l), n) -> h(l, n)\n")
    rc, out, err = cli("analyze", path)
    assert (rc, err) == (0, "")
    assert out.splitlines() == [
        "no redundant arguments found",
        "note: pattern case skipped for (h,1): sort E has no ground constructor term",
    ]


def test_analyze_json(cli):
    rc, out, _ = cli("analyze", str(corpus_path("applast.trs")), "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["redundant"] == {"applast": [1], "lastnew": [1, 2]}
    assert doc["rounds"] == 4
    methods = {(j["symbol"], j["index"]): j["method"] for j in doc["justifications"]}
    assert methods[("lastnew", 1)] == "variable-case"
    assert methods[("lastnew", 2)] == "pattern-case"


# --- check ------------------------------------------------------------------

def test_check_clean_system(cli):
    rc, out, _ = cli("check", str(corpus_path("applast.trs")))
    assert rc == 0
    assert out.splitlines() == [
        "left-linear: yes",
        "constructor system: yes",
        "completely defined: yes",
        "confluent: yes-orthogonal",
        "seval-defined: yes",
        "terminating attested: yes",
    ]


def test_check_reports_defects(cli):
    rc, out, _ = cli("check", str(corpus_path("negative/partial.trs")))
    assert rc == 0
    assert "completely defined: no (witness g(Z))" in out
    rc, out, _ = cli("check", str(corpus_path("negative/nonconfluent.trs")))
    assert "confluent: no (critical pair <Z, S(Z)>)" in out


@pytest.mark.parametrize("rules, verdict", [
    # the variable row splits the columns, and f(S(_), S(_)) escapes both rules
    ("fun f : Nat Nat -> Nat\nrule f(Z, y) -> Z\nrule f(x, Z) -> Z\n",
     "no (witness f(S(Z), S(Z)))"),
    # a column of variables in front of the witness
    ("fun g : Nat Nat -> Nat\nrule g(x, Z) -> Z\n", "no (witness g(Z, S(Z)))"),
    (LIST_OF_E + "rule h(nil, n) -> n\n", "yes"),
], ids=["variable-row", "variable-column", "no-ground-instance"])
def test_check_coverage(cli, tmp_path, rules, verdict):
    rc, out, err = cli("check", write_system(tmp_path, NAT + rules))
    assert (rc, err) == (0, "")
    assert out.splitlines()[2] == f"completely defined: {verdict}"


def test_check_counts_no_rule_that_repeats_a_variable_as_cover(cli, tmp_path):
    # f(Z, S(Z)) is a normal form, though f(x, x) matches f(Z, Z)
    path = write_system(tmp_path, NAT + "fun f : Nat Nat -> Nat\npragma terminating\n"
                        "rule f(x, x) -> Z\n")
    rc, out, err = cli("check", path)
    reason = "f: coverage not decided, as rule f(x, x) -> Z is not left-linear"
    assert (rc, err) == (0, "")
    assert out.splitlines() == [
        "left-linear: no (variable x repeats in f(x, x) -> Z)",
        "constructor system: yes",
        f"completely defined: no ({reason})",
        "confluent: yes-knuth-bendix",
        f"seval-defined: no (not completely defined ({reason}))",
        "terminating attested: yes",
    ]
    assert cli("eval", path, "-e", "f(Z, S(Z))")[1].startswith("normal-form f(Z, S(Z))")


def test_check_names_the_repeated_variable_the_walk_meets_first(cli, tmp_path):
    # the walk takes the last argument first, so it meets y twice before x
    path = write_system(tmp_path, NAT + "fun f : Nat Nat Nat Nat -> Nat\n"
                        "rule f(x, y, x, y) -> Z\n")
    rc, out, err = cli("check", path)
    assert (rc, err) == (0, "")
    assert out.splitlines()[0] == "left-linear: no (variable y repeats in f(x, y, x, y) -> Z)"


def test_check_fuel_zero_leaves_confluence_unknown(cli, tmp_path):
    # the critical pair <Z, g(Z)> joins in one step
    path = write_system(tmp_path, NAT + "fun f : Nat -> Nat\nfun g : Nat -> Nat\n"
                        "pragma terminating\nrule f(Z) -> Z\nrule f(x) -> g(x)\n"
                        "rule g(x) -> Z\n")
    assert cli("check", path)[1].splitlines()[3] == "confluent: yes-knuth-bendix"
    assert cli("check", path, "--fuel", "0")[1].splitlines()[3] == "confluent: unknown"


@pytest.mark.parametrize("line, message", [
    ("cons Z Nat", "expected ':' in declaration"),
    ("cons 1z : Nat", "bad symbol name '1z'"),
    ("cons Z :", "missing result sort"),
    ("cons Z : Na-t", "bad sort name 'Na-t'"),
    ("sort", "bad sort name ''"),
])
def test_check_signature_line_messages(cli, tmp_path, line, message):
    rc, out, err = cli("check", write_system(tmp_path, f"sort Nat\n{line}\n"))
    assert (rc, out, err) == (2, "", f"error: line 2: {message}\n")


# --- erase ------------------------------------------------------------------

STEMS = sorted(ANALYZE_GOLDEN)


@pytest.mark.parametrize("stem", STEMS)
def test_erase_reduced_matches_expected(cli, stem):
    rc, out, _ = cli("erase", str(corpus_path(f"{stem}.trs")),
                     "--reduced", "--suffix", "'")
    assert rc == 0
    assert out == expected_text(stem)


def test_erase_rho_matches_analysis(cli):
    path = str(corpus_path("applast.trs"))
    rc1, auto, _ = cli("erase", path)
    rc2, manual, _ = cli("erase", path, "--rho", "applast:1", "--rho",
                         "lastnew:1,2")
    assert rc1 == rc2 == 0
    assert auto == manual


@pytest.mark.parametrize(
    "value, message",
    [
        ("applast", "bad --rho value"),
        (":1", "bad --rho value"),
        ("applast:0", "index 0 out of range"),
        ("applast:9", "index 9 out of range"),
        ("applast:one", "bad indices"),
        ("nosuch:1", "unknown symbol nosuch"),
    ],
)
def test_erase_rho_rejects(cli, value, message):
    rc, out, err = cli("erase", str(corpus_path("applast.trs")), "--rho", value)
    assert rc == 2
    assert message in err


def test_erase_output_file(cli, tmp_path):
    dest = tmp_path / "erased.trs"
    rc, out, _ = cli("erase", str(corpus_path("applast.trs")), "--reduced",
                     "--suffix", "'", "-o", str(dest))
    assert rc == 0 and out == ""
    assert dest.read_text() == expected_text("applast")


@pytest.mark.parametrize("command", ["erase", "verify"])
def test_suffix_must_leave_a_symbol_name(cli, tmp_path, command):
    # "applast(" would not parse back: refused before anything is written
    dest = tmp_path / "erased.trs"
    extra = ["-o", str(dest)] if command == "erase" else []
    rc, out, err = cli(command, str(corpus_path("applast.trs")), "--suffix", "(", *extra)
    assert (rc, out) == (2, "")
    assert err == "error: erased symbol name 'applast(' is not an identifier\n"
    assert not dest.exists()


def test_erase_output_into_missing_directory(cli, tmp_path):
    dest = tmp_path / "missing" / "x.trs"
    rc, out, err = cli("erase", str(corpus_path("applast.trs")), "-o", str(dest))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: cannot write {dest}: ")
    assert not dest.exists()


def test_erase_reduced_abort_warns(cli):
    rc, out, err = cli("erase", str(corpus_path("negative/collapse.trs")),
                       "--reduced", "--rho", "h:1")
    assert rc == 0
    assert err.startswith(
        "warning: fuel exhausted while normalizing rhs of rule r2 "
        "(h(y) -> h(c(y)))"
    )
    assert "returning the erasure uncompressed" in err
    assert "rule h(y) -> a" in out
    assert "rule h(y) -> h(c(y))" in out


# a constant named v1 next to a variable rule that reads the same up to it
V1_CONSTANT = NAT + "cons v1 : Nat\nfun f : Nat -> Nat\nrule f(v1) -> v1\nrule f(x) -> x\n"


def test_erase_reduced_keeps_a_rule_that_only_looks_like_another(cli, tmp_path):
    src = write_system(tmp_path, V1_CONSTANT)
    dest = tmp_path / "erased.trs"
    assert cli("erase", src, "--reduced", "-o", str(dest)) == (0, "", "")
    assert "rule f(x) -> x\n" in dest.read_text()
    for path in (src, str(dest)):
        assert cli("eval", path, "-e", "f(S(Z))") == (0, "value S(Z)\n", "")


def test_erase_refuses_a_suffix_that_renames_to_a_rule_variable(cli, tmp_path):
    # f' would name the erased f and the variable of rule r2 at once, so
    # the output would not read back
    src = write_system(tmp_path, NAT + "fun f : Nat Nat -> Nat\nfun g : Nat -> Nat\n"
                                       "rule f(x, y) -> x\nrule g(f') -> f'\n")
    dest = tmp_path / "erased.trs"
    rc, out, err = cli("erase", src, "--rho", "f:2", "--suffix", "'", "-o", str(dest))
    assert (rc, out) == (2, "")
    assert err == "error: erased symbol name f' is a variable of rule r2 (g(f') -> f')\n"
    assert not dest.exists()
    rc, out, _ = cli("erase", src, "--rho", "f:2", "--suffix", "_e")
    assert rc == 0 and "rule g(f') -> f'\n" in out
    assert cli("check", write_system(tmp_path, out))[0] == 0


def test_erase_vanished_var_without_constant(cli, tmp_path):
    src = tmp_path / "noconst.trs"
    src.write_text(
        "sort A\n"
        "sort B\n"
        "cons box : A -> A\n"
        "cons mkB : B\n"
        "fun h : A -> B\n"
        "fun f : A B -> B\n"
        "rule f(x, y) -> h(x)\n"
    )
    rc, _, err = cli("erase", str(src), "--rho", "f:1")
    assert rc == 4
    assert "no ground constructor term" in err


# --- eval -------------------------------------------------------------------

def test_eval_trace_and_steps(cli):
    rc, out, _ = cli("eval", str(corpus_path("negative/collapse.trs")),
                     "-e", "h(c(c(a)), a)", "--trace", "--count-steps")
    assert rc == 0
    assert out.splitlines() == [
        "e: h(c(c(a)), a) -> h(c(a), c(a)) [r2]",
        "e: h(c(a), c(a)) -> h(a, c(c(a))) [r2]",
        "e: h(a, c(c(a))) -> a [r1]",
        "value a",
        "steps: 3",
    ]


def test_eval_strategy_alias(cli):
    path = str(corpus_path("negative/collapse.trs"))
    for strategy in ("li", "lo", "innermost", "leftmost-outermost"):
        rc, out, _ = cli("eval", path, "-e", "h(a, a)", "--strategy", strategy)
        assert rc == 0 and out == "value a\n"


def test_eval_fuel_exhausted(cli):
    rc, out, _ = cli("eval", str(corpus_path("bogus.trs")),
                     "-e", "loop(Z, Z, Z)", "--fuel", "1")
    assert rc == 3
    assert out == "fuel-exhausted loop(S(Z), S(Z), S(Z))\n"


def test_eval_outermost_fuel_exhausted(cli, tmp_path):
    path = write_system(tmp_path, NAT + "fun f : Nat -> Nat\nrule f(x) -> f(x)\n")
    rc, out, err = cli("eval", path, "-e", "f(Z)", "--strategy", "lo", "--fuel", "3")
    assert (rc, out, err) == (3, "fuel-exhausted f(Z)\n", "")


def test_eval_rejects_open_goal(cli):
    rc, _, err = cli("eval", str(corpus_path("bogus.trs")), "-e", "loop(x, Z, Z)")
    assert rc == 2
    assert "must be ground" in err


def test_eval_rejects_bad_term(cli):
    rc, _, err = cli("eval", str(corpus_path("bogus.trs")), "-e", "loop(Z")
    assert rc == 2
    assert "unclosed parenthesis" in err


def tower(n: int) -> str:
    return "S(" * n + "Z" + ")" * n


def test_eval_deep_goal(cli):
    big = tower(3000)
    rc, out, err = cli("eval", str(corpus_path("plus_minus.trs")),
                       "-e", f"minus_pe({big}, {big})")
    assert rc == 0 and err == ""
    assert out == f"value {big}\n"


def test_eval_deep_goal_trace(cli):
    rc, out, err = cli("eval", str(corpus_path("plus_minus.trs")),
                       "-e", f"minus_pe({tower(400)}, Z)", "--trace")
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 402 and lines[-1] == "value Z"
    assert lines[0] == f"e: minus_pe({tower(400)}, Z) -> minus_pe({tower(399)}, Z) [r2]"


def test_eval_outermost_deep_goal(cli):
    rc, out, err = cli("eval", str(corpus_path("plus_minus.trs")), "--strategy", "lo",
                       "-e", "S(" * 1500 + "minus_pe(S(Z), Z)" + ")" * 1500)
    assert rc == 0 and err == ""
    assert out == f"value {tower(1500)}\n"


def deep_rule_system(tmp_path) -> str:
    src = tmp_path / "deep_rule.trs"
    src.write_text(
        Path(corpus_path("plus_minus.trs")).read_text()
        + "fun d : Nat -> Nat\n"
        + "rule d(x) -> " + "S(" * 1500 + "x" + ")" * 1500 + "\n"
    )
    return str(src)


def test_deep_rule_analyze_erase_verify(cli, tmp_path):
    path = deep_rule_system(tmp_path)
    rc, out, err = cli("analyze", path)
    assert (rc, out, err) == (0, "minus_pe: {1} (pattern-case, round 1)\n", "")
    rc, out, err = cli("erase", path, "--reduced")
    assert rc == 0 and err == ""
    assert "rule d(x) -> " + "S(" * 1500 + "x" + ")" * 1500 + "\n" in out
    rc, out, err = cli("verify", path, "--trials", "20")
    assert rc == 0 and err == ""
    assert out.splitlines()[1:3] == ["agree: 20", "disagree: 0"]


def test_deep_nested_rule_analyze(cli, tmp_path):
    # a right-hand side of 2,000 nested f's, each hiding y in argument 2
    n = 2000
    path = tmp_path / "nested.trs"
    path.write_text(
        "sort Nat\ncons Z : Nat\ncons S : Nat -> Nat\nfun f : Nat Nat -> Nat\n"
        "pragma terminating\nrule f(x, Z) -> x\n"
        "rule f(x, S(y)) -> " + "f(" * n + "x" + ", y)" * n + "\n"
    )
    t0 = time.perf_counter()
    rc, out, err = cli("analyze", str(path))
    elapsed = time.perf_counter() - t0
    assert (rc, out, err) == (0, "f: {2} (pattern-case, round 1)\n", "")
    assert elapsed < 2.0


def test_wide_symbol_check(cli, tmp_path):
    # the coverage check splits once per column of one 3,000-argument rule
    n = 3000
    path = tmp_path / "wide.trs"
    path.write_text(
        "sort Nat\ncons Z : Nat\ncons S : Nat -> Nat\n"
        f"fun f : {' '.join(['Nat'] * n)} -> Nat\n"
        f"rule f({', '.join(['Z'] * n)}) -> Z\n"
    )
    rc, out, err = cli("check", str(path))
    assert rc == 0 and err == ""
    witness = "f(" + "Z, " * (n - 1) + "S(Z))"
    assert out.splitlines()[2] == f"completely defined: no (witness {witness})"


def chain_system(tmp_path, n: int = 400) -> str:
    # the two left-hand sides unify, and their mgu binds x_k to S(y_k)
    # and y_(k-1) to S(y_k): a chain n long
    path = tmp_path / "chain.trs"
    xs = ", ".join(f"x{k}" for k in range(1, n + 1))
    path.write_text(
        "sort Nat\ncons Z : Nat\ncons S : Nat -> Nat\n"
        f"fun g : {' '.join(['Nat'] * (2 * n))} -> Nat\n"
        f"rule g({xs}, {xs}) -> Z\n"
        f"rule g({', '.join(f'S(y{k})' for k in range(1, n + 1))}, "
        f"{', '.join(f'y{k}' for k in range(n))}) -> Z\n"
    )
    return str(path)


@pytest.mark.parametrize("argv", [
    ["check"], ["analyze"], ["erase"], ["verify", "--trials", "5", "--depth", "2"],
], ids=lambda argv: argv[0])
def test_unifier_chain(cli, tmp_path, argv):
    rc, out, err = cli(*argv, chain_system(tmp_path))
    assert rc == 0 and err == ""
    if argv[0] == "check":
        assert out.splitlines()[3] == "confluent: unknown"


# --- verify -----------------------------------------------------------------

def test_verify_clean(cli):
    rc, out, _ = cli("verify", str(corpus_path("applast.trs")), "--suffix", "'")
    assert rc == 0
    assert out.splitlines() == [
        "trials: 200 (depth 6, seed 42)",
        "agree: 200",
        "disagree: 0",
        "indeterminate: 0",
        "nonvalue: 0",
    ]


def test_verify_json(cli):
    rc, out, _ = cli("verify", str(corpus_path("plus_minus.trs")),
                     "--trials", "40", "--depth", "4", "--seed", "7",
                     "--suffix", "'", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["disagree"] == 0
    assert doc["trials"] == 40
    total = doc["agree"] + doc["disagree"] + doc["indeterminate"] + doc["nonvalue"]
    assert total == 40


VACUOUS = "warning: no trial compared two values, so agreement is vacuous\n"


def test_verify_warns_when_no_trial_runs(cli):
    rc, out, err = cli("verify", str(corpus_path("bogus.trs")), "--trials", "0")
    assert rc == 0 and err == VACUOUS
    assert out.splitlines()[:2] == ["trials: 0 (depth 6, seed 42)", "agree: 0"]


def test_verify_warns_when_no_trial_compares_values(cli, tmp_path):
    # the one ground term is a constant without rules: never a value
    src = tmp_path / "novalue.trs"
    src.write_text("sort N\nfun c : N\n")
    rc, out, err = cli("verify", str(src), "--trials", "5", "--json")
    assert rc == 0 and err == VACUOUS
    doc = json.loads(out)
    assert (doc["nonvalue"], doc["warnings"]) == (5, [VACUOUS[9:-1]])
    jsonschema.validate(doc, SCHEMA)


@pytest.mark.parametrize("text, depth, why", [
    (None, "0", "the shallowest ground term of any sort has depth 1"),
    ("sort A\ncons box : A -> A\n", "6", "the system has no ground terms"),
    ("", "6", "the system has no ground terms"),
])
def test_verify_depth_admits_no_ground_term(cli, tmp_path, text, depth, why):
    path = corpus_path("applast.trs")
    if text is not None:
        path = tmp_path / "nogterm.trs"
        path.write_text(text)
    rc, out, err = cli("verify", str(path), "--depth", depth)
    assert (rc, out) == (4, "")
    assert err == f"error: --depth {depth} admits no ground term: {why}\n"


def test_verify_at_depth_3000(cli):
    # random terms 3,000 deep are built without recursion; drawing
    # uniformly among Z, S and loop/3 branches more often than it stops,
    # so the symbol cap of random_ground_term keeps them finite
    rc, out, err = cli("verify", str(corpus_path("bogus.trs")),
                       "--depth", "3000", "--trials", "3")
    assert rc in (0, 1) and err == ""
    assert out.splitlines()[0] == "trials: 3 (depth 3000, seed 42)"


# --- oracle -----------------------------------------------------------------

def test_oracle_counterexample(cli):
    rc, out, _ = cli("oracle", str(corpus_path("negative/four_rules.trs")),
                     "-f", "f", "-i", "1", "--ctx-depth", "2",
                     "--term-depth", "2")
    assert rc == 1
    assert out.splitlines() == [
        "counterexample found",
        "context: []",
        "term: f(a, b)",
        "replacement: b",
        "seval before: {a}",
        "seval after: {b}",
    ]


def test_oracle_no_counterexample(cli):
    rc, out, _ = cli("oracle", str(corpus_path("applast.trs")),
                     "-f", "applast", "-i", "1", "--ctx-depth", "2",
                     "--term-depth", "2")
    assert rc == 0
    assert out == ("no counterexample up to context depth 2, term depth 2 "
                   "(11 cases, 0 skipped)\n")


def test_oracle_says_when_max_cases_stopped_it(cli):
    # (applast, 1) has exactly 11 cases at depths 2/2
    argv = ["oracle", str(corpus_path("applast.trs")), "-f", "applast", "-i", "1",
            "--ctx-depth", "2", "--term-depth", "2"]
    rc, out, _ = cli(*argv, "--max-cases", "10")
    assert rc == 0
    assert out == ("no counterexample in the first 10 cases, 0 skipped; stopped at "
                   "--max-cases, so context depth 2, term depth 2 were not fully checked\n")
    rc, out, _ = cli(*argv, "--max-cases", "11")
    assert out == ("no counterexample up to context depth 2, term depth 2 "
                   "(11 cases, 0 skipped)\n")
    for cap, capped in (("10", True), ("11", False)):
        rc, out, _ = cli(*argv, "--max-cases", cap, "--json")
        doc = json.loads(out)
        assert (doc["cases_checked"], doc["capped"]) == (int(cap), capped)
        jsonschema.validate(doc, SCHEMA)


def test_oracle_rejects_unknown_symbol(cli):
    rc, _, err = cli("oracle", str(corpus_path("applast.trs")),
                     "-f", "nosuch", "-i", "1")
    assert rc == 2 and "unknown symbol nosuch" in err


def test_oracle_rejects_bad_index(cli):
    rc, _, err = cli("oracle", str(corpus_path("applast.trs")),
                     "-f", "applast", "-i", "5")
    assert rc == 2 and "index 5 out of range for applast/2" in err


def test_oracle_empty_sort(cli, tmp_path):
    src = tmp_path / "nogterm.trs"
    src.write_text("sort A\ncons box : A -> A\nfun f : A -> A\n")
    rc, _, err = cli("oracle", str(src), "-f", "f", "-i", "1")
    assert rc == 4
    assert "has no ground terms" in err



@pytest.mark.parametrize("symbol, depth, sort", [
    ("applast", "0", "List"),
    ("cons", "1", "Nat"),
])
def test_oracle_term_depth_too_shallow_for_the_arguments(cli, symbol, depth, sort):
    rc, out, err = cli("oracle", str(corpus_path("applast.trs")),
                       "-f", symbol, "-i", "1", "--term-depth", depth)
    assert (rc, out) == (4, "")
    assert err == (f"error: --term-depth {depth} admits no {symbol} term: argument 1 "
                   f"has sort {sort}, whose shallowest ground term has depth 1\n")

# --- bench ------------------------------------------------------------------

def test_bench_golden(cli, corpus_dir):
    rc, out, _ = cli("bench", str(corpus_dir))
    assert rc == 0
    assert out.splitlines() == [
        "bogus          PASS  rarg 1/1  note: compression folds the "
        "self-call on rule 1's rhs to S(a)",
        "applast        PASS  rarg 3/3",
        "plus_minus     PASS  rarg 1/1",
        "plus_leq       PASS  rarg 2/2 (published: 1/1)  note: both "
        "arguments are provably redundant; leq_pe' is nullary",
        "double_even    PASS  rarg 1/1",
        "sum_allzeros   PASS  rarg 1/1",
        "mutrec1        PASS  rarg 2/2 (published: 1/1)  note: both "
        "arguments are provably redundant; f' is nullary",
        "mutrec2        PASS  rarg 1/1",
        "8/8 benchmarks pass",
    ]


def test_bench_row_counts_the_positions_it_expects(cli, tmp_path):
    # the analysis finds loop's argument 2 but not the argument 1 expected too
    (tmp_path / "bogus.trs").write_text(Path(corpus_path("bogus.trs")).read_text())
    (tmp_path / "expectations.json").write_text(json.dumps({"benchmarks": [
        {"file": "bogus.trs", "expected_redundant": {"loop": [1, 2]},
         "expected_erased": "bogus.trs"}]}))
    rc, out, err = cli("bench", str(tmp_path))
    assert (rc, err) == (1, "")
    assert out.splitlines() == ["bogus          FAIL  rarg 1/2", "0/1 benchmarks pass"]


@pytest.mark.parametrize("expected", [
    {"applast": [1], "lastnew": [1, 2], "other": []},
    {"applast": [1, 1], "lastnew": [1, 2]},
], ids=["empty-entry", "repeated-index"])
def test_bench_reads_expected_sets_as_the_analysis_shows_them(cli, tmp_path, expected):
    (tmp_path / "applast.trs").write_text(Path(corpus_path("applast.trs")).read_text())
    (tmp_path / "reduced.trs").write_text(expected_text("applast"))
    (tmp_path / "expectations.json").write_text(json.dumps({"suffix": "'", "benchmarks": [
        {"file": "applast.trs", "expected_redundant": expected,
         "expected_erased": "reduced.trs"}]}))
    rc, out, err = cli("bench", str(tmp_path))
    assert (rc, err) == (0, "")
    assert out.splitlines() == ["applast        PASS  rarg 3/3", "1/1 benchmarks pass"]


def test_bench_requires_expectations(cli, tmp_path):
    rc, _, err = cli("bench", str(tmp_path))
    assert rc == 2
    assert "expectations" in err


@pytest.mark.parametrize("spec, message", [
    ("{not json", "is not JSON: Expecting property name"),
    ('{"suffix": "\'"}', 'has no "benchmarks" list'),
    ("[]", 'has no "benchmarks" list'),
    ('{"benchmarks": 3}', 'has no "benchmarks" list'),
    ("\udcff", "is not JSON: 'utf-8' codec can't decode"),
    ('{"benchmarks": [{"file": "bogus.trs", "expected_redundant": {}, '
     '"expected_erased": "missing.trs"}]}', "cannot read "),
    ('{"benchmarks": [{"file": "bogus.trs"}]}',
     'benchmark entry {"file": "bogus.trs"} is not an object with "file", '
     '"expected_redundant" and "expected_erased"'),
    ('{"benchmarks": [{"file": "bogus.trs", "expected_redundant": {}}]}',
     "is not an object with"),
    ('{"benchmarks": [3]}', "benchmark entry 3 is not an object with"),
    ('{"benchmarks": [{"file": 3, "expected_redundant": {}, "expected_erased": "bogus.trs"}]}',
     '"expected_erased": "bogus.trs"}: "file" is not a file name'),
    ('{"benchmarks": [{"file": "bogus.trs", "expected_redundant": {}, "expected_erased": ["x"]}]}',
     '"expected_erased": ["x"]}: "expected_erased" is not a file name'),
    ('{"benchmarks": [{"file": "bogus.trs", "expected_redundant": [], "expected_erased": "bogus.trs"}]}',
     '"expected_redundant" is not an object of lists of argument indices'),
    ('{"benchmarks": [{"file": "bogus.trs", "expected_redundant": {"loop": 2}, '
     '"expected_erased": "bogus.trs"}]}',
     '"expected_redundant" is not an object of lists of argument indices'),
    ('{"suffix": 3, "benchmarks": [{"file": "bogus.trs", "expected_redundant": {}, '
     '"expected_erased": "bogus.trs"}]}', '"suffix" 3 is not a string'),
    ('{"suffix": "(", "benchmarks": [{"file": "bogus.trs", "expected_redundant": {}, '
     '"expected_erased": "bogus.trs"}]}', "is not an identifier"),
    ('{"benchmarks": [{"file": "bogus\\u0000.trs", "expected_redundant": {}, '
     '"expected_erased": "bogus.trs"}]}', "embedded null byte"),
])
def test_bench_bad_expectations(cli, tmp_path, spec, message):
    (tmp_path / "bogus.trs").write_text(Path(corpus_path("bogus.trs")).read_text())
    (tmp_path / "expectations.json").write_bytes(spec.encode(errors="surrogateescape"))
    rc, out, err = cli("bench", str(tmp_path))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


# --- plumbing ---------------------------------------------------------------

@pytest.mark.parametrize("command", [
    "eval bogus.trs -e loop(Z,Z,Z) --fuel -5",
    "analyze bogus.trs --fuel -1",
    "verify bogus.trs --trials -3",
    "verify bogus.trs --depth -1",
    "oracle bogus.trs -f loop -i 2 --ctx-depth -1",
    "oracle bogus.trs -f loop -i 2 --term-depth -2",
    "oracle bogus.trs -f loop -i 2 --max-cases -10",
    "verify bogus.trs --trials many",
])
def test_negative_numeric_values_exit_2(cli, corpus_dir, command):
    words = command.split()
    words[1] = str(corpus_dir / words[1])
    rc, out, err = cli(*words)
    assert rc == 2 and out == ""
    assert "not an integer >= 0" in err


def test_missing_file(cli):
    rc, _, err = cli("analyze", "corpus/does_not_exist.trs")
    assert rc == 2 and "cannot read" in err


def test_file_not_utf8(cli, tmp_path):
    path = tmp_path / "binary.trs"
    path.write_bytes(b"\xff\xfe")
    rc, out, err = cli("check", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")


def test_no_arguments_shows_usage(cli):
    rc, _, err = cli()
    assert rc == 2


def test_a_reader_that_closes_early_gets_no_traceback():
    # the trace runs to over a megabyte, far past a pipe's buffer
    paths = [str(Path(redarg.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    argv = ["eval", corpus_path("plus_minus.trs"), "-e", f"minus_pe({tower(400)}, Z)", "--trace"]
    with subprocess.Popen(
            [sys.executable, "-m", "redarg.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))) as child:
        assert child.stdout.read(100).startswith(b"e: minus_pe(")
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 0, err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["bench", corpus_path("")],
    ["check", corpus_path("negative/partial.trs"), "--json"],
    ["check", corpus_path("missing.trs")],
], ids=["bench", "check", "missing"])
def test_python_dash_m_redarg_is_the_cli(cli, argv):
    # the same exit code, output and errors as cli.main in-process
    paths = [str(Path(redarg.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-m", "redarg", *argv], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths))))
    assert (done.returncode, done.stdout, done.stderr) == cli(*argv)


JSON_VARIANTS = [
    ("analyze", ["analyze", "applast.trs"]),
    ("check", ["check", "negative/partial.trs"]),
    ("erase", ["erase", "applast.trs", "--reduced", "--suffix", "'"]),
    ("eval", ["eval", "negative/collapse.trs", "-e", "h(c(a), a)",
              "--trace", "--count-steps"]),
    ("verify", ["verify", "plus_minus.trs", "--trials", "20",
                "--depth", "4", "--suffix", "'"]),
    ("oracle-cx", ["oracle", "plus_minus.trs", "-f", "minus_pe", "-i", "2",
                   "--ctx-depth", "2", "--term-depth", "2"]),
    ("oracle-ok", ["oracle", "bogus.trs", "-f", "loop", "-i", "2",
                   "--ctx-depth", "2", "--term-depth", "2"]),
    ("bench", ["bench", "."]),
]


@pytest.mark.parametrize("argv", [v for _, v in JSON_VARIANTS],
                         ids=[k for k, _ in JSON_VARIANTS])
def test_json_outputs_validate(cli, corpus_dir, argv):
    cmd, target, *rest = argv
    rc, out, _ = cli(cmd, str(corpus_dir / target), *rest, "--json")
    assert rc in (0, 1)
    jsonschema.validate(json.loads(out), SCHEMA)

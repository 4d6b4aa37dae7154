"""Seeded inputs for the benchmark, each with its known answer.

Nothing here imports redarg.  Every expected answer comes either from
how an input is built (the generated systems and goals below, whose
redundant positions, reduced erasures, values and step counts follow
from their rules) or from the repository's own pinned answers
(``corpus/expectations.json``, the ``corpus/expected`` erasures and the
criterion-6 probes of the acceptance tests).

Sizes are drawn by stratified sampling: a range is cut into as many
equal strata as there are inputs and one size is drawn per stratum.
Each seed therefore gives different systems and goals, while the total
work of a workload stays about the same from seed to seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# AnalysisConfig.max_rounds in src/redarg/analysis.py.  A chain longer
# than this needs more rounds than the analysis runs, and nothing in its
# output says so; such systems are kept and counted as failed.
ROUND_CAP = 50

SUFFIX = "'"
VERIFY_TRIALS = 200
VERIFY_DEPTH = 6
# verify runs at its defaults (200 trials, depth 6, seed 42), as criterion 5
# does; a fixed verify seed keeps the random trial terms out of the
# seed-to-seed variation.
VERIFY_SEED = 42
ORACLE_MAX_CASES = 1000
ORACLE_DEPTH = 3

ALL_YES = {
    "left_linear": True,
    "constructor_system": True,
    "completely_defined": True,
    "confluent": "yes-orthogonal",
    "seval_defined": True,
    "terminating_attested": True,
}

# Corpus systems outside expectations.json: their properties and
# redundant sets, as their header comments and acceptance criteria 4, 6
# and 9 describe them.  collapse: h(x, y) always ends in `a`, and both
# positions are found in round 1 (variable case for 2, pattern case for
# 1).  nonconfluent: only the variable case may run, and it finds g's
# ignored argument; compressing the erasure meets g' -> Z | S(Z) and is
# abandoned with a warning.
NEGATIVES = {
    "negative/collapse.trs": {
        "check": ALL_YES,
        "redundant": {"h": [1, 2]},
        "erased_sig": ["sort U", "cons a : U", "cons c : U -> U", "fun h' : U"],
        "erased_rules": ["h' -> a"],
        "warns": False,
    },
    "negative/four_rules.trs": {
        "check": ALL_YES,
        "redundant": {},
        "erased_sig": ["sort AB", "cons a : AB", "cons b : AB", "fun f : AB AB -> AB"],
        "erased_rules": ["f(a, a) -> a", "f(a, b) -> a", "f(b, a) -> a", "f(b, b) -> b"],
        "warns": False,
    },
    "negative/nonconfluent.trs": {
        "check": dict(ALL_YES, confluent="no"),
        "redundant": {"g": [1]},
        "erased_sig": ["sort Nat", "cons Z : Nat", "cons S : Nat -> Nat",
                       "fun f : Nat -> Nat", "fun g' : Nat"],
        "erased_rules": ["f(Z) -> Z", "f(S(x)) -> g'", "g' -> Z", "g' -> S(Z)"],
        "warns": True,
    },
    "negative/noncs.trs": {
        "check": dict(ALL_YES, constructor_system=False, completely_defined=False,
                      seval_defined=False, terminating_attested=False),
        "redundant": {},
        "erased_sig": ["sort AB", "cons a : AB", "cons b : AB",
                       "fun f : AB AB -> AB", "fun g : AB -> AB"],
        "erased_rules": ["f(a, x) -> x", "g(f(b, x)) -> x"],
        "warns": False,
    },
    "negative/partial.trs": {
        "check": dict(ALL_YES, completely_defined=False, seval_defined=False),
        "redundant": {},
        "erased_sig": ["sort Nat", "cons Z : Nat", "cons S : Nat -> Nat",
                       "fun f : Nat -> Nat", "fun g : Nat -> Nat"],
        "erased_rules": ["f(Z) -> Z", "f(S(x)) -> f(x)", "g(S(Z)) -> Z"],
        "warns": False,
    },
}

# Criterion 6: the three probes that must be refuted, with the context,
# subject term and replacement of the first counterexample.
REFUTATIONS = [
    ("applast.trs", "lastnew", 3, "[]", "lastnew(Z, nil, Z)", "S(Z)"),
    ("plus_minus.trs", "minus_pe", 2, "[]", "minus_pe(Z, Z)", "S(Z)"),
    ("negative/four_rules.trs", "f", 1, "[]", "f(a, b)", "b"),
]

NAT = ["sort Nat", "cons Z : Nat", "cons S : Nat -> Nat"]
LIST = ["sort Nat", "sort List", "cons Z : Nat", "cons S : Nat -> Nat",
        "cons nil : List", "cons cons : Nat List -> List"]


def stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One size per equal stratum of [lo, hi], in stratum order."""
    width = hi - lo + 1
    bounds = [lo + width * j // count for j in range(count + 1)]
    return [rng.randint(a, max(a, b - 1)) for a, b in zip(bounds, bounds[1:])]


def nat(k: int) -> str:
    return "S(" * k + "Z" + ")" * k


def _system(comment: str, sig: list[str], rules: list[str]) -> str:
    lines = [f"# {comment}"] + sig + ["pragma terminating"]
    return "\n".join(lines + [f"rule {r}" for r in rules]) + "\n"


def _signature(lines: list[str]) -> list[str]:
    return [ln for ln in lines if ln.split()[0] in ("sort", "cons", "fun")]


# ---------------------------------------------------------------------------
# pipeline systems


def walker(w: int) -> dict:
    """w independent copies of applast: every copy loses its list and
    its cursor, found by pattern and variable case within 3 rounds."""
    sig, rules, esig, erules, red = list(LIST), [], list(LIST), [], {}
    for j in range(1, w + 1):
        a, l = f"applast{j}", f"lastnew{j}"
        sig += [f"fun {a} : List Nat -> Nat", f"fun {l} : Nat List Nat -> Nat"]
        rules += [f"{a}(nil, z) -> z", f"{a}(cons(x, xs), z) -> {l}(x, xs, z)",
                  f"{l}(x, nil, z) -> z", f"{l}(x, cons(y, ys), z) -> {l}(y, ys, z)"]
        esig += [f"fun {a}' : Nat -> Nat", f"fun {l}' : Nat -> Nat"]
        erules += [f"{a}'(z) -> z", f"{l}'(z) -> z"]
        red[a], red[l] = [1], [1, 2]
    text = _system(f"{w} applast-style list walkers", sig, rules)
    return {"text": text, "redundant": red, "erased_sig": esig, "erased_rules": erules}


def loop(k: int) -> dict:
    """The bogus loop threading k counters that nobody reads."""
    bs = [f"b{j}" for j in range(1, k + 1)]
    sig = NAT + [f"fun loop : {' '.join(['Nat'] * (k + 2))} -> Nat"]
    rules = [
        f"loop(a, {', '.join(bs)}, Z) -> "
        f"loop(S(a), {', '.join(f'S({b})' for b in bs)}, S(Z))",
        f"loop(a, {', '.join(bs)}, S(x)) -> a",
    ]
    return {
        "text": _system(f"loop threading {k} unread counters", sig, rules),
        "redundant": {"loop": list(range(2, k + 2))},
        "erased_sig": NAT + ["fun loop' : Nat Nat -> Nat"],
        "erased_rules": ["loop'(a, Z) -> S(a)", "loop'(a, S(x)) -> a"],
    }


def chain(m: int) -> dict:
    """c1 .. cm count their first argument down along the chain and pass
    an accumulator that nobody reads.  The variable case finds it one
    function per round, from cm back to c1, so the fixpoint needs m
    rounds."""
    sig = NAT + [f"fun c{j} : Nat Nat -> Nat" for j in range(1, m + 1)]
    rules, erules = [], []
    for j in range(1, m + 1):
        nxt, erased = (f"c{j + 1}(x, acc)", f"c{j + 1}'(x)") if j < m else ("x", "x")
        rules += [f"c{j}(Z, acc) -> Z", f"c{j}(S(x), acc) -> {nxt}"]
        erules += [f"c{j}'(Z) -> Z", f"c{j}'(S(x)) -> {erased}"]
    return {
        "text": _system(f"chain of {m} functions with an unused accumulator", sig, rules),
        "redundant": {f"c{j}": [2] for j in range(1, m + 1)},
        "erased_sig": NAT + [f"fun c{j}' : Nat -> Nat" for j in range(1, m + 1)],
        "erased_rules": erules,
        "rounds_needed": m,
    }


def countdown(m: int) -> dict:
    """d1 .. dm return their second argument once their first, which they
    pattern-match, counts down to Z along the chain.  The pattern case
    finds the first argument one function per round, from dm back to d1."""
    sig = NAT + [f"fun d{j} : Nat Nat -> Nat" for j in range(1, m + 1)]
    rules = []
    for j in range(1, m + 1):
        nxt = f"d{j + 1}" if j < m else f"d{m}"
        rules += [f"d{j}(Z, y) -> y", f"d{j}(S(x), y) -> {nxt}(x, y)"]
    return {
        "text": _system(f"countdown chain of {m} functions", sig, rules),
        "redundant": {f"d{j}": [1] for j in range(1, m + 1)},
        "erased_sig": NAT + [f"fun d{j}' : Nat -> Nat" for j in range(1, m + 1)],
        "erased_rules": [f"d{j}'(y) -> y" for j in range(1, m + 1)],
        "rounds_needed": m,
    }


def table(n: int, rng: random.Random) -> dict:
    """A fully tabulated f over n constants, f(ai, aj) = a((pi + qj) mod n).
    Changing either argument changes the value, so nothing is redundant."""
    p = rng.sample(range(n), n)
    q = rng.sample(range(n), n)
    consts = [f"a{i}" for i in range(n)]
    sig = ["sort T"] + [f"cons {c} : T" for c in consts] + ["fun f : T T -> T"]
    rules = [f"f({consts[i]}, {consts[j]}) -> {consts[(p[i] + q[j]) % n]}"
             for i in range(n) for j in range(n)]
    return {
        "text": _system(f"{n}x{n} table", sig, rules),
        "redundant": {},
        "erased_sig": sig,
        "erased_rules": rules,
    }


# Generated systems: (shape, how many, size range).  The slow tail is
# kept the same from seed to seed, so that the p90 analyze latency does
# not jump between systems of different cost: chains and countdowns come
# from narrow ranges, and eight 6x6 tables make the cluster that p90
# falls in.  The ROUND_CAP rows take one chain and one countdown past the
# analysis's round cap on purpose.
PIPELINE_SHAPES = [
    ("walker", 28, 1, 3),
    ("loop", 28, 1, 3),
    ("table", 19, 2, 5),
    ("table", 8, 6, 6),
] + [
    (shape, 1, lo, lo + 2)
    for shape in ("chain", "countdown")
    for lo in (8, 18, 28, ROUND_CAP + 1)
]


def pipeline_systems(seed: int, corpus: Path) -> list[dict]:
    rng = random.Random(seed)
    spec = json.loads((corpus / "expectations.json").read_text())
    systems = []
    for entry in spec["benchmarks"]:
        expected = (corpus / entry["expected_erased"]).read_text().splitlines()
        systems.append({
            "name": entry["file"][: -len(".trs")],
            "file": str(corpus / entry["file"]),
            "check": ALL_YES,
            "redundant": entry["expected_redundant"],
            "erased_sig": _signature(expected),
            "erased_rules": [ln[len("rule "):] for ln in expected if ln.startswith("rule ")],
            "warns": False,
        })
    for path, known in NEGATIVES.items():
        systems.append(dict(known, name=path[: -len(".trs")], file=str(corpus / path)))
    for shape, count, lo, hi in PIPELINE_SHAPES:
        for size in stratified(rng, lo, hi, count):
            if shape == "table":
                sysd = table(size, rng)
            else:
                sysd = {"walker": walker, "loop": loop, "chain": chain,
                        "countdown": countdown}[shape](size)
            sysd.update(name=f"{shape}{size}", check=ALL_YES, warns=False)
            systems.append(sysd)
    rng.shuffle(systems)
    return systems


def over_round_cap(system: dict) -> bool:
    return system.get("rounds_needed", 0) > ROUND_CAP


# ---------------------------------------------------------------------------
# eval-deep goals


def _list(items: list[str]) -> str:
    return "".join(f"cons({x}, " for x in items) + "nil" + ")" * len(items)


def _goal_applast(n, rng):
    z = nat(rng.randint(0, 3))
    xs = _list([nat(rng.randint(0, 3)) for _ in range(n)])
    return "applast.trs", f"applast({xs}, {z})", z, n + 1


def _goal_sum_allzeros(n, rng):
    xs = _list([nat(rng.randint(0, 3)) for _ in range(n)])
    return "originals/sum_allzeros.trs", f"sum(allzeros({xs}))", "Z", 3 * n + 2


def _goal_minus_pe(n, rng):
    y = nat(rng.randint(0, 3))
    return "plus_minus.trs", f"minus_pe({nat(n)}, {y})", y, n + 1


def _goal_plus_leq(n, rng):
    # plus(S^a(Z), S^b(Z)) builds S^(a+b)(Z): keep a + b <= n
    a = n // 2
    b = rng.randint(0, n - a)
    return ("originals/plus_leq.trs", f"leq({nat(a)}, plus({nat(a)}, {nat(b)}))",
            "True", 2 * a + 2)


def _goal_double_even(n, rng):
    # double(S^n(Z)) builds S^2n(Z): halve n to stay as shallow as the rest
    n //= 2
    return "originals/double_even.trs", f"even(double({nat(n)}))", "True", 2 * n + 2


def _goal_mutrec1(n, rng):
    return "mutrec1.trs", f"f({nat(n)}, {nat(rng.randint(0, 3))})", "Z", 2 * n + 1


def _goal_mutrec2(n, rng):
    return "mutrec2.trs", f"f({nat(n)})", "S(Z)", 2 * n - 1


# Goal families and how many goals each gets.  Neither a goal nor any
# term its evaluation builds nests deeper than about EVAL_MAX_N levels;
# parsing and rewriting hit Python's recursion limit between 450 and 500.
EVAL_FAMILIES = [
    ("applast", _goal_applast, 15),
    ("sum_allzeros", _goal_sum_allzeros, 15),
    ("minus_pe", _goal_minus_pe, 15),
    ("plus_leq", _goal_plus_leq, 15),
    ("double_even", _goal_double_even, 15),
    ("mutrec1", _goal_mutrec1, 15),
    ("mutrec2", _goal_mutrec2, 15),
]
EVAL_MIN_N = 10
EVAL_MAX_N = 300


def eval_goals(seed: int, corpus: Path) -> list[dict]:
    rng = random.Random(seed)
    goals = []
    for family, build, count in EVAL_FAMILIES:
        for n in stratified(rng, EVAL_MIN_N, EVAL_MAX_N, count):
            path, expr, value, steps = build(n, rng)
            goals.append({"name": f"{family}{n}", "file": str(corpus / path),
                          "expr": expr, "result": value, "steps": steps})
    rng.shuffle(goals)
    return goals


# ---------------------------------------------------------------------------
# oracle probes


def oracle_probes(corpus: Path) -> list[dict]:
    """The 15 criterion-6 probes: every expected redundant position of the
    8 corpus programs must survive the oracle, and three non-redundant
    positions are refuted by a pinned first counterexample."""
    spec = json.loads((corpus / "expectations.json").read_text())
    probes = []
    for entry in spec["benchmarks"]:
        for f, indices in entry["expected_redundant"].items():
            for i in indices:
                probes.append({"name": f"{entry['file'][:-4]}:{f}:{i}",
                               "file": str(corpus / entry["file"]),
                               "symbol": f, "index": i, "refutation": None})
    for path, f, i, ctx, term, repl in REFUTATIONS:
        probes.append({"name": f"{path[:-4]}:{f}:{i}", "file": str(corpus / path),
                       "symbol": f, "index": i,
                       "refutation": {"context": ctx, "term": term, "replacement": repl}})
    for probe in probes:
        if probe["refutation"] is None:
            total = count_cases(Path(probe["file"]).read_text(), probe["symbol"],
                                probe["index"], ORACLE_DEPTH, ORACLE_DEPTH)
            probe["cases"] = min(total, ORACLE_MAX_CASES)
    return probes


def _signature_of(text: str) -> tuple[list[str], list[tuple[str, list[str], str]]]:
    sorts, symbols = [], []
    for line in text.splitlines():
        words = line.split("#")[0].split()
        if words[:1] == ["sort"]:
            sorts.append(words[1])
        elif words[:1] in (["cons"], ["fun"]):
            *args, result = [w for w in words[3:] if w != "->"]
            symbols.append((words[1], args, result))
    return sorts, symbols


def count_cases(text: str, symbol: str, index: int, ctx_depth: int, term_depth: int) -> int:
    """How many (context, subject, replacement) cases the oracle's search
    space holds: one-hole contexts of any sort and depth <= ctx_depth,
    times the symbol-rooted subjects with arguments of depth <=
    term_depth - 1, times the ground terms of depth <= term_depth that
    differ from the subject's index-th argument.  Counted over the
    signature alone."""
    sorts, symbols = _signature_of(text)

    def ground(depth: int) -> dict[str, int]:
        # ground terms of each sort with depth <= depth (a constant has depth 1)
        count = {s: 0 for s in sorts}
        for _ in range(depth):
            nxt = {s: 0 for s in sorts}
            for _, args, result in symbols:
                prod = 1
                for a in args:
                    prod *= count[a]
                nxt[result] += prod
            count = nxt
        return count

    def contexts(hole: str, depth: int) -> int:
        # one-hole contexts of depth <= depth; the hole itself has depth 0
        ctx = {s: int(s == hole) for s in sorts}
        for d in range(1, depth + 1):
            inner = ground(d - 1)
            nxt = {s: int(s == hole) for s in sorts}
            for _, args, result in symbols:
                for slot in range(len(args)):
                    prod = ctx[args[slot]]
                    for j, a in enumerate(args):
                        if j != slot:
                            prod *= inner[a]
                    nxt[result] += prod
            ctx = nxt
        return sum(ctx.values())

    _, args, result = next(s for s in symbols if s[0] == symbol)
    subjects = 1
    for a in args:
        subjects *= ground(term_depth - 1)[a]
    replacements = ground(term_depth)[args[index - 1]] - 1
    return contexts(result, ctx_depth) * subjects * replacements

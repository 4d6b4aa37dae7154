"""Shared fixtures: corpus loading and an in-process CLI runner."""

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from redarg import Trs, parse_trs
from redarg.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def load_corpus(relpath: str) -> Trs:
    """Parse a corpus file; plain function so module-level strategies
    and parametrization can use it too."""
    return parse_trs((CORPUS / relpath).read_text())


CORPUS_FILES = sorted(str(p.relative_to(CORPUS)) for p in CORPUS.rglob("*.trs"))


NAT = ["sort Nat", "cons Z : Nat", "cons S : Nat -> Nat"]
LIST = NAT + ["sort List", "cons nil : List", "cons cons : Nat List -> List"]


def terminating_system(sig: list[str], rules: list[str]) -> Trs:
    return parse_trs("\n".join(sig + ["pragma terminating"] + [f"rule {r}" for r in rules]) + "\n")


def symbol_chain(m: int) -> Trs:
    """f1 .. f(m+1), each passing its first argument on and growing its
    second, which only f(m+1) drops: f_k(x, y) -> f_(k+1)(x, S(y)).  The
    variable case finds the second argument one symbol per round, from
    f(m+1) back to f1."""
    sig = NAT + [f"fun f{k} : Nat Nat -> Nat" for k in range(1, m + 2)]
    rules = [f"f{k}(x, y) -> f{k + 1}(x, S(y))" for k in range(1, m + 1)]
    return terminating_system(sig, rules + [f"f{m + 1}(x, y) -> x"])


def countdown(m: int) -> Trs:
    """d1 .. dm return their second argument once their first counts
    down to Z; the pattern case finds the first one symbol per round."""
    sig = NAT + [f"fun d{k} : Nat Nat -> Nat" for k in range(1, m + 1)]
    rules = []
    for k in range(1, m + 1):
        rules += [f"d{k}(Z, y) -> y", f"d{k}(S(x), y) -> d{min(k + 1, m)}(x, y)"]
    return terminating_system(sig, rules)


def walker(w: int) -> Trs:
    """w copies of applast."""
    sig, rules = list(LIST), []
    for k in range(1, w + 1):
        a, l = f"applast{k}", f"lastnew{k}"
        sig += [f"fun {a} : List Nat -> Nat", f"fun {l} : Nat List Nat -> Nat"]
        rules += [f"{a}(nil, z) -> z", f"{a}(cons(x, xs), z) -> {l}(x, xs, z)",
                  f"{l}(x, nil, z) -> z", f"{l}(x, cons(y, ys), z) -> {l}(y, ys, z)"]
    return terminating_system(sig, rules)


def loop(k: int) -> Trs:
    """bogus's loop threading k counters that nobody reads."""
    bs = ", ".join(f"b{j}" for j in range(1, k + 1))
    grown = ", ".join(f"S(b{j})" for j in range(1, k + 1))
    sig = NAT + [f"fun loop : {' '.join(['Nat'] * (k + 2))} -> Nat"]
    return terminating_system(sig, [f"loop(a, {bs}, Z) -> loop(S(a), {grown}, S(Z))",
                                    f"loop(a, {bs}, S(x)) -> a"])


def table(n: int, seed: int = 0) -> Trs:
    """f tabulated over n constants, f(ai, aj) = a((pi + qj) mod n) for
    two seeded permutations p and q: nothing is redundant."""
    rng = random.Random(seed)
    p, q = rng.sample(range(n), n), rng.sample(range(n), n)
    sig = ["sort T"] + [f"cons a{i} : T" for i in range(n)] + ["fun f : T T -> T"]
    return terminating_system(sig, [f"f(a{i}, a{j}) -> a{(p[i] + q[j]) % n}"
                                    for i in range(n) for j in range(n)])


# small systems of the shapes perfbench/gen.py generates, by name
GENERATED = {
    "symbol_chain12": lambda: symbol_chain(12),
    "countdown7": lambda: countdown(7),
    "walker2": lambda: walker(2),
    "loop2": lambda: loop(2),
    "table3": lambda: table(3),
    "table6": lambda: table(6),
}


def corpus_path(relpath: str) -> str:
    return str(CORPUS / relpath)


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


@pytest.fixture(scope="session")
def applast() -> Trs:
    return load_corpus("applast.trs")


@pytest.fixture(scope="session")
def bogus() -> Trs:
    return load_corpus("bogus.trs")


@pytest.fixture(scope="session")
def plus_minus() -> Trs:
    return load_corpus("plus_minus.trs")


@pytest.fixture(scope="session")
def collapse() -> Trs:
    return load_corpus("negative/collapse.trs")


@pytest.fixture(scope="session")
def nonconfluent() -> Trs:
    return load_corpus("negative/nonconfluent.trs")


@pytest.fixture(scope="session")
def partial() -> Trs:
    return load_corpus("negative/partial.trs")


@pytest.fixture(scope="session")
def noncs() -> Trs:
    return load_corpus("negative/noncs.trs")


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Invoke the CLI in-process; returns (exit code, stdout, stderr).

    argparse failures exit via SystemExit; those are folded into the
    return code so tests can assert on them uniformly.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def cli():
    return run_cli

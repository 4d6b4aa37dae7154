"""Argument erasure: drop redundant argument positions from a
signature, its terms, and its rules, then optionally compress the
result.

The compression step (reduced erasure) is only well defined when each
surviving right-hand side has a unique normal form; the search for it
is the bounded explorer of the rewrite module, and on failure the
unreduced system is returned with a warning rather than looping.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import WellFormednessError
from .rewrite import explore
from .terms import App, FuncSymbol, Substitution, Term, Var, vars_of
from .trs import Rule, Trs, canonical_rule, designated_constant

# caps for the unique-normal-form search during compression; small on
# purpose so a looping right-hand side aborts quickly
REDUCE_MAX_TERMS = 500
REDUCE_MAX_STEPS = 2_000


@dataclass(frozen=True)
class SyntacticErasure:
    """Per-symbol sets of argument positions to delete."""

    rho: dict[str, frozenset[int]]

    def of(self, f: FuncSymbol | str) -> frozenset[int]:
        name = f if isinstance(f, str) else f.name
        return self.rho.get(name, frozenset())

    def surviving(self, f: FuncSymbol) -> tuple[int, ...]:
        dropped = self.of(f)
        return tuple(i for i in range(1, f.arity + 1) if i not in dropped)

    def is_identity(self) -> bool:
        return all(not v for v in self.rho.values())


def identity_erasure(trs: Trs) -> SyntacticErasure:
    return SyntacticErasure({f.name: frozenset() for f in trs.symbols})


def erasure_from_analysis(redundancy, trs: Trs) -> SyntacticErasure:
    """Erase exactly the argument positions the analysis proved
    redundant; everything else is kept."""
    rho = {f.name: frozenset() for f in trs.symbols}
    for f in trs.defined:
        found = redundancy.get(f.name)
        if found:
            bad = [i for i in found if not 1 <= i <= f.arity]
            if bad:
                raise WellFormednessError(
                    f"erasure index {bad[0]} out of range for {f.name}"
                )
            rho[f.name] = frozenset(found)
    return SyntacticErasure(rho)


def erase_symbol(f: FuncSymbol, rho: SyntacticErasure, suffix: str = "") -> FuncSymbol:
    dropped = rho.of(f)
    if not dropped:
        return f
    survivors = rho.surviving(f)
    return FuncSymbol(
        name=f.name + suffix,
        arg_sorts=tuple(f.arg_sorts[i - 1] for i in survivors),
        result_sort=f.result_sort,
        kind=f.kind,
    )


def erase_term(t: Term, rho: SyntacticErasure, suffix: str = "") -> Term:
    """The homomorphic erasure: variables unchanged, erased argument
    positions dropped, surviving arguments kept in order.  Iterative and
    bottom-up like terms.fold, but it never enters an erased argument."""
    # a pushed (symbol, n) builds a node from the last n results
    done: list[Term] = []
    stack: list = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            done.append(u)
        elif isinstance(u, tuple):
            symbol, n = u
            args = tuple(done[len(done) - n :])
            del done[len(done) - n :]
            done.append(App(symbol, args))
        else:
            keep = rho.surviving(u.symbol)
            stack.append((erase_symbol(u.symbol, rho, suffix), len(keep)))
            stack.extend(u.args[i - 1] for i in reversed(keep))
    return done[0]


def erase_trs(trs: Trs, rho: SyntacticErasure, suffix: str = "") -> Trs:
    """Erase the signature and every rule.

    A rule l -> r becomes tau(l) -> sigma_l(tau(r)) where sigma_l
    plugs the designated constant of the right sort into variables
    that the erased lhs no longer binds.  Attestations are dropped:
    erasure does not preserve termination.
    """
    new_symbols: list[FuncSymbol] = []
    names: set[str] = set()
    for f in trs.symbols:
        g = erase_symbol(f, rho, suffix)
        if g.name in names:
            raise WellFormednessError(
                f"erased symbol name {g.name} collides with another symbol"
            )
        new_symbols.append(g)
        names.add(g.name)

    new_rules: list[Rule] = []
    for rule in trs.rules:
        lhs = erase_term(rule.lhs, rho, suffix)
        rhs = erase_term(rule.rhs, rho, suffix)
        vanished = {v.name for v in vars_of(rule.lhs)} - {
            v.name for v in vars_of(lhs)
        }
        needed = [v for v in sorted(vars_of(rhs), key=lambda v: v.name)
                  if v.name in vanished]
        if needed:
            sigma = Substitution(
                {
                    v.name: erase_term(designated_constant(trs, v.sort), rho, suffix)
                    for v in needed
                }
            )
            rhs = sigma.apply(rhs)
        new_rules.append(Rule(lhs, rhs, rule.label))

    return Trs(
        sorts=trs.sorts,
        symbols=tuple(new_symbols),
        rules=tuple(new_rules),
        attestations=frozenset(),
    )


def _unique_normal_form(
    t: Term, trs: Trs, max_terms: int, max_steps: int
) -> tuple[Term | None, str | None]:
    """Exhaustive bounded search for the unique normal form of t.

    Returns (nf, None) on success, else (None, reason).  Unlike plain
    normalization this explores every reduct, so a looping rule cannot
    hide an ambiguous result.
    """
    reached, truncated = explore(t, trs, max_terms, max_steps)
    if truncated:
        return None, "fuel exhausted"
    normal_forms = [u for u, succs in reached.items() if not succs]
    if not normal_forms:
        return None, "no normal form reachable"
    if len(normal_forms) > 1:
        return None, "normal form not unique"
    return normal_forms[0], None


def reduced_erasure(
    erased: Trs,
    max_terms: int = REDUCE_MAX_TERMS,
    max_steps: int = REDUCE_MAX_STEPS,
) -> tuple[Trs, list[str]]:
    """Compress an erasure: drop trivial rules, normalize every
    remaining rhs, drop rules that became trivial, and deduplicate.

    When some rhs has no unique normal form within the bounds (a
    looping or ambiguous system), compression is abandoned wholesale
    and the input is returned together with a warning.
    """
    rules = [r for r in erased.rules if r.lhs != r.rhs]
    working = replace(erased, rules=tuple(rules))
    new_rules: list[Rule] = []
    for rule in rules:
        nf, reason = _unique_normal_form(rule.rhs, working, max_terms, max_steps)
        if nf is None:
            return erased, [
                f"{reason} while normalizing rhs of rule {rule.label} "
                f"({rule}); returning the erasure uncompressed"
            ]
        new_rules.append(Rule(rule.lhs, nf, rule.label))

    new_rules = [r for r in new_rules if r.lhs != r.rhs]
    seen: set[tuple[str, str]] = set()
    deduped: list[Rule] = []
    for rule in new_rules:
        key = canonical_rule(rule)
        if key in seen:
            continue
        seen.add(key)
        deduped.append(rule)

    return replace(erased, rules=tuple(deduped)), []

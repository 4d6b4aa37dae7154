"""Argument erasure: drop redundant argument positions from a
signature, its terms, and its rules, then optionally compress the
result.

The compression step (reduced erasure) is only well defined when each
surviving right-hand side has a unique normal form; the search for it
is the bounded explorer of the rewrite module, and on failure the
unreduced system is returned with a warning rather than looping.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import NoGroundConstant, WellFormednessError
from .rewrite import explore
from .terms import (
    App, FuncSymbol, Term, Var, instantiate, iter_positions, match, var_names, vars_of)
from .trs import _IDENT, Rule, Trs, canonical_rule


# each symbol's name -> its image and the 0-based indices of the
# arguments it keeps
ErasureTable = dict[str, tuple[FuncSymbol, tuple[int, ...]]]


def erasure_table(
    trs: Trs, rho: dict[str, frozenset[int]], suffix: str = ""
) -> ErasureTable:
    """The erasure that drops, from each symbol named in rho, the
    1-based argument indices listed there, as an image per symbol of
    trs.  A symbol that loses no argument is its own image; one that
    loses some is renamed with the suffix."""
    table: ErasureTable = {}
    names: set[str] = set()
    for f in trs.symbols:
        dropped = rho.get(f.name, frozenset())
        for i in dropped:
            if not 1 <= i <= f.arity:
                raise WellFormednessError(f"erasure index {i} out of range for {f.name}")
        keep = tuple(k for k in range(f.arity) if k + 1 not in dropped)
        g = f if not dropped else FuncSymbol(
            f.name + suffix, tuple(f.arg_sorts[k] for k in keep), f.result_sort, f.kind
        )
        if dropped and not _IDENT.fullmatch(g.name):
            # the name must read back as a symbol of the .trs format
            raise WellFormednessError(f"erased symbol name {g.name!r} is not an identifier")
        if g.name in names:
            raise WellFormednessError(
                f"erased symbol name {g.name} collides with another symbol"
            )
        # a rule variable of that name would read back as the symbol
        if dropped and (rule := next((r for r in trs.rules if g.name in var_names(r.lhs)), None)):
            raise WellFormednessError(
                f"erased symbol name {g.name} is a variable of rule {rule.label} ({rule})")
        names.add(g.name)
        table[f.name] = (g, keep)
    return table


def erase_term(t: Term, table: ErasureTable) -> Term:
    """The homomorphic erasure: variables unchanged, erased argument
    positions dropped, surviving arguments kept in order.  Iterative and
    bottom-up like terms.fold, but it never enters an erased argument,
    and a node that loses nothing is handed back, not rebuilt."""
    # a pushed (node, image symbol, n) builds its image from the last n results
    done: list[Term] = []
    stack: list = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, tuple):
            u, symbol, n = u
            args = tuple(done[len(done) - n :])
            del done[len(done) - n :]
            done.append(u if args == u.args else App(symbol, args))
        elif isinstance(u, Var) or not u.args:
            # a variable or a constant is its own image
            done.append(u)
        else:
            symbol, keep = table[u.symbol.name]
            stack.append((u, symbol, len(keep)))
            args = u.args
            stack.extend(args[k] for k in reversed(keep))
    return done[0]


def erase_trs(trs: Trs, rho: dict[str, frozenset[int]], suffix: str = "") -> Trs:
    """Erase the signature and every rule.

    A rule l -> r becomes tau(l) -> sigma_l(tau(r)) where sigma_l
    plugs the designated constant of the right sort into variables
    that the erased lhs no longer binds.  The termination attestation
    is dropped: erasure does not preserve termination.
    """
    table = erasure_table(trs, rho, suffix)
    constants = trs.designated_constants
    new_rules: list[Rule] = []
    for rule in trs.rules:
        lhs = erase_term(rule.lhs, table)
        rhs = erase_term(rule.rhs, table)
        plug: dict[str, Term] = {}
        for v in sorted(vars_of(rhs) - vars_of(lhs), key=lambda v: v.name):
            if v.sort not in constants:
                raise NoGroundConstant(v.sort)
            plug[v.name] = erase_term(constants[v.sort], table)
        new_rules.append(Rule(lhs, instantiate(rhs, plug) if plug else rhs, rule.label))

    return Trs(
        sorts=trs.sorts,
        symbols=tuple(g for g, _ in table.values()),
        rules=tuple(new_rules),
    )


def _embeds_lhs(rule: Rule) -> bool:
    """Whether the rhs has an instance of the lhs below its root, or is
    one that binds some variable x to an application holding x.  Each
    step then nests one more copy or grows that binding, so the rhs
    reaches infinitely many terms and any bounded search is truncated."""
    return any(
        (sigma := match(rule.lhs, u)) is not None
        and (p or any(isinstance(s, App) and x in var_names(s) for x, s in sigma.items()))
        for p, u in iter_positions(rule.rhs))


def _unique_normal_form(rule: Rule, trs: Trs) -> tuple[Term | None, str | None]:
    """Exhaustive bounded search for the unique normal form of rule.rhs.

    Returns (nf, None) on success, else (None, reason).  Unlike plain
    normalization this explores every reduct, so a looping rule cannot
    hide an ambiguous result.
    """
    if _embeds_lhs(rule):
        return None, "fuel exhausted"
    reached, truncated = explore(rule.rhs, trs)
    if truncated:
        return None, "fuel exhausted"
    normal_forms = [u for u, succs in reached.items() if not succs]
    if not normal_forms:
        return None, "no normal form reachable"
    if len(normal_forms) > 1:
        return None, "normal form not unique"
    return normal_forms[0], None


def reduced_erasure(erased: Trs) -> tuple[Trs, list[str]]:
    """Compress an erasure: drop trivial rules, normalize every
    remaining rhs, and deduplicate.

    When some rhs has no unique normal form within the bounds (a
    looping or ambiguous system), compression is abandoned wholesale
    and the input is returned together with a warning.
    """
    working = replace(erased, rules=tuple(r for r in erased.rules if r.lhs != r.rhs))
    # the first rule of each alpha-equivalence class, in order
    kept: dict[tuple[str, str], Rule] = {}
    for rule in working.rules:
        nf, reason = _unique_normal_form(rule, working)
        if nf is None:
            return erased, [
                f"{reason} while normalizing rhs of rule {rule.label} "
                f"({rule}); returning the erasure uncompressed"
            ]
        reduced = Rule(rule.lhs, nf, rule.label)
        kept.setdefault(canonical_rule(reduced), reduced)

    return replace(erased, rules=tuple(kept.values())), []

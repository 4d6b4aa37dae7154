"""TRS model, the .trs file format, and structural property checks.

A system is a many-sorted signature (constructors and defined symbols),
an ordered list of rewrite rules, and whether termination is attested.
Property checks gate the detection methods: left-linearity,
constructor-system, complete definedness, confluence, and
Seval-definedness.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .errors import (
    NotAConstructorSystem,
    ParseError,
    WellFormednessError,
)
from .rewrite import DEFAULT_FUEL, IndexedRules, RuleTree, _match_at, join, reach, rule_tree
from .terms import (
    App,
    FuncSymbol,
    Position,
    Sort,
    Term,
    Var,
    fold,
    format_term,
    instantiate,
    iter_positions,
    repeated_variable,
    replace,
    unify,
    var_names,
    vars_of,
)

if TYPE_CHECKING:
    from .oracle import DrawEntry


@dataclass(frozen=True)
class Rule:
    lhs: Term
    rhs: Term
    label: str = ""

    def __str__(self) -> str:
        return f"{format_term(self.lhs)} -> {format_term(self.rhs)}"


@dataclass(frozen=True)
class Trs:
    """A system and the facts derived from it.

    The derived facts are cached properties, computed on first use: a
    Trs is immutable, and callers must not mutate what they return.
    """

    sorts: tuple[Sort, ...]
    symbols: tuple[FuncSymbol, ...]
    rules: tuple[Rule, ...]
    terminating_attested: bool = False

    @cached_property
    def symbol_map(self) -> dict[str, FuncSymbol]:
        return {f.name: f for f in self.symbols}

    @cached_property
    def constructors(self) -> tuple[FuncSymbol, ...]:
        return tuple(f for f in self.symbols if f.kind == "constructor")

    @cached_property
    def defined(self) -> tuple[FuncSymbol, ...]:
        return tuple(f for f in self.symbols if f.kind == "defined")

    @cached_property
    def rules_by_root(self) -> dict[str, IndexedRules]:
        """The rules of each root symbol, in file order, each with its
        index in rules."""
        index: dict[str, list[tuple[int, Rule]]] = {}
        for k, r in enumerate(self.rules):
            if isinstance(r.lhs, App):
                index.setdefault(r.lhs.symbol.name, []).append((k, r))
        return {name: tuple(rows) for name, rows in index.items()}

    @cached_property
    def rule_trees(self) -> dict[str, RuleTree]:
        """The decision tree of each root symbol's rules
        (rewrite.rule_tree), which rewriting and overlap search read
        through rewrite.reach."""
        return {name: rule_tree(rows) for name, rows in self.rules_by_root.items()}

    @cached_property
    def reducts_memo(self) -> dict[Term, tuple[Term, ...]]:
        """The one-step reducts of each term expanded so far; filled,
        and cleared at its cap, by rewrite.successors, which returns
        these tuples."""
        return {}

    @cached_property
    def normal_form_memo(self) -> dict[Term, tuple[Term, int]]:
        """The leftmost-innermost normal form of each node whose
        arguments are normal forms, with the steps it takes; filled, and
        cleared at its cap, by rewrite._innermost."""
        return {}

    @cached_property
    def designated_constants(self) -> dict[Sort, Term]:
        """The canonical ground constructor term of each sort that has
        one: the first constructor term of least depth that the fixpoint
        of _least_depth_terms finds.

        So the first declared nullary constructor wins.  Among deeper terms
        the first one found wins, which is not always the first by
        declaration order: with `cons c1 : T -> U`, `cons v0 : V`,
        `cons c2 : V -> U`, `cons t0 : T` the first pass knows v0 but not
        yet t0 when it reaches c2, so U gets c2(v0), not c1(t0).
        """
        least = _least_depth_terms(self.constructors)
        return {s: least[s][1] for s in self.sorts if s in least}

    @cached_property
    def least_ground_terms(self) -> dict[Sort, tuple[int, Term]]:
        """Per sort with a ground term: the least depth of one, and the
        first term of that depth found (see _least_depth_terms)."""
        return _least_depth_terms(self.symbols)

    @cached_property
    def ground_roots(self) -> dict[tuple[Sort, int], DrawEntry]:
        """Per (sort, depth budget) that a random draw has reached, the
        oracle.DrawEntry it draws from: its options in declaration order
        (a constant's prebuilt node, or a symbol linked on first draw to
        its argument sorts' entries at budget - 1), the sort's least
        ground term, and the budget.  Filled by oracle.random_ground_term."""
        return {}

    @cached_property
    def repeated_variables(self) -> dict[Rule, str]:
        """Each rule whose lhs is not linear, in file order, with the
        variable that terms.repeated_variable finds repeated in it."""
        return {r: name for r in self.rules if (name := repeated_variable(r.lhs)) is not None}


@dataclass(frozen=True)
class CriticalPair:
    left: Term
    right: Term
    position: Position

    def __str__(self) -> str:
        return f"<{format_term(self.left)}, {format_term(self.right)}>"


@dataclass(frozen=True)
class PropertyReport:
    left_linear: bool
    constructor_system: bool
    completely_defined: bool
    cd_witness: Optional[Term]
    cd_reason: Optional[str]
    confluent: str  # yes-orthogonal | yes-knuth-bendix | no | unknown
    confluence_witness: Optional[CriticalPair]
    seval_defined: bool
    seval_reason: Optional[str]
    # the gates of the detection methods that the system fails, in gate
    # order (left-linear, constructor-system, confluent, seval-defined),
    # each with its witness in words
    failed_gates: dict[str, str]


# ---------------------------------------------------------------------------
# Parsing

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
# a token, or in group 2 the character that starts none
_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_']*|[(),])|(\S))")


def _read_term(
    text: str,
    line: int,
    symbols: dict[str, FuncSymbol],
    var_sorts: dict[str, Sort],
    expected: Optional[Sort],
    rule_lhs: bool = False,
) -> Term:
    """Parse one term and resolve it in the signature, in one pass over
    its tokens; iterative, so nesting depth is not limited by the
    interpreter's recursion limit.

    Undeclared identifiers are variables; var_sorts holds the sorts
    they took.  A bad character is reported first, then the first
    syntax error, then the first well-formedness error in preorder (at
    one node, arity before sort).  A node's arity is known only at its
    ')', after later syntax errors may have occurred, so the
    well-formedness error is held with the node's preorder index until
    the whole term has parsed, and no App is built after it.  With
    rule_lhs, a variable at the root is that error.
    """
    tokens: list[str] = []
    for token, bad in _TOKEN.findall(text):
        if bad:
            raise ParseError(f"unexpected character {bad!r} in term", line)
        tokens.append(token)
    end = len(tokens)
    error: Optional[tuple[int, str]] = None  # (preorder index, message)
    # applications reading their arguments: (symbol, preorder index, arguments)
    open_apps: list[tuple[Optional[FuncSymbol], int, list[Term]]] = []
    term: Optional[Term] = None  # the last node resolved; unread once an error is held
    pos = nodes = 0
    while True:
        if pos == end:
            raise ParseError("unexpected end of term", line)
        name = tokens[pos]
        if name in "(),":
            raise ParseError(f"expected identifier, got {name!r}", line)
        pos += 1
        index, nodes = nodes, nodes + 1
        call = pos < end and tokens[pos] == "("
        sym = symbols.get(name)
        if error is not None:
            pass  # this node comes later in preorder than the error held
        elif sym is not None:
            if expected is not None and sym.result_sort != expected:
                error = (index, f"{name} has sort {sym.result_sort}, expected {expected}")
        elif rule_lhs and index == 0:
            error = (0, "rule left-hand side is a variable")
        elif call:
            error = (index, f"undeclared symbol {name} used with arguments")
        else:
            prev = var_sorts.get(name)
            if expected is None:
                expected = prev
            if expected is None:
                error = (index, f"cannot infer sort of variable {name}")
            elif prev is None:
                var_sorts[name] = expected
            elif prev != expected:
                error = (index, f"variable {name} used at sorts {prev} and {expected}")
            term = Var(name, expected)
        args: Sequence[Term] = ()
        if call:
            pos += 1
            if pos == end or tokens[pos] != ")":
                open_apps.append((sym, index, []))
                expected = sym.arg_sorts[0] if sym is not None and sym.arg_sorts else None
                continue  # read its first argument
            pos += 1
        # the node is complete: close it, and every application it completes
        while True:
            if sym is not None:
                arity = len(sym.arg_sorts)
                if arity != len(args) and (error is None or index <= error[0]):
                    error = (index, f"{sym.name} expects {arity} arguments, got {len(args)}")
                if error is None:
                    term = App(sym, tuple(args))
            if not open_apps:
                if pos != end:
                    raise ParseError(f"trailing tokens after term: {tokens[pos]!r}", line)
                if error is not None:
                    raise WellFormednessError(f"line {line}: {error[1]}")
                return term
            sym, index, args = open_apps[-1]
            args.append(term)
            if pos == end:
                raise ParseError("unclosed parenthesis in term", line)
            token = tokens[pos]
            pos += 1
            if token == ",":
                k = len(args)
                expected = sym.arg_sorts[k] if sym is not None and k < len(sym.arg_sorts) else None
                break  # read the next argument
            if token != ")":
                raise ParseError(f"expected ',' or ')', got {token!r}", line)
            open_apps.pop()


def parse_term(text: str, trs: Trs) -> Term:
    """Parse a term string in a system's signature.

    Undeclared identifiers become variables; their sorts must be
    inferable from their positions.
    """
    return _read_term(text, 0, trs.symbol_map, {}, None)


def _parse_signature_line(rest: str, line: int) -> tuple[str, tuple[str, ...], str]:
    """Parse `NAME : [ARGSORTS ->] RESULT` (arrow optional)."""
    if ":" not in rest:
        raise ParseError("expected ':' in declaration", line)
    name_part, sig_part = rest.split(":", 1)
    name = name_part.strip()
    if not _IDENT.fullmatch(name):
        raise ParseError(f"bad symbol name {name!r}", line)
    sig_part = sig_part.strip()
    if "->" in sig_part:
        args_text, result = sig_part.rsplit("->", 1)
        arg_sorts = tuple(args_text.split())
        result_sort = result.strip()
    else:
        parts = sig_part.split()
        if not parts:
            raise ParseError("missing result sort", line)
        arg_sorts = tuple(parts[:-1])
        result_sort = parts[-1]
    for s in arg_sorts + (result_sort,):
        if not _IDENT.fullmatch(s):
            raise ParseError(f"bad sort name {s!r}", line)
    return name, arg_sorts, result_sort


def parse_trs(text: str) -> Trs:
    """Parse the .trs format.

    Line-oriented: `sort ID`, `cons NAME : SIG`, `fun NAME : SIG`,
    `pragma terminating`, `rule TERM -> TERM`.  `#` starts a comment,
    a trailing `.` is ignored.  Undeclared identifiers in rules are
    variables with sorts inferred per rule.
    """
    sorts: list[str] = []
    decls: list[tuple[str, str, tuple[str, ...], str, int]] = []
    terminating = False
    rule_texts: list[tuple[str, str, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line.endswith("."):
            line = line[:-1].rstrip()
        if not line:
            continue
        if " " in line:
            keyword, rest = line.split(None, 1)
        else:
            keyword, rest = line, ""
        if keyword == "sort":
            if not _IDENT.fullmatch(rest):
                raise ParseError(f"bad sort name {rest!r}", lineno)
            if rest in sorts:
                raise WellFormednessError(f"line {lineno}: duplicate sort {rest}")
            sorts.append(rest)
        elif keyword in ("cons", "fun"):
            name, arg_sorts, result_sort = _parse_signature_line(rest, lineno)
            decls.append((keyword, name, arg_sorts, result_sort, lineno))
        elif keyword == "pragma":
            if rest != "terminating":
                raise ParseError(f"unknown pragma {rest!r}", lineno)
            terminating = True
        elif keyword == "rule":
            if "->" not in rest:
                raise ParseError("rule needs '->'", lineno)
            lhs_text, rhs_text = rest.split("->", 1)
            rule_texts.append((lhs_text.strip(), rhs_text.strip(), lineno))
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)

    sort_set = set(sorts)
    symbols: dict[str, FuncSymbol] = {}
    for keyword, name, arg_sorts, result_sort, lineno in decls:
        for s in arg_sorts + (result_sort,):
            if s not in sort_set:
                raise WellFormednessError(f"line {lineno}: undeclared sort {s}")
        if name in symbols:
            raise WellFormednessError(f"line {lineno}: duplicate symbol {name}")
        kind = "constructor" if keyword == "cons" else "defined"
        symbols[name] = FuncSymbol(name, arg_sorts, result_sort, kind)

    rules: list[Rule] = []
    for idx, (lhs_text, rhs_text, lineno) in enumerate(rule_texts, start=1):
        var_sorts: dict[str, Sort] = {}
        lhs = _read_term(lhs_text, lineno, symbols, var_sorts, None, rule_lhs=True)
        root = lhs.symbol
        rhs = _read_term(rhs_text, lineno, symbols, var_sorts, root.result_sort)
        extra = var_names(rhs) - var_names(lhs)
        if extra:
            raise WellFormednessError(
                f"line {lineno}: right-hand side has extra variables "
                f"{', '.join(sorted(extra))}"
            )
        if root.kind == "constructor":
            raise WellFormednessError(
                f"line {lineno}: constructor {root.name} roots a rule"
            )
        rules.append(Rule(lhs, rhs, label=f"r{idx}"))

    # fun symbols with no rules are tolerated (erased specialized programs
    # can consist of constants); cons symbols must never root a rule,
    # which was checked above.
    return Trs(
        sorts=tuple(sorts),
        symbols=tuple(symbols.values()),
        rules=tuple(rules),
        terminating_attested=terminating,
    )


def format_trs(trs: Trs) -> str:
    """Render a system in the .trs format (round-trips through parse_trs)."""
    lines: list[str] = []
    for s in trs.sorts:
        lines.append(f"sort {s}")
    for f in trs.symbols:
        keyword = "cons" if f.kind == "constructor" else "fun"
        if f.arg_sorts:
            sig = f"{' '.join(f.arg_sorts)} -> {f.result_sort}"
        else:
            sig = f.result_sort
        lines.append(f"{keyword} {f.name} : {sig}")
    if trs.terminating_attested:
        lines.append("pragma terminating")
    for r in trs.rules:
        lines.append(f"rule {format_term(r.lhs)} -> {format_term(r.rhs)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structural checks

def check_left_linear(trs: Trs) -> tuple[bool, Optional[tuple[Rule, str]]]:
    """True iff every lhs is linear; otherwise the offending rule and the
    repeated variable."""
    found = next(iter(trs.repeated_variables.items()), None)
    return found is None, found


def check_constructor_system(trs: Trs) -> tuple[bool, Optional[Rule]]:
    """True iff every lhs is f(l1..ln) with f defined and all li
    constructor terms."""
    for rule in trs.rules:
        lhs = rule.lhs
        if not isinstance(lhs, App) or lhs.symbol.kind != "defined":
            return False, rule
        stack = list(lhs.args)
        while stack:
            u = stack.pop()
            if isinstance(u, App):
                if u.symbol.kind != "constructor":
                    return False, rule
                stack.extend(u.args)
    return True, None


def _rename_apart(rule: Rule, avoid: set[str]) -> Rule:
    """Prime-rename the rule's variables that clash with `avoid`."""
    own = vars_of(rule.lhs) | vars_of(rule.rhs)
    mapping: dict[str, Term] = {}
    taken = {v.name for v in own} | avoid
    for v in sorted(own, key=lambda v: v.name):
        if v.name not in avoid:
            continue
        fresh = v.name
        while fresh in taken:
            fresh += "'"
        taken.add(fresh)
        mapping[v.name] = Var(fresh, v.sort)
    if not mapping:
        return rule
    return Rule(instantiate(rule.lhs, mapping), instantiate(rule.rhs, mapping), rule.label)


def critical_pairs(trs: Trs) -> list[CriticalPair]:
    """All critical pairs at non-variable lhs positions, by outer rule, inner rule and position.

    The inner rule is renamed apart.  A rule does not overlap with
    itself at the root; for distinct rules the root overlap is kept
    once (inner index < outer index), avoiding mirror duplicates.
    Only the rules that the subterm at a position reaches in its root
    symbol's tree are renamed and unified there.
    """
    trees = trs.rule_trees
    pairs: list[CriticalPair] = []
    for outer_idx, outer in enumerate(trs.rules):
        avoid = var_names(outer.lhs) | var_names(outer.rhs)
        for k, p, sub in sorted(
            (k, p, sub)
            for p, sub in iter_positions(outer.lhs)
            if isinstance(sub, App) and sub.symbol.name in trees
            for k, _ in reach(trees[sub.symbol.name], sub.args, overlap=True)
            if p or k < outer_idx
        ):
            renamed = _rename_apart(trs.rules[k], avoid)
            sigma = unify(sub, renamed.lhs)
            if sigma is None:
                continue
            left = instantiate(replace(outer.lhs, p, renamed.rhs), sigma)
            pairs.append(CriticalPair(left, instantiate(outer.rhs, sigma), p))
    return pairs


def check_confluence(
    trs: Trs, fuel: int = DEFAULT_FUEL
) -> tuple[str, Optional[CriticalPair]]:
    """Confluence verdict: yes-orthogonal, yes-knuth-bendix, no (with a
    critical-pair witness), or unknown.

    Orthogonality covers the almost-orthogonal case (only trivial
    overlays).  The Knuth-Bendix criterion needs attested termination;
    fuel exhaustion during joining downgrades the verdict to unknown.
    """
    ll, _ = check_left_linear(trs)
    cps = critical_pairs(trs)
    if ll and all(cp.position == () and cp.left == cp.right for cp in cps):
        return "yes-orthogonal", None
    if not trs.terminating_attested:
        return "unknown", None
    indeterminate = False
    for cp in cps:
        j = join(cp.left, cp.right, trs, fuel=fuel)[0]
        if j is False:
            return "no", cp
        if j is None:
            indeterminate = True
    if indeterminate:
        return "unknown", None
    return "yes-knuth-bendix", None


def check_completely_defined(trs: Trs) -> tuple[bool, Optional[Term], Optional[str]]:
    """Decide whether every defined symbol covers all constructor-ground
    argument tuples; returns an uncovered instance as witness when not.

    Requires a constructor system.  A defined symbol whose argument
    sort has no ground constructor term cannot be completely defined;
    that case is reported with a reason instead of a term witness.

    A depth-first search splits the matrix of a symbol's lhs argument
    tuples, variables as wildcards, on the constructors of its first
    column in declaration order (Maranget, JFP 2007), so the first
    witness is deterministic.  A lhs that repeats a variable is no row;
    if one matches the witness, coverage is reported undecided.
    """
    cs, cs_witness = check_constructor_system(trs)
    if not cs:
        raise NotAConstructorSystem(f"not a constructor system (rule: {cs_witness})")
    ground_rep = trs.designated_constants
    nonlinear = trs.repeated_variables
    # the constructors that start a ground term, by sort, in declaration order
    starts: dict[Sort, list[FuncSymbol]] = {}
    for c in trs.constructors:
        if all(s in ground_rep for s in c.arg_sorts):
            starts.setdefault(c.result_sort, []).append(c)
    for f in trs.defined:
        if bad := [s for s in f.arg_sorts if s not in ground_rep]:
            return False, None, f"{f.name}: argument sort {bad[0]} has no ground constructor terms"
        rules = trs.rules_by_root.get(f.name, ())
        # frames (column sorts, rows, path); the path holds the splits
        # taken, innermost first as nested pairs (split, path): a sort
        # whose ground term goes in front, or a constructor over its
        # first arguments
        stack = [(f.arg_sorts, [r.lhs.args for _, r in rules if r not in nonlinear], ())]
        while stack:
            sorts, rows, path = stack.pop()
            if not rows:
                break
            # a row of wildcards matches everything left (with no
            # columns left, every row is one)
            if any(all(isinstance(p, Var) for p in row) for row in rows):
                continue
            if all(isinstance(row[0], Var) for row in rows):
                # the column cannot discriminate, and splitting a
                # recursive constructor here would never bottom out
                stack.append((sorts[1:], [row[1:] for row in rows], (sorts[0], path)))
                continue
            # pushed in reverse, so that they pop in declaration order
            for c in reversed(starts.get(sorts[0], [])):
                wildcards = tuple(Var("_", s) for s in c.arg_sorts)
                stack.append((c.arg_sorts + sorts[1:], [
                    (wildcards if isinstance(row[0], Var) else row[0].args) + row[1:]
                    for row in rows if isinstance(row[0], Var) or row[0].symbol == c
                ], (c, path)))
        else:
            continue  # every frame is covered
        found = [ground_rep[s] for s in sorts]
        while path:
            split, path = path
            if isinstance(split, FuncSymbol):
                found[:split.arity] = [App(split, tuple(found[:split.arity]))]
            else:
                found.insert(0, ground_rep[split])
        witness = App(f, tuple(found))
        # only a rule that is not left-linear can match it
        if rules and (stuck := _match_at(witness, trs.rule_trees[f.name])):
            return False, None, f"{f.name}: coverage not decided, as rule {stuck[0]} is not left-linear"
        return False, witness, f"{f.name} is not reducible on {witness}"
    return True, None, None


def build_property_report(trs: Trs, fuel: int = DEFAULT_FUEL) -> PropertyReport:
    ll, ll_witness = check_left_linear(trs)
    cs, cs_witness = check_constructor_system(trs)
    if cs:
        cd, cd_witness, cd_reason = check_completely_defined(trs)
    else:
        cd, cd_witness, cd_reason = False, None, "not a constructor system"
    confluent, confluence_witness = check_confluence(trs, fuel=fuel)
    # seval-defined: completely defined and attested terminating; the
    # reason names the first failing conjunct
    if not trs.terminating_attested:
        seval_reason: Optional[str] = "termination not attested"
    elif not cs:
        seval_reason = f"not a constructor system (rule: {cs_witness})"
    elif not cd:
        detail = f"witness {cd_witness}" if cd_witness is not None else cd_reason
        seval_reason = f"not completely defined ({detail})"
    else:
        seval_reason = None
    failed: dict[str, str] = {}
    if not ll:
        rule, name = ll_witness
        failed["left-linear"] = f"variable {name} repeats in {rule}"
    if not cs:
        failed["constructor-system"] = f"rule: {cs_witness}"
    if not confluent.startswith("yes"):
        failed["confluent"] = confluent + (
            f" (critical pair {confluence_witness})" if confluence_witness else ""
        )
    if seval_reason is not None:
        failed["seval-defined"] = seval_reason
    return PropertyReport(
        left_linear=ll,
        constructor_system=cs,
        completely_defined=cd,
        cd_witness=cd_witness,
        cd_reason=cd_reason,
        confluent=confluent,
        confluence_witness=confluence_witness,
        seval_defined=seval_reason is None,
        seval_reason=seval_reason,
        failed_gates=failed,
    )


# ---------------------------------------------------------------------------
# Ground terms of least depth

def _least_depth_terms(symbols: tuple[FuncSymbol, ...]) -> dict[Sort, tuple[int, Term]]:
    """Per inhabited sort, the least depth of a ground term over the
    symbols, and the first term of that depth the fixpoint builds.

    Each pass visits the symbols in declaration order and uses the
    terms known at that point of the pass.  A sort takes a new term
    only when it is strictly shallower than the one it has, so the
    first term found at the least depth stays.
    """
    least: dict[Sort, tuple[int, Term]] = {}
    changed = True
    while changed:
        changed = False
        for f in symbols:
            if all(s in least for s in f.arg_sorts):
                d = 1 + max((least[s][0] for s in f.arg_sorts), default=0)
                if f.result_sort not in least or d < least[f.result_sort][0]:
                    args = tuple(least[s][1] for s in f.arg_sorts)
                    least[f.result_sort] = (d, App(f, args))
                    changed = True
    return least


# ---------------------------------------------------------------------------
# Alpha-equivalence of rules (used by compression and the bench runner)

def canonical_rule(rule: Rule) -> tuple[str, str]:
    """A renaming-invariant key: variables numbered by first occurrence
    in (lhs, rhs) preorder, as ?1, ?2, ..., which no symbol's name can
    read as."""
    numbering: dict[str, str] = {}

    def canon(t: Term) -> str:
        return fold(
            t,
            lambda v: numbering.setdefault(v.name, f"?{len(numbering) + 1}"),
            lambda u, args: f"{u.symbol.name}({','.join(args)})" if args else u.symbol.name,
        )

    return canon(rule.lhs), canon(rule.rhs)


def rules_alpha_equal(a: Iterable[Rule], b: Iterable[Rule]) -> bool:
    """Order-insensitive multiset comparison of rules up to renaming."""
    return Counter(map(canonical_rule, a)) == Counter(map(canonical_rule, b))

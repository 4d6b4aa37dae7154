"""TRS model, the .trs file format, and structural property checks.

A system is a many-sorted signature (constructors and defined symbols),
an ordered list of rewrite rules, and a set of attestations.  Property
checks gate the detection methods: left-linearity, constructor-system,
complete definedness, confluence, and Seval-definedness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import (
    NoGroundConstant,
    NotAConstructorSystem,
    ParseError,
    WellFormednessError,
)
from .rewrite import DEFAULT_FUEL, joinable
from .terms import (
    App,
    FuncSymbol,
    Position,
    Sort,
    Term,
    Var,
    format_term,
    is_linear,
    iter_positions,
    positions,
    replace,
    sort_of,
    subterm,
    unify,
    var_names,
    vars_of,
)


@dataclass(frozen=True)
class Rule:
    lhs: Term
    rhs: Term
    label: str = ""

    def __str__(self) -> str:
        return f"{format_term(self.lhs)} -> {format_term(self.rhs)}"

    def __repr__(self) -> str:
        return str(self)


@dataclass(frozen=True)
class Trs:
    sorts: tuple[Sort, ...]
    symbols: tuple[FuncSymbol, ...]
    rules: tuple[Rule, ...]
    attestations: frozenset[str] = frozenset()

    @property
    def symbol_map(self) -> dict[str, FuncSymbol]:
        return {f.name: f for f in self.symbols}

    @property
    def constructors(self) -> tuple[FuncSymbol, ...]:
        return tuple(f for f in self.symbols if f.kind == "constructor")

    @property
    def defined(self) -> tuple[FuncSymbol, ...]:
        return tuple(f for f in self.symbols if f.kind == "defined")

    @property
    def terminating_attested(self) -> bool:
        return "terminating" in self.attestations

    def rules_for(self, f: FuncSymbol | str) -> tuple[Rule, ...]:
        name = f if isinstance(f, str) else f.name
        return tuple(
            r
            for r in self.rules
            if isinstance(r.lhs, App) and r.lhs.symbol.name == name
        )

    def rule_index(self, rule: Rule) -> int:
        return self.rules.index(rule)


@dataclass(frozen=True)
class CriticalPair:
    left: Term
    right: Term
    overlay: bool
    trivial: bool
    outer_rule: Rule
    inner_rule: Rule
    position: Position

    def __str__(self) -> str:
        return f"<{format_term(self.left)}, {format_term(self.right)}>"


@dataclass(frozen=True)
class PropertyReport:
    left_linear: bool
    ll_witness: Optional[tuple[Rule, str]]
    constructor_system: bool
    cs_witness: Optional[Rule]
    completely_defined: bool
    cd_witness: Optional[Term]
    cd_reason: Optional[str]
    confluent: str  # yes-orthogonal | yes-knuth-bendix | no | unknown
    confluence_witness: Optional[CriticalPair]
    seval_defined: bool
    seval_reason: Optional[str]
    terminating_attested: bool


# ---------------------------------------------------------------------------
# Parsing

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_']*|\(|\)|,)")


@dataclass
class _TermNode:
    """Raw syntax tree before symbol resolution."""

    name: str
    args: list["_TermNode"]
    call: bool  # written with parentheses


def _tokenize_term(text: str, line: int) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r} in term", line)
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _parse_term_node(tokens: list[str], line: int) -> _TermNode:
    def parse(idx: int) -> tuple[_TermNode, int]:
        if idx >= len(tokens):
            raise ParseError("unexpected end of term", line)
        name = tokens[idx]
        if not _IDENT.fullmatch(name):
            raise ParseError(f"expected identifier, got {name!r}", line)
        idx += 1
        if idx < len(tokens) and tokens[idx] == "(":
            idx += 1
            args: list[_TermNode] = []
            if idx < len(tokens) and tokens[idx] == ")":
                return _TermNode(name, args, True), idx + 1
            while True:
                node, idx = parse(idx)
                args.append(node)
                if idx >= len(tokens):
                    raise ParseError("unclosed parenthesis in term", line)
                if tokens[idx] == ",":
                    idx += 1
                    continue
                if tokens[idx] == ")":
                    return _TermNode(name, args, True), idx + 1
                raise ParseError(f"expected ',' or ')', got {tokens[idx]!r}", line)
        return _TermNode(name, [], False), idx

    node, idx = parse(0)
    if idx != len(tokens):
        raise ParseError(f"trailing tokens after term: {tokens[idx]!r}", line)
    return node


def _resolve_node(
    node: _TermNode,
    expected: Optional[Sort],
    symbols: dict[str, FuncSymbol],
    var_sorts: dict[str, Sort],
    line: int,
) -> Term:
    sym = symbols.get(node.name)
    if sym is not None:
        if len(node.args) != sym.arity:
            raise WellFormednessError(
                f"line {line}: {sym.name} expects {sym.arity} arguments, "
                f"got {len(node.args)}"
            )
        if expected is not None and sym.result_sort != expected:
            raise WellFormednessError(
                f"line {line}: {sym.name} has sort {sym.result_sort}, "
                f"expected {expected}"
            )
        args = tuple(
            _resolve_node(a, s, symbols, var_sorts, line)
            for a, s in zip(node.args, sym.arg_sorts)
        )
        return App(sym, args)
    # undeclared identifier: a variable
    if node.args or node.call:
        raise WellFormednessError(
            f"line {line}: undeclared symbol {node.name} used with arguments"
        )
    if expected is None:
        known = var_sorts.get(node.name)
        if known is None:
            raise WellFormednessError(
                f"line {line}: cannot infer sort of variable {node.name}"
            )
        expected = known
    prev = var_sorts.get(node.name)
    if prev is None:
        var_sorts[node.name] = expected
    elif prev != expected:
        raise WellFormednessError(
            f"line {line}: variable {node.name} used at sorts {prev} and {expected}"
        )
    return Var(node.name, expected)


def parse_term(text: str, trs: "Trs | dict[str, FuncSymbol]", sort: Optional[Sort] = None) -> Term:
    """Parse a term string in a system's signature.

    Undeclared identifiers become variables; their sorts must be
    inferable from their positions.
    """
    symbols = trs if isinstance(trs, dict) else trs.symbol_map
    node = _parse_term_node(_tokenize_term(text, 0), 0)
    return _resolve_node(node, sort, symbols, {}, 0)


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
    attestations: set[str] = set()
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
            attestations.add("terminating")
        elif keyword == "rule":
            if "->" not in rest:
                raise ParseError("rule needs '->'", lineno)
            lhs_text, rhs_text = rest.split("->", 1)
            rule_texts.append((lhs_text.strip(), rhs_text.strip(), lineno))
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)

    sort_set = set(sorts)
    symbols: dict[str, FuncSymbol] = {}
    order: list[str] = []
    fun_names: set[str] = set()
    for keyword, name, arg_sorts, result_sort, lineno in decls:
        for s in arg_sorts + (result_sort,):
            if s not in sort_set:
                raise WellFormednessError(f"line {lineno}: undeclared sort {s}")
        if name in symbols:
            raise WellFormednessError(f"line {lineno}: duplicate symbol {name}")
        kind = "constructor" if keyword == "cons" else "defined"
        symbols[name] = FuncSymbol(name, arg_sorts, result_sort, kind)
        order.append(name)
        if keyword == "fun":
            fun_names.add(name)

    rules: list[Rule] = []
    for idx, (lhs_text, rhs_text, lineno) in enumerate(rule_texts, start=1):
        var_sorts: dict[str, Sort] = {}
        lhs_node = _parse_term_node(_tokenize_term(lhs_text, lineno), lineno)
        root = symbols.get(lhs_node.name)
        if root is None:
            raise WellFormednessError(
                f"line {lineno}: rule left-hand side is a variable"
            )
        lhs = _resolve_node(lhs_node, root.result_sort, symbols, var_sorts, lineno)
        rhs_node = _parse_term_node(_tokenize_term(rhs_text, lineno), lineno)
        rhs = _resolve_node(rhs_node, root.result_sort, symbols, var_sorts, lineno)
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
        symbols=tuple(symbols[n] for n in order),
        rules=tuple(rules),
        attestations=frozenset(attestations),
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
    for a in sorted(trs.attestations):
        lines.append(f"pragma {a}")
    for r in trs.rules:
        lines.append(f"rule {format_term(r.lhs)} -> {format_term(r.rhs)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structural checks

def check_left_linear(trs: Trs) -> tuple[bool, Optional[tuple[Rule, str]]]:
    """True iff every lhs is linear; otherwise the offending rule and the
    repeated variable."""
    for rule in trs.rules:
        seen: set[str] = set()
        stack = [rule.lhs]
        while stack:
            t = stack.pop()
            if isinstance(t, Var):
                if t.name in seen:
                    return False, (rule, t.name)
                seen.add(t.name)
            else:
                stack.extend(t.args)
    return True, None


def _is_constructor_term(t: Term) -> bool:
    if isinstance(t, Var):
        return True
    return t.symbol.kind == "constructor" and all(
        _is_constructor_term(a) for a in t.args
    )


def check_constructor_system(trs: Trs) -> tuple[bool, Optional[Rule]]:
    """True iff every lhs is f(l1..ln) with f defined and all li
    constructor terms."""
    for rule in trs.rules:
        lhs = rule.lhs
        if not isinstance(lhs, App) or lhs.symbol.kind != "defined":
            return False, rule
        if not all(_is_constructor_term(a) for a in lhs.args):
            return False, rule
    return True, None


def _rename_apart(rule: Rule, avoid: set[str]) -> Rule:
    """Prime-rename the rule's variables that clash with `avoid`."""
    own = var_names(rule.lhs) | var_names(rule.rhs)
    mapping: dict[str, Term] = {}
    taken = set(avoid) | own
    for v in sorted(vars_of(rule.lhs) | vars_of(rule.rhs), key=lambda v: v.name):
        if v.name not in avoid:
            continue
        fresh = v.name
        while fresh in taken:
            fresh += "'"
        taken.add(fresh)
        mapping[v.name] = Var(fresh, v.sort)
    if not mapping:
        return rule
    from .terms import Substitution

    ren = Substitution(mapping)
    return Rule(ren.apply(rule.lhs), ren.apply(rule.rhs), rule.label)


def critical_pairs(trs: Trs) -> list[CriticalPair]:
    """All critical pairs from overlaps at non-variable lhs positions.

    The inner rule is renamed apart.  A rule does not overlap with
    itself at the root; for distinct rules the root overlap is kept
    once (inner index < outer index), avoiding mirror duplicates.
    """
    pairs: list[CriticalPair] = []
    for outer_idx, outer in enumerate(trs.rules):
        outer_vars = var_names(outer.lhs) | var_names(outer.rhs)
        for inner_idx, inner in enumerate(trs.rules):
            renamed = _rename_apart(inner, outer_vars)
            for p in sorted(iter_positions(outer.lhs)):
                sub = subterm(outer.lhs, p)
                if isinstance(sub, Var):
                    continue
                if p == ():
                    if inner_idx >= outer_idx:
                        continue
                sigma = unify(sub, renamed.lhs)
                if sigma is None:
                    continue
                left = sigma.apply(replace(outer.lhs, p, renamed.rhs))
                right = sigma.apply(outer.rhs)
                pairs.append(
                    CriticalPair(
                        left=left,
                        right=right,
                        overlay=(p == ()),
                        trivial=(left == right),
                        outer_rule=outer,
                        inner_rule=inner,
                        position=p,
                    )
                )
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
    if ll and all(cp.overlay and cp.trivial for cp in cps):
        return "yes-orthogonal", None
    if not trs.terminating_attested:
        return "unknown", None
    indeterminate = False
    for cp in cps:
        j = joinable(cp.left, cp.right, trs, fuel=fuel)
        if j is False:
            return "no", cp
        if j is None:
            indeterminate = True
    if indeterminate:
        return "unknown", None
    return "yes-knuth-bendix", None


def _realizable_sorts(trs: Trs) -> set[Sort]:
    """Sorts with at least one ground constructor term."""
    realizable: set[Sort] = set()
    changed = True
    while changed:
        changed = False
        for f in trs.constructors:
            if f.result_sort in realizable:
                continue
            if all(s in realizable for s in f.arg_sorts):
                realizable.add(f.result_sort)
                changed = True
    return realizable


def _find_uncovered(
    arg_sorts: list[Sort],
    rows: list[tuple[Term, ...]],
    constructors_by_sort: dict[Sort, list[FuncSymbol]],
    ground_rep: dict[Sort, Term],
) -> Optional[list[Term]]:
    """A constructor-term argument vector matched by no row, or None.

    Rows are the lhs argument tuples of one defined symbol; variables
    act as wildcards.  Case-splits on the first column's constructors
    in declaration order, so the first witness is deterministic.
    ground_rep supplies a ground term per realizable sort for witness
    slots no row constrains.
    """
    if any(all(isinstance(p, Var) for p in row) for row in rows):
        return None
    if not rows:
        return [ground_rep[s] for s in arg_sorts]
    if not arg_sorts:
        # no columns left and no all-wildcard row: nothing matches
        return []
    sort = arg_sorts[0]
    if all(isinstance(row[0], Var) for row in rows):
        # the whole column is wildcards: it cannot discriminate, and
        # splitting a recursive constructor here would never bottom out
        rec = _find_uncovered(
            arg_sorts[1:], [row[1:] for row in rows], constructors_by_sort, ground_rep
        )
        if rec is None:
            return None
        return [ground_rep[sort]] + rec
    for c in constructors_by_sort.get(sort, []):
        if any(s not in ground_rep for s in c.arg_sorts):
            # no ground instance can start with this constructor
            continue
        specialized: list[tuple[Term, ...]] = []
        for row in rows:
            p = row[0]
            if isinstance(p, Var):
                wild = tuple(Var("_", s) for s in c.arg_sorts)
                specialized.append(wild + row[1:])
            elif p.symbol == c:
                specialized.append(p.args + row[1:])
        rec = _find_uncovered(
            list(c.arg_sorts) + arg_sorts[1:],
            specialized,
            constructors_by_sort,
            ground_rep,
        )
        if rec is not None:
            k = c.arity
            return [App(c, tuple(rec[:k]))] + rec[k:]
    return None


def check_completely_defined(
    trs: Trs,
) -> tuple[bool, Optional[Term], Optional[str]]:
    """Decide whether every defined symbol covers all constructor-ground
    argument tuples; returns an uncovered instance as witness when not.

    Requires a constructor system.  A defined symbol whose argument
    sort has no ground constructor term cannot be completely defined;
    that case is reported with a reason instead of a term witness.
    """
    cs, cs_witness = check_constructor_system(trs)
    if not cs:
        raise NotAConstructorSystem(
            f"not a constructor system (rule: {cs_witness})"
        )
    realizable = _realizable_sorts(trs)
    ground_rep = designated_constants(trs)
    constructors_by_sort: dict[Sort, list[FuncSymbol]] = {}
    for c in trs.constructors:
        constructors_by_sort.setdefault(c.result_sort, []).append(c)
    for f in trs.defined:
        bad = [s for s in f.arg_sorts if s not in realizable]
        if bad:
            return False, None, (
                f"{f.name}: argument sort {bad[0]} has no ground constructor terms"
            )
        rows = [
            r.lhs.args
            for r in trs.rules_for(f)
            if isinstance(r.lhs, App)
        ]
        witness_args = _find_uncovered(
            list(f.arg_sorts), rows, constructors_by_sort, ground_rep
        )
        if witness_args is not None:
            witness = App(f, tuple(witness_args))
            return False, witness, f"{f.name} is not reducible on {witness}"
    return True, None, None


def check_seval_defined(trs: Trs) -> tuple[bool, Optional[str]]:
    """True iff the system is completely defined and attested
    terminating; otherwise the failing conjunct is named."""
    if not trs.terminating_attested:
        return False, "termination not attested"
    try:
        cd, witness, reason = check_completely_defined(trs)
    except NotAConstructorSystem as exc:
        return False, str(exc)
    if not cd:
        detail = f" (witness {witness})" if witness is not None else f" ({reason})"
        return False, "not completely defined" + detail
    return True, None


def build_property_report(trs: Trs, fuel: int = DEFAULT_FUEL) -> PropertyReport:
    ll, ll_witness = check_left_linear(trs)
    cs, cs_witness = check_constructor_system(trs)
    if cs:
        cd, cd_witness, cd_reason = check_completely_defined(trs)
    else:
        cd, cd_witness, cd_reason = False, None, "not a constructor system"
    confluent, confluence_witness = check_confluence(trs, fuel=fuel)
    seval, seval_reason = check_seval_defined(trs)
    return PropertyReport(
        left_linear=ll,
        ll_witness=ll_witness,
        constructor_system=cs,
        cs_witness=cs_witness,
        completely_defined=cd,
        cd_witness=cd_witness,
        cd_reason=cd_reason,
        confluent=confluent,
        confluence_witness=confluence_witness,
        seval_defined=seval,
        seval_reason=seval_reason,
        terminating_attested=trs.terminating_attested,
    )


# ---------------------------------------------------------------------------
# Designated per-sort constants

def designated_constant(trs: Trs, sort: Sort) -> Term:
    """The canonical ground constructor term of a sort.

    The first declared nullary constructor wins; otherwise the
    smallest ground constructor term by (depth, declaration order).
    """
    for c in trs.constructors:
        if c.result_sort == sort and c.arity == 0:
            return App(c, ())
    # minimal-depth ground term per sort, built by fixpoint
    depth: dict[Sort, int] = {}
    best: dict[Sort, Term] = {}
    changed = True
    while changed:
        changed = False
        for c in trs.constructors:
            if all(s in depth for s in c.arg_sorts):
                d = 1 + max((depth[s] for s in c.arg_sorts), default=0)
                if c.result_sort not in depth or d < depth[c.result_sort]:
                    depth[c.result_sort] = d
                    best[c.result_sort] = App(
                        c, tuple(best[s] for s in c.arg_sorts)
                    )
                    changed = True
    if sort not in best:
        raise NoGroundConstant(sort)
    return best[sort]


def designated_constants(trs: Trs) -> dict[Sort, Term]:
    """Designated constants for every realizable sort of the system."""
    out: dict[Sort, Term] = {}
    for s in trs.sorts:
        try:
            out[s] = designated_constant(trs, s)
        except NoGroundConstant:
            continue
    return out


# ---------------------------------------------------------------------------
# Alpha-equivalence of rules (used by compression and the bench runner)

def canonical_rule(rule: Rule) -> tuple[str, str]:
    """A renaming-invariant key: variables numbered by first occurrence
    in (lhs, rhs) preorder."""
    numbering: dict[str, str] = {}

    def canon(t: Term) -> str:
        if isinstance(t, Var):
            name = numbering.setdefault(t.name, f"v{len(numbering) + 1}")
            return name
        if not t.args:
            return t.symbol.name
        return f"{t.symbol.name}({','.join(canon(a) for a in t.args)})"

    return canon(rule.lhs), canon(rule.rhs)


def rules_alpha_equal(a: Iterable[Rule], b: Iterable[Rule]) -> bool:
    """Order-insensitive multiset comparison of rules up to renaming."""
    from collections import Counter

    return Counter(map(canonical_rule, a)) == Counter(map(canonical_rule, b))

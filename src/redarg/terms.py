"""Immutable many-sorted first-order terms.

Terms are either variables or applications of a function symbol.  The
module also provides positions (1-based integer paths into the term
tree), substitutions, matching, and syntactic unification with occurs
check.  Everything here is a pure value; all other modules build on
this algebra.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, TypeVar, Union

from .errors import ArityMismatch, PositionOutOfRange, SortMismatch

Sort = str

Position = tuple[int, ...]


@dataclass(frozen=True)
class FuncSymbol:
    """A declared function symbol: name, argument sorts, result sort, and
    whether it is a constructor or a defined symbol."""

    name: str
    arg_sorts: tuple[Sort, ...]
    result_sort: Sort
    kind: str  # "constructor" | "defined"
    # cached: every App construction hashes its symbol
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.name, self.arg_sorts, self.result_sort, self.kind))
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Var:
    name: str
    sort: Sort

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return self.name


class _Entry(weakref.ref):
    """A weak reference to an interned node that carries the node's key,
    so the node's entry can be dropped from the table when it dies."""

    __slots__ = ("key",)


# (symbol, args) -> the one live App with that symbol and those args
_interned: dict[tuple, _Entry] = {}


def _drop(entry: _Entry) -> None:
    """Drop a dead node's entry, unless a newer node has taken its key."""
    found = _interned.pop(entry.key, None)
    if found is not None and found is not entry:
        _interned[entry.key] = found


class App:
    """An application of a function symbol; hash-consed.

    App(symbol, args) returns the one live node with that symbol and
    those arguments, so structural equality is identity: a node compares
    and hashes as object does, and neither walks a term.  Arity and sorts are checked once, when a node
    is first built.  Nodes are immutable and weakly interned: a node
    nothing else refers to is dropped from the table.
    """

    __slots__ = ("symbol", "args", "__weakref__")

    symbol: FuncSymbol
    args: tuple["Term", ...]

    def __new__(cls, symbol: FuncSymbol, args: tuple["Term", ...] = ()) -> "App":
        key = (symbol, args)
        entry = _interned.get(key)
        if entry is not None:
            node = entry()
            if node is not None:
                return node
        node = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(node, "symbol", symbol)
        setattr_(node, "args", args)
        node.__post_init__()
        entry = _Entry(node, _drop)
        entry.key = key
        _interned[key] = entry
        return node

    def __post_init__(self) -> None:
        """Check arity and sorts; runs once, when the node is first built."""
        if len(self.args) != self.symbol.arity:
            raise ArityMismatch(
                f"{self.symbol.name} expects {self.symbol.arity} arguments, "
                f"got {len(self.args)}"
            )
        for got, want in zip(self.args, self.symbol.arg_sorts):
            if got.sort != want:
                raise SortMismatch(
                    f"argument of {self.symbol.name} has sort {got.sort}, "
                    f"expected {want}"
                )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"App is immutable; cannot set {name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"App is immutable; cannot delete {name}")

    # copy.copy and unpickling rebuild through App(...), which finds the
    # node itself; a deep copy would walk the term, so it is the node too
    def __reduce__(self):
        return App, (self.symbol, self.args)

    def __deepcopy__(self, memo: dict) -> "App":
        return self

    @property
    def sort(self) -> Sort:
        return self.symbol.result_sort

    def __str__(self) -> str:
        return format_term(self)

    def __repr__(self) -> str:
        return format_term(self)


Term = Union[Var, App]


T = TypeVar("T")


def fold(t: Term, var: Callable[[Var], T], app: Callable[[App, tuple], T]) -> T:
    """Fold t bottom-up: var on each variable occurrence, and app on each
    application with its folded arguments, left to right.  Iterative,
    so that a term of any depth folds."""
    done: list = []
    stack: list = [t]
    while stack:
        u = stack.pop()
        if u is None:  # the arguments of the node below it are folded
            u = stack.pop()
            n = len(u.args)
            args = tuple(done[-n:])
            del done[-n:]
            done.append(app(u, args))
        elif isinstance(u, Var):
            done.append(var(u))
        elif not u.args:
            done.append(app(u, ()))
        else:
            stack += (u, None, *reversed(u.args))
    return done[0]


def format_term(t: Term) -> str:
    """Render a term: nullary applications bare, otherwise f(a, b).

    Iterative, so that a term of any depth renders.
    """
    parts: list[str] = []
    stack: list[Term | str] = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            parts.append(u)
        elif isinstance(u, Var):
            parts.append(u.name)
        elif not u.args:
            parts.append(u.symbol.name)
        else:
            parts.append(u.symbol.name + "(")
            stack.append(")")
            for k in range(len(u.args) - 1, -1, -1):
                stack.append(u.args[k])
                if k:
                    stack.append(", ")
    return "".join(parts)


def format_position(p: Position) -> str:
    """Positions serialize dot-joined, the root as "e"."""
    return "e" if not p else ".".join(str(i) for i in p)


def iter_positions(t: Term, prefix: Position = ()) -> Iterator[Position]:
    """All tree addresses of t in preorder, root first; iterative."""
    stack = [(t, prefix)]
    while stack:
        u, p = stack.pop()
        yield p
        if isinstance(u, App):
            stack.extend((u.args[k - 1], p + (k,)) for k in range(len(u.args), 0, -1))


def subterm(t: Term, p: Position) -> Term:
    for i in p:
        if not isinstance(t, App) or not 1 <= i <= len(t.args):
            raise PositionOutOfRange(f"position {format_position(p)} not in term")
        t = t.args[i - 1]
    return t


def replace(t: Term, p: Position, s: Term) -> Term:
    """The term t with the subtree at p replaced by s (t[s]_p)."""
    path: list[App] = []
    for k, i in enumerate(p):
        if not isinstance(t, App) or not 1 <= i <= len(t.args):
            raise PositionOutOfRange(f"position {format_position(p[k:])} not in term")
        path.append(t)
        t = t.args[i - 1]
    if s.sort != t.sort:
        raise SortMismatch(f"cannot replace sort {t.sort} subterm with sort {s.sort}")
    for u, i in zip(reversed(path), reversed(p)):
        s = App(u.symbol, u.args[: i - 1] + (s,) + u.args[i:])
    return s


def vars_of(t: Term) -> set[Var]:
    """The set of variables occurring in t."""
    out: set[Var] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            out.add(u)
        else:
            stack.extend(u.args)
    return out


def var_names(t: Term) -> set[str]:
    return {v.name for v in vars_of(t)}


def repeated_variable(t: Term) -> Optional[str]:
    """The name of a variable that occurs twice in t (the first such
    occurrence the walk meets), or None when t is linear."""
    seen: set[str] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            if u.name in seen:
                return u.name
            seen.add(u.name)
        else:
            stack.extend(u.args)
    return None


def is_ground(t: Term) -> bool:
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            return False
        stack.extend(u.args)
    return True


class Substitution:
    """A finite, sort-preserving map from variable names to terms.

    Application is homomorphic; sorts are checked when a variable is
    actually replaced.
    """

    __slots__ = ("_map",)

    def __init__(self, bindings: Mapping[str, Term] | None = None) -> None:
        self._map: dict[str, Term] = dict(bindings or {})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, name: str) -> bool:
        return name in self._map

    def get(self, name: str) -> Optional[Term]:
        return self._map.get(name)

    def items(self) -> list[tuple[str, Term]]:
        return sorted(self._map.items())

    def extended(self, extra: Mapping[str, Term]) -> "Substitution":
        """A copy with `extra` bindings added, overriding on collision."""
        merged = dict(self._map)
        merged.update(extra)
        return Substitution(merged)

    def apply(self, t: Term) -> Term:
        """The instance of t.  Iterative and bottom-up like fold, but with
        no callback per node: this is the hottest walk of the oracle."""
        bindings = self._map
        if not bindings:
            return t
        done: list[Term] = []
        stack: list = [t]
        while stack:
            u = stack.pop()
            if u is None:  # the arguments of the node below it are done
                u = stack.pop()
                n = len(u.args)
                args = tuple(done[-n:])
                del done[-n:]
                done.append(u if args == u.args else App(u.symbol, args))
            elif u.__class__ is Var:
                rep = bindings.get(u.name)
                if rep is None:
                    done.append(u)
                elif rep.sort != u.sort:
                    raise SortMismatch(
                        f"binding for {u.name} has sort {rep.sort}, expected {u.sort}"
                    )
                else:
                    done.append(rep)
            elif u.args:
                stack += (u, None, *reversed(u.args))
            else:
                done.append(u)
        return done[0]

    def __repr__(self) -> str:
        inner = ", ".join(f"{n} -> {format_term(t)}" for n, t in self.items())
        return "{" + inner + "}"


def _var_key(name: str) -> tuple[str, int]:
    """Order key for the canonical mgu orientation.

    A primed copy of a name orders before the plain name, so renamed
    rule variables become representatives and reported unifiers read
    as {plain -> primed}.  Otherwise plain lexicographic.
    """
    base = name.rstrip("'")
    return (base, -(len(name) - len(base)))


def match(pattern: Term, t: Term) -> Optional[Substitution]:
    """The substitution s with s(pattern) = t, or None.

    Nonlinear patterns require all occurrences of a variable to bind
    syntactically equal terms.
    """
    bindings: dict[str, Term] = {}
    stack = [(pattern, t)]
    while stack:
        p, u = stack.pop()
        if isinstance(p, Var):
            if p.sort != u.sort:
                return None
            prev = bindings.get(p.name)
            if prev is None:
                bindings[p.name] = u
            elif prev != u:
                return None
        else:
            if not isinstance(u, App) or (
                u.symbol is not p.symbol and u.symbol != p.symbol
            ):
                return None
            stack.extend(zip(p.args, u.args))
    return Substitution(bindings)


def _walk(t: Term, bindings: dict[str, Term]) -> Term:
    while isinstance(t, Var) and t.name in bindings:
        t = bindings[t.name]
    return t


def _occurs(name: str, t: Term, bindings: dict[str, Term]) -> bool:
    stack = [t]
    while stack:
        u = _walk(stack.pop(), bindings)
        if isinstance(u, Var):
            if u.name == name:
                return True
        else:
            stack.extend(u.args)
    return False


def _resolve(t: Term, bindings: dict[str, Term]) -> Term:
    def var(v: Var) -> Term:
        u = _walk(v, bindings)
        return u if isinstance(u, Var) else _resolve(u, bindings)

    return fold(t, var, lambda u, args: App(u.symbol, args))


def _unify_pairs(pairs: list[tuple[Term, Term]]) -> Optional[Substitution]:
    bindings: dict[str, Term] = {}
    stack = list(pairs)
    while stack:
        a, b = stack.pop()
        a = _walk(a, bindings)
        b = _walk(b, bindings)
        if a == b:
            continue
        if isinstance(a, Var) and isinstance(b, Var):
            if a.sort != b.sort:
                return None
            # bind the larger variable to the smaller one
            if _var_key(a.name) > _var_key(b.name):
                bindings[a.name] = b
            else:
                bindings[b.name] = a
        elif isinstance(a, Var):
            if a.sort != b.sort or _occurs(a.name, b, bindings):
                return None
            bindings[a.name] = b
        elif isinstance(b, Var):
            if b.sort != a.sort or _occurs(b.name, a, bindings):
                return None
            bindings[b.name] = a
        else:
            if a.symbol != b.symbol:
                return None
            stack.extend(zip(a.args, b.args))
    return Substitution({n: _resolve(t, bindings) for n, t in bindings.items()})


def unify(t: Term, s: Term) -> Optional[Substitution]:
    """An idempotent most general unifier of t and s, or None.

    Uses the occurs check.  Variable-variable ties are oriented
    canonically (see _var_key) so analysis output is reproducible.
    """
    return _unify_pairs([(t, s)])


def unify_up_to_arg(t: Term, s: Term, i: int) -> Optional[Substitution]:
    """Unify two applications of the same symbol with their i-th
    arguments deleted.

    The callers rename the inputs apart; an empty remaining tuple
    unifies with the identity substitution.
    """
    if not (isinstance(t, App) and isinstance(s, App)) or t.symbol != s.symbol:
        raise ArityMismatch("unify_up_to_arg needs two applications of one symbol")
    if not 1 <= i <= t.symbol.arity:
        raise ArityMismatch(f"index {i} out of range for {t.symbol.name}")
    pairs = [
        (a, b)
        for k, (a, b) in enumerate(zip(t.args, s.args), start=1)
        if k != i
    ]
    return _unify_pairs(pairs)

"""A gauge of how fast the host runs Python at the moment.

The gauge is a fixed piece of pure-Python term rewriting that shares no
code with redarg: Peano multiplication normalized innermost, on frozen
dataclass terms with cached hashes, dict substitutions and recursive
matching.  It does the same kinds of work as redarg (allocation, hashing,
attribute access and calls), so a busy or slow host slows the two alike,
while a change to redarg leaves it as it is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass(frozen=True, eq=False)
class _T:
    f: str
    args: tuple = ()
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.f, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (self._hash == other._hash and self.f == other.f
                                 and self.args == other.args)


def _nat(k: int) -> _T:
    t = _T("Z")
    for _ in range(k):
        t = _T("S", (t,))
    return t


def _match(pattern, term: _T, sigma: dict) -> bool:
    if isinstance(pattern, str):
        bound = sigma.setdefault(pattern, term)
        return bound == term
    return (pattern.f == term.f and len(pattern.args) == len(term.args)
            and all(_match(p, t, sigma) for p, t in zip(pattern.args, term.args)))


def _apply(rhs, sigma: dict) -> _T:
    if isinstance(rhs, str):
        return sigma[rhs]
    return _T(rhs.f, tuple(_apply(a, sigma) for a in rhs.args))


_RULES = [
    (_T("add", (_T("Z"), "y")), "y"),
    (_T("add", (_T("S", ("x",)), "y")), _T("S", (_T("add", ("x", "y")),))),
    (_T("mul", (_T("Z"), "y")), _T("Z")),
    (_T("mul", (_T("S", ("x",)), "y")), _T("add", ("y", _T("mul", ("x", "y"))))),
]


def _normalize(t: _T, seen: set) -> _T:
    t = _T(t.f, tuple(_normalize(a, seen) for a in t.args))
    seen.add(t)
    for lhs, rhs in _RULES:
        sigma: dict = {}
        if _match(lhs, t, sigma):
            return _normalize(_apply(rhs, sigma), seen)
    return t


_GOAL = _T("mul", (_nat(5), _nat(7)))
_VALUE = _nat(35)


def gauge_seconds() -> float:
    """Seconds the fixed rewriting work takes now (about 5 ms)."""
    t0 = time.perf_counter()
    value = _normalize(_GOAL, set())
    seconds = time.perf_counter() - t0
    if value != _VALUE:
        raise AssertionError("calibration work computed a wrong value")
    return seconds

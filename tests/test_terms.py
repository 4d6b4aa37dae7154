"""Term algebra: positions, substitution, matching, unification."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from redarg import (
    App,
    ArityMismatch,
    FuncSymbol,
    PositionOutOfRange,
    SortMismatch,
    Substitution,
    Var,
    format_position,
    format_term,
    is_ground,
    match,
    replace,
    subterm,
    unify,
    unify_up_to_arg,
    vars_of,
)
from redarg.terms import fold, iter_positions

NAT = "Nat"
Z = FuncSymbol("Z", (), NAT, "constructor")
S = FuncSymbol("S", (NAT,), NAT, "constructor")
F = FuncSymbol("f", (NAT, NAT), NAT, "defined")

z = App(Z)
x = Var("x", NAT)
y = Var("y", NAT)


def s(t):
    return App(S, (t,))


def f(a, b):
    return App(F, (a, b))


# --- construction -----------------------------------------------------------

def test_app_checks_arity():
    with pytest.raises(ArityMismatch):
        App(S, ())
    with pytest.raises(ArityMismatch):
        App(Z, (z,))


def test_app_checks_sorts():
    B = FuncSymbol("b", (), "Bool", "constructor")
    with pytest.raises(SortMismatch):
        App(S, (App(B),))


def test_term_equality_and_hash():
    assert s(z) == s(z)
    assert hash(s(z)) == hash(s(z))
    assert s(z) != z
    assert Var("x", NAT) == Var("x", NAT)
    assert Var("x", NAT) != Var("x", "Bool")


# --- hash-consing -----------------------------------------------------------

def test_app_is_interned():
    assert App(S, (z,)) is App(S, (z,))
    assert App(F, (x, s(z))) is f(Var("x", NAT), s(App(Z)))
    assert s(z) is not s(s(z))
    # an equal symbol that is another object finds the same node
    assert App(FuncSymbol("S", (NAT,), NAT, "constructor"), (z,)) is s(z)


def test_app_errors_still_raise_on_a_known_shape():
    with pytest.raises(ArityMismatch):
        App(S, (z, z))
    with pytest.raises(SortMismatch):
        App(S, (App(FuncSymbol("b", (), "Bool", "constructor")),))
    # the failed constructions left nothing behind
    assert App(S, (z,)) is s(z)


def test_app_is_immutable():
    t = s(z)
    with pytest.raises(AttributeError):
        t.args = ()
    with pytest.raises(AttributeError):
        del t.symbol


def test_copies_of_a_node_are_the_node():
    t = f(s(z), x)
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert copy.deepcopy([t, {t: t}])[0] is t
    assert pickle.loads(pickle.dumps(t)) is t


def test_deep_terms_compare_without_recursion():
    def tower(depth):
        t = App(Z)
        for _ in range(depth):
            t = App(S, (t,))
        return t

    a, b = tower(3000), tower(3000)
    assert a == b and hash(a) == hash(b)
    assert a is b
    assert a != tower(2999)


def test_deep_terms_walk_without_recursion():
    deep = x
    for _ in range(3000):
        deep = s(deep)
    bottom = (1,) * 3000
    assert sum(1 for _ in iter_positions(deep)) == 3001
    assert list(iter_positions(deep))[-1] == bottom
    filled = Substitution({"x": z}).apply(deep)
    assert filled is replace(deep, bottom, z)
    assert subterm(filled, bottom) is z
    assert fold(filled, lambda v: 0, lambda u, ds: 1 + max(ds, default=0)) == 3001
    sigma = unify(deep, filled)
    assert sigma is not None and sigma.get("x") is z


def test_iter_positions_preorder():
    t = f(s(x), f(z, y))
    assert list(iter_positions(t)) == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]
    assert list(iter_positions(s(z), (2,))) == [(2,), (2, 1)]


def test_fold_is_bottom_up_left_to_right():
    t = f(s(x), f(z, y))
    seen = []
    out = fold(
        t,
        lambda v: seen.append(v.name) or v.name,
        lambda u, args: seen.append(u.symbol.name) or u.symbol.name + "".join(args),
    )
    assert out == "fSxfZy"
    assert seen == ["x", "S", "Z", "y", "f", "f"]


def test_replace_error_names_the_unreachable_rest():
    with pytest.raises(PositionOutOfRange, match="position 2.1 not in term"):
        replace(f(s(z), z), (1, 2, 1), z)


def test_format_term():
    assert format_term(z) == "Z"
    assert format_term(s(s(z))) == "S(S(Z))"
    assert format_term(f(x, s(z))) == "f(x, S(Z))"


# --- positions --------------------------------------------------------------

def test_subterm_and_replace():
    t = f(s(z), x)
    assert subterm(t, ()) is t
    assert subterm(t, (1, 1)) == z
    assert replace(t, (1,), z) == f(z, x)
    assert replace(t, (), z) == z
    # original untouched
    assert t == f(s(z), x)


def test_position_out_of_range():
    with pytest.raises(PositionOutOfRange):
        subterm(z, (1,))
    with pytest.raises(PositionOutOfRange):
        replace(s(z), (2,), z)


def test_replace_checks_sort_at_root():
    B = FuncSymbol("b", (), "Bool", "constructor")
    with pytest.raises(SortMismatch):
        replace(z, (), App(B))


def test_format_position():
    assert format_position(()) == "e"
    assert format_position((1, 2, 1)) == "1.2.1"


# --- variable bookkeeping ---------------------------------------------------

def test_vars_linear_ground():
    assert vars_of(f(x, s(y))) == {x, y}
    assert is_ground(s(s(z)))
    assert not is_ground(s(x))


def test_substitution_apply():
    sigma = Substitution({"x": s(z)})
    assert sigma.apply(f(x, y)) == f(s(z), y)
    assert sigma.apply(z) == z


def test_substitution_sort_checked_on_use():
    B = FuncSymbol("b", (), "Bool", "constructor")
    sigma = Substitution({"x": App(B)})
    with pytest.raises(SortMismatch):
        sigma.apply(x)
    # a binding never used is never checked
    assert sigma.apply(y) == y


def test_substitution_extended_restricted():
    sigma = Substitution({"x": z})
    tau = sigma.extended({"y": s(z)})
    assert tau.get("x") == z and tau.get("y") == s(z)
    assert sigma.get("y") is None


def test_substitution_of_and_repr():
    sigma = Substitution({"x": z, "y": s(z)})
    assert repr(sigma) == "{x -> Z, y -> S(Z)}"


# --- matching ---------------------------------------------------------------

def test_match_simple():
    sigma = match(f(x, y), f(z, s(z)))
    assert sigma is not None
    assert sigma.apply(f(x, y)) == f(z, s(z))


def test_match_nonlinear():
    assert match(f(x, x), f(s(z), s(z))) is not None
    assert match(f(x, x), f(s(z), z)) is None


def test_match_failures():
    assert match(s(x), z) is None
    assert match(z, s(z)) is None
    B = FuncSymbol("b", (), "Bool", "constructor")
    assert match(x, App(B)) is None  # sort mismatch


# --- unification ------------------------------------------------------------

def test_unify_basic():
    sigma = unify(f(x, z), f(s(y), z))
    assert sigma is not None
    assert sigma.apply(f(x, z)) == sigma.apply(f(s(y), z))


def test_unify_occurs_check():
    assert unify(x, s(x)) is None


def test_unify_clash():
    assert unify(z, s(x)) is None


def test_unify_orientation():
    # canonical tie-breaks: distinct names bind the later name to the
    # earlier, primed copies become the representative
    assert dict(unify(x, y).items()) == {"y": x}
    assert dict(unify(y, x).items()) == {"y": x}
    xp = Var("x'", NAT)
    assert dict(unify(x, xp).items()) == {"x": xp}
    assert dict(unify(xp, x).items()) == {"x": xp}


def test_unify_idempotent():
    sigma = unify(f(x, s(y)), f(s(y), x))
    assert sigma is not None
    t = sigma.apply(f(x, s(y)))
    assert sigma.apply(t) == t


def test_unify_up_to_arg():
    sigma = unify_up_to_arg(f(z, x), f(s(y), x), 1)
    assert sigma is not None and len(sigma) == 0
    assert unify_up_to_arg(f(z, x), f(s(y), s(x)), 2) is None  # arg1 clash
    g1 = FuncSymbol("g", (NAT,), NAT, "defined")
    assert len(unify_up_to_arg(App(g1, (z,)), App(g1, (s(z),)), 1)) == 0


def test_unify_up_to_arg_rejects_bad_input():
    with pytest.raises(ArityMismatch):
        unify_up_to_arg(f(z, z), s(z), 1)
    with pytest.raises(ArityMismatch):
        unify_up_to_arg(f(z, z), f(z, z), 3)


# --- properties -------------------------------------------------------------

def nat_terms(max_leaves=4):
    leaf = st.sampled_from([z, x, y])
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            sub.map(s),
            st.tuples(sub, sub).map(lambda p: f(*p)),
        ),
        max_leaves=max_leaves,
    )


@given(nat_terms())
def test_match_reflexive(t):
    sigma = match(t, t)
    assert sigma is not None
    assert sigma.apply(t) == t


@given(nat_terms(), st.dictionaries(st.sampled_from(["x", "y"]),
                                    nat_terms(max_leaves=3), max_size=2))
def test_match_recovers_instance(t, binding):
    sigma = Substitution(binding)
    ground_side = sigma.apply(t)
    found = match(t, ground_side)
    assert found is not None
    assert found.apply(t) == ground_side


@given(nat_terms(), nat_terms())
def test_unify_produces_unifier(a, b):
    sigma = unify(a, b)
    if sigma is not None:
        assert sigma.apply(a) == sigma.apply(b)


@given(nat_terms())
def test_replace_subterm_roundtrip(t):
    for p in iter_positions(t):
        assert replace(t, p, subterm(t, p)) == t

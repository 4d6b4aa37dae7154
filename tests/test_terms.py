"""Term algebra: positions, substitution, matching, unification."""

import copy
import itertools
import pickle

import pytest
from hypothesis import example, given, strategies as st

from redarg import (
    App,
    ArityMismatch,
    FuncSymbol,
    PositionOutOfRange,
    SortMismatch,
    Var,
    format_position,
    format_term,
    instantiate,
    is_ground,
    match,
    replace,
    unify,
    unify_up_to_arg,
    vars_of,
)
import redarg.terms as terms
from redarg.terms import fold, iter_positions, repeated_variable, var_names

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


def test_a_symbol_is_all_four_of_its_fields():
    # equal fields held in distinct objects are one symbol, and one node
    succ = FuncSymbol("".join(["su", "cc"]), tuple([NAT]), NAT, "constructor")
    twin = FuncSymbol("".join(["suc", "c"]), tuple([NAT]), NAT, "constructor")
    assert succ is not twin and succ.name is not twin.name
    assert succ.arg_sorts is not twin.arg_sorts
    assert succ == twin and hash(succ) == hash(twin)
    assert App(succ, (z,)) is App(twin, (z,))
    # a symbol that differs only in its kind builds another node
    zero = FuncSymbol("Z", (), NAT, "defined")
    assert zero != Z and App(zero) is not z and App(zero).symbol.kind == "defined"
    assert match(z, App(zero)) is None and match(App(zero), z) is None
    assert terms.clash(z, App(zero))
    # so does one that differs only in its argument sorts
    wrap_nat = FuncSymbol("w", (NAT,), NAT, "defined")
    wrap_bool = FuncSymbol("w", ("Bool",), NAT, "defined")
    b = App(FuncSymbol("b", (), "Bool", "constructor"))
    assert wrap_nat != wrap_bool
    assert len({App(wrap_nat, (z,)), App(wrap_bool, (b,))}) == 2
    assert match(App(wrap_bool, (Var("v", "Bool"),)), App(wrap_nat, (z,))) is None


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
    assert list(iter_positions(deep))[-1] == (bottom, x)
    filled = instantiate(deep, {"x": z})
    assert filled is replace(deep, bottom, z)
    assert dict(iter_positions(filled))[bottom] is z
    assert fold(filled, lambda v: 0, lambda u, ds: 1 + max(ds, default=0)) == 3001
    sigma = unify(deep, filled)
    assert sigma is not None and sigma.get("x") is z
    assert (vars_of(deep), var_names(deep), is_ground(deep)) == ({x}, {"x"}, False)
    assert (vars_of(filled), var_names(filled), is_ground(filled)) == (set(), set(), True)
    assert repeated_variable(deep) is None and repeated_variable(filled) is None
    assert repeated_variable(f(deep, x)) == "x"


def test_iter_positions_preorder():
    t = f(s(x), f(z, y))
    assert list(iter_positions(t)) == [
        ((), t), ((1,), s(x)), ((1, 1), x), ((2,), f(z, y)), ((2, 1), z), ((2, 2), y)
    ]


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
    assert dict(iter_positions(t))[()] is t
    assert dict(iter_positions(t))[(1, 1)] == z
    assert replace(t, (1,), z) == f(z, x)
    assert replace(t, (), z) == z
    # original untouched
    assert t == f(s(z), x)


def test_position_out_of_range():
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
    sigma = {"x": s(z)}
    assert instantiate(f(x, y), sigma) == f(s(z), y)
    assert instantiate(z, sigma) == z


def test_substitution_sort_checked_on_use():
    B = FuncSymbol("b", (), "Bool", "constructor")
    sigma = {"x": App(B)}
    with pytest.raises(SortMismatch):
        instantiate(x, sigma)
    # a binding never used is never checked
    assert instantiate(y, sigma) == y


# --- matching ---------------------------------------------------------------

def test_match_simple():
    sigma = match(f(x, y), f(z, s(z)))
    assert sigma is not None
    assert instantiate(f(x, y), sigma) == f(z, s(z))


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
    assert instantiate(f(x, z), sigma) == instantiate(f(s(y), z), sigma)


@pytest.fixture
def walks(monkeypatch):
    """Counts the binding walks of unification; a unification that makes
    a million of them fails here rather than running on."""
    count = [0]
    walk = terms._walk

    def counted(t, bindings):
        count[0] += 1
        if count[0] > 1_000_000:
            raise AssertionError("unification does not terminate")
        return walk(t, bindings)

    monkeypatch.setattr(terms, "_walk", counted)
    return count


def test_unify_occurs_check():
    assert unify(x, s(x)) is None


def test_unify_indirect_cycle(walks):
    # x = S(y) and y = S(x): neither binding mentions its own variable
    assert unify(f(x, y), f(s(y), s(x))) is None
    # binds x to S(x) and y to S(y) first; then (x, y) walks to
    # (S(x), S(y)), whose split gives (x, y) again
    g = FuncSymbol("g", (NAT, NAT, NAT), NAT, "defined")
    assert unify(App(g, (x, y, x)), App(g, (y, s(y), s(x)))) is None


def test_unify_clash():
    assert unify(z, s(x)) is None


def test_unify_orientation():
    # canonical tie-breaks: distinct names bind the later name to the
    # earlier, primed copies become the representative
    assert unify(x, y) == {"y": x}
    assert unify(y, x) == {"y": x}
    xp = Var("x'", NAT)
    assert unify(x, xp) == {"x": xp}
    assert unify(xp, x) == {"x": xp}


def test_unify_idempotent():
    sigma = unify(f(x, s(y)), f(s(y), x))
    assert sigma is not None
    t = instantiate(f(x, s(y)), sigma)
    assert instantiate(t, sigma) == t


def chain(n):
    """g(x1..xn, x1..xn) and g(S(y1)..S(yn), y0..y(n-1)): unifying them
    binds x_k to S(y_k) and y_(k-1) to x_k, a chain n long."""
    g = FuncSymbol("g", (NAT,) * (2 * n), NAT, "defined")
    xs = [Var(f"x{k}", NAT) for k in range(1, n + 1)]
    ys = [Var(f"y{k}", NAT) for k in range(n + 1)]
    return App(g, (*xs, *xs)), App(g, (*(s(v) for v in ys[1:]), *ys[:-1]))


def test_unify_long_chain():
    n = 2000
    ys = [Var(f"y{k}", NAT) for k in range(n + 1)]
    left, right = chain(n)
    sigma = unify(left, right)
    assert sigma is not None
    assert instantiate(left, sigma) is instantiate(right, sigma)
    # idempotent: each binding is S^j(y_n), and y_n is not bound
    towers = [ys[n]]
    for _ in range(n):
        towers.append(s(towers[-1]))
    assert sigma == {**{f"x{k}": towers[n - k + 1] for k in range(1, n + 1)},
                     **{f"y{k}": towers[n - k] for k in range(n)}}


def test_unify_chain_walks_linearly(walks):
    counts = []
    for n in (500, 1000):
        walks[0] = 0
        assert unify(*chain(n)) is not None
        counts.append(walks[0])
    assert counts[1] / counts[0] <= 2.2


def test_unify_variables_of_different_sorts():
    assert unify(x, Var("b", "Bool")) is None


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
    assert instantiate(t, sigma) == t


@given(nat_terms(), st.dictionaries(st.sampled_from(["x", "y"]),
                                    nat_terms(max_leaves=3), max_size=2))
def test_match_recovers_instance(t, binding):
    ground_side = instantiate(t, binding)
    found = match(t, ground_side)
    assert found is not None
    assert instantiate(t, found) == ground_side


@given(nat_terms(), nat_terms())
def test_unify_produces_unifier(a, b):
    sigma = unify(a, b)
    if sigma is not None:
        assert instantiate(a, sigma) == instantiate(b, sigma)


GROUND = [z, s(z), s(s(z)), f(z, z), f(s(z), z)]


@given(nat_terms(), nat_terms())
@example(s(f(x, y)), s(f(s(y), z)))  # x's binding waits on y's: not a cycle
def test_unify_is_most_general(a, b):
    # every ground unifier theta over a small pool is an instance of the
    # mgu: a sigma theta = a theta
    sigma = unify(a, b)
    for gx, gy in itertools.product(GROUND, repeat=2):
        theta = {"x": gx, "y": gy}
        if instantiate(a, theta) == instantiate(b, theta):
            assert sigma is not None
            assert instantiate(instantiate(a, sigma), theta) == instantiate(a, theta)


@given(nat_terms())
def test_replace_subterm_roundtrip(t):
    for p, sub in iter_positions(t):
        assert replace(t, p, sub) == t

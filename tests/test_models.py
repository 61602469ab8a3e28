"""Finite models, permutes, descriptions, s-expressions, theories."""

import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsym import models as md
from permsym import symgroup as sg

ABC = ("a", "b", "c")


def model_ab(tuples, arity=2, domain=("a", "b")):
    return md.FiniteModel(domain, {"R": md.Relation(arity, frozenset(tuples))})


pairs3 = list(itertools.product(ABC, repeat=2))
model3_strategy = st.sets(st.sampled_from(pairs3)).map(
    lambda ts: md.FiniteModel(ABC, {"R": md.Relation(2, frozenset(ts))})
)
perm3_strategy = st.permutations([1, 2, 3]).map(lambda im: sg.Permutation(tuple(im)))


def test_relation_and_model_validation():
    with pytest.raises(ValueError):
        md.Relation(0, frozenset())
    with pytest.raises(ValueError):
        md.Relation(2, frozenset({("a",)}))
    with pytest.raises(ValueError):
        md.FiniteModel((), {})
    with pytest.raises(ValueError):
        md.FiniteModel(("a", "a"), {})
    with pytest.raises(ValueError):
        md.FiniteModel(("a",), {"R": md.Relation(1, frozenset({("b",)}))})


def test_model_equality_ignores_tuple_order():
    m1 = model_ab([("a", "b"), ("b", "a")])
    m2 = model_ab([("b", "a"), ("a", "b")])
    assert m1 == m2
    assert hash(m1) == hash(m2)
    assert m1 != model_ab([("a", "b")])
    assert len({m1, m2}) == 1


def test_apply_perm_pointwise_image():
    m = md.FiniteModel(ABC, {"R": md.Relation(2, frozenset({("a", "b")}))})
    rotated = md.apply_perm(sg.from_cycles(3, [(1, 2, 3)]), m)
    assert rotated.relations["R"].tuples == frozenset({("b", "c")})
    assert rotated.domain == m.domain
    with pytest.raises(ValueError):
        md.apply_perm(sg.identity(2), m)


@given(model3_strategy, perm3_strategy, perm3_strategy)
def test_apply_perm_is_a_group_action(m, p, q):
    assert md.apply_perm(sg.compose(p, q), m) == md.apply_perm(p, md.apply_perm(q, m))
    assert md.apply_perm(sg.identity(3), m) == m


@given(model3_strategy)
def test_permute_class_size_divides_group_order(m):
    cls = md.permute_class(m)
    assert math.factorial(3) % len(cls) == 0
    assert m in cls
    assert cls == sorted(cls, key=md.model_to_json)
    assert md.is_fully_symmetric_model(m) == (len(cls) == 1)
    assert md.is_symmetric_model(m) == (len(cls) < math.factorial(3))


def test_symmetry_predicates_examples():
    diag = md.FiniteModel(ABC, {"R": md.Relation(2, frozenset({(x, x) for x in ABC}))})
    assert md.is_fully_symmetric_model(diag)
    swap_sym = model_ab([("a", "b"), ("b", "a")])
    assert md.stabiliser(swap_sym) == [sg.identity(2), sg.from_cycles(2, [(1, 2)])]
    assert md.is_symmetric_model(swap_sym)
    assert md.is_fully_symmetric_model(swap_sym)
    lone = model_ab([("a", "b")])
    assert md.stabiliser(lone) == [sg.identity(2)]
    assert not md.is_symmetric_model(lone)
    assert not md.is_fully_symmetric_model(lone)


def test_pad_relation_semantics():
    m = md.FiniteModel(ABC, {"P": md.Relation(1, frozenset({("a",)}))})
    padded = md.pad_relation(m, "P", 2)
    assert padded.relations["P"].tuples == frozenset({("a", x) for x in ABC})
    # default target is the domain size
    full = md.pad_relation(m, "P")
    assert full.relations["P"].arity == 3
    assert full.relations["P"].tuples == frozenset(
        ("a",) + tail for tail in itertools.product(ABC, repeat=2)
    )
    # padding holds of (s, t...) exactly when the original holds of s
    for t in itertools.product(ABC, repeat=2):
        assert (t in padded.relations["P"].tuples) == (("a",) == t[:1])
    with pytest.raises(ValueError):
        md.pad_relation(m, "Q")
    with pytest.raises(ValueError):
        md.pad_relation(padded, "P", 1)


def test_pad_commutes_with_permutes():
    m = md.FiniteModel(ABC, {"P": md.Relation(1, frozenset({("a",), ("b",)}))})
    p = sg.from_cycles(3, [(1, 3)])
    assert md.pad_relation(md.apply_perm(p, m), "P", 2) == md.apply_perm(
        p, md.pad_relation(m, "P", 2)
    )


def test_atom_enumeration_past_the_cap_is_refused():
    wide = md.FiniteModel(ABC, {"R": md.Relation(40, frozenset())})
    unary = md.FiniteModel(ABC, {"P": md.Relation(1, frozenset({("a",)}))})
    crowd = md.FiniteModel([f"a{k}" for k in range(1025)], {})
    calls = [
        lambda: md.state_description(wide),
        lambda: md.structure_description(wide),
        lambda: md.pad_relation(unary, "P", 40),
        lambda: md.pad_relation(unary, "P", 10**30),  # refused without the power
        lambda: md.state_description(crowd),  # 1025**2 inequality slots
    ]
    for call in calls:
        with pytest.raises(ValueError, match="exceed the cap"):
            call()


def test_enumerate_models_counts():
    two = list(md.enumerate_models(("a", "b"), {"R": 2}))
    assert len(two) == 2 ** 4
    assert len(set(two)) == 2 ** 4
    mixed = list(md.enumerate_models(("a", "b"), {"R": 1, "S": 1}))
    assert len(mixed) == 2 ** 2 * 2 ** 2


# ---------------------------------------------------------------------------
# formulas

def test_satisfies_atoms_and_connectives():
    m = model_ab([("a", "b")])
    assert md.satisfies(m, md.Rel("R", ("a", "b")))
    assert not md.satisfies(m, md.Rel("R", ("b", "a")))
    assert md.satisfies(m, md.Not(md.Rel("R", ("b", "a"))))
    assert md.satisfies(m, md.And((md.Rel("R", ("a", "b")), md.Ne("a", "b"))))
    assert md.satisfies(m, md.Or((md.Rel("R", ("b", "a")), md.Eq("a", "a"))))


def test_satisfies_quantifiers():
    m = model_ab([("a", "b"), ("b", "b")])
    assert md.satisfies(m, md.Exists("x", md.Rel("R", ("x", "x"))))
    assert md.satisfies(m, md.ForAll("x", md.Exists("y", md.Rel("R", ("x", "y")))))
    assert not md.satisfies(m, md.ForAll("x", md.Rel("R", ("x", "x"))))


def test_satisfies_variable_shadowing():
    m = model_ab([("a", "a")])
    # inner x shadows outer x, then the outer binding is restored
    f = md.Exists(
        "x",
        md.And(
            (
                md.Eq("x", "a"),
                md.Exists("x", md.Eq("x", "b")),
                md.Eq("x", "a"),
            )
        ),
    )
    assert md.satisfies(m, f)


def test_satisfies_error_paths():
    m = model_ab([("a", "b")])
    with pytest.raises(md.FormulaError):
        md.satisfies(m, md.Rel("missing", ("a",)))
    with pytest.raises(md.FormulaError):
        md.satisfies(m, md.Rel("R", ("a",)))  # arity mismatch
    with pytest.raises(md.FormulaError):
        md.satisfies(m, md.Eq("a", "zz"))  # unbound symbol


def test_state_description_pins_down_the_model():
    target = model_ab([("a", "b"), ("b", "b")])
    desc = md.state_description(target)
    hits = [m for m in md.enumerate_models(("a", "b"), {"R": 2}) if md.satisfies(m, desc)]
    assert hits == [target]


def test_structure_description_pins_down_the_permute_class():
    target = model_ab([("a", "b")])
    desc = md.structure_description(target)
    hits = {m for m in md.enumerate_models(("a", "b"), {"R": 2}) if md.satisfies(m, desc)}
    assert hits == set(md.permute_class(target))
    assert len(hits) == 2


@given(model3_strategy)
def test_structure_description_is_permutation_invariant(m):
    desc = md.structure_description(m)
    for p in sg.all_permutations(3):
        assert md.satisfies(md.apply_perm(p, m), desc)


def test_descriptions_avoid_capturing_domain_names():
    m = md.FiniteModel(("y", "x1"), {"R": md.Relation(1, frozenset({("y",)}))})
    assert md.satisfies(m, md.state_description(m))
    assert md.satisfies(m, md.structure_description(m))
    text = md.format_formula(md.state_description(m))
    assert "forall _y" in text


# ---------------------------------------------------------------------------
# s-expressions

ROUNDTRIP_FORMULAS = [
    "(rel R a b)",
    "(= x y)",
    "(!= a b)",
    "(not (rel P a))",
    "(and (rel R a b) (or (= a b) (!= a b)))",
    "(forall x (exists y (rel R x y)))",
]


@pytest.mark.parametrize("text", ROUNDTRIP_FORMULAS)
def test_parse_format_roundtrip(text):
    f = md.parse_formula(text)
    assert md.format_formula(f) == text
    assert md.parse_formula(md.format_formula(f)) == f


@given(model3_strategy)
def test_descriptions_roundtrip_through_text(m):
    for desc in (md.state_description(m), md.structure_description(m)):
        assert md.parse_formula(md.format_formula(desc)) == desc


@pytest.mark.parametrize(
    "f",
    [
        md.Rel("R", ("a b",)),
        md.Rel("", ("a",)),
        md.Rel("R(", ("a",)),
        md.Ne("a", "b\tc"),
        md.Eq("a)", "b"),
        md.Not(md.Exists("", md.Rel("R", ("a",)))),
    ],
    ids=repr,
)
def test_format_refuses_words_that_would_not_read_back(f):
    with pytest.raises(md.FormulaError, match="one s-expression token"):
        md.format_formula(f)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "rel R a",
        "(rel)",
        "(rel R a))",
        "(= a)",
        "(= a b c)",
        "(not)",
        "(and)",
        "(zap a b)",
        "(forall x)",
        "(rel R a b",
    ],
)
def test_parse_rejects_malformed_text(bad):
    with pytest.raises(md.FormulaError):
        md.parse_formula(bad)


def test_parse_refuses_nesting_past_the_recursion_limit():
    deep = "(not " * 3000 + "(rel P a)" + ")" * 3000
    with pytest.raises(md.FormulaError, match="nests too deeply"):
        md.parse_formula(deep)


# ---------------------------------------------------------------------------
# the tree walker that satisfies replaced, kept as its oracle


def satisfies_by_walking(model, formula):
    """Terms resolved against quantifier bindings first, then as domain
    names; one branch per node kind."""
    members = set(model.domain)
    env = {}

    def term(t):
        got = env.get(t)
        if got is not None:
            return got
        if t in members:
            return t
        raise md.FormulaError(f"unbound symbol {t!r} (not a quantified variable or a name)")

    def ev(f):
        if isinstance(f, md.Rel):
            rel = model.relations.get(f.name)
            if rel is None:
                raise md.FormulaError(f"unknown relation {f.name!r}")
            if len(f.args) != rel.arity:
                raise md.FormulaError(
                    f"relation {f.name!r} has arity {rel.arity}, got {len(f.args)} terms"
                )
            return tuple(term(t) for t in f.args) in rel.tuples
        if isinstance(f, md.Not):
            return not ev(f.body)
        if isinstance(f, md.And):
            return all(ev(p) for p in f.parts)
        if isinstance(f, md.Or):
            return any(ev(p) for p in f.parts)
        if isinstance(f, md.Eq):
            return term(f.left) == term(f.right)
        if isinstance(f, md.Ne):
            return term(f.left) != term(f.right)
        if isinstance(f, (md.ForAll, md.Exists)):
            shadowed = env.get(f.var)
            try:
                if isinstance(f, md.ForAll):
                    for a in model.domain:
                        env[f.var] = a
                        if not ev(f.body):
                            return False
                    return True
                for a in model.domain:
                    env[f.var] = a
                    if ev(f.body):
                        return True
                return False
            finally:
                if shadowed is None:
                    env.pop(f.var, None)
                else:
                    env[f.var] = shadowed
        raise md.FormulaError(f"not a formula node: {f!r}")

    return ev(formula)


def verdict(check, model, formula):
    """The truth value, or the message of the FormulaError raised."""
    try:
        return check(model, formula)
    except md.FormulaError as exc:
        return f"FormulaError: {exc}"


# names of the domain, variables (one of them named like a domain name), an
# unbound symbol; R is binary, P unary and Nope unknown to every model
TERM = st.sampled_from(["a", "b", "c", "x", "y", "x", "y", "zz"])
VAR = st.sampled_from(["x", "y", "a"])


def atoms(term):
    """R and P atoms, wrong arities, an unknown relation and (in)equalities."""
    args = st.one_of(st.tuples(term), st.tuples(term, term), st.tuples(term, term, term))
    return st.one_of(
        st.builds(md.Rel, st.just("R"), st.tuples(term, term)),
        st.builds(md.Rel, st.just("P"), st.tuples(term)),
        st.builds(md.Rel, st.sampled_from(["R", "P", "Nope"]), args),
        st.builds(md.Eq, term, term),
        st.builds(md.Ne, term, term),
    )


ATOM = atoms(TERM)
FORMULA = st.recursive(
    ATOM,
    lambda sub: st.one_of(
        st.builds(md.Not, sub),
        st.builds(md.And, st.lists(sub, min_size=1, max_size=3).map(tuple)),
        st.builds(md.Or, st.lists(sub, min_size=1, max_size=3).map(tuple)),
        st.builds(md.ForAll, VAR, sub),
        st.builds(md.Exists, VAR, sub),
    ),
    max_leaves=10,
)
# half of them closed over x and y, so that fewer end at an unbound symbol
SENTENCE = FORMULA | FORMULA.map(lambda f: md.ForAll("y", md.Exists("x", f)))


@st.composite
def small_models(draw):
    domain = ABC[: draw(st.integers(1, 3))]
    pairs = draw(st.sets(st.sampled_from(list(itertools.product(domain, repeat=2)))))
    points = draw(st.sets(st.sampled_from(domain)))
    return md.FiniteModel(
        domain, {"R": md.Relation(2, frozenset(pairs)), "P": md.Relation(1, frozenset((p,) for p in points))}
    )


@settings(max_examples=400)
@given(small_models(), SENTENCE)
def test_satisfies_agrees_with_the_tree_walker(m, f):
    assert verdict(md.satisfies, m, f) == verdict(satisfies_by_walking, m, f)


# the shape the rewrite changes: exists...exists (and ...) and its dual
# forall...forall (or ...), whose parts mention some of the variables and
# names; some parts are nested junctions or dual blocks, and in half of the
# sentences an atom may raise (unknown relation, wrong arity, unbound symbol)
CLOSED_TERM = st.sampled_from(["x", "y", "z", "x", "y", "z", "a", "b"])
CLOSED_ATOM = st.one_of(
    st.builds(md.Rel, st.just("R"), st.tuples(CLOSED_TERM, CLOSED_TERM)),
    st.builds(md.Rel, st.just("P"), st.tuples(CLOSED_TERM)),
    st.builds(md.Eq, CLOSED_TERM, CLOSED_TERM),
    st.builds(md.Ne, CLOSED_TERM, CLOSED_TERM),
)
RISKY_ATOM = st.one_of(CLOSED_ATOM, CLOSED_ATOM, atoms(CLOSED_TERM | st.just("zz")))


@st.composite
def prenex_sentences(draw):
    quantifier, junction = draw(st.sampled_from([(md.Exists, md.And), (md.ForAll, md.Or)]))
    dual_quantifier, dual_junction = {md.Exists: (md.ForAll, md.Or), md.ForAll: (md.Exists, md.And)}[quantifier]
    atom = draw(st.sampled_from([CLOSED_ATOM, RISKY_ATOM]))
    literal = atom | atom.map(md.Not)
    literals = st.lists(literal, min_size=1, max_size=3).map(tuple)
    part = st.one_of(
        literal,
        literal,
        literals.map(junction),
        st.builds(dual_quantifier, st.sampled_from(["z", "w"]), literals.map(dual_junction)),
    )
    body = junction(tuple(draw(st.lists(part, min_size=2, max_size=6))))
    # usually x, y and z, in any order; a repeat, or "a" shadowing a name
    variables = draw(st.permutations(["x", "y", "z"]).flatmap(
        lambda xyz: st.sampled_from([xyz, xyz[:2], xyz + ["x"], xyz + ["a"]])
    ))
    for var in variables:
        body = quantifier(var, body)
    return body


@settings(max_examples=400)
@given(small_models(), prenex_sentences())
def test_miniscoped_prenex_sentences_agree_with_the_tree_walker(m, f):
    assert verdict(md.satisfies, m, f) == verdict(satisfies_by_walking, m, f)


# models asked one formula object in a row: R binary or unary, the same
# domain in another order, a domain without the constant b, a larger one
ONE_FORMULA_MODELS = [
    md.FiniteModel(("a", "b"), {"R": md.Relation(2, frozenset({("a", "b"), ("b", "b")})), "P": md.Relation(1, frozenset({("a",)}))}),
    md.FiniteModel(("a", "b"), {"R": md.Relation(1, frozenset({("a",)})), "P": md.Relation(1, frozenset({("a",)}))}),
    md.FiniteModel(("b", "a"), {"R": md.Relation(2, frozenset({("a", "b"), ("b", "b")})), "P": md.Relation(1, frozenset({("a",)}))}),
    md.FiniteModel(("a",), {"R": md.Relation(2, frozenset({("a", "a")})), "P": md.Relation(1, frozenset({("a",)}))}),
    md.FiniteModel(ABC, {"R": md.Relation(2, frozenset({("c", "b"), ("b", "c")})), "P": md.Relation(1, frozenset())}),
]


@pytest.mark.parametrize(
    "text",
    [
        "(exists x (exists y (and (rel R x y) (rel P x) (= y b))))",
        "(exists x (exists y (and (rel R y x) (!= x y) (rel P b))))",
        "(forall x (forall y (or (rel R x y) (not (rel P y)) (= x b))))",
        "(exists x (and (rel R x b) (exists y (and (rel R b y) (rel P y)))))",
    ],
)
def test_one_formula_asked_of_models_that_differ(text):
    f = md.parse_formula(text)
    for models in (ONE_FORMULA_MODELS, ONE_FORMULA_MODELS[::-1]):
        got = [verdict(md.satisfies, m, f) for m in models]
        assert got == [verdict(satisfies_by_walking, m, f) for m in models]


@settings(max_examples=100)
@given(prenex_sentences())
def test_one_prenex_sentence_asked_of_models_that_differ(f):
    got = [verdict(md.satisfies, m, f) for m in ONE_FORMULA_MODELS]
    assert got == [verdict(satisfies_by_walking, m, f) for m in ONE_FORMULA_MODELS]


def test_structure_descriptions_on_two_names_agree_with_the_tree_walker():
    for domain in (("a",), ("a", "b")):
        space = list(md.enumerate_models(domain, {"R": 2, "P": 1}))
        for target in space:
            desc = md.structure_description(target)
            hits = [m for m in space if md.satisfies(m, desc)]
            assert hits == [m for m in space if satisfies_by_walking(m, desc)]
            assert set(hits) == set(md.permute_class(target))


def test_structure_descriptions_are_rewritten_to_prune_after_each_variable():
    m = md.FiniteModel(("y", "x1"), {"R": md.Relation(1, frozenset({("y",)}))})
    scoped, free, used = md._miniscope(md.structure_description(m))
    assert md.format_formula(scoped) == (
        "(exists _x1 (and (rel R _x1) (exists x2 (and (not (rel R x2)) (!= _x1 x2) "
        "(forall _y (or (= _y _x1) (= _y x2)))))))"
    )
    assert (free, used) == (frozenset(), frozenset({("R", 1)}))
    # a state description moves nothing, and is walked as written
    assert md._miniscope(md.state_description(m))[0] is None


LAZY_AND_SHADOWED = {
    # an error in a branch that is never evaluated raises nothing
    "(or (= a a) (rel Nope a))": True,
    "(and (!= a a) (rel R a))": False,
    "(or (rel P a) (= zz a))": True,
    "(exists x (or (= x a) (rel Nope x)))": True,
    "(forall x (and (= x b) (rel R x)))": False,
    # ...and one that is evaluated raises
    "(or (rel P b) (rel Nope a))": "FormulaError: unknown relation 'Nope'",
    "(and (= a a) (rel R a))": "FormulaError: relation 'R' has arity 2, got 1 terms",
    "(exists x (= x zz))": "FormulaError: unbound symbol 'zz' (not a quantified variable or a name)",
    "(forall x (rel P x))": False,
    # a variable named like a domain name shadows the name, and is restored
    "(exists a (and (= a b) (rel R a a)))": True,
    "(and (exists a (= a b)) (= a a) (rel P a) (!= a b))": True,
    "(exists x (and (= x a) (exists x (= x b)) (= x a)))": True,
    "(forall a (exists b (rel R b a)))": False,
    # a variable is unbound again once its quantifier closes
    "(and (exists x (= x a)) (= x a))": "FormulaError: unbound symbol 'x' (not a quantified variable or a name)",
}


@pytest.mark.parametrize("text,expected", LAZY_AND_SHADOWED.items(), ids=LAZY_AND_SHADOWED.keys())
def test_satisfies_is_lazy_and_scopes_shadowed_names(text, expected):
    m = md.FiniteModel(
        ("a", "b"), {"R": md.Relation(2, frozenset({("b", "b")})), "P": md.Relation(1, frozenset({("a",)}))}
    )
    f = md.parse_formula(text)
    assert verdict(md.satisfies, m, f) == verdict(satisfies_by_walking, m, f) == expected


@given(FORMULA)
def test_generated_formulas_roundtrip_through_text(f):
    text = md.format_formula(f)
    assert md.parse_formula(text) == f
    assert md.format_formula(md.parse_formula(text)) == text


# ---------------------------------------------------------------------------
# theories

def chores_theory(closed=True):
    """Two agents, one unary duty relation; selection picks the states
    with exactly one on duty (both assignments when closed)."""
    space = tuple(md.enumerate_models(("a", "b"), {"duty": 1}))
    only_a = space.index(md.FiniteModel(("a", "b"), {"duty": md.Relation(1, frozenset({("a",)}))}))
    only_b = space.index(md.FiniteModel(("a", "b"), {"duty": md.Relation(1, frozenset({("b",)}))}))
    chosen = (only_a, only_b) if closed else (only_a,)
    return md.Theory(space, {"rota": chosen})


def test_theory_validation():
    space = tuple(md.enumerate_models(("a", "b"), {"duty": 1}))
    with pytest.raises(md.TheoryError):
        md.Theory((), {})
    with pytest.raises(md.TheoryError):
        md.Theory(space + (space[0],), {})  # duplicate model
    with pytest.raises(md.TheoryError):
        md.Theory(space, {"x": (99,)})
    with pytest.raises(md.TheoryError):
        md.Theory(space, {"x": (0, 0)})
    with pytest.raises(md.TheoryError):
        bigger = md.FiniteModel(("a", "c"), {"duty": md.Relation(1, frozenset())})
        md.Theory((space[0], bigger), {})


def test_permutability_and_fixity():
    closed = chores_theory(closed=True)
    assert md.is_permutable(closed)
    assert not md.has_fixity(closed)  # "only a on duty" is not symmetric
    report = md.gpc_check(closed)
    assert report.permutable and not report.fixed and report.consistent

    lopsided = chores_theory(closed=False)
    assert not md.is_permutable(lopsided)
    assert md.gpc_check(lopsided).consistent  # not fixed either


def test_fixity_implies_permutability():
    space = tuple(md.enumerate_models(("a", "b"), {"duty": 1}))
    nobody = space.index(md.FiniteModel(("a", "b"), {"duty": md.Relation(1, frozenset())}))
    everybody = space.index(
        md.FiniteModel(("a", "b"), {"duty": md.Relation(1, frozenset({("a",), ("b",)}))})
    )
    theory = md.Theory(space, {"off": (nobody,), "all": (everybody,)})
    report = md.gpc_check(theory)
    assert report.fixed and report.permutable and report.consistent


def test_permutability_needs_closed_space():
    only_a = md.FiniteModel(("a", "b"), {"duty": md.Relation(1, frozenset({("a",)}))})
    theory = md.Theory((only_a,), {"rota": (0,)})
    with pytest.raises(md.TheoryError):
        md.is_permutable(theory)


def count_crossings(monkeypatch) -> list[int]:
    """The n of every pass over S_n from here on."""
    crossings, enumerate_group = [], sg.all_permutations
    monkeypatch.setattr(sg, "all_permutations", lambda n: crossings.append(n) or enumerate_group(n))
    return crossings


def test_full_symmetry_and_fixity_ask_only_the_generators(monkeypatch):
    diag = md.FiniteModel(ABC, {"R": md.Relation(2, frozenset({(x, x) for x in ABC}))})
    swap = md.FiniteModel(ABC, {"R": md.Relation(2, frozenset({("a", "b"), ("b", "a")}))})
    space = tuple(md.enumerate_models(ABC, {"R": 2}))
    fixed = md.Theory(space, {"sel": (space.index(diag),)})
    loose = md.Theory(space, {"sel": (space.index(diag), space.index(swap))})
    crossings = count_crossings(monkeypatch)
    assert md.is_fully_symmetric_model(diag)
    assert not md.is_fully_symmetric_model(swap)  # (1 2) fixes it, (2 3) does not
    assert md.has_fixity(fixed) and not md.has_fixity(loose)
    assert crossings == []


def test_gpc_check_crosses_the_group_once_per_orbit(monkeypatch):
    space = tuple(md.enumerate_models(ABC, {"R": 2}))
    lone = md.FiniteModel(ABC, {"R": md.Relation(2, frozenset({("a", "b")}))})
    orbit = tuple(space.index(m) for m in md.permute_class(lone))
    assert len(orbit) == 6
    crossings = count_crossings(monkeypatch)
    report = md.gpc_check(md.Theory(space, {"sel": orbit, "again": orbit[::-1]}))
    assert report.permutable and not report.fixed
    assert crossings == [3]


def test_permutability_is_ill_posed_whatever_the_other_verdicts():
    # {a, b} alone leaves the selection open, but {a}'s permute {c} is
    # missing from the space, so the check is ill-posed rather than False
    space = tuple(
        md.FiniteModel(ABC, {"P": md.Relation(1, frozenset((x,) for x in names))})
        for names in ("a", "b", "ab", "bc", "ac")
    )
    theory = md.Theory(space, {"s": (0, 2)})
    with pytest.raises(md.TheoryError, match="absent from the state space"):
        md.is_permutable(theory)


def test_quotient_selection():
    closed = chores_theory(closed=True)
    reps = md.quotient_selection(closed)
    assert len(reps["rota"]) == 1
    assert reps["rota"][0] in closed.selected("rota")
    with pytest.raises(md.TheoryError):
        md.quotient_selection(chores_theory(closed=False))


# ---------------------------------------------------------------------------
# JSON forms

@given(model3_strategy)
def test_model_json_roundtrip(m):
    text = md.model_to_json(m)
    again = md.model_from_json(text)
    assert again == m
    assert md.model_to_json(again) == text
    json.loads(text)  # well-formed


def test_theory_json_roundtrip():
    theory = chores_theory(closed=True)
    text = md.theory_to_json(theory)
    again = md.theory_from_json(text)
    assert again.space == theory.space
    assert again.selection == theory.selection
    assert md.theory_to_json(again) == text


def test_json_error_paths():
    with pytest.raises(ValueError):
        md.model_from_json("nope")
    with pytest.raises(ValueError):
        md.model_from_json('{"relations": {}}')
    with pytest.raises(ValueError):
        md.theory_from_json('{"space": "x"}')
    with pytest.raises(md.TheoryError):
        md.theory_from_json('{"space": [], "selection": {}}')

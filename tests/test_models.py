"""Finite models, permutes, descriptions, s-expressions, theories."""

import itertools
import json
import math
from typing import Iterable, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model_key import model_key
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


def test_models_that_differ_only_by_an_empty_relation_are_unequal():
    lone = model_ab([("a", "b")])
    empty_s = md.FiniteModel(("a", "b"), {"R": lone.relations["R"], "S": md.Relation(1, frozenset())})
    wide_s = md.FiniteModel(("a", "b"), {"R": lone.relations["R"], "S": md.Relation(2, frozenset())})
    assert lone.bits == empty_s.bits == wide_s.bits
    assert len({lone, empty_s, wide_s}) == 3
    assert len({model_key(m) for m in (lone, empty_s, wide_s)}) == 3


SMALL_DOMAINS = (("a", "b"), ("b", "a"), ABC)


@st.composite
def routed_models(draw):
    """A small model built by the constructor, apply_perm, pad_relation or
    model_from_json; few relations and tuples, so that equal models recur."""
    domain = draw(st.sampled_from(SMALL_DOMAINS))
    rels = {}
    for name in draw(st.sets(st.sampled_from(["P", "R"]))):
        arity = draw(st.sampled_from([1, 2]))
        pool = list(itertools.product(domain, repeat=arity))
        rels[name] = md.Relation(arity, frozenset(draw(st.sets(st.sampled_from(pool), max_size=2))))
    model = md.FiniteModel(domain, rels)
    route = draw(st.sampled_from(["constructor", "apply_perm", "pad_relation", "model_from_json"]))
    if route == "apply_perm":
        images = draw(st.permutations(range(1, len(domain) + 1)))
        model = md.apply_perm(sg.Permutation(tuple(images)), model)
    elif route == "pad_relation" and rels:
        model = md.pad_relation(model, min(rels), 2)
    elif route == "model_from_json":
        model = md.model_from_json(md.model_to_json(model))
    return model


@settings(max_examples=150)
@given(st.lists(routed_models(), min_size=2, max_size=8))
def test_equality_and_hash_agree_with_the_sorted_tuple_oracle(found):
    for m in found:  # the int agrees with the relations, however they were reached
        rebuilt = md.FiniteModel(m.domain, m.relations)
        assert rebuilt == m and hash(rebuilt) == hash(m) and rebuilt.bits == m.bits
    for m1, m2 in itertools.product(found, repeat=2):
        assert (m1 == m2) is (model_key(m1) == model_key(m2))
        if m1 == m2:
            assert hash(m1) == hash(m2)
    assert len(set(found)) == len({model_key(m) for m in found})


def test_models_reached_by_every_route_are_equal():
    m = md.FiniteModel(ABC, {"P": md.Relation(1, frozenset({("a",)})), "S": md.Relation(2, frozenset())})
    padded = md.FiniteModel(
        ABC, {"P": md.Relation(2, frozenset({("a", x) for x in ABC})), "S": md.Relation(2, frozenset())}
    )
    swap = sg.from_cycles(3, [(1, 2)])
    routes = [
        md.pad_relation(m, "P", 2),
        padded,
        md.model_from_json(md.model_to_json(padded)),
        md.apply_perm(swap, md.apply_perm(swap, padded)),
    ]
    assert len({model_key(x) for x in routes}) == 1
    assert len(set(routes)) == 1 and len({hash(x) for x in routes}) == 1


def test_models_of_many_tuples_keep_their_identity():
    # 63 and 64 tuples: the int's bytes end inside and at a byte boundary
    names = ("a", "b", "c", "d")
    pool = list(itertools.product(names, repeat=3))
    cycle = sg.from_cycles(4, [(1, 2, 3, 4)])
    for drop in (pool[:1], []):
        m = md.FiniteModel(names, {"T": md.Relation(3, frozenset(pool) - set(drop))})
        assert m.bits == sum(1 << k for k, t in enumerate(pool) if t not in drop)
        moved = md.apply_perm(cycle, m)
        rebuilt = md.FiniteModel(names, {"T": md.Relation(3, moved.relations["T"].tuples)})
        assert moved == rebuilt and moved.bits == rebuilt.bits and hash(moved) == hash(rebuilt)
        assert (moved == m) is (model_key(moved) == model_key(m)) is (not drop)


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


def test_models_past_the_table_budget_permute_by_index_arithmetic(monkeypatch):
    monkeypatch.setattr(md, "_TABLES", {})
    # 3**13 atoms: more than ATOM_CAP, so no image list, but an int of 200 KB
    wide13 = md.FiniteModel(ABC, {"R": md.Relation(13, frozenset({("a",) * 13, ("a", "b") + ("c",) * 11}))})
    assert wide13.bits == 1 | 1 << 3**11 + 3**11 - 1  # atoms 0 and 1·3**11 + (3**11 - 1)
    moved = [md.apply_perm(p, wide13) for p in sg.all_permutations(3)]
    for m in moved:
        rebuilt = md.FiniteModel(ABC, m.relations)
        assert m == rebuilt and m.bits == rebuilt.bits and hash(m) == hash(rebuilt)
    assert len({model_key(m) for m in moved}) == len(set(moved)) == 6
    assert md.permute_class(wide13) == sorted(moved, key=md.model_to_json)
    assert md.stabiliser(wide13) == [sg.identity(3)] and not md.is_fully_symmetric_model(wide13)
    assert md._TABLES == {}
    # 8 names: a 6-ary relation's orbit could hold 40320 ints of 8**6 bits
    eight = [f"a{k}" for k in range(8)]
    for arity, classes in ((5, 6720), (6, None)):
        m = md.FiniteModel(eight, {"R": md.Relation(arity, frozenset({tuple(eight[:arity])}))})
        # the names past the tuple's move freely
        assert len(md.stabiliser(m)) == math.factorial(8 - arity) and not md.is_fully_symmetric_model(m)
        if classes:
            assert len(md._orbit(m)) == classes
        else:
            with pytest.raises(ValueError, match="orbit cap"):
                md.permute_class(m)
            with pytest.raises(ValueError, match="orbit cap"):
                md.is_permutable(md.Theory((m,), {"sel": (0,)}))
    # past BIT_CAP atoms the int itself is refused
    with pytest.raises(ValueError, match="exceed the cap"):
        md.FiniteModel(ABC, {"R": md.Relation(16, frozenset({("a",) * 16}))})  # 3**16 atoms
    wide = {"R": md.Relation(40, frozenset())}
    with pytest.raises(ValueError, match="exceed the cap"):  # atoms are counted over the signature
        md.FiniteModel(ABC, {**wide, "S": md.Relation(1, frozenset({("a",)}))})
    # with no tuple there is no int to build: the model permutes without a table
    tables = dict(md._TABLES)
    empty = md.FiniteModel(ABC, wide)
    assert empty.bits == 0
    assert md.permute_class(empty) == [empty]
    assert len(md.stabiliser(empty)) == 6 and md.is_fully_symmetric_model(empty)
    assert md._TABLES == tables


def test_one_name_tables_ignore_the_arity():
    # on one name every relation has one atom, whatever its arity
    m = md.FiniteModel(["a"], {"P": md.Relation(1, frozenset({("a",)})), "W": md.Relation(10**30, frozenset())})
    assert m.bits == 1
    assert md.permute_class(m) == [m] and md.is_fully_symmetric_model(m)


def test_permute_classes_on_fresh_names_share_one_atom_table(monkeypatch):
    monkeypatch.setattr(md, "_TABLES", {})
    for domain in (ABC, ("x", "y", "z")):
        m = md.FiniteModel(domain, {"R": md.Relation(2, frozenset({domain[:2]}))})
        assert len(md.permute_class(m)) == 6
    assert list(md._TABLES) == [(3, (2,))]
    assert len(md._TABLES[3, (2,)].images) == 6


def test_permutations_past_the_table_budget_map_tuples_by_index_arithmetic(monkeypatch):
    monkeypatch.setattr(md, "_TABLES", {})
    monkeypatch.setattr(md, "ATOM_CAP", 20)  # room for two images of 9 atoms
    lone = md.FiniteModel(ABC, {"R": md.Relation(2, frozenset({("a", "b")}))})
    for _ in range(2):
        cls = md.permute_class(lone)
        assert [model_key(m)[1][0][2] for m in cls] == sorted(
            ((x, y),) for x, y in itertools.permutations(ABC, 2)
        )
        assert list(md._TABLES[3, (2,)].images) == [(1, 2, 3), (1, 3, 2)]
    # the budget is shared: a second table keeps no image of its 4 atoms
    pair = md.FiniteModel(("a", "b"), {"R": md.Relation(2, frozenset({("a", "b")}))})
    assert len(md.permute_class(pair)) == 2
    assert md._TABLES[2, (2,)].images == {}


def burnside_counts(size: int, arities: Sequence[int]) -> list[int]:
    """Permute classes by number of tuples, from conjugacy classes alone:
    (1/n!) Σ_C |C|·Π(1 + x^len) over the cycles that a member of C induces
    on the atoms (Pólya); at x = 1 this is Burnside's (1/n!) Σ_C |C|·2^c(C)."""
    atoms = [(k, t) for k, arity in enumerate(arities) for t in itertools.product(range(1, size + 1), repeat=arity)]
    total = [0] * (len(atoms) + 1)
    for cls in sg.conjugacy_classes(size):
        p, seen, poly = cls.representative, set(), [1]
        for atom in atoms:
            length = 0
            while atom not in seen:
                seen.add(atom)
                length += 1
                atom = (atom[0], tuple(map(p, atom[1])))
            if length:  # poly *= 1 + x**length
                poly = [a + (poly[k - length] if k >= length else 0) for k, a in enumerate(poly + [0] * length)]
        total = [t + cls.size * c for t, c in zip(total, poly)]
    assert all(t % math.factorial(size) == 0 for t in total)
    return [t // math.factorial(size) for t in total]


def class_counts(found: Iterable[md.FiniteModel], atoms: int) -> list[int]:
    """Distinct permute classes by number of tuples, each named by its least member."""
    counts = [0] * (atoms + 1)
    for member in {md.model_to_json(md.permute_class(m)[0]): m for m in found}.values():
        counts[sum(len(rel.tuples) for rel in member.relations.values())] += 1
    return counts


@pytest.mark.parametrize(
    "size,arities",
    [(1, {"P": 1, "R": 2}), (2, {"P": 1, "R": 2}), (3, {"P": 1, "R": 2}), (2, {"T": 3})],
)
def test_permute_classes_match_burnside(size, arities):
    domain = [f"v{k}" for k in range(size)]
    counts = burnside_counts(size, list(arities.values()))
    assert class_counts(md.enumerate_models(domain, arities), len(counts) - 1) == counts


def test_ternary_classes_on_three_names_match_polya_by_tuple_count():
    # 2**27 models are too many to enumerate: compare the classes of up to 3 tuples
    pool = list(itertools.product(ABC, repeat=3))
    few = (
        md.FiniteModel(ABC, {"T": md.Relation(3, frozenset(ts))})
        for k in range(4)
        for ts in itertools.combinations(pool, k)
    )
    counts = burnside_counts(3, [3])
    assert class_counts(few, 27)[:4] == counts[:4]
    # the identity, three swaps (14 atom cycles) and two 3-cycles (9)
    assert sum(counts) == (2**27 + 3 * 2**14 + 2 * 2**9) // 6


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


# prenex sentences, walked as written: exists...exists (and ...) and its dual
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
    assert md.format_formula(md.structure_description(m)) == (
        "(exists _x1 (and (rel R _x1) (exists x2 (and (not (rel R x2)) (!= _x1 x2) "
        "(forall _y (or (= _y _x1) (= _y x2)))))))"
    )


def _renamed(f, var):
    """The formula with each term t written as var.get(t, t)."""
    kind = type(f)
    if kind is md.Rel:
        return md.Rel(f.name, tuple(var.get(t, t) for t in f.args))
    if kind is md.Eq or kind is md.Ne:
        return kind(var.get(f.left, f.left), var.get(f.right, f.right))
    if kind is md.Not:
        return md.Not(_renamed(f.body, var))
    if kind is md.And or kind is md.Or:
        return kind(tuple(_renamed(part, var) for part in f.parts))
    return kind(f.var, _renamed(f.body, var))


def prenex_structure_description(m):
    """exists v1 ... exists vn over the state description with each name
    turned into a variable: the existential closure, unscoped."""
    var = {a: f"v{i + 1}'" for i, a in enumerate(m.domain)}
    body = _renamed(md.state_description(m), var)
    for v in reversed(var.values()):
        body = md.Exists(v, body)
    return body


def test_nested_structure_descriptions_are_the_existential_closure():
    spaces = [
        (space, space)
        for space in (list(md.enumerate_models(ABC[:k], {"R": 2, "P": 1})) for k in (1, 2))
    ]
    three = list(md.enumerate_models(ABC, {"R": 2}))
    spaces.append(({min(md.permute_class(m), key=md.model_to_json) for m in three}, three))
    for targets, space in spaces:
        for target in targets:
            nested, prenex = md.structure_description(target), prenex_structure_description(target)
            assert [md.satisfies(x, nested) for x in space] == [
                satisfies_by_walking(x, prenex) for x in space
            ]


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


def test_theories_may_mix_signatures_whose_models_share_ints():
    # R{(a, b)} and S{(a, b)} are the same int over different signatures
    r_ab, r_ba, s_ab, s_ba = (
        md.FiniteModel(("a", "b"), {name: md.Relation(2, frozenset({t}))})
        for name, t in (("R", ("a", "b")), ("R", ("b", "a")), ("S", ("a", "b")), ("S", ("b", "a")))
    )
    assert r_ab.bits == s_ab.bits and r_ba.bits == s_ba.bits and r_ab != s_ab
    space = (r_ab, r_ba, s_ab)
    assert md.Theory(space, {}).bits == {(("R", 2),): {r_ab.bits, r_ba.bits}, (("S", 2),): {s_ab.bits}}
    with pytest.raises(md.TheoryError, match="duplicate"):
        md.Theory(space + (r_ab,), {})
    theory = md.Theory(space, {"r": (0, 1), "both": (0, 1, 2)})
    assert md.is_permutable(md.Theory(space, {"r": (0, 1)}))
    assert not md.is_permutable(md.Theory(space, {"r": (0,)}))
    with pytest.raises(md.TheoryError, match="absent from the state space"):
        md.is_permutable(theory)  # s_ba is missing, though r_ba has its int
    closed = md.Theory(space + (s_ba,), {"r": (0, 1), "both": (0, 1, 2, 3)})
    assert md.gpc_check(closed) == md.GpcReport(permutable=True, fixed=False)
    assert not md.is_permutable(md.Theory(space + (s_ba,), {"mixed": (0, 3)}))
    # one representative per class and signature, though the classes share ints
    assert md.quotient_selection(closed) == {"r": [r_ab], "both": [r_ab, s_ab]}


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


def test_quotient_picks_the_least_serialised_member_not_the_least_int():
    # in the domain order c, b, a the pair (c, b) has the least atom, and
    # ["a", "b"] the least serialised form
    lone = md.FiniteModel(("c", "b", "a"), {"R": md.Relation(2, frozenset({("c", "b")}))})
    orbit = md.permute_class(lone)
    (rep,) = md.quotient_selection(md.Theory(tuple(orbit[::-1]), {"sel": tuple(range(6))}))["sel"]
    assert rep == orbit[0] and rep.relations["R"].tuples == {("a", "b")}
    assert rep.bits != min(m.bits for m in orbit) == lone.bits


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

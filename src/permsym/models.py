"""Finite first-order models under domain permutations.

A model is a finite ordered domain of distinct names together with named
finite relations.  A permutation P of the domain acts on a relation R by
relabelling:  s is in PR  iff  P^(-1)(s) is in R, i.e. PR is the pointwise
image of R.  A model is *symmetric* when some non-identity permutation
fixes it and *fully symmetric* when all do (equivalently, its permute
class is a singleton).  Every question about the action is read from one
pass over S_n, the model's orbit or its stabiliser, or from the n-1
adjacent transpositions that generate S_n.  A model is symmetric exactly
when its stabiliser holds more than the identity.  Full symmetry, and so
fixity, is asked of the generators only.

Two canonical sentences describe a model in the first-order language with
equality and a name for every individual:

* its *state description*: the conjunction of every signed relation atom,
  all pairwise inequalities of names, and the domain-closure clause
  "everything is one of the names" — true in exactly the model itself
  (categorical over a fixed domain);
* its *structure description*: the state description with names replaced
  by variables, existentially closed — true in exactly the permute class.

Theories are a shared-domain state space plus a selection function from
opaque condition labels to subsets of the space.  A theory is
*permutable* when every selected set is closed under the permute action
(the semantic notion; over finite domains with the space closed under
permutes it coincides with its syntactic counterpart), and has *fixity*
when every selected model is fully symmetric.  Permutability is
ill-posed, and raises TheoryError, when any permute of any selected model
is missing from the state space; that is asked of every selected model
before any selected set is read.  Fixity implies permutability;
gpc_check records both and the implication.

Formulas serialise to s-expressions, e.g.
``(and (rel R a1 a2) (not (rel R a2 a1)))``, whose heads the printer and
the parser read from one table; the printer refuses a name that would
not read back as one token.  The evaluator binds every domain name to
itself before it starts, so a term is one lookup in one environment, and
treats each dual pair (= and !=, and and or, forall and exists) as one
case with a polarity.  Each formula is miniscoped once, its conjuncts
moved out of each exists to the nearest quantifier that binds one of
their terms (disjuncts out of each forall), so that a chain of exists
prunes at the first atom that fails; the last formula's rewrite is kept
for the models that follow.  The rewrite is walked only where no atom can
raise, so errors stay lazy: a branch that is never evaluated raises
nothing.  Models and theories serialise to JSON through one dict form
each, whose readers refuse anything else.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import symgroup
from .symgroup import Permutation


class FormulaError(ValueError):
    """Malformed formula or evaluation against an incompatible model."""


class TheoryError(ValueError):
    """Structurally ill-formed theory or check precondition violation."""


# Atom budget: a state or structure description holds one signed atom per
# tuple of names, and a padded relation one tuple per atom.  Either takes
# about 0.65 KB per atom with its printed or JSON form (measured at arity
# 18 on two names), so 2**20 atoms stay within the 1 GiB that
# hilbert.DIM_CAP allows a dense operator.  Larger enumerations are
# refused before they start.
ATOM_CAP = 2**20

# A structure description nests one exists per name, and the printer and
# the parser take one frame per level: past about 990 names the printer
# exhausts the default recursion limit of 1000.  At 2**9 names, with room
# left for the caller's frames, the description prints and parse_formula
# reads it back.  Larger models are refused before anything is built.
STRUCTURE_NAME_CAP = 2**9


@dataclass(frozen=True)
class Relation:
    """A finite relation: arity plus the set of related name tuples."""

    arity: int
    tuples: frozenset

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError(f"relation arity must be >= 1, got {self.arity}")
        object.__setattr__(self, "tuples", frozenset(tuple(t) for t in self.tuples))
        for t in self.tuples:
            if len(t) != self.arity:
                raise ValueError(f"tuple {t} does not match arity {self.arity}")


class FiniteModel:
    """An ordered finite domain of distinct names with named relations."""

    def __init__(self, domain: Sequence[str], relations: Mapping[str, Relation]):
        domain = tuple(str(a) for a in domain)
        if not domain:
            raise ValueError("empty domain")
        if len(set(domain)) != len(domain):
            raise ValueError(f"domain names must be distinct: {domain}")
        rels = {}
        members = set(domain)
        for name, rel in relations.items():
            for t in rel.tuples:
                for entry in t:
                    if entry not in members:
                        raise ValueError(f"relatum {entry!r} of {name} outside domain")
            rels[str(name)] = rel
        self.domain = domain
        self.relations = rels
        self._key = (
            domain,
            tuple(
                (name, rels[name].arity, tuple(sorted(rels[name].tuples)))
                for name in sorted(rels)
            ),
        )

    @property
    def size(self) -> int:
        return len(self.domain)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteModel) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        rels = {name: sorted(rel.tuples) for name, rel in sorted(self.relations.items())}
        return f"FiniteModel(domain={list(self.domain)}, relations={rels})"


def _check_atoms(size: int, arity: int) -> None:
    # 2**arity <= size**arity, so a long arity is refused without the power
    if size > 1 and (arity >= ATOM_CAP.bit_length() or size**arity > ATOM_CAP):
        raise ValueError(f"{size}**{arity} atoms exceed the cap {ATOM_CAP}")


def pad_relation(model: FiniteModel, name: str, target_arity: int | None = None) -> FiniteModel:
    """Raise a relation's arity by allowing arbitrary trailing relata:
    the padded relation holds of (s1..sk, t...) iff the original holds of
    (s1..sk).  Default target is the domain size."""
    if name not in model.relations:
        raise ValueError(f"no relation named {name!r}")
    rel = model.relations[name]
    target = model.size if target_arity is None else target_arity
    if target < rel.arity:
        raise ValueError(f"cannot pad arity {rel.arity} down to {target}")
    _check_atoms(model.size, target)
    extra = target - rel.arity
    padded = frozenset(
        t + tail for t in rel.tuples for tail in itertools.product(model.domain, repeat=extra)
    )
    rels = dict(model.relations)
    rels[name] = Relation(target, padded)
    return FiniteModel(model.domain, rels)


def apply_perm(perm: Permutation, model: FiniteModel) -> FiniteModel:
    """The permuted model: each relation replaced by its pointwise image
    under the domain relabelling a_k -> a_perm(k)."""
    if perm.n != model.size:
        raise ValueError(f"permutation of 1..{perm.n} on a {model.size}-element domain")
    rename = {model.domain[k - 1]: model.domain[perm(k) - 1] for k in range(1, perm.n + 1)}
    rels = {
        name: Relation(rel.arity, frozenset(tuple(rename[x] for x in t) for t in rel.tuples))
        for name, rel in model.relations.items()
    }
    return FiniteModel(model.domain, rels)


def _orbit(model: FiniteModel) -> set[FiniteModel]:
    """The S_n-orbit of the model, unsorted: the one pass over the group."""
    return {apply_perm(p, model) for p in symgroup.all_permutations(model.size)}


def permute_class(model: FiniteModel) -> list[FiniteModel]:
    """All distinct permutes of the model, sorted by serialised form."""
    return sorted(_orbit(model), key=model_to_json)


def stabiliser(model: FiniteModel) -> list[Permutation]:
    """The permutations that fix the model, in the order of
    :func:`permsym.symgroup.all_permutations`: one pass over the group."""
    return [p for p in symgroup.all_permutations(model.size) if apply_perm(p, model) == model]


def is_symmetric_model(model: FiniteModel) -> bool:
    """Some non-identity permutation fixes the model."""
    return len(stabiliser(model)) > 1


def is_fully_symmetric_model(model: FiniteModel) -> bool:
    """Every permutation fixes the model (singleton permute class), asked
    of the adjacent transpositions that generate S_n."""
    return all(
        apply_perm(s, model) == model for s in symgroup.adjacent_transpositions(model.size)
    )


def enumerate_models(domain: Sequence[str], arities: Mapping[str, int]) -> Iterable[FiniteModel]:
    """Every model on the domain with the given relation signature."""
    domain = tuple(domain)
    names = sorted(arities)
    pools = [
        list(itertools.product(domain, repeat=arities[name])) for name in names
    ]
    for choice in itertools.product(*(range(2 ** len(pool)) for pool in pools)):
        rels = {}
        for name, pool, mask in zip(names, pools, choice):
            rels[name] = Relation(
                arities[name],
                frozenset(t for i, t in enumerate(pool) if mask >> i & 1),
            )
        yield FiniteModel(domain, rels)


# ---------------------------------------------------------------------------
# formulas

@dataclass(frozen=True, slots=True)
class Rel:
    name: str
    args: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Eq:
    left: str
    right: str


@dataclass(frozen=True, slots=True)
class Ne:
    left: str
    right: str


@dataclass(frozen=True, slots=True)
class Not:
    body: "Formula"


@dataclass(frozen=True, slots=True)
class And:
    parts: tuple["Formula", ...]


@dataclass(frozen=True, slots=True)
class Or:
    parts: tuple["Formula", ...]


@dataclass(frozen=True, slots=True)
class ForAll:
    var: str
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Exists:
    var: str
    body: "Formula"


Formula = Rel | Eq | Ne | Not | And | Or | ForAll | Exists


def _miniscope(formula: Formula) -> tuple:
    """The formula rewritten so that quantifiers prune, its free terms and
    the (relation, arity) pairs it uses.  None in place of the rewrite when
    no conjunct moved, or when some node is malformed (not a formula node,
    unhashable terms) or nests past the recursion limit: the walker raises
    for those only if it reaches them.

    One bottom-up pass, one frame per nesting level.  Nested and/or are
    flattened and quantified blocks put after the other parts.  Inside
    exists x (A and ...), each conjunct without x free moves out of the
    quantifier, and so on up to the nearest one that binds one of its free
    terms; forall x (A or ...) likewise.  A quantifier keeps at least one
    part, so the rewrite has the same truth value on every domain, the
    empty one included, wherever no atom can raise.
    """
    used: set[tuple[str, int]] = set()
    moved = False

    def scope(f) -> tuple:
        # (node, its free terms, and for an and/or node its (part, free)
        # pairs); an atom's terms stay the tuple it holds
        nonlocal moved
        kind = type(f)
        if kind is Rel:
            used.add((f.name, len(f.args)))
            return f, f.args, None
        if kind is Eq or kind is Ne:
            return f, (f.left, f.right), None
        if kind is Not:
            body, free, _ = scope(f.body)
            return f if body is f.body else Not(body), free, None
        if kind is And or kind is Or:
            pairs, free = [], set()
            for part in f.parts:
                node, got, sub = scope(part)
                free.update(got)
                if type(node) is kind:
                    pairs.extend(sub)
                else:
                    pairs.append((node, got))
            return _junction(kind, pairs), free, pairs
        if kind is ForAll or kind is Exists:
            body, free, sub = scope(f.body)
            free = set(free)
            free.discard(f.var)
            junction = type(body)
            if junction is (And if kind is Exists else Or):
                inner = [pair for pair in sub if f.var in pair[1]]
                pairs = [pair for pair in sub if f.var not in pair[1]]
                if inner and pairs:
                    moved = True
                    block_free = set()
                    for _, got in inner:
                        block_free.update(got)
                    block_free.discard(f.var)
                    block = inner[0][0] if len(inner) == 1 else _junction(junction, inner)
                    pairs.append((kind(f.var, block), block_free))
                    return _junction(junction, pairs), free, pairs
            return kind(f.var, body), free, None
        raise FormulaError(f"not a formula node: {f!r}")

    try:
        scoped, free, _ = scope(formula)
    except (FormulaError, TypeError, RecursionError):
        moved = False
    if not moved:
        return None, frozenset(), frozenset()
    return scoped, frozenset(free), frozenset(used)


def _junction(kind: type, pairs: list) -> Formula:
    """The and/or of the parts of (part, free) pairs, quantified blocks last."""
    pairs.sort(key=lambda pair: type(pair[0]) is ForAll or type(pair[0]) is Exists)
    return kind(tuple(part for part, _ in pairs))


def _clean(model: FiniteModel, env: dict, free: frozenset, used: frozenset) -> bool:
    """No atom of a formula with these free terms and (relation, arity)
    pairs can raise in the model, whichever the walker reaches first."""
    if not env.keys() >= free:
        return False
    for name, arity in used:
        rel = model.relations.get(name)
        if rel is None or rel.arity != arity:
            return False
    return True


# The last formula satisfies was asked and its _miniscope entry.  Callers
# ask one formula of many models in a row, so one entry suffices, matched
# by identity: an equality key hashes the frozen dataclass tree on every
# call, which cost more than the rewrite saved.
_last: tuple = (None, None, frozenset(), frozenset())


def satisfies(model: FiniteModel, formula: Formula) -> bool:
    """Evaluate a closed formula in the model.

    Every domain name starts bound to itself, and quantifier bindings
    shadow it, so a term is one lookup; anything else is an unbound symbol
    and raises when it is reached.  Quantifiers range over the domain.

    The walker evaluates the formula's miniscoped rewrite (see _miniscope),
    in which exists x1 exists x2 (...) stops at the first atom that an
    assignment of x1 fails, when nothing in the formula can raise in this
    model: every relation it names exists with the arity it uses, and
    every free term is a domain name.  The rewrite is made once per formula
    and kept in one entry, matched by identity, for the calls that follow
    with the same formula object.  The formula is walked as written, in its
    own order, when it can raise, so that errors stay lazy (an error in a
    branch that is never reached raises nothing), and when the rewrite
    moved nothing or nests too deeply to walk.
    """
    global _last
    entry = _last
    if entry[0] is not formula:
        entry = _last = (formula, *_miniscope(formula))
    _, scoped, free, used = entry
    env = {a: a for a in model.domain}

    def ev(f: Formula) -> bool:
        kind = type(f)
        if kind is Rel:
            rel = model.relations.get(f.name)
            if rel is None:
                raise FormulaError(f"unknown relation {f.name!r}")
            if len(f.args) != rel.arity:
                raise FormulaError(
                    f"relation {f.name!r} has arity {rel.arity}, got {len(f.args)} terms"
                )
            return tuple(map(env.__getitem__, f.args)) in rel.tuples
        if kind is Not:
            return not ev(f.body)
        if kind is And or kind is Or:
            return (all if kind is And else any)(map(ev, f.parts))
        if kind is Eq or kind is Ne:
            return (env[f.left] == env[f.right]) is (kind is Eq)
        if kind is ForAll or kind is Exists:
            # the first body that holds decides an exists, the first that
            # fails a forall; bindings are names, so None marks "was unbound"
            witness = kind is Exists
            shadowed = env.get(f.var)
            try:
                for a in model.domain:
                    env[f.var] = a
                    if ev(f.body) is witness:
                        return witness
                return not witness
            finally:
                if shadowed is None:
                    del env[f.var]
                else:
                    env[f.var] = shadowed
        raise FormulaError(f"not a formula node: {f!r}")

    try:
        if scoped is not None and _clean(model, env, free, used):
            try:
                return ev(scoped)
            except RecursionError:
                # an exists-chain nests three frames deep per quantifier in
                # the rewrite, against one as written
                pass
        return ev(formula)
    except KeyError as exc:
        raise FormulaError(
            f"unbound symbol {exc.args[0]!r} (not a quantified variable or a name)"
        ) from None


def _fresh(stem: str, taken: Iterable[str]) -> str:
    taken = set(taken)
    name = stem
    while name in taken:
        name = "_" + name
    return name


def _description(model: FiniteModel, term: Mapping[str, str]) -> Formula:
    """Every relation atom signed as it holds, all pairwise inequalities and
    the closure clause that everything is one of the terms, with each name
    a written as term[a]."""
    # the pairwise inequalities grow like one binary relation
    for arity in (2, *(rel.arity for rel in model.relations.values())):
        _check_atoms(model.size, arity)
    parts: list[Formula] = []
    for name in sorted(model.relations):
        rel = model.relations[name]
        for t in itertools.product(model.domain, repeat=rel.arity):
            atom = Rel(name, tuple(term[a] for a in t))
            parts.append(atom if t in rel.tuples else Not(atom))
    terms = [term[a] for a in model.domain]
    parts.extend(Ne(left, right) for left, right in itertools.combinations(terms, 2))
    y = _fresh("y", model.domain)
    parts.append(ForAll(y, Or(tuple(Eq(y, t) for t in terms))))
    return And(tuple(parts))


def state_description(model: FiniteModel) -> Formula:
    """The conjunction true in exactly this model (over its domain):
    every relation atom signed as it holds, all pairwise name
    inequalities, and the closure clause that everything is a name."""
    return _description(model, {a: a for a in model.domain})


def structure_description(model: FiniteModel) -> Formula:
    """The existential closure of the state description with names turned
    into variables; true in exactly the permute class of the model.
    Refused past STRUCTURE_NAME_CAP names."""
    if model.size > STRUCTURE_NAME_CAP:
        raise ValueError(
            f"{model.size} names exceed the structure description cap {STRUCTURE_NAME_CAP}"
        )
    to_var = {a: _fresh(f"x{i + 1}", model.domain) for i, a in enumerate(model.domain)}
    body = _description(model, to_var)
    for a in reversed(model.domain):
        body = Exists(to_var[a], body)
    return body


# ---------------------------------------------------------------------------
# s-expression form

# the s-expression head of each node kind, and the kind of each head
_HEAD = {
    Rel: "rel", Eq: "=", Ne: "!=", Not: "not",
    And: "and", Or: "or", ForAll: "forall", Exists: "exists",
}
_KIND = {head: kind for kind, head in _HEAD.items()}


def _token(word: str) -> str:
    """A relation name, term or variable as the one token parse_formula reads back."""
    if word.split() != [word] or "(" in word or ")" in word:
        raise FormulaError(f"{word!r} cannot be written as one s-expression token")
    return word


def format_formula(f: Formula) -> str:
    kind = type(f)
    if kind not in _HEAD:
        raise FormulaError(f"not a formula node: {f!r}")
    if kind is Rel:
        words = map(_token, (f.name, *f.args))
    elif kind is Eq or kind is Ne:
        words = (_token(f.left), _token(f.right))
    elif kind is Not:
        words = (format_formula(f.body),)
    elif kind is And or kind is Or:
        words = map(format_formula, f.parts)
    else:
        words = (_token(f.var), format_formula(f.body))
    return f"({_HEAD[kind]} {' '.join(words)})"


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_formula(text: str) -> Formula:
    tokens = _tokenize(text)
    if not tokens:
        raise FormulaError("empty formula")
    pos = 0

    def need(what: str) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise FormulaError(f"unexpected end of formula, wanted {what}")
        tok = tokens[pos]
        pos += 1
        return tok

    def atom_token(what: str) -> str:
        tok = need(what)
        if tok in ("(", ")"):
            raise FormulaError(f"wanted {what}, got {tok!r}")
        return tok

    def until_close(item) -> tuple:
        nonlocal pos
        items = []
        while tokens[pos : pos + 1] != [")"]:
            items.append(item())
        pos += 1
        return tuple(items)

    def read() -> Formula:
        tok = need("a formula")
        if tok != "(":
            raise FormulaError(f"formulas start with '(', got {tok!r}")
        head = atom_token("an operator")
        kind = _KIND.get(head)
        if kind is None:
            raise FormulaError(f"unknown operator {head!r}")
        if kind is Rel:
            name = atom_token("a relation name")
            args = until_close(lambda: atom_token("a term"))
            if not args:
                raise FormulaError("relation atom needs at least one term")
            return Rel(name, args)
        if kind is And or kind is Or:
            parts = until_close(read)
            if not parts:
                raise FormulaError(f"{head} needs at least one part")
            return kind(parts)
        if kind is Eq or kind is Ne:
            node, takes = kind(atom_token("a term"), atom_token("a term")), "exactly two terms"
        elif kind is Not:
            node, takes = Not(read()), "exactly one formula"
        else:
            node, takes = kind(atom_token("a variable"), read()), "a variable and one formula"
        if need("')'") != ")":
            raise FormulaError(f"{head} takes {takes}")
        return node

    try:
        out = read()
    except RecursionError:
        raise FormulaError("formula nests too deeply to read") from None
    if pos != len(tokens):
        raise FormulaError(f"trailing tokens after formula: {tokens[pos:]}")
    return out


# ---------------------------------------------------------------------------
# theories

@dataclass(frozen=True)
class Theory:
    """A shared-domain state space with a selection function on labels."""

    space: tuple[FiniteModel, ...]
    selection: Mapping[str, tuple[int, ...]]

    def __post_init__(self) -> None:
        if not self.space:
            raise TheoryError("empty state space")
        domain = self.space[0].domain
        for m in self.space:
            if m.domain != domain:
                raise TheoryError("state space mixes domains")
        if len(set(self.space)) != len(self.space):
            raise TheoryError("duplicate models in the state space")
        object.__setattr__(
            self,
            "selection",
            {str(k): tuple(int(i) for i in v) for k, v in dict(self.selection).items()},
        )
        for label, idxs in self.selection.items():
            for i in idxs:
                if not 0 <= i < len(self.space):
                    raise TheoryError(f"selection {label!r} references model {i}")
            if len(set(idxs)) != len(idxs):
                raise TheoryError(f"selection {label!r} repeats a model")

    def selected(self, label: str) -> list[FiniteModel]:
        return [self.space[i] for i in self.selection[label]]


def is_permutable(theory: Theory) -> bool:
    """Semantic permutability: every selected set holds the orbit of each
    of its models.  Each distinct orbit is computed once, and if any
    permute of any selected model is missing from the state space the
    check is ill-posed and raises, whatever the other verdicts."""
    space = set(theory.space)
    chosen = {label: set(theory.selected(label)) for label in theory.selection}
    orbit_of: dict[FiniteModel, set[FiniteModel]] = {}
    for label, picked in chosen.items():
        for m in picked:
            if m in orbit_of:
                continue
            orbit = _orbit(m)
            if not orbit <= space:
                raise TheoryError(
                    f"permute of a model selected by {label!r} is absent "
                    "from the state space"
                )
            orbit_of.update(dict.fromkeys(orbit, orbit))
    return all(orbit_of[m] <= picked for picked in chosen.values() for m in picked)


def has_fixity(theory: Theory) -> bool:
    """Every model the theory ever selects is fully symmetric."""
    return all(
        is_fully_symmetric_model(m)
        for label in theory.selection
        for m in theory.selected(label)
    )


@dataclass(frozen=True)
class GpcReport:
    permutable: bool
    fixed: bool

    @property
    def consistent(self) -> bool:
        # fixity must imply permutability
        return (not self.fixed) or self.permutable


def gpc_check(theory: Theory) -> GpcReport:
    """Evaluate permutability and fixity; their relation (fixity implies
    permutability) is recorded by the report's ``consistent`` flag."""
    return GpcReport(is_permutable(theory), has_fixity(theory))


def quotient_selection(theory: Theory) -> dict[str, list[FiniteModel]]:
    """Collapse each selected set to one representative per permute class
    (the lexicographically least serialised member).  Requires a
    permutable theory, otherwise classes would leak out of the selection."""
    if not is_permutable(theory):
        raise TheoryError("quotient of a non-permutable theory is ill-defined")
    return {
        label: sorted({permute_class(m)[0] for m in theory.selected(label)}, key=model_to_json)
        for label in theory.selection
    }


# ---------------------------------------------------------------------------
# JSON forms

def model_obj(model: FiniteModel) -> dict:
    return {
        "domain": list(model.domain),
        "relations": {
            name: {"arity": rel.arity, "tuples": sorted(list(t) for t in rel.tuples)}
            for name, rel in sorted(model.relations.items())
        },
    }


def model_to_json(model: FiniteModel) -> str:
    return json.dumps(model_obj(model))


_JSON_TYPES = {dict: "an object", list: "an array", int: "an integer", str: "a string"}


def _typed(x, kind: type, what: str):
    # type(), not isinstance(): JSON true and false are not integers
    if type(x) is not kind:
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}")
    return x


def _strings(x, what: str) -> tuple[str, ...]:
    return tuple(_typed(s, str, f"each entry of {what}") for s in _typed(x, list, what))


def _loads(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"bad JSON: {exc}") from exc


def model_from_obj(obj) -> FiniteModel:
    """The model of a :func:`model_obj` dict.  Anything else raises
    ValueError: names and relata must be strings, arities JSON integers
    (not booleans), and every container of its JSON type."""
    obj = _typed(obj, dict, "a model")
    rels = {}
    for name, spec in _typed(obj.get("relations", {}), dict, "the relations").items():
        spec = _typed(spec, dict, f"relation {name!r}")
        tuples = _typed(spec.get("tuples"), list, f"the tuples of {name!r}")
        rels[name] = Relation(
            _typed(spec.get("arity"), int, f"the arity of {name!r}"),
            frozenset(_strings(t, f"a tuple of {name!r}") for t in tuples),
        )
    return FiniteModel(_strings(obj.get("domain"), "the domain"), rels)


def model_from_json(text: str) -> FiniteModel:
    return model_from_obj(_loads(text))


def theory_obj(theory: Theory) -> dict:
    return {
        "space": [model_obj(m) for m in theory.space],
        "selection": {
            label: list(theory.selection[label]) for label in sorted(theory.selection)
        },
    }


def theory_to_json(theory: Theory) -> str:
    return json.dumps(theory_obj(theory))


def theory_from_json(text: str) -> Theory:
    """The theory of a :func:`theory_obj` text: models as
    :func:`model_from_obj` reads them, indices JSON integers.  Malformed
    JSON raises ValueError, and a well-formed but ill-formed theory its
    subclass TheoryError."""
    obj = _typed(_loads(text), dict, "a theory")
    space = tuple(model_from_obj(m) for m in _typed(obj.get("space"), list, "the space"))
    selection = {
        label: tuple(
            _typed(i, int, f"each index of {label!r}")
            for i in _typed(idxs, list, f"selection {label!r}")
        )
        for label, idxs in _typed(obj.get("selection", {}), dict, "the selection").items()
    }
    return Theory(space, selection)

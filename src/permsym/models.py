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

A model is also an int.  The atoms of a domain size n and a signature
(the relations' names and arities) are listed relation by relation in
name order, each relation's tuples of domain positions in lexicographic
order, and the model is the int whose set bits are its tuples' atoms,
found by index arithmetic.  Equality and the hash compare (domain,
signature, int), and a permutation moves the int by the same arithmetic,
each name read at its image's position.  The ints live within BIT_CAP.
Theories hold their space's ints with their signatures, so
permutability, fixity and quotients are asked of ints.

Two canonical sentences describe a model in the first-order language with
equality and a name for every individual:

* its *state description*: the conjunction of every signed relation atom,
  all pairwise inequalities of names, and the domain-closure clause
  "everything is one of the names" — true in exactly the model itself
  (categorical over a fixed domain);
* its *structure description*: the state description with names replaced
  by variables, existentially closed — true in exactly the permute class.

Theories are a state space of one domain plus a selection function from
opaque condition labels to subsets of the space; two toy theories, the
renovators and the scribes, are built at the end of this module.
A theory is *permutable* when every selected set is closed under the
permute action (the semantic notion; over finite domains with the space
closed under permutes it coincides with its syntactic counterpart), and
has *fixity* when every selected model is fully symmetric.  Permutability is
ill-posed, and raises TheoryError, when any permute of any selected model
is missing from the state space; that is asked of every selected model
before any selected set is read.  Fixity implies permutability;
gpc_check records both and the implication.

Formulas serialise to s-expressions, e.g.
``(and (rel R a1 a2) (not (rel R a2 a1)))``, whose heads the printer and
the parser read from one table; the printer refuses a name that would
not read back as one token.  The evaluator binds every domain name to
itself before it starts, so a term is one lookup in one environment,
treats each dual pair (= and !=, and and or, forall and exists) as one
case with a polarity, and walks each formula once, as written, so errors
stay lazy: a branch that is never evaluated raises nothing.  The
structure description is built miniscoped (Harrison, *Handbook of
Practical Logic and Automated Reasoning*, 2009), each conjunct under the
exists of the last variable it mentions, so that its chain of exists
prunes at the first atom that fails.  Models and theories serialise to
JSON through one dict form each, whose readers refuse anything else.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
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

# A model with a tuple is an int of one bit per atom of its domain size and
# signature, an eighth of a byte where a description takes 0.65 KB, so it
# is refused only past 2**24 atoms, a 2 MiB int: three names with a 15-ary
# tuple fit.  An orbit holds up to n! such ints, so it is not built when
# n! ints of every atom would pass 2**33 bits (1 GiB): on 8 names, a
# relation of arity 6 is refused there, one of arity 5 is not.
BIT_CAP = 2**24
ORBIT_BIT_CAP = 2**33

# A structure description nests one exists and one and per name, and the
# printer, the parser and the walker of satisfies each take about three
# frames per name (CPython 3.11): each exhausts the default recursion limit
# of 1000 at about 330 names.  At 2**8 names, with room left for the
# caller's frames, the description prints, parse_formula reads it back and
# satisfies evaluates it; at 2**9 the printer raises RecursionError.
# Larger models are refused before anything is built.
STRUCTURE_NAME_CAP = 2**8


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


def _relation(arity: int, tuples: frozenset) -> Relation:
    """A Relation of tuples already known to be tuples of its arity, unchecked."""
    rel = object.__new__(Relation)
    object.__setattr__(rel, "arity", arity)
    object.__setattr__(rel, "tuples", tuples)
    return rel


def _offsets(size: int, arities: Sequence[int]) -> list[int]:
    """Each relation's first atom, then the number of atoms; refused past BIT_CAP."""
    for arity in arities:
        _check_atoms(size, arity, BIT_CAP)
    offsets = list(itertools.accumulate((size**arity for arity in arities), initial=0))
    if offsets[-1] > BIT_CAP:
        raise ValueError(f"{offsets[-1]} atoms exceed the cap {BIT_CAP}")
    return offsets


def _atoms(relations, signature, offsets, position: Mapping[str, int]) -> list[int]:
    """The atom of every tuple, each relatum a at domain position position[a]."""
    n, atoms = len(position), []
    for (name, _), offset in zip(signature, offsets):
        for t in relations[name].tuples:
            atom = 0
            for entry in t:
                k = position.get(entry)
                if k is None:
                    raise ValueError(f"relatum {entry!r} of {name} outside domain")
                atom = atom * n + k
            atoms.append(offset + atom)
    return atoms


def _bits(atoms: Sequence[int]) -> int:
    """The int with exactly the given distinct atoms set, in linear time."""
    buf = bytearray(max(atoms, default=-1) // 8 + 1)
    for a in atoms:
        buf[a >> 3] |= 1 << (a & 7)
    return int.from_bytes(buf, "little")


class FiniteModel:
    """An ordered finite domain of distinct names with named relations.

    ``signature`` lists the relations' (name, arity) in name order, and
    ``bits`` is the model as an int over the atoms of its domain size and
    signature: with n names, relation k's tuple of domain positions
    (i1, ..., ia) is atom ``offsets[k] + i1*n**(a-1) + ... + ia``.
    Equality compares (domain, signature, bits), through a hash computed
    once.  A model with a tuple among more than BIT_CAP atoms is refused.
    """

    def __init__(self, domain: Sequence[str], relations: Mapping[str, Relation]):
        domain = tuple(str(a) for a in domain)
        if not domain:
            raise ValueError("empty domain")
        position = {a: k for k, a in enumerate(domain)}
        if len(position) != len(domain):
            raise ValueError(f"domain names must be distinct: {domain}")
        rels = {str(name): rel for name, rel in relations.items()}
        signature = tuple(sorted((name, rel.arity) for name, rel in rels.items()))
        offsets, atoms = [0], []
        if any(rel.tuples for rel in rels.values()):
            offsets = _offsets(len(domain), [arity for _, arity in signature])
            atoms = _atoms(rels, signature, offsets, position)
        self._set(domain, rels, signature, offsets, atoms)

    def _set(self, domain, relations, signature, offsets, atoms) -> None:
        self.domain = domain
        self.relations = relations
        self.signature = signature
        self._offsets = offsets
        self.bits = _bits(atoms)
        self._hash = hash((domain, signature, self.bits))

    @property
    def size(self) -> int:
        return len(self.domain)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, FiniteModel)
            and self._hash == other._hash
            and self.bits == other.bits
            and self.signature == other.signature
            and self.domain == other.domain
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        rels = {name: sorted(rel.tuples) for name, rel in sorted(self.relations.items())}
        return f"FiniteModel(domain={list(self.domain)}, relations={rels})"


def _check_atoms(size: int, arity: int, cap: int) -> None:
    # 2**arity <= size**arity, so a long arity is refused without the power
    if size > 1 and (arity >= cap.bit_length() or size**arity > cap):
        raise ValueError(f"{size}**{arity} atoms exceed the cap {cap}")


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
    _check_atoms(model.size, target, ATOM_CAP)
    extra = target - rel.arity
    padded = frozenset(
        t + tail for t in rel.tuples for tail in itertools.product(model.domain, repeat=extra)
    )
    rels = dict(model.relations)
    rels[name] = Relation(target, padded)
    return FiniteModel(model.domain, rels)


def _image_atoms(perm: Permutation, model: FiniteModel) -> list[int]:
    if not model.bits:
        return []
    moved = dict(zip(model.domain, (k - 1 for k in perm.images)))
    return _atoms(model.relations, model.signature, model._offsets, moved)


def _image_bits(perm: Permutation, model: FiniteModel) -> int:
    return _bits(_image_atoms(perm, model))


def apply_perm(perm: Permutation, model: FiniteModel) -> FiniteModel:
    """The permuted model: each relation replaced by its pointwise image
    under the domain relabelling a_k -> a_perm(k), unvalidated."""
    if perm.n != model.size:
        raise ValueError(f"permutation of 1..{perm.n} on a {model.size}-element domain")
    domain = model.domain
    rename = dict(zip(domain, (domain[k - 1] for k in perm.images))).__getitem__
    rels = {
        name: _relation(rel.arity, frozenset(tuple(map(rename, t)) for t in rel.tuples))
        for name, rel in model.relations.items()
    }
    atoms = _image_atoms(perm, model)
    image = object.__new__(FiniteModel)
    image._set(domain, rels, model.signature, model._offsets, atoms)
    return image


def _orbit(model: FiniteModel) -> dict[int, Permutation]:
    """The S_n-orbit of the model as ints, each with the first permutation
    of :func:`permsym.symgroup.all_permutations` that reaches it: the one
    pass over the group."""
    group = symgroup.all_permutations(model.size)
    if model.bits and len(group) * model._offsets[-1] > ORBIT_BIT_CAP:
        count = model._offsets[-1]
        raise ValueError(f"{len(group)} images of {count} atoms exceed the orbit cap {ORBIT_BIT_CAP}")
    orbit: dict[int, Permutation] = {}
    for p in group:
        orbit.setdefault(_image_bits(p, model), p)
    return orbit


def permute_class(model: FiniteModel) -> list[FiniteModel]:
    """All distinct permutes of the model, sorted by serialised form."""
    return sorted((apply_perm(p, model) for p in _orbit(model).values()), key=model_to_json)


def stabiliser(model: FiniteModel) -> list[Permutation]:
    """The permutations that fix the model, in the order of
    :func:`permsym.symgroup.all_permutations`: one pass over the group."""
    return [p for p in symgroup.all_permutations(model.size) if _image_bits(p, model) == model.bits]


def is_symmetric_model(model: FiniteModel) -> bool:
    """Some non-identity permutation fixes the model."""
    return len(stabiliser(model)) > 1


def is_fully_symmetric_model(model: FiniteModel) -> bool:
    """Every permutation fixes the model (singleton permute class), asked
    of the adjacent transpositions that generate S_n."""
    return all(
        _image_bits(s, model) == model.bits for s in symgroup.adjacent_transpositions(model.size)
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


def satisfies(model: FiniteModel, formula: Formula) -> bool:
    """Evaluate a closed formula in the model, walking it once as written.

    Every domain name starts bound to itself, and quantifier bindings
    shadow it, so a term is one lookup; anything else is an unbound symbol
    and raises when it is reached.  Quantifiers range over the domain.
    Errors are lazy: an atom in a branch that is never evaluated raises
    nothing.  An exists prunes only as far as the formula is miniscoped:
    structure_description builds its formula so that each exists stops at
    the first atom that an assignment of the outer variables fails.
    """
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


def _description(model: FiniteModel, term: Mapping[str, str]) -> list[tuple[int, Formula]]:
    """Every relation atom signed as it holds, all pairwise inequalities and
    the closure clause that everything is one of the terms, with each name
    a written as term[a]; each conjunct paired with the domain position of
    the last name it mentions."""
    # the pairwise inequalities grow like one binary relation
    for arity in (2, *(rel.arity for rel in model.relations.values())):
        _check_atoms(model.size, arity, ATOM_CAP)
    position = {a: k for k, a in enumerate(model.domain)}
    parts: list[tuple[int, Formula]] = []
    for name in sorted(model.relations):
        rel = model.relations[name]
        for t in itertools.product(model.domain, repeat=rel.arity):
            atom = Rel(name, tuple(term[a] for a in t))
            last = max(map(position.__getitem__, t))
            parts.append((last, atom if t in rel.tuples else Not(atom)))
    terms = [term[a] for a in model.domain]
    parts.extend(
        (j, Ne(terms[i], terms[j])) for i, j in itertools.combinations(range(len(terms)), 2)
    )
    y = _fresh("y", model.domain)
    parts.append((len(terms) - 1, ForAll(y, Or(tuple(Eq(y, t) for t in terms)))))
    return parts


def state_description(model: FiniteModel) -> Formula:
    """The conjunction true in exactly this model (over its domain):
    every relation atom signed as it holds, all pairwise name
    inequalities, and the closure clause that everything is a name."""
    return And(tuple(part for _, part in _description(model, {a: a for a in model.domain})))


def structure_description(model: FiniteModel) -> Formula:
    """The existential closure of the state description with names turned
    into variables; true in exactly the permute class of the model.
    Refused past STRUCTURE_NAME_CAP names.

    Built miniscoped: each conjunct goes under the exists of the last
    variable it mentions, in its order in the state description and before
    the nested exists, so that an assignment of x1 that fails an atom on x1
    alone is rejected before x2 is bound.  A level with no conjunct of its
    own is the bare nested exists.
    """
    if model.size > STRUCTURE_NAME_CAP:
        raise ValueError(
            f"{model.size} names exceed the structure description cap {STRUCTURE_NAME_CAP}"
        )
    variables = [_fresh(f"x{i + 1}", model.domain) for i in range(model.size)]
    own: list[list[Formula]] = [[] for _ in variables]
    for last, part in _description(model, dict(zip(model.domain, variables))):
        own[last].append(part)
    # the innermost level holds at least the closure clause
    formula = Exists(variables[-1], And(tuple(own[-1])))
    for var, parts in zip(variables[-2::-1], own[-2::-1]):
        formula = Exists(var, And((*parts, formula)) if parts else formula)
    return formula


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
    # the space's (signature, int) pairs, built once: models of two
    # signatures may share an int
    keys: frozenset[tuple[tuple, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.space:
            raise TheoryError("empty state space")
        domain = self.space[0].domain
        for m in self.space:
            if m.domain != domain:
                raise TheoryError("state space mixes domains")
        keys = frozenset((m.signature, m.bits) for m in self.space)
        if len(keys) != len(self.space):
            raise TheoryError("duplicate models in the state space")
        object.__setattr__(self, "keys", keys)
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
    of its models, asked of ints.  Each distinct orbit is computed once,
    and if any permute of any selected model is missing from the state
    space the check is ill-posed and raises, whatever the other verdicts."""
    orbit_of: dict[tuple[tuple, int], frozenset] = {}  # by (signature, int)
    for label in theory.selection:
        for m in theory.selected(label):
            if (m.signature, m.bits) in orbit_of:
                continue
            orbit = frozenset((m.signature, b) for b in _orbit(m))
            if not orbit <= theory.keys:
                raise TheoryError(
                    f"permute of a model selected by {label!r} is absent "
                    "from the state space"
                )
            orbit_of.update(dict.fromkeys(orbit, orbit))
    picks = ({(m.signature, m.bits) for m in theory.selected(label)} for label in theory.selection)
    return all(orbit_of[key] <= picked for picked in picks for key in picked)


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
    permutable theory, otherwise classes would leak out of the selection;
    so each class is the selected models of one signature whose orbit has
    the same least int."""
    if not is_permutable(theory):
        raise TheoryError("quotient of a non-permutable theory is ill-defined")
    quotient = {}
    for label in theory.selection:
        classes: dict[tuple, list[FiniteModel]] = {}
        for m in theory.selected(label):
            classes.setdefault((m.signature, min(_orbit(m))), []).append(m)
        quotient[label] = sorted(
            (min(members, key=model_to_json) for members in classes.values()), key=model_to_json
        )
    return quotient


# ---------------------------------------------------------------------------
# toy selection theories

def renovators_theory() -> Theory:
    """Three interchangeable renovators, one job each; the theory selects
    every way of handing out the jobs, so it is permutable but keeps
    selecting asymmetric worlds (no fixity)."""
    domain = ("r1", "r2", "r3")
    jobs = ("wires", "plumbs", "paints")
    base = FiniteModel(
        domain,
        {job: Relation(1, frozenset({(worker,)})) for job, worker in zip(jobs, domain)},
    )
    space = permute_class(base)
    return Theory(tuple(space), {"workday": tuple(range(len(space)))})


def scribes_theory() -> Theory:
    """Three scribes who always act in unison (all copy, or all rest):
    every selected world is fully symmetric, so the theory has fixity."""
    domain = ("s1", "s2", "s3")
    everyone = frozenset((s,) for s in domain)
    copying = FiniteModel(domain, {"copies": Relation(1, everyone)})
    resting = FiniteModel(domain, {"copies": Relation(1, frozenset())})
    return Theory((copying, resting), {"workday": (0,), "restday": (1,)})


def toy_theories() -> dict[str, Theory]:
    return {"renovators": renovators_theory(), "scribes": scribes_theory()}


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

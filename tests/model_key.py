"""Test oracle: the identity of a finite model as a sorted tuple.

``models.FiniteModel`` compares and hashes its domain, its signature and
its int over the atoms of that signature.  The tuple here is the same
identity spelled out: the ordered domain, then each relation's name,
arity and sorted tuples, in name order.  An empty relation stays in it,
so two models that differ only by one compare unequal.
"""


def model_key(model) -> tuple:
    return (
        model.domain,
        tuple(
            (name, rel.arity, tuple(sorted(rel.tuples)))
            for name, rel in sorted(model.relations.items())
        ),
    )

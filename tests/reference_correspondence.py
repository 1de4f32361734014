"""The correspondence check with each rule written out, kept as a reference
for tests.

``validate_correspondence`` states the rule once, by comparing each side of
a vertex's pairs with its padded partner-set difference as a multiset.
This copy checks the same rule in three parts: every real difference
member appears exactly once on its side, the x side holds exactly
max(0, |N(v)| - |M(v)|) bottoms, and the y side holds symmetrically many.
The two must accept and reject the same correspondences.
"""

from __future__ import annotations


def reference_validate_correspondence(inst, m, n, corr) -> None:
    """Raise ValueError unless corr is a correspondence for (m, n)."""
    unknown = set(corr.pairs) - set(inst.all_vertices())
    if unknown:
        raise ValueError(f"correspondence mentions unknown vertices: {unknown}")
    for v in inst.all_vertices():
        mine, theirs = m.partners(v), n.partners(v)
        left_real = mine - theirs
        right_real = theirs - mine
        listed = corr.pairs.get(v, ())
        xs = [x for x, _ in listed if x is not None]
        ys = [y for _, y in listed if y is not None]
        if sorted(xs) != sorted(left_real) or sorted(ys) != sorted(right_real):
            raise ValueError(f"correspondence at {v} does not cover the difference")
        left_bottoms = sum(1 for x, _ in listed if x is None)
        right_bottoms = sum(1 for _, y in listed if y is None)
        if left_bottoms != max(0, len(right_real) - len(left_real)):
            raise ValueError(f"wrong number of left bottoms at {v}")
        if right_bottoms != max(0, len(left_real) - len(right_real)):
            raise ValueError(f"wrong number of right bottoms at {v}")

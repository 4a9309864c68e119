"""What a basis held by the pair loop stands for, as plain generators.

``groebner._close`` holds a reduced ideal basis once, over the base ring:
each g stands for g e_k at every position k of a free module, and for
itself in a ring.  Tests spell that out to compare with a plain closure.
"""

from ngtrace.polyring import FreeModule


def spread_basis(ring, basis) -> list:
    """g e_k at every position k of a free module, g in a ring."""
    if isinstance(ring, FreeModule):
        return [ring.vector({k: g}) for k in range(ring.rank) for g in basis]
    return list(basis)

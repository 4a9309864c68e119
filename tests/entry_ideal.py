"""The n = 3 entry-ideal route: a test oracle for the n = 3 clause rule.

For three columns the canonical trace ideal of a deformed ring is generated
by the entries of its presentation matrix, so the ring is nearly Gorenstein
iff every variable lies in the ideal of the entries (the minors lie inside
it).  This decides by one Groebner basis, independently of the clauses.
"""

from ngtrace.groebner import buchberger
from ngtrace.higher_dim import HigherDimInstance
from ngtrace.polyring import Polynomial


def trace_n3(hd: HigherDimInstance) -> list[Polynomial]:
    """All entries of the presentation matrix over the quotient (n = 3 only)."""
    if hd.n != 3:
        raise ValueError("entry-ideal route applies to n = 3 only")
    return [hd.top_entry(r) for r in (1, 2, 3)] + [hd.bottom_entry(r) for r in (1, 2, 3)]


def trace_n3_decision(hd: HigherDimInstance) -> bool:
    """Variable membership in the entry ideal, in the given arrangement."""
    gb = buchberger(trace_n3(hd))
    return all(gb.contains(hd.ring.var_named(name)) for name in hd.ring.names)

"""An independent oracle for moving a deformation to another arrangement.

Each mark follows its variable: the generator a_p at old position p is
looked up in the rearranged order, so no index formula is involved.  The
reversal swaps the rows, so top marks become bottom marks and back.
"""

from ngtrace.determinantal import symmetries
from ngtrace.higher_dim import HigherDimInstance


def arrangements(base):
    """(rearranged base, new position of each old one, reversed) for every
    dihedral symmetry, in scan order."""
    out = []
    for sym in symmetries(base.n):
        moved = base.rearranged(sym)
        where = {a: k + 1 for k, a in enumerate(moved.order)}
        out.append((moved, [where[a] for a in base.order], sym.reversed))
    return out


def carried(arrangement, I, J) -> HigherDimInstance:
    """The marking I, J carried to an arrangement: each mark moves with its
    variable, and the reversal, which swaps the rows, makes top marks bottom
    marks and back."""
    moved, to, rev = arrangement
    I2, J2 = (frozenset(to[p - 1] for p in marks) for marks in (I, J))
    return HigherDimInstance(moved, J2, I2) if rev else HigherDimInstance(moved, I2, J2)

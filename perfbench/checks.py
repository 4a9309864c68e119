"""Independent checks of ngtrace's outputs.

Nothing here imports ngtrace.  Semigroup membership comes from a plain DP
sieve, the canonical trace from set arithmetic on that sieve, almost
symmetry from Nari's genus formula 2g = F + t, and ideal questions from
sympy's Groebner bases.  The checks run after the timed section.
"""

from __future__ import annotations

import math
from itertools import combinations


class Sieve:
    """Membership in the semigroup generated by ``gens``, by dynamic programming."""

    def __init__(self, gens):
        gens = sorted(int(g) for g in gens)
        a = gens[0]
        ok = bytearray([1])
        run, x = 1, 0
        while run < a:  # a consecutive members: everything later is a member
            x += 1
            hit = any(x >= g and ok[x - g] for g in gens)
            ok.append(hit)
            run = run + 1 if hit else 0
        self.gens = gens
        self.ok = ok
        self.frobenius = x - a

    def __contains__(self, y: int) -> bool:
        return y >= 0 and (y > self.frobenius or bool(self.ok[y]))


def own_degrees(m, ell) -> tuple[int, ...] | None:
    """The primitive generator ray solving m_[i+1] a_[i+1] - l_i a_i = const.

    Kernel of the cyclic system, from the closed form
    d_i = sum_j (m_[i+1] .. m_[i+j-1]) (l_[i+j] .. l_[i+n-1]); None when the
    exponent products agree (the gap is then 0).
    """
    n = len(m)
    if math.prod(m) == math.prod(ell):
        return None
    d = []
    for i in range(n):
        total = 0
        for j in range(1, n + 1):
            pm = math.prod(m[(i + k) % n] for k in range(1, j))
            pl = math.prod(ell[(i + k) % n] for k in range(j, n))
            total += pm * pl
        d.append(total)
    g = math.gcd(*d)
    return tuple(x // g for x in d)


def is_minimal(gens) -> bool:
    """No generator is a combination of the others."""
    gens = sorted(gens)
    return not any(_in_span(g, gens[:i]) for i, g in enumerate(gens) if i)


def _in_span(h: int, gens) -> bool:
    ok = bytearray(h + 1)
    ok[0] = 1
    for x in range(1, h + 1):
        ok[x] = any(x >= g and ok[x - g] for g in gens)
    return bool(ok[h])


class Facts:
    """The canonical trace and the invariants the program reports, by set arithmetic."""

    def __init__(self, gens):
        H = Sieve(gens)
        F = H.frobenius
        self.gens = H.gens
        self.frobenius = F
        # Sets of integers are kept as bit masks: bit x stands for x, S << z
        # is the translate S + z and S >> z is S - z cut at 0.
        window = (1 << (F + 1)) - 1
        gaps = _mask(x not in H for x in range(F + 1))
        # K = {x : F - x not in H}; every x > F is in K, every x < 0 is not
        K = _mask((F - x) not in H for x in range(F + 1))
        # H - K = {z : z + K inside H}; 0 in K forces z in H, and z > F always works
        HK = [z for z in range(F + 1) if z in H and not (K << z) & gaps]
        # K + (H - K): everything past F is reached by z > F, k = 0
        low = 0
        for z in HK:
            low |= (K << z) & window
        # the trace up to F + max(gens), and its minimal generators: the
        # members not reached from a member by adding a generator
        top = F + max(self.gens)
        T = low | ((1 << (top + 1)) - 1) & ~window
        reached = 0
        for a in self.gens:
            reached |= T << a
        self.trace = _members(T & ~reached)
        self.nearly_gorenstein = all(T >> a & 1 for a in self.gens)
        # pseudo-Frobenius numbers: gaps x with every x + a in H
        shifted = 0
        for a in self.gens:
            shifted |= gaps >> a
        self.type = (gaps & ~shifted).bit_count()
        # Nari: almost symmetric iff 2 * genus = F + type
        self.almost_symmetric = 2 * gaps.bit_count() == F + self.type
        self.H = H


def _mask(bits) -> int:
    """The bit mask whose bit x is the x-th truth value of ``bits``."""
    return int("".join("1" if b else "0" for b in bits)[::-1] or "0", 2)


def _members(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, in increasing order."""
    return tuple(x for x, b in enumerate(reversed(bin(mask)[2:])) if b == "1")


def cyclic_minors(order, m, ell, symbols):
    """The 2-minors of the cyclic matrix, as sympy expressions."""
    n = len(order)
    top = [symbols[(i + 1) % n] ** m[(i + 1) % n] for i in range(n)]
    bottom = [symbols[i] ** ell[i] for i in range(n)]
    return [top[i] * bottom[j] - top[j] * bottom[i] for i, j in combinations(range(n), 2)]


def colength_valid(order, m, ell) -> bool:
    """dim_k k[X]/(I_2 + X_n) == a_n, computed with sympy.

    The minors lie in the toric ideal P of the arrangement, X_n is a
    nonzerodivisor modulo P and dim_k k[X]/(P + X_n) = a_n, so by graded
    Nakayama the minors generate P exactly when this colength is a_n.
    """
    import sympy

    n = len(order)
    xs = sympy.symbols(f"x1:{n + 1}")
    G = sympy.groebner(cyclic_minors(order, m, ell, xs) + [xs[-1]], *xs, order="grevlex")
    if not G.is_zero_dimensional:
        return False
    leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in G.exprs]
    return _standard_monomials(leads, n, cap=order[-1] + 1) == order[-1]


def _standard_monomials(leads, nvars: int, cap: int) -> int:
    """Number of monomials divisible by no lead monomial, counting up to ``cap``."""
    divides = lambda a, b: all(x <= y for x, y in zip(a, b))
    seen = {(0,) * nvars}
    frontier = [(0,) * nvars]
    while frontier and len(seen) < cap:
        nxt = []
        for mono in frontier:
            for i in range(nvars):
                step = mono[:i] + (mono[i] + 1,) + mono[i + 1 :]
                if step in seen or any(divides(lm, step) for lm in leads):
                    continue
                seen.add(step)
                nxt.append(step)
        frontier = nxt
    return len(seen)


def entry_ideal_ng(m, ell, I, J) -> bool:
    """n = 3 deformation: every variable lies in the ideal of the matrix entries."""
    import sympy

    xs = sympy.symbols("x1:4")
    ys = {i: sympy.Symbol(f"y{i}") for i in sorted(I)}
    zs = {j: sympy.Symbol(f"z{j}") for j in sorted(J)}
    entries = []
    for r in (1, 2, 3):
        entries.append(xs[r - 1] ** m[r - 1] + ys.get(r, 0))
        entries.append(xs[r - 1] ** ell[r - 1] + zs.get(r, 0))
    gens = list(xs) + list(ys.values()) + list(zs.values())
    G = sympy.groebner(entries, *gens, order="grevlex")
    return all(G.contains(v) for v in gens)


def lambda_row_ok(entries, c: int, H: Sieve) -> bool:
    """A monomial row: entries in H, consecutive degrees step c."""
    return all(e in H for e in entries) and all(
        entries[k + 1] - entries[k] == c for k in range(len(entries) - 1)
    )

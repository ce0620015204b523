"""Subgroups of Z^2 given by generators, in a canonical triple form.

A lattice here is any subgroup L of Z^2. The canonical form is a triple
(e1, e2, e3) read as the generating set {(e1, e2), (e3, 0)}:

* rank 0: (0, 0, 0).
* rank 2: e3 is the positive generator of L intersected with Z x {0},
  e2 the positive generator of the projection of L onto the second
  coordinate, and e1 the representative mod e3 in [0, e3) of the first
  coordinate of any lattice element whose second coordinate is e2.
* rank 1 with a generator (a, b), b != 0: sign-normalized so a > 0, or
  a = 0 and b >= 0, stored as (a, b, 0).
* rank 1 inside Z x {0} with positive generator (g, 0): stored as
  (0, 0, g), which keeps the reduction formula below uniform (the e3
  slot is always the Z x {0} direction).

Canonicalization is a two-column integer Euclidean elimination; no
normal-form library is involved, so the whole path is auditable.
"""

from __future__ import annotations

from math import gcd

from .value import Value

__all__ = ["ExponentLattice"]


def _eliminate(gens: tuple[tuple[int, int], ...]) -> tuple[int, int, int]:
    """Fold the generators into a pivot vector and a Z x {0} generator.

    Args:
      gens: raw generator pairs.

    Returns:
      (ua, ud, g) where (ua, ud) is a lattice element whose second
      coordinate ud is (up to sign) the gcd of all second coordinates,
      and g >= 0 generates the intersection of the lattice with Z x {0}
      relative to that pivot. ud == 0 means the whole lattice lies in
      Z x {0} (then ua == 0 as well).
    """
    ua, ud = 0, 0
    g = 0
    for a, b in gens:
        # Euclid on second coordinates, carrying first coordinates along.
        while b != 0:
            if ud == 0:
                ua, ud = a, b
                a, b = 0, 0
            else:
                q = b // ud
                a, b = a - q * ua, b - q * ud
                if b != 0:
                    ua, ud, a, b = a, b, ua, ud
        g = gcd(g, a)
    return ua, ud, g


class ExponentLattice(Value):
    """A subgroup of Z^2 with generators and a canonical (e1, e2, e3) form."""

    __slots__ = ("gens", "canon")

    def __init__(self, gens=()):
        object.__setattr__(self, "gens", tuple(map(tuple, gens)))
        object.__setattr__(self, "canon", self._canonicalize())

    def _canonicalize(self) -> tuple[int, int, int]:
        ua, ud, g = _eliminate(self.gens)
        if ud == 0:
            # Everything lies in Z x {0}: rank 0 or the degenerate rank-1 slot.
            return (0, 0, g)
        if g == 0:
            # Rank 1 with nonzero second coordinate; (ua, ud) generates.
            if ua < 0 or (ua == 0 and ud < 0):
                ua, ud = -ua, -ud
            return (ua, ud, 0)
        if ud < 0:
            ua, ud = -ua, -ud
        return (ua % g, ud, g)

    # -- queries ------------------------------------------------------------

    def rank(self) -> int:
        e1, e2, e3 = self.canon
        if e2 != 0 and e3 != 0:
            return 2
        if e2 != 0 or e3 != 0:
            return 1
        return 0

    def contains(self, v: tuple[int, int]) -> bool:
        """Whether v is an integer combination of the generators: v lies in L
        exactly when its coset representative is (0, 0)."""
        return self.reduce(v) == (0, 0)

    def reduce(self, v: tuple[int, int]) -> tuple[int, int]:
        """Canonical coset representative of v modulo this lattice.

        Subtracts the right multiple of (e1, e2) to land the second
        coordinate in [0, |e2|) (sign-flipping the generator when e2 < 0,
        which arises for rank-1 lattices like Z*(1,-2)), then reduces the
        first coordinate mod e3. The result r satisfies v - r in L and
        reduce(r) = r, and is the same for every member of the coset.
        """
        x, y = v
        e1, e2, e3 = self.canon
        if e2 != 0:
            u1, u2 = (e1, e2) if e2 > 0 else (-e1, -e2)
            k = y // u2
            x -= k * u1
            y -= k * u2
        if e3 != 0:
            x %= e3
        return (x, y)

    def sum_image(self) -> int:
        """Non-negative generator of the image of L under (a, b) -> a + b."""
        e1, e2, e3 = self.canon
        return gcd(abs(e1 + e2), e3)

    def first_image(self) -> int:
        """Non-negative generator of the projection of L onto the first coordinate."""
        e1, e2, e3 = self.canon
        return gcd(e1, e3)

    def index_triple(self) -> tuple[int, int, int]:
        """The canon in presentation form for index reports.

        A cyclic lattice inside Z x {0} is stored internally as (0, 0, g)
        so that reduction stays uniform, but is presented as (g, 0, 0):
        the generator belongs in the leading slot whenever the lattice is
        cyclic. Both triples generate the same relation ideal.
        """
        e1, e2, e3 = self.canon
        if e1 == 0 and e2 == 0 and e3 > 0:
            return (e3, 0, 0)
        return self.canon

    def doubled(self) -> ExponentLattice:
        """The lattice 2L (every generator scaled by 2)."""
        return ExponentLattice(tuple((2 * a, 2 * b) for a, b in self.gens))

    # -- plumbing -----------------------------------------------------------

    def render(self) -> str:
        e1, e2, e3 = self.canon
        return f"({e1},{e2}),({e3},0)"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExponentLattice):
            return NotImplemented
        return self.canon == other.canon

    def __hash__(self) -> int:
        return hash(self.canon)

    def __repr__(self) -> str:
        return f"ExponentLattice(canon={self.canon}, gens={self.gens})"

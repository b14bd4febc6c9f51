"""Finite generator bases of Z2-graded vector spaces."""

from __future__ import annotations

from .errors import BackendMismatchError, BasisMismatchError, DomainError

EVEN = 0
ODD = 1


class GeneratorBasis:
    """An ordered list of named generators, each of even or odd parity.

    The basis is immutable and hashable; two bases compare equal iff their
    names and parities agree elementwise.
    """

    __slots__ = ("names", "parities", "dimension", "odd_mask", "_index")

    def __init__(self, names, parities):
        names = tuple(names)
        parities = tuple(_parse_parity(p) for p in parities)
        if len(names) != len(parities):
            raise DomainError("names and parities must have equal length")
        if len(set(names)) != len(names):
            raise DomainError("generator names must be unique")
        if not names:
            raise DomainError("basis must contain at least one generator")
        self.names = names
        self.parities = parities
        self.dimension = len(names)
        mask = 0
        for i, p in enumerate(parities):
            if p == ODD:
                mask |= 1 << i
        self.odd_mask = mask
        self._index = {n: i for i, n in enumerate(names)}

    @classmethod
    def even(cls, *names):
        return cls(names, [EVEN] * len(names))

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise DomainError(f"unknown generator {name!r}") from None

    def parity(self, i: int) -> int:
        return self.parities[i]

    def is_even(self, i: int) -> bool:
        return self.parities[i] == EVEN

    def even_indices(self):
        return tuple(i for i in range(self.dimension) if self.parities[i] == EVEN)

    def odd_indices(self):
        return tuple(i for i in range(self.dimension) if self.parities[i] == ODD)

    def __eq__(self, other):
        if not isinstance(other, GeneratorBasis):
            return NotImplemented
        return self.names == other.names and self.parities == other.parities

    def __hash__(self):
        return hash((self.names, self.parities))

    def __repr__(self):
        gens = ", ".join(
            f"{n}{'~' if p else ''}" for n, p in zip(self.names, self.parities)
        )
        return f"GeneratorBasis({gens})"


def _parse_parity(p):
    if p in (EVEN, ODD):
        return p
    if isinstance(p, str):
        if p.lower() == "even":
            return EVEN
        if p.lower() == "odd":
            return ODD
    raise DomainError(f"parity must be 'even' or 'odd', got {p!r}")


def require_same_basis(a, b):
    if a.basis != b.basis:
        raise BasisMismatchError("operands live over different generator bases")
    if a.backend != b.backend:
        raise BackendMismatchError(
            f"scalar backends differ: {a.backend} vs {b.backend}"
        )

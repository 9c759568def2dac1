"""SOP covers: OR-connected lists of cubes over a fixed universe.

This is the two-level currency of the SIS-like baseline (`repro.sislite`)
and of PLA-style benchmark specifications.  Heavy optimization (espresso,
kernels) lives in `repro.sislite`; this module holds representation and the
cheap algebra both flows need.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.errors import DimensionError
from repro.expr.cube import Cube


@dataclass(frozen=True)
class Cover:
    """An SOP cover (list of cubes, OR-connected) over ``n`` variables."""

    n: int
    cubes: tuple[Cube, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for cube in self.cubes:
            if cube.n != self.n:
                raise DimensionError("cube width does not match cover width")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_cubes(cls, n: int, cubes: Iterable[Cube]) -> "Cover":
        return cls(n, tuple(cubes))

    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> "Cover":
        cubes = tuple(Cube.from_string(row) for row in rows)
        if not cubes:
            raise ValueError("cannot infer width from an empty string list")
        return cls(cubes[0].n, cubes)

    @classmethod
    def zero(cls, n: int) -> "Cover":
        return cls(n, ())

    @classmethod
    def one(cls, n: int) -> "Cover":
        return cls(n, (Cube.universe(n),))

    # -- queries -----------------------------------------------------------

    @property
    def num_cubes(self) -> int:
        return len(self.cubes)

    @property
    def num_literals(self) -> int:
        return sum(cube.num_literals for cube in self.cubes)

    @property
    def support(self) -> int:
        mask = 0
        for cube in self.cubes:
            mask |= cube.support
        return mask

    def is_zero(self) -> bool:
        return not self.cubes

    def is_one(self) -> bool:
        return any(cube.is_tautology() for cube in self.cubes)

    def evaluate(self, minterm: int) -> int:
        """Value of the cover (0/1) on one input minterm."""
        return int(any(cube.contains_minterm(minterm) for cube in self.cubes))

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def __len__(self) -> int:
        return len(self.cubes)

    # -- cheap algebra -----------------------------------------------------

    def single_cube_containment(self) -> "Cover":
        """Drop cubes contained in another single cube (SCC minimization)."""
        kept: list[Cube] = []
        # Sorting by decreasing freedom makes the quadratic scan cheaper:
        # big cubes absorb small ones early.
        for cube in sorted(self.cubes, key=lambda c: c.num_literals):
            if not any(other.covers(cube) for other in kept):
                kept.append(cube)
        return Cover(self.n, tuple(kept))

    def cofactor(self, var: int, value: int) -> "Cover":
        cubes = []
        for cube in self.cubes:
            restricted = cube.restrict(var, value)
            if restricted is not None:
                cubes.append(restricted)
        return Cover(self.n, tuple(cubes))

    def cofactor_cube(self, cube: Cube) -> "Cover":
        cubes = []
        for own in self.cubes:
            reduced = own.cofactor_cube(cube)
            if reduced is not None:
                cubes.append(reduced)
        return Cover(self.n, tuple(cubes))

    def union(self, other: "Cover") -> "Cover":
        self._check(other)
        return Cover(self.n, self.cubes + other.cubes)

    def intersection(self, other: "Cover") -> "Cover":
        self._check(other)
        cubes = []
        for a in self.cubes:
            for b in other.cubes:
                meet = a.intersection(b)
                if meet is not None:
                    cubes.append(meet)
        return Cover(self.n, tuple(cubes)).single_cube_containment()

    def restrict_support(self, variables: list[int]) -> "Cover":
        """Re-express the cover over a smaller universe.

        ``variables[j]`` is the global index that becomes local variable
        ``j``.  Every cube literal must fall inside ``variables``.
        """
        pairs = [(1 << var, 1 << j) for j, var in enumerate(variables)]
        support_mask = sum(bit for bit, _ in pairs)
        width = len(variables)
        cubes = []
        for cube in self.cubes:
            pos = neg = 0
            for bit, local in pairs:
                if cube.pos & bit:
                    pos |= local
                if cube.neg & bit:
                    neg |= local
            if cube.support & ~support_mask:
                raise ValueError("cube uses a variable outside the new support")
            cubes.append(Cube(width, pos, neg))
        return Cover(width, tuple(cubes))

    def lift_support(self, n: int, variables: list[int]) -> "Cover":
        """Inverse of :meth:`restrict_support`: embed into ``n`` variables."""
        cubes = []
        for cube in self.cubes:
            pos = neg = 0
            for j, var in enumerate(variables):
                if (cube.pos >> j) & 1:
                    pos |= 1 << var
                if (cube.neg >> j) & 1:
                    neg |= 1 << var
            cubes.append(Cube(n, pos, neg))
        return Cover(n, tuple(cubes))

    # -- rendering ---------------------------------------------------------

    def format(self, names: list[str] | None = None) -> str:
        if not self.cubes:
            return "0"
        return " + ".join(cube.format(names) for cube in self.cubes)

    def _check(self, other: "Cover") -> None:
        if self.n != other.n:
            raise DimensionError(f"cover width mismatch: {self.n} vs {other.n}")

"""A per-run structural memo over expression DAGs (hash-consing).

One output's flow run rebuilds the same sub-expressions many times: the
reduced and unreduced variant of a candidate share most of their nodes,
the factor candidates and the direct variant share more, and redundancy
removal rebuilds untouched subtrees as new objects.  An :class:`ExprMemo`
numbers every node it sees by structure, so that two nodes get one
number exactly when they are structurally equal, and the pure, repeated
computations of the run key their tables on that number:

* ``strash`` — :func:`repro.network.build.strashed_cost` adds each
  structure once to one strashed network per width and caches the cost
  of each root's cone;
* ``phase`` — :func:`repro.expr.demorgan.minimize_inverters` keys its
  De Morgan phase assignment on ``(number, want_inverted)``;
* ``polarity`` — :func:`repro.flow.passes.apply_polarity` keys on
  ``(number, polarity)``.

Numbers come from a hash-consing table over ``(type, child numbers…)``
for operators and ``(type, field values…)`` for ``Const``/``Lit``, so
no ``Expr.__eq__`` is ever called.  Each object's number is computed
once and remembered by ``id``; the memo holds every object it numbered,
so no ``id`` can be reused by another object while the memo lives.

A memo belongs to one run and is passed explicitly: the flow creates one
per :class:`~repro.flow.context.FlowContext` and drops it with the
context; a call outside a run makes a fresh one for that call.
"""

from __future__ import annotations

from typing import Any

from repro.expr.expression import Const, Expr, Lit


class ExprMemo:
    """Structural node numbers plus the tables keyed on them."""

    __slots__ = ("_by_id", "_numbers", "phase", "polarity", "strash",
                 "__weakref__")

    def __init__(self) -> None:
        #: ``id(node) -> (node, number)``; holding the node pins its id.
        self._by_id: dict[int, tuple[Expr, int]] = {}
        #: Hash-consing table: structural key -> number.
        self._numbers: dict[tuple, int] = {}
        #: ``(number, want_inverted) -> (rewrite, inverter count)``.
        self.phase: dict[tuple[int, bool], tuple[Expr, int]] = {}
        #: ``(number, polarity) -> PI-space rewrite``.
        self.polarity: dict[tuple[int, int], Expr] = {}
        #: ``width -> (network, number -> node, node -> cone cost)``.
        self.strash: dict[int, Any] = {}

    def number(self, expr: Expr) -> int:
        """The structural number of ``expr`` (equal structure, equal
        number)."""
        entry = self._by_id.get(id(expr))
        if entry is not None:
            return entry[1]
        if isinstance(expr, Lit):
            key: tuple = (Lit, expr.var, expr.negated)
        elif isinstance(expr, Const):
            key = (Const, expr.value)
        else:
            key = (type(expr), *map(self.number, expr.children()))
        numbers = self._numbers
        number = numbers.get(key)
        if number is None:
            number = numbers[key] = len(numbers)
        self._by_id[id(expr)] = (expr, number)
        return number

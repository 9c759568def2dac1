"""Expression trees (factored forms) over AND/OR/XOR/NOT and literals.

Factorization in both flows produces these trees; `repro.network.build`
turns them into 2-input gate networks.  Operators are n-ary and the smart
constructors (:func:`and_`, :func:`or_`, :func:`xor_`, :func:`not_`) do the
cheap, always-sound simplifications: flattening, constant folding,
idempotence, complement cancellation and double negation.

Gate accounting follows the paper's convention (verified against Example 1,
t481): a k-ary AND or OR costs ``k-1`` 2-input gates, a k-ary XOR costs
``3*(k-1)`` (each 2-input XOR is worth three AND/OR gates), inverters are
free.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field


class Expr:
    """Base class for all expression nodes."""

    def support(self) -> int:
        raise NotImplementedError

    def evaluate(self, minterm: int) -> int:
        """Value (0/1) on an input minterm (bit i = value of variable i)."""
        raise NotImplementedError

    def two_input_gate_count(self) -> int:
        """Equivalent 2-input AND/OR gate count (paper's metric)."""
        raise NotImplementedError

    def format(self, names: Sequence[str] | None = None) -> str:
        raise NotImplementedError

    def children(self) -> tuple["Expr", ...]:
        return ()

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.format()


@dataclass(frozen=True)
class Const(Expr):
    value: bool

    def support(self) -> int:
        return 0

    def evaluate(self, minterm: int) -> int:
        return int(self.value)

    def two_input_gate_count(self) -> int:
        return 0

    def format(self, names: Sequence[str] | None = None) -> str:
        return "1" if self.value else "0"


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True)
class Lit(Expr):
    var: int
    negated: bool = False

    def support(self) -> int:
        return 1 << self.var

    def evaluate(self, minterm: int) -> int:
        value = (minterm >> self.var) & 1
        return value ^ int(self.negated)

    def two_input_gate_count(self) -> int:
        return 0

    def format(self, names: Sequence[str] | None = None) -> str:
        name = names[self.var] if names else f"x{self.var}"
        return name + ("'" if self.negated else "")


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr

    def support(self) -> int:
        return self.arg.support()

    def evaluate(self, minterm: int) -> int:
        return 1 - self.arg.evaluate(minterm)

    def two_input_gate_count(self) -> int:
        return self.arg.two_input_gate_count()

    def format(self, names: Sequence[str] | None = None) -> str:
        return f"({self.arg.format(names)})'"

    def children(self) -> tuple[Expr, ...]:
        return (self.arg,)


@dataclass(frozen=True)
class _Nary(Expr):
    args: tuple[Expr, ...] = field(default_factory=tuple)

    _symbol = "?"
    _per_gate = 1

    def support(self) -> int:
        mask = 0
        for arg in self.args:
            mask |= arg.support()
        return mask

    def two_input_gate_count(self) -> int:
        own = self._per_gate * (len(self.args) - 1)
        return own + sum(arg.two_input_gate_count() for arg in self.args)

    def format(self, names: Sequence[str] | None = None) -> str:
        parts = []
        for arg in self.args:
            text = arg.format(names)
            if isinstance(arg, _Nary) and _needs_parens(self, arg):
                text = f"({text})"
            parts.append(text)
        return self._symbol.join(parts)

    def children(self) -> tuple[Expr, ...]:
        return self.args


class And(_Nary):
    _symbol = "·"
    _per_gate = 1

    def evaluate(self, minterm: int) -> int:
        return int(all(arg.evaluate(minterm) for arg in self.args))


class Or(_Nary):
    _symbol = " + "
    _per_gate = 1

    def evaluate(self, minterm: int) -> int:
        return int(any(arg.evaluate(minterm) for arg in self.args))


class Xor(_Nary):
    _symbol = " ⊕ "
    _per_gate = 3

    def evaluate(self, minterm: int) -> int:
        value = 0
        for arg in self.args:
            value ^= arg.evaluate(minterm)
        return value


def _install_cached_hash(cls, compute):
    """Replace the generated dataclass hash with a per-object cached one.

    Factored/OFDD-derived expressions are DAGs with heavy sharing; the
    generated hash walks the whole (exponentially expanded) tree on every
    call.  Caching makes hashing amortized O(1) per node, which the smart
    constructors rely on.
    """

    def cached_hash(self):
        # Plain attribute access beats a __dict__.get probe on the hot
        # (already cached) path; the AttributeError fires once per object.
        try:
            return self._cached_hash
        except AttributeError:
            value = compute(self)
            object.__setattr__(self, "_cached_hash", value)
            return value

    cls.__hash__ = cached_hash


def _dag_equal(self, other):
    """Structural equality, linear in the two DAGs' distinct node pairs.

    The generated dataclass ``__eq__`` compares children recursively, so
    two equal but separately built DAGs are walked as trees (exponential
    in the sharing).  This checks identity, class and the cached hash
    first, then walks child pairs with each ``(id, id)`` pair visited
    once; leaves (``Const``/``Lit``) keep their generated comparison.
    """
    if self is other:
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    if hash(self) != hash(other):
        return False
    visited: set[tuple[int, int]] = set()
    stack = [(self, other)]
    while stack:
        left, right = stack.pop()
        left_children, right_children = left.children(), right.children()
        if len(left_children) != len(right_children):
            return False
        for a, b in zip(left_children, right_children):
            if a is b:
                continue
            if a.__class__ is not b.__class__ or hash(a) != hash(b):
                return False
            if isinstance(a, (Const, Lit)):
                if a != b:
                    return False
                continue
            pair = (id(a), id(b))
            if pair not in visited:
                visited.add(pair)
                stack.append((a, b))
    return True


Not.__eq__ = _dag_equal
_Nary.__eq__ = _dag_equal

# Each class hashes a small int tag, not the class object, whose hash
# is its address: with only ints, bools and tuples as inputs, a hash
# cached in one interpreter (and pickled with the node) is the same in
# every other, ``spawn`` pool workers included.
_install_cached_hash(Const, lambda s: hash((0, s.value)))
_install_cached_hash(Lit, lambda s: hash((1, s.var, s.negated)))
_install_cached_hash(Not, lambda s: hash((2, s.arg)))
_install_cached_hash(And, lambda s: hash((3, s.args)))
_install_cached_hash(Or, lambda s: hash((4, s.args)))
_install_cached_hash(Xor, lambda s: hash((5, s.args)))


_PRECEDENCE = {And: 3, Xor: 2, Or: 1}


def _needs_parens(parent: _Nary, child: _Nary) -> bool:
    return _PRECEDENCE[type(child)] <= _PRECEDENCE[type(parent)]


# -- smart constructors ------------------------------------------------------


def lit(var: int, negated: bool = False) -> Lit:
    return Lit(var, negated)


def not_(arg: Expr) -> Expr:
    if isinstance(arg, Const):
        return Const(not arg.value)
    if isinstance(arg, Not):
        return arg.arg
    if isinstance(arg, Lit):
        return Lit(arg.var, not arg.negated)
    return Not(arg)


def and_(args: Iterable[Expr]) -> Expr:
    flat: list[Expr] = []
    seen: set[Expr] = set()
    for arg in _flatten(args, And):
        if isinstance(arg, Const):
            if not arg.value:
                return FALSE
            continue
        if arg in seen:
            continue
        if not_(arg) in seen:
            return FALSE
        seen.add(arg)
        flat.append(arg)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def or_(args: Iterable[Expr]) -> Expr:
    flat: list[Expr] = []
    seen: set[Expr] = set()
    for arg in _flatten(args, Or):
        if isinstance(arg, Const):
            if arg.value:
                return TRUE
            continue
        if arg in seen:
            continue
        if not_(arg) in seen:
            return TRUE
        seen.add(arg)
        flat.append(arg)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def xor_(args: Iterable[Expr]) -> Expr:
    invert = False
    counts: dict[Expr, int] = {}
    order: list[Expr] = []
    for arg in _flatten(args, Xor):
        if isinstance(arg, Const):
            invert ^= arg.value
            continue
        if isinstance(arg, Not):
            invert = not invert
            arg = arg.arg
        elif isinstance(arg, Lit) and arg.negated:
            invert = not invert
            arg = Lit(arg.var, False)
        if arg not in counts:
            counts[arg] = 0
            order.append(arg)
        counts[arg] ^= 1
    flat = [arg for arg in order if counts[arg]]
    if not flat:
        return TRUE if invert else FALSE
    if len(flat) == 1:
        result: Expr = flat[0]
    else:
        result = Xor(tuple(flat))
    return not_(result) if invert else result


def xor2(a: Expr, b: Expr) -> Expr:
    """Binary XOR that preserves association structure.

    Unlike :func:`xor_`, nested XOR operands are *not* flattened, so a
    factorization that pairs shared-support subexpressions keeps that
    pairing through tree conversion — the redundancy analysis operates on
    exactly the gates the factorizer built (paper Step 5).  Negations are
    still pulled out (inverters are free) and constants folded.
    """
    invert = False
    if isinstance(a, Const):
        return not_(b) if a.value else b
    if isinstance(b, Const):
        return not_(a) if b.value else a
    if isinstance(a, Not):
        invert = not invert
        a = a.arg
    elif isinstance(a, Lit) and a.negated:
        invert = not invert
        a = Lit(a.var)
    if isinstance(b, Not):
        invert = not invert
        b = b.arg
    elif isinstance(b, Lit) and b.negated:
        invert = not invert
        b = Lit(b.var)
    if a == b:
        result: Expr = FALSE
    else:
        result = Xor((a, b))
    return not_(result) if invert else result


def xor_join(parts: list[Expr]) -> Expr:
    """Balanced binary XOR tree over ``parts`` built with :func:`xor2`."""
    parts = [p for p in parts if not (isinstance(p, Const) and not p.value)]
    if not parts:
        return FALSE
    while len(parts) > 1:
        merged = []
        for i in range(0, len(parts) - 1, 2):
            merged.append(xor2(parts[i], parts[i + 1]))
        if len(parts) % 2:
            merged.append(parts[-1])
        parts = merged
    return parts[0]


def xor_chain(parts: list[Expr]) -> Expr:
    """Right-nested XOR chain over ``parts`` built with :func:`xor2`.

    Chains expose common *suffixes*: two cube groups that share a tail
    produce structurally identical subtrees, which the network's structural
    hashing then merges (valuable for symmetric functions, whose outputs
    share long XOR sums).  Balanced joins (:func:`xor_join`) are kept for
    the paper's top-level group join, where operands are disjoint anyway.
    """
    parts = [p for p in parts if not (isinstance(p, Const) and not p.value)]
    if not parts:
        return FALSE
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = xor2(part, result)
    return result


def _flatten(args: Iterable[Expr], kind: type) -> Iterable[Expr]:
    for arg in args:
        if type(arg) is kind:
            yield from arg.args
        else:
            yield arg


"""Independent output checker: a BLIF and PLA evaluator of the benchmark's own.

Nothing here imports ``repro.network`` (or any other ``repro`` module):
a bug in the program's netlist, simulator or BLIF reader cannot hide a
wrong answer from this checker.  Signals are evaluated bit-parallel over
a vector set, one Python integer per signal with bit ``v`` holding the
value on vector ``v``:

* up to :data:`EXHAUSTIVE_MAX_INPUTS` inputs the set is every minterm;
* above that it is :data:`RANDOM_VECTORS` vectors drawn from a seed.

Run ``python -m bench.check`` for the self-test.
"""

from __future__ import annotations

import random

EXHAUSTIVE_MAX_INPUTS = 16
RANDOM_VECTORS = 4096


class Vectors:
    """Input patterns: ``patterns[i]`` holds input ``i`` on every vector."""

    def __init__(self, count: int, patterns: list[int]):
        self.count = count
        self.mask = (1 << count) - 1
        self.patterns = patterns

    @classmethod
    def for_inputs(cls, num_inputs: int, seed: str) -> "Vectors":
        """Exhaustive up to the limit, else seeded random vectors."""
        if num_inputs <= EXHAUSTIVE_MAX_INPUTS:
            count = 1 << num_inputs
            patterns = []
            for i in range(num_inputs):
                # Minterm m has input i set when bit i of m is set: 2^i
                # zeros then 2^i ones, repeated by doubling.
                pattern = ((1 << (1 << i)) - 1) << (1 << i)
                width = 1 << (i + 1)
                while width < count:
                    pattern |= pattern << width
                    width *= 2
                patterns.append(pattern)
            return cls(count, patterns)
        rng = random.Random(seed)
        return cls(RANDOM_VECTORS,
                   [rng.getrandbits(RANDOM_VECTORS) for _ in range(num_inputs)])


def _cube_value(cube: str, signals: list[int], mask: int) -> int:
    value = mask
    for ch, signal in zip(cube, signals):
        if ch == "1":
            value &= signal
        elif ch == "0":
            value &= mask ^ signal
        elif ch not in "-2":
            raise ValueError(f"bad cube character {ch!r}")
    return value


class PlaReference:
    """A PLA's own truth: its interface and its value on a vector set."""

    def __init__(self, text: str, seed: str):
        num_inputs = num_outputs = None
        self.input_names: list[str] = []
        self.output_names: list[str] = []
        rows: list[tuple[str, str]] = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == ".i":
                num_inputs = int(parts[1])
            elif parts[0] == ".o":
                num_outputs = int(parts[1])
            elif parts[0] == ".ilb":
                self.input_names = parts[1:]
            elif parts[0] == ".ob":
                self.output_names = parts[1:]
            elif not line.startswith("."):
                rows.append((parts[0], parts[1]))
        if num_inputs is None or num_outputs is None:
            raise ValueError("PLA without .i/.o")
        self.input_names = self.input_names or [
            f"x{i}" for i in range(num_inputs)]
        self.output_names = self.output_names or [
            f"y{j}" for j in range(num_outputs)]
        self.vectors = Vectors.for_inputs(num_inputs, seed)
        # On-set semantics: a 1 (or 4) in an output column adds the cube.
        self.values = [0] * num_outputs
        for cube, outs in rows:
            term = _cube_value(cube, self.vectors.patterns, self.vectors.mask)
            for j, ch in enumerate(outs):
                if ch in "14":
                    self.values[j] |= term

    def check(self, blif: str) -> str | None:
        return check_blif(blif, self.input_names, self.output_names,
                          self.vectors, self.values)


def eval_blif(text: str, input_names: list[str],
              vectors: Vectors) -> tuple[list[str], list[int]]:
    """Evaluate one combinational BLIF model over ``vectors``.

    ``input_names`` fixes which pattern drives which ``.inputs`` name;
    a BLIF whose ``.inputs`` differ is rejected.  Returns the
    ``.outputs`` names and one value pattern per output.
    """
    inputs: list[str] = []
    outputs: list[str] = []
    blocks: dict[str, tuple[list[str], list[str]]] = {}
    current: list[str] | None = None
    for raw in text.replace("\\\n", " ").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == ".inputs":
            inputs += parts[1:]
        elif parts[0] == ".outputs":
            outputs += parts[1:]
        elif parts[0] == ".names":
            if parts[-1] in blocks:
                raise ValueError(f"signal {parts[-1]} driven twice")
            current = []
            blocks[parts[-1]] = (parts[1:-1], current)
        elif parts[0] in (".model", ".end"):
            current = None
        elif line.startswith("."):
            raise ValueError(f"unsupported BLIF construct {parts[0]}")
        elif current is None:
            raise ValueError(f"row outside .names: {line!r}")
        else:
            current.append(line)
    if inputs != input_names:
        raise ValueError(f"BLIF inputs {inputs[:4]}… differ from the spec's")
    mask = vectors.mask
    values = dict(zip(inputs, vectors.patterns))
    visiting: set[str] = set()

    def value(name: str) -> int:
        # Iterative post-order walk: deep carry chains would overflow
        # the recursion limit.
        stack = [(name, False)]
        while stack:
            top, expanded = stack.pop()
            if top in values:
                continue
            if top not in blocks:
                raise ValueError(f"undriven signal {top}")
            fanins, rows = blocks[top]
            if not expanded:
                if top in visiting:
                    raise ValueError(f"combinational cycle through {top}")
                visiting.add(top)
                stack.append((top, True))
                stack.extend((f, False) for f in fanins if f not in values)
                continue
            visiting.discard(top)
            signals = [values[f] for f in fanins]
            on = off = 0
            on_rows = off_rows = False
            for row in rows:
                cube, _, bit = row.rpartition(" ") if fanins else ("", "", row)
                cube = cube.replace(" ", "")
                if len(cube) != len(fanins):
                    raise ValueError(f"row width mismatch in {row!r}")
                term = _cube_value(cube, signals, mask)
                if bit == "1":
                    on |= term
                    on_rows = True
                elif bit == "0":
                    off |= term
                    off_rows = True
                else:
                    raise ValueError(f"bad output value in {row!r}")
            if on_rows and off_rows:
                raise ValueError(f"mixed on/off-set block for {top}")
            values[top] = mask ^ off if off_rows else on
        return values[name]

    return outputs, [value(name) for name in outputs]


def mismatch(got_names: list[str], got: list[int],
             want_names: list[str], want: list[int]) -> str | None:
    """``None`` when the outputs agree, else a short description."""
    if got_names != want_names:
        return f"outputs {got_names[:4]}… differ from {want_names[:4]}…"
    bad = [name for name, a, b in zip(want_names, got, want) if a != b]
    if bad:
        return f"wrong function on outputs {', '.join(bad[:4])}"
    return None


def check_blif(blif: str, input_names: list[str], output_names: list[str],
               vectors: Vectors, reference: list[int]) -> str | None:
    """Evaluate ``blif`` and compare it with the reference patterns."""
    try:
        names, got = eval_blif(blif, input_names, vectors)
    except ValueError as exc:
        return f"unreadable BLIF: {exc}"
    return mismatch(names, got, output_names, reference)


_SELF_TEST_BLIF = """\
.model selftest
.inputs a b c
.outputs s co
.names a b n1
10 1
01 1
.names n1 c s
10 1
01 1
.names a b n2
11 1
.names n1 c n3
11 1
.names n2 n3 co
1- 1
-1 1
.end
"""


def self_test() -> None:
    """The checker accepts a full adder and rejects one flipped gate."""
    vectors = Vectors.for_inputs(3, "self-test")
    # Exhaustive: vector v is minterm v, so a + b + c is v's popcount.
    total = [bin(v).count("1") for v in range(vectors.count)]
    reference = [
        sum((t & 1) << v for v, t in enumerate(total)),
        sum((t >> 1) << v for v, t in enumerate(total)),
    ]
    names = ["a", "b", "c"]
    outputs = ["s", "co"]
    if check_blif(_SELF_TEST_BLIF, names, outputs, vectors, reference):
        raise AssertionError("checker rejected a correct full adder")
    # Flip one gate's function: the carry's AND becomes a NAND.
    flipped = _SELF_TEST_BLIF.replace(".names a b n2\n11 1",
                                      ".names a b n2\n11 0")
    if check_blif(flipped, names, outputs, vectors, reference) is None:
        raise AssertionError("checker accepted a BLIF with a flipped gate")
    pla = PlaReference(".i 3\n.o 2\n.ilb a b c\n.ob s co\n100 10\n010 10\n"
                       "001 10\n111 11\n11- 01\n1-1 01\n-11 01\n.e\n",
                       "self-test")
    if pla.check(_SELF_TEST_BLIF) or pla.check(flipped) is None:
        raise AssertionError("PLA reference disagrees with the full adder")


if __name__ == "__main__":
    self_test()
    print("bench.check: self-test passed")

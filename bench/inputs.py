"""Workload inputs: circuit lists, serve PLAs and their pinned digests.

Every input is a pure function of the workload name and the seed.  The
digests in ``pinned.json`` fix the input *definitions*: a change to a
circuit generator, to the Table 2 registry or to the PLA generator below
changes a digest, and the benchmark then refuses to report instead of
silently measuring a different workload.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("table2", "arith12", "serve_hit", "serve_fresh")
IN_PROCESS = ("table2", "arith12")

#: The serve key set: 16 small Table 2 circuits, sent as PLA text.
SERVE_CIRCUITS = ("5xp1", "adr4", "bcd-div3", "cm82a", "f51m", "majority",
                  "mlp4", "radd", "rd53", "rd73", "rd84", "sqr6", "squar5",
                  "z4ml", "misg", "pcle")

#: ``--smoke`` subsets: a few seconds of work per workload.
SMOKE = {
    "table2": ("cm82a", "rd53", "z4ml"),
    "arith12": ("cmp6",),
    "serve_hit": ("majority", "rd53", "z4ml"),
    "serve_fresh": ("majority", "rd53", "z4ml"),
}

PINNED = Path(__file__).with_name("pinned.json")


@dataclass
class Item:
    """One in-process input: a label unique in its workload, and a spec."""

    label: str
    spec: object


def table2_items() -> list[Item]:
    from repro.circuits import all_names, get

    return [Item(name, get(name)) for name in all_names()]


def arith12_items() -> list[Item]:
    """Arithmetic at the 12-input exhaustive-polarity ceiling."""
    from repro.circuits.generators import (
        make_adder, make_comparator, make_multiplier, make_weight,
    )

    # make_adder names both adders "adder6"; the labels keep them apart.
    return [
        Item("adder6", make_adder(6)),
        Item("adder6c", make_adder(6, carry_in=True)),
        Item("cmp6", make_comparator(6)),
        Item("weight12", make_weight(12)),
        Item("mult5", make_multiplier(5)),
        Item("mult6", make_multiplier(6)),
    ]


def build_items(workload: str) -> list[Item]:
    """The workload's specs with their dense truth tables built.

    This is the in-process set-up that ``setup_s`` times; the tables are
    the ones the flow would otherwise build lazily on first use.
    """
    from repro.flow.passes import DENSE_SYNTH_LIMIT

    items = table2_items() if workload == "table2" else arith12_items()
    for item in items:
        for output in item.spec.outputs:
            if output.width <= DENSE_SYNTH_LIMIT:
                output.local_table()
    return items


def serve_plas() -> list[tuple[str, str]]:
    """``(label, PLA text)`` for the serve key set."""
    from repro.circuits import get
    from repro.expr.pla import pla_from_spec, write_pla

    return [(name, write_pla(pla_from_spec(get(name))))
            for name in SERVE_CIRCUITS]


def _output_keys(width: int, rows: list[tuple[str, str]]) -> list[tuple]:
    """A conservative identity of each output's local function.

    The program's per-output cache keys an output by its cubes over its
    own support, so two outputs with equal keys here could share a
    cache entry.  Keys are order-insensitive, so equal functions written
    in another row order also count as repeats.
    """
    keys = []
    for j in range(len(rows[0][1])):
        cubes = [cube for cube, outs in rows if outs[j] == "1"]
        support = [i for i in range(width) if any(c[i] != "-" for c in cubes)]
        keys.append((len(support), frozenset(
            "".join(cube[i] for i in support) for cube in cubes)))
    return keys


def fresh_plas(seed: int, count: int) -> list[tuple[str, str]]:
    """``count`` seeded random PLAs whose outputs never repeat.

    2-8 inputs, 1-3 outputs, 1-6 product rows.  No output function
    appears twice, so every request misses the program's caches.
    """
    rng = random.Random(f"serve_fresh:{seed}")
    seen: set[tuple] = set()
    plas: list[tuple[str, str]] = []
    while len(plas) < count:
        width = rng.randint(2, 8)
        outputs = rng.randint(1, 3)
        rows = [("".join(rng.choice("01-") for _ in range(width)),
                 "".join(rng.choice("01") for _ in range(outputs)))
                for _ in range(rng.randint(1, 6))]
        keys = _output_keys(width, rows)
        if len(set(keys)) < len(keys) or seen.intersection(keys):
            continue
        seen.update(keys)
        lines = [f".i {width}", f".o {outputs}",
                 ".ilb " + " ".join(f"x{i}" for i in range(width)),
                 ".ob " + " ".join(f"y{j}" for j in range(outputs)),
                 f".p {len(rows)}"]
        lines += [f"{cube} {outs}" for cube, outs in rows]
        plas.append((f"fresh{len(plas)}", "\n".join(lines) + "\n.e\n"))
    return plas


def input_digest(workload: str) -> str:
    """Digest of the workload's input definition (see ``pinned.json``)."""
    from repro.obs.manifest import spec_digest

    h = hashlib.sha256()
    if workload in IN_PROCESS:
        items = table2_items() if workload == "table2" else arith12_items()
        for item in items:
            h.update(f"{item.label}={spec_digest(item.spec)};".encode())
    else:
        plas = serve_plas()
        if workload == "serve_fresh":
            plas = fresh_plas(0, 64) + plas
        for label, text in plas:
            h.update(f"{label}={text};".encode())
    return h.hexdigest()


def check_pinned(workload: str) -> str | None:
    """``None`` when the input digest matches ``pinned.json``."""
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    actual = input_digest(workload)
    if pinned.get(workload) != actual:
        return (f"{workload}: input digest {actual[:16]} differs from the "
                f"pinned {str(pinned.get(workload))[:16]}; the workload's "
                f"inputs changed")
    return None

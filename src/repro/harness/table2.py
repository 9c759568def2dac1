"""Table 2 reproduction: the paper's whole evaluation in one driver.

``run_table2`` runs every benchmark circuit through both flows and
returns the rows; ``format_table2`` renders them in the paper's column
layout (pre-map literals + time for both flows, post-map gates +
literals, %lits and %power improvement) with the two summary rows
(*Total arith.* and *Total all*, sums for counts and averages for the
improvement columns — exactly the paper's convention).

A killed sweep is resumed by running it again: with ``--cache-dir``
the FPRM half of every finished circuit comes back from the disk cache.

Command line::

    python -m repro.harness.table2 [--quick] [--circuits a,b,c] [--out F]
                                   [--cache-dir DIR]
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from repro.circuits import all_names
from repro.core.options import SynthesisOptions
from repro.engine import EngineConfig, SynthesisEngine, resolve_cache_dir
from repro.harness.experiment import CircuitComparison, run_circuit
from repro.utils.tabulate import format_table

# A fast subset exercising every circuit family, for smoke runs.
QUICK_CIRCUITS = [
    "z4ml", "adr4", "rd53", "majority", "t481", "xor10", "cm82a",
    "bcd-div3", "f2", "squar5",
]


@dataclass
class Table2Row:
    comparison: CircuitComparison

    def cells(self) -> list[object]:
        c = self.comparison
        name = c.name + ("*" if c.arithmetic else "")
        return [
            name,
            f"{c.inputs}/{c.outputs}",
            c.baseline.premap_lits,
            f"{c.baseline.seconds:.2f}",
            c.ours.premap_lits,
            f"{c.ours.seconds:.2f}",
            c.baseline.mapped_gates,
            c.baseline.mapped_lits,
            c.ours.mapped_gates,
            c.ours.mapped_lits,
            f"{c.improve_lits_pct:.0f}",
            f"{c.improve_power_pct:.0f}",
        ]


_HEADERS = [
    "Circuit", "I/O",
    "SISlite lits", "time", "Ours lits", "time",
    "SISlite gates", "lits", "Ours gates", "lits",
    "improve%lits", "improve%power",
]


def run_table2(
    circuits: list[str] | None = None,
    options: SynthesisOptions | None = None,
    verify: bool = True,
    progress=None,
    jobs: int | None = None,
    cache: bool | None = None,
    engine: SynthesisEngine | None = None,
    cache_dir: str | None = None,
) -> list[CircuitComparison]:
    """Run the comparison over ``circuits`` (default: the whole suite).

    The whole sweep runs through one shared
    :class:`~repro.engine.SynthesisEngine` — the caller's, or one built
    here (with the disk cache tier attached when ``cache_dir`` is
    given, so repeated sweeps are cross-process warm).
    """
    names = circuits if circuits is not None else all_names()
    owned_engine: SynthesisEngine | None = None
    if engine is None:
        engine = owned_engine = SynthesisEngine(
            EngineConfig(cache_dir=cache_dir)
        )
    rows = []
    try:
        for name in names:
            if progress is not None:
                progress(name)
            rows.append(run_circuit(name, options=options, verify=verify,
                                    jobs=jobs, cache=cache, engine=engine))
    finally:
        if owned_engine is not None:
            owned_engine.close()
    return rows


def _summary_row(label: str, rows: list[CircuitComparison]) -> list[object]:
    if not rows:
        return [label, ""] + [""] * 10
    return [
        label,
        "",
        sum(r.baseline.premap_lits for r in rows),
        f"{sum(r.baseline.seconds for r in rows):.2f}",
        sum(r.ours.premap_lits for r in rows),
        f"{sum(r.ours.seconds for r in rows):.2f}",
        sum(r.baseline.mapped_gates for r in rows),
        sum(r.baseline.mapped_lits for r in rows),
        sum(r.ours.mapped_gates for r in rows),
        sum(r.ours.mapped_lits for r in rows),
        f"{sum(r.improve_lits_pct for r in rows) / len(rows):.1f}",
        f"{sum(r.improve_power_pct for r in rows) / len(rows):.1f}",
    ]


def format_table2(rows: list[CircuitComparison]) -> str:
    """Render rows + the two summary rows in the paper's layout."""
    body = [Table2Row(row).cells() for row in rows]
    arith = [row for row in rows if row.arithmetic]
    body.append(_summary_row("Total arith.", arith))
    body.append(_summary_row("Total all", rows))
    table = format_table(_HEADERS, body)
    legend = (
        "* = arithmetic circuit (counted in 'Total arith.'); "
        "improvement columns are averages in the summary rows, "
        "as in the paper."
    )
    return table + "\n\n" + legend


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Reproduce Table 2")
    parser.add_argument("--quick", action="store_true",
                        help="run a 10-circuit subset")
    parser.add_argument("--circuits", type=str, default=None,
                        help="comma-separated circuit names")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip equivalence checking (faster)")
    parser.add_argument("--out", type=str, default=None,
                        help="also write the table to this file")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="disk-backed result cache shared across "
                             "processes (default: REPRO_CACHE_DIR)")
    args = parser.parse_args(argv)
    if args.circuits:
        names = args.circuits.split(",")
    elif args.quick:
        names = QUICK_CIRCUITS
    else:
        names = all_names()
    rows = run_table2(
        names,
        verify=not args.no_verify,
        progress=lambda name: print(f"running {name} ...", file=sys.stderr),
        cache_dir=resolve_cache_dir(args.cache_dir),
    )
    text = format_table2(rows)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

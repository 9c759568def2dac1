"""The named passes of the FPRM flow (paper Sections 2-4).

Per-output passes, in default pipeline order:

``derive-fprm``
    Polarity vector + FPRM form (Section 2); dense polarity search and
    spectrum transform up to :data:`DENSE_SYNTH_LIMIT` inputs, OFDD
    construction over cheap candidate polarity vectors beyond it.
``factor-cube`` / ``factor-ofdd`` / ``factor-xorfx``
    The paper's two factorization methods (Section 3) plus the GF(2)
    fast-extract third candidate; each appends a literal-space candidate.
``redundancy-removal``
    XOR redundancy removal on each candidate tree (Section 4), keeping
    reduced and unreduced variants.
``inverter-cleanup``
    Polarity application into PI space plus the guarded De-Morgan
    inverter minimization; scores all variants best-first and writes the
    output report (including the direct-specification fallback).

The network-level ``resub-merge`` stand-in for SIS ``resub`` lives here
too (:func:`resub_merge`): it picks one variant per output with
cross-output sharing in view.
"""

from __future__ import annotations

import time

from repro.core import tree as tr
from repro.core.factor_cube import factor_cubes
from repro.core.factor_ofdd import factor_ofdd
from repro.core.options import FactorMethod, SynthesisOptions
from repro.core.redundancy import (
    ReductionStats, RedundancyRemover, SimulationPatterns,
)
from repro.errors import BudgetExceededError
from repro.expr import expression as ex
from repro.expr.demorgan import minimize_inverters_guarded
from repro.expr.esop import FprmForm
from repro.expr.memo import ExprMemo
from repro.flow.base import OutputPass, PassManager
from repro.flow.context import FlowContext, OutputReport, OutputRun, ReducedCandidate
from repro.fprm.polarity import choose_polarity
from repro.network.build import add_expr, network_from_exprs, strashed_cost
from repro.network.netlist import Network
from repro.obs.spans import span as obs_span
from repro.ofdd.manager import OfddManager
from repro.resilience.budget import current_budget, note_degradation
from repro.spec import CircuitSpec, OutputSpec
from repro.truth.spectra import fprm_from_table

TREE_SIZE_CAP = 20_000
# Dense polarity search + transform is used up to this support width;
# wider outputs go diagram-only (cheap candidate polarity vectors).
DENSE_SYNTH_LIMIT = 16
# The quadratic pair enumeration of the GF(2) fast-extract is only worth
# its cost on moderate cube sets.
XOR_FX_CUBE_CAP = 256


# -- derive-fprm -------------------------------------------------------------


def _literal_balance(expr: ex.Expr, inverted: bool,
                     counts: dict[int, int]) -> None:
    """Accumulate +1 per positive / -1 per negative literal occurrence."""
    if isinstance(expr, ex.Lit):
        sign = -1 if (expr.negated != inverted) else 1
        counts[expr.var] = counts.get(expr.var, 0) + sign
        return
    if isinstance(expr, ex.Not):
        _literal_balance(expr.arg, not inverted, counts)
        return
    for child in expr.children():
        _literal_balance(child, inverted, counts)


def wide_polarity_candidates(output: OutputSpec) -> list[int]:
    """All-positive, all-negative and a literal-frequency vector."""
    width = output.width
    universe = (1 << width) - 1
    hint = universe
    if output.cover is not None:
        pos = [0] * width
        neg = [0] * width
        for cube in output.cover:
            for var in range(width):
                bit = 1 << var
                if cube.pos & bit:
                    pos[var] += 1
                elif cube.neg & bit:
                    neg[var] += 1
        hint = sum(1 << v for v in range(width) if pos[v] >= neg[v])
    elif output.expr is not None:
        counts: dict[int, int] = {}
        _literal_balance(output.expr, False, counts)
        hint = sum(
            1 << v for v in range(width) if counts.get(v, 0) >= 0
        )
    candidates = [universe, 0, hint]
    seen: set[int] = set()
    return [c for c in candidates if not (c in seen or seen.add(c))]


class DeriveFprmPass(OutputPass):
    """Polarity vector + FPRM form (when extractable) + OFDD handle."""

    name = "derive-fprm"

    def run(self, ctx: FlowContext) -> dict:
        output, options = ctx.output, ctx.options
        width = output.width
        universe = (1 << width) - 1
        if width <= DENSE_SYNTH_LIMIT:
            table = output.local_table()
            polarity = choose_polarity(table, options.polarity_strategy)
            form = fprm_from_table(table, polarity)
            if form.num_cubes <= options.cube_limit:
                ctx.polarity, ctx.form, ctx.ofdd = polarity, form, None
                return {"route": "dense", "polarity": polarity,
                        "num_fprm_cubes": form.num_cubes}
            # Too many cubes for the cube machinery: go through the OFDD.
            manager = OfddManager(width, polarity)
            node = manager.from_fprm_masks(form.cubes)
            ctx.polarity, ctx.form, ctx.ofdd = polarity, None, (manager, node)
            return {"route": "dense-ofdd", "polarity": polarity,
                    "num_fprm_cubes": None, "ofdd": manager.publish_metrics()}
        # Wide support: diagram-only derivation.  The dense polarity search
        # is unavailable, so try a few cheap candidate vectors and keep the
        # diagram with the fewest nodes.
        best: tuple[OfddManager, int] | None = None
        best_size = -1
        polarity = universe
        skipped = 0
        for candidate in wide_polarity_candidates(output):
            try:
                manager = OfddManager(width, candidate)
                if output.expr is not None:
                    node = manager.from_expr(output.expr)
                else:
                    assert output.cover is not None
                    node = manager.from_cover(output.cover)
            except BudgetExceededError:
                # Keep whatever candidate diagrams finished in time; only
                # when *none* did does the error climb to the pipeline's
                # direct-specification fallback.
                if best is None:
                    raise
                skipped += 1
                continue
            size = manager.node_count(node)
            if best is None or size < best_size:
                best = (manager, node)
                best_size = size
                polarity = candidate
        assert best is not None
        if skipped:
            note_degradation("wide-polarity", "partial-candidates",
                             f"{skipped} candidate vector(s) skipped")
        manager, node = best
        ctx.polarity, ctx.ofdd = polarity, (manager, node)
        if manager.cube_count(node) <= options.cube_limit:
            masks = manager.cubes(node)
            ctx.form = FprmForm.from_masks(width, polarity, masks)
            return {"route": "wide", "polarity": polarity,
                    "num_fprm_cubes": ctx.form.num_cubes,
                    "ofdd_nodes": best_size, "ofdd": manager.publish_metrics()}
        ctx.form = None
        return {"route": "wide", "polarity": polarity,
                "num_fprm_cubes": None, "ofdd_nodes": best_size,
                "ofdd": manager.publish_metrics()}


# -- factor passes -----------------------------------------------------------


class FactorCubePass(OutputPass):
    """Paper method 1: weak-division factoring of the FPRM cube set."""

    name = "factor-cube"

    def run(self, ctx: FlowContext) -> dict:
        if ctx.form is None:
            return {"skipped": "no cube-form FPRM"}
        if ctx.options.factor_method not in (FactorMethod.CUBE,
                                             FactorMethod.AUTO):
            return {"skipped": f"method={ctx.options.factor_method.value}"}
        expr = factor_cubes(list(ctx.form.cubes))
        gates = strashed_cost(expr, ctx.output.width, ctx.memo)[0]
        ctx.candidates.append(("cube", expr))
        ctx.note_gates(gates)
        return {"gates": gates}


class FactorOfddPass(OutputPass):
    """Paper method 2: factoring along the OFDD decomposition.

    Also the fallback when no other factor pass produced a candidate
    (e.g. ``factor_method=cube`` on an output without a cube form).
    """

    name = "factor-ofdd"

    def run(self, ctx: FlowContext) -> dict:
        applies = ctx.options.factor_method in (FactorMethod.OFDD,
                                                FactorMethod.AUTO)
        if not applies and ctx.candidates:
            return {"skipped": f"method={ctx.options.factor_method.value}"}
        try:
            if ctx.ofdd is None:
                assert ctx.form is not None
                manager = OfddManager(ctx.output.width, ctx.polarity)
                node = manager.from_fprm_masks(ctx.form.cubes)
            else:
                manager, node = ctx.ofdd
            expr = factor_ofdd(manager, node)
        except BudgetExceededError:
            # Ladder: OFDD method -> cube method.  With another candidate
            # already on the list the pass just skips; otherwise the raw
            # FPRM cubes are weak-division factored — cheaper, correct.
            if ctx.candidates:
                note_degradation("factor-ofdd", "skipped", "ofdd factoring")
                return {"skipped": "budget"}
            if ctx.form is None:
                raise  # nothing cheaper exists: direct fallback handles it
            note_degradation("factor-ofdd", "cube-method", "ofdd factoring")
            expr = factor_cubes(list(ctx.form.cubes))
            gates = strashed_cost(expr, ctx.output.width, ctx.memo)[0]
            ctx.candidates.append(("cube", expr))
            ctx.note_gates(gates)
            return {"gates": gates, "fallback": True, "degraded": True}
        gates = strashed_cost(expr, ctx.output.width, ctx.memo)[0]
        ctx.candidates.append(("ofdd", expr))
        ctx.note_gates(gates)
        return {"gates": gates, "fallback": not applies,
                "ofdd": manager.publish_metrics()}


class FactorXorFxPass(OutputPass):
    """Third candidate: GF(2) fast-extract + cube-method factoring."""

    name = "factor-xorfx"

    def run(self, ctx: FlowContext) -> dict:
        if ctx.form is None:
            return {"skipped": "no cube-form FPRM"}
        if ctx.options.factor_method is not FactorMethod.AUTO:
            return {"skipped": f"method={ctx.options.factor_method.value}"}
        if ctx.form.num_cubes > XOR_FX_CUBE_CAP:
            return {"skipped": f"{ctx.form.num_cubes} cubes > cap"}
        try:
            expr = factor_with_xor_divisors(ctx.form, ctx.output.width)
        except BudgetExceededError:
            if not ctx.candidates:
                raise
            note_degradation("factor-xorfx", "skipped", "xor fast-extract")
            return {"skipped": "budget"}
        gates = strashed_cost(expr, ctx.output.width, ctx.memo)[0]
        ctx.candidates.append(("xor-fx", expr))
        ctx.note_gates(gates)
        return {"gates": gates}


# -- redundancy-removal ------------------------------------------------------


class RedundancyRemovalPass(OutputPass):
    """XOR redundancy removal (Section 4) on every factor candidate."""

    name = "redundancy-removal"

    def run(self, ctx: FlowContext) -> dict:
        fired = 0
        for tag, expr in ctx.candidates:
            try:
                reduced = self._reduce(ctx, expr)
            except BudgetExceededError:
                # Redundancy removal only shrinks an already-correct
                # candidate; under budget pressure the unreduced tree is
                # kept as-is (ladder: reduced -> unreduced).
                note_degradation("redundancy-removal", "unreduced",
                                 f"candidate {tag}")
                gates = strashed_cost(expr, ctx.output.width, ctx.memo)[0]
                reduced = (expr, None, gates, gates)
            ctx.reduced.append(ReducedCandidate(
                tag=tag, expr=expr, reduced=reduced[0],
                gates_before=reduced[3], gates_after=reduced[2],
                stats=reduced[1],
            ))
            ctx.note_gates(reduced[2])
            if reduced[1] is not None:
                fired += reduced[1].total_reductions()
        return {
            "candidates": len(ctx.candidates),
            "rule_fires": fired,
            "per_candidate": {
                rc.tag: {"before": rc.gates_before, "after": rc.gates_after}
                for rc in ctx.reduced
            },
        }

    def _reduce(
        self, ctx: FlowContext, literal_expr: ex.Expr
    ) -> tuple[ex.Expr, ReductionStats | None, int, int]:
        """Returns (expr, stats, after, before); gate counts are
        structurally-hashed network sizes (DAG sharing counted once,
        matching how the result will be built)."""
        output, form = ctx.output, ctx.form
        gates_before = strashed_cost(literal_expr, output.width, ctx.memo)[0]
        if form is None:
            # No explicit cube set — the paper's pattern machinery (OC/SA1
            # sets come from the cubes) has nothing to work from; this is
            # exactly the "large multioutput functions" limitation noted in
            # its conclusions.
            return literal_expr, None, gates_before, gates_before
        tree = None
        if expanded_tree_size(literal_expr) <= TREE_SIZE_CAP:
            tree = tr.tree_from_expr(literal_expr)
        stats: ReductionStats | None = None
        if tree is not None and ctx.options.redundancy_removal:
            budget = current_budget()
            if budget is not None:
                # Entry check, raising into run()'s ladder catch: the
                # remover's own inner loop swallows ReproError as a
                # no-engine skip and would hide the exhausted budget.
                budget.check("redundancy-removal")
            if ctx.patterns is None:
                ctx.patterns = SimulationPatterns.build(
                    output.width, form, ctx.options)
            remover = RedundancyRemover(tree, output.width, form,
                                        ctx.options, ctx.patterns)
            tree = remover.run()
            stats = remover.stats
            literal_expr = tr.expr_from_tree(tree)
        gates_after = strashed_cost(literal_expr, output.width, ctx.memo)[0]
        return literal_expr, stats, gates_after, gates_before


# -- inverter-cleanup --------------------------------------------------------


class InverterCleanupPass(OutputPass):
    """Polarity application + guarded inverter minimization + scoring.

    Builds the best-first PI-space variant list (reduced and unreduced
    flavours per candidate, plus the direct-specification fallback) and
    writes the output report.
    """

    name = "inverter-cleanup"

    def run(self, ctx: FlowContext) -> dict:
        output, polarity = ctx.output, ctx.polarity
        scored: list[tuple[int, str, ex.Expr]] = []
        method = ""
        stats: ReductionStats | None = None
        gates_after = gates_before = -1
        memo = ctx.memo
        for rc in ctx.reduced:
            pi_reduced = minimize_inverters_guarded(
                apply_polarity(rc.reduced, polarity, memo), output.width,
                memo,
            )
            scored.append((rc.gates_after, rc.tag, pi_reduced))
            if rc.reduced is not rc.expr:
                pi_unreduced = minimize_inverters_guarded(
                    apply_polarity(rc.expr, polarity, memo), output.width,
                    memo,
                )
                scored.append((rc.gates_before, f"{rc.tag}-u", pi_unreduced))
            if gates_after < 0 or rc.gates_after < gates_after:
                method = rc.tag
                stats = rc.stats
                gates_after = rc.gates_after
                gates_before = rc.gates_before
        used_direct = False
        direct = direct_expr(output)
        if direct is not None:
            direct_gates = expanded_gate_count(direct)
            scored.append((
                direct_gates, "direct",
                minimize_inverters_guarded(direct, output.width, memo),
            ))
            if direct_gates < gates_after:
                # The FPRM route lost to the input specification itself
                # (mux/unate-heavy cones); keep the original structure —
                # the FPRM form is "only the initial specification"
                # (paper Section 1).
                method = f"{method}+direct"
                gates_after = direct_gates
                used_direct = True
        scored.sort(key=lambda item: item[0])
        ctx.variants = [(tag, expr) for _, tag, expr in scored]
        ctx.report = OutputReport(
            name=output.name,
            polarity=polarity,
            num_fprm_cubes=ctx.form.num_cubes if ctx.form is not None else None,
            method=method,
            gates_before_reduction=gates_before,
            gates_after_reduction=gates_after,
            reduction_stats=stats,
        )
        ctx.best_gates = gates_after
        return {
            "variants": len(ctx.variants),
            "method": method,
            "direct_fallback": used_direct,
        }


def direct_expr(output: OutputSpec) -> ex.Expr | None:
    """The specification's own structure as an expression (PI space)."""
    if output.expr is not None:
        return output.expr
    if output.cover is not None:
        terms = []
        for cube in output.cover:
            literals: list[ex.Expr] = []
            for var in range(output.width):
                bit = 1 << var
                if cube.pos & bit:
                    literals.append(ex.Lit(var))
                elif cube.neg & bit:
                    literals.append(ex.Lit(var, True))
            terms.append(ex.and_(literals))
        return ex.or_(terms)
    return None


def _last_resort_expr(output: OutputSpec) -> ex.Expr:
    """A correct PI-space expression for *any* output, whatever it costs.

    The bottom rung of the degradation ladder: the specification's own
    structure when it has one, else a minterm SOP off the dense table
    (table-only outputs are dense by construction).  Size is sacrificed
    for guaranteed correctness — exactly the paper's observation that
    the input specification is always an acceptable implementation.
    """
    direct = direct_expr(output)
    if direct is not None:
        return direct
    table = output.local_table()
    terms: list[ex.Expr] = []
    for minterm in range(1 << output.width):
        if not table[minterm]:
            continue
        literals = [
            ex.Lit(var, negated=not ((minterm >> var) & 1))
            for var in range(output.width)
        ]
        terms.append(ex.and_(literals))
    return ex.or_(terms)


# -- default pipeline --------------------------------------------------------

#: The per-output pass names of the default pipeline, in order.
DEFAULT_OUTPUT_PASSES = (
    "derive-fprm",
    "factor-cube",
    "factor-ofdd",
    "factor-xorfx",
    "redundancy-removal",
    "inverter-cleanup",
)


def default_output_passes() -> list[OutputPass]:
    """A fresh instance list of the default per-output pipeline."""
    return [
        DeriveFprmPass(),
        FactorCubePass(),
        FactorOfddPass(),
        FactorXorFxPass(),
        RedundancyRemovalPass(),
        InverterCleanupPass(),
    ]


def run_output_pipeline(
    output: OutputSpec,
    options: SynthesisOptions,
    passes: list[OutputPass] | None = None,
) -> FlowContext:
    """Run one output through the (default) per-output pipeline.

    The bottom rung of the effort-degradation ladder lives here: a
    :class:`~repro.errors.BudgetExceededError` no pass could absorb
    collapses the run to the direct specification (always correct, size
    unbounded).  Degradations noted on the ambient budget — by any rung,
    in this process — are drained into the output report so they travel
    with the result across process boundaries.
    """
    ctx = FlowContext(output=output, options=options)
    try:
        PassManager(passes or default_output_passes()).run(ctx)
    except BudgetExceededError as err:
        _direct_budget_fallback(ctx, err)
    budget = current_budget()
    if budget is not None and ctx.report is not None:
        drained = budget.drain_degradations()
        if drained:
            labels = list(ctx.report.degraded)
            labels.extend(record.label() for record in drained)
            ctx.report.degraded = tuple(dict.fromkeys(labels))
    return ctx


def run_output(output: OutputSpec, options: SynthesisOptions) -> OutputRun:
    """The one per-output runner (serial loop, pool worker, in-process
    fallback): the pipeline inside its ``output:<name>`` span, timed once.
    """
    start = time.perf_counter()
    with obs_span(f"output:{output.name}", category="output",
                  output=output.name):
        ctx = run_output_pipeline(output, options)
    assert ctx.report is not None
    return OutputRun(variants=ctx.variants, report=ctx.report,
                     seconds=time.perf_counter() - start)


def _direct_budget_fallback(ctx: FlowContext,
                            err: BudgetExceededError) -> None:
    """Replace an interrupted pipeline with the specification itself."""
    note_degradation("pipeline", "direct-specification", err.where)
    with obs_span("budget-fallback", category="pass") as node:
        expr = minimize_inverters_guarded(
            _last_resort_expr(ctx.output), ctx.output.width, ctx.memo
        )
        gates = expanded_gate_count(expr)
        if node is not None:
            node.set(where=err.where, gates=gates)
    ctx.variants = [("direct", expr)]
    ctx.report = OutputReport(
        name=ctx.output.name,
        polarity=ctx.polarity,
        num_fprm_cubes=None,
        method="direct(budget)",
        gates_before_reduction=gates,
        gates_after_reduction=gates,
        reduction_stats=None,
    )
    ctx.best_gates = gates


# -- resub-merge (network-level) ---------------------------------------------


def greedy_mixed_network(
    spec: CircuitSpec,
    variants_per_output: list[list[tuple[str, ex.Expr]]],
    var_maps: list[list[int]],
) -> tuple[Network, list[ex.Expr]] | None:
    """Pick one variant per output to maximize cross-output sharing.

    Outputs are added one by one; each candidate variant is trial-
    inserted into a clone of the network so far and the one adding
    fewest gates wins — a lightweight stand-in for the paper's SIS
    ``resub`` merge of the per-output networks.  Returns the network and
    the chosen per-output expressions.
    """
    if spec.num_outputs <= 1 or spec.num_outputs > 64:
        return None
    net = Network(spec.num_inputs, name=spec.name,
                  input_names=spec.input_names)
    outputs: list[int] = []
    chosen: list[ex.Expr] = []
    for index in range(spec.num_outputs):
        # The base cost (nodes live through the outputs chosen so far) is
        # the same for every variant, so the winner is decided by the
        # *delta* cost of each variant's new nodes alone — identical
        # ranking to the old full-network recount, without cloning the
        # network or re-walking it per trial.
        base_seen: set[int] = set()
        for out in outputs:
            net.gate_cost_from(out, base_seen)
        seen_ids: set[int] = set()
        best_expr = None
        best_delta = None
        for _tag, expr in variants_per_output[index]:
            if id(expr) in seen_ids:
                continue
            seen_ids.add(id(expr))
            mark = net.checkpoint()
            node = add_expr(net, expr, var_maps[index])
            delta = net.gate_cost_from(node, set(base_seen))
            net.rollback(mark)
            if best_delta is None or delta < best_delta:
                best_delta = delta
                best_expr = expr
        assert best_expr is not None
        # Re-adding the winner reproduces the node ids its trial had:
        # every trial started from the identical checkpointed network.
        outputs.append(add_expr(net, best_expr, var_maps[index]))
        chosen.append(best_expr)
    net.set_outputs(outputs, spec.output_names)
    return net, chosen


def resub_merge(
    spec: CircuitSpec,
    variants_per_output: list[list[tuple[str, ex.Expr]]],
    var_maps: list[list[int]],
) -> tuple[Network, list[ex.Expr], dict]:
    """Build the final network with cross-output sharing in view.

    Candidate whole networks: the per-output local best, one network per
    candidate tag (a method's choice may share better across outputs
    than the per-output winner does), and a greedy per-output mix
    against the incrementally built network — the stand-in for the
    paper's SIS ``resub`` merge.  Returns (network, chosen per-output
    expressions, trace details).
    """

    def build(exprs: list[ex.Expr]) -> Network:
        return network_from_exprs(
            spec.num_inputs,
            exprs,
            name=spec.name,
            var_maps=var_maps,
            input_names=spec.input_names,
            output_names=spec.output_names,
        )

    local_best = [variants[0][1] for variants in variants_per_output]
    candidates: list[tuple[str, Network, list[ex.Expr]]] = [
        ("local-best", build(local_best), local_best)
    ]
    tags = {tag for variants in variants_per_output for tag, _ in variants}
    if len(tags) > 1:
        for tag in sorted(tags):
            exprs = []
            for variants in variants_per_output:
                chosen = dict(variants).get(tag, variants[0][1])
                exprs.append(chosen)
            candidates.append((tag, build(exprs), exprs))
        mixed = greedy_mixed_network(spec, variants_per_output, var_maps)
        if mixed is not None:
            candidates.append(("greedy-mix", mixed[0], mixed[1]))
    best_tag, best_net, best_exprs = min(
        candidates, key=lambda cand: cand[1].two_input_gate_count()
    )
    details = {
        "candidates": {
            tag: net.two_input_gate_count() for tag, net, _ in candidates
        },
        "winner": best_tag,
    }
    return best_net, best_exprs, details


# -- shared helpers ----------------------------------------------------------


def expanded_tree_size(expr: ex.Expr, memo: dict[int, int] | None = None) -> int:
    """Node count the expression would have as a tree (shared nodes
    re-counted per reference), computed in linear time over the DAG."""
    if memo is None:
        memo = {}
    key = id(expr)
    cached = memo.get(key)
    if cached is not None:
        return cached
    size = 1 + sum(expanded_tree_size(child, memo) for child in expr.children())
    memo[key] = size
    return size


def factor_with_xor_divisors(form: FprmForm, width: int) -> ex.Expr:
    """Third factorization candidate: GF(2) fast-extract, then cube-method
    factoring of the rewritten function and of each divisor, with the
    divisor expressions shared by object identity (strash recovers the
    sharing in the network)."""
    from repro.core.xor_extract import extract_xor_divisors

    extraction = extract_xor_divisors([list(form.cubes)], width)
    expr_memo: dict[int, ex.Expr] = {}

    def divisor_expr(var: int) -> ex.Expr:
        cached = expr_memo.get(var)
        if cached is None:
            body = extraction.divisors[var]
            cached = substitute(factor_cubes(body))
            expr_memo[var] = cached
        return cached

    def substitute(expr: ex.Expr) -> ex.Expr:
        if isinstance(expr, ex.Lit):
            if expr.var >= width:
                divisor = divisor_expr(expr.var)
                return ex.not_(divisor) if expr.negated else divisor
            return expr
        if isinstance(expr, ex.Const):
            return expr
        if isinstance(expr, ex.Not):
            return ex.not_(substitute(expr.arg))
        children = [substitute(child) for child in expr.children()]
        if isinstance(expr, ex.And):
            return ex.and_(children)
        if isinstance(expr, ex.Or):
            return ex.or_(children)
        if len(children) == 2:
            return ex.xor2(children[0], children[1])
        return ex.xor_join(children)

    top = factor_cubes(extraction.functions[0])
    return substitute(top)


def expanded_gate_count(expr: ex.Expr, memo: dict[int, int] | None = None) -> int:
    """Tree-expanded 2-input gate count, linear time over shared DAGs."""
    if memo is None:
        memo = {}
    key = id(expr)
    cached = memo.get(key)
    if cached is not None:
        return cached
    children = expr.children()
    own = 0
    if isinstance(expr, (ex.And, ex.Or)):
        own = len(children) - 1
    elif isinstance(expr, ex.Xor):
        own = 3 * (len(children) - 1)
    count = own + sum(expanded_gate_count(child, memo) for child in children)
    memo[key] = count
    return count


def apply_polarity(expr: ex.Expr, polarity: int,
                   memo: ExprMemo | None = None) -> ex.Expr:
    """Rewrite a literal-space expression into PI space.

    Literal ``ℓ_i`` is ``x_i`` when bit ``i`` of ``polarity`` is set and
    ``x̄_i`` otherwise.  Results are kept in ``memo.polarity`` keyed on
    each node's structural number (a fresh memo when none is given), so
    shared structure — DAG-shaped OFDD expressions, sub-expressions
    common to several variants — is rewritten once and stays shared.
    """
    if memo is None:
        memo = ExprMemo()
    table = memo.polarity
    number = memo.number

    def walk(node: ex.Expr) -> ex.Expr:
        key = (number(node), polarity)
        cached = table.get(key)
        if cached is not None:
            return cached
        if isinstance(node, ex.Const):
            result: ex.Expr = node
        elif isinstance(node, ex.Lit):
            positive = bool((polarity >> node.var) & 1)
            result = ex.Lit(node.var, negated=node.negated != (not positive))
        elif isinstance(node, ex.Not):
            result = ex.not_(walk(node.arg))
        else:
            children = [walk(child) for child in node.children()]
            if isinstance(node, ex.And):
                result = ex.and_(children)
            elif isinstance(node, ex.Or):
                result = ex.or_(children)
            else:
                result = ex.xor_(children)
        table[key] = result
        return result

    return walk(expr)

"""Workloads, operations, output gate and spans of the glap benchmark.

An operation is one table row, one ladder rung or one rebased instance.  It
runs either plainly (the end-to-end measurement) or staged: the same
pipeline, taken apart into the package's public functions with a span
around each call (the per-layer measurement).  Spans live here, in the
benchmark, and nothing inside the package is instrumented.

Every operation is checked against the root oracle and, where the inputs
are fixed, against output digests stored in ``digests.json``.  A check that
fails marks the operation failed; it never stops the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import statistics
import sys
import traceback
from dataclasses import dataclass, field

from glap import cli
from glap.analysis import (
    analyze,
    centroid,
    classify_module,
    degree_zero_action,
    is_semisimple,
    is_simple,
    match_table_row,
)
from glap.errors import GlapError, StepLimitExceeded
from glap.families import build
from glap.gla import check_gla, deserialize, deserialize_form
from glap.prolongation import (
    ProlongationResult,
    assemble_degree0,
    conformal_g0,
    deserialize_prolongation,
    full_prolongation,
    prolong_step,
    step_limit,
    transitivity_check,
)
from glap.roots import table_expectation

from hostspeed import REF_SECONDS, Sampler, at_reference_speed, work_clock
from rebase import certify, instance_rng, rebase

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

LADDER_RUNGS = (
    ("hh", {"p": 1, "q": 3}),
    ("hc", {"p": 3, "q": 1}),
)
REBASED_INSTANCES = tuple(
    (tag, params)
    for tag, params in cli.DEFAULT_ROWS
    if tag in ("hc", "hc-split", "hh", "hh-split")
) + (
    ("bi", {"l": 3}),
    ("bi", {"l": 4}),
    ("g2", {}),
    ("counterexample", {}),
)
# rebased outputs are compared digest by digest only for this seed
DIGEST_SEED = 0

# a span named x gives the per-layer metric x_s; analysis.breakdown and op
# only group other spans and give none
TIMED_SPANS = (
    "families.build",
    "prolongation.g0_solve",
    "prolongation.g0_assemble",
    "prolongation.step",
    "prolongation.transitivity",
    "gla.jacobi",
    "gla.parse",
    "gla.serialize",
    "analysis.analyze",
    "analysis.killing",
    "analysis.centroid",
    "analysis.is_simple",
    "analysis.module_class",
    "analysis.table_match",
    "roots.table_expectation",
    "cli.prolong",
    "cli.analyze",
)
# counts are summed over the operations of a pass, except the maximum
COUNT_METRICS = (
    "prolongation.g0_dim",
    "prolongation.g0_commutator_pairs",
    "prolongation.steps",
    "prolongation.step_unknowns",
    "gla.jacobi_triples",
    "algebra.dim",
    "algebra.bracket_nnz",
)
MAX_METRICS = ("algebra.max_coeff_bits",)


def label(tag: str, params: dict) -> str:
    inner = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{tag}({inner})" if params else tag


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def analysis_digest(report: dict) -> str:
    return sha256(json.dumps(report, sort_keys=True))


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Tracer:
    """Spans and counts of one staged pass, kept in memory.

    A span records its name, the operation it belongs to, the span that
    caused it, its start and end, and any attributes given.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, dict[str, int]] = {}
        self.op: str | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": attrs,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = work_clock()
        try:
            yield rec
        finally:
            rec["end"] = work_clock()
            self._stack.pop()

    def count(self, name: str, value: int):
        per_op = self.counts.setdefault(self.op, {})
        if name in MAX_METRICS:
            per_op[name] = max(per_op.get(name, 0), value)
        else:
            per_op[name] = per_op.get(name, 0) + value


def _span(tr: Tracer | None, name: str, **attrs):
    return contextlib.nullcontext() if tr is None else tr.span(name, **attrs)


def step_unknowns(dims: dict[int, int], shift: int) -> int:
    """Unknowns of the linear system for the degree-``shift`` layer: one per
    entry of each block m_p -> g_{p+shift} with p < 0."""
    return sum(dims.get(p + shift, 0) * d for p, d in dims.items() if p < 0)


def algebra_counts(prol: ProlongationResult) -> dict[str, int]:
    """The count metrics of one operation, read off its final algebra."""
    A = prol.algebra
    dims = A.dims_by_degree()
    g0 = dims.get(0, 0)
    n = A.n
    coeffs = [c for cell in A.brackets.values() for c in cell.values()]
    return {
        "prolongation.g0_dim": g0,
        "prolongation.g0_commutator_pairs": g0 * (g0 - 1) // 2,
        "prolongation.steps": len(prol.step_dims),
        "prolongation.step_unknowns": sum(
            step_unknowns(dims, k) for k in prol.step_dims
        ),
        "gla.jacobi_triples": n * (n - 1) * (n - 2) // 6,
        "algebra.dim": n,
        "algebra.bracket_nnz": len(coeffs),
        "algebra.max_coeff_bits": max(
            (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs),
            default=0,
        ),
    }


def staged_prolongation(m, g, tr: Tracer) -> ProlongationResult:
    """``full_prolongation(m, g)`` called piece by piece under spans.

    The result must serialize to the same bytes as the one-call version;
    the output gate checks that.
    """
    with tr.span("prolongation.g0_solve"):
        basis0 = conformal_g0(m, g)
    t = len(basis0)
    tr.count("prolongation.g0_dim", t)
    tr.count("prolongation.g0_commutator_pairs", t * (t - 1) // 2)
    with tr.span("prolongation.g0_assemble", pairs=t * (t - 1) // 2):
        A = assemble_degree0(m, basis0)
    limit = step_limit()
    step_dims: dict[int, int] = {}
    k = 0
    while True:
        if k + 1 > limit:
            raise StepLimitExceeded(f"no termination within {limit} prolongation steps")
        unknowns = step_unknowns(A.dims_by_degree(), k + 1)
        tr.count("prolongation.steps", 1)
        tr.count("prolongation.step_unknowns", unknowns)
        with tr.span("prolongation.step", degree=k + 1, unknowns=unknowns):
            A2 = prolong_step(A, k)
        step_dims[k + 1] = A2.n - A.n
        grew = A2.n > A.n
        A = A2
        if not grew:
            break
        k += 1
    neg = A.negative_part()
    if (neg.labels, neg.degrees, neg.brackets) != (m.labels, m.degrees, m.brackets):
        raise GlapError("prolongation modified the negative part")
    n = A.n
    tr.count("gla.jacobi_triples", n * (n - 1) * (n - 2) // 6)
    with tr.span("gla.jacobi", triples=n * (n - 1) * (n - 2) // 6):
        rep = check_gla(A)
    if not (rep["grading_ok"] and rep["jacobi_ok"]):
        raise GlapError(f"assembled prolongation failed certification: {rep['violation_count']}")
    with tr.span("prolongation.transitivity"):
        transitive = transitivity_check(A)
    if not transitive:
        raise GlapError("assembled prolongation is not transitive")
    prol = ProlongationResult(A, g, step_dims, -min(m.degrees), max(A.degrees), True)
    counts = algebra_counts(prol)
    for name in ("algebra.dim", "algebra.bracket_nnz", "algebra.max_coeff_bits"):
        tr.count(name, counts[name])
    return prol


def analysis_breakdown(prol: ProlongationResult, tr: Tracer):
    """Time analyze's public parts once more, in their own span.

    analyze runs is_semisimple and centroid, and then is_simple runs both
    again: analysis.analyze_s minus the other parts is about
    analysis.is_simple_s, the work done twice.
    """
    A = prol.algebra
    with tr.span("analysis.breakdown"):
        with tr.span("analysis.killing"):
            semisimple = is_semisimple(A)
        if semisimple:
            with tr.span("analysis.centroid"):
                centroid(A)
            with tr.span("analysis.is_simple"):
                is_simple(A)
        with tr.span("analysis.module_class"):
            cls = classify_module(degree_zero_action(A), prol.form.matrix)
        with tr.span("analysis.table_match"):
            match_table_row(prol, cls.module_class)


# ---------------------------------------------------------------------------
# the oracle check shared by all workloads
# ---------------------------------------------------------------------------


def oracle_mismatches(oracle_key: tuple, report: dict, tr: Tracer | None) -> list[str]:
    """The comparisons of ``glap verify-table`` on an analysis report in its
    JSON form, for a family's ``oracle_key()``: the names of the invariants
    that disagree with the root oracle."""
    key, params = oracle_key
    dims = report["dims"]
    got = {
        "kind": report["kind"],
        "signature": list(report["signature"]),
        "semisimple": report["semisimple"],
        "simple": report["simple"],
    }
    if key is None:  # the counterexample, which the oracle does not cover
        want = {"kind": 3, "signature": [2, 2], "semisimple": False, "simple": False}
        got["g1_nonzero"], want["g1_nonzero"] = dims.get("1", 0) > 0, True
    else:
        with _span(tr, "roots.table_expectation"):
            row = table_expectation(key, **params)
        want = {
            "kind": row.kind,
            "signature": list(row.signature),
            "semisimple": True,
            "simple": True,
            "dims": {str(k): v for k, v in sorted(row.dims.items())},
            "module_class": row.module_class,
        }
        got["dims"], got["module_class"] = dims, report["module_class"]
    return [k for k in want if got[k] != want[k]]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one operation produced, for the output gate."""

    prolongation_text: str | None = None
    report: dict | None = None
    problems: list[str] = field(default_factory=list)
    prolongation: ProlongationResult | None = None


@dataclass
class FamilyOp:
    """A family in the native basis ``families.build`` returns: build,
    prolong, analyze, check."""

    tag: str
    params: dict
    digests: dict | None
    setup_problems: list[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        return label(self.tag, self.params)

    def run(self, tr: Tracer | None) -> Outcome:
        with _span(tr, "families.build"):
            fam = build(self.tag, **self.params)
        if tr is None:
            prol = full_prolongation(fam.m, fam.g)
        else:
            prol = staged_prolongation(fam.m, fam.g, tr)
        with _span(tr, "analysis.analyze"):
            rep = analyze(prol).to_json_dict()
        bad = oracle_mismatches(fam.oracle_key(), rep, tr)
        return Outcome(None, rep, [f"oracle mismatch: {k}" for k in bad], prol)

    def gate(self, out: Outcome, tr: Tracer | None) -> list[str]:
        """Output digests against the stored ones; the staged pass also
        times analyze's parts here, outside the operation's own time."""
        out.prolongation_text = out.prolongation.serialize()
        if tr is not None:
            analysis_breakdown(out.prolongation, tr)
        return digest_problems(self.digests, out)


@dataclass
class RebasedOp:
    """A rebased instance run through the command line: prolong, then
    analyze, each from files, then the oracle check."""

    label: str
    oracle_key: tuple
    m_path: str
    g_path: str
    prol_path: str
    digests: dict | None
    setup_problems: list[str] = field(default_factory=list)

    def run(self, tr: Tracer | None) -> Outcome:
        with contextlib.redirect_stdout(io.StringIO()):
            with _span(tr, "cli.prolong"):
                code = cli.main(["prolong", self.m_path, self.g_path, "--out", self.prol_path])
        if code != 0:
            return Outcome(problems=[f"glap prolong exited {code}"])
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            with _span(tr, "cli.analyze"):
                code = cli.main(["analyze", self.prol_path])
        if code != 0:
            return Outcome(problems=[f"glap analyze exited {code}"])
        rep = json.loads(buf.getvalue())
        bad = oracle_mismatches(self.oracle_key, rep, tr)
        return Outcome(None, rep, [f"oracle mismatch: {k}" for k in bad])

    def gate(self, out: Outcome, tr: Tracer | None) -> list[str]:
        """Digests for the digest seed; in the staged pass, the pipeline
        replayed piece by piece must write the same bytes as the command."""
        with open(self.prol_path, encoding="utf-8") as fh:
            out.prolongation_text = fh.read()
        problems = digest_problems(self.digests, out)
        if tr is None:
            out.prolongation = deserialize_prolongation(out.prolongation_text)
            return problems
        with open(self.m_path, encoding="utf-8") as fh:
            m_text = fh.read()
        with open(self.g_path, encoding="utf-8") as fh:
            g_text = fh.read()
        with tr.span("gla.parse"):
            m, g = deserialize(m_text), deserialize_form(g_text)
        prol = staged_prolongation(m, g, tr)
        with tr.span("gla.serialize"):
            text = prol.serialize()
        if text != out.prolongation_text:
            problems.append("staged prolongation differs from the command's output")
        with tr.span("gla.parse"):
            out.prolongation = deserialize_prolongation(text)
        analysis_breakdown(out.prolongation, tr)
        return problems


def digest_problems(expected: dict | None, out: Outcome) -> list[str]:
    if expected is None:
        return []
    got = {
        "prolongation": sha256(out.prolongation_text),
        "analysis": analysis_digest(out.report),
    }
    return [f"{k} digest mismatch" for k in ("prolongation", "analysis") if got[k] != expected.get(k)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Workload:
    name: str
    ops: list
    inputs_digest: str = ""


def make_workload(name: str, seed: int, workdir: str, digests: dict | None) -> Workload:
    """Generate the inputs of one workload.  ``digests`` None disables the
    digest gate (used when recording new digests)."""
    if name in ("table", "ladder"):
        rows = cli.DEFAULT_ROWS if name == "table" else LADDER_RUNGS
        ops = []
        for tag, params in rows:
            want = None if digests is None else digests[name][label(tag, params)]
            ops.append(FamilyOp(tag, dict(params), want))
        return Workload(name, ops)
    if name != "rebased":
        raise ValueError(f"unknown workload {name!r}")
    want_all = None
    if digests is not None and seed == DIGEST_SEED:
        want_all = digests["rebased"]["ops"]
    ops = []
    inputs = hashlib.sha256()
    for tag, params in REBASED_INSTANCES:
        lab = label(tag, params)
        fam = build(tag, **params)
        m2, g2 = rebase(fam.m, fam.g, instance_rng(seed, lab))
        stem = os.path.join(workdir, re.sub(r"\W+", "_", lab))
        m_text, g_text = m2.serialize(), g2.serialize()
        for suffix, text in ((".m.json", m_text), (".g.json", g_text)):
            with open(stem + suffix, "w", encoding="utf-8") as fh:
                fh.write(text)
            inputs.update(text.encode("utf-8"))
        op = RebasedOp(
            lab,
            fam.oracle_key(),
            stem + ".m.json",
            stem + ".g.json",
            stem + ".prol.json",
            None if want_all is None else want_all[lab],
        )
        op.setup_problems = [f"rebased input: {p}" for p in certify(fam.m, fam.g, m2, g2)]
        ops.append(op)
    if want_all is not None and inputs.hexdigest() != digests["rebased"]["inputs"]:
        for op in ops:
            op.setup_problems.append(f"inputs of seed {seed} differ from the stored digest")
    return Workload(name, ops, inputs.hexdigest())


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


@dataclass
class OpRecord:
    label: str
    seconds: float  # as measured, on work_clock
    ref: float  # mean reference sample over the operation (see hostspeed.py)
    problems: list[str]
    counts: dict[str, int] | None

    @property
    def scaled(self) -> float:
        return at_reference_speed(self.seconds, self.ref)


@dataclass
class Pass:
    records: list[OpRecord]
    tracer: Tracer | None = None


def run_pass(workload: Workload, traced: bool) -> Pass:
    """Run every operation once.  An operation's time covers its own work
    only; the output gate and, when traced, the breakdown come after it."""
    tr = Tracer() if traced else None
    records = []
    for op in workload.ops:
        if tr is not None:
            tr.op = op.label
        if op.setup_problems:
            records.append(OpRecord(op.label, 0.0, REF_SECONDS, list(op.setup_problems), None))
            continue
        with Sampler() as host:
            t0 = work_clock()
            try:
                with _span(tr, "op", label=op.label):
                    out = op.run(tr)
            except Exception as e:  # any exception fails the operation, not the run
                traceback.print_exc(file=sys.stderr)
                out = Outcome(problems=[f"{type(e).__name__}: {e}"])
            seconds = work_clock() - t0
        problems = list(out.problems)
        counts = None
        if not problems:
            try:
                problems += op.gate(out, tr)
                counts = algebra_counts(out.prolongation)
            except Exception as e:
                traceback.print_exc(file=sys.stderr)
                problems.append(f"gate: {type(e).__name__}: {e}")
        records.append(OpRecord(op.label, seconds, host.ref, problems, counts))
    return Pass(records, tr)


def op_times(passes: list[Pass], scaled: bool = True) -> list[float]:
    """Per operation, its lower median time over the passes: at reference
    speed, or as measured."""

    def time_of(rec: OpRecord) -> float:
        return rec.scaled if scaled else rec.seconds

    return [
        statistics.median_low(time_of(p.records[i]) for p in passes)
        for i in range(len(passes[0].records))
    ]


def per_layer(pass_: Pass) -> dict[str, float]:
    """Span seconds and counts of one staged pass, summed over operations
    (``algebra.max_coeff_bits`` is the maximum)."""
    out = {name + "_s": 0.0 for name in TIMED_SPANS}
    for span in pass_.tracer.spans:
        if span["name"] in TIMED_SPANS:
            out[span["name"] + "_s"] += span["end"] - span["start"]
    for name in COUNT_METRICS + MAX_METRICS:
        vals = [c.get(name, 0) for c in pass_.tracer.counts.values()]
        out[name] = max(vals, default=0) if name in MAX_METRICS else sum(vals)
    return out


def check_counts(passes: list[Pass]):
    """Counts must repeat exactly, operation by operation: those read off
    each pass's final algebras, and those each staged pass recorded at its
    span boundaries.  A difference fails the operation in that pass."""
    reference: dict[str, dict[str, int]] = {}
    for p in passes:
        for rec in p.records:
            if rec.counts is None:
                continue
            ref = reference.setdefault(rec.label, rec.counts)
            if rec.counts != ref:
                rec.problems.append(f"counts {rec.counts} differ from {ref}")
    for p in passes:
        if p.tracer is None:
            continue
        for rec in p.records:
            got = p.tracer.counts.get(rec.label)
            if rec.label in reference and got != reference[rec.label]:
                rec.problems.append(f"span counts {got} differ from {reference[rec.label]}")

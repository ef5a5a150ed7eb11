"""Command line front end.

Subcommands cover the whole pipeline: build a family, check a graded
algebra file, list conformal derivations, prolong, analyze, query the
root-system oracle, and verify the classification table end to end.
Output is JSON on stdout; --summary switches to a one-line digest.
Exit codes: 0 success, 1 a check or verification failed, 2 bad input,
3 an internal error.

The handlers print what the package computes: ``oracle --family`` the
oracle's ``roots.TableRow``, ``analyze`` the ``AnalysisReport``.  Each
``verify-table`` row holds one ``expected`` record, the facts of its
oracle row or, for the counterexample that no oracle row covers,
``COUNTEREXAMPLE``; one ``computed`` record, keys of the analysis report;
and ``checks``, which compare the two key by key.

``main`` may be called any number of times in one process.  The parser is
built once per process and reused: argparse keeps no state between
``parse_args`` calls, so each call gets a fresh namespace, and each
subcommand looks its ``cmd_*`` handler up when it runs, so a handler
replaced after the first call is the one that runs.
"""

import argparse
import dataclasses
import functools
import json
import sys
import time

from .analysis import SPLIT_NOT_CERTIFIED, analyze
from .errors import BadParameters, GlapError, ParseError, StepLimitExceeded
from .families import FAMILIES, build, label
from .gla import (
    GradedAlgebra,
    _load_json,
    _reached_by_minus1,
    check_gla,
    deserialize,
    deserialize_form,
    format_rational,
    transitivity_check,
)
from .prolongation import (
    ProlongationResult,
    _certify_maximal,
    _solve,
    conformal_g0,
    deserialize_prolongation,
    full_prolongation,
    scaling_split,
)
from .roots import graded_dims, table_expectation

# the verify-table rows, family by family in registry order
DEFAULT_ROWS = tuple(
    (spec.tag, dict(params)) for spec in FAMILIES.values() for params in spec.default_rows
)
# every family parameter, each an integer option of build and oracle
PARAMS = tuple(dict.fromkeys(name for spec in FAMILIES.values() for name in spec.params))
# what verify-table expects of the counterexample, which no oracle row
# covers: a nonzero degree 1 layer, so neither semisimple nor simple
COUNTEREXAMPLE = {
    "kind": 3, "signature": [2, 2], "g1_nonzero": True, "semisimple": False, "simple": False,
}
# the keys of the analysis report that verify-table prints as computed
COMPUTED = (
    "kind", "signature", "dims", "total_dim", "semisimple", "simple", "module_class",
    "matched_table_row",
)


def _emit(obj):
    print(json.dumps(obj, indent=2))


def _output(args, out, line: str) -> None:
    """Print ``line`` under --summary, else ``out`` as JSON."""
    if args.summary:
        print(line)
    else:
        _emit(out)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _str_keys(dims: dict) -> dict:
    return {str(k): v for k, v in sorted(dims.items())}


def _collect_params(args) -> dict:
    return {name: v for name in PARAMS if (v := getattr(args, name)) is not None}


def cmd_build(args) -> int:
    fam = build(args.family, **_collect_params(args))
    out = {
        "family": fam.tag,
        "params": fam.params,
        "m_dims": _str_keys(fam.m.dims_by_degree()),
        "signature": list(fam.g.signature()),
    }
    if fam.ambient is not None:
        out["ambient_dim"] = fam.ambient.n
    if fam.cartan is not None:
        out["split_cartan_dim"] = fam.cartan
    parts = {"m": fam.m, "g": fam.g, "ambient": fam.ambient}
    parts = {key: obj for key, obj in parts.items() if obj is not None}
    if args.out:
        out["written"] = []
        for key, obj in parts.items():
            path = f"{args.out}.{key}.json"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(obj.serialize())
            out["written"].append(path)
    else:
        out.update((key, obj.to_json_dict()) for key, obj in parts.items())
    tail = f"wrote {len(parts)} files" if args.out else "stdout"
    _output(args, out, f"{label(fam.tag, fam.params)}: m dims {out['m_dims']} "
                       f"signature {tuple(fam.g.signature())}, {tail}")
    return 0


def cmd_check(args) -> int:
    doc = _load_json(_read(args.path))
    next_layer = top = None
    if "complete" not in doc:
        A = GradedAlgebra.from_json_dict(doc)
    else:
        # a prolongation file, read as ``glap analyze`` reads it: a
        # 'complete' that is not a JSON boolean is bad input
        prol = ProlongationResult.from_json_dict(doc)
        A = prol.algebra
        if prol.complete:
            # a complete prolongation has no layer past its top degree nu;
            # the step solve reads a subset of the conditions, so an empty
            # layer proves it once its rank is certified
            layer = _solve(A, prol.nu + 1)
            _certify_maximal(layer)
            next_layer = len(layer)
        else:
            # cut at degree nu: certified on the triples whose brackets the
            # cut kept, as ``glap prolong --max-degree`` wrote it; they
            # decide the brackets they read only on a transitive algebra
            if not transitivity_check(A):
                raise ParseError(
                    "a prolongation marked incomplete must be transitive: "
                    "an element of degree >= 0 kills g_-1"
                )
            top = prol.nu - 1
    # the report lists the first 20 violations; its count is exact
    res = check_gla(A, max_violations=20, top=top)
    if not res["grading_ok"] or min(A.degrees, default=0) >= 0:
        # fundamentality is only meaningful once the grading itself holds,
        # and on a negative part
        fundamental, kind = False, None
    else:
        fundamental = -1 in A.by_degree() and _reached_by_minus1(A, lambda d: d < -1)
        kind = -min(A.degrees)
    ok = res["grading_ok"] and res["jacobi_ok"] and fundamental and not next_layer
    out = {
        "name": A.name,
        "grading_ok": res["grading_ok"],
        "jacobi_ok": res["jacobi_ok"],
        "violation_count": res["violation_count"],
        "violations": res["violations"],
        "fundamental": fundamental,
        "kind": kind,
        "pass": ok,
    }
    tail = ""
    if next_layer is not None:
        # marked complete: the dimension of the layer past the top, 0 if so
        out["next_layer_dim"] = next_layer
        tail = f" next_layer_dim={next_layer}"
    _output(args, out, f"{A.name}: grading={res['grading_ok']} jacobi={res['jacobi_ok']} "
                       f"fundamental={fundamental} kind={kind}{tail} -> {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_derivations(args) -> int:
    m = deserialize(_read(args.m))
    g = deserialize_form(_read(args.g))
    layer = conformal_g0(m, g)
    # the step solve reads the pairs that hold g_-1, which decide the rest
    # on a Lie m only (``prolongation``)
    count = check_gla(m)["violation_count"]
    if count:
        raise GlapError(f"{m.name} is not a Lie algebra: {count} Jacobi violations")
    _, hats = scaling_split(layer)
    layout = layer.layout
    ders = []
    for vec in layer.space.vectors:
        blocks = {
            str(p): [[format_rational(x) for x in row] for row in layout.unflatten(p, vec).a]
            for p in sorted(layout.blocks)
        }
        ders.append({"eta": format_rational(layer.eta(vec)), "blocks": blocks})
    out = {
        "algebra": m.name,
        "dim": len(layer),
        "ker_eta_dim": len(hats),
        "derivations": ders,
    }
    _output(args, out, f"{m.name}: g0 dim={len(layer)}, ker(eta) dim={len(hats)}, eta(E)=-2")
    return 0


def cmd_prolong(args) -> int:
    if args.max_degree is not None and args.max_degree < 0:
        raise BadParameters(f"--max-degree {args.max_degree}: must be at least 0")
    m = deserialize(_read(args.m))
    g = deserialize_form(_read(args.g))
    prol = full_prolongation(m, g, max_degree=args.max_degree)
    dims = _str_keys(prol.dims_by_degree())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(prol.serialize())
        out = {
            "name": prol.algebra.name,
            "dims": dims,
            "total_dim": prol.total_dim(),
            "complete": prol.complete,
            "written": args.out,
        }
    else:
        out = prol.to_json_dict()
    _output(args, out, f"{prol.algebra.name}: dims {dims} total={prol.total_dim()} "
                       f"complete={prol.complete}")
    return 0


def cmd_analyze(args) -> int:
    rep = analyze(deserialize_prolongation(_read(args.path)))
    _output(args, rep.to_json_dict(),
            f"{rep.name}: total={rep.total_dim} kind={rep.mu} sig={tuple(rep.signature)} "
            f"class={rep.module_class} semisimple={rep.semisimple} simple={rep.simple}")
    return 0


def cmd_oracle(args) -> int:
    if args.family:
        row = table_expectation(args.family, **_collect_params(args))
        out = dataclasses.asdict(row)
        line = (
            f"{row.family}{row.params}: {row.series}{row.rank} nodes "
            f"{list(row.crossed)} kind={row.kind} sig={row.signature} "
            f"class={row.module_class} total={row.total_dim} [{row.satake_label}]"
        )
    else:
        if None in (args.series, args.rank, args.crossed):
            raise BadParameters(
                "oracle needs either --family or all of --series/--rank/--crossed"
            )
        try:
            crossed = tuple(int(c) for c in args.crossed.split(","))
        except ValueError:
            raise BadParameters(f"--crossed {args.crossed!r}: expected integers like 1,3")
        gd = graded_dims(args.series, args.rank, crossed)
        out = {
            "series": gd.series,
            "rank": gd.rank,
            "crossed": list(gd.crossed),
            "kind": -min(gd.dims),
            "total_dim": gd.total_dim(),
            "dims": _str_keys(gd.dims),
        }
        line = (
            f"{gd.series}{gd.rank} nodes {list(gd.crossed)}: "
            f"dims {out['dims']} total={gd.total_dim()}"
        )
    _output(args, out, line)
    return 0


def _expected(key, params) -> dict:
    """What verify-table expects of a row whose ``Family.oracle_key`` is
    (key, params): the facts of its oracle row, or ``COUNTEREXAMPLE``."""
    if key is None:
        return COUNTEREXAMPLE
    row = table_expectation(key, **params)
    return {
        "kind": row.kind,
        "signature": list(row.signature),
        "dims": _str_keys(row.dims),
        "semisimple": True,
        "simple": True,
        "module_class": row.module_class,
        "satake_label": row.satake_label,
    }


def cmd_verify_table(args) -> int:
    rows_out = []
    failing = []
    for tag, params in DEFAULT_ROWS:
        start = time.perf_counter()
        fam = build(tag, **params)
        rep = analyze(full_prolongation(fam.m, fam.g))
        seconds = time.perf_counter() - start
        expected = _expected(*fam.oracle_key())
        report = rep.to_json_dict()
        computed = {key: report[key] for key in COMPUTED}
        have = {**computed, "g1_nonzero": computed["dims"].get("1", 0) > 0}
        # an SIII verdict counts only with its split certified
        split_ok = not any(w.startswith(SPLIT_NOT_CERTIFIED) for w in rep.warnings)
        checks = {
            ("prolong_dims_match_oracle" if key == "dims" else key):
                have[key] == want and (key != "module_class" or split_ok)
            for key, want in expected.items()
            if key != "satake_label"
        }
        row_pass = all(checks.values())
        row_label = label(tag, fam.params)
        if not row_pass:
            failing.append(row_label)
        rows_out.append(
            {
                "family": row_label,
                "params": fam.params,
                "pass": row_pass,
                "checks": checks,
                "expected": expected,
                "computed": computed,
            }
        )
        if args.summary:
            verdict = "PASS" if row_pass else "FAIL"
            bad = "" if row_pass else " failing=" + ",".join(
                k for k, v in checks.items() if not v
            )
            print(
                f"{verdict} {row_label}: total={rep.total_dim} "
                f"sig={tuple(rep.signature)} class={rep.module_class}{bad} "
                f"({seconds:.2f} s)",
                flush=True,
            )
    _output(args, {"pass": not failing, "failing": failing, "rows": rows_out},
            f"verify-table: {len(rows_out) - len(failing)}/{len(rows_out)} rows pass")
    return 1 if failing else 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process (see the
    module docstring)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--summary", action="store_true", help="one-line text output instead of JSON"
    )
    parser = argparse.ArgumentParser(
        prog="glap",
        description="graded Lie algebra prolongation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", parents=[common], help="construct a family instance")
    b.add_argument("--family", required=True, choices=tuple(FAMILIES))
    for name in PARAMS:
        b.add_argument(f"--{name}", type=int)
    b.add_argument("--out", help="path prefix for .m.json/.g.json/.ambient.json")
    b.set_defaults(func=lambda args: cmd_build(args))

    c = sub.add_parser("check", parents=[common], help="verify a graded algebra file")
    c.add_argument("path")
    c.set_defaults(func=lambda args: cmd_check(args))

    d = sub.add_parser(
        "derivations", parents=[common], help="conformal derivation algebra of (m, g)"
    )
    d.add_argument("m")
    d.add_argument("g")
    d.set_defaults(func=lambda args: cmd_derivations(args))

    p = sub.add_parser("prolong", parents=[common], help="full Tanaka prolongation")
    p.add_argument("m")
    p.add_argument("g")
    p.add_argument("--out", help="write the prolongation JSON here")
    p.add_argument(
        "--max-degree",
        type=int,
        default=None,
        help="stop after this degree; the result is certified only on the "
        "Jacobi triples its brackets fix, those with a degree -1 element and "
        "total degree below the cut (default: no cap; a run still growing "
        "after 64 steps exits 1)",
    )
    p.set_defaults(func=lambda args: cmd_prolong(args))

    a = sub.add_parser(
        "analyze", parents=[common],
        help="structure report (trusts the Jacobi identity and the complete flag, so a "
        "file cut to degrees <= 0 and marked complete, with step_dims to match, gets exit "
        "0 and no warning: certify both with check, which refuses that file by "
        "next_layer_dim)",
    )
    a.add_argument("path", help="prolongation JSON file")
    a.set_defaults(func=lambda args: cmd_analyze(args))

    o = sub.add_parser("oracle", parents=[common], help="root-system oracle")
    o.add_argument("--family", choices=[s.oracle for s in FAMILIES.values() if s.oracle])
    for name in PARAMS:
        o.add_argument(f"--{name}", type=int)
    o.add_argument("--series", choices=("A", "B", "C", "D", "F", "G"))
    o.add_argument("--rank", type=int)
    o.add_argument("--crossed", help="comma-separated node numbers, e.g. 1,3")
    o.set_defaults(func=lambda args: cmd_oracle(args))

    v = sub.add_parser(
        "verify-table", parents=[common], help="verify the classification end to end"
    )
    v.set_defaults(func=lambda args: cmd_verify_table(args))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StepLimitExceeded as e:
        _emit({"error": str(e)})
        return 1
    except (GlapError, OSError) as e:
        # ParseError and BadParameters among them: bad input
        _emit({"error": str(e)})
        return 2
    except Exception as e:
        # a defect in glap itself, never the input: keep the JSON contract
        _emit({"error": f"internal error: {type(e).__name__}: {e}"})
        return 3


if __name__ == "__main__":
    sys.exit(main())

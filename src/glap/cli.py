"""Command line front end.

Subcommands cover the whole pipeline: build a family, check a graded
algebra file, list conformal derivations, prolong, analyze, query the
root-system oracle, and verify the classification table end to end.
Output is JSON on stdout; --summary switches to a one-line digest.
Exit codes: 0 success, 1 a check or verification failed, 2 bad input.
"""

import argparse
import json
import sys

from .analysis import analyze
from .errors import BadParameters, GlapError, ParseError, StepLimitExceeded
from .families import FAMILY_TAGS, build
from .gla import (
    check_fundamental,
    check_gla,
    deserialize,
    deserialize_form,
    format_rational,
)
from .prolongation import (
    conformal_g0,
    deserialize_prolongation,
    full_prolongation,
    scaling_split,
)
from .roots import graded_dims, table_expectation

ORACLE_FAMILIES = ("HC", "HC'", "HH", "HH'", "HO", "HO'", "BI", "G")

# Every family at its smallest valid parameters, plus one non-minimal
# instance per parameterized family, plus the non-semisimple example.
DEFAULT_ROWS = (
    ("hc", {"p": 1, "q": 1}),
    ("hc", {"p": 2, "q": 1}),
    ("hc-split", {"p": 1, "q": 1}),
    ("hc-split", {"p": 2, "q": 1}),
    ("hh", {"p": 1, "q": 1}),
    ("hh", {"p": 1, "q": 2}),
    ("hh-split", {"p": 1, "q": 1}),
    ("hh-split", {"p": 1, "q": 2}),
    ("bi", {"l": 2}),
    ("bi", {"l": 3}),
    ("ho", {}),
    ("ho-split", {}),
    ("g2", {}),
    ("counterexample", {}),
)


def _emit(obj):
    print(json.dumps(obj, indent=2))


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _label(tag: str, params: dict) -> str:
    if not params:
        return tag
    inner = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{tag}({inner})"


def _str_keys(dims: dict) -> dict:
    return {str(k): v for k, v in sorted(dims.items())}


def _collect_params(args) -> dict:
    params = {}
    for name in ("p", "q", "l"):
        v = getattr(args, name, None)
        if v is not None:
            params[name] = v
    return params


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
        out["split_cartan_dim"] = fam.cartan.dim
    if args.out:
        written = []
        for suffix, text in (
            (".m.json", fam.m.serialize()),
            (".g.json", fam.g.serialize()),
        ):
            path = args.out + suffix
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            written.append(path)
        if fam.ambient is not None:
            path = args.out + ".ambient.json"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(fam.ambient.serialize())
            written.append(path)
        out["written"] = written
    else:
        out["m"] = fam.m.to_json_dict()
        out["g"] = fam.g.to_json_dict()
        if fam.ambient is not None:
            out["ambient"] = fam.ambient.to_json_dict()
    if args.summary:
        label = _label(fam.tag, fam.params)
        dims = out["m_dims"]
        tail = f"wrote {len(out['written'])} files" if args.out else "stdout"
        print(f"{label}: m dims {dims} signature {tuple(fam.g.signature())}, {tail}")
    else:
        _emit(out)
    return 0


def cmd_check(args) -> int:
    A = deserialize(_read(args.path))
    res = check_gla(A)
    neg_degrees = [d for d in A.degrees if d < 0]
    if not res["grading_ok"] or not neg_degrees:
        # fundamentality is only meaningful once the grading itself holds
        fundamental, kind = False, None
    else:
        neg = A if len(neg_degrees) == A.n else A.negative_part(A.name + ".neg")
        fundamental, kind = check_fundamental(neg)
    ok = res["grading_ok"] and res["jacobi_ok"] and fundamental
    out = {
        "name": A.name,
        "grading_ok": res["grading_ok"],
        "jacobi_ok": res["jacobi_ok"],
        "violation_count": res["violation_count"],
        "violations": res["violations"][:20],
        "fundamental": fundamental,
        "kind": kind,
        "pass": ok,
    }
    if args.summary:
        print(
            f"{A.name}: grading={res['grading_ok']} jacobi={res['jacobi_ok']} "
            f"fundamental={fundamental} kind={kind} -> {'ok' if ok else 'FAIL'}"
        )
    else:
        _emit(out)
    return 0 if ok else 1


def cmd_derivations(args) -> int:
    m = deserialize(_read(args.m))
    g = deserialize_form(_read(args.g))
    basis = conformal_g0(m, g)
    E, hats = scaling_split(basis)
    ders = []
    for el in basis.elements:
        blocks = {
            str(p): [[format_rational(x) for x in row] for row in M.a]
            for p, M in sorted(el.blocks.items())
        }
        ders.append({"eta": format_rational(el.eta), "blocks": blocks})
    out = {
        "algebra": m.name,
        "dim": len(basis),
        "ker_eta_dim": len(hats),
        "derivations": ders,
    }
    if args.summary:
        print(f"{m.name}: g0 dim={len(basis)}, ker(eta) dim={len(hats)}, eta(E)=-2")
    else:
        _emit(out)
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
    if args.summary:
        print(
            f"{prol.algebra.name}: dims {dims} total={prol.total_dim()} "
            f"complete={prol.complete}"
        )
    else:
        _emit(out)
    return 0


def cmd_analyze(args) -> int:
    prol = deserialize_prolongation(_read(args.path))
    rep = analyze(prol)
    if args.summary:
        print(
            f"{rep.name}: total={rep.total_dim} kind={rep.mu} "
            f"sig={tuple(rep.signature)} class={rep.module_class} "
            f"semisimple={rep.semisimple} simple={rep.simple}"
        )
    else:
        _emit(rep.to_json_dict())
    return 0


def cmd_oracle(args) -> int:
    if args.family:
        row = table_expectation(args.family, **_collect_params(args))
        out = {
            "family": row.family,
            "params": row.params,
            "series": row.series,
            "rank": row.rank,
            "crossed": list(row.crossed),
            "kind": row.kind,
            "signature": list(row.signature),
            "module_class": row.module_class,
            "total_dim": row.total_dim,
            "dims": _str_keys(row.dims),
            "satake_label": row.satake_label,
        }
        line = (
            f"{row.family}{row.params}: {row.series}{row.rank} nodes "
            f"{list(row.crossed)} kind={row.kind} sig={row.signature} "
            f"class={row.module_class} total={row.total_dim} [{row.satake_label}]"
        )
    else:
        if not (args.series and args.rank and args.crossed):
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
    if args.summary:
        print(line)
    else:
        _emit(out)
    return 0


def _verify_family_row(fam, prol, rep) -> tuple[dict, dict]:
    key, kp = fam.oracle_key()
    row = table_expectation(key, **kp)
    checks = {
        "kind": prol.mu == row.kind,
        "signature": tuple(rep.signature) == tuple(row.signature),
        "prolong_dims_match_oracle": prol.dims_by_degree() == row.dims,
        "semisimple": rep.semisimple is True,
        "simple": rep.simple is True,
        "module_class": rep.module_class == row.module_class,
    }
    expected = {
        "kind": row.kind,
        "signature": list(row.signature),
        "dims": _str_keys(row.dims),
        "semisimple": True,
        "simple": True,
        "module_class": row.module_class,
        "satake_label": row.satake_label,
    }
    return checks, expected


def _verify_counterexample_row(prol, rep) -> tuple[dict, dict]:
    dims = prol.dims_by_degree()
    checks = {
        "kind": prol.mu == 3,
        "signature": tuple(rep.signature) == (2, 2),
        "g1_nonzero": dims.get(1, 0) > 0,
        "semisimple": rep.semisimple is False,
        "simple": rep.simple is False,
    }
    expected = {
        "kind": 3,
        "signature": [2, 2],
        "g1_nonzero": True,
        "semisimple": False,
        "simple": False,
    }
    return checks, expected


def cmd_verify_table(args) -> int:
    rows_out = []
    failing = []
    for tag, params in DEFAULT_ROWS:
        fam = build(tag, **params)
        prol = full_prolongation(fam.m, fam.g)
        rep = analyze(prol)
        if tag == "counterexample":
            checks, expected = _verify_counterexample_row(prol, rep)
        else:
            checks, expected = _verify_family_row(fam, prol, rep)
        row_pass = all(checks.values())
        label = _label(tag, fam.params)
        if not row_pass:
            failing.append(label)
        rows_out.append(
            {
                "family": label,
                "params": fam.params,
                "pass": row_pass,
                "checks": checks,
                "expected": expected,
                "computed": {
                    "kind": prol.mu,
                    "signature": list(rep.signature),
                    "dims": _str_keys(prol.dims_by_degree()),
                    "total_dim": rep.total_dim,
                    "semisimple": rep.semisimple,
                    "simple": rep.simple,
                    "module_class": rep.module_class,
                    "matched_table_row": rep.matched_table_row,
                },
            }
        )
        if args.summary:
            verdict = "PASS" if row_pass else "FAIL"
            bad = "" if row_pass else " failing=" + ",".join(
                k for k, v in checks.items() if not v
            )
            print(
                f"{verdict} {label}: total={rep.total_dim} "
                f"sig={tuple(rep.signature)} class={rep.module_class}{bad}",
                flush=True,
            )
    all_pass = not failing
    if args.summary:
        print(f"verify-table: {len(rows_out) - len(failing)}/{len(rows_out)} rows pass")
    else:
        _emit({"pass": all_pass, "failing": failing, "rows": rows_out})
    return 0 if all_pass else 1


def _build_parser() -> argparse.ArgumentParser:
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
    b.add_argument("--family", required=True, choices=FAMILY_TAGS)
    b.add_argument("--p", type=int)
    b.add_argument("--q", type=int)
    b.add_argument("--l", type=int)
    b.add_argument("--out", help="path prefix for .m.json/.g.json/.ambient.json")
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("check", parents=[common], help="verify a graded algebra file")
    c.add_argument("path")
    c.set_defaults(func=cmd_check)

    d = sub.add_parser(
        "derivations", parents=[common], help="conformal derivation algebra of (m, g)"
    )
    d.add_argument("m")
    d.add_argument("g")
    d.set_defaults(func=cmd_derivations)

    p = sub.add_parser("prolong", parents=[common], help="full Tanaka prolongation")
    p.add_argument("m")
    p.add_argument("g")
    p.add_argument("--out", help="write the prolongation JSON here")
    p.add_argument(
        "--max-degree",
        type=int,
        default=None,
        help="stop after this degree, leaving the result uncertified "
        "(default: no cap; GLAP_STEP_LIMIT, default 64, bounds the steps)",
    )
    p.set_defaults(func=cmd_prolong)

    a = sub.add_parser("analyze", parents=[common], help="structure report")
    a.add_argument("path", help="prolongation JSON file")
    a.set_defaults(func=cmd_analyze)

    o = sub.add_parser("oracle", parents=[common], help="root-system oracle")
    o.add_argument("--family", choices=ORACLE_FAMILIES)
    o.add_argument("--p", type=int)
    o.add_argument("--q", type=int)
    o.add_argument("--l", type=int)
    o.add_argument("--series", choices=("A", "B", "C", "D", "F", "G"))
    o.add_argument("--rank", type=int)
    o.add_argument("--crossed", help="comma-separated node numbers, e.g. 1,3")
    o.set_defaults(func=cmd_oracle)

    v = sub.add_parser(
        "verify-table", parents=[common], help="verify the classification end to end"
    )
    v.set_defaults(func=cmd_verify_table)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StepLimitExceeded as e:
        _emit({"error": str(e)})
        return 1
    except (ParseError, BadParameters) as e:
        _emit({"error": str(e)})
        return 2
    except OSError as e:
        _emit({"error": str(e)})
        return 2
    except GlapError as e:
        _emit({"error": str(e)})
        return 2


if __name__ == "__main__":
    sys.exit(main())

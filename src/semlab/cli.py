"""Batch command-line front end.

Subcommands: verify, deficiency, strength, alpha, harmonious, sequential,
rho-star, certify-infinite, survey-trees, tables, witness-lower-bound.

Exit codes are a stable contract:
  0   success / witness found / certificate valid
  1   proven negative (no witness exists in the searched range)
  2   verification failure (with the distinct failure reason on stdout)
  3   unknown: search budget or cap exhausted
  64  usage or parse error

Certificates go to JSON, tables to CSV, graphs to graph6 text; outputs are
deterministic so identical invocations emit identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Sequence

from . import bounds as bounds_mod
from .graphs import (
    Graph,
    Graph6Error,
    build_family,
    build_lower_bound_witness,
    emit_graph6,
    enumerate_trees,
    is_caterpillar,
    parse_graph6,
)
from .labelings import (
    LabelingError,
    ModularLabeling,
    gap,
    recheck_sem_certificate,
    sum_set,
    verify_harmonious,
    verify_sem,
    verify_sequential,
)
from .search import (
    SearchBudget,
    SearchBudgetExceeded,
    deficiency,
    find_alpha_valuation,
    find_harmonious,
    find_sem_labeling,
    find_sequential,
    strength,
)
from .sidon import (
    EXACT_RHO_STAR,
    CertificateError,
    certify_infinite_deficiency,
    kotzig_lower_bound,
    recheck_infinity_certificate,
    rho_star,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_UNKNOWN = 3
EXIT_USAGE = 64


class UsageError(Exception):
    pass


def _budget(args) -> SearchBudget:
    return SearchBudget(node_limit=args.node_limit, time_limit=args.time_limit)


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--node-limit", type=int, default=None)
    sub.add_argument("--time-limit", type=float, default=None)


def _add_graph_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--graph6", help="graph6 text for one graph")
    sub.add_argument("--file", help="path to a file with one graph6 line per graph")
    sub.add_argument(
        "--family",
        help="named family tag (cycle, complete, prism, lower-bound-witness, "
        "complete-minus-alpha, tree-enumeration)",
    )
    sub.add_argument(
        "--params", help="comma-separated integer parameters for --family"
    )


def _load_graphs(args) -> list[Graph]:
    sources = [s for s in (args.graph6, args.file, args.family) if s]
    if len(sources) != 1:
        raise UsageError("provide exactly one of --graph6, --file, --family")
    if args.graph6:
        return [parse_graph6(args.graph6)]
    if args.file:
        with open(args.file, encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines:
            raise UsageError(f"no graph6 lines in {args.file}")
        return [parse_graph6(ln) for ln in lines]
    params = ()
    if args.params:
        try:
            params = tuple(int(x) for x in args.params.split(","))
        except ValueError as exc:
            raise UsageError(f"bad --params: {exc}") from exc
    return build_family(args.family, params)


def _load_one_graph(args) -> Graph:
    graphs = _load_graphs(args)
    if len(graphs) != 1:
        raise UsageError(f"this command needs exactly one graph, got {len(graphs)}")
    return graphs[0]


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _print_result(args, human: str, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(human)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    g = _load_one_graph(args)
    if args.cert:
        with open(args.cert, encoding="ascii") as fh:
            data = json.load(fh)
        try:
            if isinstance(data, dict) and "clique" in data:
                cert = recheck_infinity_certificate(g, data)
                _print_result(
                    args,
                    f"valid infinite-deficiency certificate: clique {cert.m}, "
                    f"bound {cert.rho_lower} > size {cert.q}",
                    {"valid": True, "kind": "infinite", **cert.to_json_dict()},
                )
            else:
                cert = recheck_sem_certificate(g, data)
                _print_result(
                    args,
                    f"valid certificate: s={cert.s} k={cert.k}",
                    {"valid": True, "kind": "sem", **cert.to_json_dict()},
                )
        except (LabelingError, CertificateError) as exc:
            _print_result(args, f"invalid: {exc}", {"valid": False, "reason": str(exc)})
            return EXIT_INVALID
        return EXIT_OK
    if not args.labels:
        raise UsageError("verify needs --labels or --cert")
    try:
        labels = tuple(int(x) for x in args.labels.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --labels: {exc}") from exc
    try:
        cert = verify_sem(g, labels, args.isolated)
    except LabelingError as exc:
        _print_result(args, f"invalid: {exc}", {"valid": False, "reason": str(exc)})
        return EXIT_INVALID
    if args.out:
        _emit(args, cert.to_json())
    _print_result(
        args,
        f"super edge-magic: s={cert.s} k={cert.k} sums {cert.sums[0]}..{cert.sums[-1]}"
        if cert.sums
        else f"super edge-magic (edgeless): k={cert.k}",
        {"valid": True, **cert.to_json_dict()},
    )
    return EXIT_OK


def cmd_deficiency(args) -> int:
    g = _load_one_graph(args)
    result = deficiency(g, args.cap, _budget(args))
    if result.kind == "finite":
        if args.out:
            _emit(args, result.witness.to_json())
        _print_result(
            args,
            f"deficiency: finite {result.value}",
            {"kind": "finite", "value": result.value, "witness": result.witness.to_json_dict()},
        )
        return EXIT_OK
    if result.kind == "infinite":
        if args.out:
            _emit(args, result.certificate.to_json())
        _print_result(
            args,
            f"deficiency: infinite (clique {result.certificate.m}, "
            f"bound {result.certificate.rho_lower} > size {result.certificate.q})",
            {"kind": "infinite", "certificate": result.certificate.to_json_dict()},
        )
        return EXIT_OK
    if result.reason == "budget":
        human = (
            f"deficiency: unknown (budget ran out at extra {result.searched_cap}; "
            f"deficiency >= {result.lower})"
        )
    else:
        human = f"deficiency: unknown (cap {result.searched_cap})"
    _print_result(
        args,
        human,
        {
            "kind": "unknown",
            "reason": result.reason,
            "searched_cap": result.searched_cap,
            "lower": result.lower,
        },
    )
    return EXIT_UNKNOWN


def cmd_strength(args) -> int:
    g = _load_one_graph(args)
    value = strength(g, _budget(args))
    _print_result(args, f"strength: {value}", {"strength": value})
    return EXIT_OK


def cmd_alpha(args) -> int:
    g = _load_one_graph(args)
    labeling = find_alpha_valuation(g, _budget(args))
    if labeling is None:
        _print_result(
            args,
            "no boundary-valuation exists",
            {"found": False},
        )
        return EXIT_NEGATIVE
    payload = {
        "found": True,
        "labels": list(labeling.values),
        "boundary": labeling.boundary,
    }
    if args.out:
        _emit(args, json.dumps(payload, indent=2) + "\n")
    _print_result(
        args,
        f"boundary-valuation: labels {','.join(map(str, labeling.values))} "
        f"boundary {labeling.boundary}",
        payload,
    )
    return EXIT_OK


def _modular_command(args, searcher, kind: str) -> int:
    g = _load_one_graph(args)
    labeling = searcher(g, _budget(args))
    if labeling is None:
        _print_result(args, f"no {kind} labeling exists", {"found": False})
        return EXIT_NEGATIVE
    payload = {"found": True, "labels": list(labeling.values)}
    if args.out:
        _emit(args, json.dumps(payload, indent=2) + "\n")
    _print_result(
        args,
        f"{kind} labeling: {','.join(map(str, labeling.values))}",
        payload,
    )
    return EXIT_OK


def cmd_harmonious(args) -> int:
    return _modular_command(args, find_harmonious, "harmonious")


def cmd_sequential(args) -> int:
    return _modular_command(args, find_sequential, "sequential")


def cmd_rho_star(args) -> int:
    value = rho_star(args.n, _budget(args))
    _print_result(args, f"rho-star({args.n}) = {value}", {"n": args.n, "rho_star": value})
    return EXIT_OK


def cmd_certify_infinite(args) -> int:
    graphs = _load_graphs(args)
    certified = 0
    payloads = []
    for idx, g in enumerate(graphs):
        cert = certify_infinite_deficiency(g)
        if cert is None:
            payloads.append({"graph": emit_graph6(g), "certified": False})
            if not args.json:
                print(f"{emit_graph6(g)}: no certificate (finiteness is NOT implied)")
        else:
            certified += 1
            payloads.append(
                {"graph": emit_graph6(g), "certified": True, **cert.to_json_dict()}
            )
            if not args.json:
                print(
                    f"{emit_graph6(g)}: infinite deficiency (clique {cert.m}, "
                    f"bound {cert.rho_lower} > size {cert.q})"
                )
            if args.out and len(graphs) == 1:
                _emit(args, cert.to_json())
    if args.json:
        print(json.dumps(payloads if len(payloads) > 1 else payloads[0], indent=2))
    return EXIT_OK if certified == len(graphs) else EXIT_NEGATIVE


def _survey_rows(max_n: int, budget: SearchBudget):
    for n in range(2, max_n + 1):
        for idx, tree in enumerate(enumerate_trees(n)):
            row = {
                "tree_id": f"n{n}-{idx:03d}",
                "order": n,
                "is_caterpillar": str(is_caterpillar(tree)).lower(),
            }
            # For a SEM labeling f of a tree, f - 1 is sequential and f mod q
            # is harmonious; g + 1 is SEM for any sequential g (README).
            try:
                labeling = find_sem_labeling(tree, tree.p, budget)
            except SearchBudgetExceeded:
                row["sem"] = row["harmonious"] = row["sequential"] = "unknown"
            else:
                if labeling is None:
                    row["sem"] = "none"
                    row["harmonious"] = "unknown"
                    row["sequential"] = "false"
                else:
                    verify_sem(tree, labeling)
                    row["sem"] = "finite0"
                    f, q = labeling.values, tree.q
                    harmonious = ModularLabeling(tuple(x % q for x in f))
                    sequential = ModularLabeling(tuple(x - 1 for x in f))
                    row["harmonious"] = str(verify_harmonious(tree, harmonious)).lower()
                    row["sequential"] = str(verify_sequential(tree, sequential)).lower()
            try:
                st = strength(tree, budget)
                row["strength"] = st
                row["strength_matches"] = str(st == n + 1).lower()
                row["conjecture3_slack"] = st - (n + 1)
            except SearchBudgetExceeded:
                row["strength"] = "unknown"
                row["strength_matches"] = "unknown"
                row["conjecture3_slack"] = "unknown"
            yield row


_SURVEY_COLUMNS = [
    "tree_id",
    "order",
    "is_caterpillar",
    "sem",
    "strength",
    "strength_matches",
    "harmonious",
    "sequential",
    "conjecture3_slack",
]

# Free-tree enumeration stays exact and fast to about this order; beyond it
# the per-tree searches dominate anyway.
SURVEY_MAX_ORDER = 14


def cmd_survey_trees(args) -> int:
    if args.max_n > SURVEY_MAX_ORDER:
        raise UsageError(
            f"survey enumeration limit is order {SURVEY_MAX_ORDER}"
        )
    rows = list(_survey_rows(args.max_n, _budget(args)))
    _write_table(args, _SURVEY_COLUMNS, rows)
    # A tree proven not SEM (`none`) refutes the conjecture that all trees
    # are SEM, so it fails the survey like any other violated expectation.
    ok = all(
        row["sem"] == "unknown"
        or (
            row["sem"] == "finite0"
            and row["strength_matches"] in ("true", "unknown")
            and row["harmonious"] in ("true", "unknown")
            and row["sequential"] in ("true", "unknown")
        )
        for row in rows
    )
    exact = sum(
        1
        for row in rows
        if row["sem"] == "finite0"
        and row["strength_matches"] == "true"
        and row["harmonious"] == "true"
        and row["sequential"] == "true"
    )
    print(
        f"survey: {len(rows)} trees; expectations verified for all "
        f"{exact} fully-decided rows"
        if ok
        else f"survey: {len(rows)} trees; EXPECTATION VIOLATED, inspect the table",
        file=sys.stderr,
    )
    return EXIT_OK if ok else EXIT_INVALID


def _write_table(args, columns: list[str], rows: list[dict]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _emit(args, buf.getvalue())


def cmd_tables(args) -> int:
    lo, hi = args.n_min, args.n_max
    if args.what == "prism":
        lo = 3 if lo is None else lo
        hi = 12 if hi is None else hi
        rows = [bounds_mod.prism_bounds(n).as_row() for n in range(lo, hi + 1)]
        for row in rows:
            row["provenance"] = (
                "odd cycle: exactly zero"
                if row["lower"] == 0
                else "bracket [1, n+1]; previous bound 3n/2-1 when 4 | n"
            )
        _write_table(
            args,
            ["n", "lower", "upper", "old_upper", "exact", "status", "provenance"],
            rows,
        )
        return EXIT_OK
    if args.what == "rho-star":
        lo = 2 if lo is None else lo
        hi = 10 if hi is None else hi
        if not 2 <= lo <= hi <= max(EXACT_RHO_STAR):
            raise UsageError(
                f"rho-star table covers n in [2, {max(EXACT_RHO_STAR)}]"
            )
        rows = [
            {
                "n": n,
                "exact": EXACT_RHO_STAR[n],
                "kotzig": kotzig_lower_bound(n) if n >= 7 else "",
                "provenance": "exact search; quadratic bound shown for n >= 7",
            }
            for n in range(lo, hi + 1)
        ]
        _write_table(args, ["n", "exact", "kotzig", "provenance"], rows)
        return EXIT_OK
    if args.what == "l-bounds":
        lo = 4 if lo is None else lo
        hi = 8 if hi is None else hi
        rows = []
        for n in range(lo, hi + 1):
            bracket = bounds_mod.l_bracket(n, max_alpha=args.max_alpha)
            rows.append(bracket.as_row())
        _write_table(
            args,
            ["n", "lower", "upper", "upper_alpha", "status", "provenance"],
            rows,
        )
        return EXIT_OK
    raise UsageError(f"unknown table selector {args.what!r}")


def cmd_witness_lower_bound(args) -> int:
    g, labeling = build_lower_bound_witness(args.n)
    sums = sum_set(g, labeling)
    payload = {
        "n": args.n,
        "graph6": emit_graph6(g),
        "size": g.q,
        "labels": list(labeling.values),
        "sums": list(sums),
        "gap": gap(sums),
    }
    if args.out:
        _emit(args, json.dumps(payload, indent=2) + "\n")
    _print_result(
        args,
        f"order {args.n} size {g.q} witness {emit_graph6(g)}: "
        f"sums {sums[0]}..{sums[-1]} gap {gap(sums)}",
        payload,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semlab",
        description="Exact search and certification for super edge-magic labelings.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("verify", help="check a labeling or re-check a certificate")
    _add_graph_flags(sub)
    sub.add_argument("--labels", help="comma-separated vertex labels")
    sub.add_argument("--isolated", type=int, default=0)
    sub.add_argument("--cert", help="certificate JSON file to re-check")
    sub.add_argument("--out")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("deficiency", help="exact super edge-magic deficiency")
    _add_graph_flags(sub)
    sub.add_argument("--cap", type=int, default=4)
    _add_budget_flags(sub)
    sub.add_argument("--out")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_deficiency)

    sub = subs.add_parser("strength", help="exact strength of a graph")
    _add_graph_flags(sub)
    _add_budget_flags(sub)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_strength)

    sub = subs.add_parser("alpha", help="search a graceful labeling with a boundary")
    _add_graph_flags(sub)
    _add_budget_flags(sub)
    sub.add_argument("--out")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_alpha)

    sub = subs.add_parser("harmonious", help="search a harmonious labeling")
    _add_graph_flags(sub)
    _add_budget_flags(sub)
    sub.add_argument("--out")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_harmonious)

    sub = subs.add_parser("sequential", help="search a sequential labeling")
    _add_graph_flags(sub)
    _add_budget_flags(sub)
    sub.add_argument("--out")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_sequential)

    sub = subs.add_parser("rho-star", help="exact minimum pairwise-sum span")
    sub.add_argument("--n", type=int, required=True)
    _add_budget_flags(sub)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_rho_star)

    sub = subs.add_parser(
        "certify-infinite", help="clique certificate of infinite deficiency"
    )
    _add_graph_flags(sub)
    sub.add_argument("--out")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_certify_infinite)

    sub = subs.add_parser("survey-trees", help="per-tree conjecture survey CSV")
    sub.add_argument("--max-n", type=int, required=True)
    _add_budget_flags(sub)
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_survey_trees)

    sub = subs.add_parser("tables", help="emit a bounds table as CSV")
    sub.add_argument("--what", choices=["l-bounds", "prism", "rho-star"], required=True)
    sub.add_argument("--n-min", type=int, default=None)
    sub.add_argument("--n-max", type=int, default=None)
    sub.add_argument("--max-alpha", type=int, default=2)
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_tables)

    sub = subs.add_parser(
        "witness-lower-bound", help="constructive dense finite-deficiency witness"
    )
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--out")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_witness_lower_bound)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Graph6Error as exc:
        print(f"graph6 parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchBudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

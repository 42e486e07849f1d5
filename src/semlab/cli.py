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
    gap,
    recheck_sem_certificate,
    sum_set,
    verify_alpha,
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
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(
    args, code: int, human: str, payload: dict | list, saved: dict | None = None
) -> int:
    """The one way a result leaves a subcommand: `saved` goes to the --out
    file, then the --json payload or the human text goes to stdout."""
    if args.out and saved is not None:
        _emit(args, json.dumps(saved, indent=2) + "\n")
    print(json.dumps(payload, indent=2) if args.json else human)
    return code


def _clique_text(cert) -> str:
    return f"clique {cert.m}, bound {cert.rho_lower} > size {cert.q}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    g = _load_one_graph(args)
    if args.labels and args.cert:
        raise UsageError("give --labels or --cert, not both")
    if args.cert:
        with open(args.cert, encoding="ascii") as fh:
            data = json.load(fh)
    elif args.labels:
        try:
            labels = tuple(int(x) for x in args.labels.split(","))
        except ValueError as exc:
            raise UsageError(f"bad --labels: {exc}") from exc
    else:
        raise UsageError("verify needs --labels or --cert")
    try:
        if not args.cert:
            cert = verify_sem(g, labels, args.isolated)
        elif isinstance(data, dict) and "clique" in data:
            cert = recheck_infinity_certificate(g, data)
        else:
            cert = recheck_sem_certificate(g, data)
    except (LabelingError, CertificateError) as exc:
        failure = {"valid": False, "reason": str(exc)}
        return _report(args, EXIT_INVALID, f"invalid: {exc}", failure)
    fields = cert.to_json_dict()
    if not args.cert:
        human = (
            f"super edge-magic: s={cert.s} k={cert.k} sums {cert.sums[0]}..{cert.sums[-1]}"
            if cert.sums
            else f"super edge-magic (edgeless): k={cert.k}"
        )
        return _report(args, EXIT_OK, human, {"valid": True, **fields}, fields)
    if "clique" in fields:
        kind, human = "infinite", f"valid infinite-deficiency certificate: {_clique_text(cert)}"
    else:
        kind, human = "sem", f"valid certificate: s={cert.s} k={cert.k}"
    return _report(args, EXIT_OK, human, {"valid": True, "kind": kind, **fields}, fields)


def cmd_deficiency(args) -> int:
    result = deficiency(_load_one_graph(args), args.cap, _budget(args))
    if result.kind == "finite":
        saved = result.witness.to_json_dict()
        payload = {"kind": "finite", "value": result.value, "witness": saved}
        return _report(args, EXIT_OK, f"deficiency: finite {result.value}", payload, saved)
    if result.kind == "infinite":
        saved = result.certificate.to_json_dict()
        payload = {"kind": "infinite", "certificate": saved}
        human = f"deficiency: infinite ({_clique_text(result.certificate)})"
        return _report(args, EXIT_OK, human, payload, saved)
    why = (
        f"budget ran out at extra {result.searched_cap}; deficiency >= {result.lower}"
        if result.reason == "budget"
        else f"cap {result.searched_cap}"
    )
    payload = {
        "kind": "unknown",
        "reason": result.reason,
        "searched_cap": result.searched_cap,
        "lower": result.lower,
    }
    return _report(args, EXIT_UNKNOWN, f"deficiency: unknown ({why})", payload)


def cmd_strength(args) -> int:
    value = strength(_load_one_graph(args), _budget(args))
    return _report(args, EXIT_OK, f"strength: {value}", {"strength": value})


def _search_command(args, search, holds, kind: str) -> int:
    """alpha, harmonious and sequential: one labeling search on one graph.
    A witness is reported only once `holds(g, labeling)` re-checks it."""
    g = _load_one_graph(args)
    labeling = search(g, _budget(args))
    if labeling is None:
        return _report(args, EXIT_NEGATIVE, f"no {kind} exists", {"found": False})
    labels = ",".join(map(str, labeling.values))
    try:
        if not holds(g, labeling):
            raise LabelingError(f"{kind} {labels} fails its verifier")
    except LabelingError as exc:
        failure = {"valid": False, "reason": str(exc)}
        return _report(args, EXIT_INVALID, f"invalid: {exc}", failure)
    payload = {"found": True, "labels": list(labeling.values)}
    if labeling.boundary is not None:
        payload["boundary"] = labeling.boundary
        labels = f"labels {labels} boundary {labeling.boundary}"
    return _report(args, EXIT_OK, f"{kind}: {labels}", payload, payload)


def _has_boundary(g: Graph, labeling) -> bool:
    # A boundary-valuation holds when the verifier finds its boundary.
    return labeling.boundary is not None and verify_alpha(g, labeling) == labeling.boundary


def cmd_rho_star(args) -> int:
    value = rho_star(args.n, _budget(args))
    payload = {"n": args.n, "rho_star": value}
    return _report(args, EXIT_OK, f"rho-star({args.n}) = {value}", payload)


def cmd_certify_infinite(args) -> int:
    graphs = _load_graphs(args)
    if args.out and len(graphs) > 1:
        raise UsageError(f"certify-infinite --out needs exactly one graph, got {len(graphs)}")
    certs = [certify_infinite_deficiency(g) for g in graphs]
    lines, payloads = [], []
    for g, cert in zip(graphs, certs):
        name = emit_graph6(g)
        if cert is None:
            lines.append(f"{name}: no certificate (finiteness is NOT implied)")
            payloads.append({"graph": name, "certified": False})
        else:
            lines.append(f"{name}: infinite deficiency ({_clique_text(cert)})")
            payloads.append({"graph": name, "certified": True, **cert.to_json_dict()})
    code = EXIT_OK if all(cert is not None for cert in certs) else EXIT_NEGATIVE
    payload = payloads if len(payloads) > 1 else payloads[0]
    saved = certs[0].to_json_dict() if certs[0] is not None else None
    return _report(args, code, "\n".join(lines), payload, saved)


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
                    row["harmonious"] = str(verify_harmonious(tree, [x % q for x in f])).lower()
                    row["sequential"] = str(verify_sequential(tree, [x - 1 for x in f])).lower()
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
    # A row passes when its SEM search ran out of budget, or when it found a
    # witness and no checked column is `false`; it is fully decided when all
    # three read `true`. A tree proven not SEM (`none`) refutes the conjecture
    # that all trees are SEM, so it fails the survey like any other violation.
    verdicts = [
        (row["sem"], {row[c] for c in ("strength_matches", "harmonious", "sequential")})
        for row in rows
    ]
    ok = all(
        sem == "unknown" or (sem == "finite0" and "false" not in seen)
        for sem, seen in verdicts
    )
    decided = sum(sem == "finite0" and seen == {"true"} for sem, seen in verdicts)
    print(
        f"survey: {len(rows)} trees; expectations verified for all "
        f"{decided} fully-decided rows"
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


def _rho_star_row(n: int) -> dict:
    return {
        "n": n,
        "exact": EXACT_RHO_STAR[n],
        "kotzig": kotzig_lower_bound(n) if n >= 7 else "",
        "provenance": "exact search; quadratic bound shown for n >= 7",
    }


def cmd_tables(args) -> int:
    # selector: default n range, CSV columns, row for one n
    lo, hi, columns, row = {
        "prism": (
            3, 12, ["n", "lower", "upper", "old_upper", "exact", "status", "provenance"],
            lambda n: bounds_mod.prism_bounds(n).as_row(),
        ),
        "rho-star": (2, 10, ["n", "exact", "kotzig", "provenance"], _rho_star_row),
        "l-bounds": (
            4, 8, ["n", "lower", "upper", "upper_alpha", "status", "provenance"],
            lambda n: bounds_mod.l_bracket(n, max_alpha=args.max_alpha).as_row(),
        ),
    }[args.what]
    lo = lo if args.n_min is None else args.n_min
    hi = hi if args.n_max is None else args.n_max
    if args.what == "rho-star" and not 2 <= lo <= hi <= max(EXACT_RHO_STAR):
        raise UsageError(f"rho-star table covers n in [2, {max(EXACT_RHO_STAR)}]")
    _write_table(args, columns, [row(n) for n in range(lo, hi + 1)])
    return EXIT_OK


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
    human = (
        f"order {args.n} size {g.q} witness {emit_graph6(g)}: "
        f"sums {sums[0]}..{sums[-1]} gap {gap(sums)}"
    )
    return _report(args, EXIT_OK, human, payload, payload)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_GRAPH = (
    ("--graph6", {"help": "graph6 text for one graph"}),
    ("--file", {"help": "path to a file with one graph6 line per graph"}),
    ("--family", {"help": "named family tag (cycle, complete, prism, lower-bound-witness, "
                          "complete-minus-alpha, tree-enumeration)"}),
    ("--params", {"help": "comma-separated integer parameters for --family"}),
)
_BUDGET = (
    ("--node-limit", {"type": int, "default": None}),
    ("--time-limit", {"type": float, "default": None}),
)
_OUT = (("--out", {}),)
_JSON = (("--json", {"action": "store_true"}),)
_N = (("--n", {"type": int, "required": True}),)

# name, handler, help, then the arguments in order. The three searches are
# looked up when called, so a patched module attribute takes effect.
_COMMANDS = (
    ("verify", cmd_verify, "check a labeling or re-check a certificate", _GRAPH + (
        ("--labels", {"help": "comma-separated vertex labels"}),
        ("--isolated", {"type": int, "default": 0}),
        ("--cert", {"help": "certificate JSON file to re-check"}),
    ) + _OUT + _JSON),
    ("deficiency", cmd_deficiency, "exact super edge-magic deficiency",
     _GRAPH + (("--cap", {"type": int, "default": 4}),) + _BUDGET + _OUT + _JSON),
    ("strength", cmd_strength, "exact strength of a graph", _GRAPH + _BUDGET + _JSON),
    ("alpha", lambda args: _search_command(
        args, find_alpha_valuation, _has_boundary, "boundary-valuation"),
     "search a graceful labeling with a boundary", _GRAPH + _BUDGET + _OUT + _JSON),
    ("harmonious", lambda args: _search_command(
        args, find_harmonious, verify_harmonious, "harmonious labeling"),
     "search a harmonious labeling", _GRAPH + _BUDGET + _OUT + _JSON),
    ("sequential", lambda args: _search_command(
        args, find_sequential, verify_sequential, "sequential labeling"),
     "search a sequential labeling", _GRAPH + _BUDGET + _OUT + _JSON),
    ("rho-star", cmd_rho_star, "exact minimum pairwise-sum span", _N + _BUDGET + _JSON),
    ("certify-infinite", cmd_certify_infinite, "clique certificate of infinite deficiency",
     _GRAPH + _OUT + _JSON),
    ("survey-trees", cmd_survey_trees, "per-tree conjecture survey CSV",
     (("--max-n", {"type": int, "required": True}),) + _BUDGET + _OUT),
    ("tables", cmd_tables, "emit a bounds table as CSV", (
        ("--what", {"choices": ["l-bounds", "prism", "rho-star"], "required": True}),
        ("--n-min", {"type": int, "default": None}),
        ("--n-max", {"type": int, "default": None}),
        ("--max-alpha", {"type": int, "default": 2}),
    ) + _OUT),
    ("witness-lower-bound", cmd_witness_lower_bound,
     "constructive dense finite-deficiency witness", _N + _OUT + _JSON),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semlab",
        description="Exact search and certification for super edge-magic labelings.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, arguments in _COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        for flag, options in arguments:
            sub.add_argument(flag, **options)
        sub.set_defaults(func=func, json=False, out=None)
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

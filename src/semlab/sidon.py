"""Well-spread (weak Sidon) sets and the infinite-deficiency certificate.

A well-spread set is a set of positive integers whose pairwise sums of
distinct elements are all different. rho_star(n) is the smallest possible
span (max sum - min sum + 1) of those pairwise sums over all well-spread
sets of cardinality n.

The certificate engine combines an exact maximum clique with a lower bound
on rho_star: in any labeling with consecutive edge sums, the labels of an
m-clique form a well-spread set whose pairwise sums all land inside a
window of q consecutive integers, so rho_star(m) > q is impossible. A graph
with rho_lower(m) > q therefore has infinite super edge-magic deficiency.

Everything here is pure; the exact rho_star values for small cardinalities
are frozen constants (reproduced by rho_star itself, see the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph
from .labelings import Certificate
from .search import SearchBudget, _BudgetClock


class CertificateError(ValueError):
    """A serialized infinite-deficiency certificate fails re-validation."""


def is_ws_set(xs: Sequence[int]) -> bool:
    """True iff the strictly increasing positive sequence is well spread."""
    xs = list(xs)
    if (xs and xs[0] < 1) or any(a >= b for a, b in zip(xs, xs[1:])):
        raise ValueError("input must be strictly increasing positive integers")
    seen = 0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            bit = 1 << (xs[i] + xs[j])
            if seen & bit:
                return False
            seen |= bit
    return True


def pairwise_sum_span(xs: Sequence[int]) -> int:
    """Largest pairwise sum minus smallest, plus one."""
    xs = tuple(xs)
    if len(xs) < 2:
        raise ValueError("span needs at least two elements")
    return xs[-1] + xs[-2] - xs[1] - xs[0] + 1


def _greedy_ws_prefix(n: int) -> list[int]:
    # Greedy smallest-next-element well-spread set; used only to seed the
    # exact search with a decent upper bound.
    xs: list[int] = []
    elems = sums = 0
    c = 1
    while len(xs) < n:
        if not (elems << c) & sums:
            xs.append(c)
            sums |= elems << c
            elems |= 1 << c
        c += 1
    return xs


def rho_star(n: int, budget: SearchBudget | None = None) -> int:
    """Exact minimum pairwise-sum span over well-spread sets of size n.

    Depth-first search with the first element pinned to 1 (translation
    keeps spans and well-spreadness) and branch-and-bound pruning on the
    achievable span. Only sets with x_n - x_{n-1} >= x_2 - x_1 are searched:
    the reflection x -> x_1 + x_n - x keeps well-spreadness and the span and
    reverses the gaps, so some optimal set meets the condition. One node
    is counted per candidate tested, admissible or not. Raises
    SearchBudgetExceeded if the budget runs out.

    Each search node carries four bitmasks of the elements chosen so far:
    `elems` (bit x per element x), `sums` (bit x + y per pair), `diffs`
    (bit y - x per pair x < y) and `forbidden`, whose bit d, for every d
    above the largest chosen element, is set iff d + x is in `sums` for
    some chosen x, i.e. iff d is not admissible. `rev` has bit top - x per
    element x, so that the new differences c - x are one shift.
    """
    if n < 2:
        raise ValueError("span is defined for cardinality >= 2")
    if n == 2:
        return 1
    clock = _BudgetClock(budget)
    best = pairwise_sum_span(_greedy_ws_prefix(n))
    # Every element chosen before the last one is below the first best.
    top = best
    nodes = 0
    check_at = clock.sync(nodes)

    def extend(m: int, c: int, x2: int, elems: int, sums: int, diffs: int,
               forbidden: int, rev: int) -> None:
        # Chooses the candidates for one position ascending, from c, its
        # first admissible candidate, already charged; m elements are still
        # to place after it and x2 is the second element, 0 while this is
        # the second position. Choosing c gives the child the masks
        #   sums' = sums | elems << c
        #   forbidden' = forbidden | diffs << c | sums' >> c
        #   diffs' = diffs | rev >> (top - c)
        # as, for d > c, d + x is in sums' (x chosen or x = c) iff d + x is
        # in sums, or d = c + e - x with e > x both chosen, or d + c is in
        # sums'. The scans jump from one clear bit of forbidden to the next
        # and charge the skipped candidates in bulk, one node each. This
        # loop also does each child's first scan, so a child with no
        # candidate below its stop is charged here and never called.
        # The span is x_n + x_{n-1} - x_2 - x_1 + 1 with x_1 = 1. Before the
        # last element, x_{n-1} >= c+m-1 and the reflection condition
        # x_n >= x_{n-1} + x_2 - 1 bound it below by 2c + 2m - 3 (this
        # subsumes 2c + 2m - 1 - x_2 from x_n >= c+m, as x_2 >= 2). For the
        # last element d, d + x_{n-1} - x_2 is its exact span. Each stop is
        # the first candidate whose bound reaches best.
        nonlocal best, nodes, check_at
        free = ~forbidden
        while True:
            y = x2 or c
            child_sums = sums | elems << c
            child_forbidden = forbidden | diffs << c | child_sums >> c
            if m > 1:
                lo = c + 1
                stop = (best - 2 * m + 6) // 2
            else:
                lo = c + y - 1
                stop = best - c + y
            a = ~child_forbidden >> lo
            nxt = lo + (a & -a).bit_length() - 1
            if nxt < stop:
                nodes += nxt - lo + 1
                if nodes > check_at:
                    check_at = clock.sync(nodes)
                if m > 1:
                    extend(m - 1, nxt, y, elems | 1 << c, child_sums,
                           diffs | rev >> (top - c), child_forbidden,
                           rev | 1 << (top - c))
                else:
                    best = nxt + c - y
            elif stop > lo:
                nodes += stop - lo
                if nodes > check_at:
                    check_at = clock.sync(nodes)
            lo = c + 1
            stop = (best - 2 * m + 4) // 2
            a = free >> lo
            c = lo + (a & -a).bit_length() - 1
            if c >= stop:
                if stop > lo:
                    nodes += stop - lo
                    if nodes > check_at:
                        check_at = clock.sync(nodes)
                return
            nodes += c - lo + 1
            if nodes > check_at:
                check_at = clock.sync(nodes)

    # With nothing forbidden yet, the second element's first candidate is 2
    # (one node, which no limit stops: a node limit is at least 1).
    if (best - 2 * n + 8) // 2 > 2:
        nodes = 1
        extend(n - 2, 2, 0, 2, 0, 0, 0, 1 << (top - 1))
    clock.sync(nodes)
    return best


# Exact spans for small cardinalities, as computed by rho_star above. The
# certificate engine reads these instead of re-searching; the test suite
# re-derives them. Cardinalities 7..10 dominate the quadratic lower bound
# used for larger cliques.
EXACT_RHO_STAR: dict[int, int] = {
    2: 1,
    3: 3,
    4: 6,
    5: 11,
    6: 19,
    7: 30,
    8: 43,
    9: 62,
    10: 80,
}


def kotzig_lower_bound(n: int) -> int:
    """Quadratic lower bound n^2 - 5n + 14 for rho_star(n), valid for n >= 7."""
    if n < 7:
        raise ValueError("the quadratic lower bound is only asserted for n >= 7")
    return n * n - 5 * n + 14


def rho_star_lower_bound(m: int) -> tuple[int, str]:
    """Best available valid lower bound for rho_star(m), with its source."""
    if m < 2:
        raise ValueError("cardinality must be >= 2")
    exact = EXACT_RHO_STAR.get(m)
    kotzig = kotzig_lower_bound(m) if m >= 7 else None
    if exact is not None and (kotzig is None or exact >= kotzig):
        return exact, "exact"
    return kotzig, "kotzig"


# ---------------------------------------------------------------------------
# Exact maximum clique (bitset branch and bound)
# ---------------------------------------------------------------------------


def max_clique(g: Graph) -> tuple[int, ...]:
    """A maximum clique, as a sorted vertex tuple. Exact.

    Branch and bound over candidate bitsets with a greedy colouring bound;
    deterministic for a given graph.
    """
    p = g.p
    if p == 0:
        return ()
    adj = g.adj
    order = sorted(range(p), key=lambda v: (-adj[v].bit_count(), v))
    best = (order[0],)

    def color_bound(cand: int) -> list[tuple[int, int]]:
        # Greedy colouring of the candidate set; returns (vertex, colour)
        # in the order they should be branched (highest colour last).
        out = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= avail - 1
                avail &= ~adj[v]
                rest &= ~(1 << v)
                out.append((v, color))
        return out

    def expand(clique: tuple[int, ...], cand: int) -> None:
        nonlocal best
        colored = color_bound(cand)
        for v, color in reversed(colored):
            if len(clique) + color <= len(best):
                return
            grown = clique + (v,)
            sub = cand & adj[v]
            if sub:
                expand(grown, sub)
            elif len(grown) > len(best):
                best = grown
            cand &= ~(1 << v)

    expand((), (1 << p) - 1)
    return tuple(sorted(best))


# ---------------------------------------------------------------------------
# Infinite-deficiency certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InfinityCertificate(Certificate):
    """Machine-checkable proof that a graph's super edge-magic deficiency is
    infinite: a clique whose well-spread sum span must exceed the graph's
    size, contradicting any consecutive-sums labeling."""

    error = CertificateError

    clique: tuple[int, ...]
    m: int
    q: int
    rho_lower: int
    source: str

    def __post_init__(self):
        if self.m != len(self.clique):
            raise CertificateError(
                f"stored m = {self.m} but clique has {len(self.clique)} vertices"
            )


def certify_infinite_deficiency(g: Graph) -> InfinityCertificate | None:
    """Emit an infinite-deficiency certificate if the clique criterion fires.

    Finds an exact maximum clique and takes the best justified lower bound
    on rho_star for its size omega >= 5; the bound never decreases with the
    clique size, so no sub-clique does better. Fires iff that bound
    strictly exceeds the graph size q. Returning None proves nothing.
    """
    clique = max_clique(g)
    if len(clique) < 5:
        return None
    bound, source = rho_star_lower_bound(len(clique))
    if bound <= g.q:
        return None
    return InfinityCertificate(
        clique=clique, m=len(clique), q=g.q, rho_lower=bound, source=source
    )


def recheck_infinity_certificate(g: Graph, data: dict) -> InfinityCertificate:
    """Independently re-validate a serialized certificate against a graph.

    Checks clique completeness, the claimed bound against the stored exact
    table / quadratic formula, and the strict inequality. No search code is
    involved (the clique is checked edge by edge, not re-found).
    """
    cert = InfinityCertificate.from_json_dict(data)
    m = cert.m
    if m < 5:
        raise CertificateError(f"clique size {m} below the minimum 5")
    verts = cert.clique
    if len(set(verts)) != m or any(not 0 <= v < g.p for v in verts):
        raise CertificateError("clique vertices must be distinct graph vertices")
    for i in range(m):
        for j in range(i + 1, m):
            if not g.has_edge(verts[i], verts[j]):
                raise CertificateError(
                    f"clique vertices {verts[i]} and {verts[j]} are not adjacent"
                )
    if cert.q != g.q:
        raise CertificateError(f"certificate q = {cert.q} but graph has size {g.q}")
    if cert.source == "exact":
        justified = EXACT_RHO_STAR.get(m)
        if justified is None:
            raise CertificateError(f"no exact span value stored for cardinality {m}")
    elif cert.source == "kotzig":
        if m < 7:
            raise CertificateError("quadratic bound is only valid for cliques >= 7")
        justified = kotzig_lower_bound(m)
    else:
        raise CertificateError(f"unknown bound source {cert.source!r}")
    if cert.rho_lower > justified:
        raise CertificateError(
            f"claimed bound {cert.rho_lower} exceeds the justified {justified}"
        )
    if cert.rho_lower <= cert.q:
        raise CertificateError(
            f"bound {cert.rho_lower} does not exceed graph size {cert.q}"
        )
    return cert

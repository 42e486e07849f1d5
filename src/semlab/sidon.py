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


def _check_increasing(xs: Sequence[int]) -> None:
    if (xs and xs[0] < 1) or any(a >= b for a, b in zip(xs, xs[1:])):
        raise ValueError("input must be strictly increasing positive integers")


def is_ws_set(xs: Sequence[int]) -> bool:
    """True iff the strictly increasing positive sequence is well spread."""
    xs = list(xs)
    _check_increasing(xs)
    seen = 0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            bit = 1 << (xs[i] + xs[j])
            if seen & bit:
                return False
            seen |= bit
    return True


def pairwise_sum_span(xs: Sequence[int]) -> int:
    """Largest pairwise sum minus smallest, plus one, of a strictly
    increasing positive sequence."""
    xs = tuple(xs)
    if len(xs) < 2:
        raise ValueError("span needs at least two elements")
    _check_increasing(xs)
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


# D(k), the least diameter x_k - x_1 of a well-spread set of k elements, for
# k < len(_LEAST_DIAMETER); sets of at most one element have diameter 0.
# The test suite re-derives it by an independent search.
_LEAST_DIAMETER = (0, 0, 1, 2, 4, 7, 12, 18, 24, 34, 45, 57)


def _least_diameter(k: int) -> int:
    # Past the table D(k) >= D(k - 1) + 1: dropping the largest element of a
    # well-spread k-set leaves a well-spread (k - 1)-set at least 1 shorter.
    last = len(_LEAST_DIAMETER) - 1
    return _LEAST_DIAMETER[min(k, last)] + max(k - last, 0)


def rho_star(n: int, budget: SearchBudget | None = None) -> int:
    """Exact minimum pairwise-sum span over well-spread sets of size n.

    Branch and bound from both ends. The span x_n + x_{n-1} - x_2 - x_1 + 1
    depends only on the four extreme elements, so with x_1 = 1 (translation
    keeps spans and well-spreadness) the search loops over a = x_2, then
    b = x_{n-1}, then z = x_n, each ascending while the span z + b - a can
    stay below the best found, and only then asks whether n - 4 middle
    elements fit in (a, b), placing them ascending. With D(k) the least
    diameter of a well-spread k-set (`_least_diameter`), the cuts are:

    - z >= a + b. The reflection x -> x_1 + x_n - x keeps well-spreadness
      and the span and reverses the gaps, so some optimal set has
      z - b >= a - 1; and z = a + b - 1 would give 1 + z = a + b.
    - b >= a + D(n - 2), b >= 1 + D(n - 1) and z >= 1 + D(n), as
      x_2..x_{n-1}, x_1..x_{n-1} and the whole set are well spread.
    - A middle candidate d with k elements still to place, d included,
      needs b - d >= D(k + 1), as d, the k - 1 after it and b are well
      spread, and at least k admissible positions in [d, b).

    One node is counted per candidate tested, admissible or not: each a,
    b and z whose bound is below the best span, and each middle position
    scanned, up to the first admissible one, which is then tested against
    the slot cut, or up to the diameter stop. Inadmissible positions are
    skipped by a bit scan and charged in bulk. Raises SearchBudgetExceeded
    if the budget runs out.

    The middle search carries bitmasks of the elements chosen so far:
    `elems` (bit x per element x), `sums` (bit x + y per pair), `diffs`
    (bit y - x per pair x < y) and `forbidden`, whose bit d, for every d
    above the last middle element chosen (every d before the first), is
    set iff d + x is in `sums` for some chosen x, i.e. iff d is not
    admissible. `rev` has bit z - x
    per element x, so that the new differences c - x are one shift.
    """
    if n < 2:
        raise ValueError("span is defined for cardinality >= 2")
    if n < 4:
        # The span is 1 for n = 2 and x_3 - x_1 + 1 >= 3 for n = 3, which
        # {1, 2, 3} attains.
        return 2 * n - 3
    clock = _BudgetClock(budget)
    best = pairwise_sum_span(_greedy_ws_prefix(n))
    least = [_least_diameter(k) for k in range(n + 1)]
    nodes = 0
    check_at = clock.sync(nodes)

    def fill(k: int, c: int, elems: int, sums: int, diffs: int,
             forbidden: int, rev: int) -> bool:
        # Tries the candidates for one middle position ascending, from c,
        # its first, already charged and past both cuts; k elements are
        # still to place, c included, below b (window = 1 << b) and with z
        # the largest element. True iff the middle can be completed.
        # Choosing c gives the child the masks
        #   sums' = sums | elems << c
        #   forbidden' = forbidden | diffs << c | sums' >> c
        #   diffs' = diffs | rev >> (z - c) | elems >> c
        # as, for d > c, d + x is in sums' (x chosen or x = c) iff d + x is
        # in sums, or d = c + e - x with e > x both chosen, or d + c is in
        # sums'; the new differences are c - x for the chosen x < c and
        # y - c for y = b, z. This loop also does each child's first scan
        # and cuts, so a child with no candidate left is charged here and
        # never called.
        nonlocal nodes, check_at
        free = ~forbidden
        stop = b - least[k + 1] + 1
        child_stop = b - least[k] + 1
        while True:
            child_sums = sums | elems << c
            child_forbidden = forbidden | diffs << c | child_sums >> c
            child_free = ~child_forbidden
            lo = c + 1
            w = child_free >> lo
            d = lo + (w & -w).bit_length() - 1
            if d < child_stop:
                nodes += d - lo + 1
                if nodes > check_at:
                    check_at = clock.sync(nodes)
                if k == 2:  # d is the last middle element
                    return True
                if (child_free & (window - (1 << d))).bit_count() >= k - 1 and fill(
                    k - 1, d, elems | 1 << c, child_sums,
                    diffs | rev >> (z - c) | elems >> c, child_forbidden,
                    rev | 1 << (z - c),
                ):
                    return True
            elif child_stop > lo:
                nodes += child_stop - lo
                if nodes > check_at:
                    check_at = clock.sync(nodes)
            w = free >> lo
            c = lo + (w & -w).bit_length() - 1
            if c >= stop:
                if stop > lo:
                    nodes += stop - lo
                    if nodes > check_at:
                        check_at = clock.sync(nodes)
                return False
            nodes += c - lo + 1
            if nodes > check_at:
                check_at = clock.sync(nodes)
            if (free & (window - (1 << c))).bit_count() < k:
                return False

    # The span bounds, 2b (from z >= a + b) and 1 + D(n) + b - a, never
    # fall as b grows, and the least b never falls as a grows.
    k = n - 4
    a = 2
    while 2 * (b := max(a + least[n - 2], 1 + least[n - 1])) < best:
        nodes += 1
        if nodes > check_at:
            check_at = clock.sync(nodes)
        while 2 * b < best and 1 + least[n] + b - a < best:
            nodes += 1
            if nodes > check_at:
                check_at = clock.sync(nodes)
            window = 1 << b
            stop = b - least[k + 1] + 1
            z = max(a + b, 1 + least[n])
            while z + b - a < best:
                nodes += 1
                if nodes > check_at:
                    check_at = clock.sync(nodes)
                if k == 0:  # {1, a, b, z} is well spread, as z != a + b - 1
                    best = z + b - a
                    break
                elems = 2 | 1 << a | 1 << b | 1 << z
                sums = (1 << 1 + a | 1 << 1 + b | 1 << 1 + z | 1 << a + b
                        | 1 << a + z | 1 << b + z)
                forbidden = sums >> 1 | sums >> a | sums >> b | sums >> z
                lo = a + 1
                w = ~forbidden >> lo
                c = lo + (w & -w).bit_length() - 1
                if c < stop:
                    nodes += c - lo + 1
                    if nodes > check_at:
                        check_at = clock.sync(nodes)
                    if k == 1 or (
                        (~forbidden & (window - (1 << c))).bit_count() >= k
                        and fill(k, c, elems, sums,
                                 1 << a - 1 | 1 << b - 1 | 1 << z - 1
                                 | 1 << b - a | 1 << z - a | 1 << z - b,
                                 forbidden, 1 << z - 1 | 1 << z - a | 1 << z - b | 1)
                    ):
                        best = z + b - a
                        break
                elif stop > lo:
                    nodes += stop - lo
                    if nodes > check_at:
                        check_at = clock.sync(nodes)
                z += 1
            b += 1
        a += 1
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

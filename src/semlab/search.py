"""Exact decision and optimization engines.

All engines are complete: a None / proven answer means no solution exists
in the stated range, and running out of budget raises SearchBudgetExceeded
(surfaced as an Unknown result by `deficiency`) rather than guessing.

Engines are single-threaded and explore label candidates in increasing
order over one fixed vertex order, `_search_order`: degree descending;
within one degree, the vertex with the most neighbours already in the
order; then the lowest index. Degree comes first because the weighted-sum
bound pairs the later degrees in order; the tie-break keeps each new
vertex next to placed ones whatever the numbering. Repeated runs return
identical witnesses. One placement kernel, `_first_labeling`, backs
`find_sem_labeling`, `deficiency`, `find_sequential`, `find_harmonious`
and `find_alpha_valuation`: each call returns the lexicographically first
valid labeling within its label ranges, read as the tuple of labels along
that order. The symmetry rules
of the consecutive-sum search rely on this contract: they only cut
branches that cannot hold that labeling. They are the lex-leader rule at
the first vertex v0 (complement and the automorphism orbit of v0) and its
stabiliser chain: where an automorphism fixes the first i vertices, the
image w of the vertex at position i must get a larger label, so that
position's link makes the kernel start above it. The orbit set is closed
under every automorphism the chain found, so each of them maps it onto
itself and keeps the orbit's label range. The kernel works out the
admissible labels of each vertex as one bitmask and visits only those,
but charges the budget one node per candidate that passes the label test,
as a one-by-one scan would; node counts and budget outcomes are therefore
independent of how candidates are tested.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .graphs import Graph, bipartition, stabiliser_chain
from .labelings import Labeling, SemCertificate, label_domain, verify_sem


class SearchBudgetExceeded(RuntimeError):
    """The node or time budget ran out before the search finished."""


@dataclass(frozen=True)
class SearchBudget:
    """Limits for one engine call. None means unlimited."""

    node_limit: int | None = None
    time_limit: float | None = None

    def __post_init__(self):
        if self.node_limit is not None and self.node_limit <= 0:
            raise ValueError("node_limit must be positive")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")


class _BudgetClock:
    """Shared node counter / deadline for one engine call."""

    __slots__ = ("nodes", "node_limit", "deadline", "_check_mask")

    def __init__(self, budget: SearchBudget | None):
        self.nodes = 0
        self.node_limit = budget.node_limit if budget else None
        self.deadline = (
            time.monotonic() + budget.time_limit
            if budget and budget.time_limit
            else None
        )
        self._check_mask = 0x3FF

    def sync(self, nodes: int) -> float:
        """Bring the count up to `nodes`, the caller's own running count, and
        return the largest count the caller may reach before its next sync():
        past it the node limit or the deadline could stop the search.

        The charge acts as one charge per node would: it raises at the first
        node past the node limit, leaving the count there, and checks the
        deadline whenever the count crosses a multiple of 1024."""
        before = self.nodes
        self.nodes = nodes
        if self.node_limit is not None and nodes > self.node_limit:
            self.nodes = self.node_limit + 1
            raise SearchBudgetExceeded(f"node limit exceeded after {self.nodes} nodes")
        if (
            self.deadline is not None
            and before | self._check_mask < nodes
            and time.monotonic() > self.deadline
        ):
            raise SearchBudgetExceeded(f"time limit exceeded after {nodes} nodes")
        horizon = math.inf if self.node_limit is None else self.node_limit
        if self.deadline is not None:
            horizon = min(horizon, nodes | self._check_mask)
        return horizon


def _search_order(g: Graph) -> list[int]:
    """The fixed exploration order of every kernel engine: degree
    descending; within one degree, the vertex with the most neighbours
    already in the order; then the lowest index. The tie-break makes the
    order follow the edges, not the numbering, so that each new vertex
    meets placed neighbours whose labels prune it."""
    adj = g.adj
    classes = [0] * g.p  # classes[d]: the vertices of degree d
    for v, nbrs in enumerate(adj):
        classes[nbrs.bit_count()] |= 1 << v
    order: list[int] = []
    placed = 0
    for d in range(g.p - 1, -1, -1):
        left = classes[d]
        while left:
            best, pick = -1, 0
            scan = left
            while scan:
                bit = scan & -scan
                scan ^= bit
                links = (adj[bit.bit_length() - 1] & placed).bit_count()
                if links > best:
                    best, pick = links, bit
                    if links == d:  # no later vertex can beat it
                        break
            left ^= pick
            placed |= pick
            order.append(pick.bit_length() - 1)
    return order


def _first_labeling(
    g: Graph,
    order: list[int],
    candidates: list[range],
    kind: str,
    clock: _BudgetClock,
    repeats: int = 0,
    sum_range: tuple[int, int] | None = None,
    unused: int = 0,
    links: list[int] | None = None,
) -> Optional[tuple[int, ...]]:
    """The lexicographically first labeling along `order`, indexed by vertex,
    whose q edge values are pairwise distinct and fit in a window of q
    consecutive integers; None if there is none.

    Vertex v takes a label from the range `candidates[v]`, tried in
    increasing order. The edge uv gets a value of kind "sum" (f(u) + f(v)),
    "residue" ((f(u) + f(v)) mod q) or "difference" (|f(u) - f(v)|).
    Labels are distinct, except that `repeats` of them may be used twice.
    q distinct integers in a window of q are consecutive. Differences of
    distinct labels in [0, q] and residues mod q always fit such a window,
    so that test cuts only sums.

    Sets of labels and of edge values are bitmasks. `seen` holds the values
    of the edges placed so far; a residue r is held at both r and r + q,
    and a difference d also at top - d in `mirror` (top the largest label).
    At each position the admissible labels are worked out at once: the
    candidate range less the used labels (all of it while a repeat is
    spare), less OR over the placed neighbour labels L of the labels that
    repeat a value: `seen >> L` for sums and residues, and
    `seen << L | mirror >> (top - L)` for differences. For sums they are
    also cut to [high - q - min L + 1, low + q - max L - 1] (low, high the
    extreme sums so far), and to nothing if max L - min L >= q: that keeps
    the sums within a window of q. A label c then adds the values
    `nm << c` (nm the mask of neighbour labels; residues fold it mod q,
    differences join `nm >> c` and the mirror of nm shifted), which must
    be as many as the neighbours. Only the admissible labels are visited,
    but one node is still charged per candidate that passes the label
    test: those up to c before c is tried, and the rest when the position
    is exhausted. The count is kept here and handed to `clock` only where
    the budget could run out (`_BudgetClock.sync`), so the budget runs out
    at the same node as with one charge per candidate.

    `sum_range` = (a, b) is for sums when every valid labeling has its
    sums in [a, b]; it needs degrees non-increasing along `order`, as in
    `_search_order`. The sums outside start out
    as seen, so the duplicate test rejects them. And each candidate that
    passes the sum tests must leave Σ deg(v)·f(v) = q·s + q(q-1)/2
    reachable for an s with a <= s <= b-q+1 and high-q+1 <= s <= low: the
    rest of the weighted sum lies between the later degrees, in order,
    taking the free labels from the bottom and from the top (rearrangement
    inequality). These bounds are worked out once per set of used labels.

    `unused` is a mask of labels, for injective labelings with one spare
    label, that holds the label every valid labeling leaves unused. Where
    only one label of the mask is still unused, that label is left out of
    the candidates, neither visited nor charged: using it would leave the
    spare label outside the mask.

    `links[i] = j >= 0` says that the label at position i must exceed the
    label at position j < i, for injective labelings (-1: no such link).
    The labels up to that one are left out of the candidates, neither
    visited nor charged.
    """
    p, q = g.p, g.q
    pos_of = [0] * p
    for i, v in enumerate(order):
        pos_of[v] = i
    nbrs_before = [
        [pos_of[u] for u in g.neighbors(v) if pos_of[u] < i]
        for i, v in enumerate(order)
    ]
    counts = [len(before) for before in nbrs_before]
    cands = [candidates[v] for v in order]
    masks = [(1 << r.stop) - (1 << r.start) if r else 0 for r in cands]
    top = max(r.stop for r in cands) - 1
    sums, diffs = kind == "sum", kind == "difference"
    both = (1 << 2 * q) - 1  # the residues 0..q-1 and their copies q..2q-1
    below_top = (1 << top) - 1
    labels = [0] * p
    links = links or [-1] * p
    nodes = clock.nodes
    check_at = clock.sync(nodes)
    seen0 = bound_end = 0
    if sum_range is not None:
        a, b = sum_range
        # Every sum outside [a, b]; the sums are at most 2*top.
        seen0 = ((1 << 2 * top + 2) - 1) ^ ((1 << b + 1) - (1 << a))
        deg = [g.degree(v) for v in order]
        pool = sorted(set().union(*cands))
        # The last position needs no bound: its span test settles the sum.
        # With spare labels the bound also skips the positions whose later
        # vertices share one degree: there it seldom cuts, and on regular
        # graphs it would only slow every node down.
        bound_end = p - 1 if len(pool) == p else max(0, deg.index(deg[-1]) - 1)
        offset = q * (q - 1) // 2
        s_top, s_bottom = q * (b - q + 1), q * a
        rest: dict[int, tuple[int, int]] = {}

        def rest_range(used: int, i: int) -> tuple[int, int]:
            # Extremes of Σ deg·f over the positions after i, taking labels
            # not in used, less q(q-1)/2 so that they compare with q·s.
            free = [x for x in pool if not used >> x & 1]
            later = deg[i + 1 :]
            out = rest[used] = (
                sum(d * x for d, x in zip(later, free)) - offset,
                sum(d * x for d, x in zip(later, reversed(free))) - offset,
            )
            return out

    def place(
        i: int, used: int, spare: int, seen: int, mirror: int, low: float,
        high: int, weight: int,
    ) -> bool:
        nonlocal nodes, check_at
        if i == p:
            return True
        ok = masks[i] if spare else masks[i] & ~used
        if links[i] >= 0:
            ok &= -2 << labels[links[i]]
        if unused:
            left = unused & ~used
            if not left & left - 1:
                ok &= ~left
        nm = nmir = forbidden = 0
        if diffs:
            for j in nbrs_before[i]:
                x = labels[j]
                nm |= 1 << x
                nmir |= 1 << top - x
                forbidden |= seen << x | mirror >> top - x
            admissible = ok & ~forbidden
        else:
            for j in nbrs_before[i]:
                x = labels[j]
                nm |= 1 << x
                forbidden |= seen >> x
            admissible = ok & ~forbidden
            if nm.bit_count() != counts[i]:
                admissible = 0
            elif sums and nm:
                min_l, max_l = (nm & -nm).bit_length() - 1, nm.bit_length() - 1
                start = high - q - min_l + 1
                stop = low + q - max_l - 1
                if max_l - min_l >= q or stop < start or stop < 0:
                    admissible = 0
                else:
                    if start > 0:
                        admissible &= -1 << start
                    if stop < top:
                        admissible &= (2 << stop) - 1
        bounded = i < bound_end
        charged = 0
        while admissible:
            bit = admissible & -admissible
            admissible ^= bit
            c = bit.bit_length() - 1
            k = (ok & (bit << 1) - 1).bit_count()
            nodes += k - charged
            charged = k
            if nodes > check_at:
                check_at = clock.sync(nodes)
            new_mirror, new_low, new_high = mirror, low, high
            if sums:
                add = nm << c
                if nm:
                    if c + min_l < low:
                        new_low = c + min_l
                    if c + max_l > high:
                        new_high = c + max_l
            elif diffs:
                add = nmir >> top - c | nm >> c
                if add.bit_count() != counts[i]:
                    continue
                new_mirror |= (nm << top - c | nmir << c) & below_top
            else:
                add = nm << c
                add = (add | add << q | add >> q) & both
            w = weight
            if bounded:
                w += deg[i] * c
                nu = used | bit
                least, most = rest.get(nu) or rest_range(nu, i)
                least += w
                most += w
                if (
                    least > s_top or least > q * new_low
                    or most < s_bottom or most < q * (new_high - q + 1)
                ):
                    continue
            labels[i] = c
            if place(
                i + 1, used | bit, spare - (used >> c & 1), seen | add,
                new_mirror, new_low, new_high, w,
            ):
                return True
        nodes += ok.bit_count() - charged
        if nodes > check_at:
            check_at = clock.sync(nodes)
        return False

    found = place(0, 0, repeats, seen0, 0, math.inf, 0, 0)
    clock.sync(nodes)
    if not found:
        return None
    out = [0] * p
    for i, v in enumerate(order):
        out[v] = labels[i]
    return tuple(out)


def _consecutive_sum_search(
    g: Graph, lo: int, tops: Iterable[int], clock: _BudgetClock
) -> Iterator[Optional[tuple[int, ...]]]:
    """For each hi in `tops`, in turn: an injective labeling of V(g) into
    [lo, hi] whose q edge sums are duplicate-free and consecutive, or None
    if none exists.

    Yields labels indexed by vertex: the lexicographically first labeling
    along `_search_order` (degree descending, so that the weighted-sum
    bound holds; then most neighbours already placed; then lowest index).
    Prunes on duplicate sums and on the sum span
    exceeding q (a q-element duplicate-free set is consecutive iff its span
    is exactly q), and applies rules that keep that first labeling:

    - Counting: vertex v lies on deg(v) edges and the sums are s, ..., s+q-1,
      so sum_v deg(v)*f(v) = q*s + q(q-1)/2. By rearrangement the left side
      lies between the largest degrees taking the smallest labels and them
      taking the largest, and s lies in [2*lo + 1, 2*hi - q]. No integer s
      fitting both refutes the range before any node.
    - Sum window and weighted-sum bound: the s that counting allows form
      [s_min, s_max], so every sum lies in [s_min, s_max + q - 1]. The
      kernel rejects the sums outside from the first edge on, and cuts a
      candidate once the identity can no longer hold for an allowed s (see
      `_first_labeling`).
    - Unused-label pin: on an r-regular graph with one spare label u (hi -
      lo = p), the left side of the identity is r*(T - u), T = lo + ... +
      hi. So u lies in U = {T - (q*s + q(q-1)/2)/r : s in [s_min, s_max],
      the division exact, lo <= value <= hi}. An empty U refutes the range
      before any node; otherwise the kernel never uses the last unused
      label of U (see `_first_labeling`).
    - Lex-leader: automorphisms and the complement f -> lo+hi-f map valid
      labelings to valid labelings, so the first one is no larger at the
      first position v0 than any of those images. Hence f(v0) <= (lo+hi)//2,
      and every other w in the computed part O of v0's automorphism orbit
      has f(v0) < f(w) <= lo+hi-f(v0).
    - Stabiliser chain: let v_i be the vertex at position i >= 1, and sigma
      an automorphism that fixes v_0, ..., v_{i-1} and maps O onto itself.
      Then f o sigma is valid, keeps every candidate range above (and the
      sum window and U), and agrees with f before position i, so the first
      labeling f has f(v_i) <= f(sigma(v_i)), and f(sigma(v_i)) > f(v_i) as
      f is injective. The kernel takes one such link per position, from the
      last i that has one (`graphs.stabiliser_chain`). O is the closure of
      v0 under every map the chain found, so each of them, and each
      composition of them, maps O onto itself.

    The vertex order, the chain and O depend on g alone, so one call works
    each out once: the order and the links at the first range that
    counting does not refute, where f(v0) = lo leaves every range whole;
    O, from level 0 of the chain, when a search first gets past f(v0) = lo.
    """
    p, q = g.p, g.q
    degrees = sorted(g.degrees(), reverse=True)
    offset = q * (q - 1) // 2
    order: list[int] = []
    orbit: list[int] | None = None
    links: list[int] = []
    chain: Iterator

    def search(hi: int) -> Optional[tuple[int, ...]]:
        nonlocal order, orbit, links, chain
        if hi - lo + 1 < p:
            return None
        if q == 0:
            return tuple(range(lo, lo + p))
        weight_min = sum(d * (lo + i) for i, d in enumerate(degrees))
        weight_max = sum(d * (hi - i) for i, d in enumerate(degrees))
        s_min = max(2 * lo + 1, -((offset - weight_min) // q))
        s_max = min(2 * hi - q, (weight_max - offset) // q)
        if s_min > s_max:
            return None
        unused = 0
        if hi - lo == p and degrees[-1] == degrees[0]:
            total = (lo + hi) * (p + 1) // 2
            for s in range(s_min, s_max + 1):
                kept, remainder = divmod(q * s + offset, degrees[0])
                if not remainder and lo <= total - kept <= hi:
                    unused |= 1 << total - kept
            if not unused:
                return None
        if not order:
            order = _search_order(g)
            chain = stabiliser_chain(g, order)
            links, _ = next(chain)
        v0 = order[0]
        candidates = [range(lo, hi + 1)] * p
        for first in range(lo, (lo + hi) // 2 + 1):
            if first == lo + 1 and orbit is None:
                # With f(v0) = lo the orbit range [lo+1, hi] cuts nothing, so
                # level 0 of the chain is searched only once a search gets
                # past that label.
                orbit = [w for w in next(chain) if w != v0]
            # The loop over f(v0) narrows the ranges of v0 and its automorphic
            # images.
            candidates[v0] = range(first, first + 1)
            if first > lo:
                for w in orbit:
                    candidates[w] = range(first + 1, lo + hi - first + 1)
            labels = _first_labeling(
                g, order, candidates, "sum", clock,
                sum_range=(s_min, s_max + q - 1), unused=unused, links=links,
            )
            if labels is not None:
                return labels
        return None

    for hi in tops:
        yield search(hi)


def find_sem_labeling(
    g: Graph, max_label: int, budget: SearchBudget | None = None
) -> Optional[Labeling]:
    """Injective labeling into [1, max_label] with consecutive edge sums.

    None means provably no such labeling exists; budget exhaustion raises
    SearchBudgetExceeded instead.
    """
    if max_label < g.p:
        raise ValueError("max_label must be at least the graph order")
    clock = _BudgetClock(budget)
    labels = next(_consecutive_sum_search(g, 1, [max_label], clock))
    return None if labels is None else Labeling(labels)


@dataclass(frozen=True)
class DeficiencyResult:
    """Outcome of a deficiency computation.

    finite: `value` isolated vertices suffice and `witness` proves it, and
    no smaller count works (exhaustive below). infinite: `certificate`
    proves no count works. unknown: `reason` says why the search stopped.
    "cap": every count up to `searched_cap` was refuted; "budget": the
    budget ran out while searching `searched_cap` isolated vertices, after
    every smaller count was refuted.
    """

    kind: str
    value: int | None = None
    witness: SemCertificate | None = None
    certificate: object | None = None
    searched_cap: int | None = None
    reason: str | None = None

    @property
    def lower(self) -> int | None:
        """Proven lower bound on the deficiency (None when infinite)."""
        if self.kind == "unknown":
            return self.searched_cap + (self.reason == "cap")
        return self.value

    @staticmethod
    def finite(value: int, witness: SemCertificate) -> "DeficiencyResult":
        return DeficiencyResult(kind="finite", value=value, witness=witness)

    @staticmethod
    def infinite(certificate) -> "DeficiencyResult":
        return DeficiencyResult(kind="infinite", certificate=certificate)

    @staticmethod
    def unknown(searched_cap: int, reason: str = "cap") -> "DeficiencyResult":
        return DeficiencyResult(
            kind="unknown", searched_cap=searched_cap, reason=reason
        )


def deficiency(
    g: Graph, cap: int, budget: SearchBudget | None = None
) -> DeficiencyResult:
    """Exact super edge-magic deficiency, searched up to `cap` isolates.

    Tries the infinite-deficiency certificate first; otherwise searches
    injective labelings into [1, p], [1, p+1], ... in order, so the first
    success is the exact minimum (unused labels go to isolated vertices).
    Exhausting the cap, or the budget, yields an unknown result whose
    `reason` says which.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    from .sidon import certify_infinite_deficiency

    cert = certify_infinite_deficiency(g)
    if cert is not None:
        return DeficiencyResult.infinite(cert)
    clock = _BudgetClock(budget)
    searches = _consecutive_sum_search(g, 1, range(g.p, g.p + cap + 1), clock)
    for extra in range(cap + 1):
        try:
            labels = next(searches)
        except SearchBudgetExceeded:
            return DeficiencyResult.unknown(extra, "budget")
        if labels is not None:
            witness = verify_sem(g, labels, extra)
            return DeficiencyResult.finite(extra, witness)
    return DeficiencyResult.unknown(cap)


def strength(g: Graph, budget: SearchBudget | None = None) -> int:
    """Exact strength: the minimum over all bijective numberings onto
    [1, p] of the maximum edge sum.

    Branch and bound assigning labels p, p-1, ... to vertices (low-degree
    vertices tried first); a partial assignment is cut off when some
    labelled vertex with d unlabelled neighbours already forces a sum of
    at least label + d, since those neighbours get distinct labels below
    the current one.
    """
    if g.q == 0:
        raise ValueError("strength is undefined for edgeless graphs")
    clock = _BudgetClock(budget)
    p = g.p
    adj = g.adj
    vertex_order = sorted(range(p), key=lambda v: (g.degree(v), v))
    best = 2 * p  # above any achievable maximum sum

    labels = [0] * p
    full = (1 << p) - 1
    nodes = 0
    check_at = clock.sync(nodes)

    def assign(next_label: int, cur_max: int, unlabeled: int) -> None:
        # labels[v] is read only while v is labelled, so it is never reset.
        nonlocal best, nodes, check_at
        if cur_max >= best:
            return
        if next_label == 0:
            best = cur_max
            return
        # Admissible bound: a labelled vertex with d unlabelled neighbours
        # will see a sum >= its label + d (labels below next_label are
        # distinct positive integers).
        scan = full - unlabeled
        while scan:
            v = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            d = (adj[v] & unlabeled).bit_count()
            if d and labels[v] + d >= best:
                return
        for v in vertex_order:
            if not unlabeled >> v & 1:
                continue
            nodes += 1
            if nodes > check_at:
                check_at = clock.sync(nodes)
            realized = cur_max
            nb = adj[v] & ~unlabeled
            while nb:
                u = (nb & -nb).bit_length() - 1
                nb &= nb - 1
                s = next_label + labels[u]
                if s >= best:
                    break
                if s > realized:
                    realized = s
            else:
                labels[v] = next_label
                assign(next_label - 1, realized, unlabeled & ~(1 << v))

    assign(p, 0, full)
    clock.sync(nodes)
    return best


def find_alpha_valuation(
    g: Graph, budget: SearchBudget | None = None
) -> Optional[Labeling]:
    """Graceful labeling with a boundary value, or None.

    Boundary-valuations force every edge to straddle the boundary, so the
    graph must be bipartite (rejected immediately otherwise). The search
    fixes the boundary and the side orientation of each component, then
    backtracks over vertices; q distinct differences in [1, q] are
    automatically all of {1, ..., q}.
    """
    if g.q == 0:
        raise ValueError("boundary-valuation search needs at least one edge")
    # One pair of side masks per component, each oriented independently.
    comp_sides = bipartition(g)
    if comp_sides is None:
        return None
    clock = _BudgetClock(budget)
    order = _search_order(g)
    p = g.p
    top, _ = label_domain(g, "graceful")
    for boundary in range(top):
        below, above = range(boundary + 1), range(boundary + 1, top + 1)
        for flips in range(1 << len(comp_sides)):
            low_mask = 0
            low_count = 0
            hi_count = 0
            for idx, (a, b) in enumerate(comp_sides):
                lo_side = b if flips >> idx & 1 else a
                hi_side = a if flips >> idx & 1 else b
                low_mask |= lo_side
                low_count += lo_side.bit_count()
                hi_count += hi_side.bit_count()
            if low_count > boundary + 1 or hi_count > top - boundary:
                continue
            candidates = [
                (below if low_mask >> v & 1 else above) if g.adj[v] else range(top + 1)
                for v in range(p)
            ]
            labels = _first_labeling(g, order, candidates, "difference", clock)
            if labels is not None:
                return Labeling(labels, boundary)
    return None


def deficiency_upper_via_alpha(
    g: Graph, budget: SearchBudget | None = None
) -> Optional[SemCertificate]:
    """SEM certificate of g plus q - p + 1 isolated vertices, built from a
    boundary-valuation of g (no isolated vertices); None if g has none.

    With boundary lam, labels x <= lam stay and labels x > lam become
    q + lam + 1 - x; then every label goes up by 1. An edge of difference d
    gets the sum q + lam + 3 - d, so the q distinct differences become q
    consecutive sums on the labels [1, q + 1]. `verify_sem` re-checks it.
    """
    if any(g.degree(v) == 0 for v in range(g.p)):
        raise ValueError("bound requires a graph without isolated vertices")
    labeling = find_alpha_valuation(g, budget)
    if labeling is None:
        return None
    lam = labeling.boundary
    labels = [(x if x <= lam else g.q + lam + 1 - x) + 1 for x in labeling.values]
    return verify_sem(g, labels, g.q - g.p + 1)


def find_harmonious(
    g: Graph, budget: SearchBudget | None = None
) -> Optional[Labeling]:
    """Labeling into Z_q with pairwise distinct edge sums mod q, or None.

    Labels and repeats come from the harmonious `label_domain`: trees get
    one repeated vertex label (they have one more vertex than residues),
    all other graphs are labelled injectively. The witness is
    the lexicographically first one along `_search_order`, and its first
    vertex v0 gets 0: f -> f - f(v0) mod q shifts every sum alike and keeps
    the repeats. Graham and Sloane's parity rule answers before any node:
    with every degree even, the sums add up to an even number, but as q
    distinct residues mod q they add up to q(q-1)/2 plus a multiple of q,
    which is odd when q = 2 (mod 4).
    """
    if g.q == 0:
        raise ValueError("harmonious search needs at least one edge")
    top, repeats = label_domain(g, "harmonious")
    clock = _BudgetClock(budget)
    p, q = g.p, g.q
    if p - repeats > top + 1:
        return None
    if q % 4 == 2 and not any(d % 2 for d in g.degrees()):
        return None
    order = _search_order(g)
    candidates = [range(top + 1)] * p
    candidates[order[0]] = range(1)
    labels = _first_labeling(g, order, candidates, "residue", clock, repeats)
    return None if labels is None else Labeling(labels)


def find_sequential(
    g: Graph, budget: SearchBudget | None = None
) -> Optional[Labeling]:
    """Injective labeling whose integer edge sums are q consecutive values.

    Labels come from the sequential `label_domain`: [0, q-1], or [0, q]
    for trees (one extra vertex).
    """
    if g.q == 0:
        raise ValueError("sequential search needs at least one edge")
    top, _ = label_domain(g, "sequential")
    clock = _BudgetClock(budget)
    labels = next(_consecutive_sum_search(g, 0, [top], clock))
    return None if labels is None else Labeling(labels)

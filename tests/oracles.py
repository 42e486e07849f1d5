"""Brute-force enumeration oracles, independent of the engine code paths.

Everything here favours obviousness over speed: plain itertools sweeps over
whole labeling/permutation spaces, usable for graphs of order <= 5 or 6 and
small set cardinalities. Engine results are checked against these.
"""

from __future__ import annotations

import itertools

import networkx as nx

from semlab.graphs import Graph


def sem_valid(g: Graph, labels) -> bool:
    """Duplicate-free consecutive edge sums (labels indexed by vertex)."""
    sums = sorted(labels[u] + labels[v] for u, v in g.edges)
    if len(set(sums)) != len(sums):
        return False
    return not sums or sums[-1] - sums[0] + 1 == len(sums)


def brute_find_sem(g: Graph, max_label: int):
    """First injective labeling into [1, max_label] with consecutive sums."""
    for labels in itertools.permutations(range(1, max_label + 1), g.p):
        if sem_valid(g, labels):
            return labels
    return None


def placement_order(g: Graph) -> list[int]:
    """The engines' vertex order, built the slow way: repeatedly take the
    unplaced vertex of highest degree, among those the one with the most
    neighbours already placed, among those the lowest index."""
    nbrs = {v: set() for v in range(g.p)}
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    order = []
    while len(order) < g.p:
        best = None
        for v in range(g.p):
            if v in order:
                continue
            key = (len(nbrs[v]), len(nbrs[v] & set(order)))
            if best is None or key > best[0]:
                best = (key, v)
        order.append(best[1])
    return order


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every vertex permutation that maps the edge set onto itself."""
    edges = set(g.edges)
    return [
        perm
        for perm in itertools.permutations(range(g.p))
        if all(tuple(sorted((perm[u], perm[v]))) in edges for u, v in g.edges)
    ]


def stabiliser_orbit(autos, order, j: int) -> set:
    """Images of order[j] under the permutations in `autos` that fix
    order[0..j-1] one by one."""
    return {perm[order[j]] for perm in autos if all(perm[v] == v for v in order[:j])}


def brute_lexfirst_sem(g: Graph, lo: int, hi: int, order):
    """First injective labeling into [lo, hi] with consecutive sums, with
    labels assigned to the vertices in `order` and candidate tuples taken in
    lexicographic order; returned indexed by vertex."""
    for perm in itertools.permutations(range(lo, hi + 1), g.p):
        labels = [0] * g.p
        for v, x in zip(order, perm):
            labels[v] = x
        if sem_valid(g, labels):
            return tuple(labels)
    return None


def brute_deficiency(g: Graph, cap: int):
    """Least extra-label count in [0, cap] admitting a labeling, else None."""
    for extra in range(cap + 1):
        if brute_find_sem(g, g.p + extra) is not None:
            return extra
    return None


def brute_strength(g: Graph) -> int:
    """Minimum over all p! numberings of the maximum edge sum."""
    assert g.q >= 1
    return min(
        max(perm[u] + perm[v] for u, v in g.edges)
        for perm in itertools.permutations(range(1, g.p + 1))
    )


def graceful_valid(g: Graph, labels) -> bool:
    diffs = sorted(abs(labels[u] - labels[v]) for u, v in g.edges)
    return diffs == list(range(1, g.q + 1))


def alpha_boundary(g: Graph, labels):
    """Boundary of a graceful labeling, or None."""
    if not graceful_valid(g, labels):
        return None
    lo = max(min(labels[u], labels[v]) for u, v in g.edges)
    hi = min(max(labels[u], labels[v]) for u, v in g.edges)
    return lo if lo < hi else None


def brute_alpha(g: Graph):
    """First graceful labeling admitting a boundary, or None."""
    for labels in itertools.permutations(range(g.q + 1), g.p):
        if graceful_valid(g, labels) and alpha_boundary(g, labels) is not None:
            return labels
    return None


def _tree(g: Graph) -> bool:
    if g.q != g.p - 1:
        return False
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.p


def brute_harmonious(g: Graph):
    """First harmonious labeling (trees: one repeated label allowed)."""
    assert g.q >= 1
    allowance = 1 if _tree(g) else 0
    for labels in itertools.product(range(g.q), repeat=g.p):
        if g.p - len(set(labels)) > allowance:
            continue
        residues = {(labels[u] + labels[v]) % g.q for u, v in g.edges}
        if len(residues) == g.q:
            return labels
    return None


def brute_lexfirst_harmonious(g: Graph, order):
    """First harmonious labeling under the repeat rule of `brute_harmonious`,
    with labels assigned to the vertices in `order` and candidate tuples
    taken in lexicographic order; returned indexed by vertex."""
    assert g.q >= 1
    allowance = 1 if _tree(g) else 0
    for perm in itertools.product(range(g.q), repeat=g.p):
        if g.p - len(set(perm)) > allowance:
            continue
        labels = [0] * g.p
        for v, x in zip(order, perm):
            labels[v] = x
        if len({(labels[u] + labels[v]) % g.q for u, v in g.edges}) == g.q:
            return tuple(labels)
    return None


def brute_sequential(g: Graph):
    """First injective labeling with q consecutive integer edge sums."""
    assert g.q >= 1
    top = g.q if _tree(g) else g.q - 1
    for labels in itertools.permutations(range(top + 1), g.p):
        sums = sorted(labels[u] + labels[v] for u, v in g.edges)
        if len(set(sums)) == g.q and sums[-1] - sums[0] + 1 == g.q:
            return labels
    return None


def brute_rho_star(n: int, cap: int):
    """Minimum pairwise-sum span over well-spread sets with elements <= cap.

    The first element may be pinned to 1: translating a set down to start
    at 1 changes neither well-spreadness nor the span. A set whose largest
    element exceeds cap has span >= x_n + (n - 3) > cap, so if the returned
    value is <= cap it is the true global minimum.
    """
    best = None
    for rest in itertools.combinations(range(2, cap + 1), n - 1):
        xs = (1,) + rest
        sums = set()
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                s = xs[i] + xs[j]
                if s in sums:
                    ok = False
                    break
                sums.add(s)
            if not ok:
                break
        if ok:
            span = xs[-1] + xs[-2] - xs[1] - xs[0] + 1
            if best is None or span < best:
                best = span
    return best


def least_ws_diameter(k: int) -> int:
    """Least diameter x_k - x_1 over well-spread sets of k integers.

    Tries the diameters L = k - 1, k, ... in turn, with a plain depth-first
    search for a set {0, x_2, ..., x_{k-1}, L}. The reflection x -> L - x
    keeps well-spreadness, so x_{k-1} <= L - x_2 may be assumed.
    """
    if k < 3:
        return max(k - 1, 0)
    length = k - 1
    while not any(
        _ws_fill(k - 3, x2 + 1, length - x2, 1 | 1 << x2 | 1 << length,
                 1 << x2 | 1 << length | 1 << x2 + length)
        for x2 in range(1, length // 2 + 1)
    ):
        length += 1
    return length


def _ws_fill(left: int, low: int, high: int, elems: int, sums: int) -> bool:
    # Can `left` more elements in [low, high] join the set with bit x of
    # `elems` per element x and bit s of `sums` per pairwise sum s?
    if left == 0:
        return True
    for c in range(low, high - left + 2):
        if not (elems << c) & sums:
            if _ws_fill(left - 1, c + 1, high, elems | 1 << c, sums | elems << c):
                return True
    return False


def brute_max_clique_size(g: Graph) -> int:
    for size in range(g.p, 0, -1):
        for combo in itertools.combinations(range(g.p), size):
            if all(
                g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)
            ):
                return size
    return 0


def iso_key(g: Graph):
    """Canonical key by direct minimisation over all permutations.

    Deliberately a different representation (sorted edge tuples) from the
    package's pair-index bitmask canonical form.
    """
    if not g.edges:
        return (g.p, ())
    return (
        g.p,
        min(
            tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))
            for perm in itertools.permutations(range(g.p))
        ),
    )


def all_graphs_up_to_iso(p: int):
    """Every simple graph on exactly p vertices, one per isomorphism class."""
    pairs = list(itertools.combinations(range(p), 2))
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = Graph(p, edges)
        key = iso_key(g)
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


def edge_subset_classes(alpha: int) -> list[nx.Graph]:
    """Every alpha-edge graph on 2*alpha vertices, one per isomorphism
    class, as a networkx graph on its non-isolated vertices: walks all
    alpha-subsets of the edges of K_{2*alpha}, buckets them by sorted degree
    sequence (isolated vertices included) and dedups each bucket with
    networkx.is_isomorphic."""
    n = 2 * alpha
    buckets: dict[tuple[int, ...], list[nx.Graph]] = {}
    for edges in itertools.combinations(itertools.combinations(range(n), 2), alpha):
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        bucket = buckets.setdefault(tuple(sorted(deg)), [])
        h = nx.Graph(edges)
        if not any(nx.is_isomorphic(h, r) for r in bucket):
            bucket.append(h)
    return [r for bucket in buckets.values() for r in bucket]


def atlas_graphs(max_order: int):
    """Every graph of order 1..max_order (<= 7), one per isomorphism class,
    from the networkx graph atlas: a fast independent source where
    `all_graphs_up_to_iso` is too slow (order 6 takes it half a minute)."""
    return [
        Graph(a.number_of_nodes(), list(a.edges()))
        for a in nx.graph_atlas_g()
        if 1 <= a.number_of_nodes() <= max_order
    ]


def prufer_edges(seq, n):
    """Labeled tree on n vertices from a sequence over [0, n-1]."""
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    edges = []
    for v in seq:
        leaf = min(i for i in range(n) if deg[i] == 1)
        edges.append((leaf, v))
        deg[leaf] -= 1
        deg[v] -= 1
    u, w = (i for i in range(n) if deg[i] == 1)
    edges.append((u, w))
    return edges


def _rooted_tuple(adjlist, r, parent):
    return tuple(
        sorted(_rooted_tuple(adjlist, u, r) for u in adjlist[r] if u != parent)
    )


def tree_key(g: Graph):
    """Complete isomorphism invariant for free trees: minimum over every
    root of the sorted rooted-shape tuple."""
    adjlist = [g.neighbors(v) for v in range(g.p)]
    return min(_rooted_tuple(adjlist, r, -1) for r in range(g.p))


def tree_class_count_prufer(n: int) -> int:
    """Isomorphism classes of trees on n vertices by sweeping all n^(n-2)
    Prufer sequences (usable to n around 7)."""
    if n <= 2:
        return 1
    seen = set()
    for seq in itertools.product(range(n), repeat=n - 2):
        seen.add(tree_key(Graph(n, prufer_edges(seq, n))))
    return len(seen)

"""Simple undirected graphs: representation, graph6 text I/O, and generators.

Vertices are 0-indexed. All graph objects are immutable after construction
and safe to share across threads. Generators (`enumerate_k_minus`,
`enumerate_trees`) yield one representative per isomorphism class and are
single-consumer streams.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence


class Graph6Error(ValueError):
    """Malformed graph6 text (bad header, wrong length, nonzero padding)."""


_G6_HEADER = ">>graph6<<"
_MAX_SHORT_ORDER = 62


class Graph:
    """Simple undirected graph with adjacency bitrows.

    `p` is the number of vertices, `edges` a sorted tuple of pairs (u, v)
    with u < v, and `adj[v]` an integer bitmask of the neighbours of v.
    """

    __slots__ = ("p", "edges", "adj")

    def __init__(self, p: int, edges: Sequence[tuple[int, int]]):
        if p < 0:
            raise ValueError("graph order must be nonnegative")
        norm = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < p and 0 <= v < p):
                raise ValueError(f"edge ({u}, {v}) out of range for order {p}")
            norm.append((u, v) if u < v else (v, u))
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        adj = [0] * p
        for u, v in norm:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "adj", tuple(adj))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def q(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [m.bit_count() for m in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.adj[v])

    def relabeled(self, perm: Sequence[int]) -> "Graph":
        """Image under the vertex permutation v -> perm[v]."""
        return Graph(self.p, [(perm[u], perm[v]) for u, v in self.edges])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.p == other.p
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.p, self.edges))

    def __repr__(self) -> str:
        return f"Graph(p={self.p}, q={self.q})"


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# graph6 text format (short single-byte order encoding, order <= 62)
# ---------------------------------------------------------------------------


def parse_graph6(text: str) -> Graph:
    """Decode one line of graph6 text into a Graph.

    Accepts the optional `>>graph6<<` prefix emitted by some tools.
    Rejects bad header bytes, wrong body length, and nonzero padding bits.
    """
    line = text.strip()
    if line.startswith(_G6_HEADER):
        line = line[len(_G6_HEADER):]
    if not line:
        raise Graph6Error("empty graph6 line")
    head = ord(line[0])
    if not 63 <= head <= 63 + _MAX_SHORT_ORDER:
        raise Graph6Error(f"bad graph6 header byte {head}; order must be <= 62")
    n = head - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = line[1:]
    if len(body) != nbytes:
        raise Graph6Error(
            f"graph6 body has {len(body)} characters, expected {nbytes}"
        )
    bits = 0
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise Graph6Error(f"graph6 body byte {ord(ch)} out of range")
        bits = (bits << 6) | val
    pad = 6 * nbytes - nbits
    if pad and bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero graph6 padding bits")
    bits >>= pad
    edges = []
    # Bit order is column-major over the upper triangle: (0,1), (0,2), (1,2), ...
    pos = nbits
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if bits >> pos & 1:
                edges.append((i, j))
    return Graph(n, edges)


def emit_graph6(g: Graph) -> str:
    """Encode a Graph as one line of graph6 text (order <= 62)."""
    if g.p > _MAX_SHORT_ORDER:
        raise Graph6Error(f"order {g.p} too large for single-byte graph6")
    n = g.p
    bits = 0
    nbits = n * (n - 1) // 2
    pos = nbits
    for j in range(1, n):
        row = g.adj[j]
        for i in range(j):
            pos -= 1
            if row >> i & 1:
                bits |= 1 << pos
    nbytes = (nbits + 5) // 6
    bits <<= 6 * nbytes - nbits
    chars = []
    for b in range(nbytes - 1, -1, -1):
        chars.append(chr(63 + (bits >> (6 * b) & 63)))
    return chr(63 + n) + "".join(chars)


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------


def build_cycle(n: int) -> Graph:
    """Cycle C_n, n >= 3."""
    if n < 3:
        raise ValueError("cycle needs order >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def build_complete(n: int) -> Graph:
    """Complete graph K_n, n >= 1."""
    if n < 1:
        raise ValueError("complete graph needs order >= 1")
    return Graph(n, list(itertools.combinations(range(n), 2)))


def build_path(n: int) -> Graph:
    """Path P_n, n >= 1."""
    if n < 1:
        raise ValueError("path needs order >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def build_star(leaves: int) -> Graph:
    """Star K_{1,leaves} with the centre at vertex 0."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def build_prism(n: int) -> Graph:
    """Prism: the cartesian product of C_n and K_2 (2n vertices, 3n edges).

    Outer cycle on 0..n-1, inner cycle on n..2n-1, rungs i -- n+i.
    """
    if n < 3:
        raise ValueError("prism needs cycle length >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return Graph(2 * n, edges)


def build_lower_bound_witness(n: int):
    """Dense order-n graph with a labeling whose edge sums are consecutive.

    Returns (graph, labeling). The graph has size ceil(n/2)*(floor(n/2)+1);
    the labeling witnesses that graphs this dense can still have finite
    super edge-magic deficiency, which pins the lower side of the extremal
    size bracket.

    Vertices 0..a-1 form the x-side (labels 1..a with a = ceil(n/2)) and
    vertices a..n-1 the y-side (label of the j-th y-vertex is a*j + 1).
    """
    if n < 4:
        raise ValueError("witness construction needs order >= 4")
    a = (n + 1) // 2
    b = n // 2
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    edges += [(0, i) for i in range(1, a)]
    edges.append((a, a + b - 1))
    labels = tuple(range(1, a + 1)) + tuple(a * j + 1 for j in range(1, b + 1))
    from .labelings import Labeling

    return Graph(n, edges), Labeling(labels)


# ---------------------------------------------------------------------------
# Canonical forms and isomorphism-free enumeration
# ---------------------------------------------------------------------------


def _refine_colors(g: Graph) -> list[int]:
    # Iterated degree refinement (colour = degree, then multiset of
    # neighbour colours), stabilised. Colour ids are assigned by sorted
    # signature so they are isomorphism-invariant.
    colors = g.degrees()
    while True:
        sigs = []
        for v in range(g.p):
            nb = sorted(colors[u] for u in g.neighbors(v))
            sigs.append((colors[v], tuple(nb)))
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def canonical_form(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Canonical key (order, adjacency rows); equal iff graphs are isomorphic.

    Row j has bit k set when the j-th and k-th vertices are adjacent, k < j;
    the key is the minimum row tuple over the orderings that list the
    colour classes of the stable degree refinement in order (a sound
    canonical form: the colouring is an isomorphism invariant), found by
    backtracking with prefix pruning.
    """
    p = g.p
    colors = _refine_colors(g)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    slot_color = sorted(colors)

    best = (1,)  # above every row tuple, as the first row is always 0

    def rec(chosen: tuple[int, ...], rows: tuple[int, ...]) -> None:
        nonlocal best
        pos = len(chosen)
        if pos == p:
            if rows < best:
                best = rows
            return
        for v in by_color[slot_color[pos]]:
            if v in chosen:
                continue
            row = 0
            for k, u in enumerate(chosen):
                if g.adj[v] >> u & 1:
                    row |= 1 << k
            grown = rows + (row,)
            if grown <= best[: pos + 1]:
                rec(chosen + (v,), grown)

    rec((), ())
    return (p, best)


# Backtracking steps that levels p-1 down to 1 of one `stabiliser_chain`
# may spend together, and its level 0 once more; candidates left unproven
# when the allowance runs out are dropped.
_ORBIT_STEP_LIMIT = 20_000


def _extend_automorphism(
    g: Graph, peers: list[int], perm: list[int], todo: Sequence[int], steps: list[int]
) -> bool:
    """Extend the partial map `perm` (-1 where unset) over the vertices
    `todo`, in that order, to an automorphism of g that maps each vertex x
    into `peers[x]`, a bitmask of the vertices of its degree. True, with the
    map in `perm`, once one has been found and checked edge by edge. Each
    image tried spends one of `steps[0]`; past the allowance the answer is
    False. Adjacency among the vertices set beforehand is the caller's to
    keep."""
    adj = g.adj
    placed = image = 0
    for x, y in enumerate(perm):
        if y >= 0:
            placed |= 1 << x
            image |= 1 << y

    def extend(k: int, placed: int, image: int) -> bool:
        # Map todo[k:] so that degrees and the adjacency to every placed
        # vertex are kept.
        if k == len(todo):
            return all(g.has_edge(perm[a], perm[b]) for a, b in g.edges)
        x = todo[k]
        want = 0
        free = peers[x] & ~image
        for z in _bits(adj[x] & placed):
            want |= 1 << perm[z]
            free &= adj[perm[z]]
        while free:
            bit = free & -free
            free ^= bit
            if adj[bit.bit_length() - 1] & image != want:
                continue
            steps[0] -= 1
            if steps[0] < 0:
                return False
            perm[x] = bit.bit_length() - 1
            if extend(k + 1, placed | 1 << x, image | bit):
                return True
        return False

    return extend(0, placed, image)


def _close(reach: int, maps: list) -> int:
    # The least vertex set holding `reach` that every map sends into itself.
    todo = _bits(reach)
    for x in todo:
        for m in maps:
            if type(m) is tuple:
                y = m[1] if x == m[0] else m[0] if x == m[1] else x
            else:
                y = m[x]
            if not reach >> y & 1:
                reach |= 1 << y
                todo.append(y)
    return reach


def stabiliser_chain(g: Graph, order: Sequence[int]) -> Iterator:
    """Automorphisms of g found down the stabiliser chain of `order`, which
    lists every vertex of g.

    Level j holds maps that fix order[:j] and move v = order[j] to a
    vertex w of v's degree and adjacency to order[:j]. The levels are
    searched from the last one up, so every map found before level j
    fixes order[:j] too. Twins v, w (N(v) minus w equal to N(w) minus v)
    are reached by the transposition, without a search. Any other w is
    reached if the closure of the vertices reached so far under the maps
    found so far holds it, or else once backtracking under the step
    allowance finds a map, which is checked edge by edge. So a map may be
    missed, but each one kept is an automorphism.

    A generator of two items. The first, once levels p-1 down to 1 are
    searched, is (links, maps): links[k] is the last level j in [1, k)
    that reached order[k], or -1; maps holds every map found, a vertex
    list or the pair (v, w) of a twin transposition. The second searches
    level 0, adding its maps to `maps`, and is the closure O of order[0]
    under every map, in increasing order; so each map sends O onto itself.
    """
    p, adj = g.p, g.adj
    degrees = g.degrees()
    classes: dict[int, int] = {}
    for v, d in enumerate(degrees):
        classes[d] = classes.get(d, 0) | 1 << v
    peers = [classes[d] for d in degrees]
    pos = [0] * p
    for k, v in enumerate(order):
        pos[v] = k
    links = [-1] * p
    maps: list = []
    steps = [_ORBIT_STEP_LIMIT]
    prefix = (1 << p) - 1
    for j in range(p - 1, -1, -1):
        v = order[j]
        if not j:
            yield links, maps
            steps[0] = _ORBIT_STEP_LIMIT
        prefix ^= 1 << v
        rows = adj[v] & prefix
        reach = 1 << v
        later = peers[v] & ~prefix & ~reach
        while later:
            bit = later & -later
            later ^= bit
            w = bit.bit_length() - 1
            if adj[w] & prefix != rows:
                continue
            if adj[v] & ~bit == adj[w] & ~(1 << v):
                maps.append((v, w))
            else:
                reach = _close(reach, maps)
                if not reach & bit:
                    perm = [x if prefix >> x & 1 else -1 for x in range(p)]
                    perm[v] = w
                    if not _extend_automorphism(g, peers, perm, order[j + 1 :], steps):
                        continue
                    maps.append(perm)
            reach |= bit
            if j and links[pos[w]] < 0:
                links[pos[w]] = j
    yield _bits(_close(reach, maps))


def enumerate_k_minus(n: int, alpha: int) -> Iterator[Graph]:
    """All graphs K_n minus exactly alpha edges, one per isomorphism class.

    Requires n > 2*alpha, so the removed edges span at most 2*alpha of the
    n vertices and the classes are those of alpha-edge graphs on vertices
    0..2*alpha-1. These are built one edge at a time: level k extends one
    representative of each (k-1)-edge class by every absent edge and keeps
    the first edge set per canonical form of its non-isolated part. Every
    k-edge graph minus any edge is a (k-1)-edge graph, so no class is
    missed. Only these small graphs are ever canonicalised.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if n <= 2 * alpha:
        raise ValueError("requires n > 2*alpha")
    pairs = list(itertools.combinations(range(2 * alpha), 2))
    level: list[tuple[tuple[int, int], ...]] = [()]
    for _ in range(alpha):
        classes: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        for parent in level:
            for e in pairs:
                if e in parent:
                    continue
                removed = tuple(sorted(parent + (e,)))
                used = sorted({v for pair in removed for v in pair})
                remap = {v: i for i, v in enumerate(used)}
                small = Graph(len(used), [(remap[u], remap[v]) for u, v in removed])
                classes.setdefault(canonical_form(small), removed)
        level = list(classes.values())
    complete_edges = list(itertools.combinations(range(n), 2))
    for removed in level:
        gone = set(removed)
        yield Graph(n, [e for e in complete_edges if e not in gone])


# --- free trees -------------------------------------------------------------


def _tree_centers(adj: list[list[int]]) -> list[int]:
    n = len(adj)
    if n <= 2:
        return list(range(n))
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for u in adj[v]:
                if deg[u] > 1:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    return sorted(layer)


def _rooted_encoding(adj: list[list[int]], root: int, parent: int) -> str:
    subs = sorted(
        _rooted_encoding(adj, u, root) for u in adj[root] if u != parent
    )
    return "(" + "".join(subs) + ")"


def _tree_canonical_encoding(adj: list[list[int]]) -> str:
    # Canonical nested-parentheses encoding of a free tree (centre-rooted).
    centers = _tree_centers(adj)
    return min(_rooted_encoding(adj, c, -1) for c in centers)


def _tree_from_encoding(enc: str) -> Graph:
    # Rebuild the canonically-labelled tree: vertex ids in preorder, children
    # in the sorted order their encodings appear.
    edges = []
    stack: list[int] = []
    counter = 0
    for ch in enc:
        if ch == "(":
            v = counter
            counter += 1
            if stack:
                edges.append((stack[-1], v))
            stack.append(v)
        else:
            stack.pop()
    return Graph(counter, edges)


def enumerate_trees(n: int) -> Iterator[Graph]:
    """All free trees of order n, one per isomorphism class.

    Grows trees one leaf at a time with canonical-encoding dedup; output is
    in sorted canonical-encoding order with canonical vertex numbering, so
    repeated runs are identical.
    """
    if n < 1:
        raise ValueError("tree order must be >= 1")
    level = {"()"}
    for _ in range(n - 1):
        nxt = set()
        for enc in level:
            g = _tree_from_encoding(enc)
            adj = [g.neighbors(v) for v in range(g.p)]
            for v in range(g.p):
                adj.append([v])
                adj[v].append(g.p)
                nxt.add(_tree_canonical_encoding(adj))
                adj[v].pop()
                adj.pop()
        level = nxt
    for enc in sorted(level):
        yield _tree_from_encoding(enc)


def is_connected(g: Graph) -> bool:
    if g.p == 0:
        return True
    seen = 1
    frontier = 1
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        grow = g.adj[v] & ~seen
        seen |= grow
        frontier |= grow
    return seen == (1 << g.p) - 1


def is_tree(g: Graph) -> bool:
    return g.p >= 1 and g.q == g.p - 1 and is_connected(g)


def is_caterpillar(g: Graph) -> bool:
    """True iff deleting every leaf of the tree leaves a (possibly empty) path."""
    if not is_tree(g):
        raise ValueError("caterpillar test requires a tree")
    if g.p <= 2:
        return True
    spine = [v for v in range(g.p) if g.degree(v) >= 2]
    spine_mask = 0
    for v in spine:
        spine_mask |= 1 << v
    return all((g.adj[v] & spine_mask).bit_count() <= 2 for v in spine)


def bipartition(g: Graph) -> list[tuple[int, int]] | None:
    """Two-colouring of each connected component, or None if not bipartite.

    One pair of vertex bitmasks per component, components in order of their
    smallest vertex; the side holding that vertex comes first.
    """
    parts = []
    seen = 0
    for s in range(g.p):
        if seen >> s & 1:
            continue
        # Breadth-first by layers; layer i goes to side i % 2. Neighbours of
        # a layer lie in the layers next to it, so only an edge inside the
        # layer can meet its own side.
        sides = [1 << s, 0]
        layer, k = 1 << s, 0
        seen |= layer
        while layer:
            reach = 0
            for v in _bits(layer):
                reach |= g.adj[v]
            if reach & sides[k]:
                return None
            k ^= 1
            layer = reach & ~seen
            sides[k] |= layer
            seen |= layer
        parts.append((sides[0], sides[1]))
    return parts


# ---------------------------------------------------------------------------
# Named families by tag (CLI plumbing)
# ---------------------------------------------------------------------------

# tag -> (number of parameters, function returning the members)
_FAMILIES = {
    "cycle": (1, lambda n: [build_cycle(n)]),
    "complete": (1, lambda n: [build_complete(n)]),
    "prism": (1, lambda n: [build_prism(n)]),
    "lower-bound-witness": (1, lambda n: [build_lower_bound_witness(n)[0]]),
    "complete-minus-alpha": (2, lambda n, alpha: list(enumerate_k_minus(n, alpha))),
    "tree-enumeration": (1, lambda n: list(enumerate_trees(n))),
}


def build_family(tag: str, params: Sequence[int]) -> list[Graph]:
    """Members of the named family: one graph, or every class the
    enumeration families yield. Raises ValueError on an unknown tag or a
    wrong parameter count."""
    if tag not in _FAMILIES:
        raise ValueError(f"unknown family tag {tag!r}")
    arity, build = _FAMILIES[tag]
    if len(params) != arity:
        raise ValueError(
            f"family {tag!r} takes {arity} parameter(s), got {len(params)}"
        )
    return build(*params)

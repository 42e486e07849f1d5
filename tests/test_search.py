"""Search engines against brute-force oracles, plus budget semantics."""

import hashlib
import itertools
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import slow
from semlab import graphs as graphs_mod
from semlab import search as search_mod
from semlab.graphs import (
    Graph,
    build_complete,
    build_cycle,
    build_path,
    build_prism,
    build_star,
    enumerate_trees,
    is_tree,
    parse_graph6,
    stabiliser_chain,
)
from semlab.labelings import (
    Labeling,
    label_domain,
    recheck_sem_certificate,
    verify_alpha,
    verify_harmonious,
    verify_sem,
    verify_sequential,
)
from semlab.search import (
    SearchBudget,
    SearchBudgetExceeded,
    _BudgetClock,
    _search_order,
    deficiency,
    deficiency_upper_via_alpha,
    find_alpha_valuation,
    find_harmonious,
    find_sem_labeling,
    find_sequential,
    strength,
)

K2 = Graph(2, [(0, 1)])


def counted(search, *args):
    """search(*args) and the number of nodes it charged to its budget."""
    clocks = []

    def clock(budget):
        clocks.append(_BudgetClock(budget))
        return clocks[-1]

    with mock.patch.object(search_mod, "_BudgetClock", clock):
        result = search(*args)
    return result, sum(c.nodes for c in clocks)


def sem_at(extra):
    """find_sem_labeling(g, p + extra) as an engine."""

    def search(g, budget=None):
        return find_sem_labeling(g, g.p + extra, budget)

    search.__name__ = f"find_sem_labeling_extra{extra}"
    return search


def small_graph_corpus():
    """Connected-ish mixed bag for decision-agreement tests."""
    rng = random.Random(1234)
    graphs = [
        K2,
        build_path(3),
        build_path(4),
        build_star(3),
        build_cycle(3),
        build_cycle(4),
        build_cycle(5),
        build_complete(4),
    ]
    for _ in range(12):
        p = rng.randint(2, 5)
        edges = [e for e in itertools.combinations(range(p), 2) if rng.random() < 0.55]
        if edges:
            graphs.append(Graph(p, edges))
    return graphs


class TestFindSem:
    def test_c3(self):
        f = find_sem_labeling(build_cycle(3), 3)
        assert f is not None
        assert verify_sem(build_cycle(3), f).sums == (3, 4, 5)

    def test_c4_none_at_four(self):
        assert find_sem_labeling(build_cycle(4), 4) is None
        assert oracles.brute_find_sem(build_cycle(4), 4) is None

    def test_c4_at_five(self):
        f = find_sem_labeling(build_cycle(4), 5)
        assert f is not None
        cert = verify_sem(build_cycle(4), f, 1)
        assert cert.sums == tuple(range(cert.s, cert.s + 4))

    def test_max_label_below_order_rejected(self):
        with pytest.raises(ValueError):
            find_sem_labeling(build_cycle(3), 2)

    def test_edgeless(self):
        f = find_sem_labeling(Graph(3, []), 3)
        assert f.values == (1, 2, 3)

    def test_decision_matches_oracle(self):
        for g in small_graph_corpus():
            for max_label in (g.p, g.p + 1, g.p + 2):
                mine = find_sem_labeling(g, max_label)
                ref = oracles.brute_find_sem(g, max_label)
                assert (mine is None) == (ref is None), (g.edges, max_label)
                if mine is not None:
                    # witness soundness: injective into [1, max_label] with
                    # duplicate-free consecutive sums
                    assert oracles.sem_valid(g, mine.values)
                    assert all(1 <= x <= max_label for x in mine.values)

    def test_monotone_in_max_label(self):
        for g in small_graph_corpus():
            found = [find_sem_labeling(g, m) is not None for m in range(g.p, g.p + 4)]
            # once found, found for every larger bound
            assert found == sorted(found)

    def test_deterministic_witness(self):
        g = build_prism(3)
        assert find_sem_labeling(g, 6) == find_sem_labeling(g, 6)

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_even_prism_and_cycle_refuted_without_a_node(self, n):
        # q even at extra 0 on a regular graph breaks the counting identity.
        one = SearchBudget(node_limit=1)
        assert find_sem_labeling(build_prism(n), 2 * n, one) is None
        assert find_sem_labeling(build_cycle(n), n, one) is None

    def test_odd_prisms_and_cycles_still_found(self):
        graphs = [build_prism(n) for n in (3, 5)]
        graphs += [build_cycle(n) for n in (3, 5, 7, 9, 11)]
        for g in graphs:
            f = find_sem_labeling(g, g.p)
            assert f is not None
            assert verify_sem(g, f).isolated == 0


@st.composite
def graphs_up_to_twelve(draw):
    """Any graph of order 2-12."""
    p = draw(st.integers(2, 12))
    pairs = list(itertools.combinations(range(p), 2))
    return Graph(p, draw(st.lists(st.sampled_from(pairs), unique=True)))


class TestSearchOrder:
    """`_search_order` is the one vertex order of every kernel engine."""

    @settings(max_examples=200, deadline=None)
    @given(graphs_up_to_twelve())
    def test_order_contract(self, g):
        order = _search_order(g)
        assert sorted(order) == list(range(g.p))
        # The weighted-sum bound pairs the later degrees in order, so they
        # must never rise along it.
        degrees = [g.degree(v) for v in order]
        assert degrees == sorted(degrees, reverse=True)
        # v0 of the lex-leader rule.
        assert order[0] == g.degrees().index(max(g.degrees()))
        assert order == oracles.placement_order(g)

    def test_generator_numberings_keep_degree_then_index(self):
        # Here the tie-break picks the next index anyway, so the witnesses
        # of these families are those of the plain degree-then-index order.
        graphs = [build_prism(n) for n in range(3, 21)]
        graphs += [build_cycle(n) for n in range(3, 21)]
        for n in range(1, 21):
            graphs += [build_path(n), build_star(n), build_complete(n)]
        for g in graphs:
            assert _search_order(g) == sorted(range(g.p), key=lambda v: (-g.degree(v), v))

    @pytest.mark.parametrize(
        "n, seed, nodes",
        [
            (8, 0, 3_165), (8, 1, 102), (8, 2, 14_989), (8, 3, 12_792),
            (10, 0, 473_681), (10, 1, 166_001), (10, 2, 41_793), (10, 3, 3_591),
        ],
    )
    def test_renumbered_prism_extra_one_nodes_are_pinned(self, n, seed, nodes):
        # The order follows the edges, not the numbering, so a shuffled
        # numbering still meets placed neighbours at every vertex.
        perm = list(range(2 * n))
        random.Random(seed).shuffle(perm)
        g = build_prism(n).relabeled(perm)
        found, charged = counted(sem_at(1), g, SearchBudget(node_limit=nodes))
        assert charged == nodes
        assert verify_sem(g, found, 1).isolated == 1


class TestLexFirstWitness:
    """The kernel engines return exactly the lexicographically first labeling
    along `oracles.placement_order`: degree descending, then most neighbours
    already placed, then lowest index. Their pruning rules never change a
    witness, and the oracles check the order along with the witness."""

    def test_find_sem_matches_oracle(self):
        for g in oracles.atlas_graphs(6):
            for extra in range(4 if g.p <= 5 else 2):
                top = g.p + extra
                mine = find_sem_labeling(g, top)
                ref = oracles.brute_lexfirst_sem(g, 1, top, oracles.placement_order(g))
                assert (mine and mine.values) == ref, (g.edges, top)
                assert (ref is None) == (oracles.brute_find_sem(g, top) is None)

    def test_find_sequential_matches_oracle(self):
        # Order 6 stops at 11 edges: the four densest classes alone make the
        # oracle sweep take over ten seconds.
        for g in oracles.atlas_graphs(6):
            if g.q == 0 or (g.p == 6 and g.q > 11):
                continue
            top = g.q if is_tree(g) else g.q - 1
            mine = find_sequential(g)
            ref = oracles.brute_lexfirst_sem(g, 0, top, oracles.placement_order(g))
            assert (mine and mine.values) == ref, g.edges

    def test_find_harmonious_matches_oracle(self):
        graphs = [g for g in oracles.atlas_graphs(5) if g.q]
        graphs += [t for n in range(2, 8) for t in enumerate_trees(n)]
        for g in graphs:
            mine = find_harmonious(g)
            ref = oracles.brute_lexfirst_harmonious(g, oracles.placement_order(g))
            assert (mine and mine.values) == ref, g.edges

    def test_tree_witnesses_are_pinned(self):
        # One digest of the SEM and sequential witnesses of all 200 free
        # trees of orders 2-10: a pruning rule that cut a valid labeling
        # would change a witness, and with it the digest.
        trees = [t for n in range(2, 11) for t in enumerate_trees(n)]
        digest = hashlib.sha256()
        for t in trees:
            witnesses = (find_sem_labeling(t, t.p).values, find_sequential(t).values)
            digest.update(repr(witnesses).encode())
        assert len(trees) == 200
        assert digest.hexdigest() == (
            "bd778ffdd60f6660e6f2b9ed513dcde6541831cd54a713d1e1c5adb62cf202db"
        )

    def test_truncated_orbit_keeps_every_answer(self, monkeypatch):
        # With no step allowance no automorphism is proven, so the orbit of
        # v0 is v0 alone and only the complement rule is left; an allowance
        # of 4 steps cuts the chain short part of the way down.
        cases = [(g, g.p + x) for g in oracles.atlas_graphs(5) for x in range(3)]
        cases += [(build_prism(4), 8 + x) for x in range(6)]
        full = [find_sem_labeling(g, top) for g, top in cases]
        full.append(deficiency(build_prism(4), 7))
        for limit in (0, 4):
            monkeypatch.setattr(graphs_mod, "_ORBIT_STEP_LIMIT", limit)
            if limit == 0:
                chain = stabiliser_chain(build_prism(4), range(8))
                next(chain)
                assert next(chain) == [0]
            found = [find_sem_labeling(g, top) for g, top in cases]
            found.append(deficiency(build_prism(4), 7))
            assert found == full


class TestStabiliserLinks:
    """`stabiliser_chain` gives position k the last position j >= 1 whose
    vertex an automorphism fixing the vertices before j maps to the vertex
    at k; the kernel then makes the label at k exceed the label at j. The
    orbit of v0 it returns is closed under every map it found."""

    def test_links_match_brute_force_stabiliser_orbits(self):
        # Every prefix of the order of every graph of order <= 6. At this
        # order the step allowance never runs out, so every link and every
        # orbit member is found as well as sound.
        for g in oracles.atlas_graphs(6):
            order = oracles.placement_order(g)
            autos = oracles.automorphisms(g)
            chain = stabiliser_chain(g, order)
            links, _ = next(chain)
            for k, w in enumerate(order):
                want = [
                    j for j in range(1, k)
                    if w in oracles.stabiliser_orbit(autos, order, j)
                ]
                assert links[k] == max(want, default=-1), (g.edges, k)
            assert next(chain) == sorted(oracles.stabiliser_orbit(autos, order, 0))

    def test_orbit_is_closed_under_every_map(self, monkeypatch):
        # At the default allowance, at none and at 4 steps, which leaves
        # the orbit of v0 short on some of these graphs: every map is an
        # automorphism, and each sends the orbit onto itself.
        short = 0
        for limit in (graphs_mod._ORBIT_STEP_LIMIT, 0, 4):
            monkeypatch.setattr(graphs_mod, "_ORBIT_STEP_LIMIT", limit)
            for g in oracles.atlas_graphs(6):
                order = oracles.placement_order(g)
                chain = stabiliser_chain(g, order)
                _, maps = next(chain)
                members = set(next(chain))
                for m in maps:
                    perm = m
                    if isinstance(m, tuple):
                        perm = list(range(g.p))
                        perm[m[0]], perm[m[1]] = m[1], m[0]
                    assert g.relabeled(perm) == g, (g.edges, m)
                    assert {perm[x] for x in members} == members, (g.edges, m)
                autos = oracles.automorphisms(g)
                short += len(members) < len(oracles.stabiliser_orbit(autos, order, 0))
        assert short > 0

    def test_prism_orbit_is_every_vertex(self):
        # Degree tells no two prism vertices apart, so only maps found by
        # search can fill the orbit: on the generator's numbering and on a
        # renumbering, up to the largest prism the benchmark and README use.
        rng = random.Random(22)
        for n in range(3, 23):
            perm = list(range(2 * n))
            rng.shuffle(perm)
            for g in (build_prism(n), build_prism(n).relabeled(perm)):
                chain = stabiliser_chain(g, _search_order(g))
                next(chain)
                assert next(chain) == list(range(2 * n)), (n, g.edges)


def deficiency_cap7(g, budget):
    """deficiency(g, 7) as an engine: its witness, or SearchBudgetExceeded
    when the budget ran out."""
    res = deficiency(g, 7, budget)
    if res.reason == "budget":
        raise SearchBudgetExceeded(f"budget ran out at extra {res.searched_cap}")
    return Labeling(res.witness.labels)


@pytest.mark.parametrize(
    "search, g, nodes, witness",
    [
        (find_harmonious, build_path(10), 158, (5, 0, 0, 1, 2, 6, 7, 8, 3, 4)),
        (find_harmonious, build_cycle(8), 3_948, None),
        (find_harmonious, build_complete(6), 66_461, None),
        (find_sequential, build_cycle(11), 64, (0, 5, 1, 6, 2, 7, 8, 3, 9, 4, 10)),
        (find_sequential, build_prism(5), 132, (0, 2, 1, 3, 5, 9, 4, 6, 8, 7)),
        (find_sequential, build_prism(4), 16_077, None),
        (find_alpha_valuation, build_path(10), 841, (4, 5, 3, 6, 2, 7, 1, 8, 0, 9)),
        (find_alpha_valuation, build_prism(4), 825, (0, 4, 2, 12, 6, 3, 10, 1)),
        (deficiency_cap7, build_prism(4), 36_400, (1, 5, 2, 8, 10, 3, 13, 4, 6, 7, 9, 11, 12)),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_exploration_is_pinned(search, g, nodes, witness):
    """Each search explores exactly `nodes` nodes: it ends with the same
    witness (or None) at that node limit and runs out one node below."""
    found = search(g, SearchBudget(node_limit=nodes))
    assert (found and found.values) == witness
    with pytest.raises(SearchBudgetExceeded):
        search(g, SearchBudget(node_limit=nodes - 1))


def test_kernel_exploration_is_pinned():
    # One digest of the witness (or None) and the node count of every
    # kernel engine on the 200 free trees of orders 2-10 and the 47 graphs
    # of order <= 5 with an edge. A change to the kernel that moves a
    # single node, or a witness, changes the digest.
    graphs = [t for n in range(2, 11) for t in enumerate_trees(n)]
    graphs += [g for g in oracles.atlas_graphs(5) if g.q]
    engines = [
        find_harmonious, find_alpha_valuation, find_sequential, sem_at(0), sem_at(1)
    ]
    digest = hashlib.sha256()
    for g in graphs:
        for search in engines:
            found, nodes = counted(search, g)
            witness = None if found is None else (found.values, found.boundary)
            digest.update(repr((witness, nodes)).encode())
    assert len(graphs) == 247
    assert digest.hexdigest() == (
        "39a760cd9e9a1b3685354e193c8c22cf6e53e5f68219cac99ab9c4dc46cff317"
    )


@slow("the sweep takes about 9 s on a 2-core x86-64 host with CPython 3.11")
def test_sweep_node_totals_are_pinned():
    # Node totals of the kernel engines over every free tree of orders
    # 2-11 and every graph of order <= 7 with an edge.
    trees = [t for n in range(2, 12) for t in enumerate_trees(n)]
    atlas = [g for g in oracles.atlas_graphs(7) if g.q]
    sweeps = [
        (trees, find_harmonious, 9_697_573),
        (trees, find_sequential, 98_293),
        (trees, find_alpha_valuation, 3_561_019),
        (trees, sem_at(0), 98_293),
        (trees, sem_at(1), 211_873),
        (trees, sem_at(2), 255_808),
        (atlas, find_harmonious, 8_130_472),
        (atlas, find_sequential, 3_429_503),
        (atlas, sem_at(1), 426_744),
    ]
    for graphs, search, total in sweeps:
        assert sum(counted(search, g)[1] for g in graphs) == total, search.__name__


class TestUnusedLabelPin:
    """On an r-regular graph with one spare label u, counting gives
    r·(T - u) = q·s + q(q-1)/2 with T the sum of the label range, so u
    takes one of a few values; the kernel never uses the last of them."""

    def test_regular_witnesses_are_the_lex_first(self):
        # Extras 0-2 on the 19 regular graphs of order <= 7 with an edge.
        # The oracle is too slow at order 7; its witnesses are pinned from
        # the search before the pin.
        regular = [
            g for g in oracles.atlas_graphs(7) if g.q and len(set(g.degrees())) == 1
        ]
        assert len(regular) == 19
        c7 = (1, 4, 2, 5, 6, 3, 7)
        order_7 = iter([[c7] * 3, [None, None, (2, 5, 1, 8, 6, 9, 4)]] + [[None] * 3] * 3)
        for g in regular:
            pinned = next(order_7) if g.p == 7 else None
            for extra in range(3):
                top = g.p + extra
                found = find_sem_labeling(g, top)
                if pinned is None:
                    want = oracles.brute_lexfirst_sem(g, 1, top, oracles.placement_order(g))
                else:
                    want = pinned[extra]
                assert (found and found.values) == want, (g.edges, extra)
        assert next(order_7, None) is None

    @pytest.mark.parametrize("n", [6, 10])
    def test_cycle_4k_plus_2_refuted_without_a_node(self, n):
        # r = 2 and q·s + q(q-1)/2 is odd: no unused label is possible.
        assert counted(sem_at(1), build_cycle(n)) == (None, 0)

    @pytest.mark.parametrize(
        "n, nodes",
        [(6, 732), (8, 795), (10, 71_149), (12, 339_990), (14, 2_738_224), (16, 1_097_676)],
    )
    def test_prism_extra_one_nodes_are_pinned(self, n, nodes):
        # For D_2k at extra 1, U = {k + 1, 3k + 1}.
        g = build_prism(n)
        found, charged = counted(sem_at(1), g)
        assert charged == nodes
        cert = verify_sem(g, found, 1)
        assert cert.labels[-1] in (n // 2 + 1, 3 * n // 2 + 1)


class TestDeficiency:
    def test_c3_zero(self):
        res = deficiency(build_cycle(3), 4)
        assert (res.kind, res.value) == ("finite", 0)

    def test_c4_one(self):
        res = deficiency(build_cycle(4), 4)
        assert (res.kind, res.value) == ("finite", 1)
        assert res.witness.sums == tuple(
            range(res.witness.s, res.witness.s + 4)
        )

    def test_matches_oracle_small(self):
        for g in small_graph_corpus():
            if g.p > 4:
                continue
            res = deficiency(g, 3)
            ref = oracles.brute_deficiency(g, 3)
            if ref is None:
                assert res.kind == "unknown"
            else:
                assert (res.kind, res.value) == ("finite", ref), g.edges

    def test_witness_passes_verifier(self):
        for g in [build_cycle(4), build_cycle(8), build_star(4), build_prism(3)]:
            res = deficiency(g, 4)
            assert res.kind == "finite"
            rebuilt = verify_sem(g, res.witness.labels, res.witness.isolated)
            assert rebuilt == res.witness

    def test_infinite_via_certificate(self):
        res = deficiency(build_complete(5), 2)
        assert res.kind == "infinite"
        assert res.certificate.m == 5

    def test_unknown_on_cap(self):
        res = deficiency(build_cycle(4), 0)
        assert (res.kind, res.reason, res.searched_cap, res.lower) == (
            "unknown", "cap", 0, 1
        )

    def test_unknown_on_budget(self):
        # Extra 0 is refuted by counting before any node; the budget then
        # runs out at extra 1, well short of the cap.
        res = deficiency(build_prism(4), 6, SearchBudget(node_limit=50))
        assert (res.kind, res.reason, res.searched_cap, res.lower) == (
            "unknown", "budget", 1, 1
        )

    @pytest.mark.parametrize("n", [8, 10])
    def test_even_prism_needs_one_isolated_vertex(self, n):
        # Counting refutes extra 0; the witness at extra 1 re-checks, well
        # inside the paper's bound of n + 1.
        g = build_prism(n)
        res = deficiency(g, 1, SearchBudget(node_limit=300_000))
        assert (res.kind, res.value) == ("finite", 1)
        assert verify_sem(g, res.witness.labels, 1) == res.witness

    def test_lower_bound_of_decided_results(self):
        assert deficiency(build_cycle(4), 4).lower == 1
        assert deficiency(build_complete(5), 2).lower is None

    def test_edgeless_zero(self):
        res = deficiency(Graph(4, []), 2)
        assert (res.kind, res.value) == ("finite", 0)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            deficiency(K2, -1)


class TestStrength:
    def test_k2(self):
        assert strength(K2) == 3

    def test_c3(self):
        assert strength(build_cycle(3)) == 5

    def test_trees_of_order_five(self):
        for t in enumerate_trees(5):
            assert strength(t) == 6

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            strength(Graph(3, []))

    def test_matches_oracle(self):
        for g in small_graph_corpus():
            assert strength(g) == oracles.brute_strength(g), g.edges

    def test_matches_oracle_order_seven(self):
        rng = random.Random(77)
        for _ in range(6):
            edges = [
                e for e in itertools.combinations(range(7), 2) if rng.random() < 0.45
            ]
            if not edges:
                continue
            g = Graph(7, edges)
            assert strength(g) == oracles.brute_strength(g), g.edges

    def test_budget_raises(self):
        with pytest.raises(SearchBudgetExceeded):
            strength(build_complete(7), SearchBudget(node_limit=3))

    @pytest.mark.parametrize(
        "g, value, nodes",
        [
            (build_prism(4), 11, 92),
            (build_prism(5), 13, 319),
            (parse_graph6("IhCK?C@?G"), 11, 268),
            (parse_graph6("IsaCCA?_?"), 11, 55),
            (build_complete(5), 9, 15),
        ],
        ids=["prism4", "prism5", "tree10-a", "tree10-b", "K5"],
    )
    def test_exploration_is_pinned(self, g, value, nodes):
        # The branch and bound explores exactly `nodes` nodes.
        assert strength(g, SearchBudget(node_limit=nodes)) == value
        with pytest.raises(SearchBudgetExceeded, match=f"exceeded after {nodes} nodes$"):
            strength(g, SearchBudget(node_limit=nodes - 1))


class TestAlphaValuation:
    def test_c4(self):
        f = find_alpha_valuation(build_cycle(4))
        assert f is not None
        assert verify_alpha(build_cycle(4), f) == f.boundary

    def test_c3_rejected_as_non_bipartite(self):
        assert find_alpha_valuation(build_cycle(3)) is None

    def test_d4_exists(self):
        g = build_prism(4)
        f = find_alpha_valuation(g)
        assert f is not None
        assert verify_alpha(g, f) == f.boundary

    def test_existence_matches_oracle_on_bipartite_graphs(self):
        for g in small_graph_corpus():
            if g.q == 0 or g.p > 5:
                continue
            mine = find_alpha_valuation(g)
            ref = oracles.brute_alpha(g)
            assert (mine is None) == (ref is None), g.edges

    def test_disconnected_components(self):
        # Two disjoint 4-cycles: needs independent side orientations.
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
        f = find_alpha_valuation(g)
        assert f is not None
        assert verify_alpha(g, f) == f.boundary

    def test_disconnected_none(self):
        # 2K2 has p = 4 > q + 1 = 3: no graceful labeling can exist.
        assert find_alpha_valuation(Graph(4, [(0, 1), (2, 3)])) is None

    def test_upper_bound_route(self):
        # The transformed boundary-valuation is a SEM certificate of g plus
        # q - p + 1 isolated vertices that re-checks from JSON, on D4 and on
        # every graph of order <= 6 without isolated vertices.
        graphs = [build_prism(4)] + [
            g for g in oracles.atlas_graphs(6) if g.q and all(map(g.degree, range(g.p)))
        ]
        found = 0
        for g in graphs:
            cert = deficiency_upper_via_alpha(g)
            assert (cert is None) == (find_alpha_valuation(g) is None), g.edges
            if cert is not None:
                found += 1
                assert cert.isolated == g.q - g.p + 1
                assert recheck_sem_certificate(g, cert.to_json_dict()) == cert
        assert (len(graphs), found) == (156, 27)

    def test_upper_bound_rejects_isolates(self):
        with pytest.raises(ValueError):
            deficiency_upper_via_alpha(Graph(3, [(0, 1)]))

    def test_upper_bound_none_for_non_bipartite(self):
        assert deficiency_upper_via_alpha(build_cycle(5)) is None


def test_witnesses_keep_to_label_domain():
    # Every engine witness lies in its notion's label domain and passes its
    # verifier; an alpha witness carries the boundary the verifier finds.
    graphs = [g for g in oracles.atlas_graphs(6) if g.q]
    graphs += [t for n in range(2, 10) for t in enumerate_trees(n)]
    assert len(graphs) == 296
    engines = (
        (find_alpha_valuation, "graceful", verify_alpha),
        (find_harmonious, "harmonious", verify_harmonious),
        (find_sequential, "sequential", verify_sequential),
    )
    for g in graphs:
        for search, kind, verify in engines:
            f = search(g)
            if f is None:
                continue
            top, repeats = label_domain(g, kind)
            assert max(f.values) <= top and g.p - len(set(f.values)) <= repeats
            want = True if f.boundary is None else f.boundary
            assert verify(g, f) == want and (f.boundary is None) == (kind != "graceful")


class KernelRan(Exception):
    pass


def kernel_must_not_run(*args, **kwargs):
    raise KernelRan


class TestHarmonious:
    def test_c3(self):
        f = find_harmonious(build_cycle(3))
        assert verify_harmonious(build_cycle(3), f)

    def test_p3(self):
        f = find_harmonious(build_path(3))
        assert verify_harmonious(build_path(3), f)

    def test_k2_repeat(self):
        f = find_harmonious(K2)
        assert f.values == (0, 0)

    def test_k5_refuted_before_any_node(self, monkeypatch):
        # Every degree is 4 and q = 10: the parity rule answers.
        monkeypatch.setattr(search_mod, "_first_labeling", kernel_must_not_run)
        assert find_harmonious(build_complete(5)) is None

    def test_refutations_before_any_node_match_oracle(self, monkeypatch):
        # Graham and Sloane: with every degree even, the q edge sums add up
        # to an even number, but as the q residues mod q they add up to
        # q(q-1)/2 plus a multiple of q, odd when q = 2 (mod 4). Seven graphs
        # of order <= 6 meet that rule; p > q (+1 for trees) also answers.
        monkeypatch.setattr(search_mod, "_first_labeling", kernel_must_not_run)
        parity = 0
        for g in oracles.atlas_graphs(6):
            if g.q == 0:
                continue
            even = g.q % 4 == 2 and all(d % 2 == 0 for d in g.degrees())
            parity += even
            try:
                mine = find_harmonious(g)
            except KernelRan:
                assert not even, g.edges
                continue
            assert mine is None
            assert oracles.brute_harmonious(g) is None, g.edges
        assert parity == 7

    def test_matches_oracle(self):
        for g in small_graph_corpus():
            if g.q == 0:
                continue
            mine = find_harmonious(g)
            ref = oracles.brute_harmonious(g)
            assert (mine is None) == (ref is None), g.edges
            if mine is not None:
                assert verify_harmonious(g, mine)


class TestSequential:
    def test_p3(self):
        f = find_sequential(build_path(3))
        assert f is not None
        sums = sorted(f.values[u] + f.values[v] for u, v in build_path(3).edges)
        assert sums[-1] - sums[0] + 1 == 2

    def test_k2(self):
        f = find_sequential(K2)
        assert f.values == (0, 1)

    def test_c3_value_fixed_by_oracle(self):
        mine = find_sequential(build_cycle(3))
        ref = oracles.brute_sequential(build_cycle(3))
        assert (mine is None) == (ref is None)
        assert mine is not None  # (0, 1, 2) gives sums {1, 2, 3}

    def test_matches_oracle(self):
        for g in small_graph_corpus():
            if g.q == 0:
                continue
            mine = find_sequential(g)
            ref = oracles.brute_sequential(g)
            assert (mine is None) == (ref is None), g.edges
            if mine is not None:
                assert verify_sequential(g, mine)

    def test_sequential_implies_harmonious_for_found_trees(self):
        for n in range(2, 8):
            for t in enumerate_trees(n):
                f = find_sequential(t)
                assert f is not None
                assert verify_harmonious(t, [x % t.q for x in f.values])


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(node_limit=0)
        with pytest.raises(ValueError):
            SearchBudget(time_limit=-1)

    def test_node_limit_raises(self):
        with pytest.raises(SearchBudgetExceeded):
            find_sem_labeling(build_prism(4), 13, SearchBudget(node_limit=10))

    def test_unlimited_by_default(self):
        assert find_sem_labeling(build_cycle(3), 3) is not None


def deficiency_cap3(g, budget=None):
    """deficiency(g, 3) as an engine: its result, or SearchBudgetExceeded
    when the budget ran out."""
    res = deficiency(g, 3, budget)
    if res.reason == "budget":
        raise SearchBudgetExceeded(f"budget ran out at extra {res.searched_cap}")
    return res


@st.composite
def kernel_graphs(draw):
    """A graph of order <= 6 with an edge, or a tree of order <= 8."""
    if draw(st.booleans()):
        p = draw(st.integers(2, 6))
        pairs = list(itertools.combinations(range(p), 2))
        edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        return Graph(p, edges)
    n = draw(st.integers(2, 8))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return Graph(n, oracles.prufer_edges(seq, n))


class TestExactBudget:
    """A kernel search that charges N nodes when unlimited gives the same
    result within a node limit of N and runs out at N - 1."""

    @settings(max_examples=40, deadline=None)
    @given(kernel_graphs())
    def test_node_limit_is_exact(self, g):
        engines = [
            sem_at(0), sem_at(1), sem_at(2), deficiency_cap3,
            find_sequential, find_harmonious, find_alpha_valuation,
        ]
        for search in engines:
            found, nodes = counted(search, g)
            if nodes:
                budget = SearchBudget(node_limit=nodes)
                assert counted(search, g, budget) == (found, nodes)
            if nodes > 1:
                with pytest.raises(SearchBudgetExceeded):
                    search(g, SearchBudget(node_limit=nodes - 1))

    def test_time_limit_stops_kernel_search(self):
        # D18 at extra 1 takes tens of millions of nodes, far more than the
        # budget allows.
        start = time.monotonic()
        with pytest.raises(SearchBudgetExceeded, match="time limit"):
            find_sem_labeling(build_prism(18), 37, SearchBudget(time_limit=0.05))
        assert time.monotonic() - start < 2.0


class TestBudgetClockAdvance:
    """`_BudgetClock.sync` charges a caller's running count as one charge per
    node would."""

    def test_advance_to_limit_then_one_more(self):
        clock = _BudgetClock(SearchBudget(node_limit=100))
        clock.sync(60)
        clock.sync(100)
        assert clock.nodes == 100
        with pytest.raises(SearchBudgetExceeded):
            clock.sync(101)

    def test_large_jump_past_limit(self):
        clock = _BudgetClock(SearchBudget(node_limit=100))
        with pytest.raises(SearchBudgetExceeded, match="after 101 nodes"):
            clock.sync(10_000)
        # The count stops at the first node past the limit.
        assert clock.nodes == 101

    def test_deadline_checked_when_crossing_1024(self):
        clock = _BudgetClock(SearchBudget(time_limit=60))
        clock.deadline = time.monotonic() - 1.0  # already past
        clock.sync(1000)  # 0 -> 1000 crosses no multiple of 1024
        assert clock.sync(1023) == 1023  # the next sync must come past 1023
        with pytest.raises(SearchBudgetExceeded, match="time limit"):
            clock.sync(1025)  # 1023 -> 1025 crosses 1024

    def test_matches_tick(self):
        # Charging in chunks raises iff charging one node at a time would,
        # and leaves the same count.
        rng = random.Random(7)
        for _ in range(200):
            limit = rng.randint(1, 3000)
            chunks = [rng.randint(0, 200) for _ in range(rng.randint(1, 30))]
            single = _BudgetClock(SearchBudget(node_limit=limit))
            chunked = _BudgetClock(SearchBudget(node_limit=limit))
            single_raised = chunked_raised = False
            try:
                for nodes in range(1, sum(chunks) + 1):
                    single.sync(nodes)
            except SearchBudgetExceeded:
                single_raised = True
            try:
                for k in itertools.accumulate(chunks):
                    chunked.sync(k)
            except SearchBudgetExceeded:
                chunked_raised = True
            assert single_raised == chunked_raised
            assert single.nodes == chunked.nodes

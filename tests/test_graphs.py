"""Graph core: construction, graph6 round trips, generators, canonical forms."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import slow
from semlab.graphs import (
    Graph,
    Graph6Error,
    bipartition,
    build_complete,
    build_cycle,
    build_family,
    build_lower_bound_witness,
    build_path,
    build_prism,
    build_star,
    canonical_form,
    emit_graph6,
    enumerate_k_minus,
    enumerate_trees,
    is_caterpillar,
    is_connected,
    is_tree,
    parse_graph6,
    stabiliser_chain,
)
from semlab.labelings import gap, sum_set


def random_graph(rng: random.Random, p: int, density: float = 0.5) -> Graph:
    edges = [e for e in itertools.combinations(range(p), 2) if rng.random() < density]
    return Graph(p, edges)


def members(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


class TestGraphType:
    def test_normalises_and_validates(self):
        g = Graph(3, [(2, 0), (0, 1)])
        assert g.edges == ((0, 1), (0, 2))
        assert g.degrees() == [2, 1, 1]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_adjacency_matches_edges(self):
        g = build_prism(4)
        for u in range(g.p):
            for v in range(g.p):
                assert g.has_edge(u, v) == (tuple(sorted((u, v))) in set(g.edges))

    def test_immutable(self):
        g = build_cycle(3)
        with pytest.raises(AttributeError):
            g.p = 5


class TestGraph6:
    def test_k2(self):
        assert emit_graph6(Graph(2, [(0, 1)])) == "A_"
        assert parse_graph6("A_") == Graph(2, [(0, 1)])

    def test_two_isolated(self):
        assert parse_graph6("A?") == Graph(2, [])

    def test_k1(self):
        assert emit_graph6(Graph(1, [])) == "@"
        assert parse_graph6("@") == Graph(1, [])

    def test_c3_matches_reference(self):
        line = emit_graph6(build_cycle(3))
        assert line == nx.to_graph6_bytes(nx.cycle_graph(3), header=False).decode().strip()

    def test_header_prefix_accepted(self):
        assert parse_graph6(">>graph6<<A_") == Graph(2, [(0, 1)])

    def test_bad_header(self):
        with pytest.raises(Graph6Error):
            parse_graph6("\x1f")
        with pytest.raises(Graph6Error):
            parse_graph6("~~~")  # long-form order encoding is out of scope

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error):
            parse_graph6("A_X")

    def test_truncated_body(self):
        with pytest.raises(Graph6Error):
            parse_graph6("D")

    def test_nonzero_padding(self):
        # K2 body with a stray low bit set in the padding area.
        bad = "A" + chr(63 + 0b100001)
        with pytest.raises(Graph6Error):
            parse_graph6(bad)

    def test_order_63_rejected_on_emit(self):
        with pytest.raises(Graph6Error):
            emit_graph6(Graph(63, []))

    @pytest.mark.parametrize(
        "g",
        [
            build_cycle(3),
            build_cycle(7),
            build_complete(1),
            build_complete(7),
            build_prism(3),
            build_prism(6),
            build_lower_bound_witness(9)[0],
            build_complete(62),
            build_cycle(62),
        ],
    )
    def test_round_trip_generated(self, g):
        assert parse_graph6(emit_graph6(g)) == g

    def test_round_trip_matches_networkx(self):
        rng = random.Random(20240811)
        for _ in range(60):
            p = rng.randint(1, 14)
            g = random_graph(rng, p, rng.random())
            line = emit_graph6(g)
            ref = nx.Graph()
            ref.add_nodes_from(range(p))
            ref.add_edges_from(g.edges)
            assert line == nx.to_graph6_bytes(ref, header=False).decode().strip()
            back = nx.from_graph6_bytes(line.encode())
            assert sorted(map(tuple, map(sorted, back.edges()))) == list(g.edges)
            assert parse_graph6(line) == g


class TestGenerators:
    @pytest.mark.parametrize("n,q", [(3, 3), (4, 4), (7, 7)])
    def test_cycles(self, n, q):
        g = build_cycle(n)
        assert (g.p, g.q) == (n, q)
        assert all(d == 2 for d in g.degrees())
        assert is_connected(g)

    def test_cycle_rejects_small(self):
        with pytest.raises(ValueError):
            build_cycle(2)

    @pytest.mark.parametrize("n,q", [(1, 0), (4, 6), (7, 21)])
    def test_completes(self, n, q):
        g = build_complete(n)
        assert (g.p, g.q) == (n, q)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_prisms(self, n):
        g = build_prism(n)
        assert (g.p, g.q) == (2 * n, 3 * n)
        assert all(d == 3 for d in g.degrees())
        assert is_connected(g)

    def test_prism_4_is_the_3_cube(self):
        cube = Graph(
            8,
            [
                (u, v)
                for u in range(8)
                for v in range(u + 1, 8)
                if bin(u ^ v).count("1") == 1
            ],
        )
        assert canonical_form(build_prism(4)) == canonical_form(cube)

    def test_witness_n4(self):
        g, f = build_lower_bound_witness(4)
        assert (g.p, g.q) == (4, 6)
        assert f.values == (1, 2, 3, 5)
        assert sum_set(g, f) == (3, 4, 5, 6, 7, 8)

    def test_witness_n5(self):
        g, f = build_lower_bound_witness(5)
        assert (g.p, g.q) == (5, 9)
        assert f.values == (1, 2, 3, 4, 7)
        assert sum_set(g, f) == tuple(range(3, 12))

    @pytest.mark.parametrize("n", list(range(4, 61)))
    def test_witness_sizes_and_gap(self, n):
        g, f = build_lower_bound_witness(n)
        assert g.p == n
        assert g.q == ((n + 1) // 2) * (n // 2 + 1)
        assert gap(sum_set(g, f)) == 0
        assert len(set(f.values)) == n and min(f.values) >= 1

    def test_witness_rejects_small(self):
        with pytest.raises(ValueError):
            build_lower_bound_witness(3)


class TestKMinus:
    def test_k5_minus_one(self):
        graphs = list(enumerate_k_minus(5, 1))
        assert len(graphs) == 1
        assert graphs[0].q == 9

    def test_k6_minus_two(self):
        graphs = list(enumerate_k_minus(6, 2))
        assert len(graphs) == 2
        assert all(g.q == 13 for g in graphs)

    def test_k7_minus_three_matches_oracle(self):
        graphs = list(enumerate_k_minus(7, 3))
        # Oracle: sweep every 3-subset of K_7's edges, dedup complements
        # pairwise with networkx isomorphism tests.
        reps = []
        for removed in itertools.combinations(itertools.combinations(range(7), 2), 3):
            comp = nx.Graph()
            comp.add_nodes_from(range(7))
            comp.add_edges_from(removed)
            if not any(nx.is_isomorphic(comp, r) for r in reps):
                reps.append(comp)
        assert len(graphs) == len(reps)

    def test_members_pairwise_non_isomorphic(self):
        graphs = list(enumerate_k_minus(7, 2))
        keys = {oracles.iso_key(g) for g in graphs}
        assert len(keys) == len(graphs)
        assert all(g.q == 21 - 2 for g in graphs)

    def test_rejects_hypothesis_violation(self):
        with pytest.raises(ValueError):
            list(enumerate_k_minus(4, 2))

    @pytest.mark.parametrize("alpha,count", [(1, 1), (2, 2), (3, 5), (4, 11)])
    def test_classes_match_edge_subset_oracle(self, alpha, count):
        classes = oracles.edge_subset_classes(alpha)
        assert len(classes) == count
        n = 2 * alpha + 1
        matched = []
        for g in enumerate_k_minus(n, alpha):
            removed = nx.Graph(
                e for e in itertools.combinations(range(n), 2) if not g.has_edge(*e)
            )
            hits = [i for i, r in enumerate(classes) if nx.is_isomorphic(removed, r)]
            assert len(hits) == 1
            matched += hits
        assert sorted(matched) == list(range(count))

    def test_removed_edge_sets_are_pinned(self):
        # Which representative each class keeps, and in which order.
        expected = {
            1: [((0, 1),)],
            2: [((0, 1), (0, 2)), ((0, 1), (2, 3))],
            3: [
                ((0, 1), (0, 2), (0, 3)),
                ((0, 1), (0, 2), (1, 2)),
                ((0, 1), (0, 2), (1, 3)),
                ((0, 1), (0, 2), (3, 4)),
                ((0, 1), (2, 3), (4, 5)),
            ],
        }
        for alpha, removed in expected.items():
            n = 2 * alpha + 1
            complete = set(itertools.combinations(range(n), 2))
            got = [tuple(sorted(complete - set(g.edges))) for g in enumerate_k_minus(n, alpha)]
            assert got == removed

    def test_grows_classes_edge_by_edge(self, monkeypatch):
        # Sweeping every 4-subset of K_8's edges would take 20,475 forms;
        # one-edge augmentation of the class representatives takes 232.
        calls = []
        monkeypatch.setattr(
            "semlab.graphs.canonical_form", lambda g: calls.append(g) or canonical_form(g)
        )
        assert len(list(enumerate_k_minus(9, 4))) == 11
        assert len(calls) <= 300


class TestTrees:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 1), (4, 2)])
    def test_small_counts(self, n, count):
        assert len(list(enumerate_trees(n))) == count

    def test_counts_match_prufer_oracle(self):
        for n in range(2, 8):
            assert len(list(enumerate_trees(n))) == oracles.tree_class_count_prufer(n)

    def test_counts_match_networkx(self):
        for n in range(2, 13):
            assert len(list(enumerate_trees(n))) == sum(
                1 for _ in nx.nonisomorphic_trees(n)
            )

    def test_order_seven_has_eleven(self):
        assert len(list(enumerate_trees(7))) == 11

    def test_all_are_trees_and_distinct(self):
        for n in range(1, 10):
            trees = list(enumerate_trees(n))
            assert all(is_tree(t) for t in trees)
            assert len({oracles.tree_key(t) for t in trees}) == len(trees)

    def test_deterministic_order(self):
        first = [emit_graph6(t) for t in enumerate_trees(8)]
        second = [emit_graph6(t) for t in enumerate_trees(8)]
        assert first == second

    @staticmethod
    def assert_same_as_sweep(orders):
        # Same Graphs, same order, same vertex numbering as the leaf-growing
        # canonical-encoding sweep.
        for n in orders:
            direct = [emit_graph6(t) for t in enumerate_trees(n)]
            assert direct == [emit_graph6(t) for t in oracles.sweep_trees(n)], n

    def test_sequence_matches_sweep(self):
        self.assert_same_as_sweep(range(1, 13))

    @slow(
        "the sweep takes 3-5 s to order 15 on a 2-core x86-64 host with "
        "CPython 3.11"
    )
    def test_sequence_matches_sweep_to_fifteen(self):
        self.assert_same_as_sweep(range(13, 16))

    @slow(
        "the 67,949 trees of orders 16 and 17 take about 1 s on a 2-core "
        "x86-64 host with CPython 3.11"
    )
    def test_counts_at_sixteen_and_seventeen(self):
        # OEIS A000055, streamed: holding the Graphs would take far more
        # memory than counting them.
        assert sum(1 for _ in enumerate_trees(16)) == 19_320
        assert sum(1 for _ in enumerate_trees(17)) == 48_629


class TestCaterpillar:
    def test_path_and_star(self):
        assert is_caterpillar(build_path(5))
        assert is_caterpillar(build_star(4))

    def test_spider_three_legs_of_two(self):
        edges = [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]
        assert not is_caterpillar(Graph(7, edges))

    def test_requires_tree(self):
        with pytest.raises(ValueError):
            is_caterpillar(build_cycle(4))

    def test_small_trees(self):
        assert is_caterpillar(Graph(1, []))
        assert is_caterpillar(Graph(2, [(0, 1)]))


class TestCanonicalForm:
    def test_distinguishes_same_degree_sequence(self):
        c6 = build_cycle(6)
        two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert canonical_form(c6) != canonical_form(two_triangles)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 7), st.randoms(use_true_random=False))
    def test_invariant_under_relabeling(self, p, rnd):
        g = random_graph(rnd, p)
        perm = list(range(p))
        rnd.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabeled(perm))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 7), st.randoms(use_true_random=False))
    def test_refined_path_partitions_like_the_oracle(self, p, rnd):
        # The degree-refined key must induce the oracle's isomorphism
        # partition.
        a = random_graph(rnd, p)
        b = random_graph(rnd, p)
        same = canonical_form(a) == canonical_form(b)
        assert same == (oracles.iso_key(a) == oracles.iso_key(b))

    def test_refined_path_invariant_under_relabeling(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, 7, rng.random())
            perm = list(range(7))
            rng.shuffle(perm)
            assert canonical_form(g) == canonical_form(g.relabeled(perm))

    def test_large_order_relabeling(self):
        rng = random.Random(99)
        for _ in range(10):
            g = random_graph(rng, 12, 0.4)
            perm = list(range(12))
            rng.shuffle(perm)
            assert canonical_form(g) == canonical_form(g.relabeled(perm))

    def test_separates_all_order_5_classes(self):
        graphs = oracles.all_graphs_up_to_iso(5)
        assert len(graphs) == 34
        assert len({canonical_form(g) for g in graphs}) == 34


def chain_orbit(g, v):
    """Level 0 of the stabiliser chain along an order that starts at v."""
    chain = stabiliser_chain(g, [v] + [w for w in range(g.p) if w != v])
    next(chain)
    return next(chain)


class TestAutomorphismOrbit:
    def test_matches_permutation_sweep(self):
        for g in oracles.atlas_graphs(6):
            autos = [
                perm
                for perm in itertools.permutations(range(g.p))
                if g.relabeled(perm) == g
            ]
            for v in range(g.p):
                expected = sorted({perm[v] for perm in autos})
                assert chain_orbit(g, v) == expected, (g.edges, v)

    def test_families(self):
        assert chain_orbit(build_prism(8), 3) == list(range(16))
        assert chain_orbit(build_path(5), 1) == [1, 3]
        assert chain_orbit(build_star(4), 0) == [0]
        assert chain_orbit(build_star(4), 2) == [1, 2, 3, 4]
        two_paths = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert chain_orbit(two_paths, 0) == [0, 2, 3, 5]
        assert chain_orbit(two_paths, 6) == [6]

    def test_relabeling_moves_the_orbit(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_graph(rng, 10, rng.random())
            perm = list(range(10))
            rng.shuffle(perm)
            h = g.relabeled(perm)
            for v in range(10):
                moved = sorted(perm[w] for w in chain_orbit(g, v))
                assert chain_orbit(h, perm[v]) == moved


class TestBipartition:
    def test_disconnected_forest(self):
        # Path 0-5-6-2, path 1-3-4, isolated 7: one pair per component, in
        # order of the smallest vertex, whose side comes first.
        g = Graph(8, [(0, 5), (5, 6), (6, 2), (1, 3), (3, 4)])
        assert bipartition(g) == [
            (1 << 0 | 1 << 6, 1 << 5 | 1 << 2),
            (1 << 1 | 1 << 4, 1 << 3),
            (1 << 7, 0),
        ]

    def test_odd_cycle(self):
        assert bipartition(build_cycle(5)) is None
        # The odd cycle on 2..6 comes after a bipartite component.
        g = Graph(7, [(0, 1)] + [(2 + i, 2 + (i + 1) % 5) for i in range(5)])
        assert bipartition(g) is None

    def test_matches_networkx(self):
        rng = random.Random(5)
        for _ in range(200):
            g = random_graph(rng, 8, rng.random() * 0.4)
            parts = bipartition(g)
            ref = nx.Graph(g.edges)
            ref.add_nodes_from(range(g.p))
            assert (parts is not None) == nx.is_bipartite(ref)
            if parts is None:
                continue
            comps = sorted(sorted(c) for c in nx.connected_components(ref))
            assert [members(a | b) for a, b in parts] == comps
            for a, b in parts:
                comp = a | b
                assert not a & b and a >> members(comp)[0] & 1
                for u, v in g.edges:
                    if comp >> u & 1:
                        assert (a >> u & 1) != (a >> v & 1)


class TestFamilyTag:
    def test_arity_checked(self):
        with pytest.raises(ValueError):
            build_family("prism", ())
        with pytest.raises(ValueError):
            build_family("bogus", (3,))
        with pytest.raises(ValueError):
            build_family("custom", ())

    def test_builds(self):
        assert build_family("cycle", (5,)) == [build_cycle(5)]
        assert len(build_family("complete-minus-alpha", (6, 2))) == 2
        assert len(build_family("tree-enumeration", (7,))) == 11

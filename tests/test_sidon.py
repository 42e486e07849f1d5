"""Well-spread sets, span search, max clique, and infinity certificates."""

import dataclasses
import itertools
import os
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from semlab import sidon
from semlab.graphs import Graph, build_complete, build_cycle, build_prism, enumerate_k_minus
from semlab.search import SearchBudget, SearchBudgetExceeded
from semlab.sidon import (
    EXACT_RHO_STAR,
    CertificateError,
    InfinityCertificate,
    certify_infinite_deficiency,
    is_ws_set,
    kotzig_lower_bound,
    max_clique,
    pairwise_sum_span,
    recheck_infinity_certificate,
    rho_star,
    rho_star_lower_bound,
)


def complete_minus_edge(n: int) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if e != (0, 1)]
    return Graph(n, edges)


class TestWsSets:
    @pytest.mark.parametrize(
        "xs,expected",
        [((1, 2, 3), True), ((1, 2, 3, 4), False), ((1, 2, 3, 5, 8), True)],
    )
    def test_examples(self, xs, expected):
        assert is_ws_set(xs) == expected

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            is_ws_set((2, 1, 3))
        with pytest.raises(ValueError):
            is_ws_set((0, 1, 2))

    @settings(max_examples=150)
    @given(st.sets(st.integers(1, 60), min_size=2, max_size=7))
    def test_matches_direct_definition(self, s):
        xs = tuple(sorted(s))
        sums = [xs[i] + xs[j] for i in range(len(xs)) for j in range(i + 1, len(xs))]
        assert is_ws_set(xs) == (len(set(sums)) == len(sums))

    @settings(max_examples=100)
    @given(st.sets(st.integers(1, 40), min_size=2, max_size=6), st.integers(1, 30))
    def test_translation_preserves_ws_and_span(self, s, c):
        xs = tuple(sorted(s))
        shifted = tuple(x + c for x in xs)
        assert is_ws_set(xs) == is_ws_set(shifted)
        assert pairwise_sum_span(xs) == pairwise_sum_span(shifted)


class TestSpan:
    @pytest.mark.parametrize(
        "xs,expected", [((1, 2), 1), ((1, 2, 3), 3), ((1, 2, 3, 5, 8), 11)]
    )
    def test_examples(self, xs, expected):
        assert pairwise_sum_span(xs) == expected

    def test_needs_two(self):
        with pytest.raises(ValueError):
            pairwise_sum_span((4,))

    @pytest.mark.parametrize("xs", [(5, 1, 3), (1, 3, 3), (0, 1, 2)])
    def test_rejects_what_is_ws_set_rejects(self, xs):
        # The span formula reads the two smallest and two largest elements
        # off the ends, so unsorted input would give a wrong span (-1 for
        # (5, 1, 3)).
        for f in (pairwise_sum_span, is_ws_set):
            with pytest.raises(ValueError, match="strictly increasing positive"):
                f(xs)


class TestRhoStar:
    def test_trivial_pair(self):
        assert rho_star(2) == 1

    def test_small_exact_against_brute_force(self):
        # brute_rho_star(n, cap) is exact when the result is <= cap: any set
        # whose largest element exceeds cap has span > cap.
        for n in range(3, 8):
            value = rho_star(n)
            assert value == EXACT_RHO_STAR[n]
            assert oracles.brute_rho_star(n, value) == value

    def test_frozen_table_reproduced_to_nine(self):
        for n in range(2, 10):
            assert rho_star(n) == EXACT_RHO_STAR[n]

    def test_monotone_nondecreasing(self):
        vals = [EXACT_RHO_STAR[n] for n in sorted(EXACT_RHO_STAR)]
        assert vals == sorted(vals)

    def test_dominates_quadratic_bound(self):
        for n in range(7, 11):
            assert EXACT_RHO_STAR[n] >= kotzig_lower_bound(n)

    def test_budget_raises(self):
        with pytest.raises(SearchBudgetExceeded):
            rho_star(9, SearchBudget(node_limit=5))

    def test_reflection_fits_budget(self):
        # Searching only sets with x_n - x_{n-1} >= x_2 - x_1 decides n = 9 in
        # 192,520 nodes; without the reflection rule (z from b + 1, and the
        # span bound b + 1 + b - a) it takes 350,858.
        assert rho_star(9, SearchBudget(node_limit=250_000)) == 62

    @pytest.mark.parametrize(
        "n,nodes,value",
        [(5, 5, 11), (7, 737, 30), (8, 4_744, 43), (9, 192_520, 62), (10, 572_686, 80)],
    )
    def test_node_count_pinned(self, n, nodes, value):
        # Skipped candidates are charged in bulk but still counted, so the
        # search spends exactly the nodes of a one-by-one candidate scan.
        assert rho_star(n, SearchBudget(node_limit=nodes)) == value
        with pytest.raises(SearchBudgetExceeded):
            rho_star(n, SearchBudget(node_limit=nodes - 1))

    def test_every_node_limit_at_six(self):
        # rho*(6) takes 31 nodes. Every smaller limit must stop it, also
        # where the last charge is that of a child scanned by its parent.
        for limit in range(1, 31):
            with pytest.raises(SearchBudgetExceeded):
                rho_star(6, SearchBudget(node_limit=limit))
        assert rho_star(6, SearchBudget(node_limit=31)) == 19

    @pytest.mark.parametrize("n,value", [(3, 3), (4, 6)])
    def test_no_middle_spends_no_node(self, n, value):
        # n = 3 has the closed form x_3 - x_1 + 1 >= 3; for n = 4 the greedy
        # set {1, 2, 3, 5} already meets the first span bound 2b.
        assert rho_star(n, SearchBudget(node_limit=1)) == value

    def test_no_middle_from_a_weak_start(self, monkeypatch):
        # From the start {1, 2, 4, 8} (span 10), n = 4 tests a = 2, b = 3
        # and z = 5, and {1, 2, 3, 5} fits with no middle: 3 nodes.
        monkeypatch.setattr(sidon, "_greedy_ws_prefix", lambda n: [1 << i for i in range(n)])
        assert rho_star(4, SearchBudget(node_limit=3)) == 6
        with pytest.raises(SearchBudgetExceeded):
            rho_star(4, SearchBudget(node_limit=2))
        for n in range(5, 9):
            assert rho_star(n) == EXACT_RHO_STAR[n]

    @pytest.mark.parametrize(
        "table",
        [tuple(max(k - 1, 0) for k in range(12)), sidon._LEAST_DIAMETER[:7]],
        ids=["trivial", "cut-at-six"],
    )
    def test_values_do_not_depend_on_the_diameter_table(self, monkeypatch, table):
        # D(k) = k - 1 is the weakest table; the one cut after k = 6 sends
        # every larger k through the D(k - 1) + 1 fallback.
        monkeypatch.setattr(sidon, "_LEAST_DIAMETER", table)
        for n in range(2, 10):
            assert rho_star(n) == EXACT_RHO_STAR[n]

    def test_least_diameter_table_reproduced(self):
        # Frozen constants enter only with a reproduction: an independent
        # plain search for k <= 10 (k = 11 is under SEMLAB_SLOW).
        for k in range(11):
            assert sidon._LEAST_DIAMETER[k] == oracles.least_ws_diameter(k)

    def test_least_diameter_fallback_stays_below_the_table(self, monkeypatch):
        table = sidon._LEAST_DIAMETER
        monkeypatch.setattr(sidon, "_LEAST_DIAMETER", table[:7])
        for k in range(7, len(table)):
            assert sidon._least_diameter(k) <= table[k]

    @pytest.mark.skipif(
        os.environ.get("SEMLAB_SLOW") != "1",
        reason="D(11) takes 9-15 s in the plain search on a 2-core x86-64 "
        "host with CPython 3.11; set SEMLAB_SLOW=1",
    )
    def test_least_diameter_eleven_reproduced(self):
        assert sidon._LEAST_DIAMETER[11] == oracles.least_ws_diameter(11)

    def test_time_budget_raises(self):
        # rho*(12) takes far longer than the budget; the deadline is checked
        # whenever a bulk charge crosses a multiple of 1024 nodes.
        start = time.monotonic()
        with pytest.raises(SearchBudgetExceeded, match="time limit"):
            rho_star(12, SearchBudget(time_limit=0.2))
        assert time.monotonic() - start < 5.0

    def test_cardinality_eleven_dominates_quadratic_bound(self):
        assert rho_star(11) == 110 >= kotzig_lower_bound(11)

    def test_cardinality_one_rejected(self):
        with pytest.raises(ValueError):
            rho_star(1)


class TestKotzigBound:
    @pytest.mark.parametrize("n,expected", [(7, 28), (8, 38), (10, 64)])
    def test_values(self, n, expected):
        assert kotzig_lower_bound(n) == expected

    def test_below_seven_rejected(self):
        with pytest.raises(ValueError):
            kotzig_lower_bound(6)

    def test_bound_source_selection(self):
        assert rho_star_lower_bound(5) == (11, "exact")
        assert rho_star_lower_bound(7) == (30, "exact")
        assert rho_star_lower_bound(12) == (12 * 12 - 60 + 14, "kotzig")


class TestMaxClique:
    def test_small_known(self):
        assert len(max_clique(build_complete(6))) == 6
        assert len(max_clique(build_cycle(5))) == 2
        assert len(max_clique(Graph(3, []))) == 1
        assert max_clique(Graph(0, [])) == ()

    def test_clique_is_complete(self):
        rng = random.Random(42)
        for _ in range(40):
            p = rng.randint(1, 9)
            edges = [
                e for e in itertools.combinations(range(p), 2) if rng.random() < 0.6
            ]
            g = Graph(p, edges)
            clique = max_clique(g)
            assert all(
                g.has_edge(u, v) for u, v in itertools.combinations(clique, 2)
            )
            assert len(clique) == oracles.brute_max_clique_size(g)

    def test_dense_remainder(self):
        for g in enumerate_k_minus(21, 2):
            assert len(max_clique(g)) in (19, 20)

    @pytest.mark.parametrize(
        "g, clique",
        [
            (build_prism(3), (3, 4, 5)),
            (build_cycle(5), (3, 4)),
            (list(enumerate_k_minus(8, 3))[1], (2, 3, 4, 5, 6, 7)),
            (list(enumerate_k_minus(8, 3))[4], (1, 3, 5, 6, 7)),
        ],
        ids=["prism3", "C5", "K8-K3", "K8-3K2"],
    )
    def test_choice_among_maximum_cliques_is_pinned(self, g, clique):
        assert max_clique(g) == clique


class TestCertify:
    def test_k7(self):
        cert = certify_infinite_deficiency(build_complete(7))
        assert cert is not None
        assert (cert.m, cert.q) == (7, 21)
        assert cert.rho_lower >= 28
        assert cert.rho_lower > cert.q

    def test_k8_minus_e(self):
        cert = certify_infinite_deficiency(complete_minus_edge(8))
        assert cert is not None
        assert cert.m == 7
        assert cert.rho_lower > 27

    def test_c5_no_certificate(self):
        assert certify_infinite_deficiency(build_cycle(5)) is None

    def test_k4_no_certificate(self):
        assert certify_infinite_deficiency(build_complete(4)) is None

    @pytest.mark.parametrize("m", [5, 6])
    def test_small_completes_need_exact_values(self, m):
        cert = certify_infinite_deficiency(build_complete(m))
        assert cert is not None
        assert cert.source == "exact"

    def test_whole_clique_gives_the_best_bound(self):
        # The bound never decreases with the cardinality, so no sub-clique
        # of a maximum clique certifies more than the whole clique does.
        # Every m >= 2 has a bound: the stored exact values cover m <= 10 and
        # beat the quadratic bound there, which covers every m from 7 on.
        bounds = [rho_star_lower_bound(m) for m in range(2, 61)]
        assert [source for _, source in bounds] == ["exact"] * 9 + ["kotzig"] * 50
        assert [b for b, _ in bounds] == sorted(b for b, _ in bounds)
        for m in range(5, 61):
            cert = certify_infinite_deficiency(build_complete(m))
            assert cert.clique == tuple(range(m))
            assert (cert.rho_lower, cert.source) == rho_star_lower_bound(m)

    def test_emitted_certificates_recheck(self):
        for g in [
            build_complete(5),
            build_complete(9),
            complete_minus_edge(10),
            next(iter(enumerate_k_minus(21, 2))),
        ]:
            cert = certify_infinite_deficiency(g)
            assert cert is not None
            assert recheck_infinity_certificate(g, cert.to_json_dict()) == cert

    def test_json_round_trip(self):
        cert = certify_infinite_deficiency(build_complete(7))
        again = InfinityCertificate.from_json_dict(cert.to_json_dict())
        assert again == cert

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda d: d.update(clique=d["clique"][:-1], m=d["m"] - 1),
            lambda d: d.update(m=d["m"] + 1),
            lambda d: d.update(rho_lower=10 ** 6),
            lambda d: d.update(rho_lower=d["q"]),
            lambda d: d.update(q=d["q"] + 5),
            lambda d: d.update(source="guess"),
            lambda d: d.update(clique=[0, 0, 1, 2, 3, 4, 5][: d["m"]]),
            lambda d: d.pop("clique"),
        ],
    )
    def test_recheck_rejects_corruption(self, mutation):
        g = build_complete(7)
        data = certify_infinite_deficiency(g).to_json_dict()
        mutation(data)
        with pytest.raises(CertificateError):
            recheck_infinity_certificate(g, data)

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda d: d.update(q=d["q"] + 0.9),
            lambda d: d.update(q=float(d["q"])),
            lambda d: d.update(rho_lower=str(d["rho_lower"])),
            lambda d: d.update(m=float(d["m"])),
            lambda d: d.update(m=True),
            lambda d: d.update(clique=[float(v) for v in d["clique"]]),
            lambda d: d.update(clique=tuple(d["clique"])),
            lambda d: d.update(source=0),
            lambda d: d.update(note="extra"),
        ],
    )
    def test_parse_is_strict(self, mutation):
        g = build_complete(8)
        data = certify_infinite_deficiency(g).to_json_dict()
        recheck_infinity_certificate(g, data)
        mutation(data)
        with pytest.raises(CertificateError):
            recheck_infinity_certificate(g, data)

    def test_stored_m_must_match_the_clique(self):
        with pytest.raises(CertificateError) as built:
            InfinityCertificate(clique=(0, 1, 2, 3, 4), m=6, q=9, rho_lower=11, source="exact")
        data = certify_infinite_deficiency(build_complete(5)).to_json_dict()
        data["m"] = 6
        with pytest.raises(CertificateError) as parsed:
            InfinityCertificate.from_json_dict(data)
        assert str(built.value) == str(parsed.value) == "stored m = 6 but clique has 5 vertices"

    def test_json_keys_are_the_fields_in_order(self):
        data = certify_infinite_deficiency(build_complete(7)).to_json_dict()
        assert list(data) == [f.name for f in dataclasses.fields(InfinityCertificate)]
        assert list(data) == ["clique", "m", "q", "rho_lower", "source"]

    def test_parse_rejects_non_object(self):
        with pytest.raises(CertificateError):
            InfinityCertificate.from_json_dict([0, 1, 2, 3, 4])
        # A certificate object is not parsed JSON either.
        g = build_complete(7)
        with pytest.raises(CertificateError):
            recheck_infinity_certificate(g, certify_infinite_deficiency(g))

    def test_recheck_rejects_incomplete_clique(self):
        g = complete_minus_edge(8)
        data = certify_infinite_deficiency(g).to_json_dict()
        # vertex 0 and 1 are the missing edge; force them into the clique
        data["clique"] = [0, 1, 2, 3, 4, 5, 6]
        with pytest.raises(CertificateError):
            recheck_infinity_certificate(g, data)

    def test_kotzig_source_rejected_below_seven(self):
        g = build_complete(5)
        data = certify_infinite_deficiency(g).to_json_dict()
        data["source"] = "kotzig"
        with pytest.raises(CertificateError):
            recheck_infinity_certificate(g, data)

"""Acceptance criteria, one test per criterion.

Each test prints one `ACCEPTANCE nn: PASS` line (visible with -s, and kept
in captured output otherwise). Heavier optional tiers:

  SEMLAB_ACCEPTANCE_FULL=1   extend the tree deficiency sweep to order 12
                             (adds ~5 minutes; default covers 2..10)
"""

import itertools
import os
import random
import time

import oracles
from semlab.bounds import j_threshold, prism_bounds
from semlab.graphs import (
    Graph,
    build_complete,
    build_cycle,
    build_lower_bound_witness,
    build_prism,
    canonical_form,
    enumerate_k_minus,
    enumerate_trees,
)
from semlab.labelings import (
    LabelingError,
    gap,
    recheck_sem_certificate,
    sum_set,
    verify_alpha,
    verify_harmonious,
    verify_sem,
    verify_sequential,
)
from semlab.search import (
    SearchBudget,
    deficiency,
    deficiency_upper_via_alpha,
    find_alpha_valuation,
    find_harmonious,
    find_sem_labeling,
    find_sequential,
    strength,
)
from semlab.sidon import (
    EXACT_RHO_STAR,
    CertificateError,
    certify_infinite_deficiency,
    kotzig_lower_bound,
    recheck_infinity_certificate,
    rho_star,
)

FULL = os.environ.get("SEMLAB_ACCEPTANCE_FULL") == "1"


def report(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: PASS - {detail}")


def complete_minus_edge(n: int) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if e != (0, 1)]
    return Graph(n, edges)


def test_01_constructive_witness_family():
    t0 = time.monotonic()
    for n in range(4, 51):
        g, f = build_lower_bound_witness(n)
        assert g.p == n
        assert g.q == ((n + 1) // 2) * (n // 2 + 1)
        assert gap(sum_set(g, f)) == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, f"orders 4..50: exact sizes, every sum set gap 0 ({elapsed:.2f}s)")


def test_02_exact_spans_dominate_quadratic_bound():
    t0 = time.monotonic()
    expected_lower = {7: 28, 8: 38, 9: 50, 10: 64}
    values = {}
    for n in range(7, 11):
        v = rho_star(n)
        values[n] = v
        assert v == EXACT_RHO_STAR[n]
        assert v >= expected_lower[n] == kotzig_lower_bound(n)
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    report(2, f"rho-star 7..10 = {values} all >= quadratic bound ({elapsed:.1f}s)")


def test_03_certificates_on_near_complete_graphs():
    checked = []
    for n in range(7, 12):
        g = complete_minus_edge(n + 1)
        t0 = time.monotonic()
        cert = certify_infinite_deficiency(g)
        elapsed = time.monotonic() - t0
        assert cert is not None, f"K_{n + 1} - e"
        assert cert.rho_lower > cert.q
        assert elapsed < 1.0
        checked.append(f"K{n + 1}-e")
    for m in range(5, 12):
        g = build_complete(m)
        cert = certify_infinite_deficiency(g)
        assert cert is not None, f"K_{m}"
        if m in (5, 6):
            assert cert.source == "exact"
        checked.append(f"K{m}")
    report(3, f"certificates fire on {', '.join(checked)}")


def test_04_density_threshold_and_coverage_at_21():
    t0 = time.monotonic()
    assert j_threshold(2) == 21
    members = list(enumerate_k_minus(21, 2))
    assert len(members) == 2
    for g in members:
        cert = certify_infinite_deficiency(g)
        assert cert is not None
        assert cert.rho_lower > g.q == 208
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    report(4, f"threshold(2) = 21; both order-21 two-deletion classes certified ({elapsed:.1f}s)")


def test_05_prism_deficiencies():
    details = []
    for n, expected in ((3, 0), (5, 0)):
        res = deficiency(build_prism(n), 2)
        assert (res.kind, res.value) == ("finite", expected)
        details.append(f"D{n}={expected}")

    res = deficiency(build_prism(4), 6)
    assert (res.kind, res.value) == ("finite", 5)
    assert recheck_sem_certificate(build_prism(4), res.witness.to_json_dict())
    details.append("D4=5")

    # Extra 0 is refuted by the counting identity before any node; the
    # extra-1 witness takes 733 nodes.
    d6 = build_prism(6)
    res6 = deficiency(d6, 7, SearchBudget(node_limit=2_000_000))
    assert (res6.kind, res6.value) == ("finite", 1)
    assert recheck_sem_certificate(d6, res6.witness.to_json_dict())
    details.append("D6=1")
    # The bound route must hold regardless of the search outcome.
    alpha = find_alpha_valuation(d6)
    assert alpha is not None
    assert verify_alpha(d6, alpha) == alpha.boundary
    bound = deficiency_upper_via_alpha(d6)
    assert bound.isolated == 7
    assert recheck_sem_certificate(d6, bound.to_json_dict())
    report(5, ", ".join(details) + "; boundary-valuation bound for D6 = 7")


def test_06_new_prism_bound_beats_old():
    for n, old in ((8, 11), (12, 17)):
        row = prism_bounds(n)
        assert row.upper == n + 1
        assert row.old_upper == old
        assert row.upper < row.old_upper
    report(6, "prism bracket: 9 < 11 at n=8 and 13 < 17 at n=12")


def test_07_all_small_trees_have_zero_deficiency():
    top = 12 if FULL else 10
    t0 = time.monotonic()
    counts = {}
    for n in range(2, top + 1):
        trees = list(enumerate_trees(n))
        counts[n] = len(trees)
        for tree in trees:
            res = deficiency(tree, 0)
            assert (res.kind, res.value) == ("finite", 0), f"order {n}"
    elapsed = time.monotonic() - t0
    if top == 10:
        assert elapsed < 600
    total = sum(counts.values())
    report(7, f"{total} trees of orders 2..{top}: all deficiency 0 ({elapsed:.1f}s)")


def test_08_tree_strength_is_order_plus_one():
    t0 = time.monotonic()
    total = 0
    for n in range(2, 10):
        for tree in enumerate_trees(n):
            total += 1
            assert strength(tree) == n + 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    report(8, f"{total} trees of orders 2..9: strength = order + 1 ({elapsed:.1f}s)")


def test_09_sem_trees_are_harmonious_and_sequential():
    t0 = time.monotonic()
    total = 0
    for n in range(2, 11):
        for tree in enumerate_trees(n):
            f = find_sem_labeling(tree, tree.p)
            if f is None:
                continue  # would itself be a counterexample; criterion 7 catches it
            total += 1
            h = find_harmonious(tree)
            assert h is not None and verify_harmonious(tree, h)
            s = find_sequential(tree)
            assert s is not None and verify_sequential(tree, s)
            # survey-trees reads both columns off f instead of searching.
            assert s.values == tuple(x - 1 for x in f.values)
            assert verify_harmonious(tree, [x % tree.q for x in f.values])
    elapsed = time.monotonic() - t0
    report(9, f"{total} labeled trees of orders 2..10: harmonious and sequential ({elapsed:.1f}s)")


def test_10_oracle_equivalence_order_five():
    t0 = time.monotonic()
    graphs = []
    for p in range(1, 6):
        graphs.extend(oracles.all_graphs_up_to_iso(p))
    assert sum(1 for g in graphs if g.p == 5) == 34

    for g in graphs:
        # deficiency against brute force (certificates only fire on K5 here,
        # whose infinite answer the oracle confirms by exhausting the cap)
        res = deficiency(g, 4)
        ref = oracles.brute_deficiency(g, 4)
        if res.kind == "finite":
            assert res.value == ref, g.edges
        else:
            assert ref is None, g.edges

        for max_label in (g.p, g.p + 2):
            assert (find_sem_labeling(g, max_label) is None) == (
                oracles.brute_find_sem(g, max_label) is None
            ), g.edges

        if g.q >= 1:
            assert strength(g) == oracles.brute_strength(g), g.edges
            assert (find_alpha_valuation(g) is None) == (
                oracles.brute_alpha(g) is None
            ), g.edges
            assert (find_harmonious(g) is None) == (
                oracles.brute_harmonious(g) is None
            ), g.edges
            assert (find_sequential(g) is None) == (
                oracles.brute_sequential(g) is None
            ), g.edges
    elapsed = time.monotonic() - t0
    report(10, f"{len(graphs)} classes of order <= 5 agree with brute force ({elapsed:.1f}s)")


def _corrupt_sem(data: dict, rng: random.Random) -> dict:
    data = {k: (list(v) if isinstance(v, list) else v) for k, v in data.items()}
    choice = rng.randrange(6)
    if choice == 0:
        data["k"] += rng.choice([-2, -1, 1, 2])
    elif choice == 1:
        data["s"] += rng.choice([-1, 1])
    elif choice == 2:
        i = rng.randrange(len(data["sums"])) if data["sums"] else 0
        if data["sums"]:
            data["sums"][i] += rng.choice([-1, 1])
        else:
            data["k"] += 1
    elif choice == 3:
        if len(data["labels"]) >= 2:
            data["labels"][0] = data["labels"][1]
        else:
            data["labels"] = [0]
    elif choice == 4:
        data["isolated"] += 1
    else:
        data["order"] += 1
    return data


def _corrupt_infinity(data: dict, rng: random.Random) -> dict:
    data = {k: (list(v) if isinstance(v, list) else v) for k, v in data.items()}
    choice = rng.randrange(5)
    if choice == 0:
        data["rho_lower"] = data["q"]  # kills the strict inequality
    elif choice == 1:
        data["rho_lower"] = 10 ** 9  # unjustifiable bound
    elif choice == 2:
        data["q"] += 1  # disagrees with the graph
    elif choice == 3:
        data["m"] += 1  # disagrees with the clique list
    else:
        data["clique"] = [0] * len(data["clique"])  # not distinct vertices
    return data


def test_11_certificate_soundness_and_fuzzing():
    rng = random.Random(20250810)
    sem_pool = []
    for g in [
        build_cycle(3),
        build_cycle(4),
        build_cycle(8),
        build_prism(3),
        build_prism(4),
        Graph(2, [(0, 1)]),
    ]:
        res = deficiency(g, 6)
        assert res.kind == "finite"
        assert recheck_sem_certificate(g, res.witness.to_json_dict())
        sem_pool.append((g, res.witness.to_json_dict()))
    for n in range(2, 9):
        for tree in enumerate_trees(n):
            f = find_sem_labeling(tree, tree.p)
            cert = verify_sem(tree, f)
            assert recheck_sem_certificate(tree, cert.to_json_dict())
            sem_pool.append((tree, cert.to_json_dict()))

    inf_pool = []
    for g in [build_complete(m) for m in range(5, 10)] + [
        complete_minus_edge(8),
        complete_minus_edge(12),
    ]:
        cert = certify_infinite_deficiency(g)
        assert cert is not None
        assert recheck_infinity_certificate(g, cert.to_json_dict())
        inf_pool.append((g, cert.to_json_dict()))

    rejected = 0
    for _ in range(150):
        g, data = sem_pool[rng.randrange(len(sem_pool))]
        bad = _corrupt_sem(data, rng)
        try:
            recheck_sem_certificate(g, bad)
        except (LabelingError, ValueError):
            rejected += 1
    assert rejected == 150
    for _ in range(100):
        g, data = inf_pool[rng.randrange(len(inf_pool))]
        bad = _corrupt_infinity(data, rng)
        try:
            recheck_infinity_certificate(g, bad)
        except CertificateError:
            rejected += 1
    assert rejected == 250
    report(
        11,
        f"{len(sem_pool)} labeling and {len(inf_pool)} infinity certificates "
        "re-validate; 250/250 corruptions rejected",
    )


def test_12_no_graph_is_both_finite_and_certified_infinite():
    t0 = time.monotonic()
    # Any order <= 8 graph receiving a certificate has a 5-clique, so the
    # candidates are exactly the graphs built from K5 on vertices 0..4 plus
    # extra edges. Their classes are built one edge at a time, as
    # enumerate_k_minus does: each class is extended by every absent edge
    # (all of them reach a vertex >= 5) and the first graph per canonical
    # form is kept. Removing an extra edge leaves a smaller such graph, so
    # every class appears.
    base = list(itertools.combinations(range(5), 2))
    fired: dict = {}
    scanned = 0
    for p in range(5, 9):
        level = {canonical_form(Graph(p, base)): Graph(p, base)}
        while level:
            scanned += len(level)
            fired.update(
                (key, g) for key, g in level.items()
                if certify_infinite_deficiency(g) is not None
            )
            grown: dict = {}
            for g in level.values():
                for e in itertools.combinations(range(p), 2):
                    if not g.has_edge(*e):
                        h = Graph(p, list(g.edges) + [e])
                        grown.setdefault(canonical_form(h), h)
            level = grown
        if p == 7:
            # The classes of order <= 7 with a 5-clique, counted in the atlas.
            assert scanned == sum(
                oracles.brute_max_clique_size(g) >= 5 for g in oracles.atlas_graphs(7)
            )
    assert (scanned, len(fired)) == (995, 31)

    for g in fired.values():
        # the exhaustive search must never produce a labeling
        for extra in (0, 1, 2):
            assert find_sem_labeling(g, g.p + extra) is None, g.edges
        assert deficiency(g, 2).kind == "infinite"

    # Converse sweep at order <= 5: graphs with finite deficiency are never
    # certified, and certified graphs never come out finite.
    for p in range(1, 6):
        for g in oracles.all_graphs_up_to_iso(p):
            res = deficiency(g, 4)
            cert = certify_infinite_deficiency(g)
            assert not (res.kind == "finite" and cert is not None), g.edges
    elapsed = time.monotonic() - t0
    report(
        12,
        f"{scanned} clique-bearing classes scanned, {len(fired)} certified "
        f"classes all refuted by search; order <= 5 sweep consistent ({elapsed:.1f}s)",
    )

"""The three benchmark workloads.

Each workload builds its inputs from the seed, runs one pass of tasks in a
closed loop (each task starts after the previous verdict), and checks every
verdict against answers taken from the paper and the README, or re-checks
it with the `labelings` / `sidon` re-checkers after a JSON round trip.

The numbering of a graph moves the cost of one search a lot (see
NOTES.md). So each workload has a fixed part in the generators' own
numbering, the numbering the CLI's `--family` flags produce, and a sampled
part: for every pass the seed draws a fresh numbering of each of its graphs
(seed 0 keeps the generators' numbering there too). The run reports
medians over passes.

`smoke=True` shrinks every size so that the smoke test runs in seconds.
"""

from __future__ import annotations

import json
import random


class WrongVerdict(Exception):
    """A verdict contradicts a known answer or fails its re-check."""


# Known answers, copied from the paper and the README, never from the engines.
RHO_STAR = {2: 1, 3: 3, 4: 6, 5: 11, 6: 19, 7: 30, 8: 43, 9: 62, 10: 80}
PRISM_DEFICIENCY = {4: 5, 6: 1}  # odd cycle lengths have deficiency 0
FREE_TREES = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235}
GRAPHS_WITH_Q_EDGES = {1: 1, 2: 2, 3: 5, 4: 11}  # no isolated vertices


def rho_lower(m: int) -> int:
    """The README's bound on rho*(m): exact up to 10, m^2 - 5m + 14 beyond."""
    return RHO_STAR[m] if m in RHO_STAR else m * m - 5 * m + 14


def draw_numbering(n: int, rng) -> list[int]:
    """A vertex numbering of n vertices drawn from `rng`; None keeps 0..n-1."""
    perm = list(range(n))
    if rng is not None:
        rng.shuffle(perm)
    return perm


def renumber(g, rng):
    """The graph under a vertex numbering drawn from `rng` (None keeps it)."""
    return g if rng is None else g.relabeled(draw_numbering(g.p, rng))


def graph6_round_trip(sl, tr, g):
    text = sl.emit_graph6(g)
    with tr.span("graphs.parse_graph6"):
        return sl.parse_graph6(text)


def recheck_witness(sl, tr, g, witness, isolated: int) -> None:
    with tr.span("labelings.certificate_json"):
        data = json.loads(witness.to_json())
    with tr.span("labelings.verify"):
        cert = sl.recheck_sem_certificate(g, data)
    if cert.isolated != isolated:
        raise WrongVerdict(f"witness uses {cert.isolated} isolated vertices, not {isolated}")


def deficiency_traced(sl, tr, g, cap: int, budget, tag: str):
    """`deficiency(g, cap, budget)` split into its public steps, one span each:
    the certificate, `find_sem_labeling(g, p + j)` per extra j, `verify_sem`.

    The split gives each extra its own budget where `deficiency` shares one;
    the two agree whenever the budget runs out at the first extra.
    """
    with tr.span("sidon.certify") as sp:
        cert = sl.certify_infinite_deficiency(g)
        sp.tag = "none" if cert is None else "found"
    if cert is not None:
        return sl.DeficiencyResult.infinite(cert)
    for extra in range(cap + 1):
        with tr.span("search.find_sem_refute", f"{tag}.x{extra}") as sp:
            try:
                labeling = sl.find_sem_labeling(g, g.p + extra, budget)
            except sl.SearchBudgetExceeded:
                sp.rename("search.find_sem_budgeted")
                return sl.DeficiencyResult.unknown(extra)
            if labeling is not None:
                sp.rename("search.find_sem_witness")
        if labeling is not None:
            with tr.span("labelings.verify"):
                witness = sl.verify_sem(g, labeling.values, extra)
            return sl.DeficiencyResult.finite(extra, witness)
    return sl.DeficiencyResult.unknown(cap)


class PrismDeficiency:
    """deficiency(prism(n), cap 7) for small n, node-budgeted prism(6) and
    prism(8), and `semlab deficiency --family prism --params 6 --cap 7 --json`."""

    name = "prism-deficiency"
    cap = 7
    pool_size = 48

    def __init__(self, smoke: bool):
        self.orders = (3, 5) if smoke else (3, 4, 5)
        # prism(4) is the fixed part: one of its numberings costs 0.55-1.26 s,
        # which a run could not average out over enough numberings.
        self.fixed_order = 5 if smoke else 4
        # (order, cap) of the node-budgeted calls, seeded: a renumbered
        # prism(6) needs some 30M nodes at extra 0 alone, and D8 is open.
        self.budgeted = ((4, 7), (8, 1)) if smoke else ((6, 7), (8, 1))
        self.node_limit = 20_000 if smoke else 1_000_000
        self.cli_order = 3 if smoke else 6
        self.anchor_order = 5 if smoke else 7
        self.cli_argv = [
            "deficiency", "--family", "prism", "--params", str(self.cli_order),
            "--cap", str(self.cap), "--json",
        ]
        self.cli_expected = f"deficiency-prism{self.cli_order}.json"
        # Per-layer names of the two generator-numbered extra-0 searches.
        self.x0_tags = {
            "search.find_sem.prism6.x0_s": f"prism{self.cli_order}.x0",
            "search.find_sem.prism7.x0_s": f"prism{self.anchor_order}.x0",
        }

    def setup(self, sl, seed, tr, tally):
        rng = random.Random(seed) if seed else None
        bases = {n: sl.build_prism(n) for n in set(self.orders) | {n for n, _ in self.budgeted}}
        fixed = graph6_round_trip(sl, tr, bases[self.fixed_order])
        return [
            {
                "orders": [
                    fixed if n == self.fixed_order else graph6_round_trip(sl, tr, renumber(bases[n], rng))
                    for n in self.orders
                ],
                "budgeted": [graph6_round_trip(sl, tr, renumber(bases[n], rng)) for n, _ in self.budgeted],
            }
            for _ in range(self.pool_size)
        ]

    def run_pass(self, sl, inputs, tr, tally):
        for n, g in zip(self.orders, inputs["orders"]):
            tally.run(tr, f"D(prism {n})", g, self._task, sl, tr, n, g, self.cap, None)
        budget = sl.SearchBudget(node_limit=self.node_limit)
        for (n, cap), g in zip(self.budgeted, inputs["budgeted"]):
            tally.run(tr, f"D(prism {n}) under budget", g, self._task, sl, tr, n, g, cap, budget)

    def _task(self, sl, tr, n, g, cap, budget) -> bool:
        if tr.enabled:
            res = deficiency_traced(sl, tr, g, cap, budget, f"prism{n}")
        else:
            res = sl.deficiency(g, cap, budget)
        if res.kind == "finite":
            recheck_witness(sl, tr, g, res.witness, res.value)
            known = 0 if n % 2 else PRISM_DEFICIENCY.get(n)
            if known is not None and res.value != known:
                raise WrongVerdict(f"deficiency {res.value}, known {known}")
            if n % 2 == 0 and not 1 <= res.value <= n + 1:
                raise WrongVerdict(f"deficiency {res.value} outside the bracket [1, {n + 1}]")
            return True
        if res.kind == "unknown" and budget is not None:
            return False
        raise WrongVerdict(f"{res.kind} verdict for a finite deficiency within the cap")

    def library_equivalent(self, sl, tr, tally):
        g = sl.build_prism(self.cli_order)
        tally.run(tr, f"D(prism {self.cli_order})", g,
                  self._task, sl, tr, self.cli_order, g, self.cap, None)

    def anchors(self, sl, tr, tally):
        g = sl.build_prism(self.anchor_order)
        tally.run(tr, f"D(prism {self.anchor_order})", g,
                  self._task, sl, tr, self.anchor_order, g, self.cap, None)


class TreeSurvey:
    """Every free tree of orders 2..10 (the fixed part) plus a seeded sample
    of order 11, each through deficiency(t, 0), strength and the harmonious,
    sequential and boundary-valuation searches; and
    `semlab survey-trees --max-n 9`."""

    name = "tree-survey"

    def __init__(self, smoke: bool):
        self.max_full = 7 if smoke else 10
        self.sample_size = 3 if smoke else 10
        self.pool_size = 4 if smoke else 24
        self.cli_max_n = 5 if smoke else 9
        self.cli_argv = ["survey-trees", "--max-n", str(self.cli_max_n)]
        self.cli_expected = f"survey-trees-{self.cli_max_n}.csv"

    def setup(self, sl, seed, tr, tally):
        sample_order = self.max_full + 1
        with tr.span("graphs.enumerate_trees") as sp:
            by_order = {n: list(sl.enumerate_trees(n)) for n in range(2, sample_order + 1)}
            sp.tag = str(sum(map(len, by_order.values())))
        for n, trees in by_order.items():
            tally.expect(len(trees) == FREE_TREES[n], f"{len(trees)} free trees of order {n}, known {FREE_TREES[n]}")
        full = [graph6_round_trip(sl, tr, t) for n in range(2, sample_order) for t in by_order[n]]
        # One tree from each of `sample_size` runs of consecutive trees: the
        # cost of an order-11 tree depends far more on the tree than on its
        # numbering, and neighbours in the enumeration cost alike.
        last = by_order[sample_order]
        strata = [
            last[i * len(last) // self.sample_size:(i + 1) * len(last) // self.sample_size]
            for i in range(self.sample_size)
        ]
        rng = random.Random(seed)
        numbering = rng if seed else None
        return [
            full + [graph6_round_trip(sl, tr, renumber(rng.choice(stratum), numbering)) for stratum in strata]
            for _ in range(self.pool_size)
        ]

    def run_pass(self, sl, trees, tr, tally):
        for t in trees:
            tally.run(tr, "deficiency(t, 0)", t, self._sem, sl, tr, t)
            tally.run(tr, "strength", t, self._strength, sl, tr, t)
            tally.run(tr, "find_harmonious", t, self._modular, sl, tr, t,
                      "search.find_harmonious", sl.find_harmonious, sl.verify_harmonious)
            tally.run(tr, "find_sequential", t, self._modular, sl, tr, t,
                      "search.find_sequential", sl.find_sequential, sl.verify_sequential)
            tally.run(tr, "find_alpha_valuation", t, self._alpha, sl, tr, t)

    @staticmethod
    def _sem(sl, tr, t) -> bool:
        with tr.span("search.deficiency") as sp:
            res = sl.deficiency(t, 0)
            sp.tag = "found" if res.kind == "finite" else "none"
        if res.kind != "finite":
            raise WrongVerdict("trees are super edge-magic, got " + res.kind)
        recheck_witness(sl, tr, t, res.witness, 0)
        return True

    @staticmethod
    def _strength(sl, tr, t) -> bool:
        with tr.span("search.strength"):
            value = sl.strength(t)
        if value != t.p + 1:
            raise WrongVerdict(f"strength {value}, known p + 1 = {t.p + 1}")
        return True

    @staticmethod
    def _modular(sl, tr, t, span_name, search, verify) -> bool:
        with tr.span(span_name) as sp:
            labeling = search(t)
            sp.tag = "none" if labeling is None else "found"
        if labeling is None:
            raise WrongVerdict("trees have this labeling (SEM trees), search found none")
        with tr.span("labelings.verify"):
            ok = verify(t, labeling)
        if not ok:
            raise WrongVerdict(f"labeling {labeling.values} fails its verifier")
        return True

    @staticmethod
    def _alpha(sl, tr, t) -> bool:
        with tr.span("search.find_alpha_valuation") as sp:
            labeling = sl.find_alpha_valuation(t)
            sp.tag = "none" if labeling is None else "found"
        if labeling is None:
            # Rosa: every caterpillar has a boundary-valuation.
            if sl.is_caterpillar(t):
                raise WrongVerdict("caterpillar without a boundary-valuation")
            return True
        with tr.span("labelings.verify"):
            boundary = sl.verify_alpha(t, labeling.values)
        if boundary is None:
            raise WrongVerdict(f"labeling {labeling.values} has no boundary")
        return True

    def library_equivalent(self, sl, tr, tally):
        # The engine calls behind `semlab survey-trees`, made directly.
        for n in range(2, self.cli_max_n + 1):
            for t in sl.enumerate_trees(n):
                sl.is_caterpillar(t)
                sl.deficiency(t, 0)
                sl.strength(t)
                sl.find_harmonious(t)
                sl.find_sequential(t)

    def anchors(self, sl, tr, tally):
        pass


class DenseCertify:
    """rho*(7..10), a node-budgeted rho*(11), the infinite-deficiency
    certificate on every K_n minus alpha edges with a JSON re-check, the
    lower-bound witnesses of orders 4..40 (which must not certify), and
    `semlab tables --what l-bounds --n-min 4 --n-max 16 --max-alpha 4`."""

    name = "dense-certify"
    pool_size = 8

    def __init__(self, smoke: bool):
        self.rho_orders = (7, 8) if smoke else (7, 8, 9, 10)
        self.rho_budget_order = 9 if smoke else 11
        self.node_limit = 20_000 if smoke else 1_000_000
        # Every pass certifies K_n minus 1..3 edges for each of these orders;
        # the costly last alpha (enumerate_k_minus(n, 4) costs the same ~3 s
        # for every n) takes one order per pass, in turn.
        self.k_minus_orders = (8,) if smoke else (12, 16)
        self.alphas = (1, 2, 3) if smoke else (1, 2, 3, 4)
        # Many witnesses of smoothly growing cost keep the median task steady.
        self.witness_orders = range(4, 13) if smoke else range(4, 41)
        self.cli_max_n, self.cli_alpha = (8, 2) if smoke else (16, 4)
        self.cli_argv = [
            "tables", "--what", "l-bounds", "--n-min", "4", "--n-max",
            str(self.cli_max_n), "--max-alpha", str(self.cli_alpha),
        ]
        self.cli_expected = f"l-bounds-{self.cli_max_n}-{self.cli_alpha}.csv"

    def setup(self, sl, seed, tr, tally):
        rng = random.Random(seed) if seed else None
        pool = []
        for _ in range(self.pool_size):
            witnesses = []
            for n in self.witness_orders:
                g, labeling = sl.build_lower_bound_witness(n)
                perm = draw_numbering(n, rng)
                labels = [0] * n
                for v, x in enumerate(labeling.values):
                    labels[perm[v]] = x
                witnesses.append((graph6_round_trip(sl, tr, g.relabeled(perm)), tuple(labels)))
            perms = {n: draw_numbering(n, rng) for n in self.k_minus_orders}
            last_order = self.k_minus_orders[len(pool) % len(self.k_minus_orders)]
            pool.append({"witnesses": witnesses, "perms": perms, "last_order": last_order})
        return pool

    def run_pass(self, sl, inputs, tr, tally):
        for n in self.rho_orders:
            tally.run(tr, f"rho_star({n})", None, self._rho, sl, tr, n)
        tally.run(tr, f"rho_star({self.rho_budget_order}) under budget", None,
                  self._rho_budgeted, sl, tr)
        *alphas, last = self.alphas
        cases = [(n, a) for n in self.k_minus_orders for a in alphas]
        for n, alpha in cases + [(inputs["last_order"], last)]:
            tally.run(tr, f"K_{n} minus {alpha} edges", None,
                      self._k_minus, sl, tr, n, alpha, inputs["perms"][n])
        for g, labels in inputs["witnesses"]:
            tally.run(tr, "lower-bound witness", g, self._witness, sl, tr, g, labels)

    @staticmethod
    def _rho(sl, tr, n) -> bool:
        with tr.span("sidon.rho_star", f"n{n}"):
            value = sl.rho_star(n)
        if value != RHO_STAR[n]:
            raise WrongVerdict(f"rho*({n}) = {value}, known {RHO_STAR[n]}")
        return True

    def _rho_budgeted(self, sl, tr) -> bool:
        n = self.rho_budget_order
        with tr.span("sidon.rho_star_budgeted", f"n{n}"):
            try:
                value = sl.rho_star(n, sl.SearchBudget(node_limit=self.node_limit))
            except sl.SearchBudgetExceeded:
                return False
        if value < rho_lower(n) or (n in RHO_STAR and value != RHO_STAR[n]):
            raise WrongVerdict(f"rho*({n}) = {value} breaks the known bound")
        return True

    @staticmethod
    def _k_minus(sl, tr, n, alpha, perm) -> bool:
        """Every class of K_n minus alpha edges, renumbered by `perm`, through
        the certificate; proven only if every class is certified."""
        with tr.span("graphs.enumerate_k_minus") as sp:
            graphs = list(sl.enumerate_k_minus(n, alpha))
            sp.tag = str(len(graphs))
        if len(graphs) != GRAPHS_WITH_Q_EDGES[alpha]:
            raise WrongVerdict(f"{len(graphs)} classes, known {GRAPHS_WITH_Q_EDGES[alpha]}")
        size = n * (n - 1) // 2 - alpha
        certified = 0
        for g in graphs:
            if g.p != n or g.q != size:
                raise WrongVerdict(f"a class has order {g.p} and size {g.q}, not {n} and {size}")
            g = g.relabeled(perm)
            with tr.span("sidon.certify") as sp:
                cert = sl.certify_infinite_deficiency(g)
                sp.tag = "none" if cert is None else "found"
            if cert is not None:
                with tr.span("sidon.recheck"):
                    sl.recheck_infinity_certificate(g, json.loads(cert.to_json()))
                certified += 1
                continue
            # No certificate proves nothing; check only that none was missed.
            with tr.span("sidon.max_clique"):
                omega = len(sl.max_clique(g))
            if omega >= 5 and rho_lower(omega) > g.q:
                raise WrongVerdict(
                    f"edges {list(g.edges)}: clique {omega} with bound "
                    f"{rho_lower(omega)} > size {g.q}, yet no certificate"
                )
        return certified == len(graphs)

    @staticmethod
    def _witness(sl, tr, g, labels) -> bool:
        n = g.p
        if g.q != ((n + 1) // 2) * (n // 2 + 1):
            raise WrongVerdict(f"witness of order {n} has size {g.q}")
        with tr.span("sidon.certify", "witness"):
            cert = sl.certify_infinite_deficiency(g)
        if cert is not None:
            raise WrongVerdict("certified infinite a graph with a finite-deficiency witness")
        isolated = max(labels) - n
        with tr.span("labelings.verify"):
            witness = sl.verify_sem(g, labels, isolated)
        recheck_witness(sl, tr, g, witness, isolated)
        return True

    def library_equivalent(self, sl, tr, tally):
        # The library calls behind `semlab tables --what l-bounds`.
        for n in range(4, self.cli_max_n + 1):
            with tr.span("bounds.l_bracket", f"n{n}"):
                sl.l_bracket(n, max_alpha=self.cli_alpha).as_row()

    def anchors(self, sl, tr, tally):
        pass


WORKLOADS = {w.name: w for w in (PrismDeficiency, TreeSurvey, DenseCertify)}

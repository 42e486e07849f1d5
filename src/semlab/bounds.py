"""Closed-form bounds and bound tables.

Brackets the least size l(n) beyond which every order-n graph has infinite
super edge-magic deficiency: the lower side comes from the constructive
witness in `graphs.build_lower_bound_witness`, the upper side from running
the clique certificate over every graph obtained from K_n by deleting few
edges. Also the density threshold j(alpha) and the prism deficiency table,
whose exact values for even n come from a node-budgeted search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import build_complete, build_prism, enumerate_k_minus
from .search import SearchBudget, deficiency
from .sidon import certify_infinite_deficiency

# Node budget of the search behind each even-n prism row. D4 to D16 take at
# most 2.8M nodes; past D16 the search stops here and the row stays open.
_PRISM_NODE_LIMIT = 3_000_000


def l_lower_bound(n: int) -> int:
    """ceil(n/2) * (floor(n/2) + 1) + 1: sizes below this are witnessed
    finite-deficiency by the constructive labeling, for every n >= 4."""
    if n < 4:
        raise ValueError("lower bound needs n >= 4")
    return ((n + 1) // 2) * (n // 2 + 1) + 1


@dataclass(frozen=True)
class LnBracket:
    """Bracket for l(n), as `l_bracket` computes it."""

    n: int
    lower: int
    upper: int | None
    upper_alpha: int | None
    partial: bool

    def as_row(self) -> dict:
        return {
            "n": self.n,
            "lower": self.lower,
            "upper": "" if self.upper is None else self.upper,
            "upper_alpha": "" if self.upper_alpha is None else self.upper_alpha,
            "status": "partial" if self.partial else "complete",
            "provenance": "lower: witness construction; upper: clique certificates",
        }


def l_bracket(n: int, max_alpha: int = 4) -> LnBracket:
    """Bracket for l(n): the constructive lower bound, and the certified
    upper bound.

    The upper side is the size of K_n minus alpha edges, for the largest
    alpha such that K_n and every graph K_n minus beta edges, beta <= alpha,
    carry an infinite-deficiency certificate. It stops at the first beta
    with an uncertified graph, or, flagged partial, when beta would exceed
    `max_alpha` or the n > 2*beta enumeration hypothesis. `upper` is None
    for n < 5 and when even K_n is uncertified.
    """
    lower = l_lower_bound(n)
    upper = alpha = None
    partial = False
    if n >= 5 and certify_infinite_deficiency(build_complete(n)) is not None:
        alpha = 0
        while (
            alpha < max_alpha
            and n > 2 * (alpha + 1)
            and all(
                certify_infinite_deficiency(g) is not None
                for g in enumerate_k_minus(n, alpha + 1)
            )
        ):
            alpha += 1
        partial = alpha >= max_alpha or n <= 2 * (alpha + 1)
        upper = n * (n - 1) // 2 - alpha
    return LnBracket(
        n=n,
        lower=lower,
        upper=upper,
        upper_alpha=alpha,
        partial=partial,
    )


def j_threshold(alpha: int) -> int:
    """Least order n beyond which every K_n minus alpha edges is certified
    infinite by the clique-versus-size argument.

    Exactly the least integer n with n > (B + sqrt(B^2 - C)) / 2 where
    B = 8*alpha + 9 and C = 16*alpha^2 + 88*alpha + 112; evaluated with
    integer arithmetic.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    b = 8 * alpha + 9
    d = b * b - (16 * alpha * alpha + 88 * alpha + 112)
    root = math.isqrt(d)
    n = (b + root) // 2 + 1
    # Exactness: need (2n - b)^2 > d with 2n - b > 0.
    while 2 * n - b <= 0 or (2 * n - b) ** 2 <= d:
        n += 1
    return n


@dataclass(frozen=True)
class PrismBoundRow:
    """Deficiency bounds for the prism on 2n vertices.

    Odd n: exactly zero. Even n: at most n+1, and `lower` is the proven
    lower bound: the exact value where the search decided, otherwise 1;
    `old_upper` is the previously published 3n/2 - 1 bound (n divisible by
    4 only); `exact` is filled for odd n and for the even n whose search
    finished.
    """

    n: int
    lower: int
    upper: int
    old_upper: int | None
    exact: int | None
    status: str

    def as_row(self) -> dict:
        if self.lower == 0:
            provenance = "odd cycle: exactly zero"
        else:
            provenance = "bracket [1, n+1]; previous bound 3n/2-1 when 4 | n"
            if self.exact is not None:
                provenance += "; exact by search"
        return {
            "n": self.n,
            "lower": self.lower,
            "upper": self.upper,
            "old_upper": "" if self.old_upper is None else self.old_upper,
            "exact": "" if self.exact is None else self.exact,
            "status": self.status,
            "provenance": provenance,
        }


def prism_bounds(n: int) -> PrismBoundRow:
    """Bound row for the prism over C_n. Odd n are exactly deficiency 0;
    even n get the bracket [1, n+1], and the exact value, also as the lower
    bound, when `deficiency` decides it within `_PRISM_NODE_LIMIT` nodes:
    its witness passed `verify_sem` and every smaller count was refuted. A
    search that runs out of nodes leaves the row open."""
    if n < 3:
        raise ValueError("prism needs cycle length >= 3")
    if n % 2 == 1:
        return PrismBoundRow(n, 0, 0, None, 0, "exact")
    old = 3 * n // 2 - 1 if n % 4 == 0 else None
    res = deficiency(build_prism(n), n + 1, SearchBudget(node_limit=_PRISM_NODE_LIMIT))
    return PrismBoundRow(
        n,
        lower=1 if res.value is None else res.value,
        upper=n + 1,
        old_upper=old,
        exact=res.value,
        status="exact" if res.kind == "finite" else "open",
    )

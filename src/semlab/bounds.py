"""Closed-form bounds and bound tables.

Brackets the least size l(n) beyond which every order-n graph has infinite
super edge-magic deficiency: the lower side comes from the constructive
witness in `graphs.build_lower_bound_witness`, the upper side from running
the clique certificate over every graph obtained from K_n by deleting few
edges. Also the density threshold j(alpha) and the prism deficiency table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .graphs import build_complete, enumerate_k_minus
from .sidon import certify_infinite_deficiency


def l_lower_bound(n: int) -> int:
    """ceil(n/2) * (floor(n/2) + 1) + 1: sizes below this are witnessed
    finite-deficiency by the constructive labeling, for every n >= 4."""
    if n < 4:
        raise ValueError("lower bound needs n >= 4")
    return ((n + 1) // 2) * (n // 2 + 1) + 1


@dataclass(frozen=True)
class UpperBoundResult:
    """Certified upper bound for l(n): every graph of order n and size at
    least `size` carries an infinite-deficiency certificate. `alpha` is the
    number of edge deletions covered; `partial` means the enumeration was
    cut off by the feasibility cap rather than by an uncertified graph."""

    size: int
    alpha: int
    partial: bool


def l_upper_bound(n: int, max_alpha: int = 4) -> Optional[UpperBoundResult]:
    """Largest certified-everywhere size range below K_n, or None.

    Checks K_n first (None if even K_n has no certificate), then increases
    the deletion count beta while every member of K_n minus beta edges is
    certified. Stops early, flagged partial, when beta would exceed
    `max_alpha` or the n > 2*beta enumeration hypothesis.
    """
    if n < 5:
        raise ValueError("upper bound needs n >= 5")
    if certify_infinite_deficiency(build_complete(n)) is None:
        return None
    alpha = 0
    partial = False
    beta = 1
    while True:
        if beta > max_alpha or n <= 2 * beta:
            partial = True
            break
        if all(
            certify_infinite_deficiency(g) is not None
            for g in enumerate_k_minus(n, beta)
        ):
            alpha = beta
            beta += 1
        else:
            break
    return UpperBoundResult(size=n * (n - 1) // 2 - alpha, alpha=alpha, partial=partial)


@dataclass(frozen=True)
class LnBracket:
    """Bracket for l(n); `upper` is None when even K_n is uncertified."""

    n: int
    lower: int
    upper: int | None
    upper_alpha: int | None
    partial: bool
    provenance: str

    def as_row(self) -> dict:
        return {
            "n": self.n,
            "lower": self.lower,
            "upper": "" if self.upper is None else self.upper,
            "upper_alpha": "" if self.upper_alpha is None else self.upper_alpha,
            "status": "partial" if self.partial else "complete",
            "provenance": self.provenance,
        }


def l_bracket(n: int, max_alpha: int = 4) -> LnBracket:
    """Assembled bracket row: constructive lower bound, certificate-driven
    upper bound."""
    lower = l_lower_bound(n)
    upper = l_upper_bound(n, max_alpha) if n >= 5 else None
    return LnBracket(
        n=n,
        lower=lower,
        upper=None if upper is None else upper.size,
        upper_alpha=None if upper is None else upper.alpha,
        partial=upper.partial if upper is not None else False,
        provenance="lower: witness construction; upper: clique certificates",
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

    Odd n: exactly zero. Even n: at least 1 and at most n+1; `old_upper`
    is the previously published 3n/2 - 1 bound (n divisible by 4 only);
    `exact` is filled for n = 4 and for injected search results.
    """

    n: int
    lower: int
    upper: int
    old_upper: int | None
    exact: int | None
    status: str

    def as_row(self) -> dict:
        return {
            "n": self.n,
            "lower": self.lower,
            "upper": self.upper,
            "old_upper": "" if self.old_upper is None else self.old_upper,
            "exact": "" if self.exact is None else self.exact,
            "status": self.status,
        }


def prism_bounds(n: int) -> PrismBoundRow:
    """Bound row for the prism over C_n. Odd n are exactly deficiency 0;
    even n get the bracket [1, n+1], with the known value 5 at n = 4."""
    if n < 3:
        raise ValueError("prism needs cycle length >= 3")
    if n % 2 == 1:
        return PrismBoundRow(n, 0, 0, None, 0, "exact")
    old = 3 * n // 2 - 1 if n % 4 == 0 else None
    known = 5 if n == 4 else None
    return PrismBoundRow(
        n,
        lower=1,
        upper=n + 1,
        old_upper=old,
        exact=known,
        status="exact" if known is not None else "open",
    )

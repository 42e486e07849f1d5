"""The labeling value type and pure verifiers.

Covers every labeling notion the library searches for: super edge-magic
(via the consecutive-edge-sums criterion), gap of an integer set, strength
of a numbering, graceful labelings and their boundary variant, harmonious
and sequential labelings.

All functions here are pure and all types immutable; unrestricted
concurrent use is safe.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import Graph, is_tree


class LabelingError(ValueError):
    """A labeling violates a structural precondition."""


class NotBijectiveError(LabelingError):
    """Labels are not a bijection onto the required interval."""


class DuplicateSumsError(LabelingError):
    """Two edges induce the same endpoint sum."""


class NonConsecutiveSumsError(LabelingError):
    """Edge sums are duplicate-free but do not form a consecutive run."""


@dataclass(frozen=True)
class Labeling:
    """Vertex labels, stored as values[v]. Every notion here uses labels
    >= 0; its verifier checks the range and the repeats it allows.
    `boundary` is the split value of a boundary-valuation (every edge has
    its smaller endpoint label <= boundary and its larger one > boundary),
    and None for every other labeling."""

    values: tuple[int, ...]
    boundary: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if any(x < 0 for x in self.values):
            raise LabelingError("labels must be >= 0")


Labels = "Sequence[int] | Labeling"


def label_domain(g: Graph, kind: str) -> tuple[int, int]:
    """(top, repeats) of a `kind` labeling of g: its labels lie in
    [0, top], and `repeats` of them may be used twice.

    graceful: [0, q], injective. harmonious: the residues [0, q-1]; a tree
    has one vertex more than residues, so it may repeat one label.
    sequential: [0, q-1], injective; a tree also gets the label q.
    """
    if kind == "graceful":
        return g.q, 0
    tree = is_tree(g)
    if kind == "harmonious":
        return g.q - 1, int(tree)
    if kind == "sequential":
        return (g.q if tree else g.q - 1), 0
    raise ValueError(f"unknown labeling kind {kind!r}")


def _values(f: Labels) -> tuple[int, ...]:
    return f.values if isinstance(f, Labeling) else tuple(f)


def _checked(g: Graph, f: Labels, kind: str | None = None) -> tuple[int, ...]:
    """The labels of f, which must cover the p vertices of g; with `kind`,
    the vertex labels must also keep to its `label_domain`."""
    vals = _values(f)
    if len(vals) < g.p:
        raise LabelingError(f"labeling covers {len(vals)} of {g.p} vertices")
    if kind is not None:
        top, allowed = label_domain(g, kind)
        if any(not 0 <= x <= top for x in vals[: g.p]):
            raise LabelingError(f"{kind} labels must lie in [0, {top}]")
        repeats = g.p - len(set(vals[: g.p]))
        if repeats > allowed:
            raise LabelingError(
                f"{kind} labels repeat {repeats} times, at most {allowed} allowed"
            )
    return vals


def sum_set(g: Graph, f: Labels) -> tuple[int, ...]:
    """Sorted multiset of the q edge sums f(u) + f(v)."""
    vals = _checked(g, f)
    return tuple(sorted(vals[u] + vals[v] for u, v in g.edges))


def gap(s: Iterable[int]) -> int:
    """(max - min + 1) - |s| for a nonempty duplicate-free set of integers."""
    items = list(s)
    if not items:
        raise ValueError("gap is undefined for the empty set")
    if len(set(items)) != len(items):
        raise ValueError("gap is defined on sets; duplicates present")
    return (max(items) - min(items) + 1) - len(items)


def is_consecutive(s: Iterable[int]) -> bool:
    """True iff the set is a run of consecutive integers (gap zero)."""
    return gap(s) == 0


# JSON type per certificate field annotation, a string under postponed annotations.
_JSON_TYPES = {"int": int, "str": str, "tuple[int, ...]": list}


class Certificate:
    """Strict JSON codec for a frozen dataclass certificate: one key per
    field, in declaration order, and a tuple field as a list of ints.
    Parsing takes only JSON integers for numbers (a bool or a float does not
    count) and raises the class's `error`."""

    error: type[ValueError] = LabelingError

    @classmethod
    def _json_types(cls) -> dict[str, type]:
        return {f.name: _JSON_TYPES[f.type] for f in dataclasses.fields(cls)}

    def to_json_dict(self) -> dict:
        return {
            key: list(getattr(self, key)) if kind is list else getattr(self, key)
            for key, kind in self._json_types().items()
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data):
        fields = cls._json_types()
        if not isinstance(data, dict) or data.keys() != fields.keys():
            got = sorted(map(str, data)) if isinstance(data, dict) else type(data).__name__
            raise cls.error(
                f"malformed certificate: keys must be exactly {sorted(fields)}, got {got}"
            )
        for key, kind in fields.items():
            value = data[key]
            if type(value) is not kind or (
                kind is list and any(type(x) is not int for x in value)
            ):
                want = "a list of integers" if kind is list else f"of type {kind.__name__}"
                raise cls.error(f"malformed certificate: {key!r} must be {want}, got {value!r}")
        return cls(**{
            key: tuple(data[key]) if kind is list else data[key]
            for key, kind in fields.items()
        })


@dataclass(frozen=True)
class SemCertificate(Certificate):
    """Checkable witness that a graph plus `isolated` extra vertices is
    super edge-magic: a bijective labeling onto [1, order+isolated] whose
    edge sums are the consecutive run [s, s+q-1], with magic constant
    k = (order+isolated) + q + s."""

    order: int
    isolated: int
    labels: tuple[int, ...]
    sums: tuple[int, ...]
    s: int
    k: int


def verify_sem(g: Graph, f: Labels, isolated_count: int = 0) -> SemCertificate:
    """Check the consecutive-sums criterion and build the certificate.

    `f` must label the p graph vertices (optionally followed by labels for
    the isolated vertices); all together the labels must be a bijection onto
    [1, p + isolated_count]; when only the graph vertices are labelled the
    leftover labels go to the isolated vertices in ascending order.

    Raises NotBijectiveError / DuplicateSumsError / NonConsecutiveSumsError
    so callers can tell the failure modes apart.
    """
    if isolated_count < 0:
        raise ValueError("isolated_count must be >= 0")
    vals = _values(f)
    total = g.p + isolated_count
    if len(vals) not in (g.p, total):
        raise NotBijectiveError(
            f"expected labels for {g.p} or {total} vertices, got {len(vals)}"
        )
    if len(set(vals)) != len(vals) or any(not 1 <= x <= total for x in vals):
        raise NotBijectiveError(f"labels are not injective into [1, {total}]")
    # The labels left over, ascending, make the injection a bijection.
    full = vals + tuple(sorted(set(range(1, total + 1)) - set(vals)))
    sums = sum_set(g, vals[: g.p])
    if g.q == 0:
        return SemCertificate(g.p, isolated_count, full, (), 0, total)
    if len(set(sums)) != len(sums):
        raise DuplicateSumsError(f"duplicate edge sums in {sums}")
    lo, hi = sums[0], sums[-1]
    if hi - lo + 1 != g.q:
        raise NonConsecutiveSumsError(
            f"edge sums span [{lo}, {hi}] but there are only {g.q} edges"
        )
    s = lo
    k = total + g.q + s
    return SemCertificate(g.p, isolated_count, full, sums, s, k)


def recheck_sem_certificate(g: Graph, data: dict) -> SemCertificate:
    """Independently re-validate a serialized certificate against a graph.

    Recomputes everything from the labels and the graph; any field that
    disagrees is an error. No search code is involved.
    """
    cert = SemCertificate.from_json_dict(data)
    if cert.order != g.p:
        raise LabelingError(f"certificate order {cert.order} != graph order {g.p}")
    if len(cert.labels) != g.p + cert.isolated:
        raise NotBijectiveError(
            f"certificate carries {len(cert.labels)} labels for "
            f"{g.p} + {cert.isolated} vertices"
        )
    rebuilt = verify_sem(g, cert.labels, cert.isolated)
    if rebuilt.sums != cert.sums:
        raise LabelingError(
            f"stored sums {cert.sums} differ from recomputed {rebuilt.sums}"
        )
    if rebuilt.s != cert.s or rebuilt.k != cert.k:
        raise LabelingError(
            f"stored (s, k) = ({cert.s}, {cert.k}) differ from recomputed "
            f"({rebuilt.s}, {rebuilt.k})"
        )
    return rebuilt


def strength_of_numbering(g: Graph, f: Labels) -> int:
    """Maximum edge sum under a bijective numbering onto [1, p]."""
    if g.q == 0:
        raise ValueError("strength is undefined for edgeless graphs")
    vals = _values(f)
    if sorted(vals) != list(range(1, g.p + 1)):
        raise NotBijectiveError("numbering must be a bijection onto [1, p]")
    return max(vals[u] + vals[v] for u, v in g.edges)


def verify_graceful(g: Graph, f: Labels) -> bool:
    """True iff the injective labeling into [0, q] induces the edge
    differences {1, ..., q} exactly."""
    vals = _checked(g, f, "graceful")
    diffs = sorted(abs(vals[u] - vals[v]) for u, v in g.edges)
    return diffs == list(range(1, g.q + 1))


def verify_alpha(g: Graph, f: Labels) -> int | None:
    """Boundary value of a graceful labeling, or None.

    Returns the least lambda with min{f(u), f(v)} <= lambda < max{f(u), f(v)}
    on every edge, if the (required graceful) labeling admits one.
    """
    if not verify_graceful(g, f):
        raise LabelingError("boundary check requires a graceful labeling")
    vals = _values(f)
    if g.q == 0:
        return None
    lo = max(min(vals[u], vals[v]) for u, v in g.edges)
    hi = min(max(vals[u], vals[v]) for u, v in g.edges)
    return lo if lo < hi else None


def verify_harmonious(g: Graph, f: Labels) -> bool:
    """True iff the labels, taken modulo q, induce pairwise distinct edge
    sums modulo q, within the harmonious `label_domain`."""
    if g.q == 0:
        raise ValueError("harmonious labelings need at least one edge")
    vals = _checked(g, f, "harmonious")
    residues = [(vals[u] + vals[v]) % g.q for u, v in g.edges]
    return len(set(residues)) == g.q


def verify_sequential(g: Graph, f: Labels) -> bool:
    """True iff the labels, within the sequential `label_domain`, give q
    consecutive integer edge sums."""
    if g.q == 0:
        raise ValueError("sequential labelings need at least one edge")
    vals = _checked(g, f, "sequential")
    sums = sorted(vals[u] + vals[v] for u, v in g.edges)
    if len(set(sums)) != g.q:
        return False
    return sums[-1] - sums[0] + 1 == g.q

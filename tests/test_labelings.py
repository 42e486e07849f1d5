"""Labeling verifiers: sums, gaps, certificates, strength, graceful,
harmonious, sequential."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from semlab.graphs import Graph, build_cycle, build_path, build_star
from semlab.labelings import (
    DuplicateSumsError,
    Labeling,
    LabelingError,
    NonConsecutiveSumsError,
    NotBijectiveError,
    SemCertificate,
    gap,
    is_consecutive,
    label_domain,
    recheck_sem_certificate,
    strength_of_numbering,
    sum_set,
    verify_alpha,
    verify_graceful,
    verify_harmonious,
    verify_sem,
    verify_sequential,
)

K2 = Graph(2, [(0, 1)])


class TestSumSet:
    def test_c3(self):
        assert sum_set(build_cycle(3), [1, 2, 3]) == (3, 4, 5)

    def test_c4_with_duplicates(self):
        assert sum_set(build_cycle(4), [1, 2, 3, 4]) == (3, 5, 5, 7)

    def test_k1_empty(self):
        assert sum_set(Graph(1, []), [1]) == ()

    def test_missing_vertex_value(self):
        with pytest.raises(LabelingError):
            sum_set(build_cycle(3), [1, 2])


class TestGap:
    @pytest.mark.parametrize(
        "s,expected", [({3, 4, 5}, 0), ({1, 2, 5}, 2), ({7}, 0), ({3, 4, 5, 6}, 0)]
    )
    def test_examples(self, s, expected):
        assert gap(s) == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gap([])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            gap([1, 1, 2])

    @pytest.mark.parametrize("s,expected", [({3, 4, 5, 6}, True), ({3, 5}, False), ({9}, True)])
    def test_is_consecutive(self, s, expected):
        assert is_consecutive(s) == expected

    @settings(max_examples=200)
    @given(st.sets(st.integers(-50, 50), min_size=1, max_size=12))
    def test_gap_zero_iff_consecutive(self, s):
        items = sorted(s)
        truly = items == list(range(items[0], items[0] + len(items)))
        assert is_consecutive(s) == truly
        assert (gap(s) == 0) == truly


class TestLabelShiftAndBijection:
    @settings(max_examples=100)
    @given(
        st.lists(st.integers(1, 60), min_size=3, max_size=6, unique=True),
        st.integers(1, 40),
    )
    def test_shift_moves_sums_keeps_gap(self, labels, c):
        g = build_cycle(len(labels))
        base = sum_set(g, labels)
        shifted = sum_set(g, [x + c for x in labels])
        assert shifted == tuple(s + 2 * c for s in base)
        if len(set(base)) == len(base):
            assert gap(set(shifted)) == gap(set(base))

    def test_injectivity_enforced(self):
        # The verifier, not the value type, enforces a bijection onto [1, p].
        with pytest.raises(NotBijectiveError):
            verify_sem(build_path(3), Labeling((1, 1, 2)))
        with pytest.raises(NotBijectiveError):
            verify_sem(K2, Labeling((0, 1)))


class TestVerifySem:
    def test_c3_certificate(self):
        cert = verify_sem(build_cycle(3), [1, 2, 3])
        assert (cert.s, cert.k) == (3, 9)
        assert cert.sums == (3, 4, 5)

    def test_c4_plus_isolate(self):
        cert = verify_sem(build_cycle(4), [1, 3, 2, 5], 1)
        assert cert.sums == (4, 5, 6, 7)
        assert cert.labels == (1, 3, 2, 5, 4)
        assert cert.k == 5 + 4 + 4

    def test_c4_duplicate_sums(self):
        with pytest.raises(DuplicateSumsError):
            verify_sem(build_cycle(4), [1, 2, 3, 4])

    def test_non_consecutive(self):
        with pytest.raises(NonConsecutiveSumsError):
            verify_sem(build_path(3), [1, 2, 4], 1)

    def test_not_bijective(self):
        with pytest.raises(NotBijectiveError):
            verify_sem(build_cycle(3), [1, 2, 5])
        with pytest.raises(NotBijectiveError):
            verify_sem(build_cycle(3), [1, 2])

    def test_interval_identity(self):
        # The sums equal [k - (P + q), k - (P + 1)] with P = order + isolated.
        for g, labels, iso in [
            (build_cycle(3), [1, 2, 3], 0),
            (build_cycle(4), [1, 3, 2, 5], 1),
            (build_star(3), [1, 2, 3, 4], 0),
        ]:
            cert = verify_sem(g, labels, iso)
            total = cert.order + cert.isolated
            assert cert.sums == tuple(
                range(cert.k - (total + g.q), cert.k - (total + 1) + 1)
            )

    def test_edgeless_graph(self):
        cert = verify_sem(Graph(3, []), [2, 1, 3])
        assert cert.sums == ()
        assert cert.k == 3

    def test_full_labeling_accepted(self):
        cert = verify_sem(build_cycle(4), [1, 3, 2, 5, 4], 1)
        assert cert.labels == (1, 3, 2, 5, 4)


class TestCertificateSerialization:
    def test_round_trip(self):
        cert = verify_sem(build_cycle(3), [1, 2, 3])
        data = json.loads(cert.to_json())
        assert list(data) == ["order", "isolated", "labels", "sums", "s", "k"]
        assert SemCertificate.from_json_dict(data) == cert

    def test_json_keys_are_the_fields_in_order(self):
        data = verify_sem(build_cycle(4), [1, 3, 2, 5], 1).to_json_dict()
        assert list(data) == [f.name for f in dataclasses.fields(SemCertificate)]

    def test_recheck_accepts(self):
        g = build_cycle(4)
        cert = verify_sem(g, [1, 3, 2, 5], 1)
        assert recheck_sem_certificate(g, cert.to_json_dict()) == cert

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda d: d.update(k=d["k"] + 1),
            lambda d: d.update(s=d["s"] - 1),
            lambda d: d.update(sums=[d["sums"][0] - 1] + d["sums"][1:]),
            lambda d: d.update(labels=[d["labels"][0]] * len(d["labels"])),
            lambda d: d.update(isolated=d["isolated"] + 1),
            lambda d: d.update(order=d["order"] + 1),
            lambda d: d.pop("labels"),
        ],
    )
    def test_recheck_rejects_corruption(self, mutation):
        g = build_cycle(4)
        data = verify_sem(g, [1, 3, 2, 5], 1).to_json_dict()
        mutation(data)
        with pytest.raises(LabelingError):
            recheck_sem_certificate(g, data)

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda d: d.update(k=float(d["k"])),
            lambda d: d.update(s=str(d["s"])),
            lambda d: d.update(order=True),
            lambda d: d.update(isolated=d["isolated"] + 0.0),
            lambda d: d.update(labels=[float(x) for x in d["labels"]]),
            lambda d: d.update(sums=[str(x) for x in d["sums"]]),
            lambda d: d.update(labels=tuple(d["labels"])),
            lambda d: d.update(extra=1),
        ],
    )
    def test_parse_is_strict(self, mutation):
        g = build_cycle(4)
        data = verify_sem(g, [1, 3, 2, 5], 1).to_json_dict()
        recheck_sem_certificate(g, data)
        mutation(data)
        with pytest.raises(LabelingError):
            recheck_sem_certificate(g, data)


class TestStrengthOfNumbering:
    def test_k2(self):
        assert strength_of_numbering(K2, [1, 2]) == 3

    def test_c3_any_numbering(self):
        assert strength_of_numbering(build_cycle(3), [2, 3, 1]) == 5

    def test_star_with_low_centre(self):
        assert strength_of_numbering(build_star(3), [1, 2, 3, 4]) == 5

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            strength_of_numbering(Graph(2, []), [1, 2])

    def test_non_bijection_rejected(self):
        with pytest.raises(NotBijectiveError):
            strength_of_numbering(K2, [1, 3])

    @settings(max_examples=80)
    @given(st.permutations(list(range(1, 6))))
    def test_at_least_three(self, perm):
        assert strength_of_numbering(build_cycle(5), perm) >= 3


class TestGraceful:
    def test_k2(self):
        assert verify_graceful(K2, [0, 1])

    def test_c4_example(self):
        assert verify_graceful(build_cycle(4), [0, 2, 1, 4])

    def test_c3_bad_diffs(self):
        assert not verify_graceful(build_cycle(3), [0, 1, 2])

    def test_out_of_range_rejected(self):
        with pytest.raises(LabelingError):
            verify_graceful(K2, [0, 2])

    def test_alpha_path(self):
        assert verify_alpha(build_path(3), [0, 2, 1]) == 1

    def test_alpha_c4(self):
        assert verify_alpha(build_cycle(4), [0, 2, 1, 4]) == 1

    def test_alpha_k2(self):
        assert verify_alpha(K2, [0, 1]) == 0

    def test_alpha_requires_graceful(self):
        with pytest.raises(LabelingError):
            verify_alpha(build_cycle(3), [0, 1, 2])

    def test_graceful_without_boundary(self):
        # C3 with 0-1-3 is graceful (diffs 1, 2, 3) but odd cycles cannot
        # split every edge across one boundary.
        labels = [0, 1, 3]
        g = build_cycle(3)
        assert verify_graceful(g, labels)
        assert verify_alpha(g, labels) is None


class TestHarmonious:
    def test_c3(self):
        assert verify_harmonious(build_cycle(3), (0, 1, 2))

    def test_tree_repeat_allowed(self):
        assert verify_harmonious(build_path(3), (0, 1, 1))

    def test_tree_collision(self):
        assert not verify_harmonious(build_path(3), (0, 1, 0))

    def test_allowance_must_match(self):
        # The verifier derives the repeat allowance from the graph:
        # a tree may repeat one label, any other graph none.
        with pytest.raises(LabelingError):
            verify_harmonious(build_cycle(3), (0, 0, 1))
        assert verify_harmonious(build_path(4), (0, 1, 1, 2))

    def test_residue_out_of_range(self):
        with pytest.raises(LabelingError):
            verify_harmonious(build_cycle(3), (0, 1, 3))

    def test_repeat_allowance_validated_in_type(self):
        # The type checks only that labels are >= 0; repeats beyond the
        # graph's allowance are refused by the verifier.
        with pytest.raises(LabelingError):
            Labeling((0, -1, 1))
        with pytest.raises(LabelingError):
            verify_harmonious(build_path(4), (0, 0, 1, 1))


class TestSequential:
    def test_k2(self):
        assert verify_sequential(K2, (0, 1))

    def test_p3_gap(self):
        assert not verify_sequential(build_path(3), (0, 1, 2))

    def test_p3_good(self):
        assert verify_sequential(build_path(3), (1, 0, 2))

    def test_injective_required(self):
        with pytest.raises(LabelingError):
            verify_sequential(build_path(3), (0, 1, 1))

    def test_tree_top_label_allowed(self):
        # Order-3 path: labels live in [0, 2] = [0, q] because p = q + 1.
        assert verify_sequential(build_path(3), (1, 0, 2))

    def test_non_tree_top_label_rejected(self):
        with pytest.raises(LabelingError):
            verify_sequential(build_cycle(4), (0, 1, 2, 4))

    def test_sequential_implies_harmonious_mod_q(self):
        # Reducing a sequential labeling mod q gives a harmonious one.
        cases = [
            (build_path(3), (1, 0, 2)),
            (K2, (0, 1)),
            (build_cycle(3), (0, 1, 2)),
            (build_star(3), (0, 1, 2, 3)),
        ]
        for g, labels in cases:
            if not verify_sequential(g, labels):
                continue
            reduced = tuple(x % g.q for x in labels)
            assert verify_harmonious(g, reduced)


class TestLabelingFieldsAndGracefulInjectivity:
    def test_boundary_field(self):
        f = Labeling((0, 2, 1, 4), 1)
        assert f.boundary == 1
        assert Labeling([0, 2]).values == (0, 2)

    def test_injective(self):
        # The verifier, not the value type, enforces injectivity.
        with pytest.raises(LabelingError):
            verify_graceful(build_path(3), Labeling((0, 0, 1)))


class TestLabelDomain:
    def test_domains(self):
        # P4 is a tree (q = 3, one vertex more than residues); C4 is not.
        p4, c4 = build_path(4), build_cycle(4)
        assert [label_domain(p4, k) for k in ("graceful", "harmonious", "sequential")] == [
            (3, 0), (2, 1), (3, 0)
        ]
        assert [label_domain(c4, k) for k in ("graceful", "harmonious", "sequential")] == [
            (4, 0), (3, 0), (3, 0)
        ]
        with pytest.raises(ValueError):
            label_domain(p4, "sem")

    def test_verifiers_take_any_label_sequence(self):
        # A tuple and a Labeling of the same values get the same verdict or
        # the same exception class from every verifier.
        verifiers = (sum_set, verify_graceful, verify_alpha, verify_harmonious, verify_sequential)

        def outcome(verify, g, f):
            try:
                return verify(g, f)
            except Exception as exc:
                return type(exc)

        cases = 0
        for g in oracles.atlas_graphs(5):
            if not g.q:
                continue
            found = (oracles.brute_alpha(g), oracles.brute_harmonious(g), oracles.brute_sequential(g))
            base = tuple(range(g.p))
            tuples = [tuple(t) for t in found if t is not None] + [
                (1,) + base[1:],  # label 1 repeated
                base[:-1] + (g.q + 1,),  # above every domain
                base[:-1],  # one vertex short
            ]
            for t in tuples:
                for verify in verifiers:
                    assert outcome(verify, g, t) == outcome(verify, g, Labeling(t)), (g.edges, t)
                    cases += 1
        assert cases > 600

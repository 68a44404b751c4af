import math
from fractions import Fraction

import pytest

from enriques_gw.gw_engine import enriques_genus1, n1_fiber, n2_fiber
from enriques_gw.km_model import (
    KMConvention,
    _index_of,
    box_verdict_groups,
    compare_engine_vs_km,
    km_f56_check,
    km_fiber_prediction,
    km_verdicts,
)
from enriques_gw.lattice import LatticeVector, basis_vector, divisibility, square
from enriques_gw.sweeps import genus1_box_rows

V1 = basis_vector(1)
V2 = basis_vector(2)
ROOT = LatticeVector((0, 0, 1, 0, 0, 0, 0, 0, 0, 0))


def test_prediction_matches_engine_on_sample_classes():
    for beta in (V1, 3 * V1, V1 + V2, 2 * V1 + V2, V1 + V2 + ROOT, 2 * (V1 + V2)):
        assert km_fiber_prediction(1, beta, KMConvention.FULL) == n1_fiber(beta)
        assert km_fiber_prediction(2, beta, KMConvention.FULL) == n2_fiber(beta)


def test_half_convention_splits_by_square():
    # both conventions read the same index on isotropic classes
    assert km_fiber_prediction(1, V1, "half") == n1_fiber(V1) == 8
    # on positive squares they disagree at genus 1
    beta = V1 + V2
    full = km_fiber_prediction(1, beta, "full")
    half = km_fiber_prediction(1, beta, "half")
    assert full == 128
    assert half != full


def test_string_convention_coercion():
    assert km_fiber_prediction(1, V1, "FULL") == km_fiber_prediction(1, V1, KMConvention.FULL)
    with pytest.raises(ValueError):
        km_fiber_prediction(1, V1, "both")


def test_imprimitive_divisor_sum():
    # div(2*v1) = 2 brings the correction term into play
    assert km_fiber_prediction(1, 2 * V1, KMConvention.FULL) == n1_fiber(2 * V1) == 8
    assert km_fiber_prediction(1, 4 * V1, KMConvention.FULL) == n1_fiber(4 * V1)


def test_genus2_isotropic_vanishing_both_conventions():
    for n in range(1, 11):
        for conv in ("full", "half"):
            assert km_fiber_prediction(2, n * V1, conv) == 0
        assert n2_fiber(n * V1) == 0


def test_prediction_input_validation():
    with pytest.raises(ValueError, match="genus"):
        km_fiber_prediction(0, V1, "full")
    with pytest.raises(ValueError, match="genus"):
        km_fiber_prediction(3, V1, "full")
    with pytest.raises(ValueError, match="positive"):
        km_fiber_prediction(1, LatticeVector((0,) * 10), "full")
    with pytest.raises(ValueError, match="positive"):
        km_fiber_prediction(1, -1 * V1, "full")


def test_order_must_cover_requested_index():
    beta = 2 * V1 + V2  # square 4
    assert km_fiber_prediction(1, beta, "full", order=5) == n1_fiber(beta)
    with pytest.raises(ValueError, match="truncated"):
        km_fiber_prediction(1, beta, "full", order=2)


def test_index_halving():
    assert _index_of(4, KMConvention.FULL) == 4
    assert _index_of(4, KMConvention.HALF) == 2
    with pytest.raises(ValueError):
        _index_of(3, KMConvention.HALF)


def test_f56_relation_prefers_full_indexing():
    for beta in (V1 + V2, 2 * V1 + V2, 2 * (V1 + V2)):
        report_full = km_f56_check(beta, "full")
        report_half = km_f56_check(beta, "half")
        assert report_full["holds"]
        assert not report_half["holds"]
        assert report_full["convention"] == "full"
        assert report_full["square"] == report_half["square"]
        assert Fraction(report_full["lhs"]) == Fraction(report_full["rhs"])


def test_f56_requires_positive_square():
    with pytest.raises(ValueError, match="square"):
        km_f56_check(V1, "full")


def test_comparison_report_schema():
    report = compare_engine_vs_km(2, V1 + V2)
    assert report["class"] == [1, 1, 0, 0, 0, 0, 0, 0, 0, 0]
    assert report["genus"] == 2
    assert report["engine_value"] == "-16"
    assert report["prediction_full"] == "-16"
    assert report["verdicts"]["full"] == "match"
    assert report["verdicts"]["half"] == "mismatch"
    with pytest.raises(ValueError):
        compare_engine_vs_km(3, V1)
    with pytest.raises(ValueError):
        compare_engine_vs_km(1, LatticeVector((0,) * 10))


def test_bulk_verdicts_match_per_class_reports():
    classes = (V1, 3 * V1, V1 + V2, 2 * V1 + V2, V1 + V2 + ROOT, 2 * (V1 + V2))
    # one group per class, its divisibility from math.gcd on ints
    groups = [(square(beta), math.gcd(*beta.coords), enriques_genus1(beta, memo={}), [beta.coords])
              for beta in classes]
    verdicts, counts, consistency = km_verdicts(groups, 16)
    assert len(verdicts) == len(classes)
    for beta in classes:
        assert len(verdicts[beta.coords]) == 4
        for g in (1, 2):
            report = compare_engine_vs_km(g, beta)
            for conv in ("full", "half"):
                assert verdicts[beta.coords][g, conv] == report["verdicts"][conv]
    for (g, conv), c in counts.items():
        assert c["match"] + c["mismatch"] == len(classes)
        assert c["match"] == sum(verdicts[b.coords][g, conv] == "match" for b in classes)
    assert consistency == {"full": True, "half": False}


def test_bulk_verdicts_of_a_group_hold_for_each_member():
    # a group of two members gets each member's per-class verdicts and
    # counts twice; a second group of the same square and divisibility
    # reads the same prediction with another <1>
    members = [V1 + V2, 2 * V1 + V2 + ROOT]
    assert {(square(b), math.gcd(*b.coords)) for b in members} == {(2, 1)}
    value = enriques_genus1(members[0], memo={})
    assert enriques_genus1(members[1], memo={}) == value
    other = 2 * V1 + V2 - ROOT
    assert (square(other), math.gcd(*other.coords)) == (2, 1)
    groups = [(2, 1, value, [b.coords for b in members]), (2, 1, value + 1, [other.coords])]
    verdicts, counts, _ = km_verdicts(groups, 16)
    assert len(verdicts) == 3
    for beta in members:
        report = compare_engine_vs_km(1, beta)
        assert verdicts[beta.coords][1, "full"] == report["verdicts"]["full"] == "match"
    assert verdicts[other.coords][1, "full"] == "mismatch"
    assert counts[1, "full"] == {"match": 2, "mismatch": 1}
    with pytest.raises(TypeError):
        verdicts[members[0].coords][1, "full"] = "mismatch"


def test_box_verdict_groups_equal_a_row_walk_grouped_by_divisibility():
    # a norm-8 box with even b1 and b2: its 2 * roots have divisibility 2
    # in the slices (0, 2) and (2, 2), and 1 beside b1 = 1.  The groups,
    # merged by (slice, square, <1>, divisibility), must equal the rows
    # grouped so, each row's square, <1> and divisibility its own
    box = (2, 2, 8)
    rows = list(genus1_box_rows(*box))
    want = {}
    for c, s, value in rows:
        want.setdefault((c[:2], s, value, divisibility(c)), []).append(c)
    assert sum(d == 2 for *_, d in want) > 0
    position = {c: i for i, (c, *_) in enumerate(rows)}
    got, n = {}, 0
    for s, div, value, members in box_verdict_groups(*box):
        n += len(members)
        assert sorted(members, key=position.__getitem__) == members
        got.setdefault((members[0][:2], s, value, div), []).extend(members)
    for members in got.values():
        members.sort(key=position.__getitem__)
    assert n == len(rows)
    assert got == want

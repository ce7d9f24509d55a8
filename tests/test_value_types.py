"""The library's value types are NamedTuples (``CheckResult``, the one
mutable record, is a ``__slots__`` class): their field order, pickling,
checked constructors and tuple behaviour."""

import pickle

import pytest

from lpmpoly import (
    BorderStrip,
    Box,
    ComponentPartition,
    DecompositionNode,
    EhrhartPolynomial,
    Facet,
    HRepresentation,
    IntervalPresentation,
    LinearConstraint,
    SimplexCell,
    catalan_region,
    count_lattice_points,
    decomposition_tree,
    ehrhart_polynomial,
    facets,
    hypersimplex_triangulation,
    presentation,
    region_from_words,
)
from lpmpoly.decompose import SplitResult
from lpmpoly.ehrhart import GammaBounds, ReconcileReport, ReconcileRow
from lpmpoly.oracle import all_regions
from lpmpoly.verify import CheckResult, ErrataRow, GoodPartition, build_errata_report

# The field order each type had as a dataclass: the benchmark's answer
# digest and the ``lpm`` JSON read the fields in this order.
FIELDS = {
    SimplexCell: ("perm", "vertices", "vertices_lifted", "det"),
    Facet: ("constraint", "tight", "kind", "position"),
    LinearConstraint: ("coeffs", "rel", "rhs"),
    HRepresentation: ("equalities", "inequalities"),
    GoodPartition: ("e1", "e2", "r1", "r2", "a1", "a2"),
    SplitResult: ("left", "right", "split"),
    GammaBounds: ("a", "b"),
    ReconcileRow: ("t", "formula_value", "true_value"),
    ReconcileReport: ("region", "rows"),
    ErrataRow: ("claim", "stated", "computed", "verdict"),
    ComponentPartition: ("blocks",),
    BorderStrip: ("boxes",),
    IntervalPresentation: ("intervals",),
    DecompositionNode: ("region", "split", "children"),
    EhrhartPolynomial: ("coeffs",),
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_value_type_keeps_its_field_order(cls):
    assert issubclass(cls, tuple)
    assert cls._fields == FIELDS[cls]


def test_check_result_keeps_its_constructor_and_record():
    res = CheckResult("name", False, 3, ["a"])
    assert (res.name, res.ok, res.checked, res.failures) == ("name", False, 3, ["a"])
    res = CheckResult("name", failures=["a"])
    res.fail("b")
    assert res == CheckResult("name", False, 0, ["a", "b"])
    assert res != CheckResult("name", False, 0, ["a"])
    assert repr(res) == "CheckResult(name='name', ok=False, checked=0, failures=['a', 'b'])"
    assert CheckResult("x").failures is not CheckResult("x").failures


@pytest.mark.parametrize(
    "value",
    [
        CheckResult("facets-vs-oracle", False, 12, ["mismatch on a region"]),
        build_errata_report(max_size=3, t_max=1, formula_max=3)[0],
        hypersimplex_triangulation(2, 5)[-1],
        decomposition_tree(region_from_words("EEENNN", "NNNEEE")),
    ],
    ids=lambda value: type(value).__name__,
)
def test_value_pickles_back(value):
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value)
    assert back == value and repr(back) == repr(value)


@pytest.mark.parametrize(
    "intervals,message",
    [
        (((1, 2), (4, 3)), "empty interval"),
        (((1, 3), (1, 4)), "strictly increasing"),
        (((1, 4), (2, 4)), "strictly increasing"),
    ],
)
def test_interval_presentation_checks_its_intervals(intervals, message):
    with pytest.raises(ValueError, match=message):
        IntervalPresentation(intervals)


def test_presentation_builds_what_the_checked_constructor_accepts():
    for region in all_regions(6):
        pres = presentation(region)
        assert IntervalPresentation(pres.intervals) == pres


def test_border_strip_len_is_its_box_count():
    strip = BorderStrip((Box(1, 1), Box(2, 1), Box(2, 2)))
    assert len(strip) == 3 and len(BorderStrip(())) == 0
    assert tuple(strip) == (strip.boxes,)
    assert pickle.loads(pickle.dumps(strip)) == strip


def test_ehrhart_polynomial_caches_its_numerators():
    region = catalan_region(3)
    poly = ehrhart_polynomial(region)
    assert poly._numerators is poly._numerators
    assert [poly(t) for t in range(4)] == [count_lattice_points(region, t) for t in range(4)]
    assert pickle.loads(pickle.dumps(poly)) == poly


def test_values_compare_and_unpack_like_tuples():
    facet = facets(region_from_words("EENN", "NENE"))[0]
    constraint, tight, kind, position = facet
    assert facet == (constraint, tight, kind, position)
    assert facet._replace(position=0).position == 0
    assert facet[0] is facet.constraint

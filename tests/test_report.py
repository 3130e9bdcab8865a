import math

import numpy as np

from opcalc.report import CheckReport, Worst, from_failures, from_gap


def test_worst_keeps_the_first_of_equal_gaps():
    w = Worst("t", 1.0)
    w.see(np.array([0.5, 2.0, 2.0, 1.0]), x=[10.0, 20.0, 30.0, 40.0])
    w.see(2.0, x=50.0)
    assert w.gap == 2.0 and w.witness == {"x": 20.0}


def test_a_nan_gap_is_the_worst_and_fails_the_invariant():
    w = Worst("t", 1.0)
    w.see(np.array([3.0, math.nan, math.nan, 5.0]), x=np.array([1.0, 2.0, 3.0, 4.0]))
    w.see(math.inf, x=9.0)
    assert math.isnan(w.gap) and w.witness == {"x": 2.0}
    w = Worst("t", 1.0)
    w.see(7.0, x=1.0)
    w.see(math.nan, x=2.0)
    w.see(math.nan, x=3.0)
    report = w.report()
    assert not report.passed and report.details == {"x": 2.0}


def test_a_scalar_gap_is_a_one_element_array():
    for gap in (0.25, np.float64(0.25)):
        scalar, array = Worst("t", 1.0), Worst("t", 1.0)
        scalar.see(gap, n=3, x=0.5)
        array.see(np.array([gap]), n=[3], x=np.array([0.5]))
        assert scalar.report() == array.report()
        assert type(array.witness["n"]) is int and type(array.witness["x"]) is float


def test_scalar_labels_are_shared_by_every_gap():
    w = Worst("t", 1.0)
    w.see([[0.0, 1.0], [3.0, 2.0]], f="exp(x)", order=2, x=[[0.1, 0.2], [0.3, 0.4]],
          route=["direct", "exact"])
    assert w.witness == {"f": "exp(x)", "order": 2, "x": 0.3, "route": "direct"}
    assert all(type(v) in (str, int, float) for v in w.witness.values())


def test_gaps_at_or_below_zero_leave_no_witness():
    w = Worst("t", 0.0)
    w.see(np.array([-1.0, 0.0]), x=[1.0, 2.0])
    w.see(-0.5, x=3.0)
    w.see([], x=[])
    assert w.report() == CheckReport("t", True, 0.0, 0.0, {})


def test_count_invariants_count_their_failures_and_name_the_first():
    assert from_failures("c", []) == from_gap("c", 0.0, 0.0)
    report = from_failures("c", [{"f": "sin(x)", "order": 1}, {"f": "x", "order": 2}])
    assert (report.measured_gap, report.passed) == (2.0, False)
    assert str(report) == "[FAIL] c: gap=2.000e+00 threshold=0.000e+00 at f=sin(x), order=1"


def test_report_line_prints_plain_floats_and_stays_bounded():
    w = Worst("t", 1e-9)
    w.see(np.array([1e-3]), n=1, x=np.array([-2.0014516359657213]))
    assert str(w.report()) == "[FAIL] t: gap=1.000e-03 threshold=1.000e-09 at n=1, x=-2.0014516359657213"
    long = str(from_gap("t", 1.0, 0.0, f="x+" * 500))
    assert len(long) < 300 and long.endswith("…")

import math
import sys

import numpy as np
import pytest

from xover.cli import TABLE3
from xover.construct import fixture, replicate, union, williams_pair, williams_square
from xover.designs import CrossoverDesign, truncate
from xover.info import direct_info_complete, direct_info_patterns
from xover.metrics import (
    a_criterion,
    against_plan,
    bounds_report,
    class_ab_ml,
    class_ab_spectrum,
    connect_condition,
    efficiency_bounds,
    efficiency_lower_bound,
    el_ab,
    extreme_ml,
    loss,
    max_loss,
    mtr,
    t_star,
    theta_lower,
    theta_lower_star,
    uml,
)

metrics_module = sys.modules["xover.metrics"]

# Reference values computed independently with exact rational/trig
# arithmetic and frozen here at 12 digits.
THETA_L_M1 = {5: 0.625, 6: 3.0, 7: 4.57692307692, 8: 5.89473684211, 9: 7.09615384615, 10: 8.23529411765}
THETA_LS_M1 = {5: 1.70466094629, 6: 3.45, 7: 4.81344871422, 8: 6.03567793988, 9: 7.18726153898, 10: 8.29770686458}
UML_M1 = {5: 0.868055555556, 6: 0.482142857143, 7: 0.329807692308, 8: 0.249512670565, 9: 0.200274725275, 10: 0.167112299465}
UMLS_M1 = {5: 0.640127133561, 6: 0.404464285714, 7: 0.295173581133, 8: 0.231568780802, 9: 0.190007032909, 10: 0.160800101196}
EL_M1 = {5: 0.182926829268, 6: 0.659340659341, 7: 0.812471552117, 8: 0.881063869639, 9: 0.917747379641, 10: 0.939684907243}
ELS_M1 = {5: 0.498925155011, 6: 0.758241758242, 7: 0.854458351636, 8: 0.902129798843, 9: 0.929530360699, 10: 0.946806488510}
UML_M2 = {8: 0.902998236332, 9: 0.631168831169, 10: 0.483558994197, 11: 0.391240446796, 12: 0.328205128205, 16: 0.198960509059}
EL_M2 = {8: 0.138050043141, 9: 0.496898492380, 10: 0.668645627767, 11: 0.764709917903, 12: 0.824055769431, 16: 0.925518787164}

CLASS_ML = {
    (5, "B"): 0.351854992713,
    (6, "A"): 0.296799224054,
    (7, "B"): 0.196990579335,
    (8, "A"): 0.179586563307,
    (9, "B"): 0.138945274394,
    (10, "A"): 0.130404185892,
}
CLASS_EL = {
    (5, "B"): 0.898583578780,
    (6, "A"): 0.895321942849,
    (7, "B"): 0.973485226380,
    (8, "A"): 0.963156350395,
    (9, "B"): 0.988127727268,
    (10, "A"): 0.981099926670,
}


def test_a_criterion_complete_symmetric():
    a = 3.7
    c = a * (np.eye(5) - np.ones((5, 5)) / 5)
    crit = a_criterion(c, 5)
    assert crit.connected
    assert crit.h == pytest.approx(a, abs=1e-10)


def test_a_criterion_planned_trace_formula():
    # trace of the MP inverse of the planned information is
    # (t-1)(t^2-t-1)/(g t (t-2)(t+1)); spot value 145/336 at t=6, g=2
    d = replicate(williams_square(6), 2)
    crit = a_criterion(direct_info_complete(d), 6)
    assert crit.trace_mp == pytest.approx(145 / 336, abs=1e-10)
    for t, g in ((4, 1), (5, 2), (7, 2)):
        dd = williams_square(t) if t % 2 == 0 else williams_pair(t)
        expected = (t - 1) * (t * t - t - 1) / (g * t * (t - 2) * (t + 1))
        got = a_criterion(direct_info_complete(dd), t).trace_mp
        assert got == pytest.approx(expected, abs=1e-10)


def test_a_criterion_disconnected_flag():
    cd = direct_info_complete(truncate(fixture("d2plan"), 1))
    crit = a_criterion(cd, 4)
    assert not crit.connected
    assert crit.h == 0.0
    assert crit.rank == 1


def test_loss_basics():
    assert loss(0.5, 0.5) == 0.0
    assert loss(0.3, 0.6) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="positive"):
        loss(0.0, 0.5)


def test_max_loss_replicated_square():
    ml = max_loss(replicate(williams_square(6), 2), 1)
    assert not ml.disconnected
    assert ml.value == pytest.approx(CLASS_ML[(6, "A")], abs=1e-9)


def test_max_loss_distinct_squares():
    d = union([fixture("ex13sq1"), fixture("ex13sq2")])
    ml = max_loss(d, 1)
    assert ml.value == pytest.approx(0.241331, abs=1e-5)


def test_max_loss_disconnected_reports_one():
    ml = max_loss(fixture("d2plan"), 1)
    assert ml.disconnected
    assert ml.value == 1.0
    assert ml.min_trace_mp is None


@pytest.mark.parametrize("t", sorted(THETA_L_M1))
def test_theta_lower_m1(t):
    assert theta_lower(t, 1) == pytest.approx(THETA_L_M1[t], abs=1e-10)
    assert theta_lower_star(t, 1) == pytest.approx(THETA_LS_M1[t], abs=1e-10)


def test_theta_lower_boundary_negative():
    # at t = 2m+2 the bound is valid but negative (vacuous)
    assert theta_lower(4, 1) == pytest.approx(-8.0)
    assert theta_lower(6, 2) < 0
    with pytest.raises(ValueError, match="t >= 2m\\+2"):
        theta_lower(3, 1)
    with pytest.raises(ValueError, match="m >= 1"):
        theta_lower(5, 0)


@pytest.mark.parametrize("t", sorted(UML_M1))
def test_uml_m1(t):
    assert uml(t, 1) == pytest.approx(UML_M1[t], abs=1e-10)
    assert uml(t, 1, star=True) == pytest.approx(UMLS_M1[t], abs=1e-10)


@pytest.mark.parametrize("t", sorted(UML_M2))
def test_uml_m2(t):
    assert uml(t, 2) == pytest.approx(UML_M2[t], abs=1e-10)


def test_connect_condition_polynomials():
    # m=1 reduces to t^3 - 5t^2 + 4 > 0, m=2 to t^3 - 9t^2 + 8t + 12 > 0
    for t in range(4, 20):
        value, ok = connect_condition(t, 1)
        assert value == pytest.approx(t**3 - 5 * t**2 + 4)
        assert ok == (t >= 5)
    for t in range(6, 24):
        value, ok = connect_condition(t, 2)
        assert value == pytest.approx(t**3 - 9 * t**2 + 8 * t + 12)
        assert ok == (t >= 8)
    assert connect_condition(4, 1)[0] == pytest.approx(-12.0)


def test_t_star():
    assert t_star(1) == 5
    assert t_star(2) == 8
    assert t_star(3) == 11


def test_long_m_is_worded_short():
    # a 3001-digit m is echoed by its first digits and its length
    message = "requires m >= 1, got m=-1000000000000000000... (3001 digits)"
    m = -(10**3000)
    for call in (lambda: connect_condition(10, m), lambda: t_star(m)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_huge_t_is_worded_short():
    # connect_condition checks t as the other bounds do, rather than
    # overflowing in float(), and still takes t < 2m+2
    with pytest.raises(ValueError) as info:
        connect_condition(10**200, 1)
    assert str(info.value) == "requires t <= 10**100, got a larger t"
    assert connect_condition(10**100, 1)[1]
    assert connect_condition(3, 1) == (-14.0, False)


def _bounds_by_formula(t, m):
    """theta_L, theta_L*, UML, UML*, MTr, EL, EL* written out one by one."""
    d = (t - m) ** 2 - (t + 1) - m * (m + 1)
    psi1 = math.cos(2 * math.pi / t)
    theta = (t / (t - m)) * ((t - 2 * m) - t * (m + 1) ** 2 / d)
    theta_star = (t / (t - m)) * (
        (t - 2 * m)
        + (m * (m - 1) / t) * (1 - psi1)
        - t * (1 + 2 * psi1 * m + m * m) / d
    )
    w = t * (t - m - 1)
    ceiling = w - (w + 1) / ((t - m) * (t - m - 1))
    thetas = (theta, theta_star)
    umls = [1.0 - (t * t - t - 1) * x / (t * (t - 2) * (t + 1)) for x in thetas]
    return *thetas, *umls, ceiling, *[(t - 1) * x / ceiling for x in thetas]


def test_bounds_report_fields_equal_single_bounds():
    for m in range(1, 6):
        for t in range(2 * m + 2, 61):
            b = bounds_report(t, m)
            fields = (b.theta_l, b.theta_l_star, b.uml, b.uml_star)
            fields += (b.mtr, b.el, b.el_star)
            single = (
                theta_lower(t, m),
                theta_lower_star(t, m),
                uml(t, m),
                uml(t, m, star=True),
                mtr(t, m),
                *efficiency_bounds(t, m),
            )
            assert fields == single == _bounds_by_formula(t, m), (t, m)
            assert (b.condition_value, b.condition_satisfied) == connect_condition(t, m)


def test_numpy_integer_t_gives_the_python_int_bounds():
    # products of order t**3 pass int64's range from about t = 2.1e6
    t = 3_000_000
    assert bounds_report(np.int64(t), np.int64(1)) == bounds_report(t, 1)
    assert connect_condition(np.int64(t), 1) == connect_condition(t, 1)
    assert extreme_ml(np.int64(t)) == extreme_ml(t)


def _t_star_by_search(m):
    """The smallest t >= 2m+2 that satisfies connect_condition, by search."""
    t = 2 * m + 2
    while not connect_condition(t, m)[1]:
        t += 1
    return t


def test_t_star_closed_form_matches_search():
    assert [t_star(m) for m in range(1, 301)] == [
        _t_star_by_search(m) for m in range(1, 301)
    ]


def test_against_plan_validates_rows_before_stacking():
    design = williams_pair(5)
    with pytest.raises(ValueError, match=r"^pattern length 3 does not match s=10$"):
        against_plan(design, [[4] * 3])
    c, crit, losses, disconnected = against_plan(design, [])
    assert c.shape == (1, 5, 5)
    assert crit.rank[0] == 4 and losses[0] == 0.0 and not disconnected[0]


def test_against_plan_validates_empty_batches():
    # only [] stands for no rows: a 2-D batch is validated, empty or not,
    # as direct_info_patterns validates it
    design = fixture("d3plan")
    for rows, message in (
        (np.zeros((0, 3), int), "pattern length 3 does not match s=10"),
        (np.zeros((0, 10)), "completion period must be an integer, got float64"),
    ):
        for entry in (against_plan, direct_info_patterns):
            with pytest.raises(ValueError) as info:
                entry(design, rows)
            assert str(info.value) == message, entry.__name__
    c, _, losses, _ = against_plan(design, np.zeros((0, 10), int))
    assert c.shape == (1, 5, 5) and losses.tolist() == [0.0]


def _one_treatment_design():
    return CrossoverDesign(t=1, p=3, s=2, layout=np.zeros((3, 2), dtype=int))


def test_against_plan_rejects_one_treatment_before_the_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(metrics_module, "_direct_info_rows", refuse)
    design = _one_treatment_design()
    for rows in ([], [[3, 2]], [[2, 2]]):
        with pytest.raises(ValueError, match=r"^requires t >= 2 treatments, got t=1$"):
            against_plan(design, rows)


def test_max_loss_rejects_one_treatment():
    with pytest.raises(ValueError, match=r"^requires t >= 2 treatments, got t=1$"):
        max_loss(_one_treatment_design(), 1)


def test_mtr_values():
    assert mtr(5, 1) == pytest.approx(41 / 3, abs=1e-12)
    assert mtr(6, 1) == pytest.approx(22.75, abs=1e-12)
    # m=1 closed form simplifies to t(t-2) - (t-1)/(t-2)
    for t in range(4, 12):
        assert mtr(t, 1) == pytest.approx(t * (t - 2) - (t - 1) / (t - 2), abs=1e-10)


@pytest.mark.parametrize("t", sorted(EL_M1))
def test_efficiency_bounds_m1(t):
    el, el_star = efficiency_bounds(t, 1)
    assert el == pytest.approx(EL_M1[t], abs=1e-10)
    assert el_star == pytest.approx(ELS_M1[t], abs=1e-10)


@pytest.mark.parametrize("t", sorted(EL_M2))
def test_efficiency_bounds_m2(t):
    el, _ = efficiency_bounds(t, 2)
    assert el == pytest.approx(EL_M2[t], abs=1e-10)


def test_bounds_report_bundle():
    b = bounds_report(5, 1)
    assert b.uml == pytest.approx(UML_M1[5], abs=1e-10)
    assert b.el_star == pytest.approx(ELS_M1[5], abs=1e-10)
    assert b.condition_satisfied
    assert b.t_star == 5


def test_class_a_spectrum_t4():
    spec = class_ab_spectrum(4, "A")
    assert abs(spec[0] - 0.0) <= 1e-12
    assert abs(spec[1] - 8.0 / 3.0) <= 1e-12
    assert abs(spec[2] - 0.0) <= 1e-12


def test_class_b_spectrum_t5():
    spec = sorted(set(round(v, 9) for v in class_ab_spectrum(5, "B")))
    np.testing.assert_allclose(spec, [2.608497855, 3.730378291], atol=1e-8)


def test_class_a_spectrum_t6():
    spec = class_ab_spectrum(6, "A")
    np.testing.assert_allclose(
        spec, [3.529411765, 4.421052632, 4.8, 4.421052632, 3.529411765], atol=1e-8
    )


def test_class_spectrum_symmetry():
    for t, k in ((7, "B"), (8, "A")):
        spec = class_ab_spectrum(t, k)
        np.testing.assert_allclose(spec, spec[::-1], atol=1e-12)


def test_class_spectrum_mirror_is_exact():
    # theta_r = theta_(t-r): both take psi at min(r, t-r), bit for bit
    for t in range(4, 41):
        for k in ("A", "B"):
            spec = class_ab_spectrum(t, k)
            assert spec == spec[::-1], (t, k)


def test_class_spectrum_guards():
    with pytest.raises(ValueError, match="t >= 4"):
        class_ab_spectrum(3, "A")
    with pytest.raises(ValueError, match="class"):
        class_ab_spectrum(5, "C")


@pytest.mark.parametrize("t,k", sorted(CLASS_ML))
def test_class_ml_and_el(t, k):
    assert class_ab_ml(t, k) == pytest.approx(CLASS_ML[(t, k)], abs=1e-10)
    assert el_ab(t, k) == pytest.approx(CLASS_EL[(t, k)], abs=1e-10)


def test_class_ml_matches_measured_design():
    # the closed-form loss must equal the loss measured on an actual
    # replicated-square design
    measured = max_loss(replicate(williams_square(6), 2), 1).value
    assert class_ab_ml(6, "A") == pytest.approx(measured, abs=1e-9)
    measured_b = max_loss(williams_pair(5), 1).value
    assert class_ab_ml(5, "B") == pytest.approx(measured_b, abs=1e-9)
    # every Table 3 row, ML and EL_AB alike, measured by the engine on one
    # square (class A) or one pair (class B)
    for t, klass in TABLE3:
        d = williams_square(t) if klass == "A" else williams_pair(t)
        measured = max_loss(d, 1)
        assert measured.value == pytest.approx(class_ab_ml(t, klass), rel=1e-12)
        el = efficiency_lower_bound(measured.min_trace_mp, t, 1, d.g)
        assert el == pytest.approx(el_ab(t, klass), rel=1e-12)


def test_class_ml_disconnected_at_t4():
    with pytest.raises(ValueError, match="t >= 5"):
        class_ab_ml(4, "A")
    with pytest.raises(ValueError, match="t >= 5"):
        el_ab(4, "B")


def test_class_spectrum_matches_measured_spectrum():
    # eigenvalues of the truncated design's information are g times the
    # per-frequency factors
    d = williams_pair(5)
    measured = np.sort(
        a_criterion(direct_info_complete(truncate(d, 1)), 5).nonzero
    )
    formula = np.sort(2 * np.array(class_ab_spectrum(5, "B")))
    ratios = measured / formula
    np.testing.assert_allclose(ratios, np.ones(4), atol=1e-6)


def test_ml_independent_of_replication():
    values = [
        max_loss(replicate(williams_square(6), g), 1).value for g in (1, 2, 3)
    ]
    assert max(values) - min(values) <= 1e-9


def test_distinct_squares_beat_replication():
    # two distinct squares lose less than two copies of one square
    d2 = union([fixture("ex13sq1"), fixture("ex13sq2")])
    assert max_loss(d2, 1).value <= class_ab_ml(6, "A") + 1e-9


def test_extreme_ml_values():
    assert extreme_ml(6) == pytest.approx(0.214658385093, abs=1e-10)
    # t=4: a = 34/14, ML = 1 - (17/7)(11/45) = 128/315
    assert extreme_ml(4) == pytest.approx(128 / 315, abs=1e-12)
    with pytest.raises(ValueError, match="t >= 4"):
        extreme_ml(3)


def test_measured_ml_below_uml():
    for d, t in ((williams_pair(5), 5), (replicate(williams_square(6), 2), 6)):
        ml = max_loss(d, 1)
        assert ml.value <= uml(t, 1) + 1e-9
        assert ml.value <= uml(t, 1, star=True) + 1e-9


def test_theta_star_dominates_theta_plain():
    for m in (1, 2, 3, 4):
        for t in range(2 * m + 2, 51):
            assert theta_lower_star(t, m) > theta_lower(t, m)


def test_efficiency_lower_bound_pair5():
    ml = max_loss(williams_pair(5), 1)
    assert ml.min_trace_mp is not None
    bound = efficiency_lower_bound(ml.min_trace_mp, 5, 1, 2)
    assert bound == pytest.approx(CLASS_EL[(5, "B")], abs=1e-9)
    assert bound <= 1.0 + 1e-9


def test_efficiency_lower_bound_between_el_star_and_one():
    d = union([fixture("ex13sq1"), fixture("ex13sq2")])
    ml = max_loss(d, 1)
    bound = efficiency_lower_bound(ml.min_trace_mp, 6, 1, 2)
    _, el_star = efficiency_bounds(6, 1)
    assert el_star <= bound <= 1.0 + 1e-9

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xover.construct import (
    extreme_design,
    fixture,
    replicate,
    union,
    williams_pair,
    williams_square,
)
from xover.designs import CrossoverDesign, DropoutPattern, truncate
from xover.info import (
    direct_info,
    direct_info_complete,
    direct_info_minimal,
    direct_info_pattern,
    estimable,
    joint_info_orthogonal,
    joint_info_projection,
    minimal_closed_form,
    residual_info,
    residual_info_minimal_m1,
)
from xover.linalg import eigensym, is_psd, moore_penrose


def _complete_symmetric_plan(t, g):
    a = g * t * (t - 2) * (t + 1) / (t * t - t - 1)
    return a * (np.eye(t) - np.ones((t, t)) / t)


FIXTURE_SET = ["d1plan", "d2plan", "d3plan", "ex13sq1", "ex13sq2"]


def _designs_for_dual_path():
    return {
        "d1plan": fixture("d1plan"),
        "d2plan": fixture("d2plan"),
        "d3plan": fixture("d3plan"),
        "ex13union": union([fixture("ex13sq1"), fixture("ex13sq2")]),
        "williams6": williams_square(6),
    }


def test_projection_full_square_matches_complete_symmetric_form():
    cd = direct_info_pattern(fixture("d2plan"))
    np.testing.assert_allclose(cd, _complete_symmetric_plan(4, 1), atol=1e-10)


def test_projection_complete_pattern_equals_orthogonal():
    d = fixture("d3plan")
    full = DropoutPattern((5,) * 10)
    a = joint_info_projection(d, full).c
    b = joint_info_orthogonal(d).c
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_projection_all_truncated_pattern_rank_one():
    d = fixture("d2plan")
    cd = direct_info_pattern(d, DropoutPattern((3, 3, 3, 3)))
    s = eigensym(cd)
    assert s.rank == 1
    top = s.eigenvectors[:, -1]
    expected = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
    assert min(
        np.max(np.abs(top - expected)), np.max(np.abs(top + expected))
    ) <= 1e-9


def test_projection_rejects_empty():
    with pytest.raises(ValueError, match="at least period 1"):
        joint_info_projection(fixture("d2plan"), DropoutPattern((0, 4, 4, 4)))


def test_orthogonal_matches_projection_on_all_fixtures():
    for name in FIXTURE_SET:
        d = fixture(name)
        a = joint_info_orthogonal(d).c
        b = joint_info_projection(d).c
        assert np.max(np.abs(a - b)) <= 1e-10, name


def _dense_model_info(design, completion):
    """T'T - T'N pinv(N'N) N'T from one row per observed cell, with
    T = [direct | carryover] and N = [subject dummies | period dummies]."""
    t, p, s = design.t, design.p, design.s
    tmat, nmat = [], []
    for i in range(s):
        for j in range(completion[i]):
            trow = np.zeros(2 * t)
            trow[design.layout[j, i]] = 1.0
            if j >= 1:
                trow[t + design.layout[j - 1, i]] = 1.0
            nrow = np.zeros(s + p)
            nrow[i] = 1.0
            nrow[s + j] = 1.0
            tmat.append(trow)
            nmat.append(nrow)
    tmat, nmat = np.array(tmat), np.array(nmat)
    cross = tmat.T @ nmat
    return tmat.T @ tmat - cross @ np.linalg.pinv(nmat.T @ nmat) @ cross.T


@pytest.mark.parametrize(
    "design",
    [
        fixture("d1plan"),
        fixture("d2plan"),
        fixture("d3plan"),
        fixture("ex13sq1"),
        williams_pair(5),
        replicate(williams_square(6), 2),
    ],
    ids=["d1plan", "d2plan", "d3plan", "ex13sq1", "pair5", "williams6x2"],
)
def test_projection_matches_dense_model_on_ragged_patterns(design):
    rng = np.random.default_rng(20071006)
    for _ in range(20):
        completion = tuple(int(k) for k in rng.integers(1, design.p + 1, design.s))
        got = joint_info_projection(design, DropoutPattern(completion)).c
        want = _dense_model_info(design, completion)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_orthogonal_d3plan_complete_symmetric():
    cd = direct_info_complete(fixture("d3plan"))
    np.testing.assert_allclose(cd, _complete_symmetric_plan(5, 2), atol=1e-9)
    vals = eigensym(cd).nonzero
    np.testing.assert_allclose(vals, np.full(4, 2 * 5 * 3 * 6 / 19), atol=1e-9)


def test_direct_info_zero_row_sums_and_psd():
    for name in FIXTURE_SET:
        d = fixture(name)
        for mat in (direct_info_complete(d), direct_info_complete(truncate(d, 1))):
            np.testing.assert_allclose(mat @ np.ones(d.t), 0.0, atol=1e-9)
            assert is_psd(mat, 1e-9)


def test_direct_info_d1min_spectrum():
    # truncating the 3x6 pair leaves a two-dimensional estimable space
    # with information eigenvalue 3/4 on it
    cd = direct_info_complete(truncate(fixture("d1plan"), 1))
    s = eigensym(cd)
    assert s.rank == 2
    np.testing.assert_allclose(sorted(s.nonzero), [0.75, 0.75], atol=1e-10)


def test_direct_info_d2min_rank_one():
    cd = direct_info_complete(truncate(fixture("d2plan"), 1))
    assert eigensym(cd).rank == 1


def test_direct_info_invariant_to_g_inverse_choice():
    d = fixture("d3plan")
    cf = minimal_closed_form(d, 1)
    assert cf.a_inverse is not None
    via_mp = direct_info(cf.joint)
    via_a = cf.c11 - cf.c12 @ cf.a_inverse @ cf.c12.T
    np.testing.assert_allclose(via_mp, via_a, atol=1e-9)


def test_residual_info_williams4_disconnected():
    cr = residual_info(joint_info_orthogonal(truncate(williams_square(4), 1)))
    assert eigensym(cr).rank < 3


def test_residual_info_pair5_connected():
    cr = residual_info(joint_info_orthogonal(truncate(williams_pair(5), 1)))
    assert eigensym(cr).rank == 4


def test_residual_info_scalar_g_inverse_of_c11():
    # on the truncated design, ((t-1)/(g t (t-2))) I is a generalized
    # inverse of c11; sweeping with it must reproduce the MP-path result
    for t in (5, 6):
        d = williams_pair(t) if t % 2 else williams_square(t)
        g = d.g
        joint = joint_info_orthogonal(truncate(d, 1))
        scalar = (t - 1) / (g * t * (t - 2))
        resid = joint.c11 @ (scalar * np.eye(t)) @ joint.c11 - joint.c11
        assert np.max(np.abs(resid)) <= 1e-8
        via_scalar = joint.c22 - joint.c12.T @ (scalar * np.eye(t)) @ joint.c12
        np.testing.assert_allclose(residual_info(joint), via_scalar, atol=1e-9)


@pytest.mark.parametrize("m", [1, 2])
def test_minimal_closed_form_matches_both_paths(m):
    for name, d in _designs_for_dual_path().items():
        if not 1 <= m < d.t - 1:
            continue
        cf = minimal_closed_form(d, m)
        cut = truncate(d, m)
        ortho = joint_info_orthogonal(cut)
        proj = joint_info_projection(cut)
        for got, ref in ((cf.c11, ortho.c11), (cf.c22, ortho.c22), (cf.c12, ortho.c12)):
            assert np.max(np.abs(got - ref)) <= 1e-10, (name, m)
        assert np.max(np.abs(cf.joint.c - proj.c)) <= 1e-10, (name, m)


def test_minimal_closed_form_lambda_min():
    cf = minimal_closed_form(fixture("d3plan"), 1)
    assert cf.lambda_min_a == pytest.approx(4.0)
    vals = eigensym(cf.a_matrix).eigenvalues
    assert vals[0] == pytest.approx(cf.lambda_min_a, abs=1e-9)


def test_minimal_closed_form_companion_availability():
    # t=4, m=1 sits exactly on the t >= 2m+2 boundary: available
    assert minimal_closed_form(fixture("d2plan"), 1).a_inverse is not None
    # t=5, m=2 falls below it: unavailable
    assert minimal_closed_form(fixture("d3plan"), 2).a_inverse is None


def test_minimal_closed_form_certified_g_inverse():
    cf = minimal_closed_form(williams_square(6), 1)
    assert cf.a_inverse is not None
    resid = cf.c22 @ cf.a_inverse @ cf.c22 - cf.c22
    assert np.max(np.abs(resid)) <= 1e-8 * max(1.0, np.max(np.abs(cf.c22)))


def test_minimal_closed_form_companion_differs_by_constant():
    cf = minimal_closed_form(fixture("d3plan"), 1)
    delta = cf.a_matrix - cf.c22
    assert np.max(np.abs(delta - delta[0, 0])) <= 1e-12


def test_minimal_closed_form_range_checks():
    with pytest.raises(ValueError, match="out of range"):
        minimal_closed_form(fixture("d2plan"), 3)
    with pytest.raises(ValueError, match="uniform-balanced"):
        layout = np.zeros((3, 3), dtype=int)
        minimal_closed_form(CrossoverDesign(t=3, p=3, s=3, layout=layout), 1)


def test_residual_minimal_m1_exact_small_case():
    # hand-reduced value for the 3x6 pair: (1/4) I - (1/12) J
    cr = residual_info_minimal_m1(fixture("d1plan"))
    expected = 0.25 * np.eye(3) - np.ones((3, 3)) / 12.0
    np.testing.assert_allclose(cr, expected, atol=1e-12)


def test_residual_minimal_m1_agrees_with_projection():
    designs = _designs_for_dual_path()
    for name, d in designs.items():
        closed = residual_info_minimal_m1(d)
        via_proj = residual_info(joint_info_projection(truncate(d, 1)))
        assert np.max(np.abs(closed - via_proj)) <= 1e-9, name


def test_estimable_d2min_contrasts():
    cd = direct_info_complete(truncate(fixture("d2plan"), 1))
    assert estimable(cd, np.array([1.0, -1.0, 1.0, -1.0]))
    assert not estimable(cd, np.array([1.0, -1.0, 0.0, 0.0]))


def test_estimable_connected_design_any_contrast():
    cd = direct_info_complete(fixture("d3plan"))
    rng = np.random.default_rng(3)
    for _ in range(5):
        c = rng.normal(size=5)
        c -= c.mean()
        assert estimable(cd, c)


def test_estimable_rejects_non_contrast():
    cd = direct_info_complete(fixture("d2plan"))
    with pytest.raises(ValueError, match="sum to zero"):
        estimable(cd, np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="nonzero"):
        estimable(cd, np.zeros(4))


def test_extreme_design_projection_matches_closed_form():
    # brute-force check over all 120 sequences of the 5-treatment case
    de = extreme_design(5)
    cd = direct_info_pattern(de)
    np.testing.assert_allclose(cd, _complete_symmetric_plan(5, 24), atol=1e-8)


@settings(max_examples=15, deadline=None)
@given(
    ks=st.lists(st.integers(min_value=4, max_value=5), min_size=10, max_size=10)
)
def test_information_ordering_under_tail_dropout(ks):
    d = fixture("d3plan")
    c_plan = direct_info_complete(d)
    c_min = direct_info_complete(truncate(d, 1))
    c_imp = direct_info_pattern(d, DropoutPattern(tuple(ks)))
    assert is_psd(c_plan - c_imp, 1e-9)
    assert is_psd(c_imp - c_min, 1e-9)

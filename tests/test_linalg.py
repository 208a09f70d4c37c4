import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xover.linalg import (
    _factors,
    cycle_type,
    eigensym,
    is_psd,
    moore_penrose,
    schur_complement,
    symmetrize,
)


def test_symmetrize_averages_roundoff():
    m = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
    out = symmetrize(m)
    assert np.allclose(out, out.T)


def _symmetric_stack(seed):
    a = np.random.default_rng(seed).standard_normal((4, 6, 6))
    return a + np.swapaxes(a, -1, -2)  # exactly symmetric: x + y == y + x


def test_symmetrize_rejects_asymmetric():
    # also a stack, and one slice of it, off by 1e-6 in a single entry
    nudged = _symmetric_stack(5)
    nudged[2, 0, 1] += 1e-6
    for m in (np.array([[1.0, 2.0], [3.0, 4.0]]), nudged, nudged[2]):
        with pytest.raises(ValueError, match="not symmetric"):
            symmetrize(m)


def test_symmetrize_of_exactly_symmetric_input_is_the_average():
    m = _symmetric_stack(6)
    out = symmetrize(m)
    assert np.array_equal(out, (m + np.swapaxes(m, -1, -2)) / 2)
    assert not np.shares_memory(out, m)
    assert np.array_equal(symmetrize(m[1]), (m[1] + m[1].T) / 2)


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        symmetrize(np.ones((2, 3)))


def test_eigensym_identity():
    s = eigensym(np.eye(4))
    np.testing.assert_allclose(s.eigenvalues, np.ones(4))
    assert s.rank == 4
    assert s.trace_mp == pytest.approx(4.0)


def test_eigensym_all_ones():
    s = eigensym(np.ones((3, 3)))
    np.testing.assert_allclose(s.eigenvalues, [0.0, 0.0, 3.0], atol=1e-12)
    assert s.rank == 1
    assert s.trace_mp == pytest.approx(1.0 / 3.0)


def test_eigensym_reconstruction_and_orthonormality():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(8, 8))
    m = m + m.T
    s = eigensym(m)
    recon = (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.T
    assert np.max(np.abs(recon - m)) <= 1e-9 * max(1.0, np.max(np.abs(m)))
    assert np.max(np.abs(s.eigenvectors.T @ s.eigenvectors - np.eye(8))) <= 1e-9


def _char_poly_roots_3x3(m):
    # coefficients of det(xI - M) for symmetric 3x3, expanded by hand
    a, b, c = m[0, 0], m[0, 1], m[0, 2]
    d, e = m[1, 1], m[1, 2]
    f = m[2, 2]
    tr = a + d + f
    minors = (d * f - e * e) + (a * f - c * c) + (a * d - b * b)
    det = a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)
    return np.sort(np.roots([1.0, -tr, minors, -det]).real)


@pytest.mark.parametrize("seed", range(8))
def test_eigensym_matches_characteristic_polynomial(seed):
    rng = np.random.default_rng(seed)
    m2 = rng.normal(size=(2, 2))
    m2 = m2 + m2.T
    a, b, d = m2[0, 0], m2[0, 1], m2[1, 1]
    half = (a + d) / 2
    gap = np.sqrt(((a - d) / 2) ** 2 + b * b)
    np.testing.assert_allclose(
        eigensym(m2).eigenvalues, [half - gap, half + gap], atol=1e-9
    )
    m3 = rng.normal(size=(3, 3))
    m3 = m3 + m3.T
    np.testing.assert_allclose(
        eigensym(m3).eigenvalues, _char_poly_roots_3x3(m3), atol=1e-9
    )


def test_moore_penrose_projector_is_its_own_inverse():
    proj = np.eye(5) - np.ones((5, 5)) / 5
    np.testing.assert_allclose(moore_penrose(proj), proj, atol=1e-12)


def test_moore_penrose_diagonal():
    np.testing.assert_allclose(
        moore_penrose(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    r=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_moore_penrose_penrose_conditions(n, r, seed):
    # rank-deficient PSD matrices: B B' with B of shape n x min(r, n-1)
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, min(r, n - 1)))
    m = b @ b.T
    mp = moore_penrose(m)
    scale = max(1.0, np.max(np.abs(m)))
    assert np.max(np.abs(m @ mp @ m - m)) <= 1e-8 * scale
    assert np.max(np.abs(mp @ m @ mp - mp)) <= 1e-8 * max(1.0, np.max(np.abs(mp)))
    assert np.max(np.abs((m @ mp) - (m @ mp).T)) <= 1e-8 * scale
    assert np.max(np.abs((mp @ m) - (mp @ m).T)) <= 1e-8 * scale


def test_factors_retry_a_failed_stack_matrix_by_matrix():
    # one matrix that is not positive definite fails the stacked call;
    # the others keep the stacked call's bits and it takes I
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 3, 3))
    a = x @ np.swapaxes(x, 1, 2)
    a[2] = -np.eye(3)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(a)
    l, ok = _factors(a)
    assert ok.tolist() == [True, True, False, True]
    assert np.array_equal(l[2], np.eye(3))
    assert np.array_equal(l[[0, 1, 3]], np.linalg.cholesky(a[[0, 1, 3]]))
    l, ok = _factors(a[[0, 1, 3]])
    assert ok.all() and np.array_equal(l, np.linalg.cholesky(a[[0, 1, 3]]))


def test_schur_complement_sweeps_a_matrix_and_its_stack_alike():
    # a Gram with the constant vector in the null space of m22 and m12:
    # the 2-D call, the stacked call and the pseudo-inverse formula agree
    rng = np.random.default_rng(4)
    x = rng.standard_normal((12, 7))
    x[:, 3:] -= x[:, 3:].mean(axis=1, keepdims=True)
    m = x.T @ x
    got = schur_complement(m, 3)
    assert got.shape == (3, 3)
    assert np.array_equal(schur_complement(np.stack([m, 2 * m]), 3)[0], got)
    want = m[:3, :3] - m[:3, 3:] @ np.linalg.pinv(m[3:, 3:]) @ m[3:, :3]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(m).max())


def test_is_psd():
    assert is_psd(np.eye(2))
    assert not is_psd(-np.eye(2))
    assert is_psd(np.zeros((3, 3)))


def test_cycle_type_identity():
    assert cycle_type(np.eye(3, dtype=int)) == [1, 1, 1]


def test_cycle_type_transposition_plus_identity():
    p = np.eye(4, dtype=int)[[1, 0, 2, 3]]
    assert cycle_type(p) == [2, 1, 1]


def test_cycle_type_rejects_non_permutation():
    with pytest.raises(ValueError, match="permutation"):
        cycle_type(np.ones((2, 2), dtype=int))
    with pytest.raises(ValueError, match="permutation"):
        cycle_type(np.array([[1, 0], [1, 0]]))


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(10))))
def test_cycle_count_matches_unit_eigenvalue_multiplicity(perm):
    n = len(perm)
    p = np.zeros((n, n))
    p[np.arange(n), perm] = 1.0
    lengths = cycle_type(p)
    sym = (p + p.T) / 2
    vals = eigensym(sym).eigenvalues
    multiplicity = int(np.sum(np.abs(vals - 1.0) < 1e-9))
    assert multiplicity == len(lengths)

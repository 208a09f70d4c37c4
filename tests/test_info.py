import dataclasses
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

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
from xover.designs import (
    CrossoverDesign,
    DropoutPattern,
    check_tail,
    coincidence,
    incidences,
    truncate,
    truncation,
    validate_ubrmd,
)
from xover.info import (
    JointInfo,
    direct_info,
    direct_info_complete,
    direct_info_minimal,
    direct_info_pattern,
    direct_info_patterns,
    estimable,
    joint_info_orthogonal,
    joint_info_projection,
    minimal_closed_form,
    residual_info,
    residual_info_minimal_m1,
)
from xover.linalg import (
    eigensym,
    is_psd,
    moore_penrose,
    schur_complement,
    spectral_cut,
    symmetrize,
)
from xover.metrics import a_criteria, a_criterion, against_plan
from xover.simulate import DropoutModel, simulate

info_module = sys.modules["xover.info"]
linalg_module = sys.modules["xover.linalg"]


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


def test_one_period_layout_has_zero_information():
    # a single period gives no subject a contrast: the engine's contrasts
    # are empty and every projection call returns zeros
    d = CrossoverDesign(t=2, p=1, s=2, layout=[[0, 1]])
    assert not direct_info_pattern(d).any()
    assert not joint_info_projection(d).c.any()
    assert direct_info_patterns(d, [[1, 1]]).tolist() == [[[0.0, 0.0], [0.0, 0.0]]]


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


@pytest.mark.parametrize(
    "design, low",
    [
        (fixture("d3plan"), 1),
        (williams_pair(7), 1),
        (williams_pair(15), 13),
        (extreme_design(4), 1),
    ],
    ids=["d3plan", "pair7", "pair15-m2", "extreme4"],
)
def test_batch_rows_equal_their_single_calls(design, low, monkeypatch):
    # completions in low..p; the plan and the all-low pattern lead the batch
    rng = np.random.default_rng(20071018)
    ks = rng.integers(low, design.p + 1, (50, design.s))
    ks[0], ks[1] = design.p, low
    singles = [direct_info_pattern(design, DropoutPattern(tuple(row))) for row in ks]
    batch = direct_info_patterns(design, ks)
    crit = a_criteria(batch, design.t)
    for b, single in enumerate(singles):
        assert np.array_equal(batch[b], single), b
        one = a_criterion(single, design.t)
        assert crit.trace_mp[b] == one.trace_mp, b
        assert np.array_equal(crit.eigenvalues[b], one.eigenvalues), b
    # one row per chunk gives the same bits
    monkeypatch.setattr(info_module, "_CHUNK_BYTES", 1)
    assert np.array_equal(direct_info_patterns(design, ks), batch)


@pytest.mark.parametrize(
    "design, low",
    [(williams_pair(15), 13), (extreme_design(5), 3)],
    ids=["pair15-m2", "extreme5"],
)
def test_chunk_budget_leaves_every_bit(design, low, monkeypatch):
    # only the last row reaches the batch minimum low, so the chunks
    # start from heads of different lengths depending on the budget
    rng = np.random.default_rng(20071019)
    ks = rng.integers(low + 1, design.p + 1, (20, design.s))
    ks[-1, 0] = low
    results = []
    for budget in (1, info_module._CHUNK_BYTES, 1 << 30):
        monkeypatch.setattr(info_module, "_CHUNK_BYTES", budget)
        results.append(direct_info_patterns(design, ks))
    for got in results[1:]:
        assert np.array_equal(got, results[0])
    for b, row in enumerate(ks):
        single = direct_info_pattern(design, DropoutPattern(tuple(row)))
        assert np.array_equal(results[0][b], single), b


def test_batched_engine_rejects_bad_rows():
    d = fixture("d2plan")
    with pytest.raises(ValueError, match="^expected rows of s=4 completion periods"):
        direct_info_patterns(d, [4, 4, 4, 4])
    with pytest.raises(ValueError, match="^pattern length 3 does not match s=4$"):
        direct_info_patterns(d, [[4, 4, 4]])
    with pytest.raises(ValueError, match="at least period 1"):
        direct_info_patterns(d, [[4, 0, 4, 4]])
    with pytest.raises(ValueError, match="exceeds p=4"):
        direct_info_patterns(d, [[4, 5, 4, 4]])
    float_row = "^completion period must be an integer, got float64$"
    with pytest.raises(ValueError, match=float_row):
        direct_info_patterns(d, [[4.0, 4.0, 4.0, 4.0]])
    assert direct_info_patterns(d, np.zeros((0, 4), dtype=int)).shape == (0, 4, 4)


def _engine_joint(design, ks):
    """The engine's joint information of the completion rows ks, each
    row starting from the running sum at its own lowest completion."""
    return info_module._joint_stack(*info_module._plan(design), ks)


def _cells(design):
    """Indicator rows of every cell over the columns [direct (t) |
    carryover (t) | period (p)], as a (p, s, 2t+p) array."""
    t, p, s = design.t, design.p, design.s
    x = np.zeros((p, s, 2 * t + p))
    rows = x.reshape(p * s, -1)  # cell (j, i) is row j*s + i
    cells = np.arange(p * s)
    rows[cells, design.layout.ravel()] = 1.0
    rows[cells[s:], t + design.layout[:-1].ravel()] = 1.0
    rows[cells, 2 * t + cells // s] = 1.0
    return x


def _unscaled_helmert(p):
    """(p, p-1) Helmert contrasts: column l-1 holds l ones, then -l."""
    l = np.arange(1, p)
    rows = np.arange(p)[:, None]
    return np.where(rows < l, 1.0, np.where(rows == l, -l, 0.0))


def _dense_joint_stack(x, ks, t):
    """The joint information by the former engine, from the dense cells:
    G = X'X - sum_k M_k / k (M_k the sum of a_i a_i' over the subjects
    completing k periods, a_i their column sums), then the period block
    swept on orthonormal Helmert contrasts, G_TT - W diag(1/n) W' with
    W = G_TP H and n the number of subjects observed in each period."""
    p = x.shape[0]
    gram = np.zeros((len(ks), 2 * t, x.shape[2]))
    a = np.zeros((len(ks),) + x.shape[1:])
    for j in range(p):
        w = x[j] * (j < ks)[..., None]
        gram += np.swapaxes(w[..., : 2 * t], 1, 2) @ w
        a += w
    for k in np.unique(ks):
        ak = a * (ks == k)[..., None]
        gram -= np.swapaxes(ak[..., : 2 * t], 1, 2) @ ak / k
    n = np.count_nonzero(ks[:, :, None] >= np.arange(2, p + 1), axis=1)
    inv = np.divide(1.0, n, out=np.zeros(n.shape), where=n > 0)
    h = _unscaled_helmert(p)
    w = gram[..., 2 * t :] @ (h / np.linalg.norm(h, axis=0))
    swept = (w * inv[:, None, :]) @ np.swapaxes(w, 1, 2)
    return symmetrize(gram[..., : 2 * t] - swept)


def _centred_gram(x, completion):
    """Full d x d Gram matrix of the subject-centred cell rows."""
    gram = np.zeros((x.shape[2],) * 2)
    for i, k in enumerate(completion):
        z = x[:k, i] - x[:k, i].mean(axis=0)
        gram += z.T @ z
    return gram


@pytest.mark.parametrize(
    "design",
    [fixture("d3plan"), williams_pair(7), extreme_design(4)],
    ids=["d3plan", "pair7", "extreme4"],
)
def test_closed_form_period_sweep_matches_schur_reference(design):
    # ragged rows with k = 1 subjects, and rows in which nobody reaches
    # the last periods, against the sweep of the full Gram matrix by eigh
    t, p = design.t, design.p
    x = _cells(design)
    rng = np.random.default_rng(20071020)
    ks = rng.integers(1, p + 1, (30, design.s))
    ks[0] = 1
    ks[1, 0] = 1
    ks[2:10] = np.minimum(ks[2:10], p - 2)
    got = _engine_joint(design, ks)
    for b, row in enumerate(ks):
        gram = _centred_gram(x, row)
        want = schur_complement(gram, 2 * t)
        tol = 1e-12 * max(1.0, float(np.linalg.norm(gram)))
        assert np.max(np.abs(got[b] - want)) <= tol, b


def test_contrasts_are_unscaled_helmert_of_cells():
    # integer-valued, and exactly H'X of the dense direct | carryover cells
    for design in (fixture("d3plan"), williams_pair(7), extreme_design(4)):
        t, p = design.t, design.p
        z = info_module._plan(design)[0].copy()
        assert z.shape == (p - 1, design.s, 2 * t)
        assert np.array_equal(z, np.round(z))
        x = _cells(design)[..., : 2 * t]
        want = np.einsum("jl,jic->lic", _unscaled_helmert(p), x)
        assert np.array_equal(z, want)


@pytest.mark.parametrize(
    "design",
    [fixture(name) for name in FIXTURE_SET]
    + [williams_square(4), williams_square(6)]
    + [williams_pair(t) for t in (5, 7, 15)]
    + [extreme_design(4), extreme_design(5)],
    ids=[*FIXTURE_SET, "square4", "square6", "pair5", "pair7", "pair15"]
    + ["extreme4", "extreme5"],
)
def test_contrast_grams_match_dense_engine(design):
    # random ragged rows with k = 1 subjects, the complete row and every
    # truncation row down to one period, against the dense-cell engine
    t, p, s = design.t, design.p, design.s
    rng = np.random.default_rng(20071021)
    ks = np.vstack(
        [np.full((p, s), np.arange(p, 0, -1)[:, None]), rng.integers(1, p + 1, (20, s))]
    )
    got = _engine_joint(design, ks)
    want = _dense_joint_stack(_cells(design), ks, t)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _eigh_schur(m, k):
    """The carryover sweep by the eigh route alone: m11 - (m12 V)
    diag(1/lambda) (m12 V)', V diag(lambda) V' the spectrum of m22 cut
    by spectral_cut."""
    vals, vecs = np.linalg.eigh(m[..., k:, k:])
    inv = spectral_cut(vals)[2]
    w = m[..., :k, k:] @ vecs
    return symmetrize(m[..., :k, :k] - (w * inv[..., None, :]) @ np.swapaxes(w, -1, -2))


SWEEP_CORPUS = {
    **{name: fixture(name) for name in FIXTURE_SET},
    "square4": williams_square(4),
    "square6": williams_square(6),
    **{f"pair{t}": williams_pair(t) for t in (5, 7, 15)},
    **{f"extreme{t}": extreme_design(t) for t in (4, 5, 6)},
    "square6x2": replicate(williams_square(6), 2),
}


@pytest.mark.parametrize("design", SWEEP_CORPUS.values(), ids=SWEEP_CORPUS.keys())
def test_cholesky_and_eigh_sweeps_agree_on_corpus(design):
    # the complete row, every truncation row down to one period and
    # random rows: the two routes agree to rounding, with the same rank
    # and connectedness verdicts
    t, p, s = design.t, design.p, design.s
    rng = np.random.default_rng(20071022)
    ks = np.vstack(
        [
            np.full((p, s), np.arange(p, 0, -1)[:, None]),
            rng.integers(1, p + 1, (10, s)),
            rng.integers(max(1, p - 2), p + 1, (10, s)),
        ]
    )
    joint = _engine_joint(design, ks)
    got, want = schur_complement(joint, t), _eigh_schur(joint, t)
    scale = max(1.0, float(np.max(np.abs(got))))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    new, old = a_criteria(got, t), a_criteria(want, t)
    assert np.array_equal(new.rank, old.rank)
    assert np.array_equal(new.connected, old.connected)
    # the stacked factor and inverse give each matrix's own bits
    h = sys.modules["xover.linalg"]._helmert(t)
    a = h.T @ (joint[:, t:, t:] @ h)
    a = a[np.linalg.eigvalsh(a)[:, 0] > 0]
    l = np.linalg.cholesky(a)
    l_inv = np.linalg.inv(l)
    for b in range(len(a)):
        assert np.array_equal(l[b], np.linalg.cholesky(a[b]))
        assert np.array_equal(l_inv[b], np.linalg.inv(l[b]))


@pytest.mark.parametrize(
    "design", [fixture("d3plan"), williams_pair(7), extreme_design(4)],
    ids=["d3plan", "pair7", "extreme4"],
)
def test_uncertified_rows_take_the_eigh_route_row_by_row(design, monkeypatch):
    # rows where no subject reaches period 2 (c22 = 0), or only one does
    # (a singular contrast block), among ordinary rows: the stacked
    # Cholesky raises, each row is decided alone, and the rows it leaves
    # take the bits of the eigh route
    t, p, s = design.t, design.p, design.s
    rng = np.random.default_rng(20071023)
    ks = rng.integers(max(1, p - 2), p + 1, (12, s))
    ks[0] = p
    ks[3] = 1
    ks[7], ks[7, 0] = 1, 2
    ks[10] = 1
    raised, eighs = [], []
    cholesky, eigh = np.linalg.cholesky, np.linalg.eigh

    def recording_cholesky(a, *args, **kwargs):
        try:
            return cholesky(a, *args, **kwargs)
        except np.linalg.LinAlgError:
            raised.append(a.shape)
            raise

    def recording_eigh(a, *args, **kwargs):
        eighs.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", recording_cholesky)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    batch = direct_info_patterns(design, ks)
    assert raised[0] == (len(ks), t - 1, t - 1)
    assert eighs == [(3, t, t)]
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    joint = _engine_joint(design, ks)
    assert not joint[3, t:, t:].any()
    for b, row in enumerate(ks):
        single = direct_info_pattern(design, DropoutPattern(tuple(row)))
        assert np.array_equal(batch[b], single), b
    for b in (3, 7, 10):
        assert np.array_equal(batch[b], _eigh_schur(joint[b], t)), b
    others = np.setdiff1d(np.arange(len(ks)), [3, 7, 10])
    assert np.max(np.abs(batch[others] - _eigh_schur(joint[others], t))) <= 1e-12 * max(
        1.0, float(np.max(np.abs(batch)))
    )


def _contrasts_by_loop(design):
    """The contrasts by the former build: the same running sum over
    periods, with four 2-D fancy-index updates per period."""
    t, layout = design.t, design.layout
    z = np.zeros((design.p - 1, design.s, 2 * t))
    i = np.arange(design.s)
    for l in range(1, design.p):
        zl = z[l - 1]
        if l > 1:
            zl += z[l - 2]
            zl[i, t + layout[l - 2]] += l
        zl[i, layout[l - 1]] += l
        zl[i, t + layout[l - 1]] -= l
        zl[i, layout[l]] -= l
    return z


def _gram_by_batched_matmul(w, n, l):
    """The former centred Gram of a masked (..., s, 2t) copy of the
    contrast rows: one small matmul per row and a sum reduction."""
    total = w.sum(axis=-2)
    gram = np.swapaxes(w, -1, -2) @ w
    gram -= total[..., :, None] * total[..., None, :] / n
    gram /= l * (l + 1)
    return gram


def _joint_stack_by_batched_matmul(z, ks):
    """The former _joint_stack: the shared head at ks.min() in one
    stacked call, then each masked contrast as a (rows, s, 2t) copy."""
    k0 = int(ks.min())
    head = np.zeros(z.shape[2:] * 2)
    ls = np.arange(1, k0)[:, None, None]
    for term in _gram_by_batched_matmul(z[: k0 - 1], z.shape[1], ls):
        head += term
    gram = np.repeat(head[None], len(ks), axis=0)
    for l in range(k0, len(z) + 1):
        seen = ks > l
        n = np.maximum(np.count_nonzero(seen, axis=1), 1)[:, None, None]
        gram += _gram_by_batched_matmul(z[l - 1] * seen[..., None], n, l)
    return gram


def _engine_rows(design, rng):
    """The complete row, every truncation row down to one period, random
    rows at every lower bound, a batch in which only the last row drops,
    one of the plan and its full truncation alone, and plan rows alone
    (no masked contrast)."""
    p, s = design.p, design.s
    rows = [np.full((p, s), np.arange(p, 0, -1)[:, None])]
    rows += [rng.integers(low, p + 1, (4, s)) for low in range(1, p + 1)]
    ks = np.vstack(rows)
    dropping_last = np.full((4, s), p)
    dropping_last[-1, 0] = max(1, p - 2)
    ends = np.vstack([np.full(s, p), np.full(s, max(1, p - 2))])
    return [ks, dropping_last, ends, np.full((2, s), p)]


@pytest.mark.parametrize("design", SWEEP_CORPUS.values(), ids=SWEEP_CORPUS.keys())
def test_engine_equals_the_batched_matmul_engine_bit_for_bit(design, monkeypatch):
    # the flat-index contrasts and the one-GEMM masked step give the
    # former engine's bits at every chunk budget, plan-only chunks and
    # chunks with n_l = 0 (the full truncation) included
    t = design.t
    z = info_module._plan(design)[0].copy()
    assert np.array_equal(z, _contrasts_by_loop(design))
    rng = np.random.default_rng(20071024)
    for ks in _engine_rows(design, rng):
        want = _joint_stack_by_batched_matmul(z, ks)
        assert np.array_equal(_engine_joint(design, ks), want)
        want = schur_complement(want, t)
        for budget in (1, info_module._CHUNK_BYTES, 1 << 30):
            monkeypatch.setattr(info_module, "_CHUNK_BYTES", budget)
            assert np.array_equal(direct_info_patterns(design, ks), want), budget
    empty = np.zeros((0, design.s), dtype=int)
    assert direct_info_patterns(design, empty).shape == (0, t, t)
    assert info_module._masked_gram(z[0], empty > 0, 1).shape == (0, 2 * t, 2 * t)


@pytest.mark.parametrize("design", SWEEP_CORPUS.values(), ids=SWEEP_CORPUS.keys())
def test_uniform_rows_equal_the_masked_route_bit_for_bit(design, monkeypatch):
    # uniform rows at every k in 1..p before, between and after mixed
    # rows: every row is read off the running sum at its own lowest
    # completion, and equals its B = 1 call and the former masked engine
    # at every chunk budget, signs of zeros included (k = 1, c22 = 0,
    # takes the eigh route)
    t, p, s = design.t, design.p, design.s
    uniform = np.repeat(np.arange(1, p + 1), s).reshape(p, s)
    rng = np.random.default_rng(20071026)
    mixed = rng.integers(max(1, p - 2), p + 1, (4, s))
    mixed[:, 0] = p - 1 if p > 1 else 1
    mixed[:, 1] = p
    ks = np.vstack([uniform, mixed[:2], uniform[::-1], mixed[2:], uniform])
    z = info_module._plan(design)[0].copy()
    want = schur_complement(_engine_joint(design, ks), t)
    singles = [direct_info_pattern(design, DropoutPattern(tuple(row))) for row in ks]
    for b, single in enumerate(singles):
        assert want[b].tobytes() == single.tobytes(), b
    for budget in (1, info_module._CHUNK_BYTES, 1 << 30):
        monkeypatch.setattr(info_module, "_CHUNK_BYTES", budget)
        assert direct_info_patterns(design, ks).tobytes() == want.tobytes(), budget
        got = direct_info_patterns(design, uniform)
        assert got.tobytes() == want[:p].tobytes(), budget
    got = info_module._plan(design)[1][ks[:p, 0] - 1]
    assert got.tobytes() == _joint_stack_by_batched_matmul(z, ks[:p]).tobytes()


@pytest.mark.parametrize("design", SWEEP_CORPUS.values(), ids=SWEEP_CORPUS.keys())
def test_masked_integer_parts_are_exact(design, monkeypatch):
    # every entry of Z is an integer with |z| <= p-1, so Z'DZ and S are
    # integers with |Z'DZ|, |S S'| <= s^2 (p-1)^2 < 2^53: the engine's
    # float GEMMs equal the int64 products whatever the BLAS blocking
    p, s = design.p, design.s
    z = info_module._plan(design)[0].copy()
    assert np.abs(z).max() <= p - 1
    assert (s * (p - 1)) ** 2 < 2**53
    zi = z.astype(np.int64)
    assert np.array_equal(zi, z)
    parts = []
    centred_gram = info_module._centred_gram

    def recording(gram, total, n, l):
        parts.append((gram.copy(), total.copy()))
        return centred_gram(gram, total, n, l)

    monkeypatch.setattr(info_module, "_centred_gram", recording)
    rng = np.random.default_rng(20071025)
    for l in range(1, p):
        seen = rng.random((5, s)) < rng.random((5, 1))
        parts.clear()
        info_module._masked_gram(z[l - 1], seen, l)
        [(gram, total)] = parts
        mask = seen.astype(np.int64)
        want_gram = (zi[l - 1].T * mask[:, None, :]) @ zi[l - 1]
        want_total = mask @ zi[l - 1]
        assert np.array_equal(gram, np.round(gram))
        assert np.array_equal(total, np.round(total))
        assert (gram.astype(np.int64) == want_gram).all()
        assert (total.astype(np.int64) == want_total).all()


def test_engine_threads_evaluate_in_their_own_scratch():
    # numpy's GEMMs and ufunc loops release the interpreter lock, so
    # threads sharing the engine's scratch would overwrite each other's
    # contrasts mid-call; each thread starts on its own design and takes
    # the others after it, so its scratch grows mid-run
    designs = [fixture("d3plan"), williams_pair(7), extreme_design(5), williams_pair(15)]
    rng = np.random.default_rng(20071027)
    rows = [rng.integers(max(1, d.p - 2), d.p + 1, (6, d.s)) for d in designs]
    refs = []
    for d, ks in zip(designs, rows):
        singles = [direct_info_pattern(d, DropoutPattern(tuple(k))) for k in ks]
        refs.append(np.array([direct_info_pattern(d), *singles]))
    start = threading.Barrier(len(designs), timeout=30)

    def evaluate(first):
        start.wait()
        order = [(first + i) % len(designs) for i in range(len(designs))] * 5
        return [(i, against_plan(designs[i], rows[i])[0]) for i in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(designs)) as pool:
            futures = [pool.submit(evaluate, i) for i in range(len(designs))]
            done = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for calls in done:
        for i, c in calls:
            assert c.tobytes() == refs[i].tobytes(), i


def _arrays(result):
    """Every value a result holds, through tuples and dataclasses."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, (tuple, list)):
        return [a for part in result for a in _arrays(part)]
    return [np.asarray(result)]


def test_engine_results_share_no_memory_with_the_scratch():
    # every result is a fresh array, never a view of a thread's scratch,
    # whose next call would overwrite it
    d = extreme_design(5)
    rng = np.random.default_rng(20071028)
    ks = rng.integers(d.p - 2, d.p + 1, (30, d.s))
    pattern = DropoutPattern(tuple(ks[0]))
    calls = [
        lambda: direct_info_patterns(d, ks),
        lambda: joint_info_projection(d, pattern).c,
        lambda: joint_info_projection(d).c,
        lambda: against_plan(d, ks),
        lambda: simulate(d, DropoutModel(2, (0.1, 0.2)), 50, keep_losses=True),
    ]
    for call in calls:
        result = call()
        buffers = list(vars(linalg_module._SCRATCH).values())
        assert buffers
        for value in _arrays(result):
            assert not any(np.shares_memory(value, buf) for buf in buffers)
    names = set(vars(linalg_module._SCRATCH))
    assert {"contrasts", "running", "masked", "philox"} <= names


def test_second_engine_call_allocates_no_contrasts():
    # after a first call, the contrasts of a same-design call are built
    # in the thread's scratch; what is left is the result and a chunk's
    # masks and Grams, well below one (p-1, s, 2t) float array
    d = extreme_design(6)
    rng = np.random.default_rng(20071029)
    ks = rng.integers(d.p - 2, d.p + 1, (14, d.s))
    direct_info_patterns(d, ks)
    tracemalloc.start()
    try:
        direct_info_patterns(d, ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (d.p - 1) * d.s * 2 * d.t


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
    via_mp = direct_info(cf)
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
        assert np.max(np.abs(cf.c - proj.c)) <= 1e-10, (name, m)


def _minimal_closed_form_by_loops(design, m):
    """minimal_closed_form's blocks with each sum of coincidence
    matrices accumulated pair by pair: the reference for the stacked sums."""
    t, g = design.t, design.g
    eye = np.eye(t)
    ones = np.ones((t, t))
    u = {
        (j, k): coincidence(design, j, k).astype(float)
        for j in range(m + 1)
        for k in range(m + 1)
    }
    sum_low = np.zeros((t, t))  # pairs j != k drawn from 0..m-1
    for j in range(m):
        for k in range(m):
            if j != k:
                sum_low += u[(j, k)]
    sum_full = np.zeros((t, t))  # pairs j != k drawn from 0..m
    for j in range(m + 1):
        for k in range(m + 1):
            if j != k:
                sum_full += u[(j, k)]
    sum_adj = np.zeros((t, t))  # consecutive pairs (j, j+1)
    for j in range(m):
        sum_adj += u[(j, j + 1)]
    sum_cross = np.zeros((t, t))  # j in 0..m-1 against all other k in 0..m
    for j in range(m):
        for k in range(m + 1):
            if k != j:
                sum_cross += u[(j, k)]
    q = t - m
    c11 = (g * (q * q - m) / q) * eye - (g * (t - 2 * m) / q) * ones - sum_low / q
    c22 = (g / q) * (
        (q * q - (t + 1)) * eye
        - ((q * q - (t + 1) - m * (m + 1)) / t) * ones
    ) - sum_full / q
    c12 = (g / q) * ((m + 1) * ones - t * eye) - sum_adj - sum_cross / q
    a_matrix = (g / q) * (q * q - (t + 1)) * eye - sum_full / q
    return {
        "c11": symmetrize(c11),
        "c12": c12,
        "c22": symmetrize(c22),
        "a_matrix": symmetrize(a_matrix),
    }


@pytest.mark.parametrize("m", [1, 2, 3])
def test_minimal_closed_form_matches_pairwise_sums_bit_for_bit(m):
    designs = dict(_designs_for_dual_path())
    designs.update({f"square{t}": williams_square(t) for t in (4, 8, 10)})
    designs.update({f"pair{t}": williams_pair(t) for t in (5, 7, 9)})
    designs["extreme5"] = extreme_design(5)
    checked = 0
    for name, d in designs.items():
        if not 1 <= m < d.t - 1:
            continue
        cf = minimal_closed_form(d, m)
        for block, want in _minimal_closed_form_by_loops(d, m).items():
            assert getattr(cf, block).tobytes() == want.tobytes(), (name, block)
        checked += 1
    assert checked >= 8


def _orthogonal_blocks_three_formulas(design):
    """joint_info_orthogonal's blocks with the count formula written once
    per block: the reference for the single stacked formula."""
    inc = incidences(design)
    p, s = design.p, design.s
    r_d = inc.r_d.astype(float)
    r_c = inc.r_c.astype(float)
    n_ds = inc.n_ds.astype(float)
    n_cs = inc.n_cs.astype(float)
    n_dp = inc.n_dp.astype(float)
    n_cp = inc.n_cp.astype(float)
    c11 = (
        np.diag(r_d)
        + np.outer(r_d, r_d) / (p * s)
        - (n_ds @ n_ds.T) / p
        - (n_dp @ n_dp.T) / s
    )
    c22 = (
        np.diag(r_c)
        + np.outer(r_c, r_c) / (p * s)
        - (n_cs @ n_cs.T) / p
        - (n_cp @ n_cp.T) / s
    )
    c12 = (
        inc.n_dc.astype(float)
        + np.outer(r_d, r_c) / (p * s)
        - (n_ds @ n_cs.T) / p
        - (n_dp @ n_cp.T) / s
    )
    return symmetrize(c11), c12, symmetrize(c22)


def _assembled(c11, c12, c22):
    """The joint matrix assembled from its blocks, lower block c12'."""
    return np.vstack([np.hstack([c11, c12]), np.hstack([c12.T, c22])])


def _residual_by_block_swap(c11, c12, c22):
    """residual_info on the swapped matrix assembled block by block."""
    swapped = np.block([[c22, c12.T], [c12, c11]])
    return schur_complement(swapped, c22.shape[0])


@pytest.mark.parametrize("design", SWEEP_CORPUS.values(), ids=SWEEP_CORPUS.keys())
def test_one_formula_joint_info_equals_three_block_forms_bit_for_bit(design):
    t = design.t
    for m in range(design.p - 1):
        cut = truncate(design, m) if m else design
        blocks = _orthogonal_blocks_three_formulas(cut)
        joint = joint_info_orthogonal(cut)
        assert np.array_equal(joint.c, _assembled(*blocks)), m
        assert np.array_equal(residual_info(joint), _residual_by_block_swap(*blocks)), m
        for name, block in zip(("c11", "c12", "c22"), blocks):
            view = getattr(joint, name)
            assert np.array_equal(view, block), (m, name)
            assert np.shares_memory(view, joint.c) and not view.flags.writeable
        proj = joint_info_projection(design, truncation(design, m) if m else None)
        assert np.array_equal(proj.c, proj.c.T), m
        if 1 <= m < t - 1:
            closed = minimal_closed_form(design, m)
            loops = _minimal_closed_form_by_loops(design, m)
            want = (loops["c11"], loops["c12"], loops["c22"])
            assert np.array_equal(closed.c, _assembled(*want)), m
            assert np.array_equal(
                residual_info(closed), _residual_by_block_swap(*want)
            ), m


def test_joint_info_takes_one_symmetric_2t_matrix():
    c = joint_info_orthogonal(fixture("d3plan")).c
    assert c.shape == (10, 10) and not c.flags.writeable
    odd = r"^expected a 2t x 2t matrix, got shape \(3, 3\)$"
    with pytest.raises(ValueError, match=odd):
        JointInfo(np.eye(3))
    with pytest.raises(ValueError, match=r"^matrix is not symmetric"):
        JointInfo(np.triu(np.ones((4, 4))))
    mine = np.array(c)
    JointInfo(mine)
    assert mine.flags.writeable


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


@pytest.mark.parametrize(
    "m, shown",
    [
        (10**30, "1" + "0" * 19 + "... (31 digits)"),
        (10**5000, "... (more than 4300 digits)"),
    ],
    ids=["31-digits", "5001-digits"],
)
def test_minimal_closed_form_range_error_is_short(m, shown):
    with pytest.raises(ValueError) as info:
        minimal_closed_form(fixture("d2plan"), m)
    assert str(info.value) == f"m={shown} out of range 1..2"


def _minimal_closed_form_by_coincidence(design, m):
    """The former minimal_closed_form, one coincidence call per pair of
    tail indices, (m+1)^2 in all: the reference for its one _pairs call."""
    t, g = design.t, design.g
    eye = np.eye(t)
    ones = np.ones((t, t))
    tail = range(m + 1)
    u = np.array([[coincidence(design, j, k) for k in tail] for j in tail], float)
    u[tail, tail] = 0
    sum_full = u.sum(axis=(0, 1))
    sum_low = u[:m, :m].sum(axis=(0, 1))
    sum_cross = u[:m].sum(axis=(0, 1))
    sum_adj = u[tail[:-1], tail[1:]].sum(axis=0)
    q = t - m
    c11 = (g * (q * q - m) / q) * eye - (g * (t - 2 * m) / q) * ones - sum_low / q
    c22 = (g / q) * (
        (q * q - (t + 1)) * eye
        - ((q * q - (t + 1) - m * (m + 1)) / t) * ones
    ) - sum_full / q
    c12 = (g / q) * ((m + 1) * ones - t * eye) - sum_adj - sum_cross / q
    a_matrix = (g / q) * (q * q - (t + 1)) * eye - sum_full / q
    return {
        "c": symmetrize(np.block([[c11, c12], [c12.T, c22]])),
        "a_matrix": symmetrize(a_matrix),
        "lambda_min_a": float((g / q) * (q * q - (t + 1) - m * (m + 1))),
        "a_inverse": np.linalg.inv(a_matrix) if t >= 2 * m + 2 else None,
    }


UBRMD_SWEEP = {k: d for k, d in SWEEP_CORPUS.items() if validate_ubrmd(d).ok}


@pytest.mark.parametrize("design", UBRMD_SWEEP.values(), ids=UBRMD_SWEEP.keys())
def test_minimal_closed_form_equals_coincidence_loop_bit_for_bit(design):
    # the tail counts are integers, so one stacked _pairs count moves no
    # bit of any field, at every tail length
    assert len(UBRMD_SWEEP) == len(SWEEP_CORPUS)
    for m in range(1, design.p - 1):
        cf = minimal_closed_form(design, m)
        want = _minimal_closed_form_by_coincidence(design, m)
        assert np.array_equal(cf.c, want["c"]), m
        assert np.array_equal(cf.a_matrix, want["a_matrix"]), m
        assert cf.lambda_min_a == want["lambda_min_a"], m
        if want["a_inverse"] is None:
            assert cf.a_inverse is None, m
        else:
            assert np.array_equal(cf.a_inverse, want["a_inverse"]), m


@pytest.mark.parametrize(
    "closed_form",
    [lambda d: minimal_closed_form(d, 1), residual_info_minimal_m1],
    ids=["minimal_closed_form", "residual_info_minimal_m1"],
)
def test_closed_forms_word_a_missing_tail_as_check_tail(closed_form):
    # a uniform-balanced design of two periods has no tail to drop
    p2 = CrossoverDesign(t=2, p=2, s=2, layout=[[0, 1], [1, 0]])
    assert validate_ubrmd(p2).ok
    with pytest.raises(ValueError) as want:
        check_tail(p2, 1)
    with pytest.raises(ValueError) as info:
        closed_form(p2)
    assert str(info.value) == str(want.value)


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

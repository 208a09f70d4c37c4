import sys

import numpy as np
import pytest

from xover.construct import fixture, replicate, williams_pair, williams_square
from xover.designs import CrossoverDesign
from xover.info import direct_info_pattern
from xover.metrics import a_criterion, implemented_loss, max_loss
from xover.simulate import DropoutModel, DropoutPattern, enumerate_exact, simulate

# the package re-exports the function simulate under the submodule's name
sim_module = sys.modules["xover.simulate"]


def test_model_validation():
    with pytest.raises(ValueError, match="m >= 1"):
        DropoutModel(0, ())
    with pytest.raises(ValueError, match="expected 2 hazards"):
        DropoutModel(2, (0.5,))
    with pytest.raises(ValueError, match="lie in \\[0, 1\\]"):
        DropoutModel(1, (1.5,))
    with pytest.raises(ValueError, match="lie in \\[0, 1\\]"):
        DropoutModel(2, (0.5, -0.1))


def test_deterministic_for_fixed_seed():
    d = williams_pair(5)
    model = DropoutModel(1, (0.4,))
    r1 = simulate(d, model, 64, seed=7, keep_losses=True)
    r2 = simulate(d, model, 64, seed=7, keep_losses=True)
    assert r1 == r2
    r3 = simulate(d, model, 64, seed=8, keep_losses=True)
    assert r3.losses != r1.losses


def test_zero_hazard_means_zero_loss():
    r = simulate(williams_square(6), DropoutModel(1, (0.0,)), 30, keep_losses=True)
    assert r.losses == (0.0,) * 30
    assert r.max_loss == 0.0
    assert r.p_disconnect == 0.0
    assert r.ordering_violations == 0


def test_certain_dropout_hits_worst_case_exactly():
    d = williams_pair(5)
    r = simulate(d, DropoutModel(1, (1.0,)), 50, keep_losses=True)
    # every replicate realizes the truncated design, bit for bit
    assert set(r.losses) == {r.ml}
    assert r.max_loss == r.ml
    assert not r.ml_disconnected
    assert all(v == r.ml for _, v in r.quantiles)
    assert r.ml == max_loss(d, 1).value


def test_certain_dropout_disconnected_design():
    r = simulate(fixture("d2plan"), DropoutModel(1, (1.0,)), 20, keep_losses=True)
    assert r.ml_disconnected
    assert r.ml == 1.0
    assert r.losses == (1.0,) * 20
    assert r.p_disconnect == 1.0


def test_losses_bounded_by_worst_case():
    d = replicate(williams_square(6), 2)
    r = simulate(d, DropoutModel(1, (0.5,)), 200, seed=2, keep_losses=True)
    assert r.ordering_violations == 0
    assert all(0.0 <= v <= r.ml + 1e-12 for v in r.losses)
    assert r.mean_loss <= r.ml + 1e-12
    qs = [v for _, v in r.quantiles]
    assert qs == sorted(qs)
    assert [q for q, _ in r.quantiles] == [0.5, 0.9, 0.99]


def test_losses_omitted_by_default():
    r = simulate(williams_square(4), DropoutModel(1, (0.3,)), 10)
    assert r.losses is None
    assert r.replicates == 10


def test_hazard_chain_stops_at_first_firing():
    d = williams_square(8)
    # first hazard certain: everyone completes exactly p-2 periods
    r = simulate(d, DropoutModel(2, (1.0, 0.0)), 20, seed=3, keep_losses=True)
    ml2 = max_loss(d, 2)
    assert not ml2.disconnected
    assert set(r.losses) == {r.ml}
    assert r.ml == pytest.approx(ml2.value, abs=1e-12)
    # first hazard never fires, second always: one-period dropout for all
    r2 = simulate(d, DropoutModel(2, (0.0, 1.0)), 20, seed=3, keep_losses=True)
    assert 0.0 < r2.losses[0] < r.ml
    assert r2.ordering_violations == 0


def test_two_period_hazards_stay_ordered():
    d = williams_square(8)
    r = simulate(d, DropoutModel(2, (0.3, 0.6)), 100, seed=11, keep_losses=True)
    assert r.ordering_violations == 0
    assert all(0.0 <= v <= r.ml + 1e-12 for v in r.losses)


def test_simulate_argument_errors():
    d = williams_pair(5)
    with pytest.raises(ValueError, match="n >= 1"):
        simulate(d, DropoutModel(1, (0.5,)), 0)
    with pytest.raises(ValueError, match="out of range 1..3"):
        simulate(d, DropoutModel(4, (0.5,) * 4), 10)
    broken = CrossoverDesign(t=3, p=3, s=3, layout=np.zeros((3, 3), dtype=int))
    with pytest.raises(ValueError, match="not uniform-balanced"):
        simulate(broken, DropoutModel(1, (0.5,)), 10)


def test_seed_range():
    d = williams_pair(5)
    model = DropoutModel(1, (0.3,))
    for seed in (-1, 2**64):
        with pytest.raises(ValueError) as info:
            simulate(d, model, 5, seed=seed)
        assert str(info.value) == (
            f"seed must lie in 0..18446744073709551615, got {seed}"
        )
    top = simulate(d, model, 5, seed=2**64 - 1, keep_losses=True)
    assert top.losses == _oracle_losses(d, model, 5, 2**64 - 1)


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("k", [1, 7, 10, 60])
def test_philox_stream_matches_numpy(seed, k):
    # 1092 and 6553 replicates fill one chunk of 2**16 uniforms at k = 60
    # and k = 10, so these rows sit on both sides of simulate's chunk edge
    rs = np.array(
        [0, 1, 2, 3, 17, 1091, 1092, 1093, 2048, 4999, 6552, 6553, 6554],
        dtype=np.uint64,
    )
    u = sim_module._philox_uniforms(seed, rs, k)
    assert u.shape == (rs.size, k)
    for row, r in zip(u, rs):
        key = np.array([seed, r], dtype=np.uint64)
        ref = np.random.Generator(np.random.Philox(key=key)).random(k)
        np.testing.assert_array_equal(row.view(np.uint64), ref.view(np.uint64))


def _oracle_losses(design, model, n, seed):
    """Losses by the per-replicate route: one Generator per replicate."""
    p, s, m = design.p, design.s, model.m
    plan = a_criterion(direct_info_pattern(design), design.t)
    by_pattern = {}
    losses = []
    for r in range(n):
        key = np.array([seed, r], dtype=np.uint64)
        u = np.random.Generator(np.random.Philox(key=key)).random((s, m))
        completion = []
        for i in range(s):
            fired = [j for j in range(m) if u[i, j] < model.hazards[j]]
            completion.append(p - m + fired[0] if fired else p)
        completion = tuple(completion)
        if completion not in by_pattern:
            c_imp = direct_info_pattern(design, DropoutPattern(completion))
            by_pattern[completion] = implemented_loss(
                plan, a_criterion(c_imp, design.t)
            )[0]
        losses.append(by_pattern[completion])
    return tuple(losses)


@pytest.mark.parametrize(
    "design, model, n, seed",
    [
        (fixture("d3plan"), DropoutModel(1, (0.05,)), 7000, 0),
        (williams_pair(5), DropoutModel(1, (0.3,)), 300, 3),
        (williams_pair(7), DropoutModel(2, (0.3, 0.6)), 120, 11),
        (williams_pair(5), DropoutModel(1, (0.0,)), 40, 2**64 - 1),
        (williams_pair(5), DropoutModel(1, (1.0,)), 40, 2**63 + 5),
    ],
    ids=["d3plan", "pair5", "pair7-m2", "hazard0", "hazard1"],
)
def test_batched_pipeline_matches_per_replicate_route(
    design, model, n, seed, monkeypatch
):
    # d3plan with n=7000 spans two default chunks of 6553 replicates
    expected = _oracle_losses(design, model, n, seed)
    result = simulate(design, model, n, seed=seed, keep_losses=True)
    assert result.losses == expected
    assert result.mean_loss == float(np.mean(expected))
    # chunks of a few replicates give the same result
    monkeypatch.setattr(sim_module, "_CHUNK_UNIFORMS", 50)
    assert simulate(design, model, n, seed=seed, keep_losses=True) == result


def test_enumerate_exact_d2plan():
    ex = enumerate_exact(fixture("d2plan"), 0.5)
    assert ex.losses.shape == (16,)
    assert ex.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert ex.losses[0] == 0.0  # nobody drops
    assert ex.losses[15] == 1.0  # everyone drops: truncated, disconnected
    for mask in (1, 2, 4, 8):  # single dropout keeps contrasts estimable
        assert ex.losses[mask] < 1.0
    assert ex.p_disconnect == pytest.approx(11 / 16, abs=1e-12)
    assert ex.mean_loss == pytest.approx(float(ex.losses @ ex.probabilities))


def test_enumerate_exact_skewed_hazard():
    ex = enumerate_exact(fixture("d2plan"), 0.25)
    assert ex.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert ex.probabilities[0] == pytest.approx(0.75**4, abs=1e-15)
    assert ex.probabilities[15] == pytest.approx(0.25**4, abs=1e-15)
    assert 0.0 < ex.mean_loss < 1.0


def test_enumerate_exact_errors():
    with pytest.raises(ValueError, match="requires m=1"):
        enumerate_exact(fixture("d2plan"), 0.5, m=2)
    with pytest.raises(ValueError, match="s <= 20"):
        enumerate_exact(replicate(williams_square(4), 6), 0.5)
    with pytest.raises(ValueError, match="lie in \\[0, 1\\]"):
        enumerate_exact(fixture("d2plan"), 1.5)


def test_monte_carlo_agrees_with_enumeration():
    d = williams_pair(5)
    hazard = 0.3
    exact = enumerate_exact(d, hazard)
    mc = simulate(d, DropoutModel(1, (hazard,)), 3000, seed=1, keep_losses=True)
    se = np.std(mc.losses, ddof=1) / np.sqrt(mc.replicates)
    assert abs(mc.mean_loss - exact.mean_loss) <= 3 * se + 1e-12
    assert exact.p_disconnect == 0.0
    assert mc.p_disconnect == 0.0


def test_pattern_type_reexported():
    # the module works with the same pattern type the info layer uses
    assert DropoutPattern((5, 5, 4, 4, 5, 5, 4, 4, 5, 5)).completion[2] == 4

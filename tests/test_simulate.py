import dataclasses
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from xover.construct import (
    FIXTURE_NAMES,
    extreme_design,
    fixture,
    replicate,
    williams_pair,
    williams_square,
)
from xover.designs import CrossoverDesign, DropoutPattern, truncation
from xover.info import direct_info_pattern
from xover.linalg import _helmert, is_psd
from xover.metrics import (
    a_criteria,
    a_criterion,
    against_plan,
    implemented_losses,
    max_loss,
)
from xover.simulate import (
    MAX_N,
    ORDER_TOL,
    DropoutModel,
    check_seed,
    enumerate_exact,
    simulate,
)

# the package re-exports the function simulate under the submodule's name
sim_module = sys.modules["xover.simulate"]
linalg_module = sys.modules["xover.linalg"]


def test_model_validation():
    with pytest.raises(ValueError, match="m >= 1"):
        DropoutModel(0, ())
    with pytest.raises(ValueError, match="expected 2 hazards"):
        DropoutModel(2, (0.5,))
    with pytest.raises(ValueError, match="lie in \\[0, 1\\]"):
        DropoutModel(1, (1.5,))
    with pytest.raises(ValueError, match="lie in \\[0, 1\\]"):
        DropoutModel(2, (0.5, -0.1))
    for hazard in ("0.3", True, None):
        with pytest.raises(ValueError) as info:
            DropoutModel(1, (hazard,))
        kind = type(hazard).__name__
        assert str(info.value) == f"hazard must be a real number, got {kind}"
    assert DropoutModel(2, (np.float32(0.5), np.int64(1))).hazards == (0.5, 1.0)


@pytest.mark.parametrize(
    "m, message",
    [
        (-(10**5000), "requires m >= 1, got m=-... (more than 4300 digits)"),
        (10**5000, "expected ... (more than 4300 digits) hazards, got 0"),
        (10**4300, "expected ... (more than 4300 digits) hazards, got 0"),
        (
            10**4300 - 1,
            "expected 99999999999999999999... (4300 digits) hazards, got 0",
        ),
    ],
    ids=["negative", "positive", "4301-digits", "4300-digits"],
)
def test_model_words_m_beyond_the_str_digit_limit(m, message):
    # str() refuses more than 4300 digits; the message still names m
    with pytest.raises(ValueError) as info:
        DropoutModel(m=m, hazards=())
    assert str(info.value) == message


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


def test_n_limit():
    # rejected before any array of n entries is sized
    d = williams_pair(5)
    for n, shown in (
        (MAX_N + 1, "10000001"),
        (10**40, "10000000000000000000... (41 digits)"),
    ):
        with pytest.raises(ValueError) as info:
            simulate(d, DropoutModel(1, (0.5,)), n)
        assert str(info.value) == f"requires n <= 10000000, got n={shown}"


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
    x = sim_module._philox_uniforms(seed, rs, k)
    assert x.shape == (rs.size, k) and x.dtype == np.uint64
    assert (x < 2**53).all()
    for row, r in zip(x * 2.0**-53, rs):
        key = np.array([seed, r], dtype=np.uint64)
        ref = np.random.Generator(np.random.Philox(key=key)).random(k)
        np.testing.assert_array_equal(row.view(np.uint64), ref.view(np.uint64))


def _numpy_uniforms(seed, n, k):
    """numpy's first k uniforms of the Philox streams keyed by (seed, r),
    r in 0..n-1, one Generator per stream."""
    return np.array(
        [
            np.random.Generator(
                np.random.Philox(key=np.array([seed, r], dtype=np.uint64))
            ).random(k)
            for r in range(n)
        ]
    ).reshape(n, k)


def test_philox_workspace_grows_shrinks_and_regrows():
    # a fresh thread starts with no workspace: the second call grows it,
    # and the smaller and mid-sized calls after it reuse the same buffer
    sizes = ((20, 60), (6553, 10), (3, 5), (1093, 60))

    def draw():
        out = []
        for n, k in sizes:
            for seed in (0, 2**64 - 1):
                x = sim_module._philox_uniforms(
                    seed, np.arange(n, dtype=np.uint64), k
                )
                out.append((seed, n, k, x, linalg_module._SCRATCH.philox))
        return out

    with ThreadPoolExecutor(max_workers=1) as pool:
        calls = pool.submit(draw).result(timeout=60)
    for seed, n, k, x, _ in calls:
        assert x.shape == (n, k)
        np.testing.assert_array_equal(x * 2.0**-53, _numpy_uniforms(seed, n, k))
    held = [words for *_, words in calls]
    assert held[0] is held[1] and held[1] is not held[2]
    assert all(words is held[2] for words in held[3:])


def test_philox_threads_draw_their_own_streams():
    # numpy's ufunc loops release the interpreter lock, so threads sharing
    # round buffers would overwrite each other's words mid-round
    seeds = (0, 1, 2**63 + 5, 2**64 - 1)
    sizes = ((500, 10), (20, 60))
    refs = {
        (seed, n, k): _numpy_uniforms(seed, n, k) for seed in seeds for n, k in sizes
    }
    start = threading.Barrier(len(seeds), timeout=30)

    def draw(seed):
        start.wait()
        return [
            sim_module._philox_uniforms(seed, np.arange(n, dtype=np.uint64), k)
            for _ in range(10)
            for n, k in sizes
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
            futures = [pool.submit(draw, seed) for seed in seeds]
            drawn = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for seed, xs in zip(seeds, drawn):
        for x in xs:
            np.testing.assert_array_equal(x * 2.0**-53, refs[(seed, *x.shape)])


def test_philox_rounds_allocate_no_round_buffers():
    # after a warm-up call, the rounds of a same-size call run in the
    # thread's workspace; what is left is the result and a few small
    # arrays, well below six (2, blocks) uint64 buffers
    rs = np.arange(2000, dtype=np.uint64)
    blocks = rs.size * 3
    sim_module._philox_uniforms(1, rs, 10)
    tracemalloc.start()
    try:
        sim_module._philox_uniforms(1, rs, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 16 * blocks


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: simulate(williams_pair(5), DropoutModel(1, (0.3,)), 50, seed=3.7),
            "seed must be an integer, got float",
        ),
        (lambda: check_seed(3.7), "seed must be an integer, got float"),
        (lambda: check_seed("3"), "seed must be an integer, got str"),
        (
            lambda: simulate(williams_pair(5), DropoutModel(1, (0.3,)), 50.5),
            "n must be an integer, got float",
        ),
        (
            lambda: simulate(williams_pair(5), DropoutModel(1, (0.3,)), True),
            "n must be an integer, got bool",
        ),
        (lambda: DropoutModel(1.5, (0.3,)), "m must be an integer, got float"),
        (
            lambda: DropoutModel(np.float64(1), (0.3,)),
            "m must be an integer, got float64",
        ),
    ],
    ids=["seed", "check_seed", "check_seed-str", "n", "n-bool", "m", "m-float64"],
)
def test_non_integer_argument_is_rejected(call, message):
    # a float seed would otherwise run the streams of its integer part
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_numpy_integer_arguments_are_accepted():
    d = williams_pair(5)
    want = simulate(d, DropoutModel(1, (0.3,)), 40, seed=3, keep_losses=True)
    model = DropoutModel(np.int64(1), (0.3,))
    got = simulate(d, model, np.int32(40), seed=np.uint64(3), keep_losses=True)
    assert got == want
    assert type(model.m) is int and type(got.replicates) is int


@pytest.mark.parametrize("m", [1, 3])
def test_integer_hazard_compare_matches_float_compare(m):
    # x 2**-53 < h against x < ceil(h 2**53): h = 0 never fires, h = 1
    # always does, and on the 2**-53 grid a uniform equal to h does not
    # fire, where <= would
    grid = np.array([0, 1, 2, 2**52, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
    hazards_cases = [0.0, 1.0, 2.0**-53, 3 * 2.0**-53, 0.5, 1 - 2.0**-53, 0.3, 1e-300]
    rng = np.random.default_rng(m)
    for h in hazards_cases:
        x = np.concatenate([grid, rng.integers(0, 2**53, 200, dtype=np.uint64)])
        x = np.resize(x, (len(x) // m, 1, m))
        hazards = np.full(m, h)
        rows, inverse = sim_module._distinct_completions(x, hazards, m + 2)
        fired = x * 2.0**-53 < hazards
        want = np.where(fired.any(axis=2), 2 + fired.argmax(axis=2), m + 2)
        assert np.array_equal(rows[inverse], want), h
    # the grid points themselves: x = 2 fires at h = 3 2**-53, not at 2 2**-53
    x = np.array([[[2]]], dtype=np.uint64)
    for h, fires in ((2 * 2.0**-53, False), (3 * 2.0**-53, True)):
        rows, _ = sim_module._distinct_completions(x, np.array([h]), 3)
        assert rows[0, 0] == (2 if fires else 3)


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
            imp = a_criterion(c_imp, design.t)
            by_pattern[completion] = implemented_losses(
                plan.trace_mp, np.array([imp.trace_mp]), np.array([imp.connected])
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


@pytest.mark.parametrize(
    "design",
    [williams_pair(5), replicate(williams_square(6), 2)],
    ids=["pair5", "square6x2"],
)
def test_enumerate_exact_ends_are_plan_and_worst_case(design):
    losses = enumerate_exact(design, 0.3).losses
    assert losses[0] == 0.0  # nobody drops
    assert losses[-1] == max_loss(design, 1).value  # everyone drops, bit for bit


def test_enumerate_exact_makes_no_ordering_check(monkeypatch):
    # every mask is a distinct pattern, and no verdict of enumeration
    # reads the information ordering
    def _no_check(*args, **kwargs):
        raise AssertionError("is_psd was called")

    for name, module in list(sys.modules.items()):
        if (name == "xover" or name.startswith("xover.")) and hasattr(module, "is_psd"):
            monkeypatch.setattr(module, "is_psd", _no_check)
    assert enumerate_exact(williams_pair(5), 0.3).losses.shape == (1024,)


def test_enumerate_exact_skewed_hazard():
    ex = enumerate_exact(fixture("d2plan"), 0.25)
    assert ex.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert ex.probabilities[0] == pytest.approx(0.75**4, abs=1e-15)
    assert ex.probabilities[15] == pytest.approx(0.25**4, abs=1e-15)
    assert 0.0 < ex.mean_loss < 1.0


@pytest.mark.parametrize(
    "m, shown",
    [
        (10**30, "1" + "0" * 19 + "... (31 digits)"),
        (10**5000, "... (more than 4300 digits)"),
    ],
    ids=["31-digits", "5001-digits"],
)
def test_enumerate_exact_m_error_is_short(m, shown):
    with pytest.raises(ValueError) as info:
        enumerate_exact(fixture("d2plan"), 0.5, m=m)
    assert str(info.value) == f"exact enumeration requires m=1, got m={shown}"


@pytest.mark.parametrize(
    "m, name",
    [(True, "bool"), (1.0, "float"), (1.5, "float")],
    ids=["True", "1.0", "1.5"],
)
def test_enumerate_exact_m_must_be_an_integer(m, name):
    # a bool or float m is rejected by type before its value is read, as
    # check_tail and DropoutModel reject it
    with pytest.raises(ValueError) as info:
        enumerate_exact(fixture("d2plan"), 0.5, m=m)
    assert str(info.value) == f"m must be an integer, got {name}"
    # a numpy integer is an integer
    got = enumerate_exact(fixture("d2plan"), 0.5, m=np.int64(1))
    assert np.array_equal(got.losses, enumerate_exact(fixture("d2plan"), 0.5).losses)


def test_enumerate_exact_errors():
    with pytest.raises(ValueError, match="requires m=1"):
        enumerate_exact(fixture("d2plan"), 0.5, m=2)
    with pytest.raises(ValueError, match="s <= 20"):
        enumerate_exact(replicate(williams_square(4), 6), 0.5)
    with pytest.raises(ValueError, match="lie in \\[0, 1\\]"):
        enumerate_exact(fixture("d2plan"), 1.5)
    for hazard in ("0.3", None, [0.3], True):
        with pytest.raises(ValueError) as info:
            enumerate_exact(fixture("d2plan"), hazard)
        kind = type(hazard).__name__
        assert str(info.value) == f"hazard must be a real number, got {kind}"


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


# the certificate corpus: every fixture and a spread of generated designs
CORPUS = [fixture(name) for name in FIXTURE_NAMES] + [
    williams_pair(5),
    williams_pair(7),
    williams_pair(15),
    williams_square(4),
    williams_square(6),
    extreme_design(4),
    extreme_design(5),
]
# the last two force dropout in the first tail period, the truncation
# itself, which disconnects d1plan and d2plan
HAZARDS = ((0.1, 0.1, 0.1), (0.5, 0.3, 0.6), (1.0, 0.5, 0.5), (1.0, 1.0, 1.0))


def _sandwich_by_is_psd(c):
    """Both halves of every pattern's sandwich, each by its own is_psd."""
    return np.array(
        [is_psd(c[0] - c[b], ORDER_TOL) and is_psd(c[b] - c[1], ORDER_TOL)
         for b in range(2, len(c))],
        dtype=bool,
    )


def _stack_for(design, m, hazards, n, seed):
    u = sim_module._philox_uniforms(
        seed, np.arange(n, dtype=np.uint64), design.s * m
    ).reshape(n, design.s, m)
    rows, inverse = sim_module._distinct_completions(
        u, np.array(hazards[:m]), design.p
    )
    tail = np.full((1, design.s), design.p - m)
    return against_plan(design, np.concatenate([tail, rows])), inverse


def _corpus_stacks():
    """The against_plan stack of every CORPUS design, m = 1..3 and hazard
    chain k, over 30 replicates of seed k, with each replicate's row."""
    for design in CORPUS:
        for m in range(1, min(3, design.p - 2) + 1):
            for k, hazards in enumerate(HAZARDS):
                (c, crit, _, _), inverse = _stack_for(design, m, hazards, 30, k)
                yield design, m, k, c, crit, inverse


def _sandwich_pairs(c):
    """upper and lower rows of both halves of every pattern's sandwich."""
    b = len(c) - 2
    upper = np.r_[np.zeros(b, dtype=int), np.arange(2, b + 2)]
    lower = np.r_[np.arange(2, b + 2), np.ones(b, dtype=int)]
    return upper, lower


def _certified_pass_is_psd(c, vals):
    """How many differences _loewner_certified certifies, asserting that
    each passes is_psd on its Helmert contrasts, and how many it saw."""
    upper, lower = _sandwich_pairs(c)
    ok = sim_module._loewner_certified(vals, upper, lower)
    h = _helmert(c.shape[-1])
    assert is_psd(h.T @ ((c[upper[ok]] - c[lower[ok]]) @ h), ORDER_TOL).all()
    return int(ok.sum()), ok.size


def test_ordering_certificate_matches_is_psd_on_corpus():
    certified = pairs = 0
    for design, m, k, c, crit, inverse in _corpus_stacks():
        hazards = HAZARDS[k]
        expected = _sandwich_by_is_psd(c)
        got = sim_module._ordering_ok(c, crit.eigenvalues)
        assert np.array_equal(got, expected), (design.s, m, hazards)
        result = simulate(design, DropoutModel(m, hazards[:m]), 30, seed=k)
        assert result.ordering_violations == int((~expected[inverse]).sum())
        # a certified difference is one is_psd passes
        ok, seen = _certified_pass_is_psd(c, crit.eigenvalues)
        certified += ok
        pairs += seen
    # the certificate settles most differences by itself
    assert certified > pairs // 2


@pytest.mark.parametrize("g", [1, 100, 10**4])
def test_ordering_certificate_holds_at_large_g(g):
    # the corpus stacks scaled as g replicates of each design scale them:
    # the certificate's margins scale with the spectra, so it certifies
    # as much at g = 10**4 as at g = 1, and stays sound
    certified = pairs = 0
    for design, m, k, c, _, _ in _corpus_stacks():
        c = g * c
        vals = a_criteria(c, design.t).eigenvalues
        got = sim_module._ordering_ok(c, vals)
        assert np.array_equal(got, _sandwich_by_is_psd(c)), (design.s, m, k)
        ok, seen = _certified_pass_is_psd(c, vals)
        certified += ok
        pairs += seen
    assert certified > pairs // 2


def _near_tolerance_stack(design, lows):
    """Plan, truncation and two patterns per entry x of lows, each
    with the plan minus it having smallest eigenvalue -x."""
    (c, _, _, _), _ = _stack_for(design, 1, (1.0,), 1, 0)
    plan, tail = c[0], c[1]
    t = design.t
    h = _helmert(t)
    v = np.zeros(t)
    v[:2] = (1.0, -1.0)
    dense = h.sum(axis=1)
    patterns = []
    for x in lows:
        # above the plan along a contrast: the first two treatments' one,
        # and the sum of all Helmert contrasts, which touches every entry
        for w in (v, dense):
            b = plan + x * np.outer(w, w) / (w @ w)
            patterns.append((b + b.T) / 2)
    return np.stack([plan, tail, *patterns])


@pytest.mark.parametrize(
    "design", [fixture("d3plan"), williams_pair(15), extreme_design(4)],
    ids=["d3plan", "pair15", "extreme4"],
)
def test_ordering_certificate_near_tolerance(design):
    steps = np.arange(-4, 5) * 2.5e-13
    c = _near_tolerance_stack(design, ORDER_TOL + steps)
    low = np.linalg.eigvalsh(c[0] - c[2:])[:, 0]
    assert np.abs(low + ORDER_TOL).max() <= 1e-12 + 1e-15
    assert (low < -ORDER_TOL).any() and (low >= -ORDER_TOL).any()
    h = _helmert(design.t)
    vals = np.linalg.eigvalsh(h.T @ c @ h)
    assert np.array_equal(sim_module._ordering_ok(c, vals), _sandwich_by_is_psd(c))


def test_real_violation_is_counted(monkeypatch):
    # the first distinct pattern of the chunk replaced by the plan pushed
    # 1e-6 above itself along a contrast
    against = sim_module.against_plan
    first = []

    def raised(design, rows):
        c, crit, losses, disconnected = against(design, rows)
        v = np.zeros(design.t)
        v[:2] = (1.0, -1.0)
        c = c.copy()
        c[2] = c[0] + 1e-6 * np.outer(v, v) / 2
        first.append(np.asarray(rows)[1])
        crit = dataclasses.replace(crit, eigenvalues=np.linalg.eigvalsh(c))
        return c, crit, losses, disconnected

    monkeypatch.setattr(sim_module, "against_plan", raised)
    d = williams_pair(5)
    model = DropoutModel(1, (0.3,))
    r = simulate(d, model, 50, seed=4)
    (row,) = first
    x = sim_module._philox_uniforms(4, np.arange(50, dtype=np.uint64), d.s)
    hits = int(((x * 2.0**-53 < 0.3) == (row < d.p)).all(axis=1).sum())
    assert hits >= 1
    assert r.ordering_violations == hits


def _verdict_counts_per_replicate(design, model, n, seed):
    """p_disconnect and ordering_violations as the former simulate counted
    them: each distinct pattern's verdicts copied into two n-long arrays
    of per-replicate flags, then summed."""
    sim = sim_module
    tail = np.array([truncation(design, model.m).completion])
    s, p, m = design.s, design.p, model.m
    disconnected = np.empty(n, dtype=bool)
    ordering_ok = np.empty(n, dtype=bool)
    step = max(1, sim._CHUNK_UNIFORMS // (s * m))
    for start in range(0, n, step):
        stop = min(n, start + step)
        rs = np.arange(start, stop, dtype=np.uint64)
        x = sim._philox_uniforms(seed, rs, s * m).reshape(-1, s, m)
        distinct, inverse = sim._distinct_completions(x, np.array(model.hazards), p)
        c, crit, _, chunk_disconnected = sim.against_plan(
            design, np.concatenate([tail, distinct])
        )
        disconnected[start:stop] = chunk_disconnected[2:][inverse]
        ordering_ok[start:stop] = sim._ordering_ok(c, crit.eigenvalues)[inverse]
    return int(disconnected.sum()) / n, int(n - ordering_ok.sum())


def _plan_above_first_pattern(against):
    """against_plan with each chunk's first distinct pattern replaced by
    the plan pushed 1e-6 above itself along a contrast: an ordering
    violation for every replicate that drew it."""

    def raised(design, rows):
        c, crit, losses, disconnected = against(design, rows)
        v = np.zeros(design.t)
        v[:2] = (1.0, -1.0)
        c = c.copy()
        c[2] = c[0] + 1e-6 * np.outer(v, v) / 2
        crit = dataclasses.replace(crit, eigenvalues=np.linalg.eigvalsh(c))
        return c, crit, losses, disconnected

    return raised


@pytest.mark.parametrize("budget", [50, sim_module._CHUNK_UNIFORMS, 1 << 30])
@pytest.mark.parametrize(
    "name, model, n, raise_first",
    [
        ("d2plan", DropoutModel(1, (0.5,)), 300, False),
        ("d2plan", DropoutModel(1, (1.0,)), 300, False),
        ("pair5", DropoutModel(2, (0.2, 0.3)), 300, False),
        ("pair5", DropoutModel(1, (0.3,)), 300, True),
        ("d3plan", DropoutModel(1, (0.05,)), 20000, False),
    ],
    ids=["d2plan-h05", "d2plan-h1", "pair5-m2", "pair5-violations", "d3plan-n20000"],
)
def test_verdict_counts_equal_per_replicate_oracle(
    name, model, n, raise_first, budget, monkeypatch
):
    # each distinct pattern's flags, counted once and weighted by its
    # replicates, give the per-replicate arrays' sums at every chunking
    design = williams_pair(5) if name == "pair5" else fixture(name)
    monkeypatch.setattr(sim_module, "_CHUNK_UNIFORMS", budget)
    if raise_first:
        raised = _plan_above_first_pattern(sim_module.against_plan)
        monkeypatch.setattr(sim_module, "against_plan", raised)
    got = simulate(design, model, n, seed=3)
    p_disconnect, violations = _verdict_counts_per_replicate(design, model, n, 3)
    assert got.p_disconnect == p_disconnect
    assert got.ordering_violations == violations
    if name == "d2plan":
        assert p_disconnect > 0
    assert (violations > 0) == raise_first


def _void_key_rows(u, hazards, p):
    """Completion rows and their dedupe by one void key per row."""
    n, s, m = u.shape
    fired = u < hazards
    rows = np.where(fired.any(axis=2), p - m + fired.argmax(axis=2), p)
    keys = rows.view(np.dtype((np.void, rows.itemsize * s))).ravel()
    distinct, inverse = np.unique(keys, return_inverse=True)
    return rows, distinct.view(rows.dtype).reshape(-1, s), inverse.ravel()


def _decoded_key_rows(x, hazards, p):
    """The packed keys' distinct rows, decoded from the keys by shifts and
    a mask, and each replicate's index among them: the order contract of
    _distinct_completions, which reads its rows back from the digits."""
    n, s, m = x.shape
    cuts = np.ceil(hazards * 2.0**53).astype(np.uint64)
    bits = m.bit_length()
    per = min(s, 64 // bits)
    words = -(-s // per)
    digits = np.zeros((n, words * per), dtype=np.uint64)
    for j in range(m - 1, -1, -1):
        np.copyto(digits[:, :s], m - j, where=x[..., j] < cuts[j])
    shifts = np.arange(per, dtype=np.uint64) * np.uint64(bits)
    keys = digits.reshape(n, words, per) @ (np.uint64(1) << shifts)
    if words > 1:
        keys = keys.view(np.dtype((np.void, 8 * words)))
    distinct, inverse = np.unique(keys.ravel(), return_inverse=True)
    fields = distinct.view(np.uint64).reshape(-1, words, 1) >> shifts
    fields &= np.uint64((1 << bits) - 1)
    rows = p - fields.reshape(len(distinct), -1)[:, :s].astype(np.intp)
    return rows, inverse.ravel()


@pytest.mark.parametrize(
    "s, m",
    [(s, m) for s in (1, 32, 33, 63, 64, 65, 720) for m in (1, 2, 3, 4)]
    + [(16, 8), (17, 8)],
)
def test_packed_keys_match_void_keys(m, s):
    # one to four bits a digit put the word edges at 64, 32, 21 and 16
    # digits
    p = m + 2
    rng = np.random.default_rng(1000 * m + s)
    for n, hazard in ((300, 0.3 / s), (200, 0.5)):
        u = rng.random((n, s, m))
        hazards = np.full(m, hazard)
        rows, ref, ref_inverse = _void_key_rows(u, hazards, p)
        # the generator's uniforms are multiples of 2**-53, so the
        # scaled integers are exact
        x = (u * 2.0**53).astype(np.uint64)
        got, inverse = sim_module._distinct_completions(x, hazards, p)
        assert got.dtype == np.intp and inverse.shape == (n,)
        assert np.array_equal(got[inverse], rows)
        assert np.array_equal(ref[ref_inverse], rows)
        assert len(got) == len(ref)
        assert sorted(map(tuple, got)) == sorted(map(tuple, ref))
        decoded, decoded_inverse = _decoded_key_rows(x, hazards, p)
        assert np.array_equal(got, decoded)
        assert np.array_equal(inverse, decoded_inverse)

"""Monte Carlo ensemble generation and empirical estimators."""

import collections
import dataclasses
import fractions
import hashlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netentropy import channel, entropy, geometry, simulator
from netentropy.channel import ChannelParams
from netentropy.simulator import (
    SimConfig,
    SimulationError,
    TrajectoryTally,
    edge_pairs,
    empirical_block_entropy,
    empirical_transition_frequencies,
    export_snapshots,
    simulate,
    simulate_pieces,
    stationarity_check,
)

SQ = geometry.SQUARE
FROZEN = ChannelParams(r0=0.7, eta=2.0, nu=0.0, B=12e6)
# fast fading: chains flip every few steps, so state digests see the stepping
FAST = ChannelParams(r0=0.7, eta=2.0, nu=20000.0, B=1e6)

# sha256 of (positions, distances, states) of simulate(SimConfig(n, t_steps,
# trials, seed, domain, FAST), initial_state), recorded with the per-trial
# simulator this batched one replaced (numpy 2.4, x86-64).  Keys are
# (domain, initial_state, n, t_steps, trials, seed).
GOLDEN_SIMULATE = {
    ("square", "stationary", 6, 9, 5, 424242): (
        "8786f07bb8efcc9ec3b913c4d4d5a7e6dc9246813beb41e7f23bdc3e2c099248",
        "7ba8a85e223ee0ec0d22530c10d3ebe89769e2bdcedda5a8fa506db72e8ad005",
        "bce75ba36c56240b9a02a32696b5b2bc169c66e1f6d131b79aa8417221beef96"),
    ("square", "all_off", 2, 1, 3, 0): (
        "084aba8d1fc9a76d83bf01d2c6b51fca9041a8ac80df6e30b4756fbd77d5000a",
        "f681afd008d20a1524dcc2b7d36616a132e4005a1c7845da67175e2f105edf5c",
        "709e80c88487a2411e1ee4dfb9f22a861492d20c4765150c0c794abd70f8147c"),
    ("square", "all_on", 5, 13, 4, 2 ** 64 - 7): (
        "d7245e8e3144dafe4272d0cc1c988154750485846124c54307870719747a7c0d",
        "9ee57d42d13304e00ed71a86b1c4b215d1204ba5ace09e099704a7735ea94d0f",
        "458e89ad6a485d7746180035961ff3e46cb32cb133c6b09bb9cce663982a75f7"),
    ("disk", "stationary", 2, 17, 6, 2 ** 64 - 7): (
        "90367588580912d0af222d3a3bdbec343ecd3e4756cafa53236f521bbaa8bf05",
        "650dbcb2aa4bf6b9b2337827db86ae67e0c100dc63f7f83e215e27c2154f3a93",
        "866fe8c4507f8e86c0dd75b13c815257191e7a9e117b8136054016d20ec69092"),
    ("disk", "all_off", 7, 5, 3, 31): (
        "e69ca371c1bc6f5919b6ee1a8d87a648db3de9d3d51c31d6e63a0fab40b331d2",
        "2d6b29922036d498806bb523f6e39bb25d30cec0d23b70a5f177a4fbc742274e",
        "f962d5fc978ecf782a98d2288e1286fc6f51e9e793353ec07fbac555c2098167"),
    ("disk", "all_on", 3, 1, 4, 8): (
        "fae180c0c546ad856086979c72afa7a99dcb19b9c8fed77620a39feaa26b4a2b",
        "22044ec8572d80673f41d16070db0db85de0d68ab8faa646c3a85d64cbbd559d",
        "3ee5f0d83bf791f0fb4d750a5719ce19d6d352ef7e5a4264e4b760f0f9c15014"),
    ("triangle", "stationary", 4, 1, 5, 99): (
        "a85c0746919ddae3dd23309c778114ee393b431354575730e64d7ce9dca308a0",
        "7a91d004bb0a166c351c57e352920132ee0fdaf5a0043864a88196ae26590a80",
        "1947ab29d011f2571b8243c20b461174564838217cdaa64d685f088d4eb55f51"),
    ("triangle", "all_off", 6, 8, 4, 2 ** 64 - 7): (
        "0acc4e1926ae0a6d02b68d002bd693716449a4b3b1fd2d63ea1ae5a824e5b19b",
        "fc42fea794903c064851c8b854e4b3e6541f49334b70767ed981d367b83e716a",
        "6ffb9f068ecc2ced255810c2ec3799f623ebbbbefcba02e93bf010e7af51d413"),
    ("triangle", "all_on", 2, 6, 7, 5151): (
        "8fe4c767b7ff9efe81fafcf35a5929e5cacf64249f72745a06c6395181e95462",
        "5fa23ee46af8e3c3e1d31886ca2c6e528289cba0555c4fd8158b25a9907da22b",
        "979e9f100ac9b995cae17183bb47d41ffc92b426e45914ce29f654ad997251d6"),
}

# sha256 of (positions, states) of the test-local pinned_distance_ensemble
# fixture of conftest.py, called as (domain, r, FAST, t_steps, trials, seed);
# recorded alongside GOLDEN_SIMULATE.  Keys are
# (domain, r, t_steps, trials, seed); r None is the domain's diameter.
GOLDEN_PINNED = {
    ("square", 0.7, 9, 5, 31): (
        "aba6469687b26c0455447279ca1dbe894f1714cb600d26bce735aad3574d74d6",
        "228ddb786190431646c6f2700f907b731970b512b48490477ce1b4e3024cbd0f"),
    ("disk", 0.9, 1, 3, 2 ** 64 - 7): (
        "7942d0669ac33aea4636bd674754e9d041382b3dd7b5ad4b876ebf3225ce9025",
        "cf7605ed1bc735f6c825554154627467e1cac9df54cee8699218ed434603c568"),
    ("triangle", None, 6, 4, 0): (
        "f40138a2b8aa2f955ba59594dea43eabdb2c42edfb9effae354d6d4e8cedaedf",
        "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0"),
}


def sha256(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def small_config(paper_params, **overrides):
    kwargs = dict(n=6, t_steps=12, trials=30, seed=424242, domain=SQ,
                  params=paper_params)
    kwargs.update(overrides)
    return SimConfig(**kwargs)


def tally_of(ensemble):
    """The complete tally of one whole ensemble, the estimators' input."""
    tally = TrajectoryTally(ensemble.config)
    tally.add(ensemble)
    return tally


class TestConfig:
    def test_validation(self, paper_params):
        with pytest.raises(SimulationError):
            SimConfig(n=1, t_steps=5, trials=1, seed=0, domain=SQ, params=paper_params)
        with pytest.raises(SimulationError):
            SimConfig(n=2, t_steps=0, trials=1, seed=0, domain=SQ, params=paper_params)
        with pytest.raises(SimulationError):
            SimConfig(n=2, t_steps=5, trials=0, seed=0, domain=SQ, params=paper_params)
        with pytest.raises(SimulationError):
            SimConfig(n=2, t_steps=5, trials=1, seed=-1, domain=SQ, params=paper_params)

    def test_edge_pairs_order(self):
        pairs = edge_pairs(4)
        assert pairs.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]


class TestPhiloxKernel:
    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    @pytest.mark.parametrize("count", [1, 4, 5, 100])
    def test_matches_numpy_philox(self, seed, count):
        trials = np.array([0, 2 ** 63 + 5], dtype=np.uint64)
        lanes = np.array([0, 2 ** 62 - 1, 2 ** 62], dtype=np.uint64)
        u = simulator._stream_uniforms(seed, trials, lanes, count)
        assert u.shape == (2, count, 3)
        for i, trial in enumerate(trials):
            for j, lane in enumerate(lanes):
                bitgen = np.random.Philox(
                    key=np.array([seed, 0], dtype=np.uint64),
                    counter=np.array([0, 0, trial, lane], dtype=np.uint64))
                raw = bitgen.random_raw(count)
                expected = (raw >> np.uint64(11)) * (2.0 ** -53)
                assert np.array_equal(u[i, :, j], expected), (trial, lane)

    @pytest.mark.parametrize("m", simulator._PHILOX_M)
    def test_mulhilo_exact(self, m):
        # carry edges of the 32-bit halves, then seeded random words
        edges = np.array([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1], dtype=np.uint64)
        rng = np.random.default_rng(64)
        words = np.concatenate([edges, rng.integers(0, 2 ** 64, size=2000,
                                                    dtype=np.uint64)])
        operand = words.copy()
        hi, lo = simulator._mulhilo(m, operand)
        assert np.array_equal(operand, words)  # only temporaries change in place
        for x, h, l in zip(words.tolist(), hi.tolist(), lo.tolist()):
            assert (h, l) == ((m * x) >> 64, (m * x) & (2 ** 64 - 1)), x


def where_step_chains(seed, trials, edges, t_steps, p_on, p01, p10, initial_state):
    """The np.where recurrence that _step_chains must reproduce bit for bit."""
    u = simulator._stream_uniforms(seed, simulator._indices(trials),
                                   simulator._indices(edges), t_steps)
    st = np.empty(u.shape, dtype=bool)
    if initial_state == "stationary":
        st[:, 0] = u[:, 0] < p_on
    else:
        st[:, 0] = initial_state == "all_on"
    for step in range(1, t_steps):
        flip = np.where(st[:, step - 1], p10, p01)
        st[:, step] = st[:, step - 1] ^ (u[:, step] < flip)
    return st


def step_probabilities(case, shape):
    """(p_on, p01, p10) of one _step_chains equivalence case."""
    rng = np.random.default_rng(11)
    p01, p10 = rng.uniform(0.0, 0.4, size=(2,) + shape)
    p_on = p01 / (p01 + p10)
    if case == "scalar":
        return 0.6, 0.3, 0.2
    if case == "clamp cap":
        # p01 at the cap on every other edge, p10 small: chains turn on and stay
        p01[:, ::2] = 1.0 - channel.CLAMP_EPS
        return p_on, p01, p10 / 10
    if case == "frozen":
        return p_on, 0.0, 0.0
    return p_on, p01, p10


class TestStepChains:
    @pytest.mark.parametrize("initial_state", simulator.INITIAL_STATES)
    @pytest.mark.parametrize("case", ["array", "scalar", "clamp cap", "frozen"])
    def test_matches_where_recurrence(self, case, initial_state):
        trials, edges, t_steps = slice(3, 8), slice(2, 9), 40
        probs = step_probabilities(case, (5, 7))
        got = simulator._step_chains(2 ** 64 - 3, trials, edges, slice(0, t_steps),
                                     *probs, initial_state)
        expected = where_step_chains(2 ** 64 - 3, trials, edges, t_steps, *probs,
                                     initial_state)
        assert got.shape == (5, t_steps, 7)
        assert np.array_equal(got, expected)
        if case == "frozen":
            assert np.all(got == got[:, :1])
        else:
            assert 0 < got.mean() < 1

    @pytest.mark.parametrize("initial_state", simulator.INITIAL_STATES)
    @pytest.mark.parametrize("t_steps", [1, 2, 3, 5, 8])
    def test_short_streams_match_where_recurrence(self, t_steps, initial_state):
        # fewer steps than a block, and a last block only partly used
        trials, edges = slice(0, 4), slice(5, 8)
        probs = step_probabilities("array", (4, 3))
        got = simulator._step_chains(77, trials, edges, slice(0, t_steps), *probs,
                                     initial_state)
        expected = where_step_chains(77, trials, edges, t_steps, *probs, initial_state)
        assert got.shape == (4, t_steps, 3)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("initial_state", simulator.INITIAL_STATES)
    @pytest.mark.parametrize("chunk_blocks", [3, 6, 45])
    def test_simulate_tiles_match_where_recurrence(self, monkeypatch, chunk_blocks,
                                                   initial_state):
        # 5 trials of 15 edge streams of 3 blocks.  3 steps every stream
        # alone; 6 makes tiles of 2 trials by 1 edge, then the last trial by
        # 2 edges; 45 makes tiles of all 5 trials by 3 edges
        cfg = SimConfig(n=6, t_steps=9, trials=5, seed=2 ** 64 - 5,
                        domain=geometry.TRIANGLE, params=FAST)
        monkeypatch.setattr(simulator, "_CHUNK_BLOCKS", chunk_blocks)
        ens = simulate(cfg, initial_state)
        p01, p10 = channel.transition_probabilities(ens.distances, FAST)
        p_on = channel.connection_probability(ens.distances, FAST)
        expected = where_step_chains(cfg.seed, slice(0, 5), slice(0, 15), 9,
                                     p_on, p01, p10, initial_state)
        assert np.array_equal(ens.states, expected)


class TestThresholds:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(p=st.floats(0.0, 1.0), low=st.integers(0, 2 ** 11 - 1),
           word=st.integers(0, 2 ** 64 - 1))
    @example(p=0.0, low=0, word=0)
    @example(p=5e-324, low=2 ** 11 - 1, word=2 ** 11 - 1)
    @example(p=2.0 ** -53, low=2 ** 11 - 1, word=2 ** 12)
    @example(p=0.5, low=0, word=2 ** 63)
    @example(p=1.0 - channel.CLAMP_EPS, low=1, word=2 ** 64 - 1)
    @example(p=1.0 - 2.0 ** -53, low=2 ** 11 - 1, word=2 ** 64 - 1)
    @example(p=1.0, low=2 ** 11 - 1, word=2 ** 64 - 1)
    def test_integer_test_equals_double_test(self, p, low, word):
        # the word's double is (word >> 11) * 2**-53; the tiles compare the
        # integer word >> 11 with the threshold instead
        threshold = simulator._thresholds(p)
        assert threshold.dtype == np.uint64
        assert int(threshold) == math.ceil(fractions.Fraction(p) * 2 ** 53)
        top = int(threshold)
        # words whose top 53 bits sit on either side of the threshold
        tops = [m for m in (top - 2, top - 1, top, top + 1) if 0 <= m < 2 ** 53]
        words = np.array([(m << 11) | low for m in tops] + [word, 0, 2 ** 64 - 1],
                         dtype=np.uint64)
        high = words >> np.uint64(11)
        as_double = high * 2.0 ** -53 < p
        assert np.array_equal(high < threshold, as_double)
        assert np.array_equal(high < simulator._thresholds(np.full(len(words), p)),
                              as_double)


class TestGolden:
    @pytest.mark.parametrize("case", sorted(GOLDEN_SIMULATE))
    def test_simulate_digests(self, case):
        domain, initial_state, n, t_steps, trials, seed = case
        ens = simulate(SimConfig(n=n, t_steps=t_steps, trials=trials, seed=seed,
                                 domain=geometry.domain_from_name(domain),
                                 params=FAST), initial_state)
        got = (sha256(ens.positions), sha256(ens.distances), sha256(ens.states))
        assert got == GOLDEN_SIMULATE[case]

    @pytest.mark.parametrize("case", sorted(GOLDEN_PINNED, key=str))
    def test_pinned_digests(self, case, pinned_distance_ensemble):
        domain, r, t_steps, trials, seed = case
        dom = geometry.domain_from_name(domain)
        ens = pinned_distance_ensemble(dom, dom.diameter if r is None else r,
                                       FAST, t_steps, trials, seed)
        assert (sha256(ens.positions), sha256(ens.states)) == GOLDEN_PINNED[case]

    @pytest.mark.parametrize("chunk_blocks", [1, 7, 16, 74])
    def test_chunking_invariant(self, monkeypatch, chunk_blocks,
                                pinned_distance_ensemble):
        # simulate steps tiles of a batch of trials by a slice of their edges:
        # budget // 2 trials per batch, as each edge stream needs 2 blocks,
        # and budget // (2 * batch) edges per slice.  Positions take 3 blocks
        # per trial, the pinned run 2.  1 steps every stream alone; 7 steps
        # 3-trial batches one edge at a time and the last trial in 3-edge
        # slices, draws positions in 2-trial batches and steps the pinned run
        # in 3-trial batches; 16 splits the trials 8 + 2 and the 2-trial
        # batch's edges 4 + 4 + 2; 74 steps all 10 trials in 3-edge slices
        # and the pinned run in one batch.  3 divides neither the 10 edges
        # nor the 10 trials
        cfg = SimConfig(n=5, t_steps=6, trials=10, seed=2 ** 64 - 7,
                        domain=geometry.DISK, params=FAST)
        ref = [simulate(cfg, state) for state in simulator.INITIAL_STATES]
        ref_pinned = pinned_distance_ensemble(SQ, 0.7, FAST, 6, 10, 5)
        monkeypatch.setattr(simulator, "_CHUNK_BLOCKS", chunk_blocks)
        for state, a in zip(simulator.INITIAL_STATES, ref):
            b = simulate(cfg, state)
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.distances, b.distances)
            assert np.array_equal(a.states, b.states)
        pinned = pinned_distance_ensemble(SQ, 0.7, FAST, 6, 10, 5)
        assert np.array_equal(pinned.states, ref_pinned.states)


class TestSimulate:
    def test_bit_reproducible(self, paper_params):
        # simulator/determinism of validate checks equal positions, distances
        # and states on every domain; here a new seed must also differ
        cfg = small_config(paper_params)
        a = simulate(cfg)
        b = simulate(cfg)
        assert np.array_equal(a.distances, b.distances)
        c = simulate(small_config(paper_params, seed=424243))
        assert not np.array_equal(a.states, c.states)

    def test_trials_are_independent_streams(self, paper_params):
        # the first trials do not depend on how many trials follow
        few = simulate(small_config(paper_params, trials=3))
        many = simulate(small_config(paper_params, trials=7))
        assert np.array_equal(few.states, many.states[:3])
        assert np.array_equal(few.positions, many.positions[:3])

    def test_positions_inside_domain(self, paper_params, domain_contains):
        for name in geometry.DOMAIN_NAMES:
            dom = geometry.domain_from_name(name)
            ens = simulate(small_config(paper_params, domain=dom))
            assert np.all(domain_contains(dom, ens.positions.reshape(-1, 2)))

    def test_sample_positions_steps_no_chain(self, paper_params, monkeypatch):
        # validate's distance histogram draws its pairs this way
        cfg = small_config(paper_params, domain=geometry.TRIANGLE)
        ens = simulate(cfg)

        def no_chains(*args):
            raise AssertionError("an edge chain was stepped")

        monkeypatch.setattr(simulator, "_step_chains", no_chains)
        monkeypatch.setattr(simulator, "_CHUNK_BLOCKS", 7)
        positions, distances = simulator.sample_positions(cfg)
        assert np.array_equal(positions, ens.positions)
        assert np.array_equal(distances, ens.distances)

    def test_distances_match_positions(self, paper_params):
        ens = simulate(small_config(paper_params))
        pos = ens.positions[0]
        for e, (i, j) in enumerate(ens.pairs):
            assert ens.distances[0, e] == pytest.approx(
                np.linalg.norm(pos[i] - pos[j]), rel=1e-12)

    def test_frozen_chain_constant(self):
        ens = simulate(small_config(FROZEN, t_steps=25))
        assert np.all(ens.states == ens.states[:, :1, :])

    def test_ensemble_immutable(self, paper_params):
        ens = simulate(small_config(paper_params))
        with pytest.raises(ValueError):
            ens.states[0, 0, 0] = True

    def test_bad_initial_state(self, paper_params):
        with pytest.raises(SimulationError):
            simulate(small_config(paper_params), initial_state="warm")

    def test_single_edge_occupancy(self, paper_params):
        # long two-node run: on-fraction within 3 sigma of p(r) under the
        # Markov-chain CLT (variance inflated by (1+rho)/(1-rho))
        cfg = SimConfig(n=2, t_steps=300_000, trials=1, seed=2718, domain=SQ,
                        params=paper_params)
        ens = simulate(cfg)
        r = float(ens.distances[0, 0])
        p = channel.connection_probability(r, paper_params)
        p01, p10 = channel.transition_probabilities(r, paper_params)
        rho = 1.0 - p01 - p10
        var = p * (1 - p) * (1 + rho) / (1 - rho) / cfg.t_steps
        assert abs(ens.states.mean() - p) < 3.0 * math.sqrt(var)

    def test_mean_edge_count(self, paper_params):
        # C(50,2) * averaged edge probability, 3 sigma over trial means
        cfg = SimConfig(n=50, t_steps=2, trials=60, seed=99, domain=SQ,
                        params=paper_params)
        ens = simulate(cfg)
        per_trial = ens.states.sum(axis=2).mean(axis=1)
        se = per_trial.std(ddof=1) / np.sqrt(cfg.trials)
        expected = math.comb(50, 2) * entropy.edge_moments(SQ, paper_params).p_on
        assert abs(per_trial.mean() - expected) < 3.0 * se


class TestTransitionFrequencies:
    def test_frozen_chain_identity(self):
        ens = simulate(small_config(FROZEN, trials=40))
        freq = empirical_transition_frequencies(tally_of(ens), distance_weighted=False)
        assert np.allclose(freq.matrix, np.eye(2))
        assert freq.undefined_rows == ()

    def test_pinned_edge_matches_channel(self, paper_params, pinned_distance_ensemble):
        ens = pinned_distance_ensemble(SQ, 0.7, paper_params,
                                       t_steps=400, trials=3000, seed=31)
        freq = empirical_transition_frequencies(tally_of(ens))
        p01, p10 = channel.transition_probabilities(0.7, paper_params)
        for a, b, expect in ((1, 0, p10), (0, 1, p01)):
            assert abs(freq.matrix[a, b] - expect) < 3.0 * freq.stderr[a, b]

    def test_weighted_estimator_targets_distance_average(self, paper_params):
        cfg = SimConfig(n=10, t_steps=40, trials=4000, seed=5151, domain=SQ,
                        params=paper_params)
        ens = simulate(cfg)
        freq = empirical_transition_frequencies(tally_of(ens))
        m = entropy.edge_moments(SQ, paper_params)
        for a, b, target in ((1, 0, m.p10), (0, 1, m.p01)):
            assert abs(freq.matrix[a, b] - target) < 3.0 * freq.stderr[a, b], (a, b)

    def test_unweighted_estimator_targets_joint_conditional(self, paper_params):
        cfg = SimConfig(n=10, t_steps=40, trials=4000, seed=5151, domain=SQ,
                        params=paper_params)
        ens = simulate(cfg)
        freq = empirical_transition_frequencies(tally_of(ens), distance_weighted=False)
        bounds = entropy.entropy_rate_bounds(2, SQ, paper_params)
        # joint-consistent conditional differs from the distance average;
        # compute it from the moments the bounds are built on
        m = entropy.edge_moments(SQ, paper_params)
        joint_10 = m.joint10 / m.p_on
        assert abs(freq.matrix[1, 0] - joint_10) < 3.0 * freq.stderr[1, 0]
        # and it is distinguishable from the plain distance average
        assert abs(m.p10 - joint_10) > 4.0 * freq.stderr[1, 0]
        assert bounds.per_edge_joint_upper < bounds.per_edge_upper

    def test_never_visited_row_flagged(self):
        # enormous r0: every edge is on for the whole run
        params = ChannelParams(r0=1e5, eta=2.0, nu=1.0, B=12e6)
        ens = simulate(SimConfig(n=4, t_steps=10, trials=5, seed=8, domain=SQ,
                                 params=params))
        freq = empirical_transition_frequencies(tally_of(ens))
        assert freq.undefined_rows == (0,)
        assert np.all(np.isnan(freq.matrix[0]))
        assert freq.matrix[1, 1] > 0.99

    def test_needs_two_steps(self, paper_params):
        ens = simulate(small_config(paper_params, t_steps=1))
        with pytest.raises(SimulationError):
            empirical_transition_frequencies(tally_of(ens))

    def test_weighted_estimator_survives_occupancy_underflow(self):
        # r0 small enough that p(r) underflows to exactly 0 at far corners
        params = ChannelParams(r0=0.03, eta=2.0, nu=500.0, B=12e6)
        ens = simulate(SimConfig(n=8, t_steps=10, trials=50, seed=4, domain=SQ,
                                 params=params))
        assert np.any(channel.connection_probability(ens.distances, params) == 0.0)
        freq = empirical_transition_frequencies(tally_of(ens))
        assert np.all(np.isfinite(freq.matrix[list(freq.visits > 0)]))


class TestBlockEntropy:
    def test_t1_equals_marginal_plug_in(self, paper_params):
        ens = simulate(small_config(paper_params, trials=200))
        est = empirical_block_entropy(tally_of(ens), 1)
        frac = ens.states[:, 0, 0].mean()
        expected = -frac * np.log2(frac) - (1 - frac) * np.log2(1 - frac)
        assert est.plug_in == pytest.approx(expected, rel=1e-12)
        assert est.n_samples == 200

    def test_frozen_chain_flat_profile(self):
        ens = simulate(small_config(FROZEN, trials=300, t_steps=8))
        tally = tally_of(ens)
        h1 = empirical_block_entropy(tally, 1).plug_in
        for t in (2, 4, 8):
            # frozen chains only ever realize 2 of the 2**t sequences
            with pytest.warns(UserWarning, match="sequences observed"):
                assert empirical_block_entropy(tally, t).plug_in == pytest.approx(h1, rel=1e-12)

    def test_warns_when_bins_unpopulated(self, paper_params):
        ens = simulate(small_config(paper_params, trials=50, t_steps=8))
        with pytest.warns(UserWarning, match="sequences observed"):
            est = empirical_block_entropy(tally_of(ens), 8)
        assert est.n_observed_sequences < 2 ** 8
        assert est.miller_madow >= est.plug_in

    def test_matches_oracle(self, paper_params):
        cfg = SimConfig(n=2, t_steps=4, trials=60_000, seed=1234, domain=SQ,
                        params=paper_params)
        ens = simulate(cfg)
        H, _ = entropy.block_entropy_profile(SQ, paper_params, 4)
        with pytest.warns(UserWarning):
            est = empirical_block_entropy(tally_of(ens), 4)
        assert abs(est.miller_madow - H[-1]) < 3.0 * est.stderr + est.bias_correction

    def test_range_checks(self, paper_params):
        tally = tally_of(simulate(small_config(paper_params, t_steps=4)))
        with pytest.raises(SimulationError):
            empirical_block_entropy(tally, 5)
        with pytest.raises(SimulationError):
            empirical_block_entropy(tally, 0)


class TestStationarity:
    def test_all_off_start_fails(self):
        # the flag itself is simulator/stationarity of validate
        params = ChannelParams(r0=0.7, eta=2.0, nu=20000.0, B=1e6)
        ens = simulate(SimConfig(n=8, t_steps=10, trials=1500, seed=77,
                                 domain=SQ, params=params),
                       initial_state="all_off")
        assert stationarity_check(ens).densities[0] == 0.0

    def test_frozen_chain_trivially_stationary(self):
        ens = simulate(small_config(FROZEN))
        assert stationarity_check(ens).passed

    def test_one_trial_is_rejected(self):
        # one trial gives no paired standard error: a stationary run would
        # read every step whose density moved as drifting
        ens = simulate(SimConfig(n=8, t_steps=10, trials=1, seed=77, domain=SQ,
                                 params=FAST))
        with pytest.raises(SimulationError, match="trials >= 2"):
            stationarity_check(ens)


class TestPinnedEnsemble:
    def test_distance_is_exact(self, paper_params, pinned_distance_ensemble,
                               domain_contains):
        for name in geometry.DOMAIN_NAMES:
            dom = geometry.domain_from_name(name)
            for r in (0.9, dom.diameter):
                ens = pinned_distance_ensemble(dom, r, paper_params,
                                               t_steps=3, trials=4, seed=1)
                assert np.all(ens.distances == r)
                assert np.all(domain_contains(dom, ens.positions.reshape(-1, 2)))
                gap = np.linalg.norm(ens.positions[:, 1] - ens.positions[:, 0], axis=1)
                np.testing.assert_allclose(gap, r, rtol=1e-15)

    def test_rejects_out_of_range(self, paper_params, pinned_distance_ensemble):
        with pytest.raises(SimulationError):
            pinned_distance_ensemble(SQ, 2.0, paper_params, 3, 4, 1)


def per_line_export(ensemble, fh):
    """The line-at-a-time formatter export_snapshots must match byte for byte."""
    fh.write("trial,step,edge_i,edge_j,state\n")
    for trial in range(ensemble.config.trials):
        for step in range(ensemble.config.t_steps):
            on = ensemble.states[trial, step]
            for e, (i, j) in enumerate(ensemble.pairs):
                fh.write(f"{trial},{step},{i},{j},{int(on[e])}\n")


class RecordingWriter(io.BytesIO):
    """Binary handle that records the byte count of every write."""

    def __init__(self):
        super().__init__()
        self.lengths = []

    def write(self, data):
        self.lengths.append(memoryview(data).nbytes)
        return super().write(data)


# (n, t_steps, trials, seed, domain, initial_state, write cap or None)
EXPORT_CASES = {
    # two-digit trial, step and node ids
    "two-digit ids": (12, 13, 11, 2024, geometry.TRIANGLE, "stationary", None),
    "all on": (5, 11, 12, 2 ** 64 - 1, SQ, "all_on", None),
    "trials 9 to 10": (3, 4, 12, 5, SQ, "stationary", None),
    "steps 9 to 10 to 100": (4, 102, 11, 6, geometry.DISK, "stationary", None),
    "two nodes": (2, 7, 13, 7, SQ, "all_off", None),
    "one step": (4, 1, 14, 8, SQ, "stationary", None),
    "cap below a block": (4, 102, 11, 6, geometry.DISK, "stationary", 1),
    "cap of a few blocks": (4, 102, 11, 6, geometry.DISK, "stationary", 200),
}


class TestExport:
    def test_matches_per_line_formatter(self, monkeypatch):
        default_cap = simulator._WRITE_BYTES
        for case, (n, t_steps, trials, seed, domain, state, cap) in EXPORT_CASES.items():
            monkeypatch.setattr(simulator, "_WRITE_BYTES", cap or default_cap)
            ens = simulate(SimConfig(n=n, t_steps=t_steps, trials=trials, seed=seed,
                                     domain=domain, params=FAST), state)
            assert 0 < ens.states.mean() < 1, case
            got, expected = RecordingWriter(), io.StringIO()
            export_snapshots(ens, got)
            per_line_export(ens, expected)
            # lists, not strings: pytest reports the first differing line
            # instead of diffing the whole text
            lines = expected.getvalue().encode("ascii").splitlines(True)
            assert got.getvalue().splitlines(True) == lines, case
            # memory contract: after the header, no write is longer than the
            # cap or one (trial, step) block, whichever is larger
            blocks = collections.Counter()
            for line in lines[1:]:
                trial, step, _ = line.split(b",", 2)
                blocks[trial, step] += len(line)
            assert got.lengths[0] == len(lines[0]), case
            assert max(got.lengths[1:]) <= max(cap or default_cap,
                                               max(blocks.values())), case
            if cap == 1:
                assert len(got.lengths) == 1 + trials * t_steps, case

    def test_format_and_determinism(self, paper_params):
        cfg = small_config(paper_params, n=3, t_steps=2, trials=2)
        buf1, buf2 = io.BytesIO(), io.BytesIO()
        export_snapshots(simulate(cfg), buf1)
        export_snapshots(simulate(cfg), buf2)
        assert buf1.getvalue() == buf2.getvalue()
        lines = buf1.getvalue().decode("ascii").splitlines()
        assert lines[0] == "trial,step,edge_i,edge_j,state"
        assert len(lines) == 1 + 2 * 2 * 3  # trials * steps * edges
        first = lines[1].split(",")
        assert first[:4] == ["0", "0", "0", "1"] and first[4] in ("0", "1")


def batch_of(ensemble, start, stop):
    """The ensemble's trials start to stop - 1 as a piece of its run."""
    config = ensemble.config
    return simulator.TrajectoryEnsemble(
        config=dataclasses.replace(config, first_trial=config.first_trial + start,
                                   trials=stop - start),
        initial_state=ensemble.initial_state,
        positions=ensemble.positions[start:stop],
        distances=ensemble.distances[start:stop],
        states=ensemble.states[start:stop])


def streamed(config, initial_state):
    """Snapshot bytes and the tally of a run streamed piece by piece, as the
    simulate command streams it."""
    fh = io.BytesIO()
    tally = TrajectoryTally(config)
    for piece in simulate_pieces(config, initial_state):
        export_snapshots(piece, fh)
        tally.add(piece)
    return fh.getvalue(), tally


def assembled(config, initial_state):
    """(positions, distances, states) of a run, put together from its
    pieces."""
    positions, distances, states = [], [], []
    for piece in simulate_pieces(config, initial_state):
        if not piece.config.first_step:
            positions.append(piece.positions)
            distances.append(piece.distances)
            states.append([])
        states[-1].append(piece.states)
    return (np.concatenate(positions), np.concatenate(distances),
            np.concatenate([np.concatenate(trial, axis=1) for trial in states]))


def assert_same_estimates(tally, ensemble):
    """Every estimate of the streamed tally, under both weightings, equal bit
    for bit to that of the tally of the whole ensemble."""
    whole = tally_of(ensemble)
    for weighted in (True, False):
        fa = empirical_transition_frequencies(tally, distance_weighted=weighted)
        fb = empirical_transition_frequencies(whole, distance_weighted=weighted)
        assert np.array_equal(fa.matrix, fb.matrix, equal_nan=True), weighted
        assert np.array_equal(fa.stderr, fb.stderr, equal_nan=True), weighted
        assert np.array_equal(fa.visits, fb.visits), weighted
        assert fa.undefined_rows == fb.undefined_rows, weighted
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t in range(1, min(12, ensemble.config.t_steps) + 1):
            assert (empirical_block_entropy(tally, t)
                    == empirical_block_entropy(whole, t))


class TestBatches:
    @pytest.mark.parametrize("initial_state", simulator.INITIAL_STATES)
    @pytest.mark.parametrize("batch_trials", [1, 2, 3])
    def test_streamed_run_matches_one_batch(self, monkeypatch, batch_trials,
                                            initial_state):
        # 12 trials of 11 steps: trial and step numbers reach two digits
        # inside a piece and across pieces.  A trial's 6 edge streams take
        # 3 blocks each, so a budget of 18 blocks per trial makes pieces of
        # batch_trials whole trials
        cfg = SimConfig(n=4, t_steps=11, trials=12, seed=2 ** 64 - 9,
                        domain=geometry.DISK, params=FAST)
        whole = simulate(cfg, initial_state)
        assert [b.trials for b in cfg.pieces()] == [12]
        expected = io.BytesIO()
        export_snapshots(whole, expected)
        monkeypatch.setattr(simulator, "_CHUNK_BLOCKS", 18 * batch_trials)
        sizes = [b.trials for b in cfg.pieces()]
        assert sizes[:-1] == [batch_trials] * (len(sizes) - 1) and sum(sizes) == 12
        got, tally = streamed(cfg, initial_state)
        assert got == expected.getvalue()
        assert (tally.mean_edge_density
                == np.count_nonzero(whole.states) / whole.states.size)
        assert_same_estimates(tally, whole)

    @pytest.mark.parametrize("shape, batch_trials", [
        ((16, 100, 50), (1, 3, 7)),  # simulate's n = 50
        ((4000, 4, 2), (1, 3, 7, 4000)),
    ])
    def test_tally_does_not_depend_on_batching(self, shape, batch_trials):
        trials, t_steps, n = shape
        whole = simulate(SimConfig(n=n, t_steps=t_steps, trials=trials, seed=17,
                                   domain=SQ, params=FAST))
        ref = tally_of(whole)
        for size in batch_trials:
            tally = TrajectoryTally(whole.config)
            for start in range(0, trials, size):
                tally.add(batch_of(whole, start, min(start + size, trials)))
            assert np.array_equal(tally.sums, ref.sums), size
            assert np.array_equal(tally.counts, ref.counts), size
            assert np.array_equal(tally.visits, ref.visits), size
            assert np.array_equal(tally.heads, ref.heads), size
            assert tally.on == ref.on == np.count_nonzero(whole.states)

    def test_first_trial_offsets_the_streams(self):
        cfg = SimConfig(n=5, t_steps=6, trials=10, seed=3, domain=SQ, params=FAST)
        whole = simulate(cfg)
        part = simulate(dataclasses.replace(cfg, first_trial=4, trials=3))
        ref = batch_of(whole, 4, 7)
        for name in ("positions", "distances", "states"):
            assert np.array_equal(getattr(part, name), getattr(ref, name)), name
        with pytest.raises(SimulationError):
            dataclasses.replace(cfg, first_trial=2 ** 64 - 9)
        with pytest.raises(SimulationError):
            dataclasses.replace(cfg, first_trial=-1)

    def test_export_of_last_trial_numbers(self):
        # 20-digit trial numbers up to the last 64-bit counter; the header
        # goes before trial 0 only
        cfg = SimConfig(n=3, t_steps=12, trials=3, seed=5, domain=SQ, params=FAST,
                        first_trial=2 ** 64 - 3)
        ens = simulate(cfg)
        got = io.BytesIO()
        export_snapshots(ens, got)
        lines = got.getvalue().decode("ascii").splitlines()
        assert len(lines) == 3 * 12 * 3
        assert lines[0].startswith(f"{2 ** 64 - 3},0,0,1,")
        assert lines[-1] == f"{2 ** 64 - 1},11,1,2,{int(ens.states[-1, -1, -1])}"

    def test_tally_takes_the_run_in_order(self):
        cfg = SimConfig(n=3, t_steps=4, trials=4, seed=1, domain=SQ, params=FAST)
        first = dataclasses.replace(cfg, trials=2)
        second = dataclasses.replace(cfg, first_trial=2, trials=2)
        tally = TrajectoryTally(cfg)
        with pytest.raises(SimulationError, match="not the next piece"):
            tally.add(simulate(second))
        tally.add(simulate(first))
        with pytest.raises(SimulationError, match="2 trials of the run are not tallied"):
            empirical_transition_frequencies(tally)
        for bad in (first, dataclasses.replace(second, seed=2),
                    dataclasses.replace(second, trials=3)):
            with pytest.raises(SimulationError, match="not the next piece"):
                tally.add(simulate(bad))
        tally.add(simulate(second))
        assert empirical_transition_frequencies(tally).visits.sum() == 4 * 3 * 3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert empirical_block_entropy(tally, 4).n_samples == 4


# (n, t_steps, trials): a trial's 4 pieces of 3 steps, 3 of 4 steps or 11
# of 1 step cross the 9 -> 10 step numbers, and the trials the 9 -> 10
# trial numbers
PIECE_RUN = (4, 11, 12)


def piece_steps(monkeypatch, steps):
    """Cut every run into pieces of ``steps`` steps of one trial."""
    monkeypatch.setattr(simulator, "_piece_steps", lambda n_edges: steps)


def reference_tally(ensemble):
    """(counts, sums, visits, heads, on) of a whole ensemble, taken from
    masks of its states: the a -> b transition counts per trial, plain and
    weighted by 1 / (1 - p) for a = 0 and 1 / p for a = 1."""
    states = ensemble.states
    p = channel.connection_probability(ensemble.distances, ensemble.config.params)
    weights = (1.0 / (1.0 - p), 1.0 / p)
    counts = np.empty((2, 2, ensemble.config.trials), dtype=np.int64)
    sums = np.empty((2, 2, ensemble.config.trials))
    for a in (0, 1):
        for b in (0, 1):
            per_edge = ((states[:, :-1] == a) & (states[:, 1:] == b)).sum(axis=1)
            counts[a, b] = per_edge.sum(axis=1)
            sums[a, b] = (per_edge * weights[a]).sum(axis=1)
    visits = np.array([np.count_nonzero(states[:, :-1] == a) for a in (0, 1)])
    heads = states[:, :min(12, ensemble.config.t_steps), 0]
    return counts, sums, visits, heads, int(np.count_nonzero(states))


class TestPieces:
    def test_default_pieces(self):
        # the budget holds 13 blocks of every edge of 50 nodes; a trial of
        # 3 edges of 3 blocks each fits 1,820 times
        big = SimConfig(n=50, t_steps=100, trials=2, seed=0, domain=SQ, params=FAST)
        assert simulator._piece_steps(big.n_edges) == 52
        assert [(p.first_trial, p.first_step, p.t_steps) for p in big.pieces()] == [
            (0, 0, 52), (0, 52, 48), (1, 0, 52), (1, 52, 48)]
        small = SimConfig(n=3, t_steps=12, trials=3000, seed=0, domain=SQ, params=FAST)
        assert [(p.first_trial, p.trials) for p in small.pieces()] == [
            (0, 1820), (1820, 1180)]
        assert [p.t_steps for p in small.pieces()] == [12] * 2

    @pytest.mark.parametrize("initial_state", simulator.INITIAL_STATES)
    @pytest.mark.parametrize("steps", [1, 3, 4])
    def test_streamed_run_matches_whole(self, monkeypatch, steps, initial_state):
        n, t_steps, trials = PIECE_RUN
        cfg = SimConfig(n=n, t_steps=t_steps, trials=trials, seed=2 ** 64 - 9,
                        domain=geometry.DISK, params=FAST)
        whole = simulate(cfg, initial_state)
        expected = io.BytesIO()
        export_snapshots(whole, expected)
        piece_steps(monkeypatch, steps)
        windows = [(p.first_trial, p.first_step, p.t_steps) for p in cfg.pieces()]
        assert windows == [(i, s, min(steps, t_steps - s))
                           for i in range(trials) for s in range(0, t_steps, steps)]
        pieces = list(simulate_pieces(cfg, initial_state))
        assert [p.config for p in pieces] == list(cfg.pieces())
        assert all(p.initial_state == initial_state for p in pieces)
        got, tally = streamed(cfg, initial_state)
        assert got == expected.getvalue()
        ref = tally_of(whole)
        assert tally.on == ref.on == np.count_nonzero(whole.states)
        assert np.array_equal(tally.sums, ref.sums)
        assert np.array_equal(tally.counts, ref.counts)
        assert_same_estimates(tally, whole)

    @pytest.mark.parametrize("initial_state", simulator.INITIAL_STATES)
    @pytest.mark.parametrize("steps", [None, 1, 3, 4])
    def test_tally_matches_the_states(self, monkeypatch, steps, initial_state):
        n, t_steps, trials = PIECE_RUN
        cfg = SimConfig(n=n, t_steps=t_steps, trials=trials, seed=2 ** 64 - 9,
                        domain=geometry.DISK, params=FAST)
        whole = simulate(cfg, initial_state)
        if steps is None:
            # pieces of 5, 5 and 2 whole trials of 6 edges of 3 blocks each
            monkeypatch.setattr(simulator, "_CHUNK_BLOCKS", 18 * 5)
            assert [p.trials for p in cfg.pieces()] == [5, 5, 2]
        else:
            piece_steps(monkeypatch, steps)
        _, tally = streamed(cfg, initial_state)
        counts, sums, visits, heads, on = reference_tally(whole)
        assert np.array_equal(tally.counts, counts)
        np.testing.assert_allclose(tally.sums, sums, rtol=1e-12, atol=0)
        assert np.array_equal(tally.visits, visits)
        assert np.array_equal(tally.heads, heads)
        assert tally.on == on

    @pytest.mark.parametrize("steps", [1, 3, 4])
    @pytest.mark.parametrize("case", sorted(GOLDEN_SIMULATE))
    def test_piece_digests(self, monkeypatch, case, steps):
        domain, initial_state, n, t_steps, trials, seed = case
        cfg = SimConfig(n=n, t_steps=t_steps, trials=trials, seed=seed,
                        domain=geometry.domain_from_name(domain), params=FAST)
        piece_steps(monkeypatch, steps)
        assert (tuple(sha256(a) for a in assembled(cfg, initial_state))
                == GOLDEN_SIMULATE[case])

    @pytest.mark.parametrize("initial_state", simulator.INITIAL_STATES)
    def test_step_ranges_continue_the_carried_states(self, initial_state):
        # cuts at every offset inside a block and at its edges
        trials, edges, t_steps = slice(2, 5), slice(1, 6), 23
        probs = step_probabilities("array", (3, 5))
        whole = simulator._step_chains(9, trials, edges, slice(0, t_steps), *probs,
                                       initial_state)
        for cuts in ([1], [3], [4], [5, 8], [2, 3, 4, 11, 12, 22]):
            parts, carry = [], None
            for start, stop in zip([0] + cuts, cuts + [t_steps]):
                part = simulator._step_chains(9, trials, edges, slice(start, stop),
                                              *probs, initial_state, carry)
                parts.append(part)
                carry = part[:, -1]
            assert np.array_equal(np.concatenate(parts, axis=1), whole), cuts

    def test_later_steps_need_the_piece_before(self):
        cfg = SimConfig(n=3, t_steps=8, trials=2, seed=4, domain=SQ, params=FAST)
        head = simulate(dataclasses.replace(cfg, t_steps=5))
        rest = dataclasses.replace(cfg, first_step=5, t_steps=3)
        whole = simulate(cfg, "all_on")
        assert np.array_equal(
            simulate(rest, "all_on", previous=simulate(head.config, "all_on")).states,
            whole.states[:, 5:])
        # none; another initial state; other trials; a step missing; another seed
        for previous in (None, head, batch_of(head, 0, 1),
                         simulate(dataclasses.replace(head.config, t_steps=4)),
                         simulate(dataclasses.replace(head.config, seed=5))):
            with pytest.raises(SimulationError, match="continues the ensemble"):
                simulate(rest, "all_on", previous=previous)
        with pytest.raises(SimulationError):
            dataclasses.replace(cfg, first_step=-1)
        with pytest.raises(SimulationError):
            dataclasses.replace(cfg, first_step=2 ** 64 - 7)

    def test_tally_rejects_pieces_out_of_order(self, monkeypatch):
        cfg = SimConfig(n=3, t_steps=5, trials=3, seed=2, domain=SQ, params=FAST)
        piece_steps(monkeypatch, 2)
        pieces = list(simulate_pieces(cfg))
        # trial 0 steps 0-1, 2-3, 4; trial 1 steps 0-1, ...
        assert [(p.config.first_trial, p.config.first_step) for p in pieces[:4]] == [
            (0, 0), (0, 2), (0, 4), (1, 0)]
        # the first steps of two trials at once: not in export order
        two_trials = simulate(dataclasses.replace(cfg, first_trial=1, trials=2,
                                                  t_steps=2))
        orders = {
            "skips a step": [pieces[0], pieces[2]],
            "repeats a step": [pieces[0], pieces[1], pieces[1]],
            "reorders steps": [pieces[1]],
            "skips a trial": pieces[:3] + [pieces[6]],
            "repeats a trial": pieces[:3] + [pieces[0]],
            "reorders trials": [pieces[3]],
            "steps of two trials": pieces[:3] + [two_trials],
        }
        for name, order in orders.items():
            tally = TrajectoryTally(cfg)
            for piece in order[:-1]:
                tally.add(piece)
            with pytest.raises(SimulationError, match="not the next piece"):
                tally.add(order[-1])
        tally = TrajectoryTally(cfg)
        for piece in pieces:
            tally.add(piece)
        assert tally.on == np.count_nonzero(simulate(cfg).states)
        with pytest.raises(SimulationError, match="whole trials"):
            TrajectoryTally(pieces[1].config)

    def test_header_before_the_first_piece_only(self, monkeypatch):
        cfg = SimConfig(n=3, t_steps=7, trials=2, seed=6, domain=SQ, params=FAST)
        piece_steps(monkeypatch, 3)
        header = b"trial,step,edge_i,edge_j,state\n"
        for piece in simulate_pieces(cfg):
            fh = io.BytesIO()
            export_snapshots(piece, fh)
            lines = fh.getvalue().splitlines(True)
            c = piece.config
            first = c.first_trial == 0 and c.first_step == 0
            assert (lines[0] == header) == first, (c.first_trial, c.first_step)
            assert len(lines) == first + c.t_steps * 3
            assert lines[first].startswith(b"%d,%d,0,1," % (c.first_trial, c.first_step))

    def test_ensembles_of_one_n_share_their_pairs(self):
        cfg = SimConfig(n=5, t_steps=2, trials=1, seed=6, domain=SQ, params=FAST)
        a, b = simulate(cfg), simulate(dataclasses.replace(cfg, seed=7))
        assert a.pairs is b.pairs
        assert np.array_equal(a.pairs, edge_pairs(5))
        with pytest.raises(ValueError):
            a.pairs[0, 0] = 1

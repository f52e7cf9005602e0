"""Monte Carlo ensemble generation and empirical estimators."""

import hashlib
import io
import math

import numpy as np
import pytest

from netentropy import channel, entropy, geometry, simulator
from netentropy.channel import ChannelParams
from netentropy.simulator import (
    SimConfig,
    SimulationError,
    edge_pairs,
    empirical_block_entropy,
    empirical_transition_frequencies,
    export_snapshots,
    pinned_distance_ensemble,
    simulate,
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

# sha256 of (positions, states) of pinned_distance_ensemble(domain, r, FAST,
# t_steps, trials, seed), recorded alongside GOLDEN_SIMULATE.  Keys are
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
    def test_pinned_digests(self, case):
        domain, r, t_steps, trials, seed = case
        dom = geometry.domain_from_name(domain)
        ens = pinned_distance_ensemble(dom, dom.diameter if r is None else r,
                                       FAST, t_steps, trials, seed)
        assert (sha256(ens.positions), sha256(ens.states)) == GOLDEN_PINNED[case]

    @pytest.mark.parametrize("chunk_blocks", [1, 7, 74])
    def test_chunking_invariant(self, monkeypatch, chunk_blocks):
        # simulate needs 2 blocks per edge stream, 10 * 2 + 3 per trial, the
        # pinned run 2 per trial.  1 steps every stream alone; 7 steps
        # simulate's trials one at a time in edge batches of 3 and the pinned
        # run in 3-trial batches; 74 steps simulate in 3-trial batches and the
        # pinned run in one.  3 divides neither the 10 edges nor the 10 trials
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
        cfg = small_config(paper_params)
        a = simulate(cfg)
        b = simulate(cfg)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.distances, b.distances)
        assert np.array_equal(a.states, b.states)
        c = simulate(small_config(paper_params, seed=424243))
        assert not np.array_equal(a.states, c.states)

    def test_trials_are_independent_streams(self, paper_params):
        # the first trials do not depend on how many trials follow
        few = simulate(small_config(paper_params, trials=3))
        many = simulate(small_config(paper_params, trials=7))
        assert np.array_equal(few.states, many.states[:3])
        assert np.array_equal(few.positions, many.positions[:3])

    def test_positions_inside_domain(self, paper_params):
        for name in geometry.DOMAIN_NAMES:
            dom = geometry.domain_from_name(name)
            ens = simulate(small_config(paper_params, domain=dom))
            assert np.all(dom.contains(ens.positions.reshape(-1, 2)))

    def test_distances_match_positions(self, paper_params):
        ens = simulate(small_config(paper_params))
        pos = ens.positions[0]
        for e, (i, j) in enumerate(ens.pairs):
            assert ens.distances[0, e] == pytest.approx(
                np.linalg.norm(pos[i] - pos[j]), rel=1e-12)

    def test_frozen_chain_constant(self):
        ens = simulate(small_config(FROZEN, t_steps=25))
        assert np.all(ens.states == ens.states[:, :1, :])

    def test_snapshot_symmetric_zero_diagonal(self, paper_params):
        ens = simulate(small_config(paper_params))
        for trial in (0, 5):
            for step in (0, 3, 11):
                adj = ens.snapshot(trial, step)
                assert np.array_equal(adj, adj.T)
                assert not np.any(np.diag(adj))

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
        freq = empirical_transition_frequencies(ens, distance_weighted=False)
        assert np.allclose(freq.matrix, np.eye(2))
        assert freq.undefined_rows == ()

    def test_pinned_edge_matches_channel(self, paper_params):
        ens = pinned_distance_ensemble(SQ, 0.7, paper_params,
                                       t_steps=400, trials=3000, seed=31)
        freq = empirical_transition_frequencies(ens)
        m = channel.transition_matrix(0.7, paper_params)
        for a, b, expect in ((1, 0, m.p10), (0, 1, m.p01)):
            assert abs(freq.matrix[a, b] - expect) < 3.0 * freq.stderr[a, b]

    def test_weighted_estimator_targets_distance_average(self, paper_params):
        cfg = SimConfig(n=10, t_steps=40, trials=4000, seed=5151, domain=SQ,
                        params=paper_params)
        ens = simulate(cfg)
        freq = empirical_transition_frequencies(ens)
        m = entropy.edge_moments(SQ, paper_params)
        for a, b, target in ((1, 0, m.p10), (0, 1, m.p01)):
            assert abs(freq.matrix[a, b] - target) < 3.0 * freq.stderr[a, b], (a, b)

    def test_unweighted_estimator_targets_joint_conditional(self, paper_params):
        cfg = SimConfig(n=10, t_steps=40, trials=4000, seed=5151, domain=SQ,
                        params=paper_params)
        ens = simulate(cfg)
        freq = empirical_transition_frequencies(ens, distance_weighted=False)
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
        freq = empirical_transition_frequencies(ens)
        assert freq.undefined_rows == (0,)
        assert np.all(np.isnan(freq.matrix[0]))
        assert freq.matrix[1, 1] > 0.99

    def test_needs_two_steps(self, paper_params):
        ens = simulate(small_config(paper_params, t_steps=1))
        with pytest.raises(SimulationError):
            empirical_transition_frequencies(ens)

    def test_weighted_estimator_survives_occupancy_underflow(self):
        # r0 small enough that p(r) underflows to exactly 0 at far corners
        params = ChannelParams(r0=0.03, eta=2.0, nu=500.0, B=12e6)
        ens = simulate(SimConfig(n=8, t_steps=10, trials=50, seed=4, domain=SQ,
                                 params=params))
        assert np.any(channel.connection_probability(ens.distances, params) == 0.0)
        freq = empirical_transition_frequencies(ens)
        assert np.all(np.isfinite(freq.matrix[list(freq.visits > 0)]))


class TestBlockEntropy:
    def test_t1_equals_marginal_plug_in(self, paper_params):
        ens = simulate(small_config(paper_params, trials=200))
        est = empirical_block_entropy(ens, 1)
        frac = ens.states[:, 0, 0].mean()
        expected = -frac * np.log2(frac) - (1 - frac) * np.log2(1 - frac)
        assert est.plug_in == pytest.approx(expected, rel=1e-12)
        assert est.n_samples == 200

    def test_frozen_chain_flat_profile(self):
        ens = simulate(small_config(FROZEN, trials=300, t_steps=8))
        h1 = empirical_block_entropy(ens, 1).plug_in
        for t in (2, 4, 8):
            # frozen chains only ever realize 2 of the 2**t sequences
            with pytest.warns(UserWarning, match="sequences observed"):
                assert empirical_block_entropy(ens, t).plug_in == pytest.approx(h1, rel=1e-12)

    def test_warns_when_bins_unpopulated(self, paper_params):
        ens = simulate(small_config(paper_params, trials=50, t_steps=8))
        with pytest.warns(UserWarning, match="sequences observed"):
            est = empirical_block_entropy(ens, 8)
        assert est.n_observed_sequences < 2 ** 8
        assert est.miller_madow >= est.plug_in

    def test_matches_oracle(self, paper_params):
        cfg = SimConfig(n=2, t_steps=4, trials=60_000, seed=1234, domain=SQ,
                        params=paper_params)
        ens = simulate(cfg)
        H, _ = entropy.block_entropy_profile(SQ, paper_params, 4)
        with pytest.warns(UserWarning):
            est = empirical_block_entropy(ens, 4)
        assert abs(est.miller_madow - H[-1]) < 3.0 * est.stderr + est.bias_correction

    def test_range_checks(self, paper_params):
        ens = simulate(small_config(paper_params, t_steps=4))
        with pytest.raises(SimulationError):
            empirical_block_entropy(ens, 5)
        with pytest.raises(SimulationError):
            empirical_block_entropy(ens, 0)


class TestStationarity:
    def test_stationary_start_passes(self, paper_params):
        params = ChannelParams(r0=0.7, eta=2.0, nu=20000.0, B=1e6)
        ens = simulate(SimConfig(n=8, t_steps=10, trials=1500, seed=77,
                                 domain=SQ, params=params))
        assert stationarity_check(ens).passed

    def test_all_off_start_fails(self):
        params = ChannelParams(r0=0.7, eta=2.0, nu=20000.0, B=1e6)
        ens = simulate(SimConfig(n=8, t_steps=10, trials=1500, seed=77,
                                 domain=SQ, params=params),
                       initial_state="all_off")
        report = stationarity_check(ens)
        assert not report.passed
        assert report.densities[0] == 0.0

    def test_frozen_chain_trivially_stationary(self):
        ens = simulate(small_config(FROZEN))
        assert stationarity_check(ens).passed


class TestPinnedEnsemble:
    def test_distance_is_exact(self, paper_params):
        for name in geometry.DOMAIN_NAMES:
            dom = geometry.domain_from_name(name)
            for r in (0.9, dom.diameter):
                ens = pinned_distance_ensemble(dom, r, paper_params,
                                               t_steps=3, trials=4, seed=1)
                assert np.all(ens.distances == r)
                assert np.all(dom.contains(ens.positions.reshape(-1, 2)))
                gap = np.linalg.norm(ens.positions[:, 1] - ens.positions[:, 0], axis=1)
                np.testing.assert_allclose(gap, r, rtol=1e-15)

    def test_rejects_out_of_range(self, paper_params):
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


class TestExport:
    def test_matches_per_line_formatter(self):
        # two-digit trial, step and node ids
        for cfg, state in (
                (SimConfig(n=12, t_steps=13, trials=11, seed=2024,
                           domain=geometry.TRIANGLE, params=FAST), "stationary"),
                (SimConfig(n=5, t_steps=11, trials=12, seed=2 ** 64 - 1,
                           domain=SQ, params=FAST), "all_on")):
            ens = simulate(cfg, state)
            assert 0 < ens.states.mean() < 1
            got, expected = io.StringIO(), io.StringIO()
            export_snapshots(ens, got)
            per_line_export(ens, expected)
            # lists, not strings: pytest reports the first differing line
            # instead of diffing the whole text
            assert got.getvalue().splitlines(True) == expected.getvalue().splitlines(True)

    def test_format_and_determinism(self, paper_params):
        cfg = small_config(paper_params, n=3, t_steps=2, trials=2)
        buf1, buf2 = io.StringIO(), io.StringIO()
        export_snapshots(simulate(cfg), buf1)
        export_snapshots(simulate(cfg), buf2)
        text = buf1.getvalue()
        assert text == buf2.getvalue()
        lines = text.splitlines()
        assert lines[0] == "trial,step,edge_i,edge_j,state"
        assert len(lines) == 1 + 2 * 2 * 3  # trials * steps * edges
        first = lines[1].split(",")
        assert first[:4] == ["0", "0", "0", "1"] and first[4] in ("0", "1")

"""Seeded Monte Carlo generation of temporal network snapshots and the
empirical estimators that cross-validate the quadrature machinery.

Every trial samples fixed node positions (stationary terminals), then evolves
each edge independently as a two-state Markov chain at its pair distance.
Randomness comes from counter-keyed Philox4x64-10 streams (Salmon et al.,
SC'11): stream (trial, lane) is the sequence of 64-bit words of the blocks at
counter ``[k, 0, trial, lane]``, k = 1, 2, ..., under the key
``[seed, 0]``, each word mapped to the double ``(word >> 11) * 2**-53``.
Lane e < 2**62 drives edge e; the position lane sits at 2**62 (x coordinates
from the first n draws, y from the next n).  The blocks come from an in-repo
numpy kernel, checked in the tests against ``np.random.Philox`` started at
counter ``[0, 0, trial, lane]``, which emits block k = 1 first.  As every
stream is addressed by its counter, the simulator generates and steps whole
batches of trials at once, and any batching gives bit-identical ensembles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from . import channel
from .channel import ChannelParams
from .geometry import Domain

_U64 = np.uint64
_POSITION_LANE = np.array([1 << 62], dtype=_U64)
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
# Philox4x64 multipliers and Weyl key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# Philox blocks generated per batch of streams: bounds the temporary working
# set (about a hundred bytes per block) whatever n, t and the trial count, as
# long as one stream of t draws fits
_CHUNK_BLOCKS = 8192
INITIAL_STATES = ("stationary", "all_off", "all_on")


class SimulationError(ValueError):
    """Invalid simulation configuration or ensemble query."""


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run description; identical configs give identical output."""

    n: int
    t_steps: int
    trials: int
    seed: int
    domain: Domain
    params: ChannelParams

    def __post_init__(self):
        if self.n < 2:
            raise SimulationError(f"node count must be >= 2, got {self.n}")
        if self.t_steps < 1:
            raise SimulationError(f"t_steps must be >= 1, got {self.t_steps}")
        if self.trials < 1:
            raise SimulationError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2 ** 64:
            raise SimulationError("seed must be a 64-bit unsigned integer")

    @property
    def n_edges(self) -> int:
        return self.n * (self.n - 1) // 2


def _mulhilo(m: int, x: np.ndarray):
    """High and low 64-bit words of the 128-bit product m * x.

    numpy has no 128-bit integers, so the high word is assembled from the
    four 32 x 32 -> 64-bit partial products of the operands' halves.
    """
    m_hi, m_lo = _U64(m >> 32), _U64(m & _MASK32)
    x_hi, x_lo = x >> _U64(32), x & _U64(_MASK32)
    hl = m_hi * x_lo
    lh = m_lo * x_hi
    # each term is below 2**32, so the sum cannot wrap
    carry = ((m_lo * x_lo) >> _U64(32)) + (hl & _U64(_MASK32)) + (lh & _U64(_MASK32))
    hi = m_hi * x_hi + (hl >> _U64(32)) + (lh >> _U64(32)) + (carry >> _U64(32))
    return hi, _U64(m) * x


def _philox4x64(counter, seed: int):
    """Philox4x64-10 blocks of the broadcast counter words under key [seed, 0]."""
    c0, c1, c2, c3 = counter
    k0, k1 = seed, 0
    for _ in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ _U64(k0), lo1, hi0 ^ c3 ^ _U64(k1), lo0
        k0 = (k0 + _PHILOX_W[0]) & _MASK64
        k1 = (k1 + _PHILOX_W[1]) & _MASK64
    return c0, c1, c2, c3


def _blocks(count: int) -> int:
    """Philox blocks (four words each) holding ``count`` draws."""
    return -(-count // 4)


def _stream_uniforms(seed: int, trials: np.ndarray, lanes: np.ndarray,
                     count: int) -> np.ndarray:
    """First ``count`` U[0, 1) doubles of every stream (trial, lane).

    Returns shape (len(trials), count, len(lanes)); column [i, :, j] is
    stream (trials[i], lanes[j]): the words of blocks k = 1, 2, ... at
    counter [k, 0, trial, lane], each mapped to (word >> 11) * 2**-53.
    """
    k = np.arange(1, _blocks(count) + 1, dtype=_U64)
    words = _philox4x64((k[None, :, None], _U64(0), trials[:, None, None],
                         lanes[None, None, :]), seed)
    # by the last round every word has the full (trials, blocks, lanes) shape
    raw = np.stack(words, axis=2).reshape(len(trials), 4 * len(k), len(lanes))
    return (raw[:, :count] >> _U64(11)) * (2.0 ** -53)


def _chunks(count: int, blocks_each: int):
    """Consecutive slices of range(count), about _CHUNK_BLOCKS blocks each."""
    size = max(1, _CHUNK_BLOCKS // blocks_each)
    for start in range(0, count, size):
        yield slice(start, min(start + size, count))


def _indices(chunk: slice) -> np.ndarray:
    return np.arange(chunk.start, chunk.stop, dtype=_U64)


def _step_chains(seed: int, trials: slice, edges: slice, t_steps: int,
                 p_on, p01, p10, initial_state: str) -> np.ndarray:
    """(trials, t_steps, edges) states of the edge chains of these indices.

    Edge e of trial i draws stream (i, e); its first uniform decides a
    stationary start, the one at step s > 0 whether the chain flips from
    step s - 1.  The probabilities broadcast against (trials, edges).
    """
    u = _stream_uniforms(seed, _indices(trials), _indices(edges), t_steps)
    st = np.empty(u.shape, dtype=bool)
    if initial_state == "stationary":
        st[:, 0] = u[:, 0] < p_on
    else:
        st[:, 0] = initial_state == "all_on"
    for step in range(1, t_steps):
        flip = np.where(st[:, step - 1], p10, p01)
        st[:, step] = st[:, step - 1] ^ (u[:, step] < flip)
    return st


def edge_pairs(n: int) -> np.ndarray:
    """(n*(n-1)/2, 2) array of node pairs (i, j), i < j, lexicographic."""
    iu = np.triu_indices(n, k=1)
    return np.column_stack(iu)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Immutable stack of independent network realizations.

    positions : (trials, n, 2) node coordinates, fixed within a trial
    distances : (trials, n_edges) pair distances in edge_pairs order
    states    : (trials, t_steps, n_edges) boolean edge states
    """

    config: SimConfig
    initial_state: str
    positions: np.ndarray
    distances: np.ndarray
    states: np.ndarray
    pairs: np.ndarray = field(init=False)

    def __post_init__(self):
        for arr in (self.positions, self.distances, self.states):
            arr.setflags(write=False)
        pairs = edge_pairs(self.config.n)
        pairs.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)

    def snapshot(self, trial: int, step: int) -> np.ndarray:
        """Symmetric boolean adjacency matrix of one snapshot."""
        n = self.config.n
        adj = np.zeros((n, n), dtype=bool)
        on = self.states[trial, step]
        adj[self.pairs[:, 0], self.pairs[:, 1]] = on
        adj[self.pairs[:, 1], self.pairs[:, 0]] = on
        return adj


def simulate(config: SimConfig, initial_state: str = "stationary") -> TrajectoryEnsemble:
    """Generate the seeded ensemble of edge-state trajectories.

    Edges start in the stationary conditional law (on with probability
    p(r)), which makes the whole process stationary from the first step;
    ``all_off`` / ``all_on`` give deliberately non-stationary starts for
    diagnostics.
    """
    if initial_state not in INITIAL_STATES:
        raise SimulationError(f"initial_state must be one of {INITIAL_STATES}")
    n, t, n_edges = config.n, config.t_steps, config.n_edges
    iu, ju = np.triu_indices(n, k=1)

    positions = np.empty((config.trials, n, 2))
    distances = np.empty((config.trials, n_edges))
    states = np.empty((config.trials, t, n_edges), dtype=bool)

    # batches of whole trials; a trial too large for one batch is stepped in
    # batches of its edges
    per_stream = _blocks(t)
    for trials in _chunks(config.trials, n_edges * per_stream + _blocks(2 * n)):
        upos = _stream_uniforms(config.seed, _indices(trials), _POSITION_LANE,
                                2 * n)[:, :, 0]
        pos = config.domain.points_from_uniforms(
            upos[:, :n].ravel(), upos[:, n:].ravel()).reshape(-1, n, 2)
        dist = np.hypot(pos[:, iu, 0] - pos[:, ju, 0], pos[:, iu, 1] - pos[:, ju, 1])
        p_on = channel.connection_probability(dist, config.params)
        p01, p10 = channel.transition_probabilities(dist, config.params)
        positions[trials] = pos
        distances[trials] = dist
        for edges in _chunks(n_edges, per_stream * len(pos)):
            states[trials, :, edges] = _step_chains(
                config.seed, trials, edges, t, p_on[:, edges], p01[:, edges],
                p10[:, edges], initial_state)

    return TrajectoryEnsemble(config=config, initial_state=initial_state,
                              positions=positions, distances=distances,
                              states=states)


def pinned_distance_ensemble(domain: Domain, r: float, params: ChannelParams,
                             t_steps: int, trials: int, seed: int) -> TrajectoryEnsemble:
    """Two-node ensemble with both nodes placed at exact distance ``r``.

    The node pair sits on a longest chord of the domain, centered, so any
    r <= diameter fits.  Edge evolution uses the same keyed streams as
    :func:`simulate` (edge lane 0); positions consume no randomness.
    """
    D = domain.diameter
    if not 0.0 < r <= D:
        raise SimulationError(f"pinned distance must be in (0, {D}], got {r}")
    a, b = np.array(domain.chord)
    mid = 0.5 * (a + b)
    unit = (b - a) / np.linalg.norm(b - a)
    pos = np.stack([mid - 0.5 * r * unit, mid + 0.5 * r * unit])

    config = SimConfig(n=2, t_steps=t_steps, trials=trials, seed=seed,
                       domain=domain, params=params)
    p_on = channel.connection_probability(r, params)
    p01, p10 = channel.transition_probabilities(r, params)

    states = np.empty((trials, t_steps, 1), dtype=bool)
    for chunk in _chunks(trials, _blocks(t_steps)):
        states[chunk] = _step_chains(seed, chunk, slice(0, 1), t_steps,
                                     p_on, p01, p10, "stationary")

    return TrajectoryEnsemble(
        config=config, initial_state="stationary",
        positions=np.broadcast_to(pos, (trials, 2, 2)).copy(),
        distances=np.full((trials, 1), float(r)),
        states=states,
    )


@dataclass(frozen=True)
class TransitionFrequencies:
    """Pooled empirical transition matrix with ratio-estimator errors.

    With ``distance_weighted`` the a->b transition indicators are weighted by
    the inverse stationary occupancy of state a at the edge's distance, which
    makes the estimator converge to the distance-averaged transition
    probability (the per-entry integral).  Unweighted pooling instead
    converges to the conditional law of the averaged joint; the two differ.
    Rows for states that were never visited are NaN and listed in
    ``undefined_rows``.
    """

    matrix: np.ndarray
    stderr: np.ndarray
    visits: np.ndarray
    distance_weighted: bool
    undefined_rows: Tuple[int, ...]


def empirical_transition_frequencies(ensemble: TrajectoryEnsemble,
                                     distance_weighted: bool = True,
                                     ) -> TransitionFrequencies:
    """Pooled a->b transition frequencies over all edges, steps and trials."""
    if ensemble.config.t_steps < 2:
        raise SimulationError("transition frequencies need t_steps >= 2")
    states = ensemble.states
    prev = states[:, :-1, :]
    cur = states[:, 1:, :]
    trials = ensemble.config.trials

    p_on = channel.connection_probability(ensemble.distances, ensemble.config.params)
    occupancy = {0: 1.0 - p_on, 1: p_on}  # (trials, n_edges)
    n_opp = (ensemble.config.t_steps - 1) * ensemble.config.n_edges

    matrix = np.full((2, 2), np.nan)
    stderr = np.full((2, 2), np.nan)
    visits = np.zeros(2, dtype=np.int64)
    undefined = []
    for a in (0, 1):
        mask_a = prev == bool(a)
        visits[a] = int(np.count_nonzero(mask_a))
        if visits[a] == 0:
            undefined.append(a)
            continue
        for b in (0, 1):
            hits = mask_a & (cur == bool(b))
            if distance_weighted:
                # edges whose occupancy of a underflowed to (sub)normal zero
                # cannot realize state a; drop them instead of forming 0 * inf
                occ = occupancy[a]
                floor = np.finfo(float).tiny
                w = np.where(occ >= floor, 1.0 / np.maximum(occ, floor), 0.0)
                # per-trial mean of weighted indicators; opportunities fixed
                s = np.einsum("ijk,ik->i", hits, w) / n_opp
                matrix[a, b] = float(np.mean(s))
                stderr[a, b] = float(np.std(s, ddof=1) / np.sqrt(trials)) if trials > 1 else np.nan
            else:
                s = hits.sum(axis=(1, 2)).astype(float)
                m = mask_a.sum(axis=(1, 2)).astype(float)
                ratio = s.sum() / m.sum()
                matrix[a, b] = float(ratio)
                if trials > 1:
                    resid = s - ratio * m
                    stderr[a, b] = float(
                        np.sqrt(np.sum(resid ** 2) * trials / (trials - 1)) / m.sum())
                else:
                    stderr[a, b] = np.nan
    return TransitionFrequencies(matrix=matrix, stderr=stderr, visits=visits,
                                 distance_weighted=distance_weighted,
                                 undefined_rows=tuple(undefined))


@dataclass(frozen=True)
class BlockEntropyEstimate:
    """Plug-in block entropy of the designated edge with bias diagnostics."""

    t: int
    plug_in: float
    miller_madow: float
    bias_correction: float
    stderr: float
    n_samples: int
    n_observed_sequences: int


def empirical_block_entropy(ensemble: TrajectoryEnsemble, t: int) -> BlockEntropyEstimate:
    """Plug-in entropy of length-t trajectories of edge 0, one per trial.

    Pooling a single designated edge per independent trial keeps the samples
    i.i.d. draws from the distance mixture.  Warns when not all 2**t
    sequences were observed; the Miller-Madow correction quantifies the
    resulting downward bias of the plug-in estimate.
    """
    if not 1 <= t <= 12:
        raise SimulationError(f"block length must be in [1, 12], got {t}")
    if t > ensemble.config.t_steps:
        raise SimulationError(
            f"block length {t} exceeds t_steps {ensemble.config.t_steps}")
    bits = ensemble.states[:, :t, 0].astype(np.int64)
    codes = bits @ (1 << np.arange(t, dtype=np.int64))
    counts = np.bincount(codes, minlength=1 << t)
    n = int(counts.sum())
    p_hat = counts[counts > 0] / n
    plug_in = float(np.sum(-p_hat * np.log2(p_hat)))
    k_obs = int(np.count_nonzero(counts))
    bias = (k_obs - 1) / (2.0 * n * np.log(2.0))
    second_moment = float(np.sum(p_hat * np.log2(p_hat) ** 2))
    stderr = float(np.sqrt(max(second_moment - plug_in ** 2, 0.0) / n))
    if k_obs < (1 << t):
        warnings.warn(
            f"only {k_obs} of {1 << t} length-{t} sequences observed; "
            f"plug-in estimate biased low by roughly {bias:.3e} bits "
            "(Miller-Madow correction applied in .miller_madow)",
            stacklevel=2,
        )
    return BlockEntropyEstimate(t=t, plug_in=plug_in,
                                miller_madow=plug_in + bias,
                                bias_correction=bias, stderr=stderr,
                                n_samples=n, n_observed_sequences=k_obs)


@dataclass(frozen=True)
class StationarityReport:
    """Per-step pooled edge densities checked against the first step."""

    densities: np.ndarray
    deviations_sigma: np.ndarray
    flagged_steps: Tuple[int, ...]
    passed: bool


def stationarity_check(ensemble: TrajectoryEnsemble,
                       sigma_limit: float = 4.0) -> StationarityReport:
    """Flag any step whose pooled edge density drifts from step 0 by more
    than ``sigma_limit`` standard errors (paired across trials)."""
    if ensemble.config.t_steps < 2:
        raise SimulationError("stationarity check needs t_steps >= 2")
    per_trial = ensemble.states.mean(axis=2)  # (trials, t_steps)
    densities = per_trial.mean(axis=0)
    trials = ensemble.config.trials

    z = np.zeros(ensemble.config.t_steps)
    for step in range(1, ensemble.config.t_steps):
        diff = per_trial[:, step] - per_trial[:, 0]
        mean = diff.mean()
        if trials > 1:
            se = diff.std(ddof=1) / np.sqrt(trials)
        else:
            se = 0.0
        z[step] = 0.0 if mean == 0.0 else (np.inf if se == 0.0 else mean / se)
    flagged = tuple(int(s) for s in np.nonzero(np.abs(z) > sigma_limit)[0])
    return StationarityReport(densities=densities, deviations_sigma=z,
                              flagged_steps=flagged, passed=not flagged)


def export_snapshots(ensemble: TrajectoryEnsemble, fh) -> None:
    """Write the ensemble as 'trial,step,edge_i,edge_j,state' CSV lines."""
    fh.write("trial,step,edge_i,edge_j,state\n")
    # each line ends in "i,j,0" or "i,j,1" of its edge; a (trial, step) block
    # joins the chosen endings behind the prefix its lines share
    off, on = (np.array([f"{i},{j},{s}\n" for i, j in ensemble.pairs], dtype=object)
               for s in (0, 1))
    for trial, states in enumerate(ensemble.states):
        prefixes = [f"{trial},{step}," for step in range(len(states))]
        blocks = np.where(states, on, off).tolist()
        fh.write("".join(p + p.join(b) for p, b in zip(prefixes, blocks)))

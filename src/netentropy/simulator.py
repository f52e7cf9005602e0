"""Seeded Monte Carlo generation of temporal network snapshots and the
empirical estimators that cross-validate the quadrature machinery.

Every trial samples fixed node positions (stationary terminals), then evolves
each edge independently as a two-state Markov chain at its pair distance.
Randomness comes from counter-keyed Philox4x64-10 streams (Salmon et al.,
SC'11): stream (trial, lane) is the sequence of 64-bit words of the blocks at
counter ``[k, 0, trial, lane]``, k = 1, 2, ..., under the key
``[seed, 0]``, each word mapped to the double ``(word >> 11) * 2**-53``.
Lane e < 2**62 drives edge e; the position lane sits at 2**62 (x coordinates
from the first n draws, y from the next n).  An edge's draws are only ever
compared with a probability p, and u < p holds exactly where the integer
``word >> 11 < ceil(p * 2**53)``, so the edge lanes are stepped on the words
and never made doubles.  The blocks come from an in-repo numpy kernel,
checked in the tests against ``np.random.Philox`` started at counter
``[0, 0, trial, lane]``, which emits block k = 1 first.  As every stream is
addressed by its counter, the simulator generates and steps tiles of streams,
a batch of trials by a slice of their edges, and any tiling gives
bit-identical ensembles.  So does any cut of a run into consecutive trial
ranges (:meth:`SimConfig.batches`): the simulate command generates a run one
such batch at a time and hands each to the snapshot export and to a
:class:`TrajectoryTally`, whose per-trial sums the estimators read, so it
never holds more than one batch of states.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, replace
from typing import Tuple

import numpy as np

from . import channel
from .channel import ChannelParams
from .geometry import Domain

_U64 = np.uint64
_POSITION_LANE = np.array([1 << 62], dtype=_U64)
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_LOW32 = _U64(_MASK32)
_SHIFT32 = _U64(32)
# Philox4x64 multipliers and Weyl key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# Philox blocks generated per tile of streams: bounds the temporary working
# set (about 90 bytes per block, 1.5 MB) whatever n, t and the trial count,
# as long as one stream of t draws fits.  With tiles of 32768 blocks, the
# simulate command's streamed n = 50, T = 100, 16-trial run faulted in
# about 9,800 pages per call against 1,000 (the allocator handed each
# tile's arrays back to the system) and took 6% longer
_CHUNK_BLOCKS = 16384
# Philox blocks per batch of SimConfig.batches: a batch's states, 4 bytes per
# block, take at most 1 MiB unless one trial needs more.  Batches of one
# trial at n = 50, T = 100 made the simulate command 14% slower than
# holding the whole run: each batch draws its positions, steps one-trial
# tiles that share no Philox products, and calls the export and the tally
_BATCH_BLOCKS = 262144
# export_snapshots passes fh.write at most this many bytes at a time, or one
# (trial, step) block of lines where that is longer
_WRITE_BYTES = 256 * 1024
INITIAL_STATES = ("stationary", "all_off", "all_on")
# stationarity_check flags a step whose density drifts by more standard errors
STATIONARITY_SIGMA = 4.0


class SimulationError(ValueError):
    """Invalid simulation configuration or ensemble query."""


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run description; identical configs give identical output.

    The run holds trials ``first_trial`` to ``first_trial + trials - 1``.
    Trial i draws streams (i, lane) whichever run holds it, so consecutive
    trial ranges of one run give that run's trials, bit for bit.
    """

    n: int
    t_steps: int
    trials: int
    seed: int
    domain: Domain
    params: ChannelParams
    first_trial: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise SimulationError(f"node count must be >= 2, got {self.n}")
        if self.t_steps < 1:
            raise SimulationError(f"t_steps must be >= 1, got {self.t_steps}")
        if self.trials < 1:
            raise SimulationError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2 ** 64:
            raise SimulationError("seed must be a 64-bit unsigned integer")
        if not 0 <= self.first_trial <= 2 ** 64 - self.trials:
            raise SimulationError("trial numbers must be 64-bit unsigned integers")

    @property
    def n_edges(self) -> int:
        return self.n * (self.n - 1) // 2

    def batches(self):
        """The run's consecutive trial ranges, as configs, each of as many
        whole trials as ``_BATCH_BLOCKS`` Philox blocks hold, and at least
        one."""
        size = max(1, _BATCH_BLOCKS // (_blocks(self.t_steps) * self.n_edges))
        for start in range(0, self.trials, size):
            yield replace(self, first_trial=self.first_trial + start,
                          trials=min(size, self.trials - start))


def _mulhilo(m: int, x: np.ndarray):
    """High and low 64-bit words of the 128-bit product m * x.

    numpy has no 128-bit integers, so the high word is assembled from the
    four 32 x 32 -> 64-bit partial products of the operands' halves:
    u = m_hi*x_lo + (m_lo*x_lo >> 32) and v = m_lo*x_hi + (u & M32) stay
    below 2**64, and hi = m_hi*x_hi + (u >> 32) + (v >> 32).  The
    temporaries are updated in place.
    """
    m_hi, m_lo = _U64(m >> 32), _U64(m & _MASK32)
    x_lo = x & _LOW32
    x_hi = x >> _SHIFT32
    u = x_lo * m_lo
    u >>= _SHIFT32
    x_lo *= m_hi
    u += x_lo
    v = np.bitwise_and(u, _LOW32, out=x_lo)
    v += x_hi * m_lo
    v >>= _SHIFT32
    u >>= _SHIFT32
    hi = x_hi
    hi *= m_hi
    hi += u
    hi += v
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


def _indices(chunk: slice, first: int = 0) -> np.ndarray:
    return np.arange(first + chunk.start, first + chunk.stop, dtype=_U64)


def _thresholds(p):
    """ceil(p * 2**53) as uint64, for p in [0, 1].

    A word w maps to the double u = (w >> 11) * 2**-53, and u < p holds
    exactly where the integer w >> 11 < p * 2**53 (a power-of-two scaling,
    so exact), that is where w >> 11 < ceil(p * 2**53).
    """
    return np.ceil(np.multiply(p, 2.0 ** 53)).astype(_U64)


def _step_chains(seed: int, trials: slice, edges: slice, t_steps: int,
                 p_on, p01, p10, initial_state: str) -> np.ndarray:
    """(trials, t_steps, edges) states of the edge chains of these indices.

    Edge e of trial i draws stream (i, e); its first draw decides a
    stationary start, the one at step s > 0 whether the chain flips from
    step s - 1.  The probabilities broadcast against (trials, edges).

    The draws are never made doubles: each word's top 53 bits are compared
    with :func:`_thresholds` of the probabilities, which gives the same
    tests.  An off chain turns on where u < p01 and an on chain stays on
    where u >= p10, so each step is ``(previous & differs) ^ turn_on`` with
    ``differs`` where those two tests disagree.
    """
    k = np.arange(1, _blocks(t_steps) + 1, dtype=_U64)
    # block-major words, (blocks, trials, edges) each: the trials share the
    # (block, lane) products of round 2
    words = _philox4x64((k[:, None, None], _U64(0), _indices(trials)[:, None],
                         _indices(edges)), seed)
    # step-major, so that every step reads and writes contiguous slices
    turn_on = np.empty((t_steps,) + words[0].shape[1:], dtype=bool)
    differs = np.empty_like(turn_on)
    on_below, stay_from = _thresholds(p01), _thresholds(p10)
    for j, w in enumerate(words):
        # word j of block k is the draw of step 4 (k - 1) + j
        w >>= _U64(11)
        steps = slice(j, t_steps, 4)
        count = len(turn_on[steps])
        np.less(w[:count], on_below, out=turn_on[steps])
        np.greater_equal(w[:count], stay_from, out=differs[steps])
    differs ^= turn_on
    st = np.empty_like(turn_on)
    if initial_state == "stationary":
        np.less(words[0][0], _thresholds(p_on), out=st[0])
    else:
        st[0] = initial_state == "all_on"
    for step in range(1, t_steps):
        np.bitwise_and(st[step - 1], differs[step], out=st[step])
        st[step] ^= turn_on[step]
    return st.transpose(1, 0, 2)


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

    Row i of each array is trial ``config.first_trial + i``.
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
        """Symmetric boolean adjacency matrix of one snapshot; ``trial`` is
        the row, trial ``config.first_trial + trial`` of the run."""
        n = self.config.n
        adj = np.zeros((n, n), dtype=bool)
        on = self.states[trial, step]
        adj[self.pairs[:, 0], self.pairs[:, 1]] = on
        adj[self.pairs[:, 1], self.pairs[:, 0]] = on
        return adj


def sample_positions(config: SimConfig):
    """Node positions (trials, n, 2) and pair distances (trials, n_edges), in
    edge_pairs order, of every trial of ``config``, drawn from the position
    lane: the ones :func:`simulate` uses, without stepping any edge chain."""
    n = config.n
    iu, ju = np.triu_indices(n, k=1)
    positions = np.empty((config.trials, n, 2))
    distances = np.empty((config.trials, config.n_edges))
    for trials in _chunks(config.trials, _blocks(2 * n)):
        upos = _stream_uniforms(config.seed, _indices(trials, config.first_trial),
                                _POSITION_LANE, 2 * n)[:, :, 0]
        pos = config.domain.points_from_uniforms(
            upos[:, :n].ravel(), upos[:, n:].ravel()).reshape(-1, n, 2)
        positions[trials] = pos
        distances[trials] = np.hypot(pos[:, iu, 0] - pos[:, ju, 0],
                                     pos[:, iu, 1] - pos[:, ju, 1])
    return positions, distances


def simulate(config: SimConfig, initial_state: str = "stationary") -> TrajectoryEnsemble:
    """Generate the seeded ensemble of edge-state trajectories.

    Edges start in the stationary conditional law (on with probability
    p(r)), which makes the whole process stationary from the first step;
    ``all_off`` / ``all_on`` give deliberately non-stationary starts for
    diagnostics.
    """
    if initial_state not in INITIAL_STATES:
        raise SimulationError(f"initial_state must be one of {INITIAL_STATES}")
    t, n_edges = config.t_steps, config.n_edges
    positions, distances = sample_positions(config)
    states = np.empty((config.trials, t, n_edges), dtype=bool)

    # tiles of a batch of trials by a slice of their edges; the link law is
    # evaluated once per tile, so the working set stays within its budget
    per_stream = _blocks(t)
    for rows in _chunks(config.trials, per_stream):
        trials = slice(config.first_trial + rows.start, config.first_trial + rows.stop)
        for edges in _chunks(n_edges, per_stream * (rows.stop - rows.start)):
            dist = distances[rows, edges]
            p_on, p01, p10 = channel.link_probabilities(dist, config.params)
            states[rows, :, edges] = _step_chains(
                config.seed, trials, edges, t, p_on, p01, p10, initial_state)

    return TrajectoryEnsemble(config=config, initial_state=initial_state,
                              positions=positions, distances=distances,
                              states=states)


def _inverse_occupancies(distances: np.ndarray, params: ChannelParams):
    """1 / (1 - p) and 1 / p of the edges' connection probabilities p.

    An edge whose occupancy of a state underflowed to (sub)normal zero
    cannot realize that state: its weight is 0 instead of forming 0 * inf.
    """
    p_on = channel.connection_probability(distances, params)
    floor = np.finfo(float).tiny
    return [np.where(occ >= floor, 1.0 / np.maximum(occ, floor), 0.0)
            for occ in (1.0 - p_on, p_on)]


class TrajectoryTally:
    """The sums of a run's edge states that the estimators read, added one
    batch of trials at a time, in order.

    A run streamed batch by batch (:meth:`SimConfig.batches`) so never holds
    more than one batch of states.  Over the run a tally keeps the count of
    on edge-steps, ``on``, and of the visits of states 0 and 1 before a
    step, ``visits``.  Per trial it keeps edge 0's first min(12, t_steps)
    states, ``heads``, enough for every block length of
    :func:`empirical_block_entropy`, and the sums of the a -> b transition
    indicators, ``sums[a, b]``: with ``distance_weighted``, each indicator
    weighted by the inverse stationary occupancy of state a at the edge's
    distance, as :func:`empirical_transition_frequencies` weights it, and
    otherwise the counts.  A trial's sums are those of its own states
    whichever batch held it, so any batching gives the same estimates, bit
    for bit.
    """

    def __init__(self, config: SimConfig, distance_weighted: bool = True):
        self.config = config
        self.distance_weighted = distance_weighted
        self.on = 0
        self.visits = np.zeros(2, dtype=np.int64)
        self.heads = np.empty((config.trials, min(12, config.t_steps)), dtype=bool)
        self.sums = np.empty((2, 2, config.trials),
                             dtype=float if distance_weighted else np.int64)
        self._done = 0

    @classmethod
    def of(cls, ensemble: TrajectoryEnsemble,
           distance_weighted: bool = True) -> "TrajectoryTally":
        """The tally of one whole ensemble."""
        tally = cls(ensemble.config, distance_weighted)
        tally.add(ensemble)
        return tally

    def add(self, ensemble: TrajectoryEnsemble) -> None:
        """Add the sums of the run's next trials, those of ``ensemble``."""
        run, batch = self.config, ensemble.config
        first = self._done
        if (replace(batch, first_trial=run.first_trial, trials=run.trials) != run
                or batch.first_trial != run.first_trial + first
                or first + batch.trials > run.trials):
            raise SimulationError("the ensemble is not the next batch of this run")
        self._done += batch.trials
        states = ensemble.states
        self.on += int(np.count_nonzero(states))
        self.heads[first:self._done] = states[:, :self.heads.shape[1], 0]
        if run.t_steps < 2:
            return
        # as many trials at a time as a tile holds, which bounds the
        # temporaries by a tile's
        for chunk in _chunks(batch.trials, _blocks(run.t_steps) * run.n_edges):
            prev = states[chunk, :-1, :]
            cur = states[chunk, 1:, :]
            on_visits = np.count_nonzero(prev)
            self.visits += (prev.size - on_visits, on_visits)
            sums = self.sums[:, :, first + chunk.start:first + chunk.stop]
            if self.distance_weighted:
                weights = _inverse_occupancies(ensemble.distances[chunk], run.params)
            hits = np.empty(prev.shape, dtype=bool)
            for a in (0, 1):
                mask_a = prev if a else ~prev
                # the a -> 1 hits; the other visits of a are the a -> 0 hits
                np.logical_and(mask_a, cur, out=hits)
                for b in (1, 0):
                    if b == 0:
                        hits ^= mask_a
                    if self.distance_weighted:
                        sums[a, b] = np.einsum("ijk,ik->i", hits, weights[a])
                    else:
                        sums[a, b] = np.count_nonzero(hits.reshape(len(hits), -1),
                                                      axis=1)

    def _check_complete(self) -> None:
        missing = self.config.trials - self._done
        if missing:
            raise SimulationError(f"{missing} trials of the run are not tallied")

    @property
    def mean_edge_density(self) -> float:
        """Fraction of the run's edge-steps that are on."""
        self._check_complete()
        c = self.config
        return self.on / (c.trials * c.t_steps * c.n_edges)


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


def empirical_transition_frequencies(source, distance_weighted: bool = True,
                                     ) -> TransitionFrequencies:
    """Pooled a->b transition frequencies over all edges, steps and trials
    of a :class:`TrajectoryEnsemble`, or of a run's complete
    :class:`TrajectoryTally` made with the same ``distance_weighted``."""
    if source.config.t_steps < 2:
        raise SimulationError("transition frequencies need t_steps >= 2")
    if not isinstance(source, TrajectoryTally):
        source = TrajectoryTally.of(source, distance_weighted)
    elif source.distance_weighted != distance_weighted:
        raise SimulationError(f"the tally holds the sums of distance_weighted="
                              f"{source.distance_weighted}")
    source._check_complete()
    trials = source.config.trials
    n_opp = (source.config.t_steps - 1) * source.config.n_edges

    matrix = np.full((2, 2), np.nan)
    stderr = np.full((2, 2), np.nan)
    undefined = []
    for a in (0, 1):
        if source.visits[a] == 0:
            undefined.append(a)
            continue
        if not distance_weighted:
            m = np.add(source.sums[a, 0], source.sums[a, 1], dtype=float)
        for b in (1, 0):
            if distance_weighted:
                # per-trial mean of weighted indicators; opportunities fixed
                s = source.sums[a, b] / n_opp
                matrix[a, b] = float(np.mean(s))
                stderr[a, b] = float(np.std(s, ddof=1) / np.sqrt(trials)) if trials > 1 else np.nan
            else:
                s = source.sums[a, b].astype(float)
                ratio = s.sum() / m.sum()
                matrix[a, b] = float(ratio)
                if trials > 1:
                    # the squared residuals s - ratio * m, in s's array
                    s -= ratio * m
                    s *= s
                    stderr[a, b] = float(
                        np.sqrt(np.sum(s) * trials / (trials - 1)) / m.sum())
                else:
                    stderr[a, b] = np.nan
    return TransitionFrequencies(matrix=matrix, stderr=stderr,
                                 visits=source.visits.copy(),
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


def empirical_block_entropy(source, t: int) -> BlockEntropyEstimate:
    """Plug-in entropy of length-t trajectories of edge 0, one per trial, of
    a :class:`TrajectoryEnsemble` or of a run's complete
    :class:`TrajectoryTally`.

    Pooling a single designated edge per independent trial keeps the samples
    i.i.d. draws from the distance mixture.  Warns when not all 2**t
    sequences were observed; the Miller-Madow correction quantifies the
    resulting downward bias of the plug-in estimate.
    """
    if not 1 <= t <= 12:
        raise SimulationError(f"block length must be in [1, 12], got {t}")
    if t > source.config.t_steps:
        raise SimulationError(
            f"block length {t} exceeds t_steps {source.config.t_steps}")
    if isinstance(source, TrajectoryTally):
        source._check_complete()
        heads = source.heads[:, :t]
    else:
        heads = source.states[:, :t, 0]
    bits = heads.astype(np.int64)
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


def stationarity_check(ensemble: TrajectoryEnsemble) -> StationarityReport:
    """Flag any step whose pooled edge density drifts from step 0 by more
    than STATIONARITY_SIGMA standard errors (paired across trials)."""
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
    flagged = tuple(int(s) for s in np.nonzero(np.abs(z) > STATIONARITY_SIGMA)[0])
    return StationarityReport(densities=densities, deviations_sigma=z,
                              flagged_steps=flagged, passed=not flagged)


def _digit_runs(start: int, stop: int):
    """(start, stop, width): the runs of range(start, stop) with width-digit
    numbers."""
    width = len(str(start))
    while start < stop:
        end = min(10 ** width, stop)
        yield start, end, width
        start, width = end, width + 1


def _row_runs(first_trial: int, trials: int, t_steps: int):
    """(start, stop, (trial digits, step digits)) of each run of consecutive
    rows whose numbers have equal digit counts; row i * t_steps + step is
    (first_trial + i, step)."""
    step_runs = list(_digit_runs(0, t_steps))
    for first, stop, trial_width in _digit_runs(first_trial, first_trial + trials):
        first, stop = first - first_trial, stop - first_trial
        if len(step_runs) == 1:
            # every step has one digit: the run spans whole trials
            yield first * t_steps, stop * t_steps, (trial_width, 1)
            continue
        for i in range(first, stop):
            for step, step_stop, step_width in step_runs:
                yield (i * t_steps + step, i * t_steps + step_stop,
                       (trial_width, step_width))


def _digits(numbers: np.ndarray, width: int) -> np.ndarray:
    """(len(numbers), width, 1) ASCII digits of width-digit numbers."""
    digits = np.empty((len(numbers), width, 1), dtype=np.uint8)
    for k in range(width - 1, -1, -1):
        numbers, digits[:, k, 0] = np.divmod(numbers, 10)
    digits += ord("0")
    return digits


# the batches of a run share their templates: at most one per step digit
# count is in use at a time, so runs of fewer than 10**4 steps rebuild none
@functools.lru_cache(maxsize=4)
def _block_template(n: int, trial_width: int, step_width: int):
    """Lines of one (trial, step) block whose numbers have these digit counts.

    Returns the block's bytes with '0' in every trial digit, step digit and
    state, and the columns of those: (trial_width, E), (step_width, E) and
    (E,) for the E edges of n nodes, all read-only.
    """
    lead = b"0" * trial_width + b"," + b"0" * step_width + b","
    tails = [b"%d,%d," % (i, j) for i, j in edge_pairs(n)]
    block = np.frombuffer(b"".join(lead + tail + b"0\n" for tail in tails),
                          dtype=np.uint8)
    widths = len(lead) + np.array([len(tail) for tail in tails]) + 2
    starts = np.cumsum(widths) - widths
    columns = (starts + np.arange(trial_width)[:, None],
               starts + trial_width + 1 + np.arange(step_width)[:, None],
               starts + widths - 2)
    for cols in columns:
        cols.setflags(write=False)
    return (block,) + columns


def export_snapshots(ensemble: TrajectoryEnsemble, fh) -> None:
    """Write the ensemble as 'trial,step,edge_i,edge_j,state' CSV lines to
    the binary handle ``fh``, as ASCII bytes, after the header line where
    the ensemble starts at trial 0.  The batches of a run
    (:meth:`SimConfig.batches`), written in order, so give the run's lines.

    The lines of one (trial, step) block form one unit.  After the header,
    each ``fh.write`` passes at most ``_WRITE_BYTES`` bytes, or one block
    where a block is longer, so the memory the export adds to the
    ensemble's is bounded whatever the trial and step counts.
    """
    first_trial = ensemble.config.first_trial
    if first_trial == 0:
        fh.write(b"trial,step,edge_i,edge_j,state\n")
    trials, t_steps, n_edges = ensemble.states.shape
    states = ensemble.states.reshape(-1, n_edges).view(np.uint8)
    # a buffer of whole blocks is made from the template of its digit counts;
    # a write refills only its step digit and state columns, and its trial
    # digit columns where the trial changes, so the commas and edge ids stay
    # in place
    buf_widths = buf_trial = None
    for first, stop, widths in _row_runs(first_trial, trials, t_steps):
        block, trial_cols, step_cols, state_cols = _block_template(
            ensemble.config.n, *widths)
        if widths != buf_widths:
            buf = None  # free the previous buffer before making the next
            buf = np.empty((max(1, _WRITE_BYTES // block.size), block.size),
                           dtype=np.uint8)
            buf[:] = block
            buf_widths, buf_trial = widths, None
        for start in range(first, stop, len(buf)):
            end = min(start + len(buf), stop)
            rows = np.arange(start, end, dtype=_U64)
            out = buf[:end - start]
            trial = first_trial + start // t_steps
            if trial == first_trial + (end - 1) // t_steps:
                # every line of the buffer is of this trial
                if trial != buf_trial:
                    buf[:, trial_cols] = _digits(np.array([trial], dtype=_U64),
                                                 widths[0])
                    buf_trial = trial
            else:
                out[:, trial_cols] = _digits(_U64(first_trial) + rows // t_steps,
                                             widths[0])
                buf_trial = None
            out[:, step_cols] = _digits(rows % t_steps, widths[1])
            out[:, state_cols] = states[start:end] + ord("0")
            fh.write(out.ravel())

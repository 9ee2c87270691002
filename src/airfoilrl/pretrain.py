"""Imitation-learning pretraining of the actor and critic-only fitting.

Greedy random search on the evaluator yields a state-action sample
table; duplicates are resolved by reward, action noise is smoothed out by
inverse-distance weighting, the actor is regressed onto the result, and
the critic is then fit with the actor frozen.
"""
from __future__ import annotations

import numpy as np

from . import rl
from .env import ACTION_BOUNDS, REWARD_SCALE, physical_to_scaled
from .geometry import apply_action
from .nnet import AdamState, Fit
from .rl import PolicyAgent
from .surrogate import nearest_columns
from .tables import (ACTION_COLS, REWARD_COL, SAMPLE_COLUMNS, SAMPLE_WIDTH, STATE_COLS,
                     is_valid_design, read_cells, read_csv, write_csv)

SMOOTH_PASSES = 10
SMOOTH_NEIGHBORS = 10
SMOOTH_RELAXATION = 0.2
DEDUP_TOL = 1e-9
_SMOOTH_BLOCK = 256  # smooth_samples' distance rows at a time: O(n * 256) memory

IMITATION_SCHEDULE = [(250, 1e-3), (250, 1e-4), (250, 1e-5), (250, 1e-6)]


def greedy_search(baselines, env, searches: int, steps: int, candidates: int,
                  rng) -> np.ndarray:
    """Random greedy searches from each (N, 14) baseline row in turn on
    env's evaluator and t_max; returns one (k, 8) sample table, a row per
    step taken.  Each baseline is evaluated alone, as baseline[None]: a
    surrogate's block call would round differently.  Each step draws
    `candidates` actions uniformly over the physical action box, scores
    them in one apply_action and one evaluator call, and advances to the
    first of least drag inside the feature box; a search ends early when
    none is.  env.record counts them (``greedy_candidates``)."""
    samples = [np.empty((0, SAMPLE_WIDTH))]
    for baseline in baselines:
        ev = env.evaluator(baseline[None])
        cd0, state0 = float(ev.cd[0]), ev.state[0].copy()
        for _ in range(searches):
            cst, cd, state = baseline, cd0, state0
            for _ in range(steps):
                draws = rng.uniform(ACTION_BOUNDS[:, 0], ACTION_BOUNDS[:, 1],
                                    size=(candidates, 3))
                new, _, failed = apply_action(np.tile(cst, (candidates, 1)), env.t_max, draws)
                env.record["greedy_candidates"] += candidates
                built = np.flatnonzero(~failed)
                drag = np.full(candidates, np.inf)
                if built.size:
                    ev = env.evaluator(new[built])
                    valid = is_valid_design(ev.cd, ev.state, ev.no_shock)
                    drag[built] = np.where(valid, ev.cd, np.inf)
                if not np.any(drag < np.inf):
                    break  # no candidate satisfies the constraints
                best = int(np.argmin(drag))
                j = int(np.searchsorted(built, best))
                samples.append([[*state, *draws[best], REWARD_SCALE * (cd - drag[best])]])
                cst = new[best]
                cd, state = float(drag[best]), ev.state[j].copy()
    return np.concatenate(samples)


def dedup_states(samples: np.ndarray) -> np.ndarray:
    """Among the rows of a sample table with equal states (within tolerance
    of a group's first state), keep only the highest-reward one; order of
    first appearance is preserved."""
    kept, firsts = [], np.empty((len(samples), STATE_COLS.stop))  # a row, a state per group
    for i, row in enumerate(samples):
        d = np.linalg.norm(firsts[:len(kept)] - row[STATE_COLS], axis=1)
        hits = np.flatnonzero(d <= DEDUP_TOL)
        if hits.size == 0:
            firsts[len(kept)] = row[STATE_COLS]
            kept.append(i)
        elif row[REWARD_COL] > samples[kept[hits[0]], REWARD_COL]:
            kept[hits[0]] = i
    return samples[kept]


def smooth_samples(samples: np.ndarray) -> np.ndarray:
    """Inverse-distance-weighted action smoothing over state space: with
    distances frozen from the original states, each of SMOOTH_PASSES
    passes moves every action SMOOTH_RELAXATION of the way to the IDW mean
    of its SMOOTH_NEIGHBORS nearest neighbours (ties lowest index first);
    a zero-distance neighbour takes the largest finite weight, 1.0 if none."""
    n = len(samples)
    if n < SMOOTH_NEIGHBORS + 1:
        raise ValueError(f"need at least {SMOOTH_NEIGHBORS + 1} samples")
    states, actions = samples[:, STATE_COLS], samples[:, ACTION_COLS]
    # squared distances summed column by column, in order; ties lowest index first
    neighbor_idx = np.empty((n, SMOOTH_NEIGHBORS), dtype=np.intp)
    ndist = np.empty((n, SMOOTH_NEIGHBORS))
    for s in range(0, n, _SMOOTH_BLOCK):
        rows = states[s:s + _SMOOTH_BLOCK]
        b = len(rows)
        dist = np.zeros((b, n))
        for a, col in zip(rows.T, states.T):
            d = np.subtract.outer(a, col)
            dist += np.square(d, out=d)
        np.sqrt(dist, out=dist)
        dist[np.arange(b), np.arange(s, s + b)] = np.inf
        neighbor_idx[s:s + b], ndist[s:s + b] = nearest_columns(dist, SMOOTH_NEIGHBORS)
    with np.errstate(divide="ignore"):
        weights = 1.0 / ndist
    finite = np.isfinite(weights)
    if not np.all(finite):
        max_finite = weights[finite].max() if np.any(finite) else 1.0
        weights = np.where(finite, weights, max_finite)
    for _ in range(SMOOTH_PASSES):
        neigh_actions = actions[neighbor_idx]  # (n, k, 3)
        avg = (weights[:, :, None] * neigh_actions).sum(axis=1) \
            / weights.sum(axis=1)[:, None]
        actions = actions + (avg - actions) * SMOOTH_RELAXATION
    return np.column_stack((states, actions, samples[:, REWARD_COL]))


def imitate_policy(agent: PolicyAgent, samples: np.ndarray, schedule) -> list[float]:
    """Regress the actor mean onto the sample actions (scaled space) by
    full-batch Adam steps over schedule's (epochs, rate) segments, log_std
    untouched; returns the epochs' MSEs."""
    if not len(samples):
        raise ValueError("no samples to imitate")
    targets = physical_to_scaled(samples[:, ACTION_COLS])
    xs = agent.actor.input_scaler.scale(samples[:, STATE_COLS])
    fit = Fit(agent.actor, len(samples))
    return [fit.step(xs, targets, lr) for epochs, lr in schedule for _ in range(epochs)]


def pretrain_critic(agent: PolicyAgent, baselines, env, schedule, epochs: int,
                    trajectories: int, seed: int) -> list[dict]:
    """Fit the critic alone to the agent's rollouts on `env`, taking
    ppo_train's parameters: per iteration at schedule's (count, critic
    rate) segments, one collect_batch and one critic-only _update_agent.
    The actor never changes, so the policy is evaluated once: history row
    k is row 0 with iteration k and its critic loss."""
    if not len(baselines):
        raise rl.PpoError("at least one baseline required")
    rng = np.random.default_rng(seed)
    critic_state = AdamState.for_params(agent.critic.flat)
    first = rl.history_row(agent, 0, rl.evaluate_policy(agent, baselines, env)[0])
    history = [first]
    for n_iters, lr in schedule:
        for _ in range(n_iters):
            batch = rl.collect_batch(agent, baselines, env, trajectories, rng)
            _, critic_loss = rl._update_agent(agent, batch, epochs, None, lr, None,
                                              critic_state)
            history.append({**first, "iteration": len(history), "critic_loss": critic_loss})
    return history


def write_samples(path, samples: np.ndarray, stage: str) -> None:
    """A sample CSV: the sample table, then its stage column."""
    write_csv(path, SAMPLE_COLUMNS, ([*row.tolist(), stage] for row in samples))


def read_samples(path) -> tuple[np.ndarray, list[str]]:
    """The sample table of a sample CSV and each row's stage; a malformed
    file raises TableError (see tables.read_csv)."""
    return (read_csv(path, SAMPLE_COLUMNS[:SAMPLE_WIDTH]),
            [stage for stage, in read_cells(path, SAMPLE_COLUMNS[SAMPLE_WIDTH:])])

"""Imitation-learning pretraining of the actor and critic-only fitting.

Good state-action samples come from greedy random search on the
evaluator, as a sample table (its CSV file's float columns); duplicates
are resolved by reward, high-frequency action noise is removed by
inverse-distance-weighted smoothing, the actor is regressed onto the
result, and the critic is then fit with the actor frozen.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from .env import ACTION_BOUNDS, REWARD_SCALE, physical_to_scaled
from .geometry import AirfoilGeom, apply_action
from .nnet import Fit
from .rl import PolicyAgent, PpoConfig, ppo_train
from .tables import (ACTION_COLS, REWARD_COL, SAMPLE_COLUMNS, SAMPLE_WIDTH, STATE_COLS,
                     is_valid_design, read_cells, read_csv, write_csv)

SMOOTH_PASSES = 10
SMOOTH_NEIGHBORS = 10
SMOOTH_RELAXATION = 0.2
DEDUP_TOL = 1e-9
# smooth_samples' rows of distances at a time: O(n _SMOOTH_BLOCK) memory
_SMOOTH_BLOCK = 256

IMITATION_SCHEDULE = [(250, 1e-3), (250, 1e-4), (250, 1e-5), (250, 1e-6)]


def greedy_search(baseline: AirfoilGeom, evaluator, searches: int,
                  steps: int, candidates: int, rng,
                  record: Counter | None = None) -> np.ndarray:
    """Random greedy searches: at each step draw candidate actions
    uniformly over the physical action box, keep the one with the
    smallest drag that stays inside the feature box, and advance.
    Returns a (k, 8) sample table, a row per step taken.

    The candidates of a step are one batch: one apply_action call over
    lanes and one evaluator call on the candidates it could build.  The
    first candidate with the smallest drag wins.  `record` counts the
    candidates scored (``greedy_candidates``).
    """
    samples = [np.empty((0, SAMPLE_WIDTH))]
    ev = evaluator(baseline.cst14)
    cd0, state0 = float(ev.cd[0]), ev.state[0].copy()
    for _ in range(searches):
        upper, lower = baseline.cst_upper, baseline.cst_lower
        cd, state = cd0, state0
        for _ in range(steps):
            draws = rng.uniform(ACTION_BOUNDS[:, 0], ACTION_BOUNDS[:, 1],
                                size=(candidates, 3))
            new_upper, new_lower, _, failed = apply_action(
                (np.tile(upper, (candidates, 1)), np.tile(lower, (candidates, 1)),
                 np.full(candidates, baseline.t_max)), draws)
            if record is not None:
                record["greedy_candidates"] += candidates
            built = np.flatnonzero(~failed)
            drag = np.full(candidates, np.inf)
            if built.size:
                ev = evaluator(np.concatenate([new_upper[built], new_lower[built]], axis=1))
                valid = is_valid_design(ev.cd, ev.state, ev.no_shock)
                drag[built] = np.where(valid, ev.cd, np.inf)
            if not np.any(drag < np.inf):
                break  # no candidate satisfies the constraints
            best = int(np.argmin(drag))
            j = int(np.searchsorted(built, best))
            samples.append([[*state, *draws[best], REWARD_SCALE * (cd - drag[best])]])
            upper, lower = new_upper[best], new_lower[best]
            cd, state = float(drag[best]), ev.state[j].copy()
    return np.concatenate(samples)


def dedup_states(samples) -> np.ndarray:
    """Among samples with equal states (within tolerance of a group's
    first state), keep only the highest-reward one; order of first
    appearance is preserved.  Takes a sample table or a list of its rows."""
    samples = np.asarray(samples, dtype=float).reshape(-1, SAMPLE_WIDTH)
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
    """Inverse-distance-weighted action smoothing over state space.

    Distances are frozen from the original states; each pass relaxes
    every action 20% of the way toward the IDW mean of its 10 nearest
    neighbors.  A zero-distance neighbor takes the largest finite
    weight seen in the pass.
    """
    n = len(samples)
    if n < SMOOTH_NEIGHBORS + 1:
        raise ValueError(f"need at least {SMOOTH_NEIGHBORS + 1} samples")
    states, actions = samples[:, STATE_COLS], samples[:, ACTION_COLS]
    # a block of rows at a time, squared distances summed column by
    # column, in order, and each row sorted whole, so ties order as in
    # one sort of the n x n matrix
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
        near = np.argsort(dist, axis=1)[:, :SMOOTH_NEIGHBORS]
        neighbor_idx[s:s + b] = near
        ndist[s:s + b] = np.take_along_axis(dist, near, axis=1)
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


def imitate_policy(agent: PolicyAgent, samples: np.ndarray,
                   schedule=None) -> list[float]:
    """Regress the actor mean onto the sample actions (scaled space).

    Full-batch Adam steps through one Fit; the std layer is untouched.
    Returns the per-epoch mean-squared loss history.
    """
    if not len(samples):
        raise ValueError("no samples to imitate")
    schedule = schedule if schedule is not None else IMITATION_SCHEDULE
    targets = physical_to_scaled(samples[:, ACTION_COLS])
    xs = agent.actor.input_scaler.scale(samples[:, STATE_COLS])
    fit = Fit(agent.actor, len(samples))
    return [fit.step(xs, targets, lr) for epochs, lr in schedule for _ in range(epochs)]


def pretrain_critic(agent: PolicyAgent, baselines, config: PpoConfig,
                    env_factory, critic_schedule, seed: int = 0) -> list[dict]:
    """Fit the critic to the pretrained actor's rollouts: a critic-only
    ppo_train, the actor and log-std left as they are."""
    return ppo_train(agent, baselines, config, env_factory, seed=seed,
                     critic_schedule=critic_schedule)


def write_samples(path, samples: np.ndarray, stage: str = "raw") -> None:
    """A sample CSV: the sample table, then its stage column."""
    write_csv(path, SAMPLE_COLUMNS, ([*row.tolist(), stage] for row in samples))


def read_samples(path) -> tuple[np.ndarray, list[str]]:
    """The sample table of a sample CSV and each row's stage; a malformed
    file raises TableError (see tables.read_csv)."""
    return (read_csv(path, SAMPLE_COLUMNS[:SAMPLE_WIDTH]),
            [stage for stage, in read_cells(path, SAMPLE_COLUMNS[SAMPLE_WIDTH:])])

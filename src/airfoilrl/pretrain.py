"""Imitation-learning pretraining of the actor and critic-only fitting.

Good state-action samples come from greedy random search on the
evaluator; duplicates are resolved by reward, high-frequency action
noise is removed by inverse-distance-weighted smoothing, the actor is
regressed onto the result, and the critic is then fit with the actor
frozen.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .env import ACTION_BOUNDS, REWARD_SCALE, StepStats, physical_to_scaled
from .geometry import AirfoilGeom, BumpAction, apply_action
from .nnet import Fit
from .rl import PolicyAgent, PpoConfig, ppo_train
from .surrogate import is_valid_design

SMOOTH_PASSES = 10
SMOOTH_NEIGHBORS = 10
SMOOTH_RELAXATION = 0.2
DEDUP_TOL = 1e-9

IMITATION_SCHEDULE = [(250, 1e-3), (250, 1e-4), (250, 1e-5), (250, 1e-6)]


@dataclass(frozen=True)
class StateActionSample:
    state: np.ndarray  # 4-vector
    action: BumpAction  # physical space
    reward: float


def greedy_search(baseline: AirfoilGeom, evaluator, searches: int,
                  steps: int, candidates: int, rng,
                  stats: StepStats | None = None) -> list[StateActionSample]:
    """Random greedy searches: at each step draw candidate actions
    uniformly over the physical action box, keep the one with the
    smallest drag that stays inside the feature box, and advance.

    The candidates of a step are one batch: one apply_action call over
    lanes and one evaluator call on the candidates it could build.  The
    first candidate with the smallest drag wins.
    """
    samples: list[StateActionSample] = []
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
            if stats is not None:
                stats.greedy_candidates += candidates
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
            samples.append(StateActionSample(
                state=state, action=BumpAction(*map(float, draws[best])),
                reward=float(REWARD_SCALE * (cd - drag[best]))))
            upper, lower = new_upper[best], new_lower[best]
            cd, state = float(drag[best]), ev.state[j].copy()
    return samples


def dedup_states(samples: list[StateActionSample]) -> list[StateActionSample]:
    """Among samples with equal states (within tolerance), keep only the
    highest-reward one; order of first appearance is preserved."""
    kept: list[StateActionSample] = []
    kept_states: list[np.ndarray] = []
    for s in samples:
        if kept_states:
            d = np.linalg.norm(np.stack(kept_states) - s.state, axis=1)
            hits = np.nonzero(d <= DEDUP_TOL)[0]
        else:
            hits = np.array([], dtype=int)
        if hits.size == 0:
            kept.append(s)
            kept_states.append(np.asarray(s.state, dtype=float))
        else:
            k = int(hits[0])
            if s.reward > kept[k].reward:
                kept[k] = s
    return kept


def smooth_samples(samples: list[StateActionSample]) -> list[StateActionSample]:
    """Inverse-distance-weighted action smoothing over state space.

    Distances are frozen from the original states; each pass relaxes
    every action 20% of the way toward the IDW mean of its 10 nearest
    neighbors.  A zero-distance neighbor takes the largest finite
    weight seen in the pass.
    """
    n = len(samples)
    if n < SMOOTH_NEIGHBORS + 1:
        raise ValueError(f"need at least {SMOOTH_NEIGHBORS + 1} samples")
    states = np.stack([s.state for s in samples])
    actions = np.stack([[s.action.t1, s.action.s_b, s.action.h_b]
                        for s in samples])
    # squared distances summed column by column, in order: n x n memory
    dist = np.zeros((n, n))
    for col in states.T:
        d = np.subtract.outer(col, col)
        dist += np.square(d, out=d)
    np.sqrt(dist, out=dist)
    np.fill_diagonal(dist, np.inf)
    neighbor_idx = np.argsort(dist, axis=1)[:, :SMOOTH_NEIGHBORS]
    ndist = np.take_along_axis(dist, neighbor_idx, axis=1)
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
    return [StateActionSample(state=s.state,
                              action=BumpAction(*map(float, actions[i])),
                              reward=s.reward)
            for i, s in enumerate(samples)]


def imitate_policy(agent: PolicyAgent, samples: list[StateActionSample],
                   schedule=None) -> list[float]:
    """Regress the actor mean onto the sample actions (scaled space).

    Full-batch Adam steps through one Fit; the std layer is untouched.
    Returns the per-epoch mean-squared loss history.
    """
    if not samples:
        raise ValueError("no samples to imitate")
    schedule = schedule if schedule is not None else IMITATION_SCHEDULE
    states = np.stack([s.state for s in samples])
    targets = np.stack([physical_to_scaled(s.action) for s in samples])
    xs = agent.actor.input_scaler.scale(states)
    fit = Fit(agent.actor, len(samples))
    return [fit.step(xs, targets, lr) for epochs, lr in schedule for _ in range(epochs)]


def pretrain_critic(agent: PolicyAgent, baselines, config: PpoConfig,
                    env_factory, critic_schedule, seed: int = 0) -> list[dict]:
    """Fit the critic to the pretrained actor's rollouts: a critic-only
    ppo_train, the actor and log-std left as they are."""
    return ppo_train(agent, baselines, config, env_factory, seed=seed,
                     critic_schedule=critic_schedule)


# ---------------------------------------------------------------------------
# sample CSV: x1,mw1,mwl,mwa,t1,sb,hb,reward (+ stage provenance)

SAMPLE_COLUMNS = ["x1", "mw1", "mwl", "mwa", "t1", "sb", "hb", "reward", "stage"]


def write_samples(path, samples: list[StateActionSample],
                  stage: str = "raw") -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SAMPLE_COLUMNS)
        for s in samples:
            writer.writerow([repr(float(v)) for v in s.state]
                            + [repr(float(s.action.t1)), repr(float(s.action.s_b)),
                               repr(float(s.action.h_b)), repr(float(s.reward)),
                               stage])


def read_samples(path) -> tuple[list[StateActionSample], list[str]]:
    samples: list[StateActionSample] = []
    stages: list[str] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            state = np.array([float(row[k]) for k in SAMPLE_COLUMNS[:4]])
            action = BumpAction(t1=float(row["t1"]), s_b=float(row["sb"]),
                                h_b=float(row["hb"]))
            samples.append(StateActionSample(state=state, action=action,
                                             reward=float(row["reward"])))
            stages.append(row.get("stage", "raw"))
    return samples, stages

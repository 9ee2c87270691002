"""PPO-clip with generalized advantage estimation over Gaussian policies.

The agent is an actor giving mean actions in scaled (0,1) space, a
learnable per-component log-std, and a critic estimating the discounted
reward-to-go.  Rollouts are Monte Carlo over baseline airfoils;
evaluation takes the mean action.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .env import ACTION_BOUNDS, rollout_rows
from .nnet import (AdamState, Fit, MlpModel, Scaler, adam_update, make_mlp, mlp_forward,
                   model_arrays, model_from_arrays, read_archive)
from .tables import FEATURE_BOX

STATE_DIM, ACTION_DIM = len(FEATURE_BOX) - 1, len(ACTION_BOUNDS)
LOG_STD_MIN = math.log(1e-3)  # floor keeping the policy stochastic
CLIP_EPS = 0.1
GAMMA = 0.99
GAE_LAMBDA = 0.8
ENTROPY_COEF = 0.001
CRITIC_LR_MULTIPLIER = 10.0  # critic lr over the actor's
STD_INIT = 0.1


class PpoError(RuntimeError):
    pass


@dataclass
class PpoConfig:
    epochs: int = 200  # gradient epochs per PPO iteration
    trajectories_per_baseline: int = 4
    # (PPO iterations, actor learning rate) segments; the critic's is a multiple
    actor_schedule: list = field(default_factory=lambda: [(50, 1e-3)])


@dataclass
class PolicyAgent:
    actor: MlpModel
    critic: MlpModel
    log_std: np.ndarray

    @property
    def std(self) -> np.ndarray:
        return np.exp(self.log_std)

    def copy(self) -> "PolicyAgent":
        return PolicyAgent(actor=self.actor.copy(), critic=self.critic.copy(),
                           log_std=self.log_std.copy())

    def mean_action(self, state: np.ndarray) -> np.ndarray:
        return mlp_forward(self.actor, state)


def make_agent(rng, hidden) -> PolicyAgent:
    in_scaler = Scaler.from_bounds(FEATURE_BOX[1:])
    actor = make_mlp([STATE_DIM, *hidden, ACTION_DIM], rng, input_scaler=in_scaler)
    critic = make_mlp([STATE_DIM, *hidden, 1], rng, input_scaler=in_scaler)
    return PolicyAgent(actor=actor, critic=critic,
                       log_std=np.full(ACTION_DIM, math.log(STD_INIT)))


def gaussian_log_prob(actions: np.ndarray, means: np.ndarray,
                      std: np.ndarray) -> np.ndarray:
    """Diagonal-Gaussian log density, one value per batch row."""
    z = (actions - means) / std
    return -0.5 * np.sum(z**2, axis=-1) - np.sum(np.log(std)) \
        - 0.5 * actions.shape[-1] * math.log(2.0 * math.pi)


def sample_action(agent: PolicyAgent, state: np.ndarray, rng):
    """Scaled actions and their log-probs (before any clamping): (n, 4)
    states give (n, 3) actions and (n,) log-probs from one actor pass and
    one normal draw of that shape from rng."""
    mean = np.asarray(agent.mean_action(np.asarray(state, dtype=float)))
    std = agent.std
    action = mean + std * rng.standard_normal(mean.shape)
    logp = gaussian_log_prob(action, mean, std)
    return action, logp


def reward_to_go(rewards, gamma: float) -> np.ndarray:
    """Discounted tail sums within a single trajectory."""
    rewards = np.asarray(rewards, dtype=float)
    if rewards.size == 0:
        raise PpoError("empty trajectory")
    out = np.empty_like(rewards)
    acc = 0.0
    for t in range(rewards.size - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def gae_advantages(rewards, values, gamma: float, lam: float) -> np.ndarray:
    """GAE within one trajectory; values carries the bootstrap entry
    (zero at terminal states), so len(values) == len(rewards) + 1."""
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.size != rewards.size + 1:
        raise PpoError("values must have one bootstrap entry past rewards")
    deltas = rewards + gamma * values[1:] - values[:-1]
    out = np.empty_like(deltas)
    acc = 0.0
    for t in range(deltas.size - 1, -1, -1):
        acc = deltas[t] + gamma * lam * acc
        out[t] = acc
    return out


def clip_target(eps: float, adv):
    """The clipped branch g(eps, A): (1+eps)A for A >= 0, else (1-eps)A."""
    adv = np.asarray(adv, dtype=float)
    return np.where(adv >= 0.0, (1.0 + eps) * adv, (1.0 - eps) * adv)


def clipped_objective(ratio, adv, eps: float):
    """PPO-clip per-step terms min(r A, g(eps, A)) and the mask of steps
    whose unclipped branch r A is the minimum: the steps that carry
    gradient through the ratio."""
    unclipped = ratio * adv
    clipped = clip_target(eps, adv)
    return np.minimum(unclipped, clipped), unclipped <= clipped


def entropy_term(std: np.ndarray) -> float:
    """Entropy measure used in the actor objective (additive constant
    differs from the full multivariate Gaussian entropy)."""
    return 0.5 + 0.5 * math.log(2.0 * math.pi) + float(np.sum(np.log(std)))


@dataclass
class TrajectoryBatch:
    states: np.ndarray  # (n, state_dim)
    actions: np.ndarray  # (n, action_dim), scaled space
    log_probs: np.ndarray  # behavior log-probs at sampling time
    rewards: np.ndarray
    values: np.ndarray
    rewards_to_go: np.ndarray
    advantages: np.ndarray
    slices: list  # (start, stop) per trajectory

    @property
    def size(self) -> int:
        return self.states.shape[0]


def ppo_losses(batch: TrajectoryBatch, agent: PolicyAgent, old_agent: PolicyAgent):
    """(actor loss, entropy, critic loss) for a batch; no gradients."""
    means_new = mlp_forward(agent.actor, batch.states)
    means_old = mlp_forward(old_agent.actor, batch.states)
    logp_new = gaussian_log_prob(batch.actions, means_new, agent.std)
    logp_old = gaussian_log_prob(batch.actions, means_old, old_agent.std)
    ratio = np.exp(logp_new - logp_old)
    if not np.all(np.isfinite(ratio)):
        raise PpoError(f"non-finite policy ratio (max logdiff "
                       f"{np.max(logp_new - logp_old):.3g})")
    terms, _ = clipped_objective(ratio, batch.advantages, CLIP_EPS)
    actor_loss = -float(np.mean(terms))
    entropy = entropy_term(agent.std)
    v = mlp_forward(agent.critic, batch.states)[:, 0]
    critic_loss = float(np.mean((v - batch.rewards_to_go) ** 2))
    return actor_loss, entropy, critic_loss


def collect_batch(agent: PolicyAgent, baselines, env,
                  config: PpoConfig, rng) -> TrajectoryBatch:
    """trajectories_per_baseline stochastic episodes from every baseline,
    stepped in lockstep on `env` (a lane per episode, baseline-major);
    each step samples every live lane from one actor pass and one
    (n_live, 3) normal block from rng, rows in lane order.  The batch
    lists each trajectory's steps together, in lane order."""
    episodes = np.repeat(baselines, config.trajectories_per_baseline, axis=0)
    state = env.reset_lanes(episodes)
    blocks = []  # (lanes, states, actions, log-probs, rewards) per lockstep step
    while env.live.any():
        lanes = np.flatnonzero(env.live)
        actions, logps = sample_action(agent, state[lanes], rng)
        result = env.step(actions)
        blocks.append((lanes, state[lanes], actions, logps, result.reward))
        state[lanes] = result.next_state
    lanes, *columns = (np.concatenate(c) for c in zip(*blocks))
    # step-major blocks, stably sorted by lane: each trajectory's steps in order
    order = np.argsort(lanes, kind="stable")
    states_arr, actions_arr, log_probs, rewards_arr = (c[order] for c in columns)
    ends = np.cumsum(np.bincount(lanes, minlength=len(episodes))).tolist()
    slices = list(zip([0] + ends[:-1], ends))
    values = mlp_forward(agent.critic, states_arr)[:, 0]
    rtg = np.empty_like(rewards_arr)
    adv = np.empty_like(rewards_arr)
    for start, stop in slices:
        rtg[start:stop] = reward_to_go(rewards_arr[start:stop], GAMMA)
        v_traj = np.append(values[start:stop], 0.0)  # terminal bootstrap
        adv[start:stop] = gae_advantages(rewards_arr[start:stop], v_traj, GAMMA, GAE_LAMBDA)
    return TrajectoryBatch(states=states_arr, actions=actions_arr, log_probs=log_probs,
                           rewards=rewards_arr, values=values, rewards_to_go=rtg,
                           advantages=adv, slices=slices)


def _update_agent(agent: PolicyAgent, batch: TrajectoryBatch,
                  config: PpoConfig, actor_lr: float | None, critic_lr: float,
                  actor_states: tuple[AdamState, AdamState] | None,
                  critic_state: AdamState) -> tuple[float, float]:
    """config.epochs full-batch PPO epochs of the actor, skipped when
    actor_states (the Adam states of the actor's flat parameters and of
    log_std) is None, then of the critic; returns the final (actor_loss,
    critic_loss), NaN for a skipped actor.  log_std steps after the
    actor, at its rate, then takes the LOG_STD_MIN floor."""
    xs = agent.actor.input_scaler.scale(batch.states)
    n = batch.size
    actor_loss = float("nan")
    if actor_states is not None:
        actor_fit = Fit(agent.actor, n, actor_states[0])
        adv = batch.advantages
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        for _ in range(config.epochs):
            means = actor_fit.forward(xs)
            std = agent.std
            logp_new = gaussian_log_prob(batch.actions, means, std)
            ratio = np.exp(logp_new - batch.log_probs)
            if not np.all(np.isfinite(ratio)):
                raise PpoError("non-finite policy ratio during update")
            terms, active = clipped_objective(ratio, adv, CLIP_EPS)
            actor_loss = -float(np.mean(terms))
            # d(-mean(term))/dmean: only active (unclipped) steps carry gradient
            coef = -(active * ratio * adv)[:, None] / n
            d_mean = coef * (batch.actions - means) / std**2
            d_logstd = np.sum(coef * (((batch.actions - means) / std) ** 2 - 1.0),
                              axis=0)
            d_logstd -= ENTROPY_COEF  # d(-coef*entropy)/dlogstd
            actor_fit.descend(d_mean, actor_lr)
            adam_update(agent.log_std, d_logstd, actor_states[1], actor_lr)
            np.maximum(agent.log_std, LOG_STD_MIN, out=agent.log_std)
    critic_fit = Fit(agent.critic, n, critic_state)
    rtg = batch.rewards_to_go[:, None]
    for _ in range(config.epochs - 1):
        critic_fit.step(xs, rtg, critic_lr, with_loss=False)
    return actor_loss, critic_fit.step(xs, rtg, critic_lr)


def evaluate_policy(agent: PolicyAgent, baselines, env, rollout: list | None = None):
    """Deterministic mean-action rollouts on `env`, a lane per baseline;
    returns (mean cumulative reward in counts, per-baseline rewards).  A
    `rollout` list receives one rollout_rows row per step, episode by
    episode."""
    state = env.reset_lanes(baselines)
    totals = np.zeros(len(baselines))
    rows: list[dict] = []
    taken = 0
    while env.live.any():
        lanes = np.flatnonzero(env.live)
        result = env.step(agent.mean_action(state[lanes]))
        totals[lanes] += result.reward
        state[lanes] = result.next_state
        taken += 1
        if rollout is not None:
            rows.extend(rollout_rows(result, taken))
    if rollout is not None:
        rollout.extend(sorted(rows, key=lambda row: row["episode"]))
    return float(np.mean(totals)), totals.tolist()


def ppo_train(agent: PolicyAgent, baselines, config: PpoConfig, env,
              seed: int = 0) -> list[dict]:
    """Full PPO loop on `env`; returns the per-iteration history.
    Iterations run at config.actor_schedule's rates, the critic at
    CRITIC_LR_MULTIPLIER times them; Adam moments persist across
    iterations.  history[0] evaluates the initial policy; entry k holds
    the evaluation after iteration k and that iteration's final losses."""
    if not len(baselines):
        raise PpoError("at least one baseline required")
    rng = np.random.default_rng(seed)
    actor_states = (AdamState.for_params(agent.actor.flat), AdamState.for_params(agent.log_std))
    critic_state = AdamState.for_params(agent.critic.flat)
    history = [history_row(agent, 0, evaluate_policy(agent, baselines, env)[0])]
    for n_iters, lr in config.actor_schedule:
        for _ in range(n_iters):
            batch = collect_batch(agent, baselines, env, config, rng)
            losses = _update_agent(agent, batch, config, lr, lr * CRITIC_LR_MULTIPLIER,
                                   actor_states, critic_state)
            history.append(history_row(agent, len(history),
                                       evaluate_policy(agent, baselines, env)[0], *losses))
    return history


def history_row(agent: PolicyAgent, iteration: int, mean_cum_reward: float,
                actor_loss: float = float("nan"), critic_loss: float = float("nan")) -> dict:
    """A training-history row: the iteration, its mean cumulative reward,
    its final losses (NaN where none) and the agent's std components."""
    return {"iteration": iteration, "mean_cum_reward": mean_cum_reward,
            "actor_loss": actor_loss, "critic_loss": critic_loss,
            **{f"std{i}": float(s) for i, s in enumerate(agent.std)}}


def save_agent(path, agent: PolicyAgent) -> None:
    """Single-file agent container: version, log-std, the shared input
    scaler, and the actor's and critic's layers in the model file layout
    under the prefixes ``actor_`` and ``critic_``."""
    np.savez(path, version=np.array([1]), log_std=agent.log_std,
             in_lo=agent.actor.input_scaler.lo, in_hi=agent.actor.input_scaler.hi,
             **model_arrays(agent.actor, "actor_"), **model_arrays(agent.critic, "critic_"))


def load_agent(path) -> PolicyAgent:
    state = ("in_lo", STATE_DIM)
    data = read_archive(path, "agent", {"actor_": (state, ("log_std", ACTION_DIM)),
                                        "critic_": (state, (None, 1))})
    in_scaler = Scaler(lo=data["in_lo"], hi=data["in_hi"])
    return PolicyAgent(actor=model_from_arrays(data, in_scaler, prefix="actor_"),
                       critic=model_from_arrays(data, in_scaler, prefix="critic_"),
                       log_std=data["log_std"])

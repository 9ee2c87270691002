"""PPO-clip with generalized advantage estimation over Gaussian policies.

The agent is an actor network producing mean actions in scaled (0,1)
space, a learnable per-component standard deviation stored as log-std,
and a critic network estimating the discounted reward-to-go.  Rollouts
are Monte Carlo over many baseline airfoils; evaluation always takes
the mean action.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .env import ACTION_BOUNDS, MAX_STEPS, rollout_rows
from .nnet import (AdamState, Fit, MlpModel, Scaler, adam_update, make_mlp, mlp_forward,
                   model_arrays, model_from_arrays, read_archive)
from .tables import FEATURE_BOX

LOG_STD_MIN = math.log(1e-3)  # floor keeping the policy stochastic


class PpoError(RuntimeError):
    pass


@dataclass
class PpoConfig:
    clip_eps: float = 0.1
    gamma: float = 0.99
    gae_lambda: float = 0.8
    entropy_coef: float = 0.001
    epochs: int = 200  # gradient epochs per PPO iteration
    trajectories_per_baseline: int = 4
    # read only by the CLI, to build its DesignEnv
    max_steps: int = MAX_STEPS
    # (PPO iterations, actor learning rate) segments, each iteration one
    # collect_batch and `epochs` gradient epochs; critic lr is a multiple
    actor_schedule: list = field(default_factory=lambda: [(50, 1e-3)])
    critic_lr_multiplier: float = 10.0
    normalize_advantages: bool = True
    std_init: float = 0.1


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


def make_agent(rng, hidden=(512, 512), std_init: float = 0.1) -> PolicyAgent:
    in_scaler = Scaler.from_bounds(FEATURE_BOX[1:])
    state_dim, action_dim = len(in_scaler.lo), len(ACTION_BOUNDS)
    actor = make_mlp([state_dim, *hidden, action_dim], rng, input_scaler=in_scaler)
    critic = make_mlp([state_dim, *hidden, 1], rng, input_scaler=in_scaler)
    return PolicyAgent(actor=actor, critic=critic,
                       log_std=np.full(action_dim, math.log(std_init)))


def gaussian_log_prob(actions: np.ndarray, means: np.ndarray,
                      std: np.ndarray) -> np.ndarray:
    """Diagonal-Gaussian log density, one value per batch row."""
    z = (actions - means) / std
    return -0.5 * np.sum(z**2, axis=-1) - np.sum(np.log(std)) \
        - 0.5 * actions.shape[-1] * math.log(2.0 * math.pi)


def sample_action(agent: PolicyAgent, state: np.ndarray, rng):
    """Sample scaled actions and their log-probs (before any clamping).

    A (n, 4) block of states gives (n, 3) actions and (n,) log-probs from
    one actor pass and one normal draw of that shape from rng.
    """
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


def ppo_losses(batch: TrajectoryBatch, agent: PolicyAgent,
               old_agent: PolicyAgent, config: PpoConfig):
    """(actor loss, entropy, critic loss) for a batch; no gradients."""
    means_new = mlp_forward(agent.actor, batch.states)
    means_old = mlp_forward(old_agent.actor, batch.states)
    logp_new = gaussian_log_prob(batch.actions, means_new, agent.std)
    logp_old = gaussian_log_prob(batch.actions, means_old, old_agent.std)
    ratio = np.exp(logp_new - logp_old)
    if not np.all(np.isfinite(ratio)):
        raise PpoError(f"non-finite policy ratio (max logdiff "
                       f"{np.max(logp_new - logp_old):.3g})")
    terms, _ = clipped_objective(ratio, batch.advantages, config.clip_eps)
    actor_loss = -float(np.mean(terms))
    entropy = entropy_term(agent.std)
    v = mlp_forward(agent.critic, batch.states)[:, 0]
    critic_loss = float(np.mean((v - batch.rewards_to_go) ** 2))
    return actor_loss, entropy, critic_loss


def collect_batch(agent: PolicyAgent, baselines, env,
                  config: PpoConfig, rng) -> TrajectoryBatch:
    """Stochastic rollouts: trajectories_per_baseline episodes from every
    baseline under the current policy, all stepped in lockstep on `env`
    (one lane per episode, baseline-major).  Each step samples every live
    lane from one actor pass and one (n_live, 3) normal block drawn from
    rng, rows in lane order.  The batch lists each trajectory's steps
    together, in lane order.
    """
    episodes = [b for b in baselines for _ in range(config.trajectories_per_baseline)]
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
        rtg[start:stop] = reward_to_go(rewards_arr[start:stop], config.gamma)
        v_traj = np.append(values[start:stop], 0.0)  # terminal bootstrap
        adv[start:stop] = gae_advantages(rewards_arr[start:stop], v_traj,
                                         config.gamma, config.gae_lambda)
    return TrajectoryBatch(states=states_arr, actions=actions_arr, log_probs=log_probs,
                           rewards=rewards_arr, values=values, rewards_to_go=rtg,
                           advantages=adv, slices=slices)


def _update_agent(agent: PolicyAgent, batch: TrajectoryBatch,
                  config: PpoConfig, actor_lr: float, critic_lr: float,
                  actor_states: tuple[AdamState, AdamState] | None,
                  critic_state: AdamState) -> tuple[float, float]:
    """One iteration of PPO updates (config.epochs gradient steps on the
    full batch); returns final (actor_loss, critic_loss).

    actor_states holds the Adam states of the actor's flat parameters
    and of log_std, or is None for a critic-only fit.  Actor and critic
    each step through one Fit, the critic measuring its loss on the
    final epoch only; log_std takes its own Adam step after the actor's,
    at the same rate, then the LOG_STD_MIN floor.
    """
    xs = agent.actor.input_scaler.scale(batch.states)
    n = batch.size
    actor_loss = critic_loss = float("nan")
    actor_fit = None
    if actor_states is not None:  # only the actor reads the advantages
        actor_fit = Fit(agent.actor, n, actor_states[0])
        adv = batch.advantages
        if config.normalize_advantages:
            adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    critic_fit = Fit(agent.critic, n, critic_state)
    rtg = batch.rewards_to_go[:, None]
    last = config.epochs - 1
    for epoch in range(config.epochs):
        if actor_fit is not None:
            means = actor_fit.forward(xs)
            std = agent.std
            logp_new = gaussian_log_prob(batch.actions, means, std)
            ratio = np.exp(logp_new - batch.log_probs)
            if not np.all(np.isfinite(ratio)):
                raise PpoError("non-finite policy ratio during update")
            terms, active = clipped_objective(ratio, adv, config.clip_eps)
            actor_loss = -float(np.mean(terms))
            # d(-mean(term))/dmean: only active (unclipped) steps carry
            # gradient through the ratio
            coef = -(active * ratio * adv)[:, None] / n
            d_mean = coef * (batch.actions - means) / std**2
            d_logstd = np.sum(coef * (((batch.actions - means) / std) ** 2 - 1.0),
                              axis=0)
            d_logstd -= config.entropy_coef  # d(-coef*entropy)/dlogstd
            actor_fit.descend(d_mean, actor_lr)
            adam_update(agent.log_std, d_logstd, actor_states[1], actor_lr)
            np.maximum(agent.log_std, LOG_STD_MIN, out=agent.log_std)
        if epoch < last:
            critic_fit.step(xs, rtg, critic_lr, with_loss=False)
        else:
            critic_loss = critic_fit.step(xs, rtg, critic_lr)
    return actor_loss, critic_loss


def evaluate_policy(agent: PolicyAgent, baselines, env, rollout: list | None = None):
    """Deterministic mean-action rollouts on `env`, every baseline a lane.

    Returns (mean cumulative reward in counts, per-baseline rewards).
    With a `rollout` list, one rollout-log row per step (env
    ROLLOUT_COLUMNS, episode = baseline index) is appended to it,
    episode by episode.
    """
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
              seed: int = 0, critic_schedule=None) -> list[dict]:
    """Full PPO loop on `env`; returns the per-iteration history.

    Iterations run at config.actor_schedule's rates, the critic's times
    critic_lr_multiplier; given a critic_schedule, the fit is
    critic-only, at its rates.  Adam moments persist across iterations.
    history[0] is the deterministic evaluation of the initial policy;
    entry k holds the evaluation after iteration k together with the
    final losses and the current std components.
    """
    if not baselines:
        raise PpoError("at least one baseline required")
    rng = np.random.default_rng(seed)
    critic_only = critic_schedule is not None
    actor_states = None if critic_only else (AdamState.for_params(agent.actor.flat),
                                             AdamState.for_params(agent.log_std))
    critic_state = AdamState.for_params(agent.critic.flat)
    # a critic-only fit never changes the actor, so its evaluation is
    # the same deterministic rollout every iteration: run it once
    mean0, _ = evaluate_policy(agent, baselines, env)
    history = [{"iteration": 0, "mean_cum_reward": mean0,
                "actor_loss": float("nan"), "critic_loss": float("nan"),
                **_std_entry(agent)}]
    iteration = 0
    for n_iters, lr in critic_schedule if critic_only else config.actor_schedule:
        for _ in range(n_iters):
            iteration += 1
            batch = collect_batch(agent, baselines, env, config, rng)
            critic_lr = lr if critic_only else lr * config.critic_lr_multiplier
            actor_loss, critic_loss = _update_agent(
                agent, batch, config, lr, critic_lr, actor_states, critic_state)
            mean_r = mean0 if critic_only else evaluate_policy(agent, baselines, env)[0]
            history.append({"iteration": iteration, "mean_cum_reward": mean_r,
                            "actor_loss": actor_loss,
                            "critic_loss": critic_loss, **_std_entry(agent)})
    return history


def _std_entry(agent: PolicyAgent) -> dict:
    return {f"std{i}": float(s) for i, s in enumerate(agent.std)}


def save_agent(path, agent: PolicyAgent) -> None:
    """Single-file agent container: version, log-std, the shared input
    scaler, and the actor's and critic's layers in the model file layout
    under the prefixes ``actor_`` and ``critic_``."""
    np.savez(path, version=np.array([1]), log_std=agent.log_std,
             in_lo=agent.actor.input_scaler.lo, in_hi=agent.actor.input_scaler.hi,
             **model_arrays(agent.actor, "actor_"), **model_arrays(agent.critic, "critic_"))


def load_agent(path) -> PolicyAgent:
    data = read_archive(path, "agent", ("log_std", "in_lo", "in_hi"), ("actor_", "critic_"))
    in_scaler = Scaler(lo=data["in_lo"], hi=data["in_hi"])
    return PolicyAgent(actor=model_from_arrays(data, in_scaler, prefix="actor_"),
                       critic=model_from_arrays(data, in_scaler, prefix="critic_"),
                       log_std=data["log_std"])

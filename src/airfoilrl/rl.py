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

from .env import ACTION_BOUNDS, rollout_rows
from .nnet import (AdamState, MlpModel, Scaler, adam_update, make_mlp, mlp_backward,
                   mlp_forward, model_arrays, model_from_arrays)
from .surrogate import FEATURE_BOUNDS, OUTPUT_NAMES

# state bounds of the single-shock design box, used to scale the
# 4-vector [X1, Mw1, MwL, MwA] onto (0,1) for actor and critic inputs
STATE_BOUNDS = np.array([FEATURE_BOUNDS[k] for k in OUTPUT_NAMES[1:]])

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
    max_steps: int = 5
    # (iterations, actor learning rate) segments; critic lr is a multiple
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
    state_dim, action_dim = len(STATE_BOUNDS), len(ACTION_BOUNDS)
    in_scaler = Scaler.from_bounds(STATE_BOUNDS)
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
    terms = np.minimum(ratio * batch.advantages,
                       clip_target(config.clip_eps, batch.advantages))
    actor_loss = -float(np.mean(terms))
    entropy = entropy_term(agent.std)
    v = mlp_forward(agent.critic, batch.states)[:, 0]
    critic_loss = float(np.mean((v - batch.rewards_to_go) ** 2))
    return actor_loss, entropy, critic_loss


def collect_batch(agent: PolicyAgent, baselines, env_factory,
                  config: PpoConfig, rng) -> TrajectoryBatch:
    """Stochastic rollouts: trajectories_per_baseline episodes from every
    baseline under the current policy, all stepped in lockstep (one
    lane per episode, baseline-major).  Each step samples every live
    lane from one actor pass and one (n_live, 3) normal block drawn from
    rng, rows in lane order.  The batch lists each trajectory's steps
    together, in lane order.
    """
    episodes = [b for b in baselines for _ in range(config.trajectories_per_baseline)]
    env = env_factory()
    state = env.reset_lanes(episodes)
    steps: list[list] = [[] for _ in episodes]  # (state, action, logp, reward)
    while env.live.any():
        lanes = np.flatnonzero(env.live)
        actions, logps = sample_action(agent, state[lanes], rng)
        result = env.step(actions)
        for i, s, a, lp, r in zip(lanes.tolist(), state[lanes], actions,
                                  logps.tolist(), result.reward.tolist()):
            steps[i].append((s, a, lp, r))
        state[lanes] = result.next_state
    flat = [step for lane in steps for step in lane]
    ends = np.cumsum([len(lane) for lane in steps]).tolist()
    slices = list(zip([0] + ends[:-1], ends))
    states_arr = np.array([s for s, _, _, _ in flat])
    values = mlp_forward(agent.critic, states_arr)[:, 0]
    rewards_arr = np.array([r for _, _, _, r in flat])
    rtg = np.empty_like(rewards_arr)
    adv = np.empty_like(rewards_arr)
    for start, stop in slices:
        rtg[start:stop] = reward_to_go(rewards_arr[start:stop], config.gamma)
        v_traj = np.append(values[start:stop], 0.0)  # terminal bootstrap
        adv[start:stop] = gae_advantages(rewards_arr[start:stop], v_traj,
                                         config.gamma, config.gae_lambda)
    return TrajectoryBatch(states=states_arr, actions=np.array([a for _, a, _, _ in flat]),
                           log_probs=np.array([lp for _, _, lp, _ in flat]),
                           rewards=rewards_arr, values=values, rewards_to_go=rtg,
                           advantages=adv, slices=slices)


def _update_agent(agent: PolicyAgent, batch: TrajectoryBatch,
                  config: PpoConfig, actor_lr: float, critic_lr: float,
                  actor_state: AdamState, critic_state: AdamState,
                  update_actor: bool = True) -> tuple[float, float]:
    """One iteration of PPO updates (config.epochs gradient steps on the
    full batch); returns final (actor_loss, critic_loss).

    actor_state covers the actor's flat parameters followed by log_std.
    """
    adv = batch.advantages
    if config.normalize_advantages:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    xs = agent.actor.input_scaler.scale(batch.states)
    n = batch.size
    k = agent.log_std.size
    actor_loss = critic_loss = float("nan")
    for _ in range(config.epochs):
        if update_actor:
            means, cache = mlp_forward(agent.actor, xs, scaled=False,
                                       with_cache=True)
            std = agent.std
            logp_new = gaussian_log_prob(batch.actions, means, std)
            ratio = np.exp(logp_new - batch.log_probs)
            if not np.all(np.isfinite(ratio)):
                raise PpoError("non-finite policy ratio during update")
            unclipped = ratio * adv
            clipped = clip_target(config.clip_eps, adv)
            terms = np.minimum(unclipped, clipped)
            actor_loss = -float(np.mean(terms))
            active = (unclipped <= clipped).astype(float)
            # d(-mean(term))/dmean: only active (unclipped) steps carry
            # gradient through the ratio
            coef = -(active * ratio * adv)[:, None] / n
            d_mean = coef * (batch.actions - means) / std**2
            grads = mlp_backward(agent.actor, cache, d_mean)
            d_logstd = np.sum(coef * (((batch.actions - means) / std) ** 2 - 1.0),
                              axis=0)
            d_logstd -= config.entropy_coef  # d(-coef*entropy)/dlogstd
            new_params = adam_update(
                np.concatenate((agent.actor.flat, agent.log_std)),
                np.concatenate((grads.flat, d_logstd)), actor_state, actor_lr)
            agent.actor.flat[...] = new_params[:-k]
            np.maximum(new_params[-k:], LOG_STD_MIN, out=agent.log_std)
        v, vcache = mlp_forward(agent.critic, xs, scaled=False, with_cache=True)
        diff = v[:, 0] - batch.rewards_to_go
        critic_loss = float(np.mean(diff**2))
        vgrads = mlp_backward(agent.critic, vcache, (2.0 * diff / n)[:, None])
        agent.critic.flat[...] = adam_update(agent.critic.flat, vgrads.flat,
                                             critic_state, critic_lr)
    return actor_loss, critic_loss


def evaluate_policy(agent: PolicyAgent, baselines, env_factory,
                    rollout: list | None = None):
    """Deterministic mean-action rollouts, every baseline a lane of one
    lockstep environment.

    Returns (mean cumulative reward in counts, per-baseline rewards).
    With a `rollout` list, one rollout-log row per step (env
    ROLLOUT_COLUMNS, episode = baseline index) is appended to it,
    episode by episode.
    """
    env = env_factory()
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


def ppo_train(agent: PolicyAgent, baselines, config: PpoConfig, env_factory,
              seed: int = 0, update_actor: bool = True,
              critic_schedule=None) -> list[dict]:
    """Full PPO loop; returns the per-iteration history.

    history[0] is the deterministic evaluation of the initial policy;
    entry k holds the evaluation after iteration k together with the
    final losses and the current std components.
    """
    if not baselines:
        raise PpoError("at least one baseline required")
    rng = np.random.default_rng(seed)
    actor_state = AdamState.for_params(
        np.concatenate((agent.actor.flat, agent.log_std)))
    critic_state = AdamState.for_params(agent.critic.flat)
    # a critic-only fit never changes the actor, so its evaluation is
    # the same deterministic rollout every iteration: run it once
    mean0, _ = evaluate_policy(agent, baselines, env_factory)
    history = [{"iteration": 0, "mean_cum_reward": mean0,
                "actor_loss": float("nan"), "critic_loss": float("nan"),
                **_std_entry(agent)}]
    iteration = 0
    schedule = config.actor_schedule if update_actor else critic_schedule
    if schedule is None:
        raise PpoError("no learning-rate schedule supplied")
    for n_iters, lr in schedule:
        for _ in range(n_iters):
            iteration += 1
            batch = collect_batch(agent, baselines, env_factory, config, rng)
            critic_lr = lr * config.critic_lr_multiplier if update_actor else lr
            actor_loss, critic_loss = _update_agent(
                agent, batch, config, lr, critic_lr, actor_state, critic_state,
                update_actor=update_actor)
            mean_r = evaluate_policy(agent, baselines, env_factory)[0] \
                if update_actor else mean0
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
    with np.load(path) as data:
        if int(data["version"][0]) != 1:
            raise PpoError("unknown agent file version")
        in_scaler = Scaler(lo=data["in_lo"].copy(), hi=data["in_hi"].copy())
        return PolicyAgent(actor=model_from_arrays(data, in_scaler, prefix="actor_"),
                           critic=model_from_arrays(data, in_scaler, prefix="critic_"),
                           log_std=data["log_std"].copy())

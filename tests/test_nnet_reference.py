"""The flat-buffer training paths against the list-based loops they replaced.

`ref_*` below are verbatim copies of the per-layer-list `adam_update`,
`mlp_backward` and `set_parameters`, and copies of the training loops
that called them (`train_minibatch`, `imitate_policy`, `_update_agent`,
`ppo_train`, whose critic-only mode is now `pretrain_critic`) with the
argument checks, callbacks and the minibatch loss history left out, plus
the per-lane `collect_batch` loop.  Every
parameter, loss and batch the current code produces must be bitwise
equal to theirs.
"""
import math
from dataclasses import dataclass

import numpy as np
import pytest

from airfoilrl import rl
from airfoilrl.env import DesignEnv, physical_to_scaled, proxy_evaluator
from airfoilrl.nnet import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState,
                            NnetError, adam_update, make_mlp, mlp_backward,
                            mlp_forward, train_minibatch)
from airfoilrl.pretrain import imitate_policy, pretrain_critic
from airfoilrl.proxy import seed_airfoils
from airfoilrl.rl import (LOG_STD_MIN, PpoError, TrajectoryBatch,
                          clip_target, collect_batch, gae_advantages,
                          gaussian_log_prob, make_agent, ppo_train, reward_to_go,
                          sample_action)
from airfoilrl.tables import ACTION_COLS, STATE_COLS

# ---------------------------------------------------------------------------
# reference: the list-based engine


def ref_parameters(model):
    """The parameter arrays in `flat` order: live views into it."""
    return [*model.weights, *model.biases]


def ref_set_parameters(model, params):
    n = len(model.weights)
    model.weights = [p.copy() for p in params[:n]]
    model.biases = [p.copy() for p in params[n:]]


def ref_mlp_backward(model, cache, grad_out):
    grad_out = np.asarray(grad_out, dtype=float)
    if grad_out.ndim == 1:
        grad_out = grad_out[None, :]
    if len(cache) != len(model.weights) + 1:
        raise NnetError("stale or mismatched forward cache")
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    delta = grad_out
    for i in range(len(model.weights) - 1, -1, -1):
        h_in = cache[i]
        if i < len(model.weights) - 1:
            # cache holds post-relu activations; relu' = 1 where act > 0
            delta = delta * (cache[i + 1] > 0.0)
        grads_w[i] = h_in.T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ model.weights[i].T
    return grads_w + grads_b


@dataclass
class RefAdamState:
    m: list
    v: list
    step: int = 0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS

    @staticmethod
    def for_params(params):
        return RefAdamState(m=[np.zeros_like(p) for p in params],
                            v=[np.zeros_like(p) for p in params])


def ref_adam_update(params, grads, state, lr):
    if len(params) != len(grads):
        raise NnetError("parameter/gradient count mismatch")
    state.step += 1
    t = state.step
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * g * g
        m_hat = state.m[i] / (1.0 - state.beta1**t)
        v_hat = state.v[i] / (1.0 - state.beta2**t)
        out.append(p - lr * m_hat / (np.sqrt(v_hat) + state.eps))
    return out


# ---------------------------------------------------------------------------
# reference: the training loops on the list-based engine


def ref_train_minibatch(model, inputs, targets, schedule, batch_size, seed):
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if targets.ndim == 1:
        targets = targets[:, None]
    xs = model.input_scaler.scale(inputs)
    ys = model.output_scaler.scale(targets)
    rng = np.random.default_rng(seed)
    state = RefAdamState.for_params(ref_parameters(model))
    n = xs.shape[0]
    for epochs, lr in schedule:
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                xb, yb = xs[idx], ys[idx]
                pred, cache = mlp_forward(model, xb, scaled=False, with_cache=True)
                diff = pred - yb
                loss = float(np.mean(diff**2))
                if not np.isfinite(loss):
                    raise NnetError("divergent loss (non-finite)")
                grad_out = 2.0 * diff / diff.size
                grads = ref_mlp_backward(model, cache, grad_out)
                ref_set_parameters(model,
                                   ref_adam_update(ref_parameters(model), grads, state, lr))


def ref_imitate_policy(agent, samples, schedule):
    states = np.stack([s[STATE_COLS] for s in samples])
    targets = np.stack([physical_to_scaled(s[ACTION_COLS]) for s in samples])
    xs = agent.actor.input_scaler.scale(states)
    state = RefAdamState.for_params(ref_parameters(agent.actor))
    history = []
    for epochs, lr in schedule:
        for _ in range(epochs):
            pred, cache = mlp_forward(agent.actor, xs, scaled=False,
                                      with_cache=True)
            diff = pred - targets
            loss = float(np.mean(diff**2))
            history.append(loss)
            grads = ref_mlp_backward(agent.actor, cache, 2.0 * diff / diff.size)
            ref_set_parameters(agent.actor,
                               ref_adam_update(ref_parameters(agent.actor), grads, state, lr))
    return history


def ref_update_agent(agent, batch, epochs, actor_lr, actor_state, critic_state,
                     update_actor=True):
    adv = batch.advantages
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    xs = agent.actor.input_scaler.scale(batch.states)
    n = batch.size
    critic_lr = actor_lr * rl.CRITIC_LR_MULTIPLIER
    actor_loss = critic_loss = float("nan")
    for _ in range(epochs):
        if update_actor:
            means, cache = mlp_forward(agent.actor, xs, scaled=False,
                                       with_cache=True)
            std = agent.std
            logp_new = gaussian_log_prob(batch.actions, means, std)
            ratio = np.exp(logp_new - batch.log_probs)
            if not np.all(np.isfinite(ratio)):
                raise PpoError("non-finite policy ratio during update")
            unclipped = ratio * adv
            clipped = clip_target(rl.CLIP_EPS, adv)
            terms = np.minimum(unclipped, clipped)
            actor_loss = -float(np.mean(terms))
            active = (unclipped <= clipped).astype(float)
            coef = -(active * ratio * adv)[:, None] / n
            d_mean = coef * (batch.actions - means) / std**2
            grads = ref_mlp_backward(agent.actor, cache, d_mean)
            d_logstd = np.sum(coef * (((batch.actions - means) / std) ** 2 - 1.0),
                              axis=0)
            d_logstd -= rl.ENTROPY_COEF
            params = ref_parameters(agent.actor) + [agent.log_std]
            new_params = ref_adam_update(params, grads + [d_logstd],
                                         actor_state, actor_lr)
            ref_set_parameters(agent.actor, new_params[:-1])
            agent.log_std = np.maximum(new_params[-1], LOG_STD_MIN)
        v, vcache = mlp_forward(agent.critic, xs, scaled=False, with_cache=True)
        diff = v[:, 0] - batch.rewards_to_go
        critic_loss = float(np.mean(diff**2))
        vgrads = ref_mlp_backward(agent.critic, vcache, (2.0 * diff / n)[:, None])
        ref_set_parameters(agent.critic,
                           ref_adam_update(ref_parameters(agent.critic), vgrads,
                                           critic_state, critic_lr))
    return actor_loss, critic_loss


def ref_std_entry(agent):
    return {f"std{i}": float(s) for i, s in enumerate(agent.std)}


def ref_ppo_train(agent, baselines, env, schedule, epochs, trajectories, seed,
                  update_actor=True):
    rng = np.random.default_rng(seed)
    actor_state = RefAdamState.for_params(
        ref_parameters(agent.actor) + [agent.log_std])
    critic_state = RefAdamState.for_params(ref_parameters(agent.critic))
    mean0, _ = rl.evaluate_policy(agent, baselines, env)
    history = [{"iteration": 0, "mean_cum_reward": mean0,
                "actor_loss": float("nan"), "critic_loss": float("nan"),
                **ref_std_entry(agent)}]
    iteration = 0
    for n_iters, lr in schedule:
        for _ in range(n_iters):
            iteration += 1
            batch = collect_batch(agent, baselines, env, trajectories, rng)
            actor_loss, critic_loss = ref_update_agent(
                agent, batch, epochs, lr if update_actor else lr / rl.CRITIC_LR_MULTIPLIER,
                actor_state, critic_state, update_actor=update_actor)
            mean_r, _ = rl.evaluate_policy(agent, baselines, env)
            history.append({"iteration": iteration, "mean_cum_reward": mean_r,
                            "actor_loss": actor_loss,
                            "critic_loss": critic_loss, **ref_std_entry(agent)})
    return history


def ref_collect_batch(agent, baselines, env, trajectories, rng):
    episodes = [b for b in baselines for _ in range(trajectories)]
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
        rtg[start:stop] = reward_to_go(rewards_arr[start:stop], rl.GAMMA)
        v_traj = np.append(values[start:stop], 0.0)  # terminal bootstrap
        adv[start:stop] = gae_advantages(rewards_arr[start:stop], v_traj,
                                         rl.GAMMA, rl.GAE_LAMBDA)
    return TrajectoryBatch(states=states_arr, actions=np.array([a for _, a, _, _ in flat]),
                           log_probs=np.array([lp for _, _, lp, _ in flat]),
                           rewards=rewards_arr, values=values, rewards_to_go=rtg,
                           advantages=adv, slices=slices)


# ---------------------------------------------------------------------------
# the engine itself


def test_flat_buffer_views_and_live_parameters():
    model = make_mlp([3, 5, 2], np.random.default_rng(0))
    params = [*model.weights, *model.biases]
    assert model.flat.size == sum(p.size for p in params)
    # the views tile `flat` in order
    assert np.array_equal(np.concatenate([p.ravel() for p in params]), model.flat)
    assert all(np.shares_memory(p, model.flat) for p in params)
    model.biases = [np.full(5, 0.5), np.full(2, -1.0)]
    assert np.array_equal(model.flat[-7:], [0.5] * 5 + [-1.0] * 2)
    with pytest.raises(NnetError):
        model.weights = [np.zeros((5, 3)), np.zeros((5, 2))]


@pytest.mark.parametrize("sizes", [[2, 4, 1], [4, 64, 64, 3], [14, 128, 128, 128, 5]])
def test_backward_and_adam_step_match_lists(sizes):
    rng = np.random.default_rng(len(sizes))
    model = make_mlp(sizes, rng)
    model.biases = [rng.uniform(-0.1, 0.1, b.shape) for b in model.biases]
    x = rng.uniform(0.0, 1.0, size=(37, sizes[0]))
    grad_out = rng.standard_normal((37, sizes[-1]))
    _, cache = mlp_forward(model, x, scaled=False, with_cache=True)
    grads = mlp_backward(model, cache, grad_out)
    want = ref_mlp_backward(model, cache, grad_out)
    assert isinstance(grads, list) and len(grads) == len(want)
    flat_grads = np.concatenate([np.ravel(g) for g in grads])
    assert np.array_equal(flat_grads, np.concatenate([np.ravel(w) for w in want]))
    for g, w in zip(grads, want):
        assert np.array_equal(g, w)
    state = AdamState.for_params(model.flat)
    ref_state = RefAdamState.for_params(ref_parameters(model))
    params = list(ref_parameters(model))
    grads_before = flat_grads.copy()
    for lr in (1e-2, 1e-3, 1e-5):
        # each step from the same parameters, the moments carried over
        got = model.flat.copy()
        adam_update(got, flat_grads, state, lr)
        ref = ref_adam_update(params, want, ref_state, lr)
        assert np.array_equal(got, np.concatenate([np.ravel(r) for r in ref]))
    assert np.array_equal(flat_grads, grads_before)  # gradients untouched


@pytest.mark.parametrize("sizes,n,batch_size,schedule", [
    ([2, 8, 1], 50, 16, [(4, 1e-2), (3, 1e-3)]),      # 50 % 16 != 0
    ([3, 16, 16, 2], 64, 64, [(5, 1e-2)]),            # one full batch
    ([5, 12, 3], 30, 128, [(6, 1e-3)]),               # batch larger than n
    ([14, 32, 32, 32, 5], 100, 7, [(2, 1e-2), (1, 1e-4), (1, 1e-5)]),
])
def test_train_minibatch_matches_list_engine(sizes, n, batch_size, schedule):
    rng = np.random.default_rng(n)
    x = rng.uniform(0.0, 1.0, size=(n, sizes[0]))
    y = np.tanh(x @ rng.standard_normal((sizes[0], sizes[-1])))
    model = make_mlp(sizes, np.random.default_rng(3))
    ref = model.copy()
    calls = []
    train_minibatch(model, x, y, schedule, batch_size, seed=11, callback=calls.append)
    ref_train_minibatch(ref, x, y, schedule, batch_size, seed=11)
    assert np.array_equal(model.flat, ref.flat)
    # the callback fires after every minibatch, counting from 1
    per_epoch = -(-n // batch_size)
    assert calls == list(range(1, per_epoch * sum(e for e, _ in schedule) + 1))


def test_imitate_policy_matches_list_engine():
    rng = np.random.default_rng(21)
    samples = np.array([[
        *rng.uniform([0.2, 1.0, 1.0, 0.9], [0.8, 1.2, 1.3, 1.1]),
        rng.uniform(0.1, 0.9), rng.uniform(0.2, 0.4), rng.uniform(-0.05, 0.05),
        0.0] for _ in range(40)])
    schedule = [(30, 1e-3), (20, 1e-4), (10, 1e-5)]
    agent = make_agent(np.random.default_rng(2), hidden=(64, 64))
    ref = agent.copy()
    assert imitate_policy(agent, samples, schedule) \
        == ref_imitate_policy(ref, samples, schedule)
    assert np.array_equal(agent.actor.flat, ref.actor.flat)
    assert np.array_equal(agent.log_std, ref.log_std)


def _desk_env():
    return DesignEnv(proxy_evaluator(), max_steps=3)


def _assert_same_run(agent, ref, history, ref_history):
    assert repr(history) == repr(ref_history)  # repr compares NaN losses too
    assert np.array_equal(agent.actor.flat, ref.actor.flat)
    assert np.array_equal(agent.critic.flat, ref.critic.flat)
    assert np.array_equal(agent.log_std, ref.log_std)


def test_collect_batch_matches_per_lane_loop():
    baselines = seed_airfoils(3, seed=3)
    early = 0
    for seed, max_steps in zip(range(3), (3, 4, 5)):
        agent = make_agent(np.random.default_rng(seed), hidden=(16, 16))
        agent.log_std[:] = math.log(0.3)
        env = DesignEnv(proxy_evaluator(), max_steps=max_steps)
        batch = collect_batch(agent, baselines, env, 3, np.random.default_rng(seed))
        ref = ref_collect_batch(agent, baselines, env, 3,
                                np.random.default_rng(seed))
        assert repr(batch.slices) == repr(ref.slices)  # python ints, as before
        for name in ("states", "actions", "log_probs", "rewards", "values",
                     "rewards_to_go", "advantages"):
            got, want = getattr(batch, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        early += sum(stop - start < max_steps for start, stop in ref.slices)
    assert early > 0  # some trajectory ends before max_steps


@pytest.mark.parametrize("lr,std_init", [(1e-3, 0.1), (0.2, 2e-3)])
def test_ppo_train_matches_list_engine(lr, std_init):
    baselines = seed_airfoils(2, seed=3)
    agent = make_agent(np.random.default_rng(4), hidden=(16, 16))
    agent.log_std[:] = math.log(std_init)
    ref = agent.copy()
    history = ppo_train(agent, baselines, _desk_env(), [(2, lr)], 6, 2, 5)
    ref_history = ref_ppo_train(ref, baselines, _desk_env(), [(2, lr)], 6, 2, 5)
    _assert_same_run(agent, ref, history, ref_history)
    if lr == 0.2:  # large steps from a small std drive log_std onto its floor
        _assert_update_reaches_std_floor(lr, std_init)


def _assert_update_reaches_std_floor(lr, std_init):
    """One _update_agent call on a hand-made batch pushes every log_std
    component below LOG_STD_MIN, in both engines, and the floor holds.

    Normalized, the advantages are -1.22, 0 and 1.22.  The last action
    sits on the actor's mean, so shrinking std raises its likelihood; the
    first sits one std off its mean, so shrinking std lowers its
    likelihood, as its negative advantage asks.
    """
    agent = make_agent(np.random.default_rng(4), hidden=(16, 16))
    agent.log_std[:] = math.log(std_init)
    ref = agent.copy()
    states = np.array([[0.3, 1.05, 1.1, 0.95], [0.5, 1.1, 1.2, 1.0],
                       [0.7, 1.15, 1.25, 1.05]])
    means = agent.mean_action(states)
    actions = means.copy()
    actions[0] += agent.std
    ones = np.ones(len(states))
    batch = rl.TrajectoryBatch(
        states=states, actions=actions,
        log_probs=gaussian_log_prob(actions, means, agent.std),
        rewards=ones, values=0.0 * ones, rewards_to_go=ones,
        advantages=np.array([1.0, 2.0, 3.0]), slices=[(0, len(states))])
    losses = rl._update_agent(
        agent, batch, 10, lr, lr * rl.CRITIC_LR_MULTIPLIER,
        (AdamState.for_params(agent.actor.flat), AdamState.for_params(agent.log_std)),
        AdamState.for_params(agent.critic.flat))
    ref_losses = ref_update_agent(
        ref, batch, 10, lr,
        RefAdamState.for_params(ref_parameters(ref.actor) + [ref.log_std]),
        RefAdamState.for_params(ref_parameters(ref.critic)))
    assert repr(losses) == repr(ref_losses)
    _assert_same_run(agent, ref, [], [])
    assert np.all(agent.log_std == LOG_STD_MIN)


def test_critic_only_fit_matches_and_evaluates_once(monkeypatch):
    baselines = seed_airfoils(2, seed=6)
    schedule = [(2, 0.01), (2, 0.001)]  # the desk and paper critic rates
    agent = make_agent(np.random.default_rng(7), hidden=(16, 16))
    ref = agent.copy()
    ref_history = ref_ppo_train(ref, baselines, _desk_env(), schedule, 5, 2, 8,
                                update_actor=False)
    calls = []
    evaluate = rl.evaluate_policy
    monkeypatch.setattr(rl, "evaluate_policy",
                        lambda *a, **k: calls.append(1) or evaluate(*a, **k))
    history = pretrain_critic(agent, baselines, _desk_env(), schedule, 5, 2, 8)
    assert len(calls) == 1
    _assert_same_run(agent, ref, history, ref_history)


def test_split_adam_states_step_like_one_joint_state():
    # the PPO actor and log_std keep one AdamState each; stepped together
    # they give the bytes of one state over the concatenated buffer
    rng = np.random.default_rng(13)
    sizes = (83, 3)
    parts = [rng.standard_normal(k) for k in sizes]
    joint = np.concatenate(parts)
    states = [AdamState.for_params(p) for p in parts]
    joint_state = AdamState.for_params(joint)
    for lr in rng.uniform(1e-6, 0.3, size=25):
        grads = [rng.standard_normal(k) * rng.uniform(1e-4, 1e2) for k in sizes]
        for p, g, state in zip(parts, grads, states):
            adam_update(p, g, state, lr)
        adam_update(joint, np.concatenate(grads), joint_state, lr)
        assert np.array_equal(np.concatenate(parts), joint)
    assert np.array_equal(np.concatenate([st.m for st in states]), joint_state.m)
    assert np.array_equal(np.concatenate([st.v for st in states]), joint_state.v)


def test_adam_size_mismatch_raises():
    state = AdamState.for_params(np.zeros(4))
    with pytest.raises(NnetError):
        adam_update(np.zeros(4), np.zeros(3), state, 1e-3)
    with pytest.raises(NnetError):
        adam_update(np.zeros(5), np.zeros(5), state, 1e-3)

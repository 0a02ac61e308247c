"""Training loop: centralized-critic recurrent PPO over the trading env.

Each episode is one simulated day. Actions are sampled from per-agent
recurrent policies on local observations; per-agent critics see the
concatenation of every agent's observation vector (centralized training,
decentralized execution). After each episode the buffers are advantage-
labelled with GAE and replayed for several epochs of clipped-surrogate
updates, with advantages normalized per minibatch.

Everything is deterministic given (env config, hyperparameters, seed):
network init, action sampling, minibatch shuffling, and the environment
itself all draw from explicitly keyed streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..env import Action, EnvConfig, TradingEnv, observation_dim
from ..scenario import rng_stream
from .nets import CriticNet, PolicyNet
from .ppo import (
    RolloutBuffer,
    actor_loss,
    compute_gae,
    critic_loss,
    make_optimizer,
    normalize_advantages,
    policy_logp_and_entropy,
)

# learner stream tags (kept clear of the scenario's per-agent purpose tags)
TAG_SAMPLE = 1001
TAG_INIT = 1002
TAG_SHUFFLE = 1003


@dataclass(frozen=True)
class Hyperparams:
    """Learner settings; defaults are the desk-scale preset."""

    gamma: float = 0.95
    lam: float = 0.95
    clip_eps: float = 0.2
    entropy_coef: float = 0.003
    lr_actor: float = 1e-3
    lr_critic: float = 1e-3
    epochs: int = 10
    minibatch_size: int = 256
    episodes: int = 500
    episodes_per_update: int = 8
    lstm_hidden: int = 32
    actor_hidden: tuple[int, int] = (64, 64)
    critic_hidden: tuple[int, int] = (128, 64)
    optimizer: str = "adam"
    reward_scale: float = 0.02
    log_std_init: float = -0.7
    #: pre-squash mean-head bias at init: neutral price and quantity, high
    #: storage reservation (squashes to ~0.91) so agents do not start out
    #: dumping their storage at the feed-in tariff
    action_bias: tuple[float, float, float] = (0.0, 0.0, 1.5)

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0 and 0.0 < self.lam < 1.0):
            raise ValueError("gamma and lam must lie in (0, 1)")
        if self.clip_eps <= 0:
            raise ValueError("clip_eps must be positive")
        if self.epochs < 1 or self.minibatch_size < 1 or self.episodes < 0:
            raise ValueError("epochs/minibatch_size/episodes out of range")
        if self.episodes_per_update < 1:
            raise ValueError("episodes_per_update must be >= 1")

    @classmethod
    def paper_scale(cls) -> "Hyperparams":
        """The full-size preset (much too slow for the acceptance suite)."""
        return cls(
            lstm_hidden=128,
            actor_hidden=(512, 512),
            critic_hidden=(2056, 1024),
            minibatch_size=512,
            episodes=7000,
            episodes_per_update=42,  # ~1024-step buffers
        )


def episode_seed(base: int, episode: int) -> int:
    """Stable per-episode seed; paired across runs that share the base."""
    return int(np.random.SeedSequence([base, episode]).generate_state(1)[0])


class ObsNormalizer:
    """Static per-feature scaling derived from the fleet parameters.

    Observation vectors carry physical units (kWh, $/kWh); networks see
    each feature divided by its natural scale. Deterministic, no running
    statistics.
    """

    def __init__(self, config: EnvConfig):
        self.scales = []
        p_e_max = float(config.prices.emergency.max())
        W = config.window_len
        for params in config.fleet:
            load_scale = max(params.l_max, 1.0)
            gen_scale = max(params.g_max, 1.0)
            window = np.tile(
                [load_scale, load_scale, gen_scale, p_e_max], (W, 1)
            ).ravel()
            scale = np.concatenate(
                [[1.0, max(params.e_max, 1.0)], window, np.ones(W), [1.0, 1.0]]
            )
            self.scales.append(scale)

    def __call__(self, obs_vector: np.ndarray, agent: int) -> np.ndarray:
        return obs_vector / self.scales[agent]


@dataclass
class AgentNets:
    actor: PolicyNet
    critic: CriticNet


@dataclass
class TrainResult:
    nets: list[AgentNets]
    metrics: list[dict]
    hyper: Hyperparams
    episodes_done: int


def build_nets(config: EnvConfig, hyper: Hyperparams, seed: int) -> list[AgentNets]:
    obs_dim = observation_dim(config)
    global_dim = obs_dim * config.n_agents
    nets = []
    for i in range(config.n_agents):
        actor = PolicyNet(
            obs_dim,
            lstm_hidden=hyper.lstm_hidden,
            trunk_hidden=hyper.actor_hidden,
            log_std_init=hyper.log_std_init,
            mean_bias_init=hyper.action_bias,
            rng=rng_stream(seed, TAG_INIT, i, 0),
        )
        critic = CriticNet(
            global_dim, hidden=hyper.critic_hidden, rng=rng_stream(seed, TAG_INIT, i, 1)
        )
        nets.append(AgentNets(actor, critic))
    return nets


def episode_metrics(episode: int, rewards, settlements, socs) -> dict:
    """Per-episode hourly means, per agent and across the community."""
    rewards = np.asarray(rewards)          # (T, n)
    emergency = np.asarray([[s.q_e for s in row] for row in settlements])
    feedin = np.asarray([[s.q_fit for s in row] for row in settlements])
    storage = np.asarray(socs)             # (T, n)
    row = {
        "episode": episode,
        "reward": float(rewards.mean()),
        "emergency_kwh": float(emergency.mean()),
        "feedin_kwh": float(feedin.mean()),
        "storage_kwh": float(storage.mean()),
    }
    n = rewards.shape[1]
    for i in range(n):
        row[f"reward_agent{i}"] = float(rewards[:, i].mean())
        row[f"emergency_kwh_agent{i}"] = float(emergency[:, i].mean())
        row[f"feedin_kwh_agent{i}"] = float(feedin[:, i].mean())
        row[f"storage_kwh_agent{i}"] = float(storage[:, i].mean())
    return row


def train(
    env_config: EnvConfig,
    hyper: Hyperparams,
    seed: int,
    nets: list[AgentNets] | None = None,
    start_episode: int = 0,
    progress=None,
) -> TrainResult:
    """Run the full training loop and return nets plus per-episode metrics.

    `nets` and `start_episode` allow resuming from a checkpoint; episode
    seeds depend only on (seed, episode index) so a resumed run replays
    the schedule it would have seen.
    """
    env = TradingEnv(env_config)
    n = env_config.n_agents
    T = env_config.horizon
    normalizer = ObsNormalizer(env_config)
    if nets is None:
        nets = build_nets(env_config, hyper, seed)

    actor_opts = [
        make_optimizer(hyper.optimizer, ag.actor.params(), hyper.lr_actor) for ag in nets
    ]
    critic_opts = [
        make_optimizer(hyper.optimizer, ag.critic.params(), hyper.lr_critic)
        for ag in nets
    ]
    sample_rngs = [rng_stream(seed, TAG_SAMPLE, i) for i in range(n)]
    shuffle_rng = rng_stream(seed, TAG_SHUFFLE)

    metrics: list[dict] = []
    pending: list[list[dict]] = [[] for _ in range(n)]  # per-agent episode chunks
    for ep_off in range(hyper.episodes):
        episode = start_episode + ep_off
        obs = env.reset(episode_seed(seed, episode))
        hidden = [ag.actor.initial_hidden() for ag in nets]
        buffers = [RolloutBuffer() for _ in range(n)]
        ep_rewards, ep_settlements, ep_socs = [], [], []

        for t in range(T):
            norm_obs = [normalizer(obs[i].as_vector(), i) for i in range(n)]
            global_obs = np.concatenate(norm_obs)
            actions = []
            step_samples = []
            for i in range(n):
                dist, hidden[i] = nets[i].actor.distribution(norm_obs[i], hidden[i])
                act_box, u = dist.sample(sample_rngs[i])
                logp = dist.log_prob(u)
                value = float(nets[i].critic.value(global_obs)[0])
                actions.append(Action.from_array(act_box))
                step_samples.append((u, act_box, logp, value))
            result = env.step(actions)
            for i in range(n):
                u, act_box, logp, value = step_samples[i]
                buffers[i].add(
                    obs=norm_obs[i],
                    global_obs=global_obs,
                    presquash=u,
                    action=act_box,
                    logp=logp,
                    reward=result.rewards[i] * hyper.reward_scale,
                    value=value,
                    done=result.done,
                )
            obs = result.observations
            ep_rewards.append(result.rewards)
            ep_settlements.append(result.settlements)
            ep_socs.append([o.soc for o in obs])

        for i in range(n):
            pending[i].append(buffers[i].arrays())
        if len(pending[0]) >= hyper.episodes_per_update or ep_off == hyper.episodes - 1:
            _update_agents(nets, pending, actor_opts, critic_opts, hyper, shuffle_rng)
            pending = [[] for _ in range(n)]

        metrics.append(episode_metrics(episode, ep_rewards, ep_settlements, ep_socs))
        if progress is not None:
            progress(metrics[-1])

    return TrainResult(
        nets=nets,
        metrics=metrics,
        hyper=hyper,
        episodes_done=start_episode + hyper.episodes,
    )


def _update_agents(nets, pending, actor_opts, critic_opts, hyper, shuffle_rng):
    """One PPO update round over the buffered episode chunks.

    Each agent's chunks are stacked once as (episodes, T, ...) arrays. The
    recurrent actor re-runs over the whole stack in one batched pass (hidden
    state resets at episode boundaries); minibatches index into the steps
    flattened in episode order.
    """
    n = len(nets)
    advantages, targets, logp_old, presquash, global_obs, obs = [], [], [], [], [], []
    for i in range(n):
        chunks = pending[i]
        adv = np.stack([
            compute_gae(c["rewards"], c["values"], 0.0, hyper.gamma, hyper.lam)
            for c in chunks
        ])
        values = np.stack([c["values"] for c in chunks])
        advantages.append(adv.ravel())
        targets.append((adv + values).ravel())
        logp_old.append(np.concatenate([c["logp"] for c in chunks]))
        global_obs.append(np.concatenate([c["global_obs"] for c in chunks]))
        presquash.append(np.stack([c["presquash"] for c in chunks]))
        obs.append(np.stack([c["obs"] for c in chunks]))

    total = len(advantages[0])
    mb = min(hyper.minibatch_size, total)
    for _ in range(hyper.epochs):
        order = shuffle_rng.permutation(total)
        for lo in range(0, total, mb):
            idx = order[lo : lo + mb]
            if idx.size < 2:
                continue  # a singleton batch cannot be advantage-normalized
            for i in range(n):
                means, log_std = nets[i].actor.forward_seq(obs[i])
                logp, entropy = policy_logp_and_entropy(means, log_std, presquash[i])
                loss = actor_loss(
                    logp.reshape(-1)[idx],
                    logp_old[i][idx],
                    normalize_advantages(advantages[i][idx]),
                    entropy,
                    hyper.clip_eps,
                    hyper.entropy_coef,
                )
                actor_opts[i].zero_grad()
                loss.backward()
                actor_opts[i].step()

                values = nets[i].critic.forward(global_obs[i][idx])
                vloss = critic_loss(values, targets[i][idx])
                critic_opts[i].zero_grad()
                vloss.backward()
                critic_opts[i].step()

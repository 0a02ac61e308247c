"""Training loop: centralized-critic recurrent PPO over the trading env.

Each episode is one simulated day, run by `env.rollout_day`. Actions are
sampled from per-agent recurrent policies on local observations (rows of
the fleet's observation matrix); per-agent critics see the concatenation
of every agent's observation vector (centralized training, decentralized
execution). Each episode is buffered as (T, n, ...) fleet arrays; an update
round stacks its episodes once, advantage-labels every (episode, agent)
column with GAE and replays them for several epochs of clipped-surrogate
updates, with advantages normalized per minibatch.

Everything is deterministic given (env config, hyperparameters, seed):
network init, action sampling, minibatch shuffling, and the environment
itself all draw from explicitly keyed streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..env import (
    ACTION_DIM,
    WINDOW_FIELDS,
    EnvConfig,
    Observation,
    TradingEnv,
    episode_metrics,
    episode_seed,
    observation_dim,
    rollout_day,
)
from ..scenario import rng_stream
from .nets import CriticNet, PolicyNet
from .ppo import (
    OPTIMIZERS,
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
        if self.epochs < 1 or self.episodes < 0:
            raise ValueError("epochs/episodes out of range")
        if self.minibatch_size < 2:
            raise ValueError("minibatch_size must be >= 2 (advantages are normalized per batch)")
        if self.episodes_per_update < 1:
            raise ValueError("episodes_per_update must be >= 1")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(
                f"optimizer must be one of {tuple(OPTIMIZERS)}, got {self.optimizer!r}"
            )

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


class ObsNormalizer:
    """Static per-feature scaling derived from the fleet parameters.

    Observation matrices carry physical units (kWh, $/kWh); networks see
    each feature divided by its natural scale. Deterministic, no running
    statistics.
    """

    def __init__(self, config: EnvConfig):
        plant = config.plant
        n, W = config.n_agents, config.window_len
        load_scale = np.maximum(plant.l_max, 1.0)
        field_scale = {
            "q_da": load_scale,
            "load_est": load_scale,
            "gen_est": np.maximum(plant.g_max, 1.0),
            "p_e": np.full(n, float(config.prices.emergency.max())),
        }
        window = np.stack([field_scale[f] for f in WINDOW_FIELDS], axis=-1)
        # a fleet observation holding each feature's scale, laid out by `as_matrix`
        scale = Observation(
            m=1,
            soc=np.maximum(plant.e_max, 1.0),
            window=np.repeat(window[:, None, :], W, axis=1),
            window_mask=np.ones(W),
            hour_sin=1.0,
            hour_cos=1.0,
        )
        self.scales = scale.as_matrix()

    def __call__(self, obs_matrix: np.ndarray) -> np.ndarray:
        """(n, obs_dim) observations, each row divided by its agent's scales."""
        return obs_matrix / self.scales


@dataclass
class AgentNets:
    actor: PolicyNet
    critic: CriticNet


@dataclass
class TrainResult:
    nets: list[AgentNets]
    metrics: list[dict]
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


def train(
    env_config: EnvConfig,
    hyper: Hyperparams,
    seed: int,
    nets: list[AgentNets] | None = None,
    start_episode: int = 0,
) -> TrainResult:
    """Run the full training loop and return nets plus per-episode metrics.

    `nets` and `start_episode` allow resuming from a checkpoint; episode
    seeds depend only on (seed, episode index) so a resumed run replays
    the schedule it would have seen.
    """
    env = TradingEnv(env_config)
    n = env_config.n_agents
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
    pending: list[tuple] = []  # each episode's (T, n, ...) fleet arrays
    for ep_off in range(hyper.episodes):
        episode = start_episode + ep_off
        hidden = [ag.actor.initial_hidden() for ag in nets]
        hours = []  # each hour's normalized observations, presquash samples, logp, values

        def act(hour, obs):
            norm_obs = normalizer(obs.as_matrix())
            global_obs = norm_obs.reshape(-1)
            actions, presquash = np.empty((n, ACTION_DIM)), np.empty((n, ACTION_DIM))
            logp, values = np.empty(n), np.empty(n)
            for i, ag in enumerate(nets):
                dist, hidden[i] = ag.actor.distribution(norm_obs[i], hidden[i])
                actions[i], presquash[i] = dist.sample(sample_rngs[i])
                logp[i] = dist.log_prob(presquash[i])
                values[i] = ag.critic.value(global_obs)[0]
            hours.append((norm_obs, presquash, logp, values))
            return actions

        series = rollout_day(env, episode_seed(seed, episode), act)
        stacked = (np.stack(x) for x in zip(*hours))  # (T, n, ...)
        pending.append((*stacked, series[0] * hyper.reward_scale))
        if len(pending) >= hyper.episodes_per_update or ep_off == hyper.episodes - 1:
            _update_agents(nets, pending, actor_opts, critic_opts, hyper, shuffle_rng)
            pending = []

        metrics.append(episode_metrics(episode, *series))

    return TrainResult(nets=nets, metrics=metrics, episodes_done=start_episode + hyper.episodes)


def _update_agents(nets, pending, actor_opts, critic_opts, hyper, shuffle_rng):
    """One PPO update round over the buffered episodes.

    `pending` holds each episode's (normalized obs, presquash, logp, values,
    scaled rewards) fleet arrays, stacked here once into (E, T, n, ...).
    GAE labels every (episode, agent) column in one call. Agent i trains on
    the `[:, :, i]` slices: its recurrent actor re-runs over all E episodes
    in one batched pass (hidden state resets at episode boundaries), and
    every critic reads the same (E*T, n*obs_dim) global observations.
    Minibatches index into the steps flattened in episode order.
    """
    obs, presquash, logp_old, values, rewards = (np.stack(x) for x in zip(*pending))
    E, T, n = logp_old.shape
    adv = compute_gae(
        rewards.swapaxes(0, 1), values.swapaxes(0, 1), 0.0, hyper.gamma, hyper.lam
    ).swapaxes(0, 1)
    # (E*T, n) per-step columns, and the centralized critics' shared input
    targets = (adv + values).reshape(E * T, n)
    adv, logp_old = adv.reshape(E * T, n), logp_old.reshape(E * T, n)
    global_obs = obs.reshape(E * T, -1)

    total = E * T
    mb = min(hyper.minibatch_size, total)
    for _ in range(hyper.epochs):
        order = shuffle_rng.permutation(total)
        for lo in range(0, total, mb):
            idx = order[lo : lo + mb]
            if idx.size < 2:
                continue  # a singleton batch cannot be advantage-normalized
            for i, ag in enumerate(nets):
                means, log_std = ag.actor.forward_seq(obs[:, :, i])
                logp, entropy = policy_logp_and_entropy(means, log_std, presquash[:, :, i])
                loss = actor_loss(
                    logp.reshape(-1)[idx],
                    logp_old[idx, i],
                    normalize_advantages(adv[idx, i]),
                    entropy,
                    hyper.clip_eps,
                    hyper.entropy_coef,
                )
                actor_opts[i].zero_grad()
                loss.backward()
                actor_opts[i].step()

                vloss = critic_loss(ag.critic.forward(global_obs[idx]), targets[idx, i])
                critic_opts[i].zero_grad()
                vloss.backward()
                critic_opts[i].step()

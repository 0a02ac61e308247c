"""Training loop: centralized-critic recurrent PPO over the trading env.

Each episode is one simulated day, run by `env.rollout_day`. Actions are
sampled from per-agent recurrent policies on local observations (rows of
the fleet's observation matrix); per-agent critics see the concatenation
of every agent's observation vector (centralized training, decentralized
execution). The fleet is the unit of the learner: one `PolicyNet` and one
`CriticNet` hold every agent's weights along a leading agent axis, so each
rollout hour and each minibatch runs every agent as one batched
computation.

The rollout runs only the actor, as execution would. Before a day starts,
each agent's sampling stream hands out the whole day's standard normals as
one (T, 3) block. Each hour then writes the fleet's normalized observation
into the day's (T, n, D) buffer, makes one `PolicyNet.distribution` step
and one `DiagGaussian.sample`. After the day, one `log_prob` call over the
(T, n, 3) means and pre-squash values gives the old log-probabilities.
The critics run only in the update: no weights change between a round's
rollouts and its update, so one `CriticNet.value` call over the round's
(E*T, n*D) global observations gives the values the hours would have.

An update round stacks its episodes once, advantage-labels every
(episode, agent) column with GAE and replays them for several epochs of
clipped-surrogate updates, with advantages normalized per agent and
minibatch.

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
from ..errors import real, whole
from ..scenario import rng_stream
from .nets import CriticNet, DiagGaussian, PolicyNet
from .ppo import (
    OPTIMIZERS,
    actor_loss,
    compute_gae,
    critic_loss,
    normalize_advantages,
    policy_logp_and_entropy,
)

# learner stream tags (kept clear of the scenario's per-agent purpose tags)
TAG_SAMPLE = 1001
TAG_INIT = 1002
TAG_SHUFFLE = 1003

#: the largest layer width a config may ask for (the paper-scale critic's
#: first layer is 2056)
MAX_HIDDEN = 4096


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
        for name in ("gamma", "lam"):
            if not (0.0 < real(name, getattr(self, name)) < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {getattr(self, name)!r}")
        for name, least in (("epochs", 1), ("episodes", 0), ("episodes_per_update", 1)):
            whole(name, getattr(self, name), least)
        whole("lstm_hidden", self.lstm_hidden, 1, MAX_HIDDEN)
        # advantages are normalized per minibatch, which needs two steps
        whole("minibatch_size", self.minibatch_size, 2)
        for name in ("actor_hidden", "critic_hidden"):
            sizes = getattr(self, name)
            if len(sizes) != 2:
                raise ValueError(f"{name} must hold 2 layer sizes, got {sizes!r}")
            for size in sizes:
                whole(name, size, 1, MAX_HIDDEN)
        for name in ("clip_eps", "lr_actor", "lr_critic", "reward_scale"):
            if real(name, getattr(self, name)) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if real("entropy_coef", self.entropy_coef) < 0:
            raise ValueError(f"entropy_coef must be >= 0, got {self.entropy_coef!r}")
        real("log_std_init", self.log_std_init)
        if len(self.action_bias) != ACTION_DIM:
            raise ValueError(f"action_bias must hold {ACTION_DIM} numbers, "
                             f"got {self.action_bias!r}")
        for bias in self.action_bias:
            real("action_bias", bias)
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


def observation_scales(config: EnvConfig) -> np.ndarray:
    """Static (n, obs_dim) per-feature scales derived from the fleet parameters.

    Observation matrices carry physical units (kWh, $/kWh); networks see
    each feature divided by its natural scale. Deterministic, no running
    statistics.
    """
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
    return Observation(
        m=1,
        soc=np.maximum(plant.e_max, 1.0),
        window=np.repeat(window[:, None, :], W, axis=1),
        window_mask=np.ones(W),
        hour_sin=1.0,
        hour_cos=1.0,
    ).as_matrix()


@dataclass
class FleetNets:
    """Every agent's actor and critic, each stacked along a leading agent axis."""

    actor: PolicyNet
    critic: CriticNet


@dataclass
class TrainResult:
    nets: FleetNets
    metrics: list[dict]
    episodes_done: int


def build_nets(config: EnvConfig, hyper: Hyperparams, seed: int) -> FleetNets:
    """The fleet's freshly initialised nets: agent i's actor slice draws from
    (seed, TAG_INIT, i, 0), its critic slice from (seed, TAG_INIT, i, 1)."""
    obs_dim = observation_dim(config)
    agents = range(config.n_agents)
    actor = PolicyNet(
        obs_dim,
        lstm_hidden=hyper.lstm_hidden,
        trunk_hidden=hyper.actor_hidden,
        log_std_init=hyper.log_std_init,
        mean_bias_init=hyper.action_bias,
        rngs=[rng_stream(seed, TAG_INIT, i, 0) for i in agents],
    )
    critic = CriticNet(
        obs_dim * config.n_agents,
        hidden=hyper.critic_hidden,
        rngs=[rng_stream(seed, TAG_INIT, i, 1) for i in agents],
    )
    return FleetNets(actor, critic)


def day_noise(rngs, hours: int) -> np.ndarray:
    """One day's (hours, n, ACTION_DIM) sampling normals: column k is one
    block from `rngs[k]`, the same draws as one ACTION_DIM call per hour."""
    return np.stack([rng.standard_normal((hours, ACTION_DIM)) for rng in rngs], axis=1)


def train(
    env_config: EnvConfig,
    hyper: Hyperparams,
    seed: int,
    nets: FleetNets | None = None,
    start_episode: int = 0,
) -> TrainResult:
    """Run the full training loop and return nets plus per-episode metrics.

    `nets` and `start_episode` allow resuming from a checkpoint; episode
    seeds depend only on (seed, episode index) so a resumed run replays
    the schedule it would have seen.
    """
    env = TradingEnv(env_config)
    n, T, D = env_config.n_agents, env_config.horizon, observation_dim(env_config)
    scales = observation_scales(env_config)
    if nets is None:
        nets = build_nets(env_config, hyper, seed)
    actor, critic = nets.actor, nets.critic

    actor_opt = OPTIMIZERS[hyper.optimizer](actor.store, hyper.lr_actor)
    critic_opt = OPTIMIZERS[hyper.optimizer](critic.store, hyper.lr_critic)
    sample_rngs = [rng_stream(seed, TAG_SAMPLE, i) for i in range(n)]
    shuffle_rng = rng_stream(seed, TAG_SHUFFLE)

    metrics: list[dict] = []
    pending: list[tuple] = []  # each episode's (T, n, ...) fleet arrays
    for ep_off in range(hyper.episodes):
        episode = start_episode + ep_off
        noise = day_noise(sample_rngs, T)
        obs_day = np.empty((T, n, D))
        means, presquash = np.empty((T, n, ACTION_DIM)), np.empty((T, n, ACTION_DIM))
        hidden = actor.initial_hidden()

        def act(hour, obs):
            nonlocal hidden
            obs_day[hour] = obs.as_matrix() / scales
            dist, hidden = actor.distribution(obs_day[hour], hidden)
            means[hour] = dist.mean
            actions, presquash[hour] = dist.sample(noise[hour])
            return actions

        series = rollout_day(env, episode_seed(seed, episode), act)
        logp = DiagGaussian(means, actor.log_std.data[:, 0]).log_prob(presquash)
        pending.append((obs_day, presquash, logp, series[0] * hyper.reward_scale))
        if len(pending) >= hyper.episodes_per_update or ep_off == hyper.episodes - 1:
            _update_agents(nets, pending, actor_opt, critic_opt, hyper, shuffle_rng)
            pending = []

        metrics.append(episode_metrics(episode, *series))

    return TrainResult(nets=nets, metrics=metrics, episodes_done=start_episode + hyper.episodes)


def _agent_rows(columns: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows `idx` of (steps, n) columns as C-contiguous (n, len(idx)) agent
    rows, so each agent's reductions run over a contiguous last axis."""
    return np.ascontiguousarray(columns[idx].T)


def _minibatches(total: int, size: int) -> list[tuple[int, int]]:
    """[lo, hi) bounds of `total` shuffled steps cut into batches of `size`.

    A one-step tail cannot be advantage-normalized, so it joins the batch
    before it; a round of one step in all has no batch.
    """
    starts = list(range(0, total, size))
    if len(starts) > 1 and total - starts[-1] == 1:
        starts.pop()
    return [(lo, hi) for lo, hi in zip(starts, starts[1:] + [total]) if hi - lo > 1]


def _update_agents(nets, pending, actor_opt, critic_opt, hyper, shuffle_rng):
    """One PPO update round over the buffered episodes.

    `pending` holds each episode's (normalized obs, presquash, logp, scaled
    rewards) fleet arrays, stacked here once into (E, T, n, ...). One
    critic call values every step for every agent, and GAE labels every
    (episode, agent) column in one call. Each minibatch re-runs every
    agent's recurrent actor over all E episodes in one batched pass (hidden
    state resets at episode boundaries), and every critic reads the same
    (E*T, n*obs_dim) global observations. One backward pass and one
    optimizer step per role update the whole fleet. Minibatches index into
    the steps flattened in episode order.
    """
    obs, presquash, logp_old, rewards = (np.stack(x) for x in zip(*pending))
    E, T, n = logp_old.shape
    global_obs = obs.reshape(E * T, -1)
    values = nets.critic.value(global_obs).T.reshape(E, T, n)
    adv = compute_gae(
        rewards.swapaxes(0, 1), values.swapaxes(0, 1), 0.0, hyper.gamma, hyper.lam
    ).swapaxes(0, 1)
    # (E*T, n) per-step columns, and the centralized critics' shared input
    targets = (adv + values).reshape(E * T, n)
    adv, logp_old = adv.reshape(E * T, n), logp_old.reshape(E * T, n)
    # each agent's own episodes, (n, E, T, ...)
    agent_obs = obs.transpose(2, 0, 1, 3)
    agent_presquash = presquash.transpose(2, 0, 1, 3)

    total = E * T
    batches = _minibatches(total, min(hyper.minibatch_size, total))
    for _ in range(hyper.epochs):
        order = shuffle_rng.permutation(total)
        for lo, hi in batches:
            idx = order[lo:hi]
            # each role's tape lives only inside its `_descend` call
            _descend(actor_opt, _actor_losses(
                nets.actor, agent_obs, agent_presquash, _agent_rows(logp_old, idx),
                normalize_advantages(_agent_rows(adv, idx)), idx, hyper,
            ))
            _descend(critic_opt, critic_loss(
                nets.critic.forward(global_obs[idx]), _agent_rows(targets, idx)
            ))


def _actor_losses(actor, obs, presquash, logp_old, adv, idx, hyper):
    """Each agent's clipped-surrogate loss (n,) on minibatch `idx` of its
    (n, E, T, ...) episodes."""
    n, E, T = obs.shape[:3]
    means, log_std = actor.forward_seq(obs)
    logp, entropy = policy_logp_and_entropy(means, log_std, presquash)
    return actor_loss(
        logp.reshape(n, E * T)[:, idx], logp_old, adv, entropy.reshape(n),
        hyper.clip_eps, hyper.entropy_coef,
    )


def _descend(opt, losses):
    """One optimizer step on the sum of the per-agent losses: agents share no
    weights, so each agent's slice gets exactly its own loss's gradient."""
    opt.zero_grad()
    losses.sum().backward()
    opt.step()

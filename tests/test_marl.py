"""Learner component tests: GAE, PPO losses, optimizers, networks, and
the fleet learner against its per-agent reference."""

import json
import math

import numpy as np
import pytest

import gridtrade.marl.train as train_mod
from gridtrade.env import (
    ACTION_DIM,
    DEFAULT_FLEET,
    EnvConfig,
    TradingEnv,
    episode_metrics,
    episode_seed,
    observation_dim,
    rollout_day,
)
from gridtrade.errors import ShapeMismatch
from gridtrade.marl.autodiff import Tensor, as_tensor, clip, lstm_cell, lstm_seq, relu
from gridtrade.marl.nets import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    CriticNet,
    DiagGaussian,
    ParamStore,
    PolicyNet,
    squash,
    squash_correction,
)
from gridtrade.marl.ppo import (
    OPTIMIZERS,
    Adam,
    Sgd,
    actor_loss,
    compute_gae,
    critic_loss,
    gradient_check,
    normalize_advantages,
    policy_logp_and_entropy,
)
from gridtrade.marl.train import (
    TAG_INIT,
    TAG_SAMPLE,
    TAG_SHUFFLE,
    Hyperparams,
    build_nets,
    observation_scales,
    train,
)
from gridtrade.scenario import rng_stream


def gae_double_sum(rewards, values, bootstrap, gamma, lam):
    """Direct O(T^2) oracle for the GAE definition."""
    ext = np.append(values, bootstrap)
    T = len(rewards)
    deltas = [rewards[t] + gamma * ext[t + 1] - ext[t] for t in range(T)]
    return np.array(
        [
            sum((gamma * lam) ** t * deltas[l + t] for t in range(T - l))
            for l in range(T)
        ]
    )


class TestGae:
    def test_single_step_unit(self):
        for gl in (0.1, 0.95):
            adv = compute_gae([1.0], [0.0], 0.0, gl, gl)
            assert adv[0] == pytest.approx(1.0)

    def test_two_step_hand_value(self):
        adv = compute_gae([1.0, 1.0], [0.0, 0.0], 0.0, 0.95, 0.95)
        np.testing.assert_allclose(adv, [1.9025, 1.0])

    def test_perfect_values_zero_advantage(self):
        rng = np.random.default_rng(3)
        gamma = 0.9
        rewards = rng.normal(size=12)
        returns = np.array(
            [sum(gamma ** k * rewards[t + k] for k in range(12 - t)) for t in range(12)]
        )
        adv = compute_gae(rewards, returns, 0.0, gamma, 0.8)
        np.testing.assert_allclose(adv, np.zeros(12), atol=1e-12)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            T = int(rng.integers(1, 65))
            rewards = rng.normal(size=T)
            values = rng.normal(size=T)
            bootstrap = float(rng.normal())
            gamma, lam = rng.uniform(0.5, 0.999, 2)
            fast = compute_gae(rewards, values, bootstrap, gamma, lam)
            slow = gae_double_sum(rewards, values, bootstrap, gamma, lam)
            assert np.abs(fast - slow).max() <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            compute_gae([1.0, 2.0], [0.0], 0.0, 0.9, 0.9)

    def test_trailing_columns_equal_per_column_calls(self):
        rng = np.random.default_rng(6)
        T, E, n = 24, 3, 4
        rewards = rng.normal(size=(T, E, n))
        values = rng.normal(size=(T, E, n))
        adv = compute_gae(rewards, values, 0.0, 0.95, 0.9)
        assert adv.shape == (T, E, n)
        for e in range(E):
            for i in range(n):
                column = compute_gae(rewards[:, e, i], values[:, e, i], 0.0, 0.95, 0.9)
                np.testing.assert_array_equal(adv[:, e, i], column)


def loss_value(rho, adv, eps, c=0.0):
    logp_new = Tensor(np.log(np.asarray(rho, dtype=float)))
    loss = actor_loss(
        logp_new,
        np.zeros_like(np.asarray(rho, dtype=float)),
        np.asarray(adv, dtype=float),
        Tensor(0.0),
        eps,
        c,
    )
    return float(loss.data)


class TestActorLoss:
    def test_unit_advantage_unclipped(self):
        for eps in (0.1, 0.2, 0.5):
            assert loss_value([1.0], [1.0], eps) == pytest.approx(-1.0)

    def test_clip_binds_above(self):
        assert loss_value([2.0], [1.0], 0.2) == pytest.approx(-1.2)

    def test_pessimistic_min_negative_advantage(self):
        assert loss_value([2.0], [-1.0], 0.2) == pytest.approx(2.0)

    def test_entropy_bonus_subtracts(self):
        loss_no_ent = loss_value([1.0], [1.0], 0.2, c=0.0)
        logp_new = Tensor(np.array([0.0]))
        loss = actor_loss(
            logp_new, np.array([0.0]), np.array([1.0]), Tensor(3.0), 0.2, 0.5
        )
        assert float(loss.data) == pytest.approx(loss_no_ent - 1.5)

    def test_zero_gradient_when_clip_active(self):
        # rho = 2 with positive advantage: clipped branch selected, constant
        logp = Tensor(np.array([math.log(2.0)]), requires_grad=True)
        loss = actor_loss(logp, np.array([0.0]), np.array([1.0]), Tensor(0.0), 0.2, 0.0)
        loss.backward()
        np.testing.assert_allclose(logp.grad, [0.0])

    def test_gradient_flows_when_unclipped_selected(self):
        logp = Tensor(np.array([math.log(2.0)]), requires_grad=True)
        loss = actor_loss(logp, np.array([0.0]), np.array([-1.0]), Tensor(0.0), 0.2, 0.0)
        loss.backward()
        assert logp.grad[0] == pytest.approx(2.0)  # d(-rho*A)/dlogp = -A*rho = 2


class TestCriticLoss:
    def test_perfect_fit(self):
        v = Tensor(np.array([[1.0], [2.0]]))
        assert float(critic_loss(v, np.array([1.0, 2.0])).data) == 0.0

    def test_single_sample_mse(self):
        v = Tensor(np.array([[0.0]]))
        assert float(critic_loss(v, np.array([2.0])).data) == pytest.approx(4.0)

    def test_order_invariance(self):
        v1 = Tensor(np.array([[1.0], [3.0]]))
        v2 = Tensor(np.array([[3.0], [1.0]]))
        a = float(critic_loss(v1, np.array([0.0, 2.0])).data)
        b = float(critic_loss(v2, np.array([2.0, 0.0])).data)
        assert a == pytest.approx(b)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            critic_loss(Tensor(np.zeros((3, 1))), np.zeros(2))


def stepped(optimizer, data, grad, lr):
    """The weights `data` after one `optimizer` step on gradient `grad`; the
    (n,) weights make one parameter, so its store is (n, 1)."""
    p = Tensor(np.array(data), requires_grad=True)
    store = ParamStore([p])
    store.grad[:, 0] = grad
    optimizer(store, lr).step()
    return p.data.copy()


class TestSgdUpdate:
    def test_zero_lr_noop(self):
        np.testing.assert_array_equal(stepped(Sgd, [1.0, 2.0], [5.0, 5.0], 0.0), [1.0, 2.0])

    def test_plain_rule(self):
        assert stepped(Sgd, [1.0], [0.5], 0.1)[0] == pytest.approx(0.95)

    def test_determinism(self):
        def run():
            return stepped(Sgd, [1.0, -1.0], [0.3, 0.7], 0.01)

        np.testing.assert_array_equal(run(), run())

    def test_adam_step_descends(self):
        assert stepped(Adam, [1.0], [1.0], 0.1)[0] < 1.0


class TestNormalizeAdvantages:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(1)
        adv = normalize_advantages(rng.normal(3.0, 5.0, 256))
        assert abs(adv.mean()) < 1e-6
        assert abs(adv.std() - 1.0) < 1e-6


class TestSquashedGaussian:
    def test_squash_maps_into_box(self):
        u = np.linspace(-5, 5, 7).reshape(-1, 1) * np.ones((7, 3))
        boxed = squash(u)
        assert (boxed[:, 0] >= -1).all() and (boxed[:, 0] <= 1).all()
        assert (boxed[:, 1:] >= 0).all() and (boxed[:, 1:] <= 1).all()

    def test_zero_presquash_is_box_center(self):
        np.testing.assert_allclose(squash(np.zeros(3)), [0.0, 0.5, 0.5])

    def test_correction_matches_numeric_jacobian(self):
        u = np.array([0.3, -1.0, 0.7])
        h = 1e-6
        log_jac = 0.0
        for d in range(3):
            up, down = u.copy(), u.copy()
            up[d] += h
            down[d] -= h
            log_jac += math.log((squash(up)[d] - squash(down)[d]) / (2 * h))
        assert squash_correction(u) == pytest.approx(log_jac, abs=1e-6)

    def test_log_prob_consistent_with_taped_path(self):
        rng = np.random.default_rng(5)
        mean = rng.normal(size=3)
        log_std = rng.uniform(-1, 0, 3)
        dist = DiagGaussian(mean.reshape(1, 3), log_std.reshape(1, 3))
        _, u = dist.sample(rng.standard_normal((1, 3)))
        rollout_logp = dist.log_prob(u)[0]
        taped_logp, _ = policy_logp_and_entropy(
            Tensor(mean.reshape(1, 3)), Tensor(log_std), u
        )
        assert rollout_logp == pytest.approx(float(taped_logp.data[0]))

    def test_each_row_samples_from_its_own_stream(self):
        mean = np.array([[0.1, -0.2, 0.3], [0.5, 0.0, -1.0]])
        log_std = np.full((2, 3), -0.7)
        noise = train_mod.day_noise([np.random.default_rng(1), np.random.default_rng(2)], 1)
        _, u = DiagGaussian(mean, log_std).sample(noise[0])
        for k, seed in enumerate((1, 2)):
            noise = np.random.default_rng(seed).standard_normal(3)
            np.testing.assert_array_equal(u[k], mean[k] + np.exp(log_std[k]) * noise)

    def test_rollout_and_taped_log_probs_are_bitwise_equal(self):
        # one formula: the update re-derives exactly the rollout's logp_old
        rng = np.random.default_rng(8)
        for _ in range(20):
            log_std = rng.uniform(LOG_STD_MIN, LOG_STD_MAX, 3)
            means = rng.normal(size=(100, 3))
            u = means + np.exp(log_std) * rng.standard_normal((100, 3))
            rollout = [DiagGaussian(m, log_std).log_prob(x) for m, x in zip(means, u)]
            taped, _ = policy_logp_and_entropy(
                Tensor(means[None]), Tensor(log_std), u[None]
            )
            assert taped.data[0].tolist() == rollout

    def test_entropy_closed_form(self):
        log_std = np.array([-0.5, 0.0, 0.3])
        _, entropy = policy_logp_and_entropy(
            Tensor(np.zeros((1, 3))), Tensor(log_std), np.zeros((1, 3))
        )
        expected = (0.5 * (1 + math.log(2 * math.pi)) * 3) + log_std.sum()
        assert float(entropy.data) == pytest.approx(expected)


def run_policy(net, obs_seq, hidden=None):
    """Step the rollout path over a sequence; final distribution and state."""
    hidden = net.initial_hidden() if hidden is None else hidden
    for obs in obs_seq:
        dist, hidden = net.distribution(obs[None], hidden)
    return dist, hidden


class TestPolicyNet:
    def obs(self, rng, T=5, dim=10):
        return rng.normal(size=(T, dim))

    def test_zero_weights_zero_input_box_center(self):
        net = PolicyNet(obs_dim=6, lstm_hidden=4, trunk_hidden=(8, 8))
        for p in net.params():
            p.data = np.zeros_like(p.data)
        dist, _ = net.distribution(np.zeros((1, 6)), net.initial_hidden())
        np.testing.assert_allclose(squash(dist.mean[0]), [0.0, 0.5, 0.5])

    def test_determinism(self):
        rng = np.random.default_rng(0)
        net = PolicyNet(obs_dim=10, lstm_hidden=4, trunk_hidden=(8, 8),
                        rngs=[np.random.default_rng(1)])
        seq = self.obs(rng)
        d1, _ = run_policy(net, seq)
        d2, _ = run_policy(net, seq)
        np.testing.assert_array_equal(d1.mean, d2.mean)

    def test_taped_and_fast_paths_agree(self):
        rng = np.random.default_rng(2)
        net = PolicyNet(obs_dim=7, lstm_hidden=5, trunk_hidden=(6, 6),
                        rngs=[np.random.default_rng(3)])
        seq = self.obs(rng, T=6, dim=7)
        means, _ = net.forward_seq(seq[None, None])
        hidden = net.initial_hidden()
        for t in range(6):
            dist, hidden = net.distribution(seq[t][None], hidden)
        np.testing.assert_allclose(dist.mean[0], means.data[0, 0, -1], atol=1e-12)

    def test_hidden_state_carries_memory(self):
        net = PolicyNet(obs_dim=3, lstm_hidden=4, trunk_hidden=(6, 6),
                        rngs=[np.random.default_rng(9)])
        one = np.ones(3)
        d_fresh, _ = run_policy(net, one.reshape(1, 3))
        _, hidden = run_policy(net, np.full((4, 3), -1.0))
        d_after, _ = run_policy(net, one.reshape(1, 3), hidden)
        assert not np.allclose(d_fresh.mean, d_after.mean)

    def test_critic_batch_equivariance(self):
        net = CriticNet(input_dim=8, hidden=(10, 10), rngs=[np.random.default_rng(4)])
        x = np.random.default_rng(5).normal(size=(6, 8))
        perm = np.array([3, 1, 5, 0, 2, 4])
        np.testing.assert_allclose(net.value(x)[0, perm], net.value(x[perm])[0], atol=1e-12)

    def test_per_agent_parameter_isolation(self):
        # agents share no weights: another agent's data cannot move agent k's slice
        hyper = Hyperparams(lstm_hidden=4, actor_hidden=(6, 6), critic_hidden=(8, 8),
                            epochs=2, minibatch_size=20)
        config = EnvConfig()
        n, j = config.n_agents, 2
        rng = np.random.default_rng(21)
        E, T, D = 2, 24, observation_dim(config)
        pending = [
            (rng.normal(size=(T, n, D)), rng.normal(size=(T, n, ACTION_DIM)),
             rng.normal(-2.0, 0.1, (T, n)), rng.normal(size=(T, n)))
            for _ in range(E)
        ]
        perturbed = [tuple(a.copy() for a in episode) for episode in pending]
        for _, presquash, logp_old, rewards in perturbed:
            presquash[:, j] += 0.5
            logp_old[:, j] -= 0.3
            rewards[:, j] *= -2.0  # moves agent j's advantages and critic targets

        def updated(episodes):
            nets = build_nets(config, hyper, seed=0)
            train_mod._update_agents(
                nets, episodes,
                Adam(nets.actor.store, hyper.lr_actor),
                Adam(nets.critic.store, hyper.lr_critic),
                hyper, np.random.default_rng(0),
            )
            return nets

        base, moved = updated(pending), updated(perturbed)
        for net in ("actor", "critic"):
            for p, q in zip(getattr(base, net).params(), getattr(moved, net).params()):
                for k in range(n):
                    same = p.data[k].tobytes() == q.data[k].tobytes()
                    assert same == (k != j), (net, k)


class TestGradientCheck:
    def test_linear_quadratic_exact(self):
        rng = np.random.default_rng(0)
        W = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = rng.normal(size=(5, 4))

        def loss_fn():
            y = Tensor(x) @ W
            return (y * y).sum()

        report = gradient_check([W], loss_fn, tol=1e-6)
        assert report.passed
        assert report.max_rel_error < 1e-7

    def test_policy_and_critic_losses_on_recurrent_net(self):
        rng = np.random.default_rng(1)
        net = PolicyNet(obs_dim=5, lstm_hidden=3, trunk_hidden=(4, 4),
                        rngs=[np.random.default_rng(2)])
        obs = rng.normal(size=(4, 5))
        presquash = rng.normal(size=(4, 3))
        logp_old = rng.normal(size=4)
        adv = rng.normal(size=4)

        def loss_fn():
            means, log_std = net.forward_seq(obs[None, None])
            logp, entropy = policy_logp_and_entropy(means, log_std, presquash[None, None])
            return actor_loss(logp.reshape(4), logp_old, adv, entropy.reshape(()), 0.2, 0.01)

        report = gradient_check(net.params(), loss_fn, tol=1e-4)
        assert report.passed, f"max rel error {report.max_rel_error}"

    def test_two_agent_policy_and_critic(self):
        # each parameter is a strided view into its store; the check must
        # perturb the store, not a copy of the view
        rng = np.random.default_rng(3)
        net = PolicyNet(obs_dim=5, lstm_hidden=3, trunk_hidden=(4, 4),
                        rngs=[np.random.default_rng(4), np.random.default_rng(5)])
        obs = rng.normal(size=(2, 1, 4, 5))
        presquash = rng.normal(size=(2, 1, 4, 3))
        logp_old = rng.normal(size=(2, 4))
        adv = rng.normal(size=(2, 4))

        def actor_fn():
            means, log_std = net.forward_seq(obs)
            logp, entropy = policy_logp_and_entropy(means, log_std, presquash)
            return actor_loss(logp.reshape(2, 4), logp_old, adv, entropy.reshape(2),
                              0.2, 0.01).sum()

        report = gradient_check(net.params(), actor_fn, tol=1e-4)
        assert report.passed, f"actor: max rel error {report.max_rel_error}"

        critic = CriticNet(input_dim=6, hidden=(5, 4),
                           rngs=[np.random.default_rng(6), np.random.default_rng(7)])
        x = rng.normal(size=(6, 6))
        targets = rng.normal(size=(2, 6))

        def critic_fn():
            return critic_loss(critic.forward(x), targets).sum()

        report = gradient_check(critic.params(), critic_fn, tol=1e-4)
        assert report.passed, f"critic: max rel error {report.max_rel_error}"

    def test_corrupted_gradient_detected(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def broken_double(x):
            # forward doubles, backward claims a factor of three
            return Tensor(x.data * 2.0, _parents=(x,), _backward=lambda g: (3.0 * g,))

        def loss_fn():
            return broken_double(w).sum()

        report = gradient_check([w], loss_fn, tol=1e-4)
        assert not report.passed


class TestParamStore:
    HYPER = Hyperparams(episodes=1, epochs=1)  # desk-scale nets, one short round

    @pytest.fixture(scope="class")
    def nets(self):
        return train(EnvConfig(), self.HYPER, seed=0).nets

    def test_parameters_stay_views_of_their_store_through_training(self, nets):
        for net, width in ((nets.actor, 16_326), (nets.critic, 30_977)):
            assert net.store.data.shape == net.store.grad.shape == (4, width)
            assert sum(p.data[0].size for p in net.params()) == width
            for p in net.params():
                assert np.shares_memory(p.data, net.store.data)
                assert np.shares_memory(p.grad, net.store.grad)

    def test_checkpoint_rows_are_the_store_rows(self, nets, tmp_path):
        from gridtrade.reporting import save_checkpoint

        path = tmp_path / "ck.json"
        save_checkpoint(path, nets, self.HYPER, "h", 0, 1)
        agents = json.loads(path.read_text())["payload"]["agents"]
        for k, blob in enumerate(agents):
            assert blob["actor"] == nets.actor.store.data[k].tolist()
            assert blob["critic"] == nets.critic.store.data[k].tolist()

    def test_row_k_is_agent_k_in_parameter_order(self):
        net = CriticNet(input_dim=3, hidden=(2, 2),
                        rngs=[np.random.default_rng(1), np.random.default_rng(2)])
        for k in range(2):
            expected = np.concatenate([p.data[k].ravel() for p in net.params()])
            assert net.store.data[k].tobytes() == expected.tobytes()


# Elementwise taped ops for the per-step LSTM reference below; the package
# runs its recurrent layer as the one fused `lstm_seq` op and needs none of them.

def sigmoid(x: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-x.data))
    return Tensor(out, _parents=(x,), _backward=lambda g: (g * out * (1.0 - out),))


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return Tensor(out, _parents=(x,), _backward=lambda g: (g * (1.0 - out * out),))


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    bounds = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    return Tensor(
        np.concatenate([t.data for t in tensors], axis=axis),
        _parents=tuple(tensors),
        _backward=lambda g: tuple(np.split(g, bounds, axis=axis)),
    )


def per_step_means(net, episodes):
    """Reference actor forward of a one-agent net: one taped LSTM step per
    episode and hour, built from elementwise autodiff primitives."""
    lstm, H = net.lstm, net.lstm.hidden
    Wx, Wh = lstm.Wx.reshape(*lstm.Wx.shape[1:]), lstm.Wh.reshape(H, 4 * H)
    b = lstm.b.reshape(4 * H)
    hiddens = []
    for seq in episodes:
        h = Tensor(np.zeros((1, H)))
        c = Tensor(np.zeros((1, H)))
        for t in range(seq.shape[0]):
            z = Tensor(seq[t : t + 1]) @ Wx + h @ Wh + b
            i = sigmoid(z[:, 0:H])
            f = sigmoid(z[:, H : 2 * H])
            g = tanh(z[:, 2 * H : 3 * H])
            o = sigmoid(z[:, 3 * H : 4 * H])
            c = f * c + i * g
            h = o * tanh(c)
            hiddens.append(h)
    z = relu(net.fc1(concat(hiddens, axis=0).reshape(1, len(hiddens), H)))
    z = relu(net.fc2(z))
    return net.mean_head(z)


class TestLstmSeq:
    def test_batched_gradient_check(self):
        rng = np.random.default_rng(11)
        E, T, D, H = 3, 4, 5, 3
        x = Tensor(rng.normal(size=(1, E, T, D)), requires_grad=True)
        Wx = Tensor(rng.normal(0.0, 0.5, (1, D, 4 * H)), requires_grad=True)
        Wh = Tensor(rng.normal(0.0, 0.5, (1, H, 4 * H)), requires_grad=True)
        b = Tensor(rng.normal(0.0, 0.5, (1, 1, 4 * H)), requires_grad=True)
        weight = rng.normal(size=(1, E, T, H))

        def loss_fn():
            out = lstm_seq(x, Wx, Wh, b)
            return (out * out * weight).sum()

        report = gradient_check([x, Wx, Wh, b], loss_fn, tol=1e-4)
        assert report.passed, f"max rel error {report.max_rel_error}"

    def test_batched_rows_equal_per_episode_calls(self):
        rng = np.random.default_rng(12)
        net = PolicyNet(obs_dim=7, lstm_hidden=5, trunk_hidden=(6, 6),
                        rngs=[np.random.default_rng(13)])
        episodes = rng.normal(size=(4, 6, 7))
        means, _ = net.forward_seq(episodes[None])
        assert means.shape == (1, 4, 6, 3)
        for e in range(4):
            single, _ = net.forward_seq(episodes[None, e : e + 1])
            np.testing.assert_allclose(means.data[0, e], single.data[0, 0],
                                       rtol=1e-13, atol=1e-15)

    def test_agent_rows_equal_one_agent_calls(self):
        rng = np.random.default_rng(16)
        n, E, T, D, H = 3, 2, 5, 4, 3
        x = rng.normal(size=(n, E, T, D))
        weights = [rng.normal(0.0, 0.5, shape) for shape in
                   ((n, D, 4 * H), (n, H, 4 * H), (n, 1, 4 * H))]
        fleet = lstm_seq(x, *(Tensor(w) for w in weights)).data
        for k in range(n):
            one = lstm_seq(x[k : k + 1], *(Tensor(w[k : k + 1]) for w in weights)).data
            assert fleet[k].tobytes() == one[0].tobytes()

    def test_matches_per_step_reference_at_reference_size(self):
        rng = np.random.default_rng(14)
        E, T, D = 8, 24, 27
        net = PolicyNet(obs_dim=D, lstm_hidden=32, trunk_hidden=(64, 64),
                        log_std_init=-0.7, rngs=[np.random.default_rng(15)])
        obs = rng.normal(size=(E, T, D))
        presquash = rng.normal(size=(E, T, 3))
        logp_old = rng.normal(size=E * T) * 0.1 - 2.0
        idx = rng.permutation(E * T)[:150]
        adv = normalize_advantages(rng.normal(size=idx.size))

        def loss_and_grads(means_fn):
            means = means_fn()
            log_std = clip(net.log_std, LOG_STD_MIN, LOG_STD_MAX).reshape(3)
            logp, entropy = policy_logp_and_entropy(
                means.reshape(E * T, 3), log_std, presquash.reshape(E * T, 3)
            )
            loss = actor_loss(logp[idx], logp_old[idx], adv, entropy, 0.2, 0.003)
            for p in net.params():
                p.grad = None
            loss.backward()
            return float(loss.data), [p.grad.copy() for p in net.params()]

        fused_loss, fused = loss_and_grads(lambda: net.forward_seq(obs[None])[0])
        ref_loss, ref = loss_and_grads(lambda: per_step_means(net, obs))
        assert fused_loss == pytest.approx(ref_loss, rel=1e-12)
        for got, want in zip(fused, ref):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestEntropyCoefficientDirection:
    def test_larger_coef_never_lowers_entropy_after_one_update(self):
        rng = np.random.default_rng(7)
        obs = rng.normal(size=(6, 5))
        presquash = rng.normal(size=(6, 3))
        logp_old = rng.normal(size=6) * 0.1
        adv = rng.normal(size=6)

        def entropy_after(coef):
            net = PolicyNet(obs_dim=5, lstm_hidden=3, trunk_hidden=(4, 4),
                            rngs=[np.random.default_rng(8)])
            means, log_std = net.forward_seq(obs[None, None])
            logp, entropy = policy_logp_and_entropy(means, log_std, presquash[None, None])
            loss = actor_loss(logp.reshape(6), logp_old, normalize_advantages(adv),
                              entropy.reshape(()), 0.2, coef)
            opt = Sgd(net.store, 0.01)
            opt.zero_grad()
            loss.backward()
            opt.step()
            _, log_std_new = net.forward_seq(obs[None, None])
            return float(log_std_new.data.sum())

        assert entropy_after(0.5) >= entropy_after(0.0) - 1e-12


def reference_train(config, hyper, seed):
    """The per-agent learner the fleet learner replaced, kept as its oracle.

    Agent i owns a one-agent actor and critic (drawn from agent i's init
    streams) and its own optimizers. Each hour makes n `distribution`,
    `sample` and `log_prob` calls, each sample drawing its own 3 normals;
    each round makes n `value` calls, and each minibatch n actor forward
    passes, 2n backward passes and 2n optimizer steps.
    """
    env = TradingEnv(config)
    n = config.n_agents
    scales = observation_scales(config)
    obs_dim = observation_dim(config)
    actors = [
        PolicyNet(obs_dim, lstm_hidden=hyper.lstm_hidden, trunk_hidden=hyper.actor_hidden,
                  log_std_init=hyper.log_std_init, mean_bias_init=hyper.action_bias,
                  rngs=[rng_stream(seed, TAG_INIT, i, 0)])
        for i in range(n)
    ]
    critics = [
        CriticNet(obs_dim * n, hidden=hyper.critic_hidden, rngs=[rng_stream(seed, TAG_INIT, i, 1)])
        for i in range(n)
    ]
    actor_opts = [OPTIMIZERS[hyper.optimizer](a.store, hyper.lr_actor) for a in actors]
    critic_opts = [OPTIMIZERS[hyper.optimizer](c.store, hyper.lr_critic) for c in critics]
    sample_rngs = [rng_stream(seed, TAG_SAMPLE, i) for i in range(n)]
    shuffle_rng = rng_stream(seed, TAG_SHUFFLE)

    metrics, pending = [], []
    for episode in range(hyper.episodes):
        hidden = [a.initial_hidden() for a in actors]
        hours = []

        def act(hour, obs):
            norm_obs = obs.as_matrix() / scales
            actions, presquash = np.empty((n, ACTION_DIM)), np.empty((n, ACTION_DIM))
            logp = np.empty(n)
            for i in range(n):
                dist, hidden[i] = actors[i].distribution(norm_obs[i : i + 1], hidden[i])
                action, u = dist.sample(sample_rngs[i].standard_normal((1, ACTION_DIM)))
                actions[i], presquash[i] = action[0], u[0]
                logp[i] = dist.log_prob(u)[0]
            hours.append((norm_obs, presquash, logp))
            return actions

        series = rollout_day(env, episode_seed(seed, episode), act)
        pending.append((*(np.stack(x) for x in zip(*hours)), series[0] * hyper.reward_scale))
        if len(pending) >= hyper.episodes_per_update or episode == hyper.episodes - 1:
            reference_update(actors, critics, pending, actor_opts, critic_opts, hyper,
                             shuffle_rng)
            pending = []
        metrics.append(episode_metrics(episode, *series))
    return actors, critics, metrics


def reference_update(actors, critics, pending, actor_opts, critic_opts, hyper, shuffle_rng):
    obs, presquash, logp_old, rewards = (np.stack(x) for x in zip(*pending))
    E, T, n = logp_old.shape
    global_obs = obs.reshape(E * T, -1)
    values = np.stack([critic.value(global_obs)[0] for critic in critics], axis=-1)
    values = values.reshape(E, T, n)
    adv = compute_gae(
        rewards.swapaxes(0, 1), values.swapaxes(0, 1), 0.0, hyper.gamma, hyper.lam
    ).swapaxes(0, 1)
    targets = (adv + values).reshape(E * T, n)
    adv, logp_old = adv.reshape(E * T, n), logp_old.reshape(E * T, n)

    total = E * T
    mb = min(hyper.minibatch_size, total)
    for _ in range(hyper.epochs):
        order = shuffle_rng.permutation(total)
        for lo in range(0, total, mb):
            idx = order[lo : lo + mb]
            assert idx.size > 1  # the configs below leave no one-step tail
            for i in range(n):
                means, log_std = actors[i].forward_seq(obs[None, :, :, i])
                logp, entropy = policy_logp_and_entropy(means, log_std, presquash[None, :, :, i])
                loss = actor_loss(
                    logp.reshape(-1)[idx],
                    logp_old[idx, i],
                    normalize_advantages(adv[idx, i]),
                    entropy.reshape(()),
                    hyper.clip_eps,
                    hyper.entropy_coef,
                )
                actor_opts[i].zero_grad()
                loss.backward()
                actor_opts[i].step()

                vloss = critic_loss(critics[i].forward(global_obs[idx]), targets[idx, i])
                critic_opts[i].zero_grad()
                vloss.backward()
                critic_opts[i].step()


class TestFleetLearner:
    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_matches_per_agent_reference(self, n):
        # two update rounds of two episodes; 48 steps cut into 20 + 20 + 8
        config = EnvConfig(fleet=DEFAULT_FLEET[:n])
        hyper = Hyperparams(episodes=4, episodes_per_update=2, epochs=2, minibatch_size=20,
                            lstm_hidden=4, actor_hidden=(8, 8), critic_hidden=(8, 8))
        result = train(config, hyper, seed=5)
        actors, critics, metrics = reference_train(config, hyper, seed=5)
        assert repr(result.metrics) == repr(metrics)
        for fleet, agents in ((result.nets.actor, actors), (result.nets.critic, critics)):
            for k, agent in enumerate(agents):
                for p, q in zip(fleet.params(), agent.params()):
                    assert p.data[k].tobytes() == q.data[0].tobytes()

    def test_every_step_reaches_the_losses(self, monkeypatch):
        # 24 steps in minibatches of 23 leave a one-step tail, which joins the batch before it
        counted = {"actor": 0, "critic": 0}

        def counting(role, loss, arg):
            def wrapped(*args):
                counted[role] += np.size(args[arg])
                return loss(*args)
            return wrapped

        monkeypatch.setattr(train_mod, "actor_loss", counting("actor", actor_loss, 2))
        monkeypatch.setattr(train_mod, "critic_loss", counting("critic", critic_loss, 1))
        config = EnvConfig()
        hyper = Hyperparams(episodes=1, epochs=2, minibatch_size=23, lstm_hidden=4,
                            actor_hidden=(8, 8), critic_hidden=(8, 8))
        train(config, hyper, seed=0)
        steps = config.n_agents * 1 * config.horizon * hyper.epochs
        assert counted == {"actor": steps, "critic": steps}

    @pytest.mark.parametrize("total,size,bounds", [
        (24, 23, [(0, 24)]),
        (25, 12, [(0, 12), (12, 25)]),
        (48, 20, [(0, 20), (20, 40), (40, 48)]),
        (1008, 512, [(0, 512), (512, 1008)]),
        (1, 1, []),
    ])
    def test_minibatch_bounds(self, total, size, bounds):
        assert train_mod._minibatches(total, size) == bounds


def two_sigmoid_lstm_cell(z, c):
    """The LSTM step as three gate slices, each activated on its own: the
    layout `lstm_cell` replaced with one sigmoid over all four gates."""
    H = c.shape[-1]
    act = np.empty_like(z)
    act[..., : 2 * H] = 1.0 / (1.0 + np.exp(-z[..., : 2 * H]))
    act[..., 2 * H : 3 * H] = np.tanh(z[..., 2 * H : 3 * H])
    act[..., 3 * H :] = 1.0 / (1.0 + np.exp(-z[..., 3 * H :]))
    i, f, g, o = act[..., :H], act[..., H : 2 * H], act[..., 2 * H : 3 * H], act[..., 3 * H :]
    c = f * c + i * g
    tanh_c = np.tanh(c)
    return act, c, tanh_c, o * tanh_c


class TestActorOnlyRollout:
    """The rollout's per-day noise and log-probs equal what an hour-by-hour
    rollout computes, and the critics run only in the update, once a round."""

    def test_day_noise_equals_per_hour_draws(self):
        n, T = 3, 24
        for seed in range(20):
            blocks = [rng_stream(seed, TAG_SAMPLE, i) for i in range(n)]
            hourly = [rng_stream(seed, TAG_SAMPLE, i) for i in range(n)]
            for _day in range(3):
                noise = train_mod.day_noise(blocks, T)
                assert noise.shape == (T, n, ACTION_DIM)
                for t in range(T):
                    for k, rng in enumerate(hourly):
                        assert noise[t, k].tobytes() == rng.standard_normal(ACTION_DIM).tobytes()

    def test_day_log_prob_equals_per_hour_rows(self):
        rng = np.random.default_rng(30)
        T, n = 24, 4
        for _ in range(50):
            # some log-stds lie outside the clamp, so the clip is exercised too
            log_std = rng.uniform(LOG_STD_MIN - 1.0, LOG_STD_MAX + 1.0, (n, ACTION_DIM))
            means = rng.normal(size=(T, n, ACTION_DIM))
            u = means + rng.normal(size=(T, n, ACTION_DIM))
            day = DiagGaussian(means, log_std).log_prob(u)
            hours = np.stack([DiagGaussian(means[t], log_std).log_prob(u[t]) for t in range(T)])
            assert day.shape == (T, n)
            assert day.tobytes() == hours.tobytes()

    def test_lstm_cell_equals_two_sigmoid_reference(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n, E, H = rng.integers(1, 5), rng.integers(1, 9), rng.integers(1, 40)
            z = rng.normal(0.0, rng.uniform(0.1, 20.0), (n, E, 4 * H))
            c = rng.normal(size=(n, E, H))
            for got, want in zip(lstm_cell(z, c), two_sigmoid_lstm_cell(z, c)):
                assert got.tobytes() == want.tobytes()

    def test_critic_runs_once_per_round_and_never_during_a_day(self, monkeypatch):
        events = []

        def recorded(name, fn):
            def wrapped(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return wrapped

        def update(*args):
            events.append("update")
            update_agents(*args)
            events.append("updated")

        update_agents = train_mod._update_agents
        monkeypatch.setattr(CriticNet, "value", recorded("value", CriticNet.value))
        monkeypatch.setattr(TradingEnv, "step", recorded("step", TradingEnv.step))
        monkeypatch.setattr(train_mod, "_update_agents", update)
        hyper = Hyperparams(episodes=5, episodes_per_update=2, epochs=1, lstm_hidden=4,
                            actor_hidden=(8, 8), critic_hidden=(8, 8))
        config = EnvConfig()
        train(config, hyper, seed=4)

        rounds = "".join({"step": "s", "value": "v", "update": "(", "updated": ")"}[e]
                         for e in events)
        day = "s" * config.horizon
        assert rounds == (2 * day + "(v)") * 2 + day + "(v)"

"""Learner component tests: GAE, PPO losses, optimizers, networks."""

import math

import numpy as np
import pytest

from gridtrade.errors import NonFiniteInput, ShapeMismatch
from gridtrade.marl.autodiff import Tensor, clip, concat, lstm_seq, relu, sigmoid, tanh
from gridtrade.marl.nets import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    CriticNet,
    DiagGaussian,
    PolicyNet,
    policy_forward,
    squash,
    squash_correction,
)
from gridtrade.marl.ppo import (
    Adam,
    RolloutBuffer,
    actor_loss,
    compute_gae,
    critic_loss,
    gradient_check,
    importance_ratio,
    normalize_advantages,
    policy_logp_and_entropy,
    sgd_update,
)


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


class TestImportanceRatio:
    def test_equal_logps(self):
        assert importance_ratio(0.3, 0.3) == pytest.approx(1.0)

    def test_log_two(self):
        assert importance_ratio(math.log(2.0), 0.0) == pytest.approx(2.0)

    def test_strictly_positive(self):
        rng = np.random.default_rng(0)
        ratios = importance_ratio(rng.normal(size=100), rng.normal(size=100))
        assert (ratios > 0).all()


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


class TestSgdUpdate:
    def test_zero_lr_noop(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        sgd_update([p], [np.array([5.0, 5.0])], 0.0)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_plain_rule(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        sgd_update([p], [np.array([0.5])], 0.1)
        assert p.data[0] == pytest.approx(0.95)

    def test_determinism(self):
        def run():
            p = Tensor(np.array([1.0, -1.0]), requires_grad=True)
            sgd_update([p], [np.array([0.3, 0.7])], 0.01)
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeMismatch):
            sgd_update([p], [np.zeros(2)], 0.1)

    def test_adam_step_descends(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        assert p.data[0] < 1.0


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
        dist = DiagGaussian(mean, log_std)
        _, u = dist.sample(rng)
        rollout_logp = dist.log_prob(u)
        taped_logp, _ = policy_logp_and_entropy(
            Tensor(mean.reshape(1, 3)), Tensor(log_std), u.reshape(1, 3)
        )
        assert rollout_logp == pytest.approx(float(taped_logp.data[0]))

    def test_entropy_closed_form(self):
        log_std = np.array([-0.5, 0.0, 0.3])
        dist = DiagGaussian(np.zeros(3), log_std)
        expected = (0.5 * (1 + math.log(2 * math.pi)) * 3) + log_std.sum()
        assert dist.entropy() == pytest.approx(expected)


class TestPolicyNet:
    def obs(self, rng, T=5, dim=10):
        return rng.normal(size=(T, dim))

    def test_zero_weights_zero_input_box_center(self):
        net = PolicyNet(obs_dim=6, lstm_hidden=4, trunk_hidden=(8, 8))
        for p in net.params():
            p.data = np.zeros_like(p.data)
        dist, _ = policy_forward(net, np.zeros((1, 6)))
        np.testing.assert_allclose(dist.mode(), [0.0, 0.5, 0.5])

    def test_determinism(self):
        rng = np.random.default_rng(0)
        net = PolicyNet(obs_dim=10, lstm_hidden=4, trunk_hidden=(8, 8),
                        rng=np.random.default_rng(1))
        seq = self.obs(rng)
        d1, _ = policy_forward(net, seq)
        d2, _ = policy_forward(net, seq)
        np.testing.assert_array_equal(d1.mean, d2.mean)

    def test_nonfinite_input_rejected(self):
        net = PolicyNet(obs_dim=4, lstm_hidden=4, trunk_hidden=(8, 8))
        bad = np.zeros((2, 4))
        bad[1, 2] = np.nan
        with pytest.raises(NonFiniteInput):
            policy_forward(net, bad)

    def test_taped_and_fast_paths_agree(self):
        rng = np.random.default_rng(2)
        net = PolicyNet(obs_dim=7, lstm_hidden=5, trunk_hidden=(6, 6),
                        rng=np.random.default_rng(3))
        seq = self.obs(rng, T=6, dim=7)
        means, _ = net.forward_seq(seq)
        hidden = net.initial_hidden()
        for t in range(6):
            dist, hidden = net.distribution(seq[t], hidden)
        np.testing.assert_allclose(dist.mean, means.data[-1], atol=1e-12)

    def test_hidden_state_carries_memory(self):
        net = PolicyNet(obs_dim=3, lstm_hidden=4, trunk_hidden=(6, 6),
                        rng=np.random.default_rng(9))
        one = np.ones(3)
        d_fresh, _ = policy_forward(net, one.reshape(1, 3))
        _, hidden = policy_forward(net, np.full((4, 3), -1.0))
        d_after, _ = policy_forward(net, one.reshape(1, 3), hidden)
        assert not np.allclose(d_fresh.mean, d_after.mean)

    def test_critic_batch_equivariance(self):
        net = CriticNet(input_dim=8, hidden=(10, 10), rng=np.random.default_rng(4))
        x = np.random.default_rng(5).normal(size=(6, 8))
        perm = np.array([3, 1, 5, 0, 2, 4])
        np.testing.assert_allclose(net.value(x)[perm], net.value(x[perm]), atol=1e-12)

    def test_per_agent_parameter_isolation(self):
        from gridtrade.env import EnvConfig
        from gridtrade.marl.train import Hyperparams, build_nets

        nets = build_nets(EnvConfig(), Hyperparams(lstm_hidden=4, actor_hidden=(6, 6),
                                                   critic_hidden=(8, 8)), seed=0)
        seen = set()
        for ag in nets:
            for p in ag.actor.params() + ag.critic.params():
                assert id(p) not in seen
                seen.add(id(p))


class TestGradientCheck:
    def test_linear_quadratic_exact(self):
        rng = np.random.default_rng(0)
        W = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = rng.normal(size=(5, 4))

        def loss_fn():
            return ((Tensor(x) @ W) ** 2).sum()

        report = gradient_check([W], loss_fn, tol=1e-6)
        assert report.passed
        assert report.max_rel_error < 1e-7

    def test_policy_and_critic_losses_on_recurrent_net(self):
        rng = np.random.default_rng(1)
        net = PolicyNet(obs_dim=5, lstm_hidden=3, trunk_hidden=(4, 4),
                        rng=np.random.default_rng(2))
        obs = rng.normal(size=(4, 5))
        presquash = rng.normal(size=(4, 3))
        logp_old = rng.normal(size=4)
        adv = rng.normal(size=4)

        def loss_fn():
            means, log_std = net.forward_seq(obs)
            logp, entropy = policy_logp_and_entropy(means, log_std, presquash)
            return actor_loss(logp, logp_old, adv, entropy, 0.2, 0.01)

        report = gradient_check(net.params(), loss_fn, tol=1e-4)
        assert report.passed, f"max rel error {report.max_rel_error}"

    def test_corrupted_gradient_detected(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def broken_double(x):
            # forward doubles, backward claims a factor of three
            return Tensor(x.data * 2.0, _parents=(x,), _backward=lambda g: (3.0 * g,))

        def loss_fn():
            return broken_double(w).sum()

        report = gradient_check([w], loss_fn, tol=1e-4)
        assert not report.passed


def per_step_means(net, episodes):
    """Reference actor forward: one taped LSTM step per episode and hour,
    built from elementwise autodiff primitives."""
    lstm, H = net.lstm, net.lstm.hidden
    hiddens = []
    for seq in episodes:
        h = Tensor(np.zeros((1, H)))
        c = Tensor(np.zeros((1, H)))
        for t in range(seq.shape[0]):
            z = Tensor(seq[t : t + 1]) @ lstm.Wx + h @ lstm.Wh + lstm.b
            i = sigmoid(z[:, 0:H])
            f = sigmoid(z[:, H : 2 * H])
            g = tanh(z[:, 2 * H : 3 * H])
            o = sigmoid(z[:, 3 * H : 4 * H])
            c = f * c + i * g
            h = o * tanh(c)
            hiddens.append(h)
    z = relu(net.fc1(concat(hiddens, axis=0)))
    z = relu(net.fc2(z))
    return net.mean_head(z)


class TestLstmSeq:
    def test_batched_gradient_check(self):
        rng = np.random.default_rng(11)
        E, T, D, H = 3, 4, 5, 3
        x = Tensor(rng.normal(size=(E, T, D)), requires_grad=True)
        Wx = Tensor(rng.normal(0.0, 0.5, (D, 4 * H)), requires_grad=True)
        Wh = Tensor(rng.normal(0.0, 0.5, (H, 4 * H)), requires_grad=True)
        b = Tensor(rng.normal(0.0, 0.5, 4 * H), requires_grad=True)
        weight = rng.normal(size=(E, T, H))

        def loss_fn():
            out = lstm_seq(x, Wx, Wh, b)
            return (out * out * weight).sum()

        report = gradient_check([x, Wx, Wh, b], loss_fn, tol=1e-4)
        assert report.passed, f"max rel error {report.max_rel_error}"

    def test_batched_rows_equal_per_episode_calls(self):
        rng = np.random.default_rng(12)
        net = PolicyNet(obs_dim=7, lstm_hidden=5, trunk_hidden=(6, 6),
                        rng=np.random.default_rng(13))
        episodes = rng.normal(size=(4, 6, 7))
        means, _ = net.forward_seq(episodes)
        assert means.shape == (4, 6, 3)
        for e in range(4):
            single, _ = net.forward_seq(episodes[e])
            np.testing.assert_allclose(means.data[e], single.data, rtol=1e-13, atol=1e-15)

    def test_matches_per_step_reference_at_reference_size(self):
        rng = np.random.default_rng(14)
        E, T, D = 8, 24, 27
        net = PolicyNet(obs_dim=D, lstm_hidden=32, trunk_hidden=(64, 64),
                        log_std_init=-0.7, rng=np.random.default_rng(15))
        obs = rng.normal(size=(E, T, D))
        presquash = rng.normal(size=(E, T, 3))
        logp_old = rng.normal(size=E * T) * 0.1 - 2.0
        idx = rng.permutation(E * T)[:150]
        adv = normalize_advantages(rng.normal(size=idx.size))

        def loss_and_grads(means_fn):
            means = means_fn()
            log_std = clip(net.log_std, LOG_STD_MIN, LOG_STD_MAX)
            logp, entropy = policy_logp_and_entropy(
                means.reshape(E * T, 3), log_std, presquash.reshape(E * T, 3)
            )
            loss = actor_loss(logp[idx], logp_old[idx], adv, entropy, 0.2, 0.003)
            for p in net.params():
                p.grad = None
            loss.backward()
            return float(loss.data), [p.grad.copy() for p in net.params()]

        fused_loss, fused = loss_and_grads(lambda: net.forward_seq(obs)[0])
        ref_loss, ref = loss_and_grads(lambda: per_step_means(net, obs))
        assert fused_loss == pytest.approx(ref_loss, rel=1e-12)
        for got, want in zip(fused, ref):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestRolloutBuffer:
    def test_equal_length_enforced(self):
        buf = RolloutBuffer()
        buf.add(np.zeros(3), np.zeros(6), np.zeros(3), np.zeros(3), 0.0, 1.0, 0.5, False)
        buf.rewards.append(2.0)  # corrupt
        with pytest.raises(ShapeMismatch):
            buf.arrays()

    def test_roundtrip(self):
        buf = RolloutBuffer()
        for t in range(5):
            buf.add(np.full(3, t), np.full(6, t), np.zeros(3), np.zeros(3),
                    -0.1 * t, float(t), 0.0, t == 4)
        data = buf.arrays()
        assert data["obs"].shape == (5, 3)
        assert data["rewards"].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        buf.clear()
        assert len(buf) == 0


class TestEntropyCoefficientDirection:
    def test_larger_coef_never_lowers_entropy_after_one_update(self):
        rng = np.random.default_rng(7)
        obs = rng.normal(size=(6, 5))
        presquash = rng.normal(size=(6, 3))
        logp_old = rng.normal(size=6) * 0.1
        adv = rng.normal(size=6)

        def entropy_after(coef):
            net = PolicyNet(obs_dim=5, lstm_hidden=3, trunk_hidden=(4, 4),
                            rng=np.random.default_rng(8))
            means, log_std = net.forward_seq(obs)
            logp, entropy = policy_logp_and_entropy(means, log_std, presquash)
            loss = actor_loss(logp, logp_old, normalize_advantages(adv),
                              entropy, 0.2, coef)
            for p in net.params():
                p.grad = None
            loss.backward()
            grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
                     for p in net.params()]
            sgd_update(net.params(), grads, 0.01)
            _, log_std_new = net.forward_seq(obs)
            return float(log_std_new.data.sum())

        assert entropy_after(0.5) >= entropy_after(0.0) - 1e-12

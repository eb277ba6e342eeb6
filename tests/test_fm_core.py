import numpy as np
import pytest
import sympy

from flowcond import (
    PathConfig,
    conditional_vector_field,
    on_path_field,
    path_mean_std,
    sample_conditional_path,
)
from flowcond.seqmodel import masked_batch_loss_grad
from flowcond.training import Corpus, draw_batch


def test_path_config_rejects_bad_sigma():
    with pytest.raises(ValueError):
        PathConfig(sigma_min=-0.1)
    with pytest.raises(ValueError):
        PathConfig(sigma_min=1.0)
    PathConfig(sigma_min=0.0)
    PathConfig(sigma_min=0.999)


def draw_times(B, rng):
    """The flow times t of one training batch drawn from a small random corpus."""
    data = np.random.default_rng(0)
    corpus = Corpus(data.standard_normal((4, 3, 5)), data.integers(1, 5, (4, 5)),
                    data.standard_normal((4, 32, 5)), data.uniform(-0.5, 0.5, (4, 2, 5)))
    return draw_batch([corpus], [1.0], B, 0.2, PathConfig(), rng)


def test_sample_time_deterministic_under_fixed_seed():
    a, ua, _ = draw_times(12, np.random.default_rng(123))
    b, ub, _ = draw_times(12, np.random.default_rng(123))
    assert np.array_equal(ua, ub)
    for name, value in vars(a).items():
        assert np.array_equal(value, getattr(b, name)), name


def test_sample_time_uniform_mean():
    rng = np.random.default_rng(7)
    ts = np.concatenate([draw_times(1000, rng)[0].t for _ in range(100)])
    assert abs(ts.mean() - 0.5) < 0.01  # analytic mean of U(0,1)
    assert ts.min() >= 0.0 and ts.max() <= 1.0


def test_path_mean_std_endpoints():
    cfg = PathConfig(sigma_min=0.0)
    assert path_mean_std(0.0, cfg) == (0.0, 1.0)
    assert path_mean_std(1.0, cfg) == (1.0, 0.0)


def test_path_mean_std_hand_value():
    # 1 - (1 - 0.1) * 0.5 = 0.55 by hand
    mean_c, std = path_mean_std(0.5, PathConfig(sigma_min=0.1))
    assert mean_c == 0.5
    assert std == pytest.approx(0.55, abs=1e-12)


def test_path_mean_std_domain():
    cfg = PathConfig()
    with pytest.raises(ValueError):
        path_mean_std(-0.01, cfg)
    with pytest.raises(ValueError):
        path_mean_std(1.01, cfg)


def test_path_endpoint_identities():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((4, 6))
    x1 = rng.standard_normal((4, 6))
    cfg0 = PathConfig(sigma_min=0.0)
    assert np.array_equal(sample_conditional_path(x1, 0.0, x0, cfg0), x0)
    assert np.array_equal(sample_conditional_path(x1, 1.0, x0, cfg0), x1)


def test_path_hand_value():
    cfg = PathConfig(sigma_min=0.1)
    x0 = np.ones((3, 3))
    x1 = np.zeros((3, 3))
    out = sample_conditional_path(x1, 1.0, x0, cfg)
    assert np.allclose(out, 0.1, atol=1e-12)


def test_path_shape_mismatch():
    cfg = PathConfig()
    with pytest.raises(ValueError):
        sample_conditional_path(np.zeros((2, 3)), 0.5, np.zeros((2, 4)), cfg)


def test_field_on_path_constancy():
    # Along the path the target field reduces to x1 - (1 - s)*x0 for all t.
    rng = np.random.default_rng(5)
    cfg = PathConfig(sigma_min=0.05)
    x0 = rng.standard_normal((5, 7))
    x1 = rng.standard_normal((5, 7))
    expected = on_path_field(x0, x1, cfg)
    for t in (0.0, 0.3, 0.7):
        x_t = sample_conditional_path(x1, t, x0, cfg)
        u = conditional_vector_field(x_t, x1, t, cfg)
        assert np.max(np.abs(u - expected)) < 1e-12


def test_field_on_path_symbolic():
    # Symbolic simplification of the same identity.
    x0, x1, t, s = sympy.symbols("x0 x1 t s")
    x_t = t * x1 + (1 - (1 - s) * t) * x0
    u = (x1 - (1 - s) * x_t) / (1 - (1 - s) * t)
    assert sympy.simplify(u - (x1 - (1 - s) * x0)) == 0


def test_field_at_t_zero():
    rng = np.random.default_rng(9)
    cfg = PathConfig(sigma_min=0.2)
    x = rng.standard_normal((2, 4))
    x1 = rng.standard_normal((2, 4))
    u = conditional_vector_field(x, x1, 0.0, cfg)
    assert np.allclose(u, x1 - 0.8 * x, atol=1e-15)


def test_field_singularity():
    cfg = PathConfig(sigma_min=0.0)
    with pytest.raises(ZeroDivisionError):
        conditional_vector_field(np.zeros((2, 2)), np.zeros((2, 2)), 1.0, cfg)


def test_euler_exactness_any_step_count():
    # The trajectory is affine and the field constant along it, so Euler
    # integration is exact for every step count.
    rng = np.random.default_rng(11)
    cfg = PathConfig(sigma_min=1e-5)
    x0 = rng.standard_normal((6, 10))
    x1 = rng.standard_normal((6, 10))
    target = x1 + cfg.sigma_min * x0
    for n in (1, 3, 17, 64):
        x = x0.copy()
        h = 1.0 / n
        for k in range(n):
            x = x + h * conditional_vector_field(x, x1, k * h, cfg)
        assert np.max(np.abs(x - target)) < 1e-10


# The flow-matching regression loss is seqmodel.masked_batch_loss_grad;
# these checks score one example as a batch of 1.


def example_loss(v, u, mask):
    loss, _ = masked_batch_loss_grad(v[None], u[None], np.asarray(mask, dtype=np.float64)[None])
    return loss


def test_cfm_loss_zero_at_perfect_prediction():
    u = np.random.default_rng(1).standard_normal((3, 8))
    assert example_loss(u, u, np.ones(8)) == 0.0


def test_cfm_loss_unit_offset():
    u = np.random.default_rng(2).standard_normal((3, 8))
    assert example_loss(u + 1.0, u, np.ones(8)) == pytest.approx(1.0, abs=1e-12)


def test_cfm_loss_matches_double_loop_oracle():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((4, 9))
    u = rng.standard_normal((4, 9))
    total = 0.0
    for i in range(4):
        for j in range(9):
            total += (v[i, j] - u[i, j]) ** 2
    assert example_loss(v, u, np.ones(9)) == pytest.approx(total / 36, rel=1e-12)


def test_cfm_loss_masked_matches_oracle():
    rng = np.random.default_rng(4)
    v = rng.standard_normal((4, 9))
    u = rng.standard_normal((4, 9))
    mask = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
    total, n = 0.0, 0
    for i in range(4):
        for j in range(9):
            if mask[j]:
                total += (v[i, j] - u[i, j]) ** 2
                n += 1
    assert example_loss(v, u, mask) == pytest.approx(total / n, rel=1e-12)


def test_cfm_loss_empty_mask_rejected():
    v = np.zeros((2, 3))
    with pytest.raises(ValueError):
        example_loss(v, v, np.zeros(3, dtype=np.uint8))


def test_cfm_loss_nonnegative_and_permutation_invariant():
    rng = np.random.default_rng(6)
    ones = np.ones(7)
    for _ in range(20):
        v = rng.standard_normal((3, 7))
        u = rng.standard_normal((3, 7))
        loss = example_loss(v, u, ones)
        assert loss >= 0.0
        perm = rng.permutation(7)
        assert example_loss(v[:, perm], u[:, perm], ones) == pytest.approx(loss, rel=1e-12)
    assert example_loss(v, v, ones) == 0.0


def test_sample_conditional_path_one_time_per_batch_row():
    rng = np.random.default_rng(8)
    cfg = PathConfig(sigma_min=1e-3)
    x1, x0 = rng.standard_normal((2, 4, 5, 6))
    t = rng.uniform(0.0, 1.0, 4)
    x_t = sample_conditional_path(x1, t[:, None, None], x0, cfg)
    for i in range(4):
        assert np.array_equal(x_t[i], sample_conditional_path(x1[i], float(t[i]), x0[i], cfg))
    with pytest.raises(ValueError, match=r"t must be in \[0, 1\]"):
        sample_conditional_path(x1, np.array([0.5, 1.5, 0.0, 1.0])[:, None, None], x0, cfg)

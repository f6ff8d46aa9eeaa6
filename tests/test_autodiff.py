import numpy as np
import pytest

from grf.autodiff import Tensor, dot, elu, elu_prime, sum_all, value_of


def central_diff(f, x, h=1e-6):
    g = np.zeros_like(x)
    flat = x.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f(x)
        flat[i] = old - h
        fm = f(x)
        flat[i] = old
        g.ravel()[i] = (fp - fm) / (2 * h)
    return g


def check_gradient(build, *shapes, seed=0):
    """Compare engine gradients with central differences for each input."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    for idx, (a, t) in enumerate(zip(arrays, tensors)):
        def scalar(x, idx=idx):
            args = [Tensor(v.copy()) for v in arrays]
            args[idx] = Tensor(x.copy())
            return float(value_of(build(*args)))

        fd = central_diff(scalar, a.copy())
        assert np.allclose(t.grad, fd, rtol=1e-5, atol=1e-7), f"input {idx}"


def test_add_mul_values():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[10.0, 20.0], [30.0, 40.0]])
    assert np.array_equal((a + b).data, [[11, 22], [33, 44]])
    assert np.array_equal((a * b).data, [[10, 40], [90, 160]])
    assert np.array_equal((a - b).data, [[-9, -18], [-27, -36]])
    assert np.array_equal((a / 2).data, [[0.5, 1], [1.5, 2]])


def test_matmul_matches_numpy():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
    assert np.allclose((Tensor(a) @ Tensor(b)).data, a @ b)


def test_matmul_rejects_non_2d():
    with pytest.raises(ValueError):
        Tensor(np.zeros(3)) @ Tensor(np.zeros(3))


def test_elu_values():
    x = np.array([-2.0, -1.0, 0.0, 1.0, 3.0])
    assert np.allclose(elu(x), np.where(x >= 0, x, np.exp(x) - 1))
    assert np.allclose(elu_prime(x), np.where(x >= 0, 1.0, np.exp(x)))
    # exact against the branch-select forms, at zeros, subnormals, underflow and NaN
    x = np.array([-2.0, -1e-300, -5e-324, -0.0, 0.0, 5e-324, 1.5, -800.0, np.nan])
    neg = np.minimum(x, 0.0)
    np.testing.assert_array_equal(elu(x), np.where(x >= 0.0, x, np.expm1(neg)))
    np.testing.assert_array_equal(elu_prime(x), np.where(x >= 0.0, 1.0, np.exp(neg)))
    t = Tensor(x, requires_grad=True)
    np.testing.assert_array_equal(t.elu().data, elu(x))
    np.testing.assert_array_equal(t.elu_prime().data, elu_prime(x))


def test_numpy_dispatch_returns_plain_arrays():
    x = np.array([-1.0, 2.0])
    assert isinstance(elu(x), np.ndarray)
    assert isinstance(sum_all(x), float)


def test_gradient_add_mul():
    check_gradient(lambda a, b: ((a + b) * a).sum(), (3, 2), (3, 2))


def test_gradient_broadcast_add():
    check_gradient(lambda a, b: ((a + b) * (a + b)).sum(), (4, 3), (1, 3))


def test_gradient_broadcast_mul():
    check_gradient(lambda a, b: (a * b).sum(), (4, 3), (4, 1))


def test_gradient_matmul():
    check_gradient(lambda a, b: (a @ b).sum(), (3, 4), (4, 2))


def test_gradient_elu_chain():
    check_gradient(lambda a, b: ((a @ b).elu() @ b).sum(), (3, 3), (3, 3), seed=3)


def test_gradient_elu_prime():
    # elu_prime participates in the tape with its own derivative
    check_gradient(lambda a: (a.elu_prime() * a).sum(), (5, 2))


def test_gradient_neg_sub_div():
    check_gradient(lambda a, b: ((-a - b) / 3.0).sum(), (2, 2), (2, 2))


def test_gradient_diamond_reuse():
    # node used twice must accumulate both contributions
    def build(a):
        b = a * 2.0
        return (b * b + b).sum()

    check_gradient(build, (3,))


def test_constants_do_not_track():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = (a @ b).sum()
    assert not out.requires_grad
    assert out._parents == ()


def test_mixed_numpy_tensor_operands():
    rng = np.random.default_rng(5)
    w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    x = rng.standard_normal((3, 3))
    out = (x @ w).sum() + (x * w).sum()
    out.backward()
    assert np.allclose(w.grad, x.T @ np.ones((3, 3)) + x)


def test_backward_requires_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (t * 2).backward()


def test_sum_then_scale():
    t = Tensor(np.full((2, 3), 2.0), requires_grad=True)
    loss = (t * t).sum() / 6.0
    loss.backward()
    assert np.allclose(t.grad, np.full((2, 3), 2 * 2.0 / 6.0))


def test_gradient_reshape():
    # a (3, 4) matrix viewed as (3, 2, 2) and multiplied by a broadcast (3, 1, 2)
    check_gradient(lambda a, b: (a.reshape(3, 2, 2) * b.reshape(3, 1, 2)).sum(), (3, 4), (3, 2))


def test_gradient_dot_with_stacked_columns():
    # (3, 4) . (4, 2, 5) and (4, 2, 5) . (5, 3): the extra axes are extra columns/rows
    check_gradient(lambda a, b: (dot(a, b) * dot(a, b)).sum(), (3, 4), (4, 2, 5))
    check_gradient(lambda a, b: (dot(a, b) * dot(a, b)).sum(), (4, 2, 5), (5, 3))


def test_dot_matches_tensordot():
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2, 5))
    assert np.allclose(dot(a, b), np.tensordot(a, b, 1))
    assert np.allclose(dot(Tensor(a), b).data, np.tensordot(a, b, 1))
    assert np.array_equal(dot(a, b[:, 0, :]), a @ b[:, 0, :])


def test_backward_keeps_leaf_grads_and_frees_interior_grads():
    rng = np.random.default_rng(8)
    w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    unused = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    h = (w @ rng.standard_normal((3, 2))).elu()
    loss = (h * h).sum() + 0.0 * (unused * 1.0).sum()
    loss.backward()
    assert w.grad is not None and w.grad.shape == (3, 3)
    assert unused.grad is not None and np.array_equal(unused.grad, np.zeros((3, 3)))
    assert h.grad is None and loss.grad is None
    # a second backward starts from fresh leaf gradients instead of accumulating
    (w * 2.0).sum().backward()
    assert np.array_equal(w.grad, np.full((3, 3), 2.0))


def test_leaf_grad_is_its_own_array():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 2)), requires_grad=True)
    (a + b).sum().backward()
    a.grad[0, 0] = 5.0
    assert b.grad[0, 0] == 1.0

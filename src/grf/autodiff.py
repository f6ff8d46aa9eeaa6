"""Reverse-mode automatic differentiation over dense float64 arrays.

A small tape engine: every operation records its parent tensors and a
closure that routes the output gradient back to them.  It implements
broadcast arithmetic, a contraction ``dot`` (``np.tensordot(a, b, 1)``,
computed as one 2-D matrix product), numpy's batched ``@``, ``reshape``,
ELU together with its derivative as a first-class op, and a full-sum
reduction, on the numpy kernels of `grf.flow`.

The model no longer runs on it: training has its own reverse passes and
the tests check them with a complex-step derivative.  The module stays
only because the benchmark tracer patches `Tensor` by name.

`backward()` allocates a node's gradient on its first write and drops it
(sets ``.grad`` to None) once the node has passed it on to its parents;
only leaves keep theirs.  Gradients are never updated in place, so
nodes may share gradient arrays.
"""

from __future__ import annotations

import numpy as np

from .flow import _dot, _elu, _elu_prime


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` over the axes numpy broadcasting added or stretched."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Stretched axes are summed with einsum: on a small tangent stack
    # (..., rows, S, width) numpy's sum over the probe axis S is ~2.5x slower.
    dims = "abcdefghijklmnopqrstuvwxyz"[:grad.ndim]
    kept = "".join(c for c, n, m in zip(dims, shape, grad.shape) if n != 1 or m == 1)
    if kept != dims:
        grad = np.einsum(f"{dims}->{kept}", grad)
    return grad.reshape(shape)


class Tensor:
    """Array node in the computation tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    # Make numpy defer binary ops to our reflected operators instead of
    # trying to coerce Tensor into an object array.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph construction helpers ------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    @staticmethod
    def _node(data, parents, backward) -> "Tensor":
        for p in parents:
            if p.requires_grad:
                return Tensor(data, requires_grad=True, _parents=tuple(parents),
                              _backward=backward)
        return Tensor(data)

    def _add_grad(self, g: np.ndarray) -> None:
        g = _unbroadcast(g, self.data.shape)
        if self.grad is None:
            # an interior node may share `g` with its sibling; a leaf owns its gradient
            self.grad = g if self._parents else np.array(g)
        else:
            self.grad = self.grad + g

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = Tensor._lift(other)
        out_parents = (self, other)

        def backward(out):
            if self.requires_grad:
                self._add_grad(out.grad)
            if other.requires_grad:
                other._add_grad(out.grad)

        return Tensor._node(self.data + other.data, out_parents, backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(out):
            if self.requires_grad:
                self._add_grad(-out.grad)

        return Tensor._node(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-Tensor._lift(other))

    def __rsub__(self, other):
        return Tensor._lift(other) + (-self)

    def __mul__(self, other):
        other = Tensor._lift(other)

        def backward(out):
            if self.requires_grad:
                self._add_grad(out.grad * other.data)
            if other.requires_grad:
                other._add_grad(out.grad * self.data)

        return Tensor._node(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return self * (1.0 / float(other))

    def dot(self, other):
        """Contract this tensor's last axis with `other`'s first axis.

        Extra axes on either side ride along as extra rows or columns of
        one 2-D matrix product, so a stack of tangents costs one product.
        """
        other = Tensor._lift(other)
        a, b = self.data, other.data

        def backward(out):
            a2 = a.reshape(-1, a.shape[-1])
            b2 = b.reshape(b.shape[0], -1)
            g2 = out.grad.reshape(a2.shape[0], b2.shape[1])
            if self.requires_grad:
                self._add_grad((g2 @ b2.T).reshape(a.shape))
            if other.requires_grad:
                other._add_grad((a2.T @ g2).reshape(b.shape))

        return Tensor._node(_dot(a, b), (self, other), backward)

    def __matmul__(self, other):
        """numpy's `@`, batched over (and broadcast across) leading axes."""
        other = Tensor._lift(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError("matmul needs operands of at least 2 dimensions")

        def backward(out):
            if self.requires_grad:
                self._add_grad(out.grad @ np.swapaxes(b, -1, -2))
            if other.requires_grad:
                other._add_grad(np.swapaxes(a, -1, -2) @ out.grad)

        return Tensor._node(a @ b, (self, other), backward)

    def __rmatmul__(self, other):
        return Tensor._lift(other) @ self

    def reshape(self, *shape):
        def backward(out):
            if self.requires_grad:
                self._add_grad(out.grad.reshape(self.data.shape))

        return Tensor._node(self.data.reshape(*shape), (self,), backward)

    # -- nonlinearities and reductions ------------------------------------

    def elu(self):
        x = self.data

        def backward(out):
            if self.requires_grad:
                self._add_grad(out.grad * _elu_prime(x))

        return Tensor._node(_elu(x), (self,), backward)

    def elu_prime(self):
        x = self.data
        slope = _elu_prime(x)
        # d/dx elu'(x) = exp(x) = elu'(x) on the negative branch, 0 elsewhere
        second = np.where(x >= 0.0, 0.0, slope)

        def backward(out):
            if self.requires_grad:
                self._add_grad(out.grad * second)

        return Tensor._node(slope, (self,), backward)

    def sum(self):
        def backward(out):
            if self.requires_grad:
                self._add_grad(np.broadcast_to(out.grad, self.data.shape))

        return Tensor._node(self.data.sum(), (self,), backward)

    # -- backward pass ----------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from this scalar node; leaf gradients land in `.grad`.

        A leaf that no gradient reaches keeps `.grad` None; every interior
        node's `.grad` is None afterwards.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node.grad is not None and node._backward is not None:
                node._backward(node)
                node.grad = None

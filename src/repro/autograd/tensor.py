"""Reverse-mode autodiff Tensor over NumPy arrays."""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]


class _GradMode(threading.local):
    """Per-thread switch used by :func:`no_grad`: one thread's inference
    block never turns gradients off (or back on) for another thread."""

    enabled = True


_GRAD_MODE = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode) on the
    calling thread."""
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def _unbroadcast(gradient: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``gradient`` back down to ``shape`` (reverse of NumPy broadcasting)."""
    if gradient.shape == shape:
        return gradient
    # remove leading broadcast dimensions
    while gradient.ndim > len(shape):
        gradient = gradient.sum(axis=0)
    # sum over axes that were size-1 in the original shape
    for axis, size in enumerate(shape):
        if size == 1 and gradient.shape[axis] != 1:
            gradient = gradient.sum(axis=axis, keepdims=True)
    return gradient.reshape(shape)


class Tensor:
    """A NumPy array with reverse-mode gradient tracking.

    Attributes:
        data: The underlying float64 array.
        grad: Accumulated gradient (same shape as ``data``) after backward().
        requires_grad: Whether this tensor participates in autodiff.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 name: str = "") -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad and _GRAD_MODE.enabled
        self._backward: Callable[[], None] = lambda: None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basics

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad_flag})"

    # ------------------------------------------------------------------ #
    # graph helpers

    @staticmethod
    def _wrap(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(self, data: np.ndarray, parents: Tuple["Tensor", ...],
              backward: Callable[["Tensor"], None]) -> "Tensor":
        """Create a result tensor wired into the graph (if grad is enabled)."""
        requires = False
        if _GRAD_MODE.enabled:
            for parent in parents:
                if parent.requires_grad:
                    requires = True
                    break
        output = Tensor(data, requires_grad=requires)
        if requires:
            output._parents = parents

            def _run() -> None:
                backward(output)

            output._backward = _run
        return output

    def _accumulate(self, gradient: np.ndarray) -> None:
        if not self.requires_grad:
            return
        gradient = _unbroadcast(np.asarray(gradient, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = gradient.copy()
        else:
            self.grad += gradient

    # ------------------------------------------------------------------ #
    # arithmetic

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad)
            other._accumulate(out.grad)

        return self._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(out: "Tensor") -> None:
            self._accumulate(-out.grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad)
            other._accumulate(-out.grad)

        return self._make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * other.data)
            other._accumulate(out.grad * self.data)

        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad / other.data)
            other._accumulate(-out.grad * self.data / (other.data ** 2))

        return self._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        return self._make(self.data ** exponent, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad @ other.data.T)
            other._accumulate(self.data.T @ out.grad)

        return self._make(self.data @ other.data, (self, other), backward)

    def matmul(self, other: ArrayLike) -> "Tensor":
        return self @ other

    # ------------------------------------------------------------------ #
    # elementwise functions

    def exp(self) -> "Tensor":
        result = np.exp(self.data)

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * result)

        return self._make(result, (self,), backward)

    def log(self) -> "Tensor":
        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad / self.data)

        return self._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def clip_min(self, minimum: float) -> "Tensor":
        """Elementwise max(x, minimum); gradient flows only where x > minimum."""
        mask = self.data > minimum  # bool; promotes to float64 on multiply

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * mask)

        return self._make(np.maximum(self.data, minimum), (self,), backward)

    def maximum(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        mask = (self.data >= other.data).astype(np.float64)  # float: used in 1.0 - mask

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * mask)
            other._accumulate(out.grad * (1.0 - mask))

        return self._make(np.maximum(self.data, other.data), (self, other), backward)

    # ------------------------------------------------------------------ #
    # reductions and shape ops

    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        def backward(out: "Tensor") -> None:
            gradient = out.grad
            if axis is not None and not keepdims:
                gradient = np.expand_dims(gradient, axis)
            self._accumulate(np.broadcast_to(gradient, self.data.shape))

        return self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]

        def backward(out: "Tensor") -> None:
            gradient = out.grad
            if axis is not None and not keepdims:
                gradient = np.expand_dims(gradient, axis)
            self._accumulate(np.broadcast_to(gradient, self.data.shape) / count)

        return self._make(self.data.mean(axis=axis, keepdims=keepdims), (self,), backward)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        result = self.data.max(axis=axis, keepdims=keepdims)

        def backward(out: "Tensor") -> None:
            gradient = out.grad
            expanded = result
            if axis is not None and not keepdims:
                gradient = np.expand_dims(gradient, axis)
                expanded = np.expand_dims(result, axis)
            mask = (self.data == expanded).astype(np.float64)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate(mask * gradient)

        return self._make(result, (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        original = self.data.shape

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad.reshape(original))

        return self._make(self.data.reshape(*shape), (self,), backward)

    @property
    def T(self) -> "Tensor":
        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad.T)

        return self._make(self.data.T, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        def backward(out: "Tensor") -> None:
            gradient = np.zeros_like(self.data)
            np.add.at(gradient, key, out.grad)
            self._accumulate(gradient)

        return self._make(self.data[key], (self,), backward)

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._wrap(t) for t in tensors]
        sizes = [t.data.shape[axis] for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)

        def backward(out: "Tensor") -> None:
            start = 0
            for tensor, size in zip(tensors, sizes):
                index = [slice(None)] * out.grad.ndim
                index[axis] = slice(start, start + size)
                tensor._accumulate(out.grad[tuple(index)])
                start += size

        requires = _GRAD_MODE.enabled and any(t.requires_grad for t in tensors)
        output = Tensor(data, requires_grad=requires)
        if requires:
            output._parents = tuple(tensors)
            output._backward = lambda: backward(output)
        return output

    # ------------------------------------------------------------------ #
    # backward

    def backward(self, gradient: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if gradient is None:
            if self.data.size != 1:
                raise RuntimeError("gradient must be provided for non-scalar outputs")
            gradient = np.ones_like(self.data)
        self.grad = np.asarray(gradient, dtype=np.float64).reshape(self.data.shape)

        # topological order of the graph above this node
        order: List[Tensor] = []
        visited: Set[int] = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        for node in reversed(order):
            if node.grad is not None:
                node._backward()

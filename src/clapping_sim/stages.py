"""Stage operators and their analytic vector-Jacobian products.

A model is a chain of stages y_e = a_e(y_{e-1}, w_e) ending in a scalar
loss head. Each stage kind provides a forward map plus the two adjoint
products needed by backpropagation: the input adjoint J_y^T v and the
weight adjoint J_w^T v. All math is float64. Every stage function
treats a vector of shape (d,) as a one-row batch of shape (B, d): the
batch axis is carried through unchanged, and a weight adjoint sums over
the rows. A parametric stage's parameters are its matrix W, row-major
(``matrix_rows`` x ``input_dim``), then its bias b if it has one.

Stage kinds:

  linear          y = W x, optionally appending ||w||^2 as a trailing
                  output element (extra flag ``append_sq_norm``), which
                  lets a downstream regularized loss head stay stateless
  affine_bias     y = W x + b
  tanh, relu      elementwise, no parameters (relu subgradient at 0 is 0)
  logistic_loss   scalar z -> log(1 + exp(z))
  regularized_logistic_loss
                  (z, s) -> log(1 + exp(z)) + c_r * s, where s carries a
                  squared parameter norm produced upstream

A forward pass keeps a tape of what each stage's backward reads: its
input, or, for tanh and relu (``saves_output``), its output, so their
input is dropped once they have run. ``pull_back`` is the backward loop.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import halves
from .errors import ConfigurationError, ContractViolation

LINEAR = "linear"
AFFINE_BIAS = "affine_bias"
TANH = "tanh"
RELU = "relu"
LOGISTIC_LOSS = "logistic_loss"
REG_LOGISTIC_LOSS = "regularized_logistic_loss"

STAGE_KINDS = (LINEAR, AFFINE_BIAS, TANH, RELU, LOGISTIC_LOSS, REG_LOGISTIC_LOSS)
LOSS_HEADS = (LOGISTIC_LOSS, REG_LOGISTIC_LOSS)
_EXTRA_KEY = {LINEAR: "append_sq_norm", REG_LOGISTIC_LOSS: "c_r"}  # the one extra a kind reads


@dataclass(frozen=True)
class StageSpec:
    """One operator in the chain. ``extra`` holds kind-specific constants
    (``c_r`` for the regularized head, ``append_sq_norm`` for linear).
    Built specs also carry ``append_sq_norm``, ``c_r``, ``matrix_rows``
    (weight-matrix rows of a parametric kind), ``param_dim`` and ``saves_output``."""

    kind: str
    input_dim: int
    output_dim: int
    extra: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in STAGE_KINDS:
            raise ConfigurationError(f"unknown stage kind {self.kind!r}")
        if not isinstance(self.extra, Mapping):
            raise ConfigurationError(f"{self.kind} stage: extra must be a mapping, "
                                     f"got {self.extra!r}")
        if self.input_dim < 1 or self.output_dim < 1:
            raise ConfigurationError("stage dims must be positive")
        if self.kind in (TANH, RELU) and self.input_dim != self.output_dim:
            raise ConfigurationError(f"{self.kind} stage must preserve dimension")
        if self.kind in LOSS_HEADS and self.output_dim != 1:
            raise ConfigurationError("loss heads must have output_dim 1")
        if self.kind == LOGISTIC_LOSS and self.input_dim != 1:
            raise ConfigurationError("logistic_loss takes a single scalar input")
        if self.kind == REG_LOGISTIC_LOSS:
            if self.input_dim != 2:
                raise ConfigurationError(
                    "regularized_logistic_loss takes (value, squared_norm) inputs"
                )
            if "c_r" not in self.extra:
                raise ConfigurationError("regularized_logistic_loss needs extra['c_r']")
        unread = set(self.extra) - {_EXTRA_KEY.get(self.kind)}
        if unread:
            raise ConfigurationError(f"{self.kind} stage does not read extra "
                                     f"{', '.join(sorted(map(repr, unread)))}")
        sq_norm = self.extra.get("append_sq_norm", False)
        if not isinstance(sq_norm, (bool, np.bool_)):
            raise ConfigurationError(f"linear append_sq_norm must be a bool, got {sq_norm!r}")
        c_r = self.extra.get("c_r", 0.0)
        if (isinstance(c_r, bool) or not isinstance(c_r, (int, float, np.integer, np.floating))
                or not 0 <= c_r <= sys.float_info.max):  # refuses NaN too
            raise ConfigurationError(f"regularized_logistic_loss c_r must be a finite real "
                                     f">= 0, got {c_r!r}")
        # what each call reads, fixed once (the spec is frozen)
        rows = self.output_dim - 1 if sq_norm else self.output_dim
        param_dim = {LINEAR: rows * self.input_dim,
                     AFFINE_BIAS: (self.input_dim + 1) * self.output_dim}.get(self.kind, 0)
        object.__setattr__(self, "append_sq_norm", bool(sq_norm))
        object.__setattr__(self, "matrix_rows", rows)
        object.__setattr__(self, "param_dim", param_dim)
        object.__setattr__(self, "c_r", float(c_r) if self.kind == REG_LOGISTIC_LOSS else None)
        object.__setattr__(self, "saves_output", self.kind in (TANH, RELU))


_F64 = np.dtype(np.float64)


def _float64(name: str, x) -> np.ndarray:
    try:
        if not np.iscomplexobj(x):  # casting a complex one would drop its imaginary part
            return np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError):
        raise ContractViolation(f"{name}: expected numbers, got {type(x).__name__}") from None
    raise ContractViolation(f"{name}: expected real numbers, got complex {type(x).__name__}")


def _check_vec(name: str, x: np.ndarray, dim: int) -> np.ndarray:
    if type(x) is np.ndarray and x.dtype is _F64 and x.ndim in (1, 2) and x.shape[-1] == dim:
        return x  # already what the conversion below would return
    x = _float64(name, x)
    if x.ndim not in (1, 2) or x.shape[-1] != dim:
        raise ContractViolation(f"{name}: expected trailing dim {dim}, got shape {x.shape}")
    return x


def _check_tape(name: str, stage: StageSpec, y: np.ndarray, v_out: np.ndarray):
    """A backward call's tape entry and v_out, checked against the stage and each other."""
    y = _check_vec(name, y, stage.input_dim)
    v = _check_vec("v_out", v_out, stage.output_dim)
    if y.shape[:-1] != v.shape[:-1]:
        raise ContractViolation(f"{name} {y.shape} and v_out {v.shape} differ in rows")
    return y, v


def _check_params(x: np.ndarray, dim: int) -> np.ndarray:
    if type(x) is np.ndarray and x.dtype is _F64 and x.shape == (dim,):
        return x
    x = _float64("w", x)
    if x.ndim != 1 or x.shape[0] != dim:
        raise ContractViolation(f"w: expected {dim} parameters, got shape {x.shape}")
    return x


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so no exp
    overflows. minimum(z, -z) is -|z| that keeps a NaN's sign bit."""
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _matrix(stage: StageSpec, w: np.ndarray) -> np.ndarray:
    """W: a (matrix_rows, input_dim) view of the first entries of ``w``."""
    return w[: stage.matrix_rows * stage.input_dim].reshape(stage.matrix_rows, stage.input_dim)


_SPLIT_MACS = 1 << 22  # multiply-adds above which _matmul may run as two halves


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.matmul(a, b, out=out)``. A 2-D product of more than _SPLIT_MACS
    multiply-adds runs as two halves of its longer output side at once, one
    on the helper thread, if ``halves.helper()`` gives one. Each output
    element is the same BLAS dot product either way, so the bits match one
    call."""
    if a.size * b.shape[1] <= _SPLIT_MACS or a.ndim != 2 or (jobs := halves.helper()) is None:
        return a @ b if out is None else np.matmul(a, b, out=out)
    m, n = a.shape[0], b.shape[1]
    out = np.empty((m, n), np.result_type(a, b)) if out is None else out
    h = max(m, n) // 2
    mine, theirs = (((a[:h], b, out[:h]), (a[h:], b, out[h:])) if m >= n else
                    ((a, b[:, :h], out[:, :h]), (a, b[:, h:], out[:, h:])))
    halves.run(jobs, np.matmul, mine, theirs, whole=(a, b, out))
    return out


def stage_forward(stage: StageSpec, y_in: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Apply a_e(y_in, w). Pure; returns an array of trailing dim output_dim."""
    y = _check_vec("y_in", y_in, stage.input_dim)
    w = _check_params(w, stage.param_dim)
    if stage.kind in (LINEAR, AFFINE_BIAS):  # param_dim is 0 for a linear stage of no rows
        if stage.append_sq_norm:
            out = np.empty(y.shape[:-1] + (stage.output_dim,))  # the rows, then ||w||^2
            _matmul(y, _matrix(stage, w).T, out=out[..., :-1])
            out[..., -1] = w @ w
            return out
        out = _matmul(y, _matrix(stage, w).T)
        if stage.kind == AFFINE_BIAS:
            out += w[stage.matrix_rows * stage.input_dim :]
        return out
    if stage.kind == TANH:
        return np.tanh(y)
    if stage.kind == RELU:
        return np.maximum(y, 0.0)
    if stage.kind == LOGISTIC_LOSS:
        return np.logaddexp(0.0, y[..., :1])  # softplus
    # regularized_logistic_loss
    return np.logaddexp(0.0, y[..., :1]) + stage.c_r * y[..., 1:2]


def stage_backward_input(
    stage: StageSpec, saved: np.ndarray, w: np.ndarray, v_out: np.ndarray
) -> np.ndarray:
    """Adjoint with respect to the input: J_y(a_e)^T v_out. ``saved`` is
    the stage's tape entry: its input, or its output where
    ``stage.saves_output`` is set (tanh and relu)."""
    y, v = _check_tape("saved", stage, saved, v_out)
    w = _check_params(w, stage.param_dim)
    if stage.kind in (LINEAR, AFFINE_BIAS):  # an ||w||^2 output does not depend on y
        return _matmul(v[..., : stage.matrix_rows], _matrix(stage, w))
    if stage.kind == TANH:  # v * (1 - tanh^2), in one temporary
        d = np.square(y)
        np.subtract(1.0, d, out=d)
        return np.multiply(v, d, out=d)
    if stage.kind == RELU:  # max(y, 0) > 0 exactly when y > 0
        return v * (y > 0.0)
    if stage.kind == LOGISTIC_LOSS:
        return _sigmoid(y[..., :1]) * v
    grad_z = _sigmoid(y[..., :1]) * v
    out = np.empty(grad_z.shape[:-1] + (2,))  # regularized head: (grad_z, c_r v)
    out[..., :1] = grad_z
    np.multiply(v, stage.c_r, out=out[..., 1:])
    return out


def stage_backward_weight(
    stage: StageSpec, y_in: np.ndarray, w: np.ndarray, v_out: np.ndarray,
    out: np.ndarray | None = None, defer: bool = False,
) -> np.ndarray:
    """Adjoint with respect to the parameters: J_w(a_e)^T v_out, summed
    over the rows (callers average by batch size). With ``out`` (a
    contiguous float64 vector of ``param_dim`` entries) the result is
    written there and ``out`` is returned.

    With ``defer``, the arguments are checked here and the whole numeric
    body, product and bias or norm term, goes to ``halves.defer`` as one
    job: ``out`` holds the result once ``halves.wait()`` returns, and until
    then the caller must not write ``y_in``, ``w``, ``v_out`` or ``out``,
    nor read ``out``. The job runs unsplit, so the bits are those of one
    call."""
    y, v = _check_tape("y_in", stage, y_in, v_out)
    w = _check_params(w, stage.param_dim)
    out = np.empty(stage.param_dim) if out is None else out
    if stage.param_dim == 0:
        return out
    if defer:  # the checked arrays; the job is this call without defer
        halves.defer(_stage_backward_weight, stage, y, w, v, out)
        return out
    if y.ndim == 1:  # a one-row batch
        y, v = y[None], v[None]
    rows = stage.matrix_rows
    _matmul(v[:, :rows].T, y, out=_matrix(stage, out))  # sum over rows of outer(v, y)
    if stage.append_sq_norm:
        out += 2.0 * float(v[:, rows].sum()) * w
    elif stage.kind == AFFINE_BIAS:
        v.sum(axis=0, out=out[rows * stage.input_dim :])
    return out


_stage_backward_weight = stage_backward_weight  # what a deferred job runs, never a wrapper


@dataclass(frozen=True)
class ModelChain:
    """Ordered stages plus the cut points that place them on workers.

    ``boundaries`` are strictly increasing stage indices; worker e owns
    stages[boundaries[e-1]:boundaries[e]] with implicit 0 and len(stages)
    at the ends. The final stage must emit a scalar.
    """

    stages: tuple[StageSpec, ...]
    boundaries: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.stages:
            raise ConfigurationError("chain needs at least one stage")
        for a, b in zip(self.stages, self.stages[1:]):
            if a.output_dim != b.input_dim:
                raise ConfigurationError(
                    f"adjacent stage dims mismatch: {a.output_dim} -> {b.input_dim}"
                )
        if self.stages[-1].output_dim != 1:
            raise ConfigurationError("final stage must produce a scalar loss")
        cuts = tuple(self.boundaries)
        if any(b <= 0 or b >= len(self.stages) for b in cuts):
            raise ConfigurationError("boundaries must cut strictly inside the stage list")
        if any(b >= c for b, c in zip(cuts, cuts[1:])):
            raise ConfigurationError("boundaries must be strictly increasing")

    @property
    def num_workers(self) -> int:
        return len(self.boundaries) + 1

    @property
    def input_dim(self) -> int:
        return self.stages[0].input_dim

    def worker_stages(self, e: int) -> tuple[StageSpec, ...]:
        """Stages owned by worker e (1-based)."""
        cuts = (0,) + tuple(self.boundaries) + (len(self.stages),)
        return self.stages[cuts[e - 1] : cuts[e]]

    def worker_param_dim(self, e: int) -> int:
        return sum(s.param_dim for s in self.worker_stages(e))

    def boundary_dim(self, i: int) -> int:
        """Activation dimension crossing boundary i (0-based, between
        worker i+1 and worker i+2)."""
        return self.stages[self.boundaries[i] - 1].output_dim

    def split_params(self, stages: tuple[StageSpec, ...], w: np.ndarray) -> list[np.ndarray]:
        parts, at = [], 0
        for s in stages:
            parts.append(np.asarray(w[at : at + s.param_dim], dtype=np.float64))
            at += s.param_dim
        if at != len(w):
            raise ContractViolation(f"parameter vector length {len(w)} != expected {at}")
        return parts


def run_stages(
    stages: tuple[StageSpec, ...], x: np.ndarray, params: list[np.ndarray]
) -> list[np.ndarray]:
    """Apply stages in order; returns the tape, one entry per stage, then
    the last output. A ``saves_output`` stage's entry is the array of the
    entry after it, and its input is no longer held."""
    tape = [x]
    for stage, w in zip(stages, params):
        y = stage_forward(stage, tape[-1], w)
        if stage.saves_output:
            tape[-1] = y
        tape.append(y)
    return tape


def pull_back(stages: tuple[StageSpec, ...], tape: list[np.ndarray], params: list[np.ndarray],
              v: np.ndarray, grads: list | None = None, to_input: bool = True,
              defer: bool = False):
    """Pull ``v``, the adjoint of the last stage's output, back through
    ``stages``, popping each one's entry of ``tape`` (a ``run_stages`` tape
    without its last output) once it is done. Given ``grads``, weight
    adjoints go into ``grads[idx]``, allocated where it is None; with
    ``defer``, as deferred jobs (``stage_backward_weight``), while the
    input adjoints run here. Returns the first stage's input adjoint, or
    None without ``to_input``."""
    for idx in reversed(range(len(stages))):
        stage, w, saved = stages[idx], params[idx], tape.pop()
        if grads is not None and stage.param_dim:
            grads[idx] = stage_backward_weight(stage, saved, w, v, out=grads[idx], defer=defer)
        if idx or to_input:
            v = stage_backward_input(stage, saved, w, v)
    return v if to_input else None


def chain_forward(chain: ModelChain, x: np.ndarray, w_all: list[np.ndarray]) -> list[np.ndarray]:
    """Run every stage; returns the tape of ``run_stages``."""
    if len(w_all) != len(chain.stages):
        raise ContractViolation("need one parameter vector per stage")
    return run_stages(chain.stages, _float64("x", x), w_all)


def chain_loss(chain: ModelChain, x: np.ndarray, w_all: list[np.ndarray]) -> float:
    """Scalar loss of the composed chain; batch inputs are averaged."""
    return float(np.mean(chain_forward(chain, x, w_all)[-1]))


def logistic_chain(dim: int, c_r: float) -> ModelChain:
    """Two-worker chain for regularized logistic regression: a margin
    stage that also emits its squared parameter norm, then the
    regularized loss head. Inputs are rows of (-label * features, -label)
    so the first stage's weights are (w, b)."""
    margin = StageSpec(LINEAR, dim + 1, 2, {"append_sq_norm": True})
    head = StageSpec(REG_LOGISTIC_LOSS, 2, 1, {"c_r": c_r})
    return ModelChain((margin, head), boundaries=(1,))


def tanh_mlp_chain(dims: tuple[int, ...], boundaries: tuple[int, ...]) -> ModelChain:
    """Small MLP: affine+tanh blocks over ``dims`` then a logistic head.
    ``boundaries`` index the flattened stage list."""
    stage_list: list[StageSpec] = []
    for a, b in zip(dims, dims[1:]):
        stage_list.append(StageSpec(AFFINE_BIAS, a, b))
        stage_list.append(StageSpec(TANH, b, b))
    stage_list.append(StageSpec(AFFINE_BIAS, dims[-1], 1))
    stage_list.append(StageSpec(LOGISTIC_LOSS, 1, 1))
    return ModelChain(tuple(stage_list), boundaries=boundaries)


def chain_gradients(
    chain: ModelChain, x: np.ndarray, w_all: list[np.ndarray]
) -> tuple[float, list[np.ndarray]]:
    """Full backpropagation through the chain.

    Returns (loss, weight gradient per stage). The terminal activation
    gradient is seeded with 1; for batch inputs gradients are averaged
    over the batch. Activation gradients are not kept: each is dropped
    once the next one down is formed, each tape entry once its stage's
    backward has run, and the gradient with respect to the chain input is
    not computed.
    """
    tape = chain_forward(chain, x, w_all)
    scale = 1.0 / tape[0].shape[0] if tape[0].ndim == 2 else 1.0
    loss = float(np.mean(tape[-1]))
    v = np.ones_like(tape.pop())
    grads = [None if s.param_dim else np.zeros(0) for s in chain.stages]
    pull_back(chain.stages, tape, w_all, v, grads, to_input=False)
    for g in grads:
        g *= scale
    return loss, grads

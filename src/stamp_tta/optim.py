"""Optimization pieces: cosine step decay, SGD, and sharpness-aware steps.

Each function takes plain values (a base rate, a horizon, a step count, a
radius), the ones MethodConfig holds, and checks their ranges itself. The
SGD and SAM steps work on a list of parameter arrays plus a gradient oracle
that returns gradients in the same order, so the same code path serves both
the network (via diffnet.grad) and the scalar hand-trace checks. The
perturbation radius is applied along the joint L2 direction of the first
gradient across every adaptable tensor; radius 0 is the plain gradient step.
The model updates write each candidate into the model's own arrays, in
place.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import diffnet
from .errors import ConfigError, NumericalError

# below this joint norm of the first gradient the SAM step skips its perturbation
SAM_NORM_FLOOR = 1e-12


def cosine_lr(base_lr, horizon, step_count):
    """Half-cosine decay from base_lr (alpha_0) to 0 across horizon (T) steps, then 0.

    lr(t) = base_lr / 2 * (1 + cos(pi * min(t, T) / T)) at step_count t; the
    min clamp holds the rate at exactly 0 once t >= T.
    """
    if base_lr <= 0:
        raise ConfigError("base_lr must be positive")
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    if step_count < 0:
        raise ConfigError("step_count must be >= 0")
    t = min(step_count, horizon)
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * t / horizon))


def _check_grads(grads, where):
    for k, g in enumerate(grads):
        if not np.all(np.isfinite(np.asarray(g))):
            raise NumericalError(f"non-finite gradient {k} during {where}")


def sgd_step(params, grad_fn, lr):
    """One plain gradient step. grad_fn maps a param list to (loss, grads).

    Returns (new params, loss at the starting point). Inputs are not mutated.
    """
    loss, grads = grad_fn(params)
    _check_grads(grads, "sgd step")
    return [p - lr * g for p, g in zip(params, grads)], loss


def sam_step(params, grad_fn, rho, lr):
    """One sharpness-aware step: ascend to the worst nearby point, step from there.

    First gradient g1 defines the perturbation eps = rho * g1 / ||g1||_2 with
    the norm taken jointly over all tensors, summed tensor by tensor in list
    order. The loss is re-evaluated at params + eps and that second gradient
    g2 drives the descent from the unperturbed parameters. With rho 0, or
    ||g1|| at or below SAM_NORM_FLOOR, the perturbation is skipped and g1 is
    applied directly: the plain gradient step, from one evaluation.
    """
    if rho < 0:
        raise ConfigError("method.rho must be >= 0")
    loss, g1 = grad_fn(params)
    _check_grads(g1, "sam ascent")
    sq = 0.0
    for g in g1:
        sq += float(np.sum(np.square(g)))
    norm = math.sqrt(sq)
    if rho == 0 or norm <= SAM_NORM_FLOOR:
        return [p - lr * g for p, g in zip(params, g1)], loss
    scale = rho / norm
    perturbed = [p + scale * g for p, g in zip(params, g1)]
    _, g2 = grad_fn(perturbed)
    _check_grads(g2, "sam descent")
    return [p - lr * g for p, g in zip(params, g2)], loss


def _update_in_place(model, step, inputs, mode, logit_loss, update_stats):
    """Run step(params, grad_fn) from a copy of the adaptable parameters.

    The gradient oracle writes each candidate into the model's own arrays
    before evaluating it, and the step's result is written there last.
    Running statistics, when requested, are folded in on the first evaluation
    only; the SAM re-evaluation at the perturbed point must not double-count
    the batch. Returns the loss at the starting point.
    """

    def grad_fn(candidate):
        nonlocal update_stats
        diffnet.set_params(model, candidate)
        value, grads = diffnet.grad(
            model, inputs, mode, logit_loss, wrt="adaptable", update_stats=update_stats
        )
        update_stats = False
        return value, grads

    start = [p.copy() for p in diffnet.params(model, "adaptable")]
    new_params, loss = step(start, grad_fn)
    diffnet.set_params(model, new_params)
    return loss


def sgd_update(model, inputs, mode, logit_loss, lr, update_stats=False):
    """In-place SGD step on the model's adaptable parameters; returns the loss."""
    step = functools.partial(sgd_step, lr=lr)
    return _update_in_place(model, step, inputs, mode, logit_loss, update_stats)


def sam_update(model, inputs, mode, logit_loss, rho, lr, update_stats=False):
    """In-place sharpness-aware step on the adaptable parameters; returns the loss."""
    step = functools.partial(sam_step, rho=rho, lr=lr)
    return _update_in_place(model, step, inputs, mode, logit_loss, update_stats)

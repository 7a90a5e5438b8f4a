"""Internal neural substrate: a dueling MLP with explicit forward/backward.

The topology is small and fixed (trunk 16->128->64, value head 64->32->1,
advantage head 64->32->3 by default), so the network is implemented
directly on numpy arrays with an adaptive-moment optimizer rather than
pulling in an ML framework.  All parameters live in one contiguous float64
vector; the per-layer weights and biases are reshaped views into it.

Transitions live in ``Replay``: one ring per agent in one block.  A batch
from several rings is drawn by ``pooled_choice``, which makes one generator
call and gives the rows and generator state of one ``Generator.choice``
call per ring.
"""

from __future__ import annotations

import copy
import mmap
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AgentHyperparams:
    learning_rate: float = 5e-4
    tabular_learning_rate: float = 0.1
    discount: float = 0.99
    eps_start: float = 1.0
    eps_min: float = 0.05
    eps_decay: float | None = None  # per-episode factor; derived from episode count when None
    buffer_capacity: int = 10_000
    batch_size: int = 64
    hidden_sizes: tuple = (128, 64)
    head_hidden: int = 32
    target_sync_every: int = 100
    marl_sync_every: int = 10
    td_clip: float = 10.0
    # deep agents regress on scaled rewards so Q magnitudes stay inside the
    # clip regime; the environment reward itself is untouched
    reward_scale: float = 0.01

    def __post_init__(self):
        if not (0.0 < self.discount <= 1.0):
            raise ValueError("discount must lie in (0, 1]")
        if not (0.0 <= self.eps_min <= self.eps_start <= 1.0):
            raise ValueError("need 0 <= eps_min <= eps_start <= 1")
        if self.eps_decay is not None and not (0.0 <= self.eps_decay <= 1.0):
            raise ValueError(f"eps_decay must lie in [0, 1], got {self.eps_decay}")
        if not (1 <= self.batch_size <= self.buffer_capacity):
            raise ValueError("batch_size must lie in [1, buffer_capacity]")
        if self.target_sync_every < 1 or self.marl_sync_every < 1:
            raise ValueError("target_sync_every and marl_sync_every must be >= 1")
        if min((*self.hidden_sizes, self.head_hidden)) < 1:
            raise ValueError("hidden_sizes and head_hidden must be >= 1")
        for name in ("learning_rate", "tabular_learning_rate", "td_clip", "reward_scale"):
            if not (0.0 < getattr(self, name) < np.inf):
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")

    def episode_eps_decay(self, episodes: int) -> float:
        """Factor so epsilon reaches eps_min at 80% of the episode budget."""
        if self.eps_decay is not None:
            return self.eps_decay
        horizon = max(1, int(round(0.8 * episodes)))
        return (self.eps_min / self.eps_start) ** (1.0 / horizon)


def glorot_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def layout_views(vec: np.ndarray, layout) -> list[np.ndarray]:
    """Reshaped views into ``vec``, one per (name, shape) entry, in order."""
    views, start = [], 0
    for _, shape in layout:
        size = int(np.prod(shape))
        views.append(vec[start : start + size].reshape(shape))
        start += size
    return views


class DuelingNetwork:
    """Q(s, a) = V(s) + A(s, a) - mean_a' A(s, a'), with ReLU activations.

    ``layout`` lists each parameter's name and shape in checkpoint order;
    ``flat`` holds them all back to back and ``grad`` is the matching
    gradient buffer that ``backward`` fills (``None`` on a clone).  Forward
    and backward write their activations and partial gradients into scratch
    buffers kept per batch shape.
    """

    def __init__(
        self,
        input_dim: int = 16,
        hidden_sizes: tuple = (128, 64),
        head_hidden: int = 32,
        n_actions: int = 3,
        rng: np.random.Generator | None = None,
    ):
        if rng is None:
            rng = np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_sizes = tuple(hidden_sizes)
        self.head_hidden = head_hidden
        self.n_actions = n_actions

        dims = (input_dim,) + self.hidden_sizes
        self.layout = []
        for i in range(len(self.hidden_sizes)):
            self.layout += [(f"trunk_w{i}", (dims[i], dims[i + 1])), (f"trunk_b{i}", (dims[i + 1],))]
        for head, out_dim in (("value", 1), ("adv", n_actions)):
            self.layout += [
                (f"{head}_w0", (dims[-1], head_hidden)),
                (f"{head}_b0", (head_hidden,)),
                (f"{head}_w1", (head_hidden, out_dim)),
                (f"{head}_b1", (out_dim,)),
            ]
        size = sum(int(np.prod(shape)) for _, shape in self.layout)
        self._buffers: dict[tuple, np.ndarray] = {}
        self._bind(np.zeros(size))
        for p in layout_views(self.flat, self.layout):
            if p.ndim == 2:  # weights drawn in layout order; biases stay zero
                p[...] = glorot_uniform(*p.shape, rng)
        self.grad = np.zeros(size)
        grads = layout_views(self.grad, self.layout)
        n = 2 * len(self.hidden_sizes)
        self._grad_trunk = list(zip(grads[0:n:2], grads[1:n:2]))
        self._grad_value = grads[n : n + 4]
        self._grad_adv = grads[n + 4 :]

    def _bind(self, flat: np.ndarray) -> None:
        """Adopt ``flat`` as the parameter vector and name its per-layer views."""
        self.flat = flat
        params = layout_views(flat, self.layout)
        n = 2 * len(self.hidden_sizes)
        self.trunk_w, self.trunk_b = params[0:n:2], params[1:n:2]
        self.vw0, self.vb0, self.vw1, self.vb1, self.aw0, self.ab0, self.aw1, self.ab1 = params[n:]

    def topology(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden_sizes": list(self.hidden_sizes),
            "head_hidden": self.head_hidden,
            "n_actions": self.n_actions,
        }

    def copy_from(self, other: "DuelingNetwork") -> None:
        np.copyto(self.flat, other.flat)

    def clone(self) -> "DuelingNetwork":
        """A copy of the parameters for forward passes only (target and acting
        networks): it draws no weights and has no gradient buffer."""
        twin = copy.copy(self)  # topology and layout; the parameters are rebound below
        twin._bind(self.flat.copy())
        twin._buffers = {}
        twin.grad = twin._grad_trunk = twin._grad_value = twin._grad_adv = None
        return twin

    def _scratch(self, name, shape: tuple, dtype=float) -> np.ndarray:
        """The buffer ``name`` of ``shape``, made on first use and reused after."""
        buf = self._buffers.get((name, shape))
        if buf is None:
            buf = self._buffers[(name, shape)] = np.empty(shape, dtype)
        return buf

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batch of states -> batch of Q rows, a fresh array. Raises on non-finite output."""
        q, _ = self.forward_cached(x[None, :] if x.ndim == 1 else x)
        return q[0] if x.ndim == 1 else q

    def forward_cached(self, x: np.ndarray):
        """Q rows for the batch ``x`` (a fresh array) and the activations ``backward`` reads: this
        network's scratch for ``len(x)`` rows, which the next pass over as many rows overwrites."""
        rows = len(x)
        trunk = [self._scratch(i, (rows, width)) for i, width in enumerate(self.hidden_sizes)]
        h = x
        for w, b, out in zip(self.trunk_w, self.trunk_b, trunk):
            h = _affine(h, w, b, out, relu=True)
        vh = _affine(h, self.vw0, self.vb0, self._scratch("vh", (rows, self.head_hidden)), relu=True)
        v = _affine(vh, self.vw1, self.vb1, self._scratch("v", (rows, 1)), relu=False)
        ah = _affine(h, self.aw0, self.ab0, self._scratch("ah", (rows, self.head_hidden)), relu=True)
        a = _affine(ah, self.aw1, self.ab1, self._scratch("a", (rows, self.n_actions)), relu=False)
        # numpy's mean is this sum divided by the count
        q = v + a
        q -= np.add.reduce(a, axis=1, keepdims=True) / self.n_actions
        if not np.isfinite(q).all():
            raise FloatingPointError("non-finite activations in Q forward pass")
        return q, (x, trunk, vh, ah)

    def backward(self, cache, dq: np.ndarray) -> np.ndarray:
        """Gradient of a scalar loss wrt ``flat``, given dL/dQ for the first ``len(dq)`` rows of the
        pass that ``cache`` holds.  Returns ``self.grad``, which the next call overwrites."""
        rows = len(dq)
        x, trunk, vh, ah = cache
        x, vh, ah, trunk = x[:rows], vh[:rows], ah[:rows], [h[:rows] for h in trunk]
        # combine layer: q_ij = v_i + a_ij - mean_j' a_ij'
        dv = np.add.reduce(dq, axis=1, keepdims=True)
        da = dq - dv / self.n_actions

        h_last = trunk[-1] if trunk else x
        dh = self._head_backward(h_last, vh, dv, self.vw0, self.vw1, self._grad_value, "value")
        dh += self._head_backward(h_last, ah, da, self.aw0, self.aw1, self._grad_adv, "adv")

        for i in range(len(self.trunk_w) - 1, -1, -1):
            dz = _relu_grad(dh, trunk[i], self._scratch("mask", dh.shape, bool))
            prev = trunk[i - 1] if i > 0 else x
            g_w, g_b = self._grad_trunk[i]
            np.matmul(prev.T, dz, out=g_w)
            np.add.reduce(dz, axis=0, out=g_b)
            if i > 0:
                dh = np.matmul(dz, self.trunk_w[i].T, out=self._scratch("dh", prev.shape))
        return self.grad

    def _head_backward(self, h_last, hidden, dout, w0, w1, grads, head: str) -> np.ndarray:
        """Write one head's gradients into ``grads``; return dL/d(h_last) in scratch."""
        g_w0, g_b0, g_w1, g_b1 = grads
        np.matmul(hidden.T, dout, out=g_w1)
        np.add.reduce(dout, axis=0, out=g_b1)
        dhidden = np.matmul(dout, w1.T, out=self._scratch(head, hidden.shape))
        _relu_grad(dhidden, hidden, self._scratch("mask", hidden.shape, bool))
        np.matmul(h_last.T, dhidden, out=g_w0)
        np.add.reduce(dhidden, axis=0, out=g_b0)
        return np.matmul(dhidden, w0.T, out=self._scratch(head + "_dh", h_last.shape))


def _affine(h, w, b, out, relu: bool) -> np.ndarray:
    """``h @ w + b`` into ``out``, then ReLU when ``relu``: the steps of the expression, in place."""
    np.matmul(h, w, out=out)
    out += b
    return np.maximum(out, 0.0, out=out) if relu else out


def _relu_grad(d, activation, mask) -> np.ndarray:
    """``d * (activation > 0.0)`` in place, the boolean mask cast by the multiply as before."""
    np.greater(activation, 0.0, out=mask)
    return np.multiply(d, mask, out=d)


class Adam:
    """Adaptive-moment optimizer with standard defaults and bias correction.

    Updates ``params`` (a flat vector) in place; two preallocated scratch
    vectors keep each step free of parameter-sized temporaries.
    """

    def __init__(
        self,
        params: np.ndarray,
        lr: float = 5e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._s1 = np.empty_like(params)
        self._s2 = np.empty_like(params)

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        m, v, s1, s2 = self.m, self.v, self._s1, self._s2
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=s1)
        m += s1
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=s1)
        s1 *= grad
        v += s1
        # p -= lr mhat / (sqrt(vhat) + eps), with bias-corrected mhat and vhat
        np.divide(m, 1.0 - self.beta1**self.t, out=s1)
        s1 *= self.lr
        np.divide(v, 1.0 - self.beta2**self.t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 /= s2
        self.params -= s1


def double_q_targets(rewards, states, next_states, online: DuelingNetwork, target: DuelingNetwork, discount: float):
    """Vectorized double-Q backup: online net picks, target net evaluates.

    One online pass runs over ``states`` stacked on ``next_states``; its second half picks the bootstrap
    actions.  Returns the targets and that pass, ``(q, cache)``, for ``td_loss_and_grads``."""
    q, cache = online.forward_cached(np.concatenate((states, next_states)))
    a_star = q[len(states) :].argmax(axis=1)
    boot = target.forward(next_states)[np.arange(len(a_star)), a_star]
    return rewards + discount * boot, (q, cache)


def td_loss_and_grads(net: DuelingNetwork, online_pass, actions: np.ndarray, targets: np.ndarray, td_clip: float):
    """Mean squared clipped TD error and its exact parameter gradients.  ``online_pass`` is
    ``net.forward_cached`` of a batch whose first ``len(actions)`` rows are the states."""
    q, cache = online_pass
    rows = np.arange(len(actions))
    delta = q[rows, actions] - targets
    # np.clip and np.mean are these steps behind Python-level wrappers
    clipped = np.minimum(np.maximum(delta, -td_clip), td_clip)
    inside = (np.abs(delta) <= td_clip).astype(float)
    loss = float(np.add.reduce(clipped**2) / len(actions))
    dq = np.zeros((len(actions), q.shape[1]))
    dq[rows, actions] = 2.0 * clipped * inside / len(actions)
    return loss, net.backward(cache, dq)


def replay_columns(rows: int, state_dim: int):
    """``(states, next_states, rewards, actions)`` for ``rows`` transitions, views into one zeroed 8-byte block.

    The block is an anonymous private mapping, whose pages stay untouched, and not resident, until a write reaches
    them.  ``np.zeros`` does that only below 4 MiB: from 4 MiB numpy asks for transparent huge pages, and where THP
    is in ``madvise`` mode a write then makes 2 MiB resident.  Separate columns from the heap would be resident in full.
    """
    n = rows * state_dim
    block = np.frombuffer(mmap.mmap(-1, 8 * (2 * n + 2 * rows), flags=mmap.MAP_PRIVATE), dtype=np.float64)
    states, next_states = block[:n].reshape(rows, state_dim), block[n : 2 * n].reshape(rows, state_dim)
    return states, next_states, block[2 * n : 2 * n + rows], block[2 * n + rows :].view(np.int64)  # zero bits: int64 0


class Replay:
    """Fixed-capacity transition rings, one per agent, in one ``replay_columns`` block: agent i owns
    rows ``[i * capacity, (i + 1) * capacity)`` and keeps its own size and cursor.  A DQN agent has one
    ring; a MARL pool gives each voter one."""

    def __init__(self, agents: int, capacity: int, state_dim: int):
        self.capacity = capacity
        self.states, self.next_states, self.rewards, self.actions = replay_columns(agents * capacity, state_dim)
        self.sizes, self.cursors = [0] * agents, [0] * agents

    def push(self, agents, state, action: int, reward: float, next_state) -> None:
        """Write one transition into the next ring row of each agent in ``agents``."""
        cap = self.capacity
        rows = np.array([i * cap + self.cursors[i] for i in agents], dtype=np.int64)
        self.states[rows] = state
        self.actions[rows] = action
        self.rewards[rows] = reward
        self.next_states[rows] = next_state
        for i in agents:
            self.cursors[i] = (self.cursors[i] + 1) % cap
            self.sizes[i] = min(self.sizes[i] + 1, cap)

    def sample(self, batch: int, rng: np.random.Generator):
        """``(states, actions, rewards, next_states)``: equal draws from each nonempty ring, topped up
        round-robin, or None while the rings cannot fill their quotas.  Ring i's rows are
        ``rng.choice(size_i, quota_i, replace=False)``, in agent order, with the generator left where
        those calls leave it; one ring makes that call, several make one ``pooled_choice``.
        """
        sizes = self.sizes
        nonempty = [i for i, size in enumerate(sizes) if size > 0]
        if not nonempty:
            return None
        m = len(nonempty)
        quotas = [batch // m] * m
        for i in range(batch % m):
            quotas[i] += 1
        if any(q > sizes[i] for q, i in zip(quotas, nonempty)):
            return None
        drawing = [(i, q) for i, q in zip(nonempty, quotas) if q > 0]
        if len(drawing) == 1:
            [(i, q)] = drawing
            idx = rng.choice(sizes[i], q, replace=False) + i * self.capacity
        else:
            idx = pooled_choice(rng, [(sizes[i], q) for i, q in drawing])
            idx += np.repeat([i * self.capacity for i, _ in drawing], [q for _, q in drawing])
        return self.states[idx], self.actions[idx], self.rewards[idx], self.next_states[idx]


def pooled_choice(rng: np.random.Generator, rings) -> np.ndarray:
    """``np.concatenate([rng.choice(n, q, replace=False) for n, q in rings])`` from one generator call,
    leaving ``rng`` where those calls leave it.  Every ring needs ``0 <= q <= n``.

    ``choice`` fixes the inclusive bound of each of its draws before it draws any value, and makes
    each draw as one bounded integer by Lemire's method (TOMACS 2019), as
    ``integers(0, highs, endpoint=True)`` does for each entry of ``highs``.  So one such call draws
    the values of every ring, and ``choice``'s rules for turning them into rows are replayed here.
    For a ring of ``n`` rows and quota ``q``:

    - Floyd's algorithm (Bentley and Floyd, CACM 1987) draws on ``[0, j]`` for ``j = n - q, …, n - 1``
      and takes ``j`` in place of a value already taken; a Fisher-Yates pass then swaps pick ``i``
      with a draw on ``[0, i]`` for ``i = q - 1, …, 1``;
    - above 10000 rows, when ``q > n // 50``, ``choice`` instead runs those swaps on ``arange(n)``
      for ``i = n - 1, …, max(n - q, 1)`` and keeps the last ``q`` entries.
    """
    shuffled = [n > 10_000 and q > n // 50 for n, q in rings]
    highs = []
    for (n, q), whole in zip(rings, shuffled):
        if whole:
            highs += range(n - 1, max(n - q, 1) - 1, -1)
        else:
            highs += range(n - q, n)
            highs += range(q - 1, 0, -1)
    draws = rng.integers(0, highs, endpoint=True).tolist()
    picks, pos = [], 0
    for (n, q), whole in zip(rings, shuffled):
        if whole:
            moved = {}  # position -> entry, where it differs from arange(n)
            for i in range(n - 1, max(n - q, 1) - 1, -1):
                j = draws[pos]
                pos += 1
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            picks += [moved.get(k, k) for k in range(n - q, n)]
            continue
        rows = draws[pos : pos + q]
        pos += q
        if len(set(rows)) < q:  # a repeated draw, which Floyd replaces by j
            taken = set()
            for k, j in enumerate(range(n - q, n)):
                if rows[k] in taken:
                    rows[k] = j
                taken.add(rows[k])
        for i in range(q - 1, 0, -1):
            j = draws[pos]
            pos += 1
            rows[i], rows[j] = rows[j], rows[i]
        picks += rows
    return np.array(picks, dtype=np.int64)


def learn(online: DuelingNetwork, target: DuelingNetwork, optimizer: Adam, batch, hp: AgentHyperparams) -> float | None:
    """One double-Q regression step on ``batch`` (a ``Replay.sample``); returns the loss, or None
    when there is no batch yet (reported as a skip)."""
    if batch is None:
        return None
    states, actions, rewards, next_states = batch
    targets, online_pass = double_q_targets(rewards, states, next_states, online, target, hp.discount)
    loss, grads = td_loss_and_grads(online, online_pass, actions, targets, hp.td_clip)
    optimizer.step(grads)
    return loss


def epsilon_greedy(qvalues: np.ndarray, eps: float, rng: np.random.Generator) -> int:
    """Explore uniformly with probability eps, else argmax (lowest index wins ties)."""
    if not (0.0 <= eps <= 1.0):
        raise ValueError("eps must lie in [0, 1]")
    if eps > 0.0 and rng.random() < eps:
        return int(rng.integers(len(qvalues)))
    return int(qvalues.argmax())

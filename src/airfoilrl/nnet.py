"""Minimal feedforward network engine shared by surrogate, actor, critic.

Plain numpy: forward pass with cached activations, exact reverse-mode
gradients, Adam updates, and per-dimension (0,1) min-max scaling of
inputs and outputs.  Hidden activation is the rectifier, output is
identity.  A model's parameters, its gradients and the Adam moments
each live in one flat buffer, so an update is a few whole-buffer passes.
"""
from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass, field

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NnetError(ValueError):
    pass


@dataclass(frozen=True)
class Scaler:
    """Per-dimension min-max map onto (0,1)."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        if np.any(self.hi <= self.lo):
            raise NnetError("scaler requires lo < hi per dimension")

    def scale(self, v: np.ndarray) -> np.ndarray:
        return (v - self.lo) / (self.hi - self.lo)

    def unscale(self, v: np.ndarray) -> np.ndarray:
        return v * (self.hi - self.lo) + self.lo

    @staticmethod
    def identity(dim: int) -> "Scaler":
        return Scaler(lo=np.zeros(dim), hi=np.ones(dim))

    @staticmethod
    def from_bounds(bounds) -> "Scaler":
        arr = np.asarray(bounds, dtype=float)
        return Scaler(lo=arr[:, 0].copy(), hi=arr[:, 1].copy())


def _param_shapes(sizes) -> list[tuple]:
    """Shapes in `flat` order: every weight matrix, then every bias."""
    layers = list(zip(sizes[:-1], sizes[1:]))
    return layers + [(n_out,) for _, n_out in layers]


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        view = flat[start:stop]
        view.shape = shape
        views.append(view)
        start = stop
    return views


def _copy_into(views, arrays) -> None:
    arrays = list(arrays)
    if len(arrays) != len(views):
        raise NnetError(f"expected {len(views)} arrays, got {len(arrays)}")
    for dst, src in zip(views, arrays):
        if np.shape(src) != dst.shape:
            raise NnetError(f"parameter shape {np.shape(src)} != {dst.shape}")
        dst[...] = src


class MlpModel:
    """Layer sizes, scalers, and the parameters in one flat buffer.

    `weights` and `biases` are views into `flat`, every weight matrix
    then every bias; assigning to them copies values into the buffer.
    """

    def __init__(self, sizes, weights, biases, input_scaler: Scaler,
                 output_scaler: Scaler):
        self.sizes = [int(s) for s in sizes]
        self.input_scaler = input_scaler
        self.output_scaler = output_scaler
        self._shapes = _param_shapes(self.sizes)
        self._flat = np.empty(sum(math.prod(s) for s in self._shapes))
        params = _views(self._flat, self._shapes)
        n_layers = len(self.sizes) - 1
        self._weights = tuple(params[:n_layers])
        self._biases = tuple(params[n_layers:])
        _copy_into(params, [*weights, *biases])

    @property
    def flat(self) -> np.ndarray:
        return self._flat

    @property
    def n_in(self) -> int:
        return self.sizes[0]

    @property
    def n_out(self) -> int:
        return self.sizes[-1]

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        return self._weights

    @weights.setter
    def weights(self, arrays) -> None:
        _copy_into(self.weights, arrays)

    @property
    def biases(self) -> tuple[np.ndarray, ...]:
        return self._biases

    @biases.setter
    def biases(self, arrays) -> None:
        _copy_into(self.biases, arrays)

    def copy(self) -> "MlpModel":
        return MlpModel(self.sizes, self.weights, self.biases,
                        self.input_scaler, self.output_scaler)


def make_mlp(sizes, rng, input_scaler: Scaler | None = None,
             output_scaler: Scaler | None = None) -> MlpModel:
    """Glorot-uniform initialized MLP with the given layer sizes."""
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return MlpModel(
        sizes=list(sizes),
        weights=weights,
        biases=biases,
        input_scaler=input_scaler or Scaler.identity(sizes[0]),
        output_scaler=output_scaler or Scaler.identity(sizes[-1]),
    )


def mlp_forward(model: MlpModel, x: np.ndarray, scaled: bool = True,
                with_cache: bool = False, out=None):
    """Forward pass on an (n, d) batch; any other shape raises NnetError.

    With scaled=True the input is min-max scaled before the chain and
    the raw output unscaled after; training code works in scaled space
    with scaled=False on pre-scaled arrays.  `out`, one (n, size) array
    per layer, receives the layers' activations in place of new arrays.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[1:] != (model.n_in,):
        raise NnetError(f"expected (n, {model.n_in}) inputs, got {x.shape}")
    h = model.input_scaler.scale(x) if scaled else x
    cache = [h]  # every layer's activation, kept only with_cache
    weights = model.weights
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, model.biases)):
        h = np.matmul(h, w, out=None if out is None else out[i])
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
        if with_cache:
            cache.append(h)
    y = model.output_scaler.unscale(h) if scaled else h
    if with_cache:
        return y, cache
    return y


def mlp_backward(model: MlpModel, cache: list[np.ndarray],
                 grad_out: np.ndarray, out=None, deltas=None) -> list[np.ndarray]:
    """Exact gradients w.r.t. parameters, in `flat` order.

    grad_out is dLoss/d(chain output) for the batch the cache came
    from, in the same (scaled) space the chain ran in.  The gradients
    go into `out`, arrays shaped like the weights then the biases, when
    given, else into views of one new buffer laid out like `model.flat`.
    `deltas`, one (n, size) array per hidden layer, receives the
    back-propagated deltas in place of new arrays.
    """
    grad_out = np.asarray(grad_out, dtype=float)
    n = len(model.sizes) - 1
    if len(cache) != n + 1:
        raise NnetError("stale or mismatched forward cache")
    grads = _views(np.empty(model.flat.size), model._shapes) if out is None else out
    weights = model.weights
    delta = grad_out
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            # cache holds post-relu activations; relu' = 1 where act > 0
            delta *= cache[i + 1] > 0.0
        np.matmul(cache[i].T, delta, out=grads[i])
        np.add.reduce(delta, axis=0, out=grads[n + i])
        if i > 0:
            delta = np.matmul(delta, weights[i].T,
                              out=None if deltas is None else deltas[i - 1])
    return grads


@dataclass
class AdamState:
    """Flat first and second moments plus two scratch buffers."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    scratch: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @staticmethod
    def for_params(params: np.ndarray) -> "AdamState":
        return AdamState(m=np.zeros(params.size), v=np.zeros(params.size))


def adam_update(params, grads, state: AdamState, lr: float) -> None:
    """Standard Adam step with bias correction, written into params.

    params and grads are flat float64 arrays, such as a model's `flat`
    buffer and a Fit's gradient buffer, or an agent's log-std and its
    gradient.  The step is one in-place pass over params and the
    state's flat moments and scratch buffers, in the per-element
    operation order m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g,
    p - (lr*m_hat) / (sqrt(v_hat) + eps).
    """
    if params.size != grads.size or params.size != state.m.size:
        raise NnetError("parameter/gradient/state size mismatch")
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m, v = state.m, state.v
    s, r = state.scratch
    m *= b1
    np.multiply(grads, 1.0 - b1, out=s)
    m += s
    v *= b2
    np.multiply(grads, 1.0 - b2, out=s)
    s *= grads
    v += s
    np.divide(m, 1.0 - b1**t, out=s)
    s *= lr
    np.divide(v, 1.0 - b2**t, out=r)
    np.sqrt(r, out=r)
    r += ADAM_EPS
    s /= r
    params -= s


class Fit:
    """Adam steps for one model in scaled space, on batches of at most
    `rows` rows, through buffers allocated once.

    `forward` runs mlp_forward and keeps its cache; `descend` runs
    mlp_backward on a loss gradient w.r.t. that forward's output, then
    one in-place adam_update of the model's flat buffer, with `state`
    (a new AdamState by default) carrying the moments.  `step` is one
    mean-squared-error step made of the two.
    """

    def __init__(self, model: MlpModel, rows: int, state: AdamState | None = None):
        self.model = model
        self.state = AdamState.for_params(model.flat) if state is None else state
        self.rows = rows
        self._acts = [np.empty((rows, size)) for size in model.sizes[1:]]
        self._deltas = [np.empty((rows, size)) for size in model.sizes[1:-1]]
        self._diff = np.empty((rows, model.n_out))
        self._sq = np.empty((rows, model.n_out))
        self._grad = np.empty(model.flat.size)
        self._grads = _views(self._grad, model._shapes)

    def forward(self, xs: np.ndarray) -> np.ndarray:
        """The chain's output on scaled (k, n_in) inputs, k <= rows: a
        view of a buffer the next forward overwrites."""
        acts = self._acts if xs.shape[0] == self.rows else [a[:xs.shape[0]] for a in self._acts]
        out, self._cache = mlp_forward(self.model, xs, scaled=False, with_cache=True, out=acts)
        return out

    def descend(self, d_out: np.ndarray, lr: float) -> None:
        """One Adam step along dLoss/d(output) of the last forward."""
        k = d_out.shape[0]
        deltas = self._deltas if k == self.rows else [d[:k] for d in self._deltas]
        mlp_backward(self.model, self._cache, d_out, out=self._grads, deltas=deltas)
        adam_update(self.model.flat, self._grad, self.state, lr)

    def step(self, xs: np.ndarray, ys: np.ndarray, lr: float,
             with_loss: bool = True) -> float | None:
        """One MSE step on scaled (k, n_in) inputs and (k, n_out)
        targets, k <= rows.  Returns the batch MSE before the step, or
        None without with_loss; a non-finite MSE raises NnetError."""
        k = xs.shape[0]
        diff, sq = (self._diff, self._sq) if k == self.rows else (self._diff[:k], self._sq[:k])
        np.subtract(self.forward(xs), ys, out=diff)
        loss = None
        if with_loss:
            loss = float(np.mean(np.square(diff, out=sq)))
            if not math.isfinite(loss):
                raise NnetError("divergent loss (non-finite)")
        diff *= 2.0  # diff becomes dLoss/dpred = 2 * diff / diff.size
        diff /= diff.size
        self.descend(diff, lr)
        return loss


def train_minibatch(model: MlpModel, inputs: np.ndarray, targets: np.ndarray,
                    schedule, batch_size: int, seed: int, callback) -> None:
    """Minibatch MSE regression in scaled space.

    schedule is a list of (epochs, learning_rate) segments applied in
    order; each epoch reshuffles with a generator seeded once from
    `seed`.  `callback(minibatch_index)`, counting from 1, fires after
    every minibatch.  The steps run through one Fit, and the batches are
    gathered into buffers allocated once.
    """
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if inputs.size == 0:
        raise NnetError("empty dataset")
    xs = model.input_scaler.scale(inputs)
    ys = model.output_scaler.scale(targets)
    rng = np.random.default_rng(seed)
    n = xs.shape[0]
    rows = min(batch_size, n)
    fit = Fit(model, rows)
    x_buf, y_buf = np.empty((rows, xs.shape[1])), np.empty((rows, ys.shape[1]))
    mb = 0
    for epochs, lr in schedule:
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                k = idx.size
                fit.step(np.take(xs, idx, axis=0, out=x_buf[:k]),
                         np.take(ys, idx, axis=0, out=y_buf[:k]), lr)
                mb += 1
                callback(mb)


# ---------------------------------------------------------------------------
# model container: npz with layer sizes, scaler bounds, and parameters


def model_arrays(model: MlpModel, prefix: str = "") -> dict:
    """A network's members in the model file layout: ``{prefix}sizes``
    and ``{prefix}w{i}``, ``{prefix}b{i}`` per layer."""
    arrays = {f"{prefix}sizes": np.array(model.sizes)}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"{prefix}w{i}"] = w
        arrays[f"{prefix}b{i}"] = b
    return arrays


def model_from_arrays(data, input_scaler: Scaler, output_scaler: Scaler | None = None,
                      prefix: str = "") -> MlpModel:
    """The network model_arrays wrote under prefix; an identity output
    scaler when none is given."""
    sizes = [int(s) for s in data[f"{prefix}sizes"]]
    layers = range(len(sizes) - 1)
    if output_scaler is None:
        output_scaler = Scaler.identity(sizes[-1])
    return MlpModel(sizes=sizes, weights=[data[f"{prefix}w{i}"] for i in layers],
                    biases=[data[f"{prefix}b{i}"] for i in layers],
                    input_scaler=input_scaler, output_scaler=output_scaler)


def save_model(path, model: MlpModel) -> None:
    np.savez(path, version=np.array([1]),
             in_lo=model.input_scaler.lo, in_hi=model.input_scaler.hi,
             out_lo=model.output_scaler.lo, out_hi=model.output_scaler.hi,
             **model_arrays(model))


def read_archive(path, kind: str, members: tuple, prefixes: tuple = ("",)) -> dict:
    """The arrays of a version-1 `kind` file at `path`, which must hold
    `members` and, per prefix, the model_arrays layout; NnetError naming
    the path, the kind and the missing member otherwise."""
    try:
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
    except (ValueError, EOFError, zipfile.BadZipFile):
        raise NnetError(f"{path}: not a valid {kind} file (not an .npz archive)") from None

    def need(names):
        for name in names:
            if name not in arrays:
                raise NnetError(f"{path}: not a valid {kind} file (no member {name!r})")

    need(("version", *members, *(f"{p}sizes" for p in prefixes)))
    if arrays["version"].tolist() != [1]:
        raise NnetError(f"{path}: unknown {kind} file version")
    need(f"{p}{wb}{i}" for p in prefixes for i in range(arrays[f"{p}sizes"].size - 1)
         for wb in "wb")
    return arrays


def load_model(path) -> MlpModel:
    data = read_archive(path, "surrogate model", ("in_lo", "in_hi", "out_lo", "out_hi"))
    return model_from_arrays(data, Scaler(lo=data["in_lo"], hi=data["in_hi"]),
                             Scaler(lo=data["out_lo"], hi=data["out_hi"]))

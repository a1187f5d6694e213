"""Parameter containers: a small Module tree with hierarchical names."""

from __future__ import annotations

import numpy as np

from .errors import FormatError
from .tensor import Parameter, Tensor, active_dtype, matmul


class Module:
    """Base class; attribute assignment registers Parameters and sub-Modules."""

    def __setattr__(self, key, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_params", {})[key] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_children", {})[key] = value
        object.__setattr__(self, key, value)

    def named_parameters(self, prefix: str = ""):
        for key, p in self.__dict__.get("_params", {}).items():
            yield (prefix + key if prefix else key), p
        for key, child in self.__dict__.get("_children", {}).items():
            yield from child.named_parameters(prefix + key + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.named_parameters()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite every parameter's values, as ``load_checked`` does."""
        load_checked(self.state_arrays(), arrays)


def load_checked(own: dict[str, np.ndarray], arrays: dict[str, np.ndarray]) -> None:
    """Copy ``arrays[name]`` into ``own[name]`` in place, for every name.

    FormatError when ``arrays`` holds another set of names or another shape.
    Every entry is checked before any is copied, so a failed load changes
    nothing.
    """
    problems = [f"{kind} {names[0]}" + (f" and {len(names) - 1} more" if len(names) > 1 else "")
                for kind, names in (("missing", sorted(set(own) - set(arrays))),
                                    ("unexpected", sorted(set(arrays) - set(own)))) if names]
    if problems:
        raise FormatError("state mismatch: " + "; ".join(problems))
    for name, dst in own.items():
        shape = np.shape(arrays[name])
        if shape != dst.shape:
            raise FormatError(f"shape mismatch for {name}: file {shape} vs model {dst.shape}")
    for name, dst in own.items():
        np.copyto(dst, arrays[name], casting="unsafe")


class ModuleList(Module):
    def __init__(self, modules=()):
        self._items = []
        for m in modules:
            self.append(m)

    def append(self, module: Module):
        idx = len(self._items)
        self._items.append(module)
        setattr(self, str(idx), module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]


def glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(active_dtype())


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, bias: bool = True):
        self.weight = Parameter(glorot(rng, (d_in, d_out), d_in, d_out))
        if bias:
            self.bias = Parameter(np.zeros(d_out))
        else:
            object.__setattr__(self, "bias", None)

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.weight, self.bias)


class RandomSource:
    """Single seeded root for all run randomness.

    Init-time draws and per-step draws come from child generators derived from
    (seed, purpose), so a resumed run at step k sees exactly the noise the
    uninterrupted run saw.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def for_init(self) -> np.random.Generator:
        return np.random.default_rng((self.seed, 0xA11CE))

    def for_step(self, step: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, 0x57E9, int(step)))

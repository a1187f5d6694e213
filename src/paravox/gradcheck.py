"""Finite-difference gradient checking.

Central differences with step 1e-4 against the analytic backward sweep, run
in high precision.  Relative error per entry is |a - n| / max(|a|, |n|, 1e-8);
a parameter fails when its worst checked entry exceeds the tolerance. Large
parameters can be spot-checked on a deterministic subset of entries so whole
models stay inside a small time budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonDeterministicError
from .tensor import Parameter, active_dtype, backward

DEFAULT_STEP = 1e-4
DEFAULT_TOL = 1e-4


@dataclass
class ParamReport:
    name: str
    max_rel_error: float
    checked: int
    worst_index: tuple
    analytic: float
    numeric: float


@dataclass
class GradCheckReport:
    tolerance: float
    entries: list[ParamReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.max_rel_error <= self.tolerance for e in self.entries)

    @property
    def max_rel_error(self) -> float:
        return max((e.max_rel_error for e in self.entries), default=0.0)

    def failures(self):
        return [e for e in self.entries if e.max_rel_error > self.tolerance]

    def format_table(self) -> str:
        width = max([len(e.name) for e in self.entries] + [9])
        lines = [f"{'parameter':<{width}}  {'max rel err':>12}  {'checked':>7}  status"]
        for e in self.entries:
            status = "ok" if e.max_rel_error <= self.tolerance else "FAIL"
            lines.append(f"{e.name:<{width}}  {e.max_rel_error:>12.3e}  {e.checked:>7}  {status}")
        return "\n".join(lines)


def _rel_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def grad_check(f, params: dict[str, Parameter], step: float = DEFAULT_STEP,
               tol: float = DEFAULT_TOL, max_entries: int | None = None,
               sample_seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients of scalar ``f()`` against central differences.

    ``params`` maps the report's names to the parameters to check, in report
    order; a module's are ``dict(module.named_parameters(prefix))``.  ``f``
    must be deterministic; it is evaluated twice up front and rejected if the
    values differ.  ``max_entries`` caps the entries checked per parameter
    (chosen by a seeded permutation); None checks every entry.
    """
    if np.dtype(active_dtype()) != np.float64:
        raise RuntimeError("grad_check needs the high-precision mode; wrap the call in "
                           "precision(\"high\") (finite differences are meaningless in float32)")
    v1 = float(f().data)
    v2 = float(f().data)
    if v1 != v2:
        raise NonDeterministicError(f"target returned {v1!r} then {v2!r}; fix the noise source")

    for p in params.values():
        p.zero_grad()
    loss = f()
    backward(loss)
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in params.items()}

    rng = np.random.default_rng(sample_seed)
    report = GradCheckReport(tolerance=tol)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        idx = np.arange(flat.size)
        if max_entries is not None and flat.size > max_entries:
            idx = rng.permutation(flat.size)[:max_entries]
        worst = (0.0, (0,), 0.0, 0.0)
        for i in idx:
            saved = flat[i]
            flat[i] = saved + step
            up = float(f().data)
            flat[i] = saved - step
            down = float(f().data)
            flat[i] = saved
            numeric = (up - down) / (2.0 * step)
            a = float(analytic[name].reshape(-1)[i])
            err = _rel_error(a, numeric)
            if err >= worst[0]:
                worst = (err, np.unravel_index(int(i), p.data.shape), a, numeric)
        report.entries.append(ParamReport(name, worst[0], len(idx), worst[1], worst[2], worst[3]))
    return report

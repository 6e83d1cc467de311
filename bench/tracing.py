"""Spans around the library's layer functions, recorded from outside the library.

``Tracer.install`` replaces each listed function at every module attribute of
``brenier_bounds`` bound to it (callers bind names with ``from .x import f``,
so patching the defining module alone would miss them) and patches the
listed methods on their class. Each call records a span: name, start, end,
parent span and op id, kept in flat arrays and written out when the run
ends. ``uninstall`` puts every original back, so untraced cycles run the
library unmodified. A listed name that no longer exists is reported as
absent rather than failing the run.

Calls into the layers that have an exact reference are also captured with
their arguments and results, and turned into errors after each op, outside
its timed region.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import exact

# (module, function) pairs; the span is named "<module>.<function>"
FUNCTIONS = [
    ("cli", "main"),
    ("verify", "run_scenario"), ("verify", "limit_sweep_D"), ("verify", "limit_sweep_caffarelli"),
    ("transport", "radial_map"), ("transport", "quantile_map_1d"),
    ("transport", "lipschitz_empirical"), ("transport", "second_variation_check"),
    ("bounds", "tail_mass"), ("bounds", "growth_data"), ("bounds", "global_bound"),
    ("bounds", "local_bound"), ("bounds", "finite_global_sharp_bound"),
    ("bounds", "mglob_uniformity_check"),
    ("constants", "structural"), ("constants", "aggregates"),
    ("potentials", "normalization"), ("potentials", "tail_quadrature"),
]
# (module, class, method, span name)
METHODS = [
    ("transport", "TailTable", "__init__", "transport.TailTable.build"),
    ("transport", "TailTable", "tail", "transport.TailTable.tail"),
    ("transport", "TailTable", "invert", "transport.TailTable.invert"),
]
# structural is split by window: a finite ball scan or R = infinity
STRUCTURAL_BALL = "constants.structural_ball"
STRUCTURAL_INF = "constants.structural_inf"
CAPTURED = {"transport.radial_map", "transport.quantile_map_1d",
            "potentials.normalization", "bounds.growth_data"}
PACKAGE = "brenier_bounds"


def span_names() -> List[str]:
    names = []
    for mod, fn in FUNCTIONS:
        if (mod, fn) == ("constants", "structural"):
            names += [STRUCTURAL_BALL, STRUCTURAL_INF]
        else:
            names.append(f"{mod}.{fn}")
    return names + [m[3] for m in METHODS]


def _param(p) -> float:
    """An ExtParam (or plain number) as a float, infinity for the endpoint."""
    if hasattr(p, "is_finite"):
        return p.value if p.is_finite else math.inf
    return float(p)


def quadratic_params(U):
    """(a, s) when U(x) = a (x - s)^2 (radial: a r^2, s = 0); None otherwise.

    Read from four evaluations, so it needs no knowledge of profile classes.
    """
    try:
        f = [float(np.asarray(U.value(np.array([x]))).ravel()[0]) for x in (0.0, 1.0, -1.0, 2.0)]
    except (TypeError, ValueError, AttributeError):
        return None
    a = 0.5 * (f[1] + f[2] - 2.0 * f[0])
    if not a > 0.0:
        return None
    s = (f[2] - f[1]) / (4.0 * a)
    for x, fx in ((0.0, f[0]), (2.0, f[3])):
        if abs(fx - a * (x - s) ** 2) > 1e-12 * max(1.0, abs(fx)):
            return None
    return a, (0.0 if abs(s) < 1e-15 else s)


class LayerErrors:
    """Accuracy of captured layer calls against the exact reference."""

    def __init__(self):
        self.max_rel_err: Dict[str, float] = {}
        self.checked: Dict[str, int] = {}
        self.returned = 0
        self.requested = 0
        self.max_residual = 0.0

    def _err(self, key: str, err: float):
        self.max_rel_err[key] = max(self.max_rel_err.get(key, 0.0), err)
        self.checked[key] = self.checked.get(key, 0) + 1

    def add(self, name: str, bound: inspect.BoundArguments, result):
        a = bound.arguments
        if name == "transport.radial_map":
            m = result
            if a.get("r_grid") is not None:
                self.requested += len(a["r_grid"])
                self.returned += len(m.r_grid)
            self.max_residual = max(self.max_residual, float(np.max(np.abs(m.residuals))))
            qv, qw = quadratic_params(a["V"]), quadratic_params(a["W"])
            if qv and qw and qv[1] == 0.0 and qw[1] == 0.0:
                t, _ = exact.radial_map(a["n"], qv[0], _param(a["d"]), qw[0], _param(a["D"]),
                                        m.r_grid)
                self._err(name, exact.rel_err(m.t, t))
        elif name == "transport.quantile_map_1d":
            qv, qw = quadratic_params(a["V"]), quadratic_params(a["W"])
            if qv and qw:
                t = exact.line_map(qv[0], _param(a["d"]), qv[1], qw[0], _param(a["D"]), qw[1],
                                   result.r_grid)
                self._err(name, exact.rel_err(result.t, t))
        elif name == "potentials.normalization":
            q = quadratic_params(a["U"])
            if q:
                z = exact.normalization(a["U"].dimension, q[0], _param(a["p"]))
                self._err(name, abs(result.z / z - 1.0))
        elif name == "bounds.growth_data":
            qv, qw = quadratic_params(a["V"]), quadratic_params(a["W"])
            if qv and qw and qv[1] == 0.0 and qw[1] == 0.0:
                want = exact.growth_radius(a["n"], qv[0], qw[0], _param(a["d"]),
                                           _param(a["D"]), float(a["R"]))
                if want > 0.0:
                    self._err(name, abs(result.fathi_radius / want - 1.0))


class Tracer:
    """Span recorder; one per run, installed only around traced cycles."""

    def __init__(self):
        self.names = span_names()
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack: List[int] = []
        self.op_id = -1
        self._captures: list = []
        self._signatures: Dict[str, inspect.Signature] = {}
        self._undo: list = []
        self.absent: List[str] = []
        self.errors = LayerErrors()
        self.unscored = 0   # captured calls the reference could not read

    # -- span bookkeeping ---------------------------------------------------
    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.child.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        t = time.perf_counter()
        self.end[i] = t
        self._stack.pop()
        p = self.parent[i]
        if p >= 0:
            self.child[p] += t - self.start[i]

    def _wrap(self, fn, name: str, namer=None):
        tracer = self
        nid = self._ids[name]
        captured = name in CAPTURED
        if captured:
            self._signatures[name] = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(namer(args, kwargs) if namer else nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if captured:
                tracer._captures.append((name, args, kwargs, result))
            return result
        return wrapper

    def _structural_namer(self):
        ball, inf = self._ids[STRUCTURAL_BALL], self._ids[STRUCTURAL_INF]

        def namer(args, kwargs):
            R = kwargs.get("R", args[2] if len(args) > 2 else 0.0)
            try:
                return inf if math.isinf(R) else ball
            except TypeError:
                return ball
        return namer

    # -- patching -----------------------------------------------------------
    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        self.absent = []
        for mod, fn in FUNCTIONS:
            home = sys.modules.get(f"{PACKAGE}.{mod}")
            orig = getattr(home, fn, None) if home is not None else None
            if not callable(orig):
                self.absent.append(f"{mod}.{fn}")
                continue
            if (mod, fn) == ("constants", "structural"):
                wrapper = self._wrap(orig, STRUCTURAL_BALL, self._structural_namer())
            else:
                wrapper = self._wrap(orig, f"{mod}.{fn}")
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._undo.append((m, attr, orig))
        for mod, cls_name, meth, name in METHODS:
            home = sys.modules.get(f"{PACKAGE}.{mod}")
            cls = getattr(home, cls_name, None) if home is not None else None
            orig = cls.__dict__.get(meth) if isinstance(cls, type) else None
            if not callable(orig):
                self.absent.append(name)
                continue
            setattr(cls, meth, self._wrap(orig, name))
            self._undo.append((cls, meth, orig))

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    # -- ops ----------------------------------------------------------------
    def begin_op(self, op_id: int):
        self.op_id = op_id

    def end_op(self):
        """Score the op's captured calls against the exact reference."""
        captures, self._captures = self._captures, []
        for name, args, kwargs, result in captures:
            try:
                bound = self._signatures[name].bind(*args, **kwargs)
                bound.apply_defaults()
                self.errors.add(name, bound, result)
            except (TypeError, ValueError, KeyError, AttributeError):
                self.unscored += 1
        self.op_id = -1

    # -- results ------------------------------------------------------------
    def per_name(self, op_ids: Optional[set] = None) -> Dict[str, Dict[str, float]]:
        """calls, busy_s and self_s summed over spans (of the given ops)."""
        names = np.frombuffer(self.name, dtype=np.int32)
        ops = np.frombuffer(self.op, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        own = dur - np.frombuffer(self.child)
        keep = np.ones(names.size, bool) if op_ids is None else np.isin(ops, list(op_ids))
        out = {}
        for nid, name in enumerate(self.names):
            sel = keep & (names == nid)
            out[name] = {"calls": int(np.count_nonzero(sel)),
                         "busy_s": float(dur[sel].sum()), "self_s": float(own[sel].sum())}
        return out

    def write(self, path: Path, op_names: Dict[int, str]):
        """All spans as gzip CSV: op id, op name, span id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("op_id,op,span,parent,name,start_s,end_s\n")
            for i in range(len(self.name)):
                op = self.op[i]
                fh.write(f"{op},{op_names.get(op, '')},{i},{self.parent[i]},"
                         f"{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r}\n")

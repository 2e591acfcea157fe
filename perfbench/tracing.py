"""Per-layer spans, recorded by wrappers installed from outside the program.

The pipeline reaches each layer through a module attribute (``solver``
calls ``classify`` through ``mehsolve.solver.classify``, ``analysis`` calls
``optimize`` through ``mehsolve.analysis.optimize``, and so on).  While
``Tracer.installed()`` is active, every such binding in ``TARGETS`` is
replaced by a wrapper that records a span: layer name, start, end and the
enclosing span.  Spans are only recorded inside an instance span opened by
``begin``/``end``, so the benchmark's own result checks stay untraced.
Leaving ``installed()`` restores the original bindings.

Layers are of two kinds.  Pipeline phases (parse, normalize, classify,
split, MEHNF, bound propagation, branch-and-bound, conversion, checks)
partition an instance's time: a phase's self time is its span time minus
the time of the phases it calls.  Engines (the simplex and linalg calls
in ``ENGINES``) cut across phases: an engine's self time is its span time
minus the engine calls nested in it, and that time also stays in the self
time of the phase that made the call.  So ``analysis.classify.s`` includes
the LP probes classify makes, and ``simplex.lp.s`` shows how much of all
phases LP solving is.  The instance span's own self time (glue code in
``solve`` and the benchmark loop between calls) belongs to no phase and is
reported as the unattributed share; engine calls made directly by
``solve`` (the rational feasibility check) count as attributed.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import mehsolve.analysis as analysis
import mehsolve.mehnf as mehnf
import mehsolve.simplex as simplex
import mehsolve.smtlib as smtlib
import mehsolve.solver as solver
from mehsolve.linalg import TransformMatrix
from mehsolve.simplex import SimplexInstance

ROOT_SPAN = "instance"

# (owner, attribute, layer): every binding through which the pipeline
# calls into a layer.
TARGETS = (
    (smtlib, "parse", "smtlib.parse"),
    (solver, "normalize", "model.normalize"),
    (solver, "check_model", "model.verify"),
    (solver, "check_certificate", "model.verify"),
    (simplex, "instance_for", "simplex.instance_for"),
    (solver, "instance_for", "simplex.instance_for"),
    (analysis, "optimize", "simplex.lp"),
    (analysis, "check_feasible", "simplex.lp"),
    (solver, "check_feasible", "simplex.lp"),
    (SimplexInstance, "check", "simplex.check"),
    (solver, "classify", "analysis.classify"),
    (solver, "split", "analysis.split"),
    (solver, "batch_mehnf", "mehnf.batch_mehnf"),
    (mehnf, "hermite_normal_form", "linalg.hermite_normal_form"),
    (TransformMatrix, "__init__", "linalg.transform_matrix"),
    (TransformMatrix, "inverse", "linalg.transform_matrix"),
    (solver, "propagate_bounds", "solver.propagate_bounds"),
    (solver, "unit_cube_test", "solver.unit_cube_test"),
    (solver, "mixed_extension", "solver.mixed_extension"),
    (solver, "convert_certificate", "solver.convert_certificate"),
    (solver, "branch_and_bound", "solver.branch_and_bound"),
    (solver, "check_refutation", "solver.check_refutation"),
)

# A call into the first layer made directly from the second is part of the
# second: each leaf of a refutation is checked with check_certificate, and
# that work is refutation checking, not the solver's final verification.
ABSORBED = {"model.verify": "solver.check_refutation"}

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))
ENGINES = frozenset(("simplex.instance_for", "simplex.lp", "simplex.check",
                     "linalg.hermite_normal_form", "linalg.transform_matrix"))
COUNTED_LAYERS = ("simplex.instance_for", "simplex.lp", "linalg.transform_matrix",
                  "solver.check_refutation")


class Tracer:
    """Spans of one traced pass, kept in memory as parallel lists."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.roots: list[int] = []
        self._stack: list[int] = []
        self._tableaux: list[SimplexInstance] = []
        self._transforms: list[TransformMatrix] = []
        self.instances = 0
        self.pivots = 0
        self.v_max_bits = 0

    # -- recording -----------------------------------------------------

    def begin(self) -> None:
        """Open the span of one instance (parse plus solve)."""
        self._push(ROOT_SPAN)
        self.starts[-1] = perf_counter()

    def end(self) -> None:
        idx = self._stack.pop()
        self.ends[idx] = perf_counter()
        # Outside the timed span: harvest what the instance's layers left.
        self.instances += 1
        self.pivots += sum(t.pivots for t in self._tableaux)
        for v in self._transforms:
            self.v_max_bits = max(self.v_max_bits, _max_bits(v))
        self._tableaux.clear()
        self._transforms.clear()

    def _push(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.roots.append(self._stack[0] if self._stack else idx)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, layer: str):
        names, starts, ends, stack = self.names, self.starts, self.ends, self._stack
        absorber = ABSORBED.get(layer)
        if layer == "simplex.instance_for":
            keep = self._tableaux.append
        elif layer == "mehnf.batch_mehnf":
            def keep(result):
                self._transforms.append(result[1])   # (h, v, row_perm)
        else:
            keep = None

        def traced(*args, **kwargs):
            if not stack or names[stack[-1]] == absorber:
                return fn(*args, **kwargs)
            idx = self._push(layer)
            starts[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if keep is not None:
                keep(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Replace every binding in TARGETS by a wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, layer in TARGETS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, layer))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def wall_seconds(self) -> float:
        return sum(self.ends[i] - self.starts[i]
                   for i, p in enumerate(self.parents) if p < 0)

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer; the instance span's self time is unattributed."""
        names, parents = self.names, self.parents
        engine = [name in ENGINES for name in names]
        child = [0.0] * len(names)
        for i, p in enumerate(parents):
            if p < 0:
                continue
            duration = self.ends[i] - self.starts[i]
            # Charge the nearest enclosing span of the same kind (the
            # instance span counts as a phase) ...
            q = p
            while q >= 0 and engine[q] != engine[i]:
                q = parents[q]
            if q >= 0:
                child[q] += duration
            # ... except that an engine called by solve itself is covered.
            elif parents[p] < 0:
                child[p] += duration
        out: dict[str, float] = {}
        for i, name in enumerate(names):
            out[name] = out.get(name, 0.0) + self.ends[i] - self.starts[i] - child[i]
        return out

    def calls(self) -> dict[str, int]:
        """Calls into each layer; a layer re-entering itself is one call."""
        out: dict[str, int] = {}
        for i, name in enumerate(self.names):
            p = self.parents[i]
            if p < 0 or self.names[p] != name:
                out[name] = out.get(name, 0) + 1
        return out

    def calls_under(self, layer: str, ancestor: str) -> int:
        count = 0
        for i, name in enumerate(self.names):
            if name != layer:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] != ancestor:
                p = self.parents[p]
            count += p >= 0
        return count

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-instance layer metrics, as name -> (value, unit)."""
        per = 1 / max(self.instances, 1)
        selfs = self.self_seconds()
        calls = self.calls()
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.s"] = (selfs.get(layer, 0.0) * per, "s/inst")
        for layer in COUNTED_LAYERS:
            out[f"{layer}.calls"] = (calls.get(layer, 0) * per, "1/inst")
        lp_calls = calls.get("simplex.lp", 0)
        out["simplex.builds_per_lp"] = (
            calls.get("simplex.instance_for", 0) / lp_calls if lp_calls else 0.0,
            "ratio")
        out["simplex.pivots"] = (self.pivots * per, "1/inst")
        for layer in ("analysis.classify", "analysis.split"):
            out[f"{layer}.lp_calls"] = (
                self.calls_under("simplex.lp", layer) * per, "1/inst")
        out["mehnf.v_max_bits"] = (float(self.v_max_bits), "bits")
        wall = self.wall_seconds()
        out["trace.unattributed_frac"] = (
            selfs.get(ROOT_SPAN, 0.0) / wall if wall else 0.0, "frac")
        return out

    def spans(self):
        """(name, start, end, parent, instance span) of every span, in opening order."""
        return zip(self.names, self.starts, self.ends, self.parents, self.roots)


def _max_bits(v: TransformMatrix) -> int:
    return max((max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                for row in v.matrix.rows for x in row), default=0)

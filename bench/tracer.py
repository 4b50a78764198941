"""Spans around the library's public functions, recorded from outside.

Tracer.install() replaces each traced function on every `anosovforms`
module that holds it (and methods on their class) with a wrapper that
records a span: id, parent span, op id, name, start and end.  uninstall()
puts the originals back.  Spans are kept in memory and written out when
the run ends; calls made outside an op are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, qualified name) of the functions whose self time and calls the
# benchmark reports
LAYERS = (
    ("numfield", "verify_galois_datum"),
    ("numfield", "conjugate_modulus_interval"),
    ("numfield", "compare_abs_to_one"),
    ("numfield", "apply_automorphism"),
    ("numfield", "is_algebraic_unit"),
    ("pisot", "search_units"),
    ("pisot", "search_unit_pisot"),
    ("pisot", "is_unit_pisot"),
    ("pisot", "ConeConstraint.holds_for"),
    ("liealg", "check_jacobi"),
    ("liealg", "is_automorphism"),
    ("liealg", "lower_central_series"),
    ("galoisform", "build_labeled_algebra"),
    ("galoisform", "extend_representation"),
    ("galoisform", "verify_representation"),
    ("galoisform", "rational_form"),
    ("galoisform", "rational_form_from_vectors"),
    ("galoisform", "structure_constants_on_form"),
    ("galoisform", "transport"),
    ("galoisform", "main2_construct"),
    ("galoisform", "check_label_equivariance"),
    ("galoisform", "check_label_compatibility"),
    ("exactmath", "charpoly"),
    ("exactmath", "count_roots_on_unit_circle"),
    ("exactmath", "count_roots_inside_unit_disk"),
    ("exactmath", "nullspace"),
    ("_fieldlinalg", "solve"),
    ("_fieldlinalg", "det"),
    ("_fieldlinalg", "span_rref"),
    ("_fieldlinalg", "mat_mul"),
    ("anosov", "certify"),
    ("pfaffian", "classify_type42"),
    ("pfaffian", "scheuneman_dual"),
    ("pfaffian", "dual_automorphism"),
    ("pfaffian", "solve_pell"),
)

# the outermost calls of the ops, traced so that top-level spans cover the
# op time; serialize gives the parse and emit times
OUTER = (
    ("pfaffian", "binary_form_of"),
    ("recipes", "recipe_z4_example"),
    ("recipes", "recipe_count"),
    ("recipes", "recipe_laur"),
    ("recipes", "recipe_csig"),
    ("recipes", "recipe_csig_default"),
    ("recipes", "recipe_last"),
    ("catalog", "quartic_z4_datum"),
    ("catalog", "cyclic_cubic_datum"),
    ("catalog", "sqrt2_datum"),
    ("catalog", "cubic_pisot_unit"),
    ("serialize", "algebra_from_json"),
    ("serialize", "map_from_json"),
    ("serialize", "algebra_to_json"),
    ("serialize", "certificate_to_json"),
    ("serialize", "canonical_dumps"),
)

TRACED = LAYERS + OUTER

PARSE = {"serialize.algebra_from_json", "serialize.map_from_json"}
EMIT = {"serialize.algebra_to_json", "serialize.certificate_to_json",
        "serialize.canonical_dumps"}


def _box_points(tracer, args, kwargs, _result):
    datum = args[0]
    height = args[1] if len(args) > 1 else kwargs["height_bound"]
    tracer.counters["pisot.search_units.box_points"] += (2 * height + 1) ** datum.degree - 1


def _hits(tracer, _args, _kwargs, result):
    tracer.counters["pisot.search_unit_pisot.hits"] += len(result)


HOOKS = {
    "pisot.search_units": _box_points,
    "pisot.search_unit_pisot": _hits,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- patching

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1] if stack else None, self._op, name,
                    perf_counter(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[5] = perf_counter()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "anosovforms" or n.startswith("anosovforms.")]
        for mod_name, qualname in TRACED:
            mod = importlib.import_module(f"anosovforms.{mod_name}")
            name = f"{mod_name.lstrip('_')}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                self._patched.append((cls, attr, orig))
                setattr(cls, attr, self.wrap(name, orig))
                continue
            orig = getattr(mod, qualname)
            wrapper = self.wrap(name, orig)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is orig:
                        self._patched.append((holder, attr, orig))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._patched):
            setattr(holder, attr, orig)
        self._patched.clear()

    # -- recording

    def begin_op(self, op_id: str) -> None:
        self._op = op_id
        self._stack.clear()

    def end_op(self) -> None:
        self._op = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}) + "\n")

    # -- summaries

    def self_times(self, scale: dict[str, float]) -> dict[str, float]:
        """Per function name: total duration minus the time of direct
        child spans, each span multiplied by the scale of its op."""
        child = defaultdict(float)
        for _sid, parent, _op, _name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, _parent, op, name, start, end in self.spans:
            out[name] += ((end - start) - child[sid]) * scale[op]
        return out

    def calls(self, op: str | None = None) -> dict[str, int]:
        out = defaultdict(int)
        for span in self.spans:
            if op is None or span[2] == op:
                out[span[3]] += 1
        return out

    def top_level_time(self) -> float:
        return sum(end - start for _s, parent, _o, _n, start, end in self.spans
                   if parent is None)

"""Layer tracing for the benchmark's traced runs, installed from outside ``qsc``.

``Tracer.install`` wraps every public function of each qsc module, and every
public method of the classes each module defines, in a span recorder. It then
rebinds each wrapped name wherever a qsc module imported it, so a call from a
sibling module (``welfare`` calling ``hilbert.support_probability``) is caught
too. Code that is not wrapped (private helpers, rule lambdas) is charged to the
nearest wrapped caller. Spans live in flat in-memory arrays and are written out
once, when the run ends.

A span's self time is its duration minus the time its child spans cover; a
layer's self time is the sum over its spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time
from array import array

LAYERS = ("rankings", "hilbert", "welfare", "choice", "axioms", "serde", "cli")
_NO_PARENT = -1


def _length(args, kwargs, result) -> int:
    return len(result)


def _text_bytes(args, kwargs, result) -> int:
    document = args[0] if args else kwargs.get("document")
    return len(document.encode("utf-8")) if isinstance(document, str) else 0


def _json_bytes(args, kwargs, result) -> int:
    return len(json.dumps(result, sort_keys=True))


# Sizes recorded with a span, computed after the span has closed.
SIZERS = {
    "hilbert.ProfileState.support_tuples": _length,
    "axioms.CandidateBallotFamily.ballots": _length,
    "serde.parse_profile": _text_bytes,
    "serde.serialize_alternative_state": _json_bytes,
    "serde.serialize_density": _json_bytes,
    "serde.serialize_profile": _json_bytes,
}


class Tracer:
    """In-memory span recorder for the qsc layers."""

    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.states_built = 0
        self._stack = [_NO_PARENT]

    def _wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        sizer = SIZERS.get(qualname)
        fids, parents, starts, ends, sizes = self.fid, self.parent, self.start, self.end, self.size
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            index = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            sizes.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if sizer is not None:
                sizes[index] = sizer(args, kwargs, result)
            return result

        functools.update_wrapper(span, fn)
        return span

    def _count_states(self, post_init):
        def counted(instance):
            self.states_built += 1
            post_init(instance)

        return counted

    def install(self) -> None:
        """Wrap the qsc layers in this process; call before any qsc work."""
        modules = {layer: importlib.import_module(f"qsc.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                    wrapper = self._wrap(f"{layer}.{name}", obj)
                    wrapped[id(obj)] = wrapper
                    setattr(module, name, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{name}", obj)
        hilbert = modules["hilbert"]
        hilbert.DensityOperator.__post_init__ = self._count_states(
            hilbert.DensityOperator.__post_init__
        )
        # Rebind names imported by sibling modules, and function fields of
        # module-level constants such as choice.NATURAL_EXTENSION.
        for module in [importlib.import_module("qsc"), *modules.values()]:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, name, wrapped[id(obj)])
                elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
                    for f in dataclasses.fields(obj):
                        value = getattr(obj, f.name)
                        if id(value) in wrapped:
                            object.__setattr__(obj, f.name, wrapped[id(value)])

    def _wrap_methods(self, prefix: str, cls) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(member):
                setattr(cls, name, self._wrap(f"{prefix}.{name}", member))
            elif isinstance(member, (classmethod, staticmethod)):
                setattr(cls, name, type(member)(self._wrap(f"{prefix}.{name}", member.__func__)))

    def spans(self):
        """Span arrays as numpy arrays: (name ids, parents, starts, ends, sizes)."""
        import numpy as np

        return (
            np.frombuffer(self.fid, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.size, dtype=np.int64),
        )

    def write(self, path: str) -> None:
        """Write every span, with the name table, to one ``.npz`` file."""
        import numpy as np

        fid, parent, start, end, size = self.spans()
        np.savez(
            path, names=np.array(self.names), fid=fid, parent=parent,
            start=start, end=end, size=size,
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times from the recorded spans."""
        import numpy as np

        fid, parent, start, end, size = self.spans()
        names = self.names
        n_names = len(names)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(fid))
        self_time = duration - child_time
        calls = np.bincount(fid, minlength=n_names)
        total_time = np.bincount(fid, weights=duration, minlength=n_names)
        name_index = {name: i for i, name in enumerate(names)}
        layer_of = np.array([LAYERS.index(name.split(".")[0]) for name in names])
        span_layer = layer_of[fid] if len(fid) else np.zeros(0, dtype=int)
        layer_calls = np.bincount(span_layer, minlength=len(LAYERS))
        layer_self = np.bincount(span_layer, weights=self_time, minlength=len(LAYERS))
        parent_fid = np.where(has_parent, fid[np.maximum(parent, 0)], -1)

        def ids(*qualnames):
            return [name_index[q] for q in qualnames]

        def count(*qualnames):
            return int(sum(calls[i] for i in ids(*qualnames)))

        def seconds(*qualnames):
            return float(sum(total_time[i] for i in ids(*qualnames)))

        def called_from(child: str, parent_ids) -> np.ndarray:
            return (fid == name_index[child]) & np.isin(parent_fid, parent_ids)

        layer = {name: float(layer_self[i]) for i, name in enumerate(LAYERS)}
        support = fid == name_index["hilbert.ProfileState.support_tuples"]
        qcv_id = ids("welfare.qcv")
        terms_in_qcv = int(size[called_from("hilbert.ProfileState.support_tuples", qcv_id)].sum())
        misses_in_qcv = int(called_from("welfare.qcv_basis", qcv_id).sum())
        axioms_ids = [i for i, name in enumerate(names) if name.startswith("axioms.")]
        society = ids("welfare.WelfareRule.evaluate", "choice.ChoiceRule.evaluate")
        society_evals = int(np.isin(fid, society)[np.isin(parent_fid, axioms_ids)].sum())
        serialize = [i for i, name in enumerate(names) if name.startswith("serde.serialize_")]
        outer_serialize = np.isin(fid, serialize) & ~np.isin(parent_fid, serialize)
        family = fid == name_index["axioms.CandidateBallotFamily.ballots"]
        parse = fid == name_index["serde.parse_profile"]
        return {
            "rankings.calls": int(layer_calls[LAYERS.index("rankings")]),
            "rankings.self_s": layer["rankings"],
            "hilbert.states_built": self.states_built,
            "hilbert.validate_density.calls": count("hilbert.validate_density"),
            "hilbert.validate_density.s": seconds("hilbert.validate_density"),
            "hilbert.support_probability.calls": count("hilbert.support_probability"),
            "hilbert.substitute_ballot.calls": count("hilbert.ProfileState.substitute_ballot"),
            "hilbert.partial_ballot.calls": count("hilbert.ProfileState.partial_ballot"),
            "hilbert.self_s": layer["hilbert"],
            "hilbert.support_tuples.calls": int(support.sum()),
            "hilbert.support_tuples.terms": int(size[support].sum()),
            "hilbert.support_tuples.max_terms": int(size[support].max(initial=0)),
            "welfare.qcv.calls": count("welfare.qcv"),
            "welfare.qcv_basis.calls": count("welfare.qcv_basis"),
            "welfare.qcv_basis.s": seconds("welfare.qcv_basis"),
            "welfare.self_s": layer["welfare"],
            "welfare.basis_cache.hit_ratio": (
                1.0 - misses_in_qcv / terms_in_qcv if terms_in_qcv else 0.0
            ),
            "choice.natural_extension.calls": count("choice.natural_extension"),
            "choice.self_s": layer["choice"],
            "axioms.society_evals": society_evals,
            "axioms.family_size": int(size[family].max(initial=0)),
            "axioms.family_build_s": float(duration[family].sum()),
            "axioms.self_s": layer["axioms"],
            "serde.parse_profile.s": float(duration[parse].sum()),
            "serde.bytes_in": int(size[parse].sum()),
            "serde.serialize.calls": int(np.isin(fid, serialize).sum()),
            "serde.serialize.s": float(duration[outer_serialize].sum()),
            "serde.bytes_out": int(size[outer_serialize].sum()),
            "cli.main.s": seconds("cli.main"),
            "cli.self_s": layer["cli"],
        }

"""In-memory span tracer for the traced benchmark run.

Spans are recorded by wrappers that the tracer installs over the names a
caller looks up at call time (for example ``drfs.oracle.fit_weighted_erm``
or ``drfs.solver.loss_value``), so nothing inside ``src/drfs`` changes.  A
span's name is ``<layer>.<function>`` where the layer is the module that
defines the callee.  Each span keeps its name, start, end, parent and the
op it belongs to; spans stay in flat arrays until the run ends.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable

import numpy as np

ROOT_SPAN = "bench.op"

# attrs(args, kwargs, result, exc) -> dict of per-span values, or None
AttrsFn = Callable[[tuple, dict, Any, BaseException | None], "dict | None"]


class Tracer:
    def __init__(self, sites: list[tuple[object, str, str, AttrsFn | None]]):
        """sites: (object whose attribute is looked up, attribute, span name, attrs)."""
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self.missing: list[str] = []
        self._stack = [-1]
        self._op = -1
        self._patches: list[tuple[object, str, Callable, Callable]] = []
        self._root = self._intern(ROOT_SPAN)
        for target, attr, name, attrs_fn in sites:
            original = getattr(target, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            self._patches.append((target, attr, original, self._wrap(original, name, attrs_fn)))

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op_id.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str, attrs_fn: AttrsFn | None) -> Callable:
        nid = self._intern(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                if attrs_fn is not None:
                    self._record(idx, attrs_fn(args, kwargs, None, exc))
                raise
            self._close(idx)
            if attrs_fn is not None:
                self._record(idx, attrs_fn(args, kwargs, result, None))
            return result

        return traced

    def _record(self, idx: int, values: dict | None) -> None:
        if values:
            self.attrs[idx] = values

    @contextmanager
    def op(self, op_index: int):
        """Install the wrappers and record one op under a root span."""
        for target, attr, _, wrapped in self._patches:
            setattr(target, attr, wrapped)
        self._op = op_index
        idx = self._open(self._root)
        try:
            yield
        finally:
            self._close(idx)
            self._op = -1
            for target, attr, original, _ in self._patches:
                setattr(target, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op_id": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Read-only view of a finished trace with per-op aggregation helpers.

    Every helper returns None when the spans it needs were never recorded,
    so a wrapped name that vanished or went uncalled never reads as zero.
    """

    def __init__(self, tracer: Tracer, op_ids: list[int]):
        a = tracer.arrays()
        self.names = tracer.names
        self.attrs = tracer.attrs
        self.missing = set(tracer.missing)
        self.name_id = a["name_id"]
        self.parent = a["parent"]
        self.duration = a["end"] - a["start"]
        child = np.bincount(self.parent[self.parent >= 0],
                            weights=self.duration[self.parent >= 0],
                            minlength=self.duration.size)
        self.self_time = self.duration - child
        layer_of_name = np.array([nm.split(".", 1)[0] for nm in self.names], dtype=object)
        self.layer = layer_of_name[self.name_id]
        self.ops = np.asarray(op_ids)
        # spans of failed or untraced ops carry no per-layer numbers
        self.valid = np.isin(a["op_id"], self.ops)
        self._op_pos = np.searchsorted(self.ops, a["op_id"])

    def mask(self, names: tuple[str, ...] = (), layer: str | None = None,
             parent_layer: str | None = None) -> np.ndarray | None:
        """Spans matching the names (or a whole layer); None if none exist."""
        if names and all(nm in self.missing for nm in names):
            return None
        if names:
            ids = [self.names.index(nm) for nm in names if nm in self.names]
            m = np.isin(self.name_id, ids)
        else:
            m = self.layer == layer
        m &= self.valid
        if parent_layer is not None:
            has_parent = self.parent >= 0
            parent_layer_arr = np.full(self.parent.size, None, dtype=object)
            parent_layer_arr[has_parent] = self.layer[self.parent[has_parent]]
            m &= parent_layer_arr == parent_layer
        return m if np.any(m) else None

    def per_op(self, mask: np.ndarray | None, values: np.ndarray) -> np.ndarray | None:
        if mask is None:
            return None
        return np.bincount(self._op_pos[mask], weights=values[mask],
                           minlength=self.ops.size)

    def per_op_median(self, mask, values) -> float | None:
        sums = self.per_op(mask, values)
        return None if sums is None else float(np.median(sums))

    def attr(self, mask: np.ndarray | None, key: str) -> np.ndarray | None:
        if mask is None:
            return None
        out = np.zeros(self.duration.size)
        for idx in np.nonzero(mask)[0]:
            out[idx] = self.attrs.get(int(idx), {}).get(key, 0.0)
        return out

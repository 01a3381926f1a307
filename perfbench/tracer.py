"""Spans around the public functions of cubezeta, installed from outside.

``Tracer`` wraps every public function (including ``lru_cache`` wrappers)
defined in the modules listed in ``MODULES`` and replaces it in every
``cubezeta`` module namespace that holds it, so calls made inside the
package through imported names are traced too.  Each call records a span
(name, start, end, parent) in memory; ``write`` saves them when the run ends.
Nothing in the package is edited and uninstalling restores every name.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

MODULES = ("congruence", "cube", "orbits", "wmds", "ppart", "identities", "quadring", "cli")


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__
        ):
            yield name, obj


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        # span i: name index, start, end (perf_counter seconds), parent span or -1
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.cubes_enumerated = 0
        self._stack: list[int] = []
        self._patches: list = []  # (namespace, attribute, original)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter
        counts_cubes = name == "cube.orbit_count_oracle"

        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counts_cubes:
                self.cubes_enumerated += result.cubes_enumerated
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        namespaces = [
            mod for key, mod in sys.modules.items()
            if key == "cubezeta" or key.startswith("cubezeta.")
        ]
        wrappers = {}
        for short in MODULES:
            module = sys.modules["cubezeta." + short]
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patches.append((namespace, attr, obj))
                    setattr(namespace, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()
        return False

    def __len__(self) -> int:
        return len(self.name_ids)

    def summary(self) -> dict:
        """{name: (calls, inclusive seconds, self seconds)} over all spans."""
        child_time = array("d", bytes(8 * len(self)))
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                child_time[parent] += end - start
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for name_id, start, end, child in zip(self.name_ids, self.starts, self.ends, child_time):
            calls[name_id] += 1
            total[name_id] += end - start
            own[name_id] += end - start - child
        return {
            name: (calls[i], total[i], own[i]) for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Spans as CSV: name, start, end (seconds), parent row (-1 for a root)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write("name,start_s,end_s,parent\n")
            for name_id, start, end, parent in zip(
                self.name_ids, self.starts, self.ends, self.parents
            ):
                handle.write(f"{self.names[name_id]},{start:.9f},{end:.9f},{parent}\n")

"""In-memory spans around calls into the library, and layer self times.

A span is (name, start, end, parent): `name` is "<layer>.<function>" for a
call into an isingdos module, or "bench.<what>" for the benchmark's own
grouping spans.  Spans stay in memory and are written out once, when the
run ends.  A layer's self time is the time its spans cover minus the part
their child spans cover.
"""

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self._open = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        """Durations of every closed span called `name`."""
        return [end - start for n, start, end, _ in self.spans if n == name]

    def layer_self_seconds(self, root: str) -> dict[str, float]:
        """Self seconds per layer, over spans under roots named `root`.

        Spans nest strictly (one thread, one stack), so a span's self time
        is its duration minus the durations of its direct children.
        """
        under = set()
        for i, (name, _, _, parent) in enumerate(self.spans):
            if name == root or parent in under:
                under.add(i)
        self_s = {i: self.spans[i][2] - self.spans[i][1] for i in under}
        for i in under:
            parent = self.spans[i][3]
            if parent in self_s:
                self_s[parent] -= self.spans[i][2] - self.spans[i][1]
        out = {}
        for i, secs in self_s.items():
            layer = self.spans[i][0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + secs
        return out

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]

"""The traced half of the benchmark: where the host wall time went.

A :class:`LayerSampler` is a stdlib statistical profiler.  A wall-clock
interval timer (``signal.setitimer(ITIMER_REAL)``) interrupts the run;
the handler walks the interrupted frame's stack and charges the wall
time since the previous sample:

* as **self** time to the ``repro`` package of the innermost ``repro``
  frame (``net``, ``sim``, ``floodgate`` ...), or to ``python`` when the
  stack holds no ``repro`` frame at all (interpreter start-up, the
  benchmark's own code);
* as **inclusive** time to every ``repro`` module file that appears
  anywhere on the stack, per span (``net/topology.py`` during build).

Each sample is weighted by the measured time since the previous one,
so the self times partition the sampled wall time exactly even when
the interpreter delays a signal (a garbage collection or a long C call
in progress).  cProfile is deliberately not used: it charges every
Python call, which triples the run time and shifts the split towards
call-heavy layers.

:class:`GcClock` times the collector through ``gc.callbacks``, and
:class:`Spans` records the benchmark's own build/run/summarize calls
and tells the sampler which span a sample fell in.
"""

from __future__ import annotations

import gc
import os
import signal
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: self time charged to code outside every ``repro`` package
PYTHON = "python"


class LayerSampler:
    """Samples the main thread's stack and charges time to packages."""

    def __init__(self, repro_dir: str, interval: float = 0.001) -> None:
        self.prefix = os.path.abspath(repro_dir) + os.sep
        self.interval = interval
        #: package -> seconds with that package's frame innermost
        self.self_s: Counter = Counter()
        #: (span, module path relative to repro/) -> inclusive seconds
        self.module_s: Counter = Counter()
        self.samples = 0
        #: the span the benchmark is in when a sample lands
        self.span = "other"
        self._files: Dict[str, Optional[Tuple[str, str]]] = {}
        self._last = 0.0
        self._previous_handler = None

    def _locate(self, filename: str) -> Optional[Tuple[str, str]]:
        """``(package, module path)`` of a repro source file, else None."""
        found = self._files.get(filename, ())
        if found == ():
            found = None
            if filename.startswith(self.prefix):
                rel = filename[len(self.prefix):].replace(os.sep, "/")
                package = rel.split("/", 1)[0] if "/" in rel else rel[:-3]
                found = (package, rel)
            self._files[filename] = found
        return found

    def _on_signal(self, signum, frame) -> None:
        now = time.perf_counter()
        weight = now - self._last
        self._last = now
        self.samples += 1
        innermost = None
        modules = set()
        while frame is not None:
            where = self._locate(frame.f_code.co_filename)
            if where is not None:
                if innermost is None:
                    innermost = where[0]
                modules.add(where[1])
            frame = frame.f_back
        self.self_s[innermost or PYTHON] += weight
        for module in modules:
            self.module_s[(self.span, module)] += weight

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_signal)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)

    @property
    def sampled_s(self) -> float:
        """Wall time the samples account for (sum of all self times)."""
        return sum(self.self_s.values())

    def module_inclusive(self, module: str, span: Optional[str] = None) -> float:
        """Inclusive seconds in one module (``"net/topology.py"``)."""
        return sum(
            secs
            for (sp, mod), secs in self.module_s.items()
            if mod == module and (span is None or sp == span)
        )


class GcClock:
    """Times every garbage collection through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._began = 0.0

    def _callback(self, phase: str, info) -> None:
        if phase == "start":
            self._began = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._began
            self.collections += 1

    def start(self) -> None:
        gc.callbacks.append(self._callback)

    def stop(self) -> None:
        gc.callbacks.remove(self._callback)


class Spans:
    """The benchmark's spans around its calls into the program.

    Spans do not nest: the benchmark's build, run and summarize calls
    follow one another.
    """

    def __init__(self, sampler: Optional[LayerSampler] = None) -> None:
        self.sampler = sampler
        #: (name, start, end) in perf_counter seconds
        self.records: List[Tuple[str, float, float]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if self.sampler is not None:
            self.sampler.span = name
        start = time.perf_counter()
        try:
            yield
        finally:
            self.records.append((name, start, time.perf_counter()))
            if self.sampler is not None:
                self.sampler.span = "other"

    def total(self, name: Optional[str] = None) -> float:
        """Seconds in spans called ``name`` (in every span if None)."""
        return sum(
            end - start for n, start, end in self.records if name in (None, n)
        )

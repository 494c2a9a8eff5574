"""In-memory spans around the public functions of rwtv's modules.

:meth:`Tracer.install` replaces every public function of the traced
modules, wherever a module of the package holds a reference to it (so
``from .slp import slp_recover`` call sites are traced too), and the
constructor of ``Graph``. Each call records one span: name, start, end,
the index of the span that was open when it began, and a few numbers read
from the arguments or the result. :meth:`Tracer.uninstall` puts the
original functions back.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import types

MODULES = ("graph", "synth", "sampling", "slp", "fileio", "experiments", "cli")


def _cfg_max_iterations(args, kwargs):
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    return cfg.max_iterations if cfg is not None else None


class Tracer:
    def __init__(self, keep_solve=None):
        """``keep_solve(index)`` says which ``slp_recover`` calls, counted
        from 0, keep their problem and result for an offline optimum."""
        self.spans = []
        self.solves = []
        self._keep_solve = keep_solve or (lambda index: False)
        self._solve_index = 0
        self._stack = []
        self._patches = []
        self._line_counts = {}

    # -------------------------------------------------------------- install

    def install(self):
        import rwtv

        mods = [importlib.import_module(f"rwtv.{m}") for m in MODULES]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for mod in [rwtv, *mods]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, name, wrappers[id(obj)])
        graph = importlib.import_module("rwtv.graph")
        self._patch(graph.Graph, "__init__", self._wrap("graph.Graph", graph.Graph.__init__))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    # -------------------------------------------------------------- spans

    def _wrap(self, name, fn):
        info = getattr(self, "_info_" + name.replace(".", "_"), None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if info:
                spans[index] = (name, start, end, parent, info(args, kwargs, result))
            return result

        return traced

    def _info_slp_slp_recover(self, args, kwargs, result):
        if self._keep_solve(self._solve_index):
            g, m, samples = args[:3]
            self.solves.append((g, m.nodes, samples, result.recovered))
        self._solve_index += 1
        return result.iterations_run, _cfg_max_iterations(args, kwargs)

    def _info_sampling_random_walk(self, args, kwargs, result):
        return len(result)

    def _info_sampling_random_walk_sampling(self, args, kwargs, result):
        return len(result)

    def _info_cli_main(self, args, kwargs, result):
        argv = args[0] if args else kwargs.get("argv")
        return argv[0] if argv else None

    def _info_fileio_parse_edge_list(self, args, kwargs, result):
        # counted after the span ends; each version of a file is read once
        path = getattr(args[0], "name", None)
        if not isinstance(path, str):
            return None
        st = os.stat(path)
        key = (path, st.st_size, st.st_mtime_ns)
        if key not in self._line_counts:
            with open(path, "rb") as fh:
                self._line_counts[key] = fh.read().count(b"\n")
        return self._line_counts[key]

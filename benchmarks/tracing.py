"""Per-layer tracing from outside the program.

The tracer replaces ecoinfer's public functions, in memory, at every
attribute a caller looks them up through (``ecoinfer.pipeline.train_forest``,
``ecoinfer.cli.load_ensemble``, ``RandomForest.predict``, ...). Each wrapped
call records a span ``(name, start, end, parent, iteration)``; counts are
taken from the arguments and return values. Spans stay in memory until the
run ends. Nothing in ``src/`` knows about any of this, and untraced
iterations run the pristine functions.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

import numpy as np

LAYER_MODULES = ("synth", "aggregate", "reconstruct", "similarity", "forest",
                 "tabular", "pipeline", "cli")

# (unit, better) of every per-layer metric, in report order.
PER_LAYER = {
    "reconstruct.reconstruct.calls": ("count", "lower"),
    "reconstruct.reconstruct.s": ("s", "lower"),
    "reconstruct.generate_candidates.self_s": ("s", "lower"),
    "reconstruct.attempts": ("count", "lower"),
    "reconstruct.accept_ratio": ("ratio", "higher"),
    "reconstruct.save_candidates.s": ("s", "lower"),
    "reconstruct.load_candidates.s": ("s", "lower"),
    "similarity.match_rows.calls": ("count", "lower"),
    "similarity.greedy.s": ("s", "lower"),
    "similarity.exact.s": ("s", "lower"),
    "similarity.exact_match_fraction.s": ("s", "lower"),
    "similarity.joint_normalize.calls": ("count", "lower"),
    "forest.train_forest.s": ("s", "lower"),
    "forest.trees": ("count", "lower"),
    "forest.nodes": ("count", "lower"),
    "forest.max_depth": ("count", "lower"),
    "forest.distinct_row_share": ("ratio", "lower"),
    "forest.predict.s": ("s", "lower"),
    "forest.rows_predicted": ("count", "lower"),
    "forest.save_ensemble.s": ("s", "lower"),
    "forest.load_ensemble.s": ("s", "lower"),
    "forest.ensemble_bytes": ("B", "lower"),
    "tabular.to_csv.s": ("s", "lower"),
    "tabular.csv_bytes_written": ("B", "lower"),
    "tabular.from_csv.s": ("s", "lower"),
    "tabular.csv_bytes_read": ("B", "lower"),
    "tabular.to_matrix.calls": ("count", "lower"),
    "synth.generate_ground_truth.s": ("s", "lower"),
    "aggregate.summarize.s": ("s", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace_overhead_s": ("s", "lower"),
}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


class Tracer:
    """Span recorder that patches ecoinfer while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, iteration]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.forests: dict[int, list] = defaultdict(list)  # (data, forest)
        self._stack: list[int] = []
        self._iteration = 0
        self._patched: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else -1,
                    tracer._iteration]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer.counts[tracer._iteration], args, kwargs, result)
            return result
        return traced

    def _count(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[tracer._iteration][key] += 1
            return fn(*args, **kwargs)
        return counted

    def _keep_forest(self, counts, args, kwargs, result):
        self.forests[self._iteration].append(
            (_arg(args, kwargs, 0, "data"), result))

    # --- installation ----------------------------------------------------

    def _wrappers(self):
        # The package re-exports functions named like some of its modules
        # (``ecoinfer.reconstruct``), so look the modules up by full name.
        modules = [importlib.import_module(f"ecoinfer.{m}")
                   for m in LAYER_MODULES]
        (synth, aggregate, reconstruct, similarity, forest, tabular, pipeline,
         cli) = modules

        def attempts(c, args, kwargs, cs):
            c["attempts"] += cs.attempts_used
            c["accepted"] += len(cs.candidates)

        def csv_written(c, args, kwargs, _):
            c["csv_bytes_written"] += _file_size(_arg(args, kwargs, 1, "path"))

        def csv_read(c, args, kwargs, _):
            # args[0] is the class: from_csv is wrapped as a classmethod
            c["csv_bytes_read"] += _file_size(_arg(args, kwargs, 1, "path"))

        def rows_predicted(c, args, kwargs, _):
            c["rows_predicted"] += len(_arg(args, kwargs, 1, "X"))

        def ensemble_bytes(c, args, kwargs, _):
            c["ensemble_bytes"] += _file_size(_arg(args, kwargs, 1, "path"))

        def match_name(args, kwargs):
            method = _arg(args, kwargs, 2, "method") or similarity.GREEDY_RANK
            return f"similarity.match_rows.{method}"

        functions = {
            reconstruct.reconstruct: ("reconstruct.reconstruct", None),
            reconstruct.generate_candidates:
                ("reconstruct.generate_candidates", attempts),
            reconstruct.save_candidates: ("reconstruct.save_candidates", None),
            reconstruct.load_candidates: ("reconstruct.load_candidates", None),
            similarity.match_rows: (match_name, None),
            similarity.joint_normalize: ("similarity.joint_normalize", None),
            similarity.exact_match_fraction:
                ("similarity.exact_match_fraction", None),
            forest.train_forest: ("forest.train_forest", self._keep_forest),
            forest.save_ensemble: ("forest.save_ensemble", ensemble_bytes),
            forest.load_ensemble: ("forest.load_ensemble", None),
            synth.generate_ground_truth: ("synth.generate_ground_truth", None),
            aggregate.summarize: ("aggregate.summarize", None),
            pipeline.run_experiment: ("pipeline.run_experiment", None),
            cli.main: ("cli.main", None),
        }
        # Every module attribute bound to one of these functions is a place
        # a caller looks it up; wrap each of them.
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                try:
                    entry = functions.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if entry is not None:
                    yield mod, attr, self._span(entry[0], value, entry[1])

        yield (forest.RandomForest, "predict",
               self._span("forest.predict", forest.RandomForest.predict,
                          rows_predicted))
        Dataset = tabular.Dataset
        yield Dataset, "to_csv", self._span("tabular.to_csv", Dataset.to_csv,
                                            csv_written)
        yield (Dataset, "from_csv",
               classmethod(self._span("tabular.from_csv",
                                      vars(Dataset)["from_csv"].__func__,
                                      csv_read)))
        yield Dataset, "to_matrix", self._count("to_matrix_calls",
                                                Dataset.to_matrix)

    def install(self, iteration: int) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._iteration = iteration
        for owner, attr, wrapper in list(self._wrappers()):
            self._patched.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --- reduction ----------------------------------------------------------

    def layer_metrics(self, iteration: int) -> dict[str, float]:
        """Per-layer metrics of one traced iteration (tracer uninstalled)."""
        if self._patched:
            raise RuntimeError("uninstall the tracer before reducing")
        total: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, parent, it) in enumerate(self.spans):
            if it != iteration:
                continue
            d = end - start
            total[name] += d
            self_time[name] += d
            calls[name] += 1
            if parent >= 0:
                self_time[self.spans[parent][0]] -= d
        c = self.counts[iteration]
        trees = nodes = depth = 0
        shares = []
        for data, model in self.forests[iteration]:
            trees += len(model.trees)
            nodes += sum(len(t.nodes) for t in model.trees)
            depth = max([depth] + [t.depth() for t in model.trees])
            X = data.to_matrix(data.schema.feature_names)
            shares.append(len(np.unique(X, axis=0)) / max(1, len(X)))
        greedy = "similarity.match_rows.greedy_rank"
        exact = "similarity.match_rows.exact_assignment"
        return {
            "reconstruct.reconstruct.calls": calls["reconstruct.reconstruct"],
            "reconstruct.reconstruct.s": total["reconstruct.reconstruct"],
            "reconstruct.generate_candidates.self_s":
                self_time["reconstruct.generate_candidates"],
            "reconstruct.attempts": c["attempts"],
            "reconstruct.accept_ratio":
                c["accepted"] / c["attempts"] if c["attempts"] else 0.0,
            "reconstruct.save_candidates.s":
                total["reconstruct.save_candidates"],
            "reconstruct.load_candidates.s":
                total["reconstruct.load_candidates"],
            "similarity.match_rows.calls":
                sum(v for k, v in calls.items()
                    if k.startswith("similarity.match_rows.")),
            "similarity.greedy.s": total[greedy],
            "similarity.exact.s": total[exact],
            "similarity.exact_match_fraction.s":
                total["similarity.exact_match_fraction"],
            "similarity.joint_normalize.calls":
                calls["similarity.joint_normalize"],
            "forest.train_forest.s": total["forest.train_forest"],
            "forest.trees": trees,
            "forest.nodes": nodes,
            "forest.max_depth": depth,
            "forest.distinct_row_share":
                sum(shares) / len(shares) if shares else 0.0,
            "forest.predict.s": total["forest.predict"],
            "forest.rows_predicted": c["rows_predicted"],
            "forest.save_ensemble.s": total["forest.save_ensemble"],
            "forest.load_ensemble.s": total["forest.load_ensemble"],
            "forest.ensemble_bytes": c["ensemble_bytes"],
            "tabular.to_csv.s": total["tabular.to_csv"],
            "tabular.csv_bytes_written": c["csv_bytes_written"],
            "tabular.from_csv.s": total["tabular.from_csv"],
            "tabular.csv_bytes_read": c["csv_bytes_read"],
            "tabular.to_matrix.calls": c["to_matrix_calls"],
            "synth.generate_ground_truth.s":
                total["synth.generate_ground_truth"],
            "aggregate.summarize.s": total["aggregate.summarize"],
            "pipeline.self_s": self_time["pipeline.run_experiment"],
            "cli.self_s": self_time["cli.main"],
        }

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "iteration": i}
                for n, s, e, p, i in self.spans]


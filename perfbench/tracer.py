"""Spans around fedcalib's public functions, recorded from outside the program.

``Tracer.wrap`` replaces a module or class attribute with a wrapper that
records one span per call: name, start, end, parent span and run id. A
function that ``runner`` or ``federation`` imported with ``from .x import f``
is looked up in the importing module, so it is wrapped there as well as in
its home module. Spans stay in memory until the run ends; ``uninstall`` puts
every original attribute back.

Self time is a span's duration minus the part of it covered by its direct
children. The program runs single-threaded (``threads=1``), so spans nest
strictly and the direct children never overlap.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import tracemalloc

# span record layout (lists, so a wrapper can fill in the end in place)
NAME, START, END, PARENT, EXTRA = range(5)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def wrap(self, owner, attr: str, name: str, extra=None, alloc: bool = False) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``extra(args, result)`` stores a per-call count on the span;
        ``alloc`` stores the tracemalloc peak (MB) of the call instead.
        Attributes the program no longer has are skipped.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            if alloc:
                tracemalloc.start()
            span[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if alloc:
                    span[EXTRA] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if extra is not None:
                span[EXTRA] = extra(args, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON array per span: run id, index, parent, name, start ns, end ns."""
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps([self.run_id, index, span[PARENT], span[NAME], span[START], span[END]]))
                fh.write("\n")

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, extras."""
        spans = self.spans
        covered = [0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        out: dict = {}
        for span, child_ns in zip(spans, covered):
            entry = out.setdefault(span[NAME], {"calls": 0, "total_ns": 0, "self_ns": 0, "extras": []})
            entry["calls"] += 1
            entry["total_ns"] += span[END] - span[START]
            entry["self_ns"] += span[END] - span[START] - child_ns
            if span[EXTRA] is not None:
                entry["extras"].append(span[EXTRA])
        return out


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are taken at."""
    from fedcalib import calibration, datagen, federation, losses, model, numerics, partition, runner

    def forward_rows(args, result):
        # (image rows, text rows): the text stack runs once per class per call
        return len(args[1]), args[0].config.class_count

    def steps(args, result):
        return result[1]

    def report_rows(args, result):
        return args[0].n

    for mod in (runner, datagen):
        tracer.wrap(mod, "generate_synthetic", "datagen.generate")
    for mod in (runner, partition):
        for fn in ("dirichlet_partition", "sort_and_partition", "domain_partition", "base_to_new_split"):
            tracer.wrap(mod, fn, "partition.plan")
    for mod in (runner, federation):
        tracer.wrap(mod, "build_clients", "federation.build_clients", alloc=True)
        tracer.wrap(mod, "run_round", "runner.round")
        tracer.wrap(mod, "personalized_evaluate", "federation.evaluate")
        tracer.wrap(mod, "evaluate_base_new", "federation.evaluate")
    for mod in (runner, federation, calibration):
        tracer.wrap(mod, "calibration_report", "calibration.report", extra=report_rows)
    for mod in (model, losses):
        tracer.wrap(mod, "total_loss", "losses.loss")
    for mod in (federation, model):
        tracer.wrap(mod, "weight_drift", "model.drift")
    tracer.wrap(runner, "run_single", "runner.run_single")
    tracer.wrap(runner, "render_outputs", "runner.serialize")
    tracer.wrap(runner, "_write_all", "runner.serialize")
    tracer.wrap(federation, "local_train", "federation.local_train", extra=steps)
    tracer.wrap(federation, "aggregate", "federation.aggregate")
    tracer.wrap(federation, "evaluate_client", "federation.evaluate_client")
    tracer.wrap(model.DualEncoderModel, "forward", "model.forward", extra=forward_rows)
    tracer.wrap(model.DualEncoderModel, "backward", "model.backward")
    for fn in ("load_trainable", "trainable_vector", "grad_vector", "trainable_size"):
        tracer.wrap(model.DualEncoderModel, fn, "model.transport")
    tracer.wrap(numerics.RngStream, "random", "numerics.random")


def layer_metrics(tracer: Tracer, run_s: float, results_bytes: int) -> dict:
    """Per-layer metrics of one traced run, keyed by metric name."""
    t = tracer.totals()

    def get(name, key="self_ns"):
        return t.get(name, {}).get(key, 0)

    def secs(name, key="self_ns"):
        return get(name, key) / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    spans = tracer.spans
    dropout = [s for s in spans if s[NAME] == "numerics.random" and s[PARENT] >= 0
               and spans[s[PARENT]][NAME] == "model.forward"]
    # numerics.random has no wrapped children, so its self time is its duration
    dropout_ns = sum(s[END] - s[START] for s in dropout)
    forward = t.get("model.forward", {"calls": 0, "extras": []})
    forward_rows = sum(rows for rows, _ in forward["extras"])
    text_rows = sum(rows for _, rows in forward["extras"])
    steps = sum(t.get("federation.local_train", {"extras": []})["extras"])
    rounds = [s[END] - s[START] for s in spans if s[NAME] == "runner.round"]
    reports = t.get("calibration.report", {"calls": 0, "extras": []})
    alloc = t.get("federation.build_clients", {"extras": []})["extras"]
    return {
        "datagen.generate_s": secs("datagen.generate"),
        "partition.plan_s": secs("partition.plan"),
        "federation.build_clients_s": secs("federation.build_clients"),
        "federation.build_clients_alloc_mb": max(alloc, default=0.0),
        "model.forward_calls": forward["calls"],
        "model.forward_s": secs("model.forward"),
        "model.forward_rows": forward_rows,
        "model.text_rows_per_image_row": ratio(text_rows, forward_rows),
        "model.backward_calls": get("model.backward", "calls"),
        "model.backward_s": secs("model.backward"),
        "numerics.dropout_draws": len(dropout),
        "numerics.dropout_s": dropout_ns / 1e9,
        "losses.loss_calls": get("losses.loss", "calls"),
        "losses.loss_s": secs("losses.loss"),
        "model.transport_calls": get("model.transport", "calls"),
        "model.transport_s": secs("model.transport"),
        "model.transport_calls_per_step": ratio(get("model.transport", "calls"), steps),
        "model.drift_s": secs("model.drift"),
        "federation.local_steps": steps,
        "federation.local_train_s": secs("federation.local_train"),
        "federation.step_ms": ratio(get("federation.local_train", "total_ns") / 1e6, steps),
        "federation.aggregate_s": secs("federation.aggregate"),
        "federation.evaluate_calls": get("federation.evaluate_client", "calls"),
        "federation.evaluate_s": secs("federation.evaluate") + secs("federation.evaluate_client"),
        "federation.evaluate_share": ratio(secs("federation.evaluate", "total_ns"), run_s),
        "calibration.report_calls": reports["calls"],
        "calibration.report_s": secs("calibration.report"),
        "calibration.rows_per_report": ratio(sum(reports["extras"]), reports["calls"]),
        "runner.round_s": statistics.median(rounds) / 1e9 if rounds else 0.0,
        "runner.serialize_s": secs("runner.serialize"),
        "runner.results_bytes": results_bytes,
    }

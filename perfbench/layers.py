"""Per-layer metrics of a traced run.

Self times come from the spans the traced servers recorded (``tracer.py``);
counts come from ``GET /v1/stats``, the answers' ``QueryStats`` and the
client's own byte counts.  Read-path times are per query answered,
write-path times per acknowledged mutation, snapshot times per call.

Each layer, the end-to-end metric it should move, the benchmark workload
where it works hardest and one where it does little (checked against the
traced runs in ``results/traced.jsonl``, which also hold a traced run of
``lastfm-minhash``, the runnable workload outside the benchmark):

- server (``repro.server``, HTTP/JSON codec): ``sample_p50_ms``;
  ``clustered-dense`` (24-dimensional vectors in every body) /
  ``churn-durable``.  Bodies are biggest on ``lastfm-minhash``.
- api (``repro.api``, facade and mutation lock): ``insert_p50_ms``;
  ``churn-durable`` (mutations there wait for the lock) /
  ``clustered-dense``.
- engine and lsh.hash (``repro.engine.batch``): ``batch_qps``; hashing on
  ``churn-durable`` (two samplers), coalescing on ``clustered-dense`` /
  hashing is light on ``clustered-dense`` (L=10), coalescing is zero on
  ``churn-durable`` (every user once per pass).
- lsh lookup and fit (``repro.lsh``): ``batch_qps``, ``sample_p50_ms``,
  ``setup_s``; ``clustered-dense`` (big buckets) / ``churn-durable``.
  Lookup dominates ``lastfm-minhash`` (L=373).
- gather (``repro.engine.gather``, ``repro.engine.sharded``): ``batch_qps``;
  ``churn-durable`` (``perm``) / ``clustered-dense`` (zero: unsharded).
- core (samplers): ``batch_qps`` (dedupe), ``sample_p50_ms`` (rejection
  loop); ``clustered-dense`` (dedupe) and ``churn-durable`` (rejection
  loop) / light only on ``lastfm-minhash``.
- distances (kernels): ``batch_qps``; ``churn-durable`` / ``clustered-dense``.
- store: ``batch_qps``, ``peak_rss_mb``; ``churn-durable`` (memmap) /
  ``clustered-dense``.
- wal: ``insert_p50_ms``; ``churn-durable`` / ``clustered-dense`` (zero:
  served in RAM).
- dynamic (tables and sketches): ``insert_p50_ms``, ``batch_qps``; sketch
  resync and compactions on ``churn-durable`` (every bucket sketch is
  rebuilt when the other sampler consumed the mutation record) /
  ``clustered-dense`` (inserts only).
- snapshot: ``snapshot.checkpoint_s``, ``snapshot.recover_s`` (the
  checkpoint and kill-to-ready times, reported here and not gated: too
  noisy on the defining host); ``churn-durable`` / ``clustered-dense``
  (zero).
- bench: the validity of the run itself (generator lag, trace overhead,
  share of the traced window the server was busy).
"""

from __future__ import annotations

import numpy as np

import tracer

PER_LAYER_UNITS = {
    "server.self_ms": "ms/request",
    "server.req_bytes": "B/request",
    "server.resp_bytes": "B/request",
    "api.run_self_ms": "ms/query",
    "api.mutate_self_ms": "ms/mutation",
    "engine.self_ms": "ms/query",
    "engine.sync_ms": "ms/query",
    "engine.coalesced_ratio": "ratio",
    "engine.key_cache_hits": "1/query",
    "lsh.hash_ms": "ms/query",
    "lsh.lookup_ms": "ms/query",
    "lsh.lookup_calls": "1/query",
    "lsh.buckets_probed_per_query": "1/query",
    "lsh.fit_ms": "ms",
    "gather.prefix_ms": "ms/query",
    "gather.merge_ms": "ms/query",
    "gather.prefix_scans": "1/query",
    "gather.escalation_ratio": "ratio",
    "gather.prefix_budget": "count",
    "core.self_ms": "ms/query",
    "core.candidates_per_query": "1/query",
    "core.rounds_per_query": "1/query",
    "distances.kernel_ms": "ms/query",
    "distances.kernel_calls": "1/query",
    "distances.evals_per_query": "1/query",
    "store.gather_ms": "ms/query",
    "store.gather_calls": "1/query",
    "store.bytes_gathered": "B/query",
    "store.cache_hit_ratio": "ratio",
    "wal.append_ms": "ms/mutation",
    "wal.bytes_per_record": "B/record",
    "dynamic.insert_ms": "ms/insert",
    "dynamic.delete_ms": "ms/delete",
    "dynamic.compactions": "count",
    "dynamic.sketch_sync_ms": "ms/mutation",
    "snapshot.save_ms": "ms",
    "snapshot.bytes": "B",
    "snapshot.load_ms": "ms",
    "snapshot.replay_ms": "ms",
    "snapshot.checkpoint_s": "s",
    "snapshot.recover_s": "s",
    "bench.gen_lag_p90_ms": "ms",
    "bench.trace_overhead_ratio": "ratio",
    "bench.traced_busy_share": "ratio",
}


def _ratio(numerator, denominator):
    return float(numerator) / denominator if denominator else 0.0


def _directory_bytes(path):
    from pathlib import Path

    root = Path(path)
    return sum(f.stat().st_size for f in root.rglob("*") if f.is_file()) if root.is_dir() else 0


def _split(spans, ready_ns):
    """Spans that started before the server was ready (setup) and after."""
    if len(spans) == 0:
        return spans, spans
    setup = spans[:, 1] < ready_ns
    return spans[setup], spans[~setup]


def per_layer_metrics(run, main, recovered, stats, open_calls, batches, overhead_batches,
                      checkpoint):
    """Return ``(layer summary, metrics)`` for a traced run."""
    spans, names, counters = tracer.load(main.trace)
    setup_spans, serving_spans = _split(spans, main.ready_ns)
    self_ms, total_ms, calls, wall_ms = tracer.self_times(serving_spans, names)
    setup_self, _, _, _ = tracer.self_times(setup_spans, names)
    recover_self, recover_total = {}, {}
    if recovered is not None:  # durable workloads only
        r_spans, r_names, _ = tracer.load(recovered.trace)
        recover_self, recover_total, _, _ = tracer.self_times(r_spans, r_names)
    # The traced serving window: first serving span start to last end.
    window_ms = (
        (serving_spans[:, 2].max() - serving_spans[:, 1].min()) / 1e6 if len(serving_spans) else 0.0
    )

    served = ("probes", "warmup", "closed", "open", "singles", "mixed", "checkpoint", "wal-suffix")
    main_phases = [run.phases[name] for name in served if name in run.phases]
    reads = sum(phase["queries"] for phase in main_phases)
    requests = sum(phase["sent"] for phase in main_phases)
    sent_bytes = sum(phase["bytes_sent"] for phase in main_phases)
    received_bytes = sum(phase["bytes_received"] for phase in main_phases)
    inserts = run.oracle.acked_inserts // 4
    deletes = run.oracle.acked_deletes
    mutations = inserts + deletes
    counters_sum = {}
    budgets = []
    for engine in stats["samplers"].values():
        for key, value in engine["counters"].items():
            counters_sum[key] = counters_sum.get(key, 0) + value
        budgets.append(engine["counters"]["prefix_budget"])
    read_stats = run.read_stats

    def mean_stat(key):
        return float(np.mean([s[key] for s in read_stats])) if read_stats else 0.0

    per_query = lambda name: _ratio(self_ms.get(name, 0.0), reads)  # noqa: E731
    per_mutation = lambda name: _ratio(self_ms.get(name, 0.0), mutations)  # noqa: E731
    lags = [(c.sent - c.due) * 1e3 for c in open_calls]
    traced = [c.done - c.sent for c in batches if c.ok]
    untraced = [c.done - c.sent for c in overhead_batches if c.ok]
    paired = min(len(traced), len(untraced))
    checkpoint_dir = checkpoint.body.get("checkpoint") if checkpoint and checkpoint.ok else None
    cache_hits = counters_sum.get("store_cache_hits", 0)
    cache_total = cache_hits + counters_sum.get("store_cache_misses", 0)
    metrics = {
        "server.self_ms": _ratio(self_ms.get("server", 0.0), requests),
        "server.req_bytes": _ratio(sent_bytes, requests),
        "server.resp_bytes": _ratio(received_bytes, requests),
        "api.run_self_ms": per_query("api.run"),
        "api.mutate_self_ms": per_mutation("api.mutate"),
        "engine.self_ms": per_query("engine"),
        "engine.sync_ms": per_query("engine.sync"),
        "engine.coalesced_ratio": _ratio(
            counters_sum.get("coalesced_queries", 0), counters_sum.get("queries_served", 0)
        ),
        "engine.key_cache_hits": _ratio(counters_sum.get("key_cache_hits", 0), reads),
        "lsh.hash_ms": per_query("lsh.hash"),
        "lsh.lookup_ms": per_query("lsh.lookup"),
        "lsh.lookup_calls": _ratio(calls.get("lsh.lookup", 0), reads),
        "lsh.buckets_probed_per_query": mean_stat("buckets_probed"),
        "lsh.fit_ms": setup_self.get("lsh.fit", 0.0),
        "gather.prefix_ms": per_query("gather.prefix"),
        "gather.merge_ms": per_query("gather.merge"),
        "gather.prefix_scans": _ratio(counters_sum.get("prefix_scans", 0), reads),
        "gather.escalation_ratio": _ratio(
            counters_sum.get("prefix_escalations", 0), counters_sum.get("prefix_scans", 0)
        ),
        "gather.prefix_budget": float(max(budgets) if budgets else 0),
        "core.self_ms": per_query("core"),
        "core.candidates_per_query": mean_stat("candidates_examined"),
        "core.rounds_per_query": mean_stat("rounds"),
        "distances.kernel_ms": per_query("distances.kernel"),
        "distances.kernel_calls": _ratio(calls.get("distances.kernel", 0), reads),
        "distances.evals_per_query": mean_stat("distance_evaluations"),
        "store.gather_ms": per_query("store.gather"),
        "store.gather_calls": _ratio(calls.get("store.gather", 0), reads),
        "store.bytes_gathered": _ratio(counters.get("store.bytes_gathered", 0.0), reads),
        "store.cache_hit_ratio": _ratio(cache_hits, cache_total),
        "wal.append_ms": per_mutation("wal.append"),
        "wal.bytes_per_record": _ratio(
            counters.get("wal.appended_bytes", 0.0), counters.get("wal.appended_records", 0.0)
        ),
        "dynamic.insert_ms": _ratio(self_ms.get("dynamic.insert", 0.0), inserts),
        "dynamic.delete_ms": _ratio(self_ms.get("dynamic.delete", 0.0), deletes),
        "dynamic.compactions": float(calls.get("dynamic.compact", 0)),
        "dynamic.sketch_sync_ms": per_mutation("dynamic.sketch_sync"),
        "snapshot.save_ms": _ratio(
            total_ms.get("snapshot.save", 0.0), calls.get("snapshot.save", 0)
        ),
        "snapshot.bytes": float(_directory_bytes(checkpoint_dir)) if checkpoint_dir else 0.0,
        "snapshot.load_ms": recover_total.get("snapshot.load", 0.0),
        "snapshot.replay_ms": recover_total.get("api.recover", 0.0)
        - recover_total.get("snapshot.load", 0.0),
        "snapshot.checkpoint_s": run.metrics.get("checkpoint_s", 0.0),
        "snapshot.recover_s": run.metrics.get("recover_s", 0.0),
        "bench.gen_lag_p90_ms": float(np.percentile(lags, 90)) if lags else 0.0,
        # Total time of the same batches, traced over untraced.  The two
        # servers run at different times, so host drift shows here too.
        "bench.trace_overhead_ratio": _ratio(sum(traced[:paired]), sum(untraced[:paired])),
        "bench.traced_busy_share": _ratio(sum(self_ms.values()), window_ms),
    }
    summary = {
        "serving_window_ms": window_ms,
        "serving_busy_ms": wall_ms,
        "reads": reads,
        "mutations": mutations,
        "self_ms": {name: round(value, 3) for name, value in sorted(self_ms.items())},
        "share": {
            name: round(_ratio(value, sum(self_ms.values())), 4)
            for name, value in sorted(self_ms.items())
        },
        "calls": {name: int(count) for name, count in sorted(calls.items())},
        "setup_self_ms": {name: round(v, 3) for name, v in sorted(setup_self.items())},
        "recovery_self_ms": {name: round(v, 3) for name, v in sorted(recover_self.items())},
        "traced_batch_s": [round(t, 4) for t in traced[:paired]],
        "untraced_batch_s": [round(t, 4) for t in untraced[:paired]],
    }
    run.units = PER_LAYER_UNITS
    return summary, metrics

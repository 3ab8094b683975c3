"""End-to-end serving benchmark of the ``repro`` HTTP front end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload churn-durable --seed 1 --seconds 36 --trace 0

For the chosen workload (see ``workloads.py``) it generates the inputs from
``--seed``, starts ``repro.server`` in its own process (``launcher.py``) and
drives it from this process:

1. setup: launch -> ``/healthz`` ready (three launches, median reported);
2. probes: a batch the ``permutation`` sampler must answer byte-identically
   to an in-process ``FairNN.from_spec(spec).serve(points)`` reference;
3. a warm-up round, then as many rounds as fill about ``--seconds`` at
   the speed measured when the benchmark was defined.  A round is an
   open-loop segment of mutations, one closed-loop cycle (one read batch
   per sampler in ``batch_samplers``, each preceded by one mutation on
   ``churn-durable``), an open-loop segment of single reads, and closed-loop
   singles: ``SINGLE_READS`` reads, then ``SINGLE_MUTATIONS`` mutations,
   each sent when the last answered.  Open-loop segments run at the
   workload's fixed rates over two connections and are timed from when
   each request was due.  So every metric samples the whole run, reads
   follow writes all through it, and no read overlaps a write (see defect 1
   below);
4. on ``churn-overlap`` only, a mixed schedule (0.4 of ``--seconds``) that
   interleaves singles to both samplers with mutations, so that reads
   overlap writes.  Its calls are judged like all others; its latencies
   are only recorded;
5. on the durable workloads, one timed ``/v1/admin/checkpoint`` call, then
   a fixed suffix of 30 mutations for recovery to replay;
6. there, SIGKILL, then a timed restart through
   ``FairNNServer.from_data_dir``; the probes must answer as before the
   kill and the live count must equal the acknowledged mutations.

The end-to-end metrics are the setup time, the read batches' queries per
second, the medians of the closed-loop single reads and inserts, and the
server's peak resident memory.  The closed-loop delete median is recorded,
not reported: a delete takes about 2 ms, mostly the HTTP exchange and the
host's scheduling, and its spread over ten runs reached 0.25 of its median.  The open loop's percentiles are
recorded with every run (``latency_p10_p50_p90_ms``, beside the closed
loop's), as are the checkpoint and recovery times, but none of them is
reported as a metric: their spread over runs on the host the benchmark was
defined on (2 cores of a shared host whose speed swings by a quarter from
second to second and by up to a half for minutes) exceeded any bound such
a metric may have.  Over ten runs the open-loop medians spread by up to
0.32 of their median, the open-loop p90s by up to 1.8 and the checkpoint
time by up to 0.47.  A stall of the host holds up every open-loop request
due during it, so it weighs on the open loop far more than on requests
sent one at a time.  The dense recall the oracle checks and the mixed
schedule's latencies are recorded too.

Defect 1, found at the seed: on the two-shard engine a read that overlaps
a mutation can fail with HTTP 500 or return a deleted slot.  A benchmark
run must not fail, so the benchmark's workloads never overlap reads with
writes; ``--workload churn-overlap`` runs the overlapping schedule and, at
the seed, exits non-zero.

Dirty pages are synced before each round, so the writes of the set-up and
of earlier rounds are not flushed on a later round's clock.

Every answer is checked (``oracle.py``); on ``clustered-dense`` the share
of answers that found a point, among those whose query has one within the
radius, must reach ``RECALL_FLOOR``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the servers traced and reports the
per-layer metrics (``layers.py``).  The last line of standard output is one
JSON object; every run is also appended, with host data, to ``--out``.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from loadgen import call, closed_loop, open_loop
from oracle import Oracle, same_answers
from workloads import SINGLE_READS, WORKLOADS, encode_inputs, generate, mixed_plan, round_plans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A round: open-loop mutations, read batches, open-loop reads, closed-loop singles.
OPEN_SECONDS = 0.6  # of open loop per round
MIXED_SHARE = 0.4  # of --seconds, on top: the mixed schedule of churn-overlap
SETUP_LAUNCHES = 3
WAL_SUFFIX = 30  # mutations after the checkpoint
WARMUP_BATCHES = 2
READY_TIMEOUT_S = 120.0
TAIL = 90  # the highest percentile 100+ samples support with 10 beyond it
# Dense answers that found a point, over those whose query has a base point
# within the radius: 1.0 in every run when the benchmark was defined.
RECALL_FLOOR = 0.95

END_TO_END_UNITS = {
    "setup_s": "s",
    "batch_qps": "queries/s",
    "sample_p50_ms": "ms",
    "insert_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class Server:
    """One launcher process and the port it serves on."""

    def __init__(self, workdir: Path, tag: str, data_dir=None, recover=False, trace=None,
                 inject_wrong=0):
        self.data_dir = data_dir
        self.trace = trace
        self.port = None
        self.ready_ns = None
        self.port_file = workdir / f"port-{tag}"
        command = [
            sys.executable, str(HERE / "launcher.py"), "--workdir", str(workdir),
            "--port-file", str(self.port_file),
        ]
        if data_dir:
            command += ["--data-dir", str(data_dir)]
        if recover:
            command.append("--recover")
        if trace:
            command += ["--trace", str(trace)]
        if inject_wrong:
            command += ["--inject-wrong", str(inject_wrong)]
        self.log = open(workdir / f"server-{tag}.log", "wb")
        self.started = time.perf_counter()
        # A fixed hash seed: the server's dict and set layouts repeat run to run.
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.process = subprocess.Popen(command, stdout=self.log, stderr=subprocess.STDOUT,
                                        env=env)

    def wait_ready(self) -> float:
        """Block until ``/healthz`` answers; return seconds since launch."""
        deadline = self.started + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with code {self.process.returncode}")
            if self.port is None and self.port_file.exists():
                self.port = int(self.port_file.read_text())
            if self.port is not None:
                health = call(self.port, "healthz", "GET", "/healthz", timeout=5.0)
                if health.ok:
                    self.ready_ns = time.perf_counter_ns()
                    return health.done - self.started
            time.sleep(0.01)
        raise RuntimeError("server not ready in time")

    def call(self, op, method, path, payload=None):
        return call(self.port, op, method, path, payload)

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def dump_trace(self) -> None:
        """Have a traced server write its spans (before it is killed)."""
        Path(self.trace).unlink(missing_ok=True)
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + 60
        while not Path(self.trace).exists():
            if time.perf_counter() > deadline:
                raise RuntimeError("traced server wrote no spans")
            time.sleep(0.05)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)
        self.log.close()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.log.close()


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else float("nan")


def host_info():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "machine": platform.machine(),
    }


class Run:
    """One benchmark run of one workload."""

    def __init__(self, args):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.trace = bool(args.trace)
        self.workdir = Path(args.workdir).resolve() / f"{args.workload}-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        w = self.workload
        # Fixed work per run: as many rounds as fill --seconds at the round
        # time measured when the benchmark was defined.  The first open-loop
        # round is a warm-up.
        self.rounds = max(2, round(args.seconds / w.round_seconds))
        self.plans = round_plans(w, 1 + self.rounds, OPEN_SECONDS, args.seed)
        self.mixed = mixed_plan(w, args.seconds * MIXED_SHARE, args.seed) if w.mixed_rate else []
        steps = WARMUP_BATCHES + self.rounds * len(w.batch_samplers)
        open_reads = len(self.mixed) + sum(len(reads) for _, reads, _ in self.plans)
        self.inputs = generate(w, args.seed, steps * w.batch_size, open_reads,
                               self.rounds * SINGLE_READS, tiny=args.tiny)
        self.oracle = Oracle(self.workload.kind, self.workload.radius, self.inputs.base)
        self.defects = self.oracle.defects
        self.phases = {}
        self.servers = []
        self.samples = {}
        self.metrics = {}
        self.units = END_TO_END_UNITS
        self.layers = None
        self.latency = {}
        self.read_stats = []  # QueryStats of answered k=1 reads
        self.closed_steps = 0
        self.pool_next = 0
        self.open_next = 0
        self.sequential_next = 0
        rng = np.random.default_rng([args.seed, 2])
        self.delete_order = iter(rng.permutation(len(self.inputs.base)).tolist())

    # -- plumbing ----------------------------------------------------------
    def launch(self, recover=False, traced=False, data_dir=None) -> Server:
        tag = str(len(self.servers) + 1)
        if data_dir is None and self.workload.durable:
            data_dir = self.workdir / f"data-{tag}"
        server = Server(
            self.workdir, tag, data_dir, recover=recover,
            trace=self.workdir / f"spans-{tag}.npz" if traced else None,
            inject_wrong=self.args.inject_wrong,
        )
        self.servers.append(server)
        return server

    def write_inputs(self):
        config = {"kind": self.workload.kind, "spec": self.workload.spec,
                  "serve": self.workload.serve}
        (self.workdir / "inputs.json").write_text(json.dumps(config))
        np.savez(self.workdir / "inputs.npz", **encode_inputs(self.workload.kind, self.inputs.base))

    def phase(self, name, calls, judge):
        """Judge *calls* and add them to phase *name*'s counts.

        Mutations are judged first, so that the oracle knows every slot
        they created or removed before it judges a read that overlapped them.
        """
        entry = self.phases.setdefault(name, {
            "sent": 0, "succeeded": 0, "failed": 0, "queries": 0,
            "bytes_sent": 0, "bytes_received": 0,
        })
        for call in sorted(calls, key=lambda call: call.op == "read"):
            entry["sent"] += 1
            entry["bytes_sent"] += call.sent_bytes
            entry["bytes_received"] += call.received_bytes
            if judge(call):
                entry["succeeded"] += 1
                if call.op == "read":
                    entry["queries"] += len(call.payload.get("queries", [None]))
            else:
                entry["failed"] += 1

    def check(self, name, ok, message):
        """Count one check that is not an HTTP exchange."""
        entry = self.phases.setdefault(name, {"sent": 0, "succeeded": 0, "failed": 0})
        entry["sent"] += 1
        entry["succeeded" if ok else "failed"] += 1
        if not ok:
            self.defects.append(message)

    @staticmethod
    def wire(points):
        from repro.server import encode_point

        return [encode_point(point) for point in points]

    def read_request(self, sampler, queries, k, replacement, batch):
        payload = {"sampler": sampler, "k": k, "replacement": replacement}
        if batch:
            payload["queries"] = self.wire(queries)
            return ("read", "POST", "/v1/sample_batch", payload)
        payload["query"] = self.wire(queries)[0]
        return ("read", "POST", "/v1/sample", payload)

    def mutation_request(self, op):
        if op == "insert":
            pool = self.inputs.pool
            points = [pool[(self.pool_next + i) % len(pool)] for i in range(4)]
            self.pool_next += 4
            return ("insert", "POST", "/v1/mutate", {"op": "insert", "points": self.wire(points)})
        return ("delete", "POST", "/v1/mutate", {"op": "delete", "index": next(self.delete_order)})

    def judge(self, queries_of):
        """A judge for mixed calls; ``queries_of`` maps read payloads to queries."""

        def judge_call(call):
            if call.op != "read":
                return self.oracle.record_mutation(call)
            payload = call.payload
            queries = queries_of[id(payload)]
            ok = self.oracle.check_read(call, queries, payload["k"], payload["replacement"])
            if ok and payload["k"] == 1:
                answers = call.body["results"] if "results" in call.body else [call.body]
                self.read_stats += [answer["stats"] for answer in answers if answer["indices"]]
            return ok

        return judge_call

    def probe(self, server, phase):
        request = self.read_request(self.workload.probe_sampler, self.inputs.probes, 1, True, True)
        call = server.call(*request)
        self.phase(phase, [call], self.judge({id(request[3]): self.inputs.probes}))
        return call.body.get("results") if call.ok else None

    # -- traffic -------------------------------------------------------------
    def closed_loop(self, server, steps, phase, warmup=False):
        """Send *steps* read batches (after a mutation each on churn)."""
        w = self.workload
        queries_of = {}
        first = self.closed_steps
        stream = self.inputs.batch_queries

        def step(i):
            i += first
            start = i * w.batch_size
            queries = [stream[(start + j) % len(stream)] for j in range(w.batch_size)]
            sampler = w.batch_samplers[(i - first) % len(w.batch_samplers)]
            request = self.read_request(sampler, queries, w.batch_k, w.batch_replacement, True)
            queries_of[id(request[3])] = queries
            if w.closed_mutations and not warmup:
                return [self.mutation_request("delete" if i % 3 == 0 else "insert"), request]
            return [request]

        calls = closed_loop(server.port, steps, step)
        batches = [call for call in calls if call.op == "read"]
        self.closed_steps += len(batches)
        self.phase(phase, calls, self.judge(queries_of))
        return batches

    def single_read(self, query, sampler, queries_of):
        request = self.read_request(sampler, [query], 1, True, False)
        queries_of[id(request[3])] = [query]
        return request

    def open_segment(self, server, plan, phase):
        """Send one fixed-rate schedule of ``plan`` and judge it as *phase*."""
        queries_of = {}
        schedule = []
        for offset, op, sampler in plan:
            if op == "read":
                query = self.inputs.open_queries[self.open_next]
                self.open_next += 1
                request = self.single_read(query, sampler, queries_of)
            else:
                request = self.mutation_request(op)
            schedule.append((offset,) + request)
        calls = open_loop(server.port, schedule)
        self.phase(phase, calls, self.judge(queries_of))
        return calls

    def closed_singles(self, server, mutations, phase):
        """Send the next ``SINGLE_READS`` reads, then *mutations*, one after another."""
        queries_of = {}
        first = self.sequential_next
        self.sequential_next += SINGLE_READS
        requests = [self.single_read(query, sampler, queries_of)
                    for query, sampler in self.inputs.sequential[first:self.sequential_next]]
        requests += [self.mutation_request(op) for op in mutations]
        calls = closed_loop(server.port, len(requests), lambda i: [requests[i]])
        self.phase(phase, calls, self.judge(queries_of))
        return calls

    # -- the run -------------------------------------------------------------
    def execute(self):
        self.write_inputs()

        os.sync()
        main = self.launch(traced=self.trace)
        setups = [main.wait_ready()]
        probes_before = self.probe(main, "probes")
        self.closed_loop(main, WARMUP_BATCHES, "warmup", warmup=True)
        mutations, reads, _ = self.plans[0]
        self.open_segment(main, mutations, "warmup")
        self.open_segment(main, reads, "warmup")
        # Rounds spread every metric's samples over the whole run, so a
        # few seconds of a slower host weigh on all of them alike.
        steps = len(self.workload.batch_samplers)
        batches, calls, sequential = [], [], []
        for mutations, reads, closed_mutations in self.plans[1:]:
            os.sync()
            calls += self.open_segment(main, mutations, "open")
            batches += self.closed_loop(main, steps, "closed")
            calls += self.open_segment(main, reads, "open")
            sequential += self.closed_singles(main, closed_mutations, "singles")
        steps *= self.rounds
        mixed = self.open_segment(main, self.mixed, "mixed") if self.mixed else []
        recovered = checkpoint = None
        if self.workload.durable:
            checkpoint, probes_killed = self.checkpoint(main)
        stats = main.call("stats", "GET", "/v1/stats").body
        rss = main.peak_rss_mb()
        if self.workload.durable:
            recovered, recover_s = self.recover(main, probes_killed)
        else:
            main.stop()

        overhead_batches = []
        if self.trace:
            # The same batches on an untraced server give the trace overhead.
            main_oracle, self.oracle = self.oracle, Oracle(
                self.workload.kind, self.workload.radius, self.inputs.base)
            self.oracle.defects = self.defects
            untraced = self.launch()
            untraced.wait_ready()
            self.closed_steps = 0
            self.closed_loop(untraced, WARMUP_BATCHES, "overhead", warmup=True)
            overhead_batches = self.closed_loop(untraced, steps // 2, "overhead")
            untraced.stop()
            self.oracle = main_oracle
        else:
            for _ in range(SETUP_LAUNCHES - 1):
                os.sync()
                extra = self.launch()
                setups.append(extra.wait_ready())
                extra.stop()

        self.check("reference", same_answers(probes_before, self.reference_probes()),
                   "probe answers differ from the in-process reference")
        if self.workload.kind == "dense":
            recall = self.oracle.recall()
            self.check("recall", recall >= RECALL_FLOOR,
                       f"{recall:.3f} of answers whose query has a point within the radius "
                       f"found one (floor {RECALL_FLOOR})")

        def times(source, op):
            return [c.latency * 1e3 for c in source if c.op == op and c.ok]

        # Recorded with every run, gated only where named in self.metrics.
        self.latency = {
            loop: {op: [round(percentile(times(source, op), q), 3) for q in (10, 50, TAIL)]
                   for op in ("read", "insert", "delete")}
            for loop, source in (("open", calls), ("closed", sequential))
        }
        reads, inserts, deletes = (times(sequential, op) for op in ("read", "insert", "delete"))
        self.samples = {"setup_s": len(setups), "batch_qps": len(batches), "sample": len(reads),
                        "insert": len(inserts), "delete": len(deletes)}
        self.metrics = {
            "setup_s": statistics.median(setups),
            "batch_qps": self.batch_qps(batches),
            "sample_p50_ms": percentile(reads, 50),
            "insert_p50_ms": percentile(inserts, 50),
            "peak_rss_mb": rss,
            # Recorded, not reported (see the module docstring).
            "delete_p50_ms": percentile(deletes, 50),
        }
        if recovered is not None:
            self.metrics["checkpoint_s"] = checkpoint.done - checkpoint.sent
            self.metrics["recover_s"] = recover_s
        if self.workload.kind == "dense":
            self.metrics["recall"] = recall
        if mixed:
            # Judged like every call, but not gated: at the seed the mixed
            # schedule stalls on full sketch rebuilds and fails requests.
            for name, ops in (("read", ("read",)), ("mutate", ("insert", "delete"))):
                times = [c.latency * 1e3 for c in mixed if c.op in ops and c.ok]
                self.metrics[f"mixed_{name}_p50_ms"] = percentile(times, 50)
                self.metrics[f"mixed_{name}_max_ms"] = max(times, default=float("nan"))
            self.samples["mixed"] = len(mixed)
        if self.trace:
            from layers import PER_LAYER_UNITS, per_layer_metrics

            self.units = PER_LAYER_UNITS
            self.layers, self.metrics = per_layer_metrics(
                self, main, recovered, stats, calls, batches, overhead_batches, checkpoint
            )

    def checkpoint(self, main):
        """One timed checkpoint, then a WAL suffix; returns the call and the probe answers."""
        os.sync()
        checkpoint = main.call("checkpoint", "POST", "/v1/admin/checkpoint", {})
        self.phase("checkpoint", [checkpoint], lambda call: call.ok or self.oracle.defect(
            f"checkpoint failed: HTTP {call.status} {call.body}"))
        # A fixed WAL suffix past the checkpoint for recovery to replay.
        tail = [main.call(*self.mutation_request("delete" if i % 3 == 0 else "insert"))
                for i in range(WAL_SUFFIX)]
        self.phase("wal-suffix", tail, self.judge({}))
        return checkpoint, self.probe(main, "probes")

    def recover(self, main, probes_killed):
        """SIGKILL *main* and recover it; returns the (stopped) server and the seconds."""
        if main.trace:
            main.dump_trace()
        os.sync()
        killed_at = time.perf_counter()
        main.kill()
        recovered = self.launch(recover=True, traced=self.trace, data_dir=main.data_dir)
        recover_s = recovered.wait_ready() + (recovered.started - killed_at)
        self.check("recovery", same_answers(probes_killed, self.probe(recovered, "recovery")),
                   "probe answers changed across kill and recovery")
        live = recovered.call("healthz", "GET", "/healthz").body.get("live_points")
        self.check("recovery", live == self.oracle.live_count,
                   f"recovered {live} live points; acknowledged mutations leave "
                   f"{self.oracle.live_count}")
        recovered.stop()
        return recovered, recover_s

    def batch_qps(self, batches):
        """Queries answered per second of closed-loop batch time.

        A ratio of sums, not a median over batches: on a host whose speed
        flips between two levels within seconds, a median flips with it.
        """
        good = [call for call in batches if call.ok]
        if not good:
            return float("nan")
        return len(good) * self.workload.batch_size / sum(c.done - c.sent for c in good)

    def reference_probes(self):
        from repro import FairNN
        from repro.engine.requests import QueryRequest

        facade = FairNN.from_spec(self.workload.spec).serve(self.inputs.base)
        try:
            answers = facade.run(
                [QueryRequest(query=q) for q in self.inputs.probes],
                sampler=self.workload.probe_sampler,
            )
        finally:
            facade.close()
        return [answer.to_dict() for answer in answers]

    def cleanup(self):
        for server in self.servers:
            server.kill()
        shutil.rmtree(self.workdir, ignore_errors=True)


def report(run, args):
    """Print the human-readable lines and the result; append the record."""
    attempted = sum(p["sent"] for p in run.phases.values())
    failed = sum(p["failed"] for p in run.phases.values())
    metrics = {name: {"value": run.metrics[name], "unit": unit} for name, unit in run.units.items()}
    finite = all(np.isfinite(m["value"]) for m in metrics.values())
    correct = failed == 0 and finite and attempted > 0
    for name, counts in run.phases.items():
        print(f"phase {name:<10} sent {counts['sent']:>6} succeeded {counts['succeeded']:>6} "
              f"failed {counts['failed']:>4}")
    for defect in run.defects:
        print(f"DEFECT: {defect}")
    for name, metric in metrics.items():
        count = run.samples.get(name, run.samples.get(name.split("_")[0]))
        suffix = f"  (n={count})" if count is not None else ""
        print(f"{name:<30} {metric['value']:>14.6g} {metric['unit']}{suffix}")
    print(f"error_rate {failed / max(attempted, 1):.6f} ({failed}/{attempted})")
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host_info(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "phases": run.phases,
        "samples": run.samples,
        f"latency_p10_p50_p{TAIL}_ms": run.latency,
        "metrics": metrics,
        "also_measured": {k: v for k, v in run.metrics.items() if k not in run.units},
        "defects": run.defects,
        "correct": correct,
        "layers": run.layers,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description="End-to-end serving benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench/results.jsonl",
                        help="JSON-lines file every run is appended to")
    parser.add_argument("--workdir", default=".perfbench/work")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (harness tests)")
    parser.add_argument("--inject-wrong", type=int, default=0,
                        help="corrupt every N-th served answer (harness tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    run = Run(args)
    try:
        run.execute()
    finally:
        run.cleanup()
    return report(run, args)


if __name__ == "__main__":
    sys.exit(main())

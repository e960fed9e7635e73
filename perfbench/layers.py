"""Per-layer spans, recorded from outside the program.

:class:`LayerTrace` replaces public entry points of the program's
modules with wrappers that time each call and count what it did, then
puts the originals back.  Nothing inside the program changes: the spans
sit at the calls into each layer, and the program's own public counters
(``ConcurrencyMetrics``, the prepared-query cache statistics, the
journal counters) are read before and after the timed phase.

A span records its request id (the operation the client was running
when the span opened), layer name, start, end, the span that was open
around it in the same thread, and its self time: its duration minus the
child spans inside it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter

from repro.loadgen.workload import OP_CLASSES

#: The write-class tail percentile reported.  A run holds a few hundred
#: write-class requests, too few for a 99th percentile with ten samples
#: beyond it.
WRITE_TAIL = 90.0


def checkpoint_bytes(directory: str) -> int:
    """Bytes a compaction wrote: the new checkpoint, the new journal's
    header and the manifest."""
    from repro.durability import manifest as manifest_mod

    manifest = manifest_mod.read_manifest(directory)
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in (
            manifest["checkpoint"],
            manifest["journal"],
            manifest_mod.MANIFEST_NAME,
        )
    )


class LayerTrace:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.active = False
        self.request_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple] = []
        self._request_start = 0.0
        self._before: dict = {}
        self._after: dict = {}

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        """Time every call of ``owner.attr`` as a span named *name*
        (or ``name(args)``).  ``before(args)`` runs ahead of the call;
        ``after(trace, args, result, token)`` gets its return value."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        static = isinstance(raw, staticmethod)
        original = getattr(owner, attr)
        trace = self

        def wrapper(*args, **kwargs):
            if not trace.active:
                return original(*args, **kwargs)
            stack = trace._stack()
            child_time = [0.0]
            parent = stack[-1][1] if stack else None
            stack.append((child_time, len(trace.spans)))
            token = before(args) if before is not None else None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0][0] += duration
                label = name(args) if callable(name) else name
                trace.spans.append((
                    trace.request_id, label, start, end,
                    duration - child_time[0], parent,
                ))
            if after is not None:
                after(trace, args, result, token)
            return result

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        self._patched.append((owner, attr, raw if static else original))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def install(self) -> None:
        import repro.algebra.execute as execute_mod
        import repro.engine as engine_mod
        import repro.semantics.conflicts as conflicts_mod
        import repro.semantics.evaluator as evaluator_mod
        import repro.txn.session as session_mod
        from repro.cluster.protocol import MSG_FRAMES, MSG_QUERY
        from repro.cluster.router import QueryRouter
        from repro.cluster.supervisor import ReplicaHandle
        from repro.concurrent.snapshot import StoreSnapshot
        from repro.durability.durable import DurableEngine
        from repro.durability.journal import Journal
        from repro.index.manager import IndexManager
        from repro.prepared import PreparedQuery
        from repro.xdm.store import Store

        def counted(key):
            return lambda trace, args, result, token: trace.count(key)

        def rpc_name(args):
            kind = args[1].get("t")
            if kind == MSG_FRAMES:
                return "cluster.ship_rpc"
            if kind == MSG_QUERY:
                return "cluster.replica_read_rpc"
            return "cluster.other_rpc"

        def after_rpc(trace, args, result, token):
            if args[1].get("t") == MSG_FRAMES:
                trace.count("cluster.ship_rounds")
                trace.count("cluster.records_shipped", len(args[1]["records"]))

        def after_checkpoint(trace, args, result, token):
            trace.count("xdm.checkpoints")
            trace.count("xdm.records_copied", len(result.records))

        def after_probe(trace, args, result, token):
            trace.count("index.snapshot_probes")
            if result is not None:
                trace.count("index.snapshot_probes_answered")

        def after_ensure_built(trace, args, result, token):
            if not token:
                trace.count("index.rebuilds")

        def after_compact(trace, args, result, token):
            if result:
                trace.count("durability.compactions")
                trace.count(
                    "durability.checkpoint_bytes",
                    checkpoint_bytes(args[0].path),
                )

        wrap = self.wrap
        wrap(PreparedQuery, "execute", "prepared.execute")
        for function in ("parse_module", "normalize_module",
                         "simplify_module"):
            wrap(engine_mod, function, "lang.compile")
        wrap(evaluator_mod.Evaluator, "run_snapped", "semantics.evaluate")
        for module in (evaluator_mod, execute_mod):
            wrap(module, "apply_update_list", "semantics.apply")
        wrap(conflicts_mod, "check_conflict_free", "semantics.conflict_check")
        wrap(session_mod, "check_cross_conflict_free",
             "semantics.conflict_check")
        wrap(Store, "checkpoint", "xdm.checkpoint", after=after_checkpoint)
        wrap(IndexManager, "ensure_built", "index.rebuild",
             before=lambda args: args[0].built, after=after_ensure_built)
        wrap(StoreSnapshot, "attr_eq_probe", "index.snapshot_probe",
             after=after_probe)
        wrap(session_mod.Transaction, "commit", "txn.commit",
             after=counted("txn.commits"))
        wrap(Journal, "build_entry", "durability.encode")
        wrap(Journal, "_frame", "durability.encode")
        for method in ("commit", "commit_group"):
            wrap(Journal, method, "durability.journal_commit",
                 after=counted("durability.journal_commits"))
        wrap(Journal, "sync", "durability.fsync")
        wrap(DurableEngine, "maybe_compact", "durability.compaction",
             after=after_compact)
        wrap(ReplicaHandle, "rpc", rpc_name, after=after_rpc)
        for method in ("submit_read", "execute_read"):
            wrap(QueryRouter, method, "cluster.route")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- the timed phase ----------------------------------------------------

    def start(self, served) -> None:
        self._before = self._program_counters(served)
        self.active = True

    def begin_request(self) -> None:
        self.request_id += 1
        self._request_start = time.perf_counter()

    def end_request(self, reply) -> None:
        self.spans.append((
            self.request_id, f"frontend.{reply.op.name}",
            self._request_start, time.perf_counter(), reply.seconds, None,
        ))

    def stop(self, served) -> None:
        self.active = False
        self._after = self._program_counters(served)

    @staticmethod
    def _program_counters(served) -> dict:
        """The program's own public counters."""
        inner = served.service.engine
        inner = getattr(inner, "engine", inner)
        cache = inner.prepared_cache.stats
        executor = served.front.executor.tracer
        out = {
            "prepared.hits": cache.hits,
            "prepared.misses": cache.misses,
            "queue_wait_ms": executor.snapshot_observations()
            .get("concurrent.queue_wait_ms", {}).get("total", 0.0),
        }
        for key, value in executor.snapshot_counters().items():
            out[key] = value
        durable = served.service.durable
        if durable is not None:
            for key, value in durable.tracer.snapshot_counters().items():
                out[key] = value
        return out

    # -- metrics --------------------------------------------------------------

    def self_ms(self) -> Counter:
        totals: Counter = Counter()
        for span in self.spans:
            totals[span[1]] += span[4] * 1000.0
        return totals

    def span_count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[1] == name)

    def metrics(self, phase: dict) -> dict:
        from stats import percentile, samples_needed

        replies = phase["replies"]
        ops = len(replies)
        kops = ops / 1000.0
        def delta(key):
            return self._after.get(key, 0) - self._before.get(key, 0)

        def ratio(useful, attempts):
            return useful / attempts if attempts else 0.0

        ms = self.self_ms()
        c = self.counts
        read_ms = sorted(
            r.seconds * 1000.0
            for r in replies
            if OP_CLASSES[r.op.name] == "read"
        )
        reads = len(read_ms)
        writes = sorted(
            r.seconds * 1000.0
            for r in replies
            if OP_CLASSES[r.op.name] != "read"
        )
        write_tail = (
            percentile(writes, WRITE_TAIL)
            if len(writes) >= samples_needed(WRITE_TAIL)
            else 0.0
        )
        hits = delta("prepared.hits")
        records = c["cluster.records_shipped"]
        metrics = {
            "trace.ops_per_s": (ops / phase["elapsed"], "ops/s"),
            "frontend.read_p99_ms": (percentile(read_ms, 99.0), "ms"),
            "frontend.write_p50_ms": (
                percentile(writes, 50.0) if writes else 0.0, "ms"),
            "frontend.write_p90_ms": (write_tail, "ms"),
            "prepared.cache_hit_ratio": (
                ratio(hits, hits + delta("prepared.misses")), "ratio"),
            "lang.compile_ms_per_op": (ms["lang.compile"] / ops, "ms/op"),
            "semantics.evaluate_ms_per_op": (
                ms["semantics.evaluate"] / ops, "ms/op"),
            "semantics.apply_ms_per_op": (
                ms["semantics.apply"] / ops, "ms/op"),
            "semantics.conflict_check_ms_per_op": (
                ms["semantics.conflict_check"] / ops, "ms/op"),
            "xdm.checkpoints_per_op": (c["xdm.checkpoints"] / ops, "1/op"),
            "xdm.records_copied_per_op": (
                c["xdm.records_copied"] / ops, "1/op"),
            "xdm.checkpoint_ms_per_op": (ms["xdm.checkpoint"] / ops, "ms/op"),
            "index.rebuilds_per_kop": (c["index.rebuilds"] / kops, "1/kop"),
            "index.rebuild_ms_per_op": (ms["index.rebuild"] / ops, "ms/op"),
            "index.snapshot_probe_answered_ratio": (
                ratio(c["index.snapshot_probes_answered"],
                      c["index.snapshot_probes"]), "ratio"),
            "concurrent.queue_wait_ms_per_op": (
                delta("queue_wait_ms") / ops, "ms/op"),
            "concurrent.snapshots_built_per_kop": (
                delta("concurrent.snapshots_built") / kops, "1/kop"),
            "concurrent.txn_retries_per_kop": (
                delta("resilience.retry.retries") / kops, "1/kop"),
            "concurrent.result_cache_hit_ratio": (
                ratio(delta("concurrent.result_cache_hits"),
                      delta("concurrent.reads_snapshot")), "ratio"),
            "txn.commit_ms_per_op": (ms["txn.commit"] / ops, "ms/op"),
            "txn.commits_per_kop": (c["txn.commits"] / kops, "1/kop"),
            "durability.journal_commits_per_op": (
                c["durability.journal_commits"] / ops, "1/op"),
            "durability.encode_ms_per_op": (
                ms["durability.encode"] / ops, "ms/op"),
            "durability.fsyncs_per_op": (
                delta("journal.fsyncs") / ops, "1/op"),
            "durability.fsync_ms_per_op": (
                ms["durability.fsync"] / ops, "ms/op"),
            "durability.journal_bytes_per_op": (
                delta("journal.bytes") / ops, "B/op"),
            "durability.disk_bytes_per_op": (
                (delta("journal.bytes") + c["durability.checkpoint_bytes"])
                / ops, "B/op"),
            "durability.compactions_per_kop": (
                c["durability.compactions"] / kops, "1/kop"),
            "durability.compaction_ms_per_op": (
                ms["durability.compaction"] / ops, "ms/op"),
            "cluster.records_shipped_per_op": (records / ops, "1/op"),
            "cluster.ship_rounds_per_kop": (
                c["cluster.ship_rounds"] / kops, "1/kop"),
            "cluster.ship_rpc_ms_per_record": (
                ms["cluster.ship_rpc"] / records if records else 0.0,
                "ms/record"),
            "cluster.replica_read_ratio": (
                ratio(self.span_count("cluster.replica_read_rpc"), reads),
                "ratio"),
            "cluster.route_ms_per_read": (
                ms["cluster.route"] / reads if reads else 0.0, "ms/read"),
            "cluster.replica_read_rpc_ms": (
                ms["cluster.replica_read_rpc"]
                / max(1, self.span_count("cluster.replica_read_rpc")),
                "ms"),
        }
        return metrics

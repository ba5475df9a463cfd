"""The four workloads: set-up, the measured loop and the traced loop.

Importing this module imports the program, which is part of the
measured set-up time.  Each workload class builds its plans (and
service) and runs its one warm-up solve in ``__init__``; ``run`` is the
measured loop; ``solve`` is the operation the end-to-end metrics time,
``solve_traced`` runs the same work inside spans, ``reference`` does
the untimed side work of the traced run (LAPACK references, planning
cost) after an operation, and ``layer_metrics`` fills in the per-layer
numbers only that workload can see.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from itertools import count

import numpy as np
import repro
from repro.core import apply_sbr_q, tridiagonalize_planned
from repro.resilience import FallbackExhausted, ReproError, execute_plan_with_fallback

import inputs
import layers
from checker import check_evd
from spans import Tracer

#: Load threads of the serve workload (the machine's two cores).
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
RESULT_TIMEOUT_S = 120.0


@dataclass
class Item:
    """One input of an operation."""

    index: int
    label: str
    A: np.ndarray
    precision: str = "fp64"
    repeat: bool = False


@dataclass
class Op:
    """One attempted operation and how it ended.

    ``status`` is ``"ok"``, the name of the typed ``ReproError`` raised,
    ``"untyped:<exception>"`` for any other exception, or
    ``"wrong: <reason>"`` when the checker rejected the returned answer.
    """

    index: int
    label: str
    fingerprint: str
    traced: bool
    repeat: bool = False
    seconds: float = 0.0
    status: str = "ok"
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def run_item(wl, item: Item, tracer: Tracer | None) -> Op:
    """Time one operation, classify how it ended and check its output."""
    op = Op(
        item.index,
        item.label,
        repro.matrix_fingerprint(item.A),
        traced=tracer is not None,
        repeat=item.repeat,
    )
    t0 = time.perf_counter()
    try:
        res = wl.solve_traced(item, tracer) if tracer is not None else wl.solve(item)
    except ReproError as exc:
        op.seconds = time.perf_counter() - t0
        op.status, op.error = type(exc).__name__, str(exc)[:300]
        return op
    except Exception as exc:  # recorded and counted: a bug, not a typed failure
        op.seconds = time.perf_counter() - t0
        op.status, op.error = f"untyped:{type(exc).__name__}", str(exc)[:300]
        return op
    op.seconds = time.perf_counter() - t0
    reason = check_evd(item.A, res.eigenvalues, res.eigenvectors if wl.vectors else None)
    if reason is not None:
        op.status = f"wrong: {reason}"
    elif tracer is not None:
        wl.reference(item, res, tracer)
    return op


class ClosedLoop:
    """A single-threaded closed loop over the workload's ``batches()``."""

    def run(self, seconds: float, tracer: Tracer | None) -> tuple[list[Op], float]:
        """Run whole batches until ``seconds`` have passed.  Traced runs do
        each input untraced and traced, alternating which goes first, so
        the tracing overhead is measured on identical inputs.  Returns the
        operations and the time spent on correct untraced ones: a failed
        operation is counted by ``ok_ratio``, and near the ends of the
        scale sweep's range whether an input fails (slowly, after the
        whole fallback chain) varies per matrix, which would otherwise
        dominate the rate."""
        ops: list[Op] = []
        t_start = time.perf_counter()
        for batch in self.batches():
            for item in batch:
                if tracer is None:
                    ops.append(run_item(self, item, None))
                    continue
                order = (None, tracer) if item.index % 2 else (tracer, None)
                ops.extend(run_item(self, item, t) for t in order)
            if time.perf_counter() - t_start >= seconds:
                break
        untraced = [op for op in ops if not op.traced]
        busy = sum(op.seconds for op in untraced if op.ok) or sum(op.seconds for op in untraced)
        return ops, busy

    def close(self) -> None:
        pass


class Large(ClosedLoop):
    """``execute_plan`` on n=1024 GOE matrices, vectors on or off."""

    loop = "closed, 1 client, one operation at a time"
    #: A run has 3-8 operations, too few for any tail percentile with
    #: ten samples beyond it: the tail is the slowest operation.
    tail_percentile = 100.0

    def __init__(self, name: str, seed: int, vectors: bool):
        self.name, self.seed, self.vectors = name, seed, vectors
        self.n = inputs.LARGE_N
        self.plan = repro.plan_evd(self.n, compute_vectors=vectors)
        repro.execute_plan(inputs.large_matrix(seed, name, 0), self.plan)
        self.refs: list[dict] = []

    def describe(self) -> dict:
        return {"loop": self.loop, "n": [self.n], "kinds": ["goe"], "vectors": self.vectors}

    def batches(self):
        for i in count(1):
            yield [Item(i, "goe", inputs.large_matrix(self.seed, self.name, i))]

    def prefix(self) -> list[np.ndarray]:
        return [inputs.large_matrix(self.seed, self.name, i) for i in range(1, inputs.DIGEST_PREFIX + 1)]

    def solve(self, item: Item):
        return repro.execute_plan(item.A, self.plan)

    def solve_traced(self, item: Item, tracer: Tracer):
        """The plan runner's stages called one by one, so the two back
        transformation factors and the D&C statistics are visible."""
        plan, vectors = self.plan, self.vectors
        with tracer.span("eigh", op=item.index, n=self.n, vectors=vectors):
            ctx = repro.ExecutionContext(hooks=[tracer.hook])
            with tracer.span("tridiagonalize"):
                tri = tridiagonalize_planned(item.A, plan, ctx=ctx)
            with tracer.span("tridiag_solver"):
                lam, U, stats = repro.dc_eigh(
                    tri.d,
                    tri.e,
                    compute_vectors=vectors,
                    ctx=ctx,
                    return_stats=True,
                    secular_mode=plan.solver.secular_mode or "batched",
                )
            V = None
            if vectors:
                with tracer.span("back_transform"):
                    V = np.array(U, copy=True)
                    with tracer.span("apply_q1"):
                        tri.bc_result.apply_q1(V)
                    with tracer.span("apply_sbr_q"):
                        apply_sbr_q(
                            tri.band_result.blocks,
                            V,
                            method=tri.back_transform_method,
                            group_width=tri.back_transform_group,
                            ctx=ctx,
                        )
        self._last = {
            "deflation_fraction": stats.deflation_fraction,
            "workspace_bytes": ctx.workspace.nbytes,
        }
        return repro.EVDResult(eigenvalues=lam, eigenvectors=V, tridiag=tri, solver="dc")

    def reference(self, item: Item, res, tracer: Tracer) -> None:
        with tracer.span("plan_evd", op=item.index):
            repro.plan_evd(self.n, compute_vectors=self.vectors)
        ref = layers.lapack_pipeline(item.A, res.tridiag.d, res.tridiag.e, self.vectors)
        t0 = time.perf_counter()
        (np.linalg.eigh if self.vectors else np.linalg.eigvalsh)(item.A)
        ref["eigh"] = time.perf_counter() - t0
        self.refs.append({**ref, **self._last})

    def layer_metrics(self, m: dict, tracer: Tracer, ops: list[Op]) -> None:
        if not self.refs:
            return
        b = self.plan.tridiag.bandwidth
        k = self.plan.tridiag.second_block
        selfs = tracer.self_times()
        for span, st in zip(tracer.spans, selfs):
            fl, by = layers.stage_cost(span.name, self.n, b, k, self.vectors)
            if fl:
                span.args.update(flops=fl, bytes=by, gflops=fl / st / 1e9 if st > 0 else 0.0,
                                 counts="computed")
        for stage in ("band_reduction", "bulge_chasing", "apply_q1", "apply_sbr_q"):
            metric = layers.SPAN_METRIC[stage]
            if m[metric] > 0:
                fl = layers.stage_cost(stage, self.n, b, k, self.vectors)[0]
                m[metric.replace("self_s", "gflops")] = fl / m[metric] / 1e9
        ours, blas = layers.syr2k_pair(*inputs.syr2k_operands(self.seed, self.n, k))
        m["core.syr2k.gflops"] = layers.stage_cost("syr2k", self.n, b, k, True)[0] / ours / 1e9
        m["core.syr2k.vs_lapack"] = ours / blas
        per_op = _mean_span_seconds(tracer)
        lap = {key: float(np.mean([r[key] for r in self.refs])) for key in self.refs[0]}
        m["core.tridiagonalize.vs_lapack"] = per_op["tridiagonalize"] / lap["tridiagonalize"]
        m["eig.dc.vs_lapack"] = per_op["tridiag_solver"] / lap["dc"]
        if self.vectors:
            m["core.back_transform.vs_lapack"] = per_op["back_transform"] / lap["back_transform"]
        m["eigh.vs_lapack"] = _mean_ok_untraced(ops) / lap["eigh"]
        m["eig.dc.deflation_fraction"] = lap["deflation_fraction"]
        traced = [op for op in ops if op.traced]
        m["resilience.first_try_ok_ratio"] = sum(op.ok for op in traced) / len(traced)
        m["backend.workspace_bytes"] = max(r["workspace_bytes"] for r in self.refs)


class ScaleSweep(ClosedLoop):
    """``eigh(A, fallback="chain")`` at n=192 over kind x |A| scale x
    precision; the only workload where escalation and refinement work."""

    loop = "closed, 1 client, whole passes over the 30-input grid"
    vectors = True
    #: Two passes give about 30 correct operations: ten lie beyond p67.
    tail_percentile = 67.0

    def __init__(self, seed: int):
        self.seed = seed
        self.n = inputs.SWEEP_N
        self.plans = {
            p: repro.plan_evd(self.n, fallback="chain", precision=p)
            for p in inputs.SWEEP_PRECISIONS
        }
        execute_plan_with_fallback(inputs.sweep_warmup(seed), self.plans["mixed"])
        self.log: list[dict] = []
        self.numpy_s: list[float] = []

    def describe(self) -> dict:
        return {
            "loop": self.loop,
            "n": [self.n],
            "kinds": list(inputs.KINDS),
            "abs_scale": [f"1e{e}" for e in inputs.SWEEP_EXPONENTS],
            "precision": list(inputs.SWEEP_PRECISIONS),
        }

    def grid(self, sweep: int) -> list[Item]:
        return [
            Item(sweep * 1000 + i + 1, f"{kind}@1e{exp}/{p}", A, precision=p)
            for i, (kind, exp, p, A) in enumerate(inputs.sweep_grid(self.seed, sweep))
        ]

    def batches(self):
        for sweep in count():
            yield self.grid(sweep)

    def prefix(self) -> list[np.ndarray]:
        return [item.A for item in self.grid(0)]

    def solve(self, item: Item):
        return execute_plan_with_fallback(item.A, self.plans[item.precision]).result

    def solve_traced(self, item: Item, tracer: Tracer):
        entry = {"escalations": 0, "exhausted": False, "refine": None, "workspace": 0}
        try:
            with tracer.span("eigh", op=item.index, label=item.label):
                ctx = repro.ExecutionContext(hooks=[tracer.hook])
                try:
                    out = execute_plan_with_fallback(item.A, self.plans[item.precision], ctx=ctx)
                finally:
                    entry["workspace"] = ctx.workspace.nbytes
            report = getattr(out.result, "refinement", None)
            entry["escalations"] = len(out.escalations) + (
                len(report.escalations) if report is not None and report.escalated else 0
            )
            if report is not None:
                entry["refine"] = (report.iterations, report.escalated)
            return out.result
        except FallbackExhausted as exc:
            entry.update(escalations=len(exc.attempts), exhausted=True)
            raise
        finally:
            self.log.append(entry)

    def reference(self, item: Item, res, tracer: Tracer) -> None:
        with tracer.span("plan_evd", op=item.index):
            repro.plan_evd(self.n, fallback="chain", precision=item.precision)
        t0 = time.perf_counter()
        np.linalg.eigh(item.A)
        self.numpy_s.append(time.perf_counter() - t0)

    def layer_metrics(self, m: dict, tracer: Tracer, ops: list[Op]) -> None:
        traced = [op for op in ops if op.traced]
        if not traced:
            return
        m["resilience.escalations_per_op"] = sum(e["escalations"] for e in self.log) / len(traced)
        m["resilience.first_try_ok_ratio"] = sum(
            op.ok and e["escalations"] == 0 for op, e in zip(traced, self.log)
        ) / len(traced)
        m["resilience.fallback_exhausted"] = float(sum(e["exhausted"] for e in self.log))
        refined = [e["refine"] for e in self.log if e["refine"] is not None]
        if refined:
            m["precision.refine_iterations_mean"] = float(np.mean([r[0] for r in refined]))
        m["precision.escalations"] = float(sum(r[1] for r in refined))
        m["backend.workspace_bytes"] = float(max(e["workspace"] for e in self.log))
        if self.numpy_s:
            m["eigh.vs_lapack"] = _mean_ok_untraced(ops) / float(np.mean(self.numpy_s))


class ServeSmall:
    """A closed loop of two clients against ``SolverService(workers=2)``
    on the default configuration (verification and cache on)."""

    loop = f"closed, {SERVE_CLIENTS} client threads, submit then wait for the result"
    vectors = True
    #: About 200 requests a run: ten lie beyond p95.
    tail_percentile = 95.0

    def __init__(self, seed: int):
        self.seed = seed
        self.svc = repro.SolverService(repro.ServiceConfig(workers=SERVE_WORKERS))
        try:
            self.svc.submit(inputs.serve_matrix(seed, 0)).result(timeout=RESULT_TIMEOUT_S)
        except BaseException:
            self.svc.close(drain=False)
            raise
        self.numpy_s: list[float] = []

    def describe(self) -> dict:
        return {
            "loop": self.loop,
            "n": list(inputs.SERVE_NS),
            "kinds": list(inputs.KINDS),
            "repeat_every": inputs.SERVE_REPEAT_EVERY,
        }

    def item(self, k: int) -> Item:
        original, repeat = inputs.serve_request(self.seed, k)
        A = inputs.serve_matrix(self.seed, original)
        return Item(k, f"n{A.shape[0]}", A, repeat=repeat)

    def prefix(self) -> list[np.ndarray]:
        return [self.item(k).A for k in range(1, 8 * inputs.DIGEST_PREFIX + 1)]

    def solve(self, item: Item):
        return self.svc.submit(item.A).result(timeout=RESULT_TIMEOUT_S)

    def solve_traced(self, item: Item, tracer: Tracer):
        with tracer.span("request", op=item.index, n=item.A.shape[0], repeat=item.repeat) as req:
            with tracer.span("submit") as sub:
                fut = self.svc.submit(item.A)
            with tracer.span("result") as res:
                out = fut.result(timeout=RESULT_TIMEOUT_S)
        # The two phases of a request are contiguous.  Without this, a
        # switch of the interpreter lock to another client between the
        # spans would show as time no span covers.
        sub.start, res.start, req.end = req.start, sub.end, res.end
        return out

    def reference(self, item: Item, res, tracer: Tracer) -> None:
        with tracer.span("plan_evd", op=item.index):
            repro.plan_evd(item.A.shape[0])
        t0 = time.perf_counter()
        np.linalg.eigh(item.A)
        self.numpy_s.append(time.perf_counter() - t0)

    def run(self, seconds: float, tracer: Tracer | None) -> tuple[list[Op], float]:
        """Each client takes the next request of the shared stream,
        submits it and waits for the result; a traced run traces every
        second block of requests.  Returns the operations and the window."""
        ops: list[Op] = []
        errors: list[BaseException] = []
        lock = threading.Lock()
        ks = count(1)
        self._before = self.svc.stats()
        t_start = time.perf_counter()

        def client() -> None:
            try:
                while time.perf_counter() - t_start < seconds:
                    with lock:
                        k = next(ks)
                    # Alternate blocks of SERVE_REPEAT_EVERY requests, so that
                    # traced and untraced requests have the same mix.
                    traced = tracer if (k - 1) // inputs.SERVE_REPEAT_EVERY % 2 else None
                    op = run_item(self, self.item(k), traced)
                    with lock:
                        ops.append(op)
            except BaseException as exc:  # re-raised in the main thread below
                errors.append(exc)
                raise

        threads = [threading.Thread(target=client, name=f"client-{c}") for c in range(SERVE_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds + 2 * RESULT_TIMEOUT_S)
        if any(t.is_alive() for t in threads):
            raise RuntimeError("serve client did not finish")
        if errors:
            raise errors[0]
        window = time.perf_counter() - t_start
        self._after = self.svc.stats()
        ops.sort(key=lambda op: (op.index, op.traced))
        return ops, window

    def layer_metrics(self, m: dict, tracer: Tracer, ops: list[Op]) -> None:
        """Service-side layers come from ``stats()`` over the window: the
        workers' stage events are only visible there, summed."""
        before, after = self._before["metrics"], self._after["metrics"]
        submitted = after["submitted"] - before["submitted"]
        if submitted <= 0:
            return

        def stage_s(name: str) -> float:
            a = after["stage_times"].get(name, {}).get("seconds", 0.0)
            return (a - before["stage_times"].get(name, {}).get("seconds", 0.0)) / submitted

        for stage in ("band_reduction", "bulge_chasing", "dc_leaf", "dc_secular",
                      "dc_deflate", "dc_gemm", "verify_evd"):
            m[layers.SPAN_METRIC[stage]] = stage_s(stage)
        waits = self.svc.metrics.queue_wait_s.snapshot((50.0, 95.0))
        m["serve.queue_wait_s_p50"] = waits.get("p50", 0.0)
        m["serve.queue_wait_s_p95"] = waits.get("p95", 0.0)
        m["serve.cache_hit_ratio"] = (
            after["cache_hits_at_submit"] - before["cache_hits_at_submit"]
        ) / submitted
        m["serve.coalesced"] = float(after["coalesced"] - before["coalesced"])
        sizes = {
            int(s): c - before["batch_sizes"].get(s, 0) for s, c in after["batch_sizes"].items()
        }
        batches = sum(sizes.values())
        m["serve.batch_size_mean"] = sum(s * c for s, c in sizes.items()) / batches if batches else 0.0
        res_b, res_a = before["resilience"], after["resilience"]
        escalations = res_a["escalations"] - res_b["escalations"]
        m["resilience.escalations_per_op"] = escalations / submitted
        m["resilience.first_try_ok_ratio"] = (sum(op.ok for op in ops) - escalations) / len(ops)
        m["resilience.fallback_exhausted"] = float(
            res_a["fallback_exhausted"] - res_b["fallback_exhausted"]
        )
        if self.numpy_s:
            m["eigh.vs_lapack"] = _mean_ok_untraced(ops) / float(np.mean(self.numpy_s))

    def close(self) -> None:
        self.svc.close()


def _mean_ok_untraced(ops: list[Op]) -> float:
    """Mean time of the untraced correct operations (0 if there are none)."""
    ok = [op.seconds for op in ops if op.ok and not op.traced]
    return float(np.mean(ok)) if ok else 0.0


def _mean_span_seconds(tracer: Tracer) -> dict[str, float]:
    """Mean total duration per operation of each span name."""
    totals: dict[str, float] = {}
    ops = {s.op for s in tracer.spans if s.parent is None and s.name == "eigh"}
    for s in tracer.spans:
        totals[s.name] = totals.get(s.name, 0.0) + s.duration
    return {k: v / max(len(ops), 1) for k, v in totals.items()}


def make(name: str, seed: int):
    """Set a workload up: plans, service, and its one warm-up solve."""
    if name == "large_vectors":
        return Large(name, seed, vectors=True)
    if name == "large_values":
        return Large(name, seed, vectors=False)
    if name == "serve_small":
        return ServeSmall(seed)
    if name == "scale_sweep":
        return ScaleSweep(seed)
    raise ValueError(f"unknown workload {name!r}")


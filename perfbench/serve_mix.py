"""``serve_mix``: a ``repro serve`` process under mixed, open-loop traffic.

The server runs the bench-scale DeepSpeech2 model (trained from a fixed
seed, default pool of one replica) as its own process, started through
``serve_launcher.py``.  One generator process drives it over two
connections, which is the host's ``nproc``:

- connection 1 carries real-time streaming sessions: 2 streams, each
  opening a session per test-split utterance, feeding it 8-frame chunks
  every 80 ms (10 ms frames), then closing it;
- connection 2 carries seeded Poisson ``/api/v1/infer`` arrivals of
  16-frame windows (test-split utterances) at 20 requests/s (the
  nominal rate), then at 50, 80 and 120 requests/s, and a
  ``PUT /theta`` every 0.25 s alternating between two thresholds.

The nominal rate is light on purpose.  On a shared 2-core x86 host the
server's speed moves by up to 2x between minutes-long periods, and
queueing multiplies that in latency: at a nominal 40/s, 2 runs in 10
missed the SLO at the nominal rate and median infer latency spread 85%
(IQR over median, 10 seeds).  The higher rates straddle the knee of
the latency curve, which wanders between about 60 and 110/s, so
``infer_max_rps_at_slo`` moves when the server's capacity does.

Arrivals are independent of replies (an open loop), and every latency
is timed from when the request was due, so a stall also charges the
requests queued behind it.  Each fixed rate sends 10 requests per
second of ``--seconds`` (the nominal rate 15), so at 20 s or more every
p95 has at least 10 samples beyond it.

Every ``/infer`` reply must equal the offline memoized batch under the
scheme version that served it, and every session transcript must equal
the one-shot transcript of its utterance.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
from dataclasses import dataclass
from time import perf_counter, sleep, thread_time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import OUT_DIR, ROOT, Outcome, median, percentile
from spans import LAYER_SPANS, descendants, engine_times, layer_metrics, load_spans, self_time_by_name

from repro.accel.config import EPURConfig
from repro.accel.timing import baseline_timing, memoized_timing
from repro.accel.trace import ReuseTrace
from repro.core.engine import MemoizationScheme, apply_memoization
from repro.core.stats import ReuseStats
from repro.models.specs import PAPER_NETWORKS
from repro.models.zoo import build_benchmark
from repro.nn.module import clone_with_shared_parameters
from repro.obs import REQUEST_ID_HEADER, new_request_id
from repro.serve.loadgen import ServeClient, ServeError

Array = np.ndarray

MODEL, SCALE, MODEL_SEED = "deepspeech2", "bench", 0
#: The served threshold and the one retunes alternate with.
THETAS = (0.3, 0.5)
ROW_FRAMES = 16
CHUNK_FRAMES = 8
#: 8 frames of 10 ms: a real-time stream sends one chunk per period.
CHUNK_PERIOD_S = 0.08
STREAMS = 2
#: Fixed infer rates (requests/s); the first is the nominal rate.
RATES = (20.0, 50.0, 80.0, 120.0)
#: Infers sent at each rate per second of ``--seconds``; the nominal
#: rate sends :data:`NOMINAL_EXTRA` times as many.
REQUESTS_PER_RUN_SECOND = 10
NOMINAL_EXTRA = 1.5
RETUNE_PERIOD_S = 0.25
#: Infer p95 limit of the SLO; chunks must beat their period.
INFER_LIMIT_MS = 100.0
SETUP_REPEATS = 3
#: Share of ``--seconds`` spent timing the offline batch forward, in
#: windows before each server start and after the traffic.
OFFLINE_SHARE = 0.25
READY_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 30.0
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_launcher.py")


# -- the traffic schedule -----------------------------------------------------


@dataclass(frozen=True)
class Event:
    """One request the generator sends at ``due`` seconds into the run."""

    due: float
    kind: str  # "infer", "retune", "open", "chunk" or "close"
    utterance: int = 0
    offset: int = 0  # first frame of an infer window or chunk
    step: int = -1  # index of the fixed rate an infer belongs to
    session: int = -1
    theta: float = 0.0


@dataclass(frozen=True)
class Step:
    rate: float
    start: float
    end: float


@dataclass(frozen=True)
class Schedule:
    steps: Tuple[Step, ...]
    sessions: Tuple[Event, ...]  # connection 1
    infer: Tuple[Event, ...]  # connection 2: infers and retunes


def make_schedule(seed: int, seconds: float, utterances: int, frames: int,
                  rates: Sequence[float] = RATES) -> Schedule:
    """The whole run's traffic, from ``seed`` alone.

    Each fixed rate gets a Poisson process conditioned on its count:
    the arrivals are placed uniformly in the rate's window, so the
    offered rate is exact and only the arrival pattern varies by seed.
    """
    rng = np.random.default_rng(seed)
    steps, infer = [], []
    start = 0.0
    for index, rate in enumerate(rates):
        count = max(1, round(REQUESTS_PER_RUN_SECOND * seconds
                             * (NOMINAL_EXTRA if index == 0 else 1.0)))
        duration = count / rate
        for due in np.sort(rng.uniform(start, start + duration, count)):
            infer.append(Event(float(due), "infer",
                               utterance=int(rng.integers(utterances)),
                               offset=int(rng.integers(frames - ROW_FRAMES + 1)),
                               step=index))
        steps.append(Step(rate, start, start + duration))
        start += duration
    total = start
    infer += [Event(k * RETUNE_PERIOD_S, "retune", theta=THETAS[k % 2])
              for k in range(1, int(total / RETUNE_PERIOD_S))]
    infer.sort(key=lambda event: event.due)

    timeline: List[Event] = []
    chunks = -(-frames // CHUNK_FRAMES)
    session_id = 0
    for stream in range(STREAMS):
        opened = stream * CHUNK_PERIOD_S / STREAMS
        while opened < total:
            utterance = int(rng.integers(utterances))
            timeline.append(Event(opened, "open", utterance, session=session_id))
            timeline += [
                Event(opened + (j + 1) * CHUNK_PERIOD_S, "chunk", utterance,
                      offset=j * CHUNK_FRAMES, session=session_id)
                for j in range(chunks)
            ]
            opened += chunks * CHUNK_PERIOD_S
            timeline.append(Event(opened, "close", utterance, session=session_id))
            session_id += 1
    # Stable: a session's close precedes the next open due at the same time.
    timeline.sort(key=lambda event: event.due)
    return Schedule(tuple(steps), tuple(timeline), tuple(infer))


# -- the SLO decision ----------------------------------------------------------


@dataclass
class StepResult:
    """Client-side outcome of one fixed rate."""

    rate: float
    infer_ms: List[float]  # from due; inf for a failed request
    chunk_ms: List[float]  # chunks due inside the step's window
    late_ms: List[float]  # how late each infer was sent
    achieved_rps: float


def slo_factor(step: StepResult) -> float:
    """How far a fixed rate is from breaking the SLO; above 1 it breaks.

    The largest of: infer p95 over :data:`INFER_LIMIT_MS`, chunk p95
    over the chunk period, and the backlog -- the median lateness of the
    step's last tenth of sends (at least 10) over half the infer limit.
    """
    tail = step.late_ms[-max(10, len(step.late_ms) // 10):]
    factors = [percentile(step.infer_ms, 95) / INFER_LIMIT_MS,
               median(tail) / (INFER_LIMIT_MS / 2)]
    if step.chunk_ms:
        factors.append(percentile(step.chunk_ms, 95) / (1000 * CHUNK_PERIOD_S))
    return max(factors)


def max_rate_at_slo(steps: Sequence[StepResult]) -> float:
    """Rate achieved at the highest fixed rate that meets the SLO (0 if
    none does)."""
    passing = [step for step in steps if slo_factor(step) <= 1]
    return max(passing, key=lambda step: step.rate).achieved_rps if passing else 0.0


# -- the server process ---------------------------------------------------------


class Server:
    """One ``repro serve`` process started through the launcher."""

    def __init__(self, trace_out: Optional[str] = None):
        self.trace_out = trace_out
        self.process: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader: Optional[threading.Thread] = None

    def start(self) -> float:
        """Start the server; returns seconds from spawn to first answered
        health check.  A server that fails to come up is stopped."""
        try:
            return self._start()
        except BaseException:
            self.stop()
            raise

    def _start(self) -> float:
        command = [sys.executable, LAUNCHER]
        if self.trace_out:
            command += ["--trace-out", self.trace_out]
        command += ["serve", MODEL, "--scale", SCALE, "--seed", str(MODEL_SEED),
                    "--port", "0", "--theta", str(THETAS[0])]
        started = perf_counter()
        self.process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                        stderr=subprocess.DEVNULL, text=True)
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        deadline = started + READY_TIMEOUT_S
        while self.url is None:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - perf_counter()))
            except queue.Empty:
                raise RuntimeError("server did not come up in time") from None
            if line is None:
                raise RuntimeError(f"server exited early ({self.process.wait()})")
            found = re.search(r"at (http://\S+?) ", line)
            if found:
                self.url = found.group(1)
        client = ServeClient(self.url, timeout=10)
        while True:
            try:
                client.get("/api/v1/health")
                return perf_counter() - started
            except ServeError:
                if perf_counter() > deadline:
                    raise
                sleep(0.005)

    def _drain(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=10)
        self.process.stdout.close()
        self.process = None


# -- the generator -----------------------------------------------------------------


class Connection:
    """One persistent HTTP/1.1 connection to the server.

    ``TCP_NODELAY`` sends each request at once, and ``TCP_QUICKACK``
    before each read acknowledges the reply's header segment at once;
    without them a keep-alive connection stalls about 40 ms per request
    in Nagle's algorithm against delayed acknowledgements.
    """

    def __init__(self, url: str):
        host, port = url[len("http://"):].rsplit(":", 1)
        self._address = (host, int(port))
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, payload: dict, request_id: str) -> dict:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(*self._address, timeout=REQUEST_TIMEOUT_S)
            self._conn.connect()
            self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            self._conn.request(method, path, body=json.dumps(payload).encode(), headers={
                "Content-Type": "application/json", REQUEST_ID_HEADER: request_id})
            self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            reply = self._conn.getresponse()
            body = json.loads(reply.read())
        except BaseException:
            self.close()  # the next request opens a fresh connection
            raise
        if reply.status != 200:
            raise ServeError(reply.status, str(body.get("error", "")))
        return body

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class Record:
    event: Event
    sent: float = 0.0
    done: float = 0.0
    reply: Optional[dict] = None
    error: Optional[str] = None
    request_id: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def drive(url: str, events: Sequence[Event], t0: float, utterances: Array) -> List[Record]:
    """Send ``events`` on one connection at their due times.

    The due times are fixed in advance, whatever the replies do; a slow
    reply only makes the next request late, and that request's latency
    still counts from when it was due.
    """
    connection = Connection(url)
    sessions: Dict[int, str] = {}
    records = []
    for event in events:
        delay = t0 + event.due - perf_counter()
        if delay > 0:
            sleep(delay)
        record = Record(event)
        frames = utterances[event.utterance]
        if event.kind == "infer":
            method, path = "POST", "/api/v1/infer"
            payload = {"input": frames[event.offset:event.offset + ROW_FRAMES].tolist()}
        elif event.kind == "retune":
            method, path, payload = "PUT", "/api/v1/theta", {"theta": event.theta}
        elif event.kind == "open":
            method, path, payload = "POST", "/api/v1/session/open", {}
        elif event.kind == "chunk":
            method, path = "POST", "/api/v1/infer"
            payload = {"session": sessions.get(event.session, "none"),
                       "input": frames[event.offset:event.offset + CHUNK_FRAMES].tolist()}
        else:
            method, path = "POST", "/api/v1/session/close"
            payload = {"session": sessions.get(event.session, "none")}
        record.request_id = new_request_id()
        record.sent = perf_counter()
        try:
            record.reply = connection.request(method, path, payload, record.request_id)
        except (ServeError, OSError, http.client.HTTPException, ValueError) as exc:
            # Refused, timed out, reset or garbled: a failed operation.
            record.error = f"{type(exc).__name__}: {exc}"
        record.done = perf_counter()
        if event.kind == "open" and record.ok:
            sessions[event.session] = record.reply["session"]
        records.append(record)
    connection.close()
    return records


def run_traffic(url: str, schedule: Schedule, utterances: Array) -> Tuple[List[Record], float]:
    """Both connections, each on its own thread, from one start time.

    While they run, the generator's own garbage collector is paused and
    its threads hand the interpreter lock over every 0.1 ms instead of
    5 ms, so a reply is timestamped when it arrives rather than when the
    other generator thread lets go.
    """
    gc.collect()
    gc.disable()
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        return _run_connections(url, schedule, utterances)
    finally:
        sys.setswitchinterval(switch_interval)
        gc.enable()


def _run_connections(url: str, schedule: Schedule,
                     utterances: Array) -> Tuple[List[Record], float]:
    t0 = perf_counter() + 0.05
    results: Dict[str, List[Record]] = {}
    errors: List[BaseException] = []

    def connection(name: str, events: Sequence[Event]) -> None:
        try:
            results[name] = drive(url, events, t0, utterances)
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=connection, args=("sessions", schedule.sessions)),
               threading.Thread(target=connection, args=("infer", schedule.infer))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results["infer"] + results["sessions"], t0


# -- verification against the offline batch ------------------------------------------


class Offline:
    """The benchmark's own copy of the served model (training is
    deterministic in the seed, so its weights are the server's)."""

    def __init__(self):
        self.benchmark = build_benchmark(MODEL, scale=SCALE, seed=MODEL_SEED)
        self.benchmark.ensure_trained()
        self.model = self.benchmark.model
        self.utterances = self.benchmark.dataset.features[self.benchmark.test_idx]
        self.memo = {}
        stats = {}
        for theta in THETAS:
            clone = clone_with_shared_parameters(self.model)
            stats[theta] = ReuseStats()
            apply_memoization(clone, MemoizationScheme(theta=theta), stats[theta])
            self.memo[theta] = clone
        #: One-shot transcripts of every test utterance, per threshold:
        #: the offline batch that session transcripts must reproduce.
        self.one_shot = {theta: self.transcribe(theta, self.utterances) for theta in THETAS}
        #: Reuse of exactly one pass over the split, so fixed by the outputs.
        self.reuse = ReuseStats.merged([stats[THETAS[0]]])
        self.plain = self.transcribe(None, self.utterances)
        self.memo_times: List[float] = []
        self.plain_times: List[float] = []
        self.windows_ms: List[float] = []

    def windows(self, keys: Sequence[Tuple[int, int]]) -> Array:
        return np.stack([self.utterances[u][o:o + ROW_FRAMES] for u, o in keys])

    def transcribe(self, theta: Optional[float], rows: Array) -> List[List[int]]:
        model = self.model if theta is None else self.memo[theta]
        return [list(t) for t in model.transcribe(rows)]

    def time_forward(self, budget_s: float, outcome: Outcome) -> None:
        """One window of offline batch calls over the whole test split,
        memoized and plain, interleaved.  Runs take several windows
        spread over their length and pool them, so a burst of load from
        elsewhere on the host moves the median less.  Calls are timed on
        this thread's CPU clock, as on ``paper_*``."""
        deadline = perf_counter() + budget_s
        first = len(self.memo_times)
        while perf_counter() < deadline:
            start = thread_time()
            memo = self.transcribe(THETAS[0], self.utterances)
            self.memo_times.append(thread_time() - start)
            start = thread_time()
            plain = self.transcribe(None, self.utterances)
            self.plain_times.append(thread_time() - start)
            outcome.count(True, attempted=2)
            outcome.check(memo == self.one_shot[THETAS[0]] and plain == self.plain,
                          "offline batch changed between calls")
        self.windows_ms.append(1000 * median(self.memo_times[first:]))

    def throughput(self) -> Dict[str, float]:
        rows = len(self.utterances)
        return {
            "memo_rows_per_s": rows / median(self.memo_times),
            "plain_rows_per_s": rows / median(self.plain_times),
            "overhead_vs_plain": median(self.memo_times) / median(self.plain_times),
        }


def verify(records: Sequence[Record], versions: Dict[int, float], offline: Offline,
           outcome: Outcome) -> None:
    """Every infer reply must equal the offline batch under the scheme
    version that served it; every session transcript must equal the
    one-shot transcript of its utterance under the session's scheme."""
    for record in records:
        if record.event.kind == "retune" and record.ok:
            versions[int(record.reply["scheme_version"])] = float(record.reply["theta"])
    infers = [r for r in records if r.event.kind == "infer" and r.ok]
    keys = sorted({(r.event.utterance, r.event.offset) for r in infers})
    position = {key: i for i, key in enumerate(keys)}
    expected = {theta: offline.transcribe(theta, offline.windows(keys)) if keys else []
                for theta in THETAS}
    for record in infers:
        theta = versions.get(int(record.reply["scheme_version"]))
        key = (record.event.utterance, record.event.offset)
        outcome.check(theta is not None and record.reply["theta"] == theta
                      and record.reply["outputs"] == [expected[theta][position[key]]],
                      f"infer {record.request_id}: reply differs from the offline batch "
                      f"under scheme version {record.reply['scheme_version']}")

    opened = {r.event.session: r for r in records if r.event.kind == "open" and r.ok}
    for record in records:
        if record.event.kind == "close" and record.ok:
            theta = opened[record.event.session].reply["theta"]
            outcome.check(
                record.reply["transcript"] == offline.one_shot[theta][record.event.utterance],
                f"session {record.reply['session']}: transcript differs from the "
                "one-shot transcript")


# -- turning records into metrics ---------------------------------------------------


def step_results(records: Sequence[Record], schedule: Schedule, t0: float) -> List[StepResult]:
    results = []
    for index, step in enumerate(schedule.steps):
        infers = [r for r in records if r.event.kind == "infer" and r.event.step == index]
        chunks = [r for r in records if r.event.kind == "chunk"
                  and step.start <= r.event.due < step.end]
        ok = [r for r in infers if r.ok]
        span = (max(r.done for r in ok) - (t0 + min(r.event.due for r in ok))) if ok else 0.0
        results.append(StepResult(
            rate=step.rate,
            infer_ms=[latency_ms(r, t0) for r in infers],
            chunk_ms=[latency_ms(r, t0) for r in chunks],
            late_ms=[1000 * (r.sent - t0 - r.event.due) for r in infers],
            achieved_rps=(len(ok) - 1) / span if span > 0 else 0.0,
        ))
    return results


def latency_ms(record: Record, t0: float) -> float:
    return 1000 * (record.done - t0 - record.event.due) if record.ok else float("inf")


def reply_layers(records: Sequence[Record], t0: float, metrics_reply: dict) -> Dict[str, float]:
    """Per-layer numbers read from replies: server stage timings,
    transport overhead, generator lateness and coalescing."""
    infers = [r for r in records if r.event.kind == "infer" and r.ok]
    chunks = [r for r in records if r.event.kind == "chunk" and r.ok]

    def stage(rows: Sequence[Record], name: str) -> float:
        return median([r.reply["timings_ms"][name] for r in rows])

    hist = metrics_reply["coalesce"]["batch_jobs_hist"]
    forwards = sum(hist.values())
    return {
        "serve.validate_ms": stage(infers, "validate"),
        "serve.queue_wait_ms": stage(infers, "queue_wait"),
        "serve.forward_ms": stage(infers, "forward"),
        "serve.finalize_ms": stage(infers, "finalize"),
        "serve.session_forward_ms": stage(chunks, "forward"),
        "serve.session_wait_ms": stage(chunks, "session_wait"),
        "serve.jobs_per_forward": (sum(int(k) * v for k, v in hist.items()) / forwards
                                   if forwards else 0.0),
        "transport.overhead_ms": median([
            1000 * (r.done - r.sent) - r.reply["timings_ms"]["total"] for r in infers + chunks
        ]),
        "gen.late_p95_ms": percentile([1000 * (r.sent - t0 - r.event.due) for r in records], 95),
    }


def modeled_speedup(stats: ReuseStats) -> float:
    """E-PUR+BM over E-PUR cycles for DeepSpeech2 at the served model's
    measured per-layer reuse (modeled, not measured)."""
    spec, config = PAPER_NETWORKS[MODEL], EPURConfig()
    return (baseline_timing(spec, config).total_cycles
            / memoized_timing(spec, config, ReuseTrace.from_stats(stats, spec)).total_cycles)


def serve_session(server: Server, schedule: Schedule, offline: Offline, outcome: Outcome):
    """Traffic against a running server, then the output checks."""
    client = ServeClient(server.url, timeout=REQUEST_TIMEOUT_S)
    scheme = client.get("/api/v1/theta")
    versions = {int(scheme["scheme_version"]): float(scheme["theta"])}
    records, t0 = run_traffic(server.url, schedule, offline.utterances)
    metrics_reply = client.get("/api/v1/metrics")
    for record in records:
        outcome.count(record.ok)
    verify(records, versions, offline, outcome)
    return records, t0, metrics_reply


def run(workload: str, seed: int, seconds: float, trace: bool):
    del workload
    outcome = Outcome()
    offline = Offline()
    utterances, frames = offline.utterances.shape[:2]
    window_s = OFFLINE_SHARE * seconds / (SETUP_REPEATS + 1)
    os.makedirs(OUT_DIR, exist_ok=True)
    if not trace:
        schedule = make_schedule(seed, seconds, utterances, frames)
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            offline.time_forward(window_s, outcome)
            server = Server()
            try:
                setup_times.append(server.start())
            finally:
                if repeat < SETUP_REPEATS - 1:
                    server.stop()
        try:
            records, t0, _ = serve_session(server, schedule, offline, outcome)
            offline.time_forward(window_s, outcome)
        finally:
            server.stop()
        numbers = offline.throughput()
        steps = step_results(records, schedule, t0)
        nominal = steps[0]
        retunes = [latency_ms(r, t0) for r in records if r.event.kind == "retune"
                   and r.event.due < schedule.steps[0].end]
        metrics = {
            "setup_s": median(setup_times),
            "memo_rows_per_s": numbers["memo_rows_per_s"],
            "plain_rows_per_s": numbers["plain_rows_per_s"],
            "chunk_p50_ms": median(nominal.chunk_ms),
            "retune_p50_ms": median(retunes),
        }
        ungated = {
            "infer_p50_ms": (median(nominal.infer_ms), "ms"),
            "infer_p95_ms": (percentile(nominal.infer_ms, 95), "ms"),
            "infer_max_rps_at_slo": (max_rate_at_slo(steps), "1/s"),
            "chunk_p95_ms": (percentile(nominal.chunk_ms, 95), "ms"),
        }
        info = {
            "rates": [{"rps": s.rate, "sent": len(s.infer_ms),
                       "infer_p50_ms": median(s.infer_ms),
                       "infer_p95_ms": percentile(s.infer_ms, 95),
                       "chunks": len(s.chunk_ms),
                       "chunk_p95_ms": percentile(s.chunk_ms, 95) if s.chunk_ms else None,
                       "achieved_rps": s.achieved_rps, "slo_factor": slo_factor(s)}
                      for s in steps],
            "retunes": len(retunes),
            "setup_runs_s": setup_times,
            "offline_calls": len(offline.memo_times),
            "offline_memo_ms_by_window": offline.windows_ms,
            "core.overhead_vs_plain (offline batch)": numbers["overhead_vs_plain"],
            "ungated_metrics": {name: {"value": value, "unit": unit}
                                for name, (value, unit) in ungated.items()},
        }
        return metrics, outcome, info

    # Traced run: the same nominal-rate traffic against an untraced and
    # then a traced server; replies give the serve/transport/gen layers,
    # spans from the traced server give the engine layers.
    schedule = make_schedule(seed, seconds, utterances, frames, RATES[:1])
    offline.time_forward(window_s, outcome)
    server = Server()
    try:
        server.start()
        records, t0, metrics_reply = serve_session(server, schedule, offline, outcome)
    finally:
        server.stop()
    metrics = reply_layers(records, t0, metrics_reply)
    untraced_p50 = median(step_results(records, schedule, t0)[0].infer_ms)

    offline.time_forward(window_s, outcome)
    span_file = os.path.join(OUT_DIR, "trace-serve_mix.json")
    server = Server(trace_out=span_file)
    try:
        server.start()
        traced, traced_t0, _ = serve_session(server, schedule, offline, outcome)
    finally:
        server.stop()
    spans = load_spans(span_file)
    _append_client_records(span_file, traced, traced_t0)
    served = [r for r in traced if r.event.kind in ("infer", "chunk") and r.ok]
    requests = [s.id for s in spans if s.name == "serve.request"]
    tree = descendants(spans, requests)
    by_name = self_time_by_name(tree)
    metrics.update(layer_metrics(tree, len(served)))
    metrics.update(engine_times(spans))
    metrics.update({
        "core.reuse_fraction": offline.reuse.reuse_fraction(),
        "core.overhead_vs_plain": offline.throughput()["overhead_vs_plain"],
        "accel.modeled_speedup": modeled_speedup(offline.reuse),
        "trace.overhead": median(step_results(traced, schedule, traced_t0)[0].infer_ms)
        / untraced_p50,
        "trace.coverage": sum(by_name.get(name, 0.0) for name in LAYER_SPANS)
        / sum(s.end - s.start for s in spans if s.name == "serve.request"),
    })
    info = {"spans": len(spans), "served_requests": len(served), "span_file": span_file,
            "glue_self_s_by_span": {k: v for k, v in by_name.items() if k not in LAYER_SPANS}}
    return metrics, outcome, info


def _append_client_records(path: str, records: Sequence[Record], t0: float) -> None:
    """Add the generator's side of every request to the span file; the
    request id joins it to the server's spans (one monotonic clock)."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["client"] = [
        {"request_id": r.request_id, "kind": r.event.kind, "due": t0 + r.event.due,
         "sent": r.sent, "done": r.done, "error": r.error}
        for r in records
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)

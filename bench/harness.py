"""The offsetlm benchmark: workloads, measurement, correctness gate and report.

Every workload runs at stress scale (V=512, context 8; black-box embed 32,
hidden 256; proxy embed 16, hidden 64 with a rank-8 adapter on w1 and w2)
against the public ``offsetlm`` API. Its inputs come from the workload
seed (see ``fixtures.py``). A run

1. builds and saves the fixtures;
2. runs one warm-up operation, then closed-loop operations for
   ``--seconds`` with tracing off, and computes the end-to-end metrics.
   Set-up (load the snapshots, start the server) is timed in bursts of
   repeats before the operations, at pauses between slices of them and
   after them (see ``setup_seconds``). The bounded timings are CPU time
   of every process of the system (see ``Workload.cpu_s``); wall-clock
   throughput and latency are printed beside them;
3. with ``--trace 1``, runs a fixed number of further operations with
   spans installed (``tracing.py``) and computes the per-layer metrics and
   the tracing overhead;
4. checks every operation's output (the gate) and prints one
   ``record=...`` line per metric, then a JSON result line.

The gate: greedy long-decode tokens equal the in-process reference
(``generate_adapted``, or ``generate_blackbox`` for ``api``); stochastic
``prada-transfer`` requests equal an in-process ``generate_adapted``
replay; every repeat of an operation, traced or not, returns the same
output and the same ledger totals; ``check_token_flow`` holds; adapter
training lowers the loss. A failure counts as a failed operation and makes
the command exit 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

from offsetlm import (
    Client,
    CostLedger,
    GenerationConfig,
    Server,
    TrainConfig,
    apply_adapter,
    connect_in_process,
    connect_socket,
    encode_adapter,
    generate_adapted,
    generate_blackbox,
    latency_probe,
    load_adapter,
    load_model,
    loss_and_grads,
    train_lora,
)
from offsetlm.core import read_corpus
from offsetlm.transport import CATEGORIES, DIRECTIONS

import fixtures
import tracing

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

MODES = ("api", "prada", "prada-sd", "prada-transfer")
SESSION_MODES = ("prada-sd", "prada-transfer")
TRAIN_LR = 0.1

WORKLOADS = ("long-decode", "short-sessions", "train-adapter")
# setup_s is the median of this many group means; see setup_seconds.
SETUP_GROUPS = 5

# The end-to-end metrics, bounded in BENCHMARK.json. Their timings are CPU
# time, which leaves out the time the hypervisor gives other guests: on a
# shared VM that share changes from minute to minute, and wall-clock figures
# follow it. WALL is printed too but not bounded.
E2E = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_cpu_ms", "ms"),
)
WALL = (
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
)

# span name -> (metric, unit, aggregate field) rows; see Tracer.aggregates
CALLS, TOTAL_S, SELF_S, UNITS = range(4)
SPANS = {
    "models.blackbox_forward": (("models.blackbox_forward_s", "s", TOTAL_S),
                                ("models.blackbox_forward_calls", "count", CALLS)),
    "models.proxy_forward": (("models.proxy_forward_s", "s", TOTAL_S),
                             ("models.proxy_forward_rows", "count", UNITS)),
    "lora.tuned_forward": (("lora.tuned_forward_s", "s", TOTAL_S),
                           ("lora.tuned_forward_rows", "count", UNITS)),
    "models.fingerprint": (("models.fingerprint_s", "s", TOTAL_S),
                           ("models.fingerprint_calls", "count", CALLS),
                           ("models.fingerprint_bytes", "B", UNITS)),
    "models.snapshot_load": (("models.snapshot_load_s", "s", TOTAL_S),),
    "protocol.handshake": (("protocol.handshake_s", "s", TOTAL_S),),
    "lora.adapter_install": (("lora.adapter_install_s", "s", TOTAL_S),
                             ("lora.adapter_install_calls", "count", CALLS)),
    "lora.train_step": (("lora.train_step_s", "s", TOTAL_S),
                        ("lora.train_steps", "count", CALLS),
                        ("lora.train_positions", "count", UNITS)),
    "offset.adjust_sample": (("offset.adjust_sample_s", "s", TOTAL_S),
                             ("offset.adjust_sample_calls", "count", CALLS)),
    "transport.encode": (("transport.encode_s", "s", TOTAL_S),
                         ("transport.frames", "count", CALLS),
                         ("transport.payload_bytes", "B", UNITS)),
    "transport.decode": (("transport.decode_s", "s", TOTAL_S),),
    "transport.channel_wait.client": (("transport.channel_wait_s.client", "s", TOTAL_S),),
    "transport.channel_wait.server": (("transport.channel_wait_s.server", "s", TOTAL_S),),
    "protocol.server_draft": (("protocol.server_draft_s", "s", TOTAL_S),),
}
MODE_METRICS = tuple(
    (f"mode.{mode}.{name}", unit) for mode in MODES
    for name, unit in (("ms_per_token", "ms"), ("rounds_per_token", "rounds/token"),
                       ("bytes_per_token", "B/token"), ("acceptance_rate", "ratio"))
)
PER_LAYER = MODE_METRICS + tuple(
    [(metric, unit) for rows in SPANS.values() for metric, unit, _ in rows]
    + [(f"transport.ledger_bytes.{c}.{d}", "B") for c in CATEGORIES for d in DIRECTIONS]
    + [
        ("protocol.rounds", "count"),
        ("protocol.tokens_drafted", "count"),
        ("protocol.tokens_committed", "count"),
        ("protocol.acceptance_rate", "ratio"),
    ]
    + [(f"protocol.self_s.{mode}", "s") for mode in MODES]
    + [
        ("protocol.requests_sent", "count"),
        ("protocol.requests_succeeded", "count"),
        ("protocol.requests_failed", "count"),
    ]
    + [(f"trace.overhead.{name}", unit) for name, unit in (("op_cpu_ms", "ms"),) + WALL]
)


@dataclass
class Outcome:
    """One operation: its output, its ledgers and how long it took."""

    key: object
    seconds: float = 0.0
    items: int = 0
    result: tuple = ()
    ledgers: tuple = ()  # one CostLedger per generation in the operation
    modes: tuple = ()  # (mode, seconds, tokens) per generation
    error: str | None = None

    def add(self, mode: str, tokens: tuple, seconds: float, ledger: CostLedger) -> None:
        """Append one generation to this operation."""
        self.seconds += seconds
        self.result += tokens
        self.ledgers += (ledger,)
        self.modes += ((mode, seconds, len(tokens)),)


def run_mode(client: Client, mode: str, prompt, config, draft_len: int, tracer):
    if mode == "prada-sd":
        fn, args = client.run_speculative, (prompt, config, draft_len)
    else:
        fn = {"api": client.run_api, "prada": client.run_per_token,
              "prada-transfer": client.run_transfer}[mode]
        args = (prompt, config)
    if tracer is None:
        return fn(*args)
    return tracer.span(f"mode.{mode}", fn, *args)


def _load(tracer, fn, path):
    return fn(path) if tracer is None else tracer.span("models.snapshot_load", fn, path)


def _wrap(tracer, model, name):
    return model if tracer is None or model is None else tracing.TracedModel(model, name, tracer)


class Workload:
    live = ()  # attributes set by ``setup``
    clients = 1
    setup_repeats = 128  # set-ups timed per burst
    slice_s = 0.5  # operation time between two bursts
    trace_ops = 1
    server_rss_kb = 0

    def __init__(self, scale: fixtures.Scale, fx: fixtures.Fixtures, seed: int) -> None:
        self.scale = scale
        self.fx = fx
        self.seed = seed

    def setup(self, tracer) -> None:
        raise NotImplementedError

    def server_cpu_s(self) -> float:
        """CPU seconds used so far by a server process of the workload's own."""
        return 0.0

    def cpu_s(self) -> float:
        """CPU seconds used so far by the system under test: this process and its server.

        The kernel leaves the time stolen by the hypervisor out of these clocks.
        """
        return time.process_time() + self.server_cpu_s()

    def setup_cpu_s(self) -> float:
        """``cpu_s`` counting only this thread of this process, which runs ``setup``.

        It leaves out BLAS worker threads that still spin after an operation.
        """
        return time.thread_time() + self.server_cpu_s()

    def teardown(self, tracer=None) -> None:
        """Drop what ``setup`` made, so that the next timed set-up does not free it."""
        for attr in self.live:
            setattr(self, attr, None)

    def warmup(self) -> None:
        raise NotImplementedError

    def key(self, i: int):
        return self.name

    def op(self, i: int, tracer) -> Outcome:
        raise NotImplementedError

    def mismatch(self, o: Outcome) -> bool:
        """True when ``o`` fails the workload's own check against a reference."""
        return False


class LongDecode(Workload):
    """One operation is one greedy generation in each mode, in MODES order."""

    name = "long-decode"
    live = ("proxy", "adapter", "server")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.config = GenerationConfig(max_new_tokens=self.scale.decode_tokens)
        self.reference = None

    def setup(self, tracer) -> None:
        fx = self.fx
        blackbox = _load(tracer, load_model, fx.blackbox)
        self.proxy = _wrap(tracer, _load(tracer, load_model, fx.proxy), "models.proxy_forward")
        self.adapter = _load(tracer, load_adapter, fx.adapter)
        server_proxy = _load(tracer, load_model, fx.proxy)  # the server's own copy
        self.server = Server(_wrap(tracer, blackbox, "models.blackbox_forward"),
                             _wrap(tracer, server_proxy, "models.proxy_forward"))

    def warmup(self) -> None:
        self._cycle(GenerationConfig(max_new_tokens=self.scale.warmup_tokens), None)

    def op(self, i: int, tracer) -> Outcome:
        return self._cycle(self.config, tracer)

    def _cycle(self, config, tracer) -> Outcome:
        o = Outcome(self.name)
        for mode in MODES:
            o.add(mode, *self._generate(mode, config, tracer))
        o.items = len(o.result)
        return o

    def _generate(self, mode, config, tracer):
        """Timed from after the handshake until the tokens are back, as latency_probe does."""
        ledger = CostLedger()
        conn, thread = connect_in_process(self.server, ledger)
        out = {}
        try:
            if mode == "api":
                client = Client(conn, self.fx.vocab)
            else:
                client = Client(conn, self.fx.vocab, self.proxy, self.adapter)
            client.handshake()

            def run():
                out["tokens"] = run_mode(client, mode, self.fx.prompt, config,
                                         self.scale.draft_len, tracer)
                return out["tokens"]

            report = latency_probe(run)
        finally:
            conn.close()
            thread.join(timeout=30)
        ledger.check_token_flow()
        return tuple(out["tokens"]), report.total_wall_time_s, ledger

    def mismatch(self, o: Outcome) -> bool:
        """Compares with the api reference, then the adapted one for each proxy mode."""
        if self.reference is None:
            blackbox = load_model(self.fx.blackbox)
            proxy = load_model(self.fx.proxy)
            tuned = apply_adapter(proxy, load_adapter(self.fx.adapter))
            api = tuple(generate_blackbox(blackbox, self.fx.prompt, self.config))
            adapted = tuple(generate_adapted(blackbox, proxy, tuned, self.fx.prompt, self.config))
            self.reference = api + adapted * (len(MODES) - 1)
        return o.result != self.reference


class ServerProcess:
    """``serve.py`` in a child process, serving the fixtures over loopback TCP."""

    def __init__(self, fixture_dir: Path, src: Path, traced: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "serve.py"), str(fixture_dir), "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("ready "):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"server process did not start: {line!r}")
        self.port = int(line.split()[1])

    def cpu_s(self) -> float:
        """The process's user plus system time so far, from ``/proc/<pid>/stat``."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()  # from field 3, the state
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> dict:
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise
        return json.loads(out.strip().splitlines()[-1])


class ShortSessions(Workload):
    """One operation is a prada-sd request then a prada-transfer request.

    Both use the same request spec (prompt and sampling seed) and each opens
    its own connection. Timing the pair keeps the operation latency
    unimodal, where the two request kinds alone form two clusters.
    """

    name = "short-sessions"
    live = ("proxy", "adapter")
    clients = 2
    setup_repeats = 2
    slice_s = 2.5  # a set-up starts a process (about 0.2 s), so pause less often

    def __init__(self, src: Path, *args) -> None:
        super().__init__(*args)
        self.src = src
        self.trace_ops = len(self.fx.specs)
        self.server = None
        self.replays: dict = {}

    def setup(self, tracer) -> None:
        self.proxy = _wrap(tracer, _load(tracer, load_model, self.fx.proxy), "models.proxy_forward")
        self.adapter = _load(tracer, load_adapter, self.fx.adapter)
        self.server = ServerProcess(self.fx.blackbox.parent, self.src, tracer is not None)

    def server_cpu_s(self) -> float:
        return self.server.cpu_s() if self.server is not None else 0.0

    def teardown(self, tracer=None) -> None:
        super().teardown()
        report = self.server.stop()
        self.server = None
        self.server_rss_kb = max(self.server_rss_kb, report["peak_rss_kb"])
        if tracer is not None:
            tracer.absorb(report["spans"])

    def warmup(self) -> None:
        self.op(0, None)

    def key(self, i: int):
        return i % len(self.fx.specs)

    def _config(self, key) -> GenerationConfig:
        return GenerationConfig(max_new_tokens=self.scale.session_tokens, mode="stochastic",
                                temperature=1.0, seed=self.fx.specs[key][1])

    def op(self, i: int, tracer) -> Outcome:
        o = Outcome(self.key(i), items=len(SESSION_MODES))
        for mode in SESSION_MODES:
            o.add(mode, *self._request(mode, o.key, tracer))
        return o

    def _request(self, mode: str, key, tracer):
        """One request, timed from connect to close."""
        ledger = CostLedger()
        t0 = time.perf_counter()
        conn = connect_socket("127.0.0.1", self.server.port, ledger)
        try:
            client = Client(conn, self.fx.vocab, self.proxy, self.adapter)
            client.handshake()
            tokens = run_mode(client, mode, self.fx.specs[key][0], self._config(key),
                              self.scale.draft_len, tracer)
        finally:
            conn.close()
        seconds = time.perf_counter() - t0
        ledger.check_token_flow()
        return tuple(tokens), seconds, ledger

    def mismatch(self, o: Outcome) -> bool:
        """The transfer tokens must equal an in-process replay with the same seed.

        Stochastic prada-sd has no reference: it is checked only against its
        own repeats, since its draws depend on the draft length.
        """
        if o.key not in self.replays:
            proxy = load_model(self.fx.proxy)
            tuned = apply_adapter(proxy, load_adapter(self.fx.adapter))
            self.replays[o.key] = tuple(generate_adapted(
                load_model(self.fx.blackbox), proxy, tuned, self.fx.specs[o.key][0],
                self._config(o.key)))
        return o.result[o.modes[0][2]:] != self.replays[o.key]


class TrainAdapter(Workload):
    name = "train-adapter"
    live = ("base", "corpus")
    setup_repeats = 4

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.train_config = TrainConfig(lr=TRAIN_LR, batch_size=self.scale.train_batch,
                                        epochs=self.scale.train_epochs, rank=self.scale.rank,
                                        seed=self.seed)
        self.untrained_loss = None

    def setup(self, tracer) -> None:
        self.base = _load(tracer, load_model, self.fx.proxy)
        self.corpus = read_corpus(self.fx.corpus)
        self.positions = sum(len(doc) - 1 for doc in self.corpus)

    def _untrained(self, base, corpus):
        """The seeded initial adapter (B = 0): what train_lora returns for zero epochs."""
        return train_lora(base, corpus, replace(self.train_config, epochs=0))

    def warmup(self) -> None:
        loss_and_grads(self.base, self._untrained(self.base, self.corpus),
                       self.corpus[: self.scale.train_batch])

    def op(self, i: int, tracer) -> Outcome:
        t0 = time.perf_counter()
        adapter = train_lora(self.base, self.corpus, self.train_config)
        loss, _ = loss_and_grads(self.base, adapter, self.corpus)
        seconds = time.perf_counter() - t0
        items = (self.train_config.epochs + 1) * self.positions
        return Outcome(self.name, seconds, items, (encode_adapter(adapter.snapshot()), loss))

    def mismatch(self, o: Outcome) -> bool:
        """Training must lower the corpus loss below the untrained adapter's."""
        if self.untrained_loss is None:
            base, corpus = load_model(self.fx.proxy), read_corpus(self.fx.corpus)
            self.untrained_loss, _ = loss_and_grads(base, self._untrained(base, corpus), corpus)
        return not o.result[1] < self.untrained_loss


def make_workload(name: str, scale, fx, seed: int, src: Path) -> Workload:
    if name == "long-decode":
        return LongDecode(scale, fx, seed)
    if name == "short-sessions":
        return ShortSessions(src, scale, fx, seed)
    return TrainAdapter(scale, fx, seed)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure(wl: Workload, tracer, *, seconds: float | None = None, count: int | None = None,
            first: int = 0):
    """Closed-loop operations on ``wl.clients`` threads, for a time or a count.

    Operations are numbered from ``first``; a time-bounded call runs at least
    one. Returns the outcomes, the wall time and the CPU time (``wl.cpu_s``).
    """
    outcomes: list[Outcome] = []
    lock = threading.Lock()
    counter = itertools.count(first)
    cpu0 = wl.cpu_s()
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds

    def client() -> None:
        while True:
            with lock:
                i = next(counter)
            if count is not None and i >= count:
                return
            if deadline is not None and i > first and time.perf_counter() >= deadline:
                return
            try:
                outcome = wl.op(i, tracer)
            except Exception as exc:  # an operation's failure is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                outcome = Outcome(wl.key(i), error=repr(exc))
            with lock:
                outcomes.append(outcome)

    threads = [threading.Thread(target=client) for _ in range(wl.clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outcomes, time.perf_counter() - start, wl.cpu_s() - cpu0


def measure_sliced(wl: Workload, seconds: float, slices: int, pause):
    """``measure`` for ``seconds`` of operation time, calling ``pause()`` between slices.

    Slice k ends once the operations have run for ``k * seconds / slices``
    in all, so the operation count matches one unbroken window; the time
    spent in ``pause`` is not part of the returned window and CPU time.
    """
    outcomes: list[Outcome] = []
    window = cpu = 0.0
    for k in range(1, slices + 1):
        budget = seconds * k / slices - window
        if outcomes and budget <= 0:
            continue
        if outcomes:
            pause()
        got, elapsed, used = measure(wl, None, seconds=budget, first=len(outcomes))
        outcomes += got
        window += elapsed
        cpu += used
    return outcomes, window, cpu


def setup_seconds(times: list[float]) -> float:
    """The median of the mean set-up times of SETUP_GROUPS groups.

    The set-ups are dealt into the groups in the order they ran, so every
    group spans the whole run. On a machine whose speed flips between two
    levels every tens to hundreds of milliseconds, single set-ups form two
    clusters and their median jumps between them from run to run; a group
    mean follows the share of time spent at each level, and the median of
    the groups ignores a group that holds a stalled set-up.
    """
    groups = min(SETUP_GROUPS, len(times))
    return statistics.median(statistics.fmean(times[g::groups]) for g in range(groups))


def _p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile: the value of rank ceil(0.9 n)."""
    ordered = sorted(values)
    return ordered[-(-9 * len(ordered) // 10) - 1]


def timing_metrics(outcomes: list[Outcome], window: float, cpu: float) -> dict[str, float]:
    """op_cpu_ms is the CPU time of the window over the operations completed in it."""
    ok = [o for o in outcomes if o.error is None]
    if not ok:
        return {"op_cpu_ms": 0.0, "items_per_s": 0.0, "op_p50_ms": 0.0, "op_p90_ms": 0.0}
    ms = [1000.0 * o.seconds for o in ok]
    return {
        "op_cpu_ms": 1000.0 * cpu / len(outcomes),
        "items_per_s": sum(o.items for o in ok) / window,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": _p90(ms),
    }


def _ledger_signature(o: Outcome):
    return [(tuple(sorted(lg.bytes_by.items())), lg.round_count, lg.tokens_drafted,
             lg.tokens_committed, lg.tokens_dropped, lg.replacements) for lg in o.ledgers]


def gate(wl: Workload, outcomes: list[Outcome]) -> list[str]:
    """Check every operation; returns one message per failed operation."""
    failures = []
    first: dict = {}
    for n, o in enumerate(outcomes):
        if o.error is not None:
            failures.append(f"op {n} key={o.key}: {o.error}")
            continue
        ref = first.setdefault(o.key, o)
        if wl.mismatch(o):
            failures.append(f"op {n} key={o.key}: output differs from the in-process reference")
        elif o.result != ref.result:
            failures.append(f"op {n} key={o.key}: output differs from an earlier repeat")
        elif _ledger_signature(o) != _ledger_signature(ref):
            failures.append(f"op {n} key={o.key}: ledger totals differ from an earlier repeat")
    return failures


def layer_metrics(agg: dict, traced: list[Outcome]) -> dict[str, float]:
    out = {name: 0.0 for name, _ in PER_LAYER}
    for span, rows in SPANS.items():
        fields = agg.get(span, (0, 0.0, 0.0, 0))
        for metric, _, field in rows:
            out[metric] = fields[field]
    for mode in MODES:
        out[f"protocol.self_s.{mode}"] = agg.get(f"mode.{mode}", (0, 0.0, 0.0, 0))[SELF_S]
    ledgers = [lg for o in traced if o.error is None for lg in o.ledgers]
    for c in CATEGORIES:
        for d in DIRECTIONS:
            out[f"transport.ledger_bytes.{c}.{d}"] = sum(lg.bytes_by.get((c, d), 0) for lg in ledgers)
    drafted = sum(lg.tokens_drafted for lg in ledgers)
    dropped = sum(lg.tokens_dropped for lg in ledgers)
    out["protocol.rounds"] = sum(lg.round_count for lg in ledgers)
    out["protocol.tokens_drafted"] = drafted
    out["protocol.tokens_committed"] = sum(lg.tokens_committed for lg in ledgers)
    out["protocol.acceptance_rate"] = (drafted - dropped) / drafted if drafted else 0.0
    out["protocol.requests_sent"] = len(traced)
    out["protocol.requests_failed"] = sum(o.error is not None for o in traced)
    out["protocol.requests_succeeded"] = len(traced) - out["protocol.requests_failed"]
    return out


def mode_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-mode cost per response token, from untraced operations.

    ms_per_token is the mode's generation time over its response tokens;
    rounds, bytes and acceptance come from the exact ledger counts.
    """
    out = {name: 0.0 for name, _ in MODE_METRICS}
    for mode in MODES:
        runs = [(m, lg) for o in outcomes if o.error is None
                for m, lg in zip(o.modes, o.ledgers) if m[0] == mode]
        tokens = sum(m[2] for m, _ in runs)
        if not tokens:
            continue
        drafted = sum(lg.tokens_drafted for _, lg in runs)
        dropped = sum(lg.tokens_dropped for _, lg in runs)
        out[f"mode.{mode}.ms_per_token"] = 1000.0 * sum(m[1] for m, _ in runs) / tokens
        out[f"mode.{mode}.rounds_per_token"] = sum(lg.round_count for _, lg in runs) / tokens
        out[f"mode.{mode}.bytes_per_token"] = sum(sum(lg.bytes_by.values()) for _, lg in runs) / tokens
        out[f"mode.{mode}.acceptance_rate"] = (drafted - dropped) / drafted if drafted else 0.0
    return out


# ---------------------------------------------------------------------------
# Command
# ---------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(fixtures.SCALES), default="stress")
    p.add_argument("--inject-mismatch", action="store_true",
                   help="corrupt the last operation's output, to test the gate")
    return p.parse_args(argv)


def main(argv: list[str], src: Path) -> int:
    args = parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT_DIR))
    try:
        return _run(args, src, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args: argparse.Namespace, src: Path, work_dir: Path) -> int:
    scale = fixtures.SCALES[args.scale]
    fx = fixtures.build(scale, args.seed, work_dir,
                        suppress_eos=args.workload == "long-decode")
    wl = make_workload(args.workload, scale, fx, args.seed, src)

    # Set-up is timed in bursts spread over the run, so that setup_s covers
    # the machine's state over the whole run, as the operations do. Each
    # burst tears down the live set-up and leaves its last one live.
    setup_times = []

    def setup_burst() -> None:
        for r in range(wl.setup_repeats):
            if r:
                wl.teardown()
            t0 = wl.setup_cpu_s()
            wl.setup(None)
            setup_times.append(wl.setup_cpu_s() - t0)

    def pause() -> None:
        wl.teardown()
        setup_burst()

    setup_burst()
    try:
        wl.warmup()
        slices = max(1, round(args.seconds / wl.slice_s))
        outcomes, window, cpu = measure_sliced(wl, args.seconds, slices, pause)
    finally:
        wl.teardown()
    setup_burst()
    wl.teardown()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + wl.server_rss_kb
    e2e = {"setup_s": setup_seconds(setup_times), "peak_rss_mb": rss_kb / 1024.0}
    e2e.update(timing_metrics(outcomes, window, cpu))

    traced: list[Outcome] = []
    layers = None
    if args.trace:
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            wl.setup(tracer)
            try:
                traced, t_window, t_cpu = measure(wl, tracer, count=wl.trace_ops)
            finally:
                wl.teardown(tracer)
        finally:
            undo()
        layers = layer_metrics(tracer.aggregates(), traced)
        for name, value in timing_metrics(traced, t_window, t_cpu).items():
            layers[f"trace.overhead.{name}"] = value - e2e[name]

    everything = outcomes + traced
    if args.inject_mismatch and everything:
        bad = everything[-1].result
        everything[-1].result = bad[:-1] + (bad[-1] + 1,)
    failures = gate(wl, everything)
    failed = len(failures)
    for msg in failures:
        print(f"record=gate_failure {msg}", file=sys.stderr)

    print(f"record=run workload={args.workload} seed={args.seed} scale={args.scale} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"record=fixture adapter_b_scale={fixtures.ADAPTER_B_SCALE} "
          f"blackbox_weight_scale={fixtures.BLACKBOX_WEIGHT_SCALE}")
    for name, unit in E2E + WALL:
        print(f"record=metric name={name} value={e2e[name]!r} unit={unit}")
    print(f"record=metric name=error_rate value={failed / max(1, len(everything))!r} unit=ratio")
    print(f"record=metric name=op_samples value={len(outcomes)} unit=count")
    if layers is not None:
        layers.update(mode_metrics(outcomes))
        for name, unit in PER_LAYER:
            tag = "trace_overhead" if name.startswith("trace.overhead.") else "layer"
            print(f"record={tag} name={name} value={layers[name]!r} unit={unit}")
    else:
        modes = mode_metrics(outcomes)
        for name, unit in MODE_METRICS:
            if modes[name]:
                print(f"record=mode name={name} value={modes[name]!r} unit={unit}")
    print(f"record=gate verdict={'PASS' if not failures else 'FAIL'} "
          f"attempted={len(everything)} failed={failed}")

    chosen = PER_LAYER if args.trace else E2E
    values = layers if args.trace else e2e
    result = {
        "correct": not failures,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in chosen},
    }
    print(json.dumps(result))
    return 0 if not failures else 1

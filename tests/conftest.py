import base64
import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Sequence

import numpy as np
import pytest

from sentinel import baselines
from sentinel.rollout import InferenceRecord, RolloutHeader, RolloutLabel, RolloutLog
from sentinel.vlm import HttpTransport

OK_REPLY = "[start of output]\nOverall assessment: ok\n[end of output]"


def make_header(**overrides):
    fields = dict(
        action_dim=2,
        prediction_horizon=4,
        execution_horizon=2,
        episode_limit=16,
        step_duration=0.5,
        action_mask=(True, True),
        task_description="push the supply cart to either of the two marked loading docks "
                         "and bring it to rest inside the dock circle",
        task_time_limit=8.0,
    )
    fields.update(overrides)
    return RolloutHeader(**fields)


def make_record(timestep, chunks, executed_index=0, embedding=None, frame_ref=None):
    return InferenceRecord(
        timestep=timestep,
        chunk_samples=np.asarray(chunks, dtype=np.float64),
        executed_index=executed_index,
        embedding=None if embedding is None else np.asarray(embedding, dtype=np.float64),
        frame_ref=frame_ref,
    )


def make_log(header=None, n_records=3, batch_size=4, rng=None, label=None,
             with_embedding=True, scale=1.0):
    """Random but valid log: n_records inference steps of gaussian chunks."""
    header = header or make_header()
    rng = rng or np.random.default_rng(0)
    if label == "success":
        label = success_label()
    elif label == "failure":
        label = failure_label()
    k = header.execution_horizon
    records = []
    for j in range(n_records):
        chunks = rng.standard_normal(
            (batch_size, header.prediction_horizon, header.action_dim)) * scale
        embedding = rng.standard_normal(header.action_dim) if with_embedding else None
        records.append(make_record(j * k, chunks, embedding=embedding,
                                   frame_ref=f"frames/t{j * k:04d}.png"))
    return RolloutLog(header=header, records=records, label=label)


def empirical_fpr(nominal_terminal_scores: Sequence[float], gamma: float) -> float:
    """Fraction of nominal terminal scores strictly above gamma."""
    scores = np.asarray(list(nominal_terminal_scores), dtype=np.float64)
    if scores.size == 0:
        raise ValueError("need at least one score")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    return float(np.mean(scores > gamma))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float64 arrays have the same shape and the same bits in every entry,
    so -0.0 differs from 0.0 and every subnormal counts."""
    return (a.dtype == b.dtype == np.float64 and a.shape == b.shape
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def mode_plan(mode, state, horizon: int) -> np.ndarray:
    """(h, d) mean chunk of one `GmmMode` from one (d,) state, written out as
    the reference formula: step j is gain * (1 - gain) ** j * (attractor - state)."""
    decay = mode.gain * (1.0 - mode.gain) ** np.arange(horizon)
    return decay[:, None] * (mode.attractor - np.asarray(state, dtype=np.float64))[None, :]


def records_equal(a: InferenceRecord, b: InferenceRecord) -> bool:
    """Whether two records hold the same fields, arrays compared bit for bit."""
    if a.timestep != b.timestep or a.executed_index != b.executed_index:
        return False
    if not same_bits(a.chunk_samples, b.chunk_samples):
        return False
    if (a.embedding is None) != (b.embedding is None):
        return False
    if a.embedding is not None and not same_bits(a.embedding, b.embedding):
        return False
    return a.frame_ref == b.frame_ref


def v1_text(text: str) -> str:
    """A log file's text rewritten in format version 1: the header's version is 1 and
    each array is nested JSON lists of decimals, as version 1 writers wrote them. The
    arrays are decoded here from their base64 bytes, not through `sentinel.rollout`."""
    lines = []
    for line in text.splitlines():
        obj = json.loads(line)
        if "format_version" in obj:
            obj["format_version"] = 1
        for key in ("chunk_samples", "embedding"):
            if key in obj:
                data = base64.b64decode(obj[key]["f8"], validate=True)
                obj[key] = np.frombuffer(data, dtype="<f8").reshape(obj[key]["shape"]).tolist()
        lines.append(json.dumps(obj, allow_nan=False, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def success_label():
    return RolloutLabel(outcome="success", return_value=1.0, return_threshold=1.0)


def failure_label():
    return RolloutLabel(outcome="failure", return_value=0.0, return_threshold=1.0)


@pytest.fixture
def header():
    return make_header()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def oracle_settings(monkeypatch):
    """Set the oracle detectors' `baselines.NOISE_DRAWS` and `DEPTHS` for one test:
    `oracle_settings(draws=2, depths=(2,))`. A scorer built after the call uses them."""
    def set_settings(draws=None, depths=None):
        if draws is not None:
            monkeypatch.setattr(baselines, "NOISE_DRAWS", draws)
        if depths is not None:
            monkeypatch.setattr(baselines, "DEPTHS", depths)
    return set_settings


class LoopbackEndpoint(ThreadingHTTPServer):
    """A chat endpoint on loopback. Each POST or GET is recorded, then answered by the
    next queued reply; the last reply answers every later request."""

    daemon_threads = False  # so that server_close() joins every handler thread

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _EndpointHandler)
        self.lock = threading.Lock()
        self.seen = []
        self.replies = [chat_reply(OK_REPLY)]
        self.errors = []

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_port}/v1/chat"

    def handle_error(self, request, client_address):
        self.errors.append(sys.exc_info()[1])


class _EndpointHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with self.server.lock:
            self.server.seen.append((self.command, self.headers, json.loads(body) if body else None))
            replies = self.server.replies
            reply = replies.pop(0) if len(replies) > 1 else replies[0]
        reply(self)

    do_GET = do_POST  # a followed redirect arrives as a GET without a body

    def log_message(self, format, *args):
        pass


def status_reply(code, body=b"", headers=()):
    """A reply of status `code` with `body` and `headers`."""
    def reply(handler):
        handler.send_response(code)
        for name, value in headers:
            handler.send_header(name, value)
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)
    return reply


def chat_reply(content):
    """A 200 chat-completion reply whose message content is `content`."""
    return status_reply(200, json.dumps({"choices": [{"message": {"content": content}}]}).encode())


def _serve():
    """Run a `LoopbackEndpoint` until the generator is closed; then shut it down, close it
    and join its threads."""
    server = LoopbackEndpoint()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02},
                              daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert server.errors == []


@pytest.fixture()
def endpoint(monkeypatch):
    """A running `LoopbackEndpoint`, the credential set and proxies cleared; shut down,
    closed and its threads joined when the test ends."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    monkeypatch.setenv(HttpTransport.API_KEY_ENV, "test-key")
    yield from _serve()


@pytest.fixture()
def other_endpoint(endpoint):
    """A second running `LoopbackEndpoint`, on another port, for a redirect's target."""
    yield from _serve()

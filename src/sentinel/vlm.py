"""Task-progression runtime monitor backed by a vision-language model.

Builds structured video-QA prompts from rollout frame references, sends them
through a pluggable transport (scripted mock or HTTP chat endpoint), parses
each reply into its ok/failure vote, and majority-votes prompt ensembles.
Monitor infrastructure problems (timeouts, transport failures, malformed
responses) raise; they are never converted into ok/failure verdicts.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import re
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from .rollout import RolloutLog

TEMPLATE_IDS = ("video_qa", "image_qa", "video_qa_success_video", "video_qa_goal_images")

# Prompt variants that compare the live video against success-only reference
# media and therefore need auxiliary frames attached.
VARIANT_TEMPLATES = ("video_qa_success_video", "video_qa_goal_images")

MAX_FRAMES_PER_REQUEST = 30
DEFAULT_CHECKPOINT_FRACTIONS = (0.5, 1.0)

_START_MARKER = "[start of output]"
_END_MARKER = "[end of output]"
_ASSESSMENT_RE = re.compile(r"^\s*overall assessment:(?P<token>.*)$", re.IGNORECASE)
VOTES = ("ok", "failure")


class MonitorError(Exception):
    """Base class for runtime-monitor problems."""


class ResponseParseError(MonitorError):
    """The model reply did not contain a well-formed output block."""


class MonitorUnavailableError(MonitorError):
    """The monitor could not produce a verdict (timeout, transport down)."""


class TransportError(MonitorError):
    def __init__(self, message: str, transient: bool = False):
        super().__init__(message)
        self.transient = transient


@dataclass(frozen=True)
class MonitorPrompt:
    template_id: str
    task_description: str
    elapsed_seconds: float
    time_limit_seconds: float
    frames: tuple
    auxiliary_frames: Optional[tuple] = None

    def __post_init__(self):
        if self.template_id not in TEMPLATE_IDS:
            raise ValueError(f"unknown template {self.template_id!r}; known: {', '.join(TEMPLATE_IDS)}")
        if not self.task_description:
            raise ValueError("task_description must be nonempty")
        if not self.elapsed_seconds > 0:
            raise ValueError("elapsed_seconds must be > 0")
        if not self.time_limit_seconds > 0:
            raise ValueError("time_limit_seconds must be > 0")
        object.__setattr__(self, "frames", tuple(self.frames))
        if not self.frames:
            raise ValueError("frames must be nonempty")
        if self.template_id == "image_qa" and len(self.frames) != 1:
            raise ValueError("image_qa attaches exactly the most recent frame")
        aux = self.auxiliary_frames
        if self.template_id in VARIANT_TEMPLATES:
            if not aux:
                raise ValueError(f"{self.template_id} needs auxiliary reference frames")
            object.__setattr__(self, "auxiliary_frames", tuple(aux))
        elif aux:
            raise ValueError(f"{self.template_id} does not take auxiliary frames")


def subsample_frames(frame_refs: Sequence, nu: int) -> list:
    """Frames at indices 0, nu, 2*nu, ... plus the final frame."""
    if not frame_refs:
        raise ValueError("frame_refs must be nonempty")
    if nu < 1:
        raise ValueError("nu must be >= 1")
    picked = list(frame_refs[::nu])
    if (len(frame_refs) - 1) % nu != 0:
        picked.append(frame_refs[-1])
    return picked


def cap_frames(frame_refs: Sequence) -> list:
    """Uniformly downsample to at most MAX_FRAMES_PER_REQUEST frames, keeping first and last."""
    n, cap = len(frame_refs), MAX_FRAMES_PER_REQUEST
    if n <= cap:
        return list(frame_refs)
    # Evenly spaced fractional positions rounded to unique indices.
    indices = sorted({round(i * (n - 1) / (cap - 1)) for i in range(cap)})
    return [frame_refs[i] for i in indices]


@functools.cache
def _load_template(template_id: str) -> str:
    path = resources.files("sentinel").joinpath(f"templates/{template_id}.txt")
    return path.read_text(encoding="utf-8")


def build_prompt(p: MonitorPrompt) -> str:
    """Render the template with every placeholder substituted (pure function)."""
    text = _load_template(p.template_id)
    text = text.replace("{DESCRIPTION}", p.task_description)
    text = text.replace("{TIME_LIMIT}", str(round(p.time_limit_seconds)))
    text = text.replace("{TIME}", str(round(p.elapsed_seconds)))
    return text


def parse_response(raw: str) -> str:
    """The monitor's vote, "ok" or "failure": the token on the last
    'Overall assessment:' line of the bracketed output block.

    Anything other than a clean ok/failure token on that line is a parse
    error; there is no silent default.
    """
    start = raw.find(_START_MARKER)
    if start < 0:
        raise ResponseParseError(f"missing {_START_MARKER!r} marker")
    end = raw.find(_END_MARKER, start + len(_START_MARKER))
    if end < 0:
        raise ResponseParseError(f"missing {_END_MARKER!r} marker")
    block = raw[start + len(_START_MARKER):end]

    for line in reversed(block.splitlines()):
        match = _ASSESSMENT_RE.match(line)
        if match is not None:
            token = match.group("token").strip()
            if token.lower() not in VOTES:
                raise ResponseParseError(f"unrecognized assessment token {token!r}")
            return token.lower()
    raise ResponseParseError("no 'Overall assessment:' line in output block")


class MonitorTransport:
    """Sends a rendered prompt plus frame references, returns raw reply text.

    Subclasses implement _send; request() wraps it with latency bookkeeping.
    """

    def __init__(self):
        self.latencies = []

    def _send(self, text: str, frames: Sequence) -> str:
        raise NotImplementedError

    def request(self, text: str, frames: Sequence) -> str:
        started = time.monotonic()
        try:
            return self._send(text, list(frames))
        finally:
            self.latencies.append(time.monotonic() - started)

    @property
    def mean_latency_seconds(self) -> Optional[float]:
        if not self.latencies:
            return None
        return sum(self.latencies) / len(self.latencies)


def request_key(text: str, frames: Sequence) -> str:
    """Stable fixture key for a (prompt text, frame list) request."""
    payload = text + "\0" + "\n".join(str(f) for f in frames)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class MockTransport(MonitorTransport):
    """Scripted transport: responses keyed by request hash, for tests and CLI.

    Directory layout (from_dir): an index.json mapping request keys to reply
    file names, with an optional "_default" entry used for unmatched requests.
    """

    def __init__(self, responses: Optional[dict] = None, default: Optional[str] = None):
        super().__init__()
        self.responses = dict(responses or {})
        self.default = default

    @classmethod
    def from_dir(cls, fixture_dir) -> "MockTransport":
        fixture_dir = Path(fixture_dir)
        index_path = fixture_dir / "index.json"
        if not index_path.is_file():
            raise TransportError(f"no index.json under {fixture_dir}")
        index = json.loads(index_path.read_text(encoding="utf-8"))
        if not isinstance(index, dict) or not all(isinstance(v, str) for v in index.values()):
            raise TransportError(f"{index_path} must map request keys to reply file names")
        default = None
        responses = {}
        for key, name in index.items():
            text = (fixture_dir / name).read_text(encoding="utf-8")
            if key == "_default":
                default = text
            else:
                responses[key] = text
        return cls(responses=responses, default=default)

    def _send(self, text, frames):
        key = request_key(text, frames)
        if key in self.responses:
            return self.responses[key]
        if self.default is not None:
            return self.default
        raise TransportError(f"no scripted response for request {key[:12]}...")


class HttpTransport(MonitorTransport):
    """Chat-completion style JSON endpoint; credential from the environment."""

    API_KEY_ENV = "SENTINEL_VLM_API_KEY"

    def __init__(self, url: str, model: str, timeout_seconds: float = 60.0):
        super().__init__()
        self.url = url
        self.model = model
        self.timeout_seconds = timeout_seconds

    def _send(self, text, frames):
        import http.client
        import os
        import urllib.error
        import urllib.request

        api_key = os.environ.get(self.API_KEY_ENV)
        if not api_key:
            raise TransportError(f"missing credential: set {self.API_KEY_ENV}")
        if not re.fullmatch(r"[!-~]+", api_key):  # a header error would quote the key
            raise TransportError(f"{self.API_KEY_ENV} is not a valid header value: visible ASCII only")
        content = [{"type": "text", "text": text}]
        for ref in frames:
            try:
                data = base64.b64encode(Path(ref).read_bytes()).decode("ascii")
            except OSError as exc:
                raise TransportError(f"cannot read frame {ref!r}: {exc.strerror or exc}") from exc
            content.append({"type": "image_url", "image_url": {"url": f"data:image/png;base64,{data}"}})
        payload = {"model": self.model, "messages": [{"role": "user", "content": content}]}
        try:
            request = urllib.request.Request(self.url, data=json.dumps(payload).encode("utf-8"),
                                             headers={"Content-Type": "application/json"})
            if request.type not in ("http", "https"):  # urllib would read file: and ftp: URLs
                raise ValueError(f"unknown url type: {request.type!r}")
            # unredirected: a followed 301, 302 or 303 must not carry the key to another host
            request.add_unredirected_header("Authorization", f"Bearer {api_key}")
            try:
                with urllib.request.urlopen(request, timeout=self.timeout_seconds) as reply:
                    body = reply.read()
            except urllib.error.HTTPError as exc:  # a status outside 2xx that urllib did not follow
                with exc:
                    detail = exc.read().decode("utf-8", "replace")[:200]
                if exc.code >= 500:
                    raise TransportError(f"server error {exc.code}", transient=True) from exc
                raise TransportError(f"request rejected ({exc.code}): {detail}") from exc
        except (ValueError, OSError, http.client.HTTPException) as exc:  # a URLError wraps its reason
            reason = exc.reason if isinstance(exc, urllib.error.URLError) else exc
            if isinstance(reason, (ValueError, http.client.InvalidURL, str)):  # a str: nothing sent
                raise TransportError(f"cannot send to {self.url!r}: {reason}") from exc
            if isinstance(reason, TimeoutError):
                raise TransportError(f"monitor request timed out after {self.timeout_seconds}s") from exc
            raise TransportError(f"connection failed: {reason}", transient=True) from exc
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise TransportError(f"malformed endpoint reply: {exc}") from exc
        if not isinstance(content, str):
            raise TransportError(f"malformed endpoint reply: content is {content!r}, not a string")
        return content


def query_monitor(p: MonitorPrompt, transport: MonitorTransport) -> str:
    """Render, send (one retry on transient failure), and parse the reply's vote.

    Timeouts and exhausted transports surface as MonitorUnavailableError so a
    combiner can degrade to statistical detection alone; parse errors
    propagate as ResponseParseError.
    """
    text = build_prompt(p)
    frames = list(cap_frames(p.auxiliary_frames or ())) + list(cap_frames(p.frames))
    try:
        raw = transport.request(text, frames)
    except TransportError as exc:
        if not exc.transient:
            raise MonitorUnavailableError(str(exc)) from exc
        try:
            raw = transport.request(text, frames)
        except TransportError as retry_exc:
            raise MonitorUnavailableError(f"retry failed: {retry_exc}") from retry_exc
    return parse_response(raw)


def ensemble_vote(votes: Sequence[str]) -> str:
    """Majority decision over an odd number of "ok"/"failure" votes."""
    if len(votes) % 2 == 0:
        raise ValueError("ensemble needs an odd number of votes")
    for vote in votes:
        if vote not in VOTES:
            raise ValueError(f"invalid vote {vote!r}")
    return "failure" if votes.count("failure") > len(votes) // 2 else "ok"


def checkpoint_budget(fraction: float, geometry) -> float:
    """Seconds a checkpoint at `fraction` of the time limit reaches, for a log header or
    a scenario; refused under k * dt, where the checkpoint would be record 0, at t = 0."""
    if not 0 < fraction <= 1:
        raise ValueError("checkpoint fractions must be in (0, 1]")
    limit, k_dt = geometry.task_time_limit, geometry.execution_horizon * geometry.step_duration
    if not k_dt <= fraction * limit:
        raise ValueError(f"checkpoint_fraction {fraction!r} puts the checkpoint on record 0, "
                         f"at t = 0: {fraction!r} of the {limit!r} s time limit is under "
                         f"k * dt = {k_dt!r} s")
    return fraction * limit


def checkpoint_record_indices(log: RolloutLog,
                              fractions: Sequence[float] = DEFAULT_CHECKPOINT_FRACTIONS) -> list:
    """Record indices whose elapsed time is the last at or under each fraction
    of the task time limit (`checkpoint_budget`). Deduplicated, ascending. A log
    with no record after t = 0 is refused: its every checkpoint would be at t = 0."""
    header = log.header
    if log.records[-1].timestep == 0:
        raise ValueError("the log has no record after t = 0: no checkpoint can make a prompt")
    out = []
    for fraction in fractions:
        budget = checkpoint_budget(fraction, header)
        out.append(max((j for j, record in enumerate(log.records)
                        if record.timestep * header.step_duration <= budget), default=0))
    return sorted(set(out))


def prompt_from_log(log: RolloutLog, template_id: str, record_index: int, nu: int = 1,
                    auxiliary_frames: Optional[Sequence] = None) -> MonitorPrompt:
    """Build the checkpoint prompt for one rollout.

    Logs carry one frame per inference step (every k environment timesteps),
    so striding the record frames by nu reproduces the 0, nu*k, 2*nu*k, ...
    timestep schedule.
    """
    records = log.records[:record_index + 1]
    refs = [r.frame_ref for r in records]
    if any(ref is None for ref in refs):
        raise ValueError("log records lack frame references")
    header = log.header
    elapsed = records[-1].timestep * header.step_duration
    if template_id == "image_qa":
        frames = (refs[-1],)
    else:
        frames = tuple(subsample_frames(refs, nu))
    return MonitorPrompt(
        template_id=template_id,
        task_description=header.task_description,
        elapsed_seconds=elapsed,
        time_limit_seconds=header.task_time_limit,
        frames=frames,
        auxiliary_frames=tuple(auxiliary_frames) if auxiliary_frames else None,
    )


def monitor_log(log: RolloutLog, transport: MonitorTransport,
                templates: Sequence[str] = ("video_qa",), nu: int = 1,
                auxiliary_frames: Optional[Sequence] = None,
                fractions: Sequence[float] = DEFAULT_CHECKPOINT_FRACTIONS) -> tuple:
    """Query the monitor at each checkpoint, one prompt per template (only the
    comparison variants get the auxiliary frames), and majority-vote the
    replies; one template is a one-vote ensemble. Returns (checkpoint rows,
    timestep of the first failing checkpoint or None)."""
    rows = []
    detection_timestep = None
    for j in checkpoint_record_indices(log, fractions):
        votes = []
        for template_id in templates:
            aux = auxiliary_frames if template_id in VARIANT_TEMPLATES else None
            prompt = prompt_from_log(log, template_id, j, nu=nu, auxiliary_frames=aux)
            votes.append(query_monitor(prompt, transport))
        decision = ensemble_vote(votes)
        timestep = log.records[j].timestep
        rows.append({
            "record_index": j,
            "timestep": timestep,
            "elapsed_seconds": timestep * log.header.step_duration,
            "votes": votes,
            "decision": decision,
        })
        if decision == "failure" and detection_timestep is None:
            detection_timestep = timestep
    return rows, detection_timestep

"""Task-progression runtime monitor backed by a vision-language model.

Builds structured video-QA prompts from rollout frame references, sends them
through a pluggable transport (scripted mock or HTTP chat endpoint), parses
the bracketed response block, and majority-votes prompt ensembles. Monitor
infrastructure problems (timeouts, transport failures, malformed responses)
raise; they are never converted into ok/failure verdicts.
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


class TransportTimeout(MonitorError):
    """The request exceeded the per-request timeout."""


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


@dataclass(frozen=True)
class MonitorResponse:
    raw_text: str
    questions: str
    answers: str
    analysis: str
    assessment: str

    def __post_init__(self):
        if self.assessment not in ("ok", "failure"):
            raise ValueError("assessment must be 'ok' or 'failure'")


@dataclass(frozen=True)
class EnsembleVerdict:
    votes: tuple
    decision: str

    def __post_init__(self):
        object.__setattr__(self, "votes", tuple(self.votes))
        if len(self.votes) % 2 == 0 or not self.votes:
            raise ValueError("ensemble needs an odd number of votes")
        for vote in self.votes:
            if vote not in ("ok", "failure"):
                raise ValueError(f"invalid vote {vote!r}")
        majority = "failure" if self.votes.count("failure") > len(self.votes) // 2 else "ok"
        if self.decision != majority:
            raise ValueError("decision must be the majority vote")


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


def cap_frames(frame_refs: Sequence, cap: int = MAX_FRAMES_PER_REQUEST) -> list:
    """Uniformly downsample to at most `cap` frames, keeping first and last."""
    n = len(frame_refs)
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


def _section(block: str, label: str, stop_labels: Sequence[str]) -> str:
    lines = block.splitlines()
    start = None
    for i, line in enumerate(lines):
        if line.strip().lower().startswith(label.lower()):
            start = i
            break
    if start is None:
        return ""
    collected = [lines[start].strip()[len(label):].lstrip()]
    for line in lines[start + 1:]:
        lowered = line.strip().lower()
        if any(lowered.startswith(stop.lower()) for stop in stop_labels):
            break
        collected.append(line)
    return "\n".join(collected).strip()


def parse_response(raw: str) -> MonitorResponse:
    """Extract the bracketed block and the final overall-assessment verdict.

    Anything other than a clean ok/failure token on the last assessment line
    is a parse error; there is no silent default.
    """
    start = raw.find(_START_MARKER)
    if start < 0:
        raise ResponseParseError(f"missing {_START_MARKER!r} marker")
    end = raw.find(_END_MARKER, start + len(_START_MARKER))
    if end < 0:
        raise ResponseParseError(f"missing {_END_MARKER!r} marker")
    block = raw[start + len(_START_MARKER):end]

    assessment = None
    for line in reversed(block.splitlines()):
        match = _ASSESSMENT_RE.match(line)
        if match is not None:
            token = match.group("token").strip().lower()
            if token not in ("ok", "failure"):
                raise ResponseParseError(f"unrecognized assessment token {match.group('token').strip()!r}")
            assessment = token
            break
    if assessment is None:
        raise ResponseParseError("no 'Overall assessment:' line in output block")

    stops = ("Questions:", "Answers:", "Analysis:", "Overall assessment:")
    return MonitorResponse(
        raw_text=raw,
        questions=_section(block, "Questions:", stops),
        answers=_section(block, "Answers:", stops),
        analysis=_section(block, "Analysis:", stops),
        assessment=assessment,
    )


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
        raise TransportError(f"no scripted response for request {key[:12]}...", transient=False)


class HttpTransport(MonitorTransport):
    """Chat-completion style JSON endpoint; credential from the environment."""

    API_KEY_ENV = "SENTINEL_VLM_API_KEY"

    def __init__(self, url: str, model: str, timeout_seconds: float = 60.0):
        super().__init__()
        self.url = url
        self.model = model
        self.timeout_seconds = timeout_seconds

    @staticmethod
    def _encode_frame(ref) -> dict:
        data = base64.b64encode(Path(ref).read_bytes()).decode("ascii")
        return {"type": "image_url", "image_url": {"url": f"data:image/png;base64,{data}"}}

    def _send(self, text, frames):
        import os

        import requests

        api_key = os.environ.get(self.API_KEY_ENV)
        if not api_key:
            raise TransportError(f"missing credential: set {self.API_KEY_ENV}", transient=False)
        content = [{"type": "text", "text": text}]
        content.extend(self._encode_frame(ref) for ref in frames)
        payload = {"model": self.model, "messages": [{"role": "user", "content": content}]}
        try:
            reply = requests.post(
                self.url, json=payload, timeout=self.timeout_seconds,
                headers={"Authorization": f"Bearer {api_key}"})
        except requests.Timeout as exc:
            raise TransportTimeout(f"monitor request timed out after {self.timeout_seconds}s") from exc
        except requests.ConnectionError as exc:
            raise TransportError(f"connection failed: {exc}", transient=True) from exc
        if reply.status_code >= 500:
            raise TransportError(f"server error {reply.status_code}", transient=True)
        if reply.status_code >= 400:
            raise TransportError(f"request rejected ({reply.status_code}): {reply.text[:200]}",
                                 transient=False)
        try:
            content = reply.json()["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise TransportError(f"malformed endpoint reply: {exc}", transient=False) from exc
        if not isinstance(content, str):
            raise TransportError(f"malformed endpoint reply: content is {content!r}, not a string",
                                 transient=False)
        return content


def query_monitor(p: MonitorPrompt, transport: MonitorTransport) -> MonitorResponse:
    """Render, send (one retry on transient failure), and parse.

    Timeouts and exhausted transports surface as MonitorUnavailableError so a
    combiner can degrade to statistical detection alone; parse errors
    propagate as ResponseParseError.
    """
    text = build_prompt(p)
    frames = list(cap_frames(p.auxiliary_frames or ())) + list(cap_frames(p.frames))
    try:
        raw = transport.request(text, frames)
    except TransportTimeout as exc:
        raise MonitorUnavailableError(str(exc)) from exc
    except TransportError as exc:
        if not exc.transient:
            raise MonitorUnavailableError(str(exc)) from exc
        try:
            raw = transport.request(text, frames)
        except TransportTimeout as retry_exc:
            raise MonitorUnavailableError(str(retry_exc)) from retry_exc
        except TransportError as retry_exc:
            raise MonitorUnavailableError(f"retry failed: {retry_exc}") from retry_exc
    return parse_response(raw)


def ensemble_vote(responses: Sequence[MonitorResponse]) -> EnsembleVerdict:
    """Majority decision over an odd number of prompt responses."""
    votes = tuple(r.assessment for r in responses)
    decision = "failure" if votes.count("failure") > len(votes) // 2 else "ok"
    return EnsembleVerdict(votes=votes, decision=decision)


def checkpoint_record_indices(log: RolloutLog,
                              fractions: Sequence[float] = DEFAULT_CHECKPOINT_FRACTIONS) -> list:
    """Record indices whose elapsed time is the last at or under each fraction
    of the task time limit. Deduplicated, ascending."""
    header = log.header
    out = []
    for fraction in fractions:
        if not 0 < fraction <= 1:
            raise ValueError("checkpoint fractions must be in (0, 1]")
        budget = fraction * header.task_time_limit
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
        responses = []
        for template_id in templates:
            aux = auxiliary_frames if template_id in VARIANT_TEMPLATES else None
            prompt = prompt_from_log(log, template_id, j, nu=nu, auxiliary_frames=aux)
            responses.append(query_monitor(prompt, transport))
        verdict = ensemble_vote(responses)
        timestep = log.records[j].timestep
        rows.append({
            "record_index": j,
            "timestep": timestep,
            "elapsed_seconds": timestep * log.header.step_duration,
            "votes": list(verdict.votes),
            "decision": verdict.decision,
        })
        if verdict.decision == "failure" and detection_timestep is None:
            detection_timestep = timestep
    return rows, detection_timestep

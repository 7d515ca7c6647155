import base64
import itertools
import json
import re
import socket
import struct
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from sentinel.vlm import (DEFAULT_CHECKPOINT_FRACTIONS, MAX_FRAMES_PER_REQUEST,
                          TEMPLATE_IDS, HttpTransport, MockTransport, MonitorPrompt,
                          MonitorUnavailableError, ResponseParseError,
                          TransportError, build_prompt,
                          cap_frames, checkpoint_record_indices, ensemble_vote,
                          parse_response, prompt_from_log, query_monitor,
                          request_key, subsample_frames)

from conftest import OK_REPLY, chat_reply, make_header, make_log, status_reply

FIXTURES = Path(__file__).parent / "fixtures"

TASK = ("push the supply cart to either of the two marked loading docks and "
        "bring it to rest inside the dock circle")


def _prompt(template_id="video_qa", **overrides):
    kwargs = dict(template_id=template_id, task_description=TASK,
                  elapsed_seconds=8.0, time_limit_seconds=16.0,
                  frames=("f0.png", "f1.png"))
    if template_id == "image_qa":
        kwargs["frames"] = ("f1.png",)
    if template_id in ("video_qa_success_video", "video_qa_goal_images"):
        kwargs["auxiliary_frames"] = ("ref0.png",)
    kwargs.update(overrides)
    return MonitorPrompt(**kwargs)


class TestMonitorPrompt:
    def test_unknown_template(self):
        with pytest.raises(ValueError):
            _prompt(template_id="essay_qa")

    def test_image_qa_takes_exactly_one_frame(self):
        with pytest.raises(ValueError):
            _prompt("image_qa", frames=("a.png", "b.png"))

    def test_variants_require_auxiliary_frames(self):
        with pytest.raises(ValueError):
            _prompt("video_qa_success_video", auxiliary_frames=None)
        with pytest.raises(ValueError):
            _prompt("video_qa_goal_images", auxiliary_frames=())

    def test_plain_templates_reject_auxiliary_frames(self):
        with pytest.raises(ValueError):
            _prompt("video_qa", auxiliary_frames=("ref.png",))

    def test_rejects_empty_frames_and_bad_times(self):
        with pytest.raises(ValueError):
            _prompt(frames=())
        with pytest.raises(ValueError):
            _prompt(elapsed_seconds=0.0)
        with pytest.raises(ValueError):
            _prompt(time_limit_seconds=-1.0)


class TestPromptRendering:
    @pytest.mark.parametrize("template_id", TEMPLATE_IDS)
    def test_rendered_output_matches_stored_fixture(self, template_id):
        """Rendering is pinned byte for byte so wording changes are loud."""
        rendered = build_prompt(_prompt(template_id))
        stored = (FIXTURES / "rendered_templates" / f"{template_id}.txt").read_text(
            encoding="utf-8")
        assert rendered == stored

    @pytest.mark.parametrize("template_id", TEMPLATE_IDS)
    def test_no_placeholder_survives(self, template_id):
        rendered = build_prompt(_prompt(template_id))
        assert "{DESCRIPTION}" not in rendered
        assert "{TIME_LIMIT}" not in rendered
        assert "{TIME}" not in rendered
        # the answer-format choice braces are instructions, not placeholders
        assert "{CHOICE: [ok, failure]}" in rendered

    def test_times_render_as_whole_seconds(self):
        rendered = build_prompt(_prompt(elapsed_seconds=7.6, time_limit_seconds=16.4))
        assert "up to 16 seconds" in rendered
        assert "elapsed time is 8 seconds" in rendered


class TestParseResponse:
    @pytest.mark.parametrize("name,expected", sorted(json.loads(
        (FIXTURES / "vlm_responses" / "valid" / "expected.json").read_text()).items()))
    def test_valid_fixture(self, name, expected):
        raw = (FIXTURES / "vlm_responses" / "valid" / name).read_text(encoding="utf-8")
        assert parse_response(raw) == expected

    @pytest.mark.parametrize("name", sorted(
        p.name for p in (FIXTURES / "vlm_responses" / "malformed").glob("*.txt")))
    def test_malformed_fixture(self, name):
        raw = (FIXTURES / "vlm_responses" / "malformed" / name).read_text(encoding="utf-8")
        with pytest.raises(ResponseParseError):
            parse_response(raw)

    def test_fixture_counts(self):
        valid = json.loads((FIXTURES / "vlm_responses" / "valid" / "expected.json").read_text())
        malformed = list((FIXTURES / "vlm_responses" / "malformed").glob("*.txt"))
        assert len(valid) == 20
        assert len(malformed) == 20

    @given(st.text(max_size=400))
    def test_random_text_never_yields_silent_verdict(self, raw):
        """Arbitrary text either parses to an explicit ok/failure or raises."""
        try:
            vote = parse_response(raw)
        except ResponseParseError:
            return
        assert vote in ("ok", "failure")
        # reaching a verdict requires the real structure, not a lucky default
        assert "[start of output]" in raw
        assume(True)


class TestFrameSelection:
    def test_subsample_stride(self):
        refs = list(range(13))
        assert subsample_frames(refs, 4) == [0, 4, 8, 12]

    def test_subsample_appends_final_when_missed(self):
        refs = list(range(11))
        assert subsample_frames(refs, 4) == [0, 4, 8, 10]

    def test_subsample_single_frame(self):
        assert subsample_frames(["only"], 5) == ["only"]

    def test_subsample_validation(self):
        with pytest.raises(ValueError):
            subsample_frames([], 1)
        with pytest.raises(ValueError):
            subsample_frames([1], 0)

    def test_cap_noop_when_small(self):
        refs = list(range(30))
        assert cap_frames(refs) == refs

    def test_cap_keeps_first_and_last(self):
        refs = list(range(100))
        capped = cap_frames(refs)
        assert len(capped) <= MAX_FRAMES_PER_REQUEST
        assert capped[0] == 0
        assert capped[-1] == 99
        assert capped == sorted(capped)

    @given(st.integers(min_value=1, max_value=500))
    def test_cap_bounds_any_length(self, n):
        capped = cap_frames(list(range(n)))
        assert len(capped) <= MAX_FRAMES_PER_REQUEST
        assert capped[0] == 0
        assert capped[-1] == n - 1
        assert len(set(capped)) == len(capped)


class TestEnsembleVote:
    @pytest.mark.parametrize("votes", list(itertools.product(("ok", "failure"), repeat=3)))
    def test_all_three_vote_combinations(self, votes):
        expected = "failure" if votes.count("failure") >= 2 else "ok"
        assert ensemble_vote(votes) == expected

    @pytest.mark.parametrize("votes", [("ok", "ok"), ("ok", "failure"), ()])
    def test_rejects_even_counts(self, votes):
        with pytest.raises(ValueError, match="^ensemble needs an odd number of votes$"):
            ensemble_vote(votes)

    @pytest.mark.parametrize("votes", [("ok", "yes", "ok"), ("OK",), ("failure", None, "ok")])
    def test_rejects_a_vote_that_is_not_ok_or_failure(self, votes):
        with pytest.raises(ValueError, match="^invalid vote "):
            ensemble_vote(votes)


class _ScriptedFaults(MockTransport):
    """Raises the queued exceptions before answering like a MockTransport."""

    def __init__(self, faults, **kwargs):
        super().__init__(**kwargs)
        self.faults = list(faults)
        self.calls = 0

    def _send(self, text, frames):
        self.calls += 1
        if self.faults:
            raise self.faults.pop(0)
        return super()._send(text, frames)


class TestQueryMonitor:
    def test_happy_path(self):
        transport = MockTransport(default=OK_REPLY)
        assert query_monitor(_prompt(), transport) == "ok"
        assert transport.mean_latency_seconds is not None

    def test_transient_error_retried_once(self):
        transport = _ScriptedFaults([TransportError("blip", transient=True)],
                                    default=OK_REPLY)
        assert query_monitor(_prompt(), transport) == "ok"
        assert transport.calls == 2

    def test_two_transient_errors_exhaust(self):
        transport = _ScriptedFaults([TransportError("blip", transient=True)] * 2,
                                    default=OK_REPLY)
        with pytest.raises(MonitorUnavailableError):
            query_monitor(_prompt(), transport)
        assert transport.calls == 2

    def test_non_transient_error_not_retried(self):
        transport = _ScriptedFaults([TransportError("bad creds", transient=False)],
                                    default=OK_REPLY)
        with pytest.raises(MonitorUnavailableError):
            query_monitor(_prompt(), transport)
        assert transport.calls == 1

    def test_parse_error_propagates(self):
        transport = MockTransport(default="no markers here")
        with pytest.raises(ResponseParseError):
            query_monitor(_prompt(), transport)

    def test_auxiliary_frames_precede_video_frames(self):
        seen = {}

        class Capture(MockTransport):
            def _send(self, text, frames):
                seen["frames"] = list(frames)
                return OK_REPLY

        p = _prompt("video_qa_success_video",
                    auxiliary_frames=("ref0.png", "ref1.png"))
        query_monitor(p, Capture())
        assert seen["frames"] == ["ref0.png", "ref1.png", "f0.png", "f1.png"]

    def test_oversized_frame_lists_capped(self):
        seen = {}

        class Capture(MockTransport):
            def _send(self, text, frames):
                seen["frames"] = list(frames)
                return OK_REPLY

        p = _prompt(frames=tuple(f"f{i}.png" for i in range(90)))
        query_monitor(p, Capture())
        assert len(seen["frames"]) <= MAX_FRAMES_PER_REQUEST


def _hang_up(handler):
    """Close the connection without a reply."""


def _reset(handler):
    """Close the connection with a reset: a zero linger time makes close() send RST."""
    handler.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    handler.connection.close()


def _sleep(seconds):
    def reply(handler):
        time.sleep(seconds)  # then close without a reply: the client has given up
    return reply


def _frame_prompt(tmp_path):
    """A video_qa prompt over two frame files, f0.png and f1.png."""
    frames = []
    for i, data in enumerate((b"png-0", b"png-1")):
        frame = tmp_path / f"f{i}.png"
        frame.write_bytes(data)
        frames.append(str(frame))
    return _prompt(frames=tuple(frames))


class TestHttpTransport:
    """The real HTTP path against a loopback server: each fault maps to a
    TransportError that `query_monitor` retries once when it is transient."""

    def test_posts_prompt_and_frames_with_bearer_credential(self, endpoint, tmp_path):
        p = _frame_prompt(tmp_path)
        transport = HttpTransport(endpoint.url, "vlm-model")
        assert query_monitor(p, transport) == "ok"
        assert len(endpoint.seen) == 1
        command, headers, body = endpoint.seen[0]
        assert command == "POST"
        assert headers["Authorization"] == "Bearer test-key"
        assert headers["Content-Type"] == "application/json"
        assert body["model"] == "vlm-model"
        [message] = body["messages"]
        assert message["role"] == "user"
        assert message["content"][0] == {"type": "text", "text": build_prompt(p)}
        assert message["content"][1:] == [
            {"type": "image_url", "image_url": {
                "url": "data:image/png;base64," + base64.b64encode(data).decode("ascii")}}
            for data in (b"png-0", b"png-1")]

    def test_missing_credential_sends_nothing(self, endpoint, tmp_path, monkeypatch):
        monkeypatch.delenv(HttpTransport.API_KEY_ENV)
        transport = HttpTransport(endpoint.url, "m")
        with pytest.raises(MonitorUnavailableError,
                           match=f"^missing credential: set {HttpTransport.API_KEY_ENV}$"):
            query_monitor(_frame_prompt(tmp_path), transport)
        assert endpoint.seen == []

    @pytest.mark.parametrize("key", ["sk-secret\n", " sk-secret", "sk\tsecret", "sk-secret\x1b",
                                     "sk-s\u00e9cret"],
                             ids=["trailing-newline", "leading-space", "tab", "control", "non-ascii"])
    def test_credential_that_is_no_header_value_sends_nothing(self, endpoint, tmp_path,
                                                             monkeypatch, key):
        """The message names the variable and never quotes the key."""
        monkeypatch.setenv(HttpTransport.API_KEY_ENV, key)
        with pytest.raises(MonitorUnavailableError) as excinfo:
            query_monitor(_frame_prompt(tmp_path), HttpTransport(endpoint.url, "m"))
        assert str(excinfo.value) == (f"{HttpTransport.API_KEY_ENV} is not a valid header value: "
                                      "visible ASCII only")
        assert endpoint.seen == []

    def test_unreadable_frame_names_its_path_and_sends_nothing(self, endpoint, tmp_path):
        missing = str(tmp_path / "never-written.png")
        with pytest.raises(MonitorUnavailableError,
                           match=f"^cannot read frame {re.escape(repr(missing))}: "
                                 "No such file or directory$"):
            query_monitor(_prompt(frames=(missing,)), HttpTransport(endpoint.url, "m"))
        assert endpoint.seen == []

    @pytest.mark.parametrize("code", [500, 503])
    def test_server_error_is_retried_once(self, endpoint, tmp_path, code):
        endpoint.replies = [status_reply(code), chat_reply(OK_REPLY)]
        assert query_monitor(_frame_prompt(tmp_path), HttpTransport(endpoint.url, "m")) == "ok"
        assert len(endpoint.seen) == 2

    def test_two_server_errors_exhaust(self, endpoint, tmp_path):
        endpoint.replies = [status_reply(503)]
        with pytest.raises(MonitorUnavailableError, match="^retry failed: server error 503$"):
            query_monitor(_frame_prompt(tmp_path), HttpTransport(endpoint.url, "m"))
        assert len(endpoint.seen) == 2

    @pytest.mark.parametrize("reply, reason", [
        (_hang_up, "Remote end closed connection without response"),
        (_reset, r"\[Errno \d+\] Connection reset by peer"),
    ], ids=["dropped", "reset"])
    def test_connection_fault_is_retried_once(self, endpoint, tmp_path, reply, reason):
        endpoint.replies = [reply]
        with pytest.raises(MonitorUnavailableError,
                           match=f"^retry failed: connection failed: {reason}$"):
            query_monitor(_frame_prompt(tmp_path), HttpTransport(endpoint.url, "m"))
        assert len(endpoint.seen) == 2

    def test_connection_refused_is_retried_once(self, endpoint, tmp_path):
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            port = closed.getsockname()[1]
        transport = HttpTransport(f"http://127.0.0.1:{port}/v1/chat", "m")
        with pytest.raises(MonitorUnavailableError, match=r"^retry failed: connection failed: "
                                                          r"\[Errno \d+\] Connection refused$"):
            query_monitor(_frame_prompt(tmp_path), transport)
        assert len(transport.latencies) == 2  # no server: the attempts are counted instead

    @pytest.mark.parametrize("code, headers", [
        (401, ()), (404, ()), (307, (("Location", "/elsewhere"),)),
    ], ids=["401", "404", "post-307"])
    def test_other_status_is_rejected_without_retry(self, endpoint, tmp_path, code, headers):
        """The first 200 characters of the body name the fault; a 307 urllib does not
        follow for a POST."""
        endpoint.replies = [status_reply(code, b"no such model " + b"x" * 300, headers)]
        expected = re.escape(f"request rejected ({code}): " + ("no such model " + "x" * 300)[:200])
        with pytest.raises(MonitorUnavailableError, match=f"^{expected}$"):
            query_monitor(_frame_prompt(tmp_path), HttpTransport(endpoint.url, "m"))
        assert len(endpoint.seen) == 1

    def test_timeout_is_not_retried(self, endpoint, tmp_path):
        endpoint.replies = [_sleep(0.3)]
        transport = HttpTransport(endpoint.url, "m", timeout_seconds=0.2)
        with pytest.raises(MonitorUnavailableError, match=r"^monitor request timed out after 0\.2s$"):
            query_monitor(_frame_prompt(tmp_path), transport)
        assert len(endpoint.seen) == 1

    def test_timeout_on_the_retry_reads_retry_failed(self, endpoint, tmp_path):
        endpoint.replies = [status_reply(502), _sleep(0.3)]
        transport = HttpTransport(endpoint.url, "m", timeout_seconds=0.2)
        with pytest.raises(MonitorUnavailableError,
                           match=r"^retry failed: monitor request timed out after 0\.2s$"):
            query_monitor(_frame_prompt(tmp_path), transport)
        assert len(endpoint.seen) == 2

    def test_connect_timeout_is_not_retried(self, endpoint, tmp_path):
        """A listener whose accept queue is full drops the SYN, so the connect itself
        times out and urllib wraps the TimeoutError in a URLError."""
        with socket.socket() as listener, socket.socket() as filler:
            listener.bind(("127.0.0.1", 0))
            listener.listen(0)
            filler.connect(listener.getsockname())
            transport = HttpTransport(f"http://127.0.0.1:{listener.getsockname()[1]}/", "m",
                                      timeout_seconds=0.2)
            with pytest.raises(MonitorUnavailableError,
                               match=r"^monitor request timed out after 0\.2s$"):
                query_monitor(_frame_prompt(tmp_path), transport)
        assert len(transport.latencies) == 1

    @pytest.mark.parametrize("code", [301, 302, 303])
    def test_followed_redirect_drops_the_credential(self, endpoint, other_endpoint, tmp_path,
                                                    code):
        """urllib follows these for a POST as a GET to the named host; the key stays behind."""
        endpoint.replies = [status_reply(code, headers=(("Location", other_endpoint.url),))]
        assert query_monitor(_frame_prompt(tmp_path), HttpTransport(endpoint.url, "m")) == "ok"
        [(_, headers, _)] = endpoint.seen
        assert headers["Authorization"] == "Bearer test-key"
        [(command, headers, body)] = other_endpoint.seen
        assert (command, body) == ("GET", None)
        assert "Authorization" not in headers

    @pytest.mark.parametrize("url, reason", [
        ("notaurl", "unknown url type: 'notaurl'"),
        ("http://127.0.0.1:port/v1/chat", "nonnumeric port: 'port'"),
        ("http:///v1/chat", "no host given"),
        ("foo://127.0.0.1/v1/chat", "unknown url type: 'foo'"),
        ("ftp://127.0.0.1/v1/chat", "unknown url type: 'ftp'"),
        ("file://{reply}", "unknown url type: 'file'"),
    ], ids=["no-scheme", "bad-port", "no-host", "unknown-scheme", "ftp-scheme", "file-scheme"])
    def test_url_urllib_refuses_is_not_retried(self, endpoint, tmp_path, url, reason):
        """Only http and https are sent to: a file: URL naming a well-formed reply is not read."""
        reply = tmp_path / "reply.json"
        reply.write_text(json.dumps({"choices": [{"message": {"content": OK_REPLY}}]}))
        url = url.format(reply=reply)
        transport = HttpTransport(url, "m")
        with pytest.raises(MonitorUnavailableError,
                           match=f"^{re.escape(f'cannot send to {url!r}: {reason}')}$"):
            query_monitor(_frame_prompt(tmp_path), transport)
        assert len(transport.latencies) == 1
        assert endpoint.seen == []

    @pytest.mark.parametrize("body", [
        b"not json", b"{}", b'{"choices": []}', b'{"choices": [{"message": {}}]}',
    ], ids=["not-json", "no-choices", "empty-choices", "no-content"])
    def test_malformed_reply_is_unavailable(self, endpoint, tmp_path, body):
        endpoint.replies = [status_reply(200, body)]
        with pytest.raises(MonitorUnavailableError, match="^malformed endpoint reply: "):
            query_monitor(_frame_prompt(tmp_path), HttpTransport(endpoint.url, "m"))
        assert len(endpoint.seen) == 1

    @pytest.mark.parametrize("content", [None, 5, ["ok"]], ids=["null", "number", "list"])
    def test_reply_content_not_a_string_is_unavailable(self, endpoint, tmp_path, content):
        """A well-formed reply whose content is no text is refused once, not retried."""
        endpoint.replies = [chat_reply(content)]
        with pytest.raises(MonitorUnavailableError,
                           match=f"^malformed endpoint reply: content is {re.escape(repr(content))}, "):
            query_monitor(_frame_prompt(tmp_path), HttpTransport(endpoint.url, "m"))
        assert len(endpoint.seen) == 1


class TestMockTransport:
    def test_keyed_response_beats_default(self):
        key = request_key("hello", ["a.png"])
        transport = MockTransport(responses={key: "keyed"}, default="default")
        assert transport.request("hello", ["a.png"]) == "keyed"
        assert transport.request("other", ["a.png"]) == "default"

    def test_no_match_no_default_raises_non_transient(self):
        transport = MockTransport()
        with pytest.raises(TransportError) as exc_info:
            transport.request("hello", [])
        assert not exc_info.value.transient

    def test_from_dir(self, tmp_path):
        key = request_key("prompt text", ["f.png"])
        (tmp_path / "index.json").write_text(json.dumps(
            {key: "keyed.txt", "_default": "fallback.txt"}))
        (tmp_path / "keyed.txt").write_text("keyed reply")
        (tmp_path / "fallback.txt").write_text("fallback reply")
        transport = MockTransport.from_dir(tmp_path)
        assert transport.request("prompt text", ["f.png"]) == "keyed reply"
        assert transport.request("anything else", []) == "fallback reply"

    def test_from_dir_requires_index(self, tmp_path):
        with pytest.raises(TransportError):
            MockTransport.from_dir(tmp_path)

    @pytest.mark.parametrize("index", [["reply.txt"], {"_default": 5}],
                             ids=["list", "non-string-name"])
    def test_from_dir_refuses_malformed_index(self, tmp_path, index):
        (tmp_path / "index.json").write_text(json.dumps(index))
        with pytest.raises(TransportError, match="index.json must map request keys"):
            MockTransport.from_dir(tmp_path)

    def test_request_key_sensitivity(self):
        base = request_key("text", ["a", "b"])
        assert request_key("text", ["a", "c"]) != base
        assert request_key("other", ["a", "b"]) != base
        assert request_key("text", ["a", "b"]) == base


class TestCheckpoints:
    def test_default_fractions_pick_midpoint_and_end(self, rng):
        # 8 records at timesteps 0..14, step 0.5s, limit 8s: the 50% budget of
        # 4s admits records through timestep 8 (index 4)
        header = make_header(episode_limit=16, task_time_limit=8.0)
        log = make_log(header=header, n_records=8, batch_size=2, rng=rng)
        assert checkpoint_record_indices(log) == [4, 7]

    def test_deduplicates(self, rng):
        header = make_header(episode_limit=4, task_time_limit=2.0)
        log = make_log(header=header, n_records=2, batch_size=2, rng=rng)
        assert checkpoint_record_indices(log, (0.9, 1.0)) == [1]

    def test_rejects_bad_fraction(self, rng):
        log = make_log(rng=rng)
        with pytest.raises(ValueError):
            checkpoint_record_indices(log, (0.0,))
        with pytest.raises(ValueError):
            checkpoint_record_indices(log, (1.5,))

    def test_refuses_a_checkpoint_before_the_first_executed_chunk(self, rng):
        """At 0.25 of the 8 s limit, 2 s, the checkpoint is record 1, at t = k = 2
        (k * dt = 1 s); under 1/8 of it, it would be record 0, at t = 0."""
        log = make_log(header=make_header(episode_limit=16, task_time_limit=8.0),
                       n_records=8, batch_size=2, rng=rng)
        assert checkpoint_record_indices(log, (0.125, 0.25)) == [1, 2]
        with pytest.raises(ValueError, match=r"^checkpoint_fraction 0\.1 puts the checkpoint on "
                                             r"record 0, at t = 0: "
                                             r"0\.1 of the 8\.0 s time limit is under "
                                             r"k \* dt = 1\.0 s$"):
            checkpoint_record_indices(log, (0.1, 1.0))

    def test_refuses_a_log_with_no_record_after_t0(self, rng):
        """A one-record log ends at t = 0, so every checkpoint would fall there."""
        log = make_log(n_records=1, rng=rng)
        with pytest.raises(ValueError, match=r"^the log has no record after t = 0: "
                                             r"no checkpoint can make a prompt$"):
            checkpoint_record_indices(log)
        assert checkpoint_record_indices(make_log(n_records=2, rng=rng)) == [1]

    def test_prompt_from_log(self, rng):
        header = make_header(episode_limit=16, task_time_limit=8.0)
        log = make_log(header=header, n_records=8, batch_size=2, rng=rng)
        p = prompt_from_log(log, "video_qa", record_index=4, nu=2)
        # records 0..4 carry one frame each; stride 2 picks 0, 2, 4
        assert len(p.frames) == 3
        assert p.elapsed_seconds == pytest.approx(8 * 0.5)
        assert p.time_limit_seconds == 8.0
        assert p.task_description == header.task_description

    def test_prompt_from_log_image_qa_uses_last_frame(self, rng):
        header = make_header()
        log = make_log(header=header, n_records=3, batch_size=2, rng=rng)
        p = prompt_from_log(log, "image_qa", record_index=2)
        assert p.frames == (log.records[2].frame_ref,)

    def test_prompt_from_log_requires_frames(self, rng):
        header = make_header()
        log = make_log(header=header, n_records=2, batch_size=2, rng=rng)
        from sentinel.rollout import RolloutLog
        stripped = RolloutLog(
            header=header,
            records=[type(r)(timestep=r.timestep, chunk_samples=r.chunk_samples,
                             executed_index=r.executed_index, embedding=r.embedding,
                             frame_ref=None) for r in log.records],
            label=log.label)
        with pytest.raises(ValueError):
            prompt_from_log(stripped, "video_qa", record_index=1)


def test_default_checkpoint_fractions():
    assert DEFAULT_CHECKPOINT_FRACTIONS == (0.5, 1.0)

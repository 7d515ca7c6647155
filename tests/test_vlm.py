import itertools
import json
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from sentinel.vlm import (DEFAULT_CHECKPOINT_FRACTIONS, MAX_FRAMES_PER_REQUEST,
                          TEMPLATE_IDS, EnsembleVerdict, HttpTransport, MockTransport,
                          MonitorPrompt, MonitorResponse,
                          MonitorUnavailableError, ResponseParseError,
                          TransportError, TransportTimeout, build_prompt,
                          cap_frames, checkpoint_record_indices, ensemble_vote,
                          parse_response, prompt_from_log, query_monitor,
                          request_key, subsample_frames)

from conftest import make_header, make_log

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
        response = parse_response(raw)
        assert response.assessment == expected
        assert response.raw_text == raw

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

    def test_sections_extracted(self):
        raw = (FIXTURES / "vlm_responses" / "valid" / "ok_basic.txt").read_text()
        response = parse_response(raw)
        assert response.questions.startswith("1. Where is the cart now?")
        assert "midway" in response.answers
        assert "steady contact" in response.analysis

    def test_missing_sections_default_empty(self):
        raw = (FIXTURES / "vlm_responses" / "valid" / "ok_minimal.txt").read_text()
        response = parse_response(raw)
        assert response.questions == ""
        assert response.answers == ""
        assert response.analysis == ""

    @given(st.text(max_size=400))
    def test_random_text_never_yields_silent_verdict(self, raw):
        """Arbitrary text either parses to an explicit ok/failure or raises."""
        try:
            response = parse_response(raw)
        except ResponseParseError:
            return
        assert response.assessment in ("ok", "failure")
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
        responses = [MonitorResponse(raw_text="", questions="", answers="",
                                     analysis="", assessment=v) for v in votes]
        verdict = ensemble_vote(responses)
        expected = "failure" if votes.count("failure") >= 2 else "ok"
        assert verdict.decision == expected
        assert verdict.votes == votes

    def test_rejects_even_counts(self):
        ok = MonitorResponse(raw_text="", questions="", answers="", analysis="",
                             assessment="ok")
        with pytest.raises(ValueError):
            ensemble_vote([ok, ok])
        with pytest.raises(ValueError):
            ensemble_vote([])

    def test_verdict_invariants(self):
        with pytest.raises(ValueError):
            EnsembleVerdict(votes=("ok", "failure"), decision="ok")
        with pytest.raises(ValueError):
            EnsembleVerdict(votes=("ok", "ok", "ok"), decision="failure")
        with pytest.raises(ValueError):
            EnsembleVerdict(votes=("ok", "yes", "ok"), decision="ok")


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


OK_REPLY = "[start of output]\nOverall assessment: ok\n[end of output]"


class TestQueryMonitor:
    def test_happy_path(self):
        transport = MockTransport(default=OK_REPLY)
        response = query_monitor(_prompt(), transport)
        assert response.assessment == "ok"
        assert transport.mean_latency_seconds is not None

    def test_transient_error_retried_once(self):
        transport = _ScriptedFaults([TransportError("blip", transient=True)],
                                    default=OK_REPLY)
        response = query_monitor(_prompt(), transport)
        assert response.assessment == "ok"
        assert transport.calls == 2

    def test_two_transient_errors_exhaust(self):
        transport = _ScriptedFaults([TransportError("blip", transient=True)] * 2,
                                    default=OK_REPLY)
        with pytest.raises(MonitorUnavailableError):
            query_monitor(_prompt(), transport)
        assert transport.calls == 2

    def test_timeout_not_retried(self):
        transport = _ScriptedFaults([TransportTimeout("slow")], default=OK_REPLY)
        with pytest.raises(MonitorUnavailableError):
            query_monitor(_prompt(), transport)
        assert transport.calls == 1

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


class TestHttpTransport:
    @pytest.mark.parametrize("content", [None, 5, ["ok"]], ids=["null", "number", "list"])
    def test_reply_content_not_a_string_is_unavailable(self, tmp_path, monkeypatch, content):
        """A well-formed reply whose content is no text is refused once, not retried."""
        import requests

        calls = []

        class Reply:
            status_code = 200

            def json(self):
                return {"choices": [{"message": {"content": content}}]}

        def post(*args, **kwargs):
            calls.append(kwargs["json"])
            return Reply()

        monkeypatch.setattr(requests, "post", post)
        monkeypatch.setenv(HttpTransport.API_KEY_ENV, "test-key")
        frame = tmp_path / "f0.png"
        frame.write_bytes(b"png")
        transport = HttpTransport("http://localhost:1/v1/chat", "model")
        with pytest.raises(MonitorUnavailableError,
                           match=f"^malformed endpoint reply: content is {re.escape(repr(content))}, "):
            query_monitor(_prompt(frames=(str(frame),)), transport)
        assert len(calls) == 1


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

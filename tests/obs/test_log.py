"""Structured JSON logging: line shape, binding, stdlib bridge."""

import io
import logging

from repro.obs.log import (
    JsonLogHandler,
    JsonLogger,
    capture_logger,
    parse_log_lines,
    stderr_logger,
    stdlib_logs_to,
)


class TestJsonLogger:
    def test_one_json_object_per_line(self):
        logger, buffer = capture_logger()
        logger.info("request", path="/v1/simulate", status=200)
        logger.error("request.failed", status=500)
        objs = parse_log_lines(buffer.getvalue())
        assert len(objs) == 2
        assert objs[0]["event"] == "request"
        assert objs[0]["level"] == "info"
        assert objs[0]["path"] == "/v1/simulate"
        assert objs[1]["level"] == "error"
        assert all("ts" in obj for obj in objs)

    def test_bind_carries_correlation_fields(self):
        logger, buffer = capture_logger()
        req_log = logger.bind(trace_id="ab" * 16, path="/v1/sweep")
        req_log.warning("request.rejected", status=429)
        (obj,) = parse_log_lines(buffer.getvalue())
        assert obj["trace_id"] == "ab" * 16
        assert obj["path"] == "/v1/sweep"
        assert obj["status"] == 429

    def test_bind_is_layered_not_shared(self):
        logger, buffer = capture_logger()
        child = logger.bind(a=1)
        grandchild = child.bind(b=2)
        child.info("x")
        grandchild.info("y")
        objs = parse_log_lines(buffer.getvalue())
        assert "b" not in objs[0]
        assert objs[1]["a"] == 1 and objs[1]["b"] == 2

    def test_min_level_filters(self):
        buffer = io.StringIO()
        logger = JsonLogger([buffer], min_level="warning")
        logger.debug("d")
        logger.info("i")
        logger.warning("w")
        objs = parse_log_lines(buffer.getvalue())
        assert [o["event"] for o in objs] == ["w"]

    def test_component_is_stamped(self):
        buffer = io.StringIO()
        JsonLogger([buffer], component="serve").info("x")
        assert parse_log_lines(buffer.getvalue())[0]["component"] \
            == "serve"

    def test_non_json_values_are_scrubbed_not_raised(self):
        logger, buffer = capture_logger()
        logger.info("x", path=object(), nested={"k": (1, 2)},
                    none=None)
        (obj,) = parse_log_lines(buffer.getvalue())
        assert obj["path"].startswith("<object")
        assert obj["nested"] == {"k": [1, 2]}
        assert obj["none"] is None

    def test_no_streams_means_disabled_and_silent(self):
        logger = JsonLogger([])
        assert not logger.enabled
        logger.info("x")    # must not raise

    def test_closed_stream_never_raises(self):
        buffer = io.StringIO()
        logger = JsonLogger([buffer])
        buffer.close()
        logger.info("x")    # swallowed, serve stays up

    def test_stderr_logger_construction(self, capsys):
        stderr_logger(component="campaign").info("campaign.done",
                                                 jobs=3)
        (obj,) = parse_log_lines(capsys.readouterr().err)
        assert obj["component"] == "campaign"
        assert obj["jobs"] == 3


class TestStdlibBridge:
    def _stdlib_logger(self, json_logger):
        log = logging.Logger("repro.campaign.cache")
        log.addHandler(JsonLogHandler(json_logger))
        return log

    def test_records_become_json_lines(self):
        json_logger, buffer = capture_logger()
        self._stdlib_logger(json_logger).warning(
            "corrupt cache entry %s", "/tmp/x.json")
        (obj,) = parse_log_lines(buffer.getvalue())
        assert obj["level"] == "warning"
        assert obj["event"] == "repro.campaign.cache"
        assert obj["message"] == "corrupt cache entry /tmp/x.json"

    def test_extra_fields_survive_as_structured_data(self):
        json_logger, buffer = capture_logger()
        self._stdlib_logger(json_logger).warning(
            "corrupt entry", extra={"entry": "/tmp/x.json",
                                    "reason": "torn write"})
        (obj,) = parse_log_lines(buffer.getvalue())
        assert obj["entry"] == "/tmp/x.json"
        assert obj["reason"] == "torn write"

    def test_unknown_levels_map_to_info(self):
        json_logger, buffer = capture_logger()
        log = self._stdlib_logger(json_logger)
        log.log(25, "between info and warning")    # custom level
        (obj,) = parse_log_lines(buffer.getvalue())
        assert obj["level"] == "info"


class TestStdlibLogsTo:
    def test_routes_repro_records_then_restores(self):
        json_logger, buffer = capture_logger()
        target = logging.getLogger("repro")
        before = (list(target.handlers), target.propagate)
        with stdlib_logs_to(json_logger):
            logging.getLogger("repro.campaign.cache").warning(
                "corrupt cache entry %s", "/tmp/x.json")
        (obj,) = parse_log_lines(buffer.getvalue())
        assert obj["event"] == "repro.campaign.cache"
        assert obj["message"] == "corrupt cache entry /tmp/x.json"
        assert (target.handlers, target.propagate) == before

    def test_none_leaves_logging_alone(self):
        target = logging.getLogger("repro")
        before = (list(target.handlers), target.propagate)
        with stdlib_logs_to(None):
            assert (target.handlers, target.propagate) == before


class TestParseLogLines:
    def test_skips_blank_lines(self):
        text = '\n{"event": "a"}\n\n{"event": "b"}\n'
        assert [o["event"] for o in parse_log_lines(text)] \
            == ["a", "b"]

"""End-to-end HTTP tests of the characterization service."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.measures.report import characterize
from repro.scheduling.selection import recommend_from_measures
from repro.serve import SCHEMA

from .conftest import cache_events, kernel_invocations


@pytest.fixture
def env_matrix():
    return np.random.default_rng(21).uniform(0.5, 10.0, (6, 5))


class TestEndpoints:
    def test_characterize_matches_the_library(self, live_server, env_matrix):
        status, body = live_server.post_json(
            "characterize", {"matrix": env_matrix.tolist()}
        )
        assert status == 200
        document = json.loads(body)
        assert document["schema"] == SCHEMA
        assert document["endpoint"] == "characterize"
        result = document["result"]
        profile = characterize(env_matrix)
        assert result["mph"] == pytest.approx(profile.mph, rel=1e-9)
        assert result["tdh"] == pytest.approx(profile.tdh, rel=1e-9)
        assert result["tma"] == pytest.approx(profile.tma, rel=1e-6)
        assert result["n_tasks"] == 6
        assert result["n_machines"] == 5
        assert result["converged"] is True

    def test_standardize_returns_a_standard_form(
        self, live_server, env_matrix
    ):
        status, body = live_server.post_json(
            "standardize", {"matrix": env_matrix.tolist()}
        )
        assert status == 200
        result = json.loads(body)["result"]
        standard = np.asarray(result["matrix"])
        assert standard.shape == env_matrix.shape
        assert result["converged"] is True
        # Equal margins: every row sums to row_target, every column to
        # col_target (the standard-form invariant).
        np.testing.assert_allclose(
            standard.sum(axis=1), result["row_target"], rtol=1e-6
        )
        np.testing.assert_allclose(
            standard.sum(axis=0), result["col_target"], rtol=1e-6
        )

    def test_recommend_heuristic_applies_the_rule(
        self, live_server, env_matrix
    ):
        status, body = live_server.post_json(
            "recommend-heuristic", {"matrix": env_matrix.tolist()}
        )
        assert status == 200
        result = json.loads(body)["result"]
        measures = result["measures"]
        name, reason = recommend_from_measures(
            measures["mph"], measures["tdh"], measures["tma"]
        )
        assert result["heuristic"] == name
        assert result["reason"] == reason

    def test_options_are_honoured(self, live_server, env_matrix):
        status, body = live_server.post_json(
            "standardize",
            {"matrix": env_matrix.tolist(), "max_iterations": 2},
        )
        assert status == 200
        result = json.loads(body)["result"]
        assert result["iterations"] <= 2
        assert result["converged"] is False


class TestCachingOverHttp:
    def test_cache_hit_is_bit_identical_with_zero_kernel_work(
        self, live_server, env_matrix
    ):
        payload = {"matrix": env_matrix.tolist()}
        status1, body1 = live_server.post_json("characterize", payload)
        invocations = kernel_invocations(
            live_server.registry, "characterize"
        )
        status2, body2 = live_server.post_json("characterize", payload)
        assert (status1, status2) == (200, 200)
        assert body1 == body2
        assert (
            kernel_invocations(live_server.registry, "characterize")
            == invocations
        )
        assert cache_events(live_server.registry, "hit-memory") >= 1

    def test_different_options_miss_the_cache(self, live_server, env_matrix):
        live_server.post_json("characterize", {"matrix": env_matrix.tolist()})
        before = kernel_invocations(live_server.registry, "characterize")
        live_server.post_json(
            "characterize",
            {"matrix": env_matrix.tolist(), "tol": 1e-6},
        )
        assert (
            kernel_invocations(live_server.registry, "characterize")
            == before + 1
        )


class TestHttpSurface:
    def test_unknown_endpoint_404(self, live_server):
        status, body = live_server.post_json("summarize", {"matrix": [[1.0]]})
        assert status == 404
        assert json.loads(body)["error"]["category"] == "not-found"

    def test_unknown_path_404(self, live_server):
        status, body = live_server.request("GET", "/nope")
        assert status == 404

    def test_get_on_endpoint_405(self, live_server):
        status, body = live_server.request("GET", "/v1/characterize")
        assert status == 405
        assert json.loads(body)["error"]["category"] == "bad-request"

    def test_bad_json_400(self, live_server):
        status, body = live_server.request(
            "POST", "/v1/characterize", b"{not json"
        )
        assert status == 400
        assert json.loads(body)["error"]["category"] == "bad-request"

    def test_validation_error_400(self, live_server):
        status, body = live_server.post_json(
            "characterize", {"matrix": [[1.0, 2.0]], "tol": 7}
        )
        assert status == 400
        assert "tol" in json.loads(body)["error"]["message"]

    def test_oversized_body_413(self, live_server):
        import asyncio

        async def oversized():
            reader, writer = await asyncio.open_connection(
                live_server.host, live_server.port
            )
            writer.write(
                b"POST /v1/characterize HTTP/1.1\r\n"
                b"Content-Length: 99999999999\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return raw

        raw = asyncio.run(oversized())
        assert b"413" in raw.split(b"\r\n", 1)[0]

    def test_healthz_reports_cache_and_coalescer(self, live_server):
        live_server.post_json("characterize", {"matrix": [[1.0, 2.0], [3.0, 4.0]]})
        status, body = live_server.request("GET", "/healthz")
        assert status == 200
        result = json.loads(body)["result"]
        assert result["status"] == "ok"
        assert result["requests_served"] >= 1
        assert "hits_memory" in result["cache"]
        assert result["coalescer"]["characterize"]["batches_flushed"] >= 1

    def test_metrics_scrape_exposes_serve_families(self, live_server):
        live_server.post_json(
            "characterize", {"matrix": [[1.0, 2.0], [3.0, 4.0]]}
        )
        status, body = live_server.request("GET", "/metrics")
        assert status == 200
        text = body.decode("utf-8")
        assert "repro_serve_requests_total" in text
        assert "repro_serve_kernel_invocations_total" in text
        assert "repro_serve_coalesce_batch_size" in text
        assert (
            'repro_serve_requests_total{endpoint="characterize",'
            'status="200"}' in text
        )


class TestConcurrentHttpBurst:
    def test_burst_of_identical_requests_over_real_sockets(
        self, live_server
    ):
        matrix = (
            np.random.default_rng(31).uniform(0.5, 10.0, (5, 5)).tolist()
        )
        before = kernel_invocations(live_server.registry, "characterize")
        responses = live_server.post_many(
            [("characterize", {"matrix": matrix})] * 6
        )
        assert {status for status, _ in responses} == {200}
        assert len({body for _, body in responses}) == 1
        # All six callers shared one batched kernel invocation.
        assert (
            kernel_invocations(live_server.registry, "characterize")
            == before + 1
        )


def _raw_exchange(server, data: bytes, *, half_close: bool = False) -> bytes:
    """Send raw bytes over one connection; the full raw response.

    ``half_close`` shuts the sending side after ``data``, so a server
    that waits for more lines sees end of stream instead of hanging.
    """
    import asyncio

    async def exchange():
        reader, writer = await asyncio.open_connection(
            server.host, server.port
        )
        writer.write(data)
        if half_close:
            writer.write_eof()
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        return raw

    return asyncio.run(exchange())


@pytest.fixture
def loop_errors(live_server):
    """Contexts passed to the server loop's exception handler."""
    import asyncio

    errors: list[dict] = []
    loop = live_server.handle._loop

    async def install():
        loop.set_exception_handler(lambda _loop, context: errors.append(context))

    asyncio.run_coroutine_threadsafe(install(), loop).result(5)
    yield errors

    async def settle():
        await asyncio.sleep(0.05)

    asyncio.run_coroutine_threadsafe(settle(), loop).result(5)
    assert errors == []


class TestMalformedFraming:
    @pytest.mark.parametrize("length", [b"-5", b"abc", b"1.5", b""])
    def test_bad_content_length_400(self, live_server, loop_errors, length):
        raw = _raw_exchange(
            live_server,
            b"POST /v1/characterize HTTP/1.1\r\n"
            b"Content-Length: " + length + b"\r\n\r\n",
        )
        assert raw.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
        error = json.loads(raw.split(b"\r\n\r\n", 1)[1])["error"]
        assert "Content-Length" in error["message"]

    def test_overlong_header_line_431(self, live_server, loop_errors):
        raw = _raw_exchange(
            live_server,
            b"POST /v1/characterize HTTP/1.1\r\n"
            b"X-Padding: " + b"a" * 70_000 + b"\r\n\r\n",
        )
        assert raw.split(b"\r\n", 1)[0] == (
            b"HTTP/1.1 431 Request Header Fields Too Large"
        )

    def test_too_many_header_lines_431(self, live_server, loop_errors):
        """Distinct header names cannot grow the header dict without
        bound: line 101 is answered with 431 (the stream stops there,
        so the server leaves no unread bytes behind)."""
        headers = b"".join(b"X-H%d: v\r\n" % i for i in range(101))
        raw = _raw_exchange(
            live_server,
            b"POST /v1/characterize HTTP/1.1\r\n" + headers,
            half_close=True,
        )
        assert raw.split(b"\r\n", 1)[0] == (
            b"HTTP/1.1 431 Request Header Fields Too Large"
        )
        error = json.loads(raw.split(b"\r\n\r\n", 1)[1])["error"]
        assert "header lines" in error["message"]

    def test_hundred_header_lines_are_accepted(
        self, live_server, loop_errors
    ):
        body = json.dumps({"matrix": [[1.0, 2.0], [3.0, 4.0]]}).encode()
        headers = b"".join(b"X-H%d: v\r\n" % i for i in range(99))
        raw = _raw_exchange(
            live_server,
            b"POST /v1/characterize HTTP/1.1\r\n" + headers
            + b"Content-Length: %d\r\n\r\n" % len(body) + body,
        )
        assert raw.split(b"\r\n", 1)[0] == b"HTTP/1.1 200 OK"

    def test_server_keeps_serving_afterwards(self, live_server, loop_errors):
        _raw_exchange(
            live_server,
            b"POST /v1/characterize HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        )
        status, _ = live_server.post_json(
            "characterize", {"matrix": [[1.0, 2.0], [3.0, 4.0]]}
        )
        assert status == 200


class TestBackendField:
    def test_numpy_is_the_same_request_as_no_field(self, live_server):
        matrix = [[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]]
        status, plain = live_server.post_json(
            "characterize", {"matrix": matrix}
        )
        assert status == 200
        status, explicit = live_server.post_json(
            "characterize", {"matrix": matrix, "backend": "numpy"}
        )
        assert status == 200
        assert explicit == plain

    def test_other_backends_rejected_listing_numpy(self, live_server):
        status, body = live_server.post_json(
            "characterize", {"matrix": [[1.0, 2.0]], "backend": "numba"}
        )
        assert status == 400
        assert "['numpy']" in json.loads(body)["error"]["message"]

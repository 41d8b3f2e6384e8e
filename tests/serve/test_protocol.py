"""Request validation and the deterministic wire encoding."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.serve import (
    ENDPOINTS,
    SCHEMA,
    ProtocolError,
    decode_json,
    encode_json,
    error_body,
    json_safe,
    parse_request,
    result_body,
)


def _payload(matrix=None, **options):
    payload = {"matrix": matrix if matrix is not None else [[1.0, 2.0], [3.0, 4.0]]}
    payload.update(options)
    return payload


class TestParseRequest:
    def test_accepts_every_documented_endpoint(self):
        for endpoint in ENDPOINTS:
            request = parse_request(endpoint, _payload())
            assert request.endpoint == endpoint
            assert request.shape == (2, 2)

    def test_matrix_is_float64_c_contiguous(self):
        request = parse_request("characterize", _payload())
        assert request.matrix.dtype == np.float64
        assert request.matrix.flags["C_CONTIGUOUS"]

    def test_unknown_endpoint_is_404(self):
        with pytest.raises(ProtocolError) as err:
            parse_request("summarize", _payload())
        assert err.value.status == 404

    def test_non_dict_document_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_request("characterize", [1, 2, 3])

    def test_missing_matrix_rejected(self):
        with pytest.raises(ProtocolError, match="matrix"):
            parse_request("characterize", {"tol": 1e-8})

    @pytest.mark.parametrize(
        "matrix",
        [
            [],
            [[]],
            [1.0, 2.0],
            [[[1.0]]],
            [[1.0, "x"], [2.0, 3.0]],
            "matrix",
        ],
    )
    def test_malformed_matrices_rejected(self, matrix):
        with pytest.raises(ProtocolError):
            parse_request("characterize", _payload(matrix=matrix))

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request(
                "characterize", _payload(matrix=[[1.0, 2.0], [3.0]])
            )

    def test_nan_matrix_is_accepted_by_the_protocol(self):
        # NaN is a *fault taxonomy* concern (the robust pipeline turns
        # it into a structured `nan` quarantine error), not a protocol
        # violation — the request must parse.
        request = parse_request(
            "characterize",
            _payload(matrix=[[1.0, float("nan")], [1.0, 1.0]]),
        )
        assert math.isnan(request.matrix[0, 1])

    def test_unknown_option_rejected(self):
        with pytest.raises(ProtocolError, match="unknown option"):
            parse_request("characterize", _payload(linger=3))

    def test_options_are_per_endpoint(self):
        parse_request("standardize", _payload(max_iterations=10))
        with pytest.raises(ProtocolError, match="unknown option"):
            parse_request("characterize", _payload(max_iterations=10))

    @pytest.mark.parametrize("tol", [0.0, -1e-8, 1.5, "tight", float("nan")])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ProtocolError):
            parse_request("characterize", _payload(tol=tol))

    @pytest.mark.parametrize("policy", ["raise", "drop", 3])
    def test_bad_policy_rejected(self, policy):
        with pytest.raises(ProtocolError):
            parse_request("characterize", _payload(policy=policy))

    @pytest.mark.parametrize("policy", ["quarantine", "repair"])
    def test_good_policy_accepted(self, policy):
        request = parse_request("characterize", _payload(policy=policy))
        assert request.options["policy"] == policy

    def test_bad_tma_fallback_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request("characterize", _payload(tma_fallback="guess"))

    @pytest.mark.parametrize("value", [0, -3, 2.5, "many"])
    def test_bad_max_iterations_rejected(self, value):
        with pytest.raises(ProtocolError):
            parse_request("standardize", _payload(max_iterations=value))


class TestEncoding:
    def test_encode_is_deterministic_and_sorted(self):
        a = encode_json({"b": 1, "a": 2})
        b = encode_json({"a": 2, "b": 1})
        assert a == b == b'{"a":2,"b":1}\n'

    def test_encode_scrubs_nan_to_null(self):
        # Strict-JSON clients never see a bare NaN token.
        assert encode_json({"x": float("nan")}) == b'{"x":null}\n'

    def test_json_safe_scrubs_non_finite_and_numpy(self):
        cleaned = json_safe(
            {
                "nan": float("nan"),
                "inf": np.float64("inf"),
                "x": np.float64(1.5),
                "n": np.int64(3),
                "flag": np.bool_(True),
                "nested": [np.float64("-inf"), {"y": np.float64(2.0)}],
            }
        )
        assert cleaned == {
            "nan": None,
            "inf": None,
            "x": 1.5,
            "n": 3,
            "flag": True,
            "nested": [None, {"y": 2.0}],
        }

    def test_decode_json_bad_bytes(self):
        with pytest.raises(ProtocolError):
            decode_json(b"{not json")

    def test_result_body_roundtrip(self):
        body = result_body("characterize", {"mph": 0.5})
        document = json.loads(body)
        assert document == {
            "schema": SCHEMA,
            "endpoint": "characterize",
            "result": {"mph": 0.5},
        }

    def test_error_body_shape(self):
        document = json.loads(error_body("standardize", "nan", "bad data"))
        assert document["schema"] == SCHEMA
        assert document["error"] == {"category": "nan", "message": "bad data"}


class TestCanonicalOptions:
    def test_request_carries_its_canonical_options(self):
        from repro.serve import canonical_options, matrix_cache_key
        from repro.serve.cache import request_cache_key

        request = parse_request("characterize", _payload(tol=1e-9))
        assert request.canonical_options == canonical_options(request.options)
        assert request_cache_key(request) == matrix_cache_key(
            request.matrix, endpoint="characterize", options=request.options
        )

    def test_serialized_once_per_served_request(self, monkeypatch):
        # The cache key and the coalescing group key both read the
        # string the request carries; neither serializes the options.
        import asyncio

        from repro.obs.metrics import MetricsRegistry, collecting_metrics
        from repro.serve import CharacterizationServer, ServeConfig, protocol

        calls = []
        real = protocol.canonical_options

        def counting(options):
            calls.append(options)
            return real(options)

        monkeypatch.setattr(protocol, "canonical_options", counting)
        body = json.dumps(_payload([[1.0, 2.0], [3.0, 5.0]])).encode()
        with collecting_metrics(MetricsRegistry()):
            server = CharacterizationServer(ServeConfig(port=0))
            status, _, _ = asyncio.run(
                server.dispatch("POST", "/v1/characterize", body)
            )
        assert status == 200
        assert len(calls) == 1

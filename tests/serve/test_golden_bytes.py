"""Golden response bytes: the service answers a fixed request set with
exactly the bytes it answered before any kernel-layer rework.

Each digest is the SHA-256 of ``b"<status>\\n" + body`` for one request
(or, for the coalesced batch, of the three answers joined in request
order).  A change that reorders a floating-point sum, drops a
validation step that fed a fault message, or re-labels a quarantine
category changes a digest here.  The cache key version is pinned too:
identical bytes under a new key scheme would still orphan every disk
spill.

The digests were recorded with numpy 2.4.6 on its bundled OpenBLAS
(x86-64, DYNAMIC_ARCH).  TMA comes from LAPACK's SVD, whose last bits
may differ under another BLAS build or CPU kernel; there, record the
digests afresh on the parent commit of the change under test
(``observed_digests()``) before comparing.
"""

from __future__ import annotations

import asyncio
import hashlib
import json

import numpy as np
import pytest

from repro.serve import CACHE_KEY_VERSION, CharacterizationServer, ServeConfig

from .conftest import kernel_invocations

EQ10 = [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]


def _positive(seed: int, shape=(12, 5)) -> list:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 20.0, shape).tolist()


def _one_zero() -> list:
    matrix = np.random.default_rng(23).uniform(1.0, 9.0, (8, 8))
    matrix[3, 5] = 0.0
    return matrix.tolist()


def _nan_matrix() -> list:
    matrix = _positive(31)
    matrix[4][2] = float("nan")
    return matrix


SINGLE_REQUESTS = {
    "characterize-12x5": ("characterize", {"matrix": _positive(7)}),
    "characterize-8x8-one-zero": ("characterize", {"matrix": _one_zero()}),
    "characterize-eq10-limit": (
        "characterize", {"matrix": EQ10, "tma_fallback": "limit"},
    ),
    "characterize-eq10-column": (
        "characterize", {"matrix": EQ10, "tma_fallback": "column"},
    ),
    "characterize-nan": ("characterize", {"matrix": _nan_matrix()}),
    "standardize-12x5": ("standardize", {"matrix": _positive(7)}),
    "recommend-12x5": ("recommend-heuristic", {"matrix": _positive(7)}),
}

BATCH = [("characterize", {"matrix": _positive(seed)}) for seed in (41, 42, 43)]

GOLDEN = {
    "characterize-12x5": (
        "712ba3611bf68083d101eea98575eff0"
        "eeea1ce8c258fa5b9e9b0534a1142275"
    ),
    "characterize-8x8-one-zero": (
        "a7d57d34a51a6903a5f4cf55fea0061a"
        "0c6403ecb9040ab24234f4faaeb5fa15"
    ),
    "characterize-eq10-limit": (
        "4e6144eb37b264caea6ddb2f3c9d9e33"
        "7ea0d1141f10c7d50fdc85be1c500302"
    ),
    "characterize-eq10-column": (
        "28b108af7fdbe1df985f1983e55c6ea3"
        "43cbd4d205ff3e879800586064d1f004"
    ),
    "characterize-nan": (
        "a2cb4d1d9f8ab421522d11f22015a8db"
        "f0feb1607d015d5d96baaacf259ab9f0"
    ),
    "standardize-12x5": (
        "62e414cd3a921a69e63b6acdb1960a60"
        "0c0fd318bb1cd012ca203af45fb5d2c4"
    ),
    "recommend-12x5": (
        "8c05e5ddf08aa8fbf8249277b3cf5741"
        "718d606a1a2944f2707aa5b3e33f8cbc"
    ),
    "batch-of-3": (
        "fc9c275a73b50dd34b3e8460a1d58764"
        "1040c65024faad12cce4c3631ba32271"
    ),
}


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, allow_nan=True).encode("utf-8")


def _digest(*answers: tuple[int, bytes]) -> str:
    sha = hashlib.sha256()
    for status, body in answers:
        sha.update(f"{status}\n".encode("ascii"))
        sha.update(body)
    return sha.hexdigest()


def _server() -> CharacterizationServer:
    # A long linger so the gathered batch lands in one coalescing
    # window; a fresh server per request set, so nothing is a cache hit.
    return CharacterizationServer(ServeConfig(port=0, linger_s=0.05))


async def _post(server, endpoint: str, payload: dict) -> tuple[int, bytes]:
    status, _, body = await server.dispatch(
        "POST", f"/v1/{endpoint}", _encode(payload)
    )
    return status, body


def observed_digests() -> dict[str, str]:
    """The digest of every request in the golden set, freshly served."""
    out = {}
    for name, (endpoint, payload) in SINGLE_REQUESTS.items():
        out[name] = _digest(asyncio.run(_post(_server(), endpoint, payload)))

    async def _batch():
        server = _server()
        return await asyncio.gather(
            *(_post(server, endpoint, payload) for endpoint, payload in BATCH)
        )

    out["batch-of-3"] = _digest(*asyncio.run(_batch()))
    return out


@pytest.fixture
def digests(metrics_registry):
    return observed_digests(), metrics_registry


class TestGoldenBytes:
    def test_every_digest_matches(self, digests):
        observed, _ = digests
        changed = sorted(k for k in GOLDEN if observed.get(k) != GOLDEN[k])
        assert not changed, f"response bytes changed for {changed}"

    def test_the_batch_ran_as_one_kernel_call(self, digests):
        # Six single requests on the characterize coalescer (the
        # recommend request rides it too) plus one coalesced batch of
        # three; standardize has its own coalescer.
        _, registry = digests
        assert kernel_invocations(registry, "characterize") == 7
        assert kernel_invocations(registry, "standardize") == 1

    def test_the_nan_request_is_a_quarantine(self, metrics_registry):
        status, body = asyncio.run(
            _post(_server(), *SINGLE_REQUESTS["characterize-nan"])
        )
        assert status == 422
        assert json.loads(body)["error"]["category"] == "nan"

    def test_cache_key_version_is_unchanged(self):
        assert CACHE_KEY_VERSION == "repro-serve-key/2"

"""Correctness of every answer against the library's scalar path."""

from __future__ import annotations

import json

import numpy as np

TOLERANCE = 1e-9


class Reference:
    """Scalar ``characterize`` / ``standardize`` results, memoized by
    matrix bytes so repeated requests are computed once."""

    def __init__(self) -> None:
        from repro.measures import characterize
        from repro.normalize import standardize
        from repro.scheduling.selection import recommend_from_measures

        self._characterize = characterize
        self._standardize = standardize
        self._recommend = recommend_from_measures
        self._profiles: dict = {}
        self._standard: dict = {}

    def profile(self, matrix: np.ndarray):
        key = (matrix.shape, matrix.tobytes())
        if key not in self._profiles:
            self._profiles[key] = self._characterize(matrix)
        return self._profiles[key]

    def standard(self, matrix: np.ndarray) -> np.ndarray:
        key = (matrix.shape, matrix.tobytes())
        if key not in self._standard:
            self._standard[key] = self._standardize(matrix).matrix
        return self._standard[key]

    def answer_ok(self, endpoint: str, matrix: np.ndarray, body: bytes) -> bool:
        """Whether one 200 body matches the library within TOLERANCE."""
        try:
            result = json.loads(body)["result"]
            if endpoint == "standardize":
                served = np.asarray(result["matrix"], dtype=float)
                want = self.standard(matrix)
                return served.shape == want.shape and _close(served, want)
            measures = result if endpoint == "characterize" else result["measures"]
            profile = self.profile(matrix)
            got = [measures["mph"], measures["tdh"], measures["tma"]]
            if not _close(got, [profile.mph, profile.tdh, profile.tma]):
                return False
            if endpoint == "recommend-heuristic":
                name, _ = self._recommend(profile.mph, profile.tdh, profile.tma)
                return result["heuristic"] == name
            return True
        except (KeyError, TypeError, ValueError):
            return False

    def members_ok(self, stack: np.ndarray, result, indices) -> int:
        """Mismatches of sampled members of an ensemble result."""
        bad = 0
        for i in indices:
            profile = self.profile(stack[i])
            got = [result.mph[i], result.tdh[i], result.tma[i]]
            bad += not _close(got, [profile.mph, profile.tdh, profile.tma])
        return bad


def _close(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= TOLERANCE))


def same_results(a, b) -> bool:
    """Two ensemble characterizations agree member by member."""
    return len(a) == len(b) and _close(a.measures, b.measures)

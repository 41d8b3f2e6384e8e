"""Seeded inputs of the three benchmark workloads.

Every workload has the same two parts, so that every run measures every
end-to-end figure on its own inputs:

* ``requests`` — the ``/v1`` traffic one closed-loop run sends, in order;
* ``stacks`` — ``(N, T, M)`` stacks characterized offline, in memory
  and from a shard store.

The workloads differ in which part they stress:

* ``serve_lone`` — one client, fresh 12x5 ``characterize`` requests
  (never repeated); the offline stack holds as many matrices, drawn
  the same way, as the ensemble has members.
* ``serve_mix`` — two clients, the load generator's endpoint mix over
  12x5, 17x5 and 32x16 shapes, with exact repeats of a small pool,
  perturbed pool members and fresh matrices, in exact shares; the
  offline stacks are the first 4096 matrices of each shape it draws.
* ``ensemble`` — a 16384-member 8x8 log-uniform stack, one member in 400
  carrying a zero (the scalar fallback); its members, served one at a
  time, are the traffic.

The same seed gives the same inputs.  The stack of ``ensemble`` is made
by the library's generator inside the timed set-up (see ``run.py``);
everything else here is plain numpy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

#: Paper shapes: SPEC CINT (12x5), SPEC CFP (17x5), and a larger one.
MIX_SHAPES = ((12, 5), (17, 5), (32, 16))
#: Endpoint weights of the mixed traffic (the load generator's default).
MIX_ENDPOINTS = (
    ("characterize", 0.60),
    ("standardize", 0.25),
    ("recommend-heuristic", 0.15),
)
MIX_REPEAT = 0.30
MIX_PERTURB = 0.30
#: Pool of repeated matrices per shape; pool x endpoints stays well
#: below the server's default 1024-entry result cache.
MIX_POOL = 32

ENSEMBLE_MEMBERS = 16384
ENSEMBLE_SHAPE = (8, 8)
#: One member in this many carries a zero (paper Section VI).
ENSEMBLE_ZERO_EVERY = 400

#: Members of the offline stacks of ``serve_mix``: enough that a store
#: pass plans several shards and its work, not its pool start-up,
#: dominates.
OFFLINE_SERVE_MEMBERS = 12288
#: Members of the offline stack of ``serve_lone``: its 12x5 store plans
#: four shards, two for each worker on a two-CPU machine.  An odd shard
#: count leaves one worker idle through the last shard, at a cost that
#: depends on how many cores the machine has free at the time.
OFFLINE_LONE_MEMBERS = ENSEMBLE_MEMBERS

#: Share of the measured seconds each workload spends serving; the
#: rest goes to the offline passes.
SERVE_SHARE = {"serve_lone": 0.6, "serve_mix": 0.6, "ensemble": 0.25}
NAMES = tuple(SERVE_SHARE)
#: Requests made per second of serving: well above what the server
#: answers, so a closed loop never runs out of fresh requests.
MAX_RPS = 1000


@dataclass
class Request:
    """One ``/v1`` request: endpoint, matrix and its encoded body."""

    endpoint: str
    matrix: np.ndarray
    body: bytes = field(repr=False)


@dataclass
class Workload:
    """The generated inputs of one workload."""

    name: str
    clients: int
    requests: list
    #: Offline stacks; ``ensemble`` fills it during set-up.
    stacks: list
    #: Seed of the library-generated stack (``ensemble`` only).
    stack_seed: int | None = None


def _request(endpoint: str, matrix: np.ndarray) -> Request:
    body = json.dumps({"matrix": matrix.tolist()}).encode()
    return Request(endpoint, matrix, body)


def _positive(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(0.5, 10.0, size=shape)


def lone(seed: int, n_requests: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    matrices = [
        _positive(rng, MIX_SHAPES[0])
        for _ in range(max(n_requests, OFFLINE_LONE_MEMBERS))
    ]
    requests = [_request("characterize", m) for m in matrices[:n_requests]]
    stack = np.stack(matrices[:OFFLINE_LONE_MEMBERS])
    return Workload("serve_lone", 1, requests, [stack])


def _block_draws(rng, weights: dict, block: int, n: int) -> list:
    """``n`` labels in shuffled blocks holding each label in its exact
    share, so a seed changes the order but not the proportions."""
    pattern = [
        label for label, w in weights.items() for _ in range(round(w * block))
    ]
    if len(pattern) != block:
        raise ValueError(f"shares {weights} do not fill a block of {block}")
    out: list = []
    while len(out) < n:
        out.extend(rng.permutation(pattern).tolist())
    return out[:n]


def mix(seed: int, n_requests: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    pools = [
        rng.uniform(0.5, 10.0, size=(MIX_POOL, *shape)) for shape in MIX_SHAPES
    ]
    block = 60
    # Enough draws for the offline stacks too; only the first
    # ``n_requests`` are sent.
    n = max(n_requests, OFFLINE_SERVE_MEMBERS + 2 * block)
    endpoints = _block_draws(rng, dict(MIX_ENDPOINTS), block, n)
    shapes = _block_draws(
        rng, {i: 1 / len(MIX_SHAPES) for i in range(len(MIX_SHAPES))},
        block, n,
    )
    kinds = _block_draws(
        rng,
        {
            "repeat": MIX_REPEAT,
            "perturb": MIX_PERTURB,
            "fresh": 1 - MIX_REPEAT - MIX_PERTURB,
        },
        block,
        n,
    )
    drawn = []
    for endpoint, shape_index, kind in zip(endpoints, shapes, kinds):
        pool = pools[shape_index]
        if kind == "repeat":
            matrix = pool[int(rng.integers(MIX_POOL))]
        elif kind == "perturb":
            jitter = 1.0 + rng.uniform(-0.02, 0.02, size=pool.shape[1:])
            matrix = pool[int(rng.integers(MIX_POOL))] * jitter
        else:
            matrix = _positive(rng, MIX_SHAPES[shape_index])
        drawn.append((endpoint, matrix))
    requests = [_request(e, m) for e, m in drawn[:n_requests]]
    per_shape = OFFLINE_SERVE_MEMBERS // len(MIX_SHAPES)
    stacks = []
    for shape in MIX_SHAPES:
        same = [m for _, m in drawn if m.shape == shape]
        stacks.append(np.stack(same[:per_shape]))
    return Workload("serve_mix", 2, requests, stacks)


def ensemble_zeros(seed: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Stack seed, zero-carrying member indices and their zero cells."""
    rng = np.random.default_rng([seed, 3])
    stack_seed = int(rng.integers(2**31))
    members = np.sort(
        rng.choice(
            ENSEMBLE_MEMBERS,
            ENSEMBLE_MEMBERS // ENSEMBLE_ZERO_EVERY,
            replace=False,
        )
    )
    cells = rng.integers(0, ENSEMBLE_SHAPE, size=(len(members), 2))
    return stack_seed, members, cells


def apply_zeros(stack: np.ndarray, members, cells) -> np.ndarray:
    stack[members, cells[:, 0], cells[:, 1]] = 0.0
    return stack


def ensemble(seed: int, n_requests: int) -> Workload:
    """Members are made in set-up; the traffic is filled in there too."""
    stack_seed, _, _ = ensemble_zeros(seed)
    return Workload("ensemble", 1, [], [], stack_seed=stack_seed)


def ensemble_requests(seed: int, stack: np.ndarray, n_requests: int) -> list:
    """Members in a seeded order, each a lone ``characterize`` request."""
    rng = np.random.default_rng([seed, 4])
    order = rng.permutation(len(stack))[:n_requests]
    return [_request("characterize", stack[i]) for i in order]


def n_requests(name: str, seconds: float) -> int:
    return int(seconds * SERVE_SHARE[name] * MAX_RPS) + 200


def build(name: str, seed: int, seconds: float) -> Workload:
    make = {"serve_lone": lone, "serve_mix": mix, "ensemble": ensemble}
    return make[name](seed, n_requests(name, seconds))

"""A seeded UCB bandit over candidate degrees of parallelism.

The paper's credit/debit algorithm walks the DOP ladder one mutation per
run; when the good region is many mutations away, most runs are spent in
transit.  Cuttlefish-style bandit tuning instead treats a small set of
candidate DOP levels as arms and spends runs where the uncertainty is:
pull every arm once, then follow the upper confidence bound until the
incumbent has been confirmed.

Determinism contract: the advisor owns a private seeded generator and
every draw happens in run order (the adaptive loop calls
:meth:`select` once per run), so a fixed seed reproduces the exact pull
sequence -- the same rule the noise and chaos streams follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import LearnError

#: UCB exploration coefficient; sqrt(2) is the classic UCB1 constant.
DEFAULT_EXPLORATION = math.sqrt(2.0)
#: Pulls of the incumbent best arm required to declare convergence.
DEFAULT_CONFIDENCE_PULLS = 3


def default_dop_arms(max_dop: int) -> tuple[int, ...]:
    """Candidate DOP levels: 0 (serial) plus powers of two up to the cap.

    Geometric spacing keeps the arm count logarithmic in machine size
    (7 arms on a 32-thread box) while still bracketing the optimum: the
    best achievable DOP is within 2x of some arm, and the simulated
    speedup curve is flat enough near its optimum that a 2x bracket
    lands inside the paper's "good plan" region.
    """
    if max_dop < 1:
        raise LearnError(f"max_dop must be >= 1, got {max_dop}")
    arms = [0]
    level = 1
    while level < max_dop:
        arms.append(level)
        level *= 2
    arms.append(max_dop)
    return tuple(dict.fromkeys(arms))


@dataclass
class ArmState:
    """Book-keeping for one candidate DOP level."""

    dop: int
    pulls: int = 0
    total_reward: float = 0.0
    rewards: list[float] = field(default_factory=list)

    @property
    def mean_reward(self) -> float:
        return self.total_reward / self.pulls if self.pulls else 0.0


class BanditAdvisor:
    """Seeded UCB1 advisor over a fixed set of DOP arms.

    Rewards are speedups over the serial run (``serial_time /
    exec_time``), so "higher is better" and the scale is
    machine-independent.  ``warm_arm`` (from the experience store) is
    pulled first during the initial sweep, which front-loads the most
    promising plan and lets the confidence rule finish earlier.
    """

    def __init__(
        self,
        arms: tuple[int, ...] | list[int],
        *,
        seed: int,
        exploration: float = DEFAULT_EXPLORATION,
        confidence_pulls: int = DEFAULT_CONFIDENCE_PULLS,
        warm_arm: int | None = None,
    ) -> None:
        if not arms:
            raise LearnError("bandit needs at least one arm")
        if len(set(arms)) != len(arms):
            raise LearnError(f"duplicate bandit arms: {arms}")
        if exploration < 0:
            raise LearnError("exploration must be >= 0")
        if confidence_pulls < 1:
            raise LearnError("confidence_pulls must be >= 1")
        self.arms = [ArmState(dop=int(dop)) for dop in arms]
        self.exploration = exploration
        self.confidence_pulls = confidence_pulls
        self._rng = np.random.default_rng(seed)
        self._total_pulls = 0
        self._sweep: list[int] = list(range(len(self.arms)))
        if warm_arm is not None:
            nearest = self.nearest_arm(warm_arm)
            self._sweep.remove(nearest)
            self._sweep.insert(0, nearest)

    # ------------------------------------------------------------------
    def nearest_arm(self, dop: int) -> int:
        """Index of the arm closest to ``dop`` (ties to the lower arm)."""
        return min(
            range(len(self.arms)),
            key=lambda i: (abs(self.arms[i].dop - dop), self.arms[i].dop),
        )

    def select(self) -> int:
        """The arm index to pull next (one seeded draw per call).

        The RNG is advanced exactly once per call -- even during the
        deterministic initial sweep -- so the draw sequence depends only
        on the call count, never on observed rewards; replaying the same
        rewards replays the same pulls.
        """
        jitter = float(self._rng.random()) * 1e-9
        for index in self._sweep:
            if self.arms[index].pulls == 0:
                return index
        scores = []
        log_total = math.log(max(self._total_pulls, 1))
        for index, arm in enumerate(self.arms):
            bonus = self.exploration * math.sqrt(log_total / arm.pulls)
            scores.append((arm.mean_reward + bonus + jitter * index, index))
        return max(scores)[1]

    def observe(self, index: int, reward: float) -> None:
        """Record one pull's reward (a speedup over serial)."""
        if not 0 <= index < len(self.arms):
            raise LearnError(f"unknown arm index {index}")
        arm = self.arms[index]
        arm.pulls += 1
        arm.total_reward += reward
        arm.rewards.append(reward)
        self._total_pulls += 1

    # ------------------------------------------------------------------
    @property
    def total_pulls(self) -> int:
        return self._total_pulls

    def best_index(self) -> int:
        """The incumbent: highest mean reward (ties to the lower DOP)."""
        pulled = [i for i, arm in enumerate(self.arms) if arm.pulls]
        if not pulled:
            return 0
        return max(pulled, key=lambda i: (self.arms[i].mean_reward, -self.arms[i].dop))

    def converged(self) -> bool:
        """Every arm explored and the incumbent confirmed."""
        if any(arm.pulls == 0 for arm in self.arms):
            return False
        return self.arms[self.best_index()].pulls >= self.confidence_pulls

    def summary(self) -> list[dict]:
        """Per-arm pull/reward table (for ``--explain`` and the bench)."""
        return [
            {
                "dop": arm.dop,
                "pulls": arm.pulls,
                "mean_reward": round(arm.mean_reward, 4),
            }
            for arm in self.arms
        ]

"""Lazy sampling: reuse the previous sample or batch with probability
1 - p_t, drawing fresh otherwise.

The first step always draws fresh. The freshness flag steers the
first-step-uncompressed variant: a dense payload is sent exactly when a
new sample arrived. Two rules:

  batch_samplewise each batch row refreshes independently; the flag is
                   raised if any row refreshed
  batch_batchwise  the whole batch is kept or replaced atomically
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

BATCH_SAMPLEWISE = "batch_samplewise"
BATCH_BATCHWISE = "batch_batchwise"

RULES = (BATCH_SAMPLEWISE, BATCH_BATCHWISE)


@dataclass(frozen=True)
class Schedule:
    """Piecewise-constant schedule: ((start_step, value), ...) with the
    first start at step 1; value_at(t) is the last entry with start <= t
    (the first entry for t < 1)."""

    table: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.table or self.table[0][0] != 1:
            raise ConfigurationError("schedule must start at step 1")
        starts = tuple(s for s, _ in self.table)
        if any(a >= b for a, b in zip(starts, starts[1:])):
            raise ConfigurationError("schedule starts must be strictly increasing")
        # values[j] holds from starts[j - 1]; values[0] repeats the first for t < 1
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_values", (self.table[0][1],) + tuple(v for _, v in self.table))

    @staticmethod
    def constant(value: float) -> "Schedule":
        return Schedule(((1, float(value)),))

    def value_at(self, t: int) -> float:
        return self._values[bisect_right(self._starts, t)]


@dataclass
class SamplerState:
    """Lazy-sampling state over a finite dataset of ``n_samples`` rows or
    an infinite stream (n_samples = 0 means stream mode, where "indices"
    are a running draw counter). ``current`` and the two batch-wise row
    ``masks`` are read-only: ``lazy_sample`` returns them as they are."""

    rule: str
    batch_size: int
    p_schedule: Schedule
    n_samples: int
    force_fresh_at_step_2: bool = False
    step: int = 0
    current: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    draws: int = 0

    def __post_init__(self):
        if self.rule not in RULES:
            raise ConfigurationError(f"unknown sampler rule {self.rule!r}")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.n_samples < 0:
            raise ConfigurationError("n_samples must be >= 0")
        if self.rule == BATCH_BATCHWISE and self.batch_size > self.n_samples > 0:
            raise ConfigurationError(f"batch size {self.batch_size} exceeds the "
                                     f"{self.n_samples}-sample dataset")
        for start, p in self.p_schedule.table:
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"p_t must be in [0, 1], got {p} from step {start}")
        # indexed by whether the batch refreshed
        self.masks = tuple(_read_only(np.full(self.batch_size, fill)) for fill in (False, True))

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Row draws. Batch-wise refreshes take a random subset without
        replacement (a reshuffle when the batch covers the dataset);
        sample-wise refreshes are independent uniform picks."""
        if self.n_samples == 0:
            out = np.arange(self.draws, self.draws + size, dtype=np.int64)
            self.draws += size
            return out
        # one row takes the uniform pick below, so both rules draw alike at batch size 1
        if self.rule == BATCH_BATCHWISE and size > 1:
            return rng.permutation(self.n_samples)[:size]  # int64 already
        return rng.integers(0, self.n_samples, size=size, dtype=np.int64)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def lazy_sample(sampler: SamplerState, rng: np.random.Generator):
    """Advance one step; returns (indices, refreshed_rows, f_fu).

    ``indices`` are dataset row indices (or draw counters in stream
    mode), ``refreshed_rows`` is a boolean row mask, and ``f_fu`` is True
    iff any row was drawn fresh this step. ``indices`` is the sampler's
    ``current``; a batch-wise (or first) step's mask is one of its ``masks``.
    """
    sampler.step += 1
    t, b = sampler.step, sampler.batch_size
    p = 1.0 if t == 2 and sampler.force_fresh_at_step_2 else sampler.p_schedule.value_at(t)
    if t > 1 and sampler.rule == BATCH_SAMPLEWISE:
        refreshed = rng.random(b) < p
        current = sampler.current.copy()
        current[refreshed] = sampler._draw(rng, int(refreshed.sum()))
        sampler.current = _read_only(current)
        return current, refreshed, bool(refreshed.any())
    refresh = t == 1 or bool(rng.random() < p)  # the first step always draws
    if refresh:
        sampler.current = _read_only(sampler._draw(rng, b))
    return sampler.current, sampler.masks[refresh], refresh

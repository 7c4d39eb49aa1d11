"""Small pure helpers shared by the benchmark: failure tally, percentiles, self times."""

from __future__ import annotations


class Tally:
    """Operations attempted and the ones that failed, with a reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; record ``what`` when ``ok`` is false."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)


def tail_percentile(values, min_beyond: int = 10):
    """Highest whole percentile whose nearest-rank value has ``min_beyond`` samples above it.

    Returns ``(percentile, value)``, or None when there are too few samples
    for any percentile to leave ``min_beyond`` beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)  # nearest rank, 1-based: ceil(p * n / 100)
        if rank >= 1 and n - rank >= min_beyond:
            return p, xs[rank - 1]
    return None


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    ``spans`` holds records ``[name, layer, start, end, parent, attrs]`` in
    the order they were opened, so a parent always precedes its children.
    """
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own

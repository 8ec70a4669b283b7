import numpy as np
import pytest

from ewlsp.model import Commodity, Instance


def make_instance(params, V):
    """params: list of (K, H, gamma) triples."""
    return Instance(
        tuple(Commodity(i, K, H, g) for i, (K, H, g) in enumerate(params)), capacity_V=V
    )


def random_instance(rng: np.random.Generator, n: int, spread: float = 1.0, regime: str = "tight"):
    commodities = tuple(
        Commodity(
            i,
            float(10.0 ** rng.uniform(-spread, spread)),
            float(10.0 ** rng.uniform(-spread, spread)),
            float(10.0 ** rng.uniform(-1, 1)),
        )
        for i in range(n)
    )
    peak = sum(c.gamma * (c.K / c.H) ** 0.5 for c in commodities)
    factor = {"loose": 2.0, "tight": 0.3}[regime]
    return Instance(commodities, capacity_V=factor * peak)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def flatten(blocks):
    """Wire-format block entries with each `{"sosi": ...}` entry expanded into
    one single-commodity cyclic entry per commodity, in int-id order:
    `{"tau": T, "schedules": {"<id>": [[phase, T]]}, "provenance": p}`, the
    form stationary blocks were once written in, so digests pinned on it stay
    checkable. Other entries pass through."""
    out = []
    for entry in blocks:
        if "sosi" not in entry:
            out.append(entry)
            continue
        intervals, phases = entry["sosi"]["intervals"], entry["sosi"].get("phases", {})
        for key in sorted(intervals, key=int):
            T = intervals[key]
            out.append({"tau": T, "schedules": {key: [[phases.get(key, 0.0), T]]}, "provenance": entry["provenance"]})
    return out

import json

import numpy as np
import pytest
from hypothesis import settings

from ewlsp.model import Commodity, Instance

# `pytest --hypothesis-profile=ci`: more examples for the tests that take the
# profile's count, with no deadline
settings.register_profile("ci", max_examples=1000, deadline=None)


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


def class_ids(decomp):
    """{ell: its ids, a tuple} of a ClassDecomposition, in the key order of
    its bounds, each class cut from the sorted rows `members`."""
    ids, members = decomp.space.ids, decomp.members.tolist()
    return {ell: tuple(ids[r] for r in members[start:end]) for ell, (start, end) in decomp.bounds.items()}


def assignment_of(part):
    """{id: class label} of a MimickingPartition, in commodity order, from its
    commodity_side, class_side and where columns."""
    return dict(zip(part.commodity_side, [part.class_side[l] for l in part.where.tolist()]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def flatten(blocks):
    """Wire-format block entries with each compact entry expanded into the
    per-commodity or per-couple cyclic entries it replaces, the forms blocks
    were once written in, so digests pinned on them stay checkable:
    - a `{"sosi": ...}` entry into one single-commodity entry per commodity,
      in int-id order: `{"tau": T, "schedules": {"<id>": [[phase, T]]},
      "provenance": p}`;
    - a `{"couples": ...}` entry into one two-commodity entry per couple, in
      couple order: `{"tau", "schedules": {"<a>": A's orders, "<b>": B's
      orders} in int-id order, "provenance": f"{p}:couple-case{case}"}`.
    Other entries pass through."""
    out = []
    for entry in blocks:
        if "sosi" in entry:
            intervals, phases = entry["sosi"]["intervals"], entry["sosi"].get("phases", {})
            for key in sorted(intervals, key=int):
                T = intervals[key]
                out.append({"tau": T, "schedules": {key: [[phases.get(key, 0.0), T]]}, "provenance": entry["provenance"]})
        elif "couples" in entry:
            couples = entry["couples"]
            ids = couples["ids"]
            for j, k in enumerate(couples["which"]):
                template = couples["templates"][k]
                pair = sorted(zip(ids[2 * j : 2 * j + 2], template["schedules"]))
                out.append(
                    {
                        "tau": template["tau"],
                        "schedules": {str(cid): orders for cid, orders in pair},
                        "provenance": f"{entry['provenance']}:couple-case{template['case']}",
                    }
                )
        else:
            out.append(entry)
    return out


def flat_content(blocks):
    """What wire-format block entries hold, however they are cut into
    entries, as sorted-key JSON text: every couple as [A, B, case, tau, A's
    orders, B's orders], in emission order; every stationary commodity as
    [id, T], in id order (solver blocks hold no phases); every other entry as
    it is, in order."""
    couples, stationary, other = [], [], []
    for entry in blocks:
        if "sosi" in entry:
            stationary += [[int(key), T] for key, T in entry["sosi"]["intervals"].items()]
        elif "couples" in entry:
            ids, which, templates = entry["couples"]["ids"], entry["couples"]["which"], entry["couples"]["templates"]
            for j, k in enumerate(which):
                t = templates[k]
                couples.append([ids[2 * j], ids[2 * j + 1], t["case"], t["tau"], *t["schedules"]])
        else:
            other.append(entry)
    return json.dumps({"couples": couples, "stationary": sorted(stationary), "other": other}, sort_keys=True)

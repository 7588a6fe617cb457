"""Relabellings that leave the spectrum fixed, or move it by a known map.

Rotating the period, reflecting the ring (a'_n = a_{-n-1}, b'_n = b_{-n})
and scaling by a power of two leave the spectrum as it is, up to the
scale; b -> -b mirrors it about 0. None of them may change a family
verdict. On the sets whose gaps are wide or exactly closed (acceptance,
touching, blocks) the band data must follow too: the same closed flags,
and edges that move only by rounding, or not at all where the map is
exact in floats.

Scaling by a power of two holds every set to its band data, at 2^-20 as
at 8: every tolerance is a relative constant times the operator's own
width, so the same float operations run on the scaled operator and its
edges are the scaled edges bit for bit. Under the other relations the
sine family and the one-site defects are held to verdicts only. Their
shallowest gaps are open by less than the float position error of their
knots: rotation flips the closed flag of 7 of the 39 sine operators, at
gaps 2.5e-17 to 9.7e-16 wide.
"""

import functools

import pytest

from jacobibands import new_periodic
from jacobibands.ensemble import EnsembleConfig, run_trial, sample_operator

from conftest import blocks, one_site_defect, sine_operator

SETS = {
    "acceptance": lambda: [sample_operator(EnsembleConfig(seed=42), k) for k in range(100)],
    "touching": lambda: [new_periodic(*blocks(0, k, q_lo=3)) for k in range(100)],
    "blocks": lambda: [new_periodic(*blocks(1, k)) for k in range(100)],
    "sine": lambda: [sine_operator(p) for p in range(2, 41)],
    "defects": lambda: [new_periodic(*one_site_defect(k)) for k in range(100)],
}

# The sets whose band data is held to each relation, not only their verdicts.
BAND_DATA_SETS = ("acceptance", "touching", "blocks")

SCALES = {"scaled8": 8.0, "scaled1/8": 0.125, "scaled2^-20": 2.0**-20}

RELATIONS = {
    "identity": lambda c: c,
    "rotated": lambda c: c.rotated(1),
    "reflected": lambda c: new_periodic(c.a[::-1], c.b[:1] + c.b[:0:-1]),
    "negated": lambda c: new_periodic(c.a, [-x for x in c.b]),
    **{name: (lambda c, factor=factor: c.scaled(factor)) for name, factor in SCALES.items()},
}

CHANGED = [name for name in RELATIONS if name != "identity"]

# (set, relation) pairs held to the band data: every relation on the
# BAND_DATA_SETS, and every scaling on the rest.
BAND_DATA_PAIRS = [(s, r) for s in BAND_DATA_SETS for r in CHANGED]
BAND_DATA_PAIRS += [(s, r) for s in SETS if s not in BAND_DATA_SETS for r in SCALES]


@functools.lru_cache(maxsize=None)
def operators(set_name):
    return tuple(SETS[set_name]())


@functools.lru_cache(maxsize=None)
def trials(set_name, relation):
    """run_trial of each operator of the set under the relation, computed once per pair."""
    return tuple(run_trial(RELATIONS[relation](c)) for c in operators(set_name))


def verdicts(t):
    return {name: r.passed for name, r in t.families.items()}


@pytest.mark.parametrize("relation", CHANGED)
@pytest.mark.parametrize("set_name", list(SETS))
def test_relations_keep_every_family_verdict(set_name, relation):
    for k, (t, u) in enumerate(zip(trials(set_name, "identity"), trials(set_name, relation))):
        assert verdicts(u) == verdicts(t), (set_name, relation, k)


@pytest.mark.parametrize("set_name, relation", BAND_DATA_PAIRS)
def test_relations_keep_the_band_data(set_name, relation):
    # Measured: rotation and reflection move edges by at most 1.7e-15 of
    # max(1, s); b -> -b by at most 3.1e-16 * s on blocks, and not at all
    # on acceptance and touching; scaling by nothing.
    for k, (t, u) in enumerate(zip(trials(set_name, "identity"), trials(set_name, relation))):
        bs, rel = t.band_structure, u.band_structure
        edges, flags = list(bs.edges), bs.closed_gap_flags
        if relation == "negated":
            edges, flags = [-x for x in reversed(edges)], flags[::-1]
        if relation in SCALES:
            edges = [SCALES[relation] * x for x in edges]
        assert rel.closed_gap_flags == flags, (set_name, relation, k)
        moved = max(abs(x - y) for x, y in zip(edges, rel.edges))
        if relation in ("rotated", "reflected"):
            assert moved <= 4e-15 * max(1.0, bs.s), (set_name, relation, k)
        elif relation == "negated" and set_name == "blocks":
            assert moved <= 3.8e-16 * bs.s, (set_name, relation, k)
        else:
            assert list(rel.edges) == edges, (set_name, relation, k)

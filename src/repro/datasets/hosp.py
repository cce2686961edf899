"""The HOSP dataset (Sect. 6): 19 attributes, 21 editing rules.

The paper joins three Hospital Compare tables — HOSP (hospital info),
HOSP_MSR_XWLK (per-hospital measure scores) and STATE_MSR_AVG (state
averages) — into one relation whose 19 attributes serve as both ``R`` and
``Rm``.  The site is long defunct, so :func:`make_hosp` generates the same
structure deterministically: hospital entities keyed by ``id`` with unique
phones, zip codes shared across hospitals and functionally determining city
and state, measure codes determining names and conditions, and state
averages computed from the actual generated scores.  The base tables are
materialized and natural-joined with the engine, exactly as the paper
describes.

The 21 rules include the five published ones verbatim
(``zip → ST``, ``phn → zip``, ``(mCode, ST) → sAvg``, ``(id, mCode) →
Score``, ``id → hName``) and complete the set so that the paper's region
structure is reproduced: the optimal certain region is
``Z = (id, mCode)`` of size 2 while the greedy baseline needs 4 (Exp-1(1)).
``nil`` pattern guards (the paper's "the attribute is not missing") are
modelled as ``≠ NULL``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.patterns import PatternTuple, neq
from repro.core.rules import EditingRule
from repro.constraints.fd import FD
from repro.engine.query import natural_join
from repro.engine.relation import Relation
from repro.engine.schema import RelationSchema, STRING, INT
from repro.engine.tuples import Row
from repro.engine.values import NULL
from repro.datasets import vocab

HOSP_ATTRS = (
    "id", "provider", "hName", "hType", "hOwner", "emergency",
    "phn", "zip", "city", "ST", "addr1", "addr2", "addr3",
    "mCode", "mName", "condition", "Score", "sample", "sAvg",
)


def hosp_schema(name: str = "hosp") -> RelationSchema:
    """The 19-attribute joined schema (used for both R and Rm)."""
    domains = {"Score": INT}
    return RelationSchema(
        name, [(a, domains.get(a, STRING)) for a in HOSP_ATTRS]
    )


def _nil_guard(*attrs) -> PatternTuple:
    """The paper's ``tp[A] = (nil)`` guards: the key must be non-null."""
    return PatternTuple({a: neq(NULL) for a in attrs})


def hosp_rules() -> list:
    """The 21 HOSP editing rules (5 published + 16 completing the set)."""
    r = []

    def add(name, lhs, rhs):
        lhs = (lhs,) if isinstance(lhs, str) else tuple(lhs)
        r.append(
            EditingRule(lhs, lhs, rhs, rhs, _nil_guard(*lhs), name=name)
        )

    add("h1:id->phn", "id", "phn")
    add("h2:id->provider", "id", "provider")
    add("h3:id->emergency", "id", "emergency")
    add("h4:id->hName", "id", "hName")            # the paper's φ5
    add("h5:phn->zip", "phn", "zip")              # the paper's φ2
    add("h6:phn->hType", "phn", "hType")
    add("h7:phn->hOwner", "phn", "hOwner")
    add("h8:phn->addr1", "phn", "addr1")
    add("h9:phn->addr2", "phn", "addr2")
    add("h10:phn->addr3", "phn", "addr3")
    add("h11:zip->ST", "zip", "ST")               # the paper's φ1
    add("h12:zip->city", "zip", "city")
    add("h13:mCode->mName", "mCode", "mName")
    add("h14:mCode,mName->condition", ("mCode", "mName"), "condition")
    add("h15:id,mCode->Score", ("id", "mCode"), "Score")   # the paper's φ4
    add("h16:id,mCode->sample", ("id", "mCode"), "sample")
    add("h17:mCode,ST->sAvg", ("mCode", "ST"), "sAvg")     # the paper's φ3
    add("h18:zip,ST->city", ("zip", "ST"), "city")
    add("h19:phn,zip->hName", ("phn", "zip"), "hName")
    add("h20:id,phn->hOwner", ("id", "phn"), "hOwner")
    add("h21:id,zip->addr1", ("id", "zip"), "addr1")
    return r


def hosp_fds() -> list:
    """The key structure the generated master data must satisfy."""
    return [
        FD("id", ("phn", "provider", "emergency", "hName")),
        FD("phn", ("zip", "hType", "hOwner", "addr1", "addr2", "addr3")),
        FD("zip", ("ST", "city")),
        FD("mCode", ("mName", "condition")),
        FD(("id", "mCode"), ("Score", "sample")),
        FD(("mCode", "ST"), ("sAvg",)),
    ]


@dataclass
class HospDataset:
    """Master data plus the generator state needed for clean non-master tuples."""

    schema: RelationSchema
    master_schema: RelationSchema
    master: Relation
    rules: list
    base_tables: dict
    zip_map: dict          # zip -> (city, ST)
    measure_map: dict      # mCode -> (mName, condition)
    state_avg: dict        # (mCode, ST) -> sAvg
    measures: list
    name: str = "hosp"

    def entity_factory(self, rng: random.Random) -> Row:
        """A clean input tuple for a hospital *not* in the master data.

        Consistent with every master-derivable value (same zip -> same
        city/ST, same measure -> same name/condition, same (measure, state)
        -> same average), so certain fixes on it are still correct.  A
        fraction of new hospitals sits in brand-new zip codes, which is what
        pushes those tuples into an extra interaction round.
        """
        # Fresh entities are identified from the caller's RNG so workload
        # generation is deterministic per seed and independent of how often
        # this bundle was used before (48 bits: collisions negligible).
        n = rng.getrandbits(48)
        if rng.random() < 0.7 and self.zip_map:
            zip_code = rng.choice(sorted(self.zip_map))
            city, state = self.zip_map[zip_code]
        else:
            zip_code = f"99{n:03d}"
            city = rng.choice(vocab.CITIES)
            state = rng.choice(vocab.STATES)
        m_code = rng.choice(self.measures)
        m_name, condition = self.measure_map[m_code]
        s_avg = self.state_avg.get(
            (m_code, state), f"{rng.uniform(50, 99):.1f}"
        )
        return Row(self.schema, {
            "id": f"N{n:06d}",
            "provider": f"NP{n:06d}",
            "hName": f"{city} {rng.choice(vocab.HOSPITAL_SUFFIXES)} {n}",
            "hType": rng.choice(vocab.HOSPITAL_TYPES),
            "hOwner": rng.choice(vocab.HOSPITAL_OWNERS),
            "emergency": rng.choice(("Yes", "No")),
            "phn": f"999{n:07d}",
            "zip": zip_code,
            "city": city,
            "ST": state,
            "addr1": f"{rng.randint(1, 999)} {rng.choice(vocab.STREETS)}",
            "addr2": f"Suite {rng.randint(1, 40)}",
            "addr3": f"PO Box {rng.randint(100, 9999)}",
            "mCode": m_code,
            "mName": m_name,
            "condition": condition,
            "Score": rng.randint(10, 100),
            "sample": f"{rng.randint(20, 900)} patients",
            "sAvg": s_avg,
        })


def _make_measures(num_measures: int) -> list:
    """``(mCode, mName, condition)`` triples from the measure families."""
    out = []
    for family, (condition, names) in vocab.MEASURE_FAMILIES.items():
        for i, m_name in enumerate(names, start=1):
            out.append((f"{family}-{i}", m_name, condition))
    return out[:num_measures]


def make_hosp(
    num_hospitals: int = 120,
    num_measures: int = 10,
    seed: int = 7,
) -> HospDataset:
    """Generate the HOSP master data (``|Dm| = hospitals × measures``)."""
    rng = random.Random(seed)
    measures = _make_measures(num_measures)
    if len(measures) < num_measures:
        raise ValueError(
            f"at most {len(measures)} measures available, "
            f"{num_measures} requested"
        )

    # Geography: cities with a state; zips shared by a few hospitals each.
    cities = [
        (city, vocab.STATES[i % len(vocab.STATES)])
        for i, city in enumerate(vocab.CITIES)
    ]
    zip_map = {}
    num_zips = max(1, num_hospitals // 2)
    for z in range(num_zips):
        city, state = cities[z % len(cities)]
        zip_map[f"{10000 + z * 7:05d}"] = (city, state)
    zips = sorted(zip_map)

    hosp_table_schema = RelationSchema(
        "HOSP",
        [
            ("id", STRING), ("provider", STRING), ("hName", STRING),
            ("hType", STRING), ("hOwner", STRING), ("emergency", STRING),
            ("phn", STRING), ("zip", STRING), ("city", STRING),
            ("ST", STRING), ("addr1", STRING), ("addr2", STRING),
            ("addr3", STRING),
        ],
    )
    xwlk_schema = RelationSchema(
        "HOSP_MSR_XWLK",
        [
            ("id", STRING), ("mCode", STRING), ("mName", STRING),
            ("condition", STRING), ("Score", INT), ("sample", STRING),
        ],
    )
    avg_schema = RelationSchema(
        "STATE_MSR_AVG",
        [("mCode", STRING), ("ST", STRING), ("sAvg", STRING)],
    )

    hospitals = Relation(hosp_table_schema)
    for h in range(num_hospitals):
        zip_code = zips[h % len(zips)]
        city, state = zip_map[zip_code]
        hospitals.insert({
            "id": f"H{h:06d}",
            "provider": f"P{h:06d}",
            "hName": f"{city} {vocab.HOSPITAL_SUFFIXES[h % len(vocab.HOSPITAL_SUFFIXES)]} {h}",
            "hType": vocab.HOSPITAL_TYPES[h % len(vocab.HOSPITAL_TYPES)],
            "hOwner": vocab.HOSPITAL_OWNERS[h % len(vocab.HOSPITAL_OWNERS)],
            "emergency": "Yes" if h % 3 else "No",
            "phn": f"555{h:07d}",
            "zip": zip_code,
            "city": city,
            "ST": state,
            "addr1": f"{rng.randint(1, 999)} {vocab.STREETS[h % len(vocab.STREETS)]}",
            "addr2": f"Suite {rng.randint(1, 40)}",
            "addr3": f"PO Box {rng.randint(100, 9999)}",
        })

    xwlk = Relation(xwlk_schema)
    score_acc: dict = {}
    for hrow in hospitals:
        for m_code, m_name, condition in measures:
            score = rng.randint(10, 100)
            xwlk.insert({
                "id": hrow["id"],
                "mCode": m_code,
                "mName": m_name,
                "condition": condition,
                "Score": score,
                "sample": f"{rng.randint(20, 900)} patients",
            })
            score_acc.setdefault((m_code, hrow["ST"]), []).append(score)

    averages = Relation(avg_schema)
    state_avg = {}
    for (m_code, state), scores in sorted(score_acc.items()):
        value = f"{sum(scores) / len(scores):.1f}"
        state_avg[(m_code, state)] = value
        averages.insert({"mCode": m_code, "ST": state, "sAvg": value})

    joined = natural_join(
        natural_join(hospitals, xwlk, name="hosp_x"), averages, name="hosp"
    )
    schema = hosp_schema()
    master = Relation(schema)
    for row in joined:
        master.insert(Row(schema, {a: row[a] for a in HOSP_ATTRS}))

    return HospDataset(
        schema=schema,
        master_schema=schema,
        master=master,
        rules=hosp_rules(),
        base_tables={
            "HOSP": hospitals,
            "HOSP_MSR_XWLK": xwlk,
            "STATE_MSR_AVG": averages,
        },
        zip_map=zip_map,
        measure_map={m: (n, c) for m, n, c in measures},
        state_avg=state_avg,
        measures=[m for m, _, _ in measures],
    )

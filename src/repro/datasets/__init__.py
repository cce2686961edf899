"""Datasets of the paper's evaluation (Sect. 6), built synthetically.

The paper uses two real-life corpora: HOSP (US Hospital Compare, three
tables natural-joined into a 19-attribute relation) and DBLP (a 12-attribute
join of inproceedings, proceedings and homepages).  Neither is fetchable
offline, so deterministic generators reproduce the schemas, rule sets, key
structure and join construction.  Every measured behaviour (regions, rounds,
fix rates) depends only on those and on the master's key cardinalities, not
on the real strings.

* :mod:`repro.datasets.running_example` — Fig. 1's supplier/master example.
* :mod:`repro.datasets.hosp` — the 19-attribute HOSP dataset with 21 eRs.
* :mod:`repro.datasets.dblp` — the 12-attribute DBLP dataset with 16 eRs.
* :mod:`repro.datasets.dirty` — the dirty-data generator (duplicate rate
  ``d%``, noise rate ``n%``, master size ``|Dm|``).
* :mod:`repro.datasets.vocab` — deterministic value pools.
"""

from repro.datasets.dblp import DblpDataset, make_dblp
from repro.datasets.dirty import DirtyDataset, DirtyTuple, make_dirty_dataset
from repro.datasets.hosp import HospDataset, make_hosp
from repro.datasets.running_example import RunningExample, make_running_example

__all__ = [
    "DblpDataset",
    "DirtyDataset",
    "DirtyTuple",
    "HospDataset",
    "RunningExample",
    "make_dblp",
    "make_dirty_dataset",
    "make_hosp",
    "make_running_example",
]

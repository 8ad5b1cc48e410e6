"""Bit-identity guard for the drivers around the Borůvka round.

Awerbuch-Shiloach, MND-MST, dist-kruskal, dist-prim, connected components,
the distributed MSF verification and the paper's Borůvka and
Filter-Borůvka (local preprocessing forced on every graph) each run here
on four graphs (GNM, an RHG partitioned with shared vertices, a GNM with
mostly empty PEs and a high-locality 2D-RGG partitioned with shared
vertices), on 1, 2, 3, 5 and 64 PEs, with no faults and with a
message-drop / corruption / straggler storm; AS, MND-MST, Borůvka and
Filter-Borůvka also run with one scheduled fail-stop, which must strike in
every such run outside :data:`NO_STRIKE`.  Every run is reduced
to one SHA-256 digest of everything it leaves behind (see
:func:`observed`), and the digests below were recorded on the per-PE loop
drivers these flat drivers replaced: any change to a
simulated clock, phase time, counter, message, RNG state, fault draw or
trace event shows up as a changed digest.

``python tests/test_flat_digests.py`` prints the table for the tree on
``PYTHONPATH``, marking the runs whose digest differs from
:data:`DIGESTS` and the ``pe_fail`` runs that no fail-stop struck.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import observed_machine  # noqa: E402

from repro.competitors import (awerbuch_shiloach_msf, dist_kruskal,  # noqa: E402
                               dist_prim, mnd_mst)
from repro.core import minimum_spanning_forest  # noqa: E402
from repro.core.config import BoruvkaConfig, FilterConfig  # noqa: E402
from repro.core.connectivity import connected_components  # noqa: E402
from repro.core.verification import verify_distributed_msf  # noqa: E402
from repro.dgraph.edges import Edges  # noqa: E402
from repro.graphgen import gen_family, gen_gnm, gen_rhg  # noqa: E402
from repro.seq.kruskal import kruskal_msf  # noqa: E402
from repro.simmpi import Machine  # noqa: E402

#: name -> (generator, avoid_shared).
GRAPHS = {
    "gnm": (lambda: gen_gnm(160, 640, seed=3), True),
    "rhg-shared": (lambda: gen_rhg(160, 8.0, seed=4), False),
    "gnm-sparse": (lambda: gen_gnm(300, 10, seed=5), True),
    "rgg-shared": (lambda: gen_family("2D-RGG", 300, 1200, seed=5), False),
}

SIZES = (1, 2, 3, 5, 64)

FAULTS = {
    "none": None,
    "storm": "seed=4, msg_drop=0.05, corrupt=0.1, straggle=0.05",
    "pe_fail": "seed=2, pe_fail@0:1",
}


def _verify(forest):
    """A verification run of the candidate ``forest(edges, n)``."""
    def run(dg, graph):
        msf = forest(graph.edges, graph.n_vertices)
        parts = [msf.take(idx) for idx in
                 np.array_split(np.arange(len(msf)), dg.machine.n_procs)]
        return verify_distributed_msf(dg, parts)
    return run


def _heaviest_forest(edges, n):
    """A spanning forest that is not minimum: Kruskal on reversed weights."""
    flipped = Edges(edges.u, edges.v, int(edges.w.max()) + 1 - edges.w,
                    edges.id)
    return edges.take(np.sort(kruskal_msf(flipped, n).id))


#: Local preprocessing on every graph (no 10 % skip), and a base case small
#: enough that the round -- and a fail-stop's recovery in it -- runs after.
PREPROCESS_ALWAYS = BoruvkaConfig(preprocessing_min_local_fraction=0.0,
                                  base_case_min=16)

#: The drivers that survive a certain fail-stop.
PE_FAIL_DRIVERS = ("awerbuch-shiloach", "mnd-mst", "boruvka",
                   "filter-boruvka")

DRIVERS = {
    "awerbuch-shiloach": lambda dg, graph: awerbuch_shiloach_msf(dg),
    "mnd-mst": lambda dg, graph: mnd_mst(dg),
    "dist-kruskal": lambda dg, graph: dist_kruskal(dg),
    "dist-prim": lambda dg, graph: dist_prim(dg),
    "connected-components": lambda dg, graph: connected_components(dg),
    "verify-msf": _verify(kruskal_msf),
    "verify-rejected": _verify(_heaviest_forest),
    "boruvka": lambda dg, graph: minimum_spanning_forest(
        dg, algorithm="boruvka", config=PREPROCESS_ALWAYS),
    "filter-boruvka": lambda dg, graph: minimum_spanning_forest(
        dg, algorithm="filter-boruvka",
        config=FilterConfig(boruvka=PREPROCESS_ALWAYS)),
}


#: The ``pe_fail`` runs in which the fail-stop never strikes: local
#: preprocessing leaves at most ``base_case_min`` edges, so the base case
#: ends the run before Borůvka round 0 does (``result.rounds == 0``).
NO_STRIKE = frozenset(
    f"{driver}/{graph}/{p}/pe_fail"
    for driver in ("boruvka", "filter-boruvka")
    for graph, sizes in (("rhg-shared", (2, 3, 64)),
                         ("gnm-sparse", (2, 3, 5, 64)))
    for p in sizes)


def run_ids():
    """Every ``driver/graph/p/faults`` run of the matrix."""
    for driver in DRIVERS:
        for graph in GRAPHS:
            for p in SIZES:
                for faults in FAULTS:
                    if faults == "pe_fail" and (
                            driver not in PE_FAIL_DRIVERS or p == 1):
                        continue
                    yield f"{driver}/{graph}/{p}/{faults}"


def _plain(x):
    """``x`` as JSON-ready data: arrays by dtype kind, dict keys as text."""
    if isinstance(x, np.ndarray):
        kind = "f" if x.dtype.kind == "f" else "b" if x.dtype.kind == "b" \
            else "i"
        data = x.astype({"f": np.float64, "b": bool, "i": np.int64}[kind])
        return {"shape": list(x.shape), kind: data.ravel().tolist()}
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.generic):
        return x.item()
    return x


def observed(result, machine):
    """Everything one run leaves behind, minus host-side call counts."""
    seen = observed_machine(machine)
    # The sanitizer counts charge calls, which a flat driver makes fewer
    # of by design.
    seen.pop("checks", None)
    seen["phases_per_pe"] = machine.phase_times_per_pe
    msf = getattr(result, "msf_parts", None)
    if msf is not None:
        seen["msf"] = [(part.id, part.w) for part in msf]
        seen["rounds"] = result.rounds
        seen["weight"] = result.total_weight
    elif hasattr(result, "blocks"):
        seen["components"] = (result.blocks, result.bounds,
                              result.n_components)
    else:
        seen["report"] = (result.is_forest, result.spans, result.is_minimum,
                          result.n_forest_edges, result.n_components)
    seen["elapsed"] = result.elapsed
    return seen


_GRAPHS = {}


def digest(run_id: str) -> tuple[str, int]:
    """The SHA-256 (first 16 hex digits) of run ``run_id``, and how many
    fail-stops struck in it (read off the injector, not hashed)."""
    driver, graph_name, p, faults = run_id.split("/")
    if graph_name not in _GRAPHS:
        _GRAPHS[graph_name] = GRAPHS[graph_name][0]()
    graph = _GRAPHS[graph_name]
    with Machine(int(p), sanitize=True, trace=True, trace_events=True,
                 faults=FAULTS[faults]) as machine:
        dg = graph.distribute(machine,
                              avoid_shared=GRAPHS[graph_name][1])
        result = DRIVERS[driver](dg, graph)
        seen = observed(result, machine)
        strikes = (machine.faults.summary().get("pe_fail", 0)
                   if machine.faults is not None else 0)
    text = json.dumps(_plain(seen), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16], strikes


#: Recorded on the per-PE loop drivers; the ``pe_fail`` entries were
#: re-recorded when ArrayCheckpoint began charging logical bytes (8 per
#: integer element) instead of the storage width.  The MND-MST, Borůvka,
#: Filter-Borůvka and connected-components entries of both tables were
#: re-recorded when the local contraction became a pseudo-forest hook and
#: Filter-Borůvka's base case a Borůvka hook (new labels and tie picks;
#: the same MSF weights).
DIGESTS = {
    "awerbuch-shiloach/gnm/1/none": "8981ad37fb3b1520",
    "awerbuch-shiloach/gnm/1/storm": "168b2a50009f63d9",
    "awerbuch-shiloach/gnm/2/none": "a3d00bc717951883",
    "awerbuch-shiloach/gnm/2/storm": "023af30e4a58c7f7",
    "awerbuch-shiloach/gnm/2/pe_fail": "745b837abb25c9a9",
    "awerbuch-shiloach/gnm/3/none": "a0c2cdbeb2183f55",
    "awerbuch-shiloach/gnm/3/storm": "5b8c63e59d17db5a",
    "awerbuch-shiloach/gnm/3/pe_fail": "fd099bb4430dd3c3",
    "awerbuch-shiloach/gnm/5/none": "2d6e2cfccb56f3f1",
    "awerbuch-shiloach/gnm/5/storm": "b0ef12c8166ac7a2",
    "awerbuch-shiloach/gnm/5/pe_fail": "27b3d80e6ae6c548",
    "awerbuch-shiloach/gnm/64/none": "26c3dfa2dcb0647b",
    "awerbuch-shiloach/gnm/64/storm": "d23e5762c70c857e",
    "awerbuch-shiloach/gnm/64/pe_fail": "e578561e41034197",
    "awerbuch-shiloach/rhg-shared/1/none": "c97cc90846bef90d",
    "awerbuch-shiloach/rhg-shared/1/storm": "aac7ed15c94d5f36",
    "awerbuch-shiloach/rhg-shared/2/none": "2b23b09a2f12773d",
    "awerbuch-shiloach/rhg-shared/2/storm": "cb5cd52016b38026",
    "awerbuch-shiloach/rhg-shared/2/pe_fail": "7717430b94741e3d",
    "awerbuch-shiloach/rhg-shared/3/none": "f4221354e79a1c21",
    "awerbuch-shiloach/rhg-shared/3/storm": "f03f77f28cb36243",
    "awerbuch-shiloach/rhg-shared/3/pe_fail": "b534094eb3b50a99",
    "awerbuch-shiloach/rhg-shared/5/none": "417dcd7f9ae2ef8d",
    "awerbuch-shiloach/rhg-shared/5/storm": "7ce111ffdf34856e",
    "awerbuch-shiloach/rhg-shared/5/pe_fail": "42a8b3bd3e5483ca",
    "awerbuch-shiloach/rhg-shared/64/none": "cd9944ed0d25a2d5",
    "awerbuch-shiloach/rhg-shared/64/storm": "2013a2aea0ea3fe2",
    "awerbuch-shiloach/rhg-shared/64/pe_fail": "c425a441e1a27778",
    "awerbuch-shiloach/gnm-sparse/1/none": "bc6823da101f7cbf",
    "awerbuch-shiloach/gnm-sparse/1/storm": "cce091f2f17c6ed3",
    "awerbuch-shiloach/gnm-sparse/2/none": "7efe453ee19dffb9",
    "awerbuch-shiloach/gnm-sparse/2/storm": "4f7d4ce43fc89884",
    "awerbuch-shiloach/gnm-sparse/2/pe_fail": "22bd97d6a0444fbc",
    "awerbuch-shiloach/gnm-sparse/3/none": "83474cc5ccbd249d",
    "awerbuch-shiloach/gnm-sparse/3/storm": "6f6395bbdb1468c3",
    "awerbuch-shiloach/gnm-sparse/3/pe_fail": "314537a7ba0584d8",
    "awerbuch-shiloach/gnm-sparse/5/none": "da977b357e8a2487",
    "awerbuch-shiloach/gnm-sparse/5/storm": "0bd884170ea5215c",
    "awerbuch-shiloach/gnm-sparse/5/pe_fail": "fa9079065de464b0",
    "awerbuch-shiloach/gnm-sparse/64/none": "a51f3b03d815ed13",
    "awerbuch-shiloach/gnm-sparse/64/storm": "3de060b3454ae972",
    "awerbuch-shiloach/gnm-sparse/64/pe_fail": "84ffa756b28a673b",
    "mnd-mst/gnm/1/none": "44292cdb82c29de2",
    "mnd-mst/gnm/1/storm": "97788c9208ccbe09",
    "mnd-mst/gnm/2/none": "8c83abbdff7c38b3",
    "mnd-mst/gnm/2/storm": "4bd8d77c28e3b4ae",
    "mnd-mst/gnm/2/pe_fail": "67b2670e4bd0921d",
    "mnd-mst/gnm/3/none": "33a7dbe53985e233",
    "mnd-mst/gnm/3/storm": "4d8102aa86f2838a",
    "mnd-mst/gnm/3/pe_fail": "487b577fc5937f7e",
    "mnd-mst/gnm/5/none": "06a4e4d2012ffb8d",
    "mnd-mst/gnm/5/storm": "01e438a7a2a883b0",
    "mnd-mst/gnm/5/pe_fail": "d52f591e7cdf1b10",
    "mnd-mst/gnm/64/none": "3365f8b73842d4f5",
    "mnd-mst/gnm/64/storm": "e83413963a83d62e",
    "mnd-mst/gnm/64/pe_fail": "e93953626de77190",
    "mnd-mst/rhg-shared/1/none": "8ea6f9f183a9d699",
    "mnd-mst/rhg-shared/1/storm": "862b3bc4ffc85ad0",
    "mnd-mst/rhg-shared/2/none": "e32a7aebba37abe5",
    "mnd-mst/rhg-shared/2/storm": "c41fcdf0f45a6a03",
    "mnd-mst/rhg-shared/2/pe_fail": "0b2840c3f7785865",
    "mnd-mst/rhg-shared/3/none": "7aac5346ec81df52",
    "mnd-mst/rhg-shared/3/storm": "dea42738fff4ea37",
    "mnd-mst/rhg-shared/3/pe_fail": "ad33decb00ca7ff3",
    "mnd-mst/rhg-shared/5/none": "1f3e371a151e5847",
    "mnd-mst/rhg-shared/5/storm": "02b0cbd07a1c4105",
    "mnd-mst/rhg-shared/5/pe_fail": "9802f57e8b30fe30",
    "mnd-mst/rhg-shared/64/none": "2a83d08bab61f929",
    "mnd-mst/rhg-shared/64/storm": "ac3b17dfd78162cf",
    "mnd-mst/rhg-shared/64/pe_fail": "db85055a352c4680",
    "mnd-mst/gnm-sparse/1/none": "9a5fc209fa54d699",
    "mnd-mst/gnm-sparse/1/storm": "5ff7967098f59795",
    "mnd-mst/gnm-sparse/2/none": "6392c88f4c7e37ee",
    "mnd-mst/gnm-sparse/2/storm": "6e510ed76178a330",
    "mnd-mst/gnm-sparse/2/pe_fail": "4507f54cd01cb0a6",
    "mnd-mst/gnm-sparse/3/none": "b5b6c67956e3d415",
    "mnd-mst/gnm-sparse/3/storm": "1b322ec77dc79b57",
    "mnd-mst/gnm-sparse/3/pe_fail": "8aef9bb1e815e009",
    "mnd-mst/gnm-sparse/5/none": "164f7c86d1ff2860",
    "mnd-mst/gnm-sparse/5/storm": "ec06ae99129b4634",
    "mnd-mst/gnm-sparse/5/pe_fail": "8018438826c79c54",
    "mnd-mst/gnm-sparse/64/none": "84e962cdc4bd557a",
    "mnd-mst/gnm-sparse/64/storm": "f42bfbb015250c23",
    "mnd-mst/gnm-sparse/64/pe_fail": "c8b018da0422299e",
    "dist-kruskal/gnm/1/none": "c1ab1871d86afaba",
    "dist-kruskal/gnm/1/storm": "609d82f80d27705e",
    "dist-kruskal/gnm/2/none": "0effe3f6594829f8",
    "dist-kruskal/gnm/2/storm": "e66fa40d51e11a53",
    "dist-kruskal/gnm/3/none": "210ce30057d06c8e",
    "dist-kruskal/gnm/3/storm": "478f9f6d70dd588b",
    "dist-kruskal/gnm/5/none": "4858b8bb42f6c03a",
    "dist-kruskal/gnm/5/storm": "6d68d7958b215427",
    "dist-kruskal/gnm/64/none": "74a151b46ca9648b",
    "dist-kruskal/gnm/64/storm": "1719b43ebed02945",
    "dist-kruskal/rhg-shared/1/none": "28cb225435fbd9fe",
    "dist-kruskal/rhg-shared/1/storm": "9459917685585a1b",
    "dist-kruskal/rhg-shared/2/none": "e06153194b70d10d",
    "dist-kruskal/rhg-shared/2/storm": "5045604621eff7fd",
    "dist-kruskal/rhg-shared/3/none": "52af5288761a0a14",
    "dist-kruskal/rhg-shared/3/storm": "712015e7fd888c9a",
    "dist-kruskal/rhg-shared/5/none": "1d1bb0270201ceb8",
    "dist-kruskal/rhg-shared/5/storm": "bdac0343ab67fe56",
    "dist-kruskal/rhg-shared/64/none": "5a01730f3fe429df",
    "dist-kruskal/rhg-shared/64/storm": "f4e3f9c9b34c18b3",
    "dist-kruskal/gnm-sparse/1/none": "29471e9c07a85868",
    "dist-kruskal/gnm-sparse/1/storm": "6bfa0401ee83de44",
    "dist-kruskal/gnm-sparse/2/none": "72b0755dde37cb59",
    "dist-kruskal/gnm-sparse/2/storm": "003b981167c2a30c",
    "dist-kruskal/gnm-sparse/3/none": "134e022a82ed51fb",
    "dist-kruskal/gnm-sparse/3/storm": "e2dbc44ec3889b8e",
    "dist-kruskal/gnm-sparse/5/none": "66c24c46e528664c",
    "dist-kruskal/gnm-sparse/5/storm": "1f9356d38f784cbe",
    "dist-kruskal/gnm-sparse/64/none": "260faa366e9bbbfb",
    "dist-kruskal/gnm-sparse/64/storm": "17537e8c74fad8dd",
    "dist-prim/gnm/1/none": "e907209fd01b32f2",
    "dist-prim/gnm/1/storm": "143d8a62c3caa6b1",
    "dist-prim/gnm/2/none": "555f975217b966cb",
    "dist-prim/gnm/2/storm": "abc5d15e88d95c05",
    "dist-prim/gnm/3/none": "b60a6b68435ed3d0",
    "dist-prim/gnm/3/storm": "18a9b1afd8ddf988",
    "dist-prim/gnm/5/none": "2cb8e22a0ee76091",
    "dist-prim/gnm/5/storm": "6c317d4e557f49bf",
    "dist-prim/gnm/64/none": "95943cdb17f66567",
    "dist-prim/gnm/64/storm": "a2d6239f24bb7b96",
    "dist-prim/rhg-shared/1/none": "ec00e11177c6f715",
    "dist-prim/rhg-shared/1/storm": "b9092eea42ec84ea",
    "dist-prim/rhg-shared/2/none": "057a701e6ee2cc03",
    "dist-prim/rhg-shared/2/storm": "5e0b9c58fdda4b4d",
    "dist-prim/rhg-shared/3/none": "9fd92fe8fe394a4f",
    "dist-prim/rhg-shared/3/storm": "840e805943a2c669",
    "dist-prim/rhg-shared/5/none": "c5b6e30ea2900449",
    "dist-prim/rhg-shared/5/storm": "33a4386380339a79",
    "dist-prim/rhg-shared/64/none": "410200385721d808",
    "dist-prim/rhg-shared/64/storm": "e99e1616f04e8e34",
    "dist-prim/gnm-sparse/1/none": "88ff98127cfc50f8",
    "dist-prim/gnm-sparse/1/storm": "7ecac9861eb5e744",
    "dist-prim/gnm-sparse/2/none": "4461aac5feacab56",
    "dist-prim/gnm-sparse/2/storm": "6c40a297cf1a8b98",
    "dist-prim/gnm-sparse/3/none": "37ce89bb3155b2db",
    "dist-prim/gnm-sparse/3/storm": "5b9ff759fd8a7781",
    "dist-prim/gnm-sparse/5/none": "b1ae718eee204363",
    "dist-prim/gnm-sparse/5/storm": "727472314bcc94ec",
    "dist-prim/gnm-sparse/64/none": "b28aa59a7bda4868",
    "dist-prim/gnm-sparse/64/storm": "55f5f27850e06b90",
    "connected-components/gnm/1/none": "06c79275a9e71930",
    "connected-components/gnm/1/storm": "d25d97e872b180ab",
    "connected-components/gnm/2/none": "f10d9924c2f893a3",
    "connected-components/gnm/2/storm": "ed24899fcaa358b9",
    "connected-components/gnm/3/none": "453f96dd6b8ecd95",
    "connected-components/gnm/3/storm": "8c20ffb0b8719615",
    "connected-components/gnm/5/none": "a6c8dc790f04b374",
    "connected-components/gnm/5/storm": "c1a99942fa0a24c7",
    "connected-components/gnm/64/none": "b44d288b64e28d8d",
    "connected-components/gnm/64/storm": "a0b97a5a6e976a2d",
    "connected-components/rhg-shared/1/none": "1d952cf80cbda891",
    "connected-components/rhg-shared/1/storm": "b0c52cfccba8dee2",
    "connected-components/rhg-shared/2/none": "0117e4bfa411e1eb",
    "connected-components/rhg-shared/2/storm": "6766b3c34115b42d",
    "connected-components/rhg-shared/3/none": "69579b0a62c22a11",
    "connected-components/rhg-shared/3/storm": "22b32d5f7fff5fc1",
    "connected-components/rhg-shared/5/none": "cf8f1a368c591806",
    "connected-components/rhg-shared/5/storm": "5fb6210911ef0d59",
    "connected-components/rhg-shared/64/none": "7f604119b1a1ff91",
    "connected-components/rhg-shared/64/storm": "5e87400cb11fd509",
    "connected-components/gnm-sparse/1/none": "91a9181d316c53e8",
    "connected-components/gnm-sparse/1/storm": "44b764b33ca06e69",
    "connected-components/gnm-sparse/2/none": "aa25cf271b93fb3b",
    "connected-components/gnm-sparse/2/storm": "70d7682d74b3d819",
    "connected-components/gnm-sparse/3/none": "daebbc42734fabea",
    "connected-components/gnm-sparse/3/storm": "e238a061880e0536",
    "connected-components/gnm-sparse/5/none": "b41a1c34e8f46c87",
    "connected-components/gnm-sparse/5/storm": "0b1d7e291c9d5805",
    "connected-components/gnm-sparse/64/none": "7ffa2925c7cf4996",
    "connected-components/gnm-sparse/64/storm": "44f71bd171815895",
    "verify-msf/gnm/1/none": "b89106b034b088dd",
    "verify-msf/gnm/1/storm": "f187f1be72b9a030",
    "verify-msf/gnm/2/none": "cd2d6bb51ac2c3d2",
    "verify-msf/gnm/2/storm": "d17752be77b43d4a",
    "verify-msf/gnm/3/none": "bf9e825774a0a147",
    "verify-msf/gnm/3/storm": "5b04e9e56e38e823",
    "verify-msf/gnm/5/none": "195be17eb05ce54e",
    "verify-msf/gnm/5/storm": "c34961e47f703601",
    "verify-msf/gnm/64/none": "ac347200b947b049",
    "verify-msf/gnm/64/storm": "5d51d5d2a7628fc7",
    "verify-msf/rhg-shared/1/none": "2d10ad51e983ec59",
    "verify-msf/rhg-shared/1/storm": "37e88a29e3e617f6",
    "verify-msf/rhg-shared/2/none": "14d9f4015006511c",
    "verify-msf/rhg-shared/2/storm": "075c3109ae0cc43a",
    "verify-msf/rhg-shared/3/none": "98ab2bdb5d1002a1",
    "verify-msf/rhg-shared/3/storm": "c8888917e5be12d1",
    "verify-msf/rhg-shared/5/none": "8c297a6e2b924312",
    "verify-msf/rhg-shared/5/storm": "59d6d88e1819d82b",
    "verify-msf/rhg-shared/64/none": "ad8ec4dadf33a6a3",
    "verify-msf/rhg-shared/64/storm": "f7f52b9a5f6f2d31",
    "verify-msf/gnm-sparse/1/none": "1319b3cb35e4b485",
    "verify-msf/gnm-sparse/1/storm": "80bcb375093a8f55",
    "verify-msf/gnm-sparse/2/none": "d92b9a04dc09283b",
    "verify-msf/gnm-sparse/2/storm": "d44fa1e4d30179db",
    "verify-msf/gnm-sparse/3/none": "d1c82174d41a881d",
    "verify-msf/gnm-sparse/3/storm": "d38a8a95dcdfe9c2",
    "verify-msf/gnm-sparse/5/none": "d4e6e11a7c00bf06",
    "verify-msf/gnm-sparse/5/storm": "b6cfd3c356d8c9f5",
    "verify-msf/gnm-sparse/64/none": "da64d2cfdf6039c9",
    "verify-msf/gnm-sparse/64/storm": "cf5b06c6ea400a9b",
    "verify-rejected/gnm/1/none": "193cb70c98b45704",
    "verify-rejected/gnm/1/storm": "cd98282e88987d1c",
    "verify-rejected/gnm/2/none": "fa3cbd1f98aef004",
    "verify-rejected/gnm/2/storm": "81c84e8f47e5b307",
    "verify-rejected/gnm/3/none": "a067501f16351044",
    "verify-rejected/gnm/3/storm": "465a4cbe03b04aef",
    "verify-rejected/gnm/5/none": "c88e717b80ab727d",
    "verify-rejected/gnm/5/storm": "3ec0dabdef5f91f5",
    "verify-rejected/gnm/64/none": "419cca99d1e08d22",
    "verify-rejected/gnm/64/storm": "e9df304893066649",
    "verify-rejected/rhg-shared/1/none": "0dcd8dad72281b50",
    "verify-rejected/rhg-shared/1/storm": "f54063beb70f066f",
    "verify-rejected/rhg-shared/2/none": "9566c88e141fb23d",
    "verify-rejected/rhg-shared/2/storm": "d6de218594b6040d",
    "verify-rejected/rhg-shared/3/none": "d1c408c9caf16737",
    "verify-rejected/rhg-shared/3/storm": "3b2a45411a8fd9ee",
    "verify-rejected/rhg-shared/5/none": "fedb98c142013f23",
    "verify-rejected/rhg-shared/5/storm": "173f632719688b11",
    "verify-rejected/rhg-shared/64/none": "3e7f42daf8bd4dd7",
    "verify-rejected/rhg-shared/64/storm": "a3fdbddfb094091e",
    "verify-rejected/gnm-sparse/1/none": "1319b3cb35e4b485",
    "verify-rejected/gnm-sparse/1/storm": "80bcb375093a8f55",
    "verify-rejected/gnm-sparse/2/none": "d92b9a04dc09283b",
    "verify-rejected/gnm-sparse/2/storm": "d44fa1e4d30179db",
    "verify-rejected/gnm-sparse/3/none": "d1c82174d41a881d",
    "verify-rejected/gnm-sparse/3/storm": "d38a8a95dcdfe9c2",
    "verify-rejected/gnm-sparse/5/none": "d4e6e11a7c00bf06",
    "verify-rejected/gnm-sparse/5/storm": "b6cfd3c356d8c9f5",
    "verify-rejected/gnm-sparse/64/none": "da64d2cfdf6039c9",
    "verify-rejected/gnm-sparse/64/storm": "cf5b06c6ea400a9b",
}

#: Recorded on the per-PE local preprocessing and MND-MST contraction
#: loops: Borůvka and Filter-Borůvka on every graph, and every driver on
#: the 2D-RGG.
DIGESTS.update({
    "awerbuch-shiloach/rgg-shared/1/none": "8aab96876ab4660a",
    "awerbuch-shiloach/rgg-shared/1/storm": "5a0d59ddecdf7da4",
    "awerbuch-shiloach/rgg-shared/2/none": "f96cb32e18b73896",
    "awerbuch-shiloach/rgg-shared/2/storm": "e0e3a81e22003c37",
    "awerbuch-shiloach/rgg-shared/2/pe_fail": "b162ff6cdf33f6b5",
    "awerbuch-shiloach/rgg-shared/3/none": "7188fc72f3464efb",
    "awerbuch-shiloach/rgg-shared/3/storm": "6e1db22fd7f0ab08",
    "awerbuch-shiloach/rgg-shared/3/pe_fail": "e926c4e791fe3310",
    "awerbuch-shiloach/rgg-shared/5/none": "b5fe78038d1e7767",
    "awerbuch-shiloach/rgg-shared/5/storm": "a5a3b3f0c921a1b9",
    "awerbuch-shiloach/rgg-shared/5/pe_fail": "3229b83058af3130",
    "awerbuch-shiloach/rgg-shared/64/none": "820e702c5ed94f01",
    "awerbuch-shiloach/rgg-shared/64/storm": "c0789e48359e3ebb",
    "awerbuch-shiloach/rgg-shared/64/pe_fail": "9c9237d9463f325a",
    "mnd-mst/rgg-shared/1/none": "c402238f1284c03a",
    "mnd-mst/rgg-shared/1/storm": "e5fdc9740df1e644",
    "mnd-mst/rgg-shared/2/none": "d3ead2e7ce7d1397",
    "mnd-mst/rgg-shared/2/storm": "6f998d904185aee2",
    "mnd-mst/rgg-shared/2/pe_fail": "de9d0437a07a0938",
    "mnd-mst/rgg-shared/3/none": "ae00b618b9029c8d",
    "mnd-mst/rgg-shared/3/storm": "51652a5497eb300c",
    "mnd-mst/rgg-shared/3/pe_fail": "821e28f3e1290920",
    "mnd-mst/rgg-shared/5/none": "2b6a9818247b1dc0",
    "mnd-mst/rgg-shared/5/storm": "647db69b41295670",
    "mnd-mst/rgg-shared/5/pe_fail": "6e241b315a97737f",
    "mnd-mst/rgg-shared/64/none": "149c64392f185dcd",
    "mnd-mst/rgg-shared/64/storm": "1be4e4d6920bfaca",
    "mnd-mst/rgg-shared/64/pe_fail": "44f17d122e3842f6",
    "dist-kruskal/rgg-shared/1/none": "dfa887f253e98e97",
    "dist-kruskal/rgg-shared/1/storm": "8bc45e259f37b996",
    "dist-kruskal/rgg-shared/2/none": "6da61d438aa4c9d9",
    "dist-kruskal/rgg-shared/2/storm": "2951164edb4111ee",
    "dist-kruskal/rgg-shared/3/none": "42c9a76ed9ea6b46",
    "dist-kruskal/rgg-shared/3/storm": "f3bd6c8972d3ac51",
    "dist-kruskal/rgg-shared/5/none": "5cdb6b81285b2dfb",
    "dist-kruskal/rgg-shared/5/storm": "30f1ee78283cfab0",
    "dist-kruskal/rgg-shared/64/none": "6a85e4ebcbdcd4ff",
    "dist-kruskal/rgg-shared/64/storm": "014b7bff81f65fda",
    "dist-prim/rgg-shared/1/none": "98307a793ae1a21a",
    "dist-prim/rgg-shared/1/storm": "041e0963efe7140f",
    "dist-prim/rgg-shared/2/none": "85c6c09a4e44a5cb",
    "dist-prim/rgg-shared/2/storm": "36c9f1799f2921aa",
    "dist-prim/rgg-shared/3/none": "052c3d4a8fd71c0e",
    "dist-prim/rgg-shared/3/storm": "6d84ea77088dff40",
    "dist-prim/rgg-shared/5/none": "71ecd16fa2a4cf06",
    "dist-prim/rgg-shared/5/storm": "60e8c8601632cdc2",
    "dist-prim/rgg-shared/64/none": "1fdef3c6e9adae2e",
    "dist-prim/rgg-shared/64/storm": "d6eef2c938970641",
    "connected-components/rgg-shared/1/none": "5eb6aace91912d5a",
    "connected-components/rgg-shared/1/storm": "48740f07cb3a07a6",
    "connected-components/rgg-shared/2/none": "c40cd23dabdda362",
    "connected-components/rgg-shared/2/storm": "172a8bc4462ff7cf",
    "connected-components/rgg-shared/3/none": "69584f9023619219",
    "connected-components/rgg-shared/3/storm": "337e9b86fbb23190",
    "connected-components/rgg-shared/5/none": "98eff278f9a996dd",
    "connected-components/rgg-shared/5/storm": "030b4ee8f56c1ae2",
    "connected-components/rgg-shared/64/none": "e3827646ffc6d96f",
    "connected-components/rgg-shared/64/storm": "1ba8afee39cd88df",
    "verify-msf/rgg-shared/1/none": "faae3ed175effc57",
    "verify-msf/rgg-shared/1/storm": "8b06546fcf2bebe4",
    "verify-msf/rgg-shared/2/none": "365b00dbefdbbb61",
    "verify-msf/rgg-shared/2/storm": "d58d65704f904c03",
    "verify-msf/rgg-shared/3/none": "b7ee2069f528a4e3",
    "verify-msf/rgg-shared/3/storm": "dfdcfa2507a4dde3",
    "verify-msf/rgg-shared/5/none": "e776e5ff7e433aee",
    "verify-msf/rgg-shared/5/storm": "1c43d424eab6ff50",
    "verify-msf/rgg-shared/64/none": "380e2c26544890f3",
    "verify-msf/rgg-shared/64/storm": "74d433a77763d090",
    "verify-rejected/rgg-shared/1/none": "5d7c02e158fa8991",
    "verify-rejected/rgg-shared/1/storm": "8e9ccb08053fc65f",
    "verify-rejected/rgg-shared/2/none": "de09870900704ee3",
    "verify-rejected/rgg-shared/2/storm": "811ad454102ae24e",
    "verify-rejected/rgg-shared/3/none": "409f2f97d198ce96",
    "verify-rejected/rgg-shared/3/storm": "3f675278136b057d",
    "verify-rejected/rgg-shared/5/none": "dd7305fe6a0d37a5",
    "verify-rejected/rgg-shared/5/storm": "54d847c46d082ffa",
    "verify-rejected/rgg-shared/64/none": "94b68df6a0df9f81",
    "verify-rejected/rgg-shared/64/storm": "dc110eb206719042",
    "boruvka/gnm/1/none": "0f78a7eaee086cb6",
    "boruvka/gnm/1/storm": "9b944f7e24828483",
    "boruvka/gnm/2/none": "81dd9ec245911144",
    "boruvka/gnm/2/storm": "ec78ce642ea9cd47",
    "boruvka/gnm/2/pe_fail": "984368b2367e2afd",
    "boruvka/gnm/3/none": "3694c871def03eef",
    "boruvka/gnm/3/storm": "b4c1bb871b5e5baf",
    "boruvka/gnm/3/pe_fail": "0288c765432bb043",
    "boruvka/gnm/5/none": "33dff712bcc476d8",
    "boruvka/gnm/5/storm": "303295b7d57e7445",
    "boruvka/gnm/5/pe_fail": "06f17cbc6c3d11e0",
    "boruvka/gnm/64/none": "30ab0c0cf4fcab43",
    "boruvka/gnm/64/storm": "3e22a12a8c55caf1",
    "boruvka/gnm/64/pe_fail": "a66b878364db5684",
    "boruvka/rhg-shared/1/none": "566d2046a90ac760",
    "boruvka/rhg-shared/1/storm": "2030955869fc350e",
    "boruvka/rhg-shared/2/none": "abd8a590c46cf49a",
    "boruvka/rhg-shared/2/storm": "b58c7ac4094f3259",
    "boruvka/rhg-shared/2/pe_fail": "84ea6b66ab644cac",
    "boruvka/rhg-shared/3/none": "51d8d9f45dd2d70d",
    "boruvka/rhg-shared/3/storm": "a72d184319c481a2",
    "boruvka/rhg-shared/3/pe_fail": "dc7516bff0baeb34",
    "boruvka/rhg-shared/5/none": "488941a6a414341a",
    "boruvka/rhg-shared/5/storm": "eca211e9f8efe3b4",
    "boruvka/rhg-shared/5/pe_fail": "7c7bb0ec00e9bc53",
    "boruvka/rhg-shared/64/none": "ea94362657aeb085",
    "boruvka/rhg-shared/64/storm": "9824ca415a5ec0b4",
    "boruvka/rhg-shared/64/pe_fail": "a55d2dbacde13fcf",
    "boruvka/gnm-sparse/1/none": "52b9dad8ec669303",
    "boruvka/gnm-sparse/1/storm": "5fa182f4f17bd4ef",
    "boruvka/gnm-sparse/2/none": "cf7d79d1da685de3",
    "boruvka/gnm-sparse/2/storm": "e669721b9965e452",
    "boruvka/gnm-sparse/2/pe_fail": "cdf6b3398081e897",
    "boruvka/gnm-sparse/3/none": "84aac709439ef3de",
    "boruvka/gnm-sparse/3/storm": "84afce20269fb5cd",
    "boruvka/gnm-sparse/3/pe_fail": "bc7bc4aa7f50c8dd",
    "boruvka/gnm-sparse/5/none": "680612e307c28aed",
    "boruvka/gnm-sparse/5/storm": "9e7c4fcb5cd63741",
    "boruvka/gnm-sparse/5/pe_fail": "8004318e79911dd7",
    "boruvka/gnm-sparse/64/none": "9d25aa81499a86c9",
    "boruvka/gnm-sparse/64/storm": "352bac6a8de84b6c",
    "boruvka/gnm-sparse/64/pe_fail": "ff776d52f52d2298",
    "boruvka/rgg-shared/1/none": "1aa2bcc58d57d506",
    "boruvka/rgg-shared/1/storm": "50b263f7621ce779",
    "boruvka/rgg-shared/2/none": "63eb971897303621",
    "boruvka/rgg-shared/2/storm": "b7b303cd444efd68",
    "boruvka/rgg-shared/2/pe_fail": "c986d297d0ac0af8",
    "boruvka/rgg-shared/3/none": "1669fbeaf79779f2",
    "boruvka/rgg-shared/3/storm": "23545db8e6b1a12f",
    "boruvka/rgg-shared/3/pe_fail": "25fba03a9ab3d038",
    "boruvka/rgg-shared/5/none": "64edfa20ecf0d9d3",
    "boruvka/rgg-shared/5/storm": "3ae795cf34c648c3",
    "boruvka/rgg-shared/5/pe_fail": "5586c69a3a1ad9a5",
    "boruvka/rgg-shared/64/none": "8dc02ba145b1600b",
    "boruvka/rgg-shared/64/storm": "df23fd9dad2f12f8",
    "boruvka/rgg-shared/64/pe_fail": "0cf5e0ec6d398c1d",
    "filter-boruvka/gnm/1/none": "8e8c5b743f3d0e66",
    "filter-boruvka/gnm/1/storm": "f271a5aea2936fbc",
    "filter-boruvka/gnm/2/none": "21d345ed7a94b2df",
    "filter-boruvka/gnm/2/storm": "fbafa0ba333d7700",
    "filter-boruvka/gnm/2/pe_fail": "380bd7af7ad0028e",
    "filter-boruvka/gnm/3/none": "c7954035ffbd6c58",
    "filter-boruvka/gnm/3/storm": "5657e72cd603a588",
    "filter-boruvka/gnm/3/pe_fail": "3eec148e65f284a5",
    "filter-boruvka/gnm/5/none": "f439ea351b51b9ee",
    "filter-boruvka/gnm/5/storm": "401f46e440e37433",
    "filter-boruvka/gnm/5/pe_fail": "52f7160bf07e9779",
    "filter-boruvka/gnm/64/none": "e6ef90d24f1aff7d",
    "filter-boruvka/gnm/64/storm": "eb83dac55a1ea58c",
    "filter-boruvka/gnm/64/pe_fail": "c26410760b503abd",
    "filter-boruvka/rhg-shared/1/none": "afa28dedb3d3be4c",
    "filter-boruvka/rhg-shared/1/storm": "286f9139ed0efaa8",
    "filter-boruvka/rhg-shared/2/none": "3e9916855f3b5482",
    "filter-boruvka/rhg-shared/2/storm": "8b20f0c43bfcbe66",
    "filter-boruvka/rhg-shared/2/pe_fail": "a66ed5d1c897c6df",
    "filter-boruvka/rhg-shared/3/none": "e6c4a7785c5f2909",
    "filter-boruvka/rhg-shared/3/storm": "a39506564aabf186",
    "filter-boruvka/rhg-shared/3/pe_fail": "cbc8178acddee08b",
    "filter-boruvka/rhg-shared/5/none": "e2e5a55483343800",
    "filter-boruvka/rhg-shared/5/storm": "4a2f28204dd6f545",
    "filter-boruvka/rhg-shared/5/pe_fail": "d6a66ab10ab4a218",
    "filter-boruvka/rhg-shared/64/none": "cc8814d4db4a297f",
    "filter-boruvka/rhg-shared/64/storm": "207faf45c8cc580e",
    "filter-boruvka/rhg-shared/64/pe_fail": "7bc2634bf2538540",
    "filter-boruvka/gnm-sparse/1/none": "dce61880b4677178",
    "filter-boruvka/gnm-sparse/1/storm": "6cec1644b992ccba",
    "filter-boruvka/gnm-sparse/2/none": "9692714a403a0c11",
    "filter-boruvka/gnm-sparse/2/storm": "e6f15c14015b47e7",
    "filter-boruvka/gnm-sparse/2/pe_fail": "e0e8b82e52cad8ff",
    "filter-boruvka/gnm-sparse/3/none": "c4b54ff65d4f48dc",
    "filter-boruvka/gnm-sparse/3/storm": "cc5af527ac338e4d",
    "filter-boruvka/gnm-sparse/3/pe_fail": "fe31cb5735e6beaa",
    "filter-boruvka/gnm-sparse/5/none": "2e584e0e36190006",
    "filter-boruvka/gnm-sparse/5/storm": "f130f99fc1d2f8ae",
    "filter-boruvka/gnm-sparse/5/pe_fail": "9d273756453728a9",
    "filter-boruvka/gnm-sparse/64/none": "11f27a569b8badbc",
    "filter-boruvka/gnm-sparse/64/storm": "db7021b09c2e0142",
    "filter-boruvka/gnm-sparse/64/pe_fail": "7f5333eb1c8e1d6e",
    "filter-boruvka/rgg-shared/1/none": "d3628b893d8e26b7",
    "filter-boruvka/rgg-shared/1/storm": "8f7f5dd86808b476",
    "filter-boruvka/rgg-shared/2/none": "980791ef88491893",
    "filter-boruvka/rgg-shared/2/storm": "511b5fbef2f502ba",
    "filter-boruvka/rgg-shared/2/pe_fail": "d5de8d3a047bab89",
    "filter-boruvka/rgg-shared/3/none": "df1d65156b653342",
    "filter-boruvka/rgg-shared/3/storm": "ab9c7e5e448fa1aa",
    "filter-boruvka/rgg-shared/3/pe_fail": "e9df757d93647a73",
    "filter-boruvka/rgg-shared/5/none": "57b254b8619422c0",
    "filter-boruvka/rgg-shared/5/storm": "21cac3d8a9160f3d",
    "filter-boruvka/rgg-shared/5/pe_fail": "d7971d52de08985c",
    "filter-boruvka/rgg-shared/64/none": "39e79c0039679431",
    "filter-boruvka/rgg-shared/64/storm": "6578ebbdd57780e9",
    "filter-boruvka/rgg-shared/64/pe_fail": "f5dd00e784bd7f49",
})


@pytest.mark.parametrize("run_id", list(run_ids()))
def test_digest_unchanged(run_id):
    got, strikes = digest(run_id)
    assert got == DIGESTS[run_id]
    if run_id.endswith("/pe_fail"):
        assert strikes == (0 if run_id in NO_STRIKE else 1), strikes


def test_matrix_exercises_what_it_names():
    """The shared-vertex graphs share vertices, the sparse one leaves PEs
    empty, and the rejected candidate is rejected."""
    with Machine(64) as machine:
        for name in ("rhg-shared", "rgg-shared"):
            shared = GRAPHS[name][0]().distribute(machine,
                                                  avoid_shared=False)
            assert len(shared.shared_vertex_set()) > 0
        sparse = GRAPHS["gnm-sparse"][0]().distribute(machine)
        assert (~sparse.has_edges).sum() > 32
    with Machine(5) as machine:
        graph = GRAPHS["gnm"][0]()
        report = DRIVERS["verify-rejected"](graph.distribute(machine), graph)
        assert report.is_forest and report.spans and not report.ok


@pytest.mark.parametrize("driver", PE_FAIL_DRIVERS)
def test_pe_fail_strikes(driver):
    graph = GRAPHS["gnm"][0]()
    with Machine(3, faults=FAULTS["pe_fail"]) as machine:
        DRIVERS[driver](graph.distribute(machine), graph)
        assert machine.faults.summary().get("pe_fail", 0) == 1


if __name__ == "__main__":
    # A run whose digest differs from ``DIGESTS`` is marked ``# moved``; a
    # ``pe_fail`` run in which the fail-stop never struck, ``# no strike``.
    print("DIGESTS = {")
    for rid in run_ids():
        got, strikes = digest(rid)
        notes = [note for note, on in (
            ("moved", got != DIGESTS.get(rid)),
            ("no strike", rid.endswith("/pe_fail") and strikes == 0)) if on]
        mark = f"  # {', '.join(notes)}" if notes else ""
        print(f"    {rid!r}: {got!r},{mark}")
    print("}")

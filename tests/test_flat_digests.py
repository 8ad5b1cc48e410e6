"""Bit-identity guard for the drivers around the Borůvka round.

Awerbuch-Shiloach, MND-MST, dist-kruskal, dist-prim, connected components
and the distributed MSF verification each run here on three graphs (GNM,
an RHG partitioned with shared vertices, and a GNM with mostly empty PEs),
on 1, 2, 3, 5 and 64 PEs, with no faults and with a message-drop /
corruption / straggler storm; AS and MND-MST also survive one certain
fail-stop.  Every run is reduced to one SHA-256 digest of everything it
leaves behind (see :func:`observed`), and the digests below were recorded on
the per-PE loop drivers these flat drivers replaced: any change to a
simulated clock, phase time, counter, message, RNG state, fault draw or
trace event shows up as a changed digest.

``python tests/test_flat_digests.py`` prints the table for the tree on
``PYTHONPATH``.
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
from repro.core.connectivity import connected_components  # noqa: E402
from repro.core.verification import verify_distributed_msf  # noqa: E402
from repro.dgraph.edges import Edges  # noqa: E402
from repro.graphgen import gen_gnm, gen_rhg  # noqa: E402
from repro.seq.kruskal import kruskal_msf  # noqa: E402
from repro.simmpi import Machine  # noqa: E402

#: name -> (generator, avoid_shared).
GRAPHS = {
    "gnm": (lambda: gen_gnm(160, 640, seed=3), True),
    "rhg-shared": (lambda: gen_rhg(160, 8.0, seed=4), False),
    "gnm-sparse": (lambda: gen_gnm(300, 10, seed=5), True),
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


DRIVERS = {
    "awerbuch-shiloach": lambda dg, graph: awerbuch_shiloach_msf(dg),
    "mnd-mst": lambda dg, graph: mnd_mst(dg),
    "dist-kruskal": lambda dg, graph: dist_kruskal(dg),
    "dist-prim": lambda dg, graph: dist_prim(dg),
    "connected-components": lambda dg, graph: connected_components(dg),
    "verify-msf": _verify(kruskal_msf),
    "verify-rejected": _verify(_heaviest_forest),
}


def run_ids():
    """Every ``driver/graph/p/faults`` run of the matrix."""
    for driver in DRIVERS:
        for graph in GRAPHS:
            for p in SIZES:
                for faults in FAULTS:
                    if faults == "pe_fail" and (
                            driver not in ("awerbuch-shiloach", "mnd-mst")
                            or p == 1):
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
    # The sanitizer counts charge and write calls, which a flat driver
    # makes fewer of by design.
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


def digest(run_id: str) -> str:
    """The SHA-256 (first 16 hex digits) of run ``run_id``."""
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
    text = json.dumps(_plain(seen), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: Recorded on the per-PE loop drivers; the ``pe_fail`` entries were
#: re-recorded when ArrayCheckpoint began charging logical bytes (8 per
#: integer element) instead of the storage width.
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
    "mnd-mst/gnm/1/none": "7d70a6c6c5dda777",
    "mnd-mst/gnm/1/storm": "555febb1d1564b96",
    "mnd-mst/gnm/2/none": "9db0bbc17a8c5cb7",
    "mnd-mst/gnm/2/storm": "412cc5aaba1de8d7",
    "mnd-mst/gnm/2/pe_fail": "eae59e14ab3ac48a",
    "mnd-mst/gnm/3/none": "3aeee93a9113f2e6",
    "mnd-mst/gnm/3/storm": "a3805def1d20ea35",
    "mnd-mst/gnm/3/pe_fail": "926b27bfaf16c3df",
    "mnd-mst/gnm/5/none": "51ed696e78393383",
    "mnd-mst/gnm/5/storm": "527a369c28efac36",
    "mnd-mst/gnm/5/pe_fail": "53983b32735b6856",
    "mnd-mst/gnm/64/none": "4a55c88119921429",
    "mnd-mst/gnm/64/storm": "b34c7bb470a6b30a",
    "mnd-mst/gnm/64/pe_fail": "fc43fe7a559b89d2",
    "mnd-mst/rhg-shared/1/none": "248eb81ce03de8fb",
    "mnd-mst/rhg-shared/1/storm": "87e59cd158af4947",
    "mnd-mst/rhg-shared/2/none": "a74fb688b0a8adf6",
    "mnd-mst/rhg-shared/2/storm": "8804d4f6a6244b0e",
    "mnd-mst/rhg-shared/2/pe_fail": "87f97f331fc9f136",
    "mnd-mst/rhg-shared/3/none": "b6de9aa2eec86c9c",
    "mnd-mst/rhg-shared/3/storm": "6e0dd7a953b4dae2",
    "mnd-mst/rhg-shared/3/pe_fail": "867befb59719adc6",
    "mnd-mst/rhg-shared/5/none": "f9b01bf8563c8547",
    "mnd-mst/rhg-shared/5/storm": "2db4c15137a44a44",
    "mnd-mst/rhg-shared/5/pe_fail": "a6d4a490b2730a0a",
    "mnd-mst/rhg-shared/64/none": "6b4c7ee2f083f2c2",
    "mnd-mst/rhg-shared/64/storm": "b8a54044a005c102",
    "mnd-mst/rhg-shared/64/pe_fail": "48c8b860fbcc8f75",
    "mnd-mst/gnm-sparse/1/none": "e4a9eb6015b248b0",
    "mnd-mst/gnm-sparse/1/storm": "d7df693bf3d6f192",
    "mnd-mst/gnm-sparse/2/none": "95ef6db53848d589",
    "mnd-mst/gnm-sparse/2/storm": "09c4161600104139",
    "mnd-mst/gnm-sparse/2/pe_fail": "067dfc48b6b4d6a5",
    "mnd-mst/gnm-sparse/3/none": "6a65e75a355d7f00",
    "mnd-mst/gnm-sparse/3/storm": "fafaaa49db96e59c",
    "mnd-mst/gnm-sparse/3/pe_fail": "9ee871a75186d50a",
    "mnd-mst/gnm-sparse/5/none": "f0ada29b0b4fe59c",
    "mnd-mst/gnm-sparse/5/storm": "f168387efe5a1c75",
    "mnd-mst/gnm-sparse/5/pe_fail": "dc090825328bb585",
    "mnd-mst/gnm-sparse/64/none": "41befe794c997639",
    "mnd-mst/gnm-sparse/64/storm": "ba1ca800bfa9c8bc",
    "mnd-mst/gnm-sparse/64/pe_fail": "79f4160bb1c23c56",
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
    "connected-components/gnm/1/none": "a0decab5db8e2f7a",
    "connected-components/gnm/1/storm": "f0580cec22862bcc",
    "connected-components/gnm/2/none": "29d61e22e1fc98bb",
    "connected-components/gnm/2/storm": "23fe86b018e03da8",
    "connected-components/gnm/3/none": "687fa2edf69bd7dc",
    "connected-components/gnm/3/storm": "beb8746b5e3cd60a",
    "connected-components/gnm/5/none": "ba551b16fc901370",
    "connected-components/gnm/5/storm": "011578e3bd89d8ef",
    "connected-components/gnm/64/none": "b44d288b64e28d8d",
    "connected-components/gnm/64/storm": "a0b97a5a6e976a2d",
    "connected-components/rhg-shared/1/none": "aad88bc97806e966",
    "connected-components/rhg-shared/1/storm": "8769326c4fea2715",
    "connected-components/rhg-shared/2/none": "c4bcd84150bafb27",
    "connected-components/rhg-shared/2/storm": "c72f85c2aabf8c4c",
    "connected-components/rhg-shared/3/none": "9f369a3702862250",
    "connected-components/rhg-shared/3/storm": "e946f0914efdce6c",
    "connected-components/rhg-shared/5/none": "879e90c3bf6e05d4",
    "connected-components/rhg-shared/5/storm": "b47e53c286a19033",
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


@pytest.mark.parametrize("run_id", list(run_ids()))
def test_digest_unchanged(run_id):
    assert digest(run_id) == DIGESTS[run_id]


def test_matrix_exercises_what_it_names():
    """The shared-vertex graph shares vertices, the sparse one leaves PEs
    empty, and the rejected candidate is rejected."""
    with Machine(64) as machine:
        rhg = GRAPHS["rhg-shared"][0]().distribute(machine,
                                                   avoid_shared=False)
        assert len(rhg.shared_vertex_set()) > 0
        sparse = GRAPHS["gnm-sparse"][0]().distribute(machine)
        assert (~sparse.has_edges).sum() > 32
    with Machine(5) as machine:
        graph = GRAPHS["gnm"][0]()
        report = DRIVERS["verify-rejected"](graph.distribute(machine), graph)
        assert report.is_forest and report.spans and not report.ok


@pytest.mark.parametrize("driver", ["awerbuch-shiloach", "mnd-mst"])
def test_pe_fail_strikes(driver):
    graph = GRAPHS["gnm"][0]()
    with Machine(3, faults=FAULTS["pe_fail"]) as machine:
        DRIVERS[driver](graph.distribute(machine), graph)
        assert machine.faults.summary().get("pe_fail", 0) == 1


if __name__ == "__main__":
    print("DIGESTS = {")
    for rid in run_ids():
        print(f"    {rid!r}: {digest(rid)!r},")
    print("}")

"""Importing the package leaves networkx unloaded.

Only gossip graphs need networkx, and it holds ~20 k objects and
~18 MiB once imported, which every full collection walks. The check
runs in a fresh interpreter: this one may have imported it already.
"""

import json
import os
import subprocess
import sys

import repro


def _modules_after(code):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         code + "; import json, sys; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    return json.loads(out)


def test_import_repro_leaves_networkx_out():
    modules = _modules_after("import repro, repro.federated")
    assert "repro.federated.decentralized" in modules
    assert "networkx" not in modules


def test_a_gossip_graph_still_loads_it():
    modules = _modules_after(
        "from repro.engine.topology import PeerGraph, make_topology; "
        "PeerGraph(make_topology('ring', 3))"
    )
    assert "networkx" in modules

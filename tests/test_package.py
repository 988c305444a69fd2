"""The package's public names: `import fairmesh` loads no submodule, and each
name resolves on its first read to the object its home module defines."""

import importlib
import json

import pytest

import fairmesh

from conftest import fresh_python

HOMES = {
    "Accounting": "core",
    "FairnessReport": "fairness",
    "MeshConfig": "meshsim",
    "Packet": "core",
    "PacketEvent": "core",
    "ServiceRecord": "core",
    "SimReport": "meshsim",
    "Trace": "core",
    "make_scheduler": "schedulers",
    "rfb_estimate": "fairness",
    "run_mesh": "meshsim",
}


def test_all_lists_the_public_names():
    assert fairmesh.__all__ == [*HOMES, "__version__"]


@pytest.mark.parametrize("name", HOMES)
def test_each_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"fairmesh.{HOMES[name]}")
    assert getattr(fairmesh, name) is getattr(home, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'fairmesh' has no attribute 'nope'"):
        fairmesh.nope


# prints, as JSON, the fairmesh submodules loaded and dir(fairmesh) after
# `import fairmesh`, then the names and submodules `from fairmesh import *` gives
_IMPORT_PROBE = """
import json, sys
def loaded():
    return sorted(m.partition(".")[2] for m in sys.modules if m.startswith("fairmesh."))
import fairmesh
seen = [loaded(), dir(fairmesh)]
names = {}
exec("from fairmesh import *", names)
print(json.dumps(seen + [sorted(names.keys() - {"__builtins__"}), loaded()]))
"""


def test_import_loads_no_submodule_and_star_import_loads_the_homes():
    before, listed, names, after = json.loads(fresh_python(_IMPORT_PROBE))
    assert before == []
    assert set(fairmesh.__all__) <= set(listed)
    assert names == sorted(fairmesh.__all__)
    # meshsim imports the arbiters and the RNG
    assert after == ["arbitration", "core", "fairness", "meshsim", "rng", "schedulers"]

"""The import contract, each case in a fresh interpreter.

``import jacstab.cli`` loads no library layer, argparse or dataclasses; a
plain command line loads only the layers its command runs; and the lazy
package gives every public name the object of its home module, in every
import order (``pushforward`` is the function, never the submodule).
"""

import json

import pytest

from common import run_capped

PATH = json.dumps({"vertices": [{"id": "v1", "genus": 1, "legs": [1]},
                                {"id": "v2", "genus": 1, "legs": []},
                                {"id": "v3", "genus": 1, "legs": []}],
                   "edges": [["v1", "v2"], ["v2", "v3"]]})

# The public names of the package, in the order of ``__all__``.
EXPORTS = """
    JacstabError DualGraph ClassifyResult Polarization SEMISTABLE STABLE QSTABLE
    threshold check_stability enumerate_stable is_balanced base_multidegree
    locus_membership BALANCED TREELIKE BOTH INDETERMINACY laplacian twist_multidegree
    reduce_treelike branch_coefficients branch_side boundary_multidegree DivisorClass
    canonicalize canonical_pair canonical_indices is_valid_index theta_pullback
    theta_pullback_hain theta_gm1_pullback mueller_class mueller_correction FiberClass
    pushforward PUSH_RULES c1_twisted_bundle theta_via_pushforward c1_gm1_bundle
    theta_gm1_via_pushforward compact_type_gm1_multidegree GradedAtomPoly exp_truncate
""".split()

LAYERS = ("corpus", "divisors", "graphs", "oracles", "pushforward", "selftest", "stability",
          "twister")

# Runs one line through main and prints its exit code and the modules the
# import and the line loaded: the jacstab layers, and whether argparse and
# dataclasses were among them.
_LOADED = """
import contextlib, io, sys
before = set(sys.modules)
from jacstab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:]) if sys.argv[1:] else None
new = set(sys.modules) - before
import json
print(json.dumps({"code": code, "jacstab": sorted(m for m in new if m.startswith("jacstab")),
                  "argparse": "argparse" in new, "dataclasses": "dataclasses" in new}))
"""


def _loaded(*argv: str) -> dict:
    proc = run_capped(_LOADED, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_cli_loads_no_layer():
    assert _loaded() == {"code": None, "argparse": False, "dataclasses": False,
                         "jacstab": ["jacstab", "jacstab.cli", "jacstab.errors", "jacstab.stats"]}


GRAPHS = {"graphs"}
STABILITY = GRAPHS | {"stability"}
TWISTER = STABILITY | {"twister"}
CLOSED = {"divisors"}
DERIVED = CLOSED | {"pushforward"}


LINES = [
    (["graph", "validate", "--graph", PATH], GRAPHS),
    (["graph", "classify", "--graph", PATH], GRAPHS),
    (["graph", "query", "--graph", PATH, "--subcurve", "v1"], GRAPHS),
    (["stability", "threshold", "--graph", PATH, "--subcurve", "v1"], STABILITY),
    (["stability", "check", "--graph", PATH, "--m", "v1=0,v2=0,v3=0"], STABILITY),
    (["stability", "enumerate", "--graph", PATH], STABILITY),
    (["stability", "balanced", "--graph", PATH, "--tau", "4", "--k", "1"], STABILITY),
    (["stability", "locus", "--graph", PATH, "--data", '{"tau": [4], "k": 1}'], STABILITY),
    (["twist", "apply", "--graph", PATH, "--gamma", "v1=0,v2=0,v3=0"], TWISTER),
    (["twist", "reduce", "--graph", PATH, "--m", "v1=0,v2=0,v3=0"], TWISTER),
    (["twist", "coefficients", "--graph", PATH, "--tau", "4", "--k", "1"], TWISTER),
    (["twist", "boundary", "--graph", PATH, "--tau", "4", "--k", "1"], TWISTER),
    (["class", "theta", "--g", "2", "--n", "2", "--tau=1,1", "--k", "1"], CLOSED),
    (["class", "theta", "--g", "2", "--n", "2", "--tau=1,-1", "--method", "hain"], CLOSED),
    (["class", "theta", "--g", "2", "--n", "2", "--tau=1,1", "--k", "1", "--method", "derive"],
     DERIVED),
    (["class", "theta-gm1", "--g", "2", "--n", "2", "--tau=1,0"], CLOSED),
    (["class", "theta-gm1", "--g", "2", "--n", "2", "--tau=1,0", "--method", "derive"], DERIVED),
    (["class", "mueller", "--g", "2", "--n", "2", "--tau=2,-1"], CLOSED),
    (["class", "c1", "--g", "2", "--n", "2", "--tau=1,1", "--k", "1"], DERIVED),
    (["class", "zero-section-shape", "--g", "3"], DERIVED),
    (["class", "compact-type-gm1", "--graph", PATH], TWISTER),
]


@pytest.mark.parametrize("argv, layers", LINES, ids=[
    "-".join(argv[:2] + argv[argv.index("--method") + 1:][:1] if "--method" in argv else argv[:2])
    for argv, _ in LINES])
def test_a_plain_line_loads_only_its_layers(argv, layers):
    loaded = _loaded(*argv)
    assert loaded["code"] in (0, 1)  # an answer, not a refusal
    assert {m[len("jacstab."):] for m in loaded["jacstab"]} & set(LAYERS) == layers
    # a plain line never reaches argparse
    assert not loaded["argparse"]


_MAIN = "import sys\nfrom jacstab.cli import main\nsys.exit(main(sys.argv[1:]))"


def test_help_and_usage_errors_are_still_argparse_text():
    proc = run_capped(_MAIN, "graph", "classify", "--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: jacstab graph classify")
    assert "--graph" in proc.stdout
    proc = run_capped(_MAIN, "graph", "classify")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage: jacstab graph classify")
    assert "error: the following arguments are required: --graph" in proc.stderr


def _check(code: str) -> None:
    proc = run_capped("import importlib, inspect, sys\n" + code)
    assert proc.returncode == 0, proc.stderr


def test_every_public_name_is_its_home_modules_object():
    _check(f"""
import jacstab
assert jacstab.__all__ == {EXPORTS!r}, jacstab.__all__
values = {{name: getattr(jacstab, name) for name in jacstab.__all__}}
layers = [importlib.import_module("jacstab." + m) for m in ("errors",) + {LAYERS!r}]
for name, value in values.items():
    homes = [m for m in layers if name in vars(m)]
    assert homes and all(vars(m)[name] is value for m in homes), name
assert inspect.isfunction(jacstab.pushforward)
""")


def test_dir_and_star_import_name_every_export():
    _check("""
import jacstab
assert "__all__" in dir(jacstab) and set(jacstab.__all__) <= set(dir(jacstab))
names = {}
exec("from jacstab import *", names)
assert all(names[name] is getattr(jacstab, name) for name in jacstab.__all__)
assert not hasattr(jacstab, "no_such_name")
""")


@pytest.mark.parametrize("order", [
    "from jacstab import pushforward as before\nimport jacstab.pushforward",
    "import jacstab.pushforward\nbefore = None",
    "importlib.import_module('jacstab.pushforward')\nbefore = None",
    "from jacstab.pushforward import FiberClass\nbefore = None",
    "import jacstab.cli\njacstab.cli.main(['class', 'c1', '--g', '1', '--n', '1', '--tau=0'])\n"
    "before = None",
], ids=["name-first", "module-first", "import-module", "from-module", "cli-first"])
def test_pushforward_is_the_function_in_every_import_order(order):
    _check(order + """
import jacstab
from jacstab import pushforward
module = sys.modules["jacstab.pushforward"]
assert inspect.isfunction(pushforward) and pushforward is module.pushforward
assert jacstab.pushforward is pushforward and before in (None, pushforward)
""")

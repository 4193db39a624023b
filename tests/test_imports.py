"""Start-up cost: the package and its CLI load only numpy and the standard
library until a command needs more.

scipy.optimize takes 0.22-0.27 s and +49 MB RSS to import and serves only
exact row matching of rows that have no identical partner and are not few
distinct 0/1 rows; a process pool pulls in multiprocessing and serves only
runs with more than one worker. The check runs in a fresh interpreter,
because the test process has already imported both.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# List the heavy modules loaded by the imports, then by every command but
# exact matching with rows left over, then by exact matching on the binary
# columns, whose rows left over are few distinct 0/1 rows, then by exact
# matching on all columns.
_SCRIPT = r"""
import contextlib, io, json, sys
from pathlib import Path

import ecoinfer
from ecoinfer import cli

def heavy():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy.")
                  or m == "concurrent.futures.process")

imported = heavy()

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])

d = Path(sys.argv[1])
truth, spec, cands = d / "truth.csv", d / "spec.json", d / "cands"
model = d / "model.json"
codes = [
    run("synth", "--builtin", 1, "--n", 200, "--out", truth),
    run("summarize", truth, "--out", spec),
    run("reconstruct", spec, "--candidates", 2, "--out", cands),
    run("train", cands / "candidate_0.csv", cands / "candidate_1.csv",
        "--trees", 3, "--out", model),
    run("predict", model, truth, "--truth", "--out", d / "preds.csv"),
    run("similarity", truth, cands / "candidate_0.csv"),
    run("similarity", truth, cands / "candidate_0.csv", "--method",
        "identity"),
    run("experiment", "--builtin", 1, "--n", 200, "--candidates", 2,
        "--trees", 3, "--workers", 1, "--out", d / "exp"),
    # every row has an identical partner, so no row is left to solve
    run("similarity", truth, truth, "--method", "exact"),
]
before = heavy()
binary = ecoinfer.Dataset.from_csv(truth).schema.binary_columns()
exact_binary = run("similarity", truth, cands / "candidate_0.csv", "--method",
                   "exact", "--features", *binary)
after_binary = heavy()
exact = run("similarity", truth, cands / "candidate_0.csv", "--method",
            "exact")
print(json.dumps({"imported": imported, "codes": codes, "before": before,
                  "exact_binary": exact_binary, "after_binary": after_binary,
                  "exact": exact, "after": heavy()}))
"""


def test_only_exact_matching_loads_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["imported"] == []
    assert result["codes"] == [0] * 9
    assert result["before"] == []
    assert result["exact_binary"] == 0
    assert result["after_binary"] == []
    assert result["exact"] == 0
    assert "scipy.optimize" in result["after"]


@pytest.mark.parametrize("module", sorted(
    p.name for p in (SRC / "ecoinfer").glob("*.py")))
def test_module_parses_as_python_3_10(module):
    # pyproject.toml declares requires-python >= 3.10
    source = (SRC / "ecoinfer" / module).read_text(encoding="utf-8")
    ast.parse(source, filename=module, feature_version=(3, 10))


def test_every_private_module_name_is_used():
    # a private function, class or constant that nothing reads is dead code
    trees = [ast.parse(p.read_text(encoding="utf-8"), filename=p.name)
             for p in sorted((SRC / "ecoinfer").glob("*.py"))]
    defined = set()
    for stmt in (stmt for tree in trees for stmt in tree.body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            defined.update(node.id for target in targets
                           for node in ast.walk(target)
                           if isinstance(node, ast.Name))
    private = {name for name in defined
               if name.startswith("_") and not name.startswith("__")}
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    assert private
    assert sorted(private - read) == []

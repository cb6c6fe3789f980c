"""README.md stays well formed, its Python examples run against the
library as it is, and the library names it cites exist."""

import dataclasses
import importlib
import json
import re
from pathlib import Path

import pytest

import fairpair
from fairpair import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
MODULES = sorted(p.stem for p in (ROOT / "src" / "fairpair").glob("*.py") if p.stem != "__init__")
# The classes the package exports, whose attributes README cites as `<Class>.<name>`.
CLASSES = sorted(name for name, obj in vars(fairpair).items() if isinstance(obj, type))
# One backticked module-level name, `fairpair.<module>.<name>` or
# `<module>.<name>`, or one attribute of an exported class, `<Class>.<name>`.
REFERENCE = re.compile(rf"(?:fairpair\.)?({'|'.join(MODULES + CLASSES)})\.(\w+)")
# perfbench's per-layer metrics are named <layer>.<metric>, as data.arrays_s is.
METRICS = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def fenced_blocks(text):
    """The (info string, first line number, body) of each closed fenced code
    block, and a list of fence problems: an opening fence with no info
    string, a closing fence carrying text, a fence never closed."""
    blocks, problems, opened = [], [], None
    for number, line in enumerate(text.splitlines(), 1):
        if not line.startswith("```"):
            if opened:
                opened[2].append(line)
        elif opened is None:
            opened = (line[3:].strip(), number + 1, [])
            if not opened[0]:
                problems.append(f"README.md:{number}: a code fence opens with no language")
        else:
            if line != "```":
                problems.append(f"README.md:{number}: a closing fence carries text")
            blocks.append((opened[0], opened[1], "\n".join(opened[2]) + "\n"))
            opened = None
    if opened is not None:
        problems.append(f"README.md:{opened[1] - 1}: a code fence is never closed")
    return blocks, problems


BLOCKS, PROBLEMS = fenced_blocks(README.read_text(encoding="utf-8"))
PYTHON_BLOCKS = [(line, body) for info, line, body in BLOCKS if info == "python"]


def test_code_fences_pair_up():
    assert PROBLEMS == []


def test_has_python_examples():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("line,body", PYTHON_BLOCKS, ids=[f"line{n}" for n, _ in PYTHON_BLOCKS])
def test_python_example_runs(tmp_path, monkeypatch, line, body):
    # Each block runs on its own, in an empty working directory.
    monkeypatch.chdir(tmp_path)
    exec(compile(body, f"README.md:{line}", "exec"), {"__name__": "readme_example"})


def test_config_example_loads(tmp_path, monkeypatch):
    # The CLI rejects unknown keys, so the documented config must hold none,
    # and it resolves as a config that gives only the keys it says are not
    # at their defaults.
    (body,) = [body for info, _, body in BLOCKS if info == "json"]
    doc = json.loads(body)
    minimal = {"dataset": doc["dataset"], "out_dir": doc["out_dir"],
               "train": {"seed": doc["train"]["seed"]}}
    monkeypatch.delenv("FAIRPAIR_OUT", raising=False)
    resolved = []
    for name, text in (("full.json", body), ("minimal.json", json.dumps(minimal))):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        args = cli.build_parser().parse_args(["train", "--config", str(path)])
        resolved.append(vars(cli.load_config(path, args)))
    assert resolved[0] == resolved[1]


def references(text):
    """The (module or class, name) of each backticked reference to a
    module-level name or an exported class's attribute, but for per-layer
    metrics and artifact files such as model.json."""
    found = []
    for span in re.findall(r"`([^`\n]+)`", text):
        match = REFERENCE.fullmatch(span)
        if match and span not in METRICS and match[2] not in ("json", "csv"):
            found.append(match.groups())
    return found


def cites(owner, name):
    """Whether module or exported class ``owner`` has ``name``: a module-level
    name, or a class attribute, property or dataclass field."""
    if owner not in CLASSES:
        return hasattr(importlib.import_module(f"fairpair.{owner}"), name)
    cls = getattr(fairpair, owner)
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return hasattr(cls, name) or name in fields


def test_cited_names_exist():
    refs = references(README.read_text(encoding="utf-8"))
    assert len(refs) >= 10
    assert any(owner in CLASSES for owner, _ in refs)
    missing = [f"{owner}.{name}" for owner, name in refs if not cites(owner, name)]
    assert missing == []


def test_references_skip_metrics_and_files():
    text = (
        "`data.arrays_s`, `model.json`, `fairpair.model.stable_sigmoid`, `model.w @ x`, "
        "`GroupStats.counts`, `GroupStats.item_frac`, `Unexported.x`"
    )
    assert references(text) == [
        ("model", "stable_sigmoid"), ("GroupStats", "counts"), ("GroupStats", "item_frac")
    ]
    # A dataclass field without a default is no class attribute, but is cited.
    assert cites("GroupStats", "counts") and cites("GroupStats", "pos_frac")
    assert cites("ConstraintKind", "PAIR_MARGINAL") and cites("PairSet", "cell_counts")
    assert not cites("GroupStats", "item_frac") and not cites("GroupStats", "pos_item_total")

"""The public surface: every exported or re-exported name resolves."""
import ast
import dataclasses
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import codedseq
from codedseq import harness
from codedseq.cli import build_parser

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(codedseq.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"codedseq.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(codedseq.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"codedseq.{node.module}")
        for alias in node.names:
            name = alias.asname or alias.name
            assert getattr(codedseq, name) is getattr(module, alias.name), name


def test_readme_library_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_readme_cli_lines_parse():
    # parsing only: no command runs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```\n", 2)[1]
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("codedseq ")]
    assert len(lines) >= 4
    for argv in lines:
        build_parser().parse_args(argv[1:])


def readme_config_block():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Custom experiment config", 1)[1]
    return section.split("```\n", 2)[1]


def test_readme_config_block_is_example1(tmp_path):
    path = tmp_path / "readme.ini"
    path.write_text(readme_config_block())
    config = harness.parse_config_file(path)
    assert config == dataclasses.replace(harness.make_preset("example1"), label="custom")


def test_readme_config_block_shows_every_accepted_key(tmp_path):
    # a key the parser accepts but the block leaves out would be undocumented;
    # a commented-out key counts as shown, and uncommented it must parse
    shown, section = set(), None
    for line in readme_config_block().splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif match := re.match(r";? *(\w+) *=", line):
            shown.add((section, match[1]))
    accepted = {(section, key) for section, key, _, _ in harness._SCALARS.values()}
    accepted |= {("schedule", "phases"), ("configuration", "k")}
    assert shown == accepted
    path = tmp_path / "uncommented.ini"
    path.write_text(re.sub(r"^; (\w+ *=)", r"\1", readme_config_block(), flags=re.M))
    harness.parse_config_file(path)

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
from codedseq.cluster import LatencyModel, SeededRng, order_stat_mean, sample_round, simulate_wait
from codedseq.codec import make_generator
from codedseq.feasibility import (
    Configuration, auto_configuration, first_feasible, min_rows_oracle, row_count_s,
)
from codedseq.harness import run_experiment, validate_experiment
from codedseq.problems import HIDDEN_MODE
from codedseq.solver import ApproxSchedule

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


def _preset_with(**changes):
    return dataclasses.replace(harness.make_preset("example1"), label="x", **changes)


EXAMPLE1 = Configuration(L=4, n=10, k=(0, 0, 6, 32))
# every count a public function or constructor takes: the call with the count
# in place of v, the count's name, a value it accepts (given as a float, it is
# refused), one below the least it accepts, and the refusal of that one
COUNTS = {
    "Configuration-L": (lambda v: Configuration(v, 10, (0, 0, 6, 32)), "L", 4, 0,
                        "L must be >= 1, got 0"),
    "Configuration-n": (lambda v: Configuration(4, v, (0, 0, 6, 32)), "n", 10, 0,
                        "n must be >= 1, got 0"),
    "Configuration-k": (lambda v: Configuration(4, 10, (0, 0, v, 32)), "k_3", 6, -1,
                        "k_3 must be >= 0, got -1"),
    "row_count_s-i": (lambda v: row_count_s(v, 3, 4), "level index", 2, 0,
                      "level index 0 outside 1..4"),
    "row_count_s-k_i": (lambda v: row_count_s(2, v, 4), "k_i", 3, -1,
                        "k_i must be >= 0, got -1"),
    "row_count_s-L": (lambda v: row_count_s(1, 3, v), "L", 4, 0, "L must be >= 1, got 0"),
    "min_rows_oracle-i": (lambda v: min_rows_oracle(4, v, 3), "level index", 2, 0,
                          "level index 0 outside 1..4"),
    "min_rows_oracle-k_i": (lambda v: min_rows_oracle(4, 2, v), "k_i", 3, -1,
                            "k_i must be >= 0, got -1"),
    "min_rows_oracle-L": (lambda v: min_rows_oracle(v, 1, 3), "L", 4, 0,
                          "L must be >= 1, got 0"),
    "first_feasible-L": (lambda v: first_feasible(v, 10, [(3, 6)]), "L", 4, 0,
                         "L must be >= 1, got 0"),
    "first_feasible-n": (lambda v: first_feasible(4, v, [(3, 6)]), "n", 10, 0,
                         "n must be >= 1, got 0"),
    "first_feasible-ell": (lambda v: first_feasible(4, 10, [(v, 6)]), "target level", 3, 0,
                           "target level 0 outside 1..4"),
    "first_feasible-rank": (lambda v: first_feasible(4, 10, [(3, v)]), "target rank", 6, -1,
                            "target rank must be >= 0, got -1"),
    "auto_configuration-L": (lambda v: auto_configuration(v, 10, [6, 38]), "L", 4, 0,
                             "L must be >= 1, got 0"),
    "auto_configuration-rank": (lambda v: auto_configuration(4, 10, [v, 38]), "target rank",
                                6, -1, "target rank must be >= 0, got -1"),
    "SeededRng-seed": (lambda v: SeededRng(v), "seed", 3, -1, "seed must be >= 0, got -1"),
    "spawn-key": (lambda v: SeededRng(3).spawn(0, v), "spawn key", 1, -1,
                  "spawn key must be >= 0, got -1"),
    "sample_round-L": (lambda v: sample_round(LatencyModel(), v, SeededRng(1)), "L", 4, 0,
                       "L must be >= 1, got 0"),
    "order_stat_mean-L": (lambda v: order_stat_mean(LatencyModel(), v, 1), "L", 4, 0,
                          "L must be >= 1, got 0"),
    "order_stat_mean-ell": (lambda v: order_stat_mean(LatencyModel(), 4, v), "ell", 2, 0,
                            "ell 0 outside 1..4"),
    "simulate_wait-L": (lambda v: simulate_wait(LatencyModel(), v, 1, SeededRng(1)), "L",
                        4, 0, "L must be >= 1, got 0"),
    "simulate_wait-ell": (lambda v: simulate_wait(LatencyModel(), 4, v, SeededRng(1)),
                          "ell", 2, 0, "ell 0 outside 1..4"),
    "make_generator-rows_in": (lambda v: make_generator(v, 4), "rows_in", 3, 0,
                               "rows_in 0 outside 1..4"),
    "make_generator-rows_out": (lambda v: make_generator(1, v), "rows_out", 4, 0,
                                "rows_out must be >= 1, got 0"),
    "ApproxSchedule-rank": (lambda v: ApproxSchedule(EXAMPLE1, [(v, 30), (38, 400)]),
                            "phase rank", 6, 0,
                            "phase ranks must strictly increase, got (0, 30)"),
    "ApproxSchedule-iterations": (lambda v: ApproxSchedule(EXAMPLE1, [(6, v), (38, 400)]),
                                  "phase iterations", 30, 0,
                                  "phase iterations must be >= 1, got 0"),
    # the output's directory does not exist, so a count let through fails
    # there with an OSError and writes nothing
    "run_experiment-replications": (
        lambda v: run_experiment(harness.make_preset("example1"), 0, v,
                                 Path("no-such-directory", "trace.csv")),
        "replications", 2, 0, "replications must be >= 1, got 0"),
    "run_experiment-seed": (
        lambda v: run_experiment(harness.make_preset("example1"), v, 2,
                                 Path("no-such-directory", "trace.csv")),
        "seed", 0, -1, "seed must be >= 0, got -1"),
    "ExperimentConfig-rows": (lambda v: validate_experiment(_preset_with(rows=v)), "rows",
                              38, HIDDEN_MODE - 1, f"source 'designed' needs rows >= "
                              f"{HIDDEN_MODE}, got {HIDDEN_MODE - 1}"),
    "ExperimentConfig-cols": (lambda v: validate_experiment(_preset_with(cols=v)), "cols",
                              500, 37, "source 'designed' needs rows <= cols, got 38 x 37"),
    "ExperimentConfig-rank": (lambda v: validate_experiment(_preset_with(rank=v)), "rank",
                              38, 37, "source 'designed' gives rank 38, the config says 37"),
    "ExperimentConfig-baseline_iterations": (
        lambda v: validate_experiment(_preset_with(baseline_iterations=v)),
        "baseline: phase iterations", 500, 0, "baseline: phase iterations must be >= 1, got 0"),
}


@pytest.mark.parametrize("call, name, valid, below, refusal", COUNTS.values(), ids=COUNTS)
def test_every_public_count_refuses_a_float_and_a_value_below_its_least(
    call, name, valid, below, refusal
):
    for bad, message in ((float(valid), f"{name} must be an integer, got {float(valid)!r}"),
                         (below, refusal)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad)

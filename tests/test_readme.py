"""README drift check: its command lines and its study config must still
be accepted by the CLI parser and by ExperimentConfig."""

import json
import re
import shlex
from pathlib import Path

import pytest

from chaoslim import cli
from chaoslim.harness import ExperimentConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def _commands() -> list[str]:
    lines = []
    for block in _blocks("bash"):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("chaoslim "):
                lines.append(line)
    return lines


def test_readme_has_commands_and_one_config():
    assert len(_commands()) >= 5
    assert len(_blocks("json")) == 1


@pytest.mark.parametrize("line", _commands())
def test_readme_command_parses(line):
    args = cli.build_parser().parse_args(shlex.split(line)[1:])
    assert args.command == shlex.split(line)[1]


def test_readme_config_builds(tmp_path):
    path = tmp_path / "study.json"
    path.write_text(_blocks("json")[0], encoding="utf-8")
    config = ExperimentConfig.from_json(path)
    assert config.model == json.loads(_blocks("json")[0])["model"]

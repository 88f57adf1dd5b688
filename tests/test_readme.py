"""README examples: the library block runs, and the `--json` example matches
what the CLI prints."""

import json
import re
from pathlib import Path

from atlir.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def fenced(language):
    return re.findall(r"^```%s\n(.*?)^```" % language, README, re.M | re.S)


def test_the_python_block_runs_and_its_comments_hold():
    (block,) = fenced("python")
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    # a line "expression  # True: ..." or "# False: ..." states its value
    claims = re.findall(r"^(\S.*?)\s+# (True|False)\b", block, re.M)
    assert len(claims) == 2
    for expression, value in claims:
        assert eval(expression, namespace) is (value == "True"), expression


def test_the_json_example_is_what_the_cli_prints(capsys):
    (block,) = fenced("json")
    example = json.loads(block)
    (entry,) = example["results"]
    code = main(["check", "--gen", "cardgame", "--json", entry["formula"]])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["model"] == example["model"]
    assert report["results"] == example["results"]
    assert report["timings"].keys() == example["timings"].keys()

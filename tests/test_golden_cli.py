"""Replays recorded ``simulate`` and ``check`` runs through ``cli.main``.

``golden_cli.json`` holds, per command line, the exit code and a sha256 of
stdout in text and in json format, plus the verdict, detection round and
detecting process read from the json document.  Any change to what a user
sees from these commands shows up here.  After an intended change of
output, regenerate the file with

    PYTHONPATH=src python tests/test_golden_cli.py

which prints the command line of each record that changed, then how many
did.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from costmon import cli
from conftest import write_golden

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_cli.json")


def _cases():
    scenarios = [["--scenario", "example2"]]
    scenarios += [["--scenario", "example2", "--fault", "%s@3:p%d" % (k, i)]
                  for k in ("drop", "delay", "trigger_failure")
                  for i in range(7)]
    for name in ("sorting_line", "sorting_line_blue"):
        scenarios.append(["--scenario", name])
        scenarios += [["--scenario", name, "--fault", "%s@2" % fault]
                      for fault in ("trigger_failure", "lost_step_count",
                                    "classify_delay", "eject_delay",
                                    "arrival_failure")]
    scenarios += [["--scenario", "random", "--seed", str(s)]
                  for s in range(41)]
    out = [[cmd] + sc for sc in scenarios for cmd in ("simulate", "check")]
    out.append(["check", "--scenario", "example2", "--tamper-budget", "0=3"])
    return out


def replay(argv):
    """The golden record of one command line, recomputed."""
    record = {"argv": argv}
    for fmt in ("text", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv + ["--format", fmt])
        stdout = out.getvalue()
        record[fmt] = {"exit": code,
                       "sha256": hashlib.sha256(stdout.encode()).hexdigest()}
        if fmt == "json":
            doc = json.loads(stdout)
            record["verdict"] = doc.get("verdict", doc.get("decentralized"))
            record["detection_round"] = doc["detection_round"]
            record["detecting_pid"] = doc["detecting_pid"]
    return record


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return {tuple(c["argv"]): c for c in json.load(fh)}


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_cli_output_matches_golden(golden, argv):
    assert replay(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    write_golden(GOLDEN, [replay(argv) for argv in _cases()],
                 lambda r: " ".join(r["argv"]))

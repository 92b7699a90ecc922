"""The demonstration scripts run to completion and print their success lines."""

import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def test_verify_corpus_and_factorization_demo_succeed():
    for script, line in [("verify_corpus.py", "29 commands, 0 surprises"),
                         ("factorization_demo.py",
                          "multiplication map is a 24-dim algebra isomorphism onto kS4")]:
        done = subprocess.run([sys.executable, os.path.join(SCRIPTS, script)],
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert line in done.stdout.splitlines(), script


def test_family_memory_runs_the_axiom_suite_of_ks3():
    done = subprocess.run([sys.executable, os.path.join(SCRIPTS, "family_memory.py"), "kS3"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "kS3 (dim 6): 17 checks, overall pass"
    assert lines[1].startswith("wall ") and lines[1].endswith(" MB")

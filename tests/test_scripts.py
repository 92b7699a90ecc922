"""The scripts run to completion and print their success lines."""

import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def run_script(*argv, env=None, cwd=None):
    """The script's stdout as bytes, after asserting that it exits 0."""
    done = subprocess.run([sys.executable, os.path.join(SCRIPTS, argv[0]), *argv[1:]],
                          capture_output=True, timeout=300, env=env, cwd=cwd)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_verify_corpus_succeeds():
    assert "29 commands, 0 surprises" in run_script("verify_corpus.py").decode().splitlines()


def test_verify_corpus_machine_output_does_not_depend_on_the_hash_seed():
    outputs = [run_script("verify_corpus.py", "--machine",
                          env={**os.environ, "PYTHONHASHSEED": seed})
               for seed in ("0", "12345")]
    assert outputs[0] == outputs[1]


def test_verify_corpus_machine_output_does_not_depend_on_the_working_directory(tmp_path):
    outputs = [run_script("verify_corpus.py", "--machine", cwd=cwd)
               for cwd in (tmp_path, os.path.join(SCRIPTS, ".."))]
    assert outputs[0] == outputs[1]
    assert b"command=check hopf corpus/algebras/c2.alg\n" in outputs[0]


def test_family_memory_runs_the_axiom_suite_of_ks3():
    lines = run_script("family_memory.py", "kS3").decode().splitlines()
    assert lines[0] == "kS3 (dim 6): 17 checks, overall pass"
    assert lines[1].startswith("wall ") and lines[1].endswith(" MB")

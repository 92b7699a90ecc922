"""The demonstration scripts run to completion and print their success lines."""

import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")

DEMO_LINES = [
    "S4 order 24, D4 = ['p0123', 'p0321', 'p1032', 'p1230', 'p2103', 'p2301', 'p3012', "
    "'p3210'], C3 = ['p0123', 'p1203', 'p2013']",
    "  mp1_left_module_coalgebra: pass",
    "  mp2_right_module_coalgebra: pass",
    "  mp3_unit_acted_trivially: pass",
    "  mp4_unit_acts_trivially: pass",
    "  mp5_mixed_multiplicativity_b: pass",
    "  mp6_mixed_multiplicativity_r: pass",
    "  mp7_symmetry: pass",
    "double cross product dim 24; 14/14 bialgebra checks pass",
    "multiplication map is a 24-dim algebra isomorphism onto kS4",
]


def run_script(*argv, env=None):
    """The script's stdout as bytes, after asserting that it exits 0."""
    done = subprocess.run([sys.executable, os.path.join(SCRIPTS, argv[0]), *argv[1:]],
                          capture_output=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_verify_corpus_and_factorization_demo_succeed():
    assert "29 commands, 0 surprises" in run_script("verify_corpus.py").decode().splitlines()
    lines = run_script("factorization_demo.py").decode().splitlines()
    assert lines[:-1] == DEMO_LINES
    assert lines[-1].startswith("done in ")


def test_verify_corpus_machine_output_does_not_depend_on_the_hash_seed():
    outputs = [run_script("verify_corpus.py", "--machine",
                          env={**os.environ, "PYTHONHASHSEED": seed})
               for seed in ("0", "12345")]
    assert outputs[0] == outputs[1]


def test_family_memory_runs_the_axiom_suite_of_ks3():
    lines = run_script("family_memory.py", "kS3").decode().splitlines()
    assert lines[0] == "kS3 (dim 6): 17 checks, overall pass"
    assert lines[1].startswith("wall ") and lines[1].endswith(" MB")

"""The scripts run to completion and print their success lines."""

import hashlib
import json
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
    assert "30 commands, 0 surprises" in run_script("verify_corpus.py").decode().splitlines()


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


def test_verify_corpus_machine_output_is_pinned():
    # the bytes of every corpus machine report; a change to them is made on purpose
    digest = hashlib.sha256(run_script("verify_corpus.py", "--machine")).hexdigest()
    assert digest == "06a4b2b3276eb7f70e04b2af7699a2ab802d78b26496311a5aa8d05975d8c823"


def test_bench_record_writes_every_metric_and_the_axiom_suite(tmp_path):
    with open(os.path.join(SCRIPTS, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    out = run_script("bench_record.py", "7", "--runs", "1", "--seconds", "1",
                     "--suite", "kS3", "--out", str(tmp_path)).decode()
    path = tmp_path / "BENCH_7.json"
    assert out.endswith(f"wrote {path}\n")
    text = path.read_text(encoding="utf-8")
    record = json.loads(text)
    assert text == json.dumps(record, indent=2, sort_keys=True) + "\n"
    assert sorted(record) == ["axiom_suite", "cold_start", "commit", "end_to_end", "nproc",
                              "per_layer", "pr", "python", "runs", "seconds", "seed", "src_lines",
                              "src_sha256"]
    assert (record["pr"], record["seed"], record["runs"], record["seconds"]) == (7, 1, 1, 1)
    assert sorted(record["end_to_end"]) == sorted(w["name"] for w in bench["workloads"])
    for metrics in record["end_to_end"].values():
        assert sorted(metrics) == sorted(m["name"] for m in bench["end_to_end"])
    assert sorted(record["per_layer"]) == ["families"]
    assert sorted(record["per_layer"]["families"]) == sorted(m["name"] for m in bench["per_layer"])
    suite = record["axiom_suite"]
    assert sorted(suite) == ["algebra", "checks", "dim", "overall", "peak_rss_mb", "wall_s"]
    assert (suite["algebra"], suite["dim"], suite["checks"], suite["overall"]) == ("kS3", 6, 17,
                                                                                   "pass")
    cold = record["cold_start"]
    assert sorted(cold) == ["bytecode_cached_after", "bytecode_cached_before", "check_hopf_c2",
                            "import_cli", "python_pass", "repeats"]
    assert cold["repeats"] == 3
    assert {type(cold[k]) for k in ("bytecode_cached_after", "bytecode_cached_before")} == {bool}
    for name in ("python_pass", "import_cli", "check_hopf_c2"):
        assert sorted(cold[name]) == ["best_s", "median_s"]
        assert 0 < cold[name]["best_s"] <= cold[name]["median_s"]

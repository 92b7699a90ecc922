"""scripts/regen_corpus.py reproduces the bundled corpus byte for byte."""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
CORPUS = os.path.join(ROOT, "corpus")


def _files(top):
    return {os.path.relpath(os.path.join(d, f), top)
            for d, _, names in os.walk(top) for f in names}


def test_regen_corpus_rewrites_the_corpus_byte_identically(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "regen_corpus", os.path.join(ROOT, "scripts", "regen_corpus.py"))
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    regen.ROOT = str(tmp_path)
    regen.main()
    written = _files(tmp_path)
    assert written == _files(CORPUS) and len(written) == 26
    for rel in sorted(written):
        with open(os.path.join(CORPUS, rel), "rb") as want, open(tmp_path / rel, "rb") as got:
            assert got.read() == want.read(), rel

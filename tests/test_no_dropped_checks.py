"""Every check the engine computes reaches a report; none is computed and dropped.

The corpus battery of scripts/verify_corpus.py runs in-process with every
CheckResult construction recorded.  A result reaches its command's report
when it is one of the report's checks, or when merge_checks or prefixed
turned it into one that does.  The parser decides a parsed object from its
verdicts and builds no result.
"""

import importlib.util
import os
import sys

from braidhopf import report as report_module
from braidhopf.cli import dispatch
from braidhopf.hopf import build_cosep_section, full_axiom_report, verify_cosep_section
from braidhopf.report import CheckResult
from contexts import yd_exterior_line, yd_kc2

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPT = os.path.join(ROOT, "scripts", "verify_corpus.py")


def corpus_commands():
    spec = importlib.util.spec_from_file_location("verify_corpus", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COMMANDS


def record_results(monkeypatch):
    """(built, feeds): every CheckResult built, and the id of each result
    merge_checks or prefixed consumed, mapped to the ids of the results it
    went into."""
    built: list[CheckResult] = []
    feeds: dict[int, list[int]] = {}
    init = CheckResult.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    merge, prefixed = report_module.merge_checks, report_module.prefixed

    def recording_merge(name, checks):
        checks = list(checks)
        merged = merge(name, checks)
        for c in checks:
            feeds.setdefault(id(c), []).append(id(merged))
        return merged

    def recording_prefixed(prefix, checks):
        checks = list(checks)
        renamed = prefixed(prefix, checks)
        for c, r in zip(checks, renamed):
            feeds.setdefault(id(c), []).append(id(r))
        return renamed

    monkeypatch.setattr(CheckResult, "__init__", recording_init)
    modules = [m for name, m in sys.modules.items() if name.startswith("braidhopf.")]
    for module in modules:
        for attr, original, wrapper in (("merge_checks", merge, recording_merge),
                                        ("prefixed", prefixed, recording_prefixed)):
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, wrapper)
    return built, feeds


def reached(result_id: int, reported: set[int], feeds: dict[int, list[int]]) -> bool:
    return result_id in reported or any(reached(nxt, reported, feeds)
                                        for nxt in feeds.get(result_id, ()))


def unreported(built, feeds, checks) -> list[str]:
    """The names of the results built that reach none of checks."""
    reported = {id(c) for c in checks}
    return [result.name for result in built if not reached(id(result), reported, feeds)]


def test_every_computed_check_reaches_the_report(monkeypatch):
    commands = corpus_commands()
    assert len(commands) == 30
    monkeypatch.chdir(ROOT)           # the commands name their files from the repository root
    built, feeds = record_results(monkeypatch)
    dropped = []
    for argv, expected in commands:
        del built[:]
        feeds.clear()
        code, report, error = dispatch(argv)
        assert (code, error) == (expected, None)
        assert built, argv
        dropped += [(" ".join(argv[:2]), name) for name in unreported(built, feeds, report.checks)]
    assert dropped == []


def test_checks_on_a_yetter_drinfeld_hopf_algebra_reach_the_report(monkeypatch):
    """cosep-section reads the morphism checks of m, and on kC2, whose
    generating set is not its whole basis, the certificate reads the
    carrier's object checks; no corpus command takes either path.  theta
    need not be a section."""
    built, feeds = record_results(monkeypatch)
    for h in (yd_exterior_line(), yd_kc2()):
        theta = build_cosep_section(h, h.eps.mat)
        for run in (full_axiom_report, lambda alg: verify_cosep_section(alg, theta)):
            del built[:]
            feeds.clear()
            checks = run(h)
            assert built
            assert unreported(built, feeds, checks) == []

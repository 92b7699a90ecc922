from braidhopf.linalg import Matrix
from braidhopf.report import CheckResult, chain_eq_check


def test_chain_eq_check_reports_the_first_pair_that_breaks():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[1, 2], [3, 5]])
    c = Matrix.from_rows([[0, 2], [3, 5]])
    assert chain_eq_check("chain", [a, a, a]) == CheckResult("chain", "pass")
    # (a, a) agrees, (a, b) breaks at (1,1); the later break of (b, c) is not reported
    assert chain_eq_check("chain", [a, a, b, c]) == CheckResult(
        "chain", "fail", witness="(1,1):lhs=4:rhs=5")

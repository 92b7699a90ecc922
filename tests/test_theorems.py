"""Every check passes where the paper proves it must.

Theorem te (bialgebras): a Hopf subalgebra B of A with a right B-linear
coalgebra retraction pi splits A as the cross product of its diagram R with
B.  For the group algebra kG over the algebra kH of a subgroup such a pi
exists, so on each of these contexts the search, the weak projection checks,
the identity suite, the diagram and the cross product must all exit 0.  The
contexts are generated here and rendered into definition files, so a false
failure anywhere between the parser and the report shows as an exit code.
"""

from itertools import combinations_with_replacement

import pytest

from contexts import write_context
from braidhopf.builders import cyclic_group, group_algebra, s3_group, subgroup_closure
from braidhopf.category import Morphism
from braidhopf.cli import dispatch
from braidhopf.linalg import Matrix
from braidhopf.weakproj import search_weak_projection


def subgroups(group):
    """Each distinct subgroup of group, as the closure of a pair of elements."""
    found = {}
    for pair in combinations_with_replacement(group.elements, 2):
        sub = subgroup_closure(group, "h", list(pair))
        found.setdefault(sub.elements, sub)
    return list(found.values())


CONTEXTS = [(group, sub) for group in (cyclic_group(4), cyclic_group(6), s3_group())
            for sub in subgroups(group)]


@pytest.mark.parametrize("group, sub", CONTEXTS,
                         ids=[f"{g.name}-{'.'.join(h.elements)}" for g, h in CONTEXTS])
def test_every_command_on_a_subgroup_context_exits_zero(tmp_path, group, sub):
    ka, kb = group_algebra(group), group_algebra(sub)
    # the inclusion by basis names, which is the CLI's sigma
    sigma = Morphism(kb.carrier, ka.carrier, Matrix.from_entries(
        ka.dim, kb.dim, [(group.index(h), k, 1) for k, h in enumerate(sub.elements)]))
    pi = search_weak_projection(ka, kb, sigma).pi
    assert pi is not None
    files = write_context(tmp_path, (group.name, group.elements, ka),
                          ("h", sub.elements, kb), pi)
    commands = [["weakproj", "search", *files[:2]]] + [
        [*command, *files] for command in (["weakproj", "check"], ["weakproj", "bd-suite"],
                                           ["weakproj", "diagram"], ["build", "cross"])]
    for argv in commands:
        code, report, error = dispatch(argv)
        assert (code, error) == (0, None), report.render("machine")

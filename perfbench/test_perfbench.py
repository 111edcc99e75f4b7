"""Tests of the benchmark itself: the reference catches wrong verdicts,
inputs depend on the seed and nothing else, and CLI inputs that break the
exit-code contract are reported.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
from types import SimpleNamespace

import pytest

import run
import workloads as W

HP = run.Program()


def first_verdict(wl, index=0):
    item = wl.item(index)
    verdict = wl.verdict(item, wl.run(item))
    assert wl.check(item, verdict) == []
    return item, verdict


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def test_reference_flags_flipped_agreement_verdict(workdir):
    wl = W.Agreement(HP, 3, workdir)
    item, verdict = first_verdict(wl)
    for which in (1, 2, 3):  # agreement flag, probability bits, nbhd bits
        bad = copy.deepcopy(verdict)
        if which == 1:
            bad[0][1] = not bad[0][1]
        else:
            bad[0][which][0] ^= 1
        assert wl.check(item, bad)


def test_reference_flags_flipped_roundtrip_verdict(workdir):
    wl = W.Roundtrip(HP, 3, workdir)
    item, verdict = first_verdict(wl)
    infeasible = copy.deepcopy(verdict)
    infeasible[0][1], infeasible[0][2] = False, None
    assert wl.check(item, infeasible)
    for weight in ("0", "2"):  # not full-support; not summing to one
        bad = copy.deepcopy(verdict)
        bad[1][2][0] = weight
        assert wl.check(item, bad)
    derived = copy.deepcopy(verdict)
    derived[0][0][0].append(list(item["cells"][0]))
    derived[0][0][0] = derived[0][0][0][-1:]
    assert wl.check(item, derived)


def test_reference_flags_flipped_census_verdict(workdir):
    wl = W.Census(HP, 3, workdir)
    item, verdict = first_verdict(wl, wl.probe())
    bad = list(verdict)
    bad[2] = not bad[2]  # mid-threshold verdict against the LP's
    assert wl.check(item, bad)


def test_reference_flags_wrong_cli_exit_code(workdir):
    wl = W.Cli(HP, 3, workdir)
    for i in range(len(W.CLI_DECK)):
        item, verdict = first_verdict(wl, i)
        wrong = [{0: 1, 1: 0, 2: 0}[verdict[0]]] + verdict[1:]
        assert wl.check(item, wrong), item["argv"]
        escaped = [None, "KeyError", ""]
        assert wl.check(item, escaped)


def inputs(wl, count):
    out = []
    for i in range(count):
        item = wl.item(i)
        out.append({k: v for k, v in item.items() if k != "model"})
    return out


@pytest.mark.parametrize("cls", [W.Agreement, W.Roundtrip, W.Census, W.Cli])
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(cls, tmp_path):
    dirs = [str(tmp_path / name) for name in ("a", "b", "c")]
    for d in dirs:
        (tmp_path / d).mkdir()
    count = 60
    first = inputs(cls(HP, 7, dirs[0]), count)
    again = inputs(cls(HP, 7, dirs[1]), count)
    other = inputs(cls(HP, 8, dirs[2]), count)
    if cls is W.Cli:  # file paths name the work directory
        first, again, other = (str(x).replace(d, "")
                               for x, d in zip((first, again, other), dirs))
    assert first == again
    assert first != other


def fake_cli(main):
    return SimpleNamespace(cli=SimpleNamespace(main=main))


def test_known_bad_cli_inputs_count_when_they_break_the_contract(workdir):
    def keeps_contract(argv):
        return 2

    def raises(argv):
        raise KeyError("nope")

    def exits_zero(argv):
        return 0

    assert W.known_bad_cli(fake_cli(keeps_contract), workdir) == []
    for main, outcome in ((raises, "KeyError"), (exits_zero, "exit 0")):
        broken = W.known_bad_cli(fake_cli(main), workdir)
        assert [case for case, _ in broken] == \
            [case for case, _ in W.KNOWN_BAD_CLI]
        assert {o for _, o in broken} == {outcome}

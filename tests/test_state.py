"""No paritykit module keeps state that grows with the requests it serves."""

import random
import sys

from paritykit.cli import run
from paritykit.family import base_curve, member


def module_state():
    """Size of every module-level dict, list, set and functools cache in paritykit.*."""
    sizes = {}
    for name, mod in list(sys.modules.items()):
        if name != "paritykit" and not name.startswith("paritykit."):
            continue
        for attr, value in vars(mod).items():
            if attr.startswith("__"):
                continue
            if isinstance(value, (dict, list, set)):
                sizes[name, attr] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[name, attr] = value.cache_info().currsize
    return sizes


def test_requests_leave_module_state_unchanged(tmp_path, capsys):
    # Curves no other test builds: a family pair at p = 3 with t drawn from
    # 15..30 (test_family stops at |t| = 12) and random models of the size
    # the triage workload draws.
    rng = random.Random(1019)
    t = 3 * rng.randint(5, 10)
    pair = [str(base_curve(2)), str(member(2, t)), str(member(2, -t))]
    models = ["[%d,%d,%d,%d,%d]" % (rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
                                    rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
              for _ in range(6)]
    path = tmp_path / "state.curves"
    path.write_text("".join("c%d ? %s ?\n" % (i, c) for i, c in enumerate(pair + models)))
    before = module_state()
    assert before, "no paritykit module found"
    requests = (
        ["analyze", "--e1", pair[0], "--e2", pair[1], "-p", "3", "--rank1", "0", "--json"],
        ["scan", "--file", str(path), "-p", "3"],
        ["local-info", "--curve", models[0]],
        ["local-info", "--curve", models[1], "--ell", "7"],
    )
    for argv in requests:
        assert run(argv) in (0, 1), argv
        capsys.readouterr()
        assert module_state() == before, argv

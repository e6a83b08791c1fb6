import hashlib
import json
from fractions import Fraction

import pytest

from rowmotion.cli import main
from rowmotion.harness import emit_report
from rowmotion.poset import chain_product, root_poset_a

# Identities whose noncommutative form was once a registry entry of its own:
# today's id -> that entry's id.  Its default backend was matrix:2.
PRE_MERGE_IDS = {"bar-transfer": "nar-transfer", "t-star": "t-star-nc", "tau-star": "tau-star-nc"}


def enumerate_linear_extensions(poset, limit):
    """The lexicographically first ``limit`` linear extensions, by backtracking."""
    if limit < 1:
        raise ValueError("limit must be positive")
    n = poset.n
    out = []
    indeg = [len(poset.down_adjacency[v]) for v in range(n)]
    prefix = []
    used = [False] * n

    def backtrack():
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(n):
            if used[v] or indeg[v] != 0:
                continue
            used[v] = True
            prefix.append(v)
            for w in poset.up_adjacency[v]:
                indeg[w] -= 1
            backtrack()
            for w in poset.up_adjacency[v]:
                indeg[w] += 1
            prefix.pop()
            used[v] = False
            if len(out) >= limit:
                return

    backtrack()
    return out


@pytest.fixture(scope="session")
def linear_extensions():
    return enumerate_linear_extensions


def pre_merge_report(report, backend_override=False, theorem=None):
    """A JSON `verify` report as the registry emitted it before PRE_MERGE_IDS merged.

    In the default plan the matrix:2 rows of a merged identity carried its old
    id.  Under --backend (``backend_override``) both ids ran every row, so each
    merged row appears under both.  ``theorem`` keeps only that id's rows, as
    `verify --theorem` emitted them.  Rows are re-sorted as `verify` sorts them.
    """
    rows = []
    for row in json.loads(report):
        old = PRE_MERGE_IDS.get(row["theorem"])
        if old is None:
            rows.append(row)
        elif backend_override:
            rows += [row, {**row, "theorem": old}]
        else:
            rows.append({**row, "theorem": old} if row["backend"] == "matrix:2" else row)
    if theorem is not None:
        rows = [r for r in rows if r["theorem"] == theorem]
    rows.sort(key=lambda r: (r["theorem"], r["poset"], r["backend"], r["seed"]))
    return emit_report(rows, "json")


@pytest.fixture
def pre_merge_verify_digest(tmp_path):
    """sha256 of a seed-0 `verify` JSON report, mapped back by pre_merge_report.

    ``theorem``, a pre-merge id, runs `verify --theorem` on the entry it is now part of.
    """
    merged_into = {old: new for new, old in PRE_MERGE_IDS.items()}

    def digest(*argv, theorem=None):
        if theorem is not None:
            argv += ("--theorem", merged_into.get(theorem, theorem))
        out = tmp_path / "verify.json"
        assert main(["verify", *argv, "--seed", "0", "--format", "json", "--out", str(out)]) == 0
        report = pre_merge_report(out.read_bytes(), "--backend" in argv, theorem)
        return hashlib.sha256(report).hexdigest()
    return digest


@pytest.fixture(scope="session")
def p22():
    return chain_product(2, 2)


@pytest.fixture(scope="session")
def p23():
    return chain_product(2, 3)


@pytest.fixture(scope="session")
def p33():
    return chain_product(3, 3)


@pytest.fixture(scope="session")
def a3():
    return root_poset_a(3)


def frac(num, den=1):
    return Fraction(num, den)

"""Per-rule coverage: a known-bad and a known-good snippet for every rule.

Snippets are linted through :func:`lint_source` with module paths chosen
to land inside (or outside) each rule's scope.
"""

from __future__ import annotations

import textwrap

from repro.analysis.lint import Violation, default_rules, lint_source
from repro.analysis.lint.rules import ALL_RULE_IDS, rule_catalog

CORE = "src/repro/core/sample.py"
GRAPH = "src/repro/graph/sample.py"
EXPERIMENTS = "src/repro/experiments/sample.py"


def run(source: str, rule_id: str, path: str = CORE) -> list[Violation]:
    violations = lint_source(
        textwrap.dedent(source), default_rules([rule_id]), path=path
    )
    return [v for v in violations if v.rule == rule_id]


# ----------------------------------------------------------------------
# R101 set-iteration-order
# ----------------------------------------------------------------------
def test_r101_flags_set_literal_iteration() -> None:
    assert len(run("for x in {1, 2, 3}:\n    print(x)\n", "R101")) == 1


def test_r101_flags_keys_iteration() -> None:
    bad = "def f(d: dict) -> None:\n    for k in d.keys():\n        print(k)\n"
    (violation,) = run(bad, "R101")
    assert ".keys()" in violation.message


def test_r101_flags_tracked_set_assignment() -> None:
    bad = "def f(xs: list) -> None:\n    s = set(xs)\n    for x in s:\n        print(x)\n"
    assert len(run(bad, "R101")) == 1


def test_r101_flags_set_typed_parameter() -> None:
    bad = (
        "def f(members: frozenset) -> None:\n"
        "    for m in members:\n"
        "        print(m)\n"
    )
    (violation,) = run(bad, "R101")
    assert "set-typed parameter" in violation.message


def test_r101_flags_string_annotation_parameter() -> None:
    bad = (
        'def f(members: "frozenset[int]") -> None:\n'
        "    for m in members:\n"
        "        print(m)\n"
    )
    assert len(run(bad, "R101")) == 1


def test_r101_flags_set_operator_expression() -> None:
    bad = (
        "def f(a: set, b: set) -> None:\n"
        "    for x in a & b:\n"
        "        print(x)\n"
    )
    assert len(run(bad, "R101")) == 1


def test_r101_flags_comprehension_over_set() -> None:
    bad = "def f(xs: list) -> list:\n    return [x for x in set(xs)]\n"
    assert len(run(bad, "R101")) == 1


def test_r101_allows_sorted_wrapper() -> None:
    good = "for x in sorted({3, 1, 2}):\n    print(x)\n"
    assert run(good, "R101") == []


def test_r101_allows_order_insensitive_consumer() -> None:
    good = (
        "def f(s: set) -> int:\n"
        "    return min(x for x in s)\n"
    )
    assert run(good, "R101") == []


def test_r101_unannotated_parameter_shadows_outer_set() -> None:
    good = (
        "def outer(xs: list) -> None:\n"
        "    s = set(xs)\n"
        "    def inner(s) -> None:\n"
        "        for x in s:\n"
        "            print(x)\n"
    )
    assert run(good, "R101") == []


def test_r101_reassignment_clears_tracking() -> None:
    good = (
        "def f(xs: list) -> None:\n"
        "    s = set(xs)\n"
        "    s = sorted(s)\n"
        "    for x in s:\n"
        "        print(x)\n"
    )
    assert run(good, "R101") == []


def test_r101_out_of_scope_module_is_exempt() -> None:
    bad = "for x in {1, 2, 3}:\n    print(x)\n"
    assert run(bad, "R101", path=EXPERIMENTS) == []


# ----------------------------------------------------------------------
# R102 builtin-hash
# ----------------------------------------------------------------------
def test_r102_flags_hash_call() -> None:
    (violation,) = run("def f(x: str) -> int:\n    return hash(x)\n", "R102")
    assert "PYTHONHASHSEED" in violation.message


def test_r102_allows_hashlib_and_out_of_scope() -> None:
    good = "import hashlib\ndigest = hashlib.sha256(b'x').hexdigest()\n"
    assert run(good, "R102", path=GRAPH) == []
    assert run("def f(x: str) -> int:\n    return hash(x)\n", "R102", path=EXPERIMENTS) == []


# ----------------------------------------------------------------------
# R103 unseeded-rng
# ----------------------------------------------------------------------
def test_r103_flags_random_import() -> None:
    assert len(run("import random\n", "R103", path=EXPERIMENTS)) == 1
    assert len(run("from random import choice\n", "R103", path=EXPERIMENTS)) == 1


def test_r103_flags_np_random_module_state() -> None:
    bad = "import numpy as np\nx = np.random.rand(3)\n"
    (violation,) = run(bad, "R103", path=EXPERIMENTS)
    assert "np.random.rand" in violation.message


def test_r103_allows_np_random_types_and_rng_module() -> None:
    good = "import numpy as np\nrng: np.random.Generator\n"
    assert run(good, "R103", path=EXPERIMENTS) == []
    bad = "import random\n"
    assert run(bad, "R103", path="src/repro/utils/rng.py") == []


# ----------------------------------------------------------------------
# R201 backend-kwarg
# ----------------------------------------------------------------------
def test_r201_flags_missing_backend_parameter() -> None:
    bad = (
        "class SSFExtractor:\n"
        "    def __init__(self, network: object) -> None:\n"
        "        self._network = network\n"
    )
    (violation,) = run(bad, "R201")
    assert "backend=" in violation.message


def test_r201_flags_unread_backend_parameter() -> None:
    bad = (
        "def parallel_extract_batch(pairs: list, backend: str = 'csr') -> list:\n"
        "    return pairs\n"
    )
    (violation,) = run(bad, "R201")
    assert "never reads it" in violation.message


def test_r201_flags_config_without_backend_field() -> None:
    bad = "class ExperimentConfig:\n    k: int = 10\n"
    (violation,) = run(bad, "R201")
    assert "backend" in violation.message


def test_r201_accepts_forwarded_backend() -> None:
    good = (
        "def parallel_extract_batch(pairs: list, backend: str = 'csr') -> list:\n"
        "    return [(p, backend) for p in pairs]\n"
    )
    assert run(good, "R201") == []


def test_r201_covers_batch_extract_entry_point() -> None:
    bad = (
        "def batch_extract(network: object, pairs: list) -> list:\n"
        "    return pairs\n"
    )
    (violation,) = run(bad, "R201")
    assert "backend=" in violation.message
    good = (
        "def batch_extract(network: object, pairs: list,\n"
        "                  backend: str = 'csr') -> list:\n"
        "    return [(p, backend) for p in pairs]\n"
    )
    assert run(good, "R201") == []


# ----------------------------------------------------------------------
# R202 backend-dispatch
# ----------------------------------------------------------------------
def test_r202_flags_invalid_literal() -> None:
    bad = "def f(backend: str) -> bool:\n    return backend == 'dct'\n"
    (violation,) = run(bad, "R202")
    assert "'dct'" in violation.message


def test_r202_flags_the_retired_auto_selector() -> None:
    bad = (
        "def f(backend: str) -> bool:\n"
        "    g(backend='auto')\n"
        "    return backend == 'auto'\n"
    )
    violations = run(bad, "R202")
    assert len(violations) == 2
    assert all("'auto'" in v.message for v in violations)


def test_r202_flags_non_exhaustive_chain() -> None:
    # a copy-paste slip: the second branch repeats 'dict', so 'csr'
    # falls through to the default
    bad = (
        "def f(backend: str) -> int:\n"
        "    if backend == 'dict':\n"
        "        return 0\n"
        "    elif backend == 'dict':\n"
        "        return 1\n"
        "    return -1\n"
    )
    (violation,) = run(bad, "R202")
    assert "not exhaustive" in violation.message


def test_r202_accepts_exhaustive_or_raising_chains() -> None:
    covered = (
        "def f(backend: str) -> int:\n"
        "    if backend == 'dict':\n"
        "        return 1\n"
        "    elif backend == 'csr':\n"
        "        return 2\n"
        "    return 0\n"
    )
    assert run(covered, "R202") == []
    with_else = (
        "def f(backend: str) -> int:\n"
        "    if backend == 'dict':\n"
        "        return 0\n"
        "    elif backend == 'dict':\n"
        "        return 1\n"
        "    else:\n"
        "        return 2\n"
    )
    assert run(with_else, "R202") == []
    raising = (
        "def f(backend: str) -> int:\n"
        "    if backend == 'dict':\n"
        "        raise ValueError(backend)\n"
        "    elif backend == 'dict':\n"
        "        return 1\n"
    )
    assert run(raising, "R202") == []


def test_r202_single_guard_is_not_a_dispatch() -> None:
    good = (
        "def f(backend: str) -> None:\n"
        "    if backend == 'csr':\n"
        "        return\n"
    )
    assert run(good, "R202") == []


# ----------------------------------------------------------------------
# R301 mutable-default
# ----------------------------------------------------------------------
def test_r301_flags_mutable_defaults() -> None:
    assert len(run("def f(x=[]):\n    return x\n", "R301", path=EXPERIMENTS)) == 1
    assert len(run("def f(*, x={}):\n    return x\n", "R301", path=EXPERIMENTS)) == 1
    assert len(run("def f(x=list()):\n    return x\n", "R301", path=EXPERIMENTS)) == 1


def test_r301_allows_none_default() -> None:
    assert run("def f(x=None):\n    return x\n", "R301", path=EXPERIMENTS) == []


# ----------------------------------------------------------------------
# R302 bare-except
# ----------------------------------------------------------------------
def test_r302_flags_bare_except() -> None:
    bad = "try:\n    pass\nexcept:\n    pass\n"
    assert len(run(bad, "R302", path=EXPERIMENTS)) == 1


def test_r302_allows_named_exception() -> None:
    good = "try:\n    pass\nexcept ValueError:\n    pass\n"
    assert run(good, "R302", path=EXPERIMENTS) == []


# ----------------------------------------------------------------------
# R303 span-context
# ----------------------------------------------------------------------
def test_r303_flags_bare_span_call() -> None:
    bad = "def f() -> None:\n    span('extract')\n"
    (violation,) = run(bad, "R303")
    assert "with span" in violation.message


def test_r303_allows_with_and_decorator() -> None:
    good = (
        "@span('outer')\n"
        "def f() -> None:\n"
        "    with span('extract'):\n"
        "        pass\n"
    )
    assert run(good, "R303") == []


def test_r303_exempts_obs_package() -> None:
    bad = "span('extract')\n"
    assert run(bad, "R303", path="src/repro/obs/tracing.py") == []


# ----------------------------------------------------------------------
# R304 trace-context-kwarg
# ----------------------------------------------------------------------
SERVE = "src/repro/serve/sample.py"


def test_r304_flags_missing_rctx_parameter() -> None:
    bad = "def recommend(self, user, top_n=10):\n    return []\n"
    (violation,) = run(bad, "R304", path=SERVE)
    assert "rctx" in violation.message


def test_r304_flags_accepted_but_unread_rctx() -> None:
    bad = (
        "def recommend_many(self, queries, *, rctx=None):\n"
        "    return [self.score(q) for q in queries]\n"
    )
    (violation,) = run(bad, "R304", path=SERVE)
    assert "never reads" in violation.message


def test_r304_allows_forwarding_entry_points() -> None:
    good = (
        "async def ingest(self, events, *, rctx=None):\n"
        "    with span('serve.ingest', ctx=rctx):\n"
        "        return self.core.apply(events)\n"
    )
    assert run(good, "R304", path=SERVE) == []


def test_r304_only_polices_the_serving_package() -> None:
    elsewhere = "def recommend(self, user, top_n=10):\n    return []\n"
    assert run(elsewhere, "R304", path=CORE) == []
    assert run(elsewhere, "R304", path=EXPERIMENTS) == []


# ----------------------------------------------------------------------
# R305 annotation-coverage
# ----------------------------------------------------------------------
def test_r305_flags_missing_annotations() -> None:
    (violation,) = run("def f(x, y):\n    return x\n", "R305")
    assert "x, y" in violation.message
    assert "return annotation" in violation.message


def test_r305_skips_self_and_accepts_full_annotations() -> None:
    good = (
        "class C:\n"
        "    def f(self, x: int, *args: int, **kw: int) -> int:\n"
        "        return x\n"
    )
    assert run(good, "R305") == []


def test_r305_out_of_scope_module_is_exempt() -> None:
    assert run("def f(x):\n    return x\n", "R305", path=EXPERIMENTS) == []


# ----------------------------------------------------------------------
# R401 float-equality
# ----------------------------------------------------------------------
def test_r401_flags_float_literal_equality() -> None:
    bad = "def f(x: float) -> bool:\n    return x == 1.0\n"
    (violation,) = run(bad, "R401")
    assert "isclose" in violation.message


def test_r401_flags_transcendental_and_influence_calls() -> None:
    bad = "import math\nok = math.exp(x) == y\n"
    assert len(run(bad, "R401")) == 1
    bad = "same = link_influence(s, 1, 2, 0.5) != w\n"
    assert len(run(bad, "R401")) == 1


def test_r401_allows_int_equality_and_comparisons() -> None:
    assert run("def f(x: int) -> bool:\n    return x == 1\n", "R401") == []
    assert run("import math\nok = math.exp(x) < y\n", "R401") == []


# ----------------------------------------------------------------------
# R604 hash-set-op
# ----------------------------------------------------------------------
def test_r604_flags_bare_unique_and_set_ops() -> None:
    bad = """
    import numpy as np

    def merge(a, b, options):
        codes = np.unique(a)
        forwarded = np.unique(a, **options)
        joined = np.union1d(a, b)
        missing = np.setdiff1d(a, b)
        shared = numpy.intersect1d(a, b)
        return codes, forwarded, joined, missing, shared
    """
    violations = run(bad, "R604")
    assert [v.line for v in violations] == [5, 6, 7, 8, 9]
    assert all("sorted_unique" in v.message for v in violations)
    assert "np.setdiff1d()" in violations[3].message


def test_r604_covers_graph_and_serve() -> None:
    bad = "import numpy as np\nball = np.union1d(seen, frontier)\n"
    assert len(run(bad, "R604", path=GRAPH)) == 1
    assert len(run(bad, "R604", path="src/repro/serve/sample.py")) == 1


def test_r604_allows_sort_path_unique_and_the_helper() -> None:
    good = """
    import numpy as np
    from repro.graph.csr import sorted_unique

    def stamps(ts, codes):
        values, inverse = np.unique(ts, return_inverse=True)
        counted = np.unique(codes, return_counts=True)
        return values, inverse, counted, sorted_unique(codes)
    """
    assert run(good, "R604") == []


def test_r604_out_of_scope_module_is_exempt() -> None:
    assert run("import numpy as np\nd = np.unique(s)\n", "R604", path=EXPERIMENTS) == []


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------
def test_every_rule_id_is_unique_and_catalogued() -> None:
    assert len(set(ALL_RULE_IDS)) == len(ALL_RULE_IDS)
    catalogued = [rid for rid, _, _ in rule_catalog()]
    assert catalogued == list(ALL_RULE_IDS)


def test_default_rules_rejects_unknown_id() -> None:
    import pytest

    with pytest.raises(ValueError, match="R999"):
        default_rules(["R999"])

"""Pass-1 project index: symbol table, call resolution, cache payloads."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.lint.callgraph import (
    ProjectIndex,
    build_project_index,
    resolve_ref,
    source_fingerprint,
)
from repro.analysis.lint.engine import (
    load_index_cache,
    module_name_for,
    save_index_cache,
)


def index_of(*modules: tuple[str, str]) -> ProjectIndex:
    return build_project_index(
        (name, f"src/{name.replace('.', '/')}.py", ast.parse(source))
        for name, source in modules
    )


# ----------------------------------------------------------------------
# call resolution
# ----------------------------------------------------------------------
def test_resolves_same_module_call() -> None:
    index = index_of(
        ("repro.core.a", "def helper():\n    pass\n\ndef top():\n    helper()\n")
    )
    (call,) = index.functions["repro.core.a.top"].calls
    assert call.resolved == "repro.core.a.helper"


def test_resolves_cross_module_from_import() -> None:
    index = index_of(
        ("repro.core.a", "def helper():\n    pass\n"),
        (
            "repro.core.b",
            "from repro.core.a import helper\n\ndef top():\n    helper()\n",
        ),
    )
    (call,) = index.functions["repro.core.b.top"].calls
    assert call.resolved == "repro.core.a.helper"


def test_resolves_module_alias_attribute_call() -> None:
    index = index_of(
        ("repro.obs.live", "def heartbeat_tick():\n    pass\n"),
        (
            "repro.core.b",
            "from repro.obs import live\n\ndef top():\n    live.heartbeat_tick()\n",
        ),
    )
    (call,) = index.functions["repro.core.b.top"].calls
    assert call.resolved == "repro.obs.live.heartbeat_tick"


def test_resolves_package_reexport_import() -> None:
    # ``from repro.obs import heartbeat_tick`` — the alias names the
    # package, not the defining module; the unique project-wide match
    # must still resolve.
    index = index_of(
        ("repro.obs.live", "def heartbeat_tick():\n    pass\n"),
        (
            "repro.core.b",
            "from repro.obs import heartbeat_tick\n\ndef top():\n    heartbeat_tick()\n",
        ),
    )
    (call,) = index.functions["repro.core.b.top"].calls
    assert call.resolved == "repro.obs.live.heartbeat_tick"


def test_self_method_call_resolves_to_class() -> None:
    source = (
        "class Extractor:\n"
        "    def extract(self):\n"
        "        return self._inner()\n"
        "    def _inner(self):\n"
        "        return 0\n"
    )
    index = index_of(("repro.core.a", source))
    (call,) = index.functions["repro.core.a.Extractor.extract"].calls
    assert call.resolved == "repro.core.a.Extractor._inner"


def test_ambiguous_bare_name_stays_unresolved() -> None:
    index = index_of(
        ("repro.core.a", "def work():\n    pass\n"),
        ("repro.core.b", "def work():\n    pass\n"),
        ("repro.core.c", "def top():\n    work()\n"),
    )
    (call,) = index.functions["repro.core.c.top"].calls
    assert call.resolved is None


def test_backend_kwarg_recorded_on_call_sites() -> None:
    source = (
        "def entry(pairs, backend='csr'):\n"
        "    return backend\n"
        "def caller(pairs, backend='csr'):\n"
        "    return entry(pairs, backend=backend)\n"
        "def dropper(pairs, backend='csr'):\n"
        "    return entry(pairs)\n"
    )
    index = index_of(("repro.core.a", source))
    (forwarding,) = index.functions["repro.core.a.caller"].calls
    assert forwarding.passes_backend
    (dropping,) = index.functions["repro.core.a.dropper"].calls
    assert not dropping.passes_backend


# ----------------------------------------------------------------------
# function facts
# ----------------------------------------------------------------------
def test_lock_pool_and_global_facts() -> None:
    source = (
        "import threading\n"
        "from multiprocessing import Pool\n"
        "_LOCK = threading.Lock()\n"
        "_STATE = None\n"
        "def spawn(pairs):\n"
        "    with _LOCK:\n"
        "        pass\n"
        "    with Pool(2) as pool:\n"
        "        return list(pool.imap(str, pairs))\n"
        "def init():\n"
        "    global _STATE\n"
        "    _STATE = object()\n"
    )
    index = index_of(("repro.core.a", source))
    spawn = index.functions["repro.core.a.spawn"]
    assert spawn.spawns_pool and spawn.pool_lines
    assert spawn.lock_lines and spawn.lock_lines[0] < spawn.pool_lines[0]
    init = index.functions["repro.core.a.init"]
    assert ("_STATE", 12) in init.global_writes


def test_register_at_fork_detected() -> None:
    index = index_of(
        ("repro.obs.a", "import os\nos.register_at_fork(after_in_child=id)\n"),
        ("repro.obs.b", "import os\n"),
    )
    assert index.modules["repro.obs.a"].registers_at_fork
    assert not index.modules["repro.obs.b"].registers_at_fork


def test_initializer_and_worker_refs_collected() -> None:
    source = (
        "from multiprocessing import Pool\n"
        "def init():\n    pass\n"
        "def work(x):\n    return x\n"
        "def run(pairs):\n"
        "    with Pool(2, initializer=init) as pool:\n"
        "        return list(pool.imap(work, pairs))\n"
    )
    index = index_of(("repro.core.a", source))
    module = index.modules["repro.core.a"]
    assert "init" in module.initializer_refs
    assert "work" in module.worker_entry_refs


# ----------------------------------------------------------------------
# traversals
# ----------------------------------------------------------------------
def test_callees_closure_and_chain() -> None:
    source = (
        "def a():\n    b()\n"
        "def b():\n    c()\n"
        "def c():\n    pass\n"
    )
    index = index_of(("repro.core.m", source))
    q = "repro.core.m."
    assert set(index.callees(q + "a", 1)) == {q + "b"}
    assert set(index.callees(q + "a", 2)) == {q + "b", q + "c"}
    assert index.closure([q + "a"]) >= {q + "a", q + "b", q + "c"}
    assert index.call_chain(q + "a", q + "c", 3) == [q + "a", q + "b", q + "c"]
    assert not index.call_chain(q + "c", q + "a", 3)  # unreachable -> falsy


# ----------------------------------------------------------------------
# serialisation + cache
# ----------------------------------------------------------------------
def test_payload_roundtrip() -> None:
    index = index_of(
        ("repro.core.a", "def helper():\n    pass\n"),
        (
            "repro.core.b",
            "from repro.core.a import helper\n\ndef top():\n    helper()\n",
        ),
    )
    restored = ProjectIndex.from_payload(index.to_payload())
    assert set(restored.functions) == set(index.functions)
    (call,) = restored.functions["repro.core.b.top"].calls
    assert call.resolved == "repro.core.a.helper"


def test_index_cache_hits_only_on_matching_fingerprint(tmp_path: Path) -> None:
    index = index_of(("repro.core.a", "def helper():\n    pass\n"))
    cache = tmp_path / "cache" / "index.json"
    fingerprint = source_fingerprint([("a.py", "def helper():\n    pass\n")])
    save_index_cache(cache, fingerprint, index)
    hit = load_index_cache(cache, fingerprint)
    assert hit is not None and "repro.core.a.helper" in hit.functions
    assert load_index_cache(cache, "other") is None
    assert load_index_cache(tmp_path / "missing.json", fingerprint) is None


def test_source_fingerprint_is_order_insensitive_and_content_sensitive() -> None:
    files = [("a.py", "x = 1\n"), ("b.py", "y = 2\n")]
    assert source_fingerprint(files) == source_fingerprint(list(reversed(files)))
    assert source_fingerprint(files) != source_fingerprint(
        [("a.py", "x = 1\n"), ("b.py", "y = 3\n")]
    )


def test_resolve_ref_dynamic_attribute_tail() -> None:
    index = index_of(
        (
            "repro.core.a",
            "class H:\n    def write(self):\n        pass\n",
        )
    )
    assert resolve_ref(index, "repro.core.a", ".write") == "repro.core.a.H.write"


def test_module_name_for_fixture_layout() -> None:
    assert (
        module_name_for("tests/analysis/fixtures/repro/core/bad_worker_global.py")
        == "repro.core.bad_worker_global"
    )

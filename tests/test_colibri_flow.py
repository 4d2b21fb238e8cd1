"""Tests for tools.colibri_flow: call-graph resolution, each CF rule's
triggers and non-triggers, suppressions, the baseline workflow, the CLI
with its JSON schema, the parse-once cache contract, and a meta-test
that the real tree stays clean."""

from __future__ import annotations

import json
import textwrap
import unittest
from pathlib import Path

from tools.analysis_core.baseline import (
    filter_findings,
    load_baseline,
    write_baseline,
)
from tools.analysis_core.cache import AstCache
from tools.colibri_flow import analyze_paths, analyze_sources
from tools.colibri_flow.callgraph import CallGraph
from tools.colibri_flow.cli import run as cli_run
from tools.colibri_flow.project import Project
from tools.colibri_flow.rules import RULES_BY_ID

REPO_ROOT = Path(__file__).resolve().parents[1]
PROD = "src/repro/example.py"


def flow(sources, rule_id):
    """Run one rule over dedented in-memory sources."""
    if isinstance(sources, str):
        sources = {PROD: sources}
    sources = {path: textwrap.dedent(src) for path, src in sources.items()}
    return analyze_sources(sources, rules=[RULES_BY_ID[rule_id]])


def hits(sources, rule_id):
    return [finding.rule_id for finding in flow(sources, rule_id)]


def graph_of(sources) -> CallGraph:
    sources = {path: textwrap.dedent(src) for path, src in sources.items()}
    return CallGraph(Project.load_sources(sources))


# ---------------------------------------------------------------------------
# Call graph


class TestCallGraph(unittest.TestCase):
    def test_module_local_call_edge(self):
        graph = graph_of(
            {PROD: "def helper():\n    return 1\ndef top():\n    return helper()\n"}
        )
        self.assertIn("repro.example.helper", graph.callees("repro.example.top"))

    def test_cross_module_import_edge(self):
        graph = graph_of(
            {
                "src/repro/a.py": "def helper():\n    return 1\n",
                "src/repro/b.py": (
                    "from repro.a import helper\n"
                    "def top():\n    return helper()\n"
                ),
            }
        )
        self.assertIn("repro.a.helper", graph.callees("repro.b.top"))

    def test_annotated_receiver_resolves_method(self):
        graph = graph_of(
            {
                PROD: (
                    "class Router:\n"
                    "    def process(self, pkt):\n        return pkt\n"
                    "def top(router: Router, pkt):\n"
                    "    return router.process(pkt)\n"
                )
            }
        )
        self.assertIn(
            "repro.example.Router.process", graph.callees("repro.example.top")
        )

    def test_bound_method_alias_resolves(self):
        # The shards.py fast-path idiom: hoist the bound method, call the
        # local name.  The receiver is untypable (closure/param), so the
        # unique-method fallback must still pin the callee.
        graph = graph_of(
            {
                PROD: (
                    "class Router:\n"
                    "    def validate_burst(self, pkts):\n        return pkts\n"
                    "def loop(router, bursts):\n"
                    "    validate_burst = router.validate_burst\n"
                    "    for burst in bursts:\n"
                    "        validate_burst(burst)\n"
                )
            }
        )
        self.assertIn(
            "repro.example.Router.validate_burst",
            graph.callees("repro.example.loop"),
        )

    def test_generic_method_name_not_guessed(self):
        # ``append`` is on the generic blacklist: a project class defining
        # it must not capture every ``x.append(...)`` call in the tree.
        graph = graph_of(
            {
                PROD: (
                    "class Journal:\n"
                    "    def append(self, entry):\n        return entry\n"
                    "def top(items):\n"
                    "    items.append(1)\n"
                )
            }
        )
        self.assertEqual(set(), graph.callees("repro.example.top"))

    def test_external_dotted_name(self):
        graph = graph_of({PROD: "import time\ndef top():\n    return time.monotonic()\n"})
        project = graph.project
        fn = project.functions["repro.example.top"]
        (call,) = graph.calls_in(fn)
        self.assertEqual("time.monotonic", graph.targets_for(fn, call).external)

    def test_nested_function_is_own_node(self):
        graph = graph_of(
            {
                PROD: (
                    "def outer():\n"
                    "    def inner():\n        return 1\n"
                    "    return inner()\n"
                )
            }
        )
        self.assertIn(
            "repro.example.outer.<locals>.inner",
            graph.callees("repro.example.outer"),
        )
        nested = graph.nested_functions("repro.example.outer")
        self.assertEqual(["inner"], [fn.name for fn in nested])


# ---------------------------------------------------------------------------
# CF001 — verification results must reach a decision


class TestCF001VerificationFlow(unittest.TestCase):
    CARRIER = textwrap.dedent(
        """
        from repro.crypto.mac import constant_time_equal

        def check(tag, expect):
            if constant_time_equal(tag, expect):
                return True
            return False
        """
    )

    def test_discarded_carrier_call_flagged(self):
        source = self.CARRIER + (
            "\ndef handle(tag, expect):\n"
            "    check(tag, expect)\n"
            "    return None\n"
        )
        self.assertIn("CF001", hits(source, "CF001"))

    def test_cross_module_discard_flagged(self):
        findings = flow(
            {
                "src/repro/a.py": textwrap.dedent(self.CARRIER),
                "src/repro/b.py": (
                    "from repro.a import check\n"
                    "def handle(tag, expect):\n"
                    "    check(tag, expect)\n"
                ),
            },
            "CF001",
        )
        self.assertEqual(["src/repro/b.py"], [f.path for f in findings])
        # The finding carries an interprocedural trace into the carrier.
        self.assertTrue(findings[0].trace)
        self.assertEqual("src/repro/a.py", findings[0].trace[0].path)

    def test_bound_method_alias_discard_flagged(self):
        source = """
            from repro.crypto.mac import constant_time_equal

            class Router:
                def validate_burst(self, pkts):
                    return [constant_time_equal(p, p) for p in pkts]

            def loop(router, bursts):
                validate_burst = router.validate_burst
                for burst in bursts:
                    validate_burst(burst)
                return len(bursts)
        """
        self.assertIn("CF001", hits(source, "CF001"))

    def test_bound_but_never_deciding_flagged(self):
        source = """
            from repro.crypto.mac import constant_time_equal

            def gate(tag, expect):
                ok = constant_time_equal(tag, expect)
                return "done"
        """
        findings = flow(source, "CF001")
        self.assertEqual(["CF001"], [f.rule_id for f in findings])
        self.assertIn("ok", findings[0].message)

    def test_unresolved_verify_statement_flagged(self):
        self.assertIn(
            "CF001",
            hits("def handle(pkt):\n    verify_hvf_chain(pkt)\n", "CF001"),
        )

    def test_branch_test_clean(self):
        source = """
            from repro.crypto.mac import constant_time_equal

            def gate(tag, expect):
                if not constant_time_equal(tag, expect):
                    raise ValueError("bad tag")
        """
        self.assertEqual([], hits(source, "CF001"))

    def test_returned_verdict_clean(self):
        source = self.CARRIER + (
            "\ndef handle(tag, expect):\n"
            "    return check(tag, expect)\n"
        )
        self.assertEqual([], hits(source, "CF001"))

    def test_raising_verifier_statement_clean(self):
        source = """
            from repro.crypto.mac import verify_mac

            def handle(key, data, tag):
                verify_mac(key, data, tag)
                return data
        """
        self.assertEqual([], hits(source, "CF001"))

    def test_bound_then_branched_clean(self):
        source = """
            from repro.crypto.mac import constant_time_equal

            def gate(tag, expect):
                ok = constant_time_equal(tag, expect)
                if not ok:
                    raise ValueError("bad tag")
        """
        self.assertEqual([], hits(source, "CF001"))

    def test_resolved_raising_verify_clean(self):
        source = """
            def verify_window(value):
                if not value:
                    raise ValueError("stale")

            def handle(value):
                verify_window(value)
                return value
        """
        self.assertEqual([], hits(source, "CF001"))

    def test_verdicts_consumed_via_all_clean(self):
        # The fixed shards.py shape: bind, branch on all(), count.
        source = self.CARRIER + (
            "\ndef loop(tags):\n"
            "    done = 0\n"
            "    for tag in tags:\n"
            "        verdicts = check(tag, tag)\n"
            "        if not verdicts:\n"
            "            raise ValueError('rejected')\n"
            "        done += 1\n"
            "    return done\n"
        )
        self.assertEqual([], hits(source, "CF001"))


# ---------------------------------------------------------------------------
# CF002 — nondeterminism taint


class TestCF002Determinism(unittest.TestCase):
    def test_wall_clock_into_attribute_store_flagged(self):
        source = """
            import time

            class Monitor:
                def touch(self):
                    self.last_seen = time.time()
        """
        self.assertIn("CF002", hits(source, "CF002"))

    def test_wall_clock_seeding_prng_flagged(self):
        source = """
            import random
            import time

            def make_rng():
                return random.Random(time.time())
        """
        self.assertIn("CF002", hits(source, "CF002"))

    def test_taint_through_helper_return_flagged(self):
        source = """
            import time

            def stamp():
                return time.time()

            def record(store):
                store["t"] = stamp()
        """
        findings = flow(source, "CF002")
        self.assertEqual(["CF002"], [f.rule_id for f in findings])
        # Trace points back at the source call inside the helper.
        self.assertTrue(
            any("time.time" in step.note for step in findings[0].trace)
        )

    def test_taint_into_storing_callee_flagged(self):
        source = """
            import time

            class Cache:
                def install(self, value):
                    self.value = value

            def refresh(cache: Cache):
                cache.install(time.time())
        """
        self.assertIn("CF002", hits(source, "CF002"))

    def test_entropy_into_module_table_flagged(self):
        source = """
            import os

            KEYS = {}

            def make_key(name):
                KEYS[name] = os.urandom(16)
        """
        self.assertIn("CF002", hits(source, "CF002"))

    def test_clock_module_exempt(self):
        source = "import time\n\nclass Clock:\n    def now(self):\n        self.t = time.time()\n        return self.t\n"
        self.assertEqual([], hits({"src/repro/util/clock.py": source}, "CF002"))

    def test_crypto_entropy_boundary_exempt(self):
        # Nonces must be unpredictable; repro/crypto is the sanctioned
        # entropy boundary just as util/clock is the wall-clock one.
        source = """
            import os

            class Sealer:
                def seal(self, payload):
                    self.nonce = os.urandom(12)
                    return self.nonce + payload
        """
        self.assertEqual([], hits({"src/repro/crypto/aead.py": source}, "CF002"))

    def test_injected_clock_clean(self):
        source = """
            def record(clock, store):
                store["t"] = clock.now()
        """
        self.assertEqual([], hits(source, "CF002"))

    def test_measurement_without_state_clean(self):
        # Reading the clock and returning the delta stores nothing.
        source = """
            import time

            def measure(work):
                start = time.time()
                work()
                return time.time() - start
        """
        self.assertEqual([], hits(source, "CF002"))

    def test_injected_seed_clean(self):
        source = """
            import random

            def make_rng(spec):
                return random.Random(spec.seed)
        """
        self.assertEqual([], hits(source, "CF002"))


# ---------------------------------------------------------------------------
# CF003 — guarded instrumentation


class TestCF003ObsGuard(unittest.TestCase):
    def test_unguarded_self_obs_flagged(self):
        source = """
            class Router:
                def process(self, pkt):
                    self.obs.tracer.start("hop")
                    return pkt
        """
        self.assertIn("CF003", hits(source, "CF003"))

    def test_unguarded_alias_flagged(self):
        source = """
            class Router:
                def process(self, pkt):
                    obs = self.obs
                    obs.metrics.observe(1)
                    return pkt
        """
        self.assertIn("CF003", hits(source, "CF003"))

    def test_optional_journal_link_flagged(self):
        # Guarding the context does not guard its Optional .journal field.
        source = """
            class Router:
                def process(self, pkt):
                    if self.obs is not None:
                        self.obs.journal.record("hop")
                    return pkt
        """
        findings = flow(source, "CF003")
        self.assertEqual(["CF003"], [f.rule_id for f in findings])
        self.assertIn("journal", findings[0].message)

    def test_guard_after_use_flagged(self):
        source = """
            class Router:
                def process(self, pkt):
                    self.obs.tracer.start("hop")
                    if self.obs is not None:
                        pass
                    return pkt
        """
        self.assertIn("CF003", hits(source, "CF003"))

    def test_is_not_none_guard_clean(self):
        source = """
            class Router:
                def process(self, pkt):
                    if self.obs is not None:
                        self.obs.tracer.start("hop")
                    return pkt
        """
        self.assertEqual([], hits(source, "CF003"))

    def test_truthiness_guard_clean(self):
        source = """
            def process(obs, pkt):
                if obs:
                    obs.metrics.observe(1)
                return pkt
        """
        self.assertEqual([], hits(source, "CF003"))

    def test_early_exit_guard_clean(self):
        source = """
            def process(obs, pkt):
                if obs is None:
                    return pkt
                obs.tracer.start("hop")
                return pkt
        """
        self.assertEqual([], hits(source, "CF003"))

    def test_and_short_circuit_clean(self):
        source = """
            def process(obs, pkt):
                span = obs and obs.tracer.start("hop")
                return pkt, span
        """
        self.assertEqual([], hits(source, "CF003"))

    def test_producer_result_is_definite(self):
        source = """
            from repro.obs import enable_observability

            def boot():
                obs = enable_observability()
                obs.tracer.start("boot")
        """
        self.assertEqual([], hits(source, "CF003"))

    def test_unguarded_alerts_chain_flagged(self):
        # Guarding an alias of the context does not guard its Optional
        # .alerts field.
        source = """
            class Network:
                def housekeeping(self, now):
                    obs = self.obs
                    if obs is not None:
                        if obs.alerts.tick(now):
                            return self._page(now)
                    return None
        """
        findings = flow(source, "CF003")
        self.assertEqual(["CF003"], [f.rule_id for f in findings])
        self.assertIn("alerts", findings[0].message)

    def test_guarded_alerts_chain_clean(self):
        # The idiom the optional links are read with: guard the context,
        # alias the link, guard the alias.
        source = """
            class Network:
                def housekeeping(self, now):
                    obs = self.obs
                    if obs is not None:
                        alerts = obs.alerts
                        if alerts is not None and alerts.tick(now):
                            return self._page(now, alerts)
                    return None
        """
        self.assertEqual([], hits(source, "CF003"))

    def test_trace_context_emit_guard_clean(self):
        # The bus.call site: a guarded ternary over the context is a
        # guard, and the tracer it yields gates the span.
        source = """
            class Bus:
                def call(self, method):
                    tracer = self.obs.tracer if self.obs is not None else None
                    span = tracer.start("bus.call") if tracer is not None else None
                    return self._dispatch(method, span)
        """
        self.assertEqual([], hits(source, "CF003"))

    def test_obs_package_itself_exempt(self):
        source = "class Tracer:\n    def bind(self):\n        return self.obs.tracer\n"
        self.assertEqual([], hits({"src/repro/obs/tracer.py": source}, "CF003"))


# ---------------------------------------------------------------------------
# CF004 — shared-nothing shard workers


class TestCF004ShardSafety(unittest.TestCase):
    def test_lambda_submission_flagged(self):
        source = """
            import multiprocessing

            def run(specs):
                with multiprocessing.Pool(2) as pool:
                    return pool.map(lambda spec: spec, specs)
        """
        self.assertIn("CF004", hits(source, "CF004"))

    def test_bound_method_submission_flagged(self):
        source = """
            import multiprocessing

            class Executor:
                def run(self, specs):
                    with multiprocessing.Pool(2) as pool:
                        return pool.map(self.work, specs)

                def work(self, spec):
                    return spec
        """
        self.assertIn("CF004", hits(source, "CF004"))

    def test_nested_def_submission_flagged(self):
        source = """
            import multiprocessing

            def run(specs):
                def work(spec):
                    return spec
                with multiprocessing.Pool(2) as pool:
                    return pool.map(work, specs)
        """
        self.assertIn("CF004", hits(source, "CF004"))

    def test_worker_reading_mutable_global_flagged(self):
        source = """
            import multiprocessing

            CACHE = {}

            def work(spec):
                return CACHE.get(spec)

            def run(specs):
                with multiprocessing.Pool(2) as pool:
                    return pool.map(work, specs)
        """
        findings = flow(source, "CF004")
        self.assertEqual(["CF004"], [f.rule_id for f in findings])
        self.assertIn("CACHE", findings[0].message)

    def test_transitive_global_write_flagged(self):
        # The helper two calls deep writes a global; the trace names the
        # submitted entry point.
        source = """
            import multiprocessing

            COUNT = 0

            def bump():
                global COUNT
                COUNT += 1

            def work(spec):
                bump()
                return spec

            def run(specs):
                with multiprocessing.Pool(2) as pool:
                    return pool.map(work, specs)
        """
        findings = flow(source, "CF004")
        self.assertEqual(["CF004"], [f.rule_id for f in findings])
        self.assertTrue(
            any("work()" in step.note for step in findings[0].trace)
        )

    def test_process_target_checked(self):
        source = """
            from multiprocessing import Process

            RESULTS = {}

            def work(spec):
                RESULTS[spec] = 1

            def run(spec):
                Process(target=work, args=(spec,)).start()
        """
        self.assertIn("CF004", hits(source, "CF004"))

    def test_shared_nothing_worker_clean(self):
        source = """
            import multiprocessing

            def work(spec):
                total = 0
                for item in spec:
                    total += item
                return total

            def run(specs):
                with multiprocessing.Pool(2) as pool:
                    return pool.map(work, specs)
        """
        self.assertEqual([], hits(source, "CF004"))

    def test_immutable_global_clean(self):
        source = """
            import multiprocessing

            LANES = (0, 1, 2, 3)

            def work(spec):
                return LANES[spec % len(LANES)]

            def run(specs):
                with multiprocessing.Pool(2) as pool:
                    return pool.map(work, specs)
        """
        self.assertEqual([], hits(source, "CF004"))

    def test_mapping_proxy_global_clean(self):
        source = """
            import multiprocessing
            from types import MappingProxyType

            TABLE = MappingProxyType({"a": 1})

            def work(spec):
                return TABLE.get(spec, 0)

            def run(specs):
                with multiprocessing.Pool(2) as pool:
                    return pool.map(work, specs)
        """
        self.assertEqual([], hits(source, "CF004"))

    def test_context_pool_map_async_clean(self):
        # The production submission site (dataplane/shards.py): a pool
        # off the default context, map_async under a module deadline.
        source = """
            import multiprocessing

            DEADLINE = 120.0

            def work(spec):
                return spec + 1

            def run(specs):
                with multiprocessing.get_context().Pool(len(specs)) as pool:
                    return pool.map_async(work, specs, chunksize=1).get(
                        DEADLINE
                    )
        """
        self.assertEqual([], hits(source, "CF004"))

    def test_builtin_map_not_a_submission(self):
        source = """
            CACHE = {}

            def work(spec):
                return CACHE.get(spec)

            def run(specs):
                return list(map(work, specs))
        """
        self.assertEqual([], hits(source, "CF004"))


# ---------------------------------------------------------------------------
# Suppressions, baseline, CLI


class TestSuppressions(unittest.TestCase):
    BAD = (
        "def handle(pkt):\n"
        "    verify_hvf_chain(pkt)  # colibri-flow: disable=CF001\n"
    )

    def test_line_suppression(self):
        self.assertEqual([], hits(self.BAD, "CF001"))

    def test_other_rule_id_still_fires(self):
        source = self.BAD.replace("CF001", "CF002")
        self.assertEqual(["CF001"], hits(source, "CF001"))

    def test_lint_tag_does_not_suppress_flow(self):
        source = self.BAD.replace("colibri-flow", "colibri-lint")
        self.assertEqual(["CF001"], hits(source, "CF001"))


class TestBaseline(unittest.TestCase):
    def findings(self):
        return flow("def handle(pkt):\n    verify_hvf_chain(pkt)\n", "CF001")

    def test_roundtrip_filters_grandfathered(self):
        import tempfile

        findings = self.findings()
        self.assertEqual(1, len(findings))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "baseline.json"
            write_baseline(findings, path, tool="colibri-flow")
            baseline = load_baseline(path)
            new, grandfathered = filter_findings(findings, baseline)
        self.assertEqual([], new)
        self.assertEqual(1, len(grandfathered))

    def test_changed_line_resurrects_finding(self):
        import tempfile

        old = self.findings()
        edited = flow(
            "def handle(pkt):\n    verify_hvf_chain(pkt.header)\n", "CF001"
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "baseline.json"
            write_baseline(old, path, tool="colibri-flow")
            new, _ = filter_findings(edited, load_baseline(path))
        self.assertEqual(1, len(new))


class TestCliAndSchema(unittest.TestCase):
    BAD = "def handle(pkt):\n    verify_hvf_chain(pkt)\n"

    def _write(self, root: Path, rel: str, source: str) -> Path:
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        return path

    def test_exit_codes_and_update_baseline(self):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            bad = self._write(root, "src/repro/bad.py", self.BAD)
            clean = self._write(root, "src/repro/good.py", "X = 1\n")
            baseline = root / "baseline.json"

            self.assertEqual(0, cli_run([str(clean), "--no-baseline"]))
            self.assertEqual(1, cli_run([str(bad), "--no-baseline"]))
            self.assertEqual(
                0,
                cli_run(
                    [str(bad), "--update-baseline", "--baseline", str(baseline)]
                ),
            )
            self.assertEqual(0, cli_run([str(bad), "--baseline", str(baseline)]))

    def test_select_and_unknown_rule(self):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            bad = self._write(Path(tmp), "src/repro/bad.py", self.BAD)
            self.assertEqual(
                0, cli_run([str(bad), "--select", "CF004", "--no-baseline"])
            )
            self.assertEqual(2, cli_run([str(bad), "--select", "CF999"]))

    def test_list_rules(self):
        self.assertEqual(0, cli_run(["--list-rules"]))

    def test_syntax_error_becomes_cf000(self):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            broken = self._write(Path(tmp), "src/repro/broken.py", "def f(:\n")
            findings, _ = analyze_paths([broken])
            self.assertEqual(["CF000"], [f.rule_id for f in findings])

    def test_json_schema(self):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            self._write(
                root,
                "src/repro/a.py",
                """
                from repro.crypto.mac import constant_time_equal

                def check(tag, expect):
                    if constant_time_equal(tag, expect):
                        return True
                    return False

                def handle(tag, expect):
                    check(tag, expect)
                """,
            )
            import contextlib
            import io

            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli_run(
                    [str(root / "src"), "--format", "json", "--no-baseline"]
                )
            self.assertEqual(1, code)
            payload = json.loads(buffer.getvalue())
        self.assertEqual("colibri-flow", payload["tool"])
        self.assertEqual(payload["count"], len(payload["findings"]))
        self.assertEqual(0, payload["grandfathered"])
        finding = payload["findings"][0]
        for key in ("path", "line", "col", "rule", "message", "line_text"):
            self.assertIn(key, finding)
        self.assertEqual("CF001", finding["rule"])
        # Interprocedural findings ship their trace in the payload.
        self.assertTrue(finding["trace"])
        for step in finding["trace"]:
            self.assertIn("path", step)
            self.assertIn("line", step)
            self.assertIn("note", step)


# ---------------------------------------------------------------------------
# Parse-once contract


class TestParseOnceCache(unittest.TestCase):
    def test_cache_parses_each_path_once(self):
        import tempfile

        cache = AstCache()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mod.py"
            path.write_text("X = 1\n", encoding="utf-8")
            first = cache.get(path, "mod.py")
            second = cache.get(path, "mod.py")
        self.assertIs(first, second)
        self.assertEqual(1, cache.parse_count)

    def test_flow_reuses_lint_parses(self):
        # The combined runner's contract: after colibri-lint has seen a
        # file, colibri-flow analyzes it without re-parsing.
        import tempfile

        from tools.analysis_core.cache import GLOBAL_CACHE
        from tools.colibri_lint import lint_paths

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "src" / "repro" / "mod.py"
            path.parent.mkdir(parents=True)
            path.write_text("X = 1\n", encoding="utf-8")
            lint_paths([path])
            before = GLOBAL_CACHE.parse_count
            analyze_paths([path])
            self.assertEqual(before, GLOBAL_CACHE.parse_count)


# ---------------------------------------------------------------------------
# The real tree


class TestRealTreeClean(unittest.TestCase):
    """The analyzer's reason to exist: the shipped tree stays clean."""

    def test_src_repro_clean_modulo_baseline(self):
        findings, _ = analyze_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
        baseline = load_baseline(REPO_ROOT / ".colibri-flow-baseline.json")
        new, _ = filter_findings(findings, baseline)
        self.assertEqual(
            [],
            new,
            "colibri-flow regressions:\n"
            + "\n".join(
                f"{f.path}:{f.line}: {f.rule_id} {f.message}" for f in new
            ),
        )

    def test_baseline_is_empty(self):
        baseline = load_baseline(REPO_ROOT / ".colibri-flow-baseline.json")
        self.assertEqual(0, sum(baseline.values()), "baseline must stay empty")


if __name__ == "__main__":
    unittest.main()

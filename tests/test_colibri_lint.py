"""Tests for tools.colibri_lint: every rule's trigger and non-trigger, the
real defects the rules caught in this repository's history (copied
verbatim from the trees they were found in), suppressions, the baseline
workflow, the CLI, and a guard that the real tree stays clean."""

from __future__ import annotations

import ast
import json
import textwrap
import unittest
from collections import Counter
from pathlib import Path

from tools.colibri_lint import check_source, lint_paths
from tools.colibri_lint.baseline import filter_findings, load_baseline, write_baseline
from tools.colibri_lint.cli import render_json, render_text
from tools.colibri_lint.cli import run as cli_run
from tools.colibri_lint.engine import SYNTAX_ERROR_ID
from tools.colibri_lint.rules.verification import VERDICT_RETURNING

REPO_ROOT = Path(__file__).resolve().parents[1]
PROD_PATH = "src/repro/example.py"


def findings_of(source: str, rel_path: str = PROD_PATH) -> list:
    return check_source(textwrap.dedent(source), rel_path)


def rules_hit(source: str, rel_path: str = PROD_PATH) -> list:
    return [f.rule_id for f in findings_of(source, rel_path)]


class TestCL003Asserts(unittest.TestCase):
    def test_production_assert_flagged(self):
        self.assertIn("CL003", rules_hit("def f(tag):\n    assert len(tag) == 16\n"))

    def test_test_code_exempt(self):
        source = "def test_f():\n    assert 1 == 1\n"
        self.assertEqual([], rules_hit(source, "tests/test_example.py"))

    def test_raise_clean(self):
        source = (
            "def f(tag):\n"
            "    if len(tag) != 16:\n"
            "        raise ValueError('bad tag')\n"
        )
        self.assertEqual([], rules_hit(source))


class TestCL004BroadExcept(unittest.TestCase):
    def test_silent_broad_except_flagged(self):
        source = "try:\n    f()\nexcept Exception:\n    pass\n"
        self.assertIn("CL004", rules_hit(source))

    def test_bare_except_flagged(self):
        self.assertIn("CL004", rules_hit("try:\n    f()\nexcept:\n    pass\n"))

    def test_tuple_with_exception_flagged(self):
        source = "try:\n    f()\nexcept (ValueError, Exception):\n    pass\n"
        self.assertIn("CL004", rules_hit(source))

    def test_reraise_clean(self):
        source = "try:\n    f()\nexcept Exception:\n    cleanup()\n    raise\n"
        self.assertEqual([], rules_hit(source))

    def test_logging_clean(self):
        source = "try:\n    f()\nexcept Exception as e:\n    logger.warning(e)\n"
        self.assertEqual([], rules_hit(source))

    def test_specific_type_clean(self):
        source = "try:\n    f()\nexcept ValueError:\n    pass\n"
        self.assertEqual([], rules_hit(source))


class TestCL007Verification(unittest.TestCase):
    def test_discarded_predicate_flagged(self):
        self.assertIn("CL007", rules_hit("constant_time_equal(a, b)\n"))

    def test_discarded_compare_digest_flagged(self):
        self.assertIn("CL007", rules_hit("hmac.compare_digest(a, b)\n"))

    def test_unknown_verify_statement_flagged(self):
        self.assertIn("CL007", rules_hit("verify_token(token)\n"))

    def test_raising_verifier_statement_clean(self):
        self.assertEqual([], rules_hit("verify_mac(key, data, tag)\n"))

    def test_used_predicate_clean(self):
        source = "if not constant_time_equal(a, b):\n    raise ValueError('bad')\n"
        self.assertEqual([], rules_hit(source))

    def test_bound_result_clean(self):
        self.assertEqual([], rules_hit("ok = verify_token(token)\n"))

    def test_discarded_verdicts_flagged(self):
        for call in ("router.process_batch(burst)", "self._authenticate(p, now, m)"):
            with self.subTest(call=call):
                self.assertEqual(["CL007"], rules_hit(f"def f():\n    {call}\n"))

    def test_consumed_verdicts_clean(self):
        source = """
            def forward(router, burst):
                verdicts = router.validate_batch(burst)
                if not all(verdicts):
                    raise ValueError("forged packet in an honest burst")
                return router.process(burst[0])
        """
        self.assertEqual([], rules_hit(source))

    def test_verdict_vocabulary_only_under_src_repro(self):
        self.assertEqual([], rules_hit("router.process(packet)\n", "tests/test_x.py"))
        self.assertEqual([], rules_hit("pool.process(job)\n", "tools/runner.py"))

    def test_raising_validator_statement_clean(self):
        self.assertEqual([], rules_hit("self._validate_link(link)\n"))

    def test_verdict_vocabulary_names_live_functions(self):
        # A renamed entry point would otherwise leave the rule checking a
        # name nothing calls any more.
        defined = {
            node.name
            for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.assertEqual(set(), VERDICT_RETURNING - defined)


class TestCL010ModuleState(unittest.TestCase):
    DP = "src/repro/dataplane/tables.py"

    def test_module_dict_flagged(self):
        self.assertIn("CL010", rules_hit("CACHE = {}\n", self.DP))

    def test_module_list_flagged(self):
        self.assertIn("CL010", rules_hit("PENDING = []\n", self.DP))

    def test_crypto_package_covered(self):
        self.assertIn(
            "CL010", rules_hit("KEYS = dict()\n", "src/repro/crypto/keys.py")
        )

    def test_annotated_assignment_flagged(self):
        self.assertIn(
            "CL010", rules_hit("TABLE: dict = {'a': 1}\n", self.DP)
        )

    def test_mapping_proxy_clean(self):
        source = (
            "from types import MappingProxyType\n"
            "TABLE = MappingProxyType({'a': 1})\n"
        )
        self.assertEqual([], rules_hit(source, self.DP))

    def test_immutable_bindings_clean(self):
        source = "LANES = (0, 1, 2)\nNAMES = frozenset({'a'})\nLIMIT = 7\n"
        self.assertEqual([], rules_hit(source, self.DP))

    def test_dunder_all_exempt(self):
        self.assertEqual([], rules_hit("__all__ = ['a', 'b']\n", self.DP))

    def test_other_packages_exempt(self):
        self.assertEqual(
            [], rules_hit("CACHE = {}\n", "src/repro/sim/registry.py")
        )

    def test_function_local_clean(self):
        source = "def f():\n    cache = {}\n    return cache\n"
        self.assertEqual([], rules_hit(source, self.DP))


class TestCL012ObsGuard(unittest.TestCase):
    def test_unguarded_self_obs_flagged(self):
        source = """
            class Router:
                def process(self, pkt):
                    self.obs.tracer.start("hop")
                    return pkt
        """
        self.assertIn("CL012", rules_hit(source))

    def test_unguarded_alias_flagged(self):
        source = """
            class Router:
                def process(self, pkt):
                    obs = self.obs
                    obs.metrics.observe(1)
                    return pkt
        """
        self.assertIn("CL012", rules_hit(source))

    def test_optional_journal_link_flagged(self):
        # Guarding the context does not guard its Optional .journal field.
        source = """
            class Router:
                def process(self, pkt):
                    if self.obs is not None:
                        self.obs.journal.record("hop")
                    return pkt
        """
        findings = findings_of(source)
        self.assertEqual(["CL012"], [f.rule_id for f in findings])
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
        self.assertIn("CL012", rules_hit(source))

    def test_is_not_none_guard_clean(self):
        source = """
            class Router:
                def process(self, pkt):
                    if self.obs is not None:
                        self.obs.tracer.start("hop")
                    return pkt
        """
        self.assertEqual([], rules_hit(source))

    def test_truthiness_guard_clean(self):
        source = """
            def process(obs, pkt):
                if obs:
                    obs.metrics.observe(1)
                return pkt
        """
        self.assertEqual([], rules_hit(source))

    def test_early_exit_guard_clean(self):
        source = """
            def process(obs, pkt):
                if obs is None:
                    return pkt
                obs.tracer.start("hop")
                return pkt
        """
        self.assertEqual([], rules_hit(source))

    def test_and_short_circuit_clean(self):
        source = """
            def process(obs, pkt):
                span = obs and obs.tracer.start("hop")
                return pkt, span
        """
        self.assertEqual([], rules_hit(source))

    def test_producer_result_is_definite(self):
        source = """
            from repro.obs import enable_observability

            def boot():
                obs = enable_observability()
                obs.tracer.start("boot")
        """
        self.assertEqual([], rules_hit(source))

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
        findings = findings_of(source)
        self.assertEqual(["CL012"], [f.rule_id for f in findings])
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
        self.assertEqual([], rules_hit(source))

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
        self.assertEqual([], rules_hit(source))

    def test_obs_package_itself_exempt(self):
        source = "class Tracer:\n    def bind(self):\n        return self.obs.tracer\n"
        self.assertEqual([], rules_hit(source, "src/repro/obs/tracer.py"))


# ---------------------------------------------------------------------------
# What the rules have caught.  Each fixture is the offending code as it was
# committed (enclosing ``def`` / ``class`` lines kept, unrelated lines in
# between elided); deleting a rule, or weakening it below its catch, fails
# the test.  docs/static_analysis.md has the sweep these come from.

SEED_MAC = '''
def mac(key: bytes, data: bytes) -> bytes:
    """Full-width (16-byte) MAC over ``data`` under ``key``."""
    tag = prf(key, data)
    assert len(tag) == MAC_LENGTH
    return tag
'''

SEED_DISTRIBUTED = """
class DistributedCServ:
    def handle_eer_renewal(self, request, auth, hop_index):
        try:
            reservation = self.parent.store.get_eer(request.reservation)
            segment_ids = reservation.segment_ids
        except Exception:
            segment_ids = ()
        worker = self._worker_for(segment_ids)
        return worker.handle("handle_eer_renewal", request, auth, hop_index)
"""

SEED_GENERATOR = """
def build_power_law(
    as_count: int = 300,
    isd_count: int = 5,
    cores_per_isd: int = 3,
    capacity: float = DEFAULT_CAPACITY,
    seed: int = 13,
) -> Topology:
    for index in range(isd_count):
        if isd_count > 1:
            a = all_cores[index][0]
            b = all_cores[(index + 1) % isd_count][0]
            try:
                topology.link_between(a, b)
            except Exception:
                topology.add_link(a, b, LinkType.CORE, capacity)
    return topology


def build_internet_like(
    isd_count: int = 3,
    cores_per_isd: int = 2,
    children_per_node: int = 2,
    depth: int = 2,
    capacity: float = DEFAULT_CAPACITY,
    seed: int = 7,
) -> Topology:
    flattened = [core for cores in all_cores for core in cores]
    extra_chords = max(0, isd_count - 2)
    for _ in range(extra_chords):
        a, b = rng.sample(flattened, 2)
        try:
            topology.link_between(a, b)
        except Exception:
            topology.add_link(a, b, LinkType.CORE, capacity)
    return topology
"""

SEED_DSCP = """
CLASS_TO_DSCP = {
    TrafficClass.EER_DATA: DSCP_EF,
    TrafficClass.CONTROL: DSCP_AF41,
    TrafficClass.BEST_EFFORT: DSCP_DEFAULT,
}
DSCP_TO_CLASS = {dscp: cls for cls, dscp in CLASS_TO_DSCP.items()}
"""

SEED_HVF_TESTS = """
class TestHvfCrypto:
    def test_eer_hvf_two_step(self):
        keys = make_keys()
        eer = EerInfo(HostAddr(1), HostAddr(2))
        sigma = hop_authenticator(keys.hop_key(), res_info(), eer, 2, 5)
        ts = Timestamp(12345, 0)
        hvf = eer_hvf(sigma, ts, 1000)
        verify_eer_hvf(sigma, ts, 1000, hvf)

    def test_eer_hvf_binds_packet_size(self):
        # Authenticated size prevents padding/framing games (§4.8).
        keys = make_keys()
        sigma = hop_authenticator(
            keys.hop_key(), res_info(), EerInfo(HostAddr(1), HostAddr(2)), 2, 5
        )
        ts = Timestamp(12345, 0)
        hvf = eer_hvf(sigma, ts, 1000)
        with pytest.raises(HvfMismatch):
            verify_eer_hvf(sigma, ts, 1001, hvf)

    def test_eer_hvf_binds_timestamp(self):
        keys = make_keys()
        sigma = hop_authenticator(
            keys.hop_key(), res_info(), EerInfo(HostAddr(1), HostAddr(2)), 2, 5
        )
        hvf = eer_hvf(sigma, Timestamp(12345, 0), 1000)
        with pytest.raises(HvfMismatch):
            verify_eer_hvf(sigma, Timestamp(12345, 1), 1000, hvf)
"""

SHARD_LOOP = """
def _router_workload(spec: ShardSpec):
    def loop() -> int:
        done = 0
        validate_batch = router.validate_batch
        for burst in batches:
            validate_batch(burst)
            done += len(burst)
        return done

    return loop
"""

SCENARIO_FORWARD = '''
class ColibriNetwork:
    def forward(self, packet: ColibriPacket) -> DeliveryReport:
        """Walk an already-stamped packet along its path."""
        obs = self.obs
        verdicts = []
        while True:
            isd_as = packet.path and self._as_at(packet)
            router = self.router(isd_as)
            span = (
                obs.tracer.start("router.hop", {"isd_as": str(isd_as)})
                if obs is not None
                else None
            )
            result: RouterResult = router.process(packet)
            if span is not None:
                obs.tracer.finish(span, verdict=result.verdict.value)
            verdicts.append((isd_as, result.verdict))
            if self.tracer is not None:
                self.tracer.record(
                    self.clock.now(), isd_as, result.verdict, packet
                )
            if result.verdict is Verdict.FORWARD:
                continue
            delivered = result.verdict in (
                Verdict.DELIVER_HOST,
                Verdict.DELIVER_CSERV,
            )
            return DeliveryReport(
                delivered=delivered, verdicts=verdicts, packet=packet
            )
'''


class TestHistory(unittest.TestCase):
    def caught(self, source: str, rel_path: str) -> list:
        return [(f.rule_id, f.line_text) for f in check_source(source, rel_path)]

    def test_seed_assert_on_mac_length(self):
        # 9cca3e2, src/repro/crypto/mac.py:29
        self.assertEqual(
            [("CL003", "assert len(tag) == MAC_LENGTH")],
            self.caught(SEED_MAC, "src/repro/crypto/mac.py"),
        )

    def test_seed_silent_broad_excepts(self):
        # 9cca3e2, control/distributed.py:144, topology/generator.py:171, :234
        self.assertEqual(
            [("CL004", "except Exception:")],
            self.caught(SEED_DISTRIBUTED, "src/repro/control/distributed.py"),
        )
        self.assertEqual(
            [("CL004", "except Exception:")] * 2,
            self.caught(SEED_GENERATOR, "src/repro/topology/generator.py"),
        )

    def test_seed_module_level_dscp_tables(self):
        # 9cca3e2, src/repro/dataplane/dscp.py:35, :40 (present until e340393)
        self.assertEqual(
            ["CL010", "CL010"],
            [rule for rule, _ in self.caught(SEED_DSCP, "src/repro/dataplane/dscp.py")],
        )

    def test_discarded_hvf_checks_in_tests(self):
        # 9cca3e2 .. 73fced9, tests/test_dataplane.py:89, :100, :109
        self.assertEqual(
            ["CL007"] * 3,
            [rule for rule, _ in self.caught(SEED_HVF_TESTS, "tests/test_dataplane.py")],
        )

    def test_shard_loop_discards_validate_batch_verdicts(self):
        # ee8179e, src/repro/dataplane/shards.py:221 (through 2fb2d44)
        self.assertEqual(
            [("CL007", "validate_batch(burst)")],
            self.caught(SHARD_LOOP, "src/repro/dataplane/shards.py"),
        )

    def test_span_teardown_guarded_on_the_span(self):
        # ace6105 .. 2fb2d44, src/repro/sim/scenario.py:390 at e365999
        self.assertEqual(
            [("CL012", "obs.tracer.finish(span, verdict=result.verdict.value)")],
            self.caught(SCENARIO_FORWARD, "src/repro/sim/scenario.py"),
        )


class TestSuppressions(unittest.TestCase):
    def test_line_suppression(self):
        source = "def f(tag):\n    assert tag  # colibri-lint: disable=CL003\n"
        self.assertEqual([], rules_hit(source))

    def test_line_suppression_other_rule_still_fires(self):
        source = "def f(tag):\n    assert tag  # colibri-lint: disable=CL004\n"
        self.assertEqual(["CL003"], rules_hit(source))

    def test_file_suppression(self):
        source = (
            "# colibri-lint: disable-file=CL003\n"
            "def f(tag):\n    assert tag\ndef g(tag):\n    assert tag\n"
        )
        self.assertEqual([], rules_hit(source))

    def test_suppress_all(self):
        source = "def f(tag):\n    assert tag  # colibri-lint: disable=all\n"
        self.assertEqual([], rules_hit(source))


class TestBaseline(unittest.TestCase):
    def test_roundtrip_filters_grandfathered(self):
        findings = check_source("def f(tag):\n    assert tag\n", PROD_PATH)
        self.assertEqual(1, len(findings))
        baseline = Counter(
            {(f.path, f.rule_id, f.line_text.strip()): 1 for f in findings}
        )
        new, grandfathered = filter_findings(findings, baseline)
        self.assertEqual([], new)
        self.assertEqual(findings, grandfathered)

    def test_changed_line_resurrects_finding(self):
        old = check_source("def f(tag):\n    assert tag\n", PROD_PATH)
        baseline = Counter({(f.path, f.rule_id, f.line_text.strip()): 1 for f in old})
        edited = check_source("def f(tag):\n    assert tag is not None\n", PROD_PATH)
        new, grandfathered = filter_findings(edited, baseline)
        self.assertEqual(1, len(new))
        self.assertEqual([], grandfathered)

    def test_write_and_load(self):
        import tempfile

        findings = check_source("def f(tag):\n    assert tag\n", PROD_PATH)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "baseline.json"
            write_baseline(findings, path)
            loaded = load_baseline(path)
        self.assertEqual(1, sum(loaded.values()))


class TestReportersAndErrors(unittest.TestCase):
    def test_syntax_error_becomes_finding(self):
        findings = check_source("def f(:\n", PROD_PATH)
        self.assertEqual([SYNTAX_ERROR_ID], [f.rule_id for f in findings])

    def test_text_reporter_mentions_rule(self):
        findings = check_source("def f(tag):\n    assert tag\n", PROD_PATH)
        text = render_text(findings)
        self.assertIn("CL003", text)
        self.assertIn(PROD_PATH, text)

    def test_text_reporter_clean(self):
        self.assertIn("clean", render_text([]))

    def test_json_reporter_parses(self):
        findings = check_source("def f(tag):\n    assert tag\n", PROD_PATH)
        payload = json.loads(render_json(findings))
        self.assertEqual(1, payload["count"])
        self.assertEqual("CL003", payload["findings"][0]["rule"])


class TestCli(unittest.TestCase):
    def _write(self, root: Path, rel: str, source: str) -> Path:
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        return path

    def test_exit_codes_and_update_baseline(self):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            bad = self._write(
                root, "src/repro/bad.py", "def f(tag):\n    assert tag\n"
            )
            clean = self._write(root, "src/repro/good.py", "X = 1\n")
            baseline = root / "baseline.json"

            self.assertEqual(0, cli_run([str(clean), "--no-baseline"]))
            self.assertEqual(1, cli_run([str(bad), "--no-baseline"]))
            self.assertEqual(
                0, cli_run([str(bad), "--update-baseline", "--baseline", str(baseline)])
            )
            # Grandfathered via the baseline: clean again.
            self.assertEqual(0, cli_run([str(bad), "--baseline", str(baseline)]))

    def test_select_and_unknown_rule(self):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            bad = self._write(
                Path(tmp), "src/repro/bad.py", "def f(tag):\n    assert tag\n"
            )
            self.assertEqual(
                0, cli_run([str(bad), "--select", "CL010", "--no-baseline"])
            )
            self.assertEqual(2, cli_run([str(bad), "--select", "CL999"]))

    def test_list_rules(self):
        self.assertEqual(0, cli_run(["--list-rules"]))


class TestRealTreeClean(unittest.TestCase):
    """The linter's reason to exist: the shipped tree stays clean."""

    def test_src_tests_tools_clean_modulo_baseline(self):
        findings = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "tools"],
            root=REPO_ROOT,
        )
        baseline = load_baseline(REPO_ROOT / ".colibri-lint-baseline.json")
        new, _ = filter_findings(findings, baseline)
        self.assertEqual(
            [],
            new,
            "colibri-lint regressions:\n"
            + "\n".join(f"{f.path}:{f.line}: {f.rule_id} {f.message}" for f in new),
        )

    def test_baseline_is_empty(self):
        baseline = load_baseline(REPO_ROOT / ".colibri-lint-baseline.json")
        self.assertEqual(0, sum(baseline.values()), "baseline must stay empty")


if __name__ == "__main__":
    unittest.main()

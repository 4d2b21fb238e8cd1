"""Tests for tools.colibri_lint: every rule's trigger and non-trigger,
suppressions, the baseline workflow, the CLI, and a guard that the real
tree stays clean."""

from __future__ import annotations

import json
import textwrap
import unittest
from collections import Counter
from pathlib import Path

from tools.analysis_core.reporters import render_json, render_text
from tools.colibri_lint import check_source, lint_paths
from tools.colibri_lint.baseline import filter_findings, load_baseline, write_baseline
from tools.colibri_lint.cli import run as cli_run
from tools.colibri_lint.engine import SYNTAX_ERROR_ID

REPO_ROOT = Path(__file__).resolve().parents[1]
PROD_PATH = "src/repro/example.py"


def rules_hit(source: str, rel_path: str = PROD_PATH) -> list:
    return [f.rule_id for f in check_source(textwrap.dedent(source), rel_path)]


class TestCL001Clocks(unittest.TestCase):
    def test_direct_time_call_flagged(self):
        self.assertIn("CL001", rules_hit("import time\nnow = time.time()\n"))

    def test_monotonic_flagged(self):
        self.assertIn("CL001", rules_hit("import time\nt = time.monotonic()\n"))

    def test_from_import_flagged(self):
        self.assertIn("CL001", rules_hit("from time import perf_counter\n"))

    def test_clock_module_exempt(self):
        source = "import time\nnow = time.time()\n"
        self.assertEqual([], rules_hit(source, "src/repro/util/clock.py"))

    def test_injected_clock_clean(self):
        self.assertEqual([], rules_hit("def f(clock):\n    return clock.now()\n"))

    def test_time_sleep_not_a_clock_read(self):
        self.assertEqual([], rules_hit("import time\ntime.sleep(1)\n"))


class TestCL002Randomness(unittest.TestCase):
    def test_module_level_call_flagged(self):
        self.assertIn("CL002", rules_hit("import random\nx = random.choice([1, 2])\n"))

    def test_global_seed_flagged(self):
        self.assertIn("CL002", rules_hit("import random\nrandom.seed(4)\n"))

    def test_unseeded_instance_flagged(self):
        self.assertIn("CL002", rules_hit("import random\nrng = random.Random()\n"))

    def test_from_import_flagged(self):
        self.assertIn("CL002", rules_hit("from random import randint\n"))

    def test_seeded_instance_clean(self):
        source = "import random\nrng = random.Random(13)\nx = rng.choice([1, 2])\n"
        self.assertEqual([], rules_hit(source))

    def test_system_random_clean(self):
        self.assertEqual(
            [], rules_hit("import random\nrng = random.SystemRandom()\n")
        )


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


class TestCL005Units(unittest.TestCase):
    def test_small_bandwidth_keyword_flagged(self):
        self.assertIn("CL005", rules_hit("reserve(bandwidth=0.4)\n"))

    def test_small_capacity_default_flagged(self):
        self.assertIn("CL005", rules_hit("def mk(capacity=40.0):\n    return capacity\n"))

    def test_unit_helper_clean(self):
        self.assertEqual([], rules_hit("reserve(bandwidth=gbps(0.4))\n"))

    def test_zero_clean(self):
        self.assertEqual([], rules_hit("reserve(bandwidth=0.0)\n"))

    def test_raw_bps_literal_clean(self):
        # >= 1 Kbps is a plausible raw bits/s value.
        self.assertEqual([], rules_hit("reserve(bandwidth=400_000_000.0)\n"))

    def test_tests_exempt(self):
        source = "bucket = TokenBucket(rate=8.0)\n"
        self.assertEqual([], rules_hit(source, "tests/test_example.py"))


class TestCL006MutableDefaults(unittest.TestCase):
    def test_list_default_flagged(self):
        self.assertIn("CL006", rules_hit("def f(hops=[]):\n    return hops\n"))

    def test_dict_constructor_default_flagged(self):
        self.assertIn("CL006", rules_hit("def f(stats=dict()):\n    return stats\n"))

    def test_kwonly_default_flagged(self):
        self.assertIn("CL006", rules_hit("def f(*, hops=[]):\n    return hops\n"))

    def test_none_default_clean(self):
        source = "def f(hops=None):\n    return hops or []\n"
        self.assertEqual([], rules_hit(source))

    def test_tuple_default_clean(self):
        self.assertEqual([], rules_hit("def f(hops=()):\n    return hops\n"))


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


class TestCL008Citations(unittest.TestCase):
    PATH = "src/repro/constants.py"

    def test_uncited_constant_flagged(self):
        self.assertIn("CL008", rules_hit("MAX_THING = 4\n", self.PATH))

    def test_trailing_citation_clean(self):
        self.assertEqual(
            [], rules_hit("MAX_THING = 4  # paper §4.5\n", self.PATH)
        )

    def test_block_comment_covers_group(self):
        source = """\
            # Traffic split (§3.4): fixed shares per class.
            BEST_EFFORT_SHARE = 0.20
            CONTROL_SHARE = 0.05
        """
        self.assertEqual([], rules_hit(source, self.PATH))

    def test_blank_line_breaks_coverage(self):
        source = """\
            # Traffic split (§3.4).
            BEST_EFFORT_SHARE = 0.20

            ORPHAN = 1
        """
        self.assertEqual(["CL008"], rules_hit(source, self.PATH))

    def test_only_applies_to_constants_module(self):
        self.assertEqual([], rules_hit("MAX_THING = 4\n", PROD_PATH))


class TestCL009LibraryPrint(unittest.TestCase):
    def test_print_flagged(self):
        self.assertIn("CL009", rules_hit("print('admitted')\n"))

    def test_logging_import_flagged(self):
        self.assertIn("CL009", rules_hit("import logging\n"))

    def test_logging_from_import_flagged(self):
        self.assertIn("CL009", rules_hit("from logging import getLogger\n"))

    def test_cli_module_exempt(self):
        self.assertEqual([], rules_hit("print('usage')\n", "src/repro/cli.py"))

    def test_tests_exempt(self):
        self.assertEqual([], rules_hit("print('debug')\n", "tests/test_x.py"))

    def test_method_named_print_clean(self):
        self.assertEqual([], rules_hit("reporter.print('x')\n"))


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


class TestCL011ArenaCopies(unittest.TestCase):
    DP = "src/repro/dataplane/fastpath.py"

    def test_tobytes_on_view_local_flagged(self):
        source = """
        @profiled("x.hot")
        def hot(view):
            window = view.view()
            return window.tobytes()
        """
        self.assertIn("CL011", rules_hit(source, self.DP))

    def test_bytes_of_memoryview_flagged(self):
        source = """
        @profiled("x.hot")
        def hot(buf):
            return bytes(memoryview(buf))
        """
        self.assertIn("CL011", rules_hit(source, self.DP))

    def test_bytes_of_buffer_attribute_flagged(self):
        source = """
        @profiled("x.hot")
        def hot(arena):
            return bytes(arena.buffer)
        """
        self.assertIn("CL011", rules_hit(source, self.DP))

    def test_sliced_view_still_flagged(self):
        source = """
        @profiled("x.hot")
        def hot(view):
            window = view.view()
            return bytes(window[4:8])
        """
        self.assertIn("CL011", rules_hit(source, self.DP))

    def test_undecorated_cold_path_clean(self):
        source = """
        def materialize(view):
            return view.view().tobytes()
        """
        self.assertEqual([], rules_hit(source, self.DP))

    def test_hot_path_without_copies_clean(self):
        source = """
        @profiled("x.hot")
        def hot(view):
            window = view.view()
            return window[0]
        """
        self.assertEqual([], rules_hit(source, self.DP))

    def test_bytes_of_plain_value_clean(self):
        source = """
        @profiled("x.hot")
        def hot(n):
            return bytes(n)
        """
        self.assertEqual([], rules_hit(source, self.DP))

    def test_other_packages_exempt(self):
        source = """
        @profiled("x.hot")
        def hot(view):
            return bytes(view.view())
        """
        self.assertEqual([], rules_hit(source, "src/repro/packets/codec.py"))


class TestSuppressions(unittest.TestCase):
    def test_line_suppression(self):
        source = "def f(tag):\n    assert tag  # colibri-lint: disable=CL003\n"
        self.assertEqual([], rules_hit(source))

    def test_line_suppression_other_rule_still_fires(self):
        source = "def f(tag):\n    assert tag  # colibri-lint: disable=CL001\n"
        self.assertEqual(["CL003"], rules_hit(source))

    def test_file_suppression(self):
        source = (
            "# colibri-lint: disable-file=CL003\n"
            "def f(tag):\n    assert tag\ndef g(tag):\n    assert tag\n"
        )
        self.assertEqual([], rules_hit(source))

    def test_suppress_all(self):
        source = "def f(hops=[]):  # colibri-lint: disable=all\n    return hops\n"
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
                0, cli_run([str(bad), "--select", "CL001", "--no-baseline"])
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

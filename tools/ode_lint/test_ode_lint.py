#!/usr/bin/env python3
"""Self-tests for ode_lint: each rule must fire on the drift it
guards against. The suite copies the real tree into a scratch root,
re-introduces a historical bug shape (e.g. the raw std::mutex that
MemWalStore actually had before it moved onto the ranked wrappers —
snapshotted in fixtures/wal_raw_mutex_pre_fix.h), and asserts the rule
flags it. Run directly or via ctest (ode_lint_selftest).
"""

import json
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ode_lint  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def rules_of(findings):
    return {f.rule for f in findings}


class OdeLintTree(unittest.TestCase):
    """Each test gets a disposable copy of the real tree to mutate."""

    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="ode_lint_test_")
        self.addCleanup(shutil.rmtree, self.tmp, ignore_errors=True)
        shutil.copytree(os.path.join(REPO, "src"),
                        os.path.join(self.tmp, "src"))
        shutil.copytree(os.path.join(REPO, "docs"),
                        os.path.join(self.tmp, "docs"))
        os.makedirs(os.path.join(self.tmp, "tools", "ode_lint"))
        shutil.copy(
            os.path.join(REPO, "tools", "ode_lint",
                         "no_tsa_inventory.json"),
            os.path.join(self.tmp, "tools", "ode_lint",
                         "no_tsa_inventory.json"))

    def path(self, *parts):
        return os.path.join(self.tmp, *parts)

    def read(self, *parts):
        with open(self.path(*parts), encoding="utf-8") as f:
            return f.read()

    def write(self, content, *parts):
        with open(self.path(*parts), "w", encoding="utf-8") as f:
            f.write(content)

    # --- the tree as committed is clean --------------------------------

    def test_current_tree_has_only_baselined_findings(self):
        findings = ode_lint.run_all(self.tmp)
        baseline = json.load(open(os.path.join(
            REPO, "tools", "ode_lint", "baseline.json"),
            encoding="utf-8"))
        suppressed = set(baseline["suppressed"])
        live = [f for f in findings if f.key() not in suppressed]
        self.assertEqual(
            [], [f"{f.file}:{f.line}: [{f.rule}] {f.message}"
                 for f in live])

    # --- raw-threading-primitive ---------------------------------------

    def test_pre_fix_wal_raw_mutex_is_flagged(self):
        # The exact MemWalStore that shipped before this change: a raw
        # `mutable std::mutex mu_` in src/odb. The rule must flag it.
        fixture = open(os.path.join(
            REPO, "tools", "ode_lint", "fixtures",
            "wal_raw_mutex_pre_fix.h"), encoding="utf-8").read()
        self.write(fixture, "src", "odb", "wal_pre_fix_specimen.h")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "raw-threading-primitive"]
        self.assertTrue(
            any("wal_pre_fix_specimen.h" in f.file and
                "std::mutex" in f.message for f in findings),
            f"raw mutex not flagged; findings: {findings}")

    def test_lock_guard_is_flagged_too(self):
        self.write(
            "#include <mutex>\n"
            "void f() { std::lock_guard<std::mutex> l(m); }\n",
            "src", "odb", "guard_specimen.cc")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "raw-threading-primitive"]
        self.assertTrue(any("guard_specimen" in f.file for f in findings))

    def test_threading_wrapper_files_are_exempt(self):
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "raw-threading-primitive"]
        self.assertFalse(any("threading" in f.file for f in findings))

    def test_commented_mention_is_not_flagged(self):
        self.write("// std::mutex is banned here; see LOCKING.md\n",
                   "src", "odb", "comment_specimen.h")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "raw-threading-primitive" and
                    "comment_specimen" in f.file]
        self.assertEqual([], findings)

    # --- engine-thread -------------------------------------------------

    def test_thread_vector_in_engine_is_flagged(self):
        # A thread-per-partition fork: engine work this rule sends to
        # a BackgroundWorker instead.
        self.write(
            "#include <thread>\n"
            "#include <vector>\n"
            "void Scan() {\n"
            "  std::vector<std::thread> threads;\n"
            "  for (std::thread& t : threads) t.join();\n"
            "}\n",
            "src", "odb", "thread_specimen.cc")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "engine-thread"]
        self.assertEqual(
            [("src/odb/thread_specimen.cc", 4),
             ("src/odb/thread_specimen.cc", 5)],
            [(f.file, f.line) for f in findings])

    def test_commented_thread_mention_is_not_flagged(self):
        self.write("// No std::thread here: read-ahead runs on a\n"
                   "/* BackgroundWorker, never a std::thread. */\n"
                   "void Yield() { std::this_thread::yield(); }\n",
                   "src", "odb", "thread_comment_specimen.h")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "engine-thread"]
        self.assertEqual([], findings)

    def test_current_tree_has_no_engine_threads(self):
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "engine-thread"]
        self.assertEqual([], findings)

    # --- rank-doc-sync -------------------------------------------------

    def test_seeded_doc_rank_rename_is_flagged(self):
        doc = self.read("docs", "LOCKING.md")
        self.write(doc.replace("`wal.store_lock`", "`wal.shop_lock`"),
                   "docs", "LOCKING.md")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "rank-doc-sync"]
        self.assertTrue(
            any("wal.shop_lock" in f.message for f in findings),
            f"doc rename not flagged: {findings}")

    def test_seeded_doc_missing_row_is_flagged(self):
        doc = self.read("docs", "LOCKING.md")
        kept = [l for l in doc.splitlines()
                if not l.startswith("| 78 ")]
        self.write("\n".join(kept), "docs", "LOCKING.md")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "rank-doc-sync"]
        self.assertTrue(any("rank 78" in f.message for f in findings))

    def test_enum_without_table_entry_is_flagged(self):
        cc = self.read("src", "common", "lock_rank.cc")
        # Drop the kWalStore metadata row but keep the enum value.
        kept = [l for l in cc.splitlines()
                if "kWalStore" not in l]
        self.write("\n".join(kept), "src", "common", "lock_rank.cc")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "rank-doc-sync"]
        self.assertTrue(
            any("kWalStore" in f.message and "LockRankTable" in f.message
                for f in findings))

    # --- mutex-rank-known ----------------------------------------------

    def test_unknown_rank_in_mutex_construction_is_flagged(self):
        self.write(
            '#include "common/threading.h"\n'
            "class X {\n"
            "  Mutex mu_{LockRank::kImaginary};\n"
            "};\n",
            "src", "odb", "rank_specimen.h")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "mutex-rank-known"]
        self.assertTrue(any("kImaginary" in f.message for f in findings))

    # --- acquire-order -------------------------------------------------

    def test_inverted_lexical_nesting_is_flagged(self):
        # pager (80) acquired, then wal buffer (75) inside it: inverted.
        self.write(
            "class A {\n"
            "  Mutex pager_mu_{LockRank::kPager};\n"
            "  Mutex wal_mu_{LockRank::kWal};\n"
            "  void f() {\n"
            "    MutexLock outer(pager_mu_);\n"
            "    MutexLock inner(wal_mu_);\n"
            "  }\n"
            "};\n",
            "src", "odb", "order_specimen.h")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "acquire-order" and
                    "order_specimen" in f.file]
        self.assertEqual(1, len(findings), findings)
        self.assertIn("wal_mu_", findings[0].message)

    def test_correct_nesting_is_clean(self):
        self.write(
            "class A {\n"
            "  Mutex wal_mu2_{LockRank::kWal};\n"
            "  Mutex pager_mu2_{LockRank::kPager};\n"
            "  void f() {\n"
            "    MutexLock outer(wal_mu2_);\n"
            "    MutexLock inner(pager_mu2_);\n"
            "  }\n"
            "};\n",
            "src", "odb", "order_ok_specimen.h")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "acquire-order" and
                    "order_ok_specimen" in f.file]
        self.assertEqual([], findings)

    def test_requires_edge_is_checked(self):
        self.write(
            "class A {\n"
            "  Mutex pager_mu3_{LockRank::kPager};\n"
            "  Mutex wal_mu3_{LockRank::kWal};\n"
            "  void f() ODE_REQUIRES(pager_mu3_) {\n"
            "    MutexLock l(wal_mu3_);\n"
            "  }\n"
            "};\n",
            "src", "odb", "requires_specimen.h")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "acquire-order" and
                    "requires_specimen" in f.file]
        self.assertEqual(1, len(findings), findings)

    # --- no-tsa-inventory ----------------------------------------------

    def test_new_escape_is_flagged(self):
        self.write(
            "void f() ODE_NO_THREAD_SAFETY_ANALYSIS;\n",
            "src", "odb", "escape_specimen.h")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "no-tsa-inventory"]
        self.assertTrue(
            any("escape_specimen" in f.file for f in findings))

    def test_escape_count_drift_is_flagged(self):
        wal = self.read("src", "odb", "wal.h")
        self.write(
            wal + "\nvoid extra() ODE_NO_THREAD_SAFETY_ANALYSIS;\n",
            "src", "odb", "wal.h")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "no-tsa-inventory"]
        self.assertTrue(any("drifted" in f.message for f in findings))

    # --- metric-name ---------------------------------------------------

    def test_bad_metric_name_is_flagged(self):
        self.write(
            'void f() { R().counter("WalFlushes")->Increment(); }\n',
            "src", "odb", "metric_specimen.cc")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "metric-name"]
        self.assertTrue(any("WalFlushes" in f.message for f in findings))

    def test_kind_conflict_is_flagged(self):
        self.write(
            'void f() {\n'
            '  R().counter("wal.conflict.test")->Increment();\n'
            '  R().histogram("wal.conflict.test")->Record(1);\n'
            '}\n',
            "src", "odb", "kind_specimen.cc")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "metric-name"]
        self.assertTrue(
            any("wal.conflict.test" in f.message and "one" in f.message
                for f in findings))

    # --- journal-event-name --------------------------------------------

    def test_duplicate_wire_name_is_flagged(self):
        cc = self.read("src", "common", "journal.cc")
        self.write(cc.replace('return "session_close";',
                              'return "session_open";', 1),
                   "src", "common", "journal.cc")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "journal-event-name"]
        self.assertTrue(
            any("session_open" in f.message and "both" in f.message
                for f in findings))

    # --- include-layering ----------------------------------------------

    def test_upward_include_is_flagged(self):
        self.write('#include "odeview/browse_node.h"\n',
                   "src", "odb", "layering_specimen.h")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "include-layering"]
        self.assertTrue(
            any("layering_specimen" in f.file for f in findings))

    def test_common_including_odb_is_flagged(self):
        self.write('#include "odb/wal.h"\n',
                   "src", "common", "layering_specimen2.h")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "include-layering"]
        self.assertTrue(
            any("layering_specimen2" in f.file for f in findings))

    def test_core_including_cluster_is_flagged(self):
        # odb/cluster/ is a leaf: the odb core (and every other layer)
        # must reach it through forward declarations only.
        self.write('#include "odb/cluster/plan.h"\n',
                   "src", "odb", "cluster_specimen.h")
        self.write('#include "odb/cluster/advisor.h"\n',
                   "src", "common", "cluster_specimen2.h")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "include-layering"]
        self.assertTrue(
            any("cluster_specimen.h" in f.file and
                "odb/cluster" in f.message for f in findings))
        self.assertTrue(
            any("cluster_specimen2" in f.file for f in findings))

    def test_cluster_internal_include_is_clean(self):
        # The subsystem's own files may include each other and the core.
        self.write('#include "odb/cluster/plan.h"\n'
                   '#include "odb/database.h"\n',
                   "src", "odb", "cluster", "internal_specimen.h")
        findings = [f for f in ode_lint.run_all(self.tmp)
                    if f.rule == "include-layering"
                    and "internal_specimen" in f.file]
        self.assertEqual(findings, [])


class OdeLintBaseline(unittest.TestCase):
    def test_stale_baseline_entry_is_reported(self):
        import contextlib
        import io
        baseline = json.load(open(os.path.join(
            REPO, "tools", "ode_lint", "baseline.json"),
            encoding="utf-8"))
        baseline["suppressed"].append("metric-name:gone.cc:never")
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as f:
            json.dump(baseline, f)
            path = f.name
        self.addCleanup(os.unlink, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ode_lint.main(["--root", REPO, "--baseline", path,
                                  "--json"])
        self.assertEqual(1, code)
        findings = json.loads(out.getvalue())["findings"]
        self.assertEqual(["stale-baseline"],
                         [f["rule"] for f in findings])

    def test_committed_baseline_is_clean(self):
        code = ode_lint.main([
            "--root", REPO, "--baseline",
            os.path.join(REPO, "tools", "ode_lint", "baseline.json"),
            "--json"])
        self.assertEqual(0, code)


if __name__ == "__main__":
    unittest.main(verbosity=2)

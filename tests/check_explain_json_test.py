#!/usr/bin/env python3
"""Runs scripts/check_explain_json.py on synthetic EXPLAIN documents: a
well-formed query_plan document must pass, and each malformed one must
fail with the expected message.

Usage: check_explain_json_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "scripts", "check_explain_json.py")


def node(kind, mask, children=(), **fields):
    return dict(kind=kind, system="hive", label="", relation_mask=mask,
                output_rows=10, output_row_bytes=8, transfer_seconds=0,
                operator_seconds=0, subtree_seconds=0, approach="",
                algorithm="", used_remedy=False, remedy_alpha=1,
                fell_back_reason="", algorithm_candidates=[],
                eliminated_algorithms=[], children=list(children)) | fields


def query_plan():
    """A join of two tables with one alternative and one dropped host."""
    join = node("join", 3, [node("table", 1), node("table", 2)],
                algorithm_candidates=[{"algorithm": "shuffle_join",
                                       "seconds": 2.5}],
                eliminated_algorithms=[{"algorithm": "skew_join",
                                        "reason": "no skew"}])
    candidates = [dict(rank=r, system=s, result_transfer_seconds=0,
                       total_seconds=t)
                  for r, s, t in ((1, "hive", 4), (2, "teradata", 9))]
    pruned = [dict(kind="eliminated", stage="join", relation_mask=3,
                   system="presto", via_system="", subtree_seconds=0,
                   reason="engine cannot run joins", description="")]
    return {"query_plan": dict(candidates_costed=2, dp_entries=2,
                               best_total_seconds=4, tree=join,
                               candidates=candidates, pruned=pruned)}


class CheckExplainJsonTest(unittest.TestCase):

    def run_check(self, doc):
        """Writes `doc` and returns (exit code, stderr)."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "EXPLAIN_synthetic.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            proc = subprocess.run([sys.executable, SCRIPT, path],
                                  capture_output=True, text=True, check=False)
            return proc.returncode, proc.stderr

    def assert_fails(self, doc, message):
        code, err = self.run_check(doc)
        self.assertEqual(code, 1, err)
        self.assertIn(message, err)

    def test_well_formed_query_plan_passes(self):
        code, err = self.run_check(query_plan())
        self.assertEqual(code, 0, err)

    def test_malformed_query_plans_fail(self):
        cases = {
            "not sorted cheapest-first":
                lambda p: p["candidates"][1].update(total_seconds=3),
            "tree.children[1]: missing field 'algorithm_candidates'":
                lambda p: p["tree"]["children"][1].pop("algorithm_candidates"),
            "eliminated_algorithms[0]: missing field 'reason'":
                lambda p: p["tree"]["eliminated_algorithms"][0].pop("reason"),
            "relation_mask must cover":
                lambda p: p["tree"]["children"][0].update(relation_mask=0),
            "tree present but candidates empty":
                lambda p: p.update(candidates=[]),
        }
        for message, edit in cases.items():
            with self.subTest(message):
                doc = query_plan()
                edit(doc["query_plan"])
                self.assert_fails(doc, message)

    def test_unknown_document_kind_fails(self):
        self.assert_fails({"placement": {}}, "unknown document kind")

    def test_old_placement_format_fails(self):
        option = node("join", 3) | dict(rank=1, total_seconds=0)
        self.assert_fails({"operator": "join", "options": [option],
                           "eliminated_placements": []}, "exactly one key")


if __name__ == "__main__":
    unittest.main()

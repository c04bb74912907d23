#!/usr/bin/env python3
"""Validates an EXPLAIN JSON artifact against its expected schema.

Used by scripts/check.sh after running the EXPLAIN examples: the JSON
renderings must stay machine-readable, so this checks structure and types,
not specific cost numbers. The artifact kind is the document's single
top-level key — a "serving" object is an EstimationService::ExplainJson()
document (examples/explain_serving), a "query_plan" object is an
ExplainQueryPlan() document (examples/explain_query_plan), a "lifecycle"
object is a LifecycleManager::ExplainJson() document
(examples/explain_lifecycle), an "admission" object is an
AdmissionController::ExplainJson() document (examples/explain_admission).
Any other top-level shape fails.

Usage: check_explain_json.py <path-to-EXPLAIN_*.json>
"""

import json
import sys

def fail(msg):
    print(f"check_explain_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_type(obj, field, expected, where):
    if field not in obj:
        fail(f"{where}: missing field '{field}'")
    # bool is an int subclass in Python; don't let a bool satisfy a number.
    value = obj[field]
    if expected is not bool and isinstance(value, bool):
        fail(f"{where}: field '{field}' must not be a bool")
    if not isinstance(value, expected):
        fail(f"{where}: field '{field}' has type {type(value).__name__}")


def check_object(obj, fields, where):
    """Fails unless `obj` is an object carrying every field of `fields`
    (name -> expected type)."""
    if not isinstance(obj, dict):
        fail(f"{where}: must be an object")
    for field, expected in fields.items():
        check_type(obj, field, expected, where)


SERVING_CACHE_FIELDS = {
    "shards": int,
    "capacity": int,
    "ttl_seconds": (int, float),
    "quantize_bits": int,
    "entries": int,
    "hits": int,
    "misses": int,
    "evictions": int,
    "stale_epoch": int,
    "stale_served": int,
    "hit_rate": (int, float),
}


def check_serving(doc):
    serving = doc["serving"]
    check_object(serving, {"model_epoch": int, "jobs": int, "cache": dict,
                           "health": dict}, "serving")
    cache = serving["cache"]
    check_object(cache, SERVING_CACHE_FIELDS, "serving.cache")
    for field in ("shards", "capacity", "entries", "hits", "misses",
                  "evictions", "stale_epoch", "stale_served"):
        if cache[field] < 0:
            fail(f"serving.cache.{field} must be >= 0")
    health = serving["health"]
    for field in ("tracked", "open"):
        check_type(health, field, int, "serving.health")
        if health[field] < 0:
            fail(f"serving.health.{field} must be >= 0")
    if health["open"] > health["tracked"]:
        fail("serving.health.open exceeds tracked breaker count")
    if not 0.0 <= cache["hit_rate"] <= 1.0:
        fail("serving.cache.hit_rate must be in [0, 1]")
    if cache["entries"] > cache["capacity"]:
        fail("serving.cache.entries exceeds capacity")
    print(f"check_explain_json: OK (serving: epoch {serving['model_epoch']}, "
          f"{cache['entries']} entries, hit_rate {cache['hit_rate']})")


LIFECYCLE_INGEST_FIELDS = {
    "capacity": int,
    "size": int,
    "pushed": int,
    "dropped": int,
    "drained": int,
}

LIFECYCLE_DRIFT_FIELDS = {
    "window": int,
    "threshold": (int, float),
    "min_samples": int,
    "out_of_range_fraction": (int, float),
    "detected": int,
}

LIFECYCLE_RETRAIN_FIELDS = {
    "window": int,
    "started": int,
    "completed": int,
    "failed": int,
    "deferred": int,
    "in_flight": int,
}

LIFECYCLE_SHADOW_FIELDS = {
    "fraction": (int, float),
    "min_improvement": (int, float),
    "accepted": int,
    "rejected": int,
}

LIFECYCLE_DETECTOR_FIELDS = {
    "system": str,
    "operator": str,
    "window_size": int,
    "accepted": int,
    "rejected_nonfinite": int,
    "mean_relative_error": (int, float),
    "out_of_range_fraction": (int, float),
    "drifted": bool,
    "reason": str,
}


def check_lifecycle(doc):
    lc = doc["lifecycle"]
    check_object(lc, {"epoch": int}, "lifecycle")
    if lc["epoch"] < 0:
        fail("lifecycle.epoch must be >= 0")
    for section, fields in (("ingest", LIFECYCLE_INGEST_FIELDS),
                            ("drift", LIFECYCLE_DRIFT_FIELDS),
                            ("retrain", LIFECYCLE_RETRAIN_FIELDS),
                            ("shadow", LIFECYCLE_SHADOW_FIELDS)):
        check_type(lc, section, dict, "lifecycle")
        obj = lc[section]
        for field, expected in fields.items():
            check_type(obj, field, expected, f"lifecycle.{section}")
            value = obj[field]
            if isinstance(value, (int, float)) and value < 0:
                fail(f"lifecycle.{section}.{field} must be >= 0")
    ingest = lc["ingest"]
    if ingest["dropped"] > ingest["pushed"]:
        fail("lifecycle.ingest.dropped exceeds pushed")
    if ingest["size"] > ingest["capacity"]:
        fail("lifecycle.ingest.size exceeds capacity")
    if lc["drift"]["out_of_range_fraction"] > 1.0:
        fail("lifecycle.drift.out_of_range_fraction must be <= 1")
    if not 0.0 < lc["shadow"]["fraction"] < 1.0:
        fail("lifecycle.shadow.fraction must be in (0, 1)")
    retrain = lc["retrain"]
    if retrain["completed"] + retrain["in_flight"] > retrain["started"]:
        fail("lifecycle.retrain completed + in_flight exceeds started")
    check_type(lc, "swaps", int, "lifecycle")
    if lc["swaps"] > lc["shadow"]["accepted"]:
        fail("lifecycle.swaps exceeds shadow.accepted")
    check_type(lc, "detectors", list, "lifecycle")
    for i, det in enumerate(lc["detectors"]):
        where = f"lifecycle.detectors[{i}]"
        check_object(det, LIFECYCLE_DETECTOR_FIELDS, where)
        if not 0.0 <= det["out_of_range_fraction"] <= 1.0:
            fail(f"{where}: out_of_range_fraction must be in [0, 1]")
        if det["window_size"] < 0 or det["accepted"] < det["window_size"]:
            fail(f"{where}: accepted must cover the current window")
    print(f"check_explain_json: OK (lifecycle: epoch {lc['epoch']}, "
          f"{len(lc['detectors'])} detectors, swaps {lc['swaps']})")


ADMISSION_FIELDS = {
    "enabled": bool,
    "tenant_rate": (int, float),
    "tenant_burst": (int, float),
    "max_queue": int,
    "degrade_fraction": (int, float),
    "background_fraction": (int, float),
    "service_seconds": (int, float),
    "queue_clears_at": (int, float),
    "tenants": int,
    "counters": dict,
}

ADMISSION_COUNTER_FIELDS = (
    "admitted",
    "degraded",
    "shed_load",
    "shed_deadline",
    "tenant_throttled",
    "background_yield",
)


def check_admission(doc):
    adm = doc["admission"]
    check_object(adm, ADMISSION_FIELDS, "admission")
    counters = adm["counters"]
    for field in ADMISSION_COUNTER_FIELDS:
        check_type(counters, field, int, "admission.counters")
        if counters[field] < 0:
            fail(f"admission.counters.{field} must be >= 0")
    if adm["max_queue"] < 1:
        fail("admission.max_queue must be >= 1")
    if adm["tenants"] < 0:
        fail("admission.tenants must be >= 0")
    for field in ("tenant_rate", "tenant_burst", "service_seconds"):
        if adm[field] < 0:
            fail(f"admission.{field} must be >= 0")
    if not 0.0 < adm["degrade_fraction"] <= 1.0:
        fail("admission.degrade_fraction must be in (0, 1]")
    if not 0.0 < adm["background_fraction"] <= 1.0:
        fail("admission.background_fraction must be in (0, 1]")
    # degraded answers are admitted answers; throttles are a subset of them
    if counters["tenant_throttled"] > counters["admitted"] + counters[
            "degraded"] + counters["shed_load"] + counters["shed_deadline"]:
        fail("admission.counters.tenant_throttled exceeds total decisions")
    print(f"check_explain_json: OK (admission: "
          f"admitted {counters['admitted']}, "
          f"degraded {counters['degraded']}, shed "
          f"{counters['shed_load'] + counters['shed_deadline']})")


QUERY_NODE_FIELDS = {
    "kind": str,
    "system": str,
    "label": str,
    "relation_mask": int,
    "output_rows": int,
    "output_row_bytes": int,
    "transfer_seconds": (int, float),
    "operator_seconds": (int, float),
    "subtree_seconds": (int, float),
    "approach": str,
    "algorithm": str,
    "used_remedy": bool,
    "remedy_alpha": (int, float),
    "fell_back_reason": str,
    "algorithm_candidates": list,
    "eliminated_algorithms": list,
    "children": list,
}

QUERY_NODE_KINDS = {"table", "scan", "join", "aggregate"}

QUERY_CANDIDATE_FIELDS = {
    "rank": int,
    "system": str,
    "result_transfer_seconds": (int, float),
    "total_seconds": (int, float),
}

QUERY_PRUNED_FIELDS = {
    "kind": str,
    "stage": str,
    "relation_mask": int,
    "system": str,
    "via_system": str,
    "subtree_seconds": (int, float),
    "reason": str,
    "description": str,
}

QUERY_PRUNED_KINDS = {"eliminated", "dominated", "pruned"}

ALGORITHM_CANDIDATE_FIELDS = {"algorithm": str, "seconds": (int, float)}

ELIMINATED_ALGORITHM_FIELDS = {"algorithm": str, "reason": str}


def check_query_node(node, where):
    check_object(node, QUERY_NODE_FIELDS, where)
    if node["kind"] not in QUERY_NODE_KINDS:
        fail(f"{where}: unknown node kind '{node['kind']}'")
    if node["relation_mask"] <= 0:
        fail(f"{where}: relation_mask must cover at least one relation")
    for j, cand in enumerate(node["algorithm_candidates"]):
        check_object(cand, ALGORITHM_CANDIDATE_FIELDS,
                     f"{where}.algorithm_candidates[{j}]")
    for j, elim in enumerate(node["eliminated_algorithms"]):
        check_object(elim, ELIMINATED_ALGORITHM_FIELDS,
                     f"{where}.eliminated_algorithms[{j}]")
    for i, child in enumerate(node["children"]):
        check_query_node(child, f"{where}.children[{i}]")


def check_query_plan(doc):
    plan = doc["query_plan"]
    check_object(plan, {"candidates_costed": int, "dp_entries": int,
                        "candidates": list, "pruned": list}, "query_plan")
    for field in ("candidates_costed", "dp_entries"):
        if plan[field] < 0:
            fail(f"query_plan.{field} must be >= 0")
    if "best_total_seconds" not in plan or "tree" not in plan:
        fail("query_plan: missing best_total_seconds or tree")
    if (plan["best_total_seconds"] is None) != (plan["tree"] is None):
        fail("query_plan: best_total_seconds and tree must be both "
             "null or both present")
    if plan["tree"] is None:
        if plan["candidates"]:
            fail("query_plan: candidates present but tree is null")
    else:
        check_query_node(plan["tree"], "query_plan.tree")
        if not plan["candidates"]:
            fail("query_plan: tree present but candidates empty")

    totals = []
    for i, cand in enumerate(plan["candidates"]):
        where = f"query_plan.candidates[{i}]"
        check_object(cand, QUERY_CANDIDATE_FIELDS, where)
        if cand["rank"] != i + 1:
            fail(f"{where}: rank {cand['rank']} != {i + 1}")
        totals.append(cand["total_seconds"])
    if totals != sorted(totals):
        fail("query_plan.candidates are not sorted cheapest-first")
    if totals and abs(plan["best_total_seconds"] - totals[0]) > 1e-9:
        fail("query_plan.best_total_seconds != candidates[0].total_seconds")

    for i, pruned in enumerate(plan["pruned"]):
        where = f"query_plan.pruned[{i}]"
        check_object(pruned, QUERY_PRUNED_FIELDS, where)
        if pruned["kind"] not in QUERY_PRUNED_KINDS:
            fail(f"{where}: unknown pruned kind '{pruned['kind']}'")
        if pruned["stage"] not in QUERY_NODE_KINDS:
            fail(f"{where}: unknown pruned stage '{pruned['stage']}'")

    print(f"check_explain_json: OK (query_plan: "
          f"{len(plan['candidates'])} candidates, "
          f"{len(plan['pruned'])} pruned, "
          f"costed {plan['candidates_costed']})")


def main():
    if len(sys.argv) != 2:
        fail("usage: check_explain_json.py <file>")
    try:
        with open(sys.argv[1], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {sys.argv[1]}: {e}")

    if not isinstance(doc, dict) or len(doc) != 1:
        fail("top level must be an object with exactly one key")
    kind = next(iter(doc))
    checkers = {
        "serving": check_serving,
        "query_plan": check_query_plan,
        "lifecycle": check_lifecycle,
        "admission": check_admission,
    }
    if kind not in checkers:
        fail(f"unknown document kind '{kind}'")
    checkers[kind](doc)


if __name__ == "__main__":
    main()

"""The reference for `bpmatch.harness.sweep`.

Each instance is certified with `certify_instance` and, when its
relaxation is tight, run synchronously for the certificate's iteration
bound, its outcome kept as one row; the sweep then counts the rows.
Tests compare `sweep` with `sweep` here, result dict for result dict.
"""

from __future__ import annotations

import random

from bpmatch import oracle
from bpmatch.engine import StopPolicy, run_sync
from bpmatch.graph import Graph
from bpmatch.harness import certify_instance, random_instance
from bpmatch.oracle import InfeasibleError, tightness_by_enumeration


def analyze_instance(g: Graph, mode: str):
    """One sweep step: oracle, consistency cross-checks, certified run."""
    row = {"n": g.n, "m": g.m, "mode": mode}
    try:
        c = certify_instance(g, mode)
    except InfeasibleError:
        row.update(feasible=False, tight=None, match=None)
        return row
    except oracle.StrongDualityError:
        row.update(feasible=True, strong_duality=False, tight=None, match=None)
        return row
    row["feasible"] = True
    row["cs_ok"] = c.cs_ok
    row["tight"] = c.tight
    if g.m <= oracle.ENUMERATION_GUARD:
        enum_tight, _ = tightness_by_enumeration(g, mode, c.lp.objective)
        row["tight_enum"] = enum_tight
        row["tight_agree"] = enum_tight == c.tight
    if not c.tight:
        row["match"] = None
        return row
    row["bound"] = c.bound
    run = run_sync(g, mode, None, StopPolicy.budget(c.bound))
    row["stabilized_at"] = run.stabilized_at
    row["match"] = run.estimate.edges == c.bf_optima[0]
    return row


def sweep(mode: str, instances=200, n_max=6, seed=0, weight_lo=None, weight_hi=None,
          distinct=False):
    """Generate, certify, and solve random instances; aggregate the outcome."""
    rng = random.Random(seed)
    rows = []
    for _ in range(instances):
        g = random_instance(rng, n_max, mode, weight_lo, weight_hi, distinct)
        rows.append(analyze_instance(g, mode))
    feasible = [r for r in rows if r.get("feasible")]
    tight = [r for r in feasible if r.get("tight")]
    matches = [r for r in tight if r.get("match")]
    agree = [r for r in rows if "tight_agree" in r]
    return {
        "mode": mode,
        "instances": len(rows),
        "feasible": len(feasible),
        "tight": len(tight),
        "matches": len(matches),
        "mismatches": len(tight) - len(matches),
        "duality_ok": all(r.get("strong_duality", True) for r in rows),
        "cs_ok": all(r.get("cs_ok", True) for r in rows),
        "tightness_agreements": len([r for r in agree if r["tight_agree"]]),
        "tightness_checked_both_ways": len(agree),
        "stabilization": {
            "max_bound": max((r["bound"] for r in tight), default=None),
            "max_stabilized_at": max((r["stabilized_at"] for r in tight), default=None),
        },
    }

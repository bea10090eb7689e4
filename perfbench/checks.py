"""Output checks: each failed check marks its op failed instead of aborting.

A plan is checked against ``expected.json``, generated from this tree with
``python3 perfbench/run.py --write-expected``.  The stored digest covers the
plan's discrete decisions (primitive and layouts per layer, conversion hops
per edge) and the stored ``total_ms`` is compared to 1e-9 relative, so a
solver that returns a different or a costlier plan fails, while the check
does not hang on the last bits of a float that another CPU may round
differently.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Tolerance of an executed output against its reference, in units of the
#: reference's largest magnitude: about eight fp32 ulps.  Every family
#: accumulates in float64 and rounds to fp32, so two families agree far
#: closer than this; the networks end in softmax, which shrinks an error
#: upstream, so a looser bound would let a wrong primitive through.
OUTPUT_TOLERANCE = 1e-6


def key_label(key: Sequence) -> str:
    model, platform, dtype, batch = key
    return f"{model}@{platform}/{dtype}/b{batch}"


def plan_digest(document: dict) -> str:
    """SHA-256 of a plan document's decisions (no floating-point fields)."""
    decisions = {
        "layers": [
            [d["layer"], d["primitive"], d["input_layout"], d["output_layout"]]
            for d in document["layers"]
        ],
        "edges": [
            [e["producer"], e["consumer"], e["source_layout"], e["target_layout"], e["hops"]]
            for e in document["edges"]
        ],
    }
    return hashlib.sha256(json.dumps(decisions, sort_keys=True).encode()).hexdigest()


def load_expected() -> Dict[str, dict]:
    return json.loads(EXPECTED_PATH.read_text())


class Checker:
    """Counts attempted and failed ops; remembers the first failure messages."""

    def __init__(self, expected: Optional[Dict[str, dict]] = None) -> None:
        self.expected = expected if expected is not None else {}
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()
        #: Predicted total_ms of each plan checked, by key.
        self.plan_costs: Dict[str, float] = {}
        self._problems: list = []

    # -- op accounting ---------------------------------------------------------

    def begin(self) -> None:
        self._problems = []

    def fail(self, message: str) -> None:
        self._problems.append(message)

    def end(self) -> bool:
        """Close one op; returns True when every check on it passed."""
        self.attempted += 1
        if self._problems:
            self.failed += 1
            for message in self._problems:
                self.reasons[message] += 1
            return False
        return True

    # -- checks ----------------------------------------------------------------

    def plan_document(self, label: str, document: dict, verify_report=None) -> None:
        """Digest and predicted total against the stored plan for ``label``."""
        self.plan_costs[label] = document["total_ms"]
        expected = self.expected.get(label)
        if expected is None:
            self.fail(f"{label}: no stored plan")
            return
        if plan_digest(document) != expected["digest"]:
            self.fail(f"{label}: plan digest differs from the stored plan")
        if not math.isclose(document["total_ms"], expected["total_ms"], rel_tol=1e-9):
            self.fail(
                f"{label}: total_ms {document['total_ms']!r} != stored {expected['total_ms']!r}"
            )
        if verify_report is not None and verify_report.errors:
            self.fail(f"{label}: verifier errors {[f.rule for f in verify_report.errors]}")

    def pbqp_cost(self, label: str, plan) -> None:
        """The solver's objective equals the legalized plan's cost."""
        cost = plan.metadata.get("pbqp_cost")
        if cost is None or not math.isclose(cost, plan.total_cost, rel_tol=1e-9, abs_tol=1e-15):
            self.fail(f"{label}: pbqp_cost {cost!r} != total_cost {plan.total_cost!r}")

    def output(self, label: str, output: np.ndarray, reference: np.ndarray) -> None:
        """An executed output matches a reference from another primitive family."""
        output = np.asarray(output)
        if output.shape != reference.shape:
            self.fail(f"{label}: output shape {output.shape} != {reference.shape}")
            return
        scale = float(np.max(np.abs(reference))) or 1.0
        error = float(np.max(np.abs(output - reference)))
        if not error <= OUTPUT_TOLERANCE * scale:
            self.fail(f"{label}: output off by {error:.3g} (scale {scale:.3g})")


def self_test() -> bool:
    """Feed one corrupted plan and one wrong output through the checks.

    Returns True when both faults are counted as failed ops and the clean
    plan and output pass.  The plan is an AlexNet selection whose first
    convolution is switched to another applicable primitive without
    re-pricing; the wrong output is the reference shifted by ten times the
    tolerance.
    """
    from repro import build_model
    from repro.analysis.plan_verifier import verify_document
    from repro.api import Session
    from repro.cost.serialize import plan_to_dict

    session = Session()
    key = ("alexnet", "intel-haswell", "fp32", 1)
    label = key_label(key)
    good = plan_to_dict(session.select(key[0], key[1], dtype=key[2], batch=key[3]).plan)
    checker = Checker({label: {"digest": plan_digest(good), "total_ms": good["total_ms"]}})

    corrupted = json.loads(json.dumps(good))
    tables = session.context_for(key[0], key[1], dtype=key[2], batch=key[3]).tables
    for layer in corrupted["layers"]:
        others = sorted(set(tables.node_costs.get(layer["layer"], ())) - {layer["primitive"]})
        if others:
            layer["primitive"] = others[0]
            break
    report = verify_document(
        corrupted,
        network=build_model(key[0]),
        library=session.library,
        dt_graph=session.dt_graph,
    )
    checker.begin()
    checker.plan_document(label, corrupted, report)
    plan_caught = not checker.end()

    reference = np.linspace(-1.0, 1.0, 1000, dtype=np.float32)
    checker.begin()
    checker.output(label, reference + 10 * OUTPUT_TOLERANCE, reference)
    output_caught = not checker.end()

    checker.begin()
    checker.plan_document(label, good)
    checker.output(label, reference.copy(), reference)
    clean_passes = checker.end()
    return plan_caught and output_caught and clean_passes and checker.failed == 2

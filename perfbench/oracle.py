"""Correctness oracle: every served answer is checked on the benchmark's copy.

A read answer is correct when each returned slot is a point the benchmark
knows (a base point, or one an acknowledged insert created that was sent
before the read answered), was not deleted by a delete acknowledged before
the read was sent, and lies within ``radius`` of the query under the exact
measure (Jaccard similarity for sets, Euclidean distance for vectors),
computed here and not by the program.  ``k>1`` answers without replacement
must be distinct, and a ``k=1`` answer's reported value must equal the
exact measure.

An empty answer is judged too.  Set queries are users of the corpus, and a
live point collides with itself in every table, so an empty answer while
the query's own slot is certainly live (no delete of it was sent before
the read answered) is wrong.  Dense queries are not corpus points; for them
the oracle counts, per answer, whether the query has a base point within
``radius`` (brute force over the base) and whether the answer found one,
and the run checks the ratio against a floor (``recall()``).

Mutations must be judged before the reads they may overlap (``run.py``
does), so that a slot an insert created or a delete removed is known when
a read names it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from loadgen import Call


def exact_value(kind: str, query, point) -> float:
    if kind == "set":
        union = len(query | point)
        return len(query & point) / union if union else 1.0
    return float(np.sqrt(np.sum((np.asarray(query) - np.asarray(point)) ** 2)))


class Oracle:
    """Tracks what is live and judges answers against it."""

    def __init__(self, kind: str, radius: float, base: List):
        self.kind = kind
        self.radius = radius
        self.points: Dict[int, object] = dict(enumerate(base))
        # Slot -> time (client clock) its insert was sent.
        self.inserted_at: Dict[int, float] = {}
        # Slot -> time its delete was acknowledged / first sent (acked or not).
        self.deleted_at: Dict[int, float] = {}
        self.delete_sent: Dict[int, float] = {}
        if kind == "set":
            self.own_slots: Dict[frozenset, List[int]] = {}
            for slot, point in enumerate(base):
                self.own_slots.setdefault(point, []).append(slot)
        else:
            self.matrix = np.asarray(base, dtype=np.float64)
            self.norms = np.einsum("ij,ij->i", self.matrix, self.matrix)
            self.has_near: Dict[bytes, bool] = {}
        self.expected_found = 0  # dense answers whose query has a base point in range
        self.found_of_expected = 0
        self.acked_inserts = 0
        self.acked_deletes = 0
        self.defects: List[str] = []

    def near(self, query, point) -> bool:
        value = exact_value(self.kind, query, point)
        if self.kind == "set":
            return value >= self.radius - 1e-12
        return value <= self.radius + 1e-9

    def record_mutation(self, call: Call) -> bool:
        """Account an insert/delete exchange; return whether it is correct."""
        if call.op == "delete":
            # A failed delete may still have been applied.
            self.delete_sent.setdefault(call.payload["index"], call.sent)
        if not call.ok:
            return self.defect(f"{call.op} failed: HTTP {call.status} {call.body}")
        if call.op == "insert":
            indices = call.body.get("indices", [])
            points = call.payload["points"]
            if len(indices) != len(points) or any(i in self.points for i in indices):
                return self.defect(f"insert returned bad slots {indices}")
            for index, point in zip(indices, self._decode(points)):
                self.points[index] = point
                self.inserted_at[index] = call.sent
            self.acked_inserts += len(indices)
            return True
        index = call.payload["index"]
        if index in self.deleted_at:
            return self.defect(f"slot {index} deleted twice")
        self.deleted_at[index] = call.done
        self.acked_deletes += 1
        return True

    def check_answer(self, query, answer: Dict, k: int, replacement: bool, call: Call) -> bool:
        indices = answer.get("indices")
        if not isinstance(indices, list) or len(indices) > k:
            return self.defect(f"malformed answer {answer}")
        if answer.get("found") != bool(indices):
            return self.defect(f"found flag disagrees with {indices}")
        if not replacement and len(set(indices)) != len(indices):
            return self.defect(f"repeated slots without replacement: {indices}")
        if not self.judge_found(query, bool(indices), call.done):
            return False
        for index in indices:
            point = self.points.get(index)
            if point is None or self.inserted_at.get(index, -math.inf) > call.done:
                return self.defect(f"answer slot {index} is not a point")
            deleted = self.deleted_at.get(index)
            if deleted is not None and deleted < call.sent:
                return self.defect(f"answer slot {index} was deleted before the query")
            if not self.near(query, point):
                return self.defect(f"answer slot {index} is not within {self.radius}")
        value = answer.get("value")
        if k == 1 and indices and value is not None:
            exact = exact_value(self.kind, query, self.points[indices[0]])
            if not math.isclose(value, exact, rel_tol=1e-9, abs_tol=1e-12):
                return self.defect(f"reported value {value} != exact {exact}")
        return True

    def check_read(self, call: Call, queries: List, k: int, replacement: bool) -> bool:
        """Judge a ``/v1/sample`` or ``/v1/sample_batch`` exchange."""
        if not call.ok:
            return self.defect(f"read failed: HTTP {call.status} {call.body}")
        answers = call.body["results"] if "results" in call.body else [call.body]
        if len(answers) != len(queries):
            return self.defect(f"{len(answers)} answers for {len(queries)} queries")
        return all(
            self.check_answer(query, answer, k, replacement, call)
            for query, answer in zip(queries, answers)
        )

    def judge_found(self, query, found: bool, answered: float) -> bool:
        """Judge whether the answer found anything (see the module docstring)."""
        if self.kind == "set":
            live = any(
                self.delete_sent.get(slot, math.inf) > answered
                for slot in self.own_slots.get(query, ())
            )
            if live and not found:
                return self.defect("empty answer although the query's own point is live")
            return True
        key = np.asarray(query, dtype=np.float64).tobytes()
        if key not in self.has_near:
            vector = np.asarray(query, dtype=np.float64)
            squared = self.norms - 2.0 * (self.matrix @ vector) + vector @ vector
            self.has_near[key] = bool(np.min(squared) <= self.radius**2)
        if self.has_near[key]:
            self.expected_found += 1
            self.found_of_expected += found
        return True

    def recall(self) -> float:
        """Dense answers that found a point, over those whose query has one in the base."""
        return self.found_of_expected / self.expected_found if self.expected_found else 1.0

    @property
    def live_count(self) -> int:
        return len(self.points) - len(self.deleted_at)

    def _decode(self, wire_points):
        if self.kind == "set":
            return [frozenset(point) for point in wire_points]
        return [np.asarray(point, dtype=np.float64) for point in wire_points]

    def defect(self, message: str) -> bool:
        if len(self.defects) < 20:
            self.defects.append(message)
        return False


def same_answers(left: Optional[List[Dict]], right: Optional[List[Dict]]) -> bool:
    """Byte identity of two answer lists: slots and reported values."""
    if left is None or right is None or len(left) != len(right):
        return False
    return all(
        a["indices"] == b["indices"] and a.get("value") == b.get("value")
        for a, b in zip(left, right)
    )

"""Static table of known exact values and intervals for the minimum
equipartition dimension, keyed by instance.

Entries are reference data, transcribed rather than recomputed: several of
them (everything tagged "restriction method" or "imported") rest on
arguments this package does not re-derive.  Each entry carries a
provenance string; where a value is reproducible by this package the
string names the generator that rebuilds it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .problems import ConstraintProblem, all_pairs, last_orthogonal, excluding_first_pair


@dataclass(frozen=True)
class KnownValue:
    problem: ConstraintProblem
    lo: int
    hi: int
    provenance: str

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def to_dict(self) -> dict:
        return {
            "problem": self.problem.to_dict(),
            "lo": self.lo,
            "hi": self.hi,
            "exact": self.exact,
            "provenance": self.provenance,
        }


def _entry(problem: ConstraintProblem, lo: int, hi: int, provenance: str) -> KnownValue:
    return KnownValue(problem=problem, lo=lo, hi=hi, provenance=provenance)


def _exact(problem: ConstraintProblem, value: int, provenance: str) -> KnownValue:
    return _entry(problem, value, value, provenance)


def _build() -> list[KnownValue]:
    entries: list[KnownValue] = []

    # One hyperplane: bisection of m masses needs exactly dimension m.
    for m in range(1, 9):
        entries.append(
            _exact(ConstraintProblem.of(1, m=(m,)), m, "Ham Sandwich theorem")
        )

    # Two hyperplanes: the three known exact families around powers of two.
    for q in range(0, 4):
        base = 3 * 2**q
        for m, value in (
            (2 ** (q + 1) - 1, base - 1),
            (2 ** (q + 1), base),
            (2 ** (q + 1) + 1, base + 2),
        ):
            if (q, m) == (1, 3):
                continue  # q=0 already gave (3, 5), as 2 ** (q + 1) + 1
            entries.append(
                _exact(
                    ConstraintProblem.of(2, m=(m,)),
                    value,
                    "classical exact value, two hyperplanes",
                )
            )

    # Three hyperplanes: the three known exact values.
    for m, value in ((1, 3), (2, 5), (4, 10)):
        entries.append(
            _exact(
                ConstraintProblem.of(3, m=(m,)),
                value,
                "classical exact value, three hyperplanes",
            )
        )

    # Full orthogonality, single stage.
    entries.append(
        _exact(
            ConstraintProblem.of(2, m=(1,), ortho=all_pairs(2)),
            2,
            "classical: two orthogonal bisecting lines (intermediate value theorem)",
        )
    )
    for q in range(0, 4):
        if q:  # q=0 is the pair of orthogonal lines above
            entries.append(
                _exact(
                    ConstraintProblem.of(2, m=(2 ** (q + 1) - 1,), ortho=all_pairs(2)),
                    3 * 2**q - 1,
                    "restriction method (imported, not recomputed)",
                )
            )
        entries.append(
            _exact(
                ConstraintProblem.of(2, m=(2 ** (q + 2) - 2,), ortho=all_pairs(2)),
                3 * 2 ** (q + 1) - 2,
                "restriction method (imported, not recomputed)",
            )
        )
        entries.append(
            _exact(
                ConstraintProblem.of(2, m=(2 ** (q + 2),), ortho=all_pairs(2)),
                3 * 2 ** (q + 1) + 1,
                "restriction method (imported, not recomputed)",
            )
        )
    entries.append(
        _exact(
            ConstraintProblem.of(3, m=(1,), ortho=all_pairs(3)),
            4,
            "restriction method (imported, not recomputed)",
        )
    )
    entries.append(
        _entry(
            ConstraintProblem.of(3, m=(3,), ortho=all_pairs(3)),
            8,
            9,
            "interval: counting lower bound; restriction-method upper bound (imported)",
        )
    )
    entries.append(
        _entry(
            ConstraintProblem.of(4, m=(1,), ortho=all_pairs(4)),
            6,
            8,
            "interval: counting lower bound; strict certificate upper bound "
            "(drop constraints from the fully-constrained k=4, d=8 instance)",
        )
    )

    # Two-hyperplane cascades and their orthogonal variants.
    for q in range(0, 4):
        entries.append(
            _exact(
                ConstraintProblem.of(2, m=(2 ** (q + 1) - 1, 1)),
                3 * 2**q - 1,
                f"strict certificate; cascade family (q={q}, t=1)",
            )
        )
        entries.append(
            _exact(
                ConstraintProblem.of(2, m=(2 ** (q + 2) - 2, 2)),
                3 * 2 ** (q + 1) - 2,
                f"strict certificate; cascade family (q={q + 1}, t=2)",
            )
        )
        entries.append(
            _exact(
                ConstraintProblem.of(2, m=(2 ** (q + 2) - 2, 1), ortho=all_pairs(2)),
                3 * 2 ** (q + 1) - 2,
                f"strict certificate; full-orthogonality family (q={q + 1}, t=2)",
            )
        )
        entries.append(
            _exact(
                ConstraintProblem.of(2, m=(2 ** (q + 3) - 3, 2), ortho=all_pairs(2)),
                3 * 2 ** (q + 2) - 3,
                f"strict certificate; full-orthogonality family (q={q + 2}, t=3)",
            )
        )

    # Three hyperplanes, constrained.
    entries.append(
        _exact(
            ConstraintProblem.of(3, m=(1, 1, 2)),
            4,
            "strict certificate; cascade family (q=0, t=1)",
        )
    )
    entries.append(
        _exact(
            ConstraintProblem.of(3, m=(1, 1, 1), ortho=[(2, 3)]),
            4,
            "strict certificate; last-orthogonality family (q=0, t=1, j=1)",
        )
    )
    entries.append(
        _exact(
            ConstraintProblem.of(3, m=(1, 1, 0), ortho=last_orthogonal(3)),
            4,
            "strict certificate; last-orthogonality family (q=0, t=1, j=2)",
        )
    )
    entries.append(
        _exact(
            ConstraintProblem.of(3, m=(3, 1, 2), ortho=[(2, 3)]),
            9,
            "strict certificate; last-orthogonality family (q=1, t=1, j=1), "
            "last cascade entry lowered 4 -> 2",
        )
    )
    entries.append(
        _exact(
            ConstraintProblem.of(3, m=(3, 1, 1), ortho=last_orthogonal(3)),
            9,
            "strict certificate; last-orthogonality family (q=1, t=1, j=2), "
            "last cascade entry lowered 3 -> 1",
        )
    )
    entries.append(
        _exact(
            ConstraintProblem.of(3, m=(2, 1, 2), ortho=all_pairs(3)),
            8,
            "strict certificate; full-orthogonality family (q=1, t=2), "
            "last cascade entry lowered 4 -> 2",
        )
    )
    entries.append(
        _exact(
            ConstraintProblem.of(3, m=(2, 2, 2), ortho=last_orthogonal(3)),
            8,
            "strict certificate; last-orthogonality family (q=1, t=2, j=2)",
        )
    )
    entries.append(
        _exact(
            ConstraintProblem.of(3, m=(7, 1, 2), ortho=[(2, 3)]),
            19,
            "printed as 18..19 in the source compilation; condition counting "
            "forces >= 19, upper bound by domination from the "
            "last-orthogonality family (q=2, t=1, j=1)",
        )
    )
    entries.append(
        _exact(
            ConstraintProblem.of(3, m=(7, 1, 1), ortho=last_orthogonal(3)),
            19,
            "printed as 18..19 in the source compilation; condition counting "
            "forces >= 19, upper bound by domination from the "
            "last-orthogonality family (q=2, t=1, j=2)",
        )
    )
    entries.append(
        _entry(
            ConstraintProblem.of(3, m=(6, 1, 2), ortho=all_pairs(3)),
            17,
            18,
            "interval: counting lower bound; domination upper bound from the "
            "full-orthogonality family (q=2, t=2)",
        )
    )
    entries.append(
        _exact(
            ConstraintProblem.of(3, m=(6, 2, 2), ortho=last_orthogonal(3)),
            18,
            "strict certificate via domination: last-orthogonality family "
            "(q=2, t=2, j=2) with last cascade entry lowered 4 -> 2; counting "
            "bound matches",
        )
    )

    # Four hyperplanes, constrained.
    entries.append(
        _exact(
            ConstraintProblem.of(4, m=(1, 1, 2, 2), ortho=[(2, 4), (3, 4)]),
            8,
            "strict certificate; last-orthogonality family (q=0, t=1, j=2)",
        )
    )
    entries.append(
        _exact(
            ConstraintProblem.of(4, m=(1, 1, 2, 1), ortho=last_orthogonal(4)),
            8,
            "strict certificate; last-orthogonality family (q=0, t=1, j=3)",
        )
    )
    entries.append(
        _exact(
            ConstraintProblem.of(4, m=(1, 1, 2, 2)),
            8,
            "cascade family (q=0, t=1) after lowering the last cascade entry "
            "4 -> 2; counting bound matches",
        )
    )
    entries.append(
        _entry(
            ConstraintProblem.of(4, m=(3, 1, 1, 2), ortho=excluding_first_pair(4)),
            16,
            17,
            "interval: counting lower bound; domination upper bound from the "
            "near-full-orthogonality family (q=1, t=1)",
        )
    )
    entries.append(
        _exact(
            ConstraintProblem.of(
                4,
                m=(1, 0, 0, 0),
                a=(0, 0, 2, 3),
                ortho=all_pairs(4),
                extra=[
                    (0, 1, 0, 0),
                    (0, 0, 1, 0),
                    (0, 0, 0, 1),
                    (0, 1, 1, 0),
                    (0, 1, 0, 1),
                    (0, 0, 1, 1),
                ],
            ),
            8,
            "strict certificate: four pairwise-orthogonal hyperplanes "
            "equipartitioning one mass, any two of the last three "
            "equipartitioning a second, the last two each bisecting two "
            "more, the last through a prescribed point",
        )
    )

    return entries


_TABLE: dict[ConstraintProblem, KnownValue] = {kv.problem: kv for kv in _build()}


def lookup(problem: ConstraintProblem) -> KnownValue | None:
    """Reference value for this exact instance, if one is on record."""
    return _TABLE.get(problem)


def entries() -> list[KnownValue]:
    return list(_TABLE.values())

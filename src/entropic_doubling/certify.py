"""Certificate bundles: self-contained JSON records that re-verify offline.

A bundle embeds the inputs (sets or distributions), the subspace, the claimed
quantities with both sides of every inequality, the tolerances, and the seed;
verify_bundle recomputes everything from the embedded inputs and the stored
subspace, accepting only within the stored tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dist import Dist, uniform_on
from .endgame import EndgameTranscript, endgame
from .errors import ValidationError
from .families import PRNG_ID
from .gf2 import Subspace
from .oracle import (
    CRITERION_B,
    CRITERION_PFR,
    CRITERION_T11,
    CriterionCheck,
    SubspaceCertificate,
    check_pfr,
)
from .pipeline import (
    CRITERION_MANY,
    CRITERION_RICH,
    SolveResult,
    StatementParams,
    check_many_sums,
    check_rich_cosets,
    check_statement_B,
    check_theorem_11,
)
from .tolerances import FIBER_CAP, IDENTITY_TOL, tolerances_dict


def _plain(obj):
    """Recursively convert numpy scalars/arrays for json.dumps."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


def _bundle(kind: str, inputs: dict, **blocks) -> dict:
    """The envelope every bundle shares: its kind, the PRNG, the embedded
    inputs, the kind's own blocks and the tolerances verification reads."""
    envelope = {"kind": kind, "prng": PRNG_ID, "inputs": inputs}
    return _plain({**envelope, **blocks, "tolerances": tolerances_dict()})


def _pair(p: Dist, q: Dist) -> dict:
    return {"p": p.to_json(), "q": q.to_json()}


def solve_bundle(result: SolveResult, p: Dist, q: Dist) -> dict:
    """Bundle a solve_B / rich_cosets result with its embedded inputs."""
    return _bundle(result.certificate.criterion, _pair(p, q), **result.to_json())


def many_sums_bundle(result: SolveResult, dists: list[Dist]) -> dict:
    return _bundle(CRITERION_MANY, {"dists": [d.to_json() for d in dists]}, **result.to_json())


def set_bundle(result: SolveResult, elements: list[int], n: int) -> dict:
    # The set analyze_set certified: duplicates dropped.
    members = [format(x, "x") for x in sorted(set(elements))]
    return _bundle(CRITERION_T11, {"set": {"n": n, "elements": members}}, **result.to_json())


def endgame_bundle(transcript: EndgameTranscript, p: Dist, q: Dist) -> dict:
    return _bundle("ENDGAME", _pair(p, q), transcript=transcript.to_json())


def pfr_bundle(cert: SubspaceCertificate, p: Dist, q: Dist) -> dict:
    return _bundle(CRITERION_PFR, _pair(p, q), certificate=cert.to_json())


@dataclass
class VerifyReport:
    kind: str
    ok: bool
    failures: list = field(default_factory=list)
    recomputed: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "ok": self.ok,
            "failures": self.failures,
            "recomputed": _plain(self.recomputed),
        }


def _close(report: VerifyReport, name: str, got: float, stored: float, tol: float) -> None:
    report.recomputed[name] = got
    if abs(got - stored) > tol:
        report.ok = False
        report.failures.append(f"{name}: recomputed {got!r} != stored {stored!r}")


def _require(report: VerifyReport, name: str, condition: bool) -> None:
    if not condition:
        report.ok = False
        report.failures.append(name)


def _compare(
    report: VerifyReport, chk: CriterionCheck, achieved: dict, names: tuple, tol: float
) -> None:
    for name in names:
        _close(report, name, chk.values[name], float(achieved[name]), tol)
    for name, ok in chk.verdicts.items():
        _require(report, name, ok)


def verify_bundle(payload: dict) -> VerifyReport:
    """Recompute every inequality in a certificate bundle from its inputs.

    Each criterion is evaluated by the same function its producer calls; the
    bundle contributes only the inputs, V, the parameters and stored values.
    A payload that is not a JSON object raises ValidationError; any other
    malformed bundle gives a failed report.
    """
    if not isinstance(payload, dict):
        raise ValidationError(
            f"a certificate bundle is a JSON object, not {type(payload).__name__}"
        )
    kind = payload.get("kind")
    report = VerifyReport(kind=str(kind), ok=True)
    try:
        tolerances = payload.get("tolerances", {})
        if not isinstance(tolerances, dict):
            raise ValidationError(
                f"tolerances is a JSON object, not {type(tolerances).__name__}"
            )
        tol = float(tolerances.get("identity", IDENTITY_TOL))
        inputs = payload["inputs"]
        if kind == "ENDGAME":
            p, q = Dist.from_json(inputs["p"]), Dist.from_json(inputs["q"])
            t = payload["transcript"]
            # Bundles written before the cap was always recorded used the default.
            fresh = endgame(
                p, q, float(t["eta"]), float(t["kappa"]),
                fiber_cap=int(t["fiber_cap"].get("cap", FIBER_CAP)),
            )
            for name in ("i_z1_z3", "i_z1_z2", "expectation"):
                _close(report, name, getattr(fresh, name), float(t[name]), tol)
            stored = [Subspace.from_json(row["subspace"]) for row in t["table"]]
            _require(report, "fiber table", stored == [row[3] for row in fresh.table])
            _require(report, "mi bound", fresh.mi_bound_holds)
            _require(report, "z entropy gaps", fresh.z_entropy_gap_holds)
            _require(report, "480k expectation", fresh.expectation_holds)
            return report
        cert = payload["certificate"]
        v = Subspace.from_json(cert["subspace"])
        params = cert["parameters"]
        ach = cert["achieved"]
        if kind == CRITERION_B:
            p, q = Dist.from_json(inputs["p"]), Dist.from_json(inputs["q"])
            chk = check_statement_B(
                p, q, v,
                StatementParams(
                    eta=float(params["eta"]),
                    epsilon=float(params["epsilon"]),
                    L=float(params["L_achieved"]) + tol,
                ),
            )
            _compare(report, chk, ach, ("lhs", "rhs"), tol)
        elif kind == CRITERION_RICH:
            p, q = Dist.from_json(inputs["p"]), Dist.from_json(inputs["q"])
            chk = check_rich_cosets(p, q, v, float(params["epsilon"]))
            _compare(report, chk, ach, ("s", "s_quotient", "h_x_given_proj", "h_y_given_proj"), tol)
        elif kind == CRITERION_MANY:
            dists = [Dist.from_json(d) for d in inputs["dists"]]
            chk = check_many_sums(dists, v, float(params["epsilon"]))
            _compare(report, chk, ach, ("lhs",), tol)
        elif kind == CRITERION_T11:
            n = int(inputs["set"]["n"])
            members = sorted(int(h, 16) for h in inputs["set"]["elements"])
            chk = check_theorem_11(members, uniform_on(members, n), v, float(params["epsilon"]))
            _compare(report, chk, ach, ("eta", "expected_log_intersection"), tol)
        elif kind == CRITERION_PFR:
            p, q = Dist.from_json(inputs["p"]), Dist.from_json(inputs["q"])
            _compare(report, check_pfr(p, q, v), ach, ("h_proj_x", "h_proj_y"), tol)
        else:
            raise ValidationError(f"unknown bundle kind {kind!r}")
    except (KeyError, TypeError, ValueError, RuntimeError) as exc:
        report.ok = False
        report.failures.append(f"bundle rejected: {exc}")
    return report

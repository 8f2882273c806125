"""Certificate bundles: self-contained JSON records that re-verify offline.

A bundle embeds the inputs (sets or distributions), the tolerances, and
either a certificate (the subspace, its parameters, and an achieved block
holding dim V and each value its criterion's check recomputes, with both
sides of every inequality, each stored once) or an endgame transcript.
verify_bundle reruns the check from the embedded inputs and the stored
subspace and compares every value.  A stored value passes within the bundle's
identity tolerance, which may tighten IDENTITY_TOL but not loosen it: a bundle
whose tolerance is not a number in [0, IDENTITY_TOL] fails.  Each check holds
the stored parameters to its criterion's range, as it does for the producer,
so a parameter that would make the criterion vacuous fails too.
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
    StatementParams,
    SubspaceCertificate,
    check_pfr,
)
from .pipeline import (
    CRITERION_MANY,
    CRITERION_RICH,
    SolveResult,
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


def _close(report: VerifyReport, name: str, got, stored, tol: float) -> None:
    """Fail unless every entry of got is within tol of stored's; NaN fails."""
    report.recomputed[name] = got
    got_a, stored_a = np.asarray(got, dtype=float), np.asarray(stored, dtype=float)
    if got_a.shape != stored_a.shape or not np.all(np.abs(got_a - stored_a) <= tol):
        report.ok = False
        report.failures.append(f"{name}: recomputed {got!r} != stored {stored!r}")


def _require(report: VerifyReport, name: str, condition: bool) -> None:
    if not condition:
        report.ok = False
        report.failures.append(name)


def _compare(
    report: VerifyReport, chk: CriterionCheck, achieved: dict, v: Subspace, tol: float
) -> None:
    """Every value chk recomputed against achieved, dim V, and chk's verdicts."""
    _require(report, f"dim: stored {achieved['dim']!r} != {v.dim}", achieved["dim"] == v.dim)
    for name, got in chk.values.items():
        _close(report, name, got, achieved[name], tol)
    for name, ok in chk.verdicts.items():
        _require(report, name, ok)


def verify_bundle(payload: dict) -> VerifyReport:
    """Recompute every inequality in a certificate bundle from its inputs.

    Each criterion is evaluated by the same check its producer built the
    certificate from, so every value that check recomputes is compared with
    the stored one (a missing or NaN value fails), and so is the stored dim.
    An ENDGAME bundle is replayed through endgame(), and every stored
    transcript value is compared: s_xy, h_total, each hypothesis_gaps entry,
    the two mutual informations, h_z_given_s and the expectation and its
    bound.
    The check rejects parameters outside its criterion's range.  The bundle
    contributes only the inputs, V, the parameters and the stored values;
    what the check does not read (steps, trivial, seed, old parameter keys)
    is ignored.  A payload that is not a JSON object raises ValidationError;
    any other malformed bundle gives a failed report.
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
        tol = tolerances.get("identity", IDENTITY_TOL)
        # A bundle may tighten its own checks but never loosen them; NaN fails.
        _require(
            report,
            f"identity tolerance {tol!r} is not a number in [0, {IDENTITY_TOL}]",
            type(tol) in (int, float) and 0.0 <= tol <= IDENTITY_TOL,
        )
        if not report.ok:
            return report
        inputs = payload["inputs"]
        if kind == "ENDGAME":
            p, q = Dist.from_json(inputs["p"]), Dist.from_json(inputs["q"])
            t = payload["transcript"]
            # Every endgame bundle is written and replayed at FIBER_CAP; one
            # written before the cap was recorded has no "cap".
            _require(report, "fiber cap", t["fiber_cap"].get("cap", FIBER_CAP) == FIBER_CAP)
            if not report.ok:
                return report
            fresh = endgame(p, q, float(t["eta"]), float(t["kappa"]))
            for name in (
                "s_xy", "h_total", "i_z1_z3", "i_z1_z2", "h_z_given_s", "expectation",
                "expectation_bound",
            ):
                _close(report, name, getattr(fresh, name), t[name], tol)
            # Each move's (lhs, rhs, gap), in the recomputed moves' order.
            gaps, fields = fresh.hypothesis_gaps, ("lhs", "rhs", "gap")
            _close(
                report,
                "hypothesis_gaps",
                [[gaps[m][k] for k in fields] for m in gaps],
                [[t["hypothesis_gaps"][m][k] for k in fields] for m in gaps],
                tol,
            )
            stored = [Subspace.from_json(row["subspace"]) for row in t["table"]]
            _require(report, "fiber table", stored == [row[3] for row in fresh.table])
            _require(report, "mi bound", fresh.mi_bound_holds)
            _require(report, "z entropy gaps", fresh.z_entropy_gap_holds)
            _require(report, "480k expectation", fresh.expectation_holds)
            return report
        cert = payload["certificate"]
        v = Subspace.from_json(cert["subspace"])
        params = cert["parameters"]
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
        elif kind == CRITERION_RICH:
            p, q = Dist.from_json(inputs["p"]), Dist.from_json(inputs["q"])
            chk = check_rich_cosets(p, q, v, float(params["epsilon"]))
        elif kind == CRITERION_MANY:
            dists = [Dist.from_json(d) for d in inputs["dists"]]
            chk = check_many_sums(dists, v, float(params["epsilon"]))
        elif kind == CRITERION_T11:
            n = int(inputs["set"]["n"])
            members = sorted(int(h, 16) for h in inputs["set"]["elements"])
            chk = check_theorem_11(members, uniform_on(members, n), v, float(params["epsilon"]))
        elif kind == CRITERION_PFR:
            p, q = Dist.from_json(inputs["p"]), Dist.from_json(inputs["q"])
            chk = check_pfr(p, q, v)
        else:
            raise ValidationError(f"unknown bundle kind {kind!r}")
        _compare(report, chk, cert["achieved"], v, tol)
    except (
        AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError, RuntimeError
    ) as exc:
        report.ok = False
        report.failures.append(f"bundle rejected: {exc}")
    return report

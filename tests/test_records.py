"""One JSON rule for every result record: a record's JSON is its repr fields,
by name, each made plain, plus at most one derived entry."""

import dataclasses
import json
from typing import NamedTuple

import numpy as np
import pytest

from entropic_doubling.certify import set_bundle, solve_bundle, verify_bundle
from entropic_doubling.dist import Dist, random_dist, sum_fibers, uniform_on_subspace
from entropic_doubling.endgame import EndgameRow, FiberGrid, endgame
from entropic_doubling.entropy import doubling_mass, fibring_decompose, shannon_entropy
from entropic_doubling.families import doubling_stats, hamming_ball
from entropic_doubling.gf2 import Subspace, span
from entropic_doubling.pipeline import (
    TraceStep,
    analyze_set,
    local_to_global,
    solve_B,
    y_size_lower_bound_check,
)
from entropic_doubling.records import Record, plain
from entropic_doubling.verification import SuiteResult

JSON_TYPES = (dict, list, str, int, float, bool, type(None))


def assert_plain(obj):
    """Every node of obj is exactly a JSON type: no numpy scalar, no tuple."""
    assert type(obj) in JSON_TYPES, type(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            assert type(key) is str
            assert_plain(value)
    elif isinstance(obj, list):
        for value in obj:
            assert_plain(value)


class Pair(NamedTuple):
    label: int
    subspace: Subspace


@dataclasses.dataclass(frozen=True)
class Outer(Record):
    stats: object
    values: tuple
    hidden: int = dataclasses.field(default=0, repr=False)


class TestPlain:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (np.int64(7), 7),
            (np.float64(0.25), 0.25),
            (np.bool_(True), True),
            (np.bool_(False), False),
        ],
    )
    def test_numpy_scalars_become_python(self, value, expected):
        out = plain(value)
        assert out == expected and type(out) is type(expected)

    def test_ndarray_becomes_nested_lists(self):
        out = plain(np.arange(6, dtype=np.int64).reshape(2, 3))
        assert out == [[0, 1, 2], [3, 4, 5]]
        assert_plain(out)
        assert_plain(plain(np.array([0.5, 1.5])))

    def test_tuple_becomes_list(self):
        out = plain((1, np.float64(2.5), (np.int64(3),)))
        assert out == [1, 2.5, [3]]
        assert_plain(out)

    def test_named_tuple_becomes_dict_of_fields(self):
        v = span([5, 6], 3)
        out = plain(Pair(np.int64(4), v))
        assert out == {"label": 4, "subspace": {"n": 3, "basis": ["5", "6"]}}
        assert_plain(out)

    def test_subspace_and_dist_keep_their_formats(self):
        v = span([5, 6], 3)
        d = random_dist(3, np.random.default_rng(0))
        assert plain(v) == v.to_json() == {"n": 3, "basis": ["5", "6"]}
        assert plain(d) == d.to_json()
        assert_plain(plain({"v": v, "d": d}))

    def test_nested_record(self):
        stats = doubling_stats(hamming_ball(4, 1))
        out = plain({"outer": Outer(stats, (np.float64(1.0), span([1], 2)), hidden=3)})
        assert out == {
            "outer": {
                "stats": {"size": stats.size, "sumset_size": stats.sumset_size, "eta": stats.eta},
                "values": [1.0, {"n": 2, "basis": ["1"]}],
            }
        }
        assert_plain(out)


def _endgame_pair():
    rng = np.random.default_rng(4)
    p, q = random_dist(3, rng), random_dist(3, rng)
    eta = min(0.5, doubling_mass(p, q) / (shannon_entropy(p) + shannon_entropy(q)))
    return p, q, eta


def _l2g_result():
    v = span([1, 2], 3)
    u = uniform_on_subspace(v)
    fam = sum_fibers(u, u)
    table = {(a, b): v for a in fam.labels for b in fam.labels}
    return local_to_global(FiberGrid(fam, fam, table), 0.4, np.random.default_rng(0))


def _dist_pair():
    rng = np.random.default_rng(1)
    return random_dist(3, rng), random_dist(3, rng)


def _records():
    """One of each result record, with the entry its JSON derives."""
    p, q = _dist_pair()
    v = span([1, 2], 3)
    result = solve_B(p, q, 0.3, 0.1, seed=0)
    step = TraceStep(kind="BASE", added=Subspace.zero(3), dim_total=0, h_before=1.0, h_after=0.5)
    return [
        (result.certificate, None),
        (doubling_stats(hamming_ball(4, 1)), None),
        (fibring_decompose(p, q, v), "identity_gap"),
        (step, "decrement"),
        (y_size_lower_bound_check(p, q, span([1], 3), v), None),
        (_l2g_result(), None),
        (result, "trivial"),
        (endgame(*_endgame_pair()), "fiber_cap"),
        (verify_bundle(solve_bundle(result, p, q)), None),
        (SuiteResult("suite", checks=2, notes=["a"]), "passed"),
    ]


@pytest.mark.parametrize("record, derived", _records(), ids=lambda r: type(r).__name__)
def test_json_keys_are_repr_fields_plus_derived(record, derived):
    payload = record.to_json()
    fields = [f.name for f in dataclasses.fields(record) if f.repr]
    assert list(payload) == fields + ([derived] if derived else [])
    for name in fields:
        if name != "notes":  # SuiteResult keeps its first 20 notes
            assert payload[name] == plain(getattr(record, name))
    if derived:
        assert payload[derived] == plain(getattr(record, derived))
    assert_plain(payload)


def test_endgame_json_has_no_grid_and_rows_by_name():
    t = endgame(*_endgame_pair())
    payload = t.to_json()
    assert "grid" not in payload and "verdicts" not in payload
    assert t.verdicts == {
        "mi bound": t.mi_bound_holds,
        "z entropy gaps": t.z_entropy_gap_holds,
        "480k expectation": t.expectation_holds,
    }
    assert payload["fiber_cap"] == t.grid.cap
    row = t.table[0]
    assert isinstance(row, EndgameRow) and len(row) == 8 and row[3] is row.subspace
    assert payload["table"][0] == {**row._asdict(), "subspace": row.subspace.to_json()}


def test_numpy_note_bundles_dumps_and_verifies():
    p, q = _dist_pair()
    result = solve_B(p, q, 0.3, 0.1, seed=0)
    note = {"gap": np.float64(0.125), "count": np.int64(2), "ok": np.bool_(True), "h": np.arange(3.0)}
    step = TraceStep(
        kind="CASE_1", added=Subspace.zero(3), dim_total=0,
        h_before=np.float64(1.0), h_after=np.float64(0.5), note=note,
    )
    bundle = solve_bundle(dataclasses.replace(result, steps=result.steps + (step,)), p, q)
    assert_plain(bundle)
    stored = bundle["steps"][-1]
    assert stored["note"] == {"gap": 0.125, "count": 2, "ok": True, "h": [0.0, 1.0, 2.0]}
    assert verify_bundle(bundle).ok
    assert verify_bundle(json.loads(json.dumps(bundle))).ok


def test_numpy_inputs_are_made_plain():
    elements = hamming_ball(4, 1)
    bundle = set_bundle(analyze_set(elements, 4, 0.2), elements, np.int64(4))
    assert type(bundle["inputs"]["set"]["n"]) is int
    assert_plain(bundle)
    assert verify_bundle(bundle).ok


def _record_serializations(monkeypatch) -> list:
    """Each later to_json call on a record, a Subspace or a Dist, as (class
    name, object id).  A record's own to_json override reaches Record's."""
    calls = []
    for cls in (Record, Subspace, Dist):

        def counted(self, original=cls.to_json):
            calls.append((type(self).__name__, id(self)))
            return original(self)

        monkeypatch.setattr(cls, "to_json", counted)
    return calls


def test_a_solve_serializes_nothing_and_a_bundle_each_record_once(monkeypatch):
    # Trace notes hold records, Subspaces and Dists; only a bundle turns them
    # into JSON, through plain, one to_json call per record.
    calls = _record_serializations(monkeypatch)
    elements = hamming_ball(5, 1)
    analyzed = analyze_set(elements, 5, 0.2)
    rng = np.random.default_rng(4)
    p, q = random_dist(5, rng), random_dist(5, rng)
    solved = solve_B(p, q, 0.2, 0.05, seed=1)
    for result in (analyzed, solved):
        assert "ENDGAME" in [s.kind for s in result.steps] and result.steps[-1].kind == "DESCENT"
    assert calls == []
    for build, inputs in (
        (lambda: set_bundle(analyzed, elements, 5), []),
        (lambda: solve_bundle(solved, p, q), [id(p), id(q)]),
    ):
        calls.clear()
        bundle = build()
        records = [i for name, i in calls if name not in ("Subspace", "Dist")]
        assert len(records) == len(set(records)) > 0
        assert [i for name, i in calls if name == "Dist"] == inputs
        assert verify_bundle(json.loads(json.dumps(bundle))).ok

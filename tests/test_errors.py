"""Argument misuse raises a typed error with a one-line message, which is
still a ValueError for callers that catch that."""

import numpy as np
import pytest

from entropic_doubling.dist import map_joint, point_mass, product, random_dist, wht
from entropic_doubling.entropy import (
    conditional_entropy,
    conditional_mutual_information,
    mutual_information,
)
from entropic_doubling.errors import EntropicDoublingError
from entropic_doubling.gf2 import span
from entropic_doubling.oracle import OBJECTIVE_STATEMENT_B, StatementParams, exhaustive_best_subspace
from entropic_doubling.pipeline import (
    check_statement_A,
    check_statement_B,
    inductive_step,
    local_to_global,
    y_size_lower_bound_check,
)


def _joint():
    return product(point_mass(0, 2), point_mass(0, 2), point_mass(0, 2))


def _pair():
    rng = np.random.default_rng(0)
    return random_dist(3, rng), random_dist(3, rng)


MISUSE = {
    "marginal of a missing block": lambda: _joint().marginal(3),
    "wht of a non-power-of-two length": lambda: wht(np.ones(6)),
    "map_joint to no block": lambda: map_joint(_joint(), []),
    "map_joint of a repeated block": lambda: map_joint(_joint(), [(0, 0)]),
    "conditional_entropy on itself": lambda: conditional_entropy(_joint(), 0, 0),
    "mutual_information with itself": lambda: mutual_information(_joint(), 0, 0),
    "conditional_mutual_information overlap": lambda: conditional_mutual_information(
        _joint(), 0, 1, 1
    ),
    "unknown objective": lambda: exhaustive_best_subspace(*_pair(), "smallest"),
    "statement B without epsilon": lambda: check_statement_B(
        *_pair(), span([1], 3), StatementParams(eta=0.3)
    ),
    "statement A without c": lambda: check_statement_A(
        *_pair(), span([1], 3), StatementParams(eta=0.3)
    ),
    "y-size lemma with W outside V": lambda: y_size_lower_bound_check(
        *_pair(), span([2], 3), span([1], 3)
    ),
    "local_to_global at zeta 0": lambda: local_to_global(None, 0.0, np.random.default_rng(0)),
    "inductive_step with eps0 >= eta0": lambda: inductive_step(
        *_pair(), 0.2, 0.3, lambda a, b: None
    ),
}


@pytest.mark.parametrize("call", MISUSE.values(), ids=MISUSE.keys())
def test_misuse_raises_typed_one_line_error(call):
    with pytest.raises(EntropicDoublingError) as err:
        call()
    assert isinstance(err.value, ValueError)
    message = str(err.value)
    assert message and "\n" not in message


@pytest.mark.parametrize("missing", ["eta", "epsilon"])
def test_missing_statement_b_parameter_is_named(missing):
    params = {"eta": 0.3, "epsilon": 0.1}
    del params[missing]
    with pytest.raises(EntropicDoublingError, match=f"params\\['{missing}'\\]"):
        exhaustive_best_subspace(*_pair(), OBJECTIVE_STATEMENT_B, params=params)

"""The golden files: `tests/goldens.py` writes every one of them byte for
byte, and every engine result pinned in `engines.jsonl` is reproduced.

`engines.jsonl` was written before the engines shared one level format,
`(den, {(occupied set, state): numerator})`: the values, types and
refusals of `measure`, `path_distribution`, the masses, `is_abelian` and
both paths of `count_words_to_set` must not move with the format."""

import json

import pytest

import goldens
from parkline.enumeration import count_parking, count_words_to_set, orbit_audit
from parkline.probabilistic import (
    is_abelian,
    measure,
    orbit_parking_mass,
    path_distribution,
    total_parking_mass,
)
from parkline.procedures import RIGHT, Procedure

ENGINE_LINES = (goldens.GOLDEN / "engines.jsonl").read_text().splitlines(keepends=True)
CASES = goldens.engine_cases()


@pytest.mark.parametrize("text", ENGINE_LINES, ids=[json.loads(text)[0] for text in ENGINE_LINES])
def test_engine_result_is_byte_identical(text):
    key = json.loads(text)[0]
    assert goldens.engine_line(key, CASES[key]()) == text


USAGE_LINES = (goldens.GOLDEN / "usage.jsonl").read_text().splitlines()


@pytest.mark.parametrize("text", USAGE_LINES, ids=[" ".join(json.loads(t)[0]) or "-" for t in USAGE_LINES])
def test_usage_is_byte_identical(text):
    # help, usage errors and early refusals, whichever subcommands a call
    # registers
    assert json.dumps(goldens.usage_outcome(json.loads(text)[0])) == text


def test_script_writes_every_golden(tmp_path):
    goldens.write_all(tmp_path)
    for name in ("cli.jsonl", "prob.jsonl", "usage.jsonl", "engines.jsonl"):
        assert (tmp_path / name).read_bytes() == (goldens.GOLDEN / name).read_bytes(), name


def dict_state_rule() -> Procedure:
    """Counts its cars in a dict, which cannot key a run."""
    return Procedure(
        "dict-state",
        decide=lambda st, occ, blk, a: RIGHT,
        init_state=dict,
        update=lambda st, a, spot: {"cars": st.get("cars", 0) + 1},
    )


@pytest.mark.parametrize(
    "query",
    [
        lambda p: measure(p, (1, 1)),
        lambda p: path_distribution(p, (1, 1)),
        lambda p: total_parking_mass(p, 3),
        lambda p: orbit_parking_mass(p, 3),
        lambda p: is_abelian(p, 2),
        lambda p: count_parking(p, 3),
        lambda p: count_words_to_set(p, (1, 2), "brute"),
        lambda p: orbit_audit(p, 3),
    ],
    ids=["measure", "path_distribution", "total_parking_mass", "orbit_parking_mass",
         "is_abelian", "count_parking", "brute", "orbit_audit"],
)
def test_dict_state_is_refused_by_the_engines(query):
    # the engines key runs on (occupied set, state), so a state must hash
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        query(dict_state_rule())

"""report.blocks, the question matcher of every comparison, and the tool
comparison built on it."""
import random

import pytest

from elicitbench.errors import SchemaError
from elicitbench.report import blocks, tool_comparison_section

from helpers import as_columns, make_scored


def answer(qid, value, model="m", effort="low", truth=10.0):
    return make_scored(value, value - 1.0, value + 1.0, truth, model=model, effort=effort,
                       qid=qid)


def by_model_effort(r):
    return (r.model_id, r.effort)


def matching(levels):
    """blocks of the levels' records, each level's records as the columns of their groups,
    as a list."""
    return list(blocks({level: as_columns(records) for level, records in levels.items()},
                       within=by_model_effort))


def answered(record):
    return (record.model_id, record.effort, record.question_id, record.triplet.value)


def ordered(matched):
    """The matched questions with their rows as lists, so that comparing them compares their
    order too; each matched row is given as `answered` gives its record."""
    return [(key, qid, [(level, (g.model_id, g.effort, g.question_id[i], g.value[i]))
                        for level, (g, i) in cell.items()])
            for key, qid, cell in matched]


class TestBlocks:
    def test_a_question_missing_at_one_level_is_dropped(self):
        base = [answer("q1", 11.0), answer("q2", 12.0), answer("q3", 13.0)]
        tools = [answer("q3", 23.0), answer("q1", 21.0)]
        matched = matching({"base": base, "tools": tools})
        assert ordered(matched) == [
            (("m", "low"), "q1", [("base", answered(base[0])), ("tools", answered(tools[1]))]),
            (("m", "low"), "q3", [("base", answered(base[2])), ("tools", answered(tools[0]))]),
        ]

    def test_shuffled_records_give_the_same_blocks_in_question_id_order(self):
        rng = random.Random(5)
        levels = {
            level: [answer(f"q{i}", rng.uniform(0.0, 20.0), model=model, effort=effort)
                    for model in ("beta", "alpha") for effort in ("high", "low")
                    for i in range(30) if rng.random() < 0.8]
            for level in ("low", "medium", "high")
        }
        matched = matching(levels)
        for seed in range(5):
            shuffled = {level: random.Random(seed).sample(records, len(records))
                        for level, records in levels.items()}
            assert ordered(matching(shuffled)) == ordered(matched)
        keys = [key for key, _, _ in matched]
        assert list(dict.fromkeys(keys)) == [("alpha", "high"), ("alpha", "low"),
                                             ("beta", "high"), ("beta", "low")]
        assert keys == sorted(keys)
        for key in dict.fromkeys(keys):
            questions = [qid for k, qid, _ in matched if k == key]
            assert questions == sorted(set(questions))
            expected = set.intersection(*({r.question_id for r in records
                                           if by_model_effort(r) == key}
                                          for records in levels.values()))
            assert set(questions) == expected
        assert all(list(cell) == ["low", "medium", "high"] for _, _, cell in matched)

    @pytest.mark.parametrize("level", ["base", "tools"])
    def test_a_second_record_for_a_question_at_one_level_is_a_schema_error(self, level):
        levels = {"base": [answer("q1", 11.0)], "tools": [answer("q1", 21.0)]}
        levels[level].append(answer("q1", 31.0))
        with pytest.raises(SchemaError, match=f"the {level} records hold question q1 twice"):
            matching(levels)

    def test_a_repeat_of_a_question_the_other_level_lacks_is_a_schema_error(self):
        # the merge reads every row of a level, past the last question the levels share
        levels = {"base": [answer("q1", 11.0), answer("q9", 19.0), answer("q9", 29.0)],
                  "tools": [answer("q1", 21.0)]}
        with pytest.raises(SchemaError, match="the base records hold question q9 twice"):
            matching(levels)

    def test_one_question_under_two_within_keys_is_two_blocks(self):
        base = [answer("q1", 11.0, model="a"), answer("q1", 12.0, model="b")]
        tools = [answer("q1", 21.0, model="b")]
        matched = matching({"base": base, "tools": tools})
        assert ordered(matched) == [
            (("b", "low"), "q1", [("base", answered(base[1])), ("tools", answered(tools[0]))]),
        ]


def test_tool_comparison_pairs_only_the_matched_questions():
    # Truth 10 everywhere: base AEs 2, 4 and 10, tool AEs 1 and 7; q3 has no tool answer.
    base = [answer("q1", 12.0), answer("q2", 14.0), answer("q3", 20.0)]
    tools = [answer("q2", 17.0), answer("q1", 11.0)]
    table = tool_comparison_section(as_columns(base), as_columns(tools))
    assert [row[0] for row in table.rows] == ["(all)", "d"]
    for row in table.rows:
        cells = dict(zip(table.columns, row))
        assert cells["n_pairs"] == 2
        assert (cells["median_ae_base"], cells["median_ae_tools"]) == (3.0, 4.0)
        assert cells["win_rate"] == 0.5
        # differences -1 and +3: signed ranks -1 and +2
        assert cells["wilcoxon_w"] == 1.0
        assert cells["rank_biserial"] == pytest.approx(1.0 / 3.0)

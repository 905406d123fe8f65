"""Class columns on id arrays: S_n columns are cycle types, tables build
without enumerating their groups, and whole-group columns make no
per-element lookups.  That columns are conjugacy classes is checked in
test_groups."""

from __future__ import annotations

import pytest

from cosetlab.chartab import CharacterTable
from cosetlab.cli import parse_group_table
from cosetlab.gl2rep import char_table as gl2_char_table
from cosetlab.groups import GROUP_ENUM_CAP
from cosetlab.symrep import sn_character_table

from reference_models import cycle_type


def test_sn_columns_are_cycle_types():
    for n in range(1, 8):
        table = sn_character_table(n)
        ids = table.group.ids()
        keys = [table.class_keys[c] for c in table.element_columns()]
        assert keys == [cycle_type(v) for v in ids.values]


@pytest.mark.parametrize("spec", ("s6", "gl2_5", "gl2_2xs3", "wreath_s3"))
def test_element_columns_make_no_per_element_lookups(spec, monkeypatch):
    calls = []
    lookup = CharacterTable.class_index_of
    monkeypatch.setattr(
        CharacterTable, "class_index_of", lambda self, el: calls.append(el) or lookup(self, el)
    )
    table = parse_group_table(spec)
    assert len(table.element_columns()) == table.group.order
    assert calls == []


def test_tables_past_the_enumeration_cap_enumerate_nothing():
    for table in (sn_character_table(10), gl2_char_table(27)):
        G = table.group
        assert G.order > GROUP_ENUM_CAP
        assert G._elements is None and G._ids is None
        assert table.orthogonality_error() < 1e-9

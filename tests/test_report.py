"""Report documents: exact renderings and strict JSON parsing."""

import json

import pytest

from rootkit.report import ReportDocument, ReportRow, from_json, to_csv, to_json, to_table

# No classify document of a type up to rank 8 has a fractional entry, so
# this hand-built one pins the rendering of "-1/2", of a missing witness
# and of an empty one.
DOC = ReportDocument(
    schema_version="1", ctype="G2", all_equivalent=False,
    highest_root=("-1/2", "1", "0"), highest_short=("0", "1/2", "-1/2"),
    rows=(
        ReportRow(index=0, bourbaki=1, simple_root=("-1/2", "1/2", "0"), m=2,
                  m_dual=1, special=True, cospecial=False, quasi_constant=True,
                  dom_eq_levi_dom=False, witness=None),
        ReportRow(index=1, bourbaki=2, simple_root=("1", "-1/2", "-1/2"), m=3,
                  m_dual=3, special=False, cospecial=True, quasi_constant=False,
                  dom_eq_levi_dom=True, witness=()),
    ))

JSON = """\
{
  "schema_version": "1",
  "ctype": "G2",
  "all_equivalent": false,
  "highest_root": [
    "-1/2",
    "1",
    "0"
  ],
  "highest_short": [
    "0",
    "1/2",
    "-1/2"
  ],
  "rows": [
    {
      "index": 0,
      "bourbaki": 1,
      "simple_root": [
        "-1/2",
        "1/2",
        "0"
      ],
      "m": 2,
      "m_dual": 1,
      "special": true,
      "cospecial": false,
      "quasi_constant": true,
      "dom_eq_levi_dom": false,
      "witness": null
    },
    {
      "index": 1,
      "bourbaki": 2,
      "simple_root": [
        "1",
        "-1/2",
        "-1/2"
      ],
      "m": 3,
      "m_dual": 3,
      "special": false,
      "cospecial": true,
      "quasi_constant": false,
      "dom_eq_levi_dom": true,
      "witness": []
    }
  ]
}
"""

CSV = """\
ctype,index,bourbaki,simple_root,m,m_dual,special,cospecial,quasi_constant,dom_eq_levi_dom,witness
G2,0,1,-1/2 1/2 0,2,1,true,false,true,false,
G2,1,2,1 -1/2 -1/2,3,3,false,true,false,true,
"""

TABLE = """\
G2: all_equivalent=no  highest_root=[-1/2, 1, 0]  highest_short=[0, 1/2, -1/2]
idx  bourbaki  simple root      m  m_dual  special  cospecial  quasi_constant  dom=levi_dom  witness
0    a1        [-1/2, 1/2, 0]   2  1       yes      no         yes             no            -
1    a2        [1, -1/2, -1/2]  3  3       no       yes        no              yes           []
"""


class TestRendering:
    def test_json(self):
        assert to_json(DOC) == JSON

    def test_csv(self):
        assert to_csv(DOC) == CSV

    def test_table(self):
        assert to_table(DOC) == TABLE

    def test_json_roundtrip(self):
        assert from_json(JSON) == DOC

    def test_from_json_canonicalizes_rationals(self):
        data = json.loads(JSON)
        data["rows"][0]["simple_root"] = ["-2/4", "3/6", "0/5"]
        assert from_json(json.dumps(data)) == DOC


def _edited(path, value):
    data = json.loads(JSON)
    *head, last = path
    target = data
    for key in head:
        target = target[key]
    target[last] = value
    return json.dumps(data)


class TestStrictParsing:
    @pytest.mark.parametrize("path, value", [
        (("rows", 0, "special"), "false"),
        (("rows", 1, "dom_eq_levi_dom"), 1),
        (("all_equivalent", ), "no"),
    ])
    def test_bool_fields_must_be_booleans(self, path, value):
        with pytest.raises(ValueError, match=repr(path[-1])):
            from_json(_edited(path, value))

    @pytest.mark.parametrize("path, value", [
        (("rows", 0, "m"), 2.7),
        (("rows", 0, "m_dual"), 1.0),
        (("rows", 1, "index"), True),
        (("rows", 1, "bourbaki"), "2"),
    ])
    def test_int_fields_must_be_integers(self, path, value):
        with pytest.raises(ValueError, match=repr(path[-1])):
            from_json(_edited(path, value))

    @pytest.mark.parametrize("value", ["1 2", [1, "2"], [1.5], [True], 3])
    def test_witness_must_be_null_or_integer_list(self, value):
        with pytest.raises(ValueError, match="'witness'"):
            from_json(_edited(("rows", 0, "witness"), value))

    @pytest.mark.parametrize("path, value", [
        (("highest_root", ), "-1/2 1 0"),
        (("highest_root", ), [-1, 1, 0]),
        (("highest_short", ), ["0", "half", "0"]),
        (("rows", 0, "simple_root"), ["1/0", "0", "0"]),
        (("rows", 1, "simple_root"), None),
    ])
    def test_vectors_must_be_rational_string_lists(self, path, value):
        with pytest.raises(ValueError, match=repr(path[-1])):
            from_json(_edited(path, value))

    def test_zero_denominator_reason_named(self):
        with pytest.raises(ValueError, match="'highest_root'.*zero denominator"):
            from_json(_edited(("highest_root", ), ["1/0", "0", "0"]))

    @pytest.mark.parametrize("path, value", [
        (("ctype", ), 2),
        (("schema_version", ), 1),
    ])
    def test_str_fields_must_be_strings(self, path, value):
        with pytest.raises(ValueError, match=repr(path[-1])):
            from_json(_edited(path, value))

    @pytest.mark.parametrize("path, value", [
        (("schema_version", ), "99"),
        (("schema_version", ), "1.0"),
        (("extra", ), 1),
        (("rows", 1, "note"), "x"),
    ])
    def test_other_schema_or_unknown_key_named(self, path, value):
        with pytest.raises(ValueError, match=repr(path[-1])):
            from_json(_edited(path, value))

    def test_missing_field_named(self):
        data = json.loads(JSON)
        del data["rows"][1]["cospecial"]
        with pytest.raises(ValueError, match="'cospecial'"):
            from_json(json.dumps(data))

    @pytest.mark.parametrize("value", [{"index": 0}, "row", None])
    def test_rows_must_be_a_list(self, value):
        with pytest.raises(ValueError, match="'rows'"):
            from_json(_edited(("rows", ), value))

    @pytest.mark.parametrize("value", [[], "row", None])
    def test_each_row_must_be_an_object(self, value):
        with pytest.raises(ValueError, match="ReportRow"):
            from_json(_edited(("rows", 0), value))

    def test_document_must_be_an_object(self):
        with pytest.raises(ValueError, match="ReportDocument"):
            from_json("[]")

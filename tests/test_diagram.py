import pytest

from vknotoid.diagram import (KnotoidDiagram, Pass, PairingError,
                              PositionError, SignError, DiagramSyntaxError,
                              insert_move, parse_diagram,
                              product, render_diagram, writhe)


def test_parse_trivial():
    d = parse_diagram("")
    assert d.classical_count == 0 and d.virtual_count == 0
    assert d.semi_arc_count == 1
    assert parse_diagram("name k0\ncode -\n").classical_count == 0


def test_parse_kink():
    d = parse_diagram("O+1,U+1")
    assert d.classical_count == 1
    assert d.semi_arc_count == 3
    assert writhe(d) == 1


def test_parse_file_grammar_and_render_round_trip():
    text = "name sample\ncode O-1,V1,U-2,U-1,O-2,V1\n"
    d = parse_diagram(text)
    assert d.name == "sample"
    assert d.classical_count == 2 and d.virtual_count == 1
    assert render_diagram(d) == text
    assert parse_diagram(render_diagram(d)) == d


def test_whitespace_insensitive():
    assert parse_diagram("O+1 , U+1") == parse_diagram("O+1,U+1")


def test_parse_errors():
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("O+1,X+2")
    with pytest.raises(PairingError):
        parse_diagram("O+1,U+1,O+2")
    with pytest.raises(PairingError):
        parse_diagram("O+1,O+1")
    with pytest.raises(SignError):
        parse_diagram("O+1,U-1")
    with pytest.raises(PairingError):
        parse_diagram("V1")
    # a second name or code line is an error, not a silent override
    for text in ("name a\ncode O+1,U+1\ncode -\nname b",
                 "name a\nname b\ncode -", "code -\ncode O+1,U+1"):
        with pytest.raises(DiagramSyntaxError, match="repeated"):
            parse_diagram(text)


def test_writhe(corpus):
    assert writhe(parse_diagram("")) == 0
    assert writhe(parse_diagram("O+1,U+1")) == 1
    assert writhe(corpus["2.1.1"]) == -2


def test_semi_arc_structure(corpus):
    for d in corpus.values():
        assert d.semi_arc_count == 2 * d.classical_count + 1
        for c in d.crossings().values():
            assert c.u_out == c.u_in + 1
            assert c.o_out == c.o_in + 1


def crossing_relations(diagram):
    """The two relations of each crossing's sideways (a, b, c, d),
    a under b = d and b over a = c, written over 1-based semi-arc labels
    a_1 .. a_{2c+1}, in ascending crossing id."""
    crossings = diagram.crossings()
    out = []
    for cid in sorted(crossings):
        a, b, c, d = (k + 1 for k in crossings[cid].sideways)
        out += ["a%d ub a%d = a%d" % (a, b, d), "a%d ob a%d = a%d" % (b, a, c)]
    return out


def test_crossing_relations_shape(corpus):
    for d in corpus.values():
        rels = crossing_relations(d)
        assert len(rels) == 2 * d.classical_count
        # every semi-arc is a port of some crossing
        labels = {int(w[1:]) for r in rels for w in r.split() if w[0] == "a"}
        assert labels == set(range(1, d.semi_arc_count + 1))


def test_relations_of_two_crossing_example():
    # one positive and one negative crossing; semi-arcs a..e in traversal
    # order come out as these relations
    #   c under b = d,  b over c = a,  c under d = b,  d over c = e
    d = parse_diagram("O+1,U-2,U+1,O-2,V1,V1")
    rels = set(crossing_relations(d))
    assert rels == {
        "a3 ub a2 = a4",   # c under b = d   (positive crossing)
        "a2 ob a3 = a1",   # b over c = a
        "a3 ub a4 = a2",   # c under d = b   (negative crossing)
        "a4 ob a3 = a5",   # d over c = e
    }


def test_relations_trivial_and_kink():
    assert crossing_relations(parse_diagram("")) == []
    # a kink produces the diagonal relations, mirroring the first axiom
    rels = crossing_relations(parse_diagram("O+1,U+1"))
    assert set(rels) == {"a2 ub a2 = a3", "a2 ob a2 = a1"}


def test_product_identity(corpus):
    trivial = parse_diagram("")
    d = corpus["2.1.1"]
    assert product(trivial, d).passes == d.passes
    assert product(d, trivial).passes == d.passes


def test_product_renumbers_and_adds_writhe(corpus):
    d = corpus["2.1.1"]
    p = product(d, d)
    assert p.classical_count == 4
    assert p.virtual_count == 2
    assert writhe(p) == -4
    # ids stay disjoint between the factors
    ids = [q.crossing for q in p.classical_passes]
    assert len(set(ids)) == 4


def test_insert_move_r1():
    d = parse_diagram("")
    out = insert_move(d, "R1", 0, sign=1, over_first=True)
    assert [p.kind for p in out.passes] == ["O", "U"]
    assert writhe(out) == 1
    out = insert_move(d, "R1", 0, sign=-1, over_first=False)
    assert [p.kind for p in out.passes] == ["U", "O"]
    assert writhe(out) == -1


def test_insert_move_vr1():
    out = insert_move(parse_diagram(""), "VR1", 0)
    assert [p.kind for p in out.passes] == ["V", "V"]
    assert out.virtual_count == 1


def test_insert_move_r2_structure(corpus):
    d = corpus["2.1.1"]
    out = insert_move(d, "R2", 1, 4, sign=1, parallel=True)
    assert out.classical_count == d.classical_count + 2
    assert writhe(out) == writhe(d)


def test_insert_move_vr2_structure():
    out = insert_move(parse_diagram("O+1,U+1"), "VR2", 0, 2)
    assert out.virtual_count == 2
    assert out.classical_count == 1


def test_insert_move_position_errors():
    d = parse_diagram("O+1,U+1")
    with pytest.raises(PositionError):
        insert_move(d, "R1", 5)
    with pytest.raises(PositionError):
        insert_move(d, "R2", 0)
    with pytest.raises(PositionError):
        insert_move(d, "R2", 0, 99)


def test_insert_move_knows_four_moves():
    with pytest.raises(ValueError, match="^unknown move 'R3'$"):
        insert_move(parse_diagram("O+1,U+1"), "R3", 0)


def test_classical_sign_must_be_plus_or_minus_one():
    # the bracket tables exist only for signs +1 and -1, so any other sign
    # is refused when the diagram is built
    with pytest.raises(SignError):
        KnotoidDiagram("", (Pass("O", 1, 0), Pass("U", 1, 0)))
    with pytest.raises(SignError):
        insert_move(parse_diagram(""), "R1", 0, sign=2)


def test_fresh_ids_do_not_collide():
    d = parse_diagram("O+3,U+3,V7,V7")
    out = insert_move(d, "R2", 0, 1)
    ids = [p.crossing for p in out.classical_passes]
    assert sorted(set(ids)) == [3, 4, 5]
    out2 = insert_move(d, "VR2", 0, 0)
    vids = {p.crossing for p in out2.passes if p.kind == "V"}
    assert vids == {7, 8, 9}

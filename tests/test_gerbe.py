import pytest

from hassewitt.gerbe import (
    ALL_MORPHISMS,
    ALL_OBJECTS,
    BASE_OBJECT,
    CHI_A,
    CHI_B,
    GALOIS_GROUP,
    IDENTITY,
    SIGMA_A,
    SIGMA_AB,
    SIGMA_B,
    GaloisElement,
    GroupoidMorphism,
    GroupoidObject,
    TwoCocycle,
    all_path_families,
    coboundary,
    cohomologous,
    compose,
    cup_character_cocycle,
    default_path_family,
    galois_act,
    galois_act_object,
    h2_census,
    identity_morphism,
    inverse,
    loop_class,
    main_example_report,
    morphisms_between,
    obstruction_cocycle,
    zero_cocycle,
)
from hassewitt.gerbe import _all_coboundaries


def composable_pairs():
    for f in ALL_MORPHISMS:
        for g in ALL_MORPHISMS:
            if f.dst == g.src:
                yield g, f


def test_groupoid_counts():
    assert len(ALL_OBJECTS) == 4
    assert [str(obj) for obj in ALL_OBJECTS] == ["(+, +)", "(+, -)", "(-, +)", "(-, -)"]
    assert len(ALL_MORPHISMS) == 32
    for obj in ALL_OBJECTS:
        loops = [f for f in ALL_MORPHISMS if f.src == f.dst == obj]
        assert sorted(f.c4 for f in loops) == [0, 2]
        assert all(f.e == 1 for f in loops)
    for src in ALL_OBJECTS:
        for dst in ALL_OBJECTS:
            pair = morphisms_between(src, dst)
            assert len(pair) == 2
            assert (pair[0].c4 - pair[1].c4) % 4 == 2


def test_morphism_admissibility():
    with pytest.raises(ValueError):
        GroupoidMorphism(BASE_OBJECT, BASE_OBJECT, 1, 1)  # odd coefficient on a loop
    with pytest.raises(ValueError):
        GroupoidMorphism(BASE_OBJECT, GroupoidObject(3), 0, 1)  # needs odd c4
    with pytest.raises(ValueError):
        GroupoidMorphism(BASE_OBJECT, GroupoidObject(1), 1, 1)  # needs e = -1
    with pytest.raises(ValueError):
        GroupoidMorphism(BASE_OBJECT, BASE_OBJECT, 5, 1)
    with pytest.raises(ValueError):
        GroupoidMorphism(BASE_OBJECT, BASE_OBJECT, 0, 0)
    with pytest.raises(ValueError):
        GroupoidObject(4)


def test_compose_rejects_endpoint_mismatch():
    f = identity_morphism(BASE_OBJECT)
    g = identity_morphism(GroupoidObject(1))
    with pytest.raises(ValueError):
        compose(g, f)


def test_category_axioms_exhaustively():
    for f in ALL_MORPHISMS:
        assert compose(identity_morphism(f.dst), f) == f
        assert compose(f, identity_morphism(f.src)) == f
        assert compose(inverse(f), f) == identity_morphism(f.src)
        assert compose(f, inverse(f)) == identity_morphism(f.dst)
    for g, f in composable_pairs():
        gf = compose(g, f)
        assert (gf.src, gf.dst) == (f.src, g.dst)
    for h in ALL_MORPHISMS:
        for g in ALL_MORPHISMS:
            if g.dst != h.src:
                continue
            for f in ALL_MORPHISMS:
                if f.dst != g.src:
                    continue
                assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_galois_group_structure():
    # the product of two elements is the element at the xor of their positions
    assert [g.position for g in GALOIS_GROUP] == [0, 1, 2, 3]
    act = galois_act_object
    assert str(act(SIGMA_A, BASE_OBJECT)) == "(-, +)"
    assert str(act(SIGMA_B, BASE_OBJECT)) == "(+, -)"
    assert act(SIGMA_A, act(SIGMA_B, BASE_OBJECT)) == act(SIGMA_AB, BASE_OBJECT)
    assert act(SIGMA_AB, act(SIGMA_A, BASE_OBJECT)) == act(SIGMA_B, BASE_OBJECT)
    for s in GALOIS_GROUP:
        for obj in ALL_OBJECTS:
            assert act(s, act(s, obj)) == obj
    with pytest.raises(ValueError):
        GaloisElement(4)


def test_galois_action_on_objects():
    for obj in ALL_OBJECTS:
        assert galois_act_object(IDENTITY, obj) == obj
    for s in GALOIS_GROUP:
        for t in GALOIS_GROUP:
            for obj in ALL_OBJECTS:
                st = GALOIS_GROUP[s.position ^ t.position]
                assert galois_act_object(st, obj) == galois_act_object(
                    s, galois_act_object(t, obj)
                )
    # the action on objects is simply transitive
    assert {galois_act_object(s, BASE_OBJECT) for s in GALOIS_GROUP} == set(ALL_OBJECTS)


def test_galois_action_is_functorial():
    for s in GALOIS_GROUP:
        for obj in ALL_OBJECTS:
            assert galois_act(s, identity_morphism(obj)) == identity_morphism(
                galois_act_object(s, obj)
            )
        for g, f in composable_pairs():
            assert galois_act(s, compose(g, f)) == compose(
                galois_act(s, g), galois_act(s, f)
            )
        for f in ALL_MORPHISMS:
            assert galois_act(s, inverse(f)) == inverse(galois_act(s, f))


def test_loop_class():
    plus, minus = morphisms_between(BASE_OBJECT, BASE_OBJECT)
    assert loop_class(plus) == 0
    assert loop_class(minus) == 1
    with pytest.raises(ValueError):
        loop_class(morphisms_between(BASE_OBJECT, GroupoidObject(1))[0])


def test_worked_composite():
    # (i, -1) o (1, -1) o (i, +1), read right to left from the base object
    f1 = GroupoidMorphism(BASE_OBJECT, GroupoidObject(3), 1, 1)
    f2 = GroupoidMorphism(GroupoidObject(3), GroupoidObject(1), 0, -1)
    f3 = GroupoidMorphism(GroupoidObject(1), BASE_OBJECT, 1, -1)
    out = compose(f3, compose(f2, f1))
    assert (out.c4, out.e) == (2, 1)  # the loop z -> -z
    assert loop_class(out) == 1


def one_bit_table(s, t):
    values = [0] * 16
    values[4 * s.position + t.position] = 1
    return values


def test_two_cocycle_validation():
    with pytest.raises(ValueError):
        TwoCocycle(())  # missing values
    with pytest.raises(ValueError, match="16 bits"):
        TwoCocycle([0] * 15)
    with pytest.raises(ValueError, match="normalized"):
        TwoCocycle(one_bit_table(IDENTITY, SIGMA_A))
    # the column side: c(s, 1) = 0 as well
    with pytest.raises(ValueError, match="normalized"):
        TwoCocycle(one_bit_table(SIGMA_A, IDENTITY))
    # lone nonzero entry breaks the cocycle identity
    with pytest.raises(ValueError, match="identity fails"):
        TwoCocycle(one_bit_table(SIGMA_A, SIGMA_A))
    with pytest.raises(ValueError):
        coboundary((1, 0, 0, 0))
    with pytest.raises(ValueError, match="4 bits"):
        coboundary((0, 1, 1))
    with pytest.raises(ValueError):
        cup_character_cocycle((1, 1, 1, 1), CHI_A)
    with pytest.raises(ValueError, match="4 bits"):
        cup_character_cocycle((0, 1, 0), CHI_A)


def test_coboundaries():
    assert len(_all_coboundaries()) == 2
    assert zero_cocycle() in _all_coboundaries()
    for b in _all_coboundaries():
        assert cohomologous(b, zero_cocycle())


def test_default_family_cocycle_is_the_character_cup():
    obs = obstruction_cocycle(default_path_family())
    assert obs == cup_character_cocycle(CHI_A, CHI_B)
    assert obs(SIGMA_A, SIGMA_B) == 1
    assert obs(SIGMA_B, SIGMA_A) == 0
    assert obs(SIGMA_A, SIGMA_AB) == 1
    assert not cohomologous(obs, zero_cocycle())


def test_all_families_give_one_class():
    families = all_path_families()
    assert len(families) == 8
    assert default_path_family() in families
    cocycles = [obstruction_cocycle(f) for f in families]
    cup = cup_character_cocycle(CHI_A, CHI_B)
    for c in cocycles:
        assert cohomologous(c, cup)


def test_obstruction_cocycle_rejects_bad_families():
    fam = default_path_family()
    with pytest.raises(ValueError, match="not 3"):
        obstruction_cocycle(fam[:3])
    minus_one = morphisms_between(BASE_OBJECT, BASE_OBJECT)[1]
    with pytest.raises(ValueError):
        obstruction_cocycle((minus_one, *fam[1:]))
    with pytest.raises(ValueError):
        obstruction_cocycle((fam[0], fam[3], *fam[2:]))  # wrong target object


def test_character_cups_are_distinct_classes():
    caa = cup_character_cocycle(CHI_A, CHI_A)
    cab = cup_character_cocycle(CHI_A, CHI_B)
    cbb = cup_character_cocycle(CHI_B, CHI_B)
    classes = [zero_cocycle(), caa, cab, cbb]
    for i, c1 in enumerate(classes):
        for c2 in classes[i + 1 :]:
            assert not cohomologous(c1, c2)


def test_h2_census():
    assert h2_census() == 8


def test_verify_main_example():
    report = main_example_report()
    assert report["verified"] is True
    assert report["families"] == 8
    assert report["path_independent"] is True
    assert report["matches_character_cup"] is True
    assert report["nonzero"] is True
    assert report["census"] == 8

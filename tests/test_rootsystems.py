from __future__ import annotations

import itertools
import tempfile
import warnings

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import oracles
from test_kernels import finite_cartan
from weylenum import (RootSystem, UnsupportedRootSystem, build_index, cartan_matrix,
                      generate_group, generate_orbit, kernels, load_cartan_file, root_system,
                      store)
from weylenum.rootsystems import parse_id, positive_coroots, validate_cartan
from weylenum.store import level_one_cartan

SAMPLE_NAMES = ["A1", "A2", "A5", "B2", "B3", "B7", "C3", "C4", "D3", "D4",
                "D8", "E6", "E7", "E8", "F4", "G2"]
BUILT_IN_TO_RANK_8 = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
                      + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(3, 9)]
                      + ["E6", "E7", "E8", "F4", "G2"])


def test_parse_id_accepts_valid_names():
    assert parse_id("D4") == ("D", 4)
    assert parse_id("A1") == ("A", 1)
    assert parse_id("B2") == ("B", 2)
    assert parse_id("C2") == ("C", 2)
    assert parse_id("D3") == ("D", 3)
    assert parse_id(" E8 ") == ("E", 8)
    assert parse_id("A12") == ("A", 12)
    assert parse_id("F4") == ("F", 4)
    assert parse_id("G2") == ("G", 2)


@pytest.mark.parametrize("bad", ["E5", "E9", "F5", "F3", "G3", "G1", "D2",
                                 "B1", "C1", "A0", "H3", "X4", "D", "4D",
                                 "d4", "", "D-4"])
def test_parse_id_rejects_invalid_names(bad):
    with pytest.raises(UnsupportedRootSystem):
        parse_id(bad)


def test_cartan_d4_exact():
    expected = [[2, -1, 0, 0],
                [-1, 2, -1, -1],
                [0, -1, 2, 0],
                [0, -1, 0, 2]]
    assert cartan_matrix("D4").tolist() == expected


def test_cartan_b3_short_root_last():
    assert cartan_matrix("B3").tolist() == [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]


def test_cartan_c3_is_b3_transposed():
    assert np.array_equal(cartan_matrix("C3"), cartan_matrix("B3").T)


def test_cartan_g2_exact():
    assert cartan_matrix("G2").tolist() == [[2, -1], [-3, 2]]


def test_cartan_f4_exact():
    assert cartan_matrix("F4").tolist() == [[2, -1, 0, 0],
                                            [-1, 2, -2, 0],
                                            [0, -1, 2, -1],
                                            [0, 0, -1, 2]]


def test_cartan_e7_edges():
    c = cartan_matrix("E7")
    edges = {(i + 1, j + 1) for i in range(7) for j in range(7)
             if i < j and c[i, j] != 0}
    assert edges == {(1, 3), (3, 4), (4, 5), (5, 6), (2, 4), (6, 7)}


@pytest.mark.parametrize("name", SAMPLE_NAMES)
def test_cartan_matches_euclidean_realization(name):
    # row i of the Cartan matrix must be the weight coordinates of root i
    # in the explicit Euclidean realization
    family, rank = parse_id(name)
    model = oracles.EuclideanModel(family, rank)
    c = cartan_matrix(name)
    for i in range(rank):
        assert model.coords(model.roots[i]) == tuple(c[i])


def _generators(name):
    """R_1..R_rank as the enumeration builds them: the matrices of level 1."""
    one = list(generate_group(root_system(name), levels_up_to=1))[1]
    assert one.words.tolist() == [[g] for g in range(1, one.size + 1)]
    return one.matrices


@pytest.mark.parametrize("name", SAMPLE_NAMES)
def test_reflections_are_involutions(name):
    refl = _generators(name)
    eye = np.eye(len(refl), dtype=np.int64)
    for r in refl:
        assert np.array_equal(r @ r, eye)
        assert round(float(np.linalg.det(r))) == -1


def test_reflection_matrix_rows():
    r = _generators("D4")[1]
    assert r.tolist() == [[1, 0, 0, 0], [1, -1, 1, 1], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_reflection_matrix_first_generator():
    r = _generators("D4")[0]
    assert r.tolist() == [[-1, 1, 0, 0],
                          [0, 1, 0, 0],
                          [0, 0, 1, 0],
                          [0, 0, 0, 1]]
    assert _generators("A1").tolist() == [[[-1]]]


@pytest.mark.parametrize("name", SAMPLE_NAMES)
def test_reflection_action_matches_euclidean_model(name):
    # the generator matrices' action on weight rows, and every image the
    # level step accepts, must agree with reflecting the underlying vector
    # in the Euclidean realization
    family, rank = parse_id(name)
    model = oracles.EuclideanModel(family, rank)
    refl = _generators(name)
    rng = np.random.default_rng(7000 + SAMPLE_NAMES.index(name))
    weights = np.array([rng.integers(-40, 41, size=rank) for _ in range(60)])
    for m in weights:
        for i in range(1, rank + 1):
            ours = (m @ refl[i - 1]).tolist()
            theirs = model.reflect(m.tolist(), i)
            assert ours == list(theirs)
    matrices = np.zeros((len(weights), rank, rank), dtype=weights.dtype)  # not read here
    images, _, src, gen = kernels.step_level(weights, matrices, cartan_matrix(name))
    assert len(images) > 0
    for image, s, g in zip(images.tolist(), src.tolist(), gen.tolist()):
        assert image == list(model.reflect(weights[s].tolist(), g + 1))


def test_positive_root_counts():
    counts = {"A3": 6, "B7": 49, "C4": 16, "D4": 12, "D8": 56, "E7": 63, "E8": 120,
              "F4": 24, "G2": 6}
    assert {name: root_system(name).n_positive_roots for name in counts} == counts


def test_weyl_orders():
    orders = {"A3": 24, "B7": 645120, "C4": 384, "D4": 192, "D8": 5160960, "E7": 2903040,
              "E8": 696729600, "F4": 1152, "G2": 12}
    assert {name: root_system(name).order for name in orders} == orders


@pytest.mark.parametrize("name", BUILT_IN_TO_RANK_8)
def test_order_and_root_count_match_degrees(name):
    family, rank = parse_id(name)
    degs = oracles.degrees(family, rank)
    product = 1
    for d in degs:
        product *= d
    rs = root_system(name)
    assert (rs.rank, rs.order, rs.n_positive_roots) == (rank, product, sum(d - 1 for d in degs))


@settings(max_examples=60, deadline=None)
@given(finite_cartan())
def test_derived_invariants_match_a_full_walk(cartan):
    # on block sums and relabellings of the irreducible types, the derived
    # root count and order are the last level index and the total of the
    # regular orbit, which has one weight per group element
    rs = RootSystem("custom", cartan)
    levels = list(generate_orbit(rs, [1] * rs.rank))
    assert (rs.n_positive_roots, rs.order) == (levels[-1].index, sum(l.size for l in levels))


def test_affine_matrix_is_refused_at_construction():
    affine = [[2, -2], [-2, 2]]
    with pytest.raises(UnsupportedRootSystem, match="not of finite type"):
        RootSystem("A1~", affine)
    # the coroot closure refuses it on its own, past 2 * rank**2 coroots
    with pytest.raises(UnsupportedRootSystem, match="^more than 8 positive coroots"):
        positive_coroots(np.array(affine))


def test_validate_cartan_accepts():
    out = validate_cartan([[2, -1], [-1, 2]])
    assert out.dtype == np.int64
    # float input is fine when the entries are integral
    out = validate_cartan(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert out.tolist() == [[2, -1], [-1, 2]]
    for name in SAMPLE_NAMES:
        validate_cartan(cartan_matrix(name))
    # finite type is left to the coroot closure
    assert validate_cartan([[2, -2], [-2, 2]]).tolist() == [[2, -2], [-2, 2]]


@pytest.mark.parametrize("bad", [
    [[2, -1, 0], [-1, 2, -1]],              # not square
    [[1, -1], [-1, 2]],                     # diagonal entry not 2
    [[2, 1], [-1, 2]],                      # positive off-diagonal
    [[2, -4], [-1, 2]],                     # off-diagonal below -3
    [[2, 0], [-1, 2]],                      # zero not symmetric
    [],                                     # empty
    [[[2]]],                                # three axes
    [[2.5, -1], [-1, 2]],                   # non-integer entry
])
def test_validate_cartan_rejects(bad):
    with pytest.raises(UnsupportedRootSystem):
        validate_cartan(bad)


@pytest.mark.parametrize("bad", [
    [[2, -1], [-1, 2**63]],                 # mixed with 2**63, numpy makes it float64
    [[2.0, -1.0], [-1.0, float("inf")]],
    [[2.0, -1.0], [-1.0, float("nan")]],
    [[2, -1], [-1, 2 + 0j]],                # the cast would drop the imaginary part
], ids=["two-to-the-63", "inf", "nan", "complex"])
def test_entries_the_int64_cast_warns_on_are_refused_without_a_warning(bad):
    # refused before the int64 cast, which would warn and wrap or drop them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedRootSystem, match="^Cartan matrix entries must be integers$"):
            validate_cartan(bad)
        with pytest.raises(UnsupportedRootSystem, match="^Cartan matrix entries must be integers$"):
            RootSystem("x", bad)


@pytest.mark.parametrize("bad", [
    [[2, -3], [-3, 2]],                     # indefinite
    [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # affine A2~: leading minors 2, 3, 0
    [[2, -1, 0], [-3, 2, -1], [0, -1, 2]],  # affine G2~: leading minors 2, 1, 0
], ids=["indefinite", "affine-A2", "affine-G2"])
def test_infinite_type_is_refused_by_root_system(bad):
    # affine A1~ is test_affine_matrix_is_refused_at_construction's case
    with pytest.raises(UnsupportedRootSystem, match="not of finite type"):
        RootSystem("x", bad)


def _all_principal_minors_positive(c) -> bool:
    m = sympy.Matrix(c.tolist())
    n = len(c)
    return all(m.extract(rows, rows).det() > 0
               for k in range(1, n + 1) for rows in itertools.combinations(range(n), k))


def _accepted(c) -> bool:
    try:
        RootSystem("custom", c)
    except UnsupportedRootSystem as exc:
        assert "not of finite type" in str(exc)
        return False
    return True


def _generalized_cartan_rank_2_and_3():
    """Every generalized Cartan matrix of rank 2 or 3: each off-diagonal pair
    is (0, 0) or in {-1, -2, -3}^2."""
    pairs = [(0, 0)] + list(itertools.product((-1, -2, -3), repeat=2))
    for n in (2, 3):
        slots = list(itertools.combinations(range(n), 2))
        for choice in itertools.product(pairs, repeat=len(slots)):
            c = 2 * np.eye(n, dtype=np.int64)
            for (i, j), (cij, cji) in zip(slots, choice):
                c[i, j], c[j, i] = cij, cji
            yield c


def test_root_system_accepts_exactly_positive_principal_minors():
    # a generalized Cartan matrix is of finite type exactly when all its
    # principal minors are positive (Kac, ch. 4); the coroot closure alone
    # must draw the same line
    matrices = list(_generalized_cartan_rank_2_and_3())
    assert len(matrices) == 1010
    verdicts = [(_accepted(c), _all_principal_minors_positive(c)) for c in matrices]
    assert all(ours == oracle for ours, oracle in verdicts)
    # rank 2: A1xA1, A2, B2 and G2 both ways round; rank 3: A1^3, A1 beside a
    # rank-2 type on one of 3 pairs, A3 on 3 paths, B3 and C3 4 ways per path
    assert sum(ours for ours, _ in verdicts) == (1 + 1 + 2 + 2) + (1 + 3 * 5 + 3 + 3 * 4)


@st.composite
def generalized_cartan(draw, n):
    """An n x n matrix with the structure of a generalized Cartan matrix."""
    c = 2 * np.eye(n, dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                c[i, j], c[j, i] = draw(st.integers(-3, -1)), draw(st.integers(-3, -1))
    return c


@settings(max_examples=200, deadline=None)
@given(generalized_cartan(4))
def test_root_system_accepts_exactly_positive_principal_minors_at_rank_4(c):
    assert _accepted(c) == _all_principal_minors_positive(c)


def _level_one_cartan(rs):
    # level_one_cartan reads level 1 alone, so a run cut after it will do
    return level_one_cartan(list(generate_group(rs, levels_up_to=1))[1])


@pytest.mark.parametrize("name", BUILT_IN_TO_RANK_8)
def test_level_one_gives_the_cartan_matrix(name):
    rs = root_system(name)
    cartan = _level_one_cartan(rs)
    assert cartan.dtype == np.int64
    assert np.array_equal(cartan, rs.cartan)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(generalized_cartan).filter(_accepted))
def test_a_full_run_gives_its_cartan_matrix(c):
    # any finite-type matrix, whatever its numbering, read off a complete run's files
    rs = RootSystem("custom", c)
    with tempfile.TemporaryDirectory() as tmp:
        for level in generate_group(rs):
            store.write_level(level, "custom", tmp)
        index = build_index(store.read_run(store.find_level_files(tmp, "custom")))
    assert np.array_equal(index.cartan, rs.cartan)


def test_load_cartan_file(tmp_path):
    path = tmp_path / "g2.txt"
    path.write_text("# rank first, then the rows\n\n2\n2 -1\n-3 2  # long root row\n",
                    encoding="utf-8")
    assert load_cartan_file(path).tolist() == [[2, -1], [-3, 2]]


def test_affine_cartan_file_is_refused_by_root_system(tmp_path):
    path = tmp_path / "affine.txt"
    path.write_text("2\n2 -2\n-2 2\n", encoding="utf-8")
    matrix = load_cartan_file(path)
    assert matrix.tolist() == [[2, -2], [-2, 2]]
    with pytest.raises(UnsupportedRootSystem, match="not of finite type"):
        RootSystem("affine", matrix)


@pytest.mark.parametrize("body, hint", [
    ("2\n2 -1\n", "expected 2 matrix rows"),
    ("2 2\n2 -1\n-1 2\n", "rank alone"),
    ("2\n2 -1\n-1 2 0\n", "entries per row"),
    ("2\n2 x\n-1 2\n", "expected integers"),
    ("# nothing here\n", "no data lines"),
    ("2\n2 -99999999999999999999\n-1 2\n", r"bad\.txt:2: an entry does not fit int64"),
])
def test_load_cartan_file_errors(tmp_path, body, hint):
    path = tmp_path / "bad.txt"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(UnsupportedRootSystem, match=hint):
        load_cartan_file(path)


@pytest.mark.parametrize("bad", [
    [[2, -99999999999999999999], [-1, 2]],
    [[2], [-1, 2]],
    [[2, "x"], [-1, 2]],
    [[2, None], [-1, 2]],
], ids=["beyond-int64", "ragged", "string-entry", "none-entry"])
def test_root_system_refuses_entries_no_int64_holds(bad):
    # these reach numpy's int64 conversion, which raises OverflowError,
    # ValueError or TypeError; the constructor refuses them as a WeylError
    with pytest.raises(UnsupportedRootSystem, match="array of integers that fit int64"):
        RootSystem("custom", bad)


def test_root_system_fields():
    rs = root_system("D4")
    assert rs.name == "D4"
    assert not hasattr(rs, "family")
    assert rs.rank == 4
    assert rs.order == 192
    assert rs.n_positive_roots == 12
    assert rs.coroots.shape == (12, 4)
    assert not hasattr(rs, "reflections")


def test_root_system_arrays_frozen():
    rs = root_system("B3")
    with pytest.raises(ValueError):
        rs.cartan[0, 0] = 5
    with pytest.raises(ValueError):
        rs.coroots[0, 0] = 5


def test_root_system_of_a_custom_matrix():
    rs = RootSystem("mystery", [[2, -1], [-3, 2]])
    assert rs.name == "mystery"
    assert rs.rank == 2
    assert rs.order == 12
    assert rs.n_positive_roots == 6
    assert np.array_equal(rs.cartan, cartan_matrix("G2"))
    assert not rs.cartan.flags.writeable

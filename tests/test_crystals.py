import json
import os
import re
from itertools import product

import pytest

from weylcurrents.crystals import (
    ENERGY_ORIENTATION,
    CrystalGraph,
    _build_H,
    _build_R,
    _column_tables,
    _fold,
    apply_op,
    build_crystal,
    clear_caches,
    column_apply,
    column_eps,
    column_phi,
    column_vertices,
    column_weight,
    combinatorial_R,
    element_label,
    energy_of_element,
    heights_for_weight,
    local_crystal,
    local_energy,
    restricted_paths,
    tensor_stats,
    tensor_weight,
)
from weylcurrents.errors import StructuralError
from weylcurrents.rootsystem import Weight, build_root_system


def test_column_model_basics():
    assert column_vertices(1, 1) == [(1,), (2,)]
    assert len(column_vertices(3, 2)) == 6
    assert column_weight(2, (1,)) == Weight([1, 0])
    assert column_weight(2, (3,)) == Weight([0, -1])
    assert column_weight(2, (1, 2)) == Weight([0, 1])
    # highest column has eps_i = 0 for classical i
    _, eps, _ = tensor_stats(3, ((1, 2),))
    assert eps[1:] == (0, 0, 0)


def test_column_operators_sl2():
    assert column_apply(1, "f", 1, (1,)) == (2,)
    assert column_apply(1, "f", 1, (2,)) is None
    assert column_apply(1, "e", 1, (2,)) == (1,)
    assert column_apply(1, "f", 0, (2,)) == (1,)
    assert column_apply(1, "e", 0, (1,)) == (2,)


def _branchy_column_weight(n, col):
    coeffs = [0] * n
    for j in col:
        if j <= n:
            coeffs[j - 1] += 1
        if j >= 2:
            coeffs[j - 2] -= 1
    return Weight(coeffs)


def _branchy_column_apply(n, direction, i, col):
    s = set(col)
    if i == 0:
        lo, hi = 1, n + 1
        if direction == "f":
            if hi in s and lo not in s:
                s.remove(hi)
                s.add(lo)
                return tuple(sorted(s))
            return None
        if lo in s and hi not in s:
            s.remove(lo)
            s.add(hi)
            return tuple(sorted(s))
        return None
    if direction == "f":
        if i in s and i + 1 not in s:
            s.remove(i)
            s.add(i + 1)
            return tuple(sorted(s))
        return None
    if i + 1 in s and i not in s:
        s.remove(i + 1)
        s.add(i)
        return tuple(sorted(s))
    return None


def _branchy_column_eps(n, i, col):
    if i == 0:
        return int(1 in col and (n + 1) not in col)
    return int((i + 1) in col and i not in col)


def _branchy_column_phi(n, i, col):
    if i == 0:
        return int((n + 1) in col and 1 not in col)
    return int(i in col and (i + 1) not in col)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_letter_pair_rule_equals_the_branchy_columns(n):
    # the column functions as they were written out per case, with i = 0
    # (promotion) on its own branch, are the reference for the one letter-pair
    # rule: every column of every height, every node, both directions
    for r in range(1, n + 1):
        for col in column_vertices(n, r):
            assert column_weight(n, col) == _branchy_column_weight(n, col)
            for i in range(n + 1):
                assert column_eps(n, i, col) == _branchy_column_eps(n, i, col)
                assert column_phi(n, i, col) == _branchy_column_phi(n, i, col)
                for direction in ("e", "f"):
                    want = _branchy_column_apply(n, direction, i, col)
                    assert column_apply(n, direction, i, col) == want


def test_empty_element_starts_the_fold():
    # the empty prefix has eps = phi = 0, and no operator acts on it
    assert tensor_stats(2, ()) == (Weight([0, 0]), (0, 0, 0), (0, 0, 0))
    assert all(apply_op(2, d, i, ()) is None for d in "ef" for i in range(3))


def test_unknown_direction_raises():
    # an unknown direction must not pick the factor by one rule and the column by the other
    for bad in ("E", "F", "", None):
        with pytest.raises(ValueError, match="direction"):
            column_apply(1, bad, 1, (2,))
        with pytest.raises(ValueError, match="direction"):
            apply_op(1, bad, 1, ((1,), (2,)))
        with pytest.raises(ValueError, match="direction"):
            apply_op(1, bad, 1, ())
    assert apply_op(1, "e", 1, ((1,), (2,))) is None
    assert apply_op(1, "f", 1, ((1,), (2,))) is None


def test_tensor_rule_examples():
    b = ((1,), (1,))
    assert apply_op(1, "e", 0, b) == ((1,), (2,))
    assert apply_op(1, "f", 1, b) == ((2,), (1,))
    _, eps, _ = tensor_stats(1, b)
    assert eps == (2, 0)
    _, eps, _ = tensor_stats(1, ((1,), (2,)))
    assert eps == (1, 0)


def test_tensor_stats_agree_with_operator_counts():
    for heights in ((1, 1), (1, 2), (2, 2, 1)):
        n = 2
        for b in product(*(column_vertices(n, r) for r in heights)):
            wt, eps, phi = tensor_stats(n, b)
            for i in range(n + 1):
                cnt = 0
                cur = b
                while True:
                    nxt = apply_op(n, "e", i, cur)
                    if nxt is None:
                        break
                    cnt += 1
                    cur = nxt
                assert cnt == eps[i]
                cnt = 0
                cur = b
                while True:
                    nxt = apply_op(n, "f", i, cur)
                    if nxt is None:
                        break
                    cnt += 1
                    cur = nxt
                assert cnt == phi[i]
                # axiom: <alpha_i^vee, wt> = phi - eps
                rs = build_root_system("A", n)
                pairing = (
                    -int(rs.inner(rs.highest_root, wt)) if i == 0 else wt.coeffs[i - 1]
                )
                assert pairing == phi[i] - eps[i]


def test_ef_adjointness():
    n = 2
    for b in product(column_vertices(n, 1), column_vertices(n, 2)):
        for i in range(n + 1):
            img = apply_op(n, "f", i, b)
            if img is not None:
                assert apply_op(n, "e", i, img) == b


def test_classical_components_a1_pair():
    g = build_crystal(1, (1, 1))
    tops = {
        (element_label(g.vertices[t]), g.weights[t].coeffs)
        for t in g.classical_highest()
    }
    assert tops == {("1|1", (2,)), ("1|2", (0,))}


def test_classical_components_a2_pair():
    g = build_crystal(2, (1, 1))
    tops = {g.weights[t].coeffs for t in g.classical_highest()}
    assert tops == {(2, 0), (0, 1)}  # Pieri: V(w1) x V(w1) = V(2w1) + V(w2)


def test_single_column_connected():
    g = build_crystal(3, (2,))
    assert len(set(g.component)) == 1


def test_combinatorial_R_identity_on_equal_heights():
    pair = ((1,), (2,))
    assert combinatorial_R(1, pair) == pair


def test_combinatorial_R_highest_to_highest():
    out = combinatorial_R(2, ((1,), (1, 2)))
    assert out == ((1, 2), (1,))


def _height_pairs(n):
    return list(product(range(1, n + 1), repeat=2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_combinatorial_R_commutes_with_all_operators(n):
    for r, s in _height_pairs(n):
        for b in product(column_vertices(n, r), column_vertices(n, s)):
            for i in range(n + 1):
                for d in ("e", "f"):
                    img = apply_op(n, d, i, b)
                    lhs = combinatorial_R(n, img) if img is not None else None
                    rhs = apply_op(n, d, i, combinatorial_R(n, b))
                    assert lhs == rhs


@pytest.mark.parametrize("n", [2, 3, 4])
def test_combinatorial_R_involutive(n):
    for r, s in _height_pairs(n):
        for b in product(column_vertices(n, r), column_vertices(n, s)):
            assert combinatorial_R(n, combinatorial_R(n, b)) == b


def test_local_energy_values_a1():
    assert local_energy(1, ((1,), (1,))) == 0
    assert local_energy(1, ((1,), (2,))) == -1
    assert local_energy(1, ((2,), (2,))) == 0
    assert local_energy(1, ((2,), (1,))) == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_local_energy_constant_on_components(n):
    for r, s in _height_pairs(n):
        for b in product(column_vertices(n, r), column_vertices(n, s)):
            for i in range(1, n + 1):
                img = apply_op(n, "f", i, b)
                if img is not None:
                    assert local_energy(n, img) == local_energy(n, b)


def test_degree_function_a1_pair():
    g = local_crystal(Weight([2]))
    by_label = {element_label(g.vertices[t]): g.D[t] for t in range(4)}
    assert by_label == {"1|1": 0, "1|2": -1, "2|1": 0, "2|2": 0}


def test_degree_function_single_factor_zero():
    g = local_crystal(Weight([0, 1]))
    assert set(g.D) == {0}


def test_restricted_paths_examples():
    paths = restricted_paths(1, Weight([2]), 1)
    assert [(element_label(b), w.coeffs, d) for b, w, d in paths] == [("1|2", (0,), -1)]
    paths = restricted_paths(1, Weight([2]), None)
    assert {(element_label(b), w.coeffs, d) for b, w, d in paths} == {
        ("1|1", (2,), 0),
        ("1|2", (0,), -1),
    }
    # b_0 always belongs to the finitely restricted set
    for mu in (Weight([3]), Weight([1])):
        tops = {w for _, w, _ in restricted_paths(1, mu, None)}
        assert mu in tops
    # empty tensor product
    assert restricted_paths(2, Weight([0, 0]), 3) == [((), Weight([0, 0]), 0)]


def test_restricted_paths_stabilize_at_factor_count():
    mu = Weight([4])
    full = {(b, w, d) for b, w, d in restricted_paths(1, mu, None)}
    # eps_0 is bounded by the number of factors
    assert full == {(b, w, d) for b, w, d in restricted_paths(1, mu, 4)}


def test_graded_character_weyl_symmetric():
    rs = build_root_system("A", 2)
    g = local_crystal(Weight([1, 1]))
    gch = g.graded_character()
    for w, p in gch.items():
        for v in rs.weyl_orbit(w):
            assert gch[v] == p


def test_heights_for_weight():
    assert heights_for_weight(Weight([2, 1])) == (1, 1, 2)
    with pytest.raises(ValueError):
        heights_for_weight(Weight([-1, 0]))


def test_dot_export_deterministic():
    g = local_crystal(Weight([2]))
    dot = g.to_dot()
    assert dot == g.to_dot()
    assert "digraph" in dot and 'label="0"' in dot and "D=-1" in dot


def test_cache_roundtrip_and_corruption(tmp_path):
    cache = str(tmp_path)
    clear_caches()
    g = build_crystal(1, (1, 1), cache_dir=cache)
    files = os.listdir(cache)
    assert len(files) == 1
    clear_caches()
    g2 = build_crystal(1, (1, 1), cache_dir=cache)
    assert list(g2.vertices) == list(g.vertices) and g2.D == g.D
    assert g2.eps == g.eps and g2.phi == g.phi
    path = os.path.join(cache, files[0])
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data["D"][1] = 7
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    clear_caches()
    with pytest.raises(StructuralError):
        build_crystal(1, (1, 1), cache_dir=cache)
    clear_caches()


def test_cache_rejects_foreign_format(tmp_path):
    cache = str(tmp_path)
    clear_caches()
    g = build_crystal(1, (1,), cache_dir=cache)
    path = os.path.join(cache, os.listdir(cache)[0])
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data["format"] = 999
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    clear_caches()
    with pytest.raises(StructuralError):
        build_crystal(1, (1,), cache_dir=cache)
    clear_caches()
    del g


def test_b0_unique_and_normalized():
    for mu in (Weight([3]), Weight([2, 0]), Weight([1, 1])):
        n = len(mu.coeffs)
        g = local_crystal(mu)
        tops = [t for t, w in enumerate(g.weights) if w == mu]
        assert len(tops) == 1
        assert g.D[tops[0]] == 0
        assert tensor_weight(n, g.vertices[tops[0]]) == mu


def _energy_by_pairs(n, b):
    """D by its definition, transporting b_j next to b_i afresh for every
    pair i < j (O(L^3) swaps)."""
    total = 0
    for i in range(len(b)):
        for j in range(i + 1, len(b)):
            cur = list(b)
            for p in range(j, i + 1, -1):
                cur[p - 1], cur[p] = combinatorial_R(n, (cur[p - 1], cur[p]))
            total += local_energy(n, (cur[i], cur[i + 1]))
    return total


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_tables_match_per_element_references(n):
    # every height order up to three factors; four factors in the lowest-first
    # order that local_crystal builds
    clear_caches()
    for factors in range(1, 5):
        for heights in product(range(1, n + 1), repeat=factors):
            if factors == 4 and list(heights) != sorted(heights):
                continue
            g = build_crystal(n, heights)
            vertices = sorted(product(*(column_vertices(n, r) for r in heights)))
            assert list(g.vertices) == vertices and len(g.vertices) == len(vertices)
            # eps and phi are column-major: one row per operator i = 0..n
            assert len(g.eps) == len(g.phi) == n + 1
            assert {len(row) for row in g.eps + g.phi} == {len(vertices)}
            index = {b: t for t, b in enumerate(vertices)}
            for t, b in enumerate(vertices):
                assert g.vertices[t] == b
                eps = tuple(row[t] for row in g.eps)
                phi = tuple(row[t] for row in g.phi)
                assert (g.weights[t], eps, phi) == tensor_stats(n, b)
                for i in range(n + 1):
                    img = apply_op(n, "f", i, b)
                    assert g.f_arrows[i][t] == (-1 if img is None else index[img])
                assert g.D[t] == _energy_by_pairs(n, b) == energy_of_element(n, b)
    clear_caches()


def test_cache_file_is_the_json_of_the_graph(tmp_path):
    # the cache document holds only D under its key; the file name carries
    # the format, so a file of another format is never opened
    clear_caches()
    heights = (1, 1, 1, 1, 1, 2, 2, 2, 2)
    g = build_crystal(2, heights, cache_dir=str(tmp_path))
    (name,) = os.listdir(tmp_path)
    assert name == "crystal_v2_n2_h1-1-1-1-1-2-2-2-2.json"
    document = {
        "format": 2,
        "n": 2,
        "heights": list(heights),
        "orientation": ENERGY_ORIENTATION,
        "D": g.D,
    }
    assert (tmp_path / name).read_text(encoding="utf-8") == json.dumps(document)
    clear_caches()


def test_cache_ignores_a_file_of_the_old_format(tmp_path):
    clear_caches()
    g = build_crystal(2, (1, 2))
    old = tmp_path / "crystal_n2_h1-2.json"
    old.write_text(json.dumps(g.to_json()), encoding="utf-8")
    clear_caches()
    assert build_crystal(2, (1, 2), cache_dir=str(tmp_path)).D == g.D
    assert sorted(os.listdir(tmp_path)) == [old.name, "crystal_v2_n2_h1-2.json"]
    clear_caches()


def test_cache_load_equals_the_build(tmp_path):
    cache = str(tmp_path / "cache")
    clear_caches()
    built = build_crystal(2, (1, 1, 2, 2), cache_dir=cache)
    clear_caches()
    loaded = build_crystal(2, (1, 1, 2, 2), cache_dir=cache)
    assert loaded is not built
    for slot in CrystalGraph.__slots__:
        if slot == "vertices":
            assert list(loaded.vertices) == list(built.vertices)
        else:
            assert getattr(loaded, slot) == getattr(built, slot), slot
    clear_caches()


def test_vertex_sequence_reads_every_index():
    # the vertices are not stored: vertex t is read from the mixed-radix
    # digits of t, in the lexicographic order of product(*columns)
    for g in (local_crystal(Weight([2, 1])), build_crystal(3, (1, 2))):
        want = list(product(*(column_vertices(g.n, r) for r in g.heights)))
        assert want == sorted(want) and len(g.vertices) == len(want)
        assert list(g.vertices) == want
        assert [g.vertices[t] for t in range(len(want))] == want
        assert [g.vertices[-t] for t in range(1, len(want) + 1)] == want[::-1]
        for t in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                g.vertices[t]
        with pytest.raises(TypeError):
            g.vertices[0] = want[0]
    # mu = 0: the empty tensor product has the one vertex ()
    g = local_crystal(Weight([0, 0]))
    assert len(g.vertices) == 1 and list(g.vertices) == [()]
    assert g.vertices[0] == g.vertices[-1] == ()
    for t in (1, -2):
        with pytest.raises(IndexError):
            g.vertices[t]


def test_vertex_sequence_slices_like_a_list():
    # a slice of the vertices is the list of those vertices, as it was when
    # the graph stored them in a list
    for g in (local_crystal(Weight([2, 1])), local_crystal(Weight([0, 0]))):
        vertices = list(g.vertices)
        size = len(vertices)
        for s in (
            slice(0, 2),
            slice(None),
            slice(1, None, 3),
            slice(None, None, -1),
            slice(-3, -1),
            slice(-1, -size - 5, -2),
            slice(2, 2),
            slice(5, 1),
            slice(size + 3, None),
        ):
            assert g.vertices[s] == vertices[s], s


def _tampered_cache_is_rejected(cache_dir, tamper, match=None):
    clear_caches()
    build_crystal(2, (1, 2), cache_dir=str(cache_dir))
    (path,) = cache_dir.iterdir()
    data = json.loads(path.read_text())
    tamper(data)
    path.write_text(json.dumps(data))
    clear_caches()
    with pytest.raises(StructuralError, match=match) as err:
        build_crystal(2, (1, 2), cache_dir=str(cache_dir))
    assert str(path) in str(err.value)
    with pytest.raises(StructuralError, match=match):
        CrystalGraph.from_json(data)
    clear_caches()


def test_cache_rejects_permuted_vertex_order(tmp_path):
    def swap_degrees(data):
        # the D of b_0 (vertex 0) swapped with one of another degree
        D = data["D"]
        t = next(t for t, d in enumerate(D) if d != D[0])
        D[0], D[t] = D[t], D[0]

    _tampered_cache_is_rejected(tmp_path, swap_degrees)


# A2 heights (1, 2): V(w1) x V(w2) = V(w1 + w2) + V(0). Vertex 0 is b_0, the
# one vertex with eps_0 >= 2, and e_0 raises it from vertex 2, the singleton
# classical component V(0).
SINGLETON = 2


def test_cache_rejects_shifted_degree_on_a_singleton_component(tmp_path):
    # no classical arrow leaves vertex 2, so only the eps_0 rule sees its D
    def shift_singleton(data):
        data["D"][SINGLETON] += 5

    _tampered_cache_is_rejected(tmp_path, shift_singleton, re.escape("D(e_0 b) != D(b) - 1"))


@pytest.mark.parametrize(
    "tamper",
    [
        lambda data: data["D"].pop(),
        lambda data: data.pop("D"),
        lambda data: data["D"].__setitem__(0, False),
        lambda data: data["D"].__setitem__(0, "0"),
        lambda data: data.__setitem__("heights", [1, 3]),
        lambda data: data.update(build_crystal(2, (1, 2)).to_json()),
    ],
    ids=["D-short", "D-missing", "D-bool", "D-not-int", "height-out-of-range", "export-document"],
)
def test_cache_rejects_malformed_tables(tmp_path, tamper):
    _tampered_cache_is_rejected(tmp_path, tamper, "crystal cache")


def _set_classical_eps(t, classical):
    # the tables are column-major: eps_i of vertex t is tables["eps"][i][t]
    def tamper(tables):
        for i, e in enumerate(classical, start=1):
            tables["eps"][i][t] = e

    return tamper


def _raise_eps0_and_phi0(t, by):
    # phi_0 - eps_0 stays the pairing
    def tamper(tables):
        for key in ("eps", "phi"):
            tables[key][0][t] += by

    return tamper


# One tamper per failure branch of the axiom check, on the fold of A2 (1, 2)
# (see SINGLETON): vertex 4 has no 0-arrow in or out, vertex 5 none in, and
# f_0 maps 5 to 3, whose weight differs from that of 4. Then one per branch of
# the component check: vertex 0 tops the component of V(w1 + w2), and e_1
# raises vertex 4 (eps = (0, 1, 0)) to vertex 1 in it. With its classical eps
# zeroed, vertex 4 reads as a second top; with eps_1 = 1, vertex 0 reads as
# non-highest but has no raising arrow.
@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda tab: tab["f"][0].__setitem__(slice(None), [-1] * 9),
         "tensor crystal is not affinely connected"),
        (lambda tab: tab["weights"].__setitem__(8, tab["weights"][0]),
         "highest-weight vertex is not unique"),
        (lambda tab: tab.__setitem__("D", [d + 1 for d in tab["D"]]),
         "degree normalization D(b_0) = 0 fails"),
        (lambda tab: tab["weights"].__setitem__(8, Weight([0, 0])),
         "crystal axiom <a_i^vee, wt> = phi - eps fails"),
        (_raise_eps0_and_phi0(4, 1), "f_i arrow existence disagrees with phi"),
        (lambda tab: tab["f"][0].__setitem__(5, 4), "arrow does not shift the weight by alpha_i"),
        (lambda tab: tab["D"].__setitem__(1, tab["D"][1] + 1),
         "degree changes along a classical arrow"),
        (_raise_eps0_and_phi0(5, 2), "eps_0 >= 2 but no raising 0-arrow"),
        (lambda tab: tab["D"].__setitem__(SINGLETON, tab["D"][SINGLETON] + 5),
         "D(e_0 b) != D(b) - 1 at eps_0 >= 2"),
        (_set_classical_eps(4, (0, 0)), "component with two classical-highest elements"),
        (_set_classical_eps(0, (1, 0)), "component without a classical-highest element"),
    ],
    ids=["connected", "top-unique", "top-degree", "pairing", "arrow-exists", "arrow-shift",
         "classical-degree", "eps0-arrow", "eps0-degree", "component-second-top",
         "component-no-top"],
)
def test_axiom_check_rejects_each_tampered_table(tamper, message):
    keys = ("vertices", "weights", "eps", "phi", "f", "D")
    tables = dict(zip(keys, _fold(2, (1, 2), energy=True)))
    CrystalGraph(2, (1, 2), *tables.values())
    tamper(tables)
    with pytest.raises(StructuralError) as err:
        CrystalGraph(2, (1, 2), *tables.values())
    assert str(err.value) == message


@pytest.mark.parametrize(
    "n, heights", [(2, (2, 1, 2, 1, 1)), (2, (1, 2, 1, 2, 2, 1)), (3, (1, 3, 2, 1, 3))]
)
def test_degree_function_on_interleaved_heights(n, heights):
    # two transport tables are live at once while the heights alternate
    clear_caches()
    g = build_crystal(n, heights)
    assert g.D == [energy_of_element(n, b) for b in g.vertices]
    clear_caches()


def _comprehension_fold(n, heights, energy):
    """The fold as one expression per (state, column, operator): (weight
    coefficients, eps, phi, f_arrows, D), the reference for `_fold`."""
    tables = {r: _column_tables(n, r) for r in set(heights)}
    pairs = {}
    if energy:
        for a, b in {(a, b) for j, b in enumerate(heights) for a in heights[:j]}:
            m_a = len(tables[a][0])
            pairs[a, b] = _build_H(n, a, b), [t // m_a for t in _build_R(n, a, b)]
    ops = range(n + 1)
    W = [[0] for _ in range(n)]
    E = [[0] for _ in ops]
    P = [[0] for _ in ops]
    F = [[-1] for _ in ops]
    D = [0]
    T = {r: [0] * len(tables[r][0]) for r in set(heights)}
    for level, r in enumerate(heights):
        _, _, cwts, ceps, cphi, cf = tables[r]
        m = len(cf[0])
        cs = range(m)
        W = [[x + y for x in Wj for y in cw] for Wj, cw in zip(W, cwts)]
        F = [
            [
                t * m + c if q > a else (s * m + g if g >= 0 else -1)
                for s, (t, q) in enumerate(zip(Fi, Pi))
                for c, a, g in zip(cs, ce, cg)
            ]
            for Fi, Pi, ce, cg in zip(F, P, ceps, cf)
        ]
        E = [
            [e + a - q if a > q else e for e, q in zip(Ei, Pi) for a in ce]
            for Ei, Pi, ce in zip(E, P, ceps)
        ]
        P = [
            [b + q - a if q > a else b for q in Pi for a, b in zip(ce, cp)]
            for Pi, ce, cp in zip(P, ceps, cphi)
        ]
        if energy:
            D = [d + x for d, x in zip([d for d in D for _ in cs], T[r])]
            extended = {}
            for later in set(heights[level + 1 :]):
                H, R = pairs[r, later]
                rows = zip(*[iter(T[later])] * (len(R) // m))
                extended[later] = [h + row[x] for row in rows for h, x in zip(H, R)]
            T = extended
    return [tuple(w) for w in zip(*W)], E, P, F, D if energy else None


@pytest.mark.parametrize(
    "n, heights",
    [(1, (1,) * 9), (2, (1, 1, 1, 2, 2, 2)), (3, (1, 1, 3, 3)), (4, (1, 4)), (3, (2,)), (2, ())],
    ids=["A1-9", "A2-3,3", "A3-2,0,2", "A4-1,0,0,1", "A3-0,1,0", "A2-0,0"],
)
def test_fold_equals_the_comprehension_fold(n, heights):
    # the fold fills each table one column slice at a time, from copies of the
    # first factor's column tables (or the one empty state); every table must
    # equal the one-expression-per-entry fold, with and without D
    for energy in (True, False):
        _, weights, *tables = _fold(n, heights, energy)
        assert ([w.coeffs for w in weights], *tables) == _comprehension_fold(n, heights, energy)


@pytest.mark.parametrize("n, heights", [(2, ()), (2, (1,)), (2, (1, 2)), (3, (1, 3, 2, 1))])
def test_fold_tables_share_no_list(n, heights):
    # no returned table is a memo list of `_column_tables` or another returned
    # table, so changing one fold's tables in place (as the axiom tests do)
    # leaves the memos and the next fold as they were
    def lists(tables):
        _, weights, eps, phi, f, D = tables
        return [weights, *eps, *phi, *f, D]

    memo = [
        row
        for r in range(1, n + 1)
        for table in _column_tables(n, r)[2:]
        for row in (table, *table)
        if isinstance(row, list)
    ]
    want = [list(row) for row in lists(_fold(n, heights, energy=True))]
    tampered = lists(_fold(n, heights, energy=True))
    ids = [id(row) for row in tampered]
    assert len(set(ids)) == len(ids)
    assert not set(ids) & {id(row) for row in memo}
    memo_copy = [list(row) for row in memo]
    for row in tampered:
        row[:] = [None] * (len(row) + 1)
    assert [list(row) for row in memo] == memo_copy
    assert lists(_fold(n, heights, energy=True)) == want

import hashlib
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import combinations

import pytest

from conftest import (
    brute_force_homomorphism_exists,
    brute_force_induced_isomorphism_exists,
    brute_force_three_colorable,
    reference_forward_check,
)
from raagcrypt import auth, graphs
from raagcrypt.raag import Raag, is_trivial
from raagcrypt.graphs import (
    GraphError,
    SearchBudgetExceeded,
    SimplicialGraph,
    VertexMap,
    VertexSubset,
    find_graph_homomorphism,
    find_induced_subgraph_isomorphism,
    format_graph,
    induced_subgraph,
    parse_graph,
    random_graph,
    triangle_vertices,
    validate_graph,
    verify_graph_homomorphism,
    verify_induced_subgraph_isomorphism,
)


def triangle() -> SimplicialGraph:
    return SimplicialGraph(("t0", "t1", "t2"), [("t0", "t1"), ("t1", "t2"), ("t0", "t2")])


def cycle(n: int) -> SimplicialGraph:
    verts = tuple(f"c{i}" for i in range(n))
    return SimplicialGraph(verts, [(verts[i], verts[(i + 1) % n]) for i in range(n)])


def complete(n: int) -> SimplicialGraph:
    verts = tuple(f"k{i}" for i in range(n))
    return SimplicialGraph(verts, [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)])


class TestValidateGraph:
    def test_minimal_valid_edge(self):
        assert validate_graph(["a", "b"], [("a", "b")]) == []

    def test_loop_rejected(self):
        violations = validate_graph(["a"], [("a", "a")])
        assert len(violations) == 1 and "loop" in violations[0]

    def test_dangling_endpoint(self):
        violations = validate_graph(["a"], [("a", "b")])
        assert len(violations) == 1 and "undeclared" in violations[0]

    def test_edge_with_three_endpoints(self):
        violations = validate_graph(["a", "b", "c"], [("a", "b", "c")])
        assert violations == ["edge ('a', 'b', 'c') does not have exactly two endpoints"]

    def test_duplicates(self):
        assert any("duplicate vertex" in v for v in validate_graph(["a", "a"], []))
        assert any("duplicate edge" in v
                   for v in validate_graph(["a", "b"], [("a", "b"), ("b", "a")]))

    def test_bad_labels(self):
        assert validate_graph(["a b"], [])
        assert validate_graph(["a^x"], [])
        assert validate_graph([""], [])

    def test_constructor_enforces(self):
        with pytest.raises(GraphError):
            SimplicialGraph(("a",), [("a", "a")])


class TestInducedSubgraph:
    def test_triangle_pair(self):
        g = triangle()
        sub = induced_subgraph(g, ["t0", "t1"])
        assert sub.vertices == ("t0", "t1")
        assert sub.edges == frozenset({frozenset(("t0", "t1"))})

    def test_identity_case(self):
        g = SimplicialGraph(("v0", "v1"), [("v0", "v1")])
        assert induced_subgraph(g, ["v0", "v1"]) == g

    def test_path_endpoints_lose_edge(self):
        g = SimplicialGraph(("a", "b", "c"), [("a", "b"), ("b", "c")])
        sub = induced_subgraph(g, ["a", "c"])
        assert sub.vertices == ("a", "c") and not sub.edges

    def test_outside_member_rejected(self):
        with pytest.raises(GraphError):
            induced_subgraph(triangle(), ["t0", "zz"])

    def test_subset_of_wrong_parent_rejected(self):
        s = VertexSubset(triangle(), ["t0"])
        with pytest.raises(GraphError):
            induced_subgraph(cycle(4), s)


class TestFullSubgraph:
    def test_induced_is_always_full(self):
        rng = random.Random(4)
        for _ in range(200):
            g = random_graph(rng.randint(0, 7), rng.random(), rng.getrandbits(32))
            members = [v for v in g.vertices if rng.random() < 0.5]
            assert induced_subgraph(g, members).edges == {e for e in g.edges if e <= set(members)}


class TestVerifyHomomorphism:
    def test_identity(self):
        g = cycle(5)
        f = VertexMap(g, g, {v: v for v in g.vertices})
        assert verify_graph_homomorphism(f)

    def test_five_cycle_to_triangle(self):
        c5, t = cycle(5), triangle()
        f = VertexMap(c5, t, {"c0": "t0", "c1": "t1", "c2": "t2", "c3": "t0", "c4": "t1"})
        assert verify_graph_homomorphism(f)

    def test_collapsing_an_edge_fails(self):
        g = SimplicialGraph(("a", "b"), [("a", "b")])
        f = VertexMap(g, triangle(), {"a": "t0", "b": "t0"})
        assert not verify_graph_homomorphism(f)

    def test_closed_under_composition(self):
        rng = random.Random(11)
        found = 0
        while found < 50:
            a = random_graph(rng.randint(1, 5), rng.random(), rng.getrandbits(32))
            b = random_graph(rng.randint(3, 6), rng.random() * 0.5 + 0.5, rng.getrandbits(32))
            c = complete(rng.randint(3, 5))
            f = find_graph_homomorphism(a, b, budget=200_000)
            h = find_graph_homomorphism(b, c, budget=200_000)
            if f is None or h is None:
                continue
            found += 1
            composite = f.compose(h)
            assert composite.source == a and composite.target == c
            assert verify_graph_homomorphism(composite)

    def test_empty_map_verifies(self):
        empty = SimplicialGraph(())
        assert verify_graph_homomorphism(VertexMap(empty, triangle(), {}))

    def test_agrees_with_the_group_homomorphism_check(self):
        # the paper's equivalence of the group and graph homomorphism problems, with the
        # package's solver as the group oracle: a label map f is a homomorphism of graphs
        # exactly when, for each source edge ab, [f(a), f(b)] is trivial in A(target) and
        # f(a) f(b)^-1 is not. The commutator clause alone also takes maps that send an
        # edge to one vertex, such as the constant map, which no edge check accepts
        def clauses(f):
            group, commute, distinct = Raag(f.target), True, True
            for a, b in f.source.edge_list():
                x, y = f.assignment[a], f.assignment[b]
                commute &= is_trivial(group, ((x, 1), (y, 1), (x, -1), (y, -1)))
                distinct &= not is_trivial(group, ((x, 1), (y, -1)))
            return commute, distinct

        rng = random.Random(35)
        counts = {(True, True): 0, (True, False): 0}
        for _ in range(1000):
            source = random_graph(rng.randint(1, 8), rng.random(), rng.getrandbits(32))
            target = random_graph(rng.randint(1, 8), rng.random(), rng.getrandbits(32))
            images = target.vertices
            f = VertexMap(source, target, {v: rng.choice(images) for v in source.vertices})
            commute, distinct = clauses(f)
            assert (commute and distinct) == verify_graph_homomorphism(f)
            if commute:
                counts[commute, distinct] += 1
        assert min(counts.values()) >= 100, counts
        path = SimplicialGraph(("a", "b", "c"), [("a", "b"), ("b", "c")])
        constant = VertexMap(path, triangle(), dict.fromkeys(path.vertices, "t0"))
        assert clauses(constant) == (True, False)
        assert not verify_graph_homomorphism(constant)

    def test_map_errors_name_the_first_culprit(self):
        c3, t = cycle(3), triangle()
        with pytest.raises(GraphError, match="^assignment missing source vertex 'c1'$"):
            VertexMap(c3, t, {"c0": "t0", "x": "t1", "c2": "t2"})
        with pytest.raises(GraphError, match="^assignment key 'x' is not a source vertex$"):
            VertexMap(c3, t, {"x": "t0", "c0": "t0", "c1": "t1", "c2": "t2"})
        with pytest.raises(GraphError, match="^image 'c0' of 'c1' is not a target vertex$"):
            VertexMap(c3, t, {"c0": "t0", "c1": "c0", "c2": "x"})


class TestFindHomomorphism:
    def test_five_cycle_is_three_colorable(self):
        f = find_graph_homomorphism(cycle(5), triangle())
        assert f is not None and verify_graph_homomorphism(f)

    def test_k4_is_not_three_colorable(self):
        assert find_graph_homomorphism(complete(4), triangle()) is None

    def test_graph_to_itself(self):
        g = cycle(6)
        f = find_graph_homomorphism(g, g)
        assert f is not None and verify_graph_homomorphism(f)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            find_graph_homomorphism(cycle(5), triangle(), budget=0)

    def test_budget_exhaustion_is_distinct(self):
        with pytest.raises(SearchBudgetExceeded):
            find_graph_homomorphism(complete(5), triangle(), budget=3)

    def test_empty_source(self):
        f = find_graph_homomorphism(SimplicialGraph(()), triangle())
        assert f is not None and f.assignment == {}

    def test_search_deeper_than_the_recursion_limit(self):
        # one search depth per source vertex, past Python's default limit of 1,000 frames
        source = SimplicialGraph(tuple(f"x{i}" for i in range(1100)))
        f = find_graph_homomorphism(source, triangle())
        assert f is not None and verify_graph_homomorphism(f)
        assert set(f.assignment.values()) == {"t0"}  # lowest target index first
        with pytest.raises(SearchBudgetExceeded):
            find_graph_homomorphism(source, triangle(), budget=1050)

    def test_agrees_with_brute_force_search(self):
        rng = random.Random(21)
        for _ in range(200):
            source = random_graph(rng.randint(1, 5), rng.random(), rng.getrandbits(32))
            target = random_graph(rng.randint(1, 4), rng.random(), rng.getrandbits(32))
            f = find_graph_homomorphism(source, target, budget=10**6)
            assert (f is not None) == brute_force_homomorphism_exists(source, target)
            if f is not None:
                assert verify_graph_homomorphism(f)

    def test_search_verify_agreement_on_random_instances(self):
        rng = random.Random(33)
        for _ in range(1000):
            source = random_graph(rng.randint(0, 7), rng.random(), rng.getrandbits(32))
            f = find_graph_homomorphism(source, triangle(), budget=10**6)
            if f is not None:
                assert verify_graph_homomorphism(f)
            else:
                assert not brute_force_three_colorable(source)


class TestInducedIsomorphism:
    def test_disjoint_edges(self):
        g = SimplicialGraph(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
        assert verify_induced_subgraph_isomorphism(g, ["a", "b"], ["c", "d"],
                                                   {"a": "c", "b": "d"})

    def test_edge_to_nonedge_fails(self):
        g = SimplicialGraph(("a", "b", "c"), [("a", "b"), ("b", "c")])
        assert not verify_induced_subgraph_isomorphism(g, ["a", "b"], ["a", "c"],
                                                       {"a": "a", "b": "c"})

    def test_identity(self):
        rng = random.Random(5)
        for _ in range(50):
            g = random_graph(rng.randint(1, 6), rng.random(), rng.getrandbits(32))
            members = [v for v in g.vertices if rng.random() < 0.6]
            ident = {v: v for v in members}
            assert verify_induced_subgraph_isomorphism(g, members, members, ident)

    def test_non_bijection_rejected(self):
        g = SimplicialGraph(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
        with pytest.raises(GraphError):
            verify_induced_subgraph_isomorphism(g, ["a", "b"], ["c", "d"],
                                                {"a": "c", "b": "c"})
        with pytest.raises(GraphError):
            verify_induced_subgraph_isomorphism(g, ["a", "b"], ["c", "d"], {"a": "c"})

    def test_verify_agrees_with_pairwise_check(self):
        # overlapping subsets and bijections that are not isomorphisms
        rng = random.Random(77)
        verdicts = {True: 0, False: 0}
        for _ in range(600):
            g = random_graph(rng.randint(1, 12), rng.random(), rng.getrandbits(32))
            k = rng.randint(0, len(g.vertices))
            s1, s2 = rng.sample(g.vertices, k), rng.sample(g.vertices, k)
            f = dict(zip(s1, s2))
            pairwise = all(g.has_edge(u, v) == g.has_edge(f[u], f[v])
                           for u, v in combinations(s1, 2))
            assert verify_induced_subgraph_isomorphism(g, s1, s2, f) == pairwise
            assert verify_induced_subgraph_isomorphism(g, VertexSubset(g, s1),
                                                       VertexSubset(g, s2), f) == pairwise
            verdicts[pairwise] += 1
        assert min(verdicts.values()) > 100  # both verdicts are exercised

    @pytest.mark.parametrize("n", [64, 257, 300])
    def test_large_ambient_graphs_agree_with_pairwise_check(self, n):
        # members among the top 24 indices, the last vertex always an image (bit 256 and up
        # at 257 and 300 vertices): a map planted on disjoint subsets, the same map with one
        # image pair flipped, and a random bijection between overlapping subsets
        def pairwise(g, f):
            return all(g.has_edge(u, v) == g.has_edge(f[u], f[v]) for u, v in combinations(f, 2))

        def toggled(g, pairs):  # g with the edge state of each vertex pair swapped
            masks = list(g.adjacency_masks())
            for u, v in pairs:
                i, j = g.index_of(u), g.index_of(v)
                masks[i] ^= 1 << j
                masks[j] ^= 1 << i
            return SimplicialGraph._trusted(g.vertices, masks)

        rng = random.Random(n)
        verdicts = {True: 0, False: 0}
        for _ in range(40):
            g = random_graph(n, rng.random(), rng.getrandbits(32))
            top, k = g.vertices[-24:], rng.randint(2, 12)
            picked = rng.sample(top[:-1], 2 * k - 1) + [top[-1]]
            s1, s2 = picked[:k], picked[k:]
            f = dict(zip(s1, s2))
            planted = toggled(g, [(f[u], f[v]) for u, v in combinations(s1, 2)
                                  if g.has_edge(u, v) != g.has_edge(f[u], f[v])])
            flipped = toggled(planted, [rng.sample(s2, 2)])
            m = rng.randint(1, 5)
            s3, s4 = rng.sample(top, m), rng.sample(top, m)
            for graph, a, b, expected in [(planted, s1, s2, True), (flipped, s1, s2, False),
                                          (g, s3, s4, None)]:
                h = dict(zip(a, b))
                verdict = verify_induced_subgraph_isomorphism(graph, a, b, h)
                assert verdict == pairwise(graph, h) and expected in (None, verdict)
                assert verify_induced_subgraph_isomorphism(graph, VertexSubset(graph, a),
                                                           VertexSubset(graph, b), h) == verdict
                verdicts[verdict] += 1
        assert min(verdicts.values()) >= 40  # both verdicts are exercised

    def test_agrees_with_the_group_subgroup_check(self):
        # the problem that scheme "sub" poses, read in the group: a map f of generators
        # from s1 onto s2 extends to an isomorphism of the special subgroups they generate
        # exactly when the induced subgraphs are isomorphic through f (Droms), that is when
        # its images are distinct and a, b commute exactly when f(a), f(b) do, each decided
        # by the package's solver on the commutator
        def group_check(ambient, f):
            group = Raag(ambient)

            def commute(x, y):
                return is_trivial(group, ((x, 1), (y, 1), (x, -1), (y, -1)))

            return len(set(f.values())) == len(f) and all(
                commute(a, b) == commute(f[a], f[b]) for a, b in combinations(f, 2))

        rng = random.Random(20)
        counts = {"isomorphism": 0, "bijection": 0, "collapsed": 0}
        for i in range(2000):
            if i % 2:
                m = rng.randint(1, 6)
                key = auth.sub_keygen(2 * m + rng.randint(0, 4), m, rng.getrandbits(32))
                ambient, s1, s2 = key.ambient, key.s1, key.s2
                images = [key.alpha[v] for v in s1.ordered()]
            else:
                ambient = random_graph(rng.randint(1, 10), rng.random(), rng.getrandbits(32))
                k = rng.randint(1, len(ambient.vertices))
                s1 = VertexSubset(ambient, rng.sample(ambient.vertices, k))
                s2 = VertexSubset(ambient, rng.sample(ambient.vertices, k))
                images = list(s2.ordered())
            if rng.random() < 0.3:  # a random bijection onto s2 in place of the drawn one
                rng.shuffle(images)
            if len(images) > 1 and rng.random() < 0.1:  # two generators onto one
                images[0] = images[1]
            f = dict(zip(s1.ordered(), images))
            try:
                graph = verify_induced_subgraph_isomorphism(ambient, s1, s2, f)
                counts["isomorphism" if graph else "bijection"] += 1
            except GraphError:  # not a bijection onto s2
                graph = False
                counts["collapsed"] += 1
            assert group_check(ambient, f) == graph
        assert min(counts.values()) >= 100, counts

    def test_verify_errors(self):
        g = SimplicialGraph(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
        for s1, s2, f, needle in [
                (["a", "b"], ["c", "d"], {"a": "c", "b": "d", "c": "a"}, "first subset"),
                (["a", "b"], ["c", "d"], {"a": "c", "b": "a"}, "bijection"),
                (["a", "b"], ["c", "d", "a"], {"a": "c", "b": "d"}, "bijection"),
                (["a", "b"], ["c"], {"a": "c", "b": "c"}, "bijection"),
                (["a", "zz"], ["c", "d"], {"a": "c", "zz": "d"}, "'zz' is not a vertex"),
                (["a", "b"], ["c", "yy"], {"a": "c", "b": "yy"}, "'yy' is not a vertex"),
                (VertexSubset(cycle(4), ["c0"]), ["c"], {"c0": "c"}, "different parent")]:
            with pytest.raises(GraphError, match=needle):
                verify_induced_subgraph_isomorphism(g, s1, s2, f)

    def test_subset_member_errors(self):
        g = SimplicialGraph(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
        for s in (["a", "zz", "b", "yy"], ("a", "zz", "yy"), iter(["zz", "a", "yy"])):
            with pytest.raises(GraphError, match="'zz' is not a vertex"):
                find_induced_subgraph_isomorphism(g, s, ["a", "b"])
        foreign = VertexSubset(SimplicialGraph(("a", "b")), ["a", "b"])
        with pytest.raises(GraphError, match="different parent"):
            find_induced_subgraph_isomorphism(g, foreign, ["c", "d"])
        with pytest.raises(GraphError, match="different parent"):
            find_induced_subgraph_isomorphism(g, ["c", "d"], foreign)
        # an iterator is read once: a valid one still gives its members
        assert find_induced_subgraph_isomorphism(g, iter(["b", "a"]), iter(["d", "c"])) == {
            "a": "c", "b": "d"}

    def test_bare_string_is_not_a_subset(self):
        # a string is refused, not read as its characters, even where they are vertices
        g = SimplicialGraph(("a", "b", "c", "d", "v0"), [("a", "b"), ("c", "d")])
        needle = "is a string, not a collection of vertex labels"
        for subset in ("v0", "ab"):
            with pytest.raises(GraphError, match=f"subset '{subset}' {needle}"):
                VertexSubset(g, subset)
            with pytest.raises(GraphError, match=needle):
                induced_subgraph(g, subset)
        with pytest.raises(GraphError, match="subset 'ab' " + needle):
            find_induced_subgraph_isomorphism(g, "ab", ["c", "d"])
        with pytest.raises(GraphError, match="subset 'cd' " + needle):
            find_induced_subgraph_isomorphism(g, ["a", "b"], "cd")
        with pytest.raises(GraphError, match=needle):
            verify_induced_subgraph_isomorphism(g, "ab", "cd", {"a": "c", "b": "d"})
        # a one-label list still names the label
        assert VertexSubset(g, ["v0"]).members == frozenset({"v0"})

    def test_stranger_named_in_the_order_given(self):
        # a frozenset's order follows the hash seed; the error, which a key
        # file's reader passes on, must not
        code = textwrap.dedent("""\
            from raagcrypt.auth import AuthError, parse_public_key
            from raagcrypt.graphs import GraphError, VertexSubset, random_graph
            try:
                VertexSubset(random_graph(3, 0.5, 1), ["v0", "zz", "yy", "xx"])
            except GraphError as e:
                print(e)
            try:
                parse_public_key("scheme sub\\ngraph ambient\\nvertices a b\\n"
                                 "subset s1 a zz yy xx\\nsubset s2 b\\n")
            except AuthError as e:
                print(e)
            """)
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(graphs.__file__)))
        inherited = os.environ.get("PYTHONPATH")
        path = package_root + (os.pathsep + inherited if inherited else "")
        message = "subset member 'zz' is not a vertex of the parent graph"
        for seed in ("0", "4242"):
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                                 check=True).stdout
            assert out == f"{message}\nbad subset in key file: {message}\n"

    def test_find_size_mismatch_returns_none(self):
        g = cycle(5)
        assert find_induced_subgraph_isomorphism(g, ["c0", "c1"], ["c2"]) is None

    def test_find_identity_on_equal_subsets(self):
        g = cycle(6)
        members = ["c0", "c2", "c3"]
        assert find_induced_subgraph_isomorphism(g, members, members) == {v: v for v in members}

    def test_find_result_verifies(self):
        rng = random.Random(17)
        hits = 0
        for _ in range(300):
            g = random_graph(rng.randint(2, 7), rng.random(), rng.getrandbits(32))
            k = rng.randint(1, max(1, len(g.vertices) // 2))
            picks = rng.sample(list(g.vertices), min(2 * k, len(g.vertices)))
            s1, s2 = picks[:k], picks[k:2 * k]
            if len(s2) < k:
                continue
            f = find_induced_subgraph_isomorphism(g, s1, s2, budget=10**6)
            if f is not None:
                hits += 1
                assert verify_induced_subgraph_isomorphism(g, s1, s2, f)
        assert hits > 20  # the corpus really exercises the success path

    def test_find_agrees_with_brute_force(self):
        # completeness as well as soundness: a search that prunes a
        # solvable instance to None fails here
        rng = random.Random(29)
        outcomes = {True: 0, False: 0}
        for _ in range(400):
            g = random_graph(rng.randint(2, 8), rng.random(), rng.getrandbits(32))
            k = rng.randint(1, min(4, len(g.vertices) // 2))
            picks = rng.sample(list(g.vertices), 2 * k)
            s1, s2 = picks[:k], picks[k:]
            f = find_induced_subgraph_isomorphism(g, s1, s2, budget=10**6)
            exists = brute_force_induced_isomorphism_exists(g, s1, s2)
            assert (f is not None) == exists, (format_graph(g), s1, s2)
            if f is not None:
                assert verify_induced_subgraph_isomorphism(g, s1, s2, f)
            outcomes[exists] += 1
        assert min(outcomes.values()) > 50  # both outcomes are exercised

    def test_find_deeper_than_the_recursion_limit(self):
        # a path on 1,050 vertices onto itself: forward checking forces the
        # identity from the first endpoint, one search depth per member
        path = SimplicialGraph(tuple(f"p{i}" for i in range(1050)),
                               [(f"p{i}", f"p{i + 1}") for i in range(1049)])
        members = list(path.vertices)
        f = find_induced_subgraph_isomorphism(path, members, members[::-1])
        assert f == {v: v for v in members}

    def test_find_budget(self):
        g = complete(8)
        with pytest.raises(SearchBudgetExceeded):
            find_induced_subgraph_isomorphism(g, list(g.vertices[:4]), list(g.vertices[4:]),
                                              budget=2)
        with pytest.raises(ValueError):
            find_induced_subgraph_isomorphism(g, ["k0"], ["k1"], budget=0)


class TestSearchGolden:
    # a digest over the maps both searches return on planted and random
    # instances, their None outcomes, and which calls run out of a small
    # budget: a change that only speeds the searches up leaves it as is
    DIGEST = "b8cd9a4cf42415c13426cf61ee6db9ae504eafff8f6c5e58f71313e9b40881cb"

    def test_search_outcomes_are_pinned(self):
        h = hashlib.sha256()

        def add(call):
            try:
                out = call()
            except SearchBudgetExceeded:
                out = "budget"
            if isinstance(out, VertexMap):
                out = out.assignment
            if isinstance(out, dict):
                out = " ".join(f"{u}>{v}" for u, v in out.items())
            h.update(f"{out}\n".encode())

        rng = random.Random(1313)
        budgets = (1, 2, 3, 5, 8, 13, 40, 120)
        for n1, n2, seeds in [(8, 8, 8), (16, 16, 6), (24, 32, 2)]:
            for seed in range(1, seeds + 1):
                key = auth.hom_keygen(n1, n2, seed)
                for budget in (10**6, rng.choice(budgets)):
                    add(lambda: find_graph_homomorphism(key.g1, key.g2, budget=budget))
        for n, m, seeds in [(16, 7, 6), (32, 12, 6), (64, 24, 2)]:
            for seed in range(1, seeds + 1):
                key = auth.sub_keygen(n, m, seed)
                given = (key.s1, key.s2), (sorted(key.s1.members, reverse=True), key.s2.members)
                for s1, s2 in given:
                    for budget in (10**6, rng.choice(budgets)):
                        add(lambda: find_induced_subgraph_isomorphism(key.ambient, s1, s2,
                                                                      budget=budget))
        for _ in range(300):
            source = random_graph(rng.randint(0, 8), rng.random(), rng.getrandbits(32))
            target = random_graph(rng.randint(1, 6), rng.random(), rng.getrandbits(32))
            for budget in (10**6, rng.choice(budgets)):
                add(lambda: find_graph_homomorphism(source, target, budget=budget))
        for _ in range(300):
            g = random_graph(rng.randint(1, 14), rng.random(), rng.getrandbits(32))
            k = rng.randint(0, len(g.vertices))
            # overlapping subsets, and now and then sizes that differ
            s1 = rng.sample(g.vertices, k)
            s2 = rng.sample(g.vertices, k if rng.random() < 0.9 else rng.randint(0, k))
            for budget in (10**6, rng.choice(budgets)):
                add(lambda: find_induced_subgraph_isomorphism(g, s1, s2, budget=budget))
        assert h.hexdigest() == self.DIGEST


class TestForwardCheckReference:
    """The search reproduces ``reference_forward_check`` on the inputs both finders build."""

    @staticmethod
    def _outcome(search, args, budget):
        try:
            return search(*args, budget, "test")
        except SearchBudgetExceeded as e:
            return str(e)

    def test_forward_check_matches_reference(self, monkeypatch):
        rng = random.Random(2424)
        calls = []  # (masks, domains, on, off) as each finder passes them
        monkeypatch.setattr(graphs, "_forward_check",
                            lambda *args: calls.append(args[:4]) or (None, 0))
        for _ in range(350):  # all-ones domains; none at all on an empty target
            source = random_graph(rng.randint(0, 14), rng.random(), rng.getrandbits(32))
            target = random_graph(rng.randint(0, 20), rng.random(), rng.getrandbits(32))
            find_graph_homomorphism(source, target)
        for _ in range(175):  # planted keys: degree-filtered domains that hold a map
            m = rng.randint(1, 14)
            key = auth.sub_keygen(rng.randint(2 * m, 40), m, rng.getrandbits(32))
            find_induced_subgraph_isomorphism(key.ambient, key.s1, key.s2)
        for _ in range(175):  # overlapping random subsets: often an empty domain
            g = random_graph(rng.randint(2, 40), rng.random(), rng.getrandbits(32))
            k = rng.randint(0, min(14, len(g.vertices)))
            find_induced_subgraph_isomorphism(g, rng.sample(g.vertices, k),
                                              rng.sample(g.vertices, k))
        monkeypatch.undo()
        assert len(calls) == 700
        for args in calls:
            for budget in (1, rng.randint(2, 12), 10**5):
                assert (self._outcome(graphs._forward_check, args, budget)
                        == self._outcome(reference_forward_check, args, budget))


class TestRandomGraph:
    def test_empty(self):
        g = random_graph(0, 0.7, 1)
        assert g.vertices == () and not g.edges

    def test_probability_one_gives_complete(self):
        g = random_graph(5, 1.0, 99)
        assert len(g.edges) == 10

    def test_probability_zero_gives_isolated(self):
        g = random_graph(5, 0.0, 99)
        assert not g.edges

    def test_reproducible_bytes(self):
        a = format_graph(random_graph(9, 0.4, 1234))
        b = format_graph(random_graph(9, 0.4, 1234))
        assert a == b
        assert format_graph(random_graph(9, 0.4, 1235)) != a

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_graph(-1, 0.5, 0)
        with pytest.raises(ValueError):
            random_graph(3, 1.5, 0)

    def test_triangle_helper(self):
        assert triangle_vertices(complete(4)) is not None
        assert triangle_vertices(cycle(5)) is None


class TestTextFormats:
    def test_graph_round_trip(self):
        rng = random.Random(8)
        for _ in range(50):
            g = random_graph(rng.randint(0, 8), rng.random(), rng.getrandbits(32))
            assert parse_graph(format_graph(g)) == g

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nvertices a b c\n# another\nedge a b\n\nedge b c\n"
        g = parse_graph(text)
        assert g.vertices == ("a", "b", "c") and len(g.edges) == 2

    def test_parse_errors(self):
        with pytest.raises(GraphError):
            parse_graph("edge a b\n")  # no vertices line
        with pytest.raises(GraphError):
            parse_graph("vertices a\nvertices b\n")
        with pytest.raises(GraphError):
            parse_graph("vertices a b\nedge a\n")
        with pytest.raises(GraphError):
            parse_graph("vertices a b\nfrobnicate a b\n")
        with pytest.raises(GraphError):
            parse_graph("vertices a\nedge a a\n")


def _reference_case(rng: random.Random):
    """Random graph data as plain sets: 0-40 vertices, density 0.1-0.9,
    declared in shuffled label order, edges listed in random order and
    orientation."""
    n = rng.randint(0, 40)
    p = rng.uniform(0.1, 0.9)
    vertices = [f"x{k}" for k in range(n)]
    rng.shuffle(vertices)
    edges = {frozenset((vertices[i], vertices[j]))
             for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    listed = [tuple(e) if rng.random() < 0.5 else tuple(e)[::-1] for e in edges]
    rng.shuffle(listed)
    return tuple(vertices), edges, listed


class TestMaskCore:
    """The int bitmasks are the only edge store; every other view is derived."""

    def test_views_match_plain_set_reference(self):
        rng = random.Random(606)
        for _ in range(300):
            vertices, edges, listed = _reference_case(rng)
            g = SimplicialGraph(vertices, listed)
            index = {v: i for i, v in enumerate(vertices)}
            adjacency = {v: frozenset(u for u in vertices if frozenset((u, v)) in edges)
                         for v in vertices}
            assert g.edges == frozenset(edges)
            assert g.adjacency == adjacency
            assert g.nonneighbors() == tuple(
                tuple(j for j, u in enumerate(vertices) if u != v and u not in adjacency[v])
                for v in vertices)
            assert g.adjacency_masks() == tuple(sum(1 << index[u] for u in adjacency[v])
                                                for v in vertices)
            assert g.edge_list() == sorted((tuple(sorted(e, key=index.__getitem__)) for e in edges),
                                           key=lambda e: (index[e[0]], index[e[1]]))
            for u in vertices[:5]:
                for v in vertices[:5]:
                    assert g.has_edge(u, v) == (frozenset((u, v)) in edges)
                assert not g.has_edge(u, "unknown") and not g.has_edge("unknown", u)
            same = SimplicialGraph(vertices, reversed(listed))
            assert g == same and hash(g) == hash(same)
            if len(vertices) >= 2:
                u, v = vertices[0], vertices[1]
                toggled = edges ^ {frozenset((u, v))}
                assert g != SimplicialGraph(vertices, [tuple(e) for e in toggled])
                assert g != SimplicialGraph(vertices[::-1], listed)

    def test_never_equal_to_another_type(self):
        g = SimplicialGraph(("a", "b"), [("a", "b")])
        assert g.__eq__(g.vertices) is NotImplemented
        assert g != g.vertices and g != g.edges and g != object()

    @staticmethod
    def _pulled_back(g, labels):
        """The plain reference for ``_induced_masks``: one ``has_edge`` per position pair."""
        return tuple(sum(1 << j for j, w in enumerate(labels) if g.has_edge(v, w))
                     for v in labels)

    def test_induced_masks_match_has_edge_reference(self):
        rng = random.Random(707)
        cases = [SimplicialGraph(vertices, listed)
                 for vertices, _, listed in (_reference_case(rng) for _ in range(200))]
        # both sides of the 256-vertex split: translate tables below it, the bit walk above
        cases += [random_graph(n, 0.3, n) for n in (255, 256, 257, 300)]
        for g in cases:
            vs = g.vertices
            drawn = [rng.choice(vs) for _ in range(rng.randint(1, 2 * len(vs)))] if vs else []
            for labels in (drawn, list(vs), list(vs[:1]), list(vs[:1]) * 3, []):
                expected = self._pulled_back(g, labels)
                assert g._induced_masks(labels) == expected
                assert g._induced_masks(iter(labels)) == expected  # read once

    def test_row_tables_outlive_the_memo(self):
        # a graph keeps its own rows' tables from its first pullback; a later pullback must
        # give the same masks after the memo is emptied, and above 256 vertices no tuple is kept
        rng = random.Random(808)
        for n in (1, 255, 256, 257):
            g = random_graph(n, 0.3, n)
            for _ in range(2):
                labels = [rng.choice(g.vertices) for _ in range(rng.randint(1, 2 * n))]
                assert g._induced_masks(labels) == self._pulled_back(g, labels)
                graphs._row_table.cache_clear()
            assert ("_row_tables" in vars(g)) == (n <= 256)

    def test_one_pullback_keeps_no_more_tables_than_the_rows_it_read(self):
        # a graph pulled back once (a fresh attack target) pays only for the rows its labels
        # reach; every row's table is kept from the second pullback on
        rng = random.Random(3030)
        for n in (8, 64, 256):
            g = random_graph(n, 0.3, n)
            half = rng.sample(g.vertices, n // 2)
            labels = [rng.choice(half) for _ in range(n)]
            assert g._induced_masks(labels) == self._pulled_back(g, labels)
            assert len(vars(g).get("_row_tables", ())) <= len(set(labels))
            assert g._induced_masks(half) == self._pulled_back(g, half)
            assert len(g._row_tables) == n

    def test_edge_list_is_a_fresh_list(self):
        g = cycle(5)
        first = g.edge_list()
        first.append(("c0", "c2"))
        first.reverse()
        assert g.edge_list() == [("c0", "c1"), ("c0", "c4"), ("c1", "c2"), ("c2", "c3"),
                                 ("c3", "c4")]
        assert len(g.edges) == 5 and not g.has_edge("c0", "c2")

    def test_trusted_builds_equal_validated_builds(self):
        rng = random.Random(11)
        built = []
        for seed in range(6):
            hom = auth.hom_keygen(3 + seed, 3 + 2 * seed, seed)
            sub = auth.sub_keygen(8 + 3 * seed, 2 + seed, seed)
            built += [hom.g1, hom.g2, sub.ambient, random_graph(seed * 7, 0.4, seed),
                      auth.hom_commit(hom.g1, 2 + seed, seed)[0],
                      auth._pullback_graph(hom.g2, auth._random_images(hom.g2, 9, rng), "c",
                                           rng, keep_prob=0.5)[0],
                      auth.sub_commit(sub.ambient, sub.s1, seed)[0],
                      auth.sub_commit(sub.ambient, sub.s2, seed)[0],
                      induced_subgraph(sub.ambient, rng.sample(sub.ambient.vertices, 5))]
        for g in built:
            assert g == SimplicialGraph(g.vertices, g.edge_list())

    TRUSTED_FAILURES = [
        (("a", "b"), (0b10, 0b00), "asymmetric"),
        (("a", "b"), (0b01, 0b00), "loop"),
        (("a", "b"), (0b100, 0b00), "bit >= 2"),
        (("a", "b"), (-1, 0b00), "bit >= 2"),
        (("a", "a"), (0, 0), "duplicate vertex"),
        (("a", "b c"), (0, 0), "whitespace"),
        (("a#", "b"), (0, 0), "forbidden character"),
        (("a", ""), (0, 0), "empty"),
        (("a", 7), (0, 0), "non-string"),
        (("a", "b"), (0,), "masks for 2 vertices"),
    ]

    @pytest.mark.parametrize("vertices,masks,needle", TRUSTED_FAILURES)
    def test_trusted_structural_check(self, vertices, masks, needle):
        with pytest.raises(GraphError, match=needle):
            SimplicialGraph._trusted(vertices, masks)

    @pytest.mark.parametrize("vertices,masks,needle", TRUSTED_FAILURES)
    def test_trusted_check_survives_the_label_memo(self, vertices, masks, needle):
        # the label check runs once per label tuple: a failure must not be
        # remembered as a pass, and an accepted tuple must not excuse its masks
        SimplicialGraph._trusted(("a", "b"), (0b10, 0b01))
        for _ in range(2):
            with pytest.raises(GraphError, match=needle):
                SimplicialGraph._trusted(vertices, masks)

    def test_trusted_checks_the_masks_of_commitment_labels(self):
        labels = auth._labels("c", 3)
        assert SimplicialGraph._trusted(labels, (0b010, 0b001, 0)).has_edge("c0", "c1")
        for masks, needle in [((0b010, 0, 0), "asymmetric"), ((0b011, 0b001, 0), "loop"),
                              ((0b1010, 0b001, 0), "bit >= 3"), ((0b010, 0b001), "3 vertices")]:
            for _ in range(2):
                with pytest.raises(GraphError, match=needle):
                    SimplicialGraph._trusted(labels, masks)

    def test_trusted_accepts_valid_masks(self):
        g = SimplicialGraph._trusted(("a", "b", "c"), (0b110, 0b001, 0b001))
        assert g == SimplicialGraph(("a", "b", "c"), [("a", "b"), ("a", "c")])


def walked_check(vertices, masks):
    """The row-by-row walk that ``_trusted`` ran before its transpose check, kept as the
    reference: the message of the first row that disagrees with the rows before it (a bit
    at or above n, a loop, or a bit unlike its mirror), or None when the masks pass."""
    n = len(vertices)
    column = [0] * n  # bits j < i with bit i set in masks[j]
    for i, m in enumerate(masks):
        if m >> n or m & (2 << i) - 1 != column[i]:
            return f"mask of {vertices[i]!r}: asymmetric, a loop or a bit >= {n}"
        above = m >> i + 1
        while above:
            low = above & -above
            column[i + low.bit_length()] |= 1 << i
            above ^= low
    return None


class TestTrustedTranspose:
    @staticmethod
    def _corruptions(rng, masks):
        """Valid masks first, then copies broken in each way the check must catch: an
        asymmetric bit, a loop, a bit at or above n but below the packing stride, a bit
        at or above the stride, a negative mask, and several of these at once."""
        n = len(masks)
        stride = max(8, 1 << (n - 1).bit_length())
        yield masks
        if not n:
            return
        for bits in ([rng.randrange(n), rng.randrange(n)],  # asymmetric, or a loop if equal
                     [rng.randrange(n)] * 2,  # a loop
                     [rng.randrange(n), rng.randrange(n, stride + 1)],
                     [rng.randrange(n), rng.randrange(stride, stride + 70)]):
            broken = list(masks)
            broken[bits[0]] ^= 1 << bits[1]
            yield broken
        broken = list(masks)
        broken[rng.randrange(n)] = -rng.randrange(1, 1 << n)
        yield broken
        broken = list(masks)
        for _ in range(3):
            broken[rng.randrange(n)] ^= 1 << rng.randrange(stride + 8)
        yield broken

    def test_transpose_check_agrees_with_the_walk(self):
        # n = 0..300 runs the bytes, array and to_bytes packings, at strides 8 to 512
        rng = random.Random(3535)
        for n in range(301):
            if n > 70 and n % 23 not in (0, 1) and n not in (127, 128, 129, 255, 256, 257):
                continue
            vertices = tuple(f"v{i}" for i in range(n))
            masks = random_graph(n, rng.random(), n).adjacency_masks()
            for case in self._corruptions(rng, masks):
                expected = walked_check(vertices, case)
                if expected is None:
                    assert SimplicialGraph._trusted(vertices, case).adjacency_masks() == tuple(case)
                else:
                    with pytest.raises(GraphError) as caught:
                        SimplicialGraph._trusted(vertices, case)
                    assert str(caught.value) == expected, (n, case)

    def test_memoized_masks_stay_per_power_of_two(self):
        graphs._transpose_masks.cache_clear()
        for n in range(1, 70):
            random_graph(n, 0.5, n)  # built by _trusted
        assert graphs._transpose_masks.cache_info().currsize == 8  # b = 1, 2, 4, .., 128

    def test_large_graphs_leave_no_transpose_masks_behind(self):
        # b = 2048 would keep 6.15 MB of masks; above b = 256 they are built per call
        graphs._transpose_masks.cache_clear()
        vertices, masks = [f"v{i}" for i in range(1025)], [0] * 1025
        tracemalloc.start()
        try:
            graph = SimplicialGraph._trusted(vertices, masks)
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert graph.vertices == tuple(vertices) and left < 1 << 20, left

    def test_large_graphs_build_one_swap_mask_at_a_time(self):
        # at b = 2048 a swap mask is 0.5 MB, and all 11 of them at once peaked at 6.7 MB
        vertices, masks = [f"v{i}" for i in range(1025)], [0] * 1025
        SimplicialGraph._trusted(vertices, masks)  # the memoized label check is not measured
        tracemalloc.start()
        try:
            SimplicialGraph._trusted(vertices, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak


class TestLastPullback:
    def test_interleaved_pullbacks_equal_fresh_ones(self):
        # repeat, change, repeat: the last pullback's masks come back only for its own
        # index bytes, on both sides of the 256-vertex split
        rng = random.Random(3636)
        for n in (1, 7, 16, 255, 256, 257, 300):
            g = random_graph(n, 0.4, n)
            first = [rng.choice(g.vertices) for _ in range(min(n, 12))]
            changed = first[:-1] + [g.vertices[(g.index_of(first[-1]) + 1) % n]]
            shorter, swapped = first[:-1], first[::-1]
            for labels in (first, first, changed, first, first, shorter, changed, changed,
                           swapped, first, [], [], first):
                fresh = SimplicialGraph._trusted(g.vertices, g.adjacency_masks())
                assert g._induced_masks(iter(labels)) == fresh._induced_masks(labels), (n, labels)

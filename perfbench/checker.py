"""Answer checks for every query kind, using only :mod:`reference`.

Facts that do not depend on a choice of basis (exit codes, ``graph_like``,
ranks, torsion orders, whether a tree exists, tree sizes) are pinned
exactly.  Bases, trees and witnesses may legitimately change, so they are
checked by their defining properties: cycles have zero boundary, cuts are
orthogonal to cycles and lie in the right lattice, fundamental cuts and
cycles have their Kronecker pattern, and witnesses certify what they claim.
"""

from __future__ import annotations

import json
from fractions import Fraction

import reference
from reference import DocFacts, dot, rank_mod_p
from workloads import BUILTINS, Query

CONDITIONS = (
    "canonical_iso",
    "annihilator_equals_coboundary_image",
    "cuts_equal_cycle_perp",
    "boundary_image_direct_summand",
    "hom_dual_iso",
)


def _edge(label: str) -> int:
    if not label.startswith("e"):
        raise ValueError(f"bad edge label {label!r}")
    return int(label[1:]) - 1


def _scalar(value, ring: str):
    if ring == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"non-integer coefficient {value!r}")
        return value
    return Fraction(value)


def _chain(payload: dict, ring: str) -> dict[int, object]:
    out = {_edge(k): _scalar(v, ring) for k, v in payload.items()}
    return {k: v for k, v in out.items() if v}


def _dense(chain: dict[int, object], length: int) -> list:
    vector = [0] * length
    for i, v in chain.items():
        vector[i] = v
    return vector


class Checker:
    """Checks answers to the queries of one workload against its documents."""

    def __init__(self, docs: dict):
        self.docs = docs
        self._facts: dict[str, DocFacts] = {}

    def facts(self, name: str) -> DocFacts:
        if name not in self._facts:
            self._facts[name] = DocFacts(self.docs[name])
        return self._facts[name]

    def problems(self, query: Query, code: int, out: str) -> list[str]:
        """Everything wrong with one answer; an empty list means correct."""
        handler = getattr(self, "_" + query.kind.replace("-", "_"))
        try:
            return handler(query, code, out)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as err:
            return [f"malformed answer: {err!r}"]

    # -- documents and errors -------------------------------------------

    def _exit(self, query, code, out):
        problems = []
        if code != query.expect["code"]:
            problems.append(f"exit code {code}, expected {query.expect['code']}")
        if out.strip():
            problems.append("expected no report on stdout")
        return problems

    def _invalid(self, query, code, out):
        payload = json.loads(out)
        problems = [] if code == 1 else [f"exit code {code}, expected 1"]
        if payload["valid"] is not False:
            problems.append("invalid document reported valid")
        if not any(query.expect["violation"] in v for v in payload["violations"]):
            problems.append(f"no {query.expect['violation']!r} violation reported")
        return problems

    def _validate(self, query, code, out):
        doc = self.docs[query.doc]
        payload = json.loads(out)
        want = {"valid": True, "vertices": len(doc["vertices"]), "edges": len(doc["edges"])}
        problems = [] if code == 0 else [f"exit code {code}, expected 0"]
        if payload != want:
            problems.append(f"validate reported {payload}, expected {want}")
        return problems

    def _example(self, query, code, out):
        doc = json.loads(out)
        vertices, edges = BUILTINS[query.expect["name"]]
        got = [(set(e["tails"]), set(e["heads"])) for e in doc["edges"]]
        want = [(set(t), set(h)) for t, h in edges]
        problems = [] if code == 0 else [f"exit code {code}, expected 0"]
        if doc.get("name") != query.expect["name"] or doc["vertices"] != vertices or got != want:
            problems.append("example document differs from the built-in")
        return problems

    def _random(self, query, code, out):
        doc = json.loads(out)
        v, e, s = (query.expect[k] for k in ("vertices", "edges", "seed"))
        problems = [] if code == 0 else [f"exit code {code}, expected 0"]
        if doc.get("name") != f"random-v{v}-e{e}-s{s}":
            problems.append(f"unexpected document name {doc.get('name')!r}")
        if doc["vertices"] != [f"v{i + 1}" for i in range(v)] or len(doc["edges"]) != e:
            problems.append("wrong vertex list or edge count")
        known = set(doc["vertices"])
        seen = set()
        for edge in doc["edges"]:
            tails, heads = frozenset(edge["tails"]), frozenset(edge["heads"])
            if tails & heads or not (tails | heads) <= known or not (tails or heads):
                problems.append(f"malformed edge {edge}")
            if len(tails) > 3 or len(heads) > 3:
                problems.append(f"edge arity above 3: {edge}")
            if (heads, tails) in seen:
                problems.append(f"inverse pair at edge {edge}")
            seen.add((tails, heads))
        return problems

    # -- homology and decomposition -------------------------------------

    def _basis_problems(self, f: DocFacts, chains, count, what) -> list[str]:
        problems = []
        if len(chains) != count:
            problems.append(f"{what}: {len(chains)} vectors, expected {count}")
        vectors = [_dense(c, f.m) for c in chains]
        if vectors and rank_mod_p(vectors) != len(vectors):
            problems.append(f"{what}: vectors are linearly dependent")
        return problems

    def _cycle_problems(self, f: DocFacts, cycles, ring) -> list[str]:
        problems = self._basis_problems(f, cycles, f.m - f.rank, "cycle basis")
        if any(reference.apply_boundary(f.columns, c) for c in cycles):
            problems.append("a cycle has nonzero boundary")
        if ring == "int" and cycles:
            # a saturated lattice of full rank in the kernel is the kernel
            divisors = reference.elementary_divisors([_dense(c, f.m) for c in cycles])
            if any(d != 1 for d in divisors):
                problems.append("integer cycle basis does not span the cycle lattice")
        return problems

    def _homology(self, query, code, out):
        f = self.facts(query.doc)
        ring = query.args[query.args.index("--ring") + 1]
        payload = json.loads(out)
        free = f.m - f.rank
        torsion = f.torsion if ring == "int" else []
        problems = [] if code == 0 else [f"exit code {code}, expected 0"]
        if payload["ring"] != ring or payload["rank_image_boundary"] != f.rank:
            problems.append(f"rank {payload['rank_image_boundary']}, expected {f.rank}")
        if payload["h1"] != {"free_rank": free, "torsion": []}:
            problems.append(f"homology {payload['h1']}, expected free rank {free}")
        if payload["h1_cohomology"] != {"free_rank": free, "torsion": torsion}:
            problems.append(f"cohomology {payload['h1_cohomology']}, expected {free} {torsion}")
        cycles = [_chain(c, ring) for c in payload["h1_basis"]]
        return problems + self._cycle_problems(f, cycles, ring)

    def _decompose(self, query, code, out):
        f = self.facts(query.doc)
        ring = query.args[query.args.index("--ring") + 1]
        payload = json.loads(out)
        problems = [] if code == 0 else [f"exit code {code}, expected 0"]
        cycles = [_chain(c, ring) for c in payload["cycle_basis"]]
        cuts = [_chain(c, ring) for c in payload["cut_basis"]]
        problems += self._cycle_problems(f, cycles, ring)
        problems += self._basis_problems(f, cuts, f.rank, "cut basis")
        if any(dot(c, k) for c in cycles for k in cuts):
            problems.append("a cut is not orthogonal to a cycle")
        flags = ("mutually_orthogonal", "intersection_trivial", "dimensions_sum_to_edge_count")
        if not all(payload[k] is True for k in flags):
            problems.append("orthogonality, intersection or dimension flag is false")
        spans = True
        if ring == "int":
            cut_rows = [_dense(k, f.m) for k in cuts]
            if cut_rows:
                stacked = reference.elementary_divisors(f.rows + cut_rows)
                own = reference.elementary_divisors(cut_rows)
                wanted = reference.product(f.divisors)
                if len(stacked) != f.rank or reference.product(stacked) != wanted:
                    problems.append("a cut is not an integer coboundary")
                elif reference.product(own) != wanted:
                    problems.append("cut basis does not span the cut lattice")
            both = [_dense(c, f.m) for c in cycles] + cut_rows
            divisors = reference.elementary_divisors(both) if both else []
            spans = len(divisors) == f.m and all(d == 1 for d in divisors)
            missing = payload["missing_chain"]
            if spans and missing is not None:
                problems.append("missing chain reported although the sum is everything")
            if not spans:
                chain = _chain(missing or {}, "int")
                unit = len(chain) == 1 and list(chain.values()) == [1]
                if not unit or reference.in_row_lattice(both, _dense(chain, f.m), divisors):
                    problems.append("missing chain is not a unit chain outside the sum")
        elif payload["missing_chain"] is not None:
            problems.append("rational decomposition reported a missing chain")
        if payload["spans_all_chains"] is not spans:
            problems.append(f"spans_all_chains {payload['spans_all_chains']}, expected {spans}")
        return problems

    # -- graph-likeness ---------------------------------------------------

    def _graphlike(self, query, code, out):
        f = self.facts(query.doc)
        payload = json.loads(out)
        want = f.graph_like
        problems = [] if code == (0 if want else 1) else [f"exit code {code}"]
        if payload["graph_like"] is not want:
            problems.append(f"graph_like {payload['graph_like']}, expected {want}")
        if payload["conditions"] != {c: want for c in CONDITIONS}:
            problems.append("conditions disagree with the verdict")
        witnesses = payload["witnesses"]
        if want:
            if witnesses:
                problems.append("witnesses reported for a graph-like input")
            return problems
        if sorted(w["condition"] for w in witnesses) != sorted(CONDITIONS):
            problems.append("expected one witness per condition")
        vertex_index = {v: i for i, v in enumerate(f.doc["vertices"])}
        for w in witnesses:
            if w["basis"] == "vertices":
                vector = [0] * f.n
                for label, value in w["coefficients"].items():
                    vector[vertex_index[label]] = _scalar(value, "int")
                columns = reference.transpose(f.rows, f.m)
                in_span = rank_mod_p(columns + [vector]) == f.rank
                in_lattice = f.column_lattice_contains(vector)
            else:
                vector = _dense(_chain(w["coefficients"], "int"), f.m)
                in_span = rank_mod_p(f.rows + [vector]) == f.rank
                in_lattice = f.row_lattice_contains(vector)
            # a torsion witness lies in the rational span but not the lattice
            if not any(vector) or not in_span or in_lattice:
                problems.append(f"witness for {w['condition']} does not certify it")
        return problems

    # -- spanning trees ---------------------------------------------------

    def _tree_problems(self, f: DocFacts, payload, ring) -> list[str]:
        problems = []
        tree = [_edge(x) for x in payload["tree_edges"]]
        chords = [_edge(x) for x in payload["chords"]]
        if len(tree) != f.rank:
            problems.append(f"tree has {len(tree)} edges, expected {f.rank}")
        if sorted(tree + chords) != list(range(f.m)):
            problems.append("tree edges and chords do not partition the edges")
        cuts = {_edge(k): _chain(v, ring) for k, v in payload["fundamental_cuts"].items()}
        cycles = {_edge(k): _chain(v, ring) for k, v in payload["fundamental_cycles"].items()}
        if sorted(cuts) != sorted(tree) or sorted(cycles) != sorted(chords):
            problems.append("cuts or cycles are not indexed by tree edges and chords")
        for t, cut in cuts.items():
            if any(cut.get(s, 0) != (1 if s == t else 0) for s in tree):
                problems.append(f"cut of e{t + 1} lacks its Kronecker pattern")
        for e, cycle in cycles.items():
            if any(cycle.get(c, 0) != (1 if c == e else 0) for c in chords):
                problems.append(f"cycle of e{e + 1} lacks its Kronecker pattern")
            if reference.apply_boundary(f.columns, cycle):
                problems.append(f"cycle of e{e + 1} has nonzero boundary")
        if any(dot(c, k) for c in cycles.values() for k in cuts.values()):
            problems.append("a fundamental cut is not orthogonal to a fundamental cycle")
        return problems

    def _tree_int(self, query, code, out):
        f = self.facts(query.doc)
        payload = json.loads(out)
        tree = f.integer_tree
        if tree is None:
            if code != 1 or payload != {"found": False, "exhausted": True}:
                return [f"expected an exhausted search with exit code 1, got {code}"]
            return []
        problems = [] if code == 0 else [f"exit code {code}, expected 0"]
        if payload.get("found") is not True:
            return problems + ["no integer tree reported although one exists"]
        problems += self._tree_problems(f, payload, "int")
        if not reference.integral_basis(f.rows, [_edge(x) for x in payload["tree_edges"]]):
            problems.append("tree columns do not span a saturated lattice")
        return problems

    def _tree_rat(self, query, code, out):
        f = self.facts(query.doc)
        payload = json.loads(out)
        problems = self._tree_problems(f, payload, "rat")
        tree = [_edge(x) for x in payload["tree_edges"]]
        if tree != f.greedy_tree:
            problems.append("rational tree is not the greedy column basis")
        if payload["axioms_verified"] is not True:
            problems.append("axioms not verified")
        want_code = 0
        if query.expect.get("check_integral"):
            integral = reference.integral_basis(f.rows, f.greedy_tree)
            want_code = 0 if integral else 1
            if payload["integral"] is not integral:
                problems.append(f"integral {payload['integral']}, expected {integral}")
        if code != want_code:
            problems.append(f"exit code {code}, expected {want_code}")
        return problems

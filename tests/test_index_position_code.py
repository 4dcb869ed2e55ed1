"""Unit tests for position codes (Section IV-B, Figure 3(d)(e))."""

import random

import pytest

from repro.exceptions import IndexingError
from repro.geometry.mbr import MBR
from repro.geometry.trajectory import columns_of
from repro.index.position_code import (
    ALL_CODES,
    CODE_QUADS,
    NON_MAX_CODES,
    QUADS_TO_CODE,
    codes_avoiding,
    codes_for_element,
    index_space_rects,
    position_code_of,
    quad_rects,
)
from repro.index.quadrant import Element, smallest_enlarged_element


class TestCodeTable:
    def test_ten_codes(self):
        assert len(CODE_QUADS) == 10
        assert set(CODE_QUADS) == set(range(1, 11))

    def test_code_10_is_single_quad_a(self):
        assert CODE_QUADS[10] == frozenset("a")

    def test_all_other_codes_have_two_or_more_quads(self):
        for code in NON_MAX_CODES:
            assert len(CODE_QUADS[code]) >= 2

    def test_inverse_mapping(self):
        for code, quads in CODE_QUADS.items():
            assert QUADS_TO_CODE[quads] == code

    def test_quad_membership_counts_match_paper(self):
        """Section IV-B discussion: quads a, b, c, d appear in 8, 6, 6,
        5 of the ten index spaces (I/O reductions 80/60/60/50%)."""
        counts = {q: 0 for q in "abcd"}
        for quads in CODE_QUADS.values():
            for q in quads:
                counts[q] += 1
        assert counts == {"a": 8, "b": 6, "c": 6, "d": 5}

    def test_far_quad_c_prunes_the_papers_codes(self):
        """'we do not need to extract trajectories indexed with position
        codes 2, 4, 5, 6, 8, 9' when quad-c is far."""
        e = Element.from_sequence_str("00")
        keep = codes_avoiding({"c"}, e, max_resolution=16)
        assert sorted(set(range(1, 10)) - set(keep)) == [2, 4, 5, 6, 8, 9]

    def test_far_quads_b_and_c_keep_only_3(self):
        """'except for position codes 10 and 3, we can discard other
        index spaces' (code 10 exists only at max resolution)."""
        e = Element.from_sequence_str("00")
        assert codes_avoiding({"b", "c"}, e, max_resolution=16) == [3]
        e_max = Element.from_sequence_str("00")
        assert codes_avoiding({"b", "c"}, e_max, max_resolution=2) == [3, 10]

    def test_pairwise_reductions_match_paper(self):
        """ab: 100%, ac: 100%, ad: 90%, bd: 80%, cd: 80% (Section IV-B)."""
        # The paper counts out of all ten index spaces, i.e. at the
        # maximum resolution where code 10 participates.
        e = Element.from_sequence_str("0")

        def reduction(far):
            kept = codes_avoiding(far, e, max_resolution=1)
            return (10 - len(kept)) / 10 * 100

        assert reduction({"a", "b"}) == 100  # only {a}=10 avoids, absent here
        assert reduction({"a", "c"}) == 100
        assert reduction({"a", "d"}) == 90  # {b,c} survives
        assert reduction({"b", "d"}) == 80
        assert reduction({"c", "d"}) == 80


class TestQuadGeometry:
    def test_quad_layout(self):
        e = Element.from_sequence_str("0")  # cell [0,.5]^2, enlarged [0,1]^2
        rects = quad_rects(e)
        assert rects["a"] == MBR(0, 0, 0.5, 0.5)
        assert rects["b"] == MBR(0, 0.5, 0.5, 1.0)
        assert rects["c"] == MBR(0.5, 0, 1.0, 0.5)
        assert rects["d"] == MBR(0.5, 0.5, 1.0, 1.0)

    def test_quads_tile_enlarged_element(self):
        e = Element.from_sequence_str("21")
        rects = quad_rects(e)
        union = MBR.union_all(rects.values())
        assert union == e.enlarged_mbr()
        total = sum(r.area for r in rects.values())
        assert total == pytest.approx(e.enlarged_mbr().area)

    def test_index_space_rects(self):
        e = Element.from_sequence_str("0")
        rects = index_space_rects(e, 3)  # {a, d}
        assert MBR(0, 0, 0.5, 0.5) in rects
        assert MBR(0.5, 0.5, 1.0, 1.0) in rects
        assert len(rects) == 2

    def test_index_space_rects_bad_code(self):
        with pytest.raises(IndexingError):
            index_space_rects(Element.from_sequence_str("0"), 11)


class TestPositionCodeOf:
    def test_horizontal_pair(self):
        e = Element.from_sequence_str("0")  # enlarged [0,1]^2
        pts = [(0.1, 0.1), (0.9, 0.2)]  # a and c
        assert position_code_of(*columns_of(pts), e, 16) == QUADS_TO_CODE[
            frozenset("ac")
        ]

    def test_all_legal_combinations_reachable(self):
        e = Element.from_sequence_str("0")
        samples = {
            1: [(0.1, 0.1), (0.1, 0.9)],
            2: [(0.1, 0.1), (0.9, 0.1)],
            3: [(0.1, 0.1), (0.9, 0.9)],
            4: [(0.1, 0.1), (0.9, 0.1), (0.9, 0.9)],
            5: [(0.1, 0.1), (0.1, 0.9), (0.9, 0.1), (0.4, 0.4)],
            6: [(0.1, 0.1), (0.1, 0.9), (0.9, 0.1), (0.9, 0.9)],
            7: [(0.1, 0.1), (0.1, 0.9), (0.9, 0.9)],
            8: [(0.1, 0.9), (0.9, 0.1)],
            9: [(0.1, 0.9), (0.9, 0.1), (0.9, 0.9)],
        }
        for code, pts in samples.items():
            got = position_code_of(*columns_of(pts), e, max_resolution=16)
            assert got == code, code

    def test_code_10_only_at_max_resolution(self):
        e = Element.from_sequence_str("00")
        pts = [(0.05, 0.05), (0.1, 0.1)]  # inside quad a of '00'
        assert position_code_of(*columns_of(pts), e, max_resolution=2) == 10
        with pytest.raises(IndexingError):
            position_code_of(*columns_of(pts), e, max_resolution=16)

    def test_codes_for_element(self):
        shallow = Element.from_sequence_str("0")
        deep = Element.from_sequence_str("00")
        assert codes_for_element(shallow, 2) == NON_MAX_CODES
        assert codes_for_element(deep, 2) == ALL_CODES

    def test_real_placements_always_legal(self):
        """Random trajectories indexed via their true SEE never produce
        an illegal combination (the Section IV-B invariant)."""
        rng = random.Random(4)
        for _ in range(500):
            n = rng.randint(1, 12)
            x, y = rng.random() * 0.8, rng.random() * 0.8
            pts = [(x, y)]
            for _ in range(n):
                x = min(0.999, max(0.0, x + rng.uniform(-0.05, 0.05)))
                y = min(0.999, max(0.0, y + rng.uniform(-0.05, 0.05)))
                pts.append((x, y))
            mbr = MBR.of_points(pts)
            for max_res in (4, 8, 16):
                e = smallest_enlarged_element(mbr, max_res)
                code = position_code_of(*columns_of(pts), e, max_res)
                assert 1 <= code <= 10
                if e.level < max_res:
                    assert code != 10

from tropcurves.recursion import (
    irreducible_severi_degree,
    relative_count,
    severi_degree,
)


def test_lines_and_conics():
    assert severi_degree(1, 0) == 1
    assert severi_degree(2, 0) == 1
    assert severi_degree(2, -1) == 3  # pairs of lines through four points
    assert irreducible_severi_degree(1, 0) == 1
    assert irreducible_severi_degree(2, 0) == 1


def test_cubics():
    # 12 one-nodal cubics through 8 points; reducible one-nodal cubics
    # do not exist, so the absolute and irreducible counts agree
    assert severi_degree(3, 0) == 12
    assert irreducible_severi_degree(3, 0) == 12
    assert irreducible_severi_degree(3, 1) == 1
    # conic + line through 7 points: choose the conic's 5
    assert severi_degree(3, -1) == 21


def test_quartics_classical_values():
    assert irreducible_severi_degree(4, 3) == 1
    assert irreducible_severi_degree(4, 2) == 27
    assert irreducible_severi_degree(4, 1) == 225
    assert irreducible_severi_degree(4, 0) == 620
    # the absolute count adds smooth-cubic-plus-line configurations
    assert severi_degree(4, 0) == 620 + 55
    assert severi_degree(4, 1) == 225
    assert severi_degree(4, 2) == 27


def test_quintic_rational():
    assert irreducible_severi_degree(5, 0) == 87304


def test_out_of_range_vanishes():
    assert severi_degree(3, 2) == 0
    assert irreducible_severi_degree(2, 1) == 0
    assert severi_degree(2, -2) == 0


def test_relative_base_cases():
    assert relative_count(1, 0, (1,), (0,)) == 1
    assert relative_count(1, 0, (0,), (1,)) == 1
    assert relative_count(2, 0, (0, 0), (2, 0)) == 1
    # conic with one fixed simple contact and one free
    assert relative_count(2, 0, (1, 0), (1, 0)) == 1
    # conic tangent to the line through four points
    assert relative_count(2, 0, (0, 0), (0, 1)) == 2

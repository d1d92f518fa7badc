"""Unit conversions and formatting."""

import pytest

from repro.units import (
    DTYPE_BYTES,
    GB,
    KB,
    MB,
    humanize_bytes,
)


def test_binary_constants():
    assert KB == 1024
    assert MB == 1024**2
    assert GB == 1024**3


def test_paper_convention_table3_is_table1_over_1024():
    # Table III's GB values equal Table I's MB / 1024 under this convention.
    assert 615.05 * MB / GB == pytest.approx(615.05 / 1024)


def test_humanize_selects_unit():
    assert humanize_bytes(512) == "512 B"
    assert humanize_bytes(2 * KB) == "2.00 KB"
    assert humanize_bytes(3 * MB) == "3.00 MB"
    assert humanize_bytes(2 * GB) == "2.00 GB"


def test_humanize_negative():
    assert humanize_bytes(-3 * MB) == "-3.00 MB"


def test_humanize_precision():
    assert humanize_bytes(1536 * KB, precision=1) == "1.5 MB"


def test_dtype_bytes_cover_floats():
    assert DTYPE_BYTES["float32"] == 4
    assert DTYPE_BYTES["float16"] == 2
    assert DTYPE_BYTES["float64"] == 8

import numpy as np
import pytest

from paravox import bench


def test_receptive_field():
    assert bench.receptive_field(2, 17) == 33
    assert bench.receptive_field(6, 17) == 97


def test_lconv_op_count_exactly_affine_in_frames():
    counts = [bench.decoder_madds("lconv", t, d_model=16, blocks=2, kernel_size=5)
              for t in (8, 16, 24)]
    assert counts[2] - 2 * counts[1] + counts[0] == 0
    assert counts[1] > counts[0]


def test_transformer_op_count_exactly_quadratic():
    counts = [bench.decoder_madds("transformer", t, d_model=16, blocks=2)
              for t in (8, 16, 24, 32)]
    second = [counts[i + 2] - 2 * counts[i + 1] + counts[i] for i in range(2)]
    assert second[0] == second[1] > 0      # constant positive curvature
    third = counts[3] - 3 * counts[2] + 3 * counts[1] - counts[0]
    assert third == 0


def test_ar_sim_costs_more_than_parallel():
    par = bench.decoder_madds("lconv", 64, d_model=16, blocks=2, kernel_size=5)
    ar = bench.decoder_madds("ar-sim", 64, d_model=16, blocks=2, kernel_size=5)
    assert ar / par >= 5.0


def test_run_benchmark_rows_and_csv():
    rows = bench.run_benchmark(["lconv", "ar-sim"], [8, 16], repeats=2,
                               d_model=16, blocks=1, kernel_size=3)
    assert len(rows) == 4
    csv = bench.format_csv(rows)
    lines = csv.splitlines()
    assert lines[0] == "decoder,frames,mean_ms,stddev_ms,madds"
    assert len(lines) == 5
    # repeats >= 2 populate the stddev column with a real number
    assert all(len(line.split(",")) == 5 for line in lines[1:])


def test_benchmark_madds_deterministic():
    a = bench.decoder_madds("ar-sim", 20, d_model=16, blocks=1, kernel_size=3)
    b = bench.decoder_madds("ar-sim", 20, d_model=16, blocks=1, kernel_size=3)
    assert a == b


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        bench.run_benchmark(["wavenet"], [8])

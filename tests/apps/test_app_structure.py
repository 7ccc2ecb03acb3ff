"""Structural tests of the benchmark programs: choice inventories,
kernel generation outcomes, and per-benchmark paper properties."""

import numpy as np
import pytest

from repro.apps import (
    blackscholes,
    poisson2d,
    separable_convolution,
    sort,
    strassen,
    svd,
    tridiagonal,
)
from repro.compiler.compile import compile_program
from repro.hardware.machines import DESKTOP, SERVER


class TestBlackScholes:
    def test_single_kernel_no_local_variant(self):
        """Elementwise (bounding box 1): only the global variant."""
        compiled = compile_program(blackscholes.build_program(), DESKTOP)
        assert compiled.kernel_count == 1
        names = [c.name for c in compiled.transform("BlackScholes").exec_choices]
        assert names == ["formula/cpu", "formula/opencl"]

    def test_cpu_pays_more_per_option(self):
        rule = compiled_rule = None
        program = blackscholes.build_program()
        rule = program.transform("BlackScholes").choices[0].rule
        cost = rule.cost.resolve({})
        assert cost.effective_cpu_flops_per_item > cost.flops_per_item

    def test_prices_positive_and_bounded(self):
        env = blackscholes.make_env(1000, seed=0)
        prices = blackscholes.reference(env)
        assert (prices > 0).all()
        assert (prices <= env["In"]).all()  # call <= spot


class TestSeparableConvolution:
    def test_figure1_structure(self):
        """Top-level: 2 authored choices; three Convolve* leaves."""
        program = separable_convolution.build_program(7)
        top = program.transform("SeparableConvolution")
        assert [c.name for c in top.choices] == ["single_pass_2d", "separable"]
        assert set(program.transforms) == {
            "SeparableConvolution", "Convolve2D", "ConvolveRows", "ConvolveColumns",
        }

    def test_six_kernels_generated(self):
        """Each Convolve* gets global + local variants (bbox > 1)."""
        compiled = compile_program(separable_convolution.build_program(7), DESKTOP)
        assert compiled.kernel_count == 6

    def test_buffer_shape(self):
        env = separable_convolution.make_env(64, kernel_width=5)
        assert env["Out"].shape == (60, 60)

    def test_kernel_normalised(self):
        env = separable_convolution.make_env(32, kernel_width=5, seed=1)
        assert env["Kernel"].sum() == pytest.approx(1.0)


class TestSort:
    def test_nine_algorithm_choices(self):
        program = sort.build_program()
        assert len(program.transform("SortInPlace").choices) == 9

    def test_recursive_sorts_not_opencl_mapped(self):
        compiled = compile_program(sort.build_program(), DESKTOP)
        names = [c.name for c in compiled.transform("SortInPlace").exec_choices]
        assert "quick_sort/opencl" not in names
        assert "merge_sort_2/opencl" not in names
        # but the sequential-pattern ones are:
        assert "bitonic_sort/opencl" in names

    def test_copy_helper_gets_a_kernel(self):
        """'Some helper functions, such as copy, are mapped to OpenCL.'"""
        compiled = compile_program(sort.build_program(), DESKTOP)
        assert any("Copy" in name for name in compiled.kernels)

    def test_merge_runs_stability_shape(self):
        a = np.array([1.0, 3.0, 5.0])
        b = np.array([2.0, 3.0, 4.0])
        merged = sort.merge_runs(a, b)
        np.testing.assert_array_equal(merged, np.sort(np.concatenate([a, b])))


class TestStrassen:
    def test_five_authored_choices(self):
        program = strassen.build_program()
        assert [c.name for c in program.transform("MatMul").choices] == list(
            strassen.CHOICE_ORDER
        )

    def test_lapack_not_opencl_mapped(self):
        compiled = compile_program(strassen.build_program(), DESKTOP)
        names = [c.name for c in compiled.transform("MatMul").exec_choices]
        assert "lapack/opencl" not in names
        assert "naive/opencl" in names
        assert "naive/opencl_local" in names
        key = "MatMul/lapack"
        assert "external" in compiled.training_info.rejection_log[key]

    def test_strassen_recursion_is_correct(self):
        """Verify the 7-product algebra explicitly at one level."""
        from repro.core.configuration import default_configuration
        from repro.core.selector import Selector
        from repro.runtime.executor import run_program

        compiled = compile_program(strassen.build_program(), DESKTOP)
        config = default_configuration(compiled.training_info)
        config = config.with_selector(
            "MatMul",
            Selector(
                cutoffs=(64 * 64 + 1,),
                algorithms=(
                    compiled.transform("MatMul").choice_index("lapack/cpu"),
                    compiled.transform("MatMul").choice_index("strassen/cpu"),
                ),
            ),
        )
        env = strassen.make_env(128, seed=2)
        run_program(compiled, config, env)
        np.testing.assert_allclose(env["C"], env["A"] @ env["B"], rtol=1e-10)


class TestSVD:
    def test_embeds_strassen_matmul(self):
        program = svd.build_program()
        assert "MatMul" in program.transforms
        assert len(program.transform("MatMul").choices) == 5

    def test_variable_accuracy_flag(self):
        program = svd.build_program()
        assert program.transform("SVD").variable_accuracy

    def test_rank_tunable_registered(self):
        compiled = compile_program(svd.build_program(), DESKTOP)
        assert "svd_rank" in compiled.training_info.tunables

    def test_gram_phase_is_task_parallel(self):
        program = svd.build_program()
        phase = program.transform("GramPhase").choices[0]
        assert phase.parallel_steps

    def test_reference_error_decreases_with_rank(self):
        env = svd.make_env(48, seed=0)
        errs = []
        for rank in (2, 8, 32):
            approx = svd.reference(env, rank=rank)
            errs.append(np.linalg.norm(approx - env["A"]))
        assert errs == sorted(errs, reverse=True)


class TestTridiagonal:
    def test_three_solver_choices(self):
        program = tridiagonal.build_program()
        names = [c.name for c in program.transform("TridiagonalSolve").choices]
        assert names == ["thomas_direct", "cyclic_reduction", "pcr"]

    def test_cr_is_strided_thomas_is_not(self):
        program = tridiagonal.build_program()
        choices = {c.name: c.rule for c in
                   program.transform("TridiagonalSolve").choices}
        assert choices["cyclic_reduction"].cost.resolve({"_size": 1024}).strided_access
        assert not choices["thomas_direct"].cost.resolve({"_size": 1024}).strided_access

    def test_system_is_diagonally_dominant(self):
        env = tridiagonal.make_env(16, seed=0)
        assert (env["Diag"] > np.abs(env["Lower"]) + np.abs(env["Upper"]) - 1e-12).all()

    def test_reference_solves_the_system(self):
        env = tridiagonal.make_env(8, seed=1)
        x = tridiagonal.reference(env)
        n = len(x)
        residual = env["Diag"] * x
        residual[1:] += env["Lower"][1:] * x[:-1]
        residual[:-1] += env["Upper"][:-1] * x[1:]
        np.testing.assert_allclose(residual, env["Rhs"], rtol=1e-9)


class TestPoisson:
    def test_pipeline_structure(self):
        program = poisson2d.build_program()
        top = program.transform("Poisson2D").choices[0]
        assert [s.transform for s in top.steps] == ["Split", "SORLoop", "Merge"]

    def test_loop_driver_does_not_touch_data(self):
        program = poisson2d.build_program()
        rule = program.transform("SORLoop").choices[0].rule
        assert not rule.touches_data

    def test_iteration_kernel_launch_count(self):
        program = poisson2d.build_program()
        rule = program.transform("SORIteration").choices[0].rule
        assert rule.cost.resolve({}).kernel_launches == 2

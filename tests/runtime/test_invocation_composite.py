"""Integration tests for composite invocation: step sequencing,
intermediates, task-parallel steps, recursion and selector-driven
poly-algorithms."""

import numpy as np
import pytest

from repro.compiler.compile import compile_program
from repro.core.configuration import default_configuration
from repro.core.selector import Selector
from repro.hardware.machines import DESKTOP
from repro.lang import (
    Choice,
    CostSpec,
    Pattern,
    Rule,
    Spawn,
    Step,
    SubInvoke,
    Transform,
    make_program,
)
from repro.runtime.executor import run_program


def elementwise(name, fn):
    def body(ctx):
        src, out = ctx.input("In"), ctx.array("Out")
        r0, r1 = ctx.rows
        out[r0:r1] = fn(src[r0:r1])

    return Rule(name=name, reads=("In",), writes=("Out",), body=body,
                cost=CostSpec(flops_per_item=1.0))


def leaf(name, rule):
    return Transform(name=name, inputs=("In",), outputs=("Out",),
                     choices=(Choice(name="only", rule=rule),))


class TestCompositeSequencing:
    def make_chain_program(self):
        double = leaf("Double", elementwise("double", lambda x: 2 * x))
        inc = leaf("Inc", elementwise("inc", lambda x: x + 1))
        top = Transform(
            name="Top", inputs=("In",), outputs=("Out",),
            choices=(
                Choice(
                    name="chain",
                    steps=(
                        Step(transform="Double", bindings={"Out": "Mid"}),
                        Step(transform="Inc", bindings={"In": "Mid"}),
                    ),
                    intermediates={"Mid": lambda shapes, p: shapes["In"]},
                ),
            ),
        )
        return make_program("chain", [top, double, inc], "Top")

    def test_steps_run_in_order(self):
        program = self.make_chain_program()
        compiled = compile_program(program, DESKTOP)
        config = default_configuration(compiled.training_info)
        env = {"In": np.arange(100.0), "Out": np.zeros(100)}
        run_program(compiled, config, env)
        np.testing.assert_allclose(env["Out"], 2 * np.arange(100.0) + 1)

    def test_intermediate_allocated_fresh(self):
        """Two runs must not share intermediate state."""
        program = self.make_chain_program()
        compiled = compile_program(program, DESKTOP)
        config = default_configuration(compiled.training_info)
        for seed in (1, 2):
            env = {"In": np.full(10, float(seed)), "Out": np.zeros(10)}
            run_program(compiled, config, env)
            np.testing.assert_allclose(env["Out"], 2.0 * seed + 1)


class TestParallelSteps:
    def test_task_parallel_steps_both_execute(self):
        left = leaf("Left", elementwise("left", lambda x: x + 10))
        right = leaf("Right", elementwise("right", lambda x: x + 20))
        top = Transform(
            name="Top", inputs=("In",), outputs=("A", "B"),
            choices=(
                Choice(
                    name="par",
                    steps=(
                        Step(transform="Left", bindings={"Out": "A"}),
                        Step(transform="Right", bindings={"Out": "B"}),
                    ),
                    parallel_steps=True,
                ),
            ),
        )
        program = make_program("par", [top, left, right], "Top")
        compiled = compile_program(program, DESKTOP)
        config = default_configuration(compiled.training_info)
        env = {"In": np.ones(50), "A": np.zeros(50), "B": np.zeros(50)}
        run_program(compiled, config, env)
        assert env["A"].sum() == 50 * 11
        assert env["B"].sum() == 50 * 21


class TestRecursion:
    def make_recursive_sum_program(self):
        """Divide-and-conquer reduction: Out[0] = sum(In)."""

        def body(ctx):
            src = ctx.input("In")
            out = ctx.array("Out")
            n = len(src)
            if n <= 4:
                ctx.charge(flops=n)
                out[0] = src.sum()
                return None
            half = n // 2
            left_out = np.zeros(1)
            right_out = np.zeros(1)
            ctx.charge(flops=2)

            def combine(cctx):
                cctx.charge(flops=1)
                out[0] = left_out[0] + right_out[0]
                return None

            return Spawn(
                children=[
                    SubInvoke("RecSum", {"In": src[:half], "Out": left_out}),
                    SubInvoke("RecSum", {"In": src[half:], "Out": right_out}),
                ],
                combine=combine,
            )

        rule = Rule(name="recsum", reads=("In",), writes=("Out",), body=body,
                    pattern=Pattern.RECURSIVE, divisible=False)
        transform = Transform(
            name="RecSum", inputs=("In",), outputs=("Out",),
            choices=(Choice(name="rec", rule=rule),),
            size_of=lambda shapes: shapes["In"][0],
        )
        return make_program("recsum", [transform], "RecSum")

    def test_recursive_reduction_correct(self):
        program = self.make_recursive_sum_program()
        compiled = compile_program(program, DESKTOP)
        config = default_configuration(compiled.training_info)
        data = np.random.default_rng(0).random(1000)
        env = {"In": data, "Out": np.zeros(1)}
        run_program(compiled, config, env)
        assert env["Out"][0] == pytest.approx(data.sum())

    def test_recursion_spawns_stealable_work(self):
        program = self.make_recursive_sum_program()
        compiled = compile_program(program, DESKTOP)
        config = default_configuration(compiled.training_info)
        data = np.ones(4096)
        env = {"In": data, "Out": np.zeros(1)}
        result = run_program(compiled, config, env)
        assert result.stats.steals > 0
        assert env["Out"][0] == 4096


class TestPolyalgorithmDispatch:
    def test_selector_switches_choice_by_size(self):
        """Two choices that write different constants: the selector
        cutoff decides which one runs at each invocation size."""
        small_rule = elementwise("small", lambda x: np.full_like(x, 1.0))
        large_rule = elementwise("large", lambda x: np.full_like(x, 2.0))
        transform = Transform(
            name="Pick", inputs=("In",), outputs=("Out",),
            choices=(
                Choice(name="small", rule=small_rule),
                Choice(name="large", rule=large_rule),
            ),
        )
        program = make_program("pick", [transform], "Pick")
        compiled = compile_program(program, DESKTOP)
        compiled_t = compiled.transform("Pick")
        config = default_configuration(compiled.training_info)
        config = config.with_selector(
            "Pick",
            Selector(
                cutoffs=(100,),
                algorithms=(
                    compiled_t.choice_index("small/cpu"),
                    compiled_t.choice_index("large/cpu"),
                ),
            ),
        )
        env = {"In": np.zeros(50), "Out": np.zeros(50)}
        run_program(compiled, config, env)
        assert env["Out"][0] == 1.0  # below the cutoff

        env = {"In": np.zeros(500), "Out": np.zeros(500)}
        run_program(compiled, config, env)
        assert env["Out"][0] == 2.0  # above the cutoff

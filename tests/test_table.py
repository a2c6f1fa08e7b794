"""The check table: every check is one row of runner.CHECK_TABLE, and
runner.run_check is the one way any check runs."""

import functools
import pathlib
import re

from subgeo import geodesics, geometry, results, runner, submersion, tangent_bundle

SRC = pathlib.Path(runner.__file__).parent
VERDICT_CALL = re.compile(r"\.(summarize|biconditional|result)\(")


def test_only_results_and_runner_reach_a_verdict():
    reaching = {path.name for path in SRC.glob("*.py") if VERDICT_CALL.search(path.read_text())}
    assert reaching <= {"results.py", "runner.py"}


def test_every_row_names_a_kernel_and_a_rule_or_a_driver():
    for name, spec in runner.CHECK_TABLE.items():
        assert spec.needs and set(spec.needs) <= set(runner.NEEDS), name
        if spec.kernel:
            # by module and attribute name, so the function is looked up at each run
            module, attr = spec.kernel
            assert callable(getattr(module, attr)) and callable(spec.rule), name
            assert spec.stack in runner.STACKS, name
            assert spec.driver.func is runner._run_kernel and spec.driver.args == (spec,), name
        else:
            assert (spec.stack, spec.rule, spec.keys) == ("", None, ()), name
            assert callable(spec.driver), name
            assert not isinstance(spec.driver, functools.partial), name


def test_no_check_function_lives_outside_the_table():
    for module in (geodesics, geometry, results, submersion, tangent_bundle):
        names = [n for n in vars(module) if n.startswith(("check_", "sweep_"))
                 or n.endswith("_check")]
        assert names == [], module.__name__

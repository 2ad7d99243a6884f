"""Bundled example graphs.

figure1 is the four-variable dose/mediator/outcome graph with a common cause
L; figure2 generalizes it to n alternating dose and mediator steps with L
unmeasured; figure3 is the same skeleton with the mediators as intervention
targets.  ablated_figure1 removes the mediator and hides L, leaving nothing
to adjust for.  FIXTURES names the graphs that ``swigident fixture`` prints.
"""

from __future__ import annotations

from .model import BaseDag, Role, Variable


def figure1(l_observed: bool = True) -> BaseDag:
    """L confounds dose D1 and outcome Y1; the effect runs through M1."""
    return BaseDag(
        name="fig1",
        variables=(
            Variable("L", time=0, role=Role.COVARIATE, observed=l_observed),
            Variable("D1", time=1, role=Role.TARGET),
            Variable("M1", time=2, role=Role.MEDIATOR),
            Variable("Y1", time=3, role=Role.OUTCOME),
        ),
        edges=frozenset(
            {("L", "D1"), ("L", "Y1"), ("D1", "M1"), ("M1", "Y1")}
        ),
        targets=("D1",),
    )


def ablated_figure1() -> BaseDag:
    """figure1 with the mediator removed and L hidden: D1 acts on Y1
    directly and the confounder cannot be adjusted for."""
    return BaseDag(
        name="fig1_ablated",
        variables=(
            Variable("L", time=0, role=Role.COVARIATE, observed=False),
            Variable("D1", time=1, role=Role.TARGET),
            Variable("Y1", time=2, role=Role.OUTCOME),
        ),
        edges=frozenset({("L", "D1"), ("L", "Y1"), ("D1", "Y1")}),
        targets=("D1",),
    )


def _alternating_variables(n: int, dose_role: Role, mediator_role: Role):
    if n < 1:
        raise ValueError("n must be >= 1")
    variables = [Variable("L", time=0, role=Role.COVARIATE, observed=False)]
    for t in range(1, n + 1):
        variables.append(Variable(f"D{t}", time=t, role=dose_role))
        variables.append(Variable(f"M{t}", time=t, role=mediator_role))
    variables.append(Variable("Y", time=n + 1, role=Role.OUTCOME))
    edges = set()
    for t in range(1, n + 1):
        edges.add(("L", f"D{t}"))
        edges.add((f"D{t}", f"M{t}"))
        edges.add((f"M{t}", "Y"))
        if t > 1:
            edges.add((f"M{t - 1}", f"D{t}"))
            edges.add((f"M{t - 1}", f"M{t}"))
    edges.add(("L", "Y"))
    return tuple(variables), frozenset(edges)


def figure2(n: int = 2) -> BaseDag:
    """n dose/mediator rounds with an unmeasured common cause of the doses
    and the outcome; the doses are the intervention targets."""
    variables, edges = _alternating_variables(n, Role.TARGET, Role.MEDIATOR)
    return BaseDag(
        name=f"fig2_n{n}",
        variables=variables,
        edges=edges,
        targets=tuple(f"D{t}" for t in range(1, n + 1)),
    )


def figure3(n: int = 2) -> BaseDag:
    """Same skeleton as figure2 with the mediators as intervention targets;
    the doses become ordinary outcomes of the past."""
    variables, edges = _alternating_variables(n, Role.OTHER, Role.TARGET)
    return BaseDag(
        name=f"fig3_n{n}",
        variables=variables,
        edges=edges,
        targets=tuple(f"M{t}" for t in range(1, n + 1)),
    )


FIXTURES = {
    "fig1": figure1,
    "fig1_ablated": ablated_figure1,
    "fig2_n2": lambda: figure2(2),
    "fig3_n2": lambda: figure3(2),
}

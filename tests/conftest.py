"""Hypothesis profiles. ``--hypothesis-profile=ci`` draws the same examples
on every run, so a red CI run can be re-run with the same draws; without the
option, runs draw afresh as before."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)

"""Hypothesis profiles for the test suite.

`mutant` runs each property's explicit examples and its generated examples,
but never shrinks a failure: for runs against a deliberately broken copy of
the code, where many properties fail and shrinking each failure would take
most of the run.  Select it with `pytest --hypothesis-profile=mutant`;
without that option the default profile applies, unchanged.  A property's
own settings (example counts, derandomize, no database) hold under either
profile, since they are read when its module is collected, after the
profile is loaded.
"""

try:
    from hypothesis import Phase, settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("mutant", phases=[Phase.explicit, Phase.generate])

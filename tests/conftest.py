"""One Hypothesis profile for the suite: every phase but ``explain``.

The explain phase runs only after a failure, replaying the shrunk example
to say which parts of it matter; on oracle tests that draw many values it
takes minutes and hundreds of MB before the failure is reported.  Every
``@settings(...)`` in the tests inherits this profile's phases.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "germglue", phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("germglue")

import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# CI runners set CI: there every property test draws the same examples on each
# leg of the matrix, so a rare example cannot fail one leg and pass the next.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

"""`python -m innerscope` runs the innerscope command from a source checkout."""

import sys

from .cli import main

sys.exit(main())
